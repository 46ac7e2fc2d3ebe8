//! Benchmark worker for the Griffin workspace.
//!
//! `run.py` drives this binary; each invocation does one unit of work
//! in a fresh process and prints one JSON result line on stdout:
//!
//! * `setup`  — the set-up of a cold campaign only, timed from the start
//!   of the process: scenario loaded, cells built, a fresh cache
//!   directory made and opened;
//! * `sweep`  — the same set-up, then the cold campaign on that cache
//!   (`run_campaign` → CSV/JSON reports);
//! * `trace`  — the per-layer decomposition: calls into each layer's
//!   public functions, timed from outside, with the results checked
//!   against the reports of an untraced `sweep` in the same directory.
//!
//! Paths are relative to the working directory, which `run.py` sets to
//! a fresh directory per invocation (unix socket paths are short that
//! way, whatever the checkout's location).

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use griffin_core::accelerator::{Accelerator, RunReport, Workload};
use griffin_core::arch::ArchSpec;
use griffin_serve::{
    serve_connections, Client, Daemon, Listener, ReportKind, ScenarioSource, ServeAddr,
    ServeConfig, StreamOutcome,
};
use griffin_sim::config::SparsityMode;
use griffin_sim::scratch::SimScratch;
use griffin_sweep::cache::{CacheStats, CellMetrics, ResultCache};
use griffin_sweep::executor::{default_workers, run_campaign, CampaignReport, CellRecord};
use griffin_sweep::fingerprint::Fingerprint;
use griffin_sweep::json::Json;
use griffin_sweep::report::{to_csv, to_json, write_file};
use griffin_sweep::scenario::Scenario;
use griffin_sweep::spec::SweepSpec;
use griffin_watch::model::CampaignModel;

type Res<T> = Result<T, String>;

/// The cold campaign's disk cache, relative to the working directory.
const CACHE_DIR: &str = "cache";
/// Submissions of the campaign's own scenario in the traced serve probe.
const TRACE_PROBES: usize = 5;

fn main() {
    let start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) => Opts::parse(rest).and_then(|o| match cmd.as_str() {
            "setup" => setup(&o, start).map(|(setup_s, _, _)| obj(vec![("setup_s", num(setup_s))])),
            "sweep" => cmd_sweep(&o, start),
            "trace" => cmd_trace(&o),
            other => Err(format!("unknown command `{other}`")),
        }),
        None => Err("usage: griffin-perfbench <setup|sweep|trace> [--key value]...".into()),
    };
    match result {
        Ok(json) => println!("{}", json.write()),
        Err(e) => {
            eprintln!("griffin-perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// `--key value` pairs.
struct Opts(BTreeMap<String, String>);

impl Opts {
    fn parse(args: &[String]) -> Res<Opts> {
        let mut map = BTreeMap::new();
        let mut it = args.iter();
        while let Some(k) = it.next() {
            let key = k
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --key, got `{k}`"))?;
            let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            map.insert(key.to_string(), v.clone());
        }
        Ok(Opts(map))
    }

    fn str(&self, key: &str) -> Res<&str> {
        self.0
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{key}"))
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> Res<T> {
        self.str(key)?
            .parse()
            .map_err(|_| format!("--{key} is not a valid number"))
    }
}

fn obj(entries: Vec<(&str, Json)>) -> Json {
    Json::obj(entries.into_iter().map(|(k, v)| (k.to_string(), v)))
}

fn num(v: f64) -> Json {
    Json::from_f64(v)
}

fn nums(vs: &[f64]) -> Json {
    Json::Arr(vs.iter().map(|&v| num(v)).collect())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn fresh_dir(path: &Path) -> io::Result<()> {
    if path.exists() {
        fs::remove_dir_all(path)?;
    }
    fs::create_dir_all(path)
}

/// User + system CPU time of this process, in clock ticks, from
/// `/proc/self/stat` (fields 14 and 15).
fn cpu_ticks() -> Res<u64> {
    let stat = fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
    let after = stat.rsplit_once(')').ok_or("malformed /proc/self/stat")?.1;
    let fields: Vec<&str> = after.split_whitespace().collect();
    // `after` starts at field 3 (state), so fields 14/15 sit at 11/12.
    let tick = |i: usize| -> Res<u64> {
        fields
            .get(i)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    Ok(tick(11)? + tick(12)?)
}

/// A scenario file with its mask seeds replaced by `[seed, seed + 1]`.
fn seeded_scenario(path: &str, seed: u64) -> Res<Scenario> {
    let mut sc = Scenario::load(path).map_err(|e| e.to_string())?;
    sc.seeds = vec![seed, seed.wrapping_add(1)];
    Ok(sc)
}

// ------------------------------------------------------------------
// setup + sweep: one cold campaign
// ------------------------------------------------------------------

/// The set-up of a cold campaign, timed from `start` (the start of the
/// process): scenario loaded, cells built, the cache opened with
/// `ResultCache::at_dir` on a directory this call makes.
fn setup(o: &Opts, start: Instant) -> Res<(f64, SweepSpec, ResultCache)> {
    let spec = seeded_scenario(o.str("scenario")?, o.num("seed")?)?.to_spec();
    std::hint::black_box(spec.cells());
    fs::create_dir(CACHE_DIR).map_err(|e| format!("{CACHE_DIR}: {e}"))?;
    let cache = ResultCache::at_dir(CACHE_DIR).map_err(|e| e.to_string())?;
    Ok((start.elapsed().as_secs_f64(), spec, cache))
}

fn cmd_sweep(o: &Opts, start: Instant) -> Res<Json> {
    let (setup_s, spec, cache) = setup(o, start)?;
    let workers = default_workers();
    let cpu0 = cpu_ticks()?;
    let t = Instant::now();
    let report = run_campaign(&spec, &cache, workers).map_err(|e| e.to_string())?;
    write_file("report.csv", &to_csv(&report)).map_err(|e| e.to_string())?;
    write_file("report.json", &to_json(&report)).map_err(|e| e.to_string())?;
    let cold_s = t.elapsed().as_secs_f64();
    let cpu = cpu_ticks()? - cpu0;

    Ok(obj(vec![
        ("setup_s", num(setup_s)),
        ("cold_s", num(cold_s)),
        ("cells", num(report.cells.len() as f64)),
        ("workers", num(workers as f64)),
        ("cpu_ticks", num(cpu as f64)),
    ]))
}

// ------------------------------------------------------------------
// serve probe: daemon + socket + one client
// ------------------------------------------------------------------

/// An in-process daemon behind `serve_connections` on `./sock`.
struct Session {
    daemon: Arc<Daemon>,
    stop: Arc<AtomicBool>,
    server: thread::JoinHandle<io::Result<()>>,
    addr: ServeAddr,
}

impl Session {
    fn start(dir: &str) -> Res<Session> {
        let daemon = Arc::new(Daemon::start(ServeConfig::new(dir)).map_err(|e| e.to_string())?);
        let addr = ServeAddr::Unix("sock".into());
        let listener = Listener::bind(&addr).map_err(|e| e.to_string())?;
        let stop = Arc::new(AtomicBool::new(false));
        let server = {
            let (daemon, stop) = (Arc::clone(&daemon), Arc::clone(&stop));
            thread::spawn(move || serve_connections(&daemon, vec![listener], &stop))
        };
        Ok(Session {
            daemon,
            stop,
            server,
            addr,
        })
    }

    fn connect(&self, name: &str) -> Res<Client> {
        Client::connect(&self.addr, name).map_err(|e| e.to_string())
    }

    /// Stops the accept loop, joins every connection thread, and drains
    /// the daemon. Clients must be dropped first.
    fn stop(self) -> Res<()> {
        self.stop.store(true, Ordering::SeqCst);
        let served = self.server.join().map_err(|_| "serve thread panicked")?;
        served.map_err(|e| e.to_string())?;
        match Arc::try_unwrap(self.daemon) {
            Ok(d) => d.shutdown(),
            Err(_) => return Err("daemon still shared after the server stopped".into()),
        }
        Ok(())
    }
}

/// One traced submission's outcome as the client saw it.
#[derive(Default)]
struct Submission {
    cell_done: usize,
    cached: usize,
    events: usize,
    deduped: bool,
    csv: String,
    /// accept, queue, campaign, tail, report (ms).
    spans: [f64; 5],
    fold: Duration,
    parse_errors: usize,
}

fn event_kind(ev: &Json) -> &str {
    ev.get("ev").and_then(|v| v.as_str().ok()).unwrap_or("")
}

/// Submits `text` and streams it to `stream_end`, then fetches the CSV
/// report. `submit_and_stream` is split into its `submit` +
/// `consume_stream` halves to stamp the protocol boundaries, and every
/// event is folded through the watch model.
fn submit_one(client: &mut Client, text: &str) -> Res<Submission> {
    let source = ScenarioSource::Inline(text.to_string());
    let mut sub = Submission::default();
    let t0 = Instant::now();
    let accepted = client
        .submit(&source, Some("perfbench"))
        .map_err(|e| e.to_string())?;
    let t_acc = Instant::now();
    let (mut t_start, mut t_done) = (None, None);
    let mut model = CampaignModel::new();
    let outcome = client
        .consume_stream(|_, ev| {
            let now = Instant::now();
            match event_kind(ev) {
                "campaign_start" => {
                    t_start.get_or_insert(now);
                }
                "campaign_done" | "campaign_failed" => t_done = Some(now),
                "cell_done" => {
                    sub.cell_done += 1;
                    if matches!(ev.get("cached"), Some(Json::Bool(true))) {
                        sub.cached += 1;
                    }
                }
                _ => {}
            }
            sub.events += 1;
            let line = ev.write();
            let f = Instant::now();
            model.apply_line(&line);
            sub.fold += f.elapsed();
        })
        .map_err(|e| e.to_string())?;
    let t_end = Instant::now();
    if outcome != StreamOutcome::Done {
        return Err(format!("campaign {} did not finish", accepted.campaign));
    }
    let t_start = t_start.unwrap_or(t_acc);
    let t_done = t_done.unwrap_or(t_end);
    sub.spans[0] = ms(t_acc - t0);
    sub.spans[1] = ms(t_start.saturating_duration_since(t_acc));
    sub.spans[2] = ms(t_done.saturating_duration_since(t_start));
    sub.spans[3] = ms(t_end.saturating_duration_since(t_done));
    sub.parse_errors = model.parse_errors;
    let t_rep = Instant::now();
    sub.csv = client
        .report(&accepted.campaign, ReportKind::Csv)
        .map_err(|e| e.to_string())?;
    sub.spans[4] = ms(t_rep.elapsed());
    sub.deduped = accepted.deduped;
    Ok(sub)
}

// ------------------------------------------------------------------
// trace: per-layer decomposition
// ------------------------------------------------------------------

/// Per-layer spans and counters of the decomposed campaign.
#[derive(Default)]
struct Decomp {
    build_s: f64,
    builds: usize,
    simulate_s: f64,
    lineup_s: BTreeMap<String, f64>,
    per_arch_s: f64,
    family_s: f64,
    windows: u64,
    replayed: u64,
    effectual_ops: f64,
    borrowed_ops: f64,
    starved_cycles: f64,
    cycles: f64,
    bw_bound_layers: usize,
    lookup_ms: f64,
    store_ms: f64,
    csv_ms: f64,
    json_ms: f64,
    /// Wall of the spans that mirror the untraced campaign.
    mirror_s: f64,
    mismatches: Vec<String>,
}

/// `Sparse.B*` → `sparse_b_star`: metric-name form of an arch name.
fn arch_key(name: &str) -> String {
    name.to_ascii_lowercase()
        .replace('*', "_star")
        .replace('.', "_")
}

fn metrics_of(report: &RunReport) -> CellMetrics {
    CellMetrics {
        speedup: report.speedup,
        cycles: report.network.cycles(),
        dense_cycles: report.network.dense_cycles(),
        power_mw: report.cost.power_mw(),
        area_mm2: report.cost.area_mm2(),
        tops_per_w: report.effective_tops_per_w,
        tops_per_mm2: report.effective_tops_per_mm2,
    }
}

fn scoped_scratch(token: u128) -> SimScratch {
    let mut scratch = SimScratch::new();
    scratch.begin_reuse_scope(token);
    scratch
}

/// Decomposes one campaign the way the executor runs it: every
/// distinct (workload, category, seed) built once, then one
/// `run_family_batch` per (workload, category) over the whole arch axis
/// and the seed planes in grid order. The assembled CSV must equal
/// `reference` byte for byte.
fn decompose(spec: &SweepSpec, reference: &str, scratch_dir: &Path, d: &mut Decomp) -> Res<()> {
    let mirror = Instant::now();
    let cells = spec.cells();
    // (workload, category) groups in grid order, with their archs and
    // seeds in first-appearance order.
    let mut groups: Vec<(usize, Vec<ArchSpec>, Vec<u64>)> = Vec::new();
    for (ci, c) in cells.iter().enumerate() {
        let g = match groups.iter().position(|(lead, _, _)| {
            cells[*lead].workload == c.workload && cells[*lead].category == c.category
        }) {
            Some(g) => g,
            None => {
                groups.push((ci, Vec::new(), Vec::new()));
                groups.len() - 1
            }
        };
        let (_, archs, seeds) = &mut groups[g];
        if !archs.iter().any(|a| a.name == c.arch.name) {
            archs.push(c.arch.clone());
        }
        if !seeds.contains(&c.seed) {
            seeds.push(c.seed);
        }
    }

    let mut records: Vec<(CellRecord, Fingerprint)> = Vec::with_capacity(cells.len());
    let mut group_planes: Vec<Vec<Workload>> = Vec::new();
    for (g, (lead, archs, seeds)) in groups.iter().enumerate() {
        let lead = &cells[*lead];
        let mut planes = Vec::with_capacity(seeds.len());
        for &seed in seeds {
            let t = Instant::now();
            let wl = lead
                .workload
                .build(lead.category, seed)
                .map_err(|e| e.to_string())?;
            d.build_s += t.elapsed().as_secs_f64();
            d.builds += 1;
            planes.push(wl);
        }
        let accels: Vec<Accelerator> = archs
            .iter()
            .map(|a| Accelerator::new(a.clone(), spec.sim))
            .collect();
        let accel_refs: Vec<&Accelerator> = accels.iter().collect();
        let plane_refs: Vec<&Workload> = planes.iter().collect();
        let mut scratch = scoped_scratch(g as u128 + 1);
        let t = Instant::now();
        let reports = Accelerator::run_family_batch(&accel_refs, &plane_refs, &mut scratch);
        d.simulate_s += t.elapsed().as_secs_f64();

        for r in reports.iter().flatten() {
            for l in &r.network.layers {
                d.effectual_ops += l.effectual_ops;
                d.borrowed_ops += l.borrowed_ops;
                d.starved_cycles += l.starved_cycles;
                d.cycles += l.cycles;
                d.bw_bound_layers += usize::from(l.bw_floor_cycles > l.schedule_cycles);
            }
        }
        for c in cells
            .iter()
            .filter(|c| c.workload == lead.workload && c.category == lead.category)
        {
            let a = archs
                .iter()
                .position(|a| a.name == c.arch.name)
                .expect("grouped");
            let p = seeds.iter().position(|&s| s == c.seed).expect("grouped");
            let fp = c.fingerprint(&spec.sim);
            let record = CellRecord {
                index: c.index,
                workload: c.workload.name(),
                category: c.category,
                arch: c.arch.name.clone(),
                seed: c.seed,
                fingerprint: fp.to_string(),
                metrics: metrics_of(&reports[a][p]),
            };
            records.push((record, fp));
        }
        group_planes.push(planes);
    }
    records.sort_by_key(|(r, _)| r.index);

    fresh_dir(scratch_dir).map_err(|e| e.to_string())?;
    let cache = ResultCache::at_dir(scratch_dir).map_err(|e| e.to_string())?;
    let t = Instant::now();
    for (r, fp) in &records {
        cache.insert(*fp, r.metrics);
    }
    d.store_ms += ms(t.elapsed());
    let cache = ResultCache::at_dir(scratch_dir).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let mut lost = 0;
    for (r, fp) in &records {
        if cache.lookup(*fp) != Some(r.metrics) {
            lost += 1;
        }
    }
    d.lookup_ms += ms(t.elapsed());
    if lost > 0 {
        d.mismatches
            .push(format!("{lost} cache entries did not read back"));
    }

    let report = CampaignReport {
        campaign: spec.name.clone(),
        cells: records.into_iter().map(|(r, _)| r).collect(),
        cache: CacheStats::default(),
        workers: 1,
        elapsed_ms: 0,
    };
    let t = Instant::now();
    let csv = to_csv(&report);
    d.csv_ms += ms(t.elapsed());
    let t = Instant::now();
    std::hint::black_box(to_json(&report));
    d.json_ms += ms(t.elapsed());
    d.mirror_s += mirror.elapsed().as_secs_f64();
    if csv != reference {
        d.mismatches.push(format!(
            "{}: traced cells differ from the untraced report",
            spec.name
        ));
    }

    // Outside the mirrored spans: per-arch costs and the family path.
    for ((lead, archs, _), planes) in groups.iter().zip(&group_planes) {
        let category = cells[*lead].category;
        let plane_refs: Vec<&Workload> = planes.iter().collect();
        let mut scratch = scoped_scratch(1);
        for a in ArchSpec::table7_lineup() {
            let key = arch_key(&a.name);
            let t = Instant::now();
            std::hint::black_box(
                Accelerator::new(a, spec.sim).run_batch(&plane_refs, &mut scratch),
            );
            *d.lineup_s.entry(key).or_default() += t.elapsed().as_secs_f64();
        }

        // The family path on the single-side `Sparse.B` archs (Baseline
        // excluded, so `run_family_batch` takes the multi-window path),
        // against per-arch `run_batch` on the same archs.
        let family: Vec<Accelerator> = archs
            .iter()
            .filter(|a| matches!(a.mode_for(category), SparsityMode::SparseB { .. }))
            .map(|a| Accelerator::new(a.clone(), spec.sim))
            .collect();
        let family_refs: Vec<&Accelerator> = family.iter().collect();
        let mut scratch = scoped_scratch(2);
        let t = Instant::now();
        let singles: Vec<Vec<RunReport>> = family
            .iter()
            .map(|a| a.run_batch(&plane_refs, &mut scratch))
            .collect();
        d.per_arch_s += t.elapsed().as_secs_f64();
        let mut scratch = scoped_scratch(3);
        let t = Instant::now();
        let batched = Accelerator::run_family_batch(&family_refs, &plane_refs, &mut scratch);
        d.family_s += t.elapsed().as_secs_f64();
        let share = scratch.share_stats();
        d.windows += share.multi_windows;
        d.replayed += share.multi_replayed;
        let outcome =
            |runs: &[Vec<RunReport>]| -> Vec<(CellMetrics, griffin_sim::report::NetworkReport)> {
                runs.iter()
                    .flatten()
                    .map(|r| (metrics_of(r), r.network.clone()))
                    .collect()
            };
        if outcome(&singles) != outcome(&batched) {
            d.mismatches.push(format!(
                "{}: family path differs from per-arch runs",
                spec.name
            ));
        }
    }
    Ok(())
}

fn cmd_trace(o: &Opts) -> Res<Json> {
    let scenario = seeded_scenario(o.str("scenario")?, o.num("seed")?)?;
    let reference = fs::read_to_string("report.csv").map_err(|e| e.to_string())?;
    let mut d = Decomp::default();
    decompose(
        &scenario.to_spec(),
        &reference,
        Path::new("trace-cache"),
        &mut d,
    )?;

    // The same campaign through serve, against a daemon whose state
    // directory holds the untraced run's cache: the wire, queue, fleet
    // and watch layers at full cell count.
    fs::create_dir_all("serve").map_err(|e| e.to_string())?;
    fs::rename(CACHE_DIR, "serve/cache").map_err(|e| e.to_string())?;
    let session = Session::start("serve")?;
    let mut client = session.connect("perfbench-trace")?;
    let text = scenario.canonical();
    let mut subs = Vec::with_capacity(TRACE_PROBES);
    for _ in 0..TRACE_PROBES {
        let sub = submit_one(&mut client, &text)?;
        if sub.csv != reference {
            d.mismatches.push("serve report differs from sweep".into());
        }
        if sub.parse_errors > 0 {
            d.mismatches.push("watch fold hit parse errors".into());
        }
        subs.push(sub);
    }
    drop(client);
    session.stop()?;

    let mut fields = Vec::new();
    let names = [
        "accept_ms",
        "queue_ms",
        "campaign_ms",
        "tail_ms",
        "report_ms",
    ];
    for (k, name) in names.into_iter().enumerate() {
        fields.push((
            name,
            nums(&subs.iter().map(|s| s.spans[k]).collect::<Vec<_>>()),
        ));
    }
    let events: usize = subs.iter().map(|s| s.events).sum();
    let fold: Duration = subs.iter().map(|s| s.fold).sum();
    let cell_done: usize = subs.iter().map(|s| s.cell_done).sum();
    let cached: usize = subs.iter().map(|s| s.cached).sum();
    fields.push(("submissions", num(subs.len() as f64)));
    fields.push(("events", num(events as f64)));
    fields.push(("fold_us", num(fold.as_secs_f64() * 1e6)));
    fields.push(("cell_done", num(cell_done as f64)));
    fields.push(("cached", num(cached as f64)));
    fields.push((
        "deduped",
        num(subs.iter().filter(|s| s.deduped).count() as f64),
    ));

    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    fields.extend([
        ("build_s", num(d.build_s)),
        ("builds", num(d.builds as f64)),
        ("simulate_s", num(d.simulate_s)),
        ("per_arch_s", num(d.per_arch_s)),
        ("family_s", num(d.family_s)),
        (
            "replay_frac",
            num(ratio(d.replayed as f64, d.windows as f64)),
        ),
        ("windows", num(d.windows as f64)),
        ("effectual_ops", num(d.effectual_ops)),
        ("borrowed_frac", num(ratio(d.borrowed_ops, d.effectual_ops))),
        ("starved_frac", num(ratio(d.starved_cycles, d.cycles))),
        ("bw_bound_layers", num(d.bw_bound_layers as f64)),
        ("lookup_ms", num(d.lookup_ms)),
        ("store_ms", num(d.store_ms)),
        ("csv_ms", num(d.csv_ms)),
        ("json_ms", num(d.json_ms)),
        ("mirror_s", num(d.mirror_s)),
        (
            "lineup_s",
            Json::obj(d.lineup_s.iter().map(|(k, &v)| (k.clone(), num(v)))),
        ),
        (
            "mismatches",
            Json::Arr(d.mismatches.iter().map(|m| Json::Str(m.clone())).collect()),
        ),
    ]);
    Ok(obj(fields))
}
