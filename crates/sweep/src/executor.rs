//! Multi-threaded campaign execution.
//!
//! The executor materializes a [`SweepSpec`] grid, probes the
//! [`ResultCache`] for every cell, then drives the remaining cells
//! through a pool of `std::thread` workers pulling from a shared atomic
//! work queue. Every distinct cache-missing scenario is one job — one
//! [`Accelerator::run_with`] call — so a campaign over a single workload
//! still spreads across every worker, and a fast worker simply takes the
//! next cell, so stragglers never gate throughput. Three properties hold
//! for any worker count:
//!
//! * **deterministic output** — results are assembled by grid index, so
//!   the report is byte-identical for 1 or 64 workers;
//! * **workload reuse** — each distinct (workload, category, seed)
//!   triple is built exactly once and shared read-only across workers,
//!   because mask construction dominates small-cell campaigns;
//! * **grid reuse** — jobs are queued in grid order (architecture
//!   fastest), and each worker scopes its scratch to the job's
//!   workload, so consecutive architectures over one workload share the
//!   memoized tile grids.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use griffin_core::accelerator::{Accelerator, RunReport, Workload};
use griffin_core::category::DnnCategory;
use griffin_sim::scratch::SimScratch;

use crate::cache::{CacheStats, CellMetrics, ResultCache};
use crate::fingerprint::{Fingerprint, Hasher};
use crate::spec::{Cell, SweepSpec};

/// One finished cell of a campaign report, in grid order.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRecord {
    /// Grid index (stable across worker counts and cache states).
    pub index: usize,
    /// Workload display name.
    pub workload: String,
    /// Category axis value.
    pub category: DnnCategory,
    /// Architecture display name.
    pub arch: String,
    /// Mask seed.
    pub seed: u64,
    /// Stable scenario fingerprint (hex).
    pub fingerprint: String,
    /// Simulation results.
    pub metrics: CellMetrics,
}

/// A completed campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Campaign name from the spec.
    pub campaign: String,
    /// Every cell in deterministic grid order.
    pub cells: Vec<CellRecord>,
    /// Cache activity during this campaign only.
    pub cache: CacheStats,
    /// Simulation worker threads spawned — 0 when every cell was served
    /// from the cache (not serialized; informational).
    pub workers: usize,
    /// Wall-clock milliseconds (not serialized; informational).
    pub elapsed_ms: u128,
}

/// Campaign failure.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepError {
    /// The spec had an empty axis.
    EmptySpec,
    /// A workload failed to build (e.g. degenerate ad-hoc dimensions).
    Workload(String),
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::EmptySpec => write!(f, "sweep spec has an empty axis"),
            SweepError::Workload(e) => write!(f, "workload construction failed: {e}"),
        }
    }
}

impl std::error::Error for SweepError {}

/// Default worker count for campaign drivers: every available core.
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A pool of reusable [`SimScratch`] instances shared **across**
/// campaigns.
///
/// Within one campaign each worker already keeps a single scratch for
/// its whole run, so the per-tile loop allocates nothing; but a fresh
/// campaign driver starts from empty scratches, re-growing every buffer
/// and rebuilding every memoized tile grid. A resident driver (the
/// serve daemon) keeps one pool alive instead: workers check scratches
/// out at thread start and return them at thread exit, so buffer
/// capacity — and any tile grids whose reuse scope still matches —
/// survive from one campaign to the next. Checking out of an empty pool
/// just creates a fresh scratch, which makes a throwaway pool exactly
/// equivalent to the pre-pool behavior.
#[derive(Default)]
pub struct ScratchPool {
    free: Mutex<Vec<SimScratch>>,
}

impl ScratchPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a pooled scratch, or creates a fresh one when none is
    /// parked.
    pub fn checkout(&self) -> SimScratch {
        self.free
            .lock()
            .expect("scratch pool lock")
            .pop()
            .unwrap_or_default()
    }

    /// Parks a scratch for the next campaign's workers.
    pub fn give_back(&self, scratch: SimScratch) {
        self.free.lock().expect("scratch pool lock").push(scratch);
    }

    /// How many scratches are currently parked.
    pub fn parked(&self) -> usize {
        self.free.lock().expect("scratch pool lock").len()
    }
}

impl std::fmt::Debug for ScratchPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScratchPool")
            .field("parked", &self.parked())
            .finish()
    }
}

/// Key identifying a unique workload build within a campaign.
fn workload_key(cell: &Cell) -> Fingerprint {
    let mut h = Hasher::new();
    h.feed(&cell.workload).feed(&cell.category).u64(cell.seed);
    h.finish()
}

/// Entries kept in the process-wide workload memo before it resets.
/// Mask tensors are a few hundred KB per workload, so the cap bounds
/// resident memory in long-lived daemons; a full reset (rather than
/// eviction bookkeeping) keeps the hot path to one map probe.
const WORKLOAD_MEMO_CAP: usize = 64;

/// Process-wide memo of built workloads, keyed by [`workload_key`].
/// Workload construction is deterministic in the key, so a hit is
/// value-identical to a fresh build — campaigns that revisit a workload
/// (daemon reruns, in-process fleet shards, benchmark passes) skip the
/// synthesis cost without any observable difference.
fn workload_memo() -> &'static Mutex<HashMap<Fingerprint, Arc<Workload>>> {
    static MEMO: std::sync::OnceLock<Mutex<HashMap<Fingerprint, Arc<Workload>>>> =
        std::sync::OnceLock::new();
    MEMO.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The cache record of one simulation run.
fn cell_metrics(report: &RunReport) -> CellMetrics {
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

/// A live progress event emitted by [`run_cells`] while a campaign is
/// executing. Events fire from worker threads in completion order (not
/// grid order); the final cell list is still assembled deterministically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CellEvent<'a> {
    /// A worker began simulating a cell (cache misses only).
    Started {
        /// The cell being simulated.
        cell: &'a Cell,
        /// Its stable scenario fingerprint.
        fingerprint: Fingerprint,
    },
    /// A cell's metrics became available.
    Finished {
        /// The finished cell.
        cell: &'a Cell,
        /// Its stable scenario fingerprint.
        fingerprint: Fingerprint,
        /// The simulation results.
        metrics: CellMetrics,
        /// `true` when served without a fresh simulation (a cache hit,
        /// or an in-campaign twin of a cell simulated this run).
        cached: bool,
    },
}

/// No-op observer for drivers that don't stream progress.
pub fn no_observer(_: &CellEvent<'_>) {}

/// Runs every grid cell of `spec`, using `cache` to skip scenarios that
/// were already simulated (by this process or, with a directory-backed
/// cache, by any earlier one).
///
/// At most `workers` simulation threads run, and never more than there
/// are distinct cache-missing scenarios; the report's
/// [`CampaignReport::workers`] records how many were spawned. Cache
/// counters in the returned report cover this campaign only.
///
/// # Errors
///
/// [`SweepError::EmptySpec`] when an axis is empty and
/// [`SweepError::Workload`] when a workload fails validation.
pub fn run_campaign(
    spec: &SweepSpec,
    cache: &ResultCache,
    workers: usize,
) -> Result<CampaignReport, SweepError> {
    if !spec.is_runnable() {
        return Err(SweepError::EmptySpec);
    }
    let start = Instant::now();
    let stats_before = cache.stats();
    // Every simulation thread parks exactly one scratch in the pool on
    // exit, so the pool's size afterwards is the spawned-thread count.
    let pool = ScratchPool::new();
    let records = run_cells_pooled(
        spec,
        &spec.cells(),
        cache,
        workers,
        workers.max(default_workers()),
        &no_observer,
        &pool,
    )?;

    let after = cache.stats();
    Ok(CampaignReport {
        campaign: spec.name.clone(),
        cells: records,
        cache: CacheStats {
            hits: after.hits - stats_before.hits,
            misses: after.misses - stats_before.misses,
            disk_hits: after.disk_hits - stats_before.disk_hits,
            stores: after.stores - stats_before.stores,
        },
        workers: pool.parked(),
        elapsed_ms: start.elapsed().as_millis(),
    })
}

/// Runs an arbitrary subset of a campaign's grid cells — the primitive
/// behind [`run_campaign`] (all cells) and the fleet coordinator's shard
/// execution (one shard's cells, minus journaled completions).
///
/// Returns one [`CellRecord`] per input cell, in input order; `cells`
/// keep their *global* grid indices, so records from disjoint subsets
/// can be recombined into a full campaign. `observe` is called from
/// worker threads as cells start and finish (see [`CellEvent`]) and must
/// therefore be `Sync`; pass [`no_observer`] when progress streaming is
/// not needed.
///
/// The phase-2 workload-build pool uses every core regardless of
/// `workers` (builds never affect the report, so a `--workers 1`
/// simulation run shouldn't serialize its cross-seed mask builds);
/// callers sharing the machine with sibling processes — spawned shard
/// workers — bound it via [`run_cells_bounded`].
///
/// # Errors
///
/// [`SweepError::Workload`] when a workload fails validation. An empty
/// subset is not an error (returns no records).
pub fn run_cells(
    spec: &SweepSpec,
    cells: &[Cell],
    cache: &ResultCache,
    workers: usize,
    observe: &(dyn Fn(&CellEvent<'_>) + Sync),
) -> Result<Vec<CellRecord>, SweepError> {
    run_cells_bounded(
        spec,
        cells,
        cache,
        workers,
        workers.max(default_workers()),
        observe,
    )
}

/// [`run_cells`] with an explicit phase-2 build-pool bound — for
/// processes pinned to a thread budget on a shared machine.
///
/// # Errors
///
/// As [`run_cells`].
pub fn run_cells_bounded(
    spec: &SweepSpec,
    cells: &[Cell],
    cache: &ResultCache,
    workers: usize,
    build_workers: usize,
    observe: &(dyn Fn(&CellEvent<'_>) + Sync),
) -> Result<Vec<CellRecord>, SweepError> {
    // A throwaway pool starts empty, so every worker builds a fresh
    // scratch — the historical behavior.
    run_cells_pooled(
        spec,
        cells,
        cache,
        workers,
        build_workers,
        observe,
        &ScratchPool::new(),
    )
}

/// [`run_cells_bounded`] drawing worker scratches from (and returning
/// them to) a caller-owned [`ScratchPool`] — the resident-daemon entry
/// point, where scratch capacity and matching-scope tile grids survive
/// across campaigns. Determinism is unaffected: a scratch carries
/// capacity, never results.
///
/// Each worker that runs parks one scratch in `pool` on exit. At most
/// `workers` run, and never more than there are distinct
/// cache-missing scenarios (none when every cell is cached).
///
/// # Errors
///
/// As [`run_cells`].
pub fn run_cells_pooled(
    spec: &SweepSpec,
    cells: &[Cell],
    cache: &ResultCache,
    workers: usize,
    build_workers: usize,
    observe: &(dyn Fn(&CellEvent<'_>) + Sync),
    pool: &ScratchPool,
) -> Result<Vec<CellRecord>, SweepError> {
    let fingerprints: Vec<Fingerprint> = cells.iter().map(|c| c.fingerprint(&spec.sim)).collect();

    // Phase 1: probe the cache, and deduplicate identical scenarios
    // within this campaign (e.g. a repeated seed): each distinct
    // fingerprint is simulated once, then fanned out to every cell
    // that shares it.
    let mut metrics: Vec<Option<CellMetrics>> =
        fingerprints.iter().map(|&fp| cache.lookup(fp)).collect();
    let mut missing: Vec<usize> = Vec::new(); // one representative per fingerprint
    let mut twins: HashMap<Fingerprint, Vec<usize>> = HashMap::new();
    for i in 0..cells.len() {
        match metrics[i] {
            Some(m) => observe(&CellEvent::Finished {
                cell: &cells[i],
                fingerprint: fingerprints[i],
                metrics: m,
                cached: true,
            }),
            None => {
                let bucket = twins.entry(fingerprints[i]).or_default();
                if bucket.is_empty() {
                    missing.push(i);
                }
                bucket.push(i);
            }
        }
    }

    if !missing.is_empty() {
        let workers = workers.clamp(1, missing.len());

        // Phase 2: build each distinct workload once, in parallel.
        let mut keys: Vec<Fingerprint> = Vec::new();
        let mut key_cells: Vec<&Cell> = Vec::new();
        {
            let mut seen = HashMap::new();
            for &i in &missing {
                let key = workload_key(&cells[i]);
                if seen.insert(key, ()).is_none() {
                    keys.push(key);
                    key_cells.push(&cells[i]);
                }
            }
        }
        // Workload construction is a pure function of the key, so builds
        // are memoized process-wide: repeated campaigns over the same
        // workloads (benchmark reruns, fleet shards in one process, the
        // resident daemon) skip mask synthesis entirely. The memo holds
        // `Arc`s, so sharing a hit costs one clone; determinism is
        // untouched because a cached build is value-identical to a fresh
        // one.
        let memo = workload_memo();
        let built: Mutex<HashMap<Fingerprint, Arc<Workload>>> = Mutex::new(HashMap::new());
        {
            let memo = memo.lock().expect("workload memo lock");
            let mut built = built.lock().expect("build lock");
            let mut k = 0;
            while k < keys.len() {
                if let Some(wl) = memo.get(&keys[k]) {
                    built.insert(keys[k], Arc::clone(wl));
                    keys.swap_remove(k);
                    key_cells.swap_remove(k);
                } else {
                    k += 1;
                }
            }
        }
        // The pool bound comes from the caller (all cores by default —
        // ROADMAP scheduler-headroom item — or the process's pinned
        // budget for spawned shard workers); builds never reach the
        // report, so the bound cannot affect results.
        let build_workers = build_workers.clamp(1, keys.len().max(1));
        let errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
        let next_key = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..build_workers {
                s.spawn(|| loop {
                    let k = next_key.fetch_add(1, Ordering::Relaxed);
                    if k >= keys.len() {
                        break;
                    }
                    let cell = key_cells[k];
                    match cell.workload.build(cell.category, cell.seed) {
                        Ok(wl) => {
                            let wl = Arc::new(wl);
                            built
                                .lock()
                                .expect("build lock")
                                .insert(keys[k], Arc::clone(&wl));
                            let mut memo = memo.lock().expect("workload memo lock");
                            if memo.len() >= WORKLOAD_MEMO_CAP {
                                memo.clear();
                            }
                            memo.insert(keys[k], wl);
                        }
                        Err(e) => errors
                            .lock()
                            .expect("error lock")
                            .push(format!("{}: {e}", cell.workload.name())),
                    }
                });
            }
        });
        let mut errors = errors.into_inner().expect("error lock");
        if !errors.is_empty() {
            errors.sort();
            return Err(SweepError::Workload(errors.join("; ")));
        }
        let built = built.into_inner().expect("build lock");

        // Phase 3: simulate the missing cells, one job per cell, any
        // worker, any order. Each worker keeps one `SimScratch` for its
        // whole run, so the per-tile scheduler loop allocates nothing at
        // steady state.
        let done: Mutex<Vec<(usize, CellMetrics)>> = Mutex::new(Vec::with_capacity(missing.len()));
        let next = AtomicUsize::new(0);
        // Check every worker's scratch out before spawning so a fast
        // worker that finishes early can't park a scratch a slow-to-start
        // worker then steals (each worker must hold a distinct scratch).
        let scratches: Vec<SimScratch> = (0..workers).map(|_| pool.checkout()).collect();
        std::thread::scope(|s| {
            for mut scratch in scratches {
                let (missing, fingerprints, built, twins, done, next) =
                    (&missing, &fingerprints, &built, &twins, &done, &next);
                s.spawn(move || {
                    loop {
                        let j = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&i) = missing.get(j) else {
                            break;
                        };
                        let cell = &cells[i];
                        observe(&CellEvent::Started {
                            cell,
                            fingerprint: fingerprints[i],
                        });
                        // Scoping the scratch to the workload (not the
                        // architecture) shares its tile grids across the
                        // consecutive architecture jobs this worker takes.
                        let key = workload_key(cell);
                        scratch.begin_reuse_scope((u128::from(key.0) << 64) | u128::from(key.1));
                        let report = Accelerator::new(cell.arch.clone(), spec.sim)
                            .run_with(&built[&key], &mut scratch);
                        let m = cell_metrics(&report);
                        cache.insert(fingerprints[i], m);
                        // Stream completion for the simulated cell and
                        // every in-campaign twin it resolves.
                        for &twin in &twins[&fingerprints[i]] {
                            observe(&CellEvent::Finished {
                                cell: &cells[twin],
                                fingerprint: fingerprints[twin],
                                metrics: m,
                                cached: twin != i,
                            });
                        }
                        done.lock().expect("done lock").push((i, m));
                    }
                    pool.give_back(scratch);
                });
            }
        });
        for (i, m) in done.into_inner().expect("done lock") {
            for &twin in &twins[&fingerprints[i]] {
                metrics[twin] = Some(m);
            }
        }
    }

    // Assemble in input (grid) order — identical output for any worker
    // count.
    Ok(cells
        .iter()
        .zip(&fingerprints)
        .zip(metrics)
        .map(|((cell, fp), m)| CellRecord {
            index: cell.index,
            workload: cell.workload.name(),
            category: cell.category,
            arch: cell.arch.name.clone(),
            seed: cell.seed,
            fingerprint: fp.to_string(),
            metrics: m.expect("every cell resolved"),
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use griffin_core::arch::ArchSpec;
    use griffin_sim::config::{Fidelity, SimConfig};

    fn small_spec() -> SweepSpec {
        SweepSpec::new("unit")
            .adhoc_layer("l0", 32, 256, 32, 1.0, 0.2)
            .adhoc_layer("l1", 16, 128, 64, 0.5, 0.5)
            .category(DnnCategory::B)
            .arch(ArchSpec::dense())
            .arch(ArchSpec::sparse_b_star())
            .arch(ArchSpec::griffin())
            .seeds([1, 2])
            .sim(SimConfig {
                fidelity: Fidelity::Sampled { tiles: 4, seed: 1 },
                ..SimConfig::default()
            })
    }

    #[test]
    fn campaign_covers_every_cell_in_order() {
        let cache = ResultCache::in_memory();
        let r = run_campaign(&small_spec(), &cache, 2).unwrap();
        assert_eq!(r.cells.len(), 12);
        for (i, c) in r.cells.iter().enumerate() {
            assert_eq!(c.index, i);
            assert!(c.metrics.speedup > 0.0);
        }
        assert_eq!(r.cache.misses, 12);
        assert_eq!(r.cache.stores, 12);
        assert_eq!(r.cache.hits, 0);
    }

    #[test]
    fn rerun_is_fully_cached() {
        let cache = ResultCache::in_memory();
        let first = run_campaign(&small_spec(), &cache, 3).unwrap();
        let second = run_campaign(&small_spec(), &cache, 3).unwrap();
        assert_eq!(second.cache.hits, 12);
        assert_eq!(second.cache.misses, 0);
        assert_eq!(first.cells, second.cells);
        // The report counts threads actually spawned: none when nothing
        // missed the cache.
        assert_eq!(first.workers, 3);
        assert_eq!(second.workers, 0);
    }

    #[test]
    fn duplicate_cells_simulate_once_and_fan_out() {
        // A repeated seed duplicates every scenario; each distinct
        // fingerprint must be simulated (stored) once, with the result
        // shared by its twin cells.
        let spec = small_spec().seeds([1, 1]);
        let cache = ResultCache::in_memory();
        let r = run_campaign(&spec, &cache, 2).unwrap();
        assert_eq!(r.cells.len(), 12);
        assert_eq!(r.cache.stores, 6, "one simulation per distinct scenario");
        // Grid order is workload → category → seed → arch, so the twin
        // of each cell under the duplicated seed sits one arch-block
        // (3 cells) later inside the same workload block of 6.
        for block in r.cells.chunks(6) {
            let (first, second) = block.split_at(3);
            for (a, b) in first.iter().zip(second) {
                assert_eq!(a.metrics, b.metrics);
                assert_eq!(a.fingerprint, b.fingerprint);
            }
        }
    }

    #[test]
    fn empty_axes_are_rejected() {
        let cache = ResultCache::in_memory();
        let spec = SweepSpec::new("nothing");
        assert_eq!(run_campaign(&spec, &cache, 1), Err(SweepError::EmptySpec));
    }

    #[test]
    fn invalid_adhoc_workload_is_an_error() {
        let cache = ResultCache::in_memory();
        let spec = SweepSpec::new("bad")
            .adhoc_layer("zero", 0, 16, 16, 1.0, 1.0)
            .category(DnnCategory::Dense)
            .arch(ArchSpec::dense());
        match run_campaign(&spec, &cache, 2) {
            Err(SweepError::Workload(msg)) => assert!(msg.contains("zero")),
            other => panic!("expected workload error, got {other:?}"),
        }
    }

    #[test]
    fn disjoint_subsets_recombine_into_the_full_campaign() {
        let spec = small_spec();
        let cells = spec.cells();
        let cache = ResultCache::in_memory();
        // Interleaved split: subsets are not contiguous grid ranges.
        let evens: Vec<Cell> = cells.iter().filter(|c| c.index % 2 == 0).cloned().collect();
        let odds: Vec<Cell> = cells.iter().filter(|c| c.index % 2 == 1).cloned().collect();
        let mut recs = run_cells(&spec, &evens, &cache, 2, &no_observer).unwrap();
        recs.extend(run_cells(&spec, &odds, &cache, 3, &no_observer).unwrap());
        recs.sort_by_key(|r| r.index);
        let full = run_campaign(&spec, &ResultCache::in_memory(), 2).unwrap();
        assert_eq!(recs, full.cells);
        // Empty subsets are fine.
        assert_eq!(run_cells(&spec, &[], &cache, 2, &no_observer), Ok(vec![]));
    }

    #[test]
    fn observer_streams_every_cell_exactly_once() {
        let spec = small_spec();
        let cache = ResultCache::in_memory();
        let started = AtomicUsize::new(0);
        let finished: Mutex<Vec<(usize, bool)>> = Mutex::new(Vec::new());
        run_cells(&spec, &spec.cells(), &cache, 3, &|ev| match ev {
            CellEvent::Started { .. } => {
                started.fetch_add(1, Ordering::Relaxed);
            }
            CellEvent::Finished { cell, cached, .. } => {
                finished.lock().unwrap().push((cell.index, *cached));
            }
        })
        .unwrap();
        let mut fin = finished.into_inner().unwrap();
        fin.sort_unstable();
        assert_eq!(started.load(Ordering::Relaxed), 12);
        assert_eq!(
            fin,
            (0..12).map(|i| (i, false)).collect::<Vec<_>>(),
            "cold run: every cell finishes uncached, exactly once"
        );

        // Warm rerun: all finishes are cached, nothing starts.
        let started2 = AtomicUsize::new(0);
        let cached2 = AtomicUsize::new(0);
        run_cells(&spec, &spec.cells(), &cache, 3, &|ev| match ev {
            CellEvent::Started { .. } => {
                started2.fetch_add(1, Ordering::Relaxed);
            }
            CellEvent::Finished { cached: true, .. } => {
                cached2.fetch_add(1, Ordering::Relaxed);
            }
            CellEvent::Finished { .. } => {}
        })
        .unwrap();
        assert_eq!(started2.load(Ordering::Relaxed), 0);
        assert_eq!(cached2.load(Ordering::Relaxed), 12);
    }

    #[test]
    fn observer_marks_twin_cells_cached() {
        // A duplicated seed: 6 distinct scenarios, each with one twin.
        let spec = small_spec().seeds([1, 1]);
        let cache = ResultCache::in_memory();
        let fresh = AtomicUsize::new(0);
        let twinned = AtomicUsize::new(0);
        run_cells(&spec, &spec.cells(), &cache, 2, &|ev| {
            if let CellEvent::Finished { cached, .. } = ev {
                if *cached {
                    twinned.fetch_add(1, Ordering::Relaxed);
                } else {
                    fresh.fetch_add(1, Ordering::Relaxed);
                }
            }
        })
        .unwrap();
        assert_eq!(fresh.load(Ordering::Relaxed), 6);
        assert_eq!(twinned.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn pooled_scratches_survive_campaigns_with_identical_results() {
        let spec = small_spec();
        let pool = ScratchPool::new();
        let cache = ResultCache::in_memory();
        let pooled =
            run_cells_pooled(&spec, &spec.cells(), &cache, 2, 2, &no_observer, &pool).unwrap();
        assert_eq!(pool.parked(), 2, "each worker parks its scratch");

        // A second cold campaign re-checks the same scratches out and
        // returns them — and its records are byte-identical to a
        // fresh-scratch run (a scratch carries capacity, not results).
        let cold = ResultCache::in_memory();
        let warm_scratch =
            run_cells_pooled(&spec, &spec.cells(), &cold, 2, 2, &no_observer, &pool).unwrap();
        assert_eq!(pool.parked(), 2);
        assert_eq!(pooled, warm_scratch);
        let fresh = run_campaign(&spec, &ResultCache::in_memory(), 2).unwrap();
        assert_eq!(fresh.cells, warm_scratch);

        // A fully cached campaign never touches the pool (no misses —
        // nothing simulates, so nothing checks out).
        run_cells_pooled(&spec, &spec.cells(), &cache, 2, 2, &no_observer, &pool).unwrap();
        assert_eq!(pool.parked(), 2);
    }

    /// A genuine single-sparse family (not the mixed-mode `small_spec`
    /// archs): one workload, one category and one seed tuple, so every
    /// cell shares the same tile grids.
    fn family_spec() -> SweepSpec {
        use crate::spec::ArchFamily;
        SweepSpec::new("family")
            .adhoc_layer("l0", 32, 256, 32, 1.0, 0.2)
            .category(DnnCategory::B)
            .family(ArchFamily::SparseB { max_fanin: 4 })
            .seeds([1, 2])
            .sim(SimConfig {
                fidelity: Fidelity::Sampled { tiles: 2, seed: 1 },
                ..SimConfig::default()
            })
    }

    /// Ground truth: each cell simulated on its own, outside the
    /// executor, with a fresh scratch. Grid order.
    fn per_cell_truth(spec: &SweepSpec) -> Vec<CellMetrics> {
        spec.cells()
            .iter()
            .map(|c| {
                let wl = c.workload.build(c.category, c.seed).unwrap();
                let accel = Accelerator::new(c.arch.clone(), spec.sim);
                cell_metrics(&accel.run_with(&wl, &mut SimScratch::new()))
            })
            .collect()
    }

    /// The same records through the batch wrappers over `run_with` that
    /// the executor does not use: every seed plane of a (workload,
    /// category) in one call, with archs one at a time
    /// (`Accelerator::run_batch`) or all together
    /// (`Accelerator::run_family_batch`). Grid order.
    fn batched_truth(spec: &SweepSpec, family: bool) -> Vec<CellMetrics> {
        let mut out = Vec::new();
        for w in &spec.workloads {
            for &c in &spec.categories {
                let wls: Vec<_> = spec.seeds.iter().map(|&s| w.build(c, s).unwrap()).collect();
                let planes: Vec<&Workload> = wls.iter().collect();
                let accels: Vec<Accelerator> = spec
                    .archs
                    .iter()
                    .map(|a| Accelerator::new(a.clone(), spec.sim))
                    .collect();
                // Indexed [arch][seed plane].
                let reports: Vec<Vec<RunReport>> = if family {
                    let refs: Vec<&Accelerator> = accels.iter().collect();
                    Accelerator::run_family_batch(&refs, &planes, &mut SimScratch::new())
                } else {
                    accels
                        .iter()
                        .map(|a| a.run_batch(&planes, &mut SimScratch::new()))
                        .collect()
                };
                for p in 0..planes.len() {
                    out.extend(reports.iter().map(|r| cell_metrics(&r[p])));
                }
            }
        }
        out
    }

    /// Runs the whole grid at workers 1, 2, 5 and 8 and checks every
    /// record against `truth`. One pool serves every run, so later runs
    /// also start from scratches whose reuse scopes an earlier run left
    /// behind.
    fn assert_worker_count_invariant(spec: &SweepSpec, truth: &[CellMetrics]) {
        let cells = spec.cells();
        let pool = ScratchPool::new();
        for workers in [1, 2, 5, 8] {
            let recs = run_cells_pooled(
                spec,
                &cells,
                &ResultCache::in_memory(),
                workers,
                2,
                &no_observer,
                &pool,
            )
            .unwrap();
            let got: Vec<CellMetrics> = recs.iter().map(|r| r.metrics).collect();
            assert_eq!(got, truth, "{}: {workers} workers", spec.name);
        }
    }

    #[test]
    fn batch_caps_and_worker_count_never_change_records() {
        // The executor runs one cell per job; `Accelerator::run_batch`
        // loops `run_with` over the seed planes. Batched, per-cell and
        // executor records must agree at every worker count.
        let spec = small_spec();
        let truth = per_cell_truth(&spec);
        assert_eq!(batched_truth(&spec, false), truth, "seed-batched");
        assert_worker_count_invariant(&spec, &truth);
    }

    #[test]
    fn arch_family_batching_never_changes_records() {
        // A single-sparse family: one `run_family_batch` call over every
        // arch must match the per-cell ground truth and the executor at
        // every worker count.
        let spec = family_spec();
        let truth = per_cell_truth(&spec);
        assert_eq!(batched_truth(&spec, true), truth, "family-batched");
        assert_worker_count_invariant(&spec, &truth);
    }

    #[test]
    fn single_workload_campaign_runs_on_every_worker() {
        // Each thread's first `Started` waits (bounded) for a `Started`
        // from another thread, so two ids are seen only if two workers
        // simulate cells of the one workload concurrently.
        let spec = family_spec();
        let seen: Mutex<Vec<std::thread::ThreadId>> = Mutex::new(Vec::new());
        let arrived = std::sync::Condvar::new();
        run_cells(&spec, &spec.cells(), &ResultCache::in_memory(), 2, &|ev| {
            if let CellEvent::Started { .. } = ev {
                let me = std::thread::current().id();
                let mut ids = seen.lock().unwrap();
                if !ids.contains(&me) {
                    ids.push(me);
                    arrived.notify_all();
                    let timeout = std::time::Duration::from_secs(10);
                    drop(arrived.wait_timeout_while(ids, timeout, |ids| ids.len() < 2));
                }
            }
        })
        .unwrap();
        assert_eq!(seen.into_inner().unwrap().len(), 2, "two workers started");
    }

    #[test]
    fn dense_arch_reports_unit_speedup() {
        let cache = ResultCache::in_memory();
        let r = run_campaign(&small_spec(), &cache, 2).unwrap();
        for c in r.cells.iter().filter(|c| c.arch == "Baseline") {
            assert!((c.metrics.speedup - 1.0).abs() < 1e-9);
        }
    }
}
