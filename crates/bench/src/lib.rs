//! Shared harness for the table/figure benchmarks.
//!
//! Every `harness = false` bench target under `benches/` regenerates one
//! table or figure of the paper's evaluation section (the README's
//! Benchmarks section lists the targets). This library provides the
//! common machinery:
//! cached workload construction, geomean aggregation over the six
//! Table IV benchmarks, efficiency computation and aligned printing of
//! "paper vs measured" rows.

use std::collections::HashMap;

use griffin_core::accelerator::Workload;
use griffin_core::arch::ArchSpec;
use griffin_core::category::DnnCategory;
use griffin_core::cost::{CostBreakdown, CostModel, Provision};
use griffin_core::efficiency::Efficiency;
use griffin_sim::config::{Fidelity, SimConfig};
use griffin_sim::pipeline::simulate_network;
use griffin_sim::report::geomean;
use griffin_workloads::suite::{build_workload, Benchmark};

/// Workload cache: building the six networks' masks takes seconds, so
/// each bench process builds each (benchmark, category) pair once.
#[derive(Default)]
pub struct Suite {
    cache: HashMap<(Benchmark, DnnCategory), Workload>,
    /// Simulator configuration used for every run.
    pub cfg: SimConfig,
}

impl Suite {
    /// Creates a suite with the default bench fidelity (sampled tiles,
    /// deterministic seed).
    pub fn new() -> Self {
        Suite {
            cache: HashMap::new(),
            cfg: SimConfig {
                fidelity: Fidelity::Sampled {
                    tiles: 12,
                    seed: 0xBEEF,
                },
                ..SimConfig::default()
            },
        }
    }

    /// A faster, coarser suite for wide sweeps.
    pub fn coarse() -> Self {
        Suite {
            cache: HashMap::new(),
            cfg: SimConfig {
                fidelity: Fidelity::Sampled {
                    tiles: 6,
                    seed: 0xBEEF,
                },
                ..SimConfig::default()
            },
        }
    }

    /// The cached workload for one benchmark/category pair.
    pub fn workload(&mut self, bench: Benchmark, cat: DnnCategory) -> &Workload {
        self.cache
            .entry((bench, cat))
            .or_insert_with(|| build_workload(bench, cat, 0x5EED))
    }

    /// Geomean speedup of an architecture over the six benchmarks in a
    /// category.
    pub fn geomean_speedup(&mut self, spec: &ArchSpec, cat: DnnCategory) -> f64 {
        let cfg = self.cfg;
        let mode = spec.mode_for(cat);
        let speedups: Vec<f64> = Benchmark::ALL
            .iter()
            .map(|&b| {
                let wl = self.workload(b, cat);
                simulate_network(&wl.layers, mode, &cfg).speedup()
            })
            .collect();
        geomean(&speedups)
    }

    /// Geomean speedup and mean multiplier utilization (effectual ops
    /// per slot-cycle) of an architecture on a category.
    pub fn speedup_and_util(&mut self, spec: &ArchSpec, cat: DnnCategory) -> (f64, f64) {
        let cfg = self.cfg;
        let mode = spec.mode_for(cat);
        let macs = cfg.core.macs() as f64;
        let mut speedups = Vec::new();
        let mut utils = Vec::new();
        for &b in &Benchmark::ALL {
            let wl = self.workload(b, cat);
            let net = simulate_network(&wl.layers, mode, &cfg);
            speedups.push(net.speedup());
            let ops: f64 = net.layers.iter().map(|l| l.effectual_ops).sum();
            utils.push((ops / (net.cycles() * macs)).min(1.0));
        }
        (
            geomean(&speedups),
            utils.iter().sum::<f64>() / utils.len() as f64,
        )
    }

    /// Like [`Suite::evaluate`], but with the power re-scaled from the
    /// design's home-category activity to this category's (extension;
    /// reproduces Figure 8's per-category power).
    pub fn evaluate_activity_scaled(&mut self, spec: &ArchSpec, cat: DnnCategory) -> Evaluated {
        use griffin_core::cost::Activity;
        let home = spec.home_category();
        let (s_cat, u_cat) = self.speedup_and_util(spec, cat);
        let (s_home, u_home) = if home == cat {
            (s_cat, u_cat)
        } else {
            self.speedup_and_util(spec, home)
        };
        let base = self.evaluate_at(spec, cat, s_home);
        let act = Activity::from_measurements(s_cat, s_home, u_cat, u_home);
        let cost = CostModel::scale_power_to_activity(&base.cost, act);
        let eff = Efficiency::new(self.cfg.core, &cost, s_cat);
        Evaluated {
            speedup: s_cat,
            cost,
            eff,
        }
    }

    fn evaluate_at(
        &mut self,
        spec: &ArchSpec,
        cat: DnnCategory,
        provision_speedup: f64,
    ) -> Evaluated {
        let speedup = self.geomean_speedup(spec, cat);
        let b_stream = if spec.mode_for(cat).compresses_b() && cat.b_sparse() {
            0.3
        } else {
            1.0
        };
        let cost = CostModel::estimate(
            spec,
            self.cfg.core,
            Provision {
                speedup: provision_speedup,
                b_stream_factor: b_stream,
            },
        );
        let eff = Efficiency::new(self.cfg.core, &cost, speedup);
        Evaluated { speedup, cost, eff }
    }

    /// Speedup, cost and efficiency of an architecture on a category.
    /// The cost is provisioned for the measured speedup (§V).
    pub fn evaluate(&mut self, spec: &ArchSpec, cat: DnnCategory) -> Evaluated {
        let speedup = self.geomean_speedup(spec, cat);
        let b_stream = if spec.mode_for(cat).compresses_b() && cat.b_sparse() {
            0.3 // ~20% density + metadata
        } else {
            1.0
        };
        let cost = CostModel::estimate(
            spec,
            self.cfg.core,
            Provision {
                speedup,
                b_stream_factor: b_stream,
            },
        );
        let eff = Efficiency::new(self.cfg.core, &cost, speedup);
        Evaluated { speedup, cost, eff }
    }
}

/// Result bundle of [`Suite::evaluate`].
#[derive(Debug, Clone, Copy)]
pub struct Evaluated {
    /// Geomean speedup over the suite.
    pub speedup: f64,
    /// Architecture cost.
    pub cost: CostBreakdown,
    /// Effective efficiency at this speedup.
    pub eff: Efficiency,
}

/// Prints a bench banner.
pub fn banner(id: &str, title: &str) {
    println!();
    println!("================================================================");
    println!("{id}: {title}");
    println!("================================================================");
}

/// Formats an optional paper reference value.
pub fn paper(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x:>6.2}"),
        None => "     -".to_string(),
    }
}

/// Relative deviation string ("+12%" / "-8%"), or "-" without reference.
pub fn deviation(measured: f64, reference: Option<f64>) -> String {
    match reference {
        Some(r) if r != 0.0 => format!("{:+.0}%", (measured / r - 1.0) * 100.0),
        _ => "-".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_caches_workloads() {
        let mut s = Suite::coarse();
        let p1 = s.workload(Benchmark::AlexNet, DnnCategory::Dense) as *const Workload;
        let p2 = s.workload(Benchmark::AlexNet, DnnCategory::Dense) as *const Workload;
        assert_eq!(p1, p2);
    }

    #[test]
    fn deviation_formats() {
        assert_eq!(deviation(1.2, Some(1.0)), "+20%");
        assert_eq!(deviation(0.9, Some(1.0)), "-10%");
        assert_eq!(deviation(1.0, None), "-");
    }

    #[test]
    fn paper_formats() {
        assert_eq!(paper(None).trim(), "-");
        assert!(paper(Some(3.9)).contains("3.90"));
    }
}
