//! Table IV — benchmark suite summary: sparsity ratios, accuracy and
//! dense latency (paper vs measured on our lowering).

use griffin_bench::{banner, deviation, Suite};
use griffin_core::category::DnnCategory;
use griffin_workloads::suite::Benchmark;

fn main() {
    banner(
        "Table IV",
        "Benchmarks: sparsity ratios and dense latency (paper vs measured)",
    );
    let mut suite = Suite::new();

    println!(
        "{:<14} {:>7} {:>7} {:<14} {:>12} {:>12} {:>6}  {:<10}",
        "network", "B-spars", "A-spars", "category", "paper cyc", "measured", "dev", "optimal"
    );
    let cfg = suite.cfg;
    for b in Benchmark::ALL {
        let info = b.info();
        let wl = suite.workload(b, DnnCategory::Dense);
        let cycles = wl
            .layers
            .iter()
            .map(|l| l.dense_cycles(cfg.core))
            .sum::<u64>() as f64;
        let cat = DnnCategory::infer(1.0 - info.a_sparsity, 1.0 - info.b_sparsity, 0.9);
        println!(
            "{:<14} {:>6.0}% {:>6.0}% {:<14} {:>12.2e} {:>12.2e} {:>6}  {:<10}",
            info.name,
            info.b_sparsity * 100.0,
            info.a_sparsity * 100.0,
            cat.to_string(),
            info.paper_dense_cycles,
            cycles,
            deviation(cycles, Some(info.paper_dense_cycles)),
            cat.optimal_arch_name(),
        );
    }

    println!();
    println!("Architecture configuration (Table IV, bottom):");
    println!("  core (K0,N0,M0) = (16,16,4), 1024 INT8 MACs, 1 core");
    println!("  ASRAM 512 kB @ 51.2 GB/s, BSRAM 32 kB @ 204.8 GB/s, DRAM 50 GB/s");
    println!("  7 nm, 800 MHz, 0.71 V, output-stationary dataflow");
    println!();
    println!("Note: MobileNetV2 measures below the paper because our per-group");
    println!("im2col lowering of depthwise convolutions is tighter than the");
    println!("paper's mapping; every architecture shares the same lowering, so");
    println!("relative comparisons are unaffected.");
}
