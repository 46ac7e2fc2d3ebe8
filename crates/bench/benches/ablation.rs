//! Ablations of the reproduction's own modelling choices (not a paper
//! table — this target quantifies design decisions the reproduction
//! makes where the paper leaves a choice open):
//!
//! 1. **arbitration priority** — Bit-Tactical's own-op-first (paper)
//!    vs earliest-op-first,
//! 2. **shuffling** — the load-balance rotation on/off for the three
//!    star designs,
//! 3. **sampled fidelity** — cycle estimates at 6/12/24 sampled tiles
//!    vs exact simulation (bias check on a mid-size network).

use griffin_bench::banner;
use griffin_core::arch::ArchSpec;
use griffin_core::category::DnnCategory;
use griffin_sim::config::{Fidelity, Priority, SimConfig, SparsityMode};
use griffin_sim::pipeline::simulate_network;
use griffin_sim::window::BorrowWindow;
use griffin_workloads::suite::{build_workload, Benchmark};

fn main() {
    banner(
        "Ablation",
        "Reproduction modelling choices: priority, shuffle, fidelity",
    );

    let wl_b = build_workload(Benchmark::GoogleNet, DnnCategory::B, 5);
    let wl_ab = build_workload(Benchmark::GoogleNet, DnnCategory::AB, 5);

    println!();
    println!("(1) Arbitration priority (GoogleNet):");
    for (label, wl, mode) in [
        (
            "Sparse.B* on DNN.B",
            &wl_b,
            ArchSpec::sparse_b_star().mode_for(DnnCategory::B),
        ),
        (
            "Sparse.AB* on DNN.AB",
            &wl_ab,
            ArchSpec::sparse_ab_star().mode_for(DnnCategory::AB),
        ),
    ] {
        let mut row = format!("  {label:<22}");
        for p in [Priority::OwnFirst, Priority::EarliestFirst] {
            let cfg = SimConfig {
                priority: p,
                ..SimConfig::default()
            };
            let s = simulate_network(&wl.layers, mode, &cfg).speedup();
            row.push_str(&format!("  {p:?} {s:.3}x"));
        }
        println!("{row}");
    }

    println!();
    println!("(2) Shuffle on/off (GoogleNet, channel-minor masks):");
    type ShuffleCase<'a> = (
        &'a str,
        &'a griffin_core::accelerator::Workload,
        fn(bool) -> SparsityMode,
    );
    let shuffle_cases: Vec<ShuffleCase> = vec![
        ("Sparse.B(6,0,0)", &wl_b, |sh| SparsityMode::SparseB {
            win: BorrowWindow::new(6, 0, 0),
            shuffle: sh,
        }),
        ("Sparse.B*(4,0,1)", &wl_b, |sh| SparsityMode::SparseB {
            win: BorrowWindow::new(4, 0, 1),
            shuffle: sh,
        }),
        ("Sparse.AB*(2,0,0,2,0,1)", &wl_ab, |sh| {
            SparsityMode::SparseAB {
                a: BorrowWindow::new(2, 0, 0),
                b: BorrowWindow::new(2, 0, 1),
                shuffle: sh,
            }
        }),
    ];
    for (label, wl, mk) in shuffle_cases {
        let cfg = SimConfig::default();
        let off = simulate_network(&wl.layers, mk(false), &cfg).speedup();
        let on = simulate_network(&wl.layers, mk(true), &cfg).speedup();
        println!(
            "  {label:<26} off {off:.3}x   on {on:.3}x   gain {:+.1}%",
            (on / off - 1.0) * 100.0
        );
    }

    println!();
    println!("(3) Sampling fidelity vs exact (AlexNet, Sparse.AB* on DNN.AB):");
    let wl = build_workload(Benchmark::AlexNet, DnnCategory::AB, 5);
    let mode = ArchSpec::sparse_ab_star().mode_for(DnnCategory::AB);
    let exact = simulate_network(&wl.layers, mode, &SimConfig::exact()).speedup();
    println!("  exact                      {exact:.3}x");
    for tiles in [6usize, 12, 24, 48] {
        let cfg = SimConfig {
            fidelity: Fidelity::Sampled {
                tiles,
                seed: 0xBEEF,
            },
            ..SimConfig::default()
        };
        let s = simulate_network(&wl.layers, mode, &cfg).speedup();
        println!(
            "  sampled tiles={tiles:<3}          {s:.3}x   bias {:+.1}%",
            (s / exact - 1.0) * 100.0
        );
    }
}
