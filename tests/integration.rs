//! Cross-crate integration tests: the paper's end-to-end claims on
//! realistic (synthetic-masked) workloads at reduced fidelity.

use griffin::core::accelerator::{Accelerator, Workload};
use griffin::core::arch::ArchSpec;
use griffin::core::category::DnnCategory;
use griffin::sim::config::{Fidelity, SimConfig};
use griffin::workloads::suite::{build_workload, Benchmark};
use griffin::workloads::synth::synthetic_workload;

fn fast_cfg() -> SimConfig {
    SimConfig {
        fidelity: Fidelity::Sampled { tiles: 6, seed: 1 },
        ..SimConfig::default()
    }
}

fn run(spec: ArchSpec, wl: &Workload) -> f64 {
    Accelerator::new(spec, fast_cfg()).run(wl).speedup
}

#[test]
fn each_specialist_wins_its_home_category() {
    let b_wl = synthetic_workload("b", DnnCategory::B, 4, 11).unwrap();
    let a_wl = synthetic_workload("a", DnnCategory::A, 4, 12).unwrap();
    let ab_wl = synthetic_workload("ab", DnnCategory::AB, 4, 13).unwrap();

    // Sparse.B* is the best single-sparse design on DNN.B.
    let b_star_on_b = run(ArchSpec::sparse_b_star(), &b_wl);
    let a_star_on_b = run(ArchSpec::sparse_a_star(), &b_wl);
    assert!(b_star_on_b > 1.7, "B* on DNN.B: {b_star_on_b}");
    assert!(
        a_star_on_b < 1.05,
        "A* gets nothing from weight sparsity: {a_star_on_b}"
    );

    // Sparse.A* is the best single-sparse design on DNN.A.
    let a_star_on_a = run(ArchSpec::sparse_a_star(), &a_wl);
    let b_star_on_a = run(ArchSpec::sparse_b_star(), &a_wl);
    assert!(a_star_on_a > 1.2, "A* on DNN.A: {a_star_on_a}");
    assert!(
        b_star_on_a < 1.05,
        "B* gets nothing from activation sparsity: {b_star_on_a}"
    );

    // Sparse.AB* beats both single-sparse designs on DNN.AB.
    let ab_star_on_ab = run(ArchSpec::sparse_ab_star(), &ab_wl);
    assert!(ab_star_on_ab > run(ArchSpec::sparse_b_star(), &ab_wl));
    assert!(ab_star_on_ab > run(ArchSpec::sparse_a_star(), &ab_wl));
}

#[test]
fn griffin_is_a_top_performer_everywhere() {
    // The paper's core claim: Griffin stays within a whisker of the best
    // specialist in every category (and beats the fixed dual-sparse
    // design on single-sparse models).
    for (cat, specialist) in [
        (DnnCategory::B, ArchSpec::sparse_b_star()),
        (DnnCategory::A, ArchSpec::sparse_a_star()),
        (DnnCategory::AB, ArchSpec::sparse_ab_star()),
    ] {
        let wl = synthetic_workload("wl", cat, 4, 21).unwrap();
        let g = run(ArchSpec::griffin(), &wl);
        let s = run(specialist.clone(), &wl);
        assert!(
            g >= s * 0.9,
            "{cat}: Griffin {g:.2} too far below specialist {} {s:.2}",
            specialist.name
        );
    }
}

#[test]
fn griffin_morphing_beats_downgraded_dual_sparse() {
    for cat in [DnnCategory::B, DnnCategory::A] {
        let wl = synthetic_workload("wl", cat, 4, 22).unwrap();
        let g = run(ArchSpec::griffin(), &wl);
        let ab = run(ArchSpec::sparse_ab_star(), &wl);
        assert!(
            g >= ab,
            "{cat}: Griffin {g:.2} must not lose to fixed dual-sparse {ab:.2}"
        );
    }
}

#[test]
fn dense_models_see_no_sparse_speedup() {
    let wl = synthetic_workload("dense", DnnCategory::Dense, 3, 23).unwrap();
    for spec in ArchSpec::table7_lineup() {
        let s = run(spec.clone(), &wl);
        assert!(
            (0.9..1.2).contains(&s),
            "{} on dense: speedup {s} should be ~1",
            spec.name
        );
    }
}

#[test]
fn table_iv_dense_latencies_are_in_band() {
    let cfg = fast_cfg();
    for b in Benchmark::ALL {
        let info = b.info();
        let wl = build_workload(b, DnnCategory::Dense, 1);
        let cycles = wl.dense_cycles(&cfg) as f64;
        let ratio = cycles / info.paper_dense_cycles;
        // MobileNetV2's per-group im2col lowering of depthwise
        // convolutions is tighter than the paper's mapping; all others
        // must be within 35% of Table IV.
        let band = if b == Benchmark::MobileNetV2 {
            0.3..1.5
        } else {
            0.65..1.4
        };
        assert!(band.contains(&ratio), "{}: ratio {ratio}", info.name);
    }
}

#[test]
fn efficiency_ordering_matches_figure_8_on_dnn_ab() {
    let wl = build_workload(Benchmark::ResNet50, DnnCategory::AB, 2);
    let baseline = Accelerator::new(ArchSpec::dense(), fast_cfg()).run(&wl);
    let griffin = Accelerator::new(ArchSpec::griffin(), fast_cfg()).run(&wl);
    let sparten = Accelerator::new(ArchSpec::sparten_ab(), fast_cfg()).run(&wl);
    // Griffin beats the dense baseline and SparTen on power efficiency
    // for dual-sparse models (Figure 8(d)).
    assert!(griffin.effective_tops_per_w > baseline.effective_tops_per_w);
    assert!(griffin.effective_tops_per_w > sparten.effective_tops_per_w);
    // SparTen is nonetheless much faster than dense (its costs are in
    // power/area, not cycles).
    assert!(sparten.speedup > griffin.speedup * 0.8);
}

#[test]
fn run_reports_are_deterministic() {
    let wl = synthetic_workload("det", DnnCategory::AB, 3, 33).unwrap();
    let a = Accelerator::new(ArchSpec::griffin(), fast_cfg()).run(&wl);
    let b = Accelerator::new(ArchSpec::griffin(), fast_cfg()).run(&wl);
    assert_eq!(a.speedup, b.speedup);
    assert_eq!(a.network.cycles(), b.network.cycles());
}
