//! Batch-equivalence properties: `Accelerator::run_batch` over K
//! seed-variant workloads, and `Accelerator::run_family_batch` over an
//! architecture family, must be **bitwise** identical to independent
//! `Accelerator::run_with` calls — for every mode, with and without an
//! active grid-reuse scope, at any batch width. Inside one scope each
//! seed variant keys its memoized tile grids by its batch plane; the
//! scoped cases with two or more planes are what catch a plane reading
//! another plane's grids.

use griffin::core::accelerator::{Accelerator, RunReport, Workload};
use griffin::core::arch::ArchSpec;
use griffin::core::category::DnnCategory;
use griffin::sim::config::{Fidelity, SimConfig};
use griffin::sim::layer::GemmLayer;
use griffin::sim::scratch::SimScratch;
use griffin::tensor::shape::GemmShape;
use proptest::prelude::*;

/// One seed variant: the same named network shape with masks drawn from
/// `seed`.
fn variant(
    category: DnnCategory,
    shapes: &[(usize, usize, usize)],
    da: f64,
    db: f64,
    seed: u64,
) -> Workload {
    let layers = shapes
        .iter()
        .enumerate()
        .map(|(i, &(m, n, k))| {
            GemmLayer::with_densities(
                GemmShape::new(m, n, k).unwrap(),
                da,
                db,
                seed.wrapping_mul(1000).wrapping_add(i as u64),
            )
            .unwrap()
        })
        .collect();
    Workload::new(format!("variant-{seed}"), category, layers)
}

/// Asserts two run reports are bitwise identical, down to every per-layer
/// counter.
fn assert_reports_identical(solo: &RunReport, batched: &RunReport, what: &str) {
    assert_eq!(
        solo.speedup.to_bits(),
        batched.speedup.to_bits(),
        "{what}: speedup"
    );
    assert_eq!(
        solo.effective_tops_per_w.to_bits(),
        batched.effective_tops_per_w.to_bits(),
        "{what}: tops/W"
    );
    assert_eq!(
        solo.effective_tops_per_mm2.to_bits(),
        batched.effective_tops_per_mm2.to_bits(),
        "{what}: tops/mm2"
    );
    assert_eq!(
        solo.network.layers.len(),
        batched.network.layers.len(),
        "{what}: layer count"
    );
    for (i, (a, b)) in solo
        .network
        .layers
        .iter()
        .zip(&batched.network.layers)
        .enumerate()
    {
        assert_eq!(
            a.dense_cycles, b.dense_cycles,
            "{what}: layer {i} dense_cycles"
        );
        assert_eq!(
            a.schedule_cycles.to_bits(),
            b.schedule_cycles.to_bits(),
            "{what}: layer {i} schedule_cycles"
        );
        assert_eq!(
            a.bw_floor_cycles.to_bits(),
            b.bw_floor_cycles.to_bits(),
            "{what}: layer {i} bw_floor_cycles"
        );
        assert_eq!(
            a.cycles.to_bits(),
            b.cycles.to_bits(),
            "{what}: layer {i} cycles"
        );
        assert_eq!(
            a.effectual_ops.to_bits(),
            b.effectual_ops.to_bits(),
            "{what}: layer {i} effectual_ops"
        );
        assert_eq!(
            a.borrowed_ops.to_bits(),
            b.borrowed_ops.to_bits(),
            "{what}: layer {i} borrowed_ops"
        );
        assert_eq!(
            a.starved_cycles.to_bits(),
            b.starved_cycles.to_bits(),
            "{what}: layer {i} starved_cycles"
        );
        assert_eq!(a.sampled, b.sampled, "{what}: layer {i} sampled flag");
    }
}

/// Runs the batch three ways (solo runs, unscoped batch, scoped batch)
/// and checks all agree plane-by-plane.
fn check_batch(arch: ArchSpec, cfg: SimConfig, workloads: &[Workload]) {
    let acc = Accelerator::new(arch, cfg);
    let solo: Vec<RunReport> = workloads
        .iter()
        .map(|w| acc.run_with(w, &mut SimScratch::new()))
        .collect();

    let planes: Vec<&Workload> = workloads.iter().collect();
    let unscoped = acc.run_batch(&planes, &mut SimScratch::new());
    assert_eq!(unscoped.len(), workloads.len());
    for (p, (s, b)) in solo.iter().zip(&unscoped).enumerate() {
        assert_reports_identical(s, b, &format!("unscoped plane {p}"));
    }

    // Under a reuse scope the batch memoizes per-plane tile grids; the
    // second pass reads every grid from the memo and must still agree.
    let mut scoped = SimScratch::new();
    scoped.begin_reuse_scope(0xBA7C4);
    for pass in 0..2 {
        let batched = acc.run_batch(&planes, &mut scoped);
        for (p, (s, b)) in solo.iter().zip(&batched).enumerate() {
            assert_reports_identical(s, b, &format!("scoped pass {pass} plane {p}"));
        }
    }
}

fn arch_for(category: DnnCategory) -> Vec<ArchSpec> {
    let mut archs = vec![ArchSpec::dense(), ArchSpec::griffin()];
    match category {
        DnnCategory::A => archs.push(ArchSpec::sparse_a_star()),
        DnnCategory::B => archs.push(ArchSpec::sparse_b_star()),
        _ => archs.push(ArchSpec::sparse_ab_star()),
    }
    archs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// K seed variants of one workload, batched, equal K solo runs —
    /// across categories (single-sparse and dual-sparse modes), exact
    /// and sampled fidelity, and batch widths 1..=4, unscoped and inside
    /// one reuse scope.
    #[test]
    fn run_batch_equals_independent_runs(
        seed in 0u64..500,
        planes in 1usize..5,
        cat_pick in 0usize..3,
        da in 0.3f64..1.0,
        db in 0.1f64..0.9,
        sampled in proptest::bool::ANY,
    ) {
        let category = [DnnCategory::A, DnnCategory::B, DnnCategory::AB][cat_pick];
        let shapes = [(16, 128, 32), (32, 64, 64)];
        let workloads: Vec<Workload> = (0..planes)
            .map(|p| variant(category, &shapes, da, db, seed + p as u64))
            .collect();
        let cfg = SimConfig {
            fidelity: if sampled {
                Fidelity::Sampled { tiles: 2, seed: 7 }
            } else {
                Fidelity::Exact
            },
            ..SimConfig::default()
        };
        for arch in arch_for(category) {
            check_batch(arch, cfg, &workloads);
        }
    }
}

/// Runs a whole architecture family three ways (unscoped solo
/// `run_with` per cell, unscoped family batch, scoped family batch) and
/// checks every `[accelerator][workload]` report agrees bitwise.
fn check_family(archs: &[ArchSpec], cfg: SimConfig, workloads: &[Workload]) {
    let accels: Vec<Accelerator> = archs
        .iter()
        .map(|a| Accelerator::new(a.clone(), cfg))
        .collect();
    let refs: Vec<&Accelerator> = accels.iter().collect();
    let planes: Vec<&Workload> = workloads.iter().collect();
    let solo: Vec<Vec<RunReport>> = accels
        .iter()
        .map(|a| {
            workloads
                .iter()
                .map(|w| a.run_with(w, &mut SimScratch::new()))
                .collect()
        })
        .collect();

    let unscoped = Accelerator::run_family_batch(&refs, &planes, &mut SimScratch::new());
    assert_eq!(unscoped.len(), archs.len());
    for (a, (srow, brow)) in solo.iter().zip(&unscoped).enumerate() {
        assert_eq!(brow.len(), workloads.len());
        for (p, (s, b)) in srow.iter().zip(brow).enumerate() {
            assert_reports_identical(s, b, &format!("family unscoped accel {a} plane {p}"));
        }
    }

    // Under a reuse scope the whole family shares each plane's memoized
    // grids; a second pass reads every grid from the memo and must
    // still agree.
    let mut scoped = SimScratch::new();
    scoped.begin_reuse_scope(0xFA417);
    for pass in 0..2 {
        let batched = Accelerator::run_family_batch(&refs, &planes, &mut scoped);
        for (a, (srow, brow)) in solo.iter().zip(&batched).enumerate() {
            for (p, (s, b)) in srow.iter().zip(brow).enumerate() {
                assert_reports_identical(
                    s,
                    b,
                    &format!("family scoped pass {pass} accel {a} plane {p}"),
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A whole architecture family batched through one
    /// `run_family_batch` call equals solo `run_with` calls — over
    /// random single-sparse families with shared-reach members,
    /// duplicates, and both shuffle flags, on K seed-variant workloads,
    /// unscoped and inside one reuse scope.
    #[test]
    fn run_family_batch_equals_independent_runs(
        seed in 0u64..300,
        planes in 1usize..4,
        b_side in proptest::bool::ANY,
        picks in proptest::collection::vec((1usize..5, 0usize..3, 0usize..2, proptest::bool::ANY), 2..6),
        da in 0.3f64..1.0,
        db in 0.1f64..0.9,
    ) {
        use griffin::sim::window::BorrowWindow;
        let category = if b_side { DnnCategory::B } else { DnnCategory::A };
        let archs: Vec<ArchSpec> = picks
            .iter()
            .map(|&(d1, d2, d3, shuffle)| {
                let w = BorrowWindow::new(d1, d2, d3);
                if b_side {
                    ArchSpec::sparse_b(w, shuffle)
                } else {
                    ArchSpec::sparse_a(w, shuffle)
                }
            })
            .collect();
        let workloads: Vec<Workload> = (0..planes)
            .map(|p| variant(category, &[(16, 128, 32), (32, 64, 64)], da, db, seed + p as u64))
            .collect();
        let cfg = SimConfig {
            fidelity: Fidelity::Sampled { tiles: 2, seed: 7 },
            ..SimConfig::default()
        };
        check_family(&archs, cfg, &workloads);
    }
}

#[test]
fn mixed_mode_family_falls_back_and_still_matches() {
    // Dense + dual-sparse + single-sparse in one family: three modes
    // in one reuse scope must still match solo runs bitwise.
    let archs = [
        ArchSpec::dense(),
        ArchSpec::griffin(),
        ArchSpec::sparse_b_star(),
    ];
    let workloads = [
        variant(DnnCategory::B, &[(16, 128, 32)], 1.0, 0.25, 31),
        variant(DnnCategory::B, &[(16, 128, 32)], 1.0, 0.25, 32),
    ];
    check_family(&archs, SimConfig::default(), &workloads);
}

#[test]
fn identical_family_members_share_all_but_one_schedule() {
    // K family members with the *same* window and shuffle flag over two
    // seed planes: every member reads the same memoized grids inside
    // the scope, and every report must still equal its solo run.
    let k = 5;
    let arch = ArchSpec::sparse_b_star();
    let archs: Vec<ArchSpec> = (0..k).map(|_| arch.clone()).collect();
    let workloads = [
        variant(DnnCategory::B, &[(16, 128, 32)], 1.0, 0.3, 41),
        variant(DnnCategory::B, &[(16, 128, 32)], 1.0, 0.3, 42),
    ];
    check_family(&archs, SimConfig::default(), &workloads);
}

#[test]
fn empty_batch_returns_no_reports() {
    let acc = Accelerator::with_defaults(ArchSpec::griffin());
    assert!(acc.run_batch(&[], &mut SimScratch::new()).is_empty());
    assert!(
        Accelerator::run_family_batch(&[&acc], &[], &mut SimScratch::new())
            .iter()
            .all(Vec::is_empty)
    );
}

#[test]
fn mixed_category_batch_falls_back_per_plane() {
    let shapes = [(16, 128, 32)];
    let a = variant(DnnCategory::A, &shapes, 0.5, 1.0, 11);
    let b = variant(DnnCategory::B, &shapes, 1.0, 0.2, 12);
    check_batch(
        ArchSpec::griffin(),
        SimConfig::default(),
        &[a.clone(), b.clone()],
    );

    // Explicitly: the mixed batch equals the per-plane solo runs.
    let acc = Accelerator::with_defaults(ArchSpec::griffin());
    let batched = acc.run_batch(&[&a, &b], &mut SimScratch::new());
    let solo_a = acc.run_with(&a, &mut SimScratch::new());
    let solo_b = acc.run_with(&b, &mut SimScratch::new());
    assert_reports_identical(&solo_a, &batched[0], "mixed plane 0");
    assert_reports_identical(&solo_b, &batched[1], "mixed plane 1");
}

#[test]
fn uneven_shapes_fall_back_and_still_match() {
    // Same category, different per-plane layer shapes: each plane
    // keys its own grids and must still match.
    let a = variant(DnnCategory::B, &[(16, 128, 32)], 1.0, 0.3, 21);
    let b = variant(DnnCategory::B, &[(32, 64, 64)], 1.0, 0.3, 22);
    check_batch(ArchSpec::sparse_b_star(), SimConfig::default(), &[a, b]);
}
