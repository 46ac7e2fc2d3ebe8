//! Differential property tests: the event-driven scheduler core must be
//! observably indistinguishable from the retained naive reference
//! (`griffin::sim::engine::reference`) — identical [`Schedule`] counters
//! and identical [`Assignment`] streams — across random grids, windows
//! and priorities. The word-level grid builders must likewise reproduce
//! the predicate-built grids bit for bit.
//!
//! [`Schedule`]: griffin::sim::engine::Schedule
//! [`Assignment`]: griffin::sim::engine::Assignment

use griffin::sim::config::Priority;
use griffin::sim::engine::{
    reference, schedule, schedule_assign_with, schedule_with, OpGrid, SchedScratch,
};
use griffin::sim::grid::{build_a_grid, build_b_grid};
use griffin::sim::shuffle::LaneMap;
use griffin::sim::window::EffectiveWindow;
use griffin::tensor::block::{ATileView, BTileView, TileCoord, TileView};
use griffin::tensor::gen::TensorGen;
use griffin::tensor::shape::CoreDims;
use proptest::prelude::*;

/// A random op grid driven by a seed and density.
fn grid(t: usize, lanes: usize, rows: usize, cols: usize, density: f64, seed: u64) -> OpGrid {
    let mask = TensorGen::seeded(seed).bernoulli_mask(t * lanes, rows * cols, density);
    OpGrid::from_fn(t, lanes, rows, cols, |tt, l, r, c| {
        mask.get(tt * lanes + l, r * cols + c)
    })
}

/// Schedules `fam` in order through one reused scratch and checks each
/// result against a fresh-scratch call and the reference.
fn assert_family_matches_solo(g: &OpGrid, fam: &[EffectiveWindow], p: Priority) {
    let mut scratch = SchedScratch::new();
    for (i, &w) in fam.iter().enumerate() {
        let reused = schedule_with(g, w, p, &mut scratch);
        assert_eq!(reused, schedule(g, w, p), "window {i} ({w:?}, {p:?})");
        assert_eq!(
            reused,
            reference::schedule(g, w, p),
            "window {i} ({w:?}, {p:?}) vs reference"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Event-driven scheduler == naive reference, for both the counters
    /// and the full assignment stream, over random grids and windows.
    #[test]
    fn event_core_is_bit_identical_to_reference(
        seed in 0u64..2000,
        density in 0.02f64..1.0,
        depth in 1usize..7,
        lane in 0usize..3,
        rows_reach in 0usize..2,
        cols_reach in 0usize..3,
        own_first in proptest::bool::ANY,
    ) {
        let g = grid(20, 6, 2, 4, density, seed);
        let win = EffectiveWindow { depth, lane, rows: rows_reach, cols: cols_reach };
        let p = if own_first { Priority::OwnFirst } else { Priority::EarliestFirst };

        let (s_ref, a_ref) = reference::schedule_assign(&g, win, p);
        let mut scratch = SchedScratch::new();
        let mut out = Vec::new();
        let s_new = schedule_assign_with(&g, win, p, &mut scratch, &mut out);

        prop_assert_eq!(s_new, s_ref, "Schedule diverged (win {:?}, {:?})", win, p);
        prop_assert_eq!(&out, &a_ref, "Assignment stream diverged (win {:?}, {:?})", win, p);
        // The no-collect path must agree with the collecting one.
        prop_assert_eq!(schedule_with(&g, win, p, &mut scratch), s_ref);
    }

    /// Contended windows: dense grids under deep, wide-reach windows,
    /// where many borrow taps compete for the same donor columns every
    /// cycle. This is the regime the sorted-tap time-only scan and the
    /// certain-winner early exit optimize, so it gets its own pin
    /// against the reference — the general test above rarely samples
    /// this corner of the (density, window) space.
    #[test]
    fn contended_windows_stay_bit_identical(
        seed in 0u64..1500,
        density in 0.6f64..1.0,
        depth in 4usize..10,
        lane in 1usize..4,
        cols_reach in 1usize..4,
        own_first in proptest::bool::ANY,
    ) {
        let g = grid(32, 8, 2, 4, density, seed);
        let win = EffectiveWindow { depth, lane, rows: 1, cols: cols_reach };
        let p = if own_first { Priority::OwnFirst } else { Priority::EarliestFirst };

        let (s_ref, a_ref) = reference::schedule_assign(&g, win, p);
        let mut scratch = SchedScratch::new();
        let mut out = Vec::new();
        let s_new = schedule_assign_with(&g, win, p, &mut scratch, &mut out);

        prop_assert_eq!(s_new, s_ref, "contended Schedule diverged (win {:?}, {:?})", win, p);
        prop_assert_eq!(&out, &a_ref, "contended Assignment stream diverged (win {:?}, {:?})", win, p);
    }

    /// Scratch reuse across grids of different shapes and windows never
    /// leaks state: results equal fresh-scratch runs, in any order.
    #[test]
    fn scratch_reuse_is_stateless(
        seed in 0u64..500,
        density in 0.05f64..0.9,
        depth_a in 1usize..5,
        depth_b in 1usize..9,
    ) {
        let g1 = grid(16, 4, 1, 4, density, seed);
        let g2 = grid(9, 2, 3, 2, 1.0 - density * 0.5, seed ^ 0xABCD);
        let w1 = EffectiveWindow { depth: depth_a, lane: 1, rows: 0, cols: 1 };
        let w2 = EffectiveWindow { depth: depth_b, lane: 0, rows: 1, cols: 0 };

        let mut scratch = SchedScratch::new();
        for _ in 0..2 {
            for (g, w) in [(&g1, w1), (&g2, w2), (&g1, w2), (&g2, w1)] {
                let fresh = reference::schedule(g, w, Priority::OwnFirst);
                prop_assert_eq!(
                    schedule_with(g, w, Priority::OwnFirst, &mut scratch),
                    fresh
                );
            }
        }
    }

    /// Word-level B/A builders produce exactly the grid the predicate
    /// build produces, including ragged tile edges and lane shuffling.
    #[test]
    fn word_level_builders_match_predicate_builds(
        seed in 0u64..1000,
        density in 0.02f64..1.0,
        extra_k in 0usize..20,
        n_cols in 20usize..40,
        shuffle in proptest::bool::ANY,
    ) {
        let core = CoreDims::PAPER;
        let lanes = LaneMap::from_flag(shuffle);
        let mut gen = TensorGen::seeded(seed);
        let mut g = OpGrid::default();
        let mut span = Vec::new();

        let b_mask = gen.bernoulli_mask(2 * core.k0 + extra_k, n_cols, density);
        for n_tile in 0..n_cols.div_ceil(core.n0) {
            let view = BTileView::new(&b_mask, core, n_tile * core.n0);
            build_b_grid(&mut g, &mut span, &view, lanes);
            let want = OpGrid::from_fn(view.t_steps(), core.k0, 1, core.n0, |t, l, _, c| {
                view.is_nonzero(TileCoord { t, lane: lanes.source_lane(l, t), s: c })
            });
            prop_assert_eq!(&g, &want, "B tile {} diverged", n_tile);
        }

        let a_mask = gen.bernoulli_mask(core.m0 * 2 - 1, 2 * core.k0 + extra_k, density);
        for m_tile in 0..2 {
            let view = ATileView::new(&a_mask, core, m_tile * core.m0);
            build_a_grid(&mut g, &mut span, &view, lanes);
            let want = OpGrid::from_fn(view.t_steps(), core.k0, core.m0, 1, |t, l, r, _| {
                view.is_nonzero(TileCoord { t, lane: lanes.source_lane(l, t), s: r })
            });
            prop_assert_eq!(&g, &want, "A tile {} diverged", m_tile);
        }
    }

    /// A window family scheduled back to back through one reused
    /// scratch, as a campaign worker does across architectures, is
    /// bitwise identical to fresh-scratch calls and to the reference
    /// over random families: shared-reach groups with varying depths,
    /// exact duplicates, arbitrary order, and more distinct reaches than
    /// the scratch's tap cache holds.
    #[test]
    fn schedule_multi_matches_independent_schedules(
        seed in 0u64..1000,
        density in 0.02f64..1.0,
        own_first in proptest::bool::ANY,
        wins in proptest::collection::vec(
            (1usize..8, 0usize..3, 0usize..2, 0usize..3), 1..12),
    ) {
        let g = grid(20, 6, 2, 4, density, seed);
        let p = if own_first { Priority::OwnFirst } else { Priority::EarliestFirst };
        let fam: Vec<EffectiveWindow> = wins
            .iter()
            .map(|&(depth, lane, rows, cols)| EffectiveWindow { depth, lane, rows, cols })
            .collect();
        assert_family_matches_solo(&g, &fam, p);
    }

    /// Structured (N:M) grids keep every slot's run-ahead lag small, so
    /// deep same-reach windows saturate; scheduled through one reused
    /// scratch, each must still match its fresh-scratch and reference
    /// run bitwise.
    #[test]
    fn replayed_schedules_match_on_structured_grids(
        seed in 0u64..500,
        m in 4usize..9,
        n in 1usize..4,
        own_first in proptest::bool::ANY,
        depths in proptest::collection::vec(1usize..10, 2..8),
        lane in 0usize..3,
        cols_reach in 0usize..3,
    ) {
        let p = if own_first { Priority::OwnFirst } else { Priority::EarliestFirst };
        // One shared reach, depths varying.
        let fam: Vec<EffectiveWindow> = depths
            .iter()
            .map(|&depth| EffectiveWindow { depth, lane, rows: 0, cols: cols_reach })
            .collect();
        // The drawn N-of-M pattern and 2:4, periodic columns
        // phase-shifted per slot.
        for (m, n) in [(m, n), (4, 2)] {
            let g = OpGrid::from_fn(24, 6, 2, 4, |t, l, r, c| {
                (t + l * 7 + r * 5 + c * 13 + seed as usize) % m < n
            });
            assert_family_matches_solo(&g, &fam, p);
        }
    }

    /// End-to-end: layer simulation through reusable scratch equals the
    /// allocating convenience path (the zero-alloc plumbing changes no
    /// numbers).
    #[test]
    fn scratch_threading_preserves_layer_results(
        seed in 0u64..200,
        da in 0.2f64..1.0,
        db in 0.1f64..0.9,
    ) {
        use griffin::sim::config::{SimConfig, SparsityMode};
        use griffin::sim::layer::GemmLayer;
        use griffin::sim::pipeline::{simulate_layer, simulate_layer_with};
        use griffin::sim::window::BorrowWindow;
        use griffin::sim::SimScratch;
        use griffin::tensor::shape::GemmShape;

        let layer = GemmLayer::with_densities(
            GemmShape::new(24, 96, 40).unwrap(), da, db, seed,
        ).unwrap();
        let cfg = SimConfig::exact();
        let mut scratch = SimScratch::new();
        scratch.begin_reuse_scope(seed as u128);
        for mode in [
            SparsityMode::SparseB { win: BorrowWindow::new(4, 0, 1), shuffle: true },
            SparsityMode::SparseA { win: BorrowWindow::new(2, 1, 0), shuffle: false },
            SparsityMode::SparseAB {
                a: BorrowWindow::new(2, 0, 0),
                b: BorrowWindow::new(2, 0, 1),
                shuffle: true,
            },
            SparsityMode::SparTen { a_sparse: true, b_sparse: true },
        ] {
            let fresh = simulate_layer(&layer, mode, &cfg);
            let reused = simulate_layer_with(&layer, mode, &cfg, &mut scratch);
            prop_assert_eq!(reused, fresh, "mode {:?}", mode);
        }
    }
}
