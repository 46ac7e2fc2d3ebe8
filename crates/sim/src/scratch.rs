//! Reusable simulation scratch: the zero-alloc contract.
//!
//! A sweep campaign runs the tile scheduler hundreds of thousands of
//! times; with fresh buffers per tile, allocator traffic dominates the
//! small grids the paper's core sizes produce. [`SimScratch`] bundles
//! every buffer the tile simulators need — the reusable CSR grids, the
//! scheduler's [`SchedScratch`] (heads, row counts, cached tap tables,
//! frontier state), the stage-1 assignment stream and stage-2 op list
//! of the dual pipeline, and the SparTen wave accumulators — so the
//! steady state allocates **nothing**:
//!
//! * per *tile* (the hot loop): zero allocations once every buffer has
//!   grown to the campaign's largest grid;
//! * per *layer*: only the dual pipeline's per-column compressed-stream
//!   cache (amortized over all tile pairs of the column) and the
//!   sampled tile index list;
//! * per *worker*: one `SimScratch`, created once and threaded through
//!   `simulate_*_with` / `Accelerator::run_with`.
//!
//! The scratch carries no results — only capacity. Reusing one scratch
//! across arbitrary grids, windows and architectures is deterministic
//! and bit-identical to fresh buffers (covered by differential tests).

use std::collections::HashMap;

use griffin_tensor::shape::CoreDims;

use crate::engine::{Assignment, OpGrid, SchedScratch};

/// Identity of one memoized tile grid inside a reuse scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct GridKey {
    /// Layer index within the workload being simulated.
    pub layer: u32,
    /// Tile index along the grid's home axis (`n_tile` for B, `m_tile`
    /// for A).
    pub tile: u32,
    /// Whether the rotation shuffler was applied.
    pub rotate: bool,
    /// `true` for B-side grids, `false` for A-side.
    pub b_side: bool,
    /// Core dimensions the grid was blocked for.
    pub core: CoreDims,
    /// Batch plane (seed-variant index) the grid belongs to. Plain
    /// `run_with` simulations always use plane 0; `run_batch` keys each
    /// seed variant by its position in the batch so K same-shape
    /// workloads can share one reuse scope without reading each
    /// other's grids.
    pub plane: u32,
}

/// Retired schedule-sharing counters, kept only so the benchmark's
/// traced run still compiles against this API.
///
/// Every simulation runs through one per-cell path that shares no
/// schedules, so both fields are always zero. The next benchmark
/// change deletes this type, [`SimScratch::share_stats`] and the
/// `sim.replay_frac` metric together.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShareStats {
    /// Windows requested through multi-window scheduling (always 0).
    pub multi_windows: u64,
    /// Windows served by saturating-depth replay (always 0).
    pub multi_replayed: u64,
}

/// Reusable buffers for layer/network simulation. See the module docs
/// for the allocation contract.
#[derive(Debug, Default)]
pub struct SimScratch {
    /// Scheduler state (heads, row counts, tap tables, frontiers).
    pub(crate) sched: SchedScratch,
    /// Primary tile grid (single-sparse tiles; dual stage 1).
    pub(crate) grid: OpGrid,
    /// Word cache for the A/B builders' per-row bit spans.
    pub(crate) span: Vec<u64>,
    /// Active grid-reuse scope, set by campaign drivers that run the
    /// same workload under many architectures in a row.
    pub(crate) scope: Option<u128>,
    /// Memoized tile grids of the current scope. Tile grids depend only
    /// on the masks, the tile index, the shuffle flag and the core —
    /// not on the borrowing window — so one build serves every
    /// architecture of a sweep.
    pub(crate) grids: HashMap<GridKey, OpGrid>,
    /// Layer index the pipeline is currently simulating (keys the grid
    /// cache within a scope).
    pub(crate) layer_idx: u32,
    /// Batch plane of the workload currently simulating (keys the grid
    /// cache within a scope; 0 outside `run_batch`).
    pub(crate) plane: u32,
    /// Secondary grid for the dual pipeline's stage-2 replay.
    pub(crate) grid2: OpGrid,
    /// Assignment stream of the most recent `schedule_assign_with`.
    pub(crate) assigns: Vec<Assignment>,
    /// Stage-2 effectual-pair op list of the dual pipeline.
    pub(crate) filtered: Vec<(usize, usize, usize, usize)>,
    /// SparTen per-chunk pair counts of one output.
    pub(crate) chunk_pairs: Vec<u64>,
    /// SparTen per-chunk pair sums of the current dispatch wave.
    pub(crate) wave_sum: Vec<u64>,
    /// SparTen per-chunk pair maxima of the current dispatch wave.
    pub(crate) wave_max: Vec<u64>,
}

impl SimScratch {
    /// Creates an empty scratch; buffers grow on first use and are then
    /// reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens (or continues) a grid-reuse scope.
    ///
    /// `token` must uniquely identify the *inputs* of the simulation —
    /// the workload's masks (e.g. a fingerprint over workload spec,
    /// category and mask seed). While a scope is active, tile op grids
    /// are memoized and shared across architectures; entering a scope
    /// with a different token drops the previous scope's grids, so the
    /// cache never holds more than one workload's tiles.
    ///
    /// Callers that simulate each workload once (no architecture sweep)
    /// should simply not open a scope — grids are then rebuilt in place
    /// with zero allocations, which is cheaper than memoizing.
    pub fn begin_reuse_scope(&mut self, token: u128) {
        if self.scope != Some(token) {
            self.grids.clear();
            self.scope = Some(token);
        }
    }

    /// Closes the grid-reuse scope and frees the memoized grids.
    pub fn end_reuse_scope(&mut self) {
        self.scope = None;
        self.grids.clear();
    }

    /// Always-zero [`ShareStats`]; see its docs.
    pub fn share_stats(&self) -> ShareStats {
        ShareStats::default()
    }

    /// Selects the batch plane that keys memoized tile grids (plane 0
    /// is the plain single-run plane). `Accelerator::run_batch` gives
    /// each seed-variant workload its own plane so one reuse scope holds
    /// a whole batch without key collisions; plain `run_with` callers
    /// never need to touch this.
    pub fn set_plane(&mut self, plane: u32) {
        self.plane = plane;
    }
}
