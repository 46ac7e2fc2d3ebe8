//! Component-level power and area model (Table VII).
//!
//! The paper synthesizes every architecture in 7 nm (Synopsys DC,
//! 800 MHz, 0.71 V) and reports per-component power/area breakdowns in
//! Table VII. We cannot run a 7 nm flow, so this module substitutes a
//! **calibrated component model**:
//!
//! * [`CostModel::calibrated`] returns the *exact published rows* for
//!   the eight named designs of Table VII — these anchor Figure 8 and
//!   the headline comparisons;
//! * [`CostModel::parametric`] prices an *arbitrary* configuration from
//!   its [`HardwareOverhead`] using per-component unit costs derived
//!   from the calibrated rows (buffer ≈ 0.0235 mW/word, 2:1-mux
//!   equivalent ≈ 0.854 µW, per-PE control ≈ 0.28 mW, …) — this drives
//!   the design-space sweeps of Figures 5–7, where only *relative*
//!   cost matters.
//!
//! Known parametric residuals vs Table VII: REG/WR pipeline registers
//! and SRAM bandwidth scaling are fit within ±30%; everything else is
//! within ±15%.

use griffin_tensor::shape::CoreDims;

use crate::arch::{ArchKind, ArchSpec};
use crate::overhead::HardwareOverhead;

/// Per-component cost vector; the unit is mW for power breakdowns and
/// kµm² (×1000 µm²) for area breakdowns, matching Table VII.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Components {
    /// Control units (per-PE arbitration, row arbiters).
    pub ctrl: f64,
    /// Rotation shuffler crossbars.
    pub shf: f64,
    /// Activation window buffers.
    pub abuf: f64,
    /// Weight window buffers.
    pub bbuf: f64,
    /// Pipeline registers and wiring.
    pub reg_wr: f64,
    /// Output accumulators.
    pub acc: f64,
    /// Multipliers.
    pub mul: f64,
    /// Adder trees.
    pub adt: f64,
    /// Operand-select multiplexers.
    pub mux: f64,
    /// On-chip SRAM (ASRAM + BSRAM).
    pub sram: f64,
}

impl Components {
    /// Sum of all components.
    pub fn total(&self) -> f64 {
        self.ctrl
            + self.shf
            + self.abuf
            + self.bbuf
            + self.reg_wr
            + self.acc
            + self.mul
            + self.adt
            + self.mux
            + self.sram
    }
}

/// Power (mW) and area (kµm²) of one architecture instance.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostBreakdown {
    /// Power breakdown in mW.
    pub power: Components,
    /// Area breakdown in ×1000 µm².
    pub area: Components,
}

impl CostBreakdown {
    /// Total power in mW.
    pub fn power_mw(&self) -> f64 {
        self.power.total()
    }

    /// Total area in mm².
    pub fn area_mm2(&self) -> f64 {
        self.area.total() / 1000.0
    }
}

/// Bandwidth/throughput provisioning of a design — how much faster than
/// the dense baseline its SRAM must stream (§V: "SRAM BW should be
/// equal or more than the multiplication of the normalized speedup and
/// the baseline bandwidth").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Provision {
    /// Target (home-category geomean) speedup the design is built for.
    pub speedup: f64,
    /// Bytes per dense B element streamed (compression factor, ≤ 1 for
    /// preprocessed weights, 1.0 otherwise).
    pub b_stream_factor: f64,
}

impl Provision {
    /// Dense provisioning: no extra bandwidth.
    pub fn dense() -> Self {
        Provision {
            speedup: 1.0,
            b_stream_factor: 1.0,
        }
    }
}

/// The cost model. Stateless; methods are associated functions grouped
/// for discoverability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CostModel;

// Unit costs derived from the Table VII baseline row (1024 MACs,
// K0,N0,M0 = 16,16,4).
const MUL_POWER_MW: f64 = 62.6;
const MUL_AREA: f64 = 29.0;
const ACC_POWER_MW: f64 = 10.9;
const ACC_AREA: f64 = 2.6;
const ADT_POWER_MW: f64 = 21.8; // activity-limited: ~constant in tree count
const ADT_AREA_PER_TREE: f64 = 6.7; // area scales with tree count
const REG_BASE_POWER: f64 = 22.8;
const REG_BASE_AREA: f64 = 3.2;
const BUF_POWER_PER_WORD: f64 = 0.0235; // from Sparse.B*/A* ABUF+BBUF rows
const BUF_AREA_PER_WORD: f64 = 0.0075; // kµm² per word (incl. index bits)
const MUX_POWER_PER_EQ: f64 = 0.854e-3; // per 2:1-mux equivalent
const MUX_AREA_PER_EQ: f64 = 1.59e-3;
const CTRL_POWER_PER_PE: f64 = 0.284;
const CTRL_AREA_PER_PE: f64 = 0.127;
const ARB_POWER_PER_ROW: f64 = 0.30;
const ARB_AREA_PER_ROW: f64 = 0.175;
const SHF_POWER_PER_STREAM: f64 = 0.7;
const SHF_AREA_PER_STREAM: f64 = 0.8;
const REG_POWER_PER_EXTRA_ADT: f64 = 18.0; // accumulator-routing pipeline
const REG_AREA_PER_EXTRA_ADT: f64 = 1.5;
const REG_POWER_PER_PE_CTRL: f64 = 12.0;
const REG_AREA_PER_PE_CTRL: f64 = 1.3;
const ASRAM_POWER: f64 = 20.0; // 512 KB @ 51.2 GB/s baseline
const BSRAM_POWER: f64 = 13.3; // 32 KB @ 204.8 GB/s baseline
const SRAM_AREA_BASE: f64 = 176.0;
const SRAM_AREA_BW_SLOPE: f64 = 5.0; // banking overhead per unit of BW scale

impl CostModel {
    /// Prices an arbitrary configuration from its hardware overhead.
    ///
    /// `provision` carries the target speedup (for SRAM bandwidth
    /// scaling) and the compressed-B stream factor.
    pub fn parametric(spec: &ArchSpec, core: CoreDims, provision: Provision) -> CostBreakdown {
        let o = HardwareOverhead::for_spec(spec);
        let pes = core.pes() as f64;
        let mults = core.macs() as f64;

        // Buffer word counts: ABUF shared per PE row, BBUF per column.
        let abuf_words = (o.abuf_depth * core.k0 * core.m0) as f64;
        let bbuf_words = (o.bbuf_depth * core.k0 * core.n0) as f64;

        // Mux 2:1 equivalents. A-side architectures pay for their BMUX
        // per multiplier but at a reduced weight (narrower select paths,
        // cf. Sparse.A* in Table VII); AMUX is shared per row when only
        // A is sparse, per PE otherwise.
        let a_only = matches!(spec.kind, ArchKind::SparseA | ArchKind::Cnvlutin);
        let amux_insts = if a_only {
            (core.k0 * core.m0) as f64
        } else {
            mults
        };
        let amux_eq = (o.amux_fanin.saturating_sub(1)) as f64 * amux_insts;
        let bmux_eq = (o.bmux_fanin.saturating_sub(1)) as f64 * mults * 0.3;
        let mux_eq = amux_eq + bmux_eq;

        let extra_adts = o.adder_trees.saturating_sub(1) as f64;
        let shuffled_streams = if spec.shuffle {
            if o.per_pe_control {
                2.0
            } else {
                1.0
            }
        } else {
            0.0
        };

        // SRAM bandwidth scaling: the A stream is never compressed; the
        // B stream scales by the compression factor.
        let s = provision.speedup.max(1.0);
        let a_scale = s;
        let b_scale = (s * provision.b_stream_factor).max(0.5);

        let power = Components {
            ctrl: if o.per_pe_control {
                CTRL_POWER_PER_PE * pes
            } else {
                0.0
            } + if o.row_arbiter {
                ARB_POWER_PER_ROW * core.m0 as f64
            } else {
                0.0
            },
            shf: SHF_POWER_PER_STREAM * shuffled_streams,
            abuf: BUF_POWER_PER_WORD * abuf_words * if o.abuf_depth > 1 { 1.0 } else { 0.0 },
            bbuf: BUF_POWER_PER_WORD * bbuf_words,
            reg_wr: REG_BASE_POWER
                + REG_POWER_PER_EXTRA_ADT * extra_adts
                + if o.per_pe_control {
                    REG_POWER_PER_PE_CTRL
                } else {
                    0.0
                },
            acc: ACC_POWER_MW,
            mul: MUL_POWER_MW,
            adt: ADT_POWER_MW,
            mux: MUX_POWER_PER_EQ * mux_eq,
            sram: ASRAM_POWER * a_scale + BSRAM_POWER * b_scale,
        };

        let area = Components {
            ctrl: if o.per_pe_control {
                CTRL_AREA_PER_PE * pes
            } else {
                0.0
            } + if o.row_arbiter {
                ARB_AREA_PER_ROW * core.m0 as f64
            } else {
                0.0
            },
            shf: SHF_AREA_PER_STREAM * shuffled_streams,
            abuf: BUF_AREA_PER_WORD * abuf_words * if o.abuf_depth > 1 { 1.0 } else { 0.0 },
            bbuf: BUF_AREA_PER_WORD * bbuf_words,
            reg_wr: REG_BASE_AREA
                + REG_AREA_PER_EXTRA_ADT * extra_adts
                + if o.per_pe_control {
                    REG_AREA_PER_PE_CTRL
                } else {
                    0.0
                },
            acc: ACC_AREA,
            mul: MUL_AREA,
            adt: ADT_AREA_PER_TREE * o.adder_trees as f64,
            mux: MUX_AREA_PER_EQ * mux_eq,
            sram: SRAM_AREA_BASE + SRAM_AREA_BW_SLOPE * (a_scale - 1.0),
        };

        CostBreakdown { power, area }
    }

    /// The exact Table VII row for a named architecture, when published.
    pub fn calibrated(spec: &ArchSpec) -> Option<CostBreakdown> {
        let row = |p: [f64; 10], a: [f64; 10]| {
            Some(CostBreakdown {
                power: from_array(p),
                area: from_array(a),
            })
        };
        // Component order: ctrl, shf, abuf, bbuf, reg_wr, acc, mul, adt, mux, sram.
        match spec.kind {
            ArchKind::Dense => row(
                [0.0, 0.0, 0.0, 0.0, 22.8, 10.9, 62.6, 21.8, 0.0, 33.3],
                [0.0, 0.0, 0.0, 0.0, 3.2, 2.6, 29.0, 6.7, 0.0, 176.0],
            ),
            ArchKind::SparseB if spec.name == "Sparse.B*" => row(
                [0.0, 0.7, 7.5, 0.0, 41.0, 10.9, 55.4, 20.4, 3.5, 66.7],
                [0.0, 0.9, 2.0, 0.0, 4.0, 2.6, 33.0, 12.8, 6.5, 196.0],
            ),
            ArchKind::TclB => row(
                [0.0, 0.0, 4.3, 0.0, 24.3, 10.9, 85.9, 21.2, 4.8, 57.2],
                [0.0, 0.0, 0.9, 0.0, 3.4, 2.6, 34.0, 6.6, 6.3, 179.0],
            ),
            ArchKind::SparseA if spec.name == "Sparse.A*" => row(
                [1.2, 0.4, 4.5, 17.8, 23.2, 10.9, 67.2, 17.8, 1.5, 78.2],
                [0.7, 0.5, 0.9, 3.8, 3.8, 2.6, 34.0, 6.6, 3.5, 196.0],
            ),
            ArchKind::SparseAB if spec.name == "Sparse.AB*" => row(
                [18.2, 1.4, 15.3, 22.9, 64.5, 10.9, 31.7, 17.8, 7.0, 92.3],
                [8.1, 1.6, 11.5, 5.2, 6.0, 2.6, 29.0, 12.3, 17.5, 188.0],
            ),
            ArchKind::Griffin => row(
                [18.2, 1.4, 15.3, 22.9, 64.5, 10.9, 31.7, 17.8, 8.8, 92.3],
                [9.4, 1.6, 11.5, 5.2, 6.0, 2.6, 29.0, 12.3, 20.7, 188.0],
            ),
            ArchKind::TensorDash => row(
                [19.0, 0.0, 5.8, 23.4, 24.3, 10.9, 85.9, 21.2, 9.6, 84.1],
                [8.9, 0.0, 1.4, 5.8, 3.4, 2.6, 34.0, 6.6, 17.4, 196.0],
            ),
            ArchKind::SparTenAB | ArchKind::SparTenA | ArchKind::SparTenB => row(
                // SparTen's MUX power/area is folded into its buffers
                // ("inBUF" in Table VII).
                [133.0, 0.0, 213.0, 213.0, 7.5, 110.0, 133.0, 0.0, 0.0, 181.6],
                [227.0, 0.0, 320.0, 320.0, 0.7, 30.2, 41.0, 0.0, 0.0, 200.0],
            ),
            _ => None,
        }
    }

    /// Best available estimate: the calibrated row when published, the
    /// parametric model otherwise.
    pub fn estimate(spec: &ArchSpec, core: CoreDims, provision: Provision) -> CostBreakdown {
        Self::calibrated(spec).unwrap_or_else(|| Self::parametric(spec, core, provision))
    }
}

/// Activity ratios for re-scaling a breakdown measured at a design's
/// *home* workload to a different workload category.
///
/// Table VII is synthesized with home-category activity (e.g.
/// `Sparse.AB*` on `DNN.AB`): its SRAM power reflects the provisioned
/// streaming rate actually used, its control/mux/buffer power the
/// skipping work performed. Running the same silicon on another
/// category changes those activities — this is why Figure 8's dense
/// panel shows Griffin within ~29% of the baseline even though its
/// Table VII power is 1.9× higher.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Activity {
    /// Ratio of streamed bytes per second vs home (≈ speedup ratio).
    pub stream: f64,
    /// Ratio of skipping work vs home (≈ ineffectual-fraction ratio);
    /// 0 on fully dense inputs, 1 at home.
    pub sparse_logic: f64,
    /// Ratio of multiplier toggling vs home (≈ effectual-op utilization
    /// ratio, ≥ 1 when the same silicon runs denser inputs).
    pub compute: f64,
}

impl Activity {
    /// Home-category activity: the breakdown applies as published.
    pub fn home() -> Self {
        Activity {
            stream: 1.0,
            sparse_logic: 1.0,
            compute: 1.0,
        }
    }

    /// Derives ratios from measured speedups and multiplier
    /// utilizations (effectual ops per slot-cycle) on the target vs
    /// home categories.
    pub fn from_measurements(
        speedup_cat: f64,
        speedup_home: f64,
        util_cat: f64,
        util_home: f64,
    ) -> Self {
        Activity {
            stream: (speedup_cat / speedup_home).clamp(0.2, 2.0),
            // Skip-logic work vanishes as inputs approach density.
            sparse_logic: ((1.0 - util_cat).max(0.0) / (1.0 - util_home).max(0.05)).clamp(0.1, 1.5),
            compute: (util_cat / util_home.max(0.05)).clamp(0.5, 2.5),
        }
    }
}

impl CostModel {
    /// Re-scales a home-activity power breakdown to another workload's
    /// activity (an extension of this reproduction: Table VII rows are
    /// home-activity, while Figure 8's per-category points imply
    /// activity-dependent power). Area is unchanged — silicon does not
    /// shrink with activity.
    pub fn scale_power_to_activity(cost: &CostBreakdown, act: Activity) -> CostBreakdown {
        let p = &cost.power;
        let dyn_frac = 0.85; // static (leakage) floor per component
        let scale = |v: f64, r: f64| v * ((1.0 - dyn_frac) + dyn_frac * r);
        let power = Components {
            ctrl: scale(p.ctrl, act.sparse_logic),
            shf: scale(p.shf, act.sparse_logic),
            abuf: scale(p.abuf, act.sparse_logic.max(0.4)), // still buffers the stream
            bbuf: scale(p.bbuf, act.sparse_logic.max(0.4)),
            reg_wr: scale(p.reg_wr, 0.5 + 0.5 * act.compute.min(1.0)),
            acc: p.acc,
            mul: scale(p.mul, act.compute).min(MUL_POWER_MW),
            adt: p.adt,
            mux: scale(p.mux, act.sparse_logic),
            sram: scale(p.sram, act.stream),
        };
        CostBreakdown {
            power,
            area: cost.area,
        }
    }
}

fn from_array(v: [f64; 10]) -> Components {
    Components {
        ctrl: v[0],
        shf: v[1],
        abuf: v[2],
        bbuf: v[3],
        reg_wr: v[4],
        acc: v[5],
        mul: v[6],
        adt: v[7],
        mux: v[8],
        sram: v[9],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core() -> CoreDims {
        CoreDims::PAPER
    }

    #[test]
    fn calibrated_totals_match_table_seven() {
        let cases = [
            (ArchSpec::dense(), 151.4, 217.5),
            (ArchSpec::sparse_b_star(), 206.1, 257.8),
            (ArchSpec::tcl_b(), 208.6, 232.8),
            (ArchSpec::sparse_a_star(), 223.4, 252.4),
            (ArchSpec::sparse_ab_star(), 282.0, 281.8),
            (ArchSpec::griffin(), 283.8, 286.4),
            (ArchSpec::tensordash(), 284.2, 276.1),
            (ArchSpec::sparten_ab(), 991.1, 1138.9),
        ];
        for (spec, power, area) in cases {
            let c = CostModel::calibrated(&spec).expect("published row");
            assert!(
                (c.power_mw() - power).abs() < 1.0,
                "{}: power {} vs {}",
                spec.name,
                c.power_mw(),
                power
            );
            assert!(
                (c.area.total() - area).abs() < 1.5,
                "{}: area {} vs {}",
                spec.name,
                c.area.total(),
                area
            );
        }
    }

    #[test]
    fn parametric_baseline_equals_calibrated_baseline() {
        let spec = ArchSpec::dense();
        let p = CostModel::parametric(&spec, core(), Provision::dense());
        let c = CostModel::calibrated(&spec).unwrap();
        assert!((p.power_mw() - c.power_mw()).abs() < 1.0);
        assert!((p.area.total() - c.area.total()).abs() < 2.0);
    }

    #[test]
    fn parametric_tracks_calibrated_for_star_designs() {
        // The parametric model should land within ~20% of the published
        // totals when given each design's home-category speedup.
        let cases = [
            (
                ArchSpec::sparse_b_star(),
                Provision {
                    speedup: 2.4,
                    b_stream_factor: 0.3,
                },
            ),
            (
                ArchSpec::sparse_a_star(),
                Provision {
                    speedup: 1.83,
                    b_stream_factor: 1.0,
                },
            ),
            (
                ArchSpec::sparse_ab_star(),
                Provision {
                    speedup: 3.9,
                    b_stream_factor: 0.3,
                },
            ),
        ];
        for (spec, prov) in cases {
            let p = CostModel::parametric(&spec, core(), prov);
            let c = CostModel::calibrated(&spec).unwrap();
            let rel = (p.power_mw() - c.power_mw()).abs() / c.power_mw();
            assert!(
                rel < 0.25,
                "{}: parametric {} vs calibrated {} (rel {rel:.2})",
                spec.name,
                p.power_mw(),
                c.power_mw()
            );
            let rel_a = (p.area.total() - c.area.total()).abs() / c.area.total();
            assert!(rel_a < 0.25, "{}: area rel {rel_a:.2}", spec.name);
        }
    }

    #[test]
    fn bigger_windows_cost_more() {
        use griffin_sim::window::BorrowWindow;
        let prov = Provision {
            speedup: 2.0,
            b_stream_factor: 0.3,
        };
        let small = CostModel::parametric(
            &ArchSpec::sparse_b(BorrowWindow::new(2, 0, 0), false),
            core(),
            prov,
        );
        let big = CostModel::parametric(
            &ArchSpec::sparse_b(BorrowWindow::new(8, 2, 2), false),
            core(),
            prov,
        );
        assert!(big.power_mw() > small.power_mw());
        assert!(big.area.total() > small.area.total());
    }

    #[test]
    fn speedup_provisioning_raises_sram_power() {
        let spec = ArchSpec::sparse_b_star();
        let lo = CostModel::parametric(
            &spec,
            core(),
            Provision {
                speedup: 1.5,
                b_stream_factor: 0.3,
            },
        );
        let hi = CostModel::parametric(
            &spec,
            core(),
            Provision {
                speedup: 4.0,
                b_stream_factor: 0.3,
            },
        );
        assert!(hi.power.sram > lo.power.sram);
        assert_eq!(hi.power.mux, lo.power.mux, "compute cost unaffected by BW");
    }

    #[test]
    fn estimate_prefers_calibrated() {
        let spec = ArchSpec::griffin();
        let est = CostModel::estimate(&spec, core(), Provision::dense());
        let cal = CostModel::calibrated(&spec).unwrap();
        assert_eq!(est, cal);
    }

    #[test]
    fn components_total_sums_everything() {
        let c = Components {
            ctrl: 1.0,
            shf: 2.0,
            abuf: 3.0,
            bbuf: 4.0,
            reg_wr: 5.0,
            acc: 6.0,
            mul: 7.0,
            adt: 8.0,
            mux: 9.0,
            sram: 10.0,
        };
        assert!((c.total() - 55.0).abs() < 1e-12);
    }

    #[test]
    fn activity_scaling_recovers_figure8_dense_power() {
        // Griffin on dense inputs: no skipping work, baseline streaming,
        // full multiplier toggling. The paper's Figure 8(a) implies
        // ~213 mW (29% efficiency tax vs the 151 mW baseline).
        let cal = CostModel::calibrated(&ArchSpec::griffin()).unwrap();
        let act = Activity::from_measurements(1.0, 2.9, 1.0, 0.35);
        let dense = CostModel::scale_power_to_activity(&cal, act);
        assert!(
            (190.0..240.0).contains(&dense.power_mw()),
            "Griffin dense-activity power {} outside the Figure 8 band",
            dense.power_mw()
        );
        // Area is silicon: unchanged.
        assert_eq!(dense.area, cal.area);
    }

    #[test]
    fn home_activity_is_identity() {
        let cal = CostModel::calibrated(&ArchSpec::sparse_ab_star()).unwrap();
        let same = CostModel::scale_power_to_activity(&cal, Activity::home());
        assert!((same.power_mw() - cal.power_mw()).abs() < 1e-9);
    }

    #[test]
    fn sparten_is_dramatically_more_expensive() {
        let sp = CostModel::calibrated(&ArchSpec::sparten_ab()).unwrap();
        let g = CostModel::calibrated(&ArchSpec::griffin()).unwrap();
        assert!(sp.power_mw() > 3.0 * g.power_mw());
        assert!(sp.area_mm2() > 3.5 * g.area_mm2());
    }
}
