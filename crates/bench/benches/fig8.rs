//! Figure 8 — overall comparison: power vs area efficiency of the eight
//! architectures on all four DNN categories, plus the paper's headline
//! Griffin-vs-SparTen ratios.

use griffin_bench::{banner, deviation, paper, Suite};
use griffin_core::arch::ArchSpec;
use griffin_core::category::DnnCategory;

fn main() {
    banner(
        "Figure 8",
        "Power vs area efficiency across all four DNN categories",
    );
    let mut suite = Suite::new();
    let lineup = ArchSpec::table7_lineup();

    // Power is re-scaled from each design's home-category activity to
    // the panel's category (Table VII rows are home-activity; Figure 8's
    // per-category points imply activity-dependent power — see
    // `CostModel::scale_power_to_activity`).
    let mut results = Vec::new();
    for cat in DnnCategory::ALL {
        println!();
        println!("--- {cat} (activity-scaled power) ---");
        println!(
            "{:<14} {:>8} {:>10} {:>11} {:>11}",
            "arch", "speedup", "power mW", "TOPS/W", "TOPS/mm2"
        );
        for spec in &lineup {
            let e = suite.evaluate_activity_scaled(spec, cat);
            println!(
                "{:<14} {:>8.2} {:>10.1} {:>10.2} {:>11.2}",
                spec.name,
                e.speedup,
                e.cost.power_mw(),
                e.eff.tops_per_w,
                e.eff.tops_per_mm2
            );
            results.push((spec.name.clone(), cat, e));
        }
    }

    let get = |name: &str, cat: DnnCategory| {
        results
            .iter()
            .find(|(n, c, _)| n == name && *c == cat)
            .map(|(_, _, e)| *e)
            .unwrap()
    };

    println!();
    println!("Headline: Griffin vs SparTen.AB power efficiency (paper: 1.2 / 3.0 / 3.1 / 1.4x)");
    let paper_power = [1.2, 3.0, 3.1, 1.4];
    let paper_area = [3.8, 3.1, 3.7, 1.8];
    for (i, cat) in [
        DnnCategory::Dense,
        DnnCategory::B,
        DnnCategory::A,
        DnnCategory::AB,
    ]
    .into_iter()
    .enumerate()
    {
        let g = get("Griffin", cat);
        let s = get("SparTen.AB", cat);
        let pr = g.eff.tops_per_w / s.eff.tops_per_w;
        let ar = g.eff.tops_per_mm2 / s.eff.tops_per_mm2;
        println!(
            "  {cat:<10} power {pr:>5.2}x (paper {}, dev {})   area {ar:>5.2}x (paper {}, dev {})",
            paper(Some(paper_power[i])),
            deviation(pr, Some(paper_power[i])),
            paper(Some(paper_area[i])),
            deviation(ar, Some(paper_area[i])),
        );
    }

    println!();
    println!(
        "Griffin morphing gains vs Sparse.AB* (paper: +25% power-eff on DNN.B, +23% on DNN.A):"
    );
    for (cat, paper_gain) in [(DnnCategory::B, 1.25), (DnnCategory::A, 1.23)] {
        let g = get("Griffin", cat);
        let ab = get("Sparse.AB*", cat);
        let ratio = g.eff.tops_per_w / ab.eff.tops_per_w;
        println!(
            "  {cat:<10} {ratio:>5.2}x (paper {}, dev {})",
            paper(Some(paper_gain)),
            deviation(ratio, Some(paper_gain))
        );
    }

    println!();
    println!("Sparsity tax on DNN.dense vs baseline (paper: Griffin 29%/24%, SparTen 42%/80%):");
    let base = get("Baseline", DnnCategory::Dense);
    for name in ["Griffin", "SparTen.AB"] {
        let e = get(name, DnnCategory::Dense);
        println!(
            "  {name:<12} power tax {:>4.0}%  area tax {:>4.0}%",
            (1.0 - e.eff.tops_per_w / base.eff.tops_per_w) * 100.0,
            (1.0 - e.eff.tops_per_mm2 / base.eff.tops_per_mm2) * 100.0
        );
    }
}
