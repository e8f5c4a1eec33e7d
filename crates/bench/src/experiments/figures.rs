//! The paper's Figures 1–3, regenerated from real simulator state.

use dbp_analysis::figures::{gantt, packing_gantt, rows_snapshot, SnapshotBin};
use dbp_analysis::table::Table;
use dbp_core::engine::{self, InteractiveSim};
use dbp_core::size::Size;
use dbp_core::time::{Dur, Time};
use dbp_core::{NoopSink, SimConfig};

use super::ExperimentReport;

/// Figure 1: a snapshot of CDFF's rows of bins at a moment, on an input
/// busy enough that several rows hold several bins.
pub fn fig1() -> ExperimentReport {
    // Drive CDFF interactively on a crafted aligned input: at t = 0 heavy
    // waves of every class arrive so rows 0..4 each open multiple bins —
    // the structure the paper's Figure 1 depicts.
    let mut sim = InteractiveSim::new(dbp_algos::Cdff::new(), 0, SimConfig::default(), NoopSink);
    let n = 4u32;
    sim.advance_to(Time(0));
    for i in (0..=n).rev() {
        // Five items of class i, each 2/5 of a bin: ⌈5·(2/5)⌉ = 2 bins/row.
        for _ in 0..5 {
            sim.arrive(Dur(1u64 << i), Size::from_ratio(2, 5))
                .expect("legal");
        }
    }
    let snapshot_time = sim.now();
    let top = sim.algorithm().top_class();
    let rows: Vec<(String, Vec<SnapshotBin>)> = dbp_algos::Cdff::rows_detail(sim.bins())
        .into_iter()
        .map(|(vkey, bins)| {
            let row_idx = top.saturating_sub(vkey);
            let bins = bins
                .iter()
                .enumerate()
                .map(|(j, &b)| {
                    let load = sim
                        .bins()
                        .record(b)
                        .map(|r| dbp_core::Load::from_raw(r.load.max_raw()).as_f64())
                        .unwrap_or(0.0);
                    SnapshotBin {
                        label: format!("b_{row_idx}^{}", j + 1),
                        load,
                    }
                })
                .collect();
            (format!("row {row_idx}"), bins)
        })
        .collect();
    let text = format!(
        "Snapshot at t = {} (top class n = {top}):\n\n{}",
        snapshot_time,
        rows_snapshot(&rows)
    );
    // Finish cleanly so the run is audited too.
    let (inst, res) = sim.finish();
    let audit = dbp_core::assignment::audit(&inst, &res.assignment).expect("valid packing");
    debug_assert_eq!(audit.cost, res.cost);
    ExperimentReport {
        id: "fig1",
        title: "Figure 1: CDFF's rows of bins at a moment".into(),
        table: Table::default(),
        text,
    }
}

/// Figure 2: the binary input σ_8 as an item gantt.
pub fn fig2() -> ExperimentReport {
    let inst = dbp_workloads::sigma_mu(3);
    ExperimentReport {
        id: "fig2",
        title: "Figure 2: the binary input σ_8".into(),
        table: Table::default(),
        text: gantt(&inst, 200),
    }
}

/// Figure 3: how CDFF packs σ_8, as a per-bin gantt, plus the Corollary
/// 5.8 check column.
pub fn fig3() -> ExperimentReport {
    let inst = dbp_workloads::sigma_mu(3);
    let res = engine::run(&inst, dbp_algos::Cdff::new()).expect("cdff legal");
    let mut text = packing_gantt(&inst, &res, 200);
    text.push('\n');
    let mut table = Table::new(["t", "binary(t)", "max_0 + 1", "CDFF open bins"]);
    for t in 0..8u64 {
        let m0 = dbp_analysis::max_zero_run(t, 3);
        table.row([
            t.to_string(),
            format!("{t:03b}"),
            (m0 + 1).to_string(),
            res.open_at(Time(t)).to_string(),
        ]);
    }
    ExperimentReport {
        id: "fig3",
        title: "Figure 3: CDFF packing σ_8 (with the Corollary 5.8 equality)".into(),
        table,
        text,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_snapshot_has_multiple_rows_and_bins() {
        let rep = fig1();
        assert!(rep.text.contains("row 0"));
        assert!(rep.text.contains("row 4"));
        assert!(
            rep.text.contains("b_0^2"),
            "rows must hold ≥ 2 bins:\n{}",
            rep.text
        );
    }

    #[test]
    fn fig2_draws_fifteen_items() {
        let rep = fig2();
        assert_eq!(rep.text.matches("len").count(), 15);
    }

    #[test]
    fn fig3_corollary_column_matches() {
        let rep = fig3();
        // Spot-check through the rendered CSV: at t=0, 3+1 = 4 = open bins.
        let csv = rep.table.to_csv();
        assert!(csv.lines().any(|l| l == "0,000,4,4"), "csv:\n{csv}");
        assert!(csv.lines().any(|l| l == "7,111,1,1"), "csv:\n{csv}");
    }
}
