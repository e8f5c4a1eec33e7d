//! The `recourse` experiment: the cost/moves frontier of budgeted
//! repacking.
//!
//! The `rod:first-fit` and `amortized:first-fit` wrappers serve the same
//! pinned cloud trace under a ladder of move budgets, from `none` (the
//! irrevocable classic model) to `unlimited`. Every run is audited with
//! the budget replayed from the event stream, the `none` rows are asserted
//! bit-identical to the plain base algorithm, and the per-epoch ladder is
//! asserted monotone: more allowance never costs more on this workload.
//! Ratios are against the certified `OPT_R` bracket of the (fixed) trace,
//! so the frontier reads as "how much of First-Fit's gap to OPT does each
//! extra move buy back".

use dbp_analysis::table::{f3, Table};
use dbp_core::audit::InvariantAuditor;
use dbp_core::engine::{self, run_with_config};
use dbp_core::recourse::RecourseBudget;
use dbp_core::SimConfig;
use dbp_workloads::{cloud_trace, CloudConfig};

use crate::bracket;
use crate::sweep::parallel_map_seeded;

use super::ExperimentReport;

/// Cost vs. move budget for the bounded-recourse wrappers, audited,
/// against the certified bracket of the unmodified trace.
pub fn recourse() -> ExperimentReport {
    let inst = cloud_trace(&CloudConfig::new(600, 2_000), 17);
    let b0 = bracket::opt_r(&inst);
    let budgets: &[&str] = &["none", "epoch=1", "epoch=4", "amortized=250", "unlimited"];
    let algos = ["rod:first-fit", "amortized:first-fit"];
    let rows = parallel_map_seeded(budgets, 0x4EC0_0125, |&spec| {
        let budget = RecourseBudget::parse(spec).expect("ladder specs parse");
        algos
            .iter()
            .map(|&name| {
                let algo = dbp_algos::by_name(name).expect("registry");
                let mut auditor = InvariantAuditor::new();
                auditor.expect_budget(budget);
                let res = run_with_config(&inst, algo, SimConfig::repacking(budget), &mut auditor)
                    .expect("legal run");
                if let Err(v) = auditor.verify_result(&res) {
                    panic!("{name} under {spec}: {v}");
                }
                if budget.is_none() {
                    // Bit-identity safety net, re-proved on every
                    // regeneration: with no budget the wrapper IS its base.
                    let base =
                        engine::run(&inst, dbp_algos::by_name("first-fit").expect("registry"))
                            .expect("legal run");
                    assert_eq!(base.cost, res.cost, "{name}: budget-none cost drifted");
                    assert_eq!(
                        base.assignment, res.assignment,
                        "{name}: budget-none assignment drifted"
                    );
                    assert!(
                        !res.recourse.any(),
                        "{name}: recourse engaged without budget"
                    );
                }
                (name, spec, res)
            })
            .collect::<Vec<_>>()
    });

    // The frontier must be monotone for the per-epoch ladder: a strictly
    // larger allowance can only consolidate more. (The amortized point
    // paces the same moves differently and is not comparable.)
    for name in algos {
        let ladder: Vec<f64> = ["none", "epoch=1", "epoch=4", "unlimited"]
            .iter()
            .map(|&spec| {
                rows.iter()
                    .flatten()
                    .find(|(n, s, _)| *n == name && *s == spec)
                    .map(|(_, _, res)| res.cost.as_bin_ticks())
                    .expect("ladder point present")
            })
            .collect();
        for pair in ladder.windows(2) {
            assert!(
                pair[1] <= pair[0],
                "{name}: cost rose with budget ({} -> {}) across {:?}",
                pair[0],
                pair[1],
                ladder
            );
        }
    }

    let mut table = Table::new([
        "budget",
        "algorithm",
        "cost",
        "ratio ≥",
        "moves",
        "closures",
        "epochs",
    ]);
    for (name, spec, res) in rows.iter().flatten() {
        let r = &res.recourse;
        table.row([
            (*spec).to_string(),
            (*name).to_string(),
            f3(res.cost.as_bin_ticks()),
            f3(b0.ratio_bracket(res.cost).0),
            r.migrations.to_string(),
            r.migration_closures.to_string(),
            r.epochs.to_string(),
        ]);
    }
    ExperimentReport {
        id: "recourse",
        title: "Extension: budgeted recourse — the cost/moves repacking frontier".into(),
        text: "Move-budget ladder over a 600-session cloud trace (seed 17). `rod` evacuates\n\
               the lightest open bin whole when the departure epoch can fund it; `amortized`\n\
               spends one move per epoch. Both obey the clairvoyant safety rule (an item only\n\
               moves into a bin that already outlives it), so every migration can only shrink\n\
               the bill. The `none` rows are asserted bit-identical to plain First-Fit and\n\
               the per-epoch ladder is asserted monotone non-increasing; the amortized row\n\
               sits off-ladder (same moves, different pacing). Every run passes the invariant\n\
               auditor with the budget replayed from the event stream. Expected: a handful of\n\
               well-aimed moves recovers a visible slice of First-Fit's gap to OPT_R, with\n\
               sharply diminishing returns — the frontier flattens well before `unlimited`.\n"
            .into(),
        table,
    }
}
