//! The `resilience` experiment: cost degradation under server failures.
//!
//! Bins crash at a seeded per-bin rate while HA, CDFF and First-Fit serve
//! the same cloud trace; displaced sessions re-enter through the online
//! algorithm after a backoff. Every run is audited (load conservation and
//! cost triple-entry hold across failures) and compared against the
//! **failure-free** certified `OPT_R` bracket — the ratio column therefore
//! reads as "how much of the paid degradation is the storm's fault",
//! because the denominator never moves.
//!
//! The zero-rate row doubles as the bit-identity regression: it is
//! asserted equal to a plain (failure-layer-free) run of the same
//! algorithm on the same trace.

use std::sync::Mutex;

use dbp_analysis::table::{f3, Table};
use dbp_core::audit::InvariantAuditor;
use dbp_core::engine::{self, run_with_config};
use dbp_core::failure::{FailurePlan, RetryPolicy};
use dbp_core::time::Dur;
use dbp_core::SimConfig;
use dbp_workloads::{cloud_trace, CloudConfig};

use crate::bracket;
use crate::sweep::parallel_map_seeded;

use super::ExperimentReport;

/// Knobs the CLIs may override (`--fail-seed`, `--retry`).
#[derive(Debug, Clone, Copy)]
pub struct ResilienceConfig {
    /// Seed of the per-bin crash stream.
    pub seed: u64,
    /// Re-admission backoff policy.
    pub retry: RetryPolicy,
}

static CONFIG: Mutex<ResilienceConfig> = Mutex::new(ResilienceConfig {
    seed: 4242,
    retry: RetryPolicy::Fixed(Dur(5)),
});

/// Replaces the experiment's failure knobs (e.g. from CLI flags).
pub fn configure(seed: u64, retry: RetryPolicy) {
    *CONFIG.lock().expect("resilience config poisoned") = ResilienceConfig { seed, retry };
}

/// The active knobs.
pub fn config() -> ResilienceConfig {
    *CONFIG.lock().expect("resilience config poisoned")
}

/// Cost degradation vs failure rate, audited, against the failure-free
/// certified bracket.
pub fn resilience() -> ExperimentReport {
    let cfg = config();
    let inst = cloud_trace(&CloudConfig::new(600, 2_000), 17);
    let b0 = bracket::opt_r(&inst);
    let rates: &[f64] = &[0.0, 0.02, 0.05, 0.10];
    let algos = ["first-fit", "hybrid", "cdff"];
    let rows = parallel_map_seeded(rates, 0x4E51_11E4, |&rate| {
        algos
            .iter()
            .map(|&name| {
                let algo = dbp_algos::by_name(name).expect("registry");
                let mut auditor = InvariantAuditor::new();
                let plan = FailurePlan::seeded(rate, cfg.seed, Dur(120));
                let sim = SimConfig::crashing(plan, cfg.retry);
                let res = run_with_config(&inst, algo, sim, &mut auditor).expect("legal run");
                if let Err(v) = auditor.verify_result(&res) {
                    panic!("{name} at rate {rate}: {v}");
                }
                if rate == 0.0 {
                    // The §11 safety net, re-proved on every regeneration:
                    // an empty plan leaves the engine bit-identical.
                    let plain = engine::run(&inst, dbp_algos::by_name(name).expect("registry"))
                        .expect("legal run");
                    assert_eq!(plain.cost, res.cost, "{name}: zero-rate cost drifted");
                    assert_eq!(
                        plain.assignment, res.assignment,
                        "{name}: zero-rate assignment drifted"
                    );
                }
                (name, rate, res)
            })
            .collect::<Vec<_>>()
    });

    let mut table = Table::new([
        "fail rate",
        "algorithm",
        "cost",
        "ratio ≥ (vs no-fail OPT_R)",
        "failures",
        "migrations",
        "drops",
        "degraded bin·ticks",
    ]);
    for row in rows.iter().flatten() {
        let (name, rate, res) = row;
        let r = &res.resilience;
        table.row([
            format!("{rate:.2}"),
            (*name).to_string(),
            f3(res.cost.as_bin_ticks()),
            f3(b0.ratio_bracket(res.cost).0),
            r.bin_failures.to_string(),
            r.readmissions.to_string(),
            r.dropped.to_string(),
            f3(r.degraded_area.as_bin_ticks()),
        ]);
    }
    ExperimentReport {
        id: "resilience",
        title: "Extension: failure-aware serving — cost degradation under server crashes".into(),
        text: format!(
            "Seeded per-bin crash plan (seed {}, mtbf 120 ticks, retry {}) over a 600-session\n\
             cloud trace; displaced sessions re-enter through the online algorithm after the\n\
             backoff, or are dropped when it outlives them. Every run passes the invariant\n\
             auditor including the failure ledger; the 0.00 rows are asserted bit-identical\n\
             to a plain run. Expected: migrations, drops and degraded area grow with the\n\
             crash rate, while the bill moves only a few percent — a crash both adds cost\n\
             (the replacement bin re-bills from its re-admission) and removes it (service\n\
             truncated at the crash, dropped remainders), so the net is small at these\n\
             rates. The denominator is the failure-free OPT_R on purpose: the ratio\n\
             column isolates what the storm, not the workload, costs.\n",
            cfg.seed, cfg.retry
        ),
        table,
    }
}
