//! Ladder golden: the certified brackets, their rungs and the exact
//! rung's node spend on the `certify` benchmark's heaviest instances.
//!
//! The values were recorded before the offline kernels were rewritten for
//! speed (step-function DLFF, allocation-free branch-and-bound node), and
//! every later change must reproduce them bit for bit. Instance 502 (the
//! 5k-item `general` instance of generator seed 500 + 2) runs its OPT_R
//! exact rung until `CACHED_NODE_BUDGET` runs out, so any drift in node
//! accounting moves its spend or its bracket.
//!
//! Release-only: the exhausted 40M-node search takes about a second in
//! release and minutes in a debug build. Run with
//! `cargo test --release -p dbp-bench --test ladder_golden`.

use dbp_algos::offline::{self, RefineBudget};
use dbp_bench::bracket::{BracketService, Effort, Goal, CACHED_NODE_BUDGET, FFD_TIGHTEN_LIMIT};
use dbp_core::{BracketRung, Instance};
use dbp_workloads::{random_general, sigma_mu, GeneralConfig};

fn instance_502() -> Instance {
    random_general(&GeneralConfig::new(10, 5000), 502)
}

fn assert_certified(inst: &Instance, goal: Goal, lower: u128, upper: u128, rung: BracketRung) {
    let cb = BracketService::new(Effort::Cached).certified(inst, goal);
    assert_eq!(cb.bracket.lower.raw(), lower, "{goal:?} lower");
    assert_eq!(cb.bracket.upper.raw(), upper, "{goal:?} upper");
    assert_eq!(cb.rung, rung, "{goal:?} rung");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: run with --release")]
fn sigma_mu_brackets_are_pinned() {
    let inst = sigma_mu(10);
    let point = 4_398_046_511_104;
    assert_certified(&inst, Goal::OptR, point, point, BracketRung::Exact);
    assert_certified(&inst, Goal::OptNr, point, point, BracketRung::Portfolio);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: run with --release")]
fn instance_502_brackets_are_pinned() {
    let inst = instance_502();
    assert_certified(
        &inst,
        Goal::OptR,
        635_972_987_387_904,
        636_299_404_902_400,
        BracketRung::FfdRepack,
    );
    assert_certified(
        &inst,
        Goal::OptNr,
        635_972_987_387_904,
        717_242_358_562_816,
        BracketRung::Portfolio,
    );
}

/// Replays the `Effort::Cached` OPT_R ladder on instance 502 rung by rung
/// (its peak concurrency, 170, rules out the unbudgeted exact fast path)
/// and pins what each budgeted rung spends.
#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: run with --release")]
fn instance_502_exact_rung_spend_is_pinned() {
    let inst = instance_502();
    assert!(inst.max_concurrency() > offline::EXACT_OPT_R_CONCURRENCY);
    assert!(
        inst.len() <= FFD_TIGHTEN_LIMIT,
        "the FFD rung runs unbudgeted"
    );
    let mut budget = RefineBudget::nodes(CACHED_NODE_BUDGET);
    offline::best_nonrepacking_budgeted(&inst, &mut budget).expect("portfolio ran");
    assert_eq!(budget.spent(), 50_010, "portfolio: 10 members × (|σ| + 1)");
    let (_, stats) = offline::refine_opt_r(&inst, true, &mut budget);
    assert_eq!(budget.spent() - 50_010, 39_949_990, "exact rung spend");
    assert!(budget.exhausted(), "the exact rung exhausts the budget");
    assert_eq!(
        (stats.segments, stats.ffd_segments, stats.exact_segments),
        (4252, 49, 48)
    );
}
