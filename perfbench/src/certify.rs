//! `certify`: the certified-bracket ladder a researcher waits on.
//!
//! `BracketService::certified` under `Effort::Cached`, memory cache only,
//! one thread, for both optima over a fixed mix that ends on each rung:
//! the σ_μ binary input (portfolio rung for OPT_NR), small seeded
//! `general` instances (exact rung) and 5k-item seeded `general`
//! instances (FFD-repack rung for OPT_R). A fresh service per pass keeps
//! every certification a cold ladder run.

use std::collections::BTreeMap;
use std::time::Instant;

use dbp_algos::offline::{self, RefineBudget};
use dbp_bench::bracket::{
    BracketService, Effort, Goal, CACHED_NODE_BUDGET, EXACT_NR_LIMIT, EXACT_NR_NODE_CAP,
    FFD_TIGHTEN_LIMIT, PORTFOLIO_LIMIT,
};
use dbp_core::bounds::{BracketRung, OptBracket};
use dbp_core::{Area, Dur, Instance};
use dbp_workloads::{random_general, sigma_mu, GeneralConfig};

use crate::common::{self, Report, Spans};

const GOALS: [Goal; 2] = [Goal::OptR, Goal::OptNr];

/// The traced pass's span layers and the per-layer metric of each.
const RUNG_LAYERS: [(&str, &str); 5] = [
    ("offline.analytic", "offline.analytic_ns"),
    ("offline.exact_r", "offline.exact_r_ns"),
    ("offline.ffd_repack", "offline.ffd_repack_ns"),
    ("offline.portfolio", "offline.portfolio_ns"),
    ("offline.exact_nr", "offline.exact_nr_ns"),
];

/// The instance set. σ_μ and the 5k-item instances are fixed: how long
/// the ladder's budgeted searches run on a 5k-item instance varies by
/// more than a second from one draw to the next, which would drown any
/// change in the code. The small exact-rung instances, cheap enough to
/// vary, are drawn from the seed.
fn inputs(seed: u64, tiny: bool) -> Vec<Instance> {
    let (sigma_n, small, small_items, large, large_items) = if tiny {
        (6, 2, 20, 2, 500)
    } else {
        (10, 4, 20, 6, 5_000)
    };
    let mut set = vec![sigma_mu(sigma_n)];
    for i in 0..small {
        set.push(random_general(
            &GeneralConfig::new(5, small_items),
            seed.wrapping_mul(1000) + i,
        ));
    }
    for i in 0..large {
        set.push(random_general(
            &GeneralConfig::new(10, large_items),
            500 + i,
        ));
    }
    set
}

fn rung_index(r: BracketRung) -> usize {
    match r {
        BracketRung::Analytic => 0,
        BracketRung::FfdRepack => 1,
        BracketRung::Portfolio => 2,
        BracketRung::Exact => 3,
    }
}

/// The deterministic outcome of one pass: every bracket and its rung.
type Outcome = Vec<(OptBracket, BracketRung)>;

fn counters(out: &Outcome) -> BTreeMap<String, u64> {
    let mut c = BTreeMap::new();
    let names = [
        "rung.analytic",
        "rung.ffd_repack",
        "rung.portfolio",
        "rung.exact",
    ];
    for n in names {
        c.insert(n.to_string(), 0);
    }
    let mut h = common::StreamHash::new();
    for (b, r) in out {
        *c.get_mut(names[rung_index(*r)]).expect("rung name") += 1;
        h.feed(&b.lower.raw().to_le_bytes());
        h.feed(&b.upper.raw().to_le_bytes());
    }
    c.insert("brackets".to_string(), out.len() as u64);
    c.insert("brackets_digest".to_string(), h.value().0);
    c
}

/// One timed pass through a fresh service.
struct Pass {
    /// Service construction, wall seconds.
    setup: f64,
    outcome: Outcome,
    /// Each certification's wall time in µs.
    lat: Vec<f64>,
    /// CPU seconds of all certifications, and of the reference kernel run
    /// before each of them, so the kernel samples the host's speed all
    /// through a pass of a few seconds.
    cpu_s: f64,
    kernel_s: f64,
}

fn pass(set: &[Instance], reference: &mut common::Reference) -> Pass {
    let t = Instant::now();
    let svc = BracketService::new(Effort::Cached);
    let setup = t.elapsed().as_secs_f64();
    let mut p = Pass {
        setup,
        outcome: Vec::with_capacity(set.len() * 2),
        lat: Vec::with_capacity(set.len() * 2),
        cpu_s: 0.0,
        kernel_s: 0.0,
    };
    for inst in set {
        for goal in GOALS {
            p.kernel_s += reference.run();
            let t = Instant::now();
            let c = common::cpu_s();
            let cb = svc.certified(inst, goal);
            p.cpu_s += common::cpu_s() - c;
            p.lat.push(t.elapsed().as_secs_f64() * 1e6);
            p.outcome.push((cb.bracket, cb.rung));
        }
    }
    let stats = svc.stats();
    assert_eq!(
        stats.ladder_runs, stats.computed,
        "single-flight accounting"
    );
    p
}

/// The ladder's rungs called through their public entry points with the
/// service's `Effort::Cached` budgets, each call a span of its rung's
/// layer. Returns the bracket, the deepest rung that tightened it, and
/// the exact OPT_NR nodes spent.
fn ladder_traced(inst: &Instance, goal: Goal, sp: &mut Spans) -> (OptBracket, BracketRung, u64) {
    let (analytic, exact_r, ffd, portfolio, exact_nr) = (
        sp.layer("offline.analytic"),
        sp.layer("offline.exact_r"),
        sp.layer("offline.ffd_repack"),
        sp.layer("offline.portfolio"),
        sp.layer("offline.exact_nr"),
    );
    let mut bracket = sp.time(analytic, || OptBracket::of(inst));
    let mut rung = BracketRung::Analytic;
    let mut budget = RefineBudget::nodes(CACHED_NODE_BUDGET);
    let mut nodes = 0;
    let mut tighten = |next: OptBracket, to: BracketRung, bracket: &mut OptBracket| {
        if next != *bracket {
            *bracket = next;
            rung = to;
        }
    };
    match goal {
        Goal::OptR => {
            if inst.max_concurrency() <= offline::EXACT_OPT_R_CONCURRENCY {
                let x = sp.time(exact_r, || {
                    offline::exact_opt_r(inst, offline::EXACT_OPT_R_CONCURRENCY)
                });
                if let Some(x) = x {
                    return (OptBracket { lower: x, upper: x }, BracketRung::Exact, 0);
                }
            }
            let (swept, _) = if inst.len() <= FFD_TIGHTEN_LIMIT {
                sp.time(ffd, || {
                    offline::refine_opt_r(inst, false, &mut RefineBudget::unlimited())
                })
            } else {
                sp.time(ffd, || offline::refine_opt_r(inst, false, &mut budget))
            };
            tighten(
                bracket.intersect(swept),
                BracketRung::FfdRepack,
                &mut bracket,
            );
            if !budget.exhausted() && inst.len() <= PORTFOLIO_LIMIT {
                let p = sp.time(portfolio, || {
                    offline::best_nonrepacking_budgeted(inst, &mut budget)
                });
                if let Some(p) = p {
                    tighten(
                        bracket.tighten_upper(p.cost),
                        BracketRung::Portfolio,
                        &mut bracket,
                    );
                }
            }
            if !budget.exhausted() {
                let (swept, stats) =
                    sp.time(exact_r, || offline::refine_opt_r(inst, true, &mut budget));
                let next = bracket.intersect(swept);
                if next != bracket {
                    bracket = next;
                    rung = if stats.exact_segments > 0 {
                        BracketRung::Exact
                    } else {
                        rung.max(BracketRung::FfdRepack)
                    };
                }
            }
        }
        Goal::OptNr => {
            if inst.len() <= PORTFOLIO_LIMIT {
                let cost = sp.time(portfolio, || offline::best_nonrepacking(inst).cost);
                tighten(
                    bracket.tighten_upper(cost),
                    BracketRung::Portfolio,
                    &mut bracket,
                );
            }
            if inst.len() <= EXACT_NR_LIMIT && !budget.exhausted() {
                let mut sub = budget.child(EXACT_NR_NODE_CAP);
                let exact = sp.time(exact_nr, || {
                    offline::exact_opt_nr_budgeted(inst, EXACT_NR_LIMIT, &mut sub)
                });
                nodes += sub.spent();
                budget.absorb(&sub);
                if let Some(e) = exact {
                    let point = OptBracket {
                        lower: e.cost,
                        upper: e.cost,
                    };
                    tighten(bracket.intersect(point), BracketRung::Exact, &mut bracket);
                }
            }
        }
    }
    (bracket, rung, nodes)
}

/// The gate's oracles run on instances up to this many items…
const ORACLE_ITEMS: usize = 40;
/// …and the pre-propagation exact search gives up after this many nodes.
const ORACLE_NODES: u64 = 2_000_000;

/// OPT_R by bitmask dynamic programming per profile segment — code
/// independent of the ladder's branch-and-bound. Only for instances whose
/// every moment holds at most 12 items.
fn opt_r_oracle(inst: &Instance) -> Option<Area> {
    if inst.max_concurrency() > 12 {
        return None;
    }
    let mut times: Vec<_> = inst
        .items()
        .iter()
        .flat_map(|it| [it.arrival, it.departure])
        .collect();
    times.sort_unstable();
    times.dedup();
    let mut cost = Area::ZERO;
    for w in times.windows(2) {
        let sizes: Vec<u64> = inst
            .items()
            .iter()
            .filter(|it| it.arrival <= w[0] && w[0] < it.departure)
            .map(|it| it.size.primary().raw())
            .collect();
        let bins = offline::exact_repack::exact_bin_count_dp(&sizes);
        cost += Area::from_bins_ticks(bins, Dur(w[1].0 - w[0].0));
    }
    Some(cost)
}

/// The correctness gate: lower ≤ upper everywhere, and the exact optimum
/// inside the bracket wherever an independent oracle can compute it.
fn gate(set: &[Instance], out: &Outcome, report: &mut Report) {
    let mut checked = 0;
    for (i, inst) in set.iter().enumerate() {
        for (g, goal) in GOALS.iter().enumerate() {
            let (b, _) = out[2 * i + g];
            if b.lower > b.upper {
                report.fail(format!("instance {i} {goal:?}: lower > upper"));
            }
            if inst.len() > ORACLE_ITEMS {
                continue;
            }
            let opt = match goal {
                Goal::OptR => opt_r_oracle(inst),
                Goal::OptNr => offline::exact::exact_opt_nr_reference_budgeted(
                    inst,
                    EXACT_NR_LIMIT,
                    &mut RefineBudget::nodes(ORACLE_NODES),
                )
                .map(|e| e.cost),
            };
            if let Some(opt) = opt {
                checked += 1;
                if !(b.lower <= opt && opt <= b.upper) {
                    report.fail(format!(
                        "instance {i} {goal:?}: OPT {} outside [{}, {}]",
                        opt.raw(),
                        b.lower.raw(),
                        b.upper.raw()
                    ));
                }
            }
        }
    }
    report.notes.push(format!(
        "certify gate: {checked} brackets checked against an exact oracle"
    ));
}

pub fn run(seed: u64, seconds: f64, trace: bool, tiny: bool) -> Report {
    let set = inputs(seed, tiny);
    let items: usize = set.iter().map(Instance::len).sum::<usize>() * GOALS.len();
    let brackets = (set.len() * GOALS.len()) as u64;
    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    // Constructing a service takes under a microsecond: time batches of
    // eight, often enough for a steady median, each group of eight
    // batches scaled by the kernel run before it.
    let mut reference = common::Reference::new();
    let mut setups = Vec::new();
    let mut slots = Vec::with_capacity(8);
    for _ in 0..32 {
        let k = reference.run();
        for _ in 0..8 {
            let t = Instant::now();
            slots.extend((0..8).map(|_| BracketService::new(Effort::Cached)));
            std::hint::black_box(&slots);
            slots.clear();
            setups.push(common::at_reference(t.elapsed().as_secs_f64() / 8.0, k));
        }
    }
    // Per pass: certification CPU time scaled by its kernel runs, and the
    // unscaled wall time.
    let mut certify_s = Vec::new();
    let mut raw_s = Vec::new();
    let mut lat: Vec<Vec<f64>> = Vec::new();
    let mut outcome = Outcome::new();
    let budget = if trace { 0.0 } else { seconds };
    let started = Instant::now();
    while certify_s.len() < 3 || started.elapsed().as_secs_f64() < budget {
        let p = pass(&set, &mut reference);
        let per_kernel = p.kernel_s / p.lat.len() as f64;
        raw_s.push(p.lat.iter().sum::<f64>() / 1e6);
        report.attempted += brackets;
        setups.push(common::at_reference(p.setup, per_kernel));
        certify_s.push(common::at_reference(p.cpu_s, per_kernel));
        lat.push(p.lat);
        report.expect_counters(
            &format!("timed #{}", certify_s.len()),
            &counters(&p.outcome),
        );
        outcome = p.outcome;
    }
    gate(&set, &outcome, &mut report);
    report.failed = u64::from(!report.correct);
    let looseness = outcome.iter().map(|(b, _)| b.looseness()).sum::<f64>() / outcome.len() as f64;
    // One operation is a pass over the whole set (the wait for a fresh
    // table of certified brackets); per-bracket medians are reported too.
    let per_bracket: Vec<f64> = (0..outcome.len())
        .map(|j| common::median(&lat.iter().map(|pass| pass[j]).collect::<Vec<_>>()))
        .collect();
    report.notes.push(format!(
        "certify: per-bracket median ms {:?}",
        per_bracket
            .iter()
            .map(|l| (l / 1e3).round())
            .collect::<Vec<_>>()
    ));
    report.notes.push(format!(
        "certify: {} instances x 2 goals, {} passes, certify_s median {:.4} s (unscaled wall {:.4} s), \
         bracket_looseness {looseness:.6}",
        set.len(),
        certify_s.len(),
        common::median(&certify_s),
        common::median(&raw_s),
    ));
    if !trace {
        common::push_e2e(
            &mut report,
            common::median(&setups),
            items as f64 / common::median(&certify_s),
            &certify_s.iter().map(|s| s * 1e6).collect::<Vec<_>>(),
            common::peak_rss_mb() - reference.resident_mb(),
            looseness,
        );
        return report;
    }

    let mut sp = Spans::new(&RUNG_LAYERS.map(|(layer, _)| layer));
    let mut traced = Outcome::new();
    let mut nodes = 0;
    let t = Instant::now();
    for inst in &set {
        for goal in GOALS {
            let (b, r, n) = ladder_traced(inst, goal, &mut sp);
            traced.push((b, r));
            nodes += n;
        }
    }
    let wall = t.elapsed().as_nanos() as u64;
    if traced != outcome {
        report.fail("the traced rung calls disagree with BracketService::certified".to_string());
    }
    report.expect_counters("traced", &counters(&traced));
    report.counters.insert("exact_nr_nodes".to_string(), nodes);
    report.failed = u64::from(!report.correct);
    let untraced = raw_s.iter().copied().fold(f64::INFINITY, f64::min);
    let exact = traced
        .iter()
        .filter(|(_, r)| *r == BracketRung::Exact)
        .count();
    let mut v = common::layer_metrics();
    for (layer, metric) in RUNG_LAYERS {
        v.insert(metric, sp.self_ns(layer) as f64 / brackets as f64);
    }
    v.insert("offline.exact_nr_nodes", nodes as f64);
    v.insert("bracket.exact_share", exact as f64 / traced.len() as f64);
    v.insert("trace.total_ns", wall as f64 / brackets as f64);
    v.insert(
        "trace.unattributed_share",
        common::unattributed_share(wall, sp.attributed_ns()),
    );
    v.insert(
        "trace.overhead_share",
        common::overhead_share(wall, (untraced * 1e9) as u64),
    );
    report.notes.extend(sp.table());
    common::push_layers(&mut report, &v);
    report
}
