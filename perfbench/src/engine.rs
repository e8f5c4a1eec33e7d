//! `engine_dense`: the batch engine in-process, no text anywhere.
//!
//! HA (`hybrid`, the paper's Algorithm 1) packs a long-μ `general`
//! instance (durations up to 2^16 ticks, so about 1.7k bins are open at
//! the peak) through `InteractiveSim` with `NoopSink`, while seeded bin
//! crashes (5% of opened bins) displace items that a fixed one-tick retry
//! re-admits. Time goes to the algorithm, `BinStore`/`FitTree` and the
//! departure/crash heap.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use dbp_core::audit::InvariantAuditor;
use dbp_core::engine::{InteractiveSim, PackingResult};
use dbp_core::failure::{FailurePlan, RetryPolicy};
use dbp_core::recourse::{Migration, RecourseEpoch, RecourseView};
use dbp_core::trace::{EventSink, NoopSink};
use dbp_core::{
    BinId, Dur, Instance, Item, ItemId, LowerBounds, OnlineAlgorithm, Placement, SimView,
};
use dbp_workloads::{random_general, GeneralConfig};

use crate::common::{self, Report, Spans};

struct Inputs {
    instance: Instance,
    plan: FailurePlan,
    retry: RetryPolicy,
}

fn inputs(seed: u64, tiny: bool) -> Inputs {
    let items = if tiny { 4_000 } else { 300_000 };
    Inputs {
        instance: random_general(&GeneralConfig::new(16, items), seed),
        plan: FailurePlan::seeded(0.05, seed ^ 0x5eed_c4a5, Dur(4096)),
        retry: RetryPolicy::Fixed(Dur(1)),
    }
}

fn algo() -> Box<dyn OnlineAlgorithm + Send> {
    dbp_algos::by_name("hybrid").expect("hybrid is registered")
}

/// The deterministic work counters of one pass.
fn counters(r: &PackingResult) -> BTreeMap<String, u64> {
    let m = &r.metrics;
    let s = &r.resilience;
    [
        ("arrivals", m.arrivals),
        ("fast_path_placements", m.fast_path_placements),
        ("scan_placements", m.scan_placements),
        ("tree_queries", m.tree_queries),
        ("linear_scans", m.linear_scans),
        ("heap_pushes", m.heap_pushes),
        ("heap_pops", m.heap_pops),
        ("events", m.events),
        ("bin_failures", s.bin_failures),
        ("displacements", s.displacements),
        ("readmissions", s.readmissions),
        ("dropped", s.dropped),
        ("max_open", r.max_open as u64),
        ("bins_opened", r.bins_opened as u64),
        ("cost_low64", r.cost.raw() as u64),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

/// Drives every item through a fresh sim. Returns the result and the
/// construction's CPU seconds.
fn pass<A: OnlineAlgorithm, S: EventSink>(
    inp: &Inputs,
    make: impl FnOnce() -> (A, S),
    failed: &mut u64,
) -> (Instance, PackingResult, f64) {
    let t_setup = common::cpu_s();
    let (algo, sink) = make();
    let mut sim = InteractiveSim::with_capacity_failures_and_sink(
        algo,
        inp.instance.len(),
        inp.plan.clone(),
        inp.retry,
        sink,
    );
    let setup = common::cpu_s() - t_setup;
    for it in inp.instance.items() {
        if sim.arrive_at(it.arrival, it.duration(), it.size).is_err() {
            *failed += 1;
        }
    }
    let (played, result) = sim.finish();
    (played, result, setup)
}

/// Times every algorithm callback as one `algos.decide` span, nested in
/// whatever engine span is open.
struct TimedAlgo {
    inner: Box<dyn OnlineAlgorithm + Send>,
    spans: Rc<RefCell<Spans>>,
    decide: common::Layer,
}

impl OnlineAlgorithm for TimedAlgo {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn on_arrival(&mut self, view: &SimView<'_>, item: &Item) -> Placement {
        self.spans.borrow_mut().enter(self.decide);
        let p = self.inner.on_arrival(view, item);
        self.spans.borrow_mut().exit();
        p
    }
    fn on_departure(&mut self, item: &Item, bin: BinId, bin_closed: bool) {
        self.spans.borrow_mut().enter(self.decide);
        self.inner.on_departure(item, bin, bin_closed);
        self.spans.borrow_mut().exit();
    }
    fn on_compact(&mut self, retained: &[ItemId], old_len: usize) {
        self.inner.on_compact(retained, old_len);
    }
    fn on_bin_compact(&mut self, old_to_new: &[BinId], new_len: usize) {
        self.inner.on_bin_compact(old_to_new, new_len);
    }
    fn propose_migration(
        &mut self,
        view: &RecourseView<'_>,
        epoch: RecourseEpoch,
        moves_left: u32,
    ) -> Option<Migration> {
        self.inner.propose_migration(view, epoch, moves_left)
    }
    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// One traced pass: every `arrive_at` and the `finish` drain are engine
/// spans; algorithm callbacks inside them are `algos.decide` spans.
fn traced_pass(inp: &Inputs, failed: &mut u64) -> (PackingResult, Spans, u64) {
    let spans = Rc::new(RefCell::new(Spans::new(&[
        "engine.arrive",
        "engine.finish",
        "algos.decide",
    ])));
    let (arrive, finish, decide) = {
        let s = spans.borrow();
        (
            s.layer("engine.arrive"),
            s.layer("engine.finish"),
            s.layer("algos.decide"),
        )
    };
    let timed = TimedAlgo {
        inner: algo(),
        spans: Rc::clone(&spans),
        decide,
    };
    let mut sim = InteractiveSim::with_capacity_failures_and_sink(
        timed,
        inp.instance.len(),
        inp.plan.clone(),
        inp.retry,
        NoopSink,
    );
    let t0 = Instant::now();
    for it in inp.instance.items() {
        spans.borrow_mut().enter(arrive);
        let r = sim.arrive_at(it.arrival, it.duration(), it.size);
        spans.borrow_mut().exit();
        if r.is_err() {
            *failed += 1;
        }
    }
    spans.borrow_mut().enter(finish);
    let (_, result) = sim.finish();
    spans.borrow_mut().exit();
    let wall = t0.elapsed().as_nanos() as u64;
    let spans = Rc::try_unwrap(spans)
        .ok()
        .expect("sim dropped, spans unshared")
        .into_inner();
    (result, spans, wall)
}

/// The correctness gate: an untimed pass with the invariant auditor
/// attached, then the independent per-bin cost recomputation.
fn gate(inp: &Inputs, report: &mut Report) {
    let mut auditor = InvariantAuditor::new();
    let mut failed = 0;
    let (played, result, _) = pass(inp, || (algo(), &mut auditor), &mut failed);
    if failed > 0 {
        report.fail(format!("{failed} arrivals failed in the audited pass"));
    }
    if let Err(v) = auditor.verify_result(&result) {
        report.fail(format!("invariant auditor: {v}"));
    }
    report.expect_counters("audited", &counters(&result));
    // The played instance carries the re-admitted clones as items of
    // their own, so the assignment covers every row the engine billed.
    match dbp_core::audit(&played, &result.assignment) {
        Ok(a) if a.cost == result.cost => {}
        Ok(a) => report.fail(format!(
            "recomputed cost {} != engine cost {}",
            a.cost.raw(),
            result.cost.raw()
        )),
        Err(e) => report.fail(format!("assignment audit: {e}")),
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool, tiny: bool) -> Report {
    let inp = inputs(seed, tiny);
    let n = inp.instance.len() as u64;
    let lower = LowerBounds::of(&inp.instance).best();
    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    let mut failed = 0u64;
    // Set-up and pass CPU times, scaled by the kernel run before the pass.
    let mut setups = Vec::new();
    let mut scaled_s = Vec::new();
    let mut cpu_s = Vec::new();
    let mut kernel_s = Vec::new();
    let mut pass_ns = Vec::new();
    let mut looseness = 0.0;
    let mut reference = common::Reference::new();
    let budget = if trace { 0.0 } else { seconds };
    let started = Instant::now();
    // At least three passes, so the medians have something to choose from.
    while cpu_s.len() < 3 || started.elapsed().as_secs_f64() < budget {
        let k = reference.run();
        let t = Instant::now();
        let c = common::cpu_s();
        let (_, result, setup) = pass(&inp, || (algo(), NoopSink), &mut failed);
        let cpu = common::cpu_s() - c - setup;
        // Wall time without construction, the baseline of the traced pass.
        pass_ns.push(((t.elapsed().as_secs_f64() - setup).max(0.0) * 1e9) as u64);
        report.attempted += n;
        setups.push(common::at_reference(setup, k));
        scaled_s.push(common::at_reference(cpu, k));
        cpu_s.push(cpu);
        kernel_s.push(k);
        looseness = result.cost.ratio_to(lower);
        report.expect_counters(&format!("timed #{}", cpu_s.len()), &counters(&result));
    }
    gate(&inp, &mut report);
    report.failed = failed;
    if !report.correct {
        report.failed += 1;
    }
    report.notes.push(format!(
        "engine_dense: {n} items, {} passes, unscaled median {:.0} items per CPU-second, \
         kernel median {:.5} s",
        cpu_s.len(),
        n as f64 / common::median(&cpu_s),
        common::median(&kernel_s)
    ));
    if !trace {
        // Per-item time of the whole pass: chunks within a pass sample
        // the instance's phases, whose mix differs between seeds, and
        // their median jumps between phases.
        let per_item: Vec<f64> = scaled_s.iter().map(|c| c * 1e6 / n as f64).collect();
        common::push_e2e(
            &mut report,
            common::median(&setups),
            n as f64 / common::median(&scaled_s),
            &per_item,
            common::peak_rss_mb() - reference.resident_mb(),
            looseness,
        );
        return report;
    }

    let (result, spans, wall) = traced_pass(&inp, &mut failed);
    report.expect_counters("traced", &counters(&result));
    report.failed = failed + u64::from(!report.correct);
    let untraced = *pass_ns.iter().min().expect("at least one pass");
    let per = |ns: u64| ns as f64 / n as f64;
    let m = &result.metrics;
    let mut v = common::layer_metrics();
    v.insert("algos.decide_ns", per(spans.self_ns("algos.decide")));
    v.insert(
        "algos.decisions",
        (m.fast_path_placements + m.scan_placements) as f64,
    );
    v.insert("engine.arrive_self_ns", per(spans.self_ns("engine.arrive")));
    v.insert("engine.finish_ns", per(spans.self_ns("engine.finish")));
    v.insert("engine.tree_queries", m.tree_queries as f64);
    v.insert("engine.linear_scans", m.linear_scans as f64);
    v.insert("engine.heap_pops", m.heap_pops as f64);
    v.insert("engine.events", m.events as f64);
    v.insert("engine.readmissions", result.resilience.readmissions as f64);
    v.insert("bins.peak_open", result.max_open as f64);
    v.insert("engine.fast_share", m.fast_path_share());
    v.insert("trace.total_ns", per(wall));
    v.insert(
        "trace.unattributed_share",
        common::unattributed_share(wall, spans.attributed_ns()),
    );
    v.insert(
        "trace.overhead_share",
        common::overhead_share(wall, untraced),
    );
    report.notes.extend(spans.table());
    common::push_layers(&mut report, &v);
    report
}
