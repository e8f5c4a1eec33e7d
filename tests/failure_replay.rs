//! Property-based checks for the failure-aware serving layer: seeded
//! crash plans are deterministic (two runs replay the identical event
//! stream, bill and ledger), every such run passes the invariant auditor
//! including the failure-ledger reconciliation, the three failure events
//! survive the JSONL codec byte-for-byte, and a zero-rate plan is
//! bit-identical to a plain failure-free run.

use clairvoyant_dbp::algos;
use clairvoyant_dbp::core::trace::{event_from_json, event_to_json, EngineEvent, EventSink};
use clairvoyant_dbp::core::SimConfig;
use clairvoyant_dbp::core::{
    engine, BinStore, Dur, FailurePlan, Instance, InstanceBuilder, InvariantAuditor, RetryPolicy,
    Size, Time, VecSink,
};
use proptest::prelude::*;

/// Strategy: an arbitrary instance of up to `max_items` items with tick
/// arrivals < 128, durations ≤ 48 and sizes in (0, 1].
fn arb_instance(max_items: usize) -> impl Strategy<Value = Instance> {
    prop::collection::vec((0u64..128, 1u64..=48, 1u64..=100), 1..=max_items).prop_map(|triples| {
        let mut b = InstanceBuilder::with_capacity(triples.len());
        for (t, d, s) in triples {
            b.push(Time(t), Dur(d), Size::from_ratio(s, 100));
        }
        b.build().expect("strategy items are valid")
    })
}

fn retry_from(kind: u8) -> RetryPolicy {
    match kind % 3 {
        0 => RetryPolicy::Immediate,
        1 => RetryPolicy::Fixed(Dur(3)),
        _ => RetryPolicy::Exponential { base: Dur(2) },
    }
}

/// Records the live event stream while feeding it to the invariant
/// auditor, so one run yields both the replay transcript and the audit.
struct RecordingAuditor {
    events: Vec<EngineEvent>,
    auditor: InvariantAuditor,
}

impl RecordingAuditor {
    fn new() -> Self {
        RecordingAuditor {
            events: Vec::new(),
            auditor: InvariantAuditor::new(),
        }
    }
}

impl EventSink for RecordingAuditor {
    fn on_event(&mut self, event: &EngineEvent, bins: &BinStore) {
        self.events.push(*event);
        self.auditor.on_event(event, bins);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A seeded crash plan is a pure function of `(instance, algorithm,
    /// rate, seed, retry)`: two runs produce the identical event stream,
    /// assignment, bill and resilience ledger — and both pass the full
    /// audit, failure ledger included. Every emitted event also survives
    /// the JSONL codec, so a recorded chaos run replays losslessly.
    #[test]
    fn seeded_failure_runs_replay_deterministically(
        inst in arb_instance(48),
        rate_pct in 0u32..=80,
        seed in 0u64..1_000_000,
        retry_kind in 0u8..3,
    ) {
        let rate = f64::from(rate_pct) / 100.0;
        let retry = retry_from(retry_kind);
        let mut runs = Vec::new();
        for _ in 0..2 {
            let plan = FailurePlan::seeded(rate, seed, Dur(24));
            let mut sink = RecordingAuditor::new();
            let res = engine::run_with_config(
                &inst,
                algos::FirstFit::new(),
                SimConfig::crashing(plan, retry),
                &mut sink,
            )
            .expect("legal run");
            if let Err(v) = sink.auditor.verify_result(&res) {
                panic!("audit violation at rate {rate}, seed {seed}: {v}");
            }
            runs.push((sink.events, res));
        }
        let (events_b, res_b) = runs.pop().expect("second run");
        let (events_a, res_a) = runs.pop().expect("first run");
        prop_assert_eq!(&events_a, &events_b, "event stream diverged");
        prop_assert_eq!(res_a.cost, res_b.cost);
        prop_assert_eq!(&res_a.assignment, &res_b.assignment);
        prop_assert_eq!(res_a.resilience, res_b.resilience);

        for ev in &events_a {
            let line = event_to_json(ev);
            let back = event_from_json(&line)
                .unwrap_or_else(|e| panic!("codec rejected its own output {line}: {e}"));
            prop_assert_eq!(*ev, back, "JSONL round-trip drifted: {}", line);
        }
    }

    /// The §11 bit-identity guarantee: a zero-rate seeded plan (which
    /// collapses to `FailurePlan::None` by construction) leaves cost,
    /// assignment, metrics AND the event stream exactly as a plain run —
    /// the failure layer is unobservable until a crash actually fires.
    #[test]
    fn zero_rate_plan_is_bit_identical_to_plain_run(
        inst in arb_instance(48),
        seed in 0u64..1_000_000,
    ) {
        for name in ["first-fit", "hybrid", "cdff"] {
            let mut plain_sink = VecSink::new();
            let plain = engine::run_with_sink(
                &inst,
                algos::by_name(name).expect("registry"),
                &mut plain_sink,
            )
            .expect("legal run");

            let plan = FailurePlan::seeded(0.0, seed, Dur(24));
            prop_assert!(plan.is_none(), "zero rate must collapse to None");
            let mut fail_sink = VecSink::new();
            let failed = engine::run_with_config(
                &inst,
                algos::by_name(name).expect("registry"),
                SimConfig::crashing(plan, RetryPolicy::Immediate),
                &mut fail_sink,
            )
            .expect("legal run");

            prop_assert_eq!(&plain_sink.events, &fail_sink.events, "{} stream", name);
            prop_assert_eq!(plain.cost, failed.cost, "{} cost", name);
            prop_assert_eq!(&plain.assignment, &failed.assignment, "{} assignment", name);
            prop_assert_eq!(plain.metrics, failed.metrics, "{} metrics", name);
            prop_assert!(!failed.resilience.any(), "{} phantom failures", name);
        }
    }
}

/// Non-proptest fixture: a recorded chaos stream contains all three
/// failure events, and the scripted plan that produced it is reproducible
/// from the workloads-side chaos generator.
#[test]
fn chaos_stream_contains_the_failure_vocabulary() {
    use clairvoyant_dbp::workloads::{chaos_schedule, ChaosConfig};

    let inst = clairvoyant_dbp::workloads::cloud_trace(
        &clairvoyant_dbp::workloads::CloudConfig::new(80, 400),
        9,
    );
    let plan = chaos_schedule(&ChaosConfig::new(30, 400, 20), 5);
    let mut sink = RecordingAuditor::new();
    let res = engine::run_with_config(
        &inst,
        algos::FirstFit::new(),
        SimConfig::crashing(plan, RetryPolicy::Fixed(Dur(2))),
        &mut sink,
    )
    .expect("legal run");
    sink.auditor.verify_result(&res).expect("audit clean");
    assert!(res.resilience.bin_failures > 0, "storm missed entirely");
    let kinds: Vec<&str> = sink.events.iter().map(|e| e.kind()).collect();
    for needed in ["bin_failed", "displaced", "readmitted"] {
        assert!(
            kinds.contains(&needed),
            "no {needed} event in a {}-failure run",
            res.resilience.bin_failures
        );
    }
}
