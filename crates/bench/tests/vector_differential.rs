//! Vector differential battery (DESIGN.md §16): the D = 1 bit-identity
//! contract across the whole algorithm registry, per-dimension load
//! conservation under chaos + recourse, and the event codec's vector
//! round-trip.
//!
//! The contract under test: a `SizeVec` whose dimensions 1.. are zero IS
//! the scalar it wraps — same placements, same events, same cost — and a
//! diagonal lift (the scalar replicated into every dimension) packs
//! identically too, because every per-dimension fit test degenerates to
//! the same scalar constraint.

use dbp_algos::{by_name, registry_names};
use dbp_core::SimConfig;
use dbp_core::{
    engine, event_from_json, event_to_json, EngineEvent, FailurePlan, Instance, InvariantAuditor,
    RecourseBudget, RetryPolicy, SizeVec, VecSink,
};
use dbp_workloads::{random_general, vm_anti_correlated, GeneralConfig, VmConfig};

/// The scalar workload every identity check runs on: mixed sizes and
/// durations with plenty of same-tick ties.
fn scalar_instance() -> Instance {
    random_general(&GeneralConfig::new(6, 400), 20_260_808)
}

/// The same instance with every size rebuilt through the vector
/// constructor (still D = 1).
fn via_vector_path(inst: &Instance) -> Instance {
    Instance::from_triples(inst.items().iter().map(|it| {
        let v = SizeVec::from_sizes(&[it.size.primary()]).expect("nonzero scalar");
        (it.arrival, it.duration(), v)
    }))
    .expect("rebuild preserves validity")
}

/// The scalar replicated into all `d` dimensions.
fn diagonal_lift(inst: &Instance, d: usize) -> Instance {
    Instance::from_triples(inst.items().iter().map(|it| {
        let lifted = vec![it.size.primary(); d];
        let v = SizeVec::from_sizes(&lifted).expect("d is in range");
        (it.arrival, it.duration(), v)
    }))
    .expect("lift preserves validity")
}

/// D = 1 `SizeVec` runs are bit-identical to scalar runs — events,
/// assignment, cost, metrics — for every algorithm in the registry.
#[test]
fn d1_sizevec_is_bit_identical_to_scalar_for_every_registry_algorithm() {
    let scalar = scalar_instance();
    let vector = via_vector_path(&scalar);
    assert_eq!(
        scalar.items(),
        vector.items(),
        "construction already differs"
    );
    for &name in registry_names() {
        let mut scalar_events = VecSink::new();
        let mut vector_events = VecSink::new();
        let a = engine::run_with_sink(
            &scalar,
            by_name(name).expect("registry"),
            &mut scalar_events,
        )
        .expect("scalar run");
        let b = engine::run_with_sink(
            &vector,
            by_name(name).expect("registry"),
            &mut vector_events,
        )
        .expect("vector run");
        assert_eq!(a.assignment, b.assignment, "{name}: assignment diverged");
        assert_eq!(a.cost, b.cost, "{name}: cost diverged");
        assert_eq!(a.bins_opened, b.bins_opened, "{name}: bins diverged");
        assert_eq!(a.metrics, b.metrics, "{name}: metrics diverged");
        assert_eq!(
            scalar_events.events, vector_events.events,
            "{name}: event streams diverged"
        );
    }
}

/// A diagonal lift packs exactly like its scalar original at every
/// D — same placements, same cost — since each dimension imposes the
/// same constraint. (Event streams differ only in the size payloads.)
#[test]
fn diagonal_lift_packs_identically_at_every_dimension() {
    let scalar = scalar_instance();
    for d in 2..=dbp_core::MAX_DIMS {
        let lifted = diagonal_lift(&scalar, d);
        assert_eq!(lifted.dims(), d);
        for &name in registry_names() {
            let a = engine::run(&scalar, by_name(name).expect("registry")).expect("scalar run");
            let b = engine::run(&lifted, by_name(name).expect("registry")).expect("lifted run");
            assert_eq!(
                a.assignment, b.assignment,
                "{name}@D={d}: assignment diverged"
            );
            assert_eq!(a.cost, b.cost, "{name}@D={d}: cost diverged");
            assert_eq!(a.bins_opened, b.bins_opened, "{name}@D={d}: bins diverged");
        }
    }
}

/// Per-dimension load conservation on a genuinely vector (anti-correlated
/// CPU/mem) workload, with seeded bin crashes and an armed recourse
/// budget both churning residents mid-run: the auditor mirrors every
/// placement/departure/displacement/migration per dimension and
/// cross-checks the three cost ledgers at the end.
#[test]
fn per_dimension_conservation_survives_chaos_and_recourse() {
    let inst = vm_anti_correlated(&VmConfig::new(300, 900).dims(2), 7);
    assert_eq!(inst.dims(), 2, "workload should be two-dimensional");
    let budget = RecourseBudget::parse("amortized=250").expect("spec parses");
    for name in ["amortized:first-fit", "rod:best-fit"] {
        let mut auditor = InvariantAuditor::new();
        auditor.expect_budget(budget);
        let res = engine::run_with_config(
            &inst,
            by_name(name).expect("registry"),
            SimConfig {
                failures: FailurePlan::seeded(0.4, 11, dbp_core::Dur(50)),
                retry: RetryPolicy::Fixed(dbp_core::Dur(2)),
                recourse: budget,
            },
            &mut auditor,
        )
        .expect("chaos run");
        assert!(
            res.resilience.bin_failures > 0,
            "{name}: plan injected no failures — test lost its teeth"
        );
        auditor
            .verify_result(&res)
            .unwrap_or_else(|v| panic!("{name}: {v}"));
    }
}

/// Every event of a 3-dimensional chaos run survives the JSONL codec
/// verbatim, and scalar runs keep emitting scalar `size` payloads (no
/// arrays), so recorded D = 1 traces replay byte-for-byte.
#[test]
fn event_codec_round_trips_vector_sizes() {
    let inst = vm_anti_correlated(&VmConfig::new(200, 600).dims(3), 9);
    assert_eq!(inst.dims(), 3);
    let mut sink = VecSink::new();
    engine::run_with_config(
        &inst,
        by_name("first-fit").expect("registry"),
        SimConfig::crashing(
            FailurePlan::seeded(0.3, 5, dbp_core::Dur(40)),
            RetryPolicy::Immediate,
        ),
        &mut sink,
    )
    .expect("chaos run");
    let mut saw_vector_size = false;
    for ev in &sink.events {
        let line = event_to_json(ev);
        let back = event_from_json(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
        assert_eq!(*ev, back, "codec round-trip diverged on {line}");
        if let EngineEvent::Arrival { size, .. } = ev {
            saw_vector_size |= size.dims_used() > 1;
        }
    }
    assert!(saw_vector_size, "no multi-dimensional arrival exercised");

    // Scalar runs stay on the scalar wire shape.
    let mut scalar_sink = VecSink::new();
    engine::run_with_sink(
        &scalar_instance(),
        by_name("first-fit").expect("registry"),
        &mut scalar_sink,
    )
    .expect("scalar run");
    for ev in &scalar_sink.events {
        if let EngineEvent::Arrival { .. } | EngineEvent::Departure { .. } = ev {
            let line = event_to_json(ev);
            assert!(
                !line.contains('['),
                "scalar event leaked an array payload: {line}"
            );
            assert_eq!(event_from_json(&line).expect("parses"), *ev);
        }
    }
}
