//! The recourse differential battery (DESIGN.md §15): budgeted repacking
//! must be a *strict extension* of the irrevocable model.
//!
//! Three properties, each over arbitrary sampled instances:
//!
//! 1. **Budget-zero bit-identity** — wrapping any registry algorithm in
//!    `rod:` or `amortized:` and running it under [`RecourseBudget::None`]
//!    produces the *same event stream, assignment and cost* as the
//!    unwrapped base. The engine's `None` short-circuit plus the wrappers'
//!    pass-through forwarding make this hold by construction; the battery
//!    re-proves it empirically against every algorithm.
//! 2. **Consolidation never hurts** — under `unlimited` budget `rod:X`
//!    and `amortized:X` run audited for every registry base X, and the
//!    `rod:first-fit` consolidator's cost is ≤ plain First-Fit's on every
//!    instance. This is the clairvoyant safety rule doing its job: an item
//!    only moves into a bin that already outlives it, so a migration can
//!    close a bin early but never extend one.
//! 3. **Trace round-trip** — arbitrary `ItemMigrated` events survive the
//!    JSONL codec bit-for-bit (the serve daemon and `dbp-trace replay`
//!    both rely on this).

use clairvoyant_dbp::algos;
use clairvoyant_dbp::core::trace::{parse_jsonl, write_event_json, EngineEvent, VecSink};
use clairvoyant_dbp::core::SimConfig;
use clairvoyant_dbp::core::{
    engine, BinId, Dur, Instance, InstanceBuilder, InvariantAuditor, ItemId, Load, RecourseBudget,
    Size, Time,
};
use proptest::prelude::*;

/// Strategy: an arbitrary instance of up to `max_items` items with tick
/// arrivals < 256, durations ≤ 64 and sizes in (0, 1].
fn arb_instance(max_items: usize) -> impl Strategy<Value = Instance> {
    prop::collection::vec((0u64..256, 1u64..=64, 1u64..=100), 1..=max_items).prop_map(|triples| {
        let mut b = InstanceBuilder::with_capacity(triples.len());
        for (t, d, s) in triples {
            b.push(Time(t), Dur(d), Size::from_ratio(s, 100));
        }
        b.build().expect("strategy items are valid")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Property 1: with no budget, `rod:X` and `amortized:X` are X — same
    /// events, same placements, same cost, empty recourse ledger — for
    /// every base algorithm in the registry.
    #[test]
    fn budget_none_is_bit_identical_to_the_base(inst in arb_instance(60)) {
        for base in algos::registry_names() {
            if base.starts_with("rod:") || base.starts_with("amortized:") {
                continue; // don't double-wrap the registry's own wrapper entries
            }
            let mut base_sink = VecSink::new();
            let base_res = engine::run_with_sink(
                &inst,
                algos::by_name(base).expect("registry"),
                &mut base_sink,
            )
            .expect("legal run");
            for prefix in ["rod:", "amortized:"] {
                let wrapped = format!("{prefix}{base}");
                let mut sink = VecSink::new();
                let res = engine::run_with_config(
                    &inst,
                    algos::by_name(&wrapped).expect("wrappers resolve recursively"),
                    SimConfig::repacking(RecourseBudget::None),
                    &mut sink,
                )
                .expect("legal run");
                prop_assert_eq!(
                    &sink.events, &base_sink.events,
                    "{} event stream diverged from {}", &wrapped, base
                );
                prop_assert_eq!(
                    &res.assignment, &base_res.assignment,
                    "{} placements diverged", &wrapped
                );
                prop_assert_eq!(res.cost, base_res.cost, "{} cost diverged", &wrapped);
                prop_assert!(!res.recourse.any(), "{} ledger moved without budget", &wrapped);
            }
        }
    }

    /// Property 2: unlimited-budget consolidation is never worse than the
    /// base — and the whole run passes the auditor with the budget
    /// replayed from the event stream. Both wrappers run over *every*
    /// registry base, so migrations must never leave a base algorithm
    /// deciding on stale bin state.
    #[test]
    fn unlimited_consolidation_never_costs_more(inst in arb_instance(60)) {
        for base in algos::registry_names() {
            if base.starts_with("rod:") || base.starts_with("amortized:") {
                continue;
            }
            for prefix in ["rod:", "amortized:"] {
                let wrapped = format!("{prefix}{base}");
                let mut auditor = InvariantAuditor::new();
                auditor.expect_budget(RecourseBudget::Unlimited);
                let res = engine::run_with_config(
                    &inst,
                    algos::by_name(&wrapped).expect("wrappers resolve recursively"),
                    SimConfig::repacking(RecourseBudget::Unlimited),
                    &mut auditor,
                );
                let res = match res {
                    Ok(res) => res,
                    Err(e) => return Err(TestCaseError::fail(format!("{wrapped}: {e}"))),
                };
                if let Err(v) = auditor.verify_result(&res) {
                    return Err(TestCaseError::fail(format!("{wrapped} audit: {v}")));
                }
                if wrapped == "rod:first-fit" {
                    let plain = engine::run(&inst, algos::by_name(base).expect("registry"))
                        .expect("legal run");
                    prop_assert!(
                        res.cost <= plain.cost,
                        "consolidation raised the cost: {} > {}",
                        res.cost,
                        plain.cost
                    );
                }
            }
        }
    }

    /// Property 3: `ItemMigrated` survives the JSONL codec exactly.
    #[test]
    fn migration_events_round_trip_through_jsonl(
        items in prop::collection::vec(
            (0u32..1000, 0u64..10_000, 0u32..64, 0u32..64, 1u64..=100, 0u64..=100),
            1..32,
        )
    ) {
        let events: Vec<EngineEvent> = items
            .into_iter()
            .map(|(item, at, from, to, s, l)| EngineEvent::ItemMigrated {
                item: ItemId(item),
                at: Time(at),
                from: BinId(from),
                to: BinId(to),
                size: Size::from_ratio(s, 100).into(),
                load_after: Load::from_raw(Size::from_ratio(l.max(1), 100).raw()).into(),
            })
            .collect();
        let mut text = String::new();
        for ev in &events {
            write_event_json(&mut text, ev);
            text.push('\n');
        }
        let parsed = parse_jsonl(&text).expect("codec output parses");
        prop_assert_eq!(parsed, events);
    }
}
