//! Failure injection: deliberately broken algorithms must be caught by
//! the engine (never silently corrupting the accounting), and deliberately
//! corrupted assignments must be caught by the auditor. These tests pin
//! the trust boundary the whole experiment suite rests on.

use clairvoyant_dbp::core::{
    audit, engine, BinId, Dur, EngineError, Instance, Item, OnlineAlgorithm, Placement, SimView,
    Size, Time, VerifyError,
};
use clairvoyant_dbp::core::{NoopSink, SimConfig};

fn sz(n: u64, d: u64) -> Size {
    Size::from_ratio(n, d)
}

fn busy_instance() -> Instance {
    Instance::from_triples([
        (Time(0), Dur(10), sz(2, 3)),
        (Time(1), Dur(5), sz(2, 3)),
        (Time(2), Dur(9), sz(2, 3)),
        (Time(20), Dur(2), sz(1, 2)),
    ])
    .unwrap()
}

/// Always points at a bin id that was never opened.
struct PhantomBin;
impl OnlineAlgorithm for PhantomBin {
    fn name(&self) -> &str {
        "phantom"
    }
    fn on_arrival(&mut self, _v: &SimView<'_>, _i: &Item) -> Placement {
        Placement::Existing(BinId(999))
    }
    fn reset(&mut self) {}
}

/// Opens a bin for the first item, then keeps stuffing it forever.
struct Hoarder;
impl OnlineAlgorithm for Hoarder {
    fn name(&self) -> &str {
        "hoarder"
    }
    fn on_arrival(&mut self, v: &SimView<'_>, _i: &Item) -> Placement {
        if v.open_count() == 0 {
            Placement::OpenNew
        } else {
            Placement::Existing(BinId(0))
        }
    }
    fn reset(&mut self) {}
}

/// Remembers the first bin it opened and tries to reuse it after closure.
struct Necromancer {
    first: Option<BinId>,
}
impl OnlineAlgorithm for Necromancer {
    fn name(&self) -> &str {
        "necromancer"
    }
    fn on_arrival(&mut self, v: &SimView<'_>, _i: &Item) -> Placement {
        match self.first {
            None => {
                self.first = Some(v.next_bin_id());
                Placement::OpenNew
            }
            Some(b) => Placement::Existing(b),
        }
    }
    fn reset(&mut self) {
        self.first = None;
    }
}

#[test]
fn phantom_bin_rejected() {
    let err = engine::run(&busy_instance(), PhantomBin).unwrap_err();
    assert!(matches!(
        err,
        EngineError::BinNotOpen {
            bin: BinId(999),
            ..
        }
    ));
}

#[test]
fn overflow_rejected_at_the_exact_item() {
    let err = engine::run(&busy_instance(), Hoarder).unwrap_err();
    match err {
        EngineError::CapacityExceeded { item, bin, at } => {
            assert_eq!(bin, BinId(0));
            assert_eq!(item.index(), 1, "second 2/3 item overflows");
            assert_eq!(at, Time(1));
        }
        other => panic!("wrong error: {other}"),
    }
}

#[test]
fn closed_bin_reuse_rejected() {
    // Two items with a gap: the first bin closes before the second item.
    let inst =
        Instance::from_triples([(Time(0), Dur(2), sz(1, 2)), (Time(5), Dur(2), sz(1, 2))]).unwrap();
    let err = engine::run(&inst, Necromancer { first: None }).unwrap_err();
    assert!(matches!(
        err,
        EngineError::BinNotOpen {
            bin: BinId(0),
            at: Time(5),
            ..
        }
    ));
}

#[test]
fn interactive_time_travel_rejected() {
    use clairvoyant_dbp::algos::FirstFit;
    use clairvoyant_dbp::core::InteractiveSim;
    let mut sim = InteractiveSim::new(FirstFit::new(), 0, SimConfig::default(), NoopSink);
    sim.arrive_at(Time(10), Dur(1), sz(1, 2)).unwrap();
    let err = sim.arrive_at(Time(9), Dur(1), sz(1, 2)).unwrap_err();
    assert!(matches!(err, EngineError::TimeRegression { .. }));
}

#[test]
fn auditor_catches_corrupted_assignments() {
    let inst = busy_instance();
    let res = engine::run(&inst, clairvoyant_dbp::algos::FirstFit::new()).unwrap();

    // Corruption 1: co-locate two items that overflow.
    let mut bad = res.assignment.clone();
    bad[1] = bad[0];
    assert!(matches!(
        audit(&inst, &bad),
        Err(VerifyError::CapacityViolated { .. })
    ));

    // Corruption 2: drop an item.
    let short = &res.assignment[..inst.len() - 1];
    assert!(matches!(
        audit(&inst, short),
        Err(VerifyError::MissingItem { .. })
    ));

    // Corruption 3: reuse a closed bin.
    let gap =
        Instance::from_triples([(Time(0), Dur(2), sz(1, 4)), (Time(5), Dur(2), sz(1, 4))]).unwrap();
    assert!(matches!(
        audit(&gap, &[BinId(0), BinId(0)]),
        Err(VerifyError::BinReusedAfterClose { .. })
    ));
}

#[test]
fn failure_leaves_no_partial_result() {
    // `run` returns Err, not a half-finished PackingResult — the experiment
    // harness treats any Err as a hard failure.
    let result = engine::run(&busy_instance(), PhantomBin);
    assert!(result.is_err());
}

/// An algorithm that behaves until item N, then misbehaves: errors must
/// carry the exact failing item so bugs are debuggable.
#[test]
fn late_failure_is_precisely_attributed() {
    struct LateSaboteur;
    impl OnlineAlgorithm for LateSaboteur {
        fn name(&self) -> &str {
            "late-saboteur"
        }
        fn on_arrival(&mut self, v: &SimView<'_>, item: &Item) -> Placement {
            if item.id.index() == 3 {
                return Placement::Existing(BinId(4242));
            }
            match v.first_fit(item.size) {
                Some(b) => Placement::Existing(b),
                None => Placement::OpenNew,
            }
        }
        fn reset(&mut self) {}
    }
    let err = engine::run(&busy_instance(), LateSaboteur).unwrap_err();
    match err {
        EngineError::BinNotOpen { item, .. } => assert_eq!(item.index(), 3),
        other => panic!("wrong error: {other}"),
    }
}
