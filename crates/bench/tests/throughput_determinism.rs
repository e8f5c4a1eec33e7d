//! Determinism battery for the throughput harness (ISSUE 6 satellite):
//! the pinned workload must produce bit-identical `RunMetrics` and event
//! streams regardless of sweep thread count or attached auditor, and the
//! resident-list rewrite of `pop_crash` must preserve the displacement
//! event order of the old full-table scan.

use dbp_bench::sweep::{self, SweepOptions};
use dbp_bench::throughput::{drive_events, drive_with_sink, Config, Workload};
use dbp_core::audit::InvariantAuditor;
use dbp_core::bin_state::BinId;
use dbp_core::item::ItemId;
use dbp_core::trace::{EngineEvent, VecSink};

const ITEMS: usize = 4_000;

/// Same seed ⇒ bit-identical metrics, cost, assignment and event stream
/// when the drive is replicated across sweep worker pools of 1 and 8
/// threads (per-replica work is single-threaded; the sweep must neither
/// reorder nor perturb anything).
#[test]
fn same_seed_same_results_across_thread_counts() {
    for config in [Config::AuditorOff, Config::ChaosOn] {
        let w = Workload::pinned(ITEMS);
        let inst = w.instance();
        let runs: Vec<_> = [1usize, 8]
            .iter()
            .map(|&threads| {
                let idx: Vec<usize> = (0..threads).collect();
                let opts = SweepOptions::seeded(w.seed).with_threads(threads);
                let mut replicas =
                    sweep::parallel_map_with(&idx, opts, |_| drive_events(&inst, config));
                // Replicas within one pool already agree; keep the first.
                replicas.swap_remove(0)
            })
            .collect();
        let (r1, e1) = &runs[0];
        let (r8, e8) = &runs[1];
        assert_eq!(r1.metrics, r8.metrics, "{config}: metrics diverged");
        assert_eq!(r1.cost, r8.cost, "{config}: cost diverged");
        assert_eq!(
            r1.assignment, r8.assignment,
            "{config}: assignment diverged"
        );
        assert_eq!(e1.events, e8.events, "{config}: event stream diverged");
    }
}

/// Attaching the invariant auditor must not change what the engine does:
/// metrics, cost, assignment and the event stream are identical with the
/// auditor on and off (the auditor only *reads* the store).
#[test]
fn auditor_on_off_is_bit_identical() {
    for config in [Config::AuditorOff, Config::ChaosOn] {
        let inst = Workload::pinned(ITEMS).instance();
        let (plain, plain_events) = drive_events(&inst, config);

        // Auditor attached via a (VecSink, InvariantAuditor) tee.
        let mut events = VecSink::new();
        let mut auditor = InvariantAuditor::new();
        let mut tee = (&mut events, &mut auditor);
        let audited = drive_with_sink(&inst, config.sim(), &mut tee);
        auditor.verify_result(&audited).expect("clean audit");

        assert_eq!(plain.metrics, audited.metrics, "{config}: metrics diverged");
        assert_eq!(plain.cost, audited.cost, "{config}: cost diverged");
        assert_eq!(
            plain.assignment, audited.assignment,
            "{config}: assignment diverged"
        );
        assert_eq!(
            plain_events.events, events.events,
            "{config}: event stream diverged"
        );
    }
}

/// Regression pin for the resident-list `pop_crash` rewrite: within every
/// crash, `ItemDisplaced` events must name exactly the bin's current
/// residents in ascending item id — the order the old all-items scan
/// produced. The oracle reconstructs per-bin residency from the event
/// stream alone.
#[test]
fn pop_crash_event_order_is_ascending_residents() {
    let inst = Workload::pinned(20_000).instance();
    let (result, sink) = drive_events(&inst, Config::ChaosOn);
    assert!(
        result.resilience.bin_failures > 0,
        "chaos config must land crashes for the oracle to check anything"
    );

    // Residency oracle: replay placements and departures.
    let mut resident_bin: Vec<Option<BinId>> = Vec::new();
    let mut displaced_run: Vec<ItemId> = Vec::new();
    let mut checked_crashes = 0u64;
    for ev in &sink.events {
        match *ev {
            EngineEvent::Placed { item, bin, .. } => {
                let idx = item.index();
                if resident_bin.len() <= idx {
                    resident_bin.resize(idx + 1, None);
                }
                resident_bin[idx] = Some(bin);
            }
            EngineEvent::Departure { item, .. } => {
                resident_bin[item.index()] = None;
            }
            EngineEvent::ItemDisplaced { item, bin, .. } => {
                assert_eq!(
                    resident_bin[item.index()],
                    Some(bin),
                    "displaced item {item} was not resident in {bin}"
                );
                resident_bin[item.index()] = None;
                displaced_run.push(item);
            }
            EngineEvent::BinFailed { bin, .. } => {
                // The displacement run since the last event block must be
                // (a) ascending and (b) exactly the residents this bin
                // held (all now cleared by the loop above).
                assert!(
                    displaced_run.windows(2).all(|w| w[0] < w[1]),
                    "crash of {bin}: displacements out of ascending order: {displaced_run:?}"
                );
                assert!(
                    !displaced_run.is_empty(),
                    "crash of {bin} displaced nothing"
                );
                assert!(
                    resident_bin.iter().all(|&b| b != Some(bin)),
                    "crash of {bin} left residents behind"
                );
                displaced_run.clear();
                checked_crashes += 1;
            }
            _ => {}
        }
    }
    assert_eq!(
        checked_crashes, result.resilience.bin_failures,
        "every crash checked"
    );
}
