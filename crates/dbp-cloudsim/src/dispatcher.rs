//! The dispatcher: sessions → servers through any DBP online algorithm.
//!
//! The central subtlety is *noisy clairvoyance*: the algorithm decides
//! placements from **predicted** departures while the world runs on
//! **actual** ones. [`PredictedLens`] wraps any
//! [`OnlineAlgorithm`] and swaps each item's departure for its prediction
//! on the way in — consistently in `on_arrival`, `on_departure` and the
//! departure booked into each bin, so stateful algorithms (HA's per-type
//! loads) stay internally coherent and departure-aware ones never read
//! the actual future, even when reality disagrees with the forecast.
//! Capacity can never be violated by a wrong prediction (sizes are exact);
//! only the *cost* degrades — which is exactly what the
//! `prediction-noise` experiment measures.

use std::collections::HashMap;

use dbp_core::algorithm::{OnlineAlgorithm, Placement, SimView};
use dbp_core::bin_state::BinId;
use dbp_core::cost::Area;
use dbp_core::engine::{self, RunMetrics};
use dbp_core::error::EngineError;
use dbp_core::instance::{Instance, InstanceBuilder};
use dbp_core::item::{Item, ItemId};
use dbp_core::time::Time;
use dbp_core::trace::{EventSink, NoopSink};

use crate::session::{SessionRequest, Tier};

/// Wraps an algorithm so it sees predicted departures instead of actual
/// ones. `predictions[item.id]` must hold the predicted *departure time*
/// for every item the engine will deliver.
pub struct PredictedLens<A> {
    inner: A,
    predictions: Vec<Time>,
    /// The predicted view of each in-flight item, replayed on departure.
    in_flight: HashMap<ItemId, Item>,
}

impl<A: OnlineAlgorithm> PredictedLens<A> {
    /// Wraps `inner`; `predictions` is indexed by item id and must cover
    /// all `expected_items` ids the engine will deliver. A short table is
    /// rejected up front with [`EngineError::MissingPrediction`] naming
    /// the first uncovered item — instead of an index panic mid-run.
    pub fn new(
        inner: A,
        predictions: Vec<Time>,
        expected_items: usize,
    ) -> Result<PredictedLens<A>, EngineError> {
        if predictions.len() < expected_items {
            return Err(EngineError::MissingPrediction {
                item: ItemId(predictions.len() as u32),
            });
        }
        Ok(PredictedLens {
            inner,
            predictions,
            in_flight: HashMap::new(),
        })
    }

    /// The wrapped algorithm.
    pub fn inner(&self) -> &A {
        &self.inner
    }

    fn predicted_view(&self, item: &Item) -> Item {
        // Ids past the table are engine-synthesized (re-admission clones
        // under fault injection carry fresh ids); for those the engine's
        // own departure is the best available forecast.
        let predicted_departure = self
            .predictions
            .get(item.id.index())
            .copied()
            .unwrap_or(item.departure);
        Item::new(item.id, item.arrival, predicted_departure, item.size)
    }
}

impl<A: OnlineAlgorithm> OnlineAlgorithm for PredictedLens<A> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_arrival(&mut self, view: &SimView<'_>, item: &Item) -> Placement {
        let seen = self.predicted_view(item);
        self.in_flight.insert(item.id, seen);
        self.inner.on_arrival(view, &seen)
    }

    fn on_departure(&mut self, item: &Item, bin: BinId, bin_closed: bool) {
        // Forward the SAME view the algorithm saw at arrival, so its
        // internal bookkeeping (HA's type loads) balances.
        let seen = self.in_flight.remove(&item.id).unwrap_or(*item);
        self.inner.on_departure(&seen, bin, bin_closed);
    }

    fn planned_departure(&self, item: &Item) -> Time {
        // Bins are booked with the forecast the algorithm planned around,
        // so a departure-aware choice never reads the actual future.
        self.predicted_view(item).departure
    }

    fn on_compact(&mut self, retained: &[ItemId], old_len: usize) {
        // Re-key the in-flight views to the new dense id space so the
        // matching `on_departure` still finds them.
        let mut in_flight = HashMap::with_capacity(self.in_flight.len());
        for (new, &old) in retained.iter().enumerate() {
            if let Some(seen) = self.in_flight.remove(&old) {
                let id = ItemId(new as u32);
                in_flight.insert(id, Item::new(id, seen.arrival, seen.departure, seen.size));
            }
        }
        self.in_flight = in_flight;
        // Re-index the prediction table: retained rows already arrived (a
        // placeholder suffices — only arrivals read the table), while
        // forecasts for items yet to arrive shift from `old_len..` down to
        // `retained.len()..`, keeping future ids aligned.
        if !self.predictions.is_empty() {
            let tail: Vec<Time> = self
                .predictions
                .get(old_len..)
                .map(|t| t.to_vec())
                .unwrap_or_default();
            let mut predictions = Vec::with_capacity(retained.len() + tail.len());
            for &old in retained {
                predictions.push(
                    self.predictions
                        .get(old.index())
                        .copied()
                        .unwrap_or(Time(u64::MAX)),
                );
            }
            predictions.extend(tail);
            self.predictions = predictions;
        }
        self.inner.on_compact(retained, old_len);
    }

    fn reset(&mut self) {
        self.in_flight.clear();
        self.inner.reset();
    }
}

/// The result of dispatching a batch of sessions.
#[derive(Debug, Clone)]
pub struct DispatchReport {
    /// Total server usage time (the bill's physical quantity).
    pub bill: Area,
    /// Number of servers ever powered on.
    pub servers_used: usize,
    /// Peak simultaneously-on servers.
    pub peak_servers: usize,
    /// Which server each session landed on, indexed by the **caller's
    /// input order** (`placements[i]` answers for `sessions[i]`, however
    /// arrivals were interleaved).
    pub placements: Vec<BinId>,
    /// The instance actually played (actual durations), in the engine's
    /// arrival-sorted item order.
    pub instance: Instance,
    /// For each instance item id, the caller's input index it came from —
    /// the permutation connecting [`DispatchReport::instance`] to
    /// [`DispatchReport::placements`].
    pub arrival_order: Vec<usize>,
    /// The tier each instance item was requested at, in instance order
    /// (recorded, not recovered from sizes — custom tiers may collide with
    /// named ones).
    pub tiers: Vec<Tier>,
    /// Mean relative prediction error over the batch.
    pub mean_prediction_error: f64,
    /// Engine execution counters for the dispatch run (placement paths,
    /// tree/heap work, events emitted).
    pub metrics: RunMetrics,
}

impl DispatchReport {
    /// `d(σ)/bill`: how much of the paid server-time carried traffic.
    /// Always `≤ 1` for a correct engine — an over-unity value means the
    /// accounting double-served demand, which the invariant auditor flags
    /// (and a debug build asserts) rather than clamping out of sight.
    pub fn utilisation(&self) -> f64 {
        let u = self.instance.demand().ratio_to(self.bill);
        debug_assert!(u <= 1.0, "served demand exceeds the bill: {u}");
        u
    }

    /// The assignment in the instance's item order (what
    /// [`dbp_core::assignment::audit`] expects), reconstructed from the
    /// input-ordered [`DispatchReport::placements`].
    pub fn engine_assignment(&self) -> Vec<BinId> {
        self.arrival_order
            .iter()
            .map(|&idx| self.placements[idx])
            .collect()
    }

    /// Per-tier traffic breakdown: `(tier, sessions, demand share of the
    /// total d(σ))` — the named tiers in order, then custom tiers in
    /// first-appearance order. Keyed on each session's **recorded** tier,
    /// so a custom size colliding with a named tier's stays attributed to
    /// the custom tier.
    pub fn tier_breakdown(&self) -> Vec<(Tier, usize, f64)> {
        let total = self.instance.demand().as_bin_ticks().max(f64::MIN_POSITIVE);
        let mut order = vec![Tier::Low, Tier::Standard, Tier::Premium];
        for t in &self.tiers {
            if matches!(t, Tier::Custom(_)) && !order.contains(t) {
                order.push(*t);
            }
        }
        order
            .into_iter()
            .map(|tier| {
                let mut count = 0usize;
                let mut demand = 0.0;
                for (it, &t) in self.instance.items().iter().zip(&self.tiers) {
                    if t == tier {
                        count += 1;
                        demand += it.size.max_size().as_f64() * it.duration().ticks() as f64;
                    }
                }
                (tier, count, demand / total)
            })
            .collect()
    }
}

/// Dispatches sessions through `algo`.
///
/// Sessions are served in arrival order (ties: input order). The
/// algorithm sees predicted durations; the report reflects actual ones.
///
/// ```
/// use dbp_cloudsim::{dispatch, SessionRequest, Tier};
/// use dbp_core::{Time, Dur};
///
/// let sessions = vec![
///     SessionRequest::exact(1, Time(0), Dur(30), Tier::Premium),
///     SessionRequest::exact(2, Time(0), Dur(30), Tier::Premium),
/// ];
/// let report = dispatch(&sessions, dbp_algos::FirstFit::new()).unwrap();
/// assert_eq!(report.servers_used, 1, "two premium sessions share a server");
/// assert_eq!(report.bill.as_bin_ticks(), 30.0);
/// ```
pub fn dispatch<A: OnlineAlgorithm>(
    sessions: &[SessionRequest],
    algo: A,
) -> Result<DispatchReport, EngineError> {
    dispatch_with_sink(sessions, algo, NoopSink)
}

/// [`dispatch`] with an [`EventSink`] attached to the underlying engine
/// run: every session arrival, server power-on/off, and placement comes
/// out as a structured engine event (attach a JSONL sink for offline
/// diffing, or `dbp_core::audit::InvariantAuditor` to cross-check the
/// dispatch).
pub fn dispatch_with_sink<A: OnlineAlgorithm, S: EventSink>(
    sessions: &[SessionRequest],
    algo: A,
    sink: S,
) -> Result<DispatchReport, EngineError> {
    let mut ordered: Vec<(usize, &SessionRequest)> = sessions.iter().enumerate().collect();
    ordered.sort_by_key(|&(_, s)| s.arrival);

    let mut builder = InstanceBuilder::with_capacity(ordered.len());
    let mut predictions = Vec::with_capacity(ordered.len());
    let mut arrival_order = Vec::with_capacity(ordered.len());
    let mut tiers = Vec::with_capacity(ordered.len());
    let mut err_sum = 0.0;
    for &(idx, s) in &ordered {
        builder.push(s.arrival, s.actual, s.tier.size());
        predictions.push(s.arrival + s.predicted);
        arrival_order.push(idx);
        tiers.push(s.tier);
        err_sum += s.prediction_error();
    }
    let instance = builder.build().expect("sessions are valid items");

    let lens = PredictedLens::new(algo, predictions, instance.len())?;
    let result = engine::run_with_sink(&instance, lens, sink)?;
    // Back-permute the arrival-ordered engine assignment to the caller's
    // input order: placements[i] answers for sessions[i].
    let mut placements = vec![BinId(0); sessions.len()];
    for (pos, &idx) in arrival_order.iter().enumerate() {
        placements[idx] = result.assignment[pos];
    }
    Ok(DispatchReport {
        bill: result.cost,
        servers_used: result.bins_opened,
        peak_servers: result.max_open,
        placements,
        mean_prediction_error: if ordered.is_empty() {
            0.0
        } else {
            err_sum / ordered.len() as f64
        },
        instance,
        arrival_order,
        tiers,
        metrics: result.metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{SessionRequest, Tier};
    use dbp_algos::{DepartureAwareFit, FirstFit, HybridAlgorithm};
    use dbp_core::time::Dur;

    fn sessions_exact() -> Vec<SessionRequest> {
        vec![
            SessionRequest::exact(1, Time(0), Dur(2), Tier::Premium),
            SessionRequest::exact(2, Time(0), Dur(64), Tier::Premium),
            SessionRequest::exact(3, Time(0), Dur(64), Tier::Premium),
        ]
    }

    #[test]
    fn oracle_dispatch_matches_plain_engine() {
        let report = dispatch(sessions_exact(), HybridAlgorithm::new()).unwrap();
        let plain = engine::run(&report.instance, HybridAlgorithm::new()).unwrap();
        assert_eq!(report.bill, plain.cost);
        assert_eq!(report.engine_assignment(), plain.assignment);
        // Input already sorted by arrival: both orders coincide here.
        assert_eq!(report.placements, plain.assignment);
        assert_eq!(report.mean_prediction_error, 0.0);
    }

    #[test]
    fn placements_follow_caller_input_order_with_tied_arrivals() {
        // Input deliberately NOT in arrival order, with a tie at t=0
        // across tiers: the report used to return arrival-sorted
        // placements, silently permuting the caller's indices.
        let sessions = vec![
            SessionRequest::exact(1, Time(5), Dur(10), Tier::Premium),
            SessionRequest::exact(2, Time(0), Dur(10), Tier::Low),
            SessionRequest::exact(3, Time(0), Dur(10), Tier::Premium),
        ];
        let report = dispatch(sessions, FirstFit::new()).unwrap();
        let plain = engine::run(&report.instance, FirstFit::new()).unwrap();
        // Arrival-sorted (stable on the t=0 tie) instance order is
        // [input 1, input 2, input 0].
        assert_eq!(report.arrival_order, vec![1, 2, 0]);
        assert_eq!(report.engine_assignment(), plain.assignment);
        assert_eq!(report.placements[1], plain.assignment[0]);
        assert_eq!(report.placements[2], plain.assignment[1]);
        assert_eq!(report.placements[0], plain.assignment[2]);
        let audit =
            dbp_core::assignment::audit(&report.instance, &report.engine_assignment()).unwrap();
        assert_eq!(audit.cost, report.bill);
    }

    #[test]
    fn short_prediction_table_is_a_typed_error() {
        match PredictedLens::new(FirstFit::new(), vec![Time(5)], 3) {
            Err(EngineError::MissingPrediction { item }) => assert_eq!(item, ItemId(1)),
            Err(e) => panic!("wrong error: {e}"),
            Ok(_) => panic!("short prediction table accepted"),
        }
    }

    #[test]
    fn dispatch_traces_sessions_and_surfaces_metrics() {
        use dbp_core::audit::InvariantAuditor;
        use dbp_core::trace::VecSink;

        let sessions = sessions_exact();
        let mut sink = VecSink::new();
        let report = dispatch_with_sink(&sessions, FirstFit::new(), &mut sink).unwrap();

        // Every session arrival shows up in both the counters and the trace.
        assert_eq!(report.metrics.arrivals, sessions.len() as u64);
        assert_eq!(
            report.metrics.fast_path_placements + report.metrics.scan_placements,
            sessions.len() as u64
        );
        assert_eq!(report.metrics.events, sink.events.len() as u64);

        // The session trace replays cleanly through the invariant auditor.
        let mut auditor = InvariantAuditor::new();
        let audited = dispatch_with_sink(&sessions, FirstFit::new(), &mut auditor).unwrap();
        assert!(auditor.violation().is_none(), "{:?}", auditor.violation());
        assert_eq!(audited.bill, report.bill);
    }

    fn dispatch(
        s: Vec<SessionRequest>,
        a: impl OnlineAlgorithm,
    ) -> Result<DispatchReport, EngineError> {
        super::dispatch(&s, a)
    }

    #[test]
    fn wrong_predictions_change_decisions_not_validity() {
        // The short session lies: it claims to be long. The departure-aware
        // dispatcher now pairs it with a long session — costing more, but
        // the packing stays valid and the bill reflects ACTUAL durations.
        let mut sessions = sessions_exact();
        sessions[0].predicted = Dur(64); // short session predicted long
        let report = dispatch(sessions, DepartureAwareFit::new()).unwrap();
        let audit =
            dbp_core::assignment::audit(&report.instance, &report.engine_assignment()).unwrap();
        assert_eq!(audit.cost, report.bill);
        assert!(report.mean_prediction_error > 0.0);
    }

    #[test]
    fn oracle_beats_lying_predictions_for_clairvoyant_algos() {
        let truth = dispatch(sessions_exact(), DepartureAwareFit::new()).unwrap();
        // Misleading forecast: the two LONG sessions claim to be short.
        let mut lied = sessions_exact();
        lied[1].predicted = Dur(2);
        lied[2].predicted = Dur(2);
        let fooled = dispatch(lied, DepartureAwareFit::new()).unwrap();
        assert!(
            truth.bill <= fooled.bill,
            "truth {} vs fooled {}",
            truth.bill,
            fooled.bill
        );
    }

    #[test]
    fn non_clairvoyant_algorithms_ignore_predictions() {
        let truth = dispatch(sessions_exact(), FirstFit::new()).unwrap();
        let mut lied = sessions_exact();
        lied[0].predicted = Dur(1000);
        let fooled = dispatch(lied, FirstFit::new()).unwrap();
        assert_eq!(truth.bill, fooled.bill, "FF never reads departures");
        assert_eq!(truth.placements, fooled.placements);
    }

    #[test]
    fn stateful_algorithms_stay_coherent_under_noise() {
        // HA's per-type load accounting must not underflow when predicted
        // and actual durations put an item in different classes.
        let mut sessions = Vec::new();
        let mut x = 5u64;
        for k in 0..200u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let actual = 1 + x % 64;
            let predicted = 1 + (x >> 17) % 64;
            sessions.push(SessionRequest {
                user: k,
                arrival: Time(k / 4),
                actual: Dur(actual),
                predicted: Dur(predicted),
                tier: Tier::Standard,
            });
        }
        let report = dispatch(sessions, HybridAlgorithm::new()).unwrap();
        let audit =
            dbp_core::assignment::audit(&report.instance, &report.engine_assignment()).unwrap();
        assert_eq!(audit.cost, report.bill);
        assert!(report.utilisation() > 0.0 && report.utilisation() <= 1.0);
    }

    #[test]
    fn tier_breakdown_partitions_sessions() {
        let sessions = vec![
            SessionRequest::exact(1, Time(0), Dur(10), Tier::Low),
            SessionRequest::exact(2, Time(0), Dur(10), Tier::Premium),
            SessionRequest::exact(3, Time(0), Dur(10), Tier::Premium),
        ];
        let report = dispatch(sessions, FirstFit::new()).unwrap();
        let breakdown = report.tier_breakdown();
        let counts: Vec<usize> = breakdown.iter().map(|&(_, c, _)| c).collect();
        assert_eq!(counts, [1, 0, 2]);
        let share_sum: f64 = breakdown.iter().map(|&(_, _, s)| s).sum();
        assert!((share_sum - 1.0).abs() < 1e-9);
        // Premium carries 8/9 of the demand (2×(1/2) vs 1×(1/8)).
        assert!((breakdown[2].2 - 8.0 / 9.0).abs() < 1e-9);
    }

    #[test]
    fn custom_tier_colliding_with_a_named_size_stays_attributed() {
        use dbp_core::size::Size;
        // Two custom sessions share Standard's exact size (1/4): a
        // size-keyed breakdown would absorb them into Standard.
        let custom = Tier::Custom(Size::from_ratio(1, 4));
        let sessions = vec![
            SessionRequest::exact(1, Time(0), Dur(10), Tier::Standard),
            SessionRequest::exact(2, Time(0), Dur(10), custom),
            SessionRequest::exact(3, Time(0), Dur(10), custom),
            SessionRequest::exact(4, Time(0), Dur(10), Tier::Premium),
        ];
        let report = dispatch(sessions, FirstFit::new()).unwrap();
        let breakdown = report.tier_breakdown();
        assert_eq!(
            breakdown
                .iter()
                .map(|&(t, c, _)| (t, c))
                .collect::<Vec<_>>(),
            vec![
                (Tier::Low, 0),
                (Tier::Standard, 1),
                (Tier::Premium, 1),
                (custom, 2),
            ]
        );
        let share_sum: f64 = breakdown.iter().map(|&(_, _, s)| s).sum();
        assert!((share_sum - 1.0).abs() < 1e-9);
        // The colliding sessions carry Standard-sized demand under the
        // custom label: 2×(1/4) vs 1×(1/4).
        assert!((breakdown[3].2 - 2.0 * breakdown[1].2).abs() < 1e-9);
    }

    #[test]
    fn report_metrics_consistent() {
        let report = dispatch(sessions_exact(), FirstFit::new()).unwrap();
        assert_eq!(report.servers_used, 2);
        assert_eq!(report.peak_servers, 2);
        assert_eq!(report.bill.as_bin_ticks(), 64.0 + 64.0);
        assert!(
            (report.utilisation() - report.instance.demand().ratio_to(report.bill)).abs() < 1e-12
        );
    }
}
