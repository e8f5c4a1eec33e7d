//! Bounded-recourse wrappers: repacking layered over any base algorithm.
//!
//! Both wrappers forward every placement decision to their base algorithm
//! untouched and add only voluntary migrations through
//! [`OnlineAlgorithm::propose_migration`], so under
//! [`RecourseBudget::None`](dbp_core::RecourseBudget::None) they are
//! bit-identical to the base (the engine never consults the hook — the
//! differential battery in `tests/recourse_differential.rs` pins this).
//!
//! Both obey the same *clairvoyant safety rule*: an item may only move
//! into a bin whose latest resident departure is no earlier than the
//! item's own, so a migration can never extend any bin's lifetime. Moves
//! can therefore only help the bins they drain — the classic greedy
//! consolidation argument from the limited-repacking literature (Gupta,
//! Krishnaswamy, Kumar & Sandeep; Feldkord et al.).
//!
//! * [`RepackOnDeparture`] spends its budget in bursts: at a departure
//!   epoch it looks for the lightest open bin whose *entire* population
//!   can be rehoused within the epoch's remaining allowance, and evacuates
//!   it — the source closes immediately and its usage-time tail is saved.
//! * [`AmortizedRepack`] spends one move at a time at *every* epoch
//!   (arrival or departure), slowly draining the lightest bin; designed
//!   for the amortized-Θ(1)-moves budgets
//!   (`amortized=<earn>` in CLI spelling) where whole-bin bursts rarely
//!   fit an epoch's allowance.

use dbp_core::algorithm::{OnlineAlgorithm, Placement, SimView};
use dbp_core::bin_state::BinId;
use dbp_core::item::{Item, ItemId};
use dbp_core::recourse::{Migration, RecourseEpoch, RecourseView};
use dbp_core::size::{MAX_DIMS, SIZE_SCALE};
use dbp_core::time::Time;

/// One step of an evacuation plan, with enough context to re-check it.
struct PlannedMove {
    item: ItemId,
    to: BinId,
}

/// Plans a full evacuation of `source`: every resident is assigned a
/// distinct slot in some *other* open bin (first-fit in opening order over
/// simulated headroom), subject to the clairvoyant safety rule. Returns
/// `None` if any resident cannot be rehoused.
fn plan_evacuation(view: &RecourseView<'_>, source: BinId) -> Option<Vec<PlannedMove>> {
    let residents = view.residents(source);
    if residents.is_empty() {
        return None;
    }
    // Snapshot the candidate targets once: (id, simulated per-dimension
    // load, latest departure among residents). Opening order is the scan
    // order.
    let mut targets: Vec<(BinId, [u64; MAX_DIMS], Time)> = view
        .sim()
        .open_bins()
        .filter(|r| r.id != source)
        .map(|r| (r.id, r.load.raws(), r.latest_departure))
        .collect();
    let mut plan = Vec::with_capacity(residents.len());
    // Rehouse the largest items first: if the big ones fit, the small ones
    // will squeeze into whatever headroom remains. Vector items rank by
    // max component (== the size at D = 1), lexicographic as tiebreak.
    let mut by_size = residents;
    by_size.sort_by_key(|&(id, size, _)| {
        (
            core::cmp::Reverse(size.max_raw()),
            core::cmp::Reverse(size),
            id,
        )
    });
    for (item, size, dep) in by_size {
        let want = size.raws();
        let slot = targets.iter_mut().find(|(_, used, latest)| {
            *latest >= dep && used.iter().zip(want).all(|(&u, c)| u + c <= SIZE_SCALE)
        })?;
        for (u, c) in slot.1.iter_mut().zip(want) {
            *u += c;
        }
        plan.push(PlannedMove { item, to: slot.0 });
    }
    Some(plan)
}

/// Greedy consolidation at departure epochs: wraps `base`, and whenever a
/// departure leaves enough allowance to empty the lightest open bin
/// entirely (see [`plan_evacuation`]), migrates its residents out so the
/// bin closes now instead of at its last departure.
///
/// Registry name: `rod:<base>` (e.g. `rod:first-fit`).
pub struct RepackOnDeparture<A> {
    base: A,
    name: String,
}

impl<A: OnlineAlgorithm> RepackOnDeparture<A> {
    /// Wraps `base` in departure-epoch consolidation.
    pub fn new(base: A) -> RepackOnDeparture<A> {
        let name = format!("rod:{}", base.name());
        RepackOnDeparture { base, name }
    }
}

impl<A: OnlineAlgorithm> OnlineAlgorithm for RepackOnDeparture<A> {
    fn name(&self) -> &str {
        &self.name
    }
    fn on_arrival(&mut self, view: &SimView<'_>, item: &Item) -> Placement {
        self.base.on_arrival(view, item)
    }
    fn on_departure(&mut self, item: &Item, bin: BinId, bin_closed: bool) {
        self.base.on_departure(item, bin, bin_closed)
    }
    fn on_compact(&mut self, retained: &[ItemId], old_len: usize) {
        self.base.on_compact(retained, old_len)
    }
    fn on_bin_compact(&mut self, old_to_new: &[BinId], new_len: usize) {
        self.base.on_bin_compact(old_to_new, new_len)
    }
    fn propose_migration(
        &mut self,
        view: &RecourseView<'_>,
        epoch: RecourseEpoch,
        moves_left: u32,
    ) -> Option<Migration> {
        if !matches!(epoch, RecourseEpoch::Departure) {
            return None;
        }
        // Recomputed from scratch at every call: after the engine applies
        // the returned move, both the source population and `moves_left`
        // shrink by one, so a plan that fit keeps fitting until the bin
        // closes. No cross-call state to corrupt.
        let source = view
            .sim()
            .open_bins()
            .min_by_key(|r| (r.load, r.id.0))
            .map(|r| r.id)?;
        let plan = plan_evacuation(view, source)?;
        if plan.len() > moves_left as usize {
            return None;
        }
        plan.first().map(|m| Migration {
            item: m.item,
            to: m.to,
        })
    }
    fn reset(&mut self) {
        self.base.reset()
    }
}

/// Amortized-Θ(1)-moves repacking in the Gupta et al. style: at every
/// epoch it spends **at most one move** — by construction, not just by
/// budget — nudging the largest rehousable resident of the lightest open
/// bin into another bin (clairvoyant safety rule applies). Under an
/// `amortized=<earn>` budget this drains doomed bins a move at a time,
/// resuming whenever the credit allows; under generous budgets it refuses
/// the extra allowance, which keeps its cost curve monotone in the budget
/// (an unconstrained one-more-move greedy is not).
///
/// Registry name: `amortized:<base>` (e.g. `amortized:first-fit`).
pub struct AmortizedRepack<A> {
    base: A,
    name: String,
    /// Whether the current epoch has not yet spent its single move. Armed
    /// by `on_arrival`/`on_departure` (the two events that open epochs),
    /// cleared by the first proposal in the epoch.
    fresh_epoch: bool,
}

impl<A: OnlineAlgorithm> AmortizedRepack<A> {
    /// Wraps `base` in one-move-per-epoch consolidation.
    pub fn new(base: A) -> AmortizedRepack<A> {
        let name = format!("amortized:{}", base.name());
        AmortizedRepack {
            base,
            name,
            fresh_epoch: false,
        }
    }
}

impl<A: OnlineAlgorithm> OnlineAlgorithm for AmortizedRepack<A> {
    fn name(&self) -> &str {
        &self.name
    }
    fn on_arrival(&mut self, view: &SimView<'_>, item: &Item) -> Placement {
        self.fresh_epoch = true;
        self.base.on_arrival(view, item)
    }
    fn on_departure(&mut self, item: &Item, bin: BinId, bin_closed: bool) {
        self.fresh_epoch = true;
        self.base.on_departure(item, bin, bin_closed)
    }
    fn on_compact(&mut self, retained: &[ItemId], old_len: usize) {
        self.base.on_compact(retained, old_len)
    }
    fn on_bin_compact(&mut self, old_to_new: &[BinId], new_len: usize) {
        self.base.on_bin_compact(old_to_new, new_len)
    }
    fn propose_migration(
        &mut self,
        view: &RecourseView<'_>,
        _epoch: RecourseEpoch,
        moves_left: u32,
    ) -> Option<Migration> {
        if moves_left == 0 || !self.fresh_epoch {
            return None;
        }
        self.fresh_epoch = false;
        let sim = view.sim();
        let source = sim
            .open_bins()
            .min_by_key(|r| (r.load, r.id.0))
            .map(|r| r.id)?;
        // Largest resident first (mirrors the evacuation order), but one
        // move per call: partial progress is the point.
        let mut residents = view.residents(source);
        residents.sort_by_key(|&(id, size, _)| (core::cmp::Reverse(size), id));
        for (item, size, dep) in residents {
            let target = sim
                .open_bins()
                .find(|r| r.id != source && r.fits(size) && r.latest_departure >= dep);
            if let Some(t) = target {
                return Some(Migration { item, to: t.id });
            }
        }
        None
    }
    fn reset(&mut self) {
        self.fresh_epoch = false;
        self.base.reset()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FirstFit;
    use dbp_core::engine::{run, run_with_recourse};
    use dbp_core::instance::Instance;
    use dbp_core::recourse::RecourseBudget;
    use dbp_core::size::Size;
    use dbp_core::time::{Dur, Time};
    use dbp_core::trace::NoopSink;

    fn sz(n: u64, d: u64) -> Size {
        Size::from_ratio(n, d)
    }

    /// The PR's canonical consolidation instance: r0 departs early, r1
    /// can move in with long-lived r2, and bin 0 closes six ticks sooner.
    fn consolidation_instance() -> Instance {
        Instance::from_triples([
            (Time(0), Dur(4), sz(1, 4)),
            (Time(0), Dur(10), sz(1, 4)),
            (Time(0), Dur(20), sz(3, 4)),
        ])
        .unwrap()
    }

    #[test]
    fn rod_consolidates_when_budget_allows() {
        let inst = consolidation_instance();
        let base = run(&inst, FirstFit::new()).unwrap();
        let res = run_with_recourse(
            &inst,
            RepackOnDeparture::new(FirstFit::new()),
            RecourseBudget::Unlimited,
            NoopSink,
        )
        .unwrap();
        assert_eq!(res.recourse.migrations, 1);
        assert_eq!(res.recourse.migration_closures, 1);
        assert!(res.cost < base.cost, "{} !< {}", res.cost, base.cost);
        assert_eq!(res.cost.as_bin_ticks(), 24.0);
    }

    #[test]
    fn safety_rule_refuses_lifetime_extending_moves() {
        // r1 (departs t10) may NOT move in with r2 (departs t6 < t10):
        // that would keep bin 1 open four extra ticks. No legal target →
        // no migration, even with unlimited budget.
        let inst = Instance::from_triples([
            (Time(0), Dur(4), sz(1, 4)),
            (Time(0), Dur(10), sz(1, 4)),
            (Time(0), Dur(6), sz(3, 4)),
        ])
        .unwrap();
        let res = run_with_recourse(
            &inst,
            RepackOnDeparture::new(FirstFit::new()),
            RecourseBudget::Unlimited,
            NoopSink,
        )
        .unwrap();
        assert_eq!(res.recourse.migrations, 0);
        let base = run(&inst, FirstFit::new()).unwrap();
        assert_eq!(res.cost, base.cost);
    }

    #[test]
    fn rod_holds_back_when_the_epoch_cannot_fund_the_whole_plan() {
        // Bin 0 holds TWO movable items after r0 departs; epoch=1 cannot
        // fund the 2-move evacuation, so rod (all-or-nothing) stays put.
        let inst = Instance::from_triples([
            (Time(0), Dur(4), sz(1, 2)),
            (Time(0), Dur(10), sz(1, 8)),
            (Time(0), Dur(10), sz(1, 8)),
            (Time(0), Dur(20), sz(3, 4)),
        ])
        .unwrap();
        let throttled = run_with_recourse(
            &inst,
            RepackOnDeparture::new(FirstFit::new()),
            RecourseBudget::per_epoch(1),
            NoopSink,
        )
        .unwrap();
        // Bin 0 stays open through t=10: the t=4 epoch could not fund the
        // 2-move plan. (A cost-neutral 1-move plan does fire at t=10, when
        // r1's departure leaves a lone resident — that's fine.)
        assert_eq!(throttled.cost.as_bin_ticks(), 10.0 + 20.0);
        let funded = run_with_recourse(
            &inst,
            RepackOnDeparture::new(FirstFit::new()),
            RecourseBudget::per_epoch(2),
            NoopSink,
        )
        .unwrap();
        assert_eq!(funded.recourse.migrations, 2);
        assert_eq!(funded.cost.as_bin_ticks(), 4.0 + 20.0);
        assert!(funded.cost < throttled.cost);
    }

    #[test]
    fn amortized_takes_partial_progress_one_move_per_epoch() {
        // Same shape: the amortized wrapper moves r1 at the t4 departure
        // epoch and r2 at the t10 departure epoch (one move each), so the
        // consolidation still happens under epoch=1 — just spread out.
        let inst = Instance::from_triples([
            (Time(0), Dur(4), sz(1, 2)),
            (Time(0), Dur(10), sz(1, 8)),
            (Time(0), Dur(12), sz(1, 8)),
            (Time(0), Dur(20), sz(3, 4)),
        ])
        .unwrap();
        let res = run_with_recourse(
            &inst,
            AmortizedRepack::new(FirstFit::new()),
            RecourseBudget::per_epoch(1),
            NoopSink,
        )
        .unwrap();
        assert!(
            res.recourse.migrations >= 1,
            "partial progress expected, got {:?}",
            res.recourse
        );
        let base = run(&inst, FirstFit::new()).unwrap();
        assert!(res.cost <= base.cost);
    }

    #[test]
    fn wrapper_names_compose() {
        assert_eq!(
            RepackOnDeparture::new(FirstFit::new()).name(),
            "rod:first-fit"
        );
        assert_eq!(
            AmortizedRepack::new(FirstFit::new()).name(),
            "amortized:first-fit"
        );
    }
}
