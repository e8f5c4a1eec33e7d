//! Offline non-repacking comparators.
//!
//! The paper transfers its lower bound from `OPT_R` to `OPT_NR` through the
//! Dual Coloring algorithm of Ren & Tang (a non-repacking offline
//! 4-approximation); experimentally, *any* concrete non-repacking packing
//! upper-bounds `OPT_NR`, so we run a portfolio of algorithms over the
//! instance and take the cheapest (see DESIGN.md §5 for the substitution
//! rationale). The portfolio mixes non-clairvoyant, clairvoyant and
//! parameterised strategies so at least one member is strong on each
//! workload family.

use dbp_core::algorithm::OnlineAlgorithm;
use dbp_core::cost::Area;
use dbp_core::engine;
use dbp_core::fit_tree::FitTree;
use dbp_core::instance::Instance;
use dbp_core::item::Item;
use dbp_core::size::{MAX_DIMS, SIZE_SCALE};
use dbp_core::time::{Dur, Time};

use crate::any_fit::{BestFit, FirstFit, NextFit, WorstFit};
use crate::cdff::Cdff;
use crate::classify_duration::ClassifyByDuration;
use crate::departure_fit::DepartureAwareFit;
use crate::hybrid::HybridAlgorithm;

/// The cheapest portfolio member's name and cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortfolioResult {
    /// Winning algorithm's display name.
    pub winner: String,
    /// Its (feasible, non-repacking) cost — an upper bound on `OPT_NR`.
    pub cost: Area,
    /// Every member's `(name, cost)` for reporting.
    pub all: Vec<(String, Area)>,
}

/// A genuinely offline non-repacking heuristic: process items sorted by
/// (duration class descending, arrival), place each into the first
/// existing bin that can take it — capacity respected over the item's
/// whole interval and the bin's busy interval kept contiguous (closed
/// bins stay closed) — else open a bin. Long items form the backbone,
/// short items fill the gaps: the same intuition as Ren & Tang's Dual
/// Coloring, realized greedily (see DESIGN.md §5).
///
/// Returns `(cost, assignment)`; the assignment is indexed by item id.
///
/// Each bin keeps its load as a step function of time: sorted breakpoints,
/// each carrying the per-dimension load until the next one. The load is
/// piecewise constant and rises only at arrivals, so its maximum over an
/// item's span `[a, d)` — what the capacity check needs — is the maximum
/// over the steps that span touches: a `partition_point` plus a scan of
/// those steps. Accepting an item splits the steps at `a` and `d` and adds
/// its size to the steps between; loads only ever grow, so the bin's peak
/// is kept as a running maximum. Both are exact per dimension.
///
/// The per-item bin search is guided by a [`FitTree`] keyed on each bin's
/// *free floor* — `1 − (peak load over the bin's busy window)`. A floor
/// ≥ the item's size guarantees the capacity check passes (the load never
/// exceeds its window peak), so the tree's first floor-qualifying,
/// window-overlapping bin is accepted with no step scan at all, and the
/// exact check is confined to the prefix before it. The selected bin is
/// identical to a plain linear scan of every bin (verified by a
/// differential test against an independent oracle).
pub fn duration_layered_first_fit(instance: &Instance) -> (Area, Vec<u32>) {
    /// A bin's load step function: `steps[i].1` is the load on
    /// `[steps[i].0, steps[i + 1].0)`. The last breakpoint is the bin's
    /// close time and carries zero load, so the busy window is
    /// `[steps[0].0, last)`.
    #[derive(Debug)]
    struct OffBin {
        steps: Vec<(Time, [u64; MAX_DIMS])>,
        peak: [u64; MAX_DIMS],
    }
    impl OffBin {
        fn new(item: &Item) -> OffBin {
            let load = item.size.raws();
            OffBin {
                steps: vec![(item.arrival, load), (item.departure, [0; MAX_DIMS])],
                peak: load,
            }
        }
        fn open_from(&self) -> Time {
            self.steps[0].0
        }
        fn close_at(&self) -> Time {
            self.steps[self.steps.len() - 1].0
        }
        /// The item must overlap the bin's busy window STRICTLY on both
        /// sides. Touching is not enough: with departures processed
        /// before arrivals, items meeting only at a junction point (one
        /// departs at t, the other arrives at t) leave the bin
        /// momentarily empty — and an emptied bin is closed forever.
        /// Strict window overlap inductively keeps every interior point
        /// of the busy window strictly spanned by some item.
        fn window_overlaps(&self, item: &Item) -> bool {
            item.arrival < self.close_at() && item.departure > self.open_from()
        }
        fn can_accept(&self, item: &Item) -> bool {
            if !self.window_overlaps(item) {
                return false;
            }
            // The step in force at the arrival (the first one when the
            // item starts before the window), then every later step the
            // item's span reaches.
            let first = self
                .steps
                .partition_point(|s| s.0 <= item.arrival)
                .saturating_sub(1);
            let want = item.size.raws();
            self.steps[first..]
                .iter()
                .take_while(|s| s.0 < item.departure)
                .all(|(_, load)| load.iter().zip(want).all(|(&l, c)| l + c <= SIZE_SCALE))
        }
        /// Makes `t` a breakpoint, copying the load in force there, and
        /// returns its index.
        fn split(&mut self, t: Time) -> usize {
            let i = self.steps.partition_point(|s| s.0 < t);
            if self.steps.get(i).is_none_or(|s| s.0 != t) {
                let load = if i == 0 {
                    [0; MAX_DIMS]
                } else {
                    self.steps[i - 1].1
                };
                self.steps.insert(i, (t, load));
            }
            i
        }
        fn accept(&mut self, item: &Item) {
            let from = self.split(item.arrival);
            let to = self.split(item.departure);
            let add = item.size.raws();
            for (_, load) in &mut self.steps[from..to] {
                for d in 0..MAX_DIMS {
                    load[d] += add[d];
                    self.peak[d] = self.peak[d].max(load[d]);
                }
            }
        }
    }

    let mut order: Vec<&Item> = instance.items().iter().collect();
    order.sort_by_key(|it| (std::cmp::Reverse(it.class_index()), it.arrival, it.id));

    let mut bins: Vec<OffBin> = Vec::new();
    // Slot k mirrors bins[k]; key = free floor (capacity minus window peak).
    let mut floors = FitTree::new();
    let mut assignment = vec![0u32; instance.len()];
    floors.ensure_dims(
        instance
            .items()
            .iter()
            .map(|it| it.size.dims_used())
            .max()
            .unwrap_or(1),
    );
    for it in order {
        let size = it.size;
        // First bin whose floor admits the item AND whose window overlaps:
        // guaranteed acceptable, no step scan needed.
        let mut guaranteed = floors.first_fit_vec(size);
        while let Some(idx) = guaranteed {
            if bins[idx].window_overlaps(it) {
                break;
            }
            guaranteed = floors.first_fit_vec_from(idx + 1, size);
        }
        // Bins before it all have floor < size (or a disjoint window); only
        // the window-overlapping ones can still accept — via a peak that
        // lies outside the item's span — and need the exact check.
        let limit = guaranteed.unwrap_or(bins.len());
        let slot = bins[..limit]
            .iter()
            .position(|b| b.can_accept(it))
            .or(guaranteed);
        let idx = match slot {
            Some(idx) => {
                debug_assert!(bins[idx].can_accept(it), "floor jump overshot");
                bins[idx].accept(it);
                idx
            }
            None => {
                bins.push(OffBin::new(it));
                floors.push(SIZE_SCALE - size.primary().raw())
            }
        };
        debug_assert_eq!(floors.len(), bins.len());
        assignment[it.id.index()] = idx as u32;
        floors.set_remaining_vec(idx, &bins[idx].peak.map(|p| SIZE_SCALE - p));
    }
    let ticks: u64 = bins
        .iter()
        .map(|b| b.close_at().since(b.open_from()).ticks())
        .sum();
    (Area::from_bin_ticks(Dur(ticks)), assignment)
}

/// Runs the standard portfolio and returns the cheapest feasible packing.
///
/// Members: First/Best/Worst/Next-Fit, binary CBD plus two widened CBDs,
/// HA, CDFF, and Departure-Aware Fit.
pub fn best_nonrepacking(instance: &Instance) -> PortfolioResult {
    best_nonrepacking_budgeted(instance, &mut super::budget::RefineBudget::unlimited())
        .expect("unlimited budget runs every member")
}

/// [`best_nonrepacking`] under a budget: members run in the fixed
/// portfolio order, each charged `|σ| + 1` nodes up front, and the sweep
/// stops at the first refused charge. Whatever members ran still yield a
/// sound upper bound (any feasible packing does); `None` means the budget
/// could not afford even the first member, so nothing was certified.
pub fn best_nonrepacking_budgeted(
    instance: &Instance,
    budget: &mut super::budget::RefineBudget,
) -> Option<PortfolioResult> {
    let log_mu = instance.log2_mu().max(1.0);
    let w_opt = (log_mu / log_mu.log2().max(1.0)).ceil().max(2.0) as u32;
    let member_cost = instance.len() as u64 + 1;

    let mut all: Vec<(String, Area)> = Vec::new();

    macro_rules! member {
        ($algo:expr) => {{
            if budget.try_charge(member_cost) {
                let a = $algo;
                let name = a.name().to_string();
                let res = engine::run(instance, a).expect("portfolio member made an illegal move");
                all.push((name, res.cost));
            }
        }};
    }

    member!(FirstFit::new());
    member!(BestFit::new());
    member!(WorstFit::new());
    member!(NextFit::new());
    member!(ClassifyByDuration::binary());
    member!(ClassifyByDuration::with_width(w_opt));
    member!(HybridAlgorithm::new());
    member!(Cdff::new());
    member!(DepartureAwareFit::new());

    // The offline member does an extra sort pass over the items.
    if budget.try_charge(member_cost) {
        let (dlff_cost, _) = duration_layered_first_fit(instance);
        all.push(("duration-layered-ff (offline)".to_string(), dlff_cost));
    }

    let (winner, cost) = all
        .iter()
        .min_by_key(|(_, c)| *c)
        .map(|(n, c)| (n.clone(), *c))?;
    Some(PortfolioResult { winner, cost, all })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offline::exact::exact_opt_nr;
    use dbp_core::bounds::LowerBounds;
    use dbp_core::size::Size;
    use dbp_core::time::{Dur, Time};

    fn sz(n: u64, d: u64) -> Size {
        Size::from_ratio(n, d)
    }

    #[test]
    fn portfolio_brackets_exact_optimum() {
        let inst = Instance::from_triples([
            (Time(0), Dur(2), sz(1, 2)),
            (Time(0), Dur(10), sz(1, 2)),
            (Time(0), Dur(10), sz(1, 2)),
            (Time(4), Dur(4), sz(1, 4)),
            (Time(12), Dur(2), sz(2, 3)),
        ])
        .unwrap();
        let exact = exact_opt_nr(&inst, 8);
        let portfolio = best_nonrepacking(&inst);
        let lb = LowerBounds::of(&inst).best();
        assert!(lb <= exact.cost);
        assert!(exact.cost <= portfolio.cost);
    }

    #[test]
    fn portfolio_reports_all_members() {
        let inst = Instance::from_triples([(Time(0), Dur(4), sz(1, 2))]).unwrap();
        let p = best_nonrepacking(&inst);
        assert_eq!(p.all.len(), 10);
        assert!(p.all.iter().all(|(_, c)| *c >= p.cost));
        // Single item: every member pays exactly its duration.
        assert_eq!(p.cost.as_bin_ticks(), 4.0);
    }

    #[test]
    fn budgeted_portfolio_truncates_but_stays_sound() {
        use crate::offline::budget::RefineBudget;
        let inst = Instance::from_triples([
            (Time(0), Dur(2), sz(1, 2)),
            (Time(0), Dur(10), sz(1, 2)),
            (Time(0), Dur(10), sz(1, 2)),
        ])
        .unwrap();
        // Budget for exactly two members (|σ| + 1 = 4 nodes each).
        let two = best_nonrepacking_budgeted(&inst, &mut RefineBudget::nodes(8)).expect("ran");
        assert_eq!(two.all.len(), 2);
        let full = best_nonrepacking(&inst);
        assert!(full.cost <= two.cost, "more members can only tighten");
        // A starved budget certifies nothing at all.
        assert!(best_nonrepacking_budgeted(&inst, &mut RefineBudget::nodes(0)).is_none());
    }

    #[test]
    fn duration_layered_is_feasible_and_audited() {
        let mut x = 11u64;
        let mut triples = Vec::new();
        for k in 0..120u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            triples.push((Time(k / 3), Dur(1 + x % 32), sz(1 + (x >> 9) % 70, 100)));
        }
        let inst = Instance::from_triples(triples).unwrap();
        let (cost, assignment) = duration_layered_first_fit(&inst);
        let bins: Vec<dbp_core::bin_state::BinId> = assignment
            .iter()
            .map(|&b| dbp_core::bin_state::BinId(b))
            .collect();
        let report = dbp_core::assignment::audit(&inst, &bins).expect("feasible");
        assert_eq!(report.cost, cost);
        assert!(cost >= LowerBounds::of(&inst).best());
    }

    /// The seed's plain O(bins) scan, reimplemented independently as an
    /// oracle: first bin (in opening order) whose busy window strictly
    /// overlaps the item and whose load at every arrival breakpoint inside
    /// the item's span leaves room.
    fn dlff_naive(instance: &Instance) -> (Area, Vec<u32>) {
        struct NaiveBin {
            items: Vec<dbp_core::item::Item>,
            open_from: Time,
            close_at: Time,
        }
        let accepts = |b: &NaiveBin, it: &dbp_core::item::Item| {
            if it.arrival >= b.close_at || it.departure <= b.open_from {
                return false;
            }
            let mut checkpoints = vec![it.arrival];
            for r in &b.items {
                if r.arrival > it.arrival && r.arrival < it.departure {
                    checkpoints.push(r.arrival);
                }
            }
            checkpoints.iter().all(|&t| {
                let load: u64 = b
                    .items
                    .iter()
                    .filter(|r| r.active_at(t))
                    .map(|r| r.size.primary().raw())
                    .sum();
                load + it.size.primary().raw() <= dbp_core::size::SIZE_SCALE
            })
        };
        let mut order: Vec<&dbp_core::item::Item> = instance.items().iter().collect();
        order.sort_by_key(|it| (std::cmp::Reverse(it.class_index()), it.arrival, it.id));
        let mut bins: Vec<NaiveBin> = Vec::new();
        let mut assignment = vec![0u32; instance.len()];
        for it in order {
            match bins.iter().position(|b| accepts(b, it)) {
                Some(idx) => {
                    bins[idx].open_from = bins[idx].open_from.min(it.arrival);
                    bins[idx].close_at = bins[idx].close_at.max(it.departure);
                    bins[idx].items.push(*it);
                    assignment[it.id.index()] = idx as u32;
                }
                None => {
                    assignment[it.id.index()] = bins.len() as u32;
                    bins.push(NaiveBin {
                        items: vec![*it],
                        open_from: it.arrival,
                        close_at: it.departure,
                    });
                }
            }
        }
        let ticks: u64 = bins
            .iter()
            .map(|b| b.close_at.since(b.open_from).ticks())
            .sum();
        (Area::from_bin_ticks(Dur(ticks)), assignment)
    }

    #[test]
    fn tree_guided_dlff_matches_the_naive_scan() {
        // Several deterministic pseudo-random instances with heavy window
        // churn: bins close and never reopen, floors rise and fall, and the
        // ambiguous prefix (floor < size but local capacity available) is
        // exercised by the size mix.
        for seed in [3u64, 77, 2024] {
            let mut x = seed | 1;
            let mut step = || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let mut triples = Vec::new();
            for k in 0..260u64 {
                let t = (step() % 40).min(k);
                let d = 1 + step() % 48;
                let s = 1 + step() % 80;
                triples.push((Time(t), Dur(d), sz(s, 80)));
            }
            let inst = Instance::from_triples(triples).unwrap();
            let (cost, assignment) = duration_layered_first_fit(&inst);
            let (naive_cost, naive_assignment) = dlff_naive(&inst);
            assert_eq!(assignment, naive_assignment, "seed {seed}");
            assert_eq!(cost, naive_cost, "seed {seed}");
        }
    }

    #[test]
    fn duration_layered_beats_ff_on_the_interleave_trap() {
        // A short item arrives first; online FF pairs it with the first
        // long item, stranding the second. Offline layering packs the two
        // longs together.
        let inst = Instance::from_triples([
            (Time(0), Dur(2), sz(1, 2)),
            (Time(0), Dur(64), sz(1, 2)),
            (Time(0), Dur(64), sz(1, 2)),
        ])
        .unwrap();
        let (cost, _) = duration_layered_first_fit(&inst);
        assert_eq!(cost.as_bin_ticks(), 66.0);
        let ff = engine::run(&inst, FirstFit::new()).expect("legal");
        assert_eq!(ff.cost.as_bin_ticks(), 128.0);
    }

    #[test]
    fn departure_aware_wins_on_cograduating_items() {
        // Two long items + decoy short: departure-aware pairs the longs.
        let inst = Instance::from_triples([
            (Time(0), Dur(2), sz(1, 2)),
            (Time(0), Dur(64), sz(1, 2)),
            (Time(0), Dur(64), sz(1, 2)),
        ])
        .unwrap();
        let p = best_nonrepacking(&inst);
        assert_eq!(p.cost.as_bin_ticks(), 66.0);
    }
}
