//! Exact non-repacking optimum by branch-and-bound (small instances only).
//!
//! Enumerates assignments of items (in arrival order) to bins, respecting
//! capacity over time and the closed-bins-stay-closed discipline. The
//! search is constraint-propagated:
//!
//! * **incumbent seeding** — a first-fit schedule primes the incumbent, so
//!   pruning bites from the first node instead of after the first full
//!   dive;
//! * **interval lower bound** — per profile segment, a completion needs at
//!   least `max(committed bins covering the segment, analytic segment
//!   lower bound)` bins; the sum of those maxima (maintained incrementally
//!   as bins open and extend) prunes whole subtrees the plain
//!   partial-cost test cannot;
//! * **symmetry breaking** — identical `(arrival, departure, size)` items
//!   are forced into non-decreasing bin indices, and new bins get a single
//!   canonical branch;
//! * **optimality early-out** — the search stops as soon as the incumbent
//!   meets the aggregate segment lower bound.
//!
//! Still exponential in `|σ|` in the worst case, but certification now
//! reaches a few dozen items instead of ≲ 12. The pre-propagation search
//! is kept verbatim as [`exact_opt_nr_reference_budgeted`], the
//! differential oracle: property tests assert bit-identical costs and
//! never-higher node counts.

use dbp_core::cost::Area;
use dbp_core::instance::Instance;
use dbp_core::item::Item;
use dbp_core::size::{MAX_DIMS, SIZE_SCALE};
use dbp_core::time::Time;

use super::budget::RefineBudget;

/// Result of the exact search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExactOpt {
    /// The optimal non-repacking cost.
    pub cost: Area,
    /// An optimal assignment (bin index per item, in instance order).
    pub assignment: Vec<u32>,
}

#[derive(Debug, Clone)]
struct BinSketch {
    items: Vec<Item>,
    open_from: Time,
    close_at: Time,
}

impl BinSketch {
    fn span_ticks(&self) -> u64 {
        self.close_at.since(self.open_from).ticks()
    }

    /// Whether `item` can join: the bin must still be open at the item's
    /// arrival (some resident departs strictly later) and capacity must
    /// hold throughout the item's interval.
    fn can_accept(&self, item: &Item) -> bool {
        if self.close_at <= item.arrival {
            return false; // bin emptied (closed) before the arrival
        }
        // Capacity check at every arrival breakpoint within item's window.
        let mut checkpoints: Vec<Time> = vec![item.arrival];
        for r in &self.items {
            if r.arrival > item.arrival && r.arrival < item.departure {
                checkpoints.push(r.arrival);
            }
        }
        let want = item.size.raws();
        for &t in &checkpoints {
            let mut load = [0u64; MAX_DIMS];
            for r in self.items.iter().filter(|r| r.active_at(t)) {
                for (l, c) in load.iter_mut().zip(r.size.raws()) {
                    *l += c;
                }
            }
            if load.iter().zip(want).any(|(&l, c)| l + c > SIZE_SCALE) {
                return false;
            }
        }
        true
    }
}

/// The profile-segment skeleton driving the interval lower bound: event
/// times, segment lengths, and each segment's analytic bin-count lower
/// bound over the *full* item set (per-dimension ⌈load⌉ and big-item
/// counts — every complete non-repacking solution must keep at least that
/// many bins open across the segment).
struct Segments {
    times: Vec<Time>,
    len: Vec<u64>,
    lb: Vec<u64>,
}

impl Segments {
    fn build(items: &[Item]) -> Segments {
        let mut times: Vec<Time> = Vec::with_capacity(items.len() * 2);
        for it in items {
            times.push(it.arrival);
            times.push(it.departure);
        }
        times.sort_unstable();
        times.dedup();
        let m = times.len().saturating_sub(1);
        let mut len = vec![0u64; m];
        let mut lb = vec![0u64; m];
        let half = SIZE_SCALE / 2;
        for i in 0..m {
            let t = times[i];
            len[i] = times[i + 1].since(t).ticks();
            let mut dim_load = [0u128; MAX_DIMS];
            let mut dim_bigs = [0u64; MAX_DIMS];
            for it in items.iter().filter(|it| it.active_at(t)) {
                for (d, &c) in it.size.raws().iter().enumerate() {
                    dim_load[d] += c as u128;
                    if c > half {
                        dim_bigs[d] += 1;
                    }
                }
            }
            let ceil = dim_load
                .iter()
                .map(|l| l.div_ceil(SIZE_SCALE as u128) as u64)
                .max()
                .unwrap_or(0);
            let bigs = dim_bigs.iter().copied().max().unwrap_or(0);
            lb[i] = ceil.max(bigs);
        }
        Segments { times, len, lb }
    }

    /// `Σ lb_i · len_i`: a global lower bound on OPT_NR ticks.
    fn static_lb(&self) -> u64 {
        self.lb.iter().zip(&self.len).map(|(&b, &l)| b * l).sum()
    }

    /// Every bin boundary is an event time, so the lookup always hits.
    fn index_of(&self, t: Time) -> usize {
        self.times
            .binary_search(&t)
            .expect("bin boundaries are event times")
    }
}

/// First-fit over [`BinSketch`]s in arrival order: a feasible schedule
/// whose cost seeds the incumbent (and whose assignment seeds the answer,
/// so a budget-starved caller still holds a meaningful candidate).
fn first_fit_seed(items: &[Item]) -> (u64, Vec<u32>) {
    let mut bins: Vec<BinSketch> = Vec::new();
    let mut assignment = vec![0u32; items.len()];
    for (i, item) in items.iter().enumerate() {
        match bins.iter().position(|b| b.can_accept(item)) {
            Some(b) => {
                bins[b].items.push(*item);
                bins[b].close_at = bins[b].close_at.max(item.departure);
                assignment[i] = b as u32;
            }
            None => {
                bins.push(BinSketch {
                    items: vec![*item],
                    open_from: item.arrival,
                    close_at: item.departure,
                });
                assignment[i] = (bins.len() - 1) as u32;
            }
        }
    }
    (bins.iter().map(BinSketch::span_ticks).sum(), assignment)
}

struct Search<'a, 'b> {
    items: &'a [Item],
    seg: Segments,
    /// Committed bins covering each segment.
    cover: Vec<u64>,
    /// `Σ max(lb_i, cover_i) · len_i` — a lower bound on any completion of
    /// the current partial assignment (bin spans only grow as the search
    /// deepens, and unassigned items still force each segment's `lb_i`).
    /// At a leaf every `cover_i ≥ lb_i`, so this *is* the leaf's cost.
    bound: u64,
    static_lb: u64,
    /// Most recent earlier item with an identical triple (`u32::MAX` when
    /// none): identical items are forced into non-decreasing bin indices.
    prev_same: Vec<u32>,
    best_cost: u64, // in ticks across bins (bin spans sum)
    best_assignment: Vec<u32>,
    current: Vec<u32>,
    budget: &'b mut RefineBudget,
    aborted: bool,
    /// The incumbent met the aggregate lower bound — optimality proven.
    done: bool,
}

impl Search<'_, '_> {
    fn add_cover(&mut self, from: Time, to: Time) {
        let (i0, i1) = (self.seg.index_of(from), self.seg.index_of(to));
        for i in i0..i1 {
            if self.cover[i] >= self.seg.lb[i] {
                self.bound += self.seg.len[i];
            }
            self.cover[i] += 1;
        }
    }

    fn sub_cover(&mut self, from: Time, to: Time) {
        let (i0, i1) = (self.seg.index_of(from), self.seg.index_of(to));
        for i in i0..i1 {
            self.cover[i] -= 1;
            if self.cover[i] >= self.seg.lb[i] {
                self.bound -= self.seg.len[i];
            }
        }
    }

    fn recurse(&mut self, idx: usize, bins: &mut Vec<BinSketch>) {
        if self.aborted || self.done {
            return;
        }
        if !self.budget.try_charge(1) {
            self.aborted = true;
            return;
        }
        if self.bound >= self.best_cost {
            return; // no completion of this subtree can beat the incumbent
        }
        if idx == self.items.len() {
            // At a leaf `bound` equals the schedule's cost (see field doc).
            self.best_cost = self.bound;
            self.best_assignment = self.current.clone();
            if self.best_cost <= self.static_lb {
                self.done = true;
            }
            return;
        }
        let item = self.items[idx];
        let min_bin = match self.prev_same[idx] {
            u32::MAX => 0,
            j => self.current[j as usize] as usize,
        };
        // Try existing bins (from the identical-item floor up).
        for b in min_bin..bins.len() {
            if bins[b].can_accept(&item) {
                let saved_close = bins[b].close_at;
                let new_close = saved_close.max(item.departure);
                bins[b].items.push(item);
                bins[b].close_at = new_close;
                if new_close > saved_close {
                    self.add_cover(saved_close, new_close);
                }
                self.current[idx] = b as u32;
                self.recurse(idx + 1, bins);
                if new_close > saved_close {
                    self.sub_cover(saved_close, new_close);
                }
                bins[b].items.pop();
                bins[b].close_at = saved_close;
            }
        }
        // Open a new bin (one canonical branch: bins are symmetric).
        bins.push(BinSketch {
            items: vec![item],
            open_from: item.arrival,
            close_at: item.departure,
        });
        self.add_cover(item.arrival, item.departure);
        self.current[idx] = (bins.len() - 1) as u32;
        self.recurse(idx + 1, bins);
        self.sub_cover(item.arrival, item.departure);
        bins.pop();
    }
}

struct ReferenceSearch<'a, 'b> {
    items: &'a [Item],
    best_cost: u64, // in ticks across bins (bin spans sum)
    best_assignment: Vec<u32>,
    current: Vec<u32>,
    budget: &'b mut RefineBudget,
    aborted: bool,
}

impl ReferenceSearch<'_, '_> {
    fn partial_cost(bins: &[BinSketch]) -> u64 {
        bins.iter().map(BinSketch::span_ticks).sum()
    }

    fn recurse(&mut self, idx: usize, bins: &mut Vec<BinSketch>) {
        if self.aborted {
            return;
        }
        if !self.budget.try_charge(1) {
            self.aborted = true;
            return;
        }
        if Self::partial_cost(bins) >= self.best_cost {
            return; // adding items never shrinks any bin's span
        }
        if idx == self.items.len() {
            let cost = Self::partial_cost(bins);
            if cost < self.best_cost {
                self.best_cost = cost;
                self.best_assignment = self.current.clone();
            }
            return;
        }
        let item = self.items[idx];
        // Try existing bins.
        for b in 0..bins.len() {
            if bins[b].can_accept(&item) {
                let saved_close = bins[b].close_at;
                bins[b].items.push(item);
                bins[b].close_at = saved_close.max(item.departure);
                self.current[idx] = b as u32;
                self.recurse(idx + 1, bins);
                bins[b].items.pop();
                bins[b].close_at = saved_close;
            }
        }
        // Open a new bin (one canonical branch: bins are symmetric).
        bins.push(BinSketch {
            items: vec![item],
            open_from: item.arrival,
            close_at: item.departure,
        });
        self.current[idx] = (bins.len() - 1) as u32;
        self.recurse(idx + 1, bins);
        bins.pop();
    }
}

/// Computes the exact non-repacking optimum.
///
/// # Panics
/// Panics if the instance has more than `max_items` items (guard against
/// accidental exponential blow-ups); pass the instance size to opt in.
pub fn exact_opt_nr(instance: &Instance, max_items: usize) -> ExactOpt {
    exact_opt_nr_budgeted(instance, max_items, &mut RefineBudget::unlimited())
        .expect("unlimited budget always completes")
}

/// [`exact_opt_nr`] under a node budget (one node per branch-and-bound
/// call). Returns `None` when the budget runs out before the search
/// completes — a partial enumeration certifies nothing for OPT_NR, so
/// callers keep whatever bracket they already hold.
///
/// # Panics
/// As [`exact_opt_nr`].
pub fn exact_opt_nr_budgeted(
    instance: &Instance,
    max_items: usize,
    budget: &mut RefineBudget,
) -> Option<ExactOpt> {
    assert!(
        instance.len() <= max_items,
        "exact search limited to {max_items} items, got {}",
        instance.len()
    );
    if instance.is_empty() {
        return Some(ExactOpt {
            cost: Area::ZERO,
            assignment: Vec::new(),
        });
    }
    let items = instance.items();
    let seg = Segments::build(items);
    let static_lb = seg.static_lb();
    let (seed_cost, seed_assignment) = first_fit_seed(items);
    let mut prev_same = vec![u32::MAX; items.len()];
    for i in 0..items.len() {
        for j in (0..i).rev() {
            if items[j].arrival == items[i].arrival
                && items[j].departure == items[i].departure
                && items[j].size.raws() == items[i].size.raws()
            {
                prev_same[i] = j as u32;
                break;
            }
        }
    }
    let cover = vec![0u64; seg.lb.len()];
    let done = seed_cost <= static_lb; // first-fit already optimal
    let mut search = Search {
        items,
        bound: static_lb,
        static_lb,
        seg,
        cover,
        prev_same,
        best_cost: seed_cost,
        best_assignment: seed_assignment,
        current: vec![0; items.len()],
        budget,
        aborted: false,
        done,
    };
    if !search.done {
        let mut bins = Vec::new();
        search.recurse(0, &mut bins);
    }
    if search.aborted {
        return None;
    }
    Some(ExactOpt {
        cost: Area::from_bin_ticks(dbp_core::time::Dur(search.best_cost)),
        assignment: search.best_assignment,
    })
}

/// The pre-propagation branch-and-bound, frozen as a differential oracle:
/// no incumbent seeding, partial-cost pruning only, no symmetry breaking
/// beyond the canonical new-bin branch. Property tests assert the
/// propagated [`exact_opt_nr_budgeted`] returns the same cost while
/// charging no more nodes.
///
/// # Panics
/// As [`exact_opt_nr`].
pub fn exact_opt_nr_reference_budgeted(
    instance: &Instance,
    max_items: usize,
    budget: &mut RefineBudget,
) -> Option<ExactOpt> {
    assert!(
        instance.len() <= max_items,
        "exact search limited to {max_items} items, got {}",
        instance.len()
    );
    if instance.is_empty() {
        return Some(ExactOpt {
            cost: Area::ZERO,
            assignment: Vec::new(),
        });
    }
    let items = instance.items();
    let mut search = ReferenceSearch {
        items,
        best_cost: u64::MAX,
        best_assignment: vec![0; items.len()],
        current: vec![0; items.len()],
        budget,
        aborted: false,
    };
    let mut bins = Vec::new();
    search.recurse(0, &mut bins);
    if search.aborted {
        return None;
    }
    Some(ExactOpt {
        cost: Area::from_bin_ticks(dbp_core::time::Dur(search.best_cost)),
        assignment: search.best_assignment,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbp_core::bounds::LowerBounds;
    use dbp_core::size::Size;
    use dbp_core::time::Dur;

    fn sz(n: u64, d: u64) -> Size {
        Size::from_ratio(n, d)
    }

    #[test]
    fn single_item() {
        let inst = Instance::from_triples([(Time(0), Dur(5), sz(1, 2))]).unwrap();
        let opt = exact_opt_nr(&inst, 8);
        assert_eq!(opt.cost.as_bin_ticks(), 5.0);
        assert_eq!(opt.assignment, vec![0]);
    }

    #[test]
    fn two_compatible_items_share() {
        let inst =
            Instance::from_triples([(Time(0), Dur(5), sz(1, 2)), (Time(1), Dur(4), sz(1, 2))])
                .unwrap();
        let opt = exact_opt_nr(&inst, 8);
        assert_eq!(opt.cost.as_bin_ticks(), 5.0);
        assert_eq!(opt.assignment[0], opt.assignment[1]);
    }

    #[test]
    fn two_big_items_split() {
        let inst =
            Instance::from_triples([(Time(0), Dur(5), sz(2, 3)), (Time(1), Dur(4), sz(2, 3))])
                .unwrap();
        let opt = exact_opt_nr(&inst, 8);
        assert_eq!(opt.cost.as_bin_ticks(), 9.0);
        assert_ne!(opt.assignment[0], opt.assignment[1]);
    }

    #[test]
    fn clairvoyant_grouping_beats_first_fit() {
        // Classic: a short and a long item arrive together (size 1/2 each),
        // then another long item. FF pairs short+long₁ (bin open 10), then
        // long₂ alone (bin open 10) → cost 20. OPT pairs the two longs →
        // cost 10 + 2 = 12.
        let inst = Instance::from_triples([
            (Time(0), Dur(2), sz(1, 2)),
            (Time(0), Dur(10), sz(1, 2)),
            (Time(0), Dur(10), sz(1, 2)),
        ])
        .unwrap();
        let opt = exact_opt_nr(&inst, 8);
        assert_eq!(opt.cost.as_bin_ticks(), 12.0);
        let ff = dbp_core::engine::run(&inst, crate::any_fit::FirstFit::new()).unwrap();
        assert_eq!(ff.cost.as_bin_ticks(), 20.0);
    }

    #[test]
    fn exact_respects_bin_closure() {
        // [0,2) then [3,5): cannot share a bin (it closes at 2) even though
        // capacity would allow; cost is 4 either way but assignment differs.
        let inst =
            Instance::from_triples([(Time(0), Dur(2), sz(1, 2)), (Time(3), Dur(2), sz(1, 2))])
                .unwrap();
        let opt = exact_opt_nr(&inst, 8);
        assert_eq!(opt.cost.as_bin_ticks(), 4.0);
        assert_ne!(opt.assignment[0], opt.assignment[1]);
    }

    #[test]
    fn touching_intervals_cannot_share() {
        // [0,5) then [5,10): the bin empties exactly at 5 → closed.
        let inst =
            Instance::from_triples([(Time(0), Dur(5), sz(1, 4)), (Time(5), Dur(5), sz(1, 4))])
                .unwrap();
        let opt = exact_opt_nr(&inst, 8);
        assert_ne!(opt.assignment[0], opt.assignment[1]);
        assert_eq!(opt.cost.as_bin_ticks(), 10.0);
    }

    #[test]
    fn exact_at_least_certified_lower_bound() {
        let inst = Instance::from_triples([
            (Time(0), Dur(4), sz(2, 3)),
            (Time(1), Dur(5), sz(1, 3)),
            (Time(2), Dur(2), sz(2, 3)),
            (Time(3), Dur(6), sz(1, 2)),
        ])
        .unwrap();
        let opt = exact_opt_nr(&inst, 8);
        assert!(opt.cost >= LowerBounds::of(&inst).best());
        // Exact is also at most any heuristic.
        let ff = dbp_core::engine::run(&inst, crate::any_fit::FirstFit::new()).unwrap();
        assert!(opt.cost <= ff.cost);
    }

    #[test]
    fn budgeted_search_gives_up_cleanly() {
        let inst = Instance::from_triples([
            (Time(0), Dur(2), sz(1, 2)),
            (Time(0), Dur(10), sz(1, 2)),
            (Time(0), Dur(10), sz(1, 2)),
            (Time(4), Dur(4), sz(1, 4)),
        ])
        .unwrap();
        assert!(
            exact_opt_nr_budgeted(&inst, 8, &mut RefineBudget::nodes(2)).is_none(),
            "starved search certifies nothing"
        );
        let full =
            exact_opt_nr_budgeted(&inst, 8, &mut RefineBudget::unlimited()).expect("completes");
        assert_eq!(full.cost, exact_opt_nr(&inst, 8).cost);
    }

    #[test]
    #[should_panic(expected = "exact search limited")]
    fn size_guard_trips() {
        let triples: Vec<_> = (0..5).map(|k| (Time(k), Dur(2), sz(1, 4))).collect();
        let inst = Instance::from_triples(triples).unwrap();
        exact_opt_nr(&inst, 4);
    }
}
