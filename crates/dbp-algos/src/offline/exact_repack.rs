//! Exact repacking optimum.
//!
//! Because OPT_R may repack at every instant with no cost, its optimal
//! choice at time `t` is independent of every other moment: it simply
//! packs the active set `S_t` into the fewest bins. Hence
//!
//! ```text
//! OPT_R(σ) = ∫ BP(active items at t) dt
//! ```
//!
//! where `BP` is the (NP-hard, but small-instance-tractable) optimal bin
//! packing number. This module computes `BP` exactly by branch-and-bound
//! and integrates it over the profile segments, giving *exact* `OPT_R`
//! for instances whose peak concurrency is modest (≲ 25 items) — which
//! collapses the experiment bracket to a point and lets tests pin HA's
//! and CDFF's true competitive ratios on small instances.

use dbp_core::cost::Area;
use dbp_core::instance::Instance;
use dbp_core::size::SIZE_SCALE;

use super::budget::RefineBudget;

/// Outcome of a budgeted exact bin-packing search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetedCount {
    /// A *feasible* bin count: the incumbent when the budget ran out
    /// (seeded with FFD, so always a certified upper bound), the optimum
    /// when `complete`.
    pub bins: u64,
    /// Whether the search proved optimality before exhausting the budget.
    pub complete: bool,
}

/// Exact minimum number of unit bins for the given raw fixed-point sizes.
///
/// Branch-and-bound with constraint propagation: FFD upper bound, the
/// Martello–Toth L2 aggregate lower bound, remaining-volume subtree
/// pruning, perfect-fit dominance (an item exactly filling a bin's
/// residual takes that single branch), symmetry breaking (identical
/// residual capacities are tried once), and first-fit ordering on sorted
/// sizes.
///
/// # Panics
/// Panics if any size exceeds the bin capacity, or if more than
/// `MAX_EXACT_ITEMS` items are given (exponential guard).
pub fn exact_bin_count(sizes: &[u64]) -> u64 {
    let out = exact_bin_count_budgeted(sizes, &mut RefineBudget::unlimited());
    debug_assert!(out.complete, "unlimited budget always completes");
    out.bins
}

/// [`exact_bin_count`] under a node budget (one node per branch-and-bound
/// call). The returned count is always feasible; `complete` distinguishes
/// "this is the optimum" from "this is the best found before the budget
/// ran out".
pub fn exact_bin_count_budgeted(sizes: &[u64], budget: &mut RefineBudget) -> BudgetedCount {
    assert!(
        sizes.len() <= MAX_EXACT_ITEMS,
        "exact bin packing limited to {MAX_EXACT_ITEMS} items, got {}",
        sizes.len()
    );
    assert!(sizes.iter().all(|&s| s <= SIZE_SCALE), "oversized item");
    let mut sorted: Vec<u64> = sizes.iter().copied().filter(|&s| s > 0).collect();
    if sorted.is_empty() {
        return BudgetedCount {
            bins: 0,
            complete: true,
        };
    }
    sorted.sort_unstable_by(|a, b| b.cmp(a));

    // Upper bound: FFD.
    let mut ffd_scratch = sorted.clone();
    let ub = super::ffd_repack::ffd_bin_count(&mut ffd_scratch);
    let lb = lower_bound(&sorted);
    if lb == ub {
        return BudgetedCount {
            bins: ub,
            complete: true,
        };
    }

    let mut suffix = vec![0u64; sorted.len() + 1];
    for i in (0..sorted.len()).rev() {
        suffix[i] = suffix[i + 1] + sorted[i];
    }
    let mut search = BpSearch {
        sizes: sorted,
        suffix,
        bins: [0; MAX_EXACT_ITEMS],
        open: 0,
        best: ub,
        budget,
        aborted: false,
    };
    search.recurse(0, lb);
    BudgetedCount {
        bins: search.best,
        complete: !search.aborted,
    }
}

/// Hard cap on exact search size. The CP-propagated search (L2 bound +
/// perfect-fit dominance) certifies noticeably larger multisets than the
/// plain volume-bound search this cap originally guarded (28).
pub const MAX_EXACT_ITEMS: usize = 40;

/// Martello–Toth L2 aggregate lower bound, maximised over the candidate
/// thresholds α (every distinct size ≤ C/2, plus α = 0 which recovers the
/// big-item count bound). For each α: items larger than `C − α` each need
/// a private bin (J1); items in `(C/2, C − α]` are pairwise incompatible
/// (J2) but their bins have residuals that can absorb part of the α-or-
/// larger small items (J3); whatever volume of J3 does not fit in those
/// residuals needs new bins. Dominates the plain ⌈volume⌉ and big-item
/// bounds the search used before.
fn lower_bound(sorted: &[u64]) -> u64 {
    let cap = SIZE_SCALE;
    let half = cap / 2;
    let total: u128 = sorted.iter().map(|&s| s as u128).sum();
    let mut best = total.div_ceil(cap as u128) as u64;
    let mut last_alpha = u64::MAX;
    for i in 0..=sorted.len() {
        // Candidates descend with the sort order; α = 0 closes the list.
        let alpha = if i < sorted.len() { sorted[i] } else { 0 };
        if alpha > half || alpha == last_alpha {
            continue;
        }
        last_alpha = alpha;
        let mut j1 = 0u64;
        let mut j2 = 0u64;
        let mut sum2: u128 = 0;
        let mut sum3: u128 = 0;
        for &s in sorted {
            if s > cap - alpha {
                j1 += 1;
            } else if s > half {
                j2 += 1;
                sum2 += s as u128;
            } else if s >= alpha && s > 0 {
                sum3 += s as u128;
            }
        }
        let free2 = (j2 as u128) * (cap as u128) - sum2;
        let overflow = sum3.saturating_sub(free2).div_ceil(cap as u128) as u64;
        best = best.max(j1 + j2 + overflow);
    }
    best.max(1)
}

/// The search state. Nodes allocate nothing: open bins live in a fixed
/// array, the remaining volume is a suffix sum, and the free space follows
/// from it (items `..idx` fill the open bins exactly). Sums stay exact in
/// `u64`: at most [`MAX_EXACT_ITEMS`] sizes of at most `SIZE_SCALE` each.
struct BpSearch<'b> {
    sizes: Vec<u64>,
    /// `suffix[i]` = Σ `sizes[i..]`.
    suffix: Vec<u64>,
    bins: [u64; MAX_EXACT_ITEMS],
    open: usize,
    best: u64,
    budget: &'b mut RefineBudget,
    aborted: bool,
}

impl BpSearch<'_> {
    /// One search node, charged exactly once: node counts, incumbents and
    /// aborts depend only on the bounds and the branch order below.
    fn recurse(&mut self, idx: usize, lb: u64) {
        if self.aborted {
            return;
        }
        if !self.budget.try_charge(1) {
            self.aborted = true;
            return;
        }
        let open = self.open;
        if open as u64 >= self.best {
            return;
        }
        if idx == self.sizes.len() {
            self.best = open as u64;
            return;
        }
        // Remaining-volume refinement: current bins' free space may absorb
        // some of the remaining volume; anything left needs new bins.
        let remaining = self.suffix[idx];
        let free = open as u64 * SIZE_SCALE - (self.suffix[0] - remaining);
        let overflow = remaining.saturating_sub(free);
        let needed = open as u64 + overflow.div_ceil(SIZE_SCALE);
        if needed.max(lb) >= self.best {
            return;
        }

        let s = self.sizes[idx];
        // Perfect-fit dominance: `s` is the largest remaining item (sizes
        // are sorted); if it exactly fills some bin's residual, placing it
        // there dominates every alternative — a single branch suffices.
        if let Some(b) = self.bins[..open]
            .iter()
            .position(|&load| load + s == SIZE_SCALE)
        {
            self.bins[b] += s;
            self.recurse(idx + 1, lb);
            self.bins[b] -= s;
            return;
        }
        // Try existing bins, skipping duplicate residual capacities
        // (placing into two bins with equal load is symmetric).
        let mut tried = [0u64; MAX_EXACT_ITEMS];
        let mut ntried = 0;
        for b in 0..open {
            let load = self.bins[b];
            if load + s > SIZE_SCALE || tried[..ntried].contains(&load) {
                continue;
            }
            tried[ntried] = load;
            ntried += 1;
            self.bins[b] += s;
            self.recurse(idx + 1, lb);
            self.bins[b] -= s;
        }
        // Open a new bin (canonical single branch).
        self.bins[open] = s;
        self.open += 1;
        self.recurse(idx + 1, lb);
        self.open -= 1;
    }
}

/// The pre-propagation branch-and-bound, frozen as a differential oracle:
/// plain `max(⌈volume⌉, big-item count)` root bound, no L2, no perfect-fit
/// dominance. Property tests assert the propagated search returns the same
/// counts while charging no more nodes.
pub fn exact_bin_count_reference_budgeted(
    sizes: &[u64],
    budget: &mut RefineBudget,
) -> BudgetedCount {
    assert!(sizes.len() <= MAX_EXACT_ITEMS);
    assert!(sizes.iter().all(|&s| s <= SIZE_SCALE), "oversized item");
    let mut sorted: Vec<u64> = sizes.iter().copied().filter(|&s| s > 0).collect();
    if sorted.is_empty() {
        return BudgetedCount {
            bins: 0,
            complete: true,
        };
    }
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let mut ffd_scratch = sorted.clone();
    let ub = super::ffd_repack::ffd_bin_count(&mut ffd_scratch);
    let total: u128 = sorted.iter().map(|&s| s as u128).sum();
    let half = SIZE_SCALE / 2;
    let big = sorted.iter().filter(|&&s| s > half).count() as u64;
    let lb = (total.div_ceil(SIZE_SCALE as u128) as u64).max(big).max(1);
    if lb == ub {
        return BudgetedCount {
            bins: ub,
            complete: true,
        };
    }
    let mut search = ReferenceBpSearch {
        sizes: sorted,
        best: ub,
        budget,
        aborted: false,
    };
    let mut bins: Vec<u64> = Vec::new();
    search.recurse(0, &mut bins, lb);
    BudgetedCount {
        bins: search.best,
        complete: !search.aborted,
    }
}

struct ReferenceBpSearch<'b> {
    sizes: Vec<u64>,
    best: u64,
    budget: &'b mut RefineBudget,
    aborted: bool,
}

impl ReferenceBpSearch<'_> {
    fn recurse(&mut self, idx: usize, bins: &mut Vec<u64>, lb: u64) {
        if self.aborted {
            return;
        }
        if !self.budget.try_charge(1) {
            self.aborted = true;
            return;
        }
        if bins.len() as u64 >= self.best {
            return;
        }
        if idx == self.sizes.len() {
            self.best = bins.len() as u64;
            return;
        }
        let remaining: u128 = self.sizes[idx..].iter().map(|&s| s as u128).sum();
        let free: u128 = bins.iter().map(|&b| (SIZE_SCALE - b) as u128).sum();
        let overflow = remaining.saturating_sub(free);
        let needed = bins.len() as u64 + overflow.div_ceil(SIZE_SCALE as u128) as u64;
        if needed.max(lb) >= self.best {
            return;
        }
        let s = self.sizes[idx];
        let mut tried: Vec<u64> = Vec::with_capacity(bins.len());
        for b in 0..bins.len() {
            let load = bins[b];
            if load + s > SIZE_SCALE || tried.contains(&load) {
                continue;
            }
            tried.push(load);
            bins[b] += s;
            self.recurse(idx + 1, bins, lb);
            bins[b] -= s;
        }
        bins.push(s);
        self.recurse(idx + 1, bins, lb);
        bins.pop();
    }
}

/// Independent cross-check: exact bin count by bitmask dynamic
/// programming (only for ≤ 16 items). Enumerates which subsets fit in one
/// bin, then computes the minimum chain cover. Exponentially slower than
/// the branch-and-bound but entirely different code — property tests
/// assert the two agree.
pub fn exact_bin_count_dp(sizes: &[u64]) -> u64 {
    let n = sizes.len();
    assert!(n <= 16, "DP cross-check limited to 16 items");
    assert!(sizes.iter().all(|&s| s <= SIZE_SCALE), "oversized item");
    let nonzero: Vec<u64> = sizes.iter().copied().filter(|&s| s > 0).collect();
    let n = nonzero.len();
    if n == 0 {
        return 0;
    }
    let full = (1usize << n) - 1;
    // fits[m] = subset m's total ≤ capacity.
    let mut sum = vec![0u128; full + 1];
    for m in 1..=full {
        let low = m.trailing_zeros() as usize;
        sum[m] = sum[m & (m - 1)] + nonzero[low] as u128;
    }
    let cap = SIZE_SCALE as u128;
    // best[m] = min bins to pack subset m.
    let mut best = vec![u32::MAX; full + 1];
    best[0] = 0;
    for m in 1..=full {
        // Iterate submasks s of m that include m's lowest item (canonical)
        // and fit in one bin.
        let low_bit = m & m.wrapping_neg();
        let mut s = m;
        while s > 0 {
            if s & low_bit != 0 && sum[s] <= cap && best[m ^ s] != u32::MAX {
                best[m] = best[m].min(best[m ^ s] + 1);
            }
            s = (s - 1) & m;
        }
    }
    best[full] as u64
}

/// Exact `OPT_R(σ)`, or `None` when some moment has more than
/// `max_active` concurrent items (to keep the search bounded). Pass at
/// most [`MAX_EXACT_ITEMS`].
///
/// Also `None` for vector (multi-dimensional) instances: the
/// branch-and-bound counts scalar bins, and scalarizing vector sizes
/// yields a bound, not the exact optimum — callers fall back to the
/// per-dimension analytic bracket instead.
pub fn exact_opt_r(instance: &Instance, max_active: usize) -> Option<Area> {
    assert!(max_active <= MAX_EXACT_ITEMS);
    if instance.items().iter().any(|it| !it.size.is_scalar()) {
        return None;
    }
    if instance.max_concurrency() > max_active {
        return None;
    }
    // Every segment is scalar and small enough for the exact search, so an
    // unlimited sweep certifies each one exactly: lower = upper = BP.
    let (bracket, _) = super::anytime::refine_opt_r(instance, true, &mut RefineBudget::unlimited());
    Some(bracket.lower)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbp_core::bounds::LowerBounds;
    use dbp_core::size::Size;
    use dbp_core::time::{Dur, Time};

    fn raw(v: &[(u64, u64)]) -> Vec<u64> {
        v.iter()
            .map(|&(n, d)| Size::from_ratio(n, d).raw())
            .collect()
    }

    #[test]
    fn exact_bin_count_basics() {
        assert_eq!(exact_bin_count(&[]), 0);
        assert_eq!(exact_bin_count(&raw(&[(1, 2), (1, 2)])), 1);
        assert_eq!(exact_bin_count(&raw(&[(1, 1), (1, 1)])), 2);
        assert_eq!(exact_bin_count(&raw(&[(2, 3), (2, 3), (1, 3), (1, 3)])), 2);
    }

    #[test]
    fn exact_beats_ffd_on_the_classic_counterexample() {
        // FFD needs 3 bins: {0.55,0.45}? Let's build sizes where FFD is
        // suboptimal: {0.6, 0.5, 0.5, 0.4} — FFD packs {0.6,0.4}... that's
        // 2 bins, optimal too. Classic FFD-suboptimal set:
        // {0.36, 0.36, 0.36, 0.28, 0.28, 0.28, 0.22, 0.22, 0.22, 0.22}
        // FFD: [0.36,0.36,0.28], [0.36,0.28,0.28], [0.22×4] → 3 bins.
        // Optimal: 3 × [0.36,0.28,0.22] + ... total volume 2.8 → 3 bins
        // either way; use the known FFD=11/9 family instead, scaled small:
        // sizes {6,6,6,5,5,5,4,4,4,4}/15: volume 49/15 ≈ 3.27 → LB 4.
        // FFD: [6,6]? 6+6=12≤15 +... just assert exact ≤ FFD and ≥ LB.
        let sizes = raw(&[
            (6, 15),
            (6, 15),
            (6, 15),
            (5, 15),
            (5, 15),
            (5, 15),
            (4, 15),
            (4, 15),
            (4, 15),
            (4, 15),
        ]);
        let mut ffd_scratch = sizes.clone();
        let ffd = super::super::ffd_repack::ffd_bin_count(&mut ffd_scratch);
        let exact = exact_bin_count(&sizes);
        assert!(exact <= ffd);
        assert!(
            exact
                >= lower_bound(&{
                    let mut s = sizes.clone();
                    s.sort_unstable_by(|a, b| b.cmp(a));
                    s
                })
        );
    }

    #[test]
    fn exact_finds_perfect_packings_ffd_misses() {
        // {0.51, 0.27, 0.26, 0.23, 0.49, 0.24}: volume = 2.0 exactly.
        // FFD (desc: 51,49,27,26,24,23): [51,49]×? 51+49=100 ✓ → bin1
        // holds 51+49; 27+26+24+23 = 100 ✓ bin2. FFD finds it too...
        // Construct FFD failure: sizes 45,34,33,33,28,27 (/100):
        // FFD: [45,34]=79+? next 33 no (112), so [45,34], [33,33,28]=94,
        // [27] → 3 bins. Optimal: [45,28,27]=100, [34,33,33]=100 → 2 bins.
        let sizes = raw(&[
            (45, 100),
            (34, 100),
            (33, 100),
            (33, 100),
            (28, 100),
            (27, 100),
        ]);
        let mut ffd_scratch = sizes.clone();
        let ffd = super::super::ffd_repack::ffd_bin_count(&mut ffd_scratch);
        assert_eq!(ffd, 3, "FFD is fooled here");
        assert_eq!(exact_bin_count(&sizes), 2, "exact finds the perfect split");
    }

    #[test]
    fn exact_opt_r_single_item() {
        let inst = Instance::from_triples([(Time(0), Dur(7), Size::from_ratio(1, 2))]).unwrap();
        assert_eq!(exact_opt_r(&inst, 10).unwrap().as_bin_ticks(), 7.0);
    }

    #[test]
    fn exact_opt_r_beats_nonrepacking() {
        // Repacking wins: two items that a non-repacking OPT must split
        // can be consolidated after a departure.
        let inst = Instance::from_triples([
            (Time(0), Dur(4), Size::from_ratio(3, 5)),
            (Time(0), Dur(2), Size::from_ratio(3, 5)),
            (Time(2), Dur(2), Size::from_ratio(2, 5)),
        ])
        .unwrap();
        let opt_r = exact_opt_r(&inst, 10).unwrap();
        // [0,2): {3/5,3/5} → 2 bins; [2,4): {3/5,2/5} → 1 bin. Total 6.
        assert_eq!(opt_r.as_bin_ticks(), 6.0);
        let opt_nr = super::super::exact::exact_opt_nr(&inst, 10);
        assert!(opt_r <= opt_nr.cost);
    }

    #[test]
    fn exact_opt_r_within_analytic_bracket() {
        let mut triples = Vec::new();
        let mut x = 99u64;
        for _ in 0..30 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let t = x % 32;
            let d = 1 + (x >> 8) % 16;
            let s = 1 + (x >> 16) % 60;
            triples.push((Time(t), Dur(d), Size::from_ratio(s, 100)));
        }
        let inst = Instance::from_triples(triples).unwrap();
        let exact = exact_opt_r(&inst, MAX_EXACT_ITEMS).expect("concurrency small enough");
        let lb = LowerBounds::of(&inst);
        assert!(exact >= lb.best());
        assert!(exact <= lb.ceil_integral.scale(2));
        // FFD-repack is an upper bound on the exact repacking optimum.
        let ffd = super::super::ffd_repack::ffd_repack_cost(&inst);
        assert!(exact <= ffd);
    }

    #[test]
    fn exact_opt_r_bails_on_high_concurrency() {
        let triples: Vec<_> = (0..12)
            .map(|_| (Time(0), Dur(4), Size::from_ratio(1, 20)))
            .collect();
        let inst = Instance::from_triples(triples).unwrap();
        assert!(exact_opt_r(&inst, 8).is_none());
        assert!(exact_opt_r(&inst, 12).is_some());
    }

    #[test]
    fn branch_and_bound_agrees_with_dp() {
        // Random multisets: two independent exact solvers must agree.
        let mut x = 7u64;
        for trial in 0..200 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let n = 1 + (x % 10) as usize;
            let mut sizes = Vec::with_capacity(n);
            for k in 0..n {
                let v = 1 + ((x >> (k % 48)) % 100);
                sizes.push(Size::from_ratio(v, 100).raw());
            }
            assert_eq!(
                exact_bin_count(&sizes),
                exact_bin_count_dp(&sizes),
                "trial {trial}: {sizes:?}"
            );
        }
    }

    #[test]
    fn dp_base_cases() {
        assert_eq!(exact_bin_count_dp(&[]), 0);
        assert_eq!(exact_bin_count_dp(&raw(&[(1, 2), (1, 2)])), 1);
        assert_eq!(exact_bin_count_dp(&raw(&[(1, 1), (1, 1)])), 2);
        assert_eq!(
            exact_bin_count_dp(&raw(&[
                (45, 100),
                (34, 100),
                (33, 100),
                (33, 100),
                (28, 100),
                (27, 100)
            ])),
            2
        );
    }

    #[test]
    fn budgeted_count_stays_feasible_and_degrades_to_ffd() {
        // A multiset where FFD is fooled (see the test above): under a
        // starvation budget the incumbent equals FFD and is not `complete`;
        // with room to search it finds the optimum and proves it.
        let sizes = raw(&[
            (45, 100),
            (34, 100),
            (33, 100),
            (33, 100),
            (28, 100),
            (27, 100),
        ]);
        let starved = exact_bin_count_budgeted(&sizes, &mut RefineBudget::nodes(1));
        assert_eq!(starved.bins, 3, "incumbent = FFD");
        assert!(!starved.complete);
        let full = exact_bin_count_budgeted(&sizes, &mut RefineBudget::unlimited());
        assert_eq!(full.bins, 2);
        assert!(full.complete);
        // The budgeted count is always sandwiched between them.
        for nodes in [4, 16, 64, 256] {
            let out = exact_bin_count_budgeted(&sizes, &mut RefineBudget::nodes(nodes));
            assert!(out.bins >= 2 && out.bins <= 3, "nodes={nodes}");
        }
    }

    #[test]
    #[should_panic(expected = "limited to")]
    fn exact_bin_count_guards_size() {
        let sizes = vec![1u64; MAX_EXACT_ITEMS + 1];
        exact_bin_count(&sizes);
    }
}
