//! Differential battery for the CP-propagated exact searches (PR 10).
//!
//! The propagated branch-and-bounds (`exact_bin_count_budgeted`,
//! `exact_opt_nr_budgeted`) must be *pure accelerations* of the frozen
//! pre-propagation references: bit-identical optima on every instance —
//! scalar and vector, both goals — while never charging more nodes. Plus
//! budget monotonicity: growing the node allowance never loosens a
//! refined bracket.
//!
//! The allocation-free branch-and-bound node is pinned node for node
//! against a frozen copy of the `Vec`-based search it replaced: the same
//! `BudgetedCount` and the same `spent()` under every budget, so the
//! ladder's incumbents and aborts cannot drift when a budget runs out.

use dbp_algos::offline::{
    exact_bin_count_budgeted, exact_bin_count_dp, exact_bin_count_reference_budgeted,
    exact_opt_nr_budgeted, exact_opt_nr_reference_budgeted, ffd_bin_count, refine_opt_r,
    BudgetedCount, RefineBudget, MAX_EXACT_ITEMS,
};
use dbp_core::size::SIZE_SCALE;
use dbp_core::{Dur, Instance, Size, SizeVec, Time};
use proptest::prelude::*;

type Triple = (u64, u64, u64); // (arrival, duration, size as n/100)
type VecTriple = (u64, u64, (u64, u64, u64)); // per-dimension sizes n/100

fn arb_scalar_triples() -> impl Strategy<Value = Vec<Triple>> {
    prop::collection::vec((0u64..40, 1u64..=16, 1u64..=100), 1..=10)
}

fn arb_vector_triples() -> impl Strategy<Value = Vec<VecTriple>> {
    prop::collection::vec(
        (0u64..40, 1u64..=16, (1u64..=100, 1u64..=100, 1u64..=100)),
        1..=8,
    )
}

fn build_scalar(triples: &[Triple]) -> Instance {
    Instance::from_triples(
        triples
            .iter()
            .map(|&(t, d, s)| (Time(t), Dur(d), Size::from_ratio(s, 100))),
    )
    .expect("valid instance")
}

fn build_vector(triples: &[VecTriple]) -> Instance {
    Instance::from_triples(triples.iter().map(|&(t, d, (a, b, c))| {
        let size = SizeVec::from_sizes(&[
            Size::from_ratio(a, 100),
            Size::from_ratio(b, 100),
            Size::from_ratio(c, 100),
        ])
        .expect("three dims in range");
        (Time(t), Dur(d), size)
    }))
    .expect("valid instance")
}

/// Frozen copy of `exact_bin_count_budgeted` with the `Vec`-based search
/// node it used before the node became allocation-free. Test-only oracle:
/// the production search must reproduce its counts and its node charges
/// exactly.
fn frozen_bin_count_budgeted(sizes: &[u64], budget: &mut RefineBudget) -> BudgetedCount {
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
    let ub = ffd_bin_count(&mut ffd_scratch);
    let lb = frozen_lower_bound(&sorted);
    if lb == ub {
        return BudgetedCount {
            bins: ub,
            complete: true,
        };
    }

    let mut search = FrozenBpSearch {
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

fn frozen_lower_bound(sorted: &[u64]) -> u64 {
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

struct FrozenBpSearch<'b> {
    sizes: Vec<u64>,
    best: u64,
    budget: &'b mut RefineBudget,
    aborted: bool,
}

impl FrozenBpSearch<'_> {
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
        // Remaining-volume refinement: current bins' free space may absorb
        // some of the remaining volume; anything left needs new bins.
        let remaining: u128 = self.sizes[idx..].iter().map(|&s| s as u128).sum();
        let free: u128 = bins.iter().map(|&b| (SIZE_SCALE - b) as u128).sum();
        let overflow = remaining.saturating_sub(free);
        let needed = bins.len() as u64 + overflow.div_ceil(SIZE_SCALE as u128) as u64;
        if needed.max(lb) >= self.best {
            return;
        }

        let s = self.sizes[idx];
        // Perfect-fit dominance: `s` is the largest remaining item (sizes
        // are sorted); if it exactly fills some bin's residual, placing it
        // there dominates every alternative — a single branch suffices.
        if let Some(b) = bins.iter().position(|&load| load + s == SIZE_SCALE) {
            bins[b] += s;
            self.recurse(idx + 1, bins, lb);
            bins[b] -= s;
            return;
        }
        // Try existing bins, skipping duplicate residual capacities
        // (placing into two bins with equal load is symmetric).
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
        // Open a new bin (canonical single branch).
        bins.push(s);
        self.recurse(idx + 1, bins, lb);
        bins.pop();
    }
}

/// The largest finite budget of the node-for-node differential.
const SEARCH_CAP: u64 = 200_000;

/// Runs the production and the frozen search under the same budget and
/// requires the same outcome and the same node charges.
fn same_as_frozen(raws: &[u64], budget: RefineBudget) -> Result<(), TestCaseError> {
    let mut live_budget = budget.clone();
    let mut frozen_budget = budget;
    let live = exact_bin_count_budgeted(raws, &mut live_budget);
    let frozen = frozen_bin_count_budgeted(raws, &mut frozen_budget);
    prop_assert_eq!(live, frozen, "sizes {:?}", raws);
    prop_assert_eq!(
        live_budget.spent(),
        frozen_budget.spent(),
        "sizes {:?}",
        raws
    );
    prop_assert_eq!(live_budget.exhausted(), frozen_budget.exhausted());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Per-segment bin packing: the propagated search returns the same
    /// optimum as the frozen reference (and the bitmask DP) while
    /// charging no more nodes.
    #[test]
    fn bp_matches_reference_with_fewer_nodes(
        sizes in prop::collection::vec(1u64..=100, 1..=12),
    ) {
        let raws: Vec<u64> = sizes.iter().map(|&s| Size::from_ratio(s, 100).raw()).collect();
        let mut cp_budget = RefineBudget::unlimited();
        let mut ref_budget = RefineBudget::unlimited();
        let cp = exact_bin_count_budgeted(&raws, &mut cp_budget);
        let reference = exact_bin_count_reference_budgeted(&raws, &mut ref_budget);
        prop_assert!(cp.complete && reference.complete);
        prop_assert_eq!(cp.bins, reference.bins);
        prop_assert_eq!(cp.bins, exact_bin_count_dp(&raws));
        prop_assert!(
            cp_budget.spent() <= ref_budget.spent(),
            "propagation must not search more: cp={} ref={}",
            cp_budget.spent(),
            ref_budget.spent()
        );
    }

    /// Node-for-node identity with the frozen `Vec`-based search on
    /// multisets up to the exact cap, under budgets from a single node to
    /// unlimited: equal counts, equal completeness, equal `spent()`.
    /// Sizes are drawn per mille from a band `[lo, lo + span]`: wide
    /// bands often close at the root (L2 = FFD), narrow bands around a
    /// third or a quarter of a bin defeat FFD and branch deeply, so many
    /// budgeted runs abort mid-search. An exhaustive search can take
    /// minutes on the hardest draws, so the unlimited budget runs where
    /// the search finishes within `SEARCH_CAP` nodes.
    #[test]
    fn bp_node_counts_match_the_frozen_search(
        sizes in prop::collection::vec(0u64..1000, 1..=MAX_EXACT_ITEMS),
        lo in 100u64..=400,
        span in 0u64..=250,
        small in 1u64..=64,
        large in 65u64..=SEARCH_CAP,
    ) {
        let raws: Vec<u64> = sizes
            .iter()
            .map(|&s| Size::from_ratio(lo + s % (span + 1), 1000).raw())
            .collect();
        for nodes in [1, small, large, SEARCH_CAP] {
            same_as_frozen(&raws, RefineBudget::nodes(nodes))?;
        }
        if exact_bin_count_budgeted(&raws, &mut RefineBudget::nodes(SEARCH_CAP)).complete {
            same_as_frozen(&raws, RefineBudget::unlimited())?;
        }
    }

    /// Scalar OPT_NR: propagated and reference searches agree bit-for-bit
    /// on cost, and the propagated one never charges more nodes.
    #[test]
    fn opt_nr_scalar_matches_reference(triples in arb_scalar_triples()) {
        let inst = build_scalar(&triples);
        let mut cp_budget = RefineBudget::unlimited();
        let mut ref_budget = RefineBudget::unlimited();
        let cp = exact_opt_nr_budgeted(&inst, 10, &mut cp_budget).expect("unlimited");
        let reference =
            exact_opt_nr_reference_budgeted(&inst, 10, &mut ref_budget).expect("unlimited");
        prop_assert_eq!(cp.cost, reference.cost);
        prop_assert!(
            cp_budget.spent() <= ref_budget.spent(),
            "propagation must not search more: cp={} ref={}",
            cp_budget.spent(),
            ref_budget.spent()
        );
    }

    /// Vector OPT_NR: same agreement on multi-dimensional instances (the
    /// sketch capacity check and the interval bound are per-dimension).
    #[test]
    fn opt_nr_vector_matches_reference(triples in arb_vector_triples()) {
        let inst = build_vector(&triples);
        let mut cp_budget = RefineBudget::unlimited();
        let mut ref_budget = RefineBudget::unlimited();
        let cp = exact_opt_nr_budgeted(&inst, 8, &mut cp_budget).expect("unlimited");
        let reference =
            exact_opt_nr_reference_budgeted(&inst, 8, &mut ref_budget).expect("unlimited");
        prop_assert_eq!(cp.cost, reference.cost);
        prop_assert!(cp_budget.spent() <= ref_budget.spent());
    }

    /// Budget monotonicity: a larger node allowance never loosens the
    /// refined OPT_R bracket on either side (the sweep is deterministic,
    /// so a bigger budget visits a superset of the smaller run's work).
    #[test]
    fn refine_budget_is_monotone(triples in arb_scalar_triples(), nodes in 16u64..20_000) {
        let inst = build_scalar(&triples);
        let (small, _) = refine_opt_r(&inst, true, &mut RefineBudget::nodes(nodes));
        let (large, _) = refine_opt_r(&inst, true, &mut RefineBudget::nodes(nodes * 4));
        let (full, _) = refine_opt_r(&inst, true, &mut RefineBudget::unlimited());
        prop_assert!(small.lower <= small.upper);
        prop_assert!(large.lower >= small.lower && large.upper <= small.upper);
        prop_assert!(full.lower >= large.lower && full.upper <= large.upper);
    }

    /// Budget monotonicity for exact OPT_NR: whenever two allowances both
    /// complete, their costs are identical; a prefix allowance never
    /// "invents" a different optimum.
    #[test]
    fn exact_nr_budget_is_monotone(triples in arb_scalar_triples(), nodes in 1u64..5_000) {
        let inst = build_scalar(&triples);
        let partial = exact_opt_nr_budgeted(&inst, 10, &mut RefineBudget::nodes(nodes));
        let full = exact_opt_nr_budgeted(&inst, 10, &mut RefineBudget::unlimited())
            .expect("unlimited");
        if let Some(partial) = partial {
            prop_assert_eq!(partial.cost, full.cost);
        }
    }
}
