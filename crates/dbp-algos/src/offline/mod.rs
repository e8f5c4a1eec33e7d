//! Offline comparators: repacking FFD (Lemma 3.1 constructive bound), the
//! non-repacking portfolio (OPT_NR upper proxy), and exact branch-and-bound
//! (ground truth on tiny instances).

pub mod anytime;
pub mod budget;
pub mod exact;
pub mod exact_repack;
pub mod ffd_repack;
pub mod nonrepack;

pub use anytime::{refine_opt_r, RefineStats};
pub use budget::RefineBudget;
pub use exact::{exact_opt_nr, exact_opt_nr_budgeted, exact_opt_nr_reference_budgeted, ExactOpt};
pub use exact_repack::{
    exact_bin_count, exact_bin_count_budgeted, exact_bin_count_dp,
    exact_bin_count_reference_budgeted, exact_opt_r, BudgetedCount, MAX_EXACT_ITEMS,
};
pub use ffd_repack::{ffd_bin_count, ffd_repack_cost};
pub use nonrepack::{best_nonrepacking, best_nonrepacking_budgeted, PortfolioResult};

use dbp_core::bounds::OptBracket;
use dbp_core::instance::Instance;

/// Peak concurrency up to which [`opt_r_bracket`] solves OPT_R exactly
/// (per-moment branch-and-bound bin packing stays fast below this).
pub const EXACT_OPT_R_CONCURRENCY: usize = 16;

/// The tightest bracket on `OPT_R` this crate can certify: when peak
/// concurrency is at most [`EXACT_OPT_R_CONCURRENCY`] the repacking
/// optimum is computed *exactly* (it decomposes per-moment, see
/// [`exact_repack`]) and the bracket collapses to a point; otherwise the
/// analytic lower bounds are paired with the cheaper of `2∫⌈S_t⌉` and the
/// FFD-repack cost.
pub fn opt_r_bracket(instance: &Instance) -> OptBracket {
    if instance.max_concurrency() <= EXACT_OPT_R_CONCURRENCY {
        if let Some(exact) = exact_opt_r(instance, EXACT_OPT_R_CONCURRENCY) {
            return OptBracket {
                lower: exact,
                upper: exact,
            };
        }
    }
    OptBracket::of(instance).tighten_upper(ffd_repack_cost(instance))
}

/// The tightest bracket on `OPT_NR`: same lower bounds (OPT_NR ≥ OPT_R),
/// the best portfolio packing above.
pub fn opt_nr_bracket(instance: &Instance) -> OptBracket {
    OptBracket::of(instance).tighten_upper(best_nonrepacking(instance).cost)
}

#[cfg(test)]
pub(crate) mod tests_support {
    //! Shared fixtures for sibling modules' tests.
    use dbp_core::instance::{Instance, InstanceBuilder};
    use dbp_core::size::Size;
    use dbp_core::time::{Dur, Time};

    /// A small FF-pathology-shaped instance: groups of equal-size items,
    /// the first of each group long-lived.
    pub(crate) fn pathology_like() -> Instance {
        let k = 8u64;
        let size = Size::from_ratio(1, k);
        let mut b = InstanceBuilder::new();
        for _ in 0..k {
            b.push(Time(0), Dur(64), size);
            for _ in 1..k {
                b.push(Time(0), Dur(1), size);
            }
        }
        b.build().expect("valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbp_core::size::Size;
    use dbp_core::time::{Dur, Time};

    #[test]
    fn brackets_nest_correctly() {
        let inst = Instance::from_triples([
            (Time(0), Dur(2), Size::from_ratio(1, 2)),
            (Time(0), Dur(10), Size::from_ratio(1, 2)),
            (Time(0), Dur(10), Size::from_ratio(1, 2)),
            (Time(4), Dur(4), Size::from_ratio(1, 4)),
        ])
        .unwrap();
        let br = opt_r_bracket(&inst);
        let bnr = opt_nr_bracket(&inst);
        assert!(br.lower <= br.upper);
        assert!(bnr.lower <= bnr.upper);
        // The repacking optimum can only be cheaper.
        assert!(br.lower <= bnr.upper);
        // Exact OPT_NR sits inside the NR bracket.
        let exact = exact_opt_nr(&inst, 8);
        assert!(bnr.lower <= exact.cost && exact.cost <= bnr.upper);
    }
}
