//! Repack-every-event First-Fit-Decreasing: the constructive side of
//! Lemma 3.1.
//!
//! The lemma proves `OPT_R(σ) ≤ ∫ 2⌈S_t⌉ dt` by observing that a repacking
//! optimum can always keep every *pair* of bins at combined load > 1. FFD
//! achieves the same guarantee constructively: after packing the active
//! items at any moment with First-Fit-Decreasing, at most one bin has load
//! ≤ 1/2, so the bin count is < 2·S_t + 1 ≤ 2⌈S_t⌉ (when S_t > 0).
//!
//! Since a repacking algorithm's cost is just `∫ (#bins at t) dt` and the
//! bin count only changes at arrival/departure breakpoints, the exact cost
//! of "repack with FFD at every event" is a finite sum over profile
//! segments. Its measured cost is a *feasible repacking cost*, hence a
//! certified upper bound on `OPT_R(σ)` — the upper side of the experiment
//! bracket.

use dbp_core::cost::Area;
use dbp_core::instance::Instance;
use dbp_core::size::SIZE_SCALE;

/// Number of bins FFD uses for the given item sizes (raw fixed-point).
pub fn ffd_bin_count(sizes: &mut [u64]) -> u64 {
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    let mut bins: Vec<u64> = Vec::new();
    for &s in sizes.iter() {
        match bins.iter_mut().find(|b| **b + s <= SIZE_SCALE) {
            Some(b) => *b += s,
            None => bins.push(s),
        }
    }
    bins.len() as u64
}

/// The exact usage-time cost of repacking the active set with FFD at every
/// event breakpoint.
///
/// Vector items enter FFD by their **max component**: a packing feasible
/// under that scalarization is feasible in every dimension, so the result
/// stays a certified upper bound (and is bit-identical to the scalar
/// sweep at D = 1).
///
/// Computed by the incremental profile sweep of
/// [`refine_opt_r`](super::anytime::refine_opt_r), one FFD per segment.
pub fn ffd_repack_cost(instance: &Instance) -> Area {
    // FFD never exceeds 2⌈S_t⌉, so the unlimited FFD sweep's upper side
    // is exactly this cost.
    let (bracket, _) = super::anytime::refine_opt_r(
        instance,
        false,
        &mut super::budget::RefineBudget::unlimited(),
    );
    bracket.upper
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbp_core::bounds::LowerBounds;
    use dbp_core::size::Size;
    use dbp_core::time::{Dur, Time};

    fn sz(n: u64, d: u64) -> Size {
        Size::from_ratio(n, d)
    }

    #[test]
    fn ffd_bin_count_basics() {
        let s = |v: &[(u64, u64)]| -> Vec<u64> { v.iter().map(|&(n, d)| sz(n, d).raw()).collect() };
        assert_eq!(ffd_bin_count(&mut s(&[])), 0);
        assert_eq!(ffd_bin_count(&mut s(&[(1, 2), (1, 2)])), 1);
        assert_eq!(ffd_bin_count(&mut s(&[(2, 3), (2, 3), (1, 3), (1, 3)])), 2);
        assert_eq!(ffd_bin_count(&mut s(&[(1, 1), (1, 1), (1, 1)])), 3);
        // FFD puts {0.6,0.4} and {0.5,0.5}: 2 bins.
        assert_eq!(ffd_bin_count(&mut s(&[(3, 5), (1, 2), (1, 2), (2, 5)])), 2);
    }

    #[test]
    fn repack_cost_is_within_lemma_3_1_bracket() {
        let inst = Instance::from_triples([
            (Time(0), Dur(10), sz(2, 3)),
            (Time(2), Dur(5), sz(2, 3)),
            (Time(3), Dur(9), sz(2, 3)),
            (Time(4), Dur(2), sz(1, 5)),
            (Time(15), Dur(5), sz(1, 10)),
        ])
        .unwrap();
        let cost = ffd_repack_cost(&inst);
        let lb = LowerBounds::of(&inst);
        assert!(cost >= lb.best(), "feasible cost cannot beat certified LB");
        assert!(
            cost <= lb.ceil_integral.scale(2),
            "FFD violates the Lemma 3.1 2⌈S_t⌉ guarantee"
        );
    }

    #[test]
    fn repack_cost_exact_on_single_item() {
        let inst = Instance::from_triples([(Time(3), Dur(7), sz(1, 2))]).unwrap();
        assert_eq!(ffd_repack_cost(&inst).as_bin_ticks(), 7.0);
    }

    #[test]
    fn repack_beats_nonrepacking_on_staircase() {
        // Staircase where repacking consolidates: two items overlap briefly
        // then one departs; a third arrives fitting only if repacked.
        let inst = Instance::from_triples([
            (Time(0), Dur(4), sz(3, 5)),
            (Time(0), Dur(2), sz(3, 5)),
            (Time(2), Dur(2), sz(3, 5)),
        ])
        .unwrap();
        // Active sets: [0,2): {3/5,3/5} → 2 bins; [2,4): {3/5,3/5} → 2 bins.
        assert_eq!(ffd_repack_cost(&inst).as_bin_ticks(), 8.0);
    }

    #[test]
    fn empty_instance_costs_nothing() {
        assert_eq!(ffd_repack_cost(&Instance::empty()), Area::ZERO);
    }
}
