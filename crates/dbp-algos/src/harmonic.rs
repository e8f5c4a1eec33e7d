//! Harmonic(K): the classical *size*-classification algorithm, adapted to
//! the dynamic setting as a contrast baseline.
//!
//! Classical online bin packing fights wasted *space*; Harmonic classifies
//! items by size into `(1/2, 1]`, `(1/3, 1/2], …, (0, 1/K]` and packs each
//! class separately (k items of class k per bin). In the MinUsageTime
//! world the enemy is wasted *time*, not space — Harmonic is included so
//! the benign-workload tables can show that size classification neither
//! helps nor replaces duration awareness: it inherits First-Fit's Ω(μ)
//! pathology *and* pays extra span for class fragmentation. Each size
//! class is an engine bin class, packed First-Fit.

use dbp_core::algorithm::{OnlineAlgorithm, Placement, SimView};
use dbp_core::bin_state::BinClass;
use dbp_core::item::Item;
use dbp_core::size::SIZE_SCALE;

/// Harmonic with `K` size classes.
#[derive(Debug, Clone)]
pub struct Harmonic {
    k: u32,
    name: String,
}

impl Harmonic {
    /// Harmonic with `K ≥ 1` classes (class `c < K` holds sizes in
    /// `(1/(c+2), 1/(c+1)]`; class `K−1` also absorbs everything smaller).
    pub fn new(k: u32) -> Harmonic {
        assert!(k >= 1, "need at least one class");
        Harmonic {
            k,
            name: format!("harmonic({k})"),
        }
    }

    /// The size class of an item: the largest `c` with
    /// `size ≤ 1/(c+1)`, clamped to `K−1`.
    fn class(&self, item: &Item) -> u32 {
        let raw = item.size.max_raw().max(1);
        // c+1 = floor(1 / size) ⇒ c = floor(SCALE / raw) − 1 (≥ 0 since
        // raw ≤ SCALE).
        let inv = (SIZE_SCALE / raw).max(1);
        ((inv - 1) as u32).min(self.k - 1)
    }
}

impl OnlineAlgorithm for Harmonic {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_arrival(&mut self, view: &SimView<'_>, item: &Item) -> Placement {
        let class = BinClass(u64::from(self.class(item)));
        match view.first_fit_in(class, item.size) {
            Some(b) => Placement::Existing(b),
            None => Placement::OpenIn(class),
        }
    }

    fn reset(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbp_core::engine;
    use dbp_core::instance::Instance;
    use dbp_core::size::Size;
    use dbp_core::time::{Dur, Time};

    fn sz(n: u64, d: u64) -> Size {
        Size::from_ratio(n, d)
    }

    #[test]
    fn class_boundaries() {
        let h = Harmonic::new(5);
        let item = |n, d| {
            Instance::from_triples([(Time(0), Dur(1), sz(n, d))])
                .unwrap()
                .items()[0]
        };
        assert_eq!(h.class(&item(3, 4)), 0, "(1/2,1] is class 0");
        assert_eq!(h.class(&item(1, 2)), 1, "exactly 1/2 fits 2 per bin");
        assert_eq!(h.class(&item(2, 5)), 1, "(1/3,1/2] is class 1");
        assert_eq!(h.class(&item(1, 3)), 2);
        assert_eq!(h.class(&item(1, 100)), 4, "tail clamps to K−1");
    }

    #[test]
    fn separates_big_and_small() {
        // A big and a tiny item that FF would co-locate.
        let inst =
            Instance::from_triples([(Time(0), Dur(8), sz(3, 5)), (Time(0), Dur(8), sz(1, 10))])
                .unwrap();
        let res = engine::run(&inst, Harmonic::new(4)).unwrap();
        assert_eq!(res.bins_opened, 2);
        let ff = engine::run(&inst, crate::any_fit::FirstFit::new()).unwrap();
        assert_eq!(ff.bins_opened, 1);
    }

    #[test]
    fn same_class_packs_k_per_bin() {
        // Four 1/3-ish items: class (1/3,1/2]... use exactly 1/3 → class 2,
        // 3 per bin.
        let triples: Vec<_> = (0..4).map(|_| (Time(0), Dur(4), sz(1, 3))).collect();
        let inst = Instance::from_triples(triples).unwrap();
        let res = engine::run(&inst, Harmonic::new(6)).unwrap();
        assert_eq!(res.bins_opened, 2, "3 + 1");
    }

    #[test]
    fn valid_on_mixed_traffic() {
        let mut x = 3u64;
        let mut triples = Vec::new();
        for k in 0..150u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            triples.push((Time(k / 3), Dur(1 + x % 32), sz(1 + (x >> 9) % 90, 100)));
        }
        let inst = Instance::from_triples(triples).unwrap();
        let res = engine::run(&inst, Harmonic::new(6)).unwrap();
        let audit = dbp_core::assignment::audit(&inst, &res.assignment).unwrap();
        assert_eq!(audit.cost, res.cost);
    }

    #[test]
    fn still_trapped_by_the_nonclairvoyant_pathology() {
        // Same-size items → one class → behaves like FF on the trap.
        let inst = crate::offline::tests_support::pathology_like();
        let h = engine::run(&inst, Harmonic::new(4)).unwrap();
        let ff = engine::run(&inst, crate::any_fit::FirstFit::new()).unwrap();
        assert_eq!(h.cost, ff.cost);
    }

    #[test]
    #[should_panic(expected = "at least one class")]
    fn zero_classes_rejected() {
        Harmonic::new(0);
    }
}
