//! Classify-by-Duration (CBD): the prior-art clairvoyant strategy.
//!
//! Items are classified by duration into geometric bands and each band is
//! packed First-Fit into its own bins. With binary bands (`width = 1`,
//! i.e. band ratio 2) this is the classical classify-by-duration strategy
//! the paper cites as `Ω(log μ)`-competitive; grouping `w` binary classes
//! per band (band ratio `2^w`) recovers the tunable family of Ren & Tang
//! (SPAA 2016), which optimised the band count to get
//! `O(log μ / log log μ)`.
//!
//! CBD is clairvoyant (it reads the item's duration, known on arrival) but
//! ignores the *load* dimension that HA adds — the experiments show this is
//! exactly what costs it the extra factor on sparse duration ladders.
//! Each band is an engine bin class, so CBD itself is stateless.

use dbp_core::algorithm::{OnlineAlgorithm, Placement, SimView};
use dbp_core::bin_state::BinClass;
use dbp_core::item::Item;

/// Classify-by-duration with configurable band width (in binary duration
/// classes per band).
#[derive(Debug, Clone)]
pub struct ClassifyByDuration {
    /// Number of binary duration classes per band (≥ 1).
    width: u32,
    name: String,
}

impl ClassifyByDuration {
    /// Classical binary classify-by-duration (band ratio 2).
    pub fn binary() -> ClassifyByDuration {
        ClassifyByDuration::with_width(1)
    }

    /// Bands of `width` binary classes (band ratio `2^width`).
    ///
    /// # Panics
    /// Panics if `width == 0`.
    pub fn with_width(width: u32) -> ClassifyByDuration {
        assert!(width >= 1, "band width must be positive");
        ClassifyByDuration {
            width,
            name: format!("classify-duration(w={width})"),
        }
    }

    /// The band of an item: its binary duration class divided by the width.
    fn band(&self, item: &Item) -> BinClass {
        BinClass(u64::from(item.class_index() / self.width))
    }
}

impl OnlineAlgorithm for ClassifyByDuration {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_arrival(&mut self, view: &SimView<'_>, item: &Item) -> Placement {
        let band = self.band(item);
        // First-Fit restricted to this band's bins: one O(log band) query.
        match view.first_fit_in(band, item.size) {
            Some(b) => Placement::Existing(b),
            None => Placement::OpenIn(band),
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
    fn different_classes_never_share_bins() {
        // A short and a long item, both tiny: FF would co-locate them; CBD
        // must not.
        let inst =
            Instance::from_triples([(Time(0), Dur(1), sz(1, 10)), (Time(0), Dur(64), sz(1, 10))])
                .unwrap();
        let res = engine::run(&inst, ClassifyByDuration::binary()).unwrap();
        assert_ne!(res.assignment[0], res.assignment[1]);
        assert_eq!(res.bins_opened, 2);
    }

    #[test]
    fn same_class_packs_first_fit() {
        let inst = Instance::from_triples([
            (Time(0), Dur(4), sz(1, 2)),
            (Time(0), Dur(3), sz(1, 2)),
            (Time(0), Dur(4), sz(1, 2)),
        ])
        .unwrap();
        let res = engine::run(&inst, ClassifyByDuration::binary()).unwrap();
        // Durations 4 and 3 share class 2: the first two co-locate, the
        // third overflows into a second bin of the class.
        assert_eq!(res.assignment[0], res.assignment[1]);
        assert_ne!(res.assignment[0], res.assignment[2]);
    }

    #[test]
    fn width_groups_classes() {
        // Durations 1 (class 0) and 4 (class 2) share a band at width 3.
        let inst =
            Instance::from_triples([(Time(0), Dur(1), sz(1, 4)), (Time(0), Dur(4), sz(1, 4))])
                .unwrap();
        let wide = engine::run(&inst, ClassifyByDuration::with_width(3)).unwrap();
        assert_eq!(wide.assignment[0], wide.assignment[1]);
        let narrow = engine::run(&inst, ClassifyByDuration::binary()).unwrap();
        assert_ne!(narrow.assignment[0], narrow.assignment[1]);
    }

    #[test]
    fn closed_bins_are_dropped_from_bands() {
        // Class-0 bin closes at t=1; a later class-0 item needs a new bin
        // and the algorithm must not propose the stale id.
        let inst =
            Instance::from_triples([(Time(0), Dur(1), sz(1, 2)), (Time(5), Dur(1), sz(1, 2))])
                .unwrap();
        let res = engine::run(&inst, ClassifyByDuration::binary()).unwrap();
        assert_eq!(res.bins_opened, 2);
        assert_eq!(res.cost.as_bin_ticks(), 2.0);
    }

    #[test]
    #[should_panic(expected = "band width must be positive")]
    fn zero_width_rejected() {
        ClassifyByDuration::with_width(0);
    }

    #[test]
    fn reset_allows_reuse_across_instances() {
        let inst = Instance::from_triples([(Time(0), Dur(1), sz(1, 2))]).unwrap();
        let algo = ClassifyByDuration::binary();
        let r1 = engine::run(&inst, algo.clone()).unwrap();
        // `run` resets internally; a reused value must behave identically.
        let mut algo2 = algo;
        algo2.reset();
        let r2 = engine::run(&inst, algo2).unwrap();
        assert_eq!(r1.assignment, r2.assignment);
    }

    #[test]
    fn log_mu_blowup_on_nested_ladder() {
        // The classic CBD pathology: one tiny item per class, all
        // concurrent. CBD opens a bin per class; OPT packs them together.
        let mut triples = Vec::new();
        let classes = 8u32;
        for i in 0..classes {
            triples.push((Time(0), Dur(1 << i), sz(1, 100)));
        }
        let inst = Instance::from_triples(triples).unwrap();
        let res = engine::run(&inst, ClassifyByDuration::binary()).unwrap();
        assert_eq!(res.bins_opened, classes as usize);
        // Cost is the full geometric sum ~2·2^classes; OPT ≈ 2^classes span.
        let bracket = dbp_core::bounds::OptBracket::of(&inst);
        let (_, hi) = bracket.ratio_bracket(res.cost);
        assert!(hi > 1.9, "CBD must pay ~2x span here, got {hi}");
    }
}
