//! Departure-Aware Fit: a natural clairvoyant heuristic baseline.
//!
//! Not from the paper — included as the "obvious" way to use clairvoyance,
//! against which HA's more subtle type/threshold machinery is compared in
//! the ablation experiments. On arrival, the item is placed into the open
//! bin whose current *closing time* (latest departure among residents) is
//! closest to the item's own departure, among bins that fit; ties prefer
//! bins the item does not extend. Intuition: co-locating items that end
//! together wastes the least usage time — and indeed it is near-optimal on
//! benign traces, but the Section 4 adversary still forces `Ω(√log μ)` on
//! it like on every online algorithm. A bin's closing time is the latest
//! resident departure the engine's bin store books per bin, so the
//! algorithm is stateless.

use dbp_core::algorithm::{OnlineAlgorithm, Placement, SimView};
use dbp_core::item::Item;

/// Departure-aware best-match fit.
#[derive(Debug, Clone, Default)]
pub struct DepartureAwareFit;

impl DepartureAwareFit {
    /// Creates the algorithm.
    pub fn new() -> DepartureAwareFit {
        DepartureAwareFit
    }
}

impl OnlineAlgorithm for DepartureAwareFit {
    fn name(&self) -> &str {
        "departure-aware-fit"
    }

    fn on_arrival(&mut self, view: &SimView<'_>, item: &Item) -> Placement {
        // Among fitting bins minimize |bin_close − item.departure|, with a
        // preference for bins closing at/after the item (no span
        // extension): order by (extends, distance, earliest bin).
        view.open_bins()
            .filter(|rec| rec.fits(item.size))
            .map(|rec| {
                let close = rec.latest_departure.ticks();
                let due = item.departure.ticks();
                if close >= due {
                    (0u8, close - due, rec.id)
                } else {
                    (1u8, due - close, rec.id)
                }
            })
            .min()
            .map_or(Placement::OpenNew, |(_, _, b)| Placement::Existing(b))
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
    fn prefers_bin_ending_with_the_item() {
        // Bin A closes at 10, bin B at 100. A new item [1, 10) should join
        // A (exact departure match) even though B was opened first... make
        // B first: order b0 closes 100, b1 closes 10.
        let inst = Instance::from_triples([
            (Time(0), Dur(100), sz(1, 2)),
            (Time(0), Dur(10), sz(2, 3)), // cannot share with the first → b1
            (Time(1), Dur(9), sz(1, 4)),  // fits both; departure 10
        ])
        .unwrap();
        let res = engine::run(&inst, DepartureAwareFit::new()).unwrap();
        assert_eq!(
            res.assignment[2], res.assignment[1],
            "joins the bin closing at 10"
        );
        // First-Fit would pick bin 0 instead.
        let ff = engine::run(&inst, crate::any_fit::FirstFit::new()).unwrap();
        assert_eq!(ff.assignment[2], ff.assignment[0]);
    }

    #[test]
    fn avoids_extending_bins_when_possible() {
        // Item departs at 50. Bin A closes at 49 (extend by 1), bin B at 60
        // (no extension, distance 10): must pick B.
        let inst = Instance::from_triples([
            (Time(0), Dur(49), sz(2, 3)),
            (Time(0), Dur(60), sz(2, 3)),
            (Time(1), Dur(49), sz(1, 4)), // departs at 50
        ])
        .unwrap();
        let res = engine::run(&inst, DepartureAwareFit::new()).unwrap();
        assert_eq!(res.assignment[2], res.assignment[1]);
    }

    #[test]
    fn valid_packing_and_audit_agree() {
        let inst = Instance::from_triples([
            (Time(0), Dur(8), sz(1, 2)),
            (Time(0), Dur(3), sz(1, 2)),
            (Time(1), Dur(7), sz(1, 2)),
            (Time(2), Dur(2), sz(1, 2)),
            (Time(4), Dur(4), sz(3, 4)),
        ])
        .unwrap();
        let res = engine::run(&inst, DepartureAwareFit::new()).unwrap();
        let audit = dbp_core::assignment::audit(&inst, &res.assignment).unwrap();
        assert_eq!(audit.cost, res.cost);
    }
}
