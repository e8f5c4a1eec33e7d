//! The adaptive non-clairvoyant adversary (Li et al., SPAA 2014 — the μ
//! lower bound of Table 1's bottom row).
//!
//! Against a *non-clairvoyant* algorithm the adversary controls departure
//! times *after* seeing placements: it releases `k·k` tiny items (size
//! `1/k`) with undecided departures, watches which bins the algorithm
//! used — any algorithm must open ≥ k bins, the load forces it — then
//! keeps exactly **one survivor per bin** alive for `μ` ticks and departs
//! everything else at time 1. The victim pays ≥ k·μ (every bin it opened
//! is pinned by its survivor); the optimum packs the ≤ (#bins)/k·… —
//! concretely, all survivors of size `1/k` fit a handful of bins, so
//! OPT ≈ μ. With `k = μ` the forced ratio is `Θ(μ)`.
//!
//! This uses [`InteractiveSim::arrive_undated`] /
//! [`InteractiveSim::set_departure`] — placement first, departure second —
//! which is exactly the informational asymmetry the clairvoyant model
//! removes.

use std::collections::HashMap;

use dbp_core::algorithm::OnlineAlgorithm;
use dbp_core::bin_state::BinId;
use dbp_core::engine::{InteractiveSim, PackingResult};
use dbp_core::error::EngineError;
use dbp_core::instance::Instance;
use dbp_core::item::ItemId;
use dbp_core::size::Size;
use dbp_core::time::Time;
use dbp_core::{NoopSink, SimConfig};

/// Outcome of the non-clairvoyant adversary.
#[derive(Debug, Clone)]
pub struct NcAdversaryOutcome {
    /// The instance realized by the adversary's departure choices.
    pub instance: Instance,
    /// The victim's measurements.
    pub result: PackingResult,
    /// Bins the victim used in phase 1 (each gets a survivor).
    pub bins_pinned: usize,
}

/// Runs the adversary: `k·k` items of size `1/k`; survivors live `mu`
/// ticks.
///
/// # Panics
/// Panics if `k < 2` or `mu < 2`.
pub fn run_nc_adversary<A: OnlineAlgorithm>(
    algo: A,
    k: u64,
    mu: u64,
) -> Result<NcAdversaryOutcome, EngineError> {
    assert!(k >= 2 && mu >= 2);
    let size = Size::from_ratio(1, k);
    let mut sim = InteractiveSim::new(algo, 0, SimConfig::default(), NoopSink);
    sim.try_advance_to(Time(0))?;

    // Phase 1: release k·k tiny undated items; remember bin membership.
    let mut per_bin: HashMap<BinId, Vec<ItemId>> = HashMap::new();
    for _ in 0..k * k {
        let (item, bin) = sim.arrive_undated(size)?;
        per_bin.entry(bin).or_default().push(item);
    }
    let bins_pinned = per_bin.len();

    // Phase 2: pin one survivor per bin until μ; everything else departs
    // at time 1.
    for items in per_bin.values() {
        let (&survivor, rest) = items.split_first().expect("non-empty bin group");
        sim.try_set_departure(survivor, Time(mu))?;
        for &short in rest {
            sim.try_set_departure(short, Time(1))?;
        }
    }

    let (instance, result) = sim.finish();
    Ok(NcAdversaryOutcome {
        instance,
        result,
        bins_pinned,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbp_algos::{BestFit, FirstFit, Harmonic, NextFit, RandomFit, WorstFit};
    use dbp_core::bounds::OptBracket;

    #[test]
    fn every_nonclairvoyant_algorithm_is_pinned() {
        let k = 8u64;
        let mu = 64u64;
        for (name, out) in [
            ("ff", run_nc_adversary(FirstFit::new(), k, mu).unwrap()),
            ("bf", run_nc_adversary(BestFit::new(), k, mu).unwrap()),
            ("wf", run_nc_adversary(WorstFit::new(), k, mu).unwrap()),
            ("nf", run_nc_adversary(NextFit::new(), k, mu).unwrap()),
            (
                "harmonic",
                run_nc_adversary(Harmonic::new(4), k, mu).unwrap(),
            ),
            ("rf", run_nc_adversary(RandomFit::new(3), k, mu).unwrap()),
        ] {
            // Load k forces ≥ k bins; each gets pinned for μ.
            assert!(
                out.bins_pinned >= k as usize,
                "{name}: {} bins",
                out.bins_pinned
            );
            assert!(
                out.result.cost.as_bin_ticks() >= (k * mu) as f64,
                "{name}: cost {}",
                out.result.cost
            );
        }
    }

    #[test]
    fn forced_ratio_grows_linearly_in_mu() {
        let mut ratios = Vec::new();
        for e in [3u32, 4, 5] {
            let k = 1u64 << e;
            let out = run_nc_adversary(FirstFit::new(), k, k).unwrap();
            let bracket = OptBracket::of(&out.instance);
            let (lo, _) = bracket.ratio_bracket(out.result.cost);
            ratios.push(lo);
        }
        assert!(ratios[1] > ratios[0] * 1.5, "{ratios:?}");
        assert!(ratios[2] > ratios[1] * 1.5, "{ratios:?}");
    }

    #[test]
    fn realized_instance_is_auditable() {
        let out = run_nc_adversary(BestFit::new(), 6, 32).unwrap();
        let report = dbp_core::assignment::audit(&out.instance, &out.result.assignment).unwrap();
        assert_eq!(report.cost, out.result.cost);
        assert_eq!(out.instance.mu(), Some(32.0));
    }

    #[test]
    fn survivors_dominate_the_cost() {
        let out = run_nc_adversary(FirstFit::new(), 8, 128).unwrap();
        // Cost ≈ bins_pinned × μ, up to the 1-tick phase-1 overlap.
        let expected = (out.bins_pinned as u64 * 128) as f64;
        let cost = out.result.cost.as_bin_ticks();
        assert!(cost >= expected && cost <= expected + out.bins_pinned as f64);
    }
}
