//! The adaptive lower-bound adversary (paper, Theorem 4.3).
//!
//! For each round `t = 0, 1, …, μ−1` the adversary releases a prefix of
//! `σ*_t` — one item of each length `1, 2, 4, …, 2^{log μ}`, shortest
//! first, every item of load `1/√(log μ)` — and stops the round as soon as
//! the online algorithm has `√(log μ)` bins open. Because the total load of
//! a full ladder is `(log μ + 1)/√(log μ) > √(log μ)`, the algorithm is
//! always forced to the target within one ladder.
//!
//! The construction is *adaptive*: what is released depends on the
//! algorithm's bin count after every single placement, which is exactly
//! what [`dbp_core::engine::InteractiveSim`] exposes. The paper shows the
//! resulting instance satisfies `OPT_R(σ) ≤ (8/√log μ)·ON(σ)`, hence every
//! deterministic online algorithm is `Ω(√log μ)`-competitive — our
//! experiments measure the realized ratio against the certified OPT
//! bracket for each algorithm in the suite.

use dbp_core::algorithm::OnlineAlgorithm;
use dbp_core::cost::Area;
use dbp_core::engine::{InteractiveSim, PackingResult};
use dbp_core::error::EngineError;
use dbp_core::instance::Instance;
use dbp_core::size::Size;
use dbp_core::time::{Dur, Time};
use dbp_core::{NoopSink, SimConfig};

/// Configuration of the Theorem 4.3 adversary.
#[derive(Debug, Clone)]
pub struct AdversaryConfig {
    /// `log μ`: ladders use lengths `2^0 … 2^n`.
    pub n: u32,
    /// Bin target per round; defaults to `⌈√n⌉` (the paper's `√log μ`).
    pub bin_target: Option<usize>,
    /// Number of rounds; defaults to `μ = 2^n` (the paper's horizon). Lower
    /// values keep experiment runtimes manageable at large `n` without
    /// changing the per-round forcing structure.
    pub rounds: Option<u64>,
}

impl AdversaryConfig {
    /// The paper's parameters for `μ = 2^n`.
    pub fn new(n: u32) -> AdversaryConfig {
        AdversaryConfig {
            n,
            bin_target: None,
            rounds: None,
        }
    }

    /// Caps the number of rounds.
    pub fn with_rounds(mut self, rounds: u64) -> AdversaryConfig {
        self.rounds = Some(rounds);
        self
    }

    fn target(&self) -> usize {
        self.bin_target
            .unwrap_or_else(|| (self.n as f64).sqrt().ceil().max(1.0) as usize)
    }
}

/// Everything the adversary produced and observed.
#[derive(Debug, Clone)]
pub struct AdversaryOutcome {
    /// The instance that was actually played (depends on the algorithm!).
    pub instance: Instance,
    /// The algorithm's measurements on it.
    pub result: PackingResult,
    /// Rounds in which the bin target was reached.
    pub rounds_forced: u64,
    /// Total items released.
    pub items_released: usize,
    /// The per-round released-prefix lengths (`l_{t_i}` in the proof).
    pub last_lengths: Vec<u64>,
}

impl AdversaryOutcome {
    /// The proof's Equation (2) quantity: `Σ_i l_{t_i} ≤ ON(σ)`.
    pub fn sum_last_lengths(&self) -> Area {
        let total: u64 = self.last_lengths.iter().sum();
        Area::from_bin_ticks(Dur(total))
    }
}

/// Runs the adversary against `algo`.
///
/// ```
/// use dbp_workloads::adversary::{run_adversary, AdversaryConfig};
/// use dbp_algos::FirstFit;
///
/// let out = run_adversary(FirstFit::new(), &AdversaryConfig::new(9)).unwrap();
/// // Every one of the 2^9 rounds reaches the √9 = 3 bin target:
/// assert_eq!(out.rounds_forced, 1 << 9);
/// assert!(out.result.max_open >= 3);
/// ```
///
/// # Panics
/// Panics if `config.n` is 0 or exceeds 40 (tick-grid guard).
pub fn run_adversary<A: OnlineAlgorithm>(
    algo: A,
    config: &AdversaryConfig,
) -> Result<AdversaryOutcome, EngineError> {
    assert!(config.n >= 1 && config.n <= 40, "n out of supported range");
    let n = config.n;
    let mu = 1u64 << n;
    let rounds = config.rounds.unwrap_or(mu).min(mu);
    let target = config.target();
    // Paper: load 1/√(log μ). Representable load: use 1/⌈√n⌉ which is at
    // most the paper's value, so ladders still overflow the target
    // (⌈√n⌉ bins need total load > ⌈√n⌉; a full ladder provides
    // (n+1)/⌈√n⌉ ≥ ⌈√n⌉ + 1 for n ≥ 1... see the forced test below).
    let load = Size::from_ratio(1, target as u64);

    let mut sim = InteractiveSim::new(algo, 0, SimConfig::default(), NoopSink);
    let mut rounds_forced = 0u64;
    let mut items_released = 0usize;
    let mut last_lengths = Vec::with_capacity(rounds as usize);

    for t in 0..rounds {
        sim.try_advance_to(Time(t))?;
        let mut last_len = 0u64;
        let mut forced = false;
        for i in 0..=n {
            if sim.open_count() >= target {
                forced = true;
                break;
            }
            let len = 1u64 << i;
            sim.arrive(Dur(len), load)?;
            items_released += 1;
            last_len = len;
        }
        // The ladder may end with the final item tipping the count.
        if sim.open_count() >= target {
            forced = true;
        }
        if forced {
            rounds_forced += 1;
        }
        if last_len > 0 {
            last_lengths.push(last_len);
        }
    }

    let (instance, result) = sim.finish();
    Ok(AdversaryOutcome {
        instance,
        result,
        rounds_forced,
        items_released,
        last_lengths,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbp_algos::{Cdff, ClassifyByDuration, DepartureAwareFit, FirstFit, HybridAlgorithm};
    use dbp_core::bounds::OptBracket;

    #[test]
    fn ladder_always_forces_the_target() {
        // Against every algorithm in the suite, every round must reach the
        // bin target: total ladder load (n+1)/⌈√n⌉ exceeds ⌈√n⌉ bins.
        let cfg = AdversaryConfig::new(9).with_rounds(16);
        for algo in dbp_algos::full_suite() {
            let name = algo.name().to_string();
            let out = run_adversary(algo, &cfg).unwrap();
            assert_eq!(out.rounds_forced, 16, "{name} escaped the adversary");
        }
    }

    #[test]
    fn forced_bin_count_reaches_sqrt_log_mu() {
        let cfg = AdversaryConfig::new(16).with_rounds(8);
        let out = run_adversary(FirstFit::new(), &cfg).unwrap();
        assert!(out.result.max_open >= 4, "√16 = 4 bins must be forced");
    }

    #[test]
    fn adversary_instance_depends_on_algorithm() {
        let cfg = AdversaryConfig::new(9).with_rounds(32);
        let a = run_adversary(FirstFit::new(), &cfg).unwrap();
        let b = run_adversary(ClassifyByDuration::binary(), &cfg).unwrap();
        // Adaptive: the two instances differ (CBD splits by class and is
        // forced sooner).
        assert_ne!(a.instance.len(), b.instance.len());
    }

    #[test]
    fn ratio_grows_with_mu_for_hybrid() {
        // The measured lower-ratio (ON / upper-bracket) must grow with n.
        let mut ratios = Vec::new();
        for n in [4u32, 9, 16] {
            let cfg = AdversaryConfig::new(n).with_rounds(1u64 << n.min(9));
            let out = run_adversary(HybridAlgorithm::new(), &cfg).unwrap();
            let bracket = OptBracket::of(&out.instance);
            let (lo, _) = bracket.ratio_bracket(out.result.cost);
            ratios.push(lo);
        }
        assert!(
            ratios[2] > ratios[0] * 1.2,
            "adversary must hurt more at larger μ: {ratios:?}"
        );
    }

    #[test]
    fn sum_last_lengths_bounded_by_online_cost() {
        // Proof Equation (2): each round's last item forced a new bin, so
        // ON pays its full duration: Σ l_{t_i} ≤ ON(σ).
        let cfg = AdversaryConfig::new(9).with_rounds(64);
        for algo in [
            dbp_algos::by_name("first-fit").unwrap(),
            dbp_algos::by_name("hybrid").unwrap(),
            dbp_algos::by_name("cdff").unwrap(),
        ] {
            let name = algo.name().to_string();
            let out = run_adversary(algo, &cfg).unwrap();
            assert!(
                out.sum_last_lengths() <= out.result.cost,
                "{name}: Σ l_t = {} > ON = {}",
                out.sum_last_lengths(),
                out.result.cost
            );
        }
    }

    #[test]
    fn departure_aware_also_forced() {
        let cfg = AdversaryConfig::new(16).with_rounds(16);
        let out = run_adversary(DepartureAwareFit::new(), &cfg).unwrap();
        assert!(out.result.max_open >= 4);
    }

    #[test]
    fn cdff_also_forced() {
        let cfg = AdversaryConfig::new(16).with_rounds(16);
        let out = run_adversary(Cdff::new(), &cfg).unwrap();
        assert!(out.result.max_open >= 4);
    }

    #[test]
    fn custom_target_and_rounds() {
        let mut cfg = AdversaryConfig::new(6).with_rounds(4);
        cfg.bin_target = Some(2);
        let out = run_adversary(FirstFit::new(), &cfg).unwrap();
        assert_eq!(out.rounds_forced, 4);
        assert!(out.result.max_open >= 2);
    }
}
