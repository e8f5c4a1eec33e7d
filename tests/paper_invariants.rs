//! The paper's numbered results, asserted end-to-end across crates.

use clairvoyant_dbp::algos::offline::{exact_opt_nr, ffd_repack_cost};
use clairvoyant_dbp::algos::{self, Cdff, HybridAlgorithm};
use clairvoyant_dbp::analysis::max_zero_run;
use clairvoyant_dbp::core::{engine, reduce, LowerBounds, Time};
use clairvoyant_dbp::workloads::adversary::{run_adversary, AdversaryConfig};
use clairvoyant_dbp::workloads::{
    random_aligned, random_general, sigma_mu, AlignedConfig, GeneralConfig,
};

/// Corollary 5.8 at several scales: CDFF's open-bin count on σ_μ equals
/// `max_0(binary(t)) + 1` at every single moment.
#[test]
fn corollary_5_8_exact_across_scales() {
    for n in [1u32, 2, 5, 7, 8, 10, 12] {
        let inst = sigma_mu(n);
        let res = engine::run(&inst, Cdff::new()).expect("legal");
        for t in 0..(1u64 << n) {
            assert_eq!(
                res.open_at(Time(t)),
                max_zero_run(t, n) as usize + 1,
                "n={n}, t={t}"
            );
        }
    }
}

/// Proposition 5.3: CDFF(σ_μ) ≤ (2 log log μ + 1)·μ, with OPT ≥ μ via the
/// span bound.
#[test]
fn proposition_5_3_envelope() {
    for n in [2u32, 4, 8, 12, 15] {
        let inst = sigma_mu(n);
        let res = engine::run(&inst, Cdff::new()).expect("legal");
        let mu = (1u64 << n) as f64;
        let envelope = (2.0 * (n as f64).log2().max(1.0) + 1.0) * mu;
        assert!(
            res.cost.as_bin_ticks() <= envelope,
            "n={n}: {} > {envelope}",
            res.cost.as_bin_ticks()
        );
    }
}

/// Theorem 5.1's experimental face: CDFF on *random* aligned inputs also
/// stays within a small multiple of the certified optimum.
#[test]
fn cdff_reasonable_on_random_aligned() {
    for seed in 0..5u64 {
        let inst = random_aligned(&AlignedConfig::new(10, 800), seed);
        let res = engine::run(&inst, Cdff::new()).expect("legal");
        let bracket = algos::offline::opt_r_bracket(&inst);
        let (lo, _) = bracket.ratio_bracket(res.cost);
        let envelope = 2.0 * 10f64.log2() + 3.0;
        assert!(
            lo <= envelope,
            "seed {seed}: certified ratio {lo} > {envelope}"
        );
    }
}

/// Lemma 3.3: HA's GN-bin peak stays under `2 + 4√log μ` on adversarial
/// and random inputs alike.
#[test]
fn lemma_3_3_gn_bound() {
    // Adversarial.
    for n in [4u32, 9, 12] {
        let mut ha = HybridAlgorithm::new();
        let _ = run_adversary(&mut ha, &AdversaryConfig::new(n)).expect("legal");
        let bound = 2.0 + 4.0 * (n as f64).sqrt();
        assert!(
            (ha.gn_peak() as f64) <= bound,
            "adversary n={n}: {}",
            ha.gn_peak()
        );
    }
    // Random (μ up to 2^12).
    for seed in 0..5u64 {
        let inst = random_general(&GeneralConfig::new(12, 1_500), seed);
        let mut ha = HybridAlgorithm::new();
        let _ = engine::run(&inst, &mut ha).expect("legal");
        let bound = 2.0 + 4.0 * inst.log2_mu().sqrt();
        assert!(
            (ha.gn_peak() as f64) <= bound,
            "seed {seed}: {}",
            ha.gn_peak()
        );
    }
}

/// Observations 1–2: the reduction stretches span and demand by at most 4×
/// on arbitrary random inputs, and departures never move earlier.
#[test]
fn reduction_observations_on_random_inputs() {
    for seed in 0..10u64 {
        let inst = random_general(&GeneralConfig::new(10, 400), seed);
        let red = reduce(&inst);
        assert!(
            red.span_dur().ticks() <= 4 * inst.span_dur().ticks(),
            "seed {seed}"
        );
        assert!(red.demand().raw() <= inst.demand().raw() * 4, "seed {seed}");
        for (a, b) in inst.items().iter().zip(red.items()) {
            assert!(b.departure >= a.departure, "seed {seed}: item shortened");
            assert_eq!(a.arrival, b.arrival);
        }
    }
}

/// Corollary 3.4's measurable face: FFD-repack(σ′) ≤ 16·FFD-repack(σ) would
/// not be certified directly (both are upper bounds), but the sound chain
/// FFD(σ′) ≤ 2·(2·span(σ)·4 + 2·d(σ)·4)/2 … reduces to: FFD(σ′) ≤
/// 16·max-lower-bound(σ) whenever the instance is a busy period. Assert it.
#[test]
fn corollary_3_4_certified_chain() {
    for seed in 0..8u64 {
        let mut cfg = GeneralConfig::new(8, 300);
        cfg.mean_gap = 0; // single busy period
        let inst = random_general(&cfg, seed);
        let red = reduce(&inst);
        let lhs = ffd_repack_cost(&red);
        let rhs = LowerBounds::of(&inst).best().scale(16);
        assert!(lhs <= rhs, "seed {seed}: {} > {}", lhs, rhs);
    }
}

/// Theorem 4.3's forcing: the adversary reaches its bin target in every
/// round against the entire suite, and the sum of forced last-lengths is
/// bounded by the online cost (Equation (2) of the proof).
#[test]
fn theorem_4_3_forcing_and_equation_2() {
    let cfg = AdversaryConfig::new(9);
    for name in algos::registry_names() {
        let out = run_adversary(algos::by_name(name).expect("registry"), &cfg).expect("legal");
        assert_eq!(out.rounds_forced, 1 << 9, "{name} escaped a round");
        assert!(
            out.sum_last_lengths() <= out.result.cost,
            "{name}: eq (2) violated"
        );
    }
}

/// Exact OPT_NR (branch & bound) sits inside the heuristic bracket, and
/// the clairvoyant algorithms are never more than the paper's envelope
/// above it on micro-instances.
#[test]
fn exact_optimum_brackets_micro_instances() {
    for seed in 0..12u64 {
        let mut cfg = GeneralConfig::new(4, 7);
        cfg.size_range = (20, 70, 100);
        let inst = random_general(&cfg, seed);
        let exact = exact_opt_nr(&inst, 10);
        let bracket = algos::offline::opt_nr_bracket(&inst);
        assert!(bracket.lower <= exact.cost, "seed {seed}");
        assert!(exact.cost <= bracket.upper, "seed {seed}");
        // Every online algorithm's cost is ≥ the exact optimum.
        for name in algos::registry_names() {
            let res = engine::run(&inst, algos::by_name(name).expect("registry")).expect("legal");
            assert!(
                res.cost >= exact.cost,
                "{name} beat exact OPT_NR?! seed {seed}"
            );
        }
    }
}
