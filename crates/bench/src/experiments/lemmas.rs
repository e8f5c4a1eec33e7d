//! The paper's quantitative lemmas and corollaries as executable
//! experiments: each report states the proved inequality and the measured
//! values side by side.

use dbp_algos::offline::ffd_repack_cost;
use dbp_algos::{Cdff, HybridAlgorithm};
use dbp_analysis::binary_strings::{
    expected_max_zero_run_exact, expected_max_zero_run_mc, sum_max_zero_runs,
};
use dbp_analysis::table::{f3, Table};
use dbp_core::bounds::LowerBounds;
use dbp_core::engine;
use dbp_core::reduction::reduce;
use dbp_core::time::Time;
use dbp_workloads::adversary::{run_adversary, AdversaryConfig};
use dbp_workloads::{random_general, sigma_mu, GeneralConfig};

use crate::sweep::parallel_map;

use super::ExperimentReport;

/// Lemma 3.1: `max(span, d, ∫⌈S_t⌉) ≤ OPT_R ≤ FFD-repack ≤ 2∫⌈S_t⌉`.
pub fn lemma31() -> ExperimentReport {
    let seeds: Vec<u64> = (0..8).collect();
    let rows = parallel_map(&seeds, |&seed| {
        let inst = random_general(&GeneralConfig::new(8, 800), seed);
        let lb = LowerBounds::of(&inst);
        let ffd = ffd_repack_cost(&inst);
        (
            seed,
            lb.best().as_bin_ticks(),
            ffd.as_bin_ticks(),
            lb.ceil_integral.scale(2).as_bin_ticks(),
        )
    });
    let mut table = Table::new(["seed", "best LB", "FFD-repack", "2∫⌈S_t⌉", "FFD / LB"]);
    let mut violations = 0;
    for &(seed, lb, ffd, two_ceil) in &rows {
        if !(lb <= ffd && ffd <= two_ceil) {
            violations += 1;
        }
        table.row([
            seed.to_string(),
            f3(lb),
            f3(ffd),
            f3(two_ceil),
            f3(ffd / lb),
        ]);
    }
    ExperimentReport {
        id: "lemma31",
        title: "Lemma 3.1: the OPT_R bracket is ordered and within 2×".into(),
        table,
        text: format!(
            "Ordering violations: {violations} (expected 0). The FFD/LB column bounds the\n\
             experiment bracket's looseness — every reported 'ratio ≥' is within that\n\
             factor of the true competitive ratio on the instance.\n"
        ),
    }
}

/// Lemma 3.3: HA's GN-bin count never exceeds `2 + 4√log μ`.
pub fn lemma33() -> ExperimentReport {
    let ns: &[u32] = &[4, 9, 16, 25];
    let rows = parallel_map(ns, |&n| {
        let mut ha = HybridAlgorithm::new();
        let cfg = AdversaryConfig::new(n).with_rounds((1u64 << n).min(1024));
        let _ = run_adversary(&mut ha, &cfg).expect("ha legal");
        (n, ha.gn_peak(), 2.0 + 4.0 * (n as f64).sqrt())
    });
    let mut table = Table::new(["log μ", "GN peak (measured)", "2 + 4√log μ (bound)"]);
    let mut ok = true;
    for &(n, peak, bound) in &rows {
        ok &= (peak as f64) <= bound;
        table.row([n.to_string(), peak.to_string(), f3(bound)]);
    }
    ExperimentReport {
        id: "lemma33",
        title: "Lemma 3.3: HA's GN bins stay below 2 + 4√log μ".into(),
        table,
        text: format!("Bound respected on every sweep point: {ok} (expected true).\n"),
    }
}

/// Lemma 3.5: after the σ→σ′ reduction, the *load* of σ′ at any moment
/// covers HA's CD-bin count: `S_t(σ′) ≥ k_t / (4√log μ)` (which is what
/// the paper integrates into `OPT^t_R(σ′) ≥ max(1, k_t/4√log μ)`).
pub fn lemma35() -> ExperimentReport {
    use dbp_core::engine::InteractiveSim;
    use dbp_core::reduction::reduce;

    let ns: &[u32] = &[4, 6, 9, 12];
    let rows = parallel_map(ns, |&n| {
        // Drive HA under the adversary while sampling k_t after each
        // moment's arrivals.
        let cfg = AdversaryConfig::new(n);
        let out = run_adversary(HybridAlgorithm::new(), &cfg).expect("legal");
        // Replay the *same* instance, sampling k_t this time.
        let mut ha = HybridAlgorithm::new();
        let mut sim = InteractiveSim::new(&mut ha);
        let mut samples: Vec<(Time, usize)> = Vec::new();
        let items = out.instance.items();
        let mut idx = 0;
        while idx < items.len() {
            let t = items[idx].arrival;
            while idx < items.len() && items[idx].arrival == t {
                let it = items[idx];
                sim.arrive_at(it.arrival, it.duration(), it.size)
                    .expect("legal");
                idx += 1;
            }
            samples.push((t, HybridAlgorithm::cd_open(sim.bins())));
        }
        drop(sim);
        // The reduced instance's load profile.
        let reduced = reduce(&out.instance);
        let profile = reduced.load_profile();
        let denom = 4.0 * (n as f64).sqrt();
        let mut worst_margin = f64::INFINITY;
        let mut violations = 0u64;
        for &(t, k) in &samples {
            if k == 0 {
                continue;
            }
            let load = profile.load_at(t).as_f64();
            let required = k as f64 / denom;
            worst_margin = worst_margin.min(load / required);
            if load + 1e-9 < required {
                violations += 1;
            }
        }
        let max_k = samples.iter().map(|&(_, k)| k).max().unwrap_or(0);
        (n, samples.len(), max_k, violations, worst_margin)
    });

    let mut table = Table::new([
        "log μ",
        "moments sampled",
        "peak k_t",
        "violations",
        "min S_t(σ′)/(k_t/4√log μ)",
    ]);
    for &(n, m, k, v, margin) in &rows {
        table.row([
            n.to_string(),
            m.to_string(),
            k.to_string(),
            v.to_string(),
            f3(margin),
        ]);
    }
    ExperimentReport {
        id: "lemma35",
        title: "Lemma 3.5: the reduced load always covers HA's CD-bin count".into(),
        table,
        text: "Expected: zero violations and a margin ≥ 1 at every moment — the σ→σ′\n\
               reduction really does let every open CD bin be charged to load that is\n\
               still alive, the crux of Theorem 3.2's charging argument.\n"
            .into(),
    }
}

/// Observations 1–2 and Corollary 3.4: the σ→σ′ reduction costs ≤ 4× span,
/// ≤ 4× demand, and ≤ 16× OPT_R.
pub fn reduction() -> ExperimentReport {
    let seeds: Vec<u64> = (0..8).collect();
    let rows = parallel_map(&seeds, |&seed| {
        let mut cfg = GeneralConfig::new(8, 500);
        cfg.mean_gap = 0; // busy-period instance, as Corollary 3.4 assumes
        let inst = random_general(&cfg, seed);
        let red = reduce(&inst);
        let span_ratio = red.span_dur().ticks() as f64 / inst.span_dur().ticks().max(1) as f64;
        let demand_ratio = red.demand().ratio_to(inst.demand());
        // Certified OPT_R(σ′)/OPT_R(σ) upper estimate: ffd(σ′) / best-LB(σ).
        let cost_ratio = ffd_repack_cost(&red).ratio_to(LowerBounds::of(&inst).best());
        (seed, span_ratio, demand_ratio, cost_ratio)
    });
    let mut table = Table::new([
        "seed",
        "span′/span (≤4)",
        "d′/d (≤4)",
        "OPT′UB/OPT LB (≤16·loose)",
    ]);
    let mut obs_ok = true;
    for &(seed, s, d, c) in &rows {
        obs_ok &= s <= 4.0 && d <= 4.0;
        table.row([seed.to_string(), f3(s), f3(d), f3(c)]);
    }
    ExperimentReport {
        id: "reduction",
        title: "Observations 1–2 / Corollary 3.4: the departure-rounding reduction is cheap".into(),
        table,
        text: format!(
            "Observations 1–2 hold exactly on every instance: {obs_ok} (expected true).\n\
             The last column certifies OPT_R(σ′) ≤ c·OPT_R(σ) with c ≤ 16 up to bracket\n\
             looseness (it divides an upper bound by a lower bound).\n"
        ),
    }
}

/// Corollary 5.8: `CDFF_{t⁺}(σ_μ) = max_0(binary(t)) + 1` at every moment.
pub fn cor58() -> ExperimentReport {
    let ns: &[u32] = &[3, 6, 9, 12, 14];
    let rows = parallel_map(ns, |&n| {
        let inst = sigma_mu(n);
        let res = engine::run(&inst, Cdff::new()).expect("cdff legal");
        let mu = 1u64 << n;
        let mut mismatches = 0u64;
        for t in 0..mu {
            let expected = dbp_analysis::max_zero_run(t, n) as usize + 1;
            if res.open_at(Time(t)) != expected {
                mismatches += 1;
            }
        }
        (n, mu, mismatches, res.cost.as_bin_ticks())
    });
    let mut table = Table::new(["log μ", "moments checked", "mismatches", "CDFF(σ_μ)"]);
    for &(n, mu, mism, cost) in &rows {
        table.row([n.to_string(), mu.to_string(), mism.to_string(), f3(cost)]);
    }
    ExperimentReport {
        id: "cor58",
        title: "Corollary 5.8: CDFF's open-bin count equals max_0(binary(t)) + 1 exactly".into(),
        table,
        text: "Expected: zero mismatches at every μ — the paper's counter identity holds\n\
               tick-for-tick in the implementation.\n"
            .into(),
    }
}

/// Lemma 5.9 / Corollary 5.10: `E[max_0] ≤ 2 log n` and
/// `Σ_t max_0(binary(t)) ≤ 2μ log log μ`.
pub fn lemma59() -> ExperimentReport {
    let mut table = Table::new([
        "n = log μ",
        "E[max_0] (exact)",
        "E[max_0] (MC)",
        "2·log n bound",
        "Σ max_0",
        "2μ·lglg μ bound",
    ]);
    let mut ok = true;
    for &n in &[2u32, 4, 8, 12, 16, 20] {
        let exact = expected_max_zero_run_exact(n);
        let mc = expected_max_zero_run_mc(n, 50_000, 42);
        let e_bound = 2.0 * (n as f64).log2().max(1.0);
        let sum = sum_max_zero_runs(n);
        let mu = 1u64 << n;
        let s_bound = 2.0 * mu as f64 * (n as f64).log2().max(1.0);
        ok &= exact <= e_bound && (sum as f64) <= s_bound;
        table.row([
            n.to_string(),
            f3(exact),
            f3(mc),
            f3(e_bound),
            sum.to_string(),
            f3(s_bound),
        ]);
    }
    ExperimentReport {
        id: "lemma59",
        title: "Lemma 5.9 / Corollary 5.10: zero-run expectations are O(log log μ)".into(),
        table,
        text: format!(
            "All bounds hold: {ok} (expected true). Exact values are full enumerations\n\
                       of all 2^n strings; MC uses 50k samples.\n"
        ),
    }
}

/// Proposition 5.3: `CDFF(σ_μ) ≤ (2 log log μ + 1)·OPT_R(σ_μ)`.
pub fn prop53() -> ExperimentReport {
    let ns: &[u32] = &[3, 6, 9, 12, 14, 17];
    let rows = parallel_map(ns, |&n| {
        let inst = sigma_mu(n);
        let res = engine::run(&inst, Cdff::new()).expect("cdff legal");
        let mu = (1u64 << n) as f64;
        // OPT_R(σ_μ) ≥ μ (span bound; an item of length μ arrives at 0);
        // the proposition divides by exactly that.
        let ratio = res.cost.as_bin_ticks() / mu;
        let envelope = 2.0 * (n as f64).log2().max(1.0) + 1.0;
        (n, ratio, envelope)
    });
    let mut table = Table::new(["log μ", "CDFF(σ_μ)/μ", "2·lglg μ + 1 envelope", "within"]);
    let mut ok = true;
    for &(n, ratio, envelope) in &rows {
        let within = ratio <= envelope;
        ok &= within;
        table.row([n.to_string(), f3(ratio), f3(envelope), within.to_string()]);
    }
    ExperimentReport {
        id: "prop53",
        title: "Proposition 5.3: CDFF(σ_μ) ≤ (2 log log μ + 1)·OPT_R".into(),
        table,
        text: format!("Envelope respected at every μ: {ok} (expected true).\n"),
    }
}

/// Lemma 5.12: if CDFF has `k` open bins in row `r` at `t⁺`, the items
/// ever packed into that row that are still active at `t⁺` *in σ′* carry
/// load at least `(k−1)/2`.
pub fn lemma512() -> ExperimentReport {
    use dbp_core::engine::InteractiveSim;
    use dbp_workloads::{random_aligned, AlignedConfig};

    let seeds: Vec<u64> = (0..6).collect();
    let rows = parallel_map(&seeds, |&seed| {
        let inst = random_aligned(&AlignedConfig::new(9, 1_200), seed);
        let reduced = reduce(&inst);

        // Drive CDFF item by item, recording each item's row and taking a
        // rows snapshot after every moment's arrivals.
        let mut algo = Cdff::new();
        let mut sim = InteractiveSim::new(&mut algo);
        let mut item_row: Vec<u32> = Vec::with_capacity(inst.len());
        let mut snapshots: Vec<(Time, Vec<(u32, usize)>)> = Vec::new();
        let items = inst.items();
        let mut idx = 0;
        while idx < items.len() {
            let t = items[idx].arrival;
            while idx < items.len() && items[idx].arrival == t {
                let it = items[idx];
                let bin = sim
                    .arrive_at(it.arrival, it.duration(), it.size)
                    .expect("legal");
                let row =
                    Cdff::row_of_bin(sim.bins(), bin).expect("freshly used bins are in a row");
                item_row.push(row);
                idx += 1;
            }
            snapshots.push((t, Cdff::row_sizes(sim.bins())));
        }
        drop(sim);

        // Check the lemma at every snapshot, for every row with k ≥ 2.
        let mut checks = 0u64;
        let mut violations = 0u64;
        let mut min_margin = f64::INFINITY;
        for (t, rows_at_t) in &snapshots {
            for &(row_key, k) in rows_at_t {
                if k < 2 {
                    continue;
                }
                // d_r^{t⁺}(σ′): load of items ever packed into this row
                // that are active at t⁺ under the REDUCED departures.
                let load: f64 = items
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| item_row[*i] == row_key)
                    .filter(|(i, _)| reduced.items()[*i].active_at(*t))
                    .map(|(_, it)| it.size.max_size().as_f64())
                    .sum();
                let required = (k as f64 - 1.0) / 2.0;
                checks += 1;
                min_margin = min_margin.min(load / required);
                if load + 1e-9 < required {
                    violations += 1;
                }
            }
        }
        (seed, checks, violations, min_margin)
    });

    let mut table = Table::new([
        "seed",
        "checks (k ≥ 2)",
        "violations",
        "min d_r/( (k−1)/2 )",
    ]);
    for &(seed, c, v, m) in &rows {
        table.row([
            seed.to_string(),
            c.to_string(),
            v.to_string(),
            if m.is_finite() { f3(m) } else { "—".into() },
        ]);
    }
    ExperimentReport {
        id: "lemma512",
        title: "Lemma 5.12: reduced row loads cover (k−1)/2 per CDFF row".into(),
        table,
        text: "Random aligned inputs at log μ = 9; rows snapshotted after every arrival\n\
               moment. Expected: zero violations — each CDFF row with k open bins holds\n\
               ≥ (k−1)/2 of still-alive (post-reduction) load, the charging step behind\n\
               Theorem 5.1.\n"
            .into(),
    }
}
