//! Chaos scenarios: scripted server-crash schedules for fault-injection
//! runs.
//!
//! The engine's seeded [`dbp_core::FailurePlan`] dooms bins *as they
//! open*, which couples the crash schedule to the algorithm under test. A
//! chaos scenario instead fixes the crash schedule **up front** — `(time,
//! bin id)` pairs drawn against the horizon — so two algorithms face the
//! *same* storm and their resilience is comparable. Crashes naming a bin
//! that is closed (or never opened) at fire time are no-ops by engine
//! design, so a schedule can safely over-provision bin ids.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dbp_core::bin_state::BinId;
use dbp_core::failure::FailurePlan;
use dbp_core::time::Time;

/// Parameters of the scripted crash-storm generator.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Number of crash events to script.
    pub crashes: usize,
    /// Horizon in ticks over which crash times spread (exclusive).
    pub horizon: u64,
    /// Bin-id space to draw victims from (exclusive upper bound). Size it
    /// near the expected number of bins the run opens; ids past the run's
    /// actual bin count simply never fire.
    pub max_bins: u32,
}

impl ChaosConfig {
    /// A storm of `crashes` crash events over `horizon` ticks against the
    /// first `max_bins` bin ids.
    pub fn new(crashes: usize, horizon: u64, max_bins: u32) -> ChaosConfig {
        ChaosConfig {
            crashes,
            horizon,
            max_bins,
        }
    }
}

/// Draws a scripted crash schedule: `crashes` independent `(time, bin)`
/// pairs, time-sorted. Deterministic in `(config, seed)`.
pub fn chaos_schedule(config: &ChaosConfig, seed: u64) -> FailurePlan {
    assert!(config.horizon >= 1, "empty horizon");
    assert!(config.max_bins >= 1, "no bins to crash");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut schedule: Vec<(Time, BinId)> = (0..config.crashes)
        .map(|_| {
            let t = Time(1 + rng.gen_range(0..config.horizon));
            let b = BinId(rng.gen_range(0..config.max_bins));
            (t, b)
        })
        .collect();
    schedule.sort();
    FailurePlan::scripted(schedule)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic_and_sorted() {
        let cfg = ChaosConfig::new(32, 1_000, 40);
        let a = chaos_schedule(&cfg, 7);
        let b = chaos_schedule(&cfg, 7);
        assert_eq!(a, b);
        let FailurePlan::Scripted(s) = a else {
            panic!("scripted plan expected");
        };
        assert_eq!(s.len(), 32);
        assert!(s.windows(2).all(|w| w[0] <= w[1]), "time-sorted");
        assert!(s
            .iter()
            .all(|&(t, b)| t >= Time(1) && t <= Time(1_000) && b.0 < 40));
    }

    #[test]
    fn different_seeds_give_different_storms() {
        let cfg = ChaosConfig::new(16, 500, 20);
        assert_ne!(chaos_schedule(&cfg, 1), chaos_schedule(&cfg, 2));
    }

    #[test]
    fn storm_against_a_live_run_is_survivable() {
        use dbp_core::audit::InvariantAuditor;
        use dbp_core::engine::run_with_config;
        use dbp_core::failure::RetryPolicy;
        use dbp_core::SimConfig;

        let inst = crate::cloud::cloud_trace(&crate::cloud::CloudConfig::new(120, 600), 3);
        let plan = chaos_schedule(&ChaosConfig::new(25, 600, 30), 11);
        let mut auditor = InvariantAuditor::new();
        let res = run_with_config(
            &inst,
            dbp_algos_test_ff::Ff,
            SimConfig::crashing(plan, RetryPolicy::Fixed(dbp_core::time::Dur(3))),
            &mut auditor,
        )
        .unwrap();
        auditor.verify_result(&res).unwrap();
        assert!(res.resilience.bin_failures > 0, "the storm lands hits");
    }

    /// Minimal in-crate First-Fit so the test avoids a dev-dependency
    /// cycle on `dbp-algos`.
    mod dbp_algos_test_ff {
        use dbp_core::algorithm::{OnlineAlgorithm, Placement, SimView};
        use dbp_core::item::Item;

        #[derive(Default)]
        pub struct Ff;
        impl OnlineAlgorithm for Ff {
            fn name(&self) -> &str {
                "ff-chaos-test"
            }
            fn on_arrival(&mut self, view: &SimView<'_>, item: &Item) -> Placement {
                view.first_fit(item.size)
                    .map(Placement::Existing)
                    .unwrap_or(Placement::OpenNew)
            }
            fn reset(&mut self) {}
        }
    }
}
