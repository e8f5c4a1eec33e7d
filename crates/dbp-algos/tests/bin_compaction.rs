//! Differential battery for engine bin-store compaction (PR 10).
//!
//! `InteractiveSim::compact_bins` renumbers the open bins and reclaims
//! closed records; the store renumbers its bin-class partitions with
//! them, and no algorithm holds bin ids across calls. A run with periodic
//! bin compaction must be bit-identical — cost, metrics, bins opened — to
//! the same run without it, for every algorithm in the registry.

use dbp_algos::{by_name, registry_names};
use dbp_core::engine::InteractiveSim;
use dbp_core::{Dur, Size, Time};
use dbp_core::{NoopSink, SimConfig};

fn churn_items() -> Vec<(Time, Dur, Size)> {
    (0..400u64)
        .map(|k| {
            (
                Time(k / 3),
                Dur(1 + (k * 7) % 11),
                Size::from_ratio(1 + (k * 13) % 60, 100),
            )
        })
        .collect()
}

#[test]
fn every_algorithm_survives_bin_compaction() {
    let items = churn_items();
    for &name in registry_names() {
        let mut plain = InteractiveSim::new(
            by_name(name).expect("registry name"),
            0,
            SimConfig::default(),
            NoopSink,
        );
        for &(t, d, s) in &items {
            plain.arrive_at(t, d, s).unwrap();
        }
        plain.drain_remaining().unwrap();

        let mut compacted = InteractiveSim::new(
            by_name(name).expect("registry name"),
            0,
            SimConfig::default(),
            NoopSink,
        );
        let mut compactions = 0u32;
        for (k, &(t, d, s)) in items.iter().enumerate() {
            compacted.arrive_at(t, d, s).unwrap();
            if k % 64 == 63 {
                let map = compacted.compact_bins();
                compactions += u32::from(map.len() != compacted.bins().all().len());
            }
        }
        compacted.drain_remaining().unwrap();

        assert!(
            compactions > 0,
            "{name}: workload must exercise reclamation"
        );
        assert_eq!(
            plain.cost_so_far(),
            compacted.cost_so_far(),
            "{name}: cost diverged under bin compaction"
        );
        assert_eq!(
            plain.bins_opened(),
            compacted.bins_opened(),
            "{name}: bins_opened diverged under bin compaction"
        );
        assert_eq!(
            plain.metrics(),
            compacted.metrics(),
            "{name}: metrics diverged under bin compaction"
        );
        assert!(
            compacted.bins().all().len() < compacted.bins_opened(),
            "{name}: compaction reclaimed no records"
        );
    }
}
