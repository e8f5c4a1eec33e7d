//! Differential battery for the step-function duration-layered First-Fit.
//!
//! `duration_layered_first_fit` keeps each bin's load as a step function
//! and its peak as a running maximum. It must take exactly the decisions
//! of the checkpoint-scan version it replaced, frozen below as a
//! test-only oracle: the same `(cost, assignment)` on scalar instances,
//! on D = 2 and D = 3 vector instances, and on instances whose windows
//! meet only at junction points (one item departs at `t`, the next
//! arrives at `t`). Two pinned costs guard the benchmark's instances.

use dbp_algos::offline::nonrepack::duration_layered_first_fit;
use dbp_core::{Area, Dur, FitTree, Instance, Item, Size, SizeVec, Time, MAX_DIMS, SIZE_SCALE};
use dbp_workloads::{random_general, sigma_mu, GeneralConfig};
use proptest::prelude::*;

/// The checkpoint-scan duration-layered First-Fit, frozen verbatim: each
/// bin keeps its items, every probe sums them at every arrival
/// checkpoint inside the item's span, and every accept re-sweeps the
/// bin's events for its peak.
fn frozen_dlff(instance: &Instance) -> (Area, Vec<u32>) {
    #[derive(Debug)]
    struct OffBin {
        items: Vec<Item>,
        open_from: Time,
        close_at: Time,
    }
    impl OffBin {
        /// The item must overlap the bin's busy window STRICTLY on both
        /// sides. Touching is not enough: with departures processed
        /// before arrivals, items meeting only at a junction point (one
        /// departs at t, the other arrives at t) leave the bin
        /// momentarily empty — and an emptied bin is closed forever.
        /// Strict window overlap inductively keeps every interior point
        /// of the busy window strictly spanned by some item.
        fn window_overlaps(&self, item: &Item) -> bool {
            item.arrival < self.close_at && item.departure > self.open_from
        }
        fn can_accept(&self, item: &Item) -> bool {
            if !self.window_overlaps(item) {
                return false;
            }
            // Capacity at every arrival breakpoint inside the item's span.
            let mut checkpoints = vec![item.arrival];
            for r in &self.items {
                if r.arrival > item.arrival && r.arrival < item.departure {
                    checkpoints.push(r.arrival);
                }
            }
            let want = item.size.raws();
            checkpoints.iter().all(|&t| {
                let mut load = [0u64; MAX_DIMS];
                for r in self.items.iter().filter(|r| r.active_at(t)) {
                    for (l, c) in load.iter_mut().zip(r.size.raws()) {
                        *l += c;
                    }
                }
                load.iter().zip(want).all(|(&l, c)| l + c <= SIZE_SCALE)
            })
        }
        fn accept(&mut self, item: Item) {
            self.open_from = self.open_from.min(item.arrival);
            self.close_at = self.close_at.max(item.departure);
            self.items.push(item);
        }
        /// True per-dimension maxima of the bin's load step-function over
        /// time, by an event sweep (departures before arrivals at equal
        /// times, matching the engine's `t⁻`/`t⁺` convention).
        fn peak_load(&self) -> [u64; MAX_DIMS] {
            let mut events: Vec<(Time, i64, [u64; MAX_DIMS])> =
                Vec::with_capacity(2 * self.items.len());
            for r in &self.items {
                events.push((r.arrival, 1, r.size.raws()));
                events.push((r.departure, -1, r.size.raws()));
            }
            events.sort_unstable_by_key(|&(t, sgn, _)| (t, sgn));
            let mut load = [0i64; MAX_DIMS];
            let mut peak = [0i64; MAX_DIMS];
            for (_, sgn, raws) in events {
                for d in 0..MAX_DIMS {
                    load[d] += sgn * raws[d] as i64;
                    peak[d] = peak[d].max(load[d]);
                }
            }
            peak.map(|p| p as u64)
        }
    }

    let mut order: Vec<&Item> = instance.items().iter().collect();
    order.sort_by_key(|it| (std::cmp::Reverse(it.class_index()), it.arrival, it.id));

    let mut bins: Vec<OffBin> = Vec::new();
    // Slot k mirrors bins[k]; key = free floor (capacity minus window peak).
    let mut floors = FitTree::new();
    let mut assignment = vec![0u32; instance.len()];
    floors.ensure_dims(
        instance
            .items()
            .iter()
            .map(|it| it.size.dims_used())
            .max()
            .unwrap_or(1),
    );
    for it in order {
        let size = it.size;
        // First bin whose floor admits the item AND whose window overlaps:
        // guaranteed acceptable, no checkpoint scan needed.
        let mut guaranteed = floors.first_fit_vec(size);
        while let Some(idx) = guaranteed {
            if bins[idx].window_overlaps(it) {
                break;
            }
            guaranteed = floors.first_fit_vec_from(idx + 1, size);
        }
        // Bins before it all have floor < size (or a disjoint window); only
        // the window-overlapping ones can still accept — via a peak that
        // lies outside the item's span — and need the exact check.
        let limit = guaranteed.unwrap_or(bins.len());
        let slot = bins[..limit]
            .iter()
            .position(|b| b.can_accept(it))
            .or(guaranteed);
        match slot {
            Some(idx) => {
                debug_assert!(bins[idx].can_accept(it), "floor jump overshot");
                bins[idx].accept(*it);
                assignment[it.id.index()] = idx as u32;
                let free = bins[idx].peak_load().map(|p| SIZE_SCALE - p);
                floors.set_remaining_vec(idx, &free);
            }
            None => {
                assignment[it.id.index()] = bins.len() as u32;
                bins.push(OffBin {
                    items: vec![*it],
                    open_from: it.arrival,
                    close_at: it.departure,
                });
                let s = floors.push(SIZE_SCALE - size.primary().raw());
                let free = size.raws().map(|c| SIZE_SCALE - c);
                floors.set_remaining_vec(s, &free);
                debug_assert_eq!(s, bins.len() - 1);
            }
        }
    }
    let ticks: u64 = bins
        .iter()
        .map(|b| b.close_at.since(b.open_from).ticks())
        .sum();
    (Area::from_bin_ticks(Dur(ticks)), assignment)
}

/// `(arrival, duration, per-dimension sizes in percent)`; dimensions past
/// `dims` are dropped.
type Triple = (u64, u64, (u64, u64, u64));

fn build(triples: &[Triple], dims: usize) -> Instance {
    Instance::from_triples(triples.iter().map(|&(t, d, (a, b, c))| {
        let sizes = [a, b, c].map(|s| Size::from_ratio(s, 100));
        let size = SizeVec::from_sizes(&sizes[..dims]).expect("dims in range");
        (Time(t), Dur(d), size)
    }))
    .expect("valid instance")
}

fn arb_triples() -> impl Strategy<Value = Vec<Triple>> {
    prop::collection::vec(
        (0u64..80, 1u64..=48, (1u64..=100, 1u64..=100, 1u64..=100)),
        1..=300,
    )
}

/// Arrivals and durations on a grid of 4 ticks: most windows meet others
/// exactly at their ends, where a bin empties and must stay closed.
fn arb_junction_triples() -> impl Strategy<Value = Vec<Triple>> {
    prop::collection::vec(
        (0u64..12, 1u64..=3, (1u64..=100, 1u64..=100, 1u64..=100)),
        1..=300,
    )
    .prop_map(|v| {
        v.into_iter()
            .map(|(slot, len, size)| (4 * slot, 4 * len, size))
            .collect()
    })
}

fn same_as_frozen(inst: &Instance) -> Result<(), TestCaseError> {
    let (cost, assignment) = duration_layered_first_fit(inst);
    let (frozen_cost, frozen_assignment) = frozen_dlff(inst);
    prop_assert_eq!(assignment, frozen_assignment);
    prop_assert_eq!(cost, frozen_cost);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dlff_matches_the_frozen_scan_on_scalar_instances(triples in arb_triples()) {
        same_as_frozen(&build(&triples, 1))?;
    }

    #[test]
    fn dlff_matches_the_frozen_scan_on_vector_instances(
        triples in arb_triples(),
        dims in 2usize..=3,
    ) {
        same_as_frozen(&build(&triples, dims))?;
    }

    #[test]
    fn dlff_matches_the_frozen_scan_at_junction_points(
        triples in arb_junction_triples(),
        dims in 1usize..=3,
    ) {
        same_as_frozen(&build(&triples, dims))?;
    }
}

/// Costs recorded with the checkpoint-scan version on the instances the
/// `certify` benchmark runs: σ_μ(10) fits in one bin, the 5k-item
/// `general` instance of generator seed 500 in 185.
#[test]
fn dlff_costs_are_pinned_on_the_benchmark_instances() {
    let cases = [
        (sigma_mu(10), 4_398_046_511_104u128, 1u32),
        (
            random_general(&GeneralConfig::new(10, 5000), 500),
            713_488_557_146_112,
            185,
        ),
    ];
    for (inst, cost, bins) in cases {
        let (got, assignment) = duration_layered_first_fit(&inst);
        assert_eq!(got.raw(), cost);
        assert_eq!(assignment.iter().max().map(|&b| b + 1), Some(bins));
    }
}
