//! Differential tests for the O(log B) placement kernel: the capacity
//! tournament tree ([`dbp_core::FitTree`] / [`dbp_core::SubsetFitTree`])
//! must select the *identical* bin as the seed's naive linear scans, under
//! randomized open/add/remove/close churn — including the same-tick
//! close-then-arrive edge (a bin emptied at `t⁻` must never be matched by
//! an arrival at `t⁺`, not even a zero-size probe).

use dbp_core::bin_state::{BinId, BinStore};
use dbp_core::{
    engine, Dur, Instance, InstanceBuilder, Item, ItemId, OnlineAlgorithm, Placement, SimView,
    Size, SubsetFitTree, Time, MAX_DIMS, SIZE_SCALE,
};
use proptest::prelude::*;

/// First-Fit answered by the tournament tree (the production query).
struct TreeFf;
impl OnlineAlgorithm for TreeFf {
    fn name(&self) -> &str {
        "ff-tree"
    }
    fn on_arrival(&mut self, view: &SimView<'_>, item: &Item) -> Placement {
        match view.first_fit(item.size) {
            Some(b) => Placement::Existing(b),
            None => Placement::OpenNew,
        }
    }
    fn reset(&mut self) {}
}

/// First-Fit answered by the seed's retained O(B) scan (the oracle).
struct LinearFf;
impl OnlineAlgorithm for LinearFf {
    fn name(&self) -> &str {
        "ff-linear"
    }
    fn on_arrival(&mut self, view: &SimView<'_>, item: &Item) -> Placement {
        match view.first_fit_linear(item.size) {
            Some(b) => Placement::Existing(b),
            None => Placement::OpenNew,
        }
    }
    fn reset(&mut self) {}
}

/// Churny instances: short durations force heavy bin closure, sizes go all
/// the way to 1 (full bins close and a same-tick arrival must reopen), and
/// the tight arrival range maximizes same-tick departure/arrival collisions.
fn arb_instance() -> impl Strategy<Value = Instance> {
    prop::collection::vec((0u64..48, 1u64..=12, 1u64..=100), 1..=120).prop_map(|v| {
        let mut b = InstanceBuilder::with_capacity(v.len());
        for (t, d, s) in v {
            b.push(Time(t), Dur(d), Size::from_ratio(s, 100));
        }
        b.build().expect("valid")
    })
}

/// A scripted churn op against a raw [`BinStore`]: `kind` selects
/// arrival/departure, `a` sizes arrivals and picks departure victims.
/// A remaining-capacity vector: `rem` in dimension 0, full elsewhere.
fn remaining(rem: u64) -> [u64; MAX_DIMS] {
    let mut v = [SIZE_SCALE; MAX_DIMS];
    v[0] = rem;
    v
}

fn arb_ops() -> impl Strategy<Value = Vec<(u8, u64)>> {
    prop::collection::vec((0u8..4, 0u64..=SIZE_SCALE), 1..=300)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Full-engine differential: a First-Fit run answered by the tree and
    /// one answered by the linear scan must produce identical assignments
    /// (hence identical costs, bin counts, everything).
    #[test]
    fn engine_runs_select_identical_bins(inst in arb_instance()) {
        let tree = engine::run(&inst, TreeFf).expect("legal");
        let linear = engine::run(&inst, LinearFf).expect("legal");
        prop_assert_eq!(&tree.assignment, &linear.assignment);
        prop_assert_eq!(tree.cost, linear.cost);
        prop_assert_eq!(tree.bins_opened, linear.bins_opened);
        let audit = dbp_core::audit(&inst, &tree.assignment).expect("valid");
        prop_assert_eq!(audit.cost, tree.cost);
    }

    /// Raw-store differential: every query the store offers (tree
    /// First-Fit, linear First-Fit, open iteration order, newest-open)
    /// agrees with a naive shadow model through arbitrary open/add/
    /// remove/close sequences.
    #[test]
    fn store_queries_agree_with_shadow_model(ops in arb_ops()) {
        let mut store = BinStore::new();
        // Shadow: open bins in opening order with their loads, plus the
        // residents needed to drive departures.
        let mut shadow: Vec<(BinId, u64)> = Vec::new();
        let mut residents: Vec<(BinId, ItemId, Size)> = Vec::new();
        let mut next_item = 0u32;
        let mut clock = 0u64;
        for (kind, a) in ops {
            clock += 1;
            if kind < 3 {
                // Arrival of raw size `a` (0 ⇒ zero-size probe, SIZE_SCALE
                // ⇒ only an empty bin fits).
                let size = Size::from_raw(a);
                let want = shadow
                    .iter()
                    .find(|&&(_, load)| load + a <= SIZE_SCALE)
                    .map(|&(b, _)| b);
                prop_assert_eq!(store.first_fit(size), want);
                prop_assert_eq!(store.first_fit_linear(size), want);
                let bin = match want {
                    Some(b) => b,
                    None => {
                        let b = store.open(Time(clock));
                        shadow.push((b, 0));
                        b
                    }
                };
                let id = ItemId(next_item);
                next_item += 1;
                store.add(bin, id, size);
                shadow.iter_mut().find(|e| e.0 == bin).expect("open").1 += a;
                residents.push((bin, id, size));
            } else if !residents.is_empty() {
                // Departure of a pseudo-random resident.
                let idx = (a % residents.len() as u64) as usize;
                let (bin, id, size) = residents.swap_remove(idx);
                let closed = store.remove(bin, id, size, Time(clock));
                let entry = shadow.iter_mut().position(|e| e.0 == bin).expect("open");
                shadow[entry].1 -= size.raw();
                let emptied = !residents.iter().any(|&(b, _, _)| b == bin);
                prop_assert_eq!(closed, emptied);
                if closed {
                    shadow.remove(entry);
                }
            }
            let open: Vec<BinId> = store.open_ids().collect();
            let want_open: Vec<BinId> = shadow.iter().map(|&(b, _)| b).collect();
            prop_assert_eq!(open, want_open);
            prop_assert_eq!(store.newest_open(), shadow.last().map(|&(b, _)| b));
            prop_assert_eq!(store.open_count(), shadow.len());
        }
    }

    /// Subset-index differential: `SubsetFitTree` against a plain vector
    /// of `(bin, remaining)` pairs under insert/fill/free/remove churn.
    #[test]
    fn subset_tree_matches_vec_oracle(ops in arb_ops()) {
        let mut tree = SubsetFitTree::new();
        let mut oracle: Vec<(BinId, u64)> = Vec::new();
        let mut next_bin = 0u32;
        for (kind, a) in ops {
            match kind {
                0 => {
                    let bin = BinId(next_bin);
                    next_bin += 1;
                    tree.insert(bin, a);
                    oracle.push((bin, a));
                }
                1 if !oracle.is_empty() => {
                    let idx = (a % oracle.len() as u64) as usize;
                    let (bin, rem) = oracle[idx];
                    oracle[idx].1 -= a % (rem + 1);
                    tree.set_remaining_vec(bin, &remaining(oracle[idx].1), 1);
                }
                2 if !oracle.is_empty() => {
                    let idx = (a % oracle.len() as u64) as usize;
                    let (bin, rem) = oracle[idx];
                    oracle[idx].1 += a % (SIZE_SCALE - rem + 1);
                    tree.set_remaining_vec(bin, &remaining(oracle[idx].1), 1);
                }
                3 if !oracle.is_empty() => {
                    let idx = (a % oracle.len() as u64) as usize;
                    tree.remove(oracle.remove(idx).0);
                }
                _ => {}
            }
            let probe = Size::from_raw(a % (SIZE_SCALE + 1));
            let want = oracle
                .iter()
                .find(|&&(_, rem)| rem >= probe.raw())
                .map(|&(b, _)| b);
            prop_assert_eq!(tree.first_fit(probe), want);
            prop_assert_eq!(tree.len(), oracle.len());
            prop_assert_eq!(tree.iter().collect::<Vec<_>>(), oracle.clone());
        }
    }
}

/// The `t⁻`/`t⁺` edge, pinned deterministically: a bin whose last item
/// departs at `t` is closed before an item arriving at `t` is placed, so
/// neither query path may ever return it — even for a zero-size probe.
#[test]
fn same_tick_close_then_arrive_never_reuses_the_bin() {
    let mut store = BinStore::new();
    let b0 = store.open(Time(0));
    store.add(b0, ItemId(0), Size::FULL);
    let closed = store.remove(b0, ItemId(0), Size::FULL, Time(5));
    assert!(closed);
    assert_eq!(store.first_fit(Size::from_raw(0)), None);
    assert_eq!(store.first_fit_linear(Size::from_raw(0)), None);
    // The engine exercises the same edge end-to-end: full item departs at
    // t=5, full item arrives at t=5 — both paths must open a second bin.
    let inst =
        Instance::from_triples([(Time(0), Dur(5), Size::FULL), (Time(5), Dur(5), Size::FULL)])
            .unwrap();
    let tree = engine::run(&inst, TreeFf).unwrap();
    let linear = engine::run(&inst, LinearFf).unwrap();
    assert_eq!(tree.bins_opened, 2);
    assert_eq!(tree.assignment, linear.assignment);
}
