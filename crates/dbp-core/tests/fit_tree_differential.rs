//! Differential tests for the O(log B) placement kernel: the capacity
//! tournament tree ([`dbp_core::FitTree`] / [`dbp_core::SubsetFitTree`])
//! must select the *identical* bin as the seed's naive linear scans, under
//! randomized open/add/remove/close churn — including the same-tick
//! close-then-arrive edge (a bin emptied at `t⁻` must never be matched by
//! an arrival at `t⁺`, not even a zero-size probe). The trees reuse their
//! buffers (reserved keys that grow in place, partitions cleared for the
//! next class), so reused trees are checked against fresh ones too.

use dbp_core::bin_state::{BinId, BinStore};
use dbp_core::{
    engine, Dur, FitTree, Instance, InstanceBuilder, Item, ItemId, OnlineAlgorithm, Placement,
    SimView, Size, SizeVec, SubsetFitTree, Time, MAX_DIMS, SIZE_SCALE,
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

/// A remaining-capacity vector: `rem` in dimension 0, full elsewhere.
fn remaining(rem: u64) -> [u64; MAX_DIMS] {
    let mut v = [SIZE_SCALE; MAX_DIMS];
    v[0] = rem;
    v
}

/// Scripted churn ops: `kind` selects the operation, `a` sizes it and
/// picks its victim.
fn arb_ops() -> impl Strategy<Value = Vec<(u8, u64)>> {
    prop::collection::vec((0u8..4, 0u64..=SIZE_SCALE), 1..=300)
}

/// A remaining-capacity vector over `dims` dimensions drawn from `a`
/// (full capacity beyond them).
fn spread(a: u64, dims: usize) -> [u64; MAX_DIMS] {
    let mut v = [SIZE_SCALE; MAX_DIMS];
    for (d, slot) in v.iter_mut().enumerate().take(dims) {
        *slot = a.rotate_left(17 * d as u32) % (SIZE_SCALE + 1);
    }
    v
}

/// A probe size over `dims` dimensions drawn from `a`.
fn probe(a: u64, dims: usize) -> SizeVec {
    let raws: Vec<u64> = (0..dims)
        .map(|d| a.rotate_left(29 * d as u32 + 7) % (SIZE_SCALE / 2 + 1))
        .collect();
    SizeVec::try_from_raws(&raws).expect("sizes within capacity")
}

/// A subset index plus what its owner keeps: each bin's current slot
/// (following the renumbering `remove` reports) and a vector oracle of
/// `(bin, remaining)` for the live members in insertion order.
struct Subset {
    tree: SubsetFitTree,
    slot_of: Vec<usize>,
    oracle: Vec<(BinId, [u64; MAX_DIMS])>,
}

impl Subset {
    fn new(tree: SubsetFitTree) -> Subset {
        Subset {
            tree,
            slot_of: Vec::new(),
            oracle: Vec::new(),
        }
    }

    /// Applies one churn op over `dims` dimensions; bins get ids from
    /// `next_bin`. Returns the slot renumbering the op caused, if any.
    fn apply(&mut self, kind: u8, a: u64, dims: usize, next_bin: &mut u32) -> Vec<(BinId, usize)> {
        let mut moves = Vec::new();
        match kind {
            0 => {
                let bin = BinId(*next_bin);
                *next_bin += 1;
                let rem = spread(a, dims);
                let slot = self.tree.insert(bin, rem[0]);
                self.tree.set_remaining_vec(slot, &rem, dims);
                if self.slot_of.len() <= bin.index() {
                    self.slot_of.resize(bin.index() + 1, usize::MAX);
                }
                self.slot_of[bin.index()] = slot;
                self.oracle.push((bin, rem));
            }
            1 | 2 if !self.oracle.is_empty() => {
                let idx = (a % self.oracle.len() as u64) as usize;
                let rem = spread(a / 3, dims);
                let bin = self.oracle[idx].0;
                self.oracle[idx].1 = rem;
                self.tree
                    .set_remaining_vec(self.slot_of[bin.index()], &rem, dims);
            }
            3 if !self.oracle.is_empty() => {
                let idx = (a % self.oracle.len() as u64) as usize;
                let bin = self.oracle.remove(idx).0;
                let slot_of = &mut self.slot_of;
                self.tree.remove(slot_of[bin.index()], |moved, slot| {
                    slot_of[moved.index()] = slot;
                    moves.push((moved, slot));
                });
            }
            _ => {}
        }
        moves
    }

    /// The oracle's First-Fit answer for `size`.
    fn want(&self, size: SizeVec) -> Option<BinId> {
        let raws = size.raws();
        self.oracle
            .iter()
            .find(|(_, rem)| (0..MAX_DIMS).all(|d| rem[d] >= raws[d]))
            .map(|&(b, _)| b)
    }
}

/// Pushes, updates, closes and probes `fresh` (built by `FitTree::new`)
/// and `reserved` (built by `FitTree::with_capacity`) in lockstep over
/// `dims` dimensions, materializing the extra planes at op `planes_at`
/// (before it, every slot has full capacity beyond dimension 0, the
/// condition lazy planes rely on); both must answer like a linear scan
/// over the slots.
fn lockstep_trees(hint: usize, dims: usize, planes_at: usize, ops: &[(u8, u64)]) {
    let mut fresh = FitTree::new();
    let mut reserved = FitTree::with_capacity(hint);
    let mut oracle: Vec<Option<[u64; MAX_DIMS]>> = Vec::new();
    for (k, &(kind, a)) in ops.iter().enumerate() {
        if k == planes_at {
            fresh.ensure_dims(dims);
            reserved.ensure_dims(dims);
        }
        let dims = if k >= planes_at { dims } else { 1 };
        let slots = fresh.len() as u64;
        match kind {
            0 | 1 => {
                let rem = spread(a, dims);
                let s = fresh.push(rem[0]);
                assert_eq!(reserved.push(rem[0]), s);
                fresh.set_remaining_vec(s, &rem);
                reserved.set_remaining_vec(s, &rem);
                oracle.push(Some(rem));
            }
            2 if slots > 0 => {
                let s = (a % slots) as usize;
                if oracle[s].is_some() {
                    let rem = spread(a / 5, dims);
                    fresh.set_remaining_vec(s, &rem);
                    reserved.set_remaining_vec(s, &rem);
                    oracle[s] = Some(rem);
                }
            }
            3 if slots > 0 => {
                let s = (a % slots) as usize;
                fresh.close(s);
                reserved.close(s);
                oracle[s] = None;
            }
            _ => {}
        }
        assert_eq!(reserved.len(), fresh.len());
        assert_eq!(reserved.dims(), fresh.dims());
        let size = probe(a, dims);
        let raws = size.raws();
        let want = oracle
            .iter()
            .position(|r| r.is_some_and(|rem| (0..MAX_DIMS).all(|d| rem[d] >= raws[d])));
        assert_eq!(fresh.first_fit_vec(size), want);
        assert_eq!(reserved.first_fit_vec(size), want);
        assert_eq!(
            reserved.first_fit(size.primary().raw()),
            fresh.first_fit(size.primary().raw())
        );
        let start = (a % (slots + 1)) as usize;
        assert_eq!(
            reserved.first_fit_vec_from(start, size),
            fresh.first_fit_vec_from(start, size)
        );
        for s in 0..fresh.len() {
            assert_eq!(reserved.remaining_vec(s), fresh.remaining_vec(s));
        }
    }
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
    /// of `(bin, remaining)` pairs under insert/fill/free/remove churn,
    /// with each member addressed by the slot `insert` returned and
    /// followed through the renumbering `remove` reports.
    #[test]
    fn subset_tree_matches_vec_oracle(ops in arb_ops()) {
        let mut tree = SubsetFitTree::new();
        let mut oracle: Vec<(BinId, u64)> = Vec::new();
        let mut slot_of: Vec<usize> = Vec::new();
        let mut next_bin = 0u32;
        for (kind, a) in ops {
            match kind {
                0 => {
                    let bin = BinId(next_bin);
                    next_bin += 1;
                    slot_of.push(tree.insert(bin, a));
                    oracle.push((bin, a));
                }
                1 if !oracle.is_empty() => {
                    let idx = (a % oracle.len() as u64) as usize;
                    let (bin, rem) = oracle[idx];
                    oracle[idx].1 -= a % (rem + 1);
                    tree.set_remaining_vec(slot_of[bin.index()], &remaining(oracle[idx].1), 1);
                }
                2 if !oracle.is_empty() => {
                    let idx = (a % oracle.len() as u64) as usize;
                    let (bin, rem) = oracle[idx];
                    oracle[idx].1 += a % (SIZE_SCALE - rem + 1);
                    tree.set_remaining_vec(slot_of[bin.index()], &remaining(oracle[idx].1), 1);
                }
                3 if !oracle.is_empty() => {
                    let idx = (a % oracle.len() as u64) as usize;
                    let bin = oracle.remove(idx).0;
                    let slot = slot_of[bin.index()];
                    tree.remove(slot, |moved, new| slot_of[moved.index()] = new);
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

    /// A tree that reserved its keys (`with_capacity`) and then grew in
    /// place several times answers every query like one that started
    /// empty, scalar and with three dimensions (planes materialized
    /// mid-run, so later growths carry them).
    #[test]
    fn reserved_tree_grows_in_place_like_a_new_one(
        hint in 0usize..=40,
        planes_at in 0usize..=60,
        ops in prop::collection::vec((0u8..5, 0u64..=SIZE_SCALE), 100..=400),
    ) {
        lockstep_trees(hint, 1, usize::MAX, &ops);
        lockstep_trees(hint, 3, planes_at, &ops);
    }

    /// A partition that served one class, was emptied and cleared, then
    /// serves another answers exactly like a new one: same slots, same
    /// renumbering on compaction, same First-Fit and iteration. The first
    /// class runs with three dimensions, so the recycled tree keeps key
    /// planes a new one lacks until the second class needs them.
    #[test]
    fn cleared_partition_answers_like_a_new_one(
        before in arb_ops(),
        after in prop::collection::vec((0u8..4, 0u64..=SIZE_SCALE), 1..=600),
        dims in 1usize..=3,
    ) {
        let mut used = Subset::new(SubsetFitTree::new());
        let mut next_bin = 0u32;
        for &(kind, a) in &before {
            used.apply(kind, a, 3, &mut next_bin);
        }
        // The store's protocol: the class's last bin leaves, then clear.
        while !used.oracle.is_empty() {
            used.apply(3, 0, 3, &mut next_bin);
        }
        prop_assert!(used.tree.is_empty());
        used.tree.clear();
        let mut recycled = Subset::new(used.tree);
        let mut fresh = Subset::new(SubsetFitTree::new());
        let (mut bins_r, mut bins_f) = (next_bin, next_bin);
        for &(kind, a) in &after {
            let moves_r = recycled.apply(kind, a, dims, &mut bins_r);
            let moves_f = fresh.apply(kind, a, dims, &mut bins_f);
            prop_assert_eq!(moves_r, moves_f);
            prop_assert_eq!(&recycled.slot_of, &fresh.slot_of);
            let size = probe(a, dims);
            prop_assert_eq!(recycled.tree.first_fit(size), fresh.want(size));
            prop_assert_eq!(fresh.tree.first_fit(size), fresh.want(size));
            prop_assert_eq!(recycled.tree.len(), fresh.tree.len());
            prop_assert_eq!(
                recycled.tree.iter().collect::<Vec<_>>(),
                fresh.tree.iter().collect::<Vec<_>>()
            );
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
