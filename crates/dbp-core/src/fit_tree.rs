//! The O(log B) placement kernel: a capacity-indexed tournament tree.
//!
//! First-Fit — and every restricted variant the paper's algorithms build on
//! it (HA's per-type CD chains, CDFF's rows, CBD's bands) — asks one query
//! per arrival: *the earliest-opened bin with at least `s` remaining
//! capacity*. A linear scan pays O(open bins), and the paper's own
//! instances (adversary ladders, σ_μ, the Ω(√log μ) families) are exactly
//! the ones that drive the open-bin count into the thousands.
//!
//! [`FitTree`] answers the query in O(log B): a complete binary tournament
//! tree (segment tree) over *bin slots* in opening order, where each leaf
//! holds a key derived from the bin's remaining capacity and each internal
//! node holds the maximum key of its subtree. The First-Fit bin is found by
//! descending from the root, always preferring the left child whose max
//! still qualifies — the leftmost qualifying leaf, i.e. the
//! earliest-opened fitting bin.
//!
//! **Key encoding.** A leaf stores `remaining + 1` for an open slot and `0`
//! for a closed (or never-used) slot. An item of raw size `s` fits iff
//! `remaining ≥ s` iff `key ≥ s + 1`. Because `s + 1 ≥ 1 > 0`, closed
//! slots never qualify — including for zero-size items, which (exactly like
//! the linear scan) match the first *open* bin. Since sizes are exact
//! fixed-point integers ([`crate::size::SIZE_SCALE`]), the tree's
//! comparison is bit-for-bit the same predicate as
//! [`crate::size::Load::fits`]; the tree and the scan cannot disagree.
//!
//! **Tie-breaking invariant.** Slots are allocated in opening order and
//! compaction (`FitTree::retain_open`) keeps their order, so "leftmost
//! qualifying leaf" and "First-Fit over open bins in opening order" are
//! the same bin by construction. [`BinStore`](crate::bin_state::BinStore)
//! uses slot = [`BinId`] index; per-class [`SubsetFitTree`]s rely on
//! classes inserting their bins in ascending `BinId` order (asserted in
//! debug builds). Growth, compaction and recycling all reuse the trees'
//! buffers in place.

use crate::bin_state::BinId;
use crate::size::{SizeVec, MAX_DIMS, SIZE_SCALE};

/// Max-tournament tree over capacity keys, indexed by slot (leaf) number.
///
/// Slots are append-only (`push`); capacity doubles as needed, so `push` is
/// amortized O(1) and point updates / queries are O(log slots).
#[derive(Debug, Default, Clone)]
pub struct FitTree {
    /// Heap-shaped max tree: `keys[1]` is the root, children of `i` are
    /// `2i` and `2i+1`, leaves are `keys[cap..cap + cap]`. Key = remaining
    /// capacity + 1 for open slots, 0 for closed/unused slots. Length
    /// `2·cap`; growth fills any reserved capacity in place.
    keys: Vec<u64>,
    /// Per-dimension key planes for dimensions 1.. of a vector-packing
    /// run, same heap shape and key encoding as `keys` (which remains the
    /// dimension-0 plane). Empty for scalar runs — the D = 1 fast path
    /// never allocates or consults them. An internal node's key is the max
    /// over its subtree *per plane*, so a node qualifying in every plane
    /// is a necessary (not sufficient) condition for a qualifying leaf;
    /// [`FitTree::first_fit_vec`] descends with backtracking and decides
    /// exactly at leaves, where plane keys are the actual remainders.
    planes: Vec<Vec<u64>>,
    /// Number of leaves (a power of two, or 0 before the first push).
    cap: usize,
    /// Number of slots allocated (closed slots included).
    len: usize,
}

/// Writes leaf `slot` of a heap-shaped key array with `cap` leaves and
/// updates its ancestors, stopping at the first that does not change.
fn set_leaf(keys: &mut [u64], cap: usize, slot: usize, key: u64) {
    let mut i = cap + slot;
    keys[i] = key;
    while i > 1 {
        i >>= 1;
        let m = keys[2 * i].max(keys[2 * i + 1]);
        if keys[i] == m {
            break;
        }
        keys[i] = m;
    }
}

/// Recomputes, bottom-up, every internal node of a heap-shaped key array
/// with `cap` leaves that sits above one of the leaves `0..hi`. Nodes
/// entirely right of `hi` are left alone.
fn heapify(keys: &mut [u64], cap: usize, hi: usize) {
    if hi == 0 {
        return;
    }
    let (mut lo, mut up) = (cap, cap + hi - 1);
    while lo > 1 {
        lo >>= 1;
        up >>= 1;
        for i in lo..=up {
            keys[i] = keys[2 * i].max(keys[2 * i + 1]);
        }
    }
}

impl FitTree {
    /// An empty tree.
    pub fn new() -> FitTree {
        FitTree::default()
    }

    /// An empty tree with room reserved for `n` slots: pushes up to `n`
    /// never reallocate. The reservation is not written, so a large hint
    /// costs no page faults until slots are actually used.
    pub fn with_capacity(n: usize) -> FitTree {
        let mut t = FitTree::new();
        if n > 0 {
            t.keys = Vec::with_capacity(2 * n.next_power_of_two());
        }
        t
    }

    /// Number of slots allocated (closed slots included).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no slot is allocated.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Allocates the next slot with `remaining` capacity and returns it.
    /// Slots are numbered sequentially from 0 — opening order. Extra
    /// dimension planes (if any) start at full capacity; use
    /// [`FitTree::set_remaining_vec`] to set them.
    pub fn push(&mut self, remaining: u64) -> usize {
        if self.len == self.cap {
            self.grow();
        }
        let slot = self.len;
        self.len += 1;
        self.set_key(slot, remaining + 1);
        for plane in &mut self.planes {
            set_leaf(plane, self.cap, slot, SIZE_SCALE + 1);
        }
        slot
    }

    /// Sets a slot's remaining capacity (the slot stays open).
    #[inline]
    pub fn set_remaining(&mut self, slot: usize, remaining: u64) {
        self.set_key(slot, remaining + 1);
    }

    /// Sets a slot's per-dimension remaining capacities. Dimensions beyond
    /// the materialized planes are ignored (they are only materialized
    /// once [`FitTree::ensure_dims`] grows the tree).
    pub fn set_remaining_vec(&mut self, slot: usize, remaining: &[u64; MAX_DIMS]) {
        self.set_key(slot, remaining[0] + 1);
        for (plane, &rem) in self.planes.iter_mut().zip(&remaining[1..]) {
            set_leaf(plane, self.cap, slot, rem + 1);
        }
    }

    /// Closes a slot: it will never qualify for any query again.
    #[inline]
    pub fn close(&mut self, slot: usize) {
        self.set_key(slot, 0);
        for plane in &mut self.planes {
            set_leaf(plane, self.cap, slot, 0);
        }
    }

    /// Number of key planes currently materialized: the dimensionality
    /// queries can discriminate on (scalar trees report 1).
    #[inline]
    pub fn dims(&self) -> usize {
        self.planes.len() + 1
    }

    /// Materializes key planes so the tree discriminates on `nd`
    /// dimensions. New planes backfill every *open* slot at full remaining
    /// capacity: a plane is only materialized lazily, when the first item
    /// with a nonzero component in that dimension shows up, at which point
    /// every previously placed item provably had a zero component there —
    /// so full capacity is the exact remainder, not an approximation.
    /// Scalar runs never call this, keeping the D = 1 layout untouched.
    pub fn ensure_dims(&mut self, nd: usize) {
        assert!(nd <= MAX_DIMS, "dimension count {nd} exceeds {MAX_DIMS}");
        while self.planes.len() + 1 < nd {
            let mut plane = vec![0u64; 2 * self.cap];
            for slot in 0..self.len {
                if self.keys[self.cap + slot] > 0 {
                    plane[self.cap + slot] = SIZE_SCALE + 1;
                }
            }
            heapify(&mut plane, self.cap, self.len);
            self.planes.push(plane);
        }
    }

    /// The remaining capacity of an open slot, or `None` if closed/unused.
    #[inline]
    pub fn remaining(&self, slot: usize) -> Option<u64> {
        assert!(slot < self.len, "slot {slot} out of range {}", self.len);
        let k = self.keys[self.cap + slot];
        k.checked_sub(1)
    }

    /// Per-dimension remaining capacities of an open slot (`None` if
    /// closed/unused). Dimensions beyond the materialized planes report
    /// full capacity — exact, by the lazy-materialization invariant of
    /// [`FitTree::ensure_dims`].
    pub fn remaining_vec(&self, slot: usize) -> Option<[u64; MAX_DIMS]> {
        let r0 = self.remaining(slot)?;
        let mut out = [SIZE_SCALE; MAX_DIMS];
        out[0] = r0;
        for (d, plane) in self.planes.iter().enumerate() {
            // Open in dimension 0 ⇒ every plane key is ≥ 1.
            out[d + 1] = plane[self.cap + slot] - 1;
        }
        Some(out)
    }

    /// The lowest-numbered open slot with remaining capacity ≥ `size`, in
    /// O(log len) — the First-Fit choice.
    pub fn first_fit(&self, size: u64) -> Option<usize> {
        let needed = size + 1;
        if self.cap == 0 || self.keys[1] < needed {
            return None;
        }
        let mut i = 1;
        while i < self.cap {
            i <<= 1;
            if self.keys[i] < needed {
                i |= 1; // left subtree cannot serve; the right one must.
            }
        }
        let slot = i - self.cap;
        debug_assert!(slot < self.len);
        Some(slot)
    }

    /// The lowest-numbered open slot `≥ start` with remaining capacity
    /// ≥ `size`, in O(log len). `first_fit(s) == first_fit_from(0, s)`.
    pub fn first_fit_from(&self, start: usize, size: u64) -> Option<usize> {
        if start >= self.len {
            return None;
        }
        let needed = size + 1;
        let mut i = self.cap + start;
        if self.keys[i] >= needed {
            return Some(start);
        }
        // Climb to the first ancestor reached from a left child whose right
        // sibling's subtree holds a qualifying leaf...
        while i > 1 && ((i & 1) == 1 || self.keys[i ^ 1] < needed) {
            i >>= 1;
        }
        if i <= 1 {
            return None;
        }
        // ...then descend to the leftmost qualifying leaf of that sibling.
        i ^= 1;
        while i < self.cap {
            i <<= 1;
            if self.keys[i] < needed {
                i |= 1;
            }
        }
        let slot = i - self.cap;
        debug_assert!(slot > start && slot < self.len);
        Some(slot)
    }

    /// The lowest-numbered open slot whose remaining capacity covers `size`
    /// in *every* dimension — the vector First-Fit choice.
    ///
    /// Dimensions beyond the materialized planes are ignored, which is
    /// exact (every open slot has full remaining capacity there, see
    /// [`FitTree::ensure_dims`]); with no planes this delegates to the
    /// scalar [`FitTree::first_fit`] descent, so D = 1 queries take the
    /// identical code path and return identical answers.
    ///
    /// Internal nodes hold per-plane maxima taken over possibly *different*
    /// leaves, so a node qualifying in every plane is necessary but not
    /// sufficient; the search is a left-first DFS that prunes on that test
    /// and decides exactly at leaves, where plane keys are the actual
    /// remainders. Worst case O(len), but pruning keeps typical queries
    /// near O(log len).
    pub fn first_fit_vec(&self, size: SizeVec) -> Option<usize> {
        let nd = size.dims_used().min(self.planes.len() + 1);
        if nd <= 1 {
            return self.first_fit(size.primary().raw());
        }
        if self.cap == 0 {
            return None;
        }
        let raws = size.raws();
        let needed = raws.map(|r| r + 1);
        let qualifies = |i: usize| {
            self.keys[i] >= needed[0]
                && self.planes[..nd - 1]
                    .iter()
                    .enumerate()
                    .all(|(d, plane)| plane[i] >= needed[d + 1])
        };
        // Explicit DFS stack: ≤ one deferred right sibling per level, so
        // depth + 1 entries suffice (cap ≤ 2^63 ⇒ depth ≤ 63).
        let mut stack = [0usize; 65];
        let mut sp = 0;
        stack[sp] = 1;
        sp += 1;
        while sp > 0 {
            sp -= 1;
            let i = stack[sp];
            if !qualifies(i) {
                continue;
            }
            if i >= self.cap {
                let slot = i - self.cap;
                debug_assert!(slot < self.len);
                return Some(slot);
            }
            stack[sp] = 2 * i + 1; // right sibling, visited after...
            stack[sp + 1] = 2 * i; // ...the left child (popped first).
            sp += 2;
        }
        None
    }

    /// The lowest-numbered open slot `≥ start` fitting `size` in every
    /// dimension. `first_fit_vec(s) == first_fit_vec_from(0, s)`; delegates
    /// to the scalar [`FitTree::first_fit_from`] when no extra plane is in
    /// play, so D = 1 queries stay on the identical code path.
    pub fn first_fit_vec_from(&self, start: usize, size: SizeVec) -> Option<usize> {
        let nd = size.dims_used().min(self.planes.len() + 1);
        if nd <= 1 {
            return self.first_fit_from(start, size.primary().raw());
        }
        if self.cap == 0 || start >= self.len {
            return None;
        }
        let raws = size.raws();
        let needed = raws.map(|r| r + 1);
        let qualifies = |i: usize| {
            self.keys[i] >= needed[0]
                && self.planes[..nd - 1]
                    .iter()
                    .enumerate()
                    .all(|(d, plane)| plane[i] >= needed[d + 1])
        };
        let log_cap = self.cap.ilog2();
        let mut stack = [0usize; 65];
        let mut sp = 0;
        stack[sp] = 1;
        sp += 1;
        while sp > 0 {
            sp -= 1;
            let i = stack[sp];
            // Node i covers leaves [i·2^s, (i+1)·2^s); prune subtrees
            // that end strictly before `start`.
            let s = log_cap - i.ilog2();
            let last_slot = (((i + 1) << s) - 1) - self.cap;
            if last_slot < start || !qualifies(i) {
                continue;
            }
            if i >= self.cap {
                let slot = i - self.cap;
                debug_assert!(slot >= start && slot < self.len);
                return Some(slot);
            }
            stack[sp] = 2 * i + 1;
            stack[sp + 1] = 2 * i;
            sp += 2;
        }
        None
    }

    fn set_key(&mut self, slot: usize, key: u64) {
        assert!(slot < self.len, "slot {slot} out of range {}", self.len);
        set_leaf(&mut self.keys, self.cap, slot, key);
    }

    /// Doubles the leaf count in place, within any reserved capacity: each
    /// plane's leaves move into the new half (past the old leaves, so the
    /// copy never overlaps) and one pass rebuilds the internal nodes.
    fn grow(&mut self) {
        let (old_cap, len) = (self.cap, self.len);
        let cap = (2 * old_cap).max(1);
        for keys in std::iter::once(&mut self.keys).chain(&mut self.planes) {
            keys.resize(2 * cap, 0);
            keys.copy_within(old_cap..old_cap + len, cap);
            heapify(keys, cap, cap);
        }
        self.cap = cap;
    }

    /// Compacts the tree to its open slots: they keep their order and
    /// keys but move to slots `0..k`, and every other slot is released.
    /// `kept(old, new)` reports each open slot's old and new number, in
    /// order. The buffers are rewritten in place with one bottom-up pass
    /// over the compacted range, so this allocates nothing.
    pub(crate) fn retain_open(&mut self, mut kept: impl FnMut(usize, usize)) {
        let (cap, old_len) = (self.cap, self.len);
        let mut new = 0;
        for old in 0..old_len {
            if self.keys[cap + old] > 0 {
                for keys in std::iter::once(&mut self.keys).chain(&mut self.planes) {
                    keys[cap + new] = keys[cap + old];
                }
                kept(old, new);
                new += 1;
            }
        }
        self.len = new;
        for keys in std::iter::once(&mut self.keys).chain(&mut self.planes) {
            keys[cap + new..cap + old_len].fill(0);
            heapify(keys, cap, old_len);
        }
    }
}

/// A First-Fit index over a *subset* of bins: one bin class's partition
/// inside [`crate::bin_state::BinStore`] (one HA type chain or HA's GN
/// bins, one CDFF row, one CBD band, one Harmonic size class).
///
/// The store keeps every partition in step with its own records — a bin
/// joins its class's partition when it opens (`insert`), its remaining
/// capacity is rewritten on every placement, departure and migration
/// (`set_remaining_vec`), and it leaves when it closes (`remove`) — so a
/// partition cannot drift from the bins it indexes. `first_fit` answers in
/// O(log k), where `k` is the number of bins the class held since its last
/// internal compaction.
///
/// Members are addressed by the *slot* [`SubsetFitTree::insert`] returns;
/// the owner keeps it (the store keeps it beside each bin's partition) and
/// follows the renumbering [`SubsetFitTree::remove`] reports when it
/// compacts. Slots are assigned in insertion order; inserting bins in
/// ascending [`BinId`] order (bins join their partition as they open, and
/// engine ids are allocated sequentially) makes the leftmost qualifying
/// slot the earliest-opened bin — identical to the linear scan over the
/// class's bin list. Removed slots are tombstoned in the tree and
/// compacted away once they outnumber live bins.
#[derive(Debug, Default, Clone)]
pub struct SubsetFitTree {
    tree: FitTree,
    /// Slot → bin (parallel to the tree's leaves, including closed slots).
    bins: Vec<BinId>,
    /// Number of live (inserted, not removed) slots.
    live: usize,
}

impl SubsetFitTree {
    /// An empty subset index.
    pub fn new() -> SubsetFitTree {
        SubsetFitTree::default()
    }

    /// Number of live (not removed) bins in the subset.
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the subset has no live bins.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Adds a bin with `remaining` raw capacity in dimension 0 (full
    /// capacity in any extra dimensions) and returns its slot. Bins must
    /// be inserted in ascending id order (the order the engine allocates
    /// them), which is what makes tree queries agree with an opening-order
    /// linear scan.
    pub fn insert(&mut self, bin: BinId, remaining: u64) -> usize {
        debug_assert!(
            self.bins.last().is_none_or(|&last| last < bin),
            "subset insertions must follow opening order: {bin} after {:?}",
            self.bins.last()
        );
        let slot = self.tree.push(remaining);
        debug_assert_eq!(slot, self.bins.len());
        self.bins.push(bin);
        self.live += 1;
        slot
    }

    /// Sets the remaining capacity of the member at `slot`, one component
    /// per dimension, first materializing key planes up to `dims`
    /// dimensions (see [`FitTree::ensure_dims`]).
    ///
    /// # Panics
    /// Panics if `slot` was never allocated.
    #[inline]
    pub fn set_remaining_vec(&mut self, slot: usize, remaining: &[u64; MAX_DIMS], dims: usize) {
        self.tree.ensure_dims(dims);
        self.tree.set_remaining_vec(slot, remaining);
    }

    /// Removes the member at `slot` (a slot that is already a tombstone
    /// is left alone).
    /// Once tombstones outnumber live members the tree compacts in place,
    /// and `moved(bin, new_slot)` reports every member whose slot changed;
    /// all other slots stay valid.
    pub fn remove(&mut self, slot: usize, moved: impl FnMut(BinId, usize)) {
        if self.tree.remaining(slot).is_none() {
            return;
        }
        self.tree.close(slot);
        self.live -= 1;
        // Compact once tombstones dominate: amortized O(1) per removal.
        if self.live * 2 < self.tree.len() && self.tree.len() > 64 {
            self.compact(|bin| bin, moved);
        }
    }

    /// Compacts the tree to its live slots in place, naming each member
    /// `rename(bin)` and reporting `moved(bin, new_slot)` for every member
    /// whose slot changed.
    fn compact(&mut self, rename: impl Fn(BinId) -> BinId, mut moved: impl FnMut(BinId, usize)) {
        let bins = &mut self.bins;
        self.tree.retain_open(|old, new| {
            let bin = rename(bins[old]);
            bins[new] = bin;
            if old != new {
                moved(bin, new);
            }
        });
        bins.truncate(self.tree.len());
    }

    /// Earliest-inserted live bin with remaining capacity ≥ `size` in
    /// every dimension.
    #[inline]
    pub fn first_fit(&self, size: impl Into<SizeVec>) -> Option<BinId> {
        self.tree
            .first_fit_vec(size.into())
            .map(|slot| self.bins[slot])
    }

    /// Live bins in insertion (= opening) order, with remaining capacity.
    pub fn iter(&self) -> impl Iterator<Item = (BinId, u64)> + '_ {
        (0..self.tree.len())
            .filter_map(move |slot| self.tree.remaining(slot).map(|rem| (self.bins[slot], rem)))
    }

    /// Renames every member after a bin-store compaction:
    /// `old_to_new[old.index()]` is the bin's new id (`BinId(u32::MAX)`
    /// marks a dropped closed bin — never a live member, since closing
    /// removes a bin first). Tombstones are compacted away in the same
    /// pass, in place; `moved(bin, new_slot)` reports (under the new name)
    /// every member whose slot changed. The renumbering preserves opening
    /// order, so the slot order and every first-fit answer are unchanged.
    pub fn remap_bins(&mut self, old_to_new: &[BinId], moved: impl FnMut(BinId, usize)) {
        let rename = |old: BinId| {
            let new = old_to_new[old.index()];
            debug_assert!(new != BinId(u32::MAX), "live bin dropped by compaction");
            new
        };
        self.compact(rename, moved);
    }

    /// Readies an empty subset for reuse by another class, keeping its
    /// buffers (and any key planes): its tombstones are dropped, so it
    /// answers every query exactly like a new one.
    pub fn clear(&mut self) {
        debug_assert!(self.is_empty(), "only an empty subset is recycled");
        self.compact(|bin| bin, |_, _| {});
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::size::{Size, SIZE_SCALE};

    #[test]
    fn empty_tree_answers_none() {
        let t = FitTree::new();
        assert_eq!(t.first_fit(0), None);
        assert_eq!(t.first_fit_from(0, 0), None);
        assert!(t.is_empty());
    }

    #[test]
    fn leftmost_qualifying_slot_wins() {
        let mut t = FitTree::new();
        for rem in [10, 50, 30, 50] {
            t.push(rem);
        }
        assert_eq!(t.first_fit(5), Some(0));
        assert_eq!(t.first_fit(11), Some(1));
        assert_eq!(t.first_fit(31), Some(1));
        assert_eq!(t.first_fit(51), None);
        assert_eq!(t.first_fit_from(2, 11), Some(2));
        assert_eq!(t.first_fit_from(2, 31), Some(3));
        assert_eq!(t.first_fit_from(3, 11), Some(3));
        assert_eq!(t.first_fit_from(3, 51), None);
    }

    #[test]
    fn closed_slots_never_match_even_zero_size() {
        let mut t = FitTree::new();
        t.push(0); // open, zero remaining
        t.push(7);
        assert_eq!(t.first_fit(0), Some(0), "zero-size fits a full open bin");
        t.close(0);
        assert_eq!(t.first_fit(0), Some(1), "closed slot skipped");
        t.close(1);
        assert_eq!(t.first_fit(0), None);
    }

    #[test]
    fn updates_propagate_and_growth_preserves_keys() {
        let mut t = FitTree::new();
        for i in 0..100u64 {
            t.push(i);
        }
        assert_eq!(t.first_fit(99), Some(99));
        t.set_remaining(4, 1_000);
        assert_eq!(t.first_fit(100), Some(4));
        t.close(4);
        assert_eq!(t.first_fit(100), None);
        assert_eq!(t.remaining(4), None);
        assert_eq!(t.remaining(5), Some(5));
    }

    #[test]
    fn matches_linear_oracle_on_random_ops() {
        // Deterministic xorshift; mirrors slots in a plain Vec<Option<u64>>.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut t = FitTree::new();
        let mut oracle: Vec<Option<u64>> = Vec::new();
        for _ in 0..4_000 {
            match rand() % 4 {
                0 => {
                    let rem = rand() % SIZE_SCALE;
                    t.push(rem);
                    oracle.push(Some(rem));
                }
                1 if !oracle.is_empty() => {
                    let slot = (rand() % oracle.len() as u64) as usize;
                    let rem = rand() % SIZE_SCALE;
                    if oracle[slot].is_some() {
                        t.set_remaining(slot, rem);
                        oracle[slot] = Some(rem);
                    }
                }
                2 if !oracle.is_empty() => {
                    let slot = (rand() % oracle.len() as u64) as usize;
                    t.close(slot);
                    oracle[slot] = None;
                }
                _ => {
                    let size = rand() % SIZE_SCALE;
                    let want = oracle.iter().position(|r| r.is_some_and(|rem| rem >= size));
                    assert_eq!(t.first_fit(size), want);
                    if !oracle.is_empty() {
                        let start = (rand() % oracle.len() as u64) as usize;
                        let want_from = oracle
                            .iter()
                            .enumerate()
                            .skip(start)
                            .find(|(_, r)| r.is_some_and(|rem| rem >= size))
                            .map(|(i, _)| i);
                        assert_eq!(t.first_fit_from(start, size), want_from);
                    }
                }
            }
        }
    }

    /// Full capacity in every dimension but dimension 0.
    fn rem0(r: u64) -> [u64; MAX_DIMS] {
        let mut rem = [SIZE_SCALE; MAX_DIMS];
        rem[0] = r;
        rem
    }

    #[test]
    fn subset_tracks_updates_and_removals() {
        let mut s = SubsetFitTree::new();
        let half = Size::from_ratio(1, 2);
        let b3 = s.insert(BinId(3), SIZE_SCALE);
        s.insert(BinId(7), SIZE_SCALE);
        assert_eq!(s.first_fit(half), Some(BinId(3)));
        s.set_remaining_vec(b3, &rem0(SIZE_SCALE / 3), 1);
        assert_eq!(s.first_fit(half), Some(BinId(7)));
        s.set_remaining_vec(b3, &rem0(SIZE_SCALE), 1);
        assert_eq!(s.first_fit(half), Some(BinId(3)));
        let no_compaction = |_: BinId, _: usize| panic!("two slots never compact");
        s.remove(b3, no_compaction);
        assert_eq!(s.first_fit(half), Some(BinId(7)));
        assert_eq!(s.len(), 1);
        s.remove(b3, no_compaction); // already removed: ignored
        assert_eq!(s.len(), 1);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![(BinId(7), SIZE_SCALE)]);
    }

    /// Inserts bins `0..n` (remaining `i` in dimension 0) and returns
    /// their slots, indexed by bin.
    fn subset_of(s: &mut SubsetFitTree, n: u32) -> Vec<usize> {
        (0..n).map(|i| s.insert(BinId(i), u64::from(i))).collect()
    }

    #[test]
    fn subset_compaction_preserves_order_and_capacities() {
        let mut s = SubsetFitTree::new();
        let mut slots = subset_of(&mut s, 200);
        let mut moves = 0;
        for i in 0..180 {
            let slot = slots[i];
            s.remove(slot, |bin, new| {
                slots[bin.index()] = new;
                moves += 1;
            });
        }
        assert!(moves > 0, "tombstones outnumbering live slots compact");
        assert_eq!(s.len(), 20);
        let live: Vec<(BinId, u64)> = s.iter().collect();
        assert_eq!(live.len(), 20);
        for (k, &(bin, rem)) in live.iter().enumerate() {
            assert_eq!(bin, BinId(180 + k as u32));
            assert_eq!(rem, u64::from(180 + k as u32));
        }
        // Queries still answer the earliest live bin after compaction...
        assert_eq!(s.first_fit(Size::from_raw(185)), Some(BinId(185)));
        // ...and the reported slots still address their bins.
        s.set_remaining_vec(slots[190], &rem0(SIZE_SCALE), 1);
        assert_eq!(s.first_fit(Size::from_raw(500)), Some(BinId(190)));
        s.remove(slots[190], |_, _| {});
        assert_eq!(s.first_fit(Size::from_raw(500)), None);
        assert_eq!(s.len(), 19);
    }

    #[test]
    fn retain_open_compacts_in_place_and_keeps_order() {
        let mut t = FitTree::with_capacity(8);
        t.ensure_dims(2);
        for i in 0..8u64 {
            let slot = t.push(i);
            t.set_remaining_vec(slot, &[i, 100 + i, SIZE_SCALE]);
        }
        for slot in [0, 2, 3, 6] {
            t.close(slot);
        }
        let mut moves = Vec::new();
        t.retain_open(|old, new| moves.push((old, new)));
        assert_eq!(moves, [(1, 0), (4, 1), (5, 2), (7, 3)]);
        assert_eq!(t.len(), 4);
        let left: Vec<_> = (0..4)
            .map(|s| t.remaining_vec(s).unwrap()[..2].to_vec())
            .collect();
        assert_eq!(left, [[1, 101], [4, 104], [5, 105], [7, 107]]);
        assert_eq!(t.first_fit(5), Some(2));
        assert_eq!(t.first_fit(8), None);
        assert_eq!(t.first_fit_vec(vec2(4, 105)), Some(2));
        // Released slots are reused by the next pushes, in order.
        assert_eq!(t.push(50), 4);
        assert_eq!(t.first_fit(8), Some(4));
        // With every slot closed, compaction empties the tree for reuse.
        for slot in 0..t.len() {
            t.close(slot);
        }
        t.retain_open(|_, _| panic!("no open slot to keep"));
        assert!(t.is_empty());
        assert_eq!(t.first_fit(0), None);
        assert_eq!(t.push(3), 0);
        assert_eq!(t.remaining_vec(0), Some([3, SIZE_SCALE, SIZE_SCALE]));
    }

    fn vec2(a: u64, b: u64) -> SizeVec {
        SizeVec::try_from_raws(&[a, b]).unwrap()
    }

    #[test]
    fn vector_query_needs_every_dimension_to_fit() {
        let mut t = FitTree::new();
        t.push(SIZE_SCALE); // slot 0
        t.push(SIZE_SCALE); // slot 1
        t.ensure_dims(2);
        // Both slots have ample dim-0; dim-1 is nearly exhausted in slot 0
        // and merely tight in slot 1.
        t.set_remaining_vec(0, &[SIZE_SCALE, 10, SIZE_SCALE]);
        t.set_remaining_vec(1, &[SIZE_SCALE, 500, SIZE_SCALE]);
        assert_eq!(t.first_fit(100), Some(0), "scalar sees only dimension 0");
        assert_eq!(t.first_fit_vec(vec2(100, 100)), Some(1));
        assert_eq!(t.first_fit_vec(vec2(100, 5)), Some(0));
        assert_eq!(t.first_fit_vec(vec2(100, 11)), Some(1));
        assert_eq!(t.first_fit_vec(vec2(100, 501)), None);
        // D=1 queries delegate to the scalar descent.
        assert_eq!(
            t.first_fit_vec(SizeVec::scalar(Size::from_raw(100))),
            Some(0)
        );
    }

    #[test]
    fn ensure_dims_backfills_open_slots_at_full_capacity() {
        let mut t = FitTree::new();
        t.push(42);
        t.push(7);
        t.close(1);
        t.ensure_dims(3);
        assert_eq!(t.dims(), 3);
        assert_eq!(t.remaining_vec(0), Some([42, SIZE_SCALE, SIZE_SCALE]));
        assert_eq!(
            t.remaining_vec(1),
            None,
            "closed slots stay closed per plane"
        );
        // A later push starts fully open in every plane.
        let slot = t.push(5);
        assert_eq!(t.remaining_vec(slot), Some([5, SIZE_SCALE, SIZE_SCALE]));
    }

    #[test]
    fn vector_matches_linear_oracle_on_random_ops() {
        let mut state = 0xfeed_face_cafe_beefu64;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut t = FitTree::new();
        t.ensure_dims(3);
        let mut oracle: Vec<Option<[u64; MAX_DIMS]>> = Vec::new();
        for _ in 0..4_000 {
            match rand() % 4 {
                0 => {
                    let rem = [
                        rand() % SIZE_SCALE,
                        rand() % SIZE_SCALE,
                        rand() % SIZE_SCALE,
                    ];
                    let slot = t.push(rem[0]);
                    t.set_remaining_vec(slot, &rem);
                    oracle.push(Some(rem));
                }
                1 if !oracle.is_empty() => {
                    let slot = (rand() % oracle.len() as u64) as usize;
                    if oracle[slot].is_some() {
                        let rem = [
                            rand() % SIZE_SCALE,
                            rand() % SIZE_SCALE,
                            rand() % SIZE_SCALE,
                        ];
                        t.set_remaining_vec(slot, &rem);
                        oracle[slot] = Some(rem);
                    }
                }
                2 if !oracle.is_empty() => {
                    let slot = (rand() % oracle.len() as u64) as usize;
                    t.close(slot);
                    oracle[slot] = None;
                }
                _ => {
                    // Bias sizes small so queries hit mid-tree, not just root.
                    let s = [
                        rand() % (SIZE_SCALE / 2) + 1,
                        rand() % (SIZE_SCALE / 2) + 1,
                        rand() % (SIZE_SCALE / 2) + 1,
                    ];
                    let size = SizeVec::try_from_raws(&s).unwrap();
                    let want = oracle
                        .iter()
                        .position(|r| r.is_some_and(|rem| (0..MAX_DIMS).all(|d| rem[d] >= s[d])));
                    assert_eq!(t.first_fit_vec(size), want);
                }
            }
        }
    }

    #[test]
    fn subset_tracks_vector_remainders_through_compaction() {
        let mut s = SubsetFitTree::new();
        let rem = |a: u64, b: u64| {
            let mut r = [SIZE_SCALE; MAX_DIMS];
            r[0] = a;
            r[1] = b;
            r
        };
        let mut slots = subset_of(&mut s, 200);
        for (i, &slot) in slots.iter().enumerate() {
            s.set_remaining_vec(slot, &rem(i as u64, SIZE_SCALE / 2), 2);
        }
        for i in 0..180 {
            let slot = slots[i];
            s.remove(slot, |bin, new| slots[bin.index()] = new);
        }
        // Remainders: dim0 = i, dim1 = SIZE_SCALE/2, surviving compaction.
        assert_eq!(s.first_fit(vec2(185, SIZE_SCALE / 2)), Some(BinId(185)));
        assert_eq!(s.first_fit(vec2(185, SIZE_SCALE / 2 + 1)), None);
        s.set_remaining_vec(slots[185], &rem(185, 3 * SIZE_SCALE / 4), 2);
        assert_eq!(s.first_fit(vec2(185, SIZE_SCALE / 2 + 1)), Some(BinId(185)));
        s.set_remaining_vec(slots[185], &rem(185, SIZE_SCALE / 2), 2);
        assert_eq!(s.first_fit(vec2(185, SIZE_SCALE / 2 + 1)), None);
    }
}
