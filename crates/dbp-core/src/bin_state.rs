//! Bin bookkeeping shared by the engine and (read-only) by algorithms.
//!
//! This is the simulator's hot path: every arrival queries First-Fit over
//! the open bins and every departure updates one bin. The store therefore
//! keeps four indexes alongside the flat record table:
//!
//! * a capacity tournament tree ([`crate::fit_tree::FitTree`], slot =
//!   [`BinId`]) answering First-Fit in O(log B) instead of O(B);
//! * one First-Fit partition ([`crate::fit_tree::SubsetFitTree`]) per
//!   live [`BinClass`], answering First-Fit *within a class* — HA's type
//!   chains and GN bins, CDFF's rows, CBD's bands — in O(log k), updated
//!   by the same calls that update the record, so algorithms keep no copy
//!   of their bins;
//! * a per-bin position index into the opening-order open list, so closing
//!   a bin is O(1) (tombstone + amortized compaction) instead of an O(B)
//!   order-preserving `Vec::remove`;
//! * a per-item slot index into its bin's resident list, so a departure's
//!   item removal is O(1) instead of an O(items) scan.
//!
//! All four are pure indexes: the observable behaviour (which bin
//! First-Fit picks, the iteration order of open bins) is bit-for-bit the
//! linear-scan semantics, and [`BinStore::first_fit_linear`] retains the
//! naive scan as a differential-testing oracle.

use core::cell::Cell;
use core::fmt;
use std::collections::HashMap;

use crate::fit_tree::{FitTree, SubsetFitTree};
use crate::item::ItemId;
use crate::size::{LoadVec, SizeVec, SIZE_SCALE};
use crate::time::Time;

/// Identifier of a bin, assigned in opening order (bin 0 opened first).
/// Closed bins are never reused (the problem's w.l.o.g. assumption), so a
/// `BinId` names one bin for the whole run — until a
/// [`BinStore::compact_bins`] reclaims closed records and renumbers the
/// survivors densely (still in opening order); the engine rewrites its
/// own tables and tells its event sink through `EventSink::on_bin_compact`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BinId(pub u32);

/// A class of bins an algorithm packs separately: one HA type chain (or
/// HA's shared GN bins), one CDFF row, one CBD band, one Harmonic size
/// class. A bin's class is fixed when it opens
/// ([`crate::algorithm::Placement::OpenIn`]); the store keeps one
/// First-Fit partition per class that has open bins. The number is the
/// algorithm's own encoding and means nothing to the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BinClass(pub u64);

impl BinId {
    /// Index into per-bin arrays.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BinId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// Tombstone marking a closed bin's slot in the open list until the next
/// compaction. `u32::MAX` can never collide with a real id: `BinStore::open`
/// rejects that many bins first.
const TOMBSTONE: BinId = BinId(u32::MAX);

/// Sentinel for "no position" in the `u32` position indexes.
const NO_POS: u32 = u32::MAX;

/// The engine-side record of one bin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinRecord {
    /// This bin's id.
    pub id: BinId,
    /// When the bin was opened (its first item's arrival).
    pub opened_at: Time,
    /// When the bin closed (its last item's departure), if it has.
    pub closed_at: Option<Time>,
    /// Current total load of resident items, one component per dimension
    /// (scalar runs only ever touch dimension 0).
    pub load: LoadVec,
    /// Number of currently resident items.
    pub resident: u32,
    /// Ids of currently resident items (kept for diagnostics & figures).
    /// Order is not meaningful (removals swap).
    pub items: Vec<ItemId>,
    /// The class the bin was opened in (`None` for an unclassed
    /// [`crate::algorithm::Placement::OpenNew`]).
    pub class: Option<BinClass>,
    /// Latest departure among the current residents, as planned when each
    /// was placed (see `OnlineAlgorithm::planned_departure`); the far
    /// future while an undated resident is aboard.
    pub latest_departure: Time,
}

impl BinRecord {
    /// Whether the bin is still open.
    #[inline]
    pub fn is_open(&self) -> bool {
        self.closed_at.is_none()
    }

    /// Whether `s` fits in the remaining capacity of every dimension.
    #[inline]
    pub fn fits(&self, s: impl Into<SizeVec>) -> bool {
        self.load.fits(s.into())
    }
}

/// The set of all bins ever opened during a run, indexed by [`BinId`].
///
/// Open bins are additionally tracked in opening order, which is exactly
/// the order First-Fit scans, plus a capacity tournament tree that answers
/// First-Fit queries in O(log B) (see the module docs for the invariants).
#[derive(Debug, Default, Clone)]
pub struct BinStore {
    bins: Vec<BinRecord>,
    /// Open bins in opening order (ascending `BinId`), with [`TOMBSTONE`]
    /// holes for recently closed bins. Trailing tombstones are trimmed
    /// eagerly (so `open.last()` is always live) and interior ones are
    /// compacted away once they outnumber live entries.
    open: Vec<BinId>,
    /// `open_pos[bin] == i` ⇔ `open[i] == bin`; [`NO_POS`] once closed.
    open_pos: Vec<u32>,
    /// Number of tombstones currently in `open`.
    dead: usize,
    /// Capacity tournament tree; slot = `BinId` index, closed bins keyed 0.
    tree: FitTree,
    /// First-Fit partitions, one per class with open bins, each holding
    /// the class's open bins in opening order. A slot emptied by its
    /// class's last close is recycled through `free_parts`.
    parts: Vec<SubsetFitTree>,
    free_parts: Vec<u32>,
    /// Class → its slot in `parts`, for class queries and opens.
    class_part: HashMap<BinClass, u32>,
    /// `part_of[bin]`: the `parts` slot of an open classed bin, [`NO_POS`]
    /// otherwise — so placements and departures reach the partition
    /// without hashing the class.
    part_of: Vec<u32>,
    /// `item_pos[item] == i` ⇔ the item sits at `items[i]` of its bin.
    item_pos: Vec<u32>,
    /// Tournament-tree First-Fit queries answered (observability counter;
    /// `Cell` because queries go through `&self` views).
    tree_queries: Cell<u64>,
    /// Linear enumerations of the open list (naive First-Fit scans and
    /// algorithm-visible `open_bins` walks).
    linear_scans: Cell<u64>,
    /// Open-list tombstone compactions performed.
    compactions: u64,
    /// Recycled resident-list buffers from closed bins. A close donates its
    /// (empty, capacity-bearing) `items` vector here and the next open
    /// takes one back, so steady-state bin churn stops allocating once
    /// capacities have warmed up.
    spare_lists: Vec<Vec<ItemId>>,
    /// Closed-bin records dropped by [`BinStore::compact_bins`]; keeps
    /// [`BinStore::total_opened`] counting the whole run after records are
    /// reclaimed.
    retired: usize,
}

/// Checked `usize → u32` for the store's position indexes, matching the
/// engine's `row_id` idiom: an index past `u32::MAX` must fail loudly
/// here rather than silently truncate.
#[inline]
fn pos_id(i: usize) -> u32 {
    u32::try_from(i).expect("bin store index exceeds u32::MAX")
}

impl BinStore {
    /// An empty store.
    pub fn new() -> BinStore {
        BinStore::default()
    }

    /// An empty store pre-sized for `bins` bins and `items` items: every
    /// index (records, open list, position maps, tournament tree) reserves
    /// up front, so a run that stays within the estimate never reallocates
    /// or rebuilds the tree.
    pub fn with_capacity(bins: usize, items: usize) -> BinStore {
        BinStore {
            bins: Vec::with_capacity(bins),
            open: Vec::with_capacity(bins),
            open_pos: Vec::with_capacity(bins),
            dead: 0,
            tree: FitTree::with_capacity(bins),
            parts: Vec::new(),
            free_parts: Vec::new(),
            class_part: HashMap::new(),
            part_of: Vec::with_capacity(bins),
            item_pos: Vec::with_capacity(items),
            tree_queries: Cell::new(0),
            linear_scans: Cell::new(0),
            compactions: 0,
            spare_lists: Vec::new(),
            retired: 0,
        }
    }

    /// Opens a new unclassed bin at time `t` and returns its id.
    pub fn open(&mut self, t: Time) -> BinId {
        self.open_with(t, None)
    }

    /// Opens a new bin of `class` at time `t` and returns its id; the bin
    /// joins the class's First-Fit partition until it closes.
    pub fn open_in(&mut self, t: Time, class: BinClass) -> BinId {
        self.open_with(t, Some(class))
    }

    pub(crate) fn open_with(&mut self, t: Time, class: Option<BinClass>) -> BinId {
        let raw = u32::try_from(self.bins.len()).expect("too many bins");
        assert!(raw != TOMBSTONE.0, "too many bins");
        let id = BinId(raw);
        self.bins.push(BinRecord {
            id,
            opened_at: t,
            closed_at: None,
            load: LoadVec::ZERO,
            resident: 0,
            items: self.spare_lists.pop().unwrap_or_default(),
            class,
            latest_departure: Time::ZERO,
        });
        self.open_pos.push(pos_id(self.open.len()));
        self.open.push(id);
        let slot = self.tree.push(SIZE_SCALE);
        debug_assert_eq!(slot, id.index());
        let part = class.map_or(NO_POS, |class| {
            let part = *self.class_part.entry(class).or_insert_with(|| {
                self.free_parts.pop().unwrap_or_else(|| {
                    self.parts.push(SubsetFitTree::new());
                    pos_id(self.parts.len() - 1)
                })
            });
            self.parts[part as usize].insert(id, SIZE_SCALE);
            part
        });
        self.part_of.push(part);
        id
    }

    /// Adds an item to a bin (capacity is the caller's responsibility; the
    /// engine validates before calling).
    pub fn add(&mut self, bin: BinId, item: ItemId, size: impl Into<SizeVec>) {
        let size = size.into();
        self.tree.ensure_dims(size.dims_used());
        let rec = &mut self.bins[bin.index()];
        debug_assert!(rec.is_open());
        debug_assert!(rec.fits(size));
        rec.load += size;
        rec.resident += 1;
        let idx = item.index();
        if idx >= self.item_pos.len() {
            self.item_pos.resize(idx + 1, NO_POS);
        }
        self.item_pos[idx] = pos_id(rec.items.len());
        rec.items.push(item);
        let remaining = rec.load.remaining();
        self.tree.set_remaining_vec(bin.index(), &remaining);
        let part = self.part_of[bin.index()];
        if part != NO_POS {
            self.parts[part as usize].set_remaining_vec(bin, &remaining, size.dims_used());
        }
    }

    /// The partition of `class`, if it has open bins.
    fn partition(&self, class: BinClass) -> Option<&SubsetFitTree> {
        let &part = self.class_part.get(&class)?;
        Some(&self.parts[part as usize])
    }

    /// Raises `bin`'s latest resident departure to cover `departure` (a
    /// placement or a migration into the bin).
    pub(crate) fn book_departure(&mut self, bin: BinId, departure: Time) {
        let rec = &mut self.bins[bin.index()];
        rec.latest_departure = rec.latest_departure.max(departure);
    }

    /// Recomputes `bin`'s latest resident departure from its residents,
    /// after one left ahead of its departure (migration) or was dated.
    pub(crate) fn rebook_departures(&mut self, bin: BinId, departure_of: impl Fn(ItemId) -> Time) {
        let rec = &mut self.bins[bin.index()];
        rec.latest_departure = rec
            .items
            .iter()
            .map(|&i| departure_of(i))
            .max()
            .unwrap_or(Time::ZERO);
    }

    /// Removes an item from a bin; closes the bin (recording `t`) when it
    /// empties. Returns `true` if the bin closed.
    pub fn remove(&mut self, bin: BinId, item: ItemId, size: impl Into<SizeVec>, t: Time) -> bool {
        let size = size.into();
        let rec = &mut self.bins[bin.index()];
        debug_assert!(rec.is_open());
        rec.load -= size;
        rec.resident -= 1;
        // O(1) removal through the position index, with the seed's tolerant
        // linear scan as a fallback for items the index never saw.
        let indexed = self
            .item_pos
            .get(item.index())
            .map(|&p| p as usize)
            .filter(|&p| p < rec.items.len() && rec.items[p] == item);
        let pos = indexed.or_else(|| rec.items.iter().position(|&i| i == item));
        if let Some(pos) = pos {
            rec.items.swap_remove(pos);
            self.item_pos[item.index()] = NO_POS;
            if let Some(&moved) = rec.items.get(pos) {
                self.item_pos[moved.index()] = pos_id(pos);
            }
        }
        if rec.resident == 0 {
            rec.closed_at = Some(t);
            // Donate the (now empty) resident buffer to the recycling pool.
            let spare = core::mem::take(&mut rec.items);
            self.spare_lists.push(spare);
            self.tree.close(bin.index());
            let part = core::mem::replace(&mut self.part_of[bin.index()], NO_POS);
            if part != NO_POS {
                let partition = &mut self.parts[part as usize];
                partition.remove(bin);
                if partition.is_empty() {
                    *partition = SubsetFitTree::new();
                    self.free_parts.push(part);
                    let class = rec.class.expect("a partitioned bin has a class");
                    self.class_part.remove(&class);
                }
            }
            // O(1) open-list removal: tombstone the slot; opening order of
            // the survivors is untouched.
            let pos = self.open_pos[bin.index()] as usize;
            debug_assert_eq!(self.open[pos], bin);
            self.open[pos] = TOMBSTONE;
            self.open_pos[bin.index()] = NO_POS;
            self.dead += 1;
            while self.open.last() == Some(&TOMBSTONE) {
                self.open.pop();
                self.dead -= 1;
            }
            if self.dead * 2 > self.open.len() {
                self.compact_open();
            }
            true
        } else {
            let remaining = rec.load.remaining();
            self.tree.set_remaining_vec(bin.index(), &remaining);
            let part = self.part_of[bin.index()];
            if part != NO_POS {
                self.parts[part as usize].set_remaining_vec(bin, &remaining, size.dims_used());
            }
            false
        }
    }

    /// Rebuilds the open list without tombstones. Runs when tombstones
    /// outnumber live bins, so its O(B) cost amortizes to O(1) per close.
    fn compact_open(&mut self) {
        self.compactions += 1;
        self.open.retain(|&b| b != TOMBSTONE);
        self.dead = 0;
        for (i, &b) in self.open.iter().enumerate() {
            self.open_pos[b.index()] = pos_id(i);
        }
    }

    /// The record for a bin (open or closed).
    #[inline]
    pub fn record(&self, bin: BinId) -> Option<&BinRecord> {
        self.bins.get(bin.index())
    }

    /// Ids of currently open bins, in opening order.
    #[inline]
    pub fn open_ids(&self) -> impl Iterator<Item = BinId> + '_ {
        self.open.iter().copied().filter(|&b| b != TOMBSTONE)
    }

    /// Number of currently open bins.
    #[inline]
    pub fn open_count(&self) -> usize {
        self.open.len() - self.dead
    }

    /// The most recently opened bin that is still open (Next-Fit's
    /// candidate), in O(1).
    #[inline]
    pub fn newest_open(&self) -> Option<BinId> {
        // Trailing tombstones are trimmed on close, so `last` is live.
        self.open.last().copied()
    }

    /// Total number of bins ever opened, including closed records
    /// reclaimed by [`BinStore::compact_bins`].
    #[inline]
    pub fn total_opened(&self) -> usize {
        self.retired + self.bins.len()
    }

    /// The id the next [`BinStore::open`] call will assign. Ids are dense
    /// over the *current* record table, so after a [`BinStore::compact_bins`]
    /// this is smaller than [`BinStore::total_opened`].
    #[inline]
    pub fn next_id(&self) -> BinId {
        BinId(u32::try_from(self.bins.len()).expect("too many bins"))
    }

    /// Reclaims every closed bin's record and renumbers the surviving open
    /// bins densely, preserving opening order (`old_to_new[old.index()]`
    /// is the survivor's new id; [`TOMBSTONE`] marks a dropped record).
    /// Bounds the record table by the number of *open* bins instead of the
    /// number ever opened. The open list, position index and tournament
    /// tree and class partitions are rebuilt for the new id space;
    /// [`BinStore::total_opened`] keeps counting retired records. Callers
    /// must remap every `BinId` they hold — the engine pushes the mapping
    /// to its sink through `EventSink::on_bin_compact`.
    pub(crate) fn compact_bins(&mut self) -> Vec<BinId> {
        let old_len = self.bins.len();
        let mut old_to_new = vec![TOMBSTONE; old_len];
        let mut new_len = 0usize;
        for rec in &self.bins {
            if rec.is_open() {
                old_to_new[rec.id.index()] = BinId(pos_id(new_len));
                new_len += 1;
            }
        }
        if new_len == old_len {
            return old_to_new; // nothing closed: identity map, no rebuild
        }
        self.retired += old_len - new_len;
        let mut open = self.bins.iter().map(BinRecord::is_open);
        self.part_of
            .retain(|_| open.next().expect("one partition slot per record"));
        self.bins.retain(|r| r.is_open());
        let dims = self.tree.dims();
        let mut tree = FitTree::with_capacity(new_len);
        tree.ensure_dims(dims);
        self.open.clear();
        self.open_pos.clear();
        self.dead = 0;
        for (new, rec) in self.bins.iter_mut().enumerate() {
            rec.id = old_to_new[rec.id.index()];
            debug_assert_eq!(rec.id.index(), new);
            self.open_pos.push(pos_id(new));
            self.open.push(rec.id);
            let slot = tree.push(SIZE_SCALE);
            debug_assert_eq!(slot, new);
            tree.set_remaining_vec(slot, &rec.load.remaining());
        }
        self.tree = tree;
        for partition in &mut self.parts {
            partition.remap_bins(&old_to_new);
        }
        old_to_new
    }

    /// All bin records, by id.
    #[inline]
    pub fn all(&self) -> &[BinRecord] {
        &self.bins
    }

    /// First open bin (in opening order) that fits `s` — the First-Fit
    /// choice over all open bins, answered by the tournament tree in
    /// O(log B). Selects the identical bin as [`BinStore::first_fit_linear`]
    /// (the key encoding makes the predicates equal; see
    /// [`crate::fit_tree`]).
    pub fn first_fit(&self, s: impl Into<SizeVec>) -> Option<BinId> {
        let s = s.into();
        self.tree_queries.set(self.tree_queries.get() + 1);
        let slot = self.tree.first_fit_vec(s)?;
        let id = self.bins[slot].id;
        debug_assert!(self.bins[slot].is_open() && self.bins[slot].fits(s));
        Some(id)
    }

    /// First-Fit within `class`: its earliest-opened bin that fits `s`,
    /// answered by the class partition in O(log k). Counted as a tree
    /// query.
    pub fn first_fit_in(&self, class: BinClass, s: impl Into<SizeVec>) -> Option<BinId> {
        self.tree_queries.set(self.tree_queries.get() + 1);
        self.partition(class)?.first_fit(s)
    }

    /// The open bins of `class`, in opening order. Counted as a tree
    /// query: the walk touches the class partition, not the open list.
    pub fn bins_in(&self, class: BinClass) -> impl Iterator<Item = &BinRecord> + '_ {
        self.tree_queries.set(self.tree_queries.get() + 1);
        self.partition(class)
            .into_iter()
            .flat_map(move |p| p.iter().map(move |(b, _)| &self.bins[b.index()]))
    }

    /// Number of open bins in `class`.
    #[inline]
    pub fn class_open_count(&self, class: BinClass) -> usize {
        self.partition(class).map_or(0, SubsetFitTree::len)
    }

    /// The classes that currently have open bins, in no particular order.
    pub fn open_classes(&self) -> impl Iterator<Item = BinClass> + '_ {
        self.class_part.keys().copied()
    }

    /// The seed's naive O(B) First-Fit scan, retained verbatim as the
    /// differential-testing oracle for [`BinStore::first_fit`].
    pub fn first_fit_linear(&self, s: impl Into<SizeVec>) -> Option<BinId> {
        let s = s.into();
        self.note_linear_scan();
        self.open_ids().find(|&b| self.bins[b.index()].fits(s))
    }

    /// Records one linear enumeration of the open list (used by
    /// [`BinStore::first_fit_linear`] and by algorithm-visible `open_bins`
    /// walks in [`crate::algorithm::SimView`]).
    #[inline]
    pub(crate) fn note_linear_scan(&self) {
        self.linear_scans.set(self.linear_scans.get() + 1);
    }

    /// Observability counters: `(tree_queries, linear_scans)` answered so
    /// far. Interior mutability means these tick even through `&self`
    /// views, so auditing sinks that probe First-Fit inflate the raw
    /// totals — consumers wanting per-placement attribution should snapshot
    /// deltas around the call of interest (the engine does).
    #[inline]
    pub fn query_counters(&self) -> (u64, u64) {
        (self.tree_queries.get(), self.linear_scans.get())
    }

    /// Number of open-list tombstone compactions performed so far.
    #[inline]
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Renumbers resident item ids after an engine item-table compaction:
    /// `old_to_new[old] == new` (or `u32::MAX` for dropped rows — never a
    /// resident). Rewrites every open bin's resident list and rebuilds the
    /// item position index for the dense new id space of `new_len` rows.
    pub(crate) fn remap_items(&mut self, old_to_new: &[u32], new_len: usize) {
        self.item_pos.clear();
        self.item_pos.resize(new_len, NO_POS);
        for rec in &mut self.bins {
            if !rec.is_open() {
                continue;
            }
            for (pos, item) in rec.items.iter_mut().enumerate() {
                let new = old_to_new[item.index()];
                debug_assert!(new != u32::MAX, "resident items survive compaction");
                *item = ItemId(new);
                self.item_pos[new as usize] = pos_id(pos);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::size::Size;

    fn half() -> Size {
        Size::from_ratio(1, 2)
    }

    #[test]
    fn open_add_remove_close_lifecycle() {
        let mut store = BinStore::new();
        let b0 = store.open(Time(0));
        let b1 = store.open(Time(0));
        assert_eq!(store.open_count(), 2);
        store.add(b0, ItemId(0), half());
        store.add(b0, ItemId(1), half());
        assert!(!store.record(b0).unwrap().fits(Size::from_raw(1)));

        assert!(!store.remove(b0, ItemId(0), half(), Time(5)));
        assert!(store.remove(b0, ItemId(1), half(), Time(6)));
        assert_eq!(store.record(b0).unwrap().closed_at, Some(Time(6)));
        assert_eq!(store.open_ids().collect::<Vec<_>>(), [b1]);
        assert_eq!(store.total_opened(), 2);
    }

    #[test]
    fn first_fit_scans_in_opening_order() {
        let mut store = BinStore::new();
        let b0 = store.open(Time(0));
        let b1 = store.open(Time(0));
        store.add(b0, ItemId(0), Size::FULL);
        assert_eq!(store.first_fit(half()), Some(b1));
        store.add(b1, ItemId(1), Size::FULL);
        assert_eq!(store.first_fit(half()), None);
        // Free space in b0 again: b0 regains First-Fit priority.
        store.remove(b0, ItemId(0), Size::FULL, Time(1));
        // ...but b0 CLOSED on emptying, so it must not be chosen.
        assert_eq!(store.first_fit(half()), None);
        let b2 = store.open(Time(2));
        assert_eq!(store.first_fit(half()), Some(b2));
    }

    #[test]
    fn closing_middle_bin_preserves_order() {
        let mut store = BinStore::new();
        let b0 = store.open(Time(0));
        let b1 = store.open(Time(0));
        let b2 = store.open(Time(0));
        store.add(b0, ItemId(0), half());
        store.add(b1, ItemId(1), half());
        store.add(b2, ItemId(2), half());
        store.remove(b1, ItemId(1), half(), Time(1));
        assert_eq!(store.open_ids().collect::<Vec<_>>(), [b0, b2]);
    }

    #[test]
    fn tree_and_linear_first_fit_agree_through_churn() {
        let mut store = BinStore::new();
        let sizes = [
            Size::from_ratio(1, 3),
            Size::from_ratio(2, 3),
            Size::from_ratio(1, 7),
            Size::from_raw(0),
            Size::FULL,
        ];
        let mut resident: Vec<(BinId, ItemId, Size)> = Vec::new();
        let mut state = 0xdead_beefu64;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for step in 0..2_000 {
            let s = sizes[(rand() % sizes.len() as u64) as usize];
            for &probe in &sizes {
                assert_eq!(
                    store.first_fit(probe),
                    store.first_fit_linear(probe),
                    "divergence at step {step}"
                );
            }
            let item = ItemId(step as u32);
            let bin = match store.first_fit(s) {
                Some(b) => b,
                None => store.open(Time(step)),
            };
            store.add(bin, item, s);
            resident.push((bin, item, s));
            // Randomly depart ~half the arrivals to churn closes.
            while rand() % 2 == 0 && !resident.is_empty() {
                let k = (rand() % resident.len() as u64) as usize;
                let (b, i, sz) = resident.swap_remove(k);
                store.remove(b, i, sz, Time(step));
            }
        }
        assert!(store.open_count() <= store.total_opened());
    }

    #[test]
    fn vector_tree_and_linear_first_fit_agree_through_churn() {
        // Same differential harness as the scalar test, but with 2-D sizes
        // (the second dimension anti-correlated) so the tree's extra planes
        // and the linear scan's per-dimension fit test must agree.
        let mut store = BinStore::new();
        let sizes: Vec<SizeVec> = [
            (SIZE_SCALE / 3, SIZE_SCALE / 2),
            (2 * SIZE_SCALE / 3, SIZE_SCALE / 7),
            (SIZE_SCALE / 7, 2 * SIZE_SCALE / 3),
            (0, SIZE_SCALE / 2),
            (SIZE_SCALE, SIZE_SCALE / 5),
        ]
        .iter()
        .map(|&(a, b)| SizeVec::try_from_raws(&[a, b]).unwrap())
        .collect();
        let mut resident: Vec<(BinId, ItemId, SizeVec)> = Vec::new();
        let mut state = 0xbeef_deadu64;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for step in 0..2_000 {
            let s = sizes[(rand() % sizes.len() as u64) as usize];
            for &probe in &sizes {
                assert_eq!(
                    store.first_fit(probe),
                    store.first_fit_linear(probe),
                    "divergence at step {step}"
                );
            }
            let item = ItemId(step as u32);
            let bin = match store.first_fit(s) {
                Some(b) => b,
                None => store.open(Time(step)),
            };
            store.add(bin, item, s);
            resident.push((bin, item, s));
            while rand() % 2 == 0 && !resident.is_empty() {
                let k = (rand() % resident.len() as u64) as usize;
                let (b, i, sz) = resident.swap_remove(k);
                store.remove(b, i, sz, Time(step));
            }
        }
        assert!(store.open_count() <= store.total_opened());
    }

    #[test]
    fn newest_open_tracks_closes() {
        let mut store = BinStore::new();
        assert_eq!(store.newest_open(), None);
        let b0 = store.open(Time(0));
        let b1 = store.open(Time(0));
        let b2 = store.open(Time(0));
        store.add(b0, ItemId(0), half());
        store.add(b1, ItemId(1), half());
        store.add(b2, ItemId(2), half());
        assert_eq!(store.newest_open(), Some(b2));
        store.remove(b2, ItemId(2), half(), Time(1));
        assert_eq!(store.newest_open(), Some(b1));
        store.remove(b0, ItemId(0), half(), Time(1));
        assert_eq!(store.newest_open(), Some(b1));
        store.remove(b1, ItemId(1), half(), Time(2));
        assert_eq!(store.newest_open(), None);
        assert_eq!(store.open_count(), 0);
    }

    #[test]
    fn compact_bins_renumbers_and_keeps_first_fit_semantics() {
        let mut store = BinStore::new();
        let mut ids = Vec::new();
        for i in 0..8u32 {
            let b = store.open(Time(0));
            store.add(b, ItemId(i), if i % 2 == 0 { Size::FULL } else { half() });
            ids.push(b);
        }
        // Close the even (full) bins; the odd half-full bins survive.
        for (k, &b) in ids.iter().enumerate() {
            if k % 2 == 0 {
                store.remove(b, ItemId(k as u32), Size::FULL, Time(1));
            }
        }
        let before_ff = store.first_fit(half());
        let map = store.compact_bins();
        assert_eq!(store.total_opened(), 8, "retired records still counted");
        assert_eq!(store.all().len(), 4, "closed records reclaimed");
        assert_eq!(store.next_id(), BinId(4));
        for (old, &new) in map.iter().enumerate() {
            if old % 2 == 0 {
                assert_eq!(new, TOMBSTONE);
            } else {
                assert_eq!(new, BinId(old as u32 / 2), "dense, order-preserving");
            }
        }
        // First-Fit picks the same bin, under its new name.
        assert_eq!(
            store.first_fit(half()),
            Some(map[before_ff.unwrap().index()])
        );
        assert_eq!(store.first_fit(half()), store.first_fit_linear(half()));
        assert_eq!(store.open_ids().collect::<Vec<_>>().len(), 4);
        // Items still removable through the rebuilt indexes; a fresh open
        // continues the dense numbering.
        assert!(store.remove(BinId(0), ItemId(1), half(), Time(2)));
        assert_eq!(store.open(Time(3)), BinId(4));
        assert_eq!(store.total_opened(), 9);
        // A second compaction shifts the survivors again...
        let map2 = store.compact_bins();
        assert_eq!(map2[0], TOMBSTONE);
        assert_eq!(store.total_opened(), 9);
        // ...and with nothing closed, compaction is the identity.
        let id_map = store.compact_bins();
        assert!(id_map.iter().enumerate().all(|(i, b)| b.index() == i));
    }

    #[test]
    fn heavy_interior_closes_stay_consistent() {
        // Open many bins, close every other one from the middle out: the
        // tombstone compaction must preserve opening order and counts.
        let mut store = BinStore::new();
        let mut ids = Vec::new();
        for i in 0..1_000u32 {
            let b = store.open(Time(0));
            store.add(b, ItemId(i), Size::FULL);
            ids.push(b);
        }
        for (k, &b) in ids.iter().enumerate() {
            if k % 2 == 0 {
                store.remove(b, ItemId(k as u32), Size::FULL, Time(1));
            }
        }
        assert_eq!(store.open_count(), 500);
        let survivors: Vec<BinId> = store.open_ids().collect();
        assert_eq!(survivors.len(), 500);
        assert!(survivors.windows(2).all(|w| w[0] < w[1]), "order preserved");
        assert_eq!(store.first_fit(half()), None, "all survivors full");
        store.remove(ids[1], ItemId(1), Size::FULL, Time(2));
        assert_eq!(store.open_count(), 499);
    }
}
