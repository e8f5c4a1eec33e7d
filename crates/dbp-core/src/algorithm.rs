//! The online-algorithm interface.
//!
//! An [`OnlineAlgorithm`] sees items one at a time, in arrival order, and
//! must immediately and irrevocably name a bin for each. Clairvoyance is
//! modelled by handing the algorithm the full [`Item`] (whose `departure` is
//! known on arrival); non-clairvoyant baselines simply never read that
//! field.
//!
//! Algorithms *propose* placements; the engine validates them (bin open,
//! capacity respected) and rejects illegal moves with a typed
//! [`crate::error::EngineError`]. This keeps the trust boundary crisp: an
//! algorithm cannot corrupt the accounting that the experiments depend on.
//!
//! Bin state lives in the engine alone. An algorithm that packs classes of
//! bins separately (HA's type chains, CDFF's rows, CBD's bands) opens each
//! bin in a [`BinClass`] and queries the class through [`SimView`]; it
//! never keeps a copy of its bins, so nothing it holds can go stale when
//! the engine moves, crashes or renumbers them.

use crate::bin_state::{BinClass, BinId, BinRecord, BinStore};
use crate::item::{Item, ItemId};
use crate::recourse::{Migration, RecourseEpoch, RecourseView};
use crate::size::SizeVec;
use crate::time::Time;

/// An algorithm's decision for an arriving item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Put the item into an already-open bin.
    Existing(BinId),
    /// Open a fresh, unclassed bin for the item.
    OpenNew,
    /// Open a fresh bin of the given class for the item. The bin belongs
    /// to the class for its whole life: [`SimView::first_fit_in`],
    /// [`SimView::bins_in`] and [`SimView::class_open_count`] see it
    /// until it closes.
    OpenIn(BinClass),
}

/// A read-only view of the simulation the algorithm may consult when
/// placing an item.
#[derive(Debug, Clone, Copy)]
pub struct SimView<'a> {
    now: Time,
    bins: &'a BinStore,
}

impl<'a> SimView<'a> {
    pub(crate) fn new(now: Time, bins: &'a BinStore) -> SimView<'a> {
        SimView { now, bins }
    }

    /// The current simulation time (the arriving item's arrival time).
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Currently open bins in opening order (the First-Fit scan order).
    /// Counted as one linear scan for run metrics: any algorithm that walks
    /// this iterator is paying O(open bins) for the decision.
    pub fn open_bins(&self) -> impl Iterator<Item = &'a BinRecord> + '_ {
        let bins = self.bins;
        bins.note_linear_scan();
        bins.open_ids()
            .map(move |b| bins.record(b).expect("open id always has a record"))
    }

    /// Number of currently open bins.
    #[inline]
    pub fn open_count(&self) -> usize {
        self.bins.open_count()
    }

    /// The record of a specific bin, if it was ever opened.
    #[inline]
    pub fn bin(&self, id: BinId) -> Option<&'a BinRecord> {
        self.bins.record(id)
    }

    /// Whether `id` is open and has room for `s` (in every dimension).
    #[inline]
    pub fn fits(&self, id: BinId, s: impl Into<SizeVec>) -> bool {
        self.bins
            .record(id)
            .is_some_and(|r| r.is_open() && r.fits(s))
    }

    /// First-Fit over *all* open bins: the earliest-opened bin with room.
    /// Answered by the capacity tournament tree in O(log B); selects the
    /// identical bin as the linear scan ([`SimView::first_fit_linear`]).
    #[inline]
    pub fn first_fit(&self, s: impl Into<SizeVec>) -> Option<BinId> {
        self.bins.first_fit(s)
    }

    /// The seed's naive O(B) First-Fit scan, retained as a differential
    /// oracle for [`SimView::first_fit`] (and for before/after benchmarks).
    #[inline]
    pub fn first_fit_linear(&self, s: impl Into<SizeVec>) -> Option<BinId> {
        self.bins.first_fit_linear(s)
    }

    /// First-Fit within `class`: the earliest-opened open bin of the class
    /// with room for `s`, in O(log k) for a class of k bins. Counted as a
    /// tree query, never as an open-list scan.
    #[inline]
    pub fn first_fit_in(&self, class: BinClass, s: impl Into<SizeVec>) -> Option<BinId> {
        self.bins.first_fit_in(class, s)
    }

    /// The open bins of `class` in opening order — for Any-Fit rules other
    /// than First-Fit within a class. Counted as a tree query.
    #[inline]
    pub fn bins_in(&self, class: BinClass) -> impl Iterator<Item = &'a BinRecord> + 'a {
        self.bins.bins_in(class)
    }

    /// Number of open bins in `class`.
    #[inline]
    pub fn class_open_count(&self, class: BinClass) -> usize {
        self.bins.class_open_count(class)
    }

    /// The most recently opened bin still open (Next-Fit's candidate), in
    /// O(1).
    #[inline]
    pub fn newest_open(&self) -> Option<BinId> {
        self.bins.newest_open()
    }

    /// The id the engine will assign to the next freshly opened bin, so a
    /// wrapper that logs decisions can name the bin an
    /// [`Placement::OpenNew`] or [`Placement::OpenIn`] creates: bin ids
    /// are allocated sequentially over the current record table (dense
    /// again after a bin-store compaction).
    #[inline]
    pub fn next_bin_id(&self) -> BinId {
        self.bins.next_id()
    }
}

/// An online MinUsageTime DBP algorithm.
///
/// Implementations may keep arbitrary internal state; the engine keeps them
/// honest by validating every [`Placement`]. Per-bin state — a bin's
/// class, its load, its latest resident departure — belongs to the engine
/// and is read through [`SimView`]; `on_departure` is for state about
/// *items* (HA's per-type active loads).
pub trait OnlineAlgorithm {
    /// Human-readable name used in reports.
    fn name(&self) -> &str;

    /// Decide where the arriving `item` goes. Called once per item, in
    /// arrival order, after all departures at the same moment have been
    /// processed (`t⁻` before `t⁺`).
    fn on_arrival(&mut self, view: &SimView<'_>, item: &Item) -> Placement;

    /// Notification that `item` departed from `bin`; `bin_closed` is true
    /// when the bin emptied (and is then gone forever).
    fn on_departure(&mut self, item: &Item, bin: BinId, bin_closed: bool) {
        let _ = (item, bin, bin_closed);
    }

    /// The departure this algorithm planned `item`'s placement around,
    /// which the engine books into the bin's
    /// [`BinRecord::latest_departure`]. The default is the item's own
    /// departure; a wrapper that shows its inner algorithm a forecast
    /// instead (the cloud simulator's prediction lens) returns the
    /// forecast, so the store never tells an algorithm a departure it was
    /// not shown.
    fn planned_departure(&self, item: &Item) -> Time {
        item.departure
    }

    /// Notification that the engine compacted its item table (see
    /// [`crate::engine::InteractiveSim::compact`]). `retained[new]` is the
    /// *old* id of the row now living at index `new`; `old_len` was the
    /// table length before compaction, so ids `old_len..` are unassigned in
    /// both numberings. Algorithms keeping [`ItemId`]-keyed state must
    /// rewrite it here; id-oblivious algorithms (the default) ignore it.
    fn on_compact(&mut self, retained: &[ItemId], old_len: usize) {
        let _ = (retained, old_len);
    }

    /// Formerly the notification of a bin-store compaction
    /// ([`crate::engine::InteractiveSim::compact_bins`]). The engine no
    /// longer calls it: bin classes and per-bin state live in the store,
    /// which renumbers them itself, so no algorithm holds [`BinId`]s
    /// across calls. Kept as a default no-op so existing implementors and
    /// forwarding wrappers still compile.
    fn on_bin_compact(&mut self, old_to_new: &[BinId], new_len: usize) {
        let _ = (old_to_new, new_len);
    }

    /// Offer to move a resident item at a recourse epoch (see
    /// [`crate::recourse`]). Called only when the run carries a non-`None`
    /// [`crate::recourse::RecourseBudget`], and repeatedly within one epoch
    /// while allowance remains: return `Some` to execute one migration (the
    /// engine validates and applies it, then asks again with a decremented
    /// `moves_left`), or `None` to end the epoch early. The default never
    /// migrates, so every existing algorithm stays recourse-free.
    fn propose_migration(
        &mut self,
        view: &RecourseView<'_>,
        epoch: RecourseEpoch,
        moves_left: u32,
    ) -> Option<Migration> {
        let _ = (view, epoch, moves_left);
        None
    }

    /// Reset all internal state so the value can run another instance.
    fn reset(&mut self);
}

impl<T: OnlineAlgorithm + ?Sized> OnlineAlgorithm for &mut T {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn on_arrival(&mut self, view: &SimView<'_>, item: &Item) -> Placement {
        (**self).on_arrival(view, item)
    }
    fn on_departure(&mut self, item: &Item, bin: BinId, bin_closed: bool) {
        (**self).on_departure(item, bin, bin_closed)
    }
    fn planned_departure(&self, item: &Item) -> Time {
        (**self).planned_departure(item)
    }
    fn on_compact(&mut self, retained: &[ItemId], old_len: usize) {
        (**self).on_compact(retained, old_len)
    }
    fn on_bin_compact(&mut self, old_to_new: &[BinId], new_len: usize) {
        (**self).on_bin_compact(old_to_new, new_len)
    }
    fn propose_migration(
        &mut self,
        view: &RecourseView<'_>,
        epoch: RecourseEpoch,
        moves_left: u32,
    ) -> Option<Migration> {
        (**self).propose_migration(view, epoch, moves_left)
    }
    fn reset(&mut self) {
        (**self).reset()
    }
}

impl<T: OnlineAlgorithm + ?Sized> OnlineAlgorithm for Box<T> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn on_arrival(&mut self, view: &SimView<'_>, item: &Item) -> Placement {
        (**self).on_arrival(view, item)
    }
    fn on_departure(&mut self, item: &Item, bin: BinId, bin_closed: bool) {
        (**self).on_departure(item, bin, bin_closed)
    }
    fn planned_departure(&self, item: &Item) -> Time {
        (**self).planned_departure(item)
    }
    fn on_compact(&mut self, retained: &[ItemId], old_len: usize) {
        (**self).on_compact(retained, old_len)
    }
    fn on_bin_compact(&mut self, old_to_new: &[BinId], new_len: usize) {
        (**self).on_bin_compact(old_to_new, new_len)
    }
    fn propose_migration(
        &mut self,
        view: &RecourseView<'_>,
        epoch: RecourseEpoch,
        moves_left: u32,
    ) -> Option<Migration> {
        (**self).propose_migration(view, epoch, moves_left)
    }
    fn reset(&mut self) {
        (**self).reset()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::ItemId;
    use crate::size::Size;

    #[test]
    fn sim_view_first_fit_and_fits() {
        let mut store = BinStore::new();
        let b0 = store.open(Time(0));
        store.add(b0, ItemId(0), Size::from_ratio(3, 4));
        let view = SimView::new(Time(1), &store);
        assert_eq!(view.open_count(), 1);
        assert!(view.fits(b0, Size::from_ratio(1, 4)));
        assert!(!view.fits(b0, Size::from_ratio(1, 2)));
        assert_eq!(view.first_fit(Size::from_ratio(1, 4)), Some(b0));
        assert_eq!(view.first_fit(Size::from_ratio(1, 2)), None);
        assert_eq!(view.bin(BinId(7)), None);
        assert_eq!(view.now(), Time(1));
    }

    #[test]
    fn class_queries_see_only_their_class_in_opening_order() {
        let (a, b) = (BinClass(1), BinClass(2));
        let mut store = BinStore::new();
        let a0 = store.open_in(Time(0), a);
        let b0 = store.open_in(Time(0), b);
        let a1 = store.open_in(Time(0), a);
        let plain = store.open(Time(0));
        store.add(a0, ItemId(0), Size::from_ratio(3, 4));
        store.add(b0, ItemId(1), Size::from_ratio(1, 4));
        store.add(a1, ItemId(2), Size::from_ratio(1, 4));
        store.add(plain, ItemId(3), Size::from_ratio(1, 4));
        let view = SimView::new(Time(1), &store);
        assert_eq!(view.first_fit_in(a, Size::from_ratio(1, 2)), Some(a1));
        assert_eq!(view.first_fit_in(a, Size::from_ratio(1, 8)), Some(a0));
        assert_eq!(view.first_fit_in(b, Size::from_ratio(1, 2)), Some(b0));
        assert_eq!(view.first_fit_in(BinClass(9), Size::from_raw(0)), None);
        let ids: Vec<BinId> = view.bins_in(a).map(|r| r.id).collect();
        assert_eq!(ids, [a0, a1]);
        assert_eq!(view.class_open_count(a), 2);
        assert_eq!(store.record(plain).unwrap().class, None);
        // Closing a bin drops it from its class; the last one drops the
        // class itself.
        assert!(store.remove(b0, ItemId(1), Size::from_ratio(1, 4), Time(2)));
        assert_eq!(store.class_open_count(b), 0);
        assert_eq!(store.open_classes().count(), 1);
    }

    #[test]
    fn open_bins_iterates_in_opening_order() {
        let mut store = BinStore::new();
        let _b0 = store.open(Time(0));
        let _b1 = store.open(Time(2));
        let view = SimView::new(Time(3), &store);
        let opened: Vec<Time> = view.open_bins().map(|r| r.opened_at).collect();
        assert_eq!(opened, [Time(0), Time(2)]);
    }
}
