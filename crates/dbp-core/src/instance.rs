//! Instances: validated collections of items presented to algorithms.

use core::fmt;

use crate::cost::Area;
use crate::error::InstanceError;
use crate::item::{Item, ItemId};
use crate::profile::StepProfile;
use crate::size::{SizeVec, MAX_DIMS};
use crate::time::{Dur, Time};

/// A validated input `σ`: items ordered by `(arrival, id)`, which is the
/// exact order the online algorithm must serve them in (items arriving at
/// the same moment arrive "with some arbitrary order" — the builder's
/// insertion order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instance {
    items: Vec<Item>,
}

/// Incrementally builds an [`Instance`], assigning dense [`ItemId`]s.
#[derive(Debug, Default, Clone)]
pub struct InstanceBuilder {
    items: Vec<Item>,
}

impl InstanceBuilder {
    /// An empty builder.
    pub fn new() -> InstanceBuilder {
        InstanceBuilder { items: Vec::new() }
    }

    /// Pre-allocates capacity for `n` items.
    pub fn with_capacity(n: usize) -> InstanceBuilder {
        InstanceBuilder {
            items: Vec::with_capacity(n),
        }
    }

    /// A builder over rows already numbered `id == index` (the engine's
    /// row table), taken over without copying.
    pub(crate) fn from_rows(items: Vec<Item>) -> InstanceBuilder {
        debug_assert!(items.iter().enumerate().all(|(i, it)| it.id.index() == i));
        InstanceBuilder { items }
    }

    /// Adds an item active on `[arrival, arrival + dur)`, returning its id.
    pub fn push(&mut self, arrival: Time, dur: Dur, size: impl Into<SizeVec>) -> ItemId {
        let id = ItemId(u32::try_from(self.items.len()).expect("too many items"));
        self.items.push(Item::new(id, arrival, arrival + dur, size));
        id
    }

    /// Adds an item by explicit departure time.
    pub fn push_interval(
        &mut self,
        arrival: Time,
        departure: Time,
        size: impl Into<SizeVec>,
    ) -> ItemId {
        let id = ItemId(u32::try_from(self.items.len()).expect("too many items"));
        self.items.push(Item::new(id, arrival, departure, size));
        id
    }

    /// Number of items added so far.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether no items were added.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Validates and freezes the instance.
    ///
    /// Checks: every item has positive duration and positive size, and items
    /// are sorted by arrival (the builder preserves same-time insertion
    /// order, so generators control the adversarial intra-moment order).
    pub fn build(self) -> Result<Instance, InstanceError> {
        for it in &self.items {
            if it.departure <= it.arrival {
                return Err(InstanceError::EmptyInterval { id: it.id });
            }
            if it.size.is_zero() {
                return Err(InstanceError::ZeroSize { id: it.id });
            }
        }
        let mut items = self.items;
        // Pushed ids equal insertion indices, so already-sorted items keep
        // them; otherwise a stable sort (items sharing an arrival keep
        // their insertion order) and a renumbering restore id == index.
        if !items.is_sorted_by_key(|it| it.arrival) {
            items.sort_by_key(|it| it.arrival);
            for (idx, it) in items.iter_mut().enumerate() {
                it.id = ItemId(idx as u32);
            }
        }
        Ok(Instance { items })
    }
}

impl Instance {
    /// Builds an instance directly from `(arrival, duration, size)` triples.
    pub fn from_triples<S: Into<SizeVec>>(
        triples: impl IntoIterator<Item = (Time, Dur, S)>,
    ) -> Result<Instance, InstanceError> {
        let mut b = InstanceBuilder::new();
        for (a, d, s) in triples {
            b.push(a, d, s);
        }
        b.build()
    }

    /// The empty instance.
    pub fn empty() -> Instance {
        Instance { items: Vec::new() }
    }

    /// Items in service order (sorted by `(arrival, insertion order)`).
    #[inline]
    pub fn items(&self) -> &[Item] {
        &self.items
    }

    /// Item lookup by id.
    #[inline]
    pub fn item(&self, id: ItemId) -> &Item {
        &self.items[id.index()]
    }

    /// Number of items, `|σ|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the instance has no items.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The max/min item-duration ratio `μ` (≥ 1), or `None` when empty.
    ///
    /// Computed on the tick grid: `μ = max l / min l` as an exact rational,
    /// reported as `f64` (all experiments use power-of-two durations, for
    /// which this is exact).
    pub fn mu(&self) -> Option<f64> {
        let (mut min, mut max) = (u64::MAX, 0u64);
        for it in &self.items {
            let l = it.duration().ticks();
            min = min.min(l);
            max = max.max(l);
        }
        if self.items.is_empty() {
            None
        } else {
            Some(max as f64 / min as f64)
        }
    }

    /// `log2 μ`, clamped below at 1 (several bounds divide by `log μ`; the
    /// paper implicitly assumes `μ ≥ 2` wherever that happens).
    pub fn log2_mu(&self) -> f64 {
        self.mu().map_or(1.0, |m| m.log2().max(1.0))
    }

    /// Longest item duration, or zero when empty.
    pub fn max_duration(&self) -> Dur {
        self.items
            .iter()
            .map(Item::duration)
            .max()
            .unwrap_or(Dur::ZERO)
    }

    /// Shortest item duration, or zero when empty.
    pub fn min_duration(&self) -> Dur {
        self.items
            .iter()
            .map(Item::duration)
            .min()
            .unwrap_or(Dur::ZERO)
    }

    /// Total space-time demand `d(σ) = Σ_r s(r)·l(I(r))` (exact). For
    /// vector instances this is the *bottleneck* demand `max_d Σ_r
    /// s_d(r)·l(I(r))`: a valid space-time lower bound whichever dimension
    /// binds, and identical to the scalar sum at D = 1.
    pub fn demand(&self) -> Area {
        (0..self.dims())
            .map(|d| {
                self.items
                    .iter()
                    .map(|it| Area::from_load_ticks(it.size.get(d).raw(), it.duration()))
                    .sum()
            })
            .max()
            .unwrap_or(Area::ZERO)
    }

    /// Number of dimensions any item actually uses (1 for scalar
    /// instances, up to [`MAX_DIMS`]).
    pub fn dims(&self) -> usize {
        self.items
            .iter()
            .map(|it| it.size.dims_used())
            .max()
            .unwrap_or(1)
    }

    /// `span(σ)`: the measure of times at which ≥ 1 item is active, as an
    /// [`Area`] of one bin running for that long (the paper's span bound
    /// compares it against costs directly).
    pub fn span(&self) -> Area {
        Area::from_bin_ticks(self.span_dur())
    }

    /// `span(σ)` as a duration.
    pub fn span_dur(&self) -> Dur {
        // Items are sorted by arrival: sweep the union of intervals.
        let mut total = 0u64;
        let mut cur: Option<(Time, Time)> = None;
        for it in &self.items {
            match cur {
                None => cur = Some((it.arrival, it.departure)),
                Some((s, e)) => {
                    if it.arrival <= e {
                        cur = Some((s, e.max(it.departure)));
                    } else {
                        total += e.since(s).ticks();
                        cur = Some((it.arrival, it.departure));
                    }
                }
            }
        }
        if let Some((s, e)) = cur {
            total += e.since(s).ticks();
        }
        Dur(total)
    }

    /// The instantaneous total-load step function `S_t(σ)`.
    pub fn load_profile(&self) -> StepProfile {
        StepProfile::from_items(&self.items)
    }

    /// Earliest arrival, or `None` when empty.
    pub fn start(&self) -> Option<Time> {
        self.items.first().map(|it| it.arrival)
    }

    /// Latest departure, or `None` when empty.
    pub fn end(&self) -> Option<Time> {
        self.items.iter().map(|it| it.departure).max()
    }

    /// Splits the instance into maximal groups of items whose union of
    /// active intervals is contiguous ("continuous intervals of active
    /// items" — the paper's Section 3 preprocessing). Each returned instance
    /// keeps its items' absolute times.
    pub fn split_busy_periods(&self) -> Vec<Instance> {
        let mut out = Vec::new();
        let mut cur: Vec<Item> = Vec::new();
        let mut cur_end = Time::ZERO;
        for it in &self.items {
            if cur.is_empty() || it.arrival <= cur_end {
                cur_end = cur_end.max(it.departure);
                cur.push(*it);
            } else {
                out.push(Self::renumber(std::mem::take(&mut cur)));
                cur.push(*it);
                cur_end = it.departure;
            }
        }
        if !cur.is_empty() {
            out.push(Self::renumber(cur));
        }
        out
    }

    fn renumber(mut items: Vec<Item>) -> Instance {
        for (idx, it) in items.iter_mut().enumerate() {
            it.id = ItemId(idx as u32);
        }
        Instance { items }
    }

    /// Whether the instance is *aligned* (Definition 2.1): every item of
    /// duration class `i` (length in `(2^{i-1}, 2^i]`) arrives at a multiple
    /// of `2^i` ticks.
    pub fn is_aligned(&self) -> bool {
        self.items.iter().all(|it| {
            let w = 1u64 << it.class_index();
            it.arrival.ticks() % w == 0
        })
    }

    /// Content-addressed digest of the instance: a 128-bit FNV-1a hash over
    /// the *sorted* multiset of `(arrival, departure, size)` triples.
    ///
    /// The digest is order-independent: two instances built by pushing the
    /// same triples in any order (including different intra-arrival
    /// insertion orders) share a digest, and any change to a single field of
    /// a single item changes it. Item ids are deliberately excluded — they
    /// are an artifact of builder order, not content.
    ///
    /// Used as the key of the experiment-harness bracket cache: certified
    /// OPT brackets depend only on the triple multiset, never on
    /// presentation order.
    pub fn digest(&self) -> InstanceDigest {
        let dims = self.dims();
        let mut triples: Vec<(u64, u64, [u64; MAX_DIMS])> = self
            .items
            .iter()
            .map(|it| (it.arrival.ticks(), it.departure.ticks(), it.size.raws()))
            .collect();
        triples.sort_unstable();

        // FNV-1a, 128-bit variant (offset basis / prime per the FNV spec).
        const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
        const PRIME: u128 = 0x0000000001000000000000000000013b;
        let mut h = OFFSET;
        let mut absorb = |word: u64| {
            for byte in word.to_le_bytes() {
                h ^= byte as u128;
                h = h.wrapping_mul(PRIME);
            }
        };
        absorb(self.items.len() as u64);
        for (a, d, s) in triples {
            absorb(a);
            absorb(d);
            absorb(s[0]);
            // Extra dimensions are absorbed only when the instance has any,
            // keeping every scalar instance's digest (and its cached
            // brackets) byte-identical to the pre-vector encoding.
            for &extra in &s[1..dims] {
                absorb(extra);
            }
        }
        InstanceDigest(h)
    }

    /// Maximum number of simultaneously active items.
    pub fn max_concurrency(&self) -> usize {
        let mut events: Vec<(Time, i32)> = Vec::with_capacity(self.items.len() * 2);
        for it in &self.items {
            events.push((it.arrival, 1));
            events.push((it.departure, -1));
        }
        events.sort_by_key(|&(t, delta)| (t, delta)); // departures (−1) first
        let mut cur = 0i64;
        let mut max = 0i64;
        for (_, d) in events {
            cur += d as i64;
            max = max.max(cur);
        }
        max as usize
    }
}

/// A 128-bit content digest of an [`Instance`] (see [`Instance::digest`]).
///
/// Displays as 32 lowercase hex digits; [`InstanceDigest::parse`] inverts
/// that rendering (for cache-spill round trips).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstanceDigest(pub u128);

impl InstanceDigest {
    /// Parses the 32-hex-digit rendering produced by `Display`.
    pub fn parse(s: &str) -> Option<InstanceDigest> {
        if s.len() != 32 {
            return None;
        }
        u128::from_str_radix(s, 16).ok().map(InstanceDigest)
    }
}

impl fmt::Display for InstanceDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl fmt::Display for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Instance: {} items, μ={:?}", self.len(), self.mu())?;
        for it in &self.items {
            writeln!(f, "  {it}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::size::Size;

    fn sz(num: u64, den: u64) -> Size {
        Size::from_ratio(num, den)
    }

    #[test]
    fn builder_sorts_stably_and_renumbers() {
        let mut b = InstanceBuilder::new();
        b.push(Time(5), Dur(1), sz(1, 2));
        b.push(Time(0), Dur(2), sz(1, 2));
        b.push(Time(5), Dur(3), sz(1, 4));
        let inst = b.build().unwrap();
        let arrivals: Vec<u64> = inst.items().iter().map(|i| i.arrival.ticks()).collect();
        assert_eq!(arrivals, [0, 5, 5]);
        // Same-arrival order preserved: the Dur(1) item (added first) precedes Dur(3).
        assert_eq!(inst.items()[1].duration(), Dur(1));
        assert_eq!(inst.items()[2].duration(), Dur(3));
        // Ids are dense and match indices.
        for (idx, it) in inst.items().iter().enumerate() {
            assert_eq!(it.id.index(), idx);
        }
    }

    #[test]
    fn sorted_input_with_ties_builds_like_the_sorting_path() {
        // Arrival ties at t = 5, pushed already sorted: no sort runs, the
        // pushed order and ids stand.
        let rows = [(0, 4, 1), (5, 1, 2), (5, 3, 1), (5, 2, 3), (9, 1, 1)];
        let mut sorted = InstanceBuilder::new();
        for &(a, d, n) in &rows {
            sorted.push(Time(a), Dur(d), sz(n, 4));
        }
        let inst = sorted.build().unwrap();
        let want: Vec<Item> = rows
            .iter()
            .enumerate()
            .map(|(i, &(a, d, n))| Item::new(ItemId(i as u32), Time(a), Time(a + d), sz(n, 4)))
            .collect();
        assert_eq!(inst.items(), &want[..]);
        // The same rows with the last one pushed first take the stable
        // sort and come out identical, ties in their pushed order.
        let mut shuffled = InstanceBuilder::new();
        for &(a, d, n) in rows.iter().rev().take(1).chain(&rows[..4]) {
            shuffled.push(Time(a), Dur(d), sz(n, 4));
        }
        assert_eq!(shuffled.build().unwrap(), inst);
    }

    #[test]
    fn rejects_empty_interval_and_zero_size() {
        let mut b = InstanceBuilder::new();
        b.push(Time(3), Dur::ZERO, sz(1, 2));
        assert!(matches!(
            b.build(),
            Err(InstanceError::EmptyInterval { .. })
        ));

        let mut b = InstanceBuilder::new();
        b.push(Time(3), Dur(1), Size::from_raw(0));
        assert!(matches!(b.build(), Err(InstanceError::ZeroSize { .. })));
    }

    #[test]
    fn mu_and_durations() {
        let inst =
            Instance::from_triples([(Time(0), Dur(1), sz(1, 2)), (Time(0), Dur(8), sz(1, 2))])
                .unwrap();
        assert_eq!(inst.mu(), Some(8.0));
        assert_eq!(inst.min_duration(), Dur(1));
        assert_eq!(inst.max_duration(), Dur(8));
        assert_eq!(inst.log2_mu(), 3.0);
        assert_eq!(Instance::empty().mu(), None);
    }

    #[test]
    fn demand_is_exact() {
        let inst = Instance::from_triples([
            (Time(0), Dur(4), sz(1, 2)),  // 2 bin·ticks
            (Time(10), Dur(2), sz(1, 4)), // 0.5 bin·ticks
        ])
        .unwrap();
        assert_eq!(inst.demand().as_bin_ticks(), 2.5);
    }

    #[test]
    fn span_merges_touching_intervals() {
        // [0,5) and [5,8) touch: union is one busy interval of length 8.
        let inst =
            Instance::from_triples([(Time(0), Dur(5), sz(1, 2)), (Time(5), Dur(3), sz(1, 2))])
                .unwrap();
        assert_eq!(inst.span_dur(), Dur(8));
    }

    #[test]
    fn span_counts_gaps_once() {
        let inst = Instance::from_triples([
            (Time(0), Dur(2), sz(1, 2)),
            (Time(10), Dur(3), sz(1, 2)),
            (Time(11), Dur(1), sz(1, 2)),
        ])
        .unwrap();
        assert_eq!(inst.span_dur(), Dur(5));
    }

    #[test]
    fn busy_period_split() {
        let inst = Instance::from_triples([
            (Time(0), Dur(2), sz(1, 2)),
            (Time(1), Dur(3), sz(1, 2)),
            (Time(10), Dur(1), sz(1, 2)),
        ])
        .unwrap();
        let parts = inst.split_busy_periods();
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].len(), 2);
        assert_eq!(parts[1].len(), 1);
        assert_eq!(parts[1].items()[0].id, ItemId(0), "parts renumber from 0");
    }

    #[test]
    fn aligned_detection() {
        // Length 4 (class 2) at t=8: aligned. At t=6: not aligned.
        let ok = Instance::from_triples([(Time(8), Dur(4), sz(1, 2))]).unwrap();
        assert!(ok.is_aligned());
        let bad = Instance::from_triples([(Time(6), Dur(4), sz(1, 2))]).unwrap();
        assert!(!bad.is_aligned());
        // Length 3 is class 2, so must arrive at multiples of 4.
        let bad2 = Instance::from_triples([(Time(2), Dur(3), sz(1, 2))]).unwrap();
        assert!(!bad2.is_aligned());
    }

    #[test]
    fn digest_is_order_independent() {
        // Same triples, three presentation orders — including two items
        // sharing an arrival, whose insertion order changes item ids.
        let t1 = [
            (Time(0), Dur(4), sz(1, 2)),
            (Time(0), Dur(7), sz(1, 3)),
            (Time(5), Dur(2), sz(1, 2)),
        ];
        let t2 = [t1[1], t1[0], t1[2]];
        let t3 = [t1[2], t1[1], t1[0]];
        let d1 = Instance::from_triples(t1).unwrap().digest();
        let d2 = Instance::from_triples(t2).unwrap().digest();
        let d3 = Instance::from_triples(t3).unwrap().digest();
        assert_eq!(d1, d2);
        assert_eq!(d1, d3);
    }

    #[test]
    fn digest_distinguishes_every_field() {
        let base = Instance::from_triples([(Time(0), Dur(4), sz(1, 2))])
            .unwrap()
            .digest();
        let arrival = Instance::from_triples([(Time(1), Dur(4), sz(1, 2))])
            .unwrap()
            .digest();
        let duration = Instance::from_triples([(Time(0), Dur(5), sz(1, 2))])
            .unwrap()
            .digest();
        let size = Instance::from_triples([(Time(0), Dur(4), sz(1, 3))])
            .unwrap()
            .digest();
        let duplicated =
            Instance::from_triples([(Time(0), Dur(4), sz(1, 2)), (Time(0), Dur(4), sz(1, 2))])
                .unwrap()
                .digest();
        for other in [arrival, duration, size, duplicated] {
            assert_ne!(base, other);
        }
        assert_ne!(Instance::empty().digest(), base);
    }

    #[test]
    fn digest_hex_round_trips() {
        let d = Instance::from_triples([(Time(3), Dur(9), sz(2, 3))])
            .unwrap()
            .digest();
        let hex = d.to_string();
        assert_eq!(hex.len(), 32);
        assert_eq!(InstanceDigest::parse(&hex), Some(d));
        assert_eq!(InstanceDigest::parse("xyz"), None);
        assert_eq!(InstanceDigest::parse(&hex[1..]), None);
    }

    #[test]
    fn max_concurrency_departures_free_first() {
        // [0,5) and [5,10): never concurrent.
        let inst =
            Instance::from_triples([(Time(0), Dur(5), sz(1, 2)), (Time(5), Dur(5), sz(1, 2))])
                .unwrap();
        assert_eq!(inst.max_concurrency(), 1);
        let inst2 =
            Instance::from_triples([(Time(0), Dur(6), sz(1, 2)), (Time(5), Dur(5), sz(1, 2))])
                .unwrap();
        assert_eq!(inst2.max_concurrency(), 2);
    }
}
