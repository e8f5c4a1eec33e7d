//! The event-driven packing simulator.
//!
//! Two front doors share one implementation:
//!
//! * [`run`] — batch mode: replay a whole [`Instance`] through an algorithm.
//! * [`InteractiveSim`] — adaptive mode: a driver (e.g. the Theorem 4.3
//!   adversary) feeds items one at a time and may inspect the open-bin
//!   count between arrivals before deciding what to release next.
//!
//! Semantics: time moves on the integer tick grid; at each moment all
//! departures are processed before any arrival (the paper's `t⁻`/`t⁺`
//! convention), bins close permanently when they empty, and the
//! MinUsageTime cost of a bin is `closed_at − opened_at`.
//!
//! Per-event cost: an arrival is O(log B) when the algorithm answers
//! through the store's capacity tournament tree (placement validation is
//! O(1)); a departure is O(1) amortized ([`BinStore`]'s position indexes).
//! [`run`] pre-reserves every per-item and per-bin table from the
//! instance size, so batch replays allocate O(1) times.
//!
//! Observability: the simulator emits a structured [`EngineEvent`] stream
//! through an [`EventSink`] type parameter (default [`NoopSink`], whose
//! empty callback compiles away) and tallies [`RunMetrics`] — arrival
//! counts, fast-path vs. scan placements, tree/heap work — returned on
//! every [`PackingResult`]. Attach [`crate::audit::InvariantAuditor`] (or
//! any sink) via [`run_with_sink`] / [`InteractiveSim::with_sink`].

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::algorithm::{OnlineAlgorithm, Placement, SimView};
use crate::bin_state::{BinId, BinStore};
use crate::cost::Area;
use crate::error::EngineError;
use crate::failure::{FailurePlan, ResilienceReport, RetryPolicy};
use crate::instance::{Instance, InstanceBuilder};
use crate::item::{Item, ItemId};
use crate::recourse::{
    Migration, RecourseBudget, RecourseCtl, RecourseEpoch, RecourseReport, RecourseView,
};
use crate::size::SizeVec;
use crate::time::{Dur, Time};
use crate::trace::{EngineEvent, EventSink, NoopSink, PlacementPath};

/// Engine-side execution counters for one run.
///
/// All counters are engine-attributed: sink callbacks that probe the bin
/// store (e.g. the invariant auditor re-running both First-Fit paths) do
/// not inflate them, because the engine accounts store queries as deltas
/// snapshotted around each algorithm decision.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunMetrics {
    /// Items submitted (each produces exactly one placement on success).
    pub arrivals: u64,
    /// Placements decided without enumerating the open list (tournament
    /// tree, O(1) rules, or unconditional `OpenNew`).
    pub fast_path_placements: u64,
    /// Placements that walked the open list at least once.
    pub scan_placements: u64,
    /// Capacity-tree First-Fit queries issued by algorithm decisions.
    pub tree_queries: u64,
    /// Linear open-list enumerations issued by algorithm decisions.
    pub linear_scans: u64,
    /// Open-list tombstone compactions over the whole run.
    pub tree_compactions: u64,
    /// Departure-heap pushes.
    pub heap_pushes: u64,
    /// Departure-heap pops.
    pub heap_pops: u64,
    /// Engine events emitted to the sink.
    pub events: u64,
}

impl RunMetrics {
    /// Fraction of placements that avoided a linear scan (1.0 when no
    /// items were placed).
    pub fn fast_path_share(&self) -> f64 {
        let placed = self.fast_path_placements + self.scan_placements;
        if placed == 0 {
            1.0
        } else {
            self.fast_path_placements as f64 / placed as f64
        }
    }
}

/// Everything measured during one packing run.
#[derive(Debug, Clone)]
pub struct PackingResult {
    /// `assignment[item.id.index()]` is the bin the item was placed in.
    pub assignment: Vec<BinId>,
    /// Total usage time `ON(σ) = Σ_bins (closed_at − opened_at)`.
    pub cost: Area,
    /// Peak number of simultaneously open bins.
    pub max_open: usize,
    /// Total number of bins ever opened.
    pub bins_opened: usize,
    /// Per-bin `(opened_at, closed_at)` intervals, indexed by `BinId`.
    pub bin_intervals: Vec<(Time, Time)>,
    /// Open-bin-count breakpoints: `(time, open_count)` at every change,
    /// recorded *after* all events at that time. Enables `∫ ON_t dt`
    /// recomputation and the Corollary 5.8 experiments.
    pub timeline: Vec<(Time, usize)>,
    /// Engine execution counters for this run.
    pub metrics: RunMetrics,
    /// Failure-side ledger: crash, displacement, re-admission and drop
    /// counts plus the degraded demand-area. All-zero (the `Default`)
    /// whenever the run used the empty [`FailurePlan`].
    pub resilience: ResilienceReport,
    /// Recourse-side ledger: voluntary migrations, migration-driven bin
    /// closures, and epochs offered. All-zero (the `Default`) whenever the
    /// run used [`RecourseBudget::None`].
    pub recourse: RecourseReport,
}

impl PackingResult {
    /// Recomputes the cost by integrating the open-bin timeline; equals
    /// [`PackingResult::cost`] by construction and is used in tests as an
    /// independent cross-check.
    pub fn cost_from_timeline(&self) -> Area {
        let mut total = Area::ZERO;
        for w in self.timeline.windows(2) {
            let dt = w[1].0.since(w[0].0);
            total += Area::from_bins_ticks(w[0].1 as u64, dt);
        }
        total
    }

    /// The number of open bins immediately after all events at time `t`
    /// (i.e. `ON_{t⁺}`). Times before the first breakpoint have zero bins.
    pub fn open_at(&self, t: Time) -> usize {
        match self.timeline.binary_search_by_key(&t, |&(s, _)| s) {
            Ok(idx) => self.timeline[idx].1,
            Err(0) => 0,
            Err(idx) => self.timeline[idx - 1].1,
        }
    }
}

/// A re-admission waiting out its backoff, ordered by `(at, parent)` so
/// the retry queue drains deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PendingReadmit {
    /// When the item re-enters.
    at: Time,
    /// The displaced item (raw id) this retry continues.
    parent: u32,
    /// Displacement count of the logical request (1 on first retry).
    attempt: u32,
    /// The original departure the retry still targets.
    departure: Time,
    /// Item size.
    size: SizeVec,
}

impl Ord for PendingReadmit {
    fn cmp(&self, other: &PendingReadmit) -> Ordering {
        (self.at, self.parent).cmp(&(other.at, other.parent))
    }
}

impl PartialOrd for PendingReadmit {
    fn partial_cmp(&self, other: &PendingReadmit) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// One pending re-admission as exposed to external serializers (the serve
/// daemon's snapshot): everything
/// [`InteractiveSim::restore_pending_readmission`] needs to rebuild the
/// queue entry — and its dead parent row — in a fresh engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingReadmission {
    /// The displaced parent row this retry continues.
    pub parent: ItemId,
    /// The parent row's arrival.
    pub arrival: Time,
    /// When the parent was displaced (its truncated departure column).
    pub displaced_at: Time,
    /// When the retry re-enters.
    pub at: Time,
    /// Displacement count of the logical request.
    pub attempt: u32,
    /// The original departure the retry still targets.
    pub departure: Time,
    /// Item size.
    pub size: SizeVec,
}

/// The failure layer of one simulation: the plan, the retry policy, the
/// scheduled-crash and pending-re-admission queues, and the ledger. With
/// the empty plan every queue stays empty and the layer is inert — the
/// engine's output is bit-identical to a failure-free build.
struct FailureCtl {
    plan: FailurePlan,
    retry: RetryPolicy,
    /// Scheduled crashes: `(crash time, bin id)`.
    crashes: BinaryHeap<Reverse<(Time, u32)>>,
    /// Displaced items waiting out their backoff.
    readmits: BinaryHeap<Reverse<PendingReadmit>>,
    /// Displacement count per item id, indexed by raw id (ids are dense;
    /// the vector is grown lazily, so failure-free runs never touch it).
    /// Zero = never displaced; clones inherit their creation attempt so
    /// backoff compounds.
    attempts: Vec<u32>,
    /// Reusable buffer for the residents of a crashing bin, so repeated
    /// crashes drain through one warm allocation.
    crash_scratch: Vec<u32>,
    /// Seeded fate draws for a freshly-opened bin use
    /// `BinId(bin + fate_offset)` — zero except in restored sessions,
    /// where it re-aligns the renumbered bins with the fate sequence of
    /// the uninterrupted run (see [`InteractiveSim::set_fate_offset`]).
    fate_offset: u32,
    report: ResilienceReport,
}

impl FailureCtl {
    fn new(plan: FailurePlan, retry: RetryPolicy) -> FailureCtl {
        let mut crashes = BinaryHeap::new();
        if let FailurePlan::Scripted(schedule) = &plan {
            for &(at, bin) in schedule {
                crashes.push(Reverse((at, bin.0)));
            }
        }
        FailureCtl {
            plan,
            retry,
            crashes,
            readmits: BinaryHeap::new(),
            attempts: Vec::new(),
            crash_scratch: Vec::new(),
            fate_offset: 0,
            report: ResilienceReport::default(),
        }
    }

    /// The displacement count recorded for raw item id `i`.
    #[inline]
    fn attempts_of(&self, i: u32) -> u32 {
        self.attempts.get(i as usize).copied().unwrap_or(0)
    }

    /// Records `attempt` as raw item id `i`'s displacement count.
    fn set_attempts(&mut self, i: u32, attempt: u32) {
        let idx = i as usize;
        if self.attempts.len() <= idx {
            self.attempts.resize(idx + 1, 0);
        }
        self.attempts[idx] = attempt;
    }
}

/// Struct-of-arrays item state: the engine's per-item columns, parallel to
/// the assignment vector. The drain loops touch exactly one column per
/// check (a departure-staleness test reads only `departures`), so the hot
/// path streams over dense `u64`s instead of striding across whole
/// [`Item`] records.
struct ItemTable {
    arrivals: Vec<Time>,
    departures: Vec<Time>,
    sizes: Vec<SizeVec>,
}

/// Checked `usize → u32` for item-table row indices. Rows, heap entries
/// and compaction remaps are keyed by `u32`; a table past `u32::MAX` rows
/// must fail loudly here rather than silently truncate an id.
#[inline]
fn row_id(i: usize) -> u32 {
    u32::try_from(i).expect("item table exceeds u32::MAX rows")
}

impl ItemTable {
    fn with_capacity(n: usize) -> ItemTable {
        ItemTable {
            arrivals: Vec::with_capacity(n),
            departures: Vec::with_capacity(n),
            sizes: Vec::with_capacity(n),
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.arrivals.len()
    }

    fn push(&mut self, item: Item) {
        self.arrivals.push(item.arrival);
        self.departures.push(item.departure);
        self.sizes.push(item.size);
    }

    /// Materializes the row as an [`Item`] (for algorithm callbacks).
    #[inline]
    fn get(&self, i: u32) -> Item {
        let idx = i as usize;
        Item::new(
            ItemId(i),
            self.arrivals[idx],
            self.departures[idx],
            self.sizes[idx],
        )
    }
}

/// An in-flight simulation accepting items one at a time.
///
/// The second type parameter is the attached [`EventSink`]; it defaults to
/// [`NoopSink`], so plain `InteractiveSim<A>` is the silent (zero-cost)
/// simulator. To inspect a sink after [`InteractiveSim::finish`] consumes
/// the sim, attach it by mutable reference (`&mut S` implements
/// [`EventSink`]).
pub struct InteractiveSim<A: OnlineAlgorithm, S: EventSink = NoopSink> {
    algo: A,
    bins: BinStore,
    now: Time,
    started: bool,
    /// Pending departures: `(departure, item index)`. An entry is *stale*
    /// (and skipped on pop) when the item's departure column no longer
    /// matches its queued time — displacement truncates the column, which
    /// acts as the entry's generation check.
    departures: BinaryHeap<Reverse<(Time, u32)>>,
    items: ItemTable,
    assignment: Vec<BinId>,
    cost: Area,
    max_open: usize,
    timeline: Vec<(Time, usize)>,
    undated: usize,
    /// Items currently resident in a bin (arrived, not yet departed or
    /// displaced). Drives the daemon's compaction policy.
    resident: usize,
    sink: S,
    metrics: RunMetrics,
    failures: FailureCtl,
    recourse: RecourseCtl,
}

impl<A: OnlineAlgorithm> InteractiveSim<A> {
    /// Starts a simulation driving `algo`. The algorithm is reset first.
    pub fn new(algo: A) -> InteractiveSim<A> {
        InteractiveSim::with_capacity(algo, 0)
    }

    /// Starts a simulation pre-reserving space for `items` items (and as
    /// many bins — the worst case opens one per item). Behaviour is
    /// identical to [`InteractiveSim::new`]; runs within the estimate just
    /// never reallocate their bookkeeping or rebuild the placement tree.
    pub fn with_capacity(algo: A, items: usize) -> InteractiveSim<A> {
        InteractiveSim::with_capacity_and_sink(algo, items, NoopSink)
    }

    /// Starts a simulation with fault injection: bins crash per `plan`,
    /// and displaced items are re-admitted under `retry` (see
    /// [`crate::failure`]). With [`FailurePlan::none`] this is exactly
    /// [`InteractiveSim::new`].
    pub fn with_failures(algo: A, plan: FailurePlan, retry: RetryPolicy) -> InteractiveSim<A> {
        InteractiveSim::with_capacity_failures_and_sink(algo, 0, plan, retry, NoopSink)
    }
}

impl<A: OnlineAlgorithm, S: EventSink> InteractiveSim<A, S> {
    /// Starts a simulation driving `algo` with `sink` attached to the
    /// engine event stream.
    pub fn with_sink(algo: A, sink: S) -> InteractiveSim<A, S> {
        InteractiveSim::with_capacity_and_sink(algo, 0, sink)
    }

    /// [`InteractiveSim::with_capacity`] plus an attached sink.
    pub fn with_capacity_and_sink(algo: A, items: usize, sink: S) -> InteractiveSim<A, S> {
        InteractiveSim::with_capacity_failures_and_sink(
            algo,
            items,
            FailurePlan::None,
            RetryPolicy::Immediate,
            sink,
        )
    }

    /// The fully-general constructor: capacity hint, failure plan, retry
    /// policy and event sink.
    pub fn with_capacity_failures_and_sink(
        mut algo: A,
        items: usize,
        plan: FailurePlan,
        retry: RetryPolicy,
        sink: S,
    ) -> InteractiveSim<A, S> {
        algo.reset();
        InteractiveSim {
            algo,
            bins: BinStore::with_capacity(items, items),
            now: Time::ZERO,
            started: false,
            departures: BinaryHeap::with_capacity(items),
            items: ItemTable::with_capacity(items),
            assignment: Vec::with_capacity(items),
            cost: Area::ZERO,
            max_open: 0,
            // One breakpoint per open plus one per close bounds the
            // timeline at 2·items + 1 entries; reserving it up front keeps
            // the steady-state loop free of growth reallocations.
            timeline: Vec::with_capacity(if items > 0 { 2 * items + 1 } else { 0 }),
            undated: 0,
            resident: 0,
            sink,
            metrics: RunMetrics::default(),
            failures: FailureCtl::new(plan, retry),
            recourse: RecourseCtl::new(RecourseBudget::None),
        }
    }

    /// Arms a recourse budget (builder form): at every arrival/departure
    /// epoch the algorithm's `propose_migration` hook may move resident
    /// items within the budget (see [`crate::recourse`]). The default is
    /// [`RecourseBudget::None`], under which the hook is never consulted
    /// and the engine's output is bit-identical to a recourse-free build.
    pub fn with_recourse(mut self, budget: RecourseBudget) -> InteractiveSim<A, S> {
        self.set_recourse(budget);
        self
    }

    /// Swaps the recourse budget mid-run (the serve daemon re-arms after a
    /// muted snapshot replay). Amortized credit restarts from zero —
    /// conservative: a restored session can never out-spend an
    /// uninterrupted one — while the ledger is preserved.
    pub fn set_recourse(&mut self, budget: RecourseBudget) {
        self.recourse.set_budget(budget);
    }

    /// The recourse ledger accumulated so far (finalized copies land on
    /// [`PackingResult::recourse`]).
    #[inline]
    pub fn recourse(&self) -> &RecourseReport {
        &self.recourse.report
    }

    /// The current simulation clock.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of currently open bins (what the Theorem 4.3 adversary
    /// watches).
    #[inline]
    pub fn open_count(&self) -> usize {
        self.bins.open_count()
    }

    /// Total bins opened so far.
    #[inline]
    pub fn bins_opened(&self) -> usize {
        self.bins.total_opened()
    }

    /// Read-only view of the bins (for drivers that render figures).
    #[inline]
    pub fn bins(&self) -> &BinStore {
        &self.bins
    }

    /// The driven algorithm.
    #[inline]
    pub fn algorithm(&self) -> &A {
        &self.algo
    }

    /// The execution counters accumulated so far (finalized copies land on
    /// [`PackingResult::metrics`]).
    #[inline]
    pub fn metrics(&self) -> &RunMetrics {
        &self.metrics
    }

    /// The failure-side ledger accumulated so far.
    #[inline]
    pub fn resilience(&self) -> &ResilienceReport {
        &self.failures.report
    }

    /// Usage cost of all bins *closed* so far (open bins bill on close).
    #[inline]
    pub fn cost_so_far(&self) -> Area {
        self.cost
    }

    /// Items currently resident in a bin (arrived, not departed/displaced).
    #[inline]
    pub fn resident_items(&self) -> usize {
        self.resident
    }

    /// Peak simultaneously-open bin count so far (the quantity
    /// [`PackingResult::max_open`] reports at the end of a batch run).
    #[inline]
    pub fn max_open(&self) -> usize {
        self.max_open
    }

    /// Rows in the item table — the quantity [`InteractiveSim::compact`]
    /// bounds. Grows by one per arrival/re-admission, shrinks on compaction.
    #[inline]
    pub fn table_len(&self) -> usize {
        self.items.len()
    }

    /// Mutable access to the attached sink (e.g. to drain a buffer the
    /// sink filled during the last call).
    #[inline]
    pub fn sink_mut(&mut self) -> &mut S {
        &mut self.sink
    }

    /// Read-only access to the attached sink.
    #[inline]
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Displaced items currently waiting out their re-admission backoff.
    /// Serializers (the serve daemon's snapshot) use this to detect
    /// in-flight failure state a snapshot cannot carry.
    #[inline]
    pub fn pending_readmissions(&self) -> usize {
        self.failures.readmits.len()
    }

    /// The pending re-admissions, sorted in drain order `(at, parent)`.
    /// Each entry carries exactly the fields
    /// [`InteractiveSim::restore_pending_readmission`] takes, so
    /// serializers can round-trip the retry queue across a restart.
    pub fn pending_readmit_entries(&self) -> Vec<PendingReadmission> {
        let mut entries: Vec<PendingReadmission> = self
            .failures
            .readmits
            .iter()
            .map(|Reverse(p)| {
                let idx = p.parent as usize;
                PendingReadmission {
                    parent: ItemId(p.parent),
                    arrival: self.items.arrivals[idx],
                    displaced_at: self.items.departures[idx],
                    at: p.at,
                    attempt: p.attempt,
                    departure: p.departure,
                    size: p.size,
                }
            })
            .collect();
        entries.sort_unstable_by_key(|e| (e.at, e.parent.0));
        entries
    }

    /// Re-injects a pending re-admission recorded by an external
    /// serializer: creates a dead *parent* row for the displaced item —
    /// arrival and size as recorded, departure truncated at `displaced_at`
    /// exactly as the crash left it — and queues the retry at `at`, so the
    /// forthcoming [`EngineEvent::ItemReadmitted`] names a real row and
    /// the shared relocation drain replays it like the original engine
    /// would have. Returns the parent row's id.
    ///
    /// The parent row is not resident anywhere; its assignment slot holds
    /// a placeholder that is never dereferenced (dead rows have no heap
    /// entry and no bin membership).
    ///
    /// # Panics
    /// Panics unless `arrival < displaced_at ≤ now ≤ at < departure` — any
    /// other shape could not have come out of a real crash.
    pub fn restore_pending_readmission(
        &mut self,
        arrival: Time,
        displaced_at: Time,
        at: Time,
        attempt: u32,
        departure: Time,
        size: impl Into<SizeVec>,
    ) -> ItemId {
        let size = size.into();
        assert!(
            arrival < displaced_at && displaced_at <= self.now && self.now <= at && at < departure,
            "restored re-admission violates arrival < displaced ≤ now ≤ retry < departure"
        );
        let id = ItemId(u32::try_from(self.items.len()).expect("too many items"));
        self.items.push(Item::new(id, arrival, displaced_at, size));
        self.assignment.push(BinId(u32::MAX));
        // The pending entry itself carries `attempt`; the dead parent row's
        // own counter is never read again (it cannot be crashed twice).
        self.failures.readmits.push(Reverse(PendingReadmit {
            at,
            parent: id.0,
            attempt,
            departure,
            size,
        }));
        id
    }

    /// Pending scheduled crashes as `(bin, crash time)`, in firing order.
    /// Snapshotting drivers serialize these so seeded dooms survive a
    /// restart instead of being re-drawn under the restored numbering.
    pub fn pending_dooms(&self) -> Vec<(BinId, Time)> {
        let mut out: Vec<(BinId, Time)> = self
            .failures
            .crashes
            .iter()
            .map(|&Reverse((at, bin))| (BinId(bin), at))
            .collect();
        out.sort_unstable_by_key(|&(bin, at)| (at, bin.0));
        out
    }

    /// Drops every scheduled crash. Restore-support: a muted snapshot
    /// replay re-draws fates for reopened bins under their *new* ids; the
    /// driver clears those draws and re-arms the recorded dooms through
    /// [`InteractiveSim::schedule_crash`].
    pub fn clear_crash_schedule(&mut self) {
        self.failures.crashes.clear();
    }

    /// Schedules `bin` to crash at `at` (the re-arming counterpart of
    /// [`InteractiveSim::clear_crash_schedule`]).
    pub fn schedule_crash(&mut self, bin: BinId, at: Time) {
        self.failures.crashes.push(Reverse((at, bin.0)));
    }

    /// Offsets seeded fate draws: a freshly-opened bin `b` draws the fate
    /// of `BinId(b.0 + offset)`. Restore sets this to (bins the session
    /// chain had ever opened) − (bins reopened by the replay), so fresh
    /// bins after a restart draw exactly the fates their counterparts in
    /// the uninterrupted run would have drawn.
    pub fn set_fate_offset(&mut self, offset: u32) {
        self.failures.fate_offset = offset;
    }

    /// The current seeded-fate id offset (see
    /// [`InteractiveSim::set_fate_offset`]).
    pub fn fate_offset(&self) -> u32 {
        self.failures.fate_offset
    }

    /// The live items: `(id, item, bin)` for every resident row, in id
    /// order. Undated items report the `Time(u64::MAX)` placeholder.
    pub fn live_items(&self) -> impl Iterator<Item = (ItemId, Item, BinId)> + '_ {
        (0..row_id(self.items.len())).filter_map(move |i| {
            let dep = self.items.departures[i as usize];
            (dep > self.now).then(|| (ItemId(i), self.items.get(i), self.assignment[i as usize]))
        })
    }

    /// Drains every remaining departure (and scheduled crash /
    /// re-admission) without consuming the simulator or emitting a
    /// `ClockAdvanced` — exactly the terminal drain [`InteractiveSim::finish`]
    /// performs, exposed for drivers (the serve daemon) that need the final
    /// counters but not the replayed [`Instance`].
    pub fn drain_remaining(&mut self) -> Result<(), EngineError> {
        self.process_departures_up_to(Time(u64::MAX))
    }

    /// Compacts the item table: drops every row that is neither resident
    /// (departure in the future, or undated) nor referenced as the parent
    /// of a pending re-admission, renumbering the survivors densely in
    /// their original order. Returns `retained`, where `retained[new]` is
    /// the old id of the row now at index `new`; the same mapping is pushed
    /// to the algorithm and the sink via their `on_compact` hooks before
    /// this returns.
    ///
    /// All engine state is rewritten consistently (departure/re-admission
    /// queues, per-bin resident lists, attempt counters); stale
    /// departure-heap entries discarded here are accounted as heap pops, so
    /// final [`RunMetrics`] match an uncompacted run bit-for-bit. The
    /// open-bin timeline is truncated to its last breakpoint — long-running
    /// daemons cannot afford one entry per event — so
    /// [`PackingResult::cost_from_timeline`] only covers the tail after the
    /// last compaction. Outstanding [`ItemId`]s held by the caller are
    /// invalidated (translate them through `retained`); whole-run mirrors
    /// like the invariant auditor are incompatible with compaction.
    pub fn compact(&mut self) -> Vec<ItemId> {
        let old_len = self.items.len();
        let mut keep = vec![false; old_len];
        for (i, k) in keep.iter_mut().enumerate() {
            *k = self.items.departures[i] > self.now;
        }
        // Parent rows of pending re-admissions stay, so the forthcoming
        // `ItemReadmitted { original }` still names a translatable row.
        for Reverse(p) in self.failures.readmits.iter() {
            keep[p.parent as usize] = true;
        }
        let mut old_to_new = vec![u32::MAX; old_len];
        let mut retained = Vec::new();
        for (i, &k) in keep.iter().enumerate() {
            if k {
                old_to_new[i] = row_id(retained.len());
                retained.push(ItemId(row_id(i)));
            }
        }
        if retained.len() == old_len {
            // Nothing to drop; skip the rewrite (hooks still fire so
            // callers can treat every compact() uniformly).
            self.algo.on_compact(&retained, old_len);
            self.sink.on_compact(&retained, old_len);
            return retained;
        }
        // Columns + assignment: in-place dense retain, preserving order
        // (ids must stay in (arrival, submission) order).
        for (new, &ItemId(old)) in retained.iter().enumerate() {
            let old = old as usize;
            self.items.arrivals[new] = self.items.arrivals[old];
            self.items.departures[new] = self.items.departures[old];
            self.items.sizes[new] = self.items.sizes[old];
            self.assignment[new] = self.assignment[old];
        }
        self.items.arrivals.truncate(retained.len());
        self.items.departures.truncate(retained.len());
        self.items.sizes.truncate(retained.len());
        self.assignment.truncate(retained.len());
        // Departure heap: re-key live entries, discard the rest. A stale
        // entry (queued departure no longer matching its row's column, or
        // a dead row) would have been popped-and-skipped eventually; count
        // it as popped now so final metrics match the lazy path.
        let old_heap = std::mem::take(&mut self.departures);
        let mut rebuilt = BinaryHeap::with_capacity(old_heap.len());
        for Reverse((dep, idx)) in old_heap.into_iter() {
            let new = old_to_new[idx as usize];
            if new != u32::MAX && self.items.departures[new as usize] == dep {
                rebuilt.push(Reverse((dep, new)));
            } else {
                self.metrics.heap_pops += 1;
            }
        }
        self.departures = rebuilt;
        // Re-admission queue: re-key parents. The remap is monotone, so
        // the (at, parent) drain order is unchanged.
        let old_readmits = std::mem::take(&mut self.failures.readmits);
        let mut readmits = BinaryHeap::with_capacity(old_readmits.len());
        for Reverse(mut p) in old_readmits.into_iter() {
            p.parent = old_to_new[p.parent as usize];
            debug_assert!(p.parent != u32::MAX, "parents were kept above");
            readmits.push(Reverse(p));
        }
        self.failures.readmits = readmits;
        // Attempt counters follow their rows.
        if !self.failures.attempts.is_empty() {
            let old_attempts = std::mem::take(&mut self.failures.attempts);
            self.failures.attempts = retained
                .iter()
                .map(|&ItemId(old)| old_attempts.get(old as usize).copied().unwrap_or(0))
                .collect();
        }
        // Per-bin resident lists and the item position index.
        self.bins.remap_items(&old_to_new, retained.len());
        // Timeline: keep only the last breakpoint so the
        // `record_open_count_at` dedup still sees it.
        if self.timeline.len() > 1 {
            let last = *self.timeline.last().expect("checked non-empty");
            self.timeline.clear();
            self.timeline.push(last);
        }
        self.algo.on_compact(&retained, old_len);
        self.sink.on_compact(&retained, old_len);
        retained
    }

    /// Compacts the bin store: reclaims every closed bin's record and
    /// renumbers the surviving open bins densely (opening order
    /// preserved), bounding per-bin memory by the number of *open* bins
    /// instead of the number ever opened. Returns `old_to_new`, where
    /// `old_to_new[old.index()]` is the survivor's new id and
    /// `BinId(u32::MAX)` marks a reclaimed record; the same mapping is
    /// pushed to the sink via `EventSink::on_bin_compact` before this
    /// returns. Algorithms need no notice: the store renumbers its class
    /// partitions itself, and no algorithm holds bin ids across calls.
    ///
    /// All engine state is rewritten consistently: the per-item assignment
    /// column (rows whose bin was reclaimed — departed or displaced rows —
    /// keep a placeholder the engine never dereferences), the
    /// scheduled-crash queue (dooms naming reclaimed bins were already
    /// no-ops and are discarded), and the seeded-fate offset — it grows by
    /// the reclaimed count, so fresh bins keep drawing the fates their
    /// ordinals in the uncompacted run would have and a seeded-chaos run
    /// stays bit-identical with or without bin compaction.
    /// [`InteractiveSim::bins_opened`] keeps counting the whole run. Same
    /// caveats as [`InteractiveSim::compact`]: outstanding [`BinId`]s held
    /// by the caller are invalidated (translate them through the returned
    /// map), and whole-run mirrors — the invariant auditor,
    /// [`InteractiveSim::finish`]'s per-bin interval report — are
    /// incompatible with compaction.
    pub fn compact_bins(&mut self) -> Vec<BinId> {
        let old_to_new = self.bins.compact_bins();
        let new_len = self.bins.all().len();
        let dropped = old_to_new.len() - new_len;
        if dropped > 0 {
            for slot in &mut self.assignment {
                *slot = old_to_new
                    .get(slot.index())
                    .copied()
                    .unwrap_or(BinId(u32::MAX));
            }
            let old_crashes = std::mem::take(&mut self.failures.crashes);
            let mut crashes = BinaryHeap::with_capacity(old_crashes.len());
            for Reverse((at, bin)) in old_crashes.into_iter() {
                let new = old_to_new[bin as usize];
                if new != BinId(u32::MAX) {
                    crashes.push(Reverse((at, new.0)));
                }
            }
            self.failures.crashes = crashes;
            self.failures.fate_offset = self
                .failures
                .fate_offset
                .checked_add(u32::try_from(dropped).expect("reclaimed bins exceed u32"))
                .expect("fate offset overflows u32");
        }
        self.sink.on_bin_compact(&old_to_new, &self.bins);
        old_to_new
    }

    /// Renumbers every item row by the given permutation without dropping
    /// any: `order[new]` is the old id of the row now at index `new`.
    ///
    /// Same-tick departures drain in row-id order (the heap key is
    /// `(departure, row)`), so a caller that admitted rows out of their
    /// logical order — snapshot restore replays items grouped by bin to
    /// reproduce bin ids — uses this to put the table back into the order
    /// the uninterrupted run would have, making subsequent tie-breaks
    /// bit-identical. All engine state is rewritten consistently and the
    /// mapping is pushed to the algorithm and sink via `on_compact`, with
    /// the same caveats as [`InteractiveSim::compact`]: outstanding
    /// [`ItemId`]s are invalidated, and whole-run mirrors are
    /// incompatible. The re-admission queue's same-tick drain order is
    /// keyed by parent row, so call this before enqueuing re-admissions
    /// whose relative order matters.
    pub fn permute_rows(&mut self, order: &[ItemId]) {
        let old_len = self.items.len();
        assert_eq!(order.len(), old_len, "order must cover every row");
        let mut old_to_new = vec![u32::MAX; old_len];
        for (new, &ItemId(old)) in order.iter().enumerate() {
            let slot = &mut old_to_new[old as usize];
            assert_eq!(*slot, u32::MAX, "duplicate row in permutation");
            *slot = row_id(new);
        }
        let pick = |col: &[Time]| order.iter().map(|&ItemId(o)| col[o as usize]).collect();
        self.items.arrivals = pick(&self.items.arrivals);
        self.items.departures = pick(&self.items.departures);
        self.items.sizes = order
            .iter()
            .map(|&ItemId(o)| self.items.sizes[o as usize])
            .collect();
        self.assignment = order
            .iter()
            .map(|&ItemId(o)| self.assignment[o as usize])
            .collect();
        let old_heap = std::mem::take(&mut self.departures);
        let mut rebuilt = BinaryHeap::with_capacity(old_heap.len());
        for Reverse((dep, idx)) in old_heap.into_iter() {
            let new = old_to_new[idx as usize];
            if self.items.departures[new as usize] == dep {
                rebuilt.push(Reverse((dep, new)));
            } else {
                // Stale entry (column truncated by displacement): popped
                // now instead of lazily later, exactly like `compact`.
                self.metrics.heap_pops += 1;
            }
        }
        self.departures = rebuilt;
        let old_readmits = std::mem::take(&mut self.failures.readmits);
        let mut readmits = BinaryHeap::with_capacity(old_readmits.len());
        for Reverse(mut p) in old_readmits.into_iter() {
            p.parent = old_to_new[p.parent as usize];
            readmits.push(Reverse(p));
        }
        self.failures.readmits = readmits;
        if !self.failures.attempts.is_empty() {
            let old_attempts = std::mem::take(&mut self.failures.attempts);
            self.failures.attempts = order
                .iter()
                .map(|&ItemId(o)| old_attempts.get(o as usize).copied().unwrap_or(0))
                .collect();
        }
        self.bins.remap_items(&old_to_new, old_len);
        self.algo.on_compact(order, old_len);
        self.sink.on_compact(order, old_len);
    }

    /// Emits an engine event to the attached sink.
    fn emit(&mut self, event: EngineEvent) {
        self.metrics.events += 1;
        self.sink.on_event(&event, &self.bins);
    }

    /// Advances the clock to `t`, processing all departures with
    /// `departure ≤ t`.
    ///
    /// # Panics
    /// Panics if `t` is in the past; [`InteractiveSim::try_advance_to`] is
    /// the fallible equivalent.
    pub fn advance_to(&mut self, t: Time) {
        if let Err(e) = self.try_advance_to(t) {
            panic!("{e}");
        }
    }

    /// Advances the clock to `t`, processing all departures with
    /// `departure ≤ t`; rejects a past `t` with
    /// [`EngineError::ClockRegression`] instead of panicking (the
    /// `Result`-based twin of [`InteractiveSim::advance_to`], matching how
    /// [`InteractiveSim::arrive_at`] reports regressions).
    pub fn try_advance_to(&mut self, t: Time) -> Result<(), EngineError> {
        if self.started && t < self.now {
            return Err(EngineError::ClockRegression {
                now: self.now,
                to: t,
            });
        }
        let from = self.now;
        self.process_departures_up_to(t)?;
        self.now = self.now.max(t);
        self.started = true;
        if self.now > from {
            self.emit(EngineEvent::ClockAdvanced { from, to: self.now });
        }
        Ok(())
    }

    /// Submits an item arriving *now* and returns the bin it was placed in.
    pub fn arrive(&mut self, dur: Dur, size: impl Into<SizeVec>) -> Result<BinId, EngineError> {
        let arrival = self.now;
        self.arrive_at(arrival, dur, size)
    }

    /// Submits an item arriving *now* whose departure is not yet decided —
    /// the non-clairvoyant adaptive-adversary interface: the driver may
    /// watch where the item lands and only then choose its departure via
    /// [`InteractiveSim::set_departure`].
    ///
    /// The algorithm sees a placeholder departure in the far future
    /// (`Time(u64::MAX)`), so this entry point is only meaningful for
    /// algorithms that do not read departures (the non-clairvoyant
    /// family); a clairvoyant algorithm would be reacting to the
    /// placeholder. Every undated item must be dated before
    /// [`InteractiveSim::finish`].
    pub fn arrive_undated(
        &mut self,
        size: impl Into<SizeVec>,
    ) -> Result<(ItemId, BinId), EngineError> {
        let size = size.into();
        let arrival = self.now;
        self.try_advance_to(arrival)?;
        // Allocated after the drain: re-admission clones take slots too.
        let id = ItemId(u32::try_from(self.items.len()).expect("too many items"));
        self.metrics.arrivals += 1;
        self.emit(EngineEvent::Arrival {
            item: id,
            at: arrival,
            size,
            departure: None,
        });
        let item = Item::new(id, arrival, Time(u64::MAX), size);
        let bin = self.place(item)?;
        self.items.push(item);
        self.assignment.push(bin);
        self.undated += 1;
        self.recourse_epoch(RecourseEpoch::Arrival)?;
        // No departure queued yet: set_departure will queue it.
        Ok((id, bin))
    }

    /// Fixes the departure time of an item submitted via
    /// [`InteractiveSim::arrive_undated`]. `at` must not be in the past
    /// and the item must still be undated.
    ///
    /// # Panics
    /// Panics if the item is unknown, already dated, or `at` is in the past
    /// or `≤ arrival`; [`InteractiveSim::try_set_departure`] is the
    /// fallible equivalent.
    pub fn set_departure(&mut self, item: ItemId, at: Time) {
        if let Err(e) = self.try_set_departure(item, at) {
            panic!("{e}");
        }
    }

    /// Fixes the departure time of an undated item, rejecting illegal
    /// requests with a typed error instead of panicking: unknown or
    /// already-dated items yield [`EngineError::NotUndated`]; a time in the
    /// past or not strictly after the arrival yields
    /// [`EngineError::BadDeparture`].
    pub fn try_set_departure(&mut self, item: ItemId, at: Time) -> Result<(), EngineError> {
        let now = self.now;
        let idx = item.index();
        if idx >= self.items.len() || self.items.departures[idx] != Time(u64::MAX) {
            return Err(EngineError::NotUndated { item });
        }
        if at < now || at <= self.items.arrivals[idx] {
            return Err(EngineError::BadDeparture { item, at, now });
        }
        self.items.departures[idx] = at;
        self.departures.push(Reverse((at, item.0)));
        self.metrics.heap_pushes += 1;
        self.undated -= 1;
        self.rebook_departures(self.assignment[idx]);
        Ok(())
    }

    /// Submits an item arriving at `arrival ≥ now` (advancing the clock),
    /// active for `dur`.
    pub fn arrive_at(
        &mut self,
        arrival: Time,
        dur: Dur,
        size: impl Into<SizeVec>,
    ) -> Result<BinId, EngineError> {
        let size = size.into();
        if self.started && arrival < self.now {
            return Err(EngineError::TimeRegression {
                item: ItemId(u32::try_from(self.items.len()).expect("too many items")),
                now: self.now,
                arrival,
            });
        }
        self.try_advance_to(arrival)?;
        // The id is allocated only after the drain: advancing the clock can
        // re-admit displaced items, and each clone takes the next slot.
        let id = ItemId(u32::try_from(self.items.len()).expect("too many items"));
        let item = Item::new(id, arrival, arrival + dur, size);
        self.metrics.arrivals += 1;
        self.emit(EngineEvent::Arrival {
            item: id,
            at: arrival,
            size,
            departure: Some(item.departure),
        });
        let bin = self.place(item)?;
        self.items.push(item);
        self.assignment.push(bin);
        self.departures.push(Reverse((item.departure, id.0)));
        self.metrics.heap_pushes += 1;
        self.recourse_epoch(RecourseEpoch::Arrival)?;
        Ok(bin)
    }

    /// Asks the algorithm for a placement and validates it.
    fn place(&mut self, item: Item) -> Result<BinId, EngineError> {
        let id = item.id;
        let size = item.size;
        // Snapshot the store's query counters around the decision so the
        // deltas attribute exactly this algorithm call — sink probes after
        // emission (e.g. the auditor re-running First-Fit) stay excluded.
        let (tree_before, linear_before) = self.bins.query_counters();
        let placement = {
            let view = SimView::new(self.now, &self.bins);
            self.algo.on_arrival(&view, &item)
        };
        let (tree_after, linear_after) = self.bins.query_counters();
        let tree_delta = tree_after - tree_before;
        let linear_delta = linear_after - linear_before;
        self.metrics.tree_queries += tree_delta;
        self.metrics.linear_scans += linear_delta;
        let via = if linear_delta > 0 {
            PlacementPath::Scan
        } else {
            PlacementPath::FastPath
        };
        let bin = match placement {
            Placement::Existing(b) => {
                let rec = self.bins.record(b);
                match rec {
                    None => {
                        return Err(EngineError::BinNotOpen {
                            item: id,
                            bin: b,
                            at: self.now,
                        })
                    }
                    Some(r) if !r.is_open() => {
                        return Err(EngineError::BinNotOpen {
                            item: id,
                            bin: b,
                            at: self.now,
                        })
                    }
                    Some(r) if !r.fits(size) => {
                        return Err(EngineError::CapacityExceeded {
                            item: id,
                            bin: b,
                            at: self.now,
                        })
                    }
                    Some(_) => b,
                }
            }
            Placement::OpenNew | Placement::OpenIn(_) => {
                let class = match placement {
                    Placement::OpenIn(class) => Some(class),
                    _ => None,
                };
                let b = self.bins.open_with(self.now, class);
                // Seeded fault injection: a freshly-opened bin draws its
                // fate here (a no-op match for the empty plan). The draw
                // is keyed by the offset id so restored sessions continue
                // the uninterrupted run's fate sequence.
                let fate_bin = BinId(
                    b.0.checked_add(self.failures.fate_offset)
                        .expect("bin id plus fate offset overflows u32"),
                );
                if let Some(crash) = self.failures.plan.crash_time(fate_bin, self.now) {
                    self.failures.crashes.push(Reverse((crash, b.0)));
                }
                self.record_open_count();
                self.emit(EngineEvent::BinOpened {
                    bin: b,
                    at: self.now,
                });
                b
            }
        };
        let opened = !matches!(placement, Placement::Existing(_));
        self.bins.add(bin, id, size);
        self.bins
            .book_departure(bin, self.algo.planned_departure(&item));
        match via {
            PlacementPath::FastPath => self.metrics.fast_path_placements += 1,
            PlacementPath::Scan => self.metrics.scan_placements += 1,
        }
        let load_after = self.bins.record(bin).expect("bin just used").load;
        self.resident += 1;
        self.emit(EngineEvent::Placed {
            item: id,
            at: self.now,
            bin,
            opened,
            via,
            load_after,
        });
        Ok(bin)
    }

    /// Drains all remaining departures and returns the instance that was
    /// actually played plus the measurements.
    pub fn finish(mut self) -> (Instance, PackingResult) {
        assert_eq!(
            self.undated, 0,
            "finish() with undated items still in flight"
        );
        if let Err(e) = self.process_departures_up_to(Time(u64::MAX)) {
            panic!("illegal re-admission placement while draining: {e}");
        }
        debug_assert_eq!(self.bins.open_count(), 0, "all bins close at the end");
        let mut builder = InstanceBuilder::with_capacity(self.items.len());
        for i in 0..self.items.len() {
            builder.push_interval(
                self.items.arrivals[i],
                self.items.departures[i],
                self.items.sizes[i],
            );
        }
        let instance = builder.build().expect("engine-built items are valid");
        // Items were pushed in (arrival, submission) order — re-admission
        // clones included, since they are created while the clock advances
        // toward the next arrival — so the stable sort in `build` keeps
        // ids aligned with our assignment vector.
        let bin_intervals = self
            .bins
            .all()
            .iter()
            .map(|r| (r.opened_at, r.closed_at.expect("all closed")))
            .collect();
        self.metrics.tree_compactions = self.bins.compactions();
        let result = PackingResult {
            assignment: self.assignment,
            cost: self.cost,
            max_open: self.max_open,
            bins_opened: self.bins.total_opened(),
            bin_intervals,
            timeline: self.timeline,
            metrics: self.metrics,
            resilience: self.failures.report,
            recourse: self.recourse.report,
        };
        (instance, result)
    }

    /// Drains, in time order, every pending departure, scheduled bin
    /// crash, and backoff-expired re-admission stamped `≤ t`. Ties at one
    /// moment resolve departures → crashes → re-admissions: a crash at `t`
    /// sees the post-departure state (the `t⁻`/`t⁺` convention extended),
    /// and a re-admission lands at `t⁺` like any fresh arrival.
    ///
    /// With the empty [`FailurePlan`] both failure queues stay empty and
    /// this loop is exactly the classic departure drain — bit-identical
    /// output, the §11 safety net.
    fn process_departures_up_to(&mut self, t: Time) -> Result<(), EngineError> {
        loop {
            let dep_t = self.departures.peek().map(|&Reverse((d, _))| d);
            let crash_t = self.failures.crashes.peek().map(|&Reverse((d, _))| d);
            let re_t = self.failures.readmits.peek().map(|Reverse(p)| p.at);
            let Some(next) = [dep_t, crash_t, re_t].into_iter().flatten().min() else {
                break;
            };
            if next > t {
                break;
            }
            if dep_t == Some(next) {
                self.pop_departure()?;
            } else if crash_t == Some(next) {
                self.pop_crash();
            } else {
                self.pop_readmit()?;
            }
        }
        Ok(())
    }

    /// Processes the earliest pending departure (stale entries for items
    /// displaced after queuing are skipped). A real departure opens a
    /// recourse epoch, which can fail on an illegal migration proposal.
    fn pop_departure(&mut self) -> Result<(), EngineError> {
        let Reverse((dep, idx)) = self.departures.pop().expect("peeked before pop");
        self.metrics.heap_pops += 1;
        if self.items.departures[idx as usize] != dep {
            // Generation check: displacement truncated the departure
            // column after this entry was queued, marking it stale. One
            // column load decides — the full record is never touched; the
            // re-admission (if any) carries its own entry.
            return Ok(());
        }
        let item = self.items.get(idx);
        self.now = self.now.max(dep);
        let bin = self.assignment[idx as usize];
        let closed = self.detach(bin, item.id, item.size, dep);
        self.emit(EngineEvent::Departure {
            item: item.id,
            at: dep,
            bin,
            size: item.size,
        });
        if closed {
            self.settle_close(bin, dep);
        }
        self.algo.on_departure(&item, bin, closed);
        self.recourse_epoch(RecourseEpoch::Departure)
    }

    /// Detaches a resident item from its bin — the shared first half of
    /// every relocation, whether the item is leaving for good (departure),
    /// being displaced by a crash, or being voluntarily migrated. Returns
    /// whether the removal emptied (closed) the bin.
    fn detach(&mut self, bin: BinId, item: ItemId, size: SizeVec, at: Time) -> bool {
        self.resident -= 1;
        self.bins.remove(bin, item, size, at)
    }

    /// Settles a bin that just emptied cleanly: bills its interval,
    /// records the open-count breakpoint, and emits `BinClosed`. Shared by
    /// the departure and migration paths (a crash bills the same interval
    /// but announces itself as `BinFailed`).
    fn settle_close(&mut self, bin: BinId, at: Time) {
        let opened_at = self.bins.record(bin).expect("bin exists").opened_at;
        self.cost += Area::from_bin_ticks(at.since(opened_at));
        self.record_open_count_at(at);
        self.emit(EngineEvent::BinClosed { bin, at, opened_at });
    }

    /// Fires the earliest scheduled bin crash: displaces every resident
    /// (emitting `ItemDisplaced` per item, then `BinFailed`), bills the
    /// bin's interval exactly like a clean close, and queues each
    /// displaced item's re-admission per the retry policy (or drops it
    /// when the backoff outlives the item's remaining interval). Crashes
    /// naming a bin that already closed are no-ops.
    fn pop_crash(&mut self) {
        let Reverse((at, bin_raw)) = self.failures.crashes.pop().expect("peeked before pop");
        let bin = BinId(bin_raw);
        let opened_at = match self.bins.record(bin) {
            Some(rec) if rec.is_open() => rec.opened_at,
            // The scheduled victim closed (or never existed): nothing to
            // crash. Seeded dooms whose bin drained first land here too.
            _ => return,
        };
        self.now = self.now.max(at);
        self.failures.report.bin_failures += 1;
        // Residents come straight off the bin's own resident list —
        // O(residents), not a scan of every item ever admitted. Sorting
        // ascending restores the deterministic event order of the old
        // full-table scan (the list itself is swap_remove-shuffled).
        // The list is exactly the population the scan found: departures
        // `≤ at` drained before this crash (tie order), displaced items
        // were removed at displacement, and bins never readmit.
        let mut residents = std::mem::take(&mut self.failures.crash_scratch);
        residents.clear();
        residents.extend(
            self.bins
                .record(bin)
                .expect("bin checked open above")
                .items
                .iter()
                .map(|id| id.0),
        );
        residents.sort_unstable();
        debug_assert!(!residents.is_empty(), "open bins always hold an item");
        for &i in &residents {
            let item = self.items.get(i);
            assert!(
                item.departure != Time(u64::MAX),
                "cannot displace undated item {} (date it before injecting failures)",
                item.id
            );
            let closed = self.detach(bin, item.id, item.size, at);
            self.emit(EngineEvent::ItemDisplaced {
                item: item.id,
                at,
                bin,
                size: item.size,
            });
            self.algo.on_departure(&item, bin, closed);
            self.failures.report.displacements += 1;
            // Truncate the played interval at the displacement; this also
            // marks the departure-heap entry stale (the generation check
            // in pop_departure).
            self.items.departures[i as usize] = at;
            let attempt = self.failures.attempts_of(i) + 1;
            self.failures.report.max_attempts = self.failures.report.max_attempts.max(attempt);
            let readmit_at = at.saturating_add(self.failures.retry.delay(attempt));
            if readmit_at >= item.departure {
                // Backoff outlives the request: the rest of its service
                // area is lost.
                self.failures.report.dropped += 1;
                self.failures.report.degraded_area +=
                    Area::from_load_ticks(item.size.max_raw(), item.departure.since(at));
            } else {
                self.failures.report.degraded_area +=
                    Area::from_load_ticks(item.size.max_raw(), readmit_at.since(at));
                self.failures.readmits.push(Reverse(PendingReadmit {
                    at: readmit_at,
                    parent: i,
                    attempt,
                    departure: item.departure,
                    size: item.size,
                }));
            }
        }
        self.failures.crash_scratch = residents;
        debug_assert!(
            self.bins.record(bin).is_some_and(|r| !r.is_open()),
            "draining every resident closes the failed bin"
        );
        self.cost += Area::from_bin_ticks(at.since(opened_at));
        self.record_open_count_at(at);
        self.emit(EngineEvent::BinFailed { bin, at, opened_at });
    }

    /// Re-admits the earliest backoff-expired displaced item as a fresh
    /// arrival: a new item id, placed through the algorithm like any
    /// other, keeping the original departure target.
    fn pop_readmit(&mut self) -> Result<(), EngineError> {
        let Reverse(p) = self.failures.readmits.pop().expect("peeked before pop");
        self.now = self.now.max(p.at);
        let id = ItemId(u32::try_from(self.items.len()).expect("too many items"));
        self.failures.report.readmissions += 1;
        self.emit(EngineEvent::ItemReadmitted {
            item: id,
            original: ItemId(p.parent),
            at: p.at,
            size: p.size,
            departure: p.departure,
            attempt: p.attempt,
        });
        let item = Item::new(id, p.at, p.departure, p.size);
        let bin = self.place(item)?;
        self.items.push(item);
        self.assignment.push(bin);
        self.failures.set_attempts(id.0, p.attempt);
        self.departures.push(Reverse((p.departure, id.0)));
        self.metrics.heap_pushes += 1;
        // A re-admission is an arrival for recourse purposes: the shared
        // relocation drain treats the involuntary move's completion as a
        // chance to consolidate voluntarily.
        self.recourse_epoch(RecourseEpoch::Arrival)
    }

    /// Runs one migration epoch: offers the algorithm up to the budget's
    /// allowance of moves, validating and applying each through the shared
    /// relocation drain. With [`RecourseBudget::None`] (the default) this
    /// is a single branch — no view is built, no counters move, no epoch
    /// is ledgered — so recourse-free runs stay bit-identical by
    /// construction.
    fn recourse_epoch(&mut self, epoch: RecourseEpoch) -> Result<(), EngineError> {
        if self.recourse.budget.is_none() {
            return Ok(());
        }
        let mut left = self.recourse.begin_epoch();
        while left > 0 {
            // Same delta-snapshot discipline as `place`: store queries the
            // algorithm issues while deciding are engine-attributed.
            let (tree_before, linear_before) = self.bins.query_counters();
            let proposal = {
                let view = RecourseView::new(
                    SimView::new(self.now, &self.bins),
                    &self.items.sizes,
                    &self.items.departures,
                );
                self.algo.propose_migration(&view, epoch, left)
            };
            let (tree_after, linear_after) = self.bins.query_counters();
            self.metrics.tree_queries += tree_after - tree_before;
            self.metrics.linear_scans += linear_after - linear_before;
            let Some(m) = proposal else {
                break;
            };
            self.apply_migration(m)?;
            self.recourse.spend();
            left -= 1;
        }
        Ok(())
    }

    /// Validates and executes one migration: detach from the source bin,
    /// re-book into the target, emit `ItemMigrated` (followed by
    /// `BinClosed` if the move emptied the source). Validation runs
    /// entirely before any mutation, so an illegal request leaves no
    /// half-applied state behind.
    fn apply_migration(&mut self, m: Migration) -> Result<(), EngineError> {
        let at = self.now;
        let idx = m.item.index();
        // The item must be physically resident in its assigned bin, and
        // the move must actually move it.
        let from = match self.assignment.get(idx) {
            Some(&b) => b,
            None => {
                return Err(EngineError::IllegalMigration {
                    item: m.item,
                    to: m.to,
                    at,
                })
            }
        };
        let resident = self
            .bins
            .record(from)
            .is_some_and(|r| r.is_open() && r.items.contains(&m.item));
        if !resident || m.to == from {
            return Err(EngineError::IllegalMigration {
                item: m.item,
                to: m.to,
                at,
            });
        }
        // Target checks mirror placement validation.
        let size = self.items.sizes[idx];
        match self.bins.record(m.to) {
            None => {
                return Err(EngineError::BinNotOpen {
                    item: m.item,
                    bin: m.to,
                    at,
                })
            }
            Some(r) if !r.is_open() => {
                return Err(EngineError::BinNotOpen {
                    item: m.item,
                    bin: m.to,
                    at,
                })
            }
            Some(r) if !r.fits(size) => {
                return Err(EngineError::CapacityExceeded {
                    item: m.item,
                    bin: m.to,
                    at,
                })
            }
            Some(_) => {}
        }
        // The shared relocation: detach from the source, re-book into the
        // target. Engine-level residency is unchanged.
        let closed = self.detach(from, m.item, size, at);
        self.bins.add(m.to, m.item, size);
        self.bins.book_departure(m.to, self.items.departures[idx]);
        if !closed {
            self.rebook_departures(from);
        }
        self.resident += 1;
        self.assignment[idx] = m.to;
        let load_after = self.bins.record(m.to).expect("target validated open").load;
        self.emit(EngineEvent::ItemMigrated {
            item: m.item,
            at,
            from,
            to: m.to,
            size,
            load_after,
        });
        if closed {
            self.recourse.report.migration_closures += 1;
            self.settle_close(from, at);
        }
        Ok(())
    }

    /// Recomputes a bin's latest resident departure from the departure
    /// column, after a resident left early (migration) or was dated.
    fn rebook_departures(&mut self, bin: BinId) {
        let departures = &self.items.departures;
        self.bins
            .rebook_departures(bin, |item| departures[item.index()]);
    }

    fn record_open_count(&mut self) {
        self.record_open_count_at(self.now);
    }

    fn record_open_count_at(&mut self, t: Time) {
        let count = self.bins.open_count();
        self.max_open = self.max_open.max(count);
        match self.timeline.last_mut() {
            Some(last) if last.0 == t => last.1 = count,
            _ => self.timeline.push((t, count)),
        }
    }
}

/// Replays a whole instance through `algo` and returns the measurements.
///
/// Items are served in the instance's canonical order (sorted by arrival,
/// ties in builder insertion order); the returned assignment is indexed by
/// the instance's item ids.
///
/// ```
/// use dbp_core::{engine, Instance, Size, Time, Dur};
/// use dbp_core::{OnlineAlgorithm, Placement, SimView, Item};
///
/// struct Ff;
/// impl OnlineAlgorithm for Ff {
///     fn name(&self) -> &str { "ff" }
///     fn on_arrival(&mut self, view: &SimView<'_>, item: &Item) -> Placement {
///         view.first_fit(item.size).map(Placement::Existing).unwrap_or(Placement::OpenNew)
///     }
///     fn reset(&mut self) {}
/// }
///
/// let inst = Instance::from_triples([
///     (Time(0), Dur(10), Size::from_ratio(1, 2)),
///     (Time(2), Dur(5),  Size::from_ratio(1, 2)),
/// ]).unwrap();
/// let result = engine::run(&inst, Ff).unwrap();
/// assert_eq!(result.bins_opened, 1);
/// assert_eq!(result.cost.as_bin_ticks(), 10.0);
/// ```
pub fn run<A: OnlineAlgorithm>(instance: &Instance, algo: A) -> Result<PackingResult, EngineError> {
    run_with_sink(instance, algo, NoopSink)
}

/// [`run`] with an [`EventSink`] attached to the engine event stream.
///
/// Pass the sink by mutable reference (`&mut S` implements [`EventSink`])
/// to inspect it after the run:
///
/// ```
/// use dbp_core::{engine, Instance, Size, Time, Dur, VecSink};
/// use dbp_core::{OnlineAlgorithm, Placement, SimView, Item};
///
/// struct Ff;
/// impl OnlineAlgorithm for Ff {
///     fn name(&self) -> &str { "ff" }
///     fn on_arrival(&mut self, view: &SimView<'_>, item: &Item) -> Placement {
///         view.first_fit(item.size).map(Placement::Existing).unwrap_or(Placement::OpenNew)
///     }
///     fn reset(&mut self) {}
/// }
///
/// let inst = Instance::from_triples([(Time(0), Dur(3), Size::FULL)]).unwrap();
/// let mut sink = VecSink::new();
/// let result = engine::run_with_sink(&inst, Ff, &mut sink).unwrap();
/// assert_eq!(result.metrics.events as usize, sink.events.len());
/// ```
pub fn run_with_sink<A: OnlineAlgorithm, S: EventSink>(
    instance: &Instance,
    algo: A,
    sink: S,
) -> Result<PackingResult, EngineError> {
    let mut sim = InteractiveSim::with_capacity_and_sink(algo, instance.len(), sink);
    for it in instance.items() {
        sim.arrive_at(it.arrival, it.duration(), it.size)?;
    }
    let (replayed, result) = sim.finish();
    debug_assert_eq!(replayed.items().len(), instance.items().len());
    Ok(result)
}

/// [`run_with_sink`] under fault injection: bins crash per `plan` and
/// displaced items are re-admitted under `retry` (see [`crate::failure`]
/// for the model, DESIGN.md §11 for the semantics).
///
/// With [`FailurePlan::none`] the output — cost, assignment, event
/// stream, metrics — is bit-identical to [`run_with_sink`]. With a seeded
/// plan the run is a pure function of `(instance, algorithm, seed)`:
/// replays are deterministic.
///
/// The returned assignment covers the items *actually played*, i.e. the
/// original items (truncated at their displacement when a bin failed
/// under them) plus one fresh item per re-admission; the failure tallies
/// land on [`PackingResult::resilience`].
pub fn run_with_failures<A: OnlineAlgorithm, S: EventSink>(
    instance: &Instance,
    algo: A,
    plan: FailurePlan,
    retry: RetryPolicy,
    sink: S,
) -> Result<PackingResult, EngineError> {
    run_with_failures_recourse(instance, algo, plan, retry, RecourseBudget::None, sink)
}

/// [`run_with_sink`] with a recourse budget: at every arrival/departure
/// epoch the algorithm's `propose_migration` hook may move resident items,
/// billed against `budget` (see [`crate::recourse`]). With
/// [`RecourseBudget::None`] the output — cost, assignment, event stream,
/// metrics — is bit-identical to [`run_with_sink`].
pub fn run_with_recourse<A: OnlineAlgorithm, S: EventSink>(
    instance: &Instance,
    algo: A,
    budget: RecourseBudget,
    sink: S,
) -> Result<PackingResult, EngineError> {
    run_with_failures_recourse(
        instance,
        algo,
        FailurePlan::None,
        RetryPolicy::Immediate,
        budget,
        sink,
    )
}

/// The fully-general batch entry: fault injection and recourse together.
/// Crashes displace items through the shared relocation drain (pending
/// re-admissions), while the budget lets the algorithm relocate
/// voluntarily at every epoch; both kinds of moves flow through the same
/// engine paths and the same event stream.
pub fn run_with_failures_recourse<A: OnlineAlgorithm, S: EventSink>(
    instance: &Instance,
    algo: A,
    plan: FailurePlan,
    retry: RetryPolicy,
    budget: RecourseBudget,
    sink: S,
) -> Result<PackingResult, EngineError> {
    let mut sim =
        InteractiveSim::with_capacity_failures_and_sink(algo, instance.len(), plan, retry, sink)
            .with_recourse(budget);
    for it in instance.items() {
        sim.arrive_at(it.arrival, it.duration(), it.size)?;
    }
    let (_played, result) = sim.finish();
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::size::Size;

    /// Plain First-Fit over all open bins (the canonical smoke-test
    /// algorithm; the production version lives in `dbp-algos`).
    struct Ff;
    impl OnlineAlgorithm for Ff {
        fn name(&self) -> &str {
            "ff-test"
        }
        fn on_arrival(&mut self, view: &SimView<'_>, item: &Item) -> Placement {
            match view.first_fit(item.size) {
                Some(b) => Placement::Existing(b),
                None => Placement::OpenNew,
            }
        }
        fn reset(&mut self) {}
    }

    /// An algorithm that cheats by stuffing everything into bin 0.
    struct Stuffer;
    impl OnlineAlgorithm for Stuffer {
        fn name(&self) -> &str {
            "stuffer"
        }
        fn on_arrival(&mut self, _view: &SimView<'_>, _item: &Item) -> Placement {
            Placement::Existing(BinId(0))
        }
        fn reset(&mut self) {}
    }

    fn sz(n: u64, d: u64) -> Size {
        Size::from_ratio(n, d)
    }

    #[test]
    fn single_item_cost_is_its_duration() {
        let inst = Instance::from_triples([(Time(3), Dur(7), sz(1, 2))]).unwrap();
        let res = run(&inst, Ff).unwrap();
        assert_eq!(res.cost.as_bin_ticks(), 7.0);
        assert_eq!(res.bins_opened, 1);
        assert_eq!(res.max_open, 1);
        assert_eq!(res.bin_intervals, vec![(Time(3), Time(10))]);
    }

    #[test]
    fn ff_shares_bins_and_reuses_nothing_after_close() {
        // Two half items overlap → same bin; a later item gets a NEW bin
        // because the first closed at t=10.
        let inst = Instance::from_triples([
            (Time(0), Dur(10), sz(1, 2)),
            (Time(2), Dur(5), sz(1, 2)),
            (Time(10), Dur(4), sz(1, 2)),
        ])
        .unwrap();
        let res = run(&inst, Ff).unwrap();
        assert_eq!(res.assignment[0], res.assignment[1]);
        assert_ne!(res.assignment[0], res.assignment[2]);
        assert_eq!(res.bins_opened, 2);
        assert_eq!(res.cost.as_bin_ticks(), 10.0 + 4.0);
    }

    #[test]
    fn departures_processed_before_arrivals_at_same_tick() {
        // Item A occupies a full bin on [0,5); item B (full) arrives at 5.
        // A's bin closed at 5⁻, so B cannot reuse it — but crucially the
        // engine does not report max_open = 2.
        let inst =
            Instance::from_triples([(Time(0), Dur(5), Size::FULL), (Time(5), Dur(5), Size::FULL)])
                .unwrap();
        let res = run(&inst, Ff).unwrap();
        assert_eq!(res.max_open, 1);
        assert_eq!(res.bins_opened, 2);
        assert_eq!(res.cost.as_bin_ticks(), 10.0);
    }

    #[test]
    fn engine_rejects_overflow_placement() {
        /// Opens one bin, then stuffs everything else into it.
        struct OverStuffer;
        impl OnlineAlgorithm for OverStuffer {
            fn name(&self) -> &str {
                "overstuffer"
            }
            fn on_arrival(&mut self, view: &SimView<'_>, _item: &Item) -> Placement {
                if view.open_count() == 0 {
                    Placement::OpenNew
                } else {
                    Placement::Existing(BinId(0))
                }
            }
            fn reset(&mut self) {}
        }
        let inst =
            Instance::from_triples([(Time(0), Dur(5), Size::FULL), (Time(1), Dur(5), sz(1, 2))])
                .unwrap();
        let err = run(&inst, OverStuffer).unwrap_err();
        assert!(matches!(err, EngineError::CapacityExceeded { .. }));
    }

    #[test]
    fn engine_rejects_placement_into_unknown_bin() {
        let inst = Instance::from_triples([(Time(0), Dur(5), sz(1, 2))]).unwrap();
        let err = run(&inst, Stuffer).unwrap_err();
        assert!(matches!(err, EngineError::BinNotOpen { .. }));
    }

    #[test]
    fn engine_rejects_placement_into_closed_bin() {
        struct ReuseFirst;
        impl OnlineAlgorithm for ReuseFirst {
            fn name(&self) -> &str {
                "reuse-first"
            }
            fn on_arrival(&mut self, view: &SimView<'_>, _item: &Item) -> Placement {
                if view.bin(BinId(0)).is_some() {
                    Placement::Existing(BinId(0))
                } else {
                    Placement::OpenNew
                }
            }
            fn reset(&mut self) {}
        }
        let inst = Instance::from_triples([
            (Time(0), Dur(2), sz(1, 2)),
            (Time(5), Dur(2), sz(1, 2)), // bin 0 closed at t=2
        ])
        .unwrap();
        let err = run(&inst, ReuseFirst).unwrap_err();
        assert!(matches!(err, EngineError::BinNotOpen { .. }));
    }

    #[test]
    fn timeline_integrates_to_cost() {
        let inst = Instance::from_triples([
            (Time(0), Dur(10), sz(2, 3)),
            (Time(2), Dur(5), sz(2, 3)),
            (Time(4), Dur(9), sz(2, 3)),
            (Time(20), Dur(1), sz(1, 8)),
        ])
        .unwrap();
        let res = run(&inst, Ff).unwrap();
        assert_eq!(res.cost, res.cost_from_timeline());
    }

    #[test]
    fn open_at_queries_timeline() {
        let inst =
            Instance::from_triples([(Time(0), Dur(4), Size::FULL), (Time(1), Dur(1), Size::FULL)])
                .unwrap();
        let res = run(&inst, Ff).unwrap();
        assert_eq!(res.open_at(Time(0)), 1);
        assert_eq!(res.open_at(Time(1)), 2);
        assert_eq!(res.open_at(Time(2)), 1);
        assert_eq!(res.open_at(Time(4)), 0);
        assert_eq!(res.open_at(Time(100)), 0);
    }

    #[test]
    fn interactive_time_regression_rejected() {
        let mut sim = InteractiveSim::new(Ff);
        sim.arrive_at(Time(5), Dur(1), sz(1, 2)).unwrap();
        let err = sim.arrive_at(Time(3), Dur(1), sz(1, 2)).unwrap_err();
        assert!(matches!(err, EngineError::TimeRegression { .. }));
    }

    #[test]
    fn undated_arrivals_support_adaptive_departures() {
        let mut sim = InteractiveSim::new(Ff);
        sim.advance_to(Time(0));
        let (a, bin_a) = sim.arrive_undated(sz(1, 2)).unwrap();
        let (b, bin_b) = sim.arrive_undated(sz(1, 2)).unwrap();
        assert_eq!(bin_a, bin_b, "FF co-locates two halves");
        // The adversary decides AFTER seeing placements.
        sim.set_departure(a, Time(100));
        sim.set_departure(b, Time(1));
        let (inst, res) = sim.finish();
        assert_eq!(inst.item(a).departure, Time(100));
        assert_eq!(inst.item(b).departure, Time(1));
        assert_eq!(res.cost.as_bin_ticks(), 100.0, "survivor pins the bin");
        let audit = crate::assignment::audit(&inst, &res.assignment).unwrap();
        assert_eq!(audit.cost, res.cost);
    }

    #[test]
    #[should_panic(expected = "already dated")]
    fn double_dating_panics() {
        let mut sim = InteractiveSim::new(Ff);
        let (a, _) = sim.arrive_undated(sz(1, 2)).unwrap();
        sim.set_departure(a, Time(5));
        sim.set_departure(a, Time(6));
    }

    #[test]
    #[should_panic(expected = "undated items still in flight")]
    fn finish_with_undated_items_panics() {
        let mut sim = InteractiveSim::new(Ff);
        let _ = sim.arrive_undated(sz(1, 2)).unwrap();
        let _ = sim.finish();
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn dating_in_the_past_panics() {
        let mut sim = InteractiveSim::new(Ff);
        let (a, _) = sim.arrive_undated(sz(1, 2)).unwrap();
        sim.arrive_at(Time(10), Dur(1), sz(1, 4)).unwrap();
        sim.set_departure(a, Time(5));
    }

    #[test]
    fn undated_items_outlive_interleaved_dated_traffic() {
        let mut sim = InteractiveSim::new(Ff);
        let (a, _) = sim.arrive_undated(sz(1, 4)).unwrap();
        sim.arrive_at(Time(2), Dur(3), sz(1, 4)).unwrap(); // departs at 5
        sim.advance_to(Time(6));
        sim.set_departure(a, Time(9));
        let (inst, res) = sim.finish();
        assert_eq!(inst.len(), 2);
        assert_eq!(res.cost_from_timeline(), res.cost);
    }

    #[test]
    fn try_variants_return_typed_errors() {
        let mut sim = InteractiveSim::new(Ff);
        sim.try_advance_to(Time(5)).unwrap();
        let err = sim.try_advance_to(Time(3)).unwrap_err();
        assert!(matches!(err, EngineError::ClockRegression { .. }));
        // Unknown item: not an undated in-flight arrival.
        let err = sim.try_set_departure(ItemId(9), Time(10)).unwrap_err();
        assert!(matches!(err, EngineError::NotUndated { .. }));
        let (a, _) = sim.arrive_undated(sz(1, 2)).unwrap();
        // `at == arrival` is not strictly after the arrival.
        let err = sim.try_set_departure(a, Time(5)).unwrap_err();
        assert!(matches!(err, EngineError::BadDeparture { .. }));
        sim.try_set_departure(a, Time(6)).unwrap();
        let err = sim.try_set_departure(a, Time(7)).unwrap_err();
        assert!(matches!(err, EngineError::NotUndated { .. }));
        let (_, res) = sim.finish();
        assert_eq!(res.cost.as_bin_ticks(), 1.0);
    }

    #[test]
    fn event_stream_matches_run_shape() {
        use crate::trace::{EngineEvent, VecSink};
        let inst = Instance::from_triples([
            (Time(0), Dur(10), sz(1, 2)),
            (Time(2), Dur(5), sz(1, 2)),
            (Time(10), Dur(4), sz(1, 2)),
        ])
        .unwrap();
        let mut sink = VecSink::new();
        let res = run_with_sink(&inst, Ff, &mut sink).unwrap();
        let events = &sink.events;
        assert_eq!(res.metrics.events as usize, events.len());
        let count = |f: fn(&EngineEvent) -> bool| events.iter().filter(|e| f(e)).count();
        assert_eq!(count(|e| matches!(e, EngineEvent::Arrival { .. })), 3);
        assert_eq!(count(|e| matches!(e, EngineEvent::Placed { .. })), 3);
        assert_eq!(count(|e| matches!(e, EngineEvent::Departure { .. })), 3);
        assert_eq!(
            count(|e| matches!(e, EngineEvent::BinOpened { .. })),
            res.bins_opened
        );
        assert_eq!(
            count(|e| matches!(e, EngineEvent::BinClosed { .. })),
            res.bins_opened
        );
        assert!(
            events.windows(2).all(|w| w[0].time() <= w[1].time()),
            "event timestamps never regress"
        );
        assert_eq!(res.metrics.arrivals, 3);
        assert_eq!(res.metrics.heap_pushes, 3);
        assert_eq!(res.metrics.heap_pops, 3);
        assert_eq!(
            res.metrics.fast_path_placements + res.metrics.scan_placements,
            3
        );
    }

    #[test]
    fn noop_run_reports_metrics_too() {
        let inst = Instance::from_triples([(Time(0), Dur(3), Size::FULL)]).unwrap();
        let res = run(&inst, Ff).unwrap();
        assert_eq!(res.metrics.arrivals, 1);
        assert_eq!(
            res.metrics.events, 5,
            "arrival+opened+placed+departure+closed"
        );
        assert_eq!(res.metrics.fast_path_share(), 1.0);
    }

    #[test]
    fn scripted_crash_displaces_and_readmits_immediately() {
        use crate::trace::VecSink;
        // Two halves share bin 0 on [0, 10); the server dies at t=4.
        let inst =
            Instance::from_triples([(Time(0), Dur(10), sz(1, 2)), (Time(0), Dur(10), sz(1, 2))])
                .unwrap();
        let plan = FailurePlan::scripted(vec![(Time(4), BinId(0))]);
        let mut sink = VecSink::new();
        let res = run_with_failures(&inst, Ff, plan, RetryPolicy::Immediate, &mut sink).unwrap();
        // Bin 0 billed [0,4), the replacement bin [4,10).
        assert_eq!(res.cost.as_bin_ticks(), 4.0 + 6.0);
        assert_eq!(res.bins_opened, 2);
        assert_eq!(res.assignment.len(), 4, "two originals + two re-admissions");
        let r = &res.resilience;
        assert_eq!(r.bin_failures, 1);
        assert_eq!(r.displacements, 2);
        assert_eq!(r.readmissions, 2);
        assert_eq!(r.dropped, 0);
        assert_eq!(r.max_attempts, 1);
        assert!(r.degraded_area.is_zero(), "immediate retry loses nothing");
        let count = |f: fn(&EngineEvent) -> bool| sink.events.iter().filter(|e| f(e)).count();
        assert_eq!(count(|e| matches!(e, EngineEvent::BinFailed { .. })), 1);
        assert_eq!(count(|e| matches!(e, EngineEvent::ItemDisplaced { .. })), 2);
        assert_eq!(
            count(|e| matches!(e, EngineEvent::ItemReadmitted { .. })),
            2
        );
        assert_eq!(count(|e| matches!(e, EngineEvent::BinClosed { .. })), 1);
        // Displacements precede the BinFailed at the same moment.
        let fail_pos = sink
            .events
            .iter()
            .position(|e| matches!(e, EngineEvent::BinFailed { .. }))
            .unwrap();
        assert!(
            sink.events[..fail_pos]
                .iter()
                .filter(|e| matches!(e, EngineEvent::ItemDisplaced { .. }))
                .count()
                == 2
        );
        assert_eq!(res.cost, res.cost_from_timeline());
    }

    #[test]
    fn fixed_backoff_delays_readmission_and_accrues_degraded_area() {
        let inst =
            Instance::from_triples([(Time(0), Dur(10), sz(1, 2)), (Time(0), Dur(10), sz(1, 2))])
                .unwrap();
        let plan = FailurePlan::scripted(vec![(Time(4), BinId(0))]);
        let res = run_with_failures(&inst, Ff, plan, RetryPolicy::Fixed(Dur(2)), NoopSink).unwrap();
        // Bin 0 billed [0,4); the replacement opens at 6 and runs to 10.
        assert_eq!(res.cost.as_bin_ticks(), 4.0 + 4.0);
        assert_eq!(res.resilience.readmissions, 2);
        // Two halves idle for 2 ticks each: 2 × (1/2 × 2) = 2 bin·ticks.
        assert_eq!(res.resilience.degraded_area.as_bin_ticks(), 2.0);
    }

    #[test]
    fn backoff_past_the_departure_drops_the_item() {
        let inst =
            Instance::from_triples([(Time(0), Dur(10), sz(1, 2)), (Time(0), Dur(10), sz(1, 2))])
                .unwrap();
        let plan = FailurePlan::scripted(vec![(Time(4), BinId(0))]);
        let res =
            run_with_failures(&inst, Ff, plan, RetryPolicy::Fixed(Dur(100)), NoopSink).unwrap();
        assert_eq!(res.cost.as_bin_ticks(), 4.0, "nothing re-enters");
        assert_eq!(res.resilience.dropped, 2);
        assert_eq!(res.resilience.readmissions, 0);
        // The whole remaining service is lost: 2 × (1/2 × 6).
        assert_eq!(res.resilience.degraded_area.as_bin_ticks(), 6.0);
        assert_eq!(res.assignment.len(), 2, "no clones were created");
    }

    #[test]
    fn crash_of_a_closed_bin_is_a_noop() {
        let inst = Instance::from_triples([(Time(0), Dur(3), sz(1, 2))]).unwrap();
        // Bin 0 closes at t=3; the scheduled crash at t=5 finds it gone.
        let plan = FailurePlan::scripted(vec![(Time(5), BinId(0)), (Time(1), BinId(7))]);
        let res = run_with_failures(&inst, Ff, plan, RetryPolicy::Immediate, NoopSink).unwrap();
        assert_eq!(res.cost.as_bin_ticks(), 3.0);
        assert!(!res.resilience.any());
    }

    #[test]
    fn zero_failure_plan_is_bit_identical_to_a_plain_run() {
        use crate::trace::VecSink;
        let inst = Instance::from_triples([
            (Time(0), Dur(10), sz(1, 2)),
            (Time(2), Dur(5), sz(1, 2)),
            (Time(4), Dur(9), sz(2, 3)),
            (Time(20), Dur(1), sz(1, 8)),
        ])
        .unwrap();
        let mut plain_sink = VecSink::new();
        let plain = run_with_sink(&inst, Ff, &mut plain_sink).unwrap();
        let mut fail_sink = VecSink::new();
        let failed = run_with_failures(
            &inst,
            Ff,
            FailurePlan::none(),
            RetryPolicy::Exponential { base: Dur(3) },
            &mut fail_sink,
        )
        .unwrap();
        assert_eq!(plain.cost, failed.cost);
        assert_eq!(plain.assignment, failed.assignment);
        assert_eq!(plain.timeline, failed.timeline);
        assert_eq!(plain.metrics, failed.metrics);
        assert_eq!(
            plain_sink.events, fail_sink.events,
            "event streams identical"
        );
        assert!(!failed.resilience.any());
    }

    #[test]
    fn seeded_failures_replay_deterministically() {
        use crate::trace::VecSink;
        let inst = Instance::from_triples(
            (0..40u64).map(|k| (Time(k / 2), Dur(6 + k % 9), sz(1 + k % 3, 4))),
        )
        .unwrap();
        let plan = || FailurePlan::seeded(0.6, 11, Dur(4));
        let retry = RetryPolicy::Exponential { base: Dur(1) };
        let mut a_sink = VecSink::new();
        let a = run_with_failures(&inst, Ff, plan(), retry, &mut a_sink).unwrap();
        let mut b_sink = VecSink::new();
        let b = run_with_failures(&inst, Ff, plan(), retry, &mut b_sink).unwrap();
        assert_eq!(a.cost, b.cost);
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.resilience, b.resilience);
        assert_eq!(a_sink.events, b_sink.events);
        assert!(
            a.resilience.bin_failures > 0,
            "rate 0.6 fires on this input"
        );
        assert_eq!(a.cost, a.cost_from_timeline());
        assert_eq!(
            a.resilience.displacements,
            a.resilience.readmissions + a.resilience.dropped,
            "every displacement either re-enters or is dropped"
        );
    }

    #[test]
    fn repeated_failures_compound_the_attempt_counter() {
        // The item's first bin dies at t=2, its re-admission bin at t=4.
        let inst = Instance::from_triples([(Time(0), Dur(20), sz(1, 2))]).unwrap();
        let plan = FailurePlan::scripted(vec![(Time(2), BinId(0)), (Time(4), BinId(1))]);
        let res = run_with_failures(&inst, Ff, plan, RetryPolicy::Immediate, NoopSink).unwrap();
        assert_eq!(res.resilience.bin_failures, 2);
        assert_eq!(res.resilience.displacements, 2);
        assert_eq!(res.resilience.max_attempts, 2, "same request bounced twice");
        assert_eq!(res.bins_opened, 3);
        assert_eq!(res.cost.as_bin_ticks(), 2.0 + 2.0 + 16.0);
    }

    #[test]
    fn compaction_preserves_cost_and_metrics() {
        let items: Vec<(Time, Dur, Size)> = (0..400u64)
            .map(|k| (Time(k / 2), Dur(3 + k % 7), sz(1 + k % 3, 4)))
            .collect();
        let mut plain = InteractiveSim::new(Ff);
        for &(t, d, s) in &items {
            plain.arrive_at(t, d, s).unwrap();
        }
        plain.drain_remaining().unwrap();
        let mut compacted = InteractiveSim::new(Ff);
        for (k, &(t, d, s)) in items.iter().enumerate() {
            compacted.arrive_at(t, d, s).unwrap();
            if k % 50 == 49 {
                compacted.compact();
            }
        }
        compacted.drain_remaining().unwrap();
        assert_eq!(plain.cost_so_far(), compacted.cost_so_far());
        assert_eq!(plain.metrics(), compacted.metrics());
        assert_eq!(plain.bins_opened(), compacted.bins_opened());
        assert_eq!(compacted.resident_items(), 0);
        assert!(
            compacted.table_len() < items.len(),
            "compaction dropped departed rows ({} of {})",
            compacted.table_len(),
            items.len()
        );
    }

    #[test]
    fn compaction_with_failures_matches_uncompacted_run() {
        // Displacements truncate departure columns, so the compacted run
        // must discard stale heap entries AND bill them as pops; pending
        // re-admission parents must survive the row drop.
        let items: Vec<(Time, Dur, Size)> = (0..200u64)
            .map(|k| (Time(k / 2), Dur(6 + k % 9), sz(1 + k % 3, 4)))
            .collect();
        let plan = || FailurePlan::seeded(0.6, 11, Dur(4));
        let retry = RetryPolicy::Fixed(Dur(2));
        let mut plain =
            InteractiveSim::with_capacity_failures_and_sink(Ff, 0, plan(), retry, NoopSink);
        for &(t, d, s) in &items {
            plain.arrive_at(t, d, s).unwrap();
        }
        plain.drain_remaining().unwrap();
        let mut compacted =
            InteractiveSim::with_capacity_failures_and_sink(Ff, 0, plan(), retry, NoopSink);
        for (k, &(t, d, s)) in items.iter().enumerate() {
            compacted.arrive_at(t, d, s).unwrap();
            if k % 17 == 16 {
                compacted.compact();
            }
        }
        compacted.drain_remaining().unwrap();
        assert!(plain.resilience().bin_failures > 0, "plan fires");
        assert_eq!(plain.cost_so_far(), compacted.cost_so_far());
        assert_eq!(plain.metrics(), compacted.metrics());
        assert_eq!(plain.resilience(), compacted.resilience());
        assert_eq!(plain.bins_opened(), compacted.bins_opened());
    }

    #[test]
    fn compaction_bounds_the_table_under_churn() {
        // 2000 sequential short items, never more than ~2 live at once: the
        // compacted table must stay within a constant of the live count.
        let mut sim = InteractiveSim::new(Ff);
        let mut peak_live = 0;
        for k in 0..2000u64 {
            sim.arrive_at(Time(k), Dur(2), sz(1, 2)).unwrap();
            peak_live = peak_live.max(sim.resident_items());
            if sim.table_len() >= 2 * sim.resident_items() + 16 {
                sim.compact();
            }
        }
        assert!(peak_live <= 3);
        assert!(
            sim.table_len() <= 2 * peak_live + 16,
            "table {} vs peak live {}",
            sim.table_len(),
            peak_live
        );
        sim.drain_remaining().unwrap();
        assert_eq!(sim.resident_items(), 0);
    }

    #[test]
    fn bin_compaction_matches_uncompacted_run_under_seeded_chaos() {
        // Bin renumbering must disturb neither placement decisions nor
        // seeded fate draws: the fate offset grows by the reclaimed count,
        // so every fresh bin still draws its uncompacted-run ordinal.
        let items: Vec<(Time, Dur, Size)> = (0..200u64)
            .map(|k| (Time(k / 2), Dur(6 + k % 9), sz(1 + k % 3, 4)))
            .collect();
        let plan = || FailurePlan::seeded(0.6, 11, Dur(4));
        let retry = RetryPolicy::Fixed(Dur(2));
        let mut plain =
            InteractiveSim::with_capacity_failures_and_sink(Ff, 0, plan(), retry, NoopSink);
        for &(t, d, s) in &items {
            plain.arrive_at(t, d, s).unwrap();
        }
        plain.drain_remaining().unwrap();
        let mut compacted =
            InteractiveSim::with_capacity_failures_and_sink(Ff, 0, plan(), retry, NoopSink);
        for (k, &(t, d, s)) in items.iter().enumerate() {
            compacted.arrive_at(t, d, s).unwrap();
            if k % 17 == 16 {
                compacted.compact();
                compacted.compact_bins();
            }
        }
        compacted.drain_remaining().unwrap();
        assert!(plain.resilience().bin_failures > 0, "plan fires");
        assert_eq!(plain.cost_so_far(), compacted.cost_so_far());
        assert_eq!(plain.metrics(), compacted.metrics());
        assert_eq!(plain.resilience(), compacted.resilience());
        assert_eq!(plain.bins_opened(), compacted.bins_opened());
        assert!(
            compacted.bins().all().len() < compacted.bins_opened(),
            "bin compaction reclaimed closed records"
        );
    }

    #[test]
    fn bin_compaction_bounds_the_record_table_under_churn() {
        // Sequential near-full items: one bin each, never more than ~2
        // open at once. The compacted record table must stay within a
        // constant of the open count while `bins_opened` keeps counting.
        let mut sim = InteractiveSim::new(Ff);
        for k in 0..2000u64 {
            sim.arrive_at(Time(k), Dur(2), sz(3, 4)).unwrap();
            if sim.bins().all().len() >= 2 * sim.bins().open_count() + 16 {
                sim.compact_bins();
            }
        }
        assert!(
            sim.bins().all().len() <= 2 * sim.bins().open_count() + 16,
            "record table {} vs open {}",
            sim.bins().all().len(),
            sim.bins().open_count()
        );
        sim.drain_remaining().unwrap();
        assert_eq!(sim.bins_opened(), 2000);
        assert_eq!(sim.cost_so_far().as_bin_ticks(), 2.0 * 2000.0);
    }

    #[test]
    fn on_compact_reports_the_retained_mapping() {
        use std::collections::HashMap;
        /// First-Fit that checks every departure against what it recorded
        /// at arrival, following compaction remaps.
        #[derive(Default)]
        struct Tracking {
            sizes: HashMap<u32, SizeVec>,
            compactions: usize,
        }
        impl OnlineAlgorithm for Tracking {
            fn name(&self) -> &str {
                "tracking"
            }
            fn on_arrival(&mut self, view: &SimView<'_>, item: &Item) -> Placement {
                self.sizes.insert(item.id.0, item.size);
                match view.first_fit(item.size) {
                    Some(b) => Placement::Existing(b),
                    None => Placement::OpenNew,
                }
            }
            fn on_departure(&mut self, item: &Item, _bin: BinId, _closed: bool) {
                let recorded = self.sizes.remove(&item.id.0);
                assert_eq!(recorded, Some(item.size), "id {} remapped wrong", item.id);
            }
            fn on_compact(&mut self, retained: &[ItemId], old_len: usize) {
                self.compactions += 1;
                let mut next = HashMap::with_capacity(retained.len());
                for (new, &old) in retained.iter().enumerate() {
                    assert!((old.0 as usize) < old_len);
                    if let Some(s) = self.sizes.remove(&old.0) {
                        next.insert(new as u32, s);
                    }
                }
                assert!(self.sizes.is_empty(), "live state beyond the mapping");
                self.sizes = next;
            }
            fn reset(&mut self) {
                self.sizes.clear();
            }
        }
        let mut sim = InteractiveSim::new(Tracking::default());
        for k in 0..300u64 {
            sim.arrive_at(Time(k), Dur(4), sz(1, 3)).unwrap();
            if k % 25 == 24 {
                sim.compact();
            }
        }
        sim.drain_remaining().unwrap();
        assert!(sim.algorithm().compactions >= 10);
        assert!(sim.algorithm().sizes.is_empty(), "all departures matched");
    }

    #[test]
    fn interactive_open_count_visible_mid_run() {
        let mut sim = InteractiveSim::new(Ff);
        sim.arrive_at(Time(0), Dur(10), Size::FULL).unwrap();
        assert_eq!(sim.open_count(), 1);
        sim.arrive_at(Time(0), Dur(10), Size::FULL).unwrap();
        assert_eq!(sim.open_count(), 2);
        sim.advance_to(Time(10));
        assert_eq!(sim.open_count(), 0);
        let (inst, res) = sim.finish();
        assert_eq!(inst.len(), 2);
        assert_eq!(res.cost.as_bin_ticks(), 20.0);
    }

    /// First-Fit that, at every departure epoch, evacuates the
    /// lowest-loaded open bin into the others one resident at a time — a
    /// miniature of the dbp-algos consolidator, small enough to reason
    /// about exactly in these tests.
    struct Consolidator;
    impl OnlineAlgorithm for Consolidator {
        fn name(&self) -> &str {
            "consolidator-test"
        }
        fn on_arrival(&mut self, view: &SimView<'_>, item: &Item) -> Placement {
            match view.first_fit(item.size) {
                Some(b) => Placement::Existing(b),
                None => Placement::OpenNew,
            }
        }
        fn propose_migration(
            &mut self,
            view: &RecourseView<'_>,
            epoch: RecourseEpoch,
            _moves_left: u32,
        ) -> Option<Migration> {
            if !matches!(epoch, RecourseEpoch::Departure) {
                return None;
            }
            let sim = view.sim();
            let source = sim
                .open_bins()
                .min_by_key(|r| (r.load, r.id.0))
                .map(|r| r.id)?;
            let (item, size, _) = view.residents(source).into_iter().next()?;
            let to = sim
                .open_bins()
                .find(|r| r.id != source && r.fits(size))
                .map(|r| r.id)?;
            Some(Migration { item, to })
        }
        fn reset(&mut self) {}
    }

    #[test]
    fn migration_consolidates_and_bills_the_closed_bin() {
        use crate::trace::VecSink;
        // r0 [0,4) and r1 [0,10) share bin 0; r2 (3/4) pins bin 1 to t=20.
        // When r0 departs, the consolidator moves r1 into bin 1: bin 0
        // closes at 4 instead of 10.
        let inst = Instance::from_triples([
            (Time(0), Dur(4), sz(1, 4)),
            (Time(0), Dur(10), sz(1, 4)),
            (Time(0), Dur(20), sz(3, 4)),
        ])
        .unwrap();
        let mut sink = VecSink::new();
        let res =
            run_with_recourse(&inst, Consolidator, RecourseBudget::Unlimited, &mut sink).unwrap();
        assert_eq!(res.cost.as_bin_ticks(), 4.0 + 20.0);
        assert_eq!(res.recourse.migrations, 1);
        assert_eq!(res.recourse.migration_closures, 1);
        assert_eq!(res.assignment[1], BinId(1), "r1 ends up in bin 1");
        assert_eq!(res.cost, res.cost_from_timeline());
        // ItemMigrated precedes the BinClosed it caused.
        let mig = sink
            .events
            .iter()
            .position(|e| matches!(e, EngineEvent::ItemMigrated { .. }))
            .expect("one migration");
        assert!(matches!(
            sink.events[mig],
            EngineEvent::ItemMigrated {
                item: ItemId(1),
                at: Time(4),
                from: BinId(0),
                to: BinId(1),
                ..
            }
        ));
        assert!(matches!(
            sink.events[mig + 1],
            EngineEvent::BinClosed {
                bin: BinId(0),
                at: Time(4),
                ..
            }
        ));
        // Without recourse the same instance costs 10 + 20.
        let base = run(&inst, Consolidator).unwrap();
        assert_eq!(base.cost.as_bin_ticks(), 30.0);
    }

    #[test]
    fn none_budget_never_consults_the_algorithm() {
        use crate::trace::VecSink;
        let inst = Instance::from_triples([
            (Time(0), Dur(4), sz(1, 4)),
            (Time(0), Dur(10), sz(1, 4)),
            (Time(0), Dur(20), sz(3, 4)),
        ])
        .unwrap();
        let mut plain_sink = VecSink::new();
        let plain = run_with_sink(&inst, Ff, &mut plain_sink).unwrap();
        let mut rec_sink = VecSink::new();
        let gated =
            run_with_recourse(&inst, Consolidator, RecourseBudget::None, &mut rec_sink).unwrap();
        assert_eq!(plain.cost, gated.cost);
        assert_eq!(plain.assignment, gated.assignment);
        assert_eq!(plain.timeline, gated.timeline);
        assert_eq!(plain.metrics, gated.metrics);
        assert_eq!(plain_sink.events, rec_sink.events);
        assert!(!gated.recourse.any(), "no epoch was ever opened");
    }

    #[test]
    fn per_epoch_budget_caps_moves_and_cost_shrinks_with_budget() {
        // After r0 departs at t=4, bin 0 still holds two quarters that
        // both fit into bin 1. Unlimited moves them in one epoch (bin 0
        // closes at 4); epoch=1 moves one per departure epoch (bin 0
        // closes at 10); none leaves bin 0 open to t=12.
        let inst = Instance::from_triples([
            (Time(0), Dur(4), sz(1, 4)),
            (Time(0), Dur(10), sz(1, 4)),
            (Time(0), Dur(12), sz(1, 4)),
            (Time(0), Dur(20), sz(1, 2)),
        ])
        .unwrap();
        let unlimited =
            run_with_recourse(&inst, Consolidator, RecourseBudget::Unlimited, NoopSink).unwrap();
        let one =
            run_with_recourse(&inst, Consolidator, RecourseBudget::per_epoch(1), NoopSink).unwrap();
        let none = run(&inst, Consolidator).unwrap();
        assert_eq!(unlimited.cost.as_bin_ticks(), 4.0 + 20.0);
        assert_eq!(unlimited.recourse.migrations, 2);
        assert_eq!(one.cost.as_bin_ticks(), 10.0 + 20.0);
        assert_eq!(one.recourse.migrations, 2, "second move waits an epoch");
        assert_eq!(none.cost.as_bin_ticks(), 12.0 + 20.0);
        assert!(unlimited.cost < one.cost && one.cost < none.cost);
    }

    /// Proposes one fixed migration at every arrival epoch with two open
    /// bins (so tests can aim a specific illegal request at the engine).
    struct BadMover(Migration);
    impl OnlineAlgorithm for BadMover {
        fn name(&self) -> &str {
            "bad-mover"
        }
        fn on_arrival(&mut self, view: &SimView<'_>, item: &Item) -> Placement {
            match view.first_fit(item.size) {
                Some(b) => Placement::Existing(b),
                None => Placement::OpenNew,
            }
        }
        fn propose_migration(
            &mut self,
            view: &RecourseView<'_>,
            epoch: RecourseEpoch,
            _moves_left: u32,
        ) -> Option<Migration> {
            (matches!(epoch, RecourseEpoch::Arrival) && view.sim().open_count() == 2)
                .then_some(self.0)
        }
        fn reset(&mut self) {}
    }

    #[test]
    fn illegal_migrations_are_rejected_with_typed_errors() {
        let inst = Instance::from_triples([
            (Time(0), Dur(10), Size::FULL),
            (Time(0), Dur(10), Size::FULL),
        ])
        .unwrap();
        let cases = [
            (
                Migration {
                    item: ItemId(0),
                    to: BinId(0),
                },
                "own bin",
            ),
            (
                Migration {
                    item: ItemId(99),
                    to: BinId(1),
                },
                "unknown item",
            ),
        ];
        for (m, what) in cases {
            let err = run_with_recourse(&inst, BadMover(m), RecourseBudget::per_epoch(1), NoopSink)
                .unwrap_err();
            assert!(
                matches!(err, EngineError::IllegalMigration { .. }),
                "{what}: {err}"
            );
        }
        let err = run_with_recourse(
            &inst,
            BadMover(Migration {
                item: ItemId(0),
                to: BinId(9),
            }),
            RecourseBudget::per_epoch(1),
            NoopSink,
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::BinNotOpen { .. }));
        let err = run_with_recourse(
            &inst,
            BadMover(Migration {
                item: ItemId(0),
                to: BinId(1),
            }),
            RecourseBudget::per_epoch(1),
            NoopSink,
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::CapacityExceeded { .. }));
    }

    #[test]
    fn restored_pending_readmission_drains_like_the_original() {
        use crate::trace::VecSink;
        let mut sink = VecSink::new();
        let mut sim = InteractiveSim::with_sink(Ff, &mut sink);
        sim.try_advance_to(Time(5)).unwrap();
        let parent =
            sim.restore_pending_readmission(Time(0), Time(4), Time(6), 1, Time(12), sz(1, 2));
        assert_eq!(sim.pending_readmissions(), 1);
        assert_eq!(
            sim.pending_readmit_entries(),
            vec![PendingReadmission {
                parent,
                arrival: Time(0),
                displaced_at: Time(4),
                at: Time(6),
                attempt: 1,
                departure: Time(12),
                size: sz(1, 2).into(),
            }]
        );
        let (inst, res) = sim.finish();
        assert_eq!(inst.len(), 2, "dead parent row + live clone");
        assert_eq!(res.resilience.readmissions, 1);
        assert_eq!(res.cost.as_bin_ticks(), 6.0, "clone serves [6, 12)");
        let readmit = sink
            .events
            .iter()
            .find(|e| matches!(e, EngineEvent::ItemReadmitted { .. }))
            .expect("retry replayed");
        assert!(matches!(
            *readmit,
            EngineEvent::ItemReadmitted {
                original,
                at: Time(6),
                attempt: 1,
                departure: Time(12),
                ..
            } if original == parent
        ));
    }
}
