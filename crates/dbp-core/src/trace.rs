//! Structured event traces of packing runs.
//!
//! Two complementary layers live here:
//!
//! * **Engine events** ([`EngineEvent`]) are emitted by the simulator
//!   itself through an [`EventSink`] — the ground truth of what happened:
//!   arrivals, placements (with their search-path classification),
//!   bin lifecycle, departures, and clock motion. The default sink is
//!   [`NoopSink`], a zero-sized type whose callback compiles away, so the
//!   hot path pays nothing when nobody listens. Sinks receive a borrow of
//!   the live [`BinStore`] alongside each event, which is what lets the
//!   invariant auditor ([`crate::audit`]) cross-check the tree-backed
//!   First-Fit against the linear oracle *at the moment of divergence*.
//!   [`JsonlSink`] streams events as JSON lines (schema in DESIGN.md §9);
//!   [`parse_jsonl`] reads them back for replay and diffing.
//!
//! * **Algorithm traces** ([`TraceRecorder`]) wrap an
//!   [`OnlineAlgorithm`] and record every decision the wrapped algorithm
//!   makes. They power the figure renderers and regression tests that pin
//!   down exact decision sequences.

use std::io::{self, Write};

use crate::algorithm::{OnlineAlgorithm, Placement, SimView};
use crate::bin_state::{BinId, BinStore};
use crate::item::{Item, ItemId};
use crate::size::{LoadVec, SizeVec, MAX_DIMS, SIZE_SCALE};
use crate::time::Time;

/// How the engine classified a placement's search cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPath {
    /// Answered without enumerating the open list: a tournament-tree query,
    /// an O(1) rule (Next-Fit's newest bin), or a stateless `OpenNew`.
    FastPath,
    /// The algorithm walked the open list (`open_bins`) or ran the naive
    /// linear First-Fit to decide.
    Scan,
}

/// One event emitted by the engine during a run, in simulation order.
///
/// Departure events at a time `t` precede arrival events at `t` (the
/// model's `t⁻`/`t⁺` convention), and every `Placed { opened: true, .. }`
/// is immediately preceded by the matching [`EngineEvent::BinOpened`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineEvent {
    /// An item arrived and is about to be placed.
    Arrival {
        /// The arriving item.
        item: ItemId,
        /// Arrival time (the current clock).
        at: Time,
        /// Item size.
        size: SizeVec,
        /// Known departure, or `None` for a not-yet-dated interactive
        /// arrival.
        departure: Option<Time>,
    },
    /// A validated placement took effect.
    Placed {
        /// The placed item.
        item: ItemId,
        /// Placement time.
        at: Time,
        /// The bin it went to.
        bin: BinId,
        /// Whether this placement opened the bin.
        opened: bool,
        /// Search-path classification of the decision.
        via: PlacementPath,
        /// The bin's total load after the placement.
        load_after: LoadVec,
    },
    /// A fresh bin opened.
    BinOpened {
        /// The new bin.
        bin: BinId,
        /// Opening time.
        at: Time,
    },
    /// An item departed its bin.
    Departure {
        /// The departing item.
        item: ItemId,
        /// Departure time.
        at: Time,
        /// The bin it left.
        bin: BinId,
        /// Item size (for load reconstruction).
        size: SizeVec,
    },
    /// A bin emptied and closed forever.
    BinClosed {
        /// The closed bin.
        bin: BinId,
        /// Closing time.
        at: Time,
        /// When the bin had opened (so a sink can account its interval
        /// without keeping its own per-bin state).
        opened_at: Time,
    },
    /// A bin crashed (failure injection): its interval still counts toward
    /// the bill, but its residents were displaced rather than departing.
    /// Every `ItemDisplaced` of the crash precedes this event.
    BinFailed {
        /// The failed bin.
        bin: BinId,
        /// Crash time.
        at: Time,
        /// When the bin had opened (its billed interval is
        /// `at − opened_at`, same as a clean close).
        opened_at: Time,
    },
    /// An in-flight item was evicted by its bin crashing. Load-wise this
    /// is a departure; the item's remaining service re-enters later as an
    /// [`EngineEvent::ItemReadmitted`] (or is dropped).
    ItemDisplaced {
        /// The displaced item.
        item: ItemId,
        /// Displacement time (the crash time).
        at: Time,
        /// The bin that failed under it.
        bin: BinId,
        /// Item size (for load reconstruction).
        size: SizeVec,
    },
    /// A displaced item re-entered the system as a fresh arrival (a new
    /// item id) and is about to be placed — the failure-side twin of
    /// [`EngineEvent::Arrival`]: exactly one `Placed` follows.
    ItemReadmitted {
        /// The fresh item id of the re-admission.
        item: ItemId,
        /// The displaced item this re-admission continues.
        original: ItemId,
        /// Re-admission time.
        at: Time,
        /// Item size (unchanged by displacement).
        size: SizeVec,
        /// The original departure the re-admission still targets.
        departure: Time,
        /// How many times this logical request has been displaced so far.
        attempt: u32,
    },
    /// A resident item was voluntarily moved between open bins by a
    /// recourse-budgeted algorithm (see [`crate::recourse`]). Load-wise
    /// this is a departure from `from` plus a placement into `to` at one
    /// instant; if the move emptied `from`, the matching
    /// [`EngineEvent::BinClosed`] follows immediately.
    ItemMigrated {
        /// The moved item (it keeps its id across the move).
        item: ItemId,
        /// Migration time.
        at: Time,
        /// The bin it left.
        from: BinId,
        /// The open bin it moved into.
        to: BinId,
        /// Item size (for load reconstruction).
        size: SizeVec,
        /// The *target* bin's total load after the move.
        load_after: LoadVec,
    },
    /// The simulation clock moved forward.
    ClockAdvanced {
        /// Previous clock value.
        from: Time,
        /// New clock value.
        to: Time,
    },
}

impl EngineEvent {
    /// The simulation time this event is stamped with (`to` for clock
    /// motion).
    #[inline]
    pub fn time(&self) -> Time {
        match *self {
            EngineEvent::Arrival { at, .. }
            | EngineEvent::Placed { at, .. }
            | EngineEvent::BinOpened { at, .. }
            | EngineEvent::Departure { at, .. }
            | EngineEvent::BinClosed { at, .. }
            | EngineEvent::BinFailed { at, .. }
            | EngineEvent::ItemDisplaced { at, .. }
            | EngineEvent::ItemReadmitted { at, .. }
            | EngineEvent::ItemMigrated { at, .. } => at,
            EngineEvent::ClockAdvanced { to, .. } => to,
        }
    }

    /// Short tag naming the event kind (the JSONL `"e"` field).
    pub fn kind(&self) -> &'static str {
        match self {
            EngineEvent::Arrival { .. } => "arrival",
            EngineEvent::Placed { .. } => "placed",
            EngineEvent::BinOpened { .. } => "bin_opened",
            EngineEvent::Departure { .. } => "departure",
            EngineEvent::BinClosed { .. } => "bin_closed",
            EngineEvent::BinFailed { .. } => "bin_failed",
            EngineEvent::ItemDisplaced { .. } => "displaced",
            EngineEvent::ItemReadmitted { .. } => "readmitted",
            EngineEvent::ItemMigrated { .. } => "migrated",
            EngineEvent::ClockAdvanced { .. } => "clock",
        }
    }
}

/// Receiver of engine events.
///
/// `bins` is the live store *after* the event took effect; sinks may run
/// read-only queries against it (the auditor probes both First-Fit paths),
/// but such probes tick the store's observability counters — the engine's
/// per-placement metrics are delta-based and immune to this.
pub trait EventSink {
    /// Called once per event, in emission order.
    fn on_event(&mut self, event: &EngineEvent, bins: &BinStore);

    /// Called when the engine compacts its item table: `retained[new]` is
    /// the *old* [`ItemId`] of the row now at index `new`, `old_len` the
    /// pre-compaction table length. Item ids in *subsequent* events use the
    /// new numbering; sinks keeping id-keyed state (or translating ids for
    /// an external consumer) must rewrite it here. The default ignores it —
    /// correct for sinks that only ever see each id between its arrival and
    /// departure, wrong for whole-run mirrors like the invariant auditor
    /// (which is documented as incompatible with compaction).
    fn on_compact(&mut self, retained: &[ItemId], old_len: usize) {
        let _ = (retained, old_len);
    }

    /// Called when the engine compacts its *bin store* (see
    /// [`crate::engine::InteractiveSim::compact_bins`]): closed bins'
    /// records were reclaimed, and `old_to_new[old.index()]` is a
    /// surviving open bin's new id (`BinId(u32::MAX)` marks a dropped
    /// closed bin). `bins` is the store *after* renumbering. Bin ids in
    /// subsequent events use the new numbering; sinks translating bin ids
    /// for an external consumer must rewrite their maps here. Same
    /// default-correctness caveat as [`EventSink::on_compact`].
    fn on_bin_compact(&mut self, old_to_new: &[BinId], bins: &BinStore) {
        let _ = (old_to_new, bins);
    }
}

/// The default sink: listens to nothing, costs nothing.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NoopSink;

impl EventSink for NoopSink {
    #[inline(always)]
    fn on_event(&mut self, _event: &EngineEvent, _bins: &BinStore) {}
}

impl<S: EventSink + ?Sized> EventSink for &mut S {
    #[inline]
    fn on_event(&mut self, event: &EngineEvent, bins: &BinStore) {
        (**self).on_event(event, bins)
    }
    #[inline]
    fn on_compact(&mut self, retained: &[ItemId], old_len: usize) {
        (**self).on_compact(retained, old_len)
    }
    #[inline]
    fn on_bin_compact(&mut self, old_to_new: &[BinId], bins: &BinStore) {
        (**self).on_bin_compact(old_to_new, bins)
    }
}

/// A tee: every event goes to `.0`, then to `.1`. Compose with nesting
/// (`(a, (b, c))`) for wider fan-out — e.g. recording a trace while the
/// invariant auditor watches the same run.
impl<A: EventSink, B: EventSink> EventSink for (A, B) {
    #[inline]
    fn on_event(&mut self, event: &EngineEvent, bins: &BinStore) {
        self.0.on_event(event, bins);
        self.1.on_event(event, bins);
    }
    #[inline]
    fn on_compact(&mut self, retained: &[ItemId], old_len: usize) {
        self.0.on_compact(retained, old_len);
        self.1.on_compact(retained, old_len);
    }
    #[inline]
    fn on_bin_compact(&mut self, old_to_new: &[BinId], bins: &BinStore) {
        self.0.on_bin_compact(old_to_new, bins);
        self.1.on_bin_compact(old_to_new, bins);
    }
}

/// Buffers every event in memory.
#[derive(Debug, Default, Clone)]
pub struct VecSink {
    /// The events received so far, in order.
    pub events: Vec<EngineEvent>,
}

impl VecSink {
    /// An empty buffer.
    pub fn new() -> VecSink {
        VecSink::default()
    }
}

impl EventSink for VecSink {
    fn on_event(&mut self, event: &EngineEvent, _bins: &BinStore) {
        self.events.push(*event);
    }
}

/// Streams events as JSON lines into any writer.
///
/// Lines are serialized into an internal buffer (no per-event `String`)
/// and handed to the writer in ~32 KiB batches, so tracing a long run
/// costs one `write` syscall per few hundred events instead of one each.
/// Call [`JsonlSink::finish`] to flush the tail.
///
/// I/O errors are latched (subsequent events are dropped) and surfaced by
/// [`JsonlSink::finish`], since the sink callback itself is infallible.
///
/// Dropping the sink without calling `finish` (a panic, an early return)
/// still flushes the buffered tail on a best-effort basis — already-
/// rendered events are never silently discarded — but only `finish` can
/// report whether the flush succeeded.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    /// `None` only after `finish` moved the writer out.
    out: Option<W>,
    buf: String,
    written: u64,
    error: Option<io::Error>,
}

/// Buffered bytes that trigger a batch write in [`JsonlSink`].
const JSONL_FLUSH_BYTES: usize = 32 * 1024;

impl<W: Write> JsonlSink<W> {
    /// Wraps `out`.
    pub fn new(out: W) -> JsonlSink<W> {
        JsonlSink {
            out: Some(out),
            buf: String::new(),
            written: 0,
            error: None,
        }
    }

    /// Number of lines serialized so far (buffered lines included).
    pub fn written(&self) -> u64 {
        self.written
    }

    fn flush_buf(&mut self) {
        if self.error.is_some() || self.buf.is_empty() {
            return;
        }
        let out = self.out.as_mut().expect("writer present until finish");
        if let Err(e) = out.write_all(self.buf.as_bytes()) {
            self.error = Some(e);
        }
        self.buf.clear();
    }

    /// Flushes and returns the writer, or the first latched I/O error.
    pub fn finish(mut self) -> io::Result<W> {
        self.flush_buf();
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        let mut out = self.out.take().expect("finish called once");
        out.flush()?;
        Ok(out)
    }
}

impl<W: Write> Drop for JsonlSink<W> {
    /// Best-effort flush of the buffered tail when the sink is dropped
    /// without [`JsonlSink::finish`] — panic and early-return paths must
    /// not lose up to a batch of already-rendered events. Errors here are
    /// unreportable and ignored.
    fn drop(&mut self) {
        if self.out.is_some() {
            self.flush_buf();
            if let Some(out) = self.out.as_mut() {
                let _ = out.flush();
            }
        }
    }
}

impl<W: Write> EventSink for JsonlSink<W> {
    fn on_event(&mut self, event: &EngineEvent, _bins: &BinStore) {
        if self.error.is_some() {
            return;
        }
        write_event_json(&mut self.buf, event);
        self.buf.push('\n');
        self.written += 1;
        if self.buf.len() >= JSONL_FLUSH_BYTES {
            self.flush_buf();
        }
    }
}

/// Serializes one event as a single flat JSON object (no trailing newline).
///
/// The schema is documented in DESIGN.md §9; [`event_from_json`] is the
/// exact inverse. This is [`write_event_json`] into a fresh `String`;
/// callers serializing many events should append into a reused buffer
/// instead (as [`JsonlSink`] does).
pub fn event_to_json(event: &EngineEvent) -> String {
    let mut out = String::new();
    write_event_json(&mut out, event);
    out
}

/// Appends a raw fixed-point vector in its wire form: the bare scalar when
/// dimensions 1.. are zero (so every D = 1 line stays byte-identical to the
/// pre-vector codec) and `[r0,r1(,r2)]` trimmed of trailing zero
/// dimensions otherwise.
///
/// Public so external serializers of engine state (the serve daemon's
/// snapshot format) encode sizes and loads with the same convention.
pub fn write_raws_json(out: &mut String, raws: [u64; MAX_DIMS]) {
    use std::fmt::Write as _;
    // Writing to a String is infallible; the results are discarded.
    if raws[1..] == [0; MAX_DIMS - 1] {
        let _ = write!(out, "{}", raws[0]);
        return;
    }
    let used = MAX_DIMS - raws.iter().rev().take_while(|&&r| r == 0).count();
    let _ = write!(out, "[{}", raws[0]);
    for &r in &raws[1..used.max(2)] {
        let _ = write!(out, ",{r}");
    }
    out.push(']');
}

/// Appends one event's flat JSON object (no trailing newline) to `out` —
/// the allocation-free form of [`event_to_json`].
pub fn write_event_json(out: &mut String, event: &EngineEvent) {
    use std::fmt::Write as _;
    // Writing to a String is infallible; the results are discarded.
    match *event {
        EngineEvent::Arrival {
            item,
            at,
            size,
            departure,
        } => {
            let _ = write!(
                out,
                "{{\"e\":\"arrival\",\"t\":{},\"item\":{},\"size\":",
                at.0, item.0
            );
            write_raws_json(out, size.raws());
            match departure {
                Some(dep) => {
                    let _ = write!(out, ",\"dep\":{}}}", dep.0);
                }
                None => out.push('}'),
            }
        }
        EngineEvent::Placed {
            item,
            at,
            bin,
            opened,
            via,
            load_after,
        } => {
            let _ = write!(
                out,
                "{{\"e\":\"placed\",\"t\":{},\"item\":{},\"bin\":{},\"opened\":{},\"via\":\"{}\",\"load\":",
                at.0,
                item.0,
                bin.0,
                opened,
                match via {
                    PlacementPath::FastPath => "fast",
                    PlacementPath::Scan => "scan",
                },
            );
            write_raws_json(out, load_after.raws());
            out.push('}');
        }
        EngineEvent::BinOpened { bin, at } => {
            let _ = write!(
                out,
                "{{\"e\":\"bin_opened\",\"t\":{},\"bin\":{}}}",
                at.0, bin.0
            );
        }
        EngineEvent::Departure {
            item,
            at,
            bin,
            size,
        } => {
            let _ = write!(
                out,
                "{{\"e\":\"departure\",\"t\":{},\"item\":{},\"bin\":{},\"size\":",
                at.0, item.0, bin.0
            );
            write_raws_json(out, size.raws());
            out.push('}');
        }
        EngineEvent::BinClosed { bin, at, opened_at } => {
            let _ = write!(
                out,
                "{{\"e\":\"bin_closed\",\"t\":{},\"bin\":{},\"opened_at\":{}}}",
                at.0, bin.0, opened_at.0
            );
        }
        EngineEvent::BinFailed { bin, at, opened_at } => {
            let _ = write!(
                out,
                "{{\"e\":\"bin_failed\",\"t\":{},\"bin\":{},\"opened_at\":{}}}",
                at.0, bin.0, opened_at.0
            );
        }
        EngineEvent::ItemDisplaced {
            item,
            at,
            bin,
            size,
        } => {
            let _ = write!(
                out,
                "{{\"e\":\"displaced\",\"t\":{},\"item\":{},\"bin\":{},\"size\":",
                at.0, item.0, bin.0
            );
            write_raws_json(out, size.raws());
            out.push('}');
        }
        EngineEvent::ItemReadmitted {
            item,
            original,
            at,
            size,
            departure,
            attempt,
        } => {
            let _ = write!(
                out,
                "{{\"e\":\"readmitted\",\"t\":{},\"item\":{},\"orig\":{},\"size\":",
                at.0, item.0, original.0
            );
            write_raws_json(out, size.raws());
            let _ = write!(out, ",\"dep\":{},\"attempt\":{}}}", departure.0, attempt);
        }
        EngineEvent::ItemMigrated {
            item,
            at,
            from,
            to,
            size,
            load_after,
        } => {
            let _ = write!(
                out,
                "{{\"e\":\"migrated\",\"t\":{},\"item\":{},\"from\":{},\"to\":{},\"size\":",
                at.0, item.0, from.0, to.0
            );
            write_raws_json(out, size.raws());
            out.push_str(",\"load\":");
            write_raws_json(out, load_after.raws());
            out.push('}');
        }
        EngineEvent::ClockAdvanced { from, to } => {
            let _ = write!(
                out,
                "{{\"e\":\"clock\",\"from\":{},\"to\":{}}}",
                from.0, to.0
            );
        }
    }
}

/// A malformed trace line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    /// 1-based line number within the parsed text (0 for single-line
    /// parses).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl core::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.line == 0 {
            write!(f, "trace parse error: {}", self.message)
        } else {
            write!(f, "trace line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for TraceParseError {}

fn bad(message: impl Into<String>) -> TraceParseError {
    TraceParseError {
        line: 0,
        message: message.into(),
    }
}

/// Splits a flat JSON object into raw `(key, value)` token pairs. Values
/// stay unparsed (`"fast"` keeps its quotes). Only the flat schema emitted
/// by [`event_to_json`] is supported — no nesting, no escapes (values
/// containing `,` or `:` inside strings are out of grammar). Duplicate
/// keys are rejected: this codec is a wire format, and a line whose
/// meaning depends on which copy of a key wins must not parse.
///
/// The result is the line's only allocation on the decode path: a scan
/// over the bytes checks bracket balance first (so a structural error
/// wins over a malformed pair, wherever each sits), then one split fills
/// the pairs. Public so protocol layers (the serve daemon) can peel
/// envelope keys (`tenant`, `op`) off the same pairs they then hand to
/// [`event_from_pairs`], without duplicating this fuzz-hardened splitter.
pub fn json_pairs(s: &str) -> Result<Vec<(&str, &str)>, TraceParseError> {
    let s = s.trim();
    let inner = s
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(|| bad("expected a {...} object"))?;
    let mut depth = 0usize;
    for b in inner.bytes() {
        match b {
            b'[' => depth += 1,
            b']' => depth = depth.checked_sub(1).ok_or_else(|| bad("unbalanced `]`"))?,
            _ => {}
        }
    }
    if depth != 0 {
        return Err(bad("unbalanced `[`"));
    }
    // Split on commas at bracket depth 0 only, so array values
    // (`"size":[1,2]`) stay one token. Deeper nesting is out of grammar.
    let parts = inner.split(move |c| {
        match c {
            '[' => depth += 1,
            ']' => depth -= 1,
            ',' => return depth == 0,
            _ => {}
        }
        false
    });
    let mut pairs: Vec<(&str, &str)> = Vec::with_capacity(8);
    for part in parts {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (k, v) = part
            .split_once(':')
            .ok_or_else(|| bad(format!("expected key:value, got `{part}`")))?;
        let key = k
            .trim()
            .strip_prefix('"')
            .and_then(|k| k.strip_suffix('"'))
            .ok_or_else(|| bad(format!("unquoted key `{}`", k.trim())))?;
        if pairs.iter().any(|&(seen, _)| seen == key) {
            return Err(bad(format!("duplicate key `{key}`")));
        }
        pairs.push((key, v.trim()));
    }
    Ok(pairs)
}

fn field<'a>(pairs: &[(&'a str, &'a str)], key: &str) -> Result<&'a str, TraceParseError> {
    pairs
        .iter()
        .find(|(k, _)| *k == key)
        .map(|&(_, v)| v)
        .ok_or_else(|| bad(format!("missing field `{key}`")))
}

fn num(pairs: &[(&str, &str)], key: &str) -> Result<u64, TraceParseError> {
    let v = field(pairs, key)?;
    v.parse::<u64>()
        .map_err(|_| bad(format!("field `{key}`: `{v}` is not an unsigned integer")))
}

/// A `u64` field that must also fit an id-sized `u32` (item/bin ids,
/// attempt counters). Out-of-range values are typed errors — silently
/// truncating an id would make two distinct wire items collide.
fn num_u32(pairs: &[(&str, &str)], key: &str) -> Result<u32, TraceParseError> {
    let v = num(pairs, key)?;
    u32::try_from(v).map_err(|_| bad(format!("field `{key}`: `{v}` exceeds u32 range")))
}

/// Parses each component of a scalar-or-array wire value (`7` or
/// `[7,3]`) in order, handing it to `each`; the first malformed
/// component is the error.
fn for_each_raw(v: &str, key: &str, mut each: impl FnMut(u64)) -> Result<(), TraceParseError> {
    let (body, array) = match v.strip_prefix('[') {
        Some(body) => {
            let body = body
                .strip_suffix(']')
                .ok_or_else(|| bad(format!("field `{key}`: unterminated array `{v}`")))?;
            (body, true)
        }
        None => (v, false),
    };
    for c in body.split(|ch| array && ch == ',') {
        let c = c.trim();
        each(
            c.parse::<u64>()
                .map_err(|_| bad(format!("field `{key}`: `{c}` is not an unsigned integer")))?,
        );
    }
    Ok(())
}

/// Parses a scalar-or-array wire value (`7` or `[7,3]`) into its raw
/// components. Public for the serve daemon's snapshot codec, which encodes
/// sizes with the same convention (see [`write_raws_json`]).
pub fn parse_raws_json(v: &str, key: &str) -> Result<Vec<u64>, TraceParseError> {
    let mut raws = Vec::new();
    for_each_raw(v, key, |r| raws.push(r))?;
    Ok(raws)
}

/// A vector field's components, without allocating: the first
/// [`MAX_DIMS`] land in the array, and every component is parsed before
/// the arity check (`what` names the vector in its error).
fn raws_field(
    pairs: &[(&str, &str)],
    key: &str,
    what: &str,
) -> Result<([u64; MAX_DIMS], usize), TraceParseError> {
    let v = field(pairs, key)?;
    let mut raws = [0u64; MAX_DIMS];
    let mut n = 0usize;
    for_each_raw(v, key, |r| {
        if let Some(slot) = raws.get_mut(n) {
            *slot = r;
        }
        n += 1;
    })?;
    if n == 0 || n > MAX_DIMS {
        return Err(bad(format!(
            "field `{key}`: `{v}` is not a {what} vector of 1..={MAX_DIMS} components"
        )));
    }
    Ok((raws, n))
}

/// A `size` field: raw fixed-point units bounded by bin capacity, either a
/// bare scalar (dimension 0) or a `[..]` array of up to [`MAX_DIMS`]
/// per-dimension components.
fn size_field(pairs: &[(&str, &str)], key: &str) -> Result<SizeVec, TraceParseError> {
    let (raws, n) = raws_field(pairs, key, "size")?;
    if let Some(&r) = raws[..n].iter().find(|&&r| r > SIZE_SCALE) {
        return Err(bad(format!(
            "field `{key}`: component {r} exceeds bin capacity ({SIZE_SCALE})"
        )));
    }
    Ok(SizeVec::try_from_raws(&raws[..n]).expect("arity and range validated above"))
}

/// A `load` field: like `size` but unbounded per component (loads are
/// engine-reported sums, validated by the auditor rather than the codec —
/// matching the scalar codec's behaviour).
fn load_field(pairs: &[(&str, &str)], key: &str) -> Result<LoadVec, TraceParseError> {
    let (raws, _) = raws_field(pairs, key, "load")?;
    Ok(LoadVec::from_raws(raws))
}

/// Parses one JSON line back into an [`EngineEvent`] (inverse of
/// [`event_to_json`]).
pub fn event_from_json(line: &str) -> Result<EngineEvent, TraceParseError> {
    event_from_pairs(&json_pairs(line)?)
}

/// Decodes an event from a line's [`json_pairs`]. Keys the event kind
/// does not use are ignored, which lets a protocol layer keep its own
/// envelope keys in the same pairs.
pub fn event_from_pairs(pairs: &[(&str, &str)]) -> Result<EngineEvent, TraceParseError> {
    let kind = field(pairs, "e")?;
    match kind {
        "\"arrival\"" => Ok(EngineEvent::Arrival {
            item: ItemId(num_u32(pairs, "item")?),
            at: Time(num(pairs, "t")?),
            size: size_field(pairs, "size")?,
            departure: match pairs.iter().find(|(k, _)| *k == "dep") {
                Some(_) => Some(Time(num(pairs, "dep")?)),
                None => None,
            },
        }),
        "\"placed\"" => Ok(EngineEvent::Placed {
            item: ItemId(num_u32(pairs, "item")?),
            at: Time(num(pairs, "t")?),
            bin: BinId(num_u32(pairs, "bin")?),
            opened: match field(pairs, "opened")? {
                "true" => true,
                "false" => false,
                other => return Err(bad(format!("field `opened`: `{other}` is not a bool"))),
            },
            via: match field(pairs, "via")? {
                "\"fast\"" => PlacementPath::FastPath,
                "\"scan\"" => PlacementPath::Scan,
                other => return Err(bad(format!("field `via`: unknown path `{other}`"))),
            },
            load_after: load_field(pairs, "load")?,
        }),
        "\"bin_opened\"" => Ok(EngineEvent::BinOpened {
            bin: BinId(num_u32(pairs, "bin")?),
            at: Time(num(pairs, "t")?),
        }),
        "\"departure\"" => Ok(EngineEvent::Departure {
            item: ItemId(num_u32(pairs, "item")?),
            at: Time(num(pairs, "t")?),
            bin: BinId(num_u32(pairs, "bin")?),
            size: size_field(pairs, "size")?,
        }),
        "\"bin_closed\"" => Ok(EngineEvent::BinClosed {
            bin: BinId(num_u32(pairs, "bin")?),
            at: Time(num(pairs, "t")?),
            opened_at: Time(num(pairs, "opened_at")?),
        }),
        "\"bin_failed\"" => Ok(EngineEvent::BinFailed {
            bin: BinId(num_u32(pairs, "bin")?),
            at: Time(num(pairs, "t")?),
            opened_at: Time(num(pairs, "opened_at")?),
        }),
        "\"displaced\"" => Ok(EngineEvent::ItemDisplaced {
            item: ItemId(num_u32(pairs, "item")?),
            at: Time(num(pairs, "t")?),
            bin: BinId(num_u32(pairs, "bin")?),
            size: size_field(pairs, "size")?,
        }),
        "\"readmitted\"" => Ok(EngineEvent::ItemReadmitted {
            item: ItemId(num_u32(pairs, "item")?),
            original: ItemId(num_u32(pairs, "orig")?),
            at: Time(num(pairs, "t")?),
            size: size_field(pairs, "size")?,
            departure: Time(num(pairs, "dep")?),
            attempt: num_u32(pairs, "attempt")?,
        }),
        "\"migrated\"" => Ok(EngineEvent::ItemMigrated {
            item: ItemId(num_u32(pairs, "item")?),
            at: Time(num(pairs, "t")?),
            from: BinId(num_u32(pairs, "from")?),
            to: BinId(num_u32(pairs, "to")?),
            size: size_field(pairs, "size")?,
            load_after: load_field(pairs, "load")?,
        }),
        "\"clock\"" => Ok(EngineEvent::ClockAdvanced {
            from: Time(num(pairs, "from")?),
            to: Time(num(pairs, "to")?),
        }),
        other => Err(bad(format!("unknown event kind {other}"))),
    }
}

/// Parses a whole JSONL trace (blank lines ignored); errors carry 1-based
/// line numbers.
pub fn parse_jsonl(text: &str) -> Result<Vec<EngineEvent>, TraceParseError> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let ev = event_from_json(line).map_err(|mut e| {
            e.line = i + 1;
            e
        })?;
        events.push(ev);
    }
    Ok(events)
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// An item was placed.
    Placed {
        /// The item.
        item: ItemId,
        /// Its arrival time (the decision moment).
        at: Time,
        /// Chosen bin.
        bin: BinId,
        /// Whether the placement opened the bin.
        opened: bool,
        /// Item size, for load reconstruction.
        size: SizeVec,
    },
    /// An item departed.
    Departed {
        /// The item.
        item: ItemId,
        /// The bin it left.
        bin: BinId,
        /// Whether the departure closed the bin.
        closed: bool,
    },
}

/// Wraps an algorithm and records its decisions.
#[derive(Debug, Clone)]
pub struct TraceRecorder<A> {
    inner: A,
    events: Vec<TraceEvent>,
}

impl<A: OnlineAlgorithm> TraceRecorder<A> {
    /// Wraps `inner`.
    pub fn new(inner: A) -> TraceRecorder<A> {
        TraceRecorder {
            inner,
            events: Vec::new(),
        }
    }

    /// The recorded events, in order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// The wrapped algorithm.
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// Consumes the recorder, returning the event log.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }

    /// Number of placements that opened a bin.
    pub fn bins_opened(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Placed { opened: true, .. }))
            .count()
    }

    /// Renders a compact textual transcript.
    pub fn transcript(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            match e {
                TraceEvent::Placed {
                    item,
                    at,
                    bin,
                    opened,
                    ..
                } => {
                    out.push_str(&format!(
                        "{at}: {item} -> {bin}{}\n",
                        if *opened { " (new)" } else { "" }
                    ));
                }
                TraceEvent::Departed { item, bin, closed } => {
                    out.push_str(&format!(
                        "      {item} leaves {bin}{}\n",
                        if *closed { " (closed)" } else { "" }
                    ));
                }
            }
        }
        out
    }
}

impl<A: OnlineAlgorithm> OnlineAlgorithm for TraceRecorder<A> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_arrival(&mut self, view: &SimView<'_>, item: &Item) -> Placement {
        let placement = self.inner.on_arrival(view, item);
        let (bin, opened) = match placement {
            Placement::Existing(b) => (b, false),
            Placement::OpenNew | Placement::OpenIn(_) => (view.next_bin_id(), true),
        };
        self.events.push(TraceEvent::Placed {
            item: item.id,
            at: item.arrival,
            bin,
            opened,
            size: item.size,
        });
        placement
    }

    fn on_departure(&mut self, item: &Item, bin: BinId, bin_closed: bool) {
        self.events.push(TraceEvent::Departed {
            item: item.id,
            bin,
            closed: bin_closed,
        });
        self.inner.on_departure(item, bin, bin_closed);
    }

    fn on_compact(&mut self, retained: &[ItemId], old_len: usize) {
        // Recorded events keep the ids that were current when they fired
        // (the log is a transcript, not a live index); only the wrapped
        // algorithm needs the remap.
        self.inner.on_compact(retained, old_len);
    }

    fn propose_migration(
        &mut self,
        view: &crate::recourse::RecourseView<'_>,
        epoch: crate::recourse::RecourseEpoch,
        moves_left: u32,
    ) -> Option<crate::recourse::Migration> {
        self.inner.propose_migration(view, epoch, moves_left)
    }

    fn reset(&mut self) {
        self.events.clear();
        self.inner.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine;
    use crate::instance::Instance;
    use crate::size::{Load, Size};
    use crate::time::Dur;

    struct Ff;
    impl OnlineAlgorithm for Ff {
        fn name(&self) -> &str {
            "ff"
        }
        fn on_arrival(&mut self, view: &SimView<'_>, item: &Item) -> Placement {
            match view.first_fit(item.size) {
                Some(b) => Placement::Existing(b),
                None => Placement::OpenNew,
            }
        }
        fn reset(&mut self) {}
    }

    fn sz(n: u64, d: u64) -> Size {
        Size::from_ratio(n, d)
    }

    #[test]
    fn records_placements_and_departures_in_order() {
        let inst = Instance::from_triples([
            (Time(0), Dur(4), sz(1, 2)),
            (Time(1), Dur(1), sz(1, 2)),
            (Time(3), Dur(2), sz(1, 1)),
        ])
        .unwrap();
        let mut rec = TraceRecorder::new(Ff);
        let res = engine::run(&inst, &mut rec).unwrap();
        assert_eq!(rec.bins_opened(), res.bins_opened);
        let events = rec.events();
        assert_eq!(events.len(), 6, "3 placements + 3 departures");
        assert!(matches!(
            events[0],
            TraceEvent::Placed {
                opened: true,
                bin: BinId(0),
                at: Time(0),
                ..
            }
        ));
        assert!(matches!(
            events[1],
            TraceEvent::Placed {
                opened: false,
                bin: BinId(0),
                ..
            }
        ));
        // The full-size item at t=3 needs a new bin (bin 0 still holds r0).
        assert!(matches!(
            events[3],
            TraceEvent::Placed {
                opened: true,
                bin: BinId(1),
                ..
            }
        ));
    }

    #[test]
    fn transcript_is_readable() {
        let inst = Instance::from_triples([(Time(2), Dur(3), sz(1, 2))]).unwrap();
        let mut rec = TraceRecorder::new(Ff);
        let _ = engine::run(&inst, &mut rec).unwrap();
        let t = rec.transcript();
        assert!(t.contains("t2: r0 -> b0 (new)"));
        assert!(t.contains("r0 leaves b0 (closed)"));
    }

    #[test]
    fn engine_events_roundtrip_through_json() {
        let events = [
            EngineEvent::Arrival {
                item: ItemId(3),
                at: Time(7),
                size: sz(1, 2).into(),
                departure: Some(Time(12)),
            },
            EngineEvent::Arrival {
                item: ItemId(4),
                at: Time(7),
                size: sz(1, 3).into(),
                departure: None,
            },
            EngineEvent::Placed {
                item: ItemId(3),
                at: Time(7),
                bin: BinId(1),
                opened: true,
                via: PlacementPath::FastPath,
                load_after: Load::from_raw(sz(1, 2).raw()).into(),
            },
            EngineEvent::BinOpened {
                bin: BinId(1),
                at: Time(7),
            },
            EngineEvent::Departure {
                item: ItemId(3),
                at: Time(12),
                bin: BinId(1),
                size: sz(1, 2).into(),
            },
            EngineEvent::BinClosed {
                bin: BinId(1),
                at: Time(12),
                opened_at: Time(7),
            },
            EngineEvent::ClockAdvanced {
                from: Time(7),
                to: Time(12),
            },
            EngineEvent::ItemDisplaced {
                item: ItemId(5),
                at: Time(13),
                bin: BinId(2),
                size: sz(1, 4).into(),
            },
            EngineEvent::BinFailed {
                bin: BinId(2),
                at: Time(13),
                opened_at: Time(9),
            },
            EngineEvent::ItemReadmitted {
                item: ItemId(6),
                original: ItemId(5),
                at: Time(15),
                size: sz(1, 4).into(),
                departure: Time(30),
                attempt: 2,
            },
            EngineEvent::ItemMigrated {
                item: ItemId(6),
                at: Time(16),
                from: BinId(3),
                to: BinId(2),
                size: sz(1, 4).into(),
                load_after: Load::from_raw(sz(1, 2).raw()).into(),
            },
        ];
        let text: String = events.iter().map(|e| event_to_json(e) + "\n").collect();
        let parsed = parse_jsonl(&text).unwrap();
        assert_eq!(parsed, events);
    }

    #[test]
    fn jsonl_parse_errors_carry_line_numbers() {
        let text = "{\"e\":\"clock\",\"from\":0,\"to\":1}\nnot json\n";
        let err = parse_jsonl(text).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("line 2"));
        let err = event_from_json("{\"e\":\"clock\",\"from\":0}").unwrap_err();
        assert!(err.message.contains("missing field `to`"));
        let err = event_from_json("{\"e\":\"warp\"}").unwrap_err();
        assert!(err.message.contains("unknown event kind"));
    }

    #[test]
    fn jsonl_sink_streams_events() {
        let mut sink = JsonlSink::new(Vec::new());
        let store = BinStore::new();
        sink.on_event(
            &EngineEvent::ClockAdvanced {
                from: Time(0),
                to: Time(4),
            },
            &store,
        );
        assert_eq!(sink.written(), 1);
        let bytes = sink.finish().unwrap();
        let parsed = parse_jsonl(std::str::from_utf8(&bytes).unwrap()).unwrap();
        assert_eq!(
            parsed,
            [EngineEvent::ClockAdvanced {
                from: Time(0),
                to: Time(4),
            }]
        );
    }

    #[test]
    fn reset_clears_the_log() {
        let inst = Instance::from_triples([(Time(0), Dur(1), sz(1, 2))]).unwrap();
        let mut rec = TraceRecorder::new(Ff);
        let _ = engine::run(&inst, &mut rec).unwrap();
        assert!(!rec.events().is_empty());
        rec.reset();
        assert!(rec.events().is_empty());
    }
}
