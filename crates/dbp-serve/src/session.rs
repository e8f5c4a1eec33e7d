//! One tenant's engine, wrapped for long-running service.
//!
//! A [`Session`] owns an [`InteractiveSim`] and adds the four daemon
//! concerns: **external item ids** that survive compaction (the engine
//! renumbers rows; clients must not see that), **backpressure** (a
//! bounded live-item window with a typed `overloaded` rejection),
//! **bounded memory** (compaction whenever the item table exceeds twice
//! the live count plus slack), and **telemetry** (incremental
//! `RunMetrics` / `ResilienceReport` lines, with offsets so a restored
//! session reports totals continuous with its pre-snapshot life).
//!
//! The response stream a session produces for a recorded input trace is
//! byte-identical to the recording itself (modulo the `"r"`-keyed
//! response lines): external ids are allocated in arrival order exactly
//! like the batch engine's row ids, and the engine regenerates every
//! derived event (placements, bin lifecycle, clock motion) itself.

use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;

use dbp_core::trace::write_event_json;
use dbp_core::{
    Area, BinStore, EngineError, EngineEvent, EventSink, InteractiveSim, Item, ItemId, Migration,
    OnlineAlgorithm, Placement, RecourseBudget, RecourseEpoch, RecourseReport, RecourseView,
    ResilienceReport, RunMetrics, SimConfig, SimView,
};

use crate::protocol::{push_json_str, Op, Request};

/// Daemon-wide session parameters (every tenant gets the same ones).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Algorithm name, resolved through [`dbp_algos::by_name`].
    pub algo: String,
    /// Live-item backpressure window; `0` disables rejection.
    pub max_live: usize,
    /// Compaction slack: compact when `table_len ≥ 2·resident + slack`.
    pub compact_slack: usize,
    /// Emit a telemetry pair every N input events; `0` disables.
    pub metrics_every: u64,
    /// Failure plan, retry policy and recourse budget armed on every
    /// session. A non-`None` budget lets the algorithm's
    /// `propose_migration` hook move resident items at arrival/departure
    /// epochs, streamed out as `ItemMigrated` events.
    pub sim: SimConfig,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            algo: "first-fit".to_string(),
            max_live: 0,
            compact_slack: 1024,
            metrics_every: 0,
            sim: SimConfig::default(),
        }
    }
}

/// The session's algorithm: an optional restore script consumed first
/// (replaying a snapshot's placements verbatim), then the named
/// algorithm. `reset` fires in the engine constructor — before the
/// replay — so it must leave the script intact.
pub(crate) struct ServeAlgo {
    pub(crate) script: VecDeque<Placement>,
    pub(crate) inner: Box<dyn OnlineAlgorithm + Send>,
}

impl OnlineAlgorithm for ServeAlgo {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn on_arrival(&mut self, view: &SimView<'_>, item: &Item) -> Placement {
        match self.script.pop_front() {
            Some(p) => p,
            None => self.inner.on_arrival(view, item),
        }
    }
    fn on_departure(&mut self, item: &Item, bin: dbp_core::BinId, bin_closed: bool) {
        self.inner.on_departure(item, bin, bin_closed);
    }
    fn on_compact(&mut self, retained: &[ItemId], old_len: usize) {
        self.inner.on_compact(retained, old_len);
    }
    fn on_bin_compact(&mut self, old_to_new: &[dbp_core::BinId], new_len: usize) {
        self.inner.on_bin_compact(old_to_new, new_len);
    }
    // A snapshot replay runs with the budget disarmed (`restore` re-arms
    // it after), so forwarding unconditionally never migrates mid-script.
    fn propose_migration(
        &mut self,
        view: &RecourseView<'_>,
        epoch: RecourseEpoch,
        moves_left: u32,
    ) -> Option<Migration> {
        self.inner.propose_migration(view, epoch, moves_left)
    }
    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// The engine sink: translates row ids to stable external ids and
/// renders the translated events as JSONL into an output buffer the
/// driver drains after each request.
pub(crate) struct SessionSink {
    /// `ext_of_row[row]` — the external id of the row currently at
    /// `row`. Pushed in arrival order, remapped on compaction.
    ext_of_row: Vec<u32>,
    /// Reverse index, for input lines that name an item (dating an
    /// undated arrival). Pruned with the table on compaction.
    row_of_ext: HashMap<u32, u32>,
    /// Next external id to mint.
    next_ext: u32,
    /// Pre-assigned external ids consumed during a snapshot replay.
    preassigned: VecDeque<u32>,
    /// Historical external ids of the bins a snapshot replay reopened,
    /// indexed by this engine's bin id. Bins past the prefix mint
    /// sequential ids from `bin_next` — a fresh session's empty prefix
    /// with `bin_next` 0 makes the translation the identity, and a
    /// restored session's response stream keeps the chain's bin
    /// numbering instead of restarting at 0.
    bin_names: Vec<u32>,
    /// Original (pre-restart) open times of the reopened bins, parallel
    /// to `bin_names`: the engine reopened them at the snapshot clock,
    /// but `bin_closed`/`bin_failed` lines must report the opening the
    /// chain's uninterrupted stream announced.
    bin_origs: Vec<dbp_core::Time>,
    /// External id of the next freshly opened bin.
    bin_next: u32,
    /// Suppresses rendering (snapshot replay): ids are still allocated,
    /// bytes are not produced.
    muted: bool,
    /// Rendered response bytes awaiting the driver.
    pub(crate) out: String,
}

impl SessionSink {
    pub(crate) fn new() -> SessionSink {
        SessionSink {
            ext_of_row: Vec::new(),
            row_of_ext: HashMap::new(),
            next_ext: 0,
            preassigned: VecDeque::new(),
            bin_names: Vec::new(),
            bin_origs: Vec::new(),
            bin_next: 0,
            muted: false,
            out: String::new(),
        }
    }

    /// A sink primed for snapshot replay: the next `preassigned.len()`
    /// arrivals take their historical external ids, rendering is muted
    /// until [`SessionSink::unmute`].
    pub(crate) fn replaying(preassigned: VecDeque<u32>, next_ext: u32) -> SessionSink {
        SessionSink {
            preassigned,
            next_ext,
            muted: true,
            ..SessionSink::new()
        }
    }

    pub(crate) fn unmute(&mut self) {
        self.muted = false;
        debug_assert!(self.preassigned.is_empty(), "replay consumed all ids");
    }

    /// The external id of a current row.
    pub(crate) fn ext_of(&self, row: ItemId) -> u32 {
        self.ext_of_row[row.index()]
    }

    /// The next external id this sink would mint (snapshot watermark).
    pub(crate) fn next_ext(&self) -> u32 {
        self.next_ext
    }

    /// The current row of an external id, if it still has one.
    pub(crate) fn row_of_ext(&self, ext: u32) -> Option<ItemId> {
        self.row_of_ext.get(&ext).map(|&r| ItemId(r))
    }

    /// Allocates the external id for a row the engine is about to push
    /// (`Arrival` / `ItemReadmitted` fire exactly then, in row order).
    fn admit(&mut self, row: ItemId) -> ItemId {
        debug_assert_eq!(row.index(), self.ext_of_row.len(), "rows admit in order");
        let ext = self.preassigned.pop_front().unwrap_or_else(|| {
            let e = self.next_ext;
            self.next_ext = self
                .next_ext
                .checked_add(1)
                .expect("external ids exhausted");
            e
        });
        self.ext_of_row.push(ext);
        self.row_of_ext.insert(ext, row.0);
        ItemId(ext)
    }

    /// Registers an external id for a row created *without* an admitting
    /// event — the dead parent rows `restore` re-injects for pending
    /// re-admissions — keeping the row/ext tables aligned so the
    /// forthcoming `ItemReadmitted { original }` still translates.
    pub(crate) fn register_ext(&mut self, row: ItemId, ext: u32) {
        debug_assert_eq!(row.index(), self.ext_of_row.len(), "rows register in order");
        self.ext_of_row.push(ext);
        self.row_of_ext.insert(ext, row.0);
    }

    fn translate(&self, row: ItemId) -> ItemId {
        ItemId(self.ext_of_row[row.index()])
    }

    /// Installs the external bin numbering after a snapshot replay:
    /// `names[new_id]` is the reopened bin's historical id,
    /// `origs[new_id]` its original (pre-restart) open time, and fresh
    /// bins continue from `next` (the chain's total bins opened).
    pub(crate) fn set_bin_names(&mut self, names: Vec<u32>, origs: Vec<dbp_core::Time>, next: u32) {
        debug_assert_eq!(names.len(), origs.len());
        self.bin_names = names;
        self.bin_origs = origs;
        self.bin_next = next;
    }

    /// The external id of an engine bin (identity in fresh sessions).
    pub(crate) fn bin_ext(&self, bin: dbp_core::BinId) -> u32 {
        match self.bin_names.get(bin.0 as usize) {
            Some(&ext) => ext,
            None => self.bin_next + (bin.0 - self.bin_names.len() as u32),
        }
    }

    fn translate_bin(&self, bin: dbp_core::BinId) -> dbp_core::BinId {
        dbp_core::BinId(self.bin_ext(bin))
    }

    /// The open time a close/fail event (or a snapshot) should report:
    /// the original one for a bin a snapshot replay reopened (or a bin
    /// compaction pinned), the engine's otherwise.
    pub(crate) fn translate_opened_at(
        &self,
        bin: dbp_core::BinId,
        opened_at: dbp_core::Time,
    ) -> dbp_core::Time {
        self.bin_origs
            .get(bin.0 as usize)
            .copied()
            .unwrap_or(opened_at)
    }
}

impl EventSink for SessionSink {
    fn on_event(&mut self, event: &EngineEvent, _bins: &BinStore) {
        let ev = match *event {
            EngineEvent::Arrival {
                item,
                at,
                size,
                departure,
            } => EngineEvent::Arrival {
                item: self.admit(item),
                at,
                size,
                departure,
            },
            EngineEvent::ItemReadmitted {
                item,
                original,
                at,
                size,
                departure,
                attempt,
            } => {
                let original = self.translate(original);
                EngineEvent::ItemReadmitted {
                    item: self.admit(item),
                    original,
                    at,
                    size,
                    departure,
                    attempt,
                }
            }
            EngineEvent::Placed {
                item,
                at,
                bin,
                opened,
                via,
                load_after,
            } => EngineEvent::Placed {
                item: self.translate(item),
                at,
                bin: self.translate_bin(bin),
                opened,
                via,
                load_after,
            },
            EngineEvent::Departure {
                item,
                at,
                bin,
                size,
            } => EngineEvent::Departure {
                item: self.translate(item),
                at,
                bin: self.translate_bin(bin),
                size,
            },
            EngineEvent::ItemDisplaced {
                item,
                at,
                bin,
                size,
            } => EngineEvent::ItemDisplaced {
                item: self.translate(item),
                at,
                bin: self.translate_bin(bin),
                size,
            },
            EngineEvent::ItemMigrated {
                item,
                at,
                from,
                to,
                size,
                load_after,
            } => EngineEvent::ItemMigrated {
                item: self.translate(item),
                at,
                from: self.translate_bin(from),
                to: self.translate_bin(to),
                size,
                load_after,
            },
            EngineEvent::BinOpened { bin, at } => EngineEvent::BinOpened {
                bin: self.translate_bin(bin),
                at,
            },
            EngineEvent::BinClosed { bin, at, opened_at } => EngineEvent::BinClosed {
                bin: self.translate_bin(bin),
                at,
                opened_at: self.translate_opened_at(bin, opened_at),
            },
            EngineEvent::BinFailed { bin, at, opened_at } => EngineEvent::BinFailed {
                bin: self.translate_bin(bin),
                at,
                opened_at: self.translate_opened_at(bin, opened_at),
            },
            other => other,
        };
        if self.muted {
            return;
        }
        write_event_json(&mut self.out, &ev);
        self.out.push('\n');
    }

    fn on_compact(&mut self, retained: &[ItemId], _old_len: usize) {
        let old = std::mem::take(&mut self.ext_of_row);
        self.ext_of_row = retained.iter().map(|&ItemId(o)| old[o as usize]).collect();
        self.row_of_ext = self
            .ext_of_row
            .iter()
            .enumerate()
            .map(|(row, &ext)| (ext, row as u32))
            .collect();
    }

    fn on_bin_compact(&mut self, old_to_new: &[dbp_core::BinId], bins: &BinStore) {
        // Materialize the external numbering before the internal ids
        // shift: every surviving bin pins its external name and original
        // open time into the dense prefix (for fresh bins those are the
        // identity name and the engine's own open time, so the rendered
        // stream is unchanged), and `bin_next` advances over all old ids
        // so bins opened after the compaction keep minting the chain's
        // sequential names.
        let minted = self.bin_next + (old_to_new.len() as u32 - self.bin_names.len() as u32);
        let new_len = bins.all().len();
        let mut names = vec![0u32; new_len];
        let mut origs = vec![dbp_core::Time::ZERO; new_len];
        for (old, &new) in old_to_new.iter().enumerate() {
            if new == dbp_core::BinId(u32::MAX) {
                continue;
            }
            names[new.index()] = self.bin_ext(dbp_core::BinId(old as u32));
            origs[new.index()] = match self.bin_origs.get(old) {
                Some(&t) => t,
                None => {
                    bins.record(new)
                        .expect("surviving bin has a record")
                        .opened_at
                }
            };
        }
        self.bin_names = names;
        self.bin_origs = origs;
        self.bin_next = minted;
    }
}

/// One tenant's live engine plus the daemon bookkeeping around it.
pub struct Session {
    pub(crate) engine: InteractiveSim<ServeAlgo, SessionSink>,
    pub(crate) tenant: String,
    pub(crate) algo_name: String,
    max_live: usize,
    compact_slack: usize,
    metrics_every: u64,
    pub(crate) events_in: u64,
    pub(crate) rejected: u64,
    pub(crate) compactions: u64,
    /// The armed recourse budget (telemetry names it; `None` mutes the
    /// `recourse` response line entirely).
    pub(crate) recourse_budget: RecourseBudget,
    /// Totals carried over from a snapshot (zero for fresh sessions)…
    pub(crate) cost_offset: Area,
    pub(crate) metrics_offset: RunMetrics,
    pub(crate) resilience_offset: ResilienceReport,
    pub(crate) recourse_offset: RecourseReport,
    pub(crate) bins_opened_offset: u64,
    pub(crate) max_open_offset: usize,
    /// …and the engine counters at the end of the snapshot replay, so
    /// the replay's own arrivals/placements cancel out of the report.
    pub(crate) metrics_base: RunMetrics,
    pub(crate) bins_opened_base: u64,
}

impl Session {
    /// A fresh session for `tenant`. Fails only on an unknown algorithm.
    pub fn new(tenant: &str, cfg: &ServeConfig) -> Result<Session, String> {
        let inner = dbp_algos::by_name(&cfg.algo)
            .ok_or_else(|| format!("unknown algorithm `{}`", cfg.algo))?;
        let algo = ServeAlgo {
            script: VecDeque::new(),
            inner,
        };
        let engine = InteractiveSim::new(algo, 0, cfg.sim.clone(), SessionSink::new());
        Ok(Session::from_engine(engine, tenant, cfg))
    }

    pub(crate) fn from_engine(
        engine: InteractiveSim<ServeAlgo, SessionSink>,
        tenant: &str,
        cfg: &ServeConfig,
    ) -> Session {
        Session {
            engine,
            tenant: tenant.to_string(),
            algo_name: cfg.algo.clone(),
            max_live: cfg.max_live,
            compact_slack: cfg.compact_slack,
            metrics_every: cfg.metrics_every,
            events_in: 0,
            rejected: 0,
            compactions: 0,
            recourse_budget: cfg.sim.recourse,
            cost_offset: Area::ZERO,
            metrics_offset: RunMetrics::default(),
            resilience_offset: ResilienceReport::default(),
            recourse_offset: RecourseReport::default(),
            bins_opened_offset: 0,
            max_open_offset: 0,
            metrics_base: RunMetrics::default(),
            bins_opened_base: 0,
        }
    }

    /// Takes everything the session has rendered since the last call.
    pub fn take_output(&mut self) -> String {
        std::mem::take(&mut self.engine.sink_mut().out)
    }

    /// Takes everything the session has rendered since the last call,
    /// like [`Session::take_output`], by swapping it with `buf`. `buf` is
    /// cleared first and becomes the session's next output buffer, so a
    /// caller that hands back the buffer it was given last time reuses
    /// one allocation instead of growing a new one per request.
    pub fn swap_output(&mut self, buf: &mut String) {
        buf.clear();
        std::mem::swap(&mut self.engine.sink_mut().out, buf);
    }

    /// The tenant this session serves.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// Rows currently in the item table (the compaction-bounded figure).
    pub fn table_len(&self) -> usize {
        self.engine.table_len()
    }

    /// Bin records currently held (the bin-compaction-bounded figure:
    /// closed records are reclaimed alongside item compaction, so this
    /// tracks the open-bin count instead of the bins ever opened).
    pub fn bin_records(&self) -> usize {
        self.engine.bins().all().len()
    }

    /// Bins currently open.
    pub fn open_bins(&self) -> usize {
        self.engine.open_count()
    }

    /// Items currently resident in bins.
    pub fn live_items(&self) -> usize {
        self.engine.resident_items()
    }

    /// Displaced items still waiting out a re-admission backoff (carried
    /// across snapshot/restore since format `dbp2`).
    pub fn pending_readmissions(&self) -> usize {
        self.engine.pending_readmissions()
    }

    fn push_response(&mut self, s: &str) {
        self.engine.sink_mut().out.push_str(s);
    }

    fn error(&mut self, msg: &str) {
        let out = &mut self.engine.sink_mut().out;
        out.push_str("{\"r\":\"error\",\"tenant\":\"");
        out.push_str(&self.tenant);
        out.push_str("\",\"msg\":\"");
        push_json_str(out, msg);
        out.push_str("\"}\n");
    }

    /// Handles one parsed request, appending every response to the
    /// session's output buffer (drain with [`Session::take_output`]).
    pub fn handle(&mut self, req: &Request) {
        match req {
            Request::Control { op, .. } => match op {
                Op::Metrics => self.emit_telemetry(),
                Op::Compact => {
                    let before = self.engine.table_len();
                    let kept = self.engine.compact().len();
                    if kept < before {
                        self.compactions += 1;
                    }
                    self.engine.compact_bins();
                    let line = format!(
                        "{{\"r\":\"compacted\",\"tenant\":\"{}\",\"dropped\":{},\"table\":{kept}}}\n",
                        self.tenant,
                        before - kept
                    );
                    self.push_response(&line);
                }
                Op::Snapshot => self.emit_snapshot(),
                Op::Drain => self.drain(),
            },
            Request::Event { event, .. } => {
                self.handle_event(event);
                self.events_in += 1;
                self.maybe_compact();
                if self.metrics_every > 0 && self.events_in % self.metrics_every == 0 {
                    self.emit_telemetry();
                }
            }
        }
    }

    /// The three input event kinds that drive the engine; everything
    /// else on the wire is an engine *output* and is ignored, which is
    /// what makes a recorded trace replayable verbatim.
    fn handle_event(&mut self, event: &EngineEvent) {
        match *event {
            EngineEvent::ClockAdvanced { to, .. } => {
                if let Err(e) = self.engine.try_advance_to(to) {
                    self.error(&format!("clock: {e}"));
                }
            }
            EngineEvent::Arrival {
                at,
                size,
                departure,
                ..
            } => {
                let live = self.engine.resident_items();
                if self.max_live > 0 && live >= self.max_live {
                    self.rejected += 1;
                    let line = format!(
                        "{{\"r\":\"overloaded\",\"tenant\":\"{}\",\"t\":{},\"live\":{live},\"max\":{}}}\n",
                        self.tenant, at.0, self.max_live
                    );
                    self.push_response(&line);
                    return;
                }
                let placed = match departure {
                    Some(dep) => match dep.checked_since(at) {
                        Some(d) if d.0 > 0 => self.engine.arrive_at(at, d, size).map(|_| ()),
                        _ => {
                            self.error(&format!(
                                "arrival at {}: departure {} not after arrival",
                                at.0, dep.0
                            ));
                            return;
                        }
                    },
                    None => self
                        .engine
                        .try_advance_to(at)
                        .and_then(|_| self.engine.arrive_undated(size).map(|_| ())),
                };
                if let Err(e) = placed {
                    self.error(&format!("arrival: {e}"));
                }
            }
            // A departure line for an item the daemon placed *undated*
            // dates it now (the non-clairvoyant interface). Departure
            // lines echoed from a recording name already-dated items and
            // fall through the `NotUndated` arm, as does any id whose
            // row has departed and been compacted away.
            EngineEvent::Departure { item, at, .. } => {
                let Some(row) = self.engine.sink_mut().row_of_ext(item.0) else {
                    return;
                };
                match self.engine.try_set_departure(row, at) {
                    Ok(()) | Err(EngineError::NotUndated { .. }) => {}
                    Err(e) => self.error(&format!("departure for item {}: {e}", item.0)),
                }
            }
            _ => {}
        }
    }

    /// Compacts when the table holds more dead rows than live ones
    /// (plus slack) — steady-state memory then tracks the live count.
    /// The bin store compacts under the same policy (closed records vs
    /// open bins), so per-bin memory also tracks the live footprint.
    fn maybe_compact(&mut self) {
        let table = self.engine.table_len();
        if table >= 2 * self.engine.resident_items() + self.compact_slack.max(1) {
            let kept = self.engine.compact().len();
            if kept < table {
                self.compactions += 1;
            }
        }
        let records = self.engine.bins().all().len();
        if records >= 2 * self.engine.bins().open_count() + self.compact_slack.max(1) {
            self.engine.compact_bins();
        }
    }

    /// Counters adjusted for a restored past: snapshot totals plus what
    /// this process added, with the replay's own noise subtracted.
    pub fn effective_metrics(&self) -> RunMetrics {
        let mut cur = *self.engine.metrics();
        cur.tree_compactions = self.engine.bins().compactions();
        let o = &self.metrics_offset;
        let b = &self.metrics_base;
        RunMetrics {
            arrivals: o.arrivals + (cur.arrivals - b.arrivals),
            fast_path_placements: o.fast_path_placements
                + (cur.fast_path_placements - b.fast_path_placements),
            scan_placements: o.scan_placements + (cur.scan_placements - b.scan_placements),
            tree_queries: o.tree_queries + (cur.tree_queries - b.tree_queries),
            linear_scans: o.linear_scans + (cur.linear_scans - b.linear_scans),
            tree_compactions: o.tree_compactions + (cur.tree_compactions - b.tree_compactions),
            heap_pushes: o.heap_pushes + (cur.heap_pushes - b.heap_pushes),
            heap_pops: o.heap_pops + (cur.heap_pops - b.heap_pops),
            events: o.events + (cur.events - b.events),
        }
    }

    /// Usage cost including the restored past and the open-interval
    /// correction for bins that were reopened at the snapshot clock.
    pub fn effective_cost(&self) -> Area {
        self.cost_offset + self.engine.cost_so_far()
    }

    /// Resilience counters including the restored past (additive; the
    /// replay itself injects no failures).
    pub fn effective_resilience(&self) -> ResilienceReport {
        let cur = *self.engine.resilience();
        let o = &self.resilience_offset;
        ResilienceReport {
            bin_failures: o.bin_failures + cur.bin_failures,
            displacements: o.displacements + cur.displacements,
            readmissions: o.readmissions + cur.readmissions,
            dropped: o.dropped + cur.dropped,
            degraded_area: o.degraded_area + cur.degraded_area,
            max_attempts: o.max_attempts.max(cur.max_attempts),
        }
    }

    /// Recourse ledger including the restored past (additive; a snapshot
    /// replay runs with the budget disarmed, so the live engine's counters
    /// cover only post-restore epochs).
    pub fn effective_recourse(&self) -> RecourseReport {
        let cur = *self.engine.recourse();
        let o = &self.recourse_offset;
        RecourseReport {
            migrations: o.migrations + cur.migrations,
            migration_closures: o.migration_closures + cur.migration_closures,
            epochs: o.epochs + cur.epochs,
        }
    }

    /// Bins opened over the session's whole history, restored past
    /// included (replay reopens are not double-counted).
    pub fn effective_bins_opened(&self) -> u64 {
        self.bins_opened_offset + (self.engine.bins_opened() as u64 - self.bins_opened_base)
    }

    /// Peak concurrently-open bins over the whole history.
    pub fn effective_max_open(&self) -> usize {
        self.max_open_offset.max(self.engine.max_open())
    }

    /// Renders the `metrics` + `resilience` response pair.
    pub fn emit_telemetry(&mut self) {
        let m = self.effective_metrics();
        let r = self.effective_resilience();
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{{\"r\":\"metrics\",\"tenant\":\"{}\",\"now\":{},\"events_in\":{},\"rejected\":{},\
             \"compactions\":{},\"table\":{},\"live\":{},\"open\":{},\"bins_opened\":{},\
             \"max_open\":{},\"cost\":{},\"arrivals\":{},\"fast\":{},\"scan\":{},\
             \"tree_queries\":{},\"linear_scans\":{},\"tree_compactions\":{},\
             \"heap_pushes\":{},\"heap_pops\":{},\"events\":{}}}",
            self.tenant,
            self.engine.now().0,
            self.events_in,
            self.rejected,
            self.compactions,
            self.engine.table_len(),
            self.engine.resident_items(),
            self.engine.open_count(),
            self.effective_bins_opened(),
            self.effective_max_open(),
            self.effective_cost().raw(),
            m.arrivals,
            m.fast_path_placements,
            m.scan_placements,
            m.tree_queries,
            m.linear_scans,
            m.tree_compactions,
            m.heap_pushes,
            m.heap_pops,
            m.events,
        );
        let _ = writeln!(
            s,
            "{{\"r\":\"resilience\",\"tenant\":\"{}\",\"bin_failures\":{},\"displacements\":{},\
             \"readmissions\":{},\"dropped\":{},\"degraded_area\":{},\"max_attempts\":{}}}",
            self.tenant,
            r.bin_failures,
            r.displacements,
            r.readmissions,
            r.dropped,
            r.degraded_area.raw(),
            r.max_attempts,
        );
        if !self.recourse_budget.is_none() {
            let rc = self.effective_recourse();
            let _ = writeln!(
                s,
                "{{\"r\":\"recourse\",\"tenant\":\"{}\",\"budget\":\"{}\",\"migrations\":{},\
                 \"closures\":{},\"epochs\":{}}}",
                self.tenant, self.recourse_budget, rc.migrations, rc.migration_closures, rc.epochs,
            );
        }
        self.push_response(&s);
    }

    fn emit_snapshot(&mut self) {
        let begin = format!(
            "{{\"r\":\"snapshot_begin\",\"tenant\":\"{}\"}}\n",
            self.tenant
        );
        let text = crate::snapshot::write_snapshot(self);
        let lines = text.lines().count();
        self.push_response(&begin);
        self.push_response(&text);
        let end = format!(
            "{{\"r\":\"snapshot_end\",\"tenant\":\"{}\",\"lines\":{lines}}}\n",
            self.tenant
        );
        self.push_response(&end);
    }

    /// Fast-forwards through every pending departure (and scheduled
    /// crash / re-admission) and emits the final telemetry — the batch
    /// engine's `finish()`, minus consuming the session. Undated items
    /// never depart, so their bins stay open and unbilled.
    pub fn drain(&mut self) {
        if let Err(e) = self.engine.drain_remaining() {
            self.error(&format!("drain: {e}"));
        }
        let line = format!(
            "{{\"r\":\"drained\",\"tenant\":\"{}\",\"now\":{}}}\n",
            self.tenant,
            self.engine.now().0
        );
        self.push_response(&line);
        self.emit_telemetry();
    }
}
