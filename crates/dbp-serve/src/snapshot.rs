//! Session snapshot / restore: a warm-restart format in the same flat
//! JSONL dialect as the wire protocol.
//!
//! A snapshot is a header line (identity, clock, external-id watermark,
//! accumulated cost/metrics/resilience totals), one line per open bin,
//! one line per live item, and a footer. Restore rebuilds a fresh engine
//! by replaying the live items *at the snapshot clock* through a
//! placement script that reproduces the recorded bin assignment exactly,
//! with the session sink muted and pre-loaded with the historical
//! external ids — so the restored session's response stream continues
//! with the ids and counters a client was already tracking.
//!
//! Cost continuity: the engine bills a bin on close as `close − opened`.
//! A restored bin reopens at the snapshot clock `S`, so its eventual
//! bill misses `S − opened`; restore adds exactly that span per open bin
//! to the session's cost offset. The correction telescopes across
//! restart chains (each link pays only the span its own engine instance
//! observed), so the *final* cost after any number of snapshot/restore
//! cycles equals the uninterrupted run's.
//!
//! Pending re-admissions (displaced items waiting out a backoff) are
//! carried as `snap_readmit` lines: restore re-injects each one as a dead
//! parent row plus a queued retry, so the forthcoming `ItemReadmitted`
//! names the item's historical external id and the retry fires exactly
//! when it would have. The recourse ledger (migrations, closures, epochs)
//! travels in the header; the restore replay itself runs with the budget
//! disarmed, so replayed placements never open migration epochs.
//!
//! Chaos continuity: each open bin's pending crash (if any) travels as a
//! `doom` field on its `snap_bin` line and is re-armed — translated to
//! the restored numbering — after the muted replay, whose own fate draws
//! are discarded. The engine's seeded-fate offset is then set to (bins
//! the chain ever opened) − (bins reopened), so bins opened after the
//! restart draw exactly the fates their counterparts in the uninterrupted
//! run would have: a seeded-chaos run resumes bit-identically. Scripted
//! schedules keep only their recorded pending entries, which name
//! *original* bin ids — under renumbering a scripted restore remains a
//! legal trajectory rather than a bit-identical one.
//!
//! Bin ids in snapshots (and in the response stream generally) are the
//! sink's *external* bin ids: reopened bins keep their historical
//! numbers and fresh bins continue the chain's count, so the stream a
//! client sees across any number of restarts is byte-identical to the
//! uninterrupted run's.
//!
//! A classed bin's `snap_bin` line carries its `class`, and restore
//! reopens it in that class; unclassed bins' lines are unchanged. Since
//! every bin's class and latest resident departure are engine state, a
//! restore is exact for every algorithm whose decisions read only the
//! engine. Algorithms with private decision state
//! ([`dbp_algos::private_state`]) are refused with
//! [`RestoreError::Unrestorable`] rather than resumed from a partial
//! state.

use std::collections::{HashMap, VecDeque};
use std::fmt::{self, Write as _};

use dbp_core::trace::{json_pairs, parse_raws_json, write_raws_json};
use dbp_core::{
    Area, BinClass, BinId, InteractiveSim, ItemId, Placement, RecourseReport, ResilienceReport,
    RunMetrics, SizeVec, Time,
};

use crate::session::{ServeAlgo, ServeConfig, Session, SessionSink};

/// Format tag in the header line; bump on schema changes. `dbp2` added
/// the recourse ledger to the header and the `snap_readmit` lines; `dbp3`
/// added vector (multi-dimensional) sizes and per-bin `doom` carriage;
/// `dbp4` added bin classes.
const MAGIC: &str = "dbp4";

/// Why a snapshot was not restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// The snapshot's algorithm keeps decision state outside the engine,
    /// which no snapshot carries, so resuming it would not continue the
    /// uninterrupted run.
    Unrestorable {
        /// Registry name of the algorithm.
        algo: String,
        /// The state the snapshot cannot carry.
        state: &'static str,
    },
    /// The text is not a well-formed snapshot of this format.
    Malformed(String),
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::Unrestorable { algo, state } => write!(
                f,
                "snapshot: algorithm `{algo}` cannot be restored exactly ({state} is not in the snapshot)"
            ),
            RestoreError::Malformed(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for RestoreError {}

impl From<String> for RestoreError {
    fn from(msg: String) -> RestoreError {
        RestoreError::Malformed(msg)
    }
}

impl From<&str> for RestoreError {
    fn from(msg: &str) -> RestoreError {
        RestoreError::Malformed(msg.to_string())
    }
}

/// One `snap_bin` line: an open bin under its external id.
struct SnapBin {
    id: u32,
    opened: Time,
    orig: Time,
    class: Option<BinClass>,
    /// Pending crash, if the failure plan scheduled one.
    doom: Option<Time>,
}

/// Serializes a session. The text round-trips through [`restore`].
pub fn write_snapshot(session: &Session) -> String {
    let engine = &session.engine;
    let m = session.effective_metrics();
    let r = session.effective_resilience();
    let rc = session.effective_recourse();
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{{\"snap\":\"{MAGIC}\",\"tenant\":\"{}\",\"algo\":\"{}\",\"now\":{},\"next_ext\":{},\
         \"cost\":{},\"bins_opened\":{},\"max_open\":{},\"events_in\":{},\"rejected\":{},\
         \"compactions\":{},\"pending_readmits\":{},\"arrivals\":{},\"fast\":{},\"scan\":{},\
         \"tree_queries\":{},\"linear_scans\":{},\"tree_compactions\":{},\"heap_pushes\":{},\
         \"heap_pops\":{},\"events\":{},\"bin_failures\":{},\"displacements\":{},\
         \"readmissions\":{},\"dropped\":{},\"degraded_area\":{},\"max_attempts\":{},\
         \"migrations\":{},\"migration_closures\":{},\"epochs\":{}}}",
        session.tenant,
        session.algo_name,
        engine.now().0,
        engine.sink().next_ext(),
        session.effective_cost().raw(),
        session.effective_bins_opened(),
        session.effective_max_open(),
        session.events_in,
        session.rejected,
        session.compactions,
        engine.pending_readmissions(),
        m.arrivals,
        m.fast_path_placements,
        m.scan_placements,
        m.tree_queries,
        m.linear_scans,
        m.tree_compactions,
        m.heap_pushes,
        m.heap_pops,
        m.events,
        r.bin_failures,
        r.displacements,
        r.readmissions,
        r.dropped,
        r.degraded_area.raw(),
        r.max_attempts,
        rc.migrations,
        rc.migration_closures,
        rc.epochs,
    );
    let dooms: HashMap<u32, Time> = engine
        .pending_dooms()
        .into_iter()
        .map(|(b, t)| (b.0, t))
        .collect();
    // Bins are recorded under their *external* ids (the chain's stable
    // numbering the response stream uses), so snapshots compose across
    // restarts: session 2's snapshot names the same bins session 1's did.
    let mut bins = 0usize;
    for rec in engine.bins().all().iter().filter(|r| r.is_open()) {
        let orig = engine.sink().translate_opened_at(rec.id, rec.opened_at);
        let ext = engine.sink().bin_ext(rec.id);
        let _ = write!(
            s,
            "{{\"snap_bin\":{ext},\"opened_at\":{},\"orig_opened\":{}",
            rec.opened_at.0, orig.0
        );
        if let Some(class) = rec.class {
            let _ = write!(s, ",\"class\":{}", class.0);
        }
        if let Some(doom) = dooms.get(&rec.id.0) {
            let _ = write!(s, ",\"doom\":{}", doom.0);
        }
        s.push_str("}\n");
        bins += 1;
    }
    // Items are grouped by bin, bins in id (= opening) order: restore
    // replays them in file order, so the rebuilt engine opens its bins
    // in the same relative order the original did — scan-order-sensitive
    // algorithms (first-fit over the open list, next-fit's newest bin)
    // resume with an equivalent view.
    let live: HashMap<u32, dbp_core::Item> = engine
        .live_items()
        .map(|(row, item, _)| (row.0, item))
        .collect();
    let mut items = 0usize;
    for rec in engine.bins().all().iter().filter(|r| r.is_open()) {
        for &row in &rec.items {
            let item = live
                .get(&row.0)
                .expect("every resident of an open bin is live");
            let ext = engine.sink().ext_of(row);
            let ext_bin = engine.sink().bin_ext(rec.id);
            let mut size = String::new();
            write_raws_json(&mut size, item.size.raws());
            if item.departure == Time(u64::MAX) {
                let _ = writeln!(
                    s,
                    "{{\"snap_item\":{ext},\"size\":{size},\"bin\":{ext_bin}}}"
                );
            } else {
                let _ = writeln!(
                    s,
                    "{{\"snap_item\":{ext},\"dep\":{},\"size\":{size},\"bin\":{ext_bin}}}",
                    item.departure.0,
                );
            }
            items += 1;
        }
    }
    // Pending re-admissions, in drain order: each line carries exactly
    // what `restore_pending_readmission` needs, keyed by the displaced
    // item's historical external id.
    let readmits = engine.pending_readmit_entries();
    for e in &readmits {
        let ext = engine.sink().ext_of(e.parent);
        let mut size = String::new();
        write_raws_json(&mut size, e.size.raws());
        let _ = writeln!(
            s,
            "{{\"snap_readmit\":{ext},\"arrival\":{},\"displaced_at\":{},\"at\":{},\
             \"attempt\":{},\"departure\":{},\"size\":{size}}}",
            e.arrival.0, e.displaced_at.0, e.at.0, e.attempt, e.departure.0,
        );
    }
    let _ = writeln!(
        s,
        "{{\"snap_end\":true,\"bins\":{bins},\"items\":{items},\"readmits\":{}}}",
        readmits.len()
    );
    s
}

fn get<'a>(pairs: &[(&'a str, &'a str)], key: &str) -> Option<&'a str> {
    pairs.iter().find(|&&(k, _)| k == key).map(|&(_, v)| v)
}

fn num(pairs: &[(&str, &str)], key: &str) -> Result<u64, String> {
    get(pairs, key)
        .ok_or_else(|| format!("snapshot: missing `{key}`"))?
        .parse::<u64>()
        .map_err(|_| format!("snapshot: `{key}` is not a u64"))
}

fn num128(pairs: &[(&str, &str)], key: &str) -> Result<u128, String> {
    get(pairs, key)
        .ok_or_else(|| format!("snapshot: missing `{key}`"))?
        .parse::<u128>()
        .map_err(|_| format!("snapshot: `{key}` is not a u128"))
}

fn size_vec(pairs: &[(&str, &str)], key: &str) -> Result<SizeVec, String> {
    let v = get(pairs, key).ok_or_else(|| format!("snapshot: missing `{key}`"))?;
    let raws = parse_raws_json(v, key).map_err(|e| format!("snapshot: {e}"))?;
    SizeVec::try_from_raws(&raws)
        .ok_or_else(|| format!("snapshot: `{key}` value `{v}` is not a valid size vector"))
}

fn string(pairs: &[(&str, &str)], key: &str) -> Result<String, String> {
    let raw = get(pairs, key).ok_or_else(|| format!("snapshot: missing `{key}`"))?;
    raw.strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .map(str::to_string)
        .ok_or_else(|| format!("snapshot: `{key}` is not a string"))
}

/// Rebuilds a warm session from snapshot text. Session limits (window,
/// slack, failure plan…) come from `cfg`; identity, clock, ids and
/// totals come from the snapshot. A snapshot of an algorithm with private
/// decision state is refused with [`RestoreError::Unrestorable`].
pub fn restore(text: &str, cfg: &ServeConfig) -> Result<Session, RestoreError> {
    let mut header: Option<Vec<(&str, &str)>> = None;
    let mut bin_lines: Vec<SnapBin> = Vec::new();
    let mut item_lines: Vec<(u32, Option<Time>, SizeVec, u32)> = Vec::new(); // (ext, dep, size, old bin)

    // readmit tuple: (ext, arrival, displaced_at, at, attempt, departure, size)
    let mut readmit_lines: Vec<(u32, Time, Time, Time, u32, Time, SizeVec)> = Vec::new();
    let mut sealed = false;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let pairs = json_pairs(line).map_err(|e| format!("snapshot line {}: {e}", lineno + 1))?;
        if get(&pairs, "r").is_some() {
            continue; // response-stream framing interleaved by `op:snapshot`
        }
        if get(&pairs, "snap").is_some() {
            let magic = string(&pairs, "snap")?;
            if magic != MAGIC {
                return Err(format!("snapshot: unsupported format `{magic}`").into());
            }
            let algo = string(&pairs, "algo")?;
            if let Some(state) = dbp_algos::private_state(&algo) {
                return Err(RestoreError::Unrestorable { algo, state });
            }
            header = Some(pairs);
        } else if get(&pairs, "snap_bin").is_some() {
            let optional = |key| match get(&pairs, key) {
                Some(_) => num(&pairs, key).map(Some),
                None => Ok(None),
            };
            bin_lines.push(SnapBin {
                id: u32::try_from(num(&pairs, "snap_bin")?).map_err(|_| "bin id overflow")?,
                opened: Time(num(&pairs, "opened_at")?),
                orig: Time(num(&pairs, "orig_opened")?),
                class: optional("class")?.map(BinClass),
                doom: optional("doom")?.map(Time),
            });
        } else if get(&pairs, "snap_item").is_some() {
            let dep = match get(&pairs, "dep") {
                Some(_) => Some(Time(num(&pairs, "dep")?)),
                None => None,
            };
            item_lines.push((
                u32::try_from(num(&pairs, "snap_item")?).map_err(|_| "item id overflow")?,
                dep,
                size_vec(&pairs, "size")?,
                u32::try_from(num(&pairs, "bin")?).map_err(|_| "bin id overflow")?,
            ));
        } else if get(&pairs, "snap_readmit").is_some() {
            readmit_lines.push((
                u32::try_from(num(&pairs, "snap_readmit")?).map_err(|_| "item id overflow")?,
                Time(num(&pairs, "arrival")?),
                Time(num(&pairs, "displaced_at")?),
                Time(num(&pairs, "at")?),
                u32::try_from(num(&pairs, "attempt")?).map_err(|_| "attempt overflow")?,
                Time(num(&pairs, "departure")?),
                size_vec(&pairs, "size")?,
            ));
        } else if get(&pairs, "snap_end").is_some() {
            if num(&pairs, "bins")? as usize != bin_lines.len()
                || num(&pairs, "items")? as usize != item_lines.len()
                || num(&pairs, "readmits")? as usize != readmit_lines.len()
            {
                return Err("snapshot: footer counts disagree with body".into());
            }
            sealed = true;
        } else {
            return Err(format!("snapshot line {}: unrecognized line", lineno + 1).into());
        }
    }
    let header = header.ok_or("snapshot: no header line")?;
    if !sealed {
        return Err("snapshot: truncated (no footer)".into());
    }
    let tenant = string(&header, "tenant")?;
    let algo_name = string(&header, "algo")?;
    let now = Time(num(&header, "now")?);
    let next_ext = u32::try_from(num(&header, "next_ext")?).map_err(|_| "next_ext overflow")?;

    // Placement script: each old bin's first item opens its successor in
    // the same class; later items join it. Bin ids are assigned by the
    // engine in open order, which is exactly first-appearance order here.
    let bin_of_old: HashMap<u32, &SnapBin> = bin_lines.iter().map(|b| (b.id, b)).collect();
    let mut new_of_old: HashMap<u32, u32> = HashMap::new();
    let mut script = VecDeque::with_capacity(item_lines.len());
    let mut orig_opened = HashMap::new();
    let mut corrections = Area::ZERO;
    let mut exts = VecDeque::with_capacity(item_lines.len());
    for &(ext, dep, _, old_bin) in &item_lines {
        let &&SnapBin {
            opened,
            orig,
            class,
            ..
        } = bin_of_old
            .get(&old_bin)
            .ok_or_else(|| format!("snapshot: item {ext} names unknown bin {old_bin}"))?;
        match new_of_old.get(&old_bin) {
            Some(&new) => script.push_back(Placement::Existing(BinId(new))),
            None => {
                let new = new_of_old.len() as u32;
                new_of_old.insert(old_bin, new);
                script.push_back(class.map_or(Placement::OpenNew, Placement::OpenIn));
                orig_opened.insert(BinId(new), orig);
                // The span this engine instance will not bill: from the
                // previous instance's opening to the snapshot clock.
                corrections += Area::from_bin_ticks(now.since(opened));
            }
        }
        if let Some(dep) = dep {
            if dep <= now {
                return Err(format!("snapshot: item {ext} is not live (dep {})", dep.0).into());
            }
        }
        exts.push_back(ext);
    }
    if new_of_old.len() != bin_lines.len() {
        return Err("snapshot: open bin without resident items".into());
    }

    let inner = dbp_algos::by_name(&algo_name)
        .ok_or_else(|| format!("snapshot: unknown algorithm `{algo_name}`"))?;
    let sink = SessionSink::replaying(exts, next_ext);
    let mut engine = InteractiveSim::with_capacity_failures_and_sink(
        ServeAlgo { script, inner },
        item_lines.len(),
        cfg.plan.clone(),
        cfg.retry,
        sink,
    );
    engine
        .try_advance_to(now)
        .map_err(|e| format!("snapshot: clock: {e}"))?;
    for &(ext, dep, size, _) in &item_lines {
        let res = match dep {
            Some(dep) => engine.arrive_at(now, dep.since(now), size).map(|_| ()),
            None => engine.arrive_undated(size).map(|_| ()),
        };
        res.map_err(|e| format!("snapshot: replaying item {ext}: {e}"))?;
    }
    debug_assert_eq!(
        engine.cost_so_far(),
        Area::ZERO,
        "no bin closes during a replay of live items"
    );
    // The bin-grouped replay above assigned row ids in bin order, but the
    // engine drains same-tick departures in row-id order. External ids
    // ascend with admission across the whole chain, so sorting the rows
    // back into ext order restores the arrival numbering the
    // uninterrupted run used — without it, two items departing on the
    // same tick could leave in the opposite order after a restore.
    let mut order: Vec<ItemId> = (0..item_lines.len() as u32).map(ItemId).collect();
    order.sort_by_key(|&ItemId(row)| item_lines[row as usize].0);
    engine.permute_rows(&order);
    // Re-inject pending re-admissions after the live rows, registering
    // each dead parent row's historical external id with the sink so the
    // forthcoming `ItemReadmitted { original }` still translates.
    for &(ext, arrival, displaced_at, at, attempt, departure, size) in &readmit_lines {
        if !(arrival < displaced_at && displaced_at <= now && now <= at && at < departure) {
            return Err(format!(
                "snapshot: readmit {ext} times are not arrival < displaced ≤ now ≤ retry < departure"
            )
            .into());
        }
        let row =
            engine.restore_pending_readmission(arrival, displaced_at, at, attempt, departure, size);
        engine.sink_mut().register_ext(row, ext);
    }
    // Chaos continuity: the muted replay drew fresh fates for the
    // reopened bins under their new ids — discard those, re-arm the
    // recorded dooms (translated old id → new id), and offset future
    // fate draws past the ids the uninterrupted run has already used.
    engine.clear_crash_schedule();
    for bin in &bin_lines {
        if let Some(at) = bin.doom {
            let new = new_of_old
                .get(&bin.id)
                .copied()
                .expect("every snapshot bin was reopened by the replay");
            engine.schedule_crash(BinId(new), at);
        }
    }
    let total_opened =
        u32::try_from(num(&header, "bins_opened")?).map_err(|_| "bins_opened overflow")?;
    let replayed = u32::try_from(bin_lines.len()).map_err(|_| "open bin count overflow")?;
    let offset = total_opened
        .checked_sub(replayed)
        .ok_or("snapshot: bins_opened below the open bin count")?;
    engine.set_fate_offset(offset);
    // External bin numbering: reopened bins keep their recorded ids and
    // fresh bins continue from the chain's total, so the restored
    // response stream names bins exactly as the uninterrupted run would.
    let mut bin_names = vec![0u32; new_of_old.len()];
    for (&ext, &new) in &new_of_old {
        bin_names[new as usize] = ext;
    }
    let bin_origs = (0..new_of_old.len() as u32)
        .map(|new| orig_opened[&BinId(new)])
        .collect();
    engine
        .sink_mut()
        .set_bin_names(bin_names, bin_origs, total_opened);
    // The replay above ran with the budget disarmed (migration epochs
    // would corrupt the scripted reconstruction); arm it only now.
    engine.set_recourse(cfg.recourse);
    engine.sink_mut().unmute();
    engine.sink_mut().out.clear();

    let restored_cfg = ServeConfig {
        algo: algo_name,
        ..cfg.clone()
    };
    let mut session = Session::from_engine(engine, &tenant, &restored_cfg);
    session.events_in = num(&header, "events_in")?;
    session.rejected = num(&header, "rejected")?;
    session.compactions = num(&header, "compactions")?;
    session.cost_offset = Area::from_raw(num128(&header, "cost")?) + corrections;
    session.bins_opened_offset = num(&header, "bins_opened")?;
    session.bins_opened_base = session.engine.bins_opened() as u64;
    session.max_open_offset = num(&header, "max_open")? as usize;
    session.metrics_offset = RunMetrics {
        arrivals: num(&header, "arrivals")?,
        fast_path_placements: num(&header, "fast")?,
        scan_placements: num(&header, "scan")?,
        tree_queries: num(&header, "tree_queries")?,
        linear_scans: num(&header, "linear_scans")?,
        tree_compactions: num(&header, "tree_compactions")?,
        heap_pushes: num(&header, "heap_pushes")?,
        heap_pops: num(&header, "heap_pops")?,
        events: num(&header, "events")?,
    };
    let mut base = *session.engine.metrics();
    base.tree_compactions = session.engine.bins().compactions();
    session.metrics_base = base;
    session.resilience_offset = ResilienceReport {
        bin_failures: num(&header, "bin_failures")?,
        displacements: num(&header, "displacements")?,
        readmissions: num(&header, "readmissions")?,
        dropped: num(&header, "dropped")?,
        degraded_area: Area::from_raw(num128(&header, "degraded_area")?),
        max_attempts: num(&header, "max_attempts")? as u32,
    };
    session.recourse_offset = RecourseReport {
        migrations: num(&header, "migrations")?,
        migration_closures: num(&header, "migration_closures")?,
        epochs: num(&header, "epochs")?,
    };
    if num(&header, "pending_readmits")? as usize != readmit_lines.len() {
        return Err("snapshot: header pending_readmits disagrees with body".into());
    }
    Ok(session)
}
