//! Certified-bracket service: content-addressed OPT cache plus an anytime
//! refinement ladder.
//!
//! Experiments used to call free functions that recomputed a fresh bracket
//! for every (algorithm × instance) cell and fell off a hard size cliff
//! ([`FFD_TIGHTEN_LIMIT`]) above which adversary-scale instances got only
//! the analytic Lemma 3.1 sandwich. The [`BracketService`] replaces both
//! behaviours:
//!
//! * **Content-addressed cache** — brackets are keyed by
//!   [`dbp_core::InstanceDigest`] (order-independent over the item triples)
//!   and the goal (`OPT_R` / `OPT_NR`). An in-memory layer serves repeat
//!   lookups within a process; an optional JSONL spill re-serves them
//!   across processes. Every hit is bit-identical to the stored bracket.
//! * **Anytime refinement ladder** — analytic Lemma 3.1 → FFD-repack
//!   tightening → non-repacking portfolio → budgeted exact search, each
//!   rung intersected into the previous bracket (so the ladder is
//!   monotone) and driven by a [`RefineBudget`] instead of hard cutoffs.
//!   Which rung certified the final bracket is recorded for reports.
//!
//! **Concurrency.** The cache is lock-striped across [`SHARD_COUNT`]
//! shards keyed by digest bits, so parallel sweep workers asking for
//! *different* instances never contend on one mutex. Workers asking for
//! the *same* key are collapsed by **single-flight** compute: the first
//! requester installs an in-flight slot and runs the ladder once; later
//! requesters block on that slot and are served the leader's entry as a
//! warm-memory hit. For a fixed workload, `computed` therefore equals the
//! number of distinct `(digest, goal)` keys regardless of thread count or
//! interleaving — the counters are deterministic by construction, not by
//! racing luck. Spill appends go through a dedicated writer lock (never
//! any shard lock), so a slow disk cannot stall readers.
//!
//! The legacy free functions ([`opt_r`], [`opt_nr`], [`ratio_vs_opt_r`])
//! remain as thin wrappers over a process-global service so existing
//! callers keep working; CLIs configure the global with
//! `--bracket-effort` / `--bracket-cache`.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::fs;
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use dbp_algos::offline::{self, RefineBudget};
use dbp_core::bounds::{BracketRung, BracketSource, CertifiedBracket, OptBracket};
use dbp_core::cost::Area;
use dbp_core::instance::Instance;

use crate::sweep::parallel_map;

/// Up to this item count the FFD-repack rung runs to completion under
/// [`Effort::Cached`] (above it, the same rung runs under the node
/// budget — tightening a prefix instead of being skipped entirely).
pub const FFD_TIGHTEN_LIMIT: usize = 20_000;
/// Above this item count, skip the non-repacking portfolio rung.
pub const PORTFOLIO_LIMIT: usize = 50_000;
/// Up to this item count the exact non-repacking branch-and-bound rung is
/// attempted for `OPT_NR` (exponential in `|σ|`). The CP-propagated
/// search (incumbent seeding + interval lower bound + symmetry breaking)
/// certifies instances the naive enumeration this limit originally
/// guarded (12 items) could never finish.
pub const EXACT_NR_LIMIT: usize = 40;
/// Node cap for one exact-OPT_NR attempt: a worst-case 40-item instance
/// spends at most this much of the ladder budget before conceding, so the
/// exponential rung cannot starve everything after it.
pub const EXACT_NR_NODE_CAP: u64 = 4_000_000;
/// Deterministic node allowance for [`Effort::Cached`] refinement: enough
/// to collapse every experiment-scale instance with small concurrency and
/// to tighten a meaningful prefix of adversary-scale ones.
pub const CACHED_NODE_BUDGET: u64 = 40_000_000;
/// Lock stripes in the memory cache (a power of two; entries are dealt by
/// the low bits of the instance digest).
pub const SHARD_COUNT: usize = 16;

/// How hard the service works on a cache miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// Closed-form Lemma 3.1 bounds only; never consults the cache.
    Analytic,
    /// The default: deterministic ladder under [`CACHED_NODE_BUDGET`],
    /// with cache lookups and stores.
    Cached,
    /// Ladder under a wall-clock deadline (milliseconds) — latency is
    /// controlled, determinism is explicitly traded away.
    Budget(u64),
}

impl Effort {
    /// Parses `analytic`, `cached` or `budget=<ms>`.
    pub fn parse(s: &str) -> Option<Effort> {
        match s {
            "analytic" => Some(Effort::Analytic),
            "cached" => Some(Effort::Cached),
            _ => s
                .strip_prefix("budget=")
                .and_then(|ms| ms.parse::<u64>().ok())
                .map(Effort::Budget),
        }
    }
}

impl core::fmt::Display for Effort {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Effort::Analytic => f.write_str("analytic"),
            Effort::Cached => f.write_str("cached"),
            Effort::Budget(ms) => write!(f, "budget={ms}"),
        }
    }
}

/// Which optimum a bracket certifies (part of the cache key).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Goal {
    /// The repacking optimum `OPT_R`.
    OptR,
    /// The non-repacking optimum `OPT_NR`.
    OptNr,
}

impl Goal {
    fn as_str(self) -> &'static str {
        match self {
            Goal::OptR => "opt_r",
            Goal::OptNr => "opt_nr",
        }
    }

    fn parse(s: &str) -> Option<Goal> {
        match s {
            "opt_r" => Some(Goal::OptR),
            "opt_nr" => Some(Goal::OptNr),
            _ => None,
        }
    }
}

/// Monotone hit/miss counters, readable at any time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Brackets computed cold (one per distinct cold key — single-flight
    /// collapses concurrent requests).
    pub computed: u64,
    /// Refinement ladders actually executed. Always equal to `computed`:
    /// the single-flight slot guarantees no duplicate ladder ever runs
    /// (the pre-shard cache could compute twice and discard one).
    pub ladder_runs: u64,
    /// Lookups served by the in-memory layer (including single-flight
    /// waiters served the leader's entry).
    pub mem_hits: u64,
    /// Lookups served by entries loaded from the JSONL spill.
    pub disk_hits: u64,
}

impl StatsSnapshot {
    /// Total warm lookups.
    pub fn warm(&self) -> u64 {
        self.mem_hits + self.disk_hits
    }

    /// Total lookups: `computed + mem_hits + disk_hits`. For a fixed
    /// workload this is invariant across thread counts, and `computed`
    /// alone equals the number of distinct cold keys.
    pub fn lookups(&self) -> u64 {
        self.computed + self.mem_hits + self.disk_hits
    }

    /// Counter deltas since an earlier snapshot.
    pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            computed: self.computed - earlier.computed,
            ladder_runs: self.ladder_runs - earlier.ladder_runs,
            mem_hits: self.mem_hits - earlier.mem_hits,
            disk_hits: self.disk_hits - earlier.disk_hits,
        }
    }
}

type Key = (u128, Goal);

#[derive(Debug, Clone, Copy)]
struct CacheEntry {
    bracket: OptBracket,
    rung: BracketRung,
    from_disk: bool,
}

/// A per-key in-flight compute slot: the single-flight leader publishes
/// its entry here; waiters block on the condvar instead of burning a
/// duplicate ladder.
#[derive(Debug)]
struct Flight {
    state: Mutex<FlightState>,
    done: Condvar,
}

#[derive(Debug, Clone, Copy)]
enum FlightState {
    Pending,
    Done(CacheEntry),
    /// The leader unwound without publishing (its ladder panicked);
    /// waiters retry the lookup and one of them becomes the new leader.
    Abandoned,
}

impl Flight {
    fn new() -> Arc<Flight> {
        Arc::new(Flight {
            state: Mutex::new(FlightState::Pending),
            done: Condvar::new(),
        })
    }

    fn complete(&self, entry: CacheEntry) {
        *recover(self.state.lock()) = FlightState::Done(entry);
        self.done.notify_all();
    }

    fn abandon(&self) {
        let mut state = recover(self.state.lock());
        if matches!(*state, FlightState::Pending) {
            *state = FlightState::Abandoned;
        }
        drop(state);
        self.done.notify_all();
    }

    fn wait(&self) -> Option<CacheEntry> {
        let mut state = recover(self.state.lock());
        loop {
            match *state {
                FlightState::Pending => state = recover(self.done.wait(state)),
                FlightState::Done(entry) => return Some(entry),
                FlightState::Abandoned => return None,
            }
        }
    }
}

/// Unwraps a lock result, recovering the guard from poisoning: every
/// cache mutation here is a single whole-value write, so a panicking
/// holder cannot leave a half-updated state behind.
fn recover<G>(r: Result<G, std::sync::PoisonError<G>>) -> G {
    r.unwrap_or_else(|p| p.into_inner())
}

#[derive(Debug)]
enum Slot {
    Ready(CacheEntry),
    InFlight(Arc<Flight>),
}

/// The JSONL spill: its writer lock is dedicated — disk appends never
/// hold (or wait on) any shard lock, so readers proceed during a slow
/// write. The `BufWriter` is flushed after every whole-line append so
/// concurrent processes warm-loading the file only ever see complete
/// lines.
#[derive(Debug)]
struct Spill {
    dir: PathBuf,
    writer: Mutex<Option<BufWriter<fs::File>>>,
}

impl Spill {
    fn append(&self, line: &str) {
        let mut guard = recover(self.writer.lock());
        if guard.is_none() {
            if fs::create_dir_all(&self.dir).is_err() {
                return; // spill is best-effort; the memory layer still works
            }
            match fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(self.dir.join("brackets.jsonl"))
            {
                Ok(f) => *guard = Some(BufWriter::new(f)),
                Err(_) => return,
            }
        }
        let w = guard.as_mut().expect("opened above");
        if w.write_all(line.as_bytes())
            .and_then(|()| w.flush())
            .is_err()
        {
            *guard = None; // drop a broken writer; retry opening next time
        }
    }
}

/// Removes a leader's in-flight slot if its ladder unwinds before
/// publishing, and flips the flight to `Abandoned` so waiters retry.
struct FlightGuard<'a> {
    svc: &'a BracketService,
    key: Key,
    flight: &'a Arc<Flight>,
    armed: bool,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let mut map = recover(self.svc.shard(self.key).lock());
        if matches!(map.get(&self.key), Some(Slot::InFlight(f)) if Arc::ptr_eq(f, self.flight)) {
            map.remove(&self.key);
        }
        drop(map);
        self.flight.abandon();
    }
}

/// The certified-bracket service. See the module docs.
#[derive(Debug)]
pub struct BracketService {
    effort: Effort,
    shards: [Mutex<HashMap<Key, Slot>>; SHARD_COUNT],
    spill: Option<Spill>,
    computed: AtomicU64,
    ladder_runs: AtomicU64,
    mem_hits: AtomicU64,
    disk_hits: AtomicU64,
}

impl BracketService {
    /// A service with an in-memory cache only.
    pub fn new(effort: Effort) -> BracketService {
        // One hasher state for every shard: shards are picked by digest
        // bits, not by the maps' hashes, and seeding one state instead of
        // sixteen keeps construction cheap.
        let hasher = RandomState::new();
        BracketService {
            effort,
            shards: std::array::from_fn(|_| Mutex::new(HashMap::with_hasher(hasher.clone()))),
            spill: None,
            computed: AtomicU64::new(0),
            ladder_runs: AtomicU64::new(0),
            mem_hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
        }
    }

    /// A service whose cache additionally spills to (and warm-loads from)
    /// `dir/brackets.jsonl`. A missing or partially corrupt spill is not
    /// an error — unreadable lines are skipped.
    pub fn with_spill(effort: Effort, dir: impl Into<PathBuf>) -> BracketService {
        let dir = dir.into();
        let mut svc = BracketService::new(effort);
        let file = dir.join("brackets.jsonl");
        if let Ok(text) = fs::read_to_string(&file) {
            for line in text.lines() {
                if let Some((key, entry)) = parse_spill_line(line) {
                    let mut map = recover(svc.shard(key).lock());
                    match map.get_mut(&key) {
                        Some(Slot::Ready(e)) => {
                            // Later lines re-certify the same instance;
                            // keep the tightest of both.
                            e.bracket = e.bracket.intersect(entry.bracket);
                            e.rung = e.rung.max(entry.rung);
                        }
                        Some(Slot::InFlight(_)) => unreachable!("no computes during warm load"),
                        None => {
                            map.insert(key, Slot::Ready(entry));
                        }
                    }
                }
            }
        }
        svc.spill = Some(Spill {
            dir,
            writer: Mutex::new(None),
        });
        svc
    }

    /// The effort this service was configured with.
    pub fn effort(&self) -> Effort {
        self.effort
    }

    /// Current hit/miss counters.
    pub fn stats(&self) -> StatsSnapshot {
        StatsSnapshot {
            computed: self.computed.load(Ordering::Relaxed),
            ladder_runs: self.ladder_runs.load(Ordering::Relaxed),
            mem_hits: self.mem_hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
        }
    }

    /// Certified bracket on the repacking optimum.
    pub fn opt_r(&self, instance: &Instance) -> CertifiedBracket {
        self.certified(instance, Goal::OptR)
    }

    /// Certified bracket on the non-repacking optimum.
    pub fn opt_nr(&self, instance: &Instance) -> CertifiedBracket {
        self.certified(instance, Goal::OptNr)
    }

    /// The certified ratio interval `(at_least, at_most)` for an online
    /// cost against `OPT_R`.
    pub fn ratio_vs_opt_r(&self, instance: &Instance, cost: Area) -> (f64, f64) {
        self.opt_r(instance).ratio_bracket(cost)
    }

    fn shard(&self, key: Key) -> &Mutex<HashMap<Key, Slot>> {
        &self.shards[(key.0 as usize) & (SHARD_COUNT - 1)]
    }

    /// Counts and wraps a warm hit on a stored entry.
    fn warm_hit(&self, entry: CacheEntry) -> CertifiedBracket {
        let source = if entry.from_disk {
            self.disk_hits.fetch_add(1, Ordering::Relaxed);
            BracketSource::WarmDisk
        } else {
            self.mem_hits.fetch_add(1, Ordering::Relaxed);
            BracketSource::WarmMemory
        };
        CertifiedBracket {
            bracket: entry.bracket,
            rung: entry.rung,
            source,
        }
    }

    /// Looks up or computes the bracket for `(instance, goal)`.
    pub fn certified(&self, instance: &Instance, goal: Goal) -> CertifiedBracket {
        if self.effort == Effort::Analytic {
            self.computed.fetch_add(1, Ordering::Relaxed);
            self.ladder_runs.fetch_add(1, Ordering::Relaxed);
            return CertifiedBracket {
                bracket: OptBracket::of(instance),
                rung: BracketRung::Analytic,
                source: BracketSource::Computed,
            };
        }
        let key = (instance.digest().0, goal);
        loop {
            enum Claim {
                Hit(CertifiedBracket),
                Wait(Arc<Flight>),
                Lead(Arc<Flight>),
            }
            let claim = {
                let mut map = recover(self.shard(key).lock());
                match map.get(&key) {
                    Some(Slot::Ready(entry)) => Claim::Hit(self.warm_hit(*entry)),
                    Some(Slot::InFlight(flight)) => Claim::Wait(flight.clone()),
                    None => {
                        let flight = Flight::new();
                        map.insert(key, Slot::InFlight(flight.clone()));
                        Claim::Lead(flight)
                    }
                }
            };
            match claim {
                Claim::Hit(cb) => return cb,
                Claim::Wait(flight) => match flight.wait() {
                    // Single-flight: the waiter is served the leader's
                    // fresh entry as a warm-memory hit — the counter
                    // semantics the racy pre-shard cache only promised
                    // ("loser wins") are now structural.
                    Some(entry) => return self.warm_hit(entry),
                    None => continue, // leader unwound; retry (maybe lead)
                },
                Claim::Lead(flight) => {
                    let mut guard = FlightGuard {
                        svc: self,
                        key,
                        flight: &flight,
                        armed: true,
                    };
                    self.ladder_runs.fetch_add(1, Ordering::Relaxed);
                    let (bracket, rung) = compute_ladder(instance, goal, self.effort);
                    let entry = CacheEntry {
                        bracket,
                        rung,
                        from_disk: false,
                    };
                    *recover(self.shard(key).lock())
                        .get_mut(&key)
                        .expect("in-flight slot present") = Slot::Ready(entry);
                    flight.complete(entry);
                    guard.armed = false;
                    self.computed.fetch_add(1, Ordering::Relaxed);
                    self.append_spill(key, bracket, rung);
                    return CertifiedBracket {
                        bracket,
                        rung,
                        source: BracketSource::Computed,
                    };
                }
            }
        }
    }

    fn append_spill(&self, key: Key, bracket: OptBracket, rung: BracketRung) {
        if let Some(spill) = &self.spill {
            spill.append(&spill_line(key, bracket, rung));
        }
    }

    /// Test support: holds the spill writer lock for `hold`, simulating a
    /// slow disk. Lookups must keep being served meanwhile — the whole
    /// point of the dedicated spill lock.
    #[doc(hidden)]
    pub fn block_spill_for(&self, hold: Duration) {
        if let Some(spill) = &self.spill {
            let _guard = recover(spill.writer.lock());
            std::thread::sleep(hold);
        }
    }

    /// Spends `total_nodes` of extra exact-search refinement across a
    /// sweep's instances, loosest brackets first, in parallel. Returns how
    /// many brackets were strictly tightened. Cached entries are updated
    /// (and re-spilled) in place, so subsequent [`BracketService::opt_r`]
    /// calls see the refined brackets.
    pub fn refine_batch(&self, instances: &[&Instance], total_nodes: u64) -> usize {
        // Current looseness per instance (computing on demand warms the
        // cache, so the batch always starts from the ladder's result).
        // Non-finite looseness — a degenerate zero-lower bracket divides
        // by zero — is dropped the same way `Summary::of` drops
        // non-finite observations, instead of panicking the sort.
        let mut order: Vec<(usize, f64)> = instances
            .iter()
            .enumerate()
            .map(|(i, inst)| (i, self.opt_r(inst).looseness()))
            .filter(|&(_, l)| l.is_finite())
            .collect();
        order.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("looseness is finite after the filter")
                .then(a.0.cmp(&b.0))
        });
        let loose: Vec<usize> = order
            .into_iter()
            .filter(|&(_, l)| l > 1.0 + 1e-9)
            .map(|(i, _)| i)
            .collect();
        if loose.is_empty() {
            return 0;
        }
        // Loosest-first allocation: equal shares, but when the pool is too
        // small for everyone only the loosest prefix gets a share.
        const MIN_SHARE: u64 = 1 << 20;
        let share = (total_nodes / loose.len() as u64).max(MIN_SHARE);
        let funded: Vec<usize> = loose
            .iter()
            .take((total_nodes / share).max(1) as usize)
            .copied()
            .collect();
        let refined: Vec<(usize, OptBracket, BracketRung)> = parallel_map(&funded, |&i| {
            let mut budget = RefineBudget::nodes(share);
            let (swept, stats) = offline::refine_opt_r(instances[i], true, &mut budget);
            let rung = if stats.exact_segments > 0 {
                BracketRung::Exact
            } else {
                BracketRung::FfdRepack
            };
            (i, swept, rung)
        });
        let mut tightened = 0usize;
        for (i, swept, rung) in refined {
            let key = (instances[i].digest().0, Goal::OptR);
            // Intersect under the key's shard lock only; the spill append
            // afterwards holds no shard lock at all.
            let update = {
                let mut map = recover(self.shard(key).lock());
                match map.get_mut(&key) {
                    Some(Slot::Ready(entry)) => {
                        let next = entry.bracket.intersect(swept);
                        if next != entry.bracket {
                            entry.bracket = next;
                            entry.rung = entry.rung.max(rung);
                            Some((entry.bracket, entry.rung))
                        } else {
                            None
                        }
                    }
                    _ => unreachable!("warmed above and never evicted"),
                }
            };
            if let Some((bracket, rung)) = update {
                tightened += 1;
                self.append_spill(key, bracket, rung);
            }
        }
        tightened
    }
}

/// Runs the refinement ladder cold. Returns the final bracket and the
/// deepest rung that strictly tightened it.
fn compute_ladder(instance: &Instance, goal: Goal, effort: Effort) -> (OptBracket, BracketRung) {
    let mut bracket = OptBracket::of(instance);
    let mut rung = BracketRung::Analytic;
    let mut budget = match effort {
        Effort::Analytic => return (bracket, rung),
        Effort::Cached => RefineBudget::nodes(CACHED_NODE_BUDGET),
        Effort::Budget(ms) => RefineBudget::unlimited().with_deadline(Duration::from_millis(ms)),
    };
    match goal {
        Goal::OptR => {
            // Small peak concurrency: OPT_R decomposes per-moment and the
            // branch-and-bound collapses the bracket outright (the legacy
            // fast path — kept unbudgeted so small instances stay exact).
            if instance.max_concurrency() <= offline::EXACT_OPT_R_CONCURRENCY {
                if let Some(x) = offline::exact_opt_r(instance, offline::EXACT_OPT_R_CONCURRENCY) {
                    return (OptBracket { lower: x, upper: x }, BracketRung::Exact);
                }
            }
            // Rung 2: FFD-repack sweep. Under Cached effort instances at
            // or below the legacy limit still get the full sweep (no
            // regression vs the old cliff); larger ones get a budgeted
            // prefix instead of nothing.
            let full_ffd = effort == Effort::Cached && instance.len() <= FFD_TIGHTEN_LIMIT;
            let (swept, _) = if full_ffd {
                offline::refine_opt_r(instance, false, &mut RefineBudget::unlimited())
            } else {
                offline::refine_opt_r(instance, false, &mut budget)
            };
            let next = bracket.intersect(swept);
            if next != bracket {
                rung = BracketRung::FfdRepack;
                bracket = next;
            }
            // Rung 3: any feasible non-repacking schedule also upper-
            // bounds OPT_R (it just never exercises the repacks).
            if !budget.exhausted() && instance.len() <= PORTFOLIO_LIMIT {
                if let Some(p) = offline::best_nonrepacking_budgeted(instance, &mut budget) {
                    let next = bracket.tighten_upper(p.cost);
                    if next != bracket {
                        rung = BracketRung::Portfolio;
                        bracket = next;
                    }
                }
            }
            // Rung 4: budgeted exact search per profile segment.
            if !budget.exhausted() {
                let (swept, stats) = offline::refine_opt_r(instance, true, &mut budget);
                let next = bracket.intersect(swept);
                if next != bracket {
                    bracket = next;
                    if stats.exact_segments > 0 {
                        rung = BracketRung::Exact;
                    } else {
                        rung = rung.max(BracketRung::FfdRepack);
                    }
                }
            }
        }
        Goal::OptNr => {
            // Rung 3 (FFD-repack certifies nothing for OPT_NR): the
            // non-repacking portfolio. Cached keeps the legacy unbudgeted
            // run below the limit.
            if instance.len() <= PORTFOLIO_LIMIT {
                let cost = if effort == Effort::Cached {
                    Some(offline::best_nonrepacking(instance).cost)
                } else {
                    offline::best_nonrepacking_budgeted(instance, &mut budget).map(|p| p.cost)
                };
                if let Some(cost) = cost {
                    let next = bracket.tighten_upper(cost);
                    if next != bracket {
                        rung = BracketRung::Portfolio;
                        bracket = next;
                    }
                }
            }
            // Rung 4: exact OPT_NR on small instances collapses both
            // sides. Runs under a capped child budget whose spend is
            // billed back, so one adversarial instance cannot drain the
            // whole allowance.
            if instance.len() <= EXACT_NR_LIMIT && !budget.exhausted() {
                let mut sub = budget.child(EXACT_NR_NODE_CAP);
                let exact = offline::exact_opt_nr_budgeted(instance, EXACT_NR_LIMIT, &mut sub);
                budget.absorb(&sub);
                if let Some(exact) = exact {
                    let point = OptBracket {
                        lower: exact.cost,
                        upper: exact.cost,
                    };
                    let next = bracket.intersect(point);
                    if next != bracket {
                        rung = BracketRung::Exact;
                        bracket = next;
                    }
                }
            }
        }
    }
    (bracket, rung)
}

fn spill_line(key: Key, bracket: OptBracket, rung: BracketRung) -> String {
    format!(
        "{{\"digest\":\"{:032x}\",\"goal\":\"{}\",\"lower\":\"{}\",\"upper\":\"{}\",\"rung\":\"{}\"}}\n",
        key.0,
        key.1.as_str(),
        bracket.lower.raw(),
        bracket.upper.raw(),
        rung.as_str()
    )
}

/// Extracts `"key":"value"` from our own single-line JSON (values are hex
/// digests, decimal integers or rung names — never escaped strings).
fn json_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\":\"");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    let end = rest.find('"')?;
    Some(&rest[..end])
}

fn parse_spill_line(line: &str) -> Option<(Key, CacheEntry)> {
    let digest = u128::from_str_radix(json_field(line, "digest")?, 16).ok()?;
    let goal = Goal::parse(json_field(line, "goal")?)?;
    let lower = Area::from_raw(json_field(line, "lower")?.parse().ok()?);
    let upper = Area::from_raw(json_field(line, "upper")?.parse().ok()?);
    let rung = BracketRung::parse(json_field(line, "rung")?)?;
    if lower > upper {
        return None; // corrupt: refuse rather than certify nonsense
    }
    Some((
        (digest, goal),
        CacheEntry {
            bracket: OptBracket { lower, upper },
            rung,
            from_disk: true,
        },
    ))
}

// ---------------------------------------------------------------------------
// Process-global service + legacy free-function API.

static GLOBAL: Mutex<Option<Arc<BracketService>>> = Mutex::new(None);

fn global_slot() -> MutexGuard<'static, Option<Arc<BracketService>>> {
    recover(GLOBAL.lock())
}

/// The process-global service (created at [`Effort::Cached`], memory-only,
/// on first use). CLIs replace it via [`configure`].
pub fn service() -> Arc<BracketService> {
    global_slot()
        .get_or_insert_with(|| Arc::new(BracketService::new(Effort::Cached)))
        .clone()
}

/// Replaces the process-global service (e.g. from CLI flags). Returns the
/// new service.
pub fn configure(effort: Effort, spill: Option<&Path>) -> Arc<BracketService> {
    let svc = Arc::new(match spill {
        Some(dir) => BracketService::with_spill(effort, dir),
        None => BracketService::new(effort),
    });
    *global_slot() = Some(svc.clone());
    svc
}

/// Bracket on the repacking optimum via the global service.
pub fn opt_r(instance: &Instance) -> OptBracket {
    service().opt_r(instance).bracket
}

/// Bracket on the repacking optimum, with provenance.
pub fn opt_r_certified(instance: &Instance) -> CertifiedBracket {
    service().opt_r(instance)
}

/// Bracket on the non-repacking optimum via the global service.
pub fn opt_nr(instance: &Instance) -> OptBracket {
    service().opt_nr(instance).bracket
}

/// Bracket on the non-repacking optimum, with provenance.
pub fn opt_nr_certified(instance: &Instance) -> CertifiedBracket {
    service().opt_nr(instance)
}

/// The certified ratio interval `(at_least, at_most)` for an online cost
/// against `OPT_R`, via the global service.
pub fn ratio_vs_opt_r(instance: &Instance, cost: Area) -> (f64, f64) {
    service().ratio_vs_opt_r(instance, cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbp_core::size::Size;
    use dbp_core::time::{Dur, Time};

    fn small() -> Instance {
        Instance::from_triples([
            (Time(0), Dur(8), Size::from_ratio(1, 2)),
            (Time(0), Dur(8), Size::from_ratio(1, 2)),
            (Time(0), Dur(8), Size::from_ratio(1, 2)),
        ])
        .unwrap()
    }

    #[test]
    fn tightened_bracket_is_tighter() {
        let inst = small();
        let plain = OptBracket::of(&inst);
        let tight = opt_r(&inst);
        assert!(tight.upper <= plain.upper);
        assert!(tight.lower == plain.lower);
        assert!(tight.looseness() <= plain.looseness());
    }

    #[test]
    fn ratio_interval_ordered() {
        let inst = Instance::from_triples([(Time(0), Dur(4), Size::from_ratio(1, 2))]).unwrap();
        let cost = Area::from_bin_ticks(Dur(4));
        let (lo, hi) = ratio_vs_opt_r(&inst, cost);
        assert!(lo <= hi);
        assert!((lo - 1.0).abs() < 1e-9, "single item is served optimally");
    }

    #[test]
    fn second_lookup_is_a_warm_memory_hit() {
        let svc = BracketService::new(Effort::Cached);
        let inst = small();
        let cold = svc.opt_r(&inst);
        assert_eq!(cold.source, BracketSource::Computed);
        let warm = svc.opt_r(&inst);
        assert_eq!(warm.source, BracketSource::WarmMemory);
        assert_eq!(warm.bracket, cold.bracket);
        assert_eq!(warm.rung, cold.rung);
        let s = svc.stats();
        assert_eq!((s.computed, s.mem_hits, s.disk_hits), (1, 1, 0));
        assert_eq!(s.ladder_runs, s.computed);
        assert_eq!(s.lookups(), 2);
    }

    #[test]
    fn goals_are_cached_separately() {
        let svc = BracketService::new(Effort::Cached);
        let inst = small();
        let r = svc.opt_r(&inst);
        let nr = svc.opt_nr(&inst);
        assert_eq!(r.source, BracketSource::Computed);
        assert_eq!(nr.source, BracketSource::Computed);
        // OPT_R ≤ OPT_NR: the NR upper can never undercut the R lower.
        assert!(r.bracket.lower <= nr.bracket.upper);
    }

    #[test]
    fn analytic_effort_skips_cache_and_ladder() {
        let svc = BracketService::new(Effort::Analytic);
        let inst = small();
        let a = svc.opt_r(&inst);
        let b = svc.opt_r(&inst);
        assert_eq!(a.rung, BracketRung::Analytic);
        assert_eq!(a.source, BracketSource::Computed);
        assert_eq!(b.source, BracketSource::Computed, "no cache at analytic");
        assert_eq!(a.bracket, OptBracket::of(&inst));
    }

    #[test]
    fn cached_never_looser_than_analytic() {
        let svc = BracketService::new(Effort::Cached);
        for seed in 0..4u64 {
            let inst =
                dbp_workloads::random_general(&dbp_workloads::GeneralConfig::new(6, 150), seed);
            let analytic = OptBracket::of(&inst);
            let cached = svc.opt_r(&inst);
            assert!(cached.bracket.lower >= analytic.lower);
            assert!(cached.bracket.upper <= analytic.upper);
            assert!(cached.rung >= BracketRung::Analytic);
        }
    }

    #[test]
    fn effort_parses_and_displays() {
        assert_eq!(Effort::parse("analytic"), Some(Effort::Analytic));
        assert_eq!(Effort::parse("cached"), Some(Effort::Cached));
        assert_eq!(Effort::parse("budget=250"), Some(Effort::Budget(250)));
        assert_eq!(Effort::parse("budget=x"), None);
        assert_eq!(Effort::parse("martian"), None);
        assert_eq!(Effort::Budget(250).to_string(), "budget=250");
    }

    #[test]
    fn spill_line_round_trips() {
        let key = (0xdeadbeef_u128, Goal::OptNr);
        let bracket = OptBracket {
            lower: Area::from_raw(12345678901234567890),
            upper: Area::from_raw(340282366920938463463374607431768211455),
        };
        let line = spill_line(key, bracket, BracketRung::Portfolio);
        let (k, e) = parse_spill_line(&line).expect("round trip");
        assert_eq!(k, key);
        assert_eq!(e.bracket, bracket);
        assert_eq!(e.rung, BracketRung::Portfolio);
        assert!(e.from_disk);
        // Corrupt lines are refused, not misparsed.
        assert!(parse_spill_line("{\"digest\":\"zz\"}").is_none());
        assert!(parse_spill_line("").is_none());
    }

    #[test]
    fn refine_batch_tightens_loose_brackets() {
        let inst = dbp_workloads::random_general(&dbp_workloads::GeneralConfig::new(8, 600), 3);
        let svc = BracketService::new(Effort::Cached);
        let before = svc.opt_r(&inst);
        let refs = [&inst];
        let tightened = svc.refine_batch(&refs, 1 << 24);
        let after = svc.opt_r(&inst);
        assert!(after.bracket.lower >= before.bracket.lower);
        assert!(after.bracket.upper <= before.bracket.upper);
        if tightened > 0 {
            assert!(after.looseness() < before.looseness());
            assert_eq!(after.source, BracketSource::WarmMemory);
        }
    }

    /// Regression for the `partial_cmp(..).expect("looseness is finite")`
    /// sort key: a degenerate zero-lower bracket (planted through the
    /// spill, as a corrupted-but-wellformed cache could) has infinite
    /// looseness; the batch must drop it like `Summary::of` drops
    /// non-finite observations — neither panicking the sort nor funding a
    /// corrupt entry as "loosest".
    #[test]
    fn refine_batch_skips_non_finite_looseness() {
        let dir = std::env::temp_dir().join(format!("dbp_nan_loose_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let inst = small();
        let degenerate = OptBracket {
            lower: Area::from_raw(0),
            upper: Area::from_raw(1 << 20),
        };
        let line = spill_line(
            (inst.digest().0, Goal::OptR),
            degenerate,
            BracketRung::Exact,
        );
        std::fs::write(dir.join("brackets.jsonl"), line).unwrap();

        let svc = BracketService::with_spill(Effort::Cached, &dir);
        let warmed = svc.opt_r(&inst);
        assert!(
            warmed.bracket.looseness().is_infinite(),
            "fixture must reproduce the non-finite looseness"
        );
        let tightened = svc.refine_batch(&[&inst], 1 << 22);
        assert_eq!(tightened, 0, "non-finite entries are skipped, not funded");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Entries land on the shard selected by the digest's low bits, and
    /// distinct digests spread across stripes.
    #[test]
    fn shards_spread_by_digest_bits() {
        let svc = BracketService::new(Effort::Cached);
        for seed in 0..6u64 {
            let inst =
                dbp_workloads::random_general(&dbp_workloads::GeneralConfig::new(4, 20), seed);
            svc.opt_r(&inst);
        }
        let occupied = svc
            .shards
            .iter()
            .filter(|s| !recover(s.lock()).is_empty())
            .count();
        assert!(occupied >= 2, "6 digests all hashed to one stripe");
        let total: usize = svc.shards.iter().map(|s| recover(s.lock()).len()).sum();
        assert_eq!(total, 6);
    }
}
