//! The engine-throughput harness: a pinned, seeded workload driven
//! end-to-end through [`run_with_config`], timed, and serialized to
//! `BENCH_engine.json` so every PR appends a comparable point.
//!
//! Everything here is deterministic in `(workload, config)`: the workload
//! is a pure function of its seed, the engine is single-threaded, and the
//! chaos plan is the engine's seeded per-bin doom stream — so two runs of
//! the same harness differ only in wall-clock time, never in what they
//! compute. The determinism battery in `tests/throughput_determinism.rs`
//! pins exactly that.
//!
//! The measured unit is **items/sec through the full engine**: the
//! `arrive_at` loop plus the departure/crash/re-admission drain plus
//! `finish`, under four configurations:
//!
//! | config        | sink                  | failure plan     |
//! |---------------|-----------------------|------------------|
//! | `auditor_off` | [`NoopSink`]          | none             |
//! | `auditor_on`  | [`InvariantAuditor`]  | none             |
//! | `chaos_on`    | [`NoopSink`]          | seeded bin dooms |
//! | `trace_on`    | JSONL to `io::sink()` | none             |
//!
//! Instance *generation* is excluded from every sample, so the numbers
//! compare engine builds, not RNG throughput.

use std::fmt;
use std::time::{Duration, Instant};

use dbp_core::audit::InvariantAuditor;
use dbp_core::engine::{run_with_config, PackingResult};
use dbp_core::failure::{FailurePlan, RetryPolicy};
use dbp_core::time::Dur;
use dbp_core::trace::{EventSink, JsonlSink, NoopSink, VecSink};
use dbp_core::{Instance, SimConfig};
use dbp_serve::protocol::push_json_str;
use dbp_workloads::{random_general, GeneralConfig};

use crate::sweep::{self, SweepOptions};

/// Schema tag of `BENCH_engine.json`; bump on breaking layout changes.
pub const SCHEMA: &str = "dbp-bench-engine/v1";

/// The pinned workload seed. Never change this: entries recorded by
/// different commits are only comparable while the workload is identical.
pub const WORKLOAD_SEED: u64 = 9;

/// Maximal binary duration class of the pinned workload (durations up to
/// `2^10` ticks — deep enough that bins churn constantly).
pub const WORKLOAD_CLASSES: u32 = 10;

/// Seed of the chaos configuration's per-bin doom stream.
pub const CHAOS_SEED: u64 = 77;

/// Per-bin crash probability of the `chaos_on` configuration. At 20% of
/// opened bins the crash path dominates an unflattened engine, which is
/// exactly what the configuration exists to expose.
pub const CHAOS_RATE: f64 = 0.2;

/// Open-to-crash delay bound of the `chaos_on` configuration, in ticks.
pub const CHAOS_MTBF: u64 = 256;

/// The pinned throughput workload: `items` generated by the fixed
/// `random_general` recipe under [`WORKLOAD_SEED`] (or an explicit seed
/// for determinism experiments).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Number of items.
    pub items: usize,
    /// Generator seed.
    pub seed: u64,
}

impl Workload {
    /// The canonical harness workload at a given scale.
    pub fn pinned(items: usize) -> Workload {
        Workload {
            items,
            seed: WORKLOAD_SEED,
        }
    }

    /// Materializes the instance (excluded from timed samples).
    pub fn instance(&self) -> Instance {
        random_general(&GeneralConfig::new(WORKLOAD_CLASSES, self.items), self.seed)
    }
}

/// One measured engine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Config {
    /// Silent engine: `NoopSink`, no failures — the zero-allocation
    /// steady-state path.
    AuditorOff,
    /// The always-on invariant auditor attached as the sink.
    AuditorOn,
    /// Seeded bin crashes + fixed-backoff re-admissions, silent sink.
    ChaosOn,
    /// JSONL tracing into `io::sink()` — measures event serialization
    /// with batched flushes, without disk noise.
    TraceOn,
}

impl Config {
    /// All configurations, in reporting order.
    pub const ALL: [Config; 4] = [
        Config::AuditorOff,
        Config::AuditorOn,
        Config::ChaosOn,
        Config::TraceOn,
    ];

    /// The JSON/CLI identifier.
    pub fn id(self) -> &'static str {
        match self {
            Config::AuditorOff => "auditor_off",
            Config::AuditorOn => "auditor_on",
            Config::ChaosOn => "chaos_on",
            Config::TraceOn => "trace_on",
        }
    }

    /// Parses a CLI/JSON identifier.
    pub fn parse(s: &str) -> Option<Config> {
        Config::ALL.into_iter().find(|c| c.id() == s)
    }

    /// The failure plan (seeded crashes only under [`Config::ChaosOn`]) and
    /// retry policy this configuration runs under.
    pub fn sim(self) -> SimConfig {
        let failures = match self {
            Config::ChaosOn => FailurePlan::seeded(CHAOS_RATE, CHAOS_SEED, Dur(CHAOS_MTBF)),
            _ => FailurePlan::none(),
        };
        SimConfig::crashing(failures, RetryPolicy::Fixed(Dur(1)))
    }
}

impl fmt::Display for Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// Drives `inst` end-to-end through the engine with `sink` attached and
/// returns the result — the timed body of every sample.
pub fn drive_with_sink<S: EventSink>(inst: &Instance, sim: SimConfig, sink: S) -> PackingResult {
    run_with_config(inst, FirstFit, sim, sink).expect("harness placements are legal")
}

/// [`drive_with_sink`] under a configuration's plan/sink pairing. The
/// auditor configuration also verifies the finished result, so a
/// throughput run doubles as an invariant sweep.
pub fn drive(inst: &Instance, config: Config) -> PackingResult {
    match config {
        Config::AuditorOff | Config::ChaosOn => drive_with_sink(inst, config.sim(), NoopSink),
        Config::AuditorOn => {
            let mut auditor = InvariantAuditor::new();
            let result = drive_with_sink(inst, config.sim(), &mut auditor);
            auditor
                .verify_result(&result)
                .expect("auditor-clean harness run");
            result
        }
        Config::TraceOn => {
            let mut sink = JsonlSink::new(std::io::sink());
            let result = drive_with_sink(inst, config.sim(), &mut sink);
            assert_eq!(sink.written(), result.metrics.events, "every event traced");
            result
        }
    }
}

/// [`drive`] capturing the event stream (for the determinism battery).
pub fn drive_events(inst: &Instance, config: Config) -> (PackingResult, VecSink) {
    let mut sink = VecSink::new();
    let result = drive_with_sink(inst, config.sim(), &mut sink);
    (result, sink)
}

/// One configuration's measurement: sample wall-clocks plus the (identical
/// across samples) run outcome.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Which configuration ran.
    pub config: Config,
    /// Workload size (submitted arrivals).
    pub items: u64,
    /// Items actually played, re-admission clones included.
    pub placed: u64,
    /// Per-sample wall-clock of the full drive.
    pub samples: Vec<Duration>,
    /// `cost` of the run, in bin·ticks (a cheap cross-commit checksum).
    pub cost_bin_ticks: f64,
}

impl Measurement {
    /// Median sample duration.
    pub fn median(&self) -> Duration {
        let mut s = self.samples.clone();
        s.sort_unstable();
        s[s.len() / 2]
    }

    /// Fastest sample duration.
    pub fn best(&self) -> Duration {
        *self.samples.iter().min().expect("at least one sample")
    }

    /// Items/sec at the median sample.
    pub fn median_items_per_sec(&self) -> f64 {
        self.items as f64 / self.median().as_secs_f64()
    }

    /// Items/sec at the fastest sample.
    pub fn best_items_per_sec(&self) -> f64 {
        self.items as f64 / self.best().as_secs_f64()
    }
}

/// Times `samples` full drives of `workload` under `config` (one untimed
/// warm-up, then `samples` timed runs) — the harness's `iter_custom` body.
///
/// # Panics
/// Panics if `samples == 0`.
pub fn measure(workload: Workload, config: Config, samples: usize) -> Measurement {
    assert!(samples > 0, "at least one sample");
    let inst = workload.instance();
    let warm = drive(&inst, config);
    let mut times = Vec::with_capacity(samples);
    for _ in 0..samples {
        let started = Instant::now();
        let result = drive(&inst, config);
        times.push(started.elapsed());
        assert_eq!(
            result.assignment.len(),
            warm.assignment.len(),
            "samples replay identically"
        );
    }
    Measurement {
        config,
        items: inst.len() as u64,
        placed: warm.assignment.len() as u64,
        samples: times,
        cost_bin_ticks: warm.cost.as_bin_ticks(),
    }
}

/// Runs `replicas` independent copies of the same drive through the sweep
/// runner and checks they are bit-identical (metrics, cost, assignment and
/// event stream) — the `--threads` determinism probe. Returns the shared
/// result.
///
/// # Panics
/// Panics if any replica diverges.
pub fn replicated_drive(workload: Workload, config: Config, replicas: usize) -> PackingResult {
    let inst = workload.instance();
    let idx: Vec<usize> = (0..replicas.max(1)).collect();
    let opts = SweepOptions::seeded(workload.seed);
    let runs = sweep::parallel_map_with(&idx, opts, |_| drive_events(&inst, config));
    let (first, first_events) = &runs[0];
    for (result, events) in &runs[1..] {
        assert_eq!(result.metrics, first.metrics, "replica metrics diverged");
        assert_eq!(result.cost, first.cost, "replica cost diverged");
        assert_eq!(
            result.assignment, first.assignment,
            "replica assignment diverged"
        );
        assert_eq!(
            events.events, first_events.events,
            "replica event stream diverged"
        );
    }
    first.clone()
}

/// First-Fit through the store's tournament tree — the harness's canonical
/// algorithm, local so `dbp-bench`'s harness has no `dbp-algos` coupling.
#[derive(Debug, Default, Clone, Copy)]
pub struct FirstFit;

impl dbp_core::OnlineAlgorithm for FirstFit {
    fn name(&self) -> &str {
        "throughput-first-fit"
    }

    fn on_arrival(
        &mut self,
        view: &dbp_core::SimView<'_>,
        item: &dbp_core::Item,
    ) -> dbp_core::Placement {
        match view.first_fit(item.size) {
            Some(b) => dbp_core::Placement::Existing(b),
            None => dbp_core::Placement::OpenNew,
        }
    }

    fn reset(&mut self) {}
}

// ---------------------------------------------------------------------------
// BENCH_engine.json: serialization, parsing, validation.
// ---------------------------------------------------------------------------

/// One recorded point of the perf trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Which build produced the entry (e.g. `pr6-baseline`, `pr6`).
    pub label: String,
    /// Configuration id (see [`Config::id`]).
    pub config: String,
    /// Workload size (submitted arrivals).
    pub items: u64,
    /// Items actually played (≥ `items`; chaos re-admissions add clones).
    pub placed: u64,
    /// Number of timed samples behind the statistics.
    pub samples: u64,
    /// Items/sec at the median sample.
    pub median_items_per_sec: f64,
    /// Items/sec at the fastest sample.
    pub best_items_per_sec: f64,
    /// Median sample wall-clock, milliseconds.
    pub median_ms: f64,
    /// Run cost in bin·ticks — a workload checksum: entries for one
    /// `(config, items)` pair must agree on it across commits.
    pub cost_bin_ticks: f64,
}

impl BenchEntry {
    /// Converts a measurement into a recordable entry.
    pub fn from_measurement(label: &str, m: &Measurement) -> BenchEntry {
        BenchEntry {
            label: label.to_string(),
            config: m.config.id().to_string(),
            items: m.items,
            placed: m.placed,
            samples: m.samples.len() as u64,
            median_items_per_sec: m.median_items_per_sec(),
            best_items_per_sec: m.best_items_per_sec(),
            median_ms: m.median().as_secs_f64() * 1e3,
            cost_bin_ticks: m.cost_bin_ticks,
        }
    }
}

/// The whole `BENCH_engine.json` document.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BenchFile {
    /// Workload seed shared by every entry.
    pub seed: u64,
    /// Recorded points, oldest first.
    pub entries: Vec<BenchEntry>,
}

impl BenchFile {
    /// A fresh document under the pinned seed.
    pub fn new() -> BenchFile {
        BenchFile {
            seed: WORKLOAD_SEED,
            entries: Vec::new(),
        }
    }

    /// Appends `entry`, replacing any previous entry with the same
    /// `(label, config, items)` key so re-runs update in place.
    pub fn upsert(&mut self, entry: BenchEntry) {
        self.entries.retain(|e| {
            (&e.label, &e.config, e.items) != (&entry.label, &entry.config, entry.items)
        });
        self.entries.push(entry);
    }

    /// Serializes the document (pretty, stable field order, trailing
    /// newline) — the exact bytes committed as `BENCH_engine.json`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
        out.push_str("  \"workload\": {");
        out.push_str(&format!(
            "\"generator\": \"random_general\", \"classes\": {WORKLOAD_CLASSES}, \"seed\": {}, ",
            self.seed
        ));
        out.push_str(&format!(
            "\"chaos_rate\": {CHAOS_RATE}, \"chaos_seed\": {CHAOS_SEED}, \"chaos_mtbf\": {CHAOS_MTBF}, \"retry\": \"fixed=1\""
        ));
        out.push_str("},\n");
        out.push_str("  \"entries\": [");
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"label\": \"");
            push_json_str(&mut out, &e.label);
            out.push_str("\", \"config\": \"");
            push_json_str(&mut out, &e.config);
            out.push_str(&format!(
                "\", \"items\": {}, \"placed\": {}, \
                 \"samples\": {}, \"median_items_per_sec\": {:.0}, \"best_items_per_sec\": {:.0}, \
                 \"median_ms\": {:.2}, \"cost_bin_ticks\": {:.1}}}",
                e.items,
                e.placed,
                e.samples,
                e.median_items_per_sec,
                e.best_items_per_sec,
                e.median_ms,
                e.cost_bin_ticks,
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Parses and validates a rendered document (see [`validate`]).
    pub fn parse(text: &str) -> Result<BenchFile, String> {
        let value = json::parse(text)?;
        let root = value.as_object().ok_or("top level must be an object")?;
        let schema = json::get_str(root, "schema")?;
        if schema != SCHEMA {
            return Err(format!("schema `{schema}` != expected `{SCHEMA}`"));
        }
        let workload = json::get(root, "workload")?
            .as_object()
            .ok_or("`workload` must be an object")?;
        let seed = json::get_u64(workload, "seed")?;
        let generator = json::get_str(workload, "generator")?;
        if generator != "random_general" {
            return Err(format!("unknown generator `{generator}`"));
        }
        let entries_val = json::get(root, "entries")?;
        let raw_entries = entries_val.as_array().ok_or("`entries` must be an array")?;
        let mut entries = Vec::with_capacity(raw_entries.len());
        for (i, v) in raw_entries.iter().enumerate() {
            let obj = v
                .as_object()
                .ok_or_else(|| format!("entry {i} must be an object"))?;
            entries.push(BenchEntry {
                label: json::get_str(obj, "label")?.to_string(),
                config: json::get_str(obj, "config")?.to_string(),
                items: json::get_u64(obj, "items")?,
                placed: json::get_u64(obj, "placed")?,
                samples: json::get_u64(obj, "samples")?,
                median_items_per_sec: json::get_f64(obj, "median_items_per_sec")?,
                best_items_per_sec: json::get_f64(obj, "best_items_per_sec")?,
                median_ms: json::get_f64(obj, "median_ms")?,
                cost_bin_ticks: json::get_f64(obj, "cost_bin_ticks")?,
            });
        }
        let file = BenchFile { seed, entries };
        validate(&file)?;
        Ok(file)
    }
}

/// Structural validation beyond parsing: known configs, positive rates,
/// unique `(label, config, items)` keys, matching checksums. The CI
/// `bench-smoke` job fails a malformed commit here.
pub fn validate(file: &BenchFile) -> Result<(), String> {
    if file.entries.is_empty() {
        return Err("no entries recorded".into());
    }
    let mut keys: Vec<(&str, &str, u64)> = Vec::new();
    for e in &file.entries {
        if Config::parse(&e.config).is_none() {
            return Err(format!("unknown config `{}`", e.config));
        }
        if e.items == 0 || e.placed < e.items {
            return Err(format!(
                "entry `{}`/{}: items {} / placed {} inconsistent",
                e.label, e.config, e.items, e.placed
            ));
        }
        if e.samples == 0 {
            return Err(format!("entry `{}`/{}: zero samples", e.label, e.config));
        }
        for (name, v) in [
            ("median_items_per_sec", e.median_items_per_sec),
            ("best_items_per_sec", e.best_items_per_sec),
            ("median_ms", e.median_ms),
        ] {
            if !v.is_finite() || v <= 0.0 {
                return Err(format!(
                    "entry `{}`/{}: {name} = {v} is not a positive finite number",
                    e.label, e.config
                ));
            }
        }
        if e.best_items_per_sec + 1e-9 < e.median_items_per_sec {
            return Err(format!(
                "entry `{}`/{}: best rate below median rate",
                e.label, e.config
            ));
        }
        keys.push((&e.label, &e.config, e.items));
    }
    keys.sort_unstable();
    for w in keys.windows(2) {
        if w[0] == w[1] {
            return Err(format!(
                "duplicate entry key (label `{}`, config `{}`, items {})",
                w[0].0, w[0].1, w[0].2
            ));
        }
    }
    // Entries measuring the same (config, items) cell must agree on the
    // run's cost — a mismatch means the workload or engine semantics
    // drifted and the points are not comparable.
    let mut cells: Vec<(&str, u64, u64, f64)> = Vec::new();
    for e in &file.entries {
        cells.push((&e.config, e.items, e.placed, e.cost_bin_ticks));
    }
    cells.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite"));
    for w in cells.windows(2) {
        let ((c0, i0, p0, k0), (c1, i1, p1, k1)) = (w[0], w[1]);
        if c0 == c1 && i0 == i1 && (p0 != p1 || (k0 - k1).abs() > 1e-6) {
            return Err(format!(
                "config `{c0}` at {i0} items disagrees across entries \
                 (placed {p0} vs {p1}, cost {k0} vs {k1}): workload drift"
            ));
        }
    }
    Ok(())
}

/// A minimal recursive-descent JSON reader for the bench document (the
/// workspace vendors no serde; `dbp_core::trace` covers only flat
/// objects). Supports objects, arrays, strings with `\" \\ \n \t \uXXXX`
/// escapes (raw control bytes are rejected, as JSON requires), numbers,
/// booleans and null — exactly what [`BenchFile::render`]
/// emits, which is all `BENCH_engine.json` may contain.
pub mod json {
    /// A parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// Any JSON number, widened to f64.
        Num(f64),
        /// A string literal.
        Str(String),
        /// An array.
        Arr(Vec<Value>),
        /// An object, insertion-ordered.
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        /// The object's `(key, value)` pairs, if this is an object.
        pub fn as_object(&self) -> Option<&[(String, Value)]> {
            match self {
                Value::Obj(pairs) => Some(pairs),
                _ => None,
            }
        }

        /// The array's elements, if this is an array.
        pub fn as_array(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(items) => Some(items),
                _ => None,
            }
        }
    }

    /// Looks up a required key in an object.
    pub fn get<'a>(obj: &'a [(String, Value)], key: &str) -> Result<&'a Value, String> {
        obj.iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing field `{key}`"))
    }

    /// A required string field.
    pub fn get_str<'a>(obj: &'a [(String, Value)], key: &str) -> Result<&'a str, String> {
        match get(obj, key)? {
            Value::Str(s) => Ok(s),
            other => Err(format!("field `{key}`: expected string, got {other:?}")),
        }
    }

    /// A required non-negative integer field.
    ///
    /// The upper check is strict: `u64::MAX as f64` rounds *up* to 2^64,
    /// which is one past the largest representable `u64`, so `<=` would
    /// admit 18446744073709551616 and wrap it on the cast.
    pub fn get_u64(obj: &[(String, Value)], key: &str) -> Result<u64, String> {
        match *get(obj, key)? {
            Value::Num(n) if n >= 0.0 && n.fract() == 0.0 && n < u64::MAX as f64 => Ok(n as u64),
            ref other => Err(format!(
                "field `{key}`: expected unsigned integer, got {other:?}"
            )),
        }
    }

    /// A required numeric field.
    pub fn get_f64(obj: &[(String, Value)], key: &str) -> Result<f64, String> {
        match *get(obj, key)? {
            Value::Num(n) => Ok(n),
            ref other => Err(format!("field `{key}`: expected number, got {other:?}")),
        }
    }

    /// Parses one complete JSON document (trailing garbage is an error).
    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
        skip_ws(b, pos);
        if *pos < b.len() && b[*pos] == c {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {pos}", c as char))
        }
    }

    fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            None => Err("unexpected end of input".into()),
            Some(b'{') => {
                *pos += 1;
                let mut pairs = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(Value::Obj(pairs));
                }
                loop {
                    skip_ws(b, pos);
                    let key = match parse_value(b, pos)? {
                        Value::Str(s) => s,
                        _ => return Err(format!("object key at byte {pos} is not a string")),
                    };
                    expect(b, pos, b':')?;
                    let value = parse_value(b, pos)?;
                    pairs.push((key, value));
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            return Ok(Value::Obj(pairs));
                        }
                        _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
                    }
                }
            }
            Some(b'[') => {
                *pos += 1;
                let mut items = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(parse_value(b, pos)?);
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return Err(format!("expected `,` or `]` at byte {pos}")),
                    }
                }
            }
            Some(b'"') => {
                *pos += 1;
                let mut s = String::new();
                loop {
                    match b.get(*pos) {
                        None => return Err("unterminated string".into()),
                        Some(b'"') => {
                            *pos += 1;
                            return Ok(Value::Str(s));
                        }
                        Some(b'\\') => {
                            *pos += 1;
                            match b.get(*pos) {
                                Some(b'"') => s.push('"'),
                                Some(b'\\') => s.push('\\'),
                                Some(b'n') => s.push('\n'),
                                Some(b't') => s.push('\t'),
                                Some(b'u') => {
                                    let c = b
                                        .get(*pos + 1..*pos + 5)
                                        .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                                        .and_then(|h| std::str::from_utf8(h).ok())
                                        .and_then(|h| u32::from_str_radix(h, 16).ok())
                                        .and_then(char::from_u32)
                                        .ok_or_else(|| format!("bad \\u escape at byte {pos}"))?;
                                    s.push(c);
                                    *pos += 4;
                                }
                                other => {
                                    return Err(format!("unsupported escape {other:?}"));
                                }
                            }
                            *pos += 1;
                        }
                        Some(&c) if c < 0x20 => {
                            return Err(format!("raw control byte {c:#04x} at byte {pos}"));
                        }
                        Some(&c) => {
                            // Multi-byte UTF-8 passes through byte-wise:
                            // the input is a &str, so sequences are valid.
                            let start = *pos;
                            let ch_len = utf8_len(c);
                            s.push_str(
                                std::str::from_utf8(&b[start..start + ch_len])
                                    .map_err(|_| "invalid utf-8".to_string())?,
                            );
                            *pos += ch_len;
                        }
                    }
                }
            }
            Some(b't') if b[*pos..].starts_with(b"true") => {
                *pos += 4;
                Ok(Value::Bool(true))
            }
            Some(b'f') if b[*pos..].starts_with(b"false") => {
                *pos += 5;
                Ok(Value::Bool(false))
            }
            Some(b'n') if b[*pos..].starts_with(b"null") => {
                *pos += 4;
                Ok(Value::Null)
            }
            Some(_) => {
                let start = *pos;
                while *pos < b.len()
                    && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                {
                    *pos += 1;
                }
                let text = std::str::from_utf8(&b[start..*pos]).expect("ascii");
                text.parse::<f64>()
                    .map(Value::Num)
                    .map_err(|_| format!("bad number `{text}` at byte {start}"))
            }
        }
    }

    fn utf8_len(first: u8) -> usize {
        match first {
            0x00..=0x7F => 1,
            0xC0..=0xDF => 2,
            0xE0..=0xEF => 3,
            _ => 4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(label: &str, config: Config) -> BenchEntry {
        BenchEntry {
            label: label.into(),
            config: config.id().into(),
            items: 1000,
            placed: 1000,
            samples: 3,
            median_items_per_sec: 2.0e6,
            best_items_per_sec: 2.5e6,
            median_ms: 0.5,
            cost_bin_ticks: 1234.5,
        }
    }

    #[test]
    fn render_parse_round_trip() {
        let mut file = BenchFile::new();
        file.upsert(entry("pr6-baseline", Config::AuditorOff));
        file.upsert(entry("pr6", Config::ChaosOn));
        let text = file.render();
        let parsed = BenchFile::parse(&text).expect("round trip");
        assert_eq!(parsed.entries.len(), 2);
        assert_eq!(parsed.entries[0].label, "pr6-baseline");
        assert_eq!(parsed.entries[1].config, "chaos_on");
        assert_eq!(parsed.seed, WORKLOAD_SEED);
    }

    #[test]
    fn control_bytes_and_quotes_in_labels_stay_valid_json() {
        let mut file = BenchFile::new();
        file.upsert(entry("ci\tx", Config::AuditorOff));
        file.upsert(entry("say \"hi\"\u{1}", Config::ChaosOn));
        let text = file.render();
        assert!(
            text.bytes().all(|b| b >= 0x20 || b == b'\n'),
            "raw control byte written: {text:?}"
        );
        let parsed = BenchFile::parse(&text).expect("valid document");
        assert_eq!(parsed.entries[0].label, "ci\tx");
        // The shared escaper writes quotes as apostrophes, so the label
        // read back renders to the same bytes.
        assert_eq!(parsed.entries[1].label, "say 'hi'\u{1}");
        assert_eq!(parsed.render(), text);
        assert!(json::parse("[\"a\tb\"]").is_err(), "raw tab in a string");
    }

    #[test]
    fn upsert_replaces_same_key() {
        let mut file = BenchFile::new();
        file.upsert(entry("x", Config::AuditorOff));
        let mut faster = entry("x", Config::AuditorOff);
        faster.median_items_per_sec = 9.9e6;
        faster.best_items_per_sec = 9.9e6;
        file.upsert(faster);
        assert_eq!(file.entries.len(), 1);
        assert_eq!(file.entries[0].median_items_per_sec, 9.9e6);
    }

    #[test]
    fn validation_rejects_malformed_documents() {
        let empty = BenchFile::new();
        assert!(validate(&empty).is_err(), "no entries");

        let mut bad_config = BenchFile::new();
        let mut e = entry("x", Config::AuditorOff);
        e.config = "warp_drive".into();
        bad_config.entries.push(e);
        assert!(validate(&bad_config).unwrap_err().contains("warp_drive"));

        let mut dup = BenchFile::new();
        dup.entries.push(entry("x", Config::AuditorOff));
        dup.entries.push(entry("x", Config::AuditorOff));
        assert!(validate(&dup).unwrap_err().contains("duplicate"));

        let mut zero_rate = BenchFile::new();
        let mut e = entry("x", Config::AuditorOn);
        e.median_items_per_sec = 0.0;
        zero_rate.entries.push(e);
        assert!(validate(&zero_rate).is_err());

        let mut drift = BenchFile::new();
        drift.entries.push(entry("a", Config::AuditorOff));
        let mut e = entry("b", Config::AuditorOff);
        e.cost_bin_ticks += 10.0;
        drift.entries.push(e);
        assert!(validate(&drift).unwrap_err().contains("drift"));
    }

    #[test]
    fn parse_rejects_wrong_schema_and_garbage() {
        assert!(BenchFile::parse("{}").is_err());
        assert!(BenchFile::parse("not json").is_err());
        let wrong = BenchFile::new().render().replace(SCHEMA, "other/v9");
        // Wrong schema only (entries empty is also an error, so build one).
        assert!(BenchFile::parse(&wrong).is_err());
    }

    #[test]
    fn json_parser_handles_nesting_and_escapes() {
        let v = json::parse(r#"{"a": [1, 2.5, "x\"y"], "b": {"c": true, "d": null}}"#).unwrap();
        let obj = v.as_object().unwrap();
        let arr = json::get(obj, "a").unwrap().as_array().unwrap();
        assert_eq!(arr[1], json::Value::Num(2.5));
        assert_eq!(arr[2], json::Value::Str("x\"y".into()));
        let b = json::get(obj, "b").unwrap().as_object().unwrap();
        assert_eq!(*json::get(b, "c").unwrap(), json::Value::Bool(true));
        assert!(json::parse("[1, 2] trailing").is_err());
    }

    #[test]
    fn get_u64_rejects_two_to_the_sixty_four() {
        // 2^64 is exactly representable as an f64 (and is what
        // `u64::MAX as f64` rounds to); it must NOT pass as a u64.
        let v = json::parse(r#"{"big": 18446744073709551616, "neg": -1, "frac": 1.5}"#).unwrap();
        let obj = v.as_object().unwrap();
        assert!(json::get_u64(obj, "big").is_err(), "2^64 must be rejected");
        assert!(json::get_u64(obj, "neg").is_err());
        assert!(json::get_u64(obj, "frac").is_err());
        // The largest f64 below 2^64 still round-trips fine.
        let v = json::parse(r#"{"n": 18446744073709549568}"#).unwrap();
        let obj = v.as_object().unwrap();
        assert_eq!(json::get_u64(obj, "n").unwrap(), 18_446_744_073_709_549_568);
    }

    #[test]
    fn tiny_measurement_end_to_end() {
        let w = Workload::pinned(300);
        for config in Config::ALL {
            let m = measure(w, config, 2);
            assert_eq!(m.items, 300);
            assert!(m.placed >= 300);
            assert!(m.median_items_per_sec() > 0.0);
            assert!(m.best() <= m.median());
            let e = BenchEntry::from_measurement("test", &m);
            assert_eq!(e.config, config.id());
        }
    }

    #[test]
    fn chaos_config_actually_crashes_bins() {
        let (result, _) = drive_events(&Workload::pinned(2_000).instance(), Config::ChaosOn);
        assert!(
            result.resilience.bin_failures > 0,
            "chaos rate {CHAOS_RATE} must land hits on 2k items"
        );
    }

    #[test]
    fn replicated_drives_are_bit_identical() {
        let res = replicated_drive(Workload::pinned(500), Config::ChaosOn, 4);
        assert!(res.metrics.arrivals >= 500);
    }
}
