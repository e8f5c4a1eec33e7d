//! The two daemon workloads, driven from outside the `dbp-serve` binary.
//!
//! - `replay_stdin`: one tenant, `first-fit`, fed the `arrival` and
//!   `clock` lines of a recorded `general` trace (n = 10, μ = 1024) on
//!   stdin. Short-lived items keep few bins open while thousands churn, so
//!   the engine is cheap and the text protocol dominates. The response
//!   stream minus `"r"` lines must equal the recording byte for byte.
//! - `tenants_socket`: one Unix-socket connection carrying 64
//!   tenants' seeded `general` traces merged in time order, plus periodic
//!   `metrics` and `snapshot` requests, sent by a single-threaded
//!   non-blocking open-loop generator at a fixed arrival rate. Latency is
//!   timed from each arrival line's due time to the arrival of its
//!   `placed` line.
//!
//! The traced pass replays the same bytes in-process through a mirror of
//! the daemon's `route` (`parse_request` → `SessionMap::session` →
//! `Session::handle` → `Session::take_output` → writer), timing each call
//! as a span, and must produce the binary's exact output bytes.

use std::collections::{BTreeMap, VecDeque};
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use dbp_core::engine;
use dbp_core::trace::{json_pairs, JsonlSink};
use dbp_core::{Area, EngineEvent, LowerBounds};
use dbp_serve::{parse_request, Request, ServeConfig, SessionMap};
use dbp_workloads::{random_general, GeneralConfig};

use crate::common::{self, Report, Spans, StreamHash, Usage};
use crate::spawner;

/// Tenants on the `tenants_socket` connection.
const TENANTS: usize = 64;
/// Each tenant gets a `metrics` request after every this many of its lines…
const METRICS_EVERY: usize = 512;
/// …and a `snapshot` request after every this many.
const SNAPSHOT_EVERY: usize = 2048;
/// Scratch files (replay input, sockets), relative to the checkout root.
const RUN_DIR: &str = ".bench_build/perfbench-run";
/// Socket daemon start-ups per run, half before the open loop and half
/// after it; `setup_s` is their median.
const SOCKET_SETUPS: usize = 128;
/// Stdin daemon start-ups after each replay pass, so they spread over the
/// run; `setup_s` is their median.
const STDIN_SETUPS_PER_PASS: usize = 8;

/// The offered arrival rate of `tenants_socket`, per second. The pinned
/// daemon spends about 8–15 µs of CPU per arrival, so this keeps the
/// connection well below saturation: near it, the latency tail swings by
/// more than the benchmark's bounds between identical runs.
const RATE_PER_S: f64 = 20_000.0;
/// The rate at `--size tiny`.
const TINY_RATE_PER_S: f64 = 2_000.0;
/// The schedule pauses for this long after every second's worth of
/// arrivals. Once the daemon has answered the second, the harness reads
/// the daemon's CPU time and times the reference kernel in the pause; the
/// second's latencies and daemon CPU time are scaled by that kernel run.
const PAUSE_NS: u64 = 60_000_000;

/// A recorded `first-fit` run of one instance.
struct Recording {
    /// The `arrival` and `clock` lines: the daemon's input.
    input: Vec<Vec<u8>>,
    /// Hash of the whole recording (every event line).
    expect: (u64, u64),
    items: u64,
    cost: Area,
    lower: Area,
}

fn record(seed: u64, items: usize) -> Recording {
    let inst = random_general(&GeneralConfig::new(10, items), seed);
    let algo = dbp_algos::by_name("first-fit").expect("first-fit is registered");
    let mut sink = JsonlSink::new(Vec::new());
    let result = engine::run_with_sink(&inst, algo, &mut sink).expect("first-fit is legal");
    let bytes = sink.finish().expect("writing to memory cannot fail");
    let mut expect = StreamHash::new();
    let mut input = Vec::new();
    for line in bytes.split_inclusive(|&b| b == b'\n') {
        expect.feed(line);
        if line.starts_with(b"{\"e\":\"arrival\"") || line.starts_with(b"{\"e\":\"clock\"") {
            input.push(line.to_vec());
        }
    }
    Recording {
        input,
        expect: expect.value(),
        items: items as u64,
        cost: result.cost,
        lower: LowerBounds::of(&inst).best(),
    }
}

/// A daemon started through the spawner helper, killed and reaped
/// however the run ends.
struct Daemon {
    /// `None` once reaped.
    pid: Option<i32>,
    socket: Option<String>,
}

impl Daemon {
    /// Starts `bin` with its stdin and stdout from and to the given files
    /// (`None`: `/dev/null`).
    fn spawn(
        bin: &str,
        args: &[&str],
        stdin: Option<&Path>,
        stdout: Option<&Path>,
        socket: Option<String>,
    ) -> Daemon {
        fn utf8(p: Option<&Path>) -> Option<&str> {
            p.map(|p| p.to_str().expect("run paths are UTF-8"))
        }
        let pid = spawner::spawn(bin, args, utf8(stdin), utf8(stdout));
        Daemon {
            pid: Some(pid),
            socket,
        }
    }

    fn pid(&self) -> i32 {
        self.pid.expect("daemon not yet reaped")
    }

    /// Waits for a daemon that exits by itself (the stdin transport);
    /// returns its own CPU time and peak memory.
    fn finish(mut self) -> Usage {
        let pid = self.pid.take().expect("daemon not yet reaped");
        let exit = spawner::wait(pid).expect("daemon exit status");
        assert_eq!(exit.code, 0, "daemon exited with {}", exit.code);
        exit.usage
    }

    /// Kills the daemon; returns its own CPU time and peak memory.
    fn stop(mut self) -> Usage {
        let pid = self.pid.take().expect("daemon not yet reaped");
        spawner::kill_and_reap(pid).expect("daemon reaped").usage
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(pid) = self.pid.take() {
            let _ = spawner::kill_and_reap(pid);
        }
        if let Some(path) = &self.socket {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// CPU seconds all threads of process `pid` have run so far, from the
/// scheduler's nanosecond counters.
fn process_cpu_s(pid: i32) -> f64 {
    let mut ns = 0u64;
    if let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) {
        for task in tasks.flatten() {
            if let Ok(stat) = std::fs::read_to_string(task.path().join("schedstat")) {
                ns += stat
                    .split_whitespace()
                    .next()
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or(0);
            }
        }
    }
    ns as f64 / 1e9
}

/// The engine counters of every tenant's last `metrics` line, summed
/// (`max_open` takes the maximum), plus the tenant costs by name.
#[derive(Default)]
struct Telemetry {
    sums: BTreeMap<String, u64>,
    cost: BTreeMap<String, u128>,
}

const TELEMETRY_KEYS: &[&str] = &[
    "arrivals",
    "fast",
    "scan",
    "tree_queries",
    "linear_scans",
    "tree_compactions",
    "heap_pushes",
    "heap_pops",
    "events",
    "compactions",
    "bins_opened",
    "max_open",
];

impl Telemetry {
    /// Folds in the final `metrics` line of each tenant (later lines for
    /// a tenant replace earlier ones).
    fn from_lines(lines: &[String]) -> Telemetry {
        let mut last: BTreeMap<String, &str> = BTreeMap::new();
        for l in lines {
            if l.starts_with("{\"r\":\"metrics\"") {
                let tenant = field(l, "tenant").unwrap_or("default").trim_matches('"');
                last.insert(tenant.to_string(), l);
            }
        }
        let mut t = Telemetry::default();
        for (tenant, l) in last {
            for &k in TELEMETRY_KEYS {
                let v: u64 = field(l, k).and_then(|v| v.parse().ok()).unwrap_or(0);
                let e = t.sums.entry(k.to_string()).or_insert(0);
                *e = if k == "max_open" { (*e).max(v) } else { *e + v };
            }
            let cost = field(l, "cost").and_then(|v| v.parse().ok()).unwrap_or(0);
            t.cost.insert(tenant, cost);
        }
        t
    }

    fn get(&self, k: &str) -> u64 {
        self.sums.get(k).copied().unwrap_or(0)
    }
}

fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    json_pairs(line)
        .ok()?
        .into_iter()
        .find(|&(k, _)| k == key)
        .map(|(_, v)| v)
}

fn is_failure(line: &[u8]) -> bool {
    line.starts_with(b"{\"r\":\"error\"") || line.starts_with(b"{\"r\":\"overloaded\"")
}

// ---------------------------------------------------------------------------
// The in-process mirror of the daemon's router.

/// Layer names of the serve mirror's spans, indexed by the constants
/// below.
const SERVE_LAYERS: &[&str] = &[
    "main.read",
    "main.write",
    "protocol.parse",
    "state.session",
    "session.arrival",
    "session.clock",
    "session.control",
    "session.other",
    "session.take_output",
];
const READ: usize = 0;
const WRITE: usize = 1;
const PARSE: usize = 2;
const STATE: usize = 3;
const ARRIVAL: usize = 4;
const CLOCK: usize = 5;
const CONTROL: usize = 6;
const OTHER: usize = 7;
const TAKE: usize = 8;

/// What a mirror pass produced.
struct Mirror {
    out: (u64, u64),
    wall_ns: u64,
    spans: Option<Spans>,
}

#[inline]
fn span<R>(sp: &mut Option<Spans>, layer: usize, f: impl FnOnce() -> R) -> R {
    match sp {
        Some(s) => s.time(layer, f),
        None => f(),
    }
}

/// Feeds `input` through the daemon's routing steps in-process. With
/// `stdin_eof` the sessions are drained afterwards, as `--stdin` does at
/// EOF; `flush_each` flushes the writer after every line, as the socket
/// transport does.
fn mirror(input: &[u8], flush_each: bool, stdin_eof: bool, traced: bool) -> Mirror {
    let map = SessionMap::new(ServeConfig::default());
    let mut sp = traced.then(|| Spans::new(SERVE_LAYERS));
    let mut out = BufWriter::new(StreamHash::new());
    let t0 = Instant::now();
    let mut lines = BufReader::new(input).lines();
    while let Some(line) = span(&mut sp, READ, || lines.next()) {
        let line = line.expect("in-memory input is valid UTF-8");
        if line.trim().is_empty() {
            continue;
        }
        let req = match span(&mut sp, PARSE, || parse_request(&line)) {
            Ok(r) => r,
            Err(e) => panic!("benchmark input line failed to parse: {e}"),
        };
        let session = span(&mut sp, STATE, || {
            let tenant = match &req {
                Request::Event { tenant, .. } | Request::Control { tenant, .. } => {
                    tenant.as_deref().unwrap_or("default").to_string()
                }
            };
            map.session(&tenant).expect("first-fit sessions construct")
        });
        let layer = match &req {
            Request::Control { .. } => CONTROL,
            Request::Event {
                event: EngineEvent::Arrival { .. },
                ..
            } => ARRIVAL,
            Request::Event {
                event: EngineEvent::ClockAdvanced { .. },
                ..
            } => CLOCK,
            Request::Event { .. } => OTHER,
        };
        let mut s = session.lock().expect("session lock poisoned");
        span(&mut sp, layer, || s.handle(&req));
        let rendered = span(&mut sp, TAKE, || s.take_output());
        drop(s);
        span(&mut sp, WRITE, || {
            out.write_all(rendered.as_bytes())?;
            if flush_each {
                out.flush()?;
            }
            std::io::Result::Ok(())
        })
        .expect("hashing cannot fail");
    }
    if stdin_eof {
        for tenant in map.tenants() {
            let session = map.session(&tenant).expect("existing session");
            let mut s = session.lock().expect("session lock poisoned");
            span(&mut sp, CONTROL, || s.drain());
            let rendered = span(&mut sp, TAKE, || s.take_output());
            span(&mut sp, WRITE, || out.write_all(rendered.as_bytes())).expect("hashing");
        }
    }
    let out = out.into_inner().ok().expect("flushing a hash cannot fail");
    Mirror {
        out: out.value(),
        wall_ns: t0.elapsed().as_nanos() as u64,
        spans: sp,
    }
}

/// Fills the serve layers' per-layer metrics from a traced mirror pass.
#[allow(clippy::too_many_arguments)]
fn serve_layers(
    v: &mut BTreeMap<&'static str, f64>,
    traced: &Mirror,
    untraced: &Mirror,
    items: u64,
    bytes_in: u64,
    tenants: usize,
    tel: &Telemetry,
) {
    let sp = traced.spans.as_ref().expect("traced pass has spans");
    let per = |name: &str| sp.self_ns(name) as f64 / items as f64;
    v.insert("main.read_ns", per("main.read"));
    v.insert("main.write_ns", per("main.write"));
    v.insert("protocol.parse_ns", per("protocol.parse"));
    v.insert("protocol.bytes_in", bytes_in as f64 / items as f64);
    v.insert("state.session_ns", per("state.session"));
    v.insert("state.tenants", tenants as f64);
    v.insert("session.arrival_ns", per("session.arrival"));
    v.insert("session.clock_ns", per("session.clock"));
    v.insert("session.control_ns", per("session.control"));
    v.insert("session.take_output_ns", per("session.take_output"));
    v.insert("session.bytes_out", traced.out.1 as f64 / items as f64);
    v.insert("session.compactions", tel.get("compactions") as f64);
    v.insert("engine.tree_queries", tel.get("tree_queries") as f64);
    v.insert("engine.linear_scans", tel.get("linear_scans") as f64);
    v.insert("engine.heap_pops", tel.get("heap_pops") as f64);
    v.insert("engine.events", tel.get("events") as f64);
    v.insert("bins.peak_open", tel.get("max_open") as f64);
    let placed = tel.get("fast") + tel.get("scan");
    v.insert(
        "engine.fast_share",
        tel.get("fast") as f64 / placed.max(1) as f64,
    );
    v.insert("trace.total_ns", traced.wall_ns as f64 / items as f64);
    v.insert(
        "trace.unattributed_share",
        common::unattributed_share(traced.wall_ns, sp.attributed_ns()),
    );
    v.insert(
        "trace.overhead_share",
        common::overhead_share(traced.wall_ns, untraced.wall_ns),
    );
}

fn telemetry_counters(tel: &Telemetry, out: (u64, u64), bytes_in: u64) -> BTreeMap<String, u64> {
    let mut c: BTreeMap<String, u64> = tel.sums.clone();
    c.insert("bytes_in".to_string(), bytes_in);
    c.insert("bytes_out".to_string(), out.1);
    c.insert("out_hash".to_string(), out.0);
    let total: u128 = tel.cost.values().sum();
    c.insert("cost_low64".to_string(), total as u64);
    c
}

// ---------------------------------------------------------------------------
// replay_stdin

/// One `--stdin` daemon run over the whole recording.
struct ReplayPass {
    wall_s: f64,
    /// The daemon's own CPU seconds, user plus system, and peak memory.
    cpu_s: f64,
    peak_rss_mb: f64,
    events: (u64, u64),
    full: (u64, u64),
    placed: u64,
    failures: u64,
    r_lines: Vec<String>,
}

const STDIN_ARGS: &[&str] = &["--stdin", "--algo", "first-fit"];

/// Start-up cost of the `--stdin` daemon: spawn to exit on an empty
/// input. The transport buffers its output until EOF, so there is no
/// earlier moment at which the daemon shows it is ready.
fn stdin_setup(bin: &str) -> f64 {
    let t0 = Instant::now();
    Daemon::spawn(bin, STDIN_ARGS, None, None, None).finish();
    t0.elapsed().as_secs_f64()
}

/// Runs a fresh daemon with the recording's input lines as its stdin and
/// a file as its stdout, so it never waits on the harness; the output is
/// read, hashed and checked after the daemon exits.
fn replay_pass(bin: &str, input: &Path, output: &Path) -> ReplayPass {
    let start = Instant::now();
    let usage = Daemon::spawn(bin, STDIN_ARGS, Some(input), Some(output), None).finish();
    let wall_s = start.elapsed().as_secs_f64();
    let mut reader = BufReader::with_capacity(1 << 20, File::open(output).expect("replay output"));
    let mut full = StreamHash::new();
    let mut events = StreamHash::new();
    let mut r_lines = Vec::new();
    let mut failures = 0u64;
    let mut placed = 0u64;
    let mut line = Vec::with_capacity(256);
    loop {
        line.clear();
        let n = reader.read_until(b'\n', &mut line).expect("daemon output");
        if n == 0 {
            break;
        }
        full.feed(&line);
        if line.starts_with(b"{\"r\":") {
            if is_failure(&line) {
                failures += 1;
            }
            r_lines.push(String::from_utf8_lossy(&line).into_owned());
        } else {
            events.feed(&line);
            placed += u64::from(line.starts_with(b"{\"e\":\"placed\""));
        }
    }
    ReplayPass {
        wall_s,
        cpu_s: usage.cpu_s,
        peak_rss_mb: usage.peak_rss_mb,
        events: events.value(),
        full: full.value(),
        placed,
        failures,
        r_lines,
    }
}

pub fn replay_stdin(bin: &str, seed: u64, seconds: f64, trace: bool, tiny: bool) -> Report {
    let rec = record(seed, if tiny { 3_000 } else { 100_000 });
    let input: Vec<u8> = rec.input.concat();
    let bytes_in = input.len() as u64;
    std::fs::create_dir_all(RUN_DIR).expect("create the run directory");
    let input_path = PathBuf::from(format!("{RUN_DIR}/replay{}.in", std::process::id()));
    let output_path = PathBuf::from(format!("{RUN_DIR}/replay{}.out", std::process::id()));
    std::fs::write(&input_path, &input).expect("write the replay input");
    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    // Start-ups and the daemon's CPU time per pass, scaled by the kernel
    // run before the pass.
    let mut setups = Vec::new();
    let mut scaled_s = Vec::new();
    let mut wall_rates = Vec::new();
    let mut peak_rss_mb = 0f64;
    let mut last = None;
    let mut reference = common::Reference::new();
    let budget = if trace { 0.0 } else { seconds };
    let started = Instant::now();
    while scaled_s.len() < 3 || started.elapsed().as_secs_f64() < budget {
        let k = reference.run();
        let p = replay_pass(bin, &input_path, &output_path);
        report.attempted += rec.items;
        report.failed += p.failures + rec.items.saturating_sub(p.placed);
        if p.events != rec.expect {
            report.fail(format!(
                "response stream minus \"r\" lines differs from the recording ({} vs {} bytes)",
                p.events.1, rec.expect.1
            ));
        }
        if p.placed != rec.items {
            report.fail(format!(
                "{} placed lines for {} arrivals",
                p.placed, rec.items
            ));
        }
        wall_rates.push(rec.items as f64 / p.wall_s);
        peak_rss_mb = peak_rss_mb.max(p.peak_rss_mb);
        scaled_s.push(common::at_reference(p.cpu_s, k));
        let tel = Telemetry::from_lines(&p.r_lines);
        report.expect_counters(
            &format!("daemon #{}", scaled_s.len()),
            &telemetry_counters(&tel, p.full, bytes_in),
        );
        last = Some((p, tel));
        if !trace {
            setups.extend(
                (0..STDIN_SETUPS_PER_PASS).map(|_| common::at_reference(stdin_setup(bin), k)),
            );
        }
    }
    let _ = std::fs::remove_file(&input_path);
    let _ = std::fs::remove_file(&output_path);
    let (p, tel) = last.expect("at least one pass");
    let looseness = tel.cost.values().sum::<u128>() as f64 / rec.lower.raw() as f64;
    if tel.cost.values().sum::<u128>() != rec.cost.raw() {
        report.fail("drained cost differs from the batch engine's".to_string());
    }
    report.notes.push(format!(
        "replay_stdin: {} items, {} input bytes, unscaled wall items/s per pass {:?}",
        rec.items,
        bytes_in,
        wall_rates.iter().map(|r| r.round()).collect::<Vec<_>>()
    ));
    if !trace {
        // Per-item time of each pass, in daemon CPU time at the reference
        // speed.
        let per_item: Vec<f64> = scaled_s
            .iter()
            .map(|c| c * 1e6 / rec.items as f64)
            .collect();
        common::push_e2e(
            &mut report,
            common::median(&setups),
            rec.items as f64 / common::median(&scaled_s),
            &per_item,
            peak_rss_mb,
            looseness,
        );
        return report;
    }
    let untraced = mirror(&input, false, true, false);
    let traced = mirror(&input, false, true, true);
    for (name, m) in [("untraced", &untraced), ("traced", &traced)] {
        if m.out != p.full {
            report.fail(format!(
                "{name} in-process mirror output differs from the daemon's"
            ));
        }
    }
    report.failed += u64::from(!report.correct);
    let mut v = common::layer_metrics();
    serve_layers(&mut v, &traced, &untraced, rec.items, bytes_in, 1, &tel);
    report
        .notes
        .extend(traced.spans.as_ref().expect("traced").table());
    common::push_layers(&mut report, &v);
    report
}

// ---------------------------------------------------------------------------
// tenants_socket

/// One request line of the merged schedule.
struct Line {
    bytes: Vec<u8>,
    /// Due time in ns after the schedule's start.
    due_ns: u64,
    arrival: bool,
}

struct Schedule {
    lines: Vec<Line>,
    arrivals: u64,
    /// Arrivals per window: one second's worth, followed by a pause.
    per_window: u64,
    /// Batch-engine cost and lower bound per tenant, by tenant name.
    cost: BTreeMap<String, u128>,
    lower: u128,
}

fn tenant_name(t: usize) -> String {
    format!("t{t:02}")
}

/// The event time a recorded input line sorts by.
fn line_time(line: &[u8]) -> u64 {
    let s = std::str::from_utf8(line).expect("recordings are ASCII");
    let key = if s.starts_with("{\"e\":\"clock\"") {
        "to"
    } else {
        "t"
    };
    field(s, key)
        .and_then(|v| v.parse().ok())
        .expect("arrival and clock lines carry a time")
}

fn schedule(seed: u64, rate: f64, seconds: f64) -> Schedule {
    let per_tenant = ((rate * seconds) as usize).div_ceil(TENANTS);
    // (time, tenant, seq) orders the merge; each tenant's own order is
    // kept by seq.
    let mut keyed: Vec<(u64, usize, usize, Vec<u8>, bool)> = Vec::new();
    let mut cost = BTreeMap::new();
    let mut lower = 0u128;
    for t in 0..TENANTS {
        let rec = record(seed.wrapping_mul(1_000).wrapping_add(t as u64), per_tenant);
        let name = tenant_name(t);
        cost.insert(name.clone(), rec.cost.raw());
        lower += rec.lower.raw();
        let mut seq = 0;
        for (k, l) in rec.input.iter().enumerate() {
            let time = line_time(l);
            let mut bytes = format!("{{\"tenant\":\"{name}\",").into_bytes();
            bytes.extend_from_slice(&l[1..]);
            let arrival = l.starts_with(b"{\"e\":\"arrival\"");
            keyed.push((time, t, seq, bytes, arrival));
            seq += 1;
            for (every, op) in [(METRICS_EVERY, "metrics"), (SNAPSHOT_EVERY, "snapshot")] {
                if (k + 1) % every == 0 {
                    let ctl = format!("{{\"tenant\":\"{name}\",\"op\":\"{op}\"}}\n");
                    keyed.push((time, t, seq, ctl.into_bytes(), false));
                    seq += 1;
                }
            }
        }
    }
    keyed.sort_by_key(|&(time, t, seq, _, _)| (time, t, seq));
    let gap_ns = 1e9 / rate;
    let per_window = rate as u64;
    let mut arrivals = 0u64;
    let lines = keyed
        .into_iter()
        .map(|(_, _, _, bytes, arrival)| {
            // A line is due with the next arrival: control and clock lines
            // go out just ahead of it.
            let due_ns = (arrivals as f64 * gap_ns) as u64 + arrivals / per_window * PAUSE_NS;
            arrivals += u64::from(arrival);
            Line {
                bytes,
                due_ns,
                arrival,
            }
        })
        .collect();
    Schedule {
        lines,
        arrivals,
        per_window,
        cost,
        lower,
    }
}

fn setup_lines() -> Vec<u8> {
    (0..TENANTS)
        .flat_map(|t| {
            format!("{{\"tenant\":\"{}\",\"op\":\"metrics\"}}\n", tenant_name(t)).into_bytes()
        })
        .collect()
}

fn drain_lines() -> Vec<u8> {
    (0..TENANTS)
        .flat_map(|t| {
            format!("{{\"tenant\":\"{}\",\"op\":\"drain\"}}\n", tenant_name(t)).into_bytes()
        })
        .collect()
}

/// Splits complete lines off `carry`, handing each to `f`.
fn split_lines(carry: &mut Vec<u8>, mut f: impl FnMut(&[u8])) {
    let mut start = 0;
    while let Some(pos) = carry[start..].iter().position(|&b| b == b'\n') {
        f(&carry[start..start + pos + 1]);
        start += pos + 1;
    }
    carry.drain(..start);
}

/// A socket daemon with all 64 sessions created, and its start-up time.
fn start_socket_daemon(
    bin: &str,
    path: &str,
) -> (Daemon, UnixStream, StreamHash, Vec<String>, f64) {
    let t0 = Instant::now();
    let d = Daemon::spawn(
        bin,
        &["--socket", path, "--algo", "first-fit"],
        None,
        None,
        Some(path.to_string()),
    );
    let stream = loop {
        match UnixStream::connect(path) {
            Ok(s) => break s,
            // Yield rather than sleep, as the open loop does: a sleep wakes
            // late, and the figure would measure the wake-up, not the daemon.
            Err(_) if t0.elapsed() < Duration::from_secs(30) => std::thread::yield_now(),
            Err(e) => panic!("daemon socket never came up: {e}"),
        }
    };
    let mut w = &stream;
    w.write_all(&setup_lines()).expect("daemon accepts setup");
    let mut full = StreamHash::new();
    let mut r_lines = Vec::new();
    let mut carry = Vec::new();
    let mut buf = vec![0u8; 1 << 16];
    let mut answered = 0;
    let mut r = &stream;
    while answered < TENANTS {
        let n = r.read(&mut buf).expect("daemon answers setup");
        assert!(n > 0, "daemon closed the connection during setup");
        carry.extend_from_slice(&buf[..n]);
        split_lines(&mut carry, |l| {
            full.feed(l);
            r_lines.push(String::from_utf8_lossy(l).into_owned());
            if l.starts_with(b"{\"r\":\"resilience\"") {
                answered += 1;
            }
        });
    }
    let setup = t0.elapsed().as_secs_f64();
    (d, stream, full, r_lines, setup)
}

/// A pause of the open loop in which the reference kernel ran.
struct Pause {
    /// The window before the pause.
    window: u64,
    kernel_s: f64,
    /// The daemon's CPU seconds and the arrivals sent, up to the pause.
    daemon_cpu_s: f64,
    sent: u64,
}

/// What the open loop saw.
struct LoopResult {
    /// `(window, latency_us)` per placed arrival.
    latencies_us: Vec<(u64, f64)>,
    /// The daemon's CPU seconds when the loop started, and every pause in
    /// which the reference kernel ran.
    start_cpu_s: f64,
    pauses: Vec<Pause>,
    late_us: Vec<f64>,
    placed: u64,
    failures: u64,
    backlog_grew: bool,
}

/// Sends the schedule on time from one thread, reading answers as they
/// come. `placed` lines carry no tenant, so each one is matched to the
/// oldest unanswered arrival: the connection answers in request order.
/// In each pause, once every arrival is answered and the pause has room
/// for it, the reference kernel runs once, and the daemon's CPU time so
/// far is read.
fn open_loop(
    stream: &UnixStream,
    daemon_pid: i32,
    sched: &Schedule,
    full: &mut StreamHash,
    r_lines: &mut Vec<String>,
    reference: &mut common::Reference,
) -> LoopResult {
    stream.set_nonblocking(true).expect("non-blocking socket");
    let n = sched.lines.len();
    let mut next = 0usize;
    let mut pending: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut cursor = 0usize;
    // (due_ns, window) of every unanswered arrival.
    let mut due_fifo: VecDeque<(u64, u64)> = VecDeque::new();
    let mut sent = 0u64;
    let mut kernel_window = None;
    let mut carry: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut buf = vec![0u8; 1 << 16];
    let mut res = LoopResult {
        latencies_us: Vec::with_capacity(sched.arrivals as usize),
        start_cpu_s: process_cpu_s(daemon_pid),
        pauses: Vec::new(),
        late_us: Vec::with_capacity(sched.arrivals as usize),
        placed: 0,
        failures: 0,
        backlog_grew: false,
    };
    let end_ns = sched.lines.last().map_or(0, |l| l.due_ns);
    // Peak unanswered arrivals in each quarter of the schedule.
    let mut backlog = [0usize; 4];
    let t0 = Instant::now();
    let deadline = Duration::from_nanos(end_ns) + Duration::from_secs(60);
    loop {
        let now_ns = t0.elapsed().as_nanos() as u64;
        while next < n && sched.lines[next].due_ns <= now_ns {
            let l = &sched.lines[next];
            pending.extend_from_slice(&l.bytes);
            if l.arrival {
                due_fifo.push_back((l.due_ns, sent / sched.per_window));
                sent += 1;
                res.late_us.push((now_ns - l.due_ns) as f64 / 1e3);
            }
            next += 1;
        }
        if cursor < pending.len() {
            let mut w = stream;
            match w.write(&pending[cursor..]) {
                Ok(k) => cursor += k,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(e) => panic!("socket write failed: {e}"),
            }
            if cursor == pending.len() {
                pending.clear();
                cursor = 0;
            }
        }
        let mut r = stream;
        match r.read(&mut buf) {
            Ok(0) => panic!("daemon closed the connection"),
            Ok(k) => {
                let at = t0.elapsed().as_nanos() as u64;
                carry.extend_from_slice(&buf[..k]);
                split_lines(&mut carry, |l| {
                    full.feed(l);
                    if l.starts_with(b"{\"e\":\"placed\"") {
                        match due_fifo.pop_front() {
                            Some((due, window)) => {
                                res.latencies_us.push((window, (at - due) as f64 / 1e3));
                                res.placed += 1;
                            }
                            None => res.failures += 1,
                        }
                    } else if l.starts_with(b"{\"r\":") {
                        if is_failure(l) {
                            res.failures += 1;
                        }
                        r_lines.push(String::from_utf8_lossy(l).into_owned());
                    }
                });
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {}
            Err(e) => panic!("socket read failed: {e}"),
        }
        let q = ((now_ns as u128 * 4) / (end_ns as u128 + 1)).min(3) as usize;
        backlog[q] = backlog[q].max(due_fifo.len());
        let pause = |window: u64, reference: &mut common::Reference| Pause {
            window,
            daemon_cpu_s: process_cpu_s(daemon_pid),
            kernel_s: reference.run(),
            sent,
        };
        if next == n && pending.is_empty() && due_fifo.is_empty() {
            // The last window's pause is the end of the schedule.
            let last = sent.saturating_sub(1) / sched.per_window;
            res.pauses.push(pause(last, reference));
            break;
        }
        // A window is complete and answered, and the pause before the next
        // line leaves room for the kernel (allowing twice the two runs of
        // the last one): time it.
        let window = sent / sched.per_window;
        if sent.is_multiple_of(sched.per_window)
            && window > 0
            && kernel_window != Some(window)
            && pending.is_empty()
            && due_fifo.is_empty()
        {
            let room = sched.lines[next]
                .due_ns
                .saturating_sub(t0.elapsed().as_nanos() as u64);
            let need = res
                .pauses
                .last()
                .map_or(PAUSE_NS / 2, |p| (4e9 * p.kernel_s) as u64);
            if room > need {
                res.pauses.push(pause(window - 1, reference));
            }
            kernel_window = Some(window);
        }
        if t0.elapsed() > deadline {
            res.failures += due_fifo.len() as u64;
            break;
        }
        // Yield rather than sleep: a sleeping thread on this class of VM
        // wakes milliseconds late, which would make the generator, not
        // the daemon, set the latency; yielding hands the shared CPU to the
        // daemon whenever it has a line to serve.
        std::thread::yield_now();
    }
    stream.set_nonblocking(false).expect("blocking socket");
    // A queue that keeps growing means the offered rate exceeded what the
    // daemon serves: flag it.
    res.backlog_grew = backlog[3] > 2 * backlog[0] + 64;
    res
}

/// Drains every tenant and collects the final telemetry.
fn drain(stream: &UnixStream, full: &mut StreamHash, r_lines: &mut Vec<String>) {
    let mut w = stream;
    w.write_all(&drain_lines()).expect("daemon accepts drains");
    let mut carry = Vec::new();
    let mut buf = vec![0u8; 1 << 16];
    let mut answered = 0;
    let mut drained = false;
    let mut r = stream;
    while answered < TENANTS {
        let n = r.read(&mut buf).expect("daemon answers drains");
        assert!(n > 0, "daemon closed the connection during drain");
        carry.extend_from_slice(&buf[..n]);
        split_lines(&mut carry, |l| {
            full.feed(l);
            if l.starts_with(b"{\"r\":") {
                r_lines.push(String::from_utf8_lossy(l).into_owned());
            }
            if l.starts_with(b"{\"r\":\"drained\"") {
                drained = true;
            } else if drained && l.starts_with(b"{\"r\":\"resilience\"") {
                drained = false;
                answered += 1;
            }
        });
    }
}

pub fn tenants_socket(bin: &str, seed: u64, seconds: f64, trace: bool, tiny: bool) -> Report {
    let per_s = if tiny { TINY_RATE_PER_S } else { RATE_PER_S };
    let sched = schedule(seed, per_s, seconds);
    // The generator and the daemon share CPU 0: the generator yields it
    // whenever the daemon has a line to serve, and the CPU never idles.
    std::fs::create_dir_all(RUN_DIR).expect("create the run directory");
    let path = format!("{RUN_DIR}/d{}.sock", std::process::id());
    let mut report = Report {
        correct: true,
        attempted: sched.arrivals,
        ..Report::default()
    };
    let mut setups = Vec::new();
    let mut kept = None;
    // Each start-up is scaled by the reference kernel run before it.
    let mut reference = common::Reference::new();
    for k in 0..SOCKET_SETUPS / 2 {
        // Stop the previous daemon first: only one runs at a time.
        drop(kept.take());
        let kernel_s = reference.run();
        let (d, stream, full, r_lines, s) = start_socket_daemon(bin, &format!("{path}{k}"));
        setups.push(common::at_reference(s, kernel_s));
        kept = Some((d, stream, full, r_lines));
    }
    let (d, stream, mut full, mut r_lines) = kept.expect("at least one setup");
    let lr = open_loop(
        &stream,
        d.pid(),
        &sched,
        &mut full,
        &mut r_lines,
        &mut reference,
    );
    drain(&stream, &mut full, &mut r_lines);
    drop(stream);
    let daemon = d.stop();
    for k in SOCKET_SETUPS / 2..SOCKET_SETUPS {
        let kernel_s = reference.run();
        let (d, stream, _, _, s) = start_socket_daemon(bin, &format!("{path}{k}"));
        setups.push(common::at_reference(s, kernel_s));
        drop(stream);
        drop(d);
    }

    report.failed = lr.failures + sched.arrivals.saturating_sub(lr.placed);
    if lr.placed != sched.arrivals || lr.failures > 0 {
        report.fail(format!(
            "{} placed lines and {} failures for {} arrivals",
            lr.placed, lr.failures, sched.arrivals
        ));
    }
    let tel = Telemetry::from_lines(&r_lines);
    if tel.cost != sched.cost {
        let bad = sched
            .cost
            .iter()
            .filter(|(t, c)| tel.cost.get(*t) != Some(c))
            .count();
        report.fail(format!(
            "{bad} tenants' drained cost differs from the batch engine's"
        ));
    }
    let input: Vec<u8> = setup_lines()
        .into_iter()
        .chain(sched.lines.iter().flat_map(|l| l.bytes.iter().copied()))
        .chain(drain_lines())
        .collect();
    let bytes_in = input.len() as u64;
    report.expect_counters("daemon", &telemetry_counters(&tel, full.value(), bytes_in));
    report.counters.insert("placed".to_string(), lr.placed);
    let looseness = tel.cost.values().sum::<u128>() as f64 / sched.lower as f64;
    let late_p99 = common::quantile(&lr.late_us, 0.99);
    report.notes.push(format!(
        "tenants_socket: {TENANTS} tenants, {} lines, {} arrivals offered at {per_s}/s, \
         generator late p99 {late_p99:.1} us, backlog grew: {}",
        sched.lines.len(),
        sched.arrivals,
        lr.backlog_grew
    ));
    let pooled: Vec<f64> = lr.latencies_us.iter().map(|&(_, l)| l).collect();
    let qs: Vec<String> = [0.5, 0.9, 0.95, 0.98, 0.99, 0.995, 0.999]
        .iter()
        .map(|&q| format!("p{}={:.1}", q * 100.0, common::quantile(&pooled, q)))
        .collect();
    report
        .notes
        .push(format!("placement latency us (pooled): {}", qs.join(" ")));
    // Per-second windows: the host's scheduling stalls hit some windows
    // hard, so each quantile is the median over windows. A window's
    // quantiles are scaled by the kernel run in the pause after it; a
    // window whose pause had no room for the kernel is left out.
    let mut windows: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for &(w, l) in &lr.latencies_us {
        windows.entry(w).or_default().push(l);
    }
    let kernel: BTreeMap<u64, f64> = lr.pauses.iter().map(|p| (p.window, p.kernel_s)).collect();
    let per_window = |q: f64| -> Vec<f64> {
        windows
            .iter()
            .filter_map(|(w, l)| {
                let k = kernel.get(w)?;
                Some(common::at_reference(common::quantile(l, q), *k))
            })
            .collect()
    };
    let (w50, w95) = (per_window(0.5), per_window(0.95));
    report.notes.push(format!(
        "placement latency us per 1 s window, scaled, {} of {} windows: p50 {:?} p95 {:?}",
        w50.len(),
        windows.len(),
        w50.iter().map(|v| v.round()).collect::<Vec<_>>(),
        w95.iter().map(|v| v.round()).collect::<Vec<_>>()
    ));
    if w50.is_empty() {
        report.fail("no pause had room for the reference kernel".to_string());
    }
    // The daemon's output must equal an in-process replay of the same
    // bytes, which also pins its `bytes_out` and `out_hash` counters.
    let untraced = mirror(&input, true, false, false);
    let traced = trace.then(|| mirror(&input, true, false, true));
    for (name, m) in [("untraced", Some(&untraced)), ("traced", traced.as_ref())] {
        if m.is_some_and(|m| m.out != full.value()) {
            report.fail(format!(
                "{name} in-process mirror output differs from the daemon's"
            ));
        }
    }
    if !report.correct {
        report.failed = report.failed.max(1);
    }
    // Arrivals per second of the daemon's own CPU time between pauses,
    // scaled by the kernel run in the later pause: under an open loop the
    // wall-clock rate is the offered rate, whatever the daemon costs.
    let mut since = (lr.start_cpu_s, 0);
    let rates: Vec<f64> = lr
        .pauses
        .iter()
        .map(|p| {
            let (cpu, sent) = (p.daemon_cpu_s - since.0, p.sent - since.1);
            since = (p.daemon_cpu_s, p.sent);
            sent as f64 / common::at_reference(cpu, p.kernel_s).max(1e-9)
        })
        .collect();
    report.notes.push(format!(
        "daemon CPU {:.3} s for {} arrivals, peak {:.1} MB, {} pauses, kernel median {:.5} s",
        daemon.cpu_s,
        sched.arrivals,
        daemon.peak_rss_mb,
        lr.pauses.len(),
        common::median(&lr.pauses.iter().map(|p| p.kernel_s).collect::<Vec<_>>())
    ));

    let Some(traced) = traced else {
        common::push_e2e_quantiles(
            &mut report,
            common::median(&setups),
            common::median(&rates),
            (common::median(&w50), common::median(&w95)),
            daemon.peak_rss_mb,
            looseness,
        );
        return report;
    };
    let mut v = common::layer_metrics();
    serve_layers(
        &mut v,
        &traced,
        &untraced,
        sched.arrivals,
        bytes_in,
        TENANTS,
        &tel,
    );
    v.insert("loadgen.late_p99_us", late_p99);
    v.insert("loadgen.backlog_grew", f64::from(u8::from(lr.backlog_grew)));
    report
        .notes
        .extend(traced.spans.as_ref().expect("traced").table());
    common::push_layers(&mut report, &v);
    report
}
