//! Pieces every workload shares: the run report, medians and quantiles,
//! the stable output hash, peak-memory readings and the span tracer that
//! times calls into the program's layers from outside.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::Hasher;
use std::time::Instant;

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Every correctness gate passed.
    pub correct: bool,
    /// Operations attempted (arrivals, brackets).
    pub attempted: u64,
    /// Operations that got an error, an overload, no placement, or a
    /// failed check.
    pub failed: u64,
    /// `(name, value, unit)` in the order `BENCHMARK.json` lists them.
    pub metrics: Vec<(String, f64, String)>,
    /// Deterministic work counters: identical on every pass over the same
    /// inputs, and across runs with the same seed.
    pub counters: BTreeMap<String, u64>,
    /// Human-readable lines printed before the JSON result.
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    /// Records a failed check: the run is no longer correct.
    pub fn fail(&mut self, why: String) {
        self.correct = false;
        self.notes.push(format!("CHECK FAILED: {why}"));
    }

    /// Merges one pass's counters: the first pass sets them, every later
    /// pass must repeat them exactly.
    pub fn expect_counters(&mut self, pass: &str, counters: &BTreeMap<String, u64>) {
        if self.counters.is_empty() {
            self.counters = counters.clone();
        } else if &self.counters != counters {
            let diff: Vec<String> = counters
                .iter()
                .filter(|(k, v)| self.counters.get(*k) != Some(v))
                .map(|(k, v)| format!("{k}: {:?} vs {v}", self.counters.get(k)))
                .collect();
            self.fail(format!(
                "work counters of pass `{pass}` differ: {}",
                diff.join(", ")
            ));
        }
    }

    /// A digest of the counters, printed so two runs can be compared.
    pub fn counters_digest(&self) -> u64 {
        let mut h = DefaultHasher::new();
        for (k, v) in &self.counters {
            h.write(k.as_bytes());
            h.write_u64(*v);
        }
        h.finish()
    }
}

/// Median of a sample (0 for an empty one).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU seconds this process has run (`CLOCK_PROCESS_CPUTIME_ID`). The
/// kernel leaves out the time the host took the virtual CPU away (steal)
/// and the time other processes held it.
pub fn cpu_s() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable struct with the kernel's
    // `timespec` layout for this target, and clock_gettime writes only it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime failed");
    ts.sec as f64 + ts.nsec as f64 / 1e9
}

/// About the CPU seconds the reference kernel takes on the 2-vCPU Xeon VM
/// (2.1 GHz) the benchmark was tuned on, when that host was quiet.
pub const REFERENCE_S: f64 = 0.006;

/// Host-speed reference: a fixed piece of the benchmark's own work, timed
/// on the same CPU right before the work it scales. Half of it computes
/// (integer formatting and parsing, binary-heap pushes and pops in cache),
/// half of it waits on memory (random read-modify-writes over a 64 MB
/// table). The shared hosts this runs on change speed by a quarter between
/// seconds and by up to 2× between hours, through other tenants' load on
/// the caches, the memory and the clock; the program and the kernel slow
/// down together, so the ratio of their CPU times holds while either alone
/// measures the host. In 100-second series on such a host, the medians of
/// 10-second stretches spread (quartile distance over median) 0.05–0.07
/// unscaled and 0.02–0.03 scaled (see the README). The kernel calls none
/// of the program's code, so a change to the program moves the scaled
/// time in full.
pub struct Reference {
    table: Vec<u64>,
    heap: std::collections::BinaryHeap<u64>,
    text: Vec<u8>,
}

impl Reference {
    pub fn new() -> Reference {
        let mut r = Reference {
            table: (0..1u64 << 23).collect(),
            heap: std::collections::BinaryHeap::with_capacity(1 << 15),
            text: Vec::with_capacity(1 << 20),
        };
        // Fault the buffers in before anything is timed.
        r.run();
        r
    }

    fn kernel(&mut self) -> u64 {
        use std::io::Write;
        let mut acc = 0u64;
        self.text.clear();
        self.heap.clear();
        for i in 0..40_000u64 {
            write!(
                self.text,
                "{},",
                i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 20
            )
            .expect("write to a Vec");
            self.heap.push(i.wrapping_mul(0x9e37_79b9) & 0xffff);
            if i % 2 == 0 {
                acc ^= self.heap.pop().unwrap_or(0);
            }
        }
        for field in self.text.split(|&b| b == b',') {
            if let Ok(s) = std::str::from_utf8(field) {
                acc = acc.wrapping_add(s.parse::<u64>().unwrap_or(1));
            }
        }
        let mask = self.table.len() - 1;
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..300_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = x as usize & mask;
            acc = acc.wrapping_add(self.table[i]);
            self.table[i] = acc ^ x;
        }
        acc
    }

    /// MB the reference holds resident for the whole run, which an
    /// in-process workload's peak memory leaves out.
    pub fn resident_mb(&self) -> f64 {
        let bytes = self.table.capacity() * 8 + self.heap.capacity() * 8 + self.text.capacity();
        bytes as f64 / (1024.0 * 1024.0)
    }

    /// Runs the kernel twice and returns the CPU seconds of the second
    /// run. The first refills the caches with the kernel's data, so the
    /// timed run does not depend on what the work before it left there: a
    /// program that evicted more of the table would otherwise slow the
    /// kernel and hide part of its own slowdown.
    pub fn run(&mut self) -> f64 {
        std::hint::black_box(self.kernel());
        let t = cpu_s();
        std::hint::black_box(self.kernel());
        cpu_s() - t
    }
}

/// `seconds` of CPU time measured next to a kernel run of `kernel_s`,
/// scaled to the reference speed.
pub fn at_reference(seconds: f64, kernel_s: f64) -> f64 {
    seconds * REFERENCE_S / kernel_s
}

/// Nearest-rank quantile `q ∈ [0, 1]` of a sample (0 for an empty one).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// A stable hash of a byte stream fed in pieces, plus its length: two
/// streams are taken as identical when both agree.
#[derive(Clone)]
pub struct StreamHash {
    h: DefaultHasher,
    pub bytes: u64,
}

impl StreamHash {
    pub fn new() -> StreamHash {
        StreamHash {
            h: DefaultHasher::new(),
            bytes: 0,
        }
    }

    pub fn feed(&mut self, b: &[u8]) {
        self.h.write(b);
        self.bytes += b.len() as u64;
    }

    pub fn value(&self) -> (u64, u64) {
        (self.h.finish(), self.bytes)
    }
}

impl std::io::Write for StreamHash {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.feed(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// Linux `struct rusage` (x86-64 / aarch64 layout): two timevals, then
/// fourteen longs of which `ru_maxrss` (KiB) is the first.
#[repr(C)]
#[derive(Default)]
pub struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// CPU time and peak memory of one process.
pub struct Usage {
    /// User plus system CPU seconds.
    pub cpu_s: f64,
    /// Peak resident memory in MB.
    pub peak_rss_mb: f64,
}

impl From<&Rusage> for Usage {
    fn from(ru: &Rusage) -> Usage {
        let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
        Usage {
            cpu_s: secs(&ru.utime) + secs(&ru.stime),
            peak_rss_mb: ru.maxrss as f64 / 1024.0,
        }
    }
}

/// Peak resident memory of this process in MB.
pub fn peak_rss_mb() -> f64 {
    const RUSAGE_SELF: i32 = 0;
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a live, writable struct with the kernel's `rusage`
    // layout for this target, and getrusage writes only within it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage failed");
    Usage::from(&ru).peak_rss_mb
}

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread, and every process it spawns afterwards, to
/// CPU 0. Does nothing if the kernel refuses.
pub fn pin_to_first_cpu() {
    let mask = [1u64, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0];
    // SAFETY: `mask` is a live 1024-bit CPU set of the size passed, which
    // the kernel only reads; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
}

/// Layer id into [`Spans`]' tables.
pub type Layer = usize;

/// In-memory span aggregation per layer: call count, total and self time,
/// and a log₂ histogram of span durations. Spans nest: a span's self time
/// is its duration minus the spans opened inside it.
pub struct Spans {
    names: Vec<&'static str>,
    count: Vec<u64>,
    total_ns: Vec<u64>,
    child_ns: Vec<u64>,
    hist: Vec<[u64; 40]>,
    stack: Vec<(Layer, Instant, u64)>,
}

impl Spans {
    pub fn new(names: &[&'static str]) -> Spans {
        let n = names.len();
        Spans {
            names: names.to_vec(),
            count: vec![0; n],
            total_ns: vec![0; n],
            child_ns: vec![0; n],
            hist: vec![[0; 40]; n],
            stack: Vec::with_capacity(8),
        }
    }

    pub fn layer(&self, name: &str) -> Layer {
        self.names
            .iter()
            .position(|&n| n == name)
            .unwrap_or_else(|| panic!("unknown layer {name}"))
    }

    #[inline]
    pub fn enter(&mut self, layer: Layer) {
        self.stack.push((layer, Instant::now(), 0));
    }

    #[inline]
    pub fn exit(&mut self) {
        let (layer, start, children) = self.stack.pop().expect("span stack underflow");
        let d = start.elapsed().as_nanos() as u64;
        self.count[layer] += 1;
        self.total_ns[layer] += d;
        self.child_ns[layer] += children;
        self.hist[layer][(64 - d.leading_zeros() as usize).min(39)] += 1;
        if let Some(parent) = self.stack.last_mut() {
            parent.2 += d;
        }
    }

    /// Times `f` as one span of `layer`.
    #[inline]
    pub fn time<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        self.enter(layer);
        let r = f();
        self.exit();
        r
    }

    pub fn self_ns(&self, name: &str) -> u64 {
        let l = self.layer(name);
        self.total_ns[l] - self.child_ns[l]
    }

    /// Sum of every layer's self time: the part of a traced pass the
    /// layers account for.
    pub fn attributed_ns(&self) -> u64 {
        (0..self.names.len())
            .map(|l| self.total_ns[l] - self.child_ns[l])
            .sum()
    }

    /// One line per layer: count, total, self, and the log₂ histogram as
    /// `2^k:count` for its non-empty buckets.
    pub fn table(&self) -> Vec<String> {
        (0..self.names.len())
            .filter(|&l| self.count[l] > 0)
            .map(|l| {
                let buckets: Vec<String> = self.hist[l]
                    .iter()
                    .enumerate()
                    .filter(|(_, &c)| c > 0)
                    .map(|(k, c)| format!("<2^{k}ns:{c}"))
                    .collect();
                format!(
                    "layer {:<22} calls {:>9} total_ms {:>10.3} self_ms {:>10.3} hist {}",
                    self.names[l],
                    self.count[l],
                    self.total_ns[l] as f64 / 1e6,
                    (self.total_ns[l] - self.child_ns[l]) as f64 / 1e6,
                    buckets.join(" ")
                )
            })
            .collect()
    }
}

/// Appends the end-to-end metrics in `BENCHMARK.json` order, with the
/// latency quantiles taken over `samples` (µs).
pub fn push_e2e(
    report: &mut Report,
    setup_s: f64,
    items_per_s: f64,
    samples: &[f64],
    peak_rss_mb: f64,
    looseness: f64,
) {
    let p = (quantile(samples, 0.5), quantile(samples, 0.95));
    push_e2e_quantiles(report, setup_s, items_per_s, p, peak_rss_mb, looseness);
}

/// [`push_e2e`] with the latency `(p50, p95)` already computed.
pub fn push_e2e_quantiles(
    report: &mut Report,
    setup_s: f64,
    items_per_s: f64,
    (p50, p95): (f64, f64),
    peak_rss_mb: f64,
    looseness: f64,
) {
    let ok = 1.0 - report.failed as f64 / report.attempted.max(1) as f64;
    report.metric("setup_s", setup_s, "s");
    report.metric("items_per_s", items_per_s, "1/s");
    report.metric("op_p50_us", p50, "us");
    report.metric("op_p95_us", p95, "us");
    report.metric("peak_rss_mb", peak_rss_mb, "MB");
    report.metric("ok_share", ok, "share");
    report.metric("bracket_looseness", looseness, "ratio");
}

/// Every per-layer metric `BENCHMARK.json` names, with its unit. A traced
/// run reports all of them; layers a workload never calls read 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("main.read_ns", "ns/op"),
    ("main.write_ns", "ns/op"),
    ("protocol.parse_ns", "ns/op"),
    ("protocol.bytes_in", "B/op"),
    ("state.session_ns", "ns/op"),
    ("state.tenants", "count"),
    ("session.arrival_ns", "ns/op"),
    ("session.clock_ns", "ns/op"),
    ("session.control_ns", "ns/op"),
    ("session.take_output_ns", "ns/op"),
    ("session.bytes_out", "B/op"),
    ("session.compactions", "count"),
    ("algos.decide_ns", "ns/op"),
    ("algos.decisions", "count"),
    ("engine.arrive_self_ns", "ns/op"),
    ("engine.finish_ns", "ns/op"),
    ("engine.tree_queries", "count"),
    ("engine.linear_scans", "count"),
    ("engine.heap_pops", "count"),
    ("engine.events", "count"),
    ("engine.readmissions", "count"),
    ("bins.peak_open", "count"),
    ("engine.fast_share", "share"),
    ("offline.analytic_ns", "ns/op"),
    ("offline.exact_r_ns", "ns/op"),
    ("offline.ffd_repack_ns", "ns/op"),
    ("offline.portfolio_ns", "ns/op"),
    ("offline.exact_nr_ns", "ns/op"),
    ("offline.exact_nr_nodes", "count"),
    ("bracket.exact_share", "share"),
    ("loadgen.late_p99_us", "us"),
    ("loadgen.backlog_grew", "count"),
    ("trace.total_ns", "ns/op"),
    ("trace.unattributed_share", "share"),
    ("trace.overhead_share", "share"),
];

/// The per-layer metric set with every value 0, for a workload to fill.
pub fn layer_metrics() -> BTreeMap<&'static str, f64> {
    LAYER_METRICS.iter().map(|&(n, _)| (n, 0.0)).collect()
}

/// Appends the per-layer metrics to `report` in `LAYER_METRICS` order.
pub fn push_layers(report: &mut Report, values: &BTreeMap<&'static str, f64>) {
    for &(name, unit) in LAYER_METRICS {
        report.metric(name, values[name], unit);
    }
}

/// Tracing overhead as a share of the untraced time.
pub fn overhead_share(traced_ns: u64, untraced_ns: u64) -> f64 {
    (traced_ns as f64 - untraced_ns as f64) / untraced_ns.max(1) as f64
}

/// Share of a traced pass's wall time that no layer's span covers.
pub fn unattributed_share(wall_ns: u64, attributed_ns: u64) -> f64 {
    (wall_ns as f64 - attributed_ns as f64) / wall_ns.max(1) as f64
}
