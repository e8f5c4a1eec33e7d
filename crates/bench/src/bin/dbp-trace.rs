//! Engine-trace tooling: record a run's event stream as JSONL, replay a
//! recorded stream through the invariant auditor, and diff two streams.
//!
//! ```text
//! dbp-trace record <trace.csv> --algo NAME [-o out.jsonl]
//! dbp-trace replay <run.jsonl>
//! dbp-trace diff <a.jsonl> <b.jsonl>
//! ```
//!
//! `record` runs an algorithm over an instance CSV (the `dbp-gen` /
//! `dbp-pack` format) and writes one JSON object per engine event —
//! arrivals, placements (fast-path vs. scan), bin lifecycle, departures,
//! clock motion — to stdout or `-o`. `replay` reconstructs the bin store
//! from a recorded stream with an [`InvariantAuditor`] attached, verifying
//! the same invariants a live run gets. `diff` compares two streams
//! event-by-event and names the first divergence; identical-seed runs must
//! report zero divergence.

use std::process::ExitCode;

use dbp_core::trace::{parse_jsonl, EngineEvent, EventSink, JsonlSink};
use dbp_core::{engine, BinStore, Dur, InvariantAuditor, ItemId, SimConfig, SizeVec, SIM_FLAGS};
use dbp_workloads::parse_trace;

fn usage() -> ! {
    eprintln!(
        "usage: dbp-trace record <trace.csv> --algo NAME [-o out.jsonl]\n\
         \u{20}             [--fail-rate F] [--fail-seed N] [--fail-mtbf T]\n\
         \u{20}             [--retry immediate|fixed=<t>|exp=<t>]\n\
         \u{20}             [--recourse none|epoch=<k>|amortized=<earn>[/<burst>]|unlimited]\n\
         \u{20}      dbp-trace replay <run.jsonl>\n\
         \u{20}      dbp-trace diff <a.jsonl> <b.jsonl>\n\
         algorithms: {:?}",
        dbp_algos::registry_names()
    );
    std::process::exit(2);
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1);
    })
}

fn load_events(path: &str) -> Vec<EngineEvent> {
    parse_jsonl(&read(path)).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(1);
    })
}

fn record(args: &[String]) -> ExitCode {
    let mut input = None;
    let mut algo_name = None;
    let mut out_path = None;
    let mut fail_mtbf = 1000u64;
    let mut sim_flags = Vec::new();
    let next = |it: &mut std::slice::Iter<String>| it.next().cloned().unwrap_or_else(|| usage());
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--algo" => algo_name = Some(next(&mut it)),
            "-o" | "--out" => out_path = Some(next(&mut it)),
            "--fail-mtbf" => fail_mtbf = next(&mut it).parse().unwrap_or_else(|_| usage()),
            flag if SIM_FLAGS.contains(&flag) => {
                sim_flags.push((flag, it.next().map(String::as_str)))
            }
            other => input = Some(other.to_string()),
        }
    }
    let sim = SimConfig::from_flags(sim_flags, 0, Dur(fail_mtbf)).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let (Some(input), Some(algo_name)) = (input, algo_name) else {
        usage()
    };
    let Some(algo) = dbp_algos::by_name(&algo_name) else {
        eprintln!("unknown algorithm '{algo_name}' (see --help)");
        return ExitCode::from(2);
    };
    let inst = parse_trace(&read(&input)).unwrap_or_else(|e| {
        eprintln!("bad trace: {e}");
        std::process::exit(1);
    });

    let out: Box<dyn std::io::Write> = match &out_path {
        Some(p) => Box::new(std::fs::File::create(p).unwrap_or_else(|e| {
            eprintln!("cannot create {p}: {e}");
            std::process::exit(1);
        })),
        None => Box::new(std::io::stdout().lock()),
    };
    let recourse = sim.recourse;
    let mut sink = JsonlSink::new(std::io::BufWriter::new(out));
    let res = engine::run_with_config(&inst, algo, sim, &mut sink).unwrap_or_else(|e| {
        eprintln!("{algo_name}: illegal move: {e}");
        std::process::exit(1);
    });
    let written = sink.written();
    if let Err(e) = sink.finish() {
        if dbp_bench::pipe::is_broken_pipe(&e) {
            return ExitCode::SUCCESS; // consumer closed the pipe — done
        }
        eprintln!("write failed: {e}");
        return ExitCode::FAILURE;
    }
    let m = &res.metrics;
    eprintln!(
        "{algo_name}: {} events, cost {}, {} bins (peak {}), \
         placements {} fast / {} scan, {} tree queries, {} linear scans, \
         {} compactions",
        written,
        res.cost,
        res.bins_opened,
        res.max_open,
        m.fast_path_placements,
        m.scan_placements,
        m.tree_queries,
        m.linear_scans,
        m.tree_compactions,
    );
    let r = &res.resilience;
    if r.bin_failures > 0 {
        eprintln!(
            "{algo_name}: {} bin failures, {} displaced, {} readmitted, {} dropped",
            r.bin_failures, r.displacements, r.readmissions, r.dropped,
        );
    }
    let rc = &res.recourse;
    if rc.any() {
        eprintln!(
            "{algo_name}: {} migrations ({} closures) over {} epochs under {recourse}",
            rc.migrations, rc.migration_closures, rc.epochs,
        );
    }
    ExitCode::SUCCESS
}

/// Rebuilds the bin store from a recorded stream, forwarding every event
/// to the auditor at the same store state a live run would present.
fn replay(path: &str) -> ExitCode {
    let events = load_events(path);
    let mut store = BinStore::new();
    let mut auditor = InvariantAuditor::new();
    // Size of the arrival awaiting placement (the stream interleaves
    // exactly one Placed after each Arrival).
    let mut pending: Option<(ItemId, SizeVec)> = None;
    for (i, ev) in events.iter().enumerate() {
        match *ev {
            EngineEvent::Arrival { item, size, .. } => {
                auditor.on_event(ev, &store);
                pending = Some((item, size));
            }
            EngineEvent::BinOpened { bin, at } => {
                let opened = store.open(at);
                if opened != bin {
                    eprintln!("{path}: event #{i}: stream opens {bin} but replay opened {opened}");
                    return ExitCode::FAILURE;
                }
                auditor.on_event(ev, &store);
            }
            EngineEvent::Placed { item, bin, .. } => {
                match pending.take() {
                    Some((p_item, size)) if p_item == item => store.add(bin, item, size),
                    _ => {
                        eprintln!("{path}: event #{i}: placement of {item} without its arrival");
                        return ExitCode::FAILURE;
                    }
                }
                auditor.on_event(ev, &store);
            }
            EngineEvent::Departure {
                item,
                at,
                bin,
                size,
            } => {
                store.remove(bin, item, size, at);
                auditor.on_event(ev, &store);
            }
            EngineEvent::ItemDisplaced {
                item,
                at,
                bin,
                size,
            } => {
                // A displacement drains the store exactly like a departure
                // (the final one closes the failed bin), mirroring the live
                // engine's remove-then-emit order.
                store.remove(bin, item, size, at);
                auditor.on_event(ev, &store);
            }
            EngineEvent::ItemReadmitted { item, size, .. } => {
                // Like an arrival: the auditor probes First-Fit against the
                // pre-placement store, then the next Placed consumes this.
                auditor.on_event(ev, &store);
                pending = Some((item, size));
            }
            EngineEvent::ItemMigrated {
                item,
                at,
                from,
                to,
                size,
                ..
            } => {
                // Mirror the live engine's remove-then-add order so the
                // auditor sees the same store state at the event: the final
                // removal closes the source, then the item re-books.
                store.remove(from, item, size, at);
                store.add(to, item, size);
                auditor.on_event(ev, &store);
            }
            EngineEvent::BinFailed { .. }
            | EngineEvent::BinClosed { .. }
            | EngineEvent::ClockAdvanced { .. } => {
                auditor.on_event(ev, &store);
            }
        }
        if let Some(v) = auditor.violation() {
            eprintln!("{path}: {v}");
            return ExitCode::FAILURE;
        }
    }
    println!(
        "{path}: {} events replayed cleanly; ∫open dt = {}, Σ intervals = {}",
        events.len(),
        auditor.integral_cost(),
        auditor.interval_cost(),
    );
    ExitCode::SUCCESS
}

fn diff(path_a: &str, path_b: &str) -> ExitCode {
    let a = load_events(path_a);
    let b = load_events(path_b);
    let common = a.len().min(b.len());
    for i in 0..common {
        if a[i] != b[i] {
            println!("first divergence at event #{i}:");
            println!("  {path_a}: {:?}", a[i]);
            println!("  {path_b}: {:?}", b[i]);
            return ExitCode::FAILURE;
        }
    }
    if a.len() != b.len() {
        println!(
            "streams agree on the first {common} events, but lengths differ: \
             {path_a} has {}, {path_b} has {}",
            a.len(),
            b.len()
        );
        return ExitCode::FAILURE;
    }
    println!("zero divergence: {} events identical", a.len());
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    dbp_bench::pipe::install();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("record") => record(&args[1..]),
        Some("replay") if args.len() == 2 => replay(&args[1]),
        Some("diff") if args.len() == 3 => diff(&args[1], &args[2]),
        Some("--help") | Some("-h") => usage(),
        _ => usage(),
    }
}
