//! Regenerates the paper's tables and figures.
//!
//! ```text
//! experiments                 # list available experiment ids
//! experiments all             # run everything, print reports
//! experiments all --out DIR   # also write one .txt and .csv per report
//! experiments table1-ha fig3  # run a subset
//! experiments all --md report.md   # also write one combined markdown report
//! ```
//!
//! `--bracket-effort analytic|cached|budget=<ms>` and `--bracket-cache
//! DIR|off` configure the certified-bracket service the experiments query.
//! `--threads N` pins the sweep worker count (reports are byte-identical
//! across thread counts; `1` forces fully sequential sweeps).

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use dbp_bench::experiments::{registry, resilience, run_by_id};
use dbp_bench::{bracket, sweep, throughput};
use dbp_core::failure::RetryPolicy;
use dbp_core::size::MAX_DIMS;

fn main() {
    dbp_bench::pipe::install();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("throughput") => return run_throughput(&args[1..]),
        Some("bench-validate") => return run_bench_validate(&args[1..]),
        Some("serve-soak") => return run_serve_soak(&args[1..]),
        Some("run") => return run_manifest(&args[1..]),
        _ => {}
    }
    let mut out_dir: Option<PathBuf> = None;
    let mut md_path: Option<PathBuf> = None;
    let mut effort = bracket::Effort::Cached;
    let mut cache_dir: Option<PathBuf> = None;
    let mut fail_seed: Option<u64> = None;
    let mut retry: Option<RetryPolicy> = None;
    let mut ids: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--bracket-effort" => {
                let raw = it.next().unwrap_or_else(|| {
                    eprintln!("--bracket-effort requires analytic|cached|budget=<ms>");
                    std::process::exit(2);
                });
                effort = bracket::Effort::parse(&raw).unwrap_or_else(|| {
                    eprintln!("bad bracket effort '{raw}' (analytic|cached|budget=<ms>)");
                    std::process::exit(2);
                });
            }
            "--bracket-cache" => {
                let raw = it.next().unwrap_or_else(|| {
                    eprintln!("--bracket-cache requires a directory (or 'off')");
                    std::process::exit(2);
                });
                cache_dir = (raw != "off").then(|| PathBuf::from(raw));
            }
            "--out" => {
                let dir = it.next().unwrap_or_else(|| {
                    eprintln!("--out requires a directory");
                    std::process::exit(2);
                });
                out_dir = Some(PathBuf::from(dir));
            }
            "--md" => {
                let p = it.next().unwrap_or_else(|| {
                    eprintln!("--md requires a file path");
                    std::process::exit(2);
                });
                md_path = Some(PathBuf::from(p));
            }
            "--fail-seed" => {
                let raw = it.next().unwrap_or_else(|| {
                    eprintln!("--fail-seed requires an integer");
                    std::process::exit(2);
                });
                fail_seed = Some(raw.parse::<u64>().unwrap_or_else(|_| {
                    eprintln!("bad fail seed '{raw}' (expected u64)");
                    std::process::exit(2);
                }));
            }
            "--threads" => {
                let raw = it.next().unwrap_or_else(|| {
                    eprintln!("--threads requires a positive worker count");
                    std::process::exit(2);
                });
                let n = raw
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| {
                        eprintln!("bad thread count '{raw}' (expected an integer ≥ 1)");
                        std::process::exit(2);
                    });
                sweep::set_threads(n);
            }
            "--retry" => {
                let raw = it.next().unwrap_or_else(|| {
                    eprintln!("--retry requires immediate|fixed=<ticks>|exp=<ticks>");
                    std::process::exit(2);
                });
                retry = Some(RetryPolicy::parse(&raw).unwrap_or_else(|| {
                    eprintln!("bad retry policy '{raw}' (immediate|fixed=<ticks>|exp=<ticks>)");
                    std::process::exit(2);
                }));
            }
            "--dims" => {
                let raw = it.next().unwrap_or_else(|| {
                    eprintln!("--dims requires a dimension count (1..={})", MAX_DIMS);
                    std::process::exit(2);
                });
                let d = raw
                    .parse::<usize>()
                    .ok()
                    .filter(|d| (1..=MAX_DIMS).contains(d))
                    .unwrap_or_else(|| {
                        eprintln!("bad dimension count '{raw}' (expected 1..={})", MAX_DIMS);
                        std::process::exit(2);
                    });
                dbp_bench::experiments::vector::configure(d);
            }
            "--help" | "-h" => {
                print_usage();
                return;
            }
            other => ids.push(other.to_string()),
        }
    }

    let svc = bracket::configure(effort, cache_dir.as_deref());
    if fail_seed.is_some() || retry.is_some() {
        let base = resilience::config();
        resilience::configure(fail_seed.unwrap_or(base.seed), retry.unwrap_or(base.retry));
    }

    if ids.is_empty() {
        print_usage();
        return;
    }
    if ids.iter().any(|i| i == "all") {
        ids = registry().iter().map(|(n, _)| n.to_string()).collect();
    }

    if let Some(dir) = &out_dir {
        fs::create_dir_all(dir).expect("create output directory");
    }

    let stdout = std::io::stdout();
    let mut lock = stdout.lock();
    let mut combined = String::from(
        "# Regenerated experiment report\n\nProduced by `experiments`; see EXPERIMENTS.md \
         for the paper-vs-measured discussion.\n\n",
    );
    for id in &ids {
        let started = Instant::now();
        let Some(report) = run_by_id(id) else {
            eprintln!("unknown experiment: {id} (run with no args to list)");
            std::process::exit(2);
        };
        let rendered = report.render();
        writeln!(lock, "{rendered}").expect("stdout");
        writeln!(lock, "({} finished in {:.2?})\n", id, started.elapsed()).expect("stdout");
        if let Some(dir) = &out_dir {
            fs::write(dir.join(format!("{id}.txt")), &rendered).expect("write report");
            if !report.table.is_empty() {
                fs::write(dir.join(format!("{id}.csv")), report.table.to_csv()).expect("write csv");
            }
        }
        combined.push_str("```text\n");
        combined.push_str(&rendered);
        combined.push_str("```\n\n");
    }
    if let Some(dir) = &out_dir {
        for (name, svg) in dbp_bench::experiments::svgs::generate() {
            fs::write(dir.join(&name), svg).expect("write svg");
        }
        eprintln!("svg figures written to {}", dir.display());
    }
    if let Some(path) = md_path {
        fs::write(&path, combined).expect("write markdown report");
        eprintln!("wrote combined report to {}", path.display());
    }
    let stats = svc.stats();
    eprintln!(
        "bracket service: effort {}, {} cold, {} warm ({} mem / {} disk)",
        effort,
        stats.computed,
        stats.warm(),
        stats.mem_hits,
        stats.disk_hits
    );
}

fn print_usage() {
    println!(
        "usage: experiments [--out DIR] [--md FILE] [--bracket-effort EFFORT] \
         [--bracket-cache DIR|off] [--threads N] [--fail-seed N] [--retry POLICY] \
         [--dims D] <id>... | all\n\
       experiments run MANIFEST.toml [--out DIR] [--threads N] \
         [--bracket-effort EFFORT] [--bracket-cache DIR|off]\n\
       experiments throughput [--items N] [--samples K] [--label L] \
         [--configs a,b,..] [--bench-out FILE]\n\
       experiments bench-validate FILE\n\
       experiments serve-soak [--items N] [--slack N] [--algo NAME] [--seed S]\n\n\
         `run` executes a manifest-declared experiment fleet (workload ×\n\
         algorithm × items × μ × dims × failure-rate grid; see DESIGN.md §17\n\
         for the schema) and renders its comparison table; with --out it also\n\
         writes <fleet>.txt/.csv, the optional SVG dashboard, and upserts the\n\
         optional per-cell results file. Reports are byte-identical across\n\
         --threads and re-runs resume through the bracket cache.\n\
         --fail-seed / --retry (immediate|fixed=<ticks>|exp=<ticks>) configure the\n\
         `resilience` experiment's crash stream and re-admission backoff.\n\
         --dims configures the `vector` experiment's dimension count (default 2).\n\
         --threads pins the sweep worker count; reports are byte-identical across\n\
         thread counts (single-flight bracket cache + seeded chunking).\n\
         `throughput` runs the engine-throughput harness (items/sec through the\n\
         full InteractiveSim on the pinned seeded workload); with --bench-out it\n\
         upserts entries into a BENCH_engine.json-style file. `bench-validate`\n\
         parses and schema-checks such a file, failing on drift.\n\navailable experiments:"
    );
    for (id, _) in registry() {
        println!("  {id}");
    }
}

/// `experiments run MANIFEST.toml`: execute a manifest-declared fleet.
///
/// Stdout carries only the rendered report (timings and cache stats go
/// to stderr), so two runs at different `--threads` can be byte-diffed
/// directly.
fn run_manifest(args: &[String]) {
    let mut path: Option<PathBuf> = None;
    let mut out_dir: Option<PathBuf> = None;
    let mut threads: Option<usize> = None;
    let mut effort = bracket::Effort::Cached;
    let mut cache_dir: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut take = |what: &str| {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("{arg} requires {what}");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--out" => out_dir = Some(PathBuf::from(take("a directory"))),
            "--threads" => {
                let raw = take("a positive worker count");
                threads = Some(
                    raw.parse::<usize>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .unwrap_or_else(|| {
                            eprintln!("bad thread count '{raw}' (expected an integer ≥ 1)");
                            std::process::exit(2);
                        }),
                );
            }
            "--bracket-effort" => {
                let raw = take("analytic|cached|budget=<ms>");
                effort = bracket::Effort::parse(&raw).unwrap_or_else(|| {
                    eprintln!("bad bracket effort '{raw}' (analytic|cached|budget=<ms>)");
                    std::process::exit(2);
                });
            }
            "--bracket-cache" => {
                let raw = take("a directory (or 'off')");
                cache_dir = (raw != "off").then(|| PathBuf::from(raw));
            }
            other if !other.starts_with('-') && path.is_none() => {
                path = Some(PathBuf::from(other));
            }
            other => {
                eprintln!("unknown run flag `{other}`");
                std::process::exit(2);
            }
        }
    }
    let Some(path) = path else {
        eprintln!("usage: experiments run MANIFEST.toml [--out DIR] [--threads N]");
        std::process::exit(2);
    };
    let text = fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("cannot read {}: {e}", path.display());
        std::process::exit(2);
    });
    let m = dbp_bench::manifest::Manifest::parse(&text).unwrap_or_else(|e| {
        eprintln!("{}: {e}", path.display());
        std::process::exit(2);
    });
    let threads = threads.or((m.threads > 0).then_some(m.threads));

    let svc = bracket::configure(effort, cache_dir.as_deref());
    let started = Instant::now();
    let report = dbp_bench::manifest::run_fleet(&m, threads);
    let rendered = report.render();
    print!("{rendered}");
    eprintln!(
        "fleet `{}`: {} cells in {:.2?}",
        report.name,
        report.cells.len(),
        started.elapsed()
    );

    if let Some(dir) = &out_dir {
        fs::create_dir_all(dir).expect("create output directory");
        fs::write(dir.join(format!("{}.txt", report.name)), &rendered).expect("write report");
        fs::write(
            dir.join(format!("{}.csv", report.name)),
            report.table.to_csv(),
        )
        .expect("write csv");
        if let Some(svg) = &m.svg {
            fs::write(dir.join(svg), dbp_bench::manifest::dashboard_svg(&report))
                .expect("write svg dashboard");
        }
        if let Some(results) = &m.results {
            let target = dir.join(results);
            let existing = target
                .exists()
                .then(|| fs::read_to_string(&target).expect("read existing results file"));
            let merged = dbp_bench::manifest::upsert_results(existing.as_deref(), &report)
                .unwrap_or_else(|e| {
                    eprintln!("{}: {e}", target.display());
                    std::process::exit(2);
                });
            fs::write(&target, merged).expect("write results file");
        }
        eprintln!("fleet artifacts written to {}", dir.display());
    }
    let stats = svc.stats();
    eprintln!(
        "bracket service: effort {}, {} cold, {} warm ({} mem / {} disk)",
        effort,
        stats.computed,
        stats.warm(),
        stats.mem_hits,
        stats.disk_hits
    );
}

/// `experiments serve-soak`: a long churn stream through one daemon
/// session — exercises the compaction policy for real and fails (exit 1)
/// if the item table ever exceeds its bound, so CI can assert that
/// steady-state memory tracks the live set, not the item count.
fn run_serve_soak(args: &[String]) {
    use dbp_core::EngineEvent;
    use dbp_serve::protocol::{Op, Request};
    use dbp_serve::{ServeConfig, Session};
    use dbp_workloads::{random_general, DurationDist, GeneralConfig};

    let mut items = 200_000usize;
    let mut slack = 64usize;
    let mut algo = String::from("first-fit");
    let mut seed = 1u64;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut take = |what: &str| {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("{arg} requires {what}");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--items" => {
                items = take("an item count")
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| {
                        eprintln!("bad item count");
                        std::process::exit(2);
                    })
            }
            "--slack" => {
                slack = take("a slack").parse().unwrap_or_else(|_| {
                    eprintln!("bad slack");
                    std::process::exit(2);
                })
            }
            "--algo" => algo = take("an algorithm name"),
            "--seed" => {
                seed = take("a seed").parse().unwrap_or_else(|_| {
                    eprintln!("bad seed");
                    std::process::exit(2);
                })
            }
            other => {
                eprintln!("unknown serve-soak flag `{other}`");
                std::process::exit(2);
            }
        }
    }

    // Short-lived items trickling in: the live set stays small while the
    // total item count — what an uncompacted table would hold — grows
    // without bound.
    let wl = GeneralConfig {
        items,
        mean_gap: 2,
        durations: DurationDist::Fixed { ticks: 8 },
        size_range: (5, 30, 100),
    };
    let inst = random_general(&wl, seed);
    let cfg = ServeConfig {
        algo,
        compact_slack: slack,
        ..ServeConfig::default()
    };
    let mut session = Session::new("soak", &cfg).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });

    let bound_slack = slack.max(1);
    let started = Instant::now();
    let mut peak_live = 0usize;
    let mut peak_table = 0usize;
    let mut response_bytes = 0usize;
    let mut violations = 0usize;
    for item in inst.items() {
        session.handle(&Request::Event {
            tenant: None,
            event: EngineEvent::Arrival {
                item: dbp_core::ItemId(0),
                at: item.arrival,
                size: item.size,
                departure: Some(item.departure),
            },
        });
        response_bytes += session.take_output().len();
        let (live, table) = (session.live_items(), session.table_len());
        peak_live = peak_live.max(live);
        peak_table = peak_table.max(table);
        if table >= 2 * live + bound_slack {
            violations += 1;
        }
    }
    session.handle(&Request::Control {
        tenant: None,
        op: Op::Drain,
    });
    response_bytes += session.take_output().len();
    let elapsed = started.elapsed();

    let m = session.effective_metrics();
    println!(
        "serve-soak: {items} items in {:.2}s ({:.0} items/s), {} response bytes",
        elapsed.as_secs_f64(),
        items as f64 / elapsed.as_secs_f64().max(1e-9),
        response_bytes,
    );
    println!(
        "serve-soak: peak live {peak_live}, peak table {peak_table} \
         (bound 2*live+{bound_slack}), final cost {}",
        session.effective_cost(),
    );
    assert_eq!(m.arrivals, items as u64, "every arrival must be played");
    if violations > 0 {
        eprintln!("serve-soak: table bound violated after {violations} events");
        std::process::exit(1);
    }
    if items >= 10 * peak_live.max(1) {
        println!(
            "serve-soak: churn factor {}x — steady-state memory is bounded",
            items / peak_live.max(1)
        );
    }
}

/// `experiments throughput`: run the engine harness, print one line per
/// configuration, and optionally upsert the results into a bench file.
fn run_throughput(args: &[String]) {
    let mut items = 1_000_000usize;
    let mut samples = 5usize;
    let mut label = String::from("local");
    let mut configs: Vec<throughput::Config> = throughput::Config::ALL.to_vec();
    let mut bench_out: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut take = |what: &str| {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("{arg} requires {what}");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--items" => {
                let raw = take("an item count");
                items = raw.parse().ok().filter(|&n| n > 0).unwrap_or_else(|| {
                    eprintln!("bad item count '{raw}'");
                    std::process::exit(2);
                });
            }
            "--samples" => {
                let raw = take("a sample count");
                samples = raw.parse().ok().filter(|&n| n > 0).unwrap_or_else(|| {
                    eprintln!("bad sample count '{raw}'");
                    std::process::exit(2);
                });
            }
            "--label" => label = take("a label"),
            "--configs" => {
                let raw = take("a comma-separated config list");
                configs = raw
                    .split(',')
                    .map(|s| {
                        throughput::Config::parse(s.trim()).unwrap_or_else(|| {
                            eprintln!(
                                "unknown config '{s}' (expected one of: {})",
                                throughput::Config::ALL.map(|c| c.id()).join(", ")
                            );
                            std::process::exit(2);
                        })
                    })
                    .collect();
            }
            "--bench-out" => bench_out = Some(PathBuf::from(take("a file path"))),
            other => {
                eprintln!("unknown throughput flag '{other}'");
                std::process::exit(2);
            }
        }
    }

    let mut file = match &bench_out {
        Some(path) if path.exists() => {
            let text = fs::read_to_string(path).expect("read bench file");
            throughput::BenchFile::parse(&text).unwrap_or_else(|e| {
                eprintln!("existing {} is invalid: {e}", path.display());
                std::process::exit(2);
            })
        }
        _ => throughput::BenchFile::new(),
    };

    println!(
        "engine throughput: {items} items, {samples} samples, workload seed {}",
        throughput::WORKLOAD_SEED
    );
    for config in configs {
        let started = Instant::now();
        let m = throughput::measure(throughput::Workload::pinned(items), config, samples);
        println!(
            "  {:<12} median {:>12.0} items/s  best {:>12.0} items/s  ({:.2?} median/run, {} placed, {:.2?} total)",
            config.id(),
            m.median_items_per_sec(),
            m.best_items_per_sec(),
            m.median(),
            m.placed,
            started.elapsed()
        );
        file.upsert(throughput::BenchEntry::from_measurement(&label, &m));
    }
    if let Some(path) = bench_out {
        throughput::validate(&file).expect("freshly measured entries validate");
        fs::write(&path, file.render()).expect("write bench file");
        eprintln!("bench entries written to {}", path.display());
    }
}

/// `experiments bench-validate FILE`: parse + schema-check a bench file.
fn run_bench_validate(args: &[String]) {
    let [path] = args else {
        eprintln!("usage: experiments bench-validate FILE");
        std::process::exit(2);
    };
    let text = fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    });
    match throughput::BenchFile::parse(&text) {
        Ok(file) => {
            println!(
                "{path}: valid ({} entries, workload seed {})",
                file.entries.len(),
                file.seed
            );
        }
        Err(e) => {
            eprintln!("{path}: INVALID: {e}");
            std::process::exit(1);
        }
    }
}
