//! Packing CLI: runs algorithms on an instance CSV and reports costs,
//! certified ratios and (optionally) a packing gantt.
//!
//! ```text
//! dbp-pack <trace.csv> [--algo NAME]... [--gantt] [--momentary]
//!          [--bracket-effort analytic|cached|budget=<ms>] [--bracket-cache DIR|off]
//!          [--threads N] [--dims D]
//!          [--fail-rate F] [--fail-seed N] [--retry immediate|fixed=<t>|exp=<t>]
//!          [--recourse none|epoch=<k>|amortized=<earn>[/<burst>]|unlimited]
//! ```
//!
//! `--dims D` lifts the (scalar) CSV trace onto the diagonal of a
//! D-dimensional vector instance — every item demands its scalar size in
//! all D dimensions. Diagonal vectors pack exactly like their scalars, so
//! the table must be identical at any D; the flag drives the engine's
//! per-dimension planes and the auditor's per-dimension conservation
//! checks end-to-end on otherwise-scalar inputs. `--dims 1` (the default)
//! is the scalar path itself.
//!
//! A nonzero `--fail-rate` runs every algorithm under a seeded crash plan
//! (each opened bin is doomed with probability F): displaced items re-enter
//! through the algorithm after the `--retry` backoff, the invariant auditor
//! checks the failure ledger, and the table gains resilience columns. At
//! the default rate 0 the output is bit-identical to a failure-free build.
//!
//! A non-`none` `--recourse` budget lets algorithms that implement
//! `propose_migration` (the `rod:`/`amortized:` wrappers) move resident
//! items at arrival/departure epochs; the run is audited with the budget
//! replayed from the event stream, and the table gains recourse columns.
//! The default `none` never consults the hook and stays bit-identical.
//!
//! CSV format: `arrival,duration,size_num,size_den` per line (`#` comments
//! and a non-numeric header line are ignored) — the same format `dbp-gen`
//! emits.

use dbp_analysis::figures::packing_gantt;
use dbp_analysis::table::{f3, Table};
use dbp_bench::{bracket, sweep};
use dbp_core::audit::InvariantAuditor;
use dbp_core::size::{SizeVec, MAX_DIMS};
use dbp_core::time::Dur;
use dbp_core::{compare_goals, engine, FailurePlan, Instance, SimConfig, SIM_FLAGS};
use dbp_workloads::parse_trace;

fn main() {
    dbp_bench::pipe::install();
    let mut path = None;
    let mut algos: Vec<String> = Vec::new();
    let mut gantt = false;
    let mut momentary = false;
    let mut effort = bracket::Effort::Cached;
    let mut cache_dir: Option<String> = None;
    let mut dims = 1usize;
    let mut sim_flags: Vec<(String, Option<String>)> = Vec::new();
    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--algo" => {
                algos.push(argv.next().unwrap_or_else(|| {
                    eprintln!("--algo requires a name");
                    std::process::exit(2);
                }));
            }
            "--gantt" => gantt = true,
            "--momentary" => momentary = true,
            "--bracket-effort" => {
                let raw = argv.next().unwrap_or_else(|| {
                    eprintln!("--bracket-effort requires analytic|cached|budget=<ms>");
                    std::process::exit(2);
                });
                effort = bracket::Effort::parse(&raw).unwrap_or_else(|| {
                    eprintln!("bad bracket effort '{raw}' (analytic|cached|budget=<ms>)");
                    std::process::exit(2);
                });
            }
            "--bracket-cache" => {
                let raw = argv.next().unwrap_or_else(|| {
                    eprintln!("--bracket-cache requires a directory (or 'off')");
                    std::process::exit(2);
                });
                cache_dir = (raw != "off").then_some(raw);
            }
            "--threads" => {
                let raw = argv.next().unwrap_or_else(|| {
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
            "--dims" => {
                let raw = argv.next().unwrap_or_else(|| {
                    eprintln!("--dims requires a dimension count (1..={MAX_DIMS})");
                    std::process::exit(2);
                });
                dims = raw
                    .parse::<usize>()
                    .ok()
                    .filter(|d| (1..=MAX_DIMS).contains(d))
                    .unwrap_or_else(|| {
                        eprintln!("bad dimension count '{raw}' (expected 1..={MAX_DIMS})");
                        std::process::exit(2);
                    });
            }
            flag if SIM_FLAGS.contains(&flag) => sim_flags.push((a.clone(), argv.next())),
            "--help" | "-h" => {
                println!(
                    "usage: dbp-pack <trace.csv> [--algo NAME]... [--gantt] [--momentary]\n\
                     \x20              [--bracket-effort analytic|cached|budget=<ms>] [--bracket-cache DIR|off]\n\
                     \x20              [--threads N] [--dims D]\n\
                     \x20              [--fail-rate F] [--fail-seed N] [--retry immediate|fixed=<t>|exp=<t>]\n\
                     \x20              [--recourse none|epoch=<k>|amortized=<earn>[/<burst>]|unlimited]\n\
                     algorithms: {:?}",
                    dbp_algos::registry_names()
                );
                return;
            }
            other => path = Some(other.to_string()),
        }
    }
    // The flags are checked before the trace is read; the seeded plan's
    // mtbf is set from the trace span once it is.
    let flags = sim_flags.iter().map(|(f, v)| (f.as_str(), v.as_deref()));
    let mut sim = SimConfig::from_flags(flags, 4242, Dur(1)).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let svc = bracket::configure(effort, cache_dir.as_deref().map(std::path::Path::new));
    let Some(path) = path else {
        eprintln!("usage: dbp-pack <trace.csv> [--algo NAME]... (see --help)");
        std::process::exit(2);
    };
    if algos.is_empty() {
        algos = dbp_algos::registry_names()
            .iter()
            .map(|s| s.to_string())
            .collect();
    }

    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1);
    });
    let mut inst = parse_trace(&text).unwrap_or_else(|e| {
        eprintln!("bad trace: {e}");
        std::process::exit(1);
    });
    if dims > 1 {
        // Diagonal lift: the scalar demand replicated into every dimension.
        inst = Instance::from_triples(inst.items().iter().map(|it| {
            let lifted = vec![it.size.primary(); dims];
            (
                it.arrival,
                it.duration(),
                SizeVec::from_sizes(&lifted).expect("scalar trace sizes are nonzero"),
            )
        }))
        .expect("diagonal lift preserves item validity");
    }

    if let FailurePlan::Seeded { mtbf, .. } = &mut sim.failures {
        // Doom delays are uniform in [1, mtbf]; tying mtbf to the trace
        // span keeps the storm landing inside the run for any input scale.
        *mtbf = Dur(inst.span_dur().ticks().max(1));
    }

    // The dims note only appears for lifted runs so D = 1 output stays
    // byte-identical to the scalar goldens.
    let dims_note = if inst.dims() > 1 {
        format!(", dims = {}", inst.dims())
    } else {
        String::new()
    };
    println!(
        "{}: {} items, μ = {:.1}, span = {} ticks, aligned = {}{}",
        path,
        inst.len(),
        inst.mu().unwrap_or(1.0),
        inst.span_dur().ticks(),
        inst.is_aligned(),
        dims_note
    );
    let certified = svc.opt_r(&inst);
    let br = certified.bracket;
    println!(
        "OPT_R ∈ [{:.1}, {:.1}] bin·ticks (rung {}, {})\n",
        br.lower.as_bin_ticks(),
        br.upper.as_bin_ticks(),
        certified.rung,
        certified.source
    );

    let mut header = vec![
        "algorithm",
        "cost",
        "bins",
        "peak",
        "ratio ≥",
        "ratio ≤",
        "fast%",
        "scans",
    ];
    let failing = !sim.failures.is_none();
    let repacking = !sim.recourse.is_none();
    if let FailurePlan::Seeded { rate, seed, mtbf } = sim.failures {
        println!(
            "failure plan: per-bin rate {rate}, seed {seed}, mtbf {} ticks, retry {}\n",
            mtbf.ticks(),
            sim.retry
        );
        header.extend(["failures", "migrations", "drops", "degraded"]);
    }
    if repacking {
        println!("recourse budget: {}\n", sim.recourse);
        header.extend(["moves", "closures", "epochs"]);
    }
    if momentary {
        header.push("momentary");
    }
    let mut table = Table::new(header);
    for name in &algos {
        let Some(algo) = dbp_algos::by_name(name) else {
            eprintln!("unknown algorithm '{name}' (see --help)");
            std::process::exit(2);
        };
        let res = if failing || repacking {
            let mut auditor = InvariantAuditor::new();
            auditor.expect_budget(sim.recourse);
            let res = engine::run_with_config(&inst, algo, sim.clone(), &mut auditor)
                .unwrap_or_else(|e| {
                    eprintln!("{name}: illegal move: {e}");
                    std::process::exit(1);
                });
            if let Err(v) = auditor.verify_result(&res) {
                eprintln!("{name}: invariant violation: {v}");
                std::process::exit(1);
            }
            res
        } else {
            engine::run(&inst, algo).unwrap_or_else(|e| {
                eprintln!("{name}: illegal move: {e}");
                std::process::exit(1);
            })
        };
        let (lo, hi) = br.ratio_bracket(res.cost);
        let mut row = vec![
            name.clone(),
            format!("{:.1}", res.cost.as_bin_ticks()),
            res.bins_opened.to_string(),
            res.max_open.to_string(),
            f3(lo),
            f3(hi),
            format!("{:.0}", 100.0 * res.metrics.fast_path_share()),
            res.metrics.linear_scans.to_string(),
        ];
        if failing {
            let r = &res.resilience;
            row.extend([
                r.bin_failures.to_string(),
                r.readmissions.to_string(),
                r.dropped.to_string(),
                f3(r.degraded_area.as_bin_ticks()),
            ]);
        }
        if repacking {
            let r = &res.recourse;
            row.extend([
                r.migrations.to_string(),
                r.migration_closures.to_string(),
                r.epochs.to_string(),
            ]);
        }
        if momentary {
            row.push(f3(compare_goals(&inst, &res).momentary));
        }
        table.row(row);
        if gantt {
            if inst.end().map_or(0, |t| t.ticks()) <= 200 {
                println!("--- {name} ---\n{}", packing_gantt(&inst, &res, 200));
            } else {
                eprintln!("(--gantt skipped: horizon wider than 200 ticks)");
            }
        }
    }
    println!("{}", table.render());
    let stats = svc.stats();
    println!(
        "bracket service: effort {}, {} cold, {} warm ({} mem / {} disk)",
        effort,
        stats.computed,
        stats.warm(),
        stats.mem_hits,
        stats.disk_hits
    );
}
