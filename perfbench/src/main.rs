//! The benchmark harness: one process runs one workload on one seed and
//! prints its metrics, ending with a one-line JSON result.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           [--serve-bin PATH] [--size full|tiny]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics untraced; `--trace 1`
//! makes the separate traced pass that times calls into each layer from
//! outside and reports the per-layer metrics. Both run the workload's
//! correctness gate, and a failed gate exits with code 1.

mod certify;
mod common;
mod engine;
mod serve;
mod spawner;

use std::process::ExitCode;

use common::Report;

const WORKLOADS: &[&str] = &["replay_stdin", "tenants_socket", "engine_dense", "certify"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: Option<String>,
    tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut serve_bin = None;
    let mut tiny = false;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--serve-bin" => serve_bin = Some(value()?),
            "--size" => {
                tiny = match value()?.as_str() {
                    "full" => false,
                    "tiny" => true,
                    other => return Err(format!("--size takes full or tiny, not {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        serve_bin,
        tiny,
    })
}

/// Renders a metric value with all its digits (JSON has no NaN/inf).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn print_report(workload: &str, seed: u64, r: &Report) {
    for note in &r.notes {
        println!("{note}");
    }
    for (k, v) in &r.counters {
        println!("counter {k} = {v}");
    }
    println!(
        "workload {workload} seed {seed} counters_digest {:016x}",
        r.counters_digest()
    );
    let mut metrics = Vec::new();
    for (name, value, unit) in &r.metrics {
        println!("metric {name} = {} {unit}", json_number(*value));
        metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted.max(1),
        r.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--spawner") {
        spawner::serve();
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let serve_bin = || {
        args.serve_bin
            .clone()
            .expect("serve workloads need --serve-bin (the dbp-serve binary)")
    };
    let serve = matches!(args.workload.as_str(), "replay_stdin" | "tenants_socket");
    let spawner = serve.then(|| {
        // The serve workloads share CPU 0 with their daemons: the harness
        // waits or yields while a daemon runs, so no answer waits for the
        // VM to wake an idle CPU (which takes milliseconds on the 2-vCPU
        // VM this was built on). The spawner helper, and through it every
        // daemon, inherits the pin; it starts before anything is allocated.
        common::pin_to_first_cpu();
        spawner::start()
    });
    let report = match args.workload.as_str() {
        "replay_stdin" => {
            serve::replay_stdin(&serve_bin(), args.seed, args.seconds, args.trace, args.tiny)
        }
        "tenants_socket" => {
            serve::tenants_socket(&serve_bin(), args.seed, args.seconds, args.trace, args.tiny)
        }
        "engine_dense" => engine::run(args.seed, args.seconds, args.trace, args.tiny),
        "certify" => certify::run(args.seed, args.seconds, args.trace, args.tiny),
        _ => unreachable!("validated in parse_args"),
    };
    drop(spawner);
    print_report(&args.workload, args.seed, &report);
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
