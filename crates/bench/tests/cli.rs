//! End-to-end tests of the command-line tools: `dbp-gen` → `dbp-pack`
//! round trips, and the `experiments` binary's registry/output plumbing.

use std::process::Command;

fn run(bin: &str, args: &[&str]) -> (String, String, bool) {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn gen_then_pack_round_trip() {
    let dir = std::env::temp_dir().join("dbp_cli_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = dir.join("trace.csv");
    let trace_s = trace.to_string_lossy().into_owned();

    let (_, err, ok) = run(
        env!("CARGO_BIN_EXE_dbp-gen"),
        &["binary", "--n", "4", "--out", &trace_s],
    );
    assert!(ok, "dbp-gen failed: {err}");
    assert!(err.contains("31 items"), "σ_16 has 31 items: {err}");

    let (out, err, ok) = run(
        env!("CARGO_BIN_EXE_dbp-pack"),
        &[
            &trace_s,
            "--algo",
            "cdff",
            "--algo",
            "first-fit",
            "--momentary",
        ],
    );
    assert!(ok, "dbp-pack failed: {err}");
    assert!(out.contains("aligned = true"));
    assert!(out.contains("cdff"));
    assert!(out.contains("first-fit"));
    assert!(out.contains("momentary"));
}

#[test]
fn gen_writes_stdout_without_out_flag() {
    let (out, _, ok) = run(env!("CARGO_BIN_EXE_dbp-gen"), &["binary", "--n", "2"]);
    assert!(ok);
    assert!(out.starts_with("# arrival,duration"));
    assert_eq!(out.lines().count(), 1 + 7, "header + 7 items of σ_4");
}

#[test]
fn gen_rejects_unknown_family() {
    let (_, err, ok) = run(env!("CARGO_BIN_EXE_dbp-gen"), &["martian"]);
    assert!(!ok);
    assert!(err.contains("unknown family"));
}

#[test]
fn pack_rejects_unknown_algorithm_and_bad_file() {
    let (_, err, ok) = run(env!("CARGO_BIN_EXE_dbp-pack"), &["/nonexistent.csv"]);
    assert!(!ok);
    assert!(err.contains("cannot read"));

    let dir = std::env::temp_dir().join("dbp_cli_test2");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = dir.join("t.csv");
    std::fs::write(&trace, "0,5,1,2\n").expect("write");
    let (_, err, ok) = run(
        env!("CARGO_BIN_EXE_dbp-pack"),
        &[&trace.to_string_lossy(), "--algo", "nope"],
    );
    assert!(!ok);
    assert!(err.contains("unknown algorithm"));
}

/// The crash flags go through one parser: an out-of-range value exits 2
/// with the same message from `dbp-pack` and `dbp-trace record`, never a
/// panic or a silent crash-free run.
#[test]
fn pack_and_trace_reject_bad_crash_flags_alike() {
    let dir = std::env::temp_dir().join(format!("dbp_cli_flags_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = dir.join("t.csv");
    std::fs::write(&trace, "0,5,1,2\n").expect("write");
    let trace = trace.to_string_lossy().into_owned();
    let exit = |bin: &str, args: Vec<&str>| {
        let out = Command::new(bin).args(args).output().expect("binary runs");
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        (out.status.code(), err)
    };
    let cases: [(&[&str], &str); 5] = [
        (
            &["--fail-rate", "2"],
            "bad fail rate '2' (expected a probability in [0, 1])",
        ),
        (&["--fail-rate", "1.5"], "bad fail rate '1.5'"),
        (&["--fail-rate", "-0.1"], "bad fail rate '-0.1'"),
        (&["--fail-rate", "nan"], "bad fail rate 'nan'"),
        (&["--fail-seed", "x"], "bad fail seed 'x' (expected u64)"),
    ];
    for (flags, msg) in cases {
        let mut pack = vec![trace.as_str()];
        pack.extend_from_slice(flags);
        let mut record = vec!["record", trace.as_str(), "--algo", "first-fit"];
        record.extend_from_slice(flags);
        for (bin, args) in [
            (env!("CARGO_BIN_EXE_dbp-pack"), pack),
            (env!("CARGO_BIN_EXE_dbp-trace"), record),
        ] {
            let (code, err) = exit(bin, args);
            assert_eq!(code, Some(2), "{bin} {flags:?}: {err}");
            assert!(err.contains(msg), "{bin} {flags:?}: {err}");
        }
    }
    let (code, err) = exit(
        env!("CARGO_BIN_EXE_dbp-trace"),
        vec![
            "record",
            &trace,
            "--algo",
            "first-fit",
            "--fail-rate",
            "0.5",
            "--fail-mtbf",
            "0",
        ],
    );
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains("bad fail mtbf '0'"), "{err}");
}

/// Warm-vs-cold cache round trip: two `dbp-pack` runs sharing a spill
/// directory must report bit-identical brackets, with the second run
/// served from disk.
#[test]
fn pack_bracket_cache_round_trip() {
    let dir = std::env::temp_dir().join(format!("dbp_cli_cache_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = dir.join("trace.csv");
    let trace_s = trace.to_string_lossy().into_owned();
    let cache = dir.join("bracket-cache");
    let cache_s = cache.to_string_lossy().into_owned();

    let (_, err, ok) = run(
        env!("CARGO_BIN_EXE_dbp-gen"),
        &["general", "--n", "8", "--items", "300", "--out", &trace_s],
    );
    assert!(ok, "dbp-gen failed: {err}");

    let pack = |extra: &[&str]| {
        let mut args = vec![trace_s.as_str(), "--algo", "first-fit"];
        args.extend_from_slice(extra);
        run(env!("CARGO_BIN_EXE_dbp-pack"), &args)
    };
    let bracket_line = |out: &str| -> String {
        out.lines()
            .find(|l| l.starts_with("OPT_R ∈"))
            .expect("bracket line printed")
            .to_string()
    };

    let (cold, err, ok) = pack(&["--bracket-cache", &cache_s]);
    assert!(ok, "cold dbp-pack failed: {err}");
    assert!(
        bracket_line(&cold).contains("cold"),
        "first run computes: {cold}"
    );
    assert!(cache.join("brackets.jsonl").exists(), "spill written");

    let (warm, err, ok) = pack(&["--bracket-cache", &cache_s]);
    assert!(ok, "warm dbp-pack failed: {err}");
    let warm_line = bracket_line(&warm);
    assert!(warm_line.contains("disk"), "second run is warm: {warm}");
    assert!(warm.contains("1 warm (0 mem / 1 disk)"), "counters: {warm}");
    // Bit-identical interval (and rung) either side of the spill.
    let strip = |l: &str| l.split(" (").next().unwrap().to_string();
    assert_eq!(strip(&bracket_line(&cold)), strip(&warm_line));

    // `--bracket-cache off` and `--bracket-effort analytic` both bypass it.
    let (off, err, ok) = pack(&["--bracket-cache", "off"]);
    assert!(ok, "{err}");
    assert!(bracket_line(&off).contains("cold"));
    let (analytic, err, ok) = pack(&["--bracket-effort", "analytic", "--bracket-cache", &cache_s]);
    assert!(ok, "{err}");
    assert!(bracket_line(&analytic).contains("analytic"));
}

#[test]
fn pack_rejects_bad_bracket_effort() {
    let (_, err, ok) = run(
        env!("CARGO_BIN_EXE_dbp-pack"),
        &["whatever.csv", "--bracket-effort", "martian"],
    );
    assert!(!ok);
    assert!(err.contains("bad bracket effort"));
}

#[test]
fn experiments_lists_registry_and_runs_one() {
    let (out, _, ok) = run(env!("CARGO_BIN_EXE_experiments"), &[]);
    assert!(ok);
    assert!(out.contains("table1-ha"));
    assert!(out.contains("shape-test"));

    let (out, _, ok) = run(env!("CARGO_BIN_EXE_experiments"), &["fig2"]);
    assert!(ok);
    assert!(out.contains("Figure 2"));
    assert!(out.contains("len    8"));
}

#[test]
fn experiments_rejects_unknown_id() {
    let (_, err, ok) = run(env!("CARGO_BIN_EXE_experiments"), &["not-an-experiment"]);
    assert!(!ok);
    assert!(err.contains("unknown experiment"));
}

#[test]
fn experiments_writes_outputs() {
    let dir = std::env::temp_dir().join("dbp_cli_out");
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_string_lossy().into_owned();
    let md = dir.join("report.md");
    let (_, _, ok) = run(
        env!("CARGO_BIN_EXE_experiments"),
        &["fig3", "--out", &dir_s, "--md", &md.to_string_lossy()],
    );
    assert!(ok);
    assert!(dir.join("fig3.txt").exists());
    assert!(dir.join("fig3.csv").exists());
    assert!(
        dir.join("fig3.svg").exists(),
        "svg companions are written with --out"
    );
    let report = std::fs::read_to_string(&md).expect("md written");
    assert!(report.contains("Figure 3"));
}
