//! Acceptance tests for the manifest-driven experiment fleet (PR 10):
//! `experiments run` with a manifest equivalent to the `vector`
//! experiment must reproduce its numbers exactly, and fleet reports must
//! be byte-identical across sweep thread counts (the CI smoke job
//! re-proves the latter across processes).

use dbp_bench::experiments::vector;
use dbp_bench::manifest::{run_fleet, upsert_results, Manifest};

fn csv_rows(csv: &str) -> Vec<Vec<String>> {
    csv.lines()
        .skip(1) // header
        .map(|l| {
            l.split(',')
                .map(|c| c.trim_matches('"').to_string())
                .collect()
        })
        .collect()
}

/// The manifest equivalent of `experiments vector` (D = 2): same fleets,
/// same algorithms, same `VmConfig::new(400, 1_200)` seed-23 instances.
const VECTOR_EQUIV: &str = r#"
[fleet]
name = "vector-repro"
seed = 23

[grid]
workloads = ["vm-correlated", "vm-anti-correlated", "vm-skew-4"]
algorithms = ["first-fit", "best-fit", "hybrid", "cdff"]
items = [400]
mu = [1200]
dims = [2]
"#;

#[test]
fn manifest_reproduces_the_vector_experiment() {
    let m = Manifest::parse(VECTOR_EQUIV).expect("valid manifest");
    let fleet = run_fleet(&m, None);
    let reference = vector::vector();

    let frows = csv_rows(&fleet.table.to_csv());
    let vrows = csv_rows(&reference.table.to_csv());
    assert_eq!(frows.len(), vrows.len(), "cell count mismatch");
    for (f, v) in frows.iter().zip(&vrows) {
        // vector columns: fleet, algorithm, vector cost, scalar-max cost,
        //                 overhead, ratio ≥, ratio ≤, rung
        // fleet columns:  workload, algorithm, items, μ, D, fail, cost,
        //                 scalar-max, overhead, ratio ≥, ratio ≤, rung
        let ctx = format!("{}/{}", v[0], v[1]);
        assert_eq!(f[0], format!("vm-{}", v[0]), "{ctx}: workload");
        assert_eq!(f[1], v[1], "{ctx}: algorithm");
        assert_eq!(f[6], v[2], "{ctx}: cost");
        assert_eq!(f[7], v[3], "{ctx}: scalar-max cost");
        assert_eq!(f[8], v[4], "{ctx}: overhead");
        assert_eq!(f[9], v[5], "{ctx}: certified ratio lower bound");
        assert_eq!(f[10], v[6], "{ctx}: certified ratio upper bound");
        assert_eq!(f[11], v[7], "{ctx}: bracket rung");
    }
}

const SMALL: &str = r#"
[fleet]
name = "threads-probe"
seed = 11

[grid]
workloads = ["vm-correlated", "vm-anti-correlated"]
algorithms = ["first-fit", "cdff"]
items = [60]
mu = [240]
dims = [1, 2]
failure-rates = [0.0, 0.2]
retry = "fixed=3"
"#;

#[test]
fn fleet_reports_are_byte_identical_across_threads_and_reruns() {
    let m = Manifest::parse(SMALL).expect("valid manifest");
    let sequential = run_fleet(&m, Some(1)).render();
    let parallel = run_fleet(&m, Some(8)).render();
    assert_eq!(sequential, parallel, "report depends on thread count");
    // A re-run (now fully warm in the bracket cache) is also identical:
    // resuming a fleet through the cache changes nothing observable.
    assert_eq!(run_fleet(&m, Some(8)).render(), sequential);

    // The per-cell results file is a fixed point under re-upserting, at
    // any thread count.
    let report = run_fleet(&m, Some(8));
    let once = upsert_results(None, &report).expect("fresh upsert");
    let twice = upsert_results(Some(&once), &report).expect("re-upsert");
    assert_eq!(once, twice);
    assert_eq!(once.matches("\"id\":").count(), report.cells.len());
}

#[test]
fn committed_manifests_parse_and_expand() {
    // The repo commits two manifests: the CI smoke grid and the
    // vector-equivalent fleet. Both must stay parseable and non-trivial.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("manifests");
    for (file, min_cells) in [("smoke.toml", 8), ("vector.toml", 12)] {
        let text = std::fs::read_to_string(root.join(file))
            .unwrap_or_else(|e| panic!("manifests/{file}: {e}"));
        let m = Manifest::parse(&text).unwrap_or_else(|e| panic!("manifests/{file}: {e}"));
        assert!(
            m.expand().len() >= min_cells,
            "manifests/{file}: grid shrank below {min_cells} cells"
        );
    }
}
