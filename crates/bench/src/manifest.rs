//! Manifest-driven experiment fleets: `experiments run manifest.toml`.
//!
//! A manifest is one TOML file declaring a grid of cells —
//! workload × algorithm × items × μ × dims × failure-rate — plus report
//! options. The runner expands the grid in deterministic nested order,
//! fans the cells out through the seeded-chunked sweep
//! ([`crate::sweep::parallel_map_with`]), certifies every cost against
//! the bracket service, and renders one comparison table (plus an
//! optional SVG dashboard and a per-cell results file that is *upserted*
//! on re-runs). Reports are byte-identical across `--threads` — the
//! sweep preserves input order and the single-flight bracket cache makes
//! per-cell brackets workload-determined — and re-runs resume cheaply
//! through the on-disk bracket cache.
//!
//! The TOML subset is parsed by hand (no new dependencies): `[section]`
//! headers, `key = value` pairs, strings, integers, floats, booleans and
//! single-line arrays, with `#` comments. That is exactly what a grid
//! declaration needs; anything fancier is rejected with a line-numbered
//! error.
//!
//! ## Schema
//!
//! ```toml
//! [fleet]
//! name = "vector-envelope"   # report / artifact basename (required)
//! seed = 23                  # workload seed (default 1)
//! sweep-seed = 2127167489    # cell→worker dealing seed (default 0x7EC70001)
//! threads = 0                # worker pin; 0 = inherit --threads (default 0)
//!
//! [grid]
//! workloads = ["vm-correlated", "vm-anti-correlated", "vm-skew-4"]
//! algorithms = ["first-fit", "best-fit", "hybrid", "cdff"]
//! items = [400]              # sessions / items per instance (default [400])
//! mu = [1200]                # duration-spread knob; see below (default [1200])
//! dims = [2]                 # size dimensions (default [1])
//! failure-rates = [0.0]      # seeded crash probability per bin (default [0.0])
//! retry = "immediate"        # immediate|fixed=<ticks>|exp=<ticks>
//! fail-seed = 23             # crash-fate seed (default: fleet seed)
//! down = 32                  # crash downtime in ticks (default 32)
//!
//! [report]
//! results = "fleet.json"     # optional per-cell upsert file (under --out)
//! svg = "fleet.svg"          # optional ratio dashboard (under --out)
//! ```
//!
//! Workload kinds: `vm-correlated`, `vm-anti-correlated`, `vm-skew-<k>`
//! (the [`dbp_workloads::VmConfig`] fleets; `mu` is the arrival horizon,
//! the knob the `vector` experiment sets) and `general`
//! ([`dbp_workloads::random_general`]; scalar-only, `mu` is the
//! log-uniform duration spread and must be a power of two).

use std::fmt::Write as _;

use dbp_analysis::svg::svg_series;
use dbp_analysis::table::{f3, Table};
use dbp_core::engine::run_with_config;
use dbp_core::failure::{FailurePlan, RetryPolicy};
use dbp_core::instance::Instance;
use dbp_core::size::MAX_DIMS;
use dbp_core::time::Dur;
use dbp_core::{NoopSink, SimConfig};
use dbp_serve::protocol::push_json_str;
use dbp_workloads::{
    random_general, vm_anti_correlated, vm_correlated, vm_skewed, GeneralConfig, VmConfig,
};

use crate::experiments::vector::scalarized;
use crate::sweep::{parallel_map_with, SweepOptions};
use crate::throughput::json;

/// One value of the hand-rolled TOML subset.
#[derive(Debug, Clone, PartialEq)]
enum Toml {
    Str(String),
    Int(i64),
    Float(f64),
    Bool(bool),
    Array(Vec<Toml>),
}

impl Toml {
    fn type_name(&self) -> &'static str {
        match self {
            Toml::Str(_) => "string",
            Toml::Int(_) => "integer",
            Toml::Float(_) => "float",
            Toml::Bool(_) => "boolean",
            Toml::Array(_) => "array",
        }
    }
}

/// Cuts a `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Splits `a, b, c` at top-level commas, respecting quoted strings.
fn split_items(s: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut in_str = false;
    let mut start = 0;
    for (i, c) in s.char_indices() {
        match c {
            '"' => in_str = !in_str,
            ',' if !in_str => {
                parts.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&s[start..]);
    parts
}

fn parse_value(raw: &str, lineno: usize) -> Result<Toml, String> {
    let raw = raw.trim();
    if raw.is_empty() {
        return Err(format!("line {lineno}: missing value"));
    }
    if let Some(inner) = raw.strip_prefix('"') {
        let inner = inner
            .strip_suffix('"')
            .ok_or_else(|| format!("line {lineno}: unterminated string"))?;
        if inner.contains('"') || inner.contains('\\') {
            return Err(format!(
                "line {lineno}: escapes and embedded quotes are not supported"
            ));
        }
        return Ok(Toml::Str(inner.to_string()));
    }
    if raw == "true" {
        return Ok(Toml::Bool(true));
    }
    if raw == "false" {
        return Ok(Toml::Bool(false));
    }
    if let Some(inner) = raw.strip_prefix('[') {
        let inner = inner
            .strip_suffix(']')
            .ok_or_else(|| format!("line {lineno}: arrays must close on the same line"))?;
        if inner.trim().is_empty() {
            return Ok(Toml::Array(Vec::new()));
        }
        return split_items(inner)
            .into_iter()
            .map(|item| parse_value(item, lineno))
            .collect::<Result<Vec<_>, _>>()
            .map(Toml::Array);
    }
    if let Ok(n) = raw.parse::<i64>() {
        return Ok(Toml::Int(n));
    }
    if let Ok(x) = raw.parse::<f64>() {
        if x.is_finite() {
            return Ok(Toml::Float(x));
        }
    }
    Err(format!("line {lineno}: unrecognised value `{raw}`"))
}

/// Parses the TOML subset into `(section, key, value)` entries in file
/// order. Duplicate keys within a section are rejected.
fn parse_toml(text: &str) -> Result<Vec<(String, String, Toml)>, String> {
    let mut entries: Vec<(String, String, Toml)> = Vec::new();
    let mut section = String::new();
    for (i, raw_line) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = strip_comment(raw_line).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix('[') {
            let name = name
                .strip_suffix(']')
                .ok_or_else(|| format!("line {lineno}: malformed section header"))?
                .trim();
            if name.is_empty() {
                return Err(format!("line {lineno}: empty section name"));
            }
            section = name.to_string();
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("line {lineno}: expected `key = value`"))?;
        let key = key.trim();
        if key.is_empty() {
            return Err(format!("line {lineno}: empty key"));
        }
        if section.is_empty() {
            return Err(format!(
                "line {lineno}: `{key}` appears before any [section]"
            ));
        }
        if entries.iter().any(|(s, k, _)| s == &section && k == key) {
            return Err(format!("line {lineno}: duplicate key `{section}.{key}`"));
        }
        entries.push((
            section.clone(),
            key.to_string(),
            parse_value(value, lineno)?,
        ));
    }
    Ok(entries)
}

/// A validated fleet manifest.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// Fleet name: report title and artifact basename.
    pub name: String,
    /// Workload seed.
    pub seed: u64,
    /// Seed for the sweep's cell→worker dealing.
    pub sweep_seed: u64,
    /// Worker pin from the manifest (0 = inherit the CLI/`--threads`).
    pub threads: usize,
    /// Workload kinds (see the module docs for the vocabulary).
    pub workloads: Vec<String>,
    /// Algorithm registry names.
    pub algorithms: Vec<String>,
    /// Instance sizes (sessions / items).
    pub items: Vec<usize>,
    /// Duration-spread knob per workload kind.
    pub mus: Vec<u64>,
    /// Size dimensions.
    pub dims: Vec<usize>,
    /// Seeded per-bin crash probabilities.
    pub failure_rates: Vec<f64>,
    /// Re-admission backoff for crash-displaced items.
    pub retry: RetryPolicy,
    /// Crash-fate seed.
    pub fail_seed: u64,
    /// Crash downtime in ticks.
    pub down: u64,
    /// Optional per-cell results file (upserted under `--out`).
    pub results: Option<String>,
    /// Optional SVG dashboard file (written under `--out`).
    pub svg: Option<String>,
}

fn expect_u64(v: &Toml, what: &str) -> Result<u64, String> {
    match v {
        Toml::Int(n) if *n >= 0 => Ok(*n as u64),
        _ => Err(format!("{what} must be a non-negative integer")),
    }
}

fn expect_str(v: &Toml, what: &str) -> Result<String, String> {
    match v {
        Toml::Str(s) => Ok(s.clone()),
        _ => Err(format!("{what} must be a string, got {}", v.type_name())),
    }
}

fn expect_array<T>(
    v: &Toml,
    what: &str,
    elem: impl Fn(&Toml) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let Toml::Array(items) = v else {
        return Err(format!("{what} must be an array, got {}", v.type_name()));
    };
    if items.is_empty() {
        return Err(format!("{what} must not be empty"));
    }
    items.iter().map(elem).collect()
}

/// Checks a workload kind, returning an error for unknown vocabulary.
fn validate_workload(kind: &str) -> Result<(), String> {
    match kind {
        "vm-correlated" | "vm-anti-correlated" | "general" => Ok(()),
        _ => {
            if let Some(k) = kind.strip_prefix("vm-skew-") {
                if k.parse::<u64>().is_ok_and(|k| k >= 1) {
                    return Ok(());
                }
            }
            Err(format!(
                "unknown workload `{kind}` (expected vm-correlated, \
                 vm-anti-correlated, vm-skew-<k> or general)"
            ))
        }
    }
}

/// Builds one instance for a cell. `kind` must have passed
/// [`validate_workload`].
fn build_instance(kind: &str, items: usize, mu: u64, dims: usize, seed: u64) -> Instance {
    if kind == "general" {
        debug_assert_eq!(dims, 1, "validated at parse time");
        let cfg = GeneralConfig::new(mu.ilog2(), items);
        return random_general(&cfg, seed);
    }
    let cfg = VmConfig::new(items, mu).dims(dims);
    match kind {
        "vm-correlated" => vm_correlated(&cfg, seed),
        "vm-anti-correlated" => vm_anti_correlated(&cfg, seed),
        _ => {
            let k = kind
                .strip_prefix("vm-skew-")
                .and_then(|k| k.parse::<u64>().ok())
                .expect("validated at parse time");
            vm_skewed(&cfg, k, seed)
        }
    }
}

impl Manifest {
    /// Parses and validates a manifest from TOML text.
    pub fn parse(text: &str) -> Result<Manifest, String> {
        let entries = parse_toml(text)?;
        let mut m = Manifest {
            name: String::new(),
            seed: 1,
            sweep_seed: 0x7EC7_0001,
            threads: 0,
            workloads: Vec::new(),
            algorithms: Vec::new(),
            items: vec![400],
            mus: vec![1_200],
            dims: vec![1],
            failure_rates: vec![0.0],
            retry: RetryPolicy::Immediate,
            fail_seed: u64::MAX, // sentinel: defaults to `seed` below
            down: 32,
            results: None,
            svg: None,
        };
        for (section, key, value) in &entries {
            let what = format!("{section}.{key}");
            match (section.as_str(), key.as_str()) {
                ("fleet", "name") => m.name = expect_str(value, &what)?,
                ("fleet", "seed") => m.seed = expect_u64(value, &what)?,
                ("fleet", "sweep-seed") => m.sweep_seed = expect_u64(value, &what)?,
                ("fleet", "threads") => m.threads = expect_u64(value, &what)? as usize,
                ("grid", "workloads") => {
                    m.workloads = expect_array(value, &what, |v| expect_str(v, &what))?
                }
                ("grid", "algorithms") => {
                    m.algorithms = expect_array(value, &what, |v| expect_str(v, &what))?
                }
                ("grid", "items") => {
                    m.items =
                        expect_array(value, &what, |v| expect_u64(v, &what).map(|n| n as usize))?
                }
                ("grid", "mu") => m.mus = expect_array(value, &what, |v| expect_u64(v, &what))?,
                ("grid", "dims") => {
                    m.dims =
                        expect_array(value, &what, |v| expect_u64(v, &what).map(|n| n as usize))?
                }
                ("grid", "failure-rates") => {
                    m.failure_rates = expect_array(value, &what, |v| match v {
                        Toml::Float(x) => Ok(*x),
                        Toml::Int(n) => Ok(*n as f64),
                        _ => Err(format!("{what} must hold numbers")),
                    })?
                }
                ("grid", "retry") => {
                    let raw = expect_str(value, &what)?;
                    m.retry = RetryPolicy::parse(&raw).ok_or_else(|| {
                        format!("{what}: bad policy `{raw}` (immediate|fixed=<ticks>|exp=<ticks>)")
                    })?;
                }
                ("grid", "fail-seed") => m.fail_seed = expect_u64(value, &what)?,
                ("grid", "down") => m.down = expect_u64(value, &what)?,
                ("report", "results") => m.results = Some(expect_str(value, &what)?),
                ("report", "svg") => m.svg = Some(expect_str(value, &what)?),
                _ => return Err(format!("unknown manifest key `{what}`")),
            }
        }
        if m.fail_seed == u64::MAX {
            m.fail_seed = m.seed;
        }
        m.validate()?;
        Ok(m)
    }

    fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("fleet.name is required".to_string());
        }
        if !self
            .name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
        {
            return Err(format!(
                "fleet.name `{}` must be filename-safe ([A-Za-z0-9._-])",
                self.name
            ));
        }
        if self.workloads.is_empty() {
            return Err("grid.workloads is required".to_string());
        }
        if self.algorithms.is_empty() {
            return Err("grid.algorithms is required".to_string());
        }
        for kind in &self.workloads {
            validate_workload(kind)?;
        }
        for name in &self.algorithms {
            if dbp_algos::by_name(name).is_none() {
                return Err(format!("unknown algorithm `{name}`"));
            }
        }
        if self.items.contains(&0) {
            return Err("grid.items entries must be positive".to_string());
        }
        if self.mus.contains(&0) {
            return Err("grid.mu entries must be positive".to_string());
        }
        for &d in &self.dims {
            if !(1..=MAX_DIMS).contains(&d) {
                return Err(format!("grid.dims entry {d} outside 1..={MAX_DIMS}"));
            }
        }
        for &rate in &self.failure_rates {
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("failure rate {rate} is not a probability"));
            }
        }
        if self.down == 0 {
            return Err("grid.down must be at least one tick".to_string());
        }
        if self.workloads.iter().any(|k| k == "general") {
            if self.dims.iter().any(|&d| d > 1) {
                return Err("workload `general` is scalar-only: grid.dims must be [1]".to_string());
            }
            if self.mus.iter().any(|&mu| !mu.is_power_of_two()) {
                return Err(
                    "workload `general` needs power-of-two grid.mu (log-uniform spread)"
                        .to_string(),
                );
            }
        }
        Ok(())
    }

    /// Expands the grid into cells, in deterministic nested order
    /// (workload → algorithm → items → μ → dims → failure rate).
    pub fn expand(&self) -> Vec<Cell> {
        let mut cells = Vec::new();
        for workload in &self.workloads {
            for algo in &self.algorithms {
                for &items in &self.items {
                    for &mu in &self.mus {
                        for &dims in &self.dims {
                            for &rate in &self.failure_rates {
                                cells.push(Cell {
                                    workload: workload.clone(),
                                    algo: algo.clone(),
                                    items,
                                    mu,
                                    dims,
                                    rate,
                                });
                            }
                        }
                    }
                }
            }
        }
        cells
    }
}

/// One point of the manifest grid.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Workload kind.
    pub workload: String,
    /// Algorithm registry name.
    pub algo: String,
    /// Instance size (sessions / items).
    pub items: usize,
    /// Duration-spread knob.
    pub mu: u64,
    /// Size dimensions.
    pub dims: usize,
    /// Seeded crash probability per bin.
    pub rate: f64,
}

impl Cell {
    /// Stable identifier, the upsert key of the results file.
    pub fn id(&self) -> String {
        format!(
            "{}/{}/n{}/mu{}/d{}/f{}",
            self.workload, self.algo, self.items, self.mu, self.dims, self.rate
        )
    }
}

/// One measured cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The grid point.
    pub cell: Cell,
    /// Algorithm cost in bin-ticks (under the cell's failure plan).
    pub cost: f64,
    /// Bins opened.
    pub bins: u64,
    /// Max-component scalarization cost (vector cells only).
    pub scalar_max: Option<f64>,
    /// Certified competitive-ratio lower bound.
    pub lo: f64,
    /// Certified competitive-ratio upper bound.
    pub hi: f64,
    /// Bracket rung the ladder terminated at.
    pub rung: String,
}

/// A rendered fleet run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Fleet name from the manifest.
    pub name: String,
    /// The comparison table, one row per cell in grid order.
    pub table: Table,
    /// Summary text under the table.
    pub text: String,
    /// Raw per-cell results in grid order.
    pub cells: Vec<CellResult>,
}

impl FleetReport {
    /// Renders the report for the terminal / artifact files.
    pub fn render(&self) -> String {
        let mut out = format!("## Manifest fleet `{}` [run]\n\n", self.name);
        out.push_str(&self.table.render());
        out.push('\n');
        out.push_str(&self.text);
        if !self.text.ends_with('\n') {
            out.push('\n');
        }
        out
    }
}

fn run_cell(m: &Manifest, svc: &crate::bracket::BracketService, cell: &Cell) -> CellResult {
    let inst = build_instance(&cell.workload, cell.items, cell.mu, cell.dims, m.seed);
    let cb = svc.opt_r(&inst);
    let sim = SimConfig::crashing(
        FailurePlan::seeded(cell.rate, m.fail_seed, Dur(m.down)),
        m.retry,
    );
    let algo = dbp_algos::by_name(&cell.algo).expect("validated at parse time");
    let run = run_with_config(&inst, algo, sim.clone(), NoopSink).expect("legal manifest run");
    let (lo, hi) = cb.ratio_bracket(run.cost);
    let scalar_max = (cell.dims > 1).then(|| {
        let max_inst = scalarized(&inst);
        let algo = dbp_algos::by_name(&cell.algo).expect("validated at parse time");
        run_with_config(&max_inst, algo, sim, NoopSink)
            .expect("legal scalarized run")
            .cost
            .as_bin_ticks()
    });
    CellResult {
        cell: cell.clone(),
        cost: run.cost.as_bin_ticks(),
        bins: run.bins_opened as u64,
        scalar_max,
        lo,
        hi,
        rung: cb.rung.as_str().to_string(),
    }
}

/// Runs a manifest's whole grid and renders the fleet report.
///
/// `threads` overrides the worker count for this run only (`None` uses
/// the process-wide `--threads` pin); the output is byte-identical
/// either way.
pub fn run_fleet(m: &Manifest, threads: Option<usize>) -> FleetReport {
    let svc = crate::bracket::service();
    let cells = m.expand();
    let mut opts = SweepOptions::seeded(m.sweep_seed);
    if let Some(n) = threads {
        opts = opts.with_threads(n);
    }
    let results = parallel_map_with(&cells, opts, |cell| run_cell(m, &svc, cell));

    let mut table = Table::new([
        "workload",
        "algorithm",
        "items",
        "μ",
        "D",
        "fail",
        "cost",
        "scalar-max",
        "overhead",
        "ratio ≥",
        "ratio ≤",
        "rung",
    ]);
    let mut worst_hi: (f64, String) = (0.0, String::new());
    let mut worst_overhead: (f64, String) = (0.0, String::new());
    for r in &results {
        let (scalar, overhead) = match r.scalar_max {
            Some(s) => {
                let o = s / r.cost.max(f64::MIN_POSITIVE);
                if o > worst_overhead.0 {
                    worst_overhead = (o, r.cell.id());
                }
                (format!("{s:.1}"), f3(o))
            }
            None => ("—".to_string(), "—".to_string()),
        };
        if r.hi > worst_hi.0 {
            worst_hi = (r.hi, r.cell.id());
        }
        table.row([
            r.cell.workload.clone(),
            r.cell.algo.clone(),
            r.cell.items.to_string(),
            r.cell.mu.to_string(),
            r.cell.dims.to_string(),
            format!("{}", r.cell.rate),
            format!("{:.1}", r.cost),
            scalar,
            overhead,
            f3(r.lo),
            f3(r.hi),
            r.rung.clone(),
        ]);
    }
    let mut text = format!(
        "{} cells = {} workloads × {} algorithms × {} items × {} μ × {} dims × {} rates\n\
         (workload seed {}, fail seed {}, sweep seed {:#x}; ratios certified\n\
         against the clairvoyant bracket ladder).\n",
        results.len(),
        m.workloads.len(),
        m.algorithms.len(),
        m.items.len(),
        m.mus.len(),
        m.dims.len(),
        m.failure_rates.len(),
        m.seed,
        m.fail_seed,
        m.sweep_seed,
    );
    if !worst_hi.1.is_empty() {
        let _ = writeln!(
            text,
            "Worst certified upper ratio: {} at {}.",
            f3(worst_hi.0),
            worst_hi.1
        );
    }
    if !worst_overhead.1.is_empty() {
        let _ = writeln!(
            text,
            "Worst scalarization overhead: {} at {}.",
            f3(worst_overhead.0),
            worst_overhead.1
        );
    }
    FleetReport {
        name: m.name.clone(),
        table,
        text,
        cells: results,
    }
}

/// Renders the comparison dashboard: one certified-upper-ratio series
/// per algorithm, across that algorithm's cells in grid order.
pub fn dashboard_svg(report: &FleetReport) -> String {
    let mut algos: Vec<&str> = Vec::new();
    for r in &report.cells {
        if !algos.contains(&r.cell.algo.as_str()) {
            algos.push(&r.cell.algo);
        }
    }
    let series: Vec<(&str, Vec<f64>)> = algos
        .iter()
        .map(|&a| {
            (
                a,
                report
                    .cells
                    .iter()
                    .filter(|r| r.cell.algo == a)
                    .map(|r| r.hi)
                    .collect(),
            )
        })
        .collect();
    let len = series.first().map_or(0, |(_, ys)| ys.len());
    let xs: Vec<f64> = (0..len).map(|i| i as f64).collect();
    let borrowed: Vec<(&str, &[f64])> = series
        .iter()
        .map(|(name, ys)| (*name, ys.as_slice()))
        .collect();
    svg_series(
        &xs,
        &borrowed,
        &format!("fleet `{}`: certified ratio ≤ per cell", report.name),
        "cell (grid order)",
        "certified ratio ≤",
    )
}

fn json_f64(x: f64) -> String {
    // Shortest round-trip `Display`; integral values still need a `.0`
    // to parse back as a float-typed cell unambiguously — plain JSON
    // numbers are fine either way, this just keeps renders stable.
    format!("{x}")
}

/// Renders the per-cell results file.
fn render_results(fleet: &str, cells: &[(String, String)]) -> String {
    let mut out = String::from("{\n  \"schema\": \"dbp-fleet-v1\",\n");
    out.push_str("  \"fleet\": \"");
    push_json_str(&mut out, fleet);
    out.push_str("\",\n");
    out.push_str("  \"cells\": [\n");
    for (i, (_, line)) in cells.iter().enumerate() {
        let comma = if i + 1 == cells.len() { "" } else { "," };
        let _ = writeln!(out, "    {line}{comma}");
    }
    out.push_str("  ]\n}\n");
    out
}

fn cell_line(r: &CellResult) -> String {
    let mut line = format!(
        "{{\"id\": \"{}\", \"cost\": {}, \"bins\": {}, \"lo\": {}, \"hi\": {}",
        r.cell.id(),
        json_f64(r.cost),
        r.bins,
        json_f64(r.lo),
        json_f64(r.hi),
    );
    if let Some(s) = r.scalar_max {
        let _ = write!(line, ", \"scalar_max\": {}", json_f64(s));
    }
    let _ = write!(line, ", \"rung\": \"{}\"}}", r.rung);
    line
}

/// Merges a fleet run into an existing results file (or starts one):
/// rows are keyed by cell id, matching rows are replaced, unknown rows
/// from previous runs are kept, and the output is sorted by id so
/// re-runs of the same manifest are byte-stable.
pub fn upsert_results(existing: Option<&str>, report: &FleetReport) -> Result<String, String> {
    let mut rows: Vec<(String, String)> = Vec::new();
    if let Some(text) = existing {
        let value = json::parse(text)?;
        let obj = value
            .as_object()
            .ok_or_else(|| "results file: expected a JSON object".to_string())?;
        let schema = json::get_str(obj, "schema")?;
        if schema != "dbp-fleet-v1" {
            return Err(format!("results file: unknown schema `{schema}`"));
        }
        let fleet = json::get_str(obj, "fleet")?;
        if fleet != report.name {
            return Err(format!(
                "results file belongs to fleet `{fleet}`, not `{}`",
                report.name
            ));
        }
        let cells = json::get(obj, "cells")?
            .as_array()
            .ok_or_else(|| "results file: `cells` must be an array".to_string())?;
        for cell in cells {
            let obj = cell
                .as_object()
                .ok_or_else(|| "results file: cells must be objects".to_string())?;
            let id = json::get_str(obj, "id")?.to_string();
            // Re-render from parsed fields so a hand-edited file
            // normalises instead of corrupting the next upsert.
            let mut line = format!(
                "{{\"id\": \"{id}\", \"cost\": {}, \"bins\": {}, \"lo\": {}, \"hi\": {}",
                json_f64(json::get_f64(obj, "cost")?),
                json::get_u64(obj, "bins")?,
                json_f64(json::get_f64(obj, "lo")?),
                json_f64(json::get_f64(obj, "hi")?),
            );
            if let Ok(s) = json::get_f64(obj, "scalar_max") {
                let _ = write!(line, ", \"scalar_max\": {}", json_f64(s));
            }
            let _ = write!(line, ", \"rung\": \"{}\"}}", json::get_str(obj, "rung")?);
            rows.push((id, line));
        }
    }
    for r in &report.cells {
        let id = r.cell.id();
        let line = cell_line(r);
        match rows.iter_mut().find(|(k, _)| *k == id) {
            Some(slot) => slot.1 = line,
            None => rows.push((id, line)),
        }
    }
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(render_results(&report.name, &rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINI: &str = r#"
# a comment
[fleet]
name = "mini"
seed = 7

[grid]
workloads = ["vm-correlated"]   # trailing comment
algorithms = ["first-fit", "best-fit"]
items = [40]
mu = [200]
dims = [1, 2]
failure-rates = [0.0, 0.5]
retry = "fixed=3"
"#;

    #[test]
    fn parses_and_expands_the_grid_in_nested_order() {
        let m = Manifest::parse(MINI).expect("valid manifest");
        assert_eq!(m.name, "mini");
        assert_eq!(m.seed, 7);
        assert_eq!(m.fail_seed, 7, "fail seed defaults to the fleet seed");
        assert_eq!(m.retry, RetryPolicy::Fixed(Dur(3)));
        let cells = m.expand();
        assert_eq!(cells.len(), 2 * 2 * 2);
        assert_eq!(cells[0].id(), "vm-correlated/first-fit/n40/mu200/d1/f0");
        assert_eq!(cells[1].id(), "vm-correlated/first-fit/n40/mu200/d1/f0.5");
        assert_eq!(cells[2].id(), "vm-correlated/first-fit/n40/mu200/d2/f0");
        assert_eq!(cells[4].id(), "vm-correlated/best-fit/n40/mu200/d1/f0");
    }

    #[test]
    fn rejects_the_sharp_edges_with_line_numbers() {
        for (snippet, needle) in [
            ("[fleet]\nname = \"x\"\nname = \"y\"", "duplicate key"),
            ("name = \"x\"", "before any [section]"),
            ("[fleet\nname = \"x\"", "malformed section"),
            ("[fleet]\nname = \"x", "unterminated string"),
            ("[fleet]\nname =", "missing value"),
            ("[fleet]\nwat = 1", "unknown manifest key"),
            ("[fleet]\nname = \"a b\"", "filename-safe"),
        ] {
            let err = Manifest::parse(snippet).expect_err(snippet);
            assert!(err.contains(needle), "`{snippet}` → `{err}`");
        }
    }

    #[test]
    fn validates_the_grid_vocabulary() {
        let base = |grid: &str| {
            format!("[fleet]\nname = \"x\"\n[grid]\nworkloads = [\"vm-correlated\"]\nalgorithms = [\"first-fit\"]\n{grid}")
        };
        for (grid, needle) in [
            ("workloads = [\"nope\"]", "unknown workload"),
            ("algorithms = [\"nope\"]", "unknown algorithm"),
            ("dims = [9]", "outside"),
            ("failure-rates = [1.5]", "not a probability"),
            ("retry = \"bogus\"", "bad policy"),
            ("items = [0]", "positive"),
        ] {
            // Duplicate keys are legal here because the override comes
            // *after* the defaults-bearing line — rebuild from scratch.
            let text = if grid.starts_with("workloads") {
                format!("[fleet]\nname = \"x\"\n[grid]\n{grid}\nalgorithms = [\"first-fit\"]")
            } else if grid.starts_with("algorithms") {
                format!("[fleet]\nname = \"x\"\n[grid]\nworkloads = [\"vm-correlated\"]\n{grid}")
            } else {
                base(grid)
            };
            let err = Manifest::parse(&text).expect_err(grid);
            assert!(err.contains(needle), "`{grid}` → `{err}`");
        }
        let scalar_only = "[fleet]\nname = \"x\"\n[grid]\nworkloads = [\"general\"]\n\
                           algorithms = [\"first-fit\"]\ndims = [2]\nmu = [256]";
        assert!(Manifest::parse(scalar_only)
            .expect_err("general is scalar-only")
            .contains("scalar-only"));
    }

    #[test]
    fn results_file_upserts_by_cell_id() {
        let m = Manifest::parse(
            "[fleet]\nname = \"mini\"\n[grid]\nworkloads = [\"vm-correlated\"]\n\
             algorithms = [\"first-fit\"]\nitems = [30]\nmu = [100]\ndims = [2]",
        )
        .expect("valid");
        let report = run_fleet(&m, Some(1));
        let fresh = upsert_results(None, &report).expect("fresh upsert");
        assert!(fresh.contains("\"dbp-fleet-v1\""));
        assert!(fresh.contains("vm-correlated/first-fit/n30/mu100/d2/f0"));
        // Upserting the same run over its own output is a fixed point.
        assert_eq!(
            upsert_results(Some(&fresh), &report).expect("re-upsert"),
            fresh
        );
        // A foreign row survives, and lands in sorted position.
        let foreign = fresh.replace(
            "    {\"id\": \"vm-correlated",
            "    {\"id\": \"aaa\", \"cost\": 1, \"bins\": 1, \"lo\": 1, \"hi\": 2, \
             \"rung\": \"analytic\"},\n    {\"id\": \"vm-correlated",
        );
        let merged = upsert_results(Some(&foreign), &report).expect("merge");
        assert!(merged.contains("\"aaa\""));
        assert!(merged.find("\"aaa\"").unwrap() < merged.find("vm-correlated").unwrap());
        // Mismatched fleet names refuse to merge.
        let other = fresh.replace("\"mini\"", "\"other\"");
        assert!(upsert_results(Some(&other), &report)
            .expect_err("fleet mismatch")
            .contains("belongs to fleet"));
    }

    #[test]
    fn dashboard_has_one_series_per_algorithm() {
        let m = Manifest::parse(MINI).expect("valid");
        let report = run_fleet(&m, Some(1));
        let svg = dashboard_svg(&report);
        assert!(svg.contains("first-fit") && svg.contains("best-fit"));
        assert!(svg.starts_with("<svg") || svg.contains("<svg"));
    }
}
