//! Metrics, output checks and the result line.
//!
//! Metric names and units come from `BENCHMARK.json` at the root of the
//! repository, so the benchmark and its declaration cannot drift apart:
//! a workload that reports a name the file does not declare, or with
//! another unit, fails a check.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use arpshield_testkit::json::{self, Value};

/// Deterministic outputs of one pass (digests, exact counts), by key.
pub type Outputs = BTreeMap<String, String>;

/// Prefix of the output keys only traced passes produce: allocation
/// counts (the counting allocator is off in untraced passes) and the
/// program's trace counters.
pub const TRACED: &str = "traced.";

/// One declared metric: name and unit.
#[derive(Debug, Clone)]
pub struct Declared {
    pub name: String,
    pub unit: String,
}

/// The metric lists `BENCHMARK.json` declares.
#[derive(Debug)]
pub struct Spec {
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
}

impl Spec {
    pub fn load() -> Spec {
        let doc = json::parse(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json is valid JSON");
        let list = |key: &str| -> Vec<Declared> {
            doc.get(key)
                .and_then(Value::as_arr)
                .unwrap_or_else(|| panic!("BENCHMARK.json lacks the `{key}` list"))
                .iter()
                .map(|m| Declared {
                    name: m.get("name").and_then(Value::as_str).expect("metric name").to_string(),
                    unit: m.get("unit").and_then(Value::as_str).expect("metric unit").to_string(),
                })
                .collect()
        };
        Spec { end_to_end: list("end_to_end"), per_layer: list("per_layer") }
    }
}

struct Check {
    name: String,
    ok: bool,
    detail: String,
}

/// Everything one workload run measured and checked.
pub struct Report {
    pub workload: &'static str,
    metrics: BTreeMap<String, (f64, &'static str)>,
    /// Figures printed and saved but not part of the declared lists.
    extras: BTreeMap<String, (f64, &'static str)>,
    checks: Vec<Check>,
    notes: Vec<String>,
}

impl Report {
    pub fn new(workload: &'static str) -> Report {
        Report {
            workload,
            metrics: BTreeMap::new(),
            extras: BTreeMap::new(),
            checks: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Records a declared metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.insert(name.into(), (value, unit));
    }

    /// Records a figure that is printed and saved but not declared.
    pub fn extra(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.extras.insert(name.into(), (value, unit));
    }

    /// Records the timing metric `name`: the median over passes of
    /// their calibrated seconds (see `calib`), from (raw, calibrated)
    /// pairs. The raw median, the median ratio of calibrated to raw and
    /// the sample count are extras. Returns the calibrated median.
    pub fn timing(&mut self, name: &str, samples: &[(f64, f64)]) -> f64 {
        let column = |f: fn(&(f64, f64)) -> f64| samples.iter().map(f).collect::<Vec<_>>();
        let value = median(&column(|(_, calibrated)| *calibrated));
        self.metric(name, value, "s");
        self.extra(format!("{name}.raw"), median(&column(|(raw, _)| *raw)), "s");
        self.extra(format!("{name}.scale"), median(&column(|(raw, cal)| cal / raw)), "ratio");
        self.extra(format!("{name}.samples"), samples.len() as f64, "count");
        value
    }

    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Records one output check.
    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check { name: name.into(), ok, detail: detail.into() });
    }

    /// Checks `got == want`, naming both on failure.
    pub fn check_eq<T: PartialEq + std::fmt::Debug>(&mut self, name: &str, got: T, want: T) {
        let detail =
            if got == want { String::new() } else { format!("got {got:?}, want {want:?}") };
        self.check(name, got == want, detail);
    }

    /// Checks the outputs of a run's passes against each other and
    /// against the values recorded for this seed when there are any:
    /// keys every pass produces across all passes, keys under
    /// [`TRACED`] across the traced passes.
    pub fn check_passes(
        &mut self,
        plain: &[Outputs],
        traced: &[Outputs],
        expected: Option<&Outputs>,
    ) {
        let split = |o: &Outputs| -> (Outputs, Outputs) {
            o.clone().into_iter().partition(|(k, _)| !k.starts_with(TRACED))
        };
        let (want_all, want_traced) = expected.map(split).unzip();
        let all: Vec<Outputs> = plain.iter().chain(traced).map(|o| split(o).0).collect();
        self.check_outputs(&all, want_all.as_ref());
        if !traced.is_empty() {
            let only: Vec<Outputs> = traced.iter().map(|o| split(o).1).collect();
            self.check_outputs(&only, want_traced.as_ref());
        }
        if expected.is_none() {
            self.note("no values recorded for this seed: outputs checked pass against pass only");
        }
    }

    /// Checks that every pass produced the same outputs, and that they
    /// match `expected` when it is given.
    fn check_outputs(&mut self, passes: &[Outputs], expected: Option<&Outputs>) {
        let Some(first) = passes.first() else {
            self.check("outputs.present", false, "no pass completed");
            return;
        };
        for (key, value) in first {
            let differing = passes.iter().filter(|p| p.get(key) != Some(value)).count();
            let mut detail = String::new();
            if differing > 0 {
                detail = format!("{differing} of {} passes differ from the first", passes.len());
            }
            if let Some(want) = expected.and_then(|e| e.get(key)) {
                if want != value {
                    let _ = write!(detail, "{}got {value}, recorded {want}", sep(&detail));
                }
            }
            self.check(format!("output.{key}"), detail.is_empty(), detail);
        }
        if let Some(expected) = expected {
            for key in expected.keys().filter(|k| !first.contains_key(*k)) {
                self.check(format!("output.{key}"), false, "recorded but not produced");
            }
        }
    }

    pub fn failed(&self) -> usize {
        self.checks.iter().filter(|c| !c.ok).count()
    }

    /// Fails a check for every reported metric `spec` does not declare
    /// with the same unit.
    fn check_declared(&mut self, spec: &Spec) {
        let declared: BTreeMap<&str, &str> = spec
            .end_to_end
            .iter()
            .chain(&spec.per_layer)
            .map(|d| (d.name.as_str(), d.unit.as_str()))
            .collect();
        let mut bad = Vec::new();
        for (name, (_, unit)) in &self.metrics {
            match declared.get(name.as_str()) {
                Some(want) if want == unit => {}
                Some(want) => bad.push(format!("{name} in {unit}, declared in {want}")),
                None => bad.push(format!("{name} is not declared")),
            }
        }
        let ok = bad.is_empty();
        self.check("metrics.declared", ok, bad.join("; "));
    }

    /// Prints the human-readable report, saves it under `perfbench/out/`, and
    /// prints the result line (the last line of standard output).
    pub fn finish(mut self, spec: &Spec, env: &[(&str, String)], seed: u64, trace: bool) -> bool {
        self.check_declared(spec);
        let attempted = self.checks.len();
        let failed = self.failed();
        let fail_ratio = failed as f64 / attempted.max(1) as f64;
        self.extra("fail_ratio", fail_ratio, "ratio");

        let listed = if trace { &spec.per_layer } else { &spec.end_to_end };
        let mut result = BTreeMap::new();
        let mut idle = Vec::new();
        for declared in listed {
            // A layer this workload never enters did no work: it reads 0.
            let value = match self.metrics.get(&declared.name) {
                Some((value, _)) => *value,
                None => {
                    idle.push(declared.name.as_str());
                    0.0
                }
            };
            let mut entry = BTreeMap::new();
            entry.insert("value".to_string(), Value::Num(value));
            entry.insert("unit".to_string(), Value::Str(declared.unit.clone()));
            result.insert(declared.name.clone(), Value::Obj(entry));
        }

        println!(
            "== {} (seed {seed}, {}) ==",
            self.workload,
            if trace { "traced" } else { "untraced" }
        );
        for (key, value) in env {
            println!("# {key}: {value}");
        }
        for declared in listed {
            if let Some((value, unit)) = self.metrics.get(&declared.name) {
                println!("{:<40} {:>16} {unit}", declared.name, fmt(*value));
            }
        }
        for (name, (value, unit)) in &self.extras {
            println!("{name:<40} {:>16} {unit}", fmt(*value));
        }
        if !idle.is_empty() {
            println!("# not exercised by {} (reported as 0): {}", self.workload, idle.join(", "));
        }
        for note in &self.notes {
            println!("# note: {note}");
        }
        for check in self.checks.iter().filter(|c| !c.ok) {
            println!("FAILED check {}: {}", check.name, check.detail);
        }
        println!("checks: {} made, {failed} failed", attempted);

        self.save(env, seed, trace);

        let mut line = BTreeMap::new();
        line.insert("correct".to_string(), Value::Bool(failed == 0));
        line.insert("attempted".to_string(), Value::Num(attempted as f64));
        line.insert("failed".to_string(), Value::Num(failed as f64));
        line.insert("metrics".to_string(), Value::Obj(result));
        println!("{}", Value::Obj(line));
        failed == 0
    }

    /// Writes every metric, extra, check and environment fact to
    /// `perfbench/out/<workload>-seed<seed>-trace<0|1>.json`.
    fn save(&self, env: &[(&str, String)], seed: u64, trace: bool) {
        let figures = |map: &BTreeMap<String, (f64, &'static str)>| {
            let mut obj = BTreeMap::new();
            for (name, (value, unit)) in map {
                let mut entry = BTreeMap::new();
                entry.insert("value".to_string(), Value::Num(*value));
                entry.insert("unit".to_string(), Value::Str(unit.to_string()));
                obj.insert(name.clone(), Value::Obj(entry));
            }
            Value::Obj(obj)
        };
        let mut doc = BTreeMap::new();
        doc.insert("workload".to_string(), Value::Str(self.workload.to_string()));
        doc.insert("trace".to_string(), Value::Bool(trace));
        let env_obj = env.iter().map(|(k, v)| (k.to_string(), Value::Str(v.clone()))).collect();
        doc.insert("env".to_string(), Value::Obj(env_obj));
        doc.insert("metrics".to_string(), figures(&self.metrics));
        doc.insert("extras".to_string(), figures(&self.extras));
        let checks = self
            .checks
            .iter()
            .map(|c| {
                let mut obj = BTreeMap::new();
                obj.insert("name".to_string(), Value::Str(c.name.clone()));
                obj.insert("ok".to_string(), Value::Bool(c.ok));
                obj.insert("detail".to_string(), Value::Str(c.detail.clone()));
                Value::Obj(obj)
            })
            .collect();
        doc.insert("checks".to_string(), Value::Arr(checks));
        doc.insert(
            "notes".to_string(),
            Value::Arr(self.notes.iter().map(|n| Value::Str(n.clone())).collect()),
        );
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("{}-seed{seed}-trace{}.json", self.workload, trace as u8));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, format!("{}\n", Value::Obj(doc))));
        if let Err(e) = written {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
}

fn sep(s: &str) -> &'static str {
    if s.is_empty() {
        ""
    } else {
        "; "
    }
}

fn fmt(value: f64) -> String {
    if value.fract() == 0.0 && value.abs() < 1e15 {
        format!("{}", value as i64)
    } else {
        format!("{value:.6}")
    }
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `q` (0..=100) of `values`.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Runs `pass` until `budget` has elapsed and at least `min` passes
/// completed, returning every pass's result in order.
pub fn repeat<T>(budget: Duration, min: usize, mut pass: impl FnMut() -> T) -> Vec<T> {
    let started = Instant::now();
    let mut results = Vec::new();
    while results.len() < min || started.elapsed() < budget {
        results.push(pass());
    }
    results
}

/// Runs one pass on a fresh thread and waits for it. The frame pool is
/// thread-local and outlives a pass, so on a reused thread each pass
/// would start from whatever the previous one left in it; a fresh
/// thread starts every pass from the same empty pool, which makes
/// allocation and pool counts repeat exactly.
pub fn isolated<T: Send>(pass: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|scope| {
        scope.spawn(pass).join().unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    })
}

/// Parses a recorded-values table (`seed<TAB>key<TAB>value` lines, `#`
/// comments) and returns the rows for `seed`, if any.
pub fn recorded(table: &str, seed: u64) -> Option<Outputs> {
    let rows: Outputs = table
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| {
            let mut cols = l.splitn(3, '\t');
            let s: u64 = cols.next()?.parse().ok()?;
            let key = cols.next()?;
            let value = cols.next()?;
            (s == seed).then(|| (key.to_string(), value.to_string()))
        })
        .collect();
    (!rows.is_empty()).then_some(rows)
}

/// Prints the values `--record` records for `seed`: the outputs of a
/// traced pass with allocation counting on. An untraced pass runs
/// first, as in a traced run, so one-time initialisation lands in the
/// same place.
pub fn print_record(seed: u64, mut pass: impl FnMut(bool) -> Outputs + Send) {
    isolated(|| pass(false));
    crate::alloc::set_counting(true);
    let outputs = isolated(|| pass(true));
    crate::alloc::set_counting(false);
    for (key, value) in outputs {
        println!("{seed}\t{key}\t{value}");
    }
}

/// 64-bit FNV-1a, for output digests.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3))
}

/// Peak resident set size of this process, in MB (VmHWM).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
