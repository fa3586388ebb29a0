//! arpshield's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper|fabric|fabric_dai|ingest|all> [--seed N] [--seconds N] [--trace 0|1]
//! ```
//!
//! Each workload runs in its own process and calls the library's public
//! functions, never the `reproduce` CLI. An untraced run (`--trace 0`)
//! measures the end-to-end metrics; a traced run (`--trace 1`) spends
//! half its time on untraced passes and half on traced ones, and reports
//! the per-layer metrics: busy time from spans this file's workloads
//! record around each call into a layer, allocation counts from a
//! counting global allocator, and the program's own counters. Metric
//! names and units are those `BENCHMARK.json` declares.
//!
//! Every run checks the program's outputs (digests, exact counts, ground
//! truth), prints every metric with its unit, saves everything under
//! `perfbench/out/`, and ends with one JSON result line. `--workload
//! all` runs the four workloads one process each, in sequence.
//! `--record` prints one traced pass's outputs in the `expected/*.tsv`
//! format. `--cold-pass` is internal: `paper` starts itself with it to
//! time the first pass of a fresh process.

mod alloc;
mod calib;
mod capture;
mod fabric;
mod ingest;
mod paper;
mod report;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use arpshield_testkit::json::{self, Value};

use report::{Report, Spec};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// The repository's seed (`reproduce` runs every experiment with it).
const DEFAULT_SEED: u64 = 20070625;
const WORKLOADS: &[&str] = &["paper", "fabric", "fabric_dai", "ingest"];
/// Traced spans must cover at least this share of the traced wall time.
const COVERAGE_FLOOR: f64 = 0.95;

pub struct RunConfig {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub record: bool,
    /// Internal: run one `paper` pass as a fresh process's first pass.
    pub cold_pass: bool,
}

impl RunConfig {
    /// Measuring time per phase: a traced run splits `--seconds`
    /// between its untraced and traced passes.
    pub fn budget(&self, traced: bool) -> Duration {
        let secs = if traced { self.seconds as f64 / 2.0 } else { self.seconds as f64 };
        Duration::from_secs_f64(secs)
    }
}

/// Records `trace.coverage` (span busy time over traced wall time) and
/// checks that the spans account for the wall time.
pub fn check_coverage(report: &mut Report, coverage: f64) {
    report.metric("trace.coverage", coverage, "ratio");
    let ok = (COVERAGE_FLOOR..=1.0 + 1e-6).contains(&coverage);
    report.check("trace.coverage", ok, format!("spans cover {coverage:.4} of traced wall time"));
}

const USAGE: &str = "usage: perfbench --workload <paper|fabric|fabric_dai|ingest|all> \
                     [--seed N] [--seconds N] [--trace 0|1] [--record]";

fn parse_args() -> Result<(String, RunConfig), String> {
    let mut workload = None;
    let mut cfg = RunConfig {
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
        record: false,
        cold_pass: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => cfg.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cfg.seconds = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                cfg.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--record" => cfg.record = true,
            "--cold-pass" => cfg.cold_pass = true,
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    if cfg.cold_pass && workload != "paper" {
        return Err("--cold-pass is for the paper workload".to_string());
    }
    Ok((workload, cfg))
}

/// Output of `program args`, or `unknown` when it cannot run.
fn probe(program: &str, args: &[&str]) -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let root = std::fs::canonicalize(&root).unwrap_or(root);
    let above = root.parent().unwrap_or(&root);
    Command::new(program)
        .args(args)
        .current_dir(&root)
        // git looks for a repository no higher than the checkout's root.
        .env("GIT_CEILING_DIRECTORIES", above)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn environment(cfg: &RunConfig) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    vec![
        ("seed", cfg.seed.to_string()),
        ("seconds", cfg.seconds.to_string()),
        ("nproc", nproc.to_string()),
        ("ARPSHIELD_THREADS", std::env::var("ARPSHIELD_THREADS").unwrap_or_default()),
        ("git_commit", probe("git", &["rev-parse", "HEAD"])),
        ("rustc", probe("rustc", &["-V"])),
    ]
}

/// Runs every workload in its own process and prints one combined
/// result line, metrics keyed `<workload>.<metric>`.
fn run_all(cfg: &RunConfig) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0.0, 0.0);
    let mut metrics = BTreeMap::new();
    for workload in WORKLOADS {
        let output = Command::new(&exe)
            .args(["--workload", workload, "--seed", &cfg.seed.to_string()])
            .args([
                "--seconds",
                &cfg.seconds.to_string(),
                "--trace",
                if cfg.trace { "1" } else { "0" },
            ])
            .stderr(Stdio::inherit())
            .output();
        let output = match output {
            Ok(output) if output.status.success() => output,
            Ok(output) => {
                eprintln!("error: workload {workload} exited with {}", output.status);
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("error: cannot run workload {workload}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let text = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = text.lines().collect();
        let result = lines.pop().and_then(|l| json::parse(l).ok());
        let Some(result) = result else {
            eprintln!("error: workload {workload} printed no result line");
            return ExitCode::FAILURE;
        };
        for line in lines {
            println!("{line}");
        }
        println!();
        correct &= result.get("correct") == Some(&Value::Bool(true));
        attempted += result.get("attempted").and_then(Value::as_num).unwrap_or(0.0);
        failed += result.get("failed").and_then(Value::as_num).unwrap_or(0.0);
        if let Some(Value::Obj(map)) = result.get("metrics") {
            for (name, value) in map {
                metrics.insert(format!("{workload}.{name}"), value.clone());
            }
        }
    }
    let mut line = BTreeMap::new();
    line.insert("correct".to_string(), Value::Bool(correct));
    line.insert("attempted".to_string(), Value::Num(attempted));
    line.insert("failed".to_string(), Value::Num(failed));
    line.insert("metrics".to_string(), Value::Obj(metrics));
    println!("{}", Value::Obj(line));
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let (workload, cfg) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // One worker thread: `paper` fans experiments out over
    // `ARPSHIELD_THREADS` workers, and at two its pass time spreads
    // wider than the threads save. The other workloads are
    // single-threaded either way. Set before any thread starts.
    std::env::set_var("ARPSHIELD_THREADS", "1");
    if cfg.cold_pass {
        paper::print_cold_pass(cfg.seed);
        return ExitCode::SUCCESS;
    }
    if workload == "all" {
        return run_all(&cfg);
    }
    let spec = Spec::load();
    let env = environment(&cfg);
    let report = match workload.as_str() {
        "paper" => paper::run(&cfg),
        "fabric" => fabric::run(&cfg, false),
        "fabric_dai" => fabric::run(&cfg, true),
        "ingest" => ingest::run(&cfg),
        _ => unreachable!("workload names are validated in parse_args"),
    };
    if cfg.record {
        return ExitCode::SUCCESS;
    }
    report.finish(&spec, &env, cfg.seed, cfg.trace);
    ExitCode::SUCCESS
}
