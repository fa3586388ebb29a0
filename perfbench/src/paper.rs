//! `paper`: every table and figure `reproduce` prints by default, minus
//! the scale sweeps, called through `arpshield_core::experiment`.
//!
//! This is the only workload that drives the host stack, the attack
//! crate, S-ARP crypto and the small hub/switch LANs. It runs at
//! `ARPSHIELD_THREADS=1`: at two threads one pass varies far more from
//! run to run than the thread count saves.
//!
//! The workload has no set-up of its own: every experiment builds its
//! LANs inside the call. What one-time work there is (lazy tables,
//! allocator arenas) falls on the first pass of a process, so
//! `setup_s` is the median first pass of `COLD_PASSES` fresh processes
//! of this program (`--cold-pass`), and `wall_s` is the median of the
//! passes that follow in the measuring process.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

use arpshield_core::experiment::{
    f1_detection_latency, f2_overhead, f3_resolution_latency, f4_poisoned_time, f5_passive_scale,
    f6_flood_dynamics, f6_starvation_dynamics, t2_susceptibility, t3_coverage, t4_false_positives,
    t5_cost, t5_resilience, t6_dos_coverage,
};
use arpshield_core::{taxonomy, Series};
use arpshield_netsim::pool_stats;
use arpshield_trace::TraceCollector;

use crate::report::{self, median, Outputs, Report, TRACED};
use crate::{alloc, calib, RunConfig};

fn series_csv(series: &[Series]) -> String {
    series.iter().map(Series::to_csv).collect::<Vec<_>>().join("\n")
}

/// An experiment id and a call returning its CSV output for a seed.
type Experiment = (&'static str, fn(u64) -> String);

/// The experiments in `reproduce` order, with the arguments it passes.
const EXPERIMENTS: &[Experiment] = &[
    ("t1", |_| taxonomy::table().to_csv()),
    ("t2", |seed| t2_susceptibility(seed).to_csv()),
    ("t3", |seed| t3_coverage(seed).to_csv()),
    ("t4", |seed| t4_false_positives(seed).to_csv()),
    ("t5", |seed| t5_cost(seed).to_csv()),
    ("t5r", |seed| t5_resilience(seed).to_csv()),
    ("t6", |seed| t6_dos_coverage(seed).to_csv()),
    ("f1", |seed| series_csv(&f1_detection_latency(seed, 30))),
    ("f2", |seed| series_csv(&f2_overhead(seed, &[5, 10, 20, 40, 80]))),
    ("f3", |seed| f3_resolution_latency(seed).to_csv()),
    ("f4", |seed| f4_poisoned_time(seed).to_csv()),
    ("f5", |seed| series_csv(&f5_passive_scale(seed, &[5, 10, 20, 40, 80]))),
    ("f6a", |seed| series_csv(&f6_flood_dynamics(seed))),
    ("f6b", |seed| f6_starvation_dynamics(seed).to_csv()),
];

/// The trace counters reported per pass, each a sum of the program's
/// counters of that family.
const COUNTERS: &[(&str, &[&str])] = &[
    ("host.cache_writes", &["host.cache.create", "host.cache.update"]),
    ("host.policy_rejects", &["host.policy.reject"]),
    ("host.resolver_retransmits", &["host.resolver.retransmit"]),
    ("switch.frames", &["switch.forwarded", "switch.flooded"]),
    ("hub.repeated", &["hub.repeated"]),
    ("scheme.verdicts", &["scheme.verdict."]),
];

/// Fresh processes an untraced run times for `setup_s`.
const COLD_PASSES: usize = 5;
/// The keys under which a `--cold-pass` child prints its pass time, raw
/// and calibrated.
const COLD_RAW_KEY: &str = "cold.raw_s";
const COLD_KEY: &str = "cold.calibrated_s";

struct Pass {
    /// The pass's time as (raw, calibrated) seconds.
    wall: (f64, f64),
    /// Seconds per experiment, in `EXPERIMENTS` order.
    experiment_s: Vec<f64>,
    /// Frames built (frame-pool acquisitions) during the pass.
    frames: u64,
    outputs: Outputs,
    /// Counter totals and the allocation count; traced passes only.
    counters: BTreeMap<&'static str, u64>,
    allocs: u64,
}

fn pass(seed: u64, traced: bool) -> Pass {
    let pool_before = pool_stats();
    let allocs_before = alloc::count();
    let mut counters: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut outputs = Outputs::new();
    let mut experiment_s = Vec::with_capacity(EXPERIMENTS.len());
    let mut clock = calib::Clock::start();
    for (id, run) in EXPERIMENTS {
        let collector = traced.then(|| Arc::new(TraceCollector::new()));
        let t0 = Instant::now();
        let csv = {
            let _guard = collector.clone().map(arpshield_trace::install);
            run(seed)
        };
        experiment_s.push(t0.elapsed().as_secs_f64());
        outputs.insert(format!("{id}.digest"), format!("{:016x}", report::fnv1a(csv.as_bytes())));
        if let Some(collector) = collector {
            let totals = collector.manifest(id).totals;
            for (name, families) in COUNTERS {
                let sum: u64 = totals
                    .iter()
                    .filter(|(k, _)| {
                        families
                            .iter()
                            .any(|f| k.as_str() == *f || (f.ends_with('.') && k.starts_with(f)))
                    })
                    .map(|(_, v)| v)
                    .sum();
                *counters.entry(name).or_default() += sum;
            }
        }
        clock.tick();
    }
    let wall = clock.lap();
    let allocs = alloc::count() - allocs_before;
    let pool = pool_stats();
    let frames = (pool.recycled + pool.fresh) - (pool_before.recycled + pool_before.fresh);
    outputs.insert("frames_built".to_string(), frames.to_string());
    if traced {
        outputs.insert(format!("{TRACED}alloc.per_pass"), allocs.to_string());
        for (name, value) in &counters {
            outputs.insert(format!("{TRACED}{name}"), value.to_string());
        }
    }
    Pass { wall, experiment_s, frames, outputs, counters, allocs }
}

/// The `--cold-pass` child: runs the first pass of this process and
/// prints its time and outputs in the recorded-values format.
pub fn print_cold_pass(seed: u64) {
    let pass = pass(seed, false);
    println!("{seed}\t{COLD_RAW_KEY}\t{}", pass.wall.0);
    println!("{seed}\t{COLD_KEY}\t{}", pass.wall.1);
    for (key, value) in &pass.outputs {
        println!("{seed}\t{key}\t{value}");
    }
}

/// Runs one `--cold-pass` child and returns its (raw, calibrated) pass
/// time and its outputs.
fn cold_pass(seed: u64) -> Result<((f64, f64), Outputs), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", "paper", "--seed", &seed.to_string(), "--cold-pass"])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a cold pass: {e}"))?;
    if !output.status.success() {
        return Err(format!("cold pass exited with {}", output.status));
    }
    let mut outputs = report::recorded(&String::from_utf8_lossy(&output.stdout), seed)
        .ok_or("cold pass printed nothing")?;
    let mut take = |key: &str| -> Result<f64, String> {
        let value = outputs.remove(key).and_then(|v| v.parse().ok());
        value.ok_or(format!("cold pass printed no {key}"))
    };
    let timing = (take(COLD_RAW_KEY)?, take(COLD_KEY)?);
    Ok((timing, outputs))
}

pub fn run(cfg: &RunConfig) -> Report {
    let mut report = Report::new("paper");
    let expected = report::recorded(include_str!("../expected/paper.tsv"), cfg.seed);
    if cfg.record {
        report::print_record(cfg.seed, |traced| pass(cfg.seed, traced).outputs);
        return report;
    }

    let started = Instant::now();
    let mut cold = Vec::new();
    if !cfg.trace {
        let mut setups = Vec::new();
        for _ in 0..COLD_PASSES {
            match cold_pass(cfg.seed) {
                Ok((timing, outputs)) => {
                    setups.push(timing);
                    cold.push(outputs);
                }
                Err(e) => report.check("paper.cold_pass", false, e),
            }
        }
        report.timing("setup_s", &setups);
    }
    let budget = cfg.budget(cfg.trace).saturating_sub(started.elapsed());
    let warm = report::repeat(budget, 3, || report::isolated(|| pass(cfg.seed, false)));
    let traced = if cfg.trace {
        alloc::set_counting(true);
        let traced = report::repeat(budget, 3, || report::isolated(|| pass(cfg.seed, true)));
        alloc::set_counting(false);
        traced
    } else {
        Vec::new()
    };

    let outputs =
        |passes: &[Pass]| -> Vec<Outputs> { passes.iter().map(|p| p.outputs.clone()).collect() };
    let plain: Vec<Outputs> = cold.into_iter().chain(outputs(&warm)).collect();
    report.check_passes(&plain, &outputs(&traced), expected.as_ref());

    let wall_s = report.timing("wall_s", &warm.iter().map(|p| p.wall).collect::<Vec<_>>());
    report.metric("frames_per_s", warm[0].frames as f64 / wall_s, "1/s");

    if cfg.trace {
        let traced_wall = median(&traced.iter().map(|p| p.wall.1).collect::<Vec<_>>());
        report.metric("trace.overhead", traced_wall / wall_s, "ratio");
        for (i, (id, _)) in EXPERIMENTS.iter().enumerate() {
            let s = median(&traced.iter().map(|p| p.experiment_s[i]).collect::<Vec<_>>());
            report.metric(format!("experiment.{id}.wall_s"), s, "s");
        }
        let coverage: Vec<f64> =
            traced.iter().map(|p| p.experiment_s.iter().sum::<f64>() / p.wall.0).collect();
        crate::check_coverage(&mut report, median(&coverage));
        for (name, _) in COUNTERS {
            let value = traced[0].counters.get(name).copied().unwrap_or(0);
            report.metric(*name, value as f64, "count");
        }
        report.metric("alloc.per_pass", traced[0].allocs as f64, "count");
    }
    report.metric("peak_rss_mb", report::peak_rss_mb(), "MB");
    report
}
