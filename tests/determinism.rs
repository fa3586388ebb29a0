//! Reproducibility: the whole point of a simulation-based evaluation is
//! that every number regenerates bit-identically from its seed.

use std::sync::Arc;
use std::time::Duration;

use arpshield::analysis::experiment::{
    f1_detection_latency, t2_susceptibility, t3_coverage, t4_false_positives, t5_resilience,
    t6_scale_defended,
};
use arpshield::analysis::metrics::score_attack_run;
use arpshield::analysis::scenario::{AttackScenario, ScenarioConfig};
use arpshield::attacks::PoisonVariant;
use arpshield::schemes::SchemeKind;
use arpshield::trace::{install, TraceCollector};

fn full_run_fingerprint(seed: u64) -> (String, u64, u64) {
    let config = ScenarioConfig::new(seed)
        .with_hosts(5)
        .with_scheme(SchemeKind::Stateful)
        .with_duration(Duration::from_secs(8));
    let run = AttackScenario::poisoning(config, PoisonVariant::UnicastReply).run();
    let outcome = score_attack_run(&run);
    let wire = run.lan.sim.wire_stats();
    (format!("{outcome:?}"), wire.frames, wire.bytes)
}

#[test]
fn identical_seeds_identical_everything() {
    assert_eq!(full_run_fingerprint(1), full_run_fingerprint(1));
    assert_eq!(full_run_fingerprint(77), full_run_fingerprint(77));
}

#[test]
fn different_seeds_differ_in_detail() {
    // Qualitative outcomes are seed-stable...
    let a = full_run_fingerprint(1);
    let b = full_run_fingerprint(2);
    assert_eq!(a.0, b.0, "qualitative outcome is seed-stable");

    // ...while micro-timing genuinely varies: the captured delivery
    // schedule (jittered app starts) differs between seeds.
    let schedule = |seed: u64| -> Vec<u64> {
        let collector = Arc::new(TraceCollector::with_capture(usize::MAX));
        {
            let _guard = install(collector.clone());
            let mut lan =
                arpshield::analysis::scenario::lan::build(ScenarioConfig::new(seed).with_hosts(3));
            lan.sim.run_until(arpshield::netsim::SimTime::from_secs(2));
        }
        collector.manifest("schedule").runs[0].frames.iter().take(30).map(|f| f.at_ns).collect()
    };
    assert_ne!(schedule(1), schedule(2), "frame timing must vary with seed");
    assert_eq!(schedule(3), schedule(3), "and replay identically for one seed");
}

#[test]
fn tables_regenerate_identically() {
    assert_eq!(t2_susceptibility(9).to_csv(), t2_susceptibility(9).to_csv());
    assert_eq!(t4_false_positives(9).to_csv(), t4_false_positives(9).to_csv());
}

/// The parallel experiment runner merges results in index order, so a
/// T3-style grid (and an F1 latency sweep) must render byte-identically
/// whether it ran on one worker or four.
///
/// Setting `ARPSHIELD_THREADS` here cannot perturb the *other* tests in
/// this binary even though they share the process: thread count never
/// affects results — which is exactly what this test pins down.
#[test]
fn parallel_runner_matches_sequential_byte_for_byte() {
    let grid = |threads: &str| {
        std::env::set_var("ARPSHIELD_THREADS", threads);
        let t3 = t3_coverage(13).to_csv();
        let f1: Vec<String> =
            f1_detection_latency(13, 6).iter().map(|series| series.to_csv()).collect();
        std::env::remove_var("ARPSHIELD_THREADS");
        (t3, f1)
    };
    let sequential = grid("1");
    let parallel = grid("4");
    assert_eq!(sequential.0, parallel.0, "T3 grid must not depend on the worker count");
    assert_eq!(sequential.1, parallel.1, "F1 sweep must not depend on the worker count");
}

/// The impairment sweep draws every loss decision from per-event keyed
/// hashes, never from a shared RNG stream, so its output is
/// byte-identical whether the (scheme × loss) cells run on one worker
/// or four.
#[test]
fn resilience_sweep_is_thread_count_independent() {
    let run = |threads: &str| {
        std::env::set_var("ARPSHIELD_THREADS", threads);
        let csv = t5_resilience(13).to_csv();
        std::env::remove_var("ARPSHIELD_THREADS");
        csv
    };
    assert_eq!(run("1"), run("4"), "T5R must not depend on the worker count");
}

/// The defended scale sweep reports only simulated counters (wall-clock
/// diagnostics go to stderr), so its CSVs must render byte-identically
/// at any worker count — the same contract the undefended T6S smoke in
/// CI enforces with a directory diff.
#[test]
fn defended_scale_sweep_is_thread_count_independent() {
    let run = |threads: &str| {
        std::env::set_var("ARPSHIELD_THREADS", threads);
        let csvs: Vec<String> =
            t6_scale_defended(13, &[300, 900]).iter().map(|series| series.to_csv()).collect();
        std::env::remove_var("ARPSHIELD_THREADS");
        csvs
    };
    assert_eq!(run("1"), run("4"), "T6SD must not depend on the worker count");
}
