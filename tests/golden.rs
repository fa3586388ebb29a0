//! The paper's tables and figures, pinned byte for byte.
//!
//! `tests/golden/` holds the 27 CSVs that `reproduce` writes for
//! T1–T6 and F1–F6 at the published seed. Each test regenerates one
//! experiment through the library and compares every CSV it yields
//! with the committed file, so any change to a reported number fails
//! here rather than in a manual diff.
//!
//! A change that is meant to move a number regenerates the goldens
//! with the same ids `reproduce` uses:
//!
//! ```text
//! cargo run --release -p arpshield-bench --bin reproduce -- \
//!     --out tests/golden t1 t2 t3 t4 t5 t5r t6 f1 f2 f3 f4 f5 f6
//! ```

use arpshield::analysis::experiment::{
    f1_detection_latency, f2_overhead, f3_resolution_latency, f4_poisoned_time, f5_passive_scale,
    f6_flood_dynamics, f6_starvation_dynamics, t2_susceptibility, t3_coverage, t4_false_positives,
    t5_cost, t5_resilience, t6_dos_coverage,
};
use arpshield::analysis::{taxonomy, Series};

/// The seed `reproduce` runs every experiment at.
const SEED: u64 = 20070625;

/// Compares `actual` with `tests/golden/<name>.csv`, naming the first
/// line that differs.
fn assert_golden(name: &str, actual: &str) {
    let path = format!("{}/tests/golden/{name}.csv", env!("CARGO_MANIFEST_DIR"));
    let expected =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    if actual == expected {
        return;
    }
    let line = expected.lines().zip(actual.lines()).position(|(want, got)| want != got);
    let line = line.unwrap_or_else(|| expected.lines().count().min(actual.lines().count()));
    panic!(
        "{name}.csv differs from its golden at line {}:\n  expected: {}\n  actual:   {}",
        line + 1,
        expected.lines().nth(line).unwrap_or("<end of file>"),
        actual.lines().nth(line).unwrap_or("<end of file>"),
    );
}

/// Series experiments write one `<id>_<i>.csv` per series; the number
/// of series must match the number of goldens too.
fn assert_golden_series(id: &str, series: &[Series]) {
    let dir = format!("{}/tests/golden", env!("CARGO_MANIFEST_DIR"));
    let goldens = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot read {dir}: {e}"))
        .filter(|entry| {
            let name = entry.as_ref().expect("readable entry").file_name();
            name.to_string_lossy().starts_with(&format!("{id}_"))
        })
        .count();
    assert_eq!(series.len(), goldens, "{id} yields a different number of series");
    for (i, s) in series.iter().enumerate() {
        assert_golden(&format!("{id}_{i}"), &s.to_csv());
    }
}

#[test]
fn t1_taxonomy() {
    assert_golden("t1", &taxonomy::table().to_csv());
}

#[test]
fn t2_susceptibility_matrix() {
    assert_golden("t2", &t2_susceptibility(SEED).to_csv());
}

#[test]
fn t3_coverage_matrix() {
    assert_golden("t3", &t3_coverage(SEED).to_csv());
}

#[test]
fn t4_false_positive_rates() {
    assert_golden("t4", &t4_false_positives(SEED).to_csv());
}

#[test]
fn t5_costs() {
    assert_golden("t5", &t5_cost(SEED).to_csv());
}

#[test]
fn t5r_resilience() {
    assert_golden("t5r", &t5_resilience(SEED).to_csv());
}

#[test]
fn t6_volumetric_coverage() {
    assert_golden("t6", &t6_dos_coverage(SEED).to_csv());
}

#[test]
fn f1_detection_latency_series() {
    assert_golden_series("f1", &f1_detection_latency(SEED, 30));
}

#[test]
fn f2_overhead_series() {
    assert_golden_series("f2", &f2_overhead(SEED, &[5, 10, 20, 40, 80]));
}

#[test]
fn f3_resolution_latency_table() {
    assert_golden("f3", &f3_resolution_latency(SEED).to_csv());
}

#[test]
fn f4_poisoned_time_table() {
    assert_golden("f4", &f4_poisoned_time(SEED).to_csv());
}

#[test]
fn f5_passive_scale_series() {
    assert_golden_series("f5", &f5_passive_scale(SEED, &[5, 10, 20, 40, 80]));
}

#[test]
fn f6_dynamics_series() {
    assert_golden_series("f6a", &f6_flood_dynamics(SEED));
    assert_golden_series("f6b", &[f6_starvation_dynamics(SEED)]);
}
