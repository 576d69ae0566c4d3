//! Determinism self-test of the benchmark, on short op lists: the same
//! seed twice gives the same quality, failures and counts, and the
//! traced run reproduces the untraced run's answers and counts.
//!
//! Run with `cargo test --manifest-path perfbench/Cargo.toml`.

use std::sync::Mutex;

use perfbench::bandwidth::Bandwidth2000;
use perfbench::churn::{Churn400, INSTANCES};
use perfbench::paper::PaperSweep;
use perfbench::{
    run_e2e, run_tail, run_traced, RunShape, Traced, Workload, COUNT_METRICS, SPAN_METRICS,
};

/// Every count of a traced run: span calls and the named counts.
fn counts(traced: &Traced) -> Vec<(String, u64)> {
    let calls = SPAN_METRICS
        .iter()
        .map(|name| (format!("{name}.calls"), traced.spans.total(name).calls));
    let named = COUNT_METRICS
        .iter()
        .map(|&name| (name.to_string(), traced.spans.counted(name)));
    calls.chain(named).collect()
}

/// `rp-obs` keeps its mode and counters process-wide, so the runs of
/// different tests must not overlap.
static SERIAL: Mutex<()> = Mutex::new(());

fn assert_deterministic<W: Workload>(seed: u64, rounds: usize, round_ops: usize) {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let shape = RunShape { rounds, round_ops };
    let first = run_e2e::<W>(seed, shape);
    let second = run_e2e::<W>(seed, shape);
    assert_eq!(first.attempted(), shape.ops(), "{}", W::NAME);
    assert_eq!(first.failed, 0, "{}: failed ops", W::NAME);
    assert_eq!(
        (first.attempted(), first.failed, first.quality),
        (second.attempted(), second.failed, second.quality),
        "{}: end-to-end runs of one seed differ",
        W::NAME
    );

    let traced = run_traced::<W>(seed, shape);
    let again = run_traced::<W>(seed, shape);
    assert_eq!(
        traced.failed,
        0,
        "{}: traced answers differ from untraced ones",
        W::NAME
    );
    assert_eq!(
        traced.quality,
        first.quality,
        "{}: traced quality differs",
        W::NAME
    );
    assert_eq!(
        counts(&traced),
        counts(&again),
        "{}: traced counts of one seed differ",
        W::NAME
    );
    let coverage = traced.coverage::<W>();
    assert!(
        coverage > 0.5 && coverage <= 1.0 + 1e-9,
        "{}: coverage {coverage}",
        W::NAME
    );
}

#[test]
fn paper_sweep_is_deterministic() {
    assert_deterministic::<PaperSweep>(7, 2, 18);
}

#[test]
fn bandwidth_2000_is_deterministic() {
    assert_deterministic::<Bandwidth2000>(7, 1, 9);
}

#[test]
fn churn_400_is_deterministic() {
    assert_deterministic::<Churn400>(7, 3, 4);
}

#[test]
fn run_shapes_follow_the_run_length_only() {
    assert_eq!(PaperSweep::shape(10), PaperSweep::shape(10));
    assert!(PaperSweep::shape(20).ops() > PaperSweep::shape(10).ops());
    assert_eq!(Churn400::shape(10).rounds, INSTANCES);
    assert_eq!(Bandwidth2000::shape(10).round_ops, 9);
}

#[test]
fn the_tail_has_ten_samples_beyond_it() {
    fn beyond<W: Workload>() -> f64 {
        let ops = W::shape(20).ops();
        ops as f64 - (run_tail::<W>(ops) * ops as f64).ceil()
    }
    assert_eq!(beyond::<PaperSweep>(), 10.0);
    assert_eq!(beyond::<Bandwidth2000>(), 10.0);
    assert!(beyond::<Churn400>() >= 10.0);
}
