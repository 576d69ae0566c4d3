//! The gate table, the obs-diff attribution tool and the
//! `BENCH_obs.json` reference snapshot.
//!
//! ```text
//! cargo run --release -p rp-bench --bin baseline -- --check-budget [perf-budget.toml] [section]
//! cargo run --release -p rp-bench --bin baseline -- --obs-diff OLD.json [NEW.json]
//! cargo run --release -p rp-bench --bin baseline -- --obs-out [BENCH_obs.json]
//! ```
//!
//! `--check-budget` runs every row of [`ROWS`] (or the rows of one
//! `[section]`) and compares each row's median with its ceiling — or,
//! for a `_min` key, its floor — in `perf-budget.toml`. Every repeat
//! also asserts the row's correctness conditions; a breach or a failed
//! condition fails the run and leaves the `obs-breach.*` attribution
//! artifacts behind (see [`check_budget`]). The budget file and the
//! table must name the same rows, or the gate refuses to run.
//!
//! `--obs-diff` ranks the metrics that moved between two metrics-JSON
//! snapshots (or between one snapshot and a fresh run of the reference
//! workload); `--obs-out` writes that workload's snapshot, the
//! checked-in `BENCH_obs.json` the gate's attribution diffs against.
//! Steady throughput and latency are measured by `perfbench/`.

#![allow(clippy::disallowed_methods)] // a measurement binary may unwrap freely

use std::cell::OnceCell;
use std::hint::black_box;
use std::time::Instant;

use rp_core::heuristics::lp_guided::{lp_guided_multi_with, lp_guided_with};
use rp_core::ilp::{build_model, lower_bound, BoundKind, IlpOptions, Integrality};
use rp_core::multi::{solve_multi_ilp_with, MultiObjectProblem};
use rp_core::{inject_and_repair, FailureEvent, Heuristic, Placement, Policy, ProblemInstance};
use rp_experiments::churn::{run_churn, ChurnRunConfig};
use rp_experiments::runner::{run_sweep, ExperimentConfig};
use rp_lp::{
    solve_lp, solve_lp_hardened, solve_lp_revised_reusing, DualPricing, LpEngine, LpWorkspace,
    Model, Pricing, RevisedWorkspace, Scaling, SimplexOptions, Status,
};
use rp_obs::{Counter, Gauge, HistId, ObsMode};
use rp_workloads::failures::{sample_link_failure, sample_node_failure};
use rp_workloads::platform::{paper_scale_instance, PlatformKind};
use rp_workloads::scenarios::{
    bandwidth_scale_instance, feasible_bandwidth_instance, ill_scaled_bandwidth_instance,
    multi_object_counting_instance,
};

/// One gate: a measurement, how many times to repeat it, and the
/// observation mode it runs under. Its bound is `[section] key` in
/// `perf-budget.toml`: a ceiling, or a floor when the key ends in
/// `_min`. The row's statistic is the median of its repeats.
struct Row {
    section: &'static str,
    key: &'static str,
    repeats: usize,
    mode: ObsMode,
    /// One sample, or the correctness condition that failed.
    measure: fn(&Instances) -> Result<f64, String>,
}

/// The gate table. Rows run in this order; cheap sections come first so
/// a breach there shows before the long pricing and churn rows.
#[rustfmt::skip]
const ROWS: &[Row] = &[
    Row { section: "lp", key: "s400_bound_ms", repeats: 7, mode: ObsMode::Counters, measure: s400_bound_ms },
    Row { section: "lp", key: "s2000_bound_ms", repeats: 5, mode: ObsMode::Counters, measure: s2000_bound_ms },
    Row { section: "lp", key: "s2000_iterations_max", repeats: 1, mode: ObsMode::Counters, measure: s2000_iterations },
    Row { section: "lp", key: "s120_ill_scaled_ms", repeats: 5, mode: ObsMode::Off, measure: s120_ill_scaled_ms },
    Row { section: "warm", key: "warm_hit_rate_min", repeats: 3, mode: ObsMode::Counters, measure: warm_hit_rate },
    Row { section: "hardened", key: "hardened_dense_fallbacks_max", repeats: 3, mode: ObsMode::Counters, measure: hardened_dense_fallbacks },
    Row { section: "obs", key: "obs_phase_coverage_min", repeats: 3, mode: ObsMode::Counters, measure: s2000_phase_coverage },
    Row { section: "obs", key: "s400_full_phase_coverage_min", repeats: 3, mode: ObsMode::Full, measure: s400_full_phase_coverage },
    Row { section: "heuristics", key: "lp_guided_s120_gap_pct_max", repeats: 1, mode: ObsMode::Off, measure: |i| Ok(lp_guided_s120(i)?.1) },
    Row { section: "heuristics", key: "lp_guided_s120_ms", repeats: 5, mode: ObsMode::Off, measure: |i| Ok(lp_guided_s120(i)?.0) },
    Row { section: "heuristics", key: "lp_guided_2obj_gap_pct_max", repeats: 1, mode: ObsMode::Off, measure: |i| Ok(lp_guided_2obj(i)?.1) },
    Row { section: "heuristics", key: "lp_guided_2obj_ms", repeats: 5, mode: ObsMode::Off, measure: |i| Ok(lp_guided_2obj(i)?.0) },
    Row { section: "failures", key: "node_repair_ms", repeats: 5, mode: ObsMode::Off, measure: |i| repair_ms(i, sample_node_failure) },
    Row { section: "failures", key: "link_repair_ms", repeats: 5, mode: ObsMode::Off, measure: |i| repair_ms(i, sample_link_failure) },
    Row { section: "pricing", key: "s400_rule_pairs_ms", repeats: 3, mode: ObsMode::Off, measure: s400_rule_pairs_ms },
    Row { section: "online", key: "churn_s400_ms", repeats: 1, mode: ObsMode::Off, measure: churn_s400_ms },
];

impl Row {
    /// Runs the row's repeats, each on a freshly reset registry, and
    /// returns the sorted samples — or the first failed condition.
    fn samples(&self, instances: &Instances) -> Result<Vec<f64>, String> {
        let mut samples = Vec::with_capacity(self.repeats);
        for _ in 0..self.repeats {
            rp_obs::set_mode(self.mode);
            rp_obs::reset_all();
            samples.push((self.measure)(instances)?);
        }
        samples.sort_by(f64::total_cmp);
        Ok(samples)
    }
}

/// Relative objective tolerance against the dense-tableau oracle.
const ORACLE_TOL: f64 = 1e-4;

/// Wall-clock ms of one call of `f`, with its result.
fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let result = f();
    (start.elapsed().as_secs_f64() * 1e3, result)
}

/// The rational-bound LP of a gate instance; its dense-tableau oracle
/// objective is solved on first use.
struct Lp {
    name: &'static str,
    model: Model,
    oracle: OnceCell<Result<f64, String>>,
}

/// One timed cold solve; the workspace holds its statistics.
struct Solve {
    ms: f64,
    objective: f64,
    workspace: RevisedWorkspace,
}

impl Lp {
    fn new(name: &'static str, problem: &ProblemInstance) -> Self {
        Lp {
            name,
            model: build_model(problem, Policy::Multiple, Integrality::RationalBound).model,
            oracle: OnceCell::new(),
        }
    }

    /// Solves cold on a fresh revised workspace, failing unless the
    /// solve ends `Optimal` with a finite objective. Solving the model
    /// directly matters: `lower_bound_with` would mask a failed solve as
    /// the always-valid bound `0.0`.
    fn solve(&self, options: &SimplexOptions) -> Result<Solve, String> {
        let mut workspace = RevisedWorkspace::new();
        let (ms, solution) =
            timed(|| solve_lp_revised_reusing(&self.model, options, &mut workspace));
        if solution.status != Status::Optimal || !solution.objective.is_finite() {
            return Err(format!(
                "{} solve ended {} (objective {})",
                self.name, solution.status, solution.objective
            ));
        }
        Ok(Solve {
            ms,
            objective: solution.objective,
            workspace,
        })
    }

    /// Fails unless `objective` agrees with the dense oracle's.
    fn check_oracle(&self, objective: f64) -> Result<(), String> {
        let dense = self
            .oracle
            .get_or_init(|| {
                let dense = solve_lp(&self.model);
                (dense.status == Status::Optimal)
                    .then_some(dense.objective)
                    .ok_or_else(|| format!("{} dense oracle ended {}", self.name, dense.status))
            })
            .clone()?;
        if (objective - dense).abs() > ORACLE_TOL * dense.abs().max(1.0) {
            return Err(format!(
                "{}: revised objective {objective} disagrees with the dense oracle's {dense}",
                self.name
            ));
        }
        Ok(())
    }
}

/// The gate instances, each built on first use and shared by every row
/// that measures it.
#[derive(Default)]
struct Instances {
    paper_400: OnceCell<ProblemInstance>,
    paper_400_lp: OnceCell<Lp>,
    paper_400_placement: OnceCell<Option<Placement>>,
    bandwidth_2000: OnceCell<Lp>,
    feasible_120: OnceCell<ProblemInstance>,
    feasible_120_lp: OnceCell<Lp>,
    feasible_120_bound: OnceCell<Option<f64>>,
    feasible_400: OnceCell<Lp>,
    ill_scaled_120: OnceCell<Lp>,
    counting_2obj: OnceCell<MultiObjectProblem>,
    counting_2obj_exact: OnceCell<Option<u64>>,
}

impl Instances {
    /// The paper-scale (`s = 400`) heterogeneous instance.
    fn paper_400(&self) -> &ProblemInstance {
        self.paper_400
            .get_or_init(|| paper_scale_instance(PlatformKind::default_heterogeneous(), 0.4, 31))
    }

    fn paper_400_lp(&self) -> &Lp {
        self.paper_400_lp
            .get_or_init(|| Lp::new("s=400 paper-scale bound", self.paper_400()))
    }

    /// MixedBest's placement on the healthy paper-scale instance.
    fn paper_400_placement(&self) -> Result<&Placement, String> {
        self.paper_400_placement
            .get_or_init(|| Heuristic::MixedBest.run(self.paper_400()))
            .as_ref()
            .ok_or_else(|| "MixedBest found no placement on the healthy s=400 instance".into())
    }

    /// The `s = 2000`-class bandwidth bound (13k rows x 20k cols), far
    /// beyond the dense oracle's reach.
    fn bandwidth_2000(&self) -> &Lp {
        self.bandwidth_2000
            .get_or_init(|| Lp::new("s=2000 bandwidth bound", &bandwidth_scale_instance(0.2, 31)))
    }

    fn feasible_120(&self) -> &ProblemInstance {
        self.feasible_120
            .get_or_init(|| feasible_bandwidth_instance(120, 0.4, 31))
    }

    fn feasible_120_lp(&self) -> &Lp {
        self.feasible_120_lp
            .get_or_init(|| Lp::new("s=120 feasible bandwidth bound", self.feasible_120()))
    }

    fn feasible_120_bound(&self) -> Result<f64, String> {
        self.feasible_120_bound
            .get_or_init(|| lower_bound(self.feasible_120(), BoundKind::Rational))
            .ok_or_else(|| "the s=120 feasible bandwidth LP bound failed".into())
    }

    fn feasible_400(&self) -> &Lp {
        self.feasible_400.get_or_init(|| {
            Lp::new(
                "s=400 feasible bandwidth bound",
                &feasible_bandwidth_instance(400, 0.4, 31),
            )
        })
    }

    /// Wide-range capacities spanning five decades plus per-link
    /// bandwidth rows.
    fn ill_scaled_120(&self) -> &Lp {
        self.ill_scaled_120.get_or_init(|| {
            Lp::new(
                "s=120 ill-scaled bandwidth bound",
                &ill_scaled_bandwidth_instance(120, 0.4, 31),
            )
        })
    }

    fn counting_2obj(&self) -> &MultiObjectProblem {
        self.counting_2obj
            .get_or_init(|| multi_object_counting_instance(40, 2, 0.4, 11))
    }

    /// The exact multi-object ILP optimum of [`Self::counting_2obj`].
    fn counting_2obj_exact(&self) -> Result<u64, String> {
        self.counting_2obj_exact
            .get_or_init(|| {
                let mut options = IlpOptions::with_engine(LpEngine::Revised);
                options.branch_bound.max_nodes = 500_000;
                let problem = self.counting_2obj();
                solve_multi_ilp_with(problem, &options).map(|p| p.cost(problem))
            })
            .ok_or_else(|| "the 2-object exact reference solve failed".into())
    }
}

/// Cold `s = 400` paper-scale bound solve, wall ms; every solve
/// must agree with the dense oracle.
fn s400_bound_ms(instances: &Instances) -> Result<f64, String> {
    let lp = instances.paper_400_lp();
    let solve = lp.solve(&SimplexOptions::default())?;
    lp.check_oracle(solve.objective)?;
    Ok(solve.ms)
}

/// Cold `s = 2000` bandwidth bound solve under the default pricing
/// rules, wall ms.
fn s2000_bound_ms(instances: &Instances) -> Result<f64, String> {
    Ok(instances
        .bandwidth_2000()
        .solve(&SimplexOptions::default())?
        .ms)
}

/// Simplex iterations of the cold `s = 2000` bandwidth bound solve.
fn s2000_iterations(instances: &Instances) -> Result<f64, String> {
    let solve = instances
        .bandwidth_2000()
        .solve(&SimplexOptions::default())?;
    Ok(solve.workspace.last_stats().iterations() as f64)
}

/// Cold `s = 120` ill-scaled bandwidth bound solve with the
/// equilibration pass forced on, wall ms. The instance's ~2e5 entry
/// spread sits below the `Auto` threshold, so the row pins the scaled
/// path explicitly: the pass must run and the answer must agree with
/// the dense oracle.
fn s120_ill_scaled_ms(instances: &Instances) -> Result<f64, String> {
    let lp = instances.ill_scaled_120();
    let options = SimplexOptions {
        scaling: Scaling::Geometric,
        ..SimplexOptions::default()
    };
    let solve = lp.solve(&options)?;
    if solve.workspace.scaling_spread().is_none() {
        return Err(format!("{} skipped the equilibration pass", lp.name));
    }
    lp.check_oracle(solve.objective)?;
    Ok(solve.ms)
}

/// Warm-start hit rate over one cold `s = 120` bandwidth solve and
/// nine siblings, each with one right-hand side shifted: the matrix —
/// and so the warm path's validity check — stays identical.
fn warm_hit_rate(instances: &Instances) -> Result<f64, String> {
    let mut model = instances.feasible_120_lp().model.clone();
    let options = SimplexOptions::default();
    let mut workspace = RevisedWorkspace::new();
    solve_lp_revised_reusing(&model, &options, &mut workspace);
    let constraints: Vec<_> = model.constraint_ids().collect();
    for step in 1..=9 {
        let id = constraints[step % constraints.len()];
        let rhs = model.constraint(id).rhs;
        model.set_rhs(id, rhs + 1.0);
        solve_lp_revised_reusing(&model, &options, &mut workspace);
    }
    Ok(rp_obs::global().warm_start_rate())
}

/// Dense-oracle and error-rung answers of the hardened ladder on the
/// healthy `s = 120` bandwidth bound, which the checked revised rung
/// must answer.
fn hardened_dense_fallbacks(instances: &Instances) -> Result<f64, String> {
    let model = &instances.feasible_120_lp().model;
    solve_lp_hardened(
        model,
        &SimplexOptions::default(),
        &mut LpWorkspace::default(),
    )
    .map_err(|error| format!("hardened s=120 solve failed: {error}"))?;
    let registry = rp_obs::global();
    Ok((registry.counter(Counter::LpHardenedDenseFallback)
        + registry.counter(Counter::LpHardenedError)) as f64)
}

/// Share of the `s = 2000` bound's wall time that the phase profiler
/// attributes to a named phase.
fn s2000_phase_coverage(instances: &Instances) -> Result<f64, String> {
    let solve = instances
        .bandwidth_2000()
        .solve(&SimplexOptions::default())?;
    Ok(solve.workspace.last_stats().phases.total_nanos() as f64 / (solve.ms * 1e6).max(1.0))
}

/// Share of a fully instrumented (`ObsMode::Full`) `s = 400` solve's
/// wall time covered by the phase breakdown. The telemetry must also be
/// live: phase timers never nest, so a breakdown over 120% of the wall
/// time double-counts; the key counters must be nonzero; and the trace
/// and metrics exports must be well-formed and non-empty.
fn s400_full_phase_coverage(instances: &Instances) -> Result<f64, String> {
    let solve = instances.paper_400_lp().solve(&SimplexOptions::default())?;
    let coverage =
        solve.workspace.last_stats().phases.total_nanos() as f64 / (solve.ms * 1e6).max(1.0);
    if coverage > 1.2 {
        return Err(format!(
            "phase breakdown sums to {:.1}% of the solve's wall time",
            100.0 * coverage
        ));
    }
    // Exporting flushes this thread's buffered spans, so it comes first.
    for (what, text, key) in [
        ("trace", rp_obs::chrome_trace_json(), "\"traceEvents\""),
        ("metrics", rp_obs::metrics_json(), "\"counters\""),
    ] {
        if !json_is_well_formed(&text) || !text.contains(key) {
            return Err(format!("the {what} export is malformed or missing {key}"));
        }
    }
    let registry = rp_obs::global();
    let warm_classified = registry.counter(Counter::LpWarmCold)
        + registry.counter(Counter::LpWarmHit)
        + registry.counter(Counter::LpWarmRefactor)
        + registry.counter(Counter::LpWarmModeChangeCold);
    for (name, value) in [
        ("lp.solves", registry.counter(Counter::LpSolves)),
        ("lp.ftran.calls", registry.counter(Counter::LpFtranCalls)),
        ("lp.btran.calls", registry.counter(Counter::LpBtranCalls)),
        (
            "lp.iterations (gauge)",
            registry.gauge(Gauge::LpLastIterations),
        ),
        // L's off-diagonal count can legitimately be zero (tree bases
        // factor near-triangularly); U always carries the diagonal.
        (
            "lp.factor.nnz_u (gauge)",
            registry.gauge(Gauge::LpFactorNnzU),
        ),
        (
            "lp.solve_us (hist count)",
            registry.histogram(HistId::LpSolveUs).count(),
        ),
        ("lp.warm.* (classified)", warm_classified),
        (
            "trace events (exported)",
            rp_obs::trace_event_count() as u64,
        ),
    ] {
        if value == 0 {
            return Err(format!("{name} is zero after an instrumented s=400 solve"));
        }
    }
    Ok(coverage)
}

/// LP-guided rounding of the `s = 120` bandwidth instance: wall ms (LP
/// solve plus rounding and repair) and its cost gap, in percent, over
/// the rational bound — tight on this single-object family.
fn lp_guided_s120(instances: &Instances) -> Result<(f64, f64), String> {
    let problem = instances.feasible_120();
    let bound = instances.feasible_120_bound()?;
    let options = IlpOptions::with_engine(LpEngine::Revised);
    let (ms, placement) = timed(|| lp_guided_with(problem, &options));
    let placement = placement.ok_or("s=120 LP-guided rounding found no placement")?;
    if !placement.is_valid(problem, Policy::Multiple) {
        return Err("s=120 LP-guided placement is invalid".into());
    }
    Ok((
        ms,
        100.0 * (placement.cost(problem) as f64 / bound.max(1e-9) - 1.0),
    ))
}

/// LP-guided rounding of the 2-object counting instance: wall ms and
/// its cost gap, in percent, over the **exact** multi-object optimum.
/// The rational bound is no yardstick here: `K` objects sharing a node
/// pay fractional per-object replicas in the relaxation, so even the
/// optimum sits far above it (the golden `multi_object_coupling`
/// instance pins exact = 7 vs LP = 3.4).
fn lp_guided_2obj(instances: &Instances) -> Result<(f64, f64), String> {
    let problem = instances.counting_2obj();
    let exact = instances.counting_2obj_exact()?;
    let options = IlpOptions::with_engine(LpEngine::Revised);
    let (ms, placement) = timed(|| lp_guided_multi_with(problem, &options));
    let placement = placement.ok_or("2-object LP-guided rounding found no placement")?;
    placement
        .validate(problem, Policy::Multiple)
        .map_err(|error| format!("2-object LP-guided placement is invalid: {error}"))?;
    Ok((
        ms,
        100.0 * (placement.cost(problem) as f64 / exact as f64 - 1.0),
    ))
}

/// Injects `failure` into MixedBest's paper-scale placement and repairs
/// it, wall ms. Either outcome — full recovery or a degraded report —
/// must pass its machine check.
fn repair_ms(
    instances: &Instances,
    sample: fn(&ProblemInstance, u64) -> FailureEvent,
) -> Result<f64, String> {
    let problem = instances.paper_400();
    let placement = instances.paper_400_placement()?;
    let failure = sample(problem, 31);
    let (ms, (platform, outcome)) =
        timed(|| inject_and_repair(problem, placement, Policy::Multiple, &[failure]));
    if !outcome.verify(&platform, Policy::Multiple) {
        return Err(format!("repair of {failure} failed its machine check"));
    }
    Ok(ms)
}

/// Cold solves of the `s = 400` bandwidth bound under each pricing
/// pair — partial, devex and Dantzig primal pricing with dual devex or
/// most-violated-row — total wall ms. A pricing rule only reorders
/// pivots, so every pair must agree with the dense oracle.
fn s400_rule_pairs_ms(instances: &Instances) -> Result<f64, String> {
    let lp = instances.feasible_400();
    let mut total_ms = 0.0;
    for (pricing, dual_pricing) in [
        (Pricing::Partial, DualPricing::Devex),
        (Pricing::Devex, DualPricing::Devex),
        (Pricing::Dantzig, DualPricing::MostViolated),
    ] {
        let options = SimplexOptions {
            pricing,
            dual_pricing,
            ..SimplexOptions::default()
        };
        let solve = lp.solve(&options)?;
        lp.check_oracle(solve.objective)
            .map_err(|error| format!("{pricing:?} + dual {dual_pricing:?}: {error}"))?;
        total_ms += solve.ms;
    }
    Ok(total_ms)
}

/// The default churn sweep — 2000 seeded mixed deltas per policy on an
/// `s = 400` instance, each apply under a 50 ms budget with the
/// incumbent machine-verified after every one — total wall ms. No
/// incumbent may fail its check, and no rollback may leak: the outcome
/// mix, the rung counters and the final generation must all account
/// for exactly the absorbed deltas.
fn churn_s400_ms(_: &Instances) -> Result<f64, String> {
    let config = ChurnRunConfig::new();
    let (ms, results) = timed(|| run_churn(&config));
    let unverified = results.total_unverified();
    if unverified > 0 {
        return Err(format!(
            "{unverified} incumbent(s) failed their machine check"
        ));
    }
    for outcome in &results.per_policy {
        let absorbed = (outcome.applied + outcome.degraded) as u64;
        if outcome.applied + outcome.degraded + outcome.deferred != config.deltas
            || outcome.rungs.total() != absorbed
            || outcome.final_generation != absorbed
        {
            return Err(format!(
                "{} leaked a rollback ({} applied + {} degraded + {} deferred vs {} deltas; \
                 rungs {}, generation {})",
                outcome.policy,
                outcome.applied,
                outcome.degraded,
                outcome.deferred,
                config.deltas,
                outcome.rungs.total(),
                outcome.final_generation
            ));
        }
    }
    Ok(ms)
}

/// Names every disagreement between the budget file and [`ROWS`]: a
/// bound no row measures (a misspelt or stale key), a bound given
/// twice, and a row the file leaves unbounded.
fn budget_mismatches(budget: &[(String, String, f64)]) -> Vec<String> {
    let bounds = |section: &str, key: &str| {
        budget
            .iter()
            .filter(|(s, k, _)| s == section && k == key)
            .count()
    };
    let mut out = Vec::new();
    for (section, key, _) in budget {
        if !ROWS.iter().any(|r| r.section == section && r.key == key) {
            out.push(format!("`[{section}] {key}` bounds no gate row"));
        } else if bounds(section, key) > 1 {
            out.push(format!("`[{section}] {key}` is bounded more than once"));
        }
    }
    for row in ROWS {
        if bounds(row.section, row.key) == 0 {
            out.push(format!(
                "gate row `[{}] {}` has no bound",
                row.section, row.key
            ));
        }
    }
    out
}

/// The gate (CI): runs every row of [`ROWS`] — or, with `section`, the
/// rows of that `[section]` only — and fails on any breached bound or
/// failed correctness condition.
///
/// On a failure the gate names the culprit before exiting non-zero: it
/// keeps the flight-recorder ring as the first failing row left it,
/// re-runs the representative instrumented workload, diffs the fresh
/// counters against the checked-in `BENCH_obs.json`, prints the top
/// movers, and leaves `obs-breach.metrics.json`, `obs-breach.diff.txt`
/// and `obs-breach.flight.jsonl` behind for CI to upload.
fn check_budget(budget_path: &str, section: Option<&str>) {
    let text = std::fs::read_to_string(budget_path).unwrap_or_else(|e| {
        eprintln!("cannot read {budget_path}: {e}");
        std::process::exit(1);
    });
    let budget = parse_budget(&text);
    let mismatches = budget_mismatches(&budget);
    if !mismatches.is_empty() {
        for mismatch in &mismatches {
            eprintln!("{budget_path}: {mismatch}");
        }
        std::process::exit(1);
    }
    if let Some(name) = section {
        if ROWS.iter().all(|row| row.section != name) {
            let mut sections: Vec<_> = ROWS.iter().map(|row| row.section).collect();
            sections.dedup();
            eprintln!(
                "unknown budget section `{name}` (expected one of: {})",
                sections.join(", ")
            );
            std::process::exit(1);
        }
        println!("checking only the [{name}] section of {budget_path}");
    }

    let instances = Instances::default();
    let mut failures = 0usize;
    let mut flight: Option<String> = None;
    for row in ROWS
        .iter()
        .filter(|row| section.is_none_or(|s| s == row.section))
    {
        let name = format!("[{}] {}", row.section, row.key);
        let ok = match row.samples(&instances) {
            Ok(samples) => {
                let median = samples[samples.len() / 2];
                let bound = budget_bound(&budget, row.section, row.key)
                    .expect("budget_mismatches vetted every row's bound");
                let (ok, kind) = if row.key.ends_with("_min") {
                    (median >= bound, "floor")
                } else {
                    (median <= bound, "ceiling")
                };
                let verdict = if ok { "ok" } else { "BREACH" };
                println!(
                    "{verdict:>7}  {name} = {median:.2} ({kind} {bound}; median of {}, \
                     range {:.2}..{:.2})",
                    samples.len(),
                    samples[0],
                    samples[samples.len() - 1]
                );
                ok
            }
            Err(error) => {
                println!(" FAILED  {name}: {error}");
                false
            }
        };
        if !ok {
            failures += 1;
            flight.get_or_insert_with(|| rp_obs::flight_snapshot("budget_breach"));
        }
    }

    if let Some(flight) = flight {
        eprintln!("{failures} gate row(s) failed (bounds in {budget_path})");
        // Name the culprit: snapshot the representative instrumented
        // workload, rank its counters against the checked-in reference,
        // and leave the evidence on disk for CI to upload.
        write_breach_artifact("obs-breach.flight.jsonl", &flight);
        let snapshot = obs_metrics_snapshot();
        write_breach_artifact("obs-breach.metrics.json", &snapshot);
        match std::fs::read_to_string("BENCH_obs.json") {
            Ok(reference) => match obs_diff_report(&reference, &snapshot, 10) {
                Ok(report) => {
                    eprint!("top movers vs BENCH_obs.json:\n{report}");
                    write_breach_artifact("obs-breach.diff.txt", &report);
                }
                Err(error) => eprintln!("(obs-diff attribution failed: {error})"),
            },
            Err(_) => {
                eprintln!("(no BENCH_obs.json reference here; skipping the obs-diff attribution)");
            }
        }
        std::process::exit(1);
    }
    println!("all gate rows hold ({budget_path})");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let operands: Vec<&str> = args.iter().skip(1).map(String::as_str).collect();
    match args.first().map(String::as_str) {
        Some("--check-budget") => {
            // Up to two operands, in either order: the budget file
            // (recognised by its `.toml` suffix) and a section filter.
            let path = operands.iter().find(|a| a.ends_with(".toml"));
            let filter = operands.iter().find(|a| !a.ends_with(".toml"));
            check_budget(path.copied().unwrap_or("perf-budget.toml"), filter.copied());
        }
        Some("--obs-diff") if !operands.is_empty() => {
            obs_diff(operands[0], operands.get(1).copied());
        }
        Some("--obs-out") => {
            let path = operands.first().copied().unwrap_or("BENCH_obs.json");
            std::fs::write(path, obs_metrics_snapshot())
                .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            eprintln!("wrote {path}");
        }
        _ => {
            eprintln!(
                "usage: baseline --check-budget [perf-budget.toml] [section]\n\
                 \x20      baseline --obs-diff OLD.json [NEW.json]\n\
                 \x20      baseline --obs-out [BENCH_obs.json]"
            );
            std::process::exit(2);
        }
    }
}

/// Minimal structural JSON check for the emitted trace/metrics files:
/// braces and brackets balance outside strings, and the document is one
/// object. Not a full parser — enough to catch a truncated or
/// mis-escaped export without pulling in a JSON dependency.
fn json_is_well_formed(text: &str) -> bool {
    let text = text.trim();
    if !text.starts_with('{') || !text.ends_with('}') {
        return false;
    }
    let (mut depth, mut in_string, mut escaped) = (0i64, false, false);
    for c in text.chars() {
        if in_string {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' | '[' => depth += 1,
            '}' | ']' => {
                depth -= 1;
                if depth < 0 {
                    return false;
                }
            }
            _ => {}
        }
    }
    depth == 0 && !in_string
}

/// Runs the representative instrumented workload (the smoke sweep plus
/// the bandwidth scenario sweep) and returns the metrics-registry
/// snapshot as JSON — the payload of `BENCH_obs.json` and the "fresh
/// run" side of an obs-diff attribution.
fn obs_metrics_snapshot() -> String {
    use rp_experiments::scenarios::{ScenarioConfig, ScenarioFamily};

    let previous = rp_obs::mode();
    rp_obs::set_mode(rp_obs::ObsMode::Full);
    rp_obs::reset_all();
    rp_obs::clear_trace();
    let sweep = run_sweep(&ExperimentConfig::smoke_test());
    black_box(&sweep);
    let scenario = rp_experiments::scenarios::run_scenario(&ScenarioConfig::smoke_test(
        ScenarioFamily::Bandwidth,
    ));
    black_box(&scenario);
    let json = rp_obs::metrics_json();
    rp_obs::set_mode(previous);
    json
}

/// Parses the `key = value` numeric entries of `perf-budget.toml` into
/// `(section, key, value)` triples (`[section]` headers group the keys;
/// comments explain — only the names matter). Hand-rolled on purpose:
/// the workspace is dependency-free and the format we control is a
/// strict subset of TOML.
fn parse_budget(text: &str) -> Vec<(String, String, f64)> {
    let mut out = Vec::new();
    let mut section = String::new();
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            section = line
                .trim_start_matches('[')
                .trim_end_matches(']')
                .to_string();
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        if let Ok(v) = value.trim().parse::<f64>() {
            out.push((section.clone(), key.trim().to_string(), v));
        }
    }
    out
}

/// The value of `[section] key` in a parsed budget file.
fn budget_bound(budget: &[(String, String, f64)], section: &str, key: &str) -> Option<f64> {
    budget
        .iter()
        .find(|(s, k, _)| s == section && k == key)
        .map(|&(_, _, v)| v)
}

/// Flattens a JSON document into dotted-path numeric leaves
/// (`counters` → `lp.solves` becomes `counters.lp.solves`). Strings,
/// booleans and nulls are skipped — a diff only ranks numbers. Arrays
/// index their elements (`path.0`, `path.1`, …). Hand-rolled like the
/// other parsers here: the inputs are the workspace's own exports.
/// Returns `None` on malformed input.
fn flatten_json_numbers(text: &str) -> Option<Vec<(String, f64)>> {
    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }
    impl Parser<'_> {
        fn skip_ws(&mut self) {
            while self
                .bytes
                .get(self.pos)
                .is_some_and(|b| b.is_ascii_whitespace())
            {
                self.pos += 1;
            }
        }

        fn string(&mut self) -> Option<String> {
            // Caller guarantees `bytes[pos] == b'"'`.
            self.pos += 1;
            let mut raw = Vec::new();
            loop {
                match self.bytes.get(self.pos)? {
                    b'"' => {
                        self.pos += 1;
                        return Some(String::from_utf8_lossy(&raw).into_owned());
                    }
                    b'\\' => {
                        // Keep the escaped byte verbatim — metric names
                        // never contain escapes, and skipped string
                        // values only need their closing quote found.
                        self.pos += 1;
                        raw.push(*self.bytes.get(self.pos)?);
                        self.pos += 1;
                    }
                    &b => {
                        raw.push(b);
                        self.pos += 1;
                    }
                }
            }
        }

        fn literal(&mut self, word: &str) -> Option<()> {
            let end = self.pos + word.len();
            if self.bytes.get(self.pos..end)? == word.as_bytes() {
                self.pos = end;
                Some(())
            } else {
                None
            }
        }

        fn value(&mut self, path: &str, out: &mut Vec<(String, f64)>) -> Option<()> {
            self.skip_ws();
            match self.bytes.get(self.pos)? {
                b'{' => {
                    self.pos += 1;
                    self.skip_ws();
                    if self.bytes.get(self.pos) == Some(&b'}') {
                        self.pos += 1;
                        return Some(());
                    }
                    loop {
                        self.skip_ws();
                        let key = self.string()?;
                        self.skip_ws();
                        self.literal(":")?;
                        let child = if path.is_empty() {
                            key
                        } else {
                            format!("{path}.{key}")
                        };
                        self.value(&child, out)?;
                        self.skip_ws();
                        match self.bytes.get(self.pos)? {
                            b',' => self.pos += 1,
                            b'}' => {
                                self.pos += 1;
                                return Some(());
                            }
                            _ => return None,
                        }
                    }
                }
                b'[' => {
                    self.pos += 1;
                    self.skip_ws();
                    if self.bytes.get(self.pos) == Some(&b']') {
                        self.pos += 1;
                        return Some(());
                    }
                    let mut index = 0usize;
                    loop {
                        self.value(&format!("{path}.{index}"), out)?;
                        index += 1;
                        self.skip_ws();
                        match self.bytes.get(self.pos)? {
                            b',' => self.pos += 1,
                            b']' => {
                                self.pos += 1;
                                return Some(());
                            }
                            _ => return None,
                        }
                    }
                }
                b'"' => self.string().map(|_| ()),
                b't' => self.literal("true"),
                b'f' => self.literal("false"),
                b'n' => self.literal("null"),
                _ => {
                    let start = self.pos;
                    while self.bytes.get(self.pos).is_some_and(|b| {
                        matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                    }) {
                        self.pos += 1;
                    }
                    let raw = std::str::from_utf8(&self.bytes[start..self.pos]).ok()?;
                    let v: f64 = raw.parse().ok()?;
                    out.push((path.to_string(), v));
                    Some(())
                }
            }
        }
    }

    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let mut out = Vec::new();
    parser.value("", &mut out)?;
    parser.skip_ws();
    (parser.pos == parser.bytes.len()).then_some(out)
}

/// One metric that moved between two snapshots.
struct MetricDelta {
    name: String,
    old: Option<f64>,
    new: Option<f64>,
    /// Relative movement, `|new − old| / max(|old|, 1)` — the ranking
    /// key. Appearing or vanishing metrics score their absolute value.
    score: f64,
}

/// Diffs two flattened snapshots and ranks the movers, biggest first.
/// Metrics with identical values are dropped.
fn diff_ranked(old: &[(String, f64)], new: &[(String, f64)]) -> Vec<MetricDelta> {
    let mut deltas: Vec<MetricDelta> = Vec::new();
    for (name, old_value) in old {
        let new_value = new.iter().find(|(n, _)| n == name).map(|&(_, v)| v);
        match new_value {
            Some(v) if v == *old_value => {}
            Some(v) => deltas.push(MetricDelta {
                name: name.clone(),
                old: Some(*old_value),
                new: Some(v),
                score: (v - old_value).abs() / old_value.abs().max(1.0),
            }),
            None => deltas.push(MetricDelta {
                name: name.clone(),
                old: Some(*old_value),
                new: None,
                score: old_value.abs().max(1.0),
            }),
        }
    }
    for (name, new_value) in new {
        if old.iter().all(|(n, _)| n != name) {
            deltas.push(MetricDelta {
                name: name.clone(),
                old: None,
                new: Some(*new_value),
                score: new_value.abs().max(1.0),
            });
        }
    }
    deltas.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.name.cmp(&b.name)));
    deltas
}

/// Renders an obs-diff attribution report: the top `top` movers between
/// two metrics-JSON snapshots, one per line, biggest relative move
/// first. This is what a `--check-budget` breach prints so the failure
/// names its culprit.
fn obs_diff_report(old_text: &str, new_text: &str, top: usize) -> Result<String, String> {
    let old = flatten_json_numbers(old_text).ok_or("old snapshot is not valid JSON")?;
    let new = flatten_json_numbers(new_text).ok_or("new snapshot is not valid JSON")?;
    let deltas = diff_ranked(&old, &new);
    let mut out = String::new();
    out.push_str(&format!(
        "obs-diff: {} of {} metrics moved (top {} below)\n",
        deltas.len(),
        old.len().max(new.len()),
        top.min(deltas.len())
    ));
    for delta in deltas.iter().take(top) {
        let line = match (delta.old, delta.new) {
            (Some(o), Some(n)) => {
                // Same denominator as the ranking score, so a counter
                // rising from zero reads `+4900.0%`, not `+inf%`.
                let pct = 100.0 * (n - o) / o.abs().max(1.0);
                format!("  {}: {o} -> {n} ({pct:+.1}%)\n", delta.name)
            }
            (None, Some(n)) => format!("  {}: (new) -> {n}\n", delta.name),
            (Some(o), None) => format!("  {}: {o} -> (gone)\n", delta.name),
            (None, None) => continue,
        };
        out.push_str(&line);
    }
    if deltas.is_empty() {
        out.push_str("  (snapshots are numerically identical)\n");
    }
    Ok(out)
}

/// The `obs-diff` CLI mode: compares `old_path` against `new_path`, or
/// — when `new_path` is absent — against a fresh run of the
/// representative instrumented workload.
fn obs_diff(old_path: &str, new_path: Option<&str>) {
    let old_text = std::fs::read_to_string(old_path).unwrap_or_else(|e| {
        eprintln!("cannot read {old_path}: {e}");
        std::process::exit(1);
    });
    let new_text = match new_path {
        Some(path) => std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        }),
        None => {
            eprintln!("(no second snapshot given: diffing {old_path} against a fresh run)");
            obs_metrics_snapshot()
        }
    };
    match obs_diff_report(&old_text, &new_text, 25) {
        Ok(report) => print!("{report}"),
        Err(error) => {
            eprintln!("obs-diff FAILED: {error}");
            std::process::exit(1);
        }
    }
}

/// Best-effort write of a breach artifact — attribution must never mask
/// the original budget failure, so write errors only warn.
fn write_breach_artifact(path: &str, contents: &str) {
    match std::fs::write(path, contents) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(error) => eprintln!("(cannot write {path}: {error})"),
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)]

    use super::*;

    #[test]
    fn flatten_walks_nested_objects_into_dotted_paths() {
        let json = r#"{"schema":1,"mode":"full","counters":{"lp.solves":4,"lp.ftran.calls":12},
                       "derived":{"lp.warm.rate":0.5},"note":"text","ok":true,"gone":null,
                       "arr":[7,8]}"#;
        let flat = flatten_json_numbers(json).expect("well-formed");
        let get = |name: &str| {
            flat.iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .unwrap_or_else(|| panic!("missing {name}"))
        };
        assert_eq!(get("schema"), 1.0);
        assert_eq!(get("counters.lp.solves"), 4.0);
        assert_eq!(get("counters.lp.ftran.calls"), 12.0);
        assert_eq!(get("derived.lp.warm.rate"), 0.5);
        assert_eq!(get("arr.0"), 7.0);
        assert_eq!(get("arr.1"), 8.0);
        // Strings, booleans and nulls never become leaves.
        assert!(flat
            .iter()
            .all(|(n, _)| n != "mode" && n != "note" && n != "ok" && n != "gone"));
    }

    #[test]
    fn flatten_rejects_malformed_json() {
        assert!(flatten_json_numbers("{\"a\":").is_none());
        assert!(flatten_json_numbers("{\"a\":1} trailing").is_none());
        assert!(flatten_json_numbers("{\"a\" 1}").is_none());
    }

    #[test]
    fn obs_diff_names_the_injected_top_mover() {
        // A doctored pair: one counter quadruples, one moves slightly,
        // one appears, the rest hold still. The big relative move must
        // rank first.
        let old = r#"{"counters":{"lp.solves":10,"lp.ftran.calls":100,"lp.btran.calls":50}}"#;
        let new = r#"{"counters":{"lp.solves":10,"lp.ftran.calls":400,"lp.btran.calls":51,
                      "lp.queue.rebuilds":3}}"#;
        let report = obs_diff_report(old, new, 10).expect("both parse");
        let first_mover = report.lines().nth(1).expect("at least one mover");
        assert!(
            first_mover.contains("counters.lp.ftran.calls"),
            "expected the injected mover first, got: {first_mover}"
        );
        assert!(report.contains("100 -> 400"));
        assert!(report.contains("(+300.0%)"));
        assert!(report.contains("counters.lp.queue.rebuilds: (new) -> 3"));
        // The unchanged counter stays out of the report.
        assert!(!report.contains("lp.solves:"));
    }

    #[test]
    fn identical_snapshots_diff_to_nothing() {
        let snap = r#"{"counters":{"lp.solves":10}}"#;
        let report = obs_diff_report(snap, snap, 10).expect("parses");
        assert!(report.contains("0 of 1 metrics moved"));
        assert!(report.contains("numerically identical"));
    }

    #[test]
    fn budget_parser_tracks_section_headers() {
        let text = "# comment\n[lp]\ns400_bound_ms = 15.0 # inline\n\n[obs]\n\
                    obs_phase_coverage_min = 0.8\n";
        let budget = parse_budget(text);
        assert_eq!(
            budget,
            vec![
                ("lp".to_string(), "s400_bound_ms".to_string(), 15.0),
                ("obs".to_string(), "obs_phase_coverage_min".to_string(), 0.8),
            ]
        );
        assert_eq!(
            budget_bound(&budget, "obs", "obs_phase_coverage_min"),
            Some(0.8)
        );
        assert_eq!(budget_bound(&budget, "lp", "obs_phase_coverage_min"), None);
    }

    const CHECKED_IN: &str = include_str!("../../../../perf-budget.toml");

    #[test]
    fn checked_in_budget_bounds_exactly_the_gate_rows() {
        let budget = parse_budget(CHECKED_IN);
        assert_eq!(budget_mismatches(&budget), Vec::<String>::new());
        assert_eq!(budget.len(), ROWS.len());
    }

    #[test]
    fn budget_mismatches_are_named_both_ways() {
        // A misspelt key: the file bounds a row the table lacks, and the
        // row it meant is left unbounded.
        let misspelt = CHECKED_IN.replace("s2000_bound_ms", "s2000_bound_mss");
        let mismatches = budget_mismatches(&parse_budget(&misspelt));
        assert_eq!(mismatches.len(), 2, "{mismatches:?}");
        assert!(mismatches[0].contains("[lp] s2000_bound_mss` bounds no gate row"));
        assert!(mismatches[1].contains("[lp] s2000_bound_ms` has no bound"));
        // A key moved to the wrong section, and one given twice.
        let moved = CHECKED_IN.replace("[warm]", "[lp]");
        assert!(!budget_mismatches(&parse_budget(&moved)).is_empty());
        let twice = format!("{CHECKED_IN}\n[lp]\ns400_bound_ms = 1.0\n");
        let mismatches = budget_mismatches(&parse_budget(&twice));
        assert!(
            mismatches.iter().any(|m| m.contains("more than once")),
            "{mismatches:?}"
        );
    }
}
