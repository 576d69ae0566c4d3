//! `perfbench` — one benchmark for the replica-placement stack, end to
//! end and layer by layer.
//!
//! Three workloads ([`paper::PaperSweep`], [`bandwidth::Bandwidth2000`],
//! [`churn::Churn400`]) each turn a seed into a fixed list of ops, cut
//! into rounds of equal length. A run drives the list single-threaded,
//! as a closed loop with one client: each round is set up afresh, then
//! its ops run one after another, the next op starting when the
//! previous one has finished. No wall-clock deadline changes the work
//! done.
//!
//! * The **end-to-end run** ([`run_e2e`]) first drives the list once
//!   untimed, checking every op's output, then [`Workload::PASSES`]
//!   more times, timing each op around the product's public entry point
//!   with observation off. Each op reports its fastest pass, scaled to
//!   the nominal machine speed by the [`reference::Reference`] timed
//!   beside it.
//! * The **traced run** ([`run_traced`]) drives the list twice, op by op
//!   in alternation: once untraced, once with the benchmark's own
//!   [`Spans`] around the public call into each layer and `rp-obs` in
//!   `Full` mode. The traced answers must equal the untraced ones.

pub mod bandwidth;
pub mod churn;
pub mod paper;
pub mod reference;
pub mod spans;
pub mod sys;

use std::fmt::Debug;
use std::time::{Duration, Instant};

use rp_lp::{SolveStats, WarmStart};
pub use spans::Spans;

/// Quality tallies of one or more ops: `success / success_of` and the
/// mean of the `rel_cost` samples.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Quality {
    /// Successes (may be fractional, e.g. a served fraction).
    pub success: f64,
    /// Attempts the successes are counted against.
    pub success_of: f64,
    /// Sum of the relative-cost samples.
    pub rel_cost: f64,
    /// Number of relative-cost samples.
    pub rel_cost_of: f64,
}

impl Quality {
    /// Adds another tally into this one.
    pub fn merge(&mut self, other: Quality) {
        self.success += other.success;
        self.success_of += other.success_of;
        self.rel_cost += other.rel_cost;
        self.rel_cost_of += other.rel_cost_of;
    }

    /// `success / success_of` (0 without attempts).
    pub fn success_share(&self) -> f64 {
        ratio(self.success, self.success_of)
    }

    /// Mean relative cost (0 without samples).
    pub fn mean_rel_cost(&self) -> f64 {
        ratio(self.rel_cost, self.rel_cost_of)
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// How a run's op list is cut: `rounds` rounds of `round_ops` ops.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunShape {
    /// Rounds in the run; each is set up afresh.
    pub rounds: usize,
    /// Ops in each round.
    pub round_ops: usize,
}

impl RunShape {
    /// Ops in the whole run.
    pub fn ops(&self) -> usize {
        self.rounds * self.round_ops
    }
}

/// One benchmark workload: a seeded, fixed list of ops in rounds.
pub trait Workload: Sized {
    /// What one op returns; the traced run must reproduce it exactly.
    type Answer: Clone + PartialEq + Debug;
    /// Workload name as given to `--workload`.
    const NAME: &'static str;
    /// Timed passes over the op list in an end-to-end run.
    const PASSES: usize;
    /// Reference samples taken after each timed op.
    const REFERENCE_SAMPLES: usize;
    /// Quantile reported as `op_ms.tail`; `None` takes [`tail_quantile`].
    const TAIL: Option<f64> = None;
    /// Spans that partition one traced op (for `trace.coverage`).
    const OP_SPANS: &'static [&'static str];

    /// Shape of a run whose timed passes take nominally `seconds`
    /// seconds together. It depends on `seconds` only, never on the
    /// clock.
    fn shape(seconds: u64) -> RunShape;

    /// Builds inputs, engines and workspaces for round `round` of a run
    /// from `seed` and runs one untimed warm-up op. Set-up calls into
    /// the product are recorded in `spans`.
    fn setup(seed: u64, shape: RunShape, round: usize, spans: &mut Spans) -> Self;

    /// Number of ops in the round.
    fn op_count(&self) -> usize;

    /// Runs op `i` of the round through the product's public entry point.
    fn op(&mut self, i: usize) -> Self::Answer;

    /// Runs op `i` for the checked pass and checks its output; returns
    /// the answer, which every timed pass must reproduce, and the
    /// verdict with the op's quality tally.
    fn checked_op(&mut self, i: usize) -> (Self::Answer, Result<Quality, String>);

    /// Runs op `i` as the public calls into each layer, each inside a
    /// span. Must give the same answer as [`Workload::op`].
    fn traced_op(&mut self, i: usize, spans: &mut Spans) -> Self::Answer;

    /// Checks the output of the last traced op (untimed) and returns its
    /// quality tally; the checks' own spans go into `spans`.
    fn check_traced(&mut self, answer: &Self::Answer, spans: &mut Spans)
        -> Result<Quality, String>;
}

/// Result of an end-to-end run.
#[derive(Clone, Debug)]
pub struct E2e {
    /// Median scaled wall time of the timed passes' round set-ups.
    pub setup_s: f64,
    /// Per-op scaled wall time of the op's fastest pass, in op order.
    pub op_ms: Vec<f64>,
    /// Per-op scaled process CPU time of the op's fastest pass.
    pub op_cpu_ms: Vec<f64>,
    /// Median over the round passes of the factor the timings were
    /// scaled by: nominal over measured reference time (below 1 when
    /// the machine ran slower than nominal).
    pub scale: f64,
    /// Peak resident set size of the process.
    pub peak_rss_mb: f64,
    /// Ops that errored, were deferred, failed their check or gave
    /// another answer in a timed pass.
    pub failed: usize,
    /// Quality tally over the checked ops.
    pub quality: Quality,
}

impl E2e {
    /// Ops attempted.
    pub fn attempted(&self) -> usize {
        self.op_ms.len()
    }

    /// Ops per second of op wall time.
    pub fn ops_per_s(&self) -> f64 {
        let total_ms: f64 = self.op_ms.iter().sum();
        1e3 * self.op_ms.len() as f64 / total_ms
    }

    /// Mean process CPU milliseconds per op.
    pub fn cpu_ms_per_op(&self) -> f64 {
        self.op_cpu_ms.iter().sum::<f64>() / self.op_cpu_ms.len() as f64
    }

    /// Share of attempted ops that failed.
    pub fn fail_share(&self) -> f64 {
        self.failed as f64 / self.attempted() as f64
    }
}

/// Nearest-rank quantile of `values` (unsorted).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    rp_obs::nearest_rank(&sorted, q)
}

/// The quantile a workload reports as `op_ms.tail` for `n` ops.
pub fn run_tail<W: Workload>(n: usize) -> f64 {
    W::TAIL.unwrap_or_else(|| tail_quantile(n))
}

/// `op_ms.tail`: the highest percentile of `n` samples with at least ten
/// samples beyond it, as a quantile (the median below 21 samples).
pub fn tail_quantile(n: usize) -> f64 {
    if n < 21 {
        0.5
    } else {
        // Nearest rank n - 10; the half rank keeps ceil() off a float edge.
        (n as f64 - 10.5) / n as f64
    }
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration, Duration) {
    let cpu = sys::process_cpu();
    let start = Instant::now();
    let out = f();
    let wall = start.elapsed();
    (out, wall, sys::process_cpu().saturating_sub(cpu))
}

fn report_failure(name: &str, i: usize, why: &str, failed: usize) {
    if failed <= 5 {
        eprintln!("perfbench: {name} op {i} failed its check: {why}");
    }
}

/// The end-to-end run. A checked pass drives the op list once, untimed:
/// every op's output is checked and its answer kept; the pass also warms
/// the process up. Then [`Workload::PASSES`] timed passes drive the same
/// list again with observation off, each round set up afresh (timed,
/// warm-up op included), each op timed around the public entry point
/// and its answer compared with the checked one outside the timing.
///
/// After each timed op the [`reference::Reference`] is sampled. The
/// times of a round pass — its set-up and its ops — are scaled by
/// [`reference::NOMINAL_MS`] over the median of the pass's reference
/// samples, which takes out the machine's episodes of seconds and
/// longer. Each op then reports its fastest pass, wall and CPU time
/// apart, which takes out the bursts shorter than a round pass.
/// `setup_s` is the median of the scaled set-up times.
pub fn run_e2e<W: Workload>(seed: u64, shape: RunShape) -> E2e {
    rp_obs::set_mode(rp_obs::ObsMode::Off);
    let mut expected = Vec::with_capacity(shape.ops());
    let mut ok = Vec::with_capacity(shape.ops());
    let mut failed = 0;
    let mut quality = Quality::default();
    for round in 0..shape.rounds {
        let mut workload = W::setup(seed, shape, round, &mut Spans::off());
        for i in 0..workload.op_count() {
            let (answer, verdict) = workload.checked_op(i);
            ok.push(verdict.is_ok());
            match verdict {
                Ok(q) => quality.merge(q),
                Err(why) => {
                    failed += 1;
                    report_failure(W::NAME, expected.len(), &why, failed);
                }
            }
            expected.push(answer);
        }
    }

    let mut reference = reference::Reference::new();
    let mut setups = Vec::with_capacity(W::PASSES * shape.rounds);
    let mut scales = Vec::with_capacity(W::PASSES * shape.rounds);
    let mut op_ms = vec![f64::INFINITY; expected.len()];
    let mut op_cpu_ms = vec![f64::INFINITY; expected.len()];
    for _ in 0..W::PASSES {
        let mut first = 0;
        for round in 0..shape.rounds {
            let start = Instant::now();
            let mut workload = W::setup(seed, shape, round, &mut Spans::off());
            let setup = start.elapsed().as_secs_f64();
            let mut times = Vec::with_capacity(workload.op_count());
            let mut samples = Vec::with_capacity(workload.op_count() * W::REFERENCE_SAMPLES);
            for i in 0..workload.op_count() {
                let (answer, wall, cpu) = timed(|| workload.op(i));
                times.push((wall, cpu));
                samples.extend((0..W::REFERENCE_SAMPLES).map(|_| reference.sample()));
                let k = first + i;
                if ok[k] && answer != expected[k] {
                    ok[k] = false;
                    failed += 1;
                    let why = format!("answer {answer:?} != checked {:?}", expected[k]);
                    report_failure(W::NAME, k, &why, failed);
                }
            }
            let scale = reference::NOMINAL_MS / quantile(&samples, 0.5);
            scales.push(scale);
            setups.push(setup * scale);
            for (i, (wall, cpu)) in times.into_iter().enumerate() {
                let k = first + i;
                op_ms[k] = op_ms[k].min(1e3 * wall.as_secs_f64() * scale);
                op_cpu_ms[k] = op_cpu_ms[k].min(1e3 * cpu.as_secs_f64() * scale);
            }
            first += workload.op_count();
        }
    }
    E2e {
        setup_s: quantile(&setups, 0.5),
        op_ms,
        op_cpu_ms,
        scale: quantile(&scales, 0.5),
        peak_rss_mb: sys::peak_rss_mb(),
        failed,
        quality,
    }
}

/// Result of a traced run.
#[derive(Debug)]
pub struct Traced {
    /// Span totals and counts of the traced pass (set-up included).
    pub spans: Spans,
    /// Per-op wall times of the untraced pass.
    pub untraced_op_ms: Vec<f64>,
    /// Per-op wall times of the traced pass.
    pub traced_op_ms: Vec<f64>,
    /// Ops whose traced answer differed from the untraced one or that
    /// failed their check.
    pub failed: usize,
    /// Quality tally of the traced pass.
    pub quality: Quality,
}

impl Traced {
    /// Ops in the list.
    pub fn ops(&self) -> usize {
        self.traced_op_ms.len()
    }

    /// Named op-level spans over traced op time.
    pub fn coverage<W: Workload>(&self) -> f64 {
        let named: f64 = W::OP_SPANS
            .iter()
            .map(|name| self.spans.total(name).time.as_secs_f64())
            .sum();
        1e3 * named / self.traced_op_ms.iter().sum::<f64>()
    }

    /// Traced over untraced median op time.
    pub fn overhead(&self) -> f64 {
        quantile(&self.traced_op_ms, 0.5) / quantile(&self.untraced_op_ms, 0.5)
    }
}

/// The traced run: each round is set up twice, one copy driven
/// untraced through the public entry points, the other with spans
/// around every layer call and `rp-obs` in `Full` mode. The two
/// alternate op by op, so both see the same machine state and
/// `trace.overhead` compares like with like.
pub fn run_traced<W: Workload>(seed: u64, shape: RunShape) -> Traced {
    rp_obs::set_mode(rp_obs::ObsMode::Off);
    let mut spans = Spans::on();
    let mut untraced_op_ms = Vec::with_capacity(shape.ops());
    let mut traced_op_ms = Vec::with_capacity(shape.ops());
    let mut failed = 0;
    let mut quality = Quality::default();
    for round in 0..shape.rounds {
        let mut untraced = W::setup(seed, shape, round, &mut Spans::off());
        let mut workload = W::setup(seed, shape, round, &mut spans);
        rp_obs::reset_all();
        for i in 0..workload.op_count() {
            let (expected, wall, _) = timed(|| untraced.op(i));
            untraced_op_ms.push(1e3 * wall.as_secs_f64());

            rp_obs::set_mode(rp_obs::ObsMode::Full);
            let (answer, wall, _) = timed(|| workload.traced_op(i, &mut spans));
            rp_obs::set_mode(rp_obs::ObsMode::Off);
            traced_op_ms.push(1e3 * wall.as_secs_f64());
            // Drain rp-obs between ops so its buffers stay bounded.
            rp_obs::flush_thread_trace();
            // Every LP solve, also those inside the layers, as `rp-obs` counts them.
            spans.count(
                "lp.solves_total",
                rp_obs::global().counter(rp_obs::Counter::LpSolves),
            );
            rp_obs::reset_all();

            let verdict = if answer != expected {
                Err(format!("traced answer {answer:?} != untraced {expected:?}"))
            } else {
                workload.check_traced(&answer, &mut spans)
            };
            match verdict {
                Ok(q) => quality.merge(q),
                Err(why) => {
                    failed += 1;
                    report_failure(W::NAME, traced_op_ms.len() - 1, &why, failed);
                }
            }
        }
    }
    Traced {
        spans,
        untraced_op_ms,
        traced_op_ms,
        failed,
        quality,
    }
}

/// Records one LP solve the benchmark made itself, from the public
/// [`SolveStats`]: its span (`lp.solve.cold` / `lp.solve.warm`), its
/// iteration and refactorisation counts and its phase breakdown.
pub fn record_lp_solve(spans: &mut Spans, stats: &SolveStats, time: Duration) {
    let warm = matches!(stats.warm, WarmStart::WarmHit | WarmStart::WarmRefactor);
    spans.add(
        if warm {
            "lp.solve.warm"
        } else {
            "lp.solve.cold"
        },
        time,
    );
    spans.count("lp.iterations", stats.iterations() as u64);
    spans.count("lp.refactorisations", stats.refactorisations as u64);
    for phase in rp_obs::Phase::ALL {
        spans.count(phase_key(phase), stats.phases.nanos(phase));
    }
}

/// The span-count key holding a phase's nanoseconds.
pub fn phase_key(phase: rp_obs::Phase) -> &'static str {
    match phase {
        rp_obs::Phase::Pricing => "lp.phase.pricing",
        rp_obs::Phase::Ftran => "lp.phase.ftran",
        rp_obs::Phase::Btran => "lp.phase.btran",
        rp_obs::Phase::RatioTest => "lp.phase.ratio_test",
        rp_obs::Phase::Factorise => "lp.phase.factorise",
        rp_obs::Phase::FtUpdate => "lp.phase.ft_update",
        rp_obs::Phase::Presolve => "lp.phase.presolve",
        rp_obs::Phase::Scaling => "lp.phase.scaling",
        rp_obs::Phase::Extract => "lp.phase.extract",
    }
}

/// Every span the traced run reports, on every workload (a span a
/// workload does not reach reports zero calls).
pub const SPAN_METRICS: &[&str] = &[
    "workloads.gen",
    "workloads.trace_gen",
    "online.engine_new",
    "core.heuristics.ctda",
    "core.heuristics.ctdlf",
    "core.heuristics.cbu",
    "core.heuristics.utd",
    "core.heuristics.ubcf",
    "core.heuristics.mg",
    "core.heuristics.mtd",
    "core.heuristics.mbu",
    "core.mixed_best",
    "core.bandwidth_repair",
    "core.ilp.bound",
    "core.ilp.build_model",
    "core.lp_guided",
    "lp.solve.cold",
    "lp.solve.warm",
    "online.apply.closest",
    "online.apply.upwards",
    "online.apply.multiple",
    "online.rung.surgical",
    "online.rung.lp_repair",
    "online.rung.rerun",
    "online.rung.degraded",
    "online.verify",
];

/// Every count the traced run reports.
pub const COUNT_METRICS: &[&str] = &[
    "lp.iterations",
    "lp.refactorisations",
    "lp.solves_total",
    "online.deferred",
];

/// One reported metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// The per-layer metrics of a traced run, in report order.
pub fn layer_metrics<W: Workload>(traced: &Traced) -> Vec<Metric> {
    let per_op = |d: Duration| 1e3 * d.as_secs_f64() / traced.ops() as f64;
    let spans = &traced.spans;
    let mut out: Vec<Metric> = Vec::new();
    for &name in SPAN_METRICS {
        let total = spans.total(name);
        out.push((format!("{name}.calls"), total.calls as f64, "count"));
        out.push((format!("{name}.ms_per_op"), per_op(total.time), "ms"));
    }
    for &name in COUNT_METRICS {
        out.push((name.to_string(), spans.counted(name) as f64, "count"));
    }
    let cold = spans.total("lp.solve.cold");
    let warm = spans.total("lp.solve.warm");
    out.push((
        "lp.warm_hit_share".to_string(),
        ratio(warm.calls as f64, (warm.calls + cold.calls) as f64),
        "share",
    ));
    let mut phase_nanos = 0;
    for phase in rp_obs::Phase::ALL {
        let nanos = spans.counted(phase_key(phase));
        phase_nanos += nanos;
        out.push((
            format!("{}.ms_per_op", phase_key(phase)),
            per_op(Duration::from_nanos(nanos)),
            "ms",
        ));
    }
    let solve_time = cold.time + warm.time;
    out.push((
        "lp.unattributed.ms_per_op".to_string(),
        per_op(solve_time.saturating_sub(Duration::from_nanos(phase_nanos))),
        "ms",
    ));
    out.push((
        "trace.coverage".to_string(),
        traced.coverage::<W>(),
        "share",
    ));
    out.push(("trace.overhead".to_string(), traced.overhead(), "ratio"));
    out
}

/// The end-to-end metrics of a run, in report order.
pub fn e2e_metrics<W: Workload>(run: &E2e) -> Vec<Metric> {
    vec![
        ("setup_s".to_string(), run.setup_s, "s"),
        ("ops_per_s".to_string(), run.ops_per_s(), "1/s"),
        ("op_ms.p50".to_string(), quantile(&run.op_ms, 0.5), "ms"),
        (
            "op_ms.tail".to_string(),
            quantile(&run.op_ms, run_tail::<W>(run.attempted())),
            "ms",
        ),
        ("cpu_ms_per_op".to_string(), run.cpu_ms_per_op(), "ms"),
        ("peak_rss_mb".to_string(), run.peak_rss_mb, "MiB"),
        ("ok_share".to_string(), 1.0 - run.fail_share(), "share"),
        (
            "quality.success_share".to_string(),
            run.quality.success_share(),
            "share",
        ),
        (
            "quality.rel_cost".to_string(),
            run.quality.mean_rel_cost(),
            "ratio",
        ),
    ]
}

/// Seed of the warm-up trial of the sweep workloads: fixed, so that
/// set-up does the same work whatever the run seed.
pub const WARM_UP_SEED: u64 = 20070326;

/// A splitmix64 step: derives independent sub-seeds from the run seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
