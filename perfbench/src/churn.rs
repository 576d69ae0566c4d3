//! `churn-400`: seeded `rp_workloads::churn` traces at s = 400 on the
//! heterogeneous platform, λ = 0.4. One `PlacementEngine` per policy,
//! at `Paranoia::Full` with `SolveBudget::UNLIMITED`; one op is one
//! delta absorbed by the Closest, Upwards and Multiple engines in turn
//! (sequentially, on the calling thread).
//!
//! A run drives [`INSTANCES`] independent instances, one per round, each
//! with its own tree, trace and engines: one instance per run would let
//! the draw of a single tree decide every figure of the run.

use std::time::Instant;

use rp_core::bounds::replica_cost_lower_bound;
use rp_core::{InstanceDelta, Policy};
use rp_experiments::churn::ChurnRunConfig;
use rp_lp::SolveBudget;
use rp_online::{ApplyOutcome, ApplyRung, Paranoia, PlacementEngine};
use rp_workloads::churn::churn_trace;
use rp_workloads::platform::paper_scale_instance_sized;

use crate::{mix, Quality, RunShape, Spans, Workload};

/// Apply span of each engine, in `Policy::ALL` order.
const APPLY_SPANS: [&str; 3] = [
    "online.apply.closest",
    "online.apply.upwards",
    "online.apply.multiple",
];

/// One engine's side of an op: the outcome and the incumbent cost.
pub type EngineAnswer = (ApplyOutcome, u64);

/// Independent instances (rounds) per run.
pub const INSTANCES: usize = 32;

/// The `churn-400` workload: one round's instance, its remaining trace
/// and its three engines.
pub struct Churn400 {
    deltas: Vec<InstanceDelta>,
    engines: Vec<PlacementEngine>,
}

/// Ops (deltas) per second assumed when sizing a run.
const NOMINAL_OPS_PER_S: u64 = 300;

impl Churn400 {
    /// Instance `round` of a run from `seed`: the default churn sweep's
    /// instance and trace (its budget and threads are not used here).
    /// The trace carries one extra delta for the warm-up.
    fn config(seed: u64, round: usize, deltas: usize) -> ChurnRunConfig {
        ChurnRunConfig {
            deltas: deltas + 1,
            seed: mix(seed, 100 + round as u64),
            ..ChurnRunConfig::new()
        }
    }

    fn apply(&mut self, i: usize, mut spans: Option<&mut Spans>) -> Vec<EngineAnswer> {
        let delta = self.deltas[i];
        let mut answers = Vec::with_capacity(self.engines.len());
        for (engine, span) in self.engines.iter_mut().zip(APPLY_SPANS) {
            let start = Instant::now();
            let outcome = engine.apply(delta, SolveBudget::UNLIMITED);
            let elapsed = start.elapsed();
            if let Some(spans) = spans.as_deref_mut() {
                spans.add(span, elapsed);
                match outcome.rung() {
                    Some(rung) => spans.add(rung_span(rung), elapsed),
                    None => spans.count("online.deferred", 1),
                }
            }
            answers.push((outcome, engine.incumbent().cost));
        }
        answers
    }

    /// `verify_incumbent()` on every engine after an op (a deferred delta
    /// fails it) and the op's quality tally.
    fn verify(&self, answer: &[EngineAnswer], spans: &mut Spans) -> Result<Quality, String> {
        let mut quality = Quality::default();
        for (engine, &(outcome, _)) in self.engines.iter().zip(answer) {
            let policy = engine.policy();
            if outcome.is_deferred() {
                return Err(format!("{policy} engine deferred the delta"));
            }
            if !spans.time("online.verify", || engine.verify_incumbent()) {
                return Err(format!("{policy} engine holds an unverified incumbent"));
            }
            let incumbent = engine.incumbent();
            quality.success += incumbent.served_fraction();
            quality.success_of += 1.0;
            if incumbent.cost > 0 && incumbent.total_requests > 0 {
                // The Section 3.4 cost bound, scaled to the requests served.
                let served = incumbent.served_requests as f64 / incumbent.total_requests as f64;
                let bound = replica_cost_lower_bound(engine.problem()) * served;
                quality.rel_cost += bound / incumbent.cost as f64;
                quality.rel_cost_of += 1.0;
            }
        }
        Ok(quality)
    }
}

fn rung_span(rung: ApplyRung) -> &'static str {
    match rung {
        ApplyRung::Surgical => "online.rung.surgical",
        ApplyRung::LpRepair => "online.rung.lp_repair",
        ApplyRung::Rerun => "online.rung.rerun",
        ApplyRung::Degraded => "online.rung.degraded",
    }
}

impl Workload for Churn400 {
    type Answer = Vec<EngineAnswer>;
    const NAME: &'static str = "churn-400";
    const PASSES: usize = 3;
    const REFERENCE_SAMPLES: usize = 1;
    /// p99 rather than the highest percentile with ten samples beyond it
    /// (p99.5 at `--seconds 20`): the ten slowest deltas of a run are
    /// the rare failures and re-runs its seed happens to draw: across five
    /// seeds that percentile spread by 0.19 and 0.28 of its median, while
    /// one seed repeated it within 3%.
    const TAIL: Option<f64> = Some(0.99);
    const OP_SPANS: &'static [&'static str] = &APPLY_SPANS;

    /// One round per instance.
    fn shape(seconds: u64) -> RunShape {
        RunShape {
            rounds: INSTANCES,
            round_ops: (seconds * NOMINAL_OPS_PER_S).div_ceil((INSTANCES * Self::PASSES) as u64)
                as usize,
        }
    }

    /// Generates the round's instance and its trace, builds the engines
    /// and absorbs the trace's first delta as the warm-up.
    fn setup(seed: u64, shape: RunShape, round: usize, spans: &mut Spans) -> Self {
        let config = Churn400::config(seed, round, shape.round_ops);
        let problem = spans.time("workloads.gen", || {
            paper_scale_instance_sized(
                config.problem_size,
                config.platform,
                config.lambda,
                config.seed,
            )
        });
        let trace = spans.time("workloads.trace_gen", || {
            churn_trace(&problem, &config.trace, config.deltas, config.seed ^ 0xC4A0)
        });
        let mut engines: Vec<PlacementEngine> = Policy::ALL
            .iter()
            .map(|&policy| {
                spans.time("online.engine_new", || {
                    PlacementEngine::new(problem.clone(), policy).with_paranoia(Paranoia::Full)
                })
            })
            .collect();
        let mut deltas: Vec<InstanceDelta> = trace.iter().map(|entry| entry.delta).collect();
        let warm_up = deltas.remove(0);
        for engine in &mut engines {
            engine.apply(warm_up, SolveBudget::UNLIMITED);
        }
        Churn400 { deltas, engines }
    }

    fn op_count(&self) -> usize {
        self.deltas.len()
    }

    fn op(&mut self, i: usize) -> Vec<EngineAnswer> {
        self.apply(i, None)
    }

    fn checked_op(&mut self, i: usize) -> (Vec<EngineAnswer>, Result<Quality, String>) {
        let answer = self.apply(i, None);
        let verdict = self.verify(&answer, &mut Spans::off());
        (answer, verdict)
    }

    fn traced_op(&mut self, i: usize, spans: &mut Spans) -> Vec<EngineAnswer> {
        self.apply(i, Some(spans))
    }

    fn check_traced(
        &mut self,
        answer: &Vec<EngineAnswer>,
        spans: &mut Spans,
    ) -> Result<Quality, String> {
        self.verify(answer, spans)
    }
}
