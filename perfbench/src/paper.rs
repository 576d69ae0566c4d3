//! `paper-sweep`: the Section 7.2 experiment at paper scale. One op is
//! one (λ, tree) trial of `ExperimentConfig::paper_scale()` — s drawn
//! from [15, 400], the 9 paper λ values, tree-major — run through
//! `runner::run_single_trial_with` on one pinned `WorkerScratch`: the 8
//! heuristics, MixedBest and the rational LP bound.

use std::sync::Arc;
use std::time::Instant;

use rp_core::heuristics::HeuristicState;
use rp_core::ilp::{build_model, integral_lower_bound, IlpOptions, Integrality};
use rp_core::{Heuristic, MixedBest, Policy, ProblemInstance, StateBuffers};
use rp_experiments::runner::{
    generate_trial_problem_reusing, run_single_trial_with, ExperimentConfig, WorkerScratch,
};
use rp_lp::{solve_lp_engine, LpEngine, LpWorkspace, Status};
use rp_tree::TreeNetwork;

use crate::{mix, record_lp_solve, Quality, RunShape, Spans, Workload, WARM_UP_SEED};

/// Span names of the eight base heuristics, in `Heuristic::BASE` order.
pub const HEURISTIC_SPANS: [&str; 8] = [
    "core.heuristics.ctda",
    "core.heuristics.ctdlf",
    "core.heuristics.cbu",
    "core.heuristics.utd",
    "core.heuristics.ubcf",
    "core.heuristics.mg",
    "core.heuristics.mtd",
    "core.heuristics.mbu",
];

/// The answer of one trial: what `run_single_trial_with` reports,
/// minus its timings.
#[derive(Clone, Debug, PartialEq)]
pub struct TrialAnswer {
    /// Problem size `s` of the generated tree.
    pub problem_size: usize,
    /// The (integral) rational LP bound; `None` = infeasible relaxation.
    pub lp_bound: Option<f64>,
    /// Cost per heuristic, in `Heuristic::ALL` order.
    pub costs: Vec<Option<u64>>,
}

/// The decomposed trial's own state: the same buffers a
/// `WorkerScratch` pins, held where the benchmark can reach them.
#[derive(Default)]
struct Lane {
    buffers: StateBuffers,
    mixed_best: MixedBest,
    lp: LpWorkspace,
    recycled: Option<TreeNetwork>,
    /// Why the lane's last trial failed its placement checks, if it did.
    verdict: Option<String>,
}

/// The `paper-sweep` workload.
pub struct PaperSweep {
    config: ExperimentConfig,
    trials: Vec<(f64, usize)>,
    scratch: WorkerScratch,
    /// Runs the traced ops.
    traced: Lane,
    /// Runs the checked pass's ops.
    check: Lane,
}

/// Trials per second assumed when sizing a run.
const NOMINAL_OPS_PER_S: u64 = 700;

/// Trees per round.
const ROUND_TREES: u64 = 40;

impl Workload for PaperSweep {
    type Answer = TrialAnswer;
    const NAME: &'static str = "paper-sweep";
    const REFERENCE_SAMPLES: usize = 1;
    const PASSES: usize = 4;
    const OP_SPANS: &'static [&'static str] = &[
        "workloads.gen",
        "core.heuristics.ctda",
        "core.heuristics.ctdlf",
        "core.heuristics.cbu",
        "core.heuristics.utd",
        "core.heuristics.ubcf",
        "core.heuristics.mg",
        "core.heuristics.mtd",
        "core.heuristics.mbu",
        "core.mixed_best",
        "core.ilp.bound",
    ];

    fn shape(seconds: u64) -> RunShape {
        let lambdas = ExperimentConfig::paper_lambdas().len() as u64;
        let trees = (seconds * NOMINAL_OPS_PER_S).div_ceil(lambdas * Self::PASSES as u64);
        RunShape {
            rounds: trees.div_ceil(ROUND_TREES) as usize,
            round_ops: (ROUND_TREES * lambdas) as usize,
        }
    }

    fn setup(seed: u64, shape: RunShape, round: usize, _spans: &mut Spans) -> Self {
        let config = ExperimentConfig {
            seed: mix(seed, 1),
            threads: Some(1),
            ..ExperimentConfig::paper_scale()
        };
        let lambdas = config.lambdas.clone();
        let round_trees = shape.round_ops.div_ceil(lambdas.len());
        let trials: Vec<(f64, usize)> = (round * round_trees..(round + 1) * round_trees)
            .flat_map(|tree| lambdas.iter().map(move |&lambda| (lambda, tree)))
            .take(shape.round_ops)
            .collect();
        let mut scratch = WorkerScratch::new();
        // Warm-up: one trial on a fixed tree, the same for every seed.
        let warm_up = ExperimentConfig {
            seed: WARM_UP_SEED,
            ..config.clone()
        };
        run_single_trial_with(&warm_up, lambdas[lambdas.len() / 2], 0, &mut scratch);
        PaperSweep {
            config,
            trials,
            scratch,
            traced: Lane::default(),
            check: Lane::default(),
        }
    }

    fn op_count(&self) -> usize {
        self.trials.len()
    }

    fn op(&mut self, i: usize) -> TrialAnswer {
        let (lambda, tree) = self.trials[i];
        let trial = run_single_trial_with(&self.config, lambda, tree, &mut self.scratch);
        TrialAnswer {
            problem_size: trial.problem_size,
            lp_bound: trial.lp_bound,
            costs: trial.heuristic_costs.iter().map(|&(_, c)| c).collect(),
        }
    }

    fn checked_op(&mut self, i: usize) -> (TrialAnswer, Result<Quality, String>) {
        let (lambda, tree) = self.trials[i];
        let answer = decomposed_trial(
            &self.config,
            lambda,
            tree,
            &mut self.check,
            &mut Spans::off(),
        );
        let verdict = lane_verdict(&mut self.check, &answer);
        (answer, verdict)
    }

    fn traced_op(&mut self, i: usize, spans: &mut Spans) -> TrialAnswer {
        let (lambda, tree) = self.trials[i];
        decomposed_trial(&self.config, lambda, tree, &mut self.traced, spans)
    }

    fn check_traced(
        &mut self,
        answer: &TrialAnswer,
        _spans: &mut Spans,
    ) -> Result<Quality, String> {
        lane_verdict(&mut self.traced, answer)
    }
}

/// The placement checks the lane's last trial made, then the checks of
/// its answer.
fn lane_verdict(lane: &mut Lane, answer: &TrialAnswer) -> Result<Quality, String> {
    match lane.verdict.take() {
        Some(why) => Err(why),
        None => check_answer(answer),
    }
}

/// Bound-versus-cost checks and the quality tally of one trial.
fn check_answer(answer: &TrialAnswer) -> Result<Quality, String> {
    let best = answer.costs.iter().flatten().min().copied();
    match (answer.lp_bound, best) {
        (None, Some(cost)) => {
            return Err(format!(
                "infeasible relaxation but a heuristic served at cost {cost}"
            ))
        }
        (Some(bound), _) if bound <= 0.0 => {
            return Err(format!("LP bound {bound} is not positive"))
        }
        (Some(bound), Some(cost)) if bound > cost as f64 + 1e-6 => {
            return Err(format!("LP bound {bound} exceeds the best cost {cost}"))
        }
        _ => {}
    }
    let served = answer.costs.iter().filter(|c| c.is_some()).count();
    let (rel_cost, rel_cost_of) = match (answer.lp_bound, best) {
        (Some(bound), Some(cost)) => (bound / cost as f64, 1.0),
        _ => (0.0, 0.0),
    };
    Ok(Quality {
        success: served as f64,
        success_of: answer.costs.len() as f64,
        rel_cost,
        rel_cost_of,
    })
}

/// One trial as the public calls `run_single_trial_with` makes, each in
/// its span; every placement is validated into `lane.verdict`.
fn decomposed_trial(
    config: &ExperimentConfig,
    lambda: f64,
    tree: usize,
    lane: &mut Lane,
    spans: &mut Spans,
) -> TrialAnswer {
    let recycled = lane.recycled.take();
    let problem = spans.time("workloads.gen", || {
        generate_trial_problem_reusing(config, lambda, tree, recycled)
    });
    let mut verdict = None;
    let mut costs = Vec::with_capacity(Heuristic::ALL.len());
    for (h, span) in Heuristic::BASE.into_iter().zip(HEURISTIC_SPANS) {
        let (served, state) = spans.time(span, || {
            let mut state =
                HeuristicState::with_buffers(&problem, std::mem::take(&mut lane.buffers));
            (h.run_with(&mut state), state)
        });
        costs.push(served.then(|| state.current_cost()));
        if served && !state.placement().is_valid(&problem, h.policy()) {
            verdict = Some(format!("{h} returned an invalid placement"));
        }
        lane.buffers = state.into_buffers();
    }
    let (mixed_best, buffers, instance) = (&mut lane.mixed_best, &mut lane.buffers, &problem);
    let best = spans.time("core.mixed_best", move || {
        MixedBest::full_sweep_reusing(mixed_best, instance, buffers)
    });
    costs.push(best.map(|p| p.cost(&problem)));
    if best.is_some_and(|p| !p.is_valid(&problem, Policy::Multiple)) {
        verdict = Some("MixedBest returned an invalid placement".to_string());
    }
    let start = Instant::now();
    let lp_bound = rational_bound(&problem, config.engine, lane, spans);
    spans.add("core.ilp.bound", start.elapsed());
    lane.verdict = verdict;
    let answer = TrialAnswer {
        problem_size: problem.tree().problem_size(),
        lp_bound,
        costs,
    };
    recycle(problem, lane);
    answer
}

/// `lower_bound_reusing(.., BoundKind::Rational, ..)` followed by
/// `integral_lower_bound`, as the runner computes it, with the model
/// build and the solve in their own spans.
fn rational_bound(
    problem: &ProblemInstance,
    engine: LpEngine,
    lane: &mut Lane,
    spans: &mut Spans,
) -> Option<f64> {
    let options = IlpOptions::default().branch_bound;
    let formulation = spans.time("core.ilp.build_model", || {
        build_model(problem, Policy::Multiple, Integrality::RationalBound)
    });
    let start = Instant::now();
    let solution = solve_lp_engine(&formulation.model, engine, &options.simplex, &mut lane.lp);
    let elapsed = start.elapsed();
    record_lp_solve(spans, &lane.lp.revised.last_stats(), elapsed);
    let raw = match solution.status {
        Status::Optimal => Some(solution.objective),
        Status::Infeasible => None,
        _ => Some(0.0),
    };
    raw.map(|raw| integral_lower_bound(raw) as f64)
}

/// Retires the trial's tree into the lane, as the runner does.
fn recycle(problem: ProblemInstance, lane: &mut Lane) {
    let tree = problem.tree_arc();
    drop(problem);
    lane.recycled = Arc::try_unwrap(tree).ok();
}
