//! `bandwidth-2000`: `ScenarioFamily::Bandwidth` at s = 2000. One op is
//! one (λ, tree) trial through `scenarios::run_scenario_trial` on one
//! pinned `LpWorkspace`, tree-major: the rational LP bound (cold on a
//! tree's first λ, warm on its siblings, an infeasibility proof on
//! roughly half the λ values), the eight bandwidth-repaired heuristics
//! and the LP-guided rounding.

use std::time::Instant;

use rp_core::heuristics::lp_guided::lp_guided_reusing;
use rp_core::ilp::{build_model, IlpOptions, Integrality};
use rp_core::{BandwidthRepair, Heuristic, Policy, ProblemInstance};
use rp_experiments::scenarios::{run_scenario_trial, ScenarioConfig, ScenarioFamily};
use rp_lp::{solve_lp_engine, LpEngine, LpWorkspace, SimplexOptions, Status};
use rp_workloads::scenarios::{bandwidth_instance, BANDWIDTH_SCALE_S};

use crate::{mix, record_lp_solve, Quality, RunShape, Spans, Workload, WARM_UP_SEED};

/// The answer of one trial: what `run_scenario_trial` reports, minus
/// its timings.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioAnswer {
    /// Solver status of the relaxation.
    pub status: Status,
    /// Bit pattern of the LP bound (`None` unless optimal).
    pub bound_bits: Option<u64>,
    /// Simplex iterations of the bound solve.
    pub iterations: usize,
    /// Rows × columns of the bound model.
    pub shape: (usize, usize),
    /// Best bandwidth-repaired heuristic cost.
    pub classic_cost: Option<u64>,
    /// LP-guided rounding cost.
    pub lp_guided_cost: Option<u64>,
}

impl ScenarioAnswer {
    fn bound(&self) -> Option<f64> {
        self.bound_bits.map(f64::from_bits)
    }
}

#[derive(Default)]
struct Lane {
    lp: LpWorkspace,
    /// Why the lane's last trial failed its placement checks, if it did.
    verdict: Option<String>,
}

/// The `bandwidth-2000` workload.
pub struct Bandwidth2000 {
    config: ScenarioConfig,
    trials: Vec<(f64, usize)>,
    workspace: LpWorkspace,
    traced: Lane,
    check: Lane,
}

/// Trials per second assumed when sizing a run.
const NOMINAL_OPS_PER_S: f64 = 5.0;

impl Workload for Bandwidth2000 {
    type Answer = ScenarioAnswer;
    const NAME: &'static str = "bandwidth-2000";
    const REFERENCE_SAMPLES: usize = 16;
    const PASSES: usize = 2;
    const OP_SPANS: &'static [&'static str] = &[
        "workloads.gen",
        "core.ilp.bound",
        "core.bandwidth_repair",
        "core.lp_guided",
    ];

    /// One round per tree.
    fn shape(seconds: u64) -> RunShape {
        let lambdas = ScenarioConfig::new(ScenarioFamily::Bandwidth).lambdas.len();
        let trees =
            (seconds as f64 * NOMINAL_OPS_PER_S / (lambdas * Self::PASSES) as f64).ceil() as usize;
        RunShape {
            rounds: trees.max(1),
            round_ops: lambdas,
        }
    }

    fn setup(seed: u64, shape: RunShape, round: usize, _spans: &mut Spans) -> Self {
        let config = ScenarioConfig {
            problem_size: BANDWIDTH_SCALE_S,
            seed: mix(seed, 2),
            threads: Some(1),
            ..ScenarioConfig::new(ScenarioFamily::Bandwidth)
        };
        let lambdas = config.lambdas.clone();
        let round_trees = shape.round_ops.div_ceil(lambdas.len());
        let trials: Vec<(f64, usize)> = (round * round_trees..(round + 1) * round_trees)
            .flat_map(|tree| lambdas.iter().map(move |&lambda| (lambda, tree)))
            .take(shape.round_ops)
            .collect();
        let mut workspace = LpWorkspace::new();
        // Warm-up: one trial on a fixed tree, the same for every seed.
        let warm_up = ScenarioConfig {
            seed: WARM_UP_SEED,
            ..config.clone()
        };
        run_scenario_trial(&warm_up, lambdas[0], 0, &mut workspace);
        Bandwidth2000 {
            config,
            trials,
            workspace,
            traced: Lane::default(),
            check: Lane::default(),
        }
    }

    fn op_count(&self) -> usize {
        self.trials.len()
    }

    fn op(&mut self, i: usize) -> ScenarioAnswer {
        let (lambda, tree) = self.trials[i];
        let trial = run_scenario_trial(&self.config, lambda, tree, &mut self.workspace);
        ScenarioAnswer {
            status: trial.status,
            bound_bits: trial.bound.map(f64::to_bits),
            iterations: trial.iterations,
            shape: (trial.rows, trial.cols),
            classic_cost: trial.classic_cost,
            lp_guided_cost: trial.lp_guided_cost,
        }
    }

    fn checked_op(&mut self, i: usize) -> (ScenarioAnswer, Result<Quality, String>) {
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

    fn traced_op(&mut self, i: usize, spans: &mut Spans) -> ScenarioAnswer {
        let (lambda, tree) = self.trials[i];
        decomposed_trial(&self.config, lambda, tree, &mut self.traced, spans)
    }

    fn check_traced(
        &mut self,
        answer: &ScenarioAnswer,
        _spans: &mut Spans,
    ) -> Result<Quality, String> {
        lane_verdict(&mut self.traced, answer)
    }
}

/// The placement checks the lane's last trial made, then the checks of
/// its answer.
fn lane_verdict(lane: &mut Lane, answer: &ScenarioAnswer) -> Result<Quality, String> {
    match lane.verdict.take() {
        Some(why) => Err(why),
        None => check_answer(answer),
    }
}

/// Status-versus-cost checks and the quality tally of one trial.
fn check_answer(answer: &ScenarioAnswer) -> Result<Quality, String> {
    let best = [answer.classic_cost, answer.lp_guided_cost]
        .into_iter()
        .flatten()
        .min();
    match (answer.status, answer.bound(), best) {
        (Status::Infeasible, _, Some(cost)) => Err(format!(
            "infeasible relaxation but a heuristic served at cost {cost}"
        )),
        (Status::Infeasible, _, None) => Ok(Quality::default()),
        (Status::Optimal, Some(bound), _) if bound <= 0.0 => {
            Err(format!("LP bound {bound} is not positive"))
        }
        (Status::Optimal, Some(bound), Some(cost)) if bound > cost as f64 * (1.0 + 1e-9) + 1e-6 => {
            Err(format!("LP bound {bound} exceeds the best cost {cost}"))
        }
        (Status::Optimal, Some(bound), best) => Ok(Quality {
            success: answer.lp_guided_cost.is_some() as u8 as f64,
            success_of: 1.0,
            rel_cost: best.map_or(0.0, |cost| bound / cost as f64),
            rel_cost_of: best.is_some() as u8 as f64,
        }),
        (status, _, _) => Err(format!("relaxation ended {status:?}")),
    }
}

/// Mirrors the per-tree seed of `rp_experiments::scenarios` (λ is not
/// mixed in, so sibling trials share their tree). A drift shows as a
/// replay mismatch in the output check.
fn trial_seed(base: u64, tree: usize) -> u64 {
    base.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((tree as u64).wrapping_mul(0x94D0_49BB_1331_11EB))
}

/// One trial as the public calls `run_scenario_trial` makes, each in
/// its span; every placement is validated into `lane.verdict`.
fn decomposed_trial(
    config: &ScenarioConfig,
    lambda: f64,
    tree: usize,
    lane: &mut Lane,
    spans: &mut Spans,
) -> ScenarioAnswer {
    let seed = trial_seed(config.seed, tree);
    let problem = spans.time("workloads.gen", || {
        bandwidth_instance(config.problem_size, lambda, seed)
    });
    let start = Instant::now();
    let mut answer = bound(&problem, config.engine, lane, spans);
    spans.add("core.ilp.bound", start.elapsed());
    let mut verdict = None;
    for h in Heuristic::BASE {
        let placement = spans.time("core.bandwidth_repair", || BandwidthRepair(h).run(&problem));
        if let Some(placement) = placement {
            if !placement.is_valid(&problem, h.policy()) {
                verdict = Some(format!("repaired {h} returned an invalid placement"));
            }
            let cost = placement.cost(&problem);
            answer.classic_cost = Some(answer.classic_cost.map_or(cost, |c| c.min(cost)));
        }
    }
    let options = IlpOptions::with_engine(config.engine);
    let rounded = spans.time("core.lp_guided", || {
        lp_guided_reusing(&problem, &options, &mut lane.lp)
    });
    if let Some(placement) = rounded {
        if !placement.is_valid(&problem, Policy::Multiple) {
            verdict = Some("LP-guided rounding returned an invalid placement".to_string());
        }
        answer.lp_guided_cost = Some(placement.cost(&problem));
    }
    lane.verdict = verdict;
    answer
}

/// The bound solve of `run_scenario_trial`: model build, then the
/// rational relaxation on the lane's workspace.
fn bound(
    problem: &ProblemInstance,
    engine: LpEngine,
    lane: &mut Lane,
    spans: &mut Spans,
) -> ScenarioAnswer {
    let model = spans.time("core.ilp.build_model", || {
        build_model(problem, Policy::Multiple, Integrality::RationalBound).model
    });
    let start = Instant::now();
    let solution = solve_lp_engine(&model, engine, &SimplexOptions::default(), &mut lane.lp);
    let elapsed = start.elapsed();
    let stats = lane.lp.revised.last_stats();
    record_lp_solve(spans, &stats, elapsed);
    ScenarioAnswer {
        status: solution.status,
        bound_bits: (solution.status == Status::Optimal).then_some(solution.objective.to_bits()),
        iterations: stats.iterations(),
        shape: (model.num_constraints(), model.num_vars()),
        classic_cost: None,
        lp_guided_cost: None,
    }
}
