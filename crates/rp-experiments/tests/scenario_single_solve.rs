//! A scenario trial solves its LP relaxation exactly once, and reports
//! what the two-solve sequence (bound solve, then `lp_guided_reusing` /
//! `lp_guided_multi_reusing`) reports: the same bound bits, iteration
//! count and LP-guided cost.
//!
//! The solve count is read from the global `lp.solves` counter, so this
//! binary owns the observability mode: it holds one test and restores
//! `ObsMode::Off` when done.

use rp_core::heuristics::lp_guided::{lp_guided_multi_reusing, lp_guided_reusing};
use rp_core::ilp::{build_model, build_multi_model, IlpOptions, Integrality};
use rp_core::multi::MultiObjectProblem;
use rp_core::{Policy, ProblemInstance};
use rp_experiments::runner::ExperimentConfig;
use rp_experiments::scenarios::{run_scenario_trial, trial_seed, ScenarioConfig, ScenarioFamily};
use rp_lp::{solve_lp_engine, LpWorkspace, SimplexOptions, Solution, Status};
use rp_obs::{Counter, ObsMode};
use rp_workloads::scenarios::{
    bandwidth_instance, ill_scaled_bandwidth_instance, multi_object_bandwidth_instance,
    multi_object_instance,
};

/// Bound status and bits, bound-solve iterations, LP-guided cost.
type Answer = ((Status, Option<u64>), usize, Option<u64>);

fn bound_of(solution: &Solution) -> (Status, Option<u64>) {
    let bits = (solution.status == Status::Optimal).then_some(solution.objective.to_bits());
    (solution.status, bits)
}

/// The trial as it was computed before the rounding read the bound's
/// optimum: the bound solve, then a second build and solve inside the
/// LP-guided driver.
fn two_solve_trial(
    config: &ScenarioConfig,
    lambda: f64,
    tree: usize,
    workspace: &mut LpWorkspace,
) -> Answer {
    let seed = trial_seed(config.seed, tree);
    let size = config.problem_size;
    let options = IlpOptions::with_engine(config.engine);
    let simplex = SimplexOptions::default();
    let single = |problem: ProblemInstance, workspace: &mut LpWorkspace| {
        let model = build_model(&problem, Policy::Multiple, Integrality::RationalBound).model;
        let bound = bound_of(&solve_lp_engine(&model, config.engine, &simplex, workspace));
        let iterations = workspace.revised.last_stats().iterations();
        let cost = lp_guided_reusing(&problem, &options, workspace).map(|p| p.cost(&problem));
        (bound, iterations, cost)
    };
    let multi = |problem: MultiObjectProblem, workspace: &mut LpWorkspace| {
        let model = build_multi_model(&problem, Integrality::RationalBound).model;
        let bound = bound_of(&solve_lp_engine(&model, config.engine, &simplex, workspace));
        let iterations = workspace.revised.last_stats().iterations();
        let cost = lp_guided_multi_reusing(&problem, &options, workspace).map(|p| p.cost(&problem));
        (bound, iterations, cost)
    };
    match config.family {
        ScenarioFamily::Bandwidth => single(bandwidth_instance(size, lambda, seed), workspace),
        ScenarioFamily::BandwidthIllScaled => {
            single(ill_scaled_bandwidth_instance(size, lambda, seed), workspace)
        }
        ScenarioFamily::MultiObject => multi(
            multi_object_instance(size, config.num_objects, lambda, seed),
            workspace,
        ),
        ScenarioFamily::MultiObjectBandwidth => multi(
            multi_object_bandwidth_instance(size, config.num_objects, lambda, seed),
            workspace,
        ),
    }
}

#[test]
fn each_trial_solves_once_and_answers_as_the_two_solve_sequence() {
    rp_obs::set_mode(ObsMode::Counters);
    for family in [
        ScenarioFamily::Bandwidth,
        ScenarioFamily::BandwidthIllScaled,
        ScenarioFamily::MultiObject,
        ScenarioFamily::MultiObjectBandwidth,
    ] {
        // Every λ at the `--quick` size, where some warm siblings prove
        // infeasibility and the next sibling starts from what they left.
        let config = ScenarioConfig {
            lambdas: ExperimentConfig::paper_lambdas(),
            problem_size: 60,
            ..ScenarioConfig::smoke_test(family)
        };
        assert!(config.trees_per_lambda >= 3);
        // Tree-major on one workspace per path, the order in which
        // `run_scenario`'s workers visit the trials.
        let mut workspace = LpWorkspace::new();
        let mut reference = LpWorkspace::new();
        let mut rounded = 0;
        for tree in 0..config.trees_per_lambda {
            for &lambda in &config.lambdas {
                let at = format!("{family:?} λ={lambda} tree {tree}");
                let before = rp_obs::global().counter(Counter::LpSolves);
                let trial = run_scenario_trial(&config, lambda, tree, &mut workspace);
                let solves = rp_obs::global().counter(Counter::LpSolves) - before;
                assert_eq!(solves, 1, "{at}: {solves} LP solves");

                let bound = (trial.status, trial.bound.map(f64::to_bits));
                assert_eq!(
                    (bound, trial.iterations, trial.lp_guided_cost),
                    two_solve_trial(&config, lambda, tree, &mut reference),
                    "{at}"
                );
                rounded += trial.lp_guided_cost.is_some() as usize;
            }
        }
        assert!(rounded > 0, "{family:?}: no trial rounded");
    }
    rp_obs::set_mode(ObsMode::Off);
}
