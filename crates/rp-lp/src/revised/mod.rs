//! Bounded-variable revised simplex with a factorised basis.
//!
//! This is the scalable counterpart of the dense tableau in
//! [`crate::simplex`]. The method keeps the constraint matrix fixed and
//! sparse (see [`basis::StandardForm`]) and represents the basis inverse
//! as an LU factorisation plus a product-form eta file
//! ([`factor::Factorization`]), so one iteration costs
//! `O(m² + nnz)` instead of the tableau's `O(m·n)` full-matrix
//! elimination — with `m` equal to the *constraint* count only, because
//! variable bounds are handled implicitly by the ratio test
//! ([`ratio`]) rather than materialised as rows.
//!
//! Cold solves pick between two routes. When the phase-2 costs are
//! already **dual feasible at the bound point** — every structural
//! column can sit at a finite bound whose sign agrees with its cost,
//! which is true of all the min-cost replica relaxations (`c ≥ 0`,
//! everything boxed at lower bound 0) — the solve starts from the slack
//! basis and runs the **dual simplex** directly: no phase 1, no
//! artificials, and the bound-flipping dual ratio test ([`ratio`])
//! turns the many boxed columns into long dual steps. Otherwise the
//! textbook two phases run as bounded primal simplex from a **crash
//! basis** that covers infeasible rows with structural columns wherever
//! possible, so phase 1 starts with only a handful of artificials.
//!
//! For branch-and-bound, the workspace additionally supports **warm
//! starts** ([`RevisedWorkspace::solve_warm`]): after a node changes
//! variable bounds, the parent's optimal basis is still dual feasible
//! (bounds do not enter the reduced costs), so a few dual-simplex
//! pivots restore primal feasibility instead of re-running both phases
//! from scratch. The dual simplex prices its leaving row with **dual
//! devex** weights by default ([`DualPricing`]) and its entering column
//! with the bound-flipping ratio test. The basis is refactorised every
//! [`REFACTOR_EVERY`] updates — and the basic values recomputed from
//! the right-hand side — to keep the product form numerically honest.
//!
//! Points are read from a fresh factorisation of the final basis, so a
//! zero-pivot warm re-solve returns the same bits as the solve that
//! found the basis. A warm solve that proves infeasibility leaves the
//! stored basis as it found it: the next solve starts from the last
//! extracted basis, and solving the same model again repeats it.

mod basis;
mod factor;
mod pricing;
mod ratio;
mod scaling;

use std::time::Instant;

use crate::error::LpError;
use crate::model::Model;
use crate::simplex::SimplexOptions;
use crate::solution::{Solution, Status};

use basis::{BasisState, ColStatus, Presolve, StandardForm};
use factor::Factorization;
use pricing::{
    choose_entering, devex_update, dual_devex_update, pivot_row_alphas, CandidateQueue,
    DualCandidates, Entering,
};
use ratio::{dual_ratio_test, primal_ratio_test, DualRatio, Ratio};

pub use pricing::{DualPricing, Pricing};
pub use scaling::Scaling;

/// Eta updates tolerated before the basis is refactorised and the basic
/// values recomputed from scratch.
const REFACTOR_EVERY: usize = 256;

/// Pivot-magnitude tolerance of the ratio tests.
const PIVOT_TOL: f64 = 1e-9;

/// Constraint count below which the cold-solve fixed costs — the
/// presolve analysis passes and the devex weight machinery — outweigh
/// what they save (the documented ~10–20% overhead at `s ≤ 40`). Below
/// this threshold a solve skips presolve and prices with plain Dantzig;
/// the sweep's sibling warm starts are unaffected.
const MICRO_LP_ROWS: usize = 50;

/// Whether a solve of `model` should actually run the presolve pass.
fn effective_presolve(model: &Model, options: &SimplexOptions) -> bool {
    options.presolve && model.num_constraints() >= MICRO_LP_ROWS
}

/// The pricing rule a solve of `model` should actually use: the
/// weight-carrying rules (partial, devex) downgrade to Dantzig on micro
/// models, where every rule pivots near-identically but the weight and
/// queue bookkeeping still costs.
fn effective_pricing(model: &Model, options: &SimplexOptions) -> Pricing {
    if matches!(options.pricing, Pricing::Partial | Pricing::Devex)
        && model.num_constraints() < MICRO_LP_ROWS
    {
        Pricing::Dantzig
    } else {
        options.pricing
    }
}

/// Reusable state of the revised simplex: standard form, basis,
/// factorisation and every scratch vector. A workspace can be reused
/// across solves ([`solve_lp_revised_reusing`]) and carries the optimal
/// basis forward for warm starts ([`RevisedWorkspace::solve_warm`]).
#[derive(Default)]
pub struct RevisedWorkspace {
    form: StandardForm,
    basis: BasisState,
    /// The column statuses and basic header a warm solve started from,
    /// put back when that solve proves the model infeasible.
    warm_entry: BasisState,
    /// `stats.iterations()` when the basic values were last recomputed
    /// from a fresh factorisation (see [`RevisedWorkspace::extract`]).
    recomputed_at: usize,
    factor: Factorization,
    /// Whether `factor` holds an update-free LU of the current basic
    /// header: exactly what [`RevisedWorkspace::refactor`] would build,
    /// so a warm start may reuse it instead of refactorising.
    factor_fresh: bool,
    presolve: Presolve,
    /// Whether `form` is the presolved reduction of the last model.
    presolved: bool,
    /// The scaling mode `form` was built under (a changed mode forces a
    /// cold rebuild on the next solve).
    scaling_mode: Scaling,
    /// The pricing rule of the current solve (the options' rule after
    /// the micro-size downgrade).
    pricing: Pricing,
    /// The dual pricing rule of the current solve.
    dual_pricing: DualPricing,
    /// Partial-pricing candidate queue (see [`pricing`]).
    queue: CandidateQueue,
    /// Dual devex row weights (one per basis slot).
    dual_weights: Vec<f64>,
    /// Incremental list of primal-infeasible rows (dual pricing).
    dual_cands: DualCandidates,
    /// Bound-flipping dual ratio test scratch: `(ratio, |alpha|, col)`
    /// breakpoints and the columns chosen to flip.
    breakpoints: Vec<(f64, f64, u32)>,
    flips: Vec<u32>,
    /// Dual values / BTRAN buffer.
    y: Vec<f64>,
    /// Pivot column / FTRAN buffer.
    w: Vec<f64>,
    /// Nonzero pattern of `w` while the dual loop keeps it sparse.
    w_nz: Vec<u32>,
    /// Dual pivot row buffer, kept zero outside `rho_nz`.
    rho: Vec<f64>,
    /// Nonzero pattern of `rho` (maintained by every writer of `rho`).
    rho_nz: Vec<u32>,
    /// Residual right-hand-side buffer.
    residual: Vec<f64>,
    /// Nonzero pattern of `residual` during the bound-flip FTRAN.
    residual_nz: Vec<u32>,
    /// Per-row flags used by the crash-basis construction.
    row_flags: Vec<bool>,
    /// Phase-1 cost buffer.
    phase_costs: Vec<f64>,
    /// Devex reference-framework weights (one per column).
    devex_weights: Vec<f64>,
    /// Incrementally maintained reduced costs (one per column).
    d: Vec<f64>,
    /// Sparse pivot row: dense accumulator plus the gathered
    /// column/value lists (see [`pricing::pivot_row_alphas`]).
    alpha_acc: Vec<f64>,
    alpha_cols: Vec<u32>,
    alpha_vals: Vec<f64>,
    /// Pivot counters of the most recent solve.
    stats: SolveStats,
    /// FTRAN/BTRAN lifetime counters at solve entry (the factorisation
    /// counts monotonically; per-solve numbers are deltas).
    io_entry: (TranCounters, TranCounters),
    /// Set once a solve left behind a basis usable for warm starts.
    warm_ready: bool,
    /// Wall-clock deadline of the current solve (from the options'
    /// [`crate::SolveBudget`]), fixed at solve entry so warm-to-cold
    /// fallbacks do not restart the clock.
    deadline: Option<Instant>,
    /// Whole-solve iterations still allowed under the budget.
    budget_iters: Option<usize>,
    /// Typed reason the most recent solve stopped abnormally, if it
    /// did. See [`RevisedWorkspace::last_error`].
    last_error: Option<LpError>,
    /// Wall-clock start of the current solve, captured only while
    /// observation is on (pure measurement — never read by any solver
    /// decision, so instrumented runs stay bit-identical).
    solve_started: Option<Instant>,
}

/// Input-density counters of one transform direction (FTRAN or BTRAN):
/// how many entries the permute-in pass saw, and how many were nonzero.
/// The complement of the density is the share of work the hyper-sparse
/// transforms may skip.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TranCounters {
    /// Transform invocations.
    pub calls: u64,
    /// Nonzero entries across all input vectors.
    pub in_nnz: u64,
    /// Summed input-vector dimensions (total entries seen).
    pub dim: u64,
}

impl TranCounters {
    /// Counter growth since an `earlier` snapshot of the same monotone
    /// counters (per-solve deltas out of lifetime totals).
    pub(crate) fn delta_since(self, earlier: TranCounters) -> TranCounters {
        TranCounters {
            calls: self.calls.saturating_sub(earlier.calls),
            in_nnz: self.in_nnz.saturating_sub(earlier.in_nnz),
            dim: self.dim.saturating_sub(earlier.dim),
        }
    }

    /// Fraction of input entries that were exact zeros — the sparsity
    /// the transforms can exploit. `0.0` before any call.
    pub fn skip_ratio(self) -> f64 {
        if self.dim == 0 {
            0.0
        } else {
            1.0 - self.in_nnz as f64 / self.dim as f64
        }
    }
}

/// How a [`RevisedWorkspace`] solve entered: cold, or which warm-start
/// outcome answered.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum WarmStart {
    /// Two-phase cold solve: no stored basis, a structural change, or a
    /// mid-solve fallback after the warm cleanup stalled.
    #[default]
    Cold,
    /// The warm path answered with no refactorisation beyond the entry
    /// one (skipped when the stored factors are current).
    WarmHit,
    /// The warm path answered but needed further refactorisations along
    /// the way.
    WarmRefactor,
    /// A stored basis existed but the presolve or scaling mode changed,
    /// forcing a cold rebuild.
    ModeChangeCold,
}

impl WarmStart {
    /// The wire name used in events and metrics JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            WarmStart::Cold => "cold",
            WarmStart::WarmHit => "warm_hit",
            WarmStart::WarmRefactor => "warm_refactor",
            WarmStart::ModeChangeCold => "mode_change_cold",
        }
    }
}

/// Counters describing the most recent solve of a
/// [`RevisedWorkspace`] — what the iteration-count benchmarks (devex vs
/// Dantzig), the `rp-bench` gate table and the `rp-obs` registry read
/// out.
#[derive(Clone, Copy, Debug, Default)]
pub struct SolveStats {
    /// Primal simplex basis changes (phases 1 and 2 combined).
    pub primal_pivots: usize,
    /// Primal basis changes during phase 1 (artificials allowed).
    pub phase1_pivots: usize,
    /// Bound flips (nonbasic variable jumps to its opposite bound; no
    /// basis change).
    pub bound_flips: usize,
    /// Dual simplex basis changes (warm cleanups and dual cold starts).
    pub dual_pivots: usize,
    /// Bounds flipped by the bound-flipping dual ratio test, summed
    /// over dual pivots. Each flip replaces a would-be pivot;
    /// `dual_bound_flips / dual_pivots` is the long-step payoff.
    pub dual_bound_flips: usize,
    /// Entering candidates served straight from the partial-pricing
    /// queue (no full scan).
    pub queue_hits: usize,
    /// Full-scan rebuilds of the partial-pricing queue (queue
    /// exhaustion, phase starts and optimality confirmations).
    pub queue_rebuilds: usize,
    /// Devex reference-framework resets (primal weight overflows plus
    /// dual row-weight overflows).
    pub devex_resets: usize,
    /// Basis changes with a zero step length (primal or dual).
    pub degenerate_pivots: usize,
    /// Refactorisations performed, the initial one included.
    pub refactorisations: usize,
    /// Refactorisations triggered by the eta-file budget
    /// ([`REFACTOR_EVERY`]).
    pub refactor_scheduled: usize,
    /// Refactorisations forced by a refused (numerically unsafe)
    /// Forrest–Tomlin update.
    pub refactor_ft_refused: usize,
    /// Longest product-form eta chain reached before a refactorisation.
    pub max_eta_chain: usize,
    /// Rows eliminated by presolve (0 when presolve did not run).
    pub presolve_rows_removed: usize,
    /// Columns eliminated by presolve (0 when presolve did not run).
    pub presolve_cols_removed: usize,
    /// FTRAN input-density counters for this solve.
    pub ftran: TranCounters,
    /// BTRAN input-density counters for this solve.
    pub btran: TranCounters,
    /// Which warm-start outcome this solve took.
    pub warm: WarmStart,
    /// Per-phase wall-time breakdown of this solve (all-zero under
    /// `ObsMode::Off`, where no clock is read).
    pub phases: rp_obs::PhaseTimes,
}

impl SolveStats {
    /// Total simplex iterations: pivots of both kinds plus bound flips.
    pub fn iterations(&self) -> usize {
        self.primal_pivots + self.bound_flips + self.dual_pivots
    }

    /// Primal basis changes during phase 2 (and the warm-start polish).
    pub fn phase2_pivots(&self) -> usize {
        self.primal_pivots - self.phase1_pivots
    }
}

impl RevisedWorkspace {
    /// A fresh workspace.
    pub fn new() -> Self {
        RevisedWorkspace::default()
    }

    /// Discards any stored basis, forcing the next solve to start cold.
    pub fn invalidate(&mut self) {
        self.warm_ready = false;
    }

    /// Solves `model`, reusing the previous optimal basis when the
    /// constraint *matrix* is unchanged (verified entry-for-entry in
    /// `O(nnz)`); bounds, objective and right-hand sides may all differ
    /// — branch-and-bound only changes bounds, which additionally keeps
    /// the basis dual feasible so the dual cleanup is short. Falls back
    /// to a cold two-phase solve on any structural change, or when the
    /// dual-simplex cleanup fails.
    pub fn solve_warm(&mut self, model: &Model, options: &SimplexOptions) -> Solution {
        let _span = rp_obs::span(rp_obs::SpanKind::LpSolve);
        self.begin_solve(options);
        let solution = self.solve_warm_inner(model, options);
        self.finish_solve(&solution);
        solution
    }

    /// The warm-path body of [`RevisedWorkspace::solve_warm`], without
    /// budget reset or telemetry bookkeeping.
    fn solve_warm_inner(&mut self, model: &Model, options: &SimplexOptions) -> Solution {
        self.stats = SolveStats::default();
        self.pricing = effective_pricing(model, options);
        self.dual_pricing = options.dual_pricing;
        if !self.warm_ready
            || self.presolved != effective_presolve(model, options)
            || self.scaling_mode != options.scaling
        {
            let was_warm = self.warm_ready;
            let solution = self.solve_cold_inner(model, options);
            if was_warm {
                // A usable basis existed; only the mode mismatch forced
                // the cold path.
                self.stats.warm = WarmStart::ModeChangeCold;
            }
            return solution;
        }
        if self.presolved {
            // Re-run the (cheap, O(nnz)) analysis: the stored reduced
            // basis is only reusable when the new model eliminates
            // exactly the same rows and columns.
            if !self.presolve.analyze(model) {
                return Solution::status_only(Status::Infeasible);
            }
            if !self.presolve.matches_built()
                || !self.form.matrix_matches_reduced(model, &self.presolve)
            {
                return self.solve_cold_inner(model, options);
            }
            self.form.refresh_reduced(model, &self.presolve);
        } else {
            if !self.form.shape_matches(model) || !self.form.matrix_matches(model) {
                return self.solve_cold_inner(model, options);
            }
            self.form.refresh_bounds(model);
        }
        if self.form.trivially_infeasible {
            return Solution::status_only(Status::Infeasible);
        }
        // Nonbasic columns whose bound vanished must be re-anchored.
        for col in 0..self.form.num_cols() {
            match self.basis.status[col] {
                ColStatus::Upper if self.form.upper[col] == f64::INFINITY => {
                    self.basis.status[col] = ColStatus::Lower;
                }
                ColStatus::Lower if self.form.lower[col] == f64::NEG_INFINITY => {
                    self.basis.status[col] = ColStatus::Upper;
                }
                _ => {}
            }
        }
        // The matrix is unchanged, so when the stored LU is the one the
        // last extraction built for this basis it is reused as is; only
        // the basic values follow the new right-hand side and bounds.
        let warm_refac_ok = if self.factor_fresh {
            self.recompute_basic();
            true
        } else {
            let _t = rp_obs::phase_timer(rp_obs::Phase::Factorise);
            self.refactor_and_recompute()
        };
        if !warm_refac_ok {
            return self.solve_cold_inner(model, options);
        }
        // The stored basis is in play: classify the solve as a warm hit
        // (upgraded to `WarmRefactor` by `finish_solve` if further
        // refactorisations prove necessary). Mid-solve cold fallbacks
        // below reset the stats, reverting the classification to cold.
        self.stats.warm = WarmStart::WarmHit;
        self.warm_entry.status.clone_from(&self.basis.status);
        self.warm_entry.basic.clone_from(&self.basis.basic);
        match self.dual_loop(options) {
            DualOutcome::PrimalFeasible => {}
            DualOutcome::Infeasible => {
                // Dual unbounded ⇒ primal infeasible. The next sibling
                // warm-starts from the basis this solve started from,
                // not from wherever the dual ratio test gave up, so the
                // stored basis stays the last extracted one and a
                // re-solve of this model repeats this solve exactly.
                std::mem::swap(&mut self.basis.status, &mut self.warm_entry.status);
                std::mem::swap(&mut self.basis.basic, &mut self.warm_entry.basic);
                self.factor_fresh = false;
                return Solution::status_only(Status::Infeasible);
            }
            // A deadline stop must not restart from scratch — that
            // would spend even longer. The dual simplex maintains dual
            // feasibility at every basis it visits, so by weak duality
            // the objective of the current (primal-infeasible) basic
            // solution is a valid bound on the optimum: return it
            // instead of discarding the cleanup work. The basis stays
            // warm for the next delta. Everything else falls back to a
            // cold solve, which historically recovers these cases.
            DualOutcome::Stopped(LpError::DeadlineExceeded) => {
                let bound = self.dual_bound_objective(model);
                self.last_error = Some(LpError::DeadlineExceeded);
                return Solution::bound_only(Status::DeadlineExceeded, bound);
            }
            DualOutcome::Stopped(_) => return self.solve_cold_inner(model, options),
        }
        // Polish with primal phase 2: exits immediately when the dual
        // cleanup already reached optimality, and absorbs any residual
        // dual infeasibility (e.g. a bound that loosened back) otherwise.
        self.polish_and_extract(model, options)
    }

    /// Primal phase-2 polish after a dual simplex run reached primal
    /// feasibility, followed by solution extraction. Exits immediately
    /// when the dual pass already proved optimality.
    fn polish_and_extract(&mut self, model: &Model, options: &SimplexOptions) -> Solution {
        self.load_phase2_costs();
        let costs = std::mem::take(&mut self.phase_costs);
        let outcome = self.primal_loop(&costs, options, false);
        self.phase_costs = costs;
        match outcome {
            PhaseOutcome::Optimal => self.extract(model, options, Status::Optimal),
            PhaseOutcome::Unbounded => Solution::status_only(Status::Unbounded),
            PhaseOutcome::Stopped(err) => {
                // The dual pass reached primal feasibility and the
                // primal polish preserves it: extract the best point
                // found so far instead of discarding the work.
                self.last_error = Some(err);
                self.extract(model, options, err.status())
            }
        }
    }

    /// Cold two-phase solve, ignoring any stored basis.
    pub fn solve_cold(&mut self, model: &Model, options: &SimplexOptions) -> Solution {
        let _span = rp_obs::span(rp_obs::SpanKind::LpSolve);
        self.begin_solve(options);
        let solution = self.solve_cold_inner(model, options);
        self.finish_solve(&solution);
        solution
    }

    /// [`RevisedWorkspace::solve_cold`] without resetting the solve
    /// budget — the warm path falls back here mid-solve, and the clock
    /// must keep running across the fallback.
    fn solve_cold_inner(&mut self, model: &Model, options: &SimplexOptions) -> Solution {
        self.stats = SolveStats::default();
        self.warm_ready = false;
        self.factor_fresh = false;
        self.pricing = effective_pricing(model, options);
        self.dual_pricing = options.dual_pricing;
        self.presolved = effective_presolve(model, options);
        self.scaling_mode = options.scaling;
        // Clear any previous model's scaling state up front: presolve
        // may prove infeasibility and return before the build runs, and
        // `scaling_spread` must not report the previous solve's data.
        self.form.reset_scaling();
        let presolve_timer = rp_obs::phase_timer(rp_obs::Phase::Presolve);
        if self.presolved {
            if !self.presolve.analyze(model) {
                return Solution::status_only(Status::Infeasible);
            }
            self.presolve.finalize_for_build();
            self.form.build_reduced(model, &self.presolve);
        } else {
            self.form.build(model);
        }
        drop(presolve_timer);
        if self.form.trivially_infeasible {
            return Solution::status_only(Status::Infeasible);
        }
        {
            let _t = rp_obs::phase_timer(rp_obs::Phase::Scaling);
            self.form.apply_scaling(options.scaling);
        }
        let m = self.form.m;
        let n = self.form.n_struct;

        // ---- Dual cold start. ----
        // When every structural column can sit at a finite bound whose
        // sign agrees with its cost, the slack basis is dual feasible
        // and the dual simplex solves the LP in one pass: no phase 1,
        // no artificials, and the bound-flipping ratio test exploits
        // the boxed columns. The min-cost replica relaxations (c ≥ 0,
        // everything boxed at lower bound 0) always qualify. Any
        // abnormal stop falls through to the classic two-phase path.
        if self.try_dual_start_basis(options.tolerance) {
            let refac_ok = {
                let _t = rp_obs::phase_timer(rp_obs::Phase::Factorise);
                self.refactor_and_recompute()
            };
            if !refac_ok {
                return self.fail(LpError::SingularBasis);
            }
            match self.dual_loop(options) {
                DualOutcome::PrimalFeasible => {
                    return self.polish_and_extract(model, options);
                }
                // The start was dual feasible, so an unbounded dual
                // step proves primal infeasibility.
                DualOutcome::Infeasible => {
                    return Solution::status_only(Status::Infeasible);
                }
                // Same weak-duality argument as the warm cleanup: the
                // dual simplex only visits dual-feasible bases, so the
                // current objective is a valid bound on the optimum.
                DualOutcome::Stopped(LpError::DeadlineExceeded) => {
                    let bound = self.dual_bound_objective(model);
                    self.last_error = Some(LpError::DeadlineExceeded);
                    return Solution::bound_only(Status::DeadlineExceeded, bound);
                }
                // Iteration cap or numerical trouble: rebuild from
                // scratch on the historically hardened two-phase path
                // (which carries the Bland anti-cycling fallback).
                DualOutcome::Stopped(_) => {}
            }
        }

        // Initial point: structural columns at their (finite) lower
        // bounds; the residual decides, row by row, whether the slack
        // can be basic or an artificial is needed.
        self.basis.status.clear();
        self.basis
            .status
            .extend(std::iter::repeat_n(ColStatus::Lower, n + m));
        self.basis.basic.clear();
        self.basis.basic.resize(m, usize::MAX);
        self.basis.x_basic.clear();
        self.basis.x_basic.resize(m, 0.0);

        self.residual.clear();
        self.residual.extend_from_slice(&self.form.rhs);
        for j in 0..n {
            let lb = self.form.lower[j];
            if lb != 0.0 {
                let (col_rows, col_vals, range) = (
                    &self.form.col_rows,
                    &self.form.col_vals,
                    self.form.col_ptr[j]..self.form.col_ptr[j + 1],
                );
                for k in range {
                    self.residual[col_rows[k] as usize] -= col_vals[k] * lb;
                }
            }
        }
        // Crash pass: a row whose initial slack value violates the
        // slack bounds would need an artificial — and every artificial
        // costs phase-1 pivots to drive out again. Instead, try to make
        // a *structural* column basic in the row, at the value that
        // closes the residual exactly. The column must not touch any
        // other deficient row (so the crash columns + slacks stay block
        // triangular and trivially nonsingular) and the value must lie
        // within its bounds. On the replica formulations this covers
        // every `cover` equality with one of its `y` variables, cutting
        // phase 1 from one artificial per client to a handful.
        self.row_flags.clear();
        for row in 0..m {
            let slack = n + row;
            let r = self.residual[row];
            self.row_flags
                .push(r < self.form.lower[slack] || r > self.form.upper[slack]);
        }
        for row in 0..m {
            // `row_flags` stays set for rows that received a crash
            // column: a later candidate may not touch *any* deficient
            // row (crashed or not), which keeps every crash row's basic
            // value decoupled — the recompute below then reproduces the
            // hand-checked in-bounds values exactly.
            if !self.row_flags[row] || self.basis.basic[row] != usize::MAX {
                continue;
            }
            let r = self.residual[row];
            // (column, its coefficient in this row) of the best
            // candidate so far — carrying the coefficient avoids having
            // to re-find the entry after the scan.
            let mut chosen: Option<(usize, f64)> = None;
            for k in self.form.row_ptr[row]..self.form.row_ptr[row + 1] {
                let col = self.form.row_cols[k] as usize;
                let coeff = self.form.row_vals[k];
                if coeff.abs() < 1e-7 || self.basis.status[col] != ColStatus::Lower {
                    continue;
                }
                let value = self.form.lower[col] + r / coeff;
                if value < self.form.lower[col] || value > self.form.upper[col] {
                    continue;
                }
                let touches_deficient_row = (self.form.col_ptr[col]..self.form.col_ptr[col + 1])
                    .any(|t| {
                        let other = self.form.col_rows[t] as usize;
                        other != row && self.row_flags[other]
                    });
                if touches_deficient_row {
                    continue;
                }
                match chosen {
                    Some((_, best)) if coeff.abs() <= best.abs() => {}
                    _ => chosen = Some((col, coeff)),
                }
            }
            if let Some((col, coeff)) = chosen {
                // The column leaves its lower bound: remove the lower
                //-bound contribution already folded into the residual
                // and install the basic value.
                let value = self.form.lower[col] + r / coeff;
                let delta = value - self.form.lower[col];
                for t in self.form.col_ptr[col]..self.form.col_ptr[col + 1] {
                    let other = self.form.col_rows[t] as usize;
                    if other != row {
                        self.residual[other] -= self.form.col_vals[t] * delta;
                    }
                }
                self.basis.status[col] = ColStatus::Basic(row as u32);
                self.basis.basic[row] = col;
                self.basis.x_basic[row] = value;
                // The row's slack stays nonbasic: park it at its finite
                // bound (a `>=` slack is unbounded below, so "lower"
                // would be -inf).
                let slack = n + row;
                self.basis.status[slack] = if self.form.lower[slack].is_finite() {
                    ColStatus::Lower
                } else {
                    ColStatus::Upper
                };
            }
        }

        for row in 0..m {
            if self.basis.basic[row] != usize::MAX {
                continue; // crash column already basic here
            }
            let slack = n + row;
            let r = self.residual[row];
            let (slo, shi) = (self.form.lower[slack], self.form.upper[slack]);
            if r >= slo && r <= shi {
                self.basis.status[slack] = ColStatus::Basic(row as u32);
                self.basis.basic[row] = slack;
                self.basis.x_basic[row] = r;
            } else {
                // Park the slack at its nearest bound and cover the
                // deficit with a signed artificial.
                let (bound_status, bound_value) = if r > shi {
                    (ColStatus::Upper, shi)
                } else {
                    (ColStatus::Lower, slo)
                };
                self.basis.status[slack] = bound_status;
                let deficit = r - bound_value;
                let art_col = self.form.num_cols();
                self.form.art_rows.push(row);
                self.form.art_signs.push(deficit.signum());
                self.form.lower.push(0.0);
                self.form.upper.push(f64::INFINITY);
                self.form.cost.push(0.0);
                self.basis.status.push(ColStatus::Basic(row as u32));
                self.basis.basic[row] = art_col;
                self.basis.x_basic[row] = deficit.abs();
            }
        }

        // The crash may leave tiny inconsistencies (clamped values);
        // recomputing `x_B = B⁻¹(b − N·x_N)` makes the start exact.
        // The crash basis is block triangular by construction, so a
        // failure here means genuinely degenerate input data.
        let crash_refac_ok = {
            let _t = rp_obs::phase_timer(rp_obs::Phase::Factorise);
            self.refactor_and_recompute()
        };
        if !crash_refac_ok {
            return self.fail(LpError::SingularBasis);
        }

        // ---- Phase 1: minimise the sum of artificials. ----
        if !self.form.art_rows.is_empty() {
            let art_base = self.form.art_base();
            self.phase_costs.clear();
            self.phase_costs
                .extend((0..self.form.num_cols()).map(|c| f64::from(u8::from(c >= art_base))));
            let costs = std::mem::take(&mut self.phase_costs);
            let outcome = self.primal_loop(&costs, options, true);
            self.phase_costs = costs;
            match outcome {
                PhaseOutcome::Optimal => {}
                // Phase 1 is bounded below by 0; "unbounded" means a
                // numerical failure. The status stays the conservative
                // `IterationLimit` (like the dense solver), with the
                // precise reason recorded on the workspace.
                PhaseOutcome::Unbounded => return self.fail(LpError::NumericalLoss),
                // No feasible point exists yet mid-phase-1, so a budget
                // or solver stop here has nothing to extract.
                PhaseOutcome::Stopped(err) => return self.fail(err),
            }
            let infeasibility: f64 = self
                .basis
                .basic
                .iter()
                .enumerate()
                .filter(|&(_, &col)| col >= art_base)
                .map(|(row, _)| self.basis.x_basic[row].abs())
                .sum();
            if infeasibility > options.tolerance * 10.0 {
                return Solution::status_only(Status::Infeasible);
            }
            // Pin the artificials to zero for phase 2: basic ones stay
            // (at value 0, their bounds block any move away), nonbasic
            // ones are fixed and never priced again.
            for a in 0..self.form.art_rows.len() {
                let col = art_base + a;
                self.form.upper[col] = 0.0;
                if let ColStatus::Basic(row) = self.basis.status[col] {
                    self.basis.x_basic[row as usize] = 0.0;
                }
            }
        }

        // ---- Phase 2: minimise the true objective. ----
        self.load_phase2_costs();
        let costs = std::mem::take(&mut self.phase_costs);
        let outcome = self.primal_loop(&costs, options, false);
        self.phase_costs = costs;
        match outcome {
            PhaseOutcome::Optimal => self.extract(model, options, Status::Optimal),
            PhaseOutcome::Unbounded => Solution::status_only(Status::Unbounded),
            PhaseOutcome::Stopped(err) => {
                // Phase 2 iterates over primal-feasible bases only, so
                // the current point is feasible — return it as the best
                // bound so far rather than discarding the work.
                self.last_error = Some(err);
                self.extract(model, options, err.status())
            }
        }
    }

    /// Records the typed stop reason and returns its conservative
    /// status-only solution.
    fn fail(&mut self, err: LpError) -> Solution {
        self.last_error = Some(err);
        Solution::status_only(err.status())
    }

    /// Resets the per-solve budget state from the options. Runs once
    /// per public solve entry; internal warm-to-cold fallbacks keep the
    /// running clock.
    fn begin_solve(&mut self, options: &SimplexOptions) {
        self.last_error = None;
        self.deadline = options
            .budget
            .deadline
            .map(|allowance| Instant::now() + allowance);
        self.budget_iters = options.budget.max_iterations;
        self.io_entry = self.factor.io_counters();
        self.solve_started = rp_obs::counters_on().then(Instant::now);
        if self.solve_started.is_some() {
            rp_obs::reset_solve_profile();
        }
    }

    /// Final per-solve bookkeeping: computes the FTRAN/BTRAN deltas,
    /// settles the warm-start classification and the presolve reduction
    /// counts on [`SolveStats`], then publishes everything into the
    /// `rp-obs` registry (mode permitting). Pure observation — nothing
    /// here feeds back into any solver decision.
    fn finish_solve(&mut self, solution: &Solution) {
        let (ftran_now, btran_now) = self.factor.io_counters();
        self.stats.ftran = ftran_now.delta_since(self.io_entry.0);
        self.stats.btran = btran_now.delta_since(self.io_entry.1);
        self.stats.max_eta_chain = self.stats.max_eta_chain.max(self.factor.updates());
        if self.stats.warm == WarmStart::WarmHit
            && self.stats.refactor_scheduled + self.stats.refactor_ft_refused > 0
        {
            self.stats.warm = WarmStart::WarmRefactor;
        }
        if self.presolved {
            self.stats.presolve_rows_removed = self.presolve.rows_removed();
            self.stats.presolve_cols_removed = self.presolve.cols_removed();
        }
        if rp_obs::counters_on() {
            self.stats.phases = rp_obs::take_solve_profile();
            let solve_us = self
                .solve_started
                .take()
                .map(|start| start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64)
                .unwrap_or(0);
            self.publish_stats(solution, solve_us);
        }
    }

    /// Publishes the settled [`SolveStats`] into the global `rp-obs`
    /// registry and files the solve with the flight recorder; in
    /// `Full` mode additionally emits one structured `lp.solve` event.
    fn publish_stats(&self, solution: &Solution, solve_us: u64) {
        use rp_obs::{Counter, Gauge, GaugeF};
        let stats = &self.stats;
        rp_obs::incr(Counter::LpSolves);
        rp_obs::add(Counter::LpPhase1Pivots, stats.phase1_pivots as u64);
        rp_obs::add(Counter::LpPhase2Pivots, stats.phase2_pivots() as u64);
        rp_obs::add(Counter::LpDualPivots, stats.dual_pivots as u64);
        rp_obs::add(Counter::LpBoundFlips, stats.bound_flips as u64);
        rp_obs::add(Counter::LpDegeneratePivots, stats.degenerate_pivots as u64);
        rp_obs::add(Counter::LpRefactorisations, stats.refactorisations as u64);
        rp_obs::add(
            Counter::LpRefactorScheduled,
            stats.refactor_scheduled as u64,
        );
        rp_obs::add(
            Counter::LpRefactorFtRefused,
            stats.refactor_ft_refused as u64,
        );
        rp_obs::incr(match stats.warm {
            WarmStart::Cold => Counter::LpWarmCold,
            WarmStart::WarmHit => Counter::LpWarmHit,
            WarmStart::WarmRefactor => Counter::LpWarmRefactor,
            WarmStart::ModeChangeCold => Counter::LpWarmModeChangeCold,
        });
        rp_obs::add(
            Counter::LpPresolveRowsRemoved,
            stats.presolve_rows_removed as u64,
        );
        rp_obs::add(
            Counter::LpPresolveColsRemoved,
            stats.presolve_cols_removed as u64,
        );
        rp_obs::incr(match self.pricing {
            Pricing::Partial => Counter::LpPricingPartial,
            Pricing::Devex => Counter::LpPricingDevex,
            Pricing::Dantzig => Counter::LpPricingDantzig,
            Pricing::Bland => Counter::LpPricingBland,
        });
        rp_obs::add(Counter::LpQueueHits, stats.queue_hits as u64);
        rp_obs::add(Counter::LpQueueRebuilds, stats.queue_rebuilds as u64);
        rp_obs::add(Counter::LpDualBoundFlips, stats.dual_bound_flips as u64);
        rp_obs::add(Counter::LpDevexResets, stats.devex_resets as u64);
        rp_obs::add(Counter::LpFtranCalls, stats.ftran.calls);
        rp_obs::add(Counter::LpFtranInNnz, stats.ftran.in_nnz);
        rp_obs::add(Counter::LpFtranDim, stats.ftran.dim);
        rp_obs::add(Counter::LpBtranCalls, stats.btran.calls);
        rp_obs::add(Counter::LpBtranInNnz, stats.btran.in_nnz);
        rp_obs::add(Counter::LpBtranDim, stats.btran.dim);
        for phase in rp_obs::Phase::ALL {
            rp_obs::add(phase.counter(), stats.phases.nanos(phase));
        }
        let (nnz_l, nnz_u) = self.factor.nnz();
        rp_obs::gauge_set(Gauge::LpFactorNnzL, nnz_l as u64);
        rp_obs::gauge_set(Gauge::LpFactorNnzU, nnz_u as u64);
        rp_obs::gauge_max(Gauge::LpEtaChainMax, stats.max_eta_chain as u64);
        rp_obs::gauge_set(Gauge::LpLastIterations, stats.iterations() as u64);
        rp_obs::record_solve(rp_obs::SolveRecord {
            seq: 0, // assigned by the recorder
            rows: self.form.m as u64,
            cols: self.form.n_struct as u64,
            warm: stats.warm.as_str(),
            status: solution.status.to_string(),
            iterations: stats.iterations() as u64,
            solve_us,
            budget_missed: matches!(
                self.last_error,
                Some(LpError::IterationLimit | LpError::DeadlineExceeded)
            ),
            stop_reason: self.last_error.map(|err| err.to_string()),
            phases: stats.phases,
        });
        if let Some((before, after)) = self.scaling_spread() {
            rp_obs::gauge_f_set(GaugeF::LpScalingSpreadBefore, before);
            rp_obs::gauge_f_set(GaugeF::LpScalingSpreadAfter, after);
        }
        if rp_obs::full_on() {
            let status = solution.status.to_string();
            rp_obs::emit_event(
                "lp.solve",
                &[
                    ("status", rp_obs::JsonValue::Str(&status)),
                    ("objective", rp_obs::JsonValue::F64(solution.objective)),
                    (
                        "iterations",
                        rp_obs::JsonValue::U64(stats.iterations() as u64),
                    ),
                    (
                        "primal_pivots",
                        rp_obs::JsonValue::U64(stats.primal_pivots as u64),
                    ),
                    (
                        "dual_pivots",
                        rp_obs::JsonValue::U64(stats.dual_pivots as u64),
                    ),
                    (
                        "bound_flips",
                        rp_obs::JsonValue::U64(stats.bound_flips as u64),
                    ),
                    (
                        "refactorisations",
                        rp_obs::JsonValue::U64(stats.refactorisations as u64),
                    ),
                    ("warm", rp_obs::JsonValue::Str(stats.warm.as_str())),
                    (
                        "ftran_skip_ratio",
                        rp_obs::JsonValue::F64(stats.ftran.skip_ratio()),
                    ),
                    (
                        "btran_skip_ratio",
                        rp_obs::JsonValue::F64(stats.btran.skip_ratio()),
                    ),
                ],
            );
        }
    }

    /// Charges one iteration against the whole-solve budget, returning
    /// the typed reason to stop if either limit is exhausted.
    fn budget_step(&mut self) -> Option<LpError> {
        if let Some(left) = self.budget_iters.as_mut() {
            if *left == 0 {
                return Some(LpError::IterationLimit);
            }
            *left -= 1;
        }
        match self.deadline {
            Some(deadline) if Instant::now() >= deadline => Some(LpError::DeadlineExceeded),
            _ => None,
        }
    }

    /// The typed reason the most recent solve stopped abnormally —
    /// `None` after a conclusive solve (optimal, infeasible or
    /// unbounded). Set *in addition to* the returned status: a budget
    /// stop that still extracted a feasible point reports the error
    /// here while the solution carries the point.
    pub fn last_error(&self) -> Option<LpError> {
        self.last_error
    }

    fn load_phase2_costs(&mut self) {
        self.phase_costs.clear();
        self.phase_costs.extend_from_slice(&self.form.cost);
    }

    /// Extracts the current basic solution (postsolving any presolve
    /// reductions) under the given status and marks the workspace warm.
    /// Besides `Status::Optimal`, this also serves budget stops at a
    /// primal-feasible basis, where the point is feasible but not
    /// proven optimal.
    ///
    /// When pivots or bound flips moved the basis since the basic values
    /// were last recomputed, the basis is refactorised first and the
    /// values read from the fresh factors. The point is then a function
    /// of the final basis alone, not of the update path that reached it:
    /// a zero-pivot warm re-solve of the same model returns it bit for
    /// bit, and no Forrest–Tomlin drift reaches the caller.
    fn extract(&mut self, model: &Model, options: &SimplexOptions, status: Status) -> Solution {
        if self.stats.iterations() != self.recomputed_at {
            let _t = rp_obs::phase_timer(rp_obs::Phase::Factorise);
            // A singular refactorisation leaves the updated values in
            // place; the next warm entry refactorises (or goes cold).
            self.refactor_and_recompute();
        }
        let _t = rp_obs::phase_timer(rp_obs::Phase::Extract);
        let mut values = Vec::new();
        self.basis.extract_values(&self.form, &mut values);
        // Clamp numerical dust onto the box so downstream feasibility
        // checks (and MILP integrality tests) see clean values.
        for (j, v) in values.iter_mut().enumerate() {
            *v = v.max(self.form.lower[j]).min(self.form.upper[j]);
        }
        if self.form.scaled {
            // Unscale: `x_j = c_j·x'_j`, exact because the scales are
            // powers of two.
            for (v, &c) in values.iter_mut().zip(&self.form.col_scale) {
                *v *= c;
            }
        }
        if self.presolved {
            // Postsolve: expand the reduced solution back over the
            // original variables (in place, back to front — a kept
            // column's reduced index never exceeds its original one).
            let n = model.num_vars();
            let mut reduced = self.presolve.cols.len();
            values.resize(n, 0.0);
            for j in (0..n).rev() {
                values[j] = if self.presolve.col_kept[j] {
                    reduced -= 1;
                    values[reduced]
                } else {
                    self.presolve.fixed[j]
                };
            }
        }
        let mut objective = model.objective_value(&values);
        if objective.abs() < options.tolerance {
            objective = 0.0;
        }
        self.warm_ready = true;
        Solution {
            status,
            objective,
            values,
        }
    }

    /// The objective of the current basic solution mapped back to the
    /// original variable space **without** clamping onto the box.
    ///
    /// At a dual-feasible basis this value equals the dual objective of
    /// the complementary dual point, so for a minimisation it is a
    /// valid lower bound on the optimum (weak duality). Clamping — what
    /// [`RevisedWorkspace::extract`] does for point extraction — would
    /// move the out-of-bounds basic values and break that identity,
    /// which is why the deadline-stopped warm cleanup uses this
    /// separate path and returns the value through
    /// [`Solution::bound_only`] with no point attached.
    fn dual_bound_objective(&mut self, model: &Model) -> f64 {
        let _t = rp_obs::phase_timer(rp_obs::Phase::Extract);
        let mut values = Vec::new();
        self.basis.extract_values(&self.form, &mut values);
        if self.form.scaled {
            for (v, &c) in values.iter_mut().zip(&self.form.col_scale) {
                *v *= c;
            }
        }
        if self.presolved {
            let n = model.num_vars();
            let mut reduced = self.presolve.cols.len();
            values.resize(n, 0.0);
            for j in (0..n).rev() {
                values[j] = if self.presolve.col_kept[j] {
                    reduced -= 1;
                    values[reduced]
                } else {
                    self.presolve.fixed[j]
                };
            }
        }
        model.objective_value(&values)
    }

    /// Pivot/refactorisation counters of the most recent solve.
    pub fn last_stats(&self) -> SolveStats {
        self.stats
    }

    /// Entry-spread diagnostics `(before, after)` of the equilibration
    /// pass, or `None` when the last solve ran unscaled (mode `Off`, or
    /// `Auto` on a well-scaled matrix).
    pub fn scaling_spread(&self) -> Option<(f64, f64)> {
        self.form
            .scaled
            .then_some((self.form.spread_before, self.form.spread_after))
    }

    /// Whether the last solve actually ran the presolve pass — `false`
    /// on micro models even when [`SimplexOptions::presolve`] is set
    /// (the size-threshold fast path).
    pub fn last_solve_used_presolve(&self) -> bool {
        self.presolved
    }

    /// The pricing rule the last solve actually used (devex downgrades
    /// to Dantzig below the micro-size threshold).
    pub fn last_solve_pricing(&self) -> Pricing {
        self.pricing
    }

    /// Nonzero counts `(nnz(L), nnz(U))` of the current basis
    /// factorisation (meaningful after a solve).
    pub fn factor_nnz(&self) -> (usize, usize) {
        self.factor.nnz()
    }

    /// Benchmark hook: one hyper-sparse FTRAN on the unit vector `e_i`.
    #[doc(hidden)]
    pub fn bench_ftran_unit(&mut self, i: usize) {
        let m = self.form.m;
        if m == 0 {
            return;
        }
        self.w.clear();
        self.w.resize(m, 0.0);
        self.w_nz.clear();
        self.w[i % m] = 1.0;
        self.w_nz.push((i % m) as u32);
        self.factor.ftran_sparse(&mut self.w, &mut self.w_nz);
    }

    /// Benchmark hook: one hyper-sparse BTRAN on the unit vector `e_i`.
    #[doc(hidden)]
    pub fn bench_btran_unit(&mut self, i: usize) {
        let m = self.form.m;
        if m == 0 {
            return;
        }
        self.rho.clear();
        self.rho.resize(m, 0.0);
        self.rho_nz.clear();
        self.rho[i % m] = 1.0;
        self.rho_nz.push((i % m) as u32);
        self.factor.btran_sparse(&mut self.rho, &mut self.rho_nz);
    }

    /// Benchmark hook: one sparse Markowitz refactorisation of the
    /// current basis.
    #[doc(hidden)]
    pub fn bench_refactor(&mut self) -> bool {
        if self.basis.basic.len() != self.form.m {
            return false;
        }
        self.refactor()
    }

    /// Refactorises the basis from its column set.
    fn refactor(&mut self) -> bool {
        self.stats.refactorisations += 1;
        let form = &self.form;
        let basic = &self.basis.basic;
        self.factor_fresh = self.factor.refactor(form.m, |k, rows, vals| {
            form.for_each_entry(basic[k], |row, val| {
                rows.push(row as u32);
                vals.push(val);
            });
        });
        self.factor_fresh
    }

    /// Installs the slack basis with every structural column parked at
    /// a finite bound whose sign agrees with its cost — the
    /// dual-feasible start of the cold dual simplex route. Returns
    /// `false` when some column has no such bound (wrong-signed cost
    /// towards its only finite bound, or a genuinely free column); the
    /// caller then runs the classic two-phase path, which rebuilds the
    /// basis wholesale.
    fn try_dual_start_basis(&mut self, tol: f64) -> bool {
        let m = self.form.m;
        let n = self.form.n_struct;
        self.basis.status.clear();
        self.basis.status.reserve(n + m);
        for j in 0..n {
            let cost = self.form.cost[j];
            let status = if self.form.lower[j].is_finite() && cost >= -tol {
                ColStatus::Lower
            } else if self.form.upper[j].is_finite() && cost <= tol {
                ColStatus::Upper
            } else {
                return false;
            };
            self.basis.status.push(status);
        }
        for row in 0..m {
            self.basis.status.push(ColStatus::Basic(row as u32));
        }
        self.basis.basic.clear();
        self.basis.basic.extend(n..n + m);
        self.basis.x_basic.clear();
        self.basis.x_basic.resize(m, 0.0);
        true
    }

    /// Refactorises and recomputes the basic values from the residual
    /// right-hand side (squashing accumulated product-form drift).
    fn refactor_and_recompute(&mut self) -> bool {
        if !self.refactor() {
            return false;
        }
        self.recompute_basic();
        true
    }

    /// Recomputes the basic values from the residual right-hand side
    /// through the current factorisation.
    fn recompute_basic(&mut self) {
        self.basis.residual_rhs(&self.form, &mut self.residual);
        self.factor.ftran(&mut self.residual);
        self.basis.x_basic.clear();
        self.basis.x_basic.extend_from_slice(&self.residual);
        self.recomputed_at = self.stats.iterations();
    }

    /// [`RevisedWorkspace::ftran_column`] through the hyper-sparse
    /// FTRAN, maintaining `w_nz`. Requires the sparse-`w` invariant
    /// (zero outside `w_nz`), which [`RevisedWorkspace::dual_loop`]
    /// establishes at entry and every sparse call preserves.
    fn ftran_column_sparse(&mut self, col: usize) {
        let _t = rp_obs::phase_timer(rp_obs::Phase::Ftran);
        for &r in &self.w_nz {
            self.w[r as usize] = 0.0;
        }
        self.w_nz.clear();
        let w = &mut self.w;
        let w_nz = &mut self.w_nz;
        self.form.for_each_entry(col, |row, val| {
            if w[row] == 0.0 {
                w_nz.push(row as u32);
            }
            w[row] += val;
        });
        self.factor.ftran_sparse(w, w_nz);
    }

    /// Loads `B⁻¹ a_col` into `self.w`.
    fn ftran_column(&mut self, col: usize) {
        let _t = rp_obs::phase_timer(rp_obs::Phase::Ftran);
        self.w.clear();
        self.w.resize(self.form.m, 0.0);
        let w = &mut self.w;
        self.form.for_each_entry(col, |row, val| w[row] += val);
        self.factor.ftran(w);
    }

    /// Recomputes the duals `y = B⁻ᵀ c_B` and every reduced cost
    /// `d_j = c_j − yᵀa_j` from scratch (`O(nnz)`). Called at phase
    /// starts and after refactorisations; between those, `d` is kept
    /// current by rank-one pivot-row updates.
    fn compute_reduced_costs(&mut self, costs: &[f64]) {
        self.y.clear();
        self.y
            .extend(self.basis.basic.iter().map(|&col| costs[col]));
        self.factor.btran(&mut self.y);
        self.d.clear();
        let form = &self.form;
        let y = &self.y;
        self.d.extend(
            costs
                .iter()
                .enumerate()
                .map(|(col, &c)| c - form.col_dot(col, y)),
        );
        if self.alpha_acc.len() != costs.len() {
            self.alpha_acc.clear();
            self.alpha_acc.resize(costs.len(), 0.0);
        }
    }

    /// Computes the sparse pivot row `α = Aᵀ B⁻ᵀ e_row` into
    /// `self.alpha_cols` / `self.alpha_vals` (must run on the
    /// *pre-pivot* factorisation).
    fn compute_pivot_row(&mut self, row: usize) {
        let _t = rp_obs::phase_timer(rp_obs::Phase::Btran);
        if self.rho.len() != self.form.m {
            self.rho.clear();
            self.rho.resize(self.form.m, 0.0);
            self.rho_nz.clear();
        }
        // Clear the previous call's pattern instead of an `O(m)` memset.
        for &r in &self.rho_nz {
            self.rho[r as usize] = 0.0;
        }
        self.rho_nz.clear();
        self.rho[row] = 1.0;
        self.rho_nz.push(row as u32);
        self.factor.btran_sparse(&mut self.rho, &mut self.rho_nz);
        pivot_row_alphas(
            &self.form,
            &self.rho,
            &self.rho_nz,
            &mut self.alpha_acc,
            &mut self.alpha_cols,
            &mut self.alpha_vals,
        );
    }

    /// Applies the rank-one reduced-cost update
    /// `d ← d − θ_d·α` over the sparse pivot row, pinning the entering
    /// column's reduced cost to an exact zero.
    fn update_reduced_costs(&mut self, theta_d: f64, entering: usize) {
        let _t = rp_obs::phase_timer(rp_obs::Phase::Pricing);
        if theta_d != 0.0 {
            for k in 0..self.alpha_cols.len() {
                let col = self.alpha_cols[k] as usize;
                self.d[col] -= theta_d * self.alpha_vals[k];
            }
        }
        self.d[entering] = 0.0;
    }

    /// Runs primal pivots until the given cost vector is optimal.
    fn primal_loop(
        &mut self,
        costs: &[f64],
        options: &SimplexOptions,
        allow_artificial: bool,
    ) -> PhaseOutcome {
        let tol = options.tolerance;
        let max_iter = options
            .max_iterations
            .unwrap_or_else(|| 200 + 50 * (self.form.m + self.form.num_cols()));
        // Each phase starts a fresh devex reference framework (the
        // current nonbasic set with unit weights) and an empty
        // candidate queue.
        let queue_mode = self.pricing == Pricing::Partial;
        let devex_mode = queue_mode || self.pricing == Pricing::Devex;
        if devex_mode {
            self.devex_weights.clear();
            self.devex_weights.resize(self.form.num_cols(), 1.0);
        }
        self.queue.clear();
        {
            let _t = rp_obs::phase_timer(rp_obs::Phase::Pricing);
            self.compute_reduced_costs(costs);
        }
        // Pivots since `d` was last computed from scratch: an
        // incrementally updated `d` may only declare optimality after a
        // fresh recomputation confirms it.
        let mut stale_pivots = 0usize;
        for iteration in 0..max_iter {
            let use_bland = iteration >= options.bland_after || self.pricing == Pricing::Bland;
            let candidate = if queue_mode && !use_bland {
                // Partial pricing: serve from the candidate queue; only
                // an exhausted queue pays for a full rebuild scan. A
                // `None` out of the rebuilt queue is the full-scan
                // optimality signal every other rule produces directly.
                match self
                    .queue
                    .pick(&self.form, &self.basis, &self.d, tol, &self.devex_weights)
                {
                    Some(e) => {
                        self.stats.queue_hits += 1;
                        Some(e)
                    }
                    None => {
                        self.stats.queue_rebuilds += 1;
                        self.queue.rebuild(
                            &self.form,
                            &self.basis,
                            &self.d,
                            tol,
                            allow_artificial,
                            &self.devex_weights,
                        );
                        self.queue
                            .pick(&self.form, &self.basis, &self.d, tol, &self.devex_weights)
                    }
                }
            } else {
                choose_entering(
                    &self.form,
                    &self.basis,
                    &self.d,
                    tol,
                    use_bland,
                    allow_artificial,
                    (devex_mode && !use_bland).then_some(self.devex_weights.as_slice()),
                )
            };
            let entering = match candidate {
                Some(e) => e,
                None => {
                    if stale_pivots == 0 {
                        return PhaseOutcome::Optimal;
                    }
                    let _t = rp_obs::phase_timer(rp_obs::Phase::Pricing);
                    self.compute_reduced_costs(costs);
                    stale_pivots = 0;
                    self.queue.clear();
                    continue;
                }
            };

            // Charge the budget only once a pivot is actually about to
            // run: an already-optimal basis still reports `Optimal`
            // even under an expired budget.
            if let Some(err) = self.budget_step() {
                return PhaseOutcome::Stopped(err);
            }

            self.ftran_column(entering.col);
            match primal_ratio_test(
                &self.form,
                &self.basis,
                &entering,
                &self.w,
                PIVOT_TOL,
                use_bland,
            ) {
                Ratio::Unbounded => return PhaseOutcome::Unbounded,
                Ratio::Flip { step } => {
                    // No basis change: the reduced costs are untouched.
                    self.stats.bound_flips += 1;
                    self.apply_step(&entering, step);
                    self.basis.status[entering.col] = match self.basis.status[entering.col] {
                        ColStatus::Lower => ColStatus::Upper,
                        ColStatus::Upper => ColStatus::Lower,
                        // The pricing only proposes nonbasic columns; a
                        // basic status here means the pricing state and
                        // the basis desynchronised. Stop with a typed
                        // error instead of corrupting the basis.
                        ColStatus::Basic(_) => {
                            debug_assert!(false, "entering column must be nonbasic");
                            return PhaseOutcome::Stopped(LpError::NumericalLoss);
                        }
                    };
                }
                Ratio::Pivot {
                    row,
                    step,
                    to_upper,
                } => {
                    self.stats.primal_pivots += 1;
                    if allow_artificial {
                        self.stats.phase1_pivots += 1;
                    }
                    if step == 0.0 {
                        self.stats.degenerate_pivots += 1;
                    }
                    // Sparse pivot row on the pre-pivot basis: it
                    // drives the rank-one reduced-cost update and the
                    // devex weights.
                    self.compute_pivot_row(row);
                    let alpha_q = self.w[row];
                    let theta_d = self.d[entering.col] / alpha_q;
                    let entering_value =
                        self.basis.nonbasic_value(&self.form, entering.col) + entering.sigma * step;
                    self.apply_step(&entering, step);
                    let leaving = self.basis.basic[row];
                    self.basis.status[leaving] = if to_upper {
                        ColStatus::Upper
                    } else {
                        ColStatus::Lower
                    };
                    self.basis.status[entering.col] = ColStatus::Basic(row as u32);
                    self.basis.basic[row] = entering.col;
                    self.basis.x_basic[row] = entering_value;
                    if devex_mode {
                        let wq = self.devex_weights[entering.col].max(1.0);
                        let overflow = devex_update(
                            &self.form,
                            &self.basis,
                            &mut self.devex_weights,
                            &self.alpha_cols,
                            &self.alpha_vals,
                            alpha_q,
                            wq,
                            leaving,
                        );
                        if overflow {
                            self.devex_weights.iter_mut().for_each(|w| *w = 1.0);
                            self.stats.devex_resets += 1;
                        }
                    }
                    self.update_reduced_costs(theta_d, entering.col);
                    // Forrest–Tomlin update from the spike the FTRAN
                    // saved; a refused (numerically unsafe) update or a
                    // full update budget forces a refactorisation.
                    self.factor_fresh = false;
                    let ft_ok = self.factor.update(row);
                    if ft_ok {
                        self.stats.max_eta_chain =
                            self.stats.max_eta_chain.max(self.factor.updates());
                    }
                    if !ft_ok || self.factor.updates() >= REFACTOR_EVERY {
                        if ft_ok {
                            self.stats.refactor_scheduled += 1;
                        } else {
                            self.stats.refactor_ft_refused += 1;
                        }
                        let refac_ok = {
                            let _t = rp_obs::phase_timer(rp_obs::Phase::Factorise);
                            let ok = self.refactor_and_recompute();
                            if ok {
                                self.compute_reduced_costs(costs);
                            }
                            ok
                        };
                        if !refac_ok {
                            return PhaseOutcome::Stopped(LpError::SingularBasis);
                        }
                        stale_pivots = 0;
                    } else {
                        stale_pivots += 1;
                    }
                }
            }
        }
        PhaseOutcome::Stopped(LpError::IterationLimit)
    }

    /// Moves every basic variable along the pivot column: the entering
    /// variable advances by `sigma·step`, so row `i` changes by
    /// `−sigma·step·w_i`.
    fn apply_step(&mut self, entering: &Entering, step: f64) {
        if step == 0.0 {
            return;
        }
        let _t = rp_obs::phase_timer(rp_obs::Phase::Ftran);
        let scale = entering.sigma * step;
        for (x, &wi) in self.basis.x_basic.iter_mut().zip(&self.w) {
            *x -= scale * wi;
        }
    }

    /// Applies the bound flips collected by the dual ratio test: each
    /// column's status toggles to the opposite bound, and the combined
    /// movement `B⁻¹ · Σ Δx_j a_j` is subtracted from the basic values
    /// with a single FTRAN — the flips change no basis column.
    fn apply_dual_flips(&mut self, flips: &[u32]) {
        let _t = rp_obs::phase_timer(rp_obs::Phase::Ftran);
        self.residual.clear();
        self.residual.resize(self.form.m, 0.0);
        self.residual_nz.clear();
        for &col in flips {
            let col = col as usize;
            let (delta, flipped) = match self.basis.status[col] {
                ColStatus::Lower => (
                    self.form.upper[col] - self.form.lower[col],
                    ColStatus::Upper,
                ),
                ColStatus::Upper => (
                    self.form.lower[col] - self.form.upper[col],
                    ColStatus::Lower,
                ),
                ColStatus::Basic(_) => {
                    debug_assert!(false, "flip candidates are nonbasic");
                    continue;
                }
            };
            self.basis.status[col] = flipped;
            let residual = &mut self.residual;
            let residual_nz = &mut self.residual_nz;
            self.form.for_each_entry(col, |row, val| {
                if residual[row] == 0.0 {
                    residual_nz.push(row as u32);
                }
                residual[row] += val * delta;
            });
        }
        self.factor
            .ftran_sparse(&mut self.residual, &mut self.residual_nz);
        for &i in &self.residual_nz {
            let i = i as usize;
            self.basis.x_basic[i] -= self.residual[i];
        }
    }

    /// Dual simplex: restores primal feasibility while keeping the
    /// reduced costs sign-feasible. Serves both the warm cleanup and
    /// the cold dual start; assumes the factorisation is fresh. The
    /// leaving row comes from the configured [`DualPricing`] rule, the
    /// entering column from the bound-flipping dual ratio test.
    fn dual_loop(&mut self, options: &SimplexOptions) -> DualOutcome {
        let tol = options.tolerance;
        let max_iter = options
            .max_iterations
            .unwrap_or_else(|| 200 + 50 * (self.form.m + self.form.num_cols()));
        // Each dual run starts a fresh devex reference framework: the
        // current basis with unit row weights.
        let dual_devex = self.dual_pricing == DualPricing::Devex;
        if dual_devex {
            self.dual_weights.clear();
            self.dual_weights.resize(self.form.m, 1.0);
        }
        // Establish the sparse-`w` invariant the loop's hyper-sparse
        // FTRANs maintain: zero outside `w_nz`.
        self.w.clear();
        self.w.resize(self.form.m, 0.0);
        self.w_nz.clear();
        // Dual pricing needs the phase-2 reduced costs; they are kept
        // current by the same rank-one pivot-row updates the primal
        // loop uses.
        self.load_phase2_costs();
        let costs = std::mem::take(&mut self.phase_costs);
        {
            let _t = rp_obs::phase_timer(rp_obs::Phase::Pricing);
            self.compute_reduced_costs(&costs);
        }
        self.dual_cands.rebuild(&self.form, &self.basis, tol);
        let outcome = 'search: {
            for _ in 0..max_iter {
                let weights = dual_devex.then_some(self.dual_weights.as_slice());
                let leaving = match self.dual_cands.pick(&self.form, &self.basis, tol, weights) {
                    Some(l) => Some(l),
                    None => {
                        // The incremental list only tracks rows the
                        // pivots touched — confirm primal feasibility
                        // with a full rescan before declaring it.
                        self.dual_cands.rebuild(&self.form, &self.basis, tol);
                        self.dual_cands.pick(&self.form, &self.basis, tol, weights)
                    }
                };
                let leaving = match leaving {
                    Some(l) => l,
                    None => break 'search DualOutcome::PrimalFeasible,
                };
                // Budget charged per attempted pivot (see primal_loop).
                if let Some(err) = self.budget_step() {
                    break 'search DualOutcome::Stopped(err);
                }
                // Sparse pivot row α = Aᵀ B⁻ᵀ e_r.
                self.compute_pivot_row(leaving.row);

                let mut breakpoints = std::mem::take(&mut self.breakpoints);
                let mut flips = std::mem::take(&mut self.flips);
                let ratio = dual_ratio_test(
                    &self.form,
                    &self.basis,
                    &self.d,
                    &self.alpha_cols,
                    &self.alpha_vals,
                    leaving.above,
                    leaving.violation,
                    PIVOT_TOL,
                    &mut breakpoints,
                    &mut flips,
                );
                self.breakpoints = breakpoints;
                let entering = match ratio {
                    DualRatio::Infeasible => {
                        self.flips = flips;
                        break 'search DualOutcome::Infeasible;
                    }
                    DualRatio::Step { entering } => entering,
                };
                // Boxed columns the long dual step passed over jump to
                // their opposite bounds; one combined FTRAN updates the
                // basic values. This must happen before the entering
                // FTRAN below, which owns the factorisation's saved
                // spike for the upcoming basis update.
                if !flips.is_empty() {
                    self.stats.dual_bound_flips += flips.len();
                    self.apply_dual_flips(&flips);
                    // The flip FTRAN moved the basic values in its
                    // residual pattern; admit any newly violated rows.
                    let _t = rp_obs::phase_timer(rp_obs::Phase::Pricing);
                    for &i in &self.residual_nz {
                        self.dual_cands
                            .note(&self.form, &self.basis, tol, i as usize);
                    }
                }
                self.flips = flips;

                self.ftran_column_sparse(entering);
                let row = leaving.row;
                let alpha = self.w[row];
                if alpha.abs() <= PIVOT_TOL {
                    // The FTRAN disagrees with the BTRAN row — numerical
                    // trouble; let the caller fall back to a cold solve.
                    break 'search DualOutcome::Stopped(LpError::NumericalLoss);
                }
                let leaving_col = self.basis.basic[row];
                let target = if leaving.above {
                    self.form.upper[leaving_col]
                } else {
                    self.form.lower[leaving_col]
                };
                self.stats.dual_pivots += 1;
                let theta_d = self.d[entering] / alpha;
                let dxq = (self.basis.x_basic[row] - target) / alpha;
                if dxq == 0.0 {
                    self.stats.degenerate_pivots += 1;
                }
                let entering_value = self.basis.nonbasic_value(&self.form, entering) + dxq;
                if dxq != 0.0 {
                    let _t = rp_obs::phase_timer(rp_obs::Phase::Ftran);
                    for &i in &self.w_nz {
                        let i = i as usize;
                        self.basis.x_basic[i] -= dxq * self.w[i];
                    }
                }
                self.basis.status[leaving_col] = if leaving.above {
                    ColStatus::Upper
                } else {
                    ColStatus::Lower
                };
                self.basis.status[entering] = ColStatus::Basic(row as u32);
                self.basis.basic[row] = entering;
                self.basis.x_basic[row] = entering_value;
                // Patch the candidate list with the rows this pivot
                // moved: the entering column's pattern + the pivot row.
                {
                    let _t = rp_obs::phase_timer(rp_obs::Phase::Pricing);
                    if dxq != 0.0 {
                        for &i in &self.w_nz {
                            self.dual_cands
                                .note(&self.form, &self.basis, tol, i as usize);
                        }
                    }
                    self.dual_cands.note(&self.form, &self.basis, tol, row);
                }
                self.update_reduced_costs(theta_d, entering);
                if dual_devex
                    && dual_devex_update(
                        &self.form,
                        &self.basis,
                        &mut self.dual_weights,
                        &self.w,
                        &self.w_nz,
                        row,
                        alpha,
                        leaving_col,
                    )
                {
                    // Weight overflow: restart the reference framework.
                    self.dual_weights.iter_mut().for_each(|w| *w = 1.0);
                    self.stats.devex_resets += 1;
                }
                self.factor_fresh = false;
                let ft_ok = self.factor.update(row);
                if ft_ok {
                    self.stats.max_eta_chain = self.stats.max_eta_chain.max(self.factor.updates());
                }
                if !ft_ok || self.factor.updates() >= REFACTOR_EVERY {
                    if ft_ok {
                        self.stats.refactor_scheduled += 1;
                    } else {
                        self.stats.refactor_ft_refused += 1;
                    }
                    let ok = {
                        let _t = rp_obs::phase_timer(rp_obs::Phase::Factorise);
                        let ok = self.refactor_and_recompute();
                        if ok {
                            self.compute_reduced_costs(&costs);
                        }
                        ok
                    };
                    if !ok {
                        break 'search DualOutcome::Stopped(LpError::SingularBasis);
                    }
                    // Recomputing the basic values from scratch can move
                    // any row across the violation tolerance.
                    self.dual_cands.rebuild(&self.form, &self.basis, tol);
                }
            }
            DualOutcome::Stopped(LpError::IterationLimit)
        };
        self.phase_costs = costs;
        outcome
    }
}

/// How a primal phase ended: converged, proved the LP unbounded, or
/// stopped for the typed reason (budget, singular basis, lost
/// accuracy).
enum PhaseOutcome {
    Optimal,
    Unbounded,
    Stopped(LpError),
}

/// How the dual warm-start cleanup ended.
enum DualOutcome {
    PrimalFeasible,
    Infeasible,
    Stopped(LpError),
}

/// Solves the continuous relaxation of `model` with the revised simplex
/// and default options.
pub fn solve_lp_revised(model: &Model) -> Solution {
    solve_lp_revised_with(model, &SimplexOptions::default())
}

/// [`solve_lp_revised`] with explicit options.
pub fn solve_lp_revised_with(model: &Model, options: &SimplexOptions) -> Solution {
    let mut workspace = RevisedWorkspace::new();
    solve_lp_revised_reusing(model, options, &mut workspace)
}

/// [`solve_lp_revised`] reusing the buffers of `workspace` — including
/// its stored basis: when the constraint matrix is unchanged since the
/// previous solve (the λ-sharded sweep solving the same tree under a
/// different load factor, sibling branch-and-bound searches), the solve
/// is a refactorisation plus a short dual/primal cleanup instead of a
/// cold two-phase run. Any structural change falls back to a cold solve
/// transparently; call [`RevisedWorkspace::invalidate`] to force one.
pub fn solve_lp_revised_reusing(
    model: &Model,
    options: &SimplexOptions,
    workspace: &mut RevisedWorkspace,
) -> Solution {
    workspace.solve_warm(model, options)
}

/// [`solve_lp_revised_reusing`] with the abnormal-stop reason surfaced
/// as a typed error instead of a status code.
///
/// * `Ok(solution)` — the solve concluded (optimal, infeasible or
///   unbounded), **or** it was stopped by the [`crate::SolveBudget`]
///   after reaching primal feasibility, in which case the solution
///   carries the best point found so far and
///   [`RevisedWorkspace::last_error`] names the budget limit that hit.
/// * `Err(error)` — the solve stopped without any usable point:
///   singular basis, numerical loss, or a budget that expired before a
///   feasible point existed.
pub fn solve_lp_revised_checked(
    model: &Model,
    options: &SimplexOptions,
    workspace: &mut RevisedWorkspace,
) -> Result<Solution, LpError> {
    let solution = workspace.solve_warm(model, options);
    match workspace.last_error() {
        Some(err) if !solution.has_point() => Err(err),
        _ => Ok(solution),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{lin_sum, Cmp, LinExpr, Model, Sense};
    use crate::simplex::solve_lp;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "expected {b}, got {a}");
    }

    #[test]
    fn maximisation_with_two_variables() {
        // Same instance as the dense test: optimum 36 at (2, 6).
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, None, 3.0);
        let y = m.add_var("y", 0.0, None, 5.0);
        m.add_constraint("c1", LinExpr::var(x), Cmp::Le, 4.0);
        m.add_constraint("c2", lin_sum([(2.0, y)]), Cmp::Le, 12.0);
        m.add_constraint("c3", lin_sum([(3.0, x), (2.0, y)]), Cmp::Le, 18.0);
        let sol = solve_lp_revised(&m);
        assert_eq!(sol.status, Status::Optimal);
        assert_close(sol.objective, 36.0);
        assert_close(sol.value(x), 2.0);
        assert_close(sol.value(y), 6.0);
        assert!(m.is_feasible(&sol.values, 1e-6));
    }

    #[test]
    fn ge_constraints_run_phase_one() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, None, 2.0);
        let y = m.add_var("y", 0.0, None, 3.0);
        m.add_constraint("sum", lin_sum([(1.0, x), (1.0, y)]), Cmp::Ge, 10.0);
        m.add_constraint("xmin", LinExpr::var(x), Cmp::Ge, 2.0);
        m.add_constraint("ymin", LinExpr::var(y), Cmp::Ge, 3.0);
        let sol = solve_lp_revised(&m);
        assert_eq!(sol.status, Status::Optimal);
        assert_close(sol.objective, 23.0);
    }

    #[test]
    fn equality_and_upper_bounds_without_extra_rows() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, Some(4.0), 1.0);
        let y = m.add_var("y", 0.0, None, 1.0);
        m.add_constraint("eq", lin_sum([(1.0, x), (2.0, y)]), Cmp::Eq, 8.0);
        let sol = solve_lp_revised(&m);
        assert_eq!(sol.status, Status::Optimal);
        assert_close(sol.objective, 4.0);
        assert_close(sol.value(x), 0.0);
        assert_close(sol.value(y), 4.0);
    }

    #[test]
    fn infeasible_and_unbounded_are_detected() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, Some(1.0), 1.0);
        m.add_constraint("too_big", LinExpr::var(x), Cmp::Ge, 5.0);
        assert_eq!(solve_lp_revised(&m).status, Status::Infeasible);

        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, None, 1.0);
        m.add_constraint("ge", LinExpr::var(x), Cmp::Ge, 1.0);
        assert_eq!(solve_lp_revised(&m).status, Status::Unbounded);
    }

    #[test]
    fn bound_only_model_flips_to_the_cheap_bound() {
        // Maximise over a box with no constraints: pure bound flips.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 1.5, Some(9.0), 2.0);
        let y = m.add_var("y", 0.0, Some(3.0), 1.0);
        let sol = solve_lp_revised(&m);
        assert_eq!(sol.status, Status::Optimal);
        assert_close(sol.value(x), 9.0);
        assert_close(sol.value(y), 3.0);
        assert_close(sol.objective, 21.0);
    }

    #[test]
    fn degenerate_beale_instance_terminates() {
        let mut m = Model::new(Sense::Maximize);
        let a = m.add_var("a", 0.0, None, 0.75);
        let b = m.add_var("b", 0.0, None, -150.0);
        let c = m.add_var("c", 0.0, None, 0.02);
        let d = m.add_var("d", 0.0, None, -6.0);
        m.add_constraint(
            "r1",
            lin_sum([(0.25, a), (-60.0, b), (-0.04, c), (9.0, d)]),
            Cmp::Le,
            0.0,
        );
        m.add_constraint(
            "r2",
            lin_sum([(0.5, a), (-90.0, b), (-0.02, c), (3.0, d)]),
            Cmp::Le,
            0.0,
        );
        m.add_constraint("r3", LinExpr::var(c), Cmp::Le, 1.0);
        let options = SimplexOptions {
            bland_after: 20,
            ..SimplexOptions::default()
        };
        let sol = solve_lp_revised_with(&m, &options);
        assert_eq!(sol.status, Status::Optimal);
        assert_close(sol.objective, 0.05);
    }

    #[test]
    fn agrees_with_the_dense_tableau_on_a_transportation_problem() {
        let mut m = Model::minimize();
        let costs = [[2.0, 3.0, 1.0], [5.0, 4.0, 8.0]];
        let caps = [20.0, 30.0];
        let demands = [10.0, 25.0, 15.0];
        let mut vars = vec![vec![]; 2];
        for (s, row) in costs.iter().enumerate() {
            for (c, &cost) in row.iter().enumerate() {
                vars[s].push(m.add_var(format!("x{s}{c}"), 0.0, Some(40.0), cost));
            }
        }
        for s in 0..2 {
            let expr = lin_sum(vars[s].iter().map(|&v| (1.0, v)));
            m.add_constraint(format!("cap{s}"), expr, Cmp::Le, caps[s]);
        }
        for c in 0..3 {
            let expr = lin_sum((0..2).map(|s| (1.0, vars[s][c])));
            m.add_constraint(format!("dem{c}"), expr, Cmp::Ge, demands[c]);
        }
        let dense = solve_lp(&m);
        let revised = solve_lp_revised(&m);
        assert_eq!(dense.status, revised.status);
        assert_close(revised.objective, dense.objective);
        assert!(m.is_feasible(&revised.values, 1e-6));
    }

    #[test]
    fn warm_start_after_a_bound_change_matches_a_cold_solve() {
        // min x + 2y  s.t.  x + y >= 4, x <= 3 — then tighten x <= 1.
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, Some(3.0), 1.0);
        let y = m.add_var("y", 0.0, None, 2.0);
        m.add_constraint("cover", lin_sum([(1.0, x), (1.0, y)]), Cmp::Ge, 4.0);
        let options = SimplexOptions::default();
        let mut ws = RevisedWorkspace::new();
        let first = ws.solve_cold(&m, &options);
        assert_eq!(first.status, Status::Optimal);
        assert_close(first.objective, 5.0); // x = 3, y = 1

        m.set_bounds(x, 0.0, Some(1.0));
        let warm = ws.solve_warm(&m, &options);
        let cold = solve_lp_revised(&m);
        assert_eq!(warm.status, Status::Optimal);
        assert_close(warm.objective, cold.objective); // x = 1, y = 3 -> 7
        assert_close(warm.objective, 7.0);

        // Loosen the bound back: the warm path must also handle bounds
        // that *relax* (residual dual infeasibility cleaned up by the
        // primal polish).
        m.set_bounds(x, 0.0, None);
        let warm = ws.solve_warm(&m, &options);
        assert_eq!(warm.status, Status::Optimal);
        assert_close(warm.objective, 4.0); // x = 4, y = 0
    }

    #[test]
    fn solve_stats_classify_warm_starts_and_count_transform_io() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, Some(3.0), 1.0);
        let y = m.add_var("y", 0.0, None, 2.0);
        m.add_constraint("cover", lin_sum([(1.0, x), (1.0, y)]), Cmp::Ge, 4.0);
        let options = SimplexOptions::default();
        let mut ws = RevisedWorkspace::new();

        let first = ws.solve_cold(&m, &options);
        assert_eq!(first.status, Status::Optimal);
        let stats = ws.last_stats();
        assert_eq!(stats.warm, WarmStart::Cold);
        assert!(stats.ftran.calls > 0, "cold solve must run FTRANs");
        assert_eq!(stats.ftran.dim, stats.ftran.calls); // m = 1 row
        assert!(stats.ftran.in_nnz <= stats.ftran.dim);
        assert!((0.0..=1.0).contains(&stats.ftran.skip_ratio()));
        assert_eq!(
            stats.phase1_pivots + stats.phase2_pivots(),
            stats.primal_pivots
        );

        m.set_bounds(x, 0.0, Some(1.0));
        let warm = ws.solve_warm(&m, &options);
        assert_eq!(warm.status, Status::Optimal);
        let stats = ws.last_stats();
        assert!(
            matches!(stats.warm, WarmStart::WarmHit | WarmStart::WarmRefactor),
            "bound-change resolve must take the warm path, got {:?}",
            stats.warm
        );
        // The per-solve IO deltas restart at each solve entry.
        assert!(stats.ftran.calls > 0);

        // A scaling-mode change with a stored basis is the one cold
        // flavour that gets its own classification.
        let scaled = SimplexOptions {
            scaling: Scaling::Geometric,
            ..SimplexOptions::default()
        };
        let resolved = ws.solve_warm(&m, &scaled);
        assert_eq!(resolved.status, Status::Optimal);
        assert_eq!(ws.last_stats().warm, WarmStart::ModeChangeCold);
    }

    #[test]
    fn warm_start_detects_infeasible_children() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, Some(5.0), 1.0);
        m.add_constraint("ge", LinExpr::var(x), Cmp::Ge, 2.0);
        let options = SimplexOptions::default();
        let mut ws = RevisedWorkspace::new();
        assert_eq!(ws.solve_cold(&m, &options).status, Status::Optimal);
        m.set_bounds(x, 0.0, Some(1.0));
        assert_eq!(ws.solve_warm(&m, &options).status, Status::Infeasible);
        // And a sibling that is feasible again still solves warm.
        m.set_bounds(x, 3.0, Some(5.0));
        let sol = ws.solve_warm(&m, &options);
        assert_eq!(sol.status, Status::Optimal);
        assert_close(sol.objective, 3.0);
    }

    /// A dense-ish covering LP with irregular coefficients, so a cold
    /// solve takes many pivots and its Forrest–Tomlin updates carry
    /// rounding, plus one `Σx ≤ cap` row whose right-hand side decides
    /// feasibility (the rest of the model is the same for every `cap`).
    fn irregular_cover_model(rows: usize, cols: usize, cap: f64) -> Model {
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut m = Model::minimize();
        let vars: Vec<_> = (0..cols)
            .map(|j| m.add_var(format!("x{j}"), 0.0, Some(10.0), 0.3 + next() * 2.7))
            .collect();
        for i in 0..rows {
            let mut terms = Vec::new();
            for &v in &vars {
                if next() < 0.15 {
                    terms.push((0.1 + next() * 1.9, v));
                }
            }
            m.add_constraint(
                format!("cover{i}"),
                lin_sum(terms),
                Cmp::Ge,
                1.0 + next() * 4.0,
            );
        }
        m.add_constraint("cap", lin_sum(vars.iter().map(|&v| (1.0, v))), Cmp::Le, cap);
        m
    }

    #[test]
    fn extracted_points_depend_only_on_the_final_basis() {
        let m = irregular_cover_model(80, 120, 1e6);
        let options = SimplexOptions::default();
        let mut ws = RevisedWorkspace::new();
        let cold = ws.solve_cold(&m, &options);
        assert_eq!(cold.status, Status::Optimal);
        assert!(ws.last_stats().iterations() > 20);
        // A warm re-solve starts from the optimal basis, pivots zero
        // times, and must hand back the very same point.
        let warm = ws.solve_warm(&m, &options);
        assert_eq!(warm.status, Status::Optimal);
        assert_eq!(ws.last_stats().iterations(), 0);
        assert_eq!(ws.last_stats().warm, WarmStart::WarmHit);
        let bits = |s: &Solution| s.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&cold), bits(&warm));
        assert_eq!(cold.objective.to_bits(), warm.objective.to_bits());
    }

    #[test]
    fn a_warm_infeasible_verdict_keeps_the_stored_basis() {
        let feasible = irregular_cover_model(80, 120, 1e6);
        // Presolve off: its rhs-dependent row removals would send the
        // tightened model down the cold path.
        let options = SimplexOptions {
            presolve: false,
            ..SimplexOptions::default()
        };
        let mut ws = RevisedWorkspace::new();
        let optimum = ws.solve_cold(&feasible, &options);
        assert_eq!(optimum.status, Status::Optimal);
        // Tighten the capacity row below what the covers need: the
        // stored basis stays dual feasible, the dual cleanup pivots and
        // then proves infeasibility.
        let infeasible = irregular_cover_model(80, 120, 1.0);
        assert_eq!(
            ws.solve_warm(&infeasible, &options).status,
            Status::Infeasible
        );
        let first = ws.last_stats();
        assert_eq!(first.warm, WarmStart::WarmHit);
        assert!(first.iterations() > 0);
        // A re-solve repeats the verdict pivot for pivot...
        assert_eq!(
            ws.solve_warm(&infeasible, &options).status,
            Status::Infeasible
        );
        assert_eq!(ws.last_stats().iterations(), first.iterations());
        // ...and the feasible model still finds its optimal basis stored.
        let again = ws.solve_warm(&feasible, &options);
        assert_eq!(again.status, Status::Optimal);
        assert_eq!(ws.last_stats().iterations(), 0);
        assert_eq!(again.objective.to_bits(), optimum.objective.to_bits());
    }

    #[test]
    fn warm_start_honours_model_edits_beyond_bounds() {
        // The warm path's contract: bounds, objective and rhs edits are
        // absorbed; a changed constraint coefficient (same shape!) must
        // trigger the cold fallback. Every answer is cross-checked
        // against a fresh cold solve.
        let build = |coeff: f64, obj: f64, rhs: f64| {
            let mut m = Model::minimize();
            let x = m.add_var("x", 0.0, Some(10.0), obj);
            let y = m.add_var("y", 0.0, None, 3.0);
            m.add_constraint("cover", lin_sum([(coeff, x), (1.0, y)]), Cmp::Ge, rhs);
            m
        };
        let options = SimplexOptions::default();
        let mut ws = RevisedWorkspace::new();
        assert_eq!(
            ws.solve_cold(&build(1.0, 1.0, 6.0), &options).status,
            Status::Optimal
        );
        // Objective change: x becomes expensive, y wins.
        let m = build(1.0, 5.0, 6.0);
        let warm = ws.solve_warm(&m, &options);
        assert_close(warm.objective, solve_lp_revised(&m).objective);
        // Right-hand-side change.
        let m = build(1.0, 5.0, 9.0);
        let warm = ws.solve_warm(&m, &options);
        assert_close(warm.objective, solve_lp_revised(&m).objective);
        // Coefficient change (same shape): must cold-fall-back and
        // still be exact.
        let m = build(2.0, 5.0, 9.0);
        let warm = ws.solve_warm(&m, &options);
        assert_close(warm.objective, solve_lp_revised(&m).objective);
        assert!(m.is_feasible(&warm.values, 1e-6));
    }

    #[test]
    fn warm_start_absorbs_comparison_flips() {
        // Same matrix, same rhs — only the comparison direction flips
        // between solves. The slack bounds encode the direction, so a
        // warm start must refresh them rather than answer the old
        // model's question (the regression this test pins down).
        let build = |cmp| {
            let mut m = Model::minimize();
            let x = m.add_var("x", 0.0, Some(10.0), 1.0);
            let y = m.add_var("y", 0.0, Some(10.0), 2.0);
            m.add_constraint("c", lin_sum([(1.0, x), (1.0, y)]), cmp, 4.0);
            m
        };
        for presolve in [true, false] {
            let options = SimplexOptions {
                presolve,
                ..SimplexOptions::default()
            };
            let mut ws = RevisedWorkspace::new();
            let le = solve_lp_revised_reusing(&build(Cmp::Le), &options, &mut ws);
            assert_eq!(le.status, Status::Optimal);
            assert_close(le.objective, 0.0); // x = y = 0
            for cmp in [Cmp::Ge, Cmp::Eq, Cmp::Le, Cmp::Eq, Cmp::Ge] {
                let model = build(cmp);
                let warm = solve_lp_revised_reusing(&model, &options, &mut ws);
                let cold = solve_lp_revised_with(&model, &options);
                assert_eq!(warm.status, cold.status, "{cmp:?} presolve={presolve}");
                assert_close(warm.objective, cold.objective);
                assert!(model.is_feasible(&warm.values, 1e-6), "{cmp:?}");
            }
        }
    }

    #[test]
    fn workspace_reuse_across_shapes_is_transparent() {
        let mut ws = RevisedWorkspace::new();
        for trial in 0..3 {
            let mut m = Model::new(Sense::Maximize);
            let x = m.add_var("x", 0.0, Some(4.0 + trial as f64), 3.0);
            let y = m.add_var("y", 0.0, None, 5.0);
            m.add_constraint("c2", lin_sum([(2.0, y)]), Cmp::Le, 12.0);
            m.add_constraint("c3", lin_sum([(3.0, x), (2.0, y)]), Cmp::Le, 18.0);
            let dense = solve_lp(&m);
            let revised = solve_lp_revised_reusing(&m, &SimplexOptions::default(), &mut ws);
            assert_eq!(dense.status, revised.status);
            assert_close(revised.objective, dense.objective);
        }
    }

    #[test]
    fn negative_rhs_rows_need_no_normalisation() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, None, 0.0);
        let y = m.add_var("y", 0.0, None, 1.0);
        m.add_constraint("neg", lin_sum([(1.0, x), (-1.0, y)]), Cmp::Le, -2.0);
        let sol = solve_lp_revised(&m);
        assert_eq!(sol.status, Status::Optimal);
        assert_close(sol.objective, 2.0);
    }

    /// A deterministic ill-scaled LP: every coefficient is a row
    /// magnitude times a column magnitude spanning ~12 decades in
    /// total, the separable shape equilibration is built to fix (a
    /// bandwidth row of huge capacities next to unit cover rows).
    fn ill_scaled_model(n: usize) -> Model {
        let row_mag = |i: usize| [1e-3, 1.0, 30.0, 1e3][i % 4];
        let col_mag = |j: usize| [1.0, 2e-3, 40.0, 1e3][j % 4];
        let mut m = Model::minimize();
        let vars: Vec<_> = (0..n)
            .map(|j| m.add_var(format!("x{j}"), 0.0, None, col_mag(j)))
            .collect();
        for i in 0..n {
            let mut expr = LinExpr::new();
            for (j, &v) in vars.iter().enumerate() {
                if (i + 3 * j) % 3 != 0 {
                    expr.add_term(row_mag(i) * col_mag(j), v);
                }
            }
            if !expr.is_empty() {
                m.add_constraint(format!("c{i}"), expr, Cmp::Ge, 10.0 + i as f64);
            }
        }
        m
    }

    #[test]
    fn equilibrated_solves_match_unscaled_solves_exactly_after_unscaling() {
        for n in [4usize, 7, 12] {
            let model = ill_scaled_model(n);
            let solve = |scaling| {
                solve_lp_revised_with(
                    &model,
                    &SimplexOptions {
                        scaling,
                        ..SimplexOptions::default()
                    },
                )
            };
            let scaled = solve(Scaling::Geometric);
            let unscaled = solve(Scaling::Off);
            assert_eq!(scaled.status, unscaled.status, "n={n}");
            if scaled.status == Status::Optimal {
                let tol = 1e-6 * unscaled.objective.abs().max(1.0);
                assert!(
                    (scaled.objective - unscaled.objective).abs() < tol,
                    "n={n}: scaled {} vs unscaled {}",
                    scaled.objective,
                    unscaled.objective
                );
                assert!(model.is_feasible(&scaled.values, 1e-6));
            }
        }
    }

    #[test]
    fn auto_scaling_triggers_only_on_ill_scaled_matrices() {
        let options = SimplexOptions::default();
        let mut ws = RevisedWorkspace::new();
        // Well-scaled: Auto must not scale (historical pivot paths).
        let mut tame = Model::minimize();
        let x = tame.add_var("x", 0.0, Some(4.0), 2.0);
        let y = tame.add_var("y", 0.0, None, 3.0);
        tame.add_constraint("c", lin_sum([(1.0, x), (1.0, y)]), Cmp::Ge, 6.0);
        assert_eq!(ws.solve_cold(&tame, &options).status, Status::Optimal);
        assert_eq!(ws.scaling_spread(), None);
        // Ill-scaled: Auto scales and the spread shrinks by orders of
        // magnitude.
        let wild = ill_scaled_model(8);
        let solution = ws.solve_cold(&wild, &options);
        assert_eq!(solution.status, Status::Optimal);
        let (before, after) = ws.scaling_spread().expect("auto scaling should trigger");
        assert!(before > 1e4, "spread before = {before}");
        assert!(after < before / 1e3, "spread {before} -> {after}");
        assert!(wild.is_feasible(&solution.values, 1e-6));
    }

    #[test]
    fn warm_starts_survive_scaling_and_absorb_mode_changes() {
        // Warm re-solves of a scaled form (rhs/objective edits) must
        // match cold solves, and switching the scaling mode between
        // solves must transparently fall back to a cold rebuild.
        let mut model = ill_scaled_model(9);
        let geometric = SimplexOptions {
            scaling: Scaling::Geometric,
            ..SimplexOptions::default()
        };
        let mut ws = RevisedWorkspace::new();
        assert_eq!(ws.solve_cold(&model, &geometric).status, Status::Optimal);
        let cons: Vec<_> = model.constraint_ids().collect();
        for id in cons {
            let rhs = model.constraint(id).rhs * 1.5;
            model.set_rhs(id, rhs);
        }
        let warm = ws.solve_warm(&model, &geometric);
        let cold = solve_lp_revised_with(&model, &geometric);
        assert_eq!(warm.status, cold.status);
        let tol = 1e-6 * cold.objective.abs().max(1.0);
        assert!((warm.objective - cold.objective).abs() < tol);
        // Mode change: Off after Geometric must not reuse scaled data.
        let off = SimplexOptions {
            scaling: Scaling::Off,
            ..SimplexOptions::default()
        };
        let refreshed = ws.solve_warm(&model, &off);
        assert_eq!(refreshed.status, Status::Optimal);
        assert!((refreshed.objective - cold.objective).abs() < tol);
        assert_eq!(ws.scaling_spread(), None);
    }

    #[test]
    fn scaling_diagnostics_do_not_leak_across_solves() {
        // A scaled solve followed by a solve that exits early (presolve
        // proves infeasibility before any build) must not report the
        // previous model's spread.
        let options = SimplexOptions::default();
        let mut ws = RevisedWorkspace::new();
        let wild = ill_scaled_model(8);
        assert_eq!(ws.solve_cold(&wild, &options).status, Status::Optimal);
        assert!(ws.scaling_spread().is_some());
        let mut infeasible = Model::minimize();
        let x = infeasible.add_var("x", 0.0, Some(1.0), 1.0);
        infeasible.add_constraint("impossible", LinExpr::var(x), Cmp::Ge, 5.0);
        assert_eq!(
            ws.solve_cold(&infeasible, &options).status,
            Status::Infeasible
        );
        assert_eq!(ws.scaling_spread(), None);
    }

    /// A replica-cover-shaped LP with `rows` cover rows and one shared
    /// capacity row — small enough to exercise the micro fast path.
    fn cover_model(rows: usize) -> Model {
        let mut m = Model::minimize();
        let vars: Vec<_> = (0..2 * rows)
            .map(|j| m.add_var(format!("y{j}"), 0.0, Some(5.0), 1.0 + (j % 3) as f64))
            .collect();
        for i in 0..rows {
            m.add_constraint(
                format!("cover{i}"),
                lin_sum([(1.0, vars[2 * i]), (1.0, vars[2 * i + 1])]),
                Cmp::Ge,
                2.0,
            );
        }
        m
    }

    #[test]
    fn micro_models_skip_presolve_and_devex() {
        let options = SimplexOptions::default();
        let mut ws = RevisedWorkspace::new();
        let micro = cover_model(MICRO_LP_ROWS - 10);
        assert_eq!(ws.solve_cold(&micro, &options).status, Status::Optimal);
        assert!(!ws.last_solve_used_presolve());
        assert_eq!(ws.last_solve_pricing(), Pricing::Dantzig);
        let large = cover_model(MICRO_LP_ROWS + 10);
        assert_eq!(ws.solve_cold(&large, &options).status, Status::Optimal);
        assert!(ws.last_solve_used_presolve());
        assert_eq!(ws.last_solve_pricing(), Pricing::Partial);
    }

    #[test]
    fn micro_size_iteration_counts_match_the_explicit_fast_path() {
        // Regression pin for the micro-size fast path: a default-options
        // solve of a micro model must replay the exact pivot trajectory
        // of an explicit presolve-off / Dantzig solve — identical
        // iteration and refactorisation counts, not just the objective.
        for rows in [5usize, 20, MICRO_LP_ROWS - 1] {
            let model = cover_model(rows);
            let mut default_ws = RevisedWorkspace::new();
            let defaulted = default_ws.solve_cold(&model, &SimplexOptions::default());
            let explicit_options = SimplexOptions {
                presolve: false,
                pricing: Pricing::Dantzig,
                ..SimplexOptions::default()
            };
            let mut explicit_ws = RevisedWorkspace::new();
            let explicit = explicit_ws.solve_cold(&model, &explicit_options);
            assert_eq!(defaulted.status, explicit.status, "rows={rows}");
            assert_eq!(defaulted.objective, explicit.objective, "rows={rows}");
            let d = default_ws.last_stats();
            let e = explicit_ws.last_stats();
            assert_eq!(d.iterations(), e.iterations(), "rows={rows}");
            assert_eq!(d.refactorisations, e.refactorisations, "rows={rows}");
        }
    }

    /// Two overlapping `>=` rows: every structural column touches both
    /// deficient rows, so the crash pass cannot cover either and phase 1
    /// genuinely needs pivots — which is what lets a zero budget expire
    /// *before* any feasible point exists.
    fn needs_phase_one_pivots() -> Model {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, None, 1.0);
        let y = m.add_var("y", 0.0, None, 1.0);
        m.add_constraint("c1", lin_sum([(1.0, x), (1.0, y)]), Cmp::Ge, 4.0);
        m.add_constraint("c2", lin_sum([(1.0, x), (2.0, y)]), Cmp::Ge, 6.0);
        m
    }

    #[test]
    fn expired_deadline_stops_without_panicking() {
        use crate::error::SolveBudget;
        use std::time::Duration;
        // A zero allowance expires before the first pivot: phase 1 has
        // no feasible point yet, so the stop is status-only with the
        // typed reason recorded.
        let m = needs_phase_one_pivots();
        let options = SimplexOptions {
            budget: SolveBudget::with_deadline(Duration::ZERO),
            ..SimplexOptions::default()
        };
        let mut ws = RevisedWorkspace::new();
        let sol = ws.solve_cold(&m, &options);
        assert_eq!(sol.status, Status::DeadlineExceeded);
        assert!(!sol.has_point());
        assert_eq!(ws.last_error(), Some(LpError::DeadlineExceeded));
    }

    #[test]
    fn warm_dual_deadline_stop_returns_a_valid_bound_and_stays_warm() {
        use crate::error::SolveBudget;
        use std::time::Duration;
        // min -x - y with row caps x ≤ 4, y ≤ 4: optimum -8 at (4, 4).
        let build = |ub: f64| {
            let mut m = Model::minimize();
            let x = m.add_var("x", 0.0, Some(ub), -1.0);
            let y = m.add_var("y", 0.0, Some(ub), -1.0);
            m.add_constraint("cx", LinExpr::var(x), Cmp::Le, 4.0);
            m.add_constraint("cy", LinExpr::var(y), Cmp::Le, 4.0);
            m
        };
        let mut ws = RevisedWorkspace::new();
        let first = ws.solve_warm(&build(10.0), &SimplexOptions::default());
        assert_eq!(first.status, Status::Optimal);
        assert_close(first.objective, -8.0);

        // Tighten the variable boxes to 2 (the branch-and-bound /
        // delta-cleanup pattern): the stored basis turns primal
        // infeasible but stays dual feasible, so the cleanup needs
        // dual pivots — which a zero deadline forbids.
        let tightened = build(2.0);
        let options = SimplexOptions {
            budget: SolveBudget::with_deadline(Duration::ZERO),
            ..SimplexOptions::default()
        };
        let stopped = ws.solve_warm(&tightened, &options);
        assert_eq!(stopped.status, Status::DeadlineExceeded);
        assert_eq!(ws.last_error(), Some(LpError::DeadlineExceeded));
        // No primal point — but a finite, valid lower bound on the new
        // optimum (-4 at (2, 2)).
        assert!(!stopped.has_point());
        assert!(stopped.objective.is_finite());
        assert!(stopped.objective <= -4.0 + 1e-9);

        // The basis survived the budget stop: a follow-up solve with an
        // unlimited budget finishes the cleanup warm.
        let finished = ws.solve_warm(&tightened, &SimplexOptions::default());
        assert_eq!(finished.status, Status::Optimal);
        assert_close(finished.objective, -4.0);
        assert_ne!(ws.last_stats().warm, WarmStart::Cold);
    }

    #[test]
    fn unlimited_budget_leaves_solves_untouched_and_clears_errors() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, None, 2.0);
        m.add_constraint("ge", LinExpr::var(x), Cmp::Ge, 4.0);
        let mut ws = RevisedWorkspace::new();
        let sol = ws.solve_cold(&m, &SimplexOptions::default());
        assert_eq!(sol.status, Status::Optimal);
        assert_eq!(ws.last_error(), None);
    }

    #[test]
    fn iteration_budget_returns_the_best_feasible_point_so_far() {
        use crate::error::SolveBudget;
        // All-`<=` model: the origin is feasible, phase 1 is empty, and
        // reaching the optimum needs several phase-2 pivots — so a
        // budget of one iteration must stop mid-phase-2 *with* a
        // feasible point whose objective is a valid bound.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, None, 3.0);
        let y = m.add_var("y", 0.0, None, 5.0);
        m.add_constraint("c1", LinExpr::var(x), Cmp::Le, 4.0);
        m.add_constraint("c2", lin_sum([(2.0, y)]), Cmp::Le, 12.0);
        m.add_constraint("c3", lin_sum([(3.0, x), (2.0, y)]), Cmp::Le, 18.0);
        let optimal = solve_lp_revised(&m);
        assert_eq!(optimal.status, Status::Optimal);
        assert_close(optimal.objective, 36.0);

        let mut ws = RevisedWorkspace::new();
        let stopped = ws.solve_cold(
            &m,
            &SimplexOptions {
                budget: SolveBudget::with_iterations(1),
                ..SimplexOptions::default()
            },
        );
        assert_eq!(stopped.status, Status::IterationLimit);
        assert_eq!(ws.last_error(), Some(LpError::IterationLimit));
        assert!(stopped.has_point(), "phase-2 stop must carry a point");
        assert!(m.is_feasible(&stopped.values, 1e-6));
        // Maximisation: any feasible point's objective lower-bounds the
        // optimum and cannot exceed it.
        assert!(stopped.objective <= optimal.objective + 1e-6);

        // A generous budget reaches the same optimum and clears the
        // error.
        let mut ws = RevisedWorkspace::new();
        let full = ws.solve_cold(
            &m,
            &SimplexOptions {
                budget: SolveBudget::with_iterations(10_000),
                ..SimplexOptions::default()
            },
        );
        assert_eq!(full.status, Status::Optimal);
        assert_eq!(ws.last_error(), None);
        assert_close(full.objective, optimal.objective);
    }

    #[test]
    fn checked_solve_distinguishes_usable_and_unusable_stops() {
        use crate::error::SolveBudget;
        use std::time::Duration;
        let m = needs_phase_one_pivots();
        let mut ws = RevisedWorkspace::new();
        // Conclusive solve: Ok with an optimal point.
        let ok = solve_lp_revised_checked(&m, &SimplexOptions::default(), &mut ws);
        assert_eq!(ok.unwrap().status, Status::Optimal);
        // Expired deadline before any feasible point: typed Err.
        let options = SimplexOptions {
            budget: SolveBudget::with_deadline(Duration::ZERO),
            ..SimplexOptions::default()
        };
        ws.invalidate();
        let err = solve_lp_revised_checked(&m, &options, &mut ws);
        assert_eq!(err.unwrap_err(), LpError::DeadlineExceeded);
        // Infeasible models are a conclusive answer, not an error.
        let mut inf = Model::minimize();
        let z = inf.add_var("z", 0.0, Some(1.0), 1.0);
        inf.add_constraint("imp", LinExpr::var(z), Cmp::Ge, 5.0);
        ws.invalidate();
        let sol = solve_lp_revised_checked(&inf, &SimplexOptions::default(), &mut ws);
        assert_eq!(sol.unwrap().status, Status::Infeasible);
    }

    #[test]
    fn redundant_equalities_do_not_break_phase_two() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, None, 1.0);
        let y = m.add_var("y", 0.0, None, 2.0);
        m.add_constraint("e1", lin_sum([(1.0, x), (1.0, y)]), Cmp::Eq, 5.0);
        m.add_constraint("e2", lin_sum([(2.0, x), (2.0, y)]), Cmp::Eq, 10.0);
        let sol = solve_lp_revised(&m);
        assert_eq!(sol.status, Status::Optimal);
        assert_close(sol.objective, 5.0);
    }
}
