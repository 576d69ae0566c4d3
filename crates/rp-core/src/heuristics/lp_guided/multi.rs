//! LP-guided rounding for **multi-object** instances — the heuristic
//! the paper leaves open (Section 8.1).
//!
//! The driver mirrors [`super::rounding`] but works object-major on the
//! shared relaxation: the fractional masses of *all* objects are
//! interleaved into one visit order (so a strongly-wanted replica of a
//! small object is not starved by a big object's leftovers), and every
//! assignment of every object draws from **one** shared
//! [`FeasAccounting`] — the shared node capacities and shared link
//! bandwidths are respected across objects by construction, which is
//! exactly the coupling [`crate::multi::solve_multi_greedy`]'s
//! sequential projection approximates.

use rp_tree::{ClientId, NodeId};

use rp_lp::LpWorkspace;

use crate::heuristics::lp_guided::accounting::FeasAccounting;
use crate::heuristics::lp_guided::guide::{guided_amount, mass_guide, MassGuide};
use crate::ilp::{multi_lower_bound_fractional_reusing, IlpOptions, MultiFractionalLp};
use crate::multi::{MultiObjectProblem, MultiPlacement, ObjectId};
use crate::solution::Placement;

/// Multi-object LP-guided rounding with default options.
pub fn lp_guided_multi(problem: &MultiObjectProblem) -> Option<MultiPlacement> {
    lp_guided_multi_with(problem, &IlpOptions::default())
}

/// [`lp_guided_multi`] with explicit LP options.
pub fn lp_guided_multi_with(
    problem: &MultiObjectProblem,
    options: &IlpOptions,
) -> Option<MultiPlacement> {
    let mut workspace = LpWorkspace::new();
    lp_guided_multi_reusing(problem, options, &mut workspace)
}

/// [`lp_guided_multi`] reusing the LP buffers of `workspace`: builds
/// and solves the shared relaxation, then [`round_multi_fractional`]s
/// it (a caller holding the solved relaxation rounds
/// [`crate::ilp::multi_fractional_from`] directly). Returns `None` when
/// the shared relaxation is infeasible or the rounding cannot serve
/// every request of every object.
pub fn lp_guided_multi_reusing(
    problem: &MultiObjectProblem,
    options: &IlpOptions,
    workspace: &mut LpWorkspace,
) -> Option<MultiPlacement> {
    let fractional = multi_lower_bound_fractional_reusing(problem, options, workspace)?;
    round_multi_fractional(problem, &fractional)
}

/// How aggressively phase 1 follows the fractional mass (see the
/// single-object counterpart in [`super::rounding`]).
#[derive(Clone, Copy, PartialEq, Eq)]
enum RoundingMode {
    /// Committed nodes only (mass ≥ ½), saturated with subtree demand.
    CommitSaturate,
    /// Every positive-mass node, ceilinged guided splits only.
    ThinGuided,
}

/// Rounds an explicit multi-object fractional optimum.
///
/// Like the single-object rounding this runs a two-strategy portfolio —
/// consolidate-hard, then follow-the-LP — and keeps the cheapest
/// feasible result.
pub fn round_multi_fractional(
    problem: &MultiObjectProblem,
    fractional: &MultiFractionalLp,
) -> Option<MultiPlacement> {
    // The guides are mode-independent: build them once for both modes.
    let guides: Vec<MassGuide> = problem
        .object_ids()
        .map(|k| {
            mass_guide(
                &fractional.replica_mass[k.index()],
                &fractional.assignment[k.index()],
                |n| problem.storage_cost(k, n),
            )
        })
        .collect();
    let a = round_multi_mode(problem, fractional, &guides, RoundingMode::CommitSaturate);
    let b = round_multi_mode(problem, fractional, &guides, RoundingMode::ThinGuided);
    match (a, b) {
        (Some(a), Some(b)) => Some(if a.cost(problem) <= b.cost(problem) {
            a
        } else {
            b
        }),
        (a, b) => a.or(b),
    }
}

fn round_multi_mode(
    problem: &MultiObjectProblem,
    fractional: &MultiFractionalLp,
    guides: &[MassGuide],
    mode: RoundingMode,
) -> Option<MultiPlacement> {
    let tree = problem.tree();
    let num_objects = problem.num_objects();
    let mut accounting = FeasAccounting::for_multi(problem);
    let mut per_object: Vec<Placement> = vec![Placement::empty(tree.num_clients()); num_objects];
    let mut remaining: Vec<Vec<u64>> = problem
        .object_ids()
        .map(|k| tree.client_ids().map(|c| problem.requests(k, c)).collect())
        .collect();

    // --- Phase 1: guided assignment, all objects' masses interleaved. ---
    match mode {
        // The LP selects the per-object replica sets (mass ≥ ½); a
        // bottom-up MG-style fill assigns the requests against the
        // shared residuals. At a shared node the higher-mass object
        // fills first. Serving low keeps the upper tree's shared
        // capacity and links available — see the single-object
        // counterpart for the rationale.
        RoundingMode::CommitSaturate => {
            for &server in tree.postorder_nodes() {
                let mut at_node: Vec<(usize, f64)> = (0..num_objects)
                    .map(|k| (k, fractional.replica_mass[k][server.index()]))
                    .filter(|&(_, mass)| {
                        mass >= crate::heuristics::lp_guided::guide::COMMIT_THRESHOLD
                    })
                    .collect();
                at_node.sort_by(|a, b| {
                    b.1.partial_cmp(&a.1)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then_with(|| a.0.cmp(&b.0))
                });
                for (k, _) in at_node {
                    // Fill up to the LP's load for this (object, node):
                    // the budgets of different objects at a shared node
                    // are mutually feasible by the shared capacity row,
                    // so no object can steal what another was allotted.
                    let lp_load: f64 = guides[k].per_server[server.index()]
                        .iter()
                        .map(|&(_, y)| y)
                        .sum();
                    let mut budget = guided_amount(lp_load);
                    // The LP's own clients first, then top off with the
                    // rest of the object's subtree demand.
                    for &(client, y) in &guides[k].per_server[server.index()] {
                        if budget == 0 {
                            break;
                        }
                        let amount = remaining[k][client.index()]
                            .min(guided_amount(y))
                            .min(budget)
                            .min(accounting.max_assignable(tree, client, server));
                        if amount > 0 {
                            per_object[k].add_replica(server);
                            accounting.assign(tree, client, server, amount);
                            per_object[k].assign(client, server, amount);
                            remaining[k][client.index()] -= amount;
                            budget -= amount;
                        }
                    }
                    let mut fill: Vec<ClientId> = tree
                        .subtree_clients(server)
                        .iter()
                        .copied()
                        .filter(|&c| remaining[k][c.index()] > 0)
                        .collect();
                    fill.sort_by_key(|&c| (std::cmp::Reverse(remaining[k][c.index()]), c.index()));
                    for client in fill {
                        if budget == 0 {
                            break;
                        }
                        let amount = remaining[k][client.index()]
                            .min(budget)
                            .min(accounting.max_assignable(tree, client, server));
                        if amount > 0 {
                            per_object[k].add_replica(server);
                            accounting.assign(tree, client, server, amount);
                            per_object[k].assign(client, server, amount);
                            remaining[k][client.index()] -= amount;
                            budget -= amount;
                        }
                    }
                }
            }
        }
        // Every positive-mass (object, node) pair gets exactly the
        // ceilinged guided splits, in one joint (object, server) order
        // by decreasing mass, so the shared capacities are handed out
        // where the LP wants them most.
        RoundingMode::ThinGuided => {
            let mut joint: Vec<(usize, NodeId, f64)> = Vec::new();
            for (k, guide) in guides.iter().enumerate() {
                for &server in &guide.order {
                    joint.push((k, server, fractional.replica_mass[k][server.index()]));
                }
            }
            joint.sort_by(|a, b| {
                b.2.partial_cmp(&a.2)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| {
                        let cost_a = problem.storage_cost(ObjectId(a.0 as u32), a.1);
                        let cost_b = problem.storage_cost(ObjectId(b.0 as u32), b.1);
                        cost_a.cmp(&cost_b)
                    })
                    .then_with(|| (a.0, a.1.index()).cmp(&(b.0, b.1.index())))
            });
            for &(k, server, _) in &joint {
                for &(client, y) in &guides[k].per_server[server.index()] {
                    let left = remaining[k][client.index()];
                    if left == 0 {
                        continue;
                    }
                    let amount = left
                        .min(guided_amount(y))
                        .min(accounting.max_assignable(tree, client, server));
                    if amount > 0 {
                        per_object[k].add_replica(server);
                        accounting.assign(tree, client, server, amount);
                        per_object[k].assign(client, server, amount);
                        remaining[k][client.index()] -= amount;
                    }
                }
            }
        }
    }

    // --- Phases 2 and 3: re-home the overflow, largest first. ---
    let mut pending: Vec<(usize, ClientId)> = Vec::new();
    for (k, object_remaining) in remaining.iter().enumerate() {
        for client in tree.client_ids() {
            if object_remaining[client.index()] > 0 {
                pending.push((k, client));
            }
        }
    }
    pending.sort_by_key(|&(k, client)| std::cmp::Reverse(remaining[k][client.index()]));
    for (k, client) in pending {
        let object = ObjectId(k as u32);
        for server in tree.ancestors_of_client(client) {
            if remaining[k][client.index()] == 0 {
                break;
            }
            if !per_object[k].has_replica(server) {
                continue;
            }
            let amount =
                remaining[k][client.index()].min(accounting.max_assignable(tree, client, server));
            if amount > 0 {
                accounting.assign(tree, client, server, amount);
                per_object[k].assign(client, server, amount);
                remaining[k][client.index()] -= amount;
            }
        }
        // Escalation with consolidation: best cost-per-absorbed node,
        // then fill it with the object's pending subtree demand (see
        // the single-object counterpart for the rationale).
        while remaining[k][client.index()] > 0 {
            let mut best: Option<(NodeId, u64, u64)> = None;
            for server in tree.ancestors_of_client(client) {
                if per_object[k].has_replica(server) {
                    continue;
                }
                let headroom = accounting.max_assignable(tree, client, server);
                if headroom == 0 {
                    continue;
                }
                let pending: u64 = tree
                    .subtree_clients(server)
                    .iter()
                    .filter(|&&c| remaining[k][c.index()] > 0)
                    .map(|&c| remaining[k][c.index()])
                    .sum();
                let absorbable = pending.min(accounting.node_residual(server).max(0) as u64);
                let cost = problem.storage_cost(object, server);
                let better = match best {
                    None => true,
                    Some((incumbent, _, incumbent_absorbable)) => {
                        let incumbent_cost = problem.storage_cost(object, incumbent);
                        let challenger = cost as u128 * incumbent_absorbable.max(1) as u128;
                        let reigning = incumbent_cost as u128 * absorbable.max(1) as u128;
                        challenger < reigning
                            || (challenger == reigning
                                && (cost, server.index()) < (incumbent_cost, incumbent.index()))
                    }
                };
                if better {
                    best = Some((server, headroom, absorbable));
                }
            }
            let Some((server, headroom, _)) = best else {
                // Dead end: try freeing shared capacity on the path by
                // relocating any object's load elsewhere (see the
                // single-object `rescue` for the idea). The stranded
                // object may need a replica opened at the freed node.
                if rescue_multi(
                    problem,
                    &mut per_object,
                    &mut accounting,
                    &mut remaining,
                    k,
                    client,
                ) {
                    continue;
                }
                return None;
            };
            per_object[k].add_replica(server);
            let amount = remaining[k][client.index()].min(headroom);
            accounting.assign(tree, client, server, amount);
            per_object[k].assign(client, server, amount);
            remaining[k][client.index()] -= amount;
            let mut fill: Vec<ClientId> = tree
                .subtree_clients(server)
                .iter()
                .copied()
                .filter(|&c| remaining[k][c.index()] > 0)
                .collect();
            fill.sort_by_key(|&c| (std::cmp::Reverse(remaining[k][c.index()]), c.index()));
            for c in fill {
                let take = remaining[k][c.index()].min(accounting.max_assignable(tree, c, server));
                if take > 0 {
                    accounting.assign(tree, c, server, take);
                    per_object[k].assign(c, server, take);
                    remaining[k][c.index()] -= take;
                }
            }
        }
    }

    // --- Phase 4: push-down, pruning, consolidation, pruning. The
    // push-down re-packs load towards the leaves so the *shared*
    // capacity of the high nodes — which sit on every client's path —
    // is free for the pruning pass to re-home into; the consolidation
    // then makes the one move pruning cannot: opening a fresh ancestor
    // that absorbs whole thin replicas of its subtree at a saving. ---
    push_down_multi(problem, &mut per_object, &mut accounting);
    prune_multi(problem, &mut per_object, &mut accounting);
    consolidate_multi(problem, &mut per_object, &mut accounting);
    prune_multi(problem, &mut per_object, &mut accounting);

    let placement = MultiPlacement { per_object };
    debug_assert!(
        placement.is_valid(problem, crate::policy::Policy::Multiple),
        "rounded multi placement failed validation: {:?}",
        placement.validate(problem, crate::policy::Policy::Multiple)
    );
    Some(placement)
}

/// The multi-object replace move (see the single-object
/// `consolidate_replicas`): per object, open a fresh ancestor and
/// migrate whole replicas of its subtree onto it when the drop saves
/// more than the new replica costs — all against the shared residuals.
fn consolidate_multi(
    problem: &MultiObjectProblem,
    per_object: &mut [Placement],
    accounting: &mut FeasAccounting,
) {
    let tree = problem.tree();
    for (k, object) in problem.object_ids().enumerate() {
        for &candidate in tree.postorder_nodes() {
            if per_object[k].has_replica(candidate) {
                continue;
            }
            let mut inside: Vec<NodeId> = per_object[k]
                .replicas()
                .iter()
                .copied()
                .filter(|&r| r != candidate && tree.node_is_ancestor_or_self(r, candidate))
                .collect();
            if inside.is_empty() {
                continue;
            }
            let mut loads = rp_tree::NodeMap::filled(tree.num_nodes(), 0u64);
            per_object[k].accumulate_server_loads(&mut loads);
            inside.sort_by_key(|&r| (loads[r], r.index()));
            let mut absorbed: Vec<NodeId> = Vec::new();
            let mut moved: Vec<(ClientId, NodeId, u64)> = Vec::new();
            let mut saved: u64 = 0;
            for r in inside {
                let served: Vec<(ClientId, u64)> = tree
                    .client_ids()
                    .filter_map(|client| {
                        per_object[k]
                            .assignments(client)
                            .iter()
                            .find(|a| a.server == r)
                            .map(|a| (client, a.amount))
                    })
                    .collect();
                let mut r_moves: Vec<(ClientId, u64)> = Vec::new();
                let mut ok = true;
                for &(client, amount) in &served {
                    accounting.unassign(tree, client, r, amount);
                    per_object[k].unassign(client, r, amount);
                    if accounting.max_assignable(tree, client, candidate) < amount {
                        accounting.assign(tree, client, r, amount);
                        per_object[k].assign(client, r, amount);
                        ok = false;
                        break;
                    }
                    accounting.assign(tree, client, candidate, amount);
                    per_object[k].assign(client, candidate, amount);
                    r_moves.push((client, amount));
                }
                if ok {
                    per_object[k].remove_replica(r);
                    absorbed.push(r);
                    saved += problem.storage_cost(object, r);
                    for (client, amount) in r_moves {
                        moved.push((client, r, amount));
                    }
                } else {
                    for &(client, amount) in &r_moves {
                        accounting.unassign(tree, client, candidate, amount);
                        per_object[k].unassign(client, candidate, amount);
                        accounting.assign(tree, client, r, amount);
                        per_object[k].assign(client, r, amount);
                    }
                }
            }
            if absorbed.is_empty() {
                continue;
            }
            if saved > problem.storage_cost(object, candidate) {
                per_object[k].add_replica(candidate);
            } else {
                for &(client, r, amount) in &moved {
                    accounting.unassign(tree, client, candidate, amount);
                    per_object[k].unassign(client, candidate, amount);
                    accounting.assign(tree, client, r, amount);
                    per_object[k].assign(client, r, amount);
                }
                for r in absorbed {
                    per_object[k].add_replica(r);
                }
            }
        }
    }
}

/// Depth-1 augmenting rescue for a stranded (object, client): relocate
/// *any* object's load off the client's path (onto open replicas
/// elsewhere on the carrying clients' own paths) and hand the freed
/// shared capacity to the stranded client — opening a replica of its
/// object at the freed node when it has none. Returns `true` once the
/// client is fully served.
fn rescue_multi(
    problem: &MultiObjectProblem,
    per_object: &mut [Placement],
    accounting: &mut FeasAccounting,
    remaining: &mut [Vec<u64>],
    k: usize,
    client: ClientId,
) -> bool {
    let tree = problem.tree();
    while remaining[k][client.index()] > 0 {
        let mut progressed = false;
        for server in tree.ancestors_of_client(client) {
            if remaining[k][client.index()] == 0 {
                break;
            }
            // Load of any object currently served at this node.
            let mut others: Vec<(usize, ClientId, u64)> = Vec::new();
            for (k2, placement) in per_object.iter().enumerate() {
                for &c in tree.subtree_clients(server) {
                    if k2 == k && c == client {
                        continue;
                    }
                    if let Some(a) = placement.assignments(c).iter().find(|a| a.server == server) {
                        others.push((k2, c, a.amount));
                    }
                }
            }
            for (k2, other, amount) in others {
                if remaining[k][client.index()] == 0 {
                    break;
                }
                let mut left = amount;
                for target in tree.ancestors_of_client(other) {
                    if left == 0 {
                        break;
                    }
                    if target == server || !per_object[k2].has_replica(target) {
                        continue;
                    }
                    let take = left.min(accounting.max_assignable(tree, other, target));
                    if take == 0 {
                        continue;
                    }
                    accounting.unassign(tree, other, server, take);
                    per_object[k2].unassign(other, server, take);
                    accounting.assign(tree, other, target, take);
                    per_object[k2].assign(other, target, take);
                    left -= take;
                    let give = remaining[k][client.index()]
                        .min(accounting.max_assignable(tree, client, server));
                    if give > 0 {
                        per_object[k].add_replica(server);
                        accounting.assign(tree, client, server, give);
                        per_object[k].assign(client, server, give);
                        remaining[k][client.index()] -= give;
                        progressed = true;
                    }
                }
            }
        }
        if !progressed {
            return false;
        }
    }
    true
}

/// Moves every object's assignments as low as they can go among that
/// object's open replicas (closest first) within the shared residuals —
/// the multi-object counterpart of the single-object push-down.
fn push_down_multi(
    problem: &MultiObjectProblem,
    per_object: &mut [Placement],
    accounting: &mut FeasAccounting,
) {
    let tree = problem.tree();
    for placement in per_object.iter_mut() {
        for client in tree.client_ids() {
            let assignments: Vec<(NodeId, u64)> = placement
                .assignments(client)
                .iter()
                .map(|a| (a.server, a.amount))
                .collect();
            for (server, amount) in assignments {
                let mut left = amount;
                for target in tree.ancestors_of_client(client) {
                    if target == server || left == 0 {
                        break;
                    }
                    if !placement.has_replica(target) {
                        continue;
                    }
                    // Lift the old charge before measuring the target's
                    // headroom — the moved flow itself sits on the
                    // shared path prefix (see the single-object pass).
                    accounting.unassign(tree, client, server, left);
                    placement.unassign(client, server, left);
                    let take = left.min(accounting.max_assignable(tree, client, target));
                    if take > 0 {
                        accounting.assign(tree, client, target, take);
                        placement.assign(client, target, take);
                    }
                    let stays = left - take;
                    if stays > 0 {
                        accounting.assign(tree, client, server, stays);
                        placement.assign(client, server, stays);
                    }
                    left = stays;
                }
            }
        }
    }
}

/// Drops every (object, replica) pair whose load re-homes onto the
/// object's remaining replicas within the shared residuals.
fn prune_multi(
    problem: &MultiObjectProblem,
    per_object: &mut [Placement],
    accounting: &mut FeasAccounting,
) {
    let tree = problem.tree();
    let mut candidates: Vec<(usize, NodeId, u64)> = Vec::new();
    for (k, placement) in per_object.iter().enumerate() {
        let mut loads = rp_tree::NodeMap::filled(tree.num_nodes(), 0u64);
        placement.accumulate_server_loads(&mut loads);
        for &node in placement.replicas() {
            candidates.push((k, node, loads[node]));
        }
    }
    // Most expensive first, lightest load within a price (the easy
    // drops), then a deterministic tail.
    candidates.sort_by_key(|&(k, node, load)| {
        (
            std::cmp::Reverse(problem.storage_cost(ObjectId(k as u32), node)),
            load,
            k,
            node.index(),
        )
    });
    let candidates: Vec<(usize, NodeId)> = candidates
        .into_iter()
        .map(|(k, node, _)| (k, node))
        .collect();
    for (k, node) in candidates {
        let placement = &mut per_object[k];
        let served: Vec<(ClientId, u64)> = tree
            .client_ids()
            .filter_map(|client| {
                placement
                    .assignments(client)
                    .iter()
                    .find(|a| a.server == node)
                    .map(|a| (client, a.amount))
            })
            .collect();
        for &(client, amount) in &served {
            accounting.unassign(tree, client, node, amount);
            placement.unassign(client, node, amount);
        }
        let mut moved: Vec<(ClientId, NodeId, u64)> = Vec::new();
        let mut stuck = false;
        'rehome: for &(client, amount) in &served {
            let mut left = amount;
            for server in tree.ancestors_of_client(client) {
                if left == 0 {
                    break;
                }
                if server == node || !placement.has_replica(server) {
                    continue;
                }
                let take = left.min(accounting.max_assignable(tree, client, server));
                if take > 0 {
                    accounting.assign(tree, client, server, take);
                    placement.assign(client, server, take);
                    moved.push((client, server, take));
                    left -= take;
                }
            }
            if left > 0 {
                stuck = true;
                break 'rehome;
            }
        }
        if stuck {
            for &(client, server, take) in &moved {
                accounting.unassign(tree, client, server, take);
                placement.unassign(client, server, take);
            }
            for &(client, amount) in &served {
                accounting.assign(tree, client, node, amount);
                placement.assign(client, node, amount);
            }
        } else {
            placement.remove_replica(node);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ilp::{multi_lower_bound, BoundKind};
    use crate::multi::solve_multi_ilp;
    use crate::policy::Policy;
    use rp_tree::TreeBuilder;

    fn coupling() -> MultiObjectProblem {
        // The Section 8.1 coupling example: hub fits one object only.
        let mut b = TreeBuilder::new();
        let root = b.add_root();
        let hub = b.add_node(root);
        b.add_client(hub);
        b.add_client(hub);
        MultiObjectProblem::new(
            b.build().unwrap(),
            vec![vec![4, 0], vec![0, 4]],
            vec![10, 4],
            vec![vec![10, 1], vec![6, 5]],
        )
    }

    #[test]
    fn rounding_matches_the_exact_optimum_on_the_coupling_example() {
        let p = coupling();
        let rounded = lp_guided_multi(&p).expect("feasible");
        rounded.validate(&p, Policy::Multiple).expect("valid");
        // Object 0 at the hub (1), object 1 at the root (6): exact 7.
        assert_eq!(rounded.cost(&p), 7);
        assert_eq!(solve_multi_ilp(&p).unwrap().cost(&p), 7);
    }

    #[test]
    fn shared_links_are_respected() {
        let ok = coupling().with_link_bandwidths(vec![None, None], vec![None, Some(4)]);
        let rounded = lp_guided_multi(&ok).expect("feasible with bw = 4");
        rounded.validate(&ok, Policy::Multiple).expect("valid");
        assert_eq!(rounded.cost(&ok), 7);

        let starved = coupling().with_link_bandwidths(vec![None, None], vec![None, Some(3)]);
        assert!(lp_guided_multi(&starved).is_none());
    }

    #[test]
    fn rounded_cost_sits_above_the_rational_bound() {
        let mut b = TreeBuilder::new();
        let root = b.add_root();
        let hub = b.add_node(root);
        b.add_client(hub);
        b.add_client(hub);
        b.add_client(root);
        let p = MultiObjectProblem::new(
            b.build().unwrap(),
            vec![vec![3, 2, 1], vec![1, 4, 2]],
            vec![10, 8],
            vec![vec![5, 4], vec![6, 3]],
        );
        let rounded = lp_guided_multi(&p).expect("feasible");
        rounded.validate(&p, Policy::Multiple).expect("valid");
        let bound = multi_lower_bound(&p, BoundKind::Rational).unwrap();
        assert!(rounded.cost(&p) as f64 + 1e-6 >= bound);
        // And never better than the exact optimum.
        let exact = solve_multi_ilp(&p).unwrap().cost(&p);
        assert!(rounded.cost(&p) >= exact);
    }

    #[test]
    fn infeasible_instances_round_to_none() {
        let mut b = TreeBuilder::new();
        let root = b.add_root();
        b.add_client(root);
        let p =
            MultiObjectProblem::new(b.build().unwrap(), vec![vec![50]], vec![10], vec![vec![1]]);
        assert!(lp_guided_multi(&p).is_none());
    }
}
