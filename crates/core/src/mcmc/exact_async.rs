//! Exact asynchronous Gibbs with per-worker model replicas (Terenin et al.,
//! the algorithm the paper's §2.3/§3.1 discusses and deliberately does
//! *not* adopt).
//!
//! Each of `exact_async_workers` logical workers owns a full replica of the
//! blockmodel and processes a contiguous vertex shard serially, applying its
//! own accepted moves to its *local* replica immediately — so within a
//! shard the state is perfectly fresh, while other workers' moves stay
//! invisible until the end-of-sweep consolidation.
//!
//! The replicas are *persistent* across the sweeps of a phase: instead of
//! re-cloning the global model every sweep, each worker returns its list of
//! accepted moves, the global model is consolidated from the merged
//! membership (incremental replay or rebuild, see [`super::consolidate`]),
//! and every replica folds in the *other* workers' moves as exact integer
//! deltas. Because the sparse rows are canonical, a synced replica is
//! byte-identical to the consolidated global model, so the clone cost is
//! paid only when the pool is (re)seeded — at phase start, after a worker
//! count change, or after an audit repair invalidates the replicas.
//!
//! The paper rejects this design because (a) replicating `B` per worker
//! costs memory bandwidth on large models and (b) the replicas must be
//! consolidated anyway; implementing it lets the `ablation exact` target
//! quantify that trade-off against the paper's snapshot-based A-SBP.

use super::consolidate::consolidate_sweep;
use super::{mh_pass, PhaseWorkspace, SweepCounters};
use crate::budget::RunControl;
use crate::config::SbpConfig;
use crate::error::HsbpError;
use crate::stats::RunStats;
use hsbp_blockmodel::{replay_moves, Block, Blockmodel, ProposalArena};
use hsbp_graph::{Graph, Vertex};
use hsbp_parallel::{with_resident, ThreadPool};

#[allow(clippy::too_many_arguments)]
pub(crate) fn sweep(
    graph: &Graph,
    bm: &mut Blockmodel,
    cfg: &SbpConfig,
    salt: u64,
    sweep_idx: u64,
    stats: &mut RunStats,
    parallel_costs: &[f64],
    ctrl: &RunControl,
    exec: &ThreadPool,
    ws: &mut PhaseWorkspace,
) -> Result<SweepCounters, HsbpError> {
    let n = graph.num_vertices();
    let sweep_no = stats.mcmc_sweeps + 1;
    let workers = cfg.exact_async_workers.clamp(1, n.max(1));
    let shard_len = n.div_ceil(workers);

    // (Re)seed the persistent replica pool when it is empty or stale (phase
    // start, worker-count change, or invalidation after an audit repair /
    // injected corruption). Only here is §3.1's replication cost — one full
    // model copy per worker — actually paid.
    if ws.replicas.len() != workers {
        ws.replicas.clear();
        ws.replicas
            .extend(std::iter::repeat_with(|| bm.clone()).take(workers));
        let clone_cost = cfg.cost_model.rebuild_cost(graph.num_edges());
        stats
            .sim_mcmc
            .add_parallel_uniform(workers as f64 * clone_cost, 0.0);
    }
    debug_assert_eq!(
        ws.replicas.first(),
        Some(&*bm),
        "EA-SBP replica drifted from the consolidated model"
    );

    // Each worker: serial MH over its shard against its own replica with
    // immediate local updates, returning the accepted moves.
    type ShardResult = (usize, Blockmodel, Vec<(Vertex, Block)>);
    let locals: Vec<(usize, Blockmodel)> = std::mem::take(&mut ws.replicas)
        .into_iter()
        .enumerate()
        .collect();
    let shard_results: Vec<ShardResult> = exec.map_vec(
        locals,
        || (),
        |(), (w, mut local)| {
            // Both ends clamp to `n`: on tiny graphs trailing workers get an
            // empty shard rather than an out-of-range slice.
            let start = (w * shard_len).min(n);
            let end = ((w + 1) * shard_len).min(n);
            with_resident(ProposalArena::default, |arena| {
                // Each worker bails with a consistent local replica on an
                // interrupt; the consolidation below still runs on the
                // partial moves.
                let mut moves: Vec<(Vertex, Block)> = Vec::new();
                let shard = start as Vertex..end as Vertex;
                let sweep = sweep_idx..sweep_idx + 1;
                mh_pass(
                    graph,
                    &mut local,
                    shard,
                    sweep,
                    cfg.beta,
                    salt,
                    ctrl,
                    arena,
                    |v, to| moves.extend(to.map(|to| (v, to))),
                );
                (w, local, moves)
            })
        },
    );

    let mut counters = SweepCounters {
        proposals: n as u64,
        accepted: 0,
    };
    let mut all_moves: Vec<(usize, Vertex, Block)> = Vec::new();
    let mut new_assignment = bm.assignment_snapshot();
    for (w, _, moves) in &shard_results {
        counters.accepted += moves.len() as u64;
        for &(v, to) in moves {
            new_assignment[v as usize] = to;
            all_moves.push((*w, v, to));
        }
    }

    // Simulated accounting: the shard loops parallelise like A-SBP's sweep;
    // the consolidation charges itself below.
    stats.sim_mcmc.add_parallel(parallel_costs);
    consolidate_sweep(
        graph,
        bm,
        new_assignment,
        cfg,
        &mut ws.arena,
        stats,
        sweep_no,
    )?;

    // Bring every replica up to the consolidated state by folding in the
    // *other* workers' moves (the worker's own moves are already applied
    // locally). Exact integer deltas against each replica's own evolving
    // assignment: the final replica state is a pure function of the merged
    // membership, hence byte-identical to `bm`. Each replica pays
    // ~O(moves · degree) — the per-sweep residue of §3.1's consolidation
    // objection, charged below across all workers.
    let synced: Vec<(usize, Blockmodel)> = if all_moves.is_empty() {
        shard_results
            .into_iter()
            .map(|(w, local, _)| (w, local))
            .collect()
    } else {
        let sync_cost: f64 = all_moves
            .iter()
            .map(|&(_, v, _)| {
                cfg.cost_model
                    .consolidation_move_cost(graph.incident_arity(v))
            })
            .sum();
        stats
            .sim_mcmc
            .add_parallel_uniform(workers as f64 * sync_cost, 0.0);
        let all_moves = &all_moves;
        exec.map_vec(
            shard_results,
            || (),
            |(), (w, mut local, _)| {
                with_resident(ProposalArena::default, |arena| {
                    let foreign = all_moves.iter().filter(|m| m.0 != w);
                    replay_moves(graph, &mut local, foreign.map(|&(_, v, to)| (v, to)), arena);
                    (w, local)
                })
            },
        )
    };
    let mut synced = synced;
    synced.sort_unstable_by_key(|&(w, _)| w);
    ws.replicas
        .extend(synced.into_iter().map(|(_, local)| local));
    Ok(counters)
}
