//! The hybrid sweep (Algorithm 4) — H-SBP's MCMC phase.
//!
//! Vertices are ordered by total degree, descending. The top
//! `hybrid_serial_fraction` (the influential set `V*`, 15% in the paper) is
//! processed first, serially and with immediate blockmodel updates — giving
//! the high-influence vertices a chance to settle before anyone else reads
//! the state. The low-degree tail `V⁻` then runs exactly like an A-SBP
//! sweep against the post-serial snapshot, followed by one consolidation
//! (incremental move replay or rebuild, see [`super::consolidate`]).

use super::async_gibbs::evaluate_chunk;
use super::consolidate::consolidate_sweep;
use super::{PhaseWorkspace, SweepCounters};
use crate::budget::{RunControl, VERTEX_CHECK_STRIDE};
use crate::config::SbpConfig;
use crate::error::HsbpError;
use crate::stats::RunStats;
use hsbp_blockmodel::{
    evaluate_move_with, propose::accept_move, propose_block, Block, BlockNeighborSampler,
    Blockmodel, NeighborCounts, ProposalArena,
};
use hsbp_collections::SplitMix64;
use hsbp_graph::{Graph, Vertex};
use hsbp_parallel::{ChunkPlan, ThreadPool};

#[allow(clippy::too_many_arguments)]
pub(crate) fn sweep(
    graph: &Graph,
    bm: &mut Blockmodel,
    order: &[Vertex],
    vstar_len: usize,
    cfg: &SbpConfig,
    salt: u64,
    sweep_idx: u64,
    stats: &mut RunStats,
    tail_costs: &[f64],
    ctrl: &RunControl,
    exec: &ThreadPool,
    tail_plan: &ChunkPlan,
    ws: &mut PhaseWorkspace,
) -> Result<SweepCounters, HsbpError> {
    let sweep_no = stats.mcmc_sweeps + 1;
    let mut counters = SweepCounters::default();

    // Serial Metropolis-Hastings pass over the influential set V*.
    let mut serial_cost = 0.0;
    {
        let arena = &mut ws.arena;
        for (i, &v) in order[..vstar_len].iter().enumerate() {
            // Coarse cancellation checkpoint (see metropolis::sweep); the
            // interrupted state is a consistent prefix of the serial pass.
            if (i as u64).is_multiple_of(VERTEX_CHECK_STRIDE)
                && i > 0
                && ctrl.interrupt_cause().is_some()
            {
                break;
            }
            let mut rng = SplitMix64::for_item(salt, sweep_idx, u64::from(v));
            let from = bm.block_of(v);
            let to = propose_block(graph, bm, bm.assignment(), v, &mut rng);
            counters.proposals += 1;
            let incident = graph.incident_arity(v);
            serial_cost += cfg.cost_model.proposal_cost(incident);
            if to == from {
                continue;
            }
            NeighborCounts::gather_into(
                graph,
                bm.assignment(),
                v,
                &mut arena.scratch,
                &mut arena.counts,
            );
            let eval = evaluate_move_with(bm, from, to, &arena.counts, &mut arena.eval);
            if accept_move(&eval, cfg.beta, &mut rng) {
                bm.apply_move(v, from, to, &arena.counts);
                serial_cost += cfg.cost_model.update_cost(incident);
                counters.accepted += 1;
            }
        }
    }
    stats.sim_mcmc.add_serial(serial_cost);

    // Asynchronous-Gibbs pass over the tail V⁻ (frozen model + snapshot).
    // Skipped entirely when an interrupt is already pending — the model is
    // consistent after the serial pass, and the phase discards the sweep.
    let tail = &order[vstar_len..];
    if !tail.is_empty() && ctrl.interrupt_cause().is_none() {
        let snapshot = bm.assignment_snapshot();
        let frozen: &Blockmodel = bm;
        let sampler = BlockNeighborSampler::build(frozen);
        debug_assert_eq!(tail_plan.len(), tail.len());
        let decisions: Vec<Option<Block>> =
            exec.map_chunked_resident(tail_plan, ProposalArena::default, |arena, range, out| {
                evaluate_chunk(
                    graph,
                    frozen,
                    &sampler,
                    &snapshot,
                    |i| tail[i],
                    range,
                    cfg,
                    salt,
                    sweep_idx,
                    arena,
                    out,
                );
            });
        counters.proposals += tail.len() as u64;
        let mut new_assignment = snapshot;
        for (&v, decision) in tail.iter().zip(decisions) {
            if let Some(to) = decision {
                new_assignment[v as usize] = to;
                counters.accepted += 1;
            }
        }

        stats.sim_mcmc.add_parallel(tail_costs);
        consolidate_sweep(
            graph,
            bm,
            new_assignment,
            cfg,
            &mut ws.arena,
            stats,
            sweep_no,
        )?;
    }
    Ok(counters)
}
