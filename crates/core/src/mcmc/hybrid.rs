//! The hybrid sweep (Algorithm 4) — H-SBP's MCMC phase.
//!
//! Vertices are ordered by total degree, descending. The top
//! `hybrid_serial_fraction` (the influential set `V*`, 15% in the paper) is
//! processed first, serially and with immediate blockmodel updates — giving
//! the high-influence vertices a chance to settle before anyone else reads
//! the state. The low-degree tail `V⁻` then runs exactly like an A-SBP
//! sweep against the post-serial snapshot, followed by one consolidation
//! (incremental move replay or rebuild, see [`super::consolidate`]).
//!
//! SBP (Algorithm 2) runs here too, as the case `V* = V` in vertex-id
//! order with no tail.

use super::async_gibbs::evaluate_chunk;
use super::consolidate::consolidate_sweep;
use super::{mh_pass, PhaseWorkspace, SweepCounters};
use crate::budget::RunControl;
use crate::config::SbpConfig;
use crate::error::HsbpError;
use crate::stats::RunStats;
use hsbp_blockmodel::{Block, BlockNeighborSampler, Blockmodel, ProposalArena};
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
    // Serial Metropolis-Hastings pass over the influential set V*, each
    // proposal and applied move charged to the serial account in visit
    // order.
    let mut counters = SweepCounters::default();
    let mut serial_cost = 0.0;
    let vstar = order[..vstar_len].iter().copied();
    let sweeps = sweep_idx..sweep_idx + 1;
    mh_pass(
        graph,
        bm,
        vstar,
        sweeps,
        cfg.beta,
        salt,
        ctrl,
        &mut ws.arena,
        |v, moved| {
            let incident = graph.incident_arity(v);
            counters.proposals += 1;
            serial_cost += cfg.cost_model.proposal_cost(incident);
            if moved.is_some() {
                serial_cost += cfg.cost_model.update_cost(incident);
                counters.accepted += 1;
            }
        },
    );
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
