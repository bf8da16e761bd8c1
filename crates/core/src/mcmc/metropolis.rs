//! The serial Metropolis-Hastings sweep (Algorithm 2) — the paper's SBP
//! baseline. Each accepted move updates the blockmodel immediately, so
//! every later proposal in the same sweep sees fully fresh state; that is
//! exactly the dependency chain that makes this phase inherently serial.

use super::SweepCounters;
use crate::budget::{RunControl, VERTEX_CHECK_STRIDE};
use crate::config::SbpConfig;
use crate::error::HsbpError;
use crate::stats::RunStats;
use hsbp_blockmodel::{
    evaluate_move_with, propose::accept_move, propose_block, Blockmodel, NeighborCounts,
    ProposalArena,
};
use hsbp_collections::SplitMix64;
use hsbp_graph::{Graph, Vertex};

#[allow(clippy::too_many_arguments)]
pub(crate) fn sweep(
    graph: &Graph,
    bm: &mut Blockmodel,
    cfg: &SbpConfig,
    salt: u64,
    sweep_idx: u64,
    stats: &mut RunStats,
    ctrl: &RunControl,
    arena: &mut ProposalArena,
) -> Result<SweepCounters, HsbpError> {
    let mut counters = SweepCounters::default();
    let mut serial_cost = 0.0;
    for v in 0..graph.num_vertices() as Vertex {
        // Coarse cancellation checkpoint; every state it leaves behind is a
        // consistent prefix of the sweep (moves apply immediately).
        if u64::from(v) % VERTEX_CHECK_STRIDE == 0 && v > 0 && ctrl.interrupt_cause().is_some() {
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
    stats.sim_mcmc.add_serial(serial_cost);
    Ok(counters)
}
