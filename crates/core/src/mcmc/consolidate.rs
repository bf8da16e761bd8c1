//! End-of-sweep consolidation: folding a sweep's accepted moves back into
//! the blockmodel.
//!
//! The parallel sweep variants (A-SBP, H-SBP's tail, EA-SBP) decide moves
//! against frozen state and only flip a membership vector; the blockmodel
//! must then be brought up to date once per sweep (per batch for batched
//! A-SBP). Historically that was always the O(E) `rebuild`. When only a few
//! vertices actually moved — the common case once the chain starts
//! converging — replaying those moves through [`Blockmodel::apply_move`]
//! costs O(Σ degree(moved)) instead, with no parallel barrier.
//!
//! Both paths land on the *same bytes*: `apply_move` performs exact integer
//! updates and the sparse rows are canonical sorted vectors, so the
//! incremental result is structurally identical to a rebuild from the same
//! membership (property-tested, and checkable at runtime with
//! [`Consolidation::Verify`]). The strategy choice is therefore pure
//! performance, made per sweep by the [`CostModel`] crossover.

use crate::config::{Consolidation, SbpConfig};
use crate::error::HsbpError;
use crate::stats::RunStats;
use hsbp_blockmodel::{replay_moves, Block, Blockmodel, ProposalArena};
use hsbp_graph::{Graph, Vertex};

/// Replace `bm`'s state with the blockmodel implied by `new_assignment`,
/// choosing between incremental move replay and a full rebuild according to
/// `cfg.consolidation`. Charges the simulated-time account and the
/// consolidation counters on `stats`; `total_sweep` labels a
/// [`HsbpError::StateDrift`] raised by the Verify mode.
///
/// The one consolidation policy: the in-process parallel variants and the
/// exact distributed mode's coordinator all call it.
pub fn consolidate_sweep(
    graph: &Graph,
    bm: &mut Blockmodel,
    new_assignment: Vec<Block>,
    cfg: &SbpConfig,
    arena: &mut ProposalArena,
    stats: &mut RunStats,
    total_sweep: usize,
) -> Result<(), HsbpError> {
    let n = graph.num_vertices();
    debug_assert_eq!(new_assignment.len(), n);
    let current = bm.assignment();
    let mut moves = 0usize;
    let mut incremental_cost = 0.0;
    for v in 0..n {
        if current[v] != new_assignment[v] {
            moves += 1;
            incremental_cost += cfg
                .cost_model
                .consolidation_move_cost(graph.incident_arity(v as Vertex));
        }
    }
    if moves == 0 {
        // Nothing changed: both paths are the identity; charge nothing.
        stats.consolidations_incremental += 1;
        return Ok(());
    }

    // Verify replays incrementally and checks the bytes against a rebuild.
    let verify = cfg.consolidation == Consolidation::Verify;
    let incremental = match cfg.consolidation {
        Consolidation::ForceIncremental | Consolidation::Verify => true,
        Consolidation::ForceRebuild => false,
        Consolidation::Auto => cfg
            .cost_model
            .prefer_incremental_consolidation(incremental_cost, graph.num_edges()),
    };
    if !incremental {
        bm.rebuild(graph, new_assignment);
        stats.consolidations_rebuild += 1;
        charge_rebuild(cfg, graph, stats);
        return Ok(());
    }
    let rebuilt = verify.then(|| {
        let mut rebuilt = bm.clone();
        rebuilt.rebuild(graph, new_assignment.clone());
        rebuilt
    });
    // Ascending by vertex id; the final state is a pure function of
    // `new_assignment` and equals a rebuild from it byte for byte.
    let diff = new_assignment
        .iter()
        .enumerate()
        .map(|(v, &to)| (v as Vertex, to));
    replay_moves(graph, bm, diff, arena);
    if rebuilt.is_some_and(|rebuilt| *bm != rebuilt) {
        return Err(HsbpError::StateDrift {
            sweep: total_sweep,
            detail: format!("incremental consolidation diverged from rebuild after {moves} moves"),
        });
    }
    stats.consolidated_moves += moves as u64;
    stats.consolidations_incremental += 1;
    stats.sim_mcmc.add_serial(incremental_cost);
    if verify {
        stats.consolidations_rebuild += 1;
        charge_rebuild(cfg, graph, stats);
    }
    Ok(())
}

/// Simulated-time charge for the rebuild path (parallelisable up to the
/// serial merge fraction) — identical to the pre-consolidation accounting.
fn charge_rebuild(cfg: &SbpConfig, graph: &Graph, stats: &mut RunStats) {
    stats.sim_mcmc.add_parallel_uniform(
        cfg.cost_model.rebuild_cost(graph.num_edges()),
        cfg.cost_model.rebuild_serial_fraction,
    );
}
