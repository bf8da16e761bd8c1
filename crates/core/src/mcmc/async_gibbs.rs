//! The asynchronous-Gibbs sweep (Algorithm 3) — A-SBP's MCMC phase.
//!
//! All vertices are evaluated *in parallel* against the blockmodel frozen at
//! the start of the sweep (exact asynchronous Gibbs: the Metropolis-Hastings
//! ratio is still computed, so not every proposal is accepted). Accepted
//! moves only update a private copy of the membership vector; the blockmodel
//! is consolidated from it once at the end — incrementally (O(degree)
//! `apply_move` deltas) when few vertices moved, else via the classic O(E)
//! rebuild (see [`super::consolidate`]) — so every worker reads state that
//! is at most one sweep stale, and no locks are needed anywhere.
//!
//! With `asbp_batches > 1` the sweep is split into contiguous batches with a
//! consolidation after each (the "batched A-SBP" extension from the paper's
//! conclusion): staleness shrinks to a batch, at the cost of more
//! consolidations.
//!
//! Per-vertex randomness comes from a counter RNG keyed on
//! `(salt, sweep, vertex)`, making the outcome independent of how the pool
//! schedules the vertices over threads: every decision lands in a fixed
//! per-vertex output slot before the single consolidation point.

use super::consolidate::consolidate_sweep;
use super::{degree_plan, PhaseWorkspace, SweepCounters};
use crate::budget::RunControl;
use crate::config::SbpConfig;
use crate::error::HsbpError;
use crate::stats::RunStats;
use hsbp_blockmodel::{
    evaluate_move_with, propose::accept_move, propose_block_frozen, Block, BlockNeighborSampler,
    Blockmodel, NeighborCounts, ProposalArena,
};
use hsbp_collections::SplitMix64;
use hsbp_graph::{Graph, Vertex};
use hsbp_parallel::ThreadPool;
use std::ops::Range;

/// Evaluate one chunk of vertices against the frozen model, pushing one
/// `Some(to)`/`None` decision per index. Shared by the A-SBP sweep and
/// H-SBP's parallel tail; `vertex_of` maps a plan index to the vertex it
/// stands for. The caller builds the [`BlockNeighborSampler`] once per
/// frozen model, so every proposal's block-neighbour draw is O(1) instead
/// of a linear scan.
///
/// The chunk is processed in two stages: stage A draws every counter-RNG
/// stream and alias-table proposal for the batch, parking the per-vertex
/// RNG state in the arena's [`ProposalBatch`]; stage B gathers, evaluates
/// and runs the acceptance test, resuming each vertex's parked stream.
/// Each vertex still consumes its own RNG stream in the per-vertex order,
/// so decisions are bit-identical to the unbatched loop — batching only
/// amortizes proposal dispatch across the chunk.
#[allow(clippy::too_many_arguments)]
pub(crate) fn evaluate_chunk(
    graph: &Graph,
    bm: &Blockmodel,
    sampler: &BlockNeighborSampler,
    snapshot: &[Block],
    vertex_of: impl Fn(usize) -> Vertex,
    range: Range<usize>,
    cfg: &SbpConfig,
    salt: u64,
    sweep_idx: u64,
    arena: &mut ProposalArena,
    out: &mut Vec<Option<Block>>,
) {
    let ProposalArena {
        scratch,
        counts,
        eval,
        batch,
    } = arena;
    // Stage A: propose for the whole chunk.
    batch.clear();
    for i in range.clone() {
        let v = vertex_of(i);
        let mut rng = SplitMix64::for_item(salt, sweep_idx, u64::from(v));
        let from = snapshot[v as usize];
        let to = propose_block_frozen(graph, bm, sampler, snapshot, v, &mut rng);
        batch.rngs.push(rng);
        batch.from.push(from);
        batch.to.push(to);
    }
    // Stage B: gather, evaluate, accept.
    for (j, i) in range.enumerate() {
        let (from, to) = (batch.from[j], batch.to[j]);
        if to == from {
            out.push(None);
            continue;
        }
        let v = vertex_of(i);
        NeighborCounts::gather_into(graph, snapshot, v, scratch, counts);
        let e = evaluate_move_with(bm, from, to, counts, eval);
        out.push(if accept_move(&e, cfg.beta, &mut batch.rngs[j]) {
            Some(to)
        } else {
            None
        });
    }
}

/// A sweep evaluated against an *arbitrarily stale* model (the distributed
/// A-SBP emulation, `asbp_staleness > 1`): proposals and MH ratios use
/// `eval_model` — the blockmodel as it was `staleness` sweeps ago — while
/// accepted moves update the *current* membership vector, exactly as remote
/// workers applying decisions made from an old synchronisation point would.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sweep_stale(
    graph: &Graph,
    bm: &mut Blockmodel,
    eval_model: &Blockmodel,
    cfg: &SbpConfig,
    salt: u64,
    sweep_idx: u64,
    stats: &mut RunStats,
    parallel_costs: &[f64],
    exec: &ThreadPool,
    ws: &mut PhaseWorkspace,
) -> Result<SweepCounters, HsbpError> {
    let n = graph.num_vertices();
    let sweep_no = stats.mcmc_sweeps + 1;
    let mut counters = SweepCounters::default();
    let stale_assignment = eval_model.assignment();
    let sampler = BlockNeighborSampler::build(eval_model);
    let plan = degree_plan(graph, 0, n, exec.chunk_target());
    let decisions: Vec<Option<Block>> =
        exec.map_chunked_resident(&plan, ProposalArena::default, |arena, range, out| {
            evaluate_chunk(
                graph,
                eval_model,
                &sampler,
                stale_assignment,
                |i| i as Vertex,
                range,
                cfg,
                salt,
                sweep_idx,
                arena,
                out,
            );
        });
    counters.proposals += n as u64;
    let mut new_assignment = bm.assignment_snapshot();
    for (v, decision) in decisions.into_iter().enumerate() {
        if let Some(to) = decision {
            new_assignment[v] = to;
            counters.accepted += 1;
        }
    }
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
    Ok(counters)
}

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
    let mut counters = SweepCounters::default();
    let batches = cfg.asbp_batches.min(n.max(1));
    let batch_len = n.div_ceil(batches.max(1));

    for batch in 0..batches {
        // Cancellation checkpoint between batches: each completed batch
        // ends in a consolidation, so bailing here always leaves exact
        // state.
        if batch > 0 && ctrl.interrupt_cause().is_some() {
            break;
        }
        let start = batch * batch_len;
        let end = ((batch + 1) * batch_len).min(n);
        if start >= end {
            break;
        }
        let snapshot = bm.assignment_snapshot();
        let frozen: &Blockmodel = bm;
        let sampler = BlockNeighborSampler::build(frozen);
        let plan = degree_plan(graph, start, end, exec.chunk_target());
        let decisions: Vec<Option<Block>> =
            exec.map_chunked_resident(&plan, ProposalArena::default, |arena, range, out| {
                evaluate_chunk(
                    graph,
                    frozen,
                    &sampler,
                    &snapshot,
                    |i| (start + i) as Vertex,
                    range,
                    cfg,
                    salt,
                    sweep_idx,
                    arena,
                    out,
                );
            });
        counters.proposals += (end - start) as u64;
        let mut new_assignment = snapshot;
        for (offset, decision) in decisions.into_iter().enumerate() {
            if let Some(to) = decision {
                new_assignment[start + offset] = to;
                counters.accepted += 1;
            }
        }

        // Simulated accounting: the proposal loop is the parallel section;
        // the consolidation charges itself (serial move replay or
        // parallelisable rebuild).
        stats.sim_mcmc.add_parallel(&parallel_costs[start..end]);
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
