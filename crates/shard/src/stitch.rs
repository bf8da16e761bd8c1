//! Stitching: reassemble a global blockmodel from per-shard partitions,
//! merge shard-boundary blocks, finetune on the full graph.
//!
//! After the per-shard runs, each global community is split into many
//! sub-blocks (the shards deliberately over-partition — see
//! `runner::overpartition_iterations`). Stitching therefore:
//!
//! 1. offsets each shard's block ids into one disjoint global id space and
//!    builds a full-graph [`Blockmodel`] from the union assignment — the
//!    first time the cut edges enter any model;
//! 2. finishes the agglomerative search *globally* on the shared driver
//!    ([`golden_section_search`]), warm-started from the stitched union
//!    instead of the singleton partition. Each evaluation is a merge phase
//!    (which fuses blocks the cut edges reveal to be the same community)
//!    followed by a short full-graph MCMC finetune (H-SBP by default) so
//!    boundary vertices that were sharded away from their community can
//!    cross over;
//! 3. returns the best-MDL state the search evaluated.
//!
//! Under supervision ([`stitch_supervised`]) a shard may have been dropped.
//! The union then covers surviving shards only, and the dropped shards'
//! vertices are reassigned by **majority vote over their cut edges**:
//! repeated passes give every orphaned vertex the block that the plurality
//! of its already-assigned neighbours (weighted, both edge directions)
//! belong to. Vertices unreachable from any survivor fall back to the
//! largest surviving block. The finetune sweeps that follow see the full
//! edge set and polish these guessed memberships like any other boundary
//! vertex.

use crate::ShardConfig;
use hsbp_blockmodel::{mdl, Block, Blockmodel};
use hsbp_core::{
    golden_section_search, HsbpError, RunControl, RunStats, SbpConfig, SbpResult, VariantSweeps,
};
use hsbp_graph::Graph;
use std::collections::HashMap;

/// What the stitch phase did, for reporting.
#[derive(Debug, Clone)]
pub struct StitchReport {
    /// Global block count right after union (sum of shard block counts).
    pub blocks_stitched: usize,
    /// Block count of the returned best state.
    pub blocks_final: usize,
    /// Merge-then-finetune steps evaluated.
    pub steps: usize,
    /// Total finetune sweeps across all steps.
    pub finetune_sweeps: usize,
    /// MDL of the raw stitched state (before any merge/finetune).
    pub stitched_mdl: f64,
    /// Vertices of dropped shards reassigned by majority vote (0 on
    /// non-degraded runs).
    pub reassigned_vertices: usize,
}

/// Union the per-shard assignments into one global assignment with
/// disjoint block ids. Returns `(assignment, num_blocks)`.
fn union_assignment(
    plan: &crate::partition::ShardPlan,
    shard_results: &[&SbpResult],
) -> (Vec<Block>, usize) {
    let mut offsets = Vec::with_capacity(shard_results.len());
    let mut total_blocks = 0usize;
    for result in shard_results {
        offsets.push(total_blocks as Block);
        total_blocks += result.num_blocks;
    }
    let assignment = plan
        .parts
        .iter()
        .zip(&plan.local_ids)
        .map(|(&shard, &local)| {
            shard_results[shard as usize].assignment[local as usize] + offsets[shard as usize]
        })
        .collect();
    (assignment, total_blocks)
}

/// Union over *surviving* shards only: dropped shards' vertices come back
/// as `None`. Returns `(partial assignment, num surviving blocks)`.
fn union_surviving(
    plan: &crate::partition::ShardPlan,
    results: &[Option<SbpResult>],
) -> (Vec<Option<Block>>, usize) {
    let mut offsets = vec![0 as Block; results.len()];
    let mut total_blocks = 0usize;
    for (shard, result) in results.iter().enumerate() {
        if let Some(r) = result {
            offsets[shard] = total_blocks as Block;
            total_blocks += r.num_blocks;
        }
    }
    let assignment = plan
        .parts
        .iter()
        .zip(&plan.local_ids)
        .map(|(&shard, &local)| {
            results[shard as usize]
                .as_ref()
                .map(|r| r.assignment[local as usize] + offsets[shard as usize])
        })
        .collect();
    (assignment, total_blocks)
}

/// Fill every `None` slot by weighted majority vote over assigned
/// neighbours (both edge directions). Runs passes until a fixpoint so
/// orphaned regions flood-fill inward from the cut; anything still
/// unassigned (no path to a survivor) falls back to the largest surviving
/// block. Deterministic: vertices are visited in ascending order against a
/// per-pass snapshot, ties break toward the lowest block id.
///
/// Returns the number of vertices reassigned.
pub(crate) fn reassign_dropped(
    graph: &Graph,
    assigned: &mut [Option<Block>],
    num_blocks: usize,
) -> usize {
    let n = assigned.len();
    let orphaned: Vec<usize> = (0..n).filter(|&v| assigned[v].is_none()).collect();
    if orphaned.is_empty() {
        return 0;
    }
    loop {
        let snapshot: Vec<Option<Block>> = assigned.to_vec();
        let mut progress = false;
        for &v in &orphaned {
            if assigned[v].is_some() {
                continue;
            }
            let mut votes: HashMap<Block, u64> = HashMap::new();
            for (u, w) in graph.out_edges(v as u32) {
                if let Some(b) = snapshot[u as usize] {
                    *votes.entry(b).or_insert(0) += w;
                }
            }
            for (u, w) in graph.in_edges(v as u32) {
                if let Some(b) = snapshot[u as usize] {
                    *votes.entry(b).or_insert(0) += w;
                }
            }
            // Plurality by weight, lowest block id on ties.
            let winner = votes
                .into_iter()
                .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)));
            if let Some((block, _)) = winner {
                assigned[v] = Some(block);
                progress = true;
            }
        }
        if !progress {
            break;
        }
    }
    // Isolated remainder: largest surviving block (ties toward lowest id).
    let mut sizes = vec![0usize; num_blocks];
    for b in assigned.iter().flatten() {
        if (*b as usize) < num_blocks {
            sizes[*b as usize] += 1;
        }
    }
    let fallback = sizes
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
        .map(|(b, _)| b as Block)
        .unwrap_or(0);
    for slot in assigned.iter_mut() {
        if slot.is_none() {
            *slot = Some(fallback);
        }
    }
    orphaned.len()
}

/// Fold the per-shard instrumentation accounts into the global stats so the
/// final result's simulated/wall timings cover the whole pipeline.
fn fold_stats<'a>(stats: &mut RunStats, results: impl Iterator<Item = &'a SbpResult>) {
    for result in results {
        stats.timer.merge(&result.stats.timer);
        stats.sim_mcmc.merge(&result.stats.sim_mcmc);
        stats.sim_merge.merge(&result.stats.sim_merge);
        stats.mcmc_sweeps += result.stats.mcmc_sweeps;
        stats.mcmc_phases += result.stats.mcmc_phases;
        stats.outer_iterations += result.stats.outer_iterations;
        stats.proposals += result.stats.proposals;
        stats.accepted += result.stats.accepted;
        stats.audits_run += result.stats.audits_run;
        stats
            .drift_events
            .extend(result.stats.drift_events.iter().cloned());
        stats.consolidations_incremental += result.stats.consolidations_incremental;
        stats.consolidations_rebuild += result.stats.consolidations_rebuild;
        stats.consolidated_moves += result.stats.consolidated_moves;
        stats.sync_rounds += result.stats.sync_rounds;
        stats.sync_retransmits += result.stats.sync_retransmits;
        stats.sync_resyncs += result.stats.sync_resyncs;
        stats.sync_bytes += result.stats.sync_bytes;
    }
}

/// Stitch per-shard results into a full-graph [`SbpResult`].
///
/// `shard_results[s]` must be the result of running SBP on
/// `plan.shards[s].graph`; panics on length mismatch.
pub fn stitch(
    graph: &Graph,
    plan: &crate::partition::ShardPlan,
    shard_results: &[SbpResult],
    cfg: &ShardConfig,
) -> (SbpResult, StitchReport) {
    assert_eq!(
        plan.num_shards(),
        shard_results.len(),
        "one result per shard"
    );
    let mut stats = RunStats::new(&finetune_config(cfg));
    fold_stats(&mut stats, shard_results.iter());
    let refs: Vec<&SbpResult> = shard_results.iter().collect();
    let (assignment, blocks_stitched) = union_assignment(plan, &refs);
    stitch_core(graph, assignment, blocks_stitched, 0, stats, cfg).unwrap_or_else(|e| panic!("{e}"))
}

/// Stitch the (possibly gappy) results of a supervised run. Dropped shards
/// (`None` entries) trigger graceful degradation: their vertices are
/// majority-voted onto surviving shards' blocks before the merge/finetune
/// search (see module docs). With every shard present this is exactly
/// [`stitch`] — bit for bit.
pub fn stitch_supervised(
    graph: &Graph,
    plan: &crate::partition::ShardPlan,
    results: &[Option<SbpResult>],
    cfg: &ShardConfig,
) -> Result<(SbpResult, StitchReport), HsbpError> {
    assert_eq!(plan.num_shards(), results.len(), "one slot per shard");
    let mut stats = RunStats::new(&finetune_config(cfg));
    fold_stats(&mut stats, results.iter().flatten());
    if results.iter().all(Option::is_none) {
        return Err(HsbpError::AllShardsFailed {
            num_shards: results.len(),
        });
    }

    let (assignment, blocks_stitched, reassigned) = if results.iter().all(Option::is_some) {
        // Reuse the exact non-degraded union so zero-fault runs stay
        // bit-identical to the unsupervised path.
        let full: Vec<&SbpResult> = results.iter().flatten().collect();
        let (a, b) = union_assignment(plan, &full);
        (a, b, 0)
    } else {
        let (partial, surviving_blocks) = union_surviving(plan, results);
        let mut partial = partial;
        if surviving_blocks == 0 {
            // Survivors exist but hold zero blocks (all empty shards):
            // nothing to vote onto.
            return Err(HsbpError::AllShardsFailed {
                num_shards: results.len(),
            });
        }
        let reassigned = reassign_dropped(graph, &mut partial, surviving_blocks);
        let assignment: Vec<Block> = partial.into_iter().map(|b| b.unwrap_or(0)).collect();
        (assignment, surviving_blocks, reassigned)
    };
    stitch_core(graph, assignment, blocks_stitched, reassigned, stats, cfg)
}

fn finetune_config(cfg: &ShardConfig) -> SbpConfig {
    SbpConfig {
        variant: cfg.finetune_variant,
        max_sweeps: cfg.finetune_sweeps,
        ..cfg.sbp.clone()
    }
}

/// The global merge/finetune search over a stitched union assignment: the
/// shared driver warm-started from the union, with phase salts disjoint
/// from the per-shard ones.
fn stitch_core(
    graph: &Graph,
    assignment: Vec<Block>,
    blocks_stitched: usize,
    reassigned_vertices: usize,
    stats: RunStats,
    cfg: &ShardConfig,
) -> Result<(SbpResult, StitchReport), HsbpError> {
    let n = graph.num_vertices();
    let finetune_cfg = finetune_config(cfg);
    let stitched = Blockmodel::from_assignment(graph, assignment.clone(), blocks_stitched);
    let stitched_mdl = mdl::mdl(&stitched, n, graph.total_weight()).total;
    let sweeps_before = stats.mcmc_sweeps;
    let mut result = golden_section_search(
        graph,
        &finetune_cfg,
        (assignment, blocks_stitched),
        u64::MAX / 2,
        &RunControl::unlimited(),
        stats,
        &mut VariantSweeps::new(&finetune_cfg),
    )?;
    let steps = result.trajectory.len();
    if n > 0 {
        // The stitch's trajectory opens with the raw union.
        result.trajectory.insert(0, (blocks_stitched, stitched_mdl));
    }
    let report = StitchReport {
        blocks_stitched,
        blocks_final: result.num_blocks,
        steps,
        finetune_sweeps: result.stats.mcmc_sweeps - sweeps_before,
        stitched_mdl,
        reassigned_vertices,
    };
    Ok((result, report))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::partition::{partition_graph, PartitionStrategy};
    use crate::runner::run_shards;
    use hsbp_graph::Vertex;

    /// `c` cliques of `size` vertices, one weak bridge edge between
    /// consecutive cliques so the graph is connected.
    fn cliques(c: usize, size: usize) -> Graph {
        let mut edges = Vec::new();
        for k in 0..c {
            let base = k * size;
            for a in 0..size {
                for b in 0..size {
                    if a != b {
                        edges.push(((base + a) as Vertex, (base + b) as Vertex));
                    }
                }
            }
            if k + 1 < c {
                edges.push(((base) as Vertex, (base + size) as Vertex));
            }
        }
        Graph::from_edges(c * size, &edges)
    }

    #[test]
    fn stitch_recovers_cliques_split_across_shards() {
        // Round-robin sharding slices every clique across both shards; only
        // the stitch phase can reunite them.
        let g = cliques(3, 8);
        let cfg = ShardConfig {
            num_shards: 2,
            ..Default::default()
        };
        let plan = partition_graph(&g, 2, &PartitionStrategy::RoundRobin);
        let (shard_results, _) = run_shards(&plan, &cfg);
        let (result, report) = stitch(&g, &plan, &shard_results, &cfg);
        assert_eq!(result.assignment.len(), 24);
        assert!(report.blocks_stitched >= result.num_blocks);
        // All members of a clique end in one block.
        for k in 0..3 {
            let b = result.assignment[k * 8];
            for v in 0..8 {
                assert_eq!(result.assignment[k * 8 + v], b, "clique {k} split");
            }
        }
        // MDL must improve on the raw union.
        assert!(result.mdl.total <= report.stitched_mdl + 1e-9);
    }

    #[test]
    fn stitch_handles_single_shard() {
        let g = cliques(2, 6);
        let cfg = ShardConfig {
            num_shards: 1,
            ..Default::default()
        };
        let plan = partition_graph(&g, 1, &PartitionStrategy::RoundRobin);
        let (shard_results, _) = run_shards(&plan, &cfg);
        let (result, _) = stitch(&g, &plan, &shard_results, &cfg);
        assert_eq!(result.assignment.len(), 12);
        assert!(result.num_blocks >= 1);
        assert!(result.mdl.total.is_finite());
    }

    #[test]
    fn supervised_stitch_with_all_results_matches_plain_stitch() {
        let g = cliques(3, 6);
        let cfg = ShardConfig {
            num_shards: 3,
            ..Default::default()
        };
        let plan = partition_graph(&g, 3, &PartitionStrategy::RoundRobin);
        let (shard_results, _) = run_shards(&plan, &cfg);
        let (plain, plain_report) = stitch(&g, &plan, &shard_results, &cfg);
        let slots: Vec<Option<SbpResult>> = shard_results.into_iter().map(Some).collect();
        let (sup, sup_report) = stitch_supervised(&g, &plan, &slots, &cfg).unwrap();
        assert_eq!(plain.assignment, sup.assignment);
        assert_eq!(plain.num_blocks, sup.num_blocks);
        assert_eq!(plain.mdl.total, sup.mdl.total);
        assert_eq!(plain_report.blocks_stitched, sup_report.blocks_stitched);
        assert_eq!(sup_report.reassigned_vertices, 0);
    }

    #[test]
    fn degraded_stitch_reassigns_dropped_shard_vertices() {
        let g = cliques(3, 8);
        let cfg = ShardConfig {
            num_shards: 3,
            ..Default::default()
        };
        let plan = partition_graph(&g, 3, &PartitionStrategy::RoundRobin);
        let (shard_results, _) = run_shards(&plan, &cfg);
        let dropped = plan.shards[1].graph.num_vertices();
        let mut slots: Vec<Option<SbpResult>> = shard_results.into_iter().map(Some).collect();
        slots[1] = None;
        let (result, report) = stitch_supervised(&g, &plan, &slots, &cfg).unwrap();
        assert_eq!(report.reassigned_vertices, dropped);
        assert_eq!(result.assignment.len(), 24);
        // Every clique still ends whole: the finetune sweeps see all edges.
        for k in 0..3 {
            let b = result.assignment[k * 8];
            for v in 0..8 {
                assert_eq!(result.assignment[k * 8 + v], b, "clique {k} split");
            }
        }
    }

    #[test]
    fn all_none_slots_error() {
        let g = cliques(2, 4);
        let cfg = ShardConfig {
            num_shards: 2,
            ..Default::default()
        };
        let plan = partition_graph(&g, 2, &PartitionStrategy::RoundRobin);
        let slots: Vec<Option<SbpResult>> = vec![None, None];
        assert!(matches!(
            stitch_supervised(&g, &plan, &slots, &cfg),
            Err(HsbpError::AllShardsFailed { num_shards: 2 })
        ));
    }

    #[test]
    fn majority_vote_is_weight_aware_and_deterministic() {
        // Path 0-1-2 where 1 is orphaned; edge (1,2) carries more weight
        // than (0,1), so vertex 1 must join 2's block.
        let edges: Vec<(Vertex, Vertex)> = vec![(0, 1), (1, 2), (1, 2)];
        let g = Graph::from_edges(3, &edges);
        let mut assigned = vec![Some(0), None, Some(1)];
        let moved = reassign_dropped(&g, &mut assigned, 2);
        assert_eq!(moved, 1);
        assert_eq!(assigned[1], Some(1));
    }
}
