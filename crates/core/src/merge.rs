//! The agglomerative block-merge phase (Algorithm 1).
//!
//! For every block, `merge_proposals_per_block` candidate merges are
//! evaluated (in parallel — the paper runs this phase parallel in *all*
//! configurations so that measured differences isolate the MCMC phase); the
//! best candidate per block is kept, candidates are sorted by ΔMDL, and
//! merges are applied greedily until the number of blocks reaches the
//! target.

use crate::budget::RunControl;
use crate::config::SbpConfig;
use crate::stats::RunStats;
use hsbp_blockmodel::{
    delta_mdl_merge_with, propose_merge_target_frozen, Block, BlockNeighborSampler, Blockmodel,
    ProposalArena,
};
use hsbp_collections::sample::mix_words;
use hsbp_collections::SplitMix64;
use hsbp_graph::Graph;
use hsbp_parallel::ChunkPlan;

/// Result of one merge phase.
#[derive(Debug, Clone, Copy)]
pub struct MergeOutcome {
    /// Number of pairwise merges applied.
    pub merges_applied: usize,
    /// Block count after the phase.
    pub num_blocks: usize,
    /// True when a budget deadline or cancellation stopped the phase before
    /// it reached its target block count.
    pub truncated: bool,
}

/// Shrink `bm` to (at most) `target_blocks` blocks.
///
/// Runs repeated propose-select-apply rounds; normally a single round
/// reaches the target, but if the greedy selection collapses fewer distinct
/// block sets than planned another round is run.
pub fn merge_phase(
    graph: &Graph,
    bm: &mut Blockmodel,
    target_blocks: usize,
    cfg: &SbpConfig,
    phase_index: u64,
    stats: &mut RunStats,
) -> MergeOutcome {
    merge_phase_controlled(
        graph,
        bm,
        target_blocks,
        cfg,
        phase_index,
        stats,
        &RunControl::unlimited(),
    )
}

/// [`merge_phase`] under a [`RunControl`]: the deadline/cancel check runs
/// at the top of every propose-select-apply round, so the phase stops
/// between rounds (never mid-round — applied merges always form a complete
/// round). An unlimited control makes this identical to [`merge_phase`].
#[allow(clippy::too_many_arguments)]
pub fn merge_phase_controlled(
    graph: &Graph,
    bm: &mut Blockmodel,
    target_blocks: usize,
    cfg: &SbpConfig,
    phase_index: u64,
    stats: &mut RunStats,
    ctrl: &RunControl,
) -> MergeOutcome {
    let target_blocks = target_blocks.max(1);
    let mut merges_applied = 0;
    let mut truncated = false;
    let mut round: u64 = 0;
    let exec = hsbp_parallel::pool_for(cfg.threads);
    while bm.num_blocks() > target_blocks {
        if ctrl.interrupt_cause().is_some() {
            truncated = true;
            break;
        }
        let c = bm.num_blocks();
        let salt = mix_words(&[cfg.seed, 0x4d45_5247, phase_index, round]); // "MERG"
        let frozen: &Blockmodel = bm;
        // The frozen model serves C × merge_proposals_per_block candidate
        // draws this round: one alias-table build makes each draw O(1), and
        // pool-resident eval scratch keeps the ΔMDL computations
        // allocation-free. Candidate cost per block scales with its row/col
        // occupancy, so chunk boundaries follow that weight — high-degree
        // blocks no longer serialize a whole equal-count chunk behind them.
        let sampler = BlockNeighborSampler::build(frozen);
        let weights: Vec<u64> = (0..c as Block)
            .map(|r| (frozen.row(r).nnz() + frozen.col(r).nnz()) as u64 + 1)
            .collect();
        let plan = ChunkPlan::from_costs(&weights, exec.chunk_target());

        // Parallel candidate search: the best (ΔMDL, target) per block.
        let candidates: Vec<Option<(f64, Block, Block)>> =
            exec.map_indexed_resident(&plan, ProposalArena::default, |arena, idx| {
                let r = idx as Block;
                let mut rng = SplitMix64::for_item(salt, round, u64::from(r));
                let mut best: Option<(f64, Block, Block)> = None;
                for _ in 0..cfg.merge_proposals_per_block {
                    let s = propose_merge_target_frozen(frozen, &sampler, r, &mut rng);
                    if s == r {
                        continue;
                    }
                    let delta = delta_mdl_merge_with(frozen, r, s, &mut arena.eval);
                    if best.is_none_or(|(d, _, _)| delta < d) {
                        best = Some((delta, r, s));
                    }
                }
                best
            });

        // Simulated accounting for the candidate search (parallel over
        // blocks; per-block cost ∝ proposals × incident block-matrix size).
        let block_costs: Vec<f64> = (0..c as Block)
            .map(|r| {
                let nnz = bm.row(r).nnz() + bm.col(r).nnz();
                cfg.merge_proposals_per_block as f64 * cfg.cost_model.proposal_cost(nnz)
            })
            .collect();
        stats.sim_merge.add_parallel(&block_costs);

        let mut sorted: Vec<(f64, Block, Block)> = candidates.into_iter().flatten().collect();
        sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));

        // Greedy selection with union-find semantics until the target count
        // is reached.
        let mut parent: Vec<Block> = (0..c as Block).collect();
        fn find(parent: &mut [Block], mut x: Block) -> Block {
            while parent[x as usize] != x {
                parent[x as usize] = parent[parent[x as usize] as usize];
                x = parent[x as usize];
            }
            x
        }
        let mut selected: Vec<(Block, Block)> = Vec::new();
        let mut remaining = c;
        for (_, r, s) in sorted {
            if remaining <= target_blocks {
                break;
            }
            let (rr, rs) = (find(&mut parent, r), find(&mut parent, s));
            if rr != rs {
                parent[rr as usize] = rs;
                selected.push((r, s));
                remaining -= 1;
            }
        }
        if selected.is_empty() {
            break; // no mergeable candidates left (degenerate models)
        }
        merges_applied += selected.len();
        bm.apply_merges(graph, &selected);

        // Sort + apply + rebuild are the phase's serial tail.
        stats
            .sim_merge
            .add_serial(cfg.cost_model.rebuild_cost(graph.num_edges()));
        round += 1;
        if round > 64 {
            break; // safety valve; should be unreachable
        }
    }
    MergeOutcome {
        merges_applied,
        num_blocks: bm.num_blocks(),
        truncated,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use hsbp_blockmodel::mdl;
    use hsbp_graph::Graph;

    fn planted(n_per: u32, groups: u32) -> (Graph, Vec<u32>) {
        let n = n_per * groups;
        let mut edges = Vec::new();
        let mut state = 99u64;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as u32
        };
        for u in 0..n {
            let gu = u / n_per;
            for _ in 0..8 {
                let v = if rnd() % 100 < 90 {
                    gu * n_per + rnd() % n_per
                } else {
                    rnd() % n
                };
                if v != u {
                    edges.push((u, v));
                }
            }
        }
        (
            Graph::from_edges(n as usize, &edges),
            (0..n).map(|v| v / n_per).collect(),
        )
    }

    #[test]
    fn merge_halves_block_count() {
        let (g, _) = planted(10, 4);
        let mut bm = Blockmodel::singleton_partition(&g);
        let cfg = SbpConfig::default();
        let mut stats = RunStats::new(&cfg);
        let out = merge_phase(&g, &mut bm, 20, &cfg, 0, &mut stats);
        assert_eq!(out.num_blocks, 20);
        assert_eq!(bm.num_blocks(), 20);
        bm.check_consistency(&g).unwrap();
        assert!(out.merges_applied >= 20);
    }

    #[test]
    fn merge_to_one_block() {
        let (g, _) = planted(8, 2);
        let mut bm = Blockmodel::singleton_partition(&g);
        let cfg = SbpConfig::default();
        let mut stats = RunStats::new(&cfg);
        let out = merge_phase(&g, &mut bm, 1, &cfg, 0, &mut stats);
        assert_eq!(out.num_blocks, 1);
        assert!(bm.assignment().iter().all(|&b| b == 0));
    }

    #[test]
    fn merge_noop_when_already_at_target() {
        let (g, truth) = planted(8, 2);
        let mut bm = Blockmodel::from_assignment(&g, truth, 2);
        let cfg = SbpConfig::default();
        let mut stats = RunStats::new(&cfg);
        let out = merge_phase(&g, &mut bm, 4, &cfg, 0, &mut stats);
        assert_eq!(out.merges_applied, 0);
        assert_eq!(out.num_blocks, 2);
    }

    #[test]
    fn merges_prefer_low_delta_pairs() {
        // Merging fragments of the same planted community should beat
        // cross-community merges: after merging 4·n_per singletons down to 4
        // blocks, the result should align well with the planted partition.
        let (g, truth) = planted(12, 4);
        let mut bm = Blockmodel::singleton_partition(&g);
        let cfg = SbpConfig {
            seed: 5,
            ..Default::default()
        };
        let mut stats = RunStats::new(&cfg);
        merge_phase(&g, &mut bm, 4, &cfg, 0, &mut stats);
        // The merged partition must describe the graph far better than a
        // random 4-way split.
        let random: Vec<u32> = (0..g.num_vertices() as u32).map(|v| v % 4).collect();
        let merged_mdl = mdl::mdl(&bm, g.num_vertices(), g.total_weight()).total;
        let random_mdl = mdl::mdl(
            &Blockmodel::from_assignment(&g, random, 4),
            g.num_vertices(),
            g.total_weight(),
        )
        .total;
        assert!(
            merged_mdl < random_mdl,
            "agglomerated {merged_mdl} should beat random {random_mdl}"
        );
        let _ = truth;
    }

    #[test]
    fn merge_is_deterministic() {
        let (g, _) = planted(10, 3);
        let cfg = SbpConfig {
            seed: 11,
            ..Default::default()
        };
        let run = || {
            let mut bm = Blockmodel::singleton_partition(&g);
            let mut stats = RunStats::new(&cfg);
            merge_phase(&g, &mut bm, 6, &cfg, 0, &mut stats);
            bm.assignment().to_vec()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn cancelled_control_truncates_merge() {
        let (g, _) = planted(10, 3);
        let cfg = SbpConfig::default();
        let mut bm = Blockmodel::singleton_partition(&g);
        let mut stats = RunStats::new(&cfg);
        let token = crate::budget::CancelToken::new();
        token.cancel();
        let ctrl = RunControl::new(&crate::budget::RunBudget::unlimited(), &token);
        let out = merge_phase_controlled(&g, &mut bm, 5, &cfg, 0, &mut stats, &ctrl);
        assert!(out.truncated);
        assert_eq!(out.merges_applied, 0);
        assert_eq!(bm.num_blocks(), g.num_vertices());
    }

    #[test]
    fn merge_records_sim_time() {
        let (g, _) = planted(10, 3);
        let cfg = SbpConfig::default();
        let mut bm = Blockmodel::singleton_partition(&g);
        let mut stats = RunStats::new(&cfg);
        merge_phase(&g, &mut bm, 5, &cfg, 0, &mut stats);
        assert!(stats.sim_merge.total_for(1).unwrap() > 0.0);
        // Candidate search is parallel: more threads must not be slower.
        assert!(stats.sim_merge.total_for(128).unwrap() <= stats.sim_merge.total_for(1).unwrap());
    }
}
