//! Warm-started incremental refinement over an evolving graph — the core
//! entry point behind `hsbp-serve`.
//!
//! A resident service does not re-run the full agglomerative search after
//! every mutation batch; it keeps the previous partition warm and only
//! re-sweeps the **dirty region** — the vertices a mutation touched plus
//! their one-hop neighbourhood, the only places where the blockmodel's
//! sufficient statistics changed. The resweep is the serial
//! Metropolis-Hastings kernel restricted to that region (immediate
//! `apply_move` updates through the PR 4 arena machinery), run under a
//! [`RunBudget`] with cooperative cancellation so a newly arriving mutation
//! batch can interrupt it between proposal strides without leaving the
//! model in a state no full sweep could produce.
//!
//! The asynchronous-Gibbs tolerance argument of the paper is what licenses
//! this: MCMC over a slightly-stale partition still converges, so warm
//! starts from the pre-mutation assignment lose nothing but the proposals
//! they skip (cf. the delta-exchange discipline of Wanye et al.,
//! arXiv 2305.18663, and SamBaS's partial-refinement argument,
//! arXiv 2108.06651).

use crate::budget::{CancelToken, RunBudget, RunControl, StopCause};
use crate::config::SbpConfig;
use crate::error::HsbpError;
use crate::mcmc::mh_pass;
use crate::stats::{DriftEvent, RunStats};
use hsbp_blockmodel::{audit_blockmodel, mdl, repair_blockmodel, Block, Blockmodel, ProposalArena};
use hsbp_collections::sample::mix_words;
use hsbp_graph::{Graph, Vertex, Weight};

/// Result of one incremental refinement round.
#[derive(Debug, Clone)]
pub struct RefineOutcome {
    /// Refined community of every vertex (labels compacted to
    /// `0..num_blocks`).
    pub assignment: Vec<Block>,
    /// Number of occupied communities after compaction.
    pub num_blocks: usize,
    /// MDL of the refined partition on the (mutated) graph.
    pub mdl: mdl::Mdl,
    /// Dirty-region sweeps performed this round.
    pub sweeps: usize,
    /// Vertices in the expanded dirty region this round actually re-swept.
    pub dirty_vertices: usize,
    /// True when the threshold test fired (false = sweep cap or budget).
    pub converged: bool,
    /// True when the budget or the cancel token stopped the resweep early;
    /// the returned state is still a consistent partition.
    pub truncated: bool,
    /// Instrumentation (sweep counts, proposals, drift events).
    pub stats: RunStats,
}

/// Extend a stale assignment to a graph that may have grown: vertices past
/// `warm.len()` take the plurality block among their already-labelled
/// neighbours (edge-weight weighted), falling back to a fresh singleton
/// label when they have none. Returns the extended assignment and the new
/// label-space size (old labels are preserved, so `>= warm_num_blocks`
/// whenever the graph grew into the fallback).
pub fn extend_assignment(
    graph: &Graph,
    warm: &[Block],
    warm_num_blocks: usize,
) -> (Vec<Block>, usize) {
    let n = graph.num_vertices();
    let mut assignment: Vec<Block> = Vec::with_capacity(n);
    assignment.extend_from_slice(&warm[..warm.len().min(n)]);
    let mut num_blocks = warm_num_blocks.max(1);
    // New vertices are labelled in id order, so later arrivals can inherit
    // from earlier ones inside the same batch.
    let mut votes: Vec<(Block, Weight)> = Vec::new();
    for v in assignment.len()..n {
        votes.clear();
        let tally = |b: Block, w: Weight, votes: &mut Vec<(Block, Weight)>| match votes
            .iter_mut()
            .find(|(vb, _)| *vb == b)
        {
            Some((_, vw)) => *vw += w,
            None => votes.push((b, w)),
        };
        for (t, w) in graph.out_edges(v as Vertex) {
            if (t as usize) < v {
                tally(assignment[t as usize], w, &mut votes);
            }
        }
        for (s, w) in graph.in_edges(v as Vertex) {
            if (s as usize) < v {
                tally(assignment[s as usize], w, &mut votes);
            }
        }
        // Plurality with the lowest block id breaking ties (deterministic).
        let winner = votes
            .iter()
            .copied()
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
            .map(|(b, _)| b);
        match winner {
            Some(b) => assignment.push(b),
            None => {
                assignment.push(num_blocks as Block);
                num_blocks += 1;
            }
        }
    }
    (assignment, num_blocks)
}

/// Expand `dirty` to its one-hop neighbourhood: every vertex whose
/// delta-MDL terms a mutation at a dirty vertex can have changed. Returns a
/// sorted, deduplicated vertex list.
pub fn expand_dirty_region(graph: &Graph, dirty: &[Vertex]) -> Vec<Vertex> {
    let n = graph.num_vertices();
    let mut in_region = vec![false; n];
    for &v in dirty {
        if (v as usize) >= n {
            continue;
        }
        in_region[v as usize] = true;
        for &t in graph.out_neighbors(v) {
            in_region[t as usize] = true;
        }
        for &s in graph.in_neighbors(v) {
            in_region[s as usize] = true;
        }
    }
    (0..n as Vertex)
        .filter(|&v| in_region[v as usize])
        .collect()
}

/// Compact a label space in place: occupied blocks keep their relative
/// order and are renumbered `0..k`. Returns the occupied count.
fn compact_labels(assignment: &mut [Block], num_blocks: usize) -> usize {
    let mut occupied = vec![false; num_blocks];
    for &b in assignment.iter() {
        occupied[b as usize] = true;
    }
    let mut remap = vec![Block::MAX; num_blocks];
    let mut next: Block = 0;
    for (b, &occ) in occupied.iter().enumerate() {
        if occ {
            remap[b] = next;
            next += 1;
        }
    }
    for b in assignment.iter_mut() {
        *b = remap[*b as usize];
    }
    (next as usize).max(1)
}

/// Warm-started dirty-region refinement: extend `warm` over the (mutated)
/// `graph`, re-sweep the one-hop expansion of `dirty` with the serial MH
/// kernel until the regional MDL improvement stalls, and return the
/// compacted partition.
///
/// Deterministic in `(graph, warm, dirty, cfg)`. The budget and token stop
/// the resweep cooperatively between proposal strides: a truncated outcome
/// still carries a consistent partition (every prefix of a serial sweep
/// is), flagged via [`RefineOutcome::truncated`]. `cfg.audit_cadence`
/// drives the same rebuild-and-compare drift audit as batch runs, with
/// `cfg.strict_audit` turning detected drift into
/// [`HsbpError::StateDrift`]; a final audit always runs before the result
/// is returned so a published snapshot can never carry poisoned state.
///
/// An empty `dirty` region (after clamping to the graph) short-circuits:
/// the warm partition is evaluated and returned unchanged apart from label
/// compaction.
pub fn refine_partition(
    graph: &Graph,
    warm: &[Block],
    warm_num_blocks: usize,
    dirty: &[Vertex],
    cfg: &SbpConfig,
    budget: &RunBudget,
    token: &CancelToken,
) -> Result<RefineOutcome, HsbpError> {
    cfg.validate().map_err(HsbpError::InvalidConfig)?;
    budget.validate().map_err(HsbpError::InvalidConfig)?;
    if warm.len() > graph.num_vertices() {
        return Err(HsbpError::InvalidConfig(format!(
            "warm assignment covers {} vertices but the graph has {}",
            warm.len(),
            graph.num_vertices()
        )));
    }
    if let Some(&bad) = warm.iter().find(|&&b| (b as usize) >= warm_num_blocks) {
        return Err(HsbpError::InvalidConfig(format!(
            "warm label {bad} out of range for {warm_num_blocks} block(s)"
        )));
    }
    let ctrl = RunControl::new(budget, token);
    let mut stats = RunStats::new(cfg);
    let n = graph.num_vertices();
    if n == 0 {
        return Ok(RefineOutcome {
            assignment: Vec::new(),
            num_blocks: 0,
            mdl: mdl::Mdl {
                log_likelihood: 0.0,
                model_complexity: 0.0,
                total: 0.0,
            },
            sweeps: 0,
            dirty_vertices: 0,
            converged: true,
            truncated: false,
            stats,
        });
    }

    let (mut assignment, mut num_blocks) = extend_assignment(graph, warm, warm_num_blocks);
    // Every vertex the extension labelled is dirty by construction.
    let mut seed_dirty: Vec<Vertex> = dirty.to_vec();
    seed_dirty.extend(warm.len() as Vertex..n as Vertex);
    let region = expand_dirty_region(graph, &seed_dirty);

    let mut bm = Blockmodel::from_assignment(graph, assignment, num_blocks);
    let salt = mix_words(&[cfg.seed, 0x5246_494e, warm_num_blocks as u64]); // "RFIN"
    let mut previous = mdl::mdl(&bm, n, graph.total_weight());
    let mut recent_deltas: Vec<f64> = Vec::with_capacity(3);
    let mut arena = ProposalArena::default();
    let mut sweeps = 0;
    let mut converged = region.is_empty();
    let mut truncated = false;

    while !region.is_empty() && sweeps < cfg.max_sweeps {
        if let Some(cause) = ctrl.sweep_stop_cause(stats.mcmc_sweeps) {
            stats.stop_cause = cause;
            truncated = true;
            break;
        }
        // One serial MH sweep restricted to the region.
        let vertices = region.iter().copied();
        let sweep = sweeps as u64..sweeps as u64 + 1;
        let completed = mh_pass(
            graph,
            &mut bm,
            vertices,
            sweep,
            cfg.beta,
            salt,
            &ctrl,
            &mut arena,
            |_, moved| {
                stats.proposals += 1;
                stats.accepted += u64::from(moved.is_some());
            },
        );
        if !completed {
            stats.stop_cause = ctrl.interrupt_cause().unwrap_or(StopCause::Cancelled);
            truncated = true;
            break;
        }
        sweeps += 1;
        stats.mcmc_sweeps += 1;

        if cfg.inject_drift_at_sweep == Some(stats.mcmc_sweeps) {
            bm.inject_state_corruption(mix_words(&[cfg.seed, 0x4452_4946, sweeps as u64]));
        }
        if cfg.audit_cadence > 0 && stats.mcmc_sweeps.is_multiple_of(cfg.audit_cadence) {
            audit_round(&mut bm, graph, cfg, &mut stats)?;
        }

        let current = mdl::mdl(&bm, n, graph.total_weight());
        let delta = previous.total - current.total;
        previous = current;
        if recent_deltas.len() == 3 {
            recent_deltas.remove(0);
        }
        recent_deltas.push(delta.abs());
        if recent_deltas.len() == 3 {
            let mean: f64 = recent_deltas.iter().sum::<f64>() / 3.0;
            if mean < cfg.mcmc_threshold * previous.total.abs().max(1.0) {
                converged = true;
                break;
            }
        }
    }

    // Terminal audit: whatever is about to be published must match its own
    // membership vector exactly, even after a truncated resweep.
    stats.audits_run += 1;
    audit_round(&mut bm, graph, cfg, &mut stats)?;

    assignment = bm.assignment().to_vec();
    num_blocks = compact_labels(&mut assignment, bm.num_blocks());
    let final_bm = Blockmodel::from_assignment(graph, assignment.clone(), num_blocks);
    let final_mdl = mdl::mdl(&final_bm, n, graph.total_weight());
    Ok(RefineOutcome {
        assignment,
        num_blocks,
        mdl: final_mdl,
        sweeps,
        dirty_vertices: region.len(),
        converged,
        truncated,
        stats,
    })
}

/// One audit pass in refine context: repair-and-record, or fail in strict
/// mode.
fn audit_round(
    bm: &mut Blockmodel,
    graph: &Graph,
    cfg: &SbpConfig,
    stats: &mut RunStats,
) -> Result<(), HsbpError> {
    if let Some(report) = audit_blockmodel(bm, graph) {
        if cfg.strict_audit {
            return Err(HsbpError::StateDrift {
                sweep: stats.mcmc_sweeps,
                detail: report.summary(),
            });
        }
        repair_blockmodel(bm, graph);
        stats.drift_events.push(DriftEvent {
            total_sweep: stats.mcmc_sweeps,
            phase_index: 0,
            mismatches: report.mismatches,
            mdl_delta: report.mdl_delta,
            repaired: true,
        });
    }
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use hsbp_graph::GraphBuilder;

    fn planted(n_per: u32, groups: u32, seed: u64) -> (Graph, Vec<Block>) {
        let n = n_per * groups;
        let mut edges = Vec::new();
        let mut state = seed;
        let mut rnd = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for u in 0..n {
            let gu = u / n_per;
            for _ in 0..6 {
                let v = if rnd() % 100 < 85 {
                    gu * n_per + rnd() % n_per
                } else {
                    rnd() % n
                };
                if v != u {
                    edges.push((u, v));
                }
            }
        }
        let truth: Vec<Block> = (0..n).map(|v| v / n_per).collect();
        (Graph::from_edges(n as usize, &edges), truth)
    }

    #[test]
    fn extend_assignment_votes_with_neighbors() {
        // Vertex 4 joins with edges into block 1's members only.
        let g = Graph::from_edges(5, &[(0, 1), (2, 3), (4, 2), (3, 4)]);
        let warm = vec![0, 0, 1, 1];
        let (ext, k) = extend_assignment(&g, &warm, 2);
        assert_eq!(ext, vec![0, 0, 1, 1, 1]);
        assert_eq!(k, 2);
    }

    #[test]
    fn extend_assignment_isolated_vertex_gets_fresh_block() {
        let g = Graph::from_edges(4, &[(0, 1)]);
        let warm = vec![0, 0, 1];
        let (ext, k) = extend_assignment(&g, &warm, 2);
        assert_eq!(ext[3], 2);
        assert_eq!(k, 3);
    }

    #[test]
    fn dirty_region_expands_one_hop() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4)]);
        let region = expand_dirty_region(&g, &[1]);
        assert_eq!(region, vec![0, 1, 2]);
        // Out-of-range dirty ids are ignored, not a panic.
        assert!(expand_dirty_region(&g, &[99]).is_empty());
    }

    #[test]
    fn refine_improves_perturbed_partition() {
        let (g, truth) = planted(30, 3, 7);
        // Perturb a handful of labels, mark them dirty.
        let mut warm = truth.clone();
        let dirty: Vec<Vertex> = (0..10).map(|i| i * 7).collect();
        for &v in &dirty {
            warm[v as usize] = (warm[v as usize] + 1) % 3;
        }
        let before = mdl::mdl(
            &Blockmodel::from_assignment(&g, warm.clone(), 3),
            g.num_vertices(),
            g.total_weight(),
        )
        .total;
        let cfg = SbpConfig::new(crate::Variant::Metropolis, 3);
        let out = refine_partition(
            &g,
            &warm,
            3,
            &dirty,
            &cfg,
            &RunBudget::unlimited(),
            &CancelToken::new(),
        )
        .unwrap();
        assert!(out.mdl.total < before, "{} !< {before}", out.mdl.total);
        assert!(out.dirty_vertices > dirty.len());
        assert!(!out.truncated);
        Blockmodel::from_assignment(&g, out.assignment, out.num_blocks)
            .check_consistency(&g)
            .unwrap();
    }

    #[test]
    fn refine_is_deterministic() {
        let (g, truth) = planted(20, 3, 17);
        let mut warm = truth;
        warm[5] = 0;
        warm[41] = 1;
        let cfg = SbpConfig::new(crate::Variant::Metropolis, 9);
        let run = || {
            refine_partition(
                &g,
                &warm,
                3,
                &[5, 41],
                &cfg,
                &RunBudget::unlimited(),
                &CancelToken::new(),
            )
            .unwrap()
            .assignment
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn empty_dirty_region_is_identity_modulo_compaction() {
        let (g, truth) = planted(15, 2, 27);
        let cfg = SbpConfig::default();
        let out = refine_partition(
            &g,
            &truth,
            2,
            &[],
            &cfg,
            &RunBudget::unlimited(),
            &CancelToken::new(),
        )
        .unwrap();
        assert_eq!(out.assignment, truth);
        assert_eq!(out.sweeps, 0);
        assert!(out.converged);
    }

    #[test]
    fn growing_graph_labels_new_vertices() {
        let (g, truth) = planted(15, 2, 37);
        let n = g.num_vertices();
        // Grow by two vertices wired into group 0.
        let mut b = GraphBuilder::new(n + 2);
        for (u, v, w) in g.edges() {
            b.add_edge_weighted(u, v, w);
        }
        b.add_edge(n as Vertex, 0);
        b.add_edge(1, n as Vertex);
        b.add_edge((n + 1) as Vertex, n as Vertex);
        let g2 = b.build();
        let cfg = SbpConfig::default();
        let out = refine_partition(
            &g2,
            &truth,
            2,
            &[],
            &cfg,
            &RunBudget::unlimited(),
            &CancelToken::new(),
        )
        .unwrap();
        assert_eq!(out.assignment.len(), n + 2);
        assert!(out.num_blocks >= 2);
        Blockmodel::from_assignment(&g2, out.assignment, out.num_blocks)
            .check_consistency(&g2)
            .unwrap();
    }

    #[test]
    fn cancelled_refine_returns_consistent_truncated_state() {
        let (g, truth) = planted(25, 3, 47);
        let mut warm = truth;
        for label in warm.iter_mut().take(30) {
            *label = (*label + 1) % 3;
        }
        let dirty: Vec<Vertex> = (0..30).collect();
        let cfg = SbpConfig::default();
        let token = CancelToken::new();
        token.cancel();
        let out =
            refine_partition(&g, &warm, 3, &dirty, &cfg, &RunBudget::unlimited(), &token).unwrap();
        assert!(out.truncated);
        assert_eq!(out.stats.stop_cause, StopCause::Cancelled);
        Blockmodel::from_assignment(&g, out.assignment, out.num_blocks)
            .check_consistency(&g)
            .unwrap();
    }

    #[test]
    fn sweep_budget_truncates() {
        let (g, truth) = planted(25, 3, 57);
        let mut warm = truth;
        for label in warm.iter_mut().take(40) {
            *label = (*label + 1) % 3;
        }
        let dirty: Vec<Vertex> = (0..40).collect();
        let cfg = SbpConfig {
            mcmc_threshold: 0.0,
            ..SbpConfig::default()
        };
        let budget = RunBudget::unlimited().with_max_total_sweeps(1);
        let out =
            refine_partition(&g, &warm, 3, &dirty, &cfg, &budget, &CancelToken::new()).unwrap();
        assert_eq!(out.sweeps, 1);
        assert!(out.truncated);
        assert_eq!(out.stats.stop_cause, StopCause::SweepBudgetExhausted);
    }

    #[test]
    fn strict_audit_catches_injected_drift() {
        let (g, truth) = planted(20, 2, 67);
        let mut warm = truth;
        for label in warm.iter_mut().take(20) {
            *label = (*label + 1) % 2;
        }
        let dirty: Vec<Vertex> = (0..20).collect();
        let cfg = SbpConfig {
            inject_drift_at_sweep: Some(1),
            audit_cadence: 1,
            strict_audit: true,
            mcmc_threshold: 0.0,
            ..SbpConfig::default()
        };
        let err = refine_partition(
            &g,
            &warm,
            2,
            &dirty,
            &cfg,
            &RunBudget::unlimited(),
            &CancelToken::new(),
        )
        .unwrap_err();
        assert!(matches!(err, HsbpError::StateDrift { .. }));
        // Lenient mode repairs instead and records the event.
        let lenient = SbpConfig {
            strict_audit: false,
            ..cfg
        };
        let out = refine_partition(
            &g,
            &warm,
            2,
            &dirty,
            &lenient,
            &RunBudget::unlimited(),
            &CancelToken::new(),
        )
        .unwrap();
        assert!(!out.stats.drift_events.is_empty());
        Blockmodel::from_assignment(&g, out.assignment, out.num_blocks)
            .check_consistency(&g)
            .unwrap();
    }

    #[test]
    fn invalid_warm_inputs_rejected() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        let cfg = SbpConfig::default();
        let long = refine_partition(
            &g,
            &[0, 0, 0, 0],
            1,
            &[],
            &cfg,
            &RunBudget::unlimited(),
            &CancelToken::new(),
        );
        assert!(matches!(long, Err(HsbpError::InvalidConfig(_))));
        let bad_label = refine_partition(
            &g,
            &[0, 5, 0],
            2,
            &[],
            &cfg,
            &RunBudget::unlimited(),
            &CancelToken::new(),
        );
        assert!(matches!(bad_label, Err(HsbpError::InvalidConfig(_))));
    }
}
