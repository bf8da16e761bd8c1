//! Evaluation of the MDL change of a proposed vertex move or block merge,
//! plus the Hastings correction — all without mutating the model.
//!
//! A vertex move `v: r → s` only touches rows `r`, `s` and columns `r`, `s`
//! of `B` (and the four block degrees `d_out/d_in` of `r` and `s`), so the
//! likelihood delta is the difference of Eq.-1 terms over exactly those
//! entries. The same holds for a block merge. Correctness is enforced by
//! property tests comparing against a full recompute on a mutated clone.
//!
//! A move therefore costs O(degree + width of rows and columns `r`, `s`),
//! not O(degree): [`evaluate_move_with`] copies those rows and columns into
//! scratch and sums Eq.-1 terms over all of them, and rows widen as the
//! block count grows. ROADMAP.md item 1 measures this and plans the
//! O(degree) form that touches only the cells a move changes.
//!
//! All per-proposal state lives in reusable epoch-stamped
//! [`ScratchCounter`]s bundled into a [`ProposalArena`]; the steady-state
//! proposal loop performs zero heap allocations (enforced by the
//! `alloc_hotpath` integration test). Every counter iterates in ascending
//! key order, so the float summations below are pure functions of the
//! logical state — a prerequisite for bit-identical incremental sweep
//! consolidation.

use crate::fastmath::ll_term;
use crate::model::{Block, Blockmodel};
use hsbp_collections::{ScratchCounter, SplitMix64};
use hsbp_graph::{Graph, Vertex, Weight};

/// Census of a vertex's neighbourhood by block: how many edge endpoints `v`
/// has in each block, split by direction, with self-loops separated.
///
/// Gathered once per proposal and shared by the delta computation, the
/// Hastings correction and the in-place move application. Entries are sorted
/// by block id.
#[derive(Debug, Clone, Default)]
pub struct NeighborCounts {
    /// `(block, weight)` of out-edges `v -> u`, `u != v`.
    pub out_counts: Vec<(Block, Weight)>,
    /// `(block, weight)` of in-edges `u -> v`, `u != v`.
    pub in_counts: Vec<(Block, Weight)>,
    /// Total weight of self-loops `v -> v`.
    pub self_loops: Weight,
}

impl NeighborCounts {
    /// Gather for `v` using the model's own assignment.
    pub fn gather(graph: &Graph, bm: &Blockmodel, v: Vertex) -> Self {
        Self::gather_with(graph, bm.assignment(), v, &mut MoveScratch::default())
    }

    /// Gather for `v` against an explicit assignment, allocating the result.
    ///
    /// Compatibility wrapper around [`NeighborCounts::gather_into`]; hot
    /// loops should hold a [`ProposalArena`] and use `gather_into` instead.
    pub fn gather_with(
        graph: &Graph,
        assignment: &[Block],
        v: Vertex,
        scratch: &mut MoveScratch,
    ) -> Self {
        let mut counts = NeighborCounts::default();
        Self::gather_into(graph, assignment, v, scratch, &mut counts);
        counts
    }

    /// Gather for `v` against an explicit assignment (the per-sweep snapshot
    /// in A-SBP), reusing both the `scratch` counters and the `counts`
    /// buffers — allocation-free once warmed up.
    pub fn gather_into(
        graph: &Graph,
        assignment: &[Block],
        v: Vertex,
        scratch: &mut MoveScratch,
        counts: &mut NeighborCounts,
    ) {
        counts.out_counts.clear();
        counts.in_counts.clear();
        counts.self_loops = 0;
        scratch.out.begin();
        scratch.inn.begin();
        for (u, w) in graph.out_edges(v) {
            if u == v {
                counts.self_loops += w;
            } else {
                scratch.out.add(assignment[u as usize], w as i64);
            }
        }
        for (u, w) in graph.in_edges(v) {
            if u != v {
                scratch.inn.add(assignment[u as usize], w as i64);
            }
        }
        // Sorted output keeps downstream arithmetic deterministic.
        let out_counts = &mut counts.out_counts;
        scratch
            .out
            .for_each_sorted(|b, w| out_counts.push((b, w as Weight)));
        let in_counts = &mut counts.in_counts;
        scratch
            .inn
            .for_each_sorted(|b, w| in_counts.push((b, w as Weight)));
    }

    /// Total out-degree of the vertex (self-loops included).
    #[inline]
    pub fn k_out(&self) -> Weight {
        self.out_counts.iter().map(|&(_, w)| w).sum::<Weight>() + self.self_loops
    }

    /// Total in-degree of the vertex (self-loops included).
    #[inline]
    pub fn k_in(&self) -> Weight {
        self.in_counts.iter().map(|&(_, w)| w).sum::<Weight>() + self.self_loops
    }

    /// Total degree `k_out + k_in`.
    #[inline]
    pub fn degree(&self) -> Weight {
        self.k_out() + self.k_in()
    }
}

/// Reusable counters for [`NeighborCounts::gather_into`].
#[derive(Debug, Default)]
pub struct MoveScratch {
    out: ScratchCounter,
    inn: ScratchCounter,
}

/// Reusable counters for [`evaluate_move_with`] and
/// [`delta_mdl_merge_with`]: the signed working image of the affected
/// rows/columns of `B` plus the neighbour-block census.
#[derive(Debug, Default)]
pub struct EvalScratch {
    row_from: ScratchCounter,
    row_to: ScratchCounter,
    /// Column entries `B[a][from]` for `a ∉ {from, to}`.
    col_from: ScratchCounter,
    /// Column entries `B[a][to]` for `a ∉ {from, to}`.
    col_to: ScratchCounter,
    census: ScratchCounter,
}

/// Staged proposals for one chunk of a frozen-model sweep.
///
/// Batched sweeps draw *all* counter-RNG streams and alias-table proposals
/// for a chunk first (stage A), then gather/evaluate/accept (stage B). The
/// per-vertex RNG state is parked here between the stages, so each vertex
/// consumes its stream in exactly the per-vertex order — results stay
/// bit-identical to the unbatched loop while the proposal dispatch
/// (sampler lookups, branchy alias walks) amortizes across the batch.
#[derive(Debug, Default)]
pub struct ProposalBatch {
    /// Per-vertex RNG state after the proposal draw, resumed by the
    /// acceptance test.
    pub rngs: Vec<SplitMix64>,
    /// Current block of each vertex in the chunk.
    pub from: Vec<Block>,
    /// Proposed target block of each vertex in the chunk.
    pub to: Vec<Block>,
}

impl ProposalBatch {
    /// Drop staged proposals (buffers keep their capacity).
    pub fn clear(&mut self) {
        self.rngs.clear();
        self.from.clear();
        self.to.clear();
    }
}

/// Everything one worker needs to evaluate proposals without allocating:
/// gather counters, the reusable neighbour-count buffers and the move
/// evaluation image. One arena per worker, reused across sweeps.
#[derive(Debug, Default)]
pub struct ProposalArena {
    /// Gather counters for [`NeighborCounts::gather_into`].
    pub scratch: MoveScratch,
    /// Reusable result buffer for the gathered counts.
    pub counts: NeighborCounts,
    /// Move-evaluation image for [`evaluate_move_with`].
    pub eval: EvalScratch,
    /// Staged per-chunk proposals for batched frozen-model sweeps.
    pub batch: ProposalBatch,
}

/// Result of evaluating a proposed vertex move.
#[derive(Debug, Clone, Copy)]
pub struct MoveEval {
    /// `ΔMDL` (likelihood part; C is unchanged by a move). Negative is an
    /// improvement.
    pub delta_mdl: f64,
    /// Hastings factor `p_backward / p_forward` for the MH acceptance test.
    pub hastings: f64,
}

/// Degrees of the two affected blocks in the working image.
struct AffectedDegrees {
    d_out_from: i64,
    d_out_to: i64,
    d_in_from: i64,
    d_in_to: i64,
}

/// Load the affected rows/columns of `B` into the scratch image.
fn snapshot(scratch: &mut EvalScratch, bm: &Blockmodel, from: Block, to: Block) -> AffectedDegrees {
    scratch.row_from.begin();
    scratch.row_to.begin();
    scratch.col_from.begin();
    scratch.col_to.begin();
    for (t, w) in bm.row(from).iter() {
        scratch.row_from.add(t, w as i64);
    }
    for (t, w) in bm.row(to).iter() {
        scratch.row_to.add(t, w as i64);
    }
    for (a, w) in bm.col(from).iter() {
        if a != from && a != to {
            scratch.col_from.add(a, w as i64);
        }
    }
    for (a, w) in bm.col(to).iter() {
        if a != from && a != to {
            scratch.col_to.add(a, w as i64);
        }
    }
    AffectedDegrees {
        d_out_from: bm.d_out(from) as i64,
        d_out_to: bm.d_out(to) as i64,
        d_in_from: bm.d_in(from) as i64,
        d_in_to: bm.d_in(to) as i64,
    }
}

/// Sum of Eq.-1 terms over the affected entries with the image's current
/// values and degrees. Iterates each counter in key order, so the float sum
/// is deterministic.
fn likelihood_part(
    scratch: &mut EvalScratch,
    bm: &Blockmodel,
    from: Block,
    to: Block,
    deg: &AffectedDegrees,
) -> f64 {
    let d_in_of = |t: Block| -> f64 {
        if t == from {
            deg.d_in_from as f64
        } else if t == to {
            deg.d_in_to as f64
        } else {
            bm.d_in(t) as f64
        }
    };
    let mut total = 0.0;
    let d_out_from = deg.d_out_from as f64;
    scratch.row_from.for_each_sorted(|t, b| {
        total += ll_term(b as f64, d_out_from, d_in_of(t));
    });
    let d_out_to = deg.d_out_to as f64;
    scratch.row_to.for_each_sorted(|t, b| {
        total += ll_term(b as f64, d_out_to, d_in_of(t));
    });
    let d_in_from = deg.d_in_from as f64;
    scratch.col_from.for_each_sorted(|a, b| {
        total += ll_term(b as f64, bm.d_out(a) as f64, d_in_from);
    });
    let d_in_to = deg.d_in_to as f64;
    scratch.col_to.for_each_sorted(|a, b| {
        total += ll_term(b as f64, bm.d_out(a) as f64, d_in_to);
    });
    total
}

/// Mutate the image to reflect the move `v: from -> to`.
fn apply_image(
    scratch: &mut EvalScratch,
    counts: &NeighborCounts,
    from: Block,
    to: Block,
    deg: &mut AffectedDegrees,
) {
    // Out-edges v -> (block t): B[from][t] -= w, B[to][t] += w.
    for &(t, w) in &counts.out_counts {
        let w = w as i64;
        scratch.row_from.add(t, -w);
        scratch.row_to.add(t, w);
    }
    // In-edges (block a) -> v: B[a][from] -= w, B[a][to] += w. When
    // a ∈ {from, to} the entry lives in a tracked *row*, otherwise in a
    // tracked column.
    for &(a, w) in &counts.in_counts {
        let w = w as i64;
        if a == from {
            scratch.row_from.add(from, -w);
            scratch.row_from.add(to, w);
        } else if a == to {
            scratch.row_to.add(from, -w);
            scratch.row_to.add(to, w);
        } else {
            scratch.col_from.add(a, -w);
            scratch.col_to.add(a, w);
        }
    }
    // Self-loops travel along the diagonal.
    if counts.self_loops > 0 {
        let w = counts.self_loops as i64;
        scratch.row_from.add(from, -w);
        scratch.row_to.add(to, w);
    }
    let k_out = counts.k_out() as i64;
    let k_in = counts.k_in() as i64;
    deg.d_out_from -= k_out;
    deg.d_out_to += k_out;
    deg.d_in_from -= k_in;
    deg.d_in_to += k_in;
    debug_assert!(deg.d_out_from >= 0 && deg.d_in_from >= 0);
}

fn d_total_of(deg: &AffectedDegrees, bm: &Blockmodel, t: Block, from: Block, to: Block) -> i64 {
    if t == from {
        deg.d_out_from + deg.d_in_from
    } else if t == to {
        deg.d_out_to + deg.d_in_to
    } else {
        bm.d_total(t) as i64
    }
}

/// Apply `(v, to)` moves in order through [`Blockmodel::apply_move`], each
/// against the model's evolving assignment, skipping moves that would not
/// change a label. Every step re-gathers `v`'s neighbour census, so each
/// update is exact in integers: replaying a membership diff lands on the
/// same bytes as a rebuild from the target membership. This is the one
/// move replay behind incremental consolidation and replica sync.
pub fn replay_moves(
    graph: &Graph,
    bm: &mut Blockmodel,
    moves: impl IntoIterator<Item = (Vertex, Block)>,
    arena: &mut ProposalArena,
) {
    for (v, to) in moves {
        let from = bm.block_of(v);
        if from == to {
            continue;
        }
        NeighborCounts::gather_into(
            graph,
            bm.assignment(),
            v,
            &mut arena.scratch,
            &mut arena.counts,
        );
        bm.apply_move(v, from, to, &arena.counts);
    }
}

/// Evaluate a proposed move `v: from → to`, allocating fresh scratch.
///
/// Compatibility wrapper around [`evaluate_move_with`]; hot loops should
/// hold a [`ProposalArena`] and pass its `eval` field instead.
pub fn evaluate_move(bm: &Blockmodel, from: Block, to: Block, counts: &NeighborCounts) -> MoveEval {
    evaluate_move_with(bm, from, to, counts, &mut EvalScratch::default())
}

/// Evaluate a proposed move `v: from → to`: its MDL delta and Hastings
/// correction. `counts` must be gathered with `v` still in `from`.
/// Allocation-free once `scratch` has warmed up.
///
/// The Hastings factor follows the graph-challenge reference: with the
/// neighbour-block census `{(t, k_t)}` of `v` (self-loops counted toward
/// `from`), `C = num_blocks`,
///
/// ```text
/// p_fwd = Σ_t k_t/k_v · (B[t][to]   + B[to][t]   + 1) / (d_t + C)    (old B)
/// p_bwd = Σ_t k_t/k_v · (B'[t][from] + B'[from][t] + 1) / (d'_t + C)  (new B)
/// ```
pub fn evaluate_move_with(
    bm: &Blockmodel,
    from: Block,
    to: Block,
    counts: &NeighborCounts,
    scratch: &mut EvalScratch,
) -> MoveEval {
    if from == to {
        return MoveEval {
            delta_mdl: 0.0,
            hastings: 1.0,
        };
    }
    let mut deg = snapshot(scratch, bm, from, to);
    let old_part = likelihood_part(scratch, bm, from, to, &deg);

    // Combined neighbour-block census (both directions; self-loops toward
    // the *current* block of v, i.e. `from`).
    scratch.census.begin();
    for &(t, w) in counts.out_counts.iter().chain(counts.in_counts.iter()) {
        scratch.census.add(t, w as i64);
    }
    if counts.self_loops > 0 {
        scratch.census.add(from, 2 * counts.self_loops as i64);
    }
    let k_v: i64 = counts.degree() as i64;
    let c = bm.num_blocks() as f64;

    // Forward probability uses the pre-move matrix.
    let mut p_fwd = 0.0;
    if k_v > 0 {
        scratch.census.for_each_sorted(|t, k_t| {
            let mass = if t == to {
                2 * bm.edge_count(to, to)
            } else {
                bm.edge_count(t, to) + bm.edge_count(to, t)
            };
            p_fwd += k_t as f64 * (mass as f64 + 1.0) / (bm.d_total(t) as f64 + c);
        });
        p_fwd /= k_v as f64;
    }

    apply_image(scratch, counts, from, to, &mut deg);
    let new_part = likelihood_part(scratch, bm, from, to, &deg);

    // Backward probability uses the post-move matrix (labels of the census
    // unchanged, matching the reference implementation).
    let mut p_bwd = 0.0;
    if k_v > 0 {
        let EvalScratch {
            row_from,
            row_to,
            col_from,
            col_to,
            census,
        } = scratch;
        // Re-borrow the image immutably for lookups while the census drives
        // the iteration.
        let image = EvalScratchRef {
            row_from,
            row_to,
            col_from,
            col_to,
        };
        census.for_each_sorted(|t, k_t| {
            let mass = image.pair_mass(bm, t, from, from, to);
            let d_t = d_total_of(&deg, bm, t, from, to);
            p_bwd += k_t as f64 * (mass as f64 + 1.0) / (d_t as f64 + c);
        });
        p_bwd /= k_v as f64;
    }

    let hastings = if p_fwd > 0.0 && k_v > 0 {
        p_bwd / p_fwd
    } else {
        1.0
    };
    MoveEval {
        delta_mdl: old_part - new_part,
        hastings,
    }
}

/// Immutable view over the four image counters (the census counter needs a
/// disjoint mutable borrow while these are read).
struct EvalScratchRef<'a> {
    row_from: &'a ScratchCounter,
    row_to: &'a ScratchCounter,
    col_from: &'a ScratchCounter,
    col_to: &'a ScratchCounter,
}

impl EvalScratchRef<'_> {
    fn pair_mass(&self, bm: &Blockmodel, t: Block, target: Block, from: Block, to: Block) -> i64 {
        let get = |row: Block, col: Block| -> i64 {
            if row == from {
                self.row_from.get(col)
            } else if row == to {
                self.row_to.get(col)
            } else if col == from {
                self.col_from.get(row)
            } else if col == to {
                self.col_to.get(row)
            } else {
                bm.edge_count(row, col) as i64
            }
        };
        if t == target {
            // Diagonal cell counted once in each direction = twice.
            2 * get(t, t)
        } else {
            get(t, target) + get(target, t)
        }
    }
}

/// MDL delta (likelihood part) of moving `v: from → to`.
pub fn delta_mdl_move(bm: &Blockmodel, from: Block, to: Block, counts: &NeighborCounts) -> f64 {
    evaluate_move(bm, from, to, counts).delta_mdl
}

/// Likelihood-part MDL delta of merging `r` into `s`, allocating scratch.
///
/// Compatibility wrapper around [`delta_mdl_merge_with`].
pub fn delta_mdl_merge(bm: &Blockmodel, r: Block, s: Block) -> f64 {
    delta_mdl_merge_with(bm, r, s, &mut EvalScratch::default())
}

/// Likelihood-part MDL delta of merging block `r` into block `s`, computed
/// without touching the model and without allocating (given a warmed
/// `scratch`). The (identical for every candidate) model complexity change
/// from `C → C−1` is *not* included; add
/// [`crate::mdl::model_complexity_delta`] for the full ΔMDL.
pub fn delta_mdl_merge_with(bm: &Blockmodel, r: Block, s: Block, scratch: &mut EvalScratch) -> f64 {
    if r == s {
        return 0.0;
    }
    // Old likelihood part: rows r, s fully; columns r, s excluding entries
    // already counted in those rows.
    let mut old_part = 0.0;
    for (t, b) in bm.row(r).iter() {
        old_part += ll_term(b as f64, bm.d_out(r) as f64, bm.d_in(t) as f64);
    }
    for (t, b) in bm.row(s).iter() {
        old_part += ll_term(b as f64, bm.d_out(s) as f64, bm.d_in(t) as f64);
    }
    for (a, b) in bm.col(r).iter() {
        if a != r && a != s {
            old_part += ll_term(b as f64, bm.d_out(a) as f64, bm.d_in(r) as f64);
        }
    }
    for (a, b) in bm.col(s).iter() {
        if a != r && a != s {
            old_part += ll_term(b as f64, bm.d_out(a) as f64, bm.d_in(s) as f64);
        }
    }

    // Merged row: row r + row s with key r folded into s (reuses the
    // `row_from` counter as the merged-row buffer).
    let new_row = &mut scratch.row_from;
    new_row.begin();
    for (t, b) in bm.row(r).iter().chain(bm.row(s).iter()) {
        let key = if t == r { s } else { t };
        new_row.add(key, b as i64);
    }
    // Merged column, excluding rows r and s (their mass is in new_row).
    let new_col = &mut scratch.col_from;
    new_col.begin();
    for (a, b) in bm.col(r).iter().chain(bm.col(s).iter()) {
        if a != r && a != s {
            new_col.add(a, b as i64);
        }
    }
    let d_out_merged = (bm.d_out(r) + bm.d_out(s)) as f64;
    let d_in_merged = (bm.d_in(r) + bm.d_in(s)) as f64;
    let d_in_of = |t: Block| -> f64 {
        if t == s {
            d_in_merged
        } else {
            bm.d_in(t) as f64
        }
    };

    let mut new_part = 0.0;
    scratch.row_from.for_each_sorted(|t, b| {
        new_part += ll_term(b as f64, d_out_merged, d_in_of(t));
    });
    scratch.col_from.for_each_sorted(|a, b| {
        new_part += ll_term(b as f64, bm.d_out(a) as f64, d_in_merged);
    });
    old_part - new_part
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::mdl;
    use hsbp_graph::Graph;

    fn ring(n: u32) -> Graph {
        let edges: Vec<(u32, u32)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
        Graph::from_edges(n as usize, &edges)
    }

    fn brute_force_delta(graph: &Graph, bm: &Blockmodel, v: Vertex, to: Block) -> f64 {
        let mut assignment = bm.assignment().to_vec();
        assignment[v as usize] = to;
        let moved = Blockmodel::from_assignment(graph, assignment, bm.num_blocks());
        mdl::log_likelihood(bm) - mdl::log_likelihood(&moved)
    }

    #[test]
    fn gather_counts_directions() {
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (3, 0), (0, 0)]);
        let bm = Blockmodel::from_assignment(&g, vec![0, 1, 1, 2], 3);
        let counts = NeighborCounts::gather(&g, &bm, 0);
        assert_eq!(counts.out_counts, vec![(1, 2)]);
        assert_eq!(counts.in_counts, vec![(2, 1)]);
        assert_eq!(counts.self_loops, 1);
        assert_eq!(counts.k_out(), 3);
        assert_eq!(counts.k_in(), 2);
        assert_eq!(counts.degree(), 5);
    }

    #[test]
    fn gather_into_reuses_buffers_and_matches_gather() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (3, 0), (0, 0), (4, 0), (0, 4)]);
        let bm = Blockmodel::from_assignment(&g, vec![0, 1, 1, 2, 2], 3);
        let mut scratch = MoveScratch::default();
        let mut counts = NeighborCounts::default();
        for v in 0..5u32 {
            NeighborCounts::gather_into(&g, bm.assignment(), v, &mut scratch, &mut counts);
            let fresh = NeighborCounts::gather(&g, &bm, v);
            assert_eq!(counts.out_counts, fresh.out_counts, "v={v}");
            assert_eq!(counts.in_counts, fresh.in_counts, "v={v}");
            assert_eq!(counts.self_loops, fresh.self_loops, "v={v}");
        }
    }

    #[test]
    fn delta_matches_brute_force_on_ring() {
        let g = ring(8);
        let bm = Blockmodel::from_assignment(&g, vec![0, 0, 1, 1, 2, 2, 3, 3], 4);
        for v in 0..8u32 {
            let from = bm.block_of(v);
            let counts = NeighborCounts::gather(&g, &bm, v);
            for to in 0..4u32 {
                if to == from {
                    continue;
                }
                let fast = delta_mdl_move(&bm, from, to, &counts);
                let slow = brute_force_delta(&g, &bm, v, to);
                assert!(
                    (fast - slow).abs() < 1e-9,
                    "v={v} {from}->{to}: fast {fast} vs slow {slow}"
                );
            }
        }
    }

    #[test]
    fn evaluate_move_with_matches_wrapper() {
        let g = ring(8);
        let bm = Blockmodel::from_assignment(&g, vec![0, 0, 1, 1, 2, 2, 3, 3], 4);
        let mut arena = ProposalArena::default();
        for v in 0..8u32 {
            let from = bm.block_of(v);
            NeighborCounts::gather_into(
                &g,
                bm.assignment(),
                v,
                &mut arena.scratch,
                &mut arena.counts,
            );
            for to in 0..4u32 {
                let fresh = evaluate_move(&bm, from, to, &arena.counts);
                let reused = evaluate_move_with(&bm, from, to, &arena.counts, &mut arena.eval);
                assert_eq!(fresh.delta_mdl.to_bits(), reused.delta_mdl.to_bits());
                assert_eq!(fresh.hastings.to_bits(), reused.hastings.to_bits());
            }
        }
    }

    #[test]
    fn delta_with_self_loops() {
        let g = Graph::from_edges(4, &[(0, 0), (0, 1), (1, 0), (2, 3), (3, 2), (3, 3), (1, 2)]);
        let bm = Blockmodel::from_assignment(&g, vec![0, 0, 1, 1], 2);
        for v in 0..4u32 {
            let from = bm.block_of(v);
            let to = 1 - from;
            let counts = NeighborCounts::gather(&g, &bm, v);
            let fast = delta_mdl_move(&bm, from, to, &counts);
            let slow = brute_force_delta(&g, &bm, v, to);
            assert!(
                (fast - slow).abs() < 1e-9,
                "v={v}: fast {fast} vs slow {slow}"
            );
        }
    }

    #[test]
    fn delta_zero_for_null_move() {
        let g = ring(6);
        let bm = Blockmodel::from_assignment(&g, vec![0, 0, 0, 1, 1, 1], 2);
        let counts = NeighborCounts::gather(&g, &bm, 0);
        let eval = evaluate_move(&bm, 0, 0, &counts);
        assert_eq!(eval.delta_mdl, 0.0);
        assert_eq!(eval.hastings, 1.0);
    }

    #[test]
    fn isolated_vertex_moves_freely() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 0)]);
        let bm = Blockmodel::from_assignment(&g, vec![0, 0, 1, 1], 2);
        let counts = NeighborCounts::gather(&g, &bm, 3);
        let eval = evaluate_move(&bm, 1, 0, &counts);
        assert_eq!(eval.delta_mdl, 0.0);
        assert_eq!(eval.hastings, 1.0);
    }

    #[test]
    fn merge_delta_matches_brute_force() {
        let g = Graph::from_edges(
            6,
            &[
                (0, 1),
                (1, 2),
                (2, 0),
                (3, 4),
                (4, 5),
                (5, 3),
                (2, 3),
                (0, 0),
            ],
        );
        let bm = Blockmodel::from_assignment(&g, vec![0, 0, 1, 1, 2, 2], 3);
        let mut scratch = EvalScratch::default();
        for r in 0..3u32 {
            for s in 0..3u32 {
                if r == s {
                    continue;
                }
                let fast = delta_mdl_merge(&bm, r, s);
                let reused = delta_mdl_merge_with(&bm, r, s, &mut scratch);
                assert_eq!(fast.to_bits(), reused.to_bits());
                // Brute force: relabel r -> s, keep label space size (the
                // likelihood does not depend on empty blocks).
                let assignment: Vec<Block> = bm
                    .assignment()
                    .iter()
                    .map(|&b| if b == r { s } else { b })
                    .collect();
                let merged = Blockmodel::from_assignment(&g, assignment, 3);
                let slow = mdl::log_likelihood(&bm) - mdl::log_likelihood(&merged);
                assert!(
                    (fast - slow).abs() < 1e-9,
                    "merge {r}->{s}: fast {fast} vs slow {slow}"
                );
            }
        }
    }

    #[test]
    fn merge_is_symmetric_in_likelihood() {
        // Merging r into s or s into r yields the same merged model, so the
        // likelihood delta must match.
        let g = ring(9);
        let bm = Blockmodel::from_assignment(&g, vec![0, 0, 0, 1, 1, 1, 2, 2, 2], 3);
        for (r, s) in [(0u32, 1u32), (1, 2), (0, 2)] {
            let a = delta_mdl_merge(&bm, r, s);
            let b = delta_mdl_merge(&bm, s, r);
            assert!((a - b).abs() < 1e-9, "merge {r}/{s}: {a} vs {b}");
        }
    }

    #[test]
    fn hastings_is_reciprocal_for_reverse_move() {
        // For deterministic states: hastings(v: r->s) * hastings(v: s->r on
        // the moved model) == 1 (p_bwd/p_fwd inverts).
        let g = ring(8);
        let mut bm = Blockmodel::from_assignment(&g, vec![0, 0, 1, 1, 2, 2, 3, 3], 4);
        let v = 1u32;
        let counts = NeighborCounts::gather(&g, &bm, v);
        let fwd = evaluate_move(&bm, 0, 1, &counts);
        bm.apply_move(v, 0, 1, &counts);
        let counts_back = NeighborCounts::gather(&g, &bm, v);
        let bwd = evaluate_move(&bm, 1, 0, &counts_back);
        assert!(
            (fwd.hastings * bwd.hastings - 1.0).abs() < 1e-9,
            "fwd {} bwd {}",
            fwd.hastings,
            bwd.hastings
        );
        // And the deltas must cancel.
        assert!((fwd.delta_mdl + bwd.delta_mdl).abs() < 1e-9);
    }
}
