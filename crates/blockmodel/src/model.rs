//! The mutable DCSBM state: assignment, sparse `B`, per-block degrees.

use crate::delta::NeighborCounts;
use hsbp_collections::SparseRow;
use hsbp_graph::{Graph, Vertex, Weight};

/// Block (community) identifier.
pub type Block = u32;

/// Label-space size up to which [`Blockmodel::rebuild`] uses the dense
/// accumulator (`C² ≤ 512² = 256 Ki` counters, ~2 MiB — comfortably cached).
pub const DENSE_REBUILD_MAX_BLOCKS: usize = 512;

/// The degree-corrected stochastic blockmodel fitted to a graph.
///
/// `rows[r]` holds `B[r][·]` (edges *from* block `r`), `cols[s]` holds
/// `B[·][s]` (edges *into* block `s`); the two are kept in lock-step. Block
/// degrees are cached: `d_out[r] = Σ_s B[r][s]`, `d_in[s] = Σ_r B[r][s]`.
// `PartialEq` compares the *representation*; because `SparseRow` is
// canonical (sorted, zero-free) this coincides with logical equality, and
// the Verify consolidation mode uses it to cross-check the incremental path
// against a rebuild.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Blockmodel {
    num_blocks: usize,
    assignment: Vec<Block>,
    rows: Vec<SparseRow>,
    cols: Vec<SparseRow>,
    d_out: Vec<Weight>,
    d_in: Vec<Weight>,
    block_sizes: Vec<u32>,
}

impl Blockmodel {
    /// Build the blockmodel implied by `assignment` (labels `0..num_blocks`).
    ///
    /// # Panics
    /// Panics if `assignment.len() != graph.num_vertices()` or a label is
    /// `>= num_blocks`.
    pub fn from_assignment(graph: &Graph, assignment: Vec<Block>, num_blocks: usize) -> Self {
        assert_eq!(
            assignment.len(),
            graph.num_vertices(),
            "assignment length mismatch"
        );
        let mut model = Self::empty(num_blocks, assignment);
        model.fill_from_graph(graph);
        model
    }

    /// The fully-split starting point of SBP: every vertex its own block.
    pub fn singleton_partition(graph: &Graph) -> Self {
        let n = graph.num_vertices();
        let assignment: Vec<Block> = (0..n as Block).collect();
        Self::from_assignment(graph, assignment, n)
    }

    fn empty(num_blocks: usize, assignment: Vec<Block>) -> Self {
        Self {
            num_blocks,
            assignment,
            rows: vec![SparseRow::new(); num_blocks],
            cols: vec![SparseRow::new(); num_blocks],
            d_out: vec![0; num_blocks],
            d_in: vec![0; num_blocks],
            block_sizes: vec![0; num_blocks],
        }
    }

    fn fill_from_graph(&mut self, graph: &Graph) {
        for &b in &self.assignment {
            assert!(
                (b as usize) < self.num_blocks,
                "label {b} >= num_blocks {}",
                self.num_blocks
            );
            self.block_sizes[b as usize] += 1;
        }
        for (u, v, w) in graph.edges() {
            let r = self.assignment[u as usize];
            let s = self.assignment[v as usize];
            self.rows[r as usize].add(s, w);
            self.cols[s as usize].add(r, w);
            self.d_out[r as usize] += w;
            self.d_in[s as usize] += w;
        }
    }

    /// Rebuild `B` in place from a (possibly updated) assignment. This is
    /// the end-of-sweep reconstruction step of A-SBP/H-SBP (Algorithm 3,
    /// line "rebuild B from community_membership").
    ///
    /// Two strategies (the paper's conclusion calls out reconstruction-
    /// friendly data structures as an optimisation):
    /// * **dense** — when the label space is small, accumulate into a flat
    ///   `C×C` array (one cache-friendly pass over the edges, no hashing),
    /// * **sparse partials** — otherwise, scan vertex chunks in parallel
    ///   into sparse partial matrices and merge.
    pub fn rebuild(&mut self, graph: &Graph, assignment: Vec<Block>) {
        if self.num_blocks <= DENSE_REBUILD_MAX_BLOCKS {
            self.rebuild_dense(graph, assignment);
        } else {
            self.rebuild_sparse(graph, assignment);
        }
    }

    /// Dense-accumulator rebuild (small `C`): `O(E + C²)`.
    pub fn rebuild_dense(&mut self, graph: &Graph, assignment: Vec<Block>) {
        assert_eq!(assignment.len(), graph.num_vertices());
        let c = self.num_blocks;
        let mut dense = vec![0 as Weight; c * c];
        let mut d_out = vec![0 as Weight; c];
        let mut d_in = vec![0 as Weight; c];
        let mut sizes = vec![0u32; c];
        for &b in &assignment {
            let b = b as usize;
            assert!(b < c, "label {b} >= num_blocks {c}");
            sizes[b] += 1;
        }
        for (u, v, w) in graph.edges() {
            let r = assignment[u as usize] as usize;
            let s = assignment[v as usize] as usize;
            dense[r * c + s] += w;
            d_out[r] += w;
            d_in[s] += w;
        }
        let mut rows = vec![SparseRow::new(); c];
        let mut cols = vec![SparseRow::new(); c];
        for r in 0..c {
            for s in 0..c {
                let w = dense[r * c + s];
                if w > 0 {
                    rows[r].add(s as Block, w);
                    cols[s].add(r as Block, w);
                }
            }
        }
        self.assignment = assignment;
        self.rows = rows;
        self.cols = cols;
        self.d_out = d_out;
        self.d_in = d_in;
        self.block_sizes = sizes;
    }

    /// Parallel sparse-partials rebuild (any `C`).
    pub fn rebuild_sparse(&mut self, graph: &Graph, assignment: Vec<Block>) {
        assert_eq!(assignment.len(), graph.num_vertices());
        let num_blocks = self.num_blocks;
        let n = graph.num_vertices();
        // Fold vertex chunks into partial (rows, d_out, d_in, sizes); column
        // view is derived afterwards from the merged rows (cheaper than
        // merging two map sets). Chunk boundaries follow the degree
        // prefix-sum so each partial scans a similar number of edges; chunk
        // count stays small because each partial costs O(num_blocks) to
        // allocate and merge.
        let pool = hsbp_parallel::global();
        let target = (n / 1024).clamp(1, pool.num_threads() * 4);
        let plan = hsbp_parallel::ChunkPlan::from_prefix(n, target, |i| {
            (graph.incident_prefix(i) + i) as u64
        });
        struct Partial {
            rows: Vec<SparseRow>,
            d_out: Vec<Weight>,
            d_in: Vec<Weight>,
            sizes: Vec<u32>,
        }
        let assignment_ref = &assignment;
        let ranges: Vec<std::ops::Range<usize>> =
            (0..plan.num_chunks()).map(|c| plan.chunk(c)).collect();
        let mut partials: Vec<Partial> = pool.map_vec(
            ranges,
            || (),
            |(), range| {
                let mut p = Partial {
                    rows: vec![SparseRow::new(); num_blocks],
                    d_out: vec![0; num_blocks],
                    d_in: vec![0; num_blocks],
                    sizes: vec![0; num_blocks],
                };
                for v in range {
                    let r = assignment_ref[v] as usize;
                    assert!(r < num_blocks, "label {r} >= num_blocks {num_blocks}");
                    p.sizes[r] += 1;
                    for (t, w) in graph.out_edges(v as Vertex) {
                        let s = assignment_ref[t as usize];
                        p.rows[r].add(s, w);
                        p.d_out[r] += w;
                        p.d_in[s as usize] += w;
                    }
                }
                p
            },
        );

        let mut merged = partials.pop().unwrap_or_else(|| Partial {
            rows: vec![SparseRow::new(); num_blocks],
            d_out: vec![0; num_blocks],
            d_in: vec![0; num_blocks],
            sizes: vec![0; num_blocks],
        });
        for p in partials {
            for (r, row) in p.rows.iter().enumerate() {
                merged.rows[r].absorb(row);
            }
            for r in 0..num_blocks {
                merged.d_out[r] += p.d_out[r];
                merged.d_in[r] += p.d_in[r];
                merged.sizes[r] += p.sizes[r];
            }
        }
        // Derive the column view.
        let mut cols = vec![SparseRow::new(); num_blocks];
        for (r, row) in merged.rows.iter().enumerate() {
            for (s, w) in row.iter() {
                cols[s as usize].add(r as Block, w);
            }
        }
        self.assignment = assignment;
        self.rows = merged.rows;
        self.cols = cols;
        self.d_out = merged.d_out;
        self.d_in = merged.d_in;
        self.block_sizes = merged.sizes;
    }

    /// Number of block labels (including blocks that may have emptied).
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.num_blocks
    }

    /// Number of blocks that currently contain at least one vertex.
    pub fn num_nonempty_blocks(&self) -> usize {
        self.block_sizes.iter().filter(|&&s| s > 0).count()
    }

    /// Current block of vertex `v`.
    #[inline]
    pub fn block_of(&self, v: Vertex) -> Block {
        self.assignment[v as usize]
    }

    /// Full assignment vector.
    #[inline]
    pub fn assignment(&self) -> &[Block] {
        &self.assignment
    }

    /// Clone of the assignment vector (the per-sweep snapshot of A-SBP).
    pub fn assignment_snapshot(&self) -> Vec<Block> {
        self.assignment.clone()
    }

    /// Edge count from block `r` to block `s`.
    #[inline]
    pub fn edge_count(&self, r: Block, s: Block) -> Weight {
        self.rows[r as usize].get(s)
    }

    /// Row `r` of `B` (out-edges of block `r`).
    #[inline]
    pub fn row(&self, r: Block) -> &SparseRow {
        &self.rows[r as usize]
    }

    /// Column `s` of `B` (in-edges of block `s`).
    #[inline]
    pub fn col(&self, s: Block) -> &SparseRow {
        &self.cols[s as usize]
    }

    /// Out-degree of block `r`.
    #[inline]
    pub fn d_out(&self, r: Block) -> Weight {
        self.d_out[r as usize]
    }

    /// In-degree of block `s`.
    #[inline]
    pub fn d_in(&self, s: Block) -> Weight {
        self.d_in[s as usize]
    }

    /// Total degree (in + out) of block `r`.
    #[inline]
    pub fn d_total(&self, r: Block) -> Weight {
        self.d_out[r as usize] + self.d_in[r as usize]
    }

    /// Number of vertices currently assigned to block `r`.
    #[inline]
    pub fn block_size(&self, r: Block) -> u32 {
        self.block_sizes[r as usize]
    }

    /// Apply a vertex move `v: from -> to` in place, updating `B`, the
    /// degree caches, the size counts and the assignment. `counts` must be
    /// the neighbour-block census of `v` gathered *before* the move (i.e.
    /// with `v` still in `from`).
    pub fn apply_move(&mut self, v: Vertex, from: Block, to: Block, counts: &NeighborCounts) {
        debug_assert_eq!(self.assignment[v as usize], from);
        if from == to {
            return;
        }
        let (fr, t) = (from as usize, to as usize);
        // Out-edges of v (excluding self-loops): B[from][b] -> B[to][b].
        for &(b, w) in &counts.out_counts {
            self.rows[fr].sub(b, w);
            self.rows[t].add(b, w);
            self.cols[b as usize].sub(from, w);
            self.cols[b as usize].add(to, w);
        }
        // In-edges of v (excluding self-loops): B[b][from] -> B[b][to].
        for &(b, w) in &counts.in_counts {
            self.rows[b as usize].sub(from, w);
            self.rows[b as usize].add(to, w);
            self.cols[fr].sub(b, w);
            self.cols[t].add(b, w);
        }
        // Self-loops move diagonally: B[from][from] -> B[to][to].
        if counts.self_loops > 0 {
            let w = counts.self_loops;
            self.rows[fr].sub(from, w);
            self.cols[fr].sub(from, w);
            self.rows[t].add(to, w);
            self.cols[t].add(to, w);
        }
        let k_out = counts.k_out();
        let k_in = counts.k_in();
        self.d_out[fr] -= k_out;
        self.d_out[t] += k_out;
        self.d_in[fr] -= k_in;
        self.d_in[t] += k_in;
        self.block_sizes[fr] -= 1;
        self.block_sizes[t] += 1;
        self.assignment[v as usize] = to;
    }

    /// Apply a batch of block merges `(from, to)` and compact the label
    /// space. Later merges may name blocks that were already absorbed; the
    /// chain is followed union-find style. Returns the new number of blocks.
    ///
    /// The model is rebuilt from the relabelled assignment (exact, and the
    /// merge phase is followed by MCMC anyway, matching Algorithm 1's
    /// "merge c into c'" bookkeeping).
    pub fn apply_merges(&mut self, graph: &Graph, merges: &[(Block, Block)]) -> usize {
        let c = self.num_blocks;
        // Union-find with path compression over block labels.
        let mut parent: Vec<Block> = (0..c as Block).collect();
        fn find(parent: &mut [Block], x: Block) -> Block {
            let mut root = x;
            while parent[root as usize] != root {
                root = parent[root as usize];
            }
            let mut cur = x;
            while parent[cur as usize] != root {
                let next = parent[cur as usize];
                parent[cur as usize] = root;
                cur = next;
            }
            root
        }
        for &(from, to) in merges {
            let rf = find(&mut parent, from);
            let rt = find(&mut parent, to);
            if rf != rt {
                parent[rf as usize] = rt;
            }
        }
        // Compact: map roots to 0..new_count.
        let mut new_label = vec![Block::MAX; c];
        let mut next: Block = 0;
        for b in 0..c as Block {
            let root = find(&mut parent, b);
            if new_label[root as usize] == Block::MAX {
                new_label[root as usize] = next;
                next += 1;
            }
        }
        let new_count = next as usize;
        let assignment: Vec<Block> = self
            .assignment
            .iter()
            .map(|&b| new_label[find(&mut parent, b) as usize])
            .collect();
        self.num_blocks = new_count;
        self.rows = vec![SparseRow::new(); new_count];
        self.cols = vec![SparseRow::new(); new_count];
        self.d_out = vec![0; new_count];
        self.d_in = vec![0; new_count];
        self.block_sizes = vec![0; new_count];
        self.assignment = assignment;
        self.fill_from_graph(graph);
        new_count
    }

    /// Exhaustive consistency check against the graph (test/debug use):
    /// verifies rows, cols, degrees and sizes all agree with a fresh build.
    /// Delegates to [`crate::audit::audit_blockmodel`], the same comparison
    /// the runtime drift auditor runs at its configured cadence.
    pub fn check_consistency(&self, graph: &Graph) -> Result<(), String> {
        match crate::audit::audit_blockmodel(self, graph) {
            None => Ok(()),
            Some(report) => Err(report.summary()),
        }
    }

    /// Test hook: deterministically corrupt the incremental state while
    /// leaving the membership vector intact, emulating a lost or
    /// double-counted delta update. A phantom self-edge of pseudo-random
    /// weight is added to one occupied block's `B[b][b]`, degree caches
    /// included, so the model stays internally coherent (row totals still
    /// match degree caches) but no longer matches what the membership
    /// implies — exactly the class of drift only a rebuild-and-compare
    /// audit can catch. The perturbation is additive, so MDL terms stay
    /// finite. Returns false (no-op) when the model has no occupied block.
    pub fn inject_state_corruption(&mut self, seed: u64) -> bool {
        let occupied: Vec<usize> = (0..self.num_blocks)
            .filter(|&r| self.block_sizes[r] > 0)
            .collect();
        let Some(&target) = occupied.get((splitmix64(seed) as usize) % occupied.len().max(1))
        else {
            return false;
        };
        let bump = 1 + (splitmix64(seed ^ 0x5eed_c0de) % 7) as Weight;
        let b = target as Block;
        self.rows[target].add(b, bump);
        self.cols[target].add(b, bump);
        self.d_out[target] += bump;
        self.d_in[target] += bump;
        true
    }
}

/// splitmix64 finalizer for the deterministic corruption hook.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::delta::NeighborCounts;

    /// Two dense communities {0,1,2} and {3,4,5} plus one bridge.
    fn two_cliques() -> Graph {
        let mut edges = Vec::new();
        for group in [[0u32, 1, 2], [3, 4, 5]] {
            for &a in &group {
                for &b in &group {
                    if a != b {
                        edges.push((a, b));
                    }
                }
            }
        }
        edges.push((2, 3));
        Graph::from_edges(6, &edges)
    }

    #[test]
    fn from_assignment_counts_edges() {
        let g = two_cliques();
        let bm = Blockmodel::from_assignment(&g, vec![0, 0, 0, 1, 1, 1], 2);
        assert_eq!(bm.edge_count(0, 0), 6);
        assert_eq!(bm.edge_count(1, 1), 6);
        assert_eq!(bm.edge_count(0, 1), 1);
        assert_eq!(bm.edge_count(1, 0), 0);
        assert_eq!(bm.d_out(0), 7);
        assert_eq!(bm.d_in(0), 6);
        assert_eq!(bm.d_total(1), 13);
        assert_eq!(bm.block_size(0), 3);
        bm.check_consistency(&g).unwrap();
    }

    #[test]
    fn singleton_partition_shape() {
        let g = two_cliques();
        let bm = Blockmodel::singleton_partition(&g);
        assert_eq!(bm.num_blocks(), 6);
        assert_eq!(bm.num_nonempty_blocks(), 6);
        assert_eq!(bm.edge_count(0, 1), 1);
        assert_eq!(bm.edge_count(2, 3), 1);
        bm.check_consistency(&g).unwrap();
    }

    #[test]
    fn apply_move_matches_rebuild() {
        let g = two_cliques();
        let mut bm = Blockmodel::from_assignment(&g, vec![0, 0, 0, 1, 1, 1], 2);
        let counts = NeighborCounts::gather(&g, &bm, 2);
        bm.apply_move(2, 0, 1, &counts);
        assert_eq!(bm.block_of(2), 1);
        bm.check_consistency(&g).unwrap();
        let fresh = Blockmodel::from_assignment(&g, vec![0, 0, 1, 1, 1, 1], 2);
        assert_eq!(bm.edge_count(0, 0), fresh.edge_count(0, 0));
        assert_eq!(bm.edge_count(0, 1), fresh.edge_count(0, 1));
        assert_eq!(bm.edge_count(1, 0), fresh.edge_count(1, 0));
        assert_eq!(bm.edge_count(1, 1), fresh.edge_count(1, 1));
    }

    #[test]
    fn apply_move_with_self_loop() {
        let g = Graph::from_edges(3, &[(0, 0), (0, 1), (1, 2), (2, 0)]);
        let mut bm = Blockmodel::from_assignment(&g, vec![0, 0, 1], 2);
        let counts = NeighborCounts::gather(&g, &bm, 0);
        assert_eq!(counts.self_loops, 1);
        bm.apply_move(0, 0, 1, &counts);
        bm.check_consistency(&g).unwrap();
        assert_eq!(bm.edge_count(1, 1), 2); // self-loop of 0 + edge 2->0
    }

    #[test]
    fn move_to_same_block_is_noop() {
        let g = two_cliques();
        let mut bm = Blockmodel::from_assignment(&g, vec![0, 0, 0, 1, 1, 1], 2);
        let before = bm.clone();
        let counts = NeighborCounts::gather(&g, &bm, 1);
        bm.apply_move(1, 0, 0, &counts);
        assert_eq!(bm.assignment(), before.assignment());
        assert_eq!(bm.edge_count(0, 0), before.edge_count(0, 0));
    }

    #[test]
    fn rebuild_equals_from_assignment() {
        let g = two_cliques();
        let mut bm = Blockmodel::from_assignment(&g, vec![0, 0, 0, 1, 1, 1], 2);
        let new_assignment = vec![0, 1, 0, 1, 0, 1];
        bm.rebuild(&g, new_assignment.clone());
        bm.check_consistency(&g).unwrap();
        let fresh = Blockmodel::from_assignment(&g, new_assignment, 2);
        for r in 0..2u32 {
            for s in 0..2u32 {
                assert_eq!(bm.edge_count(r, s), fresh.edge_count(r, s));
            }
        }
    }

    #[test]
    fn dense_and_sparse_rebuilds_agree() {
        let g = two_cliques();
        let assignment = vec![0, 1, 2, 0, 1, 2];
        let mut dense = Blockmodel::from_assignment(&g, vec![0; 6], 3);
        dense.rebuild_dense(&g, assignment.clone());
        let mut sparse = Blockmodel::from_assignment(&g, vec![0; 6], 3);
        sparse.rebuild_sparse(&g, assignment);
        for r in 0..3u32 {
            assert_eq!(dense.row(r).to_sorted_vec(), sparse.row(r).to_sorted_vec());
            assert_eq!(dense.col(r).to_sorted_vec(), sparse.col(r).to_sorted_vec());
            assert_eq!(dense.d_out(r), sparse.d_out(r));
            assert_eq!(dense.d_in(r), sparse.d_in(r));
            assert_eq!(dense.block_size(r), sparse.block_size(r));
        }
        dense.check_consistency(&g).unwrap();
        sparse.check_consistency(&g).unwrap();
    }

    #[test]
    fn merges_compact_labels() {
        let g = two_cliques();
        let mut bm = Blockmodel::singleton_partition(&g);
        // Merge each clique into one block.
        let n = bm.apply_merges(&g, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
        assert_eq!(n, 2);
        assert_eq!(bm.num_blocks(), 2);
        bm.check_consistency(&g).unwrap();
        // All of {0,1,2} share a label; all of {3,4,5} share the other.
        let a = bm.assignment();
        assert_eq!(a[0], a[1]);
        assert_eq!(a[1], a[2]);
        assert_eq!(a[3], a[4]);
        assert_eq!(a[4], a[5]);
        assert_ne!(a[0], a[3]);
    }

    #[test]
    fn chained_merges_follow_union_find() {
        let g = two_cliques();
        let mut bm = Blockmodel::singleton_partition(&g);
        // 0 -> 1, then 1 -> 2: all three end up together even though the
        // second merge names a block that already absorbed 0.
        let n = bm.apply_merges(&g, &[(0, 1), (1, 2)]);
        assert_eq!(n, 4);
        let a = bm.assignment();
        assert_eq!(a[0], a[1]);
        assert_eq!(a[1], a[2]);
    }

    #[test]
    fn merge_into_merged_target() {
        let g = two_cliques();
        let mut bm = Blockmodel::singleton_partition(&g);
        // 1 -> 0, then 2 -> 1 (1 is already gone; must land with 0).
        let n = bm.apply_merges(&g, &[(1, 0), (2, 1)]);
        assert_eq!(n, 4);
        let a = bm.assignment();
        assert_eq!(a[0], a[1]);
        assert_eq!(a[1], a[2]);
        bm.check_consistency(&g).unwrap();
    }

    #[test]
    fn empty_blocks_tracked() {
        let g = two_cliques();
        let mut bm = Blockmodel::from_assignment(&g, vec![0, 0, 0, 1, 1, 1], 3);
        assert_eq!(bm.num_blocks(), 3);
        assert_eq!(bm.num_nonempty_blocks(), 2);
        // Move everything out of block 1.
        for v in [3u32, 4, 5] {
            let counts = NeighborCounts::gather(&g, &bm, v);
            bm.apply_move(v, 1, 2, &counts);
        }
        assert_eq!(bm.num_nonempty_blocks(), 2);
        assert_eq!(bm.block_size(1), 0);
        assert_eq!(bm.d_total(1), 0);
        bm.check_consistency(&g).unwrap();
    }
}
