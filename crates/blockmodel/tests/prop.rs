//! Property tests for the blockmodel: the O(degree) incremental deltas and
//! in-place updates must agree exactly (to floating tolerance) with full
//! recomputation on arbitrary random graphs and partitions. The deltas take
//! their `ln`s from the table; the recomputation is the libm reference
//! `mdl::log_likelihood`.

use hsbp_blockmodel::{delta_mdl_merge, evaluate_move, mdl, Blockmodel, NeighborCounts};
use hsbp_graph::Graph;
use proptest::prelude::*;

/// Random directed graph (self-loops and duplicate edges allowed) plus a
/// random assignment into `c` blocks where every block is non-empty-ish.
fn arb_instance() -> impl Strategy<Value = (Graph, Vec<u32>, usize)> {
    (3usize..20, 2usize..6).prop_flat_map(|(n, c)| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32), 1..80);
        let assignment = proptest::collection::vec(0..c as u32, n);
        (edges, assignment, Just(n), Just(c)).prop_map(move |(edges, assignment, n, c)| {
            (Graph::from_edges(n, &edges), assignment, c)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fast (table-served) vertex-move delta == brute-force libm recompute.
    #[test]
    fn move_delta_matches_recompute((g, assignment, c) in arb_instance(), vsel in any::<u32>(), tsel in any::<u32>()) {
        let bm = Blockmodel::from_assignment(&g, assignment.clone(), c);
        let v = vsel % g.num_vertices() as u32;
        let to = tsel % c as u32;
        let from = bm.block_of(v);
        prop_assume!(from != to);
        let counts = NeighborCounts::gather(&g, &bm, v);
        let fast = evaluate_move(&bm, from, to, &counts).delta_mdl;
        let mut moved = assignment;
        moved[v as usize] = to;
        let after = Blockmodel::from_assignment(&g, moved, c);
        let slow = mdl::log_likelihood(&bm) - mdl::log_likelihood(&after);
        prop_assert!((fast - slow).abs() < 1e-8, "fast {} slow {}", fast, slow);
    }

    /// Fast (table-served) merge delta == brute-force libm recompute.
    #[test]
    fn merge_delta_matches_recompute((g, assignment, c) in arb_instance(), rsel in any::<u32>(), ssel in any::<u32>()) {
        let bm = Blockmodel::from_assignment(&g, assignment.clone(), c);
        let r = rsel % c as u32;
        let s = ssel % c as u32;
        prop_assume!(r != s);
        let fast = delta_mdl_merge(&bm, r, s);
        let merged_assignment: Vec<u32> = assignment.iter().map(|&b| if b == r { s } else { b }).collect();
        let after = Blockmodel::from_assignment(&g, merged_assignment, c);
        let slow = mdl::log_likelihood(&bm) - mdl::log_likelihood(&after);
        prop_assert!((fast - slow).abs() < 1e-8, "fast {} slow {}", fast, slow);
    }

    /// apply_move keeps the model exactly consistent with a fresh build, and
    /// the realised MDL change equals the predicted delta.
    #[test]
    fn apply_move_consistent((g, assignment, c) in arb_instance(), vsel in any::<u32>(), tsel in any::<u32>()) {
        let mut bm = Blockmodel::from_assignment(&g, assignment, c);
        let v = vsel % g.num_vertices() as u32;
        let to = tsel % c as u32;
        let from = bm.block_of(v);
        prop_assume!(from != to);
        let counts = NeighborCounts::gather(&g, &bm, v);
        let predicted = evaluate_move(&bm, from, to, &counts).delta_mdl;
        let before = mdl::log_likelihood(&bm);
        bm.apply_move(v, from, to, &counts);
        prop_assert!(bm.check_consistency(&g).is_ok());
        let after = mdl::log_likelihood(&bm);
        prop_assert!(((before - after) - predicted).abs() < 1e-8);
    }

    /// A chain of random moves never corrupts the model.
    #[test]
    fn random_walk_stays_consistent((g, assignment, c) in arb_instance(), moves in proptest::collection::vec((any::<u32>(), any::<u32>()), 1..30)) {
        let mut bm = Blockmodel::from_assignment(&g, assignment, c);
        for (vsel, tsel) in moves {
            let v = vsel % g.num_vertices() as u32;
            let to = tsel % c as u32;
            let from = bm.block_of(v);
            if from == to {
                continue;
            }
            let counts = NeighborCounts::gather(&g, &bm, v);
            bm.apply_move(v, from, to, &counts);
        }
        prop_assert!(bm.check_consistency(&g).is_ok());
    }

    /// rebuild() from any assignment equals from_assignment.
    #[test]
    fn rebuild_matches_fresh_build((g, assignment, c) in arb_instance(), other in proptest::collection::vec(any::<u32>(), 0..20)) {
        let mut bm = Blockmodel::from_assignment(&g, assignment, c);
        // Derive a second assignment of the right length from `other`.
        let n = g.num_vertices();
        let new_assignment: Vec<u32> = (0..n).map(|i| other.get(i % other.len().max(1)).copied().unwrap_or(0) % c as u32).collect();
        bm.rebuild(&g, new_assignment.clone());
        prop_assert!(bm.check_consistency(&g).is_ok());
        let fresh = Blockmodel::from_assignment(&g, new_assignment, c);
        prop_assert!((mdl::log_likelihood(&bm) - mdl::log_likelihood(&fresh)).abs() < 1e-10);
    }

    /// The dense and sparse rebuild strategies are interchangeable.
    #[test]
    fn dense_sparse_rebuild_equivalent((g, assignment, c) in arb_instance()) {
        let mut dense = Blockmodel::from_assignment(&g, vec![0; g.num_vertices()], c);
        dense.rebuild_dense(&g, assignment.clone());
        let mut sparse = Blockmodel::from_assignment(&g, vec![0; g.num_vertices()], c);
        sparse.rebuild_sparse(&g, assignment);
        for r in 0..c as u32 {
            prop_assert_eq!(dense.row(r).to_sorted_vec(), sparse.row(r).to_sorted_vec());
            prop_assert_eq!(dense.col(r).to_sorted_vec(), sparse.col(r).to_sorted_vec());
            prop_assert_eq!(dense.d_out(r), sparse.d_out(r));
            prop_assert_eq!(dense.d_in(r), sparse.d_in(r));
        }
        prop_assert!(dense.check_consistency(&g).is_ok());
    }

    /// apply_merges always produces a consistent, compact model.
    #[test]
    fn merges_stay_consistent((g, assignment, c) in arb_instance(), merges in proptest::collection::vec((any::<u32>(), any::<u32>()), 1..6)) {
        let mut bm = Blockmodel::from_assignment(&g, assignment, c);
        let merges: Vec<(u32, u32)> = merges.into_iter().map(|(a, b)| (a % c as u32, b % c as u32)).collect();
        let new_c = bm.apply_merges(&g, &merges);
        prop_assert_eq!(new_c, bm.num_blocks());
        prop_assert!(new_c >= 1 && new_c <= c);
        // Labels are compact: every label < new_c appears... (some may be
        // empty only if they were empty before the merge).
        prop_assert!(bm.assignment().iter().all(|&b| (b as usize) < new_c));
        prop_assert!(bm.check_consistency(&g).is_ok());
    }

    /// MDL decomposition: total = complexity − likelihood, and the null MDL
    /// depends only on E.
    #[test]
    fn mdl_decomposition_holds((g, assignment, c) in arb_instance()) {
        let bm = Blockmodel::from_assignment(&g, assignment, c);
        let m = mdl::mdl(&bm, g.num_vertices(), g.total_weight());
        prop_assert!((m.total - (m.model_complexity - m.log_likelihood)).abs() < 1e-10);
        prop_assert!(m.log_likelihood <= 1e-10, "likelihood must be non-positive");
        if g.total_weight() > 0 {
            prop_assert!(mdl::null_mdl(g.total_weight()) > 0.0);
        }
    }
}
