//! A deliberately naive reference for the move kernel.
//!
//! The reference keeps `B` as a dense `Vec<Vec<u64>>` built straight from
//! the edge list. For every proposal it recomputes Eq. 1 over the whole
//! matrix before and after the move, and it evaluates the Hastings factor
//! with the formula documented on `evaluate_move_with`:
//!
//! ```text
//! p_fwd = Σ_t k_t/k_v · (B[t][to]   + B[to][t]   + 1) / (d_t + C)    (old B)
//! p_bwd = Σ_t k_t/k_v · (B'[t][from] + B'[from][t] + 1) / (d'_t + C)  (new B)
//! ```
//!
//! summed in ascending census-block order, with self-loops counted twice
//! toward `from` in the census. It shares no code with `Blockmodel` or
//! `mdl`: the production kernel must agree with it on every `(v, to)` pair
//! of seeded random small graphs with multi-edges and self-loops — ΔMDL
//! within 1e-9, the Hastings factor bit for bit.

use hsbp_blockmodel::{evaluate_move_with, Blockmodel, NeighborCounts, ProposalArena};
use hsbp_collections::SplitMix64;
use hsbp_graph::Graph;

/// A random directed multigraph on `n` vertices: uniform edges, with some
/// self-loops and some repeated edges mixed in.
fn random_edges(rng: &mut SplitMix64, n: usize, m: usize) -> Vec<(u32, u32)> {
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(m);
    while edges.len() < m {
        let roll = rng.next_f64();
        let edge = if roll < 0.15 {
            let v = rng.next_below(n as u64) as u32;
            (v, v)
        } else if roll < 0.35 && !edges.is_empty() {
            edges[rng.next_below(edges.len() as u64) as usize]
        } else {
            (
                rng.next_below(n as u64) as u32,
                rng.next_below(n as u64) as u32,
            )
        };
        edges.push(edge);
    }
    edges
}

fn dense_matrix(edges: &[(u32, u32)], assignment: &[u32], c: usize) -> Vec<Vec<u64>> {
    let mut b = vec![vec![0u64; c]; c];
    for &(u, v) in edges {
        b[assignment[u as usize] as usize][assignment[v as usize] as usize] += 1;
    }
    b
}

fn row_sum(b: &[Vec<u64>], r: usize) -> u64 {
    b[r].iter().sum()
}

fn col_sum(b: &[Vec<u64>], s: usize) -> u64 {
    b.iter().map(|row| row[s]).sum()
}

/// Eq. 1 over every non-zero cell of the dense matrix.
fn log_likelihood(b: &[Vec<u64>]) -> f64 {
    let c = b.len();
    let mut total = 0.0;
    for r in 0..c {
        for s in 0..c {
            let x = b[r][s] as f64;
            if x > 0.0 {
                let d_out = row_sum(b, r) as f64;
                let d_in = col_sum(b, s) as f64;
                total += x * (x / (d_out * d_in)).ln();
            }
        }
    }
    total
}

/// The naive `(ΔMDL, Hastings)` of moving `v` to block `to`.
fn reference_move(
    edges: &[(u32, u32)],
    assignment: &[u32],
    c: usize,
    v: u32,
    to: u32,
) -> (f64, f64) {
    let from = assignment[v as usize];
    if from == to {
        return (0.0, 1.0);
    }
    let old = dense_matrix(edges, assignment, c);
    let mut moved = assignment.to_vec();
    moved[v as usize] = to;
    let new = dense_matrix(edges, &moved, c);
    let delta_mdl = log_likelihood(&old) - log_likelihood(&new);

    // Neighbour-block census under the pre-move labels; a self-loop has
    // both endpoints at `v`, so it counts twice toward `from`.
    let mut census = vec![0u64; c];
    for &(a, z) in edges {
        if a == v {
            census[assignment[z as usize] as usize] += 1;
        }
        if z == v {
            census[assignment[a as usize] as usize] += 1;
        }
    }
    let k_v: u64 = census.iter().sum();
    let cf = c as f64;
    let (from, to) = (from as usize, to as usize);
    let mut p_fwd = 0.0;
    let mut p_bwd = 0.0;
    if k_v > 0 {
        for (t, &k_t) in census.iter().enumerate() {
            if k_t == 0 {
                continue;
            }
            let mass = old[t][to] + old[to][t];
            let d_t = row_sum(&old, t) + col_sum(&old, t);
            p_fwd += k_t as f64 * (mass as f64 + 1.0) / (d_t as f64 + cf);
        }
        p_fwd /= k_v as f64;
        for (t, &k_t) in census.iter().enumerate() {
            if k_t == 0 {
                continue;
            }
            let mass = new[t][from] + new[from][t];
            let d_t = row_sum(&new, t) + col_sum(&new, t);
            p_bwd += k_t as f64 * (mass as f64 + 1.0) / (d_t as f64 + cf);
        }
        p_bwd /= k_v as f64;
    }
    let hastings = if p_fwd > 0.0 && k_v > 0 {
        p_bwd / p_fwd
    } else {
        1.0
    };
    (delta_mdl, hastings)
}

/// Compare the production kernel with the reference on every `(v, to)`
/// pair of `states` random partitions of `graphs` random graphs, the
/// arena reused across all of them as the hot path reuses it. Returns the
/// number of pairs checked.
fn check_random_graphs(seed: u64, graphs: usize, max_n: u64, states: usize) -> usize {
    let mut rng = SplitMix64::new(seed);
    let mut arena = ProposalArena::default();
    let mut checked = 0;
    for _ in 0..graphs {
        let n = 2 + rng.next_below(max_n - 1) as usize;
        let c = 1 + rng.next_below(5) as usize;
        let m = rng.next_below(4 * n as u64 + 1) as usize;
        let edges = random_edges(&mut rng, n, m);
        let graph = Graph::from_edges(n, &edges);
        for _ in 0..states {
            let assignment: Vec<u32> = (0..n).map(|_| rng.next_below(c as u64) as u32).collect();
            let bm = Blockmodel::from_assignment(&graph, assignment.clone(), c);
            for v in 0..n as u32 {
                NeighborCounts::gather_into(
                    &graph,
                    bm.assignment(),
                    v,
                    &mut arena.scratch,
                    &mut arena.counts,
                );
                let from = assignment[v as usize];
                for to in 0..c as u32 {
                    let eval = evaluate_move_with(&bm, from, to, &arena.counts, &mut arena.eval);
                    let (delta_mdl, hastings) = reference_move(&edges, &assignment, c, v, to);
                    assert!(
                        (eval.delta_mdl - delta_mdl).abs() < 1e-9,
                        "ΔMDL of v={v} {from}->{to}: kernel {} vs reference {delta_mdl} \
                         (edges {edges:?}, assignment {assignment:?})",
                        eval.delta_mdl
                    );
                    assert_eq!(
                        eval.hastings.to_bits(),
                        hastings.to_bits(),
                        "Hastings of v={v} {from}->{to}: kernel {} vs reference {hastings} \
                         (edges {edges:?}, assignment {assignment:?})",
                        eval.hastings
                    );
                    checked += 1;
                }
            }
        }
    }
    checked
}

#[test]
fn kernel_matches_naive_reference_on_small_multigraphs() {
    let checked = check_random_graphs(0x5eed_0001, 300, 12, 3);
    assert!(checked > 10_000, "only {checked} pairs checked");
}

/// The long case: run in release with `--ignored`.
#[test]
#[ignore]
fn kernel_matches_naive_reference_long() {
    let checked = check_random_graphs(0x5eed_0002, 4_000, 32, 4);
    assert!(checked > 500_000, "only {checked} pairs checked");
}
