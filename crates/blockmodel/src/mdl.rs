//! Minimum description length of the DCSBM (Eqs. 1 and 2 of the paper).
//!
//! * Eq. 1: `L(G|B) = Σ_{rs} B_rs · ln( B_rs / (d_out_r · d_in_s) )`
//! * Eq. 2: `MDL = E·h(C²/E) + V·ln C − L(G|B)` with
//!   `h(x) = (1+x)·ln(1+x) − x·ln x`.
//!
//! Lower MDL = better model. The *null* MDL puts every vertex in one block;
//! the paper's normalized MDL is `MDL / MDL_null` and is comparable across
//! graphs.

use crate::model::Blockmodel;

/// `h(x) = (1+x)ln(1+x) − x·ln x`, the binary-entropy-like term of Eq. 2.
/// Defined as 0 at `x = 0` (its limit).
#[inline]
pub fn dcsbm_entropy_term(x: f64) -> f64 {
    if x <= 0.0 {
        0.0
    } else {
        (1.0 + x) * (1.0 + x).ln() - x * x.ln()
    }
}

/// One cell's contribution to `L(G|B)`: `b·ln(b/(d_out·d_in))`, 0 when the
/// cell is empty. This is the libm reference; the delta kernels use the
/// table-served [`crate::fastmath::ll_term`], which is bit-identical to it.
#[inline]
pub fn log_likelihood_term(b: f64, d_out: f64, d_in: f64) -> f64 {
    if b <= 0.0 {
        0.0
    } else {
        debug_assert!(
            d_out > 0.0 && d_in > 0.0,
            "non-empty cell with zero block degree"
        );
        b * (b.ln() - d_out.ln() - d_in.ln())
    }
}

/// Description-length summary of a fitted blockmodel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mdl {
    /// `L(G|B)` — Eq. 1 (non-positive).
    pub log_likelihood: f64,
    /// `E·h(C²/E) + V·ln C` — the model complexity part of Eq. 2.
    pub model_complexity: f64,
    /// Full MDL — Eq. 2.
    pub total: f64,
}

/// `L(G|B)` over all non-zero cells of `B` (Eq. 1).
pub fn log_likelihood(bm: &Blockmodel) -> f64 {
    let mut total = 0.0;
    for r in 0..bm.num_blocks() as u32 {
        let d_out = bm.d_out(r) as f64;
        for (s, b) in bm.row(r).iter() {
            total += log_likelihood_term(b as f64, d_out, bm.d_in(s) as f64);
        }
    }
    total
}

/// Model complexity: `E·h(C²/E) + V·ln C`.
pub fn model_complexity(num_vertices: usize, num_edges: u64, num_blocks: usize) -> f64 {
    if num_edges == 0 || num_blocks == 0 {
        return 0.0;
    }
    let e = num_edges as f64;
    let c = num_blocks as f64;
    e * dcsbm_entropy_term(c * c / e) + num_vertices as f64 * c.ln()
}

/// Full MDL (Eq. 2) of a fitted blockmodel.
pub fn mdl(bm: &Blockmodel, num_vertices: usize, num_edges: u64) -> Mdl {
    let ll = log_likelihood(bm);
    let mc = model_complexity(num_vertices, num_edges, bm.num_blocks());
    Mdl {
        log_likelihood: ll,
        model_complexity: mc,
        total: mc - ll,
    }
}

/// MDL of the structure-less null model (all vertices in one block).
///
/// With `C = 1`: `B₁₁ = E`, `d_out = d_in = E`, so `L = E·ln(1/E)` and
/// `MDL_null = E·h(1/E) + E·ln E`.
pub fn null_mdl(num_edges: u64) -> f64 {
    if num_edges == 0 {
        return 0.0;
    }
    let e = num_edges as f64;
    e * dcsbm_entropy_term(1.0 / e) + e * e.ln()
}

/// Change in the model-complexity part of the MDL when the number of blocks
/// goes from `c` to `c_new` (used to turn a merge's likelihood delta into a
/// full MDL delta).
pub fn model_complexity_delta(num_vertices: usize, num_edges: u64, c: usize, c_new: usize) -> f64 {
    model_complexity(num_vertices, num_edges, c_new) - model_complexity(num_vertices, num_edges, c)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use hsbp_graph::Graph;

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
    fn entropy_term_limits() {
        assert_eq!(dcsbm_entropy_term(0.0), 0.0);
        // h(1) = 2 ln 2
        assert!((dcsbm_entropy_term(1.0) - 2.0 * 2f64.ln()).abs() < 1e-12);
        // h is increasing on (0, inf)
        assert!(dcsbm_entropy_term(2.0) > dcsbm_entropy_term(1.0));
    }

    #[test]
    fn likelihood_term_zero_cell() {
        assert_eq!(log_likelihood_term(0.0, 5.0, 5.0), 0.0);
    }

    #[test]
    fn log_likelihood_is_nonpositive() {
        // B_rs <= d_out_r and B_rs <= d_in_s, so each ratio <= 1 whenever
        // d_out, d_in >= 1 and the log is <= 0.
        let g = two_cliques();
        let bm = Blockmodel::from_assignment(&g, vec![0, 0, 0, 1, 1, 1], 2);
        assert!(log_likelihood(&bm) <= 0.0);
    }

    #[test]
    fn null_mdl_matches_single_block_model() {
        let g = two_cliques();
        let bm = Blockmodel::from_assignment(&g, vec![0; 6], 1);
        let full = mdl(&bm, g.num_vertices(), g.total_weight());
        let null = null_mdl(g.total_weight());
        assert!(
            (full.total - null).abs() < 1e-9,
            "explicit single-block MDL {} vs closed form {}",
            full.total,
            null
        );
    }

    #[test]
    fn true_partition_beats_null_on_structured_graph() {
        // Two complete directed 10-cliques + one bridge: enough structure
        // that the planted partition's likelihood gain pays for C = 2.
        // (On very small graphs the null can win — the paper's MDL_norm ≈ 1
        // regime — so this needs a reasonably dense graph.)
        let k = 10u32;
        let mut edges = Vec::new();
        for g0 in 0..2u32 {
            for a in 0..k {
                for b in 0..k {
                    if a != b {
                        edges.push((g0 * k + a, g0 * k + b));
                    }
                }
            }
        }
        edges.push((k - 1, k));
        let g = Graph::from_edges(2 * k as usize, &edges);
        let assignment: Vec<u32> = (0..2 * k).map(|v| v / k).collect();
        let bm = Blockmodel::from_assignment(&g, assignment, 2);
        let fitted = mdl(&bm, g.num_vertices(), g.total_weight()).total;
        let null = null_mdl(g.total_weight());
        assert!(fitted < null, "fitted {fitted} should beat null {null}");
    }

    #[test]
    fn singleton_partition_pays_complexity() {
        // With every vertex its own block, V·ln C + E·h(C²/E) explodes; the
        // MDL must exceed that of the planted 2-block partition.
        let g = two_cliques();
        let singleton = Blockmodel::singleton_partition(&g);
        let planted = Blockmodel::from_assignment(&g, vec![0, 0, 0, 1, 1, 1], 2);
        let m_singleton = super::mdl(&singleton, g.num_vertices(), g.total_weight()).total;
        let m_planted = super::mdl(&planted, g.num_vertices(), g.total_weight()).total;
        assert!(m_planted < m_singleton);
    }

    #[test]
    fn model_complexity_monotone_in_blocks() {
        let mc: Vec<f64> = (1..10).map(|c| model_complexity(100, 500, c)).collect();
        for w in mc.windows(2) {
            assert!(w[0] < w[1], "complexity should grow with C: {mc:?}");
        }
    }

    #[test]
    fn model_complexity_delta_consistent() {
        let d = model_complexity_delta(100, 500, 8, 7);
        let direct = model_complexity(100, 500, 7) - model_complexity(100, 500, 8);
        assert!((d - direct).abs() < 1e-12);
        assert!(d < 0.0, "merging blocks reduces model complexity");
    }

    #[test]
    fn empty_graph_mdls_are_zero() {
        assert_eq!(null_mdl(0), 0.0);
        assert_eq!(model_complexity(10, 0, 3), 0.0);
    }
}
