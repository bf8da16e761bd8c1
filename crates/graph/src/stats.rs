//! Descriptive statistics used to characterise datasets (Tables 1 and 2) and
//! to sanity-check generated DCSBM graphs against their target parameters.

use crate::{Graph, Vertex};
use hsbp_parallel::ChunkPlan;

/// Summary statistics of a directed graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Vertex count.
    pub num_vertices: usize,
    /// Distinct directed edge count.
    pub num_edges: usize,
    /// Sum of edge weights.
    pub total_weight: u64,
    /// Minimum total (in+out) degree.
    pub min_degree: u64,
    /// Maximum total degree.
    pub max_degree: u64,
    /// Mean total degree (`2E/V` for a directed graph counted both ways).
    pub mean_degree: f64,
    /// Edge density `E / (V·(V−1))`.
    pub density: f64,
    /// Number of self loops.
    pub self_loops: usize,
    /// Continuous-approximation MLE of the power-law exponent of the total
    /// degree distribution (Clauset–Shalizi–Newman, with `x_min` = smallest
    /// positive degree).
    pub power_law_exponent: f64,
}

impl GraphStats {
    /// Compute statistics; degree scans run on the persistent worker pool
    /// with degree-weighted chunks (hubs cost more to scan than leaves).
    pub fn compute(graph: &Graph) -> GraphStats {
        let n = graph.num_vertices();
        let pool = hsbp_parallel::global();
        let plan = ChunkPlan::from_prefix(n, pool.chunk_target(), |i| {
            (graph.incident_prefix(i) + i) as u64
        });
        let degrees: Vec<u64> = pool.map_indexed(&plan, || (), |(), i| graph.degree(i as Vertex));
        let self_loops = pool
            .map_indexed(&plan, || (), |(), i| graph.self_loop(i as Vertex) > 0)
            .into_iter()
            .filter(|&l| l)
            .count();
        let min_degree = degrees.iter().copied().min().unwrap_or(0);
        let max_degree = degrees.iter().copied().max().unwrap_or(0);
        let total: u64 = degrees.iter().sum();
        let mean_degree = if n == 0 { 0.0 } else { total as f64 / n as f64 };
        let density = if n > 1 {
            graph.num_edges() as f64 / (n as f64 * (n as f64 - 1.0))
        } else {
            0.0
        };
        GraphStats {
            num_vertices: n,
            num_edges: graph.num_edges(),
            total_weight: graph.total_weight(),
            min_degree,
            max_degree,
            mean_degree,
            density,
            self_loops,
            power_law_exponent: power_law_mle(&degrees),
        }
    }
}

/// Histogram of total degrees: `histogram[d]` = number of vertices with
/// total degree `d` (capped at `max_bin`, the last bin absorbs the tail).
pub fn degree_histogram(graph: &Graph, max_bin: usize) -> Vec<usize> {
    let mut hist = vec![0usize; max_bin + 1];
    for v in 0..graph.num_vertices() as Vertex {
        let d = (graph.degree(v) as usize).min(max_bin);
        hist[d] += 1;
    }
    hist
}

/// Continuous MLE for the exponent of `p(d) ∝ d^−α`:
/// `α = 1 + n / Σ ln(d_i / (d_min − 0.5))`, over positive degrees.
pub fn power_law_mle(degrees: &[u64]) -> f64 {
    let positive: Vec<f64> = degrees
        .iter()
        .filter(|&&d| d > 0)
        .map(|&d| d as f64)
        .collect();
    if positive.len() < 2 {
        return f64::NAN;
    }
    let d_min = positive.iter().copied().fold(f64::INFINITY, f64::min);
    let denom: f64 = positive.iter().map(|&d| (d / (d_min - 0.5)).ln()).sum();
    if denom <= 0.0 {
        return f64::NAN;
    }
    1.0 + positive.len() as f64 / denom
}

/// Within/between community edge ratio `r` for a given assignment:
/// `r = (# within-community edges) / (# between-community edges)`.
///
/// This is the knob the paper's generator varies; computing it on generated
/// graphs closes the loop on Table 1.
pub fn within_between_ratio(graph: &Graph, assignment: &[u32]) -> f64 {
    assert_eq!(assignment.len(), graph.num_vertices());
    let (within, between) = graph
        .edges()
        .map(|(u, v, w)| {
            if assignment[u as usize] == assignment[v as usize] {
                (w, 0)
            } else {
                (0, w)
            }
        })
        .fold((0u64, 0u64), |(aw, ab), (w, b)| (aw + w, ab + b));
    if between == 0 {
        f64::INFINITY
    } else {
        within as f64 / between as f64
    }
}

/// Vertices sorted by total degree, descending (ties by id for determinism).
/// This is the ordering H-SBP uses to pick its influential set `V*`.
pub fn vertices_by_degree_desc(graph: &Graph) -> Vec<Vertex> {
    let mut order: Vec<Vertex> = (0..graph.num_vertices() as Vertex).collect();
    let degrees: Vec<u64> = (0..graph.num_vertices() as Vertex)
        .map(|v| graph.degree(v))
        .collect();
    order.sort_by_key(|&v| (std::cmp::Reverse(degrees[v as usize]), v));
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    fn star(n: usize) -> Graph {
        // hub 0 -> each spoke
        let edges: Vec<(Vertex, Vertex)> = (1..n as Vertex).map(|v| (0, v)).collect();
        Graph::from_edges(n, &edges)
    }

    #[test]
    fn stats_on_star() {
        let g = star(11);
        let s = GraphStats::compute(&g);
        assert_eq!(s.num_vertices, 11);
        assert_eq!(s.num_edges, 10);
        assert_eq!(s.max_degree, 10);
        assert_eq!(s.min_degree, 1);
        assert!((s.mean_degree - 20.0 / 11.0).abs() < 1e-12);
        assert_eq!(s.self_loops, 0);
    }

    #[test]
    fn self_loops_counted() {
        let g = Graph::from_edges(3, &[(0, 0), (1, 1), (1, 2)]);
        let s = GraphStats::compute(&g);
        assert_eq!(s.self_loops, 2);
    }

    #[test]
    fn histogram_sums_to_vertex_count() {
        let g = star(8);
        let hist = degree_histogram(&g, 16);
        assert_eq!(hist.iter().sum::<usize>(), 8);
        assert_eq!(hist[1], 7); // spokes
        assert_eq!(hist[7], 1); // hub
    }

    #[test]
    fn histogram_tail_bin_absorbs() {
        let g = star(100);
        let hist = degree_histogram(&g, 4);
        assert_eq!(hist[4], 1); // hub degree 99 lands in last bin
    }

    #[test]
    fn power_law_mle_recovers_exponent_roughly() {
        // Sample from a power law with alpha = 2.5 by inverse CDF. Use a
        // larger x_min so integer rounding doesn't bias the continuous MLE.
        let mut degrees = Vec::new();
        let mut state = 12345u64;
        for _ in 0..20000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let u = (state >> 11) as f64 / (1u64 << 53) as f64;
            // Continuous power law x_min = 10, alpha = 2.5.
            let x = 10.0 * (1.0 - u).powf(-1.0 / 1.5);
            degrees.push(x.round() as u64);
        }
        let alpha = power_law_mle(&degrees);
        assert!((2.2..2.8).contains(&alpha), "alpha = {alpha}");
    }

    #[test]
    fn power_law_mle_degenerate_inputs() {
        assert!(power_law_mle(&[]).is_nan());
        assert!(power_law_mle(&[5]).is_nan());
        assert!(power_law_mle(&[3, 3, 3]).is_finite()); // identical degrees: finite (large) alpha
    }

    #[test]
    fn ratio_r() {
        // 2 communities {0,1} and {2,3}; 3 within, 1 between.
        let g = Graph::from_edges(4, &[(0, 1), (1, 0), (2, 3), (0, 2)]);
        let assignment = vec![0, 0, 1, 1];
        let r = within_between_ratio(&g, &assignment);
        assert!((r - 3.0).abs() < 1e-12);
    }

    #[test]
    fn ratio_r_no_between_edges() {
        let g = Graph::from_edges(2, &[(0, 0), (1, 1)]);
        assert!(within_between_ratio(&g, &[0, 1]).is_infinite());
    }

    #[test]
    fn degree_order_desc() {
        let g = star(5);
        let order = vertices_by_degree_desc(&g);
        assert_eq!(order[0], 0);
        assert_eq!(order.len(), 5);
        // spokes tie: sorted by id.
        assert_eq!(&order[1..], &[1, 2, 3, 4]);
    }
}
