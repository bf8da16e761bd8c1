//! From-scratch degree-corrected SBM sampler (replaces `graph-tool`).
//!
//! Generation pipeline, all driven by a single seed:
//!
//! 1. **Community sizes** — proportional to `(k+1)^(−community_size_exponent)`
//!    (exponent 0 ⇒ equal sizes), every community non-empty.
//! 2. **Degree propensities** — each vertex draws an out- and an
//!    in-propensity from a truncated power law on
//!    `[min_degree, max_degree]` with exponent `degree_exponent`.
//! 3. **Edge placement** — `target_num_edges` edges are placed one at a
//!    time: source `u ∝ θ_out`, then with probability `r/(r+1)` the target
//!    is drawn inside `u`'s community (`∝ θ_in` within it), otherwise from a
//!    different community (`∝` community in-mass, then `θ_in` inside).
//!    Self-loops and duplicate edges are rejected with bounded retries.
//!
//! The expected within/between edge ratio is therefore exactly `r`, and the
//! degree distribution follows the configured power law — the two levers the
//! paper's evaluation varies. As in `graph-tool` (paper §4.1), the realised
//! graph only approximates the requested parameters.

use hsbp_collections::{AliasTable, FxHashSet, SplitMix64};
use hsbp_graph::{Graph, GraphBuilder, Vertex};

/// Parameters of the DCSBM sampler.
#[derive(Debug, Clone, PartialEq)]
pub struct DcsbmConfig {
    /// Number of vertices.
    pub num_vertices: usize,
    /// Number of planted communities.
    pub num_communities: usize,
    /// Number of directed edges to place.
    pub target_num_edges: usize,
    /// Within/between community edge ratio `r` (paper Table 1). An edge is
    /// within-community with probability `r / (r + 1)`.
    pub within_between_ratio: f64,
    /// Power-law exponent of the degree propensity distribution (≥ 1).
    pub degree_exponent: f64,
    /// Minimum degree propensity.
    pub min_degree: u64,
    /// Maximum degree propensity.
    pub max_degree: u64,
    /// Exponent of the community-size power law (0 ⇒ equal sizes; larger ⇒
    /// more skew).
    pub community_size_exponent: f64,
    /// RNG seed; same config + seed ⇒ identical graph.
    pub seed: u64,
}

impl Default for DcsbmConfig {
    fn default() -> Self {
        Self {
            num_vertices: 1000,
            num_communities: 8,
            target_num_edges: 8000,
            within_between_ratio: 2.5,
            degree_exponent: 2.5,
            min_degree: 2,
            max_degree: 100,
            community_size_exponent: 0.5,
            seed: 0,
        }
    }
}

/// A generated graph with its planted ground truth.
#[derive(Debug, Clone)]
pub struct GeneratedGraph {
    /// The sampled graph.
    pub graph: Graph,
    /// Planted community of every vertex.
    pub ground_truth: Vec<u32>,
    /// The configuration that produced it.
    pub config: DcsbmConfig,
}

/// Community sizes proportional to `(k+1)^(−exponent)`, all non-empty.
fn community_sizes(num_vertices: usize, num_communities: usize, exponent: f64) -> Vec<usize> {
    assert!(num_communities >= 1 && num_communities <= num_vertices);
    let weights: Vec<f64> = (0..num_communities)
        .map(|k| ((k + 1) as f64).powf(-exponent))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut sizes: Vec<usize> = weights
        .iter()
        .map(|w| ((w / total) * num_vertices as f64).floor() as usize)
        .collect();
    // Guarantee non-empty communities, then distribute the remainder to the
    // largest communities (round-robin from the front keeps skew).
    for s in sizes.iter_mut() {
        if *s == 0 {
            *s = 1;
        }
    }
    let mut assigned: usize = sizes.iter().sum();
    while assigned > num_vertices {
        // Shrink the largest community above 1.
        let (idx, _) = sizes
            .iter()
            .enumerate()
            .max_by_key(|&(_, &s)| s)
            .expect("non-empty sizes");
        assert!(
            sizes[idx] > 1,
            "cannot fit {num_communities} communities in {num_vertices}"
        );
        sizes[idx] -= 1;
        assigned -= 1;
    }
    let mut k = 0;
    while assigned < num_vertices {
        sizes[k % num_communities] += 1;
        assigned += 1;
        k += 1;
    }
    sizes
}

/// Truncated power-law sample on `[min_d, max_d]` with density `x^(−γ)`
/// (inverse-CDF of the continuous law, rounded).
fn sample_power_law(rng: &mut SplitMix64, min_d: u64, max_d: u64, gamma: f64) -> f64 {
    let (a, b) = (min_d as f64, max_d as f64);
    if max_d <= min_d {
        return a;
    }
    let u = rng.next_f64();
    if (gamma - 1.0).abs() < 1e-9 {
        // γ = 1: log-uniform.
        let (ln_a, ln_b) = (a.ln(), b.ln());
        (ln_a + u * (ln_b - ln_a)).exp()
    } else {
        let e = 1.0 - gamma;
        (a.powf(e) + u * (b.powf(e) - a.powf(e))).powf(1.0 / e)
    }
}

/// Run the sampler.
///
/// # Panics
/// Panics on inconsistent configs (no vertices, more communities than
/// vertices, zero/negative ratio with a single community, …).
pub fn generate(config: DcsbmConfig) -> GeneratedGraph {
    let n = config.num_vertices;
    let c = config.num_communities;
    assert!(n > 0, "num_vertices must be positive");
    assert!(
        c >= 1 && c <= n,
        "need 1 <= num_communities <= num_vertices"
    );
    assert!(
        config.within_between_ratio >= 0.0,
        "ratio r must be non-negative"
    );
    assert!(config.min_degree >= 1 && config.max_degree >= config.min_degree);
    assert!(
        config.degree_exponent >= 1.0,
        "degree exponent must be >= 1"
    );

    let mut rng = SplitMix64::new(config.seed);

    // 1. Community sizes and a shuffled vertex -> community map.
    let sizes = community_sizes(n, c, config.community_size_exponent);
    let mut ground_truth: Vec<u32> = Vec::with_capacity(n);
    for (k, &size) in sizes.iter().enumerate() {
        ground_truth.extend(std::iter::repeat_n(k as u32, size));
    }
    // Fisher-Yates so vertex ids carry no community signal.
    for i in (1..n).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        ground_truth.swap(i, j);
    }

    // 2. Degree propensities.
    let theta_out: Vec<f64> = (0..n)
        .map(|_| {
            sample_power_law(
                &mut rng,
                config.min_degree,
                config.max_degree,
                config.degree_exponent,
            )
        })
        .collect();
    let theta_in: Vec<f64> = (0..n)
        .map(|_| {
            sample_power_law(
                &mut rng,
                config.min_degree,
                config.max_degree,
                config.degree_exponent,
            )
        })
        .collect();

    // Per-community member lists and in-propensity alias tables.
    let mut members: Vec<Vec<Vertex>> = vec![Vec::new(); c];
    for (v, &k) in ground_truth.iter().enumerate() {
        members[k as usize].push(v as Vertex);
    }
    let source_table = AliasTable::new(&theta_out).expect("positive out-propensities");
    let in_tables: Vec<AliasTable> = members
        .iter()
        .map(|m| {
            let w: Vec<f64> = m.iter().map(|&v| theta_in[v as usize]).collect();
            AliasTable::new(&w).expect("non-empty community")
        })
        .collect();
    // Community in-mass (for choosing the foreign community of a
    // between-community edge).
    let community_mass: Vec<f64> = members
        .iter()
        .map(|m| m.iter().map(|&v| theta_in[v as usize]).sum())
        .collect();
    let community_table = AliasTable::new(&community_mass).expect("positive community mass");

    // 3. Edge placement.
    let p_within = if c == 1 {
        1.0
    } else {
        config.within_between_ratio / (config.within_between_ratio + 1.0)
    };
    let mut builder = GraphBuilder::with_capacity(n, config.target_num_edges);
    let mut seen: FxHashSet<(Vertex, Vertex)> = FxHashSet::default();
    seen.reserve(config.target_num_edges);
    let max_retries = 30;
    let mut placed = 0usize;
    let mut attempts_left = config
        .target_num_edges
        .saturating_mul(max_retries)
        .max(1000);
    while placed < config.target_num_edges && attempts_left > 0 {
        attempts_left -= 1;
        let u = source_table.sample(&mut rng) as Vertex;
        let cu = ground_truth[u as usize] as usize;
        let v = if rng.next_f64() < p_within {
            members[cu][in_tables[cu].sample(&mut rng)]
        } else {
            // Foreign community ∝ in-mass (reject own community).
            let mut cv = community_table.sample(&mut rng);
            let mut guard = 0;
            while cv == cu && guard < 64 {
                cv = community_table.sample(&mut rng);
                guard += 1;
            }
            if cv == cu {
                // A single community dominates the mass; fall back to the
                // next community round-robin.
                cv = (cu + 1) % c;
            }
            members[cv][in_tables[cv].sample(&mut rng)]
        };
        if u == v || !seen.insert((u, v)) {
            continue; // no self-loops, no duplicate edges
        }
        builder.add_edge(u, v);
        placed += 1;
    }

    GeneratedGraph {
        graph: builder.build(),
        ground_truth,
        config,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsbp_graph::stats::{within_between_ratio, GraphStats};

    fn small_config() -> DcsbmConfig {
        DcsbmConfig {
            num_vertices: 500,
            num_communities: 5,
            target_num_edges: 4000,
            within_between_ratio: 3.0,
            degree_exponent: 2.5,
            min_degree: 2,
            max_degree: 50,
            community_size_exponent: 0.5,
            seed: 42,
        }
    }

    #[test]
    fn deterministic_by_seed() {
        let a = generate(small_config());
        let b = generate(small_config());
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.ground_truth, b.ground_truth);
        let mut cfg = small_config();
        cfg.seed = 43;
        let c = generate(cfg);
        assert_ne!(a.graph, c.graph);
    }

    #[test]
    fn hits_target_sizes() {
        let g = generate(small_config());
        assert_eq!(g.graph.num_vertices(), 500);
        // All edges placed (dense enough that retries cannot exhaust).
        assert_eq!(g.graph.num_edges(), 4000);
        assert_eq!(g.graph.total_weight(), 4000); // no duplicates
        assert_eq!(g.ground_truth.len(), 500);
    }

    #[test]
    fn no_self_loops() {
        let g = generate(small_config());
        let stats = GraphStats::compute(&g.graph);
        assert_eq!(stats.self_loops, 0);
    }

    #[test]
    fn all_communities_populated() {
        let g = generate(small_config());
        let mut counts = vec![0usize; 5];
        for &k in &g.ground_truth {
            counts[k as usize] += 1;
        }
        assert!(counts.iter().all(|&s| s > 0), "{counts:?}");
        assert_eq!(counts.iter().sum::<usize>(), 500);
    }

    #[test]
    fn realised_ratio_tracks_r() {
        let g = generate(small_config());
        let r = within_between_ratio(&g.graph, &g.ground_truth);
        // Expected r = 3; sampling noise plus rejection effects allow slack.
        assert!((1.8..5.0).contains(&r), "realised r = {r}");
    }

    #[test]
    fn weak_structure_when_r_small() {
        let mut cfg = small_config();
        cfg.within_between_ratio = 0.2;
        let g = generate(cfg);
        let r = within_between_ratio(&g.graph, &g.ground_truth);
        assert!(r < 0.6, "realised r = {r}");
    }

    #[test]
    fn single_community_all_within() {
        let mut cfg = small_config();
        cfg.num_communities = 1;
        cfg.community_size_exponent = 0.0;
        let g = generate(cfg);
        assert!(g.ground_truth.iter().all(|&k| k == 0));
        assert!(within_between_ratio(&g.graph, &g.ground_truth).is_infinite());
    }

    #[test]
    fn degree_bounds_roughly_respected() {
        let cfg = DcsbmConfig {
            num_vertices: 2000,
            target_num_edges: 10000,
            min_degree: 5,
            max_degree: 20,
            degree_exponent: 2.0,
            ..small_config()
        };
        let g = generate(cfg);
        let stats = GraphStats::compute(&g.graph);
        // Propensities bounded by 20 ⇒ realised max total degree stays far
        // below an unbounded power law's hubs.
        assert!(stats.max_degree < 100, "max degree {}", stats.max_degree);
    }

    #[test]
    fn community_sizes_skewed_and_exact() {
        let sizes = community_sizes(1000, 10, 1.0);
        assert_eq!(sizes.iter().sum::<usize>(), 1000);
        assert!(sizes[0] > sizes[9], "{sizes:?}");
        let flat = community_sizes(1000, 10, 0.0);
        assert_eq!(flat.iter().sum::<usize>(), 1000);
        assert_eq!(flat[0], 100);
    }

    #[test]
    fn community_sizes_tiny_graph() {
        let sizes = community_sizes(3, 3, 2.0);
        assert_eq!(sizes, vec![1, 1, 1]);
    }

    #[test]
    fn power_law_sample_in_bounds() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..1000 {
            let x = sample_power_law(&mut rng, 3, 30, 2.5);
            assert!((3.0..=30.0).contains(&x), "{x}");
        }
        // Degenerate range.
        assert_eq!(sample_power_law(&mut rng, 5, 5, 2.0), 5.0);
    }

    #[test]
    fn power_law_gamma_one_log_uniform() {
        let mut rng = SplitMix64::new(9);
        let samples: Vec<f64> = (0..5000)
            .map(|_| sample_power_law(&mut rng, 1, 100, 1.0))
            .collect();
        assert!(samples.iter().all(|&x| (1.0..=100.0).contains(&x)));
        // Median of log-uniform on [1, 100] is 10.
        let mut sorted = samples;
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sorted[2500];
        assert!((5.0..20.0).contains(&median), "median {median}");
    }

    #[test]
    #[should_panic]
    fn rejects_more_communities_than_vertices() {
        generate(DcsbmConfig {
            num_vertices: 3,
            num_communities: 5,
            ..small_config()
        });
    }
}
