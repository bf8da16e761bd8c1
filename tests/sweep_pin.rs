//! Golden pins for what the sweep kernels charge, not just what they
//! sample: simulated MCMC time at 1 and 64 virtual threads, the
//! consolidation counters, the proposal/acceptance counters and (for the
//! exact distributed mode) the wire bytes, on one fixed DCSBM. Plus the
//! labels and MDL bits of one warm-started `refine_partition` call on a
//! fixed mutated graph.
//!
//! Simulated time drives the speed-up figures, so a refactor of the sweep
//! loops must keep the order of every cost summation, not only the chain.
//! The literals were recorded before the serial MH step, the move replay
//! and the consolidation policy were each folded into one shared piece.

use hsbp::collections::fnv1a;
use hsbp::generator::{generate, DcsbmConfig};
use hsbp::{
    refine_partition, run_exact_sbp, run_sbp, CancelToken, ExactConfig, Graph, RunBudget, RunStats,
    SbpConfig, Variant,
};

fn pin_graph() -> (Graph, Vec<u32>) {
    let data = generate(DcsbmConfig {
        num_vertices: 500,
        num_communities: 5,
        target_num_edges: 4000,
        seed: 29,
        ..Default::default()
    });
    (data.graph, data.ground_truth)
}

/// FNV-1a over the block count and the labels.
fn fingerprint(assignment: &[u32], num_blocks: usize) -> u64 {
    let words = std::iter::once(num_blocks as u64).chain(assignment.iter().map(|&a| u64::from(a)));
    let bytes: Vec<u8> = words.flat_map(u64::to_le_bytes).collect();
    fnv1a(&bytes)
}

/// `[sim(1) bits, sim(64) bits, incremental, rebuild, moves, proposals,
/// accepted]`.
fn charged(stats: &RunStats) -> [u64; 7] {
    let sim = |t| stats.sim_mcmc_time(t).expect("thread count is simulated");
    [
        sim(1).to_bits(),
        sim(64).to_bits(),
        stats.consolidations_incremental as u64,
        stats.consolidations_rebuild as u64,
        stats.consolidated_moves,
        stats.proposals,
        stats.accepted,
    ]
}

const VARIANT_PINS: [(Variant, [u64; 7]); 4] = [
    (
        Variant::Metropolis,
        [
            0x413c_48e9_8000_0000,
            0x413c_48e9_8000_0000,
            0,
            0,
            0,
            91_500,
            4_088,
        ],
    ),
    (
        Variant::AsyncGibbs,
        [
            0x4144_4e3c_0000_0000,
            0x411b_9c8d_0000_0000,
            226,
            10,
            11_566,
            118_000,
            13_429,
        ],
    ),
    (
        Variant::Hybrid,
        [
            0x4141_ff8b_0000_0000,
            0x412e_ad90_8000_0000,
            216,
            2,
            8_196,
            109_000,
            9_011,
        ],
    ),
    (
        Variant::ExactAsync,
        [
            0x4151_03d9_a000_0000,
            0x411e_ca41_8000_0000,
            207,
            6,
            8_685,
            106_500,
            9_864,
        ],
    ),
];

/// `(sync_every, charged, sync_bytes)`.
const EXACT_PINS: [(usize, [u64; 7], u64); 2] = [
    (
        1,
        [
            0x4145_ff50_0000_0000,
            0x4118_5956_a000_0000,
            198,
            3,
            5_862,
            100_500,
            6_500,
        ],
        318_524,
    ),
    (
        3,
        [
            0x4156_e2b5_0000_0000,
            0x411c_e793_c000_0000,
            74,
            41,
            3_077,
            170_000,
            22_079,
        ],
        661_040,
    ),
];

/// `(label fingerprint, MDL bits, proposals, accepted)`.
const REFINE_PIN: (u64, u64, u64, u64) = (0xdf2a_2590_d168_1ea6, 0x40df_d372_9c1e_2bad, 1_796, 13);

#[test]
fn variant_sim_time_and_consolidation_counters_are_pinned() {
    let (graph, _) = pin_graph();
    for (variant, pinned) in VARIANT_PINS {
        let out = run_sbp(&graph, &SbpConfig::new(variant, 41));
        let got = charged(&out.stats);
        assert_eq!(got, pinned, "{variant:?}: got {got:#x?}");
    }
}

#[test]
fn exact_mode_sim_time_counters_and_bytes_are_pinned() {
    let (graph, _) = pin_graph();
    for (sync_every, pinned, bytes) in EXACT_PINS {
        let cfg = ExactConfig {
            num_shards: 4,
            sync_every,
            sbp: SbpConfig::new(Variant::ExactAsync, 41),
            ..Default::default()
        };
        let run = run_exact_sbp(&graph, &cfg).expect("valid config");
        let got = charged(&run.result.stats);
        assert_eq!(
            (got, run.result.stats.sync_bytes),
            (pinned, bytes),
            "sync_every {sync_every}: got {got:#x?}, {} bytes",
            run.result.stats.sync_bytes
        );
    }
}

#[test]
fn refine_partition_on_a_mutated_graph_is_pinned() {
    let (graph, truth) = pin_graph();
    // Mutate: 40 extra cross-community edges and 10 new vertices, each
    // wired to two existing ones.
    let n = graph.num_vertices() as u32;
    let mut edges: Vec<(u32, u32)> = (0..n)
        .flat_map(|v| graph.out_neighbors(v).iter().map(move |&t| (v, t)))
        .collect();
    let mut dirty = Vec::new();
    for i in 0..40u32 {
        let (s, t) = ((i * 37) % n, (i * 101 + 250) % n);
        edges.push((s, t));
        dirty.extend([s, t]);
    }
    for i in 0..10u32 {
        let v = n + i;
        edges.push((v, (i * 53) % n));
        edges.push(((i * 97 + 7) % n, v));
        dirty.push(v);
    }
    let mutated = Graph::from_edges(n as usize + 10, &edges);
    let out = refine_partition(
        &mutated,
        &truth,
        5,
        &dirty,
        &SbpConfig::new(Variant::Metropolis, 43),
        &RunBudget::unlimited(),
        &CancelToken::new(),
    )
    .expect("valid refinement");
    let got = (
        fingerprint(&out.assignment, out.num_blocks),
        out.mdl.total.to_bits(),
        out.stats.proposals,
        out.stats.accepted,
    );
    assert_eq!(got, REFINE_PIN, "got {got:#x?}");
}
