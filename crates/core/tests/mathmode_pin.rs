//! Golden-bit pins for the delta-MDL math path.
//!
//! These fingerprints were captured from the libm tree, before the `ln`
//! table, SoA rows and batched proposals existed. The table-served kernel
//! must reproduce them bit-for-bit across all four variants, thread counts
//! 1/2/7, and under budget truncation — as must every refactor since.

use hsbp_collections::fnv1a;
use hsbp_core::{run_sbp_budgeted, CancelToken, RunBudget, SbpConfig, Variant};
use hsbp_generator::{generate, DcsbmConfig};

/// FNV-1a over the assignment labels plus the block count.
fn fingerprint(assignment: &[u32], num_blocks: usize) -> u64 {
    let words = std::iter::once(num_blocks as u64).chain(assignment.iter().map(|&a| u64::from(a)));
    let bytes: Vec<u8> = words.flat_map(u64::to_le_bytes).collect();
    fnv1a(&bytes)
}

fn pin_case(variant: Variant, threads: usize, truncated: bool) -> (u64, u64) {
    let data = generate(DcsbmConfig {
        num_vertices: 600,
        num_communities: 6,
        target_num_edges: 4800,
        seed: 11,
        ..Default::default()
    });
    let cfg = SbpConfig {
        variant,
        threads,
        seed: 1303,
        ..SbpConfig::new(variant, 1303)
    };
    let budget = if truncated {
        RunBudget::unlimited().with_max_total_sweeps(60)
    } else {
        RunBudget::unlimited()
    };
    let out = run_sbp_budgeted(&data.graph, &cfg, &budget, &CancelToken::new())
        .unwrap_or_else(|e| panic!("run failed: {e}"));
    if truncated {
        assert!(
            out.truncated(),
            "budget of 60 sweeps should truncate {variant:?}"
        );
    }
    (
        out.mdl.total.to_bits(),
        fingerprint(&out.assignment, out.num_blocks),
    )
}

/// `(variant, truncated) -> (mdl_bits, fingerprint)` captured from the libm
/// tree.
/// Thread count is not part of the key: results are pinned identical across
/// 1/2/7 threads.
const PINNED_BITS: [(Variant, bool, u64, u64); 8] = [
    (
        Variant::Metropolis,
        false,
        0x40e2_f711_9e6d_350e,
        0x1907_a1c6_0ee6_4286,
    ),
    (
        Variant::Metropolis,
        true,
        0x40e8_5cec_2037_b95c,
        0x97bb_fafe_772d_ffd4,
    ),
    (
        Variant::AsyncGibbs,
        false,
        0x40e2_f6af_0801_09cf,
        0xbdc0_0d8e_e270_3ec6,
    ),
    (
        Variant::AsyncGibbs,
        true,
        0x40e9_055c_48e7_7ae8,
        0x6a27_f891_2b61_5d44,
    ),
    (
        Variant::Hybrid,
        false,
        0x40e2_f6c0_f925_4603,
        0x4105_5141_94d1_bb46,
    ),
    (
        Variant::Hybrid,
        true,
        0x40e8_ad07_a65d_4fa5,
        0xb757_0b2e_d717_b770,
    ),
    (
        Variant::ExactAsync,
        false,
        0x40e2_f6f1_3c59_12ee,
        0x4a5f_40ce_ddb2_74e7,
    ),
    (
        Variant::ExactAsync,
        true,
        0x40e8_6c65_327c_e03a,
        0x7b43_32ce_9897_e1aa,
    ),
];

#[test]
fn exact_mode_matches_prechange_golden_bits() {
    for (variant, truncated, mdl_bits, fp) in PINNED_BITS {
        for threads in [1usize, 2, 7] {
            let (got_bits, got_fp) = pin_case(variant, threads, truncated);
            assert_eq!(
                got_bits, mdl_bits,
                "MDL bits drifted for {variant:?} t{threads} trunc={truncated}: \
                 got {got_bits:#018x}, pinned {mdl_bits:#018x}"
            );
            assert_eq!(
                got_fp, fp,
                "assignment drifted for {variant:?} t{threads} trunc={truncated}: \
                 got {got_fp:#018x}, pinned {fp:#018x}"
            );
        }
    }
}
