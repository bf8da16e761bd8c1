//! Integration tests of the sharded divide-and-conquer pipeline against the
//! single-model driver (the ISSUE's acceptance criterion), plus the
//! `hsbp shard` CLI subcommand end-to-end.

use hsbp::generator::{generate, DcsbmConfig};
use hsbp::graph::partition::write_partition_file;
use hsbp::metrics::nmi;
use hsbp::shard::run_sharded_sbp_detailed;
use hsbp::{run_sbp, run_sharded_sbp, PartitionStrategy, SbpConfig, ShardConfig};
use std::path::PathBuf;
use std::process::Command;

fn hsbp_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hsbp"))
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("hsbp-shard-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Acceptance criterion: 4 shards on a generated DCSBM graph with ≥5k
/// vertices and catalog-default parameters must land within 0.05 NMI of
/// the single-model result.
#[test]
fn four_shards_match_single_model_on_5k_dcsbm() {
    let data = generate(DcsbmConfig {
        num_vertices: 5000,
        num_communities: 16,
        target_num_edges: 50_000,
        seed: 71,
        ..Default::default()
    });

    let single = run_sbp(
        &data.graph,
        &SbpConfig {
            seed: 9,
            ..Default::default()
        },
    );
    let sharded = run_sharded_sbp(
        &data.graph,
        &ShardConfig {
            num_shards: 4,
            sbp: SbpConfig {
                seed: 9,
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .expect("valid config");

    assert_eq!(sharded.assignment.len(), 5000);
    assert!(sharded.num_blocks >= 2);
    assert!(sharded.mdl.total.is_finite());

    let nmi_single = nmi(&data.ground_truth, &single.assignment);
    let nmi_sharded = nmi(&data.ground_truth, &sharded.assignment);
    assert!(
        nmi_sharded >= nmi_single - 0.05,
        "sharded NMI {nmi_sharded:.4} trails single-model NMI {nmi_single:.4} by more than 0.05 \
         (single found {} blocks, sharded {})",
        single.num_blocks,
        sharded.num_blocks
    );
}

/// The detailed run reports coherent cut accounting, shard summaries and a
/// monotone emulated scaling curve.
#[test]
fn detailed_run_reports_are_coherent() {
    let data = generate(DcsbmConfig {
        num_vertices: 600,
        num_communities: 6,
        target_num_edges: 6000,
        seed: 13,
        ..Default::default()
    });
    let run = run_sharded_sbp_detailed(&data.graph, &ShardConfig::new(3, 2)).expect("valid config");
    assert_eq!(run.shard_summaries.len(), 3);
    let shard_vertices: usize = run.shard_summaries.iter().map(|s| s.num_vertices).sum();
    assert_eq!(shard_vertices, 600);
    assert!((0.0..=1.0).contains(&run.cut_fraction));
    assert!(run.stitch.blocks_stitched >= run.result.num_blocks);
    assert!(run.scaling.curve.first().map(|&(r, _)| r) == Some(1));
    // Finetune must not lose the stitched state: best MDL ≤ raw union MDL.
    assert!(run.result.mdl.total <= run.stitch.stitched_mdl + 1e-9);
}

/// An external `.part.K` file drives the same pipeline via the public API.
#[test]
fn partition_file_strategy_runs() {
    let data = generate(DcsbmConfig {
        num_vertices: 300,
        num_communities: 4,
        target_num_edges: 2400,
        seed: 29,
        ..Default::default()
    });
    // A deliberately coarse external partition: halves of the id space.
    let parts: Vec<u32> = (0..300).map(|v| u32::from(v >= 150)).collect();
    let path = tmp("external.part.2");
    write_partition_file(&parts, &path).unwrap();
    let loaded = hsbp::graph::partition::read_partition_file(&path).unwrap();
    let result = run_sharded_sbp(
        &data.graph,
        &ShardConfig {
            num_shards: 1, // overridden by the file's part count
            strategy: PartitionStrategy::FromParts(loaded),
            ..Default::default()
        },
    )
    .expect("valid config");
    assert_eq!(result.assignment.len(), 300);
    assert!(result.num_blocks >= 1);
}

/// `hsbp shard` exercises the same path end-to-end: generate → shard with
/// compare → labels file covering every vertex.
#[test]
fn shard_cli_end_to_end() {
    let mtx = tmp("cli.mtx");
    let labels = tmp("cli-labels.tsv");
    let out = hsbp_bin()
        .args([
            "generate",
            "--vertices",
            "400",
            "--edges",
            "3600",
            "--communities",
            "5",
        ])
        .args([
            "--ratio",
            "3.0",
            "--seed",
            "17",
            "--output",
            mtx.to_str().unwrap(),
        ])
        .output()
        .expect("run hsbp generate");
    assert!(
        out.status.success(),
        "generate failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = hsbp_bin()
        .args(["shard", "--input", mtx.to_str().unwrap(), "--shards", "4"])
        .args(["--strategy", "degree", "--seed", "3", "--compare", "true"])
        .args(["--output", labels.to_str().unwrap()])
        .output()
        .expect("run hsbp shard");
    assert!(
        out.status.success(),
        "shard failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cut fraction"), "stderr:\n{stderr}");
    assert!(stderr.contains("emulated"), "stderr:\n{stderr}");
    assert!(stderr.contains("NMI(sharded, single)"), "stderr:\n{stderr}");

    let body = std::fs::read_to_string(&labels).unwrap();
    assert_eq!(body.lines().count(), 400);

    // A partition file drives the CLI too.
    let parts: Vec<u32> = (0..400).map(|v| v % 3).collect();
    let part_path = tmp("cli.part.3");
    write_partition_file(&parts, &part_path).unwrap();
    let out = hsbp_bin()
        .args([
            "shard",
            "--input",
            mtx.to_str().unwrap(),
            "--strategy",
            "file",
        ])
        .args(["--parts", part_path.to_str().unwrap(), "--seed", "3"])
        .output()
        .expect("run hsbp shard with parts file");
    assert!(
        out.status.success(),
        "shard(file) failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// FNV-1a over the little-endian bytes of every label.
fn label_fingerprint(assignment: &[u32]) -> u64 {
    let bytes: Vec<u8> = assignment.iter().flat_map(|l| l.to_le_bytes()).collect();
    hsbp::shard::channel::checksum(&bytes)
}

/// Golden-bit pin of the stitch path: 4 shards on a fixed DCSBM. The
/// values were recorded before the stitch's search moved onto the shared
/// driver; any refactor of the stitch must reproduce them exactly.
#[test]
fn stitch_golden_bits_on_fixed_dcsbm() {
    let data = generate(DcsbmConfig {
        num_vertices: 800,
        num_communities: 8,
        target_num_edges: 8000,
        seed: 29,
        ..Default::default()
    });
    let run =
        run_sharded_sbp_detailed(&data.graph, &ShardConfig::new(4, 17)).expect("valid config");
    let trajectory: Vec<(usize, u64)> = run
        .result
        .trajectory
        .iter()
        .map(|&(b, m)| (b, m.to_bits()))
        .collect();
    assert_eq!(run.result.mdl.total.to_bits(), 0x40f0_84dc_8a67_f540);
    assert_eq!(
        label_fingerprint(&run.result.assignment),
        0x20a4_1be1_1725_3494
    );
    assert_eq!(
        trajectory,
        vec![
            (100, 0x40f3702fdfd5eda8),
            (50, 0x40f1b2e10a3b53c7),
            (25, 0x40f0f8f70da655e9),
            (13, 0x40f0a6c719664808),
            (7, 0x40f09a5d9b79ec83),
            (4, 0x40f0f6a0daa2fb41),
            (9, 0x40f08c5a5ce19973),
            (11, 0x40f099dab16e46ae),
            (10, 0x40f0917b86282b9e),
            (8, 0x40f084dc8a67f540),
        ]
    );
    assert_eq!(run.stitch.steps, 9);
    assert_eq!(run.stitch.finetune_sweeps, 69);
    assert_eq!(run.stitch.blocks_final, 8);
}
