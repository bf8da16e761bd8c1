//! Sharded divide-and-conquer stochastic block partitioning.
//!
//! The paper parallelises the MCMC phase *inside* one shared-memory
//! blockmodel; this crate implements the next step its authors take in
//! *Exact Distributed Stochastic Block Partitioning* (arXiv:2305.18663),
//! following the divide-and-conquer recipe of Roy & Atchadé
//! (arXiv:1610.09724):
//!
//! 1. **Partition** ([`partition`]): split the vertex set into `k` shards —
//!    round-robin, degree-balanced greedy, or an external METIS `.part.K`
//!    file — producing per-shard induced subgraphs, local↔global vertex-id
//!    translation tables, and cut-edge accounting.
//! 2. **Per-shard SBP** ([`runner`]), under **supervision**
//!    ([`supervisor`]): run the existing [`hsbp_core::run_sbp`] on every
//!    shard in parallel (on the `hsbp-parallel` pool), emulating distributed ranks through
//!    `hsbp-timing`'s simulated cost model so strong-scaling curves can be
//!    reported from a single-core host. Each shard job runs under
//!    `catch_unwind` with a deadline; failed attempts retry with a fresh
//!    seed and exponential backoff, results are checked by an invariant
//!    validator, and shards that exhaust their budget are dropped rather
//!    than aborting the run. Shards deliberately *over-partition* — their
//!    agglomerative search stops at ~`√n` sub-blocks — because a shard only
//!    sees `~1/k` of the edges and would underfit if allowed to merge all
//!    the way down.
//! 3. **Stitch** ([`stitch`]): reassemble a global
//!    [`hsbp_blockmodel::Blockmodel`] from the disjoint per-shard block
//!    assignments, then finish the agglomerative search globally: the
//!    driver's golden-section bracket over the block count, warm-started
//!    from the stitched union instead of the singleton partition, with
//!    [`hsbp_core::merge_phase`] fusing shard-boundary blocks and a short
//!    full-graph H-SBP finetune after every merge so cut edges can pull
//!    mis-sharded vertices across shard boundaries. When shards were
//!    dropped, their vertices are first majority-voted onto surviving
//!    shards' blocks over the cut edges (graceful degradation).
//!
//! Long runs can checkpoint each completed shard to a run directory
//! ([`checkpoint`], [`run_sharded_sbp_resumable`]) and resume after a kill,
//! re-running only unfinished shards. Deterministic fault injection for all
//! of the above lives in [`faults`].
//!
//! Accuracy caveat: every edge between shards is invisible to the per-shard
//! runs, so quality degrades as the cut fraction grows. Degree-balanced or
//! METIS partitions keep the cut (and the error) much smaller than
//! round-robin on graphs with community structure; [`ShardedRun`] reports
//! the cut fraction so callers can judge.
//!
//! ```
//! use hsbp_shard::{run_sharded_sbp, ShardConfig};
//! use hsbp_generator::{generate, DcsbmConfig};
//!
//! let data = generate(DcsbmConfig { num_vertices: 300, num_communities: 4,
//!     target_num_edges: 2400, seed: 11, ..Default::default() });
//! let result = run_sharded_sbp(&data.graph, &ShardConfig {
//!     num_shards: 2, ..Default::default() }).expect("valid config");
//! assert_eq!(result.assignment.len(), 300);
//! assert!(result.num_blocks >= 1);
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod channel;
pub mod checkpoint;
pub mod exact;
pub mod faults;
pub mod partition;
pub mod runner;
pub mod stitch;
pub mod supervisor;

use hsbp_core::{SbpConfig, SbpResult, Variant};
use hsbp_graph::Graph;
use std::path::Path;

pub use channel::{NetFaultPlan, NetTotals, SYNC_PROTOCOL_VERSION};
pub use checkpoint::{Checkpoint, LoadedShard};
pub use exact::{
    run_exact_sbp, run_exact_sbp_budgeted, DeadShard, ExactConfig, ExactRun, RoundNet,
};
pub use faults::{AttemptSelector, FaultKind, FaultPlan, FaultSpec};
pub use hsbp_core::HsbpError;
pub use partition::{partition_graph, PartitionStrategy, Shard, ShardPlan};
pub use runner::{run_shards, CostBasis, EmulatedScaling};
pub use stitch::{stitch, stitch_supervised, StitchReport};
pub use supervisor::{
    run_shards_supervised, validate_shard_result, AttemptFailure, FailureKind, ShardOutcome,
    ShardStatus, SupervisedShards, SupervisorConfig,
};

/// Configuration of a sharded run.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of shards (emulated distributed ranks). Ignored when
    /// `strategy` carries its own part count ([`PartitionStrategy::FromParts`]).
    pub num_shards: usize,
    /// How vertices are assigned to shards.
    pub strategy: PartitionStrategy,
    /// Per-shard SBP configuration (also the base for the stitch phase).
    /// The per-shard seed is derived from `sbp.seed` and the shard index.
    pub sbp: SbpConfig,
    /// MCMC variant of the full-graph finetune after stitching.
    pub finetune_variant: Variant,
    /// Sweep cap of each finetune phase. Each phase still stops early at
    /// `sbp.mcmc_threshold`, so this is a safety cap, not a target; it only
    /// needs to be large enough for boundary vertices to cross over.
    pub finetune_sweeps: usize,
    /// Supervision policy: retries, deadlines, fault injection.
    pub supervision: SupervisorConfig,
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self {
            num_shards: 4,
            strategy: PartitionStrategy::DegreeBalanced,
            sbp: SbpConfig::default(),
            finetune_variant: Variant::Hybrid,
            finetune_sweeps: 20,
            supervision: SupervisorConfig::default(),
        }
    }
}

impl ShardConfig {
    /// Convenience constructor: shard count and seed, defaults elsewhere.
    pub fn new(num_shards: usize, seed: u64) -> Self {
        Self {
            num_shards,
            sbp: SbpConfig {
                seed,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    /// Validate invariants; called by [`run_sharded_sbp`].
    pub fn validate(&self) -> Result<(), String> {
        if self.num_shards == 0 {
            return Err("num_shards must be at least 1".into());
        }
        if self.finetune_sweeps == 0 {
            return Err("finetune_sweeps must be at least 1".into());
        }
        self.supervision.validate()?;
        self.sbp.validate()
    }
}

/// Everything a sharded run produced, beyond the final [`SbpResult`].
#[derive(Debug, Clone)]
pub struct ShardedRun {
    /// The stitched, finetuned global partition.
    pub result: SbpResult,
    /// Vertex count, edge count and found block count of every shard.
    pub shard_summaries: Vec<ShardSummary>,
    /// Cut-edge fraction of the partition (directed edges crossing shards
    /// over total directed edges).
    pub cut_fraction: f64,
    /// Emulated distributed-rank strong scaling of the per-shard phase.
    pub scaling: EmulatedScaling,
    /// What the stitch phase did (including degradation accounting).
    pub stitch: StitchReport,
    /// Per-shard supervision record: attempts, failures, terminal status.
    pub outcomes: Vec<ShardOutcome>,
}

impl ShardedRun {
    /// True when at least one shard was dropped and its vertices were
    /// reassigned by majority vote — quality and scaling figures then
    /// describe a degraded run.
    pub fn degraded(&self) -> bool {
        self.outcomes.iter().any(|o| !o.survived())
    }
}

/// Per-shard result summary.
#[derive(Debug, Clone)]
pub struct ShardSummary {
    /// Vertices in the shard.
    pub num_vertices: usize,
    /// Directed intra-shard edges.
    pub num_edges: usize,
    /// Blocks the shard-local SBP run found (0 for dropped shards).
    pub num_blocks: usize,
    /// MDL of the shard-local partition (NaN for dropped shards).
    pub mdl_total: f64,
}

/// Run the full sharded pipeline: partition → per-shard SBP (supervised) →
/// stitch → finetune. Deterministic in `(graph, cfg)`.
pub fn run_sharded_sbp(graph: &Graph, cfg: &ShardConfig) -> Result<SbpResult, HsbpError> {
    Ok(run_sharded_sbp_detailed(graph, cfg)?.result)
}

/// Like [`run_sharded_sbp`], also returning per-shard summaries, cut
/// accounting, emulated scaling, supervision outcomes and the stitch
/// report.
pub fn run_sharded_sbp_detailed(graph: &Graph, cfg: &ShardConfig) -> Result<ShardedRun, HsbpError> {
    run_sharded_impl(graph, cfg, None)
}

/// Like [`run_sharded_sbp_detailed`], but checkpointing every completed
/// shard into `run_dir`. On a directory that already holds shards from an
/// interrupted run of the *same* `(graph, cfg)`, only unfinished shards are
/// re-run; a directory from a different run is refused with
/// [`HsbpError::Checkpoint`].
pub fn run_sharded_sbp_resumable(
    graph: &Graph,
    cfg: &ShardConfig,
    run_dir: impl AsRef<Path>,
) -> Result<ShardedRun, HsbpError> {
    run_sharded_impl(graph, cfg, Some(run_dir.as_ref()))
}

fn run_sharded_impl(
    graph: &Graph,
    cfg: &ShardConfig,
    run_dir: Option<&Path>,
) -> Result<ShardedRun, HsbpError> {
    cfg.validate().map_err(HsbpError::InvalidConfig)?;
    if let PartitionStrategy::FromParts(parts) = &cfg.strategy {
        if parts.len() != graph.num_vertices() {
            return Err(HsbpError::PartitionMismatch {
                partition_len: parts.len(),
                num_vertices: graph.num_vertices(),
            });
        }
    }
    let plan = partition_graph(graph, cfg.num_shards, &cfg.strategy);
    let ckpt = match run_dir {
        Some(dir) => Some(Checkpoint::open_or_create(dir, graph, cfg, &plan.parts)?),
        None => None,
    };
    let supervised = run_shards_supervised(&plan, cfg, ckpt.as_ref())?;
    let shard_summaries = plan
        .shards
        .iter()
        .zip(&supervised.results)
        .map(|(shard, result)| ShardSummary {
            num_vertices: shard.graph.num_vertices(),
            num_edges: shard.graph.num_edges(),
            num_blocks: result.as_ref().map_or(0, |r| r.num_blocks),
            mdl_total: result.as_ref().map_or(f64::NAN, |r| r.mdl.total),
        })
        .collect();
    let cut_fraction = plan.cut_fraction();
    let (result, stitch) = stitch_supervised(graph, &plan, &supervised.results, cfg)?;
    Ok(ShardedRun {
        result,
        shard_summaries,
        cut_fraction,
        scaling: supervised.scaling,
        stitch,
        outcomes: supervised.outcomes,
    })
}
