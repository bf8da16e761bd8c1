//! # hsbp — Hybrid Stochastic Block Partitioning
//!
//! A Rust implementation of MCMC-based community detection via stochastic
//! block partitioning, reproducing *"On the Parallelization of MCMC for
//! Community Detection"* (Wanye, Gleyzer, Kao, Feng — ICPP 2022): the serial
//! SBP baseline, the asynchronous-Gibbs **A-SBP** variant, and the hybrid
//! **H-SBP** algorithm that processes influential high-degree vertices
//! serially and the rest in parallel.
//!
//! This crate is a facade re-exporting the workspace's public API:
//!
//! | module | contents |
//! |---|---|
//! | [`graph`] | directed CSR multigraph, Matrix Market / edge-list I/O, statistics |
//! | [`generator`] | DCSBM graph sampler + the paper's dataset catalogs |
//! | [`blockmodel`] | DCSBM state, MDL (Eqs. 1–2), delta-MDL, MH proposals |
//! | [`metrics`] | NMI, directed modularity, normalized MDL, correlation |
//! | [`timing`] | wall-clock phase timers + simulated-thread cost model |
//! | [`collections`] | fast hashing, weighted sampling, sparse rows |
//! | [`shard`] | sharded divide-and-conquer SBP (partition → supervised per-shard SBP → stitch → finetune), exact distributed SBP (replicated blockmodel + fault-tolerant delta sync), fault injection, checkpoint/resume |
//!
//! with the most-used items (the SBP runner and its configuration) lifted to
//! the crate root.
//!
//! ## Quickstart
//!
//! ```
//! use hsbp::{run_sbp, SbpConfig, Variant};
//! use hsbp::generator::{generate, DcsbmConfig};
//! use hsbp::metrics::nmi;
//!
//! // Sample a graph with 4 planted communities…
//! let data = generate(DcsbmConfig {
//!     num_vertices: 300,
//!     num_communities: 4,
//!     target_num_edges: 2500,
//!     within_between_ratio: 3.0,
//!     seed: 42,
//!     ..Default::default()
//! });
//! // …and recover them with the hybrid parallel algorithm.
//! let result = run_sbp(&data.graph, &SbpConfig::new(Variant::Hybrid, 7));
//! assert!(nmi(&data.ground_truth, &result.assignment) > 0.8);
//! ```

pub use hsbp_collections as collections;
pub use hsbp_generator as generator;
pub use hsbp_graph as graph;
pub use hsbp_metrics as metrics;
pub use hsbp_timing as timing;

/// The DCSBM blockmodel layer.
pub use hsbp_blockmodel as blockmodel;

/// The SBP algorithms and driver.
pub use hsbp_core as sbp;

/// Sharded divide-and-conquer SBP.
pub use hsbp_shard as shard;

/// The resident community-detection service (TCP line-delimited JSON).
pub use hsbp_serve as serve;

/// Benchmark harnesses and machine-readable report schemas.
pub use hsbp_bench as bench;

pub use hsbp_core::{
    refine_partition, run_sbp, run_sbp_budgeted, run_sbp_checked, CancelToken, Consolidation,
    DriftEvent, HsbpError, McmcOutcome, RefineOutcome, RunBudget, RunStats, SbpConfig, SbpResult,
    StopCause, Variant,
};
pub use hsbp_graph::{Graph, GraphBuilder};
pub use hsbp_shard::{
    run_exact_sbp, run_exact_sbp_budgeted, run_sharded_sbp, run_sharded_sbp_detailed,
    run_sharded_sbp_resumable, ExactConfig, ExactRun, FaultPlan, NetFaultPlan, PartitionStrategy,
    ShardConfig, ShardOutcome, ShardStatus, SupervisorConfig, SYNC_PROTOCOL_VERSION,
};
