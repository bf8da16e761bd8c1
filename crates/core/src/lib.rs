//! Stochastic block partitioning (SBP) and its parallel MCMC variants —
//! the paper's core contribution.
//!
//! Three MCMC phase algorithms over a shared agglomerative driver:
//!
//! * **SBP** (Algorithm 2) — the serial Metropolis-Hastings baseline: one
//!   vertex at a time, accepted moves update the blockmodel immediately.
//! * **A-SBP** (Algorithm 3) — asynchronous-Gibbs: all vertices evaluated in
//!   parallel against the sweep-start blockmodel (one-sweep-stale state),
//!   accepted moves only flip a membership vector, and the blockmodel is
//!   rebuilt once per sweep.
//! * **H-SBP** (Algorithm 4) — hybrid: the highest-degree fraction of
//!   vertices (default 15%, matching the paper) is processed serially with
//!   immediate updates, the long low-degree tail asynchronously.
//!
//! The outer loop ([`driver`]) is the standard agglomerative golden-section
//! search over the number of communities: halve via the block-merge phase
//! (Algorithm 1, [`merge`]), refine with the MCMC phase ([`mcmc`]), track
//! the three best `(num_blocks, MDL)` brackets, and bisect until the
//! bracket closes.
//!
//! Every run is deterministic given [`SbpConfig::seed`] — parallel sweeps
//! draw per-vertex randomness from a counter RNG, so results do not depend
//! on thread scheduling.
//!
//! ```
//! use hsbp_core::{run_sbp, SbpConfig, Variant};
//! use hsbp_generator::{generate, DcsbmConfig};
//!
//! let data = generate(DcsbmConfig { num_vertices: 200, num_communities: 4,
//!     target_num_edges: 1600, seed: 7, ..Default::default() });
//! let result = run_sbp(&data.graph, &SbpConfig { variant: Variant::Hybrid,
//!     seed: 1, ..Default::default() });
//! assert!(result.num_blocks >= 1);
//! ```

// Algorithm internals may still panic on broken invariants, but they must
// do so deliberately (`panic!`/`unreachable!` with a message), never through
// a stray `unwrap`/`expect` on a fallible path.
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod budget;
pub mod config;
pub mod driver;
pub mod error;
pub mod influence;
pub mod mcmc;
pub mod merge;
pub mod refine;
pub mod stats;

pub use budget::{CancelToken, RunBudget, RunControl, StopCause};
pub use config::{fault_directives, Consolidation, SbpConfig, Variant};
pub use driver::{golden_section_search, run_sbp, run_sbp_budgeted, run_sbp_checked, SbpResult};
pub use error::{write_atomic, HsbpError};
pub use influence::{asbp_convergence_risk, degree_concentration, degree_gini, AsbpRisk};
pub use mcmc::{
    run_mcmc_phase, run_mcmc_phase_controlled, run_mcmc_rounds, McmcOutcome, PhaseExecutor,
    SweepCounters, VariantSweeps,
};
pub use merge::{merge_phase, merge_phase_controlled, MergeOutcome};
pub use refine::{expand_dirty_region, extend_assignment, refine_partition, RefineOutcome};
pub use stats::{DriftEvent, RunStats};
