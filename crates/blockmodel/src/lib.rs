//! Degree-corrected stochastic blockmodel (DCSBM) state and inference
//! primitives.
//!
//! This crate owns everything the paper's Algorithms 1–4 need per step:
//!
//! * [`model`] — the [`Blockmodel`]: the sparse inter-block edge-count matrix
//!   `B`, per-block degrees, vertex assignment, in-place vertex moves, block
//!   merges, and (parallel) reconstruction from an assignment — the
//!   "rebuild" step at the end of every asynchronous-Gibbs sweep,
//! * [`mdl`] — Eqs. 1 and 2 of the paper: the DCSBM log-likelihood, the
//!   minimum description length, and the structure-less null MDL used for
//!   the paper's normalized-MDL metric,
//! * [`delta`] — computation of the MDL change for a proposed vertex move
//!   or block merge, without mutating the model, in O(degree + width of the
//!   two affected rows and columns) (ROADMAP.md item 1),
//! * [`propose`] — the Metropolis-Hastings proposal distribution over target
//!   blocks and the Hastings correction factor,
//! * [`fastmath`] — the delta-MDL term with its `ln`s served from a
//!   precomputed table for the integer counts that dominate the hot path
//!   (bit-identical to the libm reference in [`mdl`]).
//!
//! The key invariant maintained everywhere: `rows[r]` and `cols[s]` are two
//! views of the same matrix (`rows[r][s] == cols[s][r]`), `d_out[r]` is the
//! total of row `r`, and `d_in[s]` the total of column `s`. Tests enforce it
//! via [`Blockmodel::check_consistency`].

// Inference internals may panic deliberately on broken invariants
// (`panic!`/`unreachable!`), but never through a stray `unwrap`/`expect`.
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod audit;
pub mod delta;
pub mod fastmath;
pub mod mdl;
pub mod model;
pub mod propose;

pub use audit::{audit_blockmodel, repair_blockmodel, DriftReport};
pub use delta::{
    delta_mdl_merge, delta_mdl_merge_with, delta_mdl_move, evaluate_move, evaluate_move_with,
    replay_moves, EvalScratch, MoveEval, MoveScratch, NeighborCounts, ProposalArena, ProposalBatch,
};
pub use mdl::{dcsbm_entropy_term, log_likelihood_term, Mdl};
pub use model::{Block, Blockmodel};
pub use propose::{
    accept_move, hastings_correction, mh_step, propose_block, propose_block_frozen,
    propose_merge_target, propose_merge_target_frozen, BlockNeighborSampler,
};
