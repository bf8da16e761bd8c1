//! Fast, dependency-light container and sampling primitives used across hsbp.
//!
//! The blockmodel inner loops are dominated by hash-map lookups keyed by small
//! integers (block ids) and by weighted discrete sampling (choosing a
//! neighbour edge or a block proportionally to edge counts). This crate
//! provides:
//!
//! * [`hash`] — an Fx-style hasher (the algorithm used by rustc) plus
//!   `FxHashMap`/`FxHashSet` aliases, much faster than SipHash for integer
//!   keys, and the one FNV-1a checksum,
//! * [`frame`] — the length-prefixed, FNV-1a-checksummed record format of
//!   the serve WAL and the exact-mode sync channel,
//! * [`sample`] — O(1) alias-table sampling, cumulative (binary-search)
//!   sampling and a tiny splitmix-based counter RNG used for deterministic
//!   per-vertex randomness in parallel sweeps,
//! * [`fastmath`] — the `x·ln x` entropy helper and the precomputed `ln`
//!   table behind the delta-MDL kernel,
//! * [`sparse`] — the sparse row/column vectors backing the blockmodel
//!   matrix `B` (sorted-vector representation: canonical and deterministic),
//! * [`scratch`] — epoch-stamped reusable counters so the per-proposal hot
//!   path performs zero heap allocations in steady state.

pub mod fastmath;
pub mod frame;
pub mod hash;
pub mod sample;
pub mod scratch;
pub mod sparse;

pub use hash::{fnv1a, FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use sample::{AliasTable, CumulativeSampler, SplitMix64};
pub use scratch::ScratchCounter;
pub use sparse::SparseRow;
