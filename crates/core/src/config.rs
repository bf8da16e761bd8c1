//! Run configuration for stochastic block partitioning.

use hsbp_timing::{Chunking, CostModel, DEFAULT_THREAD_COUNTS};

/// Which MCMC phase algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Serial Metropolis-Hastings (the paper's "SBP" baseline, Alg. 2).
    Metropolis,
    /// Asynchronous Gibbs ("A-SBP", Alg. 3).
    AsyncGibbs,
    /// Hybrid serial/asynchronous ("H-SBP", Alg. 4).
    Hybrid,
    /// Exact asynchronous Gibbs with per-worker model replicas (Terenin et
    /// al.; the design §3.1 of the paper argues against — kept for the
    /// replication-overhead ablation).
    ExactAsync,
}

impl Variant {
    /// Paper-style display name.
    pub fn name(&self) -> &'static str {
        match self {
            Variant::Metropolis => "SBP",
            Variant::AsyncGibbs => "A-SBP",
            Variant::Hybrid => "H-SBP",
            Variant::ExactAsync => "EA-SBP",
        }
    }
}

/// How the parallel sweep variants fold a sweep's accepted moves back into
/// the blockmodel at the end of the sweep (batch for A-SBP with
/// `asbp_batches > 1`).
///
/// Both strategies produce byte-identical blockmodels — the sparse rows are
/// canonical sorted vectors and the incremental path applies exact integer
/// deltas — so the choice is purely a performance trade-off, made per sweep
/// by the [`hsbp_timing::CostModel`] crossover in [`Consolidation::Auto`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Consolidation {
    /// Per-sweep cost-model decision: apply accepted moves via O(degree)
    /// `apply_move` deltas when that undercuts a full O(E) rebuild.
    #[default]
    Auto,
    /// Always apply moves incrementally (testing/ablation).
    ForceIncremental,
    /// Always rebuild from the membership vector — the pre-consolidation
    /// behaviour (testing/ablation).
    ForceRebuild,
    /// Run *both* paths every sweep and error with
    /// [`crate::HsbpError::StateDrift`] if they disagree (debug harness;
    /// pays for both).
    Verify,
}

/// Full configuration of an SBP run.
#[derive(Debug, Clone)]
pub struct SbpConfig {
    /// MCMC phase algorithm.
    pub variant: Variant,
    /// Inverse temperature of the MH acceptance test (graph-challenge
    /// reference uses 3).
    pub beta: f64,
    /// Convergence threshold `t`: the MCMC phase stops when the mean
    /// per-sweep MDL improvement over the last three sweeps falls below
    /// `t · MDL` (Algorithms 2–4's "until ΔMDL < t × MDL").
    pub mcmc_threshold: f64,
    /// Sweep cap `x` per MCMC phase.
    pub max_sweeps: usize,
    /// Fraction of highest-degree vertices H-SBP processes serially
    /// (paper §4.2 reserves 15%).
    pub hybrid_serial_fraction: f64,
    /// Merge candidates proposed per block in the merge phase (Alg. 1's
    /// `x`; reference uses 10).
    pub merge_proposals_per_block: usize,
    /// Fraction of blocks removed per agglomerative step (0.5 = halve).
    pub block_reduction_rate: f64,
    /// Number of batches an A-SBP sweep is split into, with a blockmodel
    /// rebuild after each batch. 1 = the paper's A-SBP; larger values are
    /// the "batched A-SBP" extension sketched in the paper's conclusion.
    pub asbp_batches: usize,
    /// Age (in sweeps) of the blockmodel A-SBP evaluates against. 1 = the
    /// paper's A-SBP (state is at most one sweep stale); larger values
    /// emulate a *distributed* A-SBP where workers synchronise every
    /// `asbp_staleness` rounds (paper §6 future work). Ignored by the other
    /// variants and by batched sweeps (`asbp_batches > 1`).
    pub asbp_staleness: usize,
    /// Number of logical workers (model replicas) for
    /// [`Variant::ExactAsync`].
    pub exact_async_workers: usize,
    /// Master seed; the run is a pure function of `(graph, config)`.
    pub seed: u64,
    /// OS worker threads for the parallel sweep sections. 0 = auto: the
    /// `HSBP_THREADS` env var if set, else the host's available parallelism.
    /// Results are bit-identical across thread counts (per-vertex counter
    /// RNG + fixed output slots), so this is purely a performance knob.
    pub threads: usize,
    /// Safety cap on outer (merge + MCMC) iterations.
    pub max_outer_iterations: usize,
    /// Drift-audit cadence in cumulative MCMC sweeps: every `audit_cadence`
    /// sweeps the blockmodel + MDL are rebuilt from the membership vector
    /// and compared against the incrementally-maintained state. 0 disables
    /// auditing. Audits are read-only on healthy state, so any cadence
    /// leaves healthy runs bit-identical.
    pub audit_cadence: usize,
    /// In strict mode a detected drift aborts the run with
    /// `HsbpError::StateDrift`; otherwise the state is repaired from
    /// membership and the event recorded in `RunStats::drift_events`.
    pub strict_audit: bool,
    /// Test hook: deterministically corrupt the incremental blockmodel
    /// state right after this cumulative sweep completes (membership is
    /// left intact, so the next audit must catch it). `None` in production.
    pub inject_drift_at_sweep: Option<usize>,
    /// End-of-sweep consolidation strategy for the parallel variants.
    pub consolidation: Consolidation,
    /// Cost model for the simulated-thread accounting.
    pub cost_model: CostModel,
    /// Virtual thread counts tracked by the simulated scheduler.
    pub sim_thread_counts: Vec<usize>,
    /// Parallel-loop schedule used by the simulated scheduler.
    pub sim_chunking: Chunking,
}

impl Default for SbpConfig {
    fn default() -> Self {
        Self {
            variant: Variant::Metropolis,
            beta: 3.0,
            mcmc_threshold: 1e-4,
            max_sweeps: 50,
            hybrid_serial_fraction: 0.15,
            merge_proposals_per_block: 10,
            block_reduction_rate: 0.5,
            asbp_batches: 1,
            asbp_staleness: 1,
            exact_async_workers: 8,
            seed: 0,
            threads: 0,
            max_outer_iterations: 200,
            audit_cadence: 64,
            strict_audit: false,
            inject_drift_at_sweep: None,
            consolidation: Consolidation::Auto,
            cost_model: CostModel::default(),
            sim_thread_counts: DEFAULT_THREAD_COUNTS.to_vec(),
            sim_chunking: Chunking::Static,
        }
    }
}

impl SbpConfig {
    /// Convenience constructor: given variant and seed, defaults elsewhere.
    pub fn new(variant: Variant, seed: u64) -> Self {
        Self {
            variant,
            seed,
            ..Default::default()
        }
    }

    /// Validate invariants; called by the driver.
    // Negated comparisons are deliberate: they reject NaN as well.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn validate(&self) -> Result<(), String> {
        if !(self.beta > 0.0) {
            return Err("beta must be positive".into());
        }
        if !(self.mcmc_threshold >= 0.0) {
            return Err("mcmc_threshold must be non-negative".into());
        }
        if self.max_sweeps == 0 {
            return Err("max_sweeps must be at least 1".into());
        }
        if !(0.0..=1.0).contains(&self.hybrid_serial_fraction) {
            return Err("hybrid_serial_fraction must be in [0, 1]".into());
        }
        if self.merge_proposals_per_block == 0 {
            return Err("merge_proposals_per_block must be at least 1".into());
        }
        if !(self.block_reduction_rate > 0.0 && self.block_reduction_rate < 1.0) {
            return Err("block_reduction_rate must be in (0, 1)".into());
        }
        if self.asbp_batches == 0 {
            return Err("asbp_batches must be at least 1".into());
        }
        if self.asbp_staleness == 0 {
            return Err("asbp_staleness must be at least 1".into());
        }
        if self.exact_async_workers == 0 {
            return Err("exact_async_workers must be at least 1".into());
        }
        if self.sim_thread_counts.is_empty() {
            return Err("sim_thread_counts must not be empty".into());
        }
        Ok(())
    }
}

/// Split a comma-separated fault-plan spec into `(directive, kind, arg)`
/// triples: parts are trimmed, empty parts skipped, and each part is cut
/// at its first `:`. A part without one is an error naming `shape`, the
/// form the grammar expects. The shard, network and serve fault-plan
/// grammars share this step and parse their own arguments.
pub fn fault_directives<'a>(
    spec: &'a str,
    shape: &'a str,
) -> impl Iterator<Item = Result<(&'a str, &'a str, &'a str), String>> + 'a {
    spec.split(',')
        .map(str::trim)
        .filter(|directive| !directive.is_empty())
        .map(move |directive| {
            let (kind, arg) = directive
                .split_once(':')
                .ok_or_else(|| format!("`{directive}`: expected {shape}"))?;
            Ok((directive, kind, arg))
        })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        assert!(SbpConfig::default().validate().is_ok());
        for v in [
            Variant::Metropolis,
            Variant::AsyncGibbs,
            Variant::Hybrid,
            Variant::ExactAsync,
        ] {
            assert!(SbpConfig::new(v, 3).validate().is_ok());
        }
    }

    #[test]
    fn variant_names_match_paper() {
        assert_eq!(Variant::Metropolis.name(), "SBP");
        assert_eq!(Variant::AsyncGibbs.name(), "A-SBP");
        assert_eq!(Variant::Hybrid.name(), "H-SBP");
        assert_eq!(Variant::ExactAsync.name(), "EA-SBP");
    }

    #[test]
    fn validation_catches_bad_values() {
        let bad = |f: fn(&mut SbpConfig)| {
            let mut c = SbpConfig::default();
            f(&mut c);
            c.validate().is_err()
        };
        assert!(bad(|c| c.beta = 0.0));
        assert!(bad(|c| c.mcmc_threshold = -1.0));
        assert!(bad(|c| c.max_sweeps = 0));
        assert!(bad(|c| c.hybrid_serial_fraction = 1.5));
        assert!(bad(|c| c.merge_proposals_per_block = 0));
        assert!(bad(|c| c.block_reduction_rate = 1.0));
        assert!(bad(|c| c.asbp_batches = 0));
        assert!(bad(|c| c.asbp_staleness = 0));
        assert!(bad(|c| c.exact_async_workers = 0));
        assert!(bad(|c| c.sim_thread_counts = vec![]));
    }
}
