//! The MCMC phase: repeated sweeps until the MDL improvement stalls
//! (Algorithms 2–4's shared outer `repeat … until ΔMDL < t × MDL or x
//! times` loop). [`run_mcmc_rounds`] is that loop, once, for every engine;
//! a [`PhaseExecutor`] supplies the sweeps — [`VariantSweeps`] for the
//! in-process variants, the exact distributed mode's cluster for sync
//! rounds.

mod async_gibbs;
mod consolidate;
mod exact_async;
mod hybrid;
mod metropolis;

use crate::budget::RunControl;
use crate::config::{SbpConfig, Variant};
use crate::error::HsbpError;
use crate::stats::{DriftEvent, RunStats};
use hsbp_blockmodel::{audit_blockmodel, mdl, repair_blockmodel, Blockmodel, ProposalArena};
use hsbp_collections::sample::mix_words;
use hsbp_graph::{stats::vertices_by_degree_desc, Graph, Vertex};
use hsbp_parallel::{ChunkPlan, ThreadPool};
use std::collections::VecDeque;

pub use consolidate::consolidate_sweep;
pub use metropolis::mh_pass;

/// Counters returned by one round of sweeps.
#[derive(Debug, Clone, Copy, Default)]
pub struct SweepCounters {
    /// Vertex-move proposals evaluated.
    pub proposals: u64,
    /// Vertex-move proposals accepted.
    pub accepted: u64,
}

/// Reusable per-phase state shared by all sweep variants: the serial-path
/// proposal arena and EA-SBP's persistent model replicas. Parallel sweep
/// workers no longer lease arenas per section — each worker thread holds a
/// pool-resident [`ProposalArena`] for its lifetime
/// (see [`hsbp_parallel::with_resident`]). One workspace per MCMC phase
/// keeps the steady-state hot path allocation-free without leaking stale
/// replicas across the merge phases that reshape the model in between.
#[derive(Debug, Default)]
pub(crate) struct PhaseWorkspace {
    /// Arena for the serial sweep paths and the consolidation replay.
    pub arena: ProposalArena,
    /// EA-SBP's per-worker model replicas, kept in sync by move deltas.
    /// Cleared whenever the global model changes behind their back (audit
    /// repair, injected corruption) so the next sweep reseeds them.
    pub replicas: Vec<Blockmodel>,
}

/// Degree-weighted chunk plan over the contiguous vertex range
/// `start..end`: boundaries follow the incident-arity prefix sum (read
/// straight off the CSR offsets), plus 1 per vertex so zero-degree vertices
/// still carry their fixed per-proposal cost.
pub(crate) fn degree_plan(graph: &Graph, start: usize, end: usize, target: usize) -> ChunkPlan {
    let base = (graph.incident_prefix(start) + start) as u64;
    ChunkPlan::from_prefix(end - start, target, |i| {
        (graph.incident_prefix(start + i) + start + i) as u64 - base
    })
}

/// Result of one full MCMC phase.
#[derive(Debug, Clone, Copy)]
pub struct McmcOutcome {
    /// Sweeps performed.
    pub sweeps: usize,
    /// MDL of the final state.
    pub mdl: mdl::Mdl,
    /// True if the threshold test fired (false = sweep cap hit).
    pub converged: bool,
    /// True when a budget or cancellation stopped the phase early; the
    /// in-flight sweep (if any) may be partially applied, so the driver
    /// discards the whole evaluation.
    pub truncated: bool,
}

/// How an MCMC phase runs its sweeps. The phase loop
/// ([`run_mcmc_rounds`]) owns the budget checks, the convergence window,
/// drift injection and the audit; an executor owns only how one round of
/// sweeps is carried out and what it must redo when the loop rewrites the
/// model behind its back.
pub trait PhaseExecutor {
    /// Sweeps per round. Budget, drift-injection and audit checks run at
    /// round boundaries.
    fn batch(&self) -> usize;

    /// Prepare a new phase on `bm` (the merge phase has just reshaped it).
    fn begin_phase(&mut self, graph: &Graph, bm: &Blockmodel, stats: &mut RunStats);

    /// Run `batch` sweeps with phase-local sweep indices
    /// `sweep_base..sweep_base + batch`, drawing randomness from `salt`.
    #[allow(clippy::too_many_arguments)]
    fn run_round(
        &mut self,
        graph: &Graph,
        bm: &mut Blockmodel,
        salt: u64,
        sweep_base: u64,
        batch: usize,
        stats: &mut RunStats,
        ctrl: &RunControl,
    ) -> Result<SweepCounters, HsbpError>;

    /// The phase loop rewrote `bm` outside a round (drift injected or
    /// repaired); any copy of the model the executor holds is stale.
    fn model_rewritten(&mut self, graph: &Graph, bm: &Blockmodel, stats: &mut RunStats);
}

/// Per-vertex proposal costs in a fixed iteration order (static across the
/// sweeps of one phase, since proposal cost depends only on degree).
fn proposal_costs(graph: &Graph, order: impl Iterator<Item = Vertex>, cfg: &SbpConfig) -> Vec<f64> {
    order
        .map(|v| cfg.cost_model.proposal_cost(graph.incident_arity(v)))
        .collect()
}

/// The in-process executor: one sweep of the configured [`Variant`] per
/// round.
pub struct VariantSweeps<'a> {
    cfg: &'a SbpConfig,
    pool: &'static ThreadPool,
    /// The serial-then-parallel vertex order: degree-descending for H-SBP,
    /// `0..n` for SBP (all serial), empty for the other variants.
    order: Vec<Vertex>,
    /// Length of the serial head of `order`.
    vstar_len: usize,
    /// Proposal costs of the vertices swept in parallel.
    parallel_costs: Vec<f64>,
    /// Static chunk plan for H-SBP's permuted tail: the tail order isn't
    /// contiguous in vertex ids, so its per-item weights can't be read off
    /// the CSR prefix directly.
    tail_plan: ChunkPlan,
    ws: PhaseWorkspace,
    /// Past models for the distributed-staleness emulation (only populated
    /// when it is actually consulted).
    history: VecDeque<Blockmodel>,
}

impl<'a> VariantSweeps<'a> {
    /// An executor for `cfg`'s variant; per-phase state is built by
    /// [`PhaseExecutor::begin_phase`].
    pub fn new(cfg: &'a SbpConfig) -> Self {
        Self {
            cfg,
            pool: hsbp_parallel::pool_for(cfg.threads),
            order: Vec::new(),
            vstar_len: 0,
            parallel_costs: Vec::new(),
            tail_plan: ChunkPlan::even(0, 1),
            ws: PhaseWorkspace::default(),
            history: VecDeque::new(),
        }
    }

    /// Stale A-SBP evaluation (staleness > 1, unbatched).
    fn use_stale(&self) -> bool {
        self.cfg.variant == Variant::AsyncGibbs
            && self.cfg.asbp_staleness > 1
            && self.cfg.asbp_batches == 1
    }
}

impl PhaseExecutor for VariantSweeps<'_> {
    fn batch(&self) -> usize {
        1
    }

    fn begin_phase(&mut self, graph: &Graph, bm: &Blockmodel, _stats: &mut RunStats) {
        let cfg = self.cfg;
        let n = graph.num_vertices();
        (self.order, self.vstar_len) = match cfg.variant {
            Variant::Hybrid => {
                let order = vertices_by_degree_desc(graph);
                let vstar = ((n as f64) * cfg.hybrid_serial_fraction).round() as usize;
                (order, vstar.min(n))
            }
            // SBP is H-SBP with every vertex in the serial head.
            Variant::Metropolis => ((0..n as Vertex).collect(), n),
            _ => (Vec::new(), 0),
        };
        let tail = &self.order[self.vstar_len..];
        self.parallel_costs = match cfg.variant {
            Variant::AsyncGibbs | Variant::ExactAsync => proposal_costs(graph, 0..n as Vertex, cfg),
            Variant::Metropolis | Variant::Hybrid => {
                proposal_costs(graph, tail.iter().copied(), cfg)
            }
        };
        let weights: Vec<u64> = tail
            .iter()
            .map(|&v| graph.incident_arity(v) as u64 + 1)
            .collect();
        self.tail_plan = ChunkPlan::from_costs(&weights, self.pool.chunk_target());
        self.ws = PhaseWorkspace::default();
        self.history.clear();
        if self.use_stale() {
            self.history.push_back(bm.clone());
        }
    }

    fn run_round(
        &mut self,
        graph: &Graph,
        bm: &mut Blockmodel,
        salt: u64,
        sweep: u64,
        batch: usize,
        stats: &mut RunStats,
        ctrl: &RunControl,
    ) -> Result<SweepCounters, HsbpError> {
        debug_assert_eq!(batch, 1, "the in-process executor runs one sweep per round");
        let stale = self.use_stale();
        let (cfg, exec, ws) = (self.cfg, self.pool, &mut self.ws);
        let costs = &self.parallel_costs;
        match cfg.variant {
            Variant::AsyncGibbs if stale => {
                // Evaluate against the oldest retained model (at most
                // `staleness` sweeps old), then retire it.
                let eval_model = self.history.front().cloned().unwrap_or_else(|| bm.clone());
                let counters = async_gibbs::sweep_stale(
                    graph,
                    bm,
                    &eval_model,
                    cfg,
                    salt,
                    sweep,
                    stats,
                    costs,
                    exec,
                    ws,
                )?;
                self.history.push_back(bm.clone());
                while self.history.len() > cfg.asbp_staleness {
                    self.history.pop_front();
                }
                Ok(counters)
            }
            Variant::AsyncGibbs => {
                async_gibbs::sweep(graph, bm, cfg, salt, sweep, stats, costs, ctrl, exec, ws)
            }
            Variant::ExactAsync => {
                exact_async::sweep(graph, bm, cfg, salt, sweep, stats, costs, ctrl, exec, ws)
            }
            Variant::Metropolis | Variant::Hybrid => hybrid::sweep(
                graph,
                bm,
                &self.order,
                self.vstar_len,
                cfg,
                salt,
                sweep,
                stats,
                costs,
                ctrl,
                exec,
                &self.tail_plan,
                ws,
            ),
        }
    }

    fn model_rewritten(&mut self, _graph: &Graph, _bm: &Blockmodel, _stats: &mut RunStats) {
        // The EA-SBP replicas no longer match the global model: the next
        // sweep reseeds them.
        self.ws.replicas.clear();
    }
}

/// Run the MCMC phase of the configured variant on `bm` until convergence.
///
/// `phase_index` salts the RNG so successive phases of one run draw
/// independent randomness.
///
/// # Panics
/// Panics if a strict-mode drift audit fails; use
/// [`run_mcmc_phase_controlled`] to receive that as `HsbpError::StateDrift`
/// instead.
pub fn run_mcmc_phase(
    graph: &Graph,
    bm: &mut Blockmodel,
    cfg: &SbpConfig,
    phase_index: u64,
    stats: &mut RunStats,
) -> McmcOutcome {
    run_mcmc_phase_controlled(graph, bm, cfg, phase_index, stats, &RunControl::unlimited())
        .unwrap_or_else(|e| panic!("{e}"))
}

/// [`run_mcmc_phase`] under a [`RunControl`], with the cadenced drift
/// audit: [`run_mcmc_rounds`] over [`VariantSweeps`].
pub fn run_mcmc_phase_controlled(
    graph: &Graph,
    bm: &mut Blockmodel,
    cfg: &SbpConfig,
    phase_index: u64,
    stats: &mut RunStats,
    ctrl: &RunControl,
) -> Result<McmcOutcome, HsbpError> {
    let mut exec = VariantSweeps::new(cfg);
    run_mcmc_rounds(graph, bm, cfg, phase_index, stats, ctrl, &mut exec)
}

/// The MCMC phase loop: rounds of `exec.batch()` sweeps until the MDL
/// improvement stalls or `cfg.max_sweeps` is reached.
///
/// Budget/cancel checks run at every round boundary (and, inside every
/// serial pass, [`mh_pass`], every `VERTEX_CHECK_STRIDE` vertices); a
/// tripped control marks the outcome `truncated` and stops the phase.
/// Drift injection (`cfg.inject_drift_at_sweep`) and the audit (every
/// `cfg.audit_cadence` cumulative sweeps) fire on the round whose sweeps
/// cross their boundary — with one sweep per round, exactly at that sweep. Audit divergence is
/// repaired in place and recorded in `stats.drift_events`, or — with
/// `cfg.strict_audit` — returned as `Err(HsbpError::StateDrift)`.
pub fn run_mcmc_rounds<E: PhaseExecutor + ?Sized>(
    graph: &Graph,
    bm: &mut Blockmodel,
    cfg: &SbpConfig,
    phase_index: u64,
    stats: &mut RunStats,
    ctrl: &RunControl,
    exec: &mut E,
) -> Result<McmcOutcome, HsbpError> {
    let salt = mix_words(&[cfg.seed, 0x4d43_4d43, phase_index]); // "MCMC"
    let n = graph.num_vertices();
    stats.mcmc_phases += 1;
    exec.begin_phase(graph, bm, stats);

    let mut previous = mdl::mdl(bm, n, graph.total_weight());
    let mut recent_deltas: Vec<f64> = Vec::with_capacity(3);
    let mut sweeps = 0;
    let mut converged = false;
    let mut truncated = false;
    while sweeps < cfg.max_sweeps {
        if ctrl.sweep_stop_cause(stats.mcmc_sweeps).is_some() {
            truncated = true;
            break;
        }
        let batch = exec.batch().min(cfg.max_sweeps - sweeps);
        let counters = exec.run_round(graph, bm, salt, sweeps as u64, batch, stats, ctrl)?;
        if ctrl.interrupt_cause().is_some() {
            // The round may have bailed out part-way; the whole evaluation
            // is discarded by the driver, so don't count it.
            truncated = true;
            break;
        }
        let before = stats.mcmc_sweeps;
        sweeps += batch;
        stats.mcmc_sweeps += batch;
        stats.proposals += counters.proposals;
        stats.accepted += counters.accepted;
        let after = stats.mcmc_sweeps;

        if let Some(at) = cfg
            .inject_drift_at_sweep
            .filter(|&at| before < at && at <= after)
        {
            bm.inject_state_corruption(mix_words(&[
                cfg.seed,
                0x4452_4946, // "DRIF"
                at as u64,
            ]));
            exec.model_rewritten(graph, bm, stats);
        }
        if cfg.audit_cadence > 0 && before / cfg.audit_cadence != after / cfg.audit_cadence {
            stats.audits_run += 1;
            if let Some(report) = audit_blockmodel(bm, graph) {
                if cfg.strict_audit {
                    return Err(HsbpError::StateDrift {
                        sweep: after,
                        detail: report.summary(),
                    });
                }
                repair_blockmodel(bm, graph);
                exec.model_rewritten(graph, bm, stats);
                stats.drift_events.push(DriftEvent {
                    total_sweep: after,
                    phase_index,
                    mismatches: report.mismatches,
                    mdl_delta: report.mdl_delta,
                    repaired: true,
                });
            }
        }

        let current = mdl::mdl(bm, n, graph.total_weight());
        let delta = previous.total - current.total;
        previous = current;
        if recent_deltas.len() == 3 {
            recent_deltas.remove(0);
        }
        recent_deltas.push(delta.abs());
        if recent_deltas.len() == 3 {
            let mean: f64 = recent_deltas.iter().sum::<f64>() / 3.0;
            if mean < cfg.mcmc_threshold * previous.total.abs().max(1.0) {
                converged = true;
                break;
            }
        }
    }

    Ok(McmcOutcome {
        sweeps,
        mdl: previous,
        converged,
        truncated,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use hsbp_graph::Graph;

    fn planted(n_per: u32, groups: u32, seed: u64) -> (Graph, Vec<u32>) {
        // Dense planted partition without the generator crate (core's tests
        // must not depend on it for the unit level).
        let n = n_per * groups;
        let mut edges = Vec::new();
        let mut state = seed;
        let mut rnd = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for u in 0..n {
            let gu = u / n_per;
            for _ in 0..6 {
                // ~85% within-community edges.
                let v = if rnd() % 100 < 85 {
                    gu * n_per + rnd() % n_per
                } else {
                    rnd() % n
                };
                if v != u {
                    edges.push((u, v));
                }
            }
        }
        let truth: Vec<u32> = (0..n).map(|v| v / n_per).collect();
        (Graph::from_edges(n as usize, &edges), truth)
    }

    #[test]
    fn mcmc_phase_reduces_mdl_from_random_partition() {
        for variant in [Variant::Metropolis, Variant::AsyncGibbs, Variant::Hybrid] {
            let (g, _) = planted(30, 3, 11);
            // Start from a deliberately wrong 3-block partition.
            let wrong: Vec<u32> = (0..g.num_vertices() as u32).map(|v| v % 3).collect();
            let mut bm = Blockmodel::from_assignment(&g, wrong, 3);
            let before = mdl::mdl(&bm, g.num_vertices(), g.total_weight()).total;
            let cfg = SbpConfig {
                variant,
                seed: 5,
                ..Default::default()
            };
            let mut stats = RunStats::new(&cfg);
            let out = run_mcmc_phase(&g, &mut bm, &cfg, 0, &mut stats);
            assert!(out.sweeps >= 1);
            assert!(
                out.mdl.total < before,
                "{variant:?}: MDL {} did not improve on {before}",
                out.mdl.total
            );
            bm.check_consistency(&g).unwrap();
            assert!(stats.proposals > 0);
        }
    }

    #[test]
    fn mcmc_recovers_planted_partition_from_truth_start() {
        // Starting at the truth, the sampler must not wander away: the MDL
        // should stay at or below the truth's MDL.
        for variant in [Variant::Metropolis, Variant::AsyncGibbs, Variant::Hybrid] {
            let (g, truth) = planted(25, 4, 23);
            let mut bm = Blockmodel::from_assignment(&g, truth.clone(), 4);
            let truth_mdl = mdl::mdl(&bm, g.num_vertices(), g.total_weight()).total;
            let cfg = SbpConfig {
                variant,
                seed: 9,
                max_sweeps: 20,
                ..Default::default()
            };
            let mut stats = RunStats::new(&cfg);
            let out = run_mcmc_phase(&g, &mut bm, &cfg, 0, &mut stats);
            assert!(
                out.mdl.total <= truth_mdl * 1.02,
                "{variant:?}: wandered from {truth_mdl} to {}",
                out.mdl.total
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        for variant in [Variant::Metropolis, Variant::AsyncGibbs, Variant::Hybrid] {
            let (g, _) = planted(20, 3, 31);
            let wrong: Vec<u32> = (0..g.num_vertices() as u32).map(|v| v % 3).collect();
            let cfg = SbpConfig {
                variant,
                seed: 77,
                max_sweeps: 5,
                ..Default::default()
            };
            let run = |()| {
                let mut bm = Blockmodel::from_assignment(&g, wrong.clone(), 3);
                let mut stats = RunStats::new(&cfg);
                run_mcmc_phase(&g, &mut bm, &cfg, 0, &mut stats);
                bm.assignment().to_vec()
            };
            assert_eq!(run(()), run(()), "{variant:?} is not deterministic");
        }
    }

    #[test]
    fn sweep_cap_respected() {
        let (g, _) = planted(20, 3, 41);
        let wrong: Vec<u32> = (0..g.num_vertices() as u32).map(|v| v % 3).collect();
        let mut bm = Blockmodel::from_assignment(&g, wrong, 3);
        let cfg = SbpConfig {
            variant: Variant::AsyncGibbs,
            seed: 1,
            max_sweeps: 2,
            mcmc_threshold: 0.0, // never converge by threshold
            ..Default::default()
        };
        let mut stats = RunStats::new(&cfg);
        let out = run_mcmc_phase(&g, &mut bm, &cfg, 0, &mut stats);
        assert_eq!(out.sweeps, 2);
        assert!(!out.converged);
    }

    #[test]
    fn sim_time_accumulates_per_variant() {
        let (g, _) = planted(25, 3, 51);
        let wrong: Vec<u32> = (0..g.num_vertices() as u32).map(|v| v % 3).collect();
        for variant in [Variant::Metropolis, Variant::AsyncGibbs, Variant::Hybrid] {
            let cfg = SbpConfig {
                variant,
                seed: 3,
                max_sweeps: 4,
                ..Default::default()
            };
            let mut bm = Blockmodel::from_assignment(&g, wrong.clone(), 3);
            let mut stats = RunStats::new(&cfg);
            run_mcmc_phase(&g, &mut bm, &cfg, 0, &mut stats);
            let t1 = stats.sim_mcmc_time(1).unwrap();
            let t128 = stats.sim_mcmc_time(128).unwrap();
            assert!(t1 > 0.0, "{variant:?}: no sim time recorded");
            match variant {
                // Serial MH cannot speed up.
                Variant::Metropolis => assert_eq!(t1, t128),
                // Parallel variants must improve with threads.
                _ => assert!(t128 < t1, "{variant:?}: t1 {t1} vs t128 {t128}"),
            }
        }
    }

    #[test]
    fn asbp_parallel_sim_time_beats_sbp_at_128_threads() {
        let (g, _) = planted(40, 3, 61);
        let wrong: Vec<u32> = (0..g.num_vertices() as u32).map(|v| v % 3).collect();
        let mut times = std::collections::HashMap::new();
        for variant in [Variant::Metropolis, Variant::AsyncGibbs] {
            let cfg = SbpConfig {
                variant,
                seed: 3,
                max_sweeps: 3,
                mcmc_threshold: 0.0,
                ..Default::default()
            };
            let mut bm = Blockmodel::from_assignment(&g, wrong.clone(), 3);
            let mut stats = RunStats::new(&cfg);
            run_mcmc_phase(&g, &mut bm, &cfg, 0, &mut stats);
            // Per-sweep normalised time removes the sweep-count difference.
            times.insert(
                variant.name(),
                stats.sim_mcmc_time(128).unwrap() / stats.mcmc_sweeps as f64,
            );
        }
        assert!(
            times["A-SBP"] < times["SBP"],
            "per-sweep A-SBP {} should beat SBP {} at 128 threads",
            times["A-SBP"],
            times["SBP"]
        );
    }

    #[test]
    fn batched_asbp_runs_and_stays_consistent() {
        let (g, _) = planted(20, 3, 71);
        let wrong: Vec<u32> = (0..g.num_vertices() as u32).map(|v| v % 3).collect();
        let mut bm = Blockmodel::from_assignment(&g, wrong, 3);
        let cfg = SbpConfig {
            variant: Variant::AsyncGibbs,
            asbp_batches: 4,
            seed: 2,
            max_sweeps: 3,
            ..Default::default()
        };
        let mut stats = RunStats::new(&cfg);
        run_mcmc_phase(&g, &mut bm, &cfg, 0, &mut stats);
        bm.check_consistency(&g).unwrap();
    }

    #[test]
    fn exact_async_improves_and_stays_consistent() {
        let (g, _) = planted(25, 3, 101);
        let wrong: Vec<u32> = (0..g.num_vertices() as u32).map(|v| v % 3).collect();
        for workers in [1usize, 4, 16] {
            let mut bm = Blockmodel::from_assignment(&g, wrong.clone(), 3);
            let before = mdl::mdl(&bm, g.num_vertices(), g.total_weight()).total;
            let cfg = SbpConfig {
                variant: Variant::ExactAsync,
                exact_async_workers: workers,
                seed: 5,
                ..Default::default()
            };
            let mut stats = RunStats::new(&cfg);
            let out = run_mcmc_phase(&g, &mut bm, &cfg, 0, &mut stats);
            bm.check_consistency(&g).unwrap();
            assert!(
                out.mdl.total < before,
                "workers {workers}: MDL {} did not improve on {before}",
                out.mdl.total
            );
        }
    }

    #[test]
    fn exact_async_one_worker_equals_serial_sweep_outcome() {
        // With a single worker the local replica is never stale, so one
        // EA-SBP sweep is exactly one serial MH sweep (same counter RNG).
        let (g, _) = planted(15, 2, 111);
        let wrong: Vec<u32> = (0..g.num_vertices() as u32).map(|v| v % 2).collect();
        let run = |variant: Variant| {
            let mut bm = Blockmodel::from_assignment(&g, wrong.clone(), 2);
            let cfg = SbpConfig {
                variant,
                exact_async_workers: 1,
                max_sweeps: 1,
                mcmc_threshold: 0.0,
                seed: 4,
                ..Default::default()
            };
            let mut stats = RunStats::new(&cfg);
            run_mcmc_phase(&g, &mut bm, &cfg, 0, &mut stats);
            bm.assignment().to_vec()
        };
        assert_eq!(run(Variant::ExactAsync), run(Variant::Metropolis));
    }

    #[test]
    fn stale_asbp_runs_and_stays_consistent() {
        let (g, _) = planted(20, 3, 91);
        let wrong: Vec<u32> = (0..g.num_vertices() as u32).map(|v| v % 3).collect();
        for staleness in [2usize, 4] {
            let mut bm = Blockmodel::from_assignment(&g, wrong.clone(), 3);
            let before = mdl::mdl(&bm, g.num_vertices(), g.total_weight()).total;
            let cfg = SbpConfig {
                variant: Variant::AsyncGibbs,
                asbp_staleness: staleness,
                seed: 6,
                max_sweeps: 8,
                ..Default::default()
            };
            let mut stats = RunStats::new(&cfg);
            let out = run_mcmc_phase(&g, &mut bm, &cfg, 0, &mut stats);
            bm.check_consistency(&g).unwrap();
            // Stale evaluation can thrash (the very pathology the ablation
            // studies), so only require that the chain stays sane.
            assert!(
                out.mdl.total.is_finite() && out.mdl.total < before.abs() * 2.0 + 100.0,
                "staleness {staleness}: MDL exploded from {before} to {}",
                out.mdl.total
            );
        }
    }

    #[test]
    fn staleness_changes_trajectory() {
        // Staleness > 1 must actually change behaviour relative to fresh
        // A-SBP (same seed, same graph).
        let (g, _) = planted(20, 3, 95);
        let wrong: Vec<u32> = (0..g.num_vertices() as u32).map(|v| v % 3).collect();
        let run = |staleness: usize| {
            let mut bm = Blockmodel::from_assignment(&g, wrong.clone(), 3);
            let cfg = SbpConfig {
                variant: Variant::AsyncGibbs,
                asbp_staleness: staleness,
                seed: 8,
                max_sweeps: 6,
                mcmc_threshold: 0.0,
                ..Default::default()
            };
            let mut stats = RunStats::new(&cfg);
            run_mcmc_phase(&g, &mut bm, &cfg, 0, &mut stats);
            bm.assignment().to_vec()
        };
        assert_ne!(run(1), run(4));
    }

    #[test]
    fn consolidation_modes_are_bit_identical() {
        // Incremental replay, rebuild and the auto crossover must produce
        // the same trajectory — the canonical sparse rows make the two
        // paths byte-identical, and Verify double-checks that per sweep.
        use crate::config::Consolidation;
        let (g, _) = planted(25, 3, 121);
        let wrong: Vec<u32> = (0..g.num_vertices() as u32).map(|v| v % 3).collect();
        for variant in [Variant::AsyncGibbs, Variant::Hybrid, Variant::ExactAsync] {
            let run = |mode: Consolidation| {
                let mut bm = Blockmodel::from_assignment(&g, wrong.clone(), 3);
                let cfg = SbpConfig {
                    variant,
                    seed: 13,
                    max_sweeps: 6,
                    mcmc_threshold: 0.0,
                    consolidation: mode,
                    ..Default::default()
                };
                let mut stats = RunStats::new(&cfg);
                run_mcmc_phase(&g, &mut bm, &cfg, 0, &mut stats);
                (bm, stats)
            };
            let (inc, inc_stats) = run(Consolidation::ForceIncremental);
            let (reb, reb_stats) = run(Consolidation::ForceRebuild);
            let (auto, _) = run(Consolidation::Auto);
            let (verify, _) = run(Consolidation::Verify);
            assert_eq!(inc, reb, "{variant:?}: incremental != rebuild");
            assert_eq!(inc, auto, "{variant:?}: auto diverged");
            assert_eq!(inc, verify, "{variant:?}: verify diverged");
            assert!(inc_stats.consolidations_incremental > 0, "{variant:?}");
            assert_eq!(inc_stats.consolidations_rebuild, 0, "{variant:?}");
            assert!(reb_stats.consolidations_rebuild > 0, "{variant:?}");
            assert_eq!(reb_stats.consolidated_moves, 0, "{variant:?}");
        }
    }

    #[test]
    fn auto_consolidation_goes_incremental_once_settled() {
        // From a converged start almost nothing moves, so the cost-model
        // crossover must pick the incremental path for the late sweeps.
        let (g, truth) = planted(30, 3, 131);
        let mut bm = Blockmodel::from_assignment(&g, truth, 3);
        let cfg = SbpConfig {
            variant: Variant::AsyncGibbs,
            seed: 7,
            max_sweeps: 6,
            mcmc_threshold: 0.0,
            ..Default::default()
        };
        let mut stats = RunStats::new(&cfg);
        run_mcmc_phase(&g, &mut bm, &cfg, 0, &mut stats);
        assert!(
            stats.consolidations_incremental > 0,
            "auto never used the incremental path: {stats:?}"
        );
    }

    #[test]
    fn hybrid_serial_fraction_extremes() {
        let (g, _) = planted(15, 2, 81);
        let wrong: Vec<u32> = (0..g.num_vertices() as u32).map(|v| v % 2).collect();
        for fraction in [0.0, 1.0] {
            let mut bm = Blockmodel::from_assignment(&g, wrong.clone(), 2);
            let cfg = SbpConfig {
                variant: Variant::Hybrid,
                hybrid_serial_fraction: fraction,
                seed: 2,
                max_sweeps: 3,
                ..Default::default()
            };
            let mut stats = RunStats::new(&cfg);
            run_mcmc_phase(&g, &mut bm, &cfg, 0, &mut stats);
            bm.check_consistency(&g).unwrap();
        }
    }
}
