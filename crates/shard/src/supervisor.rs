//! Shard supervision: retries, deadlines, invariant validation, and
//! per-shard outcome accounting around the bare [`crate::runner`] jobs.
//!
//! Without supervision every shard runs as a bare pool job — one panicking
//! or hung shard would abort the whole divide-and-conquer run. Real
//! distributed SBP deployments lose ranks mid-phase (Wanye et al.,
//! arXiv:2305.18663), and the divide-and-conquer stitch only needs
//! *surviving* sub-models plus the full edge set (Roy & Atchadé,
//! arXiv:1610.09724), so the supervisor turns shard failures into policy
//! instead of aborts:
//!
//! * every attempt runs under [`std::panic::catch_unwind`], and — when a
//!   `shard_timeout` is set — under a **cooperative wall-clock deadline**
//!   ([`hsbp_core::RunBudget`]): an attempt that overruns stops itself at
//!   the next cancellation checkpoint and surfaces as a truncated result
//!   instead of hogging the rank;
//! * a completed attempt is checked against the **deadline** (the simulated
//!   cost account, falling back to wall clock — straggler detection) and a
//!   **post-shard invariant validator** (membership bounds, block counts,
//!   edge conservation — the last line of defence against corrupt results);
//! * failed attempts retry with exponential backoff and a reseeded
//!   splitmix stream per attempt, up to [`SupervisorConfig::max_retries`];
//! * a shard that exhausts its budget is **dropped**: the stitch phase
//!   degrades gracefully by majority-voting its vertices onto surviving
//!   shards' blocks over the cut edges (see [`crate::stitch`]).
//!
//! Attempt 1 uses the exact seed of the unsupervised path, so zero-fault
//! supervised runs are bit-identical to [`crate::runner::run_shards`].

use crate::checkpoint::Checkpoint;
use crate::faults::{corrupt_result, FaultKind};
use crate::partition::ShardPlan;
use crate::runner::{
    mix, scaling_from_costs, shard_cost, shard_sbp_config, CostBasis, EmulatedScaling,
};
use crate::ShardConfig;
use hsbp_blockmodel::Blockmodel;
use hsbp_core::{run_sbp_budgeted, CancelToken, HsbpError, RunBudget, SbpResult};
use hsbp_graph::Graph;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;
use std::time::{Duration, Instant};

/// Supervision policy of a sharded run.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Retries after the first attempt before a shard is dropped
    /// (`max_retries = 2` means up to 3 attempts).
    pub max_retries: usize,
    /// Per-attempt deadline. Checked against the shard's simulated cost
    /// account (abstract units) when it tracks one thread, its wall-clock
    /// seconds otherwise — and always against wall clock, both as a
    /// post-hoc straggler check *and* as a cooperative in-run deadline
    /// (the attempt's [`hsbp_core::RunBudget`]), so a genuinely slow host
    /// stops itself instead of running to completion. `None` disables
    /// straggler detection.
    pub shard_timeout: Option<f64>,
    /// Base of the exponential backoff before retry `k`, in milliseconds:
    /// `backoff_base_ms << (k - 1)`. 0 (the default) records the schedule
    /// in the outcome without sleeping — right for emulated ranks.
    pub backoff_base_ms: u64,
    /// Deterministic fault injection schedule (empty in production).
    pub fault_plan: crate::faults::FaultPlan,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            max_retries: 2,
            shard_timeout: None,
            backoff_base_ms: 0,
            fault_plan: crate::faults::FaultPlan::none(),
        }
    }
}

impl SupervisorConfig {
    /// Validate invariants; called via [`ShardConfig::validate`].
    pub fn validate(&self) -> Result<(), String> {
        if let Some(t) = self.shard_timeout {
            if !t.is_finite() || t <= 0.0 {
                return Err("shard_timeout must be finite and positive".into());
            }
        }
        Ok(())
    }
}

/// Why one shard attempt failed.
#[derive(Debug, Clone)]
pub enum FailureKind {
    /// The attempt panicked; the payload message is preserved.
    Panic(String),
    /// The attempt finished but blew its deadline.
    Straggler {
        /// Observed cost (simulated units or wall seconds; see
        /// [`CostBasis`]).
        cost: f64,
        /// The configured budget it exceeded.
        budget: f64,
    },
    /// The result failed the post-shard invariant validator.
    Invalid(String),
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureKind::Panic(msg) => write!(f, "panic: {msg}"),
            FailureKind::Straggler { cost, budget } => {
                write!(f, "straggler: cost {cost:.3} exceeded budget {budget:.3}")
            }
            FailureKind::Invalid(msg) => write!(f, "invalid result: {msg}"),
        }
    }
}

/// One failed attempt, as recorded in a [`ShardOutcome`].
#[derive(Debug, Clone)]
pub struct AttemptFailure {
    /// 1-based attempt number.
    pub attempt: usize,
    /// What went wrong.
    pub kind: FailureKind,
    /// Backoff scheduled before the next attempt (0 after the last).
    pub backoff_ms: u64,
}

/// Terminal state of one shard under supervision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardStatus {
    /// First attempt succeeded.
    Ok,
    /// Succeeded after at least one failed attempt.
    Recovered,
    /// Exhausted its retry budget; its vertices will be reassigned to
    /// surviving shards during the stitch.
    Dropped,
    /// Loaded from a checkpoint directory; not re-run.
    Resumed,
}

/// Everything the supervisor observed about one shard.
#[derive(Debug, Clone)]
pub struct ShardOutcome {
    /// Shard index.
    pub shard: usize,
    /// Attempts executed in this process (0 when resumed from checkpoint).
    pub attempts: usize,
    /// Every failed attempt, in order.
    pub failures: Vec<AttemptFailure>,
    /// How the shard ended up.
    pub status: ShardStatus,
}

impl ShardOutcome {
    /// True when the shard contributed a usable result.
    pub fn survived(&self) -> bool {
        self.status != ShardStatus::Dropped
    }
}

/// Results of the supervised per-shard phase.
#[derive(Debug)]
pub struct SupervisedShards {
    /// Per-shard result; `None` for dropped shards.
    pub results: Vec<Option<SbpResult>>,
    /// Per-shard supervision record (same order).
    pub outcomes: Vec<ShardOutcome>,
    /// Emulated rank scaling over the *surviving* shards' costs.
    pub scaling: EmulatedScaling,
}

/// Payload type of injected panics, so the quiet panic hook can tell them
/// apart from real bugs.
struct InjectedPanic {
    message: String,
}

/// Install (once) a panic hook that swallows *injected* panics — they are
/// expected control flow under fault injection — while real panics keep the
/// default backtrace behaviour.
fn quiet_injected_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedPanic>().is_none() {
                previous(info);
            }
        }));
    });
}

/// Render a caught panic payload as a message.
fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(injected) = payload.downcast_ref::<InjectedPanic>() {
        injected.message.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Post-shard invariant validator: the supervisor's defence against
/// corrupted results (injected or real). Checks
///
/// 1. **membership bounds** — one block id per vertex, every id `< num_blocks`;
/// 2. **block counts** — `1 ≤ num_blocks ≤ n` on non-empty shards, 0 on
///    empty ones;
/// 3. **edge conservation** — the blockmodel implied by the assignment
///    accounts for every directed edge weight of the shard's subgraph.
pub fn validate_shard_result(graph: &Graph, result: &SbpResult) -> Result<(), String> {
    let n = graph.num_vertices();
    if result.assignment.len() != n {
        return Err(format!(
            "membership vector covers {} vertices, shard has {n}",
            result.assignment.len()
        ));
    }
    if n == 0 {
        if result.num_blocks != 0 {
            return Err(format!(
                "empty shard reports {} block(s)",
                result.num_blocks
            ));
        }
        return Ok(());
    }
    if result.num_blocks == 0 || result.num_blocks > n {
        return Err(format!("block count {} outside 1..={n}", result.num_blocks));
    }
    for (v, &b) in result.assignment.iter().enumerate() {
        if b as usize >= result.num_blocks {
            return Err(format!(
                "vertex {v} assigned to block {b}, but only {} block(s) exist",
                result.num_blocks
            ));
        }
    }
    if !result.mdl.total.is_finite() {
        return Err(format!("non-finite MDL {}", result.mdl.total));
    }
    let bm = Blockmodel::from_assignment(graph, result.assignment.clone(), result.num_blocks);
    let modeled: u64 = (0..result.num_blocks).map(|r| bm.d_out(r as u32)).sum();
    if modeled != graph.total_weight() {
        return Err(format!(
            "blockmodel accounts for edge weight {modeled}, shard graph has {}",
            graph.total_weight()
        ));
    }
    Ok(())
}

/// One supervised shard: the attempt loop described in the module docs.
/// Returns the result (with its cost account) or `None` when dropped, plus
/// the outcome record either way.
fn supervise_shard(
    plan: &ShardPlan,
    cfg: &ShardConfig,
    shard: usize,
) -> (Option<(SbpResult, f64, CostBasis)>, ShardOutcome) {
    let sup = &cfg.supervision;
    let graph = &plan.shards[shard].graph;
    let max_attempts = sup.max_retries + 1;
    let mut failures: Vec<AttemptFailure> = Vec::new();

    for attempt in 1..=max_attempts {
        let shard_cfg = shard_sbp_config(plan, cfg, shard, attempt);
        let fault = sup.fault_plan.fault_for(shard, attempt);
        // Cooperative wall-clock deadline: instead of only judging a shard
        // *after* it finishes (PR 2), hand the timeout to the run itself so
        // a genuinely slow attempt stops at the next cancellation checkpoint
        // and comes back truncated rather than hogging the rank. Simulated
        // cost is still judged post-hoc below — it is only known at the end.
        let budget = match sup.shard_timeout {
            Some(secs) => RunBudget::unlimited().with_deadline(Duration::from_secs_f64(secs)),
            None => RunBudget::unlimited(),
        };
        let token = CancelToken::new();
        let started = Instant::now();
        let run = catch_unwind(AssertUnwindSafe(|| {
            if matches!(fault, Some(FaultKind::Panic)) {
                std::panic::panic_any(InjectedPanic {
                    message: format!("injected panic (shard {shard}, attempt {attempt})"),
                });
            }
            run_sbp_budgeted(graph, &shard_cfg, &budget, &token)
        }));
        let wall_secs = started.elapsed().as_secs_f64();

        let failure = match run {
            Err(payload) => FailureKind::Panic(payload_message(payload.as_ref())),
            Ok(Err(e)) => FailureKind::Invalid(format!("run failed: {e}")),
            Ok(Ok(mut result)) => {
                if matches!(fault, Some(FaultKind::Corrupt)) {
                    corrupt_result(&mut result, mix(shard_cfg.seed, attempt as u64));
                }
                let (mut cost, basis) = shard_cost(&result);
                if let Some(FaultKind::Delay(secs)) = fault {
                    cost += secs;
                }
                let over_deadline = result.truncated()
                    || sup.shard_timeout.is_some_and(|budget| {
                        cost > budget || (basis == CostBasis::Simulated && wall_secs > budget)
                    });
                if over_deadline {
                    let budget = sup.shard_timeout.unwrap_or(f64::INFINITY);
                    FailureKind::Straggler {
                        cost: cost.max(wall_secs),
                        budget,
                    }
                } else {
                    match validate_shard_result(graph, &result) {
                        Err(msg) => FailureKind::Invalid(msg),
                        Ok(()) => {
                            let status = if failures.is_empty() {
                                ShardStatus::Ok
                            } else {
                                ShardStatus::Recovered
                            };
                            return (
                                Some((result, cost, basis)),
                                ShardOutcome {
                                    shard,
                                    attempts: attempt,
                                    failures,
                                    status,
                                },
                            );
                        }
                    }
                }
            }
        };

        let is_last = attempt == max_attempts;
        let backoff_ms = if is_last {
            0
        } else {
            // backoff_base_ms << (attempt - 1), saturating.
            sup.backoff_base_ms
                .saturating_mul(1u64 << (attempt as u32 - 1).min(63))
        };
        failures.push(AttemptFailure {
            attempt,
            kind: failure,
            backoff_ms,
        });
        if backoff_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(backoff_ms));
        }
    }

    let attempts = max_attempts;
    (
        None,
        ShardOutcome {
            shard,
            attempts,
            failures,
            status: ShardStatus::Dropped,
        },
    )
}

/// Run every shard of `plan` under supervision, resuming completed shards
/// from `checkpoint` when one is given and saving each newly completed
/// shard back to it.
///
/// Returns [`HsbpError::AllShardsFailed`] when no shard survives (there is
/// nothing to stitch or degrade onto); individual failures otherwise
/// degrade, recorded in the outcomes.
pub fn run_shards_supervised(
    plan: &ShardPlan,
    cfg: &ShardConfig,
    checkpoint: Option<&Checkpoint>,
) -> Result<SupervisedShards, HsbpError> {
    quiet_injected_panics();
    let k = plan.num_shards();

    // Resume whatever the checkpoint already holds.
    let mut resumed: Vec<Option<(SbpResult, f64, CostBasis, usize)>> = Vec::with_capacity(k);
    for shard in 0..k {
        let loaded = match checkpoint {
            Some(ckpt) => ckpt.load_shard(shard, plan.shards[shard].graph.num_vertices(), cfg)?,
            None => None,
        };
        resumed.push(loaded.map(|l| (l.result, l.cost, l.basis, l.attempts)));
    }

    let pending: Vec<usize> = (0..k).filter(|&s| resumed[s].is_none()).collect();
    let fresh: Vec<(usize, Result<_, HsbpError>)> = hsbp_parallel::global().map_vec(
        pending,
        || (),
        |(), shard| {
            let (success, outcome) = supervise_shard(plan, cfg, shard);
            if let (Some((result, cost, basis)), Some(ckpt)) = (&success, checkpoint) {
                if let Err(e) = ckpt.save_shard(shard, result, *cost, *basis, outcome.attempts) {
                    return (shard, Err(e));
                }
            }
            (shard, Ok((success, outcome)))
        },
    );

    let mut results: Vec<Option<SbpResult>> = (0..k).map(|_| None).collect();
    let mut outcomes: Vec<Option<ShardOutcome>> = (0..k).map(|_| None).collect();
    let mut costs = vec![0.0f64; k];
    let mut bases = vec![CostBasis::Missing; k];

    for (shard, slot) in resumed.into_iter().enumerate() {
        if let Some((result, cost, basis, _attempts)) = slot {
            results[shard] = Some(result);
            costs[shard] = cost;
            bases[shard] = basis;
            outcomes[shard] = Some(ShardOutcome {
                shard,
                attempts: 0,
                failures: Vec::new(),
                status: ShardStatus::Resumed,
            });
        }
    }
    for (shard, entry) in fresh {
        let (success, outcome) = entry?;
        if let Some((result, cost, basis)) = success {
            results[shard] = Some(result);
            costs[shard] = cost;
            bases[shard] = basis;
        }
        outcomes[shard] = Some(outcome);
    }
    let outcomes: Vec<ShardOutcome> = outcomes
        .into_iter()
        .enumerate()
        .map(|(shard, o)| match o {
            Some(o) => o,
            // Unreachable: every shard is either resumed or freshly run.
            None => ShardOutcome {
                shard,
                attempts: 0,
                failures: Vec::new(),
                status: ShardStatus::Dropped,
            },
        })
        .collect();

    if results.iter().all(Option::is_none) && k > 0 {
        return Err(HsbpError::AllShardsFailed { num_shards: k });
    }

    Ok(SupervisedShards {
        results,
        outcomes,
        scaling: scaling_from_costs(costs, bases),
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use crate::partition::{partition_graph, PartitionStrategy};
    use hsbp_graph::Vertex;

    fn two_cliques(size: usize) -> Graph {
        let mut edges = Vec::new();
        for base in [0, size] {
            for a in 0..size {
                for b in 0..size {
                    if a != b {
                        edges.push(((base + a) as Vertex, (base + b) as Vertex));
                    }
                }
            }
        }
        Graph::from_edges(2 * size, &edges)
    }

    fn cfg_with_plan(num_shards: usize, plan: FaultPlan) -> ShardConfig {
        ShardConfig {
            num_shards,
            supervision: SupervisorConfig {
                fault_plan: plan,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn zero_faults_match_unsupervised_bit_for_bit() {
        let g = two_cliques(8);
        let cfg = cfg_with_plan(2, FaultPlan::none());
        let plan = partition_graph(&g, 2, &PartitionStrategy::RoundRobin);
        let (plain, _) = crate::runner::run_shards(&plan, &cfg);
        let sup = run_shards_supervised(&plan, &cfg, None).unwrap();
        for (shard, (p, s)) in plain.iter().zip(&sup.results).enumerate() {
            let s = s.as_ref().expect("no shard dropped");
            assert_eq!(p.assignment, s.assignment, "shard {shard}");
            assert_eq!(p.num_blocks, s.num_blocks, "shard {shard}");
        }
        assert!(sup.outcomes.iter().all(|o| o.status == ShardStatus::Ok));
        assert!(!sup.scaling.mixed_basis());
    }

    #[test]
    fn transient_panic_recovers_with_retry() {
        let g = two_cliques(6);
        let cfg = cfg_with_plan(2, FaultPlan::none().panic_on(1, 1));
        let plan = partition_graph(&g, 2, &PartitionStrategy::RoundRobin);
        let sup = run_shards_supervised(&plan, &cfg, None).unwrap();
        assert!(sup.results[1].is_some());
        assert_eq!(sup.outcomes[1].status, ShardStatus::Recovered);
        assert_eq!(sup.outcomes[1].attempts, 2);
        assert_eq!(sup.outcomes[1].failures.len(), 1);
        assert!(matches!(
            sup.outcomes[1].failures[0].kind,
            FailureKind::Panic(_)
        ));
        assert_eq!(sup.outcomes[0].status, ShardStatus::Ok);
    }

    #[test]
    fn permanent_panic_drops_shard() {
        let g = two_cliques(6);
        let cfg = cfg_with_plan(2, FaultPlan::none().kill(0));
        let plan = partition_graph(&g, 2, &PartitionStrategy::RoundRobin);
        let sup = run_shards_supervised(&plan, &cfg, None).unwrap();
        assert!(sup.results[0].is_none());
        assert_eq!(sup.outcomes[0].status, ShardStatus::Dropped);
        assert_eq!(sup.outcomes[0].attempts, cfg.supervision.max_retries + 1);
        assert_eq!(sup.scaling.per_shard_basis[0], CostBasis::Missing);
        assert!(sup.results[1].is_some());
    }

    #[test]
    fn corrupt_results_caught_and_retried() {
        let g = two_cliques(6);
        let cfg = cfg_with_plan(2, FaultPlan::none().corrupt_on(0, 1));
        let plan = partition_graph(&g, 2, &PartitionStrategy::RoundRobin);
        let sup = run_shards_supervised(&plan, &cfg, None).unwrap();
        assert_eq!(sup.outcomes[0].status, ShardStatus::Recovered);
        assert!(matches!(
            sup.outcomes[0].failures[0].kind,
            FailureKind::Invalid(_)
        ));
        let result = sup.results[0].as_ref().unwrap();
        validate_shard_result(&plan.shards[0].graph, result).unwrap();
    }

    #[test]
    fn straggler_deadline_trips_on_injected_delay() {
        let g = two_cliques(6);
        let mut cfg = cfg_with_plan(2, FaultPlan::none().delay_on(0, 1, 1e9));
        cfg.supervision.shard_timeout = Some(1e6);
        let plan = partition_graph(&g, 2, &PartitionStrategy::RoundRobin);
        let sup = run_shards_supervised(&plan, &cfg, None).unwrap();
        assert_eq!(sup.outcomes[0].status, ShardStatus::Recovered);
        assert!(matches!(
            sup.outcomes[0].failures[0].kind,
            FailureKind::Straggler { .. }
        ));
    }

    #[test]
    fn all_shards_failing_is_an_error() {
        let g = two_cliques(4);
        let cfg = cfg_with_plan(2, FaultPlan::none().kill(0).kill(1));
        let plan = partition_graph(&g, 2, &PartitionStrategy::RoundRobin);
        match run_shards_supervised(&plan, &cfg, None) {
            Err(HsbpError::AllShardsFailed { num_shards }) => assert_eq!(num_shards, 2),
            other => panic!("expected AllShardsFailed, got {other:?}"),
        }
    }

    #[test]
    fn validator_rejects_corruptions() {
        let g = two_cliques(4);
        let cfg = ShardConfig::default();
        let plan = partition_graph(&g, 1, &PartitionStrategy::RoundRobin);
        let (mut results, _) = crate::runner::run_shards(&plan, &cfg);
        let mut r = results.remove(0);
        validate_shard_result(&g, &r).unwrap();
        let good = r.clone();
        r.assignment[0] = r.num_blocks as u32 + 3;
        assert!(validate_shard_result(&g, &r).is_err());
        r = good.clone();
        r.num_blocks = 0;
        assert!(validate_shard_result(&g, &r).is_err());
        r = good.clone();
        r.assignment.pop();
        assert!(validate_shard_result(&g, &r).is_err());
        r = good;
        r.mdl.total = f64::NAN;
        assert!(validate_shard_result(&g, &r).is_err());
    }
}
