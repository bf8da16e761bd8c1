//! The outer agglomerative search: alternate merge and MCMC phases while
//! golden-section searching over the number of communities (paper Fig. 1's
//! "search for number of communities").
//!
//! Bracket bookkeeping follows the graph-challenge reference driver: keep
//! the best-MDL state (`mid`) plus the tightest worse states on either side
//! (`lower` fewer blocks, `upper` more blocks). Until a bracket exists,
//! keep halving the block count; once `mid` is bracketed, bisect the larger
//! gap (golden ratio) until no interior candidates remain.
//!
//! [`golden_section_search`] is the only copy of this loop. `detect` runs
//! it from the singleton partition with the in-process
//! [`VariantSweeps`] executor; the exact distributed mode swaps in its
//! channel-synchronised executor; the sharded pipeline's stitch runs it
//! from the stitched union of the shards' partitions.
//!
//! Budgeted runs ([`run_sbp_budgeted`]) check a [`RunControl`] at the top
//! of every evaluation and inside both phases. When the control trips, the
//! in-flight evaluation is **discarded** — not pushed to the trajectory,
//! not counted as an outer iteration — so the returned best-so-far state is
//! always a prefix point of what the uninterrupted run would have produced.

use crate::budget::{CancelToken, RunBudget, RunControl, StopCause};
use crate::config::SbpConfig;
use crate::error::HsbpError;
use crate::mcmc::{run_mcmc_rounds, PhaseExecutor, VariantSweeps};
use crate::merge::merge_phase_controlled;
use crate::stats::RunStats;
use hsbp_blockmodel::{mdl, Block, Blockmodel};
use hsbp_graph::Graph;
use hsbp_timing::Phase;

/// Final result of a full SBP run.
#[derive(Debug, Clone)]
pub struct SbpResult {
    /// Community of every vertex.
    pub assignment: Vec<Block>,
    /// Number of communities found.
    pub num_blocks: usize,
    /// MDL of the returned partition.
    pub mdl: mdl::Mdl,
    /// Normalized MDL (`MDL / MDL_null`).
    ///
    /// **Edgeless contract:** for a graph with no edges the null MDL is 0,
    /// the ratio is undefined, and this field is `NaN`. Use
    /// [`SbpResult::normalized_mdl_checked`] to handle that case as an
    /// `Option` instead of comparing NaN.
    pub normalized_mdl: f64,
    /// Every `(num_blocks, MDL)` point the golden-section search evaluated,
    /// in evaluation order. The search's start state is not included
    /// (the sharded pipeline's stitch prepends its union). Budgeted runs
    /// hold the completed prefix only — a truncated evaluation is never
    /// recorded.
    pub trajectory: Vec<(usize, f64)>,
    /// Instrumentation gathered during the run, including
    /// [`RunStats::stop_cause`] and any drift events.
    pub stats: RunStats,
}

impl SbpResult {
    /// True when a budget or cancellation stopped the run early; the result
    /// is the best fully-evaluated state up to that point.
    pub fn truncated(&self) -> bool {
        self.stats.stop_cause.is_truncated()
    }

    /// [`SbpResult::normalized_mdl`] with the edgeless-graph case made
    /// explicit: `None` when the null MDL is 0 (no edges), `Some(ratio)`
    /// otherwise.
    pub fn normalized_mdl_checked(&self) -> Option<f64> {
        if self.normalized_mdl.is_nan() {
            None
        } else {
            Some(self.normalized_mdl)
        }
    }
}

/// One evaluated point of the search: a partition at a given block count.
#[derive(Debug, Clone)]
struct Evaluated {
    num_blocks: usize,
    mdl_total: f64,
    assignment: Vec<Block>,
}

/// Golden-section interior fraction.
const GOLDEN: f64 = 0.382;

/// Run stochastic block partitioning with the configured MCMC variant.
///
/// Deterministic in `(graph, cfg)`.
///
/// # Panics
/// Panics if `cfg` fails validation or a strict-mode drift audit fails; use
/// [`run_sbp_checked`] to receive those as [`HsbpError`] instead.
pub fn run_sbp(graph: &Graph, cfg: &SbpConfig) -> SbpResult {
    run_sbp_checked(graph, cfg).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`run_sbp`]: configuration problems come back as
/// `HsbpError::InvalidConfig` and strict-mode drift as
/// `HsbpError::StateDrift` instead of panicking. Unbudgeted and
/// uncancellable; bit-identical to [`run_sbp`].
pub fn run_sbp_checked(graph: &Graph, cfg: &SbpConfig) -> Result<SbpResult, HsbpError> {
    run_sbp_budgeted(graph, cfg, &RunBudget::unlimited(), &CancelToken::new())
}

/// [`run_sbp_checked`] under a [`RunBudget`] and a [`CancelToken`].
///
/// When the budget expires or the token is cancelled, the run stops
/// cooperatively and returns its best-so-far result with
/// `stats.stop_cause` recording why (see [`SbpResult::truncated`]). The
/// in-flight evaluation is discarded, so the truncated result always
/// equals a prefix point of the uninterrupted run's trajectory; with an
/// unlimited budget the checks are pure reads and the output is
/// bit-identical to [`run_sbp`].
pub fn run_sbp_budgeted(
    graph: &Graph,
    cfg: &SbpConfig,
    budget: &RunBudget,
    token: &CancelToken,
) -> Result<SbpResult, HsbpError> {
    cfg.validate().map_err(HsbpError::InvalidConfig)?;
    budget.validate().map_err(HsbpError::InvalidConfig)?;
    let n = graph.num_vertices();
    golden_section_search(
        graph,
        cfg,
        ((0..n as Block).collect(), n),
        0,
        &RunControl::new(budget, token),
        RunStats::new(cfg),
        &mut VariantSweeps::new(cfg),
    )
}

/// The golden-section search over the block count, starting from
/// `start = (assignment, num_blocks)` with phase salts counting up from
/// `first_phase`. Each evaluation is a merge phase down to the next target
/// followed by an MCMC phase run through `exec` ([`run_mcmc_rounds`]).
///
/// `stats` may already hold counters from earlier work (the stitch passes
/// the shards' stats in); the evaluation cap `cfg.max_outer_iterations`
/// and the evaluation budget count this search's evaluations only. The
/// start state is the initial `upper` bracket end and is not recorded in
/// the returned trajectory.
pub fn golden_section_search<E: PhaseExecutor + ?Sized>(
    graph: &Graph,
    cfg: &SbpConfig,
    start: (Vec<Block>, usize),
    first_phase: u64,
    ctrl: &RunControl,
    mut stats: RunStats,
    exec: &mut E,
) -> Result<SbpResult, HsbpError> {
    let n = graph.num_vertices();
    if n == 0 {
        return Ok(SbpResult {
            assignment: Vec::new(),
            num_blocks: 0,
            mdl: mdl::Mdl {
                log_likelihood: 0.0,
                model_complexity: 0.0,
                total: 0.0,
            },
            normalized_mdl: f64::NAN,
            trajectory: Vec::new(),
            stats,
        });
    }

    let (assignment, num_blocks) = start;
    let mut bm = stats.timer.time(Phase::Other, || {
        Blockmodel::from_assignment(graph, assignment, num_blocks)
    });
    let start_mdl = mdl::mdl(&bm, n, graph.total_weight()).total;

    // Search state: `upper` starts at the start state.
    let mut upper: Option<Evaluated> = Some(Evaluated {
        num_blocks,
        mdl_total: start_mdl,
        assignment: bm.assignment().to_vec(),
    });
    let mut mid: Option<Evaluated> = None;
    let mut lower: Option<Evaluated> = None;

    let mut phase_index = first_phase;
    // One trajectory point per completed evaluation of this search.
    let mut trajectory: Vec<(usize, f64)> = Vec::new();
    loop {
        if trajectory.len() >= cfg.max_outer_iterations {
            break;
        }
        if let Some(cause) = ctrl.eval_stop_cause(stats.mcmc_sweeps, trajectory.len()) {
            stats.stop_cause = cause;
            break;
        }
        let bracketed = mid.is_some() && lower.is_some();
        // Decide the next block-count target and the state to merge from.
        let target = if !bracketed {
            let b = bm.num_blocks();
            if b <= 1 {
                break;
            }
            (((b as f64) * cfg.block_reduction_rate).round() as usize).clamp(1, b - 1)
        } else {
            let (Some(u), Some(m), Some(l)) = (&upper, &mid, &lower) else {
                unreachable!("bracketed implies upper, mid and lower are all set");
            };
            if u.num_blocks.saturating_sub(l.num_blocks) <= 2 {
                break; // no interior candidate besides mid
            }
            let gap_hi = u.num_blocks - m.num_blocks;
            let gap_lo = m.num_blocks - l.num_blocks;
            if gap_hi >= gap_lo && gap_hi >= 2 {
                // Interior of (mid, upper): merge down from upper's state.
                let t = m.num_blocks + ((gap_hi as f64) * GOLDEN).round() as usize;
                let t = t.clamp(m.num_blocks + 1, u.num_blocks - 1);
                let source = u.clone();
                bm = stats.timer.time(Phase::Other, || {
                    Blockmodel::from_assignment(graph, source.assignment, source.num_blocks)
                });
                t
            } else if gap_lo >= 2 {
                // Interior of (lower, mid): merge down from mid's state.
                let t = m.num_blocks - ((gap_lo as f64) * GOLDEN).round() as usize;
                let t = t.clamp(l.num_blocks + 1, m.num_blocks - 1);
                let source = m.clone();
                bm = stats.timer.time(Phase::Other, || {
                    Blockmodel::from_assignment(graph, source.assignment, source.num_blocks)
                });
                t
            } else {
                break;
            }
        };

        // Merge phase, then MCMC phase (timed separately; the closures
        // borrow `stats` themselves, so time with explicit Instants).
        let start = std::time::Instant::now();
        let merge_out =
            merge_phase_controlled(graph, &mut bm, target, cfg, phase_index, &mut stats, ctrl);
        stats.timer.add(Phase::BlockMerge, start.elapsed());
        if merge_out.truncated {
            stats.stop_cause = ctrl.interrupt_cause().unwrap_or(StopCause::Cancelled);
            break; // discard the in-flight evaluation
        }
        let start = std::time::Instant::now();
        let mcmc_res = run_mcmc_rounds(graph, &mut bm, cfg, phase_index, &mut stats, ctrl, exec);
        stats.timer.add(Phase::Mcmc, start.elapsed());
        let mcmc_out = mcmc_res?;
        if mcmc_out.truncated {
            stats.stop_cause = ctrl
                .sweep_stop_cause(stats.mcmc_sweeps)
                .unwrap_or(StopCause::Cancelled);
            break; // discard the in-flight evaluation
        }
        phase_index += 1;
        stats.outer_iterations += 1;

        let evaluated = Evaluated {
            num_blocks: bm.num_blocks(),
            mdl_total: mcmc_out.mdl.total,
            assignment: bm.assignment().to_vec(),
        };
        trajectory.push((evaluated.num_blocks, evaluated.mdl_total));

        // Bracket update.
        match mid.take() {
            None => mid = Some(evaluated),
            Some(displaced) if evaluated.mdl_total < displaced.mdl_total => {
                if evaluated.num_blocks < displaced.num_blocks {
                    // We improved while moving left: old mid bounds us above.
                    if displaced.num_blocks < upper.as_ref().map_or(usize::MAX, |u| u.num_blocks) {
                        upper = Some(displaced);
                    }
                } else if displaced.num_blocks > lower.as_ref().map_or(0, |l| l.num_blocks) {
                    lower = Some(displaced);
                }
                mid = Some(evaluated);
            }
            Some(m) => {
                if evaluated.num_blocks < m.num_blocks {
                    if lower
                        .as_ref()
                        .is_none_or(|l| evaluated.num_blocks > l.num_blocks)
                    {
                        lower = Some(evaluated);
                    }
                } else if evaluated.num_blocks > m.num_blocks
                    && upper
                        .as_ref()
                        .is_none_or(|u| evaluated.num_blocks < u.num_blocks)
                {
                    upper = Some(evaluated);
                }
                mid = Some(m);
            }
        }

        // Reached the floor while still unbracketed: nothing left to try.
        if !(mid.is_some() && lower.is_some()) && bm.num_blocks() <= 1 {
            break;
        }
    }

    let Some(best) = mid.or(upper) else {
        unreachable!("at least the start state exists");
    };
    let bm = Blockmodel::from_assignment(graph, best.assignment.clone(), best.num_blocks);
    let final_mdl = mdl::mdl(&bm, n, graph.total_weight());
    let null = mdl::null_mdl(graph.total_weight());
    Ok(SbpResult {
        assignment: best.assignment,
        num_blocks: best.num_blocks,
        mdl: final_mdl,
        normalized_mdl: if null == 0.0 {
            f64::NAN
        } else {
            final_mdl.total / null
        },
        trajectory,
        stats,
    })
}
