//! Integration tests of the exact distributed mode: bit-identity with the
//! single-model EA-SBP run, fault-plan transparency (hostile wire, same
//! chain), degradation on shard death, and the divide-and-conquer accuracy
//! regression the exact algorithm exists to fix.

use hsbp::generator::{generate, DcsbmConfig};
use hsbp::metrics::nmi;
use hsbp::{
    run_exact_sbp, run_exact_sbp_budgeted, run_sbp, run_sharded_sbp_detailed, CancelToken,
    Consolidation, ExactConfig, NetFaultPlan, RunBudget, SbpConfig, ShardConfig, StopCause,
    Variant,
};

fn small_graph() -> (hsbp::Graph, Vec<u32>) {
    let data = generate(DcsbmConfig {
        num_vertices: 600,
        num_communities: 6,
        target_num_edges: 6000,
        seed: 13,
        ..Default::default()
    });
    (data.graph, data.ground_truth)
}

fn exact_cfg(shards: usize, plan: NetFaultPlan) -> ExactConfig {
    ExactConfig {
        num_shards: shards,
        sbp: SbpConfig {
            seed: 9,
            ..Default::default()
        },
        net_faults: plan,
        ..Default::default()
    }
}

/// The exactness claim, at its strongest: under the null fault plan with
/// `sync_every = 1`, the distributed run is **bit-identical** to the
/// in-process single-model EA-SBP run with the same worker count — not
/// just NMI-comparable, the same labels.
#[test]
fn null_plan_is_bit_identical_to_single_model_ea_sbp() {
    let (graph, _) = small_graph();
    let single = run_sbp(
        &graph,
        &SbpConfig {
            variant: Variant::ExactAsync,
            exact_async_workers: 4,
            seed: 9,
            ..Default::default()
        },
    );
    let exact = run_exact_sbp(&graph, &exact_cfg(4, NetFaultPlan::none())).expect("valid config");
    assert_eq!(exact.result.assignment, single.assignment);
    assert_eq!(exact.result.num_blocks, single.num_blocks);
    assert!(!exact.degraded());
    assert!(exact.result.stats.sync_rounds > 0);
    assert!(exact.result.stats.sync_bytes > 0);
    assert_eq!(exact.result.stats.sync_retransmits, 0);
    assert_eq!(exact.result.stats.sync_resyncs, 0);
    // The per-round log covers every sync round and carries real traffic.
    assert_eq!(exact.rounds.len(), exact.result.stats.sync_rounds);
    assert!(exact.rounds.iter().all(|r| r.bytes > 0));
}

/// Recovery completes inside the round barrier, so a hostile wire changes
/// the traffic but not the sampled chain: every recoverable fault plan
/// yields labels identical to the fault-free run (hence NMI 1.0 ≥ 0.99).
#[test]
fn recoverable_fault_plans_do_not_change_the_chain() {
    let (graph, _) = small_graph();
    let clean = run_exact_sbp(&graph, &exact_cfg(4, NetFaultPlan::none())).expect("valid config");
    for spec in [
        "seed:5, drop:0.05",
        "seed:6, dup:0.10",
        "seed:7, reorder:0.25",
        "seed:8, corrupt:0.05",
        "seed:9, delay:0.10=2",
        "seed:10, drop:0.05, dup:0.05, reorder:0.1, corrupt:0.03, delay:0.05=1",
    ] {
        let plan = NetFaultPlan::parse(spec).expect("valid spec");
        let faulty = run_exact_sbp(&graph, &exact_cfg(4, plan)).expect("valid config");
        assert_eq!(
            faulty.result.assignment, clean.result.assignment,
            "plan `{spec}` changed the chain"
        );
        assert_eq!(faulty.result.mdl.total, clean.result.mdl.total, "{spec}");
        assert!(!faulty.degraded(), "{spec}");
        assert!(
            faulty.net.bytes >= clean.net.bytes,
            "{spec}: recovery cannot shrink traffic"
        );
    }
}

/// Dropped messages surface as NACK-driven retransmits in RunStats; the
/// duplicate fault surfaces as ignored replays.
#[test]
fn fault_counters_are_visible_in_run_stats() {
    let (graph, _) = small_graph();
    let dropped = run_exact_sbp(
        &graph,
        &exact_cfg(
            4,
            NetFaultPlan::parse("seed:5, drop:0.05").expect("valid spec"),
        ),
    )
    .expect("valid config");
    assert!(dropped.result.stats.sync_retransmits > 0);
    assert!(dropped.net.dropped > 0);
    assert!(dropped.net.nacks > 0);

    let duplicated = run_exact_sbp(
        &graph,
        &exact_cfg(
            4,
            NetFaultPlan::parse("seed:6, dup:0.10").expect("valid spec"),
        ),
    )
    .expect("valid config");
    assert!(duplicated.net.duplicated > 0);
    assert!(duplicated.net.replays_ignored > 0);

    let corrupted = run_exact_sbp(
        &graph,
        &exact_cfg(
            4,
            NetFaultPlan::parse("seed:8, corrupt:0.05").expect("valid spec"),
        ),
    )
    .expect("valid config");
    assert!(corrupted.net.corrupted > 0);
    // Every corrupted frame was caught by its checksum, none slipped through.
    assert!(corrupted.net.corrupt_detected >= corrupted.net.corrupted);
}

/// Injected replica divergence is caught by the periodic digest exchange
/// and healed with a coordinator resync — the chain is unchanged.
#[test]
fn desync_is_caught_by_digest_exchange_and_resynced() {
    let (graph, _) = small_graph();
    let clean = run_exact_sbp(&graph, &exact_cfg(4, NetFaultPlan::none())).expect("valid config");
    // digest_every defaults to 8; corrupt shard 1's replica right before a
    // digest-aligned boundary so detection is immediate.
    let plan = NetFaultPlan::parse("desync:1@7").expect("valid spec");
    let healed = run_exact_sbp(&graph, &exact_cfg(4, plan)).expect("valid config");
    assert_eq!(healed.result.assignment, clean.result.assignment);
    assert!(healed.result.stats.sync_resyncs > 0);
}

/// A shard that goes permanently silent is declared dead after the retry
/// budget: its vertices are re-voted onto surviving blocks, the run
/// completes degraded, and quality stays respectable.
#[test]
fn silent_shard_is_declared_dead_and_degrades_cleanly() {
    let (graph, truth) = small_graph();
    let plan = NetFaultPlan::parse("silent:2@3").expect("valid spec");
    let run = run_exact_sbp(&graph, &exact_cfg(4, plan)).expect("valid config");
    assert!(run.degraded());
    assert_eq!(run.dead_shards.len(), 1);
    assert_eq!(run.dead_shards[0].shard, 2);
    assert!(run.dead_shards[0].reassigned_vertices > 0);
    assert_eq!(run.result.assignment.len(), graph.num_vertices());
    let quality = nmi(&truth, &run.result.assignment);
    assert!(
        quality > 0.6,
        "degraded run collapsed to NMI {quality:.3} (3 of 4 shards survived)"
    );
}

/// When every shard goes silent there is nothing to degrade onto: the run
/// fails with `AllShardsFailed` instead of hanging or fabricating labels.
#[test]
fn all_shards_silent_is_a_clean_error() {
    let (graph, _) = small_graph();
    let plan =
        NetFaultPlan::parse("silent:0@2, silent:1@2, silent:2@2, silent:3@2").expect("valid spec");
    let err = run_exact_sbp(&graph, &exact_cfg(4, plan)).expect_err("must fail");
    assert!(err.to_string().contains("all 4 shard(s) failed"), "{err}");
}

/// `sync_every > 1` trades staleness for fewer, fatter messages: the run
/// still completes with sane quality but strictly fewer sync rounds.
#[test]
fn sync_every_batches_rounds() {
    let (graph, truth) = small_graph();
    let every1 = run_exact_sbp(&graph, &exact_cfg(4, NetFaultPlan::none())).expect("valid config");
    let mut cfg = exact_cfg(4, NetFaultPlan::none());
    cfg.sync_every = 4;
    let every4 = run_exact_sbp(&graph, &cfg).expect("valid config");
    assert!(every4.result.stats.sync_rounds < every1.result.stats.sync_rounds);
    assert!(nmi(&truth, &every4.result.assignment) > 0.7);
}

/// The divide-and-conquer accuracy caveat, pinned: at cut fraction ~0.9
/// (round-robin partition, 10 shards) the stitched pipeline loses accuracy
/// because 9 of 10 edges are invisible to every shard; the exact mode sees
/// every edge and must close that gap. The stitch-mode number is tracked as
/// a baseline so improvements (or regressions) of the caveat are visible.
#[test]
fn exact_mode_closes_the_stitch_gap_at_cut_fraction_09() {
    let (graph, truth) = small_graph();
    let stitched = run_sharded_sbp_detailed(
        &graph,
        &ShardConfig {
            num_shards: 10,
            strategy: hsbp::PartitionStrategy::RoundRobin,
            sbp: SbpConfig {
                seed: 9,
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .expect("valid config");
    assert!(
        stitched.cut_fraction > 0.85,
        "round-robin over 10 shards should cut ~90% of edges, got {:.3}",
        stitched.cut_fraction
    );
    let exact = run_exact_sbp(&graph, &exact_cfg(10, NetFaultPlan::none())).expect("valid config");

    let nmi_stitch = nmi(&truth, &stitched.result.assignment);
    let nmi_exact = nmi(&truth, &exact.result.assignment);
    assert!(
        nmi_exact >= nmi_stitch,
        "exact mode (NMI {nmi_exact:.3}) must not trail stitch mode (NMI {nmi_stitch:.3}) \
         at cut fraction {:.2}",
        stitched.cut_fraction
    );
    // Tracked baseline for the caveat itself (DESIGN.md §7): stitch mode at
    // cut ~0.9 has historically landed around this number. A significant
    // move in either direction deserves a look, not a silent pass.
    const STITCH_BASELINE_NMI: f64 = 0.8;
    assert!(
        (nmi_stitch - STITCH_BASELINE_NMI).abs() < 0.2,
        "stitch-mode NMI {nmi_stitch:.3} moved away from the tracked baseline \
         {STITCH_BASELINE_NMI}; update the baseline deliberately"
    );
    // And the exact mode must be genuinely good, not merely less bad.
    assert!(nmi_exact > 0.8, "exact NMI {nmi_exact:.3}");
}

/// The ISSUE acceptance criterion at full size: 8-shard exact mode on the
/// 5k DCSBM is bit-comparable to the single-model run under the null plan,
/// and still converges to the same partition under a hostile wire.
#[test]
#[ignore = "full-size acceptance run; exercised by the shard-exact-faults CI job"]
fn acceptance_8_shards_on_5k_dcsbm() {
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
            variant: Variant::ExactAsync,
            exact_async_workers: 8,
            seed: 9,
            ..Default::default()
        },
    );
    let exact =
        run_exact_sbp(&data.graph, &exact_cfg(8, NetFaultPlan::none())).expect("valid config");
    assert_eq!(exact.result.assignment, single.assignment);
    assert!((nmi(&single.assignment, &exact.result.assignment) - 1.0).abs() < 1e-12);

    let hostile = NetFaultPlan::parse("seed:3, drop:0.05, dup:0.05, reorder:0.2").expect("spec");
    let faulty = run_exact_sbp(&data.graph, &exact_cfg(8, hostile)).expect("valid config");
    assert!(faulty.result.stats.sync_retransmits > 0);
    let agreement = nmi(&exact.result.assignment, &faulty.result.assignment);
    assert!(
        agreement >= 0.99,
        "hostile wire changed the partition: NMI {agreement:.4}"
    );
}

/// FNV-1a over the little-endian bytes of every label.
fn label_fingerprint(assignment: &[u32]) -> u64 {
    let bytes: Vec<u8> = assignment.iter().flat_map(|l| l.to_le_bytes()).collect();
    hsbp::shard::channel::checksum(&bytes)
}

/// Golden-bit pin of the exact mode with batched sync rounds, a drift
/// injection and the audit: `sync_every = 4`, `audit_cadence = 2`, drift
/// injected at cumulative sweep 5 (inside a round, so the boundary-crossing
/// test is what fires it). Recorded before the exact mode's phase loop
/// moved onto the shared one.
#[test]
fn exact_golden_bits_with_batched_sync_and_drift() {
    let (graph, _) = small_graph();
    let mut cfg = exact_cfg(4, NetFaultPlan::none());
    cfg.sync_every = 4;
    cfg.sbp.audit_cadence = 2;
    cfg.sbp.inject_drift_at_sweep = Some(5);
    let run = run_exact_sbp(&graph, &cfg).expect("valid config");
    let stats = &run.result.stats;
    assert_eq!(
        label_fingerprint(&run.result.assignment),
        0x826a_46be_5175_3652
    );
    assert_eq!(run.result.mdl.total.to_bits(), 0x40e8_559f_9f4b_69e6);
    assert_eq!(stats.sync_rounds, 86);
    assert_eq!(stats.audits_run, 86);
    assert_eq!(stats.drift_events.len(), 1);
}

/// The exact mode honours a sweep budget the way the core driver does: the
/// run stops early, its trajectory is a prefix of the unlimited run's, and
/// the partition it returns is a point of that trajectory (or the singleton
/// start when no evaluation completed). Sync rounds of 1 and 4 sweeps.
#[test]
fn sweep_budget_truncates_exact_mode_to_a_trajectory_prefix() {
    let (graph, _) = small_graph();
    for sync_every in [1, 4] {
        let mut cfg = exact_cfg(4, NetFaultPlan::none());
        cfg.sync_every = sync_every;
        let full = run_exact_sbp(&graph, &cfg).expect("valid config").result;
        let total = full.stats.mcmc_sweeps;
        for k in [1, total / 4, total / 2, total - 1] {
            let budget = RunBudget::unlimited().with_max_total_sweeps(k);
            let cut = run_exact_sbp_budgeted(&graph, &cfg, &budget, &CancelToken::new())
                .expect("valid config")
                .result;
            assert!(cut.truncated(), "sync_every {sync_every}, k {k}");
            assert_eq!(cut.stats.stop_cause, StopCause::SweepBudgetExhausted);
            let done = cut.trajectory.len();
            assert_eq!(
                cut.trajectory,
                full.trajectory[..done],
                "sync_every {sync_every}, k {k}: not a prefix"
            );
            if done == 0 {
                assert_eq!(cut.num_blocks, graph.num_vertices());
            } else {
                assert!(
                    cut.trajectory.contains(&(cut.num_blocks, cut.mdl.total)),
                    "sync_every {sync_every}, k {k}: ({}, {}) is not a trajectory point",
                    cut.num_blocks,
                    cut.mdl.total
                );
            }
        }
    }
}

/// A token cancelled before the run starts stops the exact mode at its
/// first check, with the singleton start as the result.
#[test]
fn pre_cancelled_token_stops_exact_mode() {
    let (graph, _) = small_graph();
    let token = CancelToken::new();
    token.cancel();
    let run = run_exact_sbp_budgeted(
        &graph,
        &exact_cfg(4, NetFaultPlan::none()),
        &RunBudget::unlimited(),
        &token,
    )
    .expect("valid config");
    assert_eq!(run.result.stats.stop_cause, StopCause::Cancelled);
    assert!(run.result.trajectory.is_empty());
    assert_eq!(run.result.num_blocks, graph.num_vertices());
    assert_eq!(run.result.stats.sync_rounds, 0);
}

/// The coordinator consolidates through the same policy as in-process
/// EA-SBP, so `cfg.sbp.consolidation` is honoured: forced rebuilds replay
/// no moves, Verify finds no divergence, and every mode samples the same
/// chain as `Auto`.
#[test]
fn consolidation_mode_is_honoured() {
    let (graph, _) = small_graph();
    let run = |mode: Consolidation| {
        let mut cfg = exact_cfg(4, NetFaultPlan::none());
        cfg.sbp.consolidation = mode;
        run_exact_sbp(&graph, &cfg)
    };
    let auto = run(Consolidation::Auto).expect("valid config");
    let rebuild = run(Consolidation::ForceRebuild).expect("valid config");
    let verify = run(Consolidation::Verify).expect("incremental replay matches a rebuild");
    let stats = &rebuild.result.stats;
    assert_eq!(stats.consolidated_moves, 0);
    assert!(stats.consolidations_rebuild > 0);
    for (mode, other) in [("ForceRebuild", &rebuild), ("Verify", &verify)] {
        assert_eq!(other.result.assignment, auto.result.assignment, "{mode}");
        assert_eq!(
            other.result.mdl.total.to_bits(),
            auto.result.mdl.total.to_bits(),
            "{mode}"
        );
    }
}
