//! `hsbp` — command-line community detection.
//!
//! ```text
//! hsbp detect  --input graph.mtx [--variant sbp|asbp|hsbp] [--seed N]
//!              [--output labels.tsv] [--restarts N]
//!              [--deadline SECS] [--max-sweeps N]
//!              [--audit-cadence N] [--strict-audit true]
//! hsbp shard   --input graph.mtx [--shards K] [--strategy rr|degree|file]
//!              [--parts graph.part.K] [--seed N] [--compare true]
//!              [--max-retries N] [--shard-timeout SECS] [--fault-plan SPEC]
//!              [--audit-cadence N] [--strict-audit true]
//!              [--checkpoint DIR | --resume DIR] [--output labels.tsv]
//! hsbp shard   --exact true --input graph.mtx [--shards K] [--seed N]
//!              [--sync-every N] [--digest-every N] [--sync-retries N]
//!              [--net-fault-plan SPEC] [--compare true] [--output labels.tsv]
//! hsbp stats   --input graph.mtx
//! hsbp generate --vertices N --edges M [--communities C] [--ratio R]
//!              [--seed K] --output graph.mtx [--truth truth.tsv]
//! hsbp serve   [--addr HOST:PORT] [--input graph.mtx] [--seed N]
//!              [--variant sbp|asbp|hsbp] [--max-sweeps N] [--deadline SECS]
//!              [--audit-cadence N] [--strict-audit true]
//!              [--refine-pause-ms N]
//!              [--state-dir DIR] [--fsync always|batch|never]
//!              [--snapshot-every N] [--max-pending N] [--max-connections N]
//!              [--idle-timeout-ms N] [--fault-plan SPEC]
//! hsbp version
//! ```
//!
//! `detect` reads a Matrix Market (`.mtx`) or whitespace edge-list file,
//! runs the chosen SBP variant (default: H-SBP) with the best-of-restarts
//! protocol, and writes one `vertex<TAB>community` line per vertex.
//!
//! `--deadline` and `--max-sweeps` put the whole `detect` invocation under
//! a run budget shared across restarts: the run stops cooperatively when
//! the wall-clock deadline or total-sweep cap is reached and the
//! best-so-far labels are still written, with exit code 8 marking the
//! truncation. `--audit-cadence N` audits the incremental blockmodel
//! against a from-scratch rebuild every N sweeps (default 64, 0 disables),
//! repairing any drift it finds; `--strict-audit true` turns detected
//! drift into a failure (exit code 7) instead. `--inject-drift N`
//! deliberately corrupts the incremental state at sweep N (a test hook for
//! the auditor).
//!
//! `shard` runs the sharded divide-and-conquer pipeline (partition →
//! supervised per-shard SBP → stitch → H-SBP finetune), reporting cut
//! fraction, per-shard block counts, supervision outcomes and the emulated
//! distributed-rank scaling curve; `--compare true` also runs single-model
//! SBP and reports the NMI between the two partitions. `--fault-plan`
//! injects deterministic faults (e.g. `panic:0@1,panic:2@*`; see
//! `hsbp::shard::faults`), `--checkpoint DIR` persists each completed shard
//! so `--resume DIR` can pick an interrupted run back up.
//!
//! `shard --exact true` switches to the exact distributed mode: every
//! shard samples its vertex range against a replicated global blockmodel
//! and broadcasts accepted-move deltas as checksummed, sequence-numbered
//! messages each sync round, so the sampled chain is bit-identical to the
//! single-model EA-SBP run. `--net-fault-plan` injects deterministic wire
//! faults (`seed:N, drop:P, dup:P, reorder:P, corrupt:P, delay:P=R,
//! silent:SHARD@ROUND, desync:SHARD@ROUND`); recovery (NACK-driven
//! retransmit, digest-verified resync, majority-vote reassignment of dead
//! shards' vertices) happens inside the round barrier. `--sync-every N`
//! batches N sweeps per sync round, `--digest-every N` sets the replica
//! digest-exchange cadence, `--sync-retries N` bounds retransmit attempts
//! before a shard is declared dead.
//!
//! `serve` starts the resident community-detection daemon (`hsbp-serve`):
//! a TCP server speaking line-delimited JSON that owns the graph, answers
//! reads from an epoch-swapped snapshot, and re-detects incrementally after
//! every mutation batch. `--max-sweeps` / `--deadline` budget each
//! refinement round; `--input` seeds the initial graph (default: empty).
//! The daemon stops cleanly on SIGTERM/SIGINT or a `{"op":"quit"}` message.
//! With `--state-dir DIR` every accepted batch is appended to a write-ahead
//! log before its acknowledgement (`--fsync` picks the durability/latency
//! trade-off), snapshots are persisted every `--snapshot-every` applied
//! batches and at clean shutdown, and a restart from the same directory
//! warm-starts (snapshot + WAL tail replay; `status` reports
//! `recovered_epoch` and `replayed_batches`). `--max-pending` bounds the
//! mutation backlog (over-limit batches get a typed `busy` error),
//! `--max-connections` / `--idle-timeout-ms` bound connections, and
//! `--fault-plan` injects deterministic durability faults
//! (`crash-after-wal:SEQ`, `torn-write:SEQ`, `crash-before-rename:NTH`,
//! `slow-apply:SEQ=MS`) for crash-recovery testing.
//!
//! Failures exit with a one-line diagnostic and a distinct code:
//! 2 = usage / invalid flags, 3 = unreadable graph, 4 = bad partition file,
//! 5 = checkpoint error, 6 = run failed (e.g. every shard lost),
//! 7 = state drift under `--strict-audit`, 8 = run truncated by its budget
//! (labels were still written), 9 = network failure (bind/accept/socket).

use hsbp::generator::{generate, DcsbmConfig};
use hsbp::graph::io::{load_path, write_matrix_market};
use hsbp::graph::partition::read_partition_file;
use hsbp::graph::GraphStats;
use hsbp::metrics::{directed_modularity, nmi, normalized_mdl};
use hsbp::serve::{ServeConfig, Server};
use hsbp::shard::{run_sharded_sbp_detailed, run_sharded_sbp_resumable, ShardStatus};
use hsbp::{
    run_exact_sbp, run_sbp, run_sbp_budgeted, CancelToken, ExactConfig, FaultPlan, HsbpError,
    NetFaultPlan, PartitionStrategy, RunBudget, SbpConfig, ShardConfig, Variant,
    SYNC_PROTOCOL_VERSION,
};
use std::collections::HashMap;
use std::io::Write;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Exit code for failures to read or parse the input graph.
const EXIT_BAD_GRAPH: u8 = 3;
/// Exit code for bad partition files (or partitions not matching the graph).
const EXIT_BAD_PARTITION: u8 = 4;
/// Exit code for checkpoint directory problems.
const EXIT_BAD_CHECKPOINT: u8 = 5;
/// Exit code for runs that failed outright (e.g. all shards lost).
const EXIT_RUN_FAILED: u8 = 6;
/// Exit code for drift detected under `--strict-audit true`.
const EXIT_STATE_DRIFT: u8 = 7;
/// Exit code for runs truncated by `--deadline` / `--max-sweeps`; the
/// best-so-far labels were still written.
const EXIT_BUDGET_TRUNCATED: u8 = 8;
/// Exit code for network failures (bind, accept, mid-request socket death).
const EXIT_NETWORK: u8 = 9;

fn usage(msg: &str) -> ExitCode {
    if !msg.is_empty() {
        eprintln!("error: {msg}\n");
    }
    eprintln!(
        "usage:\n  hsbp detect --input FILE [--variant sbp|asbp|hsbp] [--seed N] \\\n\
         \x20             [--restarts N] [--output FILE] \\\n\
         \x20             [--deadline SECS] [--max-sweeps N] \\\n\
         \x20             [--audit-cadence N] [--strict-audit true]\n\
         \x20 hsbp shard --input FILE [--shards K] [--strategy rr|degree|file] \\\n\
         \x20             [--parts FILE] [--seed N] [--compare true] \\\n\
         \x20             [--max-retries N] [--shard-timeout SECS] [--fault-plan SPEC] \\\n\
         \x20             [--audit-cadence N] [--strict-audit true] \\\n\
         \x20             [--checkpoint DIR | --resume DIR] [--output FILE]\n\
         \x20 hsbp shard --exact true --input FILE [--shards K] [--seed N] \\\n\
         \x20             [--sync-every N] [--digest-every N] [--sync-retries N] \\\n\
         \x20             [--net-fault-plan SPEC] [--compare true] \\\n\
         \x20             [--audit-cadence N] [--strict-audit true] [--output FILE]\n\
         \x20 hsbp stats --input FILE\n\
         \x20 hsbp generate --vertices N --edges M [--communities C] [--ratio R] \\\n\
         \x20             [--seed N] --output FILE [--truth FILE]\n\
         \x20 hsbp serve [--addr HOST:PORT] [--input FILE] [--seed N] \\\n\
         \x20             [--variant sbp|asbp|hsbp] [--max-sweeps N] [--deadline SECS] \\\n\
         \x20             [--audit-cadence N] [--strict-audit true] [--refine-pause-ms N] \\\n\
         \x20             [--state-dir DIR] [--fsync always|batch|never] \\\n\
         \x20             [--snapshot-every N] [--max-pending N] [--max-connections N] \\\n\
         \x20             [--idle-timeout-ms N] [--fault-plan SPEC]\n\
         \x20 hsbp version"
    );
    ExitCode::from(2)
}

/// Reject flags the subcommand does not understand (typos should fail
/// loudly, not be silently ignored).
fn check_flags(flags: &HashMap<String, String>, allowed: &[&str]) -> Result<(), String> {
    for name in flags.keys() {
        if !allowed.contains(&name.as_str()) {
            return Err(format!("unknown flag `--{name}`"));
        }
    }
    Ok(())
}

/// Map a pipeline error to its one-line diagnostic and exit code.
fn report_error(e: &HsbpError) -> ExitCode {
    eprintln!("error: {e}");
    let code = match e {
        HsbpError::InvalidConfig(_) => 2,
        HsbpError::Io { .. } => EXIT_BAD_GRAPH,
        HsbpError::PartitionMismatch { .. } => EXIT_BAD_PARTITION,
        HsbpError::Checkpoint { .. } | HsbpError::Wal { .. } => EXIT_BAD_CHECKPOINT,
        HsbpError::StateDrift { .. } => EXIT_STATE_DRIFT,
        HsbpError::Network { .. } => EXIT_NETWORK,
        HsbpError::ShardFailed { .. }
        | HsbpError::AllShardsFailed { .. }
        | HsbpError::InvariantViolation { .. } => EXIT_RUN_FAILED,
    };
    ExitCode::from(code)
}

/// Apply the shared `--audit-cadence` / `--strict-audit` / `--inject-drift`
/// flags to an [`SbpConfig`].
fn apply_audit_flags(flags: &HashMap<String, String>, cfg: &mut SbpConfig) -> Result<(), String> {
    if let Some(s) = flags.get("audit-cadence") {
        cfg.audit_cadence = s
            .parse()
            .map_err(|_| "--audit-cadence needs a non-negative integer (0 disables)".to_string())?;
    }
    match flags.get("strict-audit").map(String::as_str) {
        None => {}
        Some("true") => cfg.strict_audit = true,
        Some("false") => cfg.strict_audit = false,
        Some(other) => return Err(format!("--strict-audit needs true or false, got `{other}`")),
    }
    if let Some(s) = flags.get("inject-drift") {
        cfg.inject_drift_at_sweep = Some(
            s.parse()
                .map_err(|_| "--inject-drift needs a sweep number".to_string())?,
        );
    }
    Ok(())
}

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(name) = flag.strip_prefix("--") else {
            return Err(format!("unexpected argument `{flag}`"));
        };
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name.to_string(), value.clone());
    }
    Ok(flags)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        return usage("");
    };
    let flags = match parse_flags(rest) {
        Ok(f) => f,
        Err(e) => return usage(&e),
    };
    match command.as_str() {
        "detect" => detect(&flags),
        "shard" => shard_cmd(&flags),
        "stats" => stats(&flags),
        "generate" => generate_cmd(&flags),
        "serve" => serve_cmd(&flags),
        "version" => version_cmd(&flags),
        other => usage(&format!("unknown command `{other}`")),
    }
}

fn detect(flags: &HashMap<String, String>) -> ExitCode {
    if let Err(e) = check_flags(
        flags,
        &[
            "input",
            "variant",
            "seed",
            "restarts",
            "output",
            "deadline",
            "max-sweeps",
            "audit-cadence",
            "strict-audit",
            "inject-drift",
        ],
    ) {
        return usage(&e);
    }
    let Some(input) = flags.get("input") else {
        return usage("detect requires --input");
    };
    let variant = match flags.get("variant").map(String::as_str) {
        None | Some("hsbp") => Variant::Hybrid,
        Some("sbp") => Variant::Metropolis,
        Some("asbp") => Variant::AsyncGibbs,
        Some(other) => return usage(&format!("unknown variant `{other}`")),
    };
    let seed: u64 = flags.get("seed").map_or(Ok(0), |s| s.parse()).unwrap_or(0);
    let restarts: usize = flags
        .get("restarts")
        .map_or(Ok(1), |s| s.parse())
        .unwrap_or(1);
    let deadline: Option<Duration> = match flags.get("deadline").map(|s| s.parse::<f64>()) {
        None => None,
        Some(Ok(t)) if t.is_finite() && t > 0.0 => Some(Duration::from_secs_f64(t)),
        Some(_) => return usage("--deadline needs a positive number of seconds"),
    };
    let max_sweeps: Option<usize> = match flags.get("max-sweeps").map(|s| s.parse::<usize>()) {
        None => None,
        Some(Ok(n)) if n > 0 => Some(n),
        Some(_) => return usage("--max-sweeps needs a positive integer"),
    };
    let graph = match load_path(input) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("cannot load {input}: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "loaded {}: {} vertices, {} edges; running {} ({} restart(s))",
        input,
        graph.num_vertices(),
        graph.num_edges(),
        variant.name(),
        restarts.max(1)
    );

    // The deadline and sweep cap are *overall* budgets, shared across
    // restarts: each restart runs under whatever is left of them.
    let started = Instant::now();
    let token = CancelToken::new();
    let mut sweeps_left = max_sweeps;
    let mut best: Option<hsbp::SbpResult> = None;
    let mut truncated = false;
    for restart in 0..restarts.max(1) {
        let mut budget = RunBudget::unlimited();
        if let Some(total) = deadline {
            let remaining = total.saturating_sub(started.elapsed());
            if remaining.is_zero() {
                truncated = true;
                eprintln!("deadline reached; skipping remaining restart(s)");
                break;
            }
            budget = budget.with_deadline(remaining);
        }
        if let Some(left) = sweeps_left {
            if left == 0 {
                truncated = true;
                eprintln!("sweep budget exhausted; skipping remaining restart(s)");
                break;
            }
            budget = budget.with_max_total_sweeps(left);
        }
        let mut cfg = SbpConfig::new(variant, seed.wrapping_add(restart as u64 * 7919));
        if let Err(e) = apply_audit_flags(flags, &mut cfg) {
            return usage(&e);
        }
        let result = match run_sbp_budgeted(&graph, &cfg, &budget, &token) {
            Ok(r) => r,
            Err(e) => return report_error(&e),
        };
        if let Some(left) = sweeps_left.as_mut() {
            *left = left.saturating_sub(result.stats.mcmc_sweeps);
        }
        if result.truncated() {
            truncated = true;
            eprintln!(
                "restart {restart}: stopped early ({})",
                result.stats.stop_cause
            );
        }
        if best.as_ref().is_none_or(|b| result.mdl.total < b.mdl.total) {
            best = Some(result);
        }
    }
    let Some(result) = best else {
        // Unreachable in practice: the first restart always runs (its
        // budget is checked non-zero above) and returns best-so-far.
        eprintln!("error: budget exhausted before any restart produced a result");
        return ExitCode::from(EXIT_BUDGET_TRUNCATED);
    };
    eprintln!(
        "found {} communities  MDL {:.1}  MDL_norm {:.4}  modularity {:.4}  ({} MCMC sweeps)",
        result.num_blocks,
        result.mdl.total,
        normalized_mdl(&graph, &result.assignment),
        directed_modularity(&graph, &result.assignment),
        result.stats.mcmc_sweeps
    );
    if result.stats.audits_run > 0 {
        eprintln!(
            "audits: {} run, {} drift event(s) detected and repaired",
            result.stats.audits_run,
            result.stats.drift_events.len()
        );
    }

    let write_result = || -> std::io::Result<()> {
        match flags.get("output") {
            Some(path) => {
                let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
                for (v, b) in result.assignment.iter().enumerate() {
                    writeln!(f, "{v}\t{b}")?;
                }
                f.flush()?;
                eprintln!("labels written to {path}");
                Ok(())
            }
            None => {
                let stdout = std::io::stdout();
                let mut lock = stdout.lock();
                for (v, b) in result.assignment.iter().enumerate() {
                    writeln!(lock, "{v}\t{b}")?;
                }
                Ok(())
            }
        }
    };
    if let Err(e) = write_result() {
        eprintln!("cannot write labels: {e}");
        return ExitCode::FAILURE;
    }
    if truncated {
        eprintln!("run truncated by its budget; labels are the best-so-far state");
        return ExitCode::from(EXIT_BUDGET_TRUNCATED);
    }
    ExitCode::SUCCESS
}

fn shard_cmd(flags: &HashMap<String, String>) -> ExitCode {
    if let Err(e) = check_flags(
        flags,
        &[
            "input",
            "shards",
            "strategy",
            "parts",
            "seed",
            "compare",
            "output",
            "max-retries",
            "shard-timeout",
            "fault-plan",
            "audit-cadence",
            "strict-audit",
            "checkpoint",
            "resume",
            "exact",
            "sync-every",
            "digest-every",
            "net-fault-plan",
            "sync-retries",
        ],
    ) {
        return usage(&e);
    }
    match flags.get("exact").map(String::as_str) {
        None | Some("false") => {}
        Some("true") => return exact_shard_cmd(flags),
        Some(other) => return usage(&format!("--exact needs true or false, got `{other}`")),
    }
    for exact_only in [
        "sync-every",
        "digest-every",
        "net-fault-plan",
        "sync-retries",
    ] {
        if flags.contains_key(exact_only) {
            return usage(&format!("--{exact_only} requires --exact true"));
        }
    }
    let Some(input) = flags.get("input") else {
        return usage("shard requires --input");
    };
    let shards: usize = flags
        .get("shards")
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    let seed: u64 = flags.get("seed").and_then(|s| s.parse().ok()).unwrap_or(0);
    let compare = flags.get("compare").map(String::as_str) == Some("true");
    let max_retries: usize = match flags.get("max-retries").map(|s| s.parse()) {
        None => 2,
        Some(Ok(n)) => n,
        Some(Err(_)) => return usage("--max-retries needs a non-negative integer"),
    };
    let shard_timeout: Option<f64> = match flags.get("shard-timeout").map(|s| s.parse::<f64>()) {
        None => None,
        Some(Ok(t)) if t.is_finite() && t > 0.0 => Some(t),
        Some(_) => return usage("--shard-timeout needs a positive number of seconds"),
    };
    let fault_plan = match flags.get("fault-plan") {
        None => FaultPlan::none(),
        Some(spec) => match FaultPlan::parse(spec) {
            Ok(plan) => plan,
            Err(e) => return usage(&format!("bad --fault-plan: {e}")),
        },
    };
    let run_dir = match (flags.get("checkpoint"), flags.get("resume")) {
        (Some(a), Some(b)) if a != b => {
            return usage("--checkpoint and --resume name different directories; pick one");
        }
        (_, Some(dir)) => {
            if !std::path::Path::new(dir).join("meta.txt").is_file() {
                eprintln!("error: checkpoint {dir}: not a checkpoint directory (no meta.txt)");
                return ExitCode::from(EXIT_BAD_CHECKPOINT);
            }
            Some(dir.clone())
        }
        (Some(dir), None) => Some(dir.clone()),
        (None, None) => None,
    };
    let strategy = match flags.get("strategy").map(String::as_str) {
        None | Some("degree") => PartitionStrategy::DegreeBalanced,
        Some("rr") | Some("round-robin") => PartitionStrategy::RoundRobin,
        Some("file") => {
            let Some(path) = flags.get("parts") else {
                return usage("--strategy file requires --parts");
            };
            match read_partition_file(path) {
                Ok(parts) => PartitionStrategy::FromParts(parts),
                Err(e) => {
                    eprintln!("error: cannot load partition {path}: {e}");
                    return ExitCode::from(EXIT_BAD_PARTITION);
                }
            }
        }
        Some(other) => return usage(&format!("unknown strategy `{other}`")),
    };

    let graph = match load_path(input) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("error: cannot load {input}: {e}");
            return ExitCode::from(EXIT_BAD_GRAPH);
        }
    };
    let mut sbp_cfg = SbpConfig {
        seed,
        ..Default::default()
    };
    if let Err(e) = apply_audit_flags(flags, &mut sbp_cfg) {
        return usage(&e);
    }
    let mut cfg = ShardConfig {
        num_shards: shards,
        strategy,
        sbp: sbp_cfg,
        ..Default::default()
    };
    cfg.supervision.max_retries = max_retries;
    cfg.supervision.shard_timeout = shard_timeout;
    cfg.supervision.fault_plan = fault_plan;
    eprintln!(
        "loaded {}: {} vertices, {} edges; sharded SBP over {} shard(s)",
        input,
        graph.num_vertices(),
        graph.num_edges(),
        shards
    );
    let run = match &run_dir {
        Some(dir) => run_sharded_sbp_resumable(&graph, &cfg, dir),
        None => run_sharded_sbp_detailed(&graph, &cfg),
    };
    let run = match run {
        Ok(run) => run,
        Err(e) => return report_error(&e),
    };
    for (s, summary) in run.shard_summaries.iter().enumerate() {
        let outcome = &run.outcomes[s];
        let status = match outcome.status {
            ShardStatus::Ok => String::new(),
            ShardStatus::Recovered => {
                format!("  [recovered after {} attempt(s)]", outcome.attempts)
            }
            ShardStatus::Dropped => format!("  [DROPPED after {} attempt(s)]", outcome.attempts),
            ShardStatus::Resumed => "  [resumed from checkpoint]".to_string(),
        };
        eprintln!(
            "  shard {s}: {} vertices, {} edges -> {} blocks (MDL {:.1}){status}",
            summary.num_vertices, summary.num_edges, summary.num_blocks, summary.mdl_total
        );
        for failure in &outcome.failures {
            eprintln!("    attempt {}: {}", failure.attempt, failure.kind);
        }
    }
    if run.degraded() {
        eprintln!(
            "WARNING: degraded run — {} vertices of dropped shard(s) were reassigned by \
             majority vote; quality and scaling figures below describe the degraded run",
            run.stitch.reassigned_vertices
        );
    }
    eprintln!(
        "cut fraction {:.3}; stitched {} -> {} blocks in {} step(s), {} finetune sweep(s)",
        run.cut_fraction,
        run.stitch.blocks_stitched,
        run.stitch.blocks_final,
        run.stitch.steps,
        run.stitch.finetune_sweeps
    );
    if run.scaling.mixed_basis() {
        eprintln!(
            "WARNING: shards {:?} report wall-clock cost while others report simulated cost; \
             the scales are incommensurable, so emulated speedups are suppressed",
            run.scaling.wall_clock_shards()
        );
    }
    for &(ranks, t) in &run.scaling.curve {
        match run.scaling.speedup(ranks) {
            Some(speedup) => {
                eprintln!("  emulated {ranks} rank(s): makespan {t:.3e}  speedup {speedup:.2}x")
            }
            None => eprintln!("  emulated {ranks} rank(s): makespan {t:.3e}  speedup n/a"),
        }
    }
    let result = &run.result;
    eprintln!(
        "found {} communities  MDL {:.1}  MDL_norm {:.4}  modularity {:.4}",
        result.num_blocks,
        result.mdl.total,
        result.normalized_mdl,
        directed_modularity(&graph, &result.assignment)
    );
    if compare {
        let single = run_sbp(
            &graph,
            &SbpConfig {
                seed,
                ..Default::default()
            },
        );
        eprintln!(
            "single-model: {} communities  MDL {:.1}  NMI(sharded, single) {:.4}",
            single.num_blocks,
            single.mdl.total,
            nmi(&single.assignment, &result.assignment)
        );
    }

    let write_result = || -> std::io::Result<()> {
        if let Some(path) = flags.get("output") {
            let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
            for (v, b) in result.assignment.iter().enumerate() {
                writeln!(f, "{v}\t{b}")?;
            }
            f.flush()?;
            eprintln!("labels written to {path}");
        }
        Ok(())
    };
    if let Err(e) = write_result() {
        eprintln!("cannot write labels: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// `hsbp shard --exact true`: the exact distributed mode — vertex-range
/// shards over a replicated global blockmodel with fault-tolerant delta
/// sync, instead of the divide-and-conquer pipeline.
fn exact_shard_cmd(flags: &HashMap<String, String>) -> ExitCode {
    for incompatible in [
        "strategy",
        "parts",
        "max-retries",
        "shard-timeout",
        "fault-plan",
        "checkpoint",
        "resume",
    ] {
        if flags.contains_key(incompatible) {
            return usage(&format!(
                "--{incompatible} applies to the divide-and-conquer pipeline, not --exact true \
                 (the exact mode takes --net-fault-plan / --sync-retries / --sync-every)"
            ));
        }
    }
    let Some(input) = flags.get("input") else {
        return usage("shard requires --input");
    };
    let shards: usize = flags
        .get("shards")
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    let seed: u64 = flags.get("seed").and_then(|s| s.parse().ok()).unwrap_or(0);
    let compare = flags.get("compare").map(String::as_str) == Some("true");
    let sync_every: usize = match flags.get("sync-every").map(|s| s.parse()) {
        None => 1,
        Some(Ok(n)) if n >= 1 => n,
        Some(_) => return usage("--sync-every needs a positive integer"),
    };
    let digest_every: usize = match flags.get("digest-every").map(|s| s.parse()) {
        None => 8,
        Some(Ok(n)) => n,
        Some(Err(_)) => return usage("--digest-every needs a non-negative integer (0 disables)"),
    };
    let sync_retries: usize = match flags.get("sync-retries").map(|s| s.parse()) {
        None => 5,
        Some(Ok(n)) => n,
        Some(Err(_)) => return usage("--sync-retries needs a non-negative integer"),
    };
    let net_faults = match flags.get("net-fault-plan") {
        None => NetFaultPlan::none(),
        Some(spec) => match NetFaultPlan::parse(spec) {
            Ok(plan) => plan,
            Err(e) => return usage(&format!("bad --net-fault-plan: {e}")),
        },
    };
    let graph = match load_path(input) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("error: cannot load {input}: {e}");
            return ExitCode::from(EXIT_BAD_GRAPH);
        }
    };
    let mut sbp = SbpConfig {
        seed,
        ..Default::default()
    };
    if let Err(e) = apply_audit_flags(flags, &mut sbp) {
        return usage(&e);
    }
    let cfg = ExactConfig {
        num_shards: shards,
        sbp,
        sync_every,
        digest_every,
        max_retries: sync_retries,
        net_faults,
    };
    eprintln!(
        "loaded {}: {} vertices, {} edges; exact distributed SBP over {} shard(s), \
         delta sync every {} sweep(s)",
        input,
        graph.num_vertices(),
        graph.num_edges(),
        shards,
        sync_every
    );
    let run = match run_exact_sbp(&graph, &cfg) {
        Ok(run) => run,
        Err(e) => return report_error(&e),
    };
    for dead in &run.dead_shards {
        eprintln!(
            "WARNING: shard {} declared dead at round {} (retry budget exhausted); \
             {} vertices reassigned by majority vote",
            dead.shard, dead.round, dead.reassigned_vertices
        );
    }
    if run.degraded() {
        eprintln!(
            "WARNING: degraded run — {} of {} shard(s) survived; quality figures below \
             describe the degraded run",
            run.num_shards - run.dead_shards.len(),
            run.num_shards
        );
    }
    let net = &run.net;
    let rounds = run.rounds.len().max(1) as u64;
    eprintln!(
        "sync protocol: {} round(s), {} message(s), {} bytes ({} bytes/round), \
         {} retransmit(s), {} NACK(s), {} resync(s)",
        run.rounds.len(),
        net.messages,
        net.bytes,
        net.bytes / rounds,
        net.retransmits,
        net.nacks,
        net.resyncs
    );
    if net.dropped + net.duplicated + net.corrupted + net.delayed + net.reordered > 0 {
        eprintln!(
            "  faults survived: {} dropped, {} duplicated, {} corrupted ({} detected), \
             {} delayed, {} reordered, {} replays ignored",
            net.dropped,
            net.duplicated,
            net.corrupted,
            net.corrupt_detected,
            net.delayed,
            net.reordered,
            net.replays_ignored
        );
    }
    let result = &run.result;
    eprintln!(
        "found {} communities  MDL {:.1}  MDL_norm {:.4}  modularity {:.4}  ({} MCMC sweeps)",
        result.num_blocks,
        result.mdl.total,
        result.normalized_mdl,
        directed_modularity(&graph, &result.assignment),
        result.stats.mcmc_sweeps
    );
    if compare {
        let single = run_sbp(
            &graph,
            &SbpConfig {
                variant: Variant::ExactAsync,
                exact_async_workers: shards,
                seed,
                ..Default::default()
            },
        );
        let identical = single.assignment == result.assignment;
        eprintln!(
            "single-model EA-SBP ({} workers): {} communities  MDL {:.1}  \
             NMI(exact, single) {:.4}  bit-identical: {}",
            shards,
            single.num_blocks,
            single.mdl.total,
            nmi(&single.assignment, &result.assignment),
            identical
        );
    }
    let write_result = || -> std::io::Result<()> {
        if let Some(path) = flags.get("output") {
            let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
            for (v, b) in result.assignment.iter().enumerate() {
                writeln!(f, "{v}\t{b}")?;
            }
            f.flush()?;
            eprintln!("labels written to {path}");
        }
        Ok(())
    };
    if let Err(e) = write_result() {
        eprintln!("cannot write labels: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn stats(flags: &HashMap<String, String>) -> ExitCode {
    if let Err(e) = check_flags(flags, &["input"]) {
        return usage(&e);
    }
    let Some(input) = flags.get("input") else {
        return usage("stats requires --input");
    };
    let graph = match load_path(input) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("cannot load {input}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let s = GraphStats::compute(&graph);
    println!("vertices            {}", s.num_vertices);
    println!("edges               {}", s.num_edges);
    println!("total weight        {}", s.total_weight);
    println!(
        "degree min/mean/max {} / {:.2} / {}",
        s.min_degree, s.mean_degree, s.max_degree
    );
    println!("density             {:.3e}", s.density);
    println!("self loops          {}", s.self_loops);
    println!("power-law exponent  {:.3}", s.power_law_exponent);
    ExitCode::SUCCESS
}

fn generate_cmd(flags: &HashMap<String, String>) -> ExitCode {
    if let Err(e) = check_flags(
        flags,
        &[
            "vertices",
            "edges",
            "communities",
            "ratio",
            "seed",
            "output",
            "truth",
        ],
    ) {
        return usage(&e);
    }
    let parse = |key: &str| flags.get(key).and_then(|s| s.parse::<usize>().ok());
    let (Some(vertices), Some(edges), Some(output)) =
        (parse("vertices"), parse("edges"), flags.get("output"))
    else {
        return usage("generate requires --vertices, --edges and --output");
    };
    let communities =
        parse("communities").unwrap_or_else(|| ((vertices as f64).sqrt() / 2.0) as usize);
    let ratio: f64 = flags
        .get("ratio")
        .and_then(|s| s.parse().ok())
        .unwrap_or(2.5);
    let seed: u64 = flags.get("seed").and_then(|s| s.parse().ok()).unwrap_or(0);

    let data = generate(DcsbmConfig {
        num_vertices: vertices,
        num_communities: communities.clamp(1, vertices),
        target_num_edges: edges,
        within_between_ratio: ratio,
        seed,
        ..Default::default()
    });
    let write = || -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(output)?);
        write_matrix_market(&data.graph, &mut f)?;
        f.flush()?;
        if let Some(truth_path) = flags.get("truth") {
            let mut f = std::io::BufWriter::new(std::fs::File::create(truth_path)?);
            for (v, b) in data.ground_truth.iter().enumerate() {
                writeln!(f, "{v}\t{b}")?;
            }
            f.flush()?;
        }
        Ok(())
    };
    if let Err(e) = write() {
        eprintln!("cannot write output: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "wrote {} ({} vertices, {} edges, {} communities, r = {ratio})",
        output,
        data.graph.num_vertices(),
        data.graph.num_edges(),
        communities
    );
    ExitCode::SUCCESS
}

/// Set by the SIGTERM/SIGINT handler; polled by the `serve` wait loop.
static SIGNALLED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Install SIGTERM/SIGINT handlers that request an orderly daemon stop.
/// Raw `signal(2)` FFI: the build is dependency-free by policy (no libc
/// crate), and storing to an `AtomicBool` is async-signal-safe.
#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" fn on_signal(_sig: i32) {
        SIGNALLED.store(true, std::sync::atomic::Ordering::Relaxed);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal as extern "C" fn(i32) as usize);
        signal(SIGTERM, on_signal as extern "C" fn(i32) as usize);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

fn serve_cmd(flags: &HashMap<String, String>) -> ExitCode {
    if let Err(e) = check_flags(
        flags,
        &[
            "addr",
            "input",
            "seed",
            "variant",
            "max-sweeps",
            "deadline",
            "audit-cadence",
            "strict-audit",
            "inject-drift",
            "refine-pause-ms",
            "state-dir",
            "fsync",
            "snapshot-every",
            "max-pending",
            "max-connections",
            "idle-timeout-ms",
            "fault-plan",
        ],
    ) {
        return usage(&e);
    }
    let addr = flags
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7474".to_string());
    let seed: u64 = flags.get("seed").and_then(|s| s.parse().ok()).unwrap_or(0);
    let variant = match flags.get("variant").map(String::as_str) {
        None | Some("hsbp") => Variant::Hybrid,
        Some("sbp") => Variant::Metropolis,
        Some("asbp") => Variant::AsyncGibbs,
        Some(other) => return usage(&format!("unknown variant `{other}`")),
    };
    let mut budget = RunBudget::unlimited();
    match flags.get("max-sweeps").map(|s| s.parse::<usize>()) {
        None => {}
        Some(Ok(n)) if n > 0 => budget = budget.with_max_total_sweeps(n),
        Some(_) => return usage("--max-sweeps needs a positive integer"),
    }
    match flags.get("deadline").map(|s| s.parse::<f64>()) {
        None => {}
        Some(Ok(t)) if t.is_finite() && t > 0.0 => {
            budget = budget.with_deadline(Duration::from_secs_f64(t))
        }
        Some(_) => return usage("--deadline needs a positive number of seconds"),
    }
    let refine_pause_ms: u64 = match flags.get("refine-pause-ms").map(|s| s.parse()) {
        None => 0,
        Some(Ok(n)) => n,
        Some(Err(_)) => return usage("--refine-pause-ms needs a non-negative integer"),
    };
    let defaults = ServeConfig::default();
    let state_dir = flags.get("state-dir").map(std::path::PathBuf::from);
    let fsync = match flags.get("fsync") {
        None => defaults.fsync,
        Some(spec) => match hsbp::serve::FsyncPolicy::parse(spec) {
            Ok(p) => p,
            Err(e) => return usage(&format!("bad --fsync: {e}")),
        },
    };
    let parse_count = |name: &str, default: u64| -> Result<u64, String> {
        match flags.get(name).map(|s| s.parse()) {
            None => Ok(default),
            Some(Ok(n)) => Ok(n),
            Some(Err(_)) => Err(format!("--{name} needs a non-negative integer")),
        }
    };
    let snapshot_every = match parse_count("snapshot-every", defaults.snapshot_every) {
        Ok(n) => n,
        Err(e) => return usage(&e),
    };
    let max_pending = match parse_count("max-pending", defaults.max_pending as u64) {
        Ok(n) => n as usize,
        Err(e) => return usage(&e),
    };
    let max_connections = match parse_count("max-connections", defaults.max_connections as u64) {
        Ok(n) => n as usize,
        Err(e) => return usage(&e),
    };
    let idle_timeout_ms = match parse_count("idle-timeout-ms", defaults.idle_timeout_ms) {
        Ok(n) => n,
        Err(e) => return usage(&e),
    };
    let fault_plan = match flags.get("fault-plan") {
        None => hsbp::serve::ServeFaultPlan::none(),
        Some(spec) => match hsbp::serve::ServeFaultPlan::parse(spec) {
            Ok(p) => p,
            Err(e) => return usage(&format!("bad --fault-plan: {e}")),
        },
    };
    if !fault_plan.is_empty() && state_dir.is_none() {
        return usage("--fault-plan targets the durability path; it needs --state-dir");
    }
    let mut sbp = SbpConfig::new(variant, seed);
    if let Err(e) = apply_audit_flags(flags, &mut sbp) {
        return usage(&e);
    }
    let initial = match flags.get("input") {
        None => hsbp::Graph::from_edges(0, &[]),
        Some(path) => match load_path(path) {
            Ok(g) => g,
            Err(e) => {
                eprintln!("error: cannot load {path}: {e}");
                return ExitCode::from(EXIT_BAD_GRAPH);
            }
        },
    };
    if initial.num_vertices() > 0 {
        eprintln!(
            "initial graph: {} vertices, {} edges; running full {} detection before serving",
            initial.num_vertices(),
            initial.num_edges(),
            variant.name()
        );
    }

    install_signal_handlers();
    if let Some(dir) = &state_dir {
        eprintln!(
            "state dir: {} (fsync {}, snapshot every {} batches)",
            dir.display(),
            fsync.name(),
            snapshot_every
        );
    }
    let config = ServeConfig {
        addr,
        sbp,
        budget,
        refine_pause_ms,
        state_dir,
        fsync,
        snapshot_every,
        max_pending,
        max_connections,
        idle_timeout_ms,
        fault_plan,
        // The CLI daemon dies for real on injected crashes, so the CI
        // crash-recovery job observes an actual process death.
        hard_faults: true,
    };
    let handle = match Server::spawn(config, initial) {
        Ok(h) => h,
        Err(e) => return report_error(&e),
    };
    // The harness parses this line to find the bound (possibly ephemeral)
    // port, so it goes to stdout and is flushed immediately.
    println!("listening on {}", handle.local_addr());
    let _ = std::io::stdout().flush();

    loop {
        if SIGNALLED.load(std::sync::atomic::Ordering::Relaxed) {
            eprintln!("signal received; shutting down");
            handle.shutdown();
            break;
        }
        if handle.is_shutting_down() {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    handle.join();
    eprintln!("server stopped");
    ExitCode::SUCCESS
}

fn version_cmd(flags: &HashMap<String, String>) -> ExitCode {
    if let Err(e) = check_flags(flags, &[]) {
        return usage(&e);
    }
    println!("hsbp {}", env!("CARGO_PKG_VERSION"));
    println!("serve protocol {}", hsbp::serve::PROTOCOL_VERSION);
    println!("shard sync protocol {SYNC_PROTOCOL_VERSION}");
    println!(
        "bench schemas: mcmc {} (BENCH_mcmc.json), serve {} (BENCH_serve.json), \
         shard {} (BENCH_shard.json)",
        hsbp::bench::hotpath::BENCH_MCMC_SCHEMA_VERSION,
        hsbp::serve::BENCH_SERVE_SCHEMA_VERSION,
        hsbp::bench::shard::BENCH_SHARD_SCHEMA_VERSION
    );
    ExitCode::SUCCESS
}
