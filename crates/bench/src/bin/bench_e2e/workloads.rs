//! The workload process: repeats one workload for `--seconds`, checks its
//! outputs and reports its end-to-end and per-layer metrics.
//!
//! Every time is measured from outside the library, around the calls the
//! benchmark makes into public entry points; counters are read from the
//! values those calls return (`RunStats`, `ExactRun`, the daemon's
//! `status`, the pool's `stats()`).

use crate::inputs::{self, Engine, Workload};
use crate::serve;
use crate::stats::{median, percentile};
use crate::trace::{Span, Tracer};
use hsbp_core::{run_sbp_checked, RunStats, SbpConfig, Variant};
use hsbp_graph::io::load_path;
use hsbp_graph::Graph;
use hsbp_shard::channel::checksum;
use hsbp_shard::{run_exact_sbp, ExactConfig};
use hsbp_timing::Phase;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Relative gap allowed between the phase totals `RunStats` reports and
/// the measured solve time, and between request spans and their round.
pub const SPAN_SUM_TOLERANCE: f64 = 0.02;
/// Loads of each input graph per repetition: one load takes milliseconds,
/// so a single sample would be mostly noise.
const SETUP_LOADS: usize = 9;
/// Repetitions made even when they overrun `--seconds`.
const MIN_REPS: usize = 3;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

#[derive(Debug)]
pub struct Report {
    pub reps: usize,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub spans: Vec<Span>,
}

/// The end-to-end metrics every workload reports, with their units. Solve
/// time is a per-layer metric instead: on a shared host its spread from one
/// run to the next exceeds the widest bound a metric may have (see the
/// README).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("nmi", "ratio"),
    ("mdl_norm", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run reports, with their units. A
/// layer the workload does not reach reports 0.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("solve_s", "s"),
    ("graph.load_s", "s"),
    ("graph.load_mb_per_s", "MB/s"),
    ("driver.outer_iterations", "count"),
    ("driver.other_s", "s"),
    ("merge.wall_s", "s"),
    ("merge.share", "ratio"),
    ("mcmc.wall_s", "s"),
    ("mcmc.share", "ratio"),
    ("mcmc.sweeps", "count"),
    ("mcmc.proposals", "count"),
    ("mcmc.accept_rate", "ratio"),
    ("mcmc.proposals_per_s", "1/s"),
    ("mcmc.consolidations_incremental", "count"),
    ("mcmc.consolidations_rebuild", "count"),
    ("mcmc.consolidated_moves", "count"),
    ("audit.runs", "count"),
    ("audit.drift_events", "count"),
    ("pool.sections", "count"),
    ("pool.steals", "count"),
    ("pool.mean_imbalance", "ratio"),
    ("serve.read_p50_us", "us"),
    ("serve.read_p99_us", "us"),
    ("serve.freshness_p50_ms", "ms"),
    ("serve.freshness_p90_ms", "ms"),
    ("serve.membership_p50_us", "us"),
    ("serve.mdl_p50_us", "us"),
    ("serve.block_stats_p50_us", "us"),
    ("serve.read_during_refine_p50_us", "us"),
    ("serve.read_after_refine_p50_us", "us"),
    ("serve.mid_refinement_reads", "count"),
    ("serve.spawn_s", "s"),
    ("serve.write_p50_us", "us"),
    ("serve.write_p99_us", "us"),
    ("serve.write_runqueue_p50_us", "us"),
    ("serve.write_cpu_p50_us", "us"),
    ("serve.flush_wait_p50_ms", "ms"),
    ("serve.wal_bytes", "bytes"),
    ("serve.snapshots", "count"),
    ("serve.refines", "count"),
    ("serve.cancellations", "count"),
    ("serve.refine_errors", "count"),
    ("serve.busy", "count"),
    ("shard.sync_rounds", "count"),
    ("shard.messages", "count"),
    ("shard.bytes_per_round", "bytes"),
    ("shard.retransmits", "count"),
    ("shard.resyncs", "count"),
    ("shard.outside_phases_s", "s"),
    ("trace.overhead", "ratio"),
];

pub fn check(name: impl Into<String>, ok: bool, detail: impl Into<String>) -> Check {
    Check {
        name: name.into(),
        ok,
        detail: detail.into(),
    }
}

/// One input instance as the workload process holds it.
pub struct Instance {
    pub truth: Vec<u32>,
    pub requests: Vec<String>,
    pub graph_mb: f64,
}

pub struct Ctx<'a> {
    pub seed: u64,
    pub dir: &'a Path,
    pub instances: Vec<Instance>,
    pub tracer: Tracer,
    pub lat: serve::Latencies,
}

/// What one repetition produced. Times and counts are summed over its
/// instances; ratios and rates are derived from the sums.
#[derive(Default)]
pub struct Rep {
    pub setup_s: f64,
    pub solve_s: f64,
    /// The process's peak resident set during the repetition, in MiB.
    pub peak_rss_mb: f64,
    /// Per instance, in order.
    pub nmi: Vec<f64>,
    pub mdl_norm: Vec<f64>,
    /// Per instance, FNV-1a over its assignment and MDL bits.
    pub fingerprints: Vec<u64>,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    pub layers: BTreeMap<&'static str, f64>,
    pub checks: Vec<Check>,
    accepted: f64,
    loaded_mb: f64,
    wire_bytes: f64,
}

impl Rep {
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.layers.entry(name).or_insert(0.0) += value;
    }

    /// Ratios and rates of the summed totals, for the layers this
    /// repetition reached.
    fn derive(&mut self) {
        let get = |k: &str| self.layers.get(k).copied();
        let ratio = |a: Option<f64>, b: Option<f64>| match (a, b) {
            (Some(a), Some(b)) if b > 0.0 => Some(a / b),
            _ => None,
        };
        let derived = [
            (
                "merge.share",
                ratio(get("merge.wall_s"), Some(self.solve_s)),
            ),
            ("mcmc.share", ratio(get("mcmc.wall_s"), Some(self.solve_s))),
            (
                "mcmc.accept_rate",
                ratio(Some(self.accepted), get("mcmc.proposals")),
            ),
            (
                "mcmc.proposals_per_s",
                ratio(get("mcmc.proposals"), get("mcmc.wall_s")),
            ),
            (
                "graph.load_mb_per_s",
                ratio(Some(self.loaded_mb), get("graph.load_s")),
            ),
            (
                "shard.bytes_per_round",
                ratio(Some(self.wire_bytes), get("shard.sync_rounds")),
            ),
        ];
        for (name, value) in derived {
            if let Some(v) = value {
                self.layers.insert(name, v);
            }
        }
    }
}

pub fn sbp_config(seed: u64, variant: Variant, threads: usize) -> SbpConfig {
    SbpConfig {
        variant,
        seed,
        threads,
        ..Default::default()
    }
}

/// Run `w` on the inputs in `dir` for at least `seconds` (and at least
/// `MIN_REPS` repetitions). With `traced`, odd repetitions record spans
/// and even ones do not, so the same run yields the tracing overhead.
pub fn run(w: &Workload, seed: u64, dir: &Path, seconds: f64, traced: bool) -> Report {
    let mut report = Report {
        reps: 0,
        attempted: 0,
        failed: 0,
        checks: Vec::new(),
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
        spans: Vec::new(),
    };
    let mut instances = Vec::with_capacity(w.instances);
    for i in 0..w.instances {
        let read = |file: &str| std::fs::read_to_string(inputs::input_path(dir, i, file));
        match (read(inputs::TRUTH_FILE), read(inputs::REQUESTS_FILE)) {
            (Ok(t), Ok(r)) => instances.push(Instance {
                truth: t.lines().filter_map(|l| l.parse().ok()).collect(),
                requests: r.lines().map(str::to_string).collect(),
                graph_mb: std::fs::metadata(inputs::input_path(dir, i, inputs::GRAPH_FILE))
                    .map_or(0.0, |m| m.len() as f64 / (1024.0 * 1024.0)),
            }),
            (Err(e), _) | (_, Err(e)) => {
                report
                    .checks
                    .push(check("inputs", false, format!("cannot read inputs: {e}")));
                return finish(report);
            }
        }
    }
    let mut ctx = Ctx {
        seed,
        dir,
        instances,
        tracer: Tracer::new(),
        lat: serve::Latencies::default(),
    };

    // Start another repetition only while it is expected to end inside
    // `seconds`, so a run measures for about `seconds` whatever the
    // repetition length.
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let fits = |done: usize| {
        let elapsed = started.elapsed().as_secs_f64();
        elapsed + elapsed / done.max(1) as f64 <= seconds
    };
    while reps.len() < MIN_REPS || fits(reps.len()) {
        ctx.tracer.set_on(traced && reps.len() % 2 == 1);
        let rep_id = reps.len() as u64 + 1;
        match repetition(&mut ctx, w, rep_id) {
            Ok(mut rep) => {
                report.attempted += rep.attempted;
                report.failed += rep.failed;
                report.checks.append(&mut rep.checks);
                reps.push(rep);
            }
            Err(e) => {
                report
                    .checks
                    .push(check(format!("repetition {rep_id}"), false, e));
                break;
            }
        }
    }
    report.reps = reps.len();
    if !reps.is_empty() {
        summarise(&mut report, &ctx, w, &reps, traced);
    }
    report.spans = ctx.tracer.spans().to_vec();
    finish(report)
}

fn repetition(ctx: &mut Ctx<'_>, w: &Workload, id: u64) -> Result<Rep, String> {
    let mut rep = Rep {
        traced: ctx.tracer.is_on(),
        ..Rep::default()
    };
    let threads = match w.engine {
        Engine::Detect { threads, .. }
        | Engine::Serve { threads }
        | Engine::Shard { threads, .. } => threads,
    };
    let pool = hsbp_parallel::pool_for(threads);
    pool.reset_stats();
    reset_peak_rss();
    let root = ctx.tracer.start(id, 0, "rep");
    for i in 0..ctx.instances.len() {
        let seed = inputs::derive(ctx.seed, i, 2);
        let (graph, load_s) = load_graph(ctx, &mut rep, id, root.id(), i)?;
        rep.setup_s += load_s;
        match w.engine {
            Engine::Detect { variant, .. } => {
                let cfg = sbp_config(seed, variant, threads);
                let span = ctx.tracer.start(id, root.id(), "core.run_sbp_checked");
                rep.attempted += 1;
                let result = run_sbp_checked(&graph, &cfg);
                let secs = ctx.tracer.end(span);
                let result = result.map_err(|e| format!("run_sbp_checked: {e}"))?;
                rep.solve_s += secs;
                run_stats_layers(&mut rep, &result.stats, secs);
                outcome(
                    ctx,
                    &mut rep,
                    id,
                    root.id(),
                    i,
                    &result.assignment,
                    result.mdl.total,
                );
                rep.mdl_norm.push(result.normalized_mdl);
            }
            Engine::Shard { shards, .. } => {
                let cfg = ExactConfig {
                    num_shards: shards,
                    sbp: sbp_config(seed, Variant::ExactAsync, threads),
                    sync_every: 1,
                    ..Default::default()
                };
                let span = ctx.tracer.start(id, root.id(), "shard.run_exact_sbp");
                rep.attempted += 1;
                let run = run_exact_sbp(&graph, &cfg);
                let secs = ctx.tracer.end(span);
                let run = run.map_err(|e| format!("run_exact_sbp: {e}"))?;
                rep.solve_s += secs;
                let stats = &run.result.stats;
                run_stats_layers(&mut rep, stats, secs);
                let net = &run.net;
                for (name, value) in [
                    ("shard.sync_rounds", stats.sync_rounds as f64),
                    ("shard.messages", net.messages as f64),
                    ("shard.retransmits", net.retransmits as f64),
                    ("shard.resyncs", net.resyncs as f64),
                    (
                        "shard.outside_phases_s",
                        secs - stats.timer.grand_total().as_secs_f64(),
                    ),
                ] {
                    rep.add(name, value);
                }
                rep.wire_bytes += net.bytes as f64;
                rep.checks.push(check(
                    "no dead shards",
                    run.dead_shards.is_empty(),
                    format!(
                        "{} dead of {}; {} messages, {} retransmits, {} resyncs",
                        run.dead_shards.len(),
                        run.num_shards,
                        net.messages,
                        net.retransmits,
                        net.resyncs
                    ),
                ));
                let result = &run.result;
                outcome(
                    ctx,
                    &mut rep,
                    id,
                    root.id(),
                    i,
                    &result.assignment,
                    result.mdl.total,
                );
                rep.mdl_norm.push(result.normalized_mdl);
            }
            Engine::Serve { .. } => {
                let cfg = sbp_config(seed, Variant::Hybrid, threads);
                serve::instance(ctx, &mut rep, id, root.id(), i, graph, cfg)?
            }
        }
    }
    ctx.tracer.end(root);
    rep.peak_rss_mb = peak_rss_mb();
    let p = pool.stats();
    rep.layers.insert("pool.sections", p.sections as f64);
    rep.layers.insert("pool.steals", p.steals as f64);
    rep.layers.insert("pool.mean_imbalance", p.mean_imbalance);
    rep.derive();
    Ok(rep)
}

/// Count every check as one attempted item and each failure as a failed
/// one, then fold the per-repetition checks into one line per name.
fn finish(mut report: Report) -> Report {
    report.attempted += report.checks.len() as u64;
    report.failed += report.checks.iter().filter(|c| !c.ok).count() as u64;
    let mut merged: Vec<(Check, usize, usize)> = Vec::new();
    for c in report.checks.drain(..) {
        match merged.iter_mut().find(|(m, _, _)| m.name == c.name) {
            Some((m, passed, total)) => {
                *total += 1;
                *passed += usize::from(c.ok);
                // Keep the first failure's detail, else the latest.
                if m.ok {
                    *m = c;
                }
            }
            None => {
                let passed = usize::from(c.ok);
                merged.push((c, passed, 1));
            }
        }
    }
    report.checks = merged
        .into_iter()
        .map(|(mut c, passed, total)| {
            if total > 1 {
                c.ok = passed == total;
                c.detail = format!("{passed}/{total} passed; {}", c.detail);
            }
            c
        })
        .collect();
    report
}

fn summarise(report: &mut Report, ctx: &Ctx<'_>, w: &Workload, reps: &[Rep], traced: bool) {
    // Repetitions of the same inputs must agree bit for bit.
    let first = &reps[0];
    let same = reps
        .iter()
        .all(|r| r.fingerprints == first.fingerprints && r.nmi == first.nmi);
    report.checks.push(check(
        "repetitions identical",
        same,
        format!(
            "assignments and MDL bits hash to {:016x?} in the first of {} reps",
            first.fingerprints,
            reps.len()
        ),
    ));
    let nmi_min = reps
        .iter()
        .flat_map(|r| r.nmi.iter().copied())
        .fold(f64::INFINITY, f64::min);
    report.checks.push(check(
        "nmi floor",
        nmi_min >= w.nmi_floor,
        format!("lowest instance nmi {nmi_min:.4}, floor {}", w.nmi_floor),
    ));

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let col = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<f64>>());
    let n = reps.len();
    let e2e = [
        (col(&|r| r.setup_s), n),
        (col(&|r| mean(&r.nmi)), n),
        (col(&|r| mean(&r.mdl_norm)), n),
        // Allocator state left by earlier repetitions raises each one's
        // peak, and about one in ten has a transient spike: the least is
        // the peak of a fresh process solving the workload once.
        (
            reps.iter()
                .map(|r| r.peak_rss_mb)
                .fold(f64::INFINITY, f64::min),
            n,
        ),
    ];
    report.end_to_end = END_TO_END
        .iter()
        .zip(e2e)
        .map(|(&(name, unit), (value, samples))| Metric {
            name,
            value,
            unit,
            samples,
        })
        .collect();

    // Per layer: the median over repetitions, then the latency
    // percentiles pooled over every serve request.
    let mut values: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
    values.insert("solve_s", (col(&|r| r.solve_s), n));
    for &(name, _) in &PER_LAYER {
        let v: Vec<f64> = reps
            .iter()
            .filter_map(|r| r.layers.get(name).copied())
            .collect();
        if !v.is_empty() {
            values.insert(name, (median(&v), v.len()));
        }
    }
    // A percentile with fewer than ten samples beyond it is withheld, and
    // reads 0 with no samples.
    for (name, samples, p) in ctx.lat.percentiles() {
        if let Some(v) = percentile(samples, p) {
            values.insert(name, (v, samples.len()));
        }
    }
    if traced {
        let solve = |on: bool| {
            median(
                &reps
                    .iter()
                    .filter(|r| r.traced == on)
                    .map(|r| r.solve_s)
                    .collect::<Vec<_>>(),
            )
        };
        let (on, off) = (solve(true), solve(false));
        if on > 0.0 && off > 0.0 {
            values.insert("trace.overhead", (on / off, n));
        }
    }
    report.per_layer = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let (value, samples) = values.get(name).copied().unwrap_or((0.0, 0));
            Metric {
                name,
                value,
                unit,
                samples,
            }
        })
        .collect();
}

/// Restart the process's peak resident set (`VmHWM`) from the current
/// one. Without it, the peak stays the process's whole lifetime's.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The process's peak resident set (`VmHWM`) since the last
/// [`reset_peak_rss`], in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Load instance `i`'s graph `SETUP_LOADS` times; returns the graph and the
/// median load time.
fn load_graph(
    ctx: &mut Ctx<'_>,
    rep: &mut Rep,
    trace: u64,
    parent: u64,
    i: usize,
) -> Result<(Graph, f64), String> {
    let path = inputs::input_path(ctx.dir, i, inputs::GRAPH_FILE);
    let mut times = Vec::with_capacity(SETUP_LOADS);
    let mut graph = Err("no load attempted".to_string());
    for _ in 0..SETUP_LOADS {
        let span = ctx.tracer.start(trace, parent, "graph.load_path");
        rep.attempted += 1;
        let loaded = load_path(&path);
        times.push(ctx.tracer.end(span));
        graph = Ok(loaded.map_err(|e| format!("load_path: {e}"))?);
    }
    let secs = median(&times);
    rep.add("graph.load_s", secs);
    rep.loaded_mb += ctx.instances[i].graph_mb;
    Ok((graph?, secs))
}

/// Per-layer values every `RunStats` carries, plus the checks that no
/// drift was repaired and, traced, that its phase totals account for the
/// measured solve time.
fn run_stats_layers(rep: &mut Rep, stats: &RunStats, solve_s: f64) {
    let merge = stats.timer.total(Phase::BlockMerge).as_secs_f64();
    let mcmc = stats.timer.total(Phase::Mcmc).as_secs_f64();
    let other = stats.timer.total(Phase::Other).as_secs_f64();
    for (name, value) in [
        ("driver.outer_iterations", stats.outer_iterations as f64),
        ("driver.other_s", other),
        ("merge.wall_s", merge),
        ("mcmc.wall_s", mcmc),
        ("mcmc.sweeps", stats.mcmc_sweeps as f64),
        ("mcmc.proposals", stats.proposals as f64),
        (
            "mcmc.consolidations_incremental",
            stats.consolidations_incremental as f64,
        ),
        (
            "mcmc.consolidations_rebuild",
            stats.consolidations_rebuild as f64,
        ),
        ("mcmc.consolidated_moves", stats.consolidated_moves as f64),
        ("audit.runs", stats.audits_run as f64),
        ("audit.drift_events", stats.drift_events.len() as f64),
    ] {
        rep.add(name, value);
    }
    rep.accepted += stats.accepted as f64;
    let drift = stats.drift_events.len();
    rep.checks.push(check(
        "no drift",
        drift == 0,
        format!("{drift} drift event(s)"),
    ));
    if rep.traced {
        let phases = merge + mcmc + other;
        let gap = (solve_s - phases).abs() / solve_s;
        rep.checks.push(check(
            "phase totals match solve_s",
            gap <= SPAN_SUM_TOLERANCE,
            format!(
                "phases {phases:.4} s vs solve {solve_s:.4} s ({:.2}% apart)",
                gap * 100.0
            ),
        ));
    }
}

/// Score instance `i`'s final partition against its planted one and
/// fingerprint it with its MDL.
pub fn outcome(
    ctx: &mut Ctx<'_>,
    rep: &mut Rep,
    trace: u64,
    parent: u64,
    i: usize,
    assignment: &[u32],
    mdl: f64,
) {
    let span = ctx.tracer.start(trace, parent, "metrics.nmi");
    rep.nmi
        .push(hsbp_metrics::nmi(&ctx.instances[i].truth, assignment));
    ctx.tracer.end(span);
    let mut bytes: Vec<u8> = assignment.iter().flat_map(|b| b.to_le_bytes()).collect();
    bytes.extend_from_slice(&mdl.to_bits().to_le_bytes());
    rep.fingerprints.push(checksum(&bytes));
}
