//! The bench-gated hot-path baseline: measured sweep throughput of the four
//! MCMC variants on synthetic DCSBM graphs, written as machine-readable
//! `BENCH_mcmc.json` and compared against the committed baseline in CI.
//!
//! Three modes (see the `bench_hotpath` binary):
//!
//! * `full`  — smoke + 5k + 20k graphs; produces the committed baseline,
//! * `smoke` — the smoke graph only (seconds; what CI runs),
//! * `check` — run smoke and fail on a >threshold throughput regression
//!   against a baseline file.
//!
//! CI machines differ from the machine that produced the committed
//! baseline, so `check` never compares raw sweeps/sec. Every report embeds
//! `calibration_ops_per_s` — the throughput of a fixed splitmix64 loop on
//! the reporting machine — and regressions are judged on
//! *calibration-normalised* throughput (sweeps/sec ÷ calibration), which
//! cancels first-order machine-speed differences while staying sensitive to
//! real hot-path regressions.

use hsbp_blockmodel::Blockmodel;
use hsbp_collections::SplitMix64;
use hsbp_core::{run_mcmc_phase, RunStats, SbpConfig, Variant};
use hsbp_generator::{generate, DcsbmConfig};
use hsbp_serve::json::{num_u, obj, Json};
use std::time::Instant;

/// Schema version of `BENCH_mcmc.json`. Bumped on any incompatible change
/// to the report shape; reported by `hsbp version` so replay tooling can
/// detect mismatched baselines. Schema 4 dropped the per-measurement
/// math field (there is one delta-MDL math path); check mode only reads
/// baselines of the current schema.
pub const BENCH_MCMC_SCHEMA_VERSION: u32 = 4;

/// One benchmark graph + sweep protocol.
#[derive(Debug, Clone, Copy)]
pub struct HotpathSpec {
    /// Stable name used as the JSON key and in check-mode matching.
    pub name: &'static str,
    pub vertices: usize,
    pub communities: usize,
    pub edges: usize,
    /// Untimed sweeps run first to settle the chain.
    pub warmup_sweeps: usize,
    /// Timed sweeps per repeat.
    pub sweeps: usize,
    /// Timed repeats; the fastest is reported (least scheduler noise).
    pub repeats: usize,
}

/// Seconds-scale config CI can afford on every push. The timed section has
/// to be long enough for the 15% check-mode threshold to clear scheduler
/// noise: at 4 sweeps per repeat a repeat is ~5 ms and run-to-run jitter
/// alone exceeded the threshold, hence 20 sweeps × 5 repeats (best-of).
pub const SMOKE: HotpathSpec = HotpathSpec {
    name: "dcsbm_smoke",
    vertices: 1200,
    communities: 8,
    edges: 12_000,
    warmup_sweeps: 2,
    sweeps: 20,
    repeats: 5,
};

/// The 5k-vertex DCSBM of the acceptance criterion.
pub const FIVE_K: HotpathSpec = HotpathSpec {
    name: "dcsbm_5k",
    vertices: 5_000,
    communities: 32,
    edges: 50_000,
    warmup_sweeps: 2,
    sweeps: 8,
    repeats: 3,
};

/// The larger sanity point.
pub const TWENTY_K: HotpathSpec = HotpathSpec {
    name: "dcsbm_20k",
    vertices: 20_000,
    communities: 64,
    edges: 200_000,
    warmup_sweeps: 1,
    sweeps: 4,
    repeats: 2,
};

/// All four MCMC variants, in report order.
pub const VARIANTS: [Variant; 4] = [
    Variant::Metropolis,
    Variant::AsyncGibbs,
    Variant::Hybrid,
    Variant::ExactAsync,
];

/// Thread counts a report sweeps. `full` covers the scaling curve; the
/// seconds-scale smoke/check modes keep CI cost down with the two endpoints
/// that matter (serial parity and the parallel path). When `HSBP_THREADS`
/// is pinned in the environment the sweep honours it: `{1, pinned}`,
/// deduped — CI's matrix legs run exactly the configured width plus the
/// serial anchor the efficiency column needs.
pub fn threads_for_mode(mode: &str) -> Vec<usize> {
    if let Ok(raw) = std::env::var("HSBP_THREADS") {
        if let Ok(t) = raw.trim().parse::<usize>() {
            let t = t.max(1);
            return if t == 1 { vec![1] } else { vec![1, t] };
        }
    }
    match mode {
        "full" => vec![1, 2, 4, 8],
        _ => vec![1, 4],
    }
}

/// Measured throughput of one variant on one graph at one thread count.
#[derive(Debug, Clone)]
pub struct VariantMeasurement {
    /// Paper-style variant name (`SBP`, `A-SBP`, `H-SBP`, `EA-SBP`).
    pub variant: String,
    /// Worker threads the parallel sections ran with (`SbpConfig::threads`).
    /// The serial SBP variant is only measured at 1.
    pub threads: usize,
    /// Timed sweeps per repeat.
    pub sweeps: usize,
    /// Wall-clock seconds of the fastest repeat.
    pub elapsed_s: f64,
    /// Sweeps per second (fastest repeat).
    pub sweeps_per_s: f64,
    /// Proposals evaluated per second (fastest repeat).
    pub proposals_per_s: f64,
    /// Fraction of proposals accepted during the timed sweeps.
    pub acceptance_rate: f64,
    /// End-of-sweep consolidations resolved by incremental move replay
    /// (fastest repeat; 0 for the serial SBP variant, which never
    /// consolidates).
    pub consolidations_incremental: u64,
    /// Consolidations resolved by a full O(E) rebuild (fastest repeat).
    pub consolidations_rebuild: u64,
    /// Accepted moves replayed through the incremental path (fastest repeat).
    pub consolidated_moves: u64,
    /// `(sweeps_per_s at this thread count / sweeps_per_s at 1 thread) /
    /// threads` — 1.0 is perfect scaling. Anchored on the same-variant
    /// 1-thread run of the same sweep (always measured first).
    pub parallel_efficiency: f64,
    /// Pool sections executed during the timed repeats (all repeats, not
    /// just the fastest — scheduling stats accumulate per measurement).
    pub pool_sections: u64,
    /// Chunks executed by a worker other than their home worker.
    pub pool_steals: u64,
    /// Worst per-section imbalance: max worker busy-weight / mean.
    pub pool_max_imbalance: f64,
    /// Mean per-section imbalance across the timed sections.
    pub pool_mean_imbalance: f64,
}

/// All variant measurements for one benchmark graph.
#[derive(Debug, Clone)]
pub struct GraphMeasurement {
    pub name: String,
    pub vertices: usize,
    pub edges: u64,
    pub variants: Vec<VariantMeasurement>,
}

/// A full hot-path benchmark report (the content of `BENCH_mcmc.json`).
#[derive(Debug, Clone)]
pub struct HotpathReport {
    pub mode: String,
    pub calibration_ops_per_s: f64,
    /// Hardware threads the reporting host advertises. Parallel-efficiency
    /// figures measured with more pool threads than this are exercising the
    /// scheduler, not the silicon — read them as correctness, not speedup.
    pub host_parallelism: usize,
    /// Value of `HSBP_THREADS` in the benchmarking environment, if set.
    pub hsbp_threads_env: Option<usize>,
    /// Thread counts this report swept (see [`threads_for_mode`]).
    pub threads_swept: Vec<usize>,
    pub graphs: Vec<GraphMeasurement>,
}

/// Machine-speed proxy: throughput of a fixed splitmix64 loop. Pure
/// integer-ALU work that any machine runs at a stable rate, used to
/// normalise sweep throughput across machines in check mode. Best of three
/// passes: scheduler preemption and frequency ramp-up only ever make a pass
/// *slower*, so the max is the stable estimate of the machine's speed.
pub fn calibration_ops_per_s() -> f64 {
    let iters: u64 = 20_000_000;
    let mut best = 0.0f64;
    for pass in 0..3 {
        let mut rng = SplitMix64::new(0x0bad_5eed ^ pass);
        let start = Instant::now();
        let mut acc: u64 = 0;
        for _ in 0..iters {
            acc ^= rng.next_raw();
        }
        std::hint::black_box(acc);
        best = best.max(iters as f64 / start.elapsed().as_secs_f64().max(1e-9));
    }
    best
}

fn bench_config(variant: Variant, threads: usize) -> SbpConfig {
    SbpConfig {
        variant,
        seed: 7,
        threads,
        mcmc_threshold: 0.0, // never converge early: fixed sweep counts
        audit_cadence: 0,    // audits are not part of the hot path
        ..Default::default()
    }
}

/// Run `sweeps` sweeps of `variant` on a clone of `settled`, returning the
/// elapsed seconds plus the run's counters.
fn timed_sweeps(
    graph: &hsbp_graph::Graph,
    settled: &Blockmodel,
    variant: Variant,
    sweeps: usize,
    threads: usize,
) -> (f64, RunStats) {
    let cfg = SbpConfig {
        max_sweeps: sweeps,
        ..bench_config(variant, threads)
    };
    let mut bm = settled.clone();
    let mut stats = RunStats::new(&cfg);
    let start = Instant::now();
    run_mcmc_phase(graph, &mut bm, &cfg, 1, &mut stats);
    let elapsed = start.elapsed().as_secs_f64();
    (elapsed, stats)
}

/// Measure every variant on one spec'd graph, sweeping `threads`.
pub fn measure_graph(spec: &HotpathSpec, threads: &[usize]) -> GraphMeasurement {
    let generated = generate(DcsbmConfig {
        num_vertices: spec.vertices,
        num_communities: spec.communities,
        target_num_edges: spec.edges,
        seed: 0xbe_ef ^ spec.vertices as u64,
        ..Default::default()
    });
    let graph = &generated.graph;
    let mut variants = Vec::new();
    for variant in VARIANTS {
        // Settle the chain from the planted truth so the timed sweeps see
        // the settled regime (about 0.1% acceptance). It is the cheapest
        // state, not the typical one: bench_e2e measures 9.1% acceptance
        // on `detect_dcsbm` (ROADMAP.md item 1). One settle per variant:
        // sweeps are bit-identical across thread counts, so every
        // measurement starts from the same state.
        let mut settled =
            Blockmodel::from_assignment(graph, generated.ground_truth.clone(), spec.communities);
        if spec.warmup_sweeps > 0 {
            let cfg = SbpConfig {
                max_sweeps: spec.warmup_sweeps,
                ..bench_config(variant, 1)
            };
            let mut stats = RunStats::new(&cfg);
            run_mcmc_phase(graph, &mut settled, &cfg, 0, &mut stats);
        }
        // The serial SBP variant has no parallel section; sweep it at 1 only.
        let thread_points: &[usize] = if variant == Variant::Metropolis {
            &[1]
        } else {
            threads
        };
        // Parallel efficiency is anchored on the same-variant 1-thread run,
        // always measured first.
        let mut one_thread_tp: Option<f64> = None;
        for &t in thread_points {
            let pool = hsbp_parallel::pool_for(t);
            pool.reset_stats();
            let mut best: Option<(f64, RunStats)> = None;
            for _ in 0..spec.repeats.max(1) {
                let run = timed_sweeps(graph, &settled, variant, spec.sweeps, t);
                if best.as_ref().is_none_or(|b| run.0 < b.0) {
                    best = Some(run);
                }
            }
            let pool_stats = pool.stats();
            let Some((elapsed, stats)) = best else {
                continue;
            };
            let elapsed = elapsed.max(1e-9);
            let sweeps_per_s = spec.sweeps as f64 / elapsed;
            if t == 1 {
                one_thread_tp = Some(sweeps_per_s);
            }
            let parallel_efficiency = match one_thread_tp {
                Some(base) if base > 0.0 => (sweeps_per_s / base) / t as f64,
                _ => 0.0,
            };
            let (proposals, accepted) = (stats.proposals, stats.accepted);
            variants.push(VariantMeasurement {
                variant: variant.name().to_string(),
                threads: t,
                sweeps: spec.sweeps,
                elapsed_s: elapsed,
                sweeps_per_s,
                proposals_per_s: proposals as f64 / elapsed,
                acceptance_rate: if proposals == 0 {
                    0.0
                } else {
                    accepted as f64 / proposals as f64
                },
                consolidations_incremental: stats.consolidations_incremental as u64,
                consolidations_rebuild: stats.consolidations_rebuild as u64,
                consolidated_moves: stats.consolidated_moves,
                parallel_efficiency,
                pool_sections: pool_stats.sections,
                pool_steals: pool_stats.steals,
                pool_max_imbalance: pool_stats.max_imbalance,
                pool_mean_imbalance: pool_stats.mean_imbalance,
            });
        }
    }
    GraphMeasurement {
        name: spec.name.to_string(),
        vertices: spec.vertices,
        edges: graph.num_edges() as u64,
        variants,
    }
}

/// Run the given specs and assemble a report.
pub fn run_report(mode: &str, specs: &[HotpathSpec]) -> HotpathReport {
    let threads = threads_for_mode(mode);
    HotpathReport {
        mode: mode.to_string(),
        calibration_ops_per_s: calibration_ops_per_s(),
        host_parallelism: std::thread::available_parallelism().map_or(1, usize::from),
        hsbp_threads_env: std::env::var("HSBP_THREADS")
            .ok()
            .and_then(|raw| raw.trim().parse::<usize>().ok()),
        graphs: specs.iter().map(|s| measure_graph(s, &threads)).collect(),
        threads_swept: threads,
    }
}

impl VariantMeasurement {
    fn to_json(&self) -> Json {
        obj(vec![
            ("variant", Json::Str(self.variant.clone())),
            ("threads", num_u(self.threads as u64)),
            ("sweeps", num_u(self.sweeps as u64)),
            ("elapsed_s", Json::Num(self.elapsed_s)),
            ("sweeps_per_s", Json::Num(self.sweeps_per_s)),
            ("proposals_per_s", Json::Num(self.proposals_per_s)),
            ("acceptance_rate", Json::Num(self.acceptance_rate)),
            (
                "consolidations_incremental",
                num_u(self.consolidations_incremental),
            ),
            ("consolidations_rebuild", num_u(self.consolidations_rebuild)),
            ("consolidated_moves", num_u(self.consolidated_moves)),
            ("parallel_efficiency", Json::Num(self.parallel_efficiency)),
            ("pool_sections", num_u(self.pool_sections)),
            ("pool_steals", num_u(self.pool_steals)),
            ("pool_max_imbalance", Json::Num(self.pool_max_imbalance)),
            ("pool_mean_imbalance", Json::Num(self.pool_mean_imbalance)),
        ])
    }
}

impl HotpathReport {
    /// Serialise to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let graphs = self.graphs.iter().map(|g| {
            obj(vec![
                ("name", Json::Str(g.name.clone())),
                ("vertices", num_u(g.vertices as u64)),
                ("edges", num_u(g.edges)),
                (
                    "variants",
                    Json::Arr(g.variants.iter().map(VariantMeasurement::to_json).collect()),
                ),
            ])
        });
        obj(vec![
            (
                "schema_version",
                num_u(u64::from(BENCH_MCMC_SCHEMA_VERSION)),
            ),
            ("mode", Json::Str(self.mode.clone())),
            (
                "calibration_ops_per_s",
                Json::Num(self.calibration_ops_per_s),
            ),
            ("host_parallelism", num_u(self.host_parallelism as u64)),
            (
                "hsbp_threads_env",
                self.hsbp_threads_env
                    .map_or(Json::Null, |t| num_u(t as u64)),
            ),
            (
                "threads_swept",
                Json::Arr(
                    self.threads_swept
                        .iter()
                        .map(|&t| num_u(t as u64))
                        .collect(),
                ),
            ),
            ("graphs", Json::Arr(graphs.collect())),
        ])
        .to_pretty()
    }
}

/// One check-mode comparison line.
#[derive(Debug, Clone)]
pub struct CheckLine {
    pub graph: String,
    pub variant: String,
    /// Thread count of the compared measurement.
    pub threads: usize,
    /// Calibration-normalised throughput in the baseline file.
    pub baseline_norm: f64,
    /// Calibration-normalised throughput of this run.
    pub current_norm: f64,
    /// `current_norm / baseline_norm` (1.0 = parity, < 1 = slower).
    pub ratio: f64,
    pub regressed: bool,
}

/// Compare `current` against a parsed `baseline` document, which must be of
/// the current schema. Measurements are matched on `(graph, variant,
/// threads)`. Graphs or thread points present in only one of the two
/// reports are skipped (the baseline may carry the full protocol while CI
/// runs smoke). Returns every comparison made; an empty result means the
/// baseline had no overlapping graphs, which the caller should treat as an
/// error.
pub fn compare_reports(
    current: &HotpathReport,
    baseline: &Json,
    threshold: f64,
) -> Result<Vec<CheckLine>, String> {
    let schema = baseline.get("schema_version").and_then(Json::as_u64);
    if schema != Some(u64::from(BENCH_MCMC_SCHEMA_VERSION)) {
        let found = schema.map_or_else(|| "missing".to_string(), |v| v.to_string());
        return Err(format!(
            "baseline schema_version {found} is not {BENCH_MCMC_SCHEMA_VERSION}; \
             regenerate it with --mode full"
        ));
    }
    let base_calib = baseline
        .get("calibration_ops_per_s")
        .and_then(Json::as_f64)
        .ok_or("baseline missing calibration_ops_per_s")?;
    if base_calib <= 0.0 || base_calib.is_nan() {
        return Err("baseline calibration_ops_per_s must be positive".into());
    }
    let base_graphs = baseline
        .get("graphs")
        .and_then(Json::as_arr)
        .ok_or("baseline missing graphs array")?;
    let mut lines = Vec::new();
    for g in &current.graphs {
        let Some(base_g) = base_graphs
            .iter()
            .find(|bg| bg.get("name").and_then(Json::as_str) == Some(g.name.as_str()))
        else {
            continue;
        };
        let base_variants = base_g
            .get("variants")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("baseline graph {} missing variants", g.name))?;
        for v in &g.variants {
            let Some(base_v) = base_variants.iter().find(|bv| {
                bv.get("variant").and_then(Json::as_str) == Some(v.variant.as_str())
                    && bv.get("threads").and_then(Json::as_u64) == Some(v.threads as u64)
            }) else {
                continue;
            };
            let base_tp = base_v
                .get("sweeps_per_s")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("baseline {}/{} missing sweeps_per_s", g.name, v.variant))?;
            let baseline_norm = base_tp / base_calib;
            let current_norm = v.sweeps_per_s / current.calibration_ops_per_s.max(1e-9);
            let ratio = if baseline_norm > 0.0 {
                current_norm / baseline_norm
            } else {
                1.0
            };
            lines.push(CheckLine {
                graph: g.name.clone(),
                variant: v.variant.clone(),
                threads: v.threads,
                baseline_norm,
                current_norm,
                ratio,
                regressed: ratio < 1.0 - threshold,
            });
        }
    }
    Ok(lines)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use hsbp_serve::json::parse;

    #[test]
    fn json_roundtrip_of_report() {
        let report = HotpathReport {
            mode: "smoke".into(),
            calibration_ops_per_s: 1.5e8,
            host_parallelism: 4,
            hsbp_threads_env: Some(2),
            threads_swept: vec![1, 4],
            graphs: vec![GraphMeasurement {
                name: "g".into(),
                vertices: 10,
                edges: 20,
                variants: vec![VariantMeasurement {
                    variant: "SBP".into(),
                    threads: 4,
                    sweeps: 4,
                    elapsed_s: 0.25,
                    sweeps_per_s: 16.0,
                    proposals_per_s: 160.0,
                    acceptance_rate: 0.5,
                    consolidations_incremental: 3,
                    consolidations_rebuild: 1,
                    consolidated_moves: 42,
                    parallel_efficiency: 0.75,
                    pool_sections: 9,
                    pool_steals: 2,
                    pool_max_imbalance: 1.5,
                    pool_mean_imbalance: 1.2,
                }],
            }],
        };
        let parsed = parse(&report.to_json()).unwrap();
        assert_eq!(parsed.get("mode").and_then(Json::as_str), Some("smoke"));
        assert_eq!(
            parsed.get("schema_version").and_then(Json::as_f64),
            Some(4.0)
        );
        assert_eq!(
            parsed.get("host_parallelism").and_then(Json::as_f64),
            Some(4.0)
        );
        assert_eq!(
            parsed.get("hsbp_threads_env").and_then(Json::as_f64),
            Some(2.0)
        );
        let swept = parsed.get("threads_swept").and_then(Json::as_arr).unwrap();
        assert_eq!(swept.len(), 2);
        assert_eq!(swept[1].as_f64(), Some(4.0));
        let g = &parsed.get("graphs").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(g.get("vertices").and_then(Json::as_f64), Some(10.0));
        let v = &g.get("variants").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(v.get("threads").and_then(Json::as_f64), Some(4.0));
        assert_eq!(v.get("sweeps_per_s").and_then(Json::as_f64), Some(16.0));
        assert_eq!(
            v.get("consolidations_incremental").and_then(Json::as_f64),
            Some(3.0)
        );
        assert_eq!(
            v.get("consolidated_moves").and_then(Json::as_f64),
            Some(42.0)
        );
        assert_eq!(
            v.get("parallel_efficiency").and_then(Json::as_f64),
            Some(0.75)
        );
        assert_eq!(v.get("pool_steals").and_then(Json::as_f64), Some(2.0));
        assert_eq!(
            v.get("pool_mean_imbalance").and_then(Json::as_f64),
            Some(1.2)
        );
    }

    #[test]
    fn null_threads_env_serialises_as_json_null() {
        let report = HotpathReport {
            mode: "smoke".into(),
            calibration_ops_per_s: 1.0,
            host_parallelism: 1,
            hsbp_threads_env: None,
            threads_swept: vec![1],
            graphs: vec![],
        };
        let parsed = parse(&report.to_json()).unwrap();
        assert_eq!(parsed.get("hsbp_threads_env"), Some(&Json::Null));
    }

    fn measurement(variant: &str, threads: usize, tp: f64) -> VariantMeasurement {
        VariantMeasurement {
            variant: variant.into(),
            threads,
            sweeps: 1,
            elapsed_s: 1.0 / tp,
            sweeps_per_s: tp,
            proposals_per_s: tp,
            acceptance_rate: 0.0,
            consolidations_incremental: 0,
            consolidations_rebuild: 0,
            consolidated_moves: 0,
            parallel_efficiency: 1.0,
            pool_sections: 0,
            pool_steals: 0,
            pool_max_imbalance: 0.0,
            pool_mean_imbalance: 0.0,
        }
    }

    fn one_line_report(name: &str, variant: &str, tp: f64, calib: f64) -> HotpathReport {
        HotpathReport {
            mode: "smoke".into(),
            calibration_ops_per_s: calib,
            host_parallelism: 1,
            hsbp_threads_env: None,
            threads_swept: vec![1],
            graphs: vec![GraphMeasurement {
                name: name.into(),
                vertices: 1,
                edges: 1,
                variants: vec![measurement(variant, 1, tp)],
            }],
        }
    }

    #[test]
    fn check_flags_regressions_and_normalises_machine_speed() {
        let baseline = one_line_report("g", "SBP", 100.0, 1e8);
        let base_json = parse(&baseline.to_json()).unwrap();

        // Same normalised speed on a machine 2x faster: not a regression.
        let same = one_line_report("g", "SBP", 200.0, 2e8);
        let lines = compare_reports(&same, &base_json, 0.15).unwrap();
        assert_eq!(lines.len(), 1);
        assert!(!lines[0].regressed, "{lines:?}");
        assert!((lines[0].ratio - 1.0).abs() < 1e-9);

        // 30% slower normalised: regression at a 15% threshold.
        let slow = one_line_report("g", "SBP", 70.0, 1e8);
        let lines = compare_reports(&slow, &base_json, 0.15).unwrap();
        assert!(lines[0].regressed);

        // 10% slower: inside the threshold.
        let ok = one_line_report("g", "SBP", 90.0, 1e8);
        let lines = compare_reports(&ok, &base_json, 0.15).unwrap();
        assert!(!lines[0].regressed);
    }

    #[test]
    fn check_skips_unmatched_graphs() {
        let baseline = one_line_report("other_graph", "SBP", 100.0, 1e8);
        let base_json = parse(&baseline.to_json()).unwrap();
        let current = one_line_report("g", "SBP", 10.0, 1e8);
        let lines = compare_reports(&current, &base_json, 0.15).unwrap();
        assert!(lines.is_empty());
    }

    #[test]
    fn check_matches_on_thread_count() {
        // Baseline has 1- and 4-thread points with different speeds; each
        // current line must compare against its own thread count.
        let mut baseline = one_line_report("g", "A-SBP", 100.0, 1e8);
        baseline.graphs[0]
            .variants
            .push(measurement("A-SBP", 4, 300.0));
        let base_json = parse(&baseline.to_json()).unwrap();

        let mut current = one_line_report("g", "A-SBP", 100.0, 1e8);
        current.graphs[0]
            .variants
            .push(measurement("A-SBP", 4, 290.0));
        let lines = compare_reports(&current, &base_json, 0.15).unwrap();
        assert_eq!(lines.len(), 2);
        let at = |t: usize| lines.iter().find(|l| l.threads == t).unwrap();
        assert!((at(1).ratio - 1.0).abs() < 1e-9);
        assert!((at(4).ratio - 290.0 / 300.0).abs() < 1e-9);
        assert!(!at(4).regressed);
    }

    #[test]
    fn check_rejects_baselines_of_other_schemas() {
        let current = one_line_report("g", "A-SBP", 100.0, 1e8);
        for old in [
            r#"{"schema_version": 3, "calibration_ops_per_s": 1e8, "graphs": []}"#,
            r#"{"calibration_ops_per_s": 1e8, "graphs": []}"#,
        ] {
            let err = compare_reports(&current, &parse(old).unwrap(), 0.15).unwrap_err();
            assert!(err.contains("schema_version"), "{err}");
        }
    }

    #[test]
    fn committed_baseline_is_current_schema() {
        let text = include_str!("../../../BENCH_mcmc.json");
        let baseline = parse(text).unwrap();
        let current = one_line_report("dcsbm_smoke", "SBP", 1.0, 1e8);
        let lines = compare_reports(&current, &baseline, 0.15).unwrap();
        assert_eq!(lines.len(), 1, "one SBP t=1 line on dcsbm_smoke");
    }

    #[test]
    fn thread_sweep_covers_modes() {
        // Not under HSBP_THREADS here: the suite may run with it set, in
        // which case the pinned sweep applies to every mode.
        let full = threads_for_mode("full");
        let smoke = threads_for_mode("smoke");
        assert_eq!(full.first(), Some(&1));
        assert_eq!(smoke.first(), Some(&1));
        assert!(full.len() >= smoke.len() || std::env::var("HSBP_THREADS").is_ok());
        for w in [&full, &smoke] {
            assert!(w.windows(2).all(|p| p[0] < p[1]), "{w:?} not increasing");
        }
    }
}
