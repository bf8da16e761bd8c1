//! Hot-path throughput baseline for the MCMC sweep loop.
//!
//! ```text
//! bench_hotpath [--mode full|smoke|check] [--out PATH]
//!               [--baseline PATH] [--threshold FRACTION]
//! ```
//!
//! * `full`  (default) — smoke + 5k + 20k DCSBM graphs; writes the committed
//!   `BENCH_mcmc.json` baseline,
//! * `smoke` — the seconds-scale smoke graph only,
//! * `check` — run smoke and exit non-zero if any variant's
//!   calibration-normalised sweep throughput regressed more than
//!   `--threshold` (default 0.15) against `--baseline`
//!   (default `BENCH_mcmc.json`). Noisy measurement windows are retried:
//!   each variant keeps its best ratio across up to 3 attempts.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use hsbp_bench::hotpath::{
    compare_reports, run_report, CheckLine, HotpathSpec, FIVE_K, SMOKE, TWENTY_K,
};
use hsbp_serve::json;
use std::process::ExitCode;

/// Check mode re-measures on a transient regression: CI runners share CPUs,
/// and contention drifts on a seconds scale, so a single slow measurement
/// window can dip any one variant well past the threshold. A *real*
/// regression is slow in every window; noise is not.
const CHECK_ATTEMPTS: usize = 3;

struct Args {
    mode: String,
    out: String,
    baseline: String,
    threshold: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        mode: "full".into(),
        out: "BENCH_mcmc.json".into(),
        baseline: "BENCH_mcmc.json".into(),
        threshold: 0.15,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--mode" => args.mode = value("--mode")?,
            "--out" => args.out = value("--out")?,
            "--baseline" => args.baseline = value("--baseline")?,
            "--threshold" => {
                let raw = value("--threshold")?;
                args.threshold = raw
                    .parse::<f64>()
                    .map_err(|_| format!("invalid --threshold '{raw}'"))?;
                if !(args.threshold > 0.0 && args.threshold < 1.0) {
                    return Err("--threshold must be in (0, 1)".into());
                }
            }
            "--help" | "-h" => {
                println!(
                    "usage: bench_hotpath [--mode full|smoke|check] [--out PATH] \
                     [--baseline PATH] [--threshold FRACTION]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(args)
}

fn print_report(report: &hsbp_bench::hotpath::HotpathReport) {
    println!(
        "calibration: {:.3e} splitmix64 ops/s  (host parallelism {})",
        report.calibration_ops_per_s, report.host_parallelism
    );
    for g in &report.graphs {
        println!(
            "graph {} ({} vertices, {} edges):",
            g.name, g.vertices, g.edges
        );
        for v in &g.variants {
            println!(
                "  {:<7} t={:<2} {:>9.2} sweeps/s  {:>12.0} proposals/s  accept {:.3}  \
                 eff {:.2}  steals {}  imbalance {:.2}",
                v.variant,
                v.threads,
                v.sweeps_per_s,
                v.proposals_per_s,
                v.acceptance_rate,
                v.parallel_efficiency,
                v.pool_steals,
                v.pool_mean_imbalance
            );
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let specs: &[HotpathSpec] = match args.mode.as_str() {
        "full" => &[SMOKE, FIVE_K, TWENTY_K],
        "smoke" | "check" => &[SMOKE],
        other => return Err(format!("unknown --mode '{other}'")),
    };
    if args.mode == "check" {
        let text = std::fs::read_to_string(&args.baseline)
            .map_err(|e| format!("cannot read baseline {}: {e}", args.baseline))?;
        let baseline = json::parse(&text).map_err(|e| format!("baseline parse error: {e}"))?;
        // Best ratio per (graph, variant) across attempts: a variant passes
        // if *any* measurement window cleared the threshold.
        let mut best: Vec<CheckLine> = Vec::new();
        for attempt in 1..=CHECK_ATTEMPTS {
            let report = run_report(&args.mode, specs);
            print_report(&report);
            let lines = compare_reports(&report, &baseline, args.threshold)?;
            if lines.is_empty() {
                return Err(format!(
                    "baseline {} has no graphs overlapping this run",
                    args.baseline
                ));
            }
            for line in lines {
                match best.iter_mut().find(|b| {
                    b.graph == line.graph && b.variant == line.variant && b.threads == line.threads
                }) {
                    Some(b) if line.ratio > b.ratio => *b = line,
                    Some(_) => {}
                    None => best.push(line),
                }
            }
            if best.iter().all(|l| !l.regressed) {
                break;
            }
            if attempt < CHECK_ATTEMPTS {
                println!(
                    "check attempt {attempt}/{CHECK_ATTEMPTS}: transient dip beyond the \
                     threshold, re-measuring"
                );
            }
        }
        let mut regressed = false;
        for line in &best {
            println!(
                "check {}/{:<7} t={:<2} normalised ratio {:.3} \
                 (baseline {:.3e}, current {:.3e}){}",
                line.graph,
                line.variant,
                line.threads,
                line.ratio,
                line.baseline_norm,
                line.current_norm,
                if line.regressed { "  REGRESSED" } else { "" }
            );
            regressed |= line.regressed;
        }
        if regressed {
            return Err(format!(
                "throughput regression beyond {:.0}% detected",
                args.threshold * 100.0
            ));
        }
        println!(
            "check passed: no regression beyond {:.0}%",
            args.threshold * 100.0
        );
    } else {
        let report = run_report(&args.mode, specs);
        print_report(&report);
        std::fs::write(&args.out, report.to_json())
            .map_err(|e| format!("cannot write {}: {e}", args.out))?;
        println!("wrote {}", args.out);
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench_hotpath: {e}");
            ExitCode::FAILURE
        }
    }
}
