//! `bench_e2e`: the end-to-end benchmark of hsbp, with a per-layer
//! breakdown. See `README.md` in this directory for the metrics, the
//! workloads and the trace format.
//!
//! ```text
//! bench_e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1|DIR]
//! ```
//!
//! Without `--workload` every workload runs, each untraced and, with
//! `--trace`, once more traced. Each workload runs in its own child
//! process (this binary re-executed with `--child NAME`), which gets the
//! generated inputs as files, measures for `--seconds`, checks its outputs
//! and prints its metrics; the last line of its output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}` holding the end-to-end
//! metrics, or with tracing on the per-layer ones.

mod inputs;
mod serve;
mod stats;
mod trace;
mod workloads;

use hsbp_serve::json::{self, Json};
use inputs::{Inputs, Workload, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workloads::{Metric, Report};

/// Working files (inputs, daemon state) live here, under the directory the
/// benchmark runs from.
const WORK_DIR: &str = ".bench_e2e";
const DEFAULT_SECONDS: f64 = 10.0;
/// Exit status for bad arguments or a refused environment.
const USAGE: u8 = 2;

const HELP: &str = "usage: bench_e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1|DIR]

  --workload  one of: detect_dcsbm detect_web_serial serve_churn shard_exact_4
              (default: all four, one after another)
  --seed      input seed (default 1)
  --seconds   how long each workload measures (default 10)
  --trace     0 = off (default); 1 = trace into .bench_e2e/trace; else a directory
";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<PathBuf>,
    /// Set in the re-executed workload process: `(dir with the inputs)`.
    child: Option<PathBuf>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: None,
        child: None,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            return Err(String::new());
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                args.workload =
                    Some(inputs::workload(value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "--seed" => args.seed = value.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds needs a non-negative number")?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => None,
                    "1" => Some(Path::new(WORK_DIR).join("trace")),
                    dir => Some(PathBuf::from(dir)),
                }
            }
            "--child" => args.child = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.child.is_some() && args.workload.is_none() {
        return Err("--child needs --workload".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("bench_e2e: {e}");
            }
            eprint!("{HELP}");
            return ExitCode::from(USAGE);
        }
    };
    // Measure the defaults only: every HSBP_* variable changes a default.
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("HSBP_"))
        .collect();
    if !set.is_empty() {
        eprintln!(
            "bench_e2e: refusing to run with {} set; the benchmark measures the defaults",
            set.join(", ")
        );
        return ExitCode::from(USAGE);
    }
    match (&args.child, args.workload) {
        (Some(dir), Some(w)) => child(&w, &args, dir),
        (None, Some(w)) => parent(&[w], &args),
        (None, None) => parent(&WORKLOADS, &args),
        (Some(_), None) => ExitCode::from(USAGE),
    }
}

fn parent(workloads: &[Workload], args: &Args) -> ExitCode {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "bench_e2e: nproc {threads}, revision {}, calibration {:.4e} ops/s, seed {}, {} s per workload",
        git_revision(),
        calibration_ops_per_s(),
        args.seed,
        args.seconds
    );
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("bench_e2e: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut all_ok = true;
    for w in workloads {
        let dir = Path::new(WORK_DIR).join(format!("{}-{}", w.name, args.seed));
        let mut fingerprints = Vec::with_capacity(w.instances);
        for i in 0..w.instances {
            let inputs = Inputs::generate(w, args.seed, i);
            fingerprints.push(inputs.fingerprint());
            if let Err(e) = inputs.write(&dir, i) {
                eprintln!("bench_e2e: cannot write inputs to {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
        }
        println!(
            "{}: {} input instance(s), fingerprints {fingerprints:016x?}",
            w.name, w.instances
        );
        // Run the untraced pass, then the traced one when asked for all
        // workloads; a single named workload runs only the pass asked for.
        let passes: Vec<Option<&PathBuf>> = match (&args.trace, workloads.len()) {
            (Some(t), n) if n > 1 => vec![None, Some(t)],
            (t, _) => vec![t.as_ref()],
        };
        for trace in passes {
            let mut cmd = Command::new(&exe);
            cmd.args(["--child", &dir.to_string_lossy(), "--workload", w.name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()]);
            if let Some(t) = trace {
                cmd.args(["--trace", &t.to_string_lossy()]);
            }
            match cmd.status() {
                Ok(status) if status.success() => {}
                Ok(status) => {
                    eprintln!("bench_e2e: {} exited with {status}", w.name);
                    all_ok = false;
                }
                Err(e) => {
                    eprintln!("bench_e2e: cannot start {}: {e}", w.name);
                    all_ok = false;
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn child(w: &Workload, args: &Args, dir: &Path) -> ExitCode {
    let traced = args.trace.is_some();
    let report = workloads::run(w, args.seed, dir, args.seconds, traced);
    if let Some(trace_dir) = &args.trace {
        if let Err(e) = write_trace(trace_dir, w, args.seed, &report) {
            eprintln!(
                "bench_e2e: cannot write trace to {}: {e}",
                trace_dir.display()
            );
            return ExitCode::FAILURE;
        }
    }
    let metrics = if traced {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    println!(
        "{}: {} repetition(s), {}",
        w.name,
        report.reps,
        if traced { "traced" } else { "untraced" }
    );
    for m in metrics {
        println!(
            "  {:<36} {:>16.6} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for c in &report.checks {
        println!(
            "  check {:<32} {:<4} {}",
            c.name,
            if c.ok { "ok" } else { "FAIL" },
            c.detail
        );
    }
    let correct = report.failed == 0 && report.reps > 0;
    let line = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        (
            "attempted".into(),
            Json::Num(report.attempted.max(1) as f64),
        ),
        ("failed".into(), Json::Num(report.failed as f64)),
        ("metrics".into(), metrics_json(metrics, false)),
    ]);
    println!("{}", line.to_line());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn metrics_json(metrics: &[Metric], with_samples: bool) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let mut fields = vec![
                    ("value".to_string(), Json::Num(m.value)),
                    ("unit".to_string(), Json::Str(m.unit.into())),
                ];
                if with_samples {
                    fields.push(("samples".to_string(), Json::Num(m.samples as f64)));
                }
                (m.name.to_string(), Json::Obj(fields))
            })
            .collect(),
    )
}

/// Write `<workload>.spans.jsonl` and merge this workload's entry into
/// `layers.json`.
fn write_trace(dir: &Path, w: &Workload, seed: u64, report: &Report) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(
        dir.join(format!("{}.spans.jsonl", w.name)),
        trace::to_jsonl(&report.spans),
    )?;
    let spans = trace::by_name(&report.spans)
        .into_iter()
        .map(|(name, count, total_ns, self_ns)| {
            Json::Obj(vec![
                ("name".into(), Json::Str(name.into())),
                ("count".into(), Json::Num(count as f64)),
                ("total_s".into(), Json::Num(total_ns as f64 * 1e-9)),
                ("self_s".into(), Json::Num(self_ns as f64 * 1e-9)),
            ])
        })
        .collect();
    let entry = Json::Obj(vec![
        ("seed".into(), Json::Num(seed as f64)),
        ("repetitions".into(), Json::Num(report.reps as f64)),
        ("spans".into(), Json::Arr(spans)),
        ("metrics".into(), metrics_json(&report.per_layer, true)),
    ]);
    let path = dir.join("layers.json");
    let mut all = match std::fs::read_to_string(&path).ok().map(|s| json::parse(&s)) {
        Some(Ok(Json::Obj(fields))) => fields,
        _ => Vec::new(),
    };
    all.retain(|(k, _)| k != w.name);
    all.push((w.name.to_string(), entry));
    std::fs::write(&path, Json::Obj(all).to_line() + "\n")
}

/// The commit the benchmark was built from, read from `.git` without
/// running git; "unknown" outside a git checkout.
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(name)
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Machine-speed proxy: iterations per second of a fixed splitmix64 loop,
/// best of three passes.
fn calibration_ops_per_s() -> f64 {
    const ITERS: u64 = 20_000_000;
    (0..3u64)
        .map(|pass| {
            let mut rng = inputs::Rng::new(pass);
            let start = std::time::Instant::now();
            let mut acc = 0u64;
            for _ in 0..ITERS {
                acc ^= rng.next_u64();
            }
            std::hint::black_box(acc);
            ITERS as f64 / start.elapsed().as_secs_f64().max(1e-9)
        })
        .fold(0.0, f64::max)
}
