//! The repo benchmark. See `README.md` for every workload and metric.
//!
//! ```text
//! sds-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! sds-benchmark [--sets <n>] [--seed <n>] [--seconds <s>]      # every workload
//! ```
//!
//! With `--workload` the run is one process, one workload: it prints a
//! header, what it did, and as its last line the result object the driver
//! reads (`--trace 0`: the end-to-end metrics; `--trace 1`: the per-layer
//! metrics, a per-layer table, and `trace.jsonl`). Without it the program
//! runs every workload, untraced and traced, each in a child process so that
//! `peak_rss_mib` is per workload, and prints every metric by name with its
//! unit; `--sets 2` does that twice and prints how far the sets agree.

mod beacons;
mod catalog;
mod federated;
mod gen;
mod harness;
mod json;
mod registry;
mod sim;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use catalog::{MetricDef, Outcome, END_TO_END, PER_LAYER, WORKLOADS};
use harness::RunOpts;
use trace::Tracer;

const DEFAULT_SEED: u64 = 0x5D5;
const DEFAULT_SECONDS: f64 = 8.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    sets: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        sets: 1,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => {
                let v = value()?;
                args.seed = match v.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => v.parse(),
                }
                .map_err(|e| format!("--seed {v}: {e}"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v.parse().map_err(|e| format!("--seconds {v}: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err(format!("--seconds {v}: must be in (0, 60]"));
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v}: must be 0 or 1")),
                }
            }
            "--sets" => {
                let v = value()?;
                args.sets = v.parse().map_err(|e| format!("--sets {v}: {e}"))?;
                if !(1..=4).contains(&args.sets) {
                    return Err(format!("--sets {v}: must be 1 to 4"));
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.iter().any(|d| d.name == w) {
            let names: Vec<_> = WORKLOADS.iter().map(|d| d.name).collect();
            return Err(format!(
                "unknown workload `{w}`; one of {}",
                names.join(", ")
            ));
        }
    }
    Ok(args)
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn header(seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "sds-benchmark rev {} seed {seed:#x} nproc {nproc} {} (single thread: workers 1, data_plane_workers 1)",
        first_line_of("git", &["rev-parse", "--short", "HEAD"]),
        first_line_of("rustc", &["--version"]),
    )
}

fn trace_path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join(format!("trace-{workload}.jsonl"))
}

fn run_workload(name: &str, opts: &RunOpts, tracer: &mut Tracer) -> Result<Outcome, String> {
    match name {
        "registry_hot" => registry::run(registry::Kind::Hot, opts, tracer),
        "registry_scan" => registry::run(registry::Kind::Scan, opts, tracer),
        "lan_beacons" => beacons::run(opts, tracer),
        "federated_steady" => federated::run(federated::Kind::Steady, opts, tracer),
        "federated_chaos" => federated::run(federated::Kind::Chaos, opts, tracer),
        "flash_crowd" => federated::run(federated::Kind::FlashCrowd, opts, tracer),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// One workload in this process. The last line printed is the result object.
fn single(name: &str, args: &Args) -> Result<bool, String> {
    println!("{}", header(args.seed));
    let why = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .map_or("", |w| w.why);
    println!(
        "workload {name} ({} run, {} s): {why}",
        if args.trace { "traced" } else { "untraced" },
        args.seconds
    );
    let opts = RunOpts {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let mut tracer = Tracer::new();
    let outcome = run_workload(name, &opts, &mut tracer)?;
    if args.trace {
        tracer
            .check_nesting()
            .map_err(|e| format!("trace does not nest: {e}"))?;
        let path = trace_path(name);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        }
        std::fs::write(&path, tracer.to_jsonl())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!(
            "{} spans written to {} ({} more aggregated only)",
            tracer.spans().len(),
            path.display(),
            tracer.dropped()
        );
    }
    for v in &outcome.violations {
        println!("VIOLATION: {v}");
    }
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    let line = outcome.result_line(defs)?;
    print_metrics(defs, |name| outcome.metrics.get(name));
    println!("{line}");
    Ok(outcome.correct())
}

/// Prints the metrics of `defs` that have a value (per-layer metrics a
/// workload does not exercise read 0 and are left out).
fn print_metrics(defs: &[MetricDef], value: impl Fn(&str) -> Option<f64>) {
    for d in defs {
        if let Some(v) = value(d.name).filter(|v| *v != 0.0) {
            println!(
                "  {:<48} {:>18.4} {:<12} ({} is better)",
                d.name,
                v,
                d.unit,
                d.better.as_str()
            );
        }
    }
}

/// What a child run reported: its metrics by name, and whether it was correct.
struct ChildResult {
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: Vec<(String, f64)>,
}

impl ChildResult {
    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

fn run_child(workload: &str, args: &Args, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("running {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Pass on the traced run's per-layer table (its rows end in a share) and
    // any violation; the metrics are printed from the result line.
    let table_row = |l: &str| l.trim_start().starts_with("layer ") || l.ends_with('%');
    for line in stdout
        .lines()
        .filter(|l| l.starts_with("VIOLATION") || l.starts_with("per-layer") || table_row(l))
    {
        println!("    {line}");
    }
    let last = stdout.lines().last().unwrap_or("");
    let doc = json::parse(last).map_err(|e| {
        format!(
            "{workload} (trace {}) printed no result line ({e}); exit {:?}; stderr:\n{}",
            u8::from(trace),
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        )
    })?;
    let field = |k: &str| {
        doc.get(k)
            .ok_or_else(|| format!("{workload}: result lacks `{k}`"))
    };
    Ok(ChildResult {
        correct: field("correct")?.as_bool().unwrap_or(false) && out.status.success(),
        attempted: field("attempted")?.as_f64().unwrap_or(0.0),
        failed: field("failed")?.as_f64().unwrap_or(0.0),
        metrics: field("metrics")?
            .entries()
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect(),
    })
}

/// Every workload, untraced then traced, `sets` times over.
fn all(args: &Args) -> Result<bool, String> {
    println!("{}", header(args.seed));
    let mut ok = true;
    // sets[set][workload] = that workload's untraced result
    let mut sets: Vec<Vec<ChildResult>> = Vec::new();
    for set in 0..args.sets {
        let mut this_set = Vec::new();
        for w in WORKLOADS {
            println!("\n== set {} workload {} ==", set + 1, w.name);
            let e2e = run_child(w.name, args, false)?;
            println!(
                "  correct {} attempted {} failed {}",
                e2e.correct, e2e.attempted, e2e.failed
            );
            print_metrics(END_TO_END, |name| e2e.metric(name));
            let layers = run_child(w.name, args, true)?;
            println!("  traced run: correct {}", layers.correct);
            print_metrics(PER_LAYER, |name| layers.metric(name));
            ok &= e2e.correct && layers.correct;
            this_set.push(e2e);
        }
        sets.push(this_set);
    }
    if args.sets >= 2 {
        ok &= agreement(&sets[0], &sets[1]);
    }
    Ok(ok)
}

/// Self-agreement: per workload and end-to-end metric, both sets' values,
/// their relative difference, and the bound. Two runs of the same code must
/// agree within the bound they will later be held to.
fn agreement(a: &[ChildResult], b: &[ChildResult]) -> bool {
    println!("\n== self-agreement of two sets of the same code ==");
    println!(
        "  {:<18} {:<14} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "set 1", "set 2", "diff", "bound"
    );
    let mut ok = true;
    for (w, (ma, mb)) in WORKLOADS.iter().zip(a.iter().zip(b)) {
        for d in END_TO_END {
            let (Some(x), Some(y)) = (ma.metric(d.name), mb.metric(d.name)) else {
                continue;
            };
            let diff = (y - x).abs() / x.abs().max(f64::MIN_POSITIVE);
            let bound = d.bound.expect("end-to-end metrics have bounds");
            let within = diff <= bound;
            ok &= within;
            println!(
                "  {:<18} {:<14} {:>14.4} {:>14.4} {:>7.1}% {:>6.0}%{}",
                w.name,
                d.name,
                x,
                y,
                100.0 * diff,
                100.0 * bound,
                if within { "" } else { "  OUTSIDE BOUND" }
            );
        }
    }
    ok
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&argv).and_then(|args| match &args.workload {
        Some(name) => single(name, &args),
        None => all(&args),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("sds-benchmark: outputs were not correct");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("sds-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
