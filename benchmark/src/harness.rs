//! What every workload shares: run options, the measuring loop's clock, the
//! host-time samples of a run and their fold into metrics, and the optional
//! span around each call into a layer.

use std::time::{Duration, Instant};

use crate::catalog::Metrics;
use crate::stats;
use crate::trace::{SpanName, Tracer};

/// Timed repetitions a run needs before its medians mean anything; the
/// measuring loop runs past `--seconds` if it must to get them.
pub const MIN_TIMED_REPS: usize = 3;

#[derive(Clone, Debug)]
pub struct RunOpts {
    pub seed: u64,
    /// How long the measuring loop runs.
    pub seconds: f64,
    /// Traced run: per-layer metrics and `trace.jsonl` instead of the
    /// end-to-end metrics.
    pub trace: bool,
}

/// The measuring loop's clock: when it is done, and which repetitions of a
/// traced run record spans.
pub struct Phases {
    start: Instant,
    limit: Duration,
    trace: bool,
}

impl Phases {
    pub fn start(opts: &RunOpts) -> Self {
        Self {
            start: Instant::now(),
            limit: Duration::from_secs_f64(opts.seconds),
            trace: opts.trace,
        }
    }

    /// Whether the next repetition is traced: a traced run's second half,
    /// once the untraced half has its minimum of `untraced` repetitions.
    pub fn tracing(&self, untraced: usize) -> bool {
        self.trace && untraced >= MIN_TIMED_REPS && self.start.elapsed() >= self.limit / 2
    }

    /// Done when the budget is spent and every half has its minimum.
    pub fn done(&self, untraced: usize, traced: usize) -> bool {
        self.start.elapsed() >= self.limit
            && untraced >= MIN_TIMED_REPS
            && (!self.trace || traced >= MIN_TIMED_REPS)
    }
}

/// Host-time samples of one run, in seconds.
#[derive(Default)]
pub struct HostSamples {
    /// One per set-up.
    pub setups: Vec<f64>,
    /// One per timed repetition of the fixed seeded work.
    pub walls: Vec<f64>,
    /// One per step (a 256-query burst, or one slice of simulated time),
    /// pooled over the timed repetitions.
    pub steps: Vec<f64>,
}

impl HostSamples {
    /// Folds the samples into the end-to-end metrics. `work_per_rep` is the
    /// (deterministic) amount of work in one repetition; `peak_rss_mib` is
    /// read by the caller when its measured phase ends.
    pub fn fold(
        &mut self,
        metrics: &mut Metrics,
        work_per_rep: f64,
        peak_rss_mib: f64,
    ) -> Result<(), String> {
        if self.walls.len() < MIN_TIMED_REPS || self.setups.is_empty() {
            return Err(format!(
                "{} timed repetition(s) and {} set-up(s): too few for a median",
                self.walls.len(),
                self.setups.len()
            ));
        }
        let wall = stats::median(&mut self.walls);
        metrics.set("setup_s", stats::median(&mut self.setups));
        metrics.set("wall_s", wall);
        metrics.set("work_per_s", work_per_rep / wall);
        metrics.set("step_p50_us", stats::median(&mut self.steps) * 1e6);
        metrics.set("peak_rss_mib", peak_rss_mib);
        Ok(())
    }

    /// What a traced run reports from its host-time samples: the wall ratio
    /// of its traced to its untraced repetitions, and the step-time tail of
    /// the untraced ones at the workload's percentile. The tail is left
    /// unset when the percentile rule does not support it on this sample.
    pub fn fold_traced(&mut self, metrics: &mut Metrics, traced_walls: &mut [f64], tail_pct: f64) {
        let untraced = stats::median(&mut self.walls);
        metrics.set(
            "bench.trace_overhead_ratio",
            stats::median(traced_walls) / untraced,
        );
        if stats::supports(self.steps.len(), tail_pct) {
            self.steps.sort_unstable_by(f64::total_cmp);
            metrics.set(
                "host.step_tail_us",
                stats::percentile(&self.steps, tail_pct) * 1e6,
            );
        } else {
            println!(
                "{} untraced step samples support p{} at most, not p{tail_pct}: host.step_tail_us unset",
                self.steps.len(),
                stats::highest_supported_percentile(self.steps.len())
            );
        }
    }
}

/// `VmHWM` of this process: the most memory it ever held resident.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// One repetition of a simulator workload: a fresh world built, warmed up
/// and driven through the identical seeded input.
pub struct Rep {
    pub setup_s: f64,
    /// Host time of the measured phase.
    pub wall_s: f64,
    /// Host time of each slice of simulated time in the measured phase.
    pub steps: Vec<f64>,
    /// Everything the run observed in simulated time, rendered as text. Must
    /// be identical across repetitions.
    pub transcript: String,
    /// Deterministic amount of work in the measured phase (discoveries, or
    /// events on `lan_beacons`).
    pub work: f64,
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    /// Per-layer metrics of this repetition.
    pub layers: Metrics,
}

/// Runs repetitions until the budget is spent: the first is a discarded
/// warm-up, the rest are timed. A traced run spends the second half of its
/// budget with spans on and reports per-layer metrics from its last
/// repetition; the wall ratio of the two halves is the tracing overhead.
pub fn run_reps(
    opts: &RunOpts,
    tracer: &mut Tracer,
    tail_pct: f64,
    mut rep: impl FnMut(u64, Option<&mut Tracer>) -> Result<Rep, String>,
) -> Result<crate::catalog::Outcome, String> {
    let phases = Phases::start(opts);
    let mut samples = HostSamples::default();
    let mut traced_walls: Vec<f64> = Vec::new();
    let mut violations = Vec::new();
    let mut reference: Option<(u64, String)> = None;
    let mut last: Option<Rep> = None;
    let mut index = 0u64;
    while !phases.done(samples.walls.len(), traced_walls.len()) {
        let tracing = phases.tracing(samples.walls.len());
        if tracing {
            tracer.enter(SpanName::Repetition, index);
        }
        let r = rep(index, if tracing { Some(&mut *tracer) } else { None });
        if tracing {
            tracer.exit();
        }
        let mut r = r?;
        let digest = sds_metrics::fingerprint(&r.transcript);
        match &reference {
            None => reference = Some((digest, std::mem::take(&mut r.transcript))),
            Some((want, text)) if *want != digest => violations.push(format!(
                "repetition {index} is not identical to repetition 0 for the same seed:\n\
                 --- repetition 0\n{text}--- repetition {index}\n{}",
                r.transcript
            )),
            Some(_) => {}
        }
        index += 1;
        if index == 1 {
            continue; // the discarded warm-up repetition
        }
        if tracing {
            traced_walls.push(r.wall_s);
        } else {
            samples.setups.push(r.setup_s);
            samples.walls.push(r.wall_s);
            samples.steps.append(&mut r.steps);
        }
        last = Some(r);
    }
    let mut last = last.expect("at least MIN_TIMED_REPS repetitions ran");
    violations.append(&mut last.violations);
    let mut metrics = std::mem::take(&mut last.layers);
    let (digest, transcript) = reference.expect("a repetition ran");
    println!(
        "{} repetitions (1 discarded warm-up, {} traced), transcript fingerprint {digest:016x}:",
        index,
        traced_walls.len()
    );
    print!("{transcript}");
    if opts.trace {
        samples.fold_traced(&mut metrics, &mut traced_walls, tail_pct);
        let traced_ns = tracer.aggregate(SpanName::Repetition).total_ns;
        println!(
            "per-layer self time over {} traced repetitions ({:.1} ms, set-up and verification \
             included; `simnet` is the engine plus every handler it dispatches, opaque from outside):",
            traced_walls.len(),
            traced_ns as f64 / 1e6
        );
        print!("{}", tracer.layer_table(traced_ns));
    } else {
        samples.fold(&mut metrics, last.work, peak_rss_mib()?)?;
    }
    Ok(crate::catalog::Outcome {
        attempted: last.attempted,
        failed: last.failed,
        violations,
        metrics,
    })
}

/// Runs `f` inside a span when tracing, bare otherwise.
pub fn span<T>(
    tracer: &mut Option<&mut Tracer>,
    name: SpanName,
    request: u64,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(t) => t.span(name, request, f),
        None => f(),
    }
}

/// Seconds `f` took, and its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_reports_medians_and_refuses_thin_samples() {
        let mut s = HostSamples {
            setups: vec![0.3, 0.1, 0.2],
            walls: vec![2.0, 1.0, 4.0],
            steps: (1..=1000).map(|i| i as f64 * 1e-6).collect(),
        };
        let mut m = Metrics::default();
        s.fold(&mut m, 100.0, peak_rss_mib().unwrap()).unwrap();
        assert_eq!(m.get("setup_s"), Some(0.2));
        assert_eq!(m.get("wall_s"), Some(2.0));
        assert_eq!(m.get("work_per_s"), Some(50.0));
        assert!((m.get("step_p50_us").unwrap() - 500.0).abs() < 1e-9);
        assert!(m.get("peak_rss_mib").unwrap() > 0.0);
        s.fold_traced(&mut m, &mut [3.0, 2.0, 2.5], 99.0);
        assert_eq!(m.get("bench.trace_overhead_ratio"), Some(1.25));
        assert!((m.get("host.step_tail_us").unwrap() - 990.0).abs() < 1e-9);

        let mut thin = HostSamples {
            setups: vec![0.1],
            walls: vec![1.0, 1.0],
            steps: vec![1e-6; 2000],
        };
        assert!(thin
            .fold(&mut Metrics::default(), 1.0, 1.0)
            .unwrap_err()
            .contains("too few"));
        let mut few_steps = HostSamples {
            setups: vec![0.1],
            walls: vec![1.0; 3],
            steps: vec![1e-6; 99],
        };
        let mut m = Metrics::default();
        few_steps.fold_traced(&mut m, &mut [1.0; 3], 90.0);
        assert_eq!(
            m.get("host.step_tail_us"),
            None,
            "99 samples do not support p90"
        );
    }

    #[test]
    fn span_records_only_when_a_tracer_is_given() {
        let mut tracer = Tracer::new();
        tracer.enter(SpanName::Burst, 3);
        assert_eq!(
            span(&mut Some(&mut tracer), SpanName::Decode, 3, || 41 + 1),
            42
        );
        tracer.exit();
        assert_eq!(span(&mut None, SpanName::Decode, 3, || 42), 42);
        assert_eq!(tracer.aggregate(SpanName::Decode).count, 1);
        assert_eq!(tracer.spans()[1].parent, Some(0));
        tracer.check_nesting().unwrap();
    }
}
