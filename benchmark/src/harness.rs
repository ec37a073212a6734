//! What every workload shares: repeated set-up, the timed window, and
//! turning op times into the end-to-end metrics.

use std::time::{Duration, Instant};

use crate::metrics::Values;
use crate::spans::Tracer;
use crate::stats::{self, median, sorted};

/// Set-up runs this many times per process; `setup_s` is their median.
/// The count is fixed so that every run makes the same allocations
/// before its window, which keeps `peak_rss_mb` from depending on how
/// fast the host was.
pub const SETUP_REPS: usize = 5;

/// One finished workload run.
pub struct Outcome {
    /// Timed ops (passes or requests).
    pub attempted: u64,
    /// Failed checks: ops whose output was wrong or that errored, plus
    /// any failed set-up or post-window check.
    pub failed: u64,
    /// Every measured metric.
    pub values: Values,
    /// The traced run's spans (empty when tracing is off).
    pub tracer: Tracer,
}

/// Milliseconds in a duration.
#[must_use]
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The median wall time of `reps` calls of `f`, in ms.
pub fn median_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            ms(t.elapsed())
        })
        .collect();
    median(&times)
}

/// Runs `build` [`SETUP_REPS`] times, dropping each result before the
/// next build starts (so peak memory holds one), and keeps the last.
/// Returns it with the median set-up time in seconds.
///
/// # Errors
///
/// The first set-up error.
pub fn setup<T>(mut build: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut kept = None;
    let mut times = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        let t = Instant::now();
        kept = Some(build()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((kept.expect("SETUP_REPS is at least 1"), median(&times)))
}

/// Op times from one timed window.
pub struct Window {
    /// Wall time of each op, in ms.
    pub op_ms: Vec<f64>,
    /// Wall time of the whole window, in s.
    pub seconds: f64,
    /// Ops whose check failed.
    pub failed: u64,
}

/// Repeats `op` until `seconds` have passed and at least `min_ops` ran.
/// `op` returns whether its output passed its checks.
pub fn window(seconds: f64, min_ops: usize, mut op: impl FnMut() -> bool) -> Window {
    let start = Instant::now();
    let mut op_ms = Vec::new();
    let mut failed = 0;
    while op_ms.len() < min_ops || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let ok = op();
        op_ms.push(ms(t.elapsed()));
        failed += u64::from(!ok);
    }
    Window { op_ms, seconds: start.elapsed().as_secs_f64(), failed }
}

/// Records the op-time metrics of one window. Untraced, these are the
/// end-to-end `setup_s` and `op_min_ms`: the fastest op is the one the
/// neighbours on a shared host disturbed least, so it moves with the
/// code far more than with their load. Traced, they are
/// `hostbench.op_min_ms` (the base of the tracing overhead) with the
/// median, the tail at percentile `tail_p` and the throughput, which
/// carry no bound because the neighbours' load moves them more than a
/// bound can allow.
///
/// # Errors
///
/// No ops, or in the traced run too few for `tail_p` to have ten
/// samples beyond it.
pub fn record_ops(
    values: &mut Values,
    op_ms: &[f64],
    window_s: f64,
    tail_p: f64,
    setup_s: f64,
    traced: bool,
) -> Result<(), String> {
    let ops = sorted(op_ms.to_vec());
    let &min = ops.first().ok_or("the window ran no op")?;
    if !traced {
        values.insert("setup_s".into(), setup_s);
        values.insert("op_min_ms".into(), min);
        return Ok(());
    }
    let tail = stats::tail(&ops, tail_p)
        .ok_or_else(|| format!("{} ops are too few for a p{tail_p} tail", ops.len()))?;
    values.insert("hostbench.op_min_ms".into(), min);
    values.insert("hostbench.op_p50_ms".into(), stats::nearest_rank(&ops, 50.0));
    values.insert("hostbench.op_tail_ms".into(), tail);
    values.insert("hostbench.ops_per_s".into(), ops.len() as f64 / window_s);
    Ok(())
}

/// Peak resident set size of this process (`VmHWM`), in MB.
///
/// # Errors
///
/// `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| String::from("no VmHWM line in /proc/self/status"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_runs_at_least_min_ops_and_counts_failures() {
        let mut n = 0;
        let w = window(0.0, 5, || {
            n += 1;
            n % 2 == 0
        });
        assert_eq!(w.op_ms.len(), 5);
        assert_eq!(w.failed, 3);
    }

    #[test]
    fn setup_keeps_the_last_build() {
        let mut n = 0;
        let (last, secs) = setup(|| {
            n += 1;
            Ok(n)
        })
        .unwrap();
        assert_eq!(last, SETUP_REPS);
        assert!(secs >= 0.0);
        assert!(peak_rss_mb().unwrap() > 0.0);
    }

    #[test]
    fn record_ops_refuses_a_tail_without_ten_samples_beyond() {
        let mut values = Values::new();
        let ops: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        record_ops(&mut values, &ops, 2.0, 75.0, 0.5, true).unwrap();
        assert_eq!(values["hostbench.op_min_ms"], 1.0);
        assert_eq!(values["hostbench.op_p50_ms"], 20.0);
        assert_eq!(values["hostbench.op_tail_ms"], 30.0);
        assert_eq!(values["hostbench.ops_per_s"], 20.0);
        assert!(!values.contains_key("op_min_ms"));
        assert!(record_ops(&mut values, &ops[..39], 2.0, 75.0, 0.5, true).is_err());
        // The untraced run reports no tail, so it needs no floor.
        record_ops(&mut values, &ops[..3], 2.0, 75.0, 0.5, false).unwrap();
        assert_eq!((values["setup_s"], values["op_min_ms"]), (0.5, 38.0));
        assert!(record_ops(&mut values, &[], 2.0, 75.0, 0.5, false).is_err());
    }
}
