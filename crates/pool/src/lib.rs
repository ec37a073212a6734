//! `triarch-pool` — a deterministic work-stealing thread pool for the
//! triarch batch drivers.
//!
//! The study's heavy drivers (Table 3 cells, fault-sweep campaigns,
//! ablations, design-space sweeps) are embarrassingly parallel: each job
//! is a pure function of its inputs (a machine configuration plus a
//! shared, read-only workload set). This crate runs such job batches on
//! a small work-stealing pool built entirely from the standard library:
//!
//! * a **global injector** (the submission queue) feeds
//! * **per-worker deques**; an idle worker first drains its own deque,
//!   then pulls a chunk from the injector, then **steals** from a
//!   sibling's deque;
//! * workers run inside [`std::thread::scope`], so jobs may borrow from
//!   the caller's stack (no `'static` bound, no workload cloning);
//! * every job writes its result into a slot indexed by its submission
//!   position, so [`par_map`] returns results in **submission order**
//!   regardless of which worker ran what when — the determinism
//!   contract that keeps every report byte-identical to a serial run.
//!
//! Panics inside a job are caught and surfaced as a typed
//! [`PoolError::JobPanicked`] instead of poisoning the pool or hanging
//! the caller; the remaining jobs still run to completion.
//!
//! The pool is *flat*: jobs never submit jobs. That lets termination be
//! a pure state check (injector empty and all deques empty ⇒ done), so
//! no condition variables are needed.
//!
//! Sizing comes from [`available_workers`]
//! ([`std::thread::available_parallelism`]) and can be overridden by
//! callers (the `repro` CLI maps `--jobs N` / `TRIARCH_JOBS` onto it via
//! [`parse_jobs`] / [`jobs_from_env`]). `workers == 1` bypasses the pool
//! entirely and runs inline on the caller's thread.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

use std::collections::VecDeque;
use std::fmt;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use triarch_metrics::{Metric, MetricsReport};

/// Environment variable consulted by [`jobs_from_env`].
pub const JOBS_ENV: &str = "TRIARCH_JOBS";

/// Environment variable consulted by [`quiet_from_env`].
///
/// When set to `1` (or any non-empty value other than `0`), CLI
/// drivers suppress informational stderr chatter — the per-run
/// [`PoolStats`] line and progress messages — so Prometheus scrape
/// pipelines and `profdiff` JSON consumers get clean streams. The pool
/// statistics go to stderr only, so quiet runs do not report them.
pub const QUIET_ENV: &str = "TRIARCH_QUIET";

/// The [`QUIET_ENV`] interpretation rule: any non-empty value other
/// than `"0"` means quiet.
#[must_use]
pub fn parse_quiet(value: &str) -> bool {
    !value.is_empty() && value != "0"
}

/// Whether [`QUIET_ENV`] requests quiet stderr (set and not `"0"` /
/// empty). CLIs OR this with their `--quiet` flag.
#[must_use]
pub fn quiet_from_env() -> bool {
    std::env::var(QUIET_ENV).map(|v| parse_quiet(&v)).unwrap_or(false)
}

/// Jobs a worker pulls from the injector at a time.
///
/// Small enough that stragglers get stolen, large enough to amortise the
/// injector lock on fine-grained batches.
const INJECTOR_CHUNK: usize = 4;

/// Error raised when a pooled job fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// A job panicked; the payload is the panic message (or a
    /// placeholder when the payload was not a string). The index is the
    /// job's submission position.
    JobPanicked {
        /// Submission index of the panicking job.
        index: usize,
        /// Panic payload rendered as text.
        message: String,
    },
}

impl fmt::Display for PoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolError::JobPanicked { index, message } => {
                write!(f, "pooled job {index} panicked: {message}")
            }
        }
    }
}

impl std::error::Error for PoolError {}

/// Per-run execution statistics for the throughput report.
///
/// All fields are totals across the run; `wall` is the caller-observed
/// elapsed time of the whole batch.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Worker threads used (1 means the serial inline path).
    pub workers: usize,
    /// Jobs executed.
    pub jobs: usize,
    /// Jobs a worker stole from a sibling's deque.
    pub steals: u64,
    /// Jobs pulled from the global injector.
    pub injector_pops: u64,
    /// Maximum injector depth observed at submission time.
    pub max_queue_depth: usize,
    /// Wall-clock time for the whole batch.
    pub wall: Duration,
    /// Sum of per-job execution times (exceeds `wall` when parallel).
    pub busy: Duration,
}

impl PoolStats {
    /// Ratio of total job time to wall time — the effective parallelism
    /// actually achieved (1.0 for a serial run; 0 when wall is zero).
    #[must_use]
    pub fn effective_parallelism(&self) -> f64 {
        if self.wall.is_zero() {
            return 0.0;
        }
        self.busy.as_secs_f64() / self.wall.as_secs_f64()
    }

    /// Exports the run's statistics into `report` under the `pool.`
    /// prefix — counts as counters, sizes/times/ratios as gauges.
    ///
    /// This is the canonical representation: [`PoolStats::render`] (the
    /// stderr throughput line) is a formatter over this registry view.
    pub fn export_metrics(&self, report: &mut MetricsReport) {
        report.counter("pool.jobs", self.jobs as u64);
        report.counter("pool.steals", self.steals);
        report.counter("pool.injector_pops", self.injector_pops);
        report.gauge("pool.workers", self.workers as f64);
        report.gauge("pool.max_queue_depth", self.max_queue_depth as f64);
        report.gauge("pool.wall_seconds", self.wall.as_secs_f64());
        report.gauge("pool.busy_seconds", self.busy.as_secs_f64());
        report.gauge("pool.effective_parallelism", self.effective_parallelism());
    }

    /// Renders a one-line throughput report (the drivers print this to
    /// stderr so stdout stays byte-identical across worker counts).
    ///
    /// Implemented as a formatter over [`PoolStats::export_metrics`] so
    /// the line and the registry can never disagree.
    #[must_use]
    pub fn render(&self) -> String {
        let mut m = MetricsReport::new();
        self.export_metrics(&mut m);
        let value = |name: &str| m.get(name).map(Metric::value).unwrap_or(0.0);
        format!(
            "pool: {} jobs on {} workers in {:.3}s \
             (busy {:.3}s, {:.2}x effective, {} steals, {} injector pops, max depth {})",
            m.counter_value("pool.jobs").unwrap_or(0),
            value("pool.workers") as u64,
            value("pool.wall_seconds"),
            value("pool.busy_seconds"),
            value("pool.effective_parallelism"),
            m.counter_value("pool.steals").unwrap_or(0),
            m.counter_value("pool.injector_pops").unwrap_or(0),
            value("pool.max_queue_depth") as u64,
        )
    }
}

impl fmt::Display for PoolStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Worker count reported by the OS (at least 1).
#[must_use]
pub fn available_workers() -> usize {
    thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)
}

/// Parses a `--jobs` style value with the CLI's strict rules.
///
/// # Errors
///
/// Rejects zero and anything that is not a positive integer.
pub fn parse_jobs(value: &str) -> Result<usize, String> {
    match value.parse::<usize>() {
        Ok(0) => Err(String::from("jobs must be at least 1")),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("jobs requires a positive integer, got '{value}'")),
    }
}

/// Reads [`JOBS_ENV`] if set, falling back to [`available_workers`].
///
/// # Errors
///
/// Propagates [`parse_jobs`] errors (annotated with the variable name)
/// so a malformed environment fails loudly instead of silently running
/// serial.
pub fn jobs_from_env() -> Result<usize, String> {
    match std::env::var(JOBS_ENV) {
        Ok(value) => parse_jobs(&value).map_err(|e| format!("{JOBS_ENV}: {e}")),
        Err(_) => Ok(available_workers()),
    }
}

/// A job tagged with its submission index.
struct Job<F> {
    index: usize,
    run: F,
}

/// Shared pool state for one `par_map` batch.
struct Shared<F> {
    /// Global submission queue.
    injector: Mutex<VecDeque<Job<F>>>,
    /// Per-worker deques (stealing targets).
    deques: Vec<Mutex<VecDeque<Job<F>>>>,
    /// Total steals across the run.
    steals: AtomicU64,
    /// Total injector pops across the run.
    injector_pops: AtomicU64,
    /// Total busy nanoseconds across the run.
    busy_nanos: AtomicU64,
}

impl<F> Shared<F> {
    /// Takes the next job for `worker`: own deque, then injector chunk,
    /// then steal from a sibling. `None` means the batch is drained.
    #[allow(clippy::unwrap_used)] // Mutexes cannot be poisoned: jobs run under catch_unwind.
    fn next_job(&self, worker: usize) -> Option<Job<F>> {
        // 1. Own deque (LIFO for locality; order does not matter for
        //    correctness because results are slot-indexed).
        if let Some(job) = self.deques[worker].lock().unwrap().pop_back() {
            return Some(job);
        }
        // 2. Pull a chunk from the injector: first job is returned, the
        //    rest land in our deque (and become steal targets).
        {
            let mut injector = self.injector.lock().unwrap();
            if !injector.is_empty() {
                let first = injector.pop_front();
                let mut extra = VecDeque::new();
                for _ in 1..INJECTOR_CHUNK {
                    match injector.pop_front() {
                        Some(job) => extra.push_back(job),
                        None => break,
                    }
                }
                drop(injector);
                let pulled = 1 + extra.len() as u64;
                self.injector_pops.fetch_add(pulled, Ordering::Relaxed);
                if !extra.is_empty() {
                    self.deques[worker].lock().unwrap().append(&mut extra);
                }
                return first;
            }
        }
        // 3. Steal the oldest job from the deepest sibling deque.
        let victim = (0..self.deques.len())
            .filter(|&v| v != worker)
            .max_by_key(|&v| self.deques[v].lock().unwrap().len());
        if let Some(victim) = victim {
            if let Some(job) = self.deques[victim].lock().unwrap().pop_front() {
                self.steals.fetch_add(1, Ordering::Relaxed);
                return Some(job);
            }
        }
        None
    }

    /// Whether any queue still holds work.
    #[allow(clippy::unwrap_used)] // See `next_job`.
    fn has_work(&self) -> bool {
        !self.injector.lock().unwrap().is_empty()
            || self.deques.iter().any(|d| !d.lock().unwrap().is_empty())
    }
}

/// Renders a panic payload as text.
///
/// Public so other panic-containment sites (the serve daemon's job
/// executor wraps driver runs in `catch_unwind` the same way this pool
/// does) render payloads identically.
#[must_use]
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        String::from("non-string panic payload")
    }
}

/// Maps `items` through `f` on `workers` threads, returning results in
/// submission order together with the run's [`PoolStats`].
///
/// `workers <= 1` (or batches of 0–1 jobs) run inline on the caller's
/// thread with no pool machinery at all — the serial bypass the CLI's
/// `--jobs 1` contract requires. Results are identical either way; only
/// the stats differ.
///
/// # Errors
///
/// Returns [`PoolError::JobPanicked`] for the lowest-indexed job that
/// panicked. All jobs still run (a panic does not cancel the batch), so
/// the pool never hangs and never leaves detached work behind.
pub fn par_map_stats<T, I, R, F>(
    workers: usize,
    items: I,
    f: F,
) -> (Result<Vec<R>, PoolError>, PoolStats)
where
    I: IntoIterator<Item = T>,
    R: Send,
    T: Send,
    F: Fn(T) -> R + Sync,
{
    let items: Vec<T> = items.into_iter().collect();
    let jobs = items.len();
    let workers = workers.max(1).min(jobs.max(1));
    let start = Instant::now();

    if workers <= 1 {
        // Serial bypass: no threads, no locks, no catch_unwind overhead
        // beyond what panics already cost.
        let mut busy = Duration::ZERO;
        let mut results = Vec::with_capacity(jobs);
        for (index, item) in items.into_iter().enumerate() {
            let t0 = Instant::now();
            let out = catch_unwind(AssertUnwindSafe(|| f(item)));
            busy += t0.elapsed();
            match out {
                Ok(r) => results.push(r),
                Err(payload) => {
                    let stats = PoolStats {
                        workers: 1,
                        jobs,
                        wall: start.elapsed(),
                        busy,
                        ..PoolStats::default()
                    };
                    let err = PoolError::JobPanicked { index, message: panic_message(&*payload) };
                    return (Err(err), stats);
                }
            }
        }
        let stats =
            PoolStats { workers: 1, jobs, wall: start.elapsed(), busy, ..PoolStats::default() };
        return (Ok(results), stats);
    }

    let shared: Shared<_> = Shared {
        injector: Mutex::new(
            items.into_iter().enumerate().map(|(index, item)| Job { index, run: item }).collect(),
        ),
        deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
        steals: AtomicU64::new(0),
        injector_pops: AtomicU64::new(0),
        busy_nanos: AtomicU64::new(0),
    };
    let max_queue_depth = jobs;

    // One slot per submission index; workers fill them out of order.
    let slots: Vec<Mutex<Option<Result<R, PoolError>>>> =
        (0..jobs).map(|_| Mutex::new(None)).collect();

    thread::scope(|scope| {
        for worker in 0..workers {
            let shared = &shared;
            let slots = &slots;
            let f = &f;
            scope.spawn(move || {
                while shared.has_work() {
                    let Some(job) = shared.next_job(worker) else { continue };
                    let Job { index, run: item } = job;
                    let t0 = Instant::now();
                    let out = catch_unwind(AssertUnwindSafe(|| f(item)));
                    let nanos = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    shared.busy_nanos.fetch_add(nanos, Ordering::Relaxed);
                    let result = out.map_err(|payload| PoolError::JobPanicked {
                        index,
                        message: panic_message(&*payload),
                    });
                    if let Ok(mut slot) = slots[index].lock() {
                        *slot = Some(result);
                    }
                }
            });
        }
    });

    let stats = PoolStats {
        workers,
        jobs,
        steals: shared.steals.load(Ordering::Relaxed),
        injector_pops: shared.injector_pops.load(Ordering::Relaxed),
        max_queue_depth,
        wall: start.elapsed(),
        busy: Duration::from_nanos(shared.busy_nanos.load(Ordering::Relaxed)),
    };

    // Assemble in submission order; report the lowest-indexed panic.
    let mut results = Vec::with_capacity(jobs);
    for slot in slots {
        let taken = slot.lock().map(|mut s| s.take()).unwrap_or(None);
        match taken {
            Some(Ok(r)) => results.push(r),
            Some(Err(e)) => return (Err(e), stats),
            // Unreachable: every submitted job is executed exactly once
            // before the scope joins. Treat a missing slot as a panic
            // rather than unwrapping.
            None => {
                let err = PoolError::JobPanicked {
                    index: results.len(),
                    message: String::from("job result slot was never filled"),
                };
                return (Err(err), stats);
            }
        }
    }
    (Ok(results), stats)
}

/// [`par_map_stats`] without the stats — results in submission order.
///
/// # Errors
///
/// Returns [`PoolError::JobPanicked`] if any job panicked.
pub fn par_map<T, I, R, F>(workers: usize, items: I, f: F) -> Result<Vec<R>, PoolError>
where
    I: IntoIterator<Item = T>,
    R: Send,
    T: Send,
    F: Fn(T) -> R + Sync,
{
    par_map_stats(workers, items, f).0
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    #[test]
    fn empty_batch_returns_empty() {
        let (result, stats) = par_map_stats(4, Vec::<u32>::new(), |x| x);
        assert_eq!(result.unwrap(), Vec::<u32>::new());
        assert_eq!(stats.jobs, 0);
        assert_eq!(stats.workers, 1, "empty batch takes the serial path");
    }

    #[test]
    fn single_job_runs_inline() {
        let (result, stats) = par_map_stats(8, vec![21u32], |x| x * 2);
        assert_eq!(result.unwrap(), vec![42]);
        assert_eq!(stats.workers, 1, "one job never needs threads");
    }

    #[test]
    fn serial_path_preserves_order() {
        let result = par_map(1, 0..100u32, |x| x * x).unwrap();
        assert_eq!(result, (0..100u32).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_results_arrive_in_submission_order() {
        // Reverse sleep times so later jobs finish first if unordered.
        let result = par_map(4, 0..32u64, |i| {
            std::thread::sleep(Duration::from_micros((32 - i) * 50));
            i * 10
        })
        .unwrap();
        assert_eq!(result, (0..32u64).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn more_workers_than_jobs() {
        let result = par_map(16, 0..3u32, |x| x + 1).unwrap();
        assert_eq!(result, vec![1, 2, 3]);
    }

    #[test]
    fn more_jobs_than_workers() {
        let n = 200u32;
        let result = par_map(2, 0..n, |x| x ^ 0xAA).unwrap();
        assert_eq!(result, (0..n).map(|x| x ^ 0xAA).collect::<Vec<_>>());
    }

    #[test]
    fn panic_in_job_is_a_typed_error_not_a_hang() {
        let (result, stats) = par_map_stats(4, 0..16u32, |x| {
            assert!(x != 7, "boom at {x}");
            x
        });
        let err = result.unwrap_err();
        match &err {
            PoolError::JobPanicked { index, message } => {
                assert_eq!(*index, 7);
                assert!(message.contains("boom"), "{message}");
            }
        }
        assert!(err.to_string().contains("panicked"));
        // The rest of the batch still ran.
        assert_eq!(stats.jobs, 16);
    }

    #[test]
    fn panic_on_serial_path_is_also_typed() {
        let result = par_map(1, 0..4u32, |x| {
            assert!(x != 2, "serial boom");
            x
        });
        match result.unwrap_err() {
            PoolError::JobPanicked { index, .. } => assert_eq!(index, 2),
        }
    }

    #[test]
    fn lowest_indexed_panic_wins() {
        let (result, _) = par_map_stats(4, 0..64u32, |x| {
            assert!(x % 2 == 0, "odd {x}");
            x
        });
        match result.unwrap_err() {
            PoolError::JobPanicked { index, .. } => assert_eq!(index, 1),
        }
    }

    #[test]
    fn jobs_may_borrow_from_the_caller() {
        let base = [10u64, 20, 30];
        let result = par_map(3, 0..base.len(), |i| base[i] + 1).unwrap();
        assert_eq!(result, vec![11, 21, 31]);
    }

    #[test]
    fn stats_are_coherent() {
        let (result, stats) = par_map_stats(4, 0..40u32, |x| {
            std::thread::sleep(Duration::from_micros(200));
            x
        });
        assert!(result.is_ok());
        assert_eq!(stats.jobs, 40);
        assert!(stats.workers >= 1 && stats.workers <= 4);
        assert_eq!(stats.max_queue_depth, 40);
        assert!(stats.busy >= Duration::from_micros(200 * 40 / 2));
        assert!(!stats.render().is_empty());
        assert_eq!(stats.render(), stats.to_string());
        // All jobs are accounted for between injector pops and steals
        // minus re-pops from own deques; at minimum every job was popped
        // from the injector exactly once.
        assert_eq!(stats.injector_pops, 40);
    }

    #[test]
    fn parse_jobs_accepts_positive_integers() {
        assert_eq!(parse_jobs("1").unwrap(), 1);
        assert_eq!(parse_jobs("16").unwrap(), 16);
    }

    #[test]
    fn parse_jobs_rejects_zero_and_garbage() {
        assert!(parse_jobs("0").is_err());
        assert!(parse_jobs("-2").is_err());
        assert!(parse_jobs("four").is_err());
        assert!(parse_jobs("").is_err());
        assert!(parse_jobs("1.5").is_err());
    }

    #[test]
    fn available_workers_is_at_least_one() {
        assert!(available_workers() >= 1);
    }

    #[test]
    fn parse_quiet_rule() {
        assert!(parse_quiet("1"));
        assert!(parse_quiet("true"));
        assert!(!parse_quiet("0"));
        assert!(!parse_quiet(""));
    }

    #[test]
    fn effective_parallelism_handles_zero_wall() {
        let stats = PoolStats::default();
        assert_eq!(stats.effective_parallelism(), 0.0);
    }

    #[test]
    fn metrics_export_backs_the_render_line() {
        let stats = PoolStats {
            workers: 4,
            jobs: 15,
            steals: 3,
            injector_pops: 12,
            max_queue_depth: 15,
            wall: Duration::from_millis(250),
            busy: Duration::from_millis(750),
        };
        let mut m = MetricsReport::new();
        stats.export_metrics(&mut m);
        assert_eq!(m.counter_value("pool.jobs"), Some(15));
        assert_eq!(m.counter_value("pool.steals"), Some(3));
        assert_eq!(m.counter_value("pool.injector_pops"), Some(12));
        assert_eq!(m.get("pool.workers"), Some(&Metric::Gauge(4.0)));
        assert_eq!(m.get("pool.max_queue_depth"), Some(&Metric::Gauge(15.0)));
        assert_eq!(m.get("pool.effective_parallelism"), Some(&Metric::Gauge(3.0)));
        let line = stats.render();
        assert!(line.starts_with("pool: 15 jobs on 4 workers in 0.250s"), "{line}");
        assert!(line.contains("3.00x effective, 3 steals, 12 injector pops, max depth 15"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn order_preserved_for_any_job_and_worker_count(
            jobs in 0usize..48,
            workers in 1usize..9,
        ) {
            let expected: Vec<usize> = (0..jobs).map(|i| i * 3 + 1).collect();
            let got = par_map(workers, 0..jobs, |i| i * 3 + 1).unwrap();
            prop_assert_eq!(got, expected);
        }

        #[test]
        fn parallel_equals_serial(jobs in 0usize..40, workers in 2usize..8) {
            let serial = par_map(1, 0..jobs, |i| i.wrapping_mul(2654435761)).unwrap();
            let parallel = par_map(workers, 0..jobs, |i| i.wrapping_mul(2654435761)).unwrap();
            prop_assert_eq!(serial, parallel);
        }
    }
}
