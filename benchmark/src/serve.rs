//! The `serve-mixed` workload: an in-process `triarch_serve` daemon on a
//! unix socket under two closed-loop clients.
//!
//! Three requests in four read one of 11 warm keys (cache hits, bodies
//! from 82 bytes to 224 KB); one in four is a never-repeated `faultsweep`
//! small job (a miss: a build, a persist write and, once 64 entries are
//! held, an LRU eviction). Every hit body is compared with the warm
//! body, every warm body with the one-shot driver's output, and every
//! 16th fresh miss is recomputed in process after the window.

use std::fs;
use std::path::{Path, PathBuf};
use std::thread;
use std::time::{Duration, Instant};

use triarch_core::arch::{grid, Architecture, MachineSpec};
use triarch_core::driver::{self, DriverKind, JobSpec, WorkloadKind, WORKLOAD_SEED};
use triarch_core::faultsweep;
use triarch_kernels::{Kernel, WorkloadSet};
use triarch_profile::fnv1a64;
use triarch_serve::{serve, AccessRecord, Addr, Client, ServeConfig, ServerHandle};

use crate::grid::{fault_counts, fault_layers, kernel_layers};
use crate::harness::{self, median_ms, Outcome};
use crate::metrics::Values;
use crate::spans::Tracer;
use crate::stats::{nearest_rank, sorted, tail};

/// Closed-loop clients, one connection each at a time.
const CLIENTS: u64 = 2;
/// Per client, the traced run's window stays open until this many hits
/// and misses were answered: 2 × (400 + 100) replies give the p99 of all
/// requests ten samples beyond it, and 2 × 100 misses the miss p95.
const MIN_HITS: usize = 400;
const MIN_MISSES: usize = 100;
/// Failed requests after which a client stops, so a daemon that fails
/// every request cannot hold the window open.
const MAX_FAILED: u64 = 100;
/// Every this many fresh misses per client, one is recomputed in process.
const SAMPLE_EVERY: usize = 16;
/// Fault campaigns per cell of a fresh job.
const FRESH_CAMPAIGNS: u64 = 2;
/// Tail percentile of all requests (`hostbench.op_tail_ms`).
const TAIL_P: f64 = 99.0;
/// Tail percentile of the hit and miss latencies and of the access-log
/// phases.
const LAYER_TAIL_P: f64 = 95.0;
/// Repetitions of each in-process build the traced run times.
const PROBE_REPS: usize = 3;

/// The keys set-up warms: the grid drivers on both sizes plus the flame
/// profile of every corner-turn cell.
#[must_use]
pub fn warm_specs() -> Vec<JobSpec> {
    let mut specs = vec![
        JobSpec::new(DriverKind::Table3, WorkloadKind::Small),
        JobSpec::new(DriverKind::Table3, WorkloadKind::Paper),
        JobSpec::new(DriverKind::Metrics, WorkloadKind::Small),
        JobSpec::new(DriverKind::Report, WorkloadKind::Small),
        JobSpec::new(DriverKind::Dse, WorkloadKind::Small),
    ];
    for arch in Architecture::ALL {
        let mut flame = JobSpec::new(DriverKind::Flame, WorkloadKind::Paper);
        flame.cell = Some((arch, Kernel::CornerTurn));
        specs.push(flame);
    }
    specs
}

fn fresh_spec(seed: u64) -> JobSpec {
    JobSpec {
        seed,
        campaigns: FRESH_CAMPAIGNS,
        ..JobSpec::new(DriverKind::Faultsweep, WorkloadKind::Small)
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One request of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// Read warm key `i`.
    Warm(usize),
    /// A fresh fault sweep with this fault-plan seed.
    Fresh(u64),
}

/// One client's request stream, a pure function of the seed.
pub struct Mix {
    state: u64,
    base: u64,
    client: u64,
    keys: u64,
    fresh: u64,
}

impl Mix {
    /// Client `client`'s stream over `keys` warm keys.
    #[must_use]
    pub fn new(seed: u64, client: u64, keys: usize) -> Mix {
        let mut s = seed;
        let mixed = splitmix64(&mut s);
        // Job specs travel as JSON, whose numbers are f64: a fault seed
        // at or above 2^53 would reach the daemon rounded, so fresh seeds
        // stay below it.
        Mix { state: mixed ^ client, base: mixed >> 12, client, keys: keys as u64, fresh: 0 }
    }

    /// The next request. Fresh seeds are `base + (client << 32 | n)`, so
    /// no two requests of one run share one.
    pub fn next_request(&mut self) -> Request {
        let r = splitmix64(&mut self.state);
        if r % 4 == 3 {
            self.fresh += 1;
            Request::Fresh(self.base.wrapping_add(self.client << 32 | (self.fresh - 1)))
        } else {
            Request::Warm(((r >> 2) % self.keys) as usize)
        }
    }
}

/// A daemon with its keys warmed. Dropping it stops the daemon and
/// removes its directory.
struct Daemon {
    dir: PathBuf,
    handle: Option<ServerHandle>,
    client: Client,
    warm: Vec<String>,
}

impl Daemon {
    fn start(dir: PathBuf, access_log: bool, specs: &[JobSpec]) -> Result<Daemon, String> {
        fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let mut cfg = ServeConfig::new(Addr::Unix(dir.join("sock")));
        cfg.workers = 2;
        cfg.queue = 16;
        cfg.cache_entries = 64;
        cfg.jobs = 1;
        cfg.quiet = true;
        cfg.cache_dir = Some(dir.join("cache"));
        cfg.access_log = access_log.then(|| dir.join("access.jsonl"));
        let handle = serve(cfg).map_err(|e| e.to_string())?;
        let client = Client::new(handle.addr().clone());
        let mut daemon = Daemon { dir, handle: Some(handle), client, warm: Vec::new() };
        for spec in specs {
            let reply = daemon.client.submit(spec);
            let body = reply.map_err(|e| format!("warming {}: {e}", spec.canonical()))?.body;
            daemon.warm.push(body);
        }
        Ok(daemon)
    }

    fn stop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
        let _ = fs::remove_dir_all(&self.dir);
    }
}

/// What one client saw.
struct ClientRun {
    sent: u64,
    all_ms: Vec<f64>,
    hit_ms: Vec<f64>,
    miss_ms: Vec<f64>,
    failed: u64,
    bytes: u64,
    samples: Vec<(u64, u64)>,
    end: Instant,
    tracer: Tracer,
}

impl ClientRun {
    /// Whether the client sends another request: always before the
    /// deadline and, after it, until the answered hits and misses reach
    /// `floor`, unless [`MAX_FAILED`] requests have failed. Only answered
    /// requests count toward the floor, since failures carry no latency.
    fn keep_sending(&self, open: bool, floor: (usize, usize)) -> bool {
        self.failed < MAX_FAILED
            && (open || self.hit_ms.len() < floor.0 || self.miss_ms.len() < floor.1)
    }
}

fn client_loop(
    client: &Client,
    specs: &[JobSpec],
    warm: &[String],
    mut mix: Mix,
    (deadline, floor): (Instant, (usize, usize)),
    tracer: Tracer,
) -> ClientRun {
    let mut run = ClientRun {
        sent: 0,
        all_ms: Vec::new(),
        hit_ms: Vec::new(),
        miss_ms: Vec::new(),
        failed: 0,
        bytes: 0,
        samples: Vec::new(),
        end: deadline,
        tracer,
    };
    let mut fresh_ok = 0;
    while run.keep_sending(Instant::now() < deadline, floor) {
        let request = mix.next_request();
        let fresh;
        let spec = match request {
            Request::Warm(i) => &specs[i],
            Request::Fresh(seed) => {
                fresh = fresh_spec(seed);
                &fresh
            }
        };
        run.sent += 1;
        let span = run.tracer.begin("serve.request");
        let t = Instant::now();
        let reply = client.submit(spec);
        let took = harness::ms(t.elapsed());
        run.tracer.end(span);
        let ok = match reply {
            Ok(reply) => {
                run.all_ms.push(took);
                if reply.hit { &mut run.hit_ms } else { &mut run.miss_ms }.push(took);
                run.bytes += reply.body.len() as u64;
                match request {
                    Request::Warm(i) => reply.body == warm[i],
                    Request::Fresh(seed) => {
                        if fresh_ok % SAMPLE_EVERY == 0 {
                            run.samples.push((seed, fnv1a64(reply.body.as_bytes())));
                        }
                        fresh_ok += 1;
                        true
                    }
                }
            }
            Err(e) => {
                eprintln!("hostbench: request {} failed: {e}", spec.canonical());
                false
            }
        };
        run.failed += u64::from(!ok);
    }
    run.end = Instant::now();
    run
}

/// A counter from a `servectl stats` dump (0 when absent).
fn prom(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
        .unwrap_or(0.0)
}

/// Records the p50 and p95 of `samples` under `name("p50")` and
/// `name("p95")`.
fn percentiles(
    values: &mut Values,
    samples: Vec<f64>,
    name: impl Fn(&str) -> String,
) -> Result<(), String> {
    let samples = sorted(samples);
    let p95 = tail(&samples, LAYER_TAIL_P)
        .ok_or_else(|| format!("{}: {} samples are too few", name("p95"), samples.len()))?;
    values.insert(name("p50"), nearest_rank(&samples, 50.0));
    values.insert(name("p95"), p95);
    Ok(())
}

/// The access log's phase timings of the timed window's requests.
fn phase_layers(log: &Path, skip: usize, values: &mut Values) -> Result<(), String> {
    let text = fs::read_to_string(log).map_err(|e| format!("cannot read access log: {e}"))?;
    let records =
        text.lines().skip(skip).map(AccessRecord::parse).collect::<Result<Vec<_>, _>>()?;
    for (outcome, phases) in [
        (triarch_serve::Outcome::Hit, &["accept", "lookup", "respond"][..]),
        (triarch_serve::Outcome::Miss, &["queue", "build", "persist", "respond"]),
    ] {
        for &phase in phases {
            let us: Vec<f64> = records
                .iter()
                .filter(|r| r.outcome == outcome)
                .filter_map(|r| r.phases.named().into_iter().find(|(n, _)| *n == phase))
                .map(|(_, us)| us as f64)
                .collect();
            percentiles(values, us, |p| format!("serve.{outcome}.{phase}_us_{p}"))?;
        }
    }
    Ok(())
}

/// Times, in process, what each fresh miss rebuilds: the small workload
/// set, its golden references, the machines and the fault sweep.
fn build_layers(seed: u64, miss_p50: f64, values: &mut Values) -> Result<(), String> {
    let builds: Vec<f64> =
        (0..PROBE_REPS).map(|_| median_ms(1, || WorkloadSet::small(WORKLOAD_SEED))).collect();
    let w = WorkloadSet::small(WORKLOAD_SEED).map_err(|e| e.to_string())?;
    let calls = FRESH_CAMPAIGNS as f64 * Architecture::ALL.len() as f64;
    kernel_layers(&w, &builds, calls, miss_p50, values);
    let machines_ms = median_ms(PROBE_REPS, || {
        grid().into_iter().map(|(arch, _)| MachineSpec::Paper(arch).build()).collect::<Vec<_>>()
    });
    values.insert("core.machine_build_us".into(), 1e3 * machines_ms);
    let sweep = || faultsweep::sweep_jobs(&w, seed, FRESH_CAMPAIGNS, 1);
    values.insert("faults.sweep_ms".into(), median_ms(PROBE_REPS, sweep));
    let (table, _) = sweep().map_err(|e| e.to_string())?;
    fault_layers(fault_counts(&table), values);
    Ok(())
}

/// `serve-mixed`.
///
/// # Errors
///
/// The scratch directory, the daemon or a warm key could not be set up,
/// or the stats or access log could not be read.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    // Socket paths are limited to ~100 bytes, so the daemon's files are
    // named relative to a scratch directory inside the package.
    let scratch = Path::new(env!("CARGO_MANIFEST_DIR")).join(".scratch");
    fs::create_dir_all(&scratch)
        .map_err(|e| format!("cannot create {}: {e}", scratch.display()))?;
    std::env::set_current_dir(&scratch)
        .map_err(|e| format!("cannot enter {}: {e}", scratch.display()))?;
    let specs = warm_specs();
    let mut rep = 0;
    let (mut daemon, setup_s) = harness::setup(|| {
        rep += 1;
        Daemon::start(PathBuf::from(format!("serve-{}-{rep}", std::process::id())), trace, &specs)
    })?;
    let mut failed = 0;
    for (spec, body) in specs.iter().zip(&daemon.warm) {
        failed += u64::from(!driver::run_job(spec, 1).is_ok_and(|a| a.body == *body));
    }

    let before = daemon.client.stats().map_err(|e| e.to_string())?;
    let origin = Instant::now();
    let deadline = origin + Duration::from_secs_f64(seconds);
    // Only the traced run reports tails, so only it needs the floor.
    let floor = if trace { (MIN_HITS, MIN_MISSES) } else { (0, 0) };
    let runs: Vec<ClientRun> = thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (daemon, specs) = (&daemon, &specs);
                let mix = Mix::new(seed, c, specs.len());
                let tracer = Tracer::new(trace, origin, c << 32);
                s.spawn(move || {
                    let window = (deadline, floor);
                    client_loop(&daemon.client, specs, &daemon.warm, mix, window, tracer)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client threads do not panic")).collect()
    });
    let window_s = runs.iter().map(|r| r.end).max().unwrap_or(origin).duration_since(origin);
    let after = daemon.client.stats().map_err(|e| e.to_string())?;
    daemon.stop();

    for run in &runs {
        for &(fault_seed, hash) in &run.samples {
            let same = driver::run_job(&fresh_spec(fault_seed), 1)
                .is_ok_and(|a| fnv1a64(a.body.as_bytes()) == hash);
            failed += u64::from(!same);
        }
    }

    let mut values = Values::new();
    let all: Vec<f64> = runs.iter().flat_map(|r| r.all_ms.iter().copied()).collect();
    let attempted = runs.iter().map(|r| r.sent).sum::<u64>();
    harness::record_ops(&mut values, &all, window_s.as_secs_f64(), TAIL_P, setup_s, trace)?;
    if trace {
        let hit_ms: Vec<f64> = runs.iter().flat_map(|r| r.hit_ms.iter().copied()).collect();
        let miss_ms: Vec<f64> = runs.iter().flat_map(|r| r.miss_ms.iter().copied()).collect();
        let miss_p50 = nearest_rank(&sorted(miss_ms.clone()), 50.0);
        percentiles(&mut values, hit_ms, |p| format!("serve.hit_{p}_ms"))?;
        percentiles(&mut values, miss_ms, |p| format!("serve.miss_{p}_ms"))?;
        cache_layers(&before, &after, &mut values);
        let bytes = runs.iter().map(|r| r.bytes).sum::<u64>();
        values.insert("serve.client.bytes".into(), bytes as f64);
        phase_layers(&daemon.dir.join("access.jsonl"), specs.len(), &mut values)?;
        build_layers(seed, miss_p50, &mut values)?;
    }
    drop(daemon);
    let _ = fs::remove_dir(&scratch);

    let mut tracer = Tracer::new(trace, origin, 0);
    for run in runs {
        failed += run.failed;
        tracer.absorb(run.tracer);
    }
    Ok(Outcome { attempted, failed, values, tracer })
}

/// The daemon's cache, admission and persistence counters over the
/// window, from `stats` dumps taken before and after it.
fn cache_layers(before: &str, after: &str, values: &mut Values) {
    let delta = |name: &str| prom(after, name) - prom(before, name);
    let hits = delta("triarch_serve_cache_hits");
    let coalesced = delta("triarch_serve_cache_coalesced");
    let lookups = hits + delta("triarch_serve_cache_misses") + coalesced;
    values.insert("serve.cache.hit_ratio".into(), hits / lookups);
    values.insert("serve.cache.lookups".into(), lookups);
    values.insert("serve.cache.coalesced".into(), coalesced);
    values.insert("serve.cache.evictions".into(), delta("triarch_serve_cache_evictions"));
    values.insert("serve.queue.rejected".into(), delta("triarch_serve_queue_rejected"));
    values.insert("serve.persist.bytes".into(), delta("triarch_serve_persist_bytes"));
    values.insert("serve.errors".into(), delta("triarch_serve_errors"));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seed: u64, client: u64, n: usize) -> Vec<Request> {
        let mut mix = Mix::new(seed, client, 11);
        (0..n).map(|_| mix.next_request()).collect()
    }

    fn fresh_seeds(requests: &[Request]) -> Vec<u64> {
        requests
            .iter()
            .filter_map(|r| match r {
                Request::Fresh(s) => Some(*s),
                Request::Warm(_) => None,
            })
            .collect()
    }

    #[test]
    fn the_mix_is_a_function_of_the_seed() {
        assert_eq!(stream(42, 0, 4000), stream(42, 0, 4000));
        let a = stream(42, 0, 4000);
        let fresh = fresh_seeds(&a).len();
        assert!((900..1100).contains(&fresh), "{fresh} fresh of 4000");
        assert!(a.iter().all(|r| !matches!(r, Request::Warm(i) if *i >= 11)));
        // Every warm key is read.
        for key in 0..11 {
            assert!(a.contains(&Request::Warm(key)), "key {key} never read");
        }
    }

    #[test]
    fn fresh_seeds_never_repeat_and_follow_the_seed() {
        let mut seeds = fresh_seeds(&stream(42, 0, 4000));
        seeds.extend(fresh_seeds(&stream(42, 1, 4000)));
        let n = seeds.len();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), n, "a fresh job repeated");
        let other = fresh_seeds(&stream(7, 0, 4000));
        assert!(other.iter().all(|s| !seeds.contains(s)), "seed 7 reused a seed-42 job");
        assert_ne!(stream(42, 0, 64), stream(42, 1, 64), "clients share a stream");
        assert!(seeds.iter().all(|&s| s < 1 << 53), "a fresh seed does not survive JSON");
    }

    #[test]
    fn eleven_warm_keys_none_of_them_fresh() {
        let specs = warm_specs();
        assert_eq!(specs.len(), 11);
        for spec in &specs {
            spec.validate().unwrap();
            assert_ne!(spec.driver, DriverKind::Faultsweep);
        }
        assert_eq!(fresh_spec(9).campaigns, FRESH_CAMPAIGNS);
    }

    #[test]
    fn only_answered_requests_fill_the_floor() {
        let floor = (MIN_HITS, MIN_MISSES);
        let mut run = ClientRun {
            sent: 0,
            all_ms: Vec::new(),
            hit_ms: vec![0.1; MIN_HITS],
            miss_ms: vec![20.0; MIN_MISSES - 1],
            failed: 1,
            bytes: 0,
            samples: Vec::new(),
            end: Instant::now(),
            tracer: Tracer::off(),
        };
        // One fresh request failed: past the deadline the client sends
        // until a miss replaces it.
        assert!(run.keep_sending(false, floor));
        run.miss_ms.push(20.0);
        assert!(!run.keep_sending(false, floor));
        assert!(run.keep_sending(true, floor));
        // The untraced run has no floor, and a failing daemon ends any run.
        run.miss_ms.clear();
        assert!(!run.keep_sending(false, (0, 0)));
        run.failed = MAX_FAILED;
        assert!(!run.keep_sending(true, floor));
    }

    #[test]
    fn prom_reads_one_counter_exactly() {
        let text = "# TYPE triarch_serve_cache_hits counter\ntriarch_serve_cache_hits 12\n\
                    triarch_serve_cache_hits_total 99\n";
        assert_eq!(prom(text, "triarch_serve_cache_hits"), 12.0);
        assert_eq!(prom(text, "triarch_serve_cache_misses"), 0.0);
    }
}
