//! `perfgate` — the CI perf-regression gate over `BENCH_table3.json`.
//!
//! ```sh
//! cargo run --release -p triarch-bench --bin perfgate -- \
//!     BENCH_table3.json target/BENCH_fresh.json
//! ```
//!
//! Parses and schema-validates both files (a malformed artifact is a
//! gate failure of its own), then requires every cell's simulated cycles
//! and breakdown to equal the baseline's exactly: the simulators are
//! deterministic, so any difference is a behaviour change. The verdict
//! is the differential profile of `repro -- profdiff`, and a failure
//! prints it, naming every category that moved. The gate has no
//! tolerance and no skip switch; an intentional change refreshes the
//! baseline with `repro -- bench` in the same change. The git revision
//! is printed but never compared.
//!
//! Exit codes: `0` pass, `1` regression or malformed artifact, `2` usage
//! error.

use std::env;
use std::fs;
use std::process;

use triarch_core::benchjson::{compare, BenchReport};

fn load(path: &str) -> Result<BenchReport, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    BenchReport::parse(&text).map_err(|e| format!("{path}: schema check failed: {e}"))
}

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let [baseline_path, fresh_path] = args.as_slice() else {
        eprintln!("usage: perfgate <baseline.json> <fresh.json>");
        process::exit(2);
    };

    let (baseline, fresh) = match (load(baseline_path), load(fresh_path)) {
        (Ok(b), Ok(f)) => (b, f),
        (b, f) => {
            for err in [b.err(), f.err()].into_iter().flatten() {
                eprintln!("perfgate: {err}");
            }
            process::exit(1);
        }
    };

    let failure = match compare(&baseline, &fresh) {
        Ok(diff) if diff.is_empty() => {
            eprintln!(
                "perfgate: PASS — {} cells identical to baseline {} (fresh {})",
                diff.matched, baseline.git_rev, fresh.git_rev,
            );
            return;
        }
        Ok(diff) => diff.render(),
        Err(why) => format!("  {why}\n"),
    };
    eprintln!("perfgate: FAIL — fresh {} vs baseline {}:", fresh.git_rev, baseline.git_rev);
    eprint!("{failure}");
    eprintln!(
        "refresh intentionally with: \
         cargo run --release -p triarch-bench --bin repro -- bench"
    );
    process::exit(1);
}
