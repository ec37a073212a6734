//! Metric names, units and the result line.
//!
//! These two lists are the benchmark's contract: `BENCHMARK.json` at the
//! repository root names exactly the same metrics with the same units (a
//! test below holds them together). Per-layer names start with the crate
//! that owns the layer.

use std::collections::BTreeMap;

use triarch_core::arch::{grid, Architecture};
use triarch_core::driver::{cell_slug, slug};
use triarch_kernels::Kernel;

/// Metric values of one run, by name.
pub type Values = BTreeMap<String, f64>;

/// The end-to-end metrics every workload reports with tracing off.
#[must_use]
pub fn end_to_end() -> Vec<(String, &'static str)> {
    [("setup_s", "s"), ("op_min_ms", "ms"), ("peak_rss_mb", "MB")]
        .into_iter()
        .map(|(name, unit)| (name.to_owned(), unit))
        .collect()
}

/// The engine crate that simulates `arch` (both G4 rows live in `ppc`).
#[must_use]
pub fn engine(arch: Architecture) -> &'static str {
    match arch {
        Architecture::Ppc | Architecture::Altivec => "ppc",
        Architecture::Viram => "viram",
        Architecture::Imagine => "imagine",
        Architecture::Raw => "raw",
        Architecture::Dpu => "dpu",
    }
}

/// The span (and, with `_ms`, the metric) timing one untraced cell.
#[must_use]
pub fn cell_span(arch: Architecture, kernel: Kernel) -> String {
    format!("{}.{}", engine(arch), cell_slug(arch, kernel))
}

/// The span timing one traced cell.
#[must_use]
pub fn traced_cell_span(arch: Architecture, kernel: Kernel) -> String {
    format!("profile.{}", cell_slug(arch, kernel))
}

/// The per-layer metrics the traced run reports. A layer the workload
/// does not exercise reads 0.
#[must_use]
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit| out.push((name, unit));
    add("kernels.workload_build_ms".into(), "ms");
    for kernel in Kernel::ALL {
        add(format!("kernels.reference.{}_ms", slug(kernel.name())), "ms");
    }
    add("kernels.reference_share".into(), "ratio");
    add("core.machine_build_us".into(), "us");
    for (arch, kernel) in grid() {
        add(format!("{}_ms", cell_span(arch, kernel)), "ms");
    }
    for arch in Architecture::ALL {
        add(format!("{}.{}_sim_mcycles_per_s", engine(arch), slug(arch.name())), "Mcycles/s");
    }
    add("core.sim_cycles_per_pass".into(), "count");
    add("core.paper_err_max".into(), "ratio");
    add("profile.traced_grid_ms".into(), "ms");
    add("profile.untraced_grid_ms".into(), "ms");
    add("profile.trace_overhead_ratio".into(), "ratio");
    for arch in Architecture::ALL {
        add(format!("profile.{}_traced_ms", slug(arch.name())), "ms");
    }
    add("faults.sweep_ms".into(), "ms");
    for count in ["runs", "corrected", "detected", "sdc", "masked"] {
        add(format!("faults.{count}"), "count");
    }
    for stage in ["scorecard", "htmlreport_render", "timelinedoc_render"] {
        add(format!("core.{stage}_ms"), "ms");
    }
    add("core.report_bytes".into(), "bytes");
    for class in ["hit", "miss"] {
        for p in ["p50", "p95"] {
            add(format!("serve.{class}_{p}_ms"), "ms");
        }
    }
    for (class, phases) in [
        ("hit", &["accept", "lookup", "respond"][..]),
        ("miss", &["queue", "build", "persist", "respond"]),
    ] {
        for phase in phases {
            for p in ["p50", "p95"] {
                add(format!("serve.{class}.{phase}_us_{p}"), "us");
            }
        }
    }
    add("serve.cache.hit_ratio".into(), "ratio");
    for count in ["cache.lookups", "cache.evictions", "cache.coalesced", "queue.rejected", "errors"]
    {
        add(format!("serve.{count}"), "count");
    }
    add("serve.persist.bytes".into(), "bytes");
    add("serve.client.bytes".into(), "bytes");
    for stat in ["op_min_ms", "op_p50_ms", "op_tail_ms"] {
        add(format!("hostbench.{stat}"), "ms");
    }
    add("hostbench.ops_per_s".into(), "1/s");
    out
}

/// Prints every metric of the run as `workload metric value unit`, then
/// the result object as the last line of stdout.
///
/// # Errors
///
/// An end-to-end metric that was not measured, a value that is not a
/// finite number, or a measured name neither list knows.
pub fn emit(
    workload: &str,
    trace: bool,
    attempted: u64,
    failed: u64,
    values: &Values,
) -> Result<(), String> {
    let known: Vec<String> =
        end_to_end().into_iter().chain(per_layer()).map(|(name, _)| name).collect();
    if let Some(stray) = values.keys().find(|k| !known.contains(k)) {
        return Err(format!("measured metric '{stray}' is in neither metric list"));
    }
    let mut fields = Vec::new();
    for (name, unit) in if trace { per_layer() } else { end_to_end() } {
        let value = match values.get(&name) {
            Some(v) => *v,
            None if trace => 0.0,
            None => return Err(format!("{workload}: end-to-end metric '{name}' was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("{workload}: metric '{name}' is {value}"));
        }
        println!("{workload} {name} {value} {unit}");
        fields.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        fields.join(", ")
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use triarch_core::benchjson::{parse_json, Json};

    use super::*;
    use crate::Workload;

    fn field<'a>(obj: &'a [(String, Json)], key: &str) -> &'a Json {
        &obj.iter().find(|(k, _)| k == key).unwrap_or_else(|| panic!("missing '{key}'")).1
    }

    fn text(json: &Json) -> String {
        match json {
            Json::Str(s) => s.clone(),
            other => panic!("expected a string, got {other:?}"),
        }
    }

    fn listed(doc: &[(String, Json)], key: &str) -> Vec<(String, String)> {
        let Json::Arr(items) = field(doc, key) else { panic!("'{key}' is not an array") };
        items
            .iter()
            .map(|m| {
                let m = m.as_obj().expect("metric entries are objects");
                (text(field(m, "name")), text(field(m, "unit")))
            })
            .collect()
    }

    fn owned(list: Vec<(String, &'static str)>) -> Vec<(String, String)> {
        list.into_iter().map(|(n, u)| (n, u.to_owned())).collect()
    }

    #[test]
    fn names_use_the_allowed_alphabet_and_are_unique() {
        let all: Vec<(String, &str)> = end_to_end().into_iter().chain(per_layer()).collect();
        assert!(end_to_end().len() <= 16);
        assert!(per_layer().len() <= 128);
        for (name, unit) in &all {
            assert!(
                name.len() <= 64
                    && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                    && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "bad metric name {name:?}"
            );
            assert!(
                unit.len() <= 16
                    && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit:?}"
            );
            assert_eq!(all.iter().filter(|(n, _)| n == name).count(), 1, "{name} listed twice");
        }
    }

    #[test]
    fn lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let raw = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let root = parse_json(&raw).expect("BENCHMARK.json parses");
        let doc = root.as_obj().expect("BENCHMARK.json is an object");
        assert_eq!(listed(doc, "end_to_end"), owned(end_to_end()));
        assert_eq!(listed(doc, "per_layer"), owned(per_layer()));
        let Json::Arr(workloads) = field(doc, "workloads") else { panic!("no workloads") };
        let names: Vec<String> =
            workloads.iter().map(|w| text(field(w.as_obj().expect("object"), "name"))).collect();
        assert_eq!(names, Workload::ALL.map(|w| w.name().to_owned()));
    }

    #[test]
    fn emit_rejects_unmeasured_and_unknown_metrics() {
        let mut values = Values::new();
        assert!(emit("w", false, 1, 0, &values).unwrap_err().contains("setup_s"));
        for (name, _) in end_to_end() {
            values.insert(name, 1.5);
        }
        assert!(emit("w", false, 1, 0, &values).is_ok());
        // Layers a workload does not exercise read 0 in the traced run.
        assert!(emit("w", true, 1, 0, &values).is_ok());
        values.insert("op_p51_ms".into(), 1.0);
        assert!(emit("w", false, 1, 0, &values).unwrap_err().contains("op_p51_ms"));
        values.remove("op_p51_ms");
        values.insert("setup_s".into(), f64::NAN);
        assert!(emit("w", false, 1, 0, &values).unwrap_err().contains("NaN"));
    }
}
