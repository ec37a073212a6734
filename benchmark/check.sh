#!/usr/bin/env bash
# Smoke test for hostbench. Builds the package, runs every workload once
# (`all --seed 1`), and checks that every end-to-end metric BENCHMARK.json
# lists was printed with its unit and that no op failed anywhere. Then runs
# grid-small traced and checks that every per-layer metric was printed,
# that the span file parses, and that within each pass the layers' self
# times add up to no more than the pass itself.
#
# Run from anywhere: benchmark/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="$CARGO_TARGET_DIR/release/hostbench"
work="benchmark/.scratch/check-$$"
mkdir -p "$work"
trap 'rm -rf "$work"' EXIT

"$bin" all --seed 1 > "$work/all.txt"
"$bin" grid-small --seed 1 --trace 1 --spans "$work/spans.json" > "$work/trace.txt"

python3 - "$work" <<'EOF'
import json, sys

work = sys.argv[1]
bench = json.load(open("BENCHMARK.json"))
workloads = [w["name"] for w in bench["workloads"]]

def printed(path):
    lines = open(path).read().splitlines()
    metrics = {}
    for line in lines:
        if not line.startswith("{"):
            workload, name, value, unit = line.split()
            metrics[(workload, name)] = (float(value), unit)
    results = [json.loads(line) for line in lines if line.startswith("{")]
    return metrics, results

metrics, results = printed(f"{work}/all.txt")
assert len(results) == len(workloads), f"{len(results)} result objects for {len(workloads)} workloads"
for workload, result in zip(workloads, results):
    assert result["correct"] and result["failed"] == 0, f"{workload}: {result['failed']} failed"
    for m in bench["end_to_end"]:
        value, unit = metrics[(workload, m["name"])]
        assert unit == m["unit"], f"{workload} {m['name']}: unit {unit}"
        assert value > 0, f"{workload} {m['name']} is {value}"
        assert result["metrics"][m["name"]]["value"] == value

metrics, results = printed(f"{work}/trace.txt")
assert results[-1]["failed"] == 0
for m in bench["per_layer"]:
    assert ("grid-small", m["name"]) in metrics, f"per-layer {m['name']} not printed"

spans = json.load(open(f"{work}/spans.json"))["spans"]
passes = {s["op"]: s for s in spans if s["parent"] is None and s["name"] == "pass"}
assert passes, "no pass spans"
inside = {op: 0 for op in passes}
for s in spans:
    if s["parent"] is not None and s["op"] in inside:
        assert s["self_ns"] <= s["end_ns"] - s["start_ns"], s
        inside[s["op"]] += s["self_ns"]
for op, root in passes.items():
    assert inside[op] <= root["end_ns"] - root["start_ns"], f"op {op}: layers exceed the pass"
print(f"check.sh: {len(workloads)} workloads, {len(bench['end_to_end'])} end-to-end and "
      f"{len(bench['per_layer'])} per-layer metrics, {len(passes)} traced passes: ok")
EOF
