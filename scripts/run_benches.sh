#!/usr/bin/env bash
# Runs the benchmark harness and emits a machine-readable snapshot of the
# repo's performance (throughput + latency + data-plane microbench) for
# trajectory tracking.
#
# Usage: scripts/run_benches.sh [BUILD_DIR] [OUTPUT_JSON] [--label NAME]
#   BUILD_DIR    cmake build directory with bench binaries (default: build)
#   OUTPUT_JSON  where to write the snapshot (default: BENCH_<label>.json,
#                or BENCH_seed.json when no label is given)
#   --label NAME snapshot label; sets the default output file name
set -euo pipefail

LABEL=""
POSITIONAL=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --label)
      [[ $# -ge 2 ]] || { echo "error: --label needs a value" >&2; exit 2; }
      LABEL="$2"
      shift 2
      ;;
    *)
      POSITIONAL+=("$1")
      shift
      ;;
  esac
done

BUILD_DIR="${POSITIONAL[0]:-build}"
if [[ -n "${LABEL}" ]]; then
  OUT="${POSITIONAL[1]:-BENCH_${LABEL}.json}"
else
  OUT="${POSITIONAL[1]:-BENCH_seed.json}"
fi
RESULTS_DIR="${BUILD_DIR}/bench_results"

if [[ ! -x "${BUILD_DIR}/bench/fig7_throughput" ]]; then
  echo "error: ${BUILD_DIR}/bench/fig7_throughput not found." >&2
  echo "Build first: cmake -B ${BUILD_DIR} -S . && cmake --build ${BUILD_DIR} -j" >&2
  exit 1
fi

mkdir -p "${RESULTS_DIR}"

echo "== fig7_throughput (paper Fig. 7: goodput vs CPU budget) =="
"${BUILD_DIR}/bench/fig7_throughput" | tee "${RESULTS_DIR}/fig7.txt"

echo
echo "== latency_bench (Section VI-E: epoch latency under load) =="
"${BUILD_DIR}/bench/latency_bench" | tee "${RESULTS_DIR}/latency.txt"

echo
echo "== fig12_dataplane (batch vs record-at-a-time data plane) =="
"${BUILD_DIR}/bench/fig12_dataplane" | tee "${RESULTS_DIR}/fig12.txt"

echo
echo "== fig10_scalability --exec-only (multithreaded executor sweep) =="
"${BUILD_DIR}/bench/fig10_scalability" --exec-only \
  --sources 100 --epochs 3 --pairs 100 --threads 1,2,4 \
  | tee "${RESULTS_DIR}/fig10_exec.txt"

echo
echo "== fault_recovery (kill/rejoin dip + reconvergence, retransmit storm) =="
"${BUILD_DIR}/bench/fault_recovery" | tee "${RESULTS_DIR}/fault_recovery.txt"

echo
echo "== traffic_dynamics (flash burst: shed fraction, dip, reconvergence) =="
"${BUILD_DIR}/bench/traffic_dynamics" \
  | tee "${RESULTS_DIR}/traffic_dynamics.txt"

# Optional microbenchmarks (google-benchmark); tolerated if absent.
if [[ -x "${BUILD_DIR}/bench/overhead_bench" ]]; then
  echo
  echo "== overhead_bench (adaptation-path microbenchmarks) =="
  "${BUILD_DIR}/bench/overhead_bench" \
    --benchmark_format=json > "${RESULTS_DIR}/overhead.json" || true
fi

python3 - "$RESULTS_DIR" "$OUT" <<'PYEOF'
import json, re, subprocess, sys
from pathlib import Path

results_dir, out_path = Path(sys.argv[1]), sys.argv[2]

def parse_fig7(text):
    """Tables keyed '(a) <Query> (input ...' with rows '<budget> % v1..v6'."""
    queries, strategies, current = {}, [], None
    for line in text.splitlines():
        m = re.match(r"\([a-z]\)\s+(.+?)\s+\(input", line)
        if m:
            current = m.group(1)
            queries[current] = {}
            continue
        if line.startswith("CPU budget"):
            strategies = line.split()[2:]
            continue
        m = re.match(r"(\d+)\s*%\s+([\d.\s]+)$", line)
        if m and current:
            vals = [float(v) for v in m.group(2).split()]
            queries[current][f"cpu_{m.group(1)}pct"] = dict(
                zip(strategies, vals))
    return queries

def parse_fig12(text):
    """Machine-parseable rows: 'op <Name> record_rps X batch_rps Y speedup Z',
    'pipeline <label> ...', 'wire <what> record_mbps X batch_mbps Y speedup Z',
    'wire bytes_per_record[<suffix>] record X batch Y ratio Z', and
    'wire_compress <section> k1 v1 ...'."""
    data = {"operator_rps": {}, "pipeline_rps": {}, "wire_mbps": {},
            "wire_bytes_per_record": {}, "wire_compress": {}}
    for line in text.splitlines():
        # 'wire_compress <section> k1 v1 k2 v2 ...' (lp_wire_ratio spreads
        # one op per line; merge them into one dict).
        m = re.match(r"wire_compress\s+(\S+)((?:\s+\S+\s+\S+)+)\s*$", line)
        if m:
            kv = m.group(2).split()
            try:
                vals = {kv[i]: float(kv[i + 1])
                        for i in range(0, len(kv) - 1, 2)}
            except ValueError:
                continue  # the section banner, not a data row
            data["wire_compress"].setdefault(m.group(1), {}).update(vals)
            continue
        m = re.match(
            r"(op|pipeline)\s+(\S+)\s+record_rps\s+(\S+)\s+batch_rps\s+(\S+)"
            r"\s+speedup\s+(\S+)", line)
        if m:
            key = "operator_rps" if m.group(1) == "op" else "pipeline_rps"
            data[key][m.group(2)] = {
                "record": float(m.group(3)), "batch": float(m.group(4)),
                "speedup": float(m.group(5))}
            continue
        m = re.match(
            r"wire\s+(serialize\S*|deserialize\S*)\s+record_mbps\s+(\S+)"
            r"\s+batch_mbps\s+(\S+)\s+speedup\s+(\S+)", line)
        if m:
            data["wire_mbps"][m.group(1)] = {
                "record": float(m.group(2)), "batch": float(m.group(3)),
                "speedup": float(m.group(4))}
            continue
        m = re.match(
            r"wire\s+(bytes_per_record\S*)\s+record\s+(\S+)\s+batch\s+(\S+)"
            r"\s+ratio\s+(\S+)", line)
        if m:
            data["wire_bytes_per_record"][m.group(1)] = {
                "record": float(m.group(2)), "batch": float(m.group(3)),
                "ratio": float(m.group(4))}
    return data

def parse_exec(text):
    """Executor sweep: 'exec_hw_threads N' plus per-thread-count rows
    'exec_scaling sources S threads T records_per_sec R speedup X
    elapsed_s E'."""
    data = {"hw_threads": None, "threads": {}}
    for line in text.splitlines():
        m = re.match(r"exec_hw_threads\s+(\d+)", line)
        if m:
            data["hw_threads"] = int(m.group(1))
            continue
        m = re.match(
            r"exec_scaling\s+sources\s+(\d+)\s+threads\s+(\d+)"
            r"\s+records_per_sec\s+(\S+)\s+speedup\s+(\S+)"
            r"\s+elapsed_s\s+(\S+)", line)
        if m:
            data["sources"] = int(m.group(1))
            data["threads"][f"threads_{m.group(2)}"] = {
                "records_per_sec": float(m.group(3)),
                "speedup": float(m.group(4)),
                "elapsed_s": float(m.group(5))}
    return data

def parse_fault_recovery(text):
    """Rows 'fault_recovery <section> k1 v1 k2 v2 ...' with numeric values."""
    data = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) < 4 or parts[0] != "fault_recovery":
            continue
        section, kv = parts[1], parts[2:]
        data[section] = {
            kv[i]: float(kv[i + 1]) for i in range(0, len(kv) - 1, 2)}
    return data

def parse_traffic_dynamics(text):
    """Rows 'traffic_dynamics <section> k1 v1 ...'; repeated 'curve' rows
    accumulate into a list (the fig8-style reconvergence curve)."""
    data = {"curve": []}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) < 4 or parts[0] != "traffic_dynamics":
            continue
        section, kv = parts[1], parts[2:]
        row = {kv[i]: float(kv[i + 1]) for i in range(0, len(kv) - 1, 2)}
        if section == "curve":
            data["curve"].append(row)
        else:
            data[section] = row
    return data

def parse_latency(text):
    """Sections '(n) <label>' with rows '<policy> median max tput'."""
    scenarios, current = {}, None
    for line in text.splitlines():
        m = re.match(r"\(\d+\)\s+(.*)", line)
        if m:
            current = m.group(1).strip()
            scenarios[current] = {}
            continue
        m = re.match(r"(\S+)\s+([\d.]+)\s+([\d.]+)\s+([\d.]+)\s*$", line)
        if m and current:
            scenarios[current][m.group(1)] = {
                "median_latency_s": float(m.group(2)),
                "max_latency_s": float(m.group(3)),
                "throughput_mbps": float(m.group(4)),
            }
    return scenarios

snapshot = {
    "schema_version": 1,
    "label": Path(out_path).stem.replace("BENCH_", ""),
    "compiler": subprocess.run(["c++", "--version"], capture_output=True,
                               text=True).stdout.splitlines()[0],
    "fig7_throughput_mbps": parse_fig7(
        (results_dir / "fig7.txt").read_text()),
    "latency": parse_latency((results_dir / "latency.txt").read_text()),
    "dataplane": parse_fig12((results_dir / "fig12.txt").read_text()),
    "fig10_exec": parse_exec(
        (results_dir / "fig10_exec.txt").read_text()),
    "fault_recovery": parse_fault_recovery(
        (results_dir / "fault_recovery.txt").read_text()),
    "traffic_dynamics": parse_traffic_dynamics(
        (results_dir / "traffic_dynamics.txt").read_text()),
}

overhead = results_dir / "overhead.json"
if overhead.exists():
    try:
        data = json.loads(overhead.read_text())
        snapshot["overhead_us"] = {
            b["name"]: round(b["real_time"] / 1e3, 3)  # ns -> us
            for b in data.get("benchmarks", [])
        }
    except (json.JSONDecodeError, KeyError):
        pass

sanity = snapshot["fig7_throughput_mbps"]
assert sanity and all(sanity.values()), "fig7 parse produced no data"
assert snapshot["latency"], "latency parse produced no data"
dp = snapshot["dataplane"]
assert dp["operator_rps"] and dp["pipeline_rps"] and dp["wire_mbps"], \
    "fig12 parse produced no data"
wc = dp["wire_compress"]
for section in ("numeric", "loganalytics_str", "lp_wire_ratio"):
    assert section in wc, f"fig12 wire_compress section '{section}' missing"
assert wc["loganalytics_str"]["ratio"] <= 0.6, \
    "LZ4 drain wire must shrink the LogAnalytics string drain to <= 0.6x"
assert wc["numeric"]["ratio"] <= 1.0, \
    "store-wins framing can never grow the numeric drain"
assert wc["lp_wire_ratio"] and \
    all(v > 0 for v in wc["lp_wire_ratio"].values()), \
    "fig12 LP wire-ratio rows missing or non-positive"
ex = snapshot["fig10_exec"]
assert ex["hw_threads"] and ex["hw_threads"] >= 1, \
    "fig10 exec sweep missing hw thread count"
for t in ("threads_1", "threads_2", "threads_4"):
    assert t in ex["threads"], f"fig10 exec sweep missing {t}"
assert ex["threads"]["threads_1"]["records_per_sec"] > 0, \
    "fig10 exec sweep produced no throughput"
fr = snapshot["fault_recovery"]
for section in ("config", "baseline", "kill", "dip", "reconverge", "stats",
                "storm", "ckpt_kill", "ckpt_dip", "ckpt_reconverge",
                "ckpt_overhead"):
    assert section in fr, f"fault_recovery section '{section}' missing"
assert fr["baseline"]["rps"] > 0, "fault_recovery baseline produced no rate"
assert fr["stats"]["quarantines"] >= 1 and fr["stats"]["readmissions"] >= 1, \
    "fault_recovery kill/rejoin did not quarantine and readmit"
assert fr["storm"]["retransmits"] >= 1 and \
    fr["storm"]["records_lost"] == 0, \
    "fault_recovery storm must recover every corrupted frame"
assert fr["kill"]["records_sent"] == fr["kill"]["records_delivered"] + \
    fr["kill"]["records_lost"] + fr["kill"]["in_flight"], \
    "fault_recovery kill run violates record conservation"
assert fr["ckpt_kill"]["records_lost"] == 0, \
    "fault_recovery checkpointed kill must lose zero records"
assert fr["ckpt_kill"]["restores"] >= 1, \
    "fault_recovery checkpointed kill did not restore from a checkpoint"
assert fr["ckpt_kill"]["records_sent"] == \
    fr["ckpt_kill"]["records_delivered"] + fr["ckpt_kill"]["in_flight"], \
    "fault_recovery checkpointed kill violates lossless conservation"
assert fr["ckpt_overhead"]["checkpoints"] >= 1 and \
    fr["ckpt_overhead"]["wire_bytes"] > 0, \
    "fault_recovery checkpoint overhead section is empty"
assert "wire_compress" in fr, "fault_recovery wire_compress section missing"
assert fr["wire_compress"]["wire_bytes_lz4"] < \
    fr["wire_compress"]["wire_bytes_plain"] and \
    fr["wire_compress"]["ratio"] < 1.0, \
    "compressed FT wire must be smaller than the plain wire"
assert fr["wire_compress"]["ckpt_bytes_lz4"] > 0, \
    "compressed run must include checkpoint frames"

td = snapshot["traffic_dynamics"]
for section in ("config", "steady", "burst_on", "burst_off", "dip",
                "reconverge", "backlog", "ladder"):
    assert section in td, f"traffic_dynamics section '{section}' missing"
assert len(td["curve"]) == td["config"]["epochs"], \
    "traffic_dynamics curve must cover every epoch"
bo = td["burst_on"]
assert bo["records_sent"] == bo["records_delivered"] + bo["records_shed"] + \
    bo["records_lost"] + bo["in_flight"], \
    "traffic_dynamics burst_on violates widened record conservation"
assert bo["records_shed"] > 0 and td["ladder"]["escalations"] >= 1, \
    "traffic_dynamics controlled burst did not shed or escalate"
assert td["steady"]["records_shed"] == 0, \
    "traffic_dynamics steady baseline must shed nothing"
assert td["reconverge"]["on_epochs"] < \
    td["config"]["epochs"] - td["config"]["burst_epoch"], \
    "traffic_dynamics controlled run never reconverged"
assert td["reconverge"]["on_epochs"] < td["reconverge"]["off_epochs"], \
    "traffic_dynamics control must reconverge faster than no control"
assert td["backlog"]["on_end"] < td["backlog"]["off_end"] and \
    td["backlog"]["off_end"] > 0, \
    "without control the modeled SP backlog must stay wedged"

Path(out_path).write_text(json.dumps(snapshot, indent=2) + "\n")
print(f"\nwrote {out_path}")
PYEOF
