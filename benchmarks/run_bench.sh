#!/usr/bin/env bash
# Tier-1 gate + serving- and training-throughput benchmarks, sized for CI.
#
# Runs the full unit/integration suite at REPRO_SCALE=smoke (it holds every
# guardrail check of the gateway, fleet, pacer, scenario engine and
# tracing: tests/test_<subsystem>.py), then the
# serving-layer throughput benchmark (BENCH_serving.json: plans/sec,
# p50/p99 latency, cold/quantized-cold/warm speedups, post-swap cache
# warming, quantization gate, cache stats), the training-loop
# throughput benchmark (BENCH_training.json: fit seconds, epoch seconds,
# steps/sec, fast-vs-reference speedup), the gateway front-end benchmark
# (BENCH_gateway.json: concurrent throughput, p50/p99 request latency,
# chaos-phase fallback rate and breaker trips, overload shed rate), the
# sharded fleet benchmark (BENCH_fleet.json: multi-process throughput vs
# the single-gateway baseline, per-shard latency/hit rates, staged
# promote convergence, worker-crash containment), the admission-pacing
# benchmark (BENCH_pacer.json: BBR-paced gateway vs bufferbloat baseline
# under 3x open-loop overload — p99 vs queue-free latency, goodput vs the
# unpaced peak, shed rates, post-swap STARTUP re-probe), the
# scenario-matrix benchmark (BENCH_scenarios.json: trace-style workloads
# with regime injection replayed against the paced gateway and sharded
# fleet — per-regime p99/shed/learned rates, drift retrain+promote
# through the lifecycle, fixed-seed digest determinism), the
# observability benchmark sections (BENCH_obs.json: gateway tracing
# overhead off vs sampled-on, flight-recorder dump on breaker trip,
# cross-process fleet span-tree stitching), and the fig11
# adaptive-training scenario routed through the model lifecycle
# subsystem (registry + feedback + drift + canary), so successive PRs can
# track all eight trajectories.  At the end,
# check_bench_regressions.py compares every fresh artifact against the
# committed baselines (snapshotted before the benches overwrite them) and
# writes BENCH_verdict.json.
#
# Usage:
#   benchmarks/run_bench.sh                  # artifacts -> benchmarks/BENCH_*.json
#   BENCH_SERVING_OUT=/tmp/b.json benchmarks/run_bench.sh
#   REPRO_SCALE=small benchmarks/run_bench.sh  # bigger workload, same gates

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
export REPRO_SCALE="${REPRO_SCALE:-smoke}"
export PYTHONPATH="${REPO_ROOT}/src${PYTHONPATH:+:${PYTHONPATH}}"
export BENCH_SERVING_OUT="${BENCH_SERVING_OUT:-${REPO_ROOT}/benchmarks/BENCH_serving.json}"
export BENCH_TRAINING_OUT="${BENCH_TRAINING_OUT:-${REPO_ROOT}/benchmarks/BENCH_training.json}"
export BENCH_GATEWAY_OUT="${BENCH_GATEWAY_OUT:-${REPO_ROOT}/benchmarks/BENCH_gateway.json}"
export BENCH_FLEET_OUT="${BENCH_FLEET_OUT:-${REPO_ROOT}/benchmarks/BENCH_fleet.json}"
export BENCH_PACER_OUT="${BENCH_PACER_OUT:-${REPO_ROOT}/benchmarks/BENCH_pacer.json}"
export BENCH_SCENARIOS_OUT="${BENCH_SCENARIOS_OUT:-${REPO_ROOT}/benchmarks/BENCH_scenarios.json}"
export BENCH_OBS_OUT="${BENCH_OBS_OUT:-${REPO_ROOT}/benchmarks/BENCH_obs.json}"

# The benches overwrite the committed BENCH_*.json in place, so snapshot
# them first: check_bench_regressions.py compares fresh vs this snapshot
# at the end of the run.
BENCH_BASELINE_DIR="$(mktemp -d -t bench-baselines-XXXXXX)"
cp "${REPO_ROOT}"/benchmarks/BENCH_*.json "${BENCH_BASELINE_DIR}/" 2>/dev/null || true

echo "== tier-1 tests (REPRO_SCALE=${REPRO_SCALE}) =="
python -m pytest "${REPO_ROOT}/tests" -x -q

echo
echo "== serving throughput benchmark =="
(cd "${REPO_ROOT}/benchmarks" && python -m pytest bench_serving_throughput.py -q -s)

echo
echo "== training throughput benchmark =="
(cd "${REPO_ROOT}/benchmarks" && python -m pytest bench_training_throughput.py -q -s)

echo
echo "== gateway front-end benchmark =="
(cd "${REPO_ROOT}/benchmarks" && python -m pytest bench_gateway_throughput.py -q -s)

echo
echo "== fleet throughput benchmark =="
(cd "${REPO_ROOT}/benchmarks" && python -m pytest bench_fleet_throughput.py -q -s)

echo
echo "== admission pacing benchmark (BBR pacer vs bufferbloat under overload) =="
(cd "${REPO_ROOT}/benchmarks" && python -m pytest bench_pacer_overload.py -q -s)

echo
echo "== scenario-matrix benchmark (regimes x gateway/fleet serving configs) =="
(cd "${REPO_ROOT}/benchmarks" && python -m pytest bench_scenario_matrix.py -q -s)

echo
echo "== fig11 adaptive training through the model lifecycle =="
(cd "${REPO_ROOT}/benchmarks" && python -m pytest bench_fig11_adaptive_training.py -q -s)

echo
echo "== bench regression check (fresh vs committed baselines) =="
python "${REPO_ROOT}/benchmarks/check_bench_regressions.py" \
  --baseline-dir "${BENCH_BASELINE_DIR}" \
  --fresh-dir "${REPO_ROOT}/benchmarks" \
  --out "${REPO_ROOT}/benchmarks/BENCH_verdict.json"

echo
echo "== artifacts =="
echo "${BENCH_SERVING_OUT}"
python - "${BENCH_SERVING_OUT}" <<'EOF'
import json, sys
with open(sys.argv[1]) as fh:
    artifact = json.load(fh)
quant = artifact["quantize"]
swap = artifact["warm_after_swap"]
print(
    f"warm {artifact['warm']['plans_per_sec']:,.0f} plans/s "
    f"({artifact['warm_speedup']:.1f}x), "
    f"cold {artifact['cold']['plans_per_sec']:,.0f} plans/s "
    f"({artifact['cold_speedup']:.1f}x), "
    f"cold quantized {artifact['cold_quantized']['plans_per_sec']:,.0f} plans/s "
    f"({artifact['cold_quantized_speedup']:.1f}x, {quant['mode']} "
    f"active={quant['active']} gate {quant['gate_rel_err']:.1e}), "
    f"naive {artifact['naive']['plans_per_sec']:,.0f} plans/s; "
    f"post-swap {swap['warmed_plans']} plans warmed, first pass "
    f"{swap['prediction_hits']} hits / {swap['prediction_misses']} misses"
)
EOF
echo "${BENCH_TRAINING_OUT}"
python - "${BENCH_TRAINING_OUT}" <<'EOF'
import json, sys
with open(sys.argv[1]) as fh:
    artifact = json.load(fh)
print(
    f"fast fit {artifact['fast']['fit_seconds']:.2f} s "
    f"({artifact['fast']['steps_per_second']:.1f} steps/s), "
    f"reference {artifact['reference']['fit_seconds']:.2f} s, "
    f"speedup {artifact['speedup']:.2f}x, "
    f"trajectory max rel err {artifact['loss_trajectory_max_rel_err']:.1e}"
)
EOF
echo "${BENCH_GATEWAY_OUT}"
python - "${BENCH_GATEWAY_OUT}" <<'EOF'
import json, sys
with open(sys.argv[1]) as fh:
    artifact = json.load(fh)
best = max(artifact["gateway"], key=lambda m: m["plans_per_sec"])
print(
    f"gateway x{best['threads']} {best['plans_per_sec']:,.0f} plans/s "
    f"(p99 {best['p99_ms']:.2f} ms, {artifact['gateway_vs_direct']:.2f}x direct), "
    f"chaos fallback {artifact['chaos']['fallback_rate']:.0%} with "
    f"{artifact['chaos']['breaker_trips']:.0f} breaker trip(s), "
    f"shed {artifact['shed']['shed']:.0f}/{artifact['shed']['requests']}"
)
EOF
echo "${BENCH_PACER_OUT}"
python - "${BENCH_PACER_OUT}" <<'EOF'
import json, sys
with open(sys.argv[1]) as fh:
    artifact = json.load(fh)
paced = artifact["paced"]
bloat = artifact["bufferbloat"]
print(
    f"paced p99 {paced['learned_p99_ms']:.1f} ms "
    f"({artifact['paced_p99_vs_queue_free']:.2f}x queue-free "
    f"{artifact['queue_free_ms']:.1f} ms), goodput "
    f"{paced['goodput_per_sec']:,.1f}/s "
    f"({artifact['paced_goodput_vs_peak']:.2f}x unpaced peak), shed "
    f"{paced['shed_rate']:.0%} pacer-limit vs bufferbloat "
    f"{bloat['shed_rate']:.0%} deadline-churn; post-swap pacer "
    f"{artifact['post_promote']['state_after_swap']}"
)
EOF
echo "${BENCH_FLEET_OUT}"
python - "${BENCH_FLEET_OUT}" <<'EOF'
import json, sys
with open(sys.argv[1]) as fh:
    artifact = json.load(fh)
print(
    f"fleet x{artifact['n_workers']} {artifact['fleet']['plans_per_sec']:,.0f} plans/s "
    f"({artifact['fleet_vs_baseline']:.2f}x baseline, floor "
    f"{artifact['speedup_floor']:.2f}x on {artifact['cpu_count']} core(s)), "
    f"pred hits fleet {artifact['fleet']['prediction_hit_rate']:.1%} vs "
    f"baseline {artifact['baseline']['prediction_hit_rate']:.1%}; promote "
    f"converged {artifact['promote']['workers']} workers with "
    f"{artifact['promote']['post_promote_cold_misses']:.0f} cold misses; chaos "
    f"{artifact['chaos']['workers_alive']}/{artifact['n_workers']} serving after crash"
)
EOF
echo "${BENCH_SCENARIOS_OUT}"
python - "${BENCH_SCENARIOS_OUT}" <<'EOF'
import json, sys
with open(sys.argv[1]) as fh:
    artifact = json.load(fh)
by_key = {(row["scenario"], row["target"]): row for row in artifact["rows"]}
drift = by_key[("drift", "gateway")]
parts = [
    f"{len(artifact['rows'])} scenario rows, gateway queue-free "
    f"{artifact['gateway_calibration']['queue_free_ms']:.1f} ms, drift "
    f"{drift['retrains']}/{drift['promotes']} retrain/promote, digests "
    f"stable: {artifact['determinism']['outcome_digest_equal']}",
]
bursty_fleet = by_key.get(("bursty-skewed", "fleet"))
steady_fleet = by_key.get(("steady", "fleet"))
if bursty_fleet and steady_fleet:
    parts.append(
        f"fleet bursty p99 {bursty_fleet['worst_p99_ms']:.1f} ms vs steady "
        f"{steady_fleet['worst_p99_ms']:.1f} ms, sheds "
        f"{bursty_fleet['shed_pacer_limit']} pacer-limit / "
        f"{bursty_fleet['shed_deadline']} deadline"
    )
print("; ".join(parts))
EOF
echo "${BENCH_OBS_OUT}"
python - "${BENCH_OBS_OUT}" <<'EOF'
import json, sys
with open(sys.argv[1]) as fh:
    artifact = json.load(fh)
gw = artifact["gateway_tracing"]
fl = artifact["fleet_tracing"]
print(
    f"gateway tracing ratio {gw['throughput_ratio']:.3f} "
    f"(gate {gw['gate']}, {gw['spans_sampled']} spans at "
    f"1/{round(1/gw['sample_rate'])} sampling), "
    f"{gw['flight_dumps']} flight dump(s) on {gw['breaker_trips']:.0f} "
    f"breaker trip(s); fleet {fl['trees_complete']}/{fl['n_requests']} "
    f"complete span trees, {fl['trees_cross_process']} cross-process "
    f"over {fl['n_workers']} workers"
)
EOF
