"""The benchmark's metric registry: the one source of ``BENCHMARK.json``.

``BENCHMARK.json`` has a fixed schema, so what it cannot carry — which
end-to-end metric each per-layer metric should move, and on which
workload — is kept here (``MOVES``) and printed in every run record.
Regenerate the manifest with ``python3 steerbench/run.py --write-manifest``.
"""

from __future__ import annotations

import json
from pathlib import Path

COMMAND = ["python3", "steerbench/run.py"]
PATHS = ["steerbench"]
RUN_SECONDS = 20

#: (name, unit, better, bound, meaning).  Every workload reports each one.
#: On a shared 2-core machine, figures that depend on the machine's speed
#: drifted between consecutive runs by up to a quarter of their median:
#: p50 latency (0.22 on tenants-fleet), closed-loop throughput (0.26 on
#: hot-recurring), open-loop CPU per request (0.23 on tenants-fleet, idle
#: BLAS spin in the workers), retrain wall time (0.32 on tenants-fleet) and
#: retrain CPU (0.15-0.20 on tenants-fleet, idle BLAS spin during the fit).
#: Those are per-layer metrics, without a bound.  The bounded CPU figures
#: count the process the requests enter (the gateway's, or the fleet's
#: router) and leave the fleet workers' CPU to per-layer metrics.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25,
     "median of repeated set-ups: project, candidate pools, incumbent training, "
     "lifecycle, target boot (fleet fork) and the warm-up pass"),
    ("parent_cpu_ms_per_req", "ms", "lower", 0.25,
     "CPU of the process requests enter (gateway, serving, or the fleet's router, "
     "plus the load generator) per open-loop request, median over rounds"),
    ("learned_share", "ratio", "higher", 0.01,
     "requests answered by the learned model with a correct answer, over "
     "requests attempted (1 - fail_share)"),
    ("steering_benefit", "ratio", "higher", 0.05,
     "relative oracle-cost saving of the chosen plan over the native default, "
     "averaged per candidate set, then over sets"),
    ("peak_rss_mb", "MB", "lower", 0.15,
     "peak resident memory of the benchmark process plus its fleet workers"),
    ("adapt_requests", "count", "lower", 0.25,
     "requests from drift onset to the first answer of the promoted model, "
     "mean over the run's drift episodes"),
)

#: Per-layer metrics: (name, unit, better, moves, workload).  ``moves`` is
#: the end-to-end metric the layer metric should move; ``workload`` where.
PER_LAYER = (
    # loadgen: the benchmark's own load generator
    ("loadgen.latency_p50_ms", "ms", "lower", "- (open-loop p50 from due time, untraced rounds)", "all"),
    ("loadgen.closed_rps", "1/s", "higher", "- (closed-loop throughput, untraced rounds)", "all"),
    ("loadgen.open_cpu_ms_per_req", "ms", "lower", "parent_cpu_ms_per_req (all processes)", "all"),
    ("loadgen.retrain_s", "s", "lower", "- (drift episode: fit + canary + registry + swap + warm, wall)", "all (drift episodes)"),
    ("loadgen.retrain_cpu_s", "s", "lower", "- (the same, CPU of all processes)", "all (drift episodes)"),
    ("loadgen.open.sent", "count", "higher", "-", "all"),
    ("loadgen.open.learned", "count", "higher", "learned_share", "all"),
    ("loadgen.open.fallback", "count", "lower", "learned_share", "all"),
    ("loadgen.open.errors", "count", "lower", "learned_share", "all"),
    ("loadgen.closed.sent", "count", "higher", "loadgen.closed_rps", "all"),
    ("loadgen.closed.learned", "count", "higher", "learned_share", "all"),
    ("loadgen.closed.fallback", "count", "lower", "learned_share", "all"),
    ("loadgen.closed.errors", "count", "lower", "learned_share", "all"),
    ("loadgen.adapt.sent", "count", "higher", "-", "all"),
    ("loadgen.adapt.learned", "count", "higher", "learned_share", "all"),
    ("loadgen.adapt.fallback", "count", "lower", "learned_share", "all"),
    ("loadgen.adapt.errors", "count", "lower", "learned_share", "all"),
    ("loadgen.late_p99_ms", "ms", "lower", "loadgen.latency_p50_ms (generator health)", "all"),
    ("loadgen.latency_p99_ms", "ms", "lower", "- (tail, too noisy to bound)", "all"),
    ("loadgen.parent_cpu_s", "s", "lower", "parent_cpu_ms_per_req", "tenants-fleet"),
    ("loadgen.trace_overhead_p50", "ratio", "lower", "- (traced / untraced open-loop p50)", "all"),
    ("loadgen.trace_overhead_cpu", "ratio", "lower", "- (traced / untraced CPU per request)", "all"),
    # gateway
    ("gateway.self_us_p50", "us", "lower", "loadgen.latency_p50_ms, parent_cpu_ms_per_req", "hot-recurring"),
    ("gateway.wait_us_p50", "us", "lower", "loadgen.latency_p50_ms", "hot-recurring"),
    ("gateway.requests_per_batch", "ratio", "higher", "loadgen.closed_rps", "cold-cluster-env"),
    ("gateway.fallback_no_model", "count", "lower", "learned_share", "all"),
    ("gateway.fallback_circuit_open", "count", "lower", "learned_share", "all"),
    ("gateway.fallback_pacer_limit", "count", "lower", "learned_share", "all"),
    ("gateway.fallback_shed", "count", "lower", "learned_share", "all"),
    ("gateway.fallback_deadline", "count", "lower", "learned_share", "all"),
    ("gateway.fallback_model_error", "count", "lower", "learned_share", "all"),
    ("gateway.fallback_closed", "count", "lower", "learned_share", "all"),
    # serving (through the benchmark's service proxy, plus stats())
    ("serving.calls", "count", "lower", "parent_cpu_ms_per_req", "cold-cluster-env"),
    ("serving.busy_s", "s", "lower", "parent_cpu_ms_per_req", "cold-cluster-env"),
    ("serving.call_us_p50", "us", "lower", "loadgen.latency_p50_ms", "cold-cluster-env"),
    ("serving.prediction_hit_rate", "ratio", "higher", "loadgen.latency_p50_ms", "hot-recurring, cold-cluster-env"),
    ("serving.encode_hit_rate", "ratio", "higher", "loadgen.latency_p50_ms, parent_cpu_ms_per_req", "cold-cluster-env"),
    ("serving.encode_s", "s", "lower", "parent_cpu_ms_per_req", "cold-cluster-env"),
    ("serving.forward_s", "s", "lower", "parent_cpu_ms_per_req", "cold-cluster-env"),
    ("serving.plans_per_call", "count", "higher", "loadgen.closed_rps", "cold-cluster-env"),
    ("serving.parallel_encode_batches", "count", "lower", "loadgen.retrain_s", "all (drift episodes)"),
    ("serving.warmed_plans", "count", "higher", "loadgen.retrain_s", "all (drift episodes)"),
    ("encoding.encode_plan_calls", "count", "lower", "parent_cpu_ms_per_req", "cold-cluster-env"),
    ("encoding.encode_plan_us_p50", "us", "lower", "loadgen.latency_p50_ms", "cold-cluster-env"),
    # fleet
    ("fleet.call_us_p50", "us", "lower", "loadgen.latency_p50_ms", "tenants-fleet"),
    ("fleet.worker_us_p50", "us", "lower", "loadgen.latency_p50_ms", "tenants-fleet"),
    ("fleet.transport_us_p50", "us", "lower", "loadgen.latency_p50_ms, parent_cpu_ms_per_req", "tenants-fleet"),
    ("fleet.ping_us_p50", "us", "lower", "loadgen.latency_p50_ms", "tenants-fleet"),
    ("fleet.plan_sends", "count", "lower", "parent_cpu_ms_per_req", "tenants-fleet"),
    ("fleet.shard_share_max", "ratio", "lower", "loadgen.closed_rps", "tenants-fleet"),
    ("fleet.prediction_hit_rate", "ratio", "higher", "loadgen.latency_p50_ms", "tenants-fleet"),
    ("fleet.worker_failures", "count", "lower", "learned_share", "tenants-fleet"),
    ("fleet.worker_cpu_s", "s", "lower", "parent_cpu_ms_per_req", "tenants-fleet"),
    # pacing
    ("pacing.sheds", "count", "lower", "learned_share", "tenants-fleet"),
    ("pacing.state_entries", "count", "lower", "loadgen.latency_p50_ms", "tenants-fleet"),
    ("pacing.inflight_cap", "count", "higher", "loadgen.latency_p50_ms", "tenants-fleet"),
    ("pacing.btl_rate", "1/s", "higher", "loadgen.latency_p50_ms", "tenants-fleet"),
    ("pacing.min_latency_ms", "ms", "lower", "loadgen.latency_p50_ms", "tenants-fleet"),
    # lifecycle and predictor
    ("lifecycle.observe_us_p50", "us", "lower", "- (adaptation loop cost)", "all (drift episodes)"),
    ("lifecycle.check_drift_us_p50", "us", "lower", "- (adaptation loop cost)", "all (drift episodes)"),
    ("lifecycle.submit_s", "s", "lower", "loadgen.retrain_s", "all (drift episodes)"),
    ("lifecycle.canary_rejects", "count", "lower", "adapt_requests", "all (drift episodes)"),
    ("predictor.fit_s", "s", "lower", "loadgen.retrain_s", "all (drift episodes)"),
)

MOVES = {name: {"moves": moves, "workload": where} for name, _, _, moves, where in PER_LAYER}


def manifest(workloads) -> dict:
    """The ``BENCHMARK.json`` document for ``workloads`` (name, why pairs)."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in workloads],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound, _ in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b, _, _ in PER_LAYER
        ],
    }


def write_manifest(path: Path, workloads) -> None:
    path.write_text(json.dumps(manifest(workloads), indent=2) + "\n", encoding="utf-8")
