"""One benchmark run: set-up, seeded inputs, measured rounds, correctness
check, and the end-to-end (untraced) or per-layer (traced) metrics.

A run is ``ROUNDS`` rounds, each an open-loop block, a closed-loop block
and one drift episode.  Every timed end-to-end metric is the median over
rounds: this machine's speed drifts for tens of seconds at a time, and a
median over blocks spread across the run rejects a slow spell that a
single long block would average in.
"""

from __future__ import annotations

import gc
import os
import statistics
import threading
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import spec
import sysinfo
from loadgen import (
    Tally,
    closed_loop,
    open_loop,
    poisson_offsets,
    quantile,
    stream_digest,
    tail_percentile,
)
from probes import SpanRecorder, attach_children, self_time
from workloads import episode_inputs, run_episode, steering_benefit, verify, workload_named

ROUNDS = 4
#: Shares of ``--seconds`` spent in open-loop and closed-loop blocks (the
#: drift episodes are counted in requests, not seconds).
OPEN_SHARE = 0.6
CLOSED_SHARE = 0.25
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Open-loop sender threads.  One sender never has two requests in
#: flight, so a per-shard pacer in PROBE_RTT (cap 1) cannot shed them;
#: the closed loop runs ``nproc`` callers.
OPEN_SENDERS = 1
#: Back-off for a closed-loop caller shed without a ``retry_after`` hint.
RETRY_FLOOR_S = 0.0005


def _rng(seed: int, workload: str, tag: str) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([seed, zlib.crc32(workload.encode()), zlib.crc32(tag.encode())])
    )


@dataclass
class RoundInputs:
    open_reqs: list
    offsets: np.ndarray
    closed_reqs: list
    adapt: object


@dataclass
class Inputs:
    """Everything a run sends, generated from the seed before measuring."""

    warm: list
    rounds: list[RoundInputs]
    digest: str

    @property
    def count(self) -> int:
        return sum(
            len(r.open_reqs) + len(r.closed_reqs) + len(r.adapt.requests) for r in self.rounds
        )


def make_inputs(workload, seed: int, seconds: float) -> Inputs:
    """The run's request streams (``workload.prepare`` must have run) and
    their digest: the same seed gives the same streams and digest."""

    def rng(tag):
        return _rng(seed, workload.name, tag)

    warm = workload.requests(rng("warm"), workload.warm_requests, start=-workload.warm_requests)
    parts: list = [warm]
    rounds = []
    index = 0
    n_open = max(1, int(workload.open_rps * OPEN_SHARE * seconds / ROUNDS))
    n_closed = max(1, int(workload.closed_cap_rps * CLOSED_SHARE * seconds / ROUNDS))
    for r in range(ROUNDS):
        open_reqs = workload.requests(rng(f"open{r}"), n_open, start=index)
        offsets = poisson_offsets(rng(f"arrivals{r}"), workload.open_rps, n_open)
        index += n_open
        closed_reqs = workload.requests(rng(f"closed{r}"), n_closed, start=index)
        index += n_closed
        adapt = episode_inputs(workload, rng(f"adapt{r}"), start=index)
        index += len(adapt.requests)
        rounds.append(RoundInputs(open_reqs, offsets, closed_reqs, adapt))
        parts += [open_reqs, list(offsets), closed_reqs, adapt.requests,
                  list(adapt.factors), list(adapt.noises)]
    digest = stream_digest([workload.name, seed, *(x for part in parts for x in part)])
    return Inputs(warm, rounds, digest)


@dataclass
class Phase:
    """One measured block's outcomes and resource use."""

    name: str
    requests: list
    outcomes: list
    wall_s: float
    cpu_parent: float
    cpu_children: float
    traced: bool = False
    spans: list = field(default_factory=list)
    stats_before: dict | None = None
    stats_after: dict | None = None
    tally: Tally = field(default_factory=Tally)

    @property
    def cpu_s(self) -> float:
        return self.cpu_parent + self.cpu_children

    def answered(self):
        return [(self.requests[k], o) for k, o in enumerate(self.outcomes) if o.error is None]

    def p50(self) -> float:
        return quantile([o.latency for o in self.outcomes], 0.5)

    def cpu_per_request(self) -> float:
        return self.cpu_s / max(1, len(self.outcomes))

    def rate(self) -> float:
        return len(self.outcomes) / self.wall_s


def _measure(name, requests, recorder, target_stats, body) -> Phase:
    """Run ``body()`` (returning outcomes, or outcomes and wall time) and
    account CPU across the benchmark process and its workers."""
    traced = recorder is not None and recorder.enabled
    mark = len(recorder.spans) if recorder is not None else 0
    before = target_stats() if traced else None
    pids = sysinfo.child_pids()
    gc.collect()
    p0, c0 = sysinfo.cpu_seconds(pids)
    t0 = time.perf_counter()
    out = body()
    wall = time.perf_counter() - t0
    p1, c1 = sysinfo.cpu_seconds(pids)
    outcomes, wall = out if isinstance(out, tuple) else (out, wall)
    phase = Phase(name, requests, outcomes, wall, p1 - p0, c1 - c0, traced)
    if traced:
        phase.spans = recorder.spans[mark:]
        phase.stats_before, phase.stats_after = before, target_stats()
    return phase


def _retrying(send):
    """Closed-loop callers are clients waiting for an answer: a
    ``pacer-limit`` shed is back-pressure, so they wait out its
    ``retry_after`` and send again.  Returns the wrapped send and the list
    the retries are counted in."""
    retries: list[int] = []
    lock = threading.Lock()

    def fire(req):
        while True:
            result = send(req)
            if result.source != "fallback" or result.reason != "pacer-limit":
                return result
            with lock:
                retries.append(1)
            time.sleep(max(result.retry_after or 0.0, RETRY_FLOOR_S))

    return fire, retries


@dataclass
class Round:
    open: Phase
    closed: Phase
    adapt: Phase
    episode: object  # workloads.Episode


def run(workload_name: str, *, seed: int, seconds: float, trace: bool, work: Path,
        spans_dir: Path, import_s: float) -> dict:
    nproc = os.cpu_count() or 1
    workload = workload_named(workload_name, workers=nproc)
    recorder = SpanRecorder() if trace else None
    if recorder is not None:
        recorder.enabled = False

    # -- set-up, repeated ------------------------------------------------------
    stacks, setup_times = [], []
    inputs = None
    for r in range(1 if trace else SETUPS):
        if stacks:
            stacks[-1].close()
        t0 = time.perf_counter()
        stack = workload.build(work / f"setup{r}", recorder)
        built = time.perf_counter() - t0
        if inputs is None:
            workload.prepare(_rng(seed, workload.name, "inputs"), stack)
            inputs = make_inputs(workload, seed, seconds)
            print(f"stream {workload.name} seed={seed} requests={inputs.count} "
                  f"digest={inputs.digest}", flush=True)
        t0 = time.perf_counter()
        for req in inputs.warm:
            stack.send(req)
        setup_times.append(built + time.perf_counter() - t0)
        stacks.append(stack)
    stack = stacks[-1]

    # -- measured rounds -------------------------------------------------------
    stats_fn = _target_stats(stack)
    fire, retries = _retrying(stack.send)
    rounds: list[Round] = []
    for r, rnd in enumerate(inputs.rounds):
        # A traced run alternates untraced and traced rounds; the
        # untraced ones are the baseline of the tracing overhead.
        if recorder is not None:
            recorder.enabled = r % 2 == 1
        opened = _measure(
            "open", rnd.open_reqs, recorder, stats_fn,
            lambda: open_loop(stack.send, rnd.open_reqs, rnd.offsets, threads=OPEN_SENDERS),
        )
        closed = _measure(
            "closed", rnd.closed_reqs, recorder, stats_fn,
            lambda: closed_loop(fire, rnd.closed_reqs, callers=nproc,
                                seconds=CLOSED_SHARE * seconds / ROUNDS),
        )
        box = {}

        def episode(rnd=rnd, r=r):
            box["run"] = run_episode(
                workload, stack, rnd.adapt, f"round{r}",
                recorder if recorder is not None and recorder.enabled else None,
            )
            return box["run"].outcomes, box["run"].wall_s

        adapt = _measure("adapt", rnd.adapt.requests, recorder, stats_fn, episode)
        adapt.cpu_parent, adapt.cpu_children = box["run"].cpu_parent, box["run"].cpu_children
        rounds.append(Round(opened, closed, adapt, box["run"]))
        # Each round starts from the incumbent with warm caches.
        workload.restore(stack)
        for req in inputs.warm:
            stack.send(req)
    if recorder is not None:
        recorder.enabled = False
    # Determinism: the first episode again, on the same stack, must make
    # the same decisions.
    replay = run_episode(workload, stack, inputs.rounds[0].adapt, "replay")
    ping_us = _ping(stack) if trace and stack.fleet is not None else []
    rss_mb = sysinfo.peak_rss_mb()
    final_stats = stats_fn()

    # -- correctness -----------------------------------------------------------
    reference = stack.lifecycle.predictor
    verdicts = {}
    problems = []
    tally = Tally()
    for kind in ("open", "closed", "adapt"):
        phases = [getattr(rd, kind) for rd in rounds]
        if kind == "adapt":
            items = [item for rd in rounds for item in rd.episode.answers]
        else:
            items = [(q, o.result, reference) for p in phases for q, o in p.answered() if o.learned]
        verdict = verify(stack, items, rng=_rng(seed, workload.name, f"verify-{kind}"))
        verdicts[kind] = verdict.__dict__
        wrong = verdict.wrong + verdict.baseline_wrong
        if wrong:
            problems.append(f"{wrong} {kind} answers failed the rtol 1e-5 re-score")
        for phase in phases:
            phase.tally = Tally().extend(phase.outcomes)
            tally = tally.merge(phase.tally)
        tally.wrong += verdict.wrong
    episodes = [rd.episode for rd in rounds]
    if any(ep.promoted_at is None for ep in episodes):
        problems.append("a drift episode never served a promoted model")
    if replay.digest != rounds[0].episode.digest:
        problems.append("replaying the first episode changed its outcome digest")

    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "stream_digest": inputs.digest,
        "outcome_digest": rounds[0].episode.digest,
        "replay_digest": replay.digest,
        "machine": sysinfo.machine_record(),
        "open_senders": OPEN_SENDERS,
        "closed_callers": nproc,
        "open_rps": workload.open_rps,
        "import_s": import_s,
        "setup_times_s": setup_times,
        "rounds": [
            {
                kind: {"wall_s": p.wall_s, "cpu_s": p.cpu_s, "cpu_parent_s": p.cpu_parent,
                       "p50_ms": 1e3 * p.p50(), "traced": p.traced, **p.tally.as_dict()}
                for kind, p in (("open", rd.open), ("closed", rd.closed), ("adapt", rd.adapt))
            }
            for rd in rounds
        ],
        "closed_loop_pacer_retries": len(retries),
        "episodes": [ep.summary() for ep in episodes],
        "verify": verdicts,
        "problems": problems,
    }
    # Unbounded figures (see spec.END_TO_END), for reading the run.
    record["latency_p50_ms"] = 1e3 * statistics.median(rd.open.p50() for rd in rounds)
    record["closed_rps"] = statistics.median(rd.closed.rate() for rd in rounds)
    record["open_cpu_ms_per_req"] = 1e3 * statistics.median(
        rd.open.cpu_per_request() for rd in rounds
    )
    record["retrain_s"] = statistics.median(ep.retrain_s for ep in episodes)
    record["retrain_cpu_s"] = statistics.median(ep.retrain_cpu_s for ep in episodes)
    record["parent_retrain_cpu_s"] = statistics.median(ep.parent_retrain_cpu_s for ep in episodes)
    opens = [o for rd in rounds for o in rd.open.outcomes]
    late = [o.late for o in opens]
    record["generator_late_ms"] = {"p50": 1e3 * quantile(late, 0.5), **_tail(late)}
    record["latency_tail_ms"] = _tail([o.latency for o in opens])

    if trace:
        metrics = _layer_metrics(stack, rounds, ping_us, final_stats)
        record["per_layer_moves"] = spec.MOVES
        spans_dir.mkdir(parents=True, exist_ok=True)
        path = spans_dir / f"{workload.name}-seed{seed}.jsonl"
        record["spans_file"] = str(path)
        record["spans"] = recorder.write_jsonl(path)
    else:
        metrics = _end_to_end(stack, rounds, episodes, tally, setup_times, rss_mb)
    stack.close()
    units = {n: u for n, u, *_ in spec.END_TO_END} | {n: u for n, u, *_ in spec.PER_LAYER}
    return {
        "correct": not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
        "record": record,
    }


def _tail(values) -> dict:
    tail = tail_percentile(values)
    if tail is None:
        return {}
    p, v = tail
    return {f"p{p:g}": 1e3 * v, "samples": len(values)}


def _ping(stack, rounds: int = 200) -> list[float]:
    """Raw pipe round trip per worker, via ``ServingFleet.ping``."""
    out = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        answered = stack.fleet.ping()
        out.append((time.perf_counter() - t0) / max(1, len(answered)))
    return out


def _target_stats(stack):
    if stack.fleet is not None:
        return stack.fleet.stats
    service = stack.lifecycle.service
    gateway = stack.gateway

    def snapshot():
        return {"gateway": gateway.stats(), "serving": service.stats().as_dict()}

    return snapshot


# -- metrics ---------------------------------------------------------------------


def _end_to_end(stack, rounds, episodes, tally, setup_times, rss_mb) -> dict:
    answers = [
        (q, o.result)
        for rd in rounds
        for p in (rd.open, rd.closed)
        for q, o in p.answered()
    ]
    return {
        "setup_s": statistics.median(setup_times),
        "parent_cpu_ms_per_req": 1e3 * statistics.median(
            rd.open.cpu_parent / len(rd.open.outcomes) for rd in rounds
        ),
        "learned_share": (tally.learned - tally.wrong) / max(1, tally.attempted),
        "steering_benefit": steering_benefit(stack, answers),
        "peak_rss_mb": rss_mb,
        "adapt_requests": float(np.mean([ep.adapt_requests or np.nan for ep in episodes])),
    }


def _us_p50(values) -> float:
    return 1e6 * quantile(values, 0.5) if len(values) else 0.0


def _durations(spans, name) -> list[float]:
    return [s["end"] - s["start"] for s in spans if s["name"] == name]


def _delta(phases, section, key: str, stat: str) -> float:
    """Sum over ``phases`` of the change of ``stats[stat][section][key]``
    (``stat`` selects the snapshot part, e.g. ``"serving"``)."""
    total = 0.0
    for p in phases:
        before, after = p.stats_before[stat], p.stats_after[stat]
        if section is not None:
            before, after = before.get(section, {}), after.get(section, {})
        total += after.get(key, 0.0) - before.get(key, 0.0)
    return total


def _share(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


FALLBACK_REASONS = ("no_model", "circuit_open", "pacer_limit", "shed", "deadline",
                    "model_error", "closed")


def _layer_metrics(stack, rounds, ping_us, final_stats) -> dict:
    m = {name: 0.0 for name, *_ in spec.PER_LAYER}
    traced = [rd for rd in rounds if rd.open.traced]
    untraced = [rd for rd in rounds if not rd.open.traced]
    opens = [rd.open for rd in traced]
    serving = [p for rd in traced for p in (rd.open, rd.closed)]
    adapts = [rd.adapt for rd in traced]
    for kind in ("open", "closed", "adapt"):
        for rd in traced:
            t = getattr(rd, kind).tally
            m[f"loadgen.{kind}.sent"] += t.attempted
            m[f"loadgen.{kind}.learned"] += t.learned
            m[f"loadgen.{kind}.fallback"] += t.fallback
            m[f"loadgen.{kind}.errors"] += t.errors
    m["loadgen.latency_p50_ms"] = 1e3 * statistics.median(rd.open.p50() for rd in untraced)
    m["loadgen.closed_rps"] = statistics.median(rd.closed.rate() for rd in untraced)
    m["loadgen.open_cpu_ms_per_req"] = 1e3 * statistics.median(
        rd.open.cpu_per_request() for rd in untraced
    )
    m["loadgen.retrain_s"] = statistics.median(rd.episode.retrain_s for rd in rounds)
    m["loadgen.retrain_cpu_s"] = statistics.median(rd.episode.retrain_cpu_s for rd in rounds)
    outcomes = [o for p in opens for o in p.outcomes]
    m["loadgen.late_p99_ms"] = 1e3 * quantile([o.late for o in outcomes], 0.99)
    m["loadgen.latency_p99_ms"] = 1e3 * quantile([o.latency for o in outcomes], 0.99)
    m["loadgen.parent_cpu_s"] = sum(p.cpu_parent for p in opens)
    m["loadgen.trace_overhead_p50"] = statistics.median(p.p50() for p in opens) / statistics.median(
        rd.open.p50() for rd in untraced
    )
    m["loadgen.trace_overhead_cpu"] = statistics.median(
        p.cpu_per_request() for p in opens
    ) / statistics.median(rd.open.cpu_per_request() for rd in untraced)
    if stack.fleet is None:
        _gateway_layers(m, opens, serving, final_stats)
    else:
        _fleet_layers(m, opens, serving, ping_us, final_stats)

    spans = [s for p in adapts for s in p.spans]
    m["lifecycle.observe_us_p50"] = _us_p50(_durations(spans, "lifecycle.observe"))
    m["lifecycle.check_drift_us_p50"] = _us_p50(_durations(spans, "lifecycle.check_drift"))
    submits = _durations(spans, "lifecycle.submit_candidate")
    fits = _durations(spans, "predictor.fit")
    m["lifecycle.submit_s"] = statistics.median(submits) if submits else 0.0
    m["predictor.fit_s"] = statistics.median(fits) if fits else 0.0
    m["lifecycle.canary_rejects"] = sum(
        rd.episode.retrains - (rd.episode.promoted_at is not None) for rd in traced
    )
    # The post-promote warm pass, in the episode lifecycles' own services
    # and, on the fleet, in the workers.
    for name in ("parallel_encode_batches", "warmed_plans"):
        m[f"serving.{name}"] = sum(rd.episode.service_stats[name] for rd in traced)
        if stack.fleet is not None:
            m[f"serving.{name}"] += _delta(adapts, "gauges", f"serving_{name}", "merged")
    return m


def _gateway_layers(m, opens, serving, final_stats) -> None:
    # Self and wait time: each learned gateway.predict span against the
    # service call(s) that served it.
    spans = [s for p in opens for s in p.spans]
    gw = [s for s in spans if s["name"] == "gateway.predict" and s.get("source") == "learned"]
    children = attach_children(gw, [s for s in spans if s["name"] == "serving.predict"])
    served = [s for s in gw if children[s["id"]]]
    for span in served:
        for child in children[span["id"]]:
            child["parent"] = child["parent"] or span["id"]
    m["gateway.self_us_p50"] = _us_p50([self_time(s, children[s["id"]]) for s in served])
    m["gateway.wait_us_p50"] = _us_p50([children[s["id"]][0]["start"] - s["start"] for s in served])
    batches = _delta(serving, "counters", "batches_total", "gateway")
    learned = _delta(serving, "counters", "learned_total", "gateway")
    m["gateway.requests_per_batch"] = learned / batches if batches else 0.0
    for reason in FALLBACK_REASONS:
        m[f"gateway.fallback_{reason}"] = final_stats["gateway"]["counters"].get(
            f"fallback_{reason}_total", 0.0
        )
    all_spans = [s for p in serving for s in p.spans]
    calls = _durations(all_spans, "serving.predict")
    m["serving.calls"] = len(calls)
    m["serving.busy_s"] = float(sum(calls))
    m["serving.call_us_p50"] = _us_p50(calls)
    m["serving.prediction_hit_rate"] = _share(
        _delta(serving, None, "prediction_hits", "serving"),
        _delta(serving, None, "prediction_misses", "serving"),
    )
    m["serving.encode_hit_rate"] = _share(
        _delta(serving, None, "encode_hits", "serving"),
        _delta(serving, None, "encode_misses", "serving"),
    )
    m["serving.encode_s"] = _delta(serving, None, "encode_seconds", "serving")
    m["serving.forward_s"] = _delta(serving, None, "forward_seconds", "serving")
    requests = _delta(serving, None, "requests", "serving")
    plans = _delta(serving, None, "plans_scored", "serving")
    m["serving.plans_per_call"] = plans / requests if requests else 0.0
    encodes = _durations(all_spans, "encoding.encode_plan")
    m["encoding.encode_plan_calls"] = len(encodes)
    m["encoding.encode_plan_us_p50"] = _us_p50(encodes)


def _fleet_layers(m, opens, serving, ping_us, final_stats) -> None:
    calls = [s for p in opens for s in p.spans if s["name"] == "fleet.predict"]
    call_us = _us_p50([s["end"] - s["start"] for s in calls])
    # Worker-side request latency: each worker gateway's recent-request
    # reservoir, read right after the last traced open-loop block.
    worker = opens[-1].stats_after["merged"]["histograms"].get("request_latency_seconds", {})
    worker_us = 1e6 * worker.get("p50", 0.0)
    m["fleet.call_us_p50"] = call_us
    m["fleet.worker_us_p50"] = worker_us
    m["fleet.transport_us_p50"] = call_us - worker_us
    m["fleet.ping_us_p50"] = _us_p50(ping_us)
    # A plans_key crosses the pipe with its plan trees once per worker.
    m["fleet.plan_sends"] = len(
        {(s["shard"], s["plans_key"]) for p in serving for s in p.spans if s["name"] == "fleet.predict"}
    )
    shards = [s["shard"] for s in calls]
    if shards:
        m["fleet.shard_share_max"] = max(shards.count(x) for x in set(shards)) / len(shards)
    hits = _delta(serving, "gauges", "serving_prediction_cache_hits", "merged")
    misses = _delta(serving, "gauges", "serving_prediction_cache_misses", "merged")
    m["fleet.prediction_hit_rate"] = m["serving.prediction_hit_rate"] = _share(hits, misses)
    m["fleet.worker_failures"] = final_stats["fleet"]["counters"].get("worker_failures_total", 0.0)
    m["fleet.worker_cpu_s"] = sum(p.cpu_children for p in opens)
    batches = _delta(serving, "counters", "batches_total", "merged")
    m["gateway.requests_per_batch"] = (
        _delta(serving, "counters", "learned_total", "merged") / batches if batches else 0.0
    )
    for reason in FALLBACK_REASONS:
        m[f"gateway.fallback_{reason}"] = final_stats["merged"]["counters"].get(
            f"fallback_{reason}_total", 0.0
        )
    busy = 0.0
    for p in serving:
        before = p.stats_before["merged"]["histograms"].get("learned_batch_seconds", {})
        after = p.stats_after["merged"]["histograms"].get("learned_batch_seconds", {})
        busy += after.get("sum", 0.0) - before.get("sum", 0.0)
    m["serving.calls"] = batches
    m["serving.busy_s"] = busy
    m["serving.call_us_p50"] = 1e6 * (
        serving[-1].stats_after["merged"]["histograms"].get("learned_batch_seconds", {}).get("p50", 0.0)
    )
    m["serving.plans_per_call"] = (
        _delta(serving, "counters", "plans_total", "merged") / batches if batches else 0.0
    )
    m["serving.encode_hit_rate"] = _share(
        _delta(serving, "gauges", "serving_encoding_cache_hits", "merged"),
        _delta(serving, "gauges", "serving_encoding_cache_misses", "merged"),
    )
    m["serving.encode_s"] = _delta(serving, "gauges", "serving_encode_seconds", "merged")
    m["serving.forward_s"] = _delta(serving, "gauges", "serving_forward_seconds", "merged")
    pacers = opens[-1].stats_after.get("pacers", {})
    m["pacing.sheds"] = final_stats["fleet"]["counters"].get("fallback_pacer_limit_total", 0.0)
    m["pacing.state_entries"] = sum(sum(p["state_entries"].values()) for p in pacers.values())
    m["pacing.inflight_cap"] = sum(p["inflight_cap"] for p in pacers.values())
    m["pacing.btl_rate"] = sum(p["btl_rate"] or 0.0 for p in pacers.values())
    latencies = [p["min_latency_seconds"] for p in pacers.values() if p["min_latency_seconds"]]
    m["pacing.min_latency_ms"] = 1e3 * min(latencies) if latencies else 0.0
