"""The fleet worker process: one bare inference service per shard.

Each worker is a forked child running :func:`fleet_worker_main`: BLAS
pinned to one thread, a seed derived from ``(base_seed, "fleet-<id>")``,
the promoted checkpoint in a ``CostInferenceService``, and every frame
answered on the receiving thread.  It has no queue, thread, breaker or
fallback: the parent holds at most one frame in flight per pipe and
applies admission, deadline, breaker and fallback itself
(:mod:`repro.fleet.fleet`).  The framed protocol over the duplex pipe:

``("predict", req_id, plans_key, plans, envs, trace_wire)``
    Score one candidate set under each environment of ``envs``: one
    environment, or any ``None`` among them, goes to ``service.predict``
    per environment; several vector environments go to one
    ``service.predict_sweep``.  Replies ``("ok", req_id, costs,
    weights_version, seconds, spans)`` — ``costs`` one float64 ``(n_envs,
    n_plans)`` array, ``seconds`` the frame's compute time — or
    ``("error", req_id, repr)`` if the service raised.  ``plans`` is
    ``None`` when ``plans_key`` was shipped before (a 512-entry LRU keeps
    plan trees off the pipe); an unknown key answers ``("need-plans",
    req_id)`` and the parent resends with plans.  ``trace_wire`` is the
    parent's :class:`~repro.obs.TraceContext` (or ``None``): a
    ``fleet.worker`` span joins that trace, ``serving.encode``/
    ``serving.forward`` nest under it, and the records ride the reply.
``("load", req_id, checkpoint_path, warm)``
    Staged promote: load the checkpoint, hot-swap it into the service
    (re-scoring the ``warm`` list), ack the new ``weights_version``.
``("stats", req_id)`` / ``("ping", req_id)`` / ``("close", req_id)``
    Telemetry snapshot, liveness probe, exit.
``("crash", req_id)``
    Chaos hook: ``os._exit`` at once, as on a segfault or OOM kill — the
    parent's shed-and-remap path is the test subject, so the death must
    skip Python cleanup.
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict

import numpy as np

from repro.evaluation.pool import derive_seed, pin_blas_threads
from repro.gateway.telemetry import Telemetry
from repro.obs.trace import NULL_SPAN, TraceContext, Tracer, activate_span

__all__ = ["fleet_worker_main"]

#: Candidate sets remembered per worker (keyed by the client's plans_key).
_PLAN_CACHE_CAP = 512


def _score(service, plans, envs) -> np.ndarray:
    if len(envs) > 1 and None not in envs:
        return service.predict_sweep(plans, envs)
    rows = [service.predict(plans, env_features=env) for env in envs]
    return np.array(rows, dtype=np.float64).reshape(len(envs), len(plans))


def fleet_worker_main(
    conn,
    *,
    worker_id: str,
    checkpoint_path=None,
    service_kwargs: dict | None = None,
    base_seed: int = 0,
    obs_config=None,
) -> None:
    """Entry point of one forked fleet worker (blocks until ``close``)."""
    from repro.core.serialization import load_predictor
    from repro.serving.service import CostInferenceService

    pin_blas_threads()
    seed = derive_seed(base_seed, f"fleet-{worker_id}")
    service_kwargs = service_kwargs or {}
    service = None
    if checkpoint_path is not None:
        service = CostInferenceService.from_checkpoint(checkpoint_path, **service_kwargs)
    tracer = None
    if obs_config is not None:
        # Derived per worker, so seeded fleets mint deterministic and never
        # colliding span ids across shards.
        trace_seed = (
            derive_seed(obs_config.seed, f"trace-{worker_id}")
            if obs_config.seed is not None
            else None
        )
        tracer = Tracer(obs_config.sample_rate, seed=trace_seed, process_label=worker_id)
    plan_cache: "OrderedDict[object, list]" = OrderedDict()
    telemetry = Telemetry()
    requests_total = telemetry.counter("requests_total", "environments requested")
    learned_total = telemetry.counter("learned_total", "environments answered")
    plans_total = telemetry.counter("plans_total", "plans scored (x environments)")
    batches_total = telemetry.counter("batches_total", "predict frames computed")
    frame_latency = telemetry.histogram(
        "request_latency_seconds", "worker-side frame time, receipt to reply"
    )
    compute_latency = telemetry.histogram(
        "learned_batch_seconds", "service compute time per frame"
    )

    def answer(req_id, plans, envs, trace_wire, received) -> tuple:
        requests_total.inc(len(envs))
        span = NULL_SPAN
        if trace_wire is not None and tracer is not None:
            span = tracer.start_trace(
                "fleet.worker",
                parent=TraceContext.from_wire(trace_wire),
                attrs={"n_plans": len(plans), "n_envs": len(envs)},
            )
        started = time.monotonic()
        try:
            if service is None:
                raise RuntimeError("worker has no model loaded")
            with activate_span(span):
                costs = _score(service, plans, envs)
        except Exception as exc:  # noqa: BLE001 — the parent answers it
            span.set_attr("error", repr(exc))
            reply = ("error", req_id, repr(exc))
        else:
            seconds = time.monotonic() - started
            batches_total.inc()
            learned_total.inc(len(envs))
            plans_total.inc(len(plans) * len(envs))
            compute_latency.observe(seconds)
            reply = ("ok", req_id, costs, service.predictor.weights_version, seconds)
        span.finish()
        # Finished spans of this trace ride an ok reply back to the parent's
        # collector; an error reply drops them.
        spans = tracer.drain(trace_id=span.trace_id) if span.sampled else []
        frame_latency.observe(time.monotonic() - received)
        return reply + (spans,) if reply[0] == "ok" else reply

    try:
        while True:
            try:
                message = conn.recv()
            except EOFError:
                break  # parent went away; nothing left to serve
            received = time.monotonic()
            kind, req_id = message[0], message[1]

            if kind == "predict":
                _, _, plans_key, plans, envs, trace_wire = message
                if plans is None:
                    plans = plan_cache.get(plans_key)
                    if plans is None:
                        conn.send(("need-plans", req_id))
                        continue
                    plan_cache.move_to_end(plans_key)
                elif plans_key is not None:
                    plan_cache[plans_key] = plans
                    plan_cache.move_to_end(plans_key)
                    while len(plan_cache) > _PLAN_CACHE_CAP:
                        plan_cache.popitem(last=False)
                conn.send(answer(req_id, plans, envs, trace_wire, received))

            elif kind == "load":
                _, _, path, warm = message
                predictor, _env = load_predictor(path)
                if service is not None:
                    service.swap_predictor(predictor, warm=warm or None)
                else:
                    service = CostInferenceService(predictor, **service_kwargs)
                    if warm:
                        service.warm_caches(warm)
                conn.send(("loaded", req_id, service.predictor.weights_version))

            elif kind == "stats":
                if service is not None:
                    telemetry.gauge("model_weights_version", "served weights_version").set(
                        service.predictor.weights_version
                    )
                    for name, value in service.cache_counters().items():
                        telemetry.gauge(f"serving_{name}", "inference-service counter").set(
                            value
                        )
                # Raw histogram reservoirs ride along so the parent's merge
                # computes exact fleet-level quantiles, not a max bound.
                conn.send(("stats", req_id, telemetry.snapshot(include_samples=True)))

            elif kind == "ping":
                conn.send(("pong", req_id, worker_id, seed))

            elif kind == "crash":
                os._exit(1)

            elif kind == "close":
                conn.send(("closed", req_id))
                break

            else:
                conn.send(("error", req_id, f"unknown message kind {kind!r}"))
    finally:
        conn.close()
