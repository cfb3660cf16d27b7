"""The optimizer gateway: a concurrent, deadline-bounded serving front end.

:class:`~repro.serving.service.CostInferenceService` is a deliberately
single-threaded fast path (its batch buffers are recycled per request).
Production steering traffic is the opposite shape: many query compilers
asking concurrently, each inside its own optimizer latency budget, against
a learned model that can be slow, broken, or mid-replacement.  The
:class:`OptimizerGateway` closes that gap:

* **admission control** — a bounded request queue; when it is full the
  request is *shed* and answered from the fallback immediately instead of
  growing an unbounded backlog;
* **cache hits on the caller's thread** — a request whose every plan is in
  the service's prediction cache is answered by the calling thread right
  after breaker admission (``CostInferenceService.cached_predict``): no
  queue, no worker wake, no pacer slot;
* **micro-batch coalescing** — one worker thread drains the queue, merging
  compatible requests (same environment override) into a single learned
  batch within a small linger window, so concurrent callers ride the
  serving layer's size-bucketed batching instead of serializing one
  candidate set at a time;
* **deadline budgets** — every request carries a deadline; a caller whose
  budget expires answers from the fallback *immediately* (it never blocks
  on the learned path), and the miss is recorded against the breaker as a
  slow call;
* **circuit breaker** — per served model version (reset on every
  ``swap_predictor``): repeated errors or deadline misses trip it, open
  state answers straight from the fallback without queueing, and a
  half-open probe sequence decides recovery (:mod:`repro.gateway.breaker`);
* **deterministic fallback** — the statistics-free native cost model
  (:mod:`repro.gateway.fallback`); every response is flagged with its
  source and reason, so callers and dashboards can tell a learned answer
  from a guardrail answer;
* **telemetry** — counters, gauges, and latency histograms for every
  decision point, exported as JSON or Prometheus text
  (:mod:`repro.gateway.telemetry`), including the inference service's
  cache-tier hit/miss/eviction counters.

Every request is answered with a cost vector, whatever happens to the
learned path — the gateway's one invariant.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.evaluation.pool import pin_blas_threads
from repro.gateway.breaker import BreakerConfig, CircuitBreaker
from repro.gateway.fallback import NativeCostFallback
from repro.gateway.telemetry import Telemetry
from repro.obs.trace import NULL_SPAN, activate_span
from repro.pacing import AdmissionPacer, PacerConfig

__all__ = ["GatewayClosedError", "GatewayConfig", "GatewayResult", "OptimizerGateway"]


class GatewayClosedError(RuntimeError):
    """Marks a request that was drained because the gateway shut down; the
    waiting caller answers it from the fallback with reason ``"closed"``."""

#: Breaker-state gauge encoding (``breaker_state`` telemetry gauge).
_BREAKER_STATE_CODES = {"closed": 0.0, "half-open": 1.0, "open": 2.0}


@dataclass(frozen=True)
class GatewayConfig:
    """Operating limits of the serving front end."""

    #: Pending requests admitted before load shedding kicks in.
    max_queue_depth: int = 64
    #: Upper bound on plans merged into one learned batch.
    max_coalesce_plans: int = 256
    #: How long the worker lingers for more compatible requests once it has
    #: one in hand.  Zero (the default) coalesces only what is already
    #: queued — concurrent bursts still merge, because requests pile up
    #: while the previous batch executes; a nonzero window additionally
    #: catches near-simultaneous arrivals, at the cost of adding the full
    #: window to every idle-path request.
    coalesce_window_ms: float = 0.0
    #: Deadline applied when the caller does not pass one.  ``None`` means
    #: requests without an explicit deadline wait for the learned answer.
    default_deadline_ms: float | None = None
    #: Circuit-breaker thresholds for the learned path.
    breaker: BreakerConfig = field(default_factory=BreakerConfig)
    #: BBR-style admission pacing (:mod:`repro.pacing`); ``None`` (the
    #: default) disables pacing and overload handling falls back to the
    #: blunt bounded queue alone.  With a config set, requests past the
    #: pacer's BDP-derived inflight cap shed immediately with reason
    #: ``"pacer-limit"`` instead of queueing into latency their deadline
    #: budget cannot afford.
    pacer: PacerConfig | None = None


class GatewayResult:
    """One answered request: a cost vector plus how it was produced.

    Acts as an array (``np.argmin(result)``, ``len``, iteration, indexing
    all read ``costs``) so it is a drop-in for the raw prediction vectors
    the serving layer returns.
    """

    __slots__ = (
        "costs", "source", "reason", "latency_ms", "model_version", "retry_after",
        "trace_id",
    )

    def __init__(
        self,
        costs: np.ndarray,
        source: str,
        reason: str,
        latency_ms: float,
        model_version: int | None,
        *,
        retry_after: float | None = None,
        trace_id: str | None = None,
    ) -> None:
        self.costs = costs
        self.source = source  # "learned" | "fallback"
        self.reason = reason  # "ok" | "no-model" | "shed" | "deadline" | ...
        self.latency_ms = latency_ms
        self.model_version = model_version
        #: ``pacer-limit`` sheds only: the pacer's estimate of seconds until
        #: an admission would succeed (HTTP Retry-After analogue).  ``None``
        #: everywhere else, and on sheds from an unmeasured pacer.
        self.retry_after = retry_after
        #: Id of the distributed trace this request was sampled into, or
        #: ``None`` when tracing is off/unsampled.  Feed it to the owning
        #: fleet's ``span_tree`` to reconstruct the request end to end.
        self.trace_id = trace_id

    @property
    def fallback(self) -> bool:
        return self.source == "fallback"

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.costs, dtype=dtype)

    def __len__(self) -> int:
        return len(self.costs)

    def __iter__(self):
        return iter(self.costs)

    def __getitem__(self, index):
        return self.costs[index]

    def __repr__(self) -> str:
        return (
            f"GatewayResult({self.source}/{self.reason}, n={len(self.costs)}, "
            f"latency={self.latency_ms:.2f}ms)"
        )


class _PendingRequest:
    """One caller's unit of work, parked on the queue until the worker
    batches it (or the caller's deadline abandons it)."""

    __slots__ = (
        "plans", "env_features", "env_key", "deadline", "enqueued_at",
        "event", "result", "error", "abandoned", "done", "paced", "span",
    )

    def __init__(self, plans, env_features, env_key, deadline, now) -> None:
        self.plans = plans
        self.env_features = env_features
        self.env_key = env_key
        self.deadline = deadline  # absolute monotonic seconds, or None
        self.enqueued_at = now
        self.event = threading.Event()
        self.result: np.ndarray | None = None
        self.error: BaseException | None = None
        self.abandoned = False
        self.done = False
        #: True while this request holds one of the admission pacer's
        #: inflight slots (cleared exactly once, under the gateway lock).
        self.paced = False
        #: The request's trace span (NULL_SPAN when unsampled); the worker
        #: reads it to parent the batch span.
        self.span = NULL_SPAN


class OptimizerGateway:
    """Concurrent serving front end over one inference service.

    ``service`` may be ``None`` (a project before its first promoted model):
    every request answers from the fallback with reason ``"no-model"`` until
    :meth:`attach_service` installs the learned path.  ``service`` is
    duck-typed — it must expose ``predict(plans, env_features=...)`` and may
    expose ``swap_predictor``, ``cache_counters`` and a ``predictor`` with a
    ``weights_version`` counter.
    """

    def __init__(
        self,
        service=None,
        *,
        fallback: NativeCostFallback | None = None,
        config: GatewayConfig | None = None,
        breaker: CircuitBreaker | None = None,
        telemetry: Telemetry | None = None,
        on_trip=None,
        pacer: AdmissionPacer | None = None,
        tracer=None,
        recorder=None,
        slo=None,
    ) -> None:
        # One steering request runs on one thread: the forward pass's small
        # GEMMs gain nothing from a second BLAS thread, which only spins
        # between them.  Process-wide and idempotent (see docs/GATEWAY.md).
        pin_blas_threads(1)
        self.config = config or GatewayConfig()
        self.fallback = fallback or NativeCostFallback()
        self.telemetry = telemetry or Telemetry()
        self._resolve_instruments()
        self._on_trip = on_trip
        #: Observability (all optional, all ~free when absent): a
        #: :class:`repro.obs.Tracer` minting request spans at admission, a
        #: :class:`repro.obs.FlightRecorder` fed incident events (breaker
        #: trips auto-dump; sheds feed its storm detector), and a
        #: :class:`repro.obs.SLOMonitor` fed every finished request.
        self.tracer = tracer
        self.recorder = recorder
        self.slo = slo
        self.breaker = breaker or CircuitBreaker(self.config.breaker)
        if pacer is None and self.config.pacer is not None:
            pacer = AdmissionPacer(self.config.pacer)
        self.pacer = pacer
        if self.pacer is not None and self.pacer.telemetry is None:
            self.pacer.telemetry = self.telemetry
        # Chain, don't clobber: a caller-provided breaker may carry its own
        # trip hook; the gateway adds telemetry + the lifecycle signal.
        self._user_breaker_trip = self.breaker.on_trip
        self.breaker.on_trip = self._breaker_tripped
        # A breaker reset means the learned path changed (hot swap) or just
        # recovered from a broken spell — either way the pacer's capacity
        # estimates describe a path that no longer exists: re-probe from
        # STARTUP.
        self._user_breaker_reset = self.breaker.on_reset
        self.breaker.on_reset = self._breaker_reset
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._queue: deque[_PendingRequest] = deque()
        #: Requests the worker has popped but not yet answered — tracked so
        #: :meth:`close` can fail them over to the fallback if the worker is
        #: stuck in the learned path past the join timeout.
        self._inflight: list[_PendingRequest] = []
        self._service = service
        self._service_lock = threading.Lock()
        self._fault_budget = 0
        self._fault_error: BaseException | None = None
        self._running = True
        self._worker = threading.Thread(
            target=self._worker_loop, name="optimizer-gateway", daemon=True
        )
        self._worker.start()

    # -- service management ----------------------------------------------------

    @property
    def service(self):
        return self._service

    @property
    def has_model(self) -> bool:
        return self._service is not None

    def attach_service(self, service) -> None:
        """Install (or replace) the learned path; resets the breaker."""
        with self._service_lock:
            self._service = service
        self.notify_swap()

    def swap_predictor(self, predictor) -> None:
        """Hot-swap the served model through the inference service and reset
        the breaker (a promoted model starts with a clean record)."""
        if self._service is None:
            raise RuntimeError("gateway has no inference service to swap into")
        with self._service_lock:
            self._service.swap_predictor(predictor)
        self.notify_swap()

    def notify_swap(self) -> None:
        """Called after the underlying service's model changed (directly or
        via the lifecycle's promote path): clean breaker, fresh gauges."""
        self.breaker.reset()
        self.telemetry.counter("swaps_total", "model hot swaps observed").inc()
        self._sync_gauges()

    def _resolve_instruments(self) -> None:
        """Bind the instruments every answered request touches once, so the
        request path does no registry lookups.  Shed and fallback counters
        stay created on first use: their absence means "never happened"."""
        t = self.telemetry
        self._requests_total = t.counter("requests_total", "requests received")
        self._plans_total = t.counter("plans_total", "plans scored")
        self._learned_total = t.counter("learned_total", "requests answered learned")
        self._request_latency = t.histogram(
            "request_latency_seconds", "end-to-end request latency"
        )
        self._queue_depth = t.gauge("queue_depth", "pending requests")
        self._queue_wait = t.histogram(
            "queue_wait_seconds", "request wait from admission to worker pickup"
        )
        self._batches_total = t.counter("batches_total", "learned batches executed")
        self._batch_seconds = t.histogram(
            "learned_batch_seconds", "learned-path batch latency"
        )
        self._batch_plans = t.histogram("batch_plans", "plans per learned batch")
        self._service_time = t.histogram(
            "service_time_seconds",
            "learned-path compute share of request latency (per request, its "
            "batch's execution time; queue_wait_seconds holds the other half)",
        )

    def _model_version(self) -> int | None:
        service = self._service
        if service is None:
            return None
        return getattr(getattr(service, "predictor", None), "weights_version", None)

    # -- request path ----------------------------------------------------------

    def predict(
        self,
        plans,
        *,
        env_features: tuple[float, float, float, float] | None = None,
        deadline_ms: float | None = None,
        trace=None,
    ) -> GatewayResult:
        """Score ``plans`` within the deadline budget.  Always returns a
        cost per plan; ``result.source`` says whether the learned model or
        the native fallback produced it.  ``trace`` carries an upstream
        :class:`~repro.obs.TraceContext` (e.g. from the fleet parent) so the
        request span joins the caller's trace instead of starting one."""
        started = time.monotonic()
        self._requests_total.inc()
        self._plans_total.inc(len(plans))
        span = (
            self.tracer.start_trace("gateway.request", parent=trace)
            if self.tracer is not None
            else NULL_SPAN
        )
        if span.sampled:
            span.set_attrs(n_plans=len(plans))
        if not len(plans):
            return self._finish(
                GatewayResult(np.zeros(0), "learned", "ok", 0.0, self._model_version()),
                started,
                span=span,
            )
        if deadline_ms is None:
            deadline_ms = self.config.default_deadline_ms

        if self._service is None:
            return self._fallback_result(plans, env_features, "no-model", started, span=span)
        if not self.breaker.allow():
            return self._fallback_result(
                plans, env_features, "circuit-open", started, span=span
            )
        deadline = started + deadline_ms / 1e3 if deadline_ms is not None else None
        costs = self._cached_answer(plans, env_features, deadline)
        if costs is not None:
            # Answered from the prediction cache on this thread: the pipe
            # never saw the request, so it takes no pacer slot and yields
            # no delivery sample, and a half-open probe slot goes back.
            self.breaker.release_probe()
            if span.sampled:
                span.set_attr("cache_hit", True)
            return self._learned_result(costs, started, span)
        if self.pacer is not None and not self.pacer.try_admit():
            # The pipe (plus its state-dependent headroom) is already full:
            # queueing this request would only buy it latency, not an
            # answer in budget.  Shed at admission, BBR-style, with a
            # Retry-After hint from the pacer's own schedule.
            self.breaker.release_probe()
            return self._fallback_result(
                plans,
                env_features,
                "pacer-limit",
                started,
                retry_after=self.pacer.next_admit_eta(),
                span=span,
            )

        env_key = (
            tuple(float(v) for v in env_features) if env_features is not None else None
        )
        request = _PendingRequest(list(plans), env_features, env_key, deadline, started)
        request.paced = self.pacer is not None
        request.span = span

        with self._work:
            if not self._running:
                closed = True
                shed = False
            elif len(self._queue) >= self.config.max_queue_depth:
                closed = False
                shed = True
            else:
                closed = shed = False
                self._queue.append(request)
                self._queue_depth.set(len(self._queue))
                self._work.notify()
        if closed:
            self.breaker.release_probe()
            self._pacer_release(request)
            return self._fallback_result(plans, env_features, "closed", started, span=span)
        if shed:
            self.breaker.release_probe()
            self._pacer_release(request)
            return self._fallback_result(plans, env_features, "shed", started, span=span)

        timeout = deadline - time.monotonic() if deadline is not None else None
        if timeout is not None and timeout > 0:
            request.event.wait(timeout)
        elif timeout is None:
            request.event.wait()
        # else: budget already exhausted by admission; fall through.

        with self._lock:
            done, error = request.done, request.error
            if not done:
                request.abandoned = True
        if done and error is None:
            assert request.result is not None
            return self._learned_result(request.result, started, span)
        if done:
            reason = "closed" if isinstance(error, GatewayClosedError) else "model-error"
            return self._fallback_result(plans, env_features, reason, started, span=span)
        self.telemetry.counter("deadline_miss_total", "requests past budget").inc()
        return self._fallback_result(plans, env_features, "deadline", started, span=span)

    def _cached_answer(self, plans, env_features, deadline) -> np.ndarray | None:
        """The service's all-or-nothing prediction-cache answer, computed on
        the calling thread, or ``None`` (a miss, a service without
        ``cached_predict``, a closed gateway, or armed fault injection,
        whose drills target the batch path).  Waits for the service lock —
        held by the worker through a forward pass — no longer than the
        deadline allows."""
        service = self._service
        if (
            env_features is None
            or not self._running
            or self._fault_budget
            or not hasattr(service, "cached_predict")
        ):
            return None
        lock = self._service_lock
        if deadline is None:
            lock.acquire()
        elif not lock.acquire(timeout=max(0.0, deadline - time.monotonic())):
            return None
        try:
            if self._service is not service:  # re-attached meanwhile
                return None
            return service.cached_predict(plans, env_features=env_features)
        except Exception:  # noqa: BLE001 — the batch path answers and counts it
            return None
        finally:
            lock.release()

    def select_best_index(
        self,
        plans,
        *,
        env_features: tuple[float, float, float, float] | None = None,
        deadline_ms: float | None = None,
    ) -> tuple[int, np.ndarray]:
        """The steering decision with the serving layer's contract: the
        winning candidate index plus the full prediction vector."""
        if not len(plans):
            raise ValueError("select_best_index on an empty candidate list")
        result = self.predict(plans, env_features=env_features, deadline_ms=deadline_ms)
        return int(np.argmin(result.costs)), result.costs

    def select_best(
        self,
        plans,
        *,
        env_features: tuple[float, float, float, float] | None = None,
        deadline_ms: float | None = None,
    ):
        index, predictions = self.select_best_index(
            plans, env_features=env_features, deadline_ms=deadline_ms
        )
        return plans[index], predictions

    # -- fallback + bookkeeping ------------------------------------------------

    #: Fallback reasons that are *shed* decisions (load-based refusals of a
    #: healthy path), mapped onto the telemetry split in
    #: :data:`repro.gateway.telemetry.SHED_REASONS`.  ``no-model`` /
    #: ``circuit-open`` / ``model-error`` are health events, not sheds.
    _SHED_REASONS = {
        "shed": "queue-full",
        "pacer-limit": "pacer-limit",
        "deadline": "deadline",
        "closed": "closed",
    }

    def _fallback_result(
        self, plans, env_features, reason, started, *, retry_after=None, span=NULL_SPAN
    ) -> GatewayResult:
        costs = self.fallback.predict(list(plans), env_features=env_features)
        self.telemetry.counter("fallback_total", "requests answered by fallback").inc()
        self.telemetry.counter(
            f"fallback_{reason.replace('-', '_')}_total", f"fallbacks: {reason}"
        ).inc()
        shed_reason = self._SHED_REASONS.get(reason)
        if shed_reason is not None:
            self.telemetry.record_shed(shed_reason)
            if self.recorder is not None:
                self.recorder.note_shed(shed_reason)
        if retry_after is not None:
            self.telemetry.histogram(
                "retry_after_seconds",
                "Retry-After hints attached to pacer-limit sheds",
            ).observe(float(retry_after))
        return self._finish(
            GatewayResult(
                costs,
                "fallback",
                reason,
                1e3 * (time.monotonic() - started),
                None,
                retry_after=retry_after,
            ),
            started,
            span=span,
        )

    def _learned_result(self, costs, started, span) -> GatewayResult:
        return self._finish(
            GatewayResult(
                costs,
                "learned",
                "ok",
                1e3 * (time.monotonic() - started),
                self._model_version(),
            ),
            started,
            span=span,
        )

    def _finish(
        self, result: GatewayResult, started: float, *, span=NULL_SPAN
    ) -> GatewayResult:
        if result.source == "learned":
            self._learned_total.inc()
        latency = time.monotonic() - started
        self._request_latency.observe(latency)
        if self.slo is not None:
            self.slo.record(latency, deadline_hit=result.reason != "deadline")
        if span.sampled:
            span.set_attrs(
                source=result.source,
                reason=result.reason,
                weights_version=result.model_version,
            )
            shed_reason = self._SHED_REASONS.get(result.reason)
            if shed_reason is not None:
                span.set_attr("shed_reason", shed_reason)
            if result.retry_after is not None:
                span.set_attr("retry_after", result.retry_after)
            if self.pacer is not None:
                span.set_attr("pacer_state", self.pacer.state)
            result.trace_id = span.trace_id
            span.finish()
        return result

    def _breaker_tripped(self, breaker) -> None:
        self.telemetry.counter(
            "breaker_trips_total", "circuit breaker trips"
        ).inc()
        self._sync_gauges()
        if self.recorder is not None:
            # Incident kind: the recorder snapshots its ring so the spans
            # and sheds leading up to the trip survive for reconstruction.
            breaker_stats = breaker.stats()
            self.recorder.record(
                "breaker-trip",
                "gateway",
                weights_version=self._model_version(),
                trip_count=breaker_stats["trip_count"],
                failure_count=breaker_stats["failure_count"],
                slow_count=breaker_stats["slow_count"],
            )
        if self._user_breaker_trip is not None:
            self._user_breaker_trip(breaker)
        if self._on_trip is not None:
            self._on_trip(self)

    def _breaker_reset(self, breaker) -> None:
        """Breaker reset hook: the learned path was swapped or declared
        recovered, so the pacer's capacity estimates are void — re-enter
        STARTUP and re-probe the pipe."""
        if self.pacer is not None:
            self.pacer.reset()
        if self._user_breaker_reset is not None:
            self._user_breaker_reset(breaker)

    def _pacer_release(self, request: _PendingRequest) -> None:
        """Return the request's pacer slot without a delivery sample — for
        requests that never completed a learned batch (shed after
        admission, abandoned, drained, failed).  Idempotent: the ``paced``
        flag is cleared exactly once under the gateway lock."""
        if self.pacer is None:
            return
        with self._lock:
            if not request.paced:
                return
            request.paced = False
        self.pacer.release()

    # -- fault injection (smoke tests / chaos drills) --------------------------

    def inject_faults(self, n: int, error: BaseException | None = None) -> None:
        """Arm the learned path to raise on its next ``n`` batches.  This is
        the supported chaos hook the ``gateway`` smoke CLI and CI use to
        prove the fallback + breaker behaviour without reaching into
        internals."""
        with self._lock:
            self._fault_budget = int(n)
            self._fault_error = error

    # -- worker ----------------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            with self._work:
                while self._running and not self._queue:
                    self._work.wait()
                if not self._running and not self._queue:
                    return
                first = self._queue.popleft()
                self._queue_depth.set(len(self._queue))
                self._observe_queue_wait(first)
                if first.done:
                    # Already answered by a concurrent close() drain.
                    continue
                if first.abandoned:
                    abandoned_early = True
                else:
                    abandoned_early = False
                    self._inflight.append(first)
            if abandoned_early:
                # The caller already answered from the fallback; the learned
                # path failed to schedule it in budget — a slow call.
                self._pacer_release(first)
                self.breaker.record_failure(kind="slow")
                continue
            group = self._coalesce(first)
            try:
                self._execute(group)
            finally:
                with self._lock:
                    self._inflight.clear()

    def _observe_queue_wait(self, request: _PendingRequest) -> None:
        """Admission-to-pickup wait, the queueing half of request latency
        (the other half, the learned batch compute, is ``service_time``).
        Recorded for every popped request — including abandoned ones, whose
        queue wait is exactly what blew their budget."""
        self._queue_wait.observe(time.monotonic() - request.enqueued_at)

    def _coalesce(self, first: _PendingRequest) -> list[_PendingRequest]:
        """Merge queued requests with the same environment key into one
        learned batch, lingering up to ``coalesce_window_ms`` for more."""
        group = [first]
        total = len(first.plans)
        linger_until = time.monotonic() + self.config.coalesce_window_ms / 1e3
        while total < self.config.max_coalesce_plans:
            with self._work:
                while (
                    self._running
                    and not self._queue
                    and time.monotonic() < linger_until
                ):
                    self._work.wait(timeout=max(1e-4, linger_until - time.monotonic()))
                if not self._queue:
                    break
                nxt = self._queue[0]
                if nxt.env_key != first.env_key:
                    break
                if total + len(nxt.plans) > self.config.max_coalesce_plans:
                    break
                self._queue.popleft()
                self._queue_depth.set(len(self._queue))
                self._observe_queue_wait(nxt)
                if nxt.done:
                    skipped = nxt  # answered by a concurrent close() drain
                    nxt = None
                    drained = True
                elif nxt.abandoned:
                    skipped = nxt
                    nxt = None
                    drained = False
                else:
                    drained = False
                    self._inflight.append(nxt)
            if nxt is None:
                self._pacer_release(skipped)
                if not drained:
                    self.breaker.record_failure(kind="slow")
                continue
            group.append(nxt)
            total += len(nxt.plans)
        return group

    def _execute(self, group: list[_PendingRequest]) -> None:
        all_plans = [plan for request in group for plan in request.plans]
        env_features = group[0].env_features
        batch_span = NULL_SPAN
        if self.tracer is not None:
            # The batch span lives in the first sampled request's trace and
            # *links* every coalesced request (their ids ride as attributes;
            # each linked request span points back via batch_span_id).
            primary = next((r.span for r in group if r.span.sampled), None)
            if primary is not None:
                batch_span = self.tracer.start_span(
                    "gateway.batch",
                    parent=primary,
                    attrs={
                        "n_requests": len(group),
                        "n_plans": len(all_plans),
                        "link_trace_ids": [
                            r.span.trace_id for r in group if r.span.sampled
                        ],
                        "link_span_ids": [
                            r.span.span_id for r in group if r.span.sampled
                        ],
                    },
                )
        started = time.monotonic()
        error: BaseException | None = None
        predictions: np.ndarray | None = None
        try:
            with self._lock:
                if self._fault_budget > 0:
                    self._fault_budget -= 1
                    raise self._fault_error or RuntimeError(
                        "injected learned-path fault"
                    )
            if batch_span.sampled:
                # Activate so the serving layer's traced_sections (encode /
                # forward / quantize) nest under this batch.
                with self._service_lock, activate_span(batch_span):
                    predictions = self._service.predict(
                        all_plans, env_features=env_features
                    )
            else:
                with self._service_lock:
                    predictions = self._service.predict(
                        all_plans, env_features=env_features
                    )
        except BaseException as exc:  # noqa: BLE001 — every failure must answer
            error = exc
        elapsed = time.monotonic() - started
        if batch_span.sampled:
            if error is not None:
                batch_span.set_attr("error", repr(error))
            # Finish before any caller's event fires: when a fleet worker
            # drains spans for a trace right after predict() returns, the
            # batch (and nested serving) spans are already buffered.
            batch_span.finish()
        self._batches_total.inc()
        self._batch_seconds.observe(elapsed)
        self._batch_plans.observe(len(all_plans))

        service_time = self._service_time
        offset = 0
        now = time.monotonic()
        slots = 0
        answered: list[_PendingRequest] = []
        try:
            for request in group:
                n = len(request.plans)
                with self._lock:
                    abandoned = request.abandoned
                    drained = request.done  # answered by a concurrent close()
                    slots += request.paced
                    request.paced = False
                    if not abandoned and not drained:
                        if request.span.sampled and batch_span.sampled:
                            request.span.set_attr("batch_span_id", batch_span.span_id)
                        request.done = True
                        if error is not None:
                            request.error = error
                        else:
                            request.result = np.asarray(predictions[offset : offset + n])
                        answered.append(request)
                if drained:
                    pass  # caller already answered from the fallback
                elif abandoned:
                    # Caller answered from fallback at its deadline while we
                    # were computing: a slow call against the breaker.
                    self.breaker.record_failure(kind="slow")
                elif error is not None:
                    self.breaker.record_failure(kind="error")
                else:
                    service_time.observe(elapsed)
                    self.breaker.record_success(now - request.enqueued_at)
                offset += n
            if self.pacer is not None and slots:
                if error is None:
                    # The pipe computed this batch whether or not every
                    # caller stayed to hear the answer — it is a genuine
                    # delivery-rate and queue-free-latency measurement of
                    # the serving path.
                    self.pacer.on_delivered(slots, elapsed_seconds=elapsed)
                else:
                    # A failed batch measures nothing; just return the slots.
                    self.pacer.release(slots)
        finally:
            # Wake callers only once the breaker and pacer have accounted
            # the batch (trip hooks and flight dumps included), so a caller
            # holding its answer never observes stale guardrail state.
            for request in answered:
                request.event.set()

    # -- reporting -------------------------------------------------------------

    def _sync_gauges(self) -> None:
        """Mirror breaker, pacer, model-version and serving-cache state into
        gauges.  Runs at read time (:meth:`stats`, :meth:`to_prometheus`)
        and on swaps and trips, never per request."""
        self.telemetry.gauge("breaker_state", "0 closed, 1 half-open, 2 open").set(
            _BREAKER_STATE_CODES[self.breaker.state]
        )
        if self.pacer is not None:
            self.pacer.sync_gauges(self.telemetry)
        version = self._model_version()
        if version is not None:
            self.telemetry.gauge(
                "model_weights_version", "served weights_version"
            ).set(version)
        service = self._service
        counters = getattr(service, "cache_counters", None)
        if counters is not None:
            for name, value in counters().items():
                self.telemetry.gauge(
                    f"serving_{name}",
                    "inference-service counter: cache hit/miss tallies plus the "
                    "cold-path attribution split (encode/forward/quantize "
                    "seconds, parallel-encode batches, warmed plans, "
                    "quantization gate state)",
                ).set(value)

    def stats(self, *, include_samples: bool = False) -> dict:
        """JSON-able operational snapshot: telemetry, breaker, pacer, queue.
        ``include_samples`` attaches raw histogram reservoirs so fleet-level
        merges can compute exact quantiles."""
        self._sync_gauges()
        snapshot = self.telemetry.snapshot(include_samples=include_samples)
        with self._lock:
            depth = len(self._queue)
        snapshot["breaker"] = self.breaker.stats()
        if self.pacer is not None:
            snapshot["pacer"] = self.pacer.stats()
        if self.tracer is not None:
            snapshot["tracing"] = self.tracer.stats()
        if self.recorder is not None:
            snapshot["flight_recorder"] = self.recorder.stats()
        if self.slo is not None:
            snapshot["slo"] = self.slo.snapshot()
        snapshot["queue_depth"] = depth
        snapshot["has_model"] = self.has_model
        return snapshot

    def to_prometheus(self) -> str:
        self._sync_gauges()
        if self.slo is not None:
            self.slo.export(self.telemetry)
        return self.telemetry.to_prometheus()

    # -- shutdown --------------------------------------------------------------

    def close(self, *, timeout: float = 5.0) -> None:
        """Stop the worker, draining every already-admitted request.

        New admissions are refused immediately (answered from the fallback
        with reason ``"closed"``).  The worker keeps processing what was
        already admitted — those callers still get learned answers — and if
        it has not finished within ``timeout`` (a stuck learned path),
        everything still queued *or in flight* is failed over so the waiting
        callers answer from the fallback instead of blocking forever.  The
        gateway's one invariant survives shutdown: every admitted request is
        answered."""
        with self._work:
            self._running = False
            self._work.notify_all()
        self._worker.join(timeout)
        released = 0
        with self._lock:
            stranded = list(self._queue) + list(self._inflight)
            self._queue.clear()
            self._inflight.clear()
            for request in stranded:
                released += request.paced
                request.paced = False
                if not request.done:
                    request.done = True
                    request.error = GatewayClosedError("gateway closed")
                # A done request may still await its wake-up from a worker
                # held up in breaker/pacer accounting; its answer is ready.
                request.event.set()
        if self.pacer is not None and released:
            self.pacer.release(released)

    def __enter__(self) -> "OptimizerGateway":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
