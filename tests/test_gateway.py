"""Tests for the optimizer gateway (repro.gateway).

Covers the PR's serving-front-end guarantees:

(a) fallback answers are bitwise-equal to the statistics-free baseline;
(b) a deadline-exceeded request answers from the fallback without ever
    blocking on the learned path;
(c) the circuit breaker trips on repeated failures, recovers through
    half-open probes, and resets across ``swap_predictor``;
(d) load shedding under a full queue still answers every request;
(e) concurrent callers through the gateway match a serial reference on a
    real trained predictor within rtol 1e-5;

plus unit coverage of the telemetry core, the breaker state machine, the
native-cost fallback, and the lifecycle wiring (breaker trip -> drift
retrain signal, promotion -> breaker reset).
"""

from __future__ import annotations

import json
import threading
import time

import numpy as np
import pytest

from repro.core.predictor import AdaptiveCostPredictor, PredictorConfig
from repro.gateway import (
    BreakerConfig,
    BreakerOpenError,
    CircuitBreaker,
    GatewayConfig,
    NativeCostFallback,
    OptimizerGateway,
    Telemetry,
    environment_factor_from_features,
)
from repro.pacing import PacerConfig
from repro.serving import CostInferenceService

TINY = PredictorConfig(epochs=2, hidden_dims=(16, 16), embedding_dim=8, adversarial=False)

ENV = (0.5, 0.05, 0.5, 0.5)


@pytest.fixture(scope="module")
def trained(project_with_history):
    records = project_with_history.repository.records[:80]
    plans = [r.plan for r in records]
    costs = [r.cpu_cost for r in records]
    predictor = AdaptiveCostPredictor(config=TINY)
    predictor.fit(plans, costs)
    return predictor, plans


@pytest.fixture()
def native_plans(small_project):
    queries = [small_project.sample_query(i) for i in range(6)]
    return [small_project.optimizer.optimize(q) for q in queries]


# -- stubs ----------------------------------------------------------------------


class _MarkerPlan:
    """A fake plan whose learned cost is carried on the object, so a caller
    can verify its slice of a coalesced batch regardless of batch shape."""

    __slots__ = ("marker",)

    def __init__(self, marker: float) -> None:
        self.marker = marker


class _StubPredictor:
    def __init__(self, version: int = 1) -> None:
        self.weights_version = version


class _StubService:
    """Duck-typed CostInferenceService: per-plan deterministic answers,
    optional latency, optional failure, call log."""

    def __init__(self, *, delay: float = 0.0) -> None:
        self.predictor = _StubPredictor()
        self.delay = delay
        self.calls: list[tuple[int, tuple | None]] = []
        self._lock = threading.Lock()

    def predict(self, plans, *, env_features=None):
        with self._lock:
            self.calls.append((len(plans), env_features))
        if self.delay:
            time.sleep(self.delay)
        return np.array([p.marker for p in plans], dtype=np.float64)

    def swap_predictor(self, predictor) -> None:
        self.predictor = predictor


class _FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def _marker_plans(*markers: float) -> list[_MarkerPlan]:
    return [_MarkerPlan(m) for m in markers]


# -- telemetry ------------------------------------------------------------------


class TestTelemetry:
    def test_counter_monotone(self):
        t = Telemetry()
        c = t.counter("reqs", "requests")
        c.inc()
        c.inc(2.5)
        assert c.value == pytest.approx(3.5)
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_set_inc_dec(self):
        g = Telemetry().gauge("depth")
        g.set(5)
        g.inc(2)
        g.dec(3)
        assert g.value == pytest.approx(4.0)

    def test_get_or_create_returns_same_instrument(self):
        t = Telemetry()
        assert t.counter("a") is t.counter("a")

    def test_kind_collision_raises(self):
        t = Telemetry()
        t.counter("x")
        with pytest.raises(TypeError):
            t.gauge("x")

    def test_histogram_quantiles_nearest_rank(self):
        h = Telemetry().histogram("lat")
        for v in range(100):  # 0..99
            h.observe(v)
        assert h.quantile(0.50) == 49
        assert h.quantile(0.95) == 94
        assert h.quantile(0.99) == 98
        assert h.quantile(0.0) == 0
        assert h.quantile(1.0) == 99
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_histogram_window_bounds_quantiles_not_totals(self):
        h = Telemetry().histogram("lat", window=8)
        for v in range(100):
            h.observe(v)
        assert h.count == 100
        assert h.sum == pytest.approx(sum(range(100)))
        # quantiles describe the last 8 observations (92..99) only.
        assert h.quantile(0.0) == 92

    def test_histogram_snapshot_fields(self):
        h = Telemetry().histogram("lat")
        snap = h.snapshot()
        assert snap == {
            "count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0,
            "p50": 0.0, "p95": 0.0, "p99": 0.0, "nonfinite": 0,
        }
        h.observe(2.0)
        h.observe(4.0)
        snap = h.snapshot()
        assert snap["count"] == 2
        assert snap["mean"] == pytest.approx(3.0)
        assert snap["min"] == 2.0 and snap["max"] == 4.0

    def test_span_records_count_and_duration(self):
        t = Telemetry()
        with t.span("encode"):
            pass
        assert t.counter("encode_total").value == 1
        assert t.histogram("encode_seconds").count == 1

    def test_json_round_trip(self):
        t = Telemetry()
        t.counter("reqs").inc(3)
        t.gauge("depth").set(2)
        t.histogram("lat").observe(0.5)
        doc = json.loads(t.to_json())
        assert doc["counters"]["reqs"] == 3
        assert doc["gauges"]["depth"] == 2
        assert doc["histograms"]["lat"]["count"] == 1

    def test_prometheus_exposition(self):
        t = Telemetry(namespace="repro")
        t.counter("reqs", "requests").inc(3)
        t.gauge("depth").set(2)
        t.histogram("lat", "latency").observe(0.25)
        text = t.to_prometheus()
        assert "# HELP repro_reqs requests" in text
        assert "# TYPE repro_reqs counter" in text
        assert "repro_reqs 3" in text
        assert "# TYPE repro_depth gauge" in text
        assert "# TYPE repro_lat summary" in text
        assert 'repro_lat{quantile="0.5"} 0.25' in text
        assert "repro_lat_count 1" in text
        assert text.endswith("\n")

    def test_prometheus_name_sanitized(self):
        t = Telemetry(namespace="repro")
        t.counter("weird-name.total").inc()
        assert "repro_weird_name_total 1" in t.to_prometheus()

    def test_thread_safety_counts_every_increment(self):
        t = Telemetry()
        c = t.counter("n")

        def bump():
            for _ in range(1000):
                c.inc()

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert c.value == 8000


# -- circuit breaker ------------------------------------------------------------


def _breaker(clock, **overrides) -> CircuitBreaker:
    defaults = dict(
        window=8, min_calls=4, failure_rate_threshold=0.5,
        cooldown_seconds=10.0, half_open_probes=2,
    )
    defaults.update(overrides)
    return CircuitBreaker(BreakerConfig(**defaults), clock=clock)


class TestCircuitBreaker:
    def test_no_trip_below_min_calls(self):
        b = _breaker(_FakeClock())
        for _ in range(3):
            b.record_failure()
        assert b.state == "closed"
        assert b.allow()

    def test_trips_at_failure_rate(self):
        b = _breaker(_FakeClock())
        for _ in range(2):
            b.record_success(0.01)
        for _ in range(2):
            b.record_failure()
        assert b.state == "open"
        assert not b.allow()
        assert b.trip_count == 1
        with pytest.raises(BreakerOpenError):
            b.check()

    def test_successes_keep_it_closed(self):
        b = _breaker(_FakeClock())
        for _ in range(50):
            b.record_success(0.01)
        b.record_failure()
        assert b.state == "closed"

    def test_slow_successes_count_as_bad(self):
        b = _breaker(_FakeClock(), slow_call_seconds=0.1)
        for _ in range(4):
            b.record_success(0.5)  # correct answers, blown budget
        assert b.state == "open"
        assert b.slow_count == 4

    def test_on_trip_callback(self):
        fired = []
        b = _breaker(_FakeClock())
        b.on_trip = fired.append
        for _ in range(4):
            b.record_failure()
        assert fired == [b]

    def test_half_open_after_cooldown_then_closes(self):
        clock = _FakeClock()
        b = _breaker(clock)
        for _ in range(4):
            b.record_failure()
        assert not b.allow()
        clock.advance(10.0)
        assert b.state == "half-open"
        # two probe slots, third denied while probes are in flight.
        assert b.allow() and b.allow()
        assert not b.allow()
        b.record_success(0.01)
        b.record_success(0.01)
        assert b.state == "closed"
        assert b.allow()

    def test_half_open_failure_reopens(self):
        clock = _FakeClock()
        b = _breaker(clock)
        for _ in range(4):
            b.record_failure()
        clock.advance(10.0)
        assert b.allow()
        b.record_failure(kind="slow")
        assert b.state == "open"
        assert b.trip_count == 2
        # cooldown restarted: still open until it elapses again.
        clock.advance(5.0)
        assert not b.allow()

    def test_release_probe_returns_slot(self):
        clock = _FakeClock()
        b = _breaker(clock, half_open_probes=1)
        for _ in range(4):
            b.record_failure()
        clock.advance(10.0)
        assert b.allow()
        assert not b.allow()  # the only probe slot is out
        b.release_probe()  # the granted request was shed before the model
        assert b.allow()

    def test_reset_closes_unconditionally(self):
        resets = []
        b = _breaker(_FakeClock())
        b.on_reset = resets.append
        for _ in range(4):
            b.record_failure()
        b.reset()
        assert b.state == "closed"
        assert b.allow()
        assert resets == [b]

    def test_stats_shape(self):
        b = _breaker(_FakeClock())
        b.record_success(0.01)
        stats = b.stats()
        assert stats["state"] == "closed"
        assert stats["success_count"] == 1
        assert stats["window_filled"] == 1


# -- fallback -------------------------------------------------------------------


class TestNativeCostFallback:
    def test_deterministic_and_positive(self, native_plans):
        fb = NativeCostFallback()
        a = fb.predict(native_plans)
        b = fb.predict(native_plans)
        assert (a == b).all()
        assert (a > 0).all()
        assert a.dtype == np.float64

    def test_neutral_environment_factor_is_one(self, native_plans):
        fb = NativeCostFallback()
        assert environment_factor_from_features((1.0, 0.0, 0.0, 0.0)) == pytest.approx(1.0)
        base = fb.predict(native_plans)
        neutral = fb.predict(native_plans, env_features=(1.0, 0.0, 0.0, 0.0))
        np.testing.assert_allclose(neutral, base)

    def test_busier_environment_scales_up_uniformly(self, native_plans):
        fb = NativeCostFallback()
        base = fb.predict(native_plans)
        busy = fb.predict(native_plans, env_features=(0.1, 0.3, 0.9, 0.9))
        factor = environment_factor_from_features((0.1, 0.3, 0.9, 0.9))
        assert factor > 1.0
        np.testing.assert_allclose(busy, base * factor)
        # shared factor: candidate ranking is unchanged.
        assert np.argsort(busy).tolist() == np.argsort(base).tolist()

    def test_select_best_index_is_argmin(self, native_plans):
        fb = NativeCostFallback()
        index, predictions = fb.select_best_index(native_plans, env_features=ENV)
        assert index == int(np.argmin(predictions))
        with pytest.raises(ValueError):
            fb.select_best_index([])


# -- gateway guardrail paths (stub service) -------------------------------------


class TestGatewayFallbackPaths:
    def test_no_model_answers_baseline_bitwise(self, native_plans):
        with OptimizerGateway(None) as gw:
            for env in (None, ENV):
                result = gw.predict(native_plans, env_features=env)
                assert result.fallback
                assert result.reason == "no-model"
                assert result.model_version is None
                expected = NativeCostFallback().predict(native_plans, env_features=env)
                assert (result.costs == expected).all()
        assert gw.telemetry.counter("fallback_no_model_total").value == 2

    def test_learned_path_flags_source_and_version(self):
        service = _StubService()
        with OptimizerGateway(service) as gw:
            result = gw.predict(_marker_plans(3.0, 1.0, 2.0))
            assert not result.fallback
            assert (result.source, result.reason) == ("learned", "ok")
            assert result.model_version == 1
            assert (result.costs == [3.0, 1.0, 2.0]).all()
            assert np.argmin(result) == 1  # array protocol
            assert len(result) == 3 and list(result) == [3.0, 1.0, 2.0]
            assert result[1] == 1.0

    def test_empty_request_answers_immediately(self):
        with OptimizerGateway(_StubService()) as gw:
            result = gw.predict([])
            assert len(result) == 0
            assert result.reason == "ok"

    def test_model_error_answers_baseline_bitwise(self, native_plans):
        with OptimizerGateway(_StubService()) as gw:
            gw.inject_faults(1)
            result = gw.predict(native_plans, env_features=ENV)
            assert result.fallback
            assert result.reason == "model-error"
            expected = NativeCostFallback().predict(native_plans, env_features=ENV)
            assert (result.costs == expected).all()
            assert np.isfinite(result.costs).all()
            # fault budget spent: the learned path recovers.
            assert gw.predict(_marker_plans(1.0)).source == "learned"

    def test_deadline_miss_returns_fallback_without_blocking(self, native_plans):
        service = _StubService(delay=0.5)
        with OptimizerGateway(service) as gw:
            started = time.monotonic()
            result = gw.predict(native_plans, env_features=ENV, deadline_ms=30)
            elapsed = time.monotonic() - started
            assert result.fallback
            assert result.reason == "deadline"
            assert elapsed < 0.4  # answered well before the 0.5 s learned path
            expected = NativeCostFallback().predict(native_plans, env_features=ENV)
            assert (result.costs == expected).all()
            assert gw.telemetry.counter("deadline_miss_total").value == 1
            # the abandoned batch eventually lands as a slow call.
            deadline = time.monotonic() + 2.0
            while gw.breaker.slow_count == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert gw.breaker.slow_count == 1

    def test_default_deadline_from_config(self, native_plans):
        service = _StubService(delay=0.5)
        config = GatewayConfig(default_deadline_ms=30)
        with OptimizerGateway(service, config=config) as gw:
            result = gw.predict(native_plans, env_features=ENV)
            assert result.reason == "deadline"

    def test_shed_when_queue_full(self, native_plans):
        service = _StubService(delay=0.25)
        config = GatewayConfig(max_queue_depth=1, coalesce_window_ms=0.0)
        with OptimizerGateway(service, config=config) as gw:
            results = {}

            def call(key):
                results[key] = gw.predict(_marker_plans(float(key)))

            # a: picked up by the worker (sleeping in the stub);
            # b: parked on the queue (depth 1 == max) -> next caller sheds.
            a = threading.Thread(target=call, args=(1,))
            a.start()
            time.sleep(0.08)
            b = threading.Thread(target=call, args=(2,))
            b.start()
            time.sleep(0.08)
            shed = gw.predict(native_plans, env_features=ENV)
            assert shed.fallback
            assert shed.reason == "shed"
            expected = NativeCostFallback().predict(native_plans, env_features=ENV)
            assert (shed.costs == expected).all()
            a.join()
            b.join()
            # the queued callers still got learned answers.
            assert results[1].source == "learned" and results[1][0] == 1.0
            assert results[2].source == "learned" and results[2][0] == 2.0
            assert gw.telemetry.counter("fallback_shed_total").value == 1
            # ... and the shed split attributes it to the queue.
            assert gw.telemetry.counter("sheds_total").value == 1
            assert gw.telemetry.counter("shed_queue_full_total").value == 1

    def test_shed_split_counters_by_reason(self, native_plans):
        """``sheds_total`` splits per reason: a deadline miss and a
        post-close refusal land in different counters (health-based
        fallbacks like no-model never count as sheds)."""
        service = _StubService(delay=0.3)
        with OptimizerGateway(service) as gw:
            r = gw.predict(native_plans, env_features=ENV, deadline_ms=30)
            assert r.reason == "deadline"
            gw.close()
            r = gw.predict(native_plans, env_features=ENV)
            assert r.reason == "closed"
            counters = gw.stats()["counters"]
            assert counters["sheds_total"] == 2
            assert counters["shed_deadline_total"] == 1
            assert counters["shed_closed_total"] == 1
            assert "shed_queue_full_total" not in counters
        with OptimizerGateway(None) as gw:
            assert gw.predict(native_plans, env_features=ENV).reason == "no-model"
            assert "sheds_total" not in gw.stats()["counters"]

    def test_coalesces_compatible_requests(self):
        service = _StubService(delay=0.08)
        config = GatewayConfig(coalesce_window_ms=25.0)
        with OptimizerGateway(service, config=config) as gw:
            results = [None] * 8

            def call(i):
                results[i] = gw.predict(_marker_plans(float(i), float(i) + 0.5))

            threads = [threading.Thread(target=call, args=(i,)) for i in range(8)]
            for th in threads:
                th.start()
            for th in threads:
                th.join()
            # every caller got exactly its own slice of the merged batches.
            for i, result in enumerate(results):
                assert result.source == "learned"
                assert (result.costs == [float(i), float(i) + 0.5]).all()
            # 16 plans went through in fewer batches than callers.
            assert sum(n for n, _ in service.calls) == 16
            assert len(service.calls) < 8
            assert max(n for n, _ in service.calls) > 2

    def test_mixed_environments_never_merge(self):
        service = _StubService(delay=0.05)
        with OptimizerGateway(service) as gw:
            envs = [ENV, (0.9, 0.0, 0.1, 0.2), None]
            results = [None] * 3

            def call(i):
                results[i] = gw.predict(_marker_plans(float(i)), env_features=envs[i])

            threads = [threading.Thread(target=call, args=(i,)) for i in range(3)]
            for th in threads:
                th.start()
            for th in threads:
                th.join()
            assert all(r.source == "learned" for r in results)
            seen = {env for _, env in service.calls}
            assert len(service.calls) == 3  # one batch per distinct env key
            assert seen == {ENV, (0.9, 0.0, 0.1, 0.2), None}


class TestGatewayBreaker:
    def _gateway(self, service, clock, **breaker_overrides):
        breaker = _breaker(clock, **breaker_overrides)
        return OptimizerGateway(service, breaker=breaker)

    def test_repeated_errors_trip_then_circuit_open(self, native_plans):
        clock = _FakeClock()
        with self._gateway(_StubService(), clock) as gw:
            gw.inject_faults(100)
            for _ in range(4):
                assert gw.predict(native_plans).reason == "model-error"
            assert gw.breaker.state == "open"
            assert gw.telemetry.counter("breaker_trips_total").value == 1
            calls_before = len(gw.service.calls)
            result = gw.predict(native_plans, env_features=ENV)
            assert result.reason == "circuit-open"
            assert len(gw.service.calls) == calls_before  # never queued
            expected = NativeCostFallback().predict(native_plans, env_features=ENV)
            assert (result.costs == expected).all()

    def test_on_trip_hook_receives_gateway(self, native_plans):
        tripped = []
        gw = OptimizerGateway(
            _StubService(),
            breaker=_breaker(_FakeClock()),
            on_trip=tripped.append,
        )
        with gw:
            gw.inject_faults(100)
            for _ in range(4):
                gw.predict(native_plans)
        assert tripped == [gw]

    def test_half_open_probes_recover(self, native_plans):
        clock = _FakeClock()
        with self._gateway(_StubService(), clock) as gw:
            gw.inject_faults(100)
            for _ in range(4):
                gw.predict(native_plans)
            assert gw.breaker.state == "open"
            gw.inject_faults(0)  # model healthy again
            clock.advance(10.0)
            assert gw.breaker.state == "half-open"
            for marker in (1.0, 2.0):  # two probe successes close it
                result = gw.predict(_marker_plans(marker))
                assert result.source == "learned"
            assert gw.breaker.state == "closed"

    def test_half_open_failure_reopens(self, native_plans):
        clock = _FakeClock()
        with self._gateway(_StubService(), clock) as gw:
            gw.inject_faults(100)
            for _ in range(4):
                gw.predict(native_plans)
            clock.advance(10.0)
            assert gw.predict(native_plans).reason == "model-error"  # probe fails
            assert gw.breaker.state == "open"
            assert gw.breaker.trip_count == 2

    def test_swap_predictor_resets_breaker_and_version(self, native_plans):
        clock = _FakeClock()
        service = _StubService()
        with self._gateway(service, clock) as gw:
            gw.inject_faults(100)
            for _ in range(4):
                gw.predict(native_plans)
            assert gw.breaker.state == "open"
            swaps_before = gw.telemetry.counter("swaps_total").value
            gw.inject_faults(0)
            gw.swap_predictor(_StubPredictor(version=7))
            assert gw.breaker.state == "closed"
            assert service.predictor.weights_version == 7
            assert gw.telemetry.counter("swaps_total").value == swaps_before + 1
            result = gw.predict(_marker_plans(5.0))
            assert result.source == "learned"
            assert result.model_version == 7
            assert gw.telemetry.gauge("model_weights_version").value == 7

    def test_swap_without_service_raises(self):
        with OptimizerGateway(None) as gw:
            with pytest.raises(RuntimeError):
                gw.swap_predictor(_StubPredictor())

    def test_stats_and_prometheus_surface_breaker_state(self, native_plans):
        clock = _FakeClock()
        with self._gateway(_StubService(), clock) as gw:
            gw.inject_faults(100)
            for _ in range(4):
                gw.predict(native_plans)
            stats = gw.stats()
            assert stats["breaker"]["state"] == "open"
            assert stats["gauges"]["breaker_state"] == 2.0
            assert stats["has_model"] is True
            assert "repro_breaker_state 2" in gw.to_prometheus()


# -- learned path on a real trained predictor -----------------------------------


class TestGatewayLearnedReal:
    def test_matches_direct_service(self, trained):
        predictor, plans = trained
        service = CostInferenceService(predictor)
        direct = service.predict(plans[:16], env_features=ENV)
        with OptimizerGateway(service) as gw:
            result = gw.predict(plans[:16], env_features=ENV)
            assert result.source == "learned"
            np.testing.assert_allclose(result.costs, direct, rtol=1e-5)
            index, predictions = gw.select_best_index(plans[:16], env_features=ENV)
            assert index == int(np.argmin(direct))
            np.testing.assert_allclose(predictions, direct, rtol=1e-5)

    def test_logged_env_requests_match_direct_service(self, trained):
        predictor, plans = trained
        service = CostInferenceService(predictor)
        direct = service.predict(plans[:8])
        with OptimizerGateway(service) as gw:
            np.testing.assert_allclose(
                gw.predict(plans[:8]).costs, direct, rtol=1e-5
            )

    def test_concurrent_callers_match_serial_reference(self, trained):
        predictor, plans = trained
        service = CostInferenceService(predictor)
        chunks = [plans[i : i + 4] for i in range(0, 32, 4)]
        serial = [np.array(service.predict(c, env_features=ENV)) for c in chunks]
        results = [None] * len(chunks)
        with OptimizerGateway(service) as gw:

            def call(i):
                results[i] = gw.predict(chunks[i], env_features=ENV)

            threads = [
                threading.Thread(target=call, args=(i,)) for i in range(len(chunks))
            ]
            for th in threads:
                th.start()
            for th in threads:
                th.join()
            assert gw.telemetry.counter("fallback_total").value == 0
            for got, want in zip(results, serial):
                assert got.source == "learned"
                np.testing.assert_allclose(got.costs, want, rtol=1e-5)

    def test_select_best_returns_plan_and_predictions(self, trained):
        predictor, plans = trained
        with OptimizerGateway(CostInferenceService(predictor)) as gw:
            best, predictions = gw.select_best(plans[:6], env_features=ENV)
            assert best is plans[int(np.argmin(predictions))]
            with pytest.raises(ValueError):
                gw.select_best_index([])

    def test_cache_counters_surfaced_as_gauges(self, trained):
        predictor, plans = trained
        service = CostInferenceService(predictor)
        with OptimizerGateway(service) as gw:
            gw.predict(plans[:6], env_features=ENV)
            gw.predict(plans[:6], env_features=ENV)
            gauges = gw.stats()["gauges"]
            for tier in ("encoding_cache", "prediction_cache"):
                for counter in ("hits", "misses", "evictions", "size", "capacity"):
                    assert f"serving_{tier}_{counter}" in gauges
            assert gauges["serving_prediction_cache_hits"] >= 1
            assert gauges["serving_encoding_cache_misses"] >= 6
            # Cold-path attribution split rides the same export: the first
            # request was a full cold encode + forward, so both timers ran.
            for gauge in (
                "serving_encode_seconds",
                "serving_forward_seconds",
                "serving_quantize_seconds",
                "serving_parallel_encode_batches",
                "serving_warmed_plans",
                "serving_quantized_active",
                "serving_quantize_gate_rel_err",
            ):
                assert gauge in gauges
            assert gauges["serving_encode_seconds"] > 0.0
            assert gauges["serving_forward_seconds"] > 0.0
            assert gauges["serving_quantized_active"] == 0.0  # no quantize=

    def test_close_is_idempotent_and_answers_late_callers(self, trained):
        predictor, plans = trained
        gw = OptimizerGateway(CostInferenceService(predictor))
        gw.close()
        gw.close()


# -- prediction-cache hits on the caller's thread -------------------------------


class TestCallerThreadHits:
    def test_hit_skips_queue_worker_and_batch(self, trained):
        predictor, plans = trained
        service = CostInferenceService(predictor)
        with OptimizerGateway(service) as gw:
            cold = gw.predict(plans[:6], env_features=ENV)
            histograms = gw.stats()["histograms"]
            assert histograms["queue_wait_seconds"]["count"] == 1
            requests = service.stats().requests
            hit = gw.predict(plans[:6], env_features=ENV)
            assert (hit.source, hit.reason) == ("learned", "ok")
            np.testing.assert_array_equal(hit.costs, cold.costs)
            assert gw.telemetry.counter("batches_total").value == 1
            snapshot = gw.stats()
            assert snapshot["histograms"]["queue_wait_seconds"]["count"] == 1
            assert snapshot["histograms"]["request_latency_seconds"]["count"] == 2
            assert snapshot["counters"]["learned_total"] == 2
            assert service.stats().requests == requests + 1

    def test_half_open_hit_returns_probe_slot(self, trained):
        predictor, plans = trained
        clock = _FakeClock()
        gw = OptimizerGateway(
            CostInferenceService(predictor), breaker=_breaker(clock)
        )
        with gw:
            assert gw.predict(plans[:4], env_features=ENV).source == "learned"
            gw.inject_faults(100)
            for i in range(4):
                gw.predict(plans[8 + i : 9 + i], env_features=ENV)
            assert gw.breaker.state == "open"
            gw.inject_faults(0)
            clock.advance(10.0)
            # More hits than half-open probe slots: each hands its slot back.
            for _ in range(5):
                assert gw.predict(plans[:4], env_features=ENV).source == "learned"
            assert gw.breaker.state == "half-open"
            # Both probes are still available to misses, which close it.
            for i in range(2):
                cold = plans[20 + i : 21 + i]
                assert gw.predict(cold, env_features=ENV).source == "learned"
            assert gw.breaker.state == "closed"

    def test_swap_and_weights_bump_recompute_cached_sets(
        self, trained, project_with_history
    ):
        import copy

        predictor, plans = trained
        served = copy.deepcopy(predictor)
        service = CostInferenceService(served)
        with OptimizerGateway(service) as gw:
            gw.predict(plans[:6], env_features=ENV)
            served.weights_version += 1  # a refit in place
            batches = gw.telemetry.counter("batches_total").value
            gw.predict(plans[:6], env_features=ENV)
            assert gw.telemetry.counter("batches_total").value == batches + 1

            records = project_with_history.repository.records[:80]
            other = AdaptiveCostPredictor(config=TINY)
            other.fit(
                [r.plan for r in records], [r.cpu_cost * 40.0 for r in records]
            )
            before = gw.predict(plans[:6], env_features=ENV)
            gw.swap_predictor(other)
            after = gw.predict(plans[:6], env_features=ENV)
            assert gw.telemetry.counter("batches_total").value == batches + 2
            assert after.model_version == other.weights_version
            assert not np.allclose(before.costs, after.costs)
            fresh = CostInferenceService(other).predict(plans[:6], env_features=ENV)
            np.testing.assert_allclose(after.costs, fresh, rtol=1e-5)

    def test_partial_hit_takes_batch_path_and_counts_once(self, trained):
        predictor, plans = trained
        service = CostInferenceService(predictor)
        with OptimizerGateway(service) as gw:
            gw.predict(plans[:4], env_features=ENV)
            before = service.stats()
            result = gw.predict(plans[:8], env_features=ENV)
            assert result.source == "learned"
            assert gw.telemetry.counter("batches_total").value == 2
            after = service.stats()
            assert after.prediction_hits == before.prediction_hits + 4
            assert after.prediction_misses == before.prediction_misses + 4
            assert after.requests == before.requests + 1
            direct = CostInferenceService(predictor).predict(
                plans[:8], env_features=ENV
            )
            np.testing.assert_allclose(result.costs, direct, rtol=1e-5)

    def test_zero_deadline_warm_set_answers_learned(self, trained):
        predictor, plans = trained
        with OptimizerGateway(CostInferenceService(predictor)) as gw:
            gw.predict(plans[:6], env_features=ENV)
            result = gw.predict(plans[:6], env_features=ENV, deadline_ms=0)
            assert (result.source, result.reason) == ("learned", "ok")
            cold = gw.predict(plans[10:12], env_features=ENV, deadline_ms=0)
            assert cold.reason == "deadline"

    def test_closed_gateway_refuses_warm_sets(self, trained):
        predictor, plans = trained
        gw = OptimizerGateway(CostInferenceService(predictor))
        assert gw.predict(plans[:4], env_features=ENV).source == "learned"
        gw.close()
        assert gw.predict(plans[:4], env_features=ENV).reason == "closed"

    def test_armed_faults_bypass_the_cache(self, trained):
        predictor, plans = trained
        with OptimizerGateway(CostInferenceService(predictor)) as gw:
            gw.predict(plans[:4], env_features=ENV)
            gw.inject_faults(1)
            assert gw.predict(plans[:4], env_features=ENV).reason == "model-error"
            assert gw.predict(plans[:4], env_features=ENV).source == "learned"

    def test_failing_cache_lookup_falls_through_to_the_batch_path(self):
        class _BrokenCacheService(_StubService):
            def cached_predict(self, plans, *, env_features):
                raise RuntimeError("cache lookup failed")

        service = _BrokenCacheService()
        with OptimizerGateway(service) as gw:
            result = gw.predict(_marker_plans(1.0, 2.0), env_features=ENV)
            assert result.source == "learned"
            assert (result.costs == [1.0, 2.0]).all()
            assert len(service.calls) == 1

    def test_concurrent_callers_half_warm_match_serial_reference(self, trained):
        predictor, plans = trained
        service = CostInferenceService(predictor)
        chunks = [plans[i : i + 4] for i in range(0, 32, 4)]
        serial = [
            np.array(CostInferenceService(predictor).predict(c, env_features=ENV))
            for c in chunks
        ]
        results = [None] * len(chunks)
        with OptimizerGateway(service) as gw:
            for chunk in chunks[::2]:  # half the requests arrive warm
                gw.predict(chunk, env_features=ENV)
            batches = gw.telemetry.counter("batches_total").value

            def call(i):
                results[i] = gw.predict(chunks[i], env_features=ENV)

            threads = [
                threading.Thread(target=call, args=(i,)) for i in range(len(chunks))
            ]
            for th in threads:
                th.start()
            for th in threads:
                th.join()
            assert gw.telemetry.counter("fallback_total").value == 0
            # Only the cold half reached the worker.
            assert gw.telemetry.counter("batches_total").value - batches <= 4
            for got, want in zip(results, serial):
                assert got.source == "learned"
                np.testing.assert_allclose(got.costs, want, rtol=1e-5)


# -- BLAS threading ---------------------------------------------------------------


def _openblas_or_skip():
    """``(get, set)`` thread-count functions of the loaded OpenBLAS."""
    from repro.evaluation import pool

    funcs = pool._loaded_openblas()
    if funcs is None:
        pytest.skip("numpy is not linked against a findable OpenBLAS")
    return funcs


class TestBlasPinning:
    def test_gateway_pins_its_process_to_one_blas_thread(self):
        from repro.evaluation import pool

        get_threads, set_threads = _openblas_or_skip()
        set_threads(2)
        try:
            with OptimizerGateway(_StubService()):
                assert get_threads() == 1
        finally:
            pool.pin_blas_threads(1)

    def test_pin_caps_a_pool_a_forked_child_inherited(self):
        import os

        from repro.evaluation import pool

        get_threads, set_threads = _openblas_or_skip()
        if not pool.fork_available():
            pytest.skip("fork not available")
        set_threads(2)
        try:
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:  # child: report the inherited count, pin, report again
                try:
                    inherited = get_threads()
                    pool.pin_blas_threads(1)
                    os.write(write_fd, f"{inherited} {get_threads()}".encode())
                finally:
                    os._exit(0)
            os.close(write_fd)
            with os.fdopen(read_fd) as fh:
                report = fh.read()
            os.waitpid(pid, 0)
        finally:
            pool.pin_blas_threads(1)
        inherited, pinned = map(int, report.split())
        assert (inherited, pinned) == (2, 1)
        assert os.environ["OPENBLAS_NUM_THREADS"] == "1"


# -- shutdown drain -------------------------------------------------------------


class TestGatewayClose:
    def test_predict_after_close_answers_fallback_immediately(self, native_plans):
        gw = OptimizerGateway(_StubService())
        gw.close()
        started = time.monotonic()
        result = gw.predict(native_plans, env_features=ENV)
        assert time.monotonic() - started < 1.0
        assert result.fallback and result.reason == "closed"
        expected = NativeCostFallback().predict(native_plans, env_features=ENV)
        assert (result.costs == expected).all()
        counters = gw.stats()["counters"]
        assert counters["fallback_closed_total"] == 1

    def test_close_drains_admitted_requests(self):
        """Requests admitted before close() are still answered (learned when
        the worker can finish them) — no caller is left stranded."""
        class _StubFallback:
            def predict(self, plans, *, env_features=None):
                return np.array([-p.marker for p in plans], dtype=np.float64)

        service = _StubService(delay=0.05)
        gw = OptimizerGateway(service, fallback=_StubFallback())
        results: list = []
        lock = threading.Lock()

        def caller(marker: float) -> None:
            r = gw.predict(_marker_plans(marker))
            with lock:
                results.append(r)

        threads = [threading.Thread(target=caller, args=(float(i),)) for i in range(6)]
        for t in threads:
            t.start()
        time.sleep(0.01)  # let the first batch start, the rest queue up
        gw.close()
        for t in threads:
            t.join(timeout=10.0)
        assert not any(t.is_alive() for t in threads), "caller stranded across close()"
        assert len(results) == 6
        for r in results:
            assert np.isfinite(np.asarray(r.costs)).all()

    def test_close_fails_over_stuck_inflight_requests(self):
        """A learned path stuck past the close timeout must not strand the
        caller whose request it is holding: close() fails it over and the
        caller answers from the fallback with reason ``closed``."""
        release = threading.Event()

        class _StuckService:
            predictor = _StubPredictor()

            def predict(self, plans, *, env_features=None):
                release.wait(20.0)
                return np.zeros(len(plans))

        class _StubFallback:
            def predict(self, plans, *, env_features=None):
                return np.array([-p.marker for p in plans], dtype=np.float64)

        gw = OptimizerGateway(_StuckService(), fallback=_StubFallback())
        done: list = []

        def caller() -> None:
            done.append(gw.predict(_marker_plans(1.0)))

        t = threading.Thread(target=caller)
        t.start()
        time.sleep(0.05)  # worker is now blocked inside the learned path
        gw.close(timeout=0.2)
        t.join(timeout=10.0)
        release.set()  # unstick the daemon worker before the test exits
        assert not t.is_alive(), "caller stranded on a stuck learned path"
        assert done and done[0].fallback and done[0].reason == "closed"

    def test_close_wakes_callers_held_by_a_blocking_trip_hook(self):
        """Callers are woken only after the breaker has accounted their
        batch; if a trip hook then blocks the worker, close() still hands
        the already-computed answer to the waiting caller."""
        class _StubFallback:
            def predict(self, plans, *, env_features=None):
                return np.array([-p.marker for p in plans], dtype=np.float64)

        release = threading.Event()
        breaker = _breaker(_FakeClock())
        breaker.on_trip = lambda _: release.wait(20.0)
        gw = OptimizerGateway(_StubService(), breaker=breaker, fallback=_StubFallback())
        gw.inject_faults(100)
        for _ in range(3):
            assert gw.predict(_marker_plans(1.0)).reason == "model-error"
        done: list = []
        t = threading.Thread(target=lambda: done.append(gw.predict(_marker_plans(1.0))))
        t.start()
        time.sleep(0.05)  # the 4th failure trips; the worker sits in the hook
        assert not done
        gw.close(timeout=0.1)
        t.join(timeout=10.0)
        release.set()
        assert not t.is_alive(), "caller stranded behind a blocking trip hook"
        assert done and done[0].reason == "model-error"

    def test_close_racing_deadline_expiry_answers_closed(self):
        """close() fails a stuck in-flight request over *before* the
        caller's deadline fires: the caller wakes on the failover event,
        answers ``closed`` (never ``deadline``), never blocks, and the
        pacer slot comes back exactly once."""
        release = threading.Event()

        class _StuckService:
            predictor = _StubPredictor()

            def predict(self, plans, *, env_features=None):
                release.wait(20.0)
                return np.zeros(len(plans))

        class _StubFallback:
            def predict(self, plans, *, env_features=None):
                return np.array([-p.marker for p in plans], dtype=np.float64)

        config = GatewayConfig(pacer=PacerConfig())
        gw = OptimizerGateway(_StuckService(), config=config, fallback=_StubFallback())
        done: list = []

        def caller() -> None:
            done.append(gw.predict(_marker_plans(1.0), deadline_ms=2000))

        t = threading.Thread(target=caller)
        t.start()
        time.sleep(0.05)  # worker blocked inside the learned path
        started = time.monotonic()
        gw.close(timeout=0.1)  # failover completes well inside the budget
        t.join(timeout=10.0)
        release.set()
        assert not t.is_alive(), "caller stranded across close()"
        assert done and done[0].fallback and done[0].reason == "closed"
        # Woke on the failover, not by waiting out the 2 s deadline.
        assert time.monotonic() - started < 1.5
        assert gw.pacer.inflight == 0
        assert gw.stats()["counters"]["shed_closed_total"] == 1

    def test_deadline_expiry_racing_close_answers_deadline(self):
        """The mirror race: the deadline fires first, the caller answers
        ``deadline`` immediately, and the close() that follows releases the
        stranded request's pacer slot instead of leaking it."""
        release = threading.Event()

        class _StuckService:
            predictor = _StubPredictor()

            def predict(self, plans, *, env_features=None):
                release.wait(20.0)
                return np.zeros(len(plans))

        class _StubFallback:
            def predict(self, plans, *, env_features=None):
                return np.array([-p.marker for p in plans], dtype=np.float64)

        config = GatewayConfig(pacer=PacerConfig())
        gw = OptimizerGateway(_StuckService(), config=config, fallback=_StubFallback())
        result = gw.predict(_marker_plans(1.0), deadline_ms=30)
        assert result.fallback and result.reason == "deadline"
        assert gw.pacer.inflight == 1  # the stuck batch still holds it
        gw.close(timeout=0.1)
        release.set()
        assert gw.pacer.inflight == 0
        counters = gw.stats()["counters"]
        assert counters["shed_deadline_total"] == 1


# -- queue-wait / service-time latency split ------------------------------------


class TestLatencySplit:
    def test_queue_wait_and_service_time_histograms(self):
        service = _StubService(delay=0.02)
        with OptimizerGateway(service) as gw:
            for marker in (1.0, 2.0, 3.0):
                assert gw.predict(_marker_plans(marker)).source == "learned"
            snapshot = gw.stats()["histograms"]
            assert snapshot["queue_wait_seconds"]["count"] == 3
            assert snapshot["service_time_seconds"]["count"] == 3
            # The split attributes the end-to-end latency: the stub sleeps
            # 20 ms inside the learned path, so service time dominates and
            # both halves are bounded by the request latency.
            assert snapshot["service_time_seconds"]["p50"] >= 0.02
            total = snapshot["request_latency_seconds"]
            assert snapshot["queue_wait_seconds"]["p50"] <= total["max"]
            prom = gw.to_prometheus()
            assert "repro_queue_wait_seconds" in prom
            assert "repro_service_time_seconds" in prom


# -- lifecycle wiring -----------------------------------------------------------


class TestLifecycleGateway:
    def test_gateway_before_bootstrap_serves_fallback(self, trained, native_plans):
        from repro.lifecycle import ModelLifecycle

        predictor, plans = trained
        lifecycle = ModelLifecycle()
        gw = lifecycle.serve_through_gateway()
        try:
            assert not gw.has_model
            result = gw.predict(native_plans)
            assert result.reason == "no-model"
            lifecycle.bootstrap(predictor, environment_features=ENV)
            assert gw.has_model
            learned = gw.predict(plans[:4], env_features=ENV)
            assert learned.source == "learned"
            direct = lifecycle.service.predict(plans[:4], env_features=ENV)
            np.testing.assert_allclose(learned.costs, direct, rtol=1e-5)
        finally:
            gw.close()

    def test_breaker_trip_flags_drift_retrain(self, trained, native_plans):
        from repro.lifecycle import ModelLifecycle

        predictor, _ = trained
        lifecycle = ModelLifecycle()
        breaker = _breaker(_FakeClock())
        gw = lifecycle.serve_through_gateway(breaker=breaker)
        try:
            lifecycle.bootstrap(predictor, environment_features=ENV)
            gw.inject_faults(100)
            for _ in range(4):
                assert gw.predict(native_plans).fallback
            assert gw.breaker.state == "open"
            # the feedback log is empty (below min_samples), yet the trip
            # alone must force the retrain signal.
            report = lifecycle.check_drift()
            assert report.retrain
            assert any("circuit-breaker-trip:v1" in r for r in report.reasons)
            # the flag is consumed: a later assessment is healthy again.
            assert not lifecycle.check_drift().retrain
        finally:
            gw.close()

    def test_promotion_hot_swap_resets_gateway_breaker(self, trained):
        from repro.lifecycle import CanaryConfig, ModelLifecycle

        predictor, plans = trained
        lifecycle = ModelLifecycle(canary=CanaryConfig(min_holdout=4))
        breaker = _breaker(_FakeClock())
        gw = lifecycle.serve_through_gateway(breaker=breaker)
        try:
            lifecycle.bootstrap(predictor, environment_features=ENV)
            predicted = gw.predict(plans[:20], env_features=ENV)
            for plan, cost in zip(plans[:20], predicted.costs):
                lifecycle.observe(
                    plan, float(cost), predicted_cost=float(cost), env_features=ENV
                )
            for _ in range(4):
                gw.breaker.record_failure()
            assert gw.breaker.state == "open"
            # an identical-weights candidate (the registered checkpoint
            # reloaded) ties the incumbent, which the regression gate
            # admits -> hot swap -> breaker reset.
            candidate, _ = lifecycle.registry.load(1)
            report, entry = lifecycle.submit_candidate(
                candidate, environment_features=ENV
            )
            assert report.decision == "promote"
            assert entry is not None
            assert gw.breaker.state == "closed"
            assert gw.predict(plans[:4], env_features=ENV).source == "learned"
        finally:
            gw.close()
