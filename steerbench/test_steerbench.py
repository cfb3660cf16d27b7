"""Tests of the benchmark's own parts (not of the program it measures).

Run from the repository root: ``python3 -m pytest steerbench -q``.
"""

from __future__ import annotations

import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import loadgen  # noqa: E402
import runner  # noqa: E402
from loadgen import Outcome, Tally, open_loop, tail_percentile  # noqa: E402
from probes import attach_children, self_time  # noqa: E402
from workloads import ColdClusterEnv, HotRecurring, TenantsFleet  # noqa: E402

ENV_R = (0.5, 0.05, 0.3, 0.6)


def _digest(workload_cls, seed, *args):
    workload = workload_cls(*args)
    stack = SimpleNamespace(
        runtime=SimpleNamespace(env_r=ENV_R, profile=SimpleNamespace(n_machines=20)),
        sets=[None] * 48,
    )
    workload.prepare(runner._rng(seed, workload.name, "inputs"), stack)
    return runner.make_inputs(workload, seed, 1.0).digest


@pytest.mark.parametrize(
    "workload_cls,args", [(HotRecurring, ()), (ColdClusterEnv, ()), (TenantsFleet, (2,))]
)
def test_same_seed_same_stream_digest_other_seed_other_digest(workload_cls, args):
    first = _digest(workload_cls, 5, *args)
    assert first == _digest(workload_cls, 5, *args)
    assert first != _digest(workload_cls, 6, *args)


class _FakeClock:
    """A shared virtual clock: ``sleep`` advances it, and so does the
    fake target's service time."""

    def __init__(self):
        self.t = 0.0
        self.lock = threading.Lock()

    def __call__(self):
        return self.t

    def sleep(self, seconds):
        with self.lock:
            self.t += max(0.0, seconds)


def test_stall_makes_queued_requests_late_by_the_stall():
    clock = _FakeClock()
    stall_at, stall = 3, 0.5
    service = 0.001

    def fire(req):
        clock.sleep(stall if req == stall_at else service)
        return SimpleNamespace(source="learned", reason="ok")

    n = 10
    offsets = [0.01 * i for i in range(n)]  # due every 10 ms, well apart
    outcomes = open_loop(fire, list(range(n)), offsets, threads=1, clock=clock,
                         sleep=clock.sleep, lead=0.0)
    for o in outcomes[:stall_at + 1]:
        assert o.late == pytest.approx(0.0, abs=1e-9)
    assert outcomes[stall_at].latency == pytest.approx(stall)
    # Requests due during the stall are sent when it ends, and their
    # latency, timed from the due time, includes the wait.
    stall_end = offsets[stall_at] + stall
    for o in outcomes[stall_at + 1:]:
        expected_send = max(o.due, stall_end + service * (o.index - stall_at - 1))
        assert o.sent == pytest.approx(expected_send, abs=1e-9)
        assert o.late == pytest.approx(expected_send - o.due, abs=1e-9)
        assert o.latency == pytest.approx(o.late + service, abs=1e-9)
    assert outcomes[stall_at + 1].late == pytest.approx(stall - 0.01, abs=1e-9)


def test_open_loop_sends_on_schedule_with_real_clock():
    sent = []

    def fire(req):
        sent.append(time.perf_counter())
        return SimpleNamespace(source="learned", reason="ok")

    offsets = np.arange(20) * 0.002
    outcomes = open_loop(fire, list(range(20)), offsets, threads=2)
    assert len(outcomes) == 20 and all(o is not None for o in outcomes)
    assert all(o.late >= 0.0 for o in outcomes)
    assert all(o.latency >= o.late for o in outcomes)


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(list(range(19))) is None
    assert tail_percentile(list(range(20)))[0] == 50.0
    assert tail_percentile(list(range(99)))[0] == 50.0
    assert tail_percentile(list(range(100)))[0] == 90.0
    assert tail_percentile(list(range(999)))[0] == 90.0
    p, value = tail_percentile(list(range(1000)))
    assert p == 99.0 and value == 989
    assert tail_percentile(list(range(10_000)))[0] == 99.9


def test_quantile_is_nearest_rank():
    assert loadgen.quantile([3, 1, 2], 0.5) == 2
    assert loadgen.quantile([1, 2, 3, 4], 0.5) == 2
    assert loadgen.quantile([1, 2, 3, 4], 1.0) == 4
    assert np.isnan(loadgen.quantile([], 0.5))


def test_fail_share_counts_fallback_error_and_wrong():
    def outcome(source, error=None):
        result = None if error else SimpleNamespace(source=source, reason="pacer-limit")
        return Outcome(0, 0.0, 0.0, 0.001, result, error)

    tally = Tally().extend(
        [outcome("learned")] * 6 + [outcome("fallback")] * 2 + [outcome(None, "boom")]
    )
    tally.wrong = 1  # one learned answer failed the re-score
    assert tally.attempted == 9
    assert (tally.learned, tally.fallback, tally.errors) == (6, 2, 1)
    assert tally.failed == 4
    assert tally.fail_share == pytest.approx(4 / 9)
    assert tally.reasons == {"pacer-limit": 2}
    merged = tally.merge(Tally().extend([outcome("learned")]))
    assert merged.attempted == 10 and merged.failed == 4


def test_self_time_subtracts_the_union_of_matched_children():
    request = {"id": 1, "start": 0.0, "end": 10.0, "plan_ids": [7, 8]}
    other = {"id": 2, "start": 20.0, "end": 30.0, "plan_ids": [9]}
    calls = [
        {"id": 3, "start": 2.0, "end": 5.0, "plan_ids": [7, 8, 9]},  # coalesced batch
        {"id": 4, "start": 4.0, "end": 6.0, "plan_ids": [7, 8]},  # overlaps the first
        {"id": 5, "start": 7.0, "end": 8.0, "plan_ids": [1]},  # another request's plans
        {"id": 6, "start": 9.0, "end": 11.0, "plan_ids": [7, 8]},  # ends after the request
        {"id": 7, "start": 21.0, "end": 22.0, "plan_ids": [9]},
    ]
    children = attach_children([request, other], calls)
    assert [c["id"] for c in children[1]] == [3, 4]
    assert [c["id"] for c in children[2]] == [7]
    assert self_time(request, children[1]) == pytest.approx(10.0 - 4.0)
