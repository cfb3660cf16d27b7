"""Load generation and accounting for the steering benchmark.

The generator lives in the benchmark's own process and drives a serving
target through a ``fire(request) -> GatewayResult``-shaped callable:

* :func:`open_loop` sends each request at its scheduled time from at most
  ``threads`` sender threads, and times it from when it was *due*, not
  from when a sender got to it.  A stall in the target therefore shows up
  as latency on every request queued behind it, and :attr:`Outcome.late`
  says how late the generator itself sent.
* :func:`closed_loop` runs ``callers`` threads that send back to back for
  a fixed wall time (the throughput phase).

Every call yields an :class:`Outcome`; :class:`Tally` turns outcomes into
the failure share the benchmark reports (fallbacks, errors and wrong
answers, over requests attempted).
"""

from __future__ import annotations

import hashlib
import math
import threading
import time
from dataclasses import dataclass, field

import numpy as np

#: Percentiles :func:`tail_percentile` chooses from, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)
#: Samples a reported percentile must have beyond it.
MIN_TAIL_SAMPLES = 10


def quantile(values, q: float) -> float:
    """Nearest-rank quantile (``q`` in [0, 1]) of ``values``; NaN when empty."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


def tail_percentile(values) -> tuple[float, float] | None:
    """The highest percentile of :data:`PERCENTILE_LADDER` that has at least
    :data:`MIN_TAIL_SAMPLES` samples beyond it, as ``(percentile, value)``;
    ``None`` when even the median lacks that many."""
    n = len(values)
    best = None
    for p in PERCENTILE_LADDER:
        if n * (1.0 - p / 100.0) >= MIN_TAIL_SAMPLES - 1e-9:
            best = p
    if best is None:
        return None
    return best, quantile(values, best / 100.0)


@dataclass
class Outcome:
    """One request as the generator saw it (perf-counter seconds)."""

    index: int
    due: float
    sent: float
    done: float
    result: object = None
    error: str | None = None

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def late(self) -> float:
        return self.sent - self.due

    @property
    def learned(self) -> bool:
        return self.error is None and getattr(self.result, "source", None) == "learned"


@dataclass
class Tally:
    """Request accounting of one phase: every attempt ends learned,
    fallback (any reason), error, or wrong (learned but failing the
    correctness check)."""

    attempted: int = 0
    learned: int = 0
    fallback: int = 0
    errors: int = 0
    wrong: int = 0
    reasons: dict[str, int] = field(default_factory=dict)

    def add(self, outcome: Outcome) -> None:
        self.attempted += 1
        if outcome.error is not None:
            self.errors += 1
        elif outcome.learned:
            self.learned += 1
        else:
            self.fallback += 1
            reason = getattr(outcome.result, "reason", "unknown")
            self.reasons[reason] = self.reasons.get(reason, 0) + 1

    def extend(self, outcomes) -> "Tally":
        for outcome in outcomes:
            self.add(outcome)
        return self

    def merge(self, other: "Tally") -> "Tally":
        out = Tally(
            self.attempted + other.attempted,
            self.learned + other.learned,
            self.fallback + other.fallback,
            self.errors + other.errors,
            self.wrong + other.wrong,
            dict(self.reasons),
        )
        for reason, count in other.reasons.items():
            out.reasons[reason] = out.reasons.get(reason, 0) + count
        return out

    @property
    def failed(self) -> int:
        return self.fallback + self.errors + self.wrong

    @property
    def fail_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def as_dict(self) -> dict:
        return {
            "attempted": self.attempted,
            "learned": self.learned,
            "fallback": self.fallback,
            "errors": self.errors,
            "wrong": self.wrong,
            "fallback_reasons": dict(sorted(self.reasons.items())),
            "fail_share": self.fail_share,
        }


def _call(fire, request, index: int, due: float, clock) -> Outcome:
    sent = clock()
    try:
        result = fire(request)
        error = None
    except Exception as exc:  # noqa: BLE001 - a raising request is a counted failure
        result, error = None, f"{type(exc).__name__}: {exc}"
    return Outcome(index, due, sent, clock(), result, error)


def open_loop(
    fire,
    requests,
    offsets,
    *,
    threads: int,
    clock=time.perf_counter,
    sleep=time.sleep,
    lead: float = 0.05,
) -> list[Outcome]:
    """Send ``requests[i]`` at ``start + offsets[i]`` (offsets ascending)
    from ``threads`` sender threads sharing one cursor.  A sender takes the
    next due request as soon as it is free, so when the target stalls the
    backlog is sent late and each outcome's latency counts the wait."""
    n = len(requests)
    outcomes: list[Outcome | None] = [None] * n
    cursor = [0]
    lock = threading.Lock()
    start = clock() + lead

    def sender() -> None:
        while True:
            with lock:
                i = cursor[0]
                if i >= n:
                    return
                cursor[0] = i + 1
            due = start + offsets[i]
            wait = due - clock()
            if wait > 0:
                sleep(wait)
            outcomes[i] = _call(fire, requests[i], i, due, clock)

    _run_threads(sender, threads, "open-loop")
    return outcomes  # type: ignore[return-value]


def closed_loop(
    fire, requests, *, callers: int, seconds: float, clock=time.perf_counter
) -> tuple[list[Outcome], float]:
    """``callers`` threads each send the next unsent request as soon as
    their previous one returns, until ``seconds`` have passed or
    ``requests`` run out.  Returns the outcomes (in send order) and the
    phase's wall time; a request's latency is measured from its send."""
    n = len(requests)
    outcomes: list[Outcome | None] = [None] * n
    cursor = [0]
    lock = threading.Lock()
    started = clock()
    stop = started + seconds

    def caller() -> None:
        while True:
            with lock:
                i = cursor[0]
                if i >= n or clock() >= stop:
                    return
                cursor[0] = i + 1
            outcomes[i] = _call(fire, requests[i], i, clock(), clock)

    _run_threads(caller, callers, "closed-loop")
    elapsed = clock() - started
    return [o for o in outcomes[: cursor[0]] if o is not None], elapsed


def _run_threads(target, count: int, name: str) -> None:
    workers = [
        threading.Thread(target=target, name=f"{name}-{i}", daemon=True)
        for i in range(max(1, count))
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()


def poisson_offsets(rng: np.random.Generator, rate: float, count: int) -> np.ndarray:
    """``count`` Poisson arrival times (seconds from the phase start)."""
    return np.cumsum(rng.exponential(1.0 / rate, size=count))


def zipf_ranks(rng: np.random.Generator, n: int, s: float, count: int) -> np.ndarray:
    """``count`` 0-based ranks drawn with probability ∝ ``(rank + 1) ** -s``."""
    weights = np.arange(1, n + 1, dtype=np.float64) ** -s
    return rng.choice(n, size=count, p=weights / weights.sum())


def stream_digest(requests) -> str:
    """SHA-256 over the exact generated inputs (floats by their hex form),
    so two runs can show they received identical streams."""
    h = hashlib.sha256()
    for request in requests:
        h.update(_canonical(request).encode())
        h.update(b"\n")
    return h.hexdigest()


def _canonical(value) -> str:
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(_canonical(v) for v in value) + ")"
    if isinstance(value, np.floating):
        return float(value).hex()
    return str(value)
