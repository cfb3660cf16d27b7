"""Benchmark-side tracing for the per-layer (``--trace 1``) run.

The program is not instrumented.  Instead the benchmark wraps what it
hands to each layer and times calls into public functions:

* :class:`ServiceProbe` stands in for the inference service passed to an
  ``OptimizerGateway`` and records one ``serving.predict`` span per call;
* :func:`probe_encoder` wraps the service encoder's public ``encode_plan``;
* the load generator records spans around its own calls (gateway and fleet
  ``predict``, lifecycle ``observe``/``check_drift``, ``fit``,
  ``submit_candidate``) and times ``ping`` round trips.

Spans are ``(name, start, end, parent, request)`` records kept in memory
and written as JSONL when the run ends.  A layer's self time is its span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import threading
import time

import numpy as np


class SpanRecorder:
    """In-memory span store.  ``enabled=False`` makes every probe a plain
    pass-through (the untraced pass of a traced run)."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.enabled = True
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._next_id = 0

    def record(self, name, start, end, *, parent=None, request=None, **attrs) -> int:
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
            self.spans.append(
                {
                    "id": span_id,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "request": request,
                    **attrs,
                }
            )
        return span_id

    def write_jsonl(self, path) -> int:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, default=_jsonable) + "\n")
        return len(self.spans)


def _jsonable(value):
    if isinstance(value, (np.integer, np.floating)):
        return value.item()
    if isinstance(value, (set, frozenset, tuple)):
        return list(value)
    return str(value)


class ServiceProbe:
    """Proxy for a ``CostInferenceService`` handed to a gateway as its
    ``service``: times ``predict`` and forwards everything else."""

    def __init__(self, service, recorder: SpanRecorder) -> None:
        self._service = service
        self._recorder = recorder

    def predict(self, plans, *, env_features=None):
        recorder = self._recorder
        if not recorder.enabled:
            return self._service.predict(plans, env_features=env_features)
        start = recorder.clock()
        out = self._service.predict(plans, env_features=env_features)
        recorder.record(
            "serving.predict",
            start,
            recorder.clock(),
            n_plans=len(plans),
            plan_ids=[id(p) for p in plans],
        )
        return out

    def __getattr__(self, name):
        return getattr(self._service, name)


class _EncodeProbe:
    """Timing wrapper installed over one encoder's ``encode_plan``.  It
    pickles as the plain bound method, so an encoder shipped to a fork-pool
    worker (serving's parallel encode) carries no recorder with it."""

    def __init__(self, inner, recorder: SpanRecorder) -> None:
        self.inner = inner
        self.recorder = recorder

    def __call__(self, *args, **kwargs):
        recorder = self.recorder
        if not recorder.enabled:
            return self.inner(*args, **kwargs)
        start = recorder.clock()
        out = self.inner(*args, **kwargs)
        recorder.record("encoding.encode_plan", start, recorder.clock())
        return out

    def __reduce__(self):
        return (_identity, (self.inner,))


def _identity(value):
    return value


def probe_encoder(service, recorder: SpanRecorder) -> None:
    """Wrap ``service.encoder.encode_plan`` (idempotent; call again after a
    model swap, which installs the new model's encoder)."""
    encoder = service.encoder
    if not isinstance(encoder.__dict__.get("encode_plan"), _EncodeProbe):
        encoder.encode_plan = _EncodeProbe(encoder.encode_plan, recorder)


def attach_children(parents: list[dict], children: list[dict]) -> dict[int, list[dict]]:
    """Match each child span (e.g. ``serving.predict``, recorded on the
    gateway's worker thread) to the parent spans whose interval contains
    it and whose candidate plans it scored.  A coalesced service call
    serves, and so becomes a child of, every request in its batch."""
    children = sorted(children, key=lambda s: s["start"])
    starts = np.array([c["start"] for c in children])
    matched: dict[int, list[dict]] = {}
    for parent in parents:
        lo = int(np.searchsorted(starts, parent["start"], side="left"))
        hi = int(np.searchsorted(starts, parent["end"], side="right"))
        mine = []
        want = parent.get("plan_ids")
        for child in children[lo:hi]:
            if child["end"] > parent["end"]:
                continue
            if want is not None and not set(want) <= set(child.get("plan_ids", ())):
                continue
            mine.append(child)
        matched[parent["id"]] = mine
    return matched


def self_time(span: dict, children: list[dict]) -> float:
    """``span``'s duration minus the union of its children's intervals."""
    covered = 0.0
    cursor = span["start"]
    for child in sorted(children, key=lambda c: c["start"]):
        start = max(child["start"], cursor)
        end = min(child["end"], span["end"])
        if end > start:
            covered += end - start
            cursor = end
    return (span["end"] - span["start"]) - covered
