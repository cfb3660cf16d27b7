"""Sharded multi-process serving fleet (docs/FLEET.md).

Breaks the single-process gateway's GIL throughput cap by running N
worker processes — each a ``CostInferenceService`` loaded from a registry
checkpoint — behind a consistent-hash tenant router that applies one
breaker, pacer, deadline and fallback per shard, with staged
registry-driven promotes, crash containment, and merged fleet telemetry.
"""

from repro.fleet.fleet import ServingFleet, WorkerCrashError
from repro.fleet.router import ConsistentHashRouter
from repro.fleet.telemetry import merge_snapshots, merged_to_prometheus

__all__ = [
    "ConsistentHashRouter",
    "ServingFleet",
    "WorkerCrashError",
    "merge_snapshots",
    "merged_to_prometheus",
]
