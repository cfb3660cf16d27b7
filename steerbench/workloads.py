"""The benchmark's workloads, their inputs and the adaptation episodes.

Every workload serves the same generated project (fixed ``PROJECT_SEED``:
the warehouse, candidate pools and incumbent model are part of the
system under test, not of its input).  ``--seed`` drives the inputs the
program receives: arrival times, which candidate set each request asks
about, tenants, environments and the drift episodes' observed costs.

* ``hot-recurring`` — 24 recurring candidate sets at the representative
  environment e_r through one default ``OptimizerGateway``: after warm-up
  every request is a prediction-cache hit, so the gateway's own admission,
  queue and thread hop are nearly all the work.
* ``cold-cluster-env`` — ~450 candidate sets, more than the service's
  1,024-entry encoding cache and 128-entry bucket cache hold, each request
  with a fresh cluster-current environment (LOAM-CB): every request misses
  the prediction cache, so serving encode + forward dominate.
* ``tenants-fleet`` — a ``ServingFleet`` of ``nproc`` workers with
  per-shard pacers serving 1,024 Zipf(1.1) tenants, each with its own
  environment and 4 recurring candidate sets sent by ``plans_key``.

Every workload also runs drift episodes in logical mode (sequential
requests, every learned answer observed, drift checked on a cadence, a
flag driving fit → canary → promote → swap → warm) through its own kind
of serving target, so model writes are measured beside reads on each
serving topology.

An episode is the repository's ``drift`` scenario: a lifecycle built by
``build_lifecycle`` from the incumbent, a lead-in, then observed costs x4.
Each episode gets a fresh lifecycle.  Chaining episodes on one lifecycle
loses later canaries to stale history, because ``ModelLifecycle`` drops
the 192-record feedback log ``build_lifecycle`` passes it (an empty
``FeedbackLog`` is falsy, so ``feedback or FeedbackLog()`` substitutes a
4,096-record one).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

import sysinfo
from loadgen import Outcome, zipf_ranks
from probes import ServiceProbe, SpanRecorder, probe_encoder

from repro.core.predictor import AdaptiveCostPredictor, PredictorConfig
from repro.gateway.fallback import environment_factor_from_features
from repro.warehouse.cluster import Cluster
from repro.workload.replay import ScenarioRuntime, build_lifecycle, current_checkpoint_path
from repro.workload.scenarios import DEFAULT_FAMILIES

#: Seed of the generated project (warehouse, candidate pools, incumbent).
PROJECT_SEED = 7

# One drift episode, with the cadence of ``repro.workload.ReplayConfig``'s
# defaults; the onset sits at a fixed request index, so the number of
# requests to adapt depends on the inputs and the program only.
CHECK_EVERY = 16
RETRAIN_BACKLOG = 160
RETRAIN_WINDOW = 128
RETRAIN_EPOCHS = 12
DRIFT_FACTOR = 4.0
NOISE_SIGMA = 0.10
EPISODE_LEAD = 96
#: Room after the onset for a canary reject, a re-flag at the next check
#: and a second retrain (the canary rejects about one candidate in 200).
EPISODE_LENGTH = 480
RECURRING_SETS = 24


class Req(NamedTuple):
    """One generated steering request."""

    index: int
    tenant: str
    set_index: int
    env: tuple


@dataclass
class Stack:
    """One set-up serving stack and what the load generator needs to use it."""

    root: Path
    runtime: ScenarioRuntime
    sets: list
    plans: list[list]
    incumbent: AdaptiveCostPredictor
    lifecycle: object = None
    send: Callable[[Req], object] = None
    gateway: object = None
    fleet: object = None
    closers: list = field(default_factory=list)

    def close(self) -> None:
        for close in reversed(self.closers):
            close()
        self.closers.clear()


class Workload:
    """A named traffic mix.  Subclasses set the pool size, rates and how
    requests pick candidate sets, tenants and environments."""

    name = ""
    why = ""
    pool_size = 8
    #: Open-loop Poisson rate (requests/s), well below the open-loop
    #: capacity measured on a 2-core machine.
    open_rps = 100.0
    #: Upper bound on closed-loop throughput, to size the request list.
    closed_cap_rps = 4000.0
    warm_requests = 200

    # -- set-up ---------------------------------------------------------------

    def build(self, root: Path, recorder: SpanRecorder | None) -> Stack:
        """Project, candidate pools, incumbent, lifecycle and serving target."""
        runtime = ScenarioRuntime(pool_size=self.pool_size, seed=PROJECT_SEED)
        pools = runtime.pools(DEFAULT_FAMILIES)
        sets = [cs for name in sorted(pools) for cs in pools[name]]
        incumbent = runtime.train_incumbent()
        stack = Stack(root, runtime, sets, [list(cs.plans) for cs in sets], incumbent)
        self.boot(stack)
        stack.lifecycle = self.lifecycle(stack, "serve")
        stack.send = self.target(stack, stack.lifecycle, recorder)
        stack.gateway = getattr(stack.send, "gateway", None)
        return stack

    def boot(self, stack: Stack) -> None:
        """Start long-lived serving processes (the fleet)."""

    def lifecycle(self, stack: Stack, tag: str):
        return build_lifecycle(stack.runtime, stack.incumbent, registry=stack.root / tag)

    def target(self, stack: Stack, lifecycle, recorder: SpanRecorder | None):
        """A ``send(req)`` serving through ``lifecycle``'s gateway."""
        gateway = lifecycle.serve_through_gateway()
        stack.closers.append(gateway.close)
        plans = stack.plans
        if recorder is None:
            def send(req):
                return gateway.predict(plans[req.set_index], env_features=req.env)
        else:
            gateway.attach_service(ServiceProbe(lifecycle.service, recorder))
            probe_encoder(lifecycle.service, recorder)

            def send(req):
                batch = plans[req.set_index]
                if not recorder.enabled:
                    return gateway.predict(batch, env_features=req.env)
                start = recorder.clock()
                result = gateway.predict(batch, env_features=req.env)
                recorder.record(
                    "gateway.predict",
                    start,
                    recorder.clock(),
                    request=req.index,
                    plan_ids=[id(p) for p in batch],
                    source=result.source,
                )
                return result

        send.gateway = gateway
        return send

    def restore(self, stack: Stack) -> None:
        """Serve the set-up lifecycle's model again after an episode (the
        episodes promote into their own lifecycles' gateways)."""

    def after_swap(self, lifecycle, recorder: SpanRecorder | None) -> None:
        """Re-install probes a model swap replaced (the new encoder)."""
        if recorder is not None:
            probe_encoder(lifecycle.service, recorder)

    # -- inputs ---------------------------------------------------------------

    def prepare(self, rng: np.random.Generator, stack: Stack) -> None:
        """Per-run input state (tenants, environment sources) from the seed."""
        self.env_r = stack.runtime.env_r
        self.n_sets = len(stack.sets)

    def requests(self, rng: np.random.Generator, count: int, start: int = 0) -> list[Req]:
        sets = rng.integers(self.n_sets, size=count)
        return [Req(start + i, "t0", int(s), self.env_r) for i, s in enumerate(sets)]


class HotRecurring(Workload):
    name = "hot-recurring"
    why = (
        "24 recurring candidate sets at e_r: after warm-up every request hits the "
        "prediction cache, so the gateway's admission, queue and thread hop dominate"
    )
    pool_size = 8
    open_rps = 600.0
    closed_cap_rps = 20000.0


class ColdClusterEnv(Workload):
    name = "cold-cluster-env"
    why = (
        "~450 candidate sets with a fresh cluster-current environment each: every "
        "request misses the prediction cache, so serving encode + forward dominate"
    )
    pool_size = 150
    open_rps = 400.0
    closed_cap_rps = 8000.0
    warm_requests = 300

    def prepare(self, rng, stack) -> None:
        super().prepare(rng, stack)
        seed = int(rng.integers(2**63))
        self.cluster = Cluster(stack.runtime.profile.n_machines, rng=np.random.default_rng(seed))

    def requests(self, rng, count, start=0):
        out = []
        cluster = self.cluster
        for i, s in enumerate(rng.integers(self.n_sets, size=count)):
            cluster.advance(1)
            env = cluster.cluster_environment().normalized()
            out.append(Req(start + i, "t0", int(s), tuple(float(v) for v in env)))
        return out


class TenantsFleet(Workload):
    name = "tenants-fleet"
    why = (
        "1,024 Zipf(1.1) tenants with own environments on a paced nproc-worker fleet: "
        "head tenants hit cache, the tail misses; route, pickle and pipe dominate"
    )
    pool_size = 32
    open_rps = 200.0
    closed_cap_rps = 8000.0
    warm_requests = 400
    n_tenants = 1024
    zipf_s = 1.1
    sets_per_tenant = 4

    def __init__(self, workers: int) -> None:
        self.workers = workers

    def boot(self, stack) -> None:
        from repro.fleet import ServingFleet
        from repro.pacing import PacerConfig

        # Booted model-less; each lifecycle attached to it rolls its
        # current checkpoint out to every worker.
        stack.fleet = ServingFleet(None, n_workers=self.workers, pacer_config=PacerConfig())
        stack.closers.append(stack.fleet.close)

    def target(self, stack, lifecycle, recorder):
        fleet = stack.fleet
        lifecycle.attach_fleet(fleet)
        plans, sets = stack.plans, stack.sets

        def send(req):
            return fleet.predict(
                req.tenant,
                plans[req.set_index],
                env_features=req.env,
                plans_key=sets[req.set_index].key,
            )

        if recorder is None:
            return send

        def traced(req):
            if not recorder.enabled:
                return send(req)
            start = recorder.clock()
            result = send(req)
            recorder.record(
                "fleet.predict",
                start,
                recorder.clock(),
                request=req.index,
                shard=fleet.router.route(req.tenant),
                plans_key=sets[req.set_index].key,
                source=result.source,
            )
            return result

        return traced

    def restore(self, stack) -> None:
        # The fleet is shared: episodes promoted their models into it.
        stack.fleet.promote(current_checkpoint_path(stack.lifecycle))

    def after_swap(self, lifecycle, recorder) -> None:
        pass

    def prepare(self, rng, stack) -> None:
        super().prepare(rng, stack)
        seed = int(rng.integers(2**63))
        cluster = Cluster(stack.runtime.profile.n_machines, rng=np.random.default_rng(seed))
        self.tenant_sets = []
        self.tenant_envs = []
        for _ in range(self.n_tenants):
            cluster.advance(30)
            env = cluster.cluster_environment().normalized()
            self.tenant_envs.append(tuple(float(v) for v in env))
            self.tenant_sets.append(
                rng.choice(self.n_sets, size=self.sets_per_tenant, replace=False)
            )

    def requests(self, rng, count, start=0):
        ranks = zipf_ranks(rng, self.n_tenants, self.zipf_s, count)
        picks = rng.integers(self.sets_per_tenant, size=count)
        return [
            Req(
                start + i,
                f"tenant-{int(r)}",
                int(self.tenant_sets[r][p]),
                self.tenant_envs[r],
            )
            for i, (r, p) in enumerate(zip(ranks, picks))
        ]


def workload_named(name: str, workers: int) -> Workload:
    if name == TenantsFleet.name:
        return TenantsFleet(workers)
    for cls in (HotRecurring, ColdClusterEnv):
        if cls.name == name:
            return cls()
    raise KeyError(name)


WORKLOAD_CLASSES = (HotRecurring, ColdClusterEnv, TenantsFleet)


# -- steering benefit and correctness -------------------------------------------


def steering_benefit(stack: Stack, answers) -> float:
    """Mean relative oracle-cost saving (``CandidateSet.true_costs``) of
    the chosen plan over the native default plan.  ``answers`` are
    ``(req, result)`` pairs; they are averaged per candidate set first, so
    the figure does not depend on which sets the stream happened to draw
    more often."""
    per_set: dict[int, list[float]] = {}
    for req, result in answers:
        cs = stack.sets[req.set_index]
        chosen = int(np.argmin(np.asarray(result.costs)))
        default = cs.true_costs[cs.default_index]
        per_set.setdefault(req.set_index, []).append(
            (default - cs.true_costs[chosen]) / max(default, 1e-9)
        )
    return float(np.mean([np.mean(v) for v in per_set.values()]))


@dataclass
class Verdict:
    checked: int = 0
    distinct: int = 0
    wrong: int = 0
    baseline_checked: int = 0
    baseline_wrong: int = 0
    examples: list = field(default_factory=list)


def verify(stack: Stack, items, *, rtol: float = 1e-5, baseline_sample: int = 16,
           rng: np.random.Generator | None = None) -> Verdict:
    """Re-score every learned answer with the reference predictor path
    (``AdaptiveCostPredictor.predict`` of the model that was serving) and
    compare within ``rtol``.  ``items`` are ``(req, result, predictor)``.
    A seeded sample of the distinct answers is also checked against
    ``predict_baseline``, the unoptimised path."""
    verdict = Verdict()
    refs: dict = {}
    for req, result, predictor in items:
        verdict.checked += 1
        key = (id(predictor), req.set_index, req.env)
        entry = refs.get(key)
        if entry is None:
            ref = np.asarray(predictor.predict(stack.plans[req.set_index], env_features=req.env))
            entry = refs[key] = (predictor, ref)
        ref = entry[1]
        got = np.asarray(result.costs, dtype=np.float64)
        if got.shape != ref.shape or not np.allclose(got, ref, rtol=rtol, atol=0.0):
            verdict.wrong += 1
            if len(verdict.examples) < 3:
                verdict.examples.append(
                    {"request": req.index, "got": got.tolist(), "ref": ref.tolist()}
                )
    verdict.distinct = len(refs)
    keys = list(refs)
    if keys and baseline_sample:
        rng = rng or np.random.default_rng(0)
        for j in rng.choice(len(keys), size=min(baseline_sample, len(keys)), replace=False):
            _, set_index, env = keys[int(j)]
            predictor, ref = refs[keys[int(j)]]
            base = predictor.predict_baseline(stack.plans[set_index], env_features=env)
            verdict.baseline_checked += 1
            if not np.allclose(ref, base, rtol=rtol, atol=0.0):
                verdict.baseline_wrong += 1
    return verdict


# -- adaptation loop -------------------------------------------------------------


@dataclass
class EpisodeInputs:
    """One drift episode's requests, observed-cost factors (x4 from
    ``EPISODE_LEAD`` on) and lognormal execution noise."""

    requests: list[Req]
    factors: np.ndarray
    noises: np.ndarray


def episode_inputs(workload: Workload, rng: np.random.Generator, start: int) -> EpisodeInputs:
    """Requests keep the workload's tenants but ask about its first
    ``RECURRING_SETS`` candidate sets (spread over the families) at e_r,
    the ``drift`` scenario's shape.  The retrain learns from (plan,
    observed cost) pairs, which carry no request environment, and from one
    observation per request; with varying environments or hundreds of
    sets the canary cannot tell two undertrained models apart."""
    step = max(1, workload.n_sets // RECURRING_SETS)
    requests = [
        r._replace(set_index=(r.set_index % RECURRING_SETS) * step, env=workload.env_r)
        for r in workload.requests(rng, EPISODE_LENGTH, start=start)
    ]
    factors = np.ones(EPISODE_LENGTH)
    factors[EPISODE_LEAD:] = DRIFT_FACTOR
    noises = np.exp(rng.normal(-0.5 * NOISE_SIGMA**2, NOISE_SIGMA, size=EPISODE_LENGTH))
    return EpisodeInputs(requests, factors, noises)


@dataclass
class Episode:
    """What one drift episode did, and what it cost."""

    outcomes: list[Outcome] = field(default_factory=list)
    #: ``(req, result, predictor serving)`` for each learned answer.
    answers: list = field(default_factory=list)
    flagged: int | None = None
    retrains: int = 0
    promoted_at: int | None = None
    fit_s: float = 0.0
    submit_s: float = 0.0
    #: CPU from fit start until the promoted model serves: all processes,
    #: and the benchmark process alone (fit, canary, registry, its swap).
    retrain_cpu_s: float = 0.0
    parent_retrain_cpu_s: float = 0.0
    canary: str = ""
    wall_s: float = 0.0
    cpu_parent: float = 0.0
    cpu_children: float = 0.0
    digest: str = ""
    #: The episode lifecycle's ``ServingStats`` afterwards.
    service_stats: dict = field(default_factory=dict)

    @property
    def adapt_requests(self) -> int | None:
        """Requests from drift onset to the first answer of the promoted
        model (the one right after the promote, in logical mode)."""
        if self.promoted_at is None:
            return None
        return self.promoted_at + 2 - EPISODE_LEAD

    @property
    def retrain_s(self) -> float:
        return self.fit_s + self.submit_s

    def summary(self) -> dict:
        return {
            "flagged": self.flagged,
            "retrains": self.retrains,
            "promoted_at": self.promoted_at,
            "adapt_requests": self.adapt_requests,
            "fit_s": self.fit_s,
            "submit_s": self.submit_s,
            "retrain_cpu_s": self.retrain_cpu_s,
            "parent_retrain_cpu_s": self.parent_retrain_cpu_s,
            "canary": self.canary,
            "wall_s": self.wall_s,
            "digest": self.digest,
        }


def run_episode(workload: Workload, stack: Stack, inputs: EpisodeInputs, tag: str,
                recorder: SpanRecorder | None = None, clock=time.perf_counter) -> Episode:
    """One drift episode in logical mode (sequential requests) through a
    fresh lifecycle and the workload's kind of serving target.  Every
    learned answer's outcome is observed, drift is checked every
    ``CHECK_EVERY`` observations, and a flag drives, after
    ``RETRAIN_BACKLOG`` more observations, fit → ``submit_candidate``.
    Wall and CPU time count the request loop, not the episode's set-up."""
    tracing = recorder is not None and recorder.enabled
    lifecycle = workload.lifecycle(stack, tag)
    send = workload.target(stack, lifecycle, recorder)
    episode = Episode()
    digest = hashlib.sha256()
    reference = lifecycle.predictor
    observations = 0
    pending = None
    pids = sysinfo.child_pids()
    p0, c0 = sysinfo.cpu_seconds(pids)
    started = clock()
    for i, req in enumerate(inputs.requests):
        t0 = clock()
        try:
            result, error = send(req), None
        except Exception as exc:  # noqa: BLE001 - counted as a failed request
            result, error = None, f"{type(exc).__name__}: {exc}"
        episode.outcomes.append(Outcome(req.index, t0, t0, clock(), result, error))
        if error is not None:
            digest.update(f"{i}|error\n".encode())
            continue
        costs = np.asarray(result.costs, dtype=np.float64)
        chosen = int(np.argmin(costs))
        digest.update(f"{i}|{chosen}|{result.source}|{result.reason}|".encode())
        digest.update(costs.tobytes())
        if result.source != "learned":
            continue
        episode.answers.append((req, result, reference))
        cs = stack.sets[req.set_index]
        observed = float(
            cs.true_costs[chosen]
            * environment_factor_from_features(req.env)
            * inputs.factors[i]
            * inputs.noises[i]
        )
        t1 = clock()
        lifecycle.observe(
            cs.plans[chosen], observed, predicted_cost=float(costs[chosen]), env_features=req.env
        )
        if tracing:
            recorder.record("lifecycle.observe", t1, clock(), request=req.index)
        observations += 1
        if episode.promoted_at is not None:
            continue
        if pending is None:
            if observations % CHECK_EVERY == 0:
                t1 = clock()
                report = lifecycle.check_drift()
                if tracing:
                    recorder.record("lifecycle.check_drift", t1, clock(), request=req.index)
                if report.retrain:
                    pending = observations
                    if episode.flagged is None:
                        episode.flagged = i
                    digest.update(f"E|flagged|{i}\n".encode())
        elif observations - pending >= RETRAIN_BACKLOG:
            records = lifecycle.feedback.scoreable()[-RETRAIN_WINDOW:]
            cpu1 = sysinfo.cpu_seconds(pids)
            t1 = clock()
            candidate = AdaptiveCostPredictor(config=PredictorConfig(epochs=RETRAIN_EPOCHS))
            candidate.fit([r.plan for r in records], [r.observed_cost for r in records])
            t2 = clock()
            report, entry = lifecycle.submit_candidate(
                candidate, environment_features=stack.runtime.env_r
            )
            t3 = clock()
            cpu3 = sysinfo.cpu_seconds(pids)
            if tracing:
                recorder.record("predictor.fit", t1, t2, request=req.index)
                recorder.record("lifecycle.submit_candidate", t2, t3, request=req.index,
                                promoted=entry is not None)
            episode.retrains += 1
            episode.canary = report.summary()
            pending = None
            digest.update(f"E|{report.decision}|{i}\n".encode())
            if entry is not None:
                episode.promoted_at = i
                episode.fit_s, episode.submit_s = t2 - t1, t3 - t2
                episode.retrain_cpu_s = sum(cpu3) - sum(cpu1)
                episode.parent_retrain_cpu_s = cpu3[0] - cpu1[0]
                reference = lifecycle.predictor
                workload.after_swap(lifecycle, recorder)
    episode.wall_s = clock() - started
    p1, c1 = sysinfo.cpu_seconds(pids)
    episode.cpu_parent, episode.cpu_children = p1 - p0, c1 - c0
    episode.digest = digest.hexdigest()
    episode.service_stats = lifecycle.service.stats().as_dict()
    return episode
