"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``demo``      run the quickstart pipeline on a generated project;
``variance``  print the recurring-cost variance study (challenge C1);
``explain``   compile a SQL statement against a generated project and print
              the default plan plus every steered candidate;
``fleet-select``  run Filter + Ranker over a generated fleet and print rankings;
``fleet``     run the sharded serving-fleet round trip: forked gateway
              workers behind the consistent-hash tenant router, learned
              answers checked against a direct in-process service, a
              staged checkpoint promote that must converge every shard,
              and a worker crash that must shed only its own shard's
              tenants and remap them to the survivors.  Exits non-zero
              if any guardrail misbehaves (skips cleanly where ``fork``
              is unavailable);
``lifecycle`` run the full model-lifecycle round trip on a generated
              project: train → register/bootstrap → feedback → drift →
              canary (an injected regressed candidate must be rejected,
              then a genuine retrain is canaried against the incumbent);
``gateway``   run the serving-front-end round trip: concurrent traffic
              through the optimizer gateway, induced model failure (every
              request must still answer, from the native fallback, and the
              circuit breaker must trip and raise a drift signal), recovery
              through half-open probes, and a hot swap resetting the
              breaker.  Exits non-zero if any guardrail misbehaves;
``pacer``     run the BBR-style admission-pacing self-check: first a
              deterministic fake-clock walk through the pacer state
              machine (STARTUP growth, DRAIN, PROBE_BW gain cycling,
              PROBE_RTT, reset), then a real gateway under thread
              overload — excess load must shed with reason
              ``pacer-limit``, admitted traffic must converge the
              rate/latency estimators out of STARTUP, and a hot swap
              must re-enter STARTUP and re-learn.  Exits non-zero if
              any check fails;
``scenarios`` run the scenario-engine self-check: the ``drift`` scenario
              replayed through a live lifecycle must flag drift, retrain,
              canary, and promote exactly once; ``steady`` must never
              retrain; and two fixed-seed replays must produce
              bit-identical stream and outcome digests.  ``--list``
              prints the scenario registry; ``--scenario NAME`` replays
              one scenario against ``--target gateway|fleet`` and prints
              its per-regime table;
``trace``     run the observability self-check: a traced request must
              stitch into one complete span tree (gateway request →
              coalesced batch → serving kernels), a forced breaker trip
              must auto-dump the flight recorder's ring as JSONL, and
              the SLO monitor's burn-rate gauges must appear in the
              Prometheus exposition.  Exits non-zero if any check fails.

All commands are deterministic given ``--seed`` (the ``gateway`` command's
traffic is concurrent, so request *interleaving* — not results — may vary).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LOAM reproduction: learned query optimization on MiniDW",
    )
    parser.add_argument("--seed", type=int, default=7, help="master random seed")
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="train LOAM on one project and validate")
    demo.add_argument("--days", type=int, default=10, help="history days to simulate")
    demo.add_argument("--queries-per-day", type=int, default=60)
    demo.add_argument("--epochs", type=int, default=8)

    sub.add_parser("variance", help="recurring-query cost variance study")

    explain = sub.add_parser("explain", help="compile SQL and show steered candidates")
    explain.add_argument("sql", help="a MiniDW SELECT statement (see repro.warehouse.sql)")

    fleet_select = sub.add_parser(
        "fleet-select", help="project selection over a generated fleet"
    )
    fleet_select.add_argument("--projects", type=int, default=10)

    fleet = sub.add_parser(
        "fleet",
        help="sharded serving-fleet round trip: shards/promote/crash-remap",
    )
    fleet.add_argument("--days", type=int, default=6, help="history days to simulate")
    fleet.add_argument("--epochs", type=int, default=4)
    fleet.add_argument("--workers", type=int, default=3, help="fleet shard processes")
    fleet.add_argument("--tenants", type=int, default=24, help="distinct tenants routed")

    lifecycle = sub.add_parser(
        "lifecycle", help="model lifecycle round trip: registry/feedback/drift/canary"
    )
    lifecycle.add_argument("--days", type=int, default=8, help="history days to simulate")
    lifecycle.add_argument("--epochs", type=int, default=6)
    lifecycle.add_argument(
        "--registry", default=None,
        help="registry directory (default: an ephemeral temporary directory)",
    )

    gateway = sub.add_parser(
        "gateway",
        help="serving front-end round trip: concurrency/fallback/breaker/recovery",
    )
    gateway.add_argument("--days", type=int, default=6, help="history days to simulate")
    gateway.add_argument("--epochs", type=int, default=4)
    gateway.add_argument("--threads", type=int, default=8, help="concurrent callers")
    gateway.add_argument(
        "--requests", type=int, default=6, help="requests per caller thread"
    )

    pacer = sub.add_parser(
        "pacer",
        help="admission-pacing self-check: state machine + gateway overload",
    )
    pacer.add_argument("--threads", type=int, default=8, help="overload caller threads")
    pacer.add_argument(
        "--seconds", type=float, default=1.5, help="overload traffic duration"
    )

    scenarios = sub.add_parser(
        "scenarios",
        help="scenario-engine self-check: replay regimes through the lifecycle",
    )
    scenarios.add_argument(
        "--list", action="store_true", help="list registered scenarios and exit"
    )
    scenarios.add_argument(
        "--scenario",
        default=None,
        help="replay one named scenario and print its per-regime table",
    )
    scenarios.add_argument(
        "--target",
        choices=("gateway", "fleet"),
        default="gateway",
        help="serving target to replay against",
    )
    scenarios.add_argument(
        "--epochs", type=int, default=10, help="incumbent training epochs"
    )

    trace = sub.add_parser(
        "trace",
        help="observability self-check: span stitching, flight recorder, SLO export",
    )
    trace.add_argument("--days", type=int, default=4, help="history days to simulate")
    trace.add_argument("--epochs", type=int, default=2, help="predictor training epochs")
    trace.add_argument(
        "--dump-dir",
        default=None,
        help="directory for flight-recorder dumps (default: a temp dir)",
    )
    return parser


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.core.loam import LOAM, LOAMConfig
    from repro.core.predictor import PredictorConfig
    from repro.warehouse.workload import ProjectProfile, generate_project

    profile = ProjectProfile(
        name="cli-demo",
        seed=args.seed,
        n_tables=14,
        n_templates=12,
        queries_per_day=float(args.queries_per_day),
        stats_availability=0.15,
        row_scale=4e5,
        n_machines=60,
    )
    print(f"Simulating {args.days} days of history on {profile.name!r}...")
    workload = generate_project(profile)
    workload.simulate_history(args.days, max_queries_per_day=args.queries_per_day)
    loam = LOAM(
        workload,
        LOAMConfig(
            max_training_queries=800,
            candidate_alignment_queries=40,
            predictor=PredictorConfig(epochs=args.epochs),
        ),
    )
    loam.train(first_day=0, last_day=args.days - 2)
    report = loam.validate([workload.sample_query(args.days - 1) for _ in range(12)])
    print(
        f"native {report.native_average_cost:,.0f} vs LOAM "
        f"{report.loam_average_cost:,.0f} -> improvement {report.improvement:+.1%}"
    )
    return 0


def _cmd_variance(args: argparse.Namespace) -> int:
    """Inline variant of examples/cost_variance_study.py (works regardless
    of the current working directory)."""
    import numpy as _np

    from repro.core.deviance import fit_lognormal, kolmogorov_smirnov_pvalue
    from repro.evaluation.reporting import format_table
    from repro.warehouse.workload import ProjectProfile, generate_project

    profile = ProjectProfile(
        name="cli-variance", seed=args.seed, n_tables=10, n_templates=8,
        stats_availability=0.3, row_scale=3e5, n_machines=60,
    )
    workload = generate_project(profile)
    flighting = workload.flighting(seed_key="cli")
    rows = []
    p_values = []
    for template in workload.templates[:6]:
        query = template.instantiate(
            f"{template.template_id}-rq", _np.random.default_rng(1)
        )
        plan = workload.optimizer.optimize(query)
        costs = flighting.sample_costs(plan, 30)
        rows.append(
            [
                template.template_id,
                f"{_np.mean(costs):,.0f}",
                f"{_np.std(costs) / _np.mean(costs):.1%}",
            ]
        )
        p_values.append(kolmogorov_smirnov_pvalue(costs, fit_lognormal(costs)))
    print(format_table(["template", "mean CPU cost", "relative std dev"], rows,
                       title="Recurring-query cost fluctuation (challenge C1)"))
    print(f"\naverage KS p-value against fitted log-normal: {_np.mean(p_values):.2f}")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.core.explorer import PlanExplorer
    from repro.warehouse.sql import parse_sql
    from repro.warehouse.workload import ProjectProfile, generate_project

    workload = generate_project(
        ProjectProfile(name="cli-explain", seed=args.seed, n_tables=12, n_templates=6)
    )
    query = parse_sql(args.sql, project="cli-explain")
    explorer = PlanExplorer(workload.optimizer)
    result = explorer.explore(query)
    for plan in result.plans:
        print(f"--- {plan.provenance}")
        print(plan.pretty())
    print(f"\n{len(result.plans)} candidate plans in {result.generation_seconds * 1e3:.1f} ms")
    return 0


def _cmd_fleet_select(args: argparse.Namespace) -> int:
    from repro.core.selector import FilterConfig, ProjectFilter
    from repro.warehouse.workload import generate_project, profile_population

    fleet = [generate_project(p) for p in profile_population(args.projects, seed=args.seed)]
    project_filter = ProjectFilter(FilterConfig.scaled(volume_scale=0.005))
    passed = 0
    for workload in fleet:
        workload.simulate_history(3, max_queries_per_day=15)
        decision = project_filter.evaluate(
            workload.repository.records, workload.catalog, horizon_day=40
        )
        status = "PASS" if decision.passed else "FAIL " + ",".join(decision.failed_rules)
        print(f"{workload.profile.name:<12} {status}")
        passed += decision.passed
    print(f"\n{passed}/{len(fleet)} projects pass the Filter (paper: 40.5%)")
    return 0


def _cmd_lifecycle(args: argparse.Namespace) -> int:
    """The guarded rollout loop end to end, suitable as a CI smoke check:
    exits non-zero if the injected regressed candidate slips past the
    canary or a promotion fails to advance ``weights_version``."""
    from dataclasses import replace

    from repro.core.loam import LOAM, LOAMConfig
    from repro.core.predictor import PredictorConfig
    from repro.evaluation.reporting import format_table
    from repro.lifecycle import (
        CanaryConfig,
        DriftConfig,
        ModelLifecycle,
        training_data_fingerprint,
    )
    from repro.warehouse.workload import ProjectProfile, generate_project

    profile = ProjectProfile(
        name="cli-lifecycle", seed=args.seed, n_tables=12, n_templates=10,
        stats_availability=0.2, row_scale=3e5, n_machines=60,
    )
    print(f"Simulating {args.days} days of history on {profile.name!r}...")
    workload = generate_project(profile)
    workload.simulate_history(args.days, max_queries_per_day=40)
    # The first model is deliberately early: trained on only the first
    # quarter of history with few epochs, the way a real project's first
    # deployment predates most of its workload.  The later full retrain is
    # the genuinely better canary candidate.
    config = LOAMConfig(
        max_training_queries=600,
        candidate_alignment_queries=30,
        predictor=PredictorConfig(epochs=max(2, args.epochs // 3)),
    )
    loam = LOAM(workload, config)
    loam.train(first_day=0, last_day=max(1, args.days // 4))
    validation = loam.validate(
        [workload.sample_query(args.days - 1) for _ in range(10)]
    )
    env = loam.environment.features()
    records = workload.repository.deduplicated()
    fingerprint = training_data_fingerprint(
        [r.plan for r in records], [r.cpu_cost for r in records]
    )

    lifecycle = ModelLifecycle(
        args.registry,
        drift=DriftConfig(min_samples=12, window=32),
        canary=CanaryConfig(holdout_fraction=0.3, min_holdout=4),
    )
    entry = lifecycle.bootstrap(
        loam.predictor,
        environment_features=env,
        training_fingerprint=fingerprint,
        metrics={"validated_improvement": validation.improvement},
    )
    print(
        f"bootstrap: v{entry.version} serving (weights_version "
        f"{entry.weights_version}, validated {validation.improvement:+.1%})"
    )

    # Feedback: validation's executed-plan outcomes plus a replay of
    # historical default plans through flighting.
    for plan, predicted, observed in validation.feedback:
        lifecycle.observe(
            plan, observed, predicted_cost=predicted, env_features=env,
            day=args.days - 1,
        )
    # Replay *recent* history: plans from after the incumbent's training
    # window, where its staleness is visible.
    flighting = workload.flighting(seed_key="cli-lifecycle")
    for record in records[-60:]:
        observed = flighting.measure_cost(record.plan, n_runs=2)
        lifecycle.observe(record.plan, observed, env_features=env, day=args.days - 1)
    print(lifecycle.check_drift().summary())

    # An injected regressed candidate: the incumbent's checkpoint with
    # heavily perturbed weights.  The canary gate must reject it.
    regressed, _ = lifecycle.registry.load(entry.version)
    rng = np.random.default_rng(args.seed)
    for param in regressed.module.parameters():
        param.data = param.data + rng.normal(0.0, 2.0, param.data.shape)
    report, _ = lifecycle.submit_candidate(regressed, environment_features=env)
    print(f"regressed candidate -> {report.summary()}")
    if report.decision != "reject":
        print("ERROR: regressed candidate was not rejected", file=sys.stderr)
        return 1

    # A genuine retrain on the full history, canaried against the incumbent.
    retrained = LOAM(
        workload,
        replace(config, predictor=replace(config.predictor, epochs=args.epochs + 4)),
    )
    retrained.train(first_day=0, last_day=args.days - 1)
    report, promoted = lifecycle.submit_candidate(
        retrained.predictor,
        environment_features=retrained.environment.features(),
        training_fingerprint=fingerprint,
    )
    print(f"retrained candidate -> {report.summary()}")
    if report.decision != "promote":
        print("ERROR: genuinely retrained candidate was not promoted", file=sys.stderr)
        return 1
    assert promoted is not None
    if promoted.weights_version <= entry.weights_version:
        print("ERROR: promotion did not advance weights_version", file=sys.stderr)
        return 1

    rows = [
        [
            f"v{e.version}",
            "current" if lifecycle.current_version.version == e.version
            else ("promoted" if e.promoted else "rejected"),
            str(e.weights_version),
            e.metrics.get("canary_decision", "-"),
        ]
        for e in lifecycle.registry.versions()
    ]
    print()
    print(format_table(["version", "status", "weights_version", "canary"], rows,
                       title="Model registry"))
    print(f"\nserving: v{lifecycle.current_version.version} "
          f"({len(lifecycle.feedback)} feedback records)")
    return 0


def _cmd_gateway(args: argparse.Namespace) -> int:
    """Serving-front-end smoke: every request must answer whatever the
    learned path does, the breaker must trip on induced failure (raising a
    drift/retrain signal), recover through half-open probes, and reset on a
    hot swap.  Suitable as a CI job; exits non-zero on any violation."""
    import threading
    import time

    from repro.core.explorer import PlanExplorer
    from repro.core.loam import LOAM, LOAMConfig
    from repro.core.predictor import PredictorConfig
    from repro.gateway import BreakerConfig, GatewayConfig, NativeCostFallback
    from repro.lifecycle import DriftConfig, ModelLifecycle
    from repro.warehouse.workload import ProjectProfile, generate_project

    failures: list[str] = []

    def check(ok: bool, what: str) -> None:
        print(("  ok   " if ok else "  FAIL ") + what)
        if not ok:
            failures.append(what)

    profile = ProjectProfile(
        name="cli-gateway", seed=args.seed, n_tables=12, n_templates=10,
        stats_availability=0.2, row_scale=3e5, n_machines=60,
    )
    print(f"Simulating {args.days} days of history on {profile.name!r}...")
    workload = generate_project(profile)
    workload.simulate_history(args.days, max_queries_per_day=30)
    loam = LOAM(
        workload,
        LOAMConfig(
            max_training_queries=400,
            candidate_alignment_queries=20,
            predictor=PredictorConfig(epochs=args.epochs),
        ),
    )
    loam.train(first_day=0, last_day=args.days - 2)
    env = loam.environment.features()

    lifecycle = ModelLifecycle(drift=DriftConfig(min_samples=8, window=16))
    cooldown = 0.3
    gateway = lifecycle.serve_through_gateway(
        config=GatewayConfig(
            max_queue_depth=64,
            breaker=BreakerConfig(
                window=8, min_calls=4, failure_rate_threshold=0.5,
                cooldown_seconds=cooldown, half_open_probes=2,
            ),
        ),
    )
    explorer = PlanExplorer(workload.optimizer)
    candidate_sets = []
    for day in range(args.days):
        plans = explorer.candidates(workload.sample_query(day), top_k=5)
        if plans:
            candidate_sets.append(plans)

    print("\n[1] no model promoted yet: requests answer from the native fallback")
    result = gateway.predict(candidate_sets[0], env_features=env)
    reference = NativeCostFallback().predict(candidate_sets[0], env_features=env)
    check(result.fallback and result.reason == "no-model", "fallback flagged no-model")
    check(bool(np.array_equal(result.costs, reference)), "fallback == baseline bitwise")

    print("\n[2] bootstrap; concurrent traffic is served by the learned model")
    entry = lifecycle.bootstrap(loam.predictor, environment_features=env)
    print(f"  serving v{entry.version} (weights_version {entry.weights_version})")
    results: list = []
    lock = threading.Lock()

    def caller() -> None:
        for i in range(args.requests):
            r = gateway.predict(candidate_sets[i % len(candidate_sets)], env_features=env)
            with lock:
                results.append(r)

    threads = [threading.Thread(target=caller) for _ in range(args.threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    check(len(results) == args.threads * args.requests, "every request answered")
    check(all(r.source == "learned" for r in results), "all answers learned")
    direct = lifecycle.service.predict(candidate_sets[0], env_features=env)
    routed = gateway.predict(candidate_sets[0], env_features=env)
    check(
        bool(np.allclose(routed.costs, direct, rtol=1e-5)),
        "gateway-batched predictions match direct service (rtol 1e-5)",
    )

    print("\n[3] induced model failure: fallback answers + breaker trip")
    gateway.inject_faults(50)
    failed = [
        gateway.predict(candidate_sets[i % len(candidate_sets)], env_features=env)
        for i in range(10)
    ]
    check(all(np.isfinite(r.costs).all() and len(r.costs) for r in failed),
          "every request still returns a cost")
    check(all(r.fallback for r in failed), "all answers flagged fallback")
    check(gateway.breaker.state == "open", "circuit breaker tripped open")
    drift = lifecycle.check_drift()
    check(drift.retrain and any("circuit-breaker-trip" in r for r in drift.reasons),
          "breaker trip raised drift/retrain signal")

    print("\n[4] recovery: cooldown, half-open probes, breaker closes")
    gateway.inject_faults(0)
    time.sleep(cooldown + 0.1)
    warm = gateway.predict(candidate_sets[0], env_features=env)
    check(warm.source == "learned" and gateway.breaker.state == "half-open",
          "half-open: a cache hit answers learned without spending a probe")
    # Probes must reach the model, so each scores under an uncached environment.
    probe_envs = [tuple(v * (0.9 - 0.1 * i) for v in env) for i in range(3)]
    recovered = [gateway.predict(candidate_sets[0], env_features=e) for e in probe_envs]
    check(gateway.breaker.state == "closed", "breaker closed after probes")
    check(recovered[-1].source == "learned", "learned answers resumed")

    print("\n[5] hot swap resets the breaker for the new model version")
    gateway.inject_faults(50)
    for i in range(10):
        gateway.predict(candidate_sets[i % len(candidate_sets)], env_features=env)
    check(gateway.breaker.state == "open", "breaker re-tripped")
    gateway.inject_faults(0)
    reloaded, _ = lifecycle.registry.load(entry.version)
    gateway.swap_predictor(reloaded)
    check(gateway.breaker.state == "closed", "swap_predictor reset the breaker")
    swapped = gateway.predict(candidate_sets[0], env_features=env)
    check(swapped.source == "learned", "new version serves learned answers")
    check(
        getattr(lifecycle.service.predictor, "weights_version", 0)
        > entry.weights_version,
        "swap advanced weights_version",
    )

    stats = gateway.stats()
    print("\nTelemetry (excerpt):")
    for name in ("requests_total", "learned_total", "fallback_total",
                 "breaker_trips_total", "deadline_miss_total"):
        value = stats["counters"].get(name, 0.0)
        print(f"  {name:<24} {value:.0f}")
    latency = stats["histograms"]["request_latency_seconds"]
    print(f"  p50/p95/p99 latency      "
          f"{1e3 * latency['p50']:.2f} / {1e3 * latency['p95']:.2f} / "
          f"{1e3 * latency['p99']:.2f} ms")
    print(f"  serving cache hits       "
          f"{stats['gauges'].get('serving_prediction_cache_hits', 0.0):.0f} prediction / "
          f"{stats['gauges'].get('serving_encoding_cache_hits', 0.0):.0f} encoding")
    print("\nPrometheus exposition (first lines):")
    for line in gateway.to_prometheus().splitlines()[:6]:
        print(f"  {line}")
    gateway.close()

    if failures:
        print(f"\nERROR: {len(failures)} gateway check(s) failed:", file=sys.stderr)
        for what in failures:
            print(f"  - {what}", file=sys.stderr)
        return 1
    print("\ngateway round trip: all checks passed")
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    """Sharded serving-fleet smoke: forked shard workers must serve the
    same learned answers as a direct in-process service, a staged promote
    must converge every shard on one weights_version, and a worker crash
    must shed only its own shard's tenants before they remap to the
    survivors.  Suitable as a CI job; exits non-zero on any violation."""
    import copy
    import tempfile
    from pathlib import Path

    from repro.core.explorer import PlanExplorer
    from repro.core.loam import LOAM, LOAMConfig
    from repro.core.predictor import PredictorConfig
    from repro.core.serialization import save_predictor
    from repro.evaluation.pool import fork_available
    from repro.fleet import ServingFleet
    from repro.serving.service import CostInferenceService
    from repro.warehouse.workload import ProjectProfile, generate_project

    if not fork_available():
        print("fleet self-check skipped: platform has no fork start method")
        return 0

    failures: list[str] = []

    def check(ok: bool, what: str) -> None:
        print(("  ok   " if ok else "  FAIL ") + what)
        if not ok:
            failures.append(what)

    profile = ProjectProfile(
        name="cli-fleet", seed=args.seed, n_tables=12, n_templates=10,
        stats_availability=0.2, row_scale=3e5, n_machines=60,
    )
    print(f"Simulating {args.days} days of history on {profile.name!r}...")
    workload = generate_project(profile)
    workload.simulate_history(args.days, max_queries_per_day=30)
    loam = LOAM(
        workload,
        LOAMConfig(
            max_training_queries=400,
            candidate_alignment_queries=20,
            predictor=PredictorConfig(epochs=args.epochs),
        ),
    )
    loam.train(first_day=0, last_day=args.days - 2)
    env = loam.environment.features()

    explorer = PlanExplorer(workload.optimizer)
    candidate_sets = []
    for day in range(args.days):
        plans = explorer.candidates(workload.sample_query(day), top_k=5)
        if plans:
            candidate_sets.append(plans)
    tenants = [f"tenant-{i}" for i in range(args.tenants)]

    with tempfile.TemporaryDirectory(prefix="loam-fleet-cli-") as tmp:
        checkpoint = Path(tmp) / "model-v1.npz"
        save_predictor(loam.predictor, checkpoint, environment_features=env)
        direct = CostInferenceService.from_checkpoint(checkpoint)

        print(f"\n[1] boot {args.workers} shard workers from the checkpoint")
        with ServingFleet(
            checkpoint, n_workers=args.workers, base_seed=args.seed
        ) as fleet:
            seeds = fleet.ping()
            check(len(seeds) == args.workers, f"all {args.workers} workers answer ping")
            check(len(set(seeds.values())) == len(seeds), "per-worker seeds distinct")

            print("\n[2] routed traffic: learned answers match the direct service")
            results = {}
            for i, tenant in enumerate(tenants):
                cs = i % len(candidate_sets)
                results[tenant] = (
                    fleet.predict(
                        tenant, candidate_sets[cs],
                        env_features=env, plans_key=f"cs-{cs}",
                    ),
                    cs,
                )
            check(all(r.source == "learned" for r, _ in results.values()),
                  "every tenant served a learned answer")
            check(
                all(
                    bool(np.allclose(
                        r.costs,
                        direct.predict(candidate_sets[cs], env_features=env),
                        rtol=1e-5,
                    ))
                    for r, cs in results.values()
                ),
                "fleet predictions match direct service (rtol 1e-5)",
            )
            owners = fleet.router.assignment(tenants)
            spread = {owners[t] for t in tenants}
            check(len(spread) > 1, f"tenants spread over {len(spread)} shards")

            print("\n[3] staged promote converges every shard, caches pre-warmed")
            candidate = copy.deepcopy(loam.predictor)
            candidate.weights_version = (
                getattr(loam.predictor, "weights_version", 0) + 1
            )
            checkpoint2 = Path(tmp) / "model-v2.npz"
            save_predictor(candidate, checkpoint2, environment_features=env)
            warm = [(plan, env) for plan in candidate_sets[0]]
            acked = fleet.promote(checkpoint2, warm=warm)
            check(len(acked) == args.workers, "every live worker acked the promote")
            check(len(set(acked.values())) == 1
                  and next(iter(acked.values())) == candidate.weights_version,
                  f"fleet converged on weights_version {candidate.weights_version}")
            post = fleet.predict(
                tenants[0], candidate_sets[0], env_features=env, plans_key="cs-0"
            )
            check(post.source == "learned"
                  and post.model_version == candidate.weights_version,
                  "post-promote answers serve the new version")

            print("\n[4] worker crash: shed one shard, remap, keep serving")
            victim = owners[tenants[0]]
            fleet.crash_worker(victim)
            victims = [t for t in tenants if owners[t] == victim]
            shed = fleet.predict(
                victims[0],
                candidate_sets[results[victims[0]][1]],
                env_features=env,
            )
            check(shed.reason == "worker-crash" and np.isfinite(shed.costs).all(),
                  "in-flight request on the dead shard shed to the fallback")
            remapped = {
                t: fleet.predict(
                    t, candidate_sets[results[t][1]], env_features=env
                )
                for t in tenants
            }
            check(all(r.source == "learned" for r in remapped.values()),
                  "all tenants (including remapped) served learned answers")
            new_owners = fleet.router.assignment(tenants)
            moved = {t for t in tenants if new_owners[t] != owners[t]}
            check(moved == set(victims),
                  f"exactly the dead shard's {len(victims)} tenant(s) remapped")
            stats = fleet.stats()
            check(stats["workers_alive"] == args.workers - 1,
                  f"{args.workers - 1}/{args.workers} workers still serving")
            fleet_counters = stats["fleet"]["counters"]
            check(fleet_counters.get("worker_failures_total", 0.0) == 1.0,
                  "crash visible in fleet telemetry (worker_failures_total)")

            merged = stats["merged"]
            print("\nMerged telemetry (excerpt):")
            for name in ("requests_total", "learned_total", "fallback_total"):
                print(f"  {name:<24} {merged['counters'].get(name, 0.0):.0f} "
                      f"across {merged['shards']} shard(s)")
            print("\nPrometheus exposition (first lines):")
            for line in fleet.to_prometheus().splitlines()[:6]:
                print(f"  {line}")

    if failures:
        print(f"\nERROR: {len(failures)} fleet check(s) failed:", file=sys.stderr)
        for what in failures:
            print(f"  - {what}", file=sys.stderr)
        return 1
    print("\nfleet round trip: all checks passed")
    return 0


def _cmd_pacer(args: argparse.Namespace) -> int:
    """Admission-pacing smoke: the BBR-style state machine must walk
    STARTUP -> DRAIN -> PROBE_BW -> PROBE_RTT deterministically on a fake
    clock, and a real gateway under thread overload must shed the excess
    with reason ``pacer-limit``, converge its estimators, leak no inflight
    slots, and re-enter STARTUP on a hot swap.  Suitable as a CI job;
    exits non-zero on any violation."""
    import copy
    import threading
    import time

    from repro.core.explorer import PlanExplorer
    from repro.core.predictor import AdaptiveCostPredictor, PredictorConfig
    from repro.gateway import GatewayConfig, OptimizerGateway
    from repro.pacing import (
        DRAIN,
        PROBE_BW,
        PROBE_RTT,
        STARTUP,
        AdmissionPacer,
        PacerConfig,
    )
    from repro.serving import CostInferenceService
    from repro.warehouse.workload import ProjectProfile, generate_project

    failures: list[str] = []

    def check(ok: bool, what: str) -> None:
        print(("  ok   " if ok else "  FAIL ") + what)
        if not ok:
            failures.append(what)

    print("[1] state machine on an injected clock")

    class _Clock:
        t = 0.0

        def __call__(self) -> float:
            return self.t

        def advance(self, dt: float) -> None:
            self.t += dt

    clock = _Clock()
    pacer = AdmissionPacer(
        PacerConfig(
            probe_bw_phase_seconds=1.0,
            probe_rtt_interval_seconds=5.0,
            probe_rtt_duration_seconds=0.25,
            startup_full_rounds=3,
            initial_cap=4,
        ),
        clock=clock,
    )
    check(pacer.state == STARTUP and pacer.inflight_cap() == 4,
          "boots in STARTUP at the initial cap")
    admitted = 0
    while pacer.try_admit():
        admitted += 1
    check(admitted == 4, "admits up to the cap, then denies")
    pacer.on_delivered(1, elapsed_seconds=0.1)
    pacer.on_delivered(1, elapsed_seconds=0.1)
    check(pacer.btl_rate() == 10.0 and pacer.bdp() == 1.0,
          "deliveries feed the rate/latency estimators (BDP 1)")
    pacer.try_admit()
    pacer.try_admit()
    pacer.on_delivered(1, elapsed_seconds=0.1)
    pacer.on_delivered(1, elapsed_seconds=0.1)
    check(pacer.state == DRAIN, "rate plateau ends STARTUP -> DRAIN")
    pacer.release(2)
    check(pacer.state == PROBE_BW and pacer.inflight_cap() == 3,
          "inflight drained to BDP -> PROBE_BW probing up")
    clock.advance(1.0)
    check(pacer.inflight_cap() == 2, "gain cycle advances on the phase clock")
    clock.advance(5.0)
    check(pacer.state == PROBE_RTT and pacer.inflight_cap() == 1,
          "stale latency estimate -> PROBE_RTT at the floor cap")
    clock.advance(0.25)
    check(pacer.state == PROBE_BW,
          "PROBE_RTT pass re-validates the estimate, back to PROBE_BW")
    pacer.reset()
    check(pacer.state == STARTUP and pacer.btl_rate() is None,
          "reset clears estimates and re-enters STARTUP")

    print("\n[2] real gateway under thread overload (slow pipe, real plans)")
    profile = ProjectProfile(
        name="cli-pacer", seed=args.seed, n_tables=10, n_templates=8,
        stats_availability=0.2, row_scale=3e5, n_machines=60,
    )
    workload = generate_project(profile)
    workload.simulate_history(3, max_queries_per_day=30)
    records = workload.repository.deduplicated(workload.repository.records)[:200]
    predictor = AdaptiveCostPredictor(config=PredictorConfig(epochs=3))
    predictor.fit([r.plan for r in records], [r.cpu_cost for r in records])
    explorer = PlanExplorer(workload.optimizer)
    plans = None
    for record in records:
        candidates = explorer.candidates(record.plan.query, top_k=5)
        if len(candidates) >= 2:
            plans = candidates
            break
    if plans is None:
        print("ERROR: no multi-candidate query in the workload", file=sys.stderr)
        return 1

    class _Slow:
        def __init__(self, service, delay: float) -> None:
            self._service = service
            self._delay = delay
            self.predictor = service.predictor

        def predict(self, batch, *, env_features=None):
            time.sleep(self._delay)
            return self._service.predict(batch, env_features=env_features)

        def swap_predictor(self, new) -> None:
            self._service.swap_predictor(new)

    service = _Slow(CostInferenceService(predictor), 0.008)
    gateway = OptimizerGateway(
        service,
        config=GatewayConfig(
            max_coalesce_plans=len(plans),
            coalesce_window_ms=0.0,
            pacer=PacerConfig(cwnd_gain=1.5, initial_cap=2),
        ),
    )
    stop_at = time.perf_counter() + args.seconds
    results: list = []
    lock = threading.Lock()

    def hammer() -> None:
        while time.perf_counter() < stop_at:
            r = gateway.predict(plans)
            with lock:
                results.append(r)

    threads = [threading.Thread(target=hammer) for _ in range(args.threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    counters = gateway.stats()["counters"]
    pstats = gateway.stats()["pacer"]
    learned = sum(r.source == "learned" for r in results)
    sheds = counters.get("shed_pacer_limit_total", 0.0)
    check(all(np.isfinite(r.costs).all() and len(r.costs) for r in results),
          f"every request answered finite costs ({len(results)} total)")
    check(learned > 0, f"admitted traffic served learned answers ({learned})")
    check(sheds >= 1, f"excess load shed with reason pacer-limit ({sheds:.0f})")
    check(pstats["state"] != STARTUP,
          f"pacer converged out of STARTUP (now {pstats['state']})")
    check(pstats["btl_rate"] is not None
          and pstats["min_latency_seconds"] is not None,
          "bottleneck rate and min latency measured")
    check(gateway.pacer.inflight == 0, "no inflight slots leaked")
    if pstats["btl_rate"] is not None:
        print(f"  pipe estimate: {pstats['btl_rate']:.0f} req/s x "
              f"{1e3 * pstats['min_latency_seconds']:.1f} ms "
              f"-> inflight cap {pstats['inflight_cap']}")

    print("\n[3] hot swap: the pacer re-probes the new model from STARTUP")
    swapped = copy.deepcopy(predictor)
    swapped.weights_version = getattr(predictor, "weights_version", 0) + 1
    gateway.swap_predictor(swapped)
    pstats = gateway.stats()["pacer"]
    check(pstats["state"] == STARTUP and pstats["resets_total"] >= 1,
          "swap reset the pacer to STARTUP")
    check(pstats["btl_rate"] is None, "swap cleared the learned estimates")
    for _ in range(8):
        gateway.predict(plans)
    pstats = gateway.stats()["pacer"]
    check(pstats["btl_rate"] is not None,
          "fresh traffic re-learned the bottleneck rate")
    gateway.close()

    if failures:
        print(f"\nERROR: {len(failures)} pacer check(s) failed:", file=sys.stderr)
        for what in failures:
            print(f"  - {what}", file=sys.stderr)
        return 1
    print("\npacer self-check: all checks passed")
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    """Scenario-engine smoke: the drift scenario replayed through a live
    lifecycle must flag drift, retrain, canary, and promote exactly once;
    the steady scenario must never retrain; and two replays from the same
    seed must produce bit-identical stream and outcome digests.  With
    ``--list`` prints the registry; with ``--scenario NAME`` replays one
    scenario and prints its per-regime table.  Exits non-zero on any
    violation."""
    from repro.evaluation.reporting import format_table
    from repro.workload import (
        FleetTarget,
        GatewayTarget,
        ReplayConfig,
        ReplayEngine,
        ScenarioRuntime,
        build_lifecycle,
        build_scenario,
        list_scenarios,
    )

    if args.list:
        print(format_table(
            ["scenario", "description"],
            [[name, desc] for name, desc in list_scenarios()],
        ))
        return 0

    if args.target == "fleet":
        from repro.evaluation.pool import fork_available

        if not fork_available():
            print("scenarios: fleet target requires fork; skipping cleanly")
            return 0

    failures: list[str] = []

    def check(ok: bool, what: str) -> None:
        print(("  ok   " if ok else "  FAIL ") + what)
        if not ok:
            failures.append(what)

    def regime_table(report) -> str:
        rows = []
        for label, seg in report.segments.items():
            sheds = ", ".join(
                f"{count} {reason}" for reason, count in seg["shed_reasons"].items()
            ) or "-"
            rows.append([
                label,
                f"{seg['requests']}",
                f"{seg['learned_rate']:.0%}",
                f"{seg['p99_ms']:.2f}",
                f"{seg['mean_steering_benefit']:+.3f}",
                sheds,
            ])
        return format_table(
            ["regime", "requests", "learned", "p99 ms", "steering benefit", "sheds"],
            rows,
        )

    print("[1] scenario runtime (generated project, candidate pools, incumbent)")
    runtime = ScenarioRuntime(seed=args.seed)
    incumbent = runtime.train_incumbent(epochs=args.epochs)
    check(not runtime.degraded_families, "every family matched project templates")

    def replay(scenario_name: str):
        lifecycle = build_lifecycle(runtime, incumbent)
        if args.target == "fleet":
            from repro.fleet import ServingFleet
            from repro.workload import current_checkpoint_path

            fleet = ServingFleet(current_checkpoint_path(lifecycle), n_workers=2)
            lifecycle.attach_fleet(fleet)
            target, closer = FleetTarget(fleet), fleet.close
        else:
            gateway = lifecycle.serve_through_gateway()
            target, closer = GatewayTarget(gateway), gateway.close
        try:
            engine = ReplayEngine(
                runtime, lifecycle=lifecycle, config=ReplayConfig(mode="logical")
            )
            return engine.run(build_scenario(scenario_name), target)
        finally:
            closer()

    if args.scenario is not None:
        report = replay(args.scenario)
        print(f"\n{args.scenario} via {args.target} ({report.n_requests} requests, "
              f"retrains {report.retrains}, promotes {report.promotes})")
        print(regime_table(report))
        for event in report.events:
            print(f"  event t={event.at:6.2f}  {event.kind}  {event.detail}")
        return 0

    print(f"[2] drift scenario through the {args.target} + lifecycle")
    drift = replay("drift")
    check(drift.retrains == 1, "drift triggered exactly one retrain")
    check(drift.promotes == 1, "the retrained candidate canary-promoted")
    kinds = [e.kind for e in drift.events]
    check(
        kinds == ["drift-flagged", "promoted"],
        f"lifecycle events in order (got {kinds})",
    )
    print(regime_table(drift))

    print("[3] steady scenario must not retrain")
    steady = replay("steady")
    check(steady.retrains == 0 and steady.promotes == 0, "no spurious retrains")
    check(
        steady.segments["steady"]["learned_rate"] == 1.0,
        "steady traffic fully served by the learned path",
    )

    print("[4] fixed-seed determinism")
    again = replay("drift")
    check(
        again.stream_digest == drift.stream_digest,
        "stream digest bit-identical across replays",
    )
    check(
        again.outcome_digest == drift.outcome_digest,
        "outcome digest bit-identical across replays",
    )

    if failures:
        print(f"\nERROR: {len(failures)} scenario check(s) failed:", file=sys.stderr)
        for what in failures:
            print(f"  - {what}", file=sys.stderr)
        return 1
    print("\nscenario self-check: all checks passed")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Observability self-check: a traced request must stitch into one
    complete span tree down to the serving kernels, a forced breaker trip
    must auto-dump the flight recorder, and the SLO monitor's burn rates
    must export through the Prometheus surface.  Exits non-zero on any
    violation — suitable as a CI job."""
    import json
    import tempfile

    from repro.core.explorer import PlanExplorer
    from repro.core.predictor import AdaptiveCostPredictor, PredictorConfig
    from repro.gateway import BreakerConfig, GatewayConfig, OptimizerGateway
    from repro.obs import (
        FlightRecorder,
        SLOConfig,
        SLOMonitor,
        SpanCollector,
        Tracer,
    )
    from repro.serving.service import CostInferenceService
    from repro.warehouse.workload import ProjectProfile, generate_project

    failures: list[str] = []

    def check(ok: bool, what: str) -> None:
        print(("  ok   " if ok else "  FAIL ") + what)
        if not ok:
            failures.append(what)

    profile = ProjectProfile(
        name="cli-trace", seed=args.seed, n_tables=10, n_templates=8,
        stats_availability=0.2, row_scale=2e5, n_machines=40,
    )
    print(f"Simulating {args.days} days of history on {profile.name!r}...")
    workload = generate_project(profile)
    workload.simulate_history(args.days, max_queries_per_day=25)
    records = workload.repository.records[:80]
    predictor = AdaptiveCostPredictor(
        config=PredictorConfig(hidden_dims=(16, 12), embedding_dim=8,
                               epochs=args.epochs, batch_size=16)
    )
    predictor.fit([r.plan for r in records], [r.cpu_cost for r in records])
    env = (0.5, 0.05, 0.5, 0.5)
    explorer = PlanExplorer(workload.optimizer)
    plans = next(
        p for p in (explorer.candidates(workload.sample_query(d), top_k=5)
                    for d in range(args.days))
        if len(p) >= 2
    )

    dump_dir = args.dump_dir or tempfile.mkdtemp(prefix="repro-trace-")
    collector = SpanCollector()
    tracer = Tracer(1.0, seed=args.seed, collector=collector)
    recorder = FlightRecorder(dump_dir=dump_dir, process_label="cli-trace")
    slo = SLOMonitor(SLOConfig())
    gateway = OptimizerGateway(
        CostInferenceService(predictor),
        config=GatewayConfig(
            breaker=BreakerConfig(window=8, min_calls=4,
                                  failure_rate_threshold=0.5,
                                  cooldown_seconds=0.5)
        ),
        tracer=tracer, recorder=recorder, slo=slo,
    )

    print("\n[1] traced request stitches into one complete span tree")
    result = gateway.predict(plans, env_features=env)
    check(result.trace_id is not None, "sampled request carries a trace id")
    tree = collector.tree(result.trace_id) if result.trace_id else None
    if tree is not None:
        print()
        for line in tree.render().splitlines():
            print("    " + line)
        print()
        check(tree.is_complete(), "span tree is complete (every parent resolves)")
        names = tree.names()
        check("gateway.request" in names, "tree contains the gateway request span")
        check("gateway.batch" in names, "tree contains the coalesced batch span")
        check("serving.forward" in names, "tree reaches the serving forward kernel")

    print("[2] forced breaker trip auto-dumps the flight recorder")
    gateway.inject_faults(10**9)
    for _ in range(40):
        gateway.predict(plans, env_features=env, deadline_ms=200)
    gateway.inject_faults(0)
    check(gateway.breaker.stats()["trip_count"] >= 1, "breaker tripped")
    check(recorder.dumps_total >= 1, "flight recorder auto-dumped")
    if recorder.last_dump_path is not None:
        with open(recorder.last_dump_path) as fh:
            lines = [json.loads(line) for line in fh if line.strip()]
        check(lines and lines[0].get("reason") == "breaker-trip",
              "dump header names the breaker trip")
        check(any(e.get("kind") == "breaker-trip" for e in lines[1:]),
              "dump contains the breaker-trip event")
        print(f"  dump: {recorder.last_dump_path}")

    print("[3] SLO burn rates export through Prometheus")
    snap = slo.snapshot()
    check(all("burn_rate" in w for w in snap["windows"]),
          "every SLO window reports a burn rate")
    text = gateway.to_prometheus()
    check("slo_hit_rate" in text and "slo_burn_rate" in text,
          "prometheus text carries SLO gauges")
    check("slo_alerting" in text, "prometheus text carries the alerting gauge")
    for line in text.splitlines():
        if line.startswith("repro_slo"):
            print("    " + line)

    gateway.close()
    if failures:
        print(f"\nERROR: {len(failures)} trace check(s) failed:", file=sys.stderr)
        for what in failures:
            print(f"  - {what}", file=sys.stderr)
        return 1
    print("\ntrace self-check: all checks passed")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    np.random.seed(args.seed)  # legacy global, for any stray consumers
    handlers = {
        "demo": _cmd_demo,
        "variance": _cmd_variance,
        "explain": _cmd_explain,
        "fleet-select": _cmd_fleet_select,
        "fleet": _cmd_fleet,
        "lifecycle": _cmd_lifecycle,
        "gateway": _cmd_gateway,
        "pacer": _cmd_pacer,
        "scenarios": _cmd_scenarios,
        "trace": _cmd_trace,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
