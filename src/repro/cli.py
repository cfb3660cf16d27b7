"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``demo``      run the quickstart pipeline on a generated project;
``variance``  print the recurring-cost variance study (challenge C1);
``explain``   compile a SQL statement against a generated project and print
              the default plan plus every steered candidate;
``fleet-select``  run Filter + Ranker over a generated fleet and print rankings.

All commands are deterministic given ``--seed``.
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


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    np.random.seed(args.seed)  # legacy global, for any stray consumers
    handlers = {
        "demo": _cmd_demo,
        "variance": _cmd_variance,
        "explain": _cmd_explain,
        "fleet-select": _cmd_fleet_select,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
