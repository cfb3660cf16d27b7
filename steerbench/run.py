"""Steering benchmark: one seeded command over the serving stack.

Run from the repository root::

    python3 steerbench/run.py --workload hot-recurring --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that reports the per-layer metrics (spans are written
to ``.steerbench/spans/``).  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``; the line before
it is the run record (machine, BLAS threads, per-round counts, generator
lateness, drift episodes).  Any wrong answer makes the run exit non-zero.
``--write-manifest`` regenerates ``BENCHMARK.json`` from :mod:`spec`, and
``python3 -m pytest steerbench`` tests the benchmark's own parts.

Each run sets the stack up several times (``setup_s`` is the median),
generates the seeded inputs, then measures rounds of

1. an open-loop block: Poisson arrivals at the workload's fixed rate,
   each request timed from its due time;
2. a closed-loop block: ``nproc`` callers sending back to back;
3. one drift episode in logical mode through the same kind of target
   (fit → canary → promote → swap → warm);

replays the first episode to check its outcome digest, and re-scores
every learned answer against the reference predictor.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

PROCESS_START = time.perf_counter()
ROOT = Path.cwd()


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path and make sure the
    program imported is that one."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(src):
        raise ImportError(f"repro imported from {repro.__file__}, not {src}")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true")
    args = parser.parse_args(argv)
    if not args.write_manifest and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        _import_program()
        import runner
        import spec
        from workloads import WORKLOAD_CLASSES
    except ImportError as exc:
        print(f"steerbench: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.write_manifest:
        spec.write_manifest(ROOT / "BENCHMARK.json", [(w.name, w.why) for w in WORKLOAD_CLASSES])
        return 0
    if args.workload not in {w.name for w in WORKLOAD_CLASSES}:
        print(f"steerbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    work = ROOT / ".steerbench" / f"run-{os.getpid()}"
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    # Keep every file the program writes (registry, temp dirs) in the checkout.
    os.environ["TMPDIR"] = str(work / "tmp")
    tempfile.tempdir = str(work / "tmp")
    try:
        report = runner.run(
            args.workload,
            seed=args.seed,
            seconds=args.seconds,
            trace=bool(args.trace),
            work=work,
            spans_dir=ROOT / ".steerbench" / "spans",
            import_s=time.perf_counter() - PROCESS_START,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, metric in report["metrics"].items():
        print(f"{name:34s} {metric['value']:.6g} {metric['unit']}")
    print("record " + json.dumps(report["record"], default=str))
    print(
        json.dumps(
            {
                "correct": report["correct"],
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": report["metrics"],
            }
        )
    )
    sys.stdout.flush()
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
