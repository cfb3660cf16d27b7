"""Process CPU, memory and machine facts for the run record.

CPU and memory count the benchmark process plus its live child processes
(fleet workers), read from ``/proc`` on Linux; children that already
exited and were reaped (fork-pool encode workers) are counted through
``os.times``.  BLAS threading is recorded with every result because idle
BLAS threads spinning between requests dominate CPU per request on the
cold workloads: a number without its BLAS setup cannot be compared.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import platform
import resource
import sys

import numpy as np

_TICKS = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100
_BLAS_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
)


def child_pids() -> list[int]:
    return [p.pid for p in multiprocessing.active_children() if p.pid is not None]


def _proc_cpu_seconds(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    # utime and stime are fields 14 and 15 of the stat line (1-based);
    # after the ")" split they sit at 11 and 12.
    return (int(fields[11]) + int(fields[12])) / _TICKS


def cpu_seconds(pids=None) -> tuple[float, float]:
    """``(parent, children)`` CPU seconds so far: this process (all its
    threads) and every child, live or reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    parent = own.ru_utime + own.ru_stime
    children = reaped.ru_utime + reaped.ru_stime
    for pid in child_pids() if pids is None else pids:
        children += _proc_cpu_seconds(pid)
    return parent, children


def _proc_peak_rss_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def peak_rss_mb(pids=None) -> float:
    """Peak resident memory of this process plus its live children (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return own + sum(_proc_peak_rss_mb(pid) for pid in (child_pids() if pids is None else pids))


def blas_info() -> dict:
    """BLAS library, its configured and live thread counts."""
    info: dict = {"env": {k: os.environ.get(k) for k in _BLAS_ENV}}
    try:
        config = np.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
        info.update(
            name=blas.get("name"),
            version=blas.get("version"),
            openblas_configuration=blas.get("openblas configuration"),
        )
    except (TypeError, ValueError):  # numpy without mode="dicts"
        info["name"] = None
    info["threads"] = _openblas_threads()
    return info


def _openblas_threads() -> int | None:
    """Live OpenBLAS thread count, from the library numpy loaded."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            paths = (line.split()[-1] for line in fh if line.strip())
            libs = {p for p in paths if "openblas" in p.lower() and ".so" in p}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def machine_record() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "blas": blas_info(),
    }
