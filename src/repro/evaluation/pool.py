"""Shared worker-process bootstrap for every fork-pool in the repo.

Two subsystems run Python workers in forked processes: the evaluation
harness (:mod:`repro.evaluation.parallel` maps independent tasks over a
``multiprocessing.Pool``) and the serving fleet (:mod:`repro.fleet` hosts
one long-lived inference service per worker).  Both need exactly the same
bootstrap, extracted here so there is one implementation to audit:

* **BLAS thread pinning** — process-level parallelism composes
  multiplicatively with BLAS threads; pinning each worker to one BLAS
  thread avoids oversubscribing the machine ``workers × blas_threads``
  ways (:func:`pin_blas_threads`, which also caps a pool the forked child
  inherited already running; the gateway pins its serving process too);
* **deterministic seed derivation** — a 63-bit seed from
  ``(base_seed, key)`` via SHA-256, independent of Python's per-process
  hash randomization, so results are identical regardless of worker
  count or scheduling order (:func:`derive_seed`);
* **remote traceback capture** — a worker exception is trapped into a
  :class:`TaskFailure` carrying the formatted traceback text, so the
  parent can re-raise with full context instead of a bare pool error
  (:func:`capture_failure`);
* **fork availability** — fork keeps worker functions picklable by
  reference; platforms without it fall back to serial execution
  (:func:`fork_available`).
"""

from __future__ import annotations

import hashlib
import os
import traceback
from dataclasses import dataclass

__all__ = [
    "BLAS_ENV_VARS",
    "TaskFailure",
    "capture_failure",
    "derive_seed",
    "fork_available",
    "pin_blas_threads",
]

#: Environment variables that cap the thread pools of every BLAS/OpenMP
#: backend numpy might be linked against.
BLAS_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

#: ``(getter, setter)`` thread-count symbols of the OpenBLAS builds numpy
#: ships with (scipy-openblas 64-bit, plain 64-bit, 32-bit), in lookup order.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)
_openblas_funcs = None


def _loaded_openblas():
    """``(get, set)`` thread-count functions of the OpenBLAS numpy loaded
    into this process (found through ``/proc/self/maps``), or ``None``.
    A hit is memoized: the mapping survives ``fork``, and a loaded library
    never moves."""
    global _openblas_funcs
    if _openblas_funcs is not None:
        return _openblas_funcs
    import ctypes

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
        for getter, setter in _OPENBLAS_THREAD_SYMBOLS:
            get, set_ = getattr(lib, getter, None), getattr(lib, setter, None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                _openblas_funcs = (get, set_)
                return _openblas_funcs
    return None


def pin_blas_threads(limit: int = 1) -> None:
    """Best-effort, process-wide BLAS thread pinning.

    The environment variables only take effect for libraries loaded later
    (spawned grandchildren); the pool numpy already loaded — including one
    a forked child inherited — is capped through OpenBLAS's own setter.
    The setter is called only when the live count exceeds ``limit``, so
    repeated calls (one per gateway construction) never touch the library
    while another thread may be mid-GEMM.  Silently does nothing more when
    no OpenBLAS is found.
    """
    for var in BLAS_ENV_VARS:
        os.environ[var] = str(limit)
    funcs = _loaded_openblas()
    if funcs is not None and funcs[0]() > limit:
        funcs[1](limit)


def derive_seed(base_seed: int, key: str) -> int:
    """A stable 63-bit seed from ``(base_seed, key)``.

    SHA-256 keeps the mapping independent of Python's per-process hash
    randomization and spreads adjacent keys across the seed space, so
    per-task RNG streams are statistically independent yet reproducible
    from the task key alone.
    """
    digest = hashlib.sha256(f"{base_seed}:{key}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class TaskFailure:
    """A worker exception captured where it happened, traceback included."""

    key: str
    exception_type: str
    message: str
    traceback_text: str


def capture_failure(key: str, exc: BaseException) -> TaskFailure:
    """Trap ``exc`` (the exception currently being handled) into a
    :class:`TaskFailure` the parent process can render."""
    return TaskFailure(
        key=key,
        exception_type=type(exc).__name__,
        message=str(exc),
        traceback_text=traceback.format_exc(),
    )


def fork_available() -> bool:
    """Fork keeps worker functions picklable by reference even when defined
    in conftest-style modules; without it (e.g. Windows) callers run
    serially rather than risk spawn-mode import failures."""
    import multiprocessing as mp

    return "fork" in mp.get_all_start_methods()
