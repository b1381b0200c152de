"""Thread pinning and the environment fingerprint recorded with every result.

pin_threads() must run before NumPy is first imported: OpenBLAS reads its
thread count once, when it loads.  With the default two threads on a
two-core machine a forward pass is faster but the run then measures the
scheduler as much as the program, so the benchmark fixes one thread.
"""

from __future__ import annotations

import os
import platform

BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_threads() -> None:
    """Fix the BLAS thread count and leave LGSEG_THREADS unset (one worker)."""
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("LGSEG_THREADS", None)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_name(numpy) -> str:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def fingerprint() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_name(numpy),
        "blas_threads": BLAS_THREADS,
        "lgseg_threads": os.environ.get("LGSEG_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
    }
