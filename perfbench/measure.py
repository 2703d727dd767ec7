"""Summary statistics and the environment record."""

from __future__ import annotations

import ctypes
import os
import platform
import statistics

TAIL_BEYOND = 10


def tail(values) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with at least ten
    values beyond it: the 11th largest value, at percentile 100 (n - 10) / n.

    A tail is never below the median: with twenty values or fewer the
    median stands in and the percentile reads 50.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("no values")
    if n <= 2 * TAIL_BEYOND:
        return 50.0, statistics.median(xs)
    return 100.0 * (n - TAIL_BEYOND) / n, xs[n - TAIL_BEYOND - 1]


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(coexpm) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "coexpm": coexpm.__version__,
        "coexpm_path": os.path.dirname(coexpm.__file__),
    }
