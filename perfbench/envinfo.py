"""What a result was measured on: CPUs, Python, numpy and its BLAS, the
BLAS thread count and the threading environment variables as seen. The
benchmark reads these; it sets none of them."""

from __future__ import annotations

import ctypes
import os
import sys

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "GOTO_NUM_THREADS",
)

# Symbol names used by the BLAS builds numpy ships with or links against.
_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
    "MKL_Get_Max_Threads",
)
_CONFIG_SYMBOLS = ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                   "openblas_get_config64_", "openblas_get_config")


def _loaded_blas_libs():
    """Paths of shared libraries mapped into this process whose name says
    BLAS (read from /proc/self/maps; empty where that file is absent)."""
    paths = []
    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as fh:
            for line in fh:
                path = line.rsplit(" ", 1)[-1].strip()
                name = os.path.basename(path).lower()
                if path.startswith("/") and ("blas" in name or "mkl" in name) and path not in paths:
                    paths.append(path)
    except OSError:
        pass
    return paths


def _blas_runtime():
    threads = config = None
    for path in _loaded_blas_libs():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in _THREAD_SYMBOLS:
            fn = getattr(lib, sym, None)
            if fn is not None and threads is None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads = int(fn())
        for sym in _CONFIG_SYMBOLS:
            fn = getattr(lib, sym, None)
            if fn is not None and config is None:
                fn.restype = ctypes.c_char_p
                fn.argtypes = []
                config = fn().decode("ascii", "replace").strip()
    return threads, config


def collect(numpy_module) -> dict:
    blas = {}
    try:
        deps = numpy_module.show_config(mode="dicts").get("Build Dependencies", {})
        blas = deps.get("blas", {})
    except (TypeError, AttributeError):
        pass
    threads, config = _blas_runtime()
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": affinity,
        "python": sys.version.split()[0],
        "numpy": numpy_module.__version__,
        "blas_vendor": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_runtime_config": config,
        "blas_threads": threads,
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
    }
