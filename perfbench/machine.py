"""The environment a run happened in, and how fast the host was meanwhile.

``THREAD_VARS`` must be set before numpy loads its BLAS; the runner puts them
in each workload process's environment, and ``environment`` reads the thread
count back from the loaded libraries to show that it took effect.
"""

from __future__ import annotations

import ctypes
import os
import platform
import time

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# symbol prefixes of the OpenBLAS builds numpy and scipy ship
_PREFIXES = ("scipy_openblas", "openblas")
_SUFFIXES = ("64_", "")


def core_count() -> int:
    return len(os.sched_getaffinity(0))


def _loaded_openblas() -> list[str]:
    with open("/proc/self/maps") as f:
        paths = {line.split()[-1] for line in f if "openblas" in line.lower()}
    return sorted(p for p in paths if p.startswith("/") and ".so" in p)


def _call(lib, stem, restype):
    for prefix in _PREFIXES:
        for suffix in _SUFFIXES:
            fn = getattr(lib, f"{prefix}_{stem}{suffix}", None)
            if fn is not None:
                fn.restype = restype
                return fn()
    return None


def blas_libraries() -> list[dict]:
    """Config string and live thread count of every loaded OpenBLAS."""
    out = []
    for path in _loaded_openblas():
        lib = ctypes.CDLL(path)
        config = _call(lib, "get_config", ctypes.c_char_p)
        out.append({"library": os.path.basename(path),
                     "config": config.decode() if config else None,
                     "threads": _call(lib, "get_num_threads", ctypes.c_int)})
    return out


def environment() -> dict:
    import numpy
    import scipy
    return {
        "nproc": core_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_libraries(),
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def speed_probe() -> dict:
    """Seconds for a fixed pure-Python loop and a fixed BLAS call."""
    import numpy as np
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i
    python_s = time.perf_counter() - t0
    a = np.random.default_rng(0).standard_normal((512, 512))
    a @ a
    t0 = time.perf_counter()
    for _ in range(8):
        a @ a
    blas_s = time.perf_counter() - t0
    return {"python_loop_s": python_s, "blas_dgemm512x8_s": blas_s}
