"""Machine description recorded with every benchmark result."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import sys
from pathlib import Path


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    import numpy as np

    info = {"numpy": np.__version__}
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    info["blas"] = f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    # numpy wheels bundle scipy-openblas, which can report its thread count.
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                  "numpy.libs", "libscipy_openblas*"))
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(lib), symbol)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            info["blas_threads"] = fn()
            return info
    info["blas_threads"] = os.environ.get("OPENBLAS_NUM_THREADS", "unknown")
    return info


def machine_info() -> dict:
    return {"nproc": os.cpu_count(), "cpu": _cpu_model(), "python": sys.version.split()[0],
            "platform": platform.platform(), **_blas()}
