"""The numerical environment that the golden digests hold for.

numpy picks its SIMD code paths and OpenBLAS its kernel for the CPU at run
time, and the bits of `tanh`, `exp`, `log` and `matmul` follow those choices.
Three environment variables override them. A digest mismatch prints this
report, so a reader can tell another code path from another program.
"""

import ctypes
import os

import numpy as np

OVERRIDES = ("NPY_ENABLE_CPU_FEATURES", "NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE")


def _simd_targets() -> str:
    """numpy's baseline SIMD targets and the dispatched ones this CPU runs."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    active = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    return (f"baseline {' '.join(umath.__cpu_baseline__) or 'none'}, "
            f"dispatched {' '.join(active) or 'none'}")


def _openblas_library() -> str | None:
    """The path of the OpenBLAS library mapped into this process, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    return min(paths, default=None)


def _openblas_core() -> str:
    """The kernel OpenBLAS picked, and its build line, through ctypes."""
    path = _openblas_library()
    if path is None:
        return "not found"
    lib = ctypes.CDLL(path)
    for suffix in ("scipy_openblas_get_{}64_", "openblas_get_{}"):
        try:
            core, config = (getattr(lib, suffix.format(what)) for what in ("corename", "config"))
        except AttributeError:
            continue
        core.restype = config.restype = ctypes.c_char_p
        return f"{core().decode()} ({' '.join(config().decode().split())})"
    return f"unknown ({os.path.basename(path)} names no core)"


def numerical_environment() -> str:
    """One line naming numpy, its SIMD targets, the OpenBLAS kernel and the
    overriding environment variables that are set."""
    overrides = [f"{name}={os.environ[name]}" for name in OVERRIDES if name in os.environ]
    return (f"numerical environment: numpy {np.__version__}, SIMD {_simd_targets()}; "
            f"OpenBLAS core {_openblas_core()}; "
            + (", ".join(overrides) if overrides else f"none of {', '.join(OVERRIDES)} set"))
