"""Session header: what the training pins depend on.

The training pins in test_trainer.py hold only for the arithmetic they
were taken on, so the header names numpy, its BLAS, the OpenBLAS kernel
(corename) in use, numpy's top enabled x86 dispatch group and the CPUs
this process may use. A pin that fails on another host then names what
it ran on. Training always runs OpenBLAS on one thread, so the caller's
thread count is not part of it.
It also says whether bytecode writing is off (PYTHONDONTWRITEBYTECODE or
-B), which makes every interpreter start compile stdsh again.
"""

import ctypes
import os
import sys

import numpy as np


def _openblas_corename() -> str:
    """The kernel the loaded OpenBLAS picked; "unknown" without one."""
    from stdsh.trainer import _openblas_function
    fn = _openblas_function("scipy_openblas_get_corename64_", "openblas_get_corename")
    if fn is None:
        return "unknown"
    fn.restype = ctypes.c_char_p
    return fn().decode()


def _x86_dispatch_group() -> str:
    """numpy's highest enabled X86_V* group ("none" off x86)."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:             # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return next((g for g in ("X86_V4", "X86_V3", "X86_V2") if __cpu_features__.get(g)),
                "none")


def pytest_report_header(config):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}"
    except (TypeError, KeyError):   # numpy before 1.25 has no config dicts
        blas = "unknown"
    try:
        core = _openblas_corename()
    except ImportError:             # stdsh not on the path: the tests say so
        core = "unknown"
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else "unknown"
    return (f"numpy {np.__version__}, BLAS {blas}, OpenBLAS core {core}, "
            f"numpy dispatch {_x86_dispatch_group()}, CPUs in affinity {cpus}, "
            f"bytecode writing {'off' if sys.flags.dont_write_bytecode else 'on'}")
