"""Session header: what the training pins depend on.

The hypergraph-on training pins in test_trainer.py hold only at the BLAS
thread count they were taken at, so the header names numpy, its BLAS, the
threads that BLAS runs per call and the CPUs this process may use.
"""

import os

import numpy as np


def pytest_report_header(config):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}"
    except (TypeError, KeyError):   # numpy before 1.25 has no config dicts
        blas = "unknown"
    try:
        from stdsh.trainer import _blas_threads
        threads = _blas_threads()
    except ImportError:             # stdsh not on the path: the tests say so
        threads = "unknown"
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else "unknown"
    return (f"numpy {np.__version__}, BLAS {blas}, BLAS threads {threads}, "
            f"CPUs in affinity {cpus}")
