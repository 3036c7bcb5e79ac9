"""Paths and process settings shared by the benchmark scripts.

Kept free of third-party imports: the harness imports it before any child
process exists, and the children pin their thread pools with it before
NumPy loads.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
FIXTURES = os.path.join(ROOT, "tests", "fixtures")
DATA = os.path.join(HERE, "data")
# scratch space inside the checkout for traces and per-run output files
OUT = os.path.join(ROOT, ".perfbench-out")

# one BLAS/OpenMP thread per process, so timings measure the program and
# not the scheduler of a small shared machine
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

# the selection settings the acceptance suite pins; the defaults miss
# chemical accuracy on H2O.  The frozen bases in data/ were made with them.
TUNED = dict(eps1=1e-5, eps2=1e-6, n_active_occ=5)


def pin_threads() -> None:
    """Apply THREAD_ENV and make the package importable; call before NumPy."""
    os.environ.update(THREAD_ENV)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
