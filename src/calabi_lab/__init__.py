"""Calabi and Kaehler curvature operators, Weitzenboeck curvature terms, and
eigenvalue-threshold vanishing certificates.

Reports are required to be byte-reproducible, so BLAS backends are pinned to
a single thread unless the user configured them explicitly before importing
this package (multithreaded reductions are not run-to-run deterministic).
Coarse parallelism is available instead through CALABI_LAB_THREADS, which
runs the 12 independent checks of ``verify`` on a thread pool (the trials
inside each check stay sequential) and returns their records in a fixed order.
"""

import os as _os

for _var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    _os.environ.setdefault(_var, "1")
del _os, _var

__version__ = "0.1.0"
