"""Delay-tolerant augmented-consensus distributed optimization (DTAC-ADDOPT).

Push-sum gradient tracking over strongly connected digraphs where every
link carries a fixed, bounded, heterogeneous integer delay.

The API is the modules (`dtacopt.graphs`, `dtacopt.delays`, `dtacopt.costs`,
`dtacopt.optimizer`, `dtacopt.spectral`, `dtacopt.experiment`); the package
re-exports nothing, so importing a layer loads only it and what it imports.

Imported before numpy, the package sets one BLAS thread by default: the last
bits of a threaded N×N `eigvals` or SVD follow the thread count, so without
this `spectral` and `check-bound` would print different bits on machines with
different core counts.  A thread count the caller set is kept, and a process
that imported numpy first keeps whatever numpy started with.
"""

import os
import sys

if "numpy" not in sys.modules:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")
    del _var

__version__ = "0.1.0"
