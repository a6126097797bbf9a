"""Session set-up shared by every test module.

L-BFGS-B makes several small BLAS calls per iteration, on vectors of at most
2p entries. On a 2-core host a multi-threaded OpenBLAS made one iteration
about 45 times slower than a single-threaded one, and a strategy run 2 to 3
times slower on a busy host. The pool size is read once, when numpy loads,
so it is set here, before any test module imports numpy. A setting already
in the environment is kept.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
