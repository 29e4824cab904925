"""Pin BLAS to one thread before any test module imports numpy.

The library works on small dense matrices, where a second BLAS thread costs
more in hand-off than it saves: on a 2-CPU host a 40 x 40 ``expm`` took
7.9 ms with two OpenBLAS threads against 0.28 ms with one. A value already
set in the environment wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
