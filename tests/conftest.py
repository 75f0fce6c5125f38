"""One BLAS thread for the suite.

The solvers multiply small dense matrices, where a threaded BLAS mostly
waits on its own threads, and badly so when another process holds a
core.  numpy reads these variables once, when it is first imported,
which happens after pytest loads this file.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
