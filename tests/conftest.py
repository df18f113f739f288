"""One BLAS thread for the test session, as in CI.

With several OpenBLAS threads on a small machine, the many small
eigendecompositions these tests run get much slower (splitting the regular
representation of S5 took 1.0 s instead of 31 ms on two cores).  The
variables take effect only if set before numpy is first imported, which
pytest does after loading this file; a value already in the environment
wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
