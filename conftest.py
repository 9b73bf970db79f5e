"""Test-suite set-up: every test runs at one BLAS thread.

Results are byte-identical only at a fixed BLAS thread count (a 2-thread sft
run drifts from a 1-thread one in the last digits), so the suite pins one
thread, as the benchmark does.  The variables must be set before numpy
loads its BLAS.  The CLI subprocess tests copy `os.environ`, so they inherit
the setting.
"""

import os
import sys

assert "numpy" not in sys.modules, "numpy was imported before conftest.py pinned BLAS threads"
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
