"""The package runs one BLAS thread unless the caller says otherwise.

Each check runs in a fresh interpreter whose environment carries none of the
thread-count variables, so the pin (or its absence) is the package's alone.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _run(argv, **env):
    base = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env={**base, **env}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_the_package_pins_one_thread_per_variable():
    out = _run(["-c", "import os, dtacopt.cli\n"
                      "print([os.environ.get(k) for k in %r])" % (BLAS_VARS,)])
    assert out.strip() == str(["1"] * len(BLAS_VARS))


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc/self/task")
def test_numpy_under_the_package_starts_no_second_thread():
    out = _run(["-c", "import os, dtacopt.cli\nprint(len(os.listdir('/proc/self/task')))"])
    assert out.strip() == "1"


def test_a_thread_count_the_caller_set_is_kept():
    out = _run(["-c", "import os, dtacopt.cli\nprint(os.environ['OPENBLAS_NUM_THREADS'])"],
               OPENBLAS_NUM_THREADS="2")
    assert out.strip() == "2"


def test_a_process_that_imported_numpy_first_keeps_its_own_setting():
    out = _run(["-c", "import os, numpy, dtacopt\n"
                      "print(os.environ.get('OPENBLAS_NUM_THREADS'))"])
    assert out.strip() == "None"


def test_spectral_prints_the_same_bits_whatever_the_default_thread_count():
    # at N=420 the eigvals and SVDs are large enough for OpenBLAS to thread,
    # and threaded kernels round differently in the last bits
    argv = ["-m", "dtacopt.cli", "spectral", "--record",
            "--set", "graph.n=20", "--set", "delay.tau_max=20"]
    assert _run(argv) == _run(argv, OPENBLAS_NUM_THREADS="1")
