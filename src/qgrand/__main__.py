"""Entry point of `python -m qgrand` and of the installed `qgrand` script."""

import os

# qgrand calls no BLAS routine, and OpenBLAS's default pool spins a thread through numpy's import
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cli import run  # numpy loads here, after the default is set

if __name__ == "__main__":
    run()
