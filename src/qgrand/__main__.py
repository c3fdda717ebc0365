"""Entry point of `python -m qgrand` and of the installed `qgrand` script."""

import ctypes
import os

# qgrand calls no BLAS routine, and OpenBLAS's default pool spins a thread through numpy's import
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# glibc grows the heap for an engine cycle's buffers and trims it back once they are freed,
# in some heap layouts every cycle (~80 page faults each at order 256); a fixed mmap
# threshold above those buffers and no trimming below 64 MiB keep them in reused heap
try:
    ctypes.CDLL(None).mallopt(-3, 1 << 22)  # M_MMAP_THRESHOLD
    ctypes.CDLL(None).mallopt(-1, 1 << 26)  # M_TRIM_THRESHOLD
except (AttributeError, OSError, TypeError):  # no glibc mallopt here
    pass

from .cli import run  # numpy loads here, after the default is set

if __name__ == "__main__":
    run()
