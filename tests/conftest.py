import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
# child processes (`python -m qgrand`) test this tree too
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).parent.parent / "src"), os.environ.get("PYTHONPATH")])
)
# numpy loads below with one BLAS thread, as under the CLI's entry point: `compare` forks,
# and Python 3.12+ warns (an error under this suite's filterwarnings) when a process
# with more than one thread forks
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from qgrand import random_latin_square, validate

from oracle import oracle_blocks

# Linux counts the resident memory a process had before exec in its
# ru_maxrss, so a command spawned straight from pytest would report at least
# pytest's RSS.  This small process spawns it instead and reports for it.
_TRAMPOLINE = """
import os, sys
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def run_peak_rss(argv):
    """Run `argv` (argv[0] an absolute path); return (exit code, its peak
    RSS in KiB), measured from a trampoline process rather than this one."""
    out = subprocess.run([sys.executable, "-c", _TRAMPOLINE, *map(str, argv)],
                         stdout=subprocess.PIPE, check=True).stdout
    return tuple(map(int, out.split()[-2:]))


@functools.lru_cache(maxsize=None)
def large_order_oracle(order, shift):
    """The first two `oracle_blocks` of `random_latin_square(order, seed=order)`.
    One run takes about 0.4 s at orders 255-300, so tests share it."""
    return oracle_blocks(random_latin_square(order, seed=order).rows(), shift, 2)


# order-5 square used in the worked examples
TABLE1 = [
    [2, 1, 5, 3, 4],
    [5, 4, 2, 1, 3],
    [3, 5, 1, 4, 2],
    [4, 2, 3, 5, 1],
    [1, 3, 4, 2, 5],
]


@pytest.fixture(scope="session")
def table1_square():
    return validate(TABLE1)
