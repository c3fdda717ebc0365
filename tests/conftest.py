import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
# child processes (`python -m qgrand`) test this tree too
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).parent.parent / "src"), os.environ.get("PYTHONPATH")])
)

from qgrand import validate

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
