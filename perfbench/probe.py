"""Set-up probe: import qgrand and build one workload's generators through the
public API, then exit before producing any output.

    python3 perfbench/probe.py '{"square_file": "sq.txt", "var": [3, 9], "output": "bytes"}'
    python3 perfbench/probe.py '{"order": 256, "seed": 7, "const": 5, "output": "bytes", "kiss": [1, 2, 3, 4]}'

run.py times this process from spawn to exit as the workload's set-up time.
"""

import json
import sys

from qgrand import (
    ConstantShift,
    Engine,
    GeneratorConfig,
    Kiss,
    OutputMap,
    VariableShift,
    parse_text,
    random_latin_square,
)


def main(spec: dict) -> None:
    if "square_file" in spec:
        with open(spec["square_file"], encoding="ascii") as fh:
            square = parse_text(fh.read())
    else:
        square = random_latin_square(spec["order"], spec["seed"])
    shift = ConstantShift(spec["const"]) if "const" in spec else VariableShift(*spec["var"])
    Engine(GeneratorConfig(square, shift, OutputMap(spec["output"])))
    if "kiss" in spec:
        Kiss(*spec["kiss"])


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
