#!/usr/bin/env python3
"""Benchmark of the qgrand CLI: end to end in fresh child processes, and
layer by layer in a separate traced run.

Run from the root of a qgrand source checkout (it uses `src/` and
`tests/oracle.py` from that checkout, never an installed copy):

    python3 perfbench/run.py --workload gen-bytes --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

--trace 0 runs the workload's `qgrand` command as a black box: a closed
loop with one client and one child process at a time, the parent only
draining and hashing the child's stdout.  Set-up processes (probe.py) are
timed at even steps through the same stretch.  It reports the `end_to_end`
metrics of BENCHMARK.json.  A shared host's speed drifts by up to 1.5x over
seconds, so a fixed pure-Python calibration loop runs right before and
right after each timed process, and the process's times are scaled to a
reference host that runs that loop in CAL_REF_S (`run_child`).  The
unscaled medians and the scale factors are printed in the report.

--trace 1 times the public functions of each layer directly (layers.py),
then runs `cli.main` in process, once plain and once with span recorders
around each layer's public functions (spans.py).  It reports the
`per_layer` metrics and writes the spans to perfbench/out/.

Inputs are derived from --seed only.  Every output is checked (`judge`):
exit code, the stream prefix against tests/oracle.py, the battery's machine
lines, the same digest on every repetition, and for seed 1 the values pinned
in golden.json.  Human-readable lines come first; the last stdout line is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from spans import LAYERS, OutputSink, Tracer, run_captured

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
ORACLE = ROOT / "tests" / "oracle.py"
SPEC = ROOT / "BENCHMARK.json"
OUT = BENCH / "out"

DEFAULT_SEED = 1  # golden.json pins this seed's outputs at full size
MB = 1e6
M32 = (1 << 32) - 1
SETUP_PROBES = 9
MIN_SAMPLES = 2
KEEP_BATTERY = 1 << 16
CAL_LOOPS = 500_000  # iterations of the host-speed calibration loop
CAL_REF_S = 0.04     # the loop's time on the reference host; end-to-end times are scaled to it
# (test name, degrees of freedom) in the order render_machine writes them
BATTERY_TESTS = (("frequency", 255), ("perm5", 119), ("rank_31x31", 3), ("rank_32x32", 3))
WORKLOADS = ("gen-bytes", "gen-symbols", "battery-qg", "compare-kiss")


@dataclass(frozen=True)
class Sizes:
    gen_bytes: int    # bytes for gen-bytes
    gen_symbols: int  # symbols for gen-symbols
    battery: int      # --length of battery-qg, --size of compare-kiss
    layers: object    # layers.LayerSizes


def _sizes(smoke: bool) -> Sizes:
    from layers import LayerSizes

    if smoke:
        return Sizes(4 << 16, 20_000, 300_000, LayerSizes(
            stream=1_000_000, kiss=100_000, tuples=10_000, matrices=2000,
            blocks=20, o16_blocks=200, symbols=4096, reps=1))
    return Sizes(256 << 20, 2_000_000, 10_000_000, LayerSizes(
        stream=10_000_000, kiss=10_000_000, tuples=500_000, matrices=40_000,
        blocks=500, o16_blocks=2000, symbols=65536, reps=5))


def _draw(seed: int, label: str, lo: int, hi: int) -> int:
    """A value in lo..hi that depends only on (seed, label)."""
    digest = hashlib.sha256(f"qgrand-perfbench:{seed}:{label}".encode()).digest()
    return lo + int.from_bytes(digest[:8], "big") % (hi - lo + 1)


@dataclass(frozen=True)
class Inputs:
    """Everything the workloads feed the program, derived from the seed."""

    seed: int
    square256_seed: int
    square16_seed: int
    var_cell: tuple[int, int]
    symbols_const: int
    qg_seed: int
    qg_const: int
    kiss_seeds: tuple[int, int, int, int]

    @classmethod
    def from_seed(cls, seed: int) -> "Inputs":
        def d(label, lo, hi):
            return _draw(seed, label, lo, hi)

        return cls(
            seed=seed,
            square256_seed=d("square256", 0, 2**63 - 1),
            square16_seed=d("square16", 0, 2**63 - 1),
            var_cell=(d("var.x", 1, 256), d("var.y", 1, 256)),
            symbols_const=d("symbols.const", 1, 16 * 16 - 1),
            qg_seed=d("qg.seed", 0, 2**63 - 1),
            qg_const=d("qg.const", 1, 256 * 256 - 1),
            kiss_seeds=(d("kiss.x", 0, M32), d("kiss.y", 1, M32),
                        d("kiss.z", 1, M32 - 1), d("kiss.w", 1, M32 - 1)),
        )


@dataclass(frozen=True)
class Workload:
    name: str
    args: list[str]              # qgrand arguments
    kind: str                    # "bytes", "symbols" or "battery"
    judged: int | None           # bytes judged; None means the stdout size
    expected_size: int | None
    expected_head: bytes         # stdout prefix computed with tests/oracle.py
    sources: tuple[str, ...]     # battery source labels, in report order
    probe: dict                  # probe.py spec
    keep: int                    # stdout bytes kept for checking
    problems: tuple[str, ...]    # failed checks of the generators themselves


def _oracle():
    namespace: dict = {}
    exec(compile(ORACLE.read_text(encoding="utf-8"), str(ORACLE), "exec"), namespace)
    return namespace["oracle_blocks"]


def _read_rows(path: Path) -> list[list[int]]:
    """A square file's rows, read without qgrand so the oracle stays independent."""
    lines = [ln.split() for ln in path.read_text(encoding="ascii").splitlines()]
    return [[int(tok) for tok in ln] for ln in lines[1:] if ln]


def _kiss_problems(seeds: tuple[int, int, int, int], words: int) -> list[str]:
    from qgrand import Kiss

    scalar = Kiss(*seeds)
    expected = b"".join(scalar.next_word().to_bytes(4, "big") for _ in range(words))
    if Kiss(*seeds).next_bytes(4 * words) != expected:
        return [f"Kiss.next_bytes differs from Kiss.next_word in the first {words} words"]
    return []


def make_workload(name: str, inputs: Inputs, workdir: Path, sizes: Sizes) -> Workload:
    from qgrand import (ConstantShift, GeneratorConfig, generate, random_latin_square,
                        to_text)

    oracle = _oracle()
    if name in ("gen-bytes", "gen-symbols"):
        order, square_seed = (256, inputs.square256_seed) if name == "gen-bytes" else (16, inputs.square16_seed)
        path = workdir / f"square{order}.txt"
        path.write_text(to_text(random_latin_square(order, square_seed)), encoding="ascii")
        rows = _read_rows(path)
        if name == "gen-bytes":
            x, y = inputs.var_cell
            head = bytes(v - 1 for block in oracle(rows, ("var", x, y), 2) for v in block)
            return Workload(
                name, ["gen", str(path), "--shift-var", str(x), str(y),
                       "--length", str(sizes.gen_bytes), "--stdout"],
                "bytes", sizes.gen_bytes, sizes.gen_bytes, head, (),
                {"square_file": str(path), "var": [x, y], "output": "bytes"}, len(head), ())
        k = inputs.symbols_const
        symbols = [v for block in oracle(rows, ("const", k), 8) for v in block]
        head = (" ".join(map(str, symbols)) + " ").encode()
        return Workload(
            name, ["gen", str(path), "--shift-const", str(k), "--format", "symbols",
                   "--length", str(sizes.gen_symbols)],
            "symbols", None, None, head, (),
            {"square_file": str(path), "const": k, "output": "symbols"}, len(head), ())

    # the battery workloads never show their stream, so the generator they
    # build from the same spec is checked in process
    square = random_latin_square(256, inputs.qg_seed)
    expected = bytes(v - 1 for block in oracle(square.rows(), ("const", inputs.qg_const), 2) for v in block)
    problems = []
    if generate(GeneratorConfig(square, ConstantShift(inputs.qg_const)), len(expected)) != expected:
        problems.append("qg stream prefix differs from tests/oracle.py")
    spec = f"qg:order=256,seed={inputs.qg_seed},const={inputs.qg_const}"
    probe = {"order": 256, "seed": inputs.qg_seed, "const": inputs.qg_const, "output": "bytes"}
    if name == "battery-qg":
        return Workload(name, ["test", "--self-gen", spec, "--length", str(sizes.battery)],
                        "battery", sizes.battery, None, b"", (spec,), probe, KEEP_BATTERY,
                        tuple(problems))
    problems += _kiss_problems(inputs.kiss_seeds, 1000)
    kiss_spec = "kiss:" + ",".join(map(str, inputs.kiss_seeds))
    return Workload(name, ["compare", spec, kiss_spec, "--size", str(sizes.battery)],
                    "battery", 2 * sizes.battery, None, b"", (spec, kiss_spec),
                    {**probe, "kiss": list(inputs.kiss_seeds)}, KEEP_BATTERY, tuple(problems))


def machine_lines(out) -> list[str]:
    text = out.head.decode("utf-8", "replace")
    return [line for line in text.splitlines() if "\t" in line]


def _machine_problems(w: Workload, lines: list[str]) -> list[str]:
    expected = [(test, df, source) for source in w.sources for test, df in BATTERY_TESTS]
    if len(lines) != len(expected):
        return [f"{len(lines)} machine lines, expected {len(expected)}"]
    for line, (test, df, source) in zip(lines, expected):
        fields = line.split("\t")
        try:
            valid = (len(fields) == 5 and fields[:2] == [test, source] and fields[3] == str(df)
                     and float(fields[2]) >= 0 and 0 <= float(fields[4]) <= 1)
        except ValueError:
            valid = False
        if not valid:
            return [f"malformed machine line {line!r}"]
    return []


def judge(w: Workload, out, reference, golden: dict | None) -> list[str]:
    """Problems with one invocation's output; empty when it is correct.

    Exit 3 (a suspect p-value) is a valid battery outcome for an unpinned
    seed; exit 1, 2 or 4 is not."""
    problems = list(w.problems)
    allowed = {golden["exit"]} if golden else ({0, 3} if w.kind == "battery" else {0})
    if out.exit_code not in allowed:
        problems.append(f"exit code {out.exit_code}")
    if w.expected_size is not None and out.size != w.expected_size:
        problems.append(f"{out.size} bytes of output, expected {w.expected_size}")
    if not out.head.startswith(w.expected_head):
        problems.append("stream prefix differs from tests/oracle.py")
    if w.kind == "battery":
        if out.size > w.keep:
            problems.append(f"report of {out.size} bytes is too long")
        lines = machine_lines(out)
        problems += _machine_problems(w, lines)
        if golden and lines != golden["machine"]:
            problems.append("machine lines differ from golden.json")
    elif golden and out.digest != golden["sha256"]:
        problems.append("sha256 differs from golden.json")
    if reference is not None and out.digest != reference.digest:
        problems.append("stdout differs from the first repetition")
    return problems


@dataclass
class Result:
    metrics: dict[str, float] = field(default_factory=dict)
    report: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def count(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [p for p in problems if p not in self.problems]

    def add(self, name: str, value: float, unit: str, samples: int, detail: str = "") -> None:
        self.metrics[name] = value
        shown = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6g}"
        self.report.append(f"  {name:<30} {shown} {unit:<6} {samples:>7}  {detail}")

    @property
    def correct(self) -> bool:
        return self.failed == 0


def _child_env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def calibrate() -> float:
    """Seconds this process takes, right now, for a fixed pure-Python loop."""
    start = perf_counter()
    total = 0
    for i in range(CAL_LOOPS):
        total += i * i
    return perf_counter() - start


@dataclass(frozen=True)
class Run:
    """One child process, its times scaled to the reference host speed."""

    output: object      # spans.Output
    wall_s: float       # spawn to exit, scaled
    ttfb_s: float       # spawn to the first stdout byte, scaled
    peak_rss_mb: float
    factor: float       # the scale: CAL_REF_S over the mean calibration time


def run_child(argv: list[str], keep: int) -> Run:
    """Spawn, drain stdout, reap, and scale the times to the host's speed.

    A shared host's vCPUs slow down and speed up by up to 1.5x over
    seconds, and the program and a pure-Python loop slow down together.  So
    `calibrate` runs right before the spawn and right after the exit, and
    the child's times are scaled to a host that runs the loop in CAL_REF_S.
    (Calibrating while the child is stopped would track the host more closely,
    but a CPython child stopped inside a blocked pipe write drops the rest
    of that write.)"""
    sink = OutputSink(keep)
    before = calibrate()
    start = perf_counter()
    first = None
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=_child_env(), cwd=ROOT)
    try:
        fd = proc.stdout.fileno()
        while chunk := os.read(fd, 1 << 20):
            if first is None:
                first = perf_counter()
            sink.write(chunk)
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    end = perf_counter()
    factor = 2 * CAL_REF_S / (before + calibrate())
    # ru_maxrss is in KiB on Linux
    return Run(sink.output(proc.returncode), (end - start) * factor,
               ((first or end) - start) * factor, usage.ru_maxrss * 1024 / MB, factor)


def _spread(values: list[float]) -> str:
    return f"min {min(values):.6g} max {max(values):.6g}"


def end_to_end(w: Workload, seconds: float, golden: dict | None) -> Result:
    result = Result()
    probes: list[Run] = []
    runs: list[Run] = []
    elapsed: list[float] = []

    def probe():
        run = run_child([sys.executable, str(BENCH / "probe.py"), json.dumps(w.probe)], 0)
        probes.append(run)
        code = run.output.exit_code
        result.count([f"set-up probe exit code {code}"] if code else [])

    start = perf_counter()
    deadline = start + seconds
    while len(runs) < MIN_SAMPLES or perf_counter() + statistics.median(elapsed) <= deadline:
        # probe i is due at i/SETUP_PROBES of the run, so set-up and workload
        # timings span the same stretch of host load
        while len(probes) < SETUP_PROBES and perf_counter() >= start + len(probes) * seconds / SETUP_PROBES:
            probe()
        began = perf_counter()
        run = run_child([sys.executable, "-m", "qgrand", *w.args], w.keep)
        elapsed.append(perf_counter() - began)
        result.count(judge(w, run.output, runs[0].output if runs else None, golden))
        runs.append(run)
    while len(probes) < SETUP_PROBES:
        probe()

    def wall_metric(name, runs):
        values = [r.wall_s for r in runs]
        unscaled = statistics.median(r.wall_s / r.factor for r in runs)
        result.add(name, statistics.median(values), "s", len(values),
                   f"{_spread(values)}; unscaled median {unscaled:.6g}")
        return statistics.median(values)

    judged = w.judged if w.judged is not None else runs[0].output.size
    wall_metric("setup_s", probes)
    wall = wall_metric("wall_s", runs)
    result.add("throughput_mb_s", judged / MB / wall, "MB/s", len(runs), f"{judged} bytes per run")
    ttfb = [r.ttfb_s for r in runs]
    result.add("ttfb_s", statistics.median(ttfb), "s", len(ttfb), _spread(ttfb))
    rss = [r.peak_rss_mb for r in runs]
    result.add("peak_rss_mb", statistics.median(rss), "MB", len(rss), _spread(rss))
    factors = [r.factor for r in probes + runs]
    result.report.append(f"  host speed factor (scaled/unscaled): median "
                         f"{statistics.median(factors):.4g}, {_spread(factors)}")
    return result


def traced(w: Workload, inputs: Inputs, seconds: float, sizes: Sizes,
           golden: dict | None, trace_file: Path) -> Result:
    import layers
    from qgrand import cli, random_latin_square

    result = Result()
    deadline = perf_counter() + seconds
    layer_inputs = layers.LayerInputs(
        square256=random_latin_square(256, inputs.qg_seed),
        square16=random_latin_square(16, inputs.square16_seed),
        square_seed=inputs.qg_seed, const=inputs.qg_const,
        var_cell=inputs.var_cell, kiss_seeds=inputs.kiss_seeds)
    for row in layers.measure(layer_inputs, sizes.layers):
        result.add(row.name, row.value, row.unit, row.samples, row.work)

    outputs, plain, walls, tracers = [], [], [], []
    while not tracers or perf_counter() + pair <= deadline:
        start = perf_counter()
        out, wall = run_captured(cli.main, w.args, w.keep)
        result.count(judge(w, out, outputs[0] if outputs else None, golden))
        outputs.append(out)
        plain.append(wall)
        tracer = Tracer(len(tracers))
        out, wall = run_captured(tracer.run_cli, w.args, w.keep)
        result.count(judge(w, out, outputs[0], golden))
        walls.append(wall)
        tracers.append(tracer)
        pair = perf_counter() - start

    n = len(tracers)
    selfs = [t.self_seconds() for t in tracers]
    for layer in LAYERS:
        values = [s[layer] for s in selfs]
        result.add(f"{layer}.self_s", statistics.median(values), "s", n, _spread(values))
    result.add("trace.overhead_s", statistics.median(walls) - statistics.median(plain), "s", n,
               f"traced {statistics.median(walls):.6g} s, untraced {statistics.median(plain):.6g} s")
    work = tracers[-1].work()
    result.add("engine.blocks", work.get("Engine.next_block", 0), "count", 1, "Engine.next_block calls")
    result.add("kiss.words", work.get("Kiss.next_bytes", 0), "count", 1, "words from Kiss.next_bytes")
    result.add("battery.matrices", work.get("battery.binary_rank_test", 0), "count", 1,
               "rank-test matrices")
    result.add("battery.tuples", work.get("battery.permutation_test", 0), "count", 1, "perm5 tuples")
    trace_file.write_text(json.dumps({
        "workload": w.name, "seed": inputs.seed, "argv": w.args, "environment": environment(),
        "traces": [t.as_dict() for t in tracers]}))
    return result


def environment() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes: Sizes,
                 golden: dict | None) -> tuple[Workload, Result]:
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="inputs-", dir=OUT))
    try:
        inputs = Inputs.from_seed(seed)
        w = make_workload(name, inputs, workdir, sizes)
        if trace:
            trace_file = OUT / f"trace-{name}-seed{seed}.json"
            return w, traced(w, inputs, seconds, sizes, golden, trace_file)
        return w, end_to_end(w, seconds, golden)
    finally:
        shutil.rmtree(workdir)


def _declared() -> dict:
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    return {section: {m["name"]: m["unit"] for m in spec[section]}
            for section in ("end_to_end", "per_layer")}


def _load_golden(name: str, seed: int) -> dict | None:
    if seed != DEFAULT_SEED:
        return None
    return json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))[name]


def _print_report(w: Workload, seed: int, trace: bool, result: Result) -> None:
    env = environment()
    print(f"# qgrand perfbench: workload={w.name} seed={seed} trace={int(trace)}")
    print(f"# environment: python {env['python']}, numpy {env['numpy']}, "
          f"nproc {env['nproc']}, cpu {env['cpu']}")
    print(f"# command: python3 -m qgrand {' '.join(w.args)}")
    print(f"  {'metric':<30} {'value':>14} {'unit':<6} {'samples':>7}  detail")
    for line in result.report:
        print(line)
    ratio = result.failed / result.attempted if result.attempted else 0.0
    print(f"  {'failed_ratio':<30} {ratio:>14.6g} {'ratio':<6} {result.attempted:>7}  "
          f"{result.failed} of {result.attempted} invocations failed")
    for problem in result.problems:
        print(f"# problem: {problem}")


def _metrics_json(result: Result, declared: dict[str, str]) -> dict:
    if set(result.metrics) != set(declared):
        raise RuntimeError(f"metrics {sorted(result.metrics)} do not match BENCHMARK.json "
                           f"{sorted(declared)}")
    return {name: {"value": result.metrics[name], "unit": unit} for name, unit in declared.items()}


def smoke() -> int:
    """Every workload end to end and traced at tiny sizes; then a corrupted
    golden digest, which must count as a failure."""
    declared = _declared()
    sizes = _sizes(smoke=True)
    problems = []
    for name in WORKLOADS:
        for trace in (False, True):
            w, result = run_workload(name, DEFAULT_SEED, 0, trace, sizes, None)
            _print_report(w, DEFAULT_SEED, trace, result)
            section = "per_layer" if trace else "end_to_end"
            mismatch = set(declared[section]) ^ set(result.metrics)
            if mismatch:
                problems.append(f"{name} trace={int(trace)}: metrics not matching BENCHMARK.json: "
                                f"{sorted(mismatch)}")
            if not result.correct:
                problems.append(f"{name} trace={int(trace)}: {result.failed} of {result.attempted} "
                                f"failed: {result.problems}")
    corrupted = {"exit": 0, "sha256": "0" * 64}
    _, result = run_workload("gen-bytes", DEFAULT_SEED, 0, False, sizes, corrupted)
    if result.correct or result.failed < MIN_SAMPLES or \
            "sha256 differs from golden.json" not in result.problems:
        problems.append("a corrupted golden digest was not counted as a failure")
    targets = json.loads((BENCH / "targets.json").read_text(encoding="utf-8"))
    if set(targets) != set(declared["per_layer"]):
        problems.append("targets.json does not cover exactly the per_layer metrics")
    for problem in problems:
        print(f"smoke: FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload and the traced run at tiny sizes, and self-check")
    args = parser.parse_args(argv)
    # a terminated run still reaps its child and removes its inputs
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    missing = [str(p.relative_to(ROOT)) for p in (SRC / "qgrand" / "__init__.py", ORACLE, SPEC)
               if not p.is_file()]
    if missing:
        print(f"perfbench: not a qgrand checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qgrand

    if SRC not in Path(qgrand.__file__).resolve().parents:
        print(f"perfbench: imported qgrand from {qgrand.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()

    golden = _load_golden(args.workload, args.seed)
    w, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                             _sizes(smoke=False), golden)
    _print_report(w, args.seed, bool(args.trace), result)
    declared = _declared()["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({"correct": result.correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": _metrics_json(result, declared)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
