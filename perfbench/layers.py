"""Per-layer timings: direct calls into the public functions of each qgrand
module at fixed sizes, one row per metric with its unit and work count.

The rows follow the baseline table in ROADMAP.md (phases per order-256
block, `generate` in both shift modes, `Kiss.next_bytes`, each battery test
at its default size, `parse_text`/`to_text` and `Engine.symbols()`).
"""

from __future__ import annotations

import statistics
from collections import deque
from dataclasses import dataclass
from itertools import islice
from time import perf_counter

from qgrand import (
    BitMatrix,
    ConstantShift,
    Engine,
    GeneratorConfig,
    Kiss,
    LatinSquare,
    OutputMap,
    VariableShift,
    binary_rank_test,
    chisq_cdf,
    frequency_test,
    generate,
    gf2_rank,
    parse_text,
    permutation_test,
    random_latin_square,
    to_text,
    validate,
)
from qgrand.battery import BatteryEntry, render_machine, render_report

MB = 1e6


@dataclass(frozen=True)
class LayerSizes:
    stream: int      # bytes per generate call and frequency test
    kiss: int        # bytes per Kiss.next_bytes call
    tuples: int      # perm5 tuples
    matrices: int    # rank-test matrices
    blocks: int      # order-256 blocks timed per shift mode
    o16_blocks: int  # order-16 blocks timed
    symbols: int     # values drawn from Engine.symbols()
    reps: int        # repetitions of the cheap rows; the median is kept


@dataclass(frozen=True)
class Row:
    name: str
    value: float
    unit: str
    samples: int  # timings the value is the median or percentile of
    work: str


@dataclass(frozen=True)
class LayerInputs:
    square256: LatinSquare
    square16: LatinSquare
    square_seed: int
    const: int
    var_cell: tuple[int, int]
    kiss_seeds: tuple[int, int, int, int]


def _times(fn, reps: int) -> list[float]:
    times = []
    for _ in range(reps):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return times


def _median(fn, reps: int) -> float:
    return statistics.median(_times(fn, reps))


def _per_call(fn, calls: int, batches: int) -> float:
    """Median over batches of the mean time of one call, for calls too short
    to time one by one."""
    def batch():
        for _ in range(calls):
            fn()
    return _median(batch, batches) / calls


def _p(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(inputs: LayerInputs, sizes: LayerSizes) -> list[Row]:
    rows: list[Row] = []
    reps = sizes.reps
    sq = inputs.square256
    order = f"order {sq.order}"

    text = to_text(sq)
    grid = sq.rows()
    rows += [
        Row("latin.parse_text_ms", _median(lambda: parse_text(text), reps) * 1e3, "ms", reps, order),
        Row("latin.to_text_ms", _median(lambda: to_text(sq), reps) * 1e3, "ms", reps, order),
        Row("latin.validate_ms", _median(lambda: validate(grid), reps) * 1e3, "ms", reps, order),
        Row("latin.random_latin_square_ms",
            _median(lambda: random_latin_square(sq.order, inputs.square_seed), reps) * 1e3,
            "ms", reps, order),
    ]

    const = GeneratorConfig(sq, ConstantShift(inputs.const))
    var = GeneratorConfig(sq, VariableShift(*inputs.var_cell))
    phases: list[list[float]] = [[], [], []]
    blocks: list[float] = []
    for config in (const, var):
        engine = Engine(config)
        for _ in range(sizes.blocks):
            for times, phase in zip(phases, (engine.phase1, engine.phase2, engine.phase3)):
                start = perf_counter()
                phase()
                times.append(perf_counter() - start)
        blocks += _times(engine.next_block, sizes.blocks)
    both = f"{2 * sizes.blocks} blocks of {order}, both shift modes"
    rows += [Row(f"engine.phase{i + 1}_ms", statistics.median(t) * 1e3, "ms", len(t), both)
             for i, t in enumerate(phases)]
    rows += [
        Row("engine.next_block_ms.p50", statistics.median(blocks) * 1e3, "ms", len(blocks), both),
        Row("engine.next_block_ms.p99", _p(blocks, 99) * 1e3, "ms", len(blocks), both),
    ]

    small = Engine(GeneratorConfig(inputs.square16, ConstantShift(inputs.const), OutputMap.SYMBOLS))
    rows.append(Row("engine.next_block_us.o16.p50",
                    statistics.median(_times(small.next_block, sizes.o16_blocks)) * 1e6,
                    "us", sizes.o16_blocks, "order-16 blocks"))
    symbols_config = GeneratorConfig(sq, ConstantShift(inputs.const), OutputMap.SYMBOLS)
    seconds = _median(lambda: deque(islice(Engine(symbols_config).symbols(), sizes.symbols), 0), reps)
    rows.append(Row("engine.symbols_per_s", sizes.symbols / seconds, "1/s", reps,
                    f"{sizes.symbols} values of {order}"))

    stream = f"{sizes.stream} bytes"
    for label, config in (("const", const), ("var", var)):
        seconds = _median(lambda: generate(config, sizes.stream), reps)
        rows.append(Row(f"engine.generate_mb_s.{label}", sizes.stream / MB / seconds, "MB/s", reps,
                        stream))

    seconds = _median(lambda: Kiss(*inputs.kiss_seeds).next_bytes(sizes.kiss), 1)
    rows.append(Row("kiss.next_bytes_mb_s", sizes.kiss / MB / seconds, "MB/s", 1,
                    f"{-(-sizes.kiss // 4)} words"))

    data = generate(const, sizes.stream)
    results = []

    def timed(name, fn, runs, work):
        times = []
        for _ in range(runs):
            start = perf_counter()
            result = fn()
            times.append(perf_counter() - start)
        results.append(result)
        rows.append(Row(name, statistics.median(times) * 1e3, "ms", runs, work))

    timed("battery.frequency_ms", lambda: frequency_test(data), reps, stream)
    timed("battery.perm5_ms", lambda: permutation_test(data, sizes.tuples), reps,
          f"{sizes.tuples} tuples")
    for size in (31, 32):
        timed(f"battery.rank{size}_ms", lambda: binary_rank_test(data, size, sizes.matrices), 1,
              f"{sizes.matrices} matrices")

    words = [int.from_bytes(data[i:i + 4], "big") for i in range(0, 128, 4)]
    matrix = BitMatrix(32, 32, tuple(words))
    rows.append(Row("battery.gf2_rank_us", _per_call(lambda: gf2_rank(matrix), 100, 10 * reps) * 1e6,
                    "us", 10 * reps, "batches of 100 calls on one 32x32 matrix"))
    stats = [(r.statistic, r.degrees_of_freedom) for r in results]

    def cdfs():
        for statistic, df in stats:
            chisq_cdf(statistic, df)

    rows.append(Row("battery.chisq_cdf_us", _per_call(cdfs, 25, 10 * reps) / len(stats) * 1e6,
                    "us", 10 * reps, "batches of 25 x 4 calls, df 255, 119, 3 and 3"))
    entries = [BatteryEntry(source, r.test_name, result=r) for source in ("qg", "kiss") for r in results]
    rows.append(Row("battery.render_ms",
                    _median(lambda: render_report(entries) + render_machine(entries), 10 * reps) * 1e3,
                    "ms", 10 * reps, f"{len(entries)} entries, 2 sources"))
    return rows
