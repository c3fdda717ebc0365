"""Statistical randomness battery over raw byte streams.

Tests: byte frequency, non-overlapping 5-permutation, and GF(2) binary rank
for 31x31 and 32x32 matrices.  Every test reduces to a chi-square statistic
whose p-value is the left tail P(X <= statistic), so statistics far above
expectation give p near 1 and far below give p near 0; both extremes are
suspect.  Results with p outside [0.001, 0.999] are flagged.

Input framing: 32-bit words are 4 consecutive bytes, first byte most
significant.  All tests are pure functions of their input bytes.
"""

from __future__ import annotations

import copyreg
import math
from dataclasses import dataclass
from typing import IO, Callable, Mapping, Sequence

import numpy as np

SUSPECT_LOW = 0.001
SUSPECT_HIGH = 0.999

# auto-sized runs refuse to shrink below these (keeps expected cell counts sane)
MIN_MATRICES = 2000
MIN_TUPLES = 1200

_FACTORIALS_4 = (24, 6, 2, 1)
_CHUNK = 1 << 16  # codes per bincount in _result, which widens each to an intp (512 KiB)


class InsufficientInput(ValueError):
    def __init__(self, needed: int, got: int):
        super().__init__(f"need {needed} input bytes, got {got}")
        self.needed = needed
        self.got = got

    def __reduce__(self):  # unpickled without __init__, which takes other arguments than `args`
        return copyreg.__newobj__, (type(self), *self.args), vars(self)


@dataclass(frozen=True)
class TestResult:
    test_name: str
    statistic: float
    degrees_of_freedom: int
    p_value: float
    categories: list[tuple[str, int, float]]  # (label, observed, expected)

    @property
    def suspect(self) -> bool:
        return not SUSPECT_LOW <= self.p_value <= SUSPECT_HIGH


def chisq_cdf(statistic: float, df: int) -> float:
    """Left-tail chi-square probability P(X <= statistic) for an integer df,
    i.e. the regularized lower incomplete gamma P(df/2, statistic/2).

    One finite sum for the upper tail (Abramowitz & Stegun 26.4.4-26.4.5):
    with x = statistic/2 and k = df/2, df/2 - 1, ... down to 1 (even df) or
    3/2 (odd df, which adds erfc(sqrt(x))), each term e^-x x^(k-1) / Gamma(k)
    is taken from its logarithm, so none underflows while it still matters.
    No iteration limit; within 1e-9 of scipy's gammainc up to df 20000.
    """
    if not 0 <= statistic < math.inf:
        raise ValueError(f"statistic {statistic} is not finite and >= 0")
    if df < 1:
        raise ValueError(f"df {df} < 1")
    x = statistic / 2.0
    if x == 0.0:
        return 0.0
    log_x = math.log(x)
    upper = math.erfc(math.sqrt(x)) if df % 2 else 0.0
    for i in range(df // 2):
        k = df / 2.0 - i
        upper += math.exp(-x + (k - 1.0) * log_x - math.lgamma(k))
    return max(0.0, 1.0 - upper)


@dataclass(frozen=True)
class BitMatrix:
    """An r x c matrix over GF(2); row i is the integer row_bits[i], with bit
    (cols-1-j) holding column j (leftmost column is the most significant bit)."""

    rows: int
    cols: int
    row_bits: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("BitMatrix needs rows, cols >= 1")
        if len(self.row_bits) != self.rows:
            raise ValueError(f"expected {self.rows} row values, got {len(self.row_bits)}")

    @classmethod
    def from_grid(cls, grid: Sequence[Sequence[int]]) -> "BitMatrix":
        rows = len(grid)
        cols = len(grid[0])
        bits = []
        for row in grid:
            value = 0
            for cell in row:
                value = (value << 1) | (1 if cell else 0)
            bits.append(value)
        return cls(rows, cols, tuple(bits))


def _ranks(rows):
    """GF(2) ranks, eliminating `rows` in place.  Either a (size, M) unsigned
    array, rows[i] holding row i of each of M matrices, which gives an array
    of M ranks; or a list of Python ints, one matrix of any width, which
    gives its rank.

    Pass i takes row i's lowest set bit as its pivot (a zero row has none
    and adds no rank) and XORs row i into every later row holding that bit.
    Row i is already clear of all earlier pivots, so they stay cleared.
    No bit of row i lies below its pivot, so row i is exactly pivot * q."""
    rank = 0
    for i, r in enumerate(rows):
        pivot = r & (0 - r)
        rank = rank + (pivot != 0)
        q = r // (pivot | (pivot == 0))  # a zero row divides by 1, not 0
        for j in range(i + 1, len(rows)):  # one row at a time: no (size, M) temporaries
            rows[j] ^= (rows[j] & pivot) * q  # row i where row j holds the pivot
    return rank


def gf2_rank(m: BitMatrix) -> int:
    """Rank of the matrix over GF(2)."""
    return _ranks(list(m.row_bits))


def rank_class_probabilities(n: int) -> tuple[float, float, float, float]:
    """P(rank = n), P(n-1), P(n-2), and P(rank <= n-3) for a uniform random
    n x n bit matrix, via the standard product formula."""
    if n < 10:
        raise ValueError(f"n={n} too small, need n >= 10")

    def prob(r: int) -> float:
        result = 2.0 ** (r * (2 * n - r) - n * n)
        for i in range(r):
            result *= (1.0 - 2.0 ** (i - n)) ** 2 / (1.0 - 2.0 ** (i - r))
        return result

    full = prob(n)
    full_m1 = prob(n - 1)
    full_m2 = prob(n - 2)
    return full, full_m1, full_m2, 1.0 - full - full_m1 - full_m2


def _result(test_name: str, labels: Sequence[str], codes: np.ndarray, expected: list[float]) -> TestResult:
    """Chi-square of the counts of `codes`, each item's index into `labels`,
    against `expected`; df is one less than the number of categories."""
    chunks = range(0, len(codes), _CHUNK)
    counts = sum(np.bincount(codes[i : i + _CHUNK], minlength=len(labels)) for i in chunks).tolist()
    statistic = float(sum((o - e) ** 2 / e for o, e in zip(counts, expected)))
    df = len(counts) - 1
    return TestResult(test_name, statistic, df, chisq_cdf(statistic, df), list(zip(labels, counts, expected)))


def _words(data: bytes, count: int) -> np.ndarray:
    """The first `count` 32-bit words of `data`; InsufficientInput if it is shorter."""
    if (got := memoryview(data).nbytes) < 4 * count:  # bytes, whatever the items of an array are
        raise InsufficientInput(4 * count, got)
    return np.frombuffer(data, dtype=">u4", count=count)


def binary_rank_test(data: bytes, size: int = 32, n_matrices: int = 40000) -> TestResult:
    """Rank-class chi-square over n_matrices GF(2) matrices built from the
    input words: 32x32 uses all 32 bits of 32 consecutive words, 31x31 the
    31 most significant bits of 31 words.  df = 3.

    All matrices are eliminated together: the words are laid out once as
    (size, n_matrices), row i of every matrix side by side, and each
    elimination step is one numpy operation across all of them."""
    if size not in (31, 32):
        raise ValueError(f"size must be 31 or 32, got {size}")
    if n_matrices < 1:
        raise ValueError("n_matrices must be >= 1")
    words = _words(data, n_matrices * size).reshape(n_matrices, size)
    # one transposing copy in ~32 KiB bands that stay in cache, then 31x31 drops its low bit
    rows, band = np.empty((size, n_matrices), np.uint32), (1 << 15) // words.strides[0]
    for i in range(0, n_matrices, band):
        rows[:, i : i + band] = words[i : i + band].T
    rows >>= 32 - size
    ranks = _ranks(rows)
    classes = np.minimum(size - ranks, 3)
    expected = [p * n_matrices for p in rank_class_probabilities(size)]
    return _result(f"rank_{size}x{size}", ("full", "full-1", "full-2", "rest"), classes, expected)


def permutation_test(data: bytes, n_tuples: int = 1_000_000) -> TestResult:
    """Chi-square of the ordering classes of disjoint 5-tuples of words
    against the uniform 120-way expectation.  df = 119.

    Non-overlapping variant: tuples are disjoint, so the classes are
    independent and the plain chi-square applies without covariance
    corrections."""
    if n_tuples < 1:
        raise ValueError("n_tuples must be >= 1")
    words = _words(data, n_tuples * 5).reshape(n_tuples, 5)
    # the Lehmer index pair by pair over all tuples; strict > keeps earlier-is-smaller on ties
    # every index is below 120, so uint8 holds it; np.uint8(weight) keeps the product uint8 too
    indices = np.zeros(n_tuples, dtype=np.uint8)
    for i, weight in enumerate(_FACTORIALS_4):
        for j in range(i + 1, 5):
            indices += (words[:, i] > words[:, j]) * np.uint8(weight)
    return _result("perm5", [str(i) for i in range(120)], indices, [n_tuples / 120.0] * 120)


def frequency_test(data: bytes) -> TestResult:
    """Chi-square over the 256 byte-value counts.  df = 255."""
    codes = np.frombuffer(memoryview(data).cast("B"), dtype=np.uint8)  # every byte, whatever the item size
    if codes.size < 25600:
        raise InsufficientInput(25600, codes.size)
    return _result("frequency", [f"0x{i:02x}" for i in range(256)], codes, [codes.size / 256.0] * 256)


@dataclass(frozen=True)
class BatteryEntry:
    source: str
    test_name: str
    result: TestResult | None = None
    error: InsufficientInput | None = None


def run_battery(
    sources: Mapping[str, bytes],
    sink: IO[str] | None = None,
    n_matrices: int | None = None,
    n_tuples: int | None = None,
) -> list[BatteryEntry]:
    """Run all tests on each named byte source.

    When a count is None it is auto-sized: the Diehard-style default, shrunk
    to what the input supports, but never below MIN_MATRICES / MIN_TUPLES
    (shorter inputs get an insufficient-input row instead of a junk
    statistic).  Explicit counts are honored strictly.  If `sink` is given,
    the rendered report and the machine-readable lines are written to it.
    """
    entries = [_entry(*step) for name, data in sources.items()
               for step in _plan(name, data, n_matrices, n_tuples)]
    if sink is not None:
        write_report(entries, sink)
    return entries


def _plan(name: str, data: bytes, n_matrices: int | None, n_tuples: int | None) -> list:
    """One source's tests in report order, as (source, test name, runner)."""
    data = memoryview(data).cast("B")  # sized in bytes, as the tests read them
    tuples = _fit(n_tuples, len(data) // 20, 1_000_000, MIN_TUPLES)
    matrices = {size: _fit(n_matrices, len(data) // (4 * size), 40000, MIN_MATRICES) for size in (31, 32)}
    return [
        (name, "frequency", lambda: frequency_test(data)),
        (name, "perm5", lambda: permutation_test(data, tuples)),
        (name, "rank_31x31", lambda: binary_rank_test(data, 31, matrices[31])),
        (name, "rank_32x32", lambda: binary_rank_test(data, 32, matrices[32])),
    ]


def _entry(name: str, test_name: str, runner: Callable[[], TestResult]) -> BatteryEntry:
    """One step of a plan run: its result, or the InsufficientInput it raised."""
    try:
        return BatteryEntry(name, test_name, result=runner())
    except InsufficientInput as exc:
        return BatteryEntry(name, test_name, error=exc)


def write_report(entries: Sequence[BatteryEntry], sink: IO[str]) -> None:
    """The rendered report, a blank line, then the machine-readable lines."""
    sink.write(render_report(entries) + "\n" + render_machine(entries))


def _fit(requested: int | None, available: int, default: int, minimum: int) -> int:
    """`requested` if given, else `default` shrunk to the `available` count
    but never below `minimum`."""
    if requested is not None:
        return requested
    return max(minimum, min(default, available))


def render_report(entries: Sequence[BatteryEntry]) -> str:
    """Plain-text table, one row per test, one p-value column per source."""
    sources = list(dict.fromkeys(e.source for e in entries))
    tests = list(dict.fromkeys(e.test_name for e in entries))
    by_key = {(e.source, e.test_name): e for e in entries}
    header = ["Test Name"] + [f"{s} (p-value)" for s in sources]
    rows = [header]
    for test in tests:
        row = [test]
        for source in sources:
            entry = by_key.get((source, test))
            if entry is None:
                row.append("-")
            elif entry.error is not None:
                row.append(f"insufficient input (need {entry.error.needed}, got {entry.error.got})")
            else:
                r = entry.result
                flag = "  [suspect]" if r.suspect else ""
                row.append(f"{r.p_value:.6f}  chi2({r.degrees_of_freedom}) = {r.statistic:.3f}{flag}")
        rows.append(row)
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = []
    for idx, row in enumerate(rows):
        lines.append(" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
        if idx == 0:
            lines.append("-+-".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def render_machine(entries: Sequence[BatteryEntry]) -> str:
    """Line-oriented form: test<TAB>source<TAB>statistic<TAB>df<TAB>p."""
    lines = []
    for e in entries:
        if e.result is not None:
            r = e.result
            lines.append(
                f"{r.test_name}\t{e.source}\t{r.statistic:.6f}\t{r.degrees_of_freedom}\t{r.p_value:.6f}"
            )
        else:
            lines.append(
                f"{e.test_name}\t{e.source}\tNA\tNA\tinsufficient:need={e.error.needed},got={e.error.got}"
            )
    return "\n".join(lines) + ("\n" if lines else "")
