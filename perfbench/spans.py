"""Span recording around the public functions of each qgrand layer.

The layers are the package's modules: latin, engine, kiss, battery and cli.
A `Tracer` replaces selected module attributes and methods with wrappers
that record one span per call (name, layer, start, end, parent, work), runs
`cli.main` in process, and puts the originals back.  Nothing under `src/`
is changed; spans inside the program itself are a separate piece of work.
"""

from __future__ import annotations

import functools
import hashlib
import io
import sys
import traceback
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

LAYERS = ("latin", "engine", "kiss", "battery", "cli")


class Span:
    __slots__ = ("name", "layer", "parent", "work", "start", "end")

    def __init__(self, name: str, layer: str, parent: int | None, work: int):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.work = work
        self.start = 0.0
        self.end = 0.0

    def as_dict(self) -> dict:
        return {s: getattr(self, s) for s in self.__slots__}


def _words(self, length: int) -> int:
    return -(-length // 4)


def _tuples(data, n_tuples: int = 1_000_000) -> int:
    return n_tuples


def _matrices(data, size: int = 32, n_matrices: int = 40000) -> int:
    return n_matrices


def _targets():
    """(owner, attribute, layer, work counter) for every traced function.
    A work counter takes the call's arguments and returns its work count."""
    from qgrand import battery, engine, kiss, latin

    return [
        (latin, "parse_text", "latin", None),
        (latin, "random_latin_square", "latin", None),
        (engine, "generate", "engine", None),
        (engine.Engine, "next_block", "engine", lambda self: 1),
        (kiss.Kiss, "next_bytes", "kiss", _words),
        (battery, "run_battery", "battery", None),
        (battery, "frequency_test", "battery", None),
        (battery, "permutation_test", "battery", _tuples),
        (battery, "binary_rank_test", "battery", _matrices),
        (battery, "render_report", "battery", None),
        (battery, "render_machine", "battery", None),
    ]


class Tracer:
    """Spans of one traced `cli.main` call, kept in memory in call order."""

    def __init__(self, trace_id: int):
        self.trace_id = trace_id
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, name: str, layer: str, fn, work=None):
        spans, open_spans = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = open_spans[-1] if open_spans else None
            span = Span(name, layer, parent, work(*args, **kwargs) if work else 0)
            open_spans.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                open_spans.pop()

        return traced

    def run_cli(self, argv: list[str]) -> int:
        """`cli.main(argv)` with every target wrapped; originals restored after."""
        from qgrand import cli

        saved = []
        try:
            for owner, attr, layer, work in _targets():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                name = f"{getattr(owner, '__name__', '').rpartition('.')[2]}.{attr}"
                setattr(owner, attr, self.wrap(name, layer, original, work))
            return self.wrap("cli.main", "cli", cli.main)(argv)
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_seconds(self) -> dict[str, float]:
        """Per layer: span time minus the time of each span's direct children."""
        children = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent] += span.end - span.start
        totals = {layer: 0.0 for layer in LAYERS}
        for span, inner in zip(self.spans, children):
            totals[span.layer] += span.end - span.start - inner
        return totals

    def work(self) -> dict[str, int]:
        """Summed work counts per traced function name."""
        counts: dict[str, int] = defaultdict(int)
        for span in self.spans:
            counts[span.name] += span.work
        return dict(counts)

    def as_dict(self) -> dict:
        return {"trace_id": self.trace_id, "spans": [s.as_dict() for s in self.spans]}


@dataclass(frozen=True)
class Output:
    """What an invocation produced: exit code, sha256 and size of stdout,
    and its first bytes."""

    exit_code: int
    digest: str
    size: int
    head: bytes


class OutputSink(io.RawIOBase):
    """Write-only stream that hashes everything and keeps only a prefix."""

    def __init__(self, keep: int):
        super().__init__()
        self.keep = keep
        self.hash = hashlib.sha256()
        self.size = 0
        self.head = bytearray()

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        view = memoryview(data).cast("B")
        room = self.keep - len(self.head)
        if room > 0:
            self.head += view[:room]
        self.hash.update(view)
        self.size += len(view)
        return len(view)

    def output(self, exit_code: int) -> Output:
        return Output(exit_code, self.hash.hexdigest(), self.size, bytes(self.head))


def run_captured(call, argv: list[str], keep: int) -> tuple[Output, float]:
    """Run `call(argv)` in process with sys.stdout redirected into an
    OutputSink; returns the output and the call's wall time in seconds."""
    sink = OutputSink(keep)
    stdout = io.TextIOWrapper(io.BufferedWriter(sink, 1 << 20), encoding="utf-8")
    saved = sys.stdout
    sys.stdout = stdout
    start = perf_counter()
    try:
        code = call(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        # a crash inside the program is a failed invocation, not a benchmark error
        traceback.print_exc()
        code = -1
    finally:
        stdout.flush()
        wall = perf_counter() - start
        sys.stdout = saved
    return sink.output(code), wall
