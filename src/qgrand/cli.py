"""Command-line interface.

Subcommands: make-square, validate-square, gen, test, compare.
Exit codes: 0 success, 1 I/O or data error, 2 usage error, 3 battery
failure (a p-value outside [0.001, 0.999]), 4 insufficient input.
Everything is deterministic given the flags; nothing is seeded from the
clock or the OS.
"""

from __future__ import annotations

import argparse
import binascii
import contextlib
import gc
import io
import os
import pickle
import sys
from typing import Callable

import numpy as np

from . import engine, latin  # battery and kiss are imported where used, so gen never loads them

DEFAULT_KISS_SEEDS = (12345, 65435, 34221, 12345)

EXIT_OK = 0
EXIT_DATA = 1
EXIT_USAGE = 2
EXIT_BATTERY = 3
EXIT_INSUFFICIENT = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # one stderr line, like every other usage error
        self.exit(EXIT_USAGE, f"{self.prog}: {message}\n")


class _SpecParser(argparse.ArgumentParser):
    """Parses a qg spec's fields, fed as --key=value; errors name the keys as typed."""

    def error(self, message):
        raise _UsageError(" ".join(word.removeprefix("--") for word in message.split(" ")))


def _int_between(low: int, high: float, name: str) -> Callable[[str], int]:
    """Integer parser for flags and spec fields (argparse `type=`); raises ValueError."""

    def convert(text: str) -> int:
        if not low <= int(text) <= high:
            raise ValueError(text)
        return int(text)

    convert.__name__ = name  # argparse reports "invalid <name> value: ..."
    return convert


_nonnegative = _int_between(0, float("inf"), "non-negative integer")
_positive = _int_between(1, float("inf"), "positive integer")
_order = _int_between(2, latin.MAX_ORDER, f"order (2..{latin.MAX_ORDER})")
_seed = _int_between(0, 2**64 - 1, "seed (0..2^64-1)")


def _cell(text: str) -> tuple[int, int]:
    x, _, y = text.partition(":")
    return _positive(x), _positive(y)


_cell.__name__ = "X:Y cell"


def _shift(args) -> engine.ShiftMode:  # from gen's flags or a qg spec's keys
    if args.shift_var is None:
        return engine.ConstantShift(args.shift_const)
    return engine.VariableShift(*args.shift_var)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qgrand",
        description="Quasigroup stream generator, KISS baseline, and randomness battery.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make-square", help="write a pseudorandom Latin square file")
    p.add_argument("order", type=_order, help=f"square order (2..{latin.MAX_ORDER})")
    p.add_argument("--seed", type=_seed, default=1, help="construction seed, 0..2^64-1 (default 1)")
    p.add_argument("--out", required=True, help="output path (text format)")
    p.set_defaults(handler=_cmd_make_square)

    p = sub.add_parser("validate-square", help="check a square file for the Latin property")
    p.add_argument("path", help="square file to validate")
    p.set_defaults(handler=_cmd_validate_square)

    p = sub.add_parser("gen", help="generate a stream from a square file")
    p.add_argument("square", help="square file (text format)")
    shift = p.add_mutually_exclusive_group(required=True)
    shift.add_argument("--shift-const", type=_nonnegative, metavar="K",
                       help="fixed right-rotation amount")
    shift.add_argument("--shift-var", type=_positive, nargs=2, metavar=("X", "Y"),
                       help="rotation read from cell (X,Y) each cycle, 1-based")
    p.add_argument("--length", type=_nonnegative, required=True,
                   help="output length (bytes, or symbol count with --format symbols)")
    p.add_argument("--format", choices=("bytes", "symbols", "hex"), default="bytes",
                   help="bytes = raw, symbols = 1-based decimals, hex = lowercase pairs (default bytes)")
    sink = p.add_mutually_exclusive_group()
    sink.add_argument("--out", help="output path")
    sink.add_argument("--stdout", action="store_true",
                      help="write to stdout (required for raw bytes without --out)")
    p.set_defaults(handler=_cmd_gen)

    test = p = sub.add_parser("test", help="run the battery on a byte stream")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("input", nargs="?", help="file of raw bytes to test")
    source.add_argument("--self-gen", metavar="SPEC",
                        help="generator spec to test instead of a file (see compare --help)")
    p.add_argument("--length", type=_nonnegative,
                   help="bytes to generate with --self-gen (default 10000000)")
    p.set_defaults(handler=_cmd_test)

    compare = p = sub.add_parser(
        "compare",
        help="side-by-side battery run of two generators",
        epilog=(
            "Generator specs: 'kiss' (seeds %s), 'kiss:X,Y,Z,W', "
            "'qg:order=N,seed=S,const=K', 'qg:file=PATH,var=X:Y'."
            % (",".join(str(s) for s in DEFAULT_KISS_SEEDS),)
        ),
    )
    p.add_argument("gen_a", help="first generator spec")
    p.add_argument("gen_b", help="second generator spec")
    p.add_argument("--size", type=_nonnegative, default=10_000_000,
                   help="bytes generated from each (default 10000000)")
    p.set_defaults(handler=_cmd_compare)
    for p in (test, compare):  # the battery's counts, last in both
        p.add_argument("--n-matrices", type=_positive, help="rank-test matrix count (default: auto)")
        p.add_argument("--n-tuples", type=_positive, help="permutation-test tuple count (default: auto)")
    return parser


def _load_square(path: str) -> latin.LatinSquare:
    try:
        with open(path, encoding="ascii", newline="") as fh:  # newline="": CRLF ends as stored
            text = fh.read()
    except UnicodeDecodeError as exc:  # read() decodes the whole file, so `object` is all of it
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise latin.ParseError(f"byte 0x{exc.object[exc.start]:02x} is not ASCII", line) from None
    return latin.parse_text(text)


def _parse_genspec(spec: str) -> Callable[[int], bytes]:
    """Turn a generator spec string into produce(length) -> bytes."""
    kind, colon, rest = spec.partition(":")
    items = rest.split(",") if colon else []
    if "" in items:  # "kiss:", "qg:order=8,,seed=1" or a trailing comma
        raise _UsageError(f"generator spec {spec!r} has an empty field")
    if kind == "kiss":
        seeds = items or DEFAULT_KISS_SEEDS
        if len(seeds) != 4:
            raise _UsageError(f"kiss needs 4 seeds, got {len(seeds)}")
        from . import kiss

        try:
            generator = kiss.Kiss(*map(int, seeds))
        except ValueError as exc:  # a non-integer, or a seed Kiss rejects
            raise _UsageError(f"kiss: {exc}") from None
        return generator.next_bytes
    if kind == "qg":
        parser = _SpecParser(add_help=False, allow_abbrev=False)
        source = parser.add_mutually_exclusive_group(required=True)
        source.add_argument("--file")
        source.add_argument("--order", type=_order)
        parser.add_argument("--seed", type=_seed)
        shift = parser.add_mutually_exclusive_group(required=True)
        shift.add_argument("--const", dest="shift_const", type=_nonnegative)
        shift.add_argument("--var", dest="shift_var", type=_cell)
        keys = [item.partition("=")[0] for item in items]
        repeated = [key for i, key in enumerate(keys) if key in keys[:i]]
        if repeated:  # argparse would keep the last value, unlike the spec's label
            raise _UsageError(f"qg spec repeats key {repeated[0]}")
        fields = parser.parse_args(["--" + item for item in items])
        if (fields.order is None) != (fields.seed is None):
            raise _UsageError("qg spec takes seed= with order= and only with it")
        if fields.file is None:  # refused before building a square that could never run
            engine.check_byte_map(fields.order)
        square = (_load_square(fields.file) if fields.file is not None
                  else latin.random_latin_square(fields.order, fields.seed))
        config = engine.GeneratorConfig(square, _shift(fields), engine.OutputMap.BYTES)
        return lambda length: engine.generate(config, length)
    raise _UsageError(f"unknown generator {kind!r} (expected kiss or qg)")


def _cmd_make_square(args) -> int:
    square = latin.random_latin_square(args.order, args.seed)
    with open(args.out, "wb") as fh:
        fh.writelines(latin.text_lines(square))  # one row at a time, as to_text joins them
    return EXIT_OK


def _cmd_validate_square(args) -> int:
    try:
        square = _load_square(args.path)
    except latin.LatinSquareError as exc:
        print(f"invalid square: {exc}", file=sys.stderr)
        return EXIT_DATA
    print(f"valid Latin square of order {square.order}")
    return EXIT_OK


def _open_sink(path: str | None):
    """The file at `path`, else stdout, buffered even under `python -u`: there
    stdout's raw write() may take only part of the data, and a buffered writer
    retries until all of it is written."""
    sys.stdout.flush()
    try:
        return open(sys.stdout.fileno() if path is None else path, "wb", closefd=path is not None)
    except io.UnsupportedOperation:  # stdout replaced in process by an in-memory stream
        return contextlib.nullcontext(sys.stdout.buffer)


def _cmd_gen(args) -> int:
    if args.format == "bytes" and args.out is None and not args.stdout:
        raise _UsageError("raw bytes need --out or an explicit --stdout")
    output_map = engine.OutputMap.SYMBOLS if args.format == "symbols" else engine.OutputMap.BYTES
    config = engine.GeneratorConfig(_load_square(args.square), _shift(args), output_map)
    glyphs = np.array([b" %d" % s for s in range(config.square.order + 1)])  # " s", NUL-padded (S dtype)
    encode = {
        "bytes": lambda block: block,  # the block's own buffer, not a copy
        "hex": binascii.hexlify,  # reads the block's buffer
        "symbols": lambda block: glyphs.take(block).tobytes().translate(None, b"\0"),
    }[args.format]
    skip = int(args.format == "symbols")  # the stream's first symbol has no leading space
    with _open_sink(args.out) as sink:
        for block in engine.blocks(config, args.length):
            sink.write(encode(block)[skip:])
            skip = 0
        if args.format != "bytes":
            sink.write(b"\n")
        sink.flush()
    return EXIT_OK


def _battery(sources: dict[str, bytes], args) -> list:
    from . import battery

    return battery.run_battery(sources, None, args.n_matrices, args.n_tuples)


def _report(entries) -> int:  # test's and compare's exit: 4 if an entry is insufficient, 3 if suspect
    from . import battery

    battery.write_report(entries, sys.stdout)
    if any(e.error is not None for e in entries):
        return EXIT_INSUFFICIENT
    return EXIT_BATTERY if any(e.result.suspect for e in entries) else EXIT_OK


def _in_two_processes(first: Callable[[], list], second: Callable[[], list], label: str) -> list:
    """first() + second(): first() in a forked child, which pipes back its list or the
    exception that stopped it, pickled, and leaves only through _exit; second() here
    meanwhile.  first()'s exception is raised before second()'s, as when run in turn."""
    if not hasattr(os, "fork"):  # no fork on this platform: both halves run here, in turn
        return first() + second()
    read, write = os.pipe()
    if (pid := os.fork()) == 0:
        try:
            os.write(write, pickle.dumps(first()))
        except BaseException as exc:  # an interrupt too, which would otherwise read as a silent child
            os.write(write, pickle.dumps(exc))  # pickled whole first, so a failed pickle sends nothing
        finally:
            os._exit(0)
    os.close(write)
    with open(read, "rb") as pipe:
        try:
            second_half = second()
        except Exception as exc:  # raised after the child's, as when the halves run in turn
            second_half = exc
        finally:  # the child's result is read and the child reaped on every path, an interrupt's too
            try:
                sent = pipe.read()
            finally:
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    first_half = (pickle.loads(sent) if sent else
                  ChildProcessError(f"{label}: no result from its process, exit code {code}"))
    for half in (first_half, second_half):
        if isinstance(half, BaseException):
            raise half
    return first_half + second_half


def _cmd_test(args) -> int:
    from . import battery

    if args.input is not None:
        if args.length is not None:
            raise _UsageError("--length applies only to --self-gen, not to an input file")
        with open(args.input, "rb") as fh:
            label, data = args.input, fh.read()
    else:
        length = 10_000_000 if args.length is None else args.length
        label, data = args.self_gen, _parse_genspec(args.self_gen)(length)
    plan = battery._plan(label, data, args.n_matrices, args.n_tuples)
    # the child shares the stream copy-on-write: frequency and perm5 there, the rank tests here
    return _report(_in_two_processes(lambda: [battery._entry(*step) for step in plan[:2]],
                                     lambda: [battery._entry(*step) for step in plan[2:]], label))


def _cmd_compare(args) -> int:
    produce_a, produce_b = _parse_genspec(args.gen_a), _parse_genspec(args.gen_b)
    label_a, label_b = args.gen_a, args.gen_b
    if label_a == label_b:
        label_a, label_b = f"A:{label_a}", f"B:{label_b}"
    return _report(_in_two_processes(lambda: _battery({label_a: produce_a(args.size)}, args),
                                     lambda: _battery({label_b: produce_b(args.size)}, args), args.gen_a))


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (_UsageError, ValueError, OSError, MemoryError) as exc:  # argparse's own prefix
        print(f"{parser.prog} {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, _UsageError) else EXIT_DATA


def run() -> None:
    code = main()
    gc.freeze()  # exit's collections skip numpy's heap, ~20-30 ms; not in main(), which tests call
    sys.exit(code)
