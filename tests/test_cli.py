import hashlib
import io
import json
import os
import re
import resource
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from qgrand import (
    ConstantShift,
    Engine,
    GeneratorConfig,
    OutputMap,
    VariableShift,
    generate,
    random_latin_square,
    to_text,
    validate,
)
from qgrand import latin
from qgrand.cli import main

from conftest import TABLE1, large_order_oracle, run_peak_rss
from oracle import oracle_blocks
from test_engine import TABLE1_BLOCK0


def run_main(argv, capsys):
    """`main(argv)` in process: (exit code, stdout, stderr)."""
    try:
        code = main([str(a) for a in argv])
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "qgrand", *[str(a) for a in args]],
        capture_output=True,
        **kwargs,
    )


@pytest.fixture()
def table1_file(tmp_path):
    path = tmp_path / "table1.txt"
    path.write_text(to_text(validate(TABLE1)))
    return path


class TestMakeSquare:
    def test_output_passes_validate_square(self, tmp_path):
        out = tmp_path / "square.txt"
        made = run_cli("make-square", 5, "--seed", 7, "--out", out)
        assert made.returncode == 0
        checked = run_cli("validate-square", out)
        assert checked.returncode == 0
        assert b"order 5" in checked.stdout

    def test_order_one_is_usage_error(self, tmp_path):
        result = run_cli("make-square", 1, "--out", tmp_path / "x.txt")
        assert result.returncode == 2

    def test_unwritable_path(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        result = run_cli("make-square", 5, "--out", blocker / "square.txt")
        assert result.returncode == 1
        assert result.stderr

    def test_largest_seed_writes_its_square(self, tmp_path, capsys):
        out = tmp_path / "square.txt"
        assert run_main(["make-square", 4, "--seed", 2**64 - 1, "--out", out], capsys) == (0, "", "")
        assert out.read_text() == to_text(random_latin_square(4, 2**64 - 1))

    def test_file_is_written_one_row_at_a_time(self, tmp_path, monkeypatch, capsys):
        # the rows that to_text joins, each written as it is formatted: the whole text is never built
        out, expected = tmp_path / "square.txt", to_text(random_latin_square(300, seed=1))

        def refuse(square):
            raise AssertionError("the whole text was built")

        monkeypatch.setattr(latin, "to_text", refuse)
        assert run_main(["make-square", 300, "--seed", 1, "--out", out], capsys) == (0, "", "")
        assert out.read_text() == expected

    @pytest.mark.parametrize("argv", [
        ["make-square", "65537", "--out", "x.txt"],
        ["compare", "qg:order=65537,seed=1,const=1", "kiss"],
    ])
    def test_order_above_maximum_rejected_before_building(self, argv, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("square built for an invalid order")

        monkeypatch.setattr(latin, "random_latin_square", refuse)
        code, out, err = run_main(argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"qgrand {argv[0]}: ") and len(err.splitlines()) == 1, err

    def test_deterministic_files(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        run_cli("make-square", 16, "--seed", 3, "--out", a)
        run_cli("make-square", 16, "--seed", 3, "--out", b)
        assert a.read_bytes() == b.read_bytes()


@pytest.fixture(scope="module")
def square_file_peaks(tmp_path_factory):
    """make-square, then validate-square on its file, at orders 1024 and 2048: for each
    command, the file's size and the command's peak RSS, both in bytes, per order."""
    directory = tmp_path_factory.mktemp("squares")
    peaks = {}
    for order in (1024, 2048):
        path = directory / f"sq{order}.txt"
        for command in (["make-square", order, "--seed", 1, "--out", path], ["validate-square", path]):
            code, kib = run_peak_rss([sys.executable, "-m", "qgrand", *command])
            assert code == 0
            peaks.setdefault(command[0], []).append((path.stat().st_size, kib * 1024))
    return peaks


class TestValidateSquare:
    @pytest.mark.parametrize("command, bound", [("make-square", 2), ("validate-square", 4)])
    def test_peak_memory_grows_no_faster_than_the_file(self, square_file_peaks, command, bound):
        # the file grows ~4.5x from order 1024 to 2048.  Per byte of that growth, make-square's
        # peak grows 1.1 bytes, and validate-square's 2.4 (3.3 with a whole-text read checked
        # by writing the square back, 5.3 when that read kept an encoded copy of the text)
        (small_size, small_peak), (large_size, large_peak) = square_file_peaks[command]
        assert large_peak - small_peak <= bound * (large_size - small_size), (small_peak, large_peak)

    def test_rejects_duplicate_row(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n1 1\n2 1\n")
        result = run_cli("validate-square", path)
        assert result.returncode == 1
        assert b"row 1" in result.stderr

    def test_missing_file(self, tmp_path):
        result = run_cli("validate-square", tmp_path / "absent.txt")
        assert result.returncode == 1

    def test_non_ascii_byte_past_the_first_8_kib_names_its_line(self, tmp_path):
        # a decoder reads the file in chunks (8 KiB by default): the line is counted in the
        # whole file, not in the chunk that holds the byte
        text = to_text(random_latin_square(64, seed=1)).encode()
        path = tmp_path / "late.txt"
        path.write_bytes(text[:8787] + b"\xff" + text[8787:])  # 8787 is where line 50 starts
        assert path.stat().st_size == 11716
        result = run_cli("validate-square", path)
        assert result.returncode == 1
        assert result.stderr.decode().splitlines() == ["invalid square: line 50: byte 0xff is not ASCII"]


class TestGen:
    def test_symbols_reproduce_first_cycle(self, table1_file):
        result = run_cli(
            "gen", table1_file, "--shift-const", 2, "--length", 25, "--format", "symbols"
        )
        assert result.returncode == 0
        assert result.stdout.decode().split() == [str(v) for v in TABLE1_BLOCK0]

    def test_cycles_reuse_the_heap(self, tmp_path):
        # whether glibc grows the heap for a cycle's buffers and trims it back after, every
        # cycle, depends on the heap's layout, which shifts with the environment's size: about
        # 1 in 16 of these layouts did so, at ~84 minor page faults a cycle (256 cycles here)
        square = tmp_path / "sq256.txt"
        square.write_text(to_text(random_latin_square(256, seed=1)))
        faults = []
        for pad in range(0, 4096, 256):
            proc = subprocess.Popen([sys.executable, "-m", "qgrand", "gen", square, "--shift-var", "3", "9",
                                     "--length", str(16 << 20), "--stdout"], stdout=subprocess.DEVNULL,
                                    env={**os.environ, "QGRAND_TEST_PAD": "x" * pad})
            _, status, usage = os.wait4(proc.pid, 0)
            assert os.waitstatus_to_exitcode(status) == 0
            faults.append(usage.ru_minflt)
        assert max(faults) < 12_000, faults

    def test_zero_length(self, table1_file):
        result = run_cli("gen", table1_file, "--shift-const", 2, "--length", 0, "--stdout")
        assert result.returncode == 0
        assert result.stdout == b""

    def test_identical_invocations_are_byte_identical(self, tmp_path):
        square = tmp_path / "square.txt"
        run_cli("make-square", 256, "--seed", 11, "--out", square)
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        for out in (a, b):
            result = run_cli("gen", square, "--shift-var", 3, 9, "--length", 4096, "--out", out)
            assert result.returncode == 0
        assert a.read_bytes() == b.read_bytes()
        assert len(a.read_bytes()) == 4096

    def test_raw_bytes_need_out_or_stdout(self, table1_file):
        result = run_cli("gen", table1_file, "--shift-const", 2, "--length", 10)
        assert result.returncode == 2

    def test_shift_flags_mutually_exclusive(self, table1_file):
        both = run_cli(
            "gen", table1_file, "--shift-const", 2, "--shift-var", 1, 1, "--length", 10, "--stdout"
        )
        assert both.returncode == 2
        neither = run_cli("gen", table1_file, "--length", 10, "--stdout")
        assert neither.returncode == 2

    def test_hex_format(self, table1_file):
        result = run_cli(
            "gen", table1_file, "--shift-const", 2, "--length", 16, "--format", "hex"
        )
        assert result.returncode == 0
        text = result.stdout.decode().strip()
        assert len(text) == 32
        int(text, 16)

    def test_bytes_are_symbols_minus_one(self, table1_file):
        result = run_cli(
            "gen", table1_file, "--shift-const", 2, "--length", 25, "--format", "hex"
        )
        values = bytes.fromhex(result.stdout.decode().strip())
        assert list(values) == [v - 1 for v in TABLE1_BLOCK0]

    def test_invalid_square_file_names_violation(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n1 1\n2 1\n")
        result = run_cli("gen", path, "--shift-const", 2, "--length", 10, "--stdout")
        assert result.returncode == 1
        assert b"row" in result.stderr


    def test_non_ascii_square_file_names_its_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"2\n1 2\n2 \xff1\n")
        checked = run_cli("validate-square", path)
        assert checked.returncode == 1
        assert checked.stderr.decode().splitlines() == ["invalid square: line 3: byte 0xff is not ASCII"]
        result = run_cli("gen", path, "--shift-const", 2, "--length", 10, "--stdout")
        assert result.returncode == 1
        assert result.stdout == b""
        assert result.stderr.decode().splitlines() == ["qgrand gen: line 3: byte 0xff is not ASCII"]

    def test_order_line_beyond_int_digit_limit_is_not_an_integer(self, tmp_path):
        # int() refuses 5000 digits with a plain ValueError; parse_text names the token
        path = tmp_path / "big.txt"
        path.write_text("1" * 5000 + "\n1\n")
        checked = run_cli("validate-square", path)
        assert checked.returncode == 1
        assert re.fullmatch(r"invalid square: line 1, token 1: order '1{5000}' is not an integer\n",
                            checked.stderr.decode())


def _expected_gen(fmt, length):
    """What `gen TABLE1 --shift-const 2` must write, built from the library."""
    square = validate(TABLE1)
    if fmt == "symbols":
        engine = Engine(GeneratorConfig(square, ConstantShift(2), OutputMap.SYMBOLS))
        values = []
        while len(values) < length:
            values += engine.next_block().tolist()
        return (" ".join(map(str, values[:length])) + "\n").encode()
    data = generate(GeneratorConfig(square, ConstantShift(2), OutputMap.BYTES), length)
    return data if fmt == "bytes" else (data.hex() + "\n").encode()


class TestGenSinglePath:
    # order 5: one block is 25 values
    LENGTHS = [0, 1, 24, 25, 26, 3 * 25 + 7]

    @pytest.mark.parametrize("length", LENGTHS)
    @pytest.mark.parametrize("fmt", ["bytes", "hex", "symbols"])
    def test_out_file(self, table1_file, tmp_path, capfdbinary, fmt, length):
        out = tmp_path / "stream"
        argv = ["gen", table1_file, "--shift-const", 2, "--length", length, "--format", fmt, "--out", out]
        assert run_main(argv, capfdbinary) == (0, b"", b"")
        assert out.read_bytes() == _expected_gen(fmt, length)

    @pytest.mark.parametrize("length", LENGTHS)
    @pytest.mark.parametrize("fmt", ["bytes", "hex", "symbols"])
    def test_stdout(self, table1_file, capfdbinary, fmt, length):
        argv = ["gen", table1_file, "--shift-const", 2, "--length", length, "--format", fmt, "--stdout"]
        assert run_main(argv, capfdbinary) == (0, _expected_gen(fmt, length), b"")

    @pytest.mark.parametrize("fmt", ["bytes", "symbols"])
    def test_in_memory_stdout(self, table1_file, capsysbinary, fmt):
        # stdout replaced in process by a stream without a file descriptor
        argv = ["gen", table1_file, "--shift-const", 2, "--length", 82, "--format", fmt, "--stdout"]
        assert run_main(argv, capsysbinary) == (0, _expected_gen(fmt, 82), b"")

    def test_multi_digit_symbol_labels(self, tmp_path, capfdbinary):
        # order 300: labels of one to three digits, and a second block
        square = tmp_path / "square.txt"
        square.write_text(to_text(random_latin_square(300, seed=300)))
        length = 300 * 300 + 1234
        values = [v for block in large_order_oracle(300, ("var", 300, 299)) for v in block][:length]
        argv = ["gen", square, "--shift-var", 300, 299, "--length", length, "--format", "symbols", "--stdout"]
        assert run_main(argv, capfdbinary) == (0, (" ".join(map(str, values)) + "\n").encode(), b"")

    @pytest.mark.parametrize("whole, extra", [(0, 1), (1, 0), (1, 1), (3, 7)], ids=["1", "n2", "n2+1", "3n2+7"])
    @pytest.mark.parametrize("order", [9, 10, 99, 100])
    def test_symbol_label_width_boundaries(self, tmp_path, capfdbinary, order, whole, extra):
        # labels widen from one digit to two at 10 and to three at 100; the
        # stream is cut inside the first block, at its end, and in later blocks
        length = whole * order * order + extra
        seed_square = random_latin_square(order, seed=order)
        values = [v for block in oracle_blocks(seed_square.rows(), ("var", 1, order), whole + 1) for v in block][:length]
        square = tmp_path / "square.txt"
        square.write_text(to_text(seed_square))
        argv = ["gen", square, "--shift-var", 1, order, "--length", length, "--format", "symbols", "--stdout"]
        assert run_main(argv, capfdbinary) == (0, (" ".join(map(str, values)) + "\n").encode(), b"")

    def test_hex_at_order_256_over_several_blocks(self, tmp_path, capfdbinary):
        seed_square = random_latin_square(256, seed=256)
        square = tmp_path / "square.txt"
        square.write_text(to_text(seed_square))
        length = 2 * 65536 + 777
        want = generate(GeneratorConfig(seed_square, VariableShift(3, 9)), length).hex() + "\n"
        argv = ["gen", square, "--shift-var", 3, 9, "--length", length, "--format", "hex", "--stdout"]
        assert run_main(argv, capfdbinary) == (0, want.encode(), b"")

    @pytest.mark.parametrize("sink", ["--out", "--stdout"])
    def test_raw_bytes_at_order_256(self, tmp_path, capfdbinary, sink):
        square = tmp_path / "square.txt"
        square.write_text(to_text(random_latin_square(256, seed=256)))
        length = 65536 + 777
        want = bytes(v - 1 for block in large_order_oracle(256, ("const", 65535)) for v in block)[:length]
        out = tmp_path / "stream"
        argv = ["gen", square, "--shift-const", 65535, "--length", length, sink, *([out] if sink == "--out" else [])]
        code, stdout, stderr = run_main(argv, capfdbinary)
        assert (code, stderr) == (0, b"")
        assert (out.read_bytes() if sink == "--out" else stdout) == want

    def test_stdout_complete_when_stopped_mid_write(self, tmp_path):
        # Under PYTHONUNBUFFERED=1 stdout's binary layer is a raw FileIO, whose
        # write() returns early when the writer is stopped while blocked on a
        # full pipe; every byte must still arrive.
        square = tmp_path / "square.txt"
        square.write_text(to_text(random_latin_square(256, seed=3)))
        length = 5_000_000
        proc = subprocess.Popen(
            [sys.executable, "-m", "qgrand", "gen", str(square), "--shift-const", "7",
             "--length", str(length), "--stdout"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            env={**os.environ, "PYTHONUNBUFFERED": "1"},
        )
        received = bytearray()

        def drain():  # slowly, so the pipe stays full
            while chunk := proc.stdout.read1(16384):
                received.extend(chunk)
                time.sleep(0.001)

        reader = threading.Thread(target=drain)
        reader.start()
        deadline = time.monotonic() + 120
        try:
            while proc.poll() is None and time.monotonic() < deadline:
                proc.send_signal(signal.SIGSTOP)
                time.sleep(0.01)
                proc.send_signal(signal.SIGCONT)
                time.sleep(0.01)
        finally:
            proc.kill()  # a no-op once the loop has seen it exit
            code = proc.wait(timeout=60)
            reader.join(timeout=60)
        assert not reader.is_alive()
        assert code == 0
        config = GeneratorConfig(random_latin_square(256, seed=3), ConstantShift(7))
        assert len(received) == length
        assert bytes(received) == generate(config, length)

    def test_reader_closing_early_exits_1_with_one_line(self, tmp_path):
        # `gen … --stdout | head -c 10`: the write fails once the reader is gone, and
        # the exit that follows adds nothing to stderr
        square = tmp_path / "square.txt"
        square.write_text(to_text(random_latin_square(256, seed=1)))
        proc = subprocess.Popen(
            [sys.executable, "-m", "qgrand", "gen", str(square), "--shift-var", "3", "9",
             "--length", "1048576", "--stdout"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        head = proc.stdout.read(10)
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert (len(head), proc.wait(timeout=60), stderr) == (10, 1, b"qgrand gen: [Errno 32] Broken pipe\n")

    def test_peak_memory_independent_of_length(self, tmp_path):
        square = tmp_path / "square.txt"
        square.write_text(to_text(random_latin_square(256, seed=3)))

        def peak_rss_kib(length):
            code, kib = run_peak_rss([sys.executable, "-m", "qgrand", "gen", square, "--shift-var", "3", "9",
                                      "--length", length, "--out", os.devnull])
            assert code == 0
            return kib

        small, large = peak_rss_kib(1 << 20), peak_rss_kib(64 << 20)
        assert large - small < 32 * 1024, (small, large)


class TestExitCodes:
    @pytest.mark.parametrize("argv", [
        ["test", "--self-gen", "kiss", "--length", "-5"],
        ["compare", "kiss", "kiss", "--size", "-3"],
        ["test", "--self-gen", "kiss", "--n-matrices", "0"],
        ["compare", "kiss", "kiss", "--n-matrices", "0"],
        ["test", "--self-gen", "kiss", "--n-tuples", "0"],
        ["compare", "qg:order=abc,seed=1,const=2", "kiss"],
        ["compare", "qg:order=8,seed=x,const=2", "kiss"],
        ["compare", "qg:order=8,seed=1,var=a:b", "kiss"],
        ["compare", "qg:order=8,seed=1,var=1", "kiss"],
        ["compare", "qg:order=8,seed=1,var=0:1", "kiss"],
        ["compare", "qg:order=8,seed=1,const=-1", "kiss"],
        ["compare", "qg:order=16,seed=1,const=7,const=9", "kiss"],  # a repeated key
        ["test", "--self-gen", "qg:order=16,seed=1,seed=2,const=7"],
        ["gen", "{square}", "--shift-var", "0", "1", "--length", "10", "--stdout"],
        ["gen", "{square}", "--shift-const", "-1", "--length", "10", "--stdout"],
        ["gen", "{square}", "--shift-const", "2", "--length", "-1", "--stdout"],
        ["gen", "{square}", "--shift-const", "2", "--length", "ten", "--stdout"],
        ["gen", "{square}", "--shift-const", "2", "--length", "10", "--out", "{square}.out", "--stdout"],
        ["test", "{square}", "--length", "5"],
        ["make-square", "4", "--seed", "18446744073709551616", "--out", "{square}.out"],
        ["make-square", "4", "--seed", "-1", "--out", "{square}.out"],
        ["make-square", "65537", "--out", "{square}.out"],
    ])
    def test_usage_errors(self, argv, table1_file, capsys):
        argv = [a.format(square=table1_file) for a in argv]
        code, out, err = run_main(argv, capsys)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1, err

    @pytest.mark.parametrize("spec", [
        "qg:order=0,seed=1,const=1",
        "qg:order=1,seed=1,const=1",
        "kiss:1,0,3,4",
        "kiss:1,2,0,4",
        "kiss:1,2,4294967295,4",
        "kiss:1,2,3,0",
        "kiss:1,2,3,4294967295",
        "kiss:4294967296,2,3,4",
        "kiss:1,2,3,-1",
        "kiss:",  # an empty field, not the default seeds
        "kiss:1,2,3,4,",
        "qg:order=65537,seed=1,const=1",
        "qg:order=8,seed=18446744073709551616,const=1",
        "qg:order=8,seed=-1,const=1",
    ])
    def test_spec_values_invalid_for_any_square(self, spec, capsys):
        code, out, err = run_main(["compare", spec, "kiss", "--size", "10"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("qgrand compare: ") and len(err.splitlines()) == 1, err

    @pytest.mark.parametrize("argv", [
        ["gen", "{square}", "--shift-const", "2", "--length", "10"],
        ["gen", "{square}", "--shift-const", "2", "--length", "-1", "--stdout"],
        ["test"],
        ["test", "--self-gen", "kiss", "--length", "x"],
        ["compare", "mystery", "kiss"],
        ["compare", "qg:order=8,seed=1", "kiss"],
        ["compare", "qg:ord=8,seed=1,const=2", "kiss"],
        ["compare", "qg:order=8,const=2", "kiss"],
        ["compare", "qg:file={square},seed=1,const=2", "kiss"],
    ])
    def test_usage_errors_share_argparse_prefix(self, argv, table1_file, capsys):
        # handler errors and argparse's own errors read alike
        argv = [a.format(square=table1_file) for a in argv]
        code, out, err = run_main(argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"qgrand {argv[0]}: ") and len(err.splitlines()) == 1, err

    @pytest.mark.parametrize("argv", [
        ["gen", "{square}", "--shift-var", "6", "1", "--length", "10", "--stdout"],
        ["compare", "qg:order=8,seed=1,var=9:1", "kiss"],
        ["compare", "qg:order=300,seed=1,const=1", "kiss", "--size", "10"],
        ["gen", "{square}", "--shift-const", "3", "--length", "10", "--format", "hex", "--out", ""],
        ["gen", "{square}", "--shift-const", "3", "--length", "10", "--out", ""],
    ])
    def test_data_errors(self, argv, table1_file, capsys):
        argv = [a.format(square=table1_file) for a in argv]
        code, out, err = run_main(argv, capsys)
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1, err

    @pytest.mark.parametrize("spec", ["qg:order=8192,seed=1,const=7", "qg:order=8192,seed=1,var=9000:1"])
    def test_byte_map_order_refused_before_building(self, spec, monkeypatch, capsys):
        # a qg spec is always byte-mapped, so above order 256 it can never run; a bad var
        # cell in the same spec is not reached
        def refuse(*args):
            raise AssertionError("square built for an order the byte map cannot cover")

        monkeypatch.setattr(latin, "random_latin_square", refuse)
        code, out, err = run_main(["test", "--self-gen", spec], capsys)
        assert (code, out, err) == (1, "", "qgrand test: byte output needs order <= 256, got 8192\n")

    def test_byte_map_order_refused_in_little_memory(self):
        # building the order-8192 square first took ~350 MiB
        code, kib = run_peak_rss([sys.executable, "-m", "qgrand", "test", "--self-gen",
                                  "qg:order=8192,seed=1,const=7"])
        assert code == 1 and kib < 100 * 1024, (code, kib)

    def test_out_of_memory_is_one_line(self, tmp_path):
        # an order-65536 square needs 8 GiB; under a 1.5 GiB address-space cap, set in
        # the child only, numpy's allocation fails
        cap = 3 << 29

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        result = run_cli("make-square", 65536, "--out", tmp_path / "big.txt", preexec_fn=limit_memory)
        assert (result.returncode, result.stdout) == (1, b"")
        err = result.stderr.decode()
        assert err.startswith("qgrand make-square: ") and len(err.splitlines()) == 1, err

    def test_spec_errors_name_keys_as_typed(self, capsys):
        code, out, err = run_main(["compare", "qg:order=8,seed=1,const=2,bogus=1", "kiss"], capsys)
        assert (code, out) == (2, "")
        assert err == "qgrand compare: unrecognized arguments: bogus=1\n"


_MODULES_AFTER_MAIN = """
import json, sys
from qgrand import cli
code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("qgrand."))]), file=sys.stderr)
"""

_PUBLIC_NAMES = """
import sys
import qgrand
assert not {"qgrand.battery", "qgrand.kiss"} & set(sys.modules)
assert set(qgrand.__all__) <= set(dir(qgrand))
assert {"battery", "engine", "kiss", "latin"} <= set(dir(qgrand))
assert qgrand.battery.run_battery is sys.modules["qgrand.battery"].run_battery
assert qgrand.Kiss is sys.modules["qgrand.kiss"].Kiss
for name in qgrand.__all__:
    assert getattr(qgrand, name) is getattr(sys.modules[getattr(qgrand, name).__module__], name)
namespace = {}
exec("from qgrand import *", namespace)
assert set(qgrand.__all__) <= set(namespace)
assert not hasattr(qgrand, "no_such_name")
print("ok")
"""


_ENTRY_STATE = """
import os, sys
import {modules}
print(os.environ.get("OPENBLAS_NUM_THREADS"), "numpy" in sys.modules)
"""


class TestImports:
    """Each command imports only the modules it runs, and only the entry point
    sets a default in the environment."""

    @pytest.mark.parametrize("argv,expected", [
        (["make-square", "8", "--out", "{dir}/sq8.txt"], ["cli", "engine", "latin"]),
        (["validate-square", "{square}"], ["cli", "engine", "latin"]),
        (["gen", "{square}", "--shift-const", "3", "--length", "100", "--out", "{dir}/out.bin"],
         ["cli", "engine", "latin"]),
        (["gen", "{square}", "--shift-var", "1", "2", "--length", "50", "--format", "symbols"],
         ["cli", "engine", "latin"]),
        (["test", "--self-gen", "qg:order=8,seed=1,const=3", "--length", "1000"],
         ["battery", "cli", "engine", "latin"]),
        (["compare", "qg:order=8,seed=1,const=3", "kiss", "--size", "1000"],
         ["battery", "cli", "engine", "kiss", "latin"]),
    ])
    def test_modules_loaded_by_each_command(self, argv, expected, table1_file, tmp_path):
        argv = [a.format(square=table1_file, dir=tmp_path) for a in argv]
        proc = subprocess.run([sys.executable, "-c", _MODULES_AFTER_MAIN, *argv],
                              capture_output=True, text=True, check=True)
        code, modules = json.loads(proc.stderr.splitlines()[-1])
        assert code in (0, 3, 4)  # the battery may flag or refuse 1000 bytes
        assert modules == [f"qgrand.{m}" for m in expected]

    def test_public_names_resolve_on_first_use(self):
        proc = subprocess.run([sys.executable, "-c", _PUBLIC_NAMES], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ok\n", "")

    @pytest.mark.parametrize("modules,preset,expected", [
        ("qgrand", None, "None False"),  # no numpy yet, so the entry point's default comes first
        ("qgrand.__main__", None, "1 True"),  # and the CLI does not run on import
        ("qgrand.__main__", "3", "3 True"),  # a value the user set wins
        ("qgrand, qgrand.cli", None, "None True"),  # a library import leaves its host's BLAS alone
    ])
    def test_blas_thread_default_set_by_the_entry_point_only(self, modules, preset, expected):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        proc = subprocess.run([sys.executable, "-c", _ENTRY_STATE.format(modules=modules)],
                              env=env, capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected + "\n", "")

    def test_installed_script_takes_the_entry_path(self):
        # a text match: tomllib is not on Python 3.10
        pyproject = (Path(__file__).parent.parent / "pyproject.toml").read_text()
        assert re.search(r'^qgrand = "qgrand\.__main__:run"$', pyproject, re.MULTILINE)


class TestTest:
    def test_constant_stream_fails_battery(self, tmp_path):
        path = tmp_path / "zeros.bin"
        path.write_bytes(bytes(1_000_000))
        result = run_cli("test", path)
        assert result.returncode == 3
        assert b"suspect" in result.stdout

    def test_short_input_exit_code(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(bytes(1000))
        result = run_cli("test", path)
        assert result.returncode == 4
        assert b"insufficient" in result.stdout

    def test_self_gen_healthy_stream(self):
        result = run_cli(
            "test", "--self-gen", "qg:order=256,seed=1,const=7", "--length", 2_000_000
        )
        assert result.returncode == 0, result.stdout + result.stderr
        lines = [l for l in result.stdout.decode().splitlines() if "\t" in l]
        assert len(lines) == 4

    def test_self_gen_holds_its_stream_once(self):
        # 30 MB more stream; a second whole copy of it would add 60 MB
        def peak_rss_kib(length):
            code, kib = run_peak_rss([sys.executable, "-m", "qgrand", "test", "--self-gen",
                                      "qg:order=256,seed=1,const=7", "--length", length])
            assert code == 0
            return kib

        small, large = peak_rss_kib(10_000_000), peak_rss_kib(40_000_000)
        assert (large - small) * 1024 < 1.5 * 30_000_000, (small, large)

    def test_input_and_self_gen_are_exclusive(self, tmp_path):
        path = tmp_path / "zeros.bin"
        path.write_bytes(bytes(100))
        assert run_cli("test", path, "--self-gen", "kiss").returncode == 2
        assert run_cli("test").returncode == 2


QG256 = "qg:order=256,seed=1,const=7"
QG16 = "qg:order=16,seed=1,const=7"


class TestCompare:
    def test_identical_specs_give_identical_columns(self):
        result = run_cli("compare", "kiss:1,2,3,4", "kiss:1,2,3,4", "--size", 400_000)
        assert result.returncode == 0, result.stdout + result.stderr
        machine = [l.split("\t") for l in result.stdout.decode().splitlines() if "\t" in l]
        assert len(machine) == 8
        by_source = {}
        for test, source, stat, df, p in machine:
            by_source.setdefault(source, []).append((test, stat, df, p))
        columns = list(by_source.values())
        assert columns[0] == columns[1]

    def test_two_generators_side_by_side(self, tmp_path):
        result = run_cli(
            "compare", "qg:order=256,seed=1,const=7", "kiss", "--size", 500_000
        )
        assert result.returncode == 0, result.stdout + result.stderr
        header = result.stdout.decode().splitlines()[0]
        assert "qg:order=256,seed=1,const=7" in header
        assert "kiss" in header

    def test_unknown_generator_name(self):
        assert run_cli("compare", "mystery", "kiss", "--size", 1000).returncode == 2

    def test_bad_kiss_seeds(self):
        assert run_cli("compare", "kiss:1,2", "kiss", "--size", 1000).returncode == 2
        assert run_cli("compare", "kiss:a,b,c,d", "kiss", "--size", 1000).returncode == 2

    def test_file_path_may_hold_equals_signs(self, tmp_path, capsys):
        # only the first "=" of a spec field separates key from value
        plain, odd = tmp_path / "plain.txt", tmp_path / "a=b c.txt"
        for path in (plain, odd):
            path.write_text(to_text(random_latin_square(16, seed=3)))
        code, out, err = run_main(["compare", f"qg:file={plain},var=2:5", f"qg:file={odd},var=2:5",
                                   "--size", 30_000], capsys)
        assert err == ""
        machine = [line.split("\t") for line in out.splitlines() if "\t" in line]
        assert len(machine) == 8
        assert [row[:1] + row[2:] for row in machine[:4]] == [row[:1] + row[2:] for row in machine[4:]]
        assert machine[0][2] != "NA"

    def test_bad_qg_specs(self, tmp_path):
        for spec in (
            "qg:order=8,seed=1",                # no shift
            "qg:order=8,seed=1,const=2,var=1:1",  # both shifts
            "qg:seed=1,const=2",                # no square source
            "qg:order=8,seed=1,const=2,bogus=1",
            "qg:order=16,,seed=1,const=1",      # an empty field
            "qg:order=16,seed=1,const=1,",      # a trailing empty field
        ):
            result = run_cli("compare", spec, "kiss", "--size", 1000)
            assert (result.returncode, len(result.stderr.splitlines())) == (2, 1), (spec, result.stderr)

    def test_square_file_in_spec(self, tmp_path, table1_file):
        # order-5 bytes only span 0..4, so the battery must flag the stream
        result = run_cli("compare", f"qg:file={table1_file},const=2", "kiss", "--size", 400_000)
        assert result.returncode == 3

    def test_missing_square_file_is_data_error(self):
        assert run_cli("compare", "qg:file=/no/such/file,const=2", "kiss", "--size", 1000).returncode == 1

    def test_peak_memory_is_one_streams(self):
        # each source is produced and tested in its own process, so compare peaks as
        # `test --self-gen` does at the same length; holding both streams in one
        # process peaked 48 MiB higher at this length (84 against 132 MiB)
        def peak_rss_kib(*argv):
            code, kib = run_peak_rss([sys.executable, "-m", "qgrand", *argv])
            assert code == 0
            return kib

        length = 50_000_000
        alone = peak_rss_kib("test", "--self-gen", QG256, "--length", length)
        compared = peak_rss_kib("compare", QG256, "kiss", "--size", length)
        assert compared - alone < 16 * 1024, (alone, compared)


def _machine(source, rows):
    tests = ("frequency", "perm5", "rank_31x31", "rank_32x32")
    return [f"{test}\t{source}\t{row}" for test, row in zip(tests, rows)]


_QG256_1E7_ROWS = ["258.335027\t255\t0.570062", "105.534400\t119\t0.193663",
                   "4.009040\t3\t0.739510", "0.713464\t3\t0.129967"]
_QG256_1E7 = _machine(QG256, _QG256_1E7_ROWS)
_QG256_1E6_COUNTS = _machine(QG256, ["251.680768\t255\t0.453009", "114.600000\t119\t0.403059",
                                     "2.629940\t3\t0.547735", "2.842014\t3\t0.583370"])
_KISS_1E7 = _machine("kiss", ["229.861581\t255\t0.130887", "132.173440\t119\t0.807066",
                              "4.214706\t3\t0.760806", "2.478320\t3\t0.520778"])
_KISS_400K = ["212.567040\t255\t0.024725", "95.956000\t119\t0.059524",
              "1.161431\t3\t0.237731", "4.594521\t3\t0.795987"]
_INSUFFICIENT = ["NA\tNA\tinsufficient:need=25600,got=1000", "NA\tNA\tinsufficient:need=24000,got=1000",
                 "NA\tNA\tinsufficient:need=248000,got=1000", "NA\tNA\tinsufficient:need=256000,got=1000"]


class TestBatteryStdoutPinned:
    """`test` and `compare` stdout, pinned from the runs in one process that came
    before each used two: how the job is split must not change a byte."""

    @pytest.mark.parametrize("argv,code,machine,digest", [
        (["compare", QG256, "kiss", "--size", 10_000_000], 0, _QG256_1E7 + _KISS_1E7,
         "68056ee71e367f6dafda8fe0663bd81da48b6d2d733ec85957cd871f15b19da9"),
        (["test", "--self-gen", QG256], 0, _QG256_1E7,
         "dde7e69cd208523026c90bbc1cd58d58f96624ab88742b7ef53cbe312a9e3a58"),
        (["compare", "kiss", "kiss", "--size", 400_000], 0,
         _machine("A:kiss", _KISS_400K) + _machine("B:kiss", _KISS_400K),
         "d47abdcdbbf8d93487a208debbb5943329b0ea122e1d9ea809e1274edffdd050"),
        (["compare", QG256, "kiss", "--size", 1_000_000, "--n-matrices", 2000, "--n-tuples", 1200], 0,
         _QG256_1E6_COUNTS
         + _machine("kiss", ["289.419776\t255\t0.931849", "129.000000\t119\t0.749789",
                             "0.758257\t3\t0.140577", "1.784528\t3\t0.381693"]),
         "de9a09b991ed9ca616350d4e0d6a92d3c01f42ecf4f6f13e9e01f97a4b278649"),
        (["compare", QG16, "kiss", "--size", 1000], 4,
         _machine(QG16, _INSUFFICIENT) + _machine("kiss", _INSUFFICIENT),
         "b0a39b9272b8afe5024ab40816766f3f7828400d0cd45fb944c9bfd469cf8485"),
        (["test", "--self-gen", QG16, "--length", 1000], 4, _machine(QG16, _INSUFFICIENT),
         "ece1ff4a325fffc29e8db016c9992981bbb1b8803279560c7991fbde044fef95"),
        (["test", "--self-gen", QG256, "--length", 1_000_000, "--n-matrices", 2000, "--n-tuples", 1200], 0,
         _QG256_1E6_COUNTS, "fd77d8188a728030a2b9c5671d2700048f72bb66c2782aa5c4333e52b8812dc4"),
        # the rank tests' 5,120,000 bytes end inside the stream
        (["test", "--self-gen", QG256, "--length", 6_000_000], 0,
         _machine(QG256, ["275.203413\t255\t0.816303", "127.508800\t119\t0.719683"] + _QG256_1E7_ROWS[2:]),
         "8a64b1567d30b28758f28790f7daf3a71d4d4d6062d2c5d23fbf13740a9f2ab9"),
        # rank_31x31 reads 9,920,000 of the 10,000,000 bytes, and rank_32x32 needs 10,240,000
        (["test", "--self-gen", QG256, "--n-matrices", 80_000], 4,
         _machine(QG256, _QG256_1E7_ROWS[:2] + [
             "0.723420\t3\t0.132318", "NA\tNA\tinsufficient:need=10240000,got=10000000"]),
         "3929ea50923237c49ace0b1e13a766fe7e15a3f44f4ede83473af19180331ded"),
        # a source that makes its stream in one chunk
        (["test", "--self-gen", "kiss", "--length", 10_000_000], 0, _KISS_1E7,
         "aaad9e19544e456355fe6fcdc6bd3519d8a33b26d7fd0fbfded21aa1dc158f41"),
    ], ids=["compare-1e7", "test-1e7", "compare-same-spec", "compare-explicit-counts", "compare-insufficient",
            "test-insufficient", "test-explicit-counts", "test-6e6", "test-rank32-insufficient", "test-kiss-1e7"])
    def test_stdout(self, argv, code, machine, digest, capsysbinary):
        exit_code, out, err = run_main(argv, capsysbinary)
        assert (exit_code, err) == (code, b"")
        assert [line for line in out.decode().splitlines() if "\t" in line] == machine
        assert hashlib.sha256(out).hexdigest() == digest

    def test_file_stdout(self, tmp_path, monkeypatch, capsysbinary):
        # the file's path is its column's label, so the file is named relative to its directory
        (tmp_path / "qg256.bin").write_bytes(generate(
            GeneratorConfig(random_latin_square(256, seed=1), ConstantShift(7)), 10_000_000))
        monkeypatch.chdir(tmp_path)
        self.test_stdout(["test", "qg256.bin"], 0, _machine("qg256.bin", _QG256_1E7_ROWS),
                         "f55b5952f5bf58110762d9f55ca9c2f2fd4290c8959657b4f599522f3db06b04", capsysbinary)


@pytest.fixture()
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):  # none running, and none left unreaped
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.usefixtures("no_child_left")
class TestCompareProcesses:
    """compare tests its first source in a forked child and its second in this
    process; the child inherits this test's monkeypatches.  The rule is shared with
    test, whose argvs join the inline case below."""

    @pytest.mark.parametrize("specs,failing,message", [
        ((QG16, "kiss"), {"qg"}, "qg failed"),
        ((QG16, "kiss"), {"kiss"}, "kiss failed"),
        ((QG16, "kiss"), {"qg", "kiss"}, "qg failed"),
        (("kiss", QG16), {"qg", "kiss"}, "kiss failed"),  # the first spec's error, whichever ends first
    ])
    def test_a_failed_source_is_one_line(self, specs, failing, message, monkeypatch, capsys):
        from qgrand import engine, kiss

        def fail(text):
            def produce(*args):
                raise MemoryError(text)
            return produce

        if "qg" in failing:
            monkeypatch.setattr(engine, "blocks", fail("qg failed"))
        if "kiss" in failing:
            monkeypatch.setattr(kiss.Kiss, "next_bytes", fail("kiss failed"))
        code, out, err = run_main(["compare", *specs, "--size", 30_000], capsys)
        assert (code, out, err) == (1, "", f"qgrand compare: {message}\n")

    def test_interrupted_parent_still_reaps_its_child(self, monkeypatch, capsys):
        from qgrand import kiss

        def interrupt(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(kiss.Kiss, "next_bytes", interrupt)  # the second source, tested here
        with pytest.raises(KeyboardInterrupt):
            main(["compare", QG16, "kiss", "--size", "30000"])

    def test_insufficient_input_crosses_back(self, capsys):
        code, out, err = run_main(["compare", QG16, "kiss", "--size", 1000], capsys)
        assert (code, err) == (4, "")
        rows = out.split("\n\n")[0].splitlines()[2:]
        assert len(rows) == 4
        assert all(row.count("insufficient input (need ") == 2 for row in rows), rows

    def test_success_leaves_no_child(self, capsys):
        code, out, err = run_main(["compare", QG256, "kiss", "--size", 300_000], capsys)
        assert (code, err) == (0, ""), out

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="the first source runs in a child only where fork exists")
    def test_child_ending_without_a_result_is_one_line(self, monkeypatch, capsys):
        from qgrand import engine

        parent, blocks = os.getpid(), engine.blocks

        def die_in_child(*args):
            if os.getpid() != parent:
                os._exit(9)
            return blocks(*args)

        monkeypatch.setattr(engine, "blocks", die_in_child)
        code, out, err = run_main(["compare", QG16, "kiss", "--size", 30_000], capsys)
        assert (code, out, err) == (1, "", f"qgrand compare: {QG16}: no result from its process, exit code 9\n")

    def test_interrupt_in_both_processes_is_raised(self, monkeypatch):
        # as on Ctrl-C to the process group; the child's interrupt is not a silent child
        from qgrand import battery

        monkeypatch.setattr(battery, "frequency_test", _interrupt)
        with pytest.raises(KeyboardInterrupt):
            main(["compare", QG16, "kiss", "--size", "30000"])

    def test_interrupt_while_reading_the_child_still_reaps_it(self, monkeypatch):
        from qgrand import cli

        class InterruptedPipe(io.FileIO):
            def read(self, *args):
                raise KeyboardInterrupt

        def open_pipe(file, mode="r", **kwargs):  # the pipe is the one file opened from a descriptor
            return InterruptedPipe(file) if isinstance(file, int) and mode == "rb" else open(file, mode, **kwargs)

        monkeypatch.setattr(cli, "open", open_pipe, raising=False)
        with pytest.raises(KeyboardInterrupt):
            main(["compare", QG16, "kiss", "--size", "30000"])

    @pytest.mark.parametrize("argv", [
        ["compare", "kiss", "kiss", "--size", 400_000],
        ["compare", QG16, "kiss", "--size", 1000],
        ["test", "--self-gen", QG256, "--length", 1_000_000],
        ["test", "--self-gen", QG16, "--length", 25_000],
    ])
    def test_without_fork_the_same_job_runs_inline(self, argv, monkeypatch, capsysbinary):
        forked = run_main(argv, capsysbinary)
        monkeypatch.delattr(os, "fork", raising=False)
        assert run_main(argv, capsysbinary) == forked


def _interrupt(*args):
    raise KeyboardInterrupt


@pytest.mark.usefixtures("no_child_left")
class TestTestProcesses:
    """test runs frequency and perm5 in a forked child and the rank tests in this
    process, through the same helper as compare; the child inherits the monkeypatches."""

    @pytest.mark.parametrize("failing,message", [
        (["frequency_test"], "frequency_test failed"),  # in the child
        (["binary_rank_test"], "binary_rank_test failed"),  # here
        (["frequency_test", "binary_rank_test"], "frequency_test failed"),  # the child's half, whichever ends first
    ])
    def test_a_failed_test_is_one_line(self, failing, message, monkeypatch, capsys):
        from qgrand import battery

        def fail(text):
            def run(*args):
                raise MemoryError(text)
            return run

        for name in failing:
            monkeypatch.setattr(battery, name, fail(f"{name} failed"))
        code, out, err = run_main(["test", "--self-gen", QG16, "--length", 300_000], capsys)
        assert (code, out, err) == (1, "", f"qgrand test: {message}\n")

    def test_interrupt_in_both_processes_is_raised(self, monkeypatch):
        from qgrand import battery

        for name in ("frequency_test", "permutation_test", "binary_rank_test"):
            monkeypatch.setattr(battery, name, _interrupt)
        with pytest.raises(KeyboardInterrupt):
            main(["test", "--self-gen", QG16, "--length", "300000"])

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="frequency and perm5 run in a child only where fork exists")
    @pytest.mark.parametrize("from_file", [False, True], ids=["self-gen", "file"])
    def test_child_ending_without_a_result_is_one_line(self, from_file, tmp_path, monkeypatch, capsys):
        from qgrand import battery

        parent, frequency_test = os.getpid(), battery.frequency_test

        def die_in_child(*args):
            if os.getpid() != parent:
                os._exit(9)
            return frequency_test(*args)

        monkeypatch.setattr(battery, "frequency_test", die_in_child)
        path = tmp_path / "qg16.bin"
        path.write_bytes(generate(GeneratorConfig(random_latin_square(16, seed=1), ConstantShift(7)), 300_000))
        source = [path] if from_file else ["--self-gen", QG16, "--length", 300_000]
        code, out, err = run_main(["test", *source], capsys)
        label = path if from_file else QG16
        assert (code, out, err) == (1, "", f"qgrand test: {label}: no result from its process, exit code 9\n")

    def test_insufficient_input_crosses_back(self, capsys):
        # 25000 bytes: frequency (25600) falls short in the child and perm5 (24000) does not
        code, out, err = run_main(["test", "--self-gen", QG16, "--length", 25_000], capsys)
        assert (code, err) == (4, "")
        frequency, perm5, *ranks = [line.split("\t")[4] for line in out.splitlines() if "\t" in line]
        assert frequency == "insufficient:need=25600,got=25000"
        assert 0 < float(perm5) < 1
        assert ranks == ["insufficient:need=248000,got=25000", "insufficient:need=256000,got=25000"]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="the stream is made in two processes only where fork exists")
    def test_the_parent_makes_the_rank_tests_bytes_and_the_child_the_rest(self, tmp_path, monkeypatch, capsys):
        # 10 MB is 153 blocks of 65536 bytes; the rank tests read 5,120,000 bytes, so 79 blocks
        from qgrand import engine

        calls, next_block = tmp_path / "calls", engine.Engine.next_block

        def logged(self):
            with open(calls, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return next_block(self)

        monkeypatch.setattr(engine.Engine, "next_block", logged)
        code, out, err = run_main(["test", "--self-gen", QG256], capsys)
        assert (code, err) == (0, "")
        pids = calls.read_text().split()
        assert pids[-1] != str(os.getpid())
        assert pids == [str(os.getpid())] * 79 + [pids[-1]] * 74

    # at 300000 bytes and 2000 matrices the rank tests read 256,000 bytes: 1000 of the
    # 1172 order-16 blocks are made before the fork, the rest after it in the child
    @pytest.mark.parametrize("block,error", [
        (500, MemoryError("no memory for block 500")),
        (1100, MemoryError("no memory for block 1100")),
        (1100, KeyboardInterrupt()),
    ], ids=["memory-parent", "memory-child", "interrupt-child"])
    def test_a_failure_while_making_the_stream(self, block, error, monkeypatch, capsys):
        from qgrand import engine

        next_block = engine.Engine.next_block

        def fail_at_block(self):
            if self.iteration == block:
                raise error
            return next_block(self)

        monkeypatch.setattr(engine.Engine, "next_block", fail_at_block)
        argv = ["test", "--self-gen", QG16, "--length", 300_000, "--n-matrices", 2000]
        if isinstance(error, KeyboardInterrupt):  # raised here once the child is reaped
            with pytest.raises(KeyboardInterrupt):
                main([str(a) for a in argv])
        else:
            assert run_main(argv, capsys) == (1, "", f"qgrand test: {error}\n")

    def test_a_one_chunk_source_is_its_own_buffer(self, monkeypatch, capsys):
        from qgrand import cli, kiss

        lengths, next_bytes = [], kiss.Kiss.next_bytes

        def logged(self, length):
            lengths.append(length)
            return next_bytes(self, length)

        monkeypatch.setattr(kiss.Kiss, "next_bytes", logged)
        assert run_main(["test", "--self-gen", "kiss", "--length", 300_000], capsys)[0] == 0
        assert lengths == [300_000]
        chunk = bytes(1000)
        assert cli._stream(iter((chunk,)), 1000)[0] is chunk

    @pytest.mark.parametrize("order,length,n_matrices,n_tuples", [
        (256, 10_000_000, None, None),
        (256, 6_000_000, None, None),
        (16, 25_000, None, None),  # frequency is short of input, perm5 is not
        (16, 1000, None, None),  # every test is short of input
        (256, 1_000_000, 2000, 1200),
        (256, 10_000_000, 80_000, None),  # rank_32x32 is short of input
    ])
    def test_entries_equal_one_process_run(self, order, length, n_matrices, n_tuples, monkeypatch, capsys):
        from qgrand import battery

        spec, reported, write_report = f"qg:order={order},seed=1,const=7", [], battery.write_report

        def logged(entries, sink):
            reported.append(entries)
            write_report(entries, sink)

        monkeypatch.setattr(battery, "write_report", logged)
        argv = ["test", "--self-gen", spec, "--length", length]
        argv += ["--n-matrices", n_matrices] if n_matrices else []
        argv += ["--n-tuples", n_tuples] if n_tuples else []
        run_main(argv, capsys)
        stream = generate(GeneratorConfig(random_latin_square(order, seed=1), ConstantShift(7)), length)
        assert repr(reported) == repr([battery.run_battery({spec: stream}, None, n_matrices, n_tuples)])


class TestReleaseDigests:
    """The digests scripts/release-check.sh pins on an installed package, checked in process."""

    @pytest.mark.parametrize("edit", [
        lambda t: t,
        lambda t: t.replace("\n", "\r\n"),
        lambda t: t.replace("\n", "\n0", 1),
        lambda t: "# make-square 256 --seed 1\n" + t.replace("\n", "\n# row\n\n"),
    ], ids=["lf", "crlf", "leading-zero-on-line-2", "commented"])
    def test_order_256_stream_from_each_text_of_its_square(self, edit):
        square = latin.parse_text(edit(to_text(random_latin_square(256, seed=1))))
        stream = generate(GeneratorConfig(square, VariableShift(3, 9)), 1048576)
        assert hashlib.sha256(stream).hexdigest() == \
            "2237958bf186dcf862155c49a51c7668be83b14874fed772c30ff50bb44119b9"

    def test_compare_stdout(self, capsysbinary):
        code, out, err = run_main(["compare", "qg:order=256,seed=1,const=7", "kiss", "--size", 1000000],
                                  capsysbinary)
        assert code in (0, 3) and err == b"", (code, err)
        assert hashlib.sha256(out).hexdigest() == \
            "d35143c6e78eaafa849208644c266de2cd936d3a0d1ed45fb8793f6c0ed4d199"
