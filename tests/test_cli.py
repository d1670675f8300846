import collections
import dataclasses
import io
import json
import os
import re
import struct
import subprocess
import sys
import tracemalloc
import typing
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recplug import cli, pipelines, register
from recplug.cli import MAX_LINE
from recplug.codecs import CONTROL, encode_binary, show_line, to_named
from recplug.errors import CodecError
from recplug.records import AVGS_SCHEMA, BENCHMARK_SCHEMA, I64_MAX, I64_MIN, REGISTRY, Benchmark, Kind

from support import FIXTURES, GOLDENS, recplug_child, run_main, utf8_stdin

#: The prefix of a diagnostic that names the line it arose on.
LINE_PREFIX = re.compile(r"^error: line (\d+): ")


def test_usage_errors_exit_2():
    assert run_main(["bogus"])[0] == 2
    assert run_main(["show"])[0] == 2
    assert run_main(["show", "--type", "gadget"])[0] == 2
    assert run_main([])[0] == 2


@pytest.mark.parametrize(
    "argv,stdin_text",
    [
        (["show", "--type", "device"], "not json\n"),
        (["show", "--type", "device"], '{"block":false,"major":19}\n'),
        (["parse", "--type", "device"], "False 19\n"),
        (["parse", "--type", "device"], "False 19 1 9\n"),
        (["decode-bin", "--type", "device"], "zz\n"),
        (["decode-bin", "--type", "device"], "02" + "00" * 16 + "\n"),
        (["avg"], ""),
        (
            ["show", "--type", "benchmark"],
            '{"firstApp":1,"firstLog":"a b","secondApp":2,"secondLog":"c"}\n',
        ),
        (
            ["show", "--type", "benchmark"],
            '{"firstApp":1,"firstLog":"a\tb","secondApp":2,"secondLog":"c"}\n',
        ),
        (
            ["show", "--type", "benchmark", "--encoding", "scott"],
            '{"firstApp":1,"firstLog":"a","secondApp":2,"secondLog":"b\\n"}\n',
        ),
        # Integer literals past int()'s 4300-digit limit.
        pytest.param(
            ["to-json", "--type", "device"],
            '{"block":false,"major":' + "9" * 5000 + ',"minor":1}\n',
            id="to-json-5000-digits",
        ),
        pytest.param(["parse", "--type", "device"], "False " + "9" * 5000 + " 1\n", id="parse-5000-digits"),
        # Nesting deeper than the interpreter's recursion limit.
        pytest.param(["to-json", "--type", "device"], '{"block":' + "[" * 100_000 + "\n", id="to-json-deep-brackets"),
        # A raw control character in a string lexeme or a JSON string.
        pytest.param(["parse", "--type", "benchmark"], "1 a\tb 2 c\n", id="parse-raw-tab"),
        pytest.param(
            ["from-json", "--type", "benchmark"],
            '{"firstApp":1,"firstLog":"a\tb","secondApp":2,"secondLog":"c"}\n',
            id="from-json-raw-tab",
        ),
        # Hex images are lowercase ASCII digits, two per byte, with nothing else.
        pytest.param(
            ["decode-bin", "--type", "device"], "00 1300000000000000 0100000000000000\n", id="hex-spaced"
        ),
        pytest.param(
            ["decode-bin", "--type", "benchmark"],
            "0A00000000000000010000006114000000000000000100000062\n",
            id="hex-uppercase",
        ),
        pytest.param(["decode-bin", "--type", "device"], "001300000000000000010000000000000\n", id="hex-odd-length"),
        pytest.param(["decode-bin", "--type", "device"], "\u0660\u0660\n", id="hex-arabic-indic-zeros"),
        pytest.param(["decode-bin", "--type", "device"], "0013000000000000000100000000000000\t\n", id="hex-trailing-tab"),
        # Only one '\r', and only before a '\n', belongs to the line end.
        pytest.param(["to-json", "--type", "device"], '{"block":false,"major":19,"minor":1}\r', id="cr-at-eof"),
        pytest.param(["to-json", "--type", "device"], '{"block":false,"major":19,"minor":1}\r\r\n', id="cr-cr-lf"),
        pytest.param(["avg"], '{"firstApp":1,"firstLog":"a","secondApp":2,"secondLog":"b"}\r\r\n', id="avg-cr-cr-lf"),
        # A key holding an escaped newline is shown as its repr, on one line.
        pytest.param(["to-json", "--type", "device"], '{"a\\nb":1}\n', id="extra-key-newline"),
    ],
)
def test_domain_errors_exit_1(argv, stdin_text, request):
    code, out, err = run_main(argv, stdin_text)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1  # one-line diagnostic
    # Over-long literals are cut short in the message after its line number.
    assert len(LINE_PREFIX.sub("error: ", err)) < 100
    if request.node.callspec.id.startswith("hex-"):
        assert err.startswith("error: line 1: not a hex image: ")


@pytest.mark.parametrize(
    "argv,line",
    [
        (["decode-bin", "--type", "device"], "Z" * 1_000_000),
        (["parse", "--type", "device"], "Z" * 1_000_000),
        (["to-json", "--type", "device"], '{"' + "k" * 1_000_000 + '":1}'),
        (["decode-bin", "--type", "device"], "\U0001D11E" * 1_000_000),
        (["parse", "--type", "device"], "\U0001D11E" * 1_000_000),
    ],
    ids=["hex-image", "lexeme", "unknown-key", "hex-image-astral", "lexeme-astral"],
)
def test_a_diagnostic_stays_short_however_long_the_line(argv, line):
    code, out, err = run_main(argv, line + "\n")
    assert (code, out) == (1, "")
    assert err.startswith("error: line 1: ") and err.count("\n") == 1
    assert len(err.encode()) < 200
    assert "… (1000000 characters)" in err


def benchmark_line(size):
    """A valid `benchmark` JSON line of exactly ``size`` bytes, padded in its first log."""
    line = '{"firstApp":1,"firstLog":"","secondApp":2,"secondLog":""}'
    return line.replace('""', '"' + "Z" * (size - len(line)) + '"', 1)


def test_a_line_of_max_line_bytes_passes():
    line = benchmark_line(MAX_LINE)
    assert len(line.encode()) == MAX_LINE
    code, out, err = run_main(["to-json", "--type", "benchmark"], utf8_stdin(line + "\n"))
    assert (code, err) == (0, "")
    assert out == line + "\n"


def test_a_line_over_max_line_bytes_is_an_error_and_the_rest_is_never_read():
    stdin = utf8_stdin(benchmark_line(MAX_LINE + 1) + "\n")
    code, out, err = run_main(["to-json", "--type", "benchmark"], stdin)
    assert (code, out) == (1, "")
    assert err == f"error: line 1: line longer than {MAX_LINE} bytes\n"
    assert stdin.buffer.tell() == MAX_LINE + 1


def test_an_over_long_line_2_keeps_line_1_on_stdout():
    first = '{"block":false,"major":19,"minor":1}'
    stdin_text = first + "\n" + "Z" * (MAX_LINE + 1) + "\n"
    code, out, err = run_main(["to-json", "--type", "device"], utf8_stdin(stdin_text))
    assert (code, out) == (1, first + "\n")
    assert err == f"error: line 2: line longer than {MAX_LINE} bytes\n"


def test_the_line_bound_counts_bytes_and_on_a_text_stdin_characters(monkeypatch):
    """Eight U+1D11E are 32 bytes: over a bound of 8 from bytes, within it from a StringIO."""
    monkeypatch.setattr(cli, "MAX_LINE", 8)
    argv, line = ["parse", "--type", "device"], "\U0001D11E" * 8 + "\n"
    code, _, err = run_main(argv, utf8_stdin(line))
    assert (code, err) == (1, "error: line 1: line longer than 8 bytes\n")
    code, _, err = run_main(argv, line)
    assert code == 1 and "line longer than" not in err
    code, _, err = run_main(argv, "\U0001D11E" * 9 + "\n")
    assert (code, err) == (1, "error: line 1: line longer than 8 bytes\n")


def test_an_output_line_over_max_line_bytes_is_refused_whole(monkeypatch):
    """A line main would write past MAX_LINE UTF-8 bytes ends the run with
    exit 1; nothing of it is written, and the lines before it stay.  A lone
    surrogate, which from-json admits from a text stdin, counts as 3 bytes.
    avg refuses on the line that takes its logs past MAX_LINE characters."""
    line = benchmark_line(5_000_057)
    code, out, err = run_main(["encode-bin", "--type", "benchmark"], utf8_stdin(line + "\n"))
    assert (code, out, err) == (1, "", f"error: line 1: output line longer than {MAX_LINE} bytes\n")
    monkeypatch.setattr(cli, "MAX_LINE", 64)
    line = '{"firstApp":1,"firstLog":"a","secondApp":2,"secondLog":"b"}'
    surrogates = line.replace('"a"', '"' + "\ud800" * 4 + '"')  # 62 characters, 70 bytes
    code, out, err = run_main(["from-json", "--type", "benchmark"], f"{line}\n{surrogates}\n")
    assert (code, out, err) == (1, line + "\n", "error: line 2: output line longer than 64 bytes\n")
    monkeypatch.setattr(cli, "MAX_LINE", 100)
    logs = line.replace('"a"', '"' + "Z" * 39 + '"') + "\n"  # 97 bytes, 40 of them log characters
    assert run_main(["avg"], logs * 4) == (1, "", "error: line 3: output line longer than 100 bytes\n")


def test_a_line_of_many_unknown_keys_gives_a_short_diagnostic():
    """20,000 unknown keys are named as their first three and their count."""
    line = "{" + ",".join(f'"k{i}":1' for i in range(20_000)) + "}\n"
    code, out, err = run_main(["to-json", "--type", "device"], line)
    assert (code, out) == (1, "")
    assert err == "error: line 1: unexpected key(s): 'k0', 'k1', 'k10', … (20000 keys)\n"
    assert len(err.encode()) < 300


# Per field kind: a sample value, its lexeme, and its binary image (None
# where the kind has no binary form).
SAMPLES = {
    Kind.BOOL: (True, "True", b"\x01"),
    Kind.INT: (-7, "-7", struct.pack("<q", -7)),
    Kind.STR: ("a\\b", "a\\b", struct.pack("<I", 3) + b"a\\b"),
    Kind.REAL: (2.5, "2.5", None),
}
# A second sample per kind, so that a second record differs in every field.
OTHER_SAMPLES = {
    Kind.BOOL: (False, "False", b"\x00"),
    Kind.INT: (12, "12", struct.pack("<q", 12)),
    Kind.STR: ("xy", "xy", struct.pack("<I", 2) + b"xy"),
    Kind.REAL: (-0.5, "-0.5", None),
}


def typed_io(schema, command, samples=SAMPLES):
    """(stdin line, expected stdout line) for a typed command on a sample
    record of schema; stdout is None where a field's kind has no form in
    the command's wire format (reals have no binary form)."""
    samples = [samples[f.kind] for f in schema.fields]
    pairs = [(f.name, s[0]) for f, s in zip(schema.fields, samples)]
    canon = json.dumps(dict(pairs), separators=(",", ":"))
    shuffled = json.dumps(dict(reversed(pairs)), separators=(",", ":"))
    lexeme = " ".join(s[1] for s in samples)
    has_real = any(f.kind is Kind.REAL for f in schema.fields)
    image = b"".join(s[2] or b"" for s in samples).hex()
    return {
        "show": (shuffled, lexeme),
        "parse": (lexeme, canon),
        "encode-bin": (shuffled, None if has_real else image),
        "decode-bin": (image, None if has_real else canon),
        "to-json": (shuffled, canon),
        "from-json": (shuffled, canon),
    }[command]


TYPED_COMMANDS = ["show", "parse", "encode-bin", "decode-bin", "to-json", "from-json"]


@pytest.mark.parametrize("command", TYPED_COMMANDS)
@pytest.mark.parametrize("type_id", sorted(REGISTRY))
def test_a_typed_command_reads_one_record_per_line(type_id, command):
    """Each line is one record, encoded and printed in order, and an empty
    stdin is none.  The first bad line ends the run with exit 1 and names
    its line; what the lines before it printed stays on stdout."""
    argv = [command, "--type", type_id]
    first_in, first_out = typed_io(REGISTRY[type_id], command)
    second_in, second_out = typed_io(REGISTRY[type_id], command, OTHER_SAMPLES)
    assert run_main(argv, "") == (0, "", "")
    code, out, err = run_main(argv, f"{first_in}\n{second_in}\n")
    if first_out is None:  # the record has no form in this wire format
        assert (code, out) == (1, "") and err.startswith("error: line 1: ")
        assert err.count("\n") == 1
        return
    assert (code, out, err) == (0, f"{first_out}\n{second_out}\n", "")
    code, out, err = run_main(argv, f"{first_in}\nnot a record\n{second_in}\n")
    assert (code, out) == (1, first_out + "\n")
    assert err.startswith("error: line 2: ") and err.count("\n") == 1


def peak_per_byte(argv, line):
    """main's exit code, stderr and traced peak per byte of line, on a
    stdin of that one line."""
    stdin = utf8_stdin(line + "\n")
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        code, _, err = run_main(argv, stdin)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, err, peak / len(line)


@pytest.mark.parametrize("command", [*TYPED_COMMANDS, "avg"])
def test_peak_memory_is_at_most_8_bytes_per_byte_of_line(command):
    """main's traced peak on one line of about 1 MB, in the wire form that
    the command reads, is at most 8 bytes per byte of the line; so is
    parse's on a line of 1,000,000 spaces, which it refuses."""
    log = "Z" * 1_000_000
    line = {
        "parse": f"1 {log} 2 b",
        "decode-bin": encode_binary(Benchmark(1, log[:500_000], 2, "b"), BENCHMARK_SCHEMA).hex(),
    }.get(command, to_named(Benchmark(1, log, 2, "b"), BENCHMARK_SCHEMA))
    argv = [command] if command == "avg" else [command, "--type", "benchmark"]
    code, err, ratio = peak_per_byte(argv, line)
    assert (code, err) == (0, "")
    assert ratio <= 8
    if command == "parse":
        for type_id in ("device", "benchmark_argv"):
            code, err, ratio = peak_per_byte([command, "--type", type_id], " " * 1_000_000)
            assert code == 1 and err.count("\n") == 1
            assert ratio <= 8


@pytest.mark.parametrize("command", ["show", "encode-bin", "to-json", "from-json", "avg"])
def test_peak_memory_of_a_json_line_is_at_most_48_bytes_per_byte(command):
    """The C decoder builds a line's every key and value before any check,
    so a line of many small values costs tens of bytes per byte of line:
    here one of about 200 KB, of unknown keys holding reals, of nested
    empty arrays or of an array of reals."""
    lines = [
        "{" + ",".join(f'"{i:x}":0.0' for i in range(18_000)) + "}",
        '{"k":[' + ",".join(["[[]]"] * 40_000) + "]}",
        '{"k":[' + ",".join(["1.5"] * 50_000) + "]}",
    ]
    argv = [command] if command == "avg" else [command, "--type", "benchmark"]
    for line in lines:
        code, err, ratio = peak_per_byte(argv, line)
        assert code == 1 and err.count("\n") == 1
        assert ratio <= 48


def test_avg_names_the_line_whose_sum_overflows():
    line = to_named(Benchmark(I64_MAX, "a", 1, "b"), BENCHMARK_SCHEMA) + "\n"
    code, out, err = run_main(["avg"], line * 3)
    assert (code, out) == (1, "")
    assert err.startswith("error: line 2: integer out of 64-bit signed range") and err.count("\n") == 1
    # An empty stdin is no benchmark to average, and names no line.
    assert run_main(["avg"], "") == (1, "", "error: average: need at least one benchmark\n")


def test_a_process_streams_every_line():
    """One recplug process prints a record per line, and stops at the first
    bad line with line 1's output on stdout."""
    first, second = b'{"minor":1,"major":19,"block":false}\n', b'{"block":true,"major":2,"minor":3}\n'

    def run(stdin):
        return recplug_child(["to-json", "--type", "device"], stdin, capture_output=True)

    proc = run(first + second)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == b'{"block":false,"major":19,"minor":1}\n' + second
    proc = run(first + b"not json\n" + second)
    assert (proc.returncode, proc.stdout) == (1, b'{"block":false,"major":19,"minor":1}\n')
    assert proc.stderr.startswith(b"error: line 2: ") and proc.stderr.count(b"\n") == 1


def test_no_start_loads_dataclasses_or_inspect():
    """Importing every layer, or a whole CLI run, loads neither module.  Each
    check runs in a new interpreter, because pytest imports both."""
    check = "import recplug.cli, recplug.plug, sys; print({'dataclasses', 'inspect'} & set(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True, check=True)
    assert proc.stdout == "set()\n"
    proc = recplug_child(["map-demo"], "", ("-X", "importtime"), capture_output=True, text=True, check=True)
    imported = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()}
    assert "recplug.cli" in imported and not {"dataclasses", "inspect"} & imported


#: The standard modules recplug imports; a start's baseline loads them first.
RECPLUG_STDLIB = "argparse json re enum struct math operator functools collections"
#: A python -S child (no site hook preloads a module) that imports every
#: layer and runs map-demo, then writes to stderr main's exit code and the
#: modules that recplug's own import added.
TYPING_CHECK = f"""
import sys
sys.path.insert(0, sys.argv[1])
import {", ".join(RECPLUG_STDLIB.split())}
before = set(sys.modules)
import recplug.chop, recplug.cli, recplug.codecs, recplug.errors
import recplug.pipelines, recplug.plug, recplug.records, recplug.scott
code = recplug.cli.main(["map-demo"])
print(code, *sorted(set(sys.modules) - before), file=sys.stderr)
"""


def test_no_start_loads_typing():
    """Every value type is a collections.namedtuple, so no start of recplug
    loads typing, nor dataclasses or inspect, even with no site hook that
    could preload them.  The baseline is taken after the standard modules
    recplug uses, so a stdlib that loads one itself does not count."""
    src = str(Path(__file__).parents[1] / "src")
    proc = subprocess.run([sys.executable, "-S", "-c", TYPING_CHECK, src],
                          capture_output=True, text=True, check=True)
    assert proc.stdout == (GOLDENS / "map_demo.golden").read_text()
    code, *added = proc.stderr.split()
    assert code == "0" and "recplug.cli" in added
    assert not {"dataclasses", "inspect", "typing"} & set(added)


def _closing(redirect, argv, **kwargs):
    """Run recplug with the shell redirection ``redirect`` (``>&-``, ``<&-``)."""
    script = f'"$@" {redirect}'
    return subprocess.run(["sh", "-c", script, "sh", sys.executable, "-m", "recplug", *argv], **kwargs)


@pytest.mark.parametrize(
    "argv,fixture",
    [
        (["to-json", "--type", "device"], "device.json"),
        (["avg"], "benchmarks.jsonl"),
        (["map-demo"], "device.json"),
    ],
)
def test_closed_stdout_exits_1_without_traceback(argv, fixture):
    """A closed stdout gets exit 1 and an empty stderr, whether a reader has
    already closed the pipe, as with `recplug ... | head -c0`, or the
    descriptor is closed (`>&-`).  A closed stdin (`<&-`) reads as empty
    input: the run gives what main gives with an empty stdin."""
    stdin = (FIXTURES / fixture).read_bytes()
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = recplug_child(argv, stdin, stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")
    proc = _closing(">&-", argv, input=stdin, stderr=subprocess.PIPE)
    assert (proc.returncode, proc.stderr) == (1, b"")
    proc = _closing("<&-", argv, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == run_main(argv)


# Text rich in control characters; every string has a UTF-8 image.
control_rich = st.one_of(st.characters(max_codepoint=0x1F), st.characters(codec="utf-8"))
utf8_text = st.text(control_rich, max_size=16)


def test_lone_surrogate_has_no_binary_image():
    """A string with no UTF-8 image is a typed error, in process and at the
    CLI (from-json admits a raw lone surrogate; the binary form cannot)."""
    with pytest.raises(CodecError, match="no UTF-8 image"):
        encode_binary(Benchmark(1, "a\ud800", 2, "b"), BENCHMARK_SCHEMA)
    line = '{"firstApp":1,"firstLog":"a\ud800","secondApp":2,"secondLog":"b"}\n'
    code, out, err = run_main(["encode-bin", "--type", "benchmark"], line)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def _benchmark_line(log: bytes) -> bytes:
    return b'{"firstApp":1,"firstLog":"' + log + b'","secondApp":2,"secondLog":"b"}\n'


@pytest.mark.parametrize(
    "env", [{}, {"LC_ALL": "C"}, {"PYTHONIOENCODING": "latin-1"}], ids=["inherited", "C", "latin-1"]
)
def test_stdio_is_strict_utf8_whatever_the_locale(env):
    """Invalid UTF-8 on stdin exits 1 with one error line and no output;
    non-ASCII text leaves stdout as the same UTF-8 bytes."""

    def run(argv, stdin):
        return recplug_child(argv, stdin, capture_output=True, env={**os.environ, **env})

    for argv in (["encode-bin", "--type", "benchmark"], ["avg"]):
        proc = run(argv, _benchmark_line(b"a\xff"))
        assert (proc.returncode, proc.stdout) == (1, b"")
        assert proc.stderr.startswith(b"error: ") and proc.stderr.count(b"\n") == 1
    line = _benchmark_line("é中𝄞".encode())
    assert run(["to-json", "--type", "benchmark"], line).stdout == line


def test_an_undecodable_line_is_numbered_after_the_lines_before_it():
    """Every line before the first one that is not UTF-8 is printed, and the
    error names that line, however many lines the stdin buffer holds."""
    line = (FIXTURES / "device.json").read_bytes()
    proc = recplug_child(["to-json", "--type", "device"], line * 1000 + b"\xff\n" + line, capture_output=True)
    assert proc.returncode == 1
    assert proc.stdout == (GOLDENS / "to_json_device.golden").read_bytes() * 1000
    assert proc.stderr == b"error: line 1001: stdin is not UTF-8: invalid start byte\n"


def test_an_undecodable_line_is_numbered_in_process_too():
    """main reads the bytes under a strict UTF-8 text stdin a line at a time,
    so an in-process run prints and numbers what the console script does."""
    line = (FIXTURES / "device.json").read_bytes()
    stdin = io.TextIOWrapper(io.BytesIO(line * 1000 + b"\xff\n" + line), encoding="utf-8")
    code, out, err = run_main(["to-json", "--type", "device"], stdin)
    assert code == 1
    assert out.encode() == (GOLDENS / "to_json_device.golden").read_bytes() * 1000
    assert err == "error: line 1001: stdin is not UTF-8: invalid start byte\n"


def test_a_closed_stdin_reads_as_empty_in_process():
    """With no stdin at all (descriptor 0 closed), main reads zero lines."""
    assert run_main(["to-json", "--type", "device"], None) == (0, "", "")
    assert run_main(["avg"], None) == (1, "", "error: average: need at least one benchmark\n")


@pytest.mark.parametrize("demo", ["map-demo", "zip-demo"])
def test_demos_read_no_stdin(demo):
    """A demo exits while its stdin pipe is still open: it never reads."""
    with subprocess.Popen(
        [sys.executable, "-m", "recplug", demo], stdin=subprocess.PIPE, stdout=subprocess.PIPE
    ) as proc:
        assert proc.wait(timeout=10) == 0
        assert proc.stdout.read() == (GOLDENS / f"{demo.replace('-', '_')}.golden").read_bytes()


# Every command and --type, typed or not, at the process boundary.
BOUNDARY_ARGVS = [[c, "--type", t] for c in TYPED_COMMANDS for t in sorted(REGISTRY)] + [
    ["avg"],
    ["map-demo"],
    ["zip-demo"],
    ["remap-demo"],
]
FIELD_VALUES = {
    Kind.BOOL: st.booleans(),
    Kind.INT: st.integers(I64_MIN, I64_MAX),
    Kind.STR: st.text(st.characters(codec="utf-8"), max_size=8),
    Kind.REAL: st.floats(allow_nan=False, allow_infinity=False),
}
# Control characters, JSON punctuation and any other character with a UTF-8 image.
noise = st.one_of(control_rich, st.sampled_from('"\\{}[]:, '))
noise_text = st.text(noise, max_size=24)
short_noise = st.text(noise, min_size=1, max_size=6)
extra_key = st.text(control_rich, min_size=1, max_size=6)


def valid_line(command, schema, values):
    """A line in the wire form that command reads: a lexeme line, a hex
    image, or (for every other command, and where a field has no binary
    form) a JSON record."""
    record = schema.ctor(*values)
    if command == "parse":
        return pipelines.run_show(pipelines.show_record(schema.type_id)(record))
    if command == "decode-bin" and Kind.REAL not in {f.kind for f in schema.fields}:
        return encode_binary(record, schema).hex()
    return to_named(record, schema)


@st.composite
def boundary_stdin(draw, argv, how):
    """Bytes for argv's stdin: up to 3 valid lines, then arbitrary bytes
    ("arbitrary"), or 1 to 3 valid lines of which one has up to 6
    characters inserted or replaced at one offset ("mutated") or one extra
    key whose text is rich in control characters ("extra-key")."""
    schema = REGISTRY[argv[2]] if len(argv) == 3 else BENCHMARK_SCHEMA
    count = draw(st.integers(0 if how == "arbitrary" else 1, 3))
    values = [[draw(FIELD_VALUES[f.kind]) for f in schema.fields] for _ in range(count)]
    lines = [valid_line(argv[0], schema, v) for v in values]
    if how != "arbitrary":
        bad = draw(st.integers(0, count - 1))
        line = lines[bad]
        if how == "mutated":
            at, chars = draw(st.integers(0, len(line))), draw(short_noise)
            line = line[:at] + chars + line[at + len(chars) if draw(st.booleans()) else at :]
        else:
            key = draw(extra_key)
            line = line[:-1] + "," + json.dumps(key, ensure_ascii=False) + ":1}"
        lines[bad] = line
    stdin = "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in lines).encode()
    if how == "arbitrary":
        stdin += draw(st.one_of(st.binary(), st.lists(noise_text).map("\n".join).map(str.encode)))
    return stdin


@pytest.mark.parametrize("how", ["arbitrary", "mutated", "extra-key"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_any_stdin_gives_an_exit_code_and_at_most_one_error_line(how, data):
    """Whatever arrives on stdin, main returns 0, 1 or 2 and raises nothing;
    stderr is empty on success and one `error: ` line otherwise (no line
    break of any kind inside it).  On exit 1 with `error: line N: `, a typed
    command's stdout is what main prints for each of lines 1 to N-1 run
    alone; after any other error, and for avg and the demos, it is empty."""
    argv = data.draw(st.sampled_from(BOUNDARY_ARGVS), label="argv")
    stdin = data.draw(boundary_stdin(argv, how), label="stdin")
    # stdin as the console script has it: bytes under a strict UTF-8 text
    # layer.  main reads the bytes, so a line that is not UTF-8 is numbered.
    with io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8") as wrapped:
        code, out, err = run_main(argv, wrapped)
    assert code in (0, 1, 2)
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("error: ") and err.endswith("\n") and len(err.splitlines()) == 1, err
    numbered = LINE_PREFIX.match(err)
    if code == 1 and numbered and argv[0] in TYPED_COMMANDS:
        lines = [raw.decode() for raw in list(io.BytesIO(stdin))[: int(numbered[1]) - 1]]
        alone = [run_main(argv, line) for line in lines]
        assert [c for c, _, _ in alone] == [0] * len(lines)
        assert out == "".join(printed for _, printed, _ in alone)
    elif code == 1:
        assert out == ""


GENERATED = "generated"
#: A wire name may hold quotes, backslashes, control characters, non-ASCII
#: text and lone surrogates, or be empty; repeats are drawn often.
wire_name = st.text(
    st.one_of(
        st.sampled_from('"\\ab'),
        st.characters(max_codepoint=0x1F),
        st.characters(min_codepoint=0x80),
        st.characters(categories=["Cs"]),
    ),
    max_size=3,
)
#: String values, some with a space or a control character that show refuses.
GENERATED_VALUES = {**FIELD_VALUES, Kind.STR: st.one_of(FIELD_VALUES[Kind.STR], utf8_text, st.just("a b"))}


def declare(form, attrs):
    """A record class with positional fields ``attrs``, declared as ``form``."""
    if form == "namedtuple":
        return collections.namedtuple("Generated", attrs)
    if form == "NamedTuple":
        return typing.NamedTuple("Generated", [(a, object) for a in attrs])
    return dataclasses.make_dataclass("Generated", attrs, frozen=True)


def one_error(result):
    code, out, err = result
    return code == 1 and out == "" and err.startswith("error: ") and err.count("\n") == 1


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_generated_declaration_round_trips_or_is_refused(data):
    """Any declaration register admits survives every typed command in
    process, under the real line bound or a small one.  For each writer and
    its reader (to-json then from-json, encode-bin and decode-bin both ways,
    show on both tracks then parse, and parse then show), the reader gives
    back the writer's input exactly; or the writer exits 1 with one `error: `
    line and prints nothing, just where its wire form has no image of the
    record or a line in or out is over the bound.  A declaration register
    refuses raises ValueError and registers nothing."""
    kinds = data.draw(st.lists(st.sampled_from(Kind), max_size=8), label="kinds")
    attrs = [f"f{i}" for i in range(len(kinds))]
    cls = declare(data.draw(st.sampled_from(["namedtuple", "NamedTuple", "dataclass"]), label="form"), attrs)
    wires = data.draw(st.one_of(st.just(()), st.lists(wire_name, min_size=len(kinds), max_size=len(kinds))))
    surrogate = any("\ud800" <= c <= "\udfff" for w in wires for c in w)
    before = dict(REGISTRY)
    try:
        schema = register(GENERATED, cls, kinds, wires)
    except ValueError:
        assert surrogate or len(set(wires)) < len(wires)
        assert REGISTRY == before
        return
    try:
        assert not surrogate and len(set(wires or attrs)) == len(kinds)
        values = [data.draw(GENERATED_VALUES[k]) for k in kinds]
        record = cls(*values)
        # The record in each wire form, or None where the form has no image of it.
        line = to_named(record, schema)
        image = None if Kind.REAL in kinds else encode_binary(record, schema).hex()
        unshowable = any(isinstance(v, str) and (" " in v or CONTROL.search(v)) for v in values)
        lexeme = None if unshowable else show_line(record, schema, "lisp")
        sizes = [len(form.encode()) for form in (line, image, lexeme) if form is not None]
        bound = data.draw(st.one_of(st.just(MAX_LINE), st.integers(1, max(sizes) + 1)), label="bound")
        # (writer, reader, writer's input, writer's output, writer's options)
        pairs = [
            ("to-json", "from-json", line, line),
            ("encode-bin", "decode-bin", line, image),
            ("decode-bin", "encode-bin", image, line),
            ("show", "parse", line, lexeme, "--encoding", "lisp"),
            ("show", "parse", line, lexeme, "--encoding", "scott"),
            ("parse", "show", lexeme, line),
        ]

        def typed(command, stdin, *options):
            return run_main([command, "--type", GENERATED, *options], utf8_stdin(stdin + "\n"))

        def fits(text):
            return len(text.encode()) <= bound

        with mock.patch.object(cli, "MAX_LINE", bound):
            for writer, reader, source, target, *options in pairs:
                if source is None:  # the record has no form the writer reads
                    continue
                written = typed(writer, source, *options)
                if target is None or not (fits(source) and fits(target)):
                    assert one_error(written), (writer, written)
                else:
                    assert written == (0, target + "\n", ""), writer
                    assert typed(reader, target) == (0, source + "\n", ""), reader
    finally:
        REGISTRY.pop(GENERATED, None)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_avg_round_trips_or_is_refused(data):
    """avg's line, read by from-json --type benchmark_avg, gives back the
    same line, under the real line bound or a small one; or avg exits 1
    with one `error: ` line and prints nothing, just where an input line or
    the average's line is over the bound."""
    apps = st.integers(-(2**40), 2**40)
    benchmarks = data.draw(st.lists(st.builds(Benchmark, apps, utf8_text, apps, utf8_text), min_size=1, max_size=4))
    lines = [to_named(b, BENCHMARK_SCHEMA) for b in benchmarks]
    average = to_named(pipelines.average(benchmarks), AVGS_SCHEMA)
    sizes = [len(text.encode()) for text in (*lines, average)]
    bound = data.draw(st.one_of(st.just(MAX_LINE), st.integers(1, max(sizes) + 1)), label="bound")
    with mock.patch.object(cli, "MAX_LINE", bound):
        written = run_main(["avg"], utf8_stdin("".join(line + "\n" for line in lines)))
        if max(sizes) > bound:
            assert one_error(written), written
        else:
            assert written == (0, average + "\n", "")
            assert run_main(["from-json", "--type", "benchmark_avg"], utf8_stdin(written[1])) == written
