import collections
import dataclasses
import io
import json
import os
import re
import struct
import subprocess
import sys
import typing
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recplug import cli, pipelines, register
from recplug.cli import MAX_LINE, main
from recplug.codecs import CONTROL, encode_binary, from_named, to_named
from recplug.errors import CodecError
from recplug.records import BENCHMARK_SCHEMA, I64_MAX, I64_MIN, REGISTRY, Benchmark, Kind

FIXTURES = Path(__file__).parent / "fixtures"
GOLDENS = Path(__file__).parent / "goldens"
#: The prefix of a diagnostic that names the line it arose on.
LINE_PREFIX = re.compile(r"^error: line (\d+): ")

# (golden file, argv, stdin fixture or None)
GOLDEN_CASES = [
    ("show_device.golden", ["show", "--type", "device"], "device.json"),
    (
        "show_device.golden",
        ["show", "--type", "device", "--encoding", "scott"],
        "device.json",
    ),
    ("show_benchmark.golden", ["show", "--type", "benchmark"], "benchmark.json"),
    ("parse_device.golden", ["parse", "--type", "device"], "device_show.txt"),
    ("map_demo.golden", ["map-demo"], None),
    ("map_demo.golden", ["map-demo", "--encoding", "scott"], None),
    ("zip_demo.golden", ["zip-demo"], None),
    ("zip_demo.golden", ["zip-demo", "--encoding", "scott"], None),
    ("remap_demo.golden", ["remap-demo"], None),
    ("avg.golden", ["avg"], "benchmarks.jsonl"),
    ("encode_bin_device.golden", ["encode-bin", "--type", "device"], "device.json"),
    ("decode_bin_device.golden", ["decode-bin", "--type", "device"], "device.hex"),
    (
        "encode_bin_benchmark.golden",
        ["encode-bin", "--type", "benchmark"],
        "benchmark.json",
    ),
    (
        "decode_bin_benchmark.golden",
        ["decode-bin", "--type", "benchmark"],
        "benchmark.hex",
    ),
    ("to_json_device.golden", ["to-json", "--type", "device"], "device_permuted.json"),
    (
        "from_json_benchmark.golden",
        ["from-json", "--type", "benchmark"],
        "benchmark.json",
    ),
]


def utf8_stdin(text):
    """A stdin like the console script's: a strict UTF-8 text layer over bytes."""
    return io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8")


def run_cli(monkeypatch, capsys, argv, stdin_text="", reader=io.StringIO):
    monkeypatch.setattr("sys.stdin", reader(stdin_text))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("golden,argv,fixture", GOLDEN_CASES)
def test_golden_output(monkeypatch, capsys, golden, argv, fixture):
    """main prints the golden whether stdin is text (a StringIO) or bytes
    under a text layer, which main reads and decodes itself."""
    stdin_text = (FIXTURES / fixture).read_text() if fixture else ""
    for reader in (io.StringIO, utf8_stdin):
        code, out, err = run_cli(monkeypatch, capsys, argv, stdin_text, reader)
        assert code == 0, err
        assert out.encode() == (GOLDENS / golden).read_bytes()
        assert err == ""


@pytest.mark.parametrize("golden,argv,fixture", [case for case in GOLDEN_CASES if case[2]])
def test_crlf_line_ends_give_the_golden(monkeypatch, capsys, golden, argv, fixture):
    """One '\r' before each line's '\n' is part of the line end."""
    stdin_text = (FIXTURES / fixture).read_text().replace("\n", "\r\n")
    code, out, err = run_cli(monkeypatch, capsys, argv, stdin_text)
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDENS / golden).read_bytes()


def test_usage_errors_exit_2(monkeypatch, capsys):
    assert run_cli(monkeypatch, capsys, ["bogus"])[0] == 2
    assert run_cli(monkeypatch, capsys, ["show"])[0] == 2
    assert run_cli(monkeypatch, capsys, ["show", "--type", "gadget"])[0] == 2
    assert run_cli(monkeypatch, capsys, [])[0] == 2


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
        # Hex images are lowercase, two digits per byte, with no spaces.
        pytest.param(
            ["decode-bin", "--type", "device"], "00 1300000000000000 0100000000000000\n", id="hex-spaced"
        ),
        pytest.param(
            ["decode-bin", "--type", "benchmark"],
            "0A00000000000000010000006114000000000000000100000062\n",
            id="hex-uppercase",
        ),
        # Only one '\r', and only before a '\n', belongs to the line end.
        pytest.param(["to-json", "--type", "device"], '{"block":false,"major":19,"minor":1}\r', id="cr-at-eof"),
        pytest.param(["to-json", "--type", "device"], '{"block":false,"major":19,"minor":1}\r\r\n', id="cr-cr-lf"),
        pytest.param(["avg"], '{"firstApp":1,"firstLog":"a","secondApp":2,"secondLog":"b"}\r\r\n', id="avg-cr-cr-lf"),
        # A key holding an escaped newline is shown as its repr, on one line.
        pytest.param(["to-json", "--type", "device"], '{"a\\nb":1}\n', id="extra-key-newline"),
    ],
)
def test_domain_errors_exit_1(monkeypatch, capsys, argv, stdin_text):
    code, out, err = run_cli(monkeypatch, capsys, argv, stdin_text)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1  # one-line diagnostic
    # Over-long literals are cut short in the message after its line number.
    assert len(LINE_PREFIX.sub("error: ", err)) < 100


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
def test_a_diagnostic_stays_short_however_long_the_line(monkeypatch, capsys, argv, line):
    code, out, err = run_cli(monkeypatch, capsys, argv, line + "\n")
    assert (code, out) == (1, "")
    assert err.startswith("error: line 1: ") and err.count("\n") == 1
    assert len(err.encode()) < 200
    assert "… (1000000 characters)" in err


def benchmark_line(size):
    """A valid `benchmark` JSON line of exactly ``size`` bytes, padded in its first log."""
    line = '{"firstApp":1,"firstLog":"","secondApp":2,"secondLog":""}'
    return line.replace('""', '"' + "Z" * (size - len(line)) + '"', 1)


def test_a_line_of_max_line_bytes_passes(monkeypatch, capsys):
    line = benchmark_line(MAX_LINE)
    assert len(line.encode()) == MAX_LINE
    code, out, err = run_cli(monkeypatch, capsys, ["to-json", "--type", "benchmark"], line + "\n", utf8_stdin)
    assert (code, err) == (0, "")
    assert out == line + "\n"


def test_a_line_over_max_line_bytes_is_an_error_and_the_rest_is_never_read(monkeypatch, capsys):
    line = benchmark_line(MAX_LINE + 1)
    code, out, err = run_cli(monkeypatch, capsys, ["to-json", "--type", "benchmark"], line + "\n", utf8_stdin)
    assert (code, out) == (1, "")
    assert err == f"error: line 1: line longer than {MAX_LINE} bytes\n"
    assert sys.stdin.buffer.tell() == MAX_LINE + 1


def test_an_over_long_line_2_keeps_line_1_on_stdout(monkeypatch, capsys):
    first = '{"block":false,"major":19,"minor":1}'
    stdin_text = first + "\n" + "Z" * (MAX_LINE + 1) + "\n"
    code, out, err = run_cli(monkeypatch, capsys, ["to-json", "--type", "device"], stdin_text, utf8_stdin)
    assert (code, out) == (1, first + "\n")
    assert err == f"error: line 2: line longer than {MAX_LINE} bytes\n"


def test_the_line_bound_counts_bytes_and_on_a_text_stdin_characters(monkeypatch, capsys):
    """Eight U+1D11E are 32 bytes: over a bound of 8 from bytes, within it from a StringIO."""
    monkeypatch.setattr(cli, "MAX_LINE", 8)
    argv, line = ["parse", "--type", "device"], "\U0001D11E" * 8 + "\n"
    code, _, err = run_cli(monkeypatch, capsys, argv, line, utf8_stdin)
    assert (code, err) == (1, "error: line 1: line longer than 8 bytes\n")
    code, _, err = run_cli(monkeypatch, capsys, argv, line)
    assert code == 1 and "line longer than" not in err
    code, _, err = run_cli(monkeypatch, capsys, argv, "\U0001D11E" * 9 + "\n")
    assert (code, err) == (1, "error: line 1: line longer than 8 bytes\n")


def test_a_line_of_many_unknown_keys_gives_a_short_diagnostic(monkeypatch, capsys):
    """20,000 unknown keys are named as their first three and their count."""
    line = "{" + ",".join(f'"k{i}":1' for i in range(20_000)) + "}\n"
    code, out, err = run_cli(monkeypatch, capsys, ["to-json", "--type", "device"], line)
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
def test_every_registered_type(monkeypatch, capsys, type_id, command):
    stdin_line, expected = typed_io(REGISTRY[type_id], command)
    code, out, err = run_cli(monkeypatch, capsys, [command, "--type", type_id], stdin_line + "\n")
    if expected is None:
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        assert (code, out, err) == (0, expected + "\n", "")


@pytest.mark.parametrize("command", TYPED_COMMANDS)
@pytest.mark.parametrize("type_id", sorted(REGISTRY))
def test_a_typed_command_reads_one_record_per_line(monkeypatch, capsys, type_id, command):
    """Each line is one record, encoded and printed in order, and an empty
    stdin is none.  The first bad line ends the run with exit 1 and names
    its line; what the lines before it printed stays on stdout."""
    argv = [command, "--type", type_id]
    first_in, first_out = typed_io(REGISTRY[type_id], command)
    second_in, second_out = typed_io(REGISTRY[type_id], command, OTHER_SAMPLES)
    assert run_cli(monkeypatch, capsys, argv, "") == (0, "", "")
    code, out, err = run_cli(monkeypatch, capsys, argv, f"{first_in}\n{second_in}\n")
    if first_out is None:  # the record has no form in this wire format
        assert (code, out) == (1, "") and err.startswith("error: line 1: ")
        return
    assert (code, out, err) == (0, f"{first_out}\n{second_out}\n", "")
    code, out, err = run_cli(monkeypatch, capsys, argv, f"{first_in}\nnot a record\n{second_in}\n")
    assert (code, out) == (1, first_out + "\n")
    assert err.startswith("error: line 2: ") and err.count("\n") == 1


def test_avg_names_the_line_whose_sum_overflows(monkeypatch, capsys):
    line = to_named(Benchmark(I64_MAX, "a", 1, "b"), BENCHMARK_SCHEMA) + "\n"
    code, out, err = run_cli(monkeypatch, capsys, ["avg"], line * 3)
    assert (code, out) == (1, "")
    assert err.startswith("error: line 2: integer out of 64-bit signed range") and err.count("\n") == 1
    # An empty stdin is no benchmark to average, and names no line.
    assert run_cli(monkeypatch, capsys, ["avg"], "") == (1, "", "error: average: need at least one benchmark\n")


def test_a_process_streams_every_line():
    """One recplug process prints a record per line, and stops at the first
    bad line with line 1's output on stdout."""
    first, second = b'{"minor":1,"major":19,"block":false}\n', b'{"block":true,"major":2,"minor":3}\n'

    def run(stdin):
        argv = [sys.executable, "-m", "recplug", "to-json", "--type", "device"]
        return subprocess.run(argv, input=stdin, capture_output=True)

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
    argv = [sys.executable, "-X", "importtime", "-m", "recplug", "map-demo"]
    proc = subprocess.run(argv, capture_output=True, text=True, check=True)
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
    loads typing.  The baseline is taken after the standard modules recplug
    uses, so a stdlib that loads typing itself does not count."""
    src = str(Path(__file__).parents[1] / "src")
    proc = subprocess.run([sys.executable, "-S", "-c", TYPING_CHECK, src],
                          capture_output=True, text=True, check=True)
    assert proc.stdout == (GOLDENS / "map_demo.golden").read_text()
    code, *added = proc.stderr.split()
    assert code == "0" and "recplug.cli" in added and "typing" not in added


@pytest.mark.parametrize("fixture,type_name", [("device.json", "device"), ("benchmark.json", "benchmark")])
def test_shell_round_trip(fixture, type_name):
    payload = (FIXTURES / fixture).read_bytes()
    encoded = subprocess.run(
        [sys.executable, "-m", "recplug", "encode-bin", "--type", type_name],
        input=payload,
        stdout=subprocess.PIPE,
        check=True,
    )
    decoded = subprocess.run(
        [sys.executable, "-m", "recplug", "decode-bin", "--type", type_name],
        input=encoded.stdout,
        stdout=subprocess.PIPE,
        check=True,
    )
    assert decoded.stdout == payload


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
        proc = subprocess.run(
            [sys.executable, "-m", "recplug", *argv],
            input=stdin,
            stdout=write_end,
            stderr=subprocess.PIPE,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")
    proc = _closing(">&-", argv, input=stdin, stderr=subprocess.PIPE)
    assert (proc.returncode, proc.stderr) == (1, b"")
    proc = _closing("<&-", argv, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == call_main(argv, "")


def call_main(argv, stdin_text):
    """main(argv) in process without pytest fixtures, for hypothesis."""
    out, err = io.StringIO(), io.StringIO()
    with patch("sys.stdin", io.StringIO(stdin_text)), redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# Text rich in control characters; every string has a UTF-8 image.
control_rich = st.one_of(st.characters(max_codepoint=0x1F), st.characters(codec="utf-8"))
utf8_text = st.text(control_rich, max_size=16)


#: Every registered type whose fields all have a binary form.
BINARY_TYPES = sorted(t for t, s in REGISTRY.items() if Kind.REAL not in {f.kind for f in s.fields})
BINARY_VALUES = {Kind.BOOL: st.booleans(), Kind.INT: st.integers(I64_MIN, I64_MAX), Kind.STR: utf8_text}


@given(data=st.data())
def test_decode_bin_then_from_json_keeps_one_line(data):
    """A string field holding control characters leaves decode-bin as one
    line, and from-json reads that line back to the same record, for every
    registered type with a binary form."""
    schema = REGISTRY[data.draw(st.sampled_from(BINARY_TYPES), label="type")]
    record = schema.ctor(*(data.draw(BINARY_VALUES[f.kind]) for f in schema.fields))
    image = encode_binary(record, schema).hex()
    code, line, err = call_main(["decode-bin", "--type", schema.type_id], image + "\n")
    assert (code, err, line.count("\n")) == (0, "", 1)
    code, out, err = call_main(["from-json", "--type", schema.type_id], line)
    assert (code, out, err) == (0, line, "")
    assert from_named(out.rstrip("\n"), schema) == record


def test_lone_surrogate_has_no_binary_image():
    """A string with no UTF-8 image is a typed error, in process and at the
    CLI (from-json admits a raw lone surrogate; the binary form cannot)."""
    with pytest.raises(CodecError, match="no UTF-8 image"):
        encode_binary(Benchmark(1, "a\ud800", 2, "b"), BENCHMARK_SCHEMA)
    line = '{"firstApp":1,"firstLog":"a\ud800","secondApp":2,"secondLog":"b"}\n'
    code, out, err = call_main(["encode-bin", "--type", "benchmark"], line)
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
        return subprocess.run(
            [sys.executable, "-m", "recplug", *argv],
            input=stdin,
            capture_output=True,
            env={**os.environ, **env},
        )

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
    proc = subprocess.run(
        [sys.executable, "-m", "recplug", "to-json", "--type", "device"],
        input=line * 1000 + b"\xff\n" + line,
        capture_output=True,
    )
    assert proc.returncode == 1
    assert proc.stdout == (GOLDENS / "to_json_device.golden").read_bytes() * 1000
    assert proc.stderr == b"error: line 1001: stdin is not UTF-8: invalid start byte\n"


def test_an_undecodable_line_is_numbered_in_process_too(monkeypatch, capsys):
    """main reads the bytes under a strict UTF-8 text stdin a line at a time,
    so an in-process run prints and numbers what the console script does."""
    line = (FIXTURES / "device.json").read_bytes()
    stdin = io.TextIOWrapper(io.BytesIO(line * 1000 + b"\xff\n" + line), encoding="utf-8")
    monkeypatch.setattr("sys.stdin", stdin)
    assert main(["to-json", "--type", "device"]) == 1
    out, err = capsys.readouterr()
    assert out.encode() == (GOLDENS / "to_json_device.golden").read_bytes() * 1000
    assert err == "error: line 1001: stdin is not UTF-8: invalid start byte\n"


def test_a_closed_stdin_reads_as_empty_in_process(monkeypatch, capsys):
    """With no stdin at all (descriptor 0 closed), main reads zero lines."""
    monkeypatch.setattr("sys.stdin", None)
    assert main(["to-json", "--type", "device"]) == 0
    assert capsys.readouterr() == ("", "")
    assert main(["avg"]) == 1
    assert capsys.readouterr() == ("", "error: average: need at least one benchmark\n")


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
    out, err = io.StringIO(), io.StringIO()
    # stdin as the console script has it: bytes under a strict UTF-8 text
    # layer.  main reads the bytes, so a line that is not UTF-8 is numbered.
    wrapped = io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8")
    with wrapped:
        with patch("sys.stdin", wrapped), redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("error: ") and err.endswith("\n") and len(err.splitlines()) == 1, err
    numbered = LINE_PREFIX.match(err)
    if code == 1 and numbered and argv[0] in TYPED_COMMANDS:
        lines = [raw.decode() for raw in list(io.BytesIO(stdin))[: int(numbered[1]) - 1]]
        alone = [call_main(argv, line) for line in lines]
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
    process: to-json, from-json, encode-bin then decode-bin, show on both
    tracks then parse give back the JSON line exactly, or exit 1 with one
    `error: ` line where the wire form has no image of the record.  A
    declaration register refuses raises ValueError and registers nothing."""
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
        line = to_named(cls(*values), schema)

        def typed(command, stdin, *options):
            return call_main([command, "--type", GENERATED, *options], stdin + "\n")

        for command in ("to-json", "from-json"):
            assert typed(command, line) == (0, line + "\n", "")
        encoded = typed("encode-bin", line)
        if Kind.REAL in kinds:  # a real has no binary form
            assert one_error(encoded)
        else:
            assert encoded[0::2] == (0, "")
            assert typed("decode-bin", encoded[1].rstrip("\n")) == (0, line + "\n", "")
        shown = [typed("show", line, "--encoding", track) for track in ("lisp", "scott")]
        assert shown[0] == shown[1]
        if any(isinstance(v, str) and (" " in v or CONTROL.search(v)) for v in values):
            assert one_error(shown[0])
        else:
            assert shown[0][0::2] == (0, "")
            assert typed("parse", shown[0][1].rstrip("\n")) == (0, line + "\n", "")
    finally:
        REGISTRY.pop(GENERATED, None)
