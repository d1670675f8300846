import io
import json
import os
import struct
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given
from hypothesis import strategies as st

from recplug.cli import main
from recplug.codecs import encode_binary, from_named
from recplug.records import BENCHMARK_SCHEMA, REGISTRY, Benchmark, Kind

FIXTURES = Path(__file__).parent / "fixtures"
GOLDENS = Path(__file__).parent / "goldens"

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


def run_cli(monkeypatch, capsys, argv, stdin_text=""):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("golden,argv,fixture", GOLDEN_CASES)
def test_golden_output(monkeypatch, capsys, golden, argv, fixture):
    stdin_text = (FIXTURES / fixture).read_text() if fixture else ""
    code, out, err = run_cli(monkeypatch, capsys, argv, stdin_text)
    assert code == 0, err
    assert out.encode() == (GOLDENS / golden).read_bytes()
    assert err == ""


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
    ],
)
def test_domain_errors_exit_1(monkeypatch, capsys, argv, stdin_text):
    code, out, err = run_cli(monkeypatch, capsys, argv, stdin_text)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1  # one-line diagnostic
    assert len(err) < 100  # over-long literals are cut short in the message


# Per field kind: a sample value, its lexeme, and its binary image (None
# where the kind has no binary form).
SAMPLES = {
    Kind.BOOL: (True, "True", b"\x01"),
    Kind.INT: (-7, "-7", struct.pack("<q", -7)),
    Kind.STR: ("a\\b", "a\\b", struct.pack("<I", 3) + b"a\\b"),
    Kind.REAL: (2.5, "2.5", None),
}


def typed_io(schema, command):
    """(stdin line, expected stdout line) for a typed command on a sample
    record of schema; stdout is None where a field's kind has no form in
    the command's wire format (reals have no binary form)."""
    samples = [SAMPLES[f.kind] for f in schema.fields]
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


@pytest.mark.parametrize(
    "argv,fixture", [(["to-json", "--type", "device"], "device.json"), (["avg"], "benchmarks.jsonl")]
)
def test_closed_stdout_exits_1_without_traceback(argv, fixture):
    """A reader that has already closed the pipe gets exit 1 and an empty
    stderr, as with `recplug ... | head -c0`."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "recplug", *argv],
            input=(FIXTURES / fixture).read_bytes(),
            stdout=write_end,
            stderr=subprocess.PIPE,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


def call_main(argv, stdin_text):
    """main(argv) in process without pytest fixtures, for hypothesis."""
    out, err = io.StringIO(), io.StringIO()
    with patch("sys.stdin", io.StringIO(stdin_text)), redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@given(st.text(st.one_of(st.characters(max_codepoint=0x1F), st.characters()), max_size=16))
def test_decode_bin_then_from_json_keeps_one_line(log):
    """A string field holding control characters leaves decode-bin as one
    line, and from-json reads that line back to the same record."""
    record = Benchmark(1, log, -2, log[::-1])
    image = encode_binary(record, BENCHMARK_SCHEMA).hex()
    code, line, err = call_main(["decode-bin", "--type", "benchmark"], image + "\n")
    assert (code, err, line.count("\n")) == (0, "", 1)
    code, out, err = call_main(["from-json", "--type", "benchmark"], line)
    assert (code, out, err) == (0, line, "")
    assert from_named(out.rstrip("\n"), BENCHMARK_SCHEMA) == record
