r"""Command-line front end: pipeline demos and codecs over stdin/stdout.

Each command is one `_COMMANDS` row, and `main` is the only code that
reads stdin or writes stdout.  A typed command decodes each line of stdin
into a record of its `--type`, encodes it in another wire form and prints
it before it reads the next line; an empty stdin is zero records.  `avg`
folds the JSON record on each line into one average, and the demos read
no stdin.

Records cross the process boundary as one flat JSON object per line;
binary images cross as lowercase hex.  A line ends at "\n" or "\r\n".
`main` decodes each line of stdin's bytes as strict UTF-8, in process as
at the console and whatever the locale; a text stdin with no bytes under
it (a StringIO) counts as decoded, and a closed stdin as empty.  The
console script writes stdout as UTF-8.  Exit codes: 0 success, 1 domain
error or undecodable stdin (one-line diagnostic on stderr) or closed
stdout, 2 usage error.  The first error on a line, an input line that is
not UTF-8 or any line in or out longer than `MAX_LINE` bytes included, ends
the run with "error: line N: <message>"; what lines 1 to N-1 printed stays.
"""

import argparse
import os
import sys

from . import codecs, pipelines, records, scott
from .errors import Error
from .records import EXAMPLE_DEVICE, RecordSchema, schema_for

#: The most bytes a line in or out may hold before its "\n" (characters, on a text-only stdin).
MAX_LINE = 8 * 1024 * 1024


def _check_output(size: int) -> None:  # size: an output line's UTF-8 bytes, or a floor on them
    if size > MAX_LINE:
        raise Error(f"output line longer than {MAX_LINE} bytes")


def _lexeme_record(line: str, schema: RecordSchema):  # the last piece holds any excess, unsplit
    return codecs.parse_record(line.split(" ", schema.arity), schema)


def _hex_record(line: str, schema: RecordSchema):
    if len(line) % 2 or line.strip("0123456789abcdef"):
        raise Error(f"not a hex image: {records._echo(line)}")
    return codecs.decode_binary(bytes.fromhex(line), schema)


def _json_line(record, schema: RecordSchema, encoding) -> str:
    return codecs.to_named(record, schema)


def _hex_line(record, schema: RecordSchema, encoding) -> str:
    return codecs.encode_binary(record, schema).hex()


def _map_demo(lines, encoding):
    if encoding == "scott":
        return scott.run_map_cps(scott.map_device_demo_cps()(EXAMPLE_DEVICE))
    return pipelines.run_map(pipelines.map_device_demo()(EXAMPLE_DEVICE))


def _zip_demo(lines, encoding):
    mapped = pipelines.run_map(pipelines.map_device_demo()(EXAMPLE_DEVICE))
    if encoding == "scott":
        return scott.run_zip_cps(scott.zip_device_demo_cps()(EXAMPLE_DEVICE, mapped))
    return pipelines.run_zip(pipelines.zip_device_demo()(EXAMPLE_DEVICE, mapped))


def _remap_demo(lines, encoding):
    return pipelines.run_map(pipelines.remap_device_demo()(EXAMPLE_DEVICE))


def _avg(lines, encoding):
    def benchmarks(logs=0):  # log characters so far; the average's line spells each at least once
        for b in (codecs.from_named(line, records.BENCHMARK_SCHEMA) for line in lines):
            _check_output(logs := logs + len(b.first_log) + len(b.second_log))
            yield b
    return pipelines.average(benchmarks())


# (command, help, make, write, takes --encoding).  A typed command (it takes
# --type) makes its record with a line decoder, (line, schema) -> record, and
# writes it with an encoder, (record, schema, encoding) -> line.  Any other
# makes it with a producer, (lines, encoding) -> record, of the schema that
# `write` names, and writes it as JSON.
_COMMANDS = (
    ("show", "JSON record on stdin -> lexeme line", codecs.from_named, codecs.show_line, True),
    ("parse", "lexeme line on stdin -> JSON record", _lexeme_record, _json_line, False),
    ("map-demo", "run the fixed field-map pipeline", _map_demo, records.DEVICE_SCHEMA, True),
    ("zip-demo", "run the fixed two-record zip pipeline", _zip_demo, records.DEVICE_SCHEMA, True),
    ("remap-demo", "run the fixed stack-machine pipeline", _remap_demo, records.DEVICE_SCHEMA, False),
    ("avg", "JSON benchmarks on stdin -> averaged JSON", _avg, records.AVGS_SCHEMA, False),
    ("encode-bin", "JSON record on stdin -> hex image", codecs.from_named, _hex_line, False),
    ("decode-bin", "hex image on stdin -> JSON record", _hex_record, _json_line, False),
    ("to-json", "validate and canonicalize a JSON record", codecs.from_named, _json_line, False),
    ("from-json", "validate and canonicalize a JSON record", codecs.from_named, _json_line, False),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recplug", description="record pipeline demos and codecs"
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, help_text, make, write, tracked in _COMMANDS:
        sub = subs.add_parser(name, help=help_text)
        sub.set_defaults(make=make, write=write, encoding=None)
        if not isinstance(write, RecordSchema):
            sub.add_argument("--type", required=True, choices=sorted(records.REGISTRY))
        if tracked:
            sub.add_argument("--encoding", default="lisp", choices=("lisp", "scott"))
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    read = 0  # lines taken from stdin so far; an error names the last one

    def lines():
        r"""Each line of stdin, read lazily, without its "\n" or "\r\n"; a
        line of bytes that is not UTF-8, or longer than MAX_LINE, is an error
        with its number, and the rest of a long line is never read."""
        nonlocal read
        raw = getattr(sys.stdin, "buffer", None)
        source, end = (sys.stdin, "\n") if raw is None else (raw, b"\n")
        while source is not None and (line := source.readline(MAX_LINE + 1)):
            read += 1
            if len(line) > MAX_LINE and not line.endswith(end):
                raise Error(f"line longer than {MAX_LINE} bytes")
            if raw is not None:
                try:
                    line = line.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise Error(f"stdin is not UTF-8: {exc.reason}") from None
            yield line[:-2] if line.endswith("\r\n") else line.removesuffix("\n")

    try:
        if isinstance(args.write, RecordSchema):  # avg and the demos
            outs = [codecs.to_named(args.make(lines(), args.encoding), args.write)]
        else:
            schema = schema_for(args.type)
            outs = (args.write(args.make(line, schema), schema, args.encoding) for line in lines())
        for out in outs:  # a character is 1 to 4 UTF-8 bytes, so a short line is not counted
            if len(out) > MAX_LINE // 4:
                _check_output(len(out.encode("utf-8", "surrogatepass")))
            print(out)
    except Error as exc:
        print(f"error: line {read}: {exc}" if read else f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def console_main() -> None:
    if sys.stdout is None:  # descriptor 1 is closed: nothing can be written
        raise SystemExit(1)
    sys.stdout.reconfigure(encoding="utf-8", errors="strict")
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout was closed early.  As the signal docs advise, point it at
        # devnull, so that the flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)
