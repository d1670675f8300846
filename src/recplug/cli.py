"""Command-line front end: pipeline demos and codecs over stdin/stdout.

Records cross the process boundary as one flat JSON object per line;
binary images cross as lowercase hex.  A line ends at "\n" or "\r\n".  The
console script reads stdin and writes stdout as strict UTF-8 whatever the
locale; a closed stdin reads as empty input.  Exit codes: 0 success, 1
domain error or undecodable stdin (one-line diagnostic on stderr) or closed
stdout, 2 usage error.
"""

import argparse
import io
import os
import re
import sys

from . import codecs, pipelines, records, scott
from .errors import Error
from .records import EXAMPLE_DEVICE, Kind, RecordSchema, list_fields, schema_for

_HEX_IMAGE = re.compile(r"(?:[0-9a-f]{2})*")
_LINE_END = re.compile(r"\r?\n")


def _read_line(stdin) -> str:
    return _LINE_END.split(stdin.readline(), 1)[0]


def _read_record(stdin, schema: RecordSchema):
    return codecs.from_named(_read_line(stdin), schema)


def _showable(record, schema: RecordSchema) -> None:
    # Lexemes are space-separated and lines end at a newline, so shown
    # strings must contain no space and no control character.
    for spec, value in zip(schema.fields, list_fields(schema.destruct(record))):
        if spec.kind is not Kind.STR:
            continue
        if " " in value:
            raise Error(f"field {spec.name!r} contains a space, not showable")
        if codecs.CONTROL.search(value):
            raise Error(f"field {spec.name!r} contains a control character, not showable")


def _show(args, stdin, stdout) -> None:
    schema = schema_for(args.type)
    record = _read_record(stdin, schema)
    _showable(record, schema)
    if args.encoding == "scott":
        shown = scott.run_show_cps(scott.show_record_cps(args.type)(record))
    else:
        shown = pipelines.run_show(pipelines.show_record(args.type)(record))
    print(shown, file=stdout)


def _parse(args, stdin, stdout) -> None:
    schema = schema_for(args.type)
    record = codecs.parse_record(codecs.lexemes(_read_line(stdin)), schema)
    print(codecs.to_named(record, schema), file=stdout)


def _map_demo(args, stdin, stdout) -> None:
    if args.encoding == "scott":
        result = scott.run_map_cps(scott.map_device_demo_cps()(EXAMPLE_DEVICE))
    else:
        result = pipelines.run_map(pipelines.map_device_demo()(EXAMPLE_DEVICE))
    print(codecs.to_named(result, records.DEVICE_SCHEMA), file=stdout)


def _zip_demo(args, stdin, stdout) -> None:
    mapped = pipelines.run_map(pipelines.map_device_demo()(EXAMPLE_DEVICE))
    if args.encoding == "scott":
        result = scott.run_zip_cps(scott.zip_device_demo_cps()(EXAMPLE_DEVICE, mapped))
    else:
        result = pipelines.run_zip(pipelines.zip_device_demo()(EXAMPLE_DEVICE, mapped))
    print(codecs.to_named(result, records.DEVICE_SCHEMA), file=stdout)


def _remap_demo(args, stdin, stdout) -> None:
    result = pipelines.run_map(pipelines.remap_device_demo()(EXAMPLE_DEVICE))
    print(codecs.to_named(result, records.DEVICE_SCHEMA), file=stdout)


def _avg(args, stdin, stdout) -> None:
    lines = _LINE_END.split(stdin.read())
    if lines and lines[-1] == "":
        lines.pop()
    outputs = [codecs.from_named(line, records.BENCHMARK_SCHEMA) for line in lines]
    result = pipelines.average(outputs)
    print(codecs.to_named(result, records.AVGS_SCHEMA), file=stdout)


def _encode_bin(args, stdin, stdout) -> None:
    schema = schema_for(args.type)
    record = _read_record(stdin, schema)
    print(codecs.encode_binary(record, schema).hex(), file=stdout)


def _decode_bin(args, stdin, stdout) -> None:
    schema = schema_for(args.type)
    line = _read_line(stdin)
    if not _HEX_IMAGE.fullmatch(line):
        raise Error(f"not a hex image: {line!r}")
    record = codecs.decode_binary(bytes.fromhex(line), schema)
    print(codecs.to_named(record, schema), file=stdout)


def _named_bridge(args, stdin, stdout) -> None:
    schema = schema_for(args.type)
    record = _read_record(stdin, schema)
    print(codecs.to_named(record, schema), file=stdout)


# (command, help, handler, takes --type, takes --encoding)
_COMMANDS = (
    ("show", "JSON record on stdin -> lexeme line", _show, True, True),
    ("parse", "lexeme line on stdin -> JSON record", _parse, True, False),
    ("map-demo", "run the fixed field-map pipeline", _map_demo, False, True),
    ("zip-demo", "run the fixed two-record zip pipeline", _zip_demo, False, True),
    ("remap-demo", "run the fixed stack-machine pipeline", _remap_demo, False, False),
    ("avg", "JSON benchmarks on stdin -> averaged JSON", _avg, False, False),
    ("encode-bin", "JSON record on stdin -> hex image", _encode_bin, True, False),
    ("decode-bin", "hex image on stdin -> JSON record", _decode_bin, True, False),
    ("to-json", "validate and canonicalize a JSON record", _named_bridge, True, False),
    ("from-json", "validate and canonicalize a JSON record", _named_bridge, True, False),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recplug", description="record pipeline demos and codecs"
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler, typed, tracked in _COMMANDS:
        sub = subs.add_parser(name, help=help_text)
        if typed:
            sub.add_argument("--type", required=True, choices=sorted(records.REGISTRY))
        if tracked:
            sub.add_argument("--encoding", default="lisp", choices=("lisp", "scott"))
        sub.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        args.handler(args, sys.stdin, sys.stdout)
    except Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except UnicodeDecodeError as exc:
        print(f"error: stdin is not UTF-8: {exc.reason}", file=sys.stderr)
        return 1
    return 0


def console_main() -> None:
    if sys.stdout is None:  # descriptor 1 is closed: nothing can be written
        raise SystemExit(1)
    if sys.stdin is None:  # descriptor 0 is closed: it reads as empty input
        sys.stdin = io.TextIOWrapper(io.BytesIO())
    for stream in (sys.stdin, sys.stdout):
        stream.reconfigure(encoding="utf-8", errors="strict")
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout was closed early.  As the signal docs advise, point it at
        # devnull, so that the flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)
