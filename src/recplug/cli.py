"""Command-line front end: pipeline demos and codecs over stdin/stdout.

Records cross the process boundary as one flat JSON object per line;
binary images cross as lowercase hex.  Exit codes: 0 success, 1 domain
error (one-line diagnostic on stderr), 2 usage error.
"""

import argparse
import re
import sys

from . import codecs, pipelines, records, scott
from .errors import Error
from .records import EXAMPLE_DEVICE, Kind, RecordSchema, list_fields, schema_for

_AVGS_SCHEMA = schema_for("benchmark_avg")
_HEX_IMAGE = re.compile(r"(?:[0-9a-f]{2})*")


def _read_line(stdin) -> str:
    return stdin.readline().rstrip("\n")


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


def _by_encoding(args, by_pairs, by_cps):
    """The result --encoding selects, once both tracks are shown to agree."""
    if by_pairs != by_cps:
        raise Error("encoding tracks disagree")
    return by_cps if args.encoding == "scott" else by_pairs


def _show(args, stdin, stdout) -> None:
    schema = schema_for(args.type)
    record = _read_record(stdin, schema)
    _showable(record, schema)
    by_pairs = pipelines.run_show(pipelines.show_record(args.type)(record))
    by_cps = scott.run_show_cps(scott.show_record_cps(args.type)(record))
    print(_by_encoding(args, by_pairs, by_cps), file=stdout)


def _parse(args, stdin, stdout) -> None:
    schema = schema_for(args.type)
    record = codecs.parse_record(codecs.lexemes(_read_line(stdin)), schema)
    print(codecs.to_named(record, schema), file=stdout)


def _map_demo(args, stdin, stdout) -> None:
    by_pairs = pipelines.run_map(pipelines.map_device_demo()(EXAMPLE_DEVICE))
    by_cps = scott.run_map_cps(scott.map_device_demo_cps()(EXAMPLE_DEVICE))
    result = _by_encoding(args, by_pairs, by_cps)
    print(codecs.to_named(result, schema_for("device")), file=stdout)


def _zip_demo(args, stdin, stdout) -> None:
    mapped = pipelines.run_map(pipelines.map_device_demo()(EXAMPLE_DEVICE))
    by_pairs = pipelines.run_zip(pipelines.zip_device_demo()(EXAMPLE_DEVICE, mapped))
    by_cps = scott.run_zip_cps(scott.zip_device_demo_cps()(EXAMPLE_DEVICE, mapped))
    result = _by_encoding(args, by_pairs, by_cps)
    print(codecs.to_named(result, schema_for("device")), file=stdout)


def _remap_demo(args, stdin, stdout) -> None:
    result = pipelines.run_map(pipelines.remap_device_demo()(EXAMPLE_DEVICE))
    print(codecs.to_named(result, schema_for("device")), file=stdout)


def _avg(args, stdin, stdout) -> None:
    schema = schema_for("benchmark")
    lines = stdin.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    outputs = [codecs.from_named(line, schema) for line in lines]
    result = pipelines.average(outputs)
    print(codecs.to_named(result, _AVGS_SCHEMA), file=stdout)


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


def _add_type(sub) -> None:
    sub.add_argument("--type", required=True, choices=sorted(records.REGISTRY))


def _add_encoding(sub) -> None:
    sub.add_argument("--encoding", default="lisp", choices=("lisp", "scott"))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recplug", description="record pipeline demos and codecs"
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("show", help="JSON record on stdin -> lexeme line")
    _add_type(sub)
    _add_encoding(sub)
    sub.set_defaults(handler=_show)

    sub = subs.add_parser("parse", help="lexeme line on stdin -> JSON record")
    _add_type(sub)
    sub.set_defaults(handler=_parse)

    sub = subs.add_parser("map-demo", help="run the fixed field-map pipeline")
    _add_encoding(sub)
    sub.set_defaults(handler=_map_demo)

    sub = subs.add_parser("zip-demo", help="run the fixed two-record zip pipeline")
    _add_encoding(sub)
    sub.set_defaults(handler=_zip_demo)

    sub = subs.add_parser("remap-demo", help="run the fixed stack-machine pipeline")
    sub.set_defaults(handler=_remap_demo)

    sub = subs.add_parser("avg", help="JSON benchmarks on stdin -> averaged JSON")
    sub.set_defaults(handler=_avg)

    sub = subs.add_parser("encode-bin", help="JSON record on stdin -> hex image")
    _add_type(sub)
    sub.set_defaults(handler=_encode_bin)

    sub = subs.add_parser("decode-bin", help="hex image on stdin -> JSON record")
    _add_type(sub)
    sub.set_defaults(handler=_decode_bin)

    sub = subs.add_parser("to-json", help="validate and canonicalize a JSON record")
    _add_type(sub)
    sub.set_defaults(handler=_named_bridge)

    sub = subs.add_parser("from-json", help="validate and canonicalize a JSON record")
    _add_type(sub)
    sub.set_defaults(handler=_named_bridge)

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
    return 0


def console_main() -> None:
    raise SystemExit(main())
