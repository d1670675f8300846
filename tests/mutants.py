"""Hand-made mutants of ``src/recplug``, each with the tests that must kill it.

Each row of ``MUTANTS`` is ``(file, old, new, ids)``: a file under
``src/recplug``, a text that occurs in it exactly once, the text that
replaces it, and the pytest ids that must fail on the mutated code.
After a test is deleted, moved or rewritten, a run shows whether every
mutant is still killed.  Run it, with no options, as::

    python tests/mutants.py

Each run happens in a fresh temporary copy of ``src/``, ``tests/`` and
``pyproject.toml``, with ``PYTHONPATH`` on the copy's ``src`` and the copy
as working directory, so a child process that a test starts runs the
mutant too, and the checkout is never written (Hypothesis keeps its
database in the copy).  First every listed id runs on an unmutated copy,
and all must pass.  Then each row prints one line:

- ``killed``: pytest exits 1 and every listed id is among its failures;
- ``survived``: pytest exits 0, or 1 with a listed id passing;
- ``broken``: the old text does not occur exactly once, or pytest exits
  with an error, an interrupt, a usage error (an unknown id) or nothing
  collected (2 to 5).

The exit code is 0 when every row is killed, else 1.  pytest does not
collect this file (its name has no ``test_`` prefix);
``tests/test_mutants.py`` checks the table's shape in tier-1.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

C1 = "tests/test_acceptance.py::test_criterion_1_fixed_oracles"
C2 = "tests/test_acceptance.py::test_criterion_2_track_equivalence"
C3 = "tests/test_acceptance.py::test_criterion_3_round_trips"
C4 = "tests/test_acceptance.py::test_criterion_4_combinator_laws"
C5 = "tests/test_acceptance.py::test_criterion_5_plug_coherence"
C6 = "tests/test_acceptance.py::test_criterion_6_identity_and_projection_laws"
C7 = "tests/test_acceptance.py::test_criterion_7_cli_goldens"
TYPED = "tests/test_cli.py::test_a_typed_command_reads_one_record_per_line"
DECLARED = "tests/test_cli.py::test_a_generated_declaration_round_trips_or_is_refused"
BUILDER = "tests/test_records.py::test_builder_matches_tuple_reference"
SHORT_ECHO = "tests/test_records.py::test_a_long_piece_or_type_id_gives_a_short_error"
INT_ECHO = "tests/test_records.py::test_an_echo_shows_any_int_past_20_digits_by_its_bit_length"
KIND = "tests/test_records.py::test_kind_of_distinguishes_bool_from_int"
BAD = "tests/test_register.py::test_a_bad_declaration_raises_and_registers_nothing"
REPLACE = "tests/test_register.py::test_make_and_replace_validate_as_the_constructor_does"
LENGTH = "tests/test_register.py::test_length_mismatch_raises"
NON_FINITE = "tests/test_records.py::test_a_non_finite_real_is_refused_wherever_a_record_is_built"
NO_JSON_FORM = "tests/test_codecs.py::test_a_non_finite_real_has_no_json_form"
FIRST_FAULT = "tests/test_codecs.py::test_from_named_names_the_first_fault_in_field_order"
STATE = "tests/test_state.py::test_"
# Its ids name the outer run's track, then the inner run's.
NESTED = f"{STATE}an_inner_runs_state_survives_the_outer_handler"
STATE_PAIR = tuple(STATE + name for name in (
    "a_truncated_image_stops_at_minor_and_its_offset", "a_bad_bool_byte_stops_at_the_first_field_and_offset_0",
    "a_bad_lexeme_stops_at_its_field_and_lexeme_index",
    "a_pair_track_encoder_stops_with_a_stack_as_long_as_the_field_index",
    "run_map_stops_with_a_builder_at_the_field_index", "run_zip_stops_with_a_builder_and_both_field_lists",
    "run_instance_stops_with_a_builder_at_the_field_index"))
STATE_CPS = tuple(STATE + name for name in (
    "the_cps_show_stops_with_a_stack_and_the_fields_left", "run_map_cps_stops_with_a_builder_and_the_fields_left",
    "run_zip_cps_stops_in_the_inner_chain_with_the_first_records_fields_left"))

MUTANTS = (
    # codecs.py, lexeme track: no negative int, no I64_MIN, a tail counted by pieces
    ("codecs.py", '_INT_RE = re.compile(r"-?(0|', '_INT_RE = re.compile(r"(0|', (C3,)),
    ("codecs.py", "not I64_MIN <= (v := int(lex))", "not I64_MIN < (v := int(lex))", (C3,)),
    ("codecs.py", 'excess = sum(lex.count(" ") + 1 for lex in stream[cursor:])',
     "excess = len(stream) - cursor",
     ("tests/test_codecs.py::test_parse_record",
      "tests/test_codecs.py::test_a_split_no_further_than_the_record_parses_as_the_full_split")),
    ("codecs.py", "has no {form} form", r"has no\n{form} form", (TYPED,)),
    # codecs.py, binary track
    ("codecs.py", 'struct.pack("<I", len(raw))', 'struct.pack("<I", len(v))', (C3,)),
    ("codecs.py", "if len(raw) > 0xFFFFFFFF:", "if len(raw) > 0xFFFFFFFFF:",
     ("tests/test_codecs.py::test_a_string_of_more_than_4_gib_is_refused",)),
    ("codecs.py", 'Kind.INT: struct.Struct("<q").pack', 'Kind.INT: struct.Struct(">q").pack', (C3,)),
    ("codecs.py", "return bool(b), pos + 1", "return b == 0, pos + 1", (C3, C7)),
    ("codecs.py", 'struct.unpack_from("<q", data, pos)', 'struct.unpack_from("<Q", data, pos)', (C3,)),
    # codecs.py, JSON track
    ("codecs.py", "str: encode_basestring, float: repr",
     r"""str: lambda v: '"' + v.replace('\\', '\\\\').replace('"', '\\"') + '"', float: repr""",
     (DECLARED,)),
    ("codecs.py", "if t is int and not I64_MIN <= v <= I64_MAX:",
     "if t is int and not I64_MIN < v <= I64_MAX:", (C3,)),
    ("codecs.py", "named[f.name], WrongValueKindError",
     'named[f.name] if named.get(f.name) != "" else {}[f.name], WrongValueKindError', (C3,)),
    # the whole key set checked before any kind
    ("codecs.py", "        values = [check_field(",
     "        [named[f.name] for f in schema.fields]\n        values = [check_field(",
     (f"{FIRST_FAULT}[device-kind-then-missing]", f"{FIRST_FAULT}[benchmark-kind-then-missing]")),
    ("codecs.py", "float: repr, _RealLiteral", 'float: lambda v: f"{v:.15e}", _RealLiteral', (C3,)),
    ("codecs.py", '",".join(reversed(list_fields(pairs)))', '", ".join(reversed(list_fields(pairs)))',
     (C7,)),
    # records.py
    ("records.py", "b.schema.ctor(*reversed(list_fields(b._cells)))",
     "b.schema.ctor(*list_fields(b._cells))", (BUILDER,)),
    ("records.py", "missing = b.schema.arity - b._count", "missing = b.schema.arity - b._count - 1",
     (BUILDER,)),
    ("records.py", "schema, done = b.schema, b._count", "schema, done = b.schema, len(b.supplied)",
     ("tests/test_cost.py::test_a_record_layer_costs_affine_calls_in_its_arity",)),
    ("records.py", "unregistered record type: {_echo(type_id)}",
     "unregistered record type: {type_id!r}", (SHORT_ECHO,)),
    ("records.py", "len(value := repr(value)) <= 40", "len(value := repr(value)) >= 0", (SHORT_ECHO,)),
    ("records.py", "if issubclass(t := type(value), int) and", "if False and", (SHORT_ECHO,)),
    ("records.py", "(t is int or abs(int.__int__(value)) >= 10**_I64_DIGITS)", "t is int",
     (SHORT_ECHO, INT_ECHO)),
    ("records.py", "issubclass(t := type(value), int)", "(t := type(value)) and isinstance(value, int)",
     (SHORT_ECHO,)),
    ("records.py", "len(type_id) > 40", "len(type_id) > 41", (SHORT_ECHO,)),
    ("records.py", " or not type_id.isprintable()", "",
     (f"{BAD}[type-id-with-newline]", f"{BAD}[type-id-with-escape]",
      f"{BAD}[type-id-with-rtl-override]", f"{REPLACE}[type-id-with-newline]")),
    ("records.py", "type(type_id) is not str or ", "",
     (f"{BAD}[tuple-type-id]", f"{BAD}[int-type-id]", f"{BAD}[list-type-id]")),
    ("records.py", "type(f.name) is not str or ", "",
     (f"{BAD}[tuple-wire-name]", f"{BAD}[int-wire-name]")),
    ("records.py", "f.kw_only is True or ", "", (f"{BAD}[keyword-only-and-initvar-fields]",)),
    ("records.py", "if issubclass(type(v), t):", "if isinstance(v, t):", (KIND,)),
    ("records.py", " or t is float and not isfinite(v):", ":", (NON_FINITE,)),
    ("records.py", "else t is not float or isfinite(v)):", "else True):", (NON_FINITE, NO_JSON_FORM)),
    ("records.py", "if got is Kind.REAL and not isfinite(v):", "if False:",
     (NON_FINITE, NO_JSON_FORM, "tests/test_codecs.py::test_a_non_finite_real_is_not_showable")),
    ("records.py", "or not len(names) == len(kinds) == len(wires):", "or False:",
     (LENGTH, f"{BAD}[one-kind-too-few]", f"{BAD}[one-kind-too-many]",
      f"{BAD}[one-wire-name-too-few]")),
    ("records.py", "if type(names) is not tuple or ", "if ",
     (f"{BAD}[str-match-args]", f"{BAD}[list-match-args]")),
    ("records.py", "any(type(n) is not str for n in names)", "False", (f"{BAD}[int-match-args]",)),
    ("records.py", "(wire_names,) if isinstance(wire_names, str) else ", "",
     (f"{BAD}[str-wire-names]",)),
    ("records.py", "reduce(apply_field, supplied, empty)", "reduce(apply_field, supplied[1:], empty)",
     (BUILDER,)),
    ("records.py", "self.arity = len(self.fields)", "self.arity = len(self.fields) + 1", (C5,)),
    # pipelines.py
    ("pipelines.py", "apply_field(s, f(a, c))", "apply_field(s, f(c, a))", (C6,)),
    ("pipelines.py", "lambda x: x + 100", "lambda x: x + 101", (C1,)),
    ("pipelines.py", "lambda a, b: a and b", "lambda a, b: a or b", (C1,)),
    ("pipelines.py", '" ".join(reversed(list_fields(_consumed("run_show", *state))))',
     '" ".join(list_fields(_consumed("run_show", *state)))', (C1,)),
    ("pipelines.py", "partial(push, v=True)", "partial(push, v=False)", (C1,)),
    ("pipelines.py", "hom_wrap(chop, pipeline, _keep_left)", "hom_wrap(chop, pipeline, lambda a, b: b)",
     (C1, "tests/test_pipelines.py::test_pop_push_dup_steps")),
    # chop.py
    ("chop.py", "lambda s, a: step(s, a, c)", "lambda s, a: step(s, c, a)", (C4,)),
    ("chop.py", "            exc.state = state if exc.state is None else exc.state\n            raise\n",
     "            raise\n", STATE_PAIR),
    ("chop.py", "exc.state = state if exc.state is None else exc.state", "exc.state = state",
     (f"{NESTED}[pair-pair]", f"{NESTED}[pair-cps]")),
    # scott.py
    ("scott.py", '_fuse("chop2_cps", f)', '_fuse("chop2_cps", lambda s, a, c: f(s, c, a))', (C4,)),
    ("scott.py", '" ".join(reversed(list_fields(state(_single))))',
     '" ".join(list_fields(state(_single)))', (C2, C7)),
    ("scott.py", "                i = min(len(steps), len(fields)) - 1 - len(list(pairs))\n"
     "                exc.state = (acc, *fields[i:]) if exc.state is None else exc.state\n                raise\n",
     "                raise\n", STATE_CPS),
    ("scott.py", "exc.state = (acc, *fields[i:]) if exc.state is None else exc.state",
     "exc.state = (acc, *fields[i:])", (f"{NESTED}[cps-pair]", f"{NESTED}[cps-cps]")),
    ("scott.py", "min(len(steps), len(fields)) - 1 - len(list(pairs))",
     "min(len(steps), len(fields)) - len(list(pairs))", STATE_CPS),
    ("scott.py", "reduce(mapa_cps, DEVICE_MAPS, seed)",
     "reduce(mapa_cps, (*DEVICE_MAPS[:2], lambda y: y + 201), seed)", (C7,)),
    ("scott.py", "reduce(zipa_cps, DEVICE_ZIPS, seed)",
     "reduce(zipa_cps, (lambda a, b: a or b, *DEVICE_ZIPS[1:]), seed)", (C7,)),
    # plug.py
    ("plug.py", "if instance.steps_remaining:", "if False:", (C5,)),
    ("plug.py", "if remaining <= 0:", "if remaining < 0:", (C5,)),
    ("plug.py", "schema_for(type_id).arity)", "schema_for(type_id).arity + 1)", (C5,)),
    ("plug.py", "depure_map, mapa, run_map)", "depure_map, lambda p, _: mapa(p, lambda v: v), run_map)",
     (C5,)),
    ("plug.py", "depure_map_cps, mapa_cps, run_map_cps)",
     "depure_map_cps, lambda p, _: mapa_cps(p, lambda v: v), run_map_cps)", (C5,)),
    ("plug.py", "showa, run_show)", "lambda p, r: showa(p, lambda a: r(a).lower()), run_show)", (C5,)),
    ("plug.py", "depure_zip, zipa, run_zip)", "depure_zip, lambda p, f: zipa(p, lambda a, c: f(a, a)), run_zip)",
     (C5,)),
    ("plug.py", "got {_echo(piece)}", "got {piece!r}", (SHORT_ECHO,)),
    # cli.py
    ("cli.py", "return codecs.to_named(record, schema)", 'return codecs.to_named(record, schema).replace(",", ", ")',
     (TYPED,)),
    ("cli.py", "print(out)", r'print(out, end="\r\n")', (C7,)),
    ("cli.py", "print(out)", "print(out); print(file=sys.stderr)", (C7,)),
    ("cli.py", r'yield line[:-2] if line.endswith("\r\n") else line.removesuffix("\n")',
     r'yield line.removesuffix("\n")', (C7,)),
    ("cli.py", "choices=sorted(records.REGISTRY))",
     'choices=sorted(records.REGISTRY.keys() & {"device", "benchmark", "benchmark_avg", "benchmark_argv"}))',
     (DECLARED,)),
    ("cli.py", 'line.split(" ", schema.arity)', 'line.split(" ")',
     ("tests/test_cli.py::test_peak_memory_is_at_most_8_bytes_per_byte_of_line[parse]",)),
)


def source(file: str) -> str:
    """The text of ``file`` under ``src/recplug`` in the checkout."""
    return (ROOT / "src" / "recplug" / file).read_text(encoding="utf-8")


def pytest_in_copy(ids, mutant=None) -> subprocess.CompletedProcess:
    """pytest run on ``ids`` in a fresh copy of the checkout, with
    ``mutant``, a (file, old, new) triple, applied to the copy."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        if mutant:
            file, old, new = mutant
            path = copy / "src" / "recplug" / file
            path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", *ids],
            cwd=copy, env={**os.environ, "PYTHONPATH": str(copy / "src")},
            capture_output=True, text=True,
        )


def verdict(file, old, new, ids) -> str:
    count = source(file).count(old)
    if count != 1:
        return f"broken: the old text occurs {count} times"
    proc = pytest_in_copy(ids, (file, old, new))
    if proc.returncode not in (0, 1):
        return f"broken: pytest exited {proc.returncode}"
    failed = [line[len("FAILED "):].split(" - ")[0] for line in proc.stdout.splitlines()
              if line.startswith("FAILED ")]
    passed = [i for i in ids if not any(f == i or f.startswith(i + "[") for f in failed)]
    if proc.returncode == 1 and not passed:
        return "killed"
    return "survived: " + " ".join(passed)


def main() -> int:
    ids = sorted({i for *_, row_ids in MUTANTS for i in row_ids})
    start = time.perf_counter()
    baseline = pytest_in_copy(ids)
    if baseline.returncode != 0:
        print(f"baseline: pytest exited {baseline.returncode} on the unmutated copy:")
        print(*(baseline.stdout + baseline.stderr).splitlines()[-10:], sep="\n")
        return 1
    print(f"baseline: {len(ids)} ids pass unmutated ({time.perf_counter() - start:.1f} s)")
    killed = 0
    for n, (file, old, new, row_ids) in enumerate(MUTANTS, 1):
        start = time.perf_counter()
        outcome = verdict(file, old, new, row_ids)
        killed += outcome == "killed"
        print(f"{n:2} {outcome} ({time.perf_counter() - start:.1f} s)  {file}: {old!r} -> {new!r}",
              flush=True)
    print(f"{killed} of {len(MUTANTS)} mutants killed")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
