"""The shape of ``tests/mutants.py``'s table; no mutant runs here."""

import ast
from functools import cache
from pathlib import Path

from mutants import MUTANTS, ROOT, source


@cache
def functions_of(path: str) -> frozenset:
    """The names of the module-level functions of ``path``, a test file, or
    nothing if it is none."""
    if Path(path).parent != Path("tests") or not (ROOT / path).is_file():
        return frozenset()
    tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
    return frozenset(node.name for node in tree.body if isinstance(node, ast.FunctionDef))


def test_every_mutant_replaces_one_text_and_names_existing_tests():
    """Each row's old text occurs exactly once in its file and differs from
    its new text, and each of its ids names a ``test_`` function of its
    file (a parametrized id by its base name).  So a rename or rewrite of
    a test that kills a mutant fails here until the row follows it."""
    bad = []
    for file, old, new, ids in MUTANTS:
        count = source(file).count(old)
        if count != 1 or old == new or not ids:
            bad.append((file, old, count))
        for test_id in ids:
            path, _, name = test_id.partition("::")
            base = name.partition("[")[0]
            if not base.startswith("test_") or base not in functions_of(path):
                bad.append(test_id)
    assert bad == []
