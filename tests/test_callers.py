"""The library keeps only what its users call: every function, class and
method defined in `src/pia2` is named somewhere in `src/` or `perfbench/`
other than on a line that defines it.  Code only the tests call lives in
`tests/helpers.py`.  Dunder methods are left out, since Python calls them
itself."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _definitions(path):
    """(name, line number) of each def and class in the file."""
    tree = ast.parse(path.read_text())
    return [(n.name, n.lineno) for n in ast.walk(tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef))
            and not (n.name.startswith("__") and n.name.endswith("__"))]


def uncalled(library, readers):
    """The "file:name" of every definition in the library files whose
    name occurs in no reader file except on a line defining it."""
    seen = {}     # word -> {(file, line number)} where it occurs
    for p in readers:
        for i, text in enumerate(p.read_text().splitlines(), 1):
            for word in re.findall(r"[A-Za-z_][A-Za-z0-9_]*", text):
                seen.setdefault(word, set()).add((p, i))
    defs = {p: _definitions(p) for p in library}
    def_lines = {}
    for p, found in defs.items():
        for name, lineno in found:
            def_lines.setdefault(name, set()).add((p, lineno))
    return sorted({f"{p.name}:{name}" for p, found in defs.items()
                   for name, _lineno in found
                   if not seen.get(name, set()) - def_lines[name]})


def test_every_library_definition_has_a_caller():
    library = sorted((ROOT / "src" / "pia2").glob("*.py"))
    readers = sorted((ROOT / "src").rglob("*.py")) + \
        sorted((ROOT / "perfbench").rglob("*.py"))
    assert len(library) >= 9
    assert uncalled(library, readers) == []


def test_uncalled_finds_a_definition_named_only_where_defined(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text("def used():\n    return 1\n\n\n"
                   "def unused():\n    return used()\n\n\n"
                   "class Box:\n    def __repr__(self):\n        return ''\n\n"
                   "    def open(self):\n        return unused\n")
    other = tmp_path / "other.py"
    other.write_text("from lib import Box\n")
    # unused is named inside Box.open, Box in other.py; open, defined and
    # named nowhere else, is reported, and __repr__ is left out
    assert uncalled([lib], [lib, other]) == ["lib.py:open"]
