"""The library keeps only what its users call: every function, class and
method defined in `src/pia2` is referred to somewhere in `src/` or
`perfbench/` outside its own definition.  Code only the tests call lives
in `tests/helpers.py`.  Dunder methods are left out, since Python calls
them itself.

References are read off the syntax tree.  A function or class is
referred to by a name, an attribute or an imported name; a method only
by an attribute, so a variable or parameter of the same name is not a
call.  A "pia2.module:Class.method" string counts as naming each dotted
part, since that is how perfbench wraps what it traces."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# definitions kept without a caller, each with its reason
EXEMPT = {
    "complexes.py:cone": "the paper's mapping cone; the tests build it "
                         "from chain maps, and no command needs it",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_WRAPPED = re.compile(r"[\w.]+:([\w.]+)")


def _definitions(path):
    """(label, name, is a method, first line, last line) of each def and
    class in the file; a method's label carries its class."""
    tree = ast.parse(path.read_text())
    owner = {id(d): c.name for c in ast.walk(tree)
             if isinstance(c, ast.ClassDef) for d in c.body}
    out = []
    for n in ast.walk(tree):
        if isinstance(n, _DEFS) and not (n.name.startswith("__")
                                         and n.name.endswith("__")):
            cls = owner.get(id(n)) if not isinstance(n, ast.ClassDef) else None
            label = f"{path.name}:{cls}.{n.name}" if cls else f"{path.name}:{n.name}"
            out.append((label, n.name, cls is not None, n.lineno, n.end_lineno))
    return out


def _references(readers):
    """{name: {(file, line)}} for the names, imported names and wrapped
    strings, and the same for the attributes, over the reader files."""
    names, attrs = {}, {}
    for p in readers:
        for n in ast.walk(ast.parse(p.read_text())):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                names.setdefault(n.id, set()).add((p, n.lineno))
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                attrs.setdefault(n.attr, set()).add((p, n.lineno))
            elif isinstance(n, ast.ImportFrom):
                for a in n.names:
                    names.setdefault(a.name, set()).add((p, n.lineno))
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                m = _WRAPPED.fullmatch(n.value)
                for part in m.group(1).split(".") if m else ():
                    for table in (names, attrs):
                        table.setdefault(part, set()).add((p, n.lineno))
    return names, attrs


def uncalled(library, readers):
    """The label ("file:name", "file:Class.method") of every definition in
    the library files that no reader file refers to outside the
    definition's own lines."""
    names, attrs = _references(readers)
    out = []
    for p in library:
        for label, name, method, first, last in _definitions(p):
            refs = set(attrs.get(name, ()))
            if not method:
                refs |= names.get(name, set())
            if all(q == p and first <= line <= last for q, line in refs):
                out.append(label)
    return sorted(out)


def test_every_library_definition_has_a_caller():
    library = sorted((ROOT / "src" / "pia2").glob("*.py"))
    readers = sorted((ROOT / "src").rglob("*.py")) + \
        sorted((ROOT / "perfbench").rglob("*.py"))
    assert len(library) >= 9
    assert uncalled(library, readers) == sorted(EXEMPT)


def test_uncalled_finds_a_definition_named_only_where_defined(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text("def used():\n    return 1\n\n\n"
                   "def unused():\n    return used()\n\n\n"
                   "def recurse(n):\n    return recurse(n - 1) if n else 0\n\n\n"
                   "class Box:\n    def __repr__(self):\n        return ''\n\n"
                   "    def open(self):\n        return unused\n\n"
                   "    def size(self):\n        return 0\n\n"
                   "    def shut(self):\n        return self.open()\n")
    other = tmp_path / "other.py"
    other.write_text("from lib import Box\n\n\n"
                     "def measure(size):\n"
                     "    return size + len('pia2.lib:Box.shut')\n")
    # unused is named inside Box.open, Box in other.py, Box.open inside
    # Box.shut and Box.shut in a wrapped string.  recurse is named only in
    # its own body, and size, a method, only as a parameter: both are
    # reported, and __repr__ is left out
    assert uncalled([lib], [lib, other]) == ["lib.py:Box.size",
                                             "lib.py:recurse"]
