"""The library keeps only what its users call: every function, class and
method defined in `src/pia2` is referred to somewhere in `src/` or
`perfbench/` outside its own definition.  Code only the tests call lives
in `tests/helpers.py`.  Dunder methods are left out, since Python calls
them itself.

References are read off the syntax tree.  A function or class is
referred to by a name, an attribute or an imported name; a method only
by an attribute, so a variable or parameter of the same name is not a
call.  Inside a class that defines X, `self.X` and `cls.X` refer to that
class's X and to its overrides in subclasses, not to an X of another
class; any other attribute X refers to every X.  A
"pia2.module:Class.method" string, which is how perfbench wraps what it
traces, refers to that method as `self.method` inside the class would,
and names each dotted part."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# definitions kept without a caller, each with its reason
EXEMPT = {}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_WRAPPED = re.compile(r"[\w.]+:([\w.]+)")


def _definitions(path):
    """(label, name, its class or None, first line, last line) of each
    def and class in the file; a method's label carries its class."""
    tree = ast.parse(path.read_text())
    owner = {id(d): c.name for c in ast.walk(tree)
             if isinstance(c, ast.ClassDef) for d in c.body}
    out = []
    for n in ast.walk(tree):
        if isinstance(n, _DEFS) and not (n.name.startswith("__")
                                         and n.name.endswith("__")):
            cls = owner.get(id(n)) if not isinstance(n, ast.ClassDef) else None
            label = f"{path.name}:{cls}.{n.name}" if cls else f"{path.name}:{n.name}"
            out.append((label, n.name, cls, n.lineno, n.end_lineno))
    return out


def _classes(trees):
    """{class name: (names its body defines, names of its bases)}."""
    out = {}
    for tree in trees:
        for c in ast.walk(tree):
            if isinstance(c, ast.ClassDef):
                defined = {d.name for d in c.body if isinstance(d, _DEFS)}
                bases = {b.attr if isinstance(b, ast.Attribute) else getattr(b, "id", None)
                         for b in c.bases}
                out[c.name] = (defined, bases)
    return out


def _descendants(classes):
    """{class name: the class and its subclasses, at any depth}."""
    out = {c: {c} for c in classes}
    grew = True
    while grew:
        grew = False
        for c, (_defined, bases) in classes.items():
            for b in bases & out.keys():
                if not out[c] <= out[b]:
                    out[b] |= out[c]
                    grew = True
    return out


def _own_reads(node, classes, cls=None):
    """(class, node) of each `self.X` or `cls.X` read under node whose
    innermost enclosing class defines X."""
    for child in ast.iter_child_nodes(node):
        if (isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load)
                and isinstance(child.value, ast.Name)
                and child.value.id in ("self", "cls")
                and cls is not None and child.attr in classes[cls][0]):
            yield cls, child
        yield from _own_reads(child, classes,
                              child.name if isinstance(child, ast.ClassDef) else cls)


def _references(readers):
    """{name: {(file, line)}} for the names, imported names and wrapped
    strings; the same for the attributes other than a class's reads of
    its own; {name: {class: {(file, line)}}} for those own reads, wrapped
    "Class.method" strings among them; and `_descendants`."""
    trees = {p: ast.parse(p.read_text()) for p in readers}
    classes = _classes(trees.values())
    names, attrs, own = {}, {}, {}
    for p, tree in trees.items():
        mine = set()
        for c, n in _own_reads(tree, classes):
            own.setdefault(n.attr, {}).setdefault(c, set()).add((p, n.lineno))
            mine.add(id(n))
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                names.setdefault(n.id, set()).add((p, n.lineno))
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                if id(n) not in mine:
                    attrs.setdefault(n.attr, set()).add((p, n.lineno))
            elif isinstance(n, ast.ImportFrom):
                for a in n.names:
                    names.setdefault(a.name, set()).add((p, n.lineno))
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                m = _WRAPPED.fullmatch(n.value)
                parts = m.group(1).split(".") if m else []
                for part in parts:
                    names.setdefault(part, set()).add((p, n.lineno))
                owner = parts[-2] if len(parts) >= 2 else None
                if owner in classes and parts[-1] in classes[owner][0]:
                    own.setdefault(parts[-1], {}).setdefault(
                        owner, set()).add((p, n.lineno))
                else:
                    for part in parts:
                        attrs.setdefault(part, set()).add((p, n.lineno))
    return names, attrs, own, _descendants(classes)


def uncalled(library, readers):
    """The label ("file:name", "file:Class.method") of every definition in
    the library files that no reader file refers to outside the
    definition's own lines."""
    names, attrs, own, descendants = _references(readers)
    out = []
    for p in library:
        for label, name, cls, first, last in _definitions(p):
            refs = set(attrs.get(name, ()))
            if cls is None:
                refs |= names.get(name, set())
            for reader, lines in own.get(name, {}).items():
                if cls in descendants[reader]:
                    refs |= lines
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


def test_a_read_of_self_x_refers_to_its_own_class_only(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text("class Field:\n    def add(self, a, b):\n        return a + b\n\n\n"
                   "class Element:\n    def add(self, other):\n        return other\n\n"
                   "    def double(self):\n        return self.add(self)\n\n\n"
                   "class Vector(Element):\n    def add(self, other):\n        return self\n")
    other = tmp_path / "other.py"
    other.write_text("from lib import Element, Field, Vector\n\n\n"
                     "def run():\n    return Element().double(), Vector(), Field\n")
    # Element.double reads self.add: Element's add or, on a Vector,
    # Vector's.  Nothing reaches Field.add
    assert uncalled([lib], [lib, other]) == ["lib.py:Field.add"]
