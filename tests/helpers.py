"""Grammar and table functions that only the tests call.

`kappa_h`, `elem_degree` and `composable_pairs` read the symbol grammar
of `pia2.symbols`; `restrict_objects` cuts an operation table down to a
set of objects.
"""

from pia2 import symbols as sym
from pia2.table import OperationTable


def kappa_h(h):
    """The 1 <-> 2 relabeling of the H symbol h."""
    _, kind, i, n = h
    return ("h", kind, sym.other(i), n)


def elem_degree(x):
    return sym.h_degree(x) if sym.is_h(x) else sym.ext_degree(x)


def composable_pairs(n_max):
    """Every composable pair (a, b), a after b, of the Ext symbols of
    degree <= 2 n_max + 1 and the H symbols of index <= n_max."""
    elems = sym.all_ext_symbols(2 * n_max + 1) + sym.all_h_symbols(n_max)
    for a in elems:
        for b in elems:
            if sym.elem_source(a) == sym.elem_target(b):
                yield a, b


def restrict_objects(table, objects):
    """The entries of table whose full object chain lies inside the given
    set."""
    objects = set(objects)
    sub = OperationTable(table.metadata)
    for k, v in table.entries.items():
        if set(v["objects"]) <= objects:
            sub.entries[k] = v
    return sub
