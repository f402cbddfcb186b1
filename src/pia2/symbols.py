"""Symbol grammar for the Ext-algebra of the A2 preprojective algebra.

ExtSymbols name the homology basis: identities, j_i, p_i, (12), (21),
u_i^n (degree 2n), a.u2^n = alpha*u2^n and b.u1^n = beta*u1^n (degree
2n+1).  HSymbols name the partial-shift homotopies h^(n) between pairs of
resolutions.  ``mu`` multiplies two such elements at the chain level and
``h_apply`` applies the contracting homotopy to a product; both are total
with default ZERO.

Inside this module symbols are grammar tuples:
  Ext:   ("1", X) | ("j", i) | ("p", i) | ("E", i) | ("u", i, n)
         | ("g", i, n)            # g = the odd generators: ("g",1,n) is
                                  # a.u2^n : S2 -> S1, ("g",2,n) is b.u1^n
  H:     ("h", kind, i, n) with kind in {"ss","sn","sp","pn_t","ps","pn_s"}

The kind tables EXT_KINDS and H_KINDS are the one place that states a
kind's facts: an Ext kind's source, target, degree and spelling, an H
kind's source, target, lowest index n and degree.  Every fact function
reads them.  What no code reads is the H kinds' names in the paper's
notation (h_{target source}):
  ss   = h_{S_i S_i}^(n)       sn   = h_{S_i S_{i+1}}^(n)
  sp   = h_{S_i P_i}^(n)       pn_t = h_{S_i P_{i+1}}^(n)
  ps   = h_{P_i S_i}^(n)       pn_s = h_{P_{i+1} S_i}^(n)

mu is one table, PRODUCTS: the pair of the factors' kinds gives the
kinds the product may take, and the kind tables fix each one's index and
exponent, since the product runs source(b) -> target(a) and has degree
|a| + |b| (its H-image one less).  mu returns one of
  ("E", sym)             a chain element representing the named Ext class
  ("B", hsym)            a null-homotopic element whose H-image is hsym
  ("N", name, (a, b))    a terminating non-cycle (H and p both kill it)
  ZERO (None)

Outside it, and outside the matrix realization of the grammar
(`complexes.realize_ext_symbol`, and the tests' `realize_h_symbol`), an
Ext basis symbol is its canonical string: "u1^2", "(12)", "1_P1",
"b.u1^0".  SYMBOLS maps each such string to its grammar tuple, source,
target and degree, the one place those facts are read; `kappa_str`
gives a string's 1 <-> 2 image, kept from its first lookup; `hom_names`
lists hom bases and `classes` the Ext classes of one degree by string,
and `pair_images` evaluates products of named factors.
H symbols have no string spelling: they stay grammar tuples, opaque to
the transfer layer that carries each one as a slice value.
"""

ZERO = None

OBJECTS = ("S1", "S2", "P1", "P2")


def other(i):
    return 3 - i


# ---------------------------------------------------------------------------
# Ext symbols

def _ext_kinds(i, o, gen):
    """The Ext kinds at index i, o = 3 - i, whose odd generator is gen:
    kind -> (source, target, degree shift, spelling head).  A kind with a
    shift carries an exponent n, spelled after its head, and has degree
    2n + shift; a kind without one has degree 0 and is spelled by its
    head."""
    return {"j": (f"S{o}", f"P{i}", None, f"j{i}"),
            "p": (f"P{i}", f"S{i}", None, f"p{i}"),
            "E": (f"P{o}", f"P{i}", None, f"({o}{i})"),
            "u": (f"S{i}", f"S{i}", 0, f"u{i}^"),
            "g": (f"S{o}", f"S{i}", 1, f"{gen}.u{o}^")}


# (kind, index) -> (source, target, degree shift, spelling head): the
# identities, indexed by their object, then the kinds of _ext_kinds
EXT_KINDS = {("1", x): (x, x, None, f"1_{x}") for x in OBJECTS}
EXT_KINDS.update(((k, i), row) for i, gen in ((1, "a"), (2, "b"))
                 for k, row in _ext_kinds(i, other(i), gen).items())


def _ext_lookups():
    """spelling head -> (kind, index, degree shift, lowest exponent), and
    (source, target) -> those entries for the kinds source -> target, in
    EXT_KINDS order.  A pair has at most one kind besides its identity,
    which comes first, so that order is degree order.  A loop kind with a
    shift starts at exponent 1, its exponent 0 being the identity."""
    spelled, hom = {}, {}
    for (k, i), (x, y, shift, head) in EXT_KINDS.items():
        spelled[head] = entry = (k, i, shift, int(x == y))
        hom.setdefault((x, y), []).append(entry)
    return spelled, hom


_SPELLED, _HOM = _ext_lookups()


def _ext_row(sym):
    try:
        return EXT_KINDS[sym[0], sym[1]]
    except (IndexError, KeyError, TypeError):
        raise ValueError(f"not an Ext symbol: {sym}") from None


def _ext_facts(e):
    """(kind, source, target, degree) of the Ext symbol e."""
    x, y, shift, _head = _ext_row(e)
    return e[0], x, y, 0 if shift is None else 2 * e[2] + shift


def ext_source(sym):
    return _ext_row(sym)[0]


def ext_target(sym):
    return _ext_row(sym)[1]


def ext_degree(sym):
    return _ext_facts(sym)[3]


def kappa_ext(sym):
    """Relabel 1 <-> 2: the same kind at the other index (an identity's
    index is its object)."""
    _ext_row(sym)    # ValueError on anything but an Ext symbol
    k, i = sym[0], sym[1]
    return (k, kappa_object(i) if k == "1" else other(i)) + sym[2:]


def kappa_object(obj):
    return {"S1": "S2", "S2": "S1", "P1": "P2", "P2": "P1"}[obj]


def ext_to_str(sym):
    _x, _y, shift, head = _ext_row(sym)
    return head if shift is None else f"{head}{sym[2]}"


def ext_from_str(s):
    """The grammar tuple s spells: a spelling head, then an exponent if
    the kind has a degree shift.  ValueError if s spells none; a string
    may parse without being the canonical spelling ("u1^02")."""
    head, hat, n = s.partition("^")
    try:
        k, i, shift, first = _SPELLED[head + hat]
    except KeyError:
        raise ValueError(f"cannot parse Ext symbol {s!r}") from None
    if shift is None:
        return (k, i)
    n = int(n)
    if n < first:
        raise ValueError(f"exponent below {first} in {s!r}")
    return (k, i, n)


# The arrow symbols: ("E", 2) is (12): P1 -> P2; ("E", 1) is (21): P2 -> P1.
E12 = ("E", 2)
E21 = ("E", 1)


def hom_basis(x, y, degree_max):
    """All Ext basis symbols x -> y of degree <= degree_max, degree order."""
    if degree_max < 0:
        return []
    out = []
    for k, i, shift, first in _HOM.get((x, y), ()):
        if shift is None:
            out.append((k, i))
        else:
            out += [(k, i, n) for n in range(first, (degree_max - shift) // 2 + 1)]
    return out


# ---------------------------------------------------------------------------
# H symbols

def _h_kinds(i, o):
    """The H kinds at index i, o = 3 - i: kind -> (source, target, lowest
    index n, slope, shift); h^(n) has degree slope * n + shift."""
    return {"ss": (f"S{i}", f"S{i}", 1, -2, 0),
            "sn": (f"S{o}", f"S{i}", 0, -2, -1),
            "sp": (f"P{i}", f"S{i}", 1, -2, 0),
            "pn_t": (f"P{o}", f"S{i}", 0, -2, -1),
            "ps": (f"S{i}", f"P{i}", 0, 2, 0),
            "pn_s": (f"S{i}", f"P{o}", 0, 2, 1)}


# (kind, index) -> (source, target, lowest index n, slope, shift)
H_KINDS = {(k, i): row for i in (1, 2) for k, row in _h_kinds(i, other(i)).items()}

# (kind, source, target) -> the index of the kind's symbols source -> target
_H_INDEX = {(k, x, y): i for (k, i), (x, y, *_deg) in H_KINDS.items()}


def _h_row(h):
    try:
        return H_KINDS[h[1], h[2]]
    except (IndexError, KeyError, TypeError):
        raise ValueError(f"not an H symbol: {h}") from None


def _h_facts(h):
    """(kind, source, target, degree) of the H symbol h."""
    x, y, _first, slope, shift = _h_row(h)
    return h[1], x, y, slope * h[3] + shift


def is_h(x):
    return isinstance(x, tuple) and x[0] == "h"


# ---------------------------------------------------------------------------
# mu: chain-level product of two factors (each an Ext symbol or an H symbol)

# (kind of a, kind of b) -> the outcomes of a o b, tried in order:
#   "E"        the Ext class source(b) -> target(a) of degree |a| + |b|;
#   an H kind  ("B", h) for h the kind's symbol source(b) -> target(a) of
#              degree |a| + |b| - 1;
#   "N:<name>" a terminating non-cycle, H- and p-invisible.
# The first outcome that exists is the product; a pair with no row, or
# with no outcome that exists, has product ZERO.
PRODUCTS = {
    # Ext o Ext: products that land back in the Ext basis ...
    ("j", "p"): ("E",), ("u", "u"): ("E",), ("g", "u"): ("E",),
    ("u", "g"): ("E",), ("g", "g"): ("E",),
    # ... and the null-homotopic ones, the initial homotopies
    ("p", "j"): ("sn",), ("j", "g"): ("ps",), ("p", "E"): ("pn_t",),
    ("j", "u"): ("pn_s",),
    # H o Ext: the inductive extensions, the terminating non-cycles, and
    # h(P_i, S_i)^0 o p_i = 1_{P_i}
    ("pn_t", "j"): ("ss",), ("pn_t", "E"): ("sp",),
    ("sp", "j"): ("sn",), ("sp", "E"): ("pn_t",),
    ("ss", "u"): ("N:h_ss.u",), ("ss", "g"): ("N:h_ss.ug",),
    ("sn", "u"): ("N:h_sn.u",), ("sn", "g"): ("N:h_sn.ug",),
    ("ps", "p"): ("E",),
    # Ext o H: class reads, and the arrow after h(P_i, S_i)^n or
    # h(P_{i+1}, S_i)^n, a class at n = 0 for the first
    ("u", "sn"): ("E",), ("g", "sn"): ("E",), ("u", "ss"): ("E",),
    ("g", "ss"): ("E",), ("u", "sp"): ("E",), ("g", "pn_t"): ("E",),
    ("p", "ps"): ("E",), ("p", "pn_s"): ("E",),
    ("E", "ps"): ("E", "pn_s"), ("E", "pn_s"): ("ps",),
    # H o H: an identity (a Kronecker delta), a terminating non-cycle or
    # zero, never an H kind.  So h_apply of such a product is zero,
    # H(mu(H x, H y)) = 0, the side condition under which a point query
    # sums only the end cuts of a slice (`transfer`).
    ("pn_s", "pn_t"): ("E",), ("ps", "sp"): ("E",),
    ("pn_t", "pn_s"): ("N:h_spn.h_pns",), ("sp", "ps"): ("N:h_sps.h_pss",),
    ("sp", "pn_s"): ("N:h_sps.h_pns",), ("pn_t", "ps"): ("N:h_spn.h_pss",),
}


def _exponent(deg, slope, shift, first):
    """The n >= first with slope * n + shift = deg, or None."""
    n, r = divmod(deg - shift, slope)
    return n if r == 0 and n >= first else None


def _ext_class(x, y, deg):
    """The Ext class x -> y of degree deg, or None.  A pair has at most
    one kind besides its identity, and a loop kind starts at exponent 1,
    so degree 0 is the identity's alone: u^0 is 1."""
    for k, i, shift, first in _HOM.get((x, y), ()):
        if shift is None:
            if deg == 0:
                return (k, i)
        else:
            n = _exponent(deg, 2, shift, first)
            if n is not None:
                return (k, i, n)
    return None


def _h_class(kind, x, y, deg):
    """The H symbol of the given kind x -> y of degree deg, or None."""
    i = _H_INDEX.get((kind, x, y))
    if i is None:
        return None
    _x, _y, first, slope, shift = H_KINDS[kind, i]
    n = _exponent(deg, slope, shift, first)
    return None if n is None else ("h", kind, i, n)


def mu(a, b):
    """Chain-level product a o b (b first): the first outcome of the
    PRODUCTS row of the factors' kinds that exists, else ZERO.

    Inputs are Ext symbols or H symbols other than identities (the unit
    laws are applied before any product is looked up); the result is an
    ("E", sym), ("B", hsym), ("N", name, (a, b)) tag or ZERO as described
    in the module docstring.  Raises on a non-composable pair and on an
    identity factor.
    """
    ka, xa, ya, da = _h_facts(a) if is_h(a) else _ext_facts(a)
    kb, xb, yb, db = _h_facts(b) if is_h(b) else _ext_facts(b)
    if xa != yb:
        raise ValueError(f"non-composable pair {a} after {b}")
    if ka == "1" or kb == "1":
        raise ValueError(f"identity factor in {a} after {b}")
    for out in PRODUCTS.get((ka, kb), ()):
        if out == "E":
            e = _ext_class(xb, ya, da + db)
            if e is not None:
                return ("E", e)
        elif out.startswith("N:"):
            return ("N", out[2:], (a, b))
        else:
            h = _h_class(out, xb, ya, da + db - 1)
            if h is not None:
                return ("B", h)
    return ZERO


def h_apply(x):
    """The contracting homotopy on a mu-result: tables of initial and
    higher homotopies; zero on chain elements representing cycles, on
    terminating non-cycles, and on ZERO."""
    if x is ZERO:
        return ZERO
    tag = x[0]
    if tag == "B":
        return x[1]
    if tag in ("E", "N"):
        return ZERO
    raise ValueError(f"h_apply expects a mu result, got {x!r}")


def p_apply(x):
    """Class projection of a mu-result: the Ext symbol for ("E", s), else 0."""
    if x is ZERO:
        return ZERO
    tag = x[0]
    if tag == "E":
        return x[1]
    if tag in ("B", "N"):
        return ZERO
    raise ValueError(f"p_apply expects a mu result, got {x!r}")


# ---------------------------------------------------------------------------
# canonical strings: the spelling of a basis symbol outside this module

class _SymbolTable(dict):
    """canonical string -> (grammar tuple, source, target, degree) of the
    Ext basis symbol it names, of any degree.  An entry is made on the
    first lookup of its string, so nothing is enumerated at import; a
    lookup of anything else (a string that is not the canonical spelling,
    an exponent below its kind's lowest, an object outside OBJECTS, or no
    string at all) raises KeyError and stores nothing."""

    def __missing__(self, s):
        try:
            e = ext_from_str(s)
        except (AttributeError, TypeError, ValueError):
            raise KeyError(s) from None
        if ext_to_str(e) != s:
            raise KeyError(s)
        rec = self[s] = (e, ext_source(e), ext_target(e), ext_degree(e))
        return rec


SYMBOLS = _SymbolTable()

# canonical string -> the canonical string of its 1 <-> 2 relabeling,
# filled by kappa_str
_KAPPA = {}


class SymbolRecords(dict):
    """symbol -> (source, target, degree) for a symbol-reading user of
    the grammar: the symbolic backend, or a category on Pi's symbols.

    Entries are read off SYMBOLS on first use, so a symbol of any degree
    is there and a hit is a plain dict read; a string that names no
    symbol, or a symbol between objects rename leaves out, is not a key.
    rename maps Pi's objects to the user's (Pi' joins P1 and P2 into P);
    by default it keeps all four.
    """

    def __init__(self, rename=None):
        super().__init__()
        self.rename = rename or {o: o for o in OBJECTS}

    def __missing__(self, s):
        _e, x, y, deg = SYMBOLS[s]
        if x not in self.rename or y not in self.rename:
            raise KeyError(s)
        out = self[s] = (self.rename[x], self.rename[y], deg)
        return out

    def __contains__(self, s):
        try:
            self[s]
        except KeyError:
            return False
        return True


def hom_names(x, y, degree_max):
    """hom_basis(x, y, degree_max) by canonical string."""
    return [ext_to_str(s) for s in hom_basis(x, y, degree_max)]


def classes(x, y, deg):
    """The Ext classes x -> y of degree deg, by canonical string: at most
    one, none below degree 0."""
    e = _ext_class(x, y, deg)
    return [] if e is None else [ext_to_str(e)]


def kappa_str(s):
    """The 1 <-> 2 relabeling of the symbol named s.  An image is computed
    on the first lookup of its string and kept in _KAPPA; a string that
    names no symbol raises KeyError and stores nothing."""
    out = _KAPPA.get(s)
    if out is None:
        out = _KAPPA[s] = ext_to_str(kappa_ext(SYMBOLS[s][0]))
    return out


def pair_images(a, b):
    """(H image, class name) of m = mu(a, b), with one mu for both: the
    H symbol h_apply(m) and the canonical string of p_apply(m), each None
    when zero.  A factor is an Ext symbol by canonical string or an H
    symbol."""
    m = mu(a if is_h(a) else SYMBOLS[a][0], b if is_h(b) else SYMBOLS[b][0])
    if m is ZERO:
        return None, None
    cls = p_apply(m)
    return h_apply(m), None if cls is ZERO else ext_to_str(cls)
