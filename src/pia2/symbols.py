"""Symbol grammar for the Ext-algebra of the A2 preprojective algebra.

ExtSymbols name the homology basis: identities, j_i, p_i, (12), (21),
u_i^n (degree 2n), a.u2^n = alpha*u2^n and b.u1^n = beta*u1^n (degree
2n+1).  HSymbols name the partial-shift homotopies h^(n) between pairs of
resolutions.  ``mu`` multiplies two such elements at the chain level and
``h_apply`` applies the contracting homotopy to a product; both are total
lookup tables with default ZERO, matching the finite case analysis that
drives the tree-sum evaluation.

Inside this module symbols are grammar tuples:
  Ext:   ("1", X) | ("j", i) | ("p", i) | ("E", i) | ("u", i, n)
         | ("g", i, n)            # g = the odd generators: ("g",1,n) is
                                  # a.u2^n : S2 -> S1, ("g",2,n) is b.u1^n
  H:     ("h", kind, i, n) with kind in {"ss","sn","sp","pn_t","ps","pn_s"}

The kind tables EXT_KINDS and H_KINDS are the one place that states a
kind's facts: an Ext kind's source, target, degree and spelling, an H
kind's source, target and lowest index n.  Every fact function reads
them.  What no code reads is the H kinds' names in the paper's notation
(h_{target source}) and their degrees, which H lowers by one from the
product it is the image of:
  ss   = h_{S_i S_i}^(n)       degree -2n
  sn   = h_{S_i S_{i+1}}^(n)   degree -2n-1
  sp   = h_{S_i P_i}^(n)       degree -2n
  pn_t = h_{S_i P_{i+1}}^(n)   degree -2n-1
  ps   = h_{P_i S_i}^(n)       degree 2n
  pn_s = h_{P_{i+1} S_i}^(n)   degree 2n+1

mu returns one of
  ("E", sym)          a chain element representing the named Ext class
  ("B", hsym)         a null-homotopic element whose H-image is hsym
  ("N", name, params) a terminating non-cycle (H and p both kill it)
  ZERO (None)

Outside it, and outside the matrix realization of the grammar
(`complexes.realize_ext_symbol`, and the tests' `realize_h_symbol`), an
Ext basis symbol is its canonical string: "u1^2", "(12)", "1_P1",
"b.u1^0".  SYMBOLS maps each such string to its grammar tuple, source,
target and degree, the one place those facts are read; `hom_names` lists
hom bases and `classes` the Ext classes of one degree by string, and
`pair_images` evaluates products of named factors.
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


def ext_identity(obj):
    return ("1", obj)


def ext_u(i, n):
    """u_i^n; n = 0 collapses to the identity of S_i."""
    return ("1", f"S{i}") if n == 0 else ("u", i, n)


def ext_g(i, n):
    """The odd classes: ext_g(1, n) = a.u2^n, ext_g(2, n) = b.u1^n."""
    return ("g", i, n)


def ext_source(sym):
    return _ext_row(sym)[0]


def ext_target(sym):
    return _ext_row(sym)[1]


def ext_degree(sym):
    shift = _ext_row(sym)[2]
    return 0 if shift is None else 2 * sym[2] + shift


def is_identity(sym):
    return sym[0] == "1"


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
    index n)."""
    return {"ss": (f"S{i}", f"S{i}", 1),
            "sn": (f"S{o}", f"S{i}", 0),
            "sp": (f"P{i}", f"S{i}", 1),
            "pn_t": (f"P{o}", f"S{i}", 0),
            "ps": (f"S{i}", f"P{i}", 0),
            "pn_s": (f"S{i}", f"P{o}", 0)}


# (kind, index) -> (source, target, lowest index n)
H_KINDS = {(k, i): row for i in (1, 2) for k, row in _h_kinds(i, other(i)).items()}


def _h_row(h):
    try:
        return H_KINDS[h[1], h[2]]
    except (IndexError, KeyError, TypeError):
        raise ValueError(f"not an H symbol: {h}") from None


def h_sym(kind, i, n):
    h = ("h", kind, i, n)
    first = _h_row(h)[2]
    if n < first:
        raise ValueError(f"h kind {kind} needs n >= {first}")
    return h


def h_source(h):
    return _h_row(h)[0]


def h_target(h):
    return _h_row(h)[1]


def is_h(x):
    return isinstance(x, tuple) and x[0] == "h"


def is_ext(x):
    return isinstance(x, tuple) and x[:2] in EXT_KINDS


def elem_source(x):
    return h_source(x) if is_h(x) else ext_source(x)


def elem_target(x):
    return h_target(x) if is_h(x) else ext_target(x)


# ---------------------------------------------------------------------------
# mu: chain-level product of two factors (each an Ext symbol or an H symbol)

def _noncycle(name, *params):
    return ("N", name, params)


def mu(a, b):
    """Chain-level product a o b (b first).  Total with default ZERO.

    Inputs are Ext symbols or H symbols other than identities (the unit
    laws are applied before any product is looked up); the result is an
    ("E", sym), ("B", hsym), ("N", ...) tag or ZERO as described in the
    module docstring.  Raises on a non-composable pair and on an identity
    factor.
    """
    if elem_source(a) != elem_target(b):
        raise ValueError(f"non-composable pair {a} after {b}")
    if (is_ext(a) and is_identity(a)) or (is_ext(b) and is_identity(b)):
        raise ValueError(f"identity factor in {a} after {b}")
    ah, bh = is_h(a), is_h(b)
    if not ah and not bh:
        return _mu_ext_ext(a, b)
    if ah and not bh:
        return _mu_h_ext(a, b)
    if not ah and bh:
        return _mu_ext_h(a, b)
    return _mu_h_h(a, b)


def _mu_ext_ext(a, b):
    ka, kb = a[0], b[0]
    # products that land back in the Ext basis
    if ka == "j" and kb == "p":
        # j1 o p2 = (21), j2 o p1 = (12)
        return ("E", ("E", a[1])) if a[1] != b[1] else ZERO
    if ka == "u" and kb == "u":
        return ("E", ext_u(a[1], a[2] + b[2]))
    if ka == "g" and kb == "u":
        # (g_i u_i'^m) o u_i'^n with i' = other(i)
        return ("E", ext_g(a[1], a[2] + b[2]))
    if ka == "u" and kb == "g":
        return ("E", ext_g(b[1], a[2] + b[2]))
    if ka == "g" and kb == "g":
        # a.u2^m o b.u1^n = u1^{m+n+1} and the kappa-image
        return ("E", ext_u(a[1], a[2] + b[2] + 1))
    # null-homotopic products: the initial homotopies
    if ka == "p" and kb == "j":
        i = a[1]
        return ("B", h_sym("sn", i, 0))
    if ka == "j" and kb == "g":
        # j_i o (g-class into S_i): j1 o b.u1^n -> h(P1,S1)^n
        i = a[1]
        return ("B", h_sym("ps", i, b[2]))
    if ka == "p" and kb == "E":
        # p1 o (21) -> h(S1,P2)^0, p2 o (12) -> h(S2,P1)^0
        return ("B", h_sym("pn_t", a[1], 0))
    if ka == "j" and kb == "u":
        # j2 o u1^n -> h(P2,S1)^{n-1} (n >= 1: n = 0 is the unit case)
        return ("B", h_sym("pn_s", b[1], b[2] - 1))
    return ZERO


def _mu_h_ext(h, b):
    _, kind, i, n = h
    kb = b[0]
    if kind == "pn_t":
        # h(S_i, P_{i+1})^n composed after maps into P_{i+1}
        if kb == "j":
            return ("B", h_sym("ss", i, n + 1))
        if kb == "E":
            return ("B", h_sym("sp", i, n + 1))
    if kind == "sp":
        # h(S_i, P_i)^n, n >= 1
        if kb == "j":
            return ("B", h_sym("sn", i, n))
        if kb == "E":
            return ("B", h_sym("pn_t", i, n))
    if kind == "ss":
        if kb == "u":
            return _noncycle("h_ss.u", i, n, b[2])
        if kb == "g":
            return _noncycle("h_ss.ug", i, n, b[2])
        if kb == "p":
            return ZERO  # single component off the class degree
    if kind == "sn":
        if kb == "u":
            return _noncycle("h_sn.u", i, n, b[2])
        if kb == "g":
            return _noncycle("h_sn.ug", i, n, b[2])
        if kb == "p":
            return ZERO
    if kind == "ps":
        # h(P_i,S_i)^0 o p_i = 1_{P_i}; shifted variants vanish
        if kb == "p":
            return ("E", ext_identity(f"P{i}")) if n == 0 else ZERO
        return ZERO
    if kind == "pn_s":
        # single component never meets the one position of the target
        return ZERO
    return ZERO


def _mu_ext_h(a, h):
    _, kind, i, n = h
    ka = a[0]
    if kind == "sn":
        # h(S_i, S_{i+1})^n: compositions u_i^k o h etc.
        if ka == "u":
            # u_i^k o h(S_i,S_{i+1})^n lands in Hom(S_{i+1}, S_i)
            k = a[2]
            return ("E", ext_g(i, k - n - 1)) if k >= n + 1 else ZERO
        if ka == "g":
            # (u^k gamma)-type o h: b.u1^k o h(S1,S2)^n = u2^{k-n}
            k = a[2]
            return ("E", ext_u(other(i), k - n)) if k >= n else ZERO
        if ka == "j":
            return ZERO
    if kind == "ss":
        if ka == "u":
            k = a[2]
            return ("E", ext_u(i, k - n)) if k >= n else ZERO
        if ka == "g":
            # u2^k b o h(S1,S1)^n = u2^{k-n} b, i.e. b.u1^{k-n}
            k = a[2]
            return ("E", ext_g(a[1], k - n)) if k >= n else ZERO
        if ka == "j":
            return ZERO
    if kind == "sp":
        if ka == "u":
            return ("E", ("p", i)) if a[2] == n else ZERO
        if ka == "g":
            return ZERO
        if ka == "j":
            return ZERO
    if kind == "pn_t":
        # h(S_i, P_{i+1})^n: b.u1^m o h(S1,P2)^n = delta p2
        if ka == "g":
            return ("E", ("p", other(i))) if a[2] == n else ZERO
        if ka in ("u", "j"):
            return ZERO
    if kind == "ps":
        # h(P_i, S_i)^n
        if ka == "p":
            # partial terminating with a nonzero class read: u_i^n
            return ("E", ext_u(i, n))
        if ka == "E":
            return ("E", ("j", other(i))) if n == 0 else ("B", h_sym("pn_s", i, n - 1))
    if kind == "pn_s":
        # h(P_{i+1}, S_i)^n
        if ka == "p":
            # partial terminating, class read b.u1^n / a.u2^n
            return ("E", ext_g(other(i), n))
        if ka == "E":
            return ("B", h_sym("ps", i, n))
    return ZERO


def _mu_h_h(a, b):
    """A product of two H symbols: an `E` tag (an identity), an `N` tag
    (a terminating non-cycle) or ZERO, never a `B` tag.  So `h_apply`
    of it is zero, H(mu(H x, H y)) = 0, the side condition under which a
    point query sums only the end cuts of a slice (`transfer`)."""
    _, ka, ia, na = a
    _, kb, ib, nb = b
    # Kronecker-delta identity pairs
    if ka == "pn_s" and kb == "pn_t" and ia == ib:
        # h(P2,S1)^m o h(S1,P2)^n = delta 1_{P2}
        return ("E", ext_identity(f"P{other(ia)}")) if na == nb else ZERO
    if ka == "ps" and kb == "sp" and ia == ib:
        return ("E", ext_identity(f"P{ia}")) if na == nb else ZERO
    # terminating pairs (single middle component off the class degree)
    if ka == "pn_t" and kb == "pn_s" and ia == ib:
        return _noncycle("h_spn.h_pns", ia, na, nb)
    if ka == "sp" and kb == "ps" and ia == ib:
        return _noncycle("h_sps.h_pss", ia, na, nb)
    if ka == "sp" and kb == "pn_s" and ia == other(ib):
        # h(S2,P2)^n o h(P2,S1)^k
        return _noncycle("h_sps.h_pns", ib, na, nb)
    if ka == "pn_t" and kb == "ps" and other(ia) == ib:
        # h(S1,P2)^n o h(P2,S2)^k
        return _noncycle("h_spn.h_pss", ia, na, nb)
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
    """The Ext classes x -> y of degree deg, by canonical string; none
    below degree 0."""
    return [ext_to_str(e) for e in hom_basis(x, y, deg) if ext_degree(e) == deg]


def kappa_str(s):
    """The 1 <-> 2 relabeling of the symbol named s."""
    return ext_to_str(kappa_ext(SYMBOLS[s][0]))


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
