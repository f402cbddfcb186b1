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
         ss   = h_{S_i S_i}^(n)      : Q_i -> Q_i,    degree -2n   (n >= 1)
         sn   = h_{S_i S_{i+1}}^(n)  : Q_{i+1}->Q_i,  degree -2n-1
         sp   = h_{S_i P_i}^(n)      : P_i -> Q_i,    degree -2n   (n >= 1)
         pn_t = h_{S_i P_{i+1}}^(n)  : P_{i+1}->Q_i,  degree -2n-1
         ps   = h_{P_i S_i}^(n)      : Q_i -> P_i,    degree 2n
         pn_s = h_{P_{i+1} S_i}^(n)  : Q_i -> P_{i+1}, degree 2n+1

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

def ext_identity(obj):
    return ("1", obj)


def ext_u(i, n):
    """u_i^n; n = 0 collapses to the identity of S_i."""
    return ("1", f"S{i}") if n == 0 else ("u", i, n)


def ext_g(i, n):
    """The odd classes: ext_g(1, n) = a.u2^n, ext_g(2, n) = b.u1^n."""
    return ("g", i, n)


def ext_source(sym):
    k = sym[0]
    if k == "1":
        return sym[1]
    if k == "j":
        return f"S{other(sym[1])}"
    if k == "p":
        return f"P{sym[1]}"
    if k == "E":
        return f"P{other(sym[1])}"
    if k == "u":
        return f"S{sym[1]}"
    if k == "g":
        return f"S{other(sym[1])}"
    raise ValueError(f"not an Ext symbol: {sym}")


def ext_target(sym):
    k = sym[0]
    if k == "1":
        return sym[1]
    if k == "j":
        return f"P{sym[1]}"
    if k == "p":
        return f"S{sym[1]}"
    if k == "E":
        return f"P{sym[1]}"
    if k == "u":
        return f"S{sym[1]}"
    if k == "g":
        return f"S{sym[1]}"
    raise ValueError(f"not an Ext symbol: {sym}")


def ext_degree(sym):
    k = sym[0]
    if k in ("1", "j", "p", "E"):
        return 0
    if k == "u":
        return 2 * sym[2]
    if k == "g":
        return 2 * sym[2] + 1
    raise ValueError(f"not an Ext symbol: {sym}")


def is_identity(sym):
    return sym[0] == "1"


def kappa_ext(sym):
    """Relabel 1 <-> 2."""
    k = sym[0]
    if k == "1":
        return ("1", kappa_object(sym[1]))
    if k in ("j", "p", "E"):
        return (k, other(sym[1]))
    return (k, other(sym[1]), sym[2])


def kappa_object(obj):
    return {"S1": "S2", "S2": "S1", "P1": "P2", "P2": "P1"}[obj]


def ext_to_str(sym):
    k = sym[0]
    if k == "1":
        return f"1_{sym[1]}"
    if k == "j":
        return f"j{sym[1]}"
    if k == "p":
        return f"p{sym[1]}"
    if k == "E":
        return "(12)" if sym[1] == 2 else "(21)"
    if k == "u":
        return f"u{sym[1]}^{sym[2]}"
    if k == "g":
        return f"a.u2^{sym[2]}" if sym[1] == 1 else f"b.u1^{sym[2]}"
    raise ValueError(f"not an Ext symbol: {sym}")


def ext_from_str(s):
    if s.startswith("1_"):
        return ("1", s[2:])
    if s in ("(12)", "(21)"):
        return ("E", 2 if s == "(12)" else 1)
    if s.startswith("j"):
        return ("j", int(s[1:]))
    if s.startswith("p") and s[1:].isdigit():
        return ("p", int(s[1:]))
    if s.startswith("u"):
        i, n = s[1:].split("^")
        return ext_u(int(i), int(n))
    if s.startswith("a.u2^"):
        return ("g", 1, int(s[5:]))
    if s.startswith("b.u1^"):
        return ("g", 2, int(s[5:]))
    raise ValueError(f"cannot parse Ext symbol {s!r}")


# The arrow symbols: ("E", 2) is (12): P1 -> P2; ("E", 1) is (21): P2 -> P1.
E12 = ("E", 2)
E21 = ("E", 1)


def hom_basis(x, y, degree_max):
    """All Ext basis symbols x -> y of degree <= degree_max, degree order."""
    if degree_max < 0:
        return []
    out = []
    if x == y:
        out.append(ext_identity(x))
    if x.startswith("S") and y.startswith("S"):
        i, j = int(x[1]), int(y[1])
        if i == j:
            out += [("u", i, n) for n in range(1, degree_max // 2 + 1)]
        else:
            # maps S_i -> S_j with j = other(i): the class ("g", j, n)
            out += [("g", j, n) for n in range((degree_max - 1) // 2 + 1)]
    elif x == "S1" and y == "P2":
        out.append(("j", 2))
    elif x == "S2" and y == "P1":
        out.append(("j", 1))
    elif x == "P1" and y == "S1":
        out.append(("p", 1))
    elif x == "P2" and y == "S2":
        out.append(("p", 2))
    elif x == "P1" and y == "P2":
        out.append(E12)
    elif x == "P2" and y == "P1":
        out.append(E21)
    return sorted(out, key=ext_degree)


# ---------------------------------------------------------------------------
# H symbols

def h_sym(kind, i, n):
    if kind in ("ss", "sp") and n < 1:
        raise ValueError(f"h kind {kind} needs n >= 1")
    if n < 0:
        raise ValueError("negative homotopy index")
    return ("h", kind, i, n)


def h_source(h):
    _, kind, i, _n = h
    if kind in ("ss", "ps"):
        return f"S{i}"
    if kind == "sn":
        return f"S{other(i)}"
    if kind == "sp":
        return f"P{i}"
    if kind == "pn_t":
        return f"P{other(i)}"
    if kind == "pn_s":
        return f"S{i}"
    raise ValueError(h)


def h_target(h):
    _, kind, i, _n = h
    if kind in ("ss", "sn", "sp", "pn_t"):
        return f"S{i}"
    if kind == "ps":
        return f"P{i}"
    if kind == "pn_s":
        return f"P{other(i)}"
    raise ValueError(h)


def is_h(x):
    return isinstance(x, tuple) and x[0] == "h"


def is_ext(x):
    return isinstance(x, tuple) and x[0] in ("1", "j", "p", "E", "u", "g")


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
    a negative exponent, an object outside OBJECTS, or no string at all)
    raises KeyError and stores nothing."""

    def __missing__(self, s):
        try:
            e = ext_from_str(s)
        except (AttributeError, ValueError):
            raise KeyError(s) from None
        rec = (e, ext_source(e), ext_target(e), ext_degree(e))
        if (ext_to_str(e) != s or rec[3] < 0
                or rec[1] not in OBJECTS or rec[2] not in OBJECTS):
            raise KeyError(s)
        self[s] = rec
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
