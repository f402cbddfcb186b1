"""The literal tree sum, kept as the transfer's oracle.

Planar rooted binary trees with n leaves (Catalan(n-1) shapes), one
decorated tree evaluated on a backend, and m_n as the sum over every
shape.  `TransferEvaluator` distributes that sum over root splits; the
tests compare the two.
"""

from functools import lru_cache


LEAF = "*"


def leaves(shape):
    if shape == LEAF:
        return 1
    return leaves(shape[0]) + leaves(shape[1])


@lru_cache(maxsize=None)
def enumerate_trees(n):
    """All planar rooted binary shapes with n leaves, left size ascending."""
    if n < 2:
        raise ValueError("need at least 2 leaves")
    return tuple(_shapes(n))


@lru_cache(maxsize=None)
def _shapes(n):
    if n == 1:
        return (LEAF,)
    out = []
    for k in range(1, n):
        for left in _shapes(k):
            for right in _shapes(n - k):
                out.append((left, right))
    return tuple(out)


def catalan(n):
    """Catalan number C_n via the recurrence (the independent count)."""
    c = [0] * (n + 1)
    c[0] = 1
    for m in range(1, n + 1):
        c[m] = sum(c[k] * c[m - 1 - k] for k in range(m))
    return c[n]


def evaluate_tree(shape, inputs, backend):
    """Evaluate one decorated tree on (f_n, ..., f_1); returns the
    {output symbol: coeff} dict after the root projection.  Signs are
    the transfer's: (-1)^|L| at an internal split, (-1)^|R| at the root,
    for a slice X of l inputs of degree |X| = sum of input degrees -
    (l - 1)."""
    inputs = tuple(inputs)
    if leaves(shape) != len(inputs):
        raise ValueError("leaf count does not match input tuple")
    if len(inputs) < 2:
        raise ValueError("need at least two inputs")
    field = backend.field
    elems = [backend.leaf(s) for s in inputs]
    degs = [backend.symbols[s][2] for s in inputs]

    def eval_sub(node, off):
        if node == LEAF:
            return elems[off]
        left, right = node
        nl = leaves(left)
        el = eval_sub(left, off)
        er = eval_sub(right, off + nl)
        if el is None or er is None:
            return None
        out = backend.mu_h(el, er)
        if out is None:
            return None
        sign = field.sign(sum(degs[off:off + nl]) - (nl - 1))
        return out if sign == field.one else backend.scale(out, sign)

    left, right = shape
    nl = leaves(left)
    el = eval_sub(left, 0)
    er = eval_sub(right, nl)
    if el is None or er is None:
        return {}
    out = backend.mu_p(el, er)
    sign = field.sign(sum(degs[nl:]) - (len(degs) - nl - 1))
    if sign != field.one:
        out = {k: field.mul(sign, v) for k, v in out.items()}
    return out


def transfer_mn_by_trees(inputs, backend):
    """Reference evaluation shape by shape (the literal tree sum)."""
    field = backend.field
    total = {}
    for shape in enumerate_trees(len(inputs)):
        out = evaluate_tree(shape, inputs, backend)
        for k, v in out.items():
            field.accumulate(total, k, v)
    return total
