"""The benchmark wraps program names from outside; a renamed or deleted
one would leave its metrics null.  Every name it wraps must resolve."""

import importlib.util
from pathlib import Path

from pia2.functors import pi_category
from pia2.transfer import (SymbolicBackend, TransferEvaluator,
                           compute_operation_table)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    """Load a perfbench module from its file, under a private name."""
    spec = importlib.util.spec_from_file_location(
        "_perfbench_" + name, PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_wrapped_name_resolves():
    layers, metrics = _load("layers"), _load("metrics")
    targets = [t.path for t in layers.TARGETS]
    needed = {p for row in metrics.PER_LAYER for p in row[3]}
    assert len(targets) == 31 and len(needed) == 27
    for path in sorted(set(targets) | needed):
        assert layers._resolve(path)[2] is not None, path


def test_pi_category_has_the_fallback_hook():
    sb = SymbolicBackend()
    ev = TransferEvaluator(sb)
    pi = pi_category(compute_operation_table(3, 2, sb, evaluator=ev), ev)
    assert callable(pi._m_fallback)
