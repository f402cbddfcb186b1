"""Per-layer tracing installed from outside the program.

Coarse calls (table builds, checks, `dumps`, `cli.main`) get spans: name,
layer, start, end, parent span and run id, kept in memory and handed back
when the run ends.  Calls made thousands of times (`symbols.mu`, the
backends' `mu_h`/`mu_p`, `EndCategory.compose`, `rref`, ...) get a counter
and a timed frame but no span record.  Calls made per tuple or per
lookup, up to millions of times (`TransferEvaluator.transfer`,
`AInfCategory.m`, `symbols.ext_from_str`), get a plain counter only, and
their time stays with the caller's layer; that keeps the overhead
bounded.  A layer's self time is the time inside its spans and frames
minus the time covered by nested spans and frames of any layer.

Wrappers go where the callers look the names up: a module-level function
is replaced in every loaded `pia2` module that holds the same object (so
`rref`, imported by name into `pia2.complexes` and `pia2.quiver`, is
caught there too, and `solve`, imported inside functions, is caught in
`pia2.linalg`), a method on the class that defines it.  A name that no
longer exists is skipped; every metric that needs it is then reported as
absent (null) instead of failing the run.
"""

import functools
import importlib
import sys
import time
from collections import Counter

perf = time.perf_counter


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.on = False
        self.t0 = perf()
        self.counts = Counter()
        self.self_s = Counter()      # layer -> exclusive seconds
        self.span_s = Counter()      # span name -> inclusive seconds
        self.spans = []              # [name, layer, start, end, parent]
        self.frames = []             # [seconds covered by nested frames]
        self.span_stack = []
        self.missing = set()

    def current_span(self):
        return self.spans[self.span_stack[-1]][0] if self.span_stack else None

    def enter(self, name, layer, span):
        frame = [0.0, None, perf()]
        if span:
            parent = self.span_stack[-1] if self.span_stack else None
            frame[1] = len(self.spans)
            self.spans.append([name, layer, frame[2] - self.t0, None, parent])
            self.span_stack.append(frame[1])
        self.frames.append(frame)
        return frame

    def leave(self, frame, layer):
        end = perf()
        dur = end - frame[2]
        self.frames.pop()
        self.self_s[layer] += dur - frame[0]
        if self.frames:
            self.frames[-1][0] += dur
        if frame[1] is not None:
            rec = self.spans[frame[1]]
            rec[3] = end - self.t0
            self.span_s[rec[0]] += dur
            self.span_stack.pop()

    def span(self, name, layer):
        """Context manager for a span opened by the benchmark itself."""
        return _SpanCtx(self, name, layer)

    def span_records(self):
        return [{"name": n, "layer": l, "start": s, "end": e, "parent": p,
                 "run": self.run_id} for n, l, s, e, p in self.spans]

    # -- installation -----------------------------------------------------
    def install(self, targets):
        for t in targets:
            owner, attr, original = _resolve(t.path)
            if original is None:
                self.missing.add(t.path)
                continue
            wrapper = _make_wrapper(self, original, t)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
            else:
                for mod in list(sys.modules.values()):
                    name = getattr(mod, "__name__", "")
                    if name != "pia2" and not name.startswith("pia2."):
                        continue
                    for k, v in list(vars(mod).items()):
                        if v is original:
                            setattr(mod, k, wrapper)


class _SpanCtx:
    def __init__(self, tracer, name, layer):
        self.tracer, self.name, self.layer = tracer, name, layer

    def __enter__(self):
        self.frame = self.tracer.enter(self.name, self.layer, True)

    def __exit__(self, *exc):
        self.tracer.leave(self.frame, self.layer)
        return False


class Target:
    """One wrapped name.  `path` is "module:Qual.name"; `counter` counts
    calls; `extra(tracer, args, result)` adds to further counters;
    `after(tracer, result)` runs on the result (used to wrap an instance
    hook).  `timed=False` is a plain counter for per-tuple and per-lookup
    calls: no frame, so its time stays with the caller's layer."""

    def __init__(self, path, layer, counter=None, span=False, extra=None,
                 after=None, timed=True):
        self.path, self.layer, self.counter = path, layer, counter
        self.span, self.extra, self.after, self.timed = span, extra, after, timed


def _resolve(path):
    modname, qual = path.split(":")
    try:
        obj = importlib.import_module(modname)
    except ImportError:
        return None, None, None
    parts = qual.split(".")
    for p in parts[:-1]:
        obj = getattr(obj, p, None)
        if obj is None:
            return None, None, None
    if isinstance(obj, type):
        original = obj.__dict__.get(parts[-1])
    else:
        original = getattr(obj, parts[-1], None)
    return (obj, parts[-1], original) if callable(original) else (None, None, None)


def _make_wrapper(tr, fn, t):
    layer, counter, extra, after = t.layer, t.counter, t.extra, t.after
    name = t.path.split(":")[1]
    counts = tr.counts

    if not t.timed:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tr.on:
                if counter:
                    counts[counter] += 1
                if extra:
                    extra(tr, args, result)
            return result
        return counted

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tr.on:
            return fn(*args, **kwargs)
        frame = tr.enter(name, layer, t.span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tr.leave(frame, layer)
        if counter:
            counts[counter] += 1
        if extra:
            extra(tr, args, result)
        if after:
            after(tr, result)
        return result
    return wrapper


# ---------------------------------------------------------------------------
# what is wrapped

def _transfer_extra(tr, args, result):
    if result:
        tr.counts["transfer.nonzero_results"] += 1
    if tr.current_span() != "compute_operation_table":
        tr.counts["transfer.off_scan_calls"] += 1


def _compose_pairs(tr, args, result):
    g, f = args[1], args[2]
    tr.counts["complexes.compose_pairs"] += \
        len(getattr(g, "coeffs", ())) * len(getattr(f, "coeffs", ()))


def _rref_nnz(tr, args, result):
    tr.counts["linalg.rref_nnz"] += len(getattr(args[0], "entries", ()))


def _support_size(tr, args, result):
    tr.counts["functors.tuples_checked"] += len(result)


def _watch_fallback(tr, cat):
    """pi_category hands its operations outside the table bounds to a
    transfer fallback stored on the category; count its calls."""
    hook = getattr(cat, "_m_fallback", None)
    if hook is None:
        tr.missing.add("pia2.ainf:AInfCategory._m_fallback")
        return
    # each call is one point query into the transfer engine
    cat._m_fallback = _make_wrapper(
        tr, hook, Target("pia2.ainf:AInfCategory._m_fallback", "transfer",
                         counter="ainf.fallback_calls"))


TARGETS = [
    Target("pia2.symbols:mu", "symbols", "symbols.mu_calls"),
    Target("pia2.symbols:h_apply", "symbols", "symbols.h_apply_calls"),
    Target("pia2.symbols:p_apply", "symbols", "symbols.p_apply_calls"),
    Target("pia2.symbols:ext_from_str", "symbols", "symbols.ext_from_str_calls",
           timed=False),
    Target("pia2.transfer:compute_operation_table", "transfer", span=True),
    Target("pia2.transfer:TransferEvaluator.transfer", "transfer",
           "transfer.transfer_calls", extra=_transfer_extra, timed=False),
    Target("pia2.transfer:SymbolicBackend.mu_h", "transfer", "transfer.mu_h_calls"),
    Target("pia2.transfer:SymbolicBackend.mu_p", "transfer", "transfer.mu_p_calls"),
    Target("pia2.transfer:MatrixBackend.mu_h", "transfer", "transfer.mu_h_calls"),
    Target("pia2.transfer:MatrixBackend.mu_p", "transfer", "transfer.mu_p_calls"),
    Target("pia2.table:OperationTable.dumps", "table", span=True),
    Target("pia2.ainf:stasheff_check", "ainf", span=True),
    Target("pia2.ainf:unitality_check", "ainf", span=True),
    Target("pia2.ainf:kappa_symmetry_check", "ainf", span=True),
    Target("pia2.ainf:classification_check", "ainf", span=True),
    Target("pia2.ainf:AInfCategory.m", "ainf", "ainf.m_calls", timed=False),
    Target("pia2.functors:pi_category", "functors", span=True,
           after=_watch_fallback),
    Target("pia2.functors:builtin_functors", "functors", span=True),
    Target("pia2.functors:verify_functor", "functors", span=True),
    Target("pia2.functors:_support_tuples", "functors", extra=_support_size),
    Target("pia2.complexes:EndCategory.compose", "complexes",
           "complexes.compose_calls", extra=_compose_pairs),
    Target("pia2.complexes:TabulatedContraction.H", "complexes", "complexes.H_calls"),
    Target("pia2.complexes:TabulatedContraction.project", "complexes",
           "complexes.project_calls"),
    Target("pia2.complexes:TabulatedContraction.include", "complexes",
           "complexes.include_calls"),
    Target("pia2.complexes:GenericContraction.H", "complexes", "complexes.H_calls"),
    Target("pia2.complexes:GenericContraction.project", "complexes",
           "complexes.project_calls"),
    Target("pia2.complexes:GenericContraction.include", "complexes",
           "complexes.include_calls"),
    Target("pia2.linalg:rref", "linalg", "linalg.rref_calls", extra=_rref_nnz),
    Target("pia2.linalg:solve", "linalg", "linalg.solve_calls"),
    Target("pia2.quiver:ModuleMap.compose", "quiver", "quiver.compose_calls"),
    Target("pia2.cli:main", "cli", span=True),
]
