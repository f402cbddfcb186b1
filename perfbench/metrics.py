"""The benchmark's metrics: names, units, directions, and for each
per-layer metric the end-to-end metric and workload it should move.

BENCHMARK.json repeats names, units and directions; the smoke run checks
that the two agree.
"""

# name, unit, better, bound (share of the parent's median)
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("table_s", "s", "lower", 0.25),
    ("verify_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("tuples_per_s", "1/s", "higher", 0.25),
]

_SYM = "pia2.symbols:"
_TR = "pia2.transfer:"
_AI = "pia2.ainf:"
_FU = "pia2.functors:"
_CX = "pia2.complexes:"
_LA = "pia2.linalg:"

_SCAN = "table_s, tuples_per_s on scan-symbolic; none on scan-matrix"
_VERIFY = "verify_s on verify-symbolic; none on scan-symbolic"
_MATRIX = "table_s, verify_s on scan-matrix"
_KERNEL = "table_s on scan-matrix (generic-homotopy and Q tables)"

# name, unit, better, wrapped names it needs, what it should move
PER_LAYER = [
    ("symbols.mu_calls", "count", "lower", [_SYM + "mu"], _SCAN),
    ("symbols.h_apply_calls", "count", "lower", [_SYM + "h_apply"], _SCAN),
    ("symbols.p_apply_calls", "count", "lower", [_SYM + "p_apply"], _SCAN),
    ("symbols.ext_from_str_calls", "count", "lower", [_SYM + "ext_from_str"],
     _VERIFY),
    ("symbols.busy_s", "s", "lower", [_SYM + "mu", _SYM + "h_apply",
                                      _SYM + "p_apply"], _SCAN),
    ("transfer.transfer_calls", "count", "lower",
     [_TR + "TransferEvaluator.transfer"], "table_s on scan-symbolic"),
    ("transfer.mu_h_calls", "count", "lower",
     [_TR + "SymbolicBackend.mu_h", _TR + "MatrixBackend.mu_h"],
     "table_s on scan-symbolic and scan-matrix"),
    ("transfer.mu_p_calls", "count", "lower",
     [_TR + "SymbolicBackend.mu_p", _TR + "MatrixBackend.mu_p"],
     "table_s on scan-symbolic and scan-matrix"),
    ("transfer.yield", "ratio", "higher", [_TR + "TransferEvaluator.transfer"],
     "table_s on scan-symbolic"),
    ("transfer.off_scan_share", "ratio", "lower",
     [_TR + "TransferEvaluator.transfer", _TR + "compute_operation_table"],
     "verify_s on verify-symbolic"),
    ("transfer.slices_memoized", "count", "lower", [], "peak_rss_mb on scan-symbolic"),
    ("transfer.slices_nonzero", "count", "lower", [], "peak_rss_mb on scan-symbolic"),
    ("transfer.self_s", "s", "lower", [_TR + "compute_operation_table"],
     "table_s on scan-symbolic"),
    ("table.entries", "count", "higher", [], "none (fixed by the bounds)"),
    ("table.dumps_s", "s", "lower", ["pia2.table:OperationTable.dumps"],
     "table_s on scan-symbolic"),
    ("ainf.stasheff_tuples", "count", "higher", [], _VERIFY),
    ("ainf.m_calls", "count", "lower", [_AI + "AInfCategory.m"], _VERIFY),
    ("ainf.fallback_calls", "count", "lower", [_AI + "AInfCategory._m_fallback"],
     _VERIFY),
    ("ainf.self_s", "s", "lower", [_AI + "stasheff_check", _AI + "AInfCategory.m"],
     _VERIFY),
    ("functors.tuples_checked", "count", "higher", [_FU + "_support_tuples"],
     "verify_s on verify-symbolic (share below 1%: expect no move)"),
    ("functors.self_s", "s", "lower", [_FU + "verify_functor"],
     "verify_s on verify-symbolic (share below 1%: expect no move)"),
    ("complexes.compose_calls", "count", "lower", [_CX + "EndCategory.compose"],
     _MATRIX),
    ("complexes.compose_pairs", "count", "lower", [_CX + "EndCategory.compose"],
     _MATRIX),
    ("complexes.H_calls", "count", "lower",
     [_CX + "TabulatedContraction.H", _CX + "GenericContraction.H"], _MATRIX),
    ("complexes.project_calls", "count", "lower",
     [_CX + "TabulatedContraction.project", _CX + "GenericContraction.project"],
     _MATRIX),
    ("complexes.include_calls", "count", "lower",
     [_CX + "TabulatedContraction.include", _CX + "GenericContraction.include"],
     _MATRIX),
    ("complexes.busy_s", "s", "lower", [_CX + "EndCategory.compose"], _MATRIX),
    ("linalg.rref_calls", "count", "lower", [_LA + "rref"], _KERNEL),
    ("linalg.rref_nnz", "count", "lower", [_LA + "rref"], _KERNEL),
    ("linalg.solve_calls", "count", "lower", [_LA + "solve"], _KERNEL),
    ("linalg.busy_s", "s", "lower", [_LA + "rref", _LA + "solve"], _KERNEL),
    ("quiver.compose_calls", "count", "lower", ["pia2.quiver:ModuleMap.compose"],
     _KERNEL),
    ("cli.self_s", "s", "lower", ["pia2.cli:main"], "verify_s on scan-matrix"),
    ("trace.overhead_s", "s", "lower", [], "none (cost of tracing itself)"),
    ("trace.spans", "count", "lower", [], "none (spans recorded per run)"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
