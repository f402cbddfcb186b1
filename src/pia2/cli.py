"""Batch command-line surface.

Commands:
  minimal-model   compute an operation table and write it as JSON
  expected-table  instantiate the complete operation list and write it
  verify          run verification suites, write a report, exit 0 on pass
  diff            compare two table files
  export-category dump a built-in category's table
  verify-functor  check a functor description from a JSON file

Exit codes: 0 success / all checks pass, 1 verification failure, 2 usage
error.  All outputs are UTF-8 JSON with sorted keys, so identical
configurations produce byte-identical files.
"""

import argparse
import json
import sys

from .linalg import field_by_name
from .table import OperationTable, diff_tables
from . import symbols as sym
from .transfer import (SymbolicBackend, MatrixBackend, TransferEvaluator,
                       compute_operation_table)
from .complexes import (pia2_end_category, a2_end_category, tabulated_contraction,
                        generic_contraction, a2_class_names, contraction_audit)
from .ainf import (expected_table, stasheff_check, unitality_check,
                   kappa_symmetry_check, classification_check)
from .functors import (pi_category, builtin_functors, verify_functor,
                       build_delta, build_fukaya, build_pants, build_pi_prime,
                       build_pi_simple, functor_from_json)


def _add_common(p):
    p.add_argument("--algebra", choices=("pia2", "a2"), default="pia2")
    p.add_argument("--backend", choices=("symbolic", "matrix"), default="symbolic")
    p.add_argument("--homotopy", choices=("paper", "generic"), default="paper")
    p.add_argument("--field", choices=("f2", "q"), default="f2")
    p.add_argument("--window", type=int, default=None,
                   help="resolution window of the matrix backend and the "
                        "contraction audit (default: max(24, 2*degree_max "
                        "+ arity_max + 4))")
    p.add_argument("--arity-max", type=int, default=4)
    p.add_argument("--degree-max", type=int, default=4)
    p.add_argument("--output", default=None)


def _check_config(args, parser):
    if args.backend == "symbolic" and args.algebra != "pia2":
        parser.error("the symbolic backend exists for the preprojective algebra only")
    if args.backend == "symbolic" and args.field != "f2":
        parser.error("the symbolic tables carry F2 coefficients")
    want = 2 * args.degree_max + args.arity_max + 4
    if args.window is None:
        args.window = max(24, want)
    elif args.window < want:
        parser.error(f"window must be at least 2*degree_max + arity_max + 4 = {want}")


def _make_backend(args):
    field = field_by_name(args.field)
    if args.algebra == "a2":
        cat = a2_end_category(field)
        con = generic_contraction(cat, -4, 4, a2_class_names())
        return MatrixBackend.for_classes(cat, con, max(args.degree_max, 1))
    if args.backend == "symbolic":
        return SymbolicBackend(field)
    cat = pia2_end_category(args.window, field)
    con = tabulated_contraction(cat) if args.homotopy == "paper" \
        else generic_contraction(cat)
    return MatrixBackend.for_pia2(cat, con, args.degree_max)


def _write(doc, path):
    text = doc if isinstance(doc, str) else \
        json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_minimal_model(args, parser):
    _check_config(args, parser)
    backend = _make_backend(args)
    table = compute_operation_table(args.arity_max, args.degree_max, backend)
    _write(table.dumps(), args.output)
    counts = table.arities()
    print(f"# {len(table)} operations; per arity: {counts}", file=sys.stderr)
    return 0


def cmd_expected_table(args, parser):
    field = field_by_name(args.field)
    table = expected_table(args.arity_max, args.degree_max, field)
    _write(table.dumps(), args.output)
    print(f"# {len(table)} operations; per arity: {table.arities()}", file=sys.stderr)
    return 0


def cmd_verify(args, parser):
    _check_config(args, parser)
    field = field_by_name(args.field)
    which = args.which
    reports = []
    needs_table = which in ("stasheff", "unital", "kappa", "classification",
                            "functors", "all")
    pi = None
    if needs_table:
        sb = SymbolicBackend(field) if args.field == "f2" else None
        if sb is None:
            parser.error("table verification runs over F2")
        ev = TransferEvaluator(sb)
        table = compute_operation_table(max(args.arity_max, 6), args.degree_max,
                                        sb, evaluator=ev)
        pi = pi_category(table, ev, field)
    if which in ("stasheff", "all"):
        reports.append(stasheff_check(pi, args.arity_max, args.degree_max))
    if which in ("unital", "all"):
        reports.append(unitality_check(pi, args.degree_max))
    if which in ("kappa", "all"):
        reports.append(kappa_symmetry_check(pi.table))
    if which in ("classification", "all"):
        reports.append(classification_check(pi.table))
    if which in ("contraction", "all"):
        cat = pia2_end_category(args.window, field)
        reports.append(contraction_audit(cat, tabulated_contraction(cat)))
    if which in ("functors", "all"):
        for f in builtin_functors(pi, degree_max=args.degree_max):
            reports.append(verify_functor(f, max(args.arity_max, 6),
                                          args.degree_max))
    doc = {"reports": reports,
           "status": "pass" if all(r["status"] == "pass" for r in reports) else "fail"}
    _write(doc, args.output)
    for r in reports:
        print(f"# {r['check']}: {r['status']} ({len(r['violations'])} violations)",
              file=sys.stderr)
    return 0 if doc["status"] == "pass" else 1


def cmd_diff(args, parser):
    try:
        a = OperationTable.load(args.file_a)
        b = OperationTable.load(args.file_b)
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        parser.error(f"cannot parse table file: {exc}")
    try:
        rep = diff_tables(a, b, support_only=args.support_only)
    except ValueError as exc:
        parser.error(str(exc))
    _write(rep, args.output)
    return 0 if rep["identical"] else 1


def _build_category(name, args, pi=None):
    field = field_by_name(args.field)
    if name == "pi":
        if pi is None:
            sb = SymbolicBackend(field)
            ev = TransferEvaluator(sb)
            table = compute_operation_table(max(args.arity_max, 6),
                                            args.degree_max, sb, evaluator=ev)
            pi = pi_category(table, ev, field)
        return pi
    if name == "pi-simple":
        return build_pi_simple(field)
    if name == "pi-prime":
        return build_pi_prime(_build_category("pi", args))
    if name == "delta":
        return build_delta(field)
    if name.startswith("fukaya"):
        n, grading = name[6:].split(":")
        return build_fukaya(int(n), tuple(int(g) for g in grading.split(",")),
                            field)
    if name == "pants":
        return build_pants(args.degree_max,
                           pi_table=_build_category("pi", args).table,
                           field=field)
    raise KeyError(name)


CATEGORY_NAMES = ("pi", "pi-simple", "pi-prime", "delta",
                  "fukaya<n>:<g1,..,gn>", "pants")


def cmd_export_category(args, parser):
    try:
        cat = _build_category(args.category, args)
    except (KeyError, ValueError):
        parser.error(f"unknown category {args.category!r}; "
                     f"choose from {CATEGORY_NAMES}")
    if hasattr(cat, "inner"):
        parser.error("the additivized category is exported via its inner table")
    _write(cat.table.dumps(), args.output)
    return 0


def cmd_verify_functor(args, parser):
    try:
        with open(args.file) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot parse functor file: {exc}")
    cats = {}
    for role in ("source", "target"):
        name = doc.get(role) if isinstance(doc, dict) else None
        if not isinstance(name, str):
            parser.error(f"functor file names no {role} category")
        try:
            cats[name] = _build_category(name, args)
        except (KeyError, ValueError):
            parser.error(f"unknown category {name!r}")
    try:
        functor = functor_from_json(doc, cats)
    except ValueError as exc:
        parser.error(f"invalid functor file: {exc}")
    rep = verify_functor(functor, args.arity_max, args.degree_max)
    _write(rep, args.output)
    return 0 if rep["status"] == "pass" else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="pia2",
        description="exact minimal A-infinity models for the A2 quiver and "
                    "its preprojective algebra")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("minimal-model", help="compute an operation table")
    _add_common(p)
    p.set_defaults(func=cmd_minimal_model)

    p = subs.add_parser("expected-table", help="instantiate the operation list")
    _add_common(p)
    p.set_defaults(func=cmd_expected_table)

    p = subs.add_parser("verify", help="run verification suites")
    _add_common(p)
    p.add_argument("--which", default="all",
                   choices=("stasheff", "unital", "kappa", "classification",
                            "contraction", "functors", "all"))
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("diff", help="compare two table files")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--support-only", action="store_true")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_diff)

    p = subs.add_parser("export-category", help="dump a built-in category")
    _add_common(p)
    p.add_argument("category")
    p.set_defaults(func=cmd_export_category)

    p = subs.add_parser("verify-functor", help="check a functor JSON file")
    _add_common(p)
    p.add_argument("--file", required=True)
    p.set_defaults(func=cmd_verify_functor)

    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except ResourceWarning as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
