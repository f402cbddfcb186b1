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
from .transfer import (SymbolicBackend, MatrixBackend, TransferEvaluator,
                       compute_operation_table)
from .complexes import build_contraction, contraction_audit
from .ainf import (expected_table, stasheff_check, unitality_check,
                   kappa_symmetry_check, classification_check)
from .functors import (pi_category, builtin_functors, verify_functor,
                       build_delta, build_fukaya, build_pants, build_pi_prime,
                       build_pi_simple, functor_from_json)


def _add_instance(p):
    """The flags that name an instance and its contraction, read by
    minimal-model and verify.  verify takes --backend and does not read
    it: perfbench's contraction audits pass it."""
    p.add_argument("--algebra", choices=("pia2", "a2"), default="pia2")
    p.add_argument("--backend", choices=("symbolic", "matrix"), default="symbolic")
    p.add_argument("--homotopy", choices=("paper", "generic"), default=None,
                   help="homotopy of the contraction (default: the "
                        "instance's own, paper on pia2 and generic on a2)")
    p.add_argument("--window", type=int, default=None,
                   help="resolution window of the pia2 contraction, read "
                        "by the matrix backend and the contraction audit "
                        "(default: max(24, 2*degree_max + arity_max + 4))")


def _add_common(p):
    p.add_argument("--field", choices=("f2", "q"), default="f2")
    p.add_argument("--arity-max", type=_at_least(2), default=4)
    p.add_argument("--degree-max", type=_at_least(0), default=4)
    p.add_argument("--output", default=None)


def _at_least(least):
    """An argparse type: an int no smaller than least, so that a bound no
    operation or tuple lies within is a usage error (exit 2)."""
    def parse(text):
        n = int(text)
        if n < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {n}")
        return n
    parse.__name__ = "int"    # argparse's "invalid int value" for a non-integer
    return parse


def _check_window(args, parser):
    want = 2 * args.degree_max + args.arity_max + 4
    if args.window is None:
        args.window = max(24, want)
    elif args.window < want:
        parser.error(f"window must be at least 2*degree_max + arity_max + 4 = {want}")


def _contraction(args, parser):
    """The contraction (on its `cat`) that --algebra, --homotopy, --window
    and --field name, a builder's refusal being a usage error.  Only a
    pia2 resolution reads the window, so only there is it checked."""
    if args.algebra == "pia2":
        _check_window(args, parser)
    homotopy = args.homotopy or ("paper" if args.algebra == "pia2" else "generic")
    try:
        return build_contraction(args.window, homotopy,
                                 field_by_name(args.field), args.algebra)
    except ValueError as exc:
        parser.error(f"cannot build the contraction: {exc}")


def _pi_category(args):
    """Pi: the symbolic table at arity max(arity_max, 6) and degree_max
    as a category, with its evaluator for points past the table."""
    if args.field != "f2":
        raise ValueError("the symbolic tables carry F2 coefficients")
    sb = SymbolicBackend()
    ev = TransferEvaluator(sb)
    table = compute_operation_table(max(args.arity_max, 6), args.degree_max,
                                    sb, evaluator=ev)
    return pi_category(table, ev)


def _write(doc, path, parser):
    """Write doc (a JSON text, or a document to dump) to path, or to stdout
    without one.  A path that cannot be written is a usage error (exit 2):
    exit 1 is a failed check."""
    text = doc if isinstance(doc, str) else \
        json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        parser.error(f"cannot write {path}: {exc.strerror}")


def cmd_minimal_model(args, parser):
    if args.backend == "symbolic":
        if args.algebra != "pia2":
            parser.error("the symbolic backend exists for the preprojective algebra only")
        if args.field != "f2":
            parser.error("the symbolic tables carry F2 coefficients")
        if args.homotopy == "generic":
            parser.error("the symbolic backend runs the paper's homotopy only")
        backend = SymbolicBackend()
    else:
        backend = MatrixBackend(_contraction(args, parser), args.degree_max)
    table = compute_operation_table(args.arity_max, args.degree_max, backend)
    _write(table.dumps(), args.output, parser)
    counts = table.arities()
    print(f"# {len(table)} operations; per arity: {counts}", file=sys.stderr)
    return 0


def cmd_expected_table(args, parser):
    field = field_by_name(args.field)
    table = expected_table(args.arity_max, args.degree_max, field)
    _write(table.dumps(), args.output, parser)
    print(f"# {len(table)} operations; per arity: {table.arities()}", file=sys.stderr)
    return 0


def cmd_verify(args, parser):
    """The table checks read Pi's symbolic table; the contraction audit
    reads the contraction `_contraction` builds and no table.  The
    contraction is built first, so that a flag it refuses is refused
    before any table is computed, and the functors' sources before any
    check runs, a builder's refusal being a usage error."""
    which = args.which
    if which in ("contraction", "all"):
        con = _contraction(args, parser)
    reports = []
    if which != "contraction":
        if args.algebra != "pia2":
            parser.error("table verification runs on the preprojective algebra only")
        if args.field != "f2":
            parser.error("table verification runs over F2")
        pi = _pi_category(args)
    if which in ("functors", "all"):
        try:
            functors = builtin_functors(pi, args.degree_max)
        except ValueError as exc:
            parser.error(f"cannot build the functors' sources: {exc}")
    if which in ("stasheff", "all"):
        reports.append(stasheff_check(pi, args.arity_max, args.degree_max))
    if which in ("unital", "all"):
        reports.append(unitality_check(pi, args.degree_max))
    if which in ("kappa", "all"):
        reports.append(kappa_symmetry_check(pi.table))
    if which in ("classification", "all"):
        reports.append(classification_check(pi.table))
    if which in ("contraction", "all"):
        reports.append(contraction_audit(con))
    if which in ("functors", "all"):
        for f in functors:
            reports.append(verify_functor(f, max(args.arity_max, 6),
                                          args.degree_max))
    doc = {"reports": reports,
           "status": "pass" if all(r["status"] == "pass" for r in reports) else "fail"}
    _write(doc, args.output, parser)
    for r in reports:
        print(f"# {r['check']}: {r['status']} ({len(r['violations'])} violations)",
              file=sys.stderr)
    return 0 if doc["status"] == "pass" else 1


def cmd_diff(args, parser):
    try:
        a = OperationTable.load(args.file_a)
        b = OperationTable.load(args.file_b)
    except (OSError, ValueError) as exc:
        parser.error(f"cannot parse table file: {exc}")
    try:
        rep = diff_tables(a, b, support_only=args.support_only)
    except ValueError as exc:
        parser.error(str(exc))
    _write(rep, args.output, parser)
    return 0 if rep["identical"] else 1


def _build_category(name, args, built):
    """The category `name` under the flags in args.  `built` holds the
    categories of one invocation by name: Pi, which pants and pi-prime
    both read, is built once."""
    field = field_by_name(args.field)
    if name == "pi":
        if "pi" not in built:
            built["pi"] = _pi_category(args)
        return built["pi"]
    if name == "pi-simple":
        return build_pi_simple(field, args.degree_max)
    if name == "pi-prime":
        return build_pi_prime(_build_category("pi", args, built))
    if name == "delta":
        return build_delta(field)
    if name.startswith("fukaya"):
        try:
            n, grading = name[6:].split(":")
            n, grading = int(n), tuple(int(g) for g in grading.split(","))
        except ValueError:
            raise KeyError(name) from None
        return build_fukaya(n, grading, field)
    if name == "pants":
        return build_pants(args.degree_max,
                           pi_table=_build_category("pi", args, built).table)
    raise KeyError(name)


CATEGORY_NAMES = ("pi", "pi-simple", "pi-prime", "delta",
                  "fukaya<n>:<g1,..,gn>", "pants")


def _category_or_usage_error(name, args, parser, built):
    """_build_category, with an unknown name and a builder's refusal of
    the flags both reported as usage errors (exit 2)."""
    try:
        return _build_category(name, args, built)
    except KeyError:
        parser.error(f"unknown category {name!r}; choose from {CATEGORY_NAMES}")
    except ValueError as exc:
        parser.error(f"cannot build category {name!r}: {exc}")


def cmd_export_category(args, parser):
    if args.category == "pi-prime":
        parser.error("the additivized category is exported via its inner table")
    cat = _category_or_usage_error(args.category, args, parser, {})
    _write(cat.table.dumps(), args.output, parser)
    return 0


def cmd_verify_functor(args, parser):
    try:
        with open(args.file) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot parse functor file: {exc}")
    cats, built = {}, {}
    for role in ("source", "target"):
        name = doc.get(role) if isinstance(doc, dict) else None
        if not isinstance(name, str):
            parser.error(f"functor file names no {role} category")
        cats[name] = _category_or_usage_error(name, args, parser, built)
    try:
        functor = functor_from_json(doc, cats)
    except ValueError as exc:
        parser.error(f"invalid functor file: {exc}")
    rep = verify_functor(functor, args.arity_max, args.degree_max)
    _write(rep, args.output, parser)
    return 0 if rep["status"] == "pass" else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="pia2",
        description="exact minimal A-infinity models for the A2 quiver and "
                    "its preprojective algebra")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("minimal-model", help="compute an operation table")
    _add_instance(p)
    _add_common(p)
    p.set_defaults(func=cmd_minimal_model)

    p = subs.add_parser("expected-table", help="instantiate the operation list")
    _add_common(p)
    p.set_defaults(func=cmd_expected_table)

    p = subs.add_parser("verify", help="run verification suites")
    _add_instance(p)
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
    return args.func(args, parser)


if __name__ == "__main__":
    sys.exit(main())
