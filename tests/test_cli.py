import json

import pytest

from helpers import functor_to_json
from pia2.cli import main
from pia2.complexes import (GenericContraction, TabulatedContraction,
                            contraction_audit)

IOTA1 = {"name": "iota1", "source": "delta", "target": "pi",
         "object_map": {"A": "S2", "B": "P1", "C": "S1"},
         "F1": [{"from": "alpha", "to": "j1"}, {"from": "beta", "to": "p1"},
                {"from": "gamma", "to": "b.u1^0"}],
         "higher": []}


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_minimal_model_symbolic(tmp_path, capsys):
    out = tmp_path / "table.json"
    code, _o, err = run(["minimal-model", "--arity-max", "4", "--degree-max", "2",
                         "--output", str(out)], capsys)
    assert code == 0
    doc = json.loads(out.read_text())
    keys = {tuple(e["inputs"]): e["output"]["symbol"] for e in doc["entries"]}
    assert keys[("p1", "(21)", "j2", "u1^1")] == "1_S1"
    # deterministic: a second run is byte-identical
    out2 = tmp_path / "table2.json"
    run(["minimal-model", "--arity-max", "4", "--degree-max", "2",
         "--output", str(out2)], capsys)
    assert out.read_text() == out2.read_text()


def test_minimal_model_a2_matrix(tmp_path, capsys):
    out = tmp_path / "a2.json"
    code, _o, _e = run(["minimal-model", "--algebra", "a2", "--backend", "matrix",
                        "--arity-max", "4", "--degree-max", "1",
                        "--output", str(out)], capsys)
    assert code == 0
    doc = json.loads(out.read_text())
    trip = {tuple(e["inputs"]): e["output"]["symbol"] for e in doc["entries"]}
    assert trip == {("h", "g", "f"): "1_S2", ("f", "h", "g"): "1_P",
                    ("g", "f", "h"): "1_S1"}


def test_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["minimal-model", "--algebra", "a2", "--backend", "symbolic"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["minimal-model", "--backend", "symbolic", "--field", "q"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["minimal-model", "--backend", "matrix", "--window", "6"])
    assert exc.value.code == 2
    capsys.readouterr()
    # the symbolic backend runs the paper's homotopy tables only
    with pytest.raises(SystemExit) as exc:
        main(["minimal-model", "--homotopy", "generic", "--arity-max", "3",
              "--degree-max", "2"])
    assert exc.value.code == 2
    assert "the symbolic backend runs the paper's homotopy only" in capsys.readouterr().err
    # A2 has no tabulated homotopy: an explicit --homotopy paper is refused
    # by the builder, not turned into generic
    for argv in (["minimal-model", "--algebra", "a2", "--backend", "matrix",
                  "--homotopy", "paper"],
                 ["verify", "--which", "contraction", "--algebra", "a2",
                  "--homotopy", "paper"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "cannot build the contraction: the tabulated homotopies exist " \
            "for the preprojective instance only" in capsys.readouterr().err
    # a malformed fukaya name is an unknown category, not a builder error
    with pytest.raises(SystemExit) as exc:
        main(["export-category", "fukaya3"])
    assert exc.value.code == 2
    assert "unknown category 'fukaya3'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["minimal-model", "--arity-max", "3", "--degree-max", "2"],
    ["verify", "--which", "kappa", "--arity-max", "3", "--degree-max", "2"],
    ["verify", "--which", "contraction", "--algebra", "a2"],
    ["minimal-model", "--algebra", "a2", "--backend", "matrix", "--arity-max", "3",
     "--degree-max", "1"],
], ids=["symbolic", "kappa", "a2-audit", "a2-matrix"])
def test_window_is_checked_only_where_a_pia2_resolution_reads_it(argv, capsys):
    """The symbolic tables and the A2 category read no window, so a window
    below 2*degree_max + arity_max + 4 is no usage error there, and the
    output is the one without --window."""
    want = run(argv, capsys)
    assert want[0] == 0
    assert run(argv + ["--window", "5"], capsys) == want


@pytest.mark.parametrize("argv, homotopy", [
    (["minimal-model", "--arity-max", "3", "--degree-max", "2"], "paper"),
    (["minimal-model", "--backend", "matrix", "--window", "14", "--arity-max", "3",
      "--degree-max", "2"], "paper"),
    (["minimal-model", "--algebra", "a2", "--backend", "matrix", "--arity-max", "3",
      "--degree-max", "1"], "generic"),
], ids=["symbolic", "pia2-matrix", "a2-matrix"])
def test_homotopy_defaults_to_the_instance_own(argv, homotopy, capsys):
    """Without --homotopy a table runs the instance's own homotopy and
    says so; naming it gives the same bytes."""
    code, out, err = run(argv, capsys)
    assert code == 0
    assert json.loads(out)["metadata"]["homotopy"] == homotopy
    assert run(argv + ["--homotopy", homotopy], capsys) == (code, out, err)


@pytest.mark.parametrize("argv", [
    ["expected-table", "--algebra", "a2"],
    ["export-category", "delta", "--window", "30"],
    ["verify-functor", "--file", "f.json", "--homotopy", "generic"],
], ids=["expected-table-algebra", "export-category-window",
        "verify-functor-homotopy"])
def test_commands_refuse_flags_they_do_not_read(argv, capsys):
    """expected-table, export-category and verify-functor take no
    --algebra, --backend, --homotopy or --window: passing one is a usage
    error (exit 2), not a flag silently ignored."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_default_window_follows_the_bounds(tmp_path, capsys):
    """Without --window the window defaults to max(24, 2*degree_max +
    arity_max + 4), so a symbolic scan at degree 8 needs no window."""
    a = tmp_path / "computed.json"
    b = tmp_path / "expected.json"
    code, _o, _e = run(["minimal-model", "--arity-max", "6", "--degree-max", "8",
                        "--output", str(a)], capsys)
    assert code == 0
    run(["expected-table", "--arity-max", "6", "--degree-max", "8",
         "--output", str(b)], capsys)
    code, out, _e = run(["diff", str(a), str(b)], capsys)
    assert code == 0
    assert json.loads(out)["identical"]


def test_expected_table_and_diff(tmp_path, capsys):
    a = tmp_path / "computed.json"
    b = tmp_path / "expected.json"
    run(["minimal-model", "--arity-max", "5", "--degree-max", "3",
         "--output", str(a)], capsys)
    run(["expected-table", "--arity-max", "5", "--degree-max", "3",
         "--output", str(b)], capsys)
    code, out, _e = run(["diff", str(a), str(b)], capsys)
    assert code == 0
    assert json.loads(out)["identical"]
    code, _o, _e = run(["diff", str(a), str(a)], capsys)
    assert code == 0
    # a truncated file differs, with the missing entries listed
    doc = json.loads(a.read_text())
    doc["entries"] = doc["entries"][:5]
    c = tmp_path / "truncated.json"
    c.write_text(json.dumps(doc))
    code, out, _e = run(["diff", str(a), str(c)], capsys)
    assert code == 1
    assert json.loads(out)["only_in_a"]


@pytest.mark.parametrize("argv", [
    ["expected-table", "--arity-max", "3", "--degree-max", "2"],
    ["verify", "--which", "kappa", "--arity-max", "3", "--degree-max", "2"],
], ids=["table", "report"])
def test_an_unwritable_output_path_is_a_usage_error(argv, tmp_path, capsys):
    """A table or a report written into a missing directory is a usage
    error (exit 2) naming the path, not a traceback with exit 1, which
    is a failed check."""
    path = tmp_path / "missing" / "out.json"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--output", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage" in err and f"cannot write {path}" in err


_ENTRY = {"arity": 2, "degree": 0, "inputs": ["j1", "p2"],
          "objects": ["P2", "S2", "P1"], "output": {"coeff": "1", "symbol": "(21)"}}


@pytest.mark.parametrize("doc, message", [
    ([], 'an object with a list "entries"'),
    ({"entries": [_ENTRY, _ENTRY], "metadata": {}}, "duplicate entry"),
    ({"entries": [dict(_ENTRY, inputs="ab")], "metadata": {}},
     "entry 0 is not a table entry"),
], ids=["top-level-list", "repeated-inputs", "inputs-string"])
def test_diff_refuses_malformed_table_files(doc, message, tmp_path, capsys):
    """A file that is not a table is a usage error (exit 2) naming what
    is wrong, never a traceback and never a silently misread table."""
    good = tmp_path / "good.json"
    run(["expected-table", "--arity-max", "3", "--degree-max", "1",
         "--output", str(good)], capsys)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    for argv in (["diff", str(bad), str(good)], ["diff", str(good), str(bad)]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "cannot parse table file" in err and message in err


def _other_symbol(e):
    return {**e["output"], "symbol": "p1" if e["output"]["symbol"] != "p1" else "p2"}


def _other_objects(e):
    return e["objects"][:-1] + ["P1" if e["objects"][-1] != "P1" else "P2"]


@pytest.mark.parametrize("field, edit", [
    ("degree", lambda e: e["degree"] + 1),
    ("objects", _other_objects),
    ("output", _other_symbol),
], ids=["degree", "objects", "output"])
def test_diff_compares_whole_entries(field, edit, tmp_path, capsys):
    """An entry whose degree, object chain or output symbol differs, the
    coeff alike, is a difference: its inputs are listed as missing from
    each side, and under "changed" with the one field that differs."""
    a = tmp_path / "a.json"
    run(["expected-table", "--arity-max", "3", "--degree-max", "1",
         "--output", str(a)], capsys)
    doc = json.loads(a.read_text())
    entry = doc["entries"][0]
    entry[field] = edit(entry)
    b = tmp_path / "b.json"
    b.write_text(json.dumps(doc))
    code, out, _e = run(["diff", str(a), str(b)], capsys)
    assert code == 1
    rep = json.loads(out)
    assert rep["only_in_a"] == rep["only_in_b"] == [entry["inputs"]]
    assert rep["changed"] == [{"inputs": entry["inputs"], "fields": [field]}]
    assert rep["coeff_mismatch"] == [] and not rep["identical"]


def test_diff_names_every_changed_field_in_input_order(tmp_path, capsys):
    """"changed" is sorted by inputs and names each differing field of an
    entry, in the order degree, objects, output; an entry only one side
    has and a coefficient mismatch are not in it, and identical files
    report it empty."""
    a = tmp_path / "a.json"
    run(["expected-table", "--arity-max", "3", "--degree-max", "1",
         "--output", str(a)], capsys)
    code, out, _e = run(["diff", str(a), str(a)], capsys)
    assert code == 0 and json.loads(out)["changed"] == []
    doc = json.loads(a.read_text())
    first, second, third, fourth = doc["entries"][:4]
    second["output"] = _other_symbol(second)
    second["objects"] = _other_objects(second)
    second["degree"] += 1
    first["degree"] += 1
    third["output"]["coeff"] = "0"
    doc["entries"].remove(fourth)
    b = tmp_path / "b.json"
    b.write_text(json.dumps({"entries": doc["entries"][::-1],
                             "metadata": doc["metadata"]}))
    code, out, _e = run(["diff", str(a), str(b)], capsys)
    assert code == 1
    rep = json.loads(out)
    assert rep["changed"] == sorted(
        [{"inputs": first["inputs"], "fields": ["degree"]},
         {"inputs": second["inputs"], "fields": ["degree", "objects", "output"]}],
        key=lambda c: c["inputs"])
    assert rep["coeff_mismatch"] == [third["inputs"]]
    assert fourth["inputs"] in rep["only_in_a"]


def test_diff_refuses_an_arity_off_the_inputs(tmp_path, capsys):
    """An arity field other than the number of inputs is a usage error
    (exit 2) naming the entry; an entry without one is read."""
    a = tmp_path / "a.json"
    run(["expected-table", "--arity-max", "3", "--degree-max", "1",
         "--output", str(a)], capsys)
    doc = json.loads(a.read_text())
    del doc["entries"][0]["arity"]
    b = tmp_path / "b.json"
    b.write_text(json.dumps(doc))
    code, out, _e = run(["diff", str(a), str(b)], capsys)
    assert code == 0 and json.loads(out)["identical"]
    doc["entries"][1]["arity"] += 1
    b.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exc:
        main(["diff", str(a), str(b)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "cannot parse table file" in err and "entry 1 is not a table entry" in err


def test_verify_kappa_and_unital(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, _o, err = run(["verify", "--which", "kappa", "--arity-max", "4",
                         "--degree-max", "2", "--output", str(out)], capsys)
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["status"] == "pass"
    code, _o, _e = run(["verify", "--which", "unital", "--arity-max", "4",
                        "--degree-max", "2", "--output", str(out)], capsys)
    assert code == 0


def test_verify_contraction_small_window(tmp_path, capsys):
    out = tmp_path / "contraction.json"
    code, _o, _e = run(["verify", "--which", "contraction", "--window", "14",
                        "--arity-max", "2", "--degree-max", "2",
                        "--output", str(out)], capsys)
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["status"] == "pass"
    assert rep["reports"][0]["checked"] > 0


def test_contraction_audit_over_q_reads_no_backend_flag(tmp_path, capsys):
    """The contraction audit builds no symbolic table, so Q needs no
    --backend flag; minimal-model's symbolic backend still refuses Q."""
    out = tmp_path / "contraction.json"
    code, _o, _e = run(["verify", "--which", "contraction", "--field", "q",
                        "--window", "14", "--arity-max", "2", "--degree-max", "2",
                        "--output", str(out)], capsys)
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["status"] == "pass"
    assert rep["reports"][0]["checked"] > 0
    with pytest.raises(SystemExit) as exc:
        main(["minimal-model", "--backend", "symbolic", "--field", "q"])
    assert exc.value.code == 2
    assert "the symbolic tables carry F2 coefficients" in capsys.readouterr().err


@pytest.mark.parametrize("flags, algebra, kind, checked", [
    (["--algebra", "a2"], "a2", GenericContraction, 18),
    (["--homotopy", "generic", "--window", "14"], "pia2", GenericContraction, None),
    (["--window", "14"], "pia2", TabulatedContraction, None),
], ids=["a2", "pia2-generic", "pia2-paper"])
def test_verify_contraction_audits_the_flags_pair(flags, algebra, kind, checked,
                                                 monkeypatch, tmp_path, capsys):
    """The audit reads the pair that --algebra, --homotopy and --window
    name, whatever --backend says."""
    from pia2 import cli
    seen = []

    def audit(con):
        seen.append((con.cat.algebra, type(con)))
        return contraction_audit(con)

    monkeypatch.setattr(cli, "contraction_audit", audit)
    out = tmp_path / "contraction.json"
    code, _o, _e = run(["verify", "--which", "contraction", "--backend", "matrix",
                        "--arity-max", "2", "--degree-max", "2",
                        "--output", str(out)] + flags, capsys)
    assert code == 0
    assert seen == [(algebra, kind)]
    rep = json.loads(out.read_text())["reports"][0]
    assert rep["status"] == "pass" and rep["checked"] > 0
    if checked is not None:
        assert rep["checked"] == checked


@pytest.mark.parametrize("argv, message", [
    (["verify", "--which", "stasheff", "--algebra", "a2", "--backend", "matrix"],
     "table verification runs on the preprojective algebra only"),
    (["verify", "--which", "all", "--algebra", "a2"],
     "table verification runs on the preprojective algebra only"),
    (["verify", "--which", "kappa", "--field", "q", "--backend", "matrix"],
     "table verification runs over F2"),
    (["verify", "--which", "contraction", "--window", "6", "--degree-max", "0"],
     "cannot build the contraction: window too small"),
], ids=["stasheff-a2", "all-a2", "kappa-q", "window-below-8"])
def test_verify_usage_errors(argv, message, monkeypatch, capsys):
    """Flags the checks cannot honour are usage errors (exit 2), refused
    before any table is computed."""
    from pia2 import cli

    def no_table(*_a, **_k):
        raise AssertionError("a table was computed")

    monkeypatch.setattr(cli, "compute_operation_table", no_table)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--arity-max", "2"])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("which", ["all", "functors"])
def test_verify_refuses_the_pants_source_below_degree_one(which, tmp_path,
                                                          monkeypatch, capsys):
    """The pants category needs a degree bound of at least 1, so a verify
    run that checks the functors refuses --degree-max 0 as a usage error
    (exit 2) with the builder's message, before any check runs."""
    from pia2 import cli

    def no_check(*_a, **_k):
        raise AssertionError("a check ran")

    for name in ("stasheff_check", "contraction_audit", "verify_functor"):
        monkeypatch.setattr(cli, name, no_check)
    out = tmp_path / "report.json"
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--which", which, "--degree-max", "0",
              "--output", str(out)])
    assert exc.value.code == 2
    assert "need degree bound >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["minimal-model", "--arity-max", "0"], "--arity-max: must be at least 2, got 0"),
    (["minimal-model", "--degree-max", "-2"], "--degree-max: must be at least 0, got -2"),
    (["expected-table", "--arity-max", "0"], "--arity-max: must be at least 2, got 0"),
    (["verify", "--which", "stasheff", "--arity-max", "0"],
     "--arity-max: must be at least 2, got 0"),
    (["verify", "--which", "contraction", "--arity-max", "-5"],
     "--arity-max: must be at least 2, got -5"),
    (["export-category", "delta", "--arity-max", "1"],
     "--arity-max: must be at least 2, got 1"),
    (["verify-functor", "--file", "f.json", "--degree-max", "-1"],
     "--degree-max: must be at least 0, got -1"),
    (["minimal-model", "--arity-max", "x"], "--arity-max: invalid int value: 'x'"),
], ids=["minimal-model-arity-0", "minimal-model-degree-neg", "expected-table-arity-0",
        "verify-stasheff-arity-0", "verify-contraction-arity-neg",
        "export-category-arity-1", "verify-functor-degree-neg", "not-an-int"])
def test_bounds_below_their_least_are_usage_errors(argv, message, monkeypatch, capsys):
    """An arity bound below 2 or a degree bound below 0 holds no operation
    and no tuple: every command that takes the bounds refuses it (exit 2)
    before it computes anything, where it used to write an empty table,
    report a check over nothing or fail with a traceback."""
    from pia2 import cli

    def no_work(*_a, **_k):
        raise AssertionError("work was done")

    for name in ("compute_operation_table", "expected_table", "contraction_audit"):
        monkeypatch.setattr(cli, name, no_work)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_least_bounds_are_accepted(tmp_path, capsys):
    out = tmp_path / "e.json"
    code, _o, _e = run(["expected-table", "--arity-max", "2", "--degree-max", "0",
                        "--output", str(out)], capsys)
    assert code == 0
    assert json.loads(out.read_text())["entries"]


def test_export_pi_prime_is_refused_by_name(monkeypatch, capsys):
    """pi-prime is refused before Pi's table is computed."""
    from pia2 import cli

    def no_table(*_a, **_k):
        raise AssertionError("a table was computed")

    monkeypatch.setattr(cli, "compute_operation_table", no_table)
    with pytest.raises(SystemExit) as exc:
        main(["export-category", "pi-prime"])
    assert exc.value.code == 2
    assert "exported via its inner table" in capsys.readouterr().err


@pytest.mark.parametrize("degree_max", [2, 4])
def test_export_pi_simple_reads_degree_max(degree_max, tmp_path, capsys):
    """export-category pi-simple writes the table at --degree-max: its
    metadata states the bound, every input lies within it, and the
    entries are those of the degree-12 table whose inputs do."""
    from pia2 import symbols as sym
    from pia2.functors import build_pi_simple
    out = tmp_path / "pi-simple.json"
    code, _o, _e = run(["export-category", "pi-simple", "--degree-max",
                        str(degree_max), "--output", str(out)], capsys)
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["metadata"]["degree_max"] == degree_max
    keys = {tuple(e["inputs"]) for e in doc["entries"]}
    assert keys and all(sym.SYMBOLS[s][3] <= degree_max for k in keys for s in k)
    full = build_pi_simple().table
    assert full.metadata["degree_max"] == 12
    assert keys == {k for k in full.entries
                    if all(sym.SYMBOLS[s][3] <= degree_max for s in k)}


def test_export_category_and_verify_functor(tmp_path, capsys):
    out = tmp_path / "delta.json"
    code, _o, _e = run(["export-category", "delta", "--output", str(out)], capsys)
    assert code == 0
    doc = json.loads(out.read_text())
    assert any(e["output"]["symbol"] == "1_A" for e in doc["entries"])

    fd = tmp_path / "functor.json"
    fd.write_text(json.dumps(IOTA1))
    code, out_text, _e = run(["verify-functor", "--file", str(fd),
                              "--arity-max", "5", "--degree-max", "3"], capsys)
    assert code == 0
    assert json.loads(out_text)["status"] == "pass"
    # a wrong assignment is caught
    fd.write_text(json.dumps({
        "name": "broken", "source": "delta", "target": "pi",
        "object_map": {"A": "S2", "B": "P1", "C": "S1"},
        "F1": [{"from": "alpha", "to": "j1"}, {"from": "beta", "to": "p1"},
               {"from": "gamma", "to": "a.u2^0"}],
        "higher": []}))
    code, out_text, _e = run(["verify-functor", "--file", str(fd),
                              "--arity-max", "5", "--degree-max", "3"], capsys)
    assert code == 1


def test_verify_stasheff_small(tmp_path, capsys):
    out = tmp_path / "stasheff.json"
    code, _o, _e = run(["verify", "--which", "stasheff", "--arity-max", "4",
                        "--degree-max", "2", "--output", str(out)], capsys)
    assert code == 0
    assert json.loads(out.read_text())["status"] == "pass"


def test_verify_all_verdict_grid(tmp_path, capsys):
    """`verify --which all` over a grid of bounds up to arity 9 and degree
    10, each report read on its own: every check but G passes and checked
    something, and G's violations are exactly its recorded defect, the
    tuples pants pulls back to a block identity of P plus the two
    rotations valued 1_{X2} (test_functors), within the bounds its check
    reads: arity max(arity_max, 6) and pants degree <= degree_max."""
    from pia2.ainf import expected_table
    from pia2.functors import build_pants, pants_degree
    rotations = {("u12", "u01", "u20"), ("v02", "v10", "v21")}
    out = tmp_path / "all.json"
    g_counts = {}
    for degree_max in (2, 4, 6, 7, 8, 10):
        pants = build_pants(degree_max, pi_table=expected_table(9, degree_max))
        family = set(map(tuple, pants.block_identity_tuples)) | rotations
        for arity_max in (4, 9):
            code, _o, _e = run(["verify", "--which", "all",
                                "--arity-max", str(arity_max),
                                "--degree-max", str(degree_max),
                                "--output", str(out)], capsys)
            assert code == 1
            reports = {r["check"]: r for r in json.loads(out.read_text())["reports"]}
            g = reports.pop("functor:G")
            assert len(reports) == 10
            for name, r in reports.items():
                assert (r["status"], r["violations"]) == ("pass", []), \
                    (arity_max, degree_max, name, r["violations"][:3])
                assert r["checked"] > 0, (arity_max, degree_max, name)
            pinned = {t for t in family if len(t) <= max(arity_max, 6)
                      and all(pants_degree(s) <= degree_max for s in t)}
            assert g["status"] == "fail"
            assert {tuple(v["tuple"]) for v in g["violations"]} == pinned
            assert len(g["violations"]) == len(pinned)
            g_counts[arity_max, degree_max] = len(pinned)
    assert g_counts[4, 2] == 6 and g_counts[9, 8] == 56


@pytest.mark.parametrize("edit", [
    lambda d: d.pop("target"),
    lambda d: d.pop("F1"),
    lambda d: d["F1"][0].pop("from"),
    lambda d: d["F1"][0].update({"to": "zz"}),
    lambda d: d["F1"][0].update({"from": "zz"}),
    lambda d: d["object_map"].update({"A": "S9"}),
    lambda d: d.update({"source": "nowhere"}),
    lambda d: d.update({"F1": None}),
    lambda d: d.update({"F1": 5}),
    lambda d: d.update({"F1": {"from": "alpha", "to": "j1"}}),
], ids=["no-target", "no-F1", "no-from", "unknown-target-symbol",
        "unknown-source-symbol", "unknown-object", "unknown-category",
        "F1-null", "F1-number", "F1-object"])
def test_verify_functor_rejects_malformed_files(edit, tmp_path, capsys):
    """A malformed functor file is a usage error (exit 2), not a crash;
    an F1 that is not a list is refused by name."""
    doc = json.loads(json.dumps(IOTA1))
    edit(doc)
    fd = tmp_path / "functor.json"
    fd.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exc:
        main(["verify-functor", "--file", str(fd), "--arity-max", "4",
              "--degree-max", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage" in err
    if not isinstance(doc.get("F1", []), list):
        assert "F1 must be a list" in err


def test_verify_functor_reports_symbols_f1_leaves_out(tmp_path, capsys):
    """An F1 that leaves out a symbol the check reaches is a verification
    failure (exit 1) with a JSON report naming the symbol, not a crash."""
    doc = json.loads(json.dumps(IOTA1))
    doc["F1"] = [{"from": "alpha", "to": "j1"}]
    fd = tmp_path / "functor.json"
    fd.write_text(json.dumps(doc))
    code, out_text, _e = run(["verify-functor", "--file", str(fd),
                              "--arity-max", "4", "--degree-max", "2"], capsys)
    assert code == 1
    rep = json.loads(out_text)
    assert rep["status"] == "fail"
    undefined = [v for v in rep["violations"] if v["expected"] == "F1 defined"]
    assert undefined
    for v in undefined:
        assert v["got"].startswith("undefined on ")
        assert "'gamma'" in v["got"] and "'beta'" in v["got"]
        assert "'alpha'" not in v["got"]


def _pi_simple_identity(degree_max):
    """The identity on Pi's simple part, written out up to degree_max."""
    from pia2 import symbols as sym
    f1 = [{"from": e, "to": e}
          for x in ("S1", "S2") for y in ("S1", "S2")
          for e in sym.hom_names(x, y, degree_max) if e != f"1_{x}"]
    return {"name": "id", "source": "pi-simple", "target": "pi",
            "object_map": {"S1": "S1", "S2": "S2"}, "F1": f1, "higher": []}


@pytest.mark.parametrize("edit, code, expected", [
    (lambda f1: None, 0, None),
    (lambda f1: f1.append({"from": "u1^7", "to": "u2^7"}), 1, "hom ('S1', 'S1')"),
], ids=["identity", "wrong-hom"])
def test_verify_functor_symbols_above_listed_degree(edit, code, expected,
                                                    tmp_path, capsys):
    """F1 may name symbols of any degree: u1^7 (degree 14) lies above the
    degree up to which the categories list their symbols, and its
    endpoints come from the symbol grammar.  The verdict is a JSON report,
    not a traceback."""
    doc = _pi_simple_identity(14)
    assert {"from": "u1^7", "to": "u1^7"} in doc["F1"]
    edit(doc["F1"])
    fd = tmp_path / "functor.json"
    fd.write_text(json.dumps(doc))
    got, out_text, err = run(["verify-functor", "--file", str(fd),
                              "--arity-max", "3", "--degree-max", "2"], capsys)
    assert got == code
    assert "Traceback" not in err
    rep = json.loads(out_text)
    assert rep["status"] == ("pass" if code == 0 else "fail")
    if expected is not None:
        assert expected in [v["expected"] for v in rep["violations"]]


def test_verify_functor_rejects_symbol_outside_source(tmp_path, capsys):
    """j1 is a symbol of Pi but not of pi-simple (it ends at P1): naming it
    in F1 is a usage error (exit 2), like any unknown source symbol."""
    doc = _pi_simple_identity(2)
    doc["F1"].append({"from": "j1", "to": "j1"})
    fd = tmp_path / "functor.json"
    fd.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exc:
        main(["verify-functor", "--file", str(fd), "--arity-max", "3",
              "--degree-max", "2"])
    assert exc.value.code == 2
    assert "unknown source symbol 'j1'" in capsys.readouterr().err


def test_verify_functor_rejects_pants_symbol_past_its_bound(tmp_path, capsys):
    """The pants category built at --degree-max 2 truncates its loops at
    exponent 2, so x0^9 is none of its basis symbols: a usage error."""
    doc = {"name": "g", "source": "pants", "target": "pi-prime",
           "object_map": {"X0": "S1", "X1": "S2", "X2": "P"},
           "F1": [{"from": "u12", "to": "j1"}, {"from": "x0^9", "to": "0"}],
           "higher": []}
    fd = tmp_path / "functor.json"
    fd.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exc:
        main(["verify-functor", "--file", str(fd), "--arity-max", "3",
              "--degree-max", "2"])
    assert exc.value.code == 2
    assert "unknown source symbol 'x0^9'" in capsys.readouterr().err


def test_verify_functor_rejects_higher_components(tmp_path, capsys):
    """Only strict functors are supported: a file whose "higher" states a
    component is a usage error (exit 2), where "higher": [] passes."""
    doc = dict(IOTA1, higher=[{"from": ["beta", "alpha"], "to": "0"}])
    fd = tmp_path / "functor.json"
    fd.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exc:
        main(["verify-functor", "--file", str(fd), "--arity-max", "3",
              "--degree-max", "2"])
    assert exc.value.code == 2
    assert "only strict functors" in capsys.readouterr().err


@pytest.mark.parametrize("category, flags, message", [
    ("pi", ["--field", "q"], "the symbolic tables carry F2 coefficients"),
    ("pants", ["--field", "q"], "the symbolic tables carry F2 coefficients"),
    ("fukaya3:0,0,0", [], "gradings must sum to n - 2"),
], ids=["pi-over-q", "pants-over-q", "fukaya-bad-grading"])
@pytest.mark.parametrize("command", ["export-category", "verify-functor"])
def test_builder_refusal_is_not_an_unknown_category(command, category, flags,
                                                     message, tmp_path, capsys):
    """A known category whose builder refuses the flags is a usage error
    (exit 2) that names the category and gives the builder's message."""
    if command == "export-category":
        argv = ["export-category", category]
    else:
        doc = dict(IOTA1, source=category, target=category)
        fd = tmp_path / "functor.json"
        fd.write_text(json.dumps(doc))
        argv = ["verify-functor", "--file", str(fd)]
    with pytest.raises(SystemExit) as exc:
        main(argv + flags + ["--arity-max", "4", "--degree-max", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"cannot build category {category!r}: {message}" in err
    assert "unknown category" not in err


def test_verify_functor_builds_pi_once(monkeypatch, tmp_path, capsys):
    """A functor from pants to pi-prime reads Pi's table through both
    categories; one invocation computes it once, and the report is the
    library's verdict on the built-in pants functor."""
    from pia2 import cli
    from pia2.functors import builtin_functors, pi_category, verify_functor
    from pia2.transfer import SymbolicBackend, TransferEvaluator

    sb = SymbolicBackend()
    ev = TransferEvaluator(sb)
    pi = pi_category(cli.compute_operation_table(6, 2, sb, evaluator=ev), ev)
    g = builtin_functors(pi, degree_max=2)[-1]
    assert g.name == "G"
    want = verify_functor(g, 3, 2)
    builds = []
    compute = cli.compute_operation_table

    def counted(*a, **k):
        builds.append(a[:2])
        return compute(*a, **k)

    monkeypatch.setattr(cli, "compute_operation_table", counted)
    fd = tmp_path / "functor.json"
    fd.write_text(json.dumps(dict(functor_to_json(g), source="pants", target="pi-prime")))
    code, out_text, _e = run(["verify-functor", "--file", str(fd),
                              "--arity-max", "3", "--degree-max", "2"], capsys)
    assert builds == [(6, 2)]
    assert code == (0 if want["status"] == "pass" else 1)
    assert json.loads(out_text) == json.loads(json.dumps(want))
