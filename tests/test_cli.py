import json

import pytest

from pia2.cli import main

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
        main(["minimal-model", "--window", "6"])
    assert exc.value.code == 2


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


@pytest.mark.parametrize("edit", [
    lambda d: d.pop("target"),
    lambda d: d.pop("F1"),
    lambda d: d["F1"][0].pop("from"),
    lambda d: d["F1"][0].update({"to": "zz"}),
    lambda d: d["F1"][0].update({"from": "zz"}),
    lambda d: d["object_map"].update({"A": "S9"}),
    lambda d: d.update({"source": "nowhere"}),
], ids=["no-target", "no-F1", "no-from", "unknown-target-symbol",
        "unknown-source-symbol", "unknown-object", "unknown-category"])
def test_verify_functor_rejects_malformed_files(edit, tmp_path, capsys):
    """A malformed functor file is a usage error (exit 2), not a crash."""
    doc = json.loads(json.dumps(IOTA1))
    edit(doc)
    fd = tmp_path / "functor.json"
    fd.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exc:
        main(["verify-functor", "--file", str(fd), "--arity-max", "4",
              "--degree-max", "2"])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


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
    f1 = [{"from": sym.ext_to_str(e), "to": sym.ext_to_str(e)}
          for x in ("S1", "S2") for y in ("S1", "S2")
          for e in sym.hom_basis(x, y, degree_max) if not sym.is_identity(e)]
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
