"""The table file: `dumps` writes exactly what json writes for
`helpers.table_to_json`, and `from_json` reads back only the schema
`dumps` writes."""

import json
from fractions import Fraction

import pytest

from helpers import table_to_json
from pia2.ainf import expected_table
from pia2.complexes import pia2_end_category, tabulated_contraction
from pia2.linalg import F2, QQ
from pia2.table import OperationTable
from pia2.transfer import (SymbolicBackend, MatrixBackend, TransferEvaluator,
                           compute_operation_table)


def _json_form(table):
    """The oracle: json's own indented, key-sorted text of
    `table_to_json`."""
    return json.dumps(table_to_json(table), indent=2, sort_keys=True) + "\n"


def test_symbolic_tables_on_a_bound_grid():
    sb = SymbolicBackend()
    ev = TransferEvaluator(sb)
    sizes = set()
    for arity_max in range(2, 10):
        for degree_max in range(0, 9):
            t = compute_operation_table(arity_max, degree_max, sb, evaluator=ev)
            assert t.dumps() == _json_form(t), (arity_max, degree_max)
            sizes.add(len(t))
    assert max(sizes) == 354


@pytest.mark.parametrize("field", [F2, QQ], ids=["f2", "q"])
def test_expected_tables(field):
    t = expected_table(6, 8, field=field)
    assert len(t) == 270
    assert t.dumps() == _json_form(t)


def test_matrix_q_table_with_negative_coefficients():
    cat = pia2_end_category(14, QQ)
    t = compute_operation_table(
        4, 2, MatrixBackend.for_pia2(cat, tabulated_contraction(cat), 2))
    assert {v["coeff"] for v in t.entries.values()} == {1, -1}
    assert t.dumps() == _json_form(t)


def test_table_read_back_has_string_coefficients():
    text = expected_table(5, 3).dumps()
    back = OperationTable.from_json(json.loads(text))
    assert {v["coeff"] for v in back.entries.values()} == {"1"}
    assert back.dumps() == _json_form(back) == text


def test_empty_table():
    t = OperationTable()
    assert t.dumps() == _json_form(t) == '{\n  "entries": [],\n  "metadata": {}\n}\n'


def test_metadata_holding_none_and_nested_values():
    t = OperationTable({"window": None, "bounds": [4, {"b": None, "a": []}],
                        "field": "q"})
    t.add(["x"], ["A", "B"], Fraction(-1, 2), "y", 0)
    assert t.dumps() == _json_form(t)


def test_strings_that_need_escaping():
    t = OperationTable({"note": 'a "quoted" \\ path é\n'})
    t.add(['"', "\\"], ["é", "∂", "\U0001d4aa"], 1, "tab\there", 3)
    t.add([], ["\x00"], "-1", "", -2)
    text = t.dumps()
    assert text == _json_form(t)
    assert text.isascii()


@pytest.mark.parametrize("doc, message", [
    ([], "an object with a list"),
    ({"entries": {}}, "an object with a list"),
    ({"entries": [], "metadata": []}, '"metadata" is an object'),
    ({"entries": [[]]}, "entry 0 is not a table entry"),
    ({"entries": [{"inputs": ["a"], "objects": ["X", "Y"], "degree": 0}]},
     "entry 0 is not a table entry"),
    ({"entries": [{"inputs": "ab", "objects": ["X", "Y", "Z"], "degree": 0,
                   "output": {"coeff": "1", "symbol": "s"}}]},
     "entry 0 is not a table entry"),
    ({"entries": [{"inputs": ["a", 1], "objects": ["X", "Y", "Z"], "degree": 0,
                   "output": {"coeff": "1", "symbol": "s"}}]},
     "entry 0 is not a table entry"),
    ({"entries": [{"inputs": ["a"], "objects": ["X"], "degree": 0,
                   "output": {"coeff": "1", "symbol": "s"}}]},
     "entry 0 is not a table entry"),
    ({"entries": [{"inputs": ["a"], "objects": ["X", "Y"], "degree": True,
                   "output": {"coeff": "1", "symbol": "s"}}]},
     "entry 0 is not a table entry"),
    ({"entries": [{"inputs": ["a"], "objects": ["X", "Y"], "degree": 0,
                   "output": {"coeff": "1", "symbol": None}}]},
     "entry 0 is not a table entry"),
    ({"entries": [{"inputs": ["a"], "objects": ["X", "Y"], "degree": 0,
                   "output": {"coeff": [1], "symbol": "s"}}]},
     "entry 0 is not a table entry"),
], ids=["list", "entries-object", "metadata-list", "entry-list", "no-output",
        "inputs-string", "inputs-int", "objects-short", "degree-bool",
        "symbol-null", "coeff-list"])
def test_from_json_refuses_what_dumps_does_not_write(doc, message):
    with pytest.raises(ValueError, match=message):
        OperationTable.from_json(doc)


def test_from_json_refuses_a_repeated_entry():
    e = {"inputs": ["a"], "objects": ["X", "Y"], "degree": 0,
         "output": {"coeff": "1", "symbol": "s"}}
    with pytest.raises(ValueError, match="duplicate entry"):
        OperationTable.from_json({"entries": [e, dict(e)]})
