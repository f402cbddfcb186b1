"""Operation tables: sparse records of nonzero A-infinity operations.

Keys are tuples of canonical symbol strings (f_d, ..., f_1) in composition
order (f_1 acts first); values are (coefficient, output symbol string).
JSON serialization is canonical: entries sorted, keys sorted, so equal
tables produce byte-identical files.  `dumps` writes exactly what
`json.dumps(doc, indent=2, sort_keys=True) + "\n"` writes for the table's
document (`metadata`, and `entries` sorted by arity, then inputs), but
from one template per entry: the schema is fixed, and `json` runs its
pure-Python encoder whenever it indents.  Strings are quoted by json's
own ASCII escaper.  `from_json` reads back only that schema.
"""

import json
from json.encoder import encode_basestring_ascii as _quote

# one entry of `dumps`, keys in sorted order, at the indentation json gives
# an element of the top-level "entries" list
_ENTRY = ('    {\n'
          '      "arity": %d,\n'
          '      "degree": %d,\n'
          '      "inputs": %s,\n'
          '      "objects": %s,\n'
          '      "output": {\n'
          '        "coeff": %s,\n'
          '        "symbol": %s\n'
          '      }\n'
          '    }')


def _strings(items):
    """A list of strings as json indents it inside an entry."""
    if not items:
        return "[]"
    return "[\n        " + ",\n        ".join(map(_quote, items)) + "\n      ]"


class OperationTable:
    def __init__(self, metadata=None):
        self.metadata = dict(metadata or {})
        self.entries = {}

    def add(self, inputs, objects, coeff, output, degree):
        key = tuple(inputs)
        if key in self.entries:
            raise ValueError(f"duplicate entry {key}")
        self.entries[key] = {"objects": tuple(objects), "coeff": coeff,
                             "output": output, "degree": degree}

    def get(self, inputs):
        return self.entries.get(tuple(inputs))

    def __len__(self):
        return len(self.entries)

    def __contains__(self, inputs):
        return tuple(inputs) in self.entries

    def arities(self):
        out = {}
        for k in self.entries:
            out[len(k)] = out.get(len(k), 0) + 1
        return dict(sorted(out.items()))

    def dumps(self):
        """The canonical file: the table's document as json writes it
        with indent 2 and sorted keys, plus a newline."""
        entries = [
            _ENTRY % (len(k), v["degree"], _strings(k), _strings(v["objects"]),
                      _quote(str(v["coeff"])), _quote(v["output"]))
            for k, v in sorted(self.entries.items(),
                               key=lambda kv: (len(kv[0]), kv[0]))]
        meta = json.dumps(self.metadata, indent=2, sort_keys=True)
        meta = meta.replace("\n", "\n  ")
        if not entries:
            return '{\n  "entries": [],\n  "metadata": %s\n}\n' % meta
        return ('{\n  "entries": [\n%s\n  ],\n  "metadata": %s\n}\n'
                % (",\n".join(entries), meta))

    @classmethod
    def from_json(cls, doc):
        """The table a `dumps` file holds.  ValueError unless doc is an
        object with a list "entries" (and an object "metadata", if any)
        whose every entry has lists of strings "inputs" and "objects", one
        object more than inputs, an integer "degree", a string output
        "coeff" and "symbol", and an "arity", if it has one, equal to the
        number of inputs."""
        if type(doc) is not dict or type(doc.get("entries")) is not list:
            raise ValueError('a table is an object with a list "entries"')
        metadata = doc.get("metadata", {})
        if type(metadata) is not dict:
            raise ValueError('a table\'s "metadata" is an object')
        t = cls(metadata)
        for i, e in enumerate(doc["entries"]):
            try:
                inputs, objects, degree = e["inputs"], e["objects"], e["degree"]
                coeff, symbol = e["output"]["coeff"], e["output"]["symbol"]
                "".join(inputs + objects)   # TypeError unless all strings
                arity = e.get("arity", len(inputs))
                ok = (type(inputs) is list and type(objects) is list
                      and len(objects) == len(inputs) + 1
                      and type(degree) is int and type(coeff) is str
                      and type(symbol) is str
                      and type(arity) is int and arity == len(inputs))
            except (KeyError, TypeError):
                ok = False
            if not ok:
                raise ValueError(
                    f"entry {i} is not a table entry: it needs lists of "
                    "strings inputs and objects, one object more than "
                    "inputs, an integer degree, an output coeff and "
                    "symbol that are strings and no arity other than the "
                    "number of inputs")
            t.add(inputs, objects, coeff, symbol, degree)
        return t

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_json(json.load(fh))


def diff_tables(a, b, support_only=False, check_bounds=True):
    """Compare two tables; empty report means identical.

    Lists entries of a missing from b, entries of b missing from a, and
    coefficient mismatches (skipped when support_only, the Q-mode claim).
    An entry of both whose output symbol, degree or object chain differs
    is listed as missing from each, and under "changed" with the names
    of the fields that differ ("degree", "objects", "output").
    """
    report = {"only_in_a": [], "only_in_b": [], "coeff_mismatch": [],
              "changed": []}
    if check_bounds:
        for field in ("arity_max", "degree_max"):
            if (field in a.metadata and field in b.metadata
                    and a.metadata[field] != b.metadata[field]):
                raise ValueError(f"bound mismatch on {field}: "
                                 f"{a.metadata[field]} vs {b.metadata[field]}")
    for k, v in a.entries.items():
        w = b.entries.get(k)
        if w is None:
            report["only_in_a"].append(list(k))
        elif (w["output"] != v["output"] or w["degree"] != v["degree"]
              or w["objects"] != v["objects"]):
            report["only_in_a"].append(list(k))
            report["only_in_b"].append(list(k))
            report["changed"].append({
                "inputs": list(k),
                "fields": [f for f in ("degree", "objects", "output")
                           if w[f] != v[f]]})
        elif not support_only and str(w["coeff"]) != str(v["coeff"]):
            report["coeff_mismatch"].append(list(k))
    for k in b.entries:
        if k not in a.entries:
            report["only_in_b"].append(list(k))
    report["only_in_a"].sort()
    report["only_in_b"].sort()
    report["coeff_mismatch"].sort()
    report["changed"].sort(key=lambda c: c["inputs"])
    report["identical"] = not (report["only_in_a"] or report["only_in_b"]
                               or report["coeff_mismatch"])
    return report
