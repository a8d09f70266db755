"""Workspace parsing, report rendering, and exit codes of the CLI."""

import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantcat import cli
from quantcat.errors import InternalError, ParseError, UnresolvedReference
from quantcat.presheaf import presheaf_category
from quantcat.vcat import validate_category

from .helpers import BOOL

BASIC = {
    "quantales": [
        {"name": "B", "kind": "boolean2"},
        {"name": "L2", "kind": "lukasiewicz_chain", "n": 2},
        {"name": "R", "kind": "ext_real_plus"},
    ],
    "categories": [
        {"name": "C2", "quantale": "B", "objects": ["p", "q"],
         "hom": [[1, 1], [0, 1]]},
        {"name": "S", "quantale": "L2", "objects": ["x", "y"],
         "hom": [["1", "1/2"], ["1/2", "1"]]},
        {"name": "M", "quantale": "R", "objects": ["u", "v", "w"],
         "hom": [[0, 1, 3], [1, 0, 2], [3, 2, 0]]},
    ],
    "functors": [
        {"name": "idc", "dom": "C2", "cod": "C2",
         "mapping": {"p": "p", "q": "q"}},
        {"name": "swap", "dom": "S", "cod": "S",
         "mapping": {"x": "y", "y": "x"}},
        {"name": "crush", "dom": "C2", "cod": "C2",
         "mapping": {"p": "q", "q": "q"}},
    ],
    "relations": [
        {"name": "wid", "dom": "C2", "cod": "C2",
         "matrix": [[1, 1], [0, 1]]},
        {"name": "bad", "dom": "C2", "cod": "C2",
         "matrix": [[0, 0], [1, 0]]},
    ],
    "squares": [
        {"name": "sq", "top": "idc", "left": "idc",
         "bottom": "idc", "right": "idc"},
    ],
    "submonad_specs": [
        {"name": "everything", "kind": "all"},
        {"name": "adjoints", "kind": "right_adjoints"},
    ],
    "sequences": [
        {"name": "s", "category": "M",
         "points": ["u", "v", "v"], "stable_from": 1},
    ],
}


@pytest.fixture
def ws_path(tmp_path):
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(BASIC))
    return str(path)


def write(tmp_path, doc, name="doc.json"):
    path = tmp_path / name
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(path)


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------- parsing


def test_validate_reports_every_record(ws_path, capsys):
    code, out, _ = run(["validate", "--workspace", ws_path], capsys)
    assert code == 0
    lines = out.splitlines()[1:]
    assert len(lines) == sum(len(v) for v in BASIC.values())
    assert all(line.startswith("PASS") for line in lines)
    assert "quantale:B" in out and "sequence:s" in out


def test_malformed_json_aborts(tmp_path, capsys):
    path = write(tmp_path, '{"quantales": [')
    code, _, err = run(["validate", "--workspace", path], capsys)
    assert code == 2
    assert "ParseError" in err and path in err


def test_floats_are_rejected(tmp_path, capsys):
    doc = ('{"quantales": [{"name": "B", "kind": "boolean2"}], '
           '"categories": [{"name": "X", "quantale": "B", '
           '"objects": ["a"], "hom": [[0.5]]}]}')
    code, _, err = run(["validate", "--workspace", write(tmp_path, doc)], capsys)
    assert code == 2
    assert "not exact" in err


def test_quantale_records_carry_no_hom(tmp_path, capsys):
    doc = {"quantales": [{"name": "Q", "kind": "boolean2", "hom": [["1"]]}]}
    path = write(tmp_path, doc)
    code, out, _ = run(["validate", "--workspace", path], capsys)
    assert code == 1
    assert "FAIL" in out and "residuation is derived" in out
    # the poisoned record is unusable downstream
    code, _, err = run(
        ["check", "cancellative", "--quantale", "Q", "--workspace", path],
        capsys)
    assert code == 2
    assert "failed validation" in err


def test_unresolved_reference_aborts(tmp_path, capsys):
    doc = {"categories": [{"name": "X", "quantale": "NOPE",
                           "objects": ["a"], "hom": [[1]]}]}
    code, _, err = run(["validate", "--workspace", write(tmp_path, doc)], capsys)
    assert code == 2
    assert "UnresolvedReference" in err


def test_duplicate_names_abort(tmp_path, capsys):
    doc = {"quantales": [{"name": "B", "kind": "boolean2"},
                         {"name": "B", "kind": "boolean2"}]}
    code, _, err = run(["validate", "--workspace", write(tmp_path, doc)], capsys)
    assert code == 2
    assert "duplicate" in err


def test_unknown_section_aborts(tmp_path, capsys):
    code, _, err = run(
        ["validate", "--workspace", write(tmp_path, {"monoids": []})], capsys)
    assert code == 2
    assert "unknown section" in err


def test_unknown_key_poisons_the_record(tmp_path, capsys):
    doc = {"quantales": [{"name": "B", "kind": "boolean2", "size": 2}]}
    code, out, _ = run(["validate", "--workspace", write(tmp_path, doc)], capsys)
    assert code == 1
    assert "unknown key 'size'" in out


# one record of each kind, all sound; a command on C reads only B and C
_EVERY_KIND = {
    "quantales": [{"name": "B", "kind": "boolean2"}],
    "categories": [{"name": "C", "quantale": "B", "objects": ["p", "q"],
                    "hom": [[1, 1], [0, 1]]}],
    "functors": [{"name": "f", "dom": "C", "cod": "C", "mapping": {"p": "p", "q": "q"}}],
    "relations": [{"name": "r", "dom": "C", "cod": "C", "matrix": [[1, 1], [0, 1]]}],
    "squares": [{"name": "sq", "top": "f", "left": "f", "bottom": "f", "right": "f"}],
    "submonad_specs": [{"name": "all", "kind": "all"}],
    "sequences": [{"name": "s", "category": "C", "points": ["p", "q"], "stable_from": 1}],
}
# record kind -> (its section, a required key of its record)
_REQUIRED = {"quantale": ("quantales", "kind"), "category": ("categories", "hom"),
             "functor": ("functors", "cod"), "relation": ("relations", "matrix"),
             "square": ("squares", "right"), "spec": ("submonad_specs", "kind"),
             "sequence": ("sequences", "stable_from")}


@pytest.mark.parametrize("broken", ["unknown", "missing"])
@pytest.mark.parametrize("kind", list(_REQUIRED))
def test_a_key_error_poisons_its_own_record(tmp_path, capsys, kind, broken):
    section, key = _REQUIRED[kind]
    bad = dict(_EVERY_KIND[section][0], name="bad")
    if broken == "unknown":
        bad["bogus"], message = 1, "unknown key 'bogus'"
    else:
        del bad[key]
        message = f"missing key {key!r}"
    path = write(tmp_path, dict(_EVERY_KIND, **{section: _EVERY_KIND[section] + [bad]}))
    code, out, _ = run(["validate", "--workspace", path], capsys)
    assert code == 1
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert fails == [f"FAIL      {kind}:bad  witness={path}:{section}[1] (bad): {message}"]
    code, out, _ = run(["check", "separated", "--category", "C", "--workspace", path], capsys)
    assert code == 0 and "PASS      separated[C]" in out


@pytest.mark.parametrize("first", ["failed", "built"])
@pytest.mark.parametrize("kind", list(_REQUIRED))
def test_a_name_is_taken_by_a_failed_record_too(tmp_path, capsys, kind, first):
    section, _ = _REQUIRED[kind]
    good = _EVERY_KIND[section][0]
    bad = dict(good, bogus=1)
    records = [bad, good] if first == "failed" else [good, bad]
    path = write(tmp_path, dict(_EVERY_KIND, **{section: records}))
    for argv in (["validate"], ["check", "separated", "--category", "C"]):
        code, _, err = run([*argv, "--workspace", path], capsys)
        assert code == 2
        assert f"{path}:{section}[1]: duplicate name {good['name']!r}" in err


def test_invalid_category_is_contained(tmp_path, capsys):
    doc = {"quantales": [{"name": "B", "kind": "boolean2"}],
           "categories": [
               {"name": "X", "quantale": "B", "objects": ["a", "b"],
                "hom": [[0, 1], [1, 1]]},
               {"name": "Y", "quantale": "B", "objects": ["a"],
                "hom": [[1]]}]}
    path = write(tmp_path, doc)
    code, out, _ = run(["validate", "--workspace", path], capsys)
    assert code == 1
    assert "FAIL      category:X" in out
    assert "PASS      category:Y" in out
    code, _, _ = run(
        ["check", "separated", "--category", "Y", "--workspace", path], capsys)
    assert code == 0


_B = {"name": "B", "kind": "boolean2"}
_CAT = {"name": "C", "quantale": "B", "objects": ["p", "q"],
        "hom": [[1, 1], [0, 1]]}
_REL = {"name": "r", "dom": "C", "cod": "C", "matrix": [[1, 1], [0, 1]]}
_FIN = {"name": "D", "carrier": ["o", "i"], "leq": [["o", "i"]],
        "tensor": [["o", "o"], ["o", "i"]], "unit": "i"}
_TBL = {"name": "t", "kind": "table", "members": {"C": ["[1,0]"]}}

# one document per wrong JSON type; each must be a ParseError (exit 2)
WRONG_TYPES = {
    "hom-not-list": {"quantales": [_B], "categories": [dict(_CAT, hom=7)]},
    "hom-row-not-list": {"quantales": [_B],
                         "categories": [dict(_CAT, hom=[[1, 1], 7])]},
    "matrix-not-list": {"quantales": [_B], "categories": [_CAT],
                        "relations": [dict(_REL, matrix=7)]},
    "tensor-row-not-list": {"quantales": [dict(_FIN, tensor=[["o", "o"], 7])]},
    "leq-not-list": {"quantales": [dict(_FIN, leq=7)]},
    "leq-entry-not-list": {"quantales": [dict(_FIN, leq=[7])]},
    "carrier-not-list": {"quantales": [dict(_FIN, carrier=7)]},
    "carrier-label-unhashable": {"quantales": [dict(_FIN, carrier=["o", ["i"]])]},
    "members-not-list": {"quantales": [_B], "categories": [_CAT],
                         "submonad_specs": [dict(_TBL, members={"C": 7})]},
    "n-string": {"quantales": [{"name": "G", "kind": "goedel_chain", "n": "2"}]},
    "n-bool": {"quantales": [{"name": "G", "kind": "goedel_chain", "n": True}]},
    "reference-not-a-name": {"quantales": [_B],
                             "categories": [dict(_CAT, quantale=["B"])]},
}


@pytest.mark.parametrize("doc", WRONG_TYPES.values(), ids=list(WRONG_TYPES))
def test_wrong_json_types_are_parse_errors(tmp_path, capsys, doc):
    code, _, err = run(["validate", "--workspace", write(tmp_path, doc)], capsys)
    assert code == 2
    assert "ParseError" in err and "Traceback" not in err


@pytest.mark.parametrize("raw", ["1/0", "0/0"])
def test_zero_denominator_is_not_a_value(tmp_path, capsys, raw):
    doc = {"quantales": [{"name": "E", "kind": "ext_real_plus"}],
           "categories": [{"name": "M", "quantale": "E", "objects": ["a"],
                           "hom": [[raw]]}]}
    path = write(tmp_path, doc)
    code, out, err = run(["validate", "--workspace", path], capsys)
    assert code == 1
    assert f"{raw!r} is not an element of ext_real_plus" in out
    assert "Traceback" not in out + err
    code, out, err = run(
        ["check", "separated", "--category", "M", "--workspace", path], capsys)
    assert code == 2
    assert "ValidationError" in err and "Traceback" not in out + err


def test_a_carrier_label_may_read_as_a_zero_fraction(tmp_path, capsys):
    zero_label = {"name": "D", "carrier": ["o", "1/0"], "leq": [["o", "1/0"]],
                  "tensor": [["o", "o"], ["o", "1/0"]], "unit": "1/0"}
    doc = {"quantales": [zero_label],
           "categories": [{"name": "M", "quantale": "D", "objects": ["a", "b"],
                           "hom": [["1/0", "o"], ["o", "1/0"]]}]}
    path = write(tmp_path, doc)
    code, out, _ = run(["validate", "--workspace", path], capsys)
    assert code == 0 and "PASS      category:M" in out
    code, _, _ = run(
        ["check", "separated", "--category", "M", "--workspace", path], capsys)
    assert code == 0


# one record value: mostly rational strings of at most six digits (zero
# denominators included), else another JSON scalar or a small list
_RATIONAL = st.one_of(
    st.builds("{}/{}".format, st.integers(-99, 999),
              st.one_of(st.just(0), st.integers(0, 999))),
    # exponent forms, on both sides of the digit limit
    st.builds("{}e{}".format, st.integers(-9, 99), st.integers(-4400, 4400)),
    st.builds("{}.{}E{}".format, st.integers(0, 9), st.integers(0, 99),
              st.integers(-99, 99)),
    # digit strings near the limit of 4300
    st.builds("{}{}".format, st.sampled_from(["", "1/", "0."]),
              st.integers(4290, 4310).map("3".__mul__)))
_SCALAR = st.one_of(
    st.none(), st.booleans(), st.integers(-9, 99),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
    st.sampled_from(["inf", "o", "i", "a", "", "-", "1/", "1e999999999",
                     "1e-999999999", "0e999999999", "e5", "1e"]),
    st.integers(-99, 999).map(str), _RATIONAL)
_VALUE = st.one_of(_RATIONAL, _SCALAR, st.lists(_SCALAR, max_size=2))
_KINDS = [{"kind": "boolean2"}, {"kind": "goedel_chain", "n": 2},
          {"kind": "lukasiewicz_chain", "n": 3}, {"kind": "ext_real_plus"},
          {"kind": "unit_interval_product"}, {"kind": "lukasiewicz_rational"},
          {k: v for k, v in _FIN.items() if k != "name"}]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.sampled_from(_KINDS), st.integers(1, 3).flatmap(
    lambda n: st.lists(st.lists(_VALUE, min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_record_values_never_escape_the_exit_codes(kind, hom):
    doc = {"quantales": [dict(kind, name="Q")],
           "categories": [{"name": "M", "quantale": "Q",
                           "objects": ["a", "b", "c"][:len(hom)], "hom": hom}]}
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "doc.json")
        Path(path).write_text(json.dumps(doc))
        for argv in (["validate"], ["check", "separated", "--category", "M"],
                     ["compute", "presheaf", "--category", "M"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([*argv, "--workspace", path])
            assert code in (0, 1, 2), (argv, doc)
            assert "Traceback" not in out.getvalue() + err.getvalue()


@pytest.mark.parametrize("value, code", [
    ("1e4299", 0), ("1e-4299", 0), ("1" * 4300 + "/7", 0),
    ("1e4300", 2), ("1e-4300", 2), ("1e5000", 2), ("1e999999999", 2),
    ("1e-999999999", 2), ("0e999999999", 2), ("7/" + "1" * 4301, 2),
    ("1" * 4301, 2), ("1_0e4299", 2),
])
def test_rationals_past_the_digit_limit_are_parse_errors(tmp_path, capsys, value, code):
    # the bound is on the text, so the exponent is never applied
    doc = {"quantales": [{"name": "R", "kind": "ext_real_plus"}],
           "categories": [{"name": "M", "quantale": "R", "objects": ["a", "b"],
                           "hom": [[0, value], [value, 0]]}]}
    got, out, err = run(["validate", "--workspace", write(tmp_path, doc)], capsys)
    assert got == code
    assert "Traceback" not in out + err
    if code == 2:
        assert "ParseError" in err and "more than 4300 digits" in err


def test_parse_workspace_direct(ws_path):
    ws = cli.parse_workspace(ws_path)
    assert not ws.failures
    S = ws.get("category", "S")
    assert S.objects == ("x", "y")
    assert str(S.hom[0][1]) == "1/2"
    with pytest.raises(UnresolvedReference):
        ws.get("category", "missing")


def test_missing_file(tmp_path):
    with pytest.raises(ParseError):
        cli.parse_workspace(str(tmp_path / "nope.json"))


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("unreadable, message", [
    ("directory", "cannot be read: Is a directory"),
    ("not-utf8", "byte 0 is not UTF-8"),
], ids=["directory", "not-utf8"])
def test_unreadable_workspace_is_a_parse_error(tmp_path, capsys, unreadable, message, fmt):
    path = tmp_path / unreadable
    if unreadable == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe{")
    code, out, err = run(["validate", "--workspace", str(path), "--format", fmt], capsys)
    assert code == 2
    assert "Traceback" not in out + err
    shown = json.loads(out)["error"] if fmt == "json" else err
    assert "ParseError" in shown and message in shown


# ------------------------------------------------------------ check verbs


def test_check_pass_and_fail_exit_codes(ws_path, capsys):
    code, out, _ = run(
        ["check", "fully-faithful", "--functor", "swap",
         "--workspace", ws_path], capsys)
    assert code == 0 and "PASS" in out
    code, out, _ = run(
        ["check", "fully-faithful", "--functor", "crush",
         "--workspace", ws_path], capsys)
    assert code == 1
    assert "FAIL" in out and "witness=" in out


def test_check_needs_its_target(ws_path, capsys):
    code, _, err = run(
        ["check", "separated", "--workspace", ws_path], capsys)
    assert code == 2
    assert "--category" in err


def test_distributor_fail_carries_witness(ws_path, capsys):
    code, out, _ = run(
        ["check", "distributor", "--relation", "bad",
         "--workspace", ws_path], capsys)
    assert code == 1
    assert "witness=" in out


def test_budget_exhaustion_is_unchecked(ws_path, capsys):
    code, out, _ = run(
        ["check", "algebra", "--category", "C2", "--spec", "everything",
         "--budget", "1", "--workspace", ws_path], capsys)
    assert code == 3
    assert out.splitlines()[1].startswith("UNCHECKED")
    assert "reason=" in out


def test_budget_bounds_the_left_adjoint_search(tmp_path, capsys):
    # 4^5 = 1024 presheaves pass the |V|^n gate, but enumerate_L pairs each
    # with 1024 candidate left adjoints
    hom = [["1" if i == j else "0" for j in range(5)] for i in range(5)]
    doc = {"quantales": [{"name": "G3", "kind": "goedel_chain", "n": 3}],
           "categories": [{"name": "disc5", "quantale": "G3",
                           "objects": list("abcde"), "hom": hom}]}
    code, out, _ = run(
        ["check", "l-complete", "--category", "disc5", "--budget", "2000",
         "--format", "json", "--workspace", write(tmp_path, doc)], capsys)
    assert code == 3
    [check] = json.loads(out)["checks"]
    assert check["verdict"] == "unchecked"
    assert "exceed the budget 2000" in check["reason"]


def test_admissible_wants_one_quantale(ws_path, capsys):
    code, _, err = run(
        ["check", "admissible", "--spec", "everything",
         "--workspace", ws_path], capsys)
    assert code == 2 and "--quantale" in err
    code, out, _ = run(
        ["check", "admissible", "--spec", "everything", "--quantale", "B",
         "--workspace", ws_path], capsys)
    assert code == 0 and "PASS" in out


def _table_ws(members):
    return dict(BASIC, submonad_specs=[{"name": "tbl", "kind": "table",
                                        "members": members}])


def test_admissible_table_decides_the_multiplication_when_it_lists_tx(tmp_path, capsys):
    representables = ["[1,0]", "[1,1]"]
    path = write(tmp_path, _table_ws({"C2": representables, "tbl(C2)": representables}))
    code, out, _ = run(["check", "admissible", "--spec", "tbl", "--quantale", "B",
                        "--format", "json", "--workspace", path], capsys)
    check = json.loads(out)["checks"][0]
    assert code == 0 and check["verdict"] == "pass"
    assert check["detail"]["multiplication"] == {"ok": True, "witness": None,
                                                 "unchecked": [], "unlisted": []}


def test_admissible_table_must_list_every_category_of_the_universe(tmp_path, capsys):
    path = write(tmp_path, _table_ws({"S": ["[1,1/2]"]}))
    code, _, err = run(["check", "admissible", "--spec", "tbl", "--quantale", "B",
                        "--workspace", path], capsys)
    assert code == 2
    assert "SpecMismatch: no membership table for category C2" in err


def test_cancellative_category_must_match(ws_path, capsys):
    code, _, err = run(
        ["check", "cancellative", "--quantale", "L2", "--category", "C2",
         "--workspace", ws_path], capsys)
    assert code == 2
    code, out, _ = run(
        ["check", "cancellative", "--quantale", "L2", "--category", "S",
         "--workspace", ws_path], capsys)
    assert code == 0


# Two records of one builtin quantale name the same quantale: the handlers
# compare quantales structurally (`==`), not by record.
TWIN_WS = {
    "quantales": [{"name": "B1", "kind": "boolean2"},
                  {"name": "B2", "kind": "boolean2"}],
    "categories": [
        {"name": "X", "quantale": "B1", "objects": ["p", "q"],
         "hom": [[1, 1], [0, 1]]},
        {"name": "Y", "quantale": "B2", "objects": ["p", "q"],
         "hom": [[1, 1], [0, 1]]},
        {"name": "Z", "quantale": "B2", "objects": ["u", "v", "w"],
         "hom": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
    ],
    "submonad_specs": [{"name": "all", "kind": "all"}],
}


def test_admissible_treats_twin_quantale_records_as_one(tmp_path, capsys):
    path = write(tmp_path, TWIN_WS)
    code, out, _ = run(["check", "admissible", "--spec", "all",
                        "--workspace", path], capsys)
    assert code == 0 and "PASS      admissible[all]" in out


def test_admissible_quantale_filter_keeps_twin_records(tmp_path, capsys):
    # Z, over B2, is in the B1 universe: its 2^9 distributors Z ⇸ Z blow
    # a budget that X and Y alone fit
    code, out, _ = run(["check", "admissible", "--spec", "all", "--quantale",
                        "B1", "--budget", "100", "--workspace",
                        write(tmp_path, TWIN_WS)], capsys)
    assert code == 3 and "512 candidate matrices over budget 100" in out


def test_cancellative_accepts_a_twin_quantale_record(tmp_path, capsys):
    code, out, _ = run(["check", "cancellative", "--quantale", "B1",
                        "--category", "Y", "--workspace",
                        write(tmp_path, TWIN_WS)], capsys)
    assert code == 0 and "PASS      cancellative[B1,Y]" in out


def test_homomorphism_demands_algebras(ws_path, capsys):
    # S carries a right-adjoint algebra, so this actually runs
    code, _, _ = run(
        ["check", "homomorphism", "--functor", "swap", "--spec", "adjoints",
         "--workspace", ws_path], capsys)
    assert code == 0
    # but no algebra for the whole presheaf monad
    code, _, err = run(
        ["check", "homomorphism", "--functor", "swap", "--spec", "everything",
         "--workspace", ws_path], capsys)
    assert code == 2 and "S does not carry" in err


# ---------------------------------------------------------- compute verbs


def test_presheaf_fragment_round_trips(ws_path, tmp_path, capsys):
    code, out, _ = run(
        ["compute", "presheaf", "--category", "C2", "--format", "json",
         "--workspace", ws_path], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["outputs"]["category"] == "P(C2)"
    path = write(tmp_path, report["workspace"], "frag.json")
    ws = cli.parse_workspace(path)
    assert not ws.failures
    X = validate_category("C2", BOOL, ["p", "q"],
                          [[BOOL.elem(1), BOOL.elem(1)],
                           [BOOL.elem(0), BOOL.elem(1)]])
    PX = presheaf_category(X)
    got = ws.get("category", "P(C2)")
    assert got.objects == PX.objects
    assert [[str(v) for v in row] for row in got.hom] == \
        [[str(v) for v in row] for row in PX.hom]
    assert ws.get("functor", "y_C2").on_label("p") == "[1,0]"


def test_colimit_fragment_validates(ws_path, tmp_path, capsys):
    # the weight wid and the diagram idc share their codomain C2, which
    # the fragment must list once for its names to stay unique
    code, out, _ = run(
        ["compute", "colimit", "--weight", "wid", "--diagram", "idc", "--format", "json",
         "--workspace", ws_path], capsys)
    assert code == 0
    frag = json.loads(out)["workspace"]
    assert [c["name"] for c in frag["categories"]] == ["C2"]
    code, _, _ = run(["validate", "--workspace", write(tmp_path, frag, "frag.json")], capsys)
    assert code == 0


def test_ball_algebra_over_emitted_category(ws_path, tmp_path, capsys):
    code, out, _ = run(
        ["compute", "ball", "--category", "C2", "--format", "json",
         "--workspace", ws_path], capsys)
    frag = json.loads(out)["workspace"]
    frag["functors"].append(
        {"name": "act", "dom": "Bb(C2)", "cod": "C2",
         "mapping": {"(p,0)": "p", "(p,1)": "p", "(q,0)": "p", "(q,1)": "q"}})
    path = write(tmp_path, frag, "ball.json")
    code, out, _ = run(
        ["check", "ball-algebra", "--functor", "act", "--category", "C2",
         "--workspace", path], capsys)
    assert code == 0
    # breaking the unit pointing flips the verdict
    frag["functors"][-1]["mapping"]["(q,1)"] = "p"
    path = write(tmp_path, frag, "ball2.json")
    code, out, _ = run(
        ["check", "ball-algebra", "--functor", "act", "--category", "C2",
         "--workspace", path], capsys)
    assert code == 1 and "witness=q" in out


def test_ball_algebra_rejects_foreign_domain(ws_path, capsys):
    code, _, err = run(
        ["check", "ball-algebra", "--functor", "idc", "--category", "C2",
         "--workspace", ws_path], capsys)
    assert code == 2
    assert "ball category" in err


def test_colimit_success_and_failure(ws_path, tmp_path, capsys):
    code, out, _ = run(
        ["compute", "colimit", "--weight", "wid", "--diagram", "idc",
         "--workspace", ws_path], capsys)
    assert code == 0 and "colim(idc)" in out
    # a weight that is not even a distributor is a precondition error
    code, _, err = run(
        ["compute", "colimit", "--weight", "bad", "--diagram", "idc",
         "--workspace", ws_path], capsys)
    assert code == 2 and "not a distributor" in err
    # a genuine distributor without representatives is an honest fail
    doc = {"quantales": [{"name": "B", "kind": "boolean2"}],
           "categories": [{"name": "D2", "quantale": "B",
                           "objects": ["a", "b"], "hom": [[1, 0], [0, 1]]}],
           "functors": [{"name": "idd", "dom": "D2", "cod": "D2",
                         "mapping": {"a": "a", "b": "b"}}],
           "relations": [{"name": "wall", "dom": "D2", "cod": "D2",
                          "matrix": [[1, 1], [1, 1]]}]}
    code, out, _ = run(
        ["compute", "colimit", "--weight", "wall", "--diagram", "idd",
         "--workspace", write(tmp_path, doc)], capsys)
    assert code == 1
    assert "nothing in D2 represents" in out


@pytest.mark.parametrize("flags, message", [
    (["--diagram", "idc"], "UsageError: this command needs --weight"),
    (["--weight", "wid"], "UsageError: this command needs --diagram"),
    (["--weight", "nope", "--diagram", "idc"],
     "UnresolvedReference: weight 'nope' is not declared"),
    (["--weight", "wid", "--diagram", "nope"],
     "UnresolvedReference: diagram 'nope' is not declared"),
], ids=["no-weight", "no-diagram", "undeclared-weight", "undeclared-diagram"])
def test_colimit_errors_name_its_own_flags(ws_path, capsys, flags, message):
    code, out, err = run(["compute", "colimit", *flags, "--workspace", ws_path], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_b_embedding_over_a_rational_kind_is_not_enumerable(tmp_path, capsys, fmt):
    # a fully faithful functor passes pointing; the radii are not enumerable
    doc = {"quantales": [{"name": "R", "kind": "ext_real_plus"}],
           "categories": [{"name": "R2", "quantale": "R", "objects": ["a", "b"],
                           "hom": [["0", "1"], ["2", "0"]]}],
           "functors": [{"name": "id2", "dom": "R2", "cod": "R2",
                         "mapping": {"a": "a", "b": "b"}}]}
    code, out, err = run(["check", "b-embedding", "--functor", "id2", "--format", fmt,
                          "--workspace", write(tmp_path, doc)], capsys)
    assert code == 2
    message = "NotEnumerable: cannot enumerate radii over ext_real_plus"
    if fmt == "json":
        assert json.loads(out)["error"] == message and err == ""
    else:
        assert err == f"error: {message}\n" and out == ""


def test_colimit_compares_quantales_by_structure(tmp_path, capsys):
    # Y lives over a second boolean2 record: the same quantale under
    # another name, as functor and relation records already accept
    def doc(y_quantale):
        return {"quantales": [{"name": "B1", "kind": "boolean2"},
                              {"name": "B2", "kind": "boolean2"}],
                "categories": [{"name": name, "quantale": q, "objects": ["p", "q"],
                                "hom": [[1, 1], [0, 1]]}
                               for name, q in (("X", "B1"), ("Y", y_quantale))],
                "functors": [{"name": "f", "dom": "X", "cod": "Y",
                              "mapping": {"p": "p", "q": "q"}}],
                "relations": [{"name": "w", "dom": "X", "cod": "X",
                               "matrix": [[1, 1], [0, 1]]}]}

    reports = []
    for y_quantale in ("B2", "B1"):
        path = write(tmp_path, doc(y_quantale), f"{y_quantale}.json")
        code, out, err = run(["compute", "colimit", "--weight", "w", "--diagram", "f",
                              "--format", "json", "--workspace", path], capsys)
        assert code in (0, 1) and err == ""
        report = json.loads(out)
        reports.append((code, [c["verdict"] for c in report["checks"]],
                        report["outputs"]))
    assert reports[0] == reports[1]


def _fail(*args):
    raise InternalError("boom")


def _too_long(X):
    """Value tuples one entry longer than X has objects: no member
    category holds them, so `member_functor`'s default escape fires."""
    return tuple(row + row[:1] for row in X.hom)


@pytest.mark.parametrize("target, replacement, argv", [
    # the Yoneda embedding looks its images up in PX
    ("quantcat.presheaf.representables", _too_long,
     ["compute", "presheaf", "--category", "C2"]),
    # the colimit's representative map is checked to be a functor; the
    # handler turns only NoColimit into a fail verdict
    ("quantcat.colimit.is_functor", lambda *a: False,
     ["compute", "colimit", "--weight", "wid", "--diagram", "idc"]),
    # a record build that fails internally is not stored as a bad record
    ("quantcat.cli.validate_category", _fail, ["validate"]),
    # the completion's unit looks its images up in LX
    ("quantcat.lawvere.representables", _too_long,
     ["complete", "lawvere", "--category", "S"]),
], ids=["yoneda", "colimit", "parse", "completion-unit"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_failed_invariant_exits_4(ws_path, capsys, monkeypatch, target,
                                  replacement, argv, fmt):
    monkeypatch.setattr(target, replacement)
    code, out, err = run([*argv, "--format", fmt, "--workspace", ws_path], capsys)
    assert code == 4
    message = json.loads(out)["error"] if fmt == "json" else err
    assert "InternalError: " in message
    assert "Traceback" not in out + err


# the docstring's diamond quantale D, and a two-object category over it
DIAMOND_WS = {
    "quantales": [{"name": "D", "carrier": ["o", "a", "b", "i"],
                   "leq": [["o", "a"], ["o", "b"], ["a", "i"], ["b", "i"]],
                   "tensor": [["o", "o", "o", "o"], ["o", "a", "o", "a"],
                              ["o", "o", "b", "b"], ["o", "a", "b", "i"]],
                   "unit": "i"}],
    "categories": [{"name": "X", "quantale": "D", "objects": ["x", "y"],
                    "hom": [["i", "a"], ["b", "i"]]}],
}


@pytest.mark.parametrize("argv", [["complete", "lawvere"], ["compute", "lawvere-completion"]],
                         ids=["complete", "compute"])
def test_the_completion_spends_its_budget_on_x_alone(tmp_path, capsys, argv):
    # 16 presheaves on X make 256 (presheaf, left adjoint) pairs, and the
    # completion enumerates nothing else: L(L(X)) would make 65536
    path = write(tmp_path, DIAMOND_WS)
    reports = {}
    for budget in (1000, 70000):
        code, out, err = run([*argv, "--category", "X", "--budget", str(budget),
                              "--format", "json", "--workspace", path], capsys)
        assert (code, err) == (0, "")
        reports[budget] = {k: v for k, v in json.loads(out).items()
                           if k not in ("command", "budget")}
    assert reports[1000] == reports[70000]
    assert reports[1000]["checks"] == [
        {"name": "lawvere-completion[X]", "verdict": "pass", "witness": None,
         "reason": None, "detail": {"objects": 4}}]
    assert reports[1000]["outputs"] == {"category": "L(X)", "unit": "complete_X"}
    lx = next(c for c in reports[1000]["workspace"]["categories"] if c["name"] == "L(X)")
    assert lx["objects"] == ["[a,b]", "[a,i]", "[i,b]", "[i,i]"]


def test_complete_is_an_alias(ws_path, capsys):
    _, via_alias, _ = run(
        ["complete", "lawvere", "--category", "S", "--format", "json",
         "--workspace", ws_path], capsys)
    _, direct, _ = run(
        ["compute", "lawvere-completion", "--category", "S", "--format",
         "json", "--workspace", ws_path], capsys)
    a, b = json.loads(via_alias), json.loads(direct)
    assert a["command"] != b["command"]
    for key in ("checks", "outputs", "workspace"):
        assert a[key] == b[key]


def test_cauchy_pair_outputs(ws_path, capsys):
    code, out, _ = run(
        ["compute", "cauchy-pair", "--sequence", "s", "--format", "json",
         "--workspace", ws_path], capsys)
    assert code == 0
    outputs = json.loads(out)["outputs"]
    assert outputs["representative"] == "v"
    assert outputs["unit"] == "0"
    assert outputs["phi"] == ["1", "0", "2"]
    assert outputs["psi"] == ["1", "0", "2"]


# ------------------------------------------------- handler golden reports

GOLDEN_REPORTS = Path(__file__).parent / "golden" / "cli_reports.json"

# BASIC plus two table specs: `compute submonad` reads the first, and the
# second lacks the representable [1,0], so it fails admissibility at idc^*
HANDLER_WS = dict(BASIC, submonad_specs=BASIC["submonad_specs"] + [
    {"name": "tbl", "kind": "table", "members": {"C2": ["[1,0]", "[1,1]"]}},
    {"name": "top_only", "kind": "table", "members": {"C2": ["[1,1]"]}}])

# one pass case per handler, and a fail case wherever BASIC has one
HANDLER_CASES = {
    "fully-dense-pass": ["check", "fully-dense", "--functor", "idc"],
    "fully-dense-fail": ["check", "fully-dense", "--functor", "crush"],
    "adjunction-pass": ["check", "adjunction", "--functor", "idc",
                        "--adjoint", "idc"],
    "adjunction-fail": ["check", "adjunction", "--functor", "crush",
                        "--adjoint", "idc"],
    "bc-square-pass": ["check", "bc-square", "--square", "sq"],
    "t-embedding-pass": ["check", "t-embedding", "--spec", "everything",
                         "--functor", "idc"],
    "t-embedding-fail": ["check", "t-embedding", "--spec", "everything",
                         "--functor", "crush"],
    "b-embedding-pass": ["check", "b-embedding", "--functor", "idc"],
    "b-embedding-fail": ["check", "b-embedding", "--functor", "crush"],
    "tensored-pass": ["check", "tensored", "--category", "C2"],
    "tensored-fail": ["check", "tensored", "--category", "S"],
    "l-complete-pass": ["check", "l-complete", "--category", "S"],
    "submonad-table": ["compute", "submonad", "--category", "C2",
                       "--spec", "tbl"],
    "submonad-adjoints": ["compute", "submonad", "--category", "S",
                          "--spec", "adjoints"],
    "algebra-pass": ["compute", "algebra", "--category", "C2",
                     "--spec", "everything"],
    "algebra-fail": ["compute", "algebra", "--category", "S",
                     "--spec", "everything"],
    "check-algebra-pass": ["check", "algebra", "--category", "C2",
                           "--spec", "everything"],
    "check-algebra-fail": ["check", "algebra", "--category", "S",
                           "--spec", "everything"],
    "homomorphism-pass": ["check", "homomorphism", "--functor", "swap",
                          "--spec", "adjoints"],
    "homomorphism-fail": ["check", "homomorphism", "--functor", "crush",
                          "--spec", "everything"],
    # the only CLI route into a table spec's membership in `check admissible`;
    # the table does not list tbl(C2), so the multiplication is unchecked
    "admissible-table": ["check", "admissible", "--spec", "tbl",
                         "--quantale", "B"],
    "admissible-fail": ["check", "admissible", "--spec", "top_only", "--quantale", "B"],
    "lax-idempotent-ball": ["check", "lax-idempotent", "--category", "C2",
                            "--monad", "ball"],
    "lax-idempotent-ball-plain": ["check", "lax-idempotent", "--category", "C2",
                                  "--monad", "ball", "--plain"],
}


def handler_report(argv, path, capsys):
    """(exit code, JSON report) with the workspace path blanked out."""
    code, out, _ = run(argv + ["--format", "json", "--workspace", path], capsys)
    report = json.loads(out)
    report["command"] = report["command"].replace(path, "WS")
    return code, report


@pytest.mark.parametrize("case", list(HANDLER_CASES))
def test_handler_report_matches_golden(tmp_path, capsys, case):
    path = write(tmp_path, HANDLER_WS)
    code, report = handler_report(HANDLER_CASES[case], path, capsys)
    golden = json.loads(GOLDEN_REPORTS.read_text())[case]
    assert code == golden["exit"]
    assert report == golden["report"]


# The rational kinds, whose (T) and distributor checks run on integer codes.
# Each failing record has a later violation too, so a witness out of scan
# order shows.
RATIONAL_WS = {
    "quantales": [
        {"name": "R", "kind": "ext_real_plus"},
        {"name": "P", "kind": "unit_interval_product"},
        {"name": "L", "kind": "lukasiewicz_rational"},
    ],
    "categories": [
        {"name": "X", "quantale": "R", "objects": ["a", "b", "c"],
         "hom": [[0, 1, "inf"], ["inf", 0, "inf"], ["inf", "1/2", 0]]},
        {"name": "Z", "quantale": "R", "objects": ["u", "v"],
         "hom": [[0, "3/2"], ["2/3", 0]]},
        # (T) fails at (a,b,c), (b,c,a) and (c,a,b)
        {"name": "Rbad", "quantale": "R", "objects": ["a", "b", "c"],
         "hom": [[0, 1, "inf"], ["inf", 0, 2], ["1/3", "inf", 0]]},
        # (T) fails at (a,b,c), but reflexivity at c comes first
        {"name": "Rrefl", "quantale": "R", "objects": ["a", "b", "c"],
         "hom": [[0, 1, 5], [0, 0, 1], [0, 0, 3]]},
        {"name": "Pbad", "quantale": "P", "objects": ["a", "b", "c"],
         "hom": [[1, "1/2", "1/8"], ["1/2", 1, "1/2"], [0, "1/3", 1]]},
        {"name": "Lbad", "quantale": "L", "objects": ["a", "b", "c"],
         "hom": [[1, "3/4", "1/5"], ["2/3", 1, "5/6"], ["1/7", "1/2", 1]]},
        {"name": "Q", "quantale": "P", "objects": ["s", "t"],
         "hom": [[1, "1/2"], ["1/3", 1]]},
        {"name": "K", "quantale": "L", "objects": ["s", "t"],
         "hom": [[1, "2/5"], ["3/4", 1]]},
    ],
    "relations": [
        {"name": "x_pass", "dom": "X", "cod": "X",
         "matrix": [[0, 1, "inf"], ["inf", 0, "inf"], ["inf", "1/2", 0]]},
        # escapes at (a,u) and (c,u)
        {"name": "x_dom_bad", "dom": "X", "cod": "Z",
         "matrix": [["inf", 2], [0, "inf"], ["inf", "inf"]]},
        {"name": "x_cod_bad", "dom": "X", "cod": "Z",
         "matrix": [[1, 3], ["inf", "inf"], ["inf", "inf"]]},
        {"name": "q_pass", "dom": "Q", "cod": "Q",
         "matrix": [["1/2", "1/4"], ["1/6", "1/2"]]},
        {"name": "q_dom_bad", "dom": "Q", "cod": "Q",
         "matrix": [["1/2", "1/5"], ["1/6", "1/2"]]},
        {"name": "k_pass", "dom": "K", "cod": "K",
         "matrix": [[1, "2/5"], ["3/4", 1]]},
        {"name": "k_cod_bad", "dom": "K", "cod": "K",
         "matrix": [[0, 0], [0, "1/3"]]},
    ],
    "sequences": [
        {"name": "seq", "category": "X", "points": ["c", "a", "b", "b"],
         "stable_from": 2},
    ],
}

RATIONAL_CASES = {
    "rational-validate": ["validate"],
    "rational-distributor-pass": ["check", "distributor", "--relation", "x_pass"],
    "rational-distributor-domain": ["check", "distributor", "--relation",
                                    "x_dom_bad"],
    "rational-distributor-codomain": ["check", "distributor", "--relation",
                                      "x_cod_bad"],
    "product-distributor-pass": ["check", "distributor", "--relation", "q_pass"],
    "product-distributor-domain": ["check", "distributor", "--relation",
                                   "q_dom_bad"],
    "lukasiewicz-distributor-pass": ["check", "distributor", "--relation",
                                     "k_pass"],
    "lukasiewicz-distributor-codomain": ["check", "distributor", "--relation",
                                         "k_cod_bad"],
    "rational-cauchy-pair": ["compute", "cauchy-pair", "--sequence", "seq"],
}


@pytest.mark.parametrize("case", list(RATIONAL_CASES))
def test_rational_report_matches_golden(tmp_path, capsys, case):
    path = write(tmp_path, RATIONAL_WS)
    code, report = handler_report(RATIONAL_CASES[case], path, capsys)
    golden = json.loads(GOLDEN_REPORTS.read_text())[case]
    assert code == golden["exit"]
    assert report == golden["report"]


# Reports built from an enumerated PX: the presheaf search and PX's hom.
PRESHEAF_WS = {
    "quantales": [
        {"name": "B", "kind": "boolean2"},
        {"name": "G2", "kind": "goedel_chain", "n": 2},
        # the non-chain quantale of the `cli` docstring
        {"name": "D", "carrier": ["o", "a", "b", "i"],
         "leq": [["o", "a"], ["o", "b"], ["a", "i"], ["b", "i"]],
         "tensor": [["o", "o", "o", "o"], ["o", "a", "o", "a"],
                    ["o", "o", "b", "b"], ["o", "a", "b", "i"]],
         "unit": "i"},
    ],
    "categories": [
        {"name": "G2chain3", "quantale": "G2", "objects": ["a", "b", "c"],
         "hom": [[1, 1, 1], [0, 1, 1], [0, 0, 1]]},
        {"name": "Dcat", "quantale": "D", "objects": ["x", "y", "z"],
         "hom": [["i", "o", "o"], ["o", "i", "o"], ["a", "b", "i"]]},
        {"name": "G2disc3", "quantale": "G2", "objects": ["u", "v", "w"],
         "hom": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
        {"name": "Bchain5", "quantale": "B", "objects": ["p", "q", "r", "s", "t"],
         "hom": [[1 if i <= j else 0 for j in range(5)] for i in range(5)]},
        # the shapes of the benchmark's two large `compute presheaf` requests
        {"name": "G2chain8", "quantale": "G2", "objects": [f"c{i}" for i in range(8)],
         "hom": [[1 if i <= j else 0 for j in range(8)] for i in range(8)]},
        {"name": "Bdisc7", "quantale": "B", "objects": [f"d{i}" for i in range(7)],
         "hom": [[1 if i == j else 0 for j in range(7)] for i in range(7)]},
    ],
}

PRESHEAF_CASES = {
    "presheaf-goedel-chain": ["compute", "presheaf", "--category", "G2chain3"],
    "presheaf-non-chain": ["compute", "presheaf", "--category", "Dcat"],
    "lawvere-discrete": ["complete", "lawvere", "--category", "G2disc3"],
    "l-complete-discrete": ["check", "l-complete", "--category", "G2disc3"],
    "lax-idempotent-chain": ["check", "lax-idempotent", "--category", "Bchain5"],
}

# too large to keep in full: pinned by the SHA-256 of the JSON report's
# bytes, with the workspace path blanked out
PRESHEAF_DIGEST_CASES = {
    "presheaf-chain8-digest": ["compute", "presheaf", "--category", "G2chain8"],
    "presheaf-disc7-digest": ["compute", "presheaf", "--category", "Bdisc7"],
}


@pytest.mark.parametrize("case", list(PRESHEAF_CASES))
def test_presheaf_report_matches_golden(tmp_path, capsys, case):
    path = write(tmp_path, PRESHEAF_WS)
    code, report = handler_report(PRESHEAF_CASES[case], path, capsys)
    golden = json.loads(GOLDEN_REPORTS.read_text())[case]
    assert code == golden["exit"]
    assert report == golden["report"]


def assert_digest_matches_golden(tmp_path, capsys, doc, argv, case):
    path = write(tmp_path, doc)
    code, out, _ = run(argv + ["--format", "json", "--workspace", path], capsys)
    golden = json.loads(GOLDEN_REPORTS.read_text())[case]
    assert code == golden["exit"]
    assert hashlib.sha256(out.replace(path, "WS").encode()).hexdigest() == golden["sha256"]


@pytest.mark.parametrize("case", list(PRESHEAF_DIGEST_CASES))
def test_large_presheaf_report_matches_digest(tmp_path, capsys, case):
    assert_digest_matches_golden(tmp_path, capsys, PRESHEAF_WS,
                                 PRESHEAF_DIGEST_CASES[case], case)


# Ball categories: the shape of the benchmark's `compute ball` request, a
# 16-chain over lukasiewicz_chain(4), and a category over the non-chain D
BALL_WS = {
    "quantales": [{"name": "L4", "kind": "lukasiewicz_chain", "n": 4},
                  PRESHEAF_WS["quantales"][2]],
    "categories": [
        {"name": "L4chain16", "quantale": "L4", "objects": [f"c{i}" for i in range(16)],
         "hom": [[1 if i <= j else 0 for j in range(16)] for i in range(16)]},
        PRESHEAF_WS["categories"][1],
    ],
}

BALL_DIGEST_CASES = {
    "ball-chain16-digest": ["compute", "ball", "--category", "L4chain16"],
    "ball-chain16-plain-digest": ["compute", "ball", "--category", "L4chain16",
                                  "--plain"],
    "ball-non-chain-digest": ["compute", "ball", "--category", "Dcat"],
    "ball-non-chain-plain-digest": ["compute", "ball", "--category", "Dcat",
                                    "--plain"],
}


@pytest.mark.parametrize("case", list(BALL_DIGEST_CASES))
def test_ball_report_matches_digest(tmp_path, capsys, case):
    assert_digest_matches_golden(tmp_path, capsys, BALL_WS, BALL_DIGEST_CASES[case], case)


# Branches of the CLI that need a workspace of their own, each pinned as a report
BRANCH_CASES = {
    "validate-empty": ({}, ["validate"]),
    "validate-functor-to-a-non-object": (
        {"quantales": BASIC["quantales"][:1], "categories": BASIC["categories"][:1],
         "functors": [{"name": "stray", "dom": "C2", "cod": "C2",
                       "mapping": {"p": "p", "q": "z"}}]},
        ["validate"]),
    # an action on the extended ball category of C2, as `compute ball`
    # emits it, that lands in a one-object category instead of C2
    "ball-algebra-foreign-codomain": (
        {"quantales": BASIC["quantales"][:1],
         "categories": BASIC["categories"][:1] + [
             {"name": "Bb(C2)", "quantale": "B",
              "objects": ["(p,0)", "(p,1)", "(q,0)", "(q,1)"],
              "hom": [[1, 1, 1, 1], [0, 1, 0, 1], [1, 1, 1, 1], [0, 0, 0, 1]]},
             {"name": "pt", "quantale": "B", "objects": ["t"], "hom": [[1]]}],
         "functors": [{"name": "to_pt", "dom": "Bb(C2)", "cod": "pt",
                       "mapping": {"(p,0)": "t", "(p,1)": "t", "(q,0)": "t",
                                   "(q,1)": "t"}}]},
        ["check", "ball-algebra", "--functor", "to_pt", "--category", "C2"]),
    # a fragment over ext_real_plus, whose carrier is not enumerable
    "colimit-ext-real": (
        {"quantales": BASIC["quantales"][2:], "categories": BASIC["categories"][2:],
         "functors": [{"name": "idm", "dom": "M", "cod": "M",
                       "mapping": {"u": "u", "v": "v", "w": "w"}}],
         "relations": [{"name": "wm", "dom": "M", "cod": "M",
                        "matrix": [[0, 1, 3], [1, 0, 2], [3, 2, 0]]}]},
        ["compute", "colimit", "--weight", "wm", "--diagram", "idm"]),
}


@pytest.mark.parametrize("case", list(BRANCH_CASES))
def test_branch_report_matches_golden(tmp_path, capsys, case):
    doc, argv = BRANCH_CASES[case]
    path = write(tmp_path, doc)
    code, out, _ = run(argv + ["--format", "json", "--workspace", path], capsys)
    golden = json.loads(GOLDEN_REPORTS.read_text())[case]
    assert code == golden["exit"]
    # the path also appears in the witness of a record that failed validation
    assert json.loads(out.replace(path, "WS")) == golden["report"]


def test_selftest_report_matches_digest(capsys):
    code, out, _ = run(["selftest", "--format", "json"], capsys)
    golden = json.loads(GOLDEN_REPORTS.read_text())["selftest-digest"]
    assert code == golden["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == golden["sha256"]


def test_boolean2_rejects_a_parameter(tmp_path, capsys):
    doc = {"quantales": [{"name": "B", "kind": "boolean2", "n": 5}]}
    code, out, _ = run(["validate", "--workspace", write(tmp_path, doc)], capsys)
    assert code == 1
    assert out.splitlines()[1].startswith("FAIL      quantale:B")


# ---------------------------------------------------------------- reports


def test_json_reports_are_deterministic(ws_path, capsys):
    argv = ["check", "lax-idempotent", "--category", "S", "--format", "json",
            "--workspace", ws_path]
    _, first, _ = run(argv, capsys)
    _, second, _ = run(argv, capsys)
    assert first == second
    report = json.loads(first)
    assert set(report) == {"command", "budget", "checks"}
    check = report["checks"][0]
    assert set(check) == {"name", "verdict", "witness", "reason", "detail"}
    assert check["verdict"] == "pass"
    assert report["budget"] == 10 ** 6


@pytest.mark.parametrize("argv, refused", [
    (["selftest", "--seed", "7"], "unrecognized arguments: --seed 7"),
    (["check", "lax-idempotent", "--category", "C2", "--monad", "ball-plain"],
     "invalid choice: 'ball-plain'"),
    # --plain where no ball variant is read
    (["check", "separated", "--category", "C2", "--plain"],
     "UsageError: --plain picks a ball variant, and this command runs none"),
    (["check", "lax-idempotent", "--category", "C2", "--plain"],
     "UsageError: --plain picks a ball variant, and this command runs none"),
    # a target flag, or --monad, that the command does not read: these were
    # accepted, ignored, and the target flags listed in the check's name
    (["check", "separated", "--category", "C2", "--functor", "nothing", "--spec", "zz"],
     "UsageError: check separated reads no --functor"),
    (["check", "separated", "--category", "C2", "--monad", "ball"],
     "UsageError: check separated reads no --monad"),
    (["check", "tensored", "--category", "C2", "--monad", "presheaf"],
     "UsageError: check tensored reads no --monad"),
    (["compute", "presheaf", "--category", "C2", "--spec", "everything"],
     "UsageError: compute presheaf reads no --spec"),
    (["complete", "lawvere", "--category", "C2", "--sequence", "s"],
     "UsageError: compute lawvere-completion reads no --sequence"),
    # a negative --budget, which used to make every search "exceed the
    # budget -5"; refused before the workspace is read, as this one is absent
    (["check", "l-complete", "--category", "X", "--budget", "-5", "--workspace", "absent.json"],
     "UsageError: --budget is at least 0, not -5"),
    (["selftest", "--budget", "-1"], "UsageError: --budget is at least 0, not -1"),
])
def test_retired_options_are_usage_errors(argv, refused):
    proc = subprocess.run([sys.executable, "-m", "quantcat.cli", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stdout == ""
    assert refused in proc.stderr and "Traceback" not in proc.stderr


def test_a_zero_budget_is_valid(ws_path, capsys):
    code, out, _ = run(["check", "separated", "--category", "C2", "--budget", "0",
                        "--workspace", ws_path], capsys)
    assert code == 0 and "PASS      separated[C2]" in out


# a blown budget leaves a criterion unchecked, with the ceiling as its reason
SELFTEST_UNCHECKED = {
    5000: {"C2": "6561 candidate maps on P(luk_asym) exceed the budget 5000",
           "C3": "6561 candidate maps on P(luk_asym) exceed the budget 5000",
           "C11": "65536 candidate (presheaf, left adjoint) pairs on L(pair) "
                  "exceed the budget 5000"},
    10: {"C2": "16 candidate maps on P(chain3) exceed the budget 10",
         "C3": "16 candidate maps on P(disc2) exceed the budget 10",
         "C5": "16 candidate maps on P(disc2) exceed the budget 10",
         "C6": "16 candidate matrices over budget 10",
         "C10": "27 candidate maps on V(lukasiewicz_chain(2)) exceed the budget 10",
         "C11": "16 candidate (presheaf, left adjoint) pairs on chain2 "
                "exceed the budget 10",
         "C12": "16 candidate maps on lat4 exceed the budget 10"},
}


@pytest.mark.parametrize("budget", list(SELFTEST_UNCHECKED))
def test_selftest_over_budget_is_unchecked(capsys, budget):
    unchecked = SELFTEST_UNCHECKED[budget]
    argv = ["selftest", "--budget", str(budget)]
    code, out, err = run(argv + ["--format", "json"], capsys)
    assert code == 3 and err == ""
    checks = json.loads(out)["checks"]
    assert [c["name"] for c in checks] == [f"C{k}" for k in range(1, 13)]
    for c in checks:
        if c["name"] in unchecked:
            assert (c["verdict"], c["witness"], c["reason"]) == \
                ("unchecked", None, unchecked[c["name"]])
            assert set(c["detail"]) == {"label"}
        else:
            assert (c["verdict"], c["witness"], c["reason"]) == ("pass", None, None)
    code, out, err = run(argv, capsys)
    assert code == 3 and err == ""
    assert out.splitlines()[1:] == [
        f"UNCHECKED {name}  reason={unchecked[name]}" if name in unchecked
        else f"PASS      {name}" for name in (c["name"] for c in checks)]


def test_text_report_shape(ws_path, capsys):
    code, out, _ = run(
        ["check", "separated", "--category", "C2", "--workspace", ws_path],
        capsys)
    lines = out.splitlines()
    assert lines[0].startswith("quantcat check separated")
    assert lines[1] == "PASS      separated[C2]"


# ------------------------------------------------------------- start-up

# the standard modules that `dataclasses` or a digest would pull in
WATCHED = ("hashlib", "dataclasses", "inspect")
# prints the quantcat modules loaded after the statements in argv[1], a
# bar, and the WATCHED modules loaded
_LOADED = ("import sys\n"
           "exec(sys.argv[1])\n"
           "print(*sorted(m for m in sys.modules if m.startswith('quantcat.')), '|',"
           f" *(m for m in {WATCHED!r} if m in sys.modules), file=sys.stderr)")


def loaded_after(code, *argv):
    """(quantcat modules, WATCHED modules) loaded in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", _LOADED, code, *argv],
                          capture_output=True, text=True)
    assert "Traceback" not in proc.stderr, proc.stderr
    ours, _, watched = proc.stderr.splitlines()[-1].partition("|")
    return {m.removeprefix("quantcat.") for m in ours.split()}, set(watched.split())


CLI_MAIN = "from quantcat import cli; cli.main(sys.argv[2:])"
PARSE_LAYERS = {"cli", "errors", "quantale", "vcat"}


def test_import_loads_no_command_layer():
    assert loaded_after("import quantcat.cli") == (PARSE_LAYERS, set())


def test_a_cheap_check_loads_only_its_layers(tmp_path):
    doc = {"quantales": BASIC["quantales"], "categories": BASIC["categories"]}
    assert loaded_after(CLI_MAIN, "check", "separated", "--category", "C2",
                        "--workspace", write(tmp_path, doc)) == (PARSE_LAYERS, set())


def test_parsing_relations_and_sequences_loads_no_other_layer(tmp_path):
    # squares and specs would load monadkit
    doc = {k: v for k, v in BASIC.items() if k not in ("squares", "submonad_specs")}
    assert loaded_after(CLI_MAIN, "check", "separated", "--category", "C2",
                        "--workspace", write(tmp_path, doc)) == (PARSE_LAYERS, set())


def test_compute_ball_loads_no_colimit_or_lawvere(tmp_path):
    # nor monadkit and dist: only `ball_monad` needs MonadInstance
    doc = {"quantales": BASIC["quantales"], "categories": BASIC["categories"]}
    modules, _ = loaded_after(CLI_MAIN, "compute", "ball", "--category", "C2",
                              "--workspace", write(tmp_path, doc))
    assert modules == {"cli", "errors", "quantale", "vcat", "presheaf", "ball"}


@pytest.mark.parametrize("relation", ["wid", "bad"])
def test_check_distributor_loads_only_dist(tmp_path, relation):
    # `enumerate_distributors` imports presheaf when it runs, not before
    doc = {k: v for k, v in BASIC.items() if k not in ("squares", "submonad_specs")}
    assert loaded_after(CLI_MAIN, "check", "distributor", "--relation", relation,
                        "--workspace", write(tmp_path, doc)) == (PARSE_LAYERS | {"dist"}, set())


def test_module_entry_point(ws_path):
    proc = subprocess.run(
        [sys.executable, "-m", "quantcat.cli", "check", "separated",
         "--category", "C2", "--workspace", ws_path],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "PASS" in proc.stdout
