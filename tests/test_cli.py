"""Workspace parsing, report rendering, and exit codes of the CLI."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from quantcat import cli
from quantcat.errors import ParseError, UnresolvedReference
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


def test_parse_workspace_direct(ws_path):
    ws = cli.parse_workspace(ws_path)
    assert not ws.failures
    S = ws.category("S")
    assert S.objects == ("x", "y")
    assert str(S.hom[0][1]) == "1/2"
    with pytest.raises(UnresolvedReference):
        ws.category("missing")


def test_missing_file(tmp_path):
    with pytest.raises(ParseError):
        cli.parse_workspace(str(tmp_path / "nope.json"))


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


def test_cancellative_category_must_match(ws_path, capsys):
    code, _, err = run(
        ["check", "cancellative", "--quantale", "L2", "--category", "C2",
         "--workspace", ws_path], capsys)
    assert code == 2
    code, out, _ = run(
        ["check", "cancellative", "--quantale", "L2", "--category", "S",
         "--workspace", ws_path], capsys)
    assert code == 0


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
    got = ws.category("P(C2)")
    assert got.objects == PX.objects
    assert [[str(v) for v in row] for row in got.hom] == \
        [[str(v) for v in row] for row in PX.hom]
    assert ws.functor("y_C2").on_label("p") == "[1,0]"


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

# BASIC plus one table spec, so that `compute submonad` reads a table
HANDLER_WS = dict(BASIC, submonad_specs=BASIC["submonad_specs"] + [
    {"name": "tbl", "kind": "table", "members": {"C2": ["[1,0]", "[1,1]"]}}])

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
    # the only CLI route into a table spec's membership in `check admissible`
    "admissible-table": ["check", "admissible", "--spec", "tbl",
                         "--quantale", "B"],
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
    assert set(report) == {"command", "budget", "seed", "checks"}
    check = report["checks"][0]
    assert set(check) == {"name", "verdict", "witness", "reason", "detail"}
    assert check["verdict"] == "pass"
    assert report["budget"] == 10 ** 6 and report["seed"] == 0


def test_text_report_shape(ws_path, capsys):
    code, out, _ = run(
        ["check", "separated", "--category", "C2", "--workspace", ws_path],
        capsys)
    lines = out.splitlines()
    assert lines[0].startswith("quantcat check separated")
    assert lines[1] == "PASS      separated[C2]"


def test_module_entry_point(ws_path):
    proc = subprocess.run(
        [sys.executable, "-m", "quantcat.cli", "check", "separated",
         "--category", "C2", "--workspace", ws_path],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "PASS" in proc.stdout
