"""Weighted colimits, algebra extraction, and the cross-characterisations."""

import json
from collections import Counter

import pytest
from hypothesis import given

from quantcat import cli, monadkit, selftest
from quantcat.colimit import (
    algebra_extract,
    injectivity_check,
    min_characterization,
    min_point,
    t_homomorphism_check,
    weighted_colimit,
)
from quantcat.dist import (
    compose,
    enumerate_distributors,
    identity_distributor,
    point_column,
    right_extension,
    star_lower,
    star_upper,
)
from quantcat.errors import (
    BudgetExceeded,
    NoColimit,
    NoMinimum,
    QuantaleMismatch,
    ShapeMismatch,
)
from quantcat.monadkit import (
    submonad_all,
    submonad_monad,
    submonad_right_adjoints,
    submonad_user_table,
)
from quantcat.presheaf import extension_rows
from quantcat.quantale import builtin, show_value
from quantcat.vcat import (VRelation, check_adjunction, hom_self_category, identity_functor,
                           is_functor, raw_functor, unit_category)

from .helpers import (BOOL, all_functors, bool_chain2, bool_chain3, bool_discrete,
                      bool_indiscrete2, cat, condition2_by_loop, luk2_asym, luk2_sym)
from .test_presheaf import PROPERTY, finite_categories

GO3 = builtin("goedel_chain", 3)
LUK3 = builtin("lukasiewicz_chain", 3)

CHAIN2 = bool_chain2()
CHAIN3 = bool_chain3()
DISC2 = bool_discrete(2)
EMB = raw_functor("emb", CHAIN2, CHAIN3, {"x": "x", "y": "y"})
VEE = cat("vee", BOOL, ["d0", "d1", "t"], [[1, 0, 1], [0, 1, 1], [0, 0, 1]])
INTO_VEE = raw_functor("into_vee", DISC2, VEE, {"d0": "d0", "d1": "d1"})
# the two monads of the distinguished classes; each builds a TX once
ALL = submonad_monad(submonad_all())
RA = submonad_monad(submonad_right_adjoints())


def top_weight(X):
    E = point_column(X, X.objects[0]).cod
    col = tuple((X.quantale.top,) for _ in X.objects)
    return VRelation(X, E, col)


def test_weighted_diagram_guards():
    luk_pt = cat("pt", LUK3, ["*"], [[1]])
    with pytest.raises(QuantaleMismatch, match="weight over lukasiewicz_chain"):
        weighted_colimit(top_weight(luk_pt), EMB)
    with pytest.raises(ShapeMismatch, match="share their source"):
        weighted_colimit(top_weight(CHAIN3), EMB)


def test_point_weight_colimit_is_the_image():
    for x in CHAIN2.objects:
        g = weighted_colimit(point_column(CHAIN2, x), EMB)
        assert g.dom.objects == ("*",)
        assert g.mapping == (EMB(CHAIN2.index(x)),)
    g = weighted_colimit(point_column(CHAIN3, "y"), identity_functor(CHAIN3))
    assert g.mapping == (CHAIN3.index("y"),)


def test_no_colimit_names_the_first_bad_object():
    with pytest.raises(NoColimit, match="nothing in disc2 represents"):
        weighted_colimit(top_weight(DISC2), identity_functor(DISC2))


def test_weight_shift_keeps_the_extension():
    # [φ, f_*] = [φ·f^*, (1_Z)_*] for every weight and both diagrams
    for f in (EMB, identity_functor(CHAIN2)):
        for phi in enumerate_distributors(CHAIN2, CHAIN2):
            direct = right_extension(phi, star_lower(f))
            shifted = right_extension(compose(phi, star_upper(f)),
                                      identity_distributor(f.cod))
            assert direct.matrix == shifted.matrix


def test_pointwise_and_global_representability_agree():
    for phi in enumerate_distributors(CHAIN2, CHAIN2):
        g = weighted_colimit(phi, EMB)  # chains are complete, never raises
        for y in CHAIN2.objects:
            gy = weighted_colimit(compose(point_column(CHAIN2, y), phi), EMB)
            assert gy.mapping[0] == g.mapping[CHAIN2.index(y)]


@pytest.mark.parametrize("cats", [[CHAIN2, DISC2, bool_indiscrete2(), unit_category(BOOL)],
                                  [luk2_sym(), luk2_asym()]], ids=["boolean2", "luk2"])
def test_a_colimit_is_the_right_extension_it_represents(cats):
    # g_* = [φ, f_*], which `weighted_colimit` does not test
    found = 0
    for f in all_functors(cats):
        for Y in cats:
            for phi in enumerate_distributors(f.dom, Y):
                try:
                    g = weighted_colimit(phi, f)
                except NoColimit:
                    continue
                assert star_lower(g).matrix == right_extension(phi, star_lower(f)).matrix
                found += 1
    assert found > 100


def _check_algebras_are_functors(X):
    """Per monad: the extracted algebra is a functor left adjoint to the
    unit, and, on the same draws, condition (2) of the minimum route is
    the first escape of the per-element loop."""
    for spec in (submonad_all(), submonad_right_adjoints()):
        T = submonad_monad(spec)
        m = min_characterization(X, T)
        if not m["no_minimum"]:
            points = [X.objects.index(label) for label in m["x_phi"]]
            w = condition2_by_loop(X, T.apply(X), points)
            # some draws have every minimum and fail condition (2) alone
            assert (m["ok"], m["condition2"]) == (w is None, {"ok": w is None, "witness": w})
        rep = algebra_extract(X, T)
        alpha = rep["algebra"]
        if alpha is None:
            continue
        assert is_functor(alpha.dom, X, alpha.mapping)
        assert check_adjunction(alpha, T.unit(X)) == (True, None)
        assert rep["adjoint_to_unit"] is True


@pytest.mark.parametrize("X", [CHAIN2, CHAIN3, DISC2, VEE, bool_indiscrete2(),
                               hom_self_category(BOOL), hom_self_category(GO3),
                               hom_self_category(LUK3)],
                         ids=lambda X: X.name)
def test_extracted_algebras_are_functors(X):
    # and left adjoint to the unit, which `algebra_extract` does not test
    _check_algebras_are_functors(X)


@PROPERTY
@given(finite_categories(max_objects=2, closed=True))
def test_extracted_algebras_are_functors_at_random(X):
    _check_algebras_are_functors(X)


@pytest.mark.parametrize("q,weights", [(BOOL, 3), (GO3, 15), (LUK3, 20)],
                         ids=lambda v: getattr(v, "name", v))
def test_hom_self_is_cocomplete(q, weights):
    rep = algebra_extract(hom_self_category(q), ALL)
    assert len(rep["algebra"].dom.objects) == weights
    assert rep["failures"] == ()


def test_discrete_pair_is_not_cocomplete_for_all_weights():
    rep = algebra_extract(DISC2, ALL)
    assert rep["failures"] == ("[0,0]", "[1,1]")
    # but every right adjoint weight is representable there
    assert algebra_extract(DISC2, RA)["failures"] == ()


@pytest.mark.parametrize("q", [BOOL, GO3, LUK3], ids=lambda q: q.name)
def test_extracted_algebra_is_the_weighted_join(q):
    V = hom_self_category(q)
    rep = algebra_extract(V, ALL)
    assert rep["ok"] is True
    assert rep["ambiguous"] == ()
    alpha = rep["algebra"]
    for i, vals in enumerate(alpha.dom.presheaves):
        want = q.join(q.tensor(v, q.carrier[x]) for x, v in enumerate(vals))
        assert q.carrier[alpha(i)] == want


def test_chain_algebra_takes_suprema():
    rep = algebra_extract(CHAIN3, ALL)
    assert rep["algebra"].mapping == (0, 0, 1, 2)
    assert rep["unit_section"] is True
    assert rep["adjoint_to_unit"] is True


def test_extraction_failures_are_reported():
    rep = algebra_extract(DISC2, ALL)
    assert rep == {"category": "disc2", "spec": "all", "algebra": None,
                   "failures": ("[0,0]", "[1,1]"), "ambiguous": (),
                   "unit_section": None, "adjoint_to_unit": None, "ok": False}
    assert algebra_extract(DISC2, RA)["ok"] is True


@pytest.mark.parametrize("T, ambiguous, mapping", [
    (ALL, ("[0,0]", "[1,1]"), (0, 0)),
    (RA, ("[1,1]",), (0,)),
], ids=["all", "right_adjoints"])
def test_ties_between_isomorphic_representatives_go_to_the_least_index(
        T, ambiguous, mapping):
    # p ≅ q, so every member that has a representative has both
    rep = algebra_extract(bool_indiscrete2(), T)
    assert rep["ambiguous"] == ambiguous
    assert rep["algebra"].mapping == mapping
    # not separated, so no section of the unit exists
    assert (rep["ok"], rep["unit_section"], rep["adjoint_to_unit"]) == (False, False, True)


def test_representable_members_extract_to_identity():
    spec = submonad_user_table("reps", {"chain2": ("[1,0]", "[1,1]")})
    rep = algebra_extract(CHAIN2, submonad_monad(spec))
    assert rep["ok"] is True
    assert rep["algebra"].mapping == (0, 1)


@pytest.mark.parametrize("X", [CHAIN3, hom_self_category(GO3)],
                         ids=lambda X: X.name)
def test_hom_into_representative_row_identity(X):
    # the extension row is both TX(φ, x^*) and X(α(φ), −)
    alpha = algebra_extract(X, ALL)["algebra"]
    TX = alpha.dom
    unit = ALL.unit(X)
    for i, row in enumerate(extension_rows(X, TX.presheaves)):
        for x in range(len(X.objects)):
            assert row[x] == TX.hom[i][unit(x)] == X.hom[alpha(i)][x]


def test_min_characterization_on_a_chain():
    rep = min_characterization(CHAIN3, ALL)
    assert rep == {"category": "chain3", "spec": "all",
                   "x_phi": ("x", "x", "y", "z"), "no_minimum": (),
                   "condition2": {"ok": True, "witness": None},
                   "ok": True}
    # the down-set {x, y} really goes to y
    assert min_point(CHAIN3, tuple(map(BOOL.elem, (1, 1, 0)))) == 1


def test_min_characterization_records_missing_minima():
    rep = min_characterization(DISC2, ALL)
    assert rep["x_phi"] == (None, "d1", "d0", None)
    assert rep["no_minimum"] == ("[0,0]", "[1,1]")
    assert rep["condition2"] == {"ok": None, "witness": "[0,0]"}
    assert rep["ok"] is False
    with pytest.raises(NoMinimum, match="admits no least bound"):
        min_point(DISC2, (BOOL.top, BOOL.top))


def test_algebra_cocompleteness_minimum_equivalence():
    battery = [CHAIN2, CHAIN3, DISC2, VEE, hom_self_category(BOOL),
               hom_self_category(LUK3)]
    seen = set()
    for X in battery:
        rep = algebra_extract(X, ALL)
        a, b = rep["ok"], not rep["failures"]
        c = min_characterization(X, ALL)["ok"]
        assert a == b == c, X.name
        seen.add(a)
    assert seen == {True, False}


@pytest.mark.parametrize("q", [BOOL, GO3, LUK3], ids=lambda q: q.name)
def test_internal_hom_maps_are_strict_only_at_the_unit(q):
    V = hom_self_category(q)
    alg = algebra_extract(V, ALL)["algebra"]
    for c in q.carrier:
        mapping = {V.objects[i]: V.objects[q.carrier.index(q.hom(c, u))]
                   for i, u in enumerate(q.carrier)}
        f = raw_functor(f"hom({show_value(c.value)},-)", V, V, mapping)
        rep = t_homomorphism_check(f, ALL, alg, alg)
        assert rep["lax"] is True
        assert rep["agree"] is True
        assert rep["strict"]["ok"] is (c == q.unit)
        assert rep["homomorphism"] is (c == q.unit)


def test_identity_is_a_homomorphism():
    V = hom_self_category(BOOL)
    alg = algebra_extract(V, ALL)["algebra"]
    rep = t_homomorphism_check(identity_functor(V), ALL, alg, alg)
    assert rep["homomorphism"] is True
    assert rep["colimit_preservation"] == {"ok": True, "witness": None}


def test_lattice_collapse_is_lax_only():
    lat4 = cat("lat4", BOOL, ["o", "a", "b", "t"],
               [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 1]])
    two = cat("two", BOOL, ["0", "1"], [[1, 1], [0, 1]])
    crush = raw_functor("crush", lat4, two,
                        {"o": "0", "a": "0", "b": "0", "t": "1"})
    rep = t_homomorphism_check(crush, ALL, algebra_extract(lat4, ALL)["algebra"],
                               algebra_extract(two, ALL)["algebra"])
    assert rep["strict"] == {"ok": False, "witness": "[1,1,1,0]"}
    assert rep["colimit_preservation"] == {"ok": False, "witness": "[1,1,1,0]"}
    assert rep["agree"] is True
    assert rep["homomorphism"] is False


def test_homomorphism_check_guards():
    V = hom_self_category(BOOL)
    algV = algebra_extract(V, ALL)["algebra"]
    algC = algebra_extract(CHAIN3, ALL)["algebra"]
    with pytest.raises(ShapeMismatch, match="between the carriers"):
        t_homomorphism_check(identity_functor(V), ALL, algV, algC)


def test_injectivity_extension_search():
    V = hom_self_category(BOOL)
    assert injectivity_check(V, EMB) == {
        "category": "V(boolean2)", "embedding": "emb", "functors": 3,
        "extended": 3, "ok": True, "witness": None}
    assert injectivity_check(DISC2, INTO_VEE) == {
        "category": "disc2", "embedding": "into_vee", "functors": 4,
        "extended": 2, "ok": False, "witness": ("d0", "d1")}
    assert injectivity_check(V, INTO_VEE)["ok"] is True
    with pytest.raises(BudgetExceeded, match="2\\^3 extension candidates"):
        injectivity_check(V, INTO_VEE, budget=3)
    # the gate admits exactly its 2^3 candidates
    assert injectivity_check(V, INTO_VEE, budget=8)["ok"] is True
    with pytest.raises(BudgetExceeded, match="^2\\^3 extension candidates over budget 7$"):
        injectivity_check(V, INTO_VEE, budget=7)


@pytest.mark.parametrize("h, X, expected", [
    # both objects of disc2 go to x: a u with u(d0) ≠ u(d1) cannot extend
    (raw_functor("fold", DISC2, CHAIN2, {"d0": "x", "d1": "x"}), CHAIN3,
     (9, 3, ("x", "y"))),
    # x, y both go to y, so x and z are free
    (raw_functor("fold3", CHAIN2, CHAIN3, {"x": "y", "y": "y"}), CHAIN3,
     (6, 3, ("x", "y"))),
    (raw_functor("fold3", CHAIN2, CHAIN3, {"x": "y", "y": "y"}), DISC2,
     (2, 2, None)),
    (raw_functor("collapse", DISC2, cat("pt", BOOL, ["p"], [[1]]), {"d0": "p", "d1": "p"}),
     hom_self_category(BOOL), (4, 2, ("0", "1"))),
], ids=["fold-chain3", "fold3-chain3", "fold3-disc2", "collapse-V"])
def test_injectivity_along_a_non_injective_map(h, X, expected):
    # figures computed by the former seed-and-fill extension search
    rep = injectivity_check(X, h)
    assert (rep["functors"], rep["extended"], rep["witness"]) == expected
    assert rep["ok"] is (rep["extended"] == rep["functors"])


def test_injectivity_matches_algebra_status():
    embeddings = (EMB, INTO_VEE)
    for X in (hom_self_category(BOOL), CHAIN3, DISC2):
        injective = all(injectivity_check(X, h)["ok"] for h in embeddings)
        assert injective == algebra_extract(X, ALL)["ok"], X.name


@pytest.mark.parametrize("alter, witness", [
    (lambda rep: dict(rep, x_phi=rep["x_phi"][::-1]), "all on chain2: actions differ at c1"),
    (lambda rep: dict(rep, ok=not rep["ok"]), "all on chain2: verdicts split"),
], ids=["permuted-minima", "flipped-verdict"])
def test_c10_compares_minima_with_extraction(monkeypatch, alter, witness):
    # C10 alone compares the minimum route with algebra_extract
    real = selftest.min_characterization
    monkeypatch.setattr(selftest, "min_characterization", lambda *a: alter(real(*a)))
    rep = selftest.criterion_10()
    assert (rep["verdict"], rep["witness"]) == ("fail", witness)


@pytest.fixture
def builds(monkeypatch):
    """How often `monadkit.submonad_category` builds each T-category, by
    (spec, category) name."""
    seen = Counter()
    real = monadkit.submonad_category

    def spy(spec, X, *budget):
        seen[spec.name, X.name] += 1
        return real(spec, X, *budget)

    monkeypatch.setattr(monadkit, "submonad_category", spy)
    return seen


def test_extraction_builds_tx_once(builds):
    # the unit reads TX off the monad too
    assert algebra_extract(CHAIN3, submonad_monad(submonad_all()))["ok"] is True
    assert builds == {("all", "chain3"): 1}


def test_check_homomorphism_builds_each_t_category_once(builds, tmp_path, capsys):
    doc = {"quantales": [{"name": "B", "kind": "boolean2"}],
           "categories": [{"name": "C2", "quantale": "B", "objects": ["x", "y"],
                           "hom": [[1, 1], [0, 1]]},
                          {"name": "C3", "quantale": "B", "objects": ["x", "y", "z"],
                           "hom": [[1, 1, 1], [0, 1, 1], [0, 0, 1]]}],
           "functors": [{"name": "emb", "dom": "C2", "cod": "C3",
                         "mapping": {"x": "x", "y": "y"}}],
           "submonad_specs": [{"name": "all", "kind": "all"}]}
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["check", "homomorphism", "--functor", "emb", "--spec", "all",
                     "--workspace", str(path)]) == 0
    assert "PASS      homomorphism[emb,all]" in capsys.readouterr().out
    assert builds == {("all", "C2"): 1, ("all", "C3"): 1}


@pytest.mark.parametrize("criterion, count", [(selftest.criterion_10, 16),
                                              (selftest.criterion_12, 4)],
                         ids=["C10", "C12"])
def test_a_criterion_builds_each_t_category_once(builds, criterion, count):
    # one monad per spec holds every TX the criterion reads
    assert criterion()["verdict"] == "pass"
    assert (sum(builds.values()), max(builds.values())) == (count, 1)
