"""Right-adjoint presheaves, Lawvere completion, and Cauchy data."""

import itertools
import math
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quantcat import selftest
from quantcat.dist import check_adjoint_pair, point_row
from quantcat.errors import (
    NotEnumerable,
    NotEventuallyConstant,
    PreconditionFail,
)
from quantcat.lawvere import (
    cauchy_pair,
    enumerate_L,
    is_L_complete,
    lawvere_completion,
)
from quantcat.monadkit import submonad_category, submonad_right_adjoints
from quantcat.presheaf import (extension_rows, find_representatives, full_subcategory,
                               member_functor, representables)
from quantcat.quantale import INF, builtin, make_finite_quantale
from quantcat.vcat import (
    VCategory,
    VFunctor,
    cauchy_sequence,
    hom_self_category,
    is_fully_faithful,
    unit_category,
    validate_category,
)

from .helpers import (BOOL, LUK2, bool_chain2, cat, luk2_asym, luk2_sym,
                      presheaves_by_filter)
from .test_presheaf import PROPERTY, finite_categories

LUK4 = builtin("lukasiewicz_chain", 4)
GO3 = builtin("goedel_chain", 3)
ERP = builtin("ext_real_plus")

CHAIN2 = bool_chain2()
LSYM = luk2_sym()
RA = submonad_right_adjoints()

DIAMOND = make_finite_quantale(
    "diamond", ["o", "a", "b", "i"],
    [("o", "a"), ("o", "b"), ("a", "i"), ("b", "i")],
    [["o", "o", "o", "o"], ["o", "a", "o", "a"],
     ["o", "o", "b", "b"], ["o", "a", "b", "i"]],
    "i")
PAIR = cat("pair", DIAMOND, ["u", "v"], [["i", "o"], ["o", "i"]])
_C11_BATTERY = [CHAIN2, LSYM, luk2_asym(), hom_self_category(BOOL),
                hom_self_category(builtin("goedel_chain", 2)), PAIR]


def metric(name, rows):
    labels = [chr(ord("a") + i) for i in range(len(rows))]
    return validate_category(name, ERP, labels,
                             [[ERP.elem(F(v)) for v in r] for r in rows])


def test_chain_members_are_the_representables():
    LX, pairs = enumerate_L(CHAIN2)
    assert LX.objects == ("[1,0]", "[1,1]")
    assert [tuple(e.value for e in p.psi.matrix[0]) for p in pairs] == \
        [(1, 1), (0, 1)]
    assert is_L_complete(CHAIN2) == (True, None)


def test_symmetric_pair_members():
    LX, pairs = enumerate_L(LSYM)
    assert LX.objects == ("[1/2,1]", "[1,1/2]")
    assert is_L_complete(LSYM)[0] is True


@pytest.mark.parametrize("X", [CHAIN2, LSYM, PAIR,
                               hom_self_category(BOOL),
                               hom_self_category(GO3)],
                         ids=lambda X: X.name)
def test_both_membership_routes_agree(X):
    LX, pairs = enumerate_L(X)
    assert LX.objects == submonad_category(RA, X).objects
    for p in pairs:
        assert check_adjoint_pair(p.psi, p.phi)[0]
        assert X.quantale.leq(X.quantale.unit, p.unit)


def test_representable_members_pair_with_their_rows():
    for X in (CHAIN2, LSYM, hom_self_category(LUK2)):
        LX, pairs = enumerate_L(X)
        columns = {tuple(row[z] for row in X.hom): z
                   for z in range(len(X.objects))}
        for p in pairs:
            vals = tuple(e for (e,) in p.phi.matrix)
            z = columns[vals]
            assert p.psi.matrix == point_row(X, X.objects[z]).matrix


def test_hom_self_categories_are_complete():
    for q in (BOOL, LUK2, GO3):
        assert is_L_complete(hom_self_category(q))[0] is True


def test_every_finite_luk4_pair_category_is_complete():
    # unit attainment on an integral chain pins every member to a column
    seen = 0
    for h01, h10 in itertools.product(LUK4.carrier, repeat=2):
        X = validate_category("t", LUK4, ["x", "y"],
                              [[LUK4.unit, h01], [h10, LUK4.unit]])
        ok, witness = is_L_complete(X)
        assert ok, (h01, h10, witness)
        seen += 1
    assert seen == 25


def test_diamond_pair_is_not_complete():
    LX, _ = enumerate_L(PAIR)
    assert LX.objects == ("[o,i]", "[a,b]", "[b,a]", "[i,o]")
    assert is_L_complete(PAIR) == (False, "[a,b]")


def test_completion_unit_embeds_and_is_iso_iff_complete():
    LX, unit = lawvere_completion(CHAIN2)
    assert unit.mapping == (0, 1)
    assert len(LX.objects) == 2

    LX, unit = lawvere_completion(PAIR)
    assert unit.mapping == (3, 0)
    assert len(LX.objects) == 4
    assert is_fully_faithful(unit)[0] is True
    assert is_L_complete(LX)[0] is True
    # completing a completion adds nothing
    LLX, again = lawvere_completion(LX)
    assert len(LLX.objects) == len(LX.objects)
    assert sorted(again.mapping) == list(range(len(LX.objects)))


def _check_completion(X):
    # which `lawvere_completion` does not test
    LX, unit = lawvere_completion(X)
    assert is_fully_faithful(unit) == (True, None)
    assert is_L_complete(LX) == (True, None)


@pytest.mark.parametrize("X", _C11_BATTERY, ids=lambda X: X.name)
def test_the_completion_unit_embeds_and_the_completion_is_complete(X):
    _check_completion(X)


@PROPERTY
@given(finite_categories(max_objects=2, closed=True))
def test_the_completion_unit_embeds_and_the_completion_is_complete_at_random(X):
    _check_completion(X)


def _incomplete(real, X, budget):
    """The completion of pair cut down to its representables."""
    LX, unit = real(X, budget)
    if X.name != "pair":
        return LX, unit
    small = full_subcategory(LX.name, X, representables(X))
    return small, member_functor(unit.name, X, small, representables(X))


def _unfaithful(real, X, budget):
    """The completion of chain2 with a constant unit."""
    LX, unit = real(X, budget)
    if X.name != "chain2":
        return LX, unit
    return LX, VFunctor(unit.name, X, LX, (unit(0),) * len(X.objects))


@pytest.mark.parametrize("wrong, witness", [
    (_incomplete, "pair: completion not L-complete"),
    (_unfaithful, "chain2: completion unit not fully faithful"),
], ids=["incomplete", "unfaithful"])
def test_c11_decides_the_completion_itself(monkeypatch, wrong, witness):
    real = selftest.lawvere_completion
    monkeypatch.setattr(selftest, "lawvere_completion",
                        lambda X, budget: wrong(real, X, budget))
    rep = selftest.criterion_11()
    assert (rep["verdict"], rep["witness"]) == ("fail", witness)


def test_enumeration_needs_a_finite_carrier():
    with pytest.raises(NotEnumerable):
        enumerate_L(metric("pt", [[0]]))
    # except on no objects: the empty presheaf has no left adjoint, over any V
    LX, pairs = enumerate_L(metric("none", []))
    assert (LX.objects, LX.presheaves, pairs) == ((), (), ())
    assert is_L_complete(metric("none", [])) == (True, None)


def test_cauchy_pair_lands_on_the_stable_point():
    X = metric("two", [[0, 1], [1, 0]])
    seq = cauchy_sequence(("a", "a", "b", "b", "b"), 2)
    pair, rep = cauchy_pair(X, seq)
    assert rep == "b"
    assert tuple(e.value for (e,) in pair.phi.matrix) == (1, 0)
    assert tuple(e.value for e in pair.psi.matrix[0]) == (1, 0)
    assert pair.unit.value == 0
    assert check_adjoint_pair(pair.psi, pair.phi)[0] is True

    pair, rep = cauchy_pair(X, cauchy_sequence(("a",), 0))
    assert rep == "a"


@st.composite
def ext_metrics(draw, max_objects=3):
    """A category over ext_real_plus: distances drawn from 0–3 and ∞, then
    closed under the triangle inequality by shortest paths."""
    n = draw(st.integers(1, max_objects))
    d = [[0 if i == j else draw(st.sampled_from([0, 1, 2, 3, math.inf]))
          for j in range(n)] for i in range(n)]
    for k, i, j in itertools.product(range(n), repeat=3):
        d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    return validate_category(f"m{n}", ERP, [chr(ord("a") + i) for i in range(n)],
                             [[ERP.elem(INF if v == math.inf else F(v)) for v in row]
                              for row in d])


@PROPERTY
@given(ext_metrics())
def test_a_point_certifies_its_pair_and_represents_its_weight(X):
    # x^* ⊣ x_*, and x represents [x^*, 1_X]: `cauchy_pair` tests neither
    q = X.quantale
    for x, label in enumerate(X.objects):
        pair, rep = cauchy_pair(X, cauchy_sequence((label,), 0))
        assert rep == label
        assert check_adjoint_pair(pair.psi, pair.phi)[0]
        assert q.leq(q.unit, pair.unit)
        assert x in find_representatives(X, extension_rows(X, (representables(X)[x],))[0])


def test_cauchy_sequence_guards():
    with pytest.raises(NotEventuallyConstant, match="keeps moving"):
        cauchy_sequence(("a", "b", "a"), 1)
    with pytest.raises(NotEventuallyConstant, match="outside the sequence"):
        cauchy_sequence(("a", "b"), 2)
    with pytest.raises(PreconditionFail, match="ext_real_plus only"):
        cauchy_pair(CHAIN2, cauchy_sequence(("x",), 0))


def _per_phi_search(X):
    """(φ, ψ, unit) per member: for each presheaf φ, the first value tuple
    ψ in carrier-product order that is a presheaf on X^op and certifies
    ψ ⊣ φ, searched afresh for every φ."""
    q = X.quantale
    n = len(X.objects)
    Xop = VCategory(f"{X.name}^op", q, X.objects, tuple(zip(*X.hom)))
    found = []
    for phi in presheaves_by_filter(X):
        for psi in presheaves_by_filter(Xop):
            counit = all(q.leq(q.tensor(phi[x], psi[y]), X.hom[x][y])
                         for x in range(n) for y in range(n))
            u = q.bottom
            for p, f in zip(psi, phi):
                u = q.join2(u, q.tensor(p, f))
            if counit and q.leq(q.unit, u):
                found.append((phi, psi, u))
                break
    return found


@pytest.mark.parametrize("X", _C11_BATTERY, ids=lambda X: X.name)
def test_enumerate_L_matches_the_per_phi_search(X):
    _check_enumerate_L(X)


@PROPERTY
@given(finite_categories(max_objects=2, closed=True))
def test_enumerate_L_matches_the_per_phi_search_at_random(X):
    _check_enumerate_L(X)


def _check_enumerate_L(X):
    LX, pairs = enumerate_L(X)
    E = unit_category(X.quantale)
    expected = _per_phi_search(X)
    assert LX.presheaves == tuple(phi for phi, _, _ in expected)
    assert [(p.phi.matrix, p.psi.dom, p.psi.matrix, p.unit) for p in pairs] == \
        [(tuple((v,) for v in phi), E, (psi,), u) for phi, psi, u in expected]
