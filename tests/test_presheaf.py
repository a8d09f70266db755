"""Presheaf categories, Yoneda, Pf, and the monad laws."""

from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantcat import presheaf
from quantcat.errors import BudgetExceeded, ForeignElement, InternalError, NotEnumerable
from quantcat.monadkit import presheaf_monad
from quantcat.presheaf import (
    full_subcategory,
    map_values,
    member_functor,
    mult_values,
    multiplication,
    presheaf_category,
    presheaf_label,
    presheaf_map,
    presheaves,
    representables,
    verify_monad_laws,
    yoneda,
)
from quantcat.quantale import QElem, Quantale, builtin, make_finite_quantale
from quantcat.vcat import (
    VCategory,
    VFunctor,
    hom_self_category,
    identity_functor,
    is_fully_faithful,
    is_separated,
    unit_category,
    validate_category,
    validate_functor,
)

from .helpers import (
    BOOL,
    DIAMOND,
    LUK2,
    NON_INTEGRAL,
    bool_chain2,
    bool_chain3,
    bool_discrete,
    bool_indiscrete2,
    cat,
    join_tensor,
    luk2_asym,
    luk2_sym,
    meet_hom,
    presheaves_by_filter,
)
from .test_quantale import FOREIGN, _closure

GO3 = builtin("goedel_chain", 3)
P = presheaf_monad()


def test_presheaves_on_the_two_chain_form_a_three_chain():
    PX = presheaf_category(bool_chain2())
    assert PX.objects == ("[0,0]", "[1,0]", "[1,1]")
    assert [[str(e) for e in row] for row in PX.hom] == \
        [["1", "1", "1"], ["0", "1", "1"], ["0", "0", "1"]]
    assert PX.presheaves[1] == (BOOL.unit, BOOL.bottom)


@pytest.mark.parametrize("q", [BOOL, LUK2, GO3])
def test_presheaves_on_the_unit_category_mirror_the_quantale(q):
    PE = presheaf_category(unit_category(q))
    assert PE.hom == hom_self_category(q).hom
    assert len(PE.objects) == len(q.carrier)


def test_lukasiewicz_presheaf_count_with_asymmetric_hom():
    # a(p,q) = 1/2 forbids exactly φ(p) = 0, φ(q) = 1
    PX = presheaf_category(luk2_asym())
    assert len(PX.objects) == 8
    assert "[0,1]" not in PX.objects


def test_discrete_three_point_sizes():
    PX = presheaf_category(bool_discrete(3))
    assert len(PX.objects) == 8  # no law on a discrete base
    PPX = presheaf_category(PX)
    assert len(PPX.objects) == 20


@pytest.mark.parametrize("mk", [bool_chain2, bool_indiscrete2, luk2_sym])
def test_presheaf_categories_are_separated(mk):
    X = mk()
    ok, _ = is_separated(presheaf_category(X))
    assert ok
    assert len(presheaf_category(bool_indiscrete2()).objects) == 2


@pytest.mark.parametrize("mk", [bool_chain3, luk2_asym])
def test_evaluation_against_representables(mk):
    # ã(x^*, φ) = φ(x)
    X = mk()
    PX = presheaf_category(X)
    y = yoneda(X, PX)
    for i in range(len(X.objects)):
        for pi, vals in enumerate(PX.presheaves):
            assert PX.hom[y(i)][pi] == vals[i]


def test_yoneda_labels_on_the_two_chain():
    y = P.unit(bool_chain2())
    assert y.on_label("x") == "[1,0]"
    assert y.on_label("y") == "[1,1]"


def test_a_non_member_image_is_an_internal_error():
    # no KeyError: the CLI turns an InternalError into exit 4
    X = bool_chain2()
    PX = presheaf_category(X)
    with pytest.raises(InternalError, match=r"m: \[0,1\] is not a member of P\(chain2\)"):
        member_functor("m", X, PX, [(BOOL.top, BOOL.top), (BOOL.bottom, BOOL.top)])


def test_presheaf_map_sends_representables_to_representables():
    f = validate_functor("j", bool_chain2(), bool_chain3(), {"x": "x", "y": "z"})
    pf = P.map(f)
    yx, yy = P.unit(f.dom), P.unit(f.cod)
    for i in range(len(f.dom.objects)):
        assert pf(yx(i)) == yy(f(i))
    assert pf.on_label("[1,0]") == "[1,0,0]"


def test_presheaf_map_is_functorial():
    X, Y = bool_chain2(), bool_chain3()
    f = validate_functor("f", X, Y, {"x": "x", "y": "z"})
    g = validate_functor("g", Y, X, {"x": "x", "y": "x", "z": "y"})
    gf = VFunctor("g∘f", X, X, tuple(g(i) for i in f.mapping))
    pg, pf = P.map(g), P.map(f)
    assert P.map(gf).mapping == tuple(pg(i) for i in pf.mapping)
    assert P.map(identity_functor(X)).mapping == \
        identity_functor(presheaf_category(X)).mapping
    # independent (C) check of one instance
    validate_functor("chk", pf.dom, pf.cod, pf.mapping)


def test_multiplication_unit_triangles_as_functors():
    X = bool_chain2()
    PX = presheaf_category(X)
    PPX = presheaf_category(PX)
    m = multiplication(X)
    ident = identity_functor(PX).mapping
    assert tuple(m(i) for i in presheaf_map(yoneda(X, PX), PX, PPX).mapping) == ident
    assert tuple(m(i) for i in yoneda(PX, PPX).mapping) == ident


def test_monad_laws_exhaustive_on_the_two_chain():
    report = verify_monad_laws(bool_chain2())
    assert report["unit_mapped"]["ok"] and report["unit_pointed"]["ok"]
    assert report["associativity"] == \
        {"mode": "representables", "checked": 4, "ok": True, "witness": None}


def test_monad_laws_decided_on_the_representables_of_the_discrete_three_point():
    # 2^20 candidate maps on PPX would blow the default budget; its 20
    # representables decide associativity all the same
    report = verify_monad_laws(bool_discrete(3))
    assert report["presheaf_count"] == 8
    assert report["unit_mapped"]["ok"] and report["unit_pointed"]["ok"]
    assert report["associativity"] == \
        {"mode": "representables", "checked": 20, "ok": True, "witness": None}


def test_monad_laws_over_lukasiewicz():
    report = verify_monad_laws(luk2_asym())
    assert report["presheaf_count"] == 8
    assert report["unit_mapped"]["ok"] and report["unit_pointed"]["ok"]
    assert report["associativity"]["ok"]
    assert report["associativity"]["mode"] == "representables"


def test_monad_laws_on_the_empty_category():
    X = validate_category("empty", BOOL, [], [])
    report = verify_monad_laws(X)
    assert report["presheaf_count"] == 1
    assert report["unit_mapped"]["ok"] and report["unit_pointed"]["ok"]
    assert report["associativity"]["mode"] == "representables"


def test_budget_gates():
    with pytest.raises(BudgetExceeded):
        presheaf_category(bool_discrete(3), budget=7)
    ext = builtin("ext_real_plus")
    P = cat("pt", ext, ["p"], [[0]])
    with pytest.raises(NotEnumerable):
        presheaf_category(P)
    # PX has 3 objects within the budget 5, but PPX has 2^3 candidates
    with pytest.raises(BudgetExceeded,
                       match=r"8 candidate maps on P\(chain2\) exceed the budget 5"):
        verify_monad_laws(bool_chain2(), budget=5)


# ------------------------------------- the depth-first search and its oracle

# the diamond with its carrier listed top first, so index 0 is not ⊥
DIAMOND_TOP_FIRST = make_finite_quantale(
    "diamond_top_first", ["i", "b", "a", "o"],
    [("o", "a"), ("o", "b"), ("a", "i"), ("b", "i")],
    [["i", "b", "a", "o"], ["b", "b", "o", "o"], ["a", "o", "a", "o"],
     ["o", "o", "o", "o"]], "i")
FINITE = [BOOL, *(builtin(kind, n) for kind in ("goedel_chain", "lukasiewicz_chain")
                  for n in (1, 2, 3)), DIAMOND, DIAMOND_TOP_FIRST, NON_INTEGRAL]
PROPERTY = settings(max_examples=200, derandomize=True, deadline=None)


@st.composite
def finite_categories(draw, q=None, max_objects=4, closed=None):
    """A category over a finite quantale, some of whose hom entries are
    hand-built elements (index None).  Closed, its hom is the least
    V-category above a random matrix; else the random matrix itself,
    which need be neither reflexive nor transitive."""
    q = q or draw(st.sampled_from(FINITE))
    n = draw(st.integers(0, max_objects))
    hom = [draw(st.lists(st.sampled_from(q.carrier), min_size=n, max_size=n))
           for _ in range(n)]
    if draw(st.booleans()) if closed is None else closed:
        hom = _closure(q, hom)
    cells = [(i, j) for i in range(n) for j in range(n)]
    for i, j in draw(st.sets(st.sampled_from(cells))) if cells else ():
        hom[i][j] = QElem(q.key, hom[i][j].value)
    return VCategory(f"X{n}", q, tuple(f"o{i}" for i in range(n)),
                     tuple(map(tuple, hom)))


@PROPERTY
@given(finite_categories(max_objects=3, closed=True))
def test_the_yoneda_embedding_is_fully_faithful(X):
    # ã(x^*, x'^*) = a(x,x'), which `yoneda` does not test
    assert is_fully_faithful(yoneda(X, presheaf_category(X))) == (True, None)


@PROPERTY
@given(finite_categories())
def test_presheaves_match_the_product_filter(X):
    assert list(presheaves(X)) == presheaves_by_filter(X)


@PROPERTY
@given(finite_categories(), st.data())
def test_a_foreign_hom_entry_raises(X, data):
    if not X.objects:
        return
    n = len(X.objects)
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    hom = [list(row) for row in X.hom]
    hom[i][j] = FOREIGN
    bad = VCategory(X.name, X.quantale, X.objects, tuple(map(tuple, hom)))
    with pytest.raises(ForeignElement):
        list(presheaves(bad))
    with pytest.raises(ForeignElement):
        presheaves_by_filter(bad)


@PROPERTY
@given(finite_categories(), st.data())
def test_full_subcategory_hom_is_the_meet_hom_matrix(X, data):
    q = X.quantale
    found = presheaves_by_filter(X)
    members = data.draw(st.lists(st.sampled_from(found), max_size=12))
    # a hand-built copy of a member's entries, index None
    members = [tuple(QElem(q.key, e.value) for e in vals) if data.draw(st.booleans())
               else vals for vals in members]
    T = full_subcategory("T", X, members)
    assert T.presheaves == tuple(members)
    assert T.hom == tuple(tuple(meet_hom(q, u, w) for w in members) for u in members)
    assert all(e is q.carrier[e.index] for row in T.hom for e in row)


def _counted_ops(monkeypatch):
    """A Counter of the per-element quantale op calls made from now on."""
    calls = Counter()
    for name in ("leq", "tensor", "hom", "join2", "meet2"):
        def counted(self, *args, _op=getattr(Quantale, name), _name=name):
            calls[_name] += 1
            return _op(self, *args)
        monkeypatch.setattr(Quantale, name, counted)
    return calls


def test_presheaves_and_their_hom_make_no_per_element_op_calls(monkeypatch):
    # the 8-chain over goedel_chain(2), as in the benchmark's presheaf-chain
    G2 = builtin("goedel_chain", 2)
    X = cat("chain8", G2, [f"c{i}" for i in range(8)],
            [[1 if i <= j else 0 for j in range(8)] for i in range(8)])
    calls = _counted_ops(monkeypatch)
    members = list(presheaves(X))
    assert len(members) == 45 and not calls
    full_subcategory("P(chain8)", X, members)
    assert not calls


@pytest.mark.parametrize("mk", [bool_chain3, luk2_asym], ids=["chain3", "luk_asym"])
def test_the_monad_structure_makes_no_per_element_op_calls(monkeypatch, mk):
    # m_X, Pf and the laws run each sup-tensor and inf-hom family as one
    # call of the matrix kernel
    X = mk()
    presheaf_category.cache_clear()
    calls = _counted_ops(monkeypatch)
    PX = presheaf_category(X)
    PPX = presheaf_category(PX)
    assert multiplication(X).dom == PPX
    assert presheaf_map(yoneda(X, PX), PX, PPX).cod == PPX
    assert verify_monad_laws(X)["associativity"]["ok"]
    assert not calls


# ------------------- associativity on the representables, against every θ

ORACLE_BUDGET = 10 ** 5  # |V|^|PPX| ceiling of the exhaustive θ loop


def _join_scaled(q, scalars, tuples, n):
    """⋁_g s_g ⊗ t_g entrywise, for value tuples t_g of length n."""
    return tuple(q.join(q.tensor(s, t[i]) for s, t in zip(scalars, tuples))
                 for i in range(n))


def _assoc_failures(X, images, thetas):
    """The θ among `thetas` (presheaves on PPX) where m_X ∘ m_PX and
    m_X ∘ P(m_X) differ, each entry a join of tensors: P(m_X)(θ)(φ) =
    ⋁_g ã(φ, m g) ⊗ θ(g), with m g = images[g].  Over every θ this is
    the exhaustive loop that `verify_monad_laws` replaced."""
    q = X.quantale
    PX = presheaf_category(X)
    PPX = presheaf_category(PX)
    amg = [[meet_hom(q, phi, mg) for mg in images] for phi in PX.presheaves]

    def m(members, gamma):  # ⋁_φ Γ(φ) ⊗ φ(−); members is never empty
        return _join_scaled(q, gamma, members, len(members[0]))
    return [theta for theta in thetas
            if m(PX.presheaves, m(PPX.presheaves, theta))
            != m(PX.presheaves, [join_tensor(q, row, theta) for row in amg])]


def _decided_as_every_theta(X, target, g):
    """Mutate m_X to send object g of PPX to object `target` of PX; then
    `verify_monad_laws` gives the verdict of the exhaustive loop, and as
    its witness the first representable where the routes differ."""
    PX = presheaf_category(X)
    PPX = presheaf_category(PX)
    m = multiplication(X)
    mapping = m.mapping[:g] + (target,) + m.mapping[g + 1:]
    mutant = VFunctor(m.name, PPX, PX, mapping)
    with mock.patch.object(presheaf, "multiplication", lambda X, budget: mutant):
        assoc = verify_monad_laws(X)["associativity"]
    images = [PX.presheaves[i] for i in mapping]
    assert assoc["mode"] == "representables"
    assert assoc["ok"] == (not _assoc_failures(X, images, presheaves(PPX, ORACLE_BUDGET)))
    first = _assoc_failures(X, images, representables(PPX))[:1]
    assert assoc["witness"] == (presheaf_label(first[0]) if first else None)
    return assoc["ok"]


def _routes_are_linear(X):
    """Each θ on PPX is ⋁_g θ(g) ⊗ PPX(−,g), and both routes, as
    `verify_monad_laws` computes them, preserve that join."""
    q = X.quantale
    PX = presheaf_category(X)
    PPX = presheaf_category(PX)
    m = multiplication(X)
    reps = representables(PPX)
    routes = (lambda thetas: mult_values(PX, mult_values(PPX, thetas)),
              lambda thetas: mult_values(PX, map_values(m, thetas)))
    on_reps = [route(reps) for route in routes]
    for theta in presheaves(PPX, ORACLE_BUDGET):
        assert theta == _join_scaled(q, theta, reps, len(PPX.objects))
        for route, images in zip(routes, on_reps):
            assert route([theta])[0] == _join_scaled(q, theta, images, len(X.objects))


@pytest.mark.parametrize("mk", [bool_chain2, bool_chain3, lambda: bool_discrete(2),
                                bool_indiscrete2], ids=["chain2", "chain3", "disc2", "indisc2"])
def test_associativity_on_the_representables_is_the_verdict_over_every_theta(mk):
    X = mk()
    PX = presheaf_category(X)
    PPX = presheaf_category(PX)
    verdicts = Counter(_decided_as_every_theta(X, target, g)
                       for g in range(len(PPX.objects)) for target in range(len(PX.objects)))
    # the unmutated m_X passes, and some mutants fail
    assert verdicts[True] and verdicts[False]
    _routes_are_linear(X)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(finite_categories(max_objects=3, closed=True), st.data())
def test_associativity_oracle_on_drawn_categories(X, data):
    q = X.quantale
    PX = presheaf_category(X)
    if len(q.carrier) ** len(PX.objects) > ORACLE_BUDGET:
        return
    PPX = presheaf_category(PX)
    if len(q.carrier) ** len(PPX.objects) > ORACLE_BUDGET:
        return
    assert _decided_as_every_theta(X, multiplication(X).mapping[0], 0)
    _decided_as_every_theta(X, data.draw(st.integers(0, len(PX.objects) - 1)),
                            data.draw(st.integers(0, len(PPX.objects) - 1)))
    _routes_are_linear(X)
