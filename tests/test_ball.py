"""Ball categories, tensors, algebras, cancellation, and embeddings."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quantcat import selftest
from quantcat.ball import (
    _algebra_laws,
    _pair_index,
    b_embedding_check,
    ball_algebra_check,
    ball_category,
    ball_label,
    ball_monad,
    ball_mult,
    cancellation_report,
    sigma_values,
    tensor_adjunction,
    tensored_check,
)
from quantcat.errors import (
    MultiplicationEscapesT,
    NotEnumerable,
    PreconditionFail,
)
from quantcat.monadkit import (
    canonical_comparison,
    lax_idempotency_report,
    monad_morphism_check,
)
from quantcat.presheaf import presheaf_category
from quantcat.quantale import builtin, make_finite_quantale
from quantcat.vcat import (
    VCategory,
    VFunctor,
    functors,
    hom_self_category,
    is_fully_faithful,
    is_separated,
    raw_functor,
    validate_category,
)

from .helpers import (BOOL, CountedHash, all_functors, bool_chain2, bool_chain3, bool_discrete,
                      bool_indiscrete2, factoring_points, luk2_asym, luk2_sym,
                      no_action_by_filter, scalar_identity_by_loop)
from .test_presheaf import PROPERTY, finite_categories

GO2 = builtin("goedel_chain", 2)
GO3 = builtin("goedel_chain", 3)
LUK2 = builtin("lukasiewicz_chain", 2)
LUK3 = builtin("lukasiewicz_chain", 3)
LUK4 = builtin("lukasiewicz_chain", 4)

CHAIN2 = bool_chain2()
CHAIN3 = bool_chain3()


def subcat(V, name, labels):
    idxs = [V.index(l) for l in labels]
    hom = [[V.hom[i][j] for j in idxs] for i in idxs]
    X = validate_category(name, V.quantale, labels, hom)
    return X, raw_functor(f"incl_{name}", X, V, {l: l for l in labels})


@pytest.mark.parametrize("build", [presheaf_category, ball_category],
                         ids=["presheaf", "ball"])
def test_derived_categories_hash_once(build):
    # a field-wise hash on the subclass would rehash every hom entry on
    # each memo lookup
    C = build(CHAIN3)
    assert type(C).__hash__ is VCategory.__hash__
    h = hash(C)
    assert C.__dict__["_hash"] == h
    extra = (C.base, C.presheaves) if build is presheaf_category else \
        (C.base, C.pairs, C.extended)
    twin = type(C)(C.name, C.quantale, C.objects, C.hom, *extra)
    assert twin == C and twin is not C and "_hash" not in twin.__dict__
    assert hash(twin) == h
    assert twin != type(C)("other", C.quantale, C.objects, C.hom, *extra)
    # the hash reads no hom entry, however large the derived category
    entry = CountedHash()
    hash(type(C)(C.name, C.quantale, C.objects,
                 tuple((entry,) * len(C.objects) for _ in C.objects), *extra))
    assert entry.calls == 0


@PROPERTY
@given(finite_categories(max_objects=3), st.booleans())
def test_ball_hom_is_the_per_entry_formula(X, extended):
    # hom((x,r),(y,s)) = hom(r, X(x,y) ⊗ s), one quantale op per entry
    q = X.quantale
    BX = ball_category(X, extended)
    assert BX.hom == tuple(tuple(q.hom(r, q.tensor(X.hom[i][j], s)) for j, s in BX.pairs)
                           for i, r in BX.pairs)
    assert all(e is q.carrier[e.index] for row in BX.hom for e in row)


def test_ball_category_frozen_shape():
    BB = ball_category(CHAIN2)
    assert BB.objects == ("(x,0)", "(x,1)", "(y,0)", "(y,1)")
    got = [[e.value for e in row] for row in BB.hom]
    assert got == [
        [1, 1, 1, 1],
        [0, 1, 0, 1],
        [1, 1, 1, 1],
        [0, 0, 0, 1],
    ]
    B = ball_category(CHAIN2, extended=False)
    assert B.objects == ("(x,1)", "(y,1)")
    assert [[e.value for e in row] for row in B.hom] == [[1, 1], [0, 1]]
    assert ball_label("x", LUK3.carrier[1]) == "(x,1/3)"


def test_ball_category_needs_finite_carrier():
    EXT = builtin("ext_real_plus")
    pt = validate_category("pt", EXT, ["*"], [[EXT.elem(0)]])
    with pytest.raises(NotEnumerable):
        ball_category(pt)


def test_extended_never_separated_plain_depends():
    assert is_separated(ball_category(CHAIN2)) == (False, ("(x,0)", "(y,0)"))
    assert is_separated(ball_category(CHAIN2, extended=False))[0] is True
    V = hom_self_category(GO2)
    sep, w = is_separated(ball_category(V, extended=False))
    assert (sep, w) == (False, ("(1/2,1/2)", "(1,1/2)"))


def test_ball_functor_unit_mult():
    emb = raw_functor("emb", CHAIN2, CHAIN3, {"x": "x", "y": "y"})
    B = ball_monad(True)
    bf = B.map(emb)
    assert bf.on_label("(y,0)") == "(y,0)"
    u = B.unit(CHAIN2)
    assert u.on_label("x") == "(x,1)"
    mu = B.mult(CHAIN2)
    # ((x,1),0) collapses to radius 0
    assert mu.on_label("((x,1),0)") == "(x,0)"
    assert mu.on_label("((y,1),1)") == "(y,1)"


def test_plain_mult_escapes_when_tensor_hits_bottom():
    V = hom_self_category(LUK3)
    with pytest.raises(MultiplicationEscapesT, match="leaves B"):
        ball_mult(V, ball_category(V, extended=False))
    # goedel radii are closed under min, so the plain variant is total there
    W = hom_self_category(GO2)
    ball_mult(W, ball_category(W, extended=False))


@pytest.mark.parametrize("X", [CHAIN2], ids=lambda X: X.name)
def test_extended_ball_monad_lax_idempotent(X):
    rep = lax_idempotency_report(ball_monad(True), X)
    assert rep["lax_idempotent"] is True
    assert rep["routes_agree"] is True


def test_ball_comparison_into_presheaves():
    # pointwise fully faithful but not injective: radius ⊥ collapses
    rep = monad_morphism_check(ball_monad(True), CHAIN2)
    assert rep["unit_triangle"] is True
    assert rep["multiplication_square"] == {"ok": True, "witness": None}
    assert rep["pointwise_fully_faithful"] is True
    assert rep["pointwise_injective"] is False
    assert rep["monad_morphism"] is False
    # over a cancellative quantale the plain variant embeds
    emb = raw_functor("emb", CHAIN2, CHAIN3, {"x": "x", "y": "y"})
    rep = monad_morphism_check(ball_monad(False), CHAIN2, f=emb)
    assert rep["monad_morphism"] is True

    sigma = canonical_comparison(ball_monad(True), CHAIN2)
    BX = ball_category(CHAIN2)
    PX = presheaf_category(CHAIN2)
    for j, (i, r) in enumerate(BX.pairs):
        assert PX.presheaves[sigma(j)] == sigma_values(CHAIN2, i, r)


@pytest.mark.parametrize("q", [BOOL, GO2, GO3, LUK2, LUK3, LUK4],
                         ids=lambda q: q.name)
def test_hom_self_is_tensored_by_tensor(q):
    V = hom_self_category(q)
    rep = tensored_check(V)
    assert rep["tensored"] is True
    assert rep["ambiguous"] == ()
    assert rep["algebra"].mapping == tensored_check(V, via="extension")["algebra"].mapping
    alpha = rep["algebra"]
    for j, (i, r) in enumerate(alpha.dom.pairs):
        assert alpha(j) == q.carrier.index(q.tensor(q.carrier[i], r))
    assert tensor_adjunction(V, alpha) == {"ok": True, "witness": None}
    alg = ball_algebra_check(alpha)
    assert alg["algebra"] is True
    assert alg["agree"] is True
    assert alg["monad_laws"]["ok"] is True


def test_tensored_failure_and_plain_variant():
    disc2 = bool_discrete(2)
    rep = tensored_check(disc2)
    assert rep == {"tensored": False, "witness": "(d0,0)", "algebra": None,
                   "ambiguous": ()}
    # dropping radius ⊥ removes the only obstruction
    assert tensored_check(disc2, extended=False)["tensored"] is True
    assert tensored_check(CHAIN2)["tensored"] is True


def test_tensor_tie_break_prefers_the_point_itself():
    ind2 = bool_indiscrete2()
    rep = tensored_check(ind2)
    assert rep["tensored"] is True
    assert len(rep["ambiguous"]) == 4
    alpha = rep["algebra"]
    idx = {p: j for j, p in enumerate(alpha.dom.pairs)}
    k = BOOL.unit
    assert alpha(idx[(0, k)]) == 0
    assert alpha(idx[(1, k)]) == 1
    assert ball_algebra_check(alpha)["algebra"] is True


def test_plain_algebra_check_skips_escaped_pairs():
    V = hom_self_category(LUK3)
    alpha = tensored_check(V, extended=False)["algebra"]
    rep = ball_algebra_check(alpha)
    assert rep["algebra"] is True
    assert rep["associativity"]["ok"] is True
    assert rep["associativity"]["skipped"] > 0
    assert rep["monad_laws"]["ok"] is None
    assert "unavailable" in rep["monad_laws"]["witness"]
    assert rep["agree"] is True
    assert tensor_adjunction(V, alpha)["ok"] is None


def test_non_algebra_detected_on_every_route():
    V = hom_self_category(BOOL)
    BV = ball_category(V)
    crushed = VFunctor("to_top", BV, V, (1,) * len(BV.objects))
    rep = ball_algebra_check(crushed)
    assert rep["algebra"] is False
    assert rep["unit_pointing"] == {"ok": False, "witness": "0"}
    assert rep["agree"] is True


@pytest.mark.parametrize("q", [BOOL, LUK2, LUK3], ids=lambda q: q.name)
def test_cancellative_quantales_report_clean(q):
    chain = validate_category("two", q, ["x", "y"],
                              [[q.unit, q.unit], [q.bottom, q.unit]])
    rep = cancellation_report(q, (chain,))
    assert rep["cancellative"]["ok"] is True
    assert rep["ball_of_v_separated"]["ok"] is True
    assert rep["separation_preserved"]["ok"] is True
    assert rep["equivalent"] is True


def test_goedel_fails_cancellation_three_ways():
    rep = cancellation_report(GO2)
    assert rep["cancellative"] == {"ok": False, "method": "exhaustive",
                                   "witness": "r=1/2, s=1/2"}
    assert rep["ball_of_v_separated"] == {
        "ok": False, "witness": "('(1/2,1/2)', '(1,1/2)')"}
    assert rep["separation_preserved"]["category"] == "V(goedel_chain(2))"
    assert rep["equivalent"] is True
    rep = cancellation_report(GO3)
    assert rep["cancellative"]["witness"] == "r=1/3, s=1/3"
    assert rep["equivalent"] is True


def test_cancellation_preconditions():
    q = make_finite_quantale(
        "three", ["b", "k", "t"],
        [("b", "k"), ("k", "t")],
        [["b", "b", "b"], ["b", "k", "t"], ["b", "t", "t"]],
        "k")
    with pytest.raises(PreconditionFail, match="not integral"):
        cancellation_report(q)
    with pytest.raises(PreconditionFail, match="not separated"):
        cancellation_report(BOOL, (bool_indiscrete2(),))


def test_b_embedding_interval_subchains():
    V = hom_self_category(LUK4)
    X, h = subcat(V, "upper", ["1/2", "3/4", "1"])
    rep = b_embedding_check(h)
    assert rep["b_embedding"] is True
    assert rep["fully_faithful"] is True
    assert rep["pointing"] == {"ok": True, "witness": None}
    assert rep["scalar_identity"] == {"ok": True, "witness": None}
    assert rep["left_inverse"] is True
    assert rep["escapes"] == ("(0,1/4)", "(0,1/2)", "(1/4,1/4)")
    assert all(rep["preconditions"].values())

    X, h = subcat(V, "lower", ["0", "1/4", "1/2"])
    rep = b_embedding_check(h)
    assert rep["b_embedding"] is True
    assert rep["escapes"] == ()


def test_b_embedding_gappy_subchain_fails():
    V = hom_self_category(LUK4)
    X, h = subcat(V, "gappy", ["0", "1"])
    rep = b_embedding_check(h)
    assert rep["fully_faithful"] is True
    assert rep["pointing"] == {"ok": False,
                               "witness": "1/4 has 0 factoring points"}
    assert rep["b_embedding"] is False


def test_b_embedding_requires_fully_faithful():
    collapse = raw_functor("collapse", CHAIN2, CHAIN2, {"x": "x", "y": "x"})
    rep = b_embedding_check(collapse)
    assert rep["fully_faithful"] is False
    assert rep["b_embedding"] is False
    assert rep["ff_witness"] == "('y', 'x')"


def test_no_action_search_agrees_with_the_generate_and_test_oracle():
    # C8's instances, tensored and not, wherever its 20000 guard admits them
    outcomes = []
    for X, ext, _ in selftest._c8_instances():
        BX = ball_category(X, ext)
        if len(X.objects) ** len(BX.objects) > 20000:
            continue
        none = selftest._no_action_exists(X, BX)
        assert none is no_action_by_filter(X, BX), (X.name, ext)
        outcomes.append(none)
    assert outcomes.count(True) >= 10 and outcomes.count(False) >= 10


def test_scalar_identity_loop_never_fails_where_pointing_holds():
    # C9's four subchain inclusions, then every fully faithful functor
    # between the helper categories over one quantale
    V = hom_self_category(LUK4)
    family = [selftest._full_subchain(V, labels, name)[1]
              for name, labels in (("upper", ["1/2", "3/4", "1"]),
                                   ("lower", ["0", "1/4", "1/2"]),
                                   ("full", list(V.objects)), ("gappy", ["0", "1"]))]
    for cats in ([bool_chain2(), bool_chain3(), bool_discrete(2), bool_indiscrete2()],
                 [luk2_asym(), luk2_sym()]):
        family += [f for f in all_functors(cats) if is_fully_faithful(f)[0]]
    pointed = 0
    for h in family:
        rep = b_embedding_check(h)
        assert rep["scalar_identity"] == {"ok": True, "witness": None}
        if rep["fully_faithful"] and rep["pointing"]["ok"]:
            pointed += 1
            bar = [zs[0] for zs in factoring_points(h)]
            assert scalar_identity_by_loop(h, bar) is None, h.name
    assert (len(family), pointed) == (25, 12)
    # the loop does fail away from the factoring points
    gappy = family[3]
    assert scalar_identity_by_loop(gappy, [0] * len(gappy.cod.objects)) is not None


def test_unit_pointing_implies_expansion_for_v_functors():
    # r ≤ X(x,x) ⊗ r = BX((x,k),(x,r)) ≤ X(α(x,k), α(x,r)) = X(x, α(x,r)),
    # over every V-functor BX → X of C8's instances that its guard admits
    functors_seen = pointed = 0
    for X, ext, _ in selftest._c8_instances():
        BX = ball_category(X, ext)
        if len(X.objects) ** len(BX.objects) > 20000:
            continue
        idx = _pair_index(BX)
        for mp in functors(BX, X):
            functors_seen += 1
            unit_i, _, _, expand_w = _algebra_laws(X, VFunctor("α", BX, X, mp), idx)
            if unit_i is None:
                pointed += 1
                assert expand_w is None, (X.name, ext, mp)
    assert (functors_seen, pointed) == (3612, 866)
    # functoriality is needed: a unit-pointed map that is no functor can fail
    X = selftest._chain_cat(GO2, 2, "chain2")
    BX = ball_category(X)
    idx = _pair_index(BX)
    maps = [VFunctor("α", BX, X, mp)
            for mp in itertools.product(range(2), repeat=len(BX.objects))]
    assert any(_algebra_laws(X, a, idx)[0] is None and _algebra_laws(X, a, idx)[3] is not None
               for a in maps)
