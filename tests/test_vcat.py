import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quantcat.errors import (
    NotAFunctor,
    ReflexivityFail,
    TransitivityFail,
)
from quantcat.quantale import builtin
from quantcat.vcat import (
    check_adjunction,
    functors,
    hom_self_category,
    identity_functor,
    is_fully_dense,
    is_fully_faithful,
    is_functor,
    is_separated,
    VCategory,
    raw_functor,
    unit_category,
    validate_functor,
)

from .helpers import (
    BOOL,
    LUK2,
    CountedHash,
    F,
    bool_chain2,
    bool_chain3,
    bool_discrete,
    bool_indiscrete2,
    cat,
    luk2_asym,
)
from .test_quantale import CODED, DIAMOND, _closure, _coded_elements, _matrix


def test_validate_category_luk2():
    # all 8 transitivity triples checked on construction
    X = luk2_asym()
    assert X.hom[0][1] == LUK2.elem(F(1, 2))


def test_discrete_is_valid_and_separated():
    X = bool_discrete(3)
    assert is_separated(X) == (True, None)


def test_reflexivity_witness():
    with pytest.raises(ReflexivityFail):
        cat("bad", LUK2, ["p"], [[F(1, 2)]])


def test_transitivity_witness():
    # 1/2 ⊗ 1/2 = 0 under Lukasiewicz, but going p -> q -> r needs
    # a(p,r) >= a(p,q) ⊗ a(q,r); set a(p,r) too small... tensor drops to 0
    # so use Goedel where 1/2 ⊗ 1/2 = 1/2 > 0 = a(p,r)
    g = builtin("goedel_chain", 2)
    with pytest.raises(TransitivityFail):
        cat("bad", g, ["p", "q", "r"],
            [[1, F(1, 2), 0], [0, 1, F(1, 2)], [0, 0, 1]])


def test_separation():
    assert is_separated(bool_indiscrete2()) == (False, ("p", "q"))
    assert is_separated(bool_chain3())[0]
    for q in (BOOL, LUK2, builtin("goedel_chain", 3)):
        # hom(u,v) >= k and hom(v,u) >= k force u = v by residuation
        assert is_separated(hom_self_category(q))[0]


def test_hom_self_category():
    V = hom_self_category(builtin("goedel_chain", 2))
    assert V.objects == ("0", "1/2", "1")
    assert V.hom[2][1] == builtin("goedel_chain", 2).elem(F(1, 2))
    # row at the unit is the identity of values: hom(k, w) = w
    for j, w in enumerate(builtin("goedel_chain", 2).carrier):
        assert V.hom[2][j] == w
    assert hom_self_category(BOOL).objects == ("0", "1")


def test_validate_functor_and_errors():
    X, Y = bool_chain2(), bool_chain3()
    f = validate_functor("f", X, Y, {"x": "x", "y": "z"})
    assert f.on_label("y") == "z"
    # x <= y in X but images reversed: not monotone, hence not a functor
    with pytest.raises(NotAFunctor):
        validate_functor("g", X, Y, {"x": "z", "y": "x"})


def test_identity_fully_faithful_and_dense():
    X = bool_chain3()
    assert is_fully_faithful(identity_functor(X)) == (True, None)
    assert is_fully_dense(identity_functor(X)) == (True, None)


def test_constant_functor_not_ff():
    X = bool_chain2()
    const = validate_functor("c", X, X, {"x": "y", "y": "y"})
    ok, witness = is_fully_faithful(const)
    assert not ok and witness == ("y", "x")


def test_fully_dense_collapse():
    # surjective collapse of the indiscrete pair onto the one-object category
    X = bool_indiscrete2()
    E = unit_category(BOOL)
    f = validate_functor("f", X, E, {"p": "*", "q": "*"})
    assert is_fully_dense(f)[0]
    g = validate_functor("g", E, X, {"*": "p"})
    assert is_fully_dense(g)[0]  # p ≃ q, so the point p is dense
    h = validate_functor("h", unit_category(BOOL), bool_chain2(), {"*": "x"})
    assert not is_fully_dense(h)[0]


def test_check_adjunction_identity():
    X = luk2_asym()
    assert check_adjunction(identity_functor(X), identity_functor(X)) == (True, None)


def test_check_adjunction_ext_real_example():
    # V-subset {0,1,2} of ([0,inf], ⊖) with f = truncated add-1, g = ⊖1:
    # X(x, g y) = Y(f x, y) on all 9 pairs
    q = builtin("ext_real_plus")
    vals = [0, 1, 2]
    X = cat("T", q, ["0", "1", "2"],
            [[max(b - a, 0) for b in vals] for a in vals])
    f = raw_functor("plus1", X, X, (1, 2, 2))
    g = raw_functor("minus1", X, X, (0, 0, 1))
    ok, _ = check_adjunction(f, g)
    assert ok


def test_check_adjunction_failure_witness():
    X = bool_chain2()
    top = raw_functor("top", X, X, (1, 1))
    idX = identity_functor(X)
    ok, witness = check_adjunction(top, idX)
    assert not ok and witness == ("x", "x")


_FUNCTOR_CATS = [bool_chain2(), bool_chain3(), bool_discrete(2), bool_indiscrete2(),
                 hom_self_category(BOOL), cat("empty", BOOL, [], [])]


@pytest.mark.parametrize("A", _FUNCTOR_CATS, ids=lambda X: X.name)
def test_functors_is_the_object_map_filter(A):
    for X in _FUNCTOR_CATS:
        every = itertools.product(range(len(X.objects)), repeat=len(A.objects))
        assert list(functors(A, X)) == [mp for mp in every if is_functor(A, X, mp)]
    asym = luk2_asym()
    assert list(functors(asym, asym)) == [(0, 0), (0, 1), (1, 1)]


def test_category_hash_is_computed_once_and_reads_no_hom_entry():
    X = luk2_asym()
    twin = VCategory(X.name, X.quantale, X.objects, X.hom)
    assert twin == X and hash(twin) == hash(X) and len({X, twin}) == 1
    copy = VCategory(X.name, X.quantale, X.objects, X.hom)
    assert copy == X and copy is not X and hash(copy) == hash(X)
    label, entry = CountedHash(), CountedHash()
    counted = VCategory("C", BOOL, (label,), ((entry,),))
    hash(counted), hash(counted), hash(counted)
    assert (label.calls, entry.calls) == (1, 0)


# the rational kinds and two finite ones, one of them not a chain
_FUNCTOR_QUANTALES = [builtin(kind) for kind in ("ext_real_plus", "unit_interval_product",
                                                 "lukasiewicz_rational")] + [
    builtin("goedel_chain", 3), DIAMOND]


def _first_nonfunctorial_pair(dom, cod, mp):
    """The first (i, j), row-major, with a(i,j) ≰ b(f i, f j); else None."""
    q = dom.quantale
    for i in range(len(mp)):
        for j in range(len(mp)):
            if not q.leq(dom.hom[i][j], cod.hom[mp[i]][mp[j]]):
                return i, j
    return None


@CODED
@given(st.sampled_from(_FUNCTOR_QUANTALES), st.integers(0, 4), st.integers(1, 4), st.data())
def test_validate_functor_names_the_first_escape_of_the_per_pair_scan(q, n, m, data):
    Y = VCategory("Y", q, tuple(f"y{k}" for k in range(m)),
                  tuple(map(tuple, _closure(q, data.draw(_matrix(q, m, m))))))
    mp = tuple(data.draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n)))
    # the hom pulled back along mp is a functor's domain; raising a few
    # entries plants violations, some of which are real
    hom = [[Y.hom[mp[i]][mp[j]] for j in range(n)] for i in range(n)]
    cells = [(i, j) for i in range(n) for j in range(n)]
    for i, j in data.draw(st.lists(st.sampled_from(cells), max_size=3, unique=True)
                          if cells else st.just([])):
        hom[i][j] = q.join2(hom[i][j], data.draw(st.one_of(st.just(q.top), _coded_elements(q))))
    X = VCategory("X", q, tuple(f"x{k}" for k in range(n)), tuple(map(tuple, hom)))
    want = _first_nonfunctorial_pair(X, Y, mp)
    if want is None:
        assert validate_functor("f", X, Y, mp).mapping == mp
        return
    i, j = want
    with pytest.raises(NotAFunctor) as e:
        validate_functor("f", X, Y, mp)
    assert str(e.value) == (f"f: a(x{i},x{j}) = {X.hom[i][j]} ≰ "
                            f"b(y{mp[i]},y{mp[j]}) = {Y.hom[mp[i]][mp[j]]}")
