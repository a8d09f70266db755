from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantcat.errors import (
    BadParameter,
    ForeignElement,
    JoinsNotPreserved,
    NotALattice,
    NotUnital,
    TensorNotAssociative,
    TensorNotCommutative,
    UnitIsBottom,
)
from quantcat.quantale import INF, QElem, builtin, make_finite_quantale


def F(a, b=1):
    return Fraction(a, b)


def make_bool_like(unit="1"):
    return make_finite_quantale("b", ["0", "1"], [("0", "1")],
                                [["0", "0"], ["0", "1"]], unit)


# ---- construction and frozen oracle values ----

def test_boolean2_residuation_forced():
    q = make_bool_like()
    zero, one = q.elem("0"), q.elem("1")
    assert q.hom(one, zero) == zero
    assert q.hom(zero, zero) == one
    assert q.hom(zero, one) == one
    assert q.hom(one, one) == one


def test_goedel_chain_hom_oracle():
    # brute-force residuation over {0, 1/2, 1} with tensor = min:
    # hom(1, 1/2) = join{v : min(1,v) <= 1/2} = 1/2
    q = builtin("goedel_chain", 2)
    assert q.hom(q.elem(1), q.elem(F(1, 2))) == q.elem(F(1, 2))


def test_unit_is_bottom_rejected():
    # ⊗ = ∨ makes the bottom a genuine unit, which the axiom k ≠ ⊥ forbids
    with pytest.raises(UnitIsBottom):
        make_finite_quantale("q", ["0", "1"], [("0", "1")],
                             [["0", "1"], ["1", "1"]], "0")
    with pytest.raises(UnitIsBottom):
        make_finite_quantale("q", ["k"], [], [["k"]], "k")


def test_validation_witnesses():
    with pytest.raises(TensorNotCommutative):
        make_finite_quantale("q", ["0", "1"], [("0", "1")],
                             [["0", "1"], ["0", "1"]], "1")
    # xor-like table: associative, commutative, but 1 is not a unit for itself
    with pytest.raises(NotUnital):
        make_finite_quantale("q", ["0", "1"], [("0", "1")],
                             [["0", "1"], ["1", "0"]], "1")
    with pytest.raises(NotALattice):
        make_finite_quantale("q", ["a", "b"], [],
                             [["a", "a"], ["a", "b"]], "b")
    with pytest.raises(NotALattice):
        # a <= b <= a with a != b: not antisymmetric
        make_finite_quantale("q", ["a", "b"], [("a", "b"), ("b", "a")],
                             [["a", "a"], ["a", "b"]], "b")


def test_tensor_not_associative_witness():
    # symmetric table on the 3-chain with (m⊗m)⊗1 = 0⊗1 = 0 but
    # m⊗(m⊗1) = m⊗1 = 1
    with pytest.raises(TensorNotAssociative):
        make_finite_quantale(
            "q", ["0", "m", "1"], [("0", "m"), ("m", "1")],
            [["0", "0", "0"], ["0", "0", "1"], ["0", "1", "1"]], "1")


def test_joins_not_preserved_witness():
    # diamond 0 < a,b < 1 with a⊗a = a⊗b = 0:
    # a ⊗ (a ∨ b) = a⊗1 = a  but  (a⊗a) ∨ (a⊗b) = 0 ∨ 0 = 0
    with pytest.raises(JoinsNotPreserved):
        make_finite_quantale(
            "q", ["0", "a", "b", "1"], [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")],
            [["0", "0", "0", "0"],
             ["0", "0", "0", "a"],
             ["0", "0", "b", "b"],
             ["0", "a", "b", "1"]], "1")


def test_bad_parameters():
    with pytest.raises(BadParameter):
        builtin("goedel_chain", 0)
    with pytest.raises(BadParameter):
        builtin("no_such_kind")
    with pytest.raises(BadParameter):
        builtin("boolean2", 5)
    with pytest.raises(BadParameter):
        make_finite_quantale("q", [], [], [], "x")
    with pytest.raises(BadParameter):
        make_finite_quantale("q", ["a", "a"], [], [["a", "a"], ["a", "a"]], "a")


def test_ext_real_plus_oracles():
    q = builtin("ext_real_plus")
    assert q.hom(q.elem(3), q.elem(5)) == q.elem(2)  # 5 ⊖ 3
    assert q.join([q.elem(3), q.elem(5), q.elem(2)]) == q.elem(2)  # sup = inf
    assert q.meet([q.elem(3), q.elem(5), q.elem(2)]) == q.elem(5)
    assert q.hom(q.elem(INF), q.elem(7)) == q.elem(0)
    assert q.hom(q.elem(7), q.elem(INF)) == q.elem(INF)
    assert q.tensor(q.elem(INF), q.elem(0)) == q.elem(INF)
    assert q.unit == q.elem(0) and q.bottom == q.elem(INF) and q.top == q.elem(0)
    assert q.leq(q.elem(5), q.elem(3)) and not q.leq(q.elem(3), q.elem(5))


def test_lukasiewicz_rational_oracles():
    q = builtin("lukasiewicz_rational")
    assert q.tensor(q.elem(F(7, 10)), q.elem(F(6, 10))) == q.elem(F(3, 10))
    assert q.hom(q.elem(F(7, 10)), q.elem(F(4, 10))) == q.elem(F(7, 10))


def test_unit_interval_product_oracles():
    q = builtin("unit_interval_product")
    assert q.hom(q.elem(0), q.elem(F(3, 4))) == q.elem(1)
    assert q.hom(q.elem(F(1, 2)), q.elem(F(1, 4))) == q.elem(F(1, 2))
    assert q.hom(q.elem(F(1, 2)), q.elem(F(3, 4))) == q.elem(1)


def test_goedel_tensor_idempotent():
    q = builtin("goedel_chain", 2)
    h = q.elem(F(1, 2))
    assert q.tensor(h, h) == h


def test_flags():
    assert builtin("lukasiewicz_chain", 2).flags().cancellative
    assert builtin("lukasiewicz_chain", 4).flags().cancellative
    g = builtin("goedel_chain", 2).flags()
    assert g.integral and not g.cancellative
    assert g.witness == (builtin("goedel_chain", 2).elem(F(1, 2)),) * 2
    assert builtin("boolean2").flags().cancellative
    for kind in ("ext_real_plus", "unit_interval_product", "lukasiewicz_rational"):
        f = builtin(kind).flags()
        assert f.integral and f.cancellative and f.method == "analytic"


def test_flags_stable_under_carrier_reordering():
    ref = builtin("goedel_chain", 2)
    vals = [F(1), F(0), F(1, 2)]  # permuted carrier
    perm = make_finite_quantale(
        "gperm", vals,
        [(a, b) for a in vals for b in vals if a <= b],
        [[min(a, b) for b in vals] for a in vals], F(1))
    assert (perm.flags().integral, perm.flags().cancellative) == \
        (ref.flags().integral, ref.flags().cancellative)


def test_foreign_element():
    g2, g3 = builtin("goedel_chain", 2), builtin("goedel_chain", 3)
    with pytest.raises(ForeignElement):
        g2.tensor(g2.elem(1), g3.elem(1))
    with pytest.raises(ForeignElement):
        g2.elem(F(1, 3))
    with pytest.raises(ForeignElement):
        builtin("lukasiewicz_rational").elem(F(3, 2))
    with pytest.raises(ForeignElement):
        builtin("unit_interval_product").elem(INF)
    # structurally identical builds share elements
    assert builtin("goedel_chain", 2).tensor(g2.elem(1), g2.elem(0)) == g2.elem(0)


# ---- laws ----

FINITE_BUILTINS = [
    builtin("boolean2"),
    builtin("goedel_chain", 2),
    builtin("goedel_chain", 3),
    builtin("lukasiewicz_chain", 2),
    builtin("lukasiewicz_chain", 3),
    builtin("lukasiewicz_chain", 4),
]


@pytest.mark.parametrize("q", FINITE_BUILTINS, ids=lambda q: q.name)
def test_residuation_adjunction_exhaustive(q):
    # u⊗v <= w  <=>  v <= hom(u,w)
    for u in q.carrier:
        for v in q.carrier:
            for w in q.carrier:
                assert q.leq(q.tensor(u, v), w) == q.leq(v, q.hom(u, w))


@pytest.mark.parametrize("q", FINITE_BUILTINS, ids=lambda q: q.name)
def test_hom_turns_joins_into_meets(q):
    # hom(u, ⋀ w_i) = ⋀ hom(u, w_i)  and  hom(⋁ u_i, w) = ⋀ hom(u_i, w)
    for u in q.carrier:
        for w1 in q.carrier:
            for w2 in q.carrier:
                assert q.hom(u, q.meet2(w1, w2)) == q.meet2(q.hom(u, w1), q.hom(u, w2))
                assert q.hom(q.join2(w1, w2), u) == q.meet2(q.hom(w1, u), q.hom(w2, u))


@pytest.mark.parametrize("q", FINITE_BUILTINS, ids=lambda q: q.name)
def test_tensor_preserves_all_joins(q):
    # all nonempty joins, not just binary ones (carrier is small enough)
    import itertools
    elems = q.carrier
    for u in elems:
        for size in (1, 2, 3):
            for subset in itertools.combinations(elems, size):
                lhs = q.tensor(u, q.join(subset))
                rhs = q.join([q.tensor(u, v) for v in subset])
                assert lhs == rhs
        assert q.tensor(u, q.bottom) == q.bottom


rational01 = st.fractions(min_value=0, max_value=1)
ext_values = st.one_of(st.just(INF), st.fractions(min_value=0, max_value=50))


@given(rational01, rational01, rational01)
def test_lukasiewicz_rational_adjunction(u, v, w):
    q = builtin("lukasiewicz_rational")
    eu, ev, ew = q.elem(u), q.elem(v), q.elem(w)
    assert q.leq(q.tensor(eu, ev), ew) == q.leq(ev, q.hom(eu, ew))


@given(rational01, rational01, rational01)
def test_unit_interval_product_adjunction(u, v, w):
    q = builtin("unit_interval_product")
    eu, ev, ew = q.elem(u), q.elem(v), q.elem(w)
    assert q.leq(q.tensor(eu, ev), ew) == q.leq(ev, q.hom(eu, ew))


@given(ext_values, ext_values, ext_values)
def test_ext_real_plus_adjunction(u, v, w):
    q = builtin("ext_real_plus")
    eu, ev, ew = q.elem(u), q.elem(v), q.elem(w)
    assert q.leq(q.tensor(eu, ev), ew) == q.leq(ev, q.hom(eu, ew))


@given(st.sampled_from(["ext_real_plus", "unit_interval_product", "lukasiewicz_rational"]),
       st.fractions(min_value=0, max_value=1), st.fractions(min_value=0, max_value=1))
def test_rational_kinds_stay_exact(kind, u, v):
    # results are Fractions (or INF), never floats
    q = builtin(kind)
    for r in (q.tensor(q.elem(u), q.elem(v)), q.hom(q.elem(u), q.elem(v))):
        assert isinstance(r.value, Fraction) or r.value is INF


@settings(max_examples=30)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5))
def test_chain_builtins_validate(n, m):
    # construction already runs the exhaustive axiom check
    assert builtin("goedel_chain", n).enumerable
    assert len(builtin("lukasiewicz_chain", m).carrier) == m + 1


# ---- the sup-tensor / inf-hom kernels ----

KERNEL_QUANTALES = FINITE_BUILTINS + [
    builtin(kind) for kind in ("ext_real_plus", "unit_interval_product",
                               "lukasiewicz_rational")]
FOREIGN = builtin("goedel_chain", 5).unit  # owned by none of the above


def _elements(q):
    if q.enumerable:
        return st.sampled_from(q.carrier)
    return (ext_values if q.kind == "ext_real_plus" else rational01).map(q.elem)


@st.composite
def paired_families(draw):
    q = draw(st.sampled_from(KERNEL_QUANTALES))
    pairs = draw(st.lists(st.tuples(_elements(q), _elements(q)), max_size=6))
    return q, [u for u, _ in pairs], [v for _, v in pairs]


@given(paired_families())
def test_kernels_are_the_plain_folds(family):
    q, us, vs = family
    joined, met = q.bottom, q.top
    for u, v in zip(us, vs):
        joined = q.join2(joined, q.tensor(u, v))
        met = q.meet2(met, q.hom(u, v))
    assert q.join_tensor(us, vs) == joined
    assert q.meet_hom(us, vs) == met


@pytest.mark.parametrize("q", KERNEL_QUANTALES, ids=lambda q: q.name)
def test_kernels_of_empty_families(q):
    assert q.join_tensor([], []) == q.bottom
    assert q.meet_hom([], []) == q.top


@given(paired_families(), st.data())
def test_kernels_reject_foreign_elements(family, data):
    q, us, vs = family
    i = data.draw(st.integers(min_value=0, max_value=len(us)))
    with_foreign = us[:i] + [FOREIGN] + us[i:]
    padded = vs[:i] + [q.unit] + vs[i:]
    for kernel in (q.join_tensor, q.meet_hom):
        with pytest.raises(ForeignElement):
            kernel(with_foreign, padded)
        with pytest.raises(ForeignElement):
            kernel(padded, with_foreign)


# ---- carrier index: finite ops are lookups on QElem.index ----

INDEXED_QUANTALES = FINITE_BUILTINS + [make_bool_like()]
RATIONAL_QUANTALES = KERNEL_QUANTALES[len(FINITE_BUILTINS):]


@pytest.mark.parametrize("q", INDEXED_QUANTALES, ids=lambda q: q.name)
def test_carrier_elements_carry_their_index(q):
    for i, e in enumerate(q.carrier):
        assert e.index == i
        assert q.carrier[e.index] is e
        assert q.elem(e.value) is e


@pytest.mark.parametrize("q", INDEXED_QUANTALES, ids=lambda q: q.name)
def test_eq_and_hash_ignore_the_index(q):
    for e in q.carrier:
        bare = QElem(q.key, e.value)
        assert bare.index is None
        assert bare == q.elem(e.value) and hash(bare) == hash(e)


@pytest.mark.parametrize("q", INDEXED_QUANTALES, ids=lambda q: q.name)
def test_ops_accept_a_hand_built_element(q):
    for u in q.carrier:
        for v in q.carrier:
            bare_u, bare_v = QElem(q.key, u.value), QElem(q.key, v.value)
            for op in (q.leq, q.tensor, q.hom, q.join2, q.meet2):
                assert op(bare_u, v) == op(u, bare_v) == op(u, v)
    assert q.tensor(QElem(q.key, q.unit.value), q.top) is q.top


def test_separate_builds_interoperate():
    g, h = builtin("goedel_chain", 3), builtin("goedel_chain", 3)
    assert g is not h and g == h
    for u in g.carrier:
        for v in h.carrier:
            assert g.tensor(u, v) is g.carrier[min(u.index, v.index)]
            assert h.tensor(u, v) == g.tensor(u, v)
            assert g.leq(u, v) == h.leq(u, v) == (u.value <= v.value)
    assert g.join_tensor(g.carrier, h.carrier) == h.top
    assert h.meet_hom(g.carrier, h.carrier) == g.top


def _foreign_cases():
    g3, g5 = builtin("goedel_chain", 3), builtin("goedel_chain", 5)
    ext, prod = builtin("ext_real_plus"), builtin("unit_interval_product")
    strangers = [Fraction(1), "1", None]
    cases = []
    for q in INDEXED_QUANTALES:
        other = g5 if q.key != g5.key else g3
        for x in [other.unit, ext.unit, prod.elem(F(1, 2))] + strangers:
            cases.append((q, x))
    for q in RATIONAL_QUANTALES:
        other = ext if q.key != ext.key else prod
        for x in [g3.unit, g5.elem(F(2, 5)), other.unit] + strangers:
            cases.append((q, x))
    return cases


@pytest.mark.parametrize("q, x", _foreign_cases(),
                         ids=lambda v: v.name if hasattr(v, "key") else repr(v))
def test_every_op_rejects_a_foreign_element(q, x):
    pairs = ((x, q.unit), (q.unit, x))
    for op in (q.leq, q.tensor, q.hom, q.join2, q.meet2):
        for u, v in pairs:
            with pytest.raises(ForeignElement):
                op(u, v)
    for kernel in (q.join_tensor, q.meet_hom):
        for u, v in pairs:
            with pytest.raises(ForeignElement):
                kernel([u], [v])
