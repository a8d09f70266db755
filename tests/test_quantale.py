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
from quantcat.quantale import INF, MAX_CHAIN_N, Coded, QElem, builtin, make_finite_quantale

from .helpers import DIAMOND, NON_INTEGRAL, join_tensor, meet_hom


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
    # as many rows as elements, but a short row
    with pytest.raises(BadParameter, match="tensor table must be square"):
        make_finite_quantale("q", ["o", "i"], [("o", "i")], [["o", "o"], ["o"]], "i")


@pytest.mark.parametrize("kind", ["goedel_chain", "lukasiewicz_chain"])
def test_builtin_chains_stop_at_the_bound(kind):
    # validating a chain takes time of order n³, so n is capped
    assert len(builtin(kind, MAX_CHAIN_N).carrier) == MAX_CHAIN_N + 1
    with pytest.raises(BadParameter, match=f"n <= {MAX_CHAIN_N}"):
        builtin(kind, MAX_CHAIN_N + 1)


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


@pytest.mark.parametrize("q", [*FINITE_BUILTINS, DIAMOND, NON_INTEGRAL, make_bool_like("1"),
                               *(builtin("goedel_chain", n) for n in (1, 4, 5)),
                               *(builtin("lukasiewicz_chain", n) for n in (1, 5))],
                         ids=lambda q: q.name)
def test_residuation_adjunction_exhaustive(q):
    # u⊗v <= w  <=>  v <= hom(u,w); a finite build derives hom as
    # ⋁{v : u⊗v ≤ w} and does not test this
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
    assert q.coded([us], [vs]).sup_tensor(0, 1) == ((joined,),)
    assert q.coded([us], [vs]).inf_hom(0, 1) == ((met,),)


@pytest.mark.parametrize("q", KERNEL_QUANTALES, ids=lambda q: q.name)
def test_kernels_of_empty_families(q):
    assert q.coded([[]], [[]]).sup_tensor(0, 1) == ((q.bottom,),)
    assert q.coded([[]], [[]]).inf_hom(0, 1) == ((q.top,),)


@given(paired_families(), st.data())
def test_kernels_reject_foreign_elements(family, data):
    q, us, vs = family
    i = data.draw(st.integers(min_value=0, max_value=len(us)))
    with_foreign = us[:i] + [FOREIGN] + us[i:]
    padded = vs[:i] + [q.unit] + vs[i:]
    for kernel in (Coded.sup_tensor, Coded.inf_hom):
        with pytest.raises(ForeignElement):
            kernel(q.coded([with_foreign], [padded]), 0, 1)
        with pytest.raises(ForeignElement):
            kernel(q.coded([padded], [with_foreign]), 0, 1)


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
    assert g.coded([g.carrier], [h.carrier]).sup_tensor(0, 1) == ((h.top,),)
    assert h.coded([g.carrier], [h.carrier]).inf_hom(0, 1) == ((g.top,),)


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
    for kernel in (Coded.sup_tensor, Coded.inf_hom):
        for u, v in pairs:
            with pytest.raises(ForeignElement):
                kernel(q.coded([[u]], [[v]]), 0, 1)


# ---- the coded matrix kernel against the per-element ops ----

# a lattice that is not a chain, so a coded join is not a max
CODED_QUANTALES = KERNEL_QUANTALES + [DIAMOND]


def _fraction_in(lo, hi_num, denominators):
    return denominators.flatmap(
        lambda d: st.integers(lo, hi_num * d).map(lambda n: Fraction(n, d)))


# small and large denominators, mixed within one matrix
_DENOMINATORS = st.one_of(st.integers(1, 12), st.integers(1, 10 ** 15))


def _coded_elements(q):
    if q.enumerable:
        return st.sampled_from(q.carrier)
    if q.kind == "ext_real_plus":
        values = st.one_of(st.sampled_from([INF, F(0), F(1)]),
                           _fraction_in(0, 40, _DENOMINATORS),
                           st.integers(0, 10 ** 20).map(Fraction))
    else:
        values = st.one_of(st.sampled_from([F(0), F(1)]),
                           _fraction_in(0, 1, _DENOMINATORS))
    return values.map(q.elem)


def _matrix(q, rows, cols):
    return st.lists(st.lists(_coded_elements(q), min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


def _first_escape(q, a, b):
    for x, (ra, rb) in enumerate(zip(a, b)):
        for y, (u, v) in enumerate(zip(ra, rb)):
            if not q.leq(u, v):
                return x, y
    return None


def _first_intransitive(q, a):
    n = len(a)
    for i in range(n):
        for j in range(n):
            for m in range(n):
                if not q.leq(q.tensor(a[i][j], a[j][m]), a[i][m]):
                    return i, j, m
    return None


def _below(q, data, e):
    """An element strictly below e, or None when e is the bottom."""
    if e == q.bottom:
        return None
    if q.enumerable:
        return data.draw(st.sampled_from([v for v in q.carrier
                                          if q.leq(v, e) and v != e]))
    if q.kind == "ext_real_plus":
        if e.value is INF:
            raise AssertionError("INF is the bottom")
        return q.elem(e.value + data.draw(st.sampled_from([F(1, 10 ** 9), F(1), INF])))
    return q.elem(e.value * data.draw(st.sampled_from([F(0), F(1, 3), F(10 ** 9 - 1, 10 ** 9)])))


CODED = settings(max_examples=300, derandomize=True, deadline=None)


@CODED
@given(st.sampled_from(CODED_QUANTALES), st.integers(0, 4), st.integers(0, 4), st.data())
def test_coded_escape_is_the_first_per_element_escape(q, rows, cols, data):
    a = data.draw(_matrix(q, rows, cols))
    # b above a everywhere, then lowered below a at a few planted cells
    b = [[q.join2(u, v) for u, v in zip(ra, rb)]
         for ra, rb in zip(a, data.draw(_matrix(q, rows, cols)))]
    cells = [(x, y) for x in range(rows) for y in range(cols)]
    planted = sorted(data.draw(st.lists(st.sampled_from(cells), max_size=3, unique=True))
                     if cells else [])
    for x, y in planted:
        low = _below(q, data, a[x][y])
        if low is not None:
            b[x][y] = low
    want = _first_escape(q, a, b)
    assert q.coded(a, b).escape(0, 1) == want
    assert want == next((c for c in planted if not q.leq(a[c[0]][c[1]], b[c[0]][c[1]])), None)
    # and on two unrelated matrices
    c = data.draw(_matrix(q, rows, cols))
    assert q.coded(a, c).escape(0, 1) == _first_escape(q, a, c)


def _closure(q, a):
    """The least reflexive and transitive matrix above a: Floyd–Warshall
    passes over V until none changes an entry.  One pass is not enough on
    a non-integral V, where a pass can raise a(k,k) above the unit after
    the entries that route through k were computed."""
    a = [row[:] for row in a]
    for i in range(len(a)):
        a[i][i] = q.join2(a[i][i], q.unit)
    changed = True
    while changed:
        changed = False
        for k in range(len(a)):
            for i in range(len(a)):
                for j in range(len(a)):
                    v = q.join2(a[i][j], q.tensor(a[i][k], a[k][j]))
                    changed |= v != a[i][j]
                    a[i][j] = v
    return a


@CODED
@given(st.sampled_from(CODED_QUANTALES), st.integers(0, 5), st.data())
def test_coded_transitivity_is_the_first_per_element_failure(q, n, data):
    a = data.draw(_matrix(q, n, n))
    assert next(q.coded(a).escapes(0, 0, 0), None) == _first_intransitive(q, a)
    hom = _closure(q, a)
    assert next(q.coded(hom).escapes(0, 0, 0), None) is None
    assert _first_intransitive(q, hom) is None
    # lower planted entries of a transitive matrix: the witness is the
    # first failing triple in (i, j, m) order
    for i, m in data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                   max_size=2) if n else st.just([])):
        low = _below(q, data, hom[i][m])
        if low is not None:
            hom[i][m] = low
    assert next(q.coded(hom).escapes(0, 0, 0), None) == _first_intransitive(q, hom)


@CODED
@given(st.sampled_from(CODED_QUANTALES), st.integers(0, 4), st.integers(0, 4),
       st.integers(0, 4), st.data())
def test_coded_sup_tensor_is_join_tensor(q, rows, inner, cols, data):
    a = data.draw(_matrix(q, rows, inner))
    b = data.draw(_matrix(q, cols, inner))
    got = q.coded(a, b).sup_tensor(0, 1)
    want = tuple(tuple(join_tensor(q, ra, rb) for rb in b) for ra in a)
    assert got == want
    # the same elements: normalised Fractions, INF kept, carrier elements
    assert [[(type(e.value), str(e)) for e in row] for row in got] == \
        [[(type(e.value), str(e)) for e in row] for row in want]
    if q.enumerable:
        assert all(e is q.carrier[e.index] for row in got for e in row)


# every builtin, a lattice that is not a chain, and a chain whose unit
# is below the top
INF_HOM_QUANTALES = KERNEL_QUANTALES + [DIAMOND, NON_INTEGRAL]


@CODED
@given(st.sampled_from(INF_HOM_QUANTALES), st.integers(0, 4), st.integers(0, 4),
       st.integers(0, 4), st.data())
def test_coded_inf_hom_is_the_per_pair_meet_hom(q, rows, inner, cols, data):
    a = data.draw(_matrix(q, rows, inner))
    b = data.draw(_matrix(q, cols, inner))
    if inner and rows and data.draw(st.booleans()):
        a[0][0] = QElem(q.key, a[0][0].value)  # hand-built: no carrier index
    if inner and cols and data.draw(st.booleans()):
        b[-1][-1] = QElem(q.key, b[-1][-1].value)
    got = q.coded(a, b).inf_hom(0, 1)
    want = tuple(tuple(meet_hom(q, ra, rb) for rb in b) for ra in a)
    assert got == want
    # the same elements: normalised Fractions, INF kept, carrier elements
    assert [[(type(e.value), str(e)) for e in row] for row in got] == \
        [[(type(e.value), str(e)) for e in row] for row in want]
    if q.enumerable:
        assert all(e is q.carrier[e.index] for row in got for e in row)


@pytest.mark.parametrize("q", INF_HOM_QUANTALES, ids=lambda q: q.name)
def test_coded_inf_hom_rejects_foreign_elements(q):
    assert q.coded([[]], [[], []]).inf_hom(0, 1) == ((q.top, q.top),)
    for a, b in (([[FOREIGN]], [[q.unit]]), ([[q.unit]], [[q.top], [FOREIGN]])):
        with pytest.raises(ForeignElement):
            q.coded(a, b).inf_hom(0, 1)


def test_a_sum_of_finite_codes_never_reaches_inf():
    q = builtin("ext_real_plus")
    big, zero, inf = q.elem(F(7, 3)), q.elem(F(0)), q.elem(INF)
    # (big + big) < inf: the sentinel must sit above twice the largest code
    hom = [[zero, big, inf], [inf, zero, big], [inf, inf, zero]]
    assert next(q.coded(hom).escapes(0, 0, 0), None) == (0, 1, 2)
    assert q.coded([[big]], [[big]]).sup_tensor(0, 1) == ((q.elem(F(14, 3)),),)
    assert q.coded([[inf, big]], [[zero, inf]]).sup_tensor(0, 1) == ((inf,),)


@pytest.mark.parametrize("q", CODED_QUANTALES, ids=lambda q: q.name)
def test_coded_accepts_hand_built_and_rejects_foreign_elements(q):
    bare = QElem(q.key, q.unit.value)
    assert q.coded([[bare]], [[q.unit]]).escape(0, 1) is None
    assert next(q.coded([[bare]]).escapes(0, 0, 0), None) is None
    assert q.coded([[bare]], [[bare]]).sup_tensor(0, 1) == ((q.unit,),)
    for m in ([[FOREIGN]], [[q.unit, FOREIGN]]):
        with pytest.raises(ForeignElement):
            q.coded(m)
