"""Relation and distributor layer: composition, companions, extensions."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quantcat.dist import (
    check_adjoint_pair,
    compose,
    enumerate_distributors,
    first_violation,
    identity_distributor,
    point_column,
    point_row,
    right_extension,
    star_lower,
    star_upper,
    validate_distributor,
)
from quantcat.errors import (
    LeftActionFail,
    QuantaleMismatch,
    RightActionFail,
    ShapeMismatch,
)
from quantcat.quantale import INF, builtin
from quantcat.vcat import (
    VFunctor,
    identity_functor,
    is_fully_dense,
    is_fully_faithful,
    relation,
    unit_category,
    validate_category,
    validate_functor,
)

from .helpers import (
    BOOL,
    LUK2,
    F,
    bool_chain2,
    bool_chain3,
    bool_discrete,
    bool_indiscrete2,
    cat,
    distributors_by_filter,
    functor_criterion,
    is_distributor,
    luk2_asym,
    luk2_sym,
    point,
)
from .test_presheaf import FINITE, PROPERTY, finite_categories
from .test_quantale import CODED, CODED_QUANTALES, _below, _closure, _matrix

EXT = builtin("ext_real_plus")
GO3 = builtin("goedel_chain", 3)


def rel(X, Y, rows):
    q = X.quantale
    return relation(X, Y, [[q.elem(v) for v in row] for row in rows])


def diagonal(X):
    """The k-diagonal on X: k on the diagonal, ⊥ elsewhere."""
    q = X.quantale
    n = len(X.objects)
    return relation(X, X, [[q.unit if i == j else q.bottom for j in range(n)]
                           for i in range(n)])


def ext_discrete(name, labels):
    return cat(name, EXT, labels,
               [[0 if i == j else INF for j in range(len(labels))]
                for i in range(len(labels))])


def all_bool_relations(X, Y):
    nx, ny = len(X.objects), len(Y.objects)
    for bits in itertools.product([0, 1], repeat=nx * ny):
        yield rel(X, Y, [[bits[i * ny + j] for j in range(ny)]
                         for i in range(nx)])


# ---------------------------------------------------------------- composition

def test_min_plus_composition():
    # over ext_real_plus the join is numeric min and the tensor is +,
    # so composition is min-plus matrix product
    P, Q, R = ext_discrete("P", ["p0", "p1"]), ext_discrete("Q", ["q0", "q1"]), \
        ext_discrete("R", ["r0", "r1"])
    r = rel(P, Q, [[1, 3], [7, 9]])
    s = rel(Q, R, [[4, 6], [1, 2]])
    sr = compose(s, r)
    assert sr.at("p0", "r0") == EXT.elem(4)  # min(1+4, 3+1)
    assert sr.at("p0", "r1") == EXT.elem(5)
    assert sr.at("p1", "r0") == EXT.elem(10)
    assert sr.at("p1", "r1") == EXT.elem(11)

    r2 = rel(P, Q, [[1, INF], [INF, 0]])
    sr2 = compose(s, r2)
    assert [[str(e) for e in row] for row in sr2.matrix] == [["5", "7"], ["1", "2"]]


def test_scalar_composition_and_extension_are_tensor_and_hom():
    # a relation E ⇸ E is a scalar; composition/extension reduce to ⊗/hom
    E = unit_category(GO3)
    for u in GO3.carrier:
        for w in GO3.carrier:
            assert compose(relation(E, E, [[u]]), relation(E, E, [[w]])).matrix[0][0] \
                == GO3.tensor(u, w)
            assert right_extension(relation(E, E, [[u]]),
                                   relation(E, E, [[w]])).matrix[0][0] == GO3.hom(u, w)


def test_identity_laws_for_distributor_composition():
    X, Y = bool_chain2(), bool_chain3()
    f = validate_functor("j", X, Y, {"x": "x", "y": "z"})
    phi = star_lower(f)
    assert compose(phi, identity_distributor(X)).matrix == phi.matrix
    assert compose(identity_distributor(Y), phi).matrix == phi.matrix


def test_compose_shape_mismatch():
    X, Z = bool_chain2(), bool_chain3()
    r = rel(X, X, [[1, 0], [0, 1]])
    s = rel(Z, Z, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(ShapeMismatch):
        compose(s, r)
    with pytest.raises(ShapeMismatch):
        rel(X, X, [[1, 0]])
    with pytest.raises(QuantaleMismatch):
        relation(X, luk2_asym(), ((BOOL.unit,) * 2,) * 2)


# -------------------------------------------------------------- distributors

def test_hom_structure_is_a_distributor_but_diagonal_is_not():
    X = bool_chain2()
    hom = identity_distributor(X)
    assert validate_distributor(hom) is hom
    with pytest.raises(RightActionFail):
        validate_distributor(diagonal(X))
    D = bool_discrete(2)
    assert diagonal(D).matrix == identity_distributor(D).matrix


def test_domain_action_escape_witness():
    # on a chain a presheaf must not grow along the order
    X = bool_chain2()
    phi = rel(X, unit_category(BOOL), [[0], [1]])
    with pytest.raises(RightActionFail) as ei:
        validate_distributor(phi)
    assert "('x', '*')" in str(ei.value)
    # in row w, the term through u escapes at column 1 and the later term
    # through v at column 0: the witness is the first column
    V = cat("V", BOOL, ["u", "v", "w"], [[1, 0, 0], [0, 1, 0], [1, 1, 1]])
    phi = rel(V, bool_discrete(2), [[0, 1], [1, 0], [0, 0]])
    with pytest.raises(RightActionFail) as ei:
        validate_distributor(phi)
    assert str(ei.value).startswith("domain action escapes at ('w', 'd0'): (φ·a)('w', 'd0') = 1")


def test_codomain_action_escape_witness():
    X = bool_chain2()
    psi = rel(unit_category(BOOL), X, [[1, 0]])
    with pytest.raises(LeftActionFail) as ei:
        validate_distributor(psi)
    assert "('*', 'y')" in str(ei.value)


def _action_escape_by_composites(r):
    """(error type, message) of the first escape of φ·a or b·φ from φ,
    read off the composites; else None."""
    for side, name, fail, composite in (
            ("domain", "φ·a", RightActionFail, compose(r, identity_distributor(r.dom))),
            ("codomain", "b·φ", LeftActionFail, compose(identity_distributor(r.cod), r))):
        w = first_violation(composite, r)
        if w is not None:
            return fail, (f"{side} action escapes at {w}: ({name}){w} = "
                          f"{composite.at(*w)} ≰ φ{w} = {r.at(*w)}")
    return None


@CODED
@given(st.sampled_from(CODED_QUANTALES), st.integers(0, 3), st.integers(0, 3), st.data())
def test_action_escapes_are_those_of_the_composites(q, n, m, data):
    # every kind, empty categories on either side included
    X = validate_category("X", q, [f"x{i}" for i in range(n)],
                          _closure(q, data.draw(_matrix(q, n, n))))
    Y = validate_category("Y", q, [f"y{j}" for j in range(m)],
                          _closure(q, data.draw(_matrix(q, m, m))))
    phi = relation(X, Y, data.draw(_matrix(q, n, m)))
    if data.draw(st.booleans()):
        # b·φ·a is a distributor; lowering entries plants escapes
        phi = compose(identity_distributor(Y), compose(phi, identity_distributor(X)))
        rows = [list(row) for row in phi.matrix]
        for x, y in data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1)),
                                       max_size=2) if n and m else st.just([])):
            low = _below(q, data, rows[x][y])
            if low is not None:
                rows[x][y] = low
        phi = relation(X, Y, rows)
    want = _action_escape_by_composites(phi)
    if want is None:
        assert validate_distributor(phi) is phi
    else:
        with pytest.raises(want[0]) as ei:
            validate_distributor(phi)
        assert str(ei.value) == want[1]


def test_functor_criterion_agrees_with_action_validation():
    # two independent formulations of "is a distributor"
    X = bool_chain2()
    good = 0
    for r in all_bool_relations(X, X):
        ok = is_distributor(r)
        assert ok == functor_criterion(r)
        good += ok
    # monotone 0/1 matrices on the 2-chain square = down-sets of a diamond
    assert good == 6


def test_functor_criterion_agrees_over_lukasiewicz():
    X, Y = luk2_asym(), luk2_sym()
    vals = [0, F(1, 2), 1]
    seen = {True: 0, False: 0}
    for m in itertools.product(vals, repeat=4):
        r = rel(X, Y, [[m[0], m[1]], [m[2], m[3]]])
        ok = is_distributor(r)
        assert ok == functor_criterion(r)
        seen[ok] += 1
    assert seen[True] and seen[False]


def test_distributors_closed_under_composition():
    X = bool_chain2()
    dists = [r for r in all_bool_relations(X, X) if is_distributor(r)]
    for phi in dists:
        for psi in dists:
            out = compose(validate_distributor(psi), validate_distributor(phi))
            assert is_distributor(out)


# ---------------------------------------------------------------- companions

def test_point_companions_are_hom_rows_and_columns():
    X = bool_chain3()
    assert point_row(X, "y").matrix == ((BOOL.bottom, BOOL.unit, BOOL.unit),)
    assert point_column(X, "y").matrix == \
        ((BOOL.unit,), (BOOL.unit,), (BOOL.bottom,))
    pt = point(X, "y")
    assert star_lower(pt).matrix == point_row(X, "y").matrix
    assert star_upper(pt).matrix == point_column(X, "y").matrix


@pytest.mark.parametrize("mk", [
    lambda: identity_functor(bool_chain3()),
    lambda: validate_functor("j", bool_chain2(), bool_chain3(), {"x": "x", "y": "z"}),
    lambda: validate_functor("c", bool_chain2(), bool_chain2(), {"x": "x", "y": "x"}),
    lambda: identity_functor(luk2_asym()),
    lambda: validate_functor("r", luk2_asym(), luk2_sym(), {"p": "p", "q": "q"}),
])
def test_companion_adjunction(mk):
    f = mk()
    ok, uw, cw = check_adjoint_pair(star_lower(f), star_upper(f))
    assert ok and uw is None and cw is None


def test_companions_are_functorial():
    f = validate_functor("f", bool_chain2(), bool_chain3(), {"x": "x", "y": "z"})
    g = validate_functor("g", bool_chain3(), bool_chain2(),
                         {"x": "x", "y": "x", "z": "y"})
    gf = VFunctor("g∘f", f.dom, g.cod, tuple(g(i) for i in f.mapping))
    assert star_lower(gf).matrix == compose(star_lower(g), star_lower(f)).matrix
    assert star_upper(gf).matrix == compose(star_upper(f), star_upper(g)).matrix


@pytest.mark.parametrize("mk,ff,dense", [
    (lambda: identity_functor(bool_chain2()), True, True),
    (lambda: validate_functor("c", bool_chain2(), bool_chain2(),
                              {"x": "x", "y": "x"}), False, False),
    (lambda: validate_functor("j", bool_chain2(), bool_chain3(),
                              {"x": "x", "y": "z"}), True, False),
    (lambda: point(bool_indiscrete2(), "p"), True, True),
])
def test_companion_composites_detect_ff_and_density(mk, ff, dense):
    # f^*·f_* = a iff fully faithful; f_*·f^* = b iff fully dense
    f = mk()
    lower, upper = star_lower(f), star_upper(f)
    assert (compose(upper, lower).matrix == f.dom.hom) == ff == is_fully_faithful(f)[0]
    assert (compose(lower, upper).matrix == f.cod.hom) == dense == is_fully_dense(f)[0]


def test_adjoint_pair_failure_witness():
    X = bool_chain2()
    zero = rel(X, X, [[0, 0], [0, 0]])
    ok, uw, cw = check_adjoint_pair(zero, identity_distributor(X))
    assert not ok and uw == ("x", "x") and cw is None
    with pytest.raises(ShapeMismatch):
        check_adjoint_pair(rel(X, bool_chain3(), [[0, 0, 0], [0, 0, 0]]),
                           identity_distributor(X))


@pytest.mark.parametrize("side", ["domain", "codomain"])
def test_adjoint_candidates_mismatched_on_one_side(side):
    # ψ: Y ⇸ X against φ: X ⇸ Y, with one end of ψ on a two-object D instead
    X, Y, D = bool_chain2(), bool_indiscrete2(), bool_discrete(2)
    phi = rel(X, Y, [[1, 1], [1, 1]])
    psi = rel(D, X, [[0, 0], [0, 0]]) if side == "domain" else rel(Y, D, [[0, 0], [0, 0]])
    with pytest.raises(ShapeMismatch, match="opposite shapes"):
        check_adjoint_pair(psi, phi)


# ------------------------------------------------------------ right extension

def test_right_extension_along_identity_is_identity():
    X = bool_chain2()
    for psi in (star_lower(validate_functor("j", X, bool_chain3(),
                                            {"x": "x", "y": "z"})),
                identity_distributor(luk2_asym())):
        ext = right_extension(identity_distributor(psi.dom), psi)
        assert ext.matrix == psi.matrix


def test_right_extension_is_right_adjoint_to_composition():
    # θ·φ <= ψ iff θ <= [φ,ψ], for every θ; no distributor assumptions
    X, Z = bool_chain2(), bool_discrete(2)
    cases = [
        (identity_distributor(X), rel(X, Z, [[1, 0], [0, 1]])),
        (rel(X, X, [[0, 1], [1, 0]]), rel(X, Z, [[1, 1], [0, 0]])),
    ]
    for phi, psi in cases:
        ext = right_extension(phi, psi)
        below = 0
        for theta in all_bool_relations(X, Z):
            lhs = first_violation(compose(theta, phi), psi) is None
            rhs = first_violation(theta, ext) is None
            assert lhs == rhs
            below += rhs
        assert 0 < below < 16
    # frozen count for the hom/identity pair: [φ,ψ] = [[1,0],[0,0]]
    ext = right_extension(*cases[0])
    assert [[str(e) for e in row] for row in ext.matrix] == [["1", "0"], ["0", "0"]]
    assert sum(first_violation(t, ext) is None
               for t in all_bool_relations(X, Z)) == 2


def test_right_extension_needs_common_domain():
    with pytest.raises(ShapeMismatch):
        right_extension(identity_distributor(bool_chain2()),
                        identity_distributor(bool_chain3()))


# -------------------------------------------------------------------- bookkeeping

@pytest.mark.parametrize("side", ["domain", "codomain"])
def test_relations_mismatched_on_one_side_are_not_parallel(side):
    # chain2 and disc2 have two objects each, so the matrices fit
    X, D = bool_chain2(), bool_discrete(2)
    r = rel(X, X, [[0, 0], [0, 0]])
    s = rel(D, X, [[1, 1], [1, 1]]) if side == "domain" else rel(X, D, [[1, 1], [1, 1]])
    with pytest.raises(ShapeMismatch, match="not parallel"):
        first_violation(r, s)


def test_first_violation_scan_order():
    X = bool_chain2()
    r = rel(X, X, [[1, 1], [1, 0]])
    s = rel(X, X, [[1, 0], [0, 0]])
    assert first_violation(r, s) == ("x", "y")
    assert first_violation(s, r) is None


_BOOL_CATS = [bool_chain2(), bool_discrete(2), bool_indiscrete2(),
              unit_category(BOOL), cat("empty", BOOL, [], [])]
_LUK_CATS = [luk2_sym(), luk2_asym(), unit_category(LUK2)]
_PAIRS = [(X, Y) for cats in (_BOOL_CATS, _LUK_CATS) for X in cats for Y in cats]


@pytest.mark.parametrize(
    "X, Y", _PAIRS,
    ids=[f"{X.name}-{Y.name}-{X.quantale.name}" for X, Y in _PAIRS])
def test_enumerate_distributors_matches_the_matrix_filter(X, Y):
    found = enumerate_distributors(X, Y)
    assert [r.matrix for r in found] == distributors_by_filter(X, Y)
    assert all(r.dom is X and r.cod is Y for r in found)


@PROPERTY
@given(st.sampled_from(FINITE).flatmap(lambda q: st.tuples(
    finite_categories(q, max_objects=2, closed=True),
    finite_categories(q, max_objects=2, closed=True))))
def test_enumerate_distributors_matches_the_matrix_filter_at_random(XY):
    X, Y = XY
    assert [r.matrix for r in enumerate_distributors(X, Y)] == distributors_by_filter(X, Y)
