"""Square checks, lax idempotency, and submonads of the presheaf construction."""

import itertools
from collections import Counter

import pytest

from quantcat import monadkit
from quantcat.dist import (
    compose,
    enumerate_distributors,
    first_violation,
    identity_distributor,
    point_column,
    star_lower,
    star_upper,
)
from quantcat.errors import (
    BudgetExceeded,
    MultiplicationEscapesT,
    NotCommuting,
    NotEnumerable,
    QuantaleMismatch,
    ShapeMismatch,
    SpecMismatch,
    UnitNotContained,
)
from quantcat.monadkit import (
    MonadInstance,
    SubmonadSpec,
    _rel_desc,
    admissible_class_check,
    bc_star_square_check,
    canonical_comparison,
    lax_idempotency_report,
    monad_morphism_check,
    phi_membership,
    presheaf_monad,
    square,
    submonad_all,
    submonad_category,
    submonad_monad,
    submonad_right_adjoints,
    submonad_user_table,
    t_embedding_check,
)
from quantcat.presheaf import (
    mult_values,
    presheaf_category,
    presheaf_label,
    representables,
)
from quantcat.quantale import builtin
from quantcat.vcat import (
    VFunctor,
    identity_functor,
    is_fully_dense,
    is_fully_faithful,
    raw_functor,
    relation,
    unit_category,
    validate_category,
)

from .helpers import (
    BOOL,
    LUK2,
    all_functors,
    bool_chain2,
    bool_chain3,
    bool_discrete,
    bool_indiscrete2,
    cat,
    luk2_asym,
    luk2_sym,
)

CHAIN2 = bool_chain2()
CHAIN3 = bool_chain3()
DISC2 = bool_discrete(2)
INDISC2 = bool_indiscrete2()
E = unit_category(BOOL)

ID2 = identity_functor(CHAIN2)
EMB = raw_functor("emb", CHAIN2, CHAIN3, {"x": "x", "y": "y"})
CONST_X = raw_functor("const_x", CHAIN2, CHAIN2, {"x": "x", "y": "x"})
COLLAPSE = raw_functor("collapse", DISC2, DISC2, {"d0": "d0", "d1": "d0"})

P = presheaf_monad()


def all_squares(funs):
    for l in funs:
        for g in funs:
            if g.dom is not l.dom:
                continue
            for f in funs:
                if f.dom is not g.cod:
                    continue
                for h in funs:
                    if h.dom is not l.cod or h.cod is not f.cod:
                        continue
                    try:
                        yield square(l, g, f, h)
                    except NotCommuting:
                        continue


def test_square_corner_and_commutativity_errors():
    with pytest.raises(ShapeMismatch):
        square(ID2, ID2, EMB, ID2)
    with pytest.raises(NotCommuting, match="does not commute at y"):
        square(ID2, ID2, CONST_X, ID2)


def test_identity_square_passes():
    assert bc_star_square_check(square(ID2, ID2, ID2, ID2)) == (True, None)


def test_unit_square_detects_fully_faithful():
    # the square (1, 1, f, f) passes iff f is fully faithful
    funs = all_functors([CHAIN2, CHAIN3, DISC2, INDISC2, E])
    seen = set()
    for f in funs:
        i = identity_functor(f.dom)
        bc, _ = bc_star_square_check(square(i, i, f, f))
        assert bc == is_fully_faithful(f)[0]
        seen.add(bc)
    assert seen == {True, False}


def test_counit_square_detects_fully_dense():
    funs = all_functors([CHAIN2, CHAIN3, DISC2, INDISC2, E])
    seen = set()
    for f in funs:
        i = identity_functor(f.cod)
        bc, _ = bc_star_square_check(square(f, f, i, i))
        assert bc == is_fully_dense(f)[0]
        seen.add(bc)
    assert seen == {True, False}


def test_discrete_collapse_square_fails():
    i = identity_functor(DISC2)
    assert bc_star_square_check(square(i, i, COLLAPSE, COLLAPSE)) == \
        (False, ("d0", "d1"))


def test_transposed_square_can_change_the_verdict():
    funs = all_functors([CHAIN2, DISC2, E])
    disagree = 0
    total = 0
    for sq in all_squares(funs):
        total += 1
        bc, _ = bc_star_square_check(sq)
        try:
            tr = square(sq.left, sq.top, sq.right, sq.bottom)
        except (NotCommuting, ShapeMismatch):
            continue
        if bc_star_square_check(tr)[0] != bc:
            disagree += 1
    assert total > 100
    assert disagree > 0


def test_transpose_witness():
    sq = square(CONST_X, ID2, CONST_X, CONST_X)
    assert bc_star_square_check(sq)[0] is True
    tr = square(ID2, CONST_X, CONST_X, CONST_X)
    assert bc_star_square_check(tr)[0] is False


@pytest.mark.parametrize("f", [EMB, CONST_X], ids=lambda f: f.name)
def test_yoneda_naturality_square_passes(f):
    sq = square(P.unit(f.dom), f, P.unit(f.cod), P.map(f))
    assert bc_star_square_check(sq) == (True, None)


def test_mult_naturality_square_passes():
    ppf = P.map(P.map(EMB))
    sq = square(P.mult(CHAIN2), ppf, P.mult(CHAIN3), P.map(EMB))
    assert bc_star_square_check(sq) == (True, None)


def test_presheaf_image_of_squares():
    i = identity_functor(CHAIN2)
    base = square(i, i, EMB, EMB)
    assert bc_star_square_check(base)[0] is True
    image = square(P.map(i), P.map(i), P.map(EMB), P.map(EMB))
    assert bc_star_square_check(image) == (True, None)
    # the collapse square fails and so does its image
    j = identity_functor(DISC2)
    image = square(P.map(j), P.map(j), P.map(COLLAPSE), P.map(COLLAPSE))
    assert bc_star_square_check(image) == (False, ("[0,1]", "[1,0]"))


def _bc_by_composition(sq):
    """`bc_star_square_check` with h^*·f_* composed too: the reference for
    its gather Y(fx,hz)."""
    base = compose(star_upper(sq.right), star_lower(sq.bottom))
    w = first_violation(base, compose(star_lower(sq.top), star_upper(sq.left)))
    return w is None, w


def _squares_and_images(cats):
    """Every commuting square of functors between `cats`, each followed by
    its image under P."""
    funs = all_functors(cats)
    images = {id(f): P.map(f) for f in funs}
    for sq in all_squares(funs):
        yield sq
        yield square(*(images[id(f)] for f in (sq.top, sq.left, sq.bottom, sq.right)))


_SQUARE_CATS = {"boolean2": [CHAIN2, DISC2, E],
                "lukasiewicz_chain(2)": [luk2_sym(), luk2_asym(), unit_category(LUK2)]}


@pytest.mark.parametrize("tag", list(_SQUARE_CATS))
def test_square_check_matches_the_composed_square(tag):
    pairs = [(bc_star_square_check(sq), _bc_by_composition(sq))
             for sq in _squares_and_images(_SQUARE_CATS[tag])]
    assert all(gathered == composed for gathered, composed in pairs)
    assert len(pairs) > 1000 and {ok for (ok, _), _ in pairs} == {True, False}


@pytest.mark.parametrize("tag", list(_SQUARE_CATS))
def test_the_reverse_inequality_holds_on_every_square(tag):
    # l_*·g^* <= h^*·f_*, which `bc_star_square_check` does not test
    for sq in _squares_and_images(_SQUARE_CATS[tag]):
        corner = compose(star_lower(sq.top), star_upper(sq.left))
        base = compose(star_upper(sq.right), star_lower(sq.bottom))
        assert first_violation(corner, base) is None


@pytest.mark.parametrize("X", [CHAIN2, DISC2], ids=lambda X: X.name)
def test_presheaf_monad_lax_idempotent(X):
    rep = lax_idempotency_report(P, X)
    assert rep["lax_idempotent"] is True
    assert rep["routes_agree"] is True
    assert rep["bc_square"] and rep["mapped_unit_adjoint_to_mult"] \
        and rep["mult_adjoint_to_unit"]


def test_constant_mult_fails_every_route():
    # a functorial "multiplication" that still commutes with both units
    PX = presheaf_category(CHAIN2)
    PPX = presheaf_category(PX)
    top = len(PX.objects) - 1
    crushed = VFunctor("mult_chain2", PPX, PX,
                       tuple(top for _ in PPX.objects))
    broken = MonadInstance("crushed", P.apply, P.map, P.unit, lambda X: crushed)
    rep = lax_idempotency_report(broken, CHAIN2)
    assert rep["bc_square"] is False
    assert rep["mapped_unit_adjoint_to_mult"] is False
    assert rep["mult_adjoint_to_unit"] is False
    assert rep["routes_agree"] is True
    assert rep["lax_idempotent"] is False


def test_enumerate_distributors_counts():
    found = enumerate_distributors(CHAIN2, CHAIN2)
    assert len(found) == 6
    cols = enumerate_distributors(CHAIN2, E)
    assert len(cols) == len(presheaf_category(CHAIN2).presheaves)
    with pytest.raises(BudgetExceeded):
        enumerate_distributors(CHAIN2, CHAIN2, budget=15)
    LUK2 = builtin("lukasiewicz_chain", 2)
    other = cat("pt_luk", LUK2, ["*"], [[1]])
    with pytest.raises(QuantaleMismatch):
        enumerate_distributors(CHAIN2, other)
    EXT = builtin("ext_real_plus")
    pt = validate_category("pt_ext", EXT, ["*"], [[EXT.elem(0)]])
    with pytest.raises(NotEnumerable):
        enumerate_distributors(pt, pt)


def test_right_adjoint_members_are_representables():
    ra = submonad_right_adjoints()
    assert submonad_category(ra, CHAIN2).objects == ("[1,0]", "[1,1]")
    assert submonad_category(ra, DISC2).objects == ("[0,1]", "[1,0]")
    # both points of the indiscrete pair present the same member
    assert submonad_category(ra, INDISC2).objects == ("[1,1]",)
    y = P.unit(CHAIN2)
    images = {y.cod.objects[y(i)] for i in range(2)}
    assert images == set(submonad_category(ra, CHAIN2).objects)


def test_submonad_all_gives_back_presheaves():
    spec = submonad_all()
    TX = submonad_category(spec, CHAIN2)
    assert TX.objects == presheaf_category(CHAIN2).objects
    sigma = canonical_comparison(submonad_monad(spec), CHAIN2)
    assert sigma.mapping == (0, 1, 2)
    rep = monad_morphism_check(submonad_monad(spec), CHAIN2)
    assert rep["monad_morphism"] is True


def test_monad_morphism_right_adjoints():
    T = submonad_monad(submonad_right_adjoints())
    rep = monad_morphism_check(T, CHAIN2, f=EMB)
    assert rep == {
        "monad": "right_adjoints",
        "category": "chain2",
        "unit_triangle": True,
        "multiplication_square": {"ok": True, "witness": None},
        "naturality": {"functor": "emb", "ok": True},
        "pointwise_fully_faithful": True,
        "pointwise_injective": True,
        "monad_morphism": True,
    }
    assert canonical_comparison(T, CHAIN2).mapping == (1, 2)


def test_monad_morphism_presheaf_itself():
    rep = monad_morphism_check(P, CHAIN2, f=CONST_X)
    assert rep["monad_morphism"] is True
    rep = monad_morphism_check(P, DISC2)
    assert rep["multiplication_square"] == {"ok": True, "witness": None}


def test_right_adjoints_submonad_lax_idempotent():
    T = submonad_monad(submonad_right_adjoints())
    rep = lax_idempotency_report(T, CHAIN2)
    assert rep["lax_idempotent"] and rep["routes_agree"]


def test_submonad_escape_errors():
    def only_x(X, vals):
        if X.name == "chain2":
            return presheaf_label(vals) == "[1,0]"
        return True

    T = submonad_monad(SubmonadSpec("only_x", member=only_x))
    with pytest.raises(UnitNotContained, match="image of y"):
        T.unit(CHAIN2)
    with pytest.raises(MultiplicationEscapesT, match="outside only_x"):
        T.mult(CHAIN2)
    const_y = raw_functor("const_y", CHAIN2, CHAIN2, {"x": "y", "y": "y"})
    with pytest.raises(SpecMismatch, match="escapes"):
        T.map(const_y)


def test_user_table_submonad():
    spec = submonad_user_table("rep", {
        "chain2": {"[1,0]", "[1,1]"},
        "rep(chain2)": {"[1,0]", "[1,1]"},
    })
    T = submonad_monad(spec)
    TX = T.apply(CHAIN2)
    assert TX.objects == ("[1,0]", "[1,1]")
    assert T.unit(CHAIN2).mapping == (0, 1)
    mu = T.mult(CHAIN2)
    assert mu.dom.objects == ("[1,0]", "[1,1]")
    with pytest.raises(SpecMismatch, match="no membership table"):
        T.apply(CHAIN3)
    # membership of a whole distributor is derived from its columns
    assert phi_membership(spec, identity_distributor(CHAIN2)) is True
    zero = relation(CHAIN2, CHAIN2, [[BOOL.elem(0)] * 2] * 2)
    assert phi_membership(spec, zero) is False


def test_admissible_classes_on_small_universe():
    cats = [CHAIN2, DISC2]
    funs = [ID2, CONST_X, identity_functor(DISC2),
            raw_functor("swap", DISC2, DISC2, {"d0": "d1", "d1": "d0"})]
    for spec in (submonad_all(), submonad_right_adjoints()):
        rep = admissible_class_check(spec, cats, funs)
        assert rep["admissible"] is True
        assert rep["columnwise"]["independent"] is True
        assert rep["multiplication"]["unchecked"] == []
        assert rep["multiplication"]["unlisted"] == []


def test_broken_class_fails_columnwise_only():
    broken = SubmonadSpec("broken",
                          member=lambda X, vals: True,
                          dist_member=lambda phi: len(phi.cod.objects) != 1)
    rep = admissible_class_check(broken, [CHAIN2], [ID2])
    assert rep["conjoints"]["ok"] is True
    assert rep["composites"]["ok"] is True
    assert rep["multiplication"]["ok"] is True
    assert rep["columnwise"] == {
        "ok": False,
        "witness": "chain2⇸chain2[0,0;0,0] (in as a whole)",
        "independent": True,
    }
    assert rep["admissible"] is False


def _membership_by_composition(spec, phi):
    """`phi_membership` with each column composed as y^*·φ: the reference
    for its reading of the column φ(−,y)."""
    if spec.dist_member is not None:
        return bool(spec.dist_member(phi))
    return all(spec.member(phi.dom, tuple(
        row[0] for row in compose(point_column(phi.cod, y), phi).matrix))
        for y in phi.cod.objects)


def _nested_admissible_class_check(spec, categories, functors, budget):
    """The nested-loop search `admissible_class_check` replaced, kept as
    the oracle for its reports, witnesses and exceptions.  It composes
    every composite and column that the check reads off a hom."""
    phi_membership = _membership_by_composition
    report = {"spec": spec.name}

    w = None
    for f in functors:
        if not phi_membership(spec, star_upper(f)):
            w = f"{f.name}^*"
            break
    report["conjoints"] = {"ok": w is None, "witness": w}

    w = None
    for f in functors:
        X, Y = f.dom, f.cod
        for Z in categories:
            for psi in enumerate_distributors(X, Z, budget):
                if phi_membership(spec, psi) and \
                        not phi_membership(spec, compose(psi, star_upper(f))):
                    w = f"{_rel_desc(psi)}·{f.name}^*"
                    break
            else:
                for phi in enumerate_distributors(Z, Y, budget):
                    if phi_membership(spec, phi) and \
                            not phi_membership(spec, compose(star_upper(f), phi)):
                        w = f"{f.name}^*·{_rel_desc(phi)}"
                        break
                if w is None:
                    continue
            break
        if w is not None:
            break
    report["composites"] = {"ok": w is None, "witness": w}

    w = None
    for X in categories:
        for Y in categories:
            for phi in enumerate_distributors(X, Y, budget):
                whole = phi_membership(spec, phi)
                columns = all(
                    phi_membership(spec, compose(point_column(Y, y), phi))
                    for y in Y.objects)
                if whole != columns:
                    w = f"{_rel_desc(phi)} ({'in' if whole else 'out'} as a whole)"
                    break
            if w is not None:
                break
        if w is not None:
            break
    report["columnwise"] = {"ok": w is None, "witness": w,
                            "independent": spec.dist_member is not None}

    w = None
    unchecked, unlisted = [], []
    for X in categories:
        try:
            PX = presheaf_category(X, budget)
            TX = submonad_category(spec, X, budget)
            PPX = presheaf_category(PX, budget)
        except BudgetExceeded:
            unchecked.append(X.name)
            continue
        keep = [i for i, v in enumerate(PX.presheaves) if spec.member(X, v)]
        for gamma in PPX.presheaves:
            restriction = tuple(gamma[i] for i in keep)
            try:
                restricted = spec.member(TX, restriction)
            except SpecMismatch:
                unlisted.append(TX.name)
                break
            if restricted and not spec.member(X, mult_values(PX, [gamma])[0]):
                w = f"{presheaf_label(gamma)} on P({X.name})"
                break
        if w is not None:
            break
    report["multiplication"] = {"ok": w is None, "witness": w,
                                "unchecked": unchecked, "unlisted": unlisted}

    report["admissible"] = all(report[k]["ok"] for k in
                               ("conjoints", "composites", "columnwise",
                                "multiplication"))
    return report


@pytest.mark.parametrize("universe", ["bool2", "bool3", "luk"])
def test_conjoint_composites_and_columns_are_lookups(universe):
    # f^*·φ(a,x) = φ(a,fx) and y^*·φ = φ(−,y) on every distributor φ
    cats, budget = _UNIVERSES[universe]
    for f in all_functors(cats):
        for Z in cats:
            for phi in enumerate_distributors(Z, f.cod, budget):
                assert compose(star_upper(f), phi).matrix == tuple(
                    tuple(row[fx] for fx in f.mapping) for row in phi.matrix)
    for X in cats:
        for Y in cats:
            for phi in enumerate_distributors(X, Y, budget):
                for j, y in enumerate(Y.objects):
                    assert compose(point_column(Y, y), phi).matrix == \
                        tuple((row[j],) for row in phi.matrix)


@pytest.mark.parametrize("universe", ["bool2", "bool3", "luk"])
@pytest.mark.parametrize("spec_name", ["representables", "has_bottom", "table"])
def test_membership_matches_the_composed_columns(universe, spec_name):
    cats, budget = _UNIVERSES[universe]
    spec = _SPECS[spec_name](cats)
    funs = all_functors(cats)
    relations = [r for X in cats for Y in cats for r in enumerate_distributors(X, Y, budget)]
    relations += [star_upper(f) for f in funs] + [star_lower(f) for f in funs]
    for r in relations:
        assert phi_membership(spec, r) == _membership_by_composition(spec, r)
    assert {phi_membership(spec, r) for r in relations} == {True, False}


def _table_spec(categories, with_member_tables=True):
    """Representables on each X; on tbl(X), every presheaf but the last."""
    table = {X.name: {presheaf_label(v) for v in representables(X)}
             for X in categories}
    if with_member_tables:
        base = submonad_user_table("tbl", dict(table))
        for X in categories:
            TX = submonad_category(base, X)
            table[TX.name] = {presheaf_label(v)
                              for v in presheaf_category(TX).presheaves[:-1]}
    return submonad_user_table("tbl", table)


# test universes as (categories, budget); over lukasiewicz_chain(2), a
# budget of 100 leaves PPX unchecked and 50 stops the distributor lists
_LUK = [luk2_sym(), luk2_asym()]
_UNIVERSES = {
    "bool2": ([CHAIN2, DISC2], 10 ** 6),
    "bool3": ([CHAIN2, INDISC2, cat("chain1", BOOL, ["x"], [[1]])], 10 ** 6),
    "luk": (_LUK, 10 ** 6),
    "luk_budget100": (_LUK, 100),
    "luk_budget50": (_LUK, 50),
}
_SPECS = {
    "all": lambda cats: submonad_all(),
    "right_adjoints": lambda cats: submonad_right_adjoints(),
    "whole_only": lambda cats: SubmonadSpec(
        "whole_only", member=lambda X, vals: True,
        dist_member=lambda phi: len(phi.cod.objects) != 1),
    "representables": lambda cats: SubmonadSpec(
        "representables", member=lambda X, vals: vals in representables(X)),
    "has_bottom": lambda cats: SubmonadSpec(
        "has_bottom", member=lambda X, vals: X.quantale.bottom in vals),
    # the same class decided on whole distributors: here the first failing
    # (f, Z) has a witness on each side, so the search order shows
    "bottom_entry": lambda cats: SubmonadSpec(
        "bottom_entry", member=lambda X, vals: X.quantale.bottom in vals,
        dist_member=lambda phi: any(phi.dom.quantale.bottom in row
                                    for row in phi.matrix)),
    "table": _table_spec,
    "table_without_tbl": lambda cats: _table_spec(cats, False),
}


@pytest.mark.parametrize("universe, spec_name",
                         list(itertools.product(_UNIVERSES, _SPECS)))
def test_admissible_class_check_matches_the_nested_search(universe, spec_name):
    cats, budget = _UNIVERSES[universe]
    funs = all_functors(cats)
    spec = _SPECS[spec_name](cats)

    def outcome(check):
        try:
            return check(spec, cats, funs, budget)
        except (BudgetExceeded, SpecMismatch) as e:
            return f"{type(e).__name__}: {e}"

    assert outcome(admissible_class_check) == \
        outcome(_nested_admissible_class_check)


@pytest.mark.parametrize("spec_name", ["all", "right_adjoints", "whole_only",
                                       "representables"])
def test_admissibility_enumerates_and_decides_once(monkeypatch, spec_name):
    enumerated, decided = Counter(), Counter()

    def counting_enumerate(X, Y, budget):
        enumerated[X, Y] += 1
        return enumerate_distributors(X, Y, budget)

    def counting_membership(spec, phi):
        decided[phi.dom, phi.cod, phi.matrix] += 1
        return phi_membership(spec, phi)

    monkeypatch.setattr(monadkit, "enumerate_distributors", counting_enumerate)
    monkeypatch.setattr(monadkit, "phi_membership", counting_membership)
    cats, _ = _UNIVERSES["bool2"]
    admissible_class_check(_SPECS[spec_name](cats), cats, all_functors(cats))
    assert set(enumerated) == {(X, Y) for X in cats for Y in cats}
    assert max(enumerated.values()) == 1
    assert max(decided.values()) == 1


def test_a_table_that_lists_no_tx_leaves_the_multiplication_unchecked():
    cats, _ = _UNIVERSES["bool2"]
    rep = admissible_class_check(_table_spec(cats, False), cats, all_functors(cats))
    assert rep["multiplication"] == {"ok": True, "witness": None, "unchecked": [],
                                     "unlisted": ["tbl(chain2)", "tbl(disc2)"]}
    # a table that lacks a category of the universe itself is a bad spec
    only_chain2 = submonad_user_table("tbl", {"chain2": {"[1,0]", "[1,1]"}})
    with pytest.raises(SpecMismatch, match="for category disc2"):
        admissible_class_check(only_chain2, cats, all_functors(cats))


def test_t_embedding_checks():
    al = submonad_all()
    assert t_embedding_check(al, EMB)["t_embedding"] is True
    rep = t_embedding_check(al, CONST_X)
    assert rep["t_embedding"] is False
    assert rep["fully_faithful"] is False
    assert rep["witness"] == "('y', 'x')"
    assert t_embedding_check(submonad_right_adjoints(), EMB)["t_embedding"] is True
    # embeddings for the whole presheaf monad are exactly the fully faithful maps
    for f in all_functors([CHAIN2, DISC2, E]):
        assert t_embedding_check(al, f)["t_embedding"] == is_fully_faithful(f)[0]
