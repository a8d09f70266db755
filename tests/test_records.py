"""The package's immutable records: equality by class and fields, the
hash of the field tuple (memoised on the name, quantale and objects for
the V-category family), and no assignment."""

import pytest

from quantcat.ball import BallCategory, ball_category
from quantcat.colimit import AlgebraStructure, WeightedDiagram, algebra_extract, weighted_diagram
from quantcat.dist import identity_distributor
from quantcat.lawvere import AdjointPair, cauchy_pair
from quantcat.monadkit import (CommutingSquare, MonadInstance, SubmonadSpec, presheaf_monad,
                               square, submonad_all)
from quantcat.presheaf import PresheafCategory, presheaf_category
from quantcat.quantale import QElem, QuantaleFlags, builtin
from quantcat.vcat import (CauchySequenceSpec, VCategory, VFunctor, VRelation, cauchy_sequence,
                           hom_self_category, identity_functor)

from .helpers import BOOL, bool_chain2, cat

CHAIN2 = bool_chain2()
METRIC = cat("two", builtin("ext_real_plus"), ["a", "b"], [[0, 1], [1, 0]])
ONE = identity_functor(CHAIN2)

# each record, with its fields in constructor order
RECORDS = {
    "QElem": (BOOL.top, ("owner", "value")),
    "QuantaleFlags": (builtin("goedel_chain", 2).flags(),
                      ("integral", "cancellative", "method", "witness")),
    "VCategory": (CHAIN2, ("name", "quantale", "objects", "hom")),
    "VFunctor": (ONE, ("name", "dom", "cod", "mapping")),
    "PresheafCategory": (presheaf_category(CHAIN2),
                         ("name", "quantale", "objects", "hom", "base", "presheaves")),
    "BallCategory": (ball_category(CHAIN2),
                     ("name", "quantale", "objects", "hom", "base", "pairs", "extended")),
    "VRelation": (identity_distributor(CHAIN2), ("dom", "cod", "matrix")),
    "CommutingSquare": (square(ONE, ONE, ONE, ONE), ("top", "left", "bottom", "right")),
    "MonadInstance": (presheaf_monad(), ("name", "apply", "map", "unit", "mult")),
    "SubmonadSpec": (submonad_all(), ("name", "member", "dist_member")),
    "WeightedDiagram": (weighted_diagram(identity_distributor(CHAIN2), ONE),
                        ("weight", "diagram")),
    "AlgebraStructure": (algebra_extract(hom_self_category(BOOL), submonad_all())["algebra"],
                         ("carrier", "spec", "alpha")),
    "AdjointPair": (cauchy_pair(METRIC, cauchy_sequence(("a", "b"), 1))[0],
                    ("phi", "psi", "unit")),
    "CauchySequenceSpec": (cauchy_sequence(("a", "b", "b"), 1), ("points", "stable_from")),
}


def test_every_record_is_listed():
    classes = {QElem, QuantaleFlags, VCategory, VFunctor, PresheafCategory, BallCategory,
               VRelation, CommutingSquare, MonadInstance, SubmonadSpec, WeightedDiagram,
               AlgebraStructure, AdjointPair, CauchySequenceSpec}
    assert {type(r) for r, _ in RECORDS.values()} == classes


@pytest.mark.parametrize("name", list(RECORDS))
def test_equality_is_by_class_and_fields(name):
    r, names = RECORDS[name]
    fields = tuple(getattr(r, f) for f in names)
    twin = type(r)(*fields)
    assert twin == r and r == twin and twin is not r and not twin != r
    for i in range(len(fields)):
        other = type(r)(*fields[:i], object(), *fields[i + 1:])
        assert other != r and r != other
    subclass = type("Sub", (type(r),), {})
    assert subclass(*fields) != r and r != subclass(*fields)
    assert r != fields


@pytest.mark.parametrize("name", list(RECORDS))
def test_hash_is_the_hash_of_the_fields(name):
    r, names = RECORDS[name]
    fields = tuple(getattr(r, f) for f in names)
    if isinstance(r, VCategory):
        assert hash(r) == hash((r.name, r.quantale, r.objects))
    else:
        assert hash(r) == hash(fields)
    assert hash(type(r)(*fields)) == hash(r)


@pytest.mark.parametrize("name", list(RECORDS))
def test_fields_cannot_be_assigned(name):
    r, names = RECORDS[name]
    for f in names + ("other",):
        with pytest.raises(AttributeError):
            setattr(r, f, None)
        with pytest.raises(AttributeError):
            delattr(r, f)


def test_a_presheaf_category_never_equals_a_category():
    for C in (presheaf_category(CHAIN2), ball_category(CHAIN2)):
        plain = VCategory(C.name, C.quantale, C.objects, C.hom)
        assert C != plain and plain != C and C.same_shape(plain)
        assert hash(C) == hash(plain) and len({C, plain}) == 2


def test_custom_reprs_are_kept():
    assert repr(CHAIN2) == "VCategory(chain2, 2 objects)"
    assert repr(ONE) == "VFunctor(1_chain2: chain2 -> chain2)"
    assert repr(identity_distributor(CHAIN2)) == "VRelation(chain2 ⇸ chain2)"
    assert repr(BOOL.top) == "QElem(1)"
    assert repr(RECORDS["CauchySequenceSpec"][0]) == \
        "CauchySequenceSpec(points=('a', 'b', 'b'), stable_from=1)"
