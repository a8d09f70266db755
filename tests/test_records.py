"""The package's immutable records: construction by position or keyword,
equality by class and fields, the hash of the field tuple (memoised on
the name, quantale and objects for the V-category family), and no
assignment."""

import importlib
import pkgutil

import pytest

import quantcat

from quantcat.ball import BallCategory, ball_category
from quantcat.dist import identity_distributor
from quantcat.lawvere import AdjointPair, cauchy_pair
from quantcat.monadkit import (CommutingSquare, MonadInstance, SubmonadSpec, presheaf_monad,
                               square, submonad_all)
from quantcat.presheaf import PresheafCategory, presheaf_category
from quantcat.quantale import QElem, QuantaleFlags, Record, builtin
from quantcat.vcat import (CauchySequenceSpec, VCategory, VFunctor, VRelation, cauchy_sequence,
                           identity_functor)

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
    "AdjointPair": (cauchy_pair(METRIC, cauchy_sequence(("a", "b"), 1))[0],
                    ("phi", "psi", "unit")),
    "CauchySequenceSpec": (cauchy_sequence(("a", "b", "b"), 1), ("points", "stable_from")),
}


def test_every_record_is_listed():
    classes = {QElem, QuantaleFlags, VCategory, VFunctor, PresheafCategory, BallCategory,
               VRelation, CommutingSquare, MonadInstance, SubmonadSpec, AdjointPair,
               CauchySequenceSpec}
    assert {type(r) for r, _ in RECORDS.values()} == classes


@pytest.mark.parametrize("name", list(RECORDS))
def test_construction_by_keyword(name):
    r, names = RECORDS[name]
    fields = {f: getattr(r, f) for f in names}
    assert type(r)(**fields) == r
    assert type(r)(*list(fields.values())[:2], **dict(list(fields.items())[2:])) == r


def test_class_defaults_fill_left_out_fields():
    flags = QuantaleFlags(True, True, "analytic")
    assert flags.witness is None and flags == QuantaleFlags(True, True, "analytic", None)
    member = submonad_all().member
    spec = SubmonadSpec("s", member)
    assert spec.dist_member is None and spec == SubmonadSpec("s", member, dist_member=None)


# every record built on the one `Record.__init__`
GENERIC = [name for name in RECORDS if name != "QElem"]


@pytest.mark.parametrize("name", GENERIC)
def test_a_wrong_call_is_a_type_error(name):
    r, names = RECORDS[name]
    fields = tuple(getattr(r, f) for f in names)
    takes = f"{name}\\(\\) takes the fields {', '.join(names)}, each once; got"
    for args, kwargs, got in [(fields[:1], {}, "1 by position and none"),
                              (fields + (None,), {}, f"{len(fields) + 1} by position"),
                              (fields, {"bogus": None}, "and bogus by keyword"),
                              (fields, {names[0]: fields[0]}, f"and {names[0]} by keyword")]:
        with pytest.raises(TypeError, match=f"{takes} .*{got}"):
            type(r)(*args, **kwargs)


def test_only_qelem_writes_out_a_constructor():
    for info in pkgutil.iter_modules(quantcat.__path__):
        importlib.import_module(f"quantcat.{info.name}")
    seen, todo = set(), list(Record.__subclasses__())
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.add(cls)
            todo += cls.__subclasses__()
    package = {cls for cls in seen if cls.__module__.startswith("quantcat.")}
    assert {cls.__name__ for cls in package} >= set(RECORDS)
    assert [cls.__name__ for cls in package if "__init__" in vars(cls)] == ["QElem"]


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
