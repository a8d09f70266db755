"""Finite V-categories and V-functors, and the V-relations and Cauchy
sequences that a workspace declares over them.

A V-category is a finite object list with a hom matrix over a quantale,
satisfying reflexivity (k <= a(x,x)) and transitivity
(a(x,x') ⊗ a(x',x'') <= a(x,x'')).  Witnesses reported by the validators
are always the first violation in object-index order.  The (T) check runs
on the integer codes of `Quantale.coded`.  Every record a workspace holds
is built here or in `quantale`, so parsing one loads no other layer;
`dist` and `lawvere` compute with the relations and sequences.
"""

from __future__ import annotations

from functools import reduce
from operator import and_, getitem

from .errors import (
    NotAFunctor,
    NotEnumerable,
    NotEventuallyConstant,
    QuantaleMismatch,
    ReflexivityFail,
    ShapeMismatch,
    TransitivityFail,
)
from .quantale import QElem, Quantale, Record

# the enumeration ceiling of every budget-gated search, and of `--budget`
DEFAULT_BUDGET = 10 ** 6


class VCategory(Record):
    # objects: a tuple of labels; hom: a tuple of QElem rows
    _fields = ("name", "quantale", "objects", "hom")

    def index(self, label: str) -> int:
        try:
            return self.objects.index(label)
        except ValueError:
            raise KeyError(f"{label!r} is not an object of {self.name}") from None

    def same_shape(self, other: "VCategory") -> bool:
        """Structural identity: same quantale, objects, and hom matrix."""
        return (self.quantale == other.quantale and self.objects == other.objects
                and self.hom == other.hom)

    def __hash__(self):
        """The hash of the name, quantale and object labels, computed once
        per instance: a memo keyed by a category hashes it on every lookup,
        and equal categories agree on these fields, so no hom entry is read."""
        try:
            return self._hash
        except AttributeError:
            h = hash((self.name, self.quantale, self.objects))
            object.__setattr__(self, "_hash", h)
            return h

    def __repr__(self):
        return f"VCategory({self.name}, {len(self.objects)} objects)"


class VFunctor(Record):
    _fields = ("name", "dom", "cod", "mapping")  # mapping: dom index -> cod index

    def __call__(self, i: int) -> int:
        return self.mapping[i]

    def on_label(self, label: str) -> str:
        return self.cod.objects[self.mapping[self.dom.index(label)]]

    def __repr__(self):
        return f"VFunctor({self.name}: {self.dom.name} -> {self.cod.name})"


def validate_category(name, quantale, objects, hom) -> VCategory:
    """Check (R) and (T) and freeze the category."""
    objects = tuple(objects)
    if len(set(objects)) != len(objects):
        raise ReflexivityFail(f"duplicate object labels in {name}")
    matrix = tuple(tuple(quantale.check(e) for e in row) for row in hom)
    n = len(objects)
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise ReflexivityFail(f"hom matrix of {name} is not {n}x{n}")
    k = quantale.unit
    for i in range(n):
        if not quantale.leq(k, matrix[i][i]):
            raise ReflexivityFail(
                f"k ≰ a({objects[i]},{objects[i]}) = {matrix[i][i]} in {name}")
    w = next(quantale.coded(matrix).escapes(0, 0, 0), None)
    if w is not None:
        i, j, m = w
        raise TransitivityFail(
            f"a({objects[i]},{objects[j]}) ⊗ a({objects[j]},{objects[m]}) "
            f"= {quantale.tensor(matrix[i][j], matrix[j][m])} ≰ "
            f"a({objects[i]},{objects[m]}) = {matrix[i][m]} in {name}")
    return VCategory(name, quantale, objects, matrix)


def unit_category(quantale: Quantale) -> VCategory:
    """E = ({*}, k), the tensor unit."""
    return VCategory("E", quantale, ("*",), ((quantale.unit,),))


def is_separated(X: VCategory):
    """No two distinct objects are isomorphic; returns (bool, witness pair)."""
    q = X.quantale
    k = q.unit
    for i in range(len(X.objects)):
        for j in range(i + 1, len(X.objects)):
            if q.leq(k, X.hom[i][j]) and q.leq(k, X.hom[j][i]):
                return False, (X.objects[i], X.objects[j])
    return True, None


def hom_self_category(q: Quantale) -> VCategory:
    """The quantale as a category over itself, via its residuation."""
    if not q.enumerable:
        raise NotEnumerable(f"{q.name} has no finite carrier to enumerate")
    objects = tuple(str(e) for e in q.carrier)
    hom = tuple(tuple(q.hom(u, v) for v in q.carrier) for u in q.carrier)
    return VCategory(f"V({q.name})", q, objects, hom)


def validate_functor(name, dom, cod, mapping) -> VFunctor:
    """Check (C): a(x,x') <= b(f x, f x') for all pairs."""
    f = raw_functor(name, dom, cod, mapping)
    q = dom.quantale
    n = len(dom.objects)
    for i in range(n):
        for j in range(n):
            if not q.leq(dom.hom[i][j], cod.hom[f(i)][f(j)]):
                raise NotAFunctor(
                    f"{name}: a({dom.objects[i]},{dom.objects[j]}) = {dom.hom[i][j]} ≰ "
                    f"b({cod.objects[f(i)]},{cod.objects[f(j)]}) = {cod.hom[f(i)][f(j)]}")
    return f


def raw_functor(name, dom, cod, mapping) -> VFunctor:
    """Wrap an arbitrary object map without the (C) check."""
    if dom.quantale != cod.quantale:
        raise QuantaleMismatch(f"{dom.name} and {cod.name} live over different quantales")
    if isinstance(mapping, dict):
        mapping = tuple(cod.index(mapping[x]) for x in dom.objects)
    else:
        mapping = tuple(mapping)
    if len(mapping) != len(dom.objects) or any(
            not (0 <= i < len(cod.objects)) for i in mapping):
        raise NotAFunctor(f"{name}: mapping is not total on {dom.name}")
    return VFunctor(name, dom, cod, mapping)


def is_functor(dom, cod, mapping) -> bool:
    try:
        validate_functor("_", dom, cod, mapping)
        return True
    except NotAFunctor:
        return False


def functors(A: VCategory, X: VCategory):
    """Every object map A → X that is a V-functor, as a tuple of object
    indices of X, in `itertools.product` order: the pruned product with
    f(i) bound by a(i,i) ≤ b(f i, f i), and by a(i,j) ≤ b(f i, f j) and
    a(j,i) ≤ b(f j, f i) for each j < i."""
    if A.quantale != X.quantale:
        raise QuantaleMismatch(f"{A.name} and {X.name} live over different quantales")
    leq, a, b, V = A.quantale.leq, A.hom, X.hom, range(len(X.objects))
    own = [sum(1 << v for v in V if leq(a[i][i], b[v][v])) for i in range(len(a))]
    fit = [[[sum(1 << v for v in V if leq(a[i][j], b[v][w]) and leq(a[j][i], b[w][v]))
             for w in V] for j in range(i)] for i in range(len(a))]
    return pruned_product(V, own, fit)


def pruned_product(values, own, fit):
    """Every tuple over `values` whose position i takes an index in the
    bitmask own[i] and in fit[i][j][w] for each j < i that took index w,
    in `itertools.product` order: a lazy depth-first search with forward
    checking, position i trying only the indices that fit those before."""
    n, V = len(own), range(len(values))

    def extend(picked):
        i = len(picked)
        if i == n:
            yield tuple(map(values.__getitem__, picked))
            return
        fits = reduce(and_, map(getitem, fit[i], picked), own[i])
        for v in V:  # in index order, so the order is the product's
            if fits >> v & 1:
                yield from extend(picked + [v])
    return extend([])


def identity_functor(X: VCategory) -> VFunctor:
    return VFunctor(f"1_{X.name}", X, X, tuple(range(len(X.objects))))


def is_fully_faithful(f: VFunctor):
    """a(x,x') = b(f x, f x') for all pairs; returns (bool, witness)."""
    for i in range(len(f.dom.objects)):
        for j in range(len(f.dom.objects)):
            if f.dom.hom[i][j] != f.cod.hom[f(i)][f(j)]:
                return False, (f.dom.objects[i], f.dom.objects[j])
    return True, None


def is_fully_dense(f: VFunctor):
    """b(y,y') = ⋁_x b(y, f x) ⊗ b(f x, y') for all pairs; returns (bool, witness)."""
    b, ys = f.cod.hom, range(len(f.cod.objects))
    via = f.cod.quantale.coded(tuple(tuple(b[y][fx] for fx in f.mapping) for y in ys),
                               tuple(tuple(b[fx][y] for fx in f.mapping) for y in ys)
                               ).sup_tensor(0, 1)
    w = next(((f.cod.objects[y], f.cod.objects[y2]) for y in ys for y2 in ys
              if b[y][y2] != via[y][y2]), None)
    return w is None, w


def check_adjunction(f: VFunctor, g: VFunctor):
    """f ⊣ g iff X(x, g y) = Y(f x, y) for all x, y.

    f and g may be raw maps: when the equality holds everywhere, both are
    V-functors, so their functoriality is not tested.
    """
    X, Y = f.dom, f.cod
    if not (g.dom.same_shape(Y) and g.cod.same_shape(X)):
        raise NotAFunctor(f"{g.name} does not go back from {Y.name} to {X.name}")
    for i in range(len(X.objects)):
        for j in range(len(Y.objects)):
            if X.hom[i][g(j)] != Y.hom[f(i)][j]:
                return False, (X.objects[i], Y.objects[j])
    # X(x,x') <= X(x,x') ⊗ X(x',gfx') <= X(x,gfx') = Y(fx,fx'), as
    # X(x',gfx') = Y(fx',fx') >= k; dually Y(y,y') <= Y(fgy,y') = X(gy,gy')
    return True, None


# ------------------------------------------- relations and Cauchy sequences

class VRelation(Record):
    _fields = ("dom", "cod", "matrix")  # matrix[i][j], i in dom, j in cod

    def at(self, x: str, y: str) -> QElem:
        return self.matrix[self.dom.index(x)][self.cod.index(y)]

    def __repr__(self):
        return f"VRelation({self.dom.name} ⇸ {self.cod.name})"


def relation(dom, cod, matrix) -> VRelation:
    if dom.quantale != cod.quantale:
        raise QuantaleMismatch(f"{dom.name} and {cod.name} live over different quantales")
    q = dom.quantale
    matrix = tuple(tuple(q.check(e) for e in row) for row in matrix)
    if len(matrix) != len(dom.objects) or any(
            len(row) != len(cod.objects) for row in matrix):
        raise ShapeMismatch(
            f"matrix must be {len(dom.objects)}x{len(cod.objects)} "
            f"for {dom.name} ⇸ {cod.name}")
    return VRelation(dom, cod, matrix)


class CauchySequenceSpec(Record):
    # points: object labels; stable_from: the index after which the
    # sequence stays put
    _fields = ("points", "stable_from")


def cauchy_sequence(points, stable_from: int) -> CauchySequenceSpec:
    points = tuple(points)
    if not 0 <= stable_from < len(points):
        raise NotEventuallyConstant(
            f"stability index {stable_from} outside the sequence")
    tail = set(points[stable_from:])
    if len(tail) != 1:
        raise NotEventuallyConstant(
            f"sequence keeps moving after index {stable_from}: "
            f"{sorted(tail)}")
    return CauchySequenceSpec(points, stable_from)
