"""V-relations and V-distributors.

A relation r: X ⇸ Y (`vcat.VRelation`) is a matrix r[x][y] over the
shared quantale; composition is sup-of-tensor,
(s·r)(x,z) = ⋁_y r(x,y) ⊗ s(y,z).
A distributor additionally absorbs the hom structures on both sides.
Companions f_* and f^* of a functor, adjoint pairs, and the right
extension [φ,ψ](y,z) = ⋀_x hom(φ(x,y), ψ(x,z)) live here too.  A
composite, a right extension and the order test `first_violation` are
each one call of the matrix kernel `Quantale.coded` (`sup_tensor`,
`inf_hom`, `escape`).
"""

from __future__ import annotations

import itertools

from .errors import (BudgetExceeded, LeftActionFail, NotEnumerable,
                     QuantaleMismatch, RightActionFail, ShapeMismatch)
from .vcat import DEFAULT_BUDGET, VCategory, VFunctor, VRelation, unit_category


def first_violation(r: VRelation, s: VRelation):
    """First (x,y) where r(x,y) ≰ s(x,y), or None."""
    _same_shape(r, s)
    w = r.dom.quantale.coded(r.matrix, s.matrix).escape(0, 1)
    return None if w is None else (r.dom.objects[w[0]], r.cod.objects[w[1]])


def _same_shape(r, s):
    if not (r.dom.same_shape(s.dom) and r.cod.same_shape(s.cod)):
        raise ShapeMismatch("relations are not parallel")


def compose(s: VRelation, r: VRelation) -> VRelation:
    """s·r for r: X ⇸ Y, s: Y ⇸ Z."""
    if not r.cod.same_shape(s.dom):
        raise ShapeMismatch(
            f"cannot compose: {r.dom.name} ⇸ {r.cod.name} then {s.dom.name} ⇸ {s.cod.name}")
    matrix = r.dom.quantale.coded(r.matrix, _columns(s)).sup_tensor(0, 1)
    return VRelation(r.dom, s.cod, matrix)


def _columns(r: VRelation) -> tuple:
    """The transposed matrix: one tuple per object of the codomain."""
    return tuple(zip(*r.matrix)) if r.matrix else ((),) * len(r.cod.objects)


def identity_distributor(X: VCategory) -> VRelation:
    """1_X in the distributor category is the hom structure itself."""
    return VRelation(X, X, X.hom)


def validate_distributor(r: VRelation) -> VRelation:
    """Accept iff r absorbs both hom actions; witnesses the first escape."""
    X, Y = r.dom, r.cod
    ra = compose(r, identity_distributor(X))  # r·a
    w = first_violation(ra, r)
    if w is not None:
        raise RightActionFail(
            f"domain action escapes at {w}: (φ·a){w} = {ra.at(*w)} ≰ φ{w} = {r.at(*w)}")
    br = compose(identity_distributor(Y), r)  # b·r
    w = first_violation(br, r)
    if w is not None:
        raise LeftActionFail(
            f"codomain action escapes at {w}: (b·φ){w} = {br.at(*w)} ≰ φ{w} = {r.at(*w)}")
    return r


def star_lower(f: VFunctor) -> VRelation:
    """f_*: X ⇸ Y with f_*(x,y) = Y(f x, y)."""
    Y = f.cod
    matrix = tuple(tuple(Y.hom[f(i)][j] for j in range(len(Y.objects)))
                   for i in range(len(f.dom.objects)))
    return VRelation(f.dom, Y, matrix)


def star_upper(f: VFunctor) -> VRelation:
    """f^*: Y ⇸ X with f^*(y,x) = Y(y, f x)."""
    Y = f.cod
    matrix = tuple(tuple(Y.hom[j][f(i)] for i in range(len(f.dom.objects)))
                   for j in range(len(Y.objects)))
    return VRelation(Y, f.dom, matrix)


def check_adjoint_pair(psi: VRelation, phi: VRelation):
    """psi ⊣ phi for psi: Y ⇸ X, phi: X ⇸ Y.

    Unit: 1_Y <= phi·psi; counit: psi·phi <= 1_X, where the identities
    are the hom structures of distributor composition.  Returns
    (bool, unit w, counit w).
    """
    if not (psi.dom.same_shape(phi.cod) and psi.cod.same_shape(phi.dom)):
        raise ShapeMismatch("adjoint candidates must have opposite shapes")
    unit_w = first_violation(identity_distributor(phi.cod), compose(phi, psi))
    counit_w = first_violation(compose(psi, phi), identity_distributor(phi.dom))
    return unit_w is None and counit_w is None, unit_w, counit_w


def right_extension(phi: VRelation, psi: VRelation) -> VRelation:
    """[φ,ψ]: Y ⇸ Z for φ: X ⇸ Y, ψ: X ⇸ Z, the value of the right
    adjoint to (−)·φ:  [φ,ψ](y,z) = ⋀_x hom(φ(x,y), ψ(x,z))."""
    if not phi.dom.same_shape(psi.dom):
        raise ShapeMismatch("right extension needs a common domain")
    matrix = phi.dom.quantale.coded(_columns(phi), _columns(psi)).inf_hom(0, 1)
    return VRelation(phi.cod, psi.cod, matrix)


def point_row(X: VCategory, label: str) -> VRelation:
    """x_*: E ⇸ X, the row a(x,−)."""
    i = X.index(label)
    return VRelation(unit_category(X.quantale), X, (tuple(X.hom[i]),))


def column(X: VCategory, values) -> VRelation:
    """The X ⇸ E column of a value tuple over X."""
    return VRelation(X, unit_category(X.quantale),
                     tuple((v,) for v in values))


def point_column(X: VCategory, label: str) -> VRelation:
    """x^*: X ⇸ E, the column a(−,x)."""
    i = X.index(label)
    return column(X, (row[i] for row in X.hom))


def enumerate_distributors(X: VCategory, Y: VCategory,
                           budget: int = DEFAULT_BUDGET) -> tuple:
    """Every distributor X ⇸ Y, in row-major carrier-product order.

    A distributor X ⇸ Y is a presheaf on X ⊗ Y^op, whose objects are the
    pairs (x, y) in row-major order and whose hom is a(x,x')⊗b(y',y);
    the presheaves on it, cut into rows, are the distributors.
    """
    q = X.quantale
    if Y.quantale != q:
        raise QuantaleMismatch(f"{X.name} and {Y.name} live over different quantales")
    if not q.enumerable:
        raise NotEnumerable(f"cannot enumerate matrices over {q.name}")
    cells = len(X.objects) * len(Y.objects)
    count = len(q.carrier) ** cells
    if count > budget:
        raise BudgetExceeded(f"{count} candidate matrices over budget {budget}")
    from .presheaf import presheaves

    n, m = len(X.objects), len(Y.objects)
    pairs = tuple(itertools.product(range(n), range(m)))
    XY = VCategory(f"{X.name}⊗{Y.name}^op", q, tuple(map(str, pairs)),
                   tuple(tuple(q.tensor(X.hom[x][x2], Y.hom[y2][y])
                               for x2, y2 in pairs) for x, y in pairs))
    # the gate inside `presheaves` is the count just checked: it cannot fire
    return tuple(VRelation(X, Y, tuple(vals[i * m:(i + 1) * m] for i in range(n)))
                 for vals in presheaves(XY, budget))
