"""Presheaf categories and their monad structure.

A presheaf on X is a distributor X ⇸ E, stored as a tuple of values
indexed by the objects of X; the law is a(x,x') ⊗ φ(x') <= φ(x).  PX
carries the hom ã(φ,ψ) = ⋀_x hom(φ x, ψ x); its objects come from
`vcat.pruned_product`, the search that also lists V-functors, gated by
the |V|^n candidate count, so every constructor here is budget-gated.
The unit is the Yoneda embedding x ↦ a(−,x) and the multiplication is
sup-of-tensor evaluation; the laws are decided exactly, associativity
on the representables of PPX.
Each construction takes a whole family of presheaves and makes one call
of the matrix kernel `Quantale.coded`: `inf_hom` for the ã matrix and
the extension rows, `sup_tensor` for `map_values` and `mult_values`.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import BudgetExceeded, InternalError, NotEnumerable
from .quantale import show_value
from .vcat import DEFAULT_BUDGET, VCategory, VFunctor, pruned_product


class PresheafCategory(VCategory):
    """PX; objects are labeled value tuples over the base category.  The
    hash is `VCategory`'s, memoised and read off the name, quantale and
    objects."""

    # presheaves: value tuples, aligned with .objects
    _fields = VCategory._fields + ("base", "presheaves")


def presheaf_label(values) -> str:
    return "[" + ",".join(show_value(e.value) for e in values) + "]"


def candidate_count(X: VCategory, budget: int = DEFAULT_BUDGET) -> int:
    """|V|^n, the number of candidate maps on X: the budget gate of every
    enumeration over X, checked before any candidate is built."""
    n = len(X.objects)
    if n == 0:
        return 1  # the empty presheaf is the only one
    q = X.quantale
    if not q.enumerable:
        raise NotEnumerable(
            f"cannot enumerate presheaves on {X.name}: {q.name} is infinite")
    count = len(q.carrier) ** n
    if count > budget:
        raise BudgetExceeded(
            f"{count} candidate maps on {X.name} exceed the budget {budget}")
    return count


def presheaves(X: VCategory, budget: int = DEFAULT_BUDGET):
    """Every presheaf on X as a value tuple, in carrier-product order.
    The |V|^n budget gate is checked at once; then `vcat.pruned_product`
    gives object i each carrier index in turn, pruned on
    a(i,j)⊗φ(j) ≤ φ(i) and a(j,i)⊗φ(i) ≤ φ(j) for j ≤ i.  Distributors
    X ⇸ Y (`dist.enumerate_distributors`) are the presheaves on X ⊗ Y^op,
    and `lawvere.enumerate_L` certifies each presheaf on X it yields."""
    candidate_count(X, budget)
    if not X.objects:
        return iter(((),))
    q = X.quantale
    leq, tens = q._leq, q._tensor
    a = [[e.index for e in row] for row in q.coded(X.hom).codes[0]]
    n, V = len(a), range(len(q.carrier))
    # bitmasks of the v that φ(i) may take: own[i] with a(i,i)⊗v ≤ v, and
    # fit[i][j][w], j < i, with a(i,j)⊗w ≤ v and a(j,i)⊗v ≤ w at φ(j) = w
    own = [sum(1 << v for v in V if leq[tens[a[i][i]][v]][v]) for i in range(n)]
    fit = [[[sum(1 << v for v in V if leq[tens[a[i][j]][w]][v] and leq[tens[a[j][i]][v]][w])
             for w in V] for j in range(i)] for i in range(n)]
    return pruned_product(q.carrier, own, fit)


def representables(X: VCategory) -> tuple:
    """The value tuples of x^* = a(−,x), one per object of X."""
    return tuple(tuple(row[x] for row in X.hom) for x in range(len(X.objects)))


def extension_rows(X: VCategory, phis) -> tuple:
    """The rows [φ, (1_X)_*](∗,−) = ⋀_x hom(φ x, a(x,−)), one per presheaf
    φ on X of the family `phis` (value tuples)."""
    return X.quantale.coded(tuple(phis), representables(X)).inf_hom(0, 1)


def find_representatives(Z: VCategory, row) -> tuple:
    """All z whose lower companion row Z(z,−) equals the given row."""
    row = tuple(row)
    return tuple(z for z in range(len(Z.objects)) if tuple(Z.hom[z]) == row)


@lru_cache(maxsize=None)
def presheaf_category(X: VCategory, budget: int = DEFAULT_BUDGET) -> PresheafCategory:
    return full_subcategory(f"P({X.name})", X, presheaves(X, budget))


def full_subcategory(name: str, X: VCategory, members) -> PresheafCategory:
    """The full subcategory of PX on `members` (value tuples), in their
    order, labelled by `presheaf_label` and with hom ã."""
    members = tuple(members)
    objects = tuple(presheaf_label(v) for v in members)
    hom = X.quantale.coded(members).inf_hom(0, 0)
    return PresheafCategory(name, X.quantale, objects, hom, X, members)


@lru_cache(maxsize=None)
def _member_index(PX: PresheafCategory):
    return {v: i for i, v in enumerate(PX.presheaves)}


def member_functor(name: str, dom: VCategory, T: PresheafCategory, images,
                   escape=None) -> VFunctor:
    """dom → T, object i ↦ the member with value tuple images[i].  A
    non-member raises `escape(i, vals)`, by default an InternalError
    naming T."""
    idx = _member_index(T)
    mapping = []
    for i, vals in enumerate(images):
        j = idx.get(vals)
        if j is None:
            raise (escape(i, vals) if escape is not None else InternalError(
                f"{name}: {presheaf_label(vals)} is not a member of {T.name}"))
        mapping.append(j)
    return VFunctor(name, dom, T, tuple(mapping))


def yoneda(X: VCategory, PX: PresheafCategory) -> VFunctor:
    """x ↦ x^* = a(−,x), fully faithful by the Yoneda lemma."""
    # ã(x^*, x'^*) = ⋀_z hom(a(z,x), a(z,x')) = a(x,x'): take z = x for
    # ≤, and a(z,x) ⊗ a(x,x') ≤ a(z,x') by (T) for ≥
    return member_functor(f"y_{X.name}", X, PX, representables(X))


def presheaf_map(f: VFunctor, PX: PresheafCategory, PY: PresheafCategory) -> VFunctor:
    """Pf: PX → PY, φ ↦ φ·f^*, i.e. y ↦ ⋁_x Y(y, f x) ⊗ φ(x)."""
    return member_functor(f"P({f.name})", PX, PY, map_values(f, PX.presheaves))


def map_values(f: VFunctor, phis) -> tuple:
    """(Pf φ)(y) = ⋁_x φ(x) ⊗ Y(y, f x), one value tuple over f.cod for
    each φ of the family `phis` (value tuples over f.dom)."""
    pulled = tuple(tuple(row[fx] for fx in f.mapping) for row in f.cod.hom)
    return f.cod.quantale.coded(tuple(phis), pulled).sup_tensor(0, 1)


def mult_values(PX: PresheafCategory, gammas) -> tuple:
    """m(Γ)(x) = ⋁_φ Γ(φ) ⊗ φ(x), one value tuple over X for each Γ of
    the family `gammas` (value tuples over PX)."""
    columns = tuple(tuple(vals[i] for vals in PX.presheaves)
                    for i in range(len(PX.base.objects)))
    return PX.quantale.coded(tuple(gammas), columns).sup_tensor(0, 1)


def multiplication(X: VCategory, budget: int = DEFAULT_BUDGET) -> VFunctor:
    """m_X: PPX → PX by sup-of-tensor evaluation."""
    PX = presheaf_category(X, budget)
    PPX = presheaf_category(PX, budget)
    return member_functor(f"m_{X.name}", PPX, PX, mult_values(PX, PPX.presheaves))


def verify_monad_laws(X: VCategory, budget: int = DEFAULT_BUDGET) -> dict:
    """Unit and associativity laws for the presheaf structure on X.

    Units are checked on every presheaf on X.  Associativity,
    m_X ∘ m_PX = m_X ∘ P(m_X), is decided on the representables
    θ = PPX(−,g), one per object g of PPX.  That is exact: each route is
    θ ↦ ⋁_g θ(g) ⊗ M[g] for a fixed matrix M, so it preserves joins and
    scalar tensors (moving θ(g) to the front uses commutativity, which
    `Quantale` validates), and every presheaf θ on PPX is
    ⋁_g θ(g) ⊗ PPX(−,g) (density of the Yoneda embedding).  The witness
    is the first representable where the routes part.  PX and PPX are
    budget-gated like every enumeration: |V|^|PX| candidates over the
    budget raise `BudgetExceeded`.
    """
    PX = presheaf_category(X, budget)
    y = yoneda(X, PX)
    report = {"category": X.name, "presheaf_count": len(PX.objects)}

    # m ∘ P(y) = 1:  P(y)(φ)(ψ) = ⋁_x ã(ψ, x^*) ⊗ φ(x)
    _, report["unit_mapped"] = _first_part(
        PX.presheaves, mult_values(PX, map_values(y, PX.presheaves)), PX.presheaves)

    # m ∘ y_PX = 1:  y_PX(φ) = ã(−,φ)
    _, report["unit_pointed"] = _first_part(
        PX.presheaves, mult_values(PX, representables(PX)), PX.presheaves)

    PPX = presheaf_category(PX, budget)
    m = multiplication(X, budget)
    thetas = representables(PPX)
    # m_X ∘ m_PX vs m_X ∘ P(m_X)
    i, verdict = _first_part(thetas, mult_values(PX, mult_values(PPX, thetas)),
                             mult_values(PX, map_values(m, thetas)))
    report["associativity"] = {"mode": "representables",
                               "checked": len(thetas) if i is None else i + 1, **verdict}
    return report


def _first_part(members, left, right):
    """(i, verdict) for the first member i at which the two routes part,
    the verdict's witness; (None, a pass) where they agree throughout."""
    i = next((i for i, (u, v) in enumerate(zip(left, right)) if u != v), None)
    return i, {"ok": i is None, "witness": None if i is None else presheaf_label(members[i])}
