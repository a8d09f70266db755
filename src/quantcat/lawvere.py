"""Right-adjoint presheaves by brute force: enumeration, completeness,
completion, and eventually constant Cauchy data over ext_real_plus.

Membership here is decided by searching every candidate vector for a
certifying left adjoint, independently of the extension shortcut used
elsewhere; the two routes agreeing is part of the test suite.
"""

from dataclasses import dataclass

from .colimit import extension_row, find_representatives
from .dist import VRelation, column, point_column, point_row
from .errors import BudgetExceeded, NotEventuallyConstant, NotIntegral, PreconditionFail
from .presheaf import (DEFAULT_BUDGET, candidate_count, full_subcategory, member_functor,
                       presheaf_category, presheaves, representables)
from .vcat import VCategory, is_fully_faithful, unit_category


@dataclass(frozen=True)
class AdjointPair:
    phi: VRelation  # X ⇸ E, the right adjoint
    psi: VRelation  # E ⇸ X, its certifying left adjoint
    unit: object    # the attained value of ⋁_x ψ(x)⊗φ(x), at least k


def _certifies(X, phi, psi):
    """ψ ⊣ φ: unit k ≤ ⋁ ψ(x)⊗φ(x), counit φ(x)⊗ψ(x') ≤ a(x,x')."""
    q = X.quantale
    n = len(X.objects)
    if not all(q.leq(q.tensor(phi[x], psi[y]), X.hom[x][y])
               for x in range(n) for y in range(n)):
        return None
    u = q.join_tensor(psi, phi)
    return u if q.leq(q.unit, u) else None


def enumerate_L(X: VCategory, budget: int = DEFAULT_BUDGET):
    """LX with one certified AdjointPair per member.

    Searches every carrier vector as a candidate left adjoint;
    adjoints are unique among distributors in the thin setting, so the
    certifying ψ kept for each member is canonical.  The search is gated
    on its (|V|^n)² candidate (presheaf, left adjoint) pairs, after the
    |V|^n gate of PX and before PX is built.
    """
    count = candidate_count(X, budget)
    if X.objects and count * count > budget:
        raise BudgetExceeded(
            f"{count * count} candidate (presheaf, left adjoint) pairs on {X.name} "
            f"exceed the budget {budget}")
    PX = presheaf_category(X, budget)
    E = unit_category(X.quantale)
    # candidates ψ: E ⇸ X obey ⋁ ψ(y)⊗a(y,x) ≤ ψ(x), the presheaf law on
    # X^op (V is commutative); X already passed the same |V|^n gate
    Xop = VCategory(f"{X.name}^op", X.quantale, X.objects, tuple(zip(*X.hom)))
    members, pairs = [], []
    for vals in PX.presheaves:
        for cand in presheaves(Xop, budget):
            u = _certifies(X, vals, cand)
            if u is not None:
                psi = VRelation(E, X, (cand,), validated=True)
                members.append(vals)
                pairs.append(AdjointPair(column(X, vals), psi, u))
                break
    return full_subcategory(f"L({X.name})", X, members), tuple(pairs)


def is_L_complete(X: VCategory, budget: int = DEFAULT_BUDGET):
    """Every right-adjoint presheaf equals x^* for some x; else a witness."""
    LX, _ = enumerate_L(X, budget)
    columns = set(representables(X))
    for i, vals in enumerate(LX.presheaves):
        if tuple(vals) not in columns:
            return False, LX.objects[i]
    return True, None


def lawvere_completion(X: VCategory, budget: int = DEFAULT_BUDGET):
    """(LX, unit x ↦ x^*); the unit is an embedding, LX is complete."""
    LX, _ = enumerate_L(X, budget)
    unit = member_functor(
        f"complete_{X.name}", X, LX, representables(X),
        escape=lambda i, vals: AssertionError(
            "a lower companion column failed membership"))
    assert is_fully_faithful(unit)[0]
    assert is_L_complete(LX, budget)[0]
    return LX, unit


@dataclass(frozen=True)
class CauchySequenceSpec:
    points: tuple      # object labels
    stable_from: int   # index after which the sequence stays put


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


def cauchy_pair(X: VCategory, seq: CauchySequenceSpec):
    """(AdjointPair, limit label) for an eventually constant sequence.

    The limit formulas φ = lim X(−,x_n) and ψ = lim X(x_n,−) collapse
    to the columns of the stable point, evaluated exactly; genuinely
    moving limits are out of reach of exact arithmetic.
    """
    q = X.quantale
    if q.kind != "ext_real_plus":
        raise PreconditionFail(
            f"Cauchy data is exposed over ext_real_plus only, not {q.name}")
    lim = X.index(seq.points[seq.stable_from])
    for label in seq.points:
        X.index(label)
    phi_vals = representables(X)[lim]
    psi_vals = tuple(X.hom[lim])
    unit = _certifies(X, phi_vals, psi_vals)
    assert unit is not None, "point columns must certify their own pair"
    pair = AdjointPair(point_column(X, X.objects[lim]),
                       point_row(X, X.objects[lim]), unit)
    reps = find_representatives(X, extension_row(X, phi_vals))
    assert lim in reps, "the stable point must represent its own weight"
    return pair, X.objects[lim]


def l_dense_point_check(X: VCategory, label: str) -> bool:
    """Over an integral quantale: the point is below every other one."""
    q = X.quantale
    if q.unit != q.top:
        raise NotIntegral(f"{q.name} has unit below top")
    y = X.index(label)
    return all(q.leq(q.unit, X.hom[y][x]) for x in range(len(X.objects)))
