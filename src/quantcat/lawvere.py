"""Right-adjoint presheaves: enumeration, completeness, completion, and
eventually constant Cauchy data over ext_real_plus.

A presheaf φ is a member when it has a left adjoint ψ: E ⇸ X.  Left
adjoints are unique, and φ has one exactly when ψ = [φ, 1_X] is one
(Lawvere, "Metric spaces, generalized logic and closed categories",
1973).  That ψ always satisfies the counit, so each φ is decided by the
unit of that one row alone.
`monadkit.is_right_adjoint_distributor` decides the same class through
the distributor calculus; the two routes agreeing is part of the test
suite, which also keeps the search over every distributor as an oracle.
"""

from .dist import column, point_column, point_row
from .errors import BudgetExceeded, PreconditionFail
from .presheaf import (candidate_count, extension_rows, full_subcategory, member_functor,
                       presheaves, representables)
from .quantale import Record
from .vcat import DEFAULT_BUDGET, CauchySequenceSpec, VCategory, VRelation, unit_category


class AdjointPair(Record):
    # φ: X ⇸ E, the right adjoint; ψ: E ⇸ X, its certifying left adjoint;
    # unit: the attained value of ⋁_x ψ(x)⊗φ(x), at least k
    _fields = ("phi", "psi", "unit")


def enumerate_L(X: VCategory, budget: int = DEFAULT_BUDGET):
    """LX with one certified AdjointPair per member.

    The candidate left adjoint of each presheaf φ is ψ = [φ, 1_X], its
    row of `extension_rows`, one `inf_hom` call for every φ at once;
    φ is a member when ψ passes the unit k ≤ ⋁_x ψ(x)⊗φ(x).  The |V|^n
    gate of the presheaves and the gate on (|V|^n)² (presheaf, left
    adjoint) pairs, the candidates of a search over every distributor,
    are checked before any presheaf is built.
    """
    count = candidate_count(X, budget)
    if not X.objects:
        # no ψ certifies the empty presheaf: k ≰ ⋁∅ = ⊥, over any V
        return full_subcategory(f"L({X.name})", X, ()), ()
    if count * count > budget:
        raise BudgetExceeded(
            f"{count * count} candidate (presheaf, left adjoint) pairs on {X.name} "
            f"exceed the budget {budget}")
    phis = tuple(presheaves(X, budget))  # PX's hom is not needed
    q = X.quantale
    E = unit_category(q)
    members, pairs = [], []
    for vals, psi in zip(phis, extension_rows(X, phis)):
        # ψ ⊣ φ needs only the unit: the counit φ(x)⊗ψ(x') ≤ a(x,x') holds
        # by residuation, as ψ(x') = ⋀_z hom(φ z, a(z,x')) ≤ hom(φ x, a(x,x'))
        # and v ⊗ hom(v, w) ≤ w; the test suite decides it once
        u = q.coded((psi,), (vals,)).sup_tensor(0, 1)[0][0]
        if q.leq(q.unit, u):
            members.append(vals)
            pairs.append(AdjointPair(column(X, vals), VRelation(E, X, (psi,)), u))
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
    # fully faithful by Yoneda, as LX's hom is ã; L-complete because the
    # Cauchy completion is idempotent, L(LX) = LX (Lawvere 1973).
    # Selftest C11 decides both.
    return LX, member_functor(f"complete_{X.name}", X, LX, representables(X))


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
    # x^* ⊣ x_*: the counit a(y,x) ⊗ a(x,y') <= a(y,y') is (T); the unit
    # ⋁_y a(x,y) ⊗ a(y,x) is a(x,x), at most a(x,x) by (T) and at least
    # a(x,x) ⊗ a(x,x) >= a(x,x) ⊗ k at y = x; and x represents
    # [x^*, 1_X] = a(x,−).  The test suite decides all three
    pair = AdjointPair(point_column(X, X.objects[lim]), point_row(X, X.objects[lim]),
                       X.hom[lim][lim])
    return pair, X.objects[lim]

