"""Right-adjoint presheaves: enumeration, completeness, completion, and
eventually constant Cauchy data over ext_real_plus.

A presheaf φ is a member when it has a left adjoint ψ: E ⇸ X.  Left
adjoints are unique, and φ has one exactly when ψ = [φ, 1_X] is one
(Lawvere, "Metric spaces, generalized logic and closed categories",
1973), so each φ is decided by certifying that one row entry by entry.
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


def _certifies(X, phi, psi):
    """ψ ⊣ φ: unit k ≤ ⋁ ψ(x)⊗φ(x), counit φ(x)⊗ψ(x') ≤ a(x,x')."""
    q = X.quantale
    n = len(X.objects)
    if not all(q.leq(q.tensor(phi[x], psi[y]), X.hom[x][y])
               for x in range(n) for y in range(n)):
        return None
    u = q.coded((psi,), (phi,)).sup_tensor(0, 1)[0][0]
    return u if q.leq(q.unit, u) else None


def enumerate_L(X: VCategory, budget: int = DEFAULT_BUDGET):
    """LX with one certified AdjointPair per member.

    The candidate left adjoint of each presheaf φ is ψ = [φ, 1_X], its
    row of `extension_rows`, one `inf_hom` call for every φ at once;
    φ is a member when `_certifies` passes it.  The |V|^n gate of the
    presheaves and the gate on (|V|^n)² (presheaf, left adjoint) pairs,
    the candidates of a search over every distributor, are checked
    before any presheaf is built.
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
    E = unit_category(X.quantale)
    members, pairs = [], []
    for vals, psi in zip(phis, extension_rows(X, phis)):
        u = _certifies(X, vals, psi)
        if u is not None:
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
    phi_vals = representables(X)[lim]
    psi_vals = tuple(X.hom[lim])
    # x^* ⊣ x_*: the counit a(y,x) ⊗ a(x,y') <= a(y,y') is (T), the unit
    # attains a(x,x) ⊗ a(x,x) >= k; and x represents [x^*, 1_X] = a(x,−)
    pair = AdjointPair(point_column(X, X.objects[lim]), point_row(X, X.objects[lim]),
                       _certifies(X, phi_vals, psi_vals))
    return pair, X.objects[lim]

