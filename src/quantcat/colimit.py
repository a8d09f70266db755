"""Weighted colimits, cocompleteness, and algebra extraction for submonads.

A weight φ: X ⇸ Y and a diagram f: X → Z ask for a functor g: Y → Z
with g_* = [φ, f_*]; everything else here (algebra structures
α: TX → X, whose failures decide cocompleteness, the minimum-based
characterisation, homomorphism and injectivity checks) reduces to
searching representatives for such right extensions row by row.
"""

import itertools

from .dist import right_extension, star_lower
from .errors import (
    BudgetExceeded,
    InternalError,
    NoColimit,
    NoMinimum,
    QuantaleMismatch,
    ShapeMismatch,
)
from .monadkit import SubmonadSpec, submonad_category, submonad_monad
from .presheaf import extension_rows, find_representatives, presheaf_label
from .vcat import (DEFAULT_BUDGET, VCategory, VFunctor, VRelation, check_adjunction, functors,
                   is_functor)


def weighted_colimit(phi: VRelation, f: VFunctor) -> VFunctor:
    """The functor g with g_* = [φ, f_*] for a weight φ: X ⇸ Y and a
    diagram f: X → Z; NoColimit names the first bad y.

    Representatives are searched per object of Y; in a non-separated
    target the least object index is taken.
    """
    if phi.dom.quantale != f.cod.quantale:
        raise QuantaleMismatch(
            f"weight over {phi.dom.quantale.name}, "
            f"diagram over {f.cod.quantale.name}")
    if not phi.dom.same_shape(f.dom):
        raise ShapeMismatch("weight and diagram must share their source")
    Z = f.cod
    target = right_extension(phi, star_lower(f))
    mapping = []
    for y, row in enumerate(target.matrix):
        reps = find_representatives(Z, row)
        if not reps:
            raise NoColimit(
                f"nothing in {Z.name} represents the weighted image "
                f"of {phi.cod.objects[y]}")
        mapping.append(reps[0])
    g = VFunctor(f"colim({f.name})", phi.cod, Z, tuple(mapping))
    # g_* = [φ, f_*] row by row, as Z(g y, −) is the row itself; that g is
    # a functor rests on φ being a distributor, which is the caller's
    if not is_functor(g.dom, g.cod, g.mapping):
        raise InternalError(f"{g.name} is not a functor")
    return g


def algebra_extract(X: VCategory, spec: SubmonadSpec,
                    budget: int = DEFAULT_BUDGET) -> dict:
    """α(φ) := the representative of [φ, (1_X)_*], member by member.

    Ties in a non-separated carrier go to the least index: two
    representatives z₁, z₂ of one row have X(z₁,−) = X(z₂,−), so z₁ ≅ z₂
    and, by (T), their columns agree too; no other choice tells them
    apart.  X is T-cocomplete exactly when no member lands in
    "failures".  On success α itself is reported under "algebra", and
    the section and adjunction laws for the unit are verified and
    reported.
    """
    TX = submonad_category(spec, X, budget)
    n = len(X.objects)
    mapping, failures, ambiguous = [], [], []
    for label, row in zip(TX.objects, extension_rows(X, TX.presheaves)):
        reps = find_representatives(X, row)
        if not reps:
            failures.append(label)
            continue
        if len(reps) > 1:
            ambiguous.append(label)
        mapping.append(reps[0])
    if failures:
        return {"category": X.name, "spec": spec.name, "algebra": None,
                "failures": tuple(failures), "ambiguous": tuple(ambiguous),
                "unit_section": None, "adjoint_to_unit": None, "ok": False}
    # a functor: ã(φ,ρ) ⊗ [ρ,a](z) <= [φ,a](z), and at z = αρ this reads
    # ã(φ,ρ) <= ã(φ,ρ) ⊗ X(αρ,αρ) <= X(αφ,αρ)
    alpha = VFunctor(f"alpha_{TX.name}", TX, X, tuple(mapping))
    unit = submonad_monad(spec, budget).unit(X)
    section = all(alpha(unit(i)) == i for i in range(n))
    adjoint = check_adjunction(alpha, unit)[0]
    return {"category": X.name, "spec": spec.name,
            "algebra": alpha, "failures": (),
            "ambiguous": tuple(ambiguous), "unit_section": section,
            "adjoint_to_unit": adjoint, "ok": section and adjoint}


def min_point(X: VCategory, vals) -> int:
    """min{x : φ ≤ x^*} in the underlying order; NoMinimum if absent."""
    q = X.quantale
    n = len(X.objects)
    sat = [z for z in range(n)
           if all(q.leq(vals[i], X.hom[i][z]) for i in range(n))]
    for m in sat:
        if all(q.leq(q.unit, X.hom[m][z]) for z in sat):
            return m
    raise NoMinimum(f"{presheaf_label(vals)} admits no least bound "
                    f"among {len(sat)} candidates")


def min_characterization(X: VCategory, spec: SubmonadSpec,
                         budget: int = DEFAULT_BUDGET) -> dict:
    """Order-theoretic route to the algebra: x_φ = min{x : φ ≤ x^*}.

    Checks the functoriality condition X(x,x_φ) ⊗ TX(φ,ρ) ≤ X(x,x_ρ);
    whether the minima have the rows of algebra_extract's
    representatives is for the caller to compare.
    """
    TX = submonad_category(spec, X, budget)
    q = X.quantale
    m = len(TX.presheaves)
    points, missing = [], []
    for i, vals in enumerate(TX.presheaves):
        try:
            points.append(min_point(X, vals))
        except NoMinimum:
            points.append(None)
            missing.append(TX.objects[i])
    if missing:
        cond2 = {"ok": None, "witness": missing[0]}
    else:
        cond2 = {"ok": True, "witness": None}
        for x, i, j in itertools.product(range(len(X.objects)),
                                         range(m), range(m)):
            if not q.leq(q.tensor(X.hom[x][points[i]], TX.hom[i][j]),
                         X.hom[x][points[j]]):
                cond2 = {"ok": False,
                         "witness": (X.objects[x], TX.objects[i],
                                     TX.objects[j])}
                break
    return {"category": X.name, "spec": spec.name,
            "x_phi": tuple(None if p is None else X.objects[p]
                           for p in points),
            "no_minimum": tuple(missing), "condition2": cond2,
            "ok": not missing and cond2["ok"] is True}


def t_homomorphism_check(f: VFunctor, spec: SubmonadSpec, alpha: VFunctor,
                         beta: VFunctor, budget: int = DEFAULT_BUDGET) -> dict:
    """Lax versus strict compatibility of f with the algebras α: TX → X
    and β: TY → Y of one submonad spec.

    The lax inequality β(Tf(φ)) ≤ f(α(φ)) holds for every functor
    between algebras and is checked; strict means isomorphism, which
    by laxness reduces to the single order inequality the other way.
    Colimit preservation is recomputed independently from rows.
    """
    if not (f.dom.same_shape(alpha.cod) and f.cod.same_shape(beta.cod)):
        raise ShapeMismatch(f"{f.name} does not run between the carriers")
    Tf = submonad_monad(spec, budget).map(f)
    Y = f.cod
    q = Y.quantale
    TX = alpha.dom
    TY = beta.dom
    strict = {"ok": True, "witness": None}
    preserve = {"ok": True, "witness": None}
    rows = extension_rows(Y, (TY.presheaves[j] for j in Tf.mapping))
    for i, row in enumerate(rows):
        via_y = beta(Tf(i))
        via_x = f(alpha(i))
        if not q.leq(q.unit, Y.hom[via_y][via_x]):
            raise InternalError(f"{f.name} is not lax at {TX.objects[i]}")
        if strict["ok"] and not q.leq(q.unit, Y.hom[via_x][via_y]):
            strict = {"ok": False, "witness": TX.objects[i]}
        if preserve["ok"] and tuple(Y.hom[via_x]) != row:
            preserve = {"ok": False, "witness": TX.objects[i]}
    return {"functor": f.name, "spec": spec.name, "lax": True,
            "strict": strict, "colimit_preservation": preserve,
            "agree": strict["ok"] == preserve["ok"],
            "homomorphism": strict["ok"]}


def injectivity_check(X: VCategory, h: VFunctor,
                      budget: int = DEFAULT_BUDGET) -> dict:
    """Does every functor h.dom → X extend along h?

    Exhaustive on both sides, so gated: |X|^|cod h| candidate
    extensions must stay within budget.
    """
    A, B = h.dom, h.cod
    if X.quantale != A.quantale:
        raise QuantaleMismatch(
            f"{X.name} and {A.name} live over different quantales")
    nx, nb = len(X.objects), len(B.objects)
    if nx ** nb > budget:
        raise BudgetExceeded(
            f"{nx}^{nb} extension candidates over budget {budget}")
    restrictions = {tuple(v[b] for b in h.mapping) for v in functors(B, X)}
    total = extended = 0
    witness = None
    for u in functors(A, X):
        total += 1
        if u in restrictions:
            extended += 1
        elif witness is None:
            witness = tuple(X.objects[z] for z in u)
    return {"category": X.name, "embedding": h.name, "functors": total,
            "extended": extended, "ok": extended == total,
            "witness": witness}
