"""Presheaf categories and their monad structure.

A presheaf on X is a distributor X ⇸ E, stored as a tuple of values
indexed by the objects of X; the law is a(x,x') ⊗ φ(x') <= φ(x).  PX
carries the hom ã(φ,ψ) = ⋀_x hom(φ x, ψ x) and is built by exhaustive
enumeration, so every constructor here is budget-gated.  The unit is the
Yoneda embedding x ↦ a(−,x) and the multiplication is sup-of-tensor
evaluation; law checking degrades from exhaustive to sampled to
unchecked as the towers grow.  Every inf-hom entry (ã, `presheaf_hom`)
is one `Quantale.meet_hom` call and every sup-tensor entry (`map_values`,
`mult_values`, the sampled θ) one `Quantale.join_tensor` call.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache

from .errors import BudgetExceeded, NotEnumerable
from .quantale import show_value
from .vcat import VCategory, VFunctor, is_fully_faithful

DEFAULT_BUDGET = 10 ** 6
DEFAULT_SAMPLES = 200


@dataclass(frozen=True)
class PresheafCategory(VCategory):
    """PX; objects are labeled value tuples over the base category."""

    base: VCategory = None
    presheaves: tuple = ()  # value tuples, aligned with .objects


def presheaf_label(values) -> str:
    return "[" + ",".join(show_value(e.value) for e in values) + "]"


def is_presheaf(X: VCategory, values) -> bool:
    q = X.quantale
    n = len(X.objects)
    return all(q.leq(q.tensor(X.hom[i][j], values[j]), values[i])
               for i in range(n) for j in range(n))


def presheaf_hom(q, phi, psi):
    """ã(φ,ψ) = ⋀_x hom(φ x, ψ x); the empty meet is ⊤."""
    return q.meet_hom(phi, psi)


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
    The |V|^n budget gate is checked at once; the candidates are then
    filtered lazily, so a caller that stops early tests no more."""
    candidate_count(X, budget)
    n = len(X.objects)
    if n == 0:
        return iter(((),))
    return (vals for vals in itertools.product(X.quantale.carrier, repeat=n)
            if is_presheaf(X, vals))


def representables(X: VCategory) -> tuple:
    """The value tuples of x^* = a(−,x), one per object of X."""
    return tuple(tuple(row[x] for row in X.hom) for x in range(len(X.objects)))


@lru_cache(maxsize=None)
def presheaf_category(X: VCategory, budget: int = DEFAULT_BUDGET) -> PresheafCategory:
    return full_subcategory(f"P({X.name})", X, presheaves(X, budget))


def full_subcategory(name: str, X: VCategory, members) -> PresheafCategory:
    """The full subcategory of PX on `members` (value tuples), in their
    order, labelled by `presheaf_label` and with hom ã."""
    q = X.quantale
    members = tuple(members)
    objects = tuple(presheaf_label(v) for v in members)
    hom = tuple(tuple(presheaf_hom(q, u, w) for w in members) for u in members)
    return PresheafCategory(name, q, objects, hom, X, members)


@lru_cache(maxsize=None)
def _member_index(PX: PresheafCategory):
    return {v: i for i, v in enumerate(PX.presheaves)}


def member_functor(name: str, dom: VCategory, T: PresheafCategory, images,
                   escape=None) -> VFunctor:
    """dom → T, object i ↦ the member with value tuple images[i].  A
    non-member raises `escape(i, vals)`, or KeyError without `escape`."""
    idx = _member_index(T)
    mapping = []
    for i, vals in enumerate(images):
        if escape is not None and vals not in idx:
            raise escape(i, vals)
        mapping.append(idx[vals])
    return VFunctor(name, dom, T, tuple(mapping), validated=True)


def yoneda(X: VCategory, PX: PresheafCategory = None) -> VFunctor:
    """x ↦ x^* = a(−,x).  Fully faithful, asserted."""
    PX = PX or presheaf_category(X)
    y = member_functor(f"y_{X.name}", X, PX, representables(X))
    assert is_fully_faithful(y)[0]
    return y


def presheaf_map(f: VFunctor, PX=None, PY=None) -> VFunctor:
    """Pf: PX → PY, φ ↦ φ·f^*, i.e. y ↦ ⋁_x Y(y, f x) ⊗ φ(x)."""
    X, Y = f.dom, f.cod
    PX = PX or presheaf_category(X)
    PY = PY or presheaf_category(Y)
    return member_functor(f"P({f.name})", PX, PY,
                          (map_values(f, vals) for vals in PX.presheaves))


def map_values(f: VFunctor, vals):
    """(Pf φ)(y) = ⋁_x Y(y, f x) ⊗ φ(x), for φ given as values over f.dom."""
    q = f.cod.quantale
    return tuple(q.join_tensor([row[fx] for fx in f.mapping], vals)
                 for row in f.cod.hom)


def mult_values(PX: PresheafCategory, gamma):
    """m(Γ)(x) = ⋁_φ Γ(φ) ⊗ φ(x), for Γ given as values over PX."""
    q = PX.quantale
    return tuple(q.join_tensor(gamma, [vals[i] for vals in PX.presheaves])
                 for i in range(len(PX.base.objects)))


def multiplication(X: VCategory, PX=None, PPX=None,
                   budget: int = DEFAULT_BUDGET) -> VFunctor:
    """m_X: PPX → PX by sup-of-tensor evaluation."""
    PX = PX or presheaf_category(X, budget)
    PPX = PPX or presheaf_category(PX, budget)
    return member_functor(f"m_{X.name}", PPX, PX,
                          (mult_values(PX, g) for g in PPX.presheaves))


def _sample_theta(PPX: PresheafCategory, rng: random.Random, kind: int):
    """A presheaf on PPX from one of three always-lawful sources:
    representables, images of the mapped Yoneda embedding, down-closures."""
    q = PPX.quantale
    npp = len(PPX.objects)
    if kind == 0:
        g = rng.randrange(npp)
        return tuple(PPX.hom[i][g] for i in range(npp))
    if kind == 1:
        PX = PPX.base
        yi = member_functor("y", PX, PPX, representables(PX)).mapping
        gv = PPX.presheaves[rng.randrange(npp)]
        return tuple(q.join_tensor([row[p] for p in yi], gv) for row in PPX.hom)
    g = [rng.choice(q.carrier) for _ in range(npp)]
    return tuple(q.join_tensor(row, g) for row in PPX.hom)


def verify_monad_laws(X: VCategory, budget: int = DEFAULT_BUDGET,
                      seed: int = 0, samples: int = DEFAULT_SAMPLES) -> dict:
    """Unit and associativity laws for the presheaf structure on X.

    Units are always exhaustive over PX.  Associativity is exhaustive
    when every presheaf on PPX fits the budget, sampled (seeded, from
    lawful sources) when only PPX itself does, and unchecked otherwise.
    """
    q = X.quantale
    PX = presheaf_category(X, budget)
    y = yoneda(X, PX)
    np_ = len(PX.objects)
    report = {"category": X.name, "presheaf_count": np_}

    # m ∘ P(y) = 1:  P(y)(φ)(ψ) = ⋁_x ã(ψ, x^*) ⊗ φ(x)
    witness = None
    for vals in PX.presheaves:
        if mult_values(PX, map_values(y, vals)) != vals:
            witness = presheaf_label(vals)
            break
    report["unit_mapped"] = {"ok": witness is None, "witness": witness}

    # m ∘ y_PX = 1:  y_PX(φ) = ã(−,φ)
    witness = None
    for through, vals in zip(representables(PX), PX.presheaves):
        if mult_values(PX, through) != vals:
            witness = presheaf_label(vals)
            break
    report["unit_pointed"] = {"ok": witness is None, "witness": witness}

    assoc = {"mode": "unchecked", "checked": 0, "ok": True, "witness": None}
    if q.enumerable and len(q.carrier) ** np_ <= budget:
        PPX = presheaf_category(PX, budget)
        npp = len(PPX.objects)
        mg = [mult_values(PX, g) for g in PPX.presheaves]
        amg = [[presheaf_hom(q, vals, m) for m in mg] for vals in PX.presheaves]

        def routes_agree(theta):
            # m_X ∘ m_PX vs m_X ∘ P(m_X)
            left = mult_values(PX, mult_values(PPX, theta))
            pm = tuple(q.join_tensor(row, theta) for row in amg)
            return left == mult_values(PX, pm)

        if len(q.carrier) ** npp <= budget:
            assoc["mode"] = "exhaustive"
            for theta in presheaves(PPX, budget):
                assoc["checked"] += 1
                if not routes_agree(theta):
                    assoc.update(ok=False, witness=presheaf_label(theta))
                    break
        else:
            assoc["mode"] = "sampled"
            rng = random.Random(seed)
            for t in range(samples):
                theta = _sample_theta(PPX, rng, t % 3)
                assoc["checked"] += 1
                if not routes_agree(theta):
                    assoc.update(ok=False, witness=presheaf_label(theta))
                    break
    report["associativity"] = assoc
    return report
