"""Formal ball categories: pairs (x, r) with hom(r, X(x,y) ⊗ s) between
them, the monad they form, tensor structure, algebras, and the
embeddings that characterise injectivity.

Two variants appear throughout: the extended one keeps every radius,
the plain one drops radius ⊥.  The extended variant is always a monad;
the plain one has a total multiplication only when tensoring nonzero
radii cannot hit ⊥, and the checks below report the escape otherwise.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .errors import (
    MultiplicationEscapesT,
    NotEnumerable,
    PreconditionFail,
)
from .presheaf import extension_rows, find_representatives
from .quantale import QElem, Quantale, show_value
from .vcat import (
    VCategory,
    VFunctor,
    check_adjunction,
    hom_self_category,
    is_fully_faithful,
    is_separated,
)


class BallCategory(VCategory):
    """BX (or the plain variant); the hash is `VCategory`'s, memoised."""

    def __init__(self, name, quantale, objects, hom, base: VCategory,
                 pairs: tuple, extended: bool):
        # pairs: (object index, radius), aligned with .objects
        VCategory.__init__(self, name, quantale, objects, hom)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "extended", extended)


def ball_label(x_label: str, r: QElem) -> str:
    return f"({x_label},{show_value(r.value)})"


@lru_cache(maxsize=None)
def ball_category(X: VCategory, extended: bool = True) -> BallCategory:
    q = X.quantale
    if not q.enumerable:
        raise NotEnumerable(f"cannot enumerate radii over {q.name}")
    radii = tuple(r for r in q.carrier if extended or r != q.bottom)
    pairs = tuple((i, r) for i in range(len(X.objects)) for r in radii)
    objects = tuple(ball_label(X.objects[i], r) for i, r in pairs)
    # hom((x,r),(y,s)) = hom(r, X(x,y) ⊗ s), on carrier indices
    hom = []
    for row in q.coded(X.hom).codes[0]:
        tensored = [q._tensor[row[j].index][s.index] for j, s in pairs]
        hom += (tuple(map(q.carrier.__getitem__, map(q._hom_t[r.index].__getitem__, tensored)))
                for r in radii)
    name = f"{'Bb' if extended else 'B'}({X.name})"
    return BallCategory(name, q, objects, tuple(hom), X, pairs, extended)


@lru_cache(maxsize=None)
def _pair_index(BX: BallCategory) -> dict:
    return {p: i for i, p in enumerate(BX.pairs)}


def ball_functor(f: VFunctor, BX: BallCategory, BY: BallCategory) -> VFunctor:
    idx = _pair_index(BY)
    mapping = tuple(idx[(f(i), r)] for i, r in BX.pairs)
    prefix = "Bb" if BX.extended else "B"
    return VFunctor(f"{prefix}({f.name})", BX, BY, mapping)


def ball_unit(X: VCategory, BX: BallCategory) -> VFunctor:
    idx = _pair_index(BX)
    k = X.quantale.unit
    mapping = tuple(idx[(i, k)] for i in range(len(X.objects)))
    return VFunctor(f"unit_{X.name}", X, BX, mapping)


def ball_mult(X: VCategory, BX: BallCategory) -> VFunctor:
    q = X.quantale
    BBX = ball_category(BX, BX.extended)
    idx = _pair_index(BX)
    mapping = []
    for bi, s in BBX.pairs:
        i, r = BX.pairs[bi]
        t = q.tensor(r, s)
        if (i, t) not in idx:
            raise MultiplicationEscapesT(
                f"radius {show_value(r.value)} ⊗ {show_value(s.value)} = "
                f"{show_value(t.value)} leaves {BX.name} at {X.objects[i]}")
        mapping.append(idx[(i, t)])
    return VFunctor(f"mult_{X.name}", BBX, BX, tuple(mapping))


def ball_monad(extended: bool = True):
    from .monadkit import MonadInstance  # loaded only by the commands that need it

    def apply(X):
        return ball_category(X, extended)

    return MonadInstance(
        name="ball_extended" if extended else "ball",
        apply=apply,
        map=lambda f: ball_functor(f, apply(f.dom), apply(f.cod)),
        unit=lambda X: ball_unit(X, apply(X)),
        mult=lambda X: ball_mult(X, apply(X)),
    )


def sigma_values(X: VCategory, i: int, r: QElem) -> tuple:
    """The presheaf X(−, x) ⊗ r presented by the ball (x, r)."""
    q = X.quantale
    return tuple(q.tensor(X.hom[y][i], r) for y in range(len(X.objects)))


# -------------------------------------------------------------------- tensors

def tensored_check(X: VCategory, extended: bool = True,
                   via: str = "search") -> dict:
    """Whether every ball (x, r) has a tensor x ⊕ r, i.e. an object with
    X(x ⊕ r, y) = hom(r, X(x, y)) for all y.  `via="extension"` finds
    the same representatives through the right extension
    [X(−,x) ⊗ r, 1] instead of the defining equation.  When x itself
    represents x ⊕ k it is chosen; otherwise ties break to the first
    object in order.  Returns the algebra BX → X when it exists.
    """
    q = X.quantale
    BX = ball_category(X, extended)
    n = len(X.objects)
    if via == "search":
        wants = (tuple(q.hom(r, X.hom[i][j]) for j in range(n)) for i, r in BX.pairs)
    else:
        wants = extension_rows(X, (sigma_values(X, i, r) for i, r in BX.pairs))
    mapping = []
    ambiguous = []
    for (i, r), label, want in zip(BX.pairs, BX.objects, wants):
        reps = find_representatives(X, want)
        if not reps:
            return {"tensored": False, "witness": label, "algebra": None,
                    "ambiguous": ()}
        choice = i if (r == q.unit and i in reps) else reps[0]
        if len(reps) > 1:
            ambiguous.append(label)
        mapping.append(choice)
    alpha = VFunctor(f"tensor_{X.name}", BX, X, tuple(mapping))
    return {"tensored": True, "witness": None, "algebra": alpha,
            "ambiguous": tuple(ambiguous)}


def _algebra_laws(X: VCategory, alpha: VFunctor, idx: dict):
    """x ⊕ k = x, (x ⊕ r) ⊕ s = x ⊕ (r ⊗ s) and r ≤ X(x, x ⊕ r) for
    α: BX → X.  Returns the first failing object's index (each caller
    names it its own way), the associativity and expansion witnesses,
    and the count of radius pairs whose tensor is not a radius."""
    q = X.quantale
    BX = alpha.dom
    n = len(X.objects)
    unit_i = next((i for i in range(n) if alpha(idx[(i, q.unit)]) != i), None)

    assoc_w = None
    skipped = 0
    radii = tuple(dict.fromkeys(r for _, r in BX.pairs))
    for i, r, s in itertools.product(range(n), radii, radii):
        t = q.tensor(r, s)
        if (i, t) not in idx:
            skipped += 1
        elif alpha(idx[(i, t)]) != alpha(idx[(alpha(idx[(i, r)]), s)]):
            assoc_w = f"({X.objects[i]},{show_value(r.value)},{show_value(s.value)})"
            break

    expand_w = next(
        (BX.objects[j] for j, (i, r) in enumerate(BX.pairs)
         if not q.leq(r, X.hom[i][alpha(j)])), None)
    return unit_i, assoc_w, skipped, expand_w


def tensor_consequences(X: VCategory, alpha: VFunctor) -> dict:
    """For a tensor structure: x ⊕ k = x, associativity over radii,
    X(x, x ⊕ r) ≥ r, and (x ⊕ −) ⊣ X(x, −) as functors against the
    quantale viewed as a category over itself."""
    q = X.quantale
    BX = alpha.dom
    idx = _pair_index(BX)
    n = len(X.objects)
    unit_i, assoc_w, skipped, expand_w = _algebra_laws(X, alpha, idx)
    unit_w = None if unit_i is None else BX.objects[idx[(unit_i, q.unit)]]

    if BX.extended:
        V = hom_self_category(q)
        adj_w = None
        for i in range(n):
            left = VFunctor(f"tensor_{X.objects[i]}", V, X,
                            tuple(alpha(idx[(i, r)]) for r in q.carrier))
            right = VFunctor(f"hom_{X.objects[i]}", X, V,
                             tuple(X.hom[i][j].index for j in range(n)))
            ok, w = check_adjunction(left, right)
            if not ok:
                adj_w = (X.objects[i], str(w))
                break
        adjunction = {"ok": adj_w is None, "witness": adj_w}
    else:
        adjunction = {"ok": None, "witness": "extended structure required"}

    return {
        "unit": {"ok": unit_w is None, "witness": unit_w},
        "associativity": {"ok": assoc_w is None, "witness": assoc_w,
                          "skipped": skipped},
        "expansion": {"ok": expand_w is None, "witness": expand_w},
        "adjunction": adjunction,
    }


# ------------------------------------------------------------------- algebras

def ball_algebra_check(alpha: VFunctor) -> dict:
    """The four equivalent descriptions of an algebra structure for the
    ball monad, each verified on its own: unit pointing, stepwise
    associativity, expansion, and the monad laws.  Radius pairs whose
    tensor drops to ⊥ outside the plain variant are skipped and counted.
    """
    BX = alpha.dom
    X = alpha.cod
    idx = _pair_index(BX)
    unit_i, assoc_w, skipped, expand_w = _algebra_laws(X, alpha, idx)
    unit_w = None if unit_i is None else X.objects[unit_i]

    try:
        BBX = ball_category(BX, BX.extended)
        mu = ball_mult(X, BX)
        balpha = VFunctor(f"B({alpha.name})", BBX, BX,
                          tuple(idx[(alpha(bi), s)] for bi, s in BBX.pairs))
        law_w = next((BBX.objects[g] for g in range(len(BBX.objects))
                      if alpha(balpha(g)) != alpha(mu(g))), None)
        monad_laws = {"ok": law_w is None and unit_w is None, "witness": law_w or unit_w}
    except MultiplicationEscapesT as e:
        monad_laws = {"ok": None, "witness": f"unavailable: {e}"}

    verdicts = [unit_w is None,
                assoc_w is None and unit_w is None,
                expand_w is None and unit_w is None]
    if monad_laws["ok"] is not None:
        verdicts.append(monad_laws["ok"])
    return {
        "category": X.name,
        "unit_pointing": {"ok": unit_w is None, "witness": unit_w},
        "associativity": {"ok": assoc_w is None, "witness": assoc_w,
                          "skipped": skipped},
        "expansion": {"ok": expand_w is None, "witness": expand_w},
        "monad_laws": monad_laws,
        "algebra": unit_w is None,
        "agree": len(set(verdicts)) == 1,
    }


# -------------------------------------------------------------- cancellation

def cancellation_report(q: Quantale, cats=()) -> dict:
    """Over an integral quantale the following stand or fall together:
    the plain ball category of V is separated; tensoring cannot absorb a
    non-unit scalar into a nonzero one; separated categories keep
    separated ball categories."""
    flags = q.flags()
    if not flags.integral:
        raise PreconditionFail(f"{q.name} is not integral")
    canc_w = None
    if flags.witness is not None:
        r, s = flags.witness
        canc_w = f"r={show_value(r.value)}, s={show_value(s.value)}"

    V = hom_self_category(q)
    bv_sep, bv_w = is_separated(ball_category(V, extended=False))

    pres_ok, pres_cat, pres_w = True, None, None
    for X in (V,) + tuple(cats):
        sep, w = is_separated(X)
        if not sep:
            raise PreconditionFail(f"{X.name} is not separated (at {w})")
        sep, w = is_separated(ball_category(X, extended=False))
        if not sep:
            pres_ok, pres_cat, pres_w = False, X.name, w
            break

    return {
        "quantale": q.name,
        "cancellative": {"ok": flags.cancellative, "method": flags.method,
                         "witness": canc_w},
        "ball_of_v_separated": {"ok": bv_sep,
                                "witness": None if bv_w is None else str(bv_w)},
        "separation_preserved": {"ok": pres_ok, "category": pres_cat,
                                 "witness": None if pres_w is None else str(pres_w)},
        "equivalent": flags.cancellative == bv_sep == pres_ok,
    }


# --------------------------------------------------------------- embeddings

def b_embedding_check(h: VFunctor) -> dict:
    """Fully faithful, and every object of the codomain has exactly one
    point of the image factoring all homs into it:
    Y(x, y) = Y(x, z) ⊗ Y(z, y).  On success the right adjoint
    (y, r) ↦ (z, Y(h z, y) ⊗ r) is assembled and checked to be a left
    inverse; pairs whose radius drops to ⊥ are reported as escapes."""
    X, Y = h.dom, h.cod
    q = X.quantale
    flags = q.flags()
    pre = {
        "integral": flags.integral,
        "cancellative": flags.cancellative,
        "dom_separated": is_separated(X)[0],
        "cod_separated": is_separated(Y)[0],
    }
    ff, ff_w = is_fully_faithful(h)

    nx, ny = len(X.objects), len(Y.objects)
    bar = {}
    point_w = None
    for y in range(ny):
        zs = [z for z in range(nx)
              if all(Y.hom[h(x)][y] == q.tensor(Y.hom[h(x)][h(z)], Y.hom[h(z)][y])
                     for x in range(nx))]
        if len(zs) != 1:
            point_w = f"{Y.objects[y]} has {len(zs)} factoring points"
            break
        bar[y] = zs[0]
    pointing = {"ok": point_w is None, "witness": point_w}

    scalar_w = None
    left_inverse = None
    escapes = []
    if ff and point_w is None:
        for x in range(nx):
            for y in range(ny):
                z = bar[y]
                for r in q.carrier:
                    for s in q.carrier:
                        lhs = q.hom(r, q.tensor(Y.hom[h(x)][h(z)],
                                                q.tensor(Y.hom[h(z)][y], s)))
                        rhs = q.hom(r, q.tensor(Y.hom[h(x)][y], s))
                        if lhs != rhs:
                            scalar_w = (X.objects[x], Y.objects[y],
                                        show_value(r.value), show_value(s.value))
                            break
                    if scalar_w:
                        break
                if scalar_w:
                    break
            if scalar_w:
                break
        BX = ball_category(X, extended=False)
        left_inverse = all(
            bar[h(i)] == i and q.tensor(Y.hom[h(bar[h(i)])][h(i)], r) == r
            for i, r in BX.pairs)
        for y in range(ny):  # escapes of the full right adjoint
            for r in (rr for rr in q.carrier if rr != q.bottom):
                radius = q.tensor(Y.hom[h(bar[y])][y], r)
                if radius == q.bottom:
                    escapes.append(ball_label(Y.objects[y], r))

    return {
        "functor": h.name,
        "preconditions": pre,
        "fully_faithful": ff,
        "ff_witness": None if ff_w is None else str(ff_w),
        "pointing": pointing,
        "scalar_identity": {"ok": scalar_w is None, "witness": scalar_w},
        "left_inverse": left_inverse,
        "escapes": tuple(dict.fromkeys(escapes)),
        "b_embedding": bool(ff and point_w is None and scalar_w is None),
    }
