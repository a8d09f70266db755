"""Shared builders for small test categories, and test oracles."""

import itertools
from fractions import Fraction

from quantcat.ball import _pair_index
from quantcat.dist import validate_distributor
from quantcat.errors import LeftActionFail, RightActionFail
from quantcat.quantale import builtin, make_finite_quantale
from quantcat.vcat import (
    VFunctor,
    VRelation,
    is_functor,
    raw_functor,
    unit_category,
    validate_category,
)

BOOL = builtin("boolean2")
LUK2 = builtin("lukasiewicz_chain", 2)
# the non-chain quantale of the `cli` docstring
DIAMOND = make_finite_quantale(
    "diamond", ["o", "a", "b", "i"], [("o", "a"), ("o", "b"), ("a", "i"), ("b", "i")],
    [["o", "o", "o", "o"], ["o", "a", "o", "a"], ["o", "o", "b", "b"],
     ["o", "a", "b", "i"]], "i")
# the chain 0 < k < t with unit k below the top, so a(x,x) ⊗ v ≤ v can fail
NON_INTEGRAL = make_finite_quantale(
    "non_integral", ["0", "k", "t"], [("0", "k"), ("k", "t")],
    [["0", "0", "0"], ["0", "k", "t"], ["0", "t", "t"]], "k")


class CountedHash:
    """A label or hom entry that counts how often it is hashed."""

    def __init__(self):
        self.calls = 0

    def __hash__(self):
        self.calls += 1
        return 7


def F(a, b=1):
    return Fraction(a, b)


def cat(name, q, objects, rows):
    """rows: matrix of raw values, wrapped via q.elem."""
    return validate_category(name, q, objects,
                             [[q.elem(v) for v in row] for row in rows])


def bool_chain2():
    return cat("chain2", BOOL, ["x", "y"], [[1, 1], [0, 1]])


def bool_chain3():
    return cat("chain3", BOOL, ["x", "y", "z"],
               [[1, 1, 1], [0, 1, 1], [0, 0, 1]])


def bool_discrete(n):
    labels = [f"d{i}" for i in range(n)]
    return cat(f"disc{n}", BOOL, labels,
               [[1 if i == j else 0 for j in range(n)] for i in range(n)])


def bool_indiscrete2():
    return cat("indisc2", BOOL, ["p", "q"], [[1, 1], [1, 1]])


def luk2_asym():
    # a(p,q) = 1/2, a(q,p) = 0
    return cat("luk_asym", LUK2, ["p", "q"],
               [[1, F(1, 2)], [0, 1]])


def luk2_sym():
    return cat("luk_sym", LUK2, ["p", "q"],
               [[1, F(1, 2)], [F(1, 2), 1]])


def point(X, label):
    """The point E → X picking out `label`."""
    return VFunctor(f"pt_{label}", unit_category(X.quantale), X, (X.index(label),))


def is_presheaf(X, values) -> bool:
    """The presheaf law a(x,x') ⊗ φ(x') <= φ(x), pair by pair: the oracle
    for every value tuple `presheaf.presheaves` yields."""
    q = X.quantale
    n = len(X.objects)
    return all(q.leq(q.tensor(X.hom[i][j], values[j]), values[i])
               for i in range(n) for j in range(n))


def is_distributor(r) -> bool:
    """Both hom actions absorbed, by `dist.validate_distributor`: the
    oracle for every relation `dist.enumerate_distributors` yields."""
    try:
        validate_distributor(r)
        return True
    except (LeftActionFail, RightActionFail):
        return False


def functor_criterion(r) -> bool:
    """Distributor test in functor form: a(x',x) ⊗ b(y,y') <= hom(r(x,y), r(x',y'))
    for all pairs — r as a map X^op ⊗ Y -> (V, hom).  An oracle for
    `is_distributor`, which checks the two actions instead."""
    q = r.dom.quantale
    a, b, m = r.dom.hom, r.cod.hom, r.matrix
    for i in range(len(r.dom.objects)):
        for i2 in range(len(r.dom.objects)):
            for j in range(len(r.cod.objects)):
                for j2 in range(len(r.cod.objects)):
                    if not q.leq(q.tensor(a[i2][i], b[j][j2]),
                                 q.hom(m[i][j], m[i2][j2])):
                        return False
    return True


def join_tensor(q, us, vs):
    """⋁ᵢ uᵢ ⊗ vᵢ, folded with `tensor` and `join2`: an oracle for
    `Coded.sup_tensor`.  The empty join is the bottom element."""
    return q.join(map(q.tensor, us, vs))


def meet_hom(q, us, vs):
    """⋀ᵢ hom(uᵢ, vᵢ), folded with `hom` and `meet2`: an oracle for
    `Coded.inf_hom`.  The empty meet is the top element."""
    return q.meet(map(q.hom, us, vs))


def condition2_by_loop(X, TX, points):
    """The first (x, φ, ρ) in product order with X(x,x_φ) ⊗ TX(φ,ρ) ≰
    X(x,x_ρ), as labels, or None; `points` holds the index of x_φ per
    member φ of TX.  An oracle for condition (2) of
    `colimit.min_characterization`, which reads it off `Coded.escapes`."""
    q = X.quantale
    m = len(TX.presheaves)
    for x, i, j in itertools.product(range(len(X.objects)), range(m), range(m)):
        if not q.leq(q.tensor(X.hom[x][points[i]], TX.hom[i][j]), X.hom[x][points[j]]):
            return (X.objects[x], TX.objects[i], TX.objects[j])
    return None


def presheaves_by_filter(X):
    """Every presheaf on X by testing each candidate of the carrier
    product in order: an oracle for the depth-first `presheaf.presheaves`."""
    return [vals for vals in itertools.product(X.quantale.carrier, repeat=len(X.objects))
            if is_presheaf(X, vals)]


def distributors_by_filter(X, Y):
    """Every distributor X ⇸ Y by testing each carrier matrix, row-major:
    an oracle for `dist.enumerate_distributors`."""
    n, m = len(X.objects), len(Y.objects)
    found = []
    for flat in itertools.product(X.quantale.carrier, repeat=n * m):
        matrix = tuple(flat[i * m:(i + 1) * m] for i in range(n))
        if is_distributor(VRelation(X, Y, matrix)):
            found.append(matrix)
    return found


def functors_by_filter(A, X):
    """Every V-functor A → X by testing each object map of the index
    product in order: an oracle for `vcat.functors`, the pruned product
    search."""
    return [mp for mp in itertools.product(range(len(X.objects)), repeat=len(A.objects))
            if is_functor(A, X, mp)]


def all_functors(cats):
    """Every V-functor between members of `cats`, by `functors_by_filter`."""
    return [raw_functor(f"{dom.name}>{cod.name}{mp}", dom, cod, mp)
            for dom in cats for cod in cats for mp in functors_by_filter(dom, cod)]


def no_action_by_filter(X, BX):
    """Exhaust maps BX → X for one passing unit pointing, stepwise
    associativity, expansion, and functoriality all at once: an oracle
    for `selftest._no_action_exists`, which filters `vcat.functors`."""
    q = X.quantale
    nx = len(X.objects)
    pairs = BX.pairs
    idx = _pair_index(BX)
    radii = tuple(dict.fromkeys(r for _, r in pairs))
    for mp in itertools.product(range(nx), repeat=len(pairs)):
        if any(mp[idx[(i, q.unit)]] != i for i in range(nx)):
            continue
        if any(not q.leq(r, X.hom[i][mp[j]])
               for j, (i, r) in enumerate(pairs)):
            continue
        stepwise = all(
            mp[idx[(i, t)]] == mp[idx[(mp[j], s)]]
            for j, (i, r) in enumerate(pairs) for s in radii
            for t in (q.tensor(r, s),) if (i, t) in idx)
        if stepwise and is_functor(BX, X, mp):
            return False
    return True


def factoring_points(h):
    """For each object y of the codomain, every z of the domain with
    Y(hx, y) = Y(hx, hz) ⊗ Y(hz, y) for all x: the pointing condition
    of `ball.b_embedding_check`."""
    X, Y = h.dom, h.cod
    q = Y.quantale
    return [[z for z in range(len(X.objects))
             if all(Y.hom[h(x)][y] == q.tensor(Y.hom[h(x)][h(z)], Y.hom[h(z)][y])
                    for x in range(len(X.objects)))]
            for y in range(len(Y.objects))]


def scalar_identity_by_loop(h, bar):
    """The first (x, y, r, s) with hom(r, Y(hx,hz) ⊗ (Y(hz,y) ⊗ s)) ≠
    hom(r, Y(hx,y) ⊗ s) at z = bar[y], or None: the loop that
    `ball.b_embedding_check` ran before the identity was shown to be the
    pointing equation tensored with s."""
    X, Y = h.dom, h.cod
    q = Y.quantale
    for x in range(len(X.objects)):
        for y in range(len(Y.objects)):
            z = bar[y]
            for r, s in itertools.product(q.carrier, repeat=2):
                lhs = q.hom(r, q.tensor(Y.hom[h(x)][h(z)], q.tensor(Y.hom[h(z)][y], s)))
                if lhs != q.hom(r, q.tensor(Y.hom[h(x)][y], s)):
                    return (X.objects[x], Y.objects[y], r, s)
    return None
