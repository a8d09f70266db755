"""Shared builders for small test categories, and test oracles."""

from fractions import Fraction

from quantcat.quantale import builtin
from quantcat.vcat import VFunctor, unit_category, validate_category

BOOL = builtin("boolean2")
LUK2 = builtin("lukasiewicz_chain", 2)


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


def functor_criterion(r) -> bool:
    """Distributor test in functor form: a(x',x) ⊗ b(y,y') <= hom(r(x,y), r(x',y'))
    for all pairs — r as a map X^op ⊗ Y -> (V, hom).  An oracle for
    `dist.is_distributor`, which checks the two actions instead."""
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
