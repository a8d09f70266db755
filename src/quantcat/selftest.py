"""Built-in verification battery behind `quantcat selftest`.

Twelve numbered checks (C1-C12) over fixed, deterministic universes of
small quantales and categories.  Each is one function that returns the
counters describing how much ground it covered on a pass, or its
witness on a fail; `_criterion` makes that the check dict of a CLI
report, or an unchecked one when the budget is blown.  `run_selftest`
runs them in order.

Everything here is exact: verdicts come from `==` on QElem values,
never from tolerances.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .ball import (
    _algebra_laws,
    _pair_index,
    ball_category,
    ball_monad,
    ball_algebra_check,
    b_embedding_check,
    cancellation_report,
    tensor_adjunction,
    tensored_check,
)
from .colimit import (
    algebra_extract,
    injectivity_check,
    min_characterization,
    t_homomorphism_check,
)
from .dist import check_adjoint_pair
from .errors import BudgetExceeded, NotCommuting
from .lawvere import cauchy_pair, enumerate_L, lawvere_completion
from .monadkit import (
    SubmonadSpec,
    admissible_class_check,
    bc_star_square_check,
    lax_idempotency_report,
    presheaf_monad,
    square,
    submonad_all,
    submonad_category,
    submonad_monad,
    submonad_right_adjoints,
    t_embedding_check,
)
from .presheaf import representables, verify_monad_laws
from .quantale import builtin, make_finite_quantale
from .vcat import (
    DEFAULT_BUDGET,
    VFunctor,
    cauchy_sequence,
    functors,
    hom_self_category,
    identity_functor,
    is_fully_faithful,
    unit_category,
    validate_category,
)

BOOL = builtin("boolean2")
LUK2 = builtin("lukasiewicz_chain", 2)


# ------------------------------------------------------------ small builders

def _cat(name, q, objects, rows):
    return validate_category(name, q, objects,
                             [[q.elem(v) for v in row] for row in rows])


def _chain_cat(q, n, name):
    """n objects ordered as a chain: hom is k on or above the diagonal."""
    k, bot = q.unit, q.bottom
    return validate_category(name, q, [f"c{i}" for i in range(n)],
                             [[k if i <= j else bot for j in range(n)]
                              for i in range(n)])


def _disc_cat(q, n, name):
    k, bot = q.unit, q.bottom
    return validate_category(name, q, [f"d{i}" for i in range(n)],
                             [[k if i == j else bot for j in range(n)]
                              for i in range(n)])


def _indisc2(q, name):
    k = q.unit
    return validate_category(name, q, ["p", "q"], [[k, k], [k, k]])


def _vee():
    return _cat("vee", BOOL, ["d0", "d1", "t"],
                [[1, 0, 1], [0, 1, 1], [0, 0, 1]])


def _lat4():
    # the four-element Boolean lattice o < a, b < t as an ordered set
    return _cat("lat4", BOOL, ["o", "a", "b", "t"],
                [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 1]])


def _luk_sym():
    return _cat("luk_sym", LUK2, ["p", "q"],
                [[1, Fraction(1, 2)], [Fraction(1, 2), 1]])


def _luk_asym():
    return _cat("luk_asym", LUK2, ["p", "q"], [[1, Fraction(1, 2)], [0, 1]])


def _diamond_pair():
    """A two-object discrete category over the diamond locale."""
    q = make_finite_quantale(
        "diamond", ["o", "a", "b", "i"],
        [("o", "a"), ("o", "b"), ("a", "i"), ("b", "i")],
        [["o", "o", "o", "o"], ["o", "a", "o", "a"],
         ["o", "o", "b", "b"], ["o", "a", "b", "i"]],
        "i")
    return _cat("pair", q, ["u", "v"], [["i", "o"], ["o", "i"]])


def _all_functors(cats):
    """Every functor between members of `cats`, in enumeration order."""
    out = []
    for X in cats:
        for Y in cats:
            m = len(Y.objects)
            for mp in functors(X, Y):
                num = functools.reduce(lambda acc, i: acc * m + i, mp, 0)  # product rank
                out.append(VFunctor(f"{X.name}->{Y.name}#{num}",
                                    X, Y, mp))
    return out


def _all_squares(functors):
    """Every commuting square with all four sides drawn from `functors`."""
    out = []
    for t in functors:
        for l in functors:
            if l.dom is not t.dom:
                continue
            for b in functors:
                if b.dom is not l.cod:
                    continue
                for r in functors:
                    if r.dom is not t.cod or r.cod is not b.cod:
                        continue
                    if all(b(l(i)) == r(t(i))
                           for i in range(len(t.dom.objects))):
                        out.append(square(t, l, b, r))
    return out


def _criterion(name, label):
    """Make `check(budget)`, which returns its detail dict on a pass and
    its witness on a fail, into a criterion returning the CLI's check dict,
    with the label in its detail.  A blown budget leaves it unchecked."""
    def wrap(check):
        @functools.wraps(check)
        def criterion(budget=DEFAULT_BUDGET):
            try:
                out = check(budget)
            except BudgetExceeded as e:
                return {"name": name, "verdict": "unchecked", "witness": None,
                        "reason": str(e), "detail": {"label": label}}
            ok = isinstance(out, dict)
            return {"name": name, "verdict": "pass" if ok else "fail",
                    "witness": None if ok else str(out), "reason": None,
                    "detail": dict(out if ok else {}, label=label)}
        return criterion
    return wrap


# -------------------------------------------------------------- C1 quantales

@_criterion("C1", "builtin quantale axioms, exhaustively")
def criterion_1(budget):
    """Lattice, tensor, and residuation axioms on every finite builtin."""
    qs = [builtin("boolean2")]
    for kind in ("goedel_chain", "lukasiewicz_chain"):
        qs += [builtin(kind, n) for n in (1, 2, 3, 4)]
    checked = 0
    for q in qs:
        c = q.carrier
        n = len(c)
        subsets = [[c[i] for i in range(n) if bits >> i & 1]
                   for bits in range(2 ** n)]
        for s in subsets:
            j, m = q.join(s), q.meet(s)
            if any(not q.leq(u, j) for u in s) or \
                    any(not q.leq(m, u) for u in s):
                return f"{q.name}: bound"
            for u in c:  # least upper / greatest lower, not just bounds
                if all(q.leq(v, u) for v in s) and not q.leq(j, u):
                    return f"{q.name}: lub"
                if all(q.leq(u, v) for v in s) and not q.leq(u, m):
                    return f"{q.name}: glb"
            for u in c:  # tensor distributes over arbitrary joins
                if q.tensor(u, j) != q.join(q.tensor(u, v) for v in s):
                    return f"{q.name}: {u} over a join"
            checked += len(subsets)
        for u in c:
            if q.tensor(u, q.unit) != u:
                return f"{q.name}: unit {u}"
            for v in c:
                if q.tensor(u, v) != q.tensor(v, u):
                    return f"{q.name}: {u}⊗{v} not symmetric"
                for w in c:
                    if q.tensor(q.tensor(u, v), w) != q.tensor(u, q.tensor(v, w)):
                        return f"{q.name}: assoc at ({u},{v},{w})"
                    if q.leq(q.tensor(u, v), w) != q.leq(v, q.hom(u, w)):
                        return f"{q.name}: residuation at ({u},{v},{w})"
                    checked += 2
    return dict(quantales=len(qs), comparisons=checked)


# ------------------------------------------------------------ C2 monad laws

@_criterion("C2", "presheaf monad laws, associativity decided on the representables of PPX")
def criterion_2(budget):
    """Presheaf unit and associativity laws, each decided exactly:
    associativity on the representables of PPX (`verify_monad_laws`)."""
    cats = [_chain_cat(BOOL, 2, "chain2"), _chain_cat(BOOL, 3, "chain3"),
            _disc_cat(BOOL, 2, "disc2"), _disc_cat(BOOL, 3, "disc3"),
            _indisc2(BOOL, "indisc2"), _luk_sym(), _luk_asym()]
    modes = {}
    for X in cats:
        rep = verify_monad_laws(X, budget=budget)
        assoc = rep["associativity"]
        modes[X.name] = f"{assoc['mode']}:{assoc['checked']}"
        if not (rep["unit_mapped"]["ok"] and rep["unit_pointed"]["ok"]):
            return f"{X.name}: unit law"
        if not assoc["ok"]:
            return f"{X.name}: associativity fails at {assoc['witness']}"
    return dict(categories=len(cats), modes=modes)


# ---------------------------------------------------------------- C3 squares

def _square_family(tag):
    if tag == "boolean2":
        cats = [_chain_cat(BOOL, 2, "chain2"), _disc_cat(BOOL, 2, "disc2"),
                unit_category(BOOL)]
    else:
        cats = [_luk_sym(), _luk_asym(), unit_category(LUK2)]
    return _all_functors(cats)


@_criterion("C3", "square transfer and unit/multiplication naturality")
def criterion_3(budget):
    """Square transfer: passing squares keep passing under the presheaf
    map, unit and multiplication squares are natural, and at least one
    square genuinely fails (with no requirement on its image)."""
    P = presheaf_monad(budget)
    detail = {}
    for tag in ("boolean2", "lukasiewicz_chain(2)"):
        fs = _square_family(tag)
        pmap = {id(f): P.map(f) for f in fs}
        sqs = _all_squares(fs)
        identity_squares = sum(
            1 for sq in sqs
            if sq.top.mapping == sq.left.mapping ==
            tuple(range(len(sq.top.dom.objects))) and sq.bottom is sq.right)
        passing = failing = 0
        for sq in sqs:
            ok, _ = bc_star_square_check(sq)
            if not ok:
                failing += 1
                continue  # image recorded by construction, nothing demanded
            passing += 1
            try:
                image = square(pmap[id(sq.top)], pmap[id(sq.left)],
                               pmap[id(sq.bottom)], pmap[id(sq.right)])
            except NotCommuting as e:
                return f"{tag}: {e}"
            iok, iw = bc_star_square_check(image)
            if not iok:
                return (f"{tag}: image of ({sq.top.name},{sq.left.name},"
                        f"{sq.bottom.name},{sq.right.name}) fails at {iw}")
        naturality = 0
        for f in fs:
            try:
                # η_Y ∘ f = Pf ∘ η_X and m_Y ∘ PPf = Pf ∘ m_X
                square(P.unit(f.dom), f, P.unit(f.cod), pmap[id(f)])
                square(P.mult(f.dom), P.map(pmap[id(f)]),
                       P.mult(f.cod), pmap[id(f)])
            except NotCommuting as e:
                return f"{tag}: {f.name}: {e}"
            naturality += 2
        if len(sqs) < 20 or failing == 0 or identity_squares < len(fs):
            return (f"{tag}: family too thin ({len(sqs)} squares, "
                    f"{failing} failing, {identity_squares} identity)")
        detail[tag] = {"functors": len(fs), "squares": len(sqs),
                       "passing": passing, "failing": failing,
                       "identity_squares": identity_squares,
                       "naturality_squares": naturality}
    return detail


# --------------------------------------------------- C4 fully faithful squares

@_criterion("C4", "fully faithful = identity square passes")
def criterion_4(budget):
    """Fully faithful coincides with the identity square passing."""
    agree = 0
    for tag in ("boolean2", "lukasiewicz_chain(2)"):
        for f in _square_family(tag):
            one = identity_functor(f.dom)
            ff = is_fully_faithful(f)[0]
            bc = bc_star_square_check(square(one, one, f, f))[0]
            if ff != bc:
                return f.name
            agree += 1
    return dict(functors=agree)


# ------------------------------------------------------- C5 lax idempotency

@_criterion("C5", "lax idempotency: square and adjunction routes coincide")
def criterion_5(budget):
    """The square route and both adjunction routes give one verdict,
    for the presheaf monad and for both ball monads."""
    chain2 = _chain_cat(BOOL, 2, "chain2")
    disc2 = _disc_cat(BOOL, 2, "disc2")
    instances = [(presheaf_monad(budget), X)
                 for X in (chain2, disc2, _indisc2(BOOL, "indisc2"), _luk_sym())]
    instances += [(ball_monad(True), X) for X in (chain2, disc2, _luk_sym())]
    instances += [(ball_monad(False), X)
                  for X in (chain2, disc2,
                            hom_self_category(builtin("goedel_chain", 2)))]
    flags = {}
    for T, X in instances:
        rep = lax_idempotency_report(T, X)
        if not rep["routes_agree"]:
            return f"{T.name} on {X.name}"
        flags[f"{T.name}({X.name})"] = rep["lax_idempotent"]
    return dict(instances=len(instances), lax_idempotent=flags)


# --------------------------------------------------------- C6 admissibility

@_criterion("C6", "admissibility closure holds; a non-columnwise class fails")
def criterion_6(budget):
    """Closure conditions hold for both distinguished classes and break
    columnwise for a class defined on whole distributors only."""
    chain2 = _chain_cat(BOOL, 2, "chain2")
    cats = [chain2, _disc_cat(BOOL, 2, "disc2")]
    funcs = _all_functors(cats)
    for spec in (submonad_all(), submonad_right_adjoints()):
        rep = admissible_class_check(spec, cats, funcs, budget)
        if not rep["admissible"]:
            return spec.name
        if rep["multiplication"]["unchecked"]:
            return f"{spec.name}: unexpectedly over budget"
    broken = SubmonadSpec("whole_only",
                          member=lambda X, values: True,
                          dist_member=lambda phi: len(phi.cod.objects) != 1)
    rep = admissible_class_check(broken, [chain2], [identity_functor(chain2)],
                                 budget)
    if rep["columnwise"]["ok"] or rep["columnwise"]["witness"] is None:
        return "whole-distributor class slipped through columnwise"
    if rep["admissible"]:
        return "broken class marked admissible"
    return dict(specs=("all", "right_adjoints"), functors=len(funcs),
                broken_witness=rep["columnwise"]["witness"])


# ---------------------------------------------------------- C7 cancellation

@_criterion("C7", "cancellation equivalences on lukasiewicz and goedel chains")
def criterion_7(budget):
    """Cancellation, separation of the ball category of V, and
    preservation of separation stand or fall together."""
    outcomes = {}
    for kind, n, expected in (("lukasiewicz_chain", 2, True),
                              ("lukasiewicz_chain", 3, True),
                              ("goedel_chain", 2, False),
                              ("goedel_chain", 3, False)):
        q = builtin(kind, n)
        rep = cancellation_report(q, cats=(_chain_cat(q, 2, f"two({q.name})"),))
        if not rep["equivalent"]:
            return f"{q.name}: routes split"
        if rep["cancellative"]["ok"] is not expected:
            return f"{q.name}: cancellative={rep['cancellative']['ok']}"
        outcomes[q.name] = rep["cancellative"]["ok"]
    return dict(outcomes=outcomes)


# ------------------------------------------------------------- C8 tensoring

def _c8_instances():
    quantales = [builtin("boolean2")]
    for kind in ("goedel_chain", "lukasiewicz_chain"):
        quantales += [builtin(kind, n) for n in (2, 3, 4)]
    instances = []
    for q in quantales:
        homself = hom_self_category(q)
        for ext in (True, False):
            instances.append((homself, ext, True))
            instances.append((_chain_cat(q, 2, f"chain2({q.name})"), ext, False))
            instances.append((_indisc2(q, f"indisc2({q.name})"), ext, False))
    # three-object chains where a failed search stays enumerable
    for q in (BOOL, builtin("goedel_chain", 2), builtin("goedel_chain", 3),
              builtin("goedel_chain", 4), LUK2):
        for ext in (True, False):
            instances.append((_chain_cat(q, 3, f"chain3({q.name})"), ext, False))
    for X in (_disc_cat(BOOL, 2, "disc2"), _disc_cat(BOOL, 3, "disc3"),
              _luk_sym(), _luk_asym()):
        for ext in (True, False):
            instances.append((X, ext, False))
    return instances


def _no_action_exists(X, BX):
    """No V-functor BX → X passes unit pointing and stepwise
    associativity; on a V-functor, unit pointing implies expansion
    (`ball._algebra_laws`)."""
    idx = _pair_index(BX)
    for mp in functors(BX, X):
        unit_i, assoc_w, _, _ = _algebra_laws(X, VFunctor("α", BX, X, mp), idx)
        if (unit_i, assoc_w) == (None, None):
            return False
    return True


@_criterion("C8", "tensored two ways; ball algebras four ways")
def criterion_8(budget):
    """Tensored-ness found two ways; algebras verified four ways; on
    hom-categories the action is the tensor itself; non-tensored
    categories admit no algebra at all."""
    instances = _c8_instances()
    tensored_count = non_tensored = 0
    for X, ext, homself in instances:
        q = X.quantale
        by_search = tensored_check(X, ext, via="search")
        by_ext = tensored_check(X, ext, via="extension")
        if by_search["tensored"] != by_ext["tensored"]:
            return f"{X.name}: routes split"
        if by_search["tensored"]:
            tensored_count += 1
            alpha = by_search["algebra"]
            if alpha.mapping != by_ext["algebra"].mapping:
                return f"{X.name}: representatives differ"
            rep = ball_algebra_check(alpha)
            if not (rep["algebra"] and rep["agree"]):
                return f"{X.name}: algebra conditions split"
            if tensor_adjunction(X, alpha)["ok"] is False:
                return f"{X.name}: adjunction"
            if homself:
                # on V itself the action must be x ⊕ r = x ⊗ r
                BX = alpha.dom
                for j, (i, r) in enumerate(BX.pairs):
                    if alpha(j) != q.tensor(q.carrier[i], r).index:
                        return f"{X.name}: action is not ⊗ at {BX.objects[j]}"
        else:
            non_tensored += 1
            BX = ball_category(X, ext)
            if len(X.objects) ** len(BX.objects) > 20000:
                return f"{X.name}: counterexample search too big"
            if not _no_action_exists(X, BX):
                return f"{X.name}: not tensored yet an action exists"
    if len(instances) < 50 or non_tensored == 0:
        return f"battery too thin: {len(instances)} instances, {non_tensored} non-tensored"
    return dict(instances=len(instances), tensored=tensored_count,
                non_tensored=non_tensored)


# ----------------------------------------------------------- C9 b-embeddings

def _full_subchain(V, labels, name):
    idx = [V.objects.index(l) for l in labels]
    sub = validate_category(name, V.quantale, [V.objects[i] for i in idx],
                            [[V.hom[i][j] for j in idx] for i in idx])
    h = VFunctor(f"incl_{name}", sub, V, tuple(idx))
    return sub, h


def _sharp_identities(h, escapes):
    """Find the right adjoint left inverse of Bh pointwise and verify
    the three identities it satisfies for any passing embedding.  The
    adjoint is partial: pairs whose value would need radius ⊥ have none,
    and must be exactly the recorded escapes."""
    X, Y = h.dom, h.cod
    q = Y.quantale
    BX = ball_category(X, extended=False)
    BY = ball_category(Y, extended=False)
    by_idx = _pair_index(BY)
    embed = [by_idx[(h(i), r)] for i, r in BX.pairs]  # Bh on indices
    unit_checked = 0
    for j, (yi, r) in enumerate(BY.pairs):
        cand = next((b for b in range(len(BX.objects))
                     if all(BY.hom[embed[a]][j] == BX.hom[a][b]
                            for a in range(len(BX.objects)))), None)
        if cand is None:
            if BY.objects[j] not in escapes:
                return f"no adjoint value at {BY.objects[j]}, not an escape"
            continue
        xi, s = BX.pairs[cand]
        for a in range(len(BX.objects)):   # (1) same distance to (y,r)
            if BY.hom[embed[a]][j] != BY.hom[embed[a]][embed[cand]]:
                return f"distance splits at {BX.objects[a]} vs {BY.objects[j]}"
        if r == q.unit:
            unit_checked += 1
            if s != Y.hom[h(xi)][yi]:      # (2) radius is the distance
                return f"radius at {BY.objects[j]}"
            for a in range(len(X.objects)):  # (3) factorization through y_k
                lhs = Y.hom[h(a)][yi]
                if lhs != q.tensor(Y.hom[h(a)][h(xi)], Y.hom[h(xi)][yi]):
                    return f"factorization at ({X.objects[a]},{Y.objects[yi]})"
    if unit_checked == 0:
        return "no unit-radius pair survived to test"
    return None


@_criterion("C9", "interval sub-chains embed, with the adjoint-value identities")
def criterion_9(budget):
    """Interval sub-chains of the lukasiewicz four-chain embed; a gappy
    one does not; every passing embedding satisfies the adjoint-value
    identities."""
    V = hom_self_category(builtin("lukasiewicz_chain", 4))
    passing = []
    for name, labels in (("upper", ["1/2", "3/4", "1"]),
                         ("lower", ["0", "1/4", "1/2"]),
                         ("full", list(V.objects))):
        sub, h = _full_subchain(V, labels, name)
        rep = b_embedding_check(h)
        if not rep["b_embedding"]:
            return f"{name}: {rep}"
        w = _sharp_identities(h, rep["escapes"])
        if w is not None:
            return f"{name}: {w}"
        passing.append(name)
    _, gappy = _full_subchain(V, ["0", "1"], "gappy")
    rep = b_embedding_check(gappy)
    if rep["b_embedding"]:
        return "gappy chain embeds"
    return dict(passing=passing, gappy_witness=str(rep["pointing"]["witness"]))


# ----------------------------------------------- C10 algebras three ways

@_criterion("C10", "extraction, cocompleteness, minima, and injectivity agree")
def criterion_10(budget):
    """Algebra extraction, cocompleteness, and the minimum description
    agree instance by instance; algebras are injective along the
    generated embeddings."""
    # separated carriers only: without separation the unit is not
    # injective and no strict section can exist, cocomplete or not
    bool_cats = [_chain_cat(BOOL, 2, "chain2"), _chain_cat(BOOL, 3, "chain3"),
                 _disc_cat(BOOL, 2, "disc2"), _vee(), hom_self_category(BOOL)]
    luk_cats = [_luk_sym(), _luk_asym(), hom_self_category(LUK2)]
    specs = (submonad_all(), submonad_right_adjoints())
    agreements = 0
    algebra_names = {spec.name: set() for spec in specs}
    for spec in specs:
        T = submonad_monad(spec, budget)
        for X in bool_cats + luk_cats:
            a = algebra_extract(X, T)
            m = min_characterization(X, T)
            # cocomplete (every weight represented) iff α is an algebra
            if not (a["ok"] == (not a["failures"]) == m["ok"]):
                return f"{spec.name} on {X.name}: verdicts split"
            if a["ok"]:
                algebra_names[spec.name].add(id(X))
                alpha = a["algebra"]
                for i, lab in enumerate(m["x_phi"]):
                    if X.hom[alpha(i)] != X.hom[X.objects.index(lab)]:
                        return f"{spec.name} on {X.name}: actions differ at {lab}"
            agreements += 1
    # injectivity along every generated embedding, per quantale
    emb_checked = 0
    for cats in (bool_cats, luk_cats):
        fam = [f for f in _all_functors(cats[:3])
               if is_fully_faithful(f)[0] and f.dom is not f.cod]
        for spec in specs:
            tembs = [h for h in fam
                     if t_embedding_check(spec, h)["t_embedding"]]
            for X in cats:
                if id(X) not in algebra_names[spec.name]:
                    continue
                for h in tembs:
                    rep = injectivity_check(X, h, budget)
                    if not rep["ok"]:
                        return (f"{spec.name}: {X.name} not injective "
                                f"along {h.name} at {rep['witness']}")
                    emb_checked += 1
    if emb_checked == 0:
        return "no embeddings generated"
    return dict(instances=agreements, injectivity_instances=emb_checked)


# ------------------------------------------------ C11 right-adjoint closure

@_criterion("C11", "adjoint enumeration, completion, and stabilization")
def criterion_11(budget):
    """`enumerate_L`, which certifies the closed-form left adjoint [φ, 1_X]
    of each presheaf by its unit, matches the membership route through
    the distributor calculus, and each pair it gives is an adjoint pair,
    counit included; completion is complete, fully faithful, and
    idempotent; eventually constant sequences land on their stabilization
    point."""
    chain2 = _chain_cat(BOOL, 2, "chain2")
    pair = _diamond_pair()
    ra = submonad_right_adjoints()
    battery = [chain2, _luk_sym(), _luk_asym(), hom_self_category(BOOL),
               hom_self_category(builtin("goedel_chain", 2)), pair]
    for X in battery:
        LX, pairs = enumerate_L(X, budget)
        SX = submonad_category(ra, X, budget)
        if LX.objects != SX.objects:
            return f"{X.name}: routes split"
        for p in pairs:
            if not check_adjoint_pair(p.psi, p.phi)[0]:
                return f"{X.name}: uncertified pair"
    completions = {}
    for X in (chain2, pair, _luk_asym()):
        # the unit is fully faithful, and LX is L-complete: every member
        # of the L(LX) built to complete twice is a representable of LX
        LX, unit = lawvere_completion(X, budget)
        if not is_fully_faithful(unit)[0]:
            return f"{X.name}: completion unit not fully faithful"
        LLX, unit2 = lawvere_completion(LX, budget)
        if not set(LLX.presheaves) <= set(representables(LX)):
            return f"{X.name}: completion not L-complete"
        if sorted(unit2.mapping) != list(range(len(LX.objects))):
            return f"{X.name}: completing twice moved things"
        completions[X.name] = len(LX.objects)
    erp = builtin("ext_real_plus")

    def metric(name, labels, rows):
        return validate_category(name, erp, labels,
                                 [[erp.elem(v) for v in row] for row in rows])

    spaces = [metric("m2", ["a", "b"], [[0, 1], [1, 0]]),
              metric("m3", ["a", "b", "c"],
                     [[0, 1, 1], [1, 0, 1], [1, 1, 0]]),
              metric("line3", ["a", "b", "c"],
                     [[0, 1, 3], [1, 0, 2], [3, 2, 0]])]
    sequences = 0
    for M in spaces:
        for p in M.objects:
            seqs = [cauchy_sequence((p,) * 3, 0)]
            if p != M.objects[0]:
                seqs.append(cauchy_sequence((M.objects[0], p, p, p), 1))
            for seq in seqs:
                _, rep_label = cauchy_pair(M, seq)
                if rep_label != seq.points[seq.stable_from]:
                    return f"{M.name}: landed on {rep_label}"
                sequences += 1
    if sequences < 10:
        return f"only {sequences} sequences generated"
    return dict(categories=len(battery), completions=completions, sequences=sequences)


# -------------------------------------------------------- C12 homomorphisms

@_criterion("C12", "lax always holds; strictness classifies curated maps")
def criterion_12(budget):
    """Between extracted algebras the lax inequality never fails and the
    two strictness routes agree; curated maps classify correctly."""
    T = submonad_monad(submonad_all(), budget)
    chain2 = _chain_cat(BOOL, 2, "chain2")
    chain3 = _chain_cat(BOOL, 3, "chain3")
    lat4 = _lat4()
    homv = hom_self_category(BOOL)
    carriers = [chain2, chain3, lat4, homv]
    algs = {id(X): algebra_extract(X, T)["algebra"]
            for X in carriers}
    if any(a is None for a in algs.values()):
        return "carrier failed to extract"
    fam = _all_functors([chain2, chain3, lat4])
    if len(fam) < 20:
        return f"only {len(fam)} functors"
    for f in fam:
        # a lax failure raises InternalError
        if not t_homomorphism_check(f, T, algs[id(f.dom)], algs[id(f.cod)])["agree"]:
            return f.name
    curated = {}
    expect = {}
    curated["identity"] = identity_functor(chain3)
    expect["identity"] = True
    curated["crush"] = VFunctor("crush", lat4, chain2, (0, 0, 0, 1))
    expect["crush"] = False
    q = BOOL
    for c, tag, want in ((q.unit, "hom(k,-)", True), (q.bottom, "hom(0,-)", False)):
        mp = tuple(q.hom(c, v).index for v in q.carrier)
        curated[tag] = VFunctor(tag, homv, homv, mp)
        expect[tag] = want
    strictness = {}
    for tag, f in curated.items():
        rep = t_homomorphism_check(f, T, algs[id(f.dom)], algs[id(f.cod)])
        strictness[tag] = rep["strict"]["ok"]
        if rep["strict"]["ok"] is not expect[tag]:
            return f"{tag}: strict={rep['strict']['ok']}"
    if strictness["crush"] is False:
        rep = t_homomorphism_check(curated["crush"], T, algs[id(lat4)],
                                   algs[id(chain2)])
        if rep["strict"]["witness"] != "[1,1,1,0]":
            return f"crush witness moved: {rep['strict']['witness']}"
    return dict(functors=len(fam), strictness=strictness)


# -------------------------------------------------------------------- runner

CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
            criterion_11, criterion_12)


def run_selftest(budget=DEFAULT_BUDGET):
    """All twelve checks, in order."""
    return [crit(budget) for crit in CRITERIA]
