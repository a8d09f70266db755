"""Commuting squares, Beck-Chevalley checks, and presheaf submonads.

A commuting square of functors passes the check when the distributor
square h^*·f_* <= l_*·g^* holds (the reverse inequality holds on every
commuting square of V-functors, so it is not tested).  On top of that
sit: lax idempotency via three equivalent routes, membership classes of
distributors with their closure conditions, submonads carved out of the
presheaf construction, and the canonical comparison into it.
"""

from __future__ import annotations

from functools import cache

from .dist import (
    check_adjoint_pair,
    column,
    compose,
    enumerate_distributors,
    first_violation,
    identity_distributor,
    is_distributor,
    right_extension,
    star_lower,
    star_upper,
)
from .errors import (
    BudgetExceeded,
    MultiplicationEscapesT,
    NotCommuting,
    ShapeMismatch,
    SpecMismatch,
    UnitNotContained,
)
from .presheaf import (
    PresheafCategory,
    full_subcategory,
    is_presheaf,
    map_values,
    member_functor,
    mult_values,
    multiplication,
    presheaf_category,
    presheaf_label,
    presheaf_map,
    representables,
    yoneda,
)
from .quantale import Record, show_value
from .vcat import (
    DEFAULT_BUDGET,
    VCategory,
    VFunctor,
    VRelation,
    check_adjunction,
    is_fully_faithful,
)


# ------------------------------------------------------------------- squares

class CommutingSquare(Record):
    _fields = ("top", "left", "bottom", "right")  # l: W → Z, g: W → X, f: X → Y, h: Z → Y


def square(top, left, bottom, right) -> CommutingSquare:
    if not (top.dom.same_shape(left.dom) and bottom.dom.same_shape(left.cod)
            and right.dom.same_shape(top.cod) and bottom.cod.same_shape(right.cod)):
        raise ShapeMismatch("square corners do not line up")
    for i, w in enumerate(top.dom.objects):
        if bottom(left(i)) != right(top(i)):
            raise NotCommuting(
                f"square does not commute at {w}: "
                f"{bottom.cod.objects[bottom(left(i))]} vs {bottom.cod.objects[right(top(i))]}")
    return CommutingSquare(top, left, bottom, right)


def bc_star_square_check(sq: CommutingSquare):
    """h^*·f_* <= l_*·g^* on X ⇸ Z.  Returns (bool, witness).

    By Yoneda, h^*·f_*(x,z) = ⋁_y Y(fx,y) ⊗ Y(y,hz) = Y(fx,hz), a gather
    of Y's hom; only l_*·g^* is a composite."""
    f, h = sq.bottom, sq.right
    through_base = VRelation(f.dom, h.dom, tuple(
        tuple(f.cod.hom[fx][hz] for hz in h.mapping) for fx in f.mapping))
    through_corner = compose(star_lower(sq.top), star_upper(sq.left))
    # l_*·g^* <= h^*·f_* always: X(x,gw) ⊗ Z(lw,z) <= Y(fx,fgw) ⊗ Y(hlw,hz)
    # for V-functors f and h, and fg = hl, so (T) bounds it by Y(fx,hz)
    w = first_violation(through_base, through_corner)
    return w is None, w


# ------------------------------------------------------------------- monads

class MonadInstance(Record):
    """A monad on finite categories, given by its action on objects and
    maps together with unit and multiplication components: `apply` takes
    X to TX, `map` a functor f to Tf, `unit(X)` is X → TX and `mult(X)`
    is TTX → TX."""

    _fields = ("name", "apply", "map", "unit", "mult")


def presheaf_monad(budget: int = DEFAULT_BUDGET) -> MonadInstance:
    def apply(X):
        return presheaf_category(X, budget)

    return MonadInstance(
        name="presheaf",
        apply=apply,
        map=lambda f: presheaf_map(f, apply(f.dom), apply(f.cod)),
        unit=lambda X: yoneda(X, apply(X)),
        mult=lambda X: multiplication(X, budget=budget),
    )


def lax_idempotency_report(T: MonadInstance, X: VCategory) -> dict:
    """Three equivalent formulations, reported separately: the square
    (Tη, η_TX, μ, μ) passes the distributor check; Tη ⊣ μ; μ ⊣ η_TX."""
    TX = T.apply(X)
    t_eta = T.map(T.unit(X))
    eta_t = T.unit(TX)
    mu = T.mult(X)
    bc, _ = bc_star_square_check(square(t_eta, eta_t, mu, mu))
    adj_up, _ = check_adjunction(t_eta, mu)
    adj_down, _ = check_adjunction(mu, eta_t)
    return {
        "monad": T.name,
        "category": X.name,
        "bc_square": bc,
        "mapped_unit_adjoint_to_mult": adj_up,
        "mult_adjoint_to_unit": adj_down,
        "routes_agree": bc == adj_up == adj_down,
        "lax_idempotent": bc,
    }


# ----------------------------------------------------------- membership specs

class SubmonadSpec(Record):
    """A class of distributors cut down to presheaf membership.

    `member(X, values)` decides whether a presheaf on X belongs; the
    optional `dist_member` decides membership of a whole distributor
    independently of its columns (without it, membership is derived
    columnwise and the columnwise condition holds by construction).
    """

    _fields = ("name", "member", "dist_member")
    dist_member = None


def is_right_adjoint_distributor(phi: VRelation) -> bool:
    """Largest candidate ψ = [φ, 1] satisfies the counit by construction;
    φ is a right adjoint iff ψ also passes the unit."""
    psi = right_extension(phi, identity_distributor(phi.dom))
    return check_adjoint_pair(psi, phi)[0]


def submonad_all() -> SubmonadSpec:
    return SubmonadSpec("all",
                        member=lambda X, values: is_presheaf(X, values),
                        dist_member=is_distributor)


def submonad_right_adjoints() -> SubmonadSpec:
    def member(X, values):
        return is_right_adjoint_distributor(column(X, values))
    return SubmonadSpec("right_adjoints",
                        member=member, dist_member=is_right_adjoint_distributor)


def submonad_user_table(name: str, table: dict) -> SubmonadSpec:
    """table: category name → collection of presheaf labels."""
    def member(X, values):
        try:
            allowed = table[X.name]
        except KeyError:
            raise SpecMismatch(f"no membership table for category {X.name}")
        return presheaf_label(values) in allowed
    return SubmonadSpec(name, member=member)


def phi_membership(spec: SubmonadSpec, phi: VRelation) -> bool:
    """Distributor membership; without `dist_member`, column by column.
    Every φ it is given is a distributor (enumerated, a composite with a
    conjoint, a conjoint f^* or a companion h_* of a V-functor), so the
    column y^*·φ is φ(−,y) by Yoneda."""
    if spec.dist_member is not None:
        return bool(spec.dist_member(phi))
    return all(spec.member(phi.dom, tuple(row[j] for row in phi.matrix))
               for j in range(len(phi.cod.objects)))


# ------------------------------------------------------------------ submonads

def submonad_category(spec: SubmonadSpec, X: VCategory,
                      budget: int = DEFAULT_BUDGET) -> PresheafCategory:
    """The full subcategory of PX on the members of the class."""
    PX = presheaf_category(X, budget)
    return full_subcategory(f"{spec.name}({X.name})", X,
                            (v for v in PX.presheaves if spec.member(X, v)))


def submonad_monad(spec: SubmonadSpec, budget: int = DEFAULT_BUDGET) -> MonadInstance:
    def apply(X):
        return submonad_category(spec, X, budget)

    def unit(X):
        TX = apply(X)
        return member_functor(
            f"unit_{X.name}", X, TX, representables(X),
            escape=lambda i, rep: UnitNotContained(
                f"{presheaf_label(rep)} = image of {X.objects[i]} "
                f"is not a member of {TX.name}"))

    def map_(f):
        TX, TY = apply(f.dom), apply(f.cod)
        return member_functor(
            f"{spec.name}({f.name})", TX, TY, map_values(f, TX.presheaves),
            escape=lambda i, _: SpecMismatch(
                f"image of {presheaf_label(TX.presheaves[i])} under the mapped "
                f"functor escapes {TY.name}"))

    def mult(X):
        TX = apply(X)
        TTX = apply(TX)
        return member_functor(
            f"mult_{X.name}", TTX, TX, mult_values(TX, TTX.presheaves),
            escape=lambda i, out: MultiplicationEscapesT(
                f"multiplication of {presheaf_label(TTX.presheaves[i])} "
                f"lands at {presheaf_label(out)}, outside {TX.name}"))

    return MonadInstance(spec.name, apply, map_, unit, mult)


# --------------------------------------------------------------- admissibility

def _rel_desc(r: VRelation) -> str:
    rows = ";".join(
        ",".join(show_value(e.value) for e in row) for row in r.matrix)
    return f"{r.dom.name}⇸{r.cod.name}[{rows}]"


def admissible_class_check(spec: SubmonadSpec, categories, functors,
                           budget: int = DEFAULT_BUDGET) -> dict:
    """The four closure conditions for a class of distributors over a
    finite test universe: conjoints of functors belong; composition with
    conjoints on either side stays in the class; membership is decided
    columnwise; multiplication of a presheaf on PX whose restriction to
    the member subcategory belongs lands on a member.  The last is left
    unchecked on each X whose PPX the budget refuses (`unchecked`) and on
    each member category TX the spec cannot decide membership on, as a
    table spec that lists only the universe's categories (`unlisted`).

    Each condition is one search that stops at its first witness.  Within
    a call each distributor list X ⇸ Y is enumerated once and each
    membership decided once, both on first use, so gates and spec errors
    fire where they would without the memo."""

    @cache
    def dists(X, Y):
        return enumerate_distributors(X, Y, budget)

    @cache
    def member(phi):
        return phi_membership(spec, phi)

    def conjoints():
        for f in functors:
            if not member(star_upper(f)):
                yield f"{f.name}^*"

    def composites():
        for f in functors:
            up = star_upper(f)
            for Z in categories:
                for psi in dists(f.dom, Z):
                    if member(psi) and not member(compose(psi, up)):
                        yield f"{_rel_desc(psi)}·{f.name}^*"
                for phi in dists(Z, f.cod):
                    # f^*·φ(a,x) = ⋁_y φ(a,y) ⊗ Y(y,fx) = φ(a,fx), φ a distributor
                    if member(phi) and not member(VRelation(Z, f.dom, tuple(
                            tuple(row[fx] for fx in f.mapping) for row in phi.matrix))):
                        yield f"{f.name}^*·{_rel_desc(phi)}"

    def columnwise():
        """Each distributor φ is a member as a whole iff each column
        y^*·φ = φ(−,y) is.  Without `dist_member` the whole is decided
        column by column, so this compares one membership test with
        itself; it has content only with `dist_member`."""
        for X in categories:
            for Y in categories:
                for phi in dists(X, Y):
                    whole = member(phi)
                    if whole != all(member(column(X, tuple(row[j] for row in phi.matrix)))
                                    for j in range(len(Y.objects))):
                        yield f"{_rel_desc(phi)} ({'in' if whole else 'out'} as a whole)"

    unchecked, unlisted = [], []

    def multiplication():
        for X in categories:
            try:
                PX = presheaf_category(X, budget)
                TX = submonad_category(spec, X, budget)
                PPX = presheaf_category(PX, budget)
            except BudgetExceeded:
                unchecked.append(X.name)
                continue
            # the positions in PX of the members, via the inclusion TX ↪ PX
            keep = member_functor("incl", TX, PX, TX.presheaves).mapping
            for gamma, image in zip(PPX.presheaves, mult_values(PX, PPX.presheaves)):
                try:
                    restricted = spec.member(TX, tuple(gamma[i] for i in keep))
                except SpecMismatch:
                    # a table lists the universe's categories, not TX
                    unlisted.append(TX.name)
                    break
                if restricted and not spec.member(X, image):
                    yield f"{presheaf_label(gamma)} on P({X.name})"

    def first(search, **extra):
        w = next(search(), None)
        return {"ok": w is None, "witness": w, **extra}

    report = {"spec": spec.name,
              "conjoints": first(conjoints),
              "composites": first(composites),
              "columnwise": first(columnwise,
                                  independent=spec.dist_member is not None),
              "multiplication": first(multiplication, unchecked=unchecked,
                                      unlisted=unlisted)}
    report["admissible"] = all(report[k]["ok"] for k in
                               ("conjoints", "composites", "columnwise",
                                "multiplication"))
    return report


def t_embedding_check(spec: SubmonadSpec, h: VFunctor) -> dict:
    """Fully faithful and the companion h_* belongs to the class."""
    ff, ff_w = is_fully_faithful(h)
    member = phi_membership(spec, star_lower(h))
    return {"functor": h.name, "fully_faithful": ff,
            "companion_member": member, "t_embedding": ff and member,
            "witness": None if ff else str(ff_w)}


# ------------------------------------------------------------ monad morphisms

def canonical_comparison(T: MonadInstance, X: VCategory,
                         budget: int = DEFAULT_BUDGET) -> VFunctor:
    """σ_X: TX → PX, 𝔵 ↦ TX(η−, 𝔵)."""
    TX = T.apply(X)
    eta = T.unit(X)
    PX = presheaf_category(X, budget)
    return member_functor(
        f"sigma_{X.name}", TX, PX,
        (tuple(TX.hom[eta(i)][j] for i in range(len(X.objects)))
         for j in range(len(TX.objects))))


def monad_morphism_check(T: MonadInstance, X: VCategory, f: VFunctor = None,
                         budget: int = DEFAULT_BUDGET) -> dict:
    """The canonical comparison at X: unit triangle, multiplication
    square (computed without presheaves on PX), naturality at f if
    given, and the pointwise embedding properties."""
    q = X.quantale
    TX = T.apply(X)
    TTX = T.apply(TX)
    PX = presheaf_category(X, budget)
    sigma = canonical_comparison(T, X, budget)
    y = yoneda(X, PX)
    eta = T.unit(X)
    mu = T.mult(X)
    n, nt = len(X.objects), len(TX.objects)

    unit_ok = tuple(sigma(eta(i)) for i in range(n)) == y.mapping

    # σ_X(μ Γ) vs m_X(Pσ_X(σ_TX Γ)), evaluated on value tuples over X
    sigma_vals = [PX.presheaves[sigma(j)] for j in range(nt)]
    eta_t = T.unit(TX)
    # σ_TX(Γ)(t) = TTX(η_TX t, Γ), one row per Γ; then P σ_X, whose
    # value at φ is ⋁_t σ_TX(Γ)(t) ⊗ ã(φ, σ_X t); then m
    psis = tuple(tuple(TTX.hom[eta_t(t)][gi] for t in range(nt))
                 for gi in range(len(TTX.objects)))
    homs = q.coded(PX.presheaves, sigma_vals).inf_hom(0, 1)
    rights = mult_values(PX, q.coded(psis, homs).sup_tensor(0, 1))
    w = next((TTX.objects[gi] for gi, right in enumerate(rights)
              if right != sigma_vals[mu(gi)]), None)
    mult_report = {"ok": w is None, "witness": w}

    nat_report = None
    if f is not None:
        pf = presheaf_map(f, presheaf_category(f.dom, budget),
                          presheaf_category(f.cod, budget))
        tf = T.map(f)
        sigma_y = canonical_comparison(T, f.cod, budget)
        sig_dom = canonical_comparison(T, f.dom, budget)
        ok = tuple(pf(sig_dom(j)) for j in range(len(tf.dom.objects))) == \
            tuple(sigma_y(tf(j)) for j in range(len(tf.dom.objects)))
        nat_report = {"functor": f.name, "ok": ok}

    ff, _ = is_fully_faithful(sigma)
    injective = len(set(sigma.mapping)) == len(sigma.mapping)
    out = {
        "monad": T.name,
        "category": X.name,
        "unit_triangle": unit_ok,
        "multiplication_square": mult_report,
        "naturality": nat_report,
        "pointwise_fully_faithful": ff,
        "pointwise_injective": injective,
        "monad_morphism": unit_ok and mult_report["ok"]
        and (nat_report is None or nat_report["ok"]) and ff and injective,
    }
    return out
