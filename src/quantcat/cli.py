"""`quantcat`: run checks and constructions from a JSON workspace.

A workspace is a single JSON document with any of the sections
`quantales`, `categories`, `functors`, `relations`, `squares`,
`submonad_specs`, `sequences`; each section is a list of named records.
Values are exact: integers, rational strings like "3/4" (a zero
denominator makes the string a label), "inf" (for the extended-real
quantale), or carrier labels of a finite quantale.  A rational string
whose numerator or denominator, written out in full before reduction,
has more than `sys.get_int_max_str_digits()` digits (4300 by default)
is a parse error: "1e4299" is read, "1e4300" and "1e999999999" are not,
and no such integer is ever built.  Hom
and weight matrices are row-major in declared object order.  Quantale
records never carry a "hom" table — residuation is derived, and
supplying one is rejected outright.

    {"quantales":  [{"name": "V", "kind": "lukasiewicz_chain", "n": 2},
                    {"name": "D", "carrier": ["o", "a", "b", "i"],
                     "leq": [["o","a"], ["o","b"], ["a","i"], ["b","i"]],
                     "tensor": [["o","o","o","o"], ["o","a","o","a"],
                                ["o","o","b","b"], ["o","a","b","i"]],
                     "unit": "i"}],
     "categories": [{"name": "X", "quantale": "V", "objects": ["x", "y"],
                     "hom": [["1", "1/2"], ["0", "1"]]}],
     "functors":   [{"name": "f", "dom": "X", "cod": "X",
                     "mapping": {"x": "x", "y": "x"}}],
     "relations":  [{"name": "w", "dom": "X", "cod": "X",
                     "matrix": [["1", "0"], ["0", "1"]]}],
     "squares":    [{"name": "sq", "top": "f", "left": "f",
                     "bottom": "f", "right": "f"}],
     "submonad_specs": [{"name": "all", "kind": "all"},
                        {"name": "tbl", "kind": "table",
                         "members": {"X": ["[1,0]", "[1,1]"]}}],
     "sequences":  [{"name": "s", "category": "X",
                     "points": ["x", "y", "y"], "stable_from": 1}]}

Commands: `validate`, `check <property>`, `compute <construction>`,
`complete lawvere`, `selftest`.  Reports echo the command and budget,
then list one verdict per check: pass, fail (with witness), or
unchecked (with reason: a blown budget, or a table spec in `check
admissible` that lists no members for a derived category).  Exit codes:
0 all pass, 1 some check failed, 2 bad input or usage, 3 items left
unchecked, 4 an internal invariant failed (a bug in quantcat, reported
as `InternalError` without a traceback).
Output is deterministic for fixed inputs and budget.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

# Every process pays for what it imports here, and with no bytecode cache
# it compiles it too.  These three modules hold every record a workspace
# parses but squares and specs; the other layers (presheaf, dist,
# monadkit, ball, colimit, lawvere, selftest) are imported inside the
# branch that calls them.
from .errors import (
    BudgetExceeded,
    ForeignElement,
    InternalError,
    NoColimit,
    ParseError,
    PreconditionFail,
    QuantcatError,
    UnresolvedReference,
    UsageError,
    ValidationError,
)
from .quantale import INF, Quantale, builtin, make_finite_quantale, show_value
from .vcat import (
    DEFAULT_BUDGET,
    VFunctor,
    cauchy_sequence,
    check_adjunction,
    is_fully_dense,
    is_fully_faithful,
    is_separated,
    relation,
    validate_category,
    validate_functor,
)

# each property and construction, with the target flags it reads; any
# other target flag (or --monad) given to it is a usage error
PROPERTIES = {"separated": ("category",), "fully-faithful": ("functor",),
              "fully-dense": ("functor",), "adjunction": ("functor", "adjoint"),
              "distributor": ("relation",), "bc-square": ("square",),
              "lax-idempotent": ("category", "monad"), "admissible": ("spec", "quantale"),
              "t-embedding": ("spec", "functor"), "b-embedding": ("functor",),
              "tensored": ("category",), "ball-algebra": ("functor", "category"),
              "algebra": ("category", "spec"), "homomorphism": ("functor", "spec"),
              "l-complete": ("category",), "cancellative": ("quantale", "category")}

CONSTRUCTIONS = {"presheaf": ("category",), "ball": ("category",),
                 "submonad": ("category", "spec"), "colimit": ("weight", "diagram"),
                 "algebra": ("category", "spec"), "lawvere-completion": ("category",),
                 "cauchy-pair": ("sequence",)}

# the record flags of check/compute, in the order a check name lists them
_TARGETS = ("quantale", "category", "functor", "adjoint", "relation",
            "square", "spec", "weight", "diagram", "sequence")


# ------------------------------------------------------------ value parsing

# A rational string in the syntax `Fraction` reads, on every Python this
# package supports, with its digit runs as groups.  Compiled on first use,
# by `re`'s cache, so that start-up does not pay for it.
_RATIONAL_TEXT = r"""\s*[-+]?(?=\d|\.\d)(?P<num>(?:\d+(?:_\d+)*)?)
    (?:\s*/\s*(?P<den>\d+(?:_\d+)*)
      |(?:\.(?P<dec>(?:\d+(?:_\d+)*)?))?(?:[eE](?P<exp>[-+]?\d+(?:_\d+)*))?)\s*\Z"""


def _refuse_long_rational(raw, where):
    """ParseError if `raw` is a rational string whose numerator or
    denominator, written out in full before reduction, has more digits
    than Python converts to a string; read from the text alone, so that
    `Fraction(raw)` never builds such an integer."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    if len(raw) <= limit and "e" not in raw and "E" not in raw:
        return  # no part of it is longer than the string
    m = re.match(_RATIONAL_TEXT, raw, re.VERBOSE)
    if m is None:
        return  # a label
    num, den, dec, exp = ((m[g] or "").replace("_", "") for g in ("num", "den", "dec", "exp"))
    if den:
        digits = max(len(num), len(den))
    elif len(exp.lstrip("+-").lstrip("0")) > len(str(limit)):
        digits = limit + 1  # the exponent alone is longer than the limit
    else:
        shift = int(exp or 0) - len(dec)
        digits = max(len(num) + len(dec) + max(shift, 0), 1 + max(-shift, 0))
    if digits > limit:
        shown = repr(raw) if len(raw) <= 40 else repr(raw[:40]) + "…"
        raise ParseError(f"{where}: {shown} has a numerator or denominator "
                         f"of more than {limit} digits")


def _record_value(raw, q, where):
    """One JSON entry as an element of q: int, 'p/q', 'inf', or label."""
    if isinstance(raw, bool) or isinstance(raw, float):
        raise ParseError(f"{where}: {raw!r} is not exact; write '3/4'")
    candidates = []
    if isinstance(raw, int):
        candidates = [raw]
    elif isinstance(raw, str):
        if raw == "inf":
            candidates = [INF]
        else:
            _refuse_long_rational(raw, where)
            try:
                candidates = [Fraction(raw), raw]
            except (ValueError, ZeroDivisionError):  # not a rational: a label
                candidates = [raw]
    else:
        raise ParseError(f"{where}: {raw!r} is not a value")
    for cand in candidates:
        try:
            return q.elem(cand)
        except ForeignElement:
            continue
    raise ValidationError(f"{where}: {raw!r} is not an element of {q.name}")


def _reject_floats(text):
    raise ParseError(f"floats are not exact; write {text!r} as a fraction")


# --------------------------------------------------------------- workspaces

class Workspace:
    """Parsed records by kind and name, plus per-record failures."""

    def __init__(self):
        self.records = {kind: {} for kind in _KINDS}
        self.failures = {}     # (kind, name) -> message
        self.order = []        # (kind, name) in declaration order
        self.elements = {}     # (type, raw, quantale key) -> element

    def get(self, kind, name, what=None):
        """The record `name` of `kind`; `what` names it in errors."""
        what = what or kind
        if name is None:
            raise UsageError(f"this command needs --{what}")
        if not isinstance(name, str):
            raise ParseError(f"{what} reference {name!r} is not a name")
        if (kind, name) in self.failures:
            raise ValidationError(
                f"{what} {name!r} failed validation: "
                f"{self.failures[(kind, name)]}")
        if name not in self.records[kind]:
            raise UnresolvedReference(f"{what} {name!r} is not declared")
        return self.records[kind][name]

    def alias_of(self, q: Quantale) -> str:
        """The workspace name of q, or its own name if no record built it."""
        return next((name for name, r in self.records["quantale"].items() if r is q), q.name)

    def value(self, raw, q, where):
        """`raw` as an element of q; each value is read once per workspace."""
        key = (type(raw), raw, q.key)
        e = self.elements.get(key)
        if e is None:
            e = self.elements[key] = _record_value(raw, q, where)
        return e


def _take(rec, where, required, optional=()):
    if not isinstance(rec, dict):
        raise ParseError(f"{where}: records are objects")
    known = set(required) | set(optional) | {"name"}
    for key in rec:
        if key not in known:
            raise ValidationError(f"{where}: unknown key {key!r}")
    for key in required:
        if key not in rec:
            raise ValidationError(f"{where}: missing key {key!r}")
    return [rec[k] for k in required]


def _grid(raw, where, key):
    """A list-of-lists field (hom, matrix, leq, tensor) of JSON scalars."""
    if not isinstance(raw, list) or not all(isinstance(row, list) and not any(
            isinstance(v, (list, dict)) for v in row) for row in raw):
        raise ParseError(f"{where}: {key} is a list of lists of values")
    return raw


# Each builder reads one record: its keys first, with `_take`, then the
# records it names, then its own mathematics.

def _build_quantale(ws, rec, where):
    if "hom" in rec:
        raise ValidationError(
            f"{where}: a quantale record must not carry a hom table; "
            "residuation is derived from tensor and order")
    if "carrier" in rec:
        carrier, leq, tensor, unit = _take(
            rec, where, ("carrier", "leq", "tensor", "unit"))
        _grid([carrier, [unit]], where, "[carrier, [unit]]")
        pairs = [tuple(p) for p in _grid(leq, where, "leq")]
        if any(len(p) != 2 for p in pairs):
            raise ParseError(f"{where}: leq entries are [smaller, larger]")
        return make_finite_quantale(rec["name"], carrier, pairs,
                                    _grid(tensor, where, "tensor"), unit)
    (kind,) = _take(rec, where, ("kind",), optional=("n",))
    n = rec.get("n")
    if n is not None and (isinstance(n, bool) or not isinstance(n, int)):
        raise ParseError(f"{where}: n is an integer")
    return builtin(kind, n)


def _build_category(ws, rec, where):
    alias, objects, hom = _take(rec, where, ("quantale", "objects", "hom"))
    q = ws.get("quantale", alias)
    if not isinstance(objects, list) or any(not isinstance(o, str) for o in objects):
        raise ParseError(f"{where}: objects are strings")
    rows = [[ws.value(v, q, where) for v in row] for row in _grid(hom, where, "hom")]
    return validate_category(rec["name"], q, objects, rows)


def _build_functor(ws, rec, where):
    dom, cod, mapping = _take(rec, where, ("dom", "cod", "mapping"))
    X, Y = ws.get("category", dom), ws.get("category", cod)
    if not isinstance(mapping, dict) or set(mapping) != set(X.objects):
        raise ValidationError(
            f"{where}: mapping keys must be exactly the objects of {X.name}")
    try:
        mp = tuple(Y.index(mapping[x]) for x in X.objects)
    except KeyError as e:
        raise ValidationError(f"{where}: {e.args[0]}")
    return validate_functor(rec["name"], X, Y, mp)


def _build_relation(ws, rec, where):
    dom, cod, matrix = _take(rec, where, ("dom", "cod", "matrix"))
    X, Y = ws.get("category", dom), ws.get("category", cod)
    rows = [[ws.value(v, X.quantale, where) for v in row]
            for row in _grid(matrix, where, "matrix")]
    return relation(X, Y, rows)


def _build_square(ws, rec, where):
    from .monadkit import square

    corners = _take(rec, where, ("top", "left", "bottom", "right"))
    return square(*(ws.get("functor", f) for f in corners))


def _build_spec(ws, rec, where):
    from .monadkit import submonad_all, submonad_right_adjoints, submonad_user_table

    (kind,) = _take(rec, where, ("kind",), optional=("members",))
    if kind == "all":
        return submonad_all()
    if kind == "right_adjoints":
        return submonad_right_adjoints()
    if kind == "table":
        members = rec.get("members")
        if not isinstance(members, dict):
            raise ValidationError(f"{where}: table specs need members")
        if not all(isinstance(v, list) for v in members.values()):
            raise ParseError(f"{where}: members maps categories to lists of labels")
        return submonad_user_table(
            rec["name"], {k: tuple(v) for k, v in members.items()})
    raise ValidationError(f"{where}: unknown spec kind {kind!r}")


def _build_sequence(ws, rec, where):
    alias, points, stable = _take(rec, where, ("category", "points", "stable_from"))
    X = ws.get("category", alias)
    if not isinstance(points, list):
        raise ParseError(f"{where}: points is a list of objects")
    for p in points:
        if p not in X.objects:
            raise ValidationError(f"{where}: {p!r} is not an object of {X.name}")
    if isinstance(stable, bool) or not isinstance(stable, int):
        raise ParseError(f"{where}: stable_from is an integer")
    return (X, cauchy_sequence(points, stable))


# record kind -> (the workspace section that lists it, its builder), in the
# order parsed: a record names only records of the kinds above its own
_KINDS = {"quantale": ("quantales", _build_quantale),
          "category": ("categories", _build_category),
          "functor": ("functors", _build_functor),
          "relation": ("relations", _build_relation),
          "square": ("squares", _build_square),
          "spec": ("submonad_specs", _build_spec),
          "sequence": ("sequences", _build_sequence)}


def parse_workspace(path) -> Workspace:
    """Read and structurally validate a workspace document.

    Undeclared names and malformed JSON abort with UnresolvedReference
    or ParseError; a record with an unknown or missing key, or one that
    parses but fails its own mathematics, is kept as a failure, visible
    to `validate` and fatal to any command that touches it.
    """
    ws = Workspace()
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, parse_float=_reject_floats)
    except FileNotFoundError:
        raise ParseError(f"{path}: no such file")
    except OSError as e:
        raise ParseError(f"{path}: cannot be read: {e.strerror or e}")
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: byte {e.start} is not UTF-8")
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}:{e.lineno}:{e.colno}: {e.msg}")
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: the top level is an object")
    for section in doc:
        if section not in {s for s, _ in _KINDS.values()}:
            raise ValidationError(f"{path}: unknown section {section!r}")
        if not isinstance(doc[section], list):
            raise ParseError(f"{path}: section {section!r} is a list")

    for kind, (section, build) in _KINDS.items():
        for i, rec in enumerate(doc.get(section, ())):
            where = f"{path}:{section}[{i}]"
            name = rec.get("name") if isinstance(rec, dict) else None
            if not name or not isinstance(name, str):
                raise ParseError(f"{where}: records need a nonempty name")
            if name in ws.records[kind] or (kind, name) in ws.failures:
                raise ValidationError(f"{where}: duplicate name {name!r}")
            ws.order.append((kind, name))
            try:
                ws.records[kind][name] = build(ws, rec, f"{where} ({name})")
            except (ParseError, UnresolvedReference, InternalError):
                raise
            except QuantcatError as e:
                ws.failures[(kind, name)] = str(e)
    return ws


# ----------------------------------------------------------------- emission

def _quantale_record(ws, q: Quantale):
    name = ws.alias_of(q)
    if q.kind != "finite":
        rec = {"name": name, "kind": q.kind}
        if q.param is not None:
            rec["n"] = q.param
        return rec
    labels = [show_value(e.value) for e in q.carrier]
    return {
        "name": name,
        "carrier": labels,
        "leq": [[labels[i], labels[j]]
                for i in range(len(labels)) for j in range(len(labels))
                if q.leq(q.carrier[i], q.carrier[j])],
        "tensor": [[show_value(q.tensor(u, v).value) for v in q.carrier]
                   for u in q.carrier],
        "unit": show_value(q.unit.value),
    }


def _category_record(ws, X):
    q = X.quantale
    if q.enumerable:  # one label per carrier element, looked up by index
        labels = [show_value(e.value) for e in q.carrier]
        hom = [[labels[v.index] for v in row] for row in q.coded(X.hom).codes[0]]
    else:
        hom = [[show_value(v.value) for v in row] for row in X.hom]
    return {"name": X.name, "quantale": ws.alias_of(q),
            "objects": list(X.objects), "hom": hom}


def _functor_record(f: VFunctor):
    return {"name": f.name, "dom": f.dom.name, "cod": f.cod.name,
            "mapping": {x: f.on_label(x) for x in f.dom.objects}}


def _fragment(ws, categories, functors):
    # once each: a colimit's weight and diagram may share their codomain
    categories = list({id(X): X for X in categories}.values())
    qs, seen = [], set()
    for X in categories:
        if id(X.quantale) not in seen:
            seen.add(id(X.quantale))
            qs.append(_quantale_record(ws, X.quantale))
    return {"quantales": qs,
            "categories": [_category_record(ws, X) for X in categories],
            "functors": [_functor_record(f) for f in functors]}


def _jsonable(v):
    if isinstance(v, dict):
        return {str(k): _jsonable(u) for k, u in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(u) for u in v]
    if isinstance(v, (bool, int, str)) or v is None:
        return v
    return str(v)  # a QElem, Fraction or INF prints as show_value does


def _check(name, ok, witness=None, detail=None):
    return {"name": name, "verdict": "pass" if ok else "fail",
            "witness": None if witness is None else str(witness),
            "reason": None, "detail": _jsonable(detail) or None}


def _unchecked(name, reason):
    return {"name": name, "verdict": "unchecked", "witness": None,
            "reason": reason, "detail": None}


# ----------------------------------------------------------- check handlers

def _run_check(ws, args, cname):
    prop = args.property
    budget = args.budget
    if prop == "separated":
        return _check(cname, *is_separated(ws.get("category", args.category)))
    if prop == "fully-faithful":
        return _check(cname, *is_fully_faithful(ws.get("functor", args.functor)))
    if prop == "fully-dense":
        return _check(cname, *is_fully_dense(ws.get("functor", args.functor)))
    if prop == "adjunction":
        f = ws.get("functor", args.functor)
        g = ws.get("functor", args.adjoint, "adjoint")
        return _check(cname, *check_adjunction(f, g))
    if prop == "distributor":
        from .dist import validate_distributor

        r = ws.get("relation", args.relation)
        try:
            validate_distributor(r)
            return _check(cname, True)
        except QuantcatError as e:
            return _check(cname, False, str(e))
    if prop == "bc-square":
        from .monadkit import bc_star_square_check

        return _check(cname, *bc_star_square_check(ws.get("square", args.square)))
    if prop == "lax-idempotent":
        from .monadkit import lax_idempotency_report, presheaf_monad

        X = ws.get("category", args.category)
        if args.monad == "ball":
            from .ball import ball_monad

            T = ball_monad(not args.plain)
        else:
            T = presheaf_monad(budget)
        rep = lax_idempotency_report(T, X)
        ok = rep["lax_idempotent"] and rep["routes_agree"]
        return _check(cname, ok, detail=rep)
    if prop == "admissible":
        from .monadkit import admissible_class_check

        spec = ws.get("spec", args.spec)
        cats = list(ws.records["category"].values())
        funs = list(ws.records["functor"].values())
        if args.quantale:
            q = ws.get("quantale", args.quantale)
            cats = [X for X in cats if X.quantale == q]
            funs = [f for f in funs if f.dom.quantale == q]
        elif len({X.quantale for X in cats}) > 1:
            raise ValidationError(
                "the workspace spans several quantales; pick the test "
                "universe with --quantale")
        rep = admissible_class_check(spec, cats, funs, budget)
        if not rep["admissible"]:
            w = next((rep[k]["witness"] for k in
                      ("conjoints", "composites", "columnwise", "multiplication")
                      if not rep[k]["ok"]), None)
            return _check(cname, False, w, detail=rep)
        skipped, unlisted = rep["multiplication"]["unchecked"], rep["multiplication"]["unlisted"]
        reasons = ["budget left categories unchecked: " + ", ".join(skipped)] if skipped else []
        if unlisted:
            reasons.append("the multiplication condition needs membership tables for "
                           + ", ".join(unlisted))
        if reasons:
            return _unchecked(cname, "; ".join(reasons))
        return _check(cname, True, detail=rep)
    if prop == "t-embedding":
        from .monadkit import t_embedding_check

        rep = t_embedding_check(ws.get("spec", args.spec), ws.get("functor", args.functor))
        return _check(cname, rep["t_embedding"], rep["witness"], detail=rep)
    if prop == "b-embedding":
        from .ball import b_embedding_check

        rep = b_embedding_check(ws.get("functor", args.functor))
        w = rep["ff_witness"] or rep["pointing"]["witness"]
        return _check(cname, rep["b_embedding"],
                      None if rep["b_embedding"] else w, detail=rep)
    if prop == "tensored":
        from .ball import tensored_check

        rep = tensored_check(ws.get("category", args.category), not args.plain)
        detail = dict(rep, algebra=None if rep["algebra"] is None
                      else _functor_record(rep["algebra"]))
        return _check(cname, rep["tensored"], rep["witness"], detail=detail)
    if prop == "ball-algebra":
        return _check_ball_algebra(ws, args, cname)
    if prop == "algebra":
        from .colimit import algebra_extract

        rep = algebra_extract(ws.get("category", args.category),
                              ws.get("spec", args.spec), budget)
        w = ", ".join(rep["failures"]) or None
        detail = dict(rep, algebra=None if rep["algebra"] is None
                      else _functor_record(rep["algebra"]))
        return _check(cname, rep["ok"], w, detail=detail)
    if prop == "homomorphism":
        return _check_homomorphism(ws, args, cname)
    if prop == "l-complete":
        from .lawvere import is_L_complete

        return _check(cname, *is_L_complete(ws.get("category", args.category), budget))
    if prop == "cancellative":
        from .ball import cancellation_report

        q = ws.get("quantale", args.quantale)
        cats = (ws.get("category", args.category),) if args.category else ()
        if any(X.quantale != q for X in cats):
            raise ValidationError(
                f"{cats[0].name} is not enriched in {ws.alias_of(q)}")
        rep = cancellation_report(q, cats)
        return _check(cname, rep["cancellative"]["ok"],
                      rep["cancellative"]["witness"], detail=rep)
    raise UsageError(f"unknown property {prop!r}")


def _check_ball_algebra(ws, args, cname):
    from .ball import ball_algebra_check, ball_category

    f = ws.get("functor", args.functor)
    X = ws.get("category", args.category)
    BX = ball_category(X, not args.plain)
    variant = "ball" if args.plain else "extended ball"
    if f.dom.objects != BX.objects or f.dom.hom != BX.hom:
        raise ValidationError(
            f"{f.dom.name} is not the {variant} category of {X.name}; "
            f"compute ball emits the expected record")
    if not f.cod.same_shape(X):
        raise ValidationError(f"{f.name} must land in {X.name}")
    alpha = VFunctor(f.name, BX, X, f.mapping)
    rep = ball_algebra_check(alpha)
    ok = rep["algebra"] and rep["agree"]
    w = rep["unit_pointing"]["witness"] or rep["associativity"]["witness"] \
        or rep["expansion"]["witness"] or rep["monad_laws"]["witness"]
    return _check(cname, ok, None if ok else w, detail=rep)


def _check_homomorphism(ws, args, cname):
    from .colimit import algebra_extract, t_homomorphism_check

    f = ws.get("functor", args.functor)
    spec = ws.get("spec", args.spec)
    algebras = []
    for X in (f.dom, f.cod):
        rep = algebra_extract(X, spec, args.budget)
        if not rep["ok"]:
            raise PreconditionFail(
                f"{X.name} does not carry a {spec.name} algebra")
        algebras.append(rep["algebra"])
    rep = t_homomorphism_check(f, spec, *algebras, budget=args.budget)
    return _check(cname, rep["homomorphism"], rep["strict"]["witness"], detail=rep)


# --------------------------------------------------------- compute handlers

def _built(ws, cname, X, TX, unit):
    """(check, outputs, fragment) of a category TX built on X, with its
    unit X → TX."""
    return (_check(cname, True, detail={"objects": len(TX.objects)}),
            {"category": TX.name, "unit": unit.name},
            _fragment(ws, [X, TX], [unit]))


def _run_compute(ws, args, cname):
    con = args.construction
    budget = args.budget
    if con == "presheaf":
        from .presheaf import presheaf_category, yoneda

        X = ws.get("category", args.category)
        PX = presheaf_category(X, budget)
        return _built(ws, cname, X, PX, yoneda(X, PX))
    if con == "ball":
        from .ball import ball_category, ball_unit

        X = ws.get("category", args.category)
        BX = ball_category(X, not args.plain)
        return _built(ws, cname, X, BX, ball_unit(X, BX))
    if con == "submonad":
        from .monadkit import submonad_category, submonad_monad

        X = ws.get("category", args.category)
        spec = ws.get("spec", args.spec)
        TX = submonad_category(spec, X, budget)
        return _built(ws, cname, X, TX, submonad_monad(spec, budget).unit(X))
    if con == "colimit":
        from .colimit import weighted_colimit
        from .dist import validate_distributor

        w = ws.get("relation", args.weight, "weight")
        f = ws.get("functor", args.diagram, "diagram")
        try:
            validate_distributor(w)
        except QuantcatError as e:
            raise PreconditionFail(
                f"weight {args.weight!r} is not a distributor: {e}")
        try:
            g = weighted_colimit(w, f)
        except NoColimit as e:
            return _check(cname, False, str(e)), {}, None
        return _check(cname, True), {"functor": g.name}, _fragment(ws, [g.dom, g.cod], [g])
    if con == "algebra":
        from .colimit import algebra_extract

        X = ws.get("category", args.category)
        spec = ws.get("spec", args.spec)
        rep = algebra_extract(X, spec, budget)
        if not rep["ok"]:
            w = ", ".join(rep["failures"]) or "unit laws failed"
            return _check(cname, False, w, detail=dict(rep, algebra=None)), {}, None
        alpha = rep["algebra"]
        return (_check(cname, True, detail={"ambiguous": rep["ambiguous"]}),
                {"functor": alpha.name},
                _fragment(ws, [alpha.dom, X], [alpha]))
    if con == "lawvere-completion":
        from .lawvere import lawvere_completion

        X = ws.get("category", args.category)
        return _built(ws, cname, X, *lawvere_completion(X, budget))
    if con == "cauchy-pair":
        from .lawvere import cauchy_pair

        X, seq = ws.get("sequence", args.sequence)
        pair, label = cauchy_pair(X, seq)
        return (_check(cname, True, detail={"representative": label}),
                {"representative": label,
                 "unit": str(pair.unit),
                 "phi": [str(row[0]) for row in pair.phi.matrix],
                 "psi": [str(v) for v in pair.psi.matrix[0]]},
                None)
    raise UsageError(f"unknown construction {con!r}")


def _run_validate(ws):
    checks = [_check(f"{kind}:{name}", (kind, name) not in ws.failures,
                     ws.failures.get((kind, name)))
              for kind, name in ws.order]
    return checks or [_check("workspace", True, detail={"records": 0})]


# ------------------------------------------------------------------ reports

def _render_text(report):
    lines = [report["command"]]
    for c in report["checks"]:
        line = f"{c['verdict'].upper():9s} {c['name']}"
        if c.get("witness"):
            line += f"  witness={c['witness']}"
        if c.get("reason"):
            line += f"  reason={c['reason']}"
        lines.append(line)
    for key, value in (report.get("outputs") or {}).items():
        lines.append(f"{key} = {value}")
    if "workspace" in report:
        n = sum(len(v) for v in report["workspace"].values())
        lines.append(f"emitted {n} records; use --format json to capture them")
    return "\n".join(lines)


def _exit_code(checks):
    verdicts = {c["verdict"] for c in checks}
    if "fail" in verdicts:
        return 1
    if "unchecked" in verdicts:
        return 3
    return 0


def _target_tokens(args):
    parts = [getattr(args, a) for a in _TARGETS if getattr(args, a, None)]
    if getattr(args, "plain", False):
        parts.append("plain")
    return ",".join(parts)


def _reads_plain(args):
    """Whether a check or compute runs a ball variant, which --plain picks."""
    if args.command == "compute":
        return args.construction == "ball"
    return args.property in ("tensored", "ball-algebra") or (
        args.property == "lax-idempotent" and args.monad == "ball")


def _refuse_unread_flags(args):
    """UsageError for a flag the command would ignore: --plain where it
    runs no ball variant, or a target flag (or --monad) it does not read."""
    if getattr(args, "plain", False) and not _reads_plain(args):
        raise UsageError("--plain picks a ball variant, and this command runs none")
    if args.command in ("check", "compute"):
        checking = args.command == "check"
        what = args.property if checking else args.construction
        reads = (PROPERTIES if checking else CONSTRUCTIONS)[what]
        for flag in _TARGETS + ("monad",):
            if getattr(args, flag) is not None and flag not in reads:
                raise UsageError(f"{args.command} {what} reads no --{flag}")


def run(args, argv):
    """Dispatch one parsed command; returns (report, exit_code)."""
    if args.budget < 0:
        raise UsageError(f"--budget is at least 0, not {args.budget}")
    _refuse_unread_flags(args)
    command = " ".join(["quantcat"] + list(argv))
    report = {"command": command, "budget": args.budget}
    outputs, fragment = {}, None
    if args.command == "selftest":
        from .selftest import run_selftest

        checks = _jsonable(run_selftest(args.budget))
    else:
        if args.workspace is None:
            raise UsageError(f"{args.command} needs --workspace")
        ws = parse_workspace(args.workspace)
        if args.command == "validate":
            checks = _run_validate(ws)
        else:
            checking = args.command == "check"
            cname = (f"{args.property if checking else args.construction}"
                     f"[{_target_tokens(args)}]")
            try:
                if checking:
                    check = _run_check(ws, args, cname)
                else:
                    check, outputs, fragment = _run_compute(ws, args, cname)
            except BudgetExceeded as e:
                check = _unchecked(cname, str(e))
            checks = [check]
    report["checks"] = checks
    if outputs:
        report["outputs"] = _jsonable(outputs)
    if fragment is not None:
        report["workspace"] = fragment
    return report, _exit_code(checks)


# --------------------------------------------------------------------- main

def _parser():
    p = argparse.ArgumentParser(
        prog="quantcat",
        description="exact checks and constructions for quantale-enriched "
                    "categories, from a JSON workspace")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--workspace", help="path to the JSON workspace")
        sp.add_argument("--format", choices=("text", "json"), default="text")
        sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                        help="enumeration ceiling, at least 0 (default 10^6)")

    def targets(sp):
        for flag in _TARGETS:
            sp.add_argument(f"--{flag}")
        sp.add_argument("--plain", action="store_true",
                        help="plain ball variant (radii above bottom)")
        sp.add_argument("--monad", choices=("presheaf", "ball"))

    common(sub.add_parser("validate", help="build and check every record"))
    sp = sub.add_parser("check", help="decide one property")
    sp.add_argument("property", choices=PROPERTIES)
    common(sp)
    targets(sp)
    sp = sub.add_parser("compute", help="emit one construction")
    sp.add_argument("construction", choices=CONSTRUCTIONS)
    common(sp)
    targets(sp)
    sp = sub.add_parser("complete", help="alias for compute lawvere-completion")
    sp.add_argument("what", choices=("lawvere",))
    common(sp)
    targets(sp)
    common(sub.add_parser("selftest", help="run the built-in battery"))
    return p


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _parser().parse_args(argv)
    if args.command == "complete":
        args.command = "compute"
        args.construction = "lawvere-completion"
    try:
        report, code = run(args, argv)
    except QuantcatError as e:
        message = f"{type(e).__name__}: {e}"
        if getattr(args, "format", "text") == "json":
            print(json.dumps({"command": " ".join(["quantcat"] + argv),
                              "error": message}, indent=2, sort_keys=True))
        else:
            print(f"error: {message}", file=sys.stderr)
        return 4 if isinstance(e, InternalError) else 2
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(_render_text(report))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
