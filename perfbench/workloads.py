"""Seeded workloads for the quantcat benchmark, with independent references.

Each workload is a fixed list of CLI requests plus the workspace they
read.  The seed only changes the generated inputs (object labels, metric
weights); the shapes, and so the amount of work, are fixed per workload.
Every request carries a check that compares the CLI's report with an
answer the harness works out on its own, never by calling quantcat.
A timed workload has an odd number of requests, so that the median of
all its request times falls inside one request's times rather than in
the gap between two.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

# Verdict lines of `quantcat selftest`; the battery reproduces these twelve.
CRITERIA_COUNT = 12


@dataclass
class Request:
    """One `python -m quantcat.cli` invocation and how to judge its output.

    `check(code, stdout)` returns None when the report matches the
    reference, else a one-line reason.
    """

    name: str
    argv: list
    why: str
    check: Callable[[int, bytes], str | None]


@dataclass
class Probe:
    """A robustness request run under a hard timeout, kept out of latency."""

    name: str
    argv: list
    why: str
    expect_exit: int
    timeout_s: float


@dataclass
class Workload:
    name: str
    requests: list
    probes: list = field(default_factory=list)
    files: dict = field(default_factory=dict)  # workspace path -> document


# ------------------------------------------------------------------ checks

def _report(code, out, want_code):
    """Parse a JSON report, or return a failure reason as a string."""
    if code != want_code:
        return f"exit {code}, want {want_code}"
    try:
        return json.loads(out)
    except ValueError:
        return "stdout is not a JSON report"


def _verdicts(want_code, want_verdicts, detail=None):
    """Check exit code, the verdict list, and selected detail entries."""
    def check(code, out):
        rep = _report(code, out, want_code)
        if isinstance(rep, str):
            return rep
        got = [c["verdict"] for c in rep.get("checks", ())]
        if got != want_verdicts:
            return f"verdicts {got}, want {want_verdicts}"
        for key, want in (detail or {}).items():
            have = (rep["checks"][0].get("detail") or {}).get(key)
            if have != want:
                return f"detail {key}={have!r}, want {want!r}"
        return None
    return check


def _witness_names(labels):
    """A failing check whose witness names every label in `labels`."""
    def check(code, out):
        rep = _report(code, out, 1)
        if isinstance(rep, str):
            return rep
        checks = rep.get("checks", ())
        if [c["verdict"] for c in checks] != ["fail"]:
            return "want a single fail verdict"
        witness = checks[0].get("witness") or ""
        missing = [lab for lab in labels if lab not in witness]
        return f"witness does not name {missing}" if missing else None
    return check


def _labels(rng, prefix, n):
    """n distinct fixed-width labels; the seed picks them."""
    picked = rng.sample(range(36 ** 3), n)
    return [prefix + _base36(v) for v in picked]


def _base36(v):
    digits = "0123456789abcdefghijklmnopqrstuvwxyz"
    return "".join(digits[(v // 36 ** p) % 36] for p in (2, 1, 0))


def _cli(args, workspace):
    return [*args, "--workspace", workspace]


# ----------------------------------------------------------------- battery

def battery(seed, workspace_path):
    """The paper's twelve-criterion battery.  It takes no input, so the
    seed has nothing to vary; the paper fixes the battery's own seed."""
    del seed, workspace_path
    req = Request(
        "selftest", ["selftest", "--format", "json"],
        "paper-reproduction path; finite-table quantale ops in C2 and C3 dominate",
        _verdicts(0, ["pass"] * CRITERIA_COUNT))
    return Workload("battery", [req])


# --------------------------------------------------------------- enumerate

def _chain(n):
    """The n-chain: a(i,j) = 1 when i <= j, else 0."""
    return [["1" if i <= j else "0" for j in range(n)] for i in range(n)]


def _discrete(n):
    return [["1" if i == j else "0" for j in range(n)] for i in range(n)]


def enumerate_(seed, ws):
    """Requests over finite quantales.

    No request takes much over a second on a quiet host, so that a run
    holds ten passes or more and its medians are steady on a shared host.
    """
    rng = random.Random(seed)
    cats = [
        # (name, quantale, size, hom builder)
        ("chain8", "G2", 8, _chain),
        ("disc7", "B", 7, _discrete),
        ("chain16", "L4", 16, _chain),
        ("disc3", "G3", 3, _discrete),
        ("chain12", "B", 12, _chain),
        ("disc5", "G3", 5, _discrete),
    ]
    doc = {
        "quantales": [{"name": "B", "kind": "boolean2"},
                      {"name": "G2", "kind": "goedel_chain", "n": 2},
                      {"name": "G3", "kind": "goedel_chain", "n": 3},
                      {"name": "L4", "kind": "lukasiewicz_chain", "n": 4}],
        "categories": [],
    }
    for i, (name, q, n, hom) in enumerate(cats):
        doc["categories"].append({"name": name, "quantale": q,
                                  "objects": _labels(rng, "abcdef"[i], n),
                                  "hom": hom(n)})
    records = len(doc["quantales"]) + len(doc["categories"])
    reqs = [
        Request("presheaf-chain",
                _cli(["compute", "presheaf", "--category", "chain8", "--format", "json"], ws),
                "keeps 45 of 3^8 candidates; is_presheaf filtering takes about 70% "
                "(output-sensitive enumeration should move it)",
                # antitone maps from an 8-chain to a 3-chain: C(8+2, 8)
                _verdicts(0, ["pass"], {"objects": math.comb(8 + 2, 8)})),
        Request("presheaf-discrete",
                _cli(["compute", "presheaf", "--category", "disc7", "--format", "json"], ws),
                "keeps all 2^7 candidates; the presheaf_hom matrix takes about 85% "
                "(enumeration changes should not move it)",
                _verdicts(0, ["pass"], {"objects": 2 ** 7})),
        Request("ball-chain",
                _cli(["compute", "ball", "--category", "chain16", "--format", "json"], ws),
                "cheap construction, render-heavy report",
                # extended balls: one per (object, radius)
                _verdicts(0, ["pass"], {"objects": 16 * 5})),
        Request("lawvere-discrete",
                _cli(["complete", "lawvere", "--category", "disc3", "--format", "json"], ws),
                "exercises enumerate_L's candidate-left-adjoint search",
                # over a chain, a right-adjoint presheaf on a discrete category
                # is representable, so L(disc3) has exactly 3 objects
                _verdicts(0, ["pass"], {"objects": 3})),
        Request("lax-idempotent",
                _cli(["check", "lax-idempotent", "--category", "chain12", "--format", "json"], ws),
                "presheaf monad tower P, PP and the multiplication; the monad is "
                "lax idempotent by theorem",
                _verdicts(0, ["pass"], {"lax_idempotent": True, "routes_agree": True})),
        Request("separated",
                _cli(["check", "separated", "--category", "chain16", "--format", "json"], ws),
                "the cheap check rational also times, here over a finite table; "
                "a chain's distinct objects are never isomorphic",
                _verdicts(0, ["pass"])),
        Request("validate", _cli(["validate", "--format", "json"], ws),
                "parses and validates every record of the workspace",
                _verdicts(0, ["pass"] * records)),
    ]
    probes = [
        Probe("l-complete-budget",
              _cli(["check", "l-complete", "--category", "disc5", "--budget", "2000",
                    "--format", "json"], ws),
              "--budget must bound enumerate_L and answer unchecked (exit 3)",
              expect_exit=3, timeout_s=3.0),
    ]
    return Workload("enumerate", reqs, probes, {ws: doc})


# ---------------------------------------------------------------- rational

# sized so that no request takes much over a second on a quiet host
RATIONAL_POINTS = 30
SUBSPACE_POINTS = 15
PRODUCT_POINTS = 20


def _closure(n, weight):
    """Floyd-Warshall shortest paths: d(i,j) = min over paths of summed weights."""
    d = [[0 if i == j else weight(i, j) for j in range(n)] for i in range(n)]
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            row = d[i]
            for j in range(n):
                via = dik + dk[j]
                if via < row[j]:
                    row[j] = via
    return d


def _metric(rng, n):
    """A seeded asymmetric Lawvere metric with positive distances."""
    weights = [[Fraction(rng.randint(2, 40), 4) for _ in range(n)] for _ in range(n)]
    return _closure(n, lambda i, j: weights[i][j])


def _is_distributor(dx, phi):
    """First (x, y) where phi escapes the domain action, else None.

    Over ext_real_plus the law a(x,z) + phi(z,y) >= phi(x,y) is numeric.
    """
    n = len(dx)
    for x in range(n):
        for y in range(n):
            if any(dx[x][z] + phi[z][y] < phi[x][y] for z in range(n)):
                return (x, y)
    return None


def _is_codistributor(dx, phi):
    n = len(dx)
    for x in range(n):
        for y in range(n):
            if any(phi[x][z] + dx[z][y] < phi[x][y] for z in range(n)):
                return (x, y)
    return None


def _rows(m):
    return [[str(v) for v in row] for row in m]


def rational(seed, ws):
    rng = random.Random(seed)
    n, ns, nu = RATIONAL_POINTS, SUBSPACE_POINTS, PRODUCT_POINTS
    dx = _metric(rng, n)
    xs = _labels(rng, "p", n)

    # S: an induced subspace, so the inclusion is fully faithful
    sub = sorted(rng.sample(range(n), ns))
    ss = [xs[i] for i in sub]
    ds = [[dx[i][j] for j in sub] for i in sub]
    if any(ds[a][b] != dx[sub[a]][sub[b]] for a in range(ns) for b in range(ns)):
        raise AssertionError("subspace is not induced")

    # Y: X relabelled along a permutation; f and its inverse g are adjoint
    perm = list(range(n))
    rng.shuffle(perm)
    ys = _labels(rng, "q", n)
    inv = [0] * n
    for i, p in enumerate(perm):
        inv[p] = i
    dy = [[dx[inv[a]][inv[b]] for b in range(n)] for a in range(n)]
    if any(dx[i][inv[b]] != dy[perm[i]][b] for i in range(n) for b in range(n)):
        raise AssertionError("X(x, g y) = Y(f x, y) fails for the relabelling")

    # phi(x,y) = min_k d(x,p_k) + w_k + d(q_k,y) is a distributor X ⇸ X
    hubs = [(rng.randrange(n), Fraction(rng.randint(0, 8), 4), rng.randrange(n))
            for _ in range(3)]
    phi = [[min(dx[x][p] + w + dx[q][y] for p, w, q in hubs) for y in range(n)]
           for x in range(n)]
    if _is_distributor(dx, phi) or _is_codistributor(dx, phi):
        raise AssertionError("reference distributor fails its own laws")
    # lifting one entry above every path through another point breaks the
    # domain action exactly there, and nowhere else
    x0, y0 = rng.randrange(n), rng.randrange(n)
    bad = [row[:] for row in phi]
    bad[x0][y0] += 2 * max(map(max, dx)) + 2 * max(map(max, phi)) + 1
    if _is_distributor(dx, bad) != (x0, y0):
        raise AssertionError("the perturbed relation does not fail at its entry")

    # U over unit_interval_product: hom 2^-d for an integer metric d
    steps = _closure(nu, lambda i, j: rng.randint(1, 3))
    us = _labels(rng, "u", nu)
    du = [[Fraction(1, 2 ** steps[i][j]) for j in range(nu)] for i in range(nu)]

    # an eventually constant sequence converges to its stable point
    walk = [rng.randrange(n) for _ in range(6)]
    lim = rng.randrange(n)
    points = [xs[i] for i in walk] + [xs[lim]] * 3

    doc = {
        "quantales": [{"name": "R", "kind": "ext_real_plus"},
                      {"name": "P", "kind": "unit_interval_product"}],
        "categories": [
            {"name": "X", "quantale": "R", "objects": xs, "hom": _rows(dx)},
            {"name": "S", "quantale": "R", "objects": ss, "hom": _rows(ds)},
            {"name": "Y", "quantale": "R", "objects": ys, "hom": _rows(dy)},
            {"name": "U", "quantale": "P", "objects": us, "hom": _rows(du)},
        ],
        "functors": [
            {"name": "incl", "dom": "S", "cod": "X",
             "mapping": {xs[i]: xs[i] for i in sub}},
            {"name": "f", "dom": "X", "cod": "Y",
             "mapping": {xs[i]: ys[perm[i]] for i in range(n)}},
            {"name": "g", "dom": "Y", "cod": "X",
             "mapping": {ys[b]: xs[inv[b]] for b in range(n)}},
        ],
        "relations": [
            {"name": "phi", "dom": "X", "cod": "X", "matrix": _rows(phi)},
            {"name": "phi_bad", "dom": "X", "cod": "X", "matrix": _rows(bad)},
        ],
        "sequences": [{"name": "seq", "category": "X", "points": points,
                       "stable_from": 6}],
    }
    records = sum(len(v) for v in doc.values())
    separated = all(dx[i][j] > 0 or dx[j][i] > 0
                    for i in range(n) for j in range(i + 1, n))

    def cauchy(code, out):
        rep = _report(code, out, 0)
        if isinstance(rep, str):
            return rep
        got = rep.get("outputs") or {}
        want = {"representative": xs[lim],
                "phi": [str(dx[x][lim]) for x in range(n)],
                "psi": [str(v) for v in dx[lim]]}
        bad_keys = [k for k, v in want.items() if got.get(k) != v]
        return f"cauchy pair differs in {bad_keys}" if bad_keys else None

    reqs = [
        Request("validate", _cli(["validate", "--format", "json"], ws),
                "O(n^3) Fraction validation of every category in parse_workspace",
                _verdicts(0, ["pass"] * records)),
        Request("separated",
                _cli(["check", "separated", "--category", "X", "--format", "json"], ws),
                "cheap check, so parsing dominates",
                _verdicts(0 if separated else 1, ["pass" if separated else "fail"])),
        Request("fully-faithful",
                _cli(["check", "fully-faithful", "--functor", "incl", "--format", "json"], ws),
                "inclusion of an induced subspace",
                _verdicts(0, ["pass"])),
        Request("adjunction",
                _cli(["check", "adjunction", "--functor", "f", "--adjoint", "g",
                      "--format", "json"], ws),
                "an isometry and its inverse: X(x, g y) = Y(f x, y) everywhere",
                _verdicts(0, ["pass"])),
        Request("distributor",
                _cli(["check", "distributor", "--relation", "phi", "--format", "json"], ws),
                "two O(n^3) sup-tensor compositions in Fractions",
                _verdicts(0, ["pass"])),
        Request("distributor-bad",
                _cli(["check", "distributor", "--relation", "phi_bad", "--format", "json"], ws),
                "one lifted entry must fail with a witness at that entry",
                _witness_names([xs[x0], xs[y0]])),
        Request("cauchy-pair",
                _cli(["compute", "cauchy-pair", "--sequence", "seq", "--format", "json"], ws),
                "limit of an eventually constant sequence: the stable point's columns",
                cauchy),
    ]
    probes = [
        Probe("hom-row-not-list",
              ["validate", "--format", "json", "--workspace", ws + ".bad"],
              "malformed input must exit 2 without a traceback",
              expect_exit=2, timeout_s=10.0),
    ]
    # the probe's workspace: one hom row replaced by a number
    malformed = json.loads(json.dumps(doc))
    malformed["categories"][0]["hom"][1] = 7
    return Workload("rational", reqs, probes, {ws: doc, ws + ".bad": malformed})


MAKERS = {"battery": battery, "enumerate": enumerate_, "rational": rational}
WORKLOADS = tuple(MAKERS)


def build(name, seed, workspace_path):
    """The workload `name` for `seed`; its workspace lives at `workspace_path`."""
    return MAKERS[name](seed, workspace_path)
