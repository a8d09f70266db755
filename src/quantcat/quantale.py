"""Commutative unital quantales with exact element arithmetic.

Finite quantales are validated exhaustively and store lookup tables for
tensor, residuation and the lattice operations.  Three infinite rational
families (extended nonnegative reals under truncated addition, the unit
interval under multiplication, and the unit interval under the Lukasiewicz
tensor) are provided with closed-form operations; they are flagged
non-enumerable and every downstream construction that would have to
enumerate the carrier refuses them.

No floating point is used anywhere: scalars are `fractions.Fraction`
values, opaque labels (user-supplied finite tables), or the single
infinity sentinel `INF`.

Each carrier element of a finite quantale carries its position in the
carrier as `QElem.index`, which eq and hash ignore, so `leq`, `tensor`,
`hom`, `join2` and `meet2` on a finite quantale are plain lookups in
tables indexed by it.  Ownership is checked by comparing the element's
`owner` with the quantale's key, never by hashing the element.

`Quantale.coded` is the one matrix kernel: it codes a family of matrices as
integers (carrier indices, or the values over one common denominator) and
runs on them the transitivity and order checks, every sup-tensor ⋁ a⊗b
and every inf-hom ⋀ hom(a,b).
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import chain, count
from math import lcm
from operator import add, attrgetter, getitem, gt, lshift, lt, mul, sub

from .errors import (
    BadParameter,
    ForeignElement,
    InternalError,
    JoinsNotPreserved,
    NotALattice,
    NotUnital,
    TensorNotAssociative,
    TensorNotCommutative,
    UnitIsBottom,
)


class _Infinity:
    """The point at infinity of the extended nonnegative rationals.

    Compares strictly above every Fraction; adding anything to it gives
    it back.  A singleton, so identity comparison is safe.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __repr__(self):
        return "inf"

    def __reduce__(self):
        return (_Infinity, ())


INF = _Infinity()


def show_value(value) -> str:
    """Canonical display form: '3/4', '2', 'inf', or the opaque label."""
    if value is INF:
        return "inf"
    return str(value)


class Record:
    """An immutable record, as `dataclass(frozen=True)` writes one, without
    importing `dataclasses` at start-up.

    The fields are the parameters of the subclass's `__init__`, which
    stores each with `object.__setattr__`, as the generated one did: the
    values then sit in the instance, with no per-instance dict, and read
    as fast as plain attributes.  Two records are equal when they are of
    one class and their fields are equal, the hash is that of the field
    tuple, and assigning or deleting any attribute raises AttributeError.
    A memo (`VCategory`'s hash) or an override of a class-level default
    (`QElem.index`) is written with `object.__setattr__` too.
    """

    def __init_subclass__(cls):
        init = cls.__init__.__code__
        cls._fields = init.co_varnames[1:init.co_argcount]
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class QElem(Record):
    """An element of a specific quantale.

    `owner` is a structural key of the owning quantale, so elements of two
    identically-built quantales are interchangeable, while mixing elements
    across genuinely different quantales raises ForeignElement.

    `index` is the element's position in the carrier of a finite quantale.
    It is a class attribute, not a field, so eq and hash ignore it and no
    element pays for it at construction: only the carrier elements of a
    finite quantale set it, once, when the quantale is built.  Every other
    element (those of the rational kinds, or one built by hand as
    `QElem(key, value)`) has index None; `Quantale.check` swaps a
    hand-built finite element for the carrier element it equals.

    The hot path: eq and hash are written out, not the generic `Record`
    ones.
    """

    index = None  # int on carrier elements of a finite quantale

    def __init__(self, owner: str, value):  # value: Fraction | INF | str label
        object.__setattr__(self, "owner", owner)
        object.__setattr__(self, "value", value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.owner == other.owner and self.value == other.value
        return NotImplemented

    def __hash__(self):
        return hash((self.owner, self.value))

    def __str__(self):
        return show_value(self.value)

    def __repr__(self):
        return f"QElem({show_value(self.value)})"


class QuantaleFlags(Record):
    def __init__(self, integral: bool, cancellative: bool, method: str,
                 witness: tuple | None = None):
        # method: "exhaustive" | "analytic"; witness: (r, s) with
        # r = s⊗r, s ≠ k, r ≠ ⊥
        object.__setattr__(self, "integral", integral)
        object.__setattr__(self, "cancellative", cancellative)
        object.__setattr__(self, "method", method)
        object.__setattr__(self, "witness", witness)


_RATIONAL_KINDS = ("ext_real_plus", "unit_interval_product", "lukasiewicz_rational")


class Quantale:
    """A validated commutative unital quantale.

    Immutable after construction; all operations are pure.  Use
    `make_finite_quantale` or `builtin` to obtain instances.
    """

    def __init__(self, *, name, kind, param, key, carrier_values, leq_set,
                 tensor_table, unit_value):
        self.name = name
        self.kind = kind
        self.param = param
        self.key = key
        self.enumerable = carrier_values is not None
        if self.enumerable:
            self.carrier = tuple(QElem(key, v) for v in carrier_values)
            for i, e in enumerate(self.carrier):
                object.__setattr__(e, "index", i)
            self._by_value = {e.value: e for e in self.carrier}
            n = len(self.carrier)
            self._leq = tuple(tuple((i, j) in leq_set for j in range(n))
                              for i in range(n))
            self._tensor = tensor_table
            self._validate_finite(unit_value)
        else:
            self.carrier = None
            self.unit = QElem(key, unit_value)
            self.bottom = QElem(key, INF if kind == "ext_real_plus" else Fraction(0))
            self.top = QElem(key, Fraction(0) if kind == "ext_real_plus" else Fraction(1))

    # ----- construction-time validation (finite kinds) -----

    def _validate_finite(self, unit_value):
        n = len(self.carrier)
        leq, tens = self._leq, self._tensor
        vals = [e.value for e in self.carrier]

        def disp(i):
            return show_value(vals[i])

        for i in range(n):
            for j in range(n):
                if i != j and leq[i][j] and leq[j][i]:
                    raise NotALattice(
                        f"order is not antisymmetric: {disp(i)} <= {disp(j)} <= {disp(i)}")

        # pairwise least upper / greatest lower bounds
        join_t = [[None] * n for _ in range(n)]
        meet_t = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                ubs = [m for m in range(n) if leq[i][m] and leq[j][m]]
                least = [u for u in ubs if all(leq[u][m] for m in ubs)]
                if not least:
                    raise NotALattice(f"no least upper bound for {{{disp(i)}, {disp(j)}}}")
                join_t[i][j] = least[0]
                lbs = [m for m in range(n) if leq[m][i] and leq[m][j]]
                greatest = [l for l in lbs if all(leq[m][l] for m in lbs)]
                if not greatest:
                    raise NotALattice(f"no greatest lower bound for {{{disp(i)}, {disp(j)}}}")
                meet_t[i][j] = greatest[0]
        self._join_t = join_t
        self._meet_t = meet_t

        bot = 0
        top = 0
        for m in range(n):
            bot = meet_t[bot][m]
            top = join_t[top][m]

        for i in range(n):
            for j in range(i + 1, n):
                if tens[i][j] != tens[j][i]:
                    raise TensorNotCommutative(
                        f"{disp(i)} ⊗ {disp(j)} = {disp(tens[i][j])} but "
                        f"{disp(j)} ⊗ {disp(i)} = {disp(tens[j][i])}")
        for i in range(n):
            for j in range(n):
                for m in range(n):
                    if tens[tens[i][j]][m] != tens[i][tens[j][m]]:
                        raise TensorNotAssociative(
                            f"({disp(i)} ⊗ {disp(j)}) ⊗ {disp(m)} ≠ "
                            f"{disp(i)} ⊗ ({disp(j)} ⊗ {disp(m)})")

        u = self._by_value[unit_value].index
        for i in range(n):
            if tens[i][u] != i:
                raise NotUnital(f"{disp(i)} ⊗ {disp(u)} = {disp(tens[i][u])} ≠ {disp(i)}")
        if u == bot:
            raise UnitIsBottom(f"unit {disp(u)} is the bottom element")

        for i in range(n):
            if tens[i][bot] != bot:
                raise JoinsNotPreserved(
                    f"{disp(i)} ⊗ ⊥ = {disp(tens[i][bot])} ≠ ⊥ (empty join)")
            for j in range(n):
                for m in range(n):
                    lhs = tens[i][join_t[j][m]]
                    rhs = join_t[tens[i][j]][tens[i][m]]
                    if lhs != rhs:
                        raise JoinsNotPreserved(
                            f"{disp(i)} ⊗ ({disp(j)} ∨ {disp(m)}) = {disp(lhs)} but "
                            f"({disp(i)} ⊗ {disp(j)}) ∨ ({disp(i)} ⊗ {disp(m)}) = {disp(rhs)}")

        # residuation, derived: hom(u,w) = ⋁ { v : u⊗v ≤ w }
        hom_t = [[None] * n for _ in range(n)]
        for i in range(n):
            for w in range(n):
                h = bot
                for v in range(n):
                    if leq[tens[i][v]][w]:
                        h = join_t[h][v]
                hom_t[i][w] = h
        self._hom_t = hom_t

        for i in range(n):
            for v in range(n):
                for w in range(n):
                    if leq[tens[i][v]][w] != leq[v][hom_t[i][w]]:
                        raise InternalError(
                            "residuation adjunction failed on a validated quantale")

        self.unit = self.carrier[u]
        self.bottom = self.carrier[bot]
        self.top = self.carrier[top]

    # ----- element handling -----

    def elem(self, value) -> QElem:
        """Wrap a raw value (or label) as an element of this quantale."""
        if self.enumerable:
            if isinstance(value, int) and not isinstance(value, bool):
                value = Fraction(value)
            e = self._by_value.get(value)
            if e is None:
                raise ForeignElement(f"{show_value(value)} is not in the carrier of {self.name}")
            return e
        if isinstance(value, int):
            value = Fraction(value)
        if value is INF:
            if self.kind != "ext_real_plus":
                raise ForeignElement(f"inf is not an element of {self.name}")
            return QElem(self.key, INF)
        if not isinstance(value, Fraction):
            raise ForeignElement(f"{value!r} is not an exact rational")
        if self.kind == "ext_real_plus":
            if value < 0:
                raise ForeignElement(f"{value} is negative")
        else:
            if not (0 <= value <= 1):
                raise ForeignElement(f"{value} is outside [0, 1]")
        return QElem(self.key, value)

    def check(self, e: QElem) -> QElem:
        """`e` if it belongs to this quantale, else ForeignElement.

        A finite element built by hand, without its index, comes back as
        the carrier element it equals, so that the ops can look it up."""
        if type(e) is QElem and e.owner == self.key:
            if e.index is not None or not self.enumerable:
                return e
            c = self._by_value.get(e.value)
            if c is not None:
                return c
        raise ForeignElement(f"{e!r} does not belong to quantale {self.name}")

    # ----- core operations -----
    # Each op tests ownership inline and calls `check`, which raises
    # ForeignElement, only when that test fails.  On a finite quantale the
    # op is then a lookup in a table indexed by `QElem.index`; a hand-built
    # element, whose index is None, is first swapped for its carrier element.

    def leq(self, u: QElem, v: QElem) -> bool:
        key = self.key
        if not (type(u) is QElem and u.owner == key and type(v) is QElem and v.owner == key):
            self.check(u), self.check(v)
        if self.enumerable:
            try:
                return self._leq[u.index][v.index]
            except TypeError:  # a hand-built element: index None
                return self.leq(self.check(u), self.check(v))
        if self.kind == "ext_real_plus":
            return u.value >= v.value  # quantale order is reversed
        return u.value <= v.value

    def tensor(self, u: QElem, v: QElem) -> QElem:
        key = self.key
        if not (type(u) is QElem and u.owner == key and type(v) is QElem and v.owner == key):
            self.check(u), self.check(v)
        if self.enumerable:
            try:
                return self.carrier[self._tensor[u.index][v.index]]
            except TypeError:  # a hand-built element: index None
                return self.tensor(self.check(u), self.check(v))
        a, b = u.value, v.value
        if self.kind == "ext_real_plus":
            return QElem(key, a + b)
        if self.kind == "unit_interval_product":
            return QElem(key, a * b)
        s = a + b - 1  # lukasiewicz_rational
        return QElem(key, s if s > 0 else Fraction(0))

    def hom(self, u: QElem, w: QElem) -> QElem:
        key = self.key
        if not (type(u) is QElem and u.owner == key and type(w) is QElem and w.owner == key):
            self.check(u), self.check(w)
        if self.enumerable:
            try:
                return self.carrier[self._hom_t[u.index][w.index]]
            except TypeError:  # a hand-built element: index None
                return self.hom(self.check(u), self.check(w))
        a, b = u.value, w.value
        if self.kind == "ext_real_plus":
            if a is INF:
                return QElem(key, Fraction(0))
            if b is INF:
                return QElem(key, INF)
            d = b - a
            return QElem(key, d if d > 0 else Fraction(0))
        if self.kind == "unit_interval_product":
            if a == 0:
                return QElem(key, Fraction(1))
            return QElem(key, min(Fraction(1), b / a))
        r = 1 - a + b  # lukasiewicz_rational
        return QElem(key, r if r < 1 else Fraction(1))

    def join2(self, u: QElem, v: QElem) -> QElem:
        key = self.key
        if not (type(u) is QElem and u.owner == key and type(v) is QElem and v.owner == key):
            self.check(u), self.check(v)
        if self.enumerable:
            try:
                return self.carrier[self._join_t[u.index][v.index]]
            except TypeError:  # a hand-built element: index None
                return self.join2(self.check(u), self.check(v))
        if self.kind == "ext_real_plus":
            return u if u.value <= v.value else v  # numeric min
        return u if u.value >= v.value else v

    def meet2(self, u: QElem, v: QElem) -> QElem:
        key = self.key
        if not (type(u) is QElem and u.owner == key and type(v) is QElem and v.owner == key):
            self.check(u), self.check(v)
        if self.enumerable:
            try:
                return self.carrier[self._meet_t[u.index][v.index]]
            except TypeError:  # a hand-built element: index None
                return self.meet2(self.check(u), self.check(v))
        if self.kind == "ext_real_plus":
            return u if u.value >= v.value else v  # numeric max
        return u if u.value <= v.value else v

    def join(self, elems) -> QElem:
        """Join of a finite family; the empty join is the bottom element."""
        return reduce(self.join2, elems, self.bottom)

    def meet(self, elems) -> QElem:
        """Meet of a finite family; the empty meet is the top element."""
        return reduce(self.meet2, elems, self.top)

    def coded(self, *matrices) -> "Coded":
        """A family of matrices over this quantale, coded as integers: the
        one kernel of the transitivity and order checks, of every
        sup-tensor ⋁ a⊗b and of every inf-hom ⋀ hom(a,b)."""
        return _CODED.get(self.kind, _FiniteCoded)(self, matrices)

    # ----- predicates -----

    def flags(self) -> QuantaleFlags:
        integral = self.unit == self.top
        if self.enumerable:
            for r in self.carrier:
                if r == self.bottom:
                    continue
                for s in self.carrier:
                    if self.tensor(s, r) == r and s != self.unit:
                        return QuantaleFlags(integral, False, "exhaustive", (r, s))
            return QuantaleFlags(integral, True, "exhaustive")
        # each rational family is cancellative: r = s⊗r with r ≠ ⊥ forces
        # s + r = r (truncated addition, r finite), s·r = r (product, r > 0),
        # or s + r - 1 = r (Lukasiewicz, r > 0), hence s = k in every case
        return QuantaleFlags(integral, True, "analytic")

    # ----- identity, display -----

    def __eq__(self, other):
        return isinstance(other, Quantale) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"Quantale({self.name})"


_INDEX, _OWNER, _VALUE = attrgetter("index"), attrgetter("owner"), attrgetter("value")


class Coded:
    """A family of matrices over one quantale, every entry read as an integer.

    `codes[a]` is matrix a of the family in its kind's codes (`_code`),
    chosen so that the order and the tensor are integer arithmetic or
    table lookups.  Each kind gives two row tests, `_rows_leq` (every
    entry of one row below the paired entry of another) and
    `_row_transitive` (p ⊗ qₘ ≤ rₘ for every m), and the join of a row of
    tensors, `_join_tensor`, or meet of homs, `_meet_hom`, read by `_decode`.
    Each runs at C speed, as `map` over `operator` functions.  Only a row
    known to fail is then scanned entry by entry, with the same test on
    one-entry slices, so every witness is the first one in scan order.
    """

    def __init__(self, q: Quantale, matrices):
        self.q = q
        entries = chain.from_iterable(chain.from_iterable(matrices))
        try:
            owned = {*map(_OWNER, entries)} <= {q.key}
        except AttributeError:  # not a QElem
            owned = False
        if not owned:  # check raises ForeignElement
            matrices = tuple(tuple(tuple(map(q.check, row)) for row in m) for m in matrices)
        self.codes = self._code(matrices)

    def escape(self, a, b):
        """The first (x, y), row-major, with a[x][y] ≰ b[x][y]; else None."""
        for x, (ra, rb) in enumerate(zip(self.codes[a], self.codes[b])):
            if not self._rows_leq(ra, rb):
                return x, next(y for y in range(len(ra))
                               if not self._rows_leq(ra[y:y + 1], rb[y:y + 1]))
        return None

    def transitivity_escape(self, a):
        """The first (i, j, m) in index order with a[i][j] ⊗ a[j][m] ≰
        a[i][m], the (T) law of a hom matrix; else None."""
        A = self.codes[a]
        for i, row_i in enumerate(A):
            for j, p in enumerate(row_i):
                if not self._row_transitive(p, A[j], row_i):
                    return i, j, next(m for m in range(len(row_i)) if not
                                      self._row_transitive(p, A[j][m:m + 1], row_i[m:m + 1]))
        return None

    def sup_tensor(self, a, b):
        """The matrix of ⋁ᵧ a[x][y] ⊗ b[z][y] over the rows x of a and z of
        b, as elements: distributor composition.  The empty join is ⊥."""
        return tuple(tuple(self._decode(self._join_tensor(ra, rb)) for rb in self.codes[b])
                     for ra in self.codes[a])

    def inf_hom(self, a, b):
        """The matrix of ⋀ᵧ hom(a[x][y], b[z][y]) over the rows x of a and
        z of b, as elements: the right extension.  The empty meet is ⊤."""
        return tuple(tuple(self._decode(self._meet_hom(ra, rb)) for rb in self.codes[b])
                     for ra in self.codes[a])


class _FiniteCoded(Coded):
    """The code of a carrier element is its index `QElem.index`, read
    inside each test, so coding copies nothing.  `sup_tensor` folds the
    join table; `inf_hom` tests residuation on down-set bitmasks."""

    def _code(self, matrices):
        if None in map(_INDEX, chain.from_iterable(chain.from_iterable(matrices))):
            # a hand-built element: check swaps it for its carrier element
            matrices = tuple(tuple(tuple(map(self.q.check, row)) for row in m)
                             for m in matrices)
        return matrices

    def _rows_leq(self, ra, rb):
        return all(map(getitem, map(self.q._leq.__getitem__, map(_INDEX, ra)),
                       map(_INDEX, rb)))

    def _row_transitive(self, p, row_q, row_r):
        q = self.q
        return all(map(getitem, map(q._leq.__getitem__, map(
            q._tensor[p.index].__getitem__, map(_INDEX, row_q))), map(_INDEX, row_r)))

    def sup_tensor(self, a, b):
        carrier, join, bot = self.q.carrier, self.q._join_t, self.q.bottom.index
        rows_b = [tuple(map(_INDEX, rb)) for rb in self.codes[b]]
        out = []
        for ra in self.codes[a]:
            rows = tuple(map(self.q._tensor.__getitem__, map(_INDEX, ra)))
            out_row = []
            for rb in rows_b:
                c = bot
                for t in set(map(getitem, rows, rb)):
                    c = join[c][t]
                out_row.append(carrier[c])
            out.append(tuple(out_row))
        return tuple(out)

    def inf_hom(self, a, b):
        """⋀ᵧ hom(a[x][y], b[z][y]) by residuation: c ≤ ã(x,z) iff
        a[x][y]⊗c ≤ b[z][y] for every y, and u ≤ v iff ↓u ⊆ ↓v.  So each
        b row is one integer of down-set masks, each pair costs one AND
        per c ≠ ⊥, and ã(x,z) is the h with ↓h the set of c that pass."""
        q, V = self.q, range(len(self.q.carrier))
        down = [sum(1 << u for u in V if q._leq[u][v]) for v in V]
        cs = [c for c in V if c != q.bottom.index]  # a⊗⊥ = ⊥ always passes
        by_passed = {tuple(q._leq[c][h] for c in cs): e for h, e in enumerate(q.carrier)}

        def packed(codes):  # the down-sets of a row, |V| bits per entry
            return sum(map(lshift, map(down.__getitem__, codes), count(0, len(V))))

        rows_b = [packed(map(_INDEX, rb)) for rb in self.codes[b]]
        tests = ([packed(map(q._tensor[c].__getitem__, map(_INDEX, ra))) for c in cs]
                 for ra in self.codes[a])
        return tuple(tuple(map(by_passed.__getitem__, zip(*(
            map(t.__eq__, map(t.__and__, rows_b)) for t in ts)))) for ts in tests)


class _RationalCoded(Coded):
    """Codes are the values times D, the least common denominator of every
    finite entry of the family; INF codes as None, which `_ExtRealCoded`
    replaces by its sentinel.  The order is the numeric one."""

    def _code(self, matrices):
        values = tuple(tuple(tuple(map(_VALUE, row)) for row in m) for m in matrices)
        D = lcm(*{v.denominator for m in values for row in m for v in row
                  if v is not INF})
        self.D = D
        return tuple(tuple(tuple(None if v is INF else v.numerator * (D // v.denominator)
                                 for v in row) for row in m) for m in values)

    def _rows_leq(self, ra, rb):
        return not any(map(gt, ra, rb))


class _ExtRealCoded(_RationalCoded):
    """[0,∞] under +, ordered by ≥: p ⊗ q ≤ r is p + q ≥ r.  INF codes as
    the sentinel S = 2·(largest finite code) + 1, which no sum of two
    finite codes reaches, so a sum is ≥ S exactly when a summand is INF."""

    def _code(self, matrices):
        codes = super()._code(matrices)
        S = 2 * max((c for m in codes for row in m for c in row if c is not None),
                    default=0) + 1
        self.S = S
        return tuple(tuple(tuple(S if c is None else c for c in row) for row in m)
                     for m in codes)

    def _rows_leq(self, ra, rb):
        return not any(map(lt, ra, rb))

    def _row_transitive(self, p, row_q, row_r):
        return max(map(sub, row_r, row_q)) <= p

    def _join_tensor(self, ra, rb):
        return min(map(add, ra, rb), default=self.S)

    def _meet_hom(self, ra, rb):
        # the max of hom(p, r) = max(r − p, 0); r − p exceeds S/2 exactly when
        # hom(p, ∞) = ∞ for a finite p, and is at most 0 when hom(∞, r) = 0
        c = max(map(sub, rb, ra), default=0)
        return self.S if 2 * c > self.S else max(c, 0)

    def _decode(self, c):
        return QElem(self.q.key, INF if c >= self.S else Fraction(c, self.D))


class _ProductCoded(_RationalCoded):
    """[0,1] under ·: p ⊗ q ≤ r is p·q ≤ r·D; composites and homs are over D²."""

    def _row_transitive(self, p, row_q, row_r):
        return not any(map(gt, map(p.__mul__, row_q), map(self.D.__mul__, row_r)))

    def _join_tensor(self, ra, rb):
        return max(map(mul, ra, rb), default=0)

    def _meet_hom(self, ra, rb):
        # the min of D²·min(1, r/p): only p > r, so p > 0, falls below D² = ⊤
        return min((Fraction(r * self.D ** 2, p) for p, r in zip(ra, rb) if p > r),
                   default=self.D ** 2)

    def _decode(self, c):
        return QElem(self.q.key, Fraction(c, self.D * self.D))


class _LukasiewiczCoded(_RationalCoded):
    """[0,1] under max(p + q − 1, 0): p ⊗ q ≤ r is p + q − D ≤ r."""

    def _row_transitive(self, p, row_q, row_r):
        return max(map(sub, row_q, row_r)) <= self.D - p

    def _join_tensor(self, ra, rb):
        return max(max(map(add, ra, rb), default=0) - self.D, 0)

    def _meet_hom(self, ra, rb):
        # the min of min(D − p + r, D)
        return self.D + min(min(map(sub, rb, ra), default=0), 0)

    def _decode(self, c):
        return QElem(self.q.key, Fraction(c, self.D))


_CODED = {"ext_real_plus": _ExtRealCoded, "unit_interval_product": _ProductCoded,
          "lukasiewicz_rational": _LukasiewiczCoded}


def _close_order(n, pairs):
    """Reflexive-transitive closure of index pairs, as a frozenset."""
    leq = {(i, i) for i in range(n)} | set(pairs)
    for k in range(n):  # Warshall: paths through 0..k
        leq |= {(i, m) for i, j in leq if j == k for j2, m in leq if j2 == k}
    return frozenset(leq)


def _structural_key(labels, leq_pairs, tensor_labels, unit_label):
    import hashlib  # only user-defined finite quantales need it

    canon = repr((tuple(labels), tuple(sorted(leq_pairs)), tuple(tensor_labels), unit_label))
    return "finite:" + hashlib.sha256(canon.encode()).hexdigest()[:12]


def make_finite_quantale(name, carrier, leq, tensor, unit) -> Quantale:
    """Build and exhaustively validate a finite quantale.

    carrier: list of distinct labels (or rationals), in the order used by
             all tables.
    leq:     list of (smaller, larger) label pairs; the reflexive-transitive
             closure is taken, and the result must be a lattice order.
    tensor:  square table of labels, tensor[i][j] = carrier[i] ⊗ carrier[j].
    unit:    the label of the tensor unit.
    """
    if not carrier:
        raise BadParameter("carrier must be nonempty")
    labels = list(carrier)
    if len(set(labels)) != len(labels):
        raise BadParameter("carrier labels must be distinct")
    pos = {lab: i for i, lab in enumerate(labels)}

    def _pos(lab, where):
        if lab not in pos:
            raise BadParameter(f"unknown element {lab!r} in {where}")
        return pos[lab]

    pairs = {(_pos(a, "leq"), _pos(b, "leq")) for a, b in leq}
    if len(tensor) != len(labels) or any(len(row) != len(labels) for row in tensor):
        raise BadParameter("tensor table must be square over the carrier")
    table = tuple(tuple(_pos(v, "tensor table") for v in row) for row in tensor)
    unit_i = _pos(unit, "unit")

    key = _structural_key(labels, sorted(pairs),
                          tuple(v for row in tensor for v in row), unit)
    return Quantale(name=name, kind="finite", param=None, key=key,
                    carrier_values=labels, leq_set=_close_order(len(labels), pairs),
                    tensor_table=table, unit_value=labels[unit_i])


def _finite_from_ops(name, kind, param, values, tensor_fn, unit_value):
    n = len(values)
    idx = {v: i for i, v in enumerate(values)}
    pairs = {(i, j) for i in range(n) for j in range(n) if values[i] <= values[j]}
    table = tuple(tuple(idx[tensor_fn(values[i], values[j])] for j in range(n))
                  for i in range(n))
    key = f"{kind}({param})" if param is not None else kind
    return Quantale(name=name, kind=kind, param=param, key=key,
                    carrier_values=values, leq_set=frozenset(pairs),
                    tensor_table=table, unit_value=unit_value)


def builtin(kind: str, param: int | None = None) -> Quantale:
    """Return a named builtin quantale.

    Finite kinds: boolean2, goedel_chain(n), lukasiewicz_chain(n) — chains of
    n+1 equally spaced rationals in [0,1].  Infinite kinds: ext_real_plus
    (nonnegative rationals plus inf, order reversed, truncated addition),
    unit_interval_product, lukasiewicz_rational.
    """
    if kind == "boolean2":
        if param is not None:
            raise BadParameter("boolean2 takes no parameter")
        return _finite_from_ops("boolean2", "boolean2", None,
                                [Fraction(0), Fraction(1)], min, Fraction(1))
    if kind in ("goedel_chain", "lukasiewicz_chain"):
        if param is None or param < 1:
            raise BadParameter(f"{kind} requires a size parameter n >= 1")
        values = [Fraction(i, param) for i in range(param + 1)]
        if kind == "goedel_chain":
            fn = min
        else:
            def fn(u, v):
                s = u + v - 1
                return s if s > 0 else Fraction(0)
        return _finite_from_ops(f"{kind}({param})", kind, param, values, fn, Fraction(1))
    if kind in _RATIONAL_KINDS:
        if param is not None:
            raise BadParameter(f"{kind} takes no parameter")
        unit = Fraction(0) if kind == "ext_real_plus" else Fraction(1)
        return Quantale(name=kind, kind=kind, param=None, key=kind,
                        carrier_values=None, leq_set=None, tensor_table=None,
                        unit_value=unit)
    raise BadParameter(f"unknown builtin quantale kind {kind!r}")
