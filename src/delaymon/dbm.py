"""Difference-bound matrices over scaled-integer time.

A zone is a conjunction of constraints ``x_i - x_j <= c`` / ``< c`` over a
fixed clock vector whose index 0 is the constant-zero reference clock.  All
constants are scaled integers; bounds are encoded in a single int as
``2*c | 1`` for a weak bound (<=) and ``2*c`` for a strict one (<), so that
the natural int order coincides with bound tightness and the canonicalization
loop stays branch-free.  Two finite encoded bounds add as ``a + b - ((a | b)
& 1)``: the values add, and the sum is weak iff both bounds are.

A zone is refined by :meth:`DBM.and_constraints` (a meet, then optional
clock resets), :meth:`DBM.elapse` (``up``, then a meet) and
:meth:`DBM.pre` (the preimage of an edge: pin and free its reset clocks,
meet its guard, then ``down``).  Each applies its whole chain of steps to
one copy of the matrix, keeping it canonical in place through
:func:`_tighten`, so a derived zone costs one copy and no closure (as in
UPPAAL's DBM library: Behrmann et al., "UPPAAL implementation secrets",
FTRTFT 2002).  A meet whose first tightening constraint contradicts the
zone makes no copy: that test reads the source matrix.  A latency union is
merged on the encoded bounds of the met zones by
:func:`merge_difference_bounds`.

Every zone handed to an operation, to :func:`included_in_union` or to
:func:`reduce_union` (so to the pruner too) is nonempty: the caller that
builds a zone tests it once, where it is made, and drops an empty one.  As
in UPPAAL's DBM library, a meet reports emptiness and the other operations
assume a closed, nonempty DBM.
"""

from __future__ import annotations

import functools
import re
from operator import ge
from typing import Iterable, Iterator, NamedTuple, Sequence

INF = 2 ** 62  # absorbing +infinity bound

# Exclusive cap on every scaled input value (times, latencies, jitters,
# guard constants).  The engine's bounds are sums of a few inputs (a window
# end τ + ε, a round-trip sum) chained along at most dim - 1 constraints by
# the closure, so with this cap they stay far below the bound value of INF,
# 2**61, and no finite bound can alias it.
MAX_SCALED = 2 ** 50
# a plain decimal: sign, whole digits and fractional digits, not all empty
_DECIMAL = re.compile(r"([+-]?)(?=\.?\d)(\d*)(?:\.(\d*))?", re.ASCII)


def bound(value: int, strict: bool = False) -> int:
    """Encode the bound ``x - y < value`` (strict) or ``x - y <= value``."""
    return (value << 1) | (0 if strict else 1)


LE_ZERO = bound(0)   # <= 0


def bound_value(b: int) -> int:
    return b >> 1


def bound_is_strict(b: int) -> bool:
    return not (b & 1)


class ScaleError(ValueError):
    """A decimal that is not a non-negative multiple of 1/scale below
    :data:`MAX_SCALED`."""


@functools.cache
def _scale_digits(scale: int) -> int:
    """``log10(scale)``; a ValueError unless ``scale`` is a power of ten.
    Worked out once per scale: a parse asks once per guard constant or
    trace line, and a render once per endpoint.  A bad scale raises on
    every call, as ``functools.cache`` keeps no exception."""
    digits = len(str(scale)) - 1
    if 10 ** digits != scale:
        raise ValueError(f"scale {scale} is not a power of ten")
    return digits


def parse_scaled(text: str, scale: int, what: str) -> int:
    """Parse a non-negative decimal as an integer number of ``1/scale``
    units; ``what`` names the value in the error message."""
    digits = _scale_digits(scale)
    m = _DECIMAL.fullmatch(text)
    if not m:
        raise ScaleError(f"{what}: not a number: {text!r}")
    sign, whole, frac = m.groups("")
    if frac[digits:].strip("0"):
        raise ScaleError(
            f"{what}: {text!r} needs more precision than scale {scale}")
    units = (whole + frac[:digits].ljust(digits, "0")).lstrip("0")
    if sign == "-" and units:
        raise ScaleError(f"{what}: {text!r} is negative")
    value = int(units[:17] or 0)  # 17 digits are past MAX_SCALED already
    if value >= MAX_SCALED:
        raise ScaleError(
            f"{what}: {text!r} is too large: scaled values must stay "
            f"below 2**50")
    return value


def format_scaled(value: int, scale: int) -> str:
    """Render ``value / scale`` as a plain decimal with no trailing zeros,
    or ``inf`` for :data:`INF`; the inverse of :func:`parse_scaled`.
    ``scale`` must be a power of ten."""
    digits = _scale_digits(scale)
    sign = "-" if value < 0 else ""
    value = abs(value)
    if value == INF:
        return sign + "inf"
    whole, frac = divmod(value, scale)
    if not frac:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{frac:0{digits}d}".rstrip("0")


class Interval(NamedTuple):
    """Interval of scaled-integer values with per-endpoint strictness.

    ``lo = -INF`` / ``hi = INF`` denote unbounded endpoints (their strictness
    flags are then meaningless but kept True by convention).
    """

    lo: int
    lo_strict: bool
    hi: int
    hi_strict: bool

    def contains(self, value: int) -> bool:
        if self.lo != -INF:
            if value < self.lo or (value == self.lo and self.lo_strict):
                return False
        if self.hi != INF:
            if value > self.hi or (value == self.hi and self.hi_strict):
                return False
        return True


def _tighten(m: list[list[int]], i: int, j: int, b: int) -> bool:
    """Intersect the canonical, nonempty matrix ``m`` in place with
    ``x_i - x_j`` bounded by ``b < m[i][j]`` and keep it canonical, in
    O(n^2): every entry takes the shorter of its old path and the path
    through the new edge.  False, with ``m`` untouched, iff the result is
    empty."""
    mj = m[j]
    mji = mj[i]
    if mji != INF and b + mji - ((b | mji) & 1) < LE_ZERO:
        return False
    # On a canonical matrix the new edge can only shorten m[p][q] where it
    # shortens both m[i][q] (the columns below) and m[p][j] (the row test).
    mi = m[i]
    cols = []
    for q, v in enumerate(mj):
        if v != INF:
            c = b + v - ((b | v) & 1)
            if c < mi[q]:
                cols.append((q, c))
    for mp in m:
        a = mp[i]
        if a == INF or a + b - ((a | b) & 1) >= mp[j]:
            continue
        for q, c in cols:
            s = a + c - ((a | c) & 1)
            if s < mp[q]:
                mp[q] = s
    return True


class DBM:
    """Canonical difference-bound matrix; immutable from the caller's side.

    ``m[i][j]`` bounds ``x_i - x_j``.  Construct via :meth:`universal` and
    refine with the pure operations below; every operation returns a fresh,
    canonical DBM and keeps it canonical without a full closure.
    ``DBM(dim, m)`` closes an arbitrary matrix (Floyd-Warshall, O(n^3)).
    Operations take nonempty zones (see the module docstring); an empty
    one answers :meth:`is_empty`, ``==`` and ``hash`` only.
    """

    __slots__ = ("dim", "m", "_empty")

    def __init__(self, dim: int, m: list[list[int]], _closed: bool = False):
        self.dim = dim
        self.m = m
        self._empty: bool | None = None
        if not _closed:
            self._close_in_place()

    # -- construction -------------------------------------------------------

    @classmethod
    def universal(cls, dim: int, nonneg: Iterable[int] | None = None) -> "DBM":
        """Unconstrained zone; clocks in ``nonneg`` (default: all) are >= 0."""
        idx = set(range(1, dim)) if nonneg is None else set(nonneg)
        m = [[INF] * dim for _ in range(dim)]
        for i in range(dim):
            m[i][i] = LE_ZERO
        for i in range(1, dim):
            if i in idx:
                m[0][i] = LE_ZERO
        return cls._canonical(dim, m)

    @classmethod
    def _canonical(cls, dim: int, m: list[list[int]],
                   empty: bool = False) -> "DBM":
        """Wrap a matrix that is already canonical (or known empty)."""
        d = cls(dim, m, _closed=True)
        d._empty = empty
        return d

    def copy_matrix(self) -> list[list[int]]:
        return list(map(list.copy, self.m))

    def constraints(self) -> Iterator[tuple[int, int, int]]:
        """The finite off-diagonal entries, as ``(i, j, bound)``."""
        for i, row in enumerate(self.m):
            for j, b in enumerate(row):
                if b != INF and i != j:
                    yield i, j, b

    # -- canonical form ------------------------------------------------------

    def _close_in_place(self) -> None:
        n, m = self.dim, self.m
        for k in range(n):
            mk = m[k]
            for i in range(n):
                mik = m[i][k]
                if mik == INF:
                    continue
                mi = m[i]
                for j in range(n):
                    if mk[j] == INF:
                        continue
                    b = mik + mk[j] - ((mik | mk[j]) & 1)
                    if b < mi[j]:
                        mi[j] = b
        empty = False
        for i in range(n):
            if m[i][i] < LE_ZERO:
                empty = True
            m[i][i] = LE_ZERO
        self._empty = empty

    def is_empty(self) -> bool:
        assert self._empty is not None
        return self._empty

    # -- comparison / hashing -----------------------------------------------

    def _key(self) -> tuple:
        if self.is_empty():
            return ("empty", self.dim)
        return tuple(tuple(row) for row in self.m)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DBM) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    # -- operations ----------------------------------------------------------

    def elapse(self, cons: Iterable[tuple[int, int, int]]) -> "DBM":
        """Future operator ``up`` (drop the upper bounds of the clocks),
        then the meet with the encoded constraints ``cons``: one copy.

        ``up`` keeps a canonical matrix canonical: it only relaxes
        ``m[i][0]``, and ``m[i][j] <= m[i][0] + m[0][j]`` holds trivially
        for the new value."""
        m = self.copy_matrix()
        for row in m[1:]:
            row[0] = INF
        for i, j, b in cons:
            if b < m[i][j] and not _tighten(m, i, j, b):
                return DBM._canonical(self.dim, m, empty=True)
        return DBM._canonical(self.dim, m)

    def and_constraints(self, cons: Iterable[tuple[int, int, int]],
                        resets: Sequence[int] = ()) -> "DBM":
        """Intersect with the encoded constraints ``cons``, then set each
        clock in ``resets`` to 0 and project its old value away: one copy,
        and none when ``cons`` tightens nothing and ``resets`` is empty, or
        when the first constraint that tightens contradicts the zone.

        A reset copies row and column 0 into the clock's, which keeps a
        canonical matrix canonical."""
        if 0 in resets:
            raise ValueError("cannot reset the reference clock")
        m = self.m
        for i, j, b in cons:
            if b < m[i][j]:
                if m is self.m:
                    # _tighten's first test, on the matrix not yet copied
                    mji = m[j][i]
                    if mji != INF and b + mji - ((b | mji) & 1) < LE_ZERO:
                        return DBM._canonical(self.dim, m, empty=True)
                    m = self.copy_matrix()
                if not _tighten(m, i, j, b):
                    return DBM._canonical(self.dim, m, empty=True)
        if resets:
            if m is self.m:
                m = self.copy_matrix()
            for x in resets:
                m[x] = m[0][:]
                for row in m:
                    row[x] = row[0]
        if m is self.m:
            return self
        return DBM._canonical(self.dim, m)

    def pre(self, guard: Iterable[tuple[int, int, int]],
            resets: Sequence[int]) -> "DBM":
        """Valuations from which a delay and then an edge with ``guard``
        and ``resets`` lead into the zone, for non-negative clocks: pin the
        reset clocks to 0, free them (drop every constraint on them but
        ``>= 0``), meet the guard, then the past operator ``down``.  One
        copy for the four steps.

        On the pinned canonical matrix a reset clock's column already
        equals column 0, so freeing it only clears its row.  ``down``
        relaxes each lower bound to ``>= 0`` and re-tightens it by the
        difference constraints, ``m[0][i] = min_k (max(m[0][k], <=0) +
        m[k][i])`` over ``k >= 1``; the other rows stay as they are."""
        dim = self.dim
        m = self.copy_matrix()
        for x in resets:
            for i, j in ((x, 0), (0, x)):
                if LE_ZERO < m[i][j] and not _tighten(m, i, j, LE_ZERO):
                    return DBM._canonical(dim, m, empty=True)
        for x in resets:
            m[x] = [INF] * dim
            m[x][x] = LE_ZERO
        for i, j, b in guard:
            if b < m[i][j] and not _tighten(m, i, j, b):
                return DBM._canonical(dim, m, empty=True)
        row0 = m[0]
        low = [max(b, LE_ZERO) for b in row0]
        for i in range(1, dim):
            best = low[i]
            for k in range(1, dim):
                a, c = low[k], m[k][i]
                if a != INF and c != INF:
                    s = a + c - ((a | c) & 1)
                    if s < best:
                        best = s
            row0[i] = best
        return DBM._canonical(dim, m)

    def includes(self, other: "DBM") -> bool:
        """True iff every valuation of ``other`` satisfies ``self``."""
        for ra, rb in zip(self.m, other.m):
            for a, b in zip(ra, rb):
                if b > a:
                    return False
        return True

    # -- queries -------------------------------------------------------------

    def restrict(self, keep: Sequence[int]) -> "DBM":
        """Project onto the clocks in ``keep`` (0 is always kept first).

        On a canonical DBM the projection is the sub-matrix.
        """
        idx = [0] + [i for i in keep if i != 0]
        m = [[self.m[i][j] for j in idx] for i in idx]
        return DBM._canonical(len(idx), m)

    def subtract(self, other: "DBM") -> list["DBM"]:
        """Zone difference self \\ other as a list of disjoint zones."""
        out: list[DBM] = []
        rest = self
        for i, j, b in other.constraints():
            if b >= rest.m[i][j]:
                continue  # rest already meets it: its negation is empty
            # negate x_i - x_j (<|<=) c  ->  x_j - x_i (<|<=) -c with
            # flipped strictness
            neg = bound(-bound_value(b), strict=not bound_is_strict(b))
            piece = rest.and_constraints(((j, i, neg),))
            if not piece.is_empty():
                out.append(piece)
            rest = rest.and_constraints(((i, j, b),))
            if rest.is_empty():
                return out
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_empty():
            return f"DBM(dim={self.dim}, empty)"

        def fmt(b: int) -> str:
            if b == INF:
                return "inf"
            return f"{'<' if bound_is_strict(b) else '<='}{bound_value(b)}"

        rows = ["[" + ", ".join(fmt(b) for b in row) + "]" for row in self.m]
        return "DBM(dim=%d,\n  %s)" % (self.dim, "\n  ".join(rows))


def included_in_union(zone: DBM, zones: Iterable[DBM]) -> bool:
    """Exact test whether the nonempty ``zone`` is covered by a union of
    nonempty zones.

    Subtraction is the last resort, as in UPPAAL's federations (Behrmann et
    al., FTRTFT 2002): a zone that one member includes is covered.  With no
    member including the zone and fewer than two members, the zone is not
    covered; with more, it is covered iff subtracting them from it leaves
    nothing."""
    near: list[DBM] = []
    for z in zones:
        if z.includes(zone):
            return True
        near.append(z)
    if len(near) < 2:
        return False
    remains = [zone]
    for z in near:
        nxt: list[DBM] = []
        for r in remains:
            nxt.extend(r.subtract(z))
        remains = nxt
        if not remains:
            return True
    return False


def _interval(lo_b: int, up_b: int) -> Interval:
    """The interval ``-lo_b <= d <= up_b`` of a difference ``d`` from the
    encoded bounds on ``-d`` and on ``d``.  :data:`INF` is even, so an
    unbounded end comes out strict, as :class:`Interval` wants."""
    return Interval(-INF if lo_b == INF else -(lo_b >> 1), not lo_b & 1,
                    INF if up_b == INF else up_b >> 1, not up_b & 1)


def merge_difference_bounds(pairs: list[tuple[int, int]]
                            ) -> tuple[Interval, ...]:
    """Union of difference ranges as sorted maximal disjoint intervals.

    Each pair is ``(m[y][x], m[x][y])`` of a nonempty canonical zone: the
    encoded bounds on ``x_y - x_x`` and ``x_x - x_y``.  ``pairs`` comes
    sorted descending, ``sorted(pairs, reverse=True)``: descending encoded
    lower bounds are ascending low ends, a closed end before an open one;
    so the merge reads ints only and builds an :class:`Interval` per
    merged piece.  A piece ending at ``hi`` and the next one starting at
    ``lo`` overlap or touch iff ``hi - lo > 0``, or ``hi = lo`` with an end
    closed."""
    if not pairs:
        return ()
    out: list[Interval] = []
    rest = iter(pairs)
    lo, hi = next(rest)
    for low, up in rest:
        s = (hi >> 1) + (low >> 1)
        if s > 0 or (s == 0 and (hi | low) & 1):
            if up > hi:
                hi = up
        else:
            out.append(_interval(lo, hi))
            lo, hi = low, up
    out.append(_interval(lo, hi))
    return tuple(out)


def _covers(big: list[int], small: list[int]) -> bool:
    """Entry-wise ``big >= small`` of two sub-matrices flattened alike."""
    return all(map(ge, big, small))


def reduce_union(zones: Iterable[DBM], skip: int = 0) -> list[DBM]:
    """Of the nonempty ``zones``, drop each one included in a sibling
    (pairwise inclusion only), comparing projections that leave out the
    clocks whose bit is set in ``skip`` (bit ``i`` for index ``i``).  The
    kept zones are returned whole.

    On a canonical nonempty DBM the projection is the sub-matrix (Behrmann
    et al., "UPPAAL implementation secrets", FTRTFT 2002), so no zone is
    built: each zone's kept rows and columns are flattened once into a list
    of ints, and a pair is compared entry by entry."""
    zs = list(zones)
    if len(zs) < 2:
        return zs
    keep = [i for i in range(zs[0].dim) if not skip >> i & 1]
    out: list[tuple[list[int], DBM]] = []
    for z in zs:
        m = z.m
        key = [m[i][j] for i in keep for j in keep]
        if any(_covers(k, key) for k, _ in out):
            continue
        out = [(k, o) for k, o in out if not _covers(key, k)]
        out.append((key, z))
    return [z for _, z in out]
