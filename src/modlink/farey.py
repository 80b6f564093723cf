"""Exact rational slopes and the combinatorics of the Farey tessellation.

Slopes p/q (with 1/0 standing for the vertical curve) label the ideal
vertices of the Farey tessellation of the hyperbolic plane; two slopes
span an edge exactly when |ps - qr| = 1, and every triangle is a triple
of mutual neighbours.  An order-three rotation V permutes slopes around
the triangle (0/1, 1/1, 1/0).  Everything here is exact integer
arithmetic on immutable values.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property, total_ordering
from typing import Iterable, Iterator


# The one slope grammar: ASCII digits with an optional sign on each side.
SLOPE_PATTERN = re.compile(r"[+-]?[0-9]+/[+-]?[0-9]+")


class NotNeighboursError(ValueError):
    """The two slopes do not span an edge of the Farey tessellation."""


class UndefinedSlopeError(ValueError):
    """0/0 names no slope."""


class NegativeSlopeError(ValueError):
    """Operation is defined only for nonnegative slopes (or 1/0)."""


class NotAChainError(NotNeighboursError):
    """A cyclically consecutive pair of a chain spans no Farey edge.

    A repeated slope p/q is such a pair, since |pq - qp| = 0.
    """

    def __init__(self, a: "Slope", b: "Slope"):
        super().__init__(f"not Farey neighbours: {a}, {b}")
        self.pair = (a, b)


@total_ordering
@dataclass(frozen=True)
class Slope:
    """A reduced rational slope p/q, with q >= 0 and 1/0 for infinity.

    Construction normalizes silently: the sign lives in the numerator,
    gcd(|p|, q) == 1, and any n/0 collapses to 1/0.  0/0 is rejected.
    Slopes are totally ordered by value with 1/0 strictly greatest.
    """

    p: int
    q: int

    def __post_init__(self):
        p, q = self.p, self.q
        if q > 0 and math.gcd(p, q) == 1:
            return
        if p == 0 and q == 0:
            raise UndefinedSlopeError("slope 0/0 is not defined")
        if q == 0:
            p = 1
        else:
            if q < 0:
                p, q = -p, -q
            g = math.gcd(p, q)
            p //= g
            q //= g
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @classmethod
    def parse(cls, text: str) -> "Slope":
        """Parse 'p/q' (SLOPE_PATTERN, no whitespace), e.g. '-2/1'.

        Raises UndefinedSlopeError on 0/0 and ValueError on any other
        string outside the grammar.
        """
        if not SLOPE_PATTERN.fullmatch(text):
            raise ValueError(f"malformed slope {text!r}: expected 'p/q'")
        num, den = text.split("/")
        return cls(int(num), int(den))

    @property
    def is_infinity(self) -> bool:
        return self.q == 0

    def __lt__(self, other: "Slope") -> bool:
        if not isinstance(other, Slope):
            return NotImplemented
        if self.q == 0:
            return False
        if other.q == 0:
            return True
        return self.p * other.q < other.p * self.q

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"


ZERO = Slope(0, 1)
ONE = Slope(1, 1)
INFINITY = Slope(1, 0)


def is_farey_neighbour(a: Slope, b: Slope) -> bool:
    """True when a and b span an edge of the tessellation (|ps - qr| = 1)."""
    return abs(a.p * b.q - a.q * b.p) == 1


def mediant(a: Slope, b: Slope) -> Slope:
    """Mediant (p1+p2)/(q1+q2) of two Farey neighbours.

    The mediant of neighbours is automatically reduced and is itself a
    neighbour of both parents.
    """
    if not is_farey_neighbour(a, b):
        raise NotNeighboursError(f"{a} and {b} are not Farey neighbours")
    return Slope(a.p + b.p, a.q + b.q)


def v_rotate(s: Slope) -> Slope:
    """Order-three rotation p/q -> q/(q - p) about the base triangle."""
    return Slope(s.q, s.q - s.p)


def v_orbit(s: Slope) -> frozenset[Slope]:
    """The orbit {s, V(s), V^2(s)} of the order-three rotation."""
    t = v_rotate(s)
    return frozenset((s, t, v_rotate(t)))


def require_nonnegative(s: Slope) -> None:
    """Raise NegativeSlopeError when s < 0; 1/0 counts as nonnegative."""
    if s.p < 0:
        raise NegativeSlopeError(f"no Farey path to negative slope {s}")


def nonnegative_representative(s: Slope) -> Slope:
    """Least member of v_orbit(s) with p >= 0.  Every orbit has one."""
    return min(t for t in v_orbit(s) if t.p >= 0)


@dataclass(frozen=True)
class FareyTriangle:
    """Three pairwise-neighbouring slopes, stored in ascending order.

    Three slopes form a triangle exactly when they form a Farey chain:
    its three cyclic pairs are all the pairs, and a repeated vertex
    fails as a pair.
    """

    vertices: tuple[Slope, Slope, Slope]

    def __post_init__(self):
        if len(self.vertices) != 3:
            raise ValueError(f"a triangle has three vertices, not {self.vertices}")
        vs = tuple(order_as_farey_chain(self.vertices))
        object.__setattr__(self, "vertices", vs)


def base_triangle() -> FareyTriangle:
    return FareyTriangle((ZERO, ONE, INFINITY))


@dataclass(frozen=True)
class FareyPath:
    """Triangle path from the base triangle to one containing the target.

    Consecutive triangles share an edge; each step introduces exactly one
    new vertex (the mediant of the shared edge), recorded in order in
    ``new_vertices``.  ``x`` counts triangles, so the path visits 2 + x
    distinct slopes.  The triangles themselves are built, and each one
    checked, only when ``triangles`` is first read.
    """

    target: Slope
    new_vertices: tuple[Slope, ...]

    @property
    def x(self) -> int:
        return len(self.new_vertices) + 1

    @cached_property
    def triangles(self) -> tuple[FareyTriangle, ...]:
        """The x triangles of the path in order, the base triangle first."""
        return (base_triangle(),) + tuple(
            FareyTriangle(step) for step in _descent(self.target)
        )

    def slopes(self) -> tuple[Slope, ...]:
        """All distinct vertex slopes, in order of first appearance."""
        return (ZERO, ONE, INFINITY) + self.new_vertices


def _descent(target: Slope) -> Iterator[tuple[Slope, Slope, Slope]]:
    """Each step (lo, mediant, hi) of the mediant descent to a nonnegative target.

    The walk compares integers: lo = a/b and hi = c/d are Farey
    neighbours exactly when cb - ad = 1, which every step checks, and
    the target p/q lies below the mediant (a + c)/(b + d) exactly when
    p(b + d) < (a + c)q.  All mediants lie on the target's side of 1/1;
    targets on the base triangle take no step.
    """
    p, q = target.p, target.q
    if p == 0 or q == 0 or p == q:
        return
    lo, hi = (ZERO, ONE) if p < q else (ONE, INFINITY)
    a, b, c, d = lo.p, lo.q, hi.p, hi.q
    while True:
        if c * b - a * d != 1:
            raise NotNeighboursError(f"{lo} and {hi} are not Farey neighbours")
        mp, mq = a + c, b + d
        m = Slope(mp, mq)
        yield lo, m, hi
        if mp == p and mq == q:
            return
        if p * mq < mp * q:
            hi, c, d = m, mp, mq
        else:
            lo, a, b = m, mp, mq


def farey_path(target: Slope) -> FareyPath:
    """Shortest triangle path from the base triangle to the target slope.

    The dual graph of the tessellation is a tree, so the shortest path is
    unique; it is produced directly by mediant (continued-fraction)
    descent, an integer walk that checks each edge it splits and that
    FareyPath.triangles repeats.  Only the new vertices are kept; the
    triangles follow on demand.  Targets already on the base triangle
    give the one-triangle path.
    """
    require_nonnegative(target)
    return FareyPath(target, tuple(m for _, m, _ in _descent(target)))


def _approximate_value(s: Slope) -> float:
    """p/q as a float, never raising: 1/0 and values past the float range are +-inf.

    Int true division is correctly rounded, so s < t gives
    _approximate_value(s) <= _approximate_value(t); only ties misorder.
    """
    try:
        return s.p / s.q
    except ZeroDivisionError:
        return math.inf
    except OverflowError:
        return math.inf if s.p > 0 else -math.inf


def order_as_farey_chain(slopes: Iterable[Slope]) -> list[Slope]:
    """Sort slopes ascending and verify cyclic consecutive neighbourliness.

    The last slope (1/0 when present) must also neighbour the first,
    and a repeated slope fails as a pair, so every slope of a chain is
    distinct.  Raises NotAChainError naming the first failing pair.

    The slopes are sorted on their float values, then each consecutive
    pair a, b is checked exactly: b.p * a.q - a.p * b.q = 1 says that a
    and b are neighbours and that a < b, so a chain that passes is in
    exact ascending order.  Only when a check fails, after a float tie
    or on a non-chain, are the slopes sorted exactly, and the first
    failing pair of that order is named.
    """
    chain = sorted(slopes, key=_approximate_value)
    if len(chain) < 2:
        raise ValueError("a Farey chain needs at least two slopes")
    for a, b in zip(chain, chain[1:]):
        if b.p * a.q - a.p * b.q != 1:
            break
    else:
        if is_farey_neighbour(chain[-1], chain[0]):
            return chain
    chain.sort()
    for a, b in zip(chain, chain[1:] + chain[:1]):
        if not is_farey_neighbour(a, b):
            raise NotAChainError(a, b)
    return chain
