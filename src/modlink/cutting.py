"""Cutting sequences of lattice lines and their translation to LR words.

A line of slope p/q > 0 through the square lattice, pushed off the
lattice points by an infinitesimal upward shift, crosses vertical lines
(letter A) and horizontal lines (letter B); one period gives a cyclic
word with q A's and p B's.  Reading cyclically consecutive letter pairs
translates this to the LR word of the corresponding conjugacy class.
Both words are plain strings.  The AB word is the lower Christoffel
word of p/q.  The LR word is spelled from the same continued-fraction
walk, each factor carrying only its pair reading, with no AB word in
between.  Both come out in their least rotations, so no rotation is
ever searched for.  Both steps have independent geometric simulations,
written against the lattice itself with exact rational arithmetic, to
check the symbolic algorithms.  The AB simulation returns the least
rotation of the word it reads, so that it compares to ab_sequence as a
string; the LR oracle returns a GeodesicWord, whose equality ignores
rotation.
"""

from __future__ import annotations

from fractions import Fraction

from .farey import INFINITY, ZERO, NegativeSlopeError, Slope
from .psl2z import GeodesicWord, least_rotation


class UnsupportedSlopeError(ValueError):
    """The slope has no cutting sequence of the requested kind."""


def continued_fraction(s: Slope) -> tuple[int, ...]:
    """Euclidean digits (a1, a2, ..., ak) of a nonnegative finite slope.

    a1 >= 0 and every later digit is >= 1.
    """
    if s.is_infinity or s.p < 0:
        raise UnsupportedSlopeError(f"no continued fraction for {s}")
    terms = []
    p, q = s.p, s.q
    while q:
        a, r = divmod(p, q)
        terms.append(a)
        p, q = q, r
    return tuple(terms)


def require_positive(s: Slope) -> None:
    """Raise UnsupportedSlopeError unless s = p/q with p, q >= 1."""
    if s.is_infinity or s.p <= 0:
        raise UnsupportedSlopeError(f"cutting sequence needs p, q >= 1, got {s}")


def ab_sequence(s: Slope) -> str:
    """Cutting sequence of slope p/q, p, q >= 1, as its lower Christoffel word.

    The lower Christoffel word, with q A's and p B's, is the least
    rotation of the cutting sequence under A < B.  It is built by the
    standard factorization, walking down the Christoffel (Stern-Brocot)
    tree: from the pair (A, B), each continued-fraction digit a, the last
    one lowered by 1, sets left = left + right^a at an even index and
    right = left^a + right at an odd one; the word is left + right
    (Berstel, Lauve, Reutenauer and Saliola, *Combinatorics on Words:
    Christoffel Words and Repetitions in Words*).
    """
    require_positive(s)
    *head, last = continued_fraction(s)
    left, right = "A", "B"
    for i, a in enumerate((*head, last - 1)):
        if i % 2 == 0:
            left += right * a
        else:
            right = left * a + right
    return left + right


def ab_events(p: int, q: int) -> list[tuple[tuple[Fraction, Fraction], str]]:
    """Sorted AB crossing events of one period, keyed by (x0, eps coeff).

    Shared by the oracle ab_sequence_geometric and the lattice-line figure.
    """
    events = [((Fraction(k), Fraction(0)), "A") for k in range(1, q + 1)]
    events += [
        ((Fraction(m * q, p), Fraction(-q, p)), "B") for m in range(1, p + 1)
    ]
    events.sort(key=lambda ev: ev[0])
    return events


def ab_sequence_geometric(s: Slope) -> str:
    """Least rotation of the crossing word of y = (p/q) x + eps over one period.

    Events are the crossings with vertical lines x = k (letter A) and
    horizontal lines y = m (letter B) for x in (0, q].  Each crossing
    abscissa has the exact form x0 + c*eps; sorting the pairs (x0, c)
    lexicographically realizes the infinitesimal offset symbolically.
    At the lattice corner this puts B just before A.  The word read
    from x = 0 is rotated to its least rotation, the rotation that
    ab_sequence spells.
    """
    require_positive(s)
    return least_rotation("".join(letter for _, letter in ab_events(s.p, s.q)))


_PAIR_RULE = {"AB": "L", "BA": "R", "AA": "RL", "BB": "LR"}


def ab_to_lr(letters: str) -> str:
    """Translate cyclically consecutive crossing pairs to an LR word.

    A then B contributes L; B then A contributes R; a repeated letter
    contributes the two-letter turn (RL after A, LR after B).  The last
    letter pairs with the first.  Result is the least rotation.
    """
    n = len(letters)
    out = [_PAIR_RULE[letters[i] + letters[(i + 1) % n]] for i in range(n)]
    return least_rotation("".join(out))


_A, _B = ("A", "A", ""), ("B", "B", "")


def _concat(x, y):
    """Factor x followed by factor y; None is the empty factor.

    A factor is (first letter, last letter, pair reading): the pair rule
    of ab_to_lr applied to each letter and the next one inside it.  The
    join adds one pair, the last letter of x with the first of y.
    """
    if x is None:
        return y
    if y is None:
        return x
    return x[0], y[1], "".join((x[2], _PAIR_RULE[x[1] + y[0]], y[2]))


def _power(x, a):
    """Factor x repeated a >= 1 times."""
    if a == 1:
        return x
    first, last, pairs = x
    return first, last, (pairs + _PAIR_RULE[last + first]) * (a - 1) + pairs


def slope_to_word(s: Slope) -> str:
    """Canonical LR word of a nonnegative slope, spelled from its continued fraction.

    The upper Christoffel word U, the reverse of the lower one (Berstel
    et al., cited at ab_sequence), is a rotation of the cutting sequence
    that starts with B and ends with BA (p >= q) or AA (p < q).  Let P(w)
    be the pair rule of ab_to_lr applied to each letter of w and the next
    one inside w.  Read cyclically, U gives P(U[:-1]), then R (from BA)
    or RL (from AA), then L (its final A before its leading B); moving
    that final L, or LL, to the front gives the least rotation.

    U is built by ab_sequence's walk run on the reversed factors:
    rev_left = rev_right^a + rev_left at an even index, rev_right =
    rev_right + rev_left^a at an odd one, and U = rev_right + rev_left.
    Each factor carries only its first letter, last letter and P, so no
    AB word is spelled, and rev_left is carried without the A it ends
    with, so that U[:-1] needs no slice.  The word is joined once from
    the two factors; built from L and R alone, its letters need no
    check.  The tests check it letter for letter against ab_to_lr(...).

    The two degenerate slopes 0/1 and 1/0 share the word LR with 1/1
    (all three lie in one rotation orbit).
    """
    if s.p < 0:
        raise NegativeSlopeError(f"no LR word for negative slope {s}")
    if s in (ZERO, INFINITY):
        return "LR"
    *head, last = continued_fraction(s)
    right, left = _B, None  # rev_right; rev_left without its final A
    for i, a in enumerate((*head, last - 1)):
        if not a:
            continue
        if i % 2 == 0:
            left = _concat(_power(right, a), left)
        else:
            right = _concat(right, _power(_concat(left, _A), a))
    parts = ["L" if s.p >= s.q else "LL", right[2]]
    if left is not None:
        parts += (_PAIR_RULE[right[1] + left[0]], left[2])
    parts.append("R")
    return "".join(parts)


def lr_events(
    p: int, q: int
) -> list[tuple[tuple[Fraction, Fraction], tuple[str, int]]]:
    """Sorted grid-line crossing events over two periods of the line.

    Grid lines are verticals x = k, horizontals y = m and the slope-one
    diagonals y = x + c; each event records the exact crossing abscissa
    as (x0, eps coefficient) plus the line crossed.  Shared by the
    oracle lr_geometric_oracle and the lattice-line figure.
    """
    events: list[tuple[tuple[Fraction, Fraction], tuple[str, int]]] = []
    for k in range(1, 2 * q + 1):
        events.append(((Fraction(k), Fraction(0)), ("v", k)))
    for m in range(1, 2 * p + 1):
        events.append(((Fraction(m * q, p), Fraction(-q, p)), ("h", m)))
    if p > q:
        diag_levels = range(1, 2 * (p - q) + 1)
    elif p < q:
        diag_levels = range(0, 2 * (p - q), -1)
    else:
        diag_levels = range(0)
    for c in diag_levels:
        events.append(
            ((Fraction(c * q, p - q), Fraction(-q, p - q)), ("d", c))
        )
    events.sort(key=lambda ev: ev[0])
    return events


def lr_geometric_oracle(s: Slope) -> GeodesicWord:
    """LR word read off the triangulated lattice, one letter per triangle.

    The lattice squares are cut by the slope-one diagonals y = x + c into
    triangles.  The offset line of slope p/q crosses p + q + |p - q|
    triangle sides per period; between two consecutive crossings it cuts
    off exactly one corner, the intersection of the two crossed lines.
    The letter is L when that corner lies to the left of the directed
    line, R when on it or to the right (the offset pushes the line just
    above every lattice point).  This calibration gives slope 1/1 the
    word LR.
    """
    require_positive(s)
    p, q = s.p, s.q
    events = lr_events(p, q)
    n = p + q + abs(p - q)
    letters = []
    for i in range(n):
        vx, vy = _line_intersection(events[i][1], events[i + 1][1])
        letters.append("L" if q * vy - p * vx > 0 else "R")
    return GeodesicWord("".join(letters))


def _line_intersection(
    line1: tuple[str, int], line2: tuple[str, int]
) -> tuple[int, int]:
    """Lattice point where two grid lines (x=k, y=m or y=x+c) meet."""
    (kind1, i1), (kind2, i2) = sorted((line1, line2))
    if (kind1, kind2) == ("h", "v"):
        return (i2, i1)
    if (kind1, kind2) == ("d", "v"):
        return (i2, i2 + i1)
    if (kind1, kind2) == ("d", "h"):
        return (i2 - i1, i2)
    raise ValueError(f"parallel grid lines {line1}, {line2}")
