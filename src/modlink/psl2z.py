"""Words in the parabolic generators L, R and their PSL(2, Z) matrices.

A cyclic word over {L, R} containing both letters determines a
hyperbolic conjugacy class; its trace is invariant under rotation of the
word, the translation length of the closed geodesic is a function of
the trace alone, and trace^2 - 4 determines the real quadratic field of
the axis endpoints, whose discriminant modlink.arith computes.  Matrices
are exact (Python integers are unbounded) and are kept in a normalized
sign convention so that equality of values is equality in PSL(2, Z).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import ClassVar

from .arith import trace_discriminant


class NotHyperbolicError(ValueError):
    """The element has no closed hyperbolic geodesic."""


class ParabolicError(NotHyperbolicError):
    """Trace 2: parabolic (or a conjugate of a power of L or R)."""


class EllipticError(NotHyperbolicError):
    """Trace < 2: elliptic or the identity."""


@dataclass(frozen=True)
class MatrixPSL2Z:
    """Integer matrix (a b; c d) with det 1, normalized up to overall sign.

    The representative with a + d > 0 is stored; for trace zero, the one
    whose first nonzero entry among (a, b, c) is positive.
    """

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        a, b, c, d = self.a, self.b, self.c, self.d
        if a * d - b * c != 1:
            raise ValueError(f"determinant is {a * d - b * c}, not 1")
        t = a + d
        flip = t < 0
        if t == 0:
            for entry in (a, b, c):
                if entry:
                    flip = entry < 0
                    break
        if flip:
            object.__setattr__(self, "a", -a)
            object.__setattr__(self, "b", -b)
            object.__setattr__(self, "c", -c)
            object.__setattr__(self, "d", -d)

    def trace(self) -> int:
        """a + d of the normalized representative (always >= 0)."""
        return self.a + self.d


def least_rotation(s: str) -> str:
    """Lexicographically least rotation of s, in O(len(s)) time with no table.

    Two live starts i < j of ss = s + s are compared at offset k, the
    length of their common prefix so far.  At the first mismatch, for
    each t in 0..k the rotations at i + t and j + t agree on their first
    k - t letters and differ at the next one the same way; so each of
    the k + 1 starts on the losing side is beaten by its partner and is
    skipped.  Every start below j except i has been beaten, so a least
    rotation starts at i once j passes the end of s.  It does too once k
    reaches len(s): the rotations at i and j are then equal, so s has
    period j - i and every rotation equals one starting in i..j-1, all
    of which but i are beaten.
    """
    n = len(s)
    ss = s + s
    i, j, k = 0, 1, 0
    while j < n and k < n:
        a, b = ss[i + k], ss[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i = max(i + k + 1, j)
            j = i + 1
        else:
            j += k + 1
        k = 0
    return s[i:] + s[:i]


@dataclass(frozen=True, eq=False)
class CyclicWord:
    """A nonempty cyclic word; equality and hashing ignore rotation."""

    letters: str

    _alphabet: ClassVar[frozenset] = frozenset()

    def __post_init__(self):
        if not self.letters:
            raise ValueError("empty word")
        bad = set(self.letters) - self._alphabet
        if bad:
            raise ValueError(f"letters {sorted(bad)} not in {sorted(self._alphabet)}")

    @classmethod
    def from_canonical(cls, letters: str) -> "CyclicWord":
        """The word spelled by letters already known to be its least rotation.

        The caller vouches for the spelling, so the word is never searched
        for its least rotation; its alphabet is still checked.
        """
        word = cls(letters)
        object.__setattr__(word, "_canonical_letters", letters)
        return word

    @cached_property
    def _canonical_letters(self) -> str:
        return least_rotation(self.letters)

    def canonical(self) -> "CyclicWord":
        """The representative spelled as the least rotation.

        The word itself when it is already so spelled; otherwise a new
        word whose canonical letters are known, so it is never rescanned.
        """
        letters = self._canonical_letters
        return self if letters == self.letters else self.from_canonical(letters)

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._canonical_letters == other._canonical_letters

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._canonical_letters))

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return self.letters


class GeodesicWord(CyclicWord):
    """Cyclic word over {L, R} naming a conjugacy class in PSL(2, Z)."""

    _alphabet = frozenset("LR")


# Letters per block of word_to_matrix, and the block products its memo
# keeps: 4096 blocks of 64 letters hold about 1 MB.
_BLOCK = 64
_BLOCK_MEMO_CAP = 4096


@lru_cache(maxsize=_BLOCK_MEMO_CAP)
def _block_product(block: str) -> "tuple[int, int, int, int]":
    """Entries of the product over one block, one column addition per letter.

    Right-multiplying by L adds the first column to the second, by R the
    second to the first.
    """
    a, b, c, d = 1, 0, 0, 1
    for ch in block:
        if ch == "L":
            b += a
            d += c
        else:
            a += b
            c += d
    return a, b, c, d


def _product(m: "tuple[int, int, int, int]",
             n: "tuple[int, int, int, int]") -> "tuple[int, int, int, int]":
    a, b, c, d = m
    e, f, g, h = n
    return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h


def word_to_matrix(word: "GeodesicWord | str") -> MatrixPSL2Z:
    """Left-to-right product of L = (1 1; 0 1) and R = (1 0; 1 1) over the word.

    The word is cut into blocks of _BLOCK letters.  Each block's entries
    come from _block_product, memoised on the block's letters.  A
    cutting word is Sturmian, with only k + 1 distinct factors of each
    length k, so a few dozen blocks serve whole families of words.  The
    memo keeps the _BLOCK_MEMO_CAP blocks used last, so it never holds
    more than about 1 MB.

    The block matrices are multiplied by a balanced product tree:
    neighbours are paired level by level, an odd last one carried up.
    Entries grow by at most about 0.7 bits per letter, so the factors
    that meet at each level have similar sizes, and with CPython's
    Karatsuba multiplication the tree costs O(n^1.59) for n letters,
    most of it in the top level.  Adding columns one letter at a time
    costs O(n^2) instead: n additions of integers as long as the product.

    The entries are normalized once, at the end.  Words in positive
    powers of L and R give matrices with nonnegative entries; the trace
    depends only on the rotation class.
    """
    if isinstance(word, str):
        word = GeodesicWord(word)
    letters = word.letters
    level = [
        _block_product(letters[start:start + _BLOCK])
        for start in range(0, len(letters), _BLOCK)
    ]
    while len(level) > 1:
        paired = list(map(_product, level[::2], level[1::2]))
        if len(level) % 2:
            paired.append(level[-1])
        level = paired
    return MatrixPSL2Z(*level[0])


def _require_hyperbolic(t: int) -> None:
    """Raise unless t > 2, the trace of a hyperbolic element."""
    if t == 2:
        raise ParabolicError("trace 2 is parabolic: no closed geodesic")
    if t < 2:
        raise EllipticError(f"trace {t} < 2 is elliptic or the identity")


def geodesic_length(t: int) -> float:
    """Length 2*ln((t + sqrt(t^2 - 4))/2) of the closed geodesic of trace t.

    A double within a few ulps of the exact length for any integer
    trace: beyond floating-point range the square root factor is 1 to
    double precision and ln of the unbounded integer is taken directly.
    """
    _require_hyperbolic(t)
    if t.bit_length() <= 500:
        x = float(t)
        return 2.0 * math.log((x + math.sqrt(x * x - 4.0)) / 2.0)
    # (t + sqrt(t^2-4))/2 = t to within 1 part in t^2 here
    return 2.0 * math.log(t)


def field_discriminant(m: MatrixPSL2Z) -> int:
    """Squarefree d with Q(sqrt(t^2 - 4)) = Q(sqrt(d)), t the trace of m.

    The eigenvalues (t +- sqrt(t^2 - 4))/2 of m generate this field.  It
    takes the matrix because perfbench's traced run reads its trace.  A
    trace t <= 2 raises ParabolicError or EllipticError; otherwise d is
    arith.trace_discriminant(t), whose module says how it is found.
    """
    t = m.trace()
    _require_hyperbolic(t)
    return trace_discriminant(t)
