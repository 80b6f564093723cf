"""Words in the parabolic generators L, R and their PSL(2, Z) matrices.

A cyclic word over {L, R} containing both letters determines a
hyperbolic conjugacy class; its trace is invariant under rotation of the
word, the translation length of the closed geodesic is a function of
the trace alone, and trace^2 - 4 determines the real quadratic field of
the axis endpoints.  Matrices are exact (Python integers are unbounded)
and are kept in a normalized sign convention so that equality of values
is equality in PSL(2, Z).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import ClassVar


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
            a, b, c, d = -a, -b, -c, -d
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

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

        The caller vouches for the spelling, so the word is never scanned.
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


def word_to_matrix(word: "GeodesicWord | str") -> MatrixPSL2Z:
    """Left-to-right product of L = (1 1; 0 1) and R = (1 0; 1 1) over the word.

    The product is accumulated on four plain integers, one column
    addition per letter (right-multiplying by L adds the first column to
    the second, by R the second to the first), and normalized once at
    the end.  Words in positive powers of L and R give matrices with
    nonnegative entries; the trace depends only on the rotation class.
    """
    if isinstance(word, str):
        word = GeodesicWord(word)
    a, b, c, d = 1, 0, 0, 1
    for ch in word.letters:
        if ch == "L":
            b += a
            d += c
        else:
            a += b
            c += d
    return MatrixPSL2Z(a, b, c, d)


def _require_hyperbolic(t: int) -> None:
    """Raise unless t > 2, the trace of a hyperbolic element."""
    if t == 2:
        raise ParabolicError("trace 2 is parabolic: no closed geodesic")
    if t < 2:
        raise EllipticError(f"trace {t} < 2 is elliptic or the identity")


def trace_length(t: int) -> float:
    """Translation length 2*ln((t + sqrt(t^2 - 4))/2) of a trace-t element.

    Exact for any integer trace: beyond floating-point range the square
    root factor is 1 to double precision and ln of the unbounded integer
    is taken directly, preserving at least 12 significant digits.
    """
    _require_hyperbolic(t)
    if t.bit_length() <= 500:
        x = float(t)
        return 2.0 * math.log((x + math.sqrt(x * x - 4.0)) / 2.0)
    # (t + sqrt(t^2-4))/2 = t to within 1 part in t^2 here
    return 2.0 * math.log(t)


def geodesic_length(m: MatrixPSL2Z) -> float:
    """Length of the closed geodesic of a hyperbolic matrix."""
    return trace_length(m.trace())


_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Miller-Rabin; the fixed witness set is deterministic below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = ((d & -d).bit_length()) - 1
    d >>= r
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# Rho steps per batched gcd; batches of 32 and 512 measured no faster.
_RHO_BATCH = 128


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of an odd composite n with no tiny divisors.

    Pollard's rho with Brent's cycle finding (Brent 1980): the
    differences x - y are multiplied together modulo n and one gcd is
    taken per batch of _RHO_BATCH steps.  When a batch product reaches a
    multiple of n, its steps are replayed one gcd at a time.
    """
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


def _factorize(n: int) -> dict[int, int]:
    """Prime factorization: trial division, then Pollard rho above 10^6."""
    factors: dict[int, int] = {}
    for d in (2, 3, 5):
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
    d = 7
    while d * d <= n and d < 1000:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 2
    pending = [n] if n > 1 else []
    while pending:
        m = pending.pop()
        if m == 1:
            continue
        if _is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        f = _pollard_rho(m)
        pending.extend((f, m // f))
    return factors


# Traces kept by the discriminant memo.  A census to depth D meets
# 2^(D-2) + 1 distinct traces (129 at depth 9), so this covers depth 14.
_DISCRIMINANT_CACHE_SIZE = 4096


def field_discriminant(m: MatrixPSL2Z) -> int:
    """Squarefree d with Q(sqrt(trace^2 - 4)) = Q(sqrt(d)).

    The eigenvalues (t +- sqrt(t^2 - 4))/2 generate this real quadratic
    field.  Factoring t - 2 and t + 2 separately halves the size of
    the numbers factored; cost still grows quickly with word length,
    and no budget bounds it.  Results are memoised per trace in a
    bounded LRU cache of _DISCRIMINANT_CACHE_SIZE entries, so classes
    that share a trace are factored once.

    The result is proven only while every cofactor that _is_prime
    accepts lies below 3.3e24, where its fixed Miller-Rabin witnesses
    are deterministic; a larger accepted cofactor is only a strong
    probable prime, so d is exact only if that cofactor is prime.
    """
    t = m.trace()
    _require_hyperbolic(t)
    return _trace_discriminant(t)


@lru_cache(maxsize=_DISCRIMINANT_CACHE_SIZE)
def _trace_discriminant(t: int) -> int:
    """Squarefree part of (t - 2)(t + 2) for a hyperbolic trace t > 2."""
    merged = _factorize(t - 2)
    for prime, exp in _factorize(t + 2).items():
        merged[prime] = merged.get(prime, 0) + exp
    return math.prod(prime for prime, exp in merged.items() if exp % 2)
