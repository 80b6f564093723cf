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

import bisect
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


_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_WITNESS_PRODUCT = math.prod(_MR_WITNESSES)

# psi_k, the least strong pseudoprime to the first k prime bases, for
# k = 1..7, 9, 12, 13 (psi_8 = psi_7 and psi_11 = psi_10 = psi_9), and
# the number of bases proven sufficient below each (Jaeschke, Math.
# Comp. 1993, up to psi_8; Jiang and Deng, Math. Comp. 2014, for psi_9;
# Sorenson and Webster, Math. Comp. 2017, for psi_12 and psi_13), then
# all 13 above psi_13.  psi_12 = 399165290221 * 798330580441.
_MR_BOUNDS = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)
_MR_BASES = (1, 2, 3, 4, 5, 6, 7, 9, 12, 13, 13)


def _is_prime(n: int) -> bool:
    """Miller-Rabin on the shortest witness prefix proven for n's size.

    Below psi_k the first k primes are proven to be enough, so the
    answer is exact below psi_13 = 3.3e24; above it all 13 witnesses
    are used and an accepted n is only a strong probable prime.
    """
    if n < 2:
        return False
    if math.gcd(n, _WITNESS_PRODUCT) != 1:
        return n in _MR_WITNESSES
    d = n - 1
    r = ((d & -d).bit_length()) - 1
    d >>= r
    for a in _MR_WITNESSES[:_MR_BASES[bisect.bisect_right(_MR_BOUNDS, n)]]:
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

# Brent cycle length at which rho gives way to ECM, about 2^12 steps in
# all.  Rho finds a factor p in about sqrt(p) steps, so it keeps the
# factors below about 2^24, where it is cheaper than a first curve.
_RHO_MAX_CYCLE = 1 << 10


def _pollard_rho(n: int) -> "int | None":
    """A nontrivial factor of an odd composite n, or None if rho finds none.

    Pollard's rho with Brent's cycle finding (Brent 1980): the
    differences x - y are multiplied together modulo n and one gcd is
    taken per batch of _RHO_BATCH steps.  When a batch product reaches a
    multiple of n, its steps are replayed one gcd at a time.  The walk
    stops once its cycle length passes _RHO_MAX_CYCLE.
    """
    y, r, q, g = 2, 1, 1, 1
    while g == 1:
        if r > _RHO_MAX_CYCLE:
            return None
        x = y
        for _ in range(r):
            y = (y * y + 1) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(_RHO_BATCH, r - k)):
                y = (y * y + 1) % n
                q = q * (x - y) % n
            g = math.gcd(q, n)
            k += _RHO_BATCH
        r *= 2
    if g == n:
        g = 1
        while g == 1:
            ys = (ys * ys + 1) % n
            g = math.gcd(x - ys, n)
    return None if g == n else g


# ECM schedule: the first stage-1 bound (even, and above 200 so that
# stage-2 windows stay narrower than it), the curves run at each bound
# before it doubles, the doublings before it stays at 614 400 (a plan
# there takes 50 MB to build and keeps 7 MB), and each stage-2 bound as
# a multiple of its stage-1 bound.
_ECM_B1 = 300
_ECM_CURVES_PER_B1 = 4
_ECM_DOUBLINGS = 11
_ECM_B2_RATIO = 50


def _sieve(size: int) -> bytearray:
    """Sieve of Eratosthenes: byte i is 1 exactly when i is prime, 0 <= i < size."""
    sieve = bytearray([1]) * size
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(size - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, size, p)))
    return sieve


@lru_cache(maxsize=None)
def _ecm_plan(b1: int) -> "tuple[tuple[int, ...], int, int, tuple[bytes, ...]]":
    """Stage-1 prime powers, half window d, first window centre and windows.

    Stage 1 multiplies by p^floor(log_p b1) for each prime p <= b1.
    Stage 2 covers the primes q in (b1, _ECM_B2_RATIO * b1] by windows of
    width 4d centred on r = r0, r0 + 4d, ...: each q = r +- (2j + 1) with
    0 <= j < d, and a window's byte j is 1 when r - (2j + 1) or
    r + (2j + 1) is prime.
    """
    b2 = _ECM_B2_RATIO * b1
    d = math.isqrt(b2) // 2
    sieve = _sieve(b2 + 4 * d)
    powers = []
    for p in itertools.compress(range(b1 + 1), sieve[:b1 + 1]):
        power = p
        while power * p <= b1:
            power *= p
        powers.append(power)
    r0 = b1 + 2 * d
    windows = []
    for r in range(r0, b2 + 2 * d, 4 * d):
        below = int.from_bytes(sieve[r - 1:r - 2 * d:-2], "big")
        above = int.from_bytes(sieve[r + 1:r + 2 * d:2], "big")
        windows.append((below | above).to_bytes(d, "big"))
    return tuple(powers), d, r0, tuple(windows)


def _ladder(k: int, x: int, z: int, a24: int, n: int) -> "tuple[int, int]":
    """(X : Z) of k*P for P = (x : z) on a Montgomery curve mod n, k >= 1.

    The curve is b*y^2 = x^3 + a*x^2 + x with a24 = (a + 2)/4; only X
    and Z are carried.  From (O, P), O = (1 : 0), each bit of k takes one
    step that adds the two points, whose difference is P, and doubles the
    first; a 1 bit swaps them before and after.  The first step scales P
    by 4xz, a unit mod n whenever x and z are.
    """
    x0, z0, x1, z1 = 1, 0, x, z
    for bit in bin(k)[2:]:
        if bit == "1":
            x0, z0, x1, z1 = x1, z1, x0, z0
        p0, m0, p1, m1 = x0 + z0, x0 - z0, x1 + z1, x1 - z1
        u, v = m0 * p1, p0 * m1
        xs, zs = u + v, u - v
        x1, z1 = z * xs * xs % n, x * zs * zs % n
        s, t = p0 * p0 % n, m0 * m0 % n
        w = s - t
        x0, z0 = s * t % n, w * (t + a24 * w) % n
        if bit == "1":
            x0, z0, x1, z1 = x1, z1, x0, z0
    return x0, z0


def _add(p: "tuple[int, int]", q: "tuple[int, int]", diff: "tuple[int, int]",
         n: int) -> "tuple[int, int]":
    """(X : Z) of P + Q on a Montgomery curve mod n, given P - Q."""
    u = (p[0] - p[1]) * (q[0] + q[1])
    v = (p[0] + p[1]) * (q[0] - q[1])
    return diff[1] * (u + v) ** 2 % n, diff[0] * (u - v) ** 2 % n


def _ecm(n: int) -> int:
    """A nontrivial factor of a composite n with no factor below 1000.

    Lenstra's elliptic curve method (Ann. Math. 1987) on Montgomery
    curves with Suyama's parametrisation, sigma = 6, 7, 8, ...
    (Montgomery, Math. Comp. 1987).  Stage 1 multiplies a starting
    point by the prime powers of _ecm_plan, giving Q; if every factor of
    n falls at once, the powers are retaken one at a time.  Stage 2, the
    standard continuation, multiplies x(rQ)z(sQ) - x(sQ)z(rQ) over the
    window centres r and odd offsets s = 2j + 1 of _ecm_plan; a factor
    vanishes modulo p when the order of Q mod p is a prime r +- s.  A
    curve whose gcd is n is passed over.  The stage-1 bound starts at
    _ECM_B1 and doubles every _ECM_CURVES_PER_B1 curves, _ECM_DOUBLINGS
    times at most; every factor is still reached, since each further
    curve at the last bound has the same chance of finding it.
    """
    for curve in itertools.count():
        doublings = min(curve // _ECM_CURVES_PER_B1, _ECM_DOUBLINGS)
        powers, d, r0, windows = _ecm_plan(_ECM_B1 << doublings)
        sigma = 6 + curve
        u, v = sigma * sigma - 5, 4 * sigma
        x, z = u**3 % n, v**3 % n
        try:
            a24 = pow(v - u, 3, n) * (3 * u + v) * pow(16 * x * v, -1, n) % n
        except ValueError:
            g = math.gcd(16 * x * v, n)
            if g != n:
                return g
            continue
        q = _ladder(math.prod(powers), x, z, a24, n)
        g = math.gcd(q[1], n)
        if g == n:
            # every prime factor of n at once: take the powers one by one
            q = x, z
            for power in powers:
                q = _ladder(power, *q, a24, n)
                g = math.gcd(q[1], n)
                if g != 1:
                    break
        if g != 1:
            if g != n:
                return g
            continue
        # baby steps: s*Q for the odd s = 2j + 1 < 2d
        q2 = _ladder(2, *q, a24, n)
        baby = [q, _add(q2, q, q, n)]
        for _ in range(2, d):
            baby.append(_add(baby[-1], q2, baby[-2], n))
        # giant steps: r*Q for r = r0, r0 + 4d, ..., each from the last two
        step = _ladder(4 * d, *q, a24, n)
        prev = _ladder(r0 - 4 * d, *q, a24, n)
        here = _ladder(r0, *q, a24, n)
        acc = 1
        for window in windows:
            rx, rz = here
            for bx, bz in itertools.compress(baby, window):
                acc = acc * (rx * bz - bx * rz) % n
            # one gcd per window: a window is narrower than b1, so it
            # meets one multiple at most of a prime order above b1, and
            # a square p^2 yields p, not p^2
            g = math.gcd(acc, n)
            if g != 1:
                break
            prev, here = here, _add(here, step, prev, n)
        if 1 < g < n:
            return g


def _integer_root(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 1, by Newton's method from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _perfect_power(m: int) -> "tuple[int, int] | None":
    """(r, k) with r**k == m and k >= 2, or None; m has no factor below 1000.

    Every prime factor of m is then at least 1009 > 2^9, so m >= 2^(9k)
    and k is at most (m.bit_length() - 1) // 9.
    """
    for k in range(2, (m.bit_length() - 1) // 9 + 1):
        r = _integer_root(m, k)
        if r**k == m:
            return r, k
    return None


# The primes trial division removes, and their product: n shares with
# it exactly the primes below 1000 that divide n.
_TRIAL_PRIMES = tuple(itertools.compress(range(1000), _sieve(1000)))
_TRIAL_PRODUCT = math.prod(_TRIAL_PRIMES)


def _odd_primes(n: int) -> set[int]:
    """The primes that divide n to an odd power; empty for n < 2.

    Their product is the squarefree part of n.  Trial division (one gcd
    with the product of the primes below 1000, then division by the
    primes it shares), Brent's rho and then ECM split n into primes, and
    each prime met toggles its membership, so one met an even number of
    times drops out.  A perfect power r^k is split first: dropped when k
    is even, counted as r once when k is odd, so no square root is
    factored.  Rho and ECM cannot split one: on p^2 and p^3 rho can
    return no factor, and every curve of ECM can meet p^k whole, so that
    its gcd is n on every curve.
    """
    odd: set[int] = set()
    if n < 2:  # every prime divides 0, so 0 would never leave the loop
        return odd
    g = math.gcd(n, _TRIAL_PRODUCT)
    for p in _TRIAL_PRIMES:
        if g == 1:
            break
        if g % p == 0:
            g //= p
            while n % p == 0:
                n //= p
                odd ^= {p}
    pending = [n] if n > 1 else []
    while pending:
        m = pending.pop()
        if _is_prime(m):
            odd ^= {m}
            continue
        power = _perfect_power(m)
        if power is not None:
            root, k = power
            if k % 2:
                pending.append(root)
            continue
        f = _pollard_rho(m) or _ecm(m)
        pending.extend((m // f, f))
    return odd


# Traces kept by the discriminant memo.  A census to depth D meets
# 2^(D-2) + 1 distinct traces (129 at depth 9), so this covers depth 14.
_DISCRIMINANT_CACHE_SIZE = 4096


def field_discriminant(m: MatrixPSL2Z) -> int:
    """Squarefree d with Q(sqrt(trace^2 - 4)) = Q(sqrt(d)).

    The eigenvalues (t +- sqrt(t^2 - 4))/2 generate this real quadratic
    field, and d is the product of the primes that divide exactly one
    of t - 2 and t + 2 to an odd power.  Factoring t - 2 and t + 2
    separately halves the size of the numbers factored, each by trial
    division (one gcd with the product of the primes below 1000, then
    division by the primes it shares), Brent's rho and then the elliptic
    curve method; the cost grows with the second-largest prime factor,
    and no budget bounds it.  Factoring returns only the primes of odd
    exponent, so the root of a perfect square, such as the Fibonacci and
    Lucas factors of the traces of (LR)^n, is never factored.  Results
    are memoised per trace in a bounded LRU cache of
    _DISCRIMINANT_CACHE_SIZE entries, so classes that share a trace are
    factored once.

    The result is proven only while every cofactor that _is_prime
    accepts lies below psi_13 = 3.3e24, where the Miller-Rabin witness
    prefix proven for its size (13 bases at most) is deterministic; a
    larger accepted cofactor is only a strong probable prime, so d is
    exact only if that cofactor is prime.  Each d is checked exactly:
    it divides t^2 - 4 with a perfect-square quotient, which a lost or
    miscounted prime breaks; a d that is not squarefree, possible only
    if a probable prime has a square factor, passes the check.
    """
    t = m.trace()
    _require_hyperbolic(t)
    return _trace_discriminant(t)


@lru_cache(maxsize=_DISCRIMINANT_CACHE_SIZE)
def _trace_discriminant(t: int) -> int:
    """Squarefree part of (t - 2)(t + 2) for a hyperbolic trace t > 2.

    Checked exactly before it is returned: d divides t^2 - 4 and the
    quotient is a perfect square, else RuntimeError names t and d.
    """
    # gcd(t - 2, t + 2) divides 4, so the two sets can share only 2
    d = math.prod(_odd_primes(t - 2) ^ _odd_primes(t + 2))
    square, rest = divmod(t * t - 4, d)
    if rest or math.isqrt(square) ** 2 != square:
        raise RuntimeError(f"trace {t}: {d} is not the squarefree part of t^2 - 4")
    return d
