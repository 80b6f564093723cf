"""Primality and factoring, for the squarefree part of t^2 - 4.

trace_discriminant(t), the only public name, gives the squarefree d
with Q(sqrt(t^2 - 4)) = Q(sqrt(d)) for a trace t > 2.  As gcd(t - 2,
t + 2) divides 4, each is factored alone: trial division by one gcd
with the product of the primes below 1000, Brent's rho, then the
elliptic curve method.  Only the primes of odd exponent are kept, and
perfect powers are split first, so no square root is factored.  The
cost grows with the second-largest prime factor; no budget bounds it.

Miller-Rabin is proven on each cofactor below psi_13 = 3.3e24; a larger
one it accepts is only a strong probable prime, and d is then exact only
if that cofactor is prime.  Results are memoised per trace and checked
against t^2 - 4, which catches a lost or miscounted prime but not a d
keeping the square factor of a false probable prime.
"""

import bisect
import itertools
import math
from functools import lru_cache


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

    Exact below psi_13 = 3.3e24; above it True means a strong probable prime.
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

    Their product is the squarefree part of n.  Trial division, rho and
    ECM split n into primes, and each prime met toggles its membership,
    so one met an even number of times drops out.  A perfect power r^k
    is split first: dropped when k is even, counted as r once when k is
    odd, so no square root is factored.  Rho and ECM cannot split one:
    on p^2 and p^3 rho can return no factor, and every curve of ECM can
    meet p^k whole, so that its gcd is n on every curve.
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


@lru_cache(maxsize=_DISCRIMINANT_CACHE_SIZE)
def trace_discriminant(t: int) -> int:
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
