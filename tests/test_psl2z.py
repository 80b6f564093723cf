"""Matrix, cyclic-word, length and discriminant tests.

The discriminant tests also test the primality and factoring helpers of
modlink.arith, which field_discriminant reaches; newer tests of those
helpers are in test_arith.py.

Independent oracles used here: brute-force minimal rotation (all
rotations, pick min) against the linear-time routine, an 80-digit
Decimal evaluation of 2*ln((t + sqrt(t^2 - 4))/2) against the float
trace-length code on both sides of its big-integer switchover, the
product of the generator matrices L and R, multiplied as entry tuples,
against the integer word kernel, and sympy's factorint against the
primes of odd exponent that the Miller-Rabin + Brent rho + ECM
factorizer returns and as the squarefree-part oracle for discriminants.
Where factorint takes seconds (two prime factors of 28 bits or more),
the answer is known by construction from primes sympy draws, or checked
to be the only possible one: every element passes sympy's isprime, and
dividing n by their product leaves a perfect square.
"""

import collections
import decimal
import functools
import itertools
import math
import random

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from modlink import arith, psl2z
from modlink.cutting import slope_to_word
from modlink.farey import Slope
from modlink.links import _tower_word, build_family
from modlink.psl2z import (
    CyclicWord,
    EllipticError,
    GeodesicWord,
    MatrixPSL2Z,
    ParabolicError,
    field_discriminant,
    geodesic_length,
    least_rotation,
    word_to_matrix,
)

U = MatrixPSL2Z(0, -1, 1, 0)  # order two, trace 0
V = MatrixPSL2Z(0, -1, 1, -1)  # order three, trace 1

_GENERATOR_ENTRIES = {"L": (1, 1, 0, 1), "R": (1, 0, 1, 1)}


def _mul(m: tuple, n: tuple) -> tuple:
    """Product of two 2x2 matrices given as entry tuples (a, b, c, d)."""
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _entries(m: MatrixPSL2Z) -> tuple:
    return (m.a, m.b, m.c, m.d)


def _generator_product(letters: str) -> MatrixPSL2Z:
    """Reference construction: multiply one generator matrix per letter."""
    entries = map(_GENERATOR_ENTRIES.__getitem__, letters)
    return MatrixPSL2Z(*functools.reduce(_mul, entries, (1, 0, 0, 1)))


def _sympy_odd_primes(n: int) -> set:
    """The primes dividing n >= 1 to an odd power, by sympy."""
    return {p for p, e in sympy.factorint(n).items() if e % 2}


def _squarefree_part(n: int) -> int:
    """Product of the primes dividing n to an odd power, by sympy."""
    return math.prod(_sympy_odd_primes(n))


# -------------------------------------------------------------- matrices


def test_matrix_validation_and_sign_normalization():
    with pytest.raises(ValueError):
        MatrixPSL2Z(1, 1, 1, 1)  # det 0
    with pytest.raises(ValueError):
        MatrixPSL2Z(1, 0, 0, -1)  # det -1
    assert MatrixPSL2Z(-2, -1, -1, -1) == MatrixPSL2Z(2, 1, 1, 1)
    # trace zero: first nonzero of (a, b, c) made positive
    assert MatrixPSL2Z(0, -1, 1, 0) == MatrixPSL2Z(0, 1, -1, 0)
    assert MatrixPSL2Z(0, 1, -1, 0).b == 1
    assert MatrixPSL2Z(1, 5, 0, 1).trace() == 2


def test_worked_matrices_and_traces():
    lr = word_to_matrix("LR")
    assert (lr.a, lr.b, lr.c, lr.d) == (2, 1, 1, 1)
    llrr = word_to_matrix("LLRR")
    assert (llrr.a, llrr.b, llrr.c, llrr.d) == (5, 2, 2, 1)
    m1 = word_to_matrix("LRLLRR")
    assert (m1.a, m1.b, m1.c, m1.d) == (12, 5, 7, 3)
    m2 = word_to_matrix("LRRLLR")
    assert (m2.a, m2.b, m2.c, m2.d) == (10, 7, 7, 5)
    assert lr.trace() == 3
    assert llrr.trace() == 6
    assert m1.trace() == m2.trace() == 15
    assert m1 != m2  # equal traces, distinct classes


@given(st.text(alphabet="LR", min_size=0, max_size=12))
def test_word_products_associate_through_any_split(letters):
    if not letters:
        return
    whole = word_to_matrix(letters)
    for cut in range(1, len(letters)):
        left = word_to_matrix(letters[:cut])
        right = word_to_matrix(letters[cut:])
        assert MatrixPSL2Z(*_mul(_entries(left), _entries(right))) == whole


def _words_of_length(n: int):
    return st.text(alphabet="LR", min_size=n, max_size=n)


# lengths 1-700, with the block edges 64k - 1, 64k and 64k + 1 drawn often
_WORD_LENGTHS = st.one_of(
    st.integers(1, 700),
    st.builds(lambda k, e: 64 * k + e, st.integers(1, 10), st.sampled_from((-1, 0, 1))),
)


@given(_WORD_LENGTHS.flatmap(_words_of_length))
def test_word_to_matrix_matches_generator_product(letters):
    assert word_to_matrix(letters) == _generator_product(letters)


@given(
    st.integers(1, 70).flatmap(_words_of_length),
    st.integers(200, 700),
)
def test_word_to_matrix_on_periodic_words(period, length):
    # repeated blocks are served from the block memo
    letters = (period * (length // len(period) + 1))[:length]
    assert word_to_matrix(letters) == _generator_product(letters)


def test_block_memo_is_bounded_by_its_cap():
    # 5000 distinct blocks, the binary spellings of 0..4999 in L and R,
    # eight to a word: the memo fills to its cap and stays there
    cap = psl2z._BLOCK_MEMO_CAP
    blocks = [format(i, "064b").translate({48: "L", 49: "R"}) for i in range(5000)]
    assert len(set(blocks)) > cap and {len(b) for b in blocks} == {psl2z._BLOCK}
    sizes = []
    for start in range(0, len(blocks), 8):
        letters = "".join(blocks[start:start + 8])
        assert word_to_matrix(letters) == _generator_product(letters)
        sizes.append(psl2z._block_product.cache_info().currsize)
    assert max(sizes) == cap == sizes[-1]


def _matrix_power(m: tuple, k: int) -> tuple:
    """m^k of an entry tuple by repeated squaring."""
    result = (1, 0, 0, 1)
    while k:
        if k & 1:
            result = _mul(result, m)
        m = _mul(m, m)
        k >>= 1
    return result


def test_long_tower_word_trace_by_repeated_squaring():
    # 200 000 letters: a product taken one letter at a time is quadratic
    # in the length and takes about 1 s with Python 3.11, the block tree
    # about 0.1 s
    n = 100_000
    letters = _tower_word(n)
    assert len(letters) == 2 * n
    llrr = _entries(_generator_product("LLRR"))
    a, _, _, d = _mul(llrr, _matrix_power(_entries(_generator_product("LR")), n - 2))
    assert word_to_matrix(letters).trace() == a + d


def test_word_to_matrix_matches_generator_product_on_a_long_word():
    letters = slope_to_word(Slope(10007, 7777)).letters
    assert len(letters) == 20014
    assert word_to_matrix(letters) == _generator_product(letters)


def test_trace_is_rotation_invariant_for_all_short_words():
    for n in range(2, 11):
        for letters in map("".join, itertools.product("LR", repeat=n)):
            t = word_to_matrix(letters).trace()
            for k in range(1, n):
                assert word_to_matrix(letters[k:] + letters[:k]).trace() == t


# ---------------------------------------------------------- cyclic words


def _brute_least_rotation(s: str) -> str:
    return min(s[i:] + s[:i] for i in range(len(s)))


def test_least_rotation_exhaustive_to_length_8():
    for n in range(1, 9):
        for letters in map("".join, itertools.product("LR", repeat=n)):
            assert least_rotation(letters) == _brute_least_rotation(letters)


@given(st.text(alphabet="LRAB", min_size=1, max_size=40))
def test_least_rotation_random(s):
    assert least_rotation(s) == _brute_least_rotation(s)


def _fibonacci_word(length: int) -> str:
    shorter, longer = "L", "LR"
    while len(longer) < length:
        shorter, longer = longer, longer + shorter
    return longer


@pytest.mark.parametrize("slope", ["1597/987", "1999/1000", "1/2000", "2000/1"])
def test_least_rotation_of_rotated_cutting_words(slope):
    letters = slope_to_word(Slope.parse(slope)).letters
    n = len(letters)
    for k in (0, 1, n // 3, n // 2, n - 1):
        rotated = letters[k:] + letters[:k]
        assert least_rotation(rotated) == _brute_least_rotation(rotated) == letters


@pytest.mark.parametrize(
    "letters",
    ["LR" * 500, "LLR" * 300, "L" * 1000 + "R", "R" + "L" * 1000, _fibonacci_word(4181)],
    ids=["LR-power", "LLR-power", "L-run-then-R", "R-then-L-run", "fibonacci-4181"],
)
def test_least_rotation_long_structured_words(letters):
    assert least_rotation(letters) == _brute_least_rotation(letters)


def test_least_rotation_empty_and_single_letters():
    assert least_rotation("") == ""
    for letter in "LRAB":
        assert least_rotation(letter) == _brute_least_rotation(letter) == letter


def test_cyclic_word_semantics():
    w = GeodesicWord("RLL")
    assert w == GeodesicWord("LLR") == GeodesicWord("LRL")
    assert w.canonical().letters == "LLR"
    assert hash(w) == hash(GeodesicWord("LRL"))
    assert len(w) == 3 and str(w) == "RLL"
    assert w != GeodesicWord("LLRR")
    with pytest.raises(ValueError):
        GeodesicWord("LRX")
    with pytest.raises(ValueError):
        GeodesicWord("")
    with pytest.raises(ValueError):
        CyclicWord("L")  # base class admits no letters


def test_canonical_word_is_never_rescanned(monkeypatch):
    calls = []

    def counting(s):
        calls.append(s)
        return least_rotation(s)

    monkeypatch.setattr(psl2z, "least_rotation", counting)
    already = GeodesicWord("LLR")
    assert already.canonical() is already
    w = GeodesicWord("RLL")
    c = w.canonical()
    assert c.letters == "LLR" and calls == ["LLR", "RLL"]
    assert c == w and c == already and hash(c) == hash(w)
    assert c.canonical() is c
    assert calls == ["LLR", "RLL"]


def test_word_from_canonical_letters_is_never_scanned(monkeypatch):
    calls = []

    def counting(s):
        calls.append(s)
        return least_rotation(s)

    monkeypatch.setattr(psl2z, "least_rotation", counting)
    w = GeodesicWord.from_canonical("LLR")
    assert type(w) is GeodesicWord and w.letters == "LLR"
    assert w.canonical() is w and w == GeodesicWord.from_canonical("LLR")
    assert hash(w) == hash(GeodesicWord.from_canonical("LLR"))
    assert calls == []
    with pytest.raises(ValueError):
        GeodesicWord.from_canonical("LLX")


def test_power_words_are_parabolic():
    for letters in ["L", "R", "LLL", "RRRR"]:
        assert word_to_matrix(letters).trace() == 2
        with pytest.raises(ParabolicError):
            geodesic_length(word_to_matrix(letters).trace())


# --------------------------------------------------------------- lengths


def _decimal_length(t: int) -> float:
    with decimal.localcontext(decimal.Context(prec=80)):
        td = decimal.Decimal(t)
        root = (td * td - 4).sqrt()
        return float(2 * ((td + root) / 2).ln())


def test_trace_length_against_decimal_oracle():
    cases = [3, 4, 5, 6, 15, 103, 2**40 + 7, 10**100 + 9,
             2**499 + 3, 2**500 - 1, 2**500 + 1, 2**501 + 5, 3**400, 10**200 + 9]
    for t in cases:
        expected = _decimal_length(t)
        assert geodesic_length(t) == pytest.approx(expected, rel=1e-12), t


def test_trace_length_agrees_with_acosh_form():
    for t in itertools.chain(range(3, 2000), range(2001, 10**6, 7919)):
        assert abs(geodesic_length(t) - 2.0 * math.acosh(t / 2.0)) < 1e-10


def test_trace_length_frozen_anchor():
    # length of the trace-3 class, 2*ln((3 + sqrt(5))/2)
    assert geodesic_length(3) == pytest.approx(1.9248473002384139, abs=1e-15)


def test_trace_length_rejects_non_hyperbolic():
    with pytest.raises(ParabolicError):
        geodesic_length(2)
    for t in (1, 0, -1, -5):
        with pytest.raises(EllipticError):
            geodesic_length(t)
    with pytest.raises(EllipticError):
        geodesic_length(U.trace())  # trace 0
    with pytest.raises(EllipticError):
        geodesic_length(V.trace())  # trace 1


# --------------------------------------------------------- discriminants


def test_factorization_reconstructs_inputs():
    from modlink.arith import _is_prime, _odd_primes

    primes = [p for p in range(2, 200) if all(p % d for d in range(2, p))]
    for p in range(2, 200):
        assert _is_prime(p) == (p in primes)
    assert _is_prime(2**61 - 1)  # Mersenne prime
    assert not _is_prime(2**67 - 1)  # composite Mersenne
    cases = list(range(2, 500)) + [
        10**12 + 39,
        (2**31 - 1) * (2**61 - 1),
        6 * 10**20 + 4,
        97**4 * 89**3,
    ]
    for n in cases:
        assert all(map(_is_prime, _checked_odd_primes(n))), n
    assert _odd_primes(97**4 * 89**3) == {89}


# psi_k, the least strong pseudoprime to the first k prime bases, for
# k = 1..7, 9, 12, 13 (Jaeschke 1993; Jiang and Deng 2014; Sorenson and
# Webster 2017)
_PSI = (
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
_PSI_12 = _PSI[8]


def test_is_prime_rejects_the_strong_pseudoprime_at_each_witness_bound():
    # psi_13 passes all 13 witnesses and lies where _is_prime no longer
    # claims a proof, so it is left out
    from modlink.arith import _is_prime, _odd_primes

    for psi in _PSI[:-1]:
        assert not sympy.isprime(psi)
        assert not _is_prime(psi), psi
    assert 399165290221 * 798330580441 == _PSI_12
    assert _odd_primes(_PSI_12) == {399165290221, 798330580441}


# a few draws near each shape _is_prime meets: any integer, primes, and
# products p(2p - 1) and p(4p - 3), a common shape of strong pseudoprimes
_SMALLER_PRIMES = st.integers(2, 2**38).map(sympy.nextprime)


@settings(deadline=None, max_examples=300)
@given(
    st.one_of(
        st.integers(0, 2**80 - 1),
        st.integers(0, 10**6),
        st.integers(0, 2**79).map(sympy.nextprime),
        _SMALLER_PRIMES.map(lambda p: p * (2 * p - 1)),
        _SMALLER_PRIMES.map(lambda p: p * (4 * p - 3)),
    )
)
@example(_PSI_12)
@example(_PSI_12 - 2)
def test_is_prime_agrees_with_sympy_below_2_80(n):
    from modlink.arith import _is_prime

    assert _is_prime(n) == sympy.isprime(n)


def test_factorize_matches_sympy_from_1_to_5000_and_across_1000():
    # trial division's primes stop at 997
    from modlink.arith import _odd_primes

    for n in (*range(1, 5001), 997 * 1009, 997**2, 1009**3, 2**64):
        assert _odd_primes(n) == _sympy_odd_primes(n), n
    for n in (-6, -1, 0):
        assert _odd_primes(n) == set()


# primes in [10^3, 10^9]; 999 999 937 is the largest prime below 10^9
_PRIMES = st.integers(10**3, 999_999_937).map(lambda n: sympy.nextprime(n - 1))


@settings(deadline=None, max_examples=60)
@given(
    st.one_of(
        st.tuples(_PRIMES, _PRIMES).map(lambda pq: pq[0] * pq[1]),
        _PRIMES.map(lambda p: p**2),
        _PRIMES.map(lambda p: p**3),
    )
)
def test_factorize_matches_sympy(n):
    from modlink.arith import _odd_primes

    assert _odd_primes(n) == _sympy_odd_primes(n)


# primes in [2^28, 2^42], past rho's step cap, where ECM finds them;
# 2^42 - 11 is the largest prime below 2^42
_LARGE_PRIMES = st.integers(2**28, 2**42 - 11).map(lambda n: sympy.nextprime(n - 1))


@settings(deadline=None, max_examples=20)
@given(
    st.one_of(
        st.tuples(_LARGE_PRIMES, _LARGE_PRIMES).map(list),
        st.tuples(_LARGE_PRIMES, _LARGE_PRIMES).map(lambda pq: [pq[0], pq[0], pq[1]]),
    )
)
def test_factorize_products_of_large_primes(primes):
    # sympy draws the primes, so the factorization is known; factorint
    # itself spends about 0.5 s on each of these numbers
    from modlink.arith import _odd_primes

    odd = {p for p, e in collections.Counter(primes).items() if e % 2}
    assert _odd_primes(math.prod(primes)) == odd


@pytest.mark.parametrize("bits", [31, 36])
def test_factorize_prime_squares_and_cubes_above_2_30(bits):
    from modlink.arith import _odd_primes

    p = sympy.prevprime(2**bits)
    assert _odd_primes(p**2) == set()
    assert _odd_primes(p**3) == {p}
    assert _odd_primes(2 * 7**2 * p**3) == {2, p}


@pytest.mark.parametrize("k", [47, 53])
def test_perfect_power_finds_high_prime_exponents_of_1009(k):
    # 1009, the least prime trial division leaves, has 9.98 bits, so
    # 1009^47 has 469 bits and 1009^53 has 529: fewer than 10 per unit
    # of exponent
    from modlink.arith import _odd_primes, _perfect_power

    assert _perfect_power(1009**k) == (1009, k)
    assert _odd_primes(1009**k) == {1009}


def test_factorize_squares_and_cubes_of_primes_from_1009_to_5000():
    # among them 1249^2, 1277^2, 1249^3 and 1277^3, where rho finds no
    # factor and every ECM curve's gcd is n: only a perfect-power split
    # factors them
    from modlink.arith import _odd_primes

    for p in sympy.primerange(1009, 5001):
        assert _odd_primes(p**2) == set(), p
        assert _odd_primes(p**3) == {p}, p


# 33 414 406 429 * 72 861 197 861 is t + 2 of the 72-bit trace of 55/34,
# the hardest number a depth-9 census factors
_CENSUS_72_BIT = 2434613678231239448369


def _checked_odd_primes(n: int) -> set:
    """_odd_primes(n), checked to be the primes of odd exponent in n.

    Each must pass sympy's isprime, which is deterministic below 2^64,
    and n divided by their product must be a perfect square.  Distinct
    primes multiply to a squarefree number, and the squarefree part of
    n is unique, so this pins the set without sympy's factorint, which
    takes 1.8 s on _CENSUS_72_BIT alone.
    """
    from modlink.arith import _odd_primes

    odd = _odd_primes(n)
    assert [p for p in odd if not sympy.isprime(p)] == []
    square, rest = divmod(n, math.prod(odd))
    assert rest == 0 and math.isqrt(square) ** 2 == square
    return odd


def test_ladder_multiples_add_up():
    # _add(aP, bP, (a - b)P) is (a + b)P, on Montgomery curves mod the
    # prime 2^61 - 1.  Differential addition is undefined when the
    # difference is O or (0 : 1), which only points of small order
    # reach; random residues meet one with negligible probability.
    n = 2**61 - 1
    rng = random.Random(n)

    def same_point(p, q):
        return any(p) and any(q) and (p[0] * q[1] - q[0] * p[1]) % n == 0

    for _ in range(200):
        x, z, a24 = (rng.randrange(1, n) for _ in range(3))
        b, a = sorted(rng.sample(range(1, 2**40), 2))
        mult = functools.partial(arith._ladder, x=x, z=z, a24=a24, n=n)
        assert same_point(mult(1), (x, z))
        assert same_point(arith._add(mult(a), mult(b), mult(a - b), n), mult(a + b))


def test_capped_rho_hands_the_72_bit_census_number_to_ecm():
    n = _CENSUS_72_BIT
    assert arith._pollard_rho(n) is None
    g = arith._ecm(n)
    assert 1 < g < n and n % g == 0
    assert _checked_odd_primes(n) == {33414406429, 72861197861}


# t - 2 and t + 2 of the traces of 34/21, 55/34 and 89/55 (44, 72 and
# 115 bits), the three largest traces of family 89/55
@pytest.mark.parametrize(
    "n",
    [
        16586334025069,
        16586334025073,
        2434613678231239448365,
        _CENSUS_72_BIT,
        40381315689150066251526220641224740,
        40381315689150066251526220641224744,
    ],
)
def test_factorize_hard_family_numbers(n):
    _checked_odd_primes(n)


def test_family_89_55_discriminants_match_checked_factorizations():
    family = build_family(Slope(89, 55))
    assert len(family.orbits) == 10
    for record in family.orbits:
        a, b = (
            math.prod(_checked_odd_primes(n))
            for n in (record.trace - 2, record.trace + 2)
        )
        g = math.gcd(a, b)
        assert record.discriminant == a * b // (g * g)


def test_field_discriminants_of_worked_classes():
    assert field_discriminant(word_to_matrix("LR")) == 5
    assert field_discriminant(word_to_matrix("LLRR")) == 2
    assert field_discriminant(word_to_matrix("LRLLRR")) == 221
    assert field_discriminant(word_to_matrix("LRRLLR")) == 221
    with pytest.raises(ParabolicError):
        field_discriminant(word_to_matrix("L"))


def test_field_discriminant_is_memoised_per_trace():
    m1, m2 = word_to_matrix("LRLLRR"), word_to_matrix("LRRLLR")  # both trace 15
    first = field_discriminant(m1)
    hits = arith.trace_discriminant.cache_info().hits
    assert field_discriminant(m1) == field_discriminant(m2) == first == 221
    assert arith.trace_discriminant.cache_info().hits == hits + 2
    for _ in range(3):
        with pytest.raises(ParabolicError):
            field_discriminant(word_to_matrix("LL"))
        with pytest.raises(EllipticError):
            field_discriminant(V)  # trace 1
        with pytest.raises(EllipticError):
            field_discriminant(U)  # trace 0


def test_field_discriminant_matches_direct_factorization():
    for n in range(2, 9):
        for letters in map("".join, itertools.product("LR", repeat=n)):
            m = word_to_matrix(letters)
            t = m.trace()
            if t <= 2:
                continue
            assert field_discriminant(m) == _squarefree_part(t * t - 4)


def test_field_discriminant_checks_itself(monkeypatch):
    # an _odd_primes that loses a prime gives a d whose cofactor in
    # t^2 - 4 is not a square: 15^2 - 4 = 13 * 17, and d would be 13
    odd_primes = arith._odd_primes
    monkeypatch.setattr(arith, "_odd_primes", lambda n: odd_primes(n) - {17})
    arith.trace_discriminant.cache_clear()
    try:
        with pytest.raises(RuntimeError, match="trace 15: 13 "):
            field_discriminant(word_to_matrix("LRLLRR"))
    finally:
        arith.trace_discriminant.cache_clear()


@pytest.mark.parametrize("n", [500, 1000])
def test_perfect_square_cofactors_of_lr_powers_are_never_split(monkeypatch, n):
    # the trace of (LR)^n is the Lucas number L_2n, and of t - 2 and
    # t + 2 one is L_n^2 and the other 5 F_n^2, whose roots have about
    # 0.69n bits; only the parity of each exponent matters
    def refuse(m):
        raise AssertionError(f"_ecm ran on a {m.bit_length()}-bit number")

    monkeypatch.setattr(arith, "_ecm", refuse)
    m = word_to_matrix("LR" * n)
    assert arith.trace_discriminant.__wrapped__(m.trace()) == 5  # past the memo
    assert field_discriminant(m) == 5


_ROOTS = st.one_of(
    st.integers(2, 10**6),
    st.integers(1000, 2**40).map(sympy.nextprime),
    st.tuples(st.integers(1000, 2**20), st.integers(1000, 2**20)).map(
        lambda pq: sympy.nextprime(pq[0]) * sympy.nextprime(pq[1])
    ),
)


@settings(deadline=None, max_examples=200)
@given(_ROOTS, st.integers(1, 3), st.integers(1, 10**6))
@example(1009 * 1013, 1, 1009 * 1013)  # a cube, whose root counts once
def test_parity_factorization_gives_the_squarefree_part(r, k, s):
    n = r ** (2 * k) * s
    assert _checked_odd_primes(n) == _sympy_odd_primes(n)


def test_big_trace_discriminant_uses_split_factorization():
    # gcd(t-2, t+2) divides 4, so the squarefree parts of the two factors
    # can only share the prime 2; merging divides out its square.
    m = word_to_matrix("LR" + "RL" * 26)
    t = m.trace()
    assert t > 10**11
    a, b = _squarefree_part(t - 2), _squarefree_part(t + 2)
    g = math.gcd(a, b)
    assert g in (1, 2)
    assert field_discriminant(m) == a * b // (g * g)
