"""Cutting-sequence tests: continued fractions, AB words, LR words.

Both word constructions are checked against the geometric oracles,
which simulate a line of slope p/q crossing the integer grid (and the
diagonals y = x + c) using exact Fraction arithmetic, and letter for
letter against the construction they replaced: the AB word by digit
substitution, read pair by pair with ab_to_lr, then rotated by
least_rotation.  The LR word is also checked to be spelled with no AB
word and no rotation search, within 3.5 bytes of memory a letter.
"""

import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from modlink import cutting, psl2z
from modlink.cli import main
from modlink.cutting import (
    UnsupportedSlopeError,
    ab_sequence,
    ab_sequence_geometric,
    ab_to_lr,
    continued_fraction,
    lr_geometric_oracle,
    slope_to_word,
)
from modlink.farey import INFINITY, ONE, ZERO, NegativeSlopeError, Slope, v_orbit
from modlink.psl2z import least_rotation


def _reduced_positive(bound: int):
    for p in range(1, bound + 1):
        for q in range(1, bound + 1):
            if math.gcd(p, q) == 1:
                yield (p, q)


_AB_SWAP = str.maketrans("AB", "BA")


def _substitution_ab_word(s: Slope) -> str:
    """Cutting sequence by digit substitution, in no particular rotation.

    From the slope-0 word "A", for each continued-fraction digit a from
    the last to the first, insert a B's after every A, then exchange the
    letters, except after the leading digit.
    """
    terms = continued_fraction(s)
    word = "A"
    for i, a in enumerate(reversed(terms)):
        word = "".join(ch + "B" * a if ch == "A" else ch for ch in word)
        if i < len(terms) - 1:
            word = word.translate(_AB_SWAP)
    return word


def _oracle_words(s: Slope) -> tuple[str, str]:
    """Least rotations of the substitution AB word and of its pair reading."""
    ab = _substitution_ab_word(s)
    return least_rotation(ab), ab_to_lr(ab)


# --------------------------------------------------- continued fractions


def _continued_fraction_value(terms: tuple[int, ...]) -> Fraction:
    """Exact value a1 + 1/(a2 + 1/(... + 1/ak)) of the digits."""
    acc = Fraction(terms[-1])
    for a in reversed(terms[:-1]):
        acc = a + 1 / acc
    return acc


def test_continued_fraction_examples():
    assert continued_fraction(Slope(3, 2)) == (1, 2)
    assert continued_fraction(ONE) == (1,)
    assert continued_fraction(Slope(1, 7)) == (0, 7)
    assert continued_fraction(Slope(2, 1)) == (2,)
    assert continued_fraction(ZERO) == (0,)


def test_continued_fraction_round_trip():
    for p, q in _reduced_positive(60):
        terms = continued_fraction(Slope(p, q))
        assert _continued_fraction_value(terms) == Fraction(p, q)
        assert all(t >= 1 for t in terms[1:])


def test_continued_fraction_rejects_out_of_range():
    with pytest.raises(UnsupportedSlopeError):
        continued_fraction(INFINITY)
    with pytest.raises(UnsupportedSlopeError):
        continued_fraction(Slope(-3, 2))


# -------------------------------------------------------------- AB words


def test_ab_worked_examples():
    assert ab_sequence(ONE) == least_rotation("AB")
    assert ab_sequence(Slope(1, 2)) == least_rotation("BAA")
    assert ab_sequence(Slope(2, 1)) == least_rotation("ABB")
    assert ab_sequence(Slope(3, 2)) == least_rotation("BABBA")
    for n in range(1, 11):
        assert ab_sequence(Slope(1, n)) == least_rotation("B" + "A" * n)


def test_ab_is_the_lower_christoffel_word():
    assert ab_sequence(ONE) == "AB"
    assert ab_sequence(Slope(1, 2)) == "AAB"
    assert ab_sequence(Slope(3, 2)) == "ABABB"
    assert ab_sequence(Slope(2, 5)) == "AAABAAB"
    assert ab_sequence(Slope(5, 2)) == "ABBABBB"


def test_words_spell_the_least_rotation_of_the_substitution_oracle():
    for p, q in _reduced_positive(120):
        s = Slope(p, q)
        ab, lr = _oracle_words(s)
        assert ab_sequence(s) == ab, s
        assert slope_to_word(s) == lr, s


def test_words_spell_the_least_rotation_of_the_geometric_oracles():
    for p, q in _reduced_positive(30):
        s = Slope(p, q)
        ab, lr = _oracle_words(s)
        assert ab_sequence(s) == ab_sequence_geometric(s) == ab
        assert slope_to_word(s) == least_rotation(lr_geometric_oracle(s).letters) == lr


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 20000), st.integers(1, 20000))
@example(10007, 7777)
@example(19999, 20000)
@example(1, 20000)
@example(17711, 10946)  # consecutive Fibonacci numbers: all digits 1
@example(10946, 17711)
@example(7777, 10007)
@example(20000, 1)
def test_long_words_spell_the_least_rotation_of_the_substitution_oracle(p, q):
    g = math.gcd(p, q)
    s = Slope(p // g, q // g)
    assert (ab_sequence(s), slope_to_word(s)) == _oracle_words(s)


def test_ab_letter_counts_are_crossing_counts():
    # q vertical crossings (A) and p horizontal crossings (B) per period
    for p, q in _reduced_positive(30):
        word = ab_sequence(Slope(p, q))
        assert word.count("A") == q
        assert word.count("B") == p
        assert len(word) == p + q


def test_ab_matches_geometric_oracle():
    for p, q in _reduced_positive(30):
        s = Slope(p, q)
        assert ab_sequence(s) == ab_sequence_geometric(s), s


def test_ab_rejects_slopes_off_the_open_quadrant():
    for s in (ZERO, INFINITY):
        with pytest.raises(UnsupportedSlopeError):
            ab_sequence(s)
        with pytest.raises(UnsupportedSlopeError):
            ab_sequence_geometric(s)
    with pytest.raises(UnsupportedSlopeError):
        ab_sequence(Slope(-1, 2))


# -------------------------------------------------------------- LR words


def test_ab_to_lr_pair_rule():
    assert ab_to_lr("AB") == "LR"
    assert ab_to_lr("ABB") == "LLRR"
    assert ab_to_lr("BAA") == "LLRR"
    assert ab_to_lr("BABBA") == "LLRRLR"


def test_lr_worked_examples():
    assert slope_to_word(ONE) == "LR"
    assert slope_to_word(Slope(1, 2)) == "LLRR"
    assert slope_to_word(Slope(2, 1)) == "LLRR"
    assert slope_to_word(Slope(3, 2)) == "LLRRLR"
    assert slope_to_word(Slope(3, 1)) == "LLRLRR"
    assert slope_to_word(Slope(1, 7)) == "LLRRLRLRLRLRLR"


def test_lr_base_slopes_give_the_trace_three_word():
    assert slope_to_word(ZERO) == "LR"
    assert slope_to_word(INFINITY) == "LR"


def test_lr_matches_geometric_oracle():
    for p, q in _reduced_positive(25):
        s = Slope(p, q)
        assert slope_to_word(s) == lr_geometric_oracle(s).canonical().letters, s


def test_lr_word_length_and_letter_counts():
    for p, q in _reduced_positive(30):
        word = slope_to_word(Slope(p, q))
        assert len(word) == p + q + abs(p - q) == 2 * max(p, q)
        assert word.count("L") == max(p, q)
        assert word.count("R") == max(p, q)


def test_lr_mirror_symmetry():
    swap = str.maketrans("LR", "RL")
    for p, q in _reduced_positive(30):
        w = slope_to_word(Slope(p, q))
        m = slope_to_word(Slope(q, p))
        assert m == least_rotation(w.translate(swap)), (p, q)


def test_lr_constant_on_v_orbits():
    # the two nonnegative members of each orbit name the same geodesic
    for p, q in _reduced_positive(30):
        s = Slope(p, q)
        others = [t for t in v_orbit(s) if t.p >= 0 and t != s]
        if s in (ZERO, ONE, INFINITY):
            continue
        assert len(others) == 1
        assert slope_to_word(others[0]) == slope_to_word(s), s


_LONG_SLOPES = (Slope(10007, 7777), Slope(7777, 10007), Slope(1, 20000), Slope(20000, 1))


def test_lr_words_spell_no_ab_word_and_search_no_rotation(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("slope_to_word spelled an AB word or searched a rotation")

    for module, name in ((cutting, "ab_sequence"), (cutting, "ab_to_lr"),
                         (cutting, "least_rotation"), (psl2z, "least_rotation")):
        monkeypatch.setattr(module, name, refuse)
    for s in (ONE, *_LONG_SLOPES[:3]):
        assert len(slope_to_word(s)) == 2 * max(s.p, s.q)
    assert main(["word", "7777/10007"]) == 0
    assert len(capsys.readouterr().out) == 2 * 10007 + 1


def test_lr_words_peak_at_three_and_a_half_bytes_a_letter():
    # the word itself is one byte a letter; the two factors it is joined
    # from are about one more
    for s in _LONG_SLOPES:
        slope_to_word(s)
        tracemalloc.start()
        try:
            word = slope_to_word(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * len(word), (s, peak / len(word))


def test_lr_rejects_negative_slope():
    with pytest.raises(NegativeSlopeError):
        slope_to_word(Slope(-2, 1))


def test_lr_oracle_rejects_slopes_off_the_open_quadrant():
    for s in (ZERO, INFINITY):
        with pytest.raises(UnsupportedSlopeError):
            lr_geometric_oracle(s)
