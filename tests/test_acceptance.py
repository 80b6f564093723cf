"""Acceptance gate: the eight release criteria, one test per criterion.

Each test prints a single "criterion N: PASS" line on success (visible
under pytest -s / -rA; under plain -v the test outcome line itself is
the pass/fail record).  Tolerances are pinned here and nowhere looser:
exact equality for integers, words and orderings; 1e-12 absolute for
the volume constant; a frozen window for the volume/length ratio.
"""

import math
from fractions import Fraction

from modlink.cutting import (
    ab_sequence,
    ab_sequence_geometric,
    lr_geometric_oracle,
    slope_to_word,
)
from modlink.farey import ONE, Slope, farey_path, is_farey_neighbour, v_orbit
from modlink.links import build_family, census, v_oct, volume_length_table
from modlink.psl2z import field_discriminant, least_rotation, word_to_matrix

from test_farey import _as_key, bfs_farey_path
from test_links import _family_invariants

V_OCT_REFERENCE = 3.663862376708876

# volume/sqrt(length) window for the tower rows n = 1..50, frozen from
# the trace bounds of criterion 3: length_k in [k ln(3/2), 2k ln 4], so
#   ratio_n >= n v / sqrt(ln4 n(n+1))      -> minimum 2.20037... at n=1
#   ratio_n <= n v / sqrt(ln(3/2) n(n+1)/2) -> maximum 8.05660... at n=50
RATIO_WINDOW = (2.2003, 8.0571)


def _reduced(bound: int):
    for p in range(1, bound + 1):
        for q in range(1, bound + 1):
            if math.gcd(p, q) == 1:
                yield p, q


def test_criterion_1_worked_word_examples():
    for text, letters in [
        ("1/1", "LR"),
        ("1/2", "LLRR"),
        ("2/1", "LLRR"),
        ("3/2", "LLRRLR"),
        ("3/1", "LLRLRR"),
        ("1/7", "LLRR" + "LR" * 5),
    ]:
        assert slope_to_word(Slope.parse(text)) == letters, text
    assert ab_sequence(Slope(1, 2)) == least_rotation("BAA")
    for n in range(1, 11):
        assert ab_sequence(Slope(1, n)) == least_rotation("B" + "A" * n), n
    print("criterion 1: PASS - worked word and crossing-sequence examples")


def test_criterion_2_family_golden():
    fam = build_family(Slope(3, 2))
    assert fam.x == 3
    expected_chain = [
        "-2/1", "-1/1", "0/1", "1/3", "1/2", "1/1", "3/2", "2/1", "1/0",
    ]
    assert [str(s) for s in fam.slopes] == expected_chain
    assert {str(s) for s in fam.slopes} == {
        "0/1", "1/0", "1/1", "2/1", "3/2", "-1/1", "1/2", "-2/1", "1/3",
    }
    assert {r.word for r in fam.orbits} == {"LR", "LLRR", "LLRRLR"}
    cyc = list(fam.slopes)
    for a, b in zip(cyc, cyc[1:] + cyc[:1]):
        assert is_farey_neighbour(a, b), (a, b)
    print("criterion 2: PASS - 3/2 family slopes, words and chain order")


def test_criterion_3_traces_lengths_fields():
    for letters, trace, d in [
        ("LR", 3, 5),
        ("LLRR", 6, 2),
        ("LRLLRR", 15, 221),
        ("LRRLLR", 15, 221),
    ]:
        matrix = word_to_matrix(letters)
        assert (matrix.trace(), field_discriminant(matrix)) == (trace, d), letters
    rows = volume_length_table(50)
    for row in rows:
        n, t = row.n, row.trace
        assert 3**n <= t * 2**n, n  # (3/2)^n <= trace, exactly
        assert t <= 4**n, n
        assert n * math.log(1.5) <= row.length <= 2 * n * math.log(4.0), n
    print("criterion 3: PASS - traces, discriminants, growth bounds to n=50")


def _catalan_euler_transform() -> Fraction:
    n = 64
    row = [Fraction(1, (2 * k + 1) ** 2) for k in range(n)]
    total = Fraction(0)
    for k in range(n):
        total += Fraction((-1) ** k, 2 ** (k + 1)) * row[0]
        row = [row[i + 1] - row[i] for i in range(len(row) - 1)]
    return total


def test_criterion_4_volume_constants():
    # route one: the package's accelerated binomial series
    assert abs(v_oct() - V_OCT_REFERENCE) < 1e-12
    # route two: exact Euler transform of the alternating series
    assert abs(v_oct() - 4 * float(_catalan_euler_transform())) < 1e-12
    anchor = build_family(ONE)
    assert anchor.volume_modular == v_oct()  # single-octahedron anchor
    for n in (1, 2, 3, 7, 20):
        fam = build_family(Slope(1, n))
        assert abs(fam.volume_modular - n * v_oct()) < 1e-9
        # halved normalization reported alongside, not adjudicated
        assert fam.volume_alternative == fam.volume_modular / 2
    print("criterion 4: PASS - octahedron volume via two series, anchors")


def test_criterion_5_oracle_equivalence():
    swap = str.maketrans("LR", "RL")
    for p, q in _reduced(50):
        s = Slope(p, q)
        ab = ab_sequence(s)
        assert ab == ab_sequence_geometric(s), s
        assert (ab.count("A"), ab.count("B")) == (q, p), s
        word = slope_to_word(s)
        assert word == lr_geometric_oracle(s).canonical().letters, s
        mirror = slope_to_word(Slope(q, p))
        assert mirror == least_rotation(word.translate(swap)), s
    for p, q in _reduced(30):
        s = Slope(p, q)
        word = slope_to_word(s)
        for member in v_orbit(s):
            if member.p >= 0:
                assert slope_to_word(member) == word, (s, member)
    print("criterion 5: PASS - words match geometric oracles to p, q = 50")


def test_criterion_6_farey_path_oracle():
    for q in range(0, 41):
        for p in range(0, 41):
            if math.gcd(p, q) != 1 or (p == 0 and q == 0):
                continue
            path = farey_path(Slope(p, q))
            assert [_as_key(t) for t in path.triangles] == bfs_farey_path(p, q)
            if p and q:
                digits, a, b = [], p, q
                while b:
                    d, a, b = a // b, b, a % b
                    digits.append(d)
                assert path.x == sum(digits), (p, q)
    print("criterion 6: PASS - paths equal BFS shortest paths to 40")


def test_criterion_7_census():
    families = list(census(3))
    assert len(families) == 7
    word_sets = {
        frozenset(r.word for r in f.orbits) for f in families if f.x == 3
    }
    assert frozenset({"LR", "LLRR", "LLRRLR"}) in word_sets
    assert frozenset({"LR", "LLRR", "LLRLRR"}) in word_sets
    for fam in families:
        _family_invariants(fam)
    print("criterion 7: PASS - census(3) emits 7 families, both depth-3 kinds")


def test_criterion_8_volume_length_ratio_window():
    lo, hi = RATIO_WINDOW
    for row in volume_length_table(50):
        assert lo < row.ratio < hi, (row.n, row.ratio)
    print("criterion 8: PASS - volume/sqrt(length) inside frozen window")
