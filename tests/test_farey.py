"""Slope arithmetic and Farey-path tests.

The centrepiece is an independent breadth-first-search oracle over the
triangle adjacency graph.  It shares no code with ``farey_path`` beyond
the Slope value type: vertices are plain integer pairs, neighbouring
triangles are found by the sum/difference rule, and shortest paths come
from BFS parent pointers.
"""

import copy
import dataclasses
import math
import operator
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from modlink.farey import (
    INFINITY,
    ONE,
    ZERO,
    FareyPath,
    FareyTriangle,
    NegativeSlopeError,
    NotAChainError,
    NotNeighboursError,
    Slope,
    UndefinedSlopeError,
    base_triangle,
    farey_path,
    is_farey_neighbour,
    mediant,
    nonnegative_representative,
    order_as_farey_chain,
    v_orbit,
    v_rotate,
)

# ---------------------------------------------------------------- oracle


def _norm(p: int, q: int) -> tuple[int, int]:
    if q < 0:
        p, q = -p, -q
    if q == 0:
        return (1, 0)
    g = math.gcd(abs(p), q)
    return (p // g, q // g)


def _third_vertices(u, v):
    """Both slopes completing edge (u, v) to a triangle."""
    return {_norm(u[0] + v[0], u[1] + v[1]), _norm(u[0] - v[0], u[1] - v[1])}


_BASE = frozenset({(0, 1), (1, 1), (1, 0)})


def bfs_farey_path(p: int, q: int) -> list[frozenset]:
    """Shortest triangle path from the base triangle to one containing p/q.

    Explores only triangles whose vertices (a, b) satisfy
    0 <= a <= max(p, 1), 0 <= b <= max(q, 1); the mediant-descent path
    never leaves that box, and the dual graph is a tree, so pruning
    cannot change the unique shortest path.
    """
    target = _norm(p, q)
    pb, qb = max(p, 1), max(q, 1)

    def in_box(tri) -> bool:
        return all(0 <= a <= pb and 0 <= b <= qb for a, b in tri)

    parent: dict[frozenset, frozenset | None] = {_BASE: None}
    depth = {_BASE: 0}
    frontier = [_BASE]
    hits: list[frozenset] = []
    while frontier:
        hits = [t for t in frontier if target in t]
        if hits:
            break
        nxt = []
        for tri in frontier:
            verts = sorted(tri)
            for i in range(3):
                u, v = verts[i], verts[(i + 1) % 3]
                w = verts[(i + 2) % 3]
                (other,) = _third_vertices(u, v) - {w}
                nb = frozenset({u, v, other})
                if nb not in parent and in_box(nb):
                    parent[nb] = tri
                    depth[nb] = depth[tri] + 1
                    nxt.append(nb)
        frontier = nxt

    assert len(hits) == 1, f"shortest triangle for {p}/{q} not unique"
    chain = []
    node = hits[0]
    while node is not None:
        chain.append(node)
        node = parent[node]
    return chain[::-1]


def _slope_descent(target: Slope):
    """Each step (lo, mediant, hi) of the mediant descent, walked on Slopes.

    The construction that farey._descent replaced with an integer walk: it
    compares Slope values and takes each mediant through mediant().
    """
    if target in (ZERO, ONE, INFINITY):
        return
    lo, hi = (ZERO, ONE) if target < ONE else (ONE, INFINITY)
    while True:
        m = mediant(lo, hi)
        yield lo, m, hi
        if m == target:
            return
        if target < m:
            hi = m
        else:
            lo = m


def _sorted_chain(slopes) -> list[Slope]:
    """order_as_farey_chain as it was before its float sort: exact sort, then check."""
    chain = sorted(slopes)
    if len(chain) < 2:
        raise ValueError("a Farey chain needs at least two slopes")
    for a, b in zip(chain, chain[1:] + chain[:1]):
        if not is_farey_neighbour(a, b):
            raise NotAChainError(a, b)
    return chain


def _as_key(tri: FareyTriangle) -> frozenset:
    return frozenset((s.p, s.q) for s in tri.vertices)


def _reduced_pairs(bound: int):
    yield (1, 0)
    for q in range(1, bound + 1):
        for p in range(0, bound + 1):
            if math.gcd(p, q) == 1:
                yield (p, q)


def test_farey_path_matches_bfs_oracle_up_to_40():
    for p, q in _reduced_pairs(40):
        path = farey_path(Slope(p, q))
        # the triangles are built only when first read, then kept
        assert "triangles" not in vars(path)
        assert [_as_key(t) for t in path.triangles] == bfs_farey_path(p, q)
        assert path.triangles is path.triangles


def test_path_x_equals_continued_fraction_digit_sum():
    # x = a1 + ... + ak for p/q = [a1, ..., ak]; the base slopes 0/1 and
    # 1/0 sit in the first triangle, so x = 1 there.
    for p, q in _reduced_pairs(40):
        x = farey_path(Slope(p, q)).x
        if q == 0 or p == 0:
            assert x == 1
            continue
        digits = []
        a, b = p, q
        while b:
            d, a, b = a // b, b, a % b
            digits.append(d)
        assert x == sum(digits), f"{p}/{q}"


def test_path_structure_invariants():
    for p, q in _reduced_pairs(25):
        path = farey_path(Slope(p, q))
        assert path.triangles[0] == base_triangle()
        assert path.target in path.triangles[-1].vertices
        assert path.x == len(path.triangles) == len(path.new_vertices) + 1
        assert len(path.slopes()) == path.x + 2
        assert len(set(path.slopes())) == path.x + 2
        for a, b in zip(path.triangles, path.triangles[1:]):
            shared = set(a.vertices) & set(b.vertices)
            assert len(shared) == 2
            (new,) = set(b.vertices) - shared
            assert new == mediant(*sorted(shared))


# ---------------------------------------------------------------- slopes


def test_slope_normalization():
    assert Slope(2, 4) == Slope(1, 2)
    assert Slope(-2, -4) == Slope(1, 2)
    assert Slope(2, -4) == Slope(-1, 2)
    assert Slope(3, 0) == Slope(1, 0)
    assert Slope(-3, 0) == Slope(1, 0)
    assert Slope(0, -5) == Slope(0, 1)
    with pytest.raises(ValueError):
        Slope(0, 0)


def test_slope_parse_and_str_round_trip():
    for text in ["3/2", "-2/1", "0/1", "1/0", "17/12"]:
        assert str(Slope.parse(text)) == text
    assert Slope.parse("6/4") == Slope(3, 2)
    bad_texts = ["3", "3/", "/2", "a/b", "1.5/2", "", "1_0/3", "\u0663/\u0662"]
    # the grammar has no whitespace, as on the command line
    for bad in bad_texts + [" 3/2 ", "3/2\n", "3 /2"]:
        with pytest.raises(ValueError):
            Slope.parse(bad)
    with pytest.raises(UndefinedSlopeError):
        Slope.parse("0/0")


def test_slope_total_order_matches_rationals_with_infinity_on_top():
    finite = [Slope(p, q) for p, q in _reduced_pairs(12) if q]
    for s in finite:
        assert s < INFINITY
        assert not INFINITY < s
    ordered = sorted(finite)
    values = [Fraction(s.p, s.q) for s in ordered]
    assert values == sorted(values)


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
@example(0, 0)
@example(7, 0)
@example(-7, 0)
@example(0, -7)
@example(6, -4)
@example(-6, -4)
@example(-3, 7)
def test_slope_constructor_is_canonical(p, q):
    # Fraction reduces p/q with the sign on the numerator; n/0 is 1/0
    if p == q == 0:
        with pytest.raises(UndefinedSlopeError):
            Slope(p, q)
        return
    s = Slope(p, q)
    if q == 0:
        assert (s.p, s.q) == (1, 0)
    else:
        f = Fraction(p, q)
        assert (s.p, s.q) == (f.numerator, f.denominator)


# ------------------------------------------------------- neighbour tests


def test_farey_neighbours_examples():
    assert is_farey_neighbour(ZERO, INFINITY)
    assert is_farey_neighbour(ONE, INFINITY)
    assert is_farey_neighbour(Slope(1, 2), Slope(1, 3))
    assert not is_farey_neighbour(Slope(1, 2), Slope(3, 4))
    assert not is_farey_neighbour(ONE, ONE)


def test_mediant():
    assert mediant(ZERO, ONE) == Slope(1, 2)
    assert mediant(ONE, INFINITY) == Slope(2, 1)
    assert mediant(Slope(-1, 1), ZERO) == Slope(-1, 2)
    with pytest.raises(NotNeighboursError):
        mediant(Slope(1, 2), Slope(3, 4))


@given(st.integers(-50, 50), st.integers(0, 50), st.integers(-50, 50), st.integers(0, 50))
def test_mediant_is_a_neighbour_of_both_parents(a, b, c, d):
    if (a == 0 and b == 0) or (c == 0 and d == 0):
        return
    u, v = Slope(a, b), Slope(c, d)
    if u == v or not is_farey_neighbour(u, v):
        return
    m = mediant(u, v)
    assert is_farey_neighbour(m, u) and is_farey_neighbour(m, v)
    if not u.is_infinity and not v.is_infinity:
        lo, hi = sorted([u, v])
        assert lo < m < hi


# -------------------------------------------------------------- rotation


def test_v_rotation_has_order_three():
    for p, q in _reduced_pairs(30):
        s = Slope(p, q)
        assert v_rotate(v_rotate(v_rotate(s))) == s
        assert v_rotate(s) != s


def test_v_rotation_examples():
    assert v_rotate(ZERO) == ONE
    assert v_rotate(ONE) == INFINITY
    assert v_rotate(INFINITY) == ZERO
    assert v_orbit(Slope(3, 2)) == {Slope(-2, 1), Slope(1, 3), Slope(3, 2)}
    assert v_orbit(Slope(3, 1)) == {Slope(-1, 2), Slope(2, 3), Slope(3, 1)}


def test_orbits_have_three_members_two_nonnegative():
    # Away from the base orbit, exactly one member lies in (0, 1) and one
    # in (1, inf); the third is negative.  This is what makes the family
    # orbits disjoint.
    for p, q in _reduced_pairs(60):
        orbit = v_orbit(Slope(p, q))
        assert len(orbit) == 3
        nonneg = sorted(s for s in orbit if s.p >= 0)
        if orbit == {ZERO, ONE, INFINITY}:
            continue
        assert len(nonneg) == 2
        small, large = nonneg
        assert small < ONE < large
        assert nonnegative_representative(Slope(p, q)) == small


def test_nonnegative_representative_is_least_orbit_member():
    assert nonnegative_representative(Slope(-2, 1)) == Slope(1, 3)
    assert nonnegative_representative(Slope(3, 2)) == Slope(1, 3)
    assert nonnegative_representative(ZERO) == ZERO


# ------------------------------------------------------------- triangles


def test_triangle_sorts_and_validates():
    tri = FareyTriangle((INFINITY, ONE, ZERO))
    assert tri.vertices == (ZERO, ONE, INFINITY)
    assert ONE in tri.vertices and Slope(1, 2) not in tri.vertices
    with pytest.raises(NotNeighboursError):
        FareyTriangle((ZERO, Slope(1, 2), Slope(3, 4)))
    with pytest.raises(ValueError):
        FareyTriangle((ZERO, ZERO, ONE))


def test_farey_path_rejects_negative_slope():
    with pytest.raises(NegativeSlopeError):
        farey_path(Slope(-2, 1))


def test_worked_paths():
    path = farey_path(Slope(3, 2))
    assert [" ".join(map(str, t.vertices)) for t in path.triangles] == [
        "0/1 1/1 1/0",
        "1/1 2/1 1/0",
        "1/1 3/2 2/1",
    ]
    assert path.new_vertices == (Slope(2, 1), Slope(3, 2))

    path = farey_path(Slope(1, 3))
    assert [" ".join(map(str, t.vertices)) for t in path.triangles] == [
        "0/1 1/1 1/0",
        "0/1 1/2 1/1",
        "0/1 1/3 1/2",
    ]

    for s in (ZERO, ONE, INFINITY):
        path = farey_path(s)
        assert path.triangles == (base_triangle(),)
        assert path.new_vertices == ()
        assert path.x == 1


# ----------------------------------------------------------------- chain


def test_order_as_farey_chain_family_example():
    slopes = [
        Slope(-2, 1), Slope(-1, 1), Slope(0, 1), Slope(1, 3), Slope(1, 2),
        Slope(1, 1), Slope(3, 2), Slope(2, 1), Slope(1, 0),
    ]
    chain = order_as_farey_chain(reversed(slopes))
    assert chain == slopes
    for a, b in zip(chain, chain[1:] + chain[:1]):
        assert is_farey_neighbour(a, b)


def test_order_as_farey_chain_rejects_gaps():
    with pytest.raises(NotAChainError) as info:
        order_as_farey_chain([ZERO, ONE, Slope(5, 2)])
    assert info.value.pair == (ONE, Slope(5, 2))
    with pytest.raises(ValueError):
        order_as_farey_chain([ONE])
    # a repeated slope spans no edge with itself: |ps - qr| = 0
    with pytest.raises(NotAChainError) as info:
        order_as_farey_chain([ZERO, ZERO, INFINITY])
    assert info.value.pair == (ZERO, ZERO)


def _chain_outcome(order, slopes):
    """The chain order returns, or the type, pair and text of what it raises."""
    try:
        return order(slopes)
    except NotAChainError as error:
        return type(error), error.pair, str(error)


def _fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


# F100/F101, F102/F103 (their mediant with F101/F102) and F101/F102, in
# ascending order, lie within 2e-42 of each other: all three are one float.
_FLOAT_TIE = [
    Slope(_fibonacci(100), _fibonacci(101)),
    Slope(_fibonacci(102), _fibonacci(103)),
    Slope(_fibonacci(101), _fibonacci(102)),
]


@st.composite
def _farey_chains(draw):
    """A Farey chain in shuffled order.

    The base triangle, refined by mediants of consecutive slopes, is a
    Farey chain, and so is its image under a map of SL(2, Z), which
    keeps |ps - qr| and the cyclic order.  The map is a product of
    shears (1 n; 0 1) and (1 0; n 1) with n up to 10^40 in size, so
    slopes run past the float range and any one may be 1/0 or negative.
    """
    chain = [(0, 1), (1, 1), (1, 0)]
    for i in draw(st.lists(st.integers(0, 10**6), max_size=24)):
        k = i % (len(chain) - 1)
        (p, q), (r, s) = chain[k], chain[k + 1]
        chain.insert(k + 1, (p + r, q + s))
    a, b, c, d = 1, 0, 0, 1
    shears = draw(st.lists(st.integers(-10**40, 10**40), max_size=12))
    for i, n in enumerate(shears):
        if i % 2:
            a, c = a + n * b, c + n * d
        else:
            b, d = b + n * a, d + n * c
    slopes = [Slope(a * p + b * q, c * p + d * q) for p, q in chain]
    return draw(st.permutations(slopes))


@given(_farey_chains())
@example(_FLOAT_TIE)
@example(_FLOAT_TIE[::-1])
# p / 1 overflows a float past 1.8e308, and 1 / q underflows to 0.0
@example([INFINITY, Slope(10**400 + 1, 1), Slope(10**400, 1)])
@example([Slope(10**309 + 1, 1), INFINITY, Slope(10**309, 1)])
@example([Slope(-10**400, 1), INFINITY, Slope(-10**400 - 1, 1)])
@example([Slope(1, 10**400), ZERO, Slope(1, 10**400 - 1)])
def test_float_sorted_chain_is_the_exact_sort(slopes):
    assert order_as_farey_chain(slopes) == sorted(slopes) == _sorted_chain(slopes)


def test_the_float_tie_is_one_float_and_sorts_exactly():
    values = {s.p / s.q for s in _FLOAT_TIE}
    assert len(values) == 1
    for order in (_FLOAT_TIE, _FLOAT_TIE[::-1]):
        assert order_as_farey_chain(order) == _FLOAT_TIE


@given(_farey_chains(), st.data())
@example(_FLOAT_TIE + [Slope(3, 4)], None)
@example([Slope(10**400, 1), ZERO, Slope(10**400, 1)], None)
def test_a_non_chain_names_the_pair_the_exact_sort_names(slopes, data):
    if data is not None:
        i = data.draw(st.integers(0, len(slopes) - 1))
        change = data.draw(st.sampled_from(["drop", "repeat", "add"]))
        if change == "drop":
            del slopes[i]
        elif change == "repeat":
            slopes.insert(i, slopes[i])
        else:
            p = data.draw(st.integers(-10**30, 10**30))
            q = data.draw(st.integers(0, 10**30).filter(lambda q: p or q))
            slopes.insert(i, Slope(p, q))
    if len(slopes) < 2:
        return
    assert _chain_outcome(order_as_farey_chain, slopes) == _chain_outcome(
        _sorted_chain, slopes
    )


@given(st.integers(0, 400), st.integers(0, 400).filter(bool))
@example(0, 1)
@example(1, 1)
@example(1, 0)
@example(1, 400)
@example(400, 1)
def test_integer_descent_matches_the_slope_descent(p, q):
    target = Slope(p, q)
    steps = list(_slope_descent(target))
    path = farey_path(target)
    assert path.new_vertices == tuple(m for _, m, _ in steps)
    assert path.triangles == (base_triangle(),) + tuple(
        FareyTriangle(step) for step in steps
    )


def test_slope_has_value_semantics():
    s = Slope(2, -4)
    assert str(s) == "-1/2"
    twin = Slope(-1, 2)
    assert s == twin and hash(s) == hash(twin)
    assert repr(s) == repr(twin) == "Slope(p=-1, q=2)"
    assert [f.name for f in dataclasses.fields(s)] == ["p", "q"]
    assert dataclasses.astuple(s) == (-1, 2)
    for other in (pickle.loads(pickle.dumps(s)), pickle.loads(pickle.dumps(twin)),
                  copy.copy(s), copy.deepcopy(s)):
        assert other == s and hash(other) == hash(s)
        assert repr(other) == repr(s) and str(other) == "-1/2"
    moved = dataclasses.replace(s, p=3)
    assert moved == Slope(3, 2) and str(moved) == "3/2"
    assert str(dataclasses.replace(s, q=0)) == "1/0"
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.p = 3
    assert str(s) == "-1/2"


@pytest.mark.parametrize("other", [1, 0.5, None, "1/2", (1, 2)])
def test_ordering_a_slope_against_a_non_slope_is_a_type_error(other):
    s = Slope(1, 2)
    for compare in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            compare(s, other)
        with pytest.raises(TypeError):
            compare(other, s)
    with pytest.raises(TypeError):
        sorted([s, other])
    assert s != other
