"""Link families fibred by octahedra over Farey triangle paths.

A triangle path of length x, closed up under the order-three rotation,
yields x rotation orbits of geodesics, whose 3x slopes sort into a
cyclic Farey chain, and a decomposition of the link complement into
ideal octahedra: x of them in the quotient, 3x in the single-orientation
cover, 6x upstairs.  The volume of a regular ideal octahedron is
4 * Catalan; the quotient volume reported here is x times that, with
the alternative halved normalization (which also appears in the
literature) carried alongside rather than adjudicated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .cutting import slope_to_word
from .farey import (
    INFINITY,
    ONE,
    ZERO,
    FareyPath,
    Slope,
    farey_path,
    mediant,
    order_as_farey_chain,
    v_orbit,
)
from .psl2z import (
    GeodesicWord,
    field_discriminant,
    geodesic_length,
    word_to_matrix,
)


def v_oct() -> float:
    """Volume of the regular ideal octahedron, 4 * Catalan.

    4 * 0.91596559417721901505... = 3.66386237670887606..., correctly
    rounded to a double.  The test suite checks it against an
    Euler-transformed series and Lobachevsky-function quadrature.
    """
    return 3.663862376708876


@dataclass(frozen=True)
class OrbitRecord:
    """A rotation orbit of slopes and its geodesic invariants."""

    representative: Slope
    slopes: tuple[Slope, ...]
    word: GeodesicWord
    trace: int
    length: float
    discriminant: int


@dataclass(frozen=True)
class OctahedronCounts:
    modular: int
    ut_single: int
    ut_both: int


@dataclass(frozen=True)
class LinkFamily:
    """The link family determined by one target slope.

    Only the path, the 3x-slope chain and the x orbit records are stored;
    the octahedron counts and the volumes follow from x, and the total
    length from the orbits.
    """

    path: FareyPath
    slopes: tuple[Slope, ...]
    orbits: tuple[OrbitRecord, ...]

    @property
    def target(self) -> Slope:
        return self.path.target

    @property
    def x(self) -> int:
        """Triangles in the Farey path, which is also the orbit count."""
        return self.path.x

    @property
    def counts(self) -> OctahedronCounts:
        """x octahedra in the quotient, 3x and 6x in the two covers."""
        x = self.x
        return OctahedronCounts(modular=x, ut_single=3 * x, ut_both=6 * x)

    @property
    def volume_modular(self) -> float:
        """x * v_oct, the volume of the quotient."""
        return self.x * v_oct()

    @property
    def total_length(self) -> float:
        """Sum of the orbits' geodesic lengths, in orbit order."""
        return sum(r.length for r in self.orbits)

    @property
    def volume_alternative(self) -> float:
        """The halved normalization x * v_oct / 2, reported alongside."""
        return self.volume_modular / 2

    @property
    def ratio(self) -> float:
        """volume / sqrt(total geodesic length)."""
        return self.volume_modular / math.sqrt(self.total_length)


# Representatives kept by the orbit-and-word memo.  A census to depth D
# meets 2^D - 1 representatives (511 at depth 9), so this covers depth 12.
_REPRESENTATIVE_CACHE_SIZE = 4096


@lru_cache(maxsize=_REPRESENTATIVE_CACHE_SIZE)
def _representative(rep: Slope) -> tuple[tuple[Slope, ...], GeodesicWord]:
    """A representative's rotation orbit, sorted, and its word.

    Memoised: a census meets each representative in many families.
    """
    return tuple(sorted(v_orbit(rep))), slope_to_word(rep)


def build_family(target: Slope) -> LinkFamily:
    """Construct the link family of a nonnegative target slope.

    Takes the Farey path to the target and the rotation orbits of its x
    representatives (1/1, whose orbit is the base triangle, then one per
    new path vertex), each orbit sorted ascending.  Each orbit gets its
    word, trace, length and field.  The family's chain is the union of
    the orbits, sorted and checked by order_as_farey_chain, and that one
    check also fixes its size at 3x slopes: V fixes no slope, since
    p^2 - pq + q^2 = 0 only at 0/0, so each orbit has 3 slopes, and a
    slope shared by two orbits would sit next to itself in the sorted
    chain and fail the neighbour test.
    """
    path = farey_path(target)
    orbits = []
    for rep in (ONE,) + path.new_vertices:
        slopes, word = _representative(rep)
        matrix = word_to_matrix(word)
        t = matrix.trace()
        orbits.append(
            OrbitRecord(
                representative=rep,
                slopes=slopes,
                word=word,
                trace=t,
                length=geodesic_length(t),
                discriminant=field_discriminant(matrix),
            )
        )
    chain = order_as_farey_chain(s for record in orbits for s in record.slopes)
    return LinkFamily(path=path, slopes=tuple(chain), orbits=tuple(orbits))


def _tower_word(n: int) -> str:
    """Least rotation of LR(RL)^(n-1); for n >= 2 it starts at the only cyclic LL."""
    return "LR" if n == 1 else "LLRR" + "LR" * (n - 2)


@dataclass(frozen=True)
class VolumeRow:
    """Row n of the tower: the n-th word, and the n octahedra of the family of 1/n."""

    n: int
    word: GeodesicWord
    trace: int
    length: float
    cumulative_length: float

    @property
    def volume(self) -> float:
        return self.n * v_oct()

    @property
    def volume_alternative(self) -> float:
        return self.volume / 2

    @property
    def ratio(self) -> float:
        """volume / sqrt(cumulative geodesic length)."""
        return self.volume / math.sqrt(self.cumulative_length)


def volume_length_table(n_max: int) -> Iterator[VolumeRow]:
    """Rows n = 1..n_max of trace, length, volume and volume/sqrt(length).

    Each row is yielded as soon as it is computed, so the table streams
    in memory linear in n_max; n_max < 1 raises on the first iteration.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    cumulative = 0.0
    for n in range(1, n_max + 1):
        word = GeodesicWord(_tower_word(n))
        t = word_to_matrix(word).trace()
        length = geodesic_length(t)
        cumulative += length
        yield VolumeRow(
            n=n,
            word=word,
            trace=t,
            length=length,
            cumulative_length=cumulative,
        )


def census(max_x: int, dedupe_mirror: bool = False) -> Iterator[LinkFamily]:
    """All families of depth 1..max_x, by depth then by target value.

    The targets of depth x are the 2^(x-1) mediants of neighbouring
    slopes in row x - 1 of the Stern-Brocot tree, which starts as
    [0/1, 1/0] and gains each depth's mediants in place.  With
    dedupe_mirror, of each pair of families related by the mirror
    p/q <-> q/p only the one with p <= q is emitted.
    """
    if max_x < 1:
        raise ValueError("max_x must be >= 1")
    row = [ZERO, INFINITY]
    for _ in range(max_x):
        targets = [mediant(lo, hi) for lo, hi in zip(row, row[1:])]
        for target in targets:
            if not (dedupe_mirror and target.p > target.q):
                yield build_family(target)
        row = [s for pair in zip(row, targets) for s in pair] + row[-1:]
