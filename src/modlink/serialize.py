"""Deterministic text, JSON and CSV serialization of reports.

Real numbers are rounded to 12 significant digits with ties away from
zero; identical inputs always serialize to identical bytes.  The computed
double is rounded, so one within a few ulps of a rounding boundary can
print one unit off the exact value in the 12th digit.  Traces are
serialized as decimal strings because they outgrow every fixed-width
integer type.  CSV lines are joined directly rather than through the
csv module: every CSV field is made of digits, L, R, "." and "-", so
no field ever needs quoting.

A family's JSON has one writer, family_to_json, which writes the
census line directly; `family --json` indents that same line.  The work
a census repeats in every family is done once: each orbit's fixed text,
from its representative through its word, is kept per representative.
"""

from __future__ import annotations

from decimal import Context, Decimal, ROUND_HALF_UP
from functools import lru_cache
from typing import Iterable, Iterator

from .links import LinkFamily, OrbitRecord, VolumeRow

_TWELVE = Context(prec=12, rounding=ROUND_HALF_UP)


def format_real(x: float) -> str:
    """x rounded to 12 significant digits, plain decimal notation."""
    return format(_TWELVE.plus(Decimal(x)), "f")


# Reals kept by the real12 memo; a census to depth 9 rounds 6141 reals,
# 400 of them distinct.
_REAL12_CACHE_SIZE = 4096


@lru_cache(maxsize=_REAL12_CACHE_SIZE)
def real12(x: float) -> float:
    """The 12-significant-digit rounding of x, as a float for JSON.

    Memoised on x.  0.0 and -0.0 share an entry, which is exact: both
    round to 0.0, because Decimal.plus drops the sign of zero.
    """
    return float(format_real(x))


CSV_HEADER = [
    "n",
    "word",
    "trace",
    "length",
    "cumulative_length",
    "octahedra",
    "volume",
    "volume_paper_formula",
    "ratio",
]


# Orbit prefixes kept by _orbit_prefix, as many as the representatives
# that links keeps with their orbits and words; keyed on the
# representative's (p, q), so lookups hash and compare ints.
_PREFIX_CACHE_SIZE = 4096
_prefixes: dict = {}


def _orbit_prefix(record: OrbitRecord) -> str:
    """The record's compact JSON up to its trace's digits.

    Made once per representative: a hit needs the record's slopes and
    word to be the very objects the text was made from, as they are
    when links' memo supplies them, so no record gets another's text.
    The cache holds those objects, so their ids are never reused while
    it does, and it is emptied when full.
    """
    rep = record.representative
    key = (rep.p, rep.q)
    cached = _prefixes.get(key)
    if cached is not None and cached[0] is record.slopes and cached[1] is record.word:
        return cached[2]
    text = '{"representative":"%s","slopes":["%s"],"word":"%s","trace":"' % (
        rep, '","'.join(map(str, record.slopes)), record.word
    )
    if len(_prefixes) >= _PREFIX_CACHE_SIZE:
        _prefixes.clear()
    _prefixes[key] = (record.slopes, record.word, text)
    return text


def family_to_json(family: LinkFamily) -> str:
    """The family as one line of JSON, as a census writes it.

    Keys come in a fixed order: target, x, slopes, orbits (each with its
    representative, slopes, word, trace, length and discriminant),
    counts (x in the quotient, 3x and 6x in its two covers), the two
    volumes, total_length and ratio.  Traces are decimal strings.  The
    line is what json.dumps writes with separators (",", ":"), and no
    string in it needs escaping: slopes, words and traces are made of
    ASCII digits, "/", "-", L and R.  Every real is real12 of a finite
    double (x * v_oct, and sums and square roots of finite lengths), so
    its %r is float.__repr__, which is what json writes for a finite
    float; json writes an int with int.__repr__, as %d does.
    """
    x = family.x
    orbits = ",".join([
        '%s%d","length":%r,"discriminant":%d}' % (
            _orbit_prefix(record), record.trace, real12(record.length),
            record.discriminant,
        )
        for record in family.orbits
    ])
    return (
        '{"target":"%s","x":%d,"slopes":["%s"],"orbits":[%s],'
        '"counts":{"modular":%d,"ut_single":%d,"ut_both":%d},'
        '"volume_modular":%r,"volume_paper_formula":%r,'
        '"total_length":%r,"ratio":%r}'
    ) % (
        family.target, x, '","'.join(map(str, family.slopes)), orbits,
        x, 3 * x, 6 * x,
        real12(family.volume_modular), real12(family.volume_alternative),
        real12(family.total_length), real12(family.ratio),
    )


def report_to_csv(rows: Iterable[VolumeRow]) -> Iterator[str]:
    """CSV lines of volume_length_table's rows: the header, then one per n.

    Each line is one str.join, yielded as soon as its row arrives.  The
    text equals what csv.writer writes with a newline line terminator:
    its minimal quoting never applies, because no field can hold a
    comma, a quote or a line break; the fields are digits, L and R, "."
    and "-".
    """
    yield ",".join(CSV_HEADER) + "\n"
    for row in rows:
        n = str(row.n)
        yield ",".join((
            n,
            row.word,
            str(row.trace),
            format_real(row.length),
            format_real(row.cumulative_length),
            n,
            format_real(row.volume),
            format_real(row.volume_alternative),
            format_real(row.ratio),
        )) + "\n"


def family_text(family: LinkFamily) -> str:
    """Human-readable multi-line report for one family."""
    x = family.x
    lines = [
        f"target: {family.target}",
        f"x: {x}",
        "slopes: " + " ".join(str(s) for s in family.slopes),
    ]
    for i, record in enumerate(family.orbits, start=1):
        lines.append(
            f"orbit {i}: representative {record.representative}"
            f" slopes {{{', '.join(str(s) for s in record.slopes)}}}"
            f" word {record.word}"
            f" trace {record.trace}"
            f" length {format_real(record.length)}"
            f" discriminant {record.discriminant}"
        )
    lines.append(f"counts: modular {x}, ut-single {3 * x}, ut-both {6 * x}")
    lines.append(f"volume-modular: {format_real(family.volume_modular)}")
    lines.append(f"volume-paper-formula: {format_real(family.volume_alternative)}")
    lines.append(f"total-length: {format_real(family.total_length)}")
    lines.append(f"ratio: {format_real(family.ratio)}")
    return "\n".join(lines) + "\n"
