"""Deterministic text, JSON and CSV serialization of reports.

Real numbers are rounded to 12 significant digits with ties away from
zero; identical inputs always serialize to identical bytes.  The computed
double is rounded, so one within a few ulps of a rounding boundary can
print one unit off the exact value in the 12th digit.  Traces are
serialized as decimal strings because they outgrow every fixed-width
integer type.  CSV lines are joined directly rather than through the
csv module: every CSV field is made of digits, L, R, "." and "-", so
no field ever needs quoting.
"""

from __future__ import annotations

import json
from decimal import Context, Decimal, ROUND_HALF_UP
from functools import lru_cache
from typing import Iterable, Iterator

from .links import LinkFamily, VolumeRow

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


def family_to_dict(family: LinkFamily) -> dict:
    """JSON-ready dict for a link family, keys in fixed order."""
    counts = family.counts
    return {
        "target": str(family.target),
        "x": family.x,
        "slopes": [str(s) for s in family.slopes],
        "orbits": [
            {
                "representative": str(record.representative),
                "slopes": [str(s) for s in record.slopes],
                "word": record.word.letters,
                "trace": str(record.trace),
                "length": real12(record.length),
                "discriminant": record.discriminant,
            }
            for record in family.orbits
        ],
        "counts": {
            "modular": counts.modular,
            "ut_single": counts.ut_single,
            "ut_both": counts.ut_both,
        },
        "volume_modular": real12(family.volume_modular),
        "volume_paper_formula": real12(family.volume_alternative),
        "total_length": real12(family.total_length),
        "ratio": real12(family.ratio),
    }


_COMPACT_ENCODER = json.JSONEncoder(separators=(",", ":"))


def family_to_json(family: LinkFamily, compact: bool = False) -> str:
    d = family_to_dict(family)
    if compact:
        return _COMPACT_ENCODER.encode(d)
    return json.dumps(d, indent=2)


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
            row.word.letters,
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
    lines = [
        f"target: {family.target}",
        f"x: {family.x}",
        "slopes: " + " ".join(str(s) for s in family.slopes),
    ]
    for i, record in enumerate(family.orbits, start=1):
        lines.append(
            f"orbit {i}: representative {record.representative}"
            f" slopes {{{', '.join(str(s) for s in record.slopes)}}}"
            f" word {record.word.letters}"
            f" trace {record.trace}"
            f" length {format_real(record.length)}"
            f" discriminant {record.discriminant}"
        )
    lines.append(
        f"counts: modular {family.counts.modular},"
        f" ut-single {family.counts.ut_single},"
        f" ut-both {family.counts.ut_both}"
    )
    lines.append(f"volume-modular: {format_real(family.volume_modular)}")
    lines.append(f"volume-paper-formula: {format_real(family.volume_alternative)}")
    lines.append(f"total-length: {format_real(family.total_length)}")
    lines.append(f"ratio: {format_real(family.ratio)}")
    return "\n".join(lines) + "\n"
