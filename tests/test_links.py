"""Family assembly, volume constants, census and serialization tests.

The package's octahedron volume literal is checked three ways: against
a reference constant to the last bit, an exact-Fraction Euler
transform of the alternating series 1 - 1/9 + 1/25 - ..., and
numerical quadrature of -8 * integral of ln(2 sin t) on [0, pi/4].
"""

import contextlib
import csv
import dataclasses
import io
import json
import math
from fractions import Fraction
from itertools import groupby

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from modlink import links, serialize
from modlink.cli import main
from modlink.cutting import slope_to_word
from modlink.farey import (
    INFINITY,
    ONE,
    ZERO,
    NegativeSlopeError,
    NotAChainError,
    Slope,
    farey_path,
    is_farey_neighbour,
    order_as_farey_chain,
    v_orbit,
    v_rotate,
)
from modlink.links import (
    LinkFamily,
    _tower_word,
    build_family,
    census,
    v_oct,
    volume_length_table,
)
from modlink.psl2z import geodesic_length, least_rotation
from modlink.serialize import (
    family_text,
    family_to_json,
    format_real,
    real12,
    report_to_csv,
)

V_OCT_REFERENCE = 3.663862376708876


# ------------------------------------------------------- volume constant


def _catalan_euler_transform() -> float:
    """Catalan constant by exact Euler transform of sum (-1)^n/(2n+1)^2.

    The transformed tail shrinks like 2^-k, so 64 exact-rational
    difference levels are far beyond double precision.
    """
    n = 64
    row = [Fraction(1, (2 * k + 1) ** 2) for k in range(n)]
    total = Fraction(0)
    for k in range(n):
        total += Fraction((-1) ** k, 2 ** (k + 1)) * row[0]
        row = [row[i + 1] - row[i] for i in range(len(row) - 1)]
    return float(total)


def test_v_oct_matches_reference_constant():
    # 4 * Catalan = 3.66386237670887606..., correctly rounded
    assert v_oct() == V_OCT_REFERENCE


def test_v_oct_matches_euler_transform_series():
    assert v_oct() == pytest.approx(4 * _catalan_euler_transform(), abs=1e-13)


def test_v_oct_matches_lobachevsky_quadrature():
    integrate = pytest.importorskip("scipy.integrate")

    def smooth(t: float) -> float:
        return 0.0 if t == 0.0 else math.log(math.sin(t) / t)

    a = math.pi / 4
    log_part = a * (math.log(2 * a) - 1)  # integral of ln(2t) on [0, a]
    smooth_part, err = integrate.quad(smooth, 0.0, a, epsabs=1e-14)
    assert err < 1e-12
    assert v_oct() == pytest.approx(-8 * (log_part + smooth_part), abs=1e-12)


# --------------------------------------------------------- family golden


def _strs(slopes) -> list[str]:
    return [str(s) for s in slopes]


def test_family_three_halves_golden():
    fam = build_family(Slope(3, 2))
    assert fam.x == 3
    assert _strs(fam.slopes) == [
        "-2/1", "-1/1", "0/1", "1/3", "1/2", "1/1", "3/2", "2/1", "1/0",
    ]
    assert _strs(r.representative for r in fam.orbits) == ["1/1", "2/1", "3/2"]
    assert [r.word for r in fam.orbits] == ["LR", "LLRR", "LLRRLR"]
    assert [r.trace for r in fam.orbits] == [3, 6, 15]
    assert [r.discriminant for r in fam.orbits] == [5, 2, 221]
    assert _strs(fam.orbits[0].slopes) == ["0/1", "1/1", "1/0"]
    assert _strs(fam.orbits[1].slopes) == ["-1/1", "1/2", "2/1"]
    assert _strs(fam.orbits[2].slopes) == ["-2/1", "1/3", "3/2"]
    assert json.loads(family_to_json(fam))["counts"] == {
        "modular": 3, "ut_single": 9, "ut_both": 18,
    }
    assert fam.volume_modular == pytest.approx(3 * V_OCT_REFERENCE, abs=1e-12)
    assert fam.volume_alternative == pytest.approx(fam.volume_modular / 2)
    assert fam.total_length == pytest.approx(sum(r.length for r in fam.orbits))
    assert fam.ratio == pytest.approx(fam.volume_modular / math.sqrt(fam.total_length))
    chain = fam.slopes
    dets = [a.p * b.q - a.q * b.p for a, b in zip(chain, chain[1:] + chain[:1])]
    assert dets == [-1] * 8 + [1]  # ascending pairs, then the wrap 1/0 -> -2/1


def test_family_one_is_the_single_octahedron_anchor():
    fam = build_family(ONE)
    assert fam.x == 1
    assert _strs(fam.slopes) == ["0/1", "1/1", "1/0"]
    assert len(fam.orbits) == 1
    assert fam.orbits[0].word == "LR"
    assert fam.orbits[0].trace == 3
    assert fam.orbits[0].discriminant == 5
    assert fam.volume_modular == pytest.approx(V_OCT_REFERENCE, abs=1e-12)
    assert json.loads(family_to_json(fam))["counts"] == {
        "modular": 1, "ut_single": 3, "ut_both": 6,
    }


def test_family_accepts_all_base_targets():
    for target in (ZERO, ONE, INFINITY):
        fam = build_family(target)
        assert fam.x == 1 and fam.target == target


def test_family_rejects_negative_target():
    with pytest.raises(NegativeSlopeError):
        build_family(Slope(-1, 3))


def _family_invariants(fam: LinkFamily):
    x = fam.x
    slopes = set(fam.slopes)
    assert len(fam.slopes) == 3 * x == len(slopes)
    assert {v_rotate(s) for s in slopes} == slopes
    assert len(fam.orbits) == x
    orbit_union = set()
    for record in fam.orbits:
        assert set(record.slopes) == {
            record.representative,
            v_rotate(record.representative),
            v_rotate(v_rotate(record.representative)),
        }
        assert not (set(record.slopes) & orbit_union)
        orbit_union |= set(record.slopes)
        assert least_rotation(record.word) == record.word
        assert record.length == pytest.approx(geodesic_length(record.trace))
    assert orbit_union == slopes
    chain = fam.slopes
    assert all(is_farey_neighbour(a, b) for a, b in zip(chain, chain[1:] + chain[:1]))
    counts = json.loads(family_to_json(fam))["counts"]
    assert counts == {"modular": x, "ut_single": 3 * x, "ut_both": 6 * x}
    assert fam.volume_modular == pytest.approx(x * V_OCT_REFERENCE, rel=1e-12)
    assert fam.total_length == pytest.approx(sum(r.length for r in fam.orbits))


def test_family_invariants_for_small_targets():
    targets = [INFINITY] + [
        Slope(p, q)
        for q in range(1, 13)
        for p in range(0, 13)
        if math.gcd(p, q) == 1
    ]
    for target in targets:
        _family_invariants(build_family(target))


def _closure_oracle(path) -> tuple[list[Slope], list[tuple[Slope, ...]]]:
    """The slow construction: sort the rotation closure into chain and orbits."""
    reps = (ONE,) + path.new_vertices
    closure = frozenset().union(*(v_orbit(rep) for rep in reps))
    return order_as_farey_chain(closure), [tuple(sorted(v_orbit(rep))) for rep in reps]


@settings(deadline=None, max_examples=100)
@given(st.integers(0, 5000), st.integers(0, 5000))
@example(0, 1)
@example(1, 1)
@example(1, 0)
@example(1, 5000)
@example(5000, 1)
def test_family_slopes_match_the_closure_oracle(p, q):
    assume(math.gcd(p, q) == 1)
    with pytest.MonkeyPatch.context() as patch:
        # the chain and orbits need no field: skip factoring the deep traces
        patch.setattr(links, "field_discriminant", lambda matrix: 0)
        family = build_family(Slope(p, q))
    chain, orbit_slopes = _closure_oracle(family.path)
    assert list(family.slopes) == chain
    assert [record.slopes for record in family.orbits] == orbit_slopes


def test_census_families_match_the_closure_oracle_to_depth_8():
    for family in census(8):
        chain, orbit_slopes = _closure_oracle(family.path)
        assert list(family.slopes) == chain
        assert [record.slopes for record in family.orbits] == orbit_slopes
        pairs = zip(family.slopes, family.slopes[1:] + family.slopes[:1])
        assert all(is_farey_neighbour(a, b) for a, b in pairs)


def test_census_builds_one_word_per_representative(monkeypatch):
    built, orbits = [], []

    def counting_slope_to_word(s):
        built.append(s)
        return slope_to_word(s)

    def counting_v_orbit(s):
        orbits.append(s)
        return v_orbit(s)

    monkeypatch.setattr(links, "slope_to_word", counting_slope_to_word)
    monkeypatch.setattr(links, "v_orbit", counting_v_orbit)
    links._representative.cache_clear()
    try:
        families = list(census(5))
    finally:
        links._representative.cache_clear()
    assert sum(f.x for f in families) == 129
    assert len(built) == len(set(built)) == 2**5 - 1
    assert len(orbits) == len(set(orbits)) == 2**5 - 1


def test_family_rejects_orbits_that_share_a_slope(monkeypatch):
    # a faulty orbit memo gives 3/2 an orbit that shares 1/2 with that of
    # 2/1: the chain's neighbour test, not a count, must catch it
    representative = links._representative

    def overlapping(p, q):
        slopes, word = representative(p, q)
        if (p, q) == (3, 2):
            slopes = (Slope(-2, 1), Slope(1, 3), Slope(1, 2))
        return slopes, word

    monkeypatch.setattr(links, "_representative", overlapping)
    with pytest.raises(NotAChainError) as info:
        build_family(Slope(3, 2))
    assert info.value.pair == (Slope(1, 2), Slope(1, 2))


# ------------------------------------------------------- geodesic towers


def test_gamma_sequence_words_and_traces():
    # the family of 1/n carries the first n words LR, LR(RL), LR(RL)^2, ...
    fam = build_family(Slope(1, 5))
    assert [r.word for r in fam.orbits] == [
        "LR", "LLRR", "LLRRLR", "LLRRLRLR", "LLRRLRLRLR",
    ]
    traces = [r.trace for r in fam.orbits]
    assert traces[:3] == [3, 6, 15]
    for a, b, c in zip(traces, traces[1:], traces[2:]):
        assert c == 3 * b - a


def test_tower_word_is_least_rotation_of_lr_rl_power():
    for n in range(1, 301):
        assert _tower_word(n) == least_rotation("LR" + "RL" * (n - 1)), n


def test_gamma_trace_recursion_holds_to_50():
    fam = build_family(Slope(1, 50))
    words = [r.word for r in fam.orbits]
    assert words == [_tower_word(n) for n in range(1, 51)]
    traces = [r.trace for r in fam.orbits]
    assert traces[0] == 3 and traces[1] == 6
    for a, b, c in zip(traces, traces[1:], traces[2:]):
        assert c == 3 * b - a


def test_each_tower_row_is_the_family_of_one_over_n():
    # the closed-form tower word against the one slope -> word path
    for n, row in enumerate(volume_length_table(60), 1):
        family = build_family(Slope(1, n))
        newest = family.orbits[-1]
        assert (row.word, row.trace, row.length) == (
            newest.word, newest.trace, newest.length
        ), n
        assert row.cumulative_length == family.total_length, n
        assert row.volume == family.volume_modular, n
        assert row.volume_alternative == family.volume_alternative, n
        assert row.ratio == family.ratio, n
    for n in range(1, 2000):
        assert _tower_word(n) == slope_to_word(Slope(1, n)), n


def test_volume_length_table_golden():
    rows = tuple(volume_length_table(3))
    assert [r.n for r in rows] == [1, 2, 3]
    assert [r.word for r in rows] == ["LR", "LLRR", "LLRRLR"]
    assert [r.trace for r in rows] == [3, 6, 15]
    assert rows[0].length == pytest.approx(1.9248473002384139, abs=1e-14)
    assert rows[2].cumulative_length == pytest.approx(
        sum(r.length for r in rows), abs=1e-12
    )
    for row in rows:
        assert row.volume == pytest.approx(row.n * V_OCT_REFERENCE, rel=1e-12)
        assert row.volume_alternative == pytest.approx(row.volume / 2)
        assert row.ratio == pytest.approx(row.volume / math.sqrt(row.cumulative_length))
    with pytest.raises(ValueError):
        tuple(volume_length_table(0))


def test_volume_length_ratio_window_to_50():
    cumulative = 0.0
    for row in volume_length_table(50):
        cumulative += row.length
        assert row.cumulative_length == pytest.approx(cumulative, rel=1e-12)
        assert 1.5 < row.ratio < 4.5


# ---------------------------------------------------------------- census


def test_census_counts_and_order():
    families = list(census(3))
    assert len(families) == 7
    assert _strs(f.target for f in families) == [
        "1/1", "1/2", "2/1", "1/3", "2/3", "3/2", "3/1",
    ]
    assert [f.x for f in families] == [1, 2, 2, 3, 3, 3, 3]
    assert len(list(census(1))) == 1
    assert len(list(census(5))) == 2**5 - 1


def test_census_mirror_dedupe():
    families = list(census(3, dedupe_mirror=True))
    assert _strs(f.target for f in families) == ["1/1", "1/2", "1/3", "2/3"]
    with pytest.raises(ValueError):
        list(census(0))


def _orbit_set(family: LinkFamily) -> frozenset:
    return frozenset(record.slopes for record in family.orbits)


def test_census_lists_each_link_twice_and_dedupe_mirror_once():
    # s and V(s) = q/(q - p) share their orbits, so their link; V(s) is
    # negative for s > 1, and then V^2(s) is the positive partner
    full = list(census(9))
    for family in full:
        s = family.target
        partner = v_rotate(s) if s.p <= s.q else v_rotate(v_rotate(s))
        assert _orbit_set(build_family(partner)) == _orbit_set(family), s
    deduped = [_orbit_set(family) for family in census(9, dedupe_mirror=True)]
    assert len(set(deduped)) == len(deduped) == 256
    assert set(deduped) == {_orbit_set(family) for family in full}
    assert len(full) == 511


def test_the_targets_of_a_class_print_equal_totals_ratios_and_orbits():
    # each class {s, V s, 1/s, V(1/s)} is one link up to mirror image;
    # V^2 stands in for V above 1, and only 1/1's partner, 1/0, is no target
    def partner(s):
        return v_rotate(s) if s.p <= s.q else v_rotate(v_rotate(s))

    def printed(record):
        return (
            record["total_length"],
            record["ratio"],
            sorted(orbit["trace"] for orbit in record["orbits"]),
            sorted(orbit["length"] for orbit in record["orbits"]),
        )

    records = {f.target: json.loads(family_to_json(f)) for f in census(9)}
    assert len(records) == 511
    for s, record in records.items():
        inverse = Slope(s.q, s.p)
        for other in (partner(s), inverse, partner(inverse)):
            if other == INFINITY:
                assert s == ONE
                continue
            assert printed(records[other]) == printed(record), (s, other)


@pytest.mark.parametrize("dedupe_mirror", [False, True])
def test_census_targets_match_brute_force_to_depth_8(dedupe_mirror):
    # every slope of Farey depth <= 8 has p, q <= F(9) = 34
    by_depth: dict[int, list[Slope]] = {x: [] for x in range(1, 9)}
    for p in range(1, 35):
        for q in range(1, 35):
            s = Slope(p, q)
            if (s.p, s.q) != (p, q) or (dedupe_mirror and p > q):
                continue
            x = farey_path(s).x
            if x <= 8:
                by_depth[x].append(s)
    families = list(census(8, dedupe_mirror=dedupe_mirror))
    assert [f.x for f in families] == sorted(f.x for f in families)
    actual = {
        x: [f.target for f in group] for x, group in groupby(families, lambda f: f.x)
    }
    assert actual == {x: sorted(slopes) for x, slopes in by_depth.items()}


def test_census_orbit_words_are_canonical():
    for family in census(6):
        for record in family.orbits:
            assert record.word == least_rotation(record.word)


def test_census_depth_three_has_both_word_sets():
    word_sets = {
        frozenset(r.word for r in f.orbits)
        for f in census(3)
        if f.x == 3
    }
    assert frozenset({"LR", "LLRR", "LLRRLR"}) in word_sets
    assert frozenset({"LR", "LLRR", "LLRLRR"}) in word_sets
    assert len(word_sets) == 2


# --------------------------------------------------------- serialization


def test_format_real_is_twelve_significant_digits():
    assert format_real(3.6638623767088756) == "3.66386237671"
    assert format_real(10.991587130126627) == "10.9915871301"
    assert format_real(1.9248473002384139) == "1.92484730024"
    assert format_real(0.5) == "0.5"
    assert real12(10.991587130126627) == 10.9915871301


@given(st.floats())
@example(0.0)
@example(-0.0)
@example(math.inf)
@example(-math.inf)
@example(5e-324)
@example(-2.2250738585072014e-308)
@example(-1e-300)
def test_memoised_real12_is_float_of_format_real(x):
    # repr tells 0.0 from -0.0; nan equals nothing, itself included
    got, want = real12(x), float(format_real(x))
    assert repr(got) == repr(want)


def test_real12_memo_is_bounded_and_rounds_signed_zeros_alike():
    assert 0 < real12.cache_info().maxsize <= 4096
    for first, second in ((0.0, -0.0), (-0.0, 0.0)):
        real12.cache_clear()
        assert repr(real12(first)) == repr(real12(second)) == "0.0"
        assert real12.cache_info().hits == 1


def test_family_json_schema_and_values():
    fam = build_family(Slope(3, 2))
    data = json.loads(family_to_json(fam))
    assert list(data) == [
        "target", "x", "slopes", "orbits", "counts",
        "volume_modular", "volume_paper_formula", "total_length", "ratio",
    ]
    assert data["target"] == "3/2"
    assert data["x"] == 3
    assert data["slopes"] == [
        "-2/1", "-1/1", "0/1", "1/3", "1/2", "1/1", "3/2", "2/1", "1/0",
    ]
    assert [o["word"] for o in data["orbits"]] == ["LR", "LLRR", "LLRRLR"]
    assert [o["trace"] for o in data["orbits"]] == ["3", "6", "15"]
    assert data["orbits"][0]["length"] == 1.92484730024
    assert data["counts"] == {"modular": 3, "ut_single": 9, "ut_both": 18}
    assert data["volume_modular"] == 10.9915871301
    assert data["volume_paper_formula"] == 5.49579356506
    assert data["ratio"] == real12(fam.ratio)
    assert _family_dict(fam) == data
    assert "\n" not in family_to_json(fam)


def _family_dict(family: LinkFamily) -> dict:
    """The family's JSON record as a dict, keys in order: the oracle of the line."""
    x = family.x
    return {
        "target": str(family.target),
        "x": x,
        "slopes": [str(s) for s in family.slopes],
        "orbits": [
            {
                "representative": str(record.representative),
                "slopes": [str(s) for s in record.slopes],
                "word": record.word,
                "trace": str(record.trace),
                "length": real12(record.length),
                "discriminant": record.discriminant,
            }
            for record in family.orbits
        ],
        "counts": {"modular": x, "ut_single": 3 * x, "ut_both": 6 * x},
        "volume_modular": real12(family.volume_modular),
        "volume_paper_formula": real12(family.volume_alternative),
        "total_length": real12(family.total_length),
        "ratio": real12(family.ratio),
    }


def _dumped_compactly(family: LinkFamily) -> str:
    """The census line made by json from the oracle dict."""
    return json.dumps(_family_dict(family), separators=(",", ":"))


def test_compact_line_is_the_dumped_dict_on_every_family_to_depth_10():
    families = list(census(10))
    assert len(families) == 1023
    for family in families:
        assert family_to_json(family) == _dumped_compactly(family)


@given(st.integers(0, 40), st.integers(0, 40))
@example(0, 1)
@example(1, 0)
@example(3, 2)
@example(40, 1)
@example(1, 40)
def test_compact_line_is_the_dumped_dict_for_targets_to_40(p, q):
    assume(math.gcd(p, q) == 1)
    family = build_family(Slope(p, q))
    assert family_to_json(family) == _dumped_compactly(family)
    # family --json prints the same record indented by 2
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["family", f"{p}/{q}", "--json", "-"]) == 0
    assert out.getvalue() == json.dumps(_family_dict(family), indent=2) + "\n"
    if p > q > 0:
        # the chain of a target past 1/1 holds negative slopes
        assert family.slopes[0] < ZERO


def test_an_orbit_prefix_is_never_another_records(monkeypatch):
    family = build_family(Slope(3, 2))
    line = family_to_json(family)
    first = family.orbits[1]
    changed = [
        dataclasses.replace(first, word="LLRRLR"),
        dataclasses.replace(first, slopes=tuple(first.slopes[::-1])),
        # equal slopes and word, but not the objects the text was made from
        dataclasses.replace(first, slopes=tuple(list(first.slopes)),
                            word="".join(list(first.word))),
        dataclasses.replace(first, representative=Slope(5, 3)),
    ]
    for record in changed:
        other = dataclasses.replace(
            family, orbits=(family.orbits[0], record) + family.orbits[2:]
        )
        assert family_to_json(other) == _dumped_compactly(other)
        assert family_to_json(family) == line
    # a full cache is emptied, and its lines stay the same
    monkeypatch.setattr(serialize, "_PREFIX_CACHE_SIZE", 3)
    monkeypatch.setattr(serialize, "_prefixes", {})
    for family in census(5):
        assert family_to_json(family) == _dumped_compactly(family)
        assert len(serialize._prefixes) <= 3


def test_report_csv_golden():
    lines = "".join(report_to_csv(volume_length_table(3))).splitlines()
    assert lines[0] == (
        "n,word,trace,length,cumulative_length,octahedra,"
        "volume,volume_paper_formula,ratio"
    )
    assert lines[1] == (
        "1,LR,3,1.92484730024,1.92484730024,1,"
        "3.66386237671,1.83193118835,2.64083344221"
    )
    assert lines[2] == (
        "2,LLRR,6,3.52549434808,5.45034164832,2,"
        "7.32772475342,3.66386237671,3.13875403957"
    )
    assert lines[3] == (
        "3,LLRRLR,15,5.40715166186,10.8574933102,3,"
        "10.9915871301,5.49579356506,3.33576633705"
    )


def _csv_writer_table(rows) -> str:
    """The table as csv.writer writes it, the oracle for report_to_csv."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        ["n", "word", "trace", "length", "cumulative_length", "octahedra",
         "volume", "volume_paper_formula", "ratio"]
    )
    for row in rows:
        writer.writerow(
            [row.n, row.word, row.trace, format_real(row.length),
             format_real(row.cumulative_length), row.n, format_real(row.volume),
             format_real(row.volume_alternative), format_real(row.ratio)]
        )
    return out.getvalue()


def test_report_csv_matches_csv_writer():
    rows = tuple(volume_length_table(1600))
    for n in (*range(1, 301), 1600):
        text = "".join(report_to_csv(volume_length_table(n)))
        assert text == _csv_writer_table(rows[:n]), n


def test_family_text_report():
    text = family_text(build_family(Slope(3, 2)))
    assert "target: 3/2" in text
    assert "x: 3" in text
    assert "volume-modular: 10.9915871301" in text
    assert "volume-paper-formula: 5.49579356506" in text
    for marker in ("LR", "LLRR", "LLRRLR", "221"):
        assert marker in text
