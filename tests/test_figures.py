"""SVG figure tests: well-formedness, element counts, determinism."""

import xml.etree.ElementTree as ET

import pytest

from modlink import figures
from modlink.cutting import UnsupportedSlopeError
from modlink.farey import INFINITY, ZERO, Slope, farey_path
from modlink.figures import farey_disk_svg, lattice_line_svg


def _by_class(root, name):
    return [e for e in root.iter() if name in (e.get("class") or "").split()]


def test_disk_svg_structure():
    svg = farey_disk_svg(farey_path(Slope(3, 2)))
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    assert len(_by_class(root, "path-triangle")) == 3
    labels = _by_class(root, "slope-label")
    assert len(labels) == 5  # 2 + x vertex slopes
    texts = {e.text for e in labels}
    assert texts == {"0/1", "1/1", "1/0", "2/1", "3/2"}
    assert len(_by_class(root, "target")) == 1
    assert len(_by_class(root, "triangle")) > 20  # background tessellation


def test_disk_svg_background_depth_zero(monkeypatch):
    monkeypatch.setattr(figures, "_BACKGROUND_DEPTH", 0)
    svg = farey_disk_svg(farey_path(Slope(1, 1)))
    root = ET.fromstring(svg)
    assert _by_class(root, "triangle") == []  # only the base triangle, on the path
    assert len(_by_class(root, "path-triangle")) == 1
    assert len(_by_class(root, "slope-label")) == 3


def test_disk_svg_deterministic():
    path = farey_path(Slope(2, 3))
    assert farey_disk_svg(path) == farey_disk_svg(path)


def test_line_svg_structure():
    svg = lattice_line_svg(Slope(3, 2))
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    assert len(_by_class(root, "crossing")) == 5  # p + q arc crossings
    ab = [e.text for e in _by_class(root, "ab-label")]
    assert sorted(ab) == ["A", "A", "B", "B", "B"]
    lr = [e.text for e in _by_class(root, "lr-label")]
    assert len(lr) == 6  # 2 * max(p, q) triangle crossings
    assert sorted(lr) == ["L", "L", "L", "R", "R", "R"]


def test_line_svg_deterministic():
    assert lattice_line_svg(Slope(2, 5)) == lattice_line_svg(Slope(2, 5))


def test_line_svg_rejects_axis_slopes():
    for s in (ZERO, INFINITY):
        with pytest.raises(UnsupportedSlopeError):
            lattice_line_svg(s)
