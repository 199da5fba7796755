import math

import pytest
from hypothesis import given, settings, strategies as st

from blockspin.tiling import (
    Tiling,
    TilingError,
    brick_tiling,
    concatenate_tiling,
    plus_tiling,
    render_svg,
    trivial_tiling,
    validate_tiling,
)

SQRT5 = math.sqrt(5.0)
ROT = math.atan2(1.0, 2.0)  # arctan(1/2)


class TestPlusTiling:
    def test_l5_right_handed(self):
        t = plus_tiling(5, +1)
        assert t.tile_count == 5
        ok, rescale, rotation = validate_tiling(t)
        assert ok
        assert rescale == pytest.approx(SQRT5, abs=1e-12)
        assert rotation == pytest.approx(ROT, abs=1e-12)

    def test_left_handed_mirror(self):
        _, _, rot_r = validate_tiling(plus_tiling(5, +1))
        _, _, rot_l = validate_tiling(plus_tiling(5, -1))
        assert rot_l == pytest.approx(-rot_r, abs=1e-12)

    def test_exact_cover_l10(self):
        t = plus_tiling(10, +1)
        assert t.tile_count == 20
        counts = {}
        for site, (tid, _) in t.assignment.items():
            counts[site] = counts.get(site, 0) + 1
        assert set(t.assignment) == {(x, y) for x in range(10) for y in range(10)}
        assert all(c == 1 for c in counts.values())

    def test_indivisible_extent_rejected(self):
        with pytest.raises(TilingError):
            plus_tiling(7, +1)


class TestBrickTiling:
    def test_l5_centers_match_plus(self):
        b = brick_tiling(5)
        p = plus_tiling(5, +1)
        assert b.tile_count == 5
        assert sorted(b.centers) == sorted(p.centers)
        ok, rescale, _ = validate_tiling(b)
        assert ok
        assert rescale == pytest.approx(SQRT5, abs=1e-12)

    def test_exact_cover_l15(self):
        t = brick_tiling(15)
        assert t.tile_count == 45
        assert validate_tiling(t)[0]


class TestTrivialTiling:
    def test_identity_blocking(self):
        t = trivial_tiling(4)
        assert t.tile_count == 16
        ok, rescale, rotation = validate_tiling(t)
        assert ok
        assert rescale == pytest.approx(1.0)
        assert rotation == pytest.approx(0.0)


class TestValidator:
    def test_detects_double_cover(self):
        t = plus_tiling(5, +1)
        broken = dict(t.assignment)
        # point two sites at the same tile/position
        sites = sorted(broken)
        broken[sites[0]] = broken[sites[1]]
        bad = Tiling(
            t.L, t.tile_shape, t.centers, broken, t.rescale, t.rotation, "bad"
        )
        with pytest.raises(TilingError, match="cover"):
            validate_tiling(bad)

    def test_rejects_non_similar_sublattice(self):
        # 2x1 dominoes with column-stripe centers: exact cover, but the
        # center lattice is not a rotated-and-scaled copy of Z^2
        L = 4
        shape = ((0, 0), (1, 0))
        centers = [(x, y) for x in range(0, L, 2) for y in range(L)]
        assignment = {}
        for tid, (cx, cy) in enumerate(centers):
            for pos, (dx, dy) in enumerate(shape):
                assignment[((cx + dx) % L, (cy + dy) % L)] = (tid, pos + 1)
        bad = Tiling(L, shape, centers, assignment, math.sqrt(2), 0.0, "domino")
        with pytest.raises(TilingError, match="sublattice"):
            validate_tiling(bad)


class TestConcatenation:
    def test_single_level_reduces_to_base(self):
        base = plus_tiling(5, +1)
        c = concatenate_tiling(base, 1)
        assert c.top_tile_count == base.tile_count
        # same partition of sites into tiles, up to tile relabelling
        groups_base: dict[int, set] = {}
        groups_cat: dict[int, set] = {}
        for site, (tid, path) in c.addresses.items():
            assert len(path) == 1
            groups_cat.setdefault(tid, set()).add(site)
        for site, (tid, _) in base.assignment.items():
            groups_base.setdefault(tid, set()).add(site)
        assert sorted(map(sorted, groups_base.values())) == sorted(
            map(sorted, groups_cat.values())
        )

    def test_l25_two_levels(self):
        base = plus_tiling(25, +1)
        c = concatenate_tiling(base, 2)
        assert len(c.addresses) == 625
        assert c.top_tile_count == 625 // 25

    def test_addresses_unique(self):
        c = concatenate_tiling(plus_tiling(25, +1), 2)
        full = {(tid, path) for tid, path in c.addresses.values()}
        assert len(full) == len(c.addresses)

    def test_extent_restriction(self):
        with pytest.raises(TilingError):
            concatenate_tiling(plus_tiling(5, +1), 2)


class TestSvg:
    def test_metadata_embedded(self):
        t = plus_tiling(5, +1)
        svg = render_svg(t)
        assert svg.startswith("<?xml") or svg.lstrip().startswith("<")
        assert f"rescale={t.rescale:.12f}" in svg
        assert "plus-right" in svg
        assert svg.count("<rect") >= 25
