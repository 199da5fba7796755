import math
from dataclasses import FrozenInstanceError, fields, replace

import pytest
from hypothesis import given, settings, strategies as st

from blockspin import tiling
from blockspin.tiling import (
    BRICK_OFFSETS,
    PLUS_OFFSETS,
    Tiling,
    TilingError,
    _build_assignment,
    _is_similar_sublattice,
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


class TestExtent:
    @pytest.mark.parametrize(
        "build",
        [lambda L: plus_tiling(L, +1), lambda L: plus_tiling(L, -1), brick_tiling,
         trivial_tiling],
        ids=["plus-right", "plus-left", "brick", "trivial"],
    )
    @pytest.mark.parametrize("L", [0, -5])
    def test_non_positive_extent_refused(self, build, L):
        with pytest.raises(TilingError, match="extent"):
            build(L)

    @pytest.mark.parametrize("L", [0, -5])
    def test_direct_construction_refused(self, L):
        with pytest.raises(TilingError, match="extent"):
            Tiling(L, PLUS_OFFSETS, [(0, 0)])


def _bfs_sublattice(a: int, b: int, L: int) -> set[tuple[int, int]]:
    """Reference: all integer combinations of (a, b) and (-b, a) on the
    torus, by breadth-first search from the origin."""
    out: set[tuple[int, int]] = set()
    frontier = [(0, 0)]
    while frontier:
        x, y = frontier.pop()
        if (x, y) in out:
            continue
        out.add((x, y))
        for dx, dy in ((a, b), (-b, a), (-a, -b), (b, -a)):
            frontier.append(((x + dx) % L, (y + dy) % L))
    return out


class TestSublatticeTest:
    @settings(max_examples=200, deadline=None)
    @given(
        L=st.integers(1, 12),
        a=st.integers(-12, 12),
        b=st.integers(-12, 12),
        gens=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=3),
        extra=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=6),
        kind=st.sampled_from(["subgroup", "perturbed", "cosets"]),
        basis_from_gens=st.booleans(),
    )
    def test_matches_bfs_oracle(self, L, a, b, gens, extra, kind, basis_from_gens):
        # center sets: subgroups generated by (g, rot90 g) pairs, those sets
        # with arbitrary sites added or removed, or unions of cosets of the
        # cyclic group of the tested basis vector; the basis is arbitrary or
        # the first generator shifted by (a, b) * L
        if basis_from_gens and gens:
            a, b = gens[0][0] + a * L, gens[0][1] + b * L
        if kind == "cosets":
            cyclic = {((k * a) % L, (k * b) % L) for k in range(L)}
            centers = {
                ((x + cx) % L, (y + cy) % L)
                for x, y in [(0, 0), *extra]
                for cx, cy in cyclic
            }
        else:
            centers = {(0, 0)}
            for gx, gy in gens:
                centers |= {
                    ((cx + sx) % L, (cy + sy) % L)
                    for cx, cy in centers
                    for sx, sy in _bfs_sublattice(gx, gy, L)
                }
            if kind == "perturbed":
                centers ^= {(x % L, y % L) for x, y in extra} - {(0, 0)}
        assert _is_similar_sublattice(centers, a, b, L) == (
            centers == _bfs_sublattice(a, b, L)
        )

    @pytest.mark.parametrize("L", [5, 10, 25])
    def test_plus_centers_accept_their_basis(self, L):
        centers = set(plus_tiling(L, +1).centers)
        assert _is_similar_sublattice(centers, 2, 1, L)
        assert _is_similar_sublattice(centers, 1, -2, L)
        assert not _is_similar_sublattice(centers, 1, 2, L)
        # (3, 4) = (2+i)^2 spans the plus centers while 25 does not divide L
        assert _is_similar_sublattice(centers, 3, 4, L) == (L % 25 != 0)


class TestValidator:
    def test_names_missing_and_doubled_site(self):
        t = plus_tiling(5, +1)
        assert t.centers[0] == (0, 0)
        for centers, message in [
            (t.centers[1:], r"gap at site \(0, 0\)"),
            (t.centers + t.centers[:1], r"overlap at site \(\d+, \d+\)"),
        ]:
            bad = Tiling(t.L, t.tile_shape, centers, "bad")
            with pytest.raises(TilingError, match=message):
                validate_tiling(bad)

    def test_rejects_non_similar_sublattice(self):
        # 2x1 dominoes with column-stripe centers: exact cover, but the
        # center lattice is not a rotated-and-scaled copy of Z^2
        L = 4
        centers = [(x, y) for x in range(0, L, 2) for y in range(L)]
        bad = Tiling(L, ((0, 0), (1, 0)), centers, "domino")
        assert len(bad.assignment) == L * L
        with pytest.raises(TilingError, match="sublattice"):
            validate_tiling(bad)

    def test_rejects_centers_off_the_origin(self):
        t = plus_tiling(5, +1)
        shifted = Tiling(t.L, t.tile_shape, [((x + 1) % 5, y) for x, y in t.centers])
        assert len(shifted.assignment) == 25
        with pytest.raises(TilingError, match="must contain the origin"):
            validate_tiling(shifted)

    def test_single_site_has_nothing_to_fit(self):
        t = trivial_tiling(1)
        assert t.assignment == {(0, 0): (0, 1)}
        with pytest.raises(TilingError, match="no nonzero centers to fit"):
            t.rescale
        with pytest.raises(TilingError, match="no nonzero centers to fit"):
            validate_tiling(t)


BUILDERS = {
    "plus-right": lambda L: plus_tiling(L, +1),
    "plus-left": lambda L: plus_tiling(L, -1),
    "brick": brick_tiling,
    "brick-3": lambda L: brick_tiling(L, row_offset=3),
    "trivial": trivial_tiling,
}


class TestFrozen:
    def test_fields(self):
        assert [f.name for f in fields(Tiling)] == ["L", "tile_shape", "centers", "name"]

    @pytest.mark.parametrize("name", ["L", "tile_shape", "centers", "name", "assignment"])
    def test_assigning_to_a_field_raises(self, name):
        t = plus_tiling(5, +1)
        with pytest.raises(FrozenInstanceError):
            setattr(t, name, getattr(t, name))

    def test_centers_are_copied_into_a_tuple(self):
        centers = [(x, y) for y in range(5) for x in range(5) if (2 * x + y) % 5 == 0]
        t = Tiling(5, PLUS_OFFSETS, centers)
        centers.append((1, 1))
        assert isinstance(t.centers, tuple)
        assert t.centers == plus_tiling(5, +1).centers
        assert Tiling(5, PLUS_OFFSETS, iter(centers[:-1])) == t
        assert hash(replace(t)) == hash(t)

    def test_cover_and_fit_run_once_per_object(self, monkeypatch):
        calls = {"cover": 0, "closure": 0}

        def counting(key, fn):
            def wrapped(*args):
                calls[key] += 1
                return fn(*args)
            return wrapped

        monkeypatch.setattr(tiling, "_build_assignment", counting("cover", _build_assignment))
        monkeypatch.setattr(
            tiling, "_is_similar_sublattice", counting("closure", _is_similar_sublattice)
        )
        t = plus_tiling(25, +1)
        concatenate_tiling(t, 2)
        assert calls["cover"] == 0
        first = validate_tiling(t)
        once = dict(calls)
        assert once["cover"] == 1 and once["closure"] >= 1
        assert validate_tiling(t) == first
        assert (t.rescale, t.rotation) == first[1:]
        assert len(t.assignment) == 625
        render_svg(t)
        assert calls == once
        # a variant is a new object with its own cover and fit
        assert validate_tiling(replace(t, name="variant")) == first
        assert calls["cover"] == 2

    @pytest.mark.parametrize("L", [5, 25, 250])
    @pytest.mark.parametrize("kind", BUILDERS)
    def test_fit_equals_the_constructor_constants(self, kind, L):
        # the values the constructors stored before the fit, bit for bit
        expected = {
            "plus-right": (math.sqrt(5.0), math.atan2(1.0, 2.0)),
            "plus-left": (math.sqrt(5.0), -math.atan2(1.0, 2.0)),
            "brick": (math.sqrt(5.0), math.atan2(1.0, 2.0)),
            "brick-3": (math.sqrt(5.0), -math.atan2(1.0, 2.0)),
            "trivial": (1.0, 0.0),
        }[kind]
        t = BUILDERS[kind](L)
        assert (t.rescale, t.rotation) == expected
        assert validate_tiling(t) == (True, *expected)


def _duplicated_center(t: Tiling) -> Tiling:
    return replace(t, centers=[t.centers[0], t.centers[0], *t.centers[2:]])


def _appended_center(t: Tiling) -> Tiling:
    return replace(t, centers=[*t.centers, t.centers[-1]])


def _dropped_center(t: Tiling) -> Tiling:
    return replace(t, centers=t.centers[1:])


@pytest.mark.parametrize(
    "build", [lambda: plus_tiling(25, +1), lambda: brick_tiling(25)], ids=["plus", "brick"]
)
@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_duplicated_center, "overlap at site (0, 0)"),
        (_appended_center, "overlap at site {last}"),
        (_dropped_center, "gap at site (0, 0)"),
    ],
    ids=["_duplicated_center", "_appended_center", "_dropped_center"],
)
def test_one_pass_cover_check_keeps_the_rebuild_messages(build, corrupt, message):
    # the cover is built from the centers, and _build_assignment names the
    # first overlapped or missed site
    t = build()
    with pytest.raises(TilingError) as exc:
        validate_tiling(corrupt(t))
    assert str(exc.value) == message.format(last=t.centers[-1])


def _max_theta_over_similar(t: Tiling) -> tuple[bool, float, float]:
    """The earlier rule: check every minimal-norm candidate, then take the
    largest rotation in (-pi/4, pi/4] among the similar ones."""
    L = t.L
    center_set = {(x % L, y % L) for x, y in t.centers}
    signed = [(x - L if x > L // 2 else x, y - L if y > L // 2 else y) for x, y in center_set]
    min_norm = min(a * a + b * b for a, b in signed if (a, b) != (0, 0))
    thetas = [
        (math.atan2(b, a), a, b)
        for a, b in signed
        if a * a + b * b == min_norm and _is_similar_sublattice(center_set, a, b, L)
    ]
    theta, a, b = max(w for w in thetas if -math.pi / 4 < w[0] <= math.pi / 4)
    return True, math.sqrt(a * a + b * b), theta


@pytest.mark.parametrize("L", [5, 25, 250])
@pytest.mark.parametrize(
    "build",
    [
        lambda L: plus_tiling(L, +1),
        lambda L: plus_tiling(L, -1),
        brick_tiling,
        trivial_tiling,
    ],
    ids=["plus-right", "plus-left", "brick", "trivial"],
)
def test_first_passing_candidate_matches_max_theta_rule(build, L):
    t = build(L)
    assert validate_tiling(t) == _max_theta_over_similar(t)


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

    @pytest.mark.parametrize("kind", ["plus-right", "plus-left", "brick"])
    @pytest.mark.parametrize(
        "L, levels", [(25, 1), (25, 2), (125, 1), (125, 2), (125, 3)]
    )
    def test_addresses_reconstruct_sites(self, kind, L, levels):
        # site = top center + sum_j omega^(j-1) * offset[path_j] (mod L), with
        # the top centers omega^levels * Z[i] found by brute force
        if kind == "brick":
            base, offsets, omega = brick_tiling(L), BRICK_OFFSETS, complex(2, 1)
        else:
            hand = +1 if kind == "plus-right" else -1
            base, offsets, omega = plus_tiling(L, hand), PLUS_OFFSETS, complex(2, hand)
        scale = omega**levels
        top = sorted(
            {
                (int((w * scale).real) % L, int((w * scale).imag) % L)
                for w in (complex(x, y) for x in range(L) for y in range(L))
            }
        )
        c = concatenate_tiling(base, levels)
        assert len(c.addresses) == L * L
        assert c.top_tile_count == len(top) == L * L // 5**levels
        for (x, y), (tid, path) in c.addresses.items():
            assert len(path) == levels
            site = complex(*top[tid])
            for j, pos in enumerate(path):
                site += omega**j * complex(*offsets[pos - 1])
            assert (int(site.real) % L, int(site.imag) % L) == (x, y)

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
