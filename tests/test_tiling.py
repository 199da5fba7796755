import hashlib
import json
import math
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings, strategies as st

from blockspin import tiling
from blockspin._value import replace
from blockspin.tiling import (
    BRICK_OFFSETS,
    PLUS_OFFSETS,
    Tiling,
    TilingError,
    _build_assignment,
    _divides,
    _gcd,
    _mul,
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

    @pytest.mark.parametrize("hand, name", [(+1, "brick"), (-1, "brick-left")])
    def test_handedness_picks_the_plus_centers(self, hand, name):
        b, p = brick_tiling(25, hand), plus_tiling(25, hand)
        assert b.name == name and b.centers == p.centers
        assert b._generator == p._generator == (2, hand)

    @pytest.mark.parametrize("build", [plus_tiling, brick_tiling], ids=["plus", "brick"])
    @pytest.mark.parametrize("hand", [0, 2, 3])
    def test_handedness_other_than_one_refused(self, build, hand):
        with pytest.raises(TilingError, match=r"handedness must be \+1 or -1"):
            build(5, hand)


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

    @pytest.mark.parametrize(
        "build",
        [lambda L: plus_tiling(L, +1), brick_tiling, trivial_tiling],
        ids=["plus", "brick", "trivial"],
    )
    def test_extent_above_the_cap_refused(self, build):
        L = tiling.TILING_L_CAP
        assert L >= 5**4  # the pinned 4-level concatenation runs at L = 625
        with pytest.raises(TilingError, match=f"L={L + 5} exceeds cap {L}"):
            build(L + 5)

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


def _is_similar_sublattice(center_set, a: int, b: int, L: int) -> bool:
    """Reference: True iff center_set (holding the origin) is the subgroup of
    the L x L torus generated by (a, b) and (-b, a).

    A finite set holding 0 and closed under adding each generator contains
    the subgroup and is a union of its cosets, so it is the subgroup exactly
    when the sizes agree.  The subgroup is the image of the lattice spanned by
    (a, b), (-b, a), (L, 0), (0, L), whose index in Z^2 is the gcd of the 2x2
    minors of those four rows.
    """
    index = math.gcd(a * a + b * b, a * L, b * L, L * L)
    if len(center_set) * index != L * L:
        return False
    return all(
        ((x + a) % L, (y + b) % L) in center_set
        and ((x - b) % L, (y + a) % L) in center_set
        for x, y in center_set
    )


def _closure_fit(t: Tiling) -> tuple[float, float]:
    """Reference: the earlier fit.  It scans the minimal-norm nonzero centers
    (coordinates in (-L/2, L/2]) by decreasing angle and returns the rescale
    and rotation of the first one in (-pi/4, pi/4] whose closure check
    passes."""
    L = t.L
    center_set = {(x % L, y % L) for x, y in t.centers}
    if (0, 0) not in center_set:
        raise TilingError("center sublattice must contain the origin")
    min_norm, candidates = L * L, []
    for x, y in center_set:
        v = (x - L if x > L // 2 else x, y - L if y > L // 2 else y)
        norm = v[0] ** 2 + v[1] ** 2
        if 0 < norm < min_norm:
            min_norm, candidates = norm, [v]
        elif norm == min_norm:
            candidates.append(v)
    if not candidates:
        raise TilingError("no nonzero centers to fit")
    by_theta = sorted(((math.atan2(b, a), a, b) for a, b in candidates), reverse=True)
    for theta, a, b in by_theta:
        if -math.pi / 4 < theta <= math.pi / 4 and _is_similar_sublattice(
            center_set, a, b, L
        ):
            return math.sqrt(a * a + b * b), theta
    raise TilingError("centers do not form a similar (rotated-scaled) sublattice")


def _gaussian_fit(t: Tiling) -> tuple[float, float]:
    return t.rescale, t.rotation


def _same_fit(centers, L: int):
    """The Gaussian fit of the centers, checked against the closure fit on a
    second tiling, so neither reads the other's cache."""
    t = Tiling(L, ((0, 0),), centers)
    outcome = _outcome(_gaussian_fit, t)
    assert outcome == _outcome(_closure_fit, Tiling(L, ((0, 0),), centers))
    return outcome


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


class TestGaussianFit:
    """The fit takes g = gcd(L, centers) in Z[i]; the closure fit is the
    oracle for its rescale, rotation and error messages."""

    @settings(max_examples=300, deadline=None)
    @given(
        L=st.integers(1, 12),
        gens=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=3),
        extra=st.lists(st.tuples(st.integers(-13, 13), st.integers(-13, 13)), max_size=6),
        kind=st.sampled_from(["subgroup", "perturbed", "cosets", "cyclic"]),
        unreduce=st.booleans(),
    )
    def test_drawn_sets_match_the_closure_fit(self, L, gens, extra, kind, unreduce):
        # subgroups generated by (g, rot90 g) pairs, those sets with sites
        # added or removed, unions of their cosets, or the cyclic group of
        # one site; optionally shifted off the reduced coordinates
        centers = {(0, 0)}
        if kind == "cyclic":
            a, b = gens[0] if gens else (1, 0)
            centers = {((k * a) % L, (k * b) % L) for k in range(L)}
        for gx, gy in gens if kind != "cyclic" else ():
            centers |= {
                ((cx + sx) % L, (cy + sy) % L)
                for cx, cy in centers
                for sx, sy in _bfs_sublattice(gx, gy, L)
            }
        if kind == "perturbed":
            centers ^= {(x % L, y % L) for x, y in extra} - {(0, 0)}
        elif kind == "cosets":
            centers |= {((x + cx) % L, (y + cy) % L) for x, y in extra for cx, cy in centers}
        ordered = sorted(centers, key=lambda c: (c[1], c[0]))
        if unreduce:
            ordered = [(x - L, y + 2 * L) for x, y in ordered]
        _same_fit(ordered, L)

    @pytest.mark.parametrize("L", range(1, 13))
    def test_every_sublattice_with_a_site_added_or_removed(self, L):
        lattices = {frozenset(_bfs_sublattice(a, b, L)) for a in range(L) for b in range(L)}
        torus = {(x, y) for x in range(L) for y in range(L)}
        outcomes = set()
        for lattice in lattices:
            outcomes.add(_same_fit(sorted(lattice), L))
            for site in sorted(torus - lattice):
                outcomes.add(_same_fit(sorted(lattice | {site}), L))
                coset = {((x + site[0]) % L, (y + site[1]) % L) for x, y in lattice}
                outcomes.add(_same_fit(sorted(lattice | coset), L))
            for site in sorted(lattice - {(0, 0)}):
                outcomes.add(_same_fit(sorted(lattice - {site}), L))
        # every sublattice fits, except {0} (L = 1 has no other)
        fits = {o for o in outcomes if not isinstance(o, str)}
        assert len(fits) == len(lattices) - 1

    @pytest.mark.parametrize("L", [5, 25, 250])
    @pytest.mark.parametrize("kind", ["plus-right", "plus-left", "brick", "brick-3", "trivial"])
    def test_generator_of_the_builders(self, kind, L):
        g = {"plus-right": (2, 1), "plus-left": (2, -1), "brick": (2, 1), "brick-3": (2, -1),
             "trivial": (1, 0)}[kind]
        t = BUILDERS[kind](L)
        assert t._generator == g
        assert all(_divides(g, c) for c in t.centers)

    @settings(max_examples=200, deadline=None)
    @given(
        z=st.tuples(st.integers(-30, 30), st.integers(-30, 30)),
        w=st.tuples(st.integers(-30, 30), st.integers(-30, 30)),
    )
    def test_gcd_is_the_largest_common_divisor(self, z, w):
        g = _gcd(z, w)
        if z == w == (0, 0):
            assert g == (0, 0)
            return
        assert _divides(g, z) and _divides(g, w)
        common = [
            (a, b) for a in range(-30, 31) for b in range(-30, 31)
            if (a, b) != (0, 0) and _divides((a, b), z) and _divides((a, b), w)
        ]
        assert g[0] ** 2 + g[1] ** 2 == max(a * a + b * b for a, b in common)

    @settings(max_examples=200, deadline=None)
    @given(
        g=st.tuples(st.integers(-9, 9), st.integers(-9, 9)).filter(lambda g: g != (0, 0)),
        q=st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
        r=st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
    )
    def test_mul_and_divides_match_complex_arithmetic(self, g, q, r):
        assert complex(*_mul(g, q)) == complex(*g) * complex(*q)
        z = _mul(g, q)
        assert _divides(g, z)
        # z + r is a multiple of g iff r is
        shifted = (z[0] + r[0], z[1] + r[1])
        assert _divides(g, shifted) == any(
            _mul(g, (a, b)) == r for a in range(-20, 21) for b in range(-20, 21)
        )


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
    "brick-3": lambda L: brick_tiling(L, -1),
    "trivial": trivial_tiling,
}


class TestFrozen:
    def test_fields(self):
        assert Tiling.__match_args__ == ("L", "tile_shape", "centers", "name")

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

    def test_listed_tile_shape_makes_the_same_value(self):
        t = plus_tiling(5, +1)
        for shape in (list(PLUS_OFFSETS), [list(offset) for offset in PLUS_OFFSETS]):
            listed = Tiling(5, shape, list(t.centers), "plus-right")
            assert listed.tile_shape == PLUS_OFFSETS
            assert listed == t
            assert hash(listed) == hash(t)
            assert validate_tiling(listed) == validate_tiling(t)

    def test_cover_and_fit_run_once_per_object(self, monkeypatch):
        calls = {"cover": 0, "gcd": 0}

        def counting(key, fn):
            def wrapped(*args):
                calls[key] += 1
                return fn(*args)
            return wrapped

        monkeypatch.setattr(tiling, "_build_assignment", counting("cover", _build_assignment))
        monkeypatch.setattr(tiling, "_gcd", counting("gcd", _gcd))
        t = plus_tiling(25, +1)
        # validating a lattice tiling fits the centers and builds no cover
        first = validate_tiling(t)
        once = dict(calls)
        assert once["cover"] == 0 and once["gcd"] >= 1
        assert validate_tiling(t) == first
        assert (t.rescale, t.rotation) == first[1:]
        assert calls == once
        # drawing builds the cover once; concatenating reads it as level 1
        # and adds one cover of level 2
        render_svg(t)
        render_svg(t)
        assert calls["cover"] == 1
        concatenate_tiling(t, 2)
        assert calls["cover"] == 2
        assert len(t.assignment) == 625
        # a variant is a new object with its own fit and its own cover
        variant = replace(t, name="variant")
        assert validate_tiling(variant) == first
        assert calls["cover"] == 2 and calls["gcd"] > once["gcd"]
        fitted = calls["gcd"]
        concatenate_tiling(variant, 2)
        render_svg(variant)
        assert calls == {"cover": 4, "gcd": fitted}

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


def _cover_first(t: Tiling) -> tuple[bool, float, float]:
    """Reference: the earlier validation, which built the cover first."""
    t.assignment  # building the cover names the first overlap or gap
    return True, t.rescale, t.rotation


def _outcome(validate, t: Tiling):
    """The return value of validate(t), or the message of its TilingError."""
    try:
        return validate(t)
    except TilingError as exc:
        return f"TilingError: {exc}"


def _same_outcome(t: Tiling):
    """validate_tiling(t), checked against the cover-first reference on a
    fresh copy, so neither route reads the other's cached cover or fit."""
    outcome = _outcome(validate_tiling, t)
    assert outcome == _outcome(_cover_first, replace(t))
    return outcome


def _lattice_element(t: Tiling) -> tuple[int, int]:
    """A nonzero element of the center sublattice: the first such center."""
    return next(c for c in t.centers if c != (0, 0))


def _with_offset(t: Tiling, index: int, offset) -> Tiling:
    shape = list(t.tile_shape)
    shape[index] = offset
    return replace(t, tile_shape=shape)


def _offset_moved_by_a_center(t: Tiling) -> Tiling:
    # the same cosets of the center lattice: still an exact cover
    (dx, dy), (ax, ay) = t.tile_shape[-1], _lattice_element(t)
    return _with_offset(t, -1, (dx + ax, dy + ay))


def _offset_onto_another_coset(t: Tiling) -> Tiling:
    # two offsets in one coset: an overlap only the cover kernel can name
    (dx, dy), (ax, ay) = t.tile_shape[0], _lattice_element(t)
    return _with_offset(t, -1, (dx + ax, dy + ay))


def _shifted_center(t: Tiling) -> Tiling:
    x, y = t.centers[3]
    return replace(t, centers=[*t.centers[:3], (x + 1, y), *t.centers[4:]])


def _centers_off_the_origin(t: Tiling) -> Tiling:
    return replace(t, centers=[((x + 1) % t.L, y) for x, y in t.centers])


def _unreduced_centers(t: Tiling) -> Tiling:
    L = t.L
    return replace(t, centers=[(x + L, y - 2 * L) for x, y in t.centers])


def _unreduced_first_center(t: Tiling) -> Tiling:
    (x, y), *rest = t.centers
    return replace(t, centers=[(x + t.L, y), *rest])


def _unreduced_duplicate(t: Tiling) -> Tiling:
    # distinct as pairs, equal mod L: an overlap of the same center set
    x, y = t.centers[-1]
    return replace(t, centers=[*t.centers, (x - t.L, y + t.L)])


def _dropped_offset(t: Tiling) -> Tiling:
    return replace(t, tile_shape=t.tile_shape[:-1])


def _extra_offset(t: Tiling) -> Tiling:
    return replace(t, tile_shape=[*t.tile_shape, (7, 3)])


CORRUPTIONS = [
    _dropped_center,
    _duplicated_center,
    _appended_center,
    _shifted_center,
    _centers_off_the_origin,
    _unreduced_centers,
    _unreduced_first_center,
    _unreduced_duplicate,
    _offset_moved_by_a_center,
    _offset_onto_another_coset,
    _dropped_offset,
    _extra_offset,
]


class TestCoverOnTheQuotient:
    """validate_tiling decides the cover of a lattice tiling from its tile
    modulo the center lattice; the cover-first reference is the oracle."""

    @pytest.mark.parametrize("L", [5, 25, 250, 625])
    @pytest.mark.parametrize("kind", BUILDERS)
    def test_builders_match_the_cover_first_route(self, kind, L):
        t = BUILDERS[kind](L)
        assert _outcome(_cover_first, replace(t)) == validate_tiling(t)

    @pytest.mark.parametrize("L", [5, 25, 250])
    @pytest.mark.parametrize("kind", BUILDERS)
    def test_valid_builders_build_no_cover(self, kind, L, monkeypatch):
        def refused(*args):
            raise AssertionError("validate_tiling built a cover")

        monkeypatch.setattr(tiling, "_build_assignment", refused)
        t = BUILDERS[kind](L)
        assert validate_tiling(t)[0]
        assert "assignment" not in vars(t)

    @pytest.mark.parametrize("L", [5, 25])
    @pytest.mark.parametrize("kind", BUILDERS)
    @pytest.mark.parametrize("corrupt", CORRUPTIONS, ids=lambda f: f.__name__)
    def test_corruptions_match_the_cover_first_route(self, corrupt, kind, L):
        t = BUILDERS[kind](L)
        if corrupt is _offset_onto_another_coset and len(t.tile_shape) < 2:
            pytest.skip("a one-site tile has no second coset")
        _same_outcome(corrupt(t))

    @pytest.mark.parametrize(
        "t, outcome",
        [
            (_offset_moved_by_a_center(plus_tiling(25)), (True, SQRT5, ROT)),
            (_offset_onto_another_coset(plus_tiling(25)), "TilingError: overlap at site (5, 0)"),
            (_unreduced_duplicate(plus_tiling(25)), "TilingError: overlap at site (23, 24)"),
            (_dropped_offset(brick_tiling(25)), "TilingError: gap at site (4, 0)"),
            (_shifted_center(plus_tiling(25)), "TilingError: overlap at site (17, 0)"),
            (_centers_off_the_origin(plus_tiling(5)),
             "TilingError: center sublattice must contain the origin"),
        ],
        ids=["moved-offset", "coset-overlap", "unreduced-duplicate", "dropped-offset",
             "shifted-center", "off-origin"],
    )
    def test_corruption_outcomes(self, t, outcome):
        assert _same_outcome(t) == outcome

    @pytest.mark.parametrize("L", [4, 10])
    def test_domino_stripes_cover_but_are_not_similar(self, L):
        t = Tiling(L, ((0, 0), (1, 0)), [(x, y) for x in range(0, L, 2) for y in range(L)])
        assert _same_outcome(t) == (
            "TilingError: centers do not form a similar (rotated-scaled) sublattice"
        )

    def test_single_site(self):
        assert _same_outcome(trivial_tiling(1)) == "TilingError: no nonzero centers to fit"

    def test_l_pentomino_overlaps_on_plus_centers(self):
        t = Tiling(25, ((0, 0), (1, 0), (2, 0), (0, 1), (0, 2)), plus_tiling(25).centers)
        assert _same_outcome(t) == "TilingError: overlap at site (5, 2)"

    @settings(max_examples=300, deadline=None)
    @given(
        L=st.integers(1, 12),
        a=st.integers(-12, 12),
        b=st.integers(-12, 12),
        shape=st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), max_size=6),
        extra=st.lists(st.tuples(st.integers(-13, 13), st.integers(-13, 13)), max_size=3),
        unreduce=st.booleans(),
    )
    def test_random_tiles_on_similar_lattices(self, L, a, b, shape, extra, unreduce):
        # the sublattice spanned by (a, b) and (-b, a), y-major, with sites
        # added (possibly repeated mod L) and optionally shifted by L
        lattice = _bfs_sublattice(a, b, L)
        centers = sorted(lattice, key=lambda c: (c[1], c[0])) + extra
        if unreduce:
            centers = [(x + L, y - L) for x, y in centers]
        _same_outcome(Tiling(L, shape, centers))

    @pytest.mark.parametrize("L", [4, 5, 6, 10, 15])
    @pytest.mark.parametrize(
        "shape",
        [PLUS_OFFSETS, BRICK_OFFSETS, ((0, 0), (1, 0)), ((0, 0), (0, 1)), ((0, 0),),
         ((0, 0), (1, 0), (0, 1), (1, 1)), ((0, 0), (2, 0)), ((0, 0), (1, 0), (2, 0))],
        ids=["plus", "brick", "domino-h", "domino-v", "monomino", "square", "gapped", "tromino"],
    )
    def test_small_tiles_on_every_lattice(self, L, shape):
        # every sublattice spanned by (a, b) and (-b, a) on the L x L torus
        lattices = {frozenset(_bfs_sublattice(a, b, L)) for a in range(L) for b in range(L)}
        for lattice in lattices:
            centers = sorted(lattice, key=lambda c: (c[1], c[0]))
            _same_outcome(Tiling(L, shape, centers))


@pytest.mark.parametrize("L", range(61))
@pytest.mark.parametrize("row_offset", [0, 2, 3])
@pytest.mark.parametrize("period", [1, 5])
def test_centers_match_the_filtered_torus(L, row_offset, period):
    assert tiling._centers(L, row_offset, period) == [
        (x, y) for y in range(L) for x in range(L) if (x - row_offset * y) % period == 0
    ]


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


# SHA-256 of the sorted [x, y, top tile, path...] address rows, in the compact
# JSON that perfbench/concat.py writes, from the earlier per-level cover loop
ADDRESS_DIGESTS = {
    ("plus-right", 25, 1): "7d2783baeb701e251bc6f70f638f66842e7a4877ddbdb88cca4261a02b524b32",
    ("plus-right", 25, 2): "fef1c092dd7ae95f5d5dcefa5b851144147acd9da31b898a7d7b4500ea161400",
    ("plus-right", 75, 2): "1d5a2b8664bdd8b5192ac8fd60f9345e76f82b58778ca723e822de9647650f4c",
    ("plus-right", 125, 3): "67621d34170b19859f7ad2d2ecae3f6fbb4d176ff1acb04d3e9431d70fbae02c",
    ("plus-right", 625, 4): "c43e59daa66b1ba2b13620309e4b848f6232163756d8d8866454975b07c2b868",
    ("plus-left", 25, 1): "a178410c79450a7dc5d91e39bc561c52257e24965f923a1bed7dc90a8ab0073d",
    ("plus-left", 25, 2): "7bd7280bd5c93c3e6930a7465006fcceb0bbdc6166bbfc23f3090ecbf825d067",
    ("plus-left", 75, 2): "50a4130017f3382fe01a60fcc62e442f107151349024e366820380f89f242dbd",
    ("plus-left", 125, 3): "6d0ad2e879e250b47907f6cf0dfe1773f9afe206c9cd9999fcd1fa64d9c276ca",
    ("brick", 25, 1): "cbd985eae247f4db7a3e54b701c014087729ebf1485e5831951e0d249e27b17b",
    ("brick", 25, 2): "272f558d5a2438a4eee04f20aaf934014e36b8d6c6a7cb788b6c0a14e867fb69",
    ("brick", 75, 2): "b040d05ef66d7aa07da1948a50ca12fa92ea897a47afc6e1ab253d82e86a48f5",
    ("brick", 125, 3): "7db9a9122d2d5e9727e37238982007f07519495320b7403ba06ea5707fbda319",
}


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
        # 5^levels must divide L: L = 25 with 3 levels has 5^3 | L^2, but a
        # third level would repeat the 25 centers of level 2
        for L, levels in ((5, 2), (25, 3)):
            with pytest.raises(TilingError, match="not divisible"):
                concatenate_tiling(plus_tiling(L, +1), levels)
        c = concatenate_tiling(plus_tiling(50), 2)
        assert (c.top_tile_count, len(c.addresses)) == (100, 2500)

    def test_huge_level_count_refused_without_the_power(self):
        class Levels(int):
            def __rpow__(self, base):
                raise AssertionError(f"formed {base}**{int(self)}")

        for levels in (Levels(10**7), 3 * 10**7):
            with pytest.raises(TilingError) as exc:
                concatenate_tiling(plus_tiling(25), levels)
            assert str(exc.value) == f"extent 25 not divisible by 5^{int(levels)}"

    def test_frozen_with_read_only_addresses(self):
        c = concatenate_tiling(plus_tiling(25, +1), 2)
        with pytest.raises(FrozenInstanceError):
            c.levels = 1
        with pytest.raises(TypeError):
            c.addresses[(0, 0)] = (0, (1, 1))
        assert len(c.addresses) == 625

    def test_a_copy_keeps_one_read_only_view(self):
        c = concatenate_tiling(plus_tiling(25, +1), 2)
        copy = replace(c)
        assert repr(copy.addresses) == repr(c.addresses)
        assert repr(copy.addresses).startswith("mappingproxy({")
        assert copy == c

    @pytest.mark.parametrize(
        "case", ADDRESS_DIGESTS, ids=lambda case: "-".join(map(str, case))
    )
    def test_sorted_addresses_are_pinned(self, case):
        kind, L, levels = case
        c = concatenate_tiling(BUILDERS[kind](L), levels)
        rows = sorted([x, y, top, *path] for (x, y), (top, path) in c.addresses.items())
        text = json.dumps(rows, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == ADDRESS_DIGESTS[case]

    def test_level_one_fault_is_the_cover_fault(self):
        # similar centers, but the L-pentomino does not tile by them
        t = Tiling(25, ((0, 0), (1, 0), (2, 0), (0, 1), (0, 2)), plus_tiling(25).centers)
        for run in (lambda: validate_tiling(t), lambda: concatenate_tiling(t, 2)):
            with pytest.raises(TilingError) as exc:
                run()
            assert str(exc.value) == "overlap at site (5, 2)"


class TestCoverKernel:
    """_build_assignment on given sites: the level-2 cover of plus L = 25."""

    L = 25
    OFFSETS = [(2 * dx - dy, dx + 2 * dy) for dx, dy in PLUS_OFFSETS]  # times 2+i
    SITES = list(plus_tiling(25).centers)  # the level-1 centers, y-major
    # the level-1 centers in (3+4i)Z[i]: c * (3-4i) = 0 (mod 25)
    CENTERS = [(x, y) for x, y in SITES if (3 * x + 4 * y) % 25 == 0 == (3 * y - 4 * x) % 25]

    def _placed(self, offsets, centers):
        return {((cx + dx) % self.L, (cy + dy) % self.L) for cx, cy in centers for dx, dy in offsets}

    def test_covers_exactly_the_given_sites(self):
        cover = _build_assignment(self.L, self.OFFSETS, self.CENTERS, self.SITES)
        assert len(self.CENTERS) == 25 and sorted(cover) == sorted(self.SITES)
        assert sorted(cover.values()) == [(t, p) for t in range(25) for p in range(1, 6)]

    def test_default_sites_are_the_whole_torus(self):
        t = plus_tiling(25)
        torus = [(x, y) for y in range(25) for x in range(25)]
        assert _build_assignment(25, PLUS_OFFSETS, t.centers, torus) == t.assignment

    def test_first_missed_site_in_the_sites_order(self):
        centers = self.CENTERS[1:-1]  # two tiles missing
        placed = self._placed(self.OFFSETS, centers)
        named = []
        for sites in (self.SITES, self.SITES[::-1]):
            with pytest.raises(TilingError) as exc:
                _build_assignment(self.L, self.OFFSETS, centers, sites)
            named.append(str(exc.value))
            assert named[-1] == f"gap at site {next(s for s in sites if s not in placed)}"
        assert named[0] != named[1]

    def test_overlap_is_named_at_placement(self):
        centers = [*self.CENTERS, self.CENTERS[3]]
        with pytest.raises(TilingError) as exc:
            _build_assignment(self.L, self.OFFSETS, centers, self.SITES)
        assert str(exc.value) == f"overlap at site {self.CENTERS[3]}"

    def test_site_off_the_given_sites_is_named(self):
        # a sixth cell one step east of each center: every site is covered,
        # and the extra cells are not level-1 centers
        offsets = [*self.OFFSETS, (1, 0)]
        extra = self._placed(offsets, self.CENTERS) - set(self.SITES)
        assert len(extra) == 25
        with pytest.raises(TilingError) as exc:
            _build_assignment(self.L, offsets, self.CENTERS, self.SITES)
        assert str(exc.value) == f"site {min(extra)} lies off the cover"


class TestSvg:
    def test_metadata_embedded(self):
        t = plus_tiling(5, +1)
        svg = render_svg(t)
        assert svg.startswith("<?xml") or svg.lstrip().startswith("<")
        assert f"rescale={t.rescale:.12f}" in svg
        assert "plus-right" in svg
        assert svg.count("<rect") >= 25
