"""Kadanoff blockings of the periodic square lattice by code tiles.

A site (x, y) is the Gaussian integer x + yi, and a tiling's centers form
the sublattice g Z[i] mod L of one Gaussian integer g.  The plus-pentomino
and 5x1 brick tilings block the torus into 5-site tiles with g = 2 +- i;
the blocking rescales the lattice by |g| = sqrt(5) and rotates it by
arg g = +-arctan(1/2).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from functools import cached_property

from ._value import frozen


class TilingError(ValueError):
    """Raised for invalid extents, overlaps, gaps, or non-similar centers."""


PLUS_OFFSETS = ((0, 0), (0, 1), (1, 0), (0, -1), (-1, 0))  # center, N, E, S, W
BRICK_OFFSETS = ((0, 0), (1, 0), (2, 0), (3, 0), (4, 0))
SVG_CELL = 24  # pixels per lattice site

# Time and memory grow as L^2.  In process (`cli.main` after import, Python
# 3.11, 2 shared cores, median of 3), `tiling --L 250 / 500 / 625 / 1000`
# takes 0.02 / 0.06 / 0.10 / 0.27 s (peak RSS 17 / 26 / 32 / 63 MB): it
# fits g and validates from the centers and the tile, building no site
# cover.  `--trivial` takes 0.63 s (105 MB) at L = 625 and 1.4 s (260 MB)
# at L = 1000.  The L^2 cover is built by `--svg` (L = 625: 1.8 s, 306 MB),
# by concatenation and on the fault path.  The cap admits L = 625 = 5^4,
# which a 4-level concatenation needs, and keeps every run near 2 s and
# 300 MB.
TILING_L_CAP = 625


@frozen
class Tiling:
    """Translates of one tile shape placed at centers on the L x L torus;
    centers[tile_id] is the tile's anchor site.

    Frozen, with each tile offset a tuple too, so the cover and the
    geometry derived from the shape and centers on first use stay theirs.
    """

    L: int
    tile_shape: tuple[tuple[int, int], ...]
    centers: tuple[tuple[int, int], ...]
    name: str = "custom"

    def __post_init__(self):
        if self.L < 1:
            raise TilingError(f"extent L must be >= 1, got {self.L}")
        object.__setattr__(self, "tile_shape", tuple(map(tuple, self.tile_shape)))

    @property
    def tile_count(self) -> int:
        return len(self.centers)

    @cached_property
    def assignment(self) -> dict[tuple[int, int], tuple[int, int]]:
        """Site -> (tile index, position from 1); raises TilingError naming
        the first overlapped or missed site."""
        return _build_assignment(self.L, self.tile_shape, self.centers)

    @cached_property
    def _center_set(self) -> frozenset[tuple[int, int]]:
        """The centers reduced mod L, read by the fit and the cover test."""
        L = self.L
        return frozenset((x % L, y % L) for x, y in self.centers)

    @cached_property
    def _generator(self) -> tuple[int, int]:
        """g = (a, b), a + bi = gcd(L, centers) in Z[i], taken as the
        associate with angle in (-pi/4, pi/4]; raises TilingError when the
        centers miss the origin, hold no other site or are not g Z[i] mod L."""
        L, center_set = self.L, self._center_set
        if (0, 0) not in center_set:
            raise TilingError("center sublattice must contain the origin")
        if len(center_set) == 1:
            raise TilingError("no nonzero centers to fit")
        g = (L, 0)
        for c in center_set:
            if not _divides(g, c):
                g = _gcd(c, g)
        # every center is a multiple of g, and g Z[i] mod L has L^2 / N(g)
        # sites, so the centers are all of them exactly when they number that
        a, b = g
        if len(center_set) * (a * a + b * b) != L * L:
            raise TilingError("centers do not form a similar (rotated-scaled) sublattice")
        while not -a < b <= a:
            a, b = -b, a  # times i
        return a, b

    @property
    def rescale(self) -> float:
        a, b = self._generator
        return math.sqrt(a * a + b * b)

    @property
    def rotation(self) -> float:
        a, b = self._generator
        return math.atan2(b, a)


def _mul(z: tuple[int, int], w: tuple[int, int]) -> tuple[int, int]:
    """The Gaussian product z * w."""
    (a, b), (c, d) = z, w
    return a * c - b * d, a * d + b * c


def _divides(g: tuple[int, int], z: tuple[int, int]) -> bool:
    """True iff g | z in Z[i], that is z * conj(g) = 0 (mod N(g)); g != 0."""
    (a, b), (x, y) = g, z
    norm = a * a + b * b
    return (x * a + y * b) % norm == 0 and (y * a - x * b) % norm == 0


def _gcd(z: tuple[int, int], w: tuple[int, int]) -> tuple[int, int]:
    """A greatest common divisor of z and w in Z[i], up to a unit: Euclid
    with the quotient z / w = z * conj(w) / N(w) rounded to the nearest
    Gaussian integer, so each remainder has at most half the norm of w."""
    while w != (0, 0):
        a, b = w
        norm = a * a + b * b
        q = tuple((2 * c + norm) // (2 * norm) for c in _mul(z, (a, -b)))
        qw = _mul(q, w)
        z, w = w, (z[0] - qw[0], z[1] - qw[1])
    return z


def _build_assignment(
    L: int, offsets, centers, sites=None
) -> dict[tuple[int, int], tuple[int, int]]:
    """Site -> (tile index, position from 1) of the tiles placed at the
    centers, covering the sites (all L^2, y-major, by default) exactly; raises
    TilingError naming the first overlapped site, else the first missed one in
    the sites' order, else the least placed site that is not one of them."""
    assignment: dict[tuple[int, int], tuple[int, int]] = {}
    for tid, (cx, cy) in enumerate(centers):
        for pos, (dx, dy) in enumerate(offsets, start=1):
            site = ((cx + dx) % L, (cy + dy) % L)
            if site in assignment:
                raise TilingError(f"overlap at site {site}")
            assignment[site] = (tid, pos)
    if sites is None and len(assignment) == L * L:
        return assignment  # every placed site lies on the torus
    sites = [(x, y) for y in range(L) for x in range(L)] if sites is None else sites
    for site in sites:
        if site not in assignment:
            raise TilingError(f"gap at site {site}")
    if len(assignment) > len(sites):
        raise TilingError(f"site {min(assignment.keys() - set(sites))} lies off the cover")
    return assignment


def _centers(L: int, row_offset: int, period: int = 5) -> list[tuple[int, int]]:
    """The sites (x, y) with x = row_offset*y (mod period), y-major; refuses
    an extent above TILING_L_CAP before building any of the L^2 sites."""
    if L > TILING_L_CAP:
        raise TilingError(f"tiling extent L={L} exceeds cap {TILING_L_CAP}")
    return [(x, y) for y in range(L) for x in range(row_offset * y % period, L, period)]


def _handed_centers(L: int, handedness: int, kind: str) -> list[tuple[int, int]]:
    """The centers g Z[i] mod L with g = 2 + handedness*i: x = 2y (mod 5)
    for right-handed (+1), x = 3y (mod 5) for left-handed (-1)."""
    if L % 5 != 0:
        raise TilingError(f"{kind} tiling needs L = 0 mod 5")
    if handedness not in (+1, -1):
        raise TilingError("handedness must be +1 or -1")
    return _centers(L, 2 if handedness == +1 else 3)


def plus_tiling(L: int, handedness: int = +1) -> Tiling:
    """Plus-pentomino exact cover on the centers of g = 2 + handedness*i.
    Rescale sqrt(5), rotation +-arctan(1/2)."""
    centers = _handed_centers(L, handedness, "plus")
    return Tiling(L, PLUS_OFFSETS, centers, "plus-right" if handedness == +1 else "plus-left")


def brick_tiling(L: int, handedness: int = +1) -> Tiling:
    """Horizontal 5x1 bricks on the same centers as the plus tiling of that
    handedness, named "brick" (+1) or "brick-left" (-1)."""
    centers = _handed_centers(L, handedness, "brick")
    return Tiling(L, BRICK_OFFSETS, centers, "brick" if handedness == +1 else "brick-left")


def trivial_tiling(L: int) -> Tiling:
    """1x1 tiles; rescale 1, rotation 0."""
    return Tiling(L, ((0, 0),), _centers(L, 0, period=1), "trivial")


def validate_tiling(t: Tiling) -> tuple[bool, float, float]:
    """Verify the exact cover and fit the centers' Gaussian integer g.

    Returns (True, rescale, rotation) = (True, |g|, arg g) on success, with
    the rotation in (-pi/4, pi/4]; raises TilingError with a distinct
    message for overlap/gap/non-similar failures.

    When the fit finds the centers to be g Z[i] mod L, the cover is decided
    on the tile modulo it, without placing any site: the translates of a
    tile by g Z[i] cover the torus exactly when the centers are distinct mod
    L, the tile has N(g) sites and g divides no difference of two offsets.
    Otherwise the cover kernel runs first and names the first overlap or
    gap, then the fit raises its own error.
    """
    try:
        if _tiles_by_its_centers(t):
            return True, t.rescale, t.rotation
    except TilingError:
        pass  # the fit's error, raised below unless the cover fails first
    t.assignment  # building the cover names the first overlap or gap
    return True, t.rescale, t.rotation


def _tiles_by_its_centers(t: Tiling) -> bool:
    """True iff the tile's translates by g Z[i] (the centers, as the fit
    confirms, raising TilingError if it cannot) cover the torus exactly."""
    g, offsets = t._generator, t.tile_shape
    return (
        len(t._center_set) == len(t.centers)
        and len(offsets) == g[0] ** 2 + g[1] ** 2
        and not any(
            _divides(g, (ax - bx, ay - by))
            for i, (ax, ay) in enumerate(offsets)
            for bx, by in offsets[:i]
        )
    )


@frozen
class ConcatenatedTiling:
    """r-level hierarchical blocking; each site gets a position path and a
    top-level tile index."""

    base: Tiling
    levels: int
    addresses: Mapping[tuple[int, int], tuple[int, tuple[int, ...]]]

    @property
    def top_tile_count(self) -> int:
        return len({tid for tid, _ in self.addresses.values()})


def concatenate_tiling(t: Tiling, levels: int) -> ConcatenatedTiling:
    """Iterate the blocking on successive center lattices.

    Supported for the sqrt(5) tilings (plus/brick), whose centers are
    g Z[i] mod L with g = 2 +- i: the level-j centers are the multiples of
    g^j, and the level-j tile offsets are the base offsets times g^(j-1).
    Requires 5^levels | L: the level-j centers are new only when g^j divides
    L in Z[i], that is when 5^j | L.
    """
    if levels < 1:
        raise TilingError("levels must be >= 1")
    if len(t.tile_shape) != 5:
        raise TilingError("concatenation implemented for 5-site tilings")
    L = t.L
    # 5^levels > L once levels reaches L's bit length: refused unformed
    if levels >= L.bit_length() or L % 5**levels != 0:
        raise TilingError(f"extent {L} not divisible by 5^{levels}")
    g = t._generator
    # per level j: the cover of the level-(j-1) centers and the level-j
    # centers it numbers its tiles by; level 1 is the base cover of all sites
    centers = [(x % L, y % L) for x, y in t.centers]
    covers = [(t.assignment, centers)]
    power = g  # g^(j-1) at level j
    for _ in range(1, levels):
        offsets = [_mul(power, d) for d in t.tile_shape]
        power = _mul(power, g)
        # g^j divides L, so a center lies in g^j Z[i] (mod L) iff g^j | it
        sites, centers = centers, [c for c in centers if _divides(power, c)]
        covers.append((_build_assignment(L, offsets, centers, sites), centers))

    # top level down: a site's path is its tile position, then its center's path
    addresses = {c: (i, ()) for i, c in enumerate(sorted(centers))}
    for cover, tile_centers in reversed(covers):
        parents = [addresses[c] for c in tile_centers]
        addresses = {
            site: (parents[tid][0], (pos, *parents[tid][1]))
            for site, (tid, pos) in cover.items()
        }
    return ConcatenatedTiling(base=t, levels=levels, addresses=addresses)


def render_svg(t: Tiling) -> str:
    """SVG picture: tiles as colored unit squares, centers as rings, and the
    rescaled lattice as overlay lines."""
    L, cell = t.L, SVG_CELL
    size = L * cell
    palette = [
        "#8dd3c7", "#ffffb3", "#bebada", "#fb8072", "#80b1d3",
        "#fdb462", "#b3de69", "#fccde5", "#d9d9d9", "#bc80bd",
    ]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f"<!-- tiling={t.name} L={L} rescale={t.rescale:.12f} "
        f"rotation={t.rotation:.12f} -->",
    ]
    for (x, y), (tid, _pos) in sorted(t.assignment.items()):
        color = palette[tid % len(palette)]
        px, py = x * cell, (L - 1 - y) * cell
        parts.append(
            f'<rect x="{px}" y="{py}" width="{cell}" height="{cell}" '
            f'fill="{color}" stroke="#555" stroke-width="1"/>'
        )
    for cx, cy in t.centers:
        px, py = cx * cell + cell // 2, (L - 1 - cy) * cell + cell // 2
        parts.append(
            f'<circle cx="{px}" cy="{py}" r="{cell // 4}" fill="none" '
            f'stroke="#000" stroke-width="2"/>'
        )
    # rescaled lattice overlay: lines through centers along g = a + bi
    a, b = t._generator
    for cx, cy in t.centers:
        x0, y0 = cx * cell + cell // 2, (L - 1 - cy) * cell + cell // 2
        x1, y1 = x0 + a * cell, y0 - b * cell
        parts.append(
            f'<line x1="{x0}" y1="{y0}" x2="{x1:.2f}" y2="{y1:.2f}" '
            f'stroke="#1f6fb5" stroke-width="2" opacity="0.6"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
