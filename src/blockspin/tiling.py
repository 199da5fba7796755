"""Kadanoff blockings of the periodic square lattice by code tiles.

The plus-pentomino and 5x1 brick tilings both block the torus into 5-site
tiles whose centers form the Gaussian-integer sublattice (2+i)Z[i]; the
blocking rescales the lattice by sqrt(5) and rotates it by +-arctan(1/2).
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Set
from functools import cached_property
from types import MappingProxyType

from ._value import frozen


class TilingError(ValueError):
    """Raised for invalid extents, overlaps, gaps, or non-similar centers."""


PLUS_OFFSETS = ((0, 0), (0, 1), (1, 0), (0, -1), (-1, 0))  # center, N, E, S, W
BRICK_OFFSETS = ((0, 0), (1, 0), (2, 0), (3, 0), (4, 0))
SVG_CELL = 24  # pixels per lattice site

# Time and memory grow as L^2.  In process (`cli.main` after import, Python
# 3.11, 2 shared cores, median of 3), `tiling --L 250 / 500 / 625 / 1000`
# takes 0.04 / 0.18 / 0.28 / 0.81 s (peak RSS 17 / 26 / 32 / 63 MB): it
# validates from the centers and the tile, building no site cover.  At L =
# 625 `--trivial` takes 1.2 s (105 MB), at L = 1000 3.2 s (260 MB).  The L^2
# cover is built by `--svg` (L = 625: 1.7 s, 306 MB; L = 1000: 5.0 s,
# 758 MB), by concatenation and on the fault path.  The cap admits L = 625 =
# 5^4, which a 4-level concatenation needs, and keeps every run near 2 s and
# 300 MB.
TILING_L_CAP = 625


@frozen
class Tiling:
    """Translates of one tile shape placed at centers on the L x L torus;
    centers[tile_id] is the tile's anchor site.

    Frozen, with the tile shape and the centers as tuples (any iterables
    are accepted), so the cover and the geometry derived from them on first
    use stay theirs.
    """

    L: int
    tile_shape: tuple[tuple[int, int], ...]
    centers: tuple[tuple[int, int], ...]
    name: str = "custom"

    def __post_init__(self):
        if self.L < 1:
            raise TilingError(f"extent L must be >= 1, got {self.L}")
        object.__setattr__(self, "tile_shape", tuple(map(tuple, self.tile_shape)))
        object.__setattr__(self, "centers", tuple(self.centers))

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
    def _similarity(self) -> tuple[float, float]:
        """(rescale, rotation) of a similar sublattice basis fitted to the
        centers, with the rotation in (-pi/4, pi/4]; raises TilingError when
        the centers miss the origin, hold no other site or are not similar."""
        L, center_set = self.L, self._center_set
        if (0, 0) not in center_set:
            raise TilingError("center sublattice must contain the origin")
        # candidate basis vectors: minimal-norm nonzero centers in signed
        # reps, coordinates in (-L/2, L/2], so of norm at most L^2 / 2
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
        # the largest rotation in the window whose basis generates the
        # centers; the window holds one of each four 90-degree rotations of a
        # generator, so on a similar sublattice one check usually decides
        by_theta = sorted(((math.atan2(b, a), a, b) for a, b in candidates), reverse=True)
        for theta, a, b in by_theta:
            if -math.pi / 4 < theta <= math.pi / 4 and _is_similar_sublattice(
                center_set, a, b, L
            ):
                return math.sqrt(a * a + b * b), theta
        raise TilingError("centers do not form a similar (rotated-scaled) sublattice")

    @property
    def rescale(self) -> float:
        return self._similarity[0]

    @property
    def rotation(self) -> float:
        return self._similarity[1]


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


def plus_tiling(L: int, handedness: int = +1) -> Tiling:
    """Plus-pentomino exact cover; centers x = 2y (mod 5), i.e. 2x+y = 0, for
    right-handed, x = 3y, i.e. x+2y = 0, for left-handed.  Rescale sqrt(5),
    rotation +-arctan(1/2)."""
    if L % 5 != 0:
        raise TilingError("plus tiling needs L = 0 mod 5")
    if handedness not in (+1, -1):
        raise TilingError("handedness must be +1 or -1")
    centers = _centers(L, 2 if handedness == +1 else 3)
    return Tiling(L, PLUS_OFFSETS, centers, "plus-right" if handedness == +1 else "plus-left")


def brick_tiling(L: int, row_offset: int = 2) -> Tiling:
    """Horizontal 5x1 bricks with origins x = row_offset*y (mod 5).

    row_offset 2 reproduces the right-handed plus center sublattice and is
    named "brick"; row_offset 3 gives the mirror, named "brick-left".
    """
    if L % 5 != 0:
        raise TilingError("brick tiling needs L = 0 mod 5")
    if row_offset not in (2, 3):
        raise TilingError("row_offset must be 2 or 3")
    name = "brick" if row_offset == 2 else "brick-left"
    return Tiling(L, BRICK_OFFSETS, _centers(L, row_offset), name)


def trivial_tiling(L: int) -> Tiling:
    """1x1 tiles; rescale 1, rotation 0."""
    return Tiling(L, ((0, 0),), _centers(L, 0, period=1), "trivial")


def validate_tiling(t: Tiling) -> tuple[bool, float, float]:
    """Verify exact cover and fit a similar sublattice basis to the centers.

    Returns (True, rescale, rotation) on success; raises TilingError with a
    distinct message for overlap/gap/non-similar failures.  The reported
    rotation is the representative in (-pi/4, pi/4].

    When the fit finds the centers to be a sublattice, the cover is decided
    on the tile modulo it, without placing any site: translates of a tile by
    a sublattice cover the torus exactly when the centers are distinct mod
    L, tile size times sublattice size is L^2, and no two offsets differ by
    a sublattice element.  Otherwise the cover kernel runs first and names
    the first overlap or gap, then the fit raises its own error.
    """
    try:
        if _tiles_by_its_centers(t):
            return True, t.rescale, t.rotation
    except TilingError:
        pass  # the fit's error, raised below unless the cover fails first
    t.assignment  # building the cover names the first overlap or gap
    return True, t.rescale, t.rotation


def _tiles_by_its_centers(t: Tiling) -> bool:
    """True iff the tile's translates by the center sublattice (which the
    fit confirms, raising TilingError if it cannot) cover the torus exactly."""
    t._similarity
    L, center_set, offsets = t.L, t._center_set, t.tile_shape
    return (
        len(center_set) == len(t.centers)
        and len(offsets) * len(center_set) == L * L
        and not any(
            ((ax - bx) % L, (ay - by) % L) in center_set
            for i, (ax, ay) in enumerate(offsets)
            for bx, by in offsets[:i]
        )
    )


def _is_similar_sublattice(
    center_set: Set[tuple[int, int]], a: int, b: int, L: int
) -> bool:
    """True iff center_set (holding the origin) is the subgroup of the L x L
    torus generated by (a, b) and (-b, a).

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


@frozen
class ConcatenatedTiling:
    """r-level hierarchical blocking; each site gets a position path and a
    top-level tile index.  Frozen, with the addresses as a read-only view
    of the mapping it is given."""

    base: Tiling
    levels: int
    addresses: Mapping[tuple[int, int], tuple[int, tuple[int, ...]]]

    def __post_init__(self):
        if not isinstance(self.addresses, MappingProxyType):
            object.__setattr__(self, "addresses", MappingProxyType(self.addresses))

    @property
    def top_tile_count(self) -> int:
        return len({tid for tid, _ in self.addresses.values()})


def concatenate_tiling(t: Tiling, levels: int) -> ConcatenatedTiling:
    """Iterate the blocking on successive center lattices.

    Supported for the sqrt(5) tilings (plus/brick): the level-j centers form
    (2+i)^j Z[i] on the torus, and the level-(j+1) tile offsets are the base
    offsets scaled by (2+i)^j.  Requires 5^levels | L: the level-j centers
    are new only when (2+i)^j divides L in Z[i], that is when 5^j | L.
    """
    if levels < 1:
        raise TilingError("levels must be >= 1")
    if len(t.tile_shape) != 5:
        raise TilingError("concatenation implemented for 5-site tilings")
    L = t.L
    if L % (5**levels) != 0:
        raise TilingError(f"extent {L} not divisible by 5^{levels}")
    # Gaussian-integer scale per level: 2+i for right-handed, 2-i for left
    wr, wi = (2, 1) if t.rotation >= 0 else (2, -1)
    # per level j: the cover of the level-(j-1) centers and the level-j
    # centers it numbers its tiles by; level 1 is the base cover of all sites
    centers = [(x % L, y % L) for x, y in t.centers]
    covers = [(t.assignment, centers)]
    re, im = 1, 0  # omega^(j-1)
    for j in range(2, levels + 1):
        re, im = re * wr - im * wi, re * wi + im * wr
        offsets = [(dx * re - dy * im, dx * im + dy * re) for dx, dy in t.tile_shape]
        # 5^j | L, so c lies in omega^j Z[i] (mod L) iff c * conj(omega^j),
        # which is 5^j times the quotient, has both components = 0 mod 5^j
        jr, ji, norm = re * wr - im * wi, re * wi + im * wr, 5**j
        sites, centers = centers, [
            (x, y)
            for x, y in centers
            if (x * jr + y * ji) % norm == 0 and (y * jr - x * ji) % norm == 0
        ]
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
    # rescaled lattice overlay: lines through centers along the fitted basis
    a = t.rescale * math.cos(t.rotation)
    b = t.rescale * math.sin(t.rotation)
    for cx, cy in t.centers:
        x0, y0 = cx * cell + cell // 2, (L - 1 - cy) * cell + cell // 2
        x1, y1 = x0 + a * cell, y0 - b * cell
        parts.append(
            f'<line x1="{x0}" y1="{y0}" x2="{x1:.2f}" y2="{y1:.2f}" '
            f'stroke="#1f6fb5" stroke-width="2" opacity="0.6"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
