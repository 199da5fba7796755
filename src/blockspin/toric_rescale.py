"""Toric-code generator rescaling and stabilizer entanglement scans.

The factor-3 construction: a 3x3 block of X-site generators multiplies to a
weight-12 boundary operator, a plus-shaped cluster of 5 Z-plaquettes to a
weight-12 perimeter operator.  Swapping one constituent for the big generator
leaves the group unchanged, giving a self-similar generating-set hierarchy.
Block entropies S(A) = |A| - log2|S_A| quantify the internal correlation of
contiguous regions and its characteristic cardinality.
"""

from __future__ import annotations

from functools import cached_property

from ._value import frozen
from .codes import (
    toric_code,
    toric_edge_index,
    toric_plaquette_generator,
    toric_site_generator,
)
from .pauli import (
    Pauli,
    StabilizerGroup,
    _region_entropies,
    commutes,
    multiply,
)

RESCALE_FACTOR = 3  # a big generator spans a 3 x 3 block: anchors are 3 apart
SVG_CELL = 30  # pixels per lattice spacing


class ToricError(ValueError):
    """Raised on unsupported torus sizes or invalid generator surgery."""


@frozen
class ToricState:
    """Pure stabilizer state: toric code stabilizer plus the two Z loops
    fixing the logical sector (rank 2L^2).  Frozen, so the group and its
    cached canonical rows stay the state's."""

    L: int

    def __post_init__(self):
        self.group  # built now, so an unsupported L is refused at once

    @cached_property
    def group(self) -> StabilizerGroup:
        code = toric_code(self.L)
        return StabilizerGroup(code.n, code.stabilizer.generators + code.logical_z)

    @property
    def n(self) -> int:
        return 2 * self.L * self.L


# block shapes as (dx, dy) offsets from the anchor, in multiplication order:
# the RESCALE_FACTOR x RESCALE_FACTOR vertex block and a face's plus cluster
SITE_BLOCK = tuple(
    (dx, dy) for dy in range(RESCALE_FACTOR) for dx in range(RESCALE_FACTOR)
)
PLUS_CLUSTER = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1))


def _block_product(state: ToricState, generator, anchor, offsets) -> Pauli:
    """Product of generator(L, x, y) over the cells anchor + offsets."""
    if state.L < 3:
        raise ToricError("rescaled generators need L >= 3")
    x0, y0 = anchor
    out = Pauli.identity(state.n)
    for dx, dy in offsets:
        out = multiply(out, generator(state.L, x0 + dx, y0 + dy))
    return out


def rescaled_site(state: ToricState, v: tuple[int, int]) -> Pauli:
    """Product of the 9 X-site generators of the 3x3 vertex block at v;
    supported on the 12 outgoing boundary edges."""
    return _block_product(state, toric_site_generator, v, SITE_BLOCK)


def rescaled_plaquette(state: ToricState, f: tuple[int, int]) -> Pauli:
    """Product of the 5 Z-plaquettes of the plus cluster centered at f;
    supported on the 12 perimeter edges."""
    return _block_product(state, toric_plaquette_generator, f, PLUS_CLUSTER)


def swap_generating_set(
    state: ToricState, drop: Pauli, add: Pauli
) -> StabilizerGroup:
    """Replace `drop` by `add` in the generating set, provided the group is
    unchanged (i.e. `add` is a product of generators involving `drop`).
    The two groups are equal iff their canonical rows are."""
    gens = state.group.generators
    if drop not in gens:
        raise ToricError("drop operator is not one of the current generators")
    swapped = StabilizerGroup(state.n, [add if g == drop else g for g in gens])
    if swapped.canonical_rows != state.group.canonical_rows:
        raise ToricError(
            "swap changes the group: the added operator is independent of "
            "the dropped one"
        )
    return swapped


def block_entropy(state: ToricState, region) -> int:
    """Entanglement entropy in bits of an edge region of the sector-fixed
    toric state."""
    return _region_entropies(state.group, [region])[0]


def internal_correlation(state: ToricState, region) -> int:
    """I(A) = sum_i S(edge_i) - S(A); positive iff A holds an internal
    stabilizer (correlation contained within the region)."""
    return cardinality_scan(state, [region]).rows[0].correlation


def square_patch_edges(L: int, k: int) -> list[int]:
    """All edges with both endpoints inside the k x k vertex patch anchored
    at the origin (the contiguous-region family for the cardinality scan)."""
    edges = []
    for y in range(k):
        for x in range(k):
            if x + 1 < k:
                edges.append(toric_edge_index(L, "h", x, y))
            if y + 1 < k:
                edges.append(toric_edge_index(L, "v", x, y))
    return edges


@frozen
class ScanRow:
    region_size: int
    entropy: int
    correlation: int


@frozen
class CardinalityScan:
    rows: tuple[ScanRow, ...]
    characteristic_cardinality: int | None

    def to_csv(self) -> str:
        lines = ["region_size,entropy_bits,internal_correlation_bits"]
        for r in self.rows:
            lines.append(f"{r.region_size},{r.entropy},{r.correlation}")
        return "\n".join(lines) + "\n"


def cardinality_scan(
    state: ToricState, regions: list[list[int]] | None = None
) -> CardinalityScan:
    """Internal-correlation report over a family of contiguous regions.

    Default family: edges interior to k x k vertex patches, k = 1..L+1
    (k = L+1 wraps to the whole torus).  The characteristic cardinality is
    the largest sub-global region size with I(A) > 0.  Note this
    operationalizes internal correlation via the stabilizer entropy defect;
    the scan is labelled accordingly in CLI output.
    """
    n_total = state.n
    if regions is None:
        regions = [square_patch_edges(state.L, k) for k in range(1, state.L + 1)]
        regions.append(list(range(n_total)))
    regions = [sorted(set(region)) for region in regions]
    edges = sorted(set().union(*regions))
    entropies = _region_entropies(state.group, [[q] for q in edges] + regions)
    single = dict(zip(edges, entropies))
    rows = tuple(
        ScanRow(len(region), s, sum(single[q] for q in region) - s)
        for region, s in zip(regions, entropies[len(edges) :])
    )
    correlated = [r.region_size for r in rows if r.correlation > 0]
    n_t = max((k for k in correlated if k < n_total), default=None)
    return CardinalityScan(rows=rows, characteristic_cardinality=n_t)


@frozen
class RescalingCheck:
    """verify_rescaling's verdicts; swaps_preserve_group is True or the call raised."""

    anchors_checked: int
    site_weights_ok: bool
    plaquette_weights_ok: bool
    cross_commutation_ok: bool
    swaps_preserve_group: bool


def verify_rescaling(state: ToricState) -> RescalingCheck:
    """Structural re-check of the rescaled generator pattern.

    At every anchor on the RESCALE_FACTOR-sublattice: the big site and
    plaquette generators have weight 12 and commute with every generator of
    the state of the other Pauli type (the Z side holds the plaquettes and
    the two Z loops).  At the origin, swapping the plaquette for the big one
    preserves the group, or `swap_generating_set` raises ToricError.  This
    verifies the self-similar toric pattern without simulating a smaller
    torus.
    """
    axis = range(0, state.L, RESCALE_FACTOR)
    anchors = [(x, y) for y in axis for x in axis]
    pairs = [(rescaled_site(state, a), rescaled_plaquette(state, a)) for a in anchors]
    x_type = [g for g in state.group.generators if not g.z]
    z_type = [g for g in state.group.generators if not g.x]
    # the origin's plaquette is in the generating set, which omits (L-1, L-1)
    swap_generating_set(state, toric_plaquette_generator(state.L, 0, 0), pairs[0][1])
    return RescalingCheck(
        anchors_checked=len(pairs),
        site_weights_ok=all(site.weight == 12 for site, _ in pairs),
        plaquette_weights_ok=all(plaq.weight == 12 for _, plaq in pairs),
        cross_commutation_ok=all(commutes(s, g) for s, _ in pairs for g in z_type)
        and all(commutes(p, g) for _, p in pairs for g in x_type),
        swaps_preserve_group=True,
    )


def generator_support_svg(state: ToricState) -> str:
    """SVG of the rescaled site/plaquette supports at the origin on the edge
    lattice."""
    L, n, cell = state.L, state.n, SVG_CELL
    size = (L + 1) * cell
    big_site = rescaled_site(state, (0, 0))
    big_plaq = rescaled_plaquette(state, (0, 0))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f"<!-- toric L={L} rescaled generator supports at anchor=(0, 0) -->",
    ]

    def edge_coords(kind, x, y):
        if kind == "h":
            return x * cell, (L - y) * cell, (x + 1) * cell, (L - y) * cell
        return x * cell, (L - y) * cell, x * cell, (L - y - 1) * cell

    for y in range(L):
        for x in range(L):
            for kind in ("h", "v"):
                idx = toric_edge_index(L, kind, x, y)
                x1, y1, x2, y2 = edge_coords(kind, x, y)
                if big_site.x >> (n - 1 - idx) & 1:
                    color, w = "#d62728", 4
                elif big_plaq.z >> (n - 1 - idx) & 1:
                    color, w = "#1f77b4", 4
                else:
                    color, w = "#cccccc", 1
                parts.append(
                    f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
                    f'stroke="{color}" stroke-width="{w}"/>'
                )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
