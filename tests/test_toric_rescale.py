import dataclasses

import numpy as np
import pytest

from blockspin import pauli, toric_rescale
from blockspin.codes import toric_plaquette_generator, toric_site_generator
from blockspin.pauli import commutes, gf2_rank, multiply
from blockspin.toric_rescale import (
    ToricError,
    ToricState,
    block_entropy,
    cardinality_scan,
    generator_support_svg,
    internal_correlation,
    rescaled_plaquette,
    rescaled_site,
    square_patch_edges,
    swap_generating_set,
    verify_rescaling,
)

L = 5
STATE = ToricState(L)

# regression value frozen from the first exhaustive scan at L=5
CHARACTERISTIC_CARDINALITY = 40


class TestRescaledGenerators:
    def test_big_site_weight_and_type(self):
        big = rescaled_site(STATE, (0, 0))
        assert big.weight == 12
        assert not big.z  # pure X type

    def test_big_plaquette_weight_and_type(self):
        big = rescaled_plaquette(STATE, (0, 0))
        assert big.weight == 12
        assert not big.x  # pure Z type

    @pytest.mark.parametrize(
        "kind, side, anchor",
        [
            (kind, side, (x, y))
            for kind in ("site", "plaquette")
            for side in (3, 4, 5, 9, 10)
            for y in range(0, side, 3)
            for x in range(0, side, 3)
        ],
        ids=lambda v: f"L{v}" if isinstance(v, int) else str(v).replace(" ", ""),
    )
    def test_big_site_is_product_of_nine(self, kind, side, anchor):
        # reference products, written out per kind: the 9 site generators of
        # the 3x3 vertex block at the anchor, or the 5 plaquettes of the plus
        # cluster centered on it, at every anchor of the 3-sublattice
        x0, y0 = anchor
        prod = None
        if kind == "site":
            for dx in range(3):
                for dy in range(3):
                    g = toric_site_generator(side, (x0 + dx) % side, (y0 + dy) % side)
                    prod = g if prod is None else multiply(prod, g)
            assert prod == rescaled_site(ToricState(side), anchor)
        else:
            for dx, dy in ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)):
                g = toric_plaquette_generator(side, (x0 + dx) % side, (y0 + dy) % side)
                prod = g if prod is None else multiply(prod, g)
            assert prod == rescaled_plaquette(ToricState(side), anchor)

    @pytest.mark.parametrize("rescale", [rescaled_site, rescaled_plaquette])
    def test_small_torus_refused(self, rescale):
        with pytest.raises(ToricError, match="^rescaled generators need L >= 3$"):
            rescale(ToricState(2), (0, 0))

    def test_big_generators_commute_with_small_opposite_type(self):
        big_site = rescaled_site(STATE, (0, 0))
        big_plaq = rescaled_plaquette(STATE, (0, 0))
        for x in range(L):
            for y in range(L):
                assert commutes(big_site, toric_plaquette_generator(L, x, y))
                assert commutes(big_plaq, toric_site_generator(L, x, y))

    def test_translation_covariance(self):
        a = rescaled_site(STATE, (0, 0))
        b = rescaled_site(STATE, (1, 2))
        assert a.weight == b.weight
        assert a != b


class TestFrozenState:
    def test_assignment_refused(self):
        state = ToricState(3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            state.L = 4
        with pytest.raises(dataclasses.FrozenInstanceError):
            state.group = STATE.group

    def test_invalid_size_refused_at_once(self):
        with pytest.raises(ValueError):
            ToricState(1)


class TestSwap:
    def test_swap_preserves_group(self):
        big = rescaled_site(STATE, (0, 0))
        # the center of the 3x3 product is redundant once the big generator
        # is present
        drop = toric_site_generator(L, 1, 1)
        new_group = swap_generating_set(STATE, drop, big)
        assert big in new_group.generators
        assert drop not in new_group.generators

    def test_swap_with_unrelated_drop_fails(self):
        big = rescaled_site(STATE, (0, 0))
        drop = toric_site_generator(L, 4, 4)  # not a factor of the product
        with pytest.raises(ToricError):
            swap_generating_set(STATE, drop, big)

    def test_drop_not_in_generators(self):
        with pytest.raises(ToricError):
            swap_generating_set(
                STATE, rescaled_site(STATE, (0, 0)), rescaled_site(STATE, (1, 1))
            )


class TestEntropy:
    def test_empty_region(self):
        assert block_entropy(STATE, []) == 0

    def test_single_edge(self):
        assert block_entropy(STATE, [0]) == 1

    def test_plaquette_region(self):
        plaq = toric_plaquette_generator(L, 2, 2)
        region = [q for q in range(STATE.n) if plaq.z >> (STATE.n - 1 - q) & 1]
        assert len(region) == 4
        assert block_entropy(STATE, region) == 3
        assert internal_correlation(STATE, region) == 1

    def test_complement_symmetry_random_regions(self):
        rng = np.random.default_rng(11)
        n = STATE.n
        for _ in range(50):
            size = int(rng.integers(1, n))
            region = sorted(rng.choice(n, size=size, replace=False).tolist())
            comp = [e for e in range(n) if e not in set(region)]
            assert block_entropy(STATE, region) == block_entropy(STATE, comp)

    def test_global_region_pure(self):
        assert block_entropy(STATE, list(range(STATE.n))) == 0


class TestCardinalityScan:
    def test_default_scan(self):
        scan = cardinality_scan(STATE)
        assert scan.characteristic_cardinality == CHARACTERISTIC_CARDINALITY
        assert scan.characteristic_cardinality < 2 * L * L
        # global row closes with zero entropy
        assert scan.rows[-1].region_size == 2 * L * L
        assert scan.rows[-1].entropy == 0

    def test_patch_edges_grow(self):
        sizes = [len(square_patch_edges(L, k)) for k in range(1, L + 1)]
        assert sizes == sorted(sizes)
        assert sizes[0] == 0 or sizes[0] >= 0

    def test_csv_export(self):
        assert cardinality_scan(STATE).to_csv() == (
            "region_size,entropy_bits,internal_correlation_bits\n"
            "0,0,0\n4,3,1\n12,7,5\n24,11,13\n40,9,31\n50,0,50\n"
        )

    def test_results_are_frozen(self):
        scan = cardinality_scan(STATE)
        assert isinstance(scan.rows, tuple)
        for result, name in [
            (scan, "rows"),
            (scan.rows[0], "entropy"),
            (verify_rescaling(STATE), "swaps_preserve_group"),
        ]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(result, name, None)

    @pytest.mark.parametrize("side", [5, 9, 13, 17])
    def test_patch_entropy_closed_form(self, side):
        # A k x k patch, 2 <= k < L, is simply connected with 4(k - 1)
        # boundary stars, so S = 4(k - 1) - gamma with the topological term
        # gamma = 1 bit (Hamma, Ionicioiu & Zanardi, PRA 71, 022315 (2005);
        # Kitaev & Preskill, PRL 96, 110404 (2006)).  The k = L patch wraps
        # and is left out.
        rows = cardinality_scan(ToricState(side)).rows
        assert rows[0].region_size == 0 and rows[0].entropy == 0
        assert [r.entropy for r in rows[1 : side - 1]] == [
            4 * (k - 1) - 1 for k in range(2, side)
        ]
        assert rows[-1].region_size == 2 * side * side and rows[-1].entropy == 0


def _oracle_entropy(state, region) -> int:
    """Reference S(A) = |A| - (n - rank of the generators on the complement)."""
    n = state.n
    rows = [g.row for g in state.group.generators]
    assert gf2_rank(rows) == n
    # the X and Z columns of the complement's qubits
    comp = sum(1 << (n - 1 - q) for q in range(n) if q not in set(region))
    sub = gf2_rank(r & (comp << n | comp) for r in rows)
    return len(region) - (n - sub)


class TestScanOracle:
    @pytest.mark.parametrize("side", [3, 4, 5, 6])
    def test_scan_matches_definition(self, side):
        state = ToricState(side)
        rng = np.random.default_rng(side)
        random_regions = [
            sorted(rng.choice(state.n, size=size, replace=False).tolist())
            for size in (1, 2, state.n // 3, state.n - 1)
        ]
        default = [square_patch_edges(side, k) for k in range(1, side + 1)]
        default.append(list(range(state.n)))
        for regions, scan in (
            (default, cardinality_scan(state)),
            (random_regions, cardinality_scan(state, random_regions)),
        ):
            expected = []
            for region in regions:
                s = _oracle_entropy(state, region)
                single = sum(_oracle_entropy(state, [q]) for q in region)
                expected.append((len(region), s, single - s))
            assert [(r.region_size, r.entropy, r.correlation) for r in scan.rows] == (
                expected
            )
        for region in random_regions:
            s = _oracle_entropy(state, region)
            assert block_entropy(state, region) == s
            assert internal_correlation(state, region) == sum(
                _oracle_entropy(state, [q]) for q in region
            ) - s

    @pytest.mark.parametrize("side", [3, 5])
    def test_rank_calls_bounded(self, side, monkeypatch):
        # at most one rank per distinct edge and one per region; purity is
        # read from the state's canonical rows
        state = ToricState(side)
        regions = [square_patch_edges(side, k) for k in range(1, side + 1)]
        regions.append(list(range(state.n)))
        edges = set().union(*regions)
        calls = []
        real = pauli.gf2_rank
        monkeypatch.setattr(pauli, "gf2_rank", lambda m: calls.append(1) or real(m))
        cardinality_scan(state)
        assert 0 < len(calls) <= len(edges) + len(regions)


class TestVerifyRescaling:
    def test_two_eliminations_of_the_full_group(self, monkeypatch):
        # one for the state's group and one for the swapped group
        state = ToricState(L)
        sizes = []
        real = pauli._rref
        monkeypatch.setattr(
            pauli, "_rref", lambda rows, *a: sizes.append(len(rows)) or real(rows, *a)
        )
        assert verify_rescaling(state).swaps_preserve_group
        assert sizes.count(state.n) <= 2
        # the state's canonical rows are cached: a second check adds one
        verify_rescaling(state)
        assert sizes.count(state.n) <= 3

    def test_toric_cli_eliminates_the_full_group_twice(self, monkeypatch, capsys):
        # the scan reads purity off the state's canonical rows, which the
        # swap check reuses: two phased eliminations, no rank of all rows
        from blockspin.cli import main

        full = [g.row for g in ToricState(5).group.generators]
        phased, ranked = [], []
        real_rref, real_rank = pauli._rref, pauli.gf2_rank

        def rref(rows, phases=None, n=0):
            if phases is not None:
                phased.append(len(rows))
            return real_rref(rows, phases, n)

        monkeypatch.setattr(pauli, "_rref", rref)
        monkeypatch.setattr(
            pauli, "gf2_rank", lambda rows: ranked.append(rows) or real_rank(rows)
        )
        assert main(["toric", "--L", "5"]) == 0
        assert phased == [len(full)] * 2
        assert ranked and full not in ranked

    @pytest.mark.parametrize("side", [5, 9])
    def test_builds_each_block_once(self, side, monkeypatch):
        # 9 + 5 small generators per anchor for its (site, plaquette) pair,
        # plus the origin's plaquette to drop in the swap; the small
        # generators themselves come from the state's group
        state = ToricState(side)
        calls = []
        for name in ("toric_site_generator", "toric_plaquette_generator"):
            real = getattr(toric_rescale, name)
            monkeypatch.setattr(
                toric_rescale, name, lambda *a, real=real: calls.append(a) or real(*a)
            )
        check = verify_rescaling(state)
        assert len(calls) == 14 * check.anchors_checked + 1

    def test_structural_check(self):
        check = verify_rescaling(STATE)
        assert check.site_weights_ok
        assert check.plaquette_weights_ok
        assert check.cross_commutation_ok
        assert check.swaps_preserve_group
        assert check.anchors_checked >= 4


class TestSvg:
    def test_support_rendering(self):
        svg = generator_support_svg(STATE)
        assert "<svg" in svg
        assert "line" in svg or "rect" in svg
