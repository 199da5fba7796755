from dataclasses import FrozenInstanceError
from math import comb

import numpy as np
import pytest

from blockspin._value import replace
from blockspin.dfs import (
    AlgebraDecomposition,
    AlgebraError,
    Block,
    OperatorSet,
    _eigenclusters,
    algebra_closure,
    block_diagonal_residual,
    collective_noise_generators,
    commutant,
    decompose,
    find_noiseless,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex) / 2
SY = np.array([[0, -1j], [1j, 0]], dtype=complex) / 2
SZ = np.array([[1, 0], [0, -1]], dtype=complex) / 2


def full_matrix_algebra(dim: int) -> OperatorSet:
    units = []
    for i in range(dim):
        for j in range(dim):
            m = np.zeros((dim, dim), dtype=complex)
            m[i, j] = 1.0
            units.append(m)
    return OperatorSet(dim, units)


class TestClosure:
    def test_identity_only(self):
        ops = OperatorSet(2, [np.eye(2, dtype=complex)])
        assert decompose(ops).algebra_dim == 1

    def test_pauli_generators_close_to_full_algebra(self):
        ops = OperatorSet(2, [2 * SX, 2 * SZ])
        assert decompose(ops).algebra_dim == 4

    def test_three_qubit_collective_dimension(self):
        dec = decompose(collective_noise_generators(3))
        assert dec.algebra_dim == 20  # 4^2 + 2^2

    def test_closure_basis_orthonormal_and_spans_generators(self):
        ops = collective_noise_generators(3)
        basis = algebra_closure(decompose(ops))
        assert len(basis) == 20
        flat = np.stack([b.reshape(-1) for b in basis])
        assert np.allclose(flat.conj() @ flat.T, np.eye(20), atol=1e-10)
        for g in ops.generators:
            coef = flat.conj() @ g.reshape(-1)
            assert np.allclose(coef @ flat, g.reshape(-1), atol=1e-10)


class TestCommutant:
    def test_full_algebra_scalar_commutant(self):
        comm = commutant(full_matrix_algebra(3).generators)
        assert len(comm) == 1

    def test_scalars_commute_with_everything(self):
        comm = commutant([np.eye(4, dtype=complex)])
        assert len(comm) == 16

    def test_rounded_scalar_commutes_with_everything(self):
        # U U^+ is the identity up to rounding: its Gram is rounding only,
        # so a cut relative to the Gram's own top eigenvalue would drop most
        z = np.random.default_rng(1).normal(size=(4, 4, 2)) @ [1, 1j]
        u, _ = np.linalg.qr(z)
        assert len(commutant([u @ u.conj().T])) == 16

    def test_three_qubit_collective_commutant(self):
        ops = collective_noise_generators(3)
        comm = commutant(ops.generators)
        assert len(comm) == 5  # 1^2 + 2^2
        for c in comm:
            for g in ops.generators:
                assert np.allclose(c @ g, g @ c, atol=1e-10)

    def test_anti_hermitian_generators_keep_their_commutant(self):
        # -iS is skew-Hermitian: a combination of the Hermitian parts alone is
        # zero and would leave all 64^2 entries unknown
        gens = [-1j * g for g in collective_noise_generators(6).generators]
        assert len(commutant(gens)) == 132  # 1 + 81 + 25 + 25

    @pytest.mark.parametrize("n", range(1, 7))
    def test_schur_weyl_unknown_count(self, n):
        # a degree-1 element leaves C(2n, n) unknowns: its eigenvalue m is
        # shared by every spin j >= |m|; a degree-2 one splits the spins
        _, clusters = _eigenclusters(collective_noise_generators(n).generators)
        assert sum(len(c) ** 2 for c in clusters) == sum(
            d * m * m for d, m in schur_weyl_blocks(n)
        )

    @pytest.mark.parametrize("factor", [1e-6, 1e6])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_rescaled_generators_same_clusters(self, n, factor):
        gens = collective_noise_generators(n).generators
        scaled = [factor * g for g in gens]
        sizes = [[len(c) for c in _eigenclusters(x)[1]] for x in (gens, scaled)]
        assert sizes[0] == sizes[1]
        assert len(commutant(scaled)) == len(commutant(gens))


def schur_weyl_blocks(n: int) -> list[tuple[int, int]]:
    """(2j+1, C(n, n/2-j) - C(n, n/2-j-1)) for each total spin j of n qubits."""
    blocks = []
    for k in range(n // 2 + 1):  # k = n/2 - j
        blocks.append((n - 2 * k + 1, comb(n, k) - (comb(n, k - 1) if k else 0)))
    return sorted(blocks)


def random_star_algebra(rng, isotypes, n_gens=2):
    """Generators U (+)_i (A_i (x) I_{m_i}) U^+ for random complex A_i and a
    random unitary U, with the isotypes (d_i, m_i) and A_i returned."""
    dim = sum(d * m for d, m in isotypes)
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    u, _ = np.linalg.qr(z)
    gens, parts = [], []
    for _ in range(n_gens):
        a_list = [
            rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for d, _ in isotypes
        ]
        g = np.zeros((dim, dim), dtype=complex)
        offset = 0
        for (d, m), a in zip(isotypes, a_list):
            g[offset : offset + d * m, offset : offset + d * m] = np.kron(a, np.eye(m))
            offset += d * m
        gens.append(u @ g @ u.conj().T)
        parts.append(a_list)
    return OperatorSet(dim, gens), parts


class TestOracles:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_schur_weyl_blocks(self, n, seed):
        ops = collective_noise_generators(n)
        dec = decompose(ops, seed=seed)
        want = schur_weyl_blocks(n)
        assert sorted((b.irrep_dim, b.multiplicity) for b in dec.blocks) == want
        assert dec.algebra_dim == sum(d * d for d, _ in want)
        assert dec.commutant_dim == sum(m * m for _, m in want)
        assert block_diagonal_residual(dec, ops) < 1e-8
        for b in dec.blocks:
            v = b.isometry
            assert np.allclose(v.conj().T @ v, np.eye(v.shape[1]), atol=1e-10)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_star_algebra_recovered_and_aligned(self, seed):
        # two isotypes of equal d (3, 2) and (3, 1), and a d = 1 block
        isotypes = [(3, 2), (3, 1), (2, 3), (1, 2)]
        rng = np.random.default_rng(100 + seed)
        ops, parts = random_star_algebra(rng, isotypes)
        dec = decompose(ops, seed=seed)
        found = sorted((b.irrep_dim, b.multiplicity) for b in dec.blocks)
        # this also covers the space: random_star_algebra's dim is the isotypes' sum d*m
        assert found == sorted(isotypes)
        assert block_diagonal_residual(dec, ops) < 1e-8
        for b in dec.blocks:
            d, m = b.irrep_dim, b.multiplicity
            v = b.isometry
            restricted = [v.conj().T @ g @ v for g in ops.generators]
            # columns (irrep, copy): every generator reads A (x) I_m
            irrep = [r.reshape(d, m, d, m)[:, 0, :, 0] for r in restricted]
            for r, a in zip(restricted, irrep):
                assert np.allclose(r, np.kron(a, np.eye(m)), atol=1e-8)
            # and A is the isotype's irrep up to a basis change
            want = [p[isotypes.index((d, m))] for p in parts]
            for x, y in zip(spectra(irrep), spectra(want)):
                assert np.allclose(x, y, atol=1e-8)


def spectra(mats):
    """Similarity invariants of a generator pair: each spectrum and the
    spectrum of their product."""
    return [np.sort_complex(np.linalg.eigvals(x)) for x in (*mats, mats[0] @ mats[1])]


def dense_commutant(generators: list[np.ndarray]) -> np.ndarray:
    """Orthonormal rows spanning the flattened X with [X, g] = [X, g^+] = 0,
    from the SVD of the stacked g (x) I - I (x) g^T (row-major flattening)."""
    dim = generators[0].shape[0]
    eye = np.eye(dim)
    stacked = np.concatenate([
        np.kron(h, eye) - np.kron(eye, h.T)
        for g in generators
        for h in (g, g.conj().T)
    ])
    _, s, vh = np.linalg.svd(stacked)
    return vh[s <= 1e-9 * s.max()].conj()


def _oracle_cases():
    rng = np.random.default_rng(7)
    cases = {
        "zero": [np.zeros((2, 2), dtype=complex)],
        "scalar": [np.eye(4, dtype=complex)],
        "paulis": [2 * SX, 2 * SZ],
        "full-3": full_matrix_algebra(3).generators,
        "generic-8": [rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))],
        "skew-collective-3": [-1j * g for g in collective_noise_generators(3).generators],
        "star-8": random_star_algebra(rng, [(2, 2), (1, 3), (1, 1)])[0].generators,
    }
    for n in (1, 2, 3):
        cases[f"collective-{n}"] = collective_noise_generators(n).generators
    for seed in (1, 2, 3):
        isotypes = [(3, 2), (3, 1), (2, 3), (1, 2)]
        cases[f"star-17-{seed}"] = random_star_algebra(
            np.random.default_rng(100 + seed), isotypes
        )[0].generators
    return cases


ORACLE_CASES = _oracle_cases()


@pytest.mark.parametrize("gens", ORACLE_CASES.values(), ids=ORACLE_CASES)
def test_commutant_span_matches_dense_null_space(gens):
    want = dense_commutant(gens)
    got = np.stack([c.reshape(-1) for c in commutant(gens)])
    assert got.shape == want.shape
    # equal projectors: the same subspace, and both bases orthonormal
    assert np.allclose(got.conj() @ got.T, np.eye(len(got)), atol=1e-10)
    assert np.allclose(got.T @ got.conj(), want.T @ want.conj(), atol=1e-8)


class TestDecompose:
    def test_three_qubit_blocks(self):
        dec = decompose(collective_noise_generators(3))
        blocks = sorted((b.irrep_dim, b.multiplicity) for b in dec.blocks)
        assert blocks == [(2, 2), (4, 1)]
        assert dec.algebra_dim == 20
        assert dec.commutant_dim == 5
        assert sum(b.irrep_dim * b.multiplicity for b in dec.blocks) == dec.dim

    def test_four_qubit_blocks(self):
        dec = decompose(collective_noise_generators(4))
        blocks = sorted((b.irrep_dim, b.multiplicity) for b in dec.blocks)
        assert blocks == [(1, 2), (3, 3), (5, 1)]
        # sum d*m covers the full space
        assert sum(d * m for d, m in blocks) == 16

    def test_residual_small(self):
        ops = collective_noise_generators(3)
        dec = decompose(ops)
        assert block_diagonal_residual(dec, ops) < 1e-8

    def test_isometries_orthonormal(self):
        dec = decompose(collective_noise_generators(3))
        for b in dec.blocks:
            v = b.isometry
            assert np.allclose(
                v.conj().T @ v, np.eye(v.shape[1]), atol=1e-10
            )

    def test_seed_determinism(self):
        d1 = decompose(collective_noise_generators(3), seed=5)
        d2 = decompose(collective_noise_generators(3), seed=5)
        assert [(b.irrep_dim, b.multiplicity) for b in d1.blocks] == [
            (b.irrep_dim, b.multiplicity) for b in d2.blocks
        ]

    @pytest.mark.parametrize("factor", [-1j, 1j * 1e9, 1e9, 1e-9])
    @pytest.mark.parametrize("n", [3, 4])
    def test_skew_and_rescaled_generators_same_blocks(self, n, factor):
        ops = collective_noise_generators(n)
        scaled = OperatorSet(ops.dim, [factor * g for g in ops.generators])
        dec = decompose(scaled)
        found = sorted((b.irrep_dim, b.multiplicity) for b in dec.blocks)
        assert found == schur_weyl_blocks(n)
        assert block_diagonal_residual(dec, scaled) < 1e-8

    def test_negative_seed_refused(self):
        # random.Random(-1) would reuse seed 1's stream
        with pytest.raises(AlgebraError, match="seed must be >= 0, got -1"):
            decompose(collective_noise_generators(3), seed=-1)

    def test_too_many_unknowns_refused_at_once(self):
        # the identity leaves all 64^2 entries unknown
        with pytest.raises(AlgebraError, match="unknowns exceed cap"):
            decompose(OperatorSet(64, [np.eye(64, dtype=complex)]))

    def test_identity_generator_single_block(self):
        dec = decompose(OperatorSet(2, [np.eye(2, dtype=complex)]))
        assert len(dec.blocks) == 1
        b = dec.blocks[0]
        assert (b.irrep_dim, b.multiplicity) == (1, 2)


class TestResidual:
    def test_overlapping_blocks_show(self):
        # the generator vanishes, so only the identity term sees the overlap
        ops = OperatorSet(2, [np.zeros((2, 2), dtype=complex)])
        blocks = [
            Block(1, 1, np.array([[1.0], [0.0]], dtype=complex)),
            Block(1, 1, np.array([[0.6], [0.8]], dtype=complex)),
        ]
        dec = AlgebraDecomposition(2, blocks)
        assert block_diagonal_residual(dec, ops) > 0.1

    def test_unaligned_copies_show(self):
        ops = collective_noise_generators(3)
        dec = decompose(ops)
        # reorder the columns (irrep, copy) -> (copy, irrep): still
        # block-diagonal, but the generators now read I_m (x) A
        blocks = [
            replace(b, isometry=b.isometry.reshape(8, 2, 2).transpose(0, 2, 1).reshape(8, 4))
            if b.multiplicity == 2 else b
            for b in dec.blocks
        ]
        assert block_diagonal_residual(replace(dec, blocks=blocks), ops) > 0.1


class TestFrozen:
    def test_value_types_are_frozen_with_tuple_fields(self):
        ops = OperatorSet(2, iter([np.eye(2, dtype=complex)]))
        dec = decompose(ops)
        assert isinstance(ops.generators, tuple)
        assert isinstance(AlgebraDecomposition(dec.dim, list(dec.blocks)).blocks, tuple)
        fields = [
            (ops, "generators"),
            (dec, "blocks"),
            (dec.blocks[0], "multiplicity"),
            (find_noiseless(dec)[0], "protected_dim"),
        ]
        for obj, name in fields:
            with pytest.raises(FrozenInstanceError):
                setattr(obj, name, None)


class TestNoiseless:
    def test_three_qubit_subsystem(self):
        dec = decompose(collective_noise_generators(3))
        noiseless = find_noiseless(dec)
        assert len(noiseless) == 1
        nb = noiseless[0]
        assert nb.protected_dim == 2
        assert nb.kind == "subsystem"

    def test_four_qubit_ordering(self):
        dec = decompose(collective_noise_generators(4))
        noiseless = find_noiseless(dec)
        assert [(nb.protected_dim, nb.kind) for nb in noiseless] == [
            (3, "subsystem"),
            (2, "subspace"),
        ]

    def test_full_algebra_empty(self):
        dec = decompose(full_matrix_algebra(3))
        assert find_noiseless(dec) == []

    def test_identity_whole_space_noiseless(self):
        dec = decompose(OperatorSet(2, [np.eye(2, dtype=complex)]))
        noiseless = find_noiseless(dec)
        assert len(noiseless) == 1
        assert noiseless[0].protected_dim == 2


class TestCollectiveGenerators:
    def test_operators_are_collective_spins(self):
        ops = collective_noise_generators(2)
        sx_total = np.kron(SX, np.eye(2)) + np.kron(np.eye(2), SX)
        assert any(np.allclose(m, sx_total) for m in ops.generators)

    def test_dimension_cap(self):
        with pytest.raises(AlgebraError):
            collective_noise_generators(8)

    @pytest.mark.parametrize(
        "n, match", [(-1, "qubit count"), (7, "exceeds cap"), (10**9, "exceeds cap")]
    )
    def test_refused_before_any_matrix_is_built(self, n, match, monkeypatch):
        def no_kron(*args):
            raise AssertionError("np.kron called")

        monkeypatch.setattr(np, "kron", no_kron)
        with pytest.raises(AlgebraError, match=match):
            collective_noise_generators(n)
