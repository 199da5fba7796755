"""Numerical decomposition of finite-dimensional operator algebras.

Given generators of a dagger-closed interaction algebra, compute the
isotypic decomposition H = (+)_i C_i (x) Z_i, identity on the Z factors.
Blocks with multiplicity m_i >= 2 are noiseless: a subspace when d_i = 1,
a subsystem otherwise.  The dynamics, not the analyst, choose the code.
"""

from __future__ import annotations

import random

from ._numpy import np
from ._value import frozen

DIM_CAP = 64  # collective noise on n = 6 qubits
# commutant unknowns: 400 for collective noise on 6 qubits, the most the CLI
# asks for, and every input of dimension <= 32 fits; on 2 shared cores, with
# the library's default BLAS thread count (the CLI pins one thread), the eigh
# of a 1024-unknown Gram (17 MB) takes 0.5 s and of a 2048 one 4 s, so 4096
# (the identity alone at dimension 64) would need 270 MB per matrix and about
# half a minute
MAX_UNKNOWNS = 1024
# Gram eigenvalues are squared singular values of the commutator constraints,
# so the cut is relative to 4 tr S, which bounds the largest of them and stays
# nonzero when the Gram vanishes (scalar generators): for collective noise the
# null ones sit below 1e-15 of it and the rest above 1e-3
NULL_SPACE_TOL = 1e-10
# eigenvalue gaps below CLUSTER_TOL are rounding inside one eigenspace, gaps
# above CLUSTER_AMBIGUOUS separate eigenspaces; in between is refused, except
# in the generator spectrum, where merging eigenspaces stays exact
CLUSTER_TOL = 1e-8
CLUSTER_AMBIGUOUS = 1e-6
# copy couplings relative to the norm of the coupling element: inequivalent
# copies couple at rounding level, equivalent ones at a Gaussian draw that
# falls below COUPLING_AMBIGUOUS with odds of order 1e-6; in between is refused
COUPLING_TOL = 1e-8
COUPLING_AMBIGUOUS = 1e-6


class AlgebraError(ValueError):
    """Raised on dimension overflow or irresolvable numerical degeneracy."""


@frozen
class OperatorSet:
    """Generators of an interaction algebra on a dim-dimensional space;
    frozen, with the generators as a tuple (any iterable is accepted)."""

    dim: int
    generators: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        if self.dim > DIM_CAP:
            raise AlgebraError(f"dimension {self.dim} exceeds cap {DIM_CAP}")
        if not self.generators:
            raise AlgebraError("no generators")
        for g in self.generators:
            if g.shape != (self.dim, self.dim):
                raise AlgebraError("generator shape mismatch")


@frozen
class Block:
    irrep_dim: int        # d_i
    multiplicity: int     # m_i
    isometry: np.ndarray  # dim x (d_i * m_i), columns ordered (irrep, copy)


@frozen
class AlgebraDecomposition:
    dim: int
    blocks: tuple[Block, ...]

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))

    @property
    def algebra_dim(self) -> int:
        return sum(b.irrep_dim**2 for b in self.blocks)

    @property
    def commutant_dim(self) -> int:
        return sum(b.multiplicity**2 for b in self.blocks)


def _eigenclusters(gens: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """Eigenbasis V of h1 + h2^2 and the index clusters of its spectrum.

    h1, h2: generators and adjoints with complex weights (keeping Hermitian
    and anti-Hermitian parts), each of unit Frobenius norm so neither swamps
    the other (unit spectral norm makes h1 + h2^2 singular on the 4-qubit
    spin-2 irrep, as on the singlets).  Of degree 2, h1 + h2^2 splits
    inequivalent irreps that share degree-1 spectra, as spin-j irreps do.
    """
    rng = random.Random(0)
    ms = [_random_element(gens, rng) for _ in range(2)]
    h1, h2 = (h / (np.linalg.norm(h) or 1.0) for h in (m + m.conj().T for m in ms))
    evals, v = np.linalg.eigh(h1 + h2 @ h2)
    # relative gaps, so the clusters do not depend on the generators' units
    evals /= np.abs(evals).max() or 1.0
    splits = np.flatnonzero(np.diff(evals) >= CLUSTER_AMBIGUOUS) + 1
    return v, np.split(np.arange(len(evals)), splits)


def commutant(generators: list[np.ndarray]) -> list[np.ndarray]:
    """Orthonormal basis of the operators commuting with the generators and
    their adjoints: the commutant of the *-algebra they generate.

    Every commutant element commutes with an element of that algebra, so in
    the eigenbasis V of `_eigenclusters` only the entries X[i, k] within one
    eigenvalue cluster are unknowns (merging clusters adds unknowns but stays
    exact).  For matrix units E_u = |i_u><k_u| the Gram of the constraints
    [E_u, h] = 0, over h in the generators and their adjoints written in V's
    basis and S = sum_h h^+ h, is

        G[u, v] = [i_u = i_v] conj(S[k_u, k_v]) + [k_u = k_v] S[i_u, i_v]
                  - 2 sum_h h[i_u, i_v] conj(h[k_u, k_v])

    and its null space, rotated back by V, is the commutant.
    """
    dim = generators[0].shape[0]
    gens = [g.astype(complex) for g in generators]
    v, clusters = _eigenclusters(gens)
    unknowns = sum(len(c) ** 2 for c in clusters)
    if unknowns > MAX_UNKNOWNS:
        raise AlgebraError(f"{unknowns} commutant unknowns exceed cap {MAX_UNKNOWNS}")
    i, k = np.array([(a, b) for idx in clusters for a in idx for b in idx]).T
    hs = [v.conj().T @ h @ v for g in gens for h in (g, g.conj().T)]
    s = sum(h.conj().T @ h for h in hs)
    gram = (i[:, None] == i) * s[np.ix_(k, k)].conj()
    gram += (k[:, None] == k) * s[np.ix_(i, i)]
    for h in hs:
        gram -= 2 * h[np.ix_(i, i)] * h[np.ix_(k, k)].conj()
    g_evals, g_vecs = np.linalg.eigh(gram)
    null = g_evals <= NULL_SPACE_TOL * 4 * s.trace().real
    x = np.zeros((int(null.sum()), dim, dim), dtype=complex)
    x[:, i, k] = g_vecs[:, null].T
    return list(v @ x @ v.conj().T)


def _cluster(values: np.ndarray) -> list[np.ndarray]:
    """Index clusters of sorted commutant eigenvalues; ambiguous gaps are an error."""
    gaps = np.diff(values)
    ambiguous = gaps[(gaps >= CLUSTER_TOL) & (gaps < CLUSTER_AMBIGUOUS)]
    if ambiguous.size:
        raise AlgebraError(
            f"commutant spectrum gap {ambiguous.min():.2e} is numerically ambiguous"
        )
    return np.split(np.arange(len(values)), np.flatnonzero(gaps >= CLUSTER_TOL) + 1)


def _random_element(basis: list[np.ndarray], rng: random.Random) -> np.ndarray:
    return sum(complex(rng.gauss(0, 1), rng.gauss(0, 1)) * b for b in basis)


def decompose(ops: OperatorSet, seed: int = 2024) -> AlgebraDecomposition:
    """Isotypic block decomposition from two random commutant elements.

    Deterministic given seed (>= 0).  The eigenspaces of a random Hermitian
    commutant element are the irreducible copies.  A second random commutant
    element K couples copies a and b (Q_b^+ K Q_a != 0) only when they carry
    equivalent irreps, and then Q_b^+ K Q_a is a scalar times a unitary
    intertwiner.  Normalized, it rotates copy b onto the basis of the first
    copy of its block, so each block's generators read A (x) I_m with columns
    ordered (irrep, copy).  Murota, Kanno, Kojima & Kojima, Japan J. Indust.
    Appl. Math. 27 (2010).
    """
    if seed < 0:
        raise AlgebraError(f"seed must be >= 0, got {seed}")
    rng = random.Random(seed)
    basis = commutant(ops.generators)
    herm = _random_element(basis, rng)
    evals, evecs = np.linalg.eigh(herm + herm.conj().T)
    k = _random_element(basis, rng)
    scale = np.linalg.norm(k)
    groups: list[list[np.ndarray]] = []  # aligned copies, one list per block
    for q in (evecs[:, idx] for idx in _cluster(evals)):
        for group in groups:
            c = q.conj().T @ k @ group[0]
            strength = np.linalg.norm(c) / scale
            if strength >= COUPLING_AMBIGUOUS:
                group.append(q @ c * (np.sqrt(len(c)) / np.linalg.norm(c)))
                break
            if strength >= COUPLING_TOL:
                raise AlgebraError(
                    f"copy coupling {strength:.2e} is numerically ambiguous"
                )
        else:
            groups.append([q])
    blocks = [
        Block(
            irrep_dim=g[0].shape[1],
            multiplicity=len(g),
            isometry=np.stack(g, axis=2).reshape(ops.dim, -1),
        )
        for g in groups
    ]
    blocks.sort(key=lambda b: (-b.irrep_dim, -b.multiplicity))
    dec = AlgebraDecomposition(dim=ops.dim, blocks=blocks)
    if dec.commutant_dim != len(basis):
        raise AlgebraError(
            f"blocks give commutant dimension {dec.commutant_dim}, not "
            f"{len(basis)}: a copy was split, merged or left unpaired"
        )
    return dec


@frozen
class NoiselessBlock:
    block_index: int
    protected_dim: int
    kind: str  # subspace | subsystem


def find_noiseless(dec: AlgebraDecomposition) -> list[NoiselessBlock]:
    """Blocks with multiplicity >= 2, largest multiplicity first, ties by
    smaller irrep dimension."""
    found = [
        (i, b) for i, b in enumerate(dec.blocks) if b.multiplicity >= 2
    ]
    found.sort(key=lambda ib: (-ib[1].multiplicity, ib[1].irrep_dim))
    return [
        NoiselessBlock(
            block_index=i,
            protected_dim=b.multiplicity,
            kind="subspace" if b.irrep_dim == 1 else "subsystem",
        )
        for i, b in found
    ]


def algebra_closure(dec: AlgebraDecomposition) -> list[np.ndarray]:
    """Orthonormal basis of the unital *-algebra the generators generate,
    read off the blocks as (+)_i Mat(d_i) (x) I_{m_i}: the operators
    U_i (E_ab (x) I_m) U_i^+ / sqrt(m) for each block i and a, b < d_i."""
    basis = []
    for b in dec.blocks:
        x = b.isometry.reshape(dec.dim, b.irrep_dim, b.multiplicity)
        for a in range(b.irrep_dim):
            for c in range(b.irrep_dim):
                basis.append(x[:, a] @ x[:, c].conj().T / np.sqrt(b.multiplicity))
    return basis


def block_diagonal_residual(dec: AlgebraDecomposition, ops: OperatorSet) -> float:
    """Largest entry of g - P(g), relative to g's largest entry, over the
    identity and the generators, P the projection onto the span of
    `algebra_closure(dec)`.  It is rounding when the blocks' isometries
    together form a unitary and every generator reads (+)_i A_i (x) I_{m_i}
    in it: off-block entries, blocks that overlap and copies left unaligned
    all show in it."""
    basis = np.stack([b.reshape(-1) for b in algebra_closure(dec)])
    residual = 0.0
    for g in (np.eye(dec.dim), *ops.generators):
        flat = g.reshape(-1) / (np.abs(g).max() or 1.0)
        residual = max(residual, float(np.abs(flat - (basis.conj() @ flat) @ basis).max()))
    return residual


def collective_noise_generators(n_qubits: int) -> OperatorSet:
    """Collective spin operators S_x, S_y, S_z on n qubits."""
    if n_qubits < 0:
        raise AlgebraError(f"qubit count must be >= 0, got {n_qubits}")
    # compared by bit length, so a huge count is refused without forming 2**n
    if n_qubits >= DIM_CAP.bit_length():
        raise AlgebraError(f"dimension 2^{n_qubits} exceeds cap {DIM_CAP}")
    sx = np.array([[0, 1], [1, 0]], dtype=complex) / 2
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex) / 2
    sz = np.array([[1, 0], [0, -1]], dtype=complex) / 2
    dim = 2**n_qubits
    gens = []
    for s in (sx, sy, sz):
        total = np.zeros((dim, dim), dtype=complex)
        for i in range(n_qubits):
            op = np.array([[1]], dtype=complex)
            for j in range(n_qubits):
                op = np.kron(op, s if i == j else np.eye(2, dtype=complex))
            total += op
        gens.append(total)
    return OperatorSet(dim=dim, generators=gens)
