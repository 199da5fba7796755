"""Numerical decomposition of finite-dimensional operator algebras.

Given generators of a dagger-closed interaction algebra, compute the
isotypic decomposition H = (+)_i C_i (x) Z_i, identity on the Z factors.
Blocks with multiplicity m_i >= 2 are noiseless: a subspace when d_i = 1,
a subsystem otherwise.  The dynamics, not the analyst, choose the code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DIM_CAP = 32  # n = 6 (dim 64) spends minutes in closure, then merges blocks
CLOSURE_TOL = 1e-10
CLUSTER_TOL = 1e-8
CLUSTER_AMBIGUOUS = 1e-6


class AlgebraError(ValueError):
    """Raised on dimension overflow or irresolvable numerical degeneracy."""


@dataclass
class OperatorSet:
    """Generators of an interaction algebra on a dim-dimensional space."""

    dim: int
    generators: list[np.ndarray]

    def __post_init__(self):
        if self.dim > DIM_CAP:
            raise AlgebraError(f"dimension {self.dim} exceeds cap {DIM_CAP}")
        for g in self.generators:
            if g.shape != (self.dim, self.dim):
                raise AlgebraError("generator shape mismatch")

    def closed_generators(self) -> list[np.ndarray]:
        """Generators with identity and adjoints adjoined."""
        out = [np.eye(self.dim, dtype=complex)]
        for g in self.generators:
            out.append(g.astype(complex))
            out.append(g.conj().T.astype(complex))
        return out


@dataclass
class Block:
    irrep_dim: int        # d_i
    multiplicity: int     # m_i
    isometry: np.ndarray  # dim x (d_i * m_i), columns ordered (irrep, copy)


@dataclass
class AlgebraDecomposition:
    dim: int
    blocks: list[Block]

    @property
    def algebra_dim(self) -> int:
        return sum(b.irrep_dim**2 for b in self.blocks)

    @property
    def commutant_dim(self) -> int:
        return sum(b.multiplicity**2 for b in self.blocks)

    def check_dimensions(self) -> bool:
        return sum(b.irrep_dim * b.multiplicity for b in self.blocks) == self.dim


def _orthonormal_span(mats: list[np.ndarray], tol: float = CLOSURE_TOL):
    """Orthonormal basis (as matrices) of the span, via SVD of flattenings."""
    if not mats:
        return []
    dim = mats[0].shape[0]
    stack = np.stack([m.reshape(-1) for m in mats])
    u, s, vh = np.linalg.svd(stack, full_matrices=False)
    keep = s > tol * max(1.0, s[0])
    return [vh[i].reshape(dim, dim) for i in range(len(s)) if keep[i]]


def algebra_closure(ops: OperatorSet) -> list[np.ndarray]:
    """Orthonormal basis of the associative algebra generated by ops.

    Iterates products against the current basis until the span stops
    growing; includes the identity and is adjoint-closed by construction.
    """
    basis = _orthonormal_span(ops.closed_generators())
    while True:
        products = list(basis)
        for a in basis:
            for b in basis:
                products.append(a @ b)
        new_basis = _orthonormal_span(products)
        if len(new_basis) == len(basis):
            return new_basis
        if len(new_basis) > ops.dim**2:
            raise AlgebraError("closure exceeded the full matrix algebra")
        basis = new_basis


def commutant(basis: list[np.ndarray]) -> list[np.ndarray]:
    """Orthonormal basis of all operators commuting with the given algebra.

    Null space of the stacked commutator constraints; practical up to
    dim ~ 24 (operator space dim^2 columns in a dense SVD).
    """
    dim = basis[0].shape[0]
    if dim > 24:
        raise AlgebraError("explicit commutant basis limited to dim <= 24")
    eye = np.eye(dim)
    rows = []
    for b in basis:
        rows.append(np.kron(eye, b) - np.kron(b.T, eye))
    constraint = np.concatenate(rows, axis=0)
    _, s, vh = np.linalg.svd(constraint, full_matrices=True)
    null_dim = int(np.count_nonzero(s < CLOSURE_TOL * max(1.0, s[0])))
    null_dim += vh.shape[0] - len(s)
    vecs = vh[vh.shape[0] - null_dim :]
    return [v.reshape(dim, dim) for v in vecs]


def _center_basis(basis: list[np.ndarray]) -> list[np.ndarray]:
    """Basis of the center: algebra elements commuting with the whole basis."""
    k = len(basis)
    gram = np.zeros((k, k), dtype=complex)
    for b in basis:
        comms = [x @ b - b @ x for x in basis]
        flat = np.stack([c.reshape(-1) for c in comms])
        gram += flat.conj() @ flat.T
    evals, evecs = np.linalg.eigh(gram)
    scale = max(1.0, float(evals[-1].real)) if k else 1.0
    center = []
    for i in range(k):
        if evals[i].real < CLOSURE_TOL**2 * scale:
            center.append(sum(evecs[j, i] * basis[j] for j in range(k)))
    return center


def _cluster(values: np.ndarray) -> list[np.ndarray]:
    """Group sorted eigenvalues into clusters; ambiguous gaps are an error."""
    order = np.argsort(values)
    clusters = [[order[0]]]
    for prev, cur in zip(order[:-1], order[1:]):
        gap = values[cur] - values[prev]
        if gap < CLUSTER_TOL:
            clusters[-1].append(cur)
        elif gap < CLUSTER_AMBIGUOUS:
            raise AlgebraError(
                f"central spectrum gap {gap:.2e} is numerically ambiguous"
            )
        else:
            clusters.append([cur])
    return [np.array(c) for c in clusters]


def decompose(ops: OperatorSet, seed: int = 2024) -> AlgebraDecomposition:
    """Isotypic block decomposition via a random Hermitian central element.

    Deterministic given seed.  Each spectral cluster of the central element
    is one isotypic block; within a block, d_i follows from the dimension of
    the restricted algebra and the inner tensor factorization is built from
    the eigenspaces of a random Hermitian algebra element.
    """
    rng = np.random.default_rng(seed)
    basis = algebra_closure(ops)
    center = _center_basis(basis)
    dim = ops.dim
    z = np.zeros((dim, dim), dtype=complex)
    for c in center:
        z += rng.normal() * (c + c.conj().T)
        z += rng.normal() * 1j * (c - c.conj().T)
    evals, evecs = np.linalg.eigh(z)
    blocks = []
    for idx in _cluster(evals):
        q = evecs[:, idx]  # dim x D isometry onto the isotypic block
        d_block = q.shape[1]
        restricted = [q.conj().T @ b @ q for b in basis]
        alg_dim = len(_orthonormal_span(restricted))
        d_i = int(round(np.sqrt(alg_dim)))
        if d_i * d_i != alg_dim or d_block % d_i != 0:
            raise AlgebraError(
                f"restricted algebra dimension {alg_dim} is not a perfect "
                f"square dividing the block"
            )
        m_i = d_block // d_i
        q_aligned = _align_block(restricted, q, d_i, m_i, rng)
        blocks.append(Block(irrep_dim=d_i, multiplicity=m_i, isometry=q_aligned))
    blocks.sort(key=lambda b: (-b.irrep_dim, -b.multiplicity))
    dec = AlgebraDecomposition(dim=dim, blocks=blocks)
    if not dec.check_dimensions():
        raise AlgebraError("block dimensions do not add up to the space")
    return dec


def _align_block(
    restricted: list[np.ndarray], q: np.ndarray, d: int, m: int, rng
) -> np.ndarray:
    """Rotate the block isometry so the restricted algebra is Mat(d) (x) I_m.

    Uses eigenspaces of a random Hermitian algebra element (each eigenvalue
    has multiplicity m) and a second element to intertwine the copies.
    """
    if d == 1:
        return q
    D = d * m
    for attempt in range(8):
        a = np.zeros((D, D), dtype=complex)
        for r in restricted:
            coef = rng.normal()
            a += coef * r + coef * r.conj().T
        evals, evecs = np.linalg.eigh(a)
        # need d distinct eigenvalues, each with multiplicity m
        try:
            clusters = _cluster(evals)
        except AlgebraError:
            continue
        if len(clusters) != d or any(len(c) != m for c in clusters):
            continue
        b = np.zeros((D, D), dtype=complex)
        for r in restricted:
            coef = rng.normal()
            b += coef * r + coef * r.conj().T
        ref = evecs[:, clusters[0]]  # basis of the first eigenspace, D x m
        cols = []
        ok = True
        for c_idx in clusters:
            space = evecs[:, c_idx]
            if c_idx is clusters[0]:
                cols.append(ref)
                continue
            t = space @ (space.conj().T @ b @ ref)  # map copies of eigsp 1
            # t should be (scalar) x unitary from ref-coords; normalize
            norm = np.linalg.norm(t) / np.sqrt(m)
            if norm < 1e-10:
                ok = False
                break
            cols.append(t / norm)
        if not ok:
            continue
        rot = np.concatenate(cols, axis=1)  # D x D, ordered (irrep idx, copy)
        if np.linalg.norm(rot.conj().T @ rot - np.eye(D)) > 1e-8:
            continue
        return q @ rot
    raise AlgebraError("failed to align block factorization (degenerate draws)")


@dataclass
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


def block_diagonal_residual(dec: AlgebraDecomposition, ops: OperatorSet) -> float:
    """Largest off-block matrix element of the generators in the found basis."""
    u = np.concatenate([b.isometry for b in dec.blocks], axis=1)
    worst = 0.0
    for g in ops.closed_generators():
        rot = u.conj().T @ g @ u
        offset = 0
        mask = np.ones_like(rot, dtype=bool)
        for b in dec.blocks:
            size = b.irrep_dim * b.multiplicity
            mask[offset : offset + size, offset : offset + size] = False
            offset += size
        worst = max(worst, float(np.abs(rot[mask]).max()) if mask.any() else 0.0)
    return worst


def collective_noise_generators(n_qubits: int) -> OperatorSet:
    """Collective spin operators S_x, S_y, S_z on n qubits."""
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
