"""Concrete stabilizer codes and their machinery.

Provides the 5-qubit perfect code, toric codes on an LxL torus, dense
codeword construction, the Knill-Laflamme pairwise correctability check,
syndrome lookup tables, exact Clifford decoder synthesis, and the
tile-Hamiltonian built from the check operators.
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from functools import cached_property
from types import MappingProxyType

from ._numpy import np

from .pauli import (
    Pauli,
    PauliError,
    StabilizerGroup,
    _pack,
    _rref,
    commutes,
    contains,
    gf2_rank,
    inverse,
    multiply,
    stabilizer_entropy,
)


class CodeError(ValueError):
    """Raised on inconsistent code definitions or unsupported queries."""


@dataclass(frozen=True)
class StabilizerCode:
    """An [[n, k]] stabilizer code with logical operators and recovery table.

    recovery_table maps syndrome bit tuples to correction Paulis; it always
    contains the zero syndrome -> identity, and is complete only when the
    syndrome space is small enough to tabulate (see build_recovery_table).
    The code is frozen and the table a read-only copy, so the cached
    action_table stays this code's; derive variants with dataclasses.replace.
    """

    n: int
    k: int
    stabilizer: StabilizerGroup
    logical_x: tuple[Pauli, ...]
    logical_z: tuple[Pauli, ...]
    recovery_table: Mapping[tuple[int, ...], Pauli] = field(default_factory=dict)

    def __post_init__(self):
        if len(self.stabilizer.generators) != self.n - self.k:
            raise CodeError("expected n-k independent stabilizer generators")
        table = dict(self.recovery_table) or {
            (0,) * (self.n - self.k): Pauli.identity(self.n)
        }
        object.__setattr__(self, "logical_x", tuple(self.logical_x))
        object.__setattr__(self, "logical_z", tuple(self.logical_z))
        object.__setattr__(self, "recovery_table", MappingProxyType(table))

    @cached_property
    def action_table(self):
        """The logical action of lookup recovery (channel.LogicalActionTable),
        built on first use."""
        from . import channel  # channel imports this module

        return channel.LogicalActionTable.build(self)

    def validate(self) -> None:
        """Check generator independence, commutation, and logical pairing."""
        self.stabilizer.check_commuting()
        if gf2_rank([g.row for g in self.stabilizer.generators]) != self.n - self.k:
            raise CodeError("stabilizer generators are not independent")
        for i, (lx, lz) in enumerate(zip(self.logical_x, self.logical_z)):
            if commutes(lx, lz):
                raise CodeError(f"logical X/Z pair {i} must anticommute")
            for g in self.stabilizer.generators:
                if not (commutes(lx, g) and commutes(lz, g)):
                    raise CodeError(f"logical pair {i} fails to commute with checks")
        for i in range(self.k):
            for j in range(self.k):
                if i == j:
                    continue
                if not commutes(self.logical_x[i], self.logical_z[j]):
                    raise CodeError("cross logical pairs must commute")

    def syndrome(self, error: Pauli) -> tuple[int, ...]:
        return tuple(
            0 if commutes(error, g) else 1 for g in self.stabilizer.generators
        )

    def recover(self, error: Pauli) -> Pauli:
        """Residual Pauli after table lookup recovery, recovery * error."""
        s = self.syndrome(error)
        try:
            correction = self.recovery_table[s]
        except KeyError:
            raise CodeError(f"no recovery entry for syndrome {s}") from None
        return multiply(correction, error)

    def logical_class(self, residual: Pauli) -> str:
        """Classify a syndrome-free Pauli as logical I, X, Y or Z (k=1 only)."""
        if self.k != 1:
            raise CodeError("logical_class requires k=1")
        if any(self.syndrome(residual)):
            raise CodeError(f"{residual} carries a nonzero syndrome")
        return "IXYZ"[_logical_class_index(self, residual)]

    def to_json(self) -> str:
        doc = {
            "n": self.n,
            "k": self.k,
            "generators": [g.to_string() for g in self.stabilizer.generators],
            "logical_x": [p.to_string() for p in self.logical_x],
            "logical_z": [p.to_string() for p in self.logical_z],
            "recovery": {
                "".join(map(str, s)): p.to_string()
                for s, p in sorted(self.recovery_table.items())
            },
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "StabilizerCode":
        doc = json.loads(text)
        return cls(
            n=doc["n"],
            k=doc["k"],
            stabilizer=StabilizerGroup(
                doc["n"], [Pauli.from_string(s) for s in doc["generators"]]
            ),
            logical_x=[Pauli.from_string(s) for s in doc["logical_x"]],
            logical_z=[Pauli.from_string(s) for s in doc["logical_z"]],
            recovery_table={
                tuple(int(c) for c in s): Pauli.from_string(p)
                for s, p in doc["recovery"].items()
            },
        )


def _logical_class_index(code: StabilizerCode, p: Pauli) -> int:
    """Logical class 0..3 (I, X, Y, Z) of a syndrome-free residual p of a
    k=1 code.

    A residual is Xbar^a Zbar^b times a stabilizer, so a is its symplectic
    pairing with Zbar and b its pairing with Xbar; a ^ 3b maps (0, 0),
    (1, 0), (1, 1), (0, 1) to 0, 1, 2, 3.  The index is linear over GF(2):
    the index of a product is the XOR of the indices of its factors.
    """
    lx, lz = code.logical_x[0], code.logical_z[0]
    a = ((p.x & lz.z) ^ (p.z & lz.x)).bit_count() & 1
    b = ((p.x & lx.z) ^ (p.z & lx.x)).bit_count() & 1
    return a ^ 3 * b


def _supports_by_weight(n: int):
    """(positions, letters) of every n-qubit Pauli without phase, by
    increasing weight and in text order within a weight."""
    for w in range(n + 1):
        for positions in itertools.combinations(range(n), w):
            for letters in itertools.product("XYZ", repeat=w):
                yield positions, letters


def build_recovery_table(code: StabilizerCode) -> dict[tuple[int, ...], Pauli]:
    """Minimum-weight coset-leader table, ties broken lexicographically.

    Enumerates Paulis by increasing weight (text order within a weight) and
    keeps the first representative seen for each syndrome, stopping once
    every syndrome has one.  A candidate's syndrome, packed into an int with
    generator 0 at the most significant bit, is the XOR of the syndromes of
    its single-qubit letters; a Pauli is built only for the entries kept.
    """
    n, r = code.n, code.n - code.k
    # flips[q][c]: packed syndrome of the letter c on qubit q alone
    flips = [
        {c: _pack(code.syndrome(Pauli.from_string("I" * q + c + "I" * (n - 1 - q))))
         for c in "XYZ"}
        for q in range(n)
    ]
    leaders: dict[int, str] = {}
    for positions, letters in _supports_by_weight(code.n):
        s = 0
        for q, c in zip(positions, letters):
            s ^= flips[q][c]
        if s not in leaders:
            chars = ["I"] * code.n
            for q, c in zip(positions, letters):
                chars[q] = c
            leaders[s] = "".join(chars)
            if len(leaders) == 2**r:
                break
    return {
        tuple(s >> k & 1 for k in range(r - 1, -1, -1)): Pauli.from_string(text)
        for s, text in leaders.items()
    }


def _small_code(checks: tuple[str, ...]) -> StabilizerCode:
    """The k=1 code of the check strings, with transversal X^n / Z^n
    logicals and its minimum-weight recovery table."""
    n = len(checks[0])
    code = StabilizerCode(
        n=n,
        k=1,
        stabilizer=StabilizerGroup(n, [Pauli.from_string(s) for s in checks]),
        logical_x=[Pauli.from_string("X" * n)],
        logical_z=[Pauli.from_string("Z" * n)],
    )
    return replace(code, recovery_table=build_recovery_table(code))


def five_qubit_code() -> StabilizerCode:
    """The [[5,1,3]] perfect code with its standard check operators."""
    return _small_code(("ZZXIX", "XZZXI", "IXZZX", "XIXZZ"))


def trivial_code() -> StabilizerCode:
    """[[1,1]] identity encoding; useful as a base case."""
    return StabilizerCode(
        n=1,
        k=1,
        stabilizer=StabilizerGroup(1, []),
        logical_x=[Pauli.from_string("X")],
        logical_z=[Pauli.from_string("Z")],
    )


def steane_code() -> StabilizerCode:
    """The [[7,1,3]] CSS code (optional constructor, same interface)."""
    return _small_code(
        ("IIIXXXX", "IXXIIXX", "XIXIXIX", "IIIZZZZ", "IZZIIZZ", "ZIZIZIZ")
    )


def shor_code() -> StabilizerCode:
    """The [[9,1,3]] code (optional constructor, same interface)."""
    return _small_code((
        "ZZIIIIIII", "IZZIIIIII", "IIIZZIIII", "IIIIZZIII",
        "IIIIIIZZI", "IIIIIIIZZ", "XXXXXXIII", "IIIXXXXXX",
    ))


# Amplitudes below this are rounding: a stabilizer state's nonzero
# amplitudes have modulus 2^(-r/2) with r <= n <= 12, so at least 2^-6,
# while projecting leaves ~1e-15 where the state vanishes.
_AMPLITUDE_ATOL = 1e-9


def _joint_eigenvector(n: int, ops) -> np.ndarray:
    """The one joint +1 eigenvector of commuting Paulis: a seeded generic
    vector projected by each (1+P)/2, so no component vanishes by accident,
    normalized, its first nonzero amplitude made positive real."""
    rng = np.random.default_rng(0)
    vec = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    for g in ops:
        vec = 0.5 * (vec + g.apply(vec))
    norm = np.linalg.norm(vec)
    if norm < _AMPLITUDE_ATOL:
        raise CodeError("the operators have no joint +1 eigenvector")
    vec = vec / norm
    lead = vec[np.flatnonzero(np.abs(vec) > _AMPLITUDE_ATOL)[0]]
    return vec * (abs(lead) / lead)


def encode_zero(code: StabilizerCode) -> np.ndarray:
    """Dense logical-|0> amplitude vector: the joint +1 eigenvector of the
    checks and Zbar, its first nonzero amplitude positive real."""
    if code.n > 12:
        raise CodeError("dense codewords limited to n <= 12")
    if code.k != 1:
        raise CodeError("encode_zero requires k=1")
    return _joint_eigenvector(code.n, (*code.stabilizer.generators, code.logical_z[0]))


def encode_one(code: StabilizerCode) -> np.ndarray:
    zero = encode_zero(code)
    return code.logical_x[0].apply(zero)


def check_correctable(
    code: StabilizerCode, errors: list[Pauli]
) -> tuple[bool, tuple[Pauli, Pauli] | None]:
    """Pairwise correctability criterion.

    The error set is correctable iff for every pair (Ea, Eb) the product
    Ea^dag Eb is either in the stabilizer group or anticommutes with some
    stabilizer generator.  Returns (ok, witness_pair_or_None).
    """
    for i, ea in enumerate(errors):
        for eb in errors[i:]:
            prod = multiply(inverse(ea), eb)
            if any(not commutes(prod, g) for g in code.stabilizer.generators):
                continue
            status, _ = contains(code.stabilizer, prod)
            if status == "not_member":
                return False, (ea, eb)
    return True, None


@dataclass(frozen=True)
class CliffordDecoder:
    """A Clifford map taking the code frame to the decoded frame.

    Stored as the images of single-qubit X_j / Z_j under conjugation by the
    decoding unitary U, plus the symplectic frame data needed to build U
    densely: U maps encoded states to (data qubit) x |0...0> on n-1 ancillas.
    The decoder is frozen and its fields are tuples.
    """

    n: int
    image_x: tuple[Pauli, ...]
    image_z: tuple[Pauli, ...]
    frame_in: tuple[Pauli, ...]   # Xbar, Zbar, M_1.., D_1.. on the code side
    frame_out: tuple[Pauli, ...]  # X1, Z1, Z_2.., X_2.. on the decoded side

    def __post_init__(self):
        for name in ("image_x", "image_z", "frame_in", "frame_out"):
            object.__setattr__(self, name, tuple(getattr(self, name)))

    def conjugate(self, p: Pauli) -> Pauli:
        """Exact image U p U^dag, phases included: the factors of
        p = i^e prod_j X_j^{x_j} Z_j^{z_j} multiply with no sign, so the
        image is i^e times the product of their images."""
        if p.n != self.n:
            raise PauliError("length mismatch")
        n = self.n
        out = Pauli.identity(n)
        for j in range(n):
            bit = 1 << (n - 1 - j)
            if p.x & bit:
                out = multiply(out, self.image_x[j])
            if p.z & bit:
                out = multiply(out, self.image_z[j])
        return Pauli.packed(n, out.x, out.z, out.phase_exp + p.phase_exp)

    def to_matrix(self) -> np.ndarray:
        """Dense unitary (n <= 12), mapping code frame to product frame.

        Column b of U^dag is the image of |b>: the x-like frame members
        (Xbar, D_i) of b's set bits applied to the joint +1 eigenvector of
        the z-like ones (Zbar, M_i), the image of |0...0>."""
        if self.n > 12:
            raise CodeError("dense decoder limited to n <= 12")
        n, m = self.n, self.n - 1
        z_like = (self.frame_in[1], *self.frame_in[2 : 2 + m])
        x_like = (self.frame_in[0], *self.frame_in[2 + m :])
        vec = _joint_eigenvector(n, z_like)
        cols = np.zeros((2**n, 2**n), dtype=complex)
        for b in range(2**n):
            state = vec
            for j in range(n):
                if b >> (n - 1 - j) & 1:
                    state = x_like[j].apply(state)
            cols[:, b] = state
        return cols.conj().T


def _solve_gf2(rows: list[int], b) -> int | None:
    """One solution x of A x = b over GF(2), or None.

    The rows of A are packed ints (column 0 at the most significant bit),
    b holds one bit per row, and x comes back packed like a row.  Takes the
    RREF of [A|b]: the system is inconsistent when a pivot lands in the b
    column.  Free variables are 0 and each pivot variable is its row's b
    bit, so the solution is fixed by the RREF.  A pivot in column j of A is
    bit ncols - j of the augmented row, so its variable is bit ncols-1-j of
    x: one below the pivot bit.
    """
    x = 0
    for row, _ in _rref([r << 1 | bit & 1 for r, bit in zip(rows, b)])[0]:
        if row == 1:
            return None
        x |= (row & 1) << (row.bit_length() - 2)
    return x


def _destabilizers(code: StabilizerCode) -> list[Pauli]:
    """Hermitian D_i with <D_i, M_j> = delta_ij, commuting with logicals and
    with each other; completes the symplectic frame."""
    n = code.n
    gens = code.stabilizer.generators
    found: list[Pauli] = []
    for i in range(len(gens)):
        ops = [*gens, *code.logical_x, *code.logical_z, *found]
        # [z|x] rows, so that row . [x_d|z_d] is the symplectic form with d
        rows = [p.z << n | p.x for p in ops]
        sol = _solve_gf2(rows, [j == i for j in range(len(ops))])
        if sol is None:
            raise CodeError("destabilizer synthesis failed: inconsistent generators")
        found.append(Pauli.packed(n, sol >> n, sol & ((1 << n) - 1)).hermitian_phase())
    return found


def synthesize_decoder(code: StabilizerCode) -> CliffordDecoder:
    """Clifford taking M_i -> Z_{i+1}, Xbar -> X_1, Zbar -> Z_1 exactly.

    The frame pairs (Xbar, Zbar) and (M_i, D_i) are symplectic: a pair
    anticommutes and all else commutes.  So X_j or Z_j is, up to phase, the
    product of the frame members whose partner anticommutes with it; its
    image is the product of the matching decoded-side members, with the
    phase that makes the code-side product equal X_j or Z_j.
    """
    if code.k != 1:
        raise CodeError("decoder synthesis requires k=1")
    n = code.n
    gens = code.stabilizer.generators
    dests = _destabilizers(code)
    frame_in = [code.logical_x[0], code.logical_z[0], *gens, *dests]
    partners = [code.logical_z[0], code.logical_x[0], *dests, *gens]
    xs = [Pauli.packed(n, 1 << (n - 1 - j), 0) for j in range(n)]
    zs = [Pauli.packed(n, 0, 1 << (n - 1 - j)) for j in range(n)]
    frame_out = [xs[0], zs[0], *zs[1:], *xs[1:]]
    images: list[Pauli] = []
    for target in (*xs, *zs):
        code_side = image = Pauli.identity(n)
        for pin, partner, pout in zip(frame_in, partners, frame_out):
            if not commutes(target, partner):
                code_side = multiply(code_side, pin)
                image = multiply(image, pout)
        if (code_side.x, code_side.z) != (target.x, target.z):
            raise CodeError("frame does not span the Pauli group")
        phase = image.phase_exp - code_side.phase_exp
        images.append(Pauli.packed(n, image.x, image.z, phase))
    return CliffordDecoder(n, images[:n], images[n:], frame_in, frame_out)


# ---------------------------------------------------------------------------
# Toric codes


def toric_edge_index(L: int, kind: str, x: int, y: int) -> int:
    """Edge numbering on the LxL torus: horizontal edges first (y*L+x),
    then vertical edges offset by L^2."""
    x %= L
    y %= L
    base = y * L + x
    return base if kind == "h" else L * L + base


def _edge_bits(L: int, edges) -> int:
    """Packed bits (edge 0 most significant) of the edges, each one toggled."""
    out = 0
    for idx in edges:
        out ^= 1 << (2 * L * L - 1 - idx)
    return out


def toric_site_generator(L: int, x: int, y: int) -> Pauli:
    """X on the 4 edges incident to vertex (x, y)."""
    e = toric_edge_index
    edges = (e(L, "h", x, y), e(L, "h", x - 1, y), e(L, "v", x, y), e(L, "v", x, y - 1))
    return Pauli.packed(2 * L * L, _edge_bits(L, edges), 0)


def toric_plaquette_generator(L: int, x: int, y: int) -> Pauli:
    """Z on the 4 boundary edges of the face whose lower-left vertex is (x, y)."""
    e = toric_edge_index
    edges = (e(L, "h", x, y), e(L, "h", x, y + 1), e(L, "v", x, y), e(L, "v", x + 1, y))
    return Pauli.packed(2 * L * L, 0, _edge_bits(L, edges))


def toric_code(L: int) -> StabilizerCode:
    """Toric code on 2L^2 edge qubits, k=2.

    The independent generating set drops the site and plaquette at
    (L-1, L-1); the full translation-invariant families are available via
    toric_site_generator / toric_plaquette_generator.
    """
    if L < 2:
        raise CodeError("toric code needs L >= 2")
    n = 2 * L * L
    gens = []
    for y in range(L):
        for x in range(L):
            if (x, y) != (L - 1, L - 1):
                gens.append(toric_site_generator(L, x, y))
    for y in range(L):
        for x in range(L):
            if (x, y) != (L - 1, L - 1):
                gens.append(toric_plaquette_generator(L, x, y))

    def row(kind: str) -> int:  # the kind's edges along y = 0
        return _edge_bits(L, [toric_edge_index(L, kind, t, 0) for t in range(L)])

    def col(kind: str) -> int:  # the kind's edges along x = 0
        return _edge_bits(L, [toric_edge_index(L, kind, 0, t) for t in range(L)])

    return StabilizerCode(
        n=n,
        k=2,
        stabilizer=StabilizerGroup(n, gens),
        logical_x=[Pauli.packed(n, col("h"), 0), Pauli.packed(n, row("v"), 0)],
        logical_z=[Pauli.packed(n, 0, row("h")), Pauli.packed(n, 0, col("v"))],
    )


# ---------------------------------------------------------------------------
# Tile Hamiltonian


@dataclass
class TileHamiltonian:
    """H = -sum_i K_i M_i over pairwise-commuting check operators, K_i > 0."""

    couplings: list[float]
    terms: list[Pauli]

    def __post_init__(self):
        if len(self.couplings) != len(self.terms):
            raise CodeError("one coupling per term required")
        if any(k <= 0 for k in self.couplings):
            raise CodeError("couplings must be positive")
        for i in range(len(self.terms)):
            for j in range(i + 1, len(self.terms)):
                if not commutes(self.terms[i], self.terms[j]):
                    raise CodeError("tile-Hamiltonian terms must commute")


def tile_hamiltonian_spectrum(
    h: TileHamiltonian, atol: float = 1e-10
) -> tuple[float, int]:
    """(ground energy, ground-space dimension) by dense diagonalization."""
    if not h.terms:
        raise CodeError("empty tile-Hamiltonian")
    n = h.terms[0].n
    if n > 12:
        raise CodeError("dense spectrum limited to n <= 12")
    mat = np.zeros((2**n, 2**n), dtype=complex)
    for k, m in zip(h.couplings, h.terms):
        mat -= k * m.to_matrix()
    evals = np.linalg.eigvalsh(mat)
    ground = float(evals[0])
    degeneracy = int(np.count_nonzero(evals < ground + atol))
    return ground, degeneracy


def reduced_state_entropy(code: StabilizerCode, region: list[int]) -> int:
    """Entanglement entropy (bits) of a region of the logical-|0> codeword."""
    gens = code.stabilizer.generators + code.logical_z
    return stabilizer_entropy(code.n, gens, region)
