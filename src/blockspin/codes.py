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


def encode_zero(code: StabilizerCode) -> np.ndarray:
    """Dense logical-|0> amplitude vector via the stabilizer projector.

    Applies prod (1+M_i)/2 then (1+Zbar)/2 to |0...0>, normalizes, and fixes
    the global phase so the first nonzero amplitude (the all-zeros component
    when present) is positive real.
    """
    if code.n > 12:
        raise CodeError("dense codewords limited to n <= 12")
    if code.k != 1:
        raise CodeError("encode_zero requires k=1")
    vec = np.zeros(2**code.n, dtype=complex)
    vec[0] = 1.0
    for g in (*code.stabilizer.generators, code.logical_z[0]):
        vec = 0.5 * (vec + g.apply(vec))
    norm = np.linalg.norm(vec)
    if norm < 1e-12:
        raise CodeError("projector annihilates |0...0>")
    vec = vec / norm
    lead = vec[np.flatnonzero(np.abs(vec) > 1e-12)[0]]
    vec = vec * (abs(lead) / lead)
    return vec


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


@dataclass
class CliffordDecoder:
    """A Clifford map taking the code frame to the decoded frame.

    Stored as the images of single-qubit X_j / Z_j under conjugation by the
    decoding unitary U, plus the symplectic frame data needed to build U
    densely: U maps encoded states to (data qubit) x |0...0> on n-1 ancillas.
    """

    n: int
    image_x: list[Pauli]
    image_z: list[Pauli]
    frame_in: list[Pauli]   # Xbar, Zbar, M_1.., D_1.. on the code side
    frame_out: list[Pauli]  # X1, Z1, Z_2.., X_2.. on the decoded side

    def conjugate(self, p: Pauli) -> Pauli:
        """Exact image U p U^dag, phases included."""
        if p.n != self.n:
            raise PauliError("length mismatch")
        n = self.n
        out = Pauli.identity(n)
        rebuilt = Pauli.identity(n)
        for j in range(n):
            bit = 1 << (n - 1 - j)
            if p.x & bit:
                out = multiply(out, self.image_x[j])
                rebuilt = multiply(rebuilt, Pauli.packed(n, bit, 0))
            if p.z & bit:
                out = multiply(out, self.image_z[j])
                rebuilt = multiply(rebuilt, Pauli.packed(n, 0, bit))
        # p = i^delta * rebuilt; carry the residual phase over.
        delta = p.phase_exp - rebuilt.phase_exp
        return Pauli.packed(n, out.x, out.z, out.phase_exp + delta)

    def to_matrix(self) -> np.ndarray:
        """Dense unitary (n <= 12), mapping code frame to product frame."""
        if self.n > 12:
            raise CodeError("dense decoder limited to n <= 12")
        return _frame_unitary(self.n, self.frame_in, self.frame_out)


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


def _frame_unitary(
    n: int, frame_in: list[Pauli], frame_out: list[Pauli]
) -> np.ndarray:
    """Dense U with U P_in U^dag = P_out for each symplectic frame pair.

    frame layout: [Xbar-like ops (k of them are at the front paired with
    Zbar-like), ...] -- here concretely [X_L, Z_L, M_1..M_{n-1}, D_1..D_{n-1}]
    mapped to [X_1, Z_1, Z_2..Z_n, X_2..X_n].
    """
    dim = 2**n
    m = (len(frame_in) - 2) // 2
    z_like_in = [frame_in[1]] + frame_in[2 : 2 + m]
    x_like_in = [frame_in[0]] + frame_in[2 + m :]
    # Joint +1 eigenvector of the commuting z-like family = image of |0..0>.
    vec = np.zeros(dim, dtype=complex)
    rng_seed = np.random.default_rng(0)
    # project a generic vector to avoid an accidental zero component
    vec = rng_seed.normal(size=dim) + 1j * rng_seed.normal(size=dim)
    for g in z_like_in:
        vec = 0.5 * (vec + g.apply(vec))
    norm = np.linalg.norm(vec)
    if norm < 1e-9:
        raise CodeError("frame synthesis failed: empty joint eigenspace")
    vec /= norm
    lead = vec[np.flatnonzero(np.abs(vec) > 1e-9)[0]]
    vec *= abs(lead) / lead
    cols = np.zeros((dim, dim), dtype=complex)
    for basis_index in range(dim):
        state = vec
        for bitpos in range(n):
            if (basis_index >> (n - 1 - bitpos)) & 1:
                state = x_like_in[bitpos].apply(state)
        cols[:, basis_index] = state
    # U maps frame_in basis states onto computational basis states.
    return cols.conj().T


def synthesize_decoder(code: StabilizerCode) -> CliffordDecoder:
    """Clifford taking M_i -> Z_{i+1}, Xbar -> X_1, Zbar -> Z_1 exactly."""
    if code.k != 1:
        raise CodeError("decoder synthesis requires k=1")
    n = code.n
    gens = code.stabilizer.generators
    dests = _destabilizers(code)
    frame_in = [code.logical_x[0], code.logical_z[0], *gens, *dests]
    frame_out = (
        [Pauli.from_string("X" + "I" * (n - 1)), Pauli.from_string("Z" + "I" * (n - 1))]
        + [
            Pauli.from_string("I" * (i + 1) + "Z" + "I" * (n - i - 2))
            for i in range(n - 1)
        ]
        + [
            Pauli.from_string("I" * (i + 1) + "X" + "I" * (n - i - 2))
            for i in range(n - 1)
        ]
    )
    m = len(frame_in)
    # the matrix whose columns are the frame's [x|z] rows, row by row
    basis_cols = [
        _pack(f.row >> k & 1 for f in frame_in) for k in range(2 * n - 1, -1, -1)
    ]
    images: list[Pauli] = []
    # the targets X_0..X_{n-1}, Z_0..Z_{n-1}, all with phase 0
    for target in range(2 * n):
        coeffs = _solve_gf2(basis_cols, [k == target for k in range(2 * n)])
        if coeffs is None:
            raise CodeError("frame does not span the Pauli group")
        rebuilt = Pauli.identity(n)
        image = Pauli.identity(n)
        for j, (pin, pout) in enumerate(zip(frame_in, frame_out)):
            if coeffs >> (m - 1 - j) & 1:
                rebuilt = multiply(rebuilt, pin)
                image = multiply(image, pout)
        images.append(
            Pauli.packed(n, image.x, image.z, image.phase_exp - rebuilt.phase_exp)
        )
    return CliffordDecoder(
        n=n,
        image_x=images[:n],
        image_z=images[n:],
        frame_in=frame_in,
        frame_out=frame_out,
    )


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
