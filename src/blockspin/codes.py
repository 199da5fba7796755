"""Concrete stabilizer codes and their machinery.

Provides the 5-qubit perfect code, toric codes on an LxL torus, dense
logical-|0> construction, the Knill-Laflamme pairwise correctability check,
syndrome lookup tables, and the tile-Hamiltonian built from the check
operators.
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Mapping
from functools import cached_property
from types import MappingProxyType

from ._numpy import np
from ._value import frozen, replace

from .pauli import (
    DENSE_QUBIT_CAP,
    Pauli,
    StabilizerGroup,
    commutes,
    contains,
    gf2_rank,
    inverse,
    multiply,
)


class CodeError(ValueError):
    """Raised on inconsistent code definitions or unsupported queries."""


@frozen
class StabilizerCode:
    """An [[n, k]] stabilizer code with logical operators and recovery table.

    A syndrome is an int of r = n - k bits, one per check, generator 0 at
    the most significant bit; to_dict writes it as an r-digit bit string.
    recovery_table maps syndromes to correction Paulis, the zero syndrome to
    the identity unless given otherwise; it is complete only when the
    syndrome space is small enough to tabulate (see build_recovery_table).
    The code is frozen and the table a read-only copy, so the cached
    action_table stays this code's; derive variants with _value.replace.
    """

    n: int
    k: int
    stabilizer: StabilizerGroup
    logical_x: tuple[Pauli, ...]
    logical_z: tuple[Pauli, ...]
    recovery_table: Mapping[int, Pauli] = MappingProxyType({})

    def __post_init__(self):
        if len(self.stabilizer.generators) != self.n - self.k:
            raise CodeError("expected n-k independent stabilizer generators")
        table = {0: Pauli.identity(self.n), **self.recovery_table}
        object.__setattr__(self, "logical_x", tuple(self.logical_x))
        object.__setattr__(self, "logical_z", tuple(self.logical_z))
        object.__setattr__(self, "recovery_table", MappingProxyType(table))

    @cached_property
    def action_table(self):
        """The signature table and lookup recovery's logical action
        (channel.LogicalActionTable), built on first use."""
        from . import channel  # channel imports this module

        return channel.LogicalActionTable.build(self)

    def validate(self) -> None:
        """Check generator independence, commutation, and logical pairing."""
        self.stabilizer.check_commuting()
        if gf2_rank([g.row for g in self.stabilizer.generators]) != self.n - self.k:
            raise CodeError("stabilizer generators are not independent")
        pairs = list(zip(self.logical_x, self.logical_z))
        for i, (lx, lz) in enumerate(pairs):
            if commutes(lx, lz):
                raise CodeError(f"logical X/Z pair {i} must anticommute")
            for g in self.stabilizer.generators:
                if not (commutes(lx, g) and commutes(lz, g)):
                    raise CodeError(f"logical pair {i} fails to commute with checks")
            for j, earlier in enumerate(pairs[:i]):
                if not all(commutes(p, q) for p in (lx, lz) for q in earlier):
                    raise CodeError(f"logical pairs {j} and {i} must commute")

    def syndrome(self, error: Pauli) -> int:
        """One bit per check, set iff error anticommutes with it; generator 0 on top."""
        s = 0
        for g in self.stabilizer.generators:
            s = s << 1 | (not commutes(error, g))
        return s

    def recover(self, error: Pauli) -> Pauli:
        """Residual Pauli after table lookup recovery, recovery * error."""
        s = self.syndrome(error)
        try:
            correction = self.recovery_table[s]
        except KeyError:
            r = self.n - self.k
            defects = [i for i in range(r) if s >> (r - 1 - i) & 1]
            raise CodeError(
                f"no recovery entry for syndrome with defects at checks {defects}"
                f" (of {r})"
            ) from None
        return multiply(correction, error)

    def logical_class(self, residual: Pauli) -> str:
        """Classify a syndrome-free Pauli as logical I, X, Y or Z (k=1 only)."""
        if self.k != 1:
            raise CodeError("logical_class requires k=1")
        if self.syndrome(residual):
            raise CodeError(f"{residual} carries a nonzero syndrome")
        return "IXYZ"[_logical_class_index(self, residual)]

    def to_dict(self) -> dict:
        """The code as a JSON-ready document, which `from_json` reads back."""
        r = self.n - self.k
        return {
            "n": self.n,
            "k": self.k,
            "generators": [g.to_string() for g in self.stabilizer.generators],
            "logical_x": [p.to_string() for p in self.logical_x],
            "logical_z": [p.to_string() for p in self.logical_z],
            "recovery": {
                f"{s:0{r}b}" if r else "": p.to_string()  # width 0 still writes "0"
                for s, p in sorted(self.recovery_table.items())
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

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
                int(s or "0", 2): Pauli.from_string(p)
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


def build_recovery_table(code: StabilizerCode) -> dict[int, Pauli]:
    """Minimum-weight coset-leader table, ties broken lexicographically.

    Enumerates Paulis by increasing weight (text order within a weight) and
    keeps the first representative seen for each syndrome, stopping once
    every syndrome has one.  A candidate's bits and syndrome are the XOR of
    those of its single-qubit letters; a Pauli is built only for the entries
    kept, with the phase `Pauli.from_string` gives its text.
    """
    n, r = code.n, code.n - code.k
    # letters[q]: (x, z, syndrome) of X, Y and Z on qubit q alone, text order
    letters = [
        [(x, z, code.syndrome(Pauli(n, x, z))) for x, z in ((b, 0), (b, b), (0, b))]
        for b in (1 << (n - 1 - q) for q in range(n))
    ]
    table: dict[int, Pauli] = {}
    for w in range(n + 1):
        for support in itertools.combinations(letters, w):
            for choice in itertools.product(*support):
                x = z = s = 0
                for lx, lz, ls in choice:
                    x, z, s = x ^ lx, z ^ lz, s ^ ls
                if s not in table:
                    table[s] = Pauli(n, x, z, (x & z).bit_count())
                    if len(table) == 2**r:
                        return table
    return table


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
# amplitudes have modulus 2^(-r/2) with r <= n <= DENSE_QUBIT_CAP = 12, so at
# least 2^-6, while projecting leaves ~1e-15 where the state vanishes.
_AMPLITUDE_ATOL = 1e-9


def encode_zero(code: StabilizerCode) -> np.ndarray:
    """Dense logical-|0> amplitude vector: the joint +1 eigenvector of the
    checks and Zbar.

    A seeded generic vector is projected by each (1+P)/2, so no component
    vanishes by accident, then normalized, its first nonzero amplitude made
    positive real."""
    if code.n > DENSE_QUBIT_CAP:
        raise CodeError(f"dense codewords limited to n <= {DENSE_QUBIT_CAP}")
    if code.k != 1:
        raise CodeError("encode_zero requires k=1")
    rng = np.random.default_rng(0)
    vec = rng.normal(size=2**code.n) + 1j * rng.normal(size=2**code.n)
    for g in (*code.stabilizer.generators, code.logical_z[0]):
        vec = 0.5 * (vec + g.apply(vec))
    norm = np.linalg.norm(vec)
    if norm < _AMPLITUDE_ATOL:
        raise CodeError("the operators have no joint +1 eigenvector")
    vec = vec / norm
    lead = vec[np.flatnonzero(np.abs(vec) > _AMPLITUDE_ATOL)[0]]
    return vec * (abs(lead) / lead)


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
    return Pauli(2 * L * L, _edge_bits(L, edges), 0)


def toric_plaquette_generator(L: int, x: int, y: int) -> Pauli:
    """Z on the 4 boundary edges of the face whose lower-left vertex is (x, y)."""
    e = toric_edge_index
    edges = (e(L, "h", x, y), e(L, "h", x, y + 1), e(L, "v", x, y), e(L, "v", x + 1, y))
    return Pauli(2 * L * L, 0, _edge_bits(L, edges))


# The code holds 2L^2 - 2 generators of 2L^2 bits each, so memory grows as L^4
# (L = 1000 would need ~500 GB) and the `toric` scan time as about L^5.  In
# process (`cli.main` after import, Python 3.11, 2 shared cores), `toric --L
# 25 / 33 / 41` takes 1.4-1.9 / 5.7-6.1 / 17-20 s (peak RSS 19 / 21 / 27 MB) and
# `code --code toric` 0.07 / 0.11 / 0.13 s (17.5 / 21 / 29 MB); the cap keeps a
# `toric` run near 20 s and admits L = 33
TORIC_L_CAP = 41


def toric_code(L: int) -> StabilizerCode:
    """Toric code on 2L^2 edge qubits, k=2.

    The independent generating set drops the site and plaquette at
    (L-1, L-1); the full translation-invariant families are available via
    toric_site_generator / toric_plaquette_generator.
    """
    if L < 2:
        raise CodeError("toric code needs L >= 2")
    if L > TORIC_L_CAP:
        raise CodeError(f"toric code L={L} exceeds cap {TORIC_L_CAP}")
    n = 2 * L * L
    cells = [(x, y) for y in range(L) for x in range(L)][:-1]  # all but (L-1, L-1)
    checks = (toric_site_generator, toric_plaquette_generator)
    gens = [check(L, x, y) for check in checks for x, y in cells]

    def row(kind: str) -> int:  # the kind's edges along y = 0
        return _edge_bits(L, [toric_edge_index(L, kind, t, 0) for t in range(L)])

    def col(kind: str) -> int:  # the kind's edges along x = 0
        return _edge_bits(L, [toric_edge_index(L, kind, 0, t) for t in range(L)])

    return StabilizerCode(
        n=n,
        k=2,
        stabilizer=StabilizerGroup(n, gens),
        logical_x=[Pauli(n, col("h"), 0), Pauli(n, row("v"), 0)],
        logical_z=[Pauli(n, 0, row("h")), Pauli(n, 0, col("v"))],
    )


# ---------------------------------------------------------------------------
# Tile Hamiltonian


@frozen
class TileHamiltonian:
    """H = -sum_i K_i M_i over pairwise-commuting check operators, K_i > 0;
    frozen, with couplings and terms as tuples (any iterables are accepted)."""

    couplings: tuple[float, ...]
    terms: tuple[Pauli, ...]

    def __post_init__(self):
        object.__setattr__(self, "couplings", tuple(self.couplings))
        object.__setattr__(self, "terms", tuple(self.terms))
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
    if n > DENSE_QUBIT_CAP:
        raise CodeError(f"dense spectrum limited to n <= {DENSE_QUBIT_CAP}")
    mat = np.zeros((2**n, 2**n), dtype=complex)
    for k, m in zip(h.couplings, h.terms):
        mat -= k * m.to_matrix()
    evals = np.linalg.eigvalsh(mat)
    ground = float(evals[0])
    degeneracy = int(np.count_nonzero(evals < ground + atol))
    return ground, degeneracy
