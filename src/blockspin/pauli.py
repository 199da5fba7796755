"""Phase-exact n-qubit Pauli arithmetic in the binary symplectic representation.

A Pauli operator is stored as i^e * prod_j X_j^{x_j} Z_j^{z_j} with e mod 4,
so Y = i*X*Z carries phase exponent 1.  All products, commutators and group
reductions are exact, including the global phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ._numpy import np

_PHASE_STR = {0: "", 1: "i", 2: "-", 3: "-i"}
_CHAR_TO_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_TO_CHAR = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}


class PauliError(ValueError):
    """Raised on malformed Pauli input (length mismatch, bad text form)."""


class MinusIdentityError(ValueError):
    """Raised when -1 turns out to be a member of a purported stabilizer group."""


@dataclass(frozen=True)
class Pauli:
    """An n-qubit Pauli operator i^phase_exp * prod X^x Z^z."""

    x_bits: np.ndarray
    z_bits: np.ndarray
    phase_exp: int = 0

    def __post_init__(self):
        x = np.asarray(self.x_bits, dtype=np.uint8) & 1
        z = np.asarray(self.z_bits, dtype=np.uint8) & 1
        if x.shape != z.shape or x.ndim != 1:
            raise PauliError("x_bits and z_bits must be equal-length vectors")
        object.__setattr__(self, "x_bits", x)
        object.__setattr__(self, "z_bits", z)
        object.__setattr__(self, "phase_exp", int(self.phase_exp) % 4)
        self.x_bits.setflags(write=False)
        self.z_bits.setflags(write=False)

    @property
    def n(self) -> int:
        return self.x_bits.shape[0]

    @property
    def weight(self) -> int:
        return int(np.count_nonzero(self.x_bits | self.z_bits))

    @classmethod
    def identity(cls, n: int) -> "Pauli":
        return cls(np.zeros(n, dtype=np.uint8), np.zeros(n, dtype=np.uint8), 0)

    @classmethod
    def from_string(cls, s: str) -> "Pauli":
        """Parse text form: optional sign prefix (-, i, -i) then I/X/Y/Z per qubit."""
        s = s.strip()
        phase = 0
        if s.startswith("-i"):
            phase, s = 3, s[2:]
        elif s.startswith("i") and len(s) > 1 and s[1] in "IXYZ":
            phase, s = 1, s[1:]
        elif s.startswith("-"):
            phase, s = 2, s[1:]
        elif s.startswith("+"):
            s = s[1:]
        if not s or any(c not in _CHAR_TO_BITS for c in s):
            raise PauliError(f"invalid Pauli string {s!r}")
        x = np.array([_CHAR_TO_BITS[c][0] for c in s], dtype=np.uint8)
        z = np.array([_CHAR_TO_BITS[c][1] for c in s], dtype=np.uint8)
        # Each Y in the text contributes one factor of i to the stored phase.
        n_y = int(np.count_nonzero(x & z))
        return cls(x, z, (phase + n_y) % 4)

    def to_string(self) -> str:
        n_y = int(np.count_nonzero(self.x_bits & self.z_bits))
        head = _PHASE_STR[(self.phase_exp - n_y) % 4]
        body = "".join(
            _BITS_TO_CHAR[(int(a), int(b))] for a, b in zip(self.x_bits, self.z_bits)
        )
        return head + body

    def __str__(self) -> str:
        return self.to_string()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Pauli):
            return NotImplemented
        return (
            self.phase_exp == other.phase_exp
            and np.array_equal(self.x_bits, other.x_bits)
            and np.array_equal(self.z_bits, other.z_bits)
        )

    def __hash__(self) -> int:
        return hash((self.x_bits.tobytes(), self.z_bits.tobytes(), self.phase_exp))

    def equal_up_to_phase(self, other: "Pauli") -> bool:
        return np.array_equal(self.x_bits, other.x_bits) and np.array_equal(
            self.z_bits, other.z_bits
        )

    def is_identity(self) -> bool:
        return self.phase_exp == 0 and self.weight == 0

    def hermitian_phase(self) -> "Pauli":
        """Same bit content with the phase that makes the operator Hermitian."""
        w = int(np.count_nonzero(self.x_bits & self.z_bits))
        return Pauli(self.x_bits, self.z_bits, w % 2)

    def to_matrix(self) -> np.ndarray:
        """Dense 2^n x 2^n matrix (n small); qubit 0 is the most significant bit."""
        if self.n > 12:
            raise PauliError("dense form limited to n <= 12")
        X = np.array([[0, 1], [1, 0]], dtype=complex)
        Z = np.array([[1, 0], [0, -1]], dtype=complex)
        out = np.array([[1]], dtype=complex)
        for a, b in zip(self.x_bits, self.z_bits):
            m = np.eye(2, dtype=complex)
            if a:
                m = X @ m
            if b:
                m = m @ Z
            out = np.kron(out, m)
        return (1j ** self.phase_exp) * out

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """Apply to a dense 2^n state vector without materializing the matrix."""
        n = self.n
        idx = np.arange(2**n, dtype=np.int64)
        xmask, zmask = _pack_rows(np.array([self.x_bits, self.z_bits]))
        signs = (-1.0) ** _popcount(idx & zmask)
        out = np.empty_like(vec, dtype=complex)
        out[idx ^ xmask] = (1j**self.phase_exp) * signs * vec
        return out


def _popcount(a: np.ndarray) -> np.ndarray:
    return np.array([bin(int(v)).count("1") for v in a], dtype=np.int64)


def multiply(p: Pauli, q: Pauli) -> Pauli:
    """Exact product p*q including the global phase.

    Per qubit (X^a Z^b)(X^c Z^d) = (-1)^(b c) X^(a+c) Z^(b+d); the signs
    accumulate into the mod-4 phase exponent.
    """
    if p.n != q.n:
        raise PauliError(f"length mismatch: {p.n} vs {q.n}")
    sign_flips = int(np.count_nonzero(p.z_bits & q.x_bits)) % 2
    return Pauli(
        p.x_bits ^ q.x_bits,
        p.z_bits ^ q.z_bits,
        (p.phase_exp + q.phase_exp + 2 * sign_flips) % 4,
    )


def inverse(p: Pauli) -> Pauli:
    """The Pauli q with multiply(p, q) = identity (phase included)."""
    self_overlap = int(np.count_nonzero(p.z_bits & p.x_bits)) % 2
    return Pauli(p.x_bits, p.z_bits, (-p.phase_exp - 2 * self_overlap) % 4)


def commutes(p: Pauli, q: Pauli) -> bool:
    """True iff the symplectic inner product vanishes (operators commute)."""
    if p.n != q.n:
        raise PauliError(f"length mismatch: {p.n} vs {q.n}")
    form = int(np.count_nonzero(p.x_bits & q.z_bits)) + int(
        np.count_nonzero(p.z_bits & q.x_bits)
    )
    return form % 2 == 0


@dataclass
class StabilizerGroup:
    """A group of commuting Paulis given by an ordered generating set."""

    n: int
    generators: list[Pauli] = field(default_factory=list)

    def __post_init__(self):
        for g in self.generators:
            if g.n != self.n:
                raise PauliError("generator length does not match group size")

    def check_commuting(self) -> None:
        gens = self.generators
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                if not commutes(gens[i], gens[j]):
                    raise PauliError(
                        f"generators {i} and {j} anticommute: "
                        f"{gens[i]} vs {gens[j]}"
                    )


def _symplectic_rows(paulis: Sequence[Pauli], n: int) -> np.ndarray:
    """The [x|z] bit matrix of n-qubit Paulis: one row each, X columns first."""
    rows = [np.concatenate([p.x_bits, p.z_bits]) for p in paulis]
    return np.array(rows, dtype=np.uint8).reshape(len(rows), 2 * n)


def _pack_rows(mat: np.ndarray) -> list[int]:
    """Rows of a binary matrix as ints, column 0 at the most significant bit."""
    packed = np.packbits(mat, axis=1)
    pad = 8 * packed.shape[1] - mat.shape[1]
    return [int.from_bytes(row.tobytes(), "big") >> pad for row in packed]


def _rref(
    rows: list[int], ncols: int, phases: list[int] | None = None
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Reduced row echelon form over GF(2); the package's one elimination loop.

    Rows are packed into ints with column j at bit ncols-1-j (see _pack_rows),
    so a row's leading bit is its leftmost column; Pauli rows are
    [x_0..x_{n-1} | z_0..z_{n-1}], X columns before Z columns.  Column by
    column, the first remaining row holding the column is the pivot and is
    added into every other row holding it, earlier pivot rows included.

    With phases, row i is the Pauli i^phases[i] X^x Z^z (ncols = 2n) and
    adding pivot p into row q is the product p*q, whose phase follows
    `multiply`: phase(p) + phase(q) + 2 popcount(z_p & x_q) mod 4.

    Returns (basis, rest) as (row, phase) pairs: basis holds the nonzero RREF
    rows by increasing pivot column, rest the zero rows left over.  For a
    fixed column order the RREF of a row space is unique, so the basis does
    not depend on the generating set.  Each basis row is a group element,
    and when the group holds no nontrivial multiple of I its phase is fixed
    by its bits, so the phases are unique as well.
    """
    n = ncols // 2
    zmask = (1 << n) - 1
    rest = list(zip(rows, phases or [0] * len(rows)))
    basis: list[tuple[int, int]] = []
    while lead := max((r for r, _ in rest), default=0).bit_length():
        bit = 1 << (lead - 1)
        pivot, phase = rest.pop(next(i for i, (r, _) in enumerate(rest) if r & bit))
        pivot_z = pivot & zmask

        def add(row: int, e: int) -> tuple[int, int]:
            if phases is not None:
                e = (phase + e + 2 * (pivot_z & (row >> n)).bit_count()) % 4
            return row ^ pivot, e

        rest = [add(r, e) if r & bit else (r, e) for r, e in rest]
        basis = [add(r, e) if r & bit else (r, e) for r, e in basis]
        basis.append((pivot, phase))
    return basis, rest


def _canonical_rows(group: StabilizerGroup) -> list[tuple[int, int]]:
    """The phased RREF of the generators; raises MinusIdentityError when a
    leftover zero row carries a nonzero phase."""
    rows = _pack_rows(_symplectic_rows(group.generators, group.n))
    basis, rest = _rref(rows, 2 * group.n, [g.phase_exp for g in group.generators])
    if any(e for _, e in rest):
        raise MinusIdentityError("group contains a nontrivial multiple of identity")
    return basis


def canonicalize(group: StabilizerGroup) -> tuple[list[Pauli], int]:
    """The reduced row echelon form of the generating set over GF(2), with
    exact phases, and its rank.

    Each generator is packed into an int row [x|z], X columns before Z
    columns, left to right, and the rows come back by increasing pivot
    column.  The RREF of a row space is unique for this column order, and
    so is the phase of each row when -1 is not in the group: the output
    depends only on the group.  Raises MinusIdentityError if the reduction
    finds a nontrivial multiple of the identity in the group.
    """
    n = 2 * group.n
    nbytes = (n + 7) // 8
    reduced = []
    for row, phase in _canonical_rows(group):
        raw = (row << (8 * nbytes - n)).to_bytes(nbytes, "big")
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))[:n]
        reduced.append(Pauli(bits[: group.n], bits[group.n :], phase))
    return reduced, len(reduced)


def contains(group: StabilizerGroup, p: Pauli) -> tuple[str, int]:
    """Decide membership of p in the group generated by group.generators.

    Returns (status, phase_exp) with status one of "member",
    "member_up_to_phase", "not_member".  For a member-up-to-phase,
    i^phase_exp * (some group element) equals p.
    """
    if p.n != group.n:
        raise PauliError(f"length mismatch: {p.n} vs {group.n}")
    n = group.n
    zmask = (1 << n) - 1
    r, e = _pack_rows(_symplectic_rows([p], n))[0], p.phase_exp
    for g, ge in _canonical_rows(group):
        if r >> (g.bit_length() - 1) & 1:
            # r <- g^-1 r, where g^-1 = i^(-ge - 2 popcount(x_g & z_g)) g bits
            inv = -ge - 2 * (g & zmask & (g >> n)).bit_count()
            r, e = r ^ g, (inv + e + 2 * (g & zmask & (r >> n)).bit_count()) % 4
    if r:
        return "not_member", 0
    if e == 0:
        return "member", 0
    return "member_up_to_phase", e


def random_pauli(rng: np.random.Generator, n: int) -> Pauli:
    x = rng.integers(0, 2, size=n, dtype=np.uint8)
    z = rng.integers(0, 2, size=n, dtype=np.uint8)
    return Pauli(x, z, int(rng.integers(0, 4)))


def stabilizer_entropy(
    n: int, generators: Sequence[Pauli], region: Iterable[int]
) -> int:
    """Entanglement entropy in bits of `region` for the pure stabilizer state
    fixed by `generators` (which must have GF(2) rank n).

    S(A) = |A| - log2 |S_A| with S_A the subgroup supported inside A;
    log2 |S_A| = rank(G) - rank(G restricted to the complement of A).
    """
    return _region_entropies(n, generators, [region])[0]


def _region_entropies(
    n: int, generators: Sequence[Pauli], regions: Iterable[Iterable[int]]
) -> list[int]:
    """stabilizer_entropy of each region, with one purity check for all.

    For a pure state S(A) = |A| - n + rank(G|_complement) = rank(G|_A) - |A|
    (Fattal et al., quant-ph/0406168), and S(A) = S(complement), so each
    region is restricted to the smaller of A and its complement.  On a
    single qubit q, rank(G|_q) is the number of distinct nonzero (x_q, z_q)
    pairs among the rows, capped at 2, which needs no elimination.
    """
    mat = _symplectic_rows(generators, n)
    full_rank = gf2_rank(mat)
    if full_rank != n:
        raise ValueError(f"state is not pure: rank {full_rank} != {n}")
    out = []
    for region in regions:
        side = sorted(set(region))
        if side and not (0 <= side[0] and side[-1] < n):
            raise ValueError(f"region qubits must lie in 0..{n - 1}")
        if 2 * len(side) > n:
            inside = set(side)
            side = [q for q in range(n) if q not in inside]
        if len(side) == 1:
            pairs = set((2 * mat[:, side[0]] + mat[:, n + side[0]]).tolist())
            rank = min(len(pairs - {0}), 2)
        else:
            cols = side + [n + q for q in side]
            rank = gf2_rank(mat[:, cols]) if cols else 0
        out.append(rank - len(side))
    return out


def gf2_rank(mat: np.ndarray) -> int:
    """Rank of a binary matrix over GF(2).

    Each row is packed into an int with column 0 at the most significant
    bit, so for [x|z] Pauli rows the X columns come before the Z columns.
    The rank is the number of nonzero rows of the RREF (_rref), which is
    unique for a fixed column order.
    """
    m = np.asarray(mat, dtype=np.uint8) & 1
    if m.ndim != 2:
        return 0
    return len(_rref(_pack_rows(m), m.shape[1])[0])
