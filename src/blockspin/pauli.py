"""Phase-exact n-qubit Pauli arithmetic in the binary symplectic representation.

A Pauli operator is stored as i^e * prod_j X_j^{x_j} Z_j^{z_j} with e mod 4,
so Y = i*X*Z carries phase exponent 1.  All products, commutators and group
reductions are exact, including the global phase.  The X and Z bits are
packed into two ints, so products, commutators and eliminations are int bit
operations (the packed tableau of Aaronson & Gottesman, quant-ph/0406196).
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Sequence

from ._numpy import np
from ._value import frozen

_PHASE_STR = {0: "", 1: "i", 2: "-", 3: "-i"}
_LETTERS = frozenset("IXYZ")
_X_DIGITS = str.maketrans("IXYZ", "0110")  # a letter's X bit as a binary digit
_Z_DIGITS = str.maketrans("IXYZ", "0011")
_LETTER_OF_DIGIT = str.maketrans("0123", "IZXY")  # a qubit's 2x + z as a letter


class PauliError(ValueError):
    """Raised on malformed Pauli input (length mismatch, bad text form)."""


class MinusIdentityError(ValueError):
    """Raised when -1 turns out to be a member of a purported stabilizer group."""


# The largest n for dense operators: a 2^n x 2^n complex matrix takes
# 16 * 4^n bytes, 256 MiB at n = 12 and 1 GiB at n = 13.
DENSE_QUBIT_CAP = 12


def _pack(bits) -> int:
    """A 0/1 sequence as an int, element 0 at the most significant bit."""
    out = 0
    for b in bits:
        out = out << 1 | int(b) & 1
    return out


def _spread(v: int) -> int:
    """v with bit k moved to bit 4k: its binary digits read as hex."""
    return int(f"{v:b}", 16)


@frozen
class Pauli:
    """An n-qubit Pauli operator i^phase_exp * prod X^x Z^z.

    x and z are the bits packed into ints 0 <= x, z < 2^n, qubit 0 at the
    most significant of n bits, so the symplectic row [x|z] is the int
    (x << n) | z (`row`).
    """

    n: int
    x: int
    z: int
    phase_exp: int

    def __init__(self, n: int, x: int, z: int, phase_exp: int = 0):
        if (x | z) >> n:  # a negative int keeps its sign bits
            raise PauliError(f"X/Z bits do not fit in {n} qubits")
        self.__dict__.update(n=n, x=x, z=z, phase_exp=phase_exp % 4)

    @property
    def row(self) -> int:
        return self.x << self.n | self.z

    @property
    def weight(self) -> int:
        return (self.x | self.z).bit_count()

    @classmethod
    def identity(cls, n: int) -> "Pauli":
        return cls(n, 0, 0)

    @classmethod
    def from_string(cls, s: str) -> "Pauli":
        """Parse text form: optional sign prefix (-, i, -i) then I/X/Y/Z per qubit."""
        s = s.strip()
        phase = 0
        if s.startswith("-i"):
            phase, s = 3, s[2:]
        elif s.startswith("i") and s[1:2] in "IXYZ":  # a bare "i" is n = 0
            phase, s = 1, s[1:]
        elif s.startswith("-"):
            phase, s = 2, s[1:]
        elif s.startswith("+"):
            s = s[1:]
        if not _LETTERS.issuperset(s):
            raise PauliError(f"invalid Pauli string {s!r}")
        x = int(s.translate(_X_DIGITS) or "0", 2)
        z = int(s.translate(_Z_DIGITS) or "0", 2)
        # Each Y in the text contributes one factor of i to the stored phase.
        return cls(len(s), x, z, phase + (x & z).bit_count())

    def to_string(self) -> str:
        """Sign prefix, then one letter per qubit, qubit 0 first, via hex digits 2x + z."""
        head = _PHASE_STR[(self.phase_exp - (self.x & self.z).bit_count()) % 4]
        if not self.n:
            return head  # a zero width still formats one digit
        digits = f"{2 * _spread(self.x) + _spread(self.z):0{self.n}x}"
        return head + digits.translate(_LETTER_OF_DIGIT)

    def __str__(self) -> str:
        return self.to_string()

    def _column_values(self, idx: np.ndarray) -> np.ndarray:
        """i^e (-1)^popcount(idx & z): the entry of column idx, at row idx ^ x."""
        return (1j**self.phase_exp) * (1.0 - 2.0 * (np.bitwise_count(idx & self.z) & 1))

    def to_matrix(self) -> np.ndarray:
        """Dense 2^n x 2^n matrix (n small); qubit 0 is the most significant bit."""
        if self.n > DENSE_QUBIT_CAP:
            raise PauliError(f"dense form limited to n <= {DENSE_QUBIT_CAP}")
        idx = np.arange(2**self.n, dtype=np.int64)
        out = np.zeros((idx.size, idx.size), dtype=complex)
        out[idx ^ self.x, idx] = self._column_values(idx)
        return out

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """Apply to a dense 2^n state vector without materializing the matrix."""
        idx = np.arange(2**self.n, dtype=np.int64)
        out = np.empty_like(vec, dtype=complex)
        out[idx ^ self.x] = self._column_values(idx) * vec
        return out


def multiply(p: Pauli, q: Pauli) -> Pauli:
    """Exact product p*q including the global phase.

    Per qubit (X^a Z^b)(X^c Z^d) = (-1)^(b c) X^(a+c) Z^(b+d); the signs
    accumulate into the mod-4 phase exponent.
    """
    if p.n != q.n:
        raise PauliError(f"length mismatch: {p.n} vs {q.n}")
    flips = (p.z & q.x).bit_count()
    return Pauli(p.n, p.x ^ q.x, p.z ^ q.z, p.phase_exp + q.phase_exp + 2 * flips)


def inverse(p: Pauli) -> Pauli:
    """The Pauli q with multiply(p, q) = identity (phase included)."""
    self_overlap = (p.z & p.x).bit_count()
    return Pauli(p.n, p.x, p.z, -p.phase_exp - 2 * self_overlap)


def commutes(p: Pauli, q: Pauli) -> bool:
    """True iff the symplectic inner product vanishes (operators commute)."""
    if p.n != q.n:
        raise PauliError(f"length mismatch: {p.n} vs {q.n}")
    return not ((p.x & q.z) ^ (p.z & q.x)).bit_count() & 1


@frozen
class StabilizerGroup:
    """A group of commuting Paulis given by an ordered generating set.

    Frozen, so the canonical rows cached on first use stay those of the group.
    """

    n: int
    generators: tuple[Pauli, ...] = ()

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

    @cached_property
    def canonical_rows(self) -> tuple[tuple[int, int], ...]:
        """The phased RREF (_rref) of the generators as (row, phase) pairs;
        raises MinusIdentityError when a leftover zero row carries a nonzero
        phase or a row is not Hermitian (its square is -I), so each row g
        returned has g^-1 = g."""
        gens, n = self.generators, self.n
        basis, rest = _rref([g.row for g in gens], [g.phase_exp for g in gens], n)
        # i^e X^x Z^z is Hermitian iff e = popcount(x & z) mod 2
        if rest or any((e - (r & r >> n).bit_count()) % 2 for r, e in basis):
            raise MinusIdentityError("group contains a nontrivial multiple of identity")
        return tuple(basis)


def _product(p: int, pe: int, q: int, qe: int, n: int) -> tuple[int, int]:
    """Row and phase of the product p*q of the n-qubit Paulis with packed rows
    p, q and phase exponents pe, qe: phase(p) + phase(q) + 2 popcount(z_p &
    x_q) mod 4, as in `multiply`.  q >> n holds x_q in the z columns."""
    return p ^ q, (pe + qe + 2 * (p & q >> n).bit_count()) % 4


def _rref(
    rows: list[int], phases: list[int] | None = None, n: int = 0
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Reduced row echelon form over GF(2); the package's one elimination loop.

    Rows are packed into ints with column 0 at the most significant bit, so
    a row's leading bit is its leftmost column; Pauli rows are `Pauli.row`,
    [x_0..x_{n-1} | z_0..z_{n-1}], X columns before Z columns.  Column by
    column, the first remaining row holding the column is the pivot and is
    added into every other row holding it, earlier pivot rows included.

    With phases, row i is the n-qubit Pauli i^phases[i] X^x Z^z and adding
    pivot p into row q is the product p*q (`_product`).  A zero row with a
    zero phase is dropped as soon as it appears.

    Returns (basis, rest) as (row, phase) pairs: basis holds the nonzero RREF
    rows by increasing pivot column, rest the zero rows left over with a
    nonzero phase, which name nontrivial multiples of I.  For a
    fixed column order the RREF of a row space is unique, so the basis does
    not depend on the generating set.  Each basis row is a group element,
    and when the group holds no nontrivial multiple of I its phase is fixed
    by its bits, so the phases are unique as well.
    """
    rest = [(r, e) for r, e in zip(rows, phases or [0] * len(rows)) if r or e]
    basis: list[tuple[int, int]] = []
    while lead := max((r for r, _ in rest), default=0).bit_length():
        bit = 1 << (lead - 1)
        pivot, phase = rest.pop(next(i for i, (r, _) in enumerate(rest) if r & bit))

        def add(row: int, e: int) -> tuple[int, int]:
            if phases is None:
                return row ^ pivot, 0
            return _product(pivot, phase, row, e, n)

        # only a row equal to the pivot reduces to zero
        rest = [
            add(r, e) if r & bit else (r, e)
            for r, e in rest
            if r != pivot or add(r, e)[1]
        ]
        basis = [add(r, e) if r & bit else (r, e) for r, e in basis]
        basis.append((pivot, phase))
    return basis, rest


def canonicalize(group: StabilizerGroup) -> tuple[list[Pauli], int]:
    """The reduced row echelon form of the generating set over GF(2), with
    exact phases, and its rank.

    Each generator's row [x|z] has its X columns before its Z columns, left
    to right, and the rows come back by increasing pivot column.  The RREF
    of a row space is unique for this column order, and so is the phase of
    each row when -1 is not in the group: the output depends only on the
    group.  Raises MinusIdentityError if the reduction finds a nontrivial
    multiple of the identity in the group.  The elimination runs once per
    group: its rows are cached as `StabilizerGroup.canonical_rows`.
    """
    n, zmask = group.n, (1 << group.n) - 1
    reduced = [Pauli(n, r >> n, r & zmask, e) for r, e in group.canonical_rows]
    return reduced, len(reduced)


def contains(group: StabilizerGroup, p: Pauli) -> tuple[str, int]:
    """Decide membership of p in the group generated by group.generators.

    Returns (status, phase_exp) with status one of "member",
    "member_up_to_phase", "not_member".  For a member-up-to-phase,
    i^phase_exp * (some group element) equals p.
    """
    if p.n != group.n:
        raise PauliError(f"length mismatch: {p.n} vs {group.n}")
    r, e = p.row, p.phase_exp
    for g, ge in group.canonical_rows:
        if r >> (g.bit_length() - 1) & 1:
            r, e = _product(g, ge, r, e, group.n)  # g^-1 r, as g^-1 = g
    if r:
        return "not_member", 0
    if e == 0:
        return "member", 0
    return "member_up_to_phase", e


def random_pauli(rng: np.random.Generator, n: int) -> Pauli:
    x = _pack(rng.integers(0, 2, size=n, dtype=np.uint8))
    z = _pack(rng.integers(0, 2, size=n, dtype=np.uint8))
    return Pauli(n, x, z, int(rng.integers(0, 4)))


def stabilizer_entropy(
    n: int, generators: Sequence[Pauli], region: Iterable[int]
) -> int:
    """Entanglement entropy in bits of `region` for the pure stabilizer state
    fixed by `generators` (which must have GF(2) rank n).

    S(A) = |A| - log2 |S_A| with S_A the subgroup supported inside A;
    log2 |S_A| = rank(G) - rank(G restricted to the complement of A).
    """
    return _region_entropies(StabilizerGroup(n, generators), [region])[0]


def _region_entropies(
    group: StabilizerGroup, regions: Iterable[Iterable[int]]
) -> list[int]:
    """stabilizer_entropy of each region of the group's state.

    The state is pure when the group's canonical rows number n.  Then
    S(A) = |A| - n + rank(G|_complement) = rank(G|_A) - |A| (Fattal et al.,
    quant-ph/0406168), and S(A) = S(complement), so each region is
    restricted to the smaller of A and its complement: the rows are masked
    to its X and Z columns.
    """
    n = group.n
    if (rank := len(group.canonical_rows)) != n:
        raise ValueError(f"state is not pure: rank {rank} != {n}")
    rows = [g.row for g in group.generators]
    out = []
    for region in regions:
        side = sorted(set(region))
        if side and not (0 <= side[0] and side[-1] < n):
            raise ValueError(f"region qubits must lie in 0..{n - 1}")
        if 2 * len(side) > n:
            inside = set(side)
            side = [q for q in range(n) if q not in inside]
        mask = sum(1 << (2 * n - 1 - q) | 1 << (n - 1 - q) for q in side)
        out.append(gf2_rank([r & mask for r in rows]) - len(side))
    return out


def gf2_rank(rows: Iterable[int]) -> int:
    """Rank of a binary matrix over GF(2).

    Each row is a packed int with column 0 at the most significant bit (for
    a Pauli, `Pauli.row`: the X columns come before the Z columns).  The
    rank is the number of nonzero rows of the RREF (_rref), which is unique
    for a fixed column order.
    """
    return len(_rref(list(rows))[0])
