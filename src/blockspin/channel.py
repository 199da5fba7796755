"""Renormalization as an exact Pauli channel recursion.

One cycle encode -> i.i.d. Pauli noise -> syndrome recovery -> decode acts on
the logical qubit as a Pauli channel.  This level map is the code's logical
weight enumerator, a polynomial in (p_I, p_X, p_Y, p_Z) with integer
coefficients, so the map and its Jacobian are both exact.  Iterating the map
gives the flow on channel space; its attractors (identity vs uniform noise)
define a {0,1} order parameter, the unstable fixed point in between is the
memory threshold, and the hashing-bound quality along the flow yields the
memory-support correlation functional.
"""

from __future__ import annotations

import math
import sys
from functools import cached_property
from operator import mul

from ._numpy import np
from ._value import frozen

from .codes import StabilizerCode, _logical_class_index
from .pauli import Pauli

PROBABILITY_SLACK = 1e-12  # float rounding left in a normalized channel
NOISE_QUALITY_MARGIN = 1e-6  # a stall this close to quality 1 is not noise
# invariant code/family pairs come back onto the family within 1.2e-16; the
# others (five-qubit bit-flip, Shor depolarizing) miss by >= 3.6e-3 at p >= 0.03
FAMILY_INVARIANCE_ATOL = 1e-12


class ChannelError(ValueError):
    """Raised on invalid channel data or enumeration budget overruns."""


class IndeterminateFlowError(ChannelError):
    """Flow hit the level cap without resolving; signals threshold proximity."""


@frozen
class PauliChannel:
    """Probability 4-vector over {I, X, Y, Z}."""

    p_i: float
    p_x: float
    p_y: float
    p_z: float

    def __post_init__(self):
        probs = self.probs
        if not all(map(math.isfinite, probs)):
            raise ChannelError(f"non-finite probability in {probs}")
        if min(probs) < -PROBABILITY_SLACK:
            raise ChannelError(f"negative probability in {probs}")
        if abs(sum(probs) - 1.0) > PROBABILITY_SLACK:
            raise ChannelError(f"probabilities sum to {sum(probs)}, not 1")

    @property
    def probs(self) -> tuple[float, float, float, float]:
        return (self.p_i, self.p_x, self.p_y, self.p_z)

    def as_array(self) -> np.ndarray:
        return np.array(self.probs, dtype=float)

    @classmethod
    def identity(cls) -> "PauliChannel":
        return cls(1.0, 0.0, 0.0, 0.0)

    @classmethod
    def uniform(cls) -> "PauliChannel":
        return cls(0.25, 0.25, 0.25, 0.25)

    @classmethod
    def depolarizing(cls, p: float) -> "PauliChannel":
        return cls(1.0 - p, p / 3.0, p / 3.0, p / 3.0)

    @classmethod
    def bit_flip(cls, p: float) -> "PauliChannel":
        return cls(1.0 - p, p, 0.0, 0.0)

    def error_probability(self) -> float:
        return 1.0 - self.p_i

    def quality(self) -> float:
        """Hashing-bound proxy q = 1 - H2(p); 1 at identity, -1 at uniform."""
        h = 0.0
        for p in self.probs:
            if p > 0.0:
                h -= p * math.log2(p)
        return 1.0 - h


SYNDROME_SHIFT = 13  # a word's syndrome bits, above key << 2 | class; key < 2^11


def _letter_signatures(code: StabilizerCode) -> tuple[tuple[int, int, int, int], ...]:
    """Per qubit q, the signatures of I, X, Y and Z on q alone: syndrome <<
    SYNDROME_SHIFT | raw class index (`_logical_class_index`).  Both parts
    are linear over GF(2), so an error's signature is the XOR of its
    letters'."""
    n = code.n
    out = []
    for q in range(n):
        bit = 1 << (n - 1 - q)
        letters = (Pauli(n, x * bit, z * bit) for x, z in ((0, 0), (1, 0), (1, 1), (0, 1)))
        out.append(tuple(code.syndrome(p) << SYNDROME_SHIFT | _logical_class_index(code, p)
                         for p in letters))
    return tuple(out)


@frozen
class LogicalActionTable:
    """Logical action of lookup recovery for one code (cached on the code
    as `StabilizerCode.action_table`).

    An error's word is syndrome << SYNDROME_SHIFT | key << 2 | raw class
    index (`_logical_class_index`), key = (#X * b + #Y) * b + #Z, b = n + 1.
    enumerator is W, the syndrome-resolved weight enumerator: (word, error
    count) pairs in word order, folded in qubit by qubit (the trellis), each
    step taking a word w to (w ^ sig) + key for each letter on the next
    qubit, so the 4^n errors are never listed.  This signature table is
    read-only and has no decoder: recovery_table[s] shifts a class by its
    class index shifts[s], and coeff[c][m] counts the errors of composition
    exps[m] = (#I, #X, #Y, #Z) left in class c.
    """

    enumerator: tuple[tuple[int, int], ...]
    shifts: bytes
    coeff: tuple[tuple[int, ...], ...]
    exps: tuple[tuple[int, int, int, int], ...]

    @cached_property
    def cls(self) -> np.ndarray:
        """Residual class of each error index e (base-4 digits 0=I,1=X,2=Y,3=Z,
        first qubit most significant): a read-only uint8 array of 4^n, from
        the letter signatures its build kept; not part of the value.  Only
        the tests and perfbench's `channel.table_entries` counter read it."""
        sig = np.zeros(1, dtype=np.int64)
        for letters in self._letters:
            sig = (sig[:, None] ^ np.array(letters, dtype=np.int64)).ravel()
        shifts = np.frombuffer(self.shifts, np.uint8)[sig >> SYNDROME_SHIFT]
        out = (shifts ^ sig & 3).astype(np.uint8)
        out.flags.writeable = False
        return out

    @cached_property
    def weights(self) -> tuple[tuple[float, ...], ...]:
        """coeff as floats, for evaluation; exact, as every count is < 2^53."""
        return tuple(tuple(map(float, row)) for row in self.coeff)

    @classmethod
    def build(cls, code: StabilizerCode) -> "LogicalActionTable":
        """Fold the qubits into W one at a time, then read each class's
        count per composition off W's nonzero entries."""
        if code.k != 1:
            raise ChannelError("effective channel requires k=1")
        # the fold's dict, W, has up to 2^(n-1) * 4 * C(n+3, 3) keys (syndromes,
        # classes, compositions): 585,728 at n = 10, each a Python int
        if code.n > 10:
            raise ChannelError("exact enumeration limited to n <= 10")
        n, r, b = code.n, code.n - code.k, code.n + 1
        if len(code.recovery_table) != 2**r:
            raise ChannelError("incomplete recovery table")
        letters = _letter_signatures(code)
        keys = (0, b * b << 2, b << 2, 1 << 2)  # I, X, Y, Z
        enumerator = {0: 1}
        for sigs in letters:
            step: dict[int, int] = {}
            for s, k in zip(sigs, keys):
                for w, cnt in enumerator.items():
                    v = (w ^ s) + k
                    step[v] = step.get(v, 0) + cnt
            enumerator = step
        shifts = bytes(_logical_class_index(code, code.recovery_table[s])
                       for s in range(2**r))
        exps = tuple(
            (n - x - y - z, x, y, z)
            for x in range(b) for y in range(b - x) for z in range(b - x - y)
        )
        # each composition's error count per class, keyed by key << 2 (a word's middle bits)
        cols = {((x * b + y) * b + z) << 2: [0, 0, 0, 0] for _, x, y, z in exps}
        for w, cnt in enumerator.items():  # one pass over W's nonzero entries
            cols[w & (1 << SYNDROME_SHIFT) - 4][w & 3 ^ shifts[w >> SYNDROME_SHIFT]] += cnt
        table = cls(sorted(enumerator.items()), shifts, zip(*cols.values()), exps)
        table.__dict__["_letters"] = letters  # what cls reads; not a field
        return table


def effective_channel(code: StabilizerCode, ch: PauliChannel) -> PauliChannel:
    """Exact logical channel of one noise + lookup-recovery cycle.

    Evaluates the code's logical weight enumerator at the channel: the
    probability of all 4^n i.i.d. Pauli errors, summed per residual class.
    The sums are correctly rounded (math.fsum), so they do not depend on the
    order of the terms.
    """
    table = code.action_table
    pi, px, py, pz = ([p**e for e in range(code.n + 1)] for p in ch.probs)
    monomials = [pi[a] * px[b] * py[c] * pz[d] for a, b, c, d in table.exps]
    out = [math.fsum(map(mul, row, monomials)) for row in table.weights]
    total = math.fsum(out)
    return PauliChannel(*(v / total for v in out))


def sample_effective_channel(
    code: StabilizerCode, ch: PauliChannel, n_samples: int, seed: int = 0
) -> np.ndarray:
    """Monte Carlo estimate of the logical class distribution (cross-check).

    Each draw's syndrome and raw class are the XOR of its letters'
    signatures, so the estimate reads only the table's recovery shifts, not
    its enumerator.  Raises ChannelError unless n_samples >= 1.
    """
    if n_samples < 1:
        raise ChannelError(f"n_samples must be >= 1, got {n_samples}")
    shifts = np.frombuffer(code.action_table.shifts, np.uint8)
    rng = np.random.default_rng(seed)
    draws = rng.choice(4, size=(n_samples, code.n), p=ch.as_array())
    letters = np.array(_letter_signatures(code), dtype=np.int64)
    sig = np.bitwise_xor.reduce(letters[np.arange(code.n), draws], axis=1)
    counts = np.bincount(shifts[sig >> SYNDROME_SHIFT] ^ sig & 3, minlength=4)
    return counts / n_samples


@frozen
class FlowTrajectory:
    """Channel iterates with their quality values and the final verdict."""

    levels: tuple[tuple[int, PauliChannel, float], ...]
    verdict: str  # converged-to-{identity,noise,fixed-point} | max-iterations


def flow(
    code: StabilizerCode,
    ch: PauliChannel,
    max_levels: int = 40,
    tol: float = 1e-12,
) -> FlowTrajectory:
    """Iterate the effective channel until an attractor is resolved.

    Verdict is identity when the total error probability drops below tol,
    noise when the quality stops decreasing while still far from identity,
    fixed point when a level maps any other channel exactly onto itself.
    Raises ChannelError unless max_levels >= 0 and 0 < tol < 1.
    """
    if not max_levels >= 0:
        raise ChannelError(f"max_levels must be >= 0, got {max_levels}")
    if not 0 < tol < 1:
        raise ChannelError(f"tol must be in (0, 1), got {tol}")
    current, q = ch, ch.quality()
    levels = [(0, current, q)]
    if current.error_probability() < tol:
        return FlowTrajectory(levels, "converged-to-identity")
    for r in range(1, max_levels + 1):
        nxt = effective_channel(code, current)
        q_next = nxt.quality()
        levels.append((r, nxt, q_next))
        if nxt.error_probability() < tol:
            return FlowTrajectory(levels, "converged-to-identity")
        if abs(q_next - q) < tol and q_next < 1.0 - NOISE_QUALITY_MARGIN:
            return FlowTrajectory(levels, "converged-to-noise")
        if nxt == current:
            return FlowTrajectory(levels, "converged-to-fixed-point")
        current, q = nxt, q_next
    return FlowTrajectory(levels, "max-iterations")


def _basin(traj: FlowTrajectory) -> int:
    """The order parameter a flow's verdict gives; raises off both basins."""
    if traj.verdict == "converged-to-identity":
        return 1
    if traj.verdict == "converged-to-noise":
        return 0
    if traj.verdict == "converged-to-fixed-point":
        raise ChannelError(f"flow stopped at the fixed channel {traj.levels[-1][1]}")
    raise IndeterminateFlowError(
        f"flow unresolved after {traj.levels[-1][0]} levels (threshold proximity)"
    )


def order_parameter(
    code: StabilizerCode, ch: PauliChannel, max_levels: int = 40
) -> int:
    """1 on the identity basin, 0 on the noise basin; raises near threshold."""
    return _basin(flow(code, ch, max_levels=max_levels))


def threshold(
    code: StabilizerCode,
    family,
    p_lo: float,
    p_hi: float,
    width: float = 1e-3,
    max_levels: int = 200,
) -> float:
    """Bisect the order parameter along the one-parameter channel family.

    family: p -> PauliChannel.  Requires order 1 at p_lo and 0 at p_hi.
    Returns the bracket midpoint once the bracket is narrower than width.
    Raises ChannelError unless width is positive and finite, and when the
    bracket can no longer be halved in floating point before reaching the width.

    On a family the map keeps invariant (to FAMILY_INVARIANCE_ATOL at three
    points of the bracket) the map is p -> g(p), with g(p) < p exactly on the
    identity side of its unstable fixed point: one level decides each probe,
    and flows at the final lo and hi confirm the bracket.  If the flow order
    parameter is monotone on the bracket, every probe decided "lo" lies at or
    below the final lo and every "hi" probe at or above the final hi, so
    confirmed ends mean each decision, hence the result, is the flow's bit
    for bit.  An end that disagrees or is indeterminate, or the float
    resolution, redoes the bisection from p_lo, p_hi with a flow per probe.
    """
    if not p_lo < p_hi:
        raise ChannelError(f"invalid bracket ({p_lo}, {p_hi})")
    if not 0 < width < math.inf:
        raise ChannelError(f"width must be > 0 and finite, got {width}")
    if order_parameter(code, family(p_lo), max_levels) != 1:
        raise ChannelError(f"order parameter at p_lo={p_lo} is not 1")
    if order_parameter(code, family(p_hi), max_levels) != 0:
        raise ChannelError(f"order parameter at p_hi={p_hi} is not 0")

    def bisect(in_identity_basin) -> tuple[float, float]:
        lo, hi = p_lo, p_hi
        while hi - lo >= width:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                raise ChannelError(
                    f"width {width} is below the float resolution of the bracket "
                    f"({lo}, {hi})"
                )
            try:
                if in_identity_basin(mid):
                    lo = mid
                else:
                    hi = mid
            except IndeterminateFlowError:
                raise IndeterminateFlowError(
                    f"indeterminate at p={mid} with bracket ({lo}, {hi})"
                ) from None
        return lo, hi

    def flows_to_identity(p: float) -> bool:
        return order_parameter(code, family(p), max_levels) == 1

    # on a ChannelError (e.g. an image outside the family), flow every probe
    try:
        images = (effective_channel(code, family(p_lo + t * (p_hi - p_lo)))
                  for t in (0.25, 0.5, 0.75))
        if all(abs(a - b) <= FAMILY_INVARIANCE_ATOL for out in images
               for a, b in zip(out.probs, family(out.error_probability()).probs)):
            lo, hi = bisect(
                lambda p: effective_channel(code, family(p)).error_probability() < p
            )
            if (lo == p_lo or flows_to_identity(lo)) and (
                hi == p_hi or not flows_to_identity(hi)
            ):
                return 0.5 * (lo + hi)
    except ChannelError:
        pass
    lo, hi = bisect(flows_to_identity)
    return 0.5 * (lo + hi)


def linearize(
    code: StabilizerCode, fixed_channel: PauliChannel
) -> list[tuple[complex, str]]:
    """Eigenvalues of the recursion Jacobian at a channel, tagged
    relevant (|l| > 1) or irrelevant (|l| < 1).

    Coordinates are (p_X, p_Y, p_Z) on the simplex tangent space.  The
    Jacobian J[i, j] = dF_i/dp_j - dF_i/dp_I of the unnormalized map F is
    exact, differentiated term by term in the weight enumerator.
    """
    table = code.action_table
    exps = np.array(table.exps)
    # d/dp_j prod(p ** e) = e_j * prod(p ** (e - unit_j)); e_j = 0 gives 0
    lowered = np.maximum(exps - np.eye(4, dtype=int)[:, None], 0)
    grads = exps.T * np.prod(fixed_channel.as_array() ** lowered, axis=-1)
    jac4 = np.array(table.coeff) @ grads.T  # [class, variable]
    jac = jac4[1:, 1:] - jac4[1:, :1]
    evals = np.linalg.eigvals(jac)
    return [
        (complex(ev), "relevant" if abs(ev) > 1.0 else "irrelevant")
        for ev in sorted(evals, key=lambda v: -abs(v))
    ]


@frozen
class MemorySupport:
    """Result of the epsilon-memory-support functional."""

    size: float  # lattice units^d; math.inf when below threshold
    r_star: int | None
    verdict: str

    @property
    def infinite(self) -> bool:
        return math.isinf(self.size)


def memory_support(
    code: StabilizerCode,
    ch: PauliChannel,
    epsilon: float,
    L: float = 1.0,
    d: int = 1,
) -> MemorySupport:
    """Largest lattice volume able to sustain the emergent block spin.

    r* is the first concatenation level whose quality drops below epsilon;
    the supported volume is tile_size^r* * L^d.  Infinite on the identity
    basin.  Raises ChannelError unless 0 < epsilon < 1, L is finite and
    positive and d >= 1, or when tile_size^r* * L^d overflows a float or
    falls below the smallest normal float; off both basins it raises as
    order_parameter does.
    """
    if not 0.0 < epsilon < 1.0:
        raise ChannelError("epsilon must lie in (0, 1)")
    if not (math.isfinite(L) and L > 0):
        raise ChannelError(f"lattice spacing L must be finite and > 0, got {L}")
    if not d >= 1:
        raise ChannelError(f"dimension d must be >= 1, got {d}")
    traj = flow(code, ch)
    if _basin(traj):
        return MemorySupport(math.inf, None, traj.verdict)
    for r, _, q in traj.levels:
        if q < epsilon:
            break
    # r is the first level below epsilon, else the flow's last: the quality
    # stalled at or above epsilon, and further levels would not drop below it
    try:
        size = float(code.n**r * L**d)
    except OverflowError:
        size = math.inf
    if math.isinf(size):  # an infinite size would read as the identity basin
        raise ChannelError(f"memory support {code.n}^{r} * {L}^{d} overflows a float")
    if size < sys.float_info.min:  # zero or subnormal: a positive size read as none
        raise ChannelError(f"memory support {code.n}^{r} * {L}^{d} underflows a float")
    return MemorySupport(size, r, traj.verdict)


@frozen
class LevelRecord:
    level: int
    residual: tuple[str, ...]  # logical class per block at this level


def classify_error(
    code: StabilizerCode, levels: int, error: Pauli
) -> tuple[str, list[LevelRecord]]:
    """Deterministic decode of a Pauli error through r concatenation levels.

    Qubits are grouped into consecutive blocks of code.n per level; the
    logical class that the code's recovery leaves in each block becomes the
    single-qubit component at the next level.  Correctable iff the final
    residual is logical identity.  Raises ChannelError unless levels >= 0
    and the error acts on n^levels qubits.
    """
    if code.k != 1:
        raise ChannelError("classification requires k=1")
    if not levels >= 0:
        raise ChannelError(f"levels must be >= 0, got {levels}")
    n = code.n
    # too short: n^levels > 2^levels > error.n once levels passes its bit
    # length, so a huge power is never formed
    if n > 1 and (levels > error.n.bit_length() or n**levels > error.n):
        raise ChannelError(f"error must act on {n}^{levels} qubits, got {error.n}")
    if error.n != n**levels:
        raise ChannelError(f"error must act on {n**levels} qubits")
    mask = (1 << n) - 1
    records: list[LevelRecord] = []
    for lvl in range(1, levels + 1):
        blocks = (  # n qubits each, the first block at the top bits
            Pauli(n, error.x >> k & mask, error.z >> k & mask)
            for k in range(error.n - n, -1, -n)
        )
        residual = tuple(code.logical_class(code.recover(b)) for b in blocks)
        records.append(LevelRecord(lvl, residual))
        error = Pauli.from_string("".join(residual))
    verdict = "correctable" if error.weight == 0 else "fatal"
    return verdict, records
