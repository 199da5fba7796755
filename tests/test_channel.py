import dataclasses
import functools
import hashlib
import itertools
import math
import random
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blockspin import channel
from blockspin._value import replace
from blockspin.channel import (
    FAMILY_INVARIANCE_ATOL,
    ChannelError,
    IndeterminateFlowError,
    LogicalActionTable,
    PauliChannel,
    classify_error,
    effective_channel,
    flow,
    linearize,
    memory_support,
    order_parameter,
    sample_effective_channel,
    threshold,
)
from blockspin.codes import _logical_class_index, five_qubit_code, shor_code, steane_code
from blockspin.pauli import Pauli, multiply, random_pauli

CODE = five_qubit_code()

# regression values frozen from the exact recursion on first computation
DEPOLARIZING_THRESHOLD = 0.137724609375
SHOR_DEPOLARIZING_THRESHOLD = 0.077119140625
THRESHOLD_WIDTH = 1e-3
# p* of the (0.01, 0.25) bracket at width 1e-9, frozen bit for bit: each
# bisection step compares a probe's flow verdict, which float rounding in the
# level map must not flip
PINNED_P_STAR = {
    ("five-qubit", "depolarizing"): 0.1376275645196438,
    ("five-qubit", "bit-flip"): 0.1350370110571385,
    ("steane", "depolarizing"): 0.08108189657330513,
    ("steane", "bit-flip"): 0.06459623977541924,
}
# effective_channel against the exact enumerator: each term of the float
# evaluation carries at most 8 roundings (three powers, four products), the
# correctly rounded sums and the normalization a few more; 20 units of 2^-53
LEVEL_MAP_RTOL = 20 * 2.0**-53

BUILDERS = {"five-qubit": five_qubit_code, "steane": steane_code, "shor": shor_code}
# effective_channel against sample_effective_channel: each class frequency
# lies within MC_SIGMAS binomial standard deviations of the exact value, the
# variance floored at that of one count so that classes of probability ~0
# may still be hit once or twice
MC_SIGMAS = 5
MC_SAMPLES = 20_000
# SHA-256 of repr(coeff), repr(exps) and the cls bytes of each code's lookup
# table, frozen from the table that tallied residual classes directly
TABLE_DIGESTS = {
    "five-qubit": (
        "d53974ea5ea137255e651a04df2ca2bcd9e285226a44a87bf383813aee8e3b0a",
        "2f9f13602d51f360492931708481e39502b595770e29d77cad266f8a7faaec7d",
        "51da49f863db70db598d61f68b2a3b6e086545223a03d40d1e8550ec00d097dc",
    ),
    "steane": (
        "4ebae91590bae6fa38c5c22d0d719af971518fef8986a147d9e583bdaec04cab",
        "f5e89dd1844c3d787eea593ad60fa0f054d003ca27e79b6a84c93c403d0093ea",
        "a5bdb64d4cc27a855d813278f658a92fa2f9d3317999816495b2e2ef8d46df5b",
    ),
    "shor": (
        "fa05c00ec821ee433df047e9ecfb961b4c72182ec7215994e49440249f8ff16f",
        "897a0ada8d3c7eece8e00cc854536ae07e143604775d4806580de67dc517f530",
        "85230609b7f4db51fabe67fad768e215a2c1b8fdf1c3e128eae7598e17ef8ff8",
    ),
}


@functools.lru_cache(maxsize=None)
def _oracle_setup(name):
    """A code, its action table and the base-4 digits of every error index."""
    code = BUILDERS[name]()
    n = code.n
    digits = np.arange(4**n)[:, None] // 4 ** np.arange(n - 1, -1, -1) % 4
    return code, LogicalActionTable.build(code), digits


def _brute_force_map(name, p):
    """Unnormalized level map: the probability prod_q p[e_q] of each of the
    4^n errors e, summed per residual logical class (p may be off-simplex).
    fsum keeps the oracle's own rounding far below the tolerances used."""
    _, table, digits = _oracle_setup(name)
    weights = p[digits].prod(axis=1)
    return np.array([math.fsum(weights[table.cls == c]) for c in range(4)])


@st.composite
def channels(draw):
    raw = [draw(st.floats(0.0, 1.0)) for _ in range(4)]
    total = sum(raw)
    if total == 0:
        return PauliChannel.identity()
    return PauliChannel(*(v / total for v in raw))


class TestPauliChannel:
    def test_constructors(self):
        assert PauliChannel.identity().as_array().tolist() == [1, 0, 0, 0]
        assert np.allclose(PauliChannel.uniform().as_array(), 0.25)
        d = PauliChannel.depolarizing(0.3)
        assert np.allclose(d.as_array(), [0.7, 0.1, 0.1, 0.1])
        b = PauliChannel.bit_flip(0.2)
        assert np.allclose(b.as_array(), [0.8, 0.2, 0.0, 0.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", range(4))
    def test_non_finite_refused(self, bad, slot):
        probs = [0.25] * 4
        probs[slot] = bad
        with pytest.raises(ChannelError, match="non-finite"):
            PauliChannel(*probs)

    def test_normalization_enforced(self):
        with pytest.raises(ChannelError):
            PauliChannel(0.5, 0.5, 0.5, 0.5)
        with pytest.raises(ChannelError):
            PauliChannel(1.1, 0.0, 0.0, -0.1)

    def test_quality_extremes(self):
        assert PauliChannel.identity().quality() == pytest.approx(1.0)
        assert PauliChannel.uniform().quality() == pytest.approx(-1.0, abs=1e-12)


class TestEffectiveChannel:
    def test_identity_fixed_point(self):
        out = effective_channel(CODE, PauliChannel.identity())
        assert out == PauliChannel.identity()

    def test_uniform_fixed_point(self):
        out = effective_channel(CODE, PauliChannel.uniform())
        assert np.allclose(out.as_array(), 0.25, atol=1e-15)

    def test_probability_conservation(self):
        out = effective_channel(CODE, PauliChannel.depolarizing(0.1))
        assert out.as_array().sum() == pytest.approx(1.0, abs=1e-14)

    @given(channels())
    @settings(max_examples=30, deadline=None)
    def test_valid_channel_out(self, ch):
        out = effective_channel(CODE, ch)
        arr = out.as_array()
        assert np.all(arr >= -1e-15)
        assert arr.sum() == pytest.approx(1.0, abs=1e-12)

    def test_infidelity_quadratic_slope(self):
        ps = np.logspace(-4, -3, 6)
        logi = [
            math.log(effective_channel(CODE, PauliChannel.depolarizing(p))
                     .error_probability())
            for p in ps
        ]
        slope = np.polyfit(np.log(ps), logi, 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)

    def test_monte_carlo_agreement(self):
        ch = PauliChannel.depolarizing(0.1)
        exact = effective_channel(CODE, ch).as_array()
        n = 10**6
        mc = sample_effective_channel(CODE, ch, n, seed=7)
        sigma = np.sqrt(exact * (1 - exact) / n)
        assert np.all(np.abs(mc - exact) <= 4 * sigma + 1e-12)


    @pytest.mark.parametrize("name", sorted(BUILDERS))
    @given(ch=channels())
    @settings(max_examples=8, deadline=None, derandomize=True)
    def test_monte_carlo_band(self, name, ch):
        code = _oracle_setup(name)[0]
        exact = np.array(effective_channel(code, ch).probs)
        mc = sample_effective_channel(code, ch, MC_SAMPLES, seed=3)
        var = np.maximum(exact * (1 - exact), 1 / MC_SAMPLES) / MC_SAMPLES
        assert np.all(np.abs(mc - exact) <= MC_SIGMAS * np.sqrt(var))

    def test_recovery_variant_gets_its_own_channel(self):
        # a code derived with another recovery gets its own action table,
        # not a stale one, and the original keeps its channel
        code = five_qubit_code()
        ch = PauliChannel.depolarizing(0.1)
        before = effective_channel(code, ch)
        table = dict(code.recovery_table)
        s = 0b0001
        table[s] = multiply(code.logical_x[0], table[s])
        variant = replace(code, recovery_table=table)
        fresh = LogicalActionTable.build(variant)
        assert variant.action_table == fresh
        p = ch.as_array()
        poly = np.array(fresh.coeff) @ np.prod(p ** np.array(fresh.exps), axis=1)
        got = effective_channel(variant, ch).as_array()
        np.testing.assert_allclose(got, poly / poly.sum(), rtol=0, atol=1e-15)
        assert np.abs(got - before.as_array()).max() > 0.01
        assert effective_channel(code, ch) == before


class TestSignatureTable:
    def test_enumerator_matches_brute_force(self):
        # every five-qubit error's word from its own syndrome, composition
        # and class index, in base-4 index order
        code = five_qubit_code()
        words = []
        for letters in itertools.product("IXYZ", repeat=5):
            e = Pauli.from_string("".join(letters))
            key = (letters.count("X") * 6 + letters.count("Y")) * 6 + letters.count("Z")
            words.append(code.syndrome(e) << channel.SYNDROME_SHIFT | key << 2
                         | _logical_class_index(code, e))
        table = code.action_table
        assert list(table.words) == words
        assert table.enumerator == Counter(words)

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_each_syndrome_holds_its_share_of_the_errors(self, name):
        code = _oracle_setup(name)[0]
        per_syndrome = Counter()
        for w, count in code.action_table.enumerator.items():
            per_syndrome[w >> channel.SYNDROME_SHIFT] += count
        r = code.n - code.k
        assert per_syndrome == dict.fromkeys(range(2**r), 4**code.n // 2**r)

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_lookup_view_is_pinned(self, name):
        code, table, _ = _oracle_setup(name)
        got = (repr(table.coeff).encode(), repr(table.exps).encode(), table.cls.tobytes())
        assert tuple(hashlib.sha256(b).hexdigest() for b in got) == TABLE_DIGESTS[name]
        assert table.cls.size == 4**code.n

    def test_recovery_variant_changes_only_the_shifts(self):
        # the signature table holds no decoder: a variant that differs only
        # in its recovery tallies the same words, and shifts their classes
        code = five_qubit_code()
        table = dict(code.recovery_table)
        table[0b0001] = multiply(code.logical_x[0], table[0b0001])
        variant = replace(code, recovery_table=table)
        ours, theirs = code.action_table, variant.action_table
        assert theirs.words == ours.words and theirs.enumerator == ours.enumerator
        assert [s for s in range(16) if theirs.shifts[s] != ours.shifts[s]] == [0b0001]
        assert theirs.coeff != ours.coeff

    def test_signature_table_is_read_only(self):
        table = five_qubit_code().action_table
        with pytest.raises(TypeError):
            table.words[0] = 1
        with pytest.raises(TypeError):
            table.enumerator[0] = 1
        with pytest.raises(ValueError):
            table.cls[0] = 1
        assert type(table.shifts) is bytes

    def test_other_logical_x_gets_its_own_signature_table(self):
        # Xbar times a check acts alike on the code space but pairs
        # differently with the errors, so its raw class indices differ; the
        # recovery's indices differ alike, and the lookup channel is the same
        code = five_qubit_code()
        logical_x = multiply(code.logical_x[0], code.stabilizer.generators[0])
        variant = replace(code, logical_x=(logical_x,))
        ours, theirs = code.action_table, variant.action_table
        assert theirs.words != ours.words
        assert theirs.coeff == ours.coeff
        assert np.array_equal(theirs.cls, ours.cls)


class TestWeightEnumerator:
    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_class_sums_are_multinomials(self, name):
        code, table, _ = _oracle_setup(name)
        n = code.n
        assert len(table.exps) == math.comb(n + 3, 3)
        assert all(sum(row) == n for row in table.exps)
        for row, total in zip(table.exps, map(sum, zip(*table.coeff))):
            assert total == math.factorial(n) // math.prod(map(math.factorial, row))

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    @given(ch=channels())
    @settings(max_examples=15, deadline=None)
    def test_polynomial_matches_brute_force(self, name, ch):
        code, table, _ = _oracle_setup(name)
        p = ch.as_array()
        oracle = _brute_force_map(name, p)
        poly = np.array(table.coeff) @ np.prod(p ** np.array(table.exps), axis=1)
        np.testing.assert_allclose(poly, oracle, rtol=0, atol=1e-13)
        np.testing.assert_allclose(
            effective_channel(code, ch).as_array(),
            oracle / oracle.sum(),
            rtol=0,
            atol=1e-13,
        )

    @pytest.mark.parametrize(
        "name, counts",
        [
            ("five-qubit", {1: [15, 0, 0, 0], 2: [0, 30, 30, 30]}),
            ("steane", {1: [21, 0, 0, 0], 2: [42, 49, 49, 49]}),
        ],
    )
    def test_class_counts_by_weight(self, name, counts):
        code, table, _ = _oracle_setup(name)
        weight = code.n - np.array(table.exps)[:, 0]
        for w, expected in counts.items():
            assert np.array(table.coeff)[:, weight == w].sum(axis=1).tolist() == expected

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_level_map_matches_exact_enumerator(self, name):
        """effective_channel against the integer enumerator evaluated in
        exact rationals at the same float inputs, normalized exactly."""
        code, table, _ = _oracle_setup(name)
        rng = np.random.default_rng(17)
        cases = [rng.dirichlet(np.ones(4)) ** 3 for _ in range(40)]
        cases += [[0.9, 0.1, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5]]
        for raw in cases:
            ch = PauliChannel(*map(float, np.asarray(raw) / np.sum(raw)))
            p = [Fraction(v) for v in ch.probs]
            monomials = [math.prod(v**e for v, e in zip(p, row)) for row in table.exps]
            exact = [sum(c * m for c, m in zip(row, monomials)) for row in table.coeff]
            for got, want in zip(effective_channel(code, ch).probs, exact):
                want /= sum(exact)
                assert abs(Fraction(got) - want) <= LEVEL_MAP_RTOL * want

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_linearize_matches_central_differences(self, name):
        code, _, _ = _oracle_setup(name)
        rng = np.random.default_rng(11)
        h = 1e-6
        for _ in range(3):
            p = rng.dirichlet(np.ones(4))
            jac = np.zeros((3, 3))
            for j in range(1, 4):
                step = np.zeros(4)
                step[j], step[0] = h, -h
                up = _brute_force_map(name, p + step)
                down = _brute_force_map(name, p - step)
                jac[:, j - 1] = (up - down)[1:] / (2 * h)
            fd = sorted(np.linalg.eigvals(jac), key=lambda v: -abs(v))
            exact = [ev for ev, _ in linearize(code, PauliChannel(*map(float, p)))]
            # atol: central differences round to about eps / h = 1e-10
            np.testing.assert_allclose(exact, fd, rtol=1e-6, atol=1e-9)


class TestFlow:
    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"max_levels": -1}, "max_levels"),
            ({"tol": 0.0}, "tol"),
            ({"tol": -1e-12}, "tol"),
            ({"tol": math.nan}, "tol"),
        ],
    )
    def test_meaningless_parameters_refused(self, kwargs, match):
        with pytest.raises(ChannelError, match=match):
            flow(CODE, PauliChannel.depolarizing(0.1), **kwargs)

    def test_trajectory_is_frozen(self):
        traj = flow(CODE, PauliChannel.depolarizing(0.05))
        assert isinstance(traj.levels, tuple) and len(traj.levels) > 2
        with pytest.raises(dataclasses.FrozenInstanceError):
            traj.verdict = "max-iterations"
        with pytest.raises(dataclasses.FrozenInstanceError):
            traj.levels = ()

    def test_identity_input(self):
        traj = flow(CODE, PauliChannel.identity())
        assert traj.verdict == "converged-to-identity"
        assert len(traj.levels) == 1

    def test_below_threshold(self):
        traj = flow(CODE, PauliChannel.depolarizing(0.01))
        assert traj.verdict == "converged-to-identity"
        assert len(traj.levels) - 1 <= 8

    def test_above_threshold(self):
        traj = flow(CODE, PauliChannel.depolarizing(0.3))
        assert traj.verdict == "converged-to-noise"

    def test_quality_monotone_on_resolved_flows(self):
        for p, increasing in [(0.01, True), (0.3, False)]:
            traj = flow(CODE, PauliChannel.depolarizing(p))
            qs = [q for _, _, q in traj.levels]
            diffs = np.diff(qs)
            if increasing:
                assert np.all(diffs >= -1e-12)
            else:
                assert np.all(diffs <= 1e-12)


class TestFixedPointVerdict:
    """A deterministic logical Pauli is mapped exactly onto itself: the flow
    stops after one level, and neither basin is claimed for it."""

    CASES = list(itertools.product(("five-qubit", "steane"), "XYZ"))

    @staticmethod
    def _pauli_channel(letter):
        probs = [0.0] * 4
        probs["IXYZ".index(letter)] = 1.0
        return PauliChannel(*probs)

    @pytest.mark.parametrize("name, letter", CASES)
    def test_flow_names_fixed_point(self, name, letter):
        code, _, _ = _oracle_setup(name)
        ch = self._pauli_channel(letter)
        traj = flow(code, ch)
        assert traj.verdict == "converged-to-fixed-point"
        assert len(traj.levels) - 1 == 1
        assert traj.levels[-1][1] == ch

    @pytest.mark.parametrize("name, letter", CASES)
    def test_order_parameter_and_memory_support_refuse(self, name, letter):
        code, _, _ = _oracle_setup(name)
        ch = self._pauli_channel(letter)
        for call in (lambda: order_parameter(code, ch),
                     lambda: memory_support(code, ch, 0.5)):
            with pytest.raises(ChannelError, match="fixed channel") as info:
                call()
            assert not isinstance(info.value, IndeterminateFlowError)
            assert repr(ch) in str(info.value)


def _reference_threshold(code, family, p_lo, p_hi, width=1e-3, max_levels=200):
    """The bisection that flows every probe to an attractor (the oracle for
    `threshold`); it calls `channel.order_parameter` through the module, so
    a monkeypatched counter sees its calls too."""
    if not p_lo < p_hi:
        raise ChannelError(f"invalid bracket ({p_lo}, {p_hi})")
    if not width > 0:
        raise ChannelError(f"width must be > 0, got {width}")
    if channel.order_parameter(code, family(p_lo), max_levels) != 1:
        raise ChannelError(f"order parameter at p_lo={p_lo} is not 1")
    if channel.order_parameter(code, family(p_hi), max_levels) != 0:
        raise ChannelError(f"order parameter at p_hi={p_hi} is not 0")
    lo, hi = p_lo, p_hi
    while hi - lo >= width:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            raise ChannelError(
                f"width {width} is below the float resolution of the bracket "
                f"({lo}, {hi})"
            )
        try:
            if channel.order_parameter(code, family(mid), max_levels) == 1:
                lo = mid
            else:
                hi = mid
        except IndeterminateFlowError:
            raise IndeterminateFlowError(
                f"indeterminate at p={mid} with bracket ({lo}, {hi})"
            ) from None
    return 0.5 * (lo + hi)


def _outcome(fn, *args, **kwargs):
    """The value, or the exact error class and message, of one call."""
    try:
        return fn(*args, **kwargs)
    except ChannelError as exc:
        return type(exc), str(exc)


FAMILIES = {"depolarizing": PauliChannel.depolarizing, "bit-flip": PauliChannel.bit_flip}
INVARIANT_PAIRS = [("five-qubit", "depolarizing"), ("steane", "depolarizing"),
                   ("steane", "bit-flip"), ("shor", "bit-flip")]
NON_INVARIANT_PAIRS = [("five-qubit", "bit-flip"), ("shor", "depolarizing")]


def _brackets(seed, count):
    """Brackets drawn as the benchmark's threshold jobs draw them."""
    rng = random.Random(seed)
    return [(round(rng.uniform(0.005, 0.03), 6), round(rng.uniform(0.2, 0.3), 6))
            for _ in range(count)]


@pytest.fixture
def order_parameter_calls(monkeypatch):
    calls = []
    real = channel.order_parameter

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(channel, "order_parameter", counted)
    return calls


class TestThresholdReplay:
    @pytest.mark.parametrize("width", [1e-3, 1e-6, 1e-9, 1e-12])
    @pytest.mark.parametrize("pair", INVARIANT_PAIRS)
    def test_bit_identical_to_flow_bisection(self, pair, width):
        code, _, _ = _oracle_setup(pair[0])
        family = FAMILIES[pair[1]]
        for p_lo, p_hi in _brackets(f"{pair} {width}", 3):
            got = _outcome(threshold, code, family, p_lo, p_hi, width=width)
            want = _outcome(_reference_threshold, code, family, p_lo, p_hi, width=width)
            assert got == want, (p_lo, p_hi)

    @pytest.mark.parametrize("max_levels", [1, 5, 200])
    @pytest.mark.parametrize("pair", [("five-qubit", "depolarizing"), ("steane", "bit-flip")])
    def test_level_cap_gives_the_same_value_or_error(self, pair, max_levels):
        code, _, _ = _oracle_setup(pair[0])
        family = FAMILIES[pair[1]]
        for p_lo, p_hi in [(0.01, 0.25), *_brackets(max_levels, 2)]:
            args = (code, family, p_lo, p_hi)
            kwargs = {"width": 1e-9, "max_levels": max_levels}
            assert _outcome(threshold, *args, **kwargs) == _outcome(
                _reference_threshold, *args, **kwargs)

    @pytest.mark.parametrize("pair", INVARIANT_PAIRS)
    def test_float_resolution_error_unchanged(self, pair):
        code, _, _ = _oracle_setup(pair[0])
        args = (code, FAMILIES[pair[1]], 0.01, 0.3)
        got = _outcome(threshold, *args, width=1e-20)
        assert got == _outcome(_reference_threshold, *args, width=1e-20)
        assert got[0] is ChannelError and "float resolution" in got[1]

    @pytest.mark.parametrize("pair", INVARIANT_PAIRS)
    def test_invariant_family_flows_only_the_ends(self, pair, order_parameter_calls):
        code, _, _ = _oracle_setup(pair[0])
        threshold(code, FAMILIES[pair[1]], 0.01, 0.25, width=1e-9)
        assert len(order_parameter_calls) == 4  # two endpoints, two confirmations

    @pytest.mark.parametrize("pair", NON_INVARIANT_PAIRS)
    def test_non_invariant_family_flows_every_probe(self, pair, order_parameter_calls):
        code, _, _ = _oracle_setup(pair[0])
        family = FAMILIES[pair[1]]
        p_star = threshold(code, family, 0.01, 0.25, width=1e-6)
        probes = list(order_parameter_calls)
        order_parameter_calls.clear()
        assert p_star == _reference_threshold(code, family, 0.01, 0.25, width=1e-6)
        assert probes == order_parameter_calls
        assert len(probes) == 2 + math.ceil(math.log2(0.24 / 1e-6))

    @pytest.mark.parametrize("pair", INVARIANT_PAIRS + NON_INVARIANT_PAIRS)
    def test_invariance_gap_far_from_the_tolerance(self, pair):
        """One level misses an invariant family by rounding only and a
        non-invariant one by far more than FAMILY_INVARIANCE_ATOL."""
        code, _, _ = _oracle_setup(pair[0])
        family = FAMILIES[pair[1]]
        for p in (0.03 + 0.01 * i for i in range(28)):
            out = effective_channel(code, family(p))
            back = family(out.error_probability())
            gap = max(abs(a - b) for a, b in zip(out.probs, back.probs))
            if pair in INVARIANT_PAIRS:
                assert gap <= 2 * 2.0**-53 < FAMILY_INVARIANCE_ATOL, (p, gap)
            else:
                assert gap >= 3.6e-3 > FAMILY_INVARIANCE_ATOL, (p, gap)

    def test_wrong_replay_is_redone_with_flows(self, monkeypatch, order_parameter_calls):
        """A level map that misjudges every probe near p* in the replay (but
        not inside flows) fails the confirmation; the redo flows every probe
        and returns the reference value."""
        code, _, _ = _oracle_setup("steane")
        family = PauliChannel.depolarizing
        p_star = PINNED_P_STAR["steane", "depolarizing"]
        real = channel.effective_channel

        def misjudging(code, ch):
            out = real(code, ch)
            p = ch.error_probability()
            if sys._getframe(1).f_code.co_name != "flow" and abs(p - p_star) < 1e-3:
                return family(2 * p - out.error_probability())  # g(p) - p flips sign
            return out

        monkeypatch.setattr(channel, "effective_channel", misjudging)
        got = threshold(code, family, 0.01, 0.25, width=1e-9)
        monkeypatch.setattr(channel, "effective_channel", real)
        calls = list(order_parameter_calls)
        order_parameter_calls.clear()
        assert got == _reference_threshold(code, family, 0.01, 0.25, width=1e-9)
        assert got == p_star
        # the endpoints, one or two failed confirmations, then the reference probes
        ref = order_parameter_calls
        assert calls[:2] == ref[:2] and calls[-(len(ref) - 2):] == ref[2:]
        assert len(calls) - len(ref) in (1, 2)

    def test_steane_call_count(self, monkeypatch):
        code, _, _ = _oracle_setup("steane")
        calls = []
        real = channel.effective_channel

        def counted(code, ch):
            calls.append(ch)
            return real(code, ch)

        monkeypatch.setattr(channel, "effective_channel", counted)
        p = threshold(code, PauliChannel.depolarizing, 0.01, 0.25, width=1e-9)
        assert p == PINNED_P_STAR["steane", "depolarizing"]
        assert len(calls) <= 150  # a flow per probe makes 683


class TestOrderParameterAndThreshold:
    def test_endpoints(self):
        assert order_parameter(CODE, PauliChannel.depolarizing(0.0)) == 1
        assert order_parameter(CODE, PauliChannel.depolarizing(0.01)) == 1
        assert order_parameter(CODE, PauliChannel.depolarizing(0.3)) == 0

    def test_depolarizing_threshold(self):
        p1 = threshold(CODE, PauliChannel.depolarizing, 0.01, 0.3)
        p2 = threshold(CODE, PauliChannel.depolarizing, 0.01, 0.3)
        assert p1 == p2  # deterministic recursion
        assert 0.05 < p1 < 0.25
        assert p1 == pytest.approx(DEPOLARIZING_THRESHOLD, abs=THRESHOLD_WIDTH)

    def test_bit_flip_threshold_differs(self):
        p_dep = threshold(CODE, PauliChannel.depolarizing, 0.01, 0.3)
        p_bf = threshold(CODE, PauliChannel.bit_flip, 0.01, 0.45)
        assert abs(p_bf - p_dep) > THRESHOLD_WIDTH

    def test_shor_depolarizing_threshold(self):
        code, _, _ = _oracle_setup("shor")
        p = threshold(code, PauliChannel.depolarizing, 0.01, 0.3, width=THRESHOLD_WIDTH)
        assert p == pytest.approx(SHOR_DEPOLARIZING_THRESHOLD, abs=1e-12)

    def test_invalid_bracket(self):
        with pytest.raises(ChannelError):
            threshold(CODE, PauliChannel.depolarizing, 0.3, 0.01)

    @pytest.mark.parametrize("width", [0.0, -1.0, float("nan")])
    def test_non_positive_width_refused(self, width):
        with pytest.raises(ChannelError, match="width must be > 0"):
            threshold(CODE, PauliChannel.depolarizing, 0.01, 0.3, width=width)

    @pytest.mark.parametrize("pair", sorted(PINNED_P_STAR))
    def test_pinned_thresholds_bit_identical(self, pair):
        name, family = pair
        code, _, _ = _oracle_setup(name)
        ch = {"depolarizing": PauliChannel.depolarizing, "bit-flip": PauliChannel.bit_flip}
        p = threshold(code, ch[family], 0.01, 0.25, width=1e-9)
        assert p == PINNED_P_STAR[pair]

    def test_width_below_float_resolution_refused(self):
        with pytest.raises(ChannelError, match="float resolution"):
            threshold(CODE, PauliChannel.depolarizing, 0.01, 0.3, width=1e-20)


class TestLinearize:
    def test_identity_super_attractive(self):
        evals = linearize(CODE, PauliChannel.identity())
        assert all(abs(ev) < 1e-4 for ev, _ in evals)
        assert all(tag == "irrelevant" for _, tag in evals)

    def test_threshold_has_relevant_direction(self):
        p_star = threshold(CODE, PauliChannel.depolarizing, 0.01, 0.3)
        evals = linearize(CODE, PauliChannel.depolarizing(p_star))
        assert any(abs(ev) > 1.0 for ev, _ in evals)
        assert evals[0][1] == "relevant"

    def test_uniform_attracting(self):
        evals = linearize(CODE, PauliChannel.uniform())
        assert all(abs(ev) < 1.0 for ev, _ in evals)


class TestMemorySupport:
    def test_below_threshold_infinite(self):
        for eps in (0.1, 0.5, 0.9):
            ms = memory_support(CODE, PauliChannel.depolarizing(0.01), eps)
            assert ms.infinite

    def test_result_is_frozen(self):
        ms = memory_support(CODE, PauliChannel.depolarizing(0.3), 0.5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            ms.r_star = 0

    def test_uniform_immediate(self):
        ms = memory_support(CODE, PauliChannel.uniform(), 0.5)
        assert not ms.infinite
        assert ms.r_star == 0
        assert ms.size == 1.0

    def test_above_threshold_finite(self):
        ms = memory_support(CODE, PauliChannel.depolarizing(0.3), 0.5)
        assert not ms.infinite
        assert ms.size == 5.0**ms.r_star

    def test_r_star_nonincreasing_in_epsilon(self):
        ch = PauliChannel.depolarizing(0.2)
        rs = [
            memory_support(CODE, ch, eps).r_star
            for eps in (0.1, 0.3, 0.5, 0.7, 0.9)
        ]
        rs = [r for r in rs if r is not None]
        assert rs == sorted(rs, reverse=True)

    def test_lattice_scaling(self):
        ms1 = memory_support(CODE, PauliChannel.depolarizing(0.3), 0.5, L=1, d=2)
        ms2 = memory_support(CODE, PauliChannel.depolarizing(0.3), 0.5, L=3, d=2)
        assert ms2.size == pytest.approx(9 * ms1.size)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"L": -2.0}, "lattice spacing"),
            ({"L": 0.0}, "lattice spacing"),
            ({"L": math.inf}, "lattice spacing"),
            ({"L": math.nan}, "lattice spacing"),
            ({"d": 0}, "dimension"),
        ],
    )
    def test_meaningless_lattice_refused(self, kwargs, match):
        with pytest.raises(ChannelError, match=match):
            memory_support(CODE, PauliChannel.depolarizing(0.3), 0.5, **kwargs)

    def test_invalid_epsilon(self):
        with pytest.raises(ChannelError):
            memory_support(CODE, PauliChannel.uniform(), 1.5)


class TestClassifyError:
    def test_table_route_matches_logical_class(self):
        """The action table, which sample_effective_channel reads, holds
        logical_class(recover(e)) at each error's base-4 index, on every
        five-qubit error and on a seeded sample of Steane errors."""
        five = [Pauli.from_string("".join(s))
                for s in itertools.product("IXYZ", repeat=5)]
        steane = steane_code()
        rng = np.random.default_rng(3)
        sample = [random_pauli(rng, 7) for _ in range(400)]
        digits = str.maketrans("IXYZ", "0123")
        for code, errors in ((CODE, five), (steane, sample)):
            classes = code.action_table.cls
            for e in errors:
                index = int(e.to_string().lstrip("+-i").translate(digits), 4)
                assert "IXYZ"[classes[index]] == code.logical_class(code.recover(e))

    def test_builds_no_action_table(self):
        code = steane_code()
        e = random_pauli(np.random.default_rng(5), 7**3)
        classify_error(code, 3, e)
        assert "action_table" not in vars(code)

    def test_partial_recovery_table_classifies_the_syndromes_it_keeps(self):
        # the table refuses a code whose recovery is not tabulated for every
        # syndrome; block by block recovery needs only the syndromes it meets
        steane = steane_code()
        singles = [Pauli.from_string("I" * q + "X" + "I" * (6 - q)) for q in range(7)]
        kept = {steane.syndrome(p) for p in [Pauli.identity(7), *singles]}
        code = replace(steane, recovery_table={
            s: steane.recovery_table[s] for s in kept
        })
        with pytest.raises(ChannelError, match="incomplete recovery table"):
            code.action_table
        e = ["I"] * 49
        e[3], e[4 * 7 + 5] = "X", "X"
        verdict, records = classify_error(code, 2, Pauli.from_string("".join(e)))
        assert verdict == "correctable"
        assert [r.residual for r in records] == [("I",) * 7, ("I",)]

    def test_records_are_frozen(self):
        _, records = classify_error(CODE, 2, Pauli.identity(25))
        assert records[0].residual == ("I",) * 5
        with pytest.raises(dataclasses.FrozenInstanceError):
            records[0].residual = ()

    def test_identity_error(self):
        verdict, records = classify_error(CODE, 2, Pauli.identity(25))
        assert verdict == "correctable"
        assert all(r == "I" for rec in records for r in rec.residual)

    def test_single_x_corrected_at_level_one(self):
        s = ["I"] * 25
        s[7] = "X"
        verdict, records = classify_error(CODE, 2, Pauli.from_string("".join(s)))
        assert verdict == "correctable"
        assert records[0].residual == ("I",) * 5
        assert records[1].residual == ("I",)

    def test_in_block_logical_flip_corrected_next_level(self):
        # a weight-2 error in the first block that decodes to a logical
        s = ["I"] * 25
        s[0] = "X"
        s[1] = "X"
        verdict, records = classify_error(CODE, 2, Pauli.from_string("".join(s)))
        assert records[0].residual[0] != "I"
        assert records[0].residual[1:] == ("I",) * 4
        assert verdict == "correctable"
        assert records[1].residual == ("I",)

    def test_length_check(self):
        with pytest.raises(ChannelError):
            classify_error(CODE, 2, Pauli.identity(24))

    def test_negative_levels_refused(self):
        with pytest.raises(ChannelError, match=r"^levels must be >= 0, got -1$"):
            classify_error(CODE, -1, Pauli.identity(1))

    @pytest.mark.parametrize("letter, verdict",
                             [("I", "correctable"), ("X", "fatal"), ("Z", "fatal")])
    def test_level_zero_reads_the_error_itself(self, letter, verdict):
        assert classify_error(CODE, 0, Pauli.from_string(letter)) == (verdict, [])
