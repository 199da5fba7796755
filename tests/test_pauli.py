import dataclasses
import itertools
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from blockspin import pauli
from blockspin.pauli import (
    DENSE_QUBIT_CAP,
    MinusIdentityError,
    Pauli,
    PauliError,
    StabilizerGroup,
    _region_entropies,
    canonicalize,
    commutes,
    contains,
    gf2_rank,
    inverse,
    multiply,
    random_pauli,
    stabilizer_entropy,
)

FIVE_QUBIT_GENS = ["ZZXIX", "XZZXI", "IXZZX", "XIXZZ"]


def pack(bits) -> int:
    """A 0/1 row as an int, element 0 at the most significant bit."""
    return int("".join(str(int(b)) for b in bits) or "0", 2)


def from_bits(x, z, e: int = 0) -> Pauli:
    """The Pauli i^e X^x Z^z of two equal-length 0/1 rows, qubit 0 first."""
    assert len(x) == len(z)
    return Pauli(len(x), pack(x), pack(z), e)


def dense(p: Pauli) -> np.ndarray:
    """The dense oracle: i^e times the Kronecker product of the per-qubit
    factors X^x Z^z, qubit 0 first (the most significant index bit)."""
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    Z = np.array([[1, 0], [0, -1]], dtype=complex)
    out = np.array([[1]], dtype=complex)
    for bit in range(p.n - 1, -1, -1):
        m = np.eye(2, dtype=complex)
        if p.x >> bit & 1:
            m = X @ m
        if p.z >> bit & 1:
            m = m @ Z
        out = np.kron(out, m)
    return (1j**p.phase_exp) * out


@st.composite
def paulis(draw, n=None):
    if n is None:
        n = draw(st.integers(1, 5))
    x = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    z = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return from_bits(x, z, draw(st.integers(0, 3)))


class TestMultiply:
    def test_example_pair_against_dense_oracle(self):
        p = Pauli.from_string("ZZXIX")
        q = Pauli.from_string("XZZXI")
        prod = multiply(p, q)
        expected = dense(p) @ dense(q)
        assert np.allclose(dense(prod), expected)
        # frozen from the dense oracle: Y I Y X X with phase +1
        assert prod.to_string() == "YIYXX"

    def test_identity_neutral(self):
        p = Pauli.from_string("-XYZIZ")
        assert multiply(p, Pauli.identity(5)) == p
        assert multiply(Pauli.identity(5), p) == p

    def test_weight3_logical_x_identity(self):
        m1 = Pauli.from_string("ZZXIX")
        m2 = Pauli.from_string("XZZXI")
        xbar = Pauli.from_string("XXXXX")
        assert multiply(multiply(m1, m2), xbar) == Pauli.from_string("-ZXZII")

    def test_weight3_logical_z_identity(self):
        m1 = Pauli.from_string("ZZXIX")
        m2 = Pauli.from_string("XZZXI")
        m4 = Pauli.from_string("XIXZZ")
        zbar = Pauli.from_string("ZZZZZ")
        prod = multiply(multiply(multiply(m1, m2), m4), zbar)
        assert prod == Pauli.from_string("-IZIXX")

    def test_length_mismatch(self):
        with pytest.raises(PauliError):
            multiply(Pauli.identity(2), Pauli.identity(3))

    @settings(max_examples=200, deadline=None)
    @given(paulis(), paulis())
    def test_phase_exact_property(self, p, q):
        if p.n != q.n:
            return
        assert np.allclose(dense(multiply(p, q)), dense(p) @ dense(q))

    @settings(max_examples=100, deadline=None)
    @given(paulis())
    def test_inverse(self, p):
        assert multiply(p, inverse(p)) == Pauli.identity(p.n)


class TestCommutes:
    def test_five_qubit_generators_intercommute(self):
        gens = [Pauli.from_string(s) for s in FIVE_QUBIT_GENS]
        for i in range(4):
            for j in range(4):
                assert commutes(gens[i], gens[j])
                a, b = dense(gens[i]), dense(gens[j])
                assert np.allclose(a @ b, b @ a)

    def test_x_z_anticommute(self):
        assert not commutes(Pauli.from_string("X"), Pauli.from_string("Z"))

    @settings(max_examples=200, deadline=None)
    @given(paulis(), paulis())
    def test_matches_dense_commutator(self, p, q):
        if p.n != q.n:
            return
        a, b = dense(p), dense(q)
        assert commutes(p, q) == np.allclose(a @ b - b @ a, 0)


class TestCanonicalize:
    def test_five_qubit_rank(self):
        g = StabilizerGroup(5, [Pauli.from_string(s) for s in FIVE_QUBIT_GENS])
        reduced, rank = canonicalize(g)
        assert rank == 4
        assert gf2_rank(p.row for p in FIVE_QUBIT_GENS_P()) == 4

    def test_duplicate_collapses(self):
        m1 = Pauli.from_string("ZZXIX")
        _, rank = canonicalize(StabilizerGroup(5, [m1, m1]))
        assert rank == 1

    def test_idempotent(self):
        g = StabilizerGroup(5, [Pauli.from_string(s) for s in FIVE_QUBIT_GENS])
        once, _ = canonicalize(g)
        twice, _ = canonicalize(StabilizerGroup(5, once))
        assert once == twice

    def test_minus_identity_detected(self):
        g = StabilizerGroup(1, [Pauli.from_string("Z"), Pauli.from_string("-Z")])
        with pytest.raises(MinusIdentityError):
            canonicalize(g)

    @pytest.mark.parametrize("gens", [["iZ"], ["iZZ", "XX"]])
    def test_non_hermitian_generator_refused(self, gens):
        # (iZ)^2 = -I: a group with a non-Hermitian member stabilizes no state
        ps = [Pauli.from_string(s) for s in gens]
        n = ps[0].n
        with pytest.raises(MinusIdentityError):
            canonicalize(StabilizerGroup(n, ps))
        with pytest.raises(MinusIdentityError):
            contains(StabilizerGroup(n, ps), Pauli.identity(n))
        with pytest.raises(MinusIdentityError):
            stabilizer_entropy(n, ps, [0])


def FIVE_QUBIT_GENS_P():
    return [Pauli.from_string(s) for s in FIVE_QUBIT_GENS]


class TestContains:
    def test_generator_product_member(self):
        g = StabilizerGroup(5, FIVE_QUBIT_GENS_P())
        m1m3 = multiply(Pauli.from_string("ZZXIX"), Pauli.from_string("IXZZX"))
        assert contains(g, m1m3) == ("member", 0)

    def test_logical_x_not_member(self):
        g = StabilizerGroup(5, FIVE_QUBIT_GENS_P())
        status, _ = contains(g, Pauli.from_string("XXXXX"))
        assert status == "not_member"

    def test_negated_generator_up_to_phase(self):
        g = StabilizerGroup(5, FIVE_QUBIT_GENS_P())
        status, phase = contains(g, Pauli.from_string("-ZZXIX"))
        assert status == "member_up_to_phase"
        assert phase == 2

    def test_membership_invariant_under_regeneration(self):
        g = StabilizerGroup(5, FIVE_QUBIT_GENS_P())
        reduced, _ = canonicalize(g)
        g2 = StabilizerGroup(5, reduced)
        m2m4 = multiply(Pauli.from_string("XZZXI"), Pauli.from_string("XIXZZ"))
        assert contains(g2, m2m4) == ("member", 0)


def hermitian(p: Pauli) -> Pauli:
    """p's letters with the phase that makes the operator Hermitian."""
    return Pauli(p.n, p.x, p.z, (p.x & p.z).bit_count() % 2)


@st.composite
def commuting_groups(draw):
    """Commuting Hermitian generators on n <= 4 qubits with random signs.

    Some generators are products of earlier ones, so the generating sets are
    often dependent and a sign flip can put -I into the group.
    """
    n = draw(st.integers(1, 4))
    gens: list[Pauli] = []
    for _ in range(draw(st.integers(1, 5))):
        if gens and draw(st.booleans()):
            p = Pauli.identity(n)
            factors = draw(st.lists(st.sampled_from(gens), min_size=1, max_size=3))
            for g in factors:
                p = multiply(p, g)
        else:
            p = hermitian(draw(paulis(n=n)))
            if not all(commutes(p, g) for g in gens):
                continue
        sign = draw(st.sampled_from([0, 2]))
        gens.append(Pauli(n, p.x, p.z, p.phase_exp + sign))
    return StabilizerGroup(n, gens)


def enumerate_group(group: StabilizerGroup) -> set[Pauli]:
    """Every product of the generators, exact phases, by closure."""
    elements = {Pauli.identity(group.n)}
    frontier = elements
    while frontier:
        products = {multiply(a, g) for a in frontier for g in group.generators}
        frontier = products - elements
        elements |= frontier
    return elements


def has_minus_identity(elements: set[Pauli]) -> bool:
    return any(e.weight == 0 and e.phase_exp != 0 for e in elements)


@st.composite
def pure_states(draw):
    """Generators of a random pure stabilizer state on n <= 4 qubits: the
    Z-basis state rotated by a random circuit of H, S and CNOT gates, whose
    action on the [x|z] bits is exact (phases are irrelevant to entropies),
    with generators multiplied into each other so that one qubit can carry
    X, Y and Z in different rows."""
    n = draw(st.integers(1, 4))
    x = np.zeros((n, n), dtype=np.uint8)
    z = np.eye(n, dtype=np.uint8)
    for _ in range(draw(st.integers(0, 16))):
        gate = draw(st.sampled_from(["H", "S", "CNOT", "product"]))
        q = draw(st.integers(0, n - 1))
        t = (q + draw(st.integers(1, max(n - 1, 1)))) % n
        if gate == "H":
            x[:, q], z[:, q] = z[:, q].copy(), x[:, q].copy()
        elif gate == "S":
            z[:, q] ^= x[:, q]
        elif gate == "CNOT" and t != q:
            x[:, t] ^= x[:, q]
            z[:, q] ^= z[:, t]
        elif gate == "product" and t != q:
            x[t] ^= x[q]
            z[t] ^= z[q]
    return n, [hermitian(from_bits(x[i], z[i])) for i in range(n)]


class TestKernelOracles:
    """canonicalize, contains and gf2_rank against brute-force enumeration."""

    @given(commuting_groups())
    @settings(max_examples=150, deadline=None)
    def test_canonicalize_spans_the_group(self, group):
        elements = enumerate_group(group)
        if has_minus_identity(elements):
            with pytest.raises(MinusIdentityError):
                canonicalize(group)
            return
        reduced, rank = canonicalize(group)
        assert rank == len(reduced)
        assert set(reduced) <= elements
        assert enumerate_group(StabilizerGroup(group.n, reduced)) == elements
        assert len(elements) == 2**rank

    @given(commuting_groups(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_contains_matches_lookup(self, group, data):
        elements = enumerate_group(group)
        assume(not has_minus_identity(elements))

        def lookup(q: Pauli) -> tuple[str, int]:
            for k in range(4):
                if Pauli(q.n, q.x, q.z, q.phase_exp - k) in elements:
                    return ("member", 0) if k == 0 else ("member_up_to_phase", k)
            return ("not_member", 0)

        queries = [Pauli(e.n, e.x, e.z, e.phase_exp + k)
                   for e in elements for k in range(4)]
        queries += data.draw(st.lists(paulis(n=group.n), max_size=8))
        for q in queries:
            assert contains(group, q) == lookup(q)

    @given(pure_states())
    @settings(max_examples=100, deadline=None)
    def test_region_entropies_count_the_local_subgroup(self, state):
        # S(A) = |A| - log2 |S_A|, S_A the group elements supported inside A
        n, gens = state
        bits = {(e.x, e.z) for e in enumerate_group(StabilizerGroup(n, gens))}
        regions = [
            list(r) for k in range(n + 1) for r in itertools.combinations(range(n), k)
        ]
        expected = []
        for region in regions:
            outside = pack(q not in region for q in range(n))
            local = sum(1 for x, z in bits if not (x | z) & outside)
            expected.append(len(region) - int(np.log2(local)))
        assert _region_entropies(StabilizerGroup(n, gens), regions) == expected
        assert [stabilizer_entropy(n, gens, r) for r in regions] == expected

    @pytest.mark.parametrize("region", [[-1], [0, 3]])
    def test_entropy_rejects_qubits_outside_the_state(self, region):
        gens = [Pauli.from_string("ZI"), Pauli.from_string("IZ")]
        with pytest.raises(ValueError, match="region qubits"):
            stabilizer_entropy(2, gens, region)

    def test_entropy_rejects_a_mixed_state(self):
        with pytest.raises(ValueError, match="state is not pure: rank 1 != 2"):
            stabilizer_entropy(2, [Pauli.from_string("ZI")], [0])

    @given(st.integers(0, 6), st.integers(0, 8), st.data())
    @settings(max_examples=150, deadline=None)
    def test_rank_is_log_of_span_size(self, rows, cols, data):
        bits = st.lists(st.integers(0, 1), min_size=cols, max_size=cols)
        mat = np.array(data.draw(st.lists(bits, min_size=rows, max_size=rows)),
                       dtype=np.uint8).reshape(rows, cols)
        span = {tuple(np.array(c, dtype=np.uint8) @ mat % 2)
                for c in itertools.product((0, 1), repeat=rows)}
        assert 2 ** gf2_rank([pack(r) for r in mat]) == len(span)


class TestTextForm:
    @settings(max_examples=100, deadline=None)
    @given(paulis())
    def test_roundtrip(self, p):
        assert Pauli.from_string(p.to_string()) == p

    @pytest.mark.parametrize("n", range(71))
    def test_letters_match_the_per_qubit_reference(self, n):
        rng = random.Random(n)
        full = (1 << n) - 1
        pairs = [(0, 0), (full, 0), (0, full), (full, full)]
        pairs += [(rng.getrandbits(n), rng.getrandbits(n)) for _ in range(8)]
        for (x, z), e in itertools.product(pairs, range(4)):
            p = Pauli(n, x, z, e)
            qubits = range(n - 1, -1, -1)  # qubit 0 at the top bit
            letters = "".join("IZXY"[2 * (x >> k & 1) + (z >> k & 1)] for k in qubits)
            head = {0: "", 1: "i", 2: "-", 3: "-i"}[(e - (x & z).bit_count()) % 4]
            assert p.to_string() == head + letters
            assert Pauli.from_string(p.to_string()) == p

    @pytest.mark.parametrize("text, phase", [("", 0), ("+", 0), ("i", 1), ("-", 2), ("-i", 3)])
    def test_phase_with_no_letters_is_the_n0_pauli(self, text, phase):
        p = Pauli.from_string(text)
        assert (p.n, p.x, p.z, p.phase_exp) == (0, 0, 0, phase)
        assert p == Pauli(0, 0, 0, phase)

    @pytest.mark.parametrize("text", ["ii", "i-", "--", "-+", "iI-", "x", "I X"])
    def test_malformed_text_refused(self, text):
        with pytest.raises(PauliError, match="invalid Pauli string"):
            Pauli.from_string(text)

    def test_signs(self):
        assert Pauli.from_string("-ZXZII").to_string() == "-ZXZII"
        assert Pauli.from_string("Y").phase_exp == 1
        assert Pauli.from_string("iX").to_string() == "iX"

    @pytest.mark.parametrize("x, z", [(7, 0), (0, -1)], ids=["oversized", "negative"])
    def test_bits_outside_n_qubits_refused(self, x, z):
        with pytest.raises(PauliError, match="do not fit in 2 qubits"):
            Pauli(2, x, z)


class TestDenseForm:
    """to_matrix's scatter against the Kronecker-product oracle, bit for bit."""

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_every_small_pauli_in_every_phase(self, n):
        for x, z, e in itertools.product(range(2**n), range(2**n), range(4)):
            p = Pauli(n, x, z, e)
            assert np.array_equal(p.to_matrix(), dense(p))

    def test_seeded_paulis_up_to_six_qubits(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            p = random_pauli(rng, int(rng.integers(0, 7)))
            assert np.array_equal(p.to_matrix(), dense(p))

    def test_above_the_dense_cap_refused(self):
        assert DENSE_QUBIT_CAP == 12
        with pytest.raises(PauliError, match="dense form limited to n <= 12"):
            Pauli.identity(DENSE_QUBIT_CAP + 1).to_matrix()


class TestApply:
    def test_apply_matches_matrix(self):
        # against the Kronecker oracle: to_matrix shares apply's formula
        rng = np.random.default_rng(7)
        for n in range(1, 7):
            paulis = [random_pauli(rng, n) for _ in range(20)]
            assert {p.phase_exp for p in paulis} == {0, 1, 2, 3}
            for p in paulis:
                v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
                assert np.allclose(p.apply(v), dense(p) @ v)


class TestFrozenGroup:
    def test_assignment_refused(self):
        g = StabilizerGroup(5, FIVE_QUBIT_GENS_P())
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.generators = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.n = 4

    def test_generators_copied_into_a_tuple(self):
        gens = FIVE_QUBIT_GENS_P()
        g = StabilizerGroup(5, gens)
        gens.pop()
        assert g.generators == tuple(FIVE_QUBIT_GENS_P())

    def test_one_elimination_per_group(self, monkeypatch):
        calls = []
        real = pauli._rref
        monkeypatch.setattr(
            pauli, "_rref", lambda *a, **k: calls.append(1) or real(*a, **k)
        )
        g = StabilizerGroup(5, FIVE_QUBIT_GENS_P())
        reduced, rank = canonicalize(g)
        for s in FIVE_QUBIT_GENS[:3] + ["XXXXX", "-ZZXIX", "ZIIII"] * 2 + ["IIIII"]:
            contains(g, Pauli.from_string(s))
        assert rank == 4 and len(calls) == 1
        # a second group, even an equal one, does its own elimination
        assert canonicalize(StabilizerGroup(5, FIVE_QUBIT_GENS_P()))[0] == reduced
        assert len(calls) == 2
