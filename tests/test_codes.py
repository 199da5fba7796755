import dataclasses
import itertools
import json

import numpy as np
import pytest

from blockspin import codes
from blockspin._value import replace
from blockspin.codes import (
    CodeError,
    StabilizerCode,
    TileHamiltonian,
    _logical_class_index,
    build_recovery_table,
    check_correctable,
    encode_zero,
    five_qubit_code,
    shor_code,
    steane_code,
    tile_hamiltonian_spectrum,
    toric_code,
    toric_plaquette_generator,
    toric_site_generator,
)
from blockspin.pauli import (
    DENSE_QUBIT_CAP,
    Pauli,
    StabilizerGroup,
    commutes,
    gf2_rank,
    multiply,
    random_pauli,
    stabilizer_entropy,
)

PERFECT_GENS = ["ZZXIX", "XZZXI", "IXZZX", "XIXZZ"]

# signed codeword components of the distance-3 five-qubit logical zero,
# all with amplitude 1/4
PLUS_KETS = ["00000", "10010", "01001", "10100", "01010", "00101"]
MINUS_KETS = [
    "11011", "00110", "11000", "11101", "00011",
    "11110", "01111", "10001", "01100", "10111",
]


class TestFiveQubitCode:
    def test_generator_table(self):
        code = five_qubit_code()
        assert [g.to_string() for g in code.stabilizer.generators] == PERFECT_GENS
        assert code.logical_x[0].to_string() == "XXXXX"
        assert code.logical_z[0].to_string() == "ZZZZZ"
        code.validate()

    def test_identity_syndrome_and_recovery(self):
        code = five_qubit_code()
        ident = Pauli.identity(5)
        assert code.syndrome(ident) == 0
        assert code.recovery_table[0] == ident

    def test_weight_one_syndrome_bijection(self):
        code = five_qubit_code()
        seen = set()
        for q in range(5):
            for letter in "XYZ":
                s = "I" * q + letter + "I" * (4 - q)
                syn = code.syndrome(Pauli.from_string(s))
                assert syn != 0
                seen.add(syn)
        assert len(seen) == 15

    def test_recovery_table_min_weight(self):
        code = five_qubit_code()
        assert len(code.recovery_table) == 16
        for syn, rec in code.recovery_table.items():
            assert code.syndrome(rec) == syn
            assert rec.weight <= 1

    def test_logical_class_of_logicals(self):
        code = five_qubit_code()
        assert code.logical_class(Pauli.identity(5)) == "I"
        assert code.logical_class(Pauli.from_string("XXXXX")) == "X"
        assert code.logical_class(Pauli.from_string("ZZZZZ")) == "Z"

    def test_logical_class_of_y_residual(self):
        code = five_qubit_code()
        y = multiply(Pauli.from_string("XXXXX"), Pauli.from_string("ZZZZZ"))
        assert code.logical_class(y) == "Y"
        m1 = Pauli.from_string(PERFECT_GENS[0])
        assert code.logical_class(multiply(m1, y)) == "Y"

    def test_logical_class_rejects_syndrome(self):
        code = five_qubit_code()
        with pytest.raises(CodeError, match="nonzero syndrome"):
            code.logical_class(Pauli.from_string("XIIII"))

    def test_json_roundtrip(self):
        code = five_qubit_code()
        clone = StabilizerCode.from_json(code.to_json())
        assert clone.n == code.n and clone.k == code.k
        assert clone.stabilizer.generators == code.stabilizer.generators
        assert clone.recovery_table == code.recovery_table


class TestCodewords:
    def test_five_qubit_signed_amplitudes(self):
        vec = encode_zero(five_qubit_code())
        nonzero = np.flatnonzero(np.abs(vec) > 1e-12)
        assert len(nonzero) == 16
        for ket in PLUS_KETS:
            assert vec[int(ket, 2)] == pytest.approx(0.25, abs=1e-12)
        for ket in MINUS_KETS:
            assert vec[int(ket, 2)] == pytest.approx(-0.25, abs=1e-12)

    def test_specific_amplitudes(self):
        vec = encode_zero(five_qubit_code())
        assert vec[int("11011", 2)] == pytest.approx(-0.25, abs=1e-12)
        assert vec[int("10111", 2)] == pytest.approx(-0.25, abs=1e-12)
        assert vec[int("00101", 2)] == pytest.approx(0.25, abs=1e-12)

    def test_trivial_code_zero(self):
        # the [[1,1]] identity encoding: no checks, bare X and Z logicals
        code = StabilizerCode(
            n=1,
            k=1,
            stabilizer=StabilizerGroup(1, []),
            logical_x=[Pauli.from_string("X")],
            logical_z=[Pauli.from_string("Z")],
        )
        vec = encode_zero(code)
        assert np.allclose(vec, [1.0, 0.0])

    def test_encode_one_orthogonal(self):
        code = five_qubit_code()
        zero = encode_zero(code)
        one = code.logical_x[0].apply(zero)
        assert abs(np.vdot(zero, one)) < 1e-12
        assert np.linalg.norm(one) == pytest.approx(1.0)

    def test_codeword_without_all_zeros_component(self):
        # |0bar> = |01>: the all-zeros ket is not in the code space
        code = StabilizerCode(
            n=2,
            k=1,
            stabilizer=StabilizerGroup(2, [Pauli.from_string("-ZZ")]),
            logical_x=[Pauli.from_string("XX")],
            logical_z=[Pauli.from_string("ZI")],
        )
        code.validate()
        assert np.allclose(encode_zero(code), [0, 1, 0, 0], atol=1e-12)

    def test_stabilizers_fix_codeword(self):
        code = five_qubit_code()
        vec = encode_zero(code)
        for g in code.stabilizer.generators:
            assert np.allclose(g.apply(vec), vec)

    def test_above_the_dense_cap_refused(self):
        # the 13-qubit repetition code: checks Z_q Z_{q+1}
        n = DENSE_QUBIT_CAP + 1
        code = StabilizerCode(
            n=n,
            k=1,
            stabilizer=StabilizerGroup(n, [Pauli(n, 0, 3 << q) for q in range(n - 1)]),
            logical_x=[Pauli(n, (1 << n) - 1, 0)],
            logical_z=[Pauli(n, 0, 1)],
        )
        code.validate()
        with pytest.raises(CodeError, match="dense codewords limited to n <= 12"):
            encode_zero(code)


class TestCorrectability:
    def test_empty_set(self):
        ok, witness = check_correctable(five_qubit_code(), [])
        assert ok and witness is None

    def test_weight_one_set(self):
        errors = [Pauli.identity(5)]
        for q in range(5):
            for letter in "XYZ":
                errors.append(Pauli.from_string("I" * q + letter + "I" * (4 - q)))
        ok, witness = check_correctable(five_qubit_code(), errors)
        assert ok and witness is None

    def test_weight_two_error_breaks_the_set(self):
        code = five_qubit_code()
        errors = [Pauli.identity(5)]
        for q in range(5):
            for letter in "XYZ":
                errors.append(Pauli.from_string("I" * q + letter + "I" * (4 - q)))
        errors.append(Pauli.from_string("XXIII"))
        ok, witness = check_correctable(code, errors)
        assert not ok
        assert witness is not None
        ea, eb = witness
        # the witness product commutes with the stabilizer but is not in it:
        # it acts as a logical operator on the codespace
        prod = multiply(ea, eb)
        assert all(commutes(prod, g) for g in code.stabilizer.generators)
        assert code.logical_class(code.recover(prod)) != "I" or code.logical_class(
            prod
        ) != "I"


FIVE = five_qubit_code()
FIVE_CHECKS = FIVE.stabilizer.generators


class TestValidate:
    @pytest.mark.parametrize(
        "change, match",
        [
            ({"stabilizer": StabilizerGroup(5, FIVE_CHECKS[:3] + FIVE_CHECKS[:1])},
             "not independent"),
            ({"stabilizer": StabilizerGroup(5, (Pauli.from_string("ZIIII"),) + FIVE_CHECKS[1:])},
             "generators 0 and 1 anticommute"),
            ({"logical_z": FIVE.logical_x}, "must anticommute"),
            ({"logical_z": [Pauli.from_string("ZIIII")]}, "fails to commute with checks"),
        ],
        ids=["repeated", "anticommuting", "logical-pair", "logical-vs-checks"],
    )
    def test_refusals(self, change, match):
        FIVE.validate()
        with pytest.raises(ValueError, match=match):
            replace(FIVE, **change).validate()

    def test_anticommuting_logical_xs_refused(self):
        # Xbar_1 Zbar_0 pairs with Zbar_1 and commutes with Zbar_0 and the
        # checks, but anticommutes with Xbar_0
        code = toric_code(3)
        code.validate()
        (lx0, lx1), (lz0, _) = code.logical_x, code.logical_z
        variant = replace(code, logical_x=[lx0, multiply(lx1, lz0)])
        with pytest.raises(CodeError, match="logical pairs 0 and 1 must commute"):
            variant.validate()


class TestOtherCodes:
    @pytest.mark.parametrize("builder", [steane_code, shor_code])
    def test_validate(self, builder):
        code = builder()
        code.validate()
        errors = [Pauli.identity(code.n)]
        for q in range(code.n):
            for letter in "XYZ":
                errors.append(
                    Pauli.from_string("I" * q + letter + "I" * (code.n - 1 - q))
                )
        ok, _ = check_correctable(code, errors)
        assert ok

    @pytest.mark.parametrize(
        "builder, max_weight", [(steane_code, 2), (shor_code, 3)]
    )
    def test_complete_min_weight_recovery_table(self, builder, max_weight):
        code = builder()
        assert len(code.recovery_table) == 2 ** (code.n - code.k)
        for syn, rec in code.recovery_table.items():
            assert code.syndrome(rec) == syn
        assert max(rec.weight for rec in code.recovery_table.values()) == max_weight

    @pytest.mark.parametrize("builder", [five_qubit_code, steane_code, shor_code])
    def test_recovery_table_matches_text_order_oracle(self, builder):
        # reference: build candidate Paulis by increasing weight, text order
        # within a weight, and keep the first one of each syndrome
        code = builder()

        def candidates():
            for w in range(code.n + 1):
                for positions in itertools.combinations(range(code.n), w):
                    for letters in itertools.product("XYZ", repeat=w):
                        chars = ["I"] * code.n
                        for q, c in zip(positions, letters):
                            chars[q] = c
                        yield Pauli.from_string("".join(chars))

        expected = {}
        for p in candidates():
            expected.setdefault(code.syndrome(p), p)
            if len(expected) == 2 ** (code.n - code.k):
                break
        assert list(build_recovery_table(code).items()) == list(expected.items())


class TestToric:
    def test_l3_rank_and_k(self):
        code = toric_code(3)
        assert code.n == 18
        gens = [
            toric_site_generator(3, x, y) for x in range(3) for y in range(3)
        ] + [
            toric_plaquette_generator(3, x, y) for x in range(3) for y in range(3)
        ]
        assert gf2_rank(g.row for g in gens) == 16
        assert code.k == 2

    def test_sites_commute_with_plaquettes(self):
        for (sx, sy), (px, py) in itertools.product(
            itertools.product(range(3), range(3)), repeat=2
        ):
            assert commutes(
                toric_site_generator(3, sx, sy),
                toric_plaquette_generator(3, px, py),
            )

    def test_logicals_commute_with_stabilizer(self):
        code = toric_code(3)
        for lg in code.logical_x + code.logical_z:
            for g in code.stabilizer.generators:
                assert commutes(lg, g)
        # conjugate logical pairs anticommute
        assert not commutes(code.logical_x[0], code.logical_z[0])
        assert not commutes(code.logical_x[1], code.logical_z[1])
        assert commutes(code.logical_x[0], code.logical_z[1])

    @pytest.mark.parametrize("side", range(2, 10))
    def test_validate(self, side):
        toric_code(side).validate()

    def test_lattice_cap_boundary(self):
        L = codes.TORIC_L_CAP
        assert L >= 33  # the entropy scan's closed-form oracle runs to L = 33
        assert toric_code(L).n == 2 * L * L
        with pytest.raises(CodeError, match=f"L={L + 1} exceeds cap {L}"):
            toric_code(L + 1)


class TestTileHamiltonian:
    def test_single_term(self):
        h = TileHamiltonian([1.5], [Pauli.from_string("Z")])
        energy, degeneracy = tile_hamiltonian_spectrum(h)
        assert energy == pytest.approx(-1.5)
        assert degeneracy == 1

    def test_five_qubit_ground_space(self):
        code = five_qubit_code()
        h = TileHamiltonian([1.0] * 4, code.stabilizer.generators)
        energy, degeneracy = tile_hamiltonian_spectrum(h)
        assert energy == pytest.approx(-4.0, abs=1e-10)
        assert degeneracy == 2

    def test_codeword_is_ground_state(self):
        code = five_qubit_code()
        vec = encode_zero(code)
        mat = np.zeros((32, 32), dtype=complex)
        for g in code.stabilizer.generators:
            mat -= g.to_matrix()
        assert np.linalg.norm(mat @ vec - (-4.0) * vec) < 1e-12

    def test_frozen_with_tuples(self):
        couplings, terms = [1.5], [Pauli.from_string("Z")]
        h = TileHamiltonian(couplings, terms)
        couplings.append(2.0)
        terms.append(Pauli.from_string("X"))
        assert h.couplings == (1.5,) and h.terms == (Pauli.from_string("Z"),)
        with pytest.raises(dataclasses.FrozenInstanceError):
            h.couplings = (2.0,)

    def test_noncommuting_terms_rejected(self):
        with pytest.raises(CodeError):
            TileHamiltonian(
                [1.0, 1.0], [Pauli.from_string("X"), Pauli.from_string("Z")]
            )

    def test_nonpositive_coupling_rejected(self):
        with pytest.raises(CodeError):
            TileHamiltonian([0.0], [Pauli.from_string("Z")])

    def test_above_the_dense_cap_refused(self):
        h = TileHamiltonian([1.0], [Pauli(DENSE_QUBIT_CAP + 1, 0, 1)])
        with pytest.raises(CodeError, match="dense spectrum limited to n <= 12"):
            tile_hamiltonian_spectrum(h)


def codeword_entropy(code: StabilizerCode, region: list[int]) -> int:
    """Entropy (bits) of a region of the logical-|0> codeword, whose
    stabilizer is the checks and Zbar."""
    gens = code.stabilizer.generators + code.logical_z
    return stabilizer_entropy(code.n, gens, region)


class TestReducedEntropy:
    def test_five_qubit_single_site(self):
        code = five_qubit_code()
        # the perfect code's codeword is maximally mixed on any 2 qubits
        assert codeword_entropy(code, [0]) == 1
        assert codeword_entropy(code, [0, 1]) == 2
        assert codeword_entropy(code, [0, 1, 2]) == 2

    def test_complement_symmetry(self):
        code = five_qubit_code()
        for r in range(1, 5):
            for region in itertools.combinations(range(5), r):
                comp = [q for q in range(5) if q not in region]
                assert codeword_entropy(code, list(region)) == codeword_entropy(code, comp)


@pytest.mark.parametrize(
    "build",
    [five_qubit_code, steane_code, shor_code, lambda: toric_code(3)],
    ids=["five-qubit", "steane", "shor", "toric-3"],
)
def test_syndrome_packs_generator_zero_first(build):
    code = build()
    rng = np.random.default_rng(17)
    for _ in range(50):
        p = random_pauli(rng, code.n)
        bits = "".join("0" if commutes(p, g) else "1" for g in code.stabilizer.generators)
        assert code.syndrome(p) == int(bits, 2)


def test_logical_class_index_matches_pairing_table():
    # the (a, b) -> class table the bit arithmetic replaced
    table = np.array([[0, 3], [1, 2]])
    code = five_qubit_code()
    lx, lz = code.logical_x[0], code.logical_z[0]
    residuals = [Pauli.identity(code.n), lx, multiply(lx, lz), lz]

    def pairing(p: Pauli, q: Pauli) -> int:  # the symplectic product over GF(2)
        return ((p.x & q.z).bit_count() + (p.z & q.x).bit_count()) % 2

    a = [pairing(p, lz) for p in residuals]
    b = [pairing(p, lx) for p in residuals]
    assert sorted(zip(a, b)) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    got = [_logical_class_index(code, p) for p in residuals]
    assert got == table[a, b].tolist() == [0, 1, 2, 3]
    # linear over GF(2), which LogicalActionTable.build relies on
    rng = np.random.default_rng(5)
    for _ in range(50):
        p, q = random_pauli(rng, code.n), random_pauli(rng, code.n)
        assert _logical_class_index(code, multiply(p, q)) == (
            _logical_class_index(code, p) ^ _logical_class_index(code, q)
        )


class TestFrozenCode:
    def test_assignment_refused(self):
        code = five_qubit_code()
        with pytest.raises(dataclasses.FrozenInstanceError):
            code.recovery_table = {}
        with pytest.raises(dataclasses.FrozenInstanceError):
            code.logical_x = (Pauli.from_string("YYYYY"),)

    def test_recovery_table_read_only(self):
        code = five_qubit_code()
        with pytest.raises(TypeError):
            code.recovery_table[0] = Pauli.from_string("XIIII")

    def test_caller_dict_copied(self):
        code = five_qubit_code()
        table = dict(code.recovery_table)
        variant = replace(code, recovery_table=table)
        table[0] = Pauli.from_string("XIIII")
        del table[0b0001]
        assert variant.recovery_table == code.recovery_table
        assert variant.recovery_table[0] == Pauli.identity(5)

    def test_partial_table_keeps_the_zero_syndrome(self):
        code = five_qubit_code()
        entry = code.recovery_table[0b0001]
        partial = replace(code, recovery_table={0b0001: entry})
        assert partial.recovery_table == {0: Pauli.identity(5), 0b0001: entry}
        assert partial.recover(Pauli.identity(5)) == Pauli.identity(5)
        # an explicit entry for the zero syndrome wins
        check = code.stabilizer.generators[0]
        explicit = replace(code, recovery_table={0: check})
        assert explicit.recovery_table == {0: check}

    @pytest.mark.parametrize(
        "build",
        [five_qubit_code, steane_code, shor_code, lambda: toric_code(2), lambda: toric_code(3)],
        ids=["five-qubit", "steane", "shor", "toric-2", "toric-3"],
    )
    def test_json_is_the_dumped_dict(self, build):
        code = build()
        doc = code.to_dict()
        assert code.to_json() == json.dumps(doc, indent=2, sort_keys=True)
        assert StabilizerCode.from_json(code.to_json()).to_dict() == doc

    def test_r0_code_keeps_the_empty_syndrome_key(self):
        code = StabilizerCode(
            1, 1, StabilizerGroup(1, []), [Pauli.from_string("X")], [Pauli.from_string("Z")]
        )
        assert code.to_dict()["recovery"] == {"": "I"}
        clone = StabilizerCode.from_json(code.to_json())
        assert clone.recovery_table == {0: Pauli.identity(1)}
        assert clone.to_dict() == code.to_dict()

    def test_logicals_are_tuples(self):
        clone = StabilizerCode.from_json(five_qubit_code().to_json())
        assert clone.logical_x == (Pauli.from_string("XXXXX"),)
        assert clone.logical_z == (Pauli.from_string("ZZZZZ"),)

    def test_action_table_cached_per_code(self):
        code = five_qubit_code()
        assert code.action_table is code.action_table
        variant = replace(code)
        assert variant.action_table is not code.action_table
        assert variant.action_table == code.action_table
