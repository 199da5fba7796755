import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blockspin import codes
from blockspin.codes import (
    CodeError,
    StabilizerCode,
    TileHamiltonian,
    _logical_class_index,
    _solve_gf2,
    build_recovery_table,
    check_correctable,
    encode_zero,
    encode_one,
    five_qubit_code,
    reduced_state_entropy,
    shor_code,
    steane_code,
    synthesize_decoder,
    tile_hamiltonian_spectrum,
    toric_code,
    toric_plaquette_generator,
    toric_site_generator,
    trivial_code,
)
from blockspin.pauli import (
    Pauli,
    StabilizerGroup,
    commutes,
    gf2_rank,
    multiply,
    random_pauli,
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
        assert code.syndrome(ident) == (0, 0, 0, 0)
        assert code.recovery_table[(0, 0, 0, 0)] == ident

    def test_weight_one_syndrome_bijection(self):
        code = five_qubit_code()
        seen = set()
        for q in range(5):
            for letter in "XYZ":
                s = "I" * q + letter + "I" * (4 - q)
                syn = code.syndrome(Pauli.from_string(s))
                assert syn != (0, 0, 0, 0)
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
        vec = encode_zero(trivial_code())
        assert np.allclose(vec, [1.0, 0.0])

    def test_encode_one_orthogonal(self):
        code = five_qubit_code()
        zero, one = encode_zero(code), encode_one(code)
        assert abs(np.vdot(zero, one)) < 1e-12
        assert np.linalg.norm(one) == pytest.approx(1.0)

    def test_stabilizers_fix_codeword(self):
        code = five_qubit_code()
        vec = encode_zero(code)
        for g in code.stabilizer.generators:
            assert np.allclose(g.apply(vec), vec)


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


class TestDecoder:
    def test_trivial_code_identity(self):
        dec = synthesize_decoder(trivial_code())
        assert np.allclose(dec.to_matrix(), np.eye(2))

    @pytest.mark.parametrize(
        "builder", [five_qubit_code, steane_code, shor_code],
        ids=["five-qubit", "steane", "shor"],
    )
    def test_maps_codeword_to_product_state(self, builder):
        code = builder()
        u = synthesize_decoder(code).to_matrix()
        dim = 2**code.n
        assert np.allclose(u @ u.conj().T, np.eye(dim), atol=1e-10)
        out = u @ encode_zero(code)
        assert abs(out[0]) == pytest.approx(1.0, abs=1e-10)
        out_one = u @ encode_one(code)
        assert abs(out_one[dim // 2]) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize(
        "builder", [five_qubit_code, steane_code, shor_code],
        ids=["five-qubit", "steane", "shor"],
    )
    def test_conjugation_matches_dense(self, builder):
        code = builder()
        dec = synthesize_decoder(code)
        u = dec.to_matrix()
        rng = np.random.default_rng(11)
        phased = [
            Pauli.packed(code.n, p.x, p.z, int(rng.integers(4)))
            for p in (random_pauli(rng, code.n) for _ in range(20))
        ]
        for p in (*dec.frame_in, *phased):
            img = dec.conjugate(p)
            assert np.allclose(u @ p.to_matrix() @ u.conj().T, img.to_matrix())

    def test_conjugation_of_first_generator(self):
        code = five_qubit_code()
        dec = synthesize_decoder(code)
        m1 = code.stabilizer.generators[0]
        assert dec.conjugate(m1) == Pauli.from_string("IZIII")

    def test_logical_frame_images(self):
        code = five_qubit_code()
        dec = synthesize_decoder(code)
        assert dec.conjugate(code.logical_x[0]) == Pauli.from_string("XIIII")
        assert dec.conjugate(code.logical_z[0]) == Pauli.from_string("ZIIII")

    def test_five_qubit_images_pinned(self):
        dec = synthesize_decoder(five_qubit_code())
        assert [p.to_string() for p in dec.image_x] == [
            "XXIII", "XXXII", "XIXXI", "XIIXX", "XIIIX",
        ]
        assert [p.to_string() for p in dec.image_z] == [
            "ZIYIY", "-ZZZXZ", "ZYIIY", "-ZZXZZ", "ZYIYI",
        ]

    @pytest.mark.parametrize(
        "builder", [trivial_code, five_qubit_code, steane_code, shor_code],
        ids=["trivial", "five-qubit", "steane", "shor"],
    )
    def test_one_elimination_per_destabilizer(self, builder, monkeypatch):
        # the images come from the frame pairing; only the n-1
        # destabilizers are solved for
        calls = []
        real = codes._rref
        monkeypatch.setattr(
            codes, "_rref", lambda *a, **k: calls.append(1) or real(*a, **k)
        )
        code = builder()
        synthesize_decoder(code)
        assert len(calls) == code.n - 1

    def test_frozen_with_tuple_fields(self):
        dec = synthesize_decoder(five_qubit_code())
        with pytest.raises(dataclasses.FrozenInstanceError):
            dec.image_x = ()
        assert all(
            isinstance(getattr(dec, f), tuple)
            for f in ("image_x", "image_z", "frame_in", "frame_out")
        )

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
        u = synthesize_decoder(code).to_matrix()
        assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-10)
        assert abs((u @ encode_zero(code))[0]) == pytest.approx(1.0, abs=1e-10)


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
        rows = np.array(
            [np.concatenate([g.x_bits, g.z_bits]) for g in gens], dtype=np.uint8
        )
        assert gf2_rank(rows) == 16
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

    def test_noncommuting_terms_rejected(self):
        with pytest.raises(CodeError):
            TileHamiltonian(
                [1.0, 1.0], [Pauli.from_string("X"), Pauli.from_string("Z")]
            )

    def test_nonpositive_coupling_rejected(self):
        with pytest.raises(CodeError):
            TileHamiltonian([0.0], [Pauli.from_string("Z")])


class TestReducedEntropy:
    def test_five_qubit_single_site(self):
        code = five_qubit_code()
        # the perfect code's codeword is maximally mixed on any 2 qubits
        assert reduced_state_entropy(code, [0]) == 1
        assert reduced_state_entropy(code, [0, 1]) == 2
        assert reduced_state_entropy(code, [0, 1, 2]) == 2

    def test_complement_symmetry(self):
        code = five_qubit_code()
        for r in range(1, 5):
            for region in itertools.combinations(range(5), r):
                comp = [q for q in range(5) if q not in region]
                assert reduced_state_entropy(
                    code, list(region)
                ) == reduced_state_entropy(code, comp)


class TestSolveGF2:
    @given(st.integers(1, 6), st.integers(1, 8), st.data())
    @settings(max_examples=200, deadline=None)
    def test_against_brute_force(self, rows, cols, data):
        bits = st.lists(st.integers(0, 1), min_size=cols, max_size=cols)
        a = np.array(data.draw(st.lists(bits, min_size=rows, max_size=rows)),
                     dtype=np.uint8)
        b = np.array(data.draw(st.lists(st.integers(0, 1), min_size=rows,
                                        max_size=rows)), dtype=np.uint8)
        solvable = any(
            np.array_equal(a @ np.array(x) % 2, b)
            for x in itertools.product((0, 1), repeat=cols)
        )
        # rows packed with column 0 at the most significant bit, x likewise
        x = _solve_gf2([int("".join(map(str, row)), 2) for row in a.tolist()], b.tolist())
        assert (x is not None) == solvable
        if x is not None:
            bits = np.array([x >> (cols - 1 - j) & 1 for j in range(cols)], dtype=np.uint8)
            assert np.array_equal(a @ bits % 2, b)


def test_logical_class_index_matches_pairing_table():
    # the (a, b) -> class table the bit arithmetic replaced
    table = np.array([[0, 3], [1, 2]])
    code = five_qubit_code()
    lx, lz = code.logical_x[0], code.logical_z[0]
    residuals = [Pauli.identity(code.n), lx, multiply(lx, lz), lz]
    x = np.array([p.x_bits for p in residuals])
    z = np.array([p.z_bits for p in residuals])
    a = (x @ lz.z_bits + z @ lz.x_bits) % 2
    b = (x @ lx.z_bits + z @ lx.x_bits) % 2
    assert sorted(zip(a.tolist(), b.tolist())) == [(0, 0), (0, 1), (1, 0), (1, 1)]
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
            code.recovery_table[(0, 0, 0, 0)] = Pauli.from_string("XIIII")

    def test_caller_dict_copied(self):
        code = five_qubit_code()
        table = dict(code.recovery_table)
        variant = dataclasses.replace(code, recovery_table=table)
        table[(0, 0, 0, 0)] = Pauli.from_string("XIIII")
        del table[(0, 0, 0, 1)]
        assert variant.recovery_table == code.recovery_table
        assert variant.recovery_table[(0, 0, 0, 0)] == Pauli.identity(5)

    def test_logicals_are_tuples(self):
        clone = StabilizerCode.from_json(five_qubit_code().to_json())
        assert clone.logical_x == (Pauli.from_string("XXXXX"),)
        assert clone.logical_z == (Pauli.from_string("ZZZZZ"),)

    def test_action_table_cached_per_code(self):
        code = five_qubit_code()
        assert code.action_table is code.action_table
        variant = dataclasses.replace(code)
        assert variant.action_table is not code.action_table
        assert variant.action_table == code.action_table
