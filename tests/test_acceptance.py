"""Acceptance gate: one test per release criterion, one printed line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
PASS/FAIL report.
"""

import json
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from blockspin.channel import (
    PauliChannel,
    effective_channel,
    linearize,
    memory_support,
    order_parameter,
    sample_effective_channel,
    threshold,
)
from blockspin.cli import main as cli_main
from blockspin.codes import (
    TileHamiltonian,
    encode_zero,
    five_qubit_code,
    tile_hamiltonian_spectrum,
    toric_plaquette_generator,
    toric_site_generator,
)
from blockspin.dfs import (
    block_diagonal_residual,
    collective_noise_generators,
    decompose,
)
from blockspin.logistic import (
    LogisticParams,
    detect_cycle,
    map_orbit,
    ode_solution,
)
from blockspin.pauli import Pauli, multiply, random_pauli
from blockspin.tiling import brick_tiling, plus_tiling, validate_tiling
from blockspin.toric_rescale import (
    ToricState,
    block_entropy,
    rescaled_plaquette,
    rescaled_site,
    swap_generating_set,
)

CODE = five_qubit_code()


def report(num: int, label: str, ok: bool):
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, f"criterion {num} failed: {label}"


def test_criterion_01_pauli_algebra_oracle():
    rng = np.random.default_rng(1)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 6))
        p = random_pauli(rng, n)
        q = random_pauli(rng, n)
        prod = multiply(p, q)
        if not np.allclose(prod.to_matrix(), p.to_matrix() @ q.to_matrix()):
            ok = False
            break
    report(1, "symplectic product matches dense matrices on 1000 pairs", ok)


def test_criterion_02_sign_identities():
    m1, m2, m4 = (Pauli.from_string(s) for s in ("ZZXIX", "XZZXI", "XIXZZ"))
    xbar, zbar = Pauli.from_string("XXXXX"), Pauli.from_string("ZZZZZ")
    ok = multiply(multiply(m1, m2), xbar) == Pauli.from_string("-ZXZII")
    ok &= multiply(multiply(multiply(m1, m2), m4), zbar) == Pauli.from_string(
        "-IZIXX"
    )
    report(2, "weight-3 logical identities hold with exact phases", ok)


def test_criterion_03_codeword_amplitudes():
    vec = encode_zero(CODE)
    plus = ["00000", "10010", "01001", "10100", "01010", "00101"]
    minus = [
        "11011", "00110", "11000", "11101", "00011",
        "11110", "01111", "10001", "01100", "10111",
    ]
    ok = len(np.flatnonzero(np.abs(vec) > 1e-12)) == 16
    ok &= all(abs(vec[int(k, 2)] - 0.25) < 1e-12 for k in plus)
    ok &= all(abs(vec[int(k, 2)] + 0.25) < 1e-12 for k in minus)
    report(3, "logical zero has the 16 signed quarter amplitudes", ok)


def test_criterion_04_syndrome_bijection():
    syndromes = set()
    for q in range(5):
        for letter in "XYZ":
            s = "I" * q + letter + "I" * (4 - q)
            syndromes.add(CODE.syndrome(Pauli.from_string(s)))
    ok = len(syndromes) == 15 and 0 not in syndromes
    report(4, "15 weight-1 errors map bijectively to nonzero syndromes", ok)


def test_criterion_05_tile_hamiltonian():
    h = TileHamiltonian([1.0] * 4, CODE.stabilizer.generators)
    energy, degeneracy = tile_hamiltonian_spectrum(h, atol=1e-10)
    ok = abs(energy + 4.0) < 1e-10 and degeneracy == 2
    report(5, "K=(1,1,1,1) ground energy -4 with degeneracy 2", ok)


def test_criterion_06_tilings():
    plus = plus_tiling(5, +1)
    brick = brick_tiling(5)
    ok_p, resc_p, rot_p = validate_tiling(plus)
    ok_b, resc_b, rot_b = validate_tiling(brick)
    ok = ok_p and ok_b
    ok &= abs(resc_p - math.sqrt(5)) < 1e-12 and abs(resc_b - math.sqrt(5)) < 1e-12
    ok &= abs(rot_p - math.atan2(1, 2)) < 1e-12
    ok &= sorted(plus.centers) == sorted(brick.centers)
    report(6, "plus/brick tilings: sqrt(5), arctan(1/2), shared centers", ok)


def test_criterion_07_channel_recursion():
    ok = effective_channel(CODE, PauliChannel.identity()) == PauliChannel.identity()
    uniform_out = effective_channel(CODE, PauliChannel.uniform()).as_array()
    ok &= bool(np.allclose(uniform_out, 0.25, atol=1e-15))
    ps = np.logspace(-4, -3, 6)
    logi = [
        math.log(
            effective_channel(CODE, PauliChannel.depolarizing(p))
            .error_probability()
        )
        for p in ps
    ]
    slope = float(np.polyfit(np.log(ps), logi, 1)[0])
    ok &= abs(slope - 2.0) <= 0.1
    ch = PauliChannel.depolarizing(0.1)
    exact = effective_channel(CODE, ch).as_array()
    n = 10**6
    mc = sample_effective_channel(CODE, ch, n, seed=42)
    sigma = np.sqrt(exact * (1 - exact) / n)
    ok &= bool(np.all(np.abs(mc - exact) <= 4 * sigma + 1e-12))
    report(7, "fixed points exact, slope 2.0+-0.1, Monte Carlo within 4 sigma", ok)


def test_criterion_08_order_parameter_and_threshold():
    ok = order_parameter(CODE, PauliChannel.depolarizing(0.01)) == 1
    ok &= order_parameter(CODE, PauliChannel.depolarizing(0.3)) == 0
    p1 = threshold(CODE, PauliChannel.depolarizing, 0.01, 0.3, width=1e-3)
    p2 = threshold(CODE, PauliChannel.depolarizing, 0.01, 0.3, width=1e-3)
    ok &= 0.05 < p1 < 0.25 and abs(p1 - p2) < 1e-3
    evals_id = linearize(CODE, PauliChannel.identity())
    ok &= all(abs(ev) < 1e-4 for ev, _ in evals_id)
    evals_star = linearize(CODE, PauliChannel.depolarizing(p1))
    ok &= any(abs(ev) > 1.0 for ev, _ in evals_star)
    report(8, "order parameter endpoints, p* bracket, Jacobian spectra", ok)


def test_criterion_09_memory_support():
    ok = memory_support(CODE, PauliChannel.depolarizing(0.01), 0.5).infinite
    ms_u = memory_support(CODE, PauliChannel.uniform(), 0.5, L=1, d=1)
    ok &= ms_u.size == 1.0 and ms_u.r_star == 0
    ms_hi = memory_support(CODE, PauliChannel.depolarizing(0.3), 0.5)
    ok &= not ms_hi.infinite and ms_hi.size == 5.0**ms_hi.r_star
    rs = [
        memory_support(CODE, PauliChannel.depolarizing(0.3), eps).r_star
        for eps in (0.1, 0.25, 0.5, 0.75, 0.9)
    ]
    ok &= rs == sorted(rs, reverse=True)
    report(9, "memory support: infinite below, 1 at uniform, 5^r* above", ok)


def test_criterion_10_toric():
    state = ToricState(5)
    big_s = rescaled_site(state, (0, 0))
    big_p = rescaled_plaquette(state, (0, 0))
    ok = big_s.weight == 12 and big_p.weight == 12
    swap_generating_set(state, toric_site_generator(5, 1, 1), big_s)
    swap_generating_set(state, toric_plaquette_generator(5, 0, 0), big_p)
    ok &= block_entropy(state, [0]) == 1
    plaq = toric_plaquette_generator(5, 2, 2)
    plaq_region = [q for q in range(plaq.n) if plaq.z >> (plaq.n - 1 - q) & 1]
    ok &= block_entropy(state, plaq_region) == 3
    rng = np.random.default_rng(3)
    for _ in range(50):
        size = int(rng.integers(1, state.n))
        region = sorted(rng.choice(state.n, size=size, replace=False).tolist())
        comp = [e for e in range(state.n) if e not in set(region)]
        if block_entropy(state, region) != block_entropy(state, comp):
            ok = False
            break
    report(10, "toric weights 12, swap-safe, entropies 1/3, S(A)=S(Ac)", ok)


def test_criterion_11_dfs():
    ok = True
    for n, expected in ((3, [(2, 2), (4, 1)]), (4, [(1, 2), (3, 3), (5, 1)])):
        ops = collective_noise_generators(n)
        dec = decompose(ops)
        blocks = sorted((b.irrep_dim, b.multiplicity) for b in dec.blocks)
        ok &= blocks == expected
        ok &= dec.algebra_dim == sum(d * d for d, _ in blocks)
        ok &= dec.commutant_dim == sum(m * m for _, m in blocks)
        ok &= sum(d * m for d, m in blocks) == 2**n
        ok &= block_diagonal_residual(dec, ops) < 1e-8
    report(11, "collective-noise blocks, dimension identities, residuals", ok)


def test_criterion_12_logistic():
    rng = np.random.default_rng(12)
    ok = True
    for _ in range(100):
        r, K, dt = (float(v) for v in rng.uniform(0.05, 5.0, 3))
        p = LogisticParams(r=r, K=K, dt=dt)
        ok &= abs(p.kappa * (1 - 1 / p.mu) - K) < 1e-9 * K
    p = LogisticParams(r=1.0, K=1.0, dt=0.01)
    sol = solve_ivp(
        lambda t, y: p.r * (1 - y / p.K) * y,
        (0.0, 5.0),
        [0.1],
        rtol=1e-12,
        atol=1e-14,
        dense_output=True,
    )
    for t in np.linspace(0.0, 5.0, 11):
        ok &= abs(ode_solution(p, 0.1, float(t)) - float(sol.sol(t)[0])) < 1e-9
    # large r*dt regime: the map period-doubles while the ODE is monotone
    big = LogisticParams(r=2.3, K=1.0, dt=1.0)  # mu = 3.3
    orbit = map_orbit(big.mu, big.kappa, 0.5, 1400)
    rep = detect_cycle(orbit)
    ok &= rep.kind.startswith("period-") and int(rep.kind.split("-")[1]) >= 2
    traj = [ode_solution(big, 0.5, i * big.dt) for i in range(100)]
    ok &= bool(np.all(np.diff(traj) >= -1e-14))
    report(12, "kappa identity, ODE matches integrator, map period-doubles", ok)


def test_criterion_13_cli_determinism(tmp_path):
    golden = [
        ["code", "--code", "five-qubit"],
        ["channel-flow", "--code", "five-qubit", "--depolarizing", "0.01"],
        ["tiling", "--plus", "--L", "5", "--hand", "right"],
    ]
    ok = True
    for i, argv in enumerate(golden):
        a = tmp_path / f"a{i}.out"
        b = tmp_path / f"b{i}.out"
        ok &= cli_main(argv + ["--out", str(a)]) == 0
        ok &= cli_main(argv + ["--out", str(b)]) == 0
        ok &= a.read_bytes() == b.read_bytes()
    report(13, "three golden CLI invocations byte-identical across runs", ok)
