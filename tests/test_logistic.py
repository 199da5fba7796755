from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from blockspin.cli import _linspace, main
from blockspin.logistic import (
    CycleReport,
    DynamicsError,
    LogisticParams,
    bifurcation_scan,
    detect_cycle,
    map_orbit,
    map_step,
    ode_solution,
)

positive = st.floats(0.05, 10.0, allow_nan=False, allow_infinity=False)


class TestParams:
    def test_mu_kappa(self):
        p = LogisticParams(r=2.0, K=50.0, dt=0.5)
        assert p.mu == pytest.approx(2.0)
        assert p.kappa == pytest.approx(100.0)

    @given(positive, positive, positive)
    @settings(max_examples=100, deadline=None)
    def test_fixed_point_identity(self, r, K, dt):
        p = LogisticParams(r=r, K=K, dt=dt)
        # the map's nontrivial fixed point recovers the carrying capacity
        assert p.kappa * (1.0 - 1.0 / p.mu) == pytest.approx(K, rel=1e-12)

    def test_invalid_parameters(self):
        with pytest.raises(DynamicsError):
            LogisticParams(r=1.0, K=1.0, dt=0.0)
        with pytest.raises(DynamicsError):
            LogisticParams(r=-1.0, K=1.0, dt=0.1)


class TestOdeSolution:
    def test_matches_independent_integrator(self):
        p = LogisticParams(r=1.0, K=1.0, dt=0.01)
        n0 = 0.1
        sol = solve_ivp(
            lambda t, y: p.r * (1 - y / p.K) * y,
            (0.0, 5.0),
            [n0],
            rtol=1e-12,
            atol=1e-14,
            dense_output=True,
        )
        for t in np.linspace(0.0, 5.0, 21):
            assert ode_solution(p, n0, float(t)) == pytest.approx(
                float(sol.sol(t)[0]), abs=1e-9
            )

    def test_zero_initial_population(self):
        p = LogisticParams(r=1.0, K=1.0, dt=0.1)
        for t in (0.0, 1.0, 10.0):
            assert ode_solution(p, 0.0, t) == 0.0

    def test_carrying_capacity_fixed(self):
        p = LogisticParams(r=0.7, K=3.0, dt=0.1)
        assert ode_solution(p, 3.0, 4.2) == pytest.approx(3.0)

    def test_large_rt_reaches_capacity(self):
        # r*t = 800: e^{rt} overflows a float, e^{-rt} underflows to 0
        p = LogisticParams(r=1.0, K=1.0, dt=1.0)
        assert ode_solution(p, 0.1, 800.0) == p.K

    def test_long_orbit_cli_exits_zero(self, tmp_path):
        out = tmp_path / "orbit.csv"
        argv = ["logistic", "--r", "1", "--K", "1", "--dt", "1", "--steps", "800"]
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_text().splitlines()[-1] == "800,1,1"

    def test_monotone(self):
        p = LogisticParams(r=1.3, K=2.0, dt=0.1)
        traj = [ode_solution(p, 0.05, t) for t in np.linspace(0, 20, 200)]
        assert np.all(np.diff(traj) >= -1e-14)


class TestMap:
    def test_step(self):
        assert map_step(2.0, 100.0, 10.0) == pytest.approx(2.0 * 0.9 * 10.0)

    def test_orbit_zero(self):
        orbit = map_orbit(2.5, 1.0, 0.0, 10)
        assert orbit == [0.0] * 11

    def test_fixed_points(self):
        # the extinction point 0 and the steady state kappa (1 - 1/mu)
        hi = 100.0 * (1.0 - 1.0 / 2.0)
        assert hi == pytest.approx(50.0)
        assert map_step(2.0, 100.0, 0.0) == 0.0
        assert map_step(2.0, 100.0, hi) == pytest.approx(hi)

    def test_small_timestep_tracks_ode(self):
        p = LogisticParams(r=1.0, K=1.0, dt=1e-4)
        steps = 10000  # integrate to t=1
        orbit = map_orbit(p.mu, p.kappa, 0.1, steps)
        assert orbit[-1] == pytest.approx(ode_solution(p, 0.1, 1.0), abs=1e-3)


class TestCycleDetection:
    def test_constant_orbit(self):
        orbit = np.full(1400, 0.5)
        rep = detect_cycle(orbit)
        assert rep.kind == "fixed"

    def test_alternating_tail(self):
        orbit = np.tile([0.2, 0.8], 700)
        rep = detect_cycle(orbit)
        assert rep.kind == "period-2"

    def test_period_doubled_map(self):
        mu = 3.3  # inside the first period-doubling window
        orbit = map_orbit(mu, 1.0, 0.5, 1400)
        rep = detect_cycle(orbit)
        assert rep.kind == "period-2"

    def test_report_is_frozen(self):
        rep = detect_cycle(np.tile([0.2, 0.8], 700))
        assert rep == CycleReport("period-2", 2)
        with pytest.raises(FrozenInstanceError):
            rep.period = 3

    def test_chaotic_regime(self):
        orbit = map_orbit(3.99, 1.0, 0.5, 1400)
        rep = detect_cycle(orbit)
        assert rep.kind == "aperiodic-within-window"

    def test_ode_samples_never_cycle(self):
        p = LogisticParams(r=2.0, K=1.0, dt=0.05)
        traj = np.array(
            [ode_solution(p, 0.1, i * p.dt) for i in range(1400)]
        )
        rep = detect_cycle(traj)
        assert rep.kind == "fixed"  # converges monotonically, no k>=2 cycle


class TestBifurcationScan:
    def test_scan_shapes(self):
        mus = np.linspace(2.8, 3.6, 9)
        rows = bifurcation_scan(mus, kappa=1.0, n0=0.5)
        assert len(rows) == 9
        for mu, tail in rows:
            assert len(tail) == 64
            assert np.all(np.isfinite(tail))

    def test_period_doubling_visible(self):
        rows = bifurcation_scan(np.array([2.9, 3.3]), kappa=1.0, n0=0.5)
        spread = [np.ptp(np.round(tail, 6)) for _, tail in rows]
        assert spread[0] < 1e-6  # fixed point
        assert spread[1] > 1e-3  # two-branch cycle


class TestScanGrid:
    def test_matches_numpy_linspace_bit_for_bit(self):
        rng = np.random.default_rng(20240)
        for _ in range(2000):
            lo, hi = rng.uniform(-4.0, 4.0, 2) * 10.0 ** rng.integers(-6, 7, 2)
            if rng.random() < 0.1:
                hi = lo
            count = int(rng.integers(0, 50))
            grid = _linspace(float(lo), float(hi), count)
            assert [v.hex() for v in grid] == [
                float(v).hex() for v in np.linspace(lo, hi, count)
            ], (lo, hi, count)

    def test_short_and_negative_counts(self, tmp_path):
        assert _linspace(2.8, 3.6, 1) == [2.8]
        assert _linspace(2.8, 3.6, 0) == []
        argv = ["logistic", "--r", "1", "--K", "1", "--dt", "1", "--scan-mu"]
        assert main(argv + ["2.8", "3.6", "-1", "--out", str(tmp_path / "scan.csv")]) == 2
