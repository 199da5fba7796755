"""Logistic growth: the continuum ODE versus its finite-difference family.

The map N_{n+1} = mu (1 - N_n/kappa) N_n with mu = 1 + r*dt and
kappa = (1 + r*dt) K / (r*dt) shares the fixed points {0, K} with the ODE
dN/dt = r (1 - N/K) N, but develops period-doubling and chaos at large
step sizes where the ODE stays monotone.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from ._value import frozen

# a recurrence: above the float noise of an orbit settled on its cycle,
# below the branch gaps that the cycle report separates
CYCLE_TOL = 1e-9
CYCLE_TRANSIENT = 256  # the approach to the attractor is not read as a cycle
CYCLE_WINDOW = 1024  # tail analysed; periods up to a quarter of it are tried
SCAN_TRANSIENT = 512  # steps for each mu's orbit to settle before its tail
SCAN_KEEP = 64  # tail values per mu: one full turn of a cycle up to period 64


class DynamicsError(ValueError):
    """Raised on invalid growth parameters."""


@frozen
class LogisticParams:
    r: float
    K: float
    dt: float

    def __post_init__(self):
        for name in ("r", "K", "dt"):
            if not 0 < (value := getattr(self, name)) < math.inf:  # nan fails too
                raise DynamicsError(f"{name} must be positive and finite, got {value}")

    @property
    def mu(self) -> float:
        return 1.0 + self.r * self.dt

    @property
    def kappa(self) -> float:
        return (1.0 + self.r * self.dt) * self.K / (self.r * self.dt)


def ode_solution(p: LogisticParams, n0: float, t: float) -> float:
    """Closed-form logistic solution N(t) = K N0 e^{rt} / (K + N0(e^{rt}-1)).

    For t >= 0 it is evaluated as K N0 / (N0 + (K - N0) e^{-rt}), whose
    exponential cannot overflow.
    """
    if n0 < 0:
        raise DynamicsError("population must be nonnegative")
    if n0 == 0.0:
        return 0.0
    if t >= 0:
        return p.K * n0 / (n0 + (p.K - n0) * math.exp(-p.r * t))
    e = math.exp(p.r * t)
    return p.K * n0 * e / (p.K + n0 * (e - 1.0))


def map_step(mu: float, kappa: float, n: float) -> float:
    return mu * (1.0 - n / kappa) * n


def map_orbit(mu: float, kappa: float, n0: float, steps: int) -> list[float]:
    """Exact iteration of the finite-difference map, n0 included."""
    if steps < 0:
        raise DynamicsError("steps must be nonnegative")
    for name, value in (("mu", mu), ("n0", n0)):
        if not math.isfinite(value):
            raise DynamicsError(f"{name} must be finite, got {value}")
    orbit = [float(n0)]
    for _ in range(steps):
        orbit.append(map_step(mu, kappa, orbit[-1]))
    return orbit


@frozen
class CycleReport:
    kind: str            # fixed | period-k | aperiodic-within-window
    period: int | None


def detect_cycle(orbit: Sequence[float]) -> CycleReport:
    """Smallest period k with |N(n+k) - N(n)| < CYCLE_TOL over the orbit tail.

    The first CYCLE_TRANSIENT points are discarded; candidate periods run up
    to a quarter of the CYCLE_WINDOW-point analysis window.
    """
    tail = [float(v) for v in orbit[CYCLE_TRANSIENT:][-CYCLE_WINDOW:]]
    if len(tail) < 8:
        raise DynamicsError("orbit too short after transient discard")
    for k in range(1, len(tail) // 4 + 1):
        if all(abs(b - a) < CYCLE_TOL for a, b in zip(tail, tail[k:])):
            return CycleReport("fixed" if k == 1 else f"period-{k}", k)
    return CycleReport("aperiodic-within-window", None)


def bifurcation_scan(
    mu_values: Sequence[float],
    kappa: float = 1.0,
    n0: float = 0.5,
) -> list[tuple[float, list[float]]]:
    """The last SCAN_KEEP orbit values per mu, after SCAN_TRANSIENT steps,
    for bifurcation-diagram export."""
    out = []
    for mu in mu_values:
        orbit = map_orbit(float(mu), kappa, n0, SCAN_TRANSIENT + SCAN_KEEP)
        out.append((float(mu), orbit[-SCAN_KEEP:]))
    return out
