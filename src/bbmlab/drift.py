"""Front-location schedule and the self-similar forcing coefficients it induces.

The whole laboratory is parameterized by a single number cbar, the coefficient
of the (t+1)^{-1/2} correction in the front schedule

    X(t) = 2(t+1) - (3/2) log(t+1) - cbar / sqrt(t+1).

The distinguished value cbar = 3 sqrt(pi) separates the fast O(log t / t)
mass-stabilization regime from the generic O(t^{-1/2}) one.

Everything here uses t+1 (never bare t) so that tau = log(1+t) is exact and
t = 0 is a regular point of the schedule.  Each function of time takes a float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

SQRT_PI = math.sqrt(math.pi)

#: The critical correction coefficient 3*sqrt(pi) = 5.3173615527...
CBAR_CRITICAL = 3.0 * SQRT_PI


@dataclass(frozen=True)
class DriftExpansion:
    """Three-term front schedule, parameterized by the correction coefficient cbar."""

    cbar: float = CBAR_CRITICAL

    def __post_init__(self):
        if not math.isfinite(self.cbar):
            raise ValueError("cbar must be finite")


@dataclass(frozen=True)
class ConstantDrift:
    """Time-homogeneous frame speed for Monte Carlo validation; only front_speed takes it."""

    speed: float = 2.0

    def __post_init__(self):
        if not math.isfinite(self.speed):
            raise ValueError("speed must be finite")


def front_speed(t: float, d: DriftExpansion | ConstantDrift) -> float:
    """dX/dt = 2 - (3/2)(t+1)^{-1} + (cbar/2)(t+1)^{-3/2}, for t >= 0."""
    if t < 0:
        raise ValueError("t must be >= 0")
    if isinstance(d, ConstantDrift):
        return float(d.speed)
    tp = t + 1.0
    return 2.0 - 1.5 / tp + 0.5 * d.cbar * tp ** -1.5


def max_front_speed(d: DriftExpansion) -> float:
    """sup over t >= 0 of |front_speed(t, d)|, which is max(2, |1 + cbar| / 2).

    With s = (t+1)^{-1/2} in (0, 1], the speed is f(s) = 2 - (3/2) s^2 +
    (cbar/2) s^3, with end values f(1) = (1 + cbar)/2 at t = 0 and f -> 2 as
    t -> infinity.  For cbar <= 0, f decreases in s, so it lies between them.
    For cbar > 0, f'(s) = 3 s (cbar s / 2 - 1) vanishes inside (0, 1) only
    at s = 2/cbar when cbar > 2, a minimum with f = 2 - 2/cbar^2 > 0.  So |f|
    never exceeds the larger of 2 and |1 + cbar| / 2.
    """
    return max(2.0, abs(1.0 + d.cbar) / 2.0)


def selfsimilar_forcing(tau: float, d: DriftExpansion) -> tuple[float, float]:
    """Forcing coefficients (a, b) of the self-similar frame at time tau >= 0.

    The transformed equation reads W_tau + M W = a(tau) (W_y - (y/4) W) + b(tau) W
    with a(tau) = cbar/(2 e^tau) - 3/(2 e^{tau/2}) and b(tau) = -cbar/(2 e^{tau/2}).
    """
    if tau < 0:
        raise ValueError("tau must be >= 0")
    ehalf = math.exp(-0.5 * tau)
    return 0.5 * d.cbar * math.exp(-tau) - 1.5 * ehalf, -0.5 * d.cbar * ehalf
