"""Self-similar frame: change of variables, Hermite-type spectral basis, and
evolution of the transformed solution.

Variables: tau = log(1+t), y = x (1+t)^{-1/2}.  The working unknown is

    W(tau, y) = e^{-tau/2} e^{y^2/8} e^{x} v(t, x),

which satisfies W_tau + M W = a(tau) (W_y - (y/4) W) + b(tau) W with

    M = -d^2/dy^2 + (y^2/16 - 3/4)

and (a, b) from drift.selfsimilar_forcing.  The -tau/2 exponent in the weight
is forced by requiring the constant -3/4 in the potential; see
docs/selfsimilar_derivation.md for the full substitution (re-derived
symbolically; the companion test test_oscillator.py::test_transform_exponent
repeats it with sympy).  Two consequences used throughout:

* W_y(tau, 0) = v_x(t, 0) exactly, so boundary slopes can be read in either
  frame (slope_correspondence);
* the kernel direction of M is y e^{-y^2/8}, whose coefficient is the limit
  of both the boundary slope and the total mass.

Eigenfunctions on the half-line with a Dirichlet condition at 0 are the odd
Hermite modes e_n(y) = H_{2n+1}(y/2) e^{-y^2/8} / sqrt(2^{2n+1} (2n+1)! sqrt(pi)),
with eigenvalue exactly n.  Every mode comes from one recurrence, the
generator hermite_rows, whose row n is e_n at u = y/2: it steps the odd
Hermite functions alone, by the two-step form of the three-term recurrence.
The discrete M_h is assembled in one place, _operator_parts, which evolve_W
steps with.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.special import gamma, gammainc

from .drift import SQRT_PI, DriftExpansion, selfsimilar_forcing
from .pde import Field, NumericalFailure, ObservableSeries, banded, march

#: L2 norm of the unnormalized kernel mode y e^{-y^2/8} on (0, inf).
KERNEL_NORM = math.sqrt(2.0 * SQRT_PI)

#: smallest final tau of a trajectory for the spectral projection of alpha_0
#: (its remainder decays like tau e^{-tau}) and for the mass recurrence
SPECTRAL_TAU_MIN = 6.0

#: end of the self-similar grid, where the Gaussian weight e^{-y^2/8} of the
#: modes is below 1e-33
Y_MAX = 25.0


class LossOfSupport(NumericalFailure):
    """Transform would need field values beyond the physical grid."""


# ---------------------------------------------------------------------------
# types

@dataclass
class SelfSimilarField:
    """W at one time tau on a uniform grid {0, dy, ..., Y}."""

    tau: float
    y: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.y.shape != self.values.shape:
            raise ValueError("y and values must have the same shape")
        if not np.all(np.isfinite(self.values)):
            raise NumericalFailure("W contains non-finite values")

    @property
    def dy(self) -> float:
        return float(self.y[1] - self.y[0])


def default_y_grid(dy: float = 0.01) -> np.ndarray:
    """The nodes {0, dy, ..., Y_MAX}, to the nearest multiple of dy."""
    n = int(round(Y_MAX / dy))
    return np.linspace(0.0, n * dy, n + 1)


def hermite_rows(u: np.ndarray):
    """Odd orthonormal Hermite functions h_1, h_3, h_5, ... at nodes u, one row at a time.

    h_k(u) = H_k(u) e^{-u^2/2} / sqrt(2^k k! sqrt(pi)).  Row n is h_{2n+1}(u),
    so row n at u = y/2 is the eigenfunction e_n(y).  The rows come from the
    two-step form of the weight-inside three-term recurrence, which is
    overflow-free for any k and skips the even functions:

        h_{k+2} = ((2u^2 - 2k - 1) h_k - sqrt(k (k-1)) h_{k-2}) / sqrt((k+1)(k+2)),

    k odd, from h_1 = sqrt(2) u pi^{-1/4} e^{-u^2/2} (h_{-1} never enters).  So
    n rows cost n steps instead of 2n.  The price is accuracy in high rows near
    u = 0, where the two-step recurrence has a double root: against mpmath,
    row n is within 16 (2n+1) eps absolute (7.3e-12 at n = 1023; measured
    2.25e-12 there, at y = 0.08), where the three-term form stays below 5e-15.
    The generator is endless and keeps two rows.
    """
    v = 2.0 * u * u
    h_prev, h = 0.0, math.sqrt(2.0) * u * (np.pi ** -0.25 * np.exp(-0.5 * u * u))
    for k in itertools.count(1, 2):
        yield h
        # in place, one fresh array a row (the caller may keep it), and a
        # multiply by the reciprocal, cheaper than an array division
        h_next = v - (2 * k + 1)
        h_next *= h
        h_next -= math.sqrt(k * (k - 1)) * h_prev
        h_next *= 1.0 / math.sqrt((k + 1) * (k + 2))
        h_prev, h = h, h_next


def eigenfunction(n: int, y: np.ndarray) -> np.ndarray:
    """Node values of e_n, the n-th Dirichlet eigenfunction of M (eigenvalue n)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    y = np.asarray(y, dtype=float)
    return next(itertools.islice(hermite_rows(y / 2.0), n, None))


def _check_half_line(y: np.ndarray):
    """Raise ValueError naming the first negative node of y.

    The modes and g live on y >= 0; at a negative node the odd modes would
    silently give g's odd extension and the series route its even one.
    """
    neg = np.flatnonzero(y < 0.0)
    if neg.size:
        raise ValueError(f"y must be >= 0 at every node, got y[{neg[0]}] = {float(y[neg[0]])!r}")


def trapezoid_weights(n: int, dy: float) -> np.ndarray:
    """Composite trapezoid weights of n uniform nodes dy apart."""
    w = np.full(n, dy)
    w[0] = w[-1] = dy / 2.0
    return w


@dataclass
class SpectralBasis:
    """First n_modes eigenfunctions sampled on a grid, with trapezoid weights."""

    y: np.ndarray
    n_modes: int

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        _check_half_line(self.y)
        if self.n_modes < 1:
            raise ValueError("n_modes must be >= 1")
        self.weights = trapezoid_weights(self.y.size, self.y[1] - self.y[0])
        self.modes = np.array(list(itertools.islice(hermite_rows(self.y / 2.0), self.n_modes)))

    def project(self, values: np.ndarray) -> np.ndarray:
        """Coefficients <values, e_n> for n < n_modes."""
        return self.modes @ (self.weights * values)


@dataclass
class Decomposition:
    """W split into alpha * y e^{-y^2/8} + e^{-tau/2} g + R."""

    alpha: float
    g_part: np.ndarray
    remainder: np.ndarray
    r_norm: float
    r_slope0: float


# ---------------------------------------------------------------------------
# discrete operator

def _potential(y: np.ndarray) -> np.ndarray:
    return y * y / 16.0 - 0.75


def _operator_parts(y: np.ndarray, dy: float):
    """(L0, L1) = (-M_h, D1 - y/4) in banded form (half-width 2) on the grid y of spacing dy.

    Fourth-order 5-point stencils for d^2/dy^2 and d/dy inside, 3-point ones
    on the nodes next to the ends (where the wider stencil would leave the
    grid); the end rows are zero, the Dirichlet condition.
    """
    n = y.size
    edge = np.isin(np.arange(n), (1, n - 2))

    def stencil(inner, near):
        return {k: np.where(edge, b, a) for k, a, b in zip(range(-2, 3), inner, near)}

    lap = stencil(np.array([-1, 16, -30, 16, -1]) * (1.0 / (12 * dy * dy)),
                  np.array([0, 1, -2, 1, 0]) / (dy * dy))
    d1 = stencil(np.array([1, -8, 0, 8, -1]) / (12 * dy), np.array([0, -1, 0, 1, 0]) / (2 * dy))
    lap[0] = lap[0] - _potential(y)
    d1[0] = d1[0] - y / 4.0
    return banded(2, n, lap), banded(2, n, d1)


def slope_at_origin(values: np.ndarray, dy: float) -> float:
    """One-sided 4th-order first derivative at the first node."""
    v = values
    return float((-25 * v[0] + 48 * v[1] - 36 * v[2] + 16 * v[3] - 3 * v[4]) / (12 * dy))


def slope_correspondence(W: SelfSimilarField) -> float:
    """W_y(tau, 0); equals v_x(t, 0) of the physical field at t = e^tau - 1."""
    return slope_at_origin(W.values, W.dy)


# ---------------------------------------------------------------------------
# frame changes

def to_selfsimilar(f: Field, y_grid: np.ndarray) -> SelfSimilarField:
    """Map a physical field to the self-similar frame.

    Raises LossOfSupport if the map would read past x_max, as it does on the
    default y grid after t = (x_max / Y_MAX)^2 - 1, or if the field is not
    negligible beyond the last x the map reads.
    """
    tau = math.log1p(f.time)
    xs = y_grid * math.sqrt(1.0 + f.time)
    if xs[-1] > f.grid.x_max:
        raise LossOfSupport(f"need x up to {xs[-1]:.2f} > x_max = {f.grid.x_max:g} "
                            f"(y = {y_grid[-1]:g} at t = {f.time:g})")
    if np.abs(f.values[f.grid.x > xs[-1]]).max(initial=0.0) > 1e-13 * np.abs(f.values).max():
        raise LossOfSupport(f"the field is not negligible beyond x = {xs[-1]:.2f}, where the "
                            f"self-similar grid ends (y = {y_grid[-1]:g} at t = {f.time:g})")
    W = np.exp(-tau / 2.0 + y_grid ** 2 / 8.0 + xs) * CubicSpline(f.grid.x, f.values)(xs)
    W[0] = W[-1] = 0.0
    return SelfSimilarField(tau, y_grid, W)


def initial_mode_overlap(f: Field):
    """Both readings of the initial kernel-mode overlap.

    Returns (int y e^y v0 dy, int xi v0 dxi).  The first is exactly
    <W_0, y e^{-y^2/8}>; the second drops the e^y weight.  They differ for
    generic data and are both reported rather than reconciled.
    """
    x = f.grid.x
    weighted = float(np.trapezoid(x * np.exp(x) * f.values, x))
    plain = float(np.trapezoid(x * f.values, x))
    return weighted, plain


# ---------------------------------------------------------------------------
# evolution

@dataclass
class WTrajectory:
    """Sampled W states: taus (n_samples,), states (n_samples, n_nodes)."""

    y: np.ndarray
    taus: np.ndarray
    states: np.ndarray
    cbar: float

    def __len__(self):
        return len(self.taus)

    def field(self, i: int) -> SelfSimilarField:
        return SelfSimilarField(float(self.taus[i]), self.y, self.states[i])


def evolve_W(W0: SelfSimilarField, tau_end: float, d: DriftExpansion, dtau: float,
             sample_every: int, startup_steps: int = 0) -> WTrajectory:
    """Crank-Nicolson march of the forced oscillator equation on the y grid.

    The equation is W_tau = L W with L = L0 + a L1 + b I, where L0 = -M_h and
    L1 = D1 - y/4.  _operator_parts assembles them once per run in banded
    form, and pde.march combines them with the forcing coefficients a and b
    at each step's half time.  The samples are those of pde.march: the
    initial state, the state after the startup_steps implicit-Euler half
    steps, every sample_every-th step and the final state.
    """
    taus, states = zip(*march(_operator_parts(W0.y, W0.dy), W0.values, W0.tau, tau_end,
                              dtau, startup_steps, sample_every,
                              lambda tau_half: selfsimilar_forcing(tau_half, d)))
    return WTrajectory(W0.y, np.array(taus), np.array(states), d.cbar)


# ---------------------------------------------------------------------------
# decomposition

def decompose(W: SelfSimilarField, alpha: float, g_values: np.ndarray) -> Decomposition:
    """R = W - alpha y e^{-y^2/8} - e^{-tau/2} g, with its norm and origin slope.

    alpha is the coefficient of the unnormalized kernel mode y e^{-y^2/8};
    g comes from the specfun module (either construction route).
    """
    y = W.y
    kernel = y * np.exp(-y * y / 8.0)
    g_part = math.exp(-W.tau / 2.0) * np.asarray(g_values, dtype=float)
    R = W.values - alpha * kernel - g_part
    r_norm = math.sqrt(max(float(np.sum(trapezoid_weights(y.size, W.dy) * R * R)), 0.0))
    return Decomposition(alpha, g_part, R, r_norm, slope_at_origin(R, W.dy))


def observables_from_trajectory(traj: WTrajectory):
    """ObservableSeries (t, mass, slope0) read off a self-similar trajectory.

    slope0 is exact in the transform (W_y(tau,0) = v_x(t,0)), and the mass
    balance m' = m - slope0 gives m(t) = int_0^inf e^{-u} slope0(t+u) du.  On
    piece i of S, the cubic spline of slope0 in t, that integral is
    I_i = sum_k c[3-k] k! P(k+1, h_i), P the regularized incomplete gamma
    function, and m_i = I_i + e^{-h_i} m_{i+1} runs backward from
    m = S + S' + S'' + S''' at the last sample, a start that takes slope0 as
    flat: samples pipeline.SAMPLE_DTAU apart must reach SPECTRAL_TAU_MIN.
    """
    if traj.taus[-1] < SPECTRAL_TAU_MIN:
        raise ValueError(f"mass balance wants tau >= {SPECTRAL_TAU_MIN:g}, got {traj.taus[-1]:.17g}")
    times = np.array([math.expm1(t) for t in traj.taus])
    slopes = np.array([slope_at_origin(row, traj.y[1] - traj.y[0]) for row in traj.states])
    S = CubicSpline(times, slopes)
    h = np.diff(times)
    k = np.arange(4)[:, None]
    pieces = np.sum(S.c[::-1] * gamma(k + 1) * gammainc(k + 1, h), axis=0)
    masses = [sum(S(times[-1], nu) for nu in range(4))]
    for piece, decay in zip(pieces[::-1], np.exp(-h[::-1])):
        masses.append(piece + decay * masses[-1])
    return ObservableSeries(times, masses[::-1], slopes)


#: the columns of trajectory_table
TRAJECTORY_COLUMNS = ["tau", *(f"coef_e{n}" for n in range(8)), "W_slope0", "R_norm", "R_slope0"]


def trajectory_table(traj: WTrajectory, alpha: float, g_values: np.ndarray) -> np.ndarray:
    """One row of TRAJECTORY_COLUMNS per sample of traj: tau, coef_e0..coef_e7,
    W_slope0, R_norm, R_slope0."""
    basis = SpectralBasis(traj.y, 8)
    fields = [traj.field(i) for i in range(len(traj))]
    decs = (decompose(W, alpha, g_values) for W in fields)
    return np.array([[W.tau, *basis.project(W.values), slope_correspondence(W), d.r_norm,
                      d.r_slope0] for W, d in zip(fields, decs)])
