"""Moving-frame advection-diffusion-growth solver on the half-line.

Solves v_t - Xdot(t) v_x = v_xx + v on x in (0, x_max) with v(t, 0) = 0 and a
homogeneous Dirichlet condition at the truncation boundary x_max.  The solution
decays like x e^{-x} times bounded corrections, so x_max = 60 puts the
truncation error below round-off.

Scheme: trapezoidal (Crank-Nicolson) in time with the operator evaluated at the
half step; diffusion by the 3-point Laplacian; the advection term +Xdot v_x by
a second-order one-sided stencil biased against the leftward transport
direction.  The resulting system has one lower and two upper bands.  Rough
initial data (indicators) is handled by a short Rannacher startup: a few
implicit-Euler half steps with first-order upwinding, which damps the undamped
Crank-Nicolson modes and preserves positivity.

Both frames advance through march, a loop around theta_step, the one banded
theta-stepper.  march takes the startup half steps and the Crank-Nicolson
steps and yields the samples; each frame passes it a callback that writes the
step's operator from fixed parts assembled once per run (here A0 + speed * A1,
in the self-similar frame L0 + a L1 + b I), combined in place in one band
buffer, and each step applies one banded mat-vec.  The step matrix
I - theta h L is factored once per distinct matrix.  The callback names the
operator by a key, the coefficients it was assembled with (here the speed and
the stencil, in the self-similar frame a and b).  A step whose key, h and
theta equal those of the run's stored LU factors (a constant drift, away from
the startup and the last step) solves with them (dgbtrs); any other step
factors and solves in one LAPACK call (dgbsv) and keeps the factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgbsv, dgbtrs

from .drift import DriftExpansion, front_speed


class NumericalFailure(RuntimeError):
    """Raised when a solve produces non-finite values."""


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform node grid {0, dx, ..., x_max} with dx = x_max/nx."""

    x_max: float = 60.0
    nx: int = 6000

    def __post_init__(self):
        if self.nx < 3 or self.x_max <= 0:
            raise ValueError("need nx >= 3 and x_max > 0")

    @property
    def dx(self) -> float:
        return self.x_max / self.nx

    @property
    def x(self) -> np.ndarray:
        return np.linspace(0.0, self.x_max, self.nx + 1)


@dataclass
class Field:
    """Discretized solution v(t, .) on a SpatialGrid."""

    grid: SpatialGrid
    values: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.nx + 1,):
            raise ValueError("values must have length nx+1")
        if not np.all(np.isfinite(self.values)):
            raise NumericalFailure("field contains non-finite values")
        if self.values[0] != 0.0 or self.values[-1] != 0.0:
            raise ValueError("Dirichlet values at both ends must be exactly 0")


@dataclass(frozen=True)
class SolverConfig:
    """Time stepping parameters.

    dt is a maximum: the effective step is min(dt, dx), since accuracy is
    advection-limited rather than stability-limited for the implicit scheme.
    startup_steps implicit-Euler half steps precede the trapezoidal loop.
    """

    dt: float = 0.01
    sample_every: int = 1
    startup_steps: int = 4

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")

    def effective_dt(self, grid: SpatialGrid) -> float:
        return min(self.dt, grid.dx)


@dataclass
class ObservableSeries:
    """Sampled times with total mass and boundary slope, equal lengths."""

    times: np.ndarray
    mass: np.ndarray
    slope0: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.mass = np.asarray(self.mass, dtype=float)
        self.slope0 = np.asarray(self.slope0, dtype=float)
        if not (len(self.times) == len(self.mass) == len(self.slope0)):
            raise ValueError("series components must have equal length")
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")

    def __len__(self):
        return len(self.times)

    def restricted(self, t_min=-np.inf, t_max=np.inf) -> "ObservableSeries":
        sel = (self.times >= t_min) & (self.times <= t_max)
        return ObservableSeries(self.times[sel], self.mass[sel], self.slope0[sel])


def initial_condition(kind: str, grid: SpatialGrid, a: float = 1.0, b: float = 2.0) -> Field:
    """Compactly supported initial data on (a, b).

    'indicator': 1 on [a, b], 1/2 at nodes coinciding with a or b (keeps the
    trapezoid quadrature second order).  'smooth_bump': C-infinity bump with
    peak 1 supported in [a, b].
    """
    if not (0.0 < a < b < grid.x_max):
        raise ValueError("support [a, b] must satisfy 0 < a < b < x_max")
    x = grid.x
    if kind == "indicator":
        v = np.where((x > a) & (x < b), 1.0, 0.0)
        tol = 1e-12 * grid.dx
        v[np.abs(x - a) <= tol] = 0.5
        v[np.abs(x - b) <= tol] = 0.5
    elif kind == "smooth_bump":
        s = (2.0 * x - (a + b)) / (b - a)
        v = np.zeros_like(x)
        inside = np.abs(s) < 1.0
        v[inside] = np.exp(1.0 - 1.0 / (1.0 - s[inside] ** 2))
    else:
        raise ValueError(f"unknown initial condition kind: {kind}")
    v[0] = v[-1] = 0.0
    return Field(grid, v, 0.0)


def banded(lu, n: int, diagonals: dict) -> np.ndarray:
    """An n x n operator in LAPACK band storage, with zero first and last rows.

    The result is a (2l+u+1) x n Fortran-order array: rows l: hold A[i, j] at
    [l + u + i - j, j], the solve_banded layout, and the first l rows are the
    room dgbsv needs for the fill-in of its LU factors, which theta_step
    makes in an array of this shape.  Fortran order lets LAPACK factor that
    array in place, and lets operators of one layout be combined with
    whole-array operations.  diagonals maps an offset k to the
    entries A[i, i+k] (a scalar or one value per row i).  The end rows are
    left zero, so a theta step with this operator keeps homogeneous Dirichlet
    values by construction.
    """
    l, u = lu
    ab = np.zeros((2 * l + u + 1, n), order="F")
    for k, c in diagonals.items():
        c = np.array(np.broadcast_to(c, n), dtype=float)
        c[0] = c[-1] = 0.0
        if k >= 0:
            ab[l + u - k, k:] = c[:n - k]
        else:
            ab[l + u - k, :n + k] = c[-k:]
    return ab


def _matvec(ab, lu, v):
    """A v for a banded() operator ab, summed from the lowest band to the highest."""
    l, u = lu
    n = v.size
    out = np.zeros_like(v)
    for k in range(-l, u + 1):
        lo, hi = max(0, -k), min(n, n - k)
        out[lo:hi] += ab[l + u - k, lo + k:hi + k] * v[lo + k:hi + k]
    return out


class StepFactors:
    """The LU factors of the last theta-step matrix I - theta h L, and what they factor.

    march keeps one per run for its operator buffer L and hands it to each
    theta_step with a key: the values that fix L among the run's operators,
    such as the drift speed and the stencil.  A step whose key, h and theta
    equal the stored ones reuses the factors.
    """

    def __init__(self, L):
        self.ab = np.empty(L.shape, order="F")  # dgbsv factors I - theta h L here in place
        self.piv = self.made_for = None


def theta_step(L, lu, values, t, h, theta, factors=None, key=None):
    """One theta step of v' = L v from t to t + h; returns the new values.

    L holds the operator as from banded() and is left unchanged; values vanish
    at both ends.  theta = 1/2 is Crank-Nicolson, theta = 1 implicit Euler.
    When factors (a StepFactors, fresh if None) hold the LU factors for the
    same key, h and theta, the step solves with them (dgbtrs); otherwise, or
    without a key, it factors and solves in one call (dgbsv) and stores the
    factors.  dgbsv, the call scipy.linalg.solve_banded makes on the same
    layout, is dgbtrf followed by dgbtrs, so both paths give solve_banded's
    values bit for bit.  The zero end rows of L make the end rows of the
    system the identity; pivoting in the solve can still leave round-off
    there, so the ends are set to exactly 0.
    """
    l, u = lu
    factors = StepFactors(L) if factors is None else factors
    made_for = (key, h, theta)
    rhs = values.copy()
    if theta < 1.0:
        rhs += (1.0 - theta) * h * _matvec(L, lu, values)
    if key is not None and made_for == factors.made_for:
        out, info = dgbtrs(factors.ab, l, u, rhs, factors.piv, overwrite_b=True)
    else:
        np.multiply(L, -theta * h, out=factors.ab)
        factors.ab[l + u] += 1.0
        _, factors.piv, out, info = dgbsv(l, u, factors.ab, rhs,
                                          overwrite_ab=True, overwrite_b=True)
        factors.made_for = made_for if info == 0 else None
    if info != 0 or not np.all(np.isfinite(out)):
        raise NumericalFailure(f"singular or non-finite theta step from {t:.6g} to {t + h:.6g}")
    out[0] = out[-1] = 0.0
    return out


def march(L, lu, values, t, t_end, dt, startup_steps, sample_every, operator):
    """Advance values from t to t_end with theta_step; yield (t, values) at each sample.

    startup_steps implicit-Euler half steps (Rannacher startup, stopped at
    t_end) precede Crank-Nicolson steps of dt, the last one cut short to end
    at t_end.  The samples are the state handed in, the state after the
    startup, every sample_every-th Crank-Nicolson step and the state at t_end.
    operator(t_half, startup) writes the step's operator, at the half step of
    an implicit-Euler (startup true) or Crank-Nicolson step, into the buffer
    L and returns its theta_step key; the march owns the StepFactors.  It
    raises ValueError unless sample_every >= 1 and startup_steps >= 0.
    """
    if t_end < t - 1e-14:
        raise ValueError(f"t_end = {t_end!r} is before the start time {t!r}")
    if sample_every < 1 or startup_steps < 0:
        raise ValueError(f"need sample_every >= 1 and startup_steps >= 0, got "
                         f"{sample_every!r} and {startup_steps!r}")
    factors = StepFactors(L)    # of the last step matrix, reused while it repeats
    t0 = t
    yield t, values
    for _ in range(startup_steps):
        if t >= t_end - 1e-14:
            break
        h = min(dt / 2.0, t_end - t)
        values = theta_step(L, lu, values, t, h, 1.0, factors, operator(t + 0.5 * h, True))
        t += h
    if t > t0:
        yield t, values
    k = 0
    while t < t_end - 1e-12:
        h = min(dt, t_end - t)
        values = theta_step(L, lu, values, t, h, 0.5, factors, operator(t + 0.5 * h, False))
        t += h
        k += 1
        if k % sample_every == 0 or t >= t_end - 1e-12:
            yield t, values


#: Band layout of the physical operator: one lower and two upper bands.
_BANDS = (1, 2)


def _operator_parts(grid: SpatialGrid):
    """(A0, first-order A1, second-order A1) with L = A0 + speed * A1.

    A0 is diffusion plus growth.  A1 is the advection +d/dx per unit speed,
    one-sided against the leftward transport direction; the second-order
    stencil falls back to a centred one on the last interior node, which has
    no i+2 neighbour.
    """
    n = grid.nx + 1
    d2 = 1.0 / grid.dx**2
    a = 1.0 / grid.dx
    A0 = banded(_BANDS, n, {-1: d2, 0: -2.0 * d2 + 1.0, 1: d2})
    first = banded(_BANDS, n, {0: -a, 1: a})
    lo, di, up1, up2 = np.zeros(n), np.full(n, -1.5 * a), np.full(n, 2.0 * a), np.full(n, -0.5 * a)
    lo[-2], di[-2], up1[-2], up2[-2] = -0.5 * a, 0.0, 0.5 * a, 0.0
    second = banded(_BANDS, n, {-1: lo, 0: di, 1: up1, 2: up2})
    return A0, first, second


def mass(f: Field) -> float:
    """Composite trapezoid of v over the grid."""
    return float(np.trapezoid(f.values, dx=f.grid.dx))


def boundary_slope(f: Field) -> float:
    """Second-order one-sided v_x at the origin: (-3 v0 + 4 v1 - v2) / (2 dx)."""
    v = f.values
    return float((-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * f.grid.dx))


def evolve(f0: Field, t_end: float, cfg: SolverConfig, d: DriftExpansion):
    """March f0 to t_end, sampling mass and boundary slope along the way.

    Returns (final field, ObservableSeries) over march's samples.  The startup
    half steps use first-order upwinding, the Crank-Nicolson steps the
    second-order stencil, each with the drift speed at the half step.
    """
    grid = f0.grid
    A0, first, second = _operator_parts(grid)
    L = np.empty_like(A0)

    def operator(t_half, startup):
        speed = front_speed(t_half, d)
        np.multiply(first if startup else second, speed, out=L)
        np.add(L, A0, out=L)
        return speed, startup

    times, masses, slopes = [], [], []
    for t, vals in march(L, _BANDS, f0.values.copy(), f0.time, t_end, cfg.effective_dt(grid),
                         cfg.startup_steps, cfg.sample_every, operator):
        f = Field(grid, vals, t)
        times.append(t)
        masses.append(mass(f))
        slopes.append(boundary_slope(f))
    return f, ObservableSeries(times, masses, slopes)


def flux_identity_residual(s: ObservableSeries) -> float:
    """Max over interior samples of |d(mass)/dt - (mass - slope0)|.

    This is the parameter-free form of the mass balance: integrating the
    equation over the half-line gives m'(t) = m(t) - v_x(t, 0).  d/dt is a
    central difference on the sample times.
    """
    if len(s) < 3:
        raise ValueError("series must contain at least 3 samples")
    r = flux_residual_series(s)
    return float(np.max(np.abs(r[1:-1])))


def flux_residual_series(s: ObservableSeries) -> np.ndarray:
    """Per-sample residual of the mass balance (one-sided at the ends)."""
    t, m, sl = s.times, s.mass, s.slope0
    dmdt = np.gradient(m, t)
    return dmdt - (m - sl)


def write_series_csv(path, s: ObservableSeries):
    """CSV with header: t, mass, slope0, flux_residual (17 significant digits)."""
    resid = flux_residual_series(s) if len(s) >= 2 else np.zeros(len(s))
    with open(path, "w") as fh:
        fh.write("t,mass,slope0,flux_residual\n")
        for row in zip(s.times, s.mass, s.slope0, resid):
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")
