"""Moving-frame advection-diffusion-growth solver on the half-line.

Solves v_t - Xdot(t) v_x = v_xx + v on x in (0, x_max) with v(t, 0) = 0 and a
homogeneous Dirichlet condition at the truncation boundary x_max.  The solution
decays like x e^{-x} times bounded corrections, so x_max = 60 puts the
truncation error below round-off.

Scheme: trapezoidal (Crank-Nicolson) in time with the operator evaluated at the
half step; diffusion by the 3-point Laplacian; the advection term +Xdot v_x by
the centred 3-point stencil Xdot (v[i+1] - v[i-1]) / (2 dx).  The resulting
system is tridiagonal.  Rough initial data (indicators) is handled by a short
Rannacher startup: a few implicit-Euler half steps with the same operator,
which damp the undamped Crank-Nicolson modes.  The startup preserves
positivity while the cell Peclet number |Xdot| dx / 2 stays below 1 (then
I - h L is an M-matrix), and evolve raises ValueError at a step that breaks
it.

Both frames advance through march, a loop around theta_step, the one banded
theta-stepper.  march takes the startup half steps and the Crank-Nicolson
steps and yields the samples.  Each frame hands it two fixed banded parts
(P0, P1), assembled once per run, and a function of the half-step time that
returns the coefficients (c1, c2) of the step's operator L = P0 + c1 P1 + c2 I
(here the speed and 0, in the self-similar frame a and b).  theta_step
writes I - theta h L from the parts and coefficients into the run's one
StepFactors and factors it, unless the coefficients, h and theta equal
those of the stored factors (a constant drift, away from the startup and
the last step).  Each step is one solve, u = (I - theta h L)^{-1} v, and
returns u/theta - ((1 - theta)/theta) v (2u - v for Crank-Nicolson), which
equals (I - theta h L)^{-1} (I + (1 - theta) h L) v: no mat-vec with L.
Both operators have k bands on each side of the diagonal, and k, read off
the parts' shape, picks LAPACK's routines: the tridiagonal ones (dgttrf,
dgttrs) for the physical k = 1, the banded ones (dgbtrf, dgbtrs) for the
self-similar k = 2.

A physical solution underflows to exact zeros ahead of a front that takes
hundreds of steps to cross the grid (435 of criterion 8's 1202).  Past that
front a whole-grid dgttrs carries the smallest subnormal, 4.9e-324, through
every node: each multiplier is about -0.87, and the product rounds back to
4.9e-324, so every one of those operations is subnormal.  On a 2-core x86_64
host at n = 12001 that made a solve cost 793 us for the indicator against
167 us for a right-hand side that does not underflow.  So a tridiagonal solve
covers only the nodes up to the state's last nonzero one plus PREFIX_MARGIN,
and is redone over the whole grid unless the result is provably the
whole-grid one (_prefix_exact): the margin changes the speed, never a value.
The self-similar W never underflows, so its banded solve is whole-grid.

write_csv writes every CSV table of the package, numbers to 17 digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs, dgttrf, dgttrs

from .drift import DriftExpansion, front_speed


class NumericalFailure(RuntimeError):
    """A numerical method failed: a solve produced non-finite values, a
    transform lost its support, a series did not converge or a population
    outgrew its cap."""


#: truncation boundary of the physical runs (see the module docstring)
X_MAX = 60.0


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform node grid {0, dx, ..., x_max} with dx = x_max/nx."""

    x_max: float = X_MAX
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


def banded(k: int, n: int, diagonals: dict) -> np.ndarray:
    """An n x n operator of half-width k in LAPACK band storage, with zero first and last rows.

    The result is a (3k+1) x n Fortran-order array: rows k: hold A[i, j] at
    [2k + i - j, j], the solve_banded layout for (k, k), and the first k rows
    are the room dgbtrf needs for the fill-in of its LU factors, which
    theta_step makes in an array of this shape.  Fortran order lets LAPACK
    factor that array in place, and lets operators of one half-width be
    combined with whole-array operations.  diagonals maps an offset j,
    |j| <= k, to the entries A[i, i+j] (a scalar or one value per row i).
    The end rows are left zero, so a theta step with this operator keeps
    homogeneous Dirichlet values by construction.
    """
    ab = np.zeros((3 * k + 1, n), order="F")
    for j, c in diagonals.items():
        c = np.array(np.broadcast_to(c, n), dtype=float)
        c[0] = c[-1] = 0.0
        if j >= 0:
            ab[2 * k - j, j:] = c[:n - j]
        else:
            ab[2 * k - j, :n + j] = c[-j:]
    return ab


#: zero nodes past the state's last nonzero one that a tridiagonal step also
#: solves over; the underflow front of the physical runs advances up to about
#: 30 nodes a step, so a wider margin only costs time (see _solve)
PREFIX_MARGIN = 64


class StepFactors:
    """The LU factors of the last theta-step matrix I - theta h L, and what they factor.

    march keeps one per run, made from the run's parts (P0, P1), whose shape
    gives the half-width k.  theta_step builds each step matrix in ab from
    the parts and the step's coefficients c, and made_for records (c, h,
    theta): a step with the same three reuses the factors, the pivots piv
    with ab, dgbtrf's factors, or for k = 1 with tri, dgttrf's (dl, d, du,
    du2) and tail, what _prefix_exact reads of them.
    """

    def __init__(self, parts):
        self.k = (parts[0].shape[0] - 1) // 3
        self.ab = np.empty(parts[0].shape, order="F")  # I - theta h L in band storage
        self.tri = self.piv = self.made_for = self.tail = None


def _prefix_exact(factors, p):
    """Whether a tridiagonal solve over rows < p whose last value is 0 is the whole solve.

    Take b zero from row p on.  Rows p - 1 on, dgttrs's forward sweep then
    computes y[i] = -dl[i-1] y[i-1]: dgttrf's partial pivoting keeps every
    multiplier |dl| <= 1, so with no row interchange from step p - 1 on,
    |y[i]| <= |y[p-1]|.  A last value x[p-1] = y[p-1]/d[p-1] that rounds to
    0 bounds |y[p-1]| by k 2^-1074 with k <= |d[p-1]|/2 (every double is a
    multiple of 2^-1074), so each x[i] = y[i]/d[i] behind it rounds to 0 as
    well when 2 floor(|d[p-1]|/2) <= |d[i]|.  The last row is exempt when
    its multiplier is 0 (a Dirichlet row): its y is exactly 0.  The whole
    back-substitution then meets zeros past the cut and gives the prefix's
    values before it.  The factors keep, per factorization, the first step
    with no interchange from it on, |d| and the minima of |d| from each row on.
    """
    if factors.tail is None:
        dl, d = factors.tri[:2]
        swapped = np.flatnonzero(factors.piv[:-1] != np.arange(1, d.size))
        abs_d = np.abs(d[:-1] if dl[-1] == 0.0 else d)
        factors.tail = (swapped[-1] + 1 if swapped.size else 0, abs_d,
                        np.append(np.minimum.accumulate(abs_d[::-1])[::-1], np.inf))
    first, abs_d, min_from = factors.tail
    return p - 1 >= first and 2.0 * math.floor(abs_d[p - 1] / 2.0) <= min_from[p]


def _solve(factors, values):
    """(I - theta h L)^{-1} values on the rows it reaches, and LAPACK's info.

    A banded solve covers the whole grid.  While the state is zero at the
    far end, a tridiagonal one covers the nodes up to its last nonzero value
    plus PREFIX_MARGIN, when _prefix_exact allows that cut and the last
    covered value comes out exactly 0; otherwise it is redone over the whole
    grid.  Past the cut the whole-grid solve gives exact zeros, so the
    margin sets the speed, never a value.
    """
    if factors.k != 1:
        return dgbtrs(factors.ab, factors.k, factors.k, values, factors.piv)
    dl, d, du, du2 = factors.tri
    n = values.size
    if values[-2] == 0.0:
        p = n - int(np.argmax(values[::-1] != 0.0)) + PREFIX_MARGIN
        if p < n and _prefix_exact(factors, p):
            x, info = dgttrs(dl[:p - 1], d[:p], du[:p - 1], du2[:p - 2], factors.piv[:p],
                             values[:p])
            if x[-1] == 0.0:
                return x, info
    return dgttrs(dl, d, du, du2, factors.piv, values)


def theta_step(parts, values, t, h, theta, factors, c):
    """One theta step of v' = L v from t to t + h; returns the new values.

    L = P0 + c1 P1 + c2 I, with (P0, P1) = parts as from banded() and
    (c1, c2) = c; values vanish at both ends.  theta = 1/2 is Crank-Nicolson,
    theta = 1 implicit Euler.  When factors (a StepFactors of these parts)
    were made for the same c, h and theta, the step solves with them;
    otherwise it writes I - theta h L into factors.ab (P1 c1, then + P0,
    then + c2 on the interior diagonal, then times -theta h, then + 1 on the
    diagonal), factors it, keeps the factors and solves.  At half-width
    k = 1 it factors with dgttrf and solves with dgttrs; at k = 2 with
    dgbtrf and dgbtrs.  The step is one solve, u = (I - theta h L)^{-1} v,
    and returns u/theta - ((1 - theta)/theta) v, 2u - v for Crank-Nicolson,
    which equals (I - theta h L)^{-1} (I + (1 - theta) h L) v: no mat-vec
    with L.  A tridiagonal solve covers the active prefix of _solve.  u is
    scipy.linalg.solve_banded's bit for bit: its LAPACK drivers run the same
    eliminations (dgtsv as dgttrf then dgttrs, dgbsv as dgbtrf then dgbtrs).
    A non-finite or singular matrix, a nonzero LAPACK info or a non-finite
    value raises NumericalFailure.  The zero end rows of the parts make the
    end rows of the system the identity; pivoting in the solve can still
    leave round-off there, so the ends are set to exactly 0.
    """
    made_for = (c, h, theta)
    if made_for != factors.made_for:
        factors.made_for = factors.tail = None
        k, ab = factors.k, factors.ab
        np.multiply(parts[1], c[0], out=ab)
        ab += parts[0]
        ab[2 * k, 1:-1] += c[1]     # c2 I, whose end rows are zero like every part's
        ab *= -theta * h
        ab[2 * k] += 1.0
        if not np.all(np.isfinite(ab[k:])):     # a cut solve need not reach a bad row
            raise NumericalFailure(f"non-finite theta step matrix from {t:.6g} to {t + h:.6g}")
        if k == 1:    # rows 3, 2 and 1 of the band storage: lower, main and upper diagonal
            *factors.tri, factors.piv, info = dgttrf(ab[3, :-1], ab[2], ab[1, 1:])
        else:
            factors.ab, factors.piv, info = dgbtrf(ab, k, k, overwrite_ab=True)
        if info != 0:
            raise NumericalFailure(f"singular theta step from {t:.6g} to {t + h:.6g}")
        factors.made_for = made_for
    out, info = _solve(factors, values)
    p = out.size
    if theta < 1.0:
        out /= theta
        out -= (1.0 - theta) / theta * values[:p]
    if info != 0 or not np.all(np.isfinite(out)):
        raise NumericalFailure(f"singular or non-finite theta step from {t:.6g} to {t + h:.6g}")
    if p < values.size:
        out = np.concatenate((out, np.zeros(values.size - p)))
    out[0] = out[-1] = 0.0
    return out


def march(parts, values, t, t_end, dt, startup_steps, sample_every, coefficients):
    """Advance values from t to t_end with theta_step; yield (t, values) at each sample.

    startup_steps implicit-Euler half steps (Rannacher startup, stopped at
    t_end) precede Crank-Nicolson steps of dt, the last one cut short to end
    at t_end.  The samples are the state handed in, the state after the
    startup, every sample_every-th Crank-Nicolson step and the state at t_end.
    Every step has the operator L = P0 + c1 P1 + c2 I of the banded parts
    (P0, P1) = parts, with (c1, c2) = coefficients(t_half) at its half time;
    the march hands both to theta_step with the run's one StepFactors.  It
    raises ValueError unless t, t_end and dt are finite, sample_every >= 1
    and startup_steps >= 0.
    """
    if not np.all(np.isfinite([t, t_end, dt])):
        raise ValueError(f"need finite t, t_end and dt, got {t!r}, {t_end!r} and {dt!r}")
    if t_end < t - 1e-14:
        raise ValueError(f"t_end = {t_end!r} is before the start time {t!r}")
    if sample_every < 1 or startup_steps < 0:
        raise ValueError(f"need sample_every >= 1 and startup_steps >= 0, got "
                         f"{sample_every!r} and {startup_steps!r}")
    factors = StepFactors(parts)    # of the last step matrix, reused while it repeats
    t0 = t
    yield t, values
    for _ in range(startup_steps):
        if t >= t_end - 1e-14:
            break
        h = min(dt / 2.0, t_end - t)
        values = theta_step(parts, values, t, h, 1.0, factors, coefficients(t + 0.5 * h))
        t += h
    if t > t0:
        yield t, values
    k = 0
    while t < t_end - 1e-12:
        last = t_end - t <= dt * (1.0 + 1e-9)
        h = t_end - t if last else dt
        values = theta_step(parts, values, t, h, 0.5, factors, coefficients(t + 0.5 * h))
        t = t_end if last else t + h
        k += 1
        if k % sample_every == 0 or t >= t_end - 1e-12:
            yield t, values


def _operator_parts(grid: SpatialGrid):
    """(A0, A1) with L = A0 + speed * A1, tridiagonal (half-width 1).

    A0 is diffusion plus growth, A1 the centred advection +d/dx per unit speed.
    """
    n = grid.nx + 1
    d2 = 1.0 / grid.dx**2
    a = 0.5 / grid.dx
    return (banded(1, n, {-1: d2, 0: -2.0 * d2 + 1.0, 1: d2}),
            banded(1, n, {-1: -a, 1: a}))


def mass(f: Field) -> float:
    """Composite trapezoid of v over the grid."""
    return float(np.trapezoid(f.values, dx=f.grid.dx))


def boundary_slope(f: Field) -> float:
    """Second-order one-sided v_x at the origin: (-3 v0 + 4 v1 - v2) / (2 dx)."""
    v = f.values
    return float((-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * f.grid.dx))


def evolve(f0: Field, t_end: float, cfg: SolverConfig, d: DriftExpansion):
    """March f0 to t_end, sampling mass and boundary slope along the way.

    Returns (final field, ObservableSeries) over march's samples.  Every step
    uses the centred operator A0 + speed * A1 with the drift speed at its half
    step.  The implicit-Euler startup keeps positivity while |speed| dx < 2,
    so a step whose speed breaks that raises ValueError; drift.max_front_speed
    bounds the speed of a whole run.
    """
    grid = f0.grid

    def coefficients(t_half):
        speed = front_speed(t_half, d)
        if abs(speed) * grid.dx >= 2.0:
            raise ValueError(f"front speed {speed:.6g} at t = {t_half:.6g} with dx = "
                             f"{grid.dx:.6g} breaks |speed| dx < 2, the positivity bound "
                             f"of the centred startup")
        return speed, 0.0

    times, masses, slopes = [], [], []
    for t, vals in march(_operator_parts(grid), f0.values.copy(), f0.time, t_end,
                         cfg.effective_dt(grid), cfg.startup_steps, cfg.sample_every, coefficients):
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


def write_csv(path, header, rows):
    """A header line, then one line per row: strings verbatim, numbers to 17 digits."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(v if isinstance(v, str) else f"{v:.17g}" for v in row) + "\n")


def write_series_csv(path, s: ObservableSeries):
    """CSV with header: t, mass, slope0, flux_residual."""
    resid = flux_residual_series(s) if len(s) >= 2 else np.zeros(len(s))
    write_csv(path, ["t", "mass", "slope0", "flux_residual"], zip(s.times, s.mass, s.slope0, resid))
