"""Branching Brownian motion with constant drift and absorption at the origin.

Particle motion dY = c dt + sqrt(2) dW (Gaussian increments of variance 2 dt,
matching a diffusion term v_xx with unit coefficient), binary branching at
rate 1 (per-step probability 1 - e^{-dt}), and killing at 0.  Killing uses
both sign crossing and a Brownian-bridge correction: conditionally on the
endpoints a, b > 0 of a step, the bridge of a variance-2 Brownian motion hits
the origin with probability exp(-a b / dt), which removes the O(sqrt(dt))
absorption bias of the naive rule.

The expected payoff sum over particles solves the moving-frame equation with
constant front speed c, which is what `estimate` validates against the PDE
solver.  Replicas are deterministic functions of (seed, config): `estimate`
partitions them into fixed-size chunks, each evolved jointly as one flat
particle population with a stream spawned per chunk (vectorization makes the
acceptance-scale runs tractable; single replicas with their own (seed, r)
stream are available via `simulate_replica`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pde import NumericalFailure


@dataclass(frozen=True)
class McConfig:
    drift: float = 2.0
    branch_rate: float = 1.0
    dt: float = 1e-3
    n_replicas: int = 10_000
    seed: int = 0
    bridge_correction: bool = True
    absorb: bool = True
    chunk_size: int = 8192
    population_cap: int = 10_000_000

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.n_replicas < 1:
            raise ValueError("n_replicas must be >= 1")
        if self.branch_rate < 0:
            raise ValueError("branch_rate must be >= 0")


class PopulationCapExceeded(NumericalFailure):
    """A replica chunk outgrew McConfig.population_cap alive particles."""


@dataclass
class PopulationState:
    """Alive particles of one replica; absorbed particles are removed."""

    positions: np.ndarray
    time: float

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        if np.any(self.positions <= 0.0):
            raise ValueError("alive particles must have positive positions")


def replica_stream(seed: int, r: int) -> np.random.Generator:
    """Independent generator for replica r derived from (seed, r)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(r,)))


def _step_population(pos, rep, rng, cfg, sq2dt, p_branch):
    """One Euler step of a flat population; returns updated arrays."""
    xb = pos
    xa = xb + cfg.drift * cfg.dt + sq2dt * rng.standard_normal(pos.size)
    if cfg.absorb:
        alive = xa > 0.0
        if cfg.bridge_correction and pos.size:
            u = rng.random(pos.size)
            cross = np.exp(-np.clip(xb * xa, 0.0, None) / cfg.dt)
            alive &= u > cross
        pos = xa[alive]
        rep = rep[alive] if rep is not None else None
    else:
        pos = xa
    if p_branch > 0.0 and pos.size:
        b = rng.random(pos.size) < p_branch
        pos = np.concatenate([pos, pos[b]])
        if rep is not None:
            rep = np.concatenate([rep, rep[b]])
    return pos, rep


def simulate_replica(x0: float, t_end: float, cfg: McConfig,
                     stream: np.random.Generator) -> np.ndarray:
    """Final alive positions of a single replica started at x0."""
    if x0 <= 0.0:
        raise ValueError("x0 must be positive")
    pos = np.array([float(x0)])
    if t_end == 0.0:
        return pos
    sq2dt = math.sqrt(2.0 * cfg.dt)
    p_branch = -math.expm1(-cfg.branch_rate * cfg.dt)
    nsteps = int(round(t_end / cfg.dt))
    for _ in range(nsteps):
        pos, _ = _step_population(pos, None, stream, cfg, sq2dt, p_branch)
        if pos.size > cfg.population_cap:
            raise PopulationCapExceeded(f"population cap {cfg.population_cap} exceeded")
        if pos.size == 0:
            break
    return pos


def _chunk_bounds(n_replicas, chunk_size):
    edges = list(range(0, n_replicas, chunk_size)) + [n_replicas]
    return list(zip(edges[:-1], edges[1:]))


def _run_chunks(x0, t_end, cfg, per_step=None, final=None):
    """Evolve all replicas chunk by chunk; callbacks get (lo, pos, rep, step)."""
    if x0 <= 0.0:
        raise ValueError("x0 must be positive")
    sq2dt = math.sqrt(2.0 * cfg.dt)
    p_branch = -math.expm1(-cfg.branch_rate * cfg.dt)
    nsteps = int(round(t_end / cfg.dt))
    bounds = _chunk_bounds(cfg.n_replicas, cfg.chunk_size)
    children = np.random.SeedSequence(cfg.seed).spawn(len(bounds))
    for (lo, hi), child in zip(bounds, children):
        n = hi - lo
        rng = np.random.default_rng(child)
        pos = np.full(n, float(x0))
        rep = np.arange(n)
        for k in range(nsteps):
            pos, rep = _step_population(pos, rep, rng, cfg, sq2dt, p_branch)
            if pos.size > cfg.population_cap:
                raise PopulationCapExceeded(f"population cap {cfg.population_cap} exceeded")
            if per_step is not None:
                per_step(lo, n, pos, rep, k + 1)
            if pos.size == 0 and per_step is None:
                break
        if final is not None:
            final(lo, n, pos, rep)


def estimate(x0: float, t_end: float, v0, cfg: McConfig):
    """(mean, stderr) of sum_i v0(Y_i(t_end)) over replicas.

    v0 is a vectorized payoff; linearity and determinism follow directly from
    the construction.
    """
    if t_end == 0.0:
        return float(v0(np.array([x0]))[0]), 0.0
    totals = np.zeros(cfg.n_replicas)

    def final(lo, n, pos, rep):
        if pos.size:
            np.add.at(totals, lo + rep, v0(pos))

    _run_chunks(x0, t_end, cfg, final=final)
    mean = float(totals.mean())
    stderr = float(totals.std(ddof=1) / math.sqrt(cfg.n_replicas)) if cfg.n_replicas > 1 else 0.0
    return mean, stderr


def survival_probability(x0: float, t_end: float, cfg: McConfig, checkpoints=None):
    """Fraction of replicas with at least one alive particle.

    With checkpoints (a sorted list of times <= t_end), returns (p_array,
    stderr_array) recorded along a single run, so the survival sets are
    nested and the series is monotone pathwise.
    """
    if t_end == 0.0:
        return (1.0, 0.0) if checkpoints is None else (np.ones(len(checkpoints)), np.zeros(len(checkpoints)))
    if checkpoints is None:
        check_steps = [int(round(t_end / cfg.dt))]
    else:
        check_steps = [int(round(tc / cfg.dt)) for tc in checkpoints]
    alive = np.zeros((len(check_steps), cfg.n_replicas), dtype=bool)

    def per_step(lo, n, pos, rep, k):
        for j, ks in enumerate(check_steps):
            if k == ks:
                if pos.size:
                    alive[j, lo + np.unique(rep)] = True

    _run_chunks(x0, t_end, cfg, per_step=per_step)
    p = alive.mean(axis=1)
    se = np.sqrt(np.maximum(p * (1 - p), 0.0) / cfg.n_replicas)
    if checkpoints is None:
        return float(p[0]), float(se[0])
    return p, se


def sample_interbranch_times(cfg: McConfig, t_end: float):
    """Waiting time to the first branch event, one sample per replica.

    Returns (samples, t_end): the samples use the engine's per-step branching
    draw, so their law is Exponential(branch_rate) conditioned on landing
    before the observation bound t_end (right-censored replicas are dropped).
    Tests should compare against the truncated-exponential null.
    """
    p_branch = -math.expm1(-cfg.branch_rate * cfg.dt)
    nsteps = int(round(t_end / cfg.dt))
    out = []
    bounds = _chunk_bounds(cfg.n_replicas, cfg.chunk_size)
    children = np.random.SeedSequence(cfg.seed).spawn(len(bounds))
    for (lo, hi), child in zip(bounds, children):
        rng = np.random.default_rng(child)
        waiting = np.full(hi - lo, np.nan)
        active = np.ones(hi - lo, dtype=bool)
        for k in range(nsteps):
            if not active.any():
                break
            draws = rng.random(int(active.sum())) < p_branch
            idx = np.nonzero(active)[0][draws]
            waiting[idx] = (k + 1) * cfg.dt
            active[idx] = False
        out.append(waiting[np.isfinite(waiting)])
    return np.concatenate(out), t_end
