"""Branching Brownian motion with constant drift and absorption at the origin.

Particles move by dY = c dt + sqrt(2) dW (variance 2 per unit time, matching
a diffusion term v_xx with unit coefficient), split in two at rate
`branch_rate`, and are killed at 0.  The sampler is exact and event driven:
no time grid enters.  One round works on the whole pending population of a
chunk of replicas at once.  Each particle draws its Exp(branch_rate) lifetime,
cut at its next stop (a survival checkpoint or t_end), and moves exactly over
that interval h: Y' = Y + c h + sqrt(2h) Z.  It is killed if Y' <= 0 or
with probability exp(-Y Y'/h), the exact chance that the variance-2
Brownian bridge between two positive endpoints touches 0 (`absorb=False`
skips both kills).  Otherwise it is recorded at t_end, marks its replica alive
at a checkpoint and continues (lifetimes are memoryless, so no branch is
owed), or splits in two.  About 20 rounds cover t_end = 3 at rate 1.  Every
t_end >= 0 runs this one sampler after the x0 check; at 0 nothing moves.

The expected payoff sum over particles solves the moving-frame equation with
constant front speed c (the many-to-one formula), which is what `estimate`
validates against the PDE solver.  Results are deterministic functions of
(seed, config): replicas are split into chunks of CHUNK_SIZE, each sampled
with its own stream spawned from the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pde import NumericalFailure

#: replicas sampled together, each chunk from its own stream of the seed
CHUNK_SIZE = 8192

#: most particles a chunk may hold at once before PopulationCapExceeded
POPULATION_CAP = 10_000_000


@dataclass(frozen=True)
class McConfig:
    """Sampler settings.  `dt` is validated but unused: the sampler is exact."""

    drift: float = 2.0
    branch_rate: float = 1.0
    dt: float = 1e-3
    n_replicas: int = 10_000
    seed: int = 0
    absorb: bool = True

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if self.n_replicas < 1:
            raise ValueError("n_replicas must be >= 1")
        if not math.isfinite(self.drift):
            raise ValueError("drift must be finite")
        if not (math.isfinite(self.branch_rate) and self.branch_rate >= 0):
            raise ValueError("branch_rate must be finite and >= 0")


class PopulationCapExceeded(NumericalFailure):
    """A replica chunk held more than POPULATION_CAP particles."""


def _sample_chunk(x0, n, stops, cfg, rng):
    """Sample n replicas from x0 up to the last of the increasing times `stops`.

    Returns (positions, replicas, alive): the particles alive at stops[-1]
    with their replica index in [0, n), and alive[j, r] telling whether
    replica r had a particle alive at stops[j] (all of them at a stop at 0).
    """
    alive = np.zeros((stops.size, n), dtype=bool)
    alive[stops <= 0.0] = True
    pos, rep = np.full(n, float(x0)), np.arange(n)
    if stops[-1] <= 0.0:
        return pos, rep, alive
    t = np.zeros(n)
    k = np.full(n, np.count_nonzero(stops <= 0.0))   # index of each particle's next stop
    last = stops.size - 1
    final_pos, final_rep, n_final = [], [], 0
    while pos.size:
        m = pos.size
        if cfg.branch_rate > 0.0:
            life = rng.standard_exponential(m) / cfg.branch_rate
        else:
            life = np.full(m, np.inf)
        gap = stops[k] - t
        hit = life >= gap
        h = np.where(hit, gap, life)
        new = pos + cfg.drift * h + np.sqrt(2.0 * h) * rng.standard_normal(m)
        count = 2 - hit - (hit & (k == last))   # 2 split, 1 at a checkpoint, 0 at the end
        if cfg.absorb:
            keep = (new > 0.0) & (rng.random(m) >= np.exp(-pos * np.maximum(new, 0.0) / h))
            count *= keep
            hit &= keep
        alive[k[hit], rep[hit]] = True
        done = hit & (k == last)
        final_pos.append(new[done])
        final_rep.append(rep[done])
        n_final += final_pos[-1].size
        t = np.where(hit, stops[k], t + life)
        pos, rep, t, k = (np.repeat(a, count) for a in (new, rep, t, k + hit))
        if pos.size + n_final > POPULATION_CAP:
            raise PopulationCapExceeded(f"population cap {POPULATION_CAP} exceeded")
    return np.concatenate(final_pos), np.concatenate(final_rep), alive


def _run_chunks(x0, stops, cfg):
    """Yield (lo, n, positions, replicas, alive) for each chunk of replicas."""
    if not 0.0 < x0 < math.inf:
        raise ValueError(f"x0 must be positive and finite, got {x0!r}")
    if not 0.0 <= stops[-1] < math.inf:
        raise ValueError(f"t_end must be >= 0 and finite, got {float(stops[-1])!r}")
    edges = list(range(0, cfg.n_replicas, CHUNK_SIZE)) + [cfg.n_replicas]
    children = np.random.SeedSequence(cfg.seed).spawn(len(edges) - 1)
    for lo, hi, child in zip(edges[:-1], edges[1:], children):
        yield (lo, hi - lo, *_sample_chunk(x0, hi - lo, stops, cfg, np.random.default_rng(child)))


def estimate(x0: float, t_end: float, v0, cfg: McConfig):
    """(mean, stderr) of sum_i v0(Y_i(t_end)) over replicas.

    v0 is a vectorized payoff, called once per chunk on all of its final
    positions.
    """
    totals = np.zeros(cfg.n_replicas)
    for lo, n, pos, rep, _ in _run_chunks(x0, np.array([float(t_end)]), cfg):
        totals[lo:lo + n] = np.bincount(rep, weights=v0(pos), minlength=n)
    mean = float(totals.mean())
    stderr = float(totals.std(ddof=1) / math.sqrt(cfg.n_replicas)) if cfg.n_replicas > 1 else 0.0
    return mean, stderr


def survival_probability(x0: float, t_end: float, cfg: McConfig, checkpoints):
    """Fraction of replicas with at least one alive particle at each checkpoint.

    checkpoints is a sorted list of times in [0, t_end]; returns (p_array,
    stderr_array) recorded along a single run, so the survival sets are
    nested and the series is monotone pathwise.
    """
    times = np.asarray(checkpoints, dtype=float)
    if times.ndim != 1 or not np.all(np.isfinite(times)) or np.any(np.diff(times) < 0):
        raise ValueError(f"checkpoints must be a sorted list of finite times, got {checkpoints!r}")
    if times.size and not (times[0] >= 0.0 and times[-1] <= t_end):
        raise ValueError(f"checkpoints must lie in [0, t_end={t_end}], got {checkpoints!r}")
    stops = np.union1d(times, [t_end])
    alive = np.zeros((stops.size, cfg.n_replicas), dtype=bool)
    for lo, n, _, _, chunk_alive in _run_chunks(x0, stops, cfg):
        alive[:, lo:lo + n] = chunk_alive
    p = alive[np.searchsorted(stops, times)].mean(axis=1)
    return p, np.sqrt(np.maximum(p * (1 - p), 0.0) / cfg.n_replicas)
