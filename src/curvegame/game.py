"""Monte Carlo simulation of the two-player cap game.

One round from position x: Paul picks a cap A, Carol a cap B (both of
threshold theta_eps(eps, N), so of measure half the sphere plus the margin
delta_eps), a direction v is drawn uniformly from A cap B, and the position
moves to x + eps v.  The game stops on exit from the domain and pays
eps^2 * K * tau.

All episodes of a run are played in lockstep.  The positions of the episodes
still in play form an (m, N) array; each round makes one call per player,
one batch band draw (sphere.sample_bands) and one exit test, and episodes
that have exited drop out.  play_episode is the same engine with one episode.

A Strategy is a callable (X, k, eps) -> (axes, fallback): X holds the (m, N)
positions in play at round k, axes the (m, N) unit cap axes, and fallback an
(m,) bool mask of the degenerate positions (zero gradient, x = z) where the
strategy fell back to a fixed axis; fallbacks are counted per episode.  Row i
of the result may depend on row i of X, k and eps only.

Episode i of run_episodes draws from its own stream SeedSequence(seed,
spawn_key=(i,)), read in chunks into a buffer of its own, so its draws depend
on (seed, i) and its own path alone: results do not depend on the number of
episodes or on the thread count.  On the circle a round reads one uniform;
on S^2 it reads blocks of attempts until one lies in the band.  Either way a
step is the draw that CapIntersection.sample makes from the same uniforms,
as both run sphere.sample_bands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import solver, sphere
from .errors import InvalidParameterError, RunawayEpisodeError

ROUND_CAP = 10**8

# Uniforms buffered per episode between refills from its stream.
_BUFFER = 128

Strategy = Callable


@dataclass(frozen=True)
class Episode:
    """One full game trajectory."""

    positions: np.ndarray  # (tau + 1, N), first row x0, last row the exit point
    tau: int
    payoff: float
    eps: float
    seed: int | None = None
    index: int | None = None
    fallbacks: int = 0

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "index": self.index,
            "tau": self.tau,
            "payoff": self.payoff,
            "fallbacks": self.fallbacks,
            "positions": [[float(c) for c in row] for row in self.positions],
        }


@dataclass(frozen=True)
class McEstimate:
    mean: float
    stderr: float
    n: int


def fixed_axis_strategy(axis) -> Strategy:
    """Always pick the cap around one fixed axis."""
    axis = sphere.unit_vector(np.asarray(axis, dtype=float))

    def strategy(X, k: int, eps: float):
        return np.tile(axis, (len(X), 1)), np.zeros(len(X), dtype=bool)

    return strategy


def mirrored_strategy(other: Strategy) -> Strategy:
    """Pick the cap opposite to another strategy's choice.

    Against the mirrored opponent the band is symmetric, so the sampled step
    has band-average <x - z, v> = 0 and the martingale increment is exactly
    eps^2.
    """

    def strategy(X, k: int, eps: float):
        axes, fallback = other(X, k, eps)
        return -axes, fallback

    return strategy


def radial_exit_strategy(z) -> Strategy:
    """Carol's escape strategy: aim straight away from z.

    At position x the cap axis is (x - z)/|x - z|; at x = z there is no
    outward direction and the strategy falls back to e1 (flagged).
    """
    z = np.asarray(z, dtype=float)

    def strategy(X, k: int, eps: float):
        d = X - z
        norm = np.sqrt(sphere.row_dot(d, d))
        fallback = norm < 1e-12
        norm[fallback] = 1.0
        axes = d / norm[:, None]
        axes[fallback] = np.eye(len(z))[0]
        return axes, fallback

    return strategy


def gradient_cap_strategy(field, player: str) -> Strategy:
    """Steer along the interpolated gradient of a value field.

    Paul (maximizer) picks the cap around +g/|g|, Carol around -g/|g|, with g
    the multilinear interpolation of central-difference node gradients.  Where
    |g| < 1e-10 the strategy falls back to the fixed axis e1 (flagged).
    """
    side = player.lower()
    if side not in ("paul", "carol"):
        raise InvalidParameterError("player must be 'paul' or 'carol'")
    sign = 1.0 if side == "paul" else -1.0
    # np.gradient: central differences inside, one-sided at the box edges;
    # one flat table per component, entry r for node r of the flattened grid
    tables = [g.ravel() for g in np.gradient(field.values, field.h)]
    lo = np.asarray(field.lo, dtype=float)
    h = field.h
    dim = field.domain.dim
    top = np.asarray(field.shape) - 2
    stencil = solver.multilinear_stencil(field.shape)

    def strategy(X, k: int, eps: float):
        u = (X - lo) / h
        cell = np.minimum(u.astype(np.intp), top)
        # no snap to nodes, unlike interpolate: it would move the axes, and
        # so the 3D traces, at points a rounding error off a grid line
        node, w = stencil(cell, u - cell)
        g = []
        for table in tables:
            terms = w * table.take(node)
            acc = terms[0]
            for c in range(1, 2**dim):
                acc = acc + terms[c]
            g.append(acc)
        norm = g[0] * g[0]
        for gc in g[1:]:
            norm = norm + gc * gc
        norm = np.sqrt(norm)
        fallback = norm < 1e-10
        norm[fallback] = 1.0
        axes = np.stack([sign * gc / norm for gc in g], axis=1)
        axes[fallback] = np.eye(dim)[0]
        return axes, fallback

    return strategy


class _Streams:
    """Uniforms per episode, refilled in chunks from that episode's stream.

    Generator.random(shape) yields the same values as as many scalar calls,
    so row i reads its stream in order however the rows are grouped.
    """

    def __init__(self, rngs: list, width: int):
        self.rngs = rngs
        self.chunk = max(1, _BUFFER // width)
        self.buf = np.empty((len(rngs), self.chunk, width))
        self.cur = np.full(len(rngs), self.chunk)

    def take(self, rows: np.ndarray) -> np.ndarray:
        """The next draw of each of the (distinct) rows: (len(rows), width)."""
        cur = self.cur[rows]
        empty = cur == self.chunk
        if empty.any():
            for i in rows[empty]:
                self.buf[i] = self.rngs[i].random(self.buf.shape[1:])
            cur[empty] = 0
        self.cur[rows] = cur + 1
        return self.buf[rows, cur]


def _play(x0, sp: Strategy, sc: Strategy, eps: float, domain, rngs: list, *,
          payoff_k: float | None, seed: int | None, indices,
          max_rounds: int) -> list:
    """Play one episode per generator in lockstep; Episodes in rngs' order."""
    x0 = np.asarray(x0, dtype=float)
    if not domain.contains(x0):
        raise InvalidParameterError("x0 must lie inside the domain")
    if not eps > 0:
        raise InvalidParameterError("eps must be positive")
    N = domain.dim
    K = sphere.constant_C(N) if payoff_k is None else float(payoff_k)
    theta = sphere.theta_eps(eps, N)
    n = len(rngs)
    streams = _Streams(rngs, sphere.band_draw_width(N))
    active = np.arange(n)
    x = np.tile(x0, (n, 1))
    # (episode rows, positions) of every round, start first
    log = [(active, x)]
    fallbacks = np.zeros(n, dtype=np.int64)
    tau = np.zeros(n, dtype=np.int64)
    k = 0
    while True:
        axes_p, fb_p = sp(x, k, eps)
        axes_c, fb_c = sc(x, k, eps)
        if fb_p.any() or fb_c.any():
            fallbacks[active] += np.add(fb_p, fb_c, dtype=np.int64)
        axes_p, axes_c = sphere.unit_axes(axes_p), sphere.unit_axes(axes_c)
        v = sphere.sample_bands(axes_p, axes_c, theta, theta,
                                lambda rows: streams.take(active[rows]))
        assert sphere.in_bands(v, axes_p, axes_c, theta, theta).all(), \
            "sampled direction left the band"
        x = x + eps * v
        k += 1
        log.append((active, x))
        inside = domain.contains(x)
        if not inside.all():
            tau[active[~inside]] = k
            active, x = active[inside], x[inside]
            if not active.size:
                break
        if k >= max_rounds:
            raise RunawayEpisodeError(
                f"episode exceeded {max_rounds} rounds without exiting"
            )
    rows = np.concatenate([r for r, _ in log])
    order = np.argsort(rows, kind="stable")
    positions = np.concatenate([p for _, p in log])[order]
    paths = np.split(positions, np.cumsum(tau + 1)[:-1])
    return [
        Episode(positions=p, tau=int(t), payoff=eps * eps * K * int(t),
                eps=eps, seed=seed, index=i, fallbacks=int(f))
        for p, t, f, i in zip(paths, tau, fallbacks, indices)
    ]


def play_episode(x0, sp: Strategy, sc: Strategy, eps: float, domain, rng,
                 *, payoff_k: float | None = None, seed: int | None = None,
                 index: int | None = None,
                 max_rounds: int = ROUND_CAP) -> Episode:
    """Play one game from x0 until the position exits the domain.

    Every step has length exactly eps (|v| = 1 by construction).  Payoff is
    eps^2 * K * tau with K defaulting to constant_C(N).  Raises
    RunawayEpisodeError if max_rounds is reached, which signals a
    mis-specified strategy rather than a long game.
    """
    return _play(x0, sp, sc, eps, domain, [rng], payoff_k=payoff_k,
                 seed=seed, indices=[index], max_rounds=max_rounds)[0]


def _episode_rng(seed: int, index: int):
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    )


def run_episodes(x0, sp: Strategy, sc: Strategy, n: int, eps: float, domain,
                 seed: int, *, threads: int = 1,
                 payoff_k: float | None = None) -> list:
    """n independent episodes on counter-derived streams; order-stable output.

    Episode i always uses the stream split (seed, i), so its result does not
    depend on n.  The episodes run in lockstep in the calling thread; threads
    is accepted for compatibility and changes nothing.
    """
    if n < 1:
        raise InvalidParameterError("need at least one episode")
    return _play(x0, sp, sc, eps, domain,
                 [_episode_rng(seed, i) for i in range(n)],
                 payoff_k=payoff_k, seed=seed, indices=range(n),
                 max_rounds=ROUND_CAP)


def estimate_value(x0, sp: Strategy, sc: Strategy, n: int, eps: float,
                   domain, seed: int, *, threads: int = 1,
                   payoff_k: float | None = None) -> McEstimate:
    """Monte Carlo estimate of the expected payoff from x0."""
    if n < 2:
        raise InvalidParameterError("n must be at least 2 for a stderr")
    episodes = run_episodes(x0, sp, sc, n, eps, domain, seed,
                            threads=threads, payoff_k=payoff_k)
    payoffs = np.array([e.payoff for e in episodes])
    mean = float(np.mean(payoffs))
    stderr = float(np.std(payoffs, ddof=1) / math.sqrt(n))
    return McEstimate(mean=mean, stderr=stderr, n=n)


def martingale_diagnostic(x0, z, sc: Strategy | None = None,
                          sp: Strategy | None = None, n: int = 1000,
                          eps: float = 0.1, domain=None, seed: int = 0,
                          *, threads: int = 1) -> dict:
    """Check the submartingale structure of |x_k - z|^2 - eps^2 k empirically.

    Carol defaults to radial_exit_strategy(z) and Paul to its mirror (the
    symmetric band, whose one-round increment is exactly eps^2 in
    expectation).  Reports the pooled one-round increment of |x - z|^2 against
    eps^2, and eps^2 E[tau] against the optional-stopping bound
    E[|x_tau - z|^2] - |x0 - z|^2, plus the analytic version of that bound
    with the boundary fattened by one step (the exit point can overshoot the
    boundary by up to eps).
    """
    if domain is None:
        raise InvalidParameterError("domain is required")
    z = np.asarray(z, dtype=float)
    if sc is None:
        sc = radial_exit_strategy(z)
    if sp is None:
        sp = mirrored_strategy(sc)
    episodes = run_episodes(x0, sp, sc, n, eps, domain, seed, threads=threads)

    increments = []
    for e in episodes:
        d = e.positions - z
        sq = np.einsum("ij,ij->i", d, d)
        increments.append(np.diff(sq))
    pooled = np.concatenate(increments)
    inc_mean = float(np.mean(pooled))
    inc_stderr = float(np.std(pooled, ddof=1) / math.sqrt(pooled.size))

    taus = np.array([e.tau for e in episodes], dtype=float)
    x0 = np.asarray(x0, dtype=float)
    start_sq = float((x0 - z) @ (x0 - z))
    exit_sq = np.array([float((e.positions[-1] - z) @ (e.positions[-1] - z))
                        for e in episodes])
    # per-episode optional-stopping slack |x_tau - z|^2 - |x0 - z|^2 - eps^2 tau
    slack = exit_sq - start_sq - eps * eps * taus
    slack_mean = float(np.mean(slack))
    slack_stderr = float(np.std(slack, ddof=1) / math.sqrt(n))
    eps2_tau = float(eps * eps * np.mean(taus))
    eps2_tau_stderr = float(eps * eps * np.std(taus, ddof=1) / math.sqrt(n))
    analytic_bound = (domain.support_radius(z) + eps) ** 2 - start_sq

    return {
        "n": n,
        "eps": eps,
        "x0": [float(c) for c in x0],
        "z": [float(c) for c in z],
        "rounds_pooled": int(pooled.size),
        "increment_mean": inc_mean,
        "increment_stderr": inc_stderr,
        "increment_threshold": eps * eps - 3.0 * inc_stderr,
        "increment_pass": inc_mean >= eps * eps - 3.0 * inc_stderr,
        "eps2_mean_tau": eps2_tau,
        "eps2_mean_tau_stderr": eps2_tau_stderr,
        "osth_empirical_bound": float(np.mean(exit_sq)) - start_sq,
        "osth_slack_mean": slack_mean,
        "osth_slack_stderr": slack_stderr,
        "osth_pass": slack_mean >= -3.0 * slack_stderr,
        "osth_analytic_bound": float(analytic_bound),
        "osth_analytic_pass": eps2_tau <= analytic_bound + 3.0 * eps2_tau_stderr,
        "fallbacks": int(sum(e.fallbacks for e in episodes)),
    }
