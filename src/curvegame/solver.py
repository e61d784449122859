"""Grid discretization and the DPP solvers for the game value function.

The value function u^eps satisfies a dynamic programming principle: at every
point x of the domain,

    u(x) = max_a min_b  avg_{A(a) cap B(b)} u(x + eps v) dsigma(v)  +  eps^2 K,

where A, B are eps-game caps drawn from a fixed finite axis family, and u = 0
outside the domain: an open axis-aligned ellipse, or a ball, the ellipse with
equal semi-axes, so that point tests nest exactly where concentric domains
nest.  This module discretizes u on a uniform grid and evaluates
the right-hand side T with a quadrature grid on the sphere that is shared by
all cap pairs.  T maps the values at the interior nodes to new ones; every
exterior node reads one fixed slot that holds the 0, whatever a stored field
holds there.  Two solvers find the fixed point of T.  `value_iteration`,
the reference, sweeps w <- T(w) from w = 0, about eps^-2 sweeps.  `solve`
runs Howard policy iteration: take the first pairs from one sweep of the
enclosing ball's arrival time, fix each node's cap pair (one integer, its
pair id), solve for that linear policy's values by BiCGSTAB on sparse
matvecs, sweep those values scaled by a fixed lam a hair below 1 for the
next pairs, and repeat (3 to 7 sweeps).  The last step's scaled values are
a subsolution, which their sweep certifies exactly, and they are the result;
when the steps stop short, the same monotone iteration polishes the last
certified field.  One sweep kernel serves 2D and 3D, and each Bellman's
`maxmin` turns what its `reads` makes of a node block's samples into the
max over Paul's axes of the min over Carol's axes and the id of the pair
that attains it, which the policy steps read.  On the circle `reads` is a
nonnegative sparse map `cover` to axis-step sums and shortest arcs, which
`maxmin` folds into bands; for nodes whose samples all lie in the domain,
it is merged with the interpolation weights into one map of the gathered
node values.  On the sphere `reads` is the identity, a pair (i, j)'s
value is (member_j @ (member_i w V)) / denom_ij, from the cap memberships,
and the sweep does not form all M(M+1)/2 of them: `maxmin` prunes exactly
(alpha-beta).  From a node's samples it forms the full row over Carol's
axes of one hint axis of Paul's, the axis nearest the samples' first
moment (along eps grad u), whose min is a floor, and then only those of
the axes that one product with Carol's reply to the hint leaves able to
reach the floor: about 1.1 of the M Paul rows per node on balls.  The
policy matrix forms each chosen pair's row over the samples from the same
memberships.

The default 2D grid spacing is h = (eps/2) min(1, sqrt(eps/0.2)).  Multilinear
interpolation costs O(h^2/eps^2) of the value at the fixed point; under this
law that bias falls like eps below 0.2, the rate of the game's own error, and
the grid is exactly h = eps/2 from 0.2 up.  3D grids keep h = eps/2.

Monotonicity of the iteration is preserved exactly in floating point: every
update is composed of non-negatively weighted sums of field values (summed in
an order that does not depend on the data, BLAS products too; on the circle a
band is its shortest arc plus a run of whole axis-spacing steps, on the sphere
a pair value sums member_j (member_i w_q V_q) and divides by denom_ij:
nothing is subtracted), minima, maxima, multiplication by a positive
constant, and addition of a constant.  Each is monotone under IEEE
round-to-nearest, so w_{n+1} >= w_n holds bit-for-bit; the sphere's pruned
max-min gives that of every pair value, bit for bit.  In `solve` the same
holds for a polish chain from a certified start; the policy evaluations
need no such property, because only the check of their sweep vouches for
what they give.
"""

from __future__ import annotations

import json
import math
import time
import zlib
from dataclasses import asdict, dataclass, field as _field, replace
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np

from . import sphere
from .errors import (
    InvalidParameterError,
    NonConvergenceError,
    OutOfBoundsError,
)

TWO_PI = 2.0 * math.pi

# Monotone iterates stay below the explicit quadratic supersolution only for
# eps below this threshold; value_iteration and solve refuse larger eps.
SUPERSOLUTION_EPS_MAX = 0.5

# Below this eps the default 2D grid spacing shrinks like eps^{3/2}; at and
# above it the default is exactly eps/2.
GRID_LAW_EPS = 0.2

# Interpolation weights within this distance of a node snap to the node, so
# grid points reproduce their stored values exactly.
_SNAP = 1e-9


# ---------------------------------------------------------------------------
# domains


@dataclass(frozen=True)
class Ellipse:
    """Open axis-aligned ellipse {sum ((x_i - c_i)/s_i)^2 < 1}.  Its methods
    are the geometry of every domain: a Ball only fixes the semi-axes."""

    center: tuple
    semi_axes: tuple

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float)
        s = np.asarray(self.semi_axes, dtype=float)
        if c.shape != s.shape or c.ndim != 1 or c.size not in (2, 3):
            raise InvalidParameterError("center must be a 2- or 3-vector, one entry per semi-axis")
        if not (np.all(np.isfinite(c)) and np.all((s > 0) & np.isfinite(s))):
            raise InvalidParameterError(
                "center must be finite, semi-axes (a ball's radius) positive and finite")
        object.__setattr__(self, "center", tuple(float(v) for v in c))
        object.__setattr__(self, "semi_axes", tuple(float(v) for v in s))

    @property
    def dim(self) -> int:
        return len(self.center)

    def _norm2(self, x: np.ndarray):
        """|(x - c)/s|^2 over the last axis, summed from the first coordinate."""
        q = 0.0
        for i, (c, s) in enumerate(zip(self.center, self.semi_axes)):
            t = (x[..., i] - c) / s
            q = q + t * t
        return q

    def contains(self, points):
        """Membership of a point (bool) or of the rows of an (m, dim) batch."""
        p = np.asarray(points, dtype=float)
        if p.shape[-1:] != (self.dim,):
            raise InvalidParameterError(f"points must have {self.dim} coordinates")
        inside = self._norm2(p) < 1.0
        return bool(inside) if p.ndim == 1 else inside

    def holds_balls(self, points: np.ndarray, d: float) -> np.ndarray:
        """Whether each row's closed d-ball surely lies inside: |(x-c)/s|^2 < (1-d/min s)^2."""
        s = min(self.semi_axes)
        return (self._norm2(points) < (1.0 - d / s) ** 2) & (d < s)

    def bounds(self):
        c = np.asarray(self.center)
        s = np.asarray(self.semi_axes)
        return c - s, c + s

    def support_radius(self, z) -> float:
        z = np.asarray(z, dtype=float)
        return float(np.linalg.norm(z - np.asarray(self.center)) + max(self.semi_axes))

    def as_dict(self) -> dict:
        return {
            "shape": "ellipse",
            "center": list(self.center),
            "semi_axes": list(self.semi_axes),
        }


@dataclass(frozen=True)
class Ball(Ellipse):
    """Open ball {|x - center| < radius}: the Ellipse whose semi-axes all equal
    radius, written {"shape": "ball", ...} and never equal to an Ellipse."""

    radius: float
    semi_axes: tuple = _field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "semi_axes", (self.radius,) * np.size(self.center))
        super().__post_init__()

    def as_dict(self) -> dict:
        return {"shape": "ball", "center": list(self.center), "radius": self.radius}


def domain_from_dict(d: dict):
    shape = d.get("shape")
    if shape == "ball":
        return Ball(center=tuple(d["center"]), radius=float(d["radius"]))
    if shape == "ellipse":
        return Ellipse(center=tuple(d["center"]), semi_axes=tuple(d["semi_axes"]))
    raise InvalidParameterError(f"unknown domain shape {shape!r}")


def unit_ball(dim: int) -> Ball:
    return Ball(center=(0.0,) * dim, radius=1.0)


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class SolverConfig:
    """Parameters of the discretized game operator.

    Fields left as None are resolved against the domain dimension by
    resolve_config; grid_h then follows default_grid_h, which is
    (eps/2) min(1, sqrt(eps/0.2)) in 2D and eps/2 in 3D.  grid_h must not
    exceed eps, otherwise one game step cannot cross a grid cell and the
    scheme degenerates.
    """

    eps: float
    K: float | None = None
    axis_count: int | None = None
    quad_order: int | None = None
    tol_iter: float | None = None
    max_iter: int = 100_000
    grid_h: float | None = None


def resolve_config(cfg: SolverConfig, dim: int) -> SolverConfig:
    """Fill defaults and validate; returns a fully concrete config.

    Defaults: K = C(N); 64 axes and Q = 1024 circle cells in 2D, 128 axes
    and quadrature order 32 in 3D; tol_iter = eps^2 1e-3; grid_h from
    default_grid_h (the 2D grid law, eps/2 in 3D).  On the unit ball at
    eps = 0.4, 0.3 and 0.2, order 32 moves the centre from order 64's by
    less than a tenth of its error against the oracle 1/4, in at most half
    the time and memory.
    """
    if dim not in (2, 3):
        raise InvalidParameterError("dimension must be 2 or 3")
    if not (cfg.eps > 0 and math.isfinite(cfg.eps)):
        raise InvalidParameterError("eps must be positive and finite")
    # raises if delta_eps(eps) is inadmissible for this dimension
    sphere.theta_eps(cfg.eps, dim)
    K = sphere.constant_C(dim) if cfg.K is None else float(cfg.K)
    if not (K > 0 and math.isfinite(K)):
        raise InvalidParameterError("K must be positive and finite")
    M = (64 if dim == 2 else 128) if cfg.axis_count is None else int(cfg.axis_count)
    if M < 8:
        raise InvalidParameterError("axis_count must be at least 8")
    order = (1024 if dim == 2 else 32) if cfg.quad_order is None else int(cfg.quad_order)
    if order < 16:
        raise InvalidParameterError("quad_order must be at least 16")
    tol = cfg.eps**2 * 1e-3 if cfg.tol_iter is None else float(cfg.tol_iter)
    if not (tol > 0 and math.isfinite(tol)):
        raise InvalidParameterError("tol_iter must be positive and finite")
    h = default_grid_h(cfg.eps, dim) if cfg.grid_h is None else float(cfg.grid_h)
    if not 0 < h <= cfg.eps:
        raise InvalidParameterError("grid_h must satisfy 0 < grid_h <= eps")
    if cfg.max_iter < 1:
        raise InvalidParameterError("max_iter must be at least 1")
    return replace(
        cfg, K=K, axis_count=M, quad_order=order, tol_iter=tol, grid_h=h
    )


def default_grid_h(eps: float, dim: int) -> float:
    """Default node spacing: (eps/2) min(1, sqrt(eps/GRID_LAW_EPS)) in 2D,
    eps/2 in 3D.

    Multilinear interpolation biases each round by O(h^2) against a payoff
    of eps^2 K, so the fixed point carries an O(h^2/eps^2) deficit.  At
    h = eps/2 that deficit is a fixed fraction of the value; under the 2D
    law h^2/eps^2 is proportional to eps below GRID_LAW_EPS, the same rate
    as the game's own error.  The factor is exactly 1 from GRID_LAW_EPS up,
    so those grids are h = eps/2 bit for bit.  3D keeps eps/2: a finer 3D
    grid is not affordable yet.
    """
    if dim == 2:
        return eps / 2.0 * min(1.0, math.sqrt(eps / GRID_LAW_EPS))
    return eps / 2.0


# ---------------------------------------------------------------------------
# value field


class ValueField:
    """Scalar field on a uniform grid over a box containing the domain.

    values[i, j(, k)] is the field at node lo + (i, j(, k)) * h.  Nodes outside
    the open domain always hold 0 (extension by zero).  interior_mask, which
    tests every node against the domain, is computed on first read.
    """

    def __init__(self, domain, lo, h: float, values: np.ndarray,
                 iterations: int | None = None,
                 final_increment: float | None = None):
        self.domain = domain
        self.lo = np.asarray(lo, dtype=float)
        self.h = float(h)
        self.values = np.asarray(values, dtype=float)
        self.iterations = iterations
        self.final_increment = final_increment
        # solver timings and counts, set by solve; never serialized
        self.telemetry = None
        if self.values.ndim != domain.dim:
            raise InvalidParameterError("values rank must match domain dimension")

    @cached_property
    def interior_mask(self) -> np.ndarray:
        return self.domain.contains(self.node_points()).reshape(self.shape)

    @property
    def shape(self) -> tuple:
        return self.values.shape

    @property
    def box(self):
        hi = self.lo + (np.asarray(self.shape) - 1) * self.h
        return self.lo.copy(), hi

    def node_points(self) -> np.ndarray:
        """All node coordinates, row-major, shape (prod(shape), dim)."""
        axes = [self.lo[a] + self.h * np.arange(n) for a, n in enumerate(self.shape)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def copy_with(self, values: np.ndarray) -> "ValueField":
        return ValueField(self.domain, self.lo, self.h, values,
                          iterations=self.iterations,
                          final_increment=self.final_increment)


def make_grid(domain, eps: float, h: float):
    """Box grid centered on the domain with an (eps + 2h) collar.

    The collar guarantees that every interpolation stencil of x + eps*v stays
    inside the node array for any x in the domain and unit v.
    """
    lo_d, hi_d = domain.bounds()
    c = np.asarray(domain.center, dtype=float)
    margin = eps + 2.0 * h
    half = np.ceil(((hi_d - lo_d) / 2.0 + margin) / h).astype(int)
    lo = c - half * h
    shape = tuple(int(2 * n + 1) for n in half)
    return lo, shape


def empty_field(domain, cfg: SolverConfig) -> ValueField:
    cfg = resolve_config(cfg, domain.dim)
    lo, shape = make_grid(domain, cfg.eps, cfg.grid_h)
    return ValueField(domain, lo, cfg.grid_h, np.zeros(shape))


def field_from_function(domain, cfg: SolverConfig, fn: Callable) -> ValueField:
    """Sample fn on the grid, zeroed outside the domain.

    fn takes an (m, dim) array and returns (m,) values.
    """
    f = empty_field(domain, cfg)
    pts = f.node_points()
    vals = np.asarray(fn(pts), dtype=float).reshape(f.shape)
    vals = np.where(f.interior_mask, vals, 0.0)
    return f.copy_with(vals)


def _snap(t: np.ndarray) -> np.ndarray:
    t = np.where(t < _SNAP, 0.0, t)
    return np.where(t > 1.0 - _SNAP, 1.0, t)


def multilinear_stencil(shape) -> Callable:
    """stencil(cell, t) of multilinear interpolation in a row-major array of
    this shape: from integer cell corners cell and fractions t, both (m, dim),
    the flat node index and the weight of each of the 2^dim cell corners, both
    (2^dim, m).  Corners run first axis fastest ((0,0), (1,0), (0,1), (1,1)
    in 2D); a weight is the product of the axis factors 1 - t or t taken from
    axis 0 up."""
    dim = len(shape)
    strides = np.array([math.prod(shape[a + 1:]) for a in range(dim)])
    bits = (np.arange(1 << dim)[:, None] >> np.arange(dim)) & 1
    offsets = (bits @ strides)[:, None]
    # row of [1 - t; t] (axes first) that gives each corner's factor per axis
    factor = bits * dim + np.arange(dim)

    def stencil(cell: np.ndarray, t: np.ndarray) -> tuple:
        st = np.concatenate([1.0 - t.T, t.T])
        w = st[factor[:, 0]]
        for a in range(1, dim):
            w = w * st[factor[:, a]]
        return offsets + cell @ strides, w

    return stencil


def _multilinear(values: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Multilinear interpolation at grid coordinates g, shape (m, dim)."""
    shape = values.shape
    i0 = np.floor(g).astype(np.int64)
    for a in range(len(shape)):
        np.clip(i0[:, a], 0, shape[a] - 2, out=i0[:, a])
    node, w = multilinear_stencil(shape)(i0, _snap(np.clip(g - i0, 0.0, 1.0)))
    out = np.zeros(g.shape[0])
    for term in w * values.take(node):
        out += term
    return out


def interpolate(field: ValueField, p):
    """Field value at p: 0 outside the domain, multilinear inside.

    Accepts a single point or an (m, dim) batch.  Raises OutOfBoundsError for
    points beyond the grid box.
    """
    arr = np.asarray(p, dtype=float)
    single = arr.ndim == 1
    pts = np.atleast_2d(arr)
    if pts.shape[1] != field.domain.dim:
        raise InvalidParameterError("point dimension does not match the field")
    lo, hi = field.box
    if np.any(pts < lo - 1e-12) or np.any(pts > hi + 1e-12):
        raise OutOfBoundsError("point outside the grid box")
    vals = _multilinear(field.values, (pts - lo) / field.h)
    out = np.where(field.domain.contains(pts), vals, 0.0)
    return float(out[0]) if single else out


# ---------------------------------------------------------------------------
# shared-grid averaging kernels


def _sizes(a) -> tuple:
    """(nonzero weights, bytes stored) of a CSR matrix, counted on a copy,
    as counting sorts its indices in place."""
    return int(a.copy().count_nonzero()), a.data.nbytes + a.indices.nbytes + a.indptr.nbytes


def _choose(inner: np.ndarray, pick: Callable) -> tuple:
    """The policy tail of both max-mins.  inner (M, m) holds each Paul
    axis's min over Carol's; pick(paul) gives, for Paul's axis paul[c] at
    each column c, the pair id of his first minimizing candidate in the
    Bellman's tie order.  Returns (the max over Paul of inner, pick of
    Paul's first maximizing axis)."""
    paul = inner.argmax(axis=0)
    return inner[paul, np.arange(inner.shape[1])], pick(paul)


class _CircleBellman:
    """max-min of cap-pair averages from samples on a shared circle grid.

    The circle is split into Q equal cells centered at angles 2*pi*q/Q.  An
    arc integral is the cell width times the sum of each cell's sample times
    the fraction of the cell the arc covers.

    In cell units cap i spans [s_i, e_i] = [i Q/M - W, i Q/M + W], with
    W = acos(-theta) / cell width > Q/4.  Caps i and i + k meet in the arc
    A_k[i] = [s_{i+k}, e_i] and, for near-opposite pairs, also in
    A_{M-k}[i+k] = [s_{i+M}, e_{i+k}].  Splitting off the step
    G[j] = [s_j, s_{j+1}), one axis spacing long, gives
    A_k[i] = G[i+k] + A_{k+1}[i].  So every arc is the shortest one, A_kmax,
    plus a run of whole steps, accumulated from kmax down to 0 one step at a
    time.  The linear part is the sparse map `cover` from the Q samples to
    the M step sums G (repeated cyclically as far as the run reaches) and
    the M shortest arcs; `maxmin` does the rest.  This holds for every
    (Q, M): steps and arcs need not start on cell boundaries.  Only `_bands`
    forms the bands: `maxmin` folds them, `select` is the identity's bands.

    Every weight is a nonnegative cell coverage and nothing is subtracted;
    the band averages are then scaled by positive constants and combined by
    min and max.  Each of these is monotone under IEEE round-to-nearest, so
    the map from samples to result is monotone exactly in floating point.
    """

    def __init__(self, theta: float, M: int, Q: int):
        from scipy import sparse

        self.theta = theta
        self.M = M
        self.Q = Q
        dphi = TWO_PI / Q
        phis = dphi * np.arange(Q)
        self.nodes = np.stack([np.cos(phis), np.sin(phis)], axis=-1)
        w = math.acos(-theta)
        W = w / dphi
        # the shortest nonempty arc A_kmax; w > pi/2 puts kmax >= M/2
        kmax = max(k for k in range(M) if w - math.pi * k / M > 1e-14)
        self.kmax = kmax
        # arcs [ua, ub] in cell units (cell q spans [q - 1/2, q + 1/2)), steps
        # G[j % M] then A_kmax: each covers part of its first and last cells
        # fa, fb (one cell, fa = fb, covers ub - ua) and all those between
        j, i = np.arange(M + kmax - 1) % M, np.arange(M)
        ua = np.concatenate([j * Q / M - W, (i + kmax) * Q / M - W])
        ub = np.concatenate([(j + 1) * Q / M - W, i * Q / M + W])
        fa, fb = np.floor(ua + 0.5), np.floor(ub + 0.5)
        count = (fb - fa).astype(np.int64) + 1
        rows = np.repeat(np.arange(ua.size), count)
        first = np.cumsum(count) - count
        data = np.ones(rows.size)
        data[first + count - 1] = np.maximum(ub - fb + 0.5, 0.0)
        data[first] = np.maximum(np.where(count == 1, ub - ua, fa + 0.5 - ua), 0.0)
        cols = (fa.astype(np.int64)[rows] + np.arange(rows.size) - first[rows]) % Q
        self.cover = sparse.csr_matrix((data, (rows, cols)), shape=(ua.size, Q))
        self.nnz_cover, self.table_bytes = _sizes(self.cover)
        # 1 / (band length in cells) per separation k: both arcs of the band
        length = lambda k: max(2.0 * W - k * Q / M, 0.0) if k <= kmax else 0.0
        h = M // 2
        self.scale = [1.0 / (length(k) + length(M - k)) for k in range(h + 1)]
        # row k M + base of select is the band average of the pair (base, base + k) as a
        # map of cover's rows: the identity's bands, read from one shared buffer, k = M/2 down
        shared = dict.fromkeys(range(h + 1), np.empty((M, ua.size)))
        # a flat nonzero is 3x faster than a 2-D one; int32 is the index type csr keeps
        parts = [(band[nz], (np.flatnonzero(nz) % ua.size).astype(np.int32), nz.sum(axis=1))
                 for _, band in self._bands(np.eye(ua.size), shared) for nz in [band != 0.0]]
        data, cols, counts = map(np.concatenate, zip(*parts[::-1]))
        self.select = sparse.csr_matrix((data, cols, np.append(0, np.cumsum(counts))),
                                        shape=((h + 1) * M, ua.size))
        # Paul p's candidates in tie order, as pair ids: Carol's p + k for
        # k = M/2 down to 0, then p - k for k = M/2, ..., 1 rotated to start
        # at min(p, M/2) (for even M, p - M/2 is p + M/2, already first)
        p, back = np.arange(M)[:, None], np.arange(h, 0, -1)
        back = back[2 * back != M]
        back = back[(np.arange(back.size) - (back <= p).sum(axis=1, keepdims=True)) % back.size]
        self.order = np.concatenate([np.arange(h, -1, -1) * M + p, back * M + (p - back) % M],
                                    axis=1)

    def _bands(self, R: np.ndarray, bands: np.ndarray):
        """From R = cover @ samples, shape (rows, m), fill bands[k], shape
        (M, m), with the band averages of the pairs (base, base + k), k <=
        M/2, and yield each (k, bands[k]) as it is filled, k from M/2 down:
        scale[k] times A_k = A_kmax plus the steps base + k, ...,
        base + kmax - 1, and for near-opposite pairs also A_{M-k}[base + k]."""
        M, kmax, h = self.M, self.kmax, self.M // 2
        steps = R[: M + kmax - 1]
        arc = R[M + kmax - 1:].copy()  # A_kmax
        second = {}
        for k in range(kmax, -1, -1):
            if k < kmax:
                arc += steps[k : k + M]  # A_k = G[. + k] + A_{k+1}
            if M - k <= h:
                second[M - k] = np.roll(arc, k - M, axis=0)  # A_k[. + M - k]
            if k <= h:
                band = bands[k]
                if k in second:
                    np.add(arc, second[k], out=band)
                    band *= self.scale[k]
                else:
                    np.multiply(arc, self.scale[k], out=band)
                yield k, band

    def reads(self, S):
        """What maxmin reads of samples S, (Q, m): cover @ S."""
        return self.cover @ S

    def maxmin(self, R: np.ndarray) -> tuple:
        """R = cover @ samples, shape (rows, m); returns (values, ids,
        rows): the (m,) max_i min_j of the cap-pair averages, the pair id
        k M + base of Paul's first maximizing axis against his first
        minimizing candidate in `order`, read from the h + 1 bands kept for
        that, and the M m Paul rows folded."""
        M, h = self.M, self.M // 2
        m = R.shape[1]
        # row p of low: Paul's axis p against Carol's axes p + k; row p + k
        # of high: Paul's axis p + k (mod M) against Carol's axis p
        low = np.full((M, m), np.inf)
        high = np.full((M + h, m), np.inf)
        bands = np.empty((h + 1, M, m))
        for k, band in self._bands(R, bands):
            np.minimum(low, band, out=low)
            if k:
                np.minimum(high[k : k + M], band, out=high[k : k + M])
        np.minimum(low, high[:M], out=low)
        np.minimum(low[:h], high[M:], out=low[:h])
        rows, cols, order = bands.reshape(-1, m), np.arange(m), self.order
        pick = lambda paul: order[paul, rows[order[paul].T, cols].argmin(axis=0)]
        return (*_choose(low, pick), M * m)

    def pair_rows(self, A, ids: np.ndarray, drop=None):
        """The band average of each pair as a map of A's columns (A has
        cover's rows), or with A None of the Q samples, zero where drop[r]
        holds: the rows ids of select, applied to A or to cover."""
        R = self.select[ids] @ (self.cover if A is None else A)
        if drop is not None:
            R.data[drop[np.repeat(np.arange(R.shape[0]), np.diff(R.indptr)), R.indices]] = 0.0
            R.eliminate_zeros()
            R.sort_indices()
        return R


class _SphereBellman:
    """max-min of cap-pair averages on a shared product grid over S^2.

    Heights use Gauss-Legendre nodes, azimuths a uniform grid; the area element
    is the product of the two weights.  Cap membership is fractional near the
    cap edge (linear ramp across one cell) so that averages vary smoothly as
    caps rotate; memberships stay in [0, 1].

    A cap pair (i, j), i <= j, has pair id `pair[i, j]`, its place in the
    row-major upper triangle.  Its band average of samples V is
    sum_q member_i member_j w_q V_q / denom_ij, with denom_ij = sum_q
    member_i member_j w_q.  `maxmin` reads the samples themselves (`reads`
    is the identity) and forms Paul i's full row R(i, .) over all Carol
    axes as (member_j @ (member_i w V)) / denom_ij, one BLAS product per
    node and row (`paul_rows`), only for a hint axis and the axes that the
    product of Carol's reply to it leaves able to win.  The hint is the
    Paul axis nearest the samples' first moment sum_q w_q V_q v_q, which
    is proportional to eps grad u for smooth u, the direction that Paul's
    best cap faces: about 1.1 of M rows per node on balls, and under 10 on
    the ellipses measured.  `pair_rows` gives a pair's weights over the
    samples, (member_i w) member_j / denom_ij.  Every factor is nonnegative
    and nothing is subtracted, so each row, and the max-min of the rows, is
    monotone in the samples exactly in floating point.
    """

    def __init__(self, theta: float, axes: np.ndarray, order: int):
        self.theta = theta
        self.axes = axes
        M = axes.shape[0]
        self.M = M
        xt, wt = np.polynomial.legendre.leggauss(order)
        nphi = order
        phis = TWO_PI * np.arange(nphi) / nphi
        t = np.repeat(xt, nphi)
        wq = np.repeat(wt, nphi) * (TWO_PI / nphi)
        s = np.sqrt(np.clip(1.0 - t**2, 0.0, None))
        cphi = np.tile(np.cos(phis), order)
        sphi = np.tile(np.sin(phis), order)
        self.nodes = np.stack([s * cphi, s * sphi, t], axis=-1)
        self.weights = wq
        self.moment = self.nodes * wq[:, None]  # V @ moment: sum_q w_q V_q v_q
        # local cell extents for the fractional membership ramp
        dv_dt = np.stack(
            [
                np.where(s > 1e-12, -t * cphi / np.where(s > 1e-12, s, 1.0), 0.0),
                np.where(s > 1e-12, -t * sphi / np.where(s > 1e-12, s, 1.0), 0.0),
                np.ones_like(t),
            ],
            axis=-1,
        )
        dv_dphi = np.stack([-s * sphi, s * cphi, np.zeros_like(t)], axis=-1)
        dots = self.nodes @ axes.T  # (Q3, M)
        span = (
            np.abs(dv_dt @ axes.T) * np.repeat(wt, nphi)[:, None]
            + np.abs(dv_dphi @ axes.T) * (TWO_PI / nphi)
        )
        np.clip(span, 1e-15, None, out=span)
        member = np.clip((dots + theta) / span + 0.5, 0.0, 1.0)
        self.member = np.ascontiguousarray(member.T)  # (M, Q3)
        self.upper = upper = np.triu_indices(M)  # pair id -> (i, j), i <= j
        self.pair = np.empty((M, M), dtype=np.intp)  # (i, j) -> pair id
        self.pair[upper] = self.pair[upper[::-1]] = np.arange(upper[0].size)
        self.denom = np.empty((M, M))
        for i in range(M):
            # Paul axis i's denominators, summed on cap i's support
            cap = np.flatnonzero(self.member[i] > 0.0)
            Y = self.member[i, cap] * wq[cap] * self.member[i:, cap]
            self.denom[i, i:] = self.denom[i:, i] = Y.sum(axis=1)
        if not np.all(self.denom > 1e-12):
            raise InvalidParameterError("degenerate cap pair on the quadrature grid")
        self.nnz_cover, self.table_bytes = None, self.member.nbytes + self.denom.nbytes
        # 2 gamma_K, K = Q + 64: two products of one pair value over the Q
        # samples, 3 roundings per term and a division, part by at most
        # about 2 gamma_(Q+4) max|V|; the 60 more terms cover the rounding
        # of denom_ij and of the compare
        K = wq.size + 64
        self.slack = 2.0 * K * 2.0**-53 / (1.0 - K * 2.0**-53)

    def _weigh(self, axes: np.ndarray, V: np.ndarray) -> np.ndarray:
        """member_a w V for the axis a = axes[k] of each node's samples
        V[k], shape (m, Q)."""
        Y = self.member[axes]
        Y *= self.weights
        Y *= V
        return Y

    def paul_rows(self, paul: np.ndarray, V: np.ndarray) -> np.ndarray:
        """Full rows R(paul[k], j) over every Carol axis j, shape (m, M),
        at the nodes whose samples are V (m, Q): (member_j @ (member_i w
        V)) / denom_ij.  Each row is one product of a fixed shape whatever
        else the call holds, so R(i, j) has one value at a node in every
        call."""
        R = np.matmul(self.member, self._weigh(paul, V)[:, :, None])[:, :, 0]
        R /= self.denom[paul]
        return R

    def reads(self, S):
        """What maxmin reads of samples S: S itself."""
        return S

    def maxmin(self, X: np.ndarray) -> tuple:
        """The max-min at m nodes from their samples X, one column per
        node, (Q, m), pruned exactly from each node's hint, the Paul axis
        with the largest dot product with its first moment: see
        `_pruned`."""
        V = np.ascontiguousarray(X.T)  # one row per node
        return self._pruned(V, ((V @ self.moment) @ self.axes.T).argmax(axis=1))

    def _pruned(self, V: np.ndarray, hint: np.ndarray) -> tuple:
        """The max-min at m nodes, pruned exactly (alpha-beta; Knuth and
        Moore 1975), from their samples V (m, Q) and a Paul axis per node,
        hint (m); any hint gives the same result.

        The hint's full row gives the floor L = min_j R(hint, j) <= T and
        Carol's reply to it, j*.  One product gives every Paul axis i's
        pair value R(i, j*) >= min_j R(i, j); an axis whose value is below
        L - slack max|V| (which covers the rounding between two products
        of one pair row) has its min below L, so it can neither be the max
        nor tie it, and only the other axes get full rows.  Returns
        (values, ids, rows): the max_i min_j R(i, j), the pair id
        pair[i, j] of Paul's first maximizing axis i and Carol's first
        minimizing axis j against it, and the count of full rows formed;
        all as the max-min of every full row gives them, bit for bit."""
        M, m = self.M, V.shape[0]
        cols = np.arange(m)
        R = self.paul_rows(hint, V)
        floor, reply = R.min(axis=1), R.argmin(axis=1)
        upper = self.member @ self._weigh(reply, V).T
        upper /= self.denom[:, reply]
        alive = upper >= floor - self.slack * np.maximum(V.max(axis=1), -V.min(axis=1))
        alive[hint, cols] = False
        # each Paul axis's min over Carol's, and Carol's first minimizing axis
        inner = np.full((M, m), -np.inf)
        answer = np.zeros((M, m), dtype=np.intp)
        inner[hint, cols], answer[hint, cols] = floor, reply
        paul, nodes = np.nonzero(alive)
        for s in range(0, paul.size, m):  # m rows at a time
            i, x = paul[s : s + m], nodes[s : s + m]
            R = self.paul_rows(i, V[x])
            inner[i, x], answer[i, x] = R.min(axis=1), R.argmin(axis=1)
        pick = lambda p: self.pair[p, answer[p, cols]]
        return (*_choose(inner, pick), m + paul.size)

    def pair_rows(self, A, ids: np.ndarray, drop=None) -> np.ndarray:
        """Row r is the pair ids[r]'s weights over the Q samples, (member_i
        w) member_j / denom_ij for the pair (i, j), applied to A (A has the
        samples' rows), or with A None zero where drop[r] holds.  Each
        distinct pair's row is formed, and applied, once."""
        pairs, back = np.unique(ids, return_inverse=True)
        i, j = self.upper[0][pairs], self.upper[1][pairs]
        rows = self.member[i] * self.weights
        rows *= self.member[j]
        rows /= self.denom[i, j][:, None]
        if A is not None:
            return (rows @ A)[back]
        R = rows[back]
        if drop is not None:
            R[drop] = 0.0
        return R


# ---------------------------------------------------------------------------
# the operator


def _make_bellman(dim: int, cfg: SolverConfig):
    """The max-min of cap-pair band averages for the circle or the sphere.

    Both have `nodes`, the (Q, dim) unit directions v_q at which the field
    is sampled (at x + eps v_q).  A cap pair is named by one integer, its
    pair id.  `reads(S)` maps samples S, (Q, m), to what `maxmin` reads:
    on the circle cover @ S, where `cover` is a nonnegative CSR map from
    the Q samples to step sums and shortest arcs, and on the sphere S
    itself.  `maxmin(reads(S))` gives (values, ids, rows) at the m nodes:
    the (m,) max over Paul's axes of the min over Carol's axes, the id of
    each node's chosen pair, Paul's first maximizing axis against the first
    minimum among his candidates, in a tie order fixed per Bellman, and the
    count of Paul rows it formed.  `pair_rows(A, ids, drop=None)` gives row
    r as the band average of the pair ids[r], as a map of the columns of A
    (A has the rows of what `maxmin` reads), or with A None as a map of the
    Q samples, zero where the bool drop[r] holds.  For the solve manifest,
    `nnz_cover` is cover's nonzero count (None on the sphere, which has no
    cover) and `table_bytes` the bytes of the Bellman's largest tables.
    """
    theta = sphere.theta_eps(cfg.eps, dim)
    if dim == 2:
        return _CircleBellman(theta, cfg.axis_count, cfg.quad_order)
    return _SphereBellman(theta, sphere.fibonacci_axes(cfg.axis_count), cfg.quad_order)


class _Kernel:
    """The game operator T of (domain, cfg), in 2D and 3D, on the grid
    `grid` = empty_field(domain, cfg): one Bellman sweep from the interior
    values u, shape (n_interior,), to T(u), in blocks of nodes that keep the
    max-min in cache.  Every solve, residual and supersolution check applies
    T through `sweep` or `policy_matrix`; no other code applies it, and only
    `values` (which refuses a field on another grid) and `field` read and
    write fields.  The DPP's u = 0 outside the domain
    is one fixed slot, position n_interior, that every exterior node reads.

    The sample of direction q at a node is the multilinear interpolant at
    x + eps v_q: the same flat stencil offsets (the grid strides over the 2^N
    cell corners) and nonnegative corner weights at every node.  `samp` maps
    the values at the distinct offsets to the Q samples.  A table built once,
    offsets x nodes (int32), gives the position in u (or the slot) of each
    offset's node; a block gathers its columns from u with the slot
    appended.  Nodes whose samples all lie in the domain ("deep" nodes,
    `deep_idx`; sampled only where `holds_balls` leaves it open, POINTS
    samples at a time, so that the build's transients do not grow with Q)
    read `merged` = bell.reads(samp), the map from their gathered values to
    what `maxmin` reads (on the sphere samp itself).  The other ("rim"
    nodes, `rim_idx`) form all Q samples with samp, zero those outside the
    domain and pass them through bell.reads.  Every map has nonnegative
    weights and is applied with `@` in an order that does not depend on the
    data, so the sweep stays exactly monotone, and a sweep holds one
    block's rows at a time.  The kernel knows no geometry of the Bellman:
    each block yields one array, which its `maxmin` reads.
    """

    # nodes per block of a sweep
    BLOCK = 256
    # sample points tested against the domain at once while the kernel is
    # built (whole nodes, at least one)
    POINTS = 1 << 15

    def __init__(self, domain, cfg: SolverConfig):
        from scipy import sparse

        self.grid = grid = empty_field(domain, cfg)
        self.payoff = cfg.eps**2 * cfg.K  # added at every node by each sweep
        self.bellman = bell = _make_bellman(domain.dim, cfg)
        self.int_flat = np.flatnonzero(grid.interior_mask.ravel())
        self.n_interior = n = self.int_flat.size
        pts = grid.node_points()[self.int_flat]
        dim = domain.dim
        Q = bell.nodes.shape[0]
        step = cfg.eps * bell.nodes
        fi = np.floor(step / grid.h).astype(np.int64)
        # flat offset and weight of each (direction, corner) stencil node
        offs, w = multilinear_stencil(grid.shape)(fi, _snap(step / grid.h - fi))
        w, offs = w.T.ravel(), offs.T.ravel()
        nz = w > 0.0
        offsets, col = np.unique(offs[nz], return_inverse=True)
        rows = np.repeat(np.arange(Q), 1 << dim)[nz]
        self.samp = sparse.csr_matrix((w[nz], (rows, col.ravel())), shape=(Q, offsets.size))
        self.merged = bell.reads(self.samp)
        self.nnz_merged = _sizes(self.merged)[0]  # for the solve manifest
        # deep: every x + eps v_q is inside; surely so if the eps-ball is
        deep = domain.holds_balls(pts, cfg.eps * (1.0 + 1e-9))
        near = np.flatnonzero(~deep)
        inside = np.empty((Q, near.size), dtype=bool)
        B = max(1, self.POINTS // Q)
        for s in range(0, near.size, B):
            p = pts[near[s : s + B]]
            inside[:, s : s + B] = domain.contains(
                (p[None] + step[:, None]).reshape(-1, dim)).reshape(Q, -1)
        deep[near] = inside.all(axis=0)
        self.outside = ~inside[:, ~deep[near]]
        # position in u of every grid node; exterior nodes read the slot n
        slot = np.full(math.prod(grid.shape), n, dtype=np.int32)
        slot[self.int_flat] = np.arange(n)
        self.deep, self.rim = np.flatnonzero(deep), np.flatnonzero(~deep)
        # offsets x nodes: where each node's offsets read u
        self.deep_idx, self.rim_idx = (slot[self.int_flat[v] + offsets[:, None]]
                                       for v in (self.deep, self.rim))

    def values(self, field: ValueField) -> np.ndarray:
        """The field's interior values; InvalidParameterError unless the
        field has this grid's domain, lo, h and shape."""
        g = self.grid
        if (field.domain != g.domain or field.h != g.h or field.shape != g.shape
                or not np.array_equal(field.lo, g.lo)):
            raise InvalidParameterError("field is not on the grid of this domain and "
                                        f"config (h={g.h}, shape {list(g.shape)})")
        return field.values.ravel()[self.int_flat]

    def field(self, u: np.ndarray, n: int, increment: float) -> ValueField:
        """The field on this grid holding u inside and 0 outside."""
        vals = np.zeros(self.grid.shape)
        vals.ravel()[self.int_flat] = u
        return ValueField(self.grid.domain, self.grid.lo, self.grid.h, vals, n, increment)

    def _rows(self, u: np.ndarray):
        """(interior positions, what maxmin reads) of the interior values
        u, one node block at a time, deep blocks first; the caller drops a
        block's array before it asks for the next.  Deep nodes read
        merged @ gathered values; rim nodes form their samples, zero those
        outside the domain and pass them through bell.reads."""
        ext = np.append(u, 0.0)
        B = self.BLOCK
        for s in range(0, self.deep.size, B):
            yield self.deep[s : s + B], self.merged @ ext[self.deep_idx[:, s : s + B]]
        for s in range(0, self.rim.size, B):
            V = self.samp @ ext[self.rim_idx[:, s : s + B]]
            V[self.outside[:, s : s + B]] = 0.0
            yield self.rim[s : s + B], self.bellman.reads(V)

    def sweep(self, u: np.ndarray) -> tuple:
        """(T(u), ids): the Bellman right-hand sides of the interior values
        u, and the pair id chosen at each interior node.  Sets rows, the
        count of Paul rows its max-mins formed."""
        out = np.empty(self.n_interior)
        ids = np.empty(self.n_interior, dtype=np.intp)
        self.rows = 0
        for pos, X in self._rows(u):
            out[pos], ids[pos], rows = self.bellman.maxmin(X)
            self.rows += rows
            del X
        return out + self.payoff, ids

    def policy_matrix(self, ids: np.ndarray):
        """The linear part of the sweep with each node's pair id fixed:
        a nonnegative, substochastic map of the interior values, shape
        (n_interior, n_interior).  A row is the pair's band weights composed
        with samp: deep nodes' through merged, rim nodes' over the Q samples
        with those outside the domain dropped, then times samp; its columns
        are read from deep_idx or rim_idx, and the exterior slot, which
        holds 0, is dropped.  Assembled BLOCK nodes at a time; a CSR
        matrix."""
        from scipy import sparse

        bell, B, n = self.bellman, self.BLOCK, self.n_interior
        parts = [(np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.int32), np.zeros(0))]
        for nodes, idx, A, drop in ((self.deep, self.deep_idx, self.merged, None),
                                    (self.rim, self.rim_idx, None, self.outside.T)):
            for s in range(0, nodes.size, B):
                R = bell.pair_rows(A, ids[nodes[s : s + B]],
                                   None if drop is None else drop[s : s + B])
                R = sparse.coo_matrix(R if drop is None else R @ self.samp)
                parts.append((nodes[s + R.row], idx[R.col, s + R.row], R.data))
        rows, cols, data = map(np.concatenate, zip(*parts))
        keep = cols < n
        return sparse.csr_matrix((data[keep], (rows[keep], cols[keep])), shape=(n, n))


def _iteration_config(cfg: SolverConfig, dim: int) -> SolverConfig:
    cfg = resolve_config(cfg, dim)
    if cfg.eps > SUPERSOLUTION_EPS_MAX:
        raise InvalidParameterError(
            f"eps must be at most {SUPERSOLUTION_EPS_MAX} for a convergent iteration"
        )
    return cfg


def _chain(sweep: Callable, u: np.ndarray, cfg: SolverConfig, n: int,
           first: np.ndarray | None = None, monitor: Callable | None = None,
           last_input: bool = False) -> tuple:
    """Monotone value iteration u <- sweep(u) from the interior values u
    until the sup increment drops below tol_iter or the sweep count n
    reaches max_iter; sweep is a kernel's sweep or a wrapper of it, and
    only its values, T(u), are read.

    first, when given, is T(u), already run and counted in n.  Every
    sweep is checked to be node-wise >= its input.  Returns (interior
    values of the last iterate, sweep count, last increment, converged);
    with last_input, the input of the last sweep in place of its output, so
    that the last increment is that field's DPP residual.
    """
    increment, prev = math.inf, u
    while first is not None or n < cfg.max_iter:
        if first is None:
            new = sweep(u)[0]
            n += 1
        else:
            new, first = first, None
        if not np.all(new >= u):
            raise AssertionError("value iteration lost monotonicity")
        increment = float(np.max(new - u))
        prev, u = u, new
        if monitor is not None:
            monitor(n, increment)
        if increment < cfg.tol_iter:
            break
    return prev if last_input else u, n, increment, increment < cfg.tol_iter


def _nonconvergence(what: str, cfg: SolverConfig, last: ValueField) -> NonConvergenceError:
    return NonConvergenceError(
        f"{what} did not reach tol_iter={cfg.tol_iter} in {last.iterations} "
        f"sweeps (last increment {last.final_increment})",
        field=last, increment=last.final_increment, iterations=last.iterations,
    )


def value_iteration(domain, cfg: SolverConfig, start: ValueField | None = None,
                    monitor: Callable | None = None) -> ValueField:
    """Iterate the game operator of (domain, cfg) from w = 0, or from the
    field start, until the sup increment drops below tol_iter.

    Returns the converged field with .iterations and .final_increment set.
    Raises NonConvergenceError (carrying the last iterate) if max_iter sweeps
    do not reach tol_iter, and InvalidParameterError if start is not on
    cfg's grid.  The iteration is monotone by construction and this is
    checked on every sweep.  This is the reference path; `solve` reaches
    the same fixed point in far fewer sweeps.
    """
    cfg = _iteration_config(cfg, domain.dim)
    kernel = _Kernel(domain, cfg)
    u = np.zeros(kernel.n_interior) if start is None else kernel.values(start)
    u, n, increment, done = _chain(kernel.sweep, u, cfg, 0, monitor=monitor)
    last = kernel.field(u, n, increment)
    if not done:
        raise _nonconvergence("value iteration", cfg, last)
    return last


# Policy evaluation stops once its true sup residual falls below tol_iter
# times this, and the policy steps stop once a sweep moves the values by less:
# at the default tol_iter that is eps^2 1e-12, a few hundred units in the
# last place of the values, so the field lands on the fixed point to rounding.
_EVAL_TOL = 1e-9


def _ball_time(domain, cfg: SolverConfig, x: np.ndarray) -> np.ndarray:
    """(K / C(N)) (R^2 - |x - c|^2) / (2 (N - 1)) at the rows of x: the
    arrival time of the ball about the domain's centre c whose radius R is
    the domain's support radius about c.  That ball holds the domain, so
    this bounds the field, and its optimal cap pairs are radial."""
    N = domain.dim
    d = x - np.asarray(domain.center)
    R = domain.support_radius(domain.center)
    return cfg.K / sphere.constant_C(N) * (R**2 - sphere.row_dot(d, d)) / (2.0 * (N - 1))


def _stop(domain, cfg: SolverConfig) -> float:
    """The policy steps' stop: tol_iter * _EVAL_TOL, but no less than 8 units
    in the last place of the ball's arrival time at its centre, which bounds
    the field (`_ball_time`); a residual cannot settle much below the
    rounding of values that size."""
    bound = _ball_time(domain, cfg, np.asarray(domain.center))
    return max(cfg.tol_iter * _EVAL_TOL, 8.0 * float(np.spacing(bound)))


def _evaluate(P, w: np.ndarray, c: float, stop: float, budget: int) -> tuple:
    """Solve (I - P) x = c 1 by BiCGSTAB (van der Vorst 1992) from x = w until
    the true sup residual |c - (x - P x)| is below stop; the recurrence
    restarts from it while it is not.  Inner products are numpy reductions,
    not BLAS dot, so x does not depend on threads.  Returns (x, matvecs,
    settled): settled is False when budget matvecs run out first or on a
    breakdown (rho, r.v, t.t or omega 0 or not finite), which returns the
    last iterate and the matvecs spent."""
    sup = lambda a: float(np.max(np.abs(a)))
    bad = lambda z: not (z and math.isfinite(z))
    x, used = w, 0
    while used < budget:
        r = c - (x - P @ x)
        used += 1
        if sup(r) < stop:
            return x, used, True
        rhat, p, v, rho, alpha, omega = r, 0.0, 0.0, 1.0, 1.0, 1.0
        while used < budget and sup(r) >= stop:
            rho, last = float((rhat * r).sum()), rho
            if bad(rho):
                return x, used, False
            p = r + (rho / last * alpha / omega) * (p - omega * v)
            v = p - P @ p
            used += 1
            rv = float((rhat * v).sum())
            alpha = rho / rv if rv else 0.0
            if bad(alpha):
                return x, used, False
            x = x + alpha * p
            r = r - alpha * v
            if used == budget or sup(r) < stop:
                continue
            t = r - P @ r
            used += 1
            tt = float((t * t).sum())
            omega = float((t * r).sum()) / tt if tt else 0.0
            if bad(omega):
                return x, used, False
            x = x + omega * r
            r = r - omega * t
    return x, budget, False


def solve(domain, cfg: SolverConfig) -> ValueField:
    """The DPP fixed point of the operator of (domain, cfg) by policy
    iteration, certified by its last sweep; same stop rule, exit meaning and
    field format (cfg's grid) as value_iteration.

    0. Seed: one sweep of b, the ball's arrival time of `_ball_time`,
       gives the first policy; only its pair ids are used.
       b's optimal pairs are radial, so this policy is near-optimal where
       the domain is near that ball, and policy iteration converges fast
       from a near-optimal policy (Puterman and Brumelle 1979).
    1. Policy steps.  A sweep also returns each interior node's pair id:
       Paul's maximizing axis and Carol's minimizing axis against it.  With
       the pairs fixed the sweep is a nonnegative substochastic linear map P;
       _evaluate solves (I - P) u = c, c = eps^2 K, from the last u to a
       sup residual below `_stop`.  The step then sweeps s = lam u for the
       next policy, with lam = c / (c + 2 stop) fixed.  The operator is
       positively homogeneous up to its payoff, T(lam u) = lam T(u) + (1 -
       lam) c, so the steps end when |T(s) - s - (1 - lam) c| < stop, which
       is |T(u) - u| < stop scaled by lam (tied pairs can flip forever, so
       the pairs are not compared).  Then T(s) - s is about stop at every
       node.  A sweep that checks s <= T(s) exactly makes (s, T(s)) the
       certified pair; the values of earlier policies generally fail the
       check.  The first pair is (0, T(0)): every band average of 0 is 0,
       so T(0) = c needs no sweep.  An evaluation that does not settle
       (max_iter matvecs spent, or a BiCGSTAB breakdown) ends the steps.
    2. Polish: value iteration from the certified pair, with the monotone
       check on every sweep.  After a converged last step, T(s) - s is
       below tol_iter and it runs no sweep.

    The result is the input of the last sweep taken: a certified
    subsolution whose sweep is its DPP residual and .final_increment, so no
    sweep runs only to report them.  max_iter caps all full sweeps (seed,
    policy steps and polish); .iterations counts them.  On the cap,
    NonConvergenceError carries the last certified iterate.  The result and
    the error's field carry .telemetry: phase times, counts, sizes, one
    record per sweep (`sweep_log`) and the DPP residual.
    """
    cfg = _iteration_config(cfg, domain.dim)
    # the process's first scipy import is no part of the kernel build
    from scipy import sparse  # noqa: F401

    clock = time.perf_counter
    phase = dict.fromkeys(("kernel_build", "policy_extraction", "assembly",
                           "evaluation", "polish"), 0.0)
    t = clock()
    kernel = _Kernel(domain, cfg)
    phase["kernel_build"] = clock() - t
    log = []

    def logged(x: np.ndarray, step: str = "polish") -> tuple:
        # a sweep, logged with its phase ("seed", "policy" or "polish"), its
        # seconds and sup |T(x) - x|
        t = clock()
        Tx, ids = kernel.sweep(x)
        log.append({"phase": step, "s": clock() - t,
                    "increment": float(np.max(np.abs(Tx - x), initial=0.0)),
                    "rows": kernel.rows})
        return Tx, ids

    c = kernel.payoff
    stop = _stop(domain, cfg)
    lam = c / (c + 2.0 * stop)

    m = kernel.n_interior
    u = v = np.zeros(m)
    Tv = np.full(m, c)
    t = clock()
    _, ids = logged(_ball_time(domain, cfg, kernel.grid.node_points()[kernel.int_flat]),
                    "seed")
    phase["policy_extraction"] += clock() - t
    n, nnz_P, matvecs = 1, 0, []  # matvecs: one count per evaluation
    while n < cfg.max_iter:
        t = clock()
        P = kernel.policy_matrix(ids)
        nnz_P = P.nnz
        phase["assembly"] += clock() - t
        t = clock()
        u, used, settled = _evaluate(P, u, c, stop, cfg.max_iter)
        matvecs.append(used)
        phase["evaluation"] += clock() - t
        if not settled:
            break
        t = clock()
        s = lam * u
        Ts, ids = logged(s, "policy")
        n += 1
        phase["policy_extraction"] += clock() - t
        if np.all(s <= Ts):
            v, Tv = s, Ts
        if np.max(np.abs(Ts - s - (1.0 - lam) * c)) < stop:
            break

    steps = n - 1
    t = clock()
    v, n, increment, done = _chain(logged, v, cfg, n, Tv, last_input=True)
    phase["polish"] = clock() - t
    result = kernel.field(v, n, increment)
    result.telemetry = {
        "phase_s": phase,
        "policy_steps": steps,
        "matvecs": sum(matvecs),
        "evaluation_matvecs": matvecs,
        "polish_sweeps": n - 1 - steps,
        "sweeps": n,
        "sweep_log": log,
        "stop": stop,
        "interior": kernel.n_interior,
        "rim": int(kernel.rim.size),
        "nnz_cover": kernel.bellman.nnz_cover,
        "nnz_merged": kernel.nnz_merged,
        "nnz_P": nnz_P,
        "table_bytes": kernel.bellman.table_bytes,
        # the sup of the last sweep from v, which is v's
        "residual": increment,
    }
    if not done:
        raise _nonconvergence("solve", cfg, result)
    return result


def _defect(field: ValueField, cfg: SolverConfig) -> np.ndarray:
    """T(u) - u at the field's interior nodes, T of (field.domain, cfg);
    values stored outside the domain are not read."""
    kernel = _Kernel(field.domain, resolve_config(cfg, field.domain.dim))
    u = kernel.values(field)
    return kernel.sweep(u)[0] - u


def dpp_residual(field: ValueField, cfg: SolverConfig) -> float:
    """sup over interior nodes of |field - T(field)|, where T(field) is one
    sweep of the operator of (field.domain, cfg).  Raises
    InvalidParameterError for a field on another grid than cfg's."""
    return float(np.max(np.abs(_defect(field, cfg)), initial=0.0))


def check_dpp_supersolution(field: ValueField, cfg: SolverConfig,
                            slack: float = 1e-9) -> tuple:
    """Whether field >= T(field) - slack at every interior node, where
    T(field) is one sweep, as in dpp_residual (a field on another grid is
    refused the same way).

    Returns (ok, worst), where worst is the largest violation
    max(T(field) - field) over interior nodes (negative when the field is a
    strict supersolution).  Nodes outside the domain must be >= 0; they are
    stored as 0 so this holds by construction, but it is checked anyway.
    """
    defect = _defect(field, cfg)
    if not np.all(field.values[~field.interior_mask] >= 0.0):
        return False, math.inf
    worst = float(np.max(defect, initial=-math.inf))
    return worst <= slack, worst


# ---------------------------------------------------------------------------
# serialization


def _fmt(x: float) -> str:
    return "%.17g" % x


def save_field(field: ValueField, path, cfg: SolverConfig | None = None) -> None:
    """Write a field as a JSON header plus a CSV of node values, and a binary
    copy of the values for load_field.

    path gets the header; the values go to path with a .values.csv suffix,
    row-major, one grid row per line, floats formatted to round-trip exactly.
    The header and the CSV are canonical: their bytes depend only on the
    field and header content.  The copy, at the CSV path with a .bin suffix,
    holds the CRC-32 of the CSV's bytes (4 bytes, little-endian), then the
    row-major little-endian float64 values deflated by zlib at level 1; it is
    a cache that load_field checks against the CSV, not an artifact.
    """
    path = Path(path)
    values_name = path.stem + ".values.csv"
    lo, hi = field.box
    header: dict = {
        "format": "valuefield/1",
        "domain": field.domain.as_dict(),
        "grid_h": field.h,
        "box_lo": list(map(float, lo)),
        "box_hi": list(map(float, hi)),
        "grid_shape": list(field.shape),
        "values_file": values_name,
    }
    if field.iterations is not None:
        header["iterations"] = field.iterations
    if field.final_increment is not None:
        header["final_increment"] = field.final_increment
    if cfg is not None:
        header["config"] = asdict(cfg)
    path.write_text(dumps_compact(header) + "\n")
    n = field.shape[-1]
    values = path.parent / values_name
    crc = 0
    with open(values, "wb") as fh:
        for slab in field.values.reshape(field.shape[0], -1, n):
            flat = slab.ravel()
            # exact +0.0 (most exterior nodes) is "0" unformatted; -0.0 is
            # formatted, as "-0"
            toks = ["0"] * flat.size
            keep = np.flatnonzero((flat != 0.0) | np.signbit(flat))
            for i, v in zip(keep.tolist(), flat[keep].tolist()):
                toks[i] = _fmt(v)
            text = "".join(",".join(toks[s : s + n]) + "\n"
                           for s in range(0, flat.size, n)).encode("ascii")
            fh.write(text)
            crc = zlib.crc32(text, crc)
    packed = zlib.compress(field.values.astype("<f8", copy=False).tobytes(), 1)
    values.with_suffix(".bin").write_bytes(crc.to_bytes(4, "little") + packed)


def _load_copy(csv: bytes, copy: Path, shape: tuple) -> np.ndarray | None:
    """The values of save_field's binary copy, or None unless the copy is
    keyed to these CSV bytes and inflates to exactly the grid's values."""
    count = math.prod(shape)
    # a CSV of n values holds at least 2n bytes; a grid_shape that these
    # cannot fill (negative, or too large to allocate) is the CSV path's to
    # reject, so the buffer below is never sized from it
    if not 0 <= 2 * count <= len(csv):
        return None
    try:
        blob = copy.read_bytes()
    except OSError:
        return None
    if blob[:4] != zlib.crc32(csv).to_bytes(4, "little"):
        return None
    size = 8 * count
    try:
        # one output buffer of the expected size (a longer stream grows it)
        raw = zlib.decompress(blob[4:], bufsize=size)
    except zlib.error:
        return None
    if len(raw) != size:
        return None
    return np.frombuffer(raw, dtype="<f8").astype(float).reshape(shape)


def load_field(path) -> tuple:
    """Read a field written by save_field; returns (field, header).

    The CSV named by the header is canonical; its name must be a plain file
    name, read from the header's folder.  Its values come from the binary
    copy beside it when the copy's CRC-32 matches the CSV's bytes and it
    holds exactly grid_shape's values, and from parsing the CSV otherwise
    (no copy, an edited CSV, a damaged copy), with the same result.
    """
    path = Path(path)
    header = json.loads(path.read_text())
    if header.get("format") != "valuefield/1":
        raise InvalidParameterError("not a value field file")
    domain = domain_from_dict(header["domain"])
    h = float(header["grid_h"])
    if not (h > 0 and math.isfinite(h)):
        raise InvalidParameterError(f"grid_h {h} is not positive and finite")
    lo = np.asarray(header["box_lo"], dtype=float)
    if lo.shape != (domain.dim,) or not np.all(np.isfinite(lo)):
        raise InvalidParameterError(f"box_lo must be {domain.dim} finite numbers")
    shape = tuple(header["grid_shape"])
    name = header["values_file"]
    if Path(name).name != name:
        raise InvalidParameterError(f"values_file {name!r} is not a plain file name")
    values = path.parent / name
    vals = _load_copy(values.read_bytes(), values.with_suffix(".bin"), shape)
    if vals is None:
        try:
            # one C-level parse, correctly rounded like float(); a missing or
            # non-numeric token or a ragged row raises ValueError
            vals = np.loadtxt(values, delimiter=",", comments=None)
        except ValueError as exc:
            raise InvalidParameterError(f"{name}: {exc}") from None
        if vals.size != math.prod(shape):
            raise InvalidParameterError(
                f"{name} holds {vals.size} values, "
                f"grid_shape {list(shape)} needs {math.prod(shape)}"
            )
        vals = vals.reshape(shape)
    field = ValueField(
        domain, lo, h, vals,
        iterations=header.get("iterations"),
        final_increment=header.get("final_increment"),
    )
    return field, header


def dumps_compact(obj) -> str:
    """JSON with floats printed as %.17g so output is reproducible; the
    non-finite ones as Python's json writes and reads them (Infinity,
    -Infinity, NaN)."""
    if isinstance(obj, dict):
        parts = []
        for k, v in obj.items():
            if not isinstance(k, str):
                # coerce like the stdlib so float-keyed tables stay valid JSON
                k = repr(float(k)) if isinstance(k, (float, np.floating)) else str(k)
            parts.append(f"{json.dumps(k)}: {dumps_compact(v)}")
        return "{" + ", ".join(parts) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps_compact(v) for v in obj) + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return _fmt(x) if math.isfinite(x) else json.dumps(x)
    return json.dumps(obj)
