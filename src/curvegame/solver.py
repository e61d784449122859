"""Grid discretization and monotone value iteration for the game value function.

The value function u^eps satisfies a dynamic programming principle: at every
point x of the domain,

    u(x) = max_a min_b  avg_{A(a) cap B(b)} u(x + eps v) dsigma(v)  +  eps^2 K,

where A, B are eps-game caps drawn from a fixed finite axis family, and u = 0
outside the domain.  This module discretizes u on a uniform grid, evaluates the
right-hand side with a quadrature grid on the sphere that is shared by all cap
pairs, and iterates from w = 0.  One sweep kernel serves 2D and 3D: a sparse
nonnegative map `cover` takes a node's samples to band sums (circle: axis
steps and shortest arcs; sphere: one row per cap pair i <= j), and `maxmin`
turns those into max over Paul's axes of min over Carol's axes.  For nodes
whose samples all lie in the domain, `cover` is merged with the
interpolation weights into one map of the gathered node values.

The default 2D grid spacing is h = (eps/2) min(1, sqrt(eps/0.2)).  Multilinear
interpolation costs O(h^2/eps^2) of the value at the fixed point; under this
law that bias falls like eps below 0.2, the rate of the game's own error, and
the grid is exactly h = eps/2 from 0.2 up.  3D grids keep h = eps/2.

Monotonicity of the iteration is preserved exactly in floating point: every
update is composed of non-negatively weighted sums of field values (accumulated
in a fixed order; on the circle each band is its shortest arc plus a run of
whole axis-spacing steps, on the sphere each pair row carries the weights
member_i member_j w_q / denom_ij, so no subtraction ever occurs), minima,
maxima, multiplication by a positive constant, and addition of a constant.
All of these are monotone under IEEE round-to-nearest, so w_{n+1} >= w_n
holds bit-for-bit, not just approximately.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable

import numpy as np
from scipy import sparse

from . import sphere
from .errors import (
    InvalidParameterError,
    NonConvergenceError,
    OutOfBoundsError,
)

TWO_PI = 2.0 * math.pi

# Monotone iterates stay below the explicit quadratic supersolution only for
# eps below this threshold; value_iteration refuses larger eps.
SUPERSOLUTION_EPS_MAX = 0.5

# Below this eps the default 2D grid spacing shrinks like eps^{3/2}; at and
# above it the default is exactly eps/2.
GRID_LAW_EPS = 0.2

# Interpolation weights within this distance of a node snap to the node, so
# grid points reproduce their stored values exactly.
_SNAP = 1e-9


# ---------------------------------------------------------------------------
# domains


def _points(points, dim: int) -> np.ndarray:
    """points as a float array whose last axis has length dim."""
    p = np.asarray(points, dtype=float)
    if p.shape[-1:] != (dim,):
        raise InvalidParameterError(f"points must have {dim} coordinates")
    return p


@dataclass(frozen=True)
class Ball:
    """Open ball {|x - center| < radius}."""

    center: tuple
    radius: float

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float)
        if c.ndim != 1 or c.size not in (2, 3):
            raise InvalidParameterError("ball center must be a 2- or 3-vector")
        if not self.radius > 0:
            raise InvalidParameterError("ball radius must be positive")
        object.__setattr__(self, "center", tuple(float(v) for v in c))

    @property
    def dim(self) -> int:
        return len(self.center)

    def contains(self, points):
        """Membership of a point (bool) or of the rows of an (m, dim) batch."""
        p = _points(points, self.dim)
        d = p - np.asarray(self.center)
        inside = sphere.row_dot(d, d) < self.radius**2
        return bool(inside) if p.ndim == 1 else inside

    def bounds(self):
        c = np.asarray(self.center)
        r = self.radius
        return c - r, c + r

    def support_radius(self, z) -> float:
        """max over boundary points y of |y - z|."""
        z = np.asarray(z, dtype=float)
        return float(np.linalg.norm(z - np.asarray(self.center)) + self.radius)

    def as_dict(self) -> dict:
        return {"shape": "ball", "center": list(self.center), "radius": self.radius}


@dataclass(frozen=True)
class Ellipse:
    """Open axis-aligned ellipse {sum ((x_i - c_i)/s_i)^2 < 1}."""

    center: tuple
    semi_axes: tuple

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float)
        s = np.asarray(self.semi_axes, dtype=float)
        if c.shape != s.shape or c.ndim != 1 or c.size not in (2, 3):
            raise InvalidParameterError("center and semi_axes must be matching 2- or 3-vectors")
        if not np.all(s > 0):
            raise InvalidParameterError("semi-axes must be positive")
        object.__setattr__(self, "center", tuple(float(v) for v in c))
        object.__setattr__(self, "semi_axes", tuple(float(v) for v in s))

    @property
    def dim(self) -> int:
        return len(self.center)

    def contains(self, points):
        """Membership of a point (bool) or of the rows of an (m, dim) batch."""
        p = _points(points, self.dim)
        d = (p - np.asarray(self.center)) / np.asarray(self.semi_axes)
        inside = sphere.row_dot(d, d) < 1.0
        return bool(inside) if p.ndim == 1 else inside

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
    and quadrature order 64 in 3D; tol_iter = eps^2 1e-3; grid_h from
    default_grid_h (the 2D grid law, eps/2 in 3D).
    """
    if dim not in (2, 3):
        raise InvalidParameterError("dimension must be 2 or 3")
    if not (cfg.eps > 0 and math.isfinite(cfg.eps)):
        raise InvalidParameterError("eps must be positive and finite")
    # raises if delta_eps(eps) is inadmissible for this dimension
    sphere.theta_eps(cfg.eps, dim)
    K = sphere.constant_C(dim) if cfg.K is None else float(cfg.K)
    if not K > 0:
        raise InvalidParameterError("K must be positive")
    M = (64 if dim == 2 else 128) if cfg.axis_count is None else int(cfg.axis_count)
    if M < 8:
        raise InvalidParameterError("axis_count must be at least 8")
    order = (1024 if dim == 2 else 64) if cfg.quad_order is None else int(cfg.quad_order)
    if order < 16:
        raise InvalidParameterError("quad_order must be at least 16")
    tol = cfg.eps**2 * 1e-3 if cfg.tol_iter is None else float(cfg.tol_iter)
    if not tol > 0:
        raise InvalidParameterError("tol_iter must be positive")
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


def config_as_dict(cfg: SolverConfig) -> dict:
    return {
        "eps": cfg.eps,
        "K": cfg.K,
        "axis_count": cfg.axis_count,
        "quad_order": cfg.quad_order,
        "tol_iter": cfg.tol_iter,
        "max_iter": cfg.max_iter,
        "grid_h": cfg.grid_h,
    }


# ---------------------------------------------------------------------------
# value field


class ValueField:
    """Scalar field on a uniform grid over a box containing the domain.

    values[i, j(, k)] is the field at node lo + (i, j(, k)) * h.  Nodes outside
    the open domain always hold 0 (extension by zero).
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
        if self.values.ndim != domain.dim:
            raise InvalidParameterError("values rank must match domain dimension")
        nodes = self.node_points()
        self.interior_mask = domain.contains(nodes).reshape(self.values.shape)

    @property
    def shape(self) -> tuple:
        return self.values.shape

    @property
    def box(self):
        hi = self.lo + (np.asarray(self.shape) - 1) * self.h
        return self.lo.copy(), hi

    def grid_axes(self) -> list:
        return [self.lo[a] + self.h * np.arange(n) for a, n in enumerate(self.shape)]

    def node_points(self) -> np.ndarray:
        """All node coordinates, row-major, shape (prod(shape), dim)."""
        mesh = np.meshgrid(*self.grid_axes(), indexing="ij")
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


def _arc_cells(ua: float, ub: float, Q: int) -> list:
    """Cells under the arc [ua, ub], given in cell units (cell q spans
    [q - 1/2, q + 1/2)): [(q mod Q, covered fraction of the cell), ...]."""
    fa, fb = math.floor(ua + 0.5), math.floor(ub + 0.5)
    if fa == fb:
        return [(fa % Q, max(ub - ua, 0.0))]
    return ([(fa % Q, max(fa + 0.5 - ua, 0.0))]
            + [(c % Q, 1.0) for c in range(fa + 1, fb)]
            + [(fb % Q, max(ub - fb + 0.5, 0.0))])


class _Bellman:
    """max over Paul's axes of the min over Carol's axes of the cap-pair
    band averages, from samples of the field at x + eps v_q.

    A subclass sets `nodes`, the (Q, dim) unit directions v_q, and `cover`,
    a sparse nonnegative map from the Q samples to the rows that its
    `maxmin` combines.
    """

    def reduce(self, V: np.ndarray) -> np.ndarray:
        """V: (Q, m) samples; returns (m,) max_i min_j of pair averages."""
        return self.maxmin(self.cover @ V)


class _CircleBellman(_Bellman):
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
    (Q, M): steps and arcs need not start on cell boundaries.

    Every weight is a nonnegative cell coverage and nothing is subtracted;
    the band averages are then scaled by positive constants and combined by
    min and max.  Each of these is monotone under IEEE round-to-nearest, so
    the map from samples to result is monotone exactly in floating point.
    """

    def __init__(self, theta: float, M: int, Q: int):
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
        start = lambda j: j * Q / M - W
        arcs = [(start(j % M), start(j % M + 1)) for j in range(M + kmax - 1)]
        arcs += [(start(i + kmax), i * Q / M + W) for i in range(M)]
        rows, cols, data = [], [], []
        for r, (a, b) in enumerate(arcs):
            for q, cov in _arc_cells(a, b, Q):
                rows.append(r)
                cols.append(q)
                data.append(cov)
        self.cover = sparse.csr_matrix((data, (rows, cols)), shape=(len(arcs), Q))
        # 1 / (band length in cells) per separation k: both arcs of the band
        length = lambda k: max(2.0 * W - k * Q / M, 0.0) if k <= kmax else 0.0
        self.scale = [1.0 / (length(k) + length(M - k)) for k in range(M // 2 + 1)]

    def maxmin(self, R: np.ndarray) -> np.ndarray:
        """R = cover @ samples, shape (rows, m); returns (m,) max_i min_j of
        the cap-pair averages."""
        M, kmax = self.M, self.kmax
        m = R.shape[1]
        steps = R[: M + kmax - 1]
        arc = R[M + kmax - 1:].copy()  # A_kmax
        # row p of low: Paul's axis p against Carol's axes p + k; row p + k
        # of high: Paul's axis p + k (mod M) against Carol's axis p
        low = np.full((M, m), np.inf)
        high = np.full((M + M // 2, m), np.inf)
        band = np.empty((M, m))
        second = {}
        for k in range(kmax, -1, -1):
            if k < kmax:
                arc += steps[k : k + M]  # A_k = G[. + k] + A_{k+1}
            if M - k <= M // 2:
                second[M - k] = np.roll(arc, k - M, axis=0)  # A_k[. + M - k]
            if k <= M // 2:
                if k in second:
                    np.add(arc, second[k], out=band)
                    band *= self.scale[k]
                else:
                    np.multiply(arc, self.scale[k], out=band)
                np.minimum(low, band, out=low)
                if k:
                    np.minimum(high[k : k + M], band, out=high[k : k + M])
        np.minimum(low, high[:M], out=low)
        np.minimum(low[: M // 2], high[M:], out=low[: M // 2])
        return low.max(axis=0)


class _SphereBellman(_Bellman):
    """max-min of cap-pair averages on a shared product grid over S^2.

    Heights use Gauss-Legendre nodes, azimuths a uniform grid; the area element
    is the product of the two weights.  Cap membership is fractional near the
    cap edge (linear ramp across one cell) so that averages vary smoothly as
    caps rotate; memberships stay in [0, 1].

    `cover` has one row per cap pair (i, j), i <= j, in row-major order: the
    band average sum_q member_i member_j w_q V_q / denom_ij, with
    denom_ij = sum_q member_i member_j w_q, as one nonnegative weight per
    sample (exact zeros dropped).  It is built one cap i at a time, so the
    dense pairs x samples array never exists.  `maxmin` expands the pair rows
    to the full M x M table through a fixed index (the band of (j, i) is the
    band of (i, j)), takes the min over Carol's j, then the max over Paul's i.
    Every weight is nonnegative and nothing is subtracted, so the map from
    samples to result is monotone exactly in floating point.
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
        upper = np.triu_indices(M)
        self.pair = np.empty((M, M), dtype=np.intp)  # (i, j) -> row of cover
        self.pair[upper] = self.pair[upper[::-1]] = np.arange(upper[0].size)
        # a weight is nonzero exactly where both memberships are: their
        # products with w_q stay far above the underflow threshold
        support = self.member > 0.0
        both = support.astype(float)
        counts = (both @ both.T)[upper].astype(np.int64)
        indptr = np.concatenate([[0], np.cumsum(counts)])
        indptr = indptr.astype(np.int32 if indptr[-1] < 2**31 else np.int64)
        indices = np.empty(indptr[-1], dtype=indptr.dtype)
        data = np.empty(indptr[-1])
        for i in range(M):
            block = (self.member[i] * wq) * self.member[i:]  # pairs (i, j >= i)
            denom = block.sum(axis=1)
            if not np.all(denom > 1e-12):
                raise InvalidParameterError("degenerate cap pair on the quadrature grid")
            block /= denom[:, None]
            keep = support[i] & support[i:]
            at = slice(indptr[self.pair[i, i]], indptr[self.pair[i, M - 1] + 1])
            indices[at] = np.nonzero(keep)[1]
            data[at] = block[keep]
        self.cover = sparse.csr_matrix((data, indices, indptr),
                                       shape=(upper[0].size, wq.size))

    def maxmin(self, R: np.ndarray) -> np.ndarray:
        """R = cover @ samples, shape (M(M+1)/2, m); returns (m,) max_i min_j
        of the cap-pair averages."""
        return R[self.pair].min(axis=1).max(axis=0)


# ---------------------------------------------------------------------------
# the operator


def _make_bellman(dim: int, cfg: SolverConfig) -> _Bellman:
    theta = sphere.theta_eps(cfg.eps, dim)
    if dim == 2:
        return _CircleBellman(theta, cfg.axis_count, cfg.quad_order)
    return _SphereBellman(theta, sphere.fibonacci_axes(cfg.axis_count), cfg.quad_order)


class _Kernel:
    """One Bellman sweep over all interior grid nodes of a field, in 2D and
    3D, in blocks of nodes that keep the reduce in cache.

    The sample of direction q at a node is the multilinear interpolant at
    x + eps v_q: the same flat stencil offsets (the grid strides over the 2^N
    cell corners) and nonnegative corner weights at every node.  `samp` maps
    the field values at the distinct offsets to the Q samples.  A block
    gathers, for each offset, the field value at that offset from each of
    its nodes: one gather for the whole block.  Nodes whose samples all lie
    in the domain ("deep" nodes) then need only the merged map cover @ samp,
    which takes the gathered values straight to the rows of the reduce (step
    sums and shortest arcs on the circle, cap-pair averages on the sphere).
    The other ("rim") nodes form all Q samples with samp, zero those outside
    the domain and apply cover.  Both maps have nonnegative weights, so the
    sweep stays exactly monotone.
    """

    BLOCK = 256

    def __init__(self, domain, cfg: SolverConfig, proto: ValueField):
        self.cfg = cfg
        self.bellman = bell = _make_bellman(domain.dim, cfg)
        self.int_flat = np.flatnonzero(proto.interior_mask.ravel())
        self.n_interior = self.int_flat.size
        pts = proto.node_points()[self.int_flat]
        dim = domain.dim
        Q = bell.nodes.shape[0]
        B = self.BLOCK
        # interior nodes sit at least pad cells from every box face, so the
        # stencil of x + eps v is always inside the node array
        pad = int(math.ceil(cfg.eps / proto.h)) + 1
        gnode = np.rint((pts - proto.lo) / proto.h).astype(np.int64)
        if np.any(gnode < pad) or np.any(gnode >= np.asarray(proto.shape) - pad):
            raise InvalidParameterError("grid collar too small for eps step")
        step = cfg.eps * bell.nodes
        fi = np.floor(step / proto.h).astype(np.int64)
        # flat offset and weight of each (direction, corner) stencil node
        offs, w = multilinear_stencil(proto.shape)(fi, _snap(step / proto.h - fi))
        w, offs = w.T.ravel(), offs.T.ravel()
        nz = w > 0.0
        offsets, col = np.unique(offs[nz], return_inverse=True)
        rows = np.repeat(np.arange(Q), 1 << dim)[nz]
        self.samp = sparse.csr_matrix((w[nz], (rows, col.ravel())),
                                      shape=(Q, offsets.size))
        self.merged = (bell.cover @ self.samp).tocsr()
        # a node is deep when every x + eps v_q is inside the domain
        deep = np.empty(self.n_interior, dtype=bool)
        outside = []
        for s in range(0, self.n_interior, B):
            p = pts[s : s + B]
            inside = domain.contains(
                (p[None, :, :] + step[:, None, :]).reshape(-1, dim)
            ).reshape(Q, p.shape[0])
            deep[s : s + B] = inside.all(axis=0)
            outside.append(~inside[:, ~deep[s : s + B]])
        outside = np.concatenate(outside, axis=1) if outside else np.zeros((Q, 0), bool)
        gather = lambda pos: self.int_flat[pos][None, :] + offsets[:, None]
        sel = np.flatnonzero(deep)
        self.deep_blocks = [(sel[s : s + B], gather(sel[s : s + B]))
                            for s in range(0, sel.size, B)]
        sel = np.flatnonzero(~deep)
        self.rim_blocks = [(sel[s : s + B], gather(sel[s : s + B]),
                            np.ascontiguousarray(outside[:, s : s + B]))
                           for s in range(0, sel.size, B)]

    def sweep(self, values: np.ndarray) -> np.ndarray:
        """Interior Bellman right-hand sides, shape (n_interior,)."""
        flat = values.ravel()
        bell = self.bellman
        out = np.empty(self.n_interior)
        for pos, idx in self.deep_blocks:
            out[pos] = bell.maxmin(self.merged @ flat[idx])
        for pos, idx, outside in self.rim_blocks:
            V = self.samp @ flat[idx]
            V[outside] = 0.0
            out[pos] = bell.maxmin(bell.cover @ V)
        return out + self.cfg.eps**2 * self.cfg.K


def _bellman_core(field: ValueField, pts: np.ndarray, cfg: SolverConfig) -> np.ndarray:
    """RHS at arbitrary interior points via the public interpolant."""
    bell = _make_bellman(field.domain.dim, cfg)
    out = np.empty(pts.shape[0])
    for r in range(pts.shape[0]):
        samples = interpolate(field, pts[r] + cfg.eps * bell.nodes)
        out[r] = bell.reduce(samples[:, None])[0]
    return out + cfg.eps**2 * cfg.K


def bellman_rhs(field: ValueField, x, cfg: SolverConfig) -> float:
    """One application of the game operator at x.

    max over Paul's axes of the min over Carol's axes of the average of the
    field over the cap intersection at x, plus the running payoff eps^2 K.
    Points outside the domain return 0 (the game has already ended there).
    """
    cfg = resolve_config(cfg, field.domain.dim)
    x = np.asarray(x, dtype=float)
    if x.shape != (field.domain.dim,):
        raise InvalidParameterError("x must be a point of the field's dimension")
    if not field.domain.contains(x):
        return 0.0
    return float(_bellman_core(field, x[None, :], cfg)[0])


def value_iteration(domain, cfg: SolverConfig, start: ValueField | None = None,
                    monitor: Callable | None = None) -> ValueField:
    """Iterate the game operator from w = 0 until the sup increment drops
    below tol_iter.

    Returns the converged field with .iterations and .final_increment set.
    Raises NonConvergenceError (carrying the last iterate) if max_iter sweeps
    do not reach tol_iter.  The iteration is monotone by construction and this
    is checked on every sweep.
    """
    cfg = resolve_config(cfg, domain.dim)
    if cfg.eps > SUPERSOLUTION_EPS_MAX:
        raise InvalidParameterError(
            f"eps must be at most {SUPERSOLUTION_EPS_MAX} for a convergent iteration"
        )
    field = empty_field(domain, cfg) if start is None else start
    kernel = _Kernel(domain, cfg, field)
    vals = field.values.copy()
    flat = vals.ravel()
    interior = kernel.int_flat
    cur = flat[interior].copy()
    increment = math.inf
    for n in range(1, cfg.max_iter + 1):
        new = kernel.sweep(vals)
        if not np.all(new >= cur):
            raise AssertionError("value iteration lost monotonicity")
        increment = float(np.max(new - cur))
        cur = new
        vals = np.zeros_like(vals)
        vals.ravel()[interior] = new
        if monitor is not None:
            monitor(n, increment)
        if increment < cfg.tol_iter:
            return ValueField(domain, field.lo, field.h, vals,
                              iterations=n, final_increment=increment)
    last = ValueField(domain, field.lo, field.h, vals,
                      iterations=cfg.max_iter, final_increment=increment)
    raise NonConvergenceError(
        f"value iteration did not reach tol_iter={cfg.tol_iter} "
        f"in {cfg.max_iter} sweeps (last increment {increment})",
        field=last, increment=increment, iterations=cfg.max_iter,
    )


def _interior_sweep(field: ValueField, cfg: SolverConfig) -> tuple:
    """(Bellman right-hand sides, field values) at the interior nodes, from
    one sweep with the resolved config cfg."""
    kernel = _Kernel(field.domain, cfg, field)
    return kernel.sweep(field.values), field.values.ravel()[kernel.int_flat]


def dpp_residual(field: ValueField, cfg: SolverConfig) -> float:
    """sup over interior nodes of |field - bellman_rhs(field)|."""
    rhs, cur = _interior_sweep(field, resolve_config(cfg, field.domain.dim))
    return float(np.max(np.abs(cur - rhs))) if cur.size else 0.0


def check_dpp_supersolution(field: ValueField, cfg: SolverConfig,
                            slack: float = 1e-9) -> tuple:
    """Whether field >= bellman_rhs(field) - slack at every interior node.

    Returns (ok, worst), where worst is the largest violation
    max(rhs - field) over interior nodes (negative when the field is a strict
    supersolution).  Nodes outside the domain must be >= 0; they are stored as
    0 so this holds by construction, but it is checked anyway.
    """
    cfg = resolve_config(cfg, field.domain.dim)
    if not np.all(field.values[~field.interior_mask] >= 0.0):
        return False, math.inf
    rhs, cur = _interior_sweep(field, cfg)
    if cur.size == 0:
        return True, -math.inf
    worst = float(np.max(rhs - cur))
    return worst <= slack, worst


# ---------------------------------------------------------------------------
# serialization


def _fmt(x: float) -> str:
    return "%.17g" % x


def _fmt_list(xs: Iterable[float]) -> str:
    return "[" + ", ".join(_fmt(float(x)) for x in xs) + "]"


def save_field(field: ValueField, path, cfg: SolverConfig | None = None,
               extra: dict | None = None) -> None:
    """Write a field as a JSON header plus a CSV of node values.

    path gets the header; the values go to path with a .values.csv suffix,
    row-major, one grid row per line, floats formatted to round-trip exactly.
    Output bytes depend only on the field and header content.
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
        header["config"] = config_as_dict(cfg)
    if extra:
        header.update(extra)
    path.write_text(dumps_compact(header) + "\n")
    rows = field.values.reshape(-1, field.shape[-1])
    lines = [",".join(_fmt(v) for v in row) for row in rows]
    (path.parent / values_name).write_text("\n".join(lines) + "\n")


def load_field(path) -> tuple:
    """Read a field written by save_field; returns (field, header)."""
    path = Path(path)
    header = json.loads(path.read_text())
    if header.get("format") != "valuefield/1":
        raise InvalidParameterError("not a value field file")
    domain = domain_from_dict(header["domain"])
    shape = tuple(header["grid_shape"])
    raw = (path.parent / header["values_file"]).read_text().strip()
    vals = np.array(raw.replace("\n", ",").split(","), dtype=float)
    if vals.size != math.prod(shape):
        raise InvalidParameterError(
            f"{header['values_file']} holds {vals.size} values, "
            f"grid_shape {list(shape)} needs {math.prod(shape)}"
        )
    vals = vals.reshape(shape)
    field = ValueField(
        domain, np.asarray(header["box_lo"], dtype=float), float(header["grid_h"]),
        vals,
        iterations=header.get("iterations"),
        final_increment=header.get("final_increment"),
    )
    return field, header


def dumps_compact(obj) -> str:
    """JSON with floats printed as %.17g so output is reproducible."""
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
        return _fmt(float(obj))
    return json.dumps(obj)
