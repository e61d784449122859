"""Spherical caps, cap intersections, and averages on S^{N-1} for N in {2, 3}.

A cap is the set {v in S^{N-1} : <v, axis> >= -theta} with theta in [0, 1);
for theta >= 0 it contains at least a half sphere.  Players pick caps whose
measure exceeds the half sphere by the margin delta_eps(eps) = sqrt(eps), and
the corresponding threshold theta_eps makes that margin exact.  The
intersection of two such caps (a band, for opposed axes) always has measure
at least 2*delta_eps.

Closed forms used throughout:

    N=2:  sigma(S^1) = 2*pi,  cap measure = pi + 2*arcsin(theta)
    N=3:  sigma(S^2) = 4*pi,  cap measure = 2*pi*(1 + theta)

In N=3 the surface measure factorizes as d(sigma) = d(phi) d(t) in cylinder
coordinates (azimuth phi, height t), which every quadrature here relies on.

Scalar functions integrated over regions are called with an (m, N) array of
unit vectors and must return an (m,) array.

The primitives of a game round are row-wise, and Cap and CapIntersection
call them on one row: unit_axes normalizes axes, row_dot and in_bands test
membership, and sample_bands draws once from each of m bands (on the circle
by arc arithmetic, on S^2 uniformly on the first cap, kept in the second).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    DegenerateRegionError,
    InvalidParameterError,
    SamplingFailureError,
)

TWO_PI = 2.0 * math.pi

# Axes nearer to (anti)parallel than this are treated as exactly aligned;
# 1 - |cos| ~ 1e-12 corresponds to an angle of ~1.4e-6 rad.
_ALIGNED_TOL = 1e-12

# Attempts per row before the S^2 band draw raises SamplingFailureError.
_REJECTION_ATTEMPT_BOUND = 10 ** 6


def sphere_measure(N: int) -> float:
    """Total surface measure of S^{N-1}."""
    _check_dim(N)
    return TWO_PI if N == 2 else 2.0 * TWO_PI


def delta_eps(eps: float) -> float:
    """Measure margin above the half sphere for step size eps: sqrt(eps)."""
    if not eps > 0.0:
        raise InvalidParameterError(f"eps must be positive, got {eps}")
    return math.sqrt(eps)


def cap_measure(theta: float, N: int) -> float:
    """Surface measure of the cap {v : <v, e> >= -theta} for any unit e.

    Parameters
    ----------
    theta : float in [-1, 1]
        Threshold; 0 gives the half sphere, 1 the full sphere, negative
        values caps smaller than a half sphere.
    N : {2, 3}
    """
    _check_dim(N)
    if not -1.0 <= theta <= 1.0:
        raise InvalidParameterError(f"theta must lie in [-1, 1], got {theta}")
    if N == 2:
        return math.pi + 2.0 * math.asin(theta)
    return TWO_PI * (1.0 + theta)


def theta_from_delta(delta: float, N: int) -> float:
    """Invert cap_measure: threshold whose cap exceeds the half sphere by delta.

    Exact inverses: theta = sin(delta/2) for N=2, theta = delta/(2*pi) for N=3.
    """
    _check_dim(N)
    if not 0.0 <= delta < 0.5 * sphere_measure(N):
        raise InvalidParameterError(
            f"delta must lie in [0, {0.5 * sphere_measure(N)}), got {delta}"
        )
    if N == 2:
        return math.sin(0.5 * delta)
    return delta / TWO_PI


@lru_cache(maxsize=256)
def theta_eps(eps: float, N: int) -> float:
    """Cap threshold for a game step: theta_from_delta(delta_eps(eps), N)."""
    return theta_from_delta(delta_eps(eps), N)


def constant_C(N: int) -> float:
    """Game payoff constant K: half the equator average of v_1 squared."""
    _check_dim(N)
    axis = np.zeros(N)
    axis[-1] = 1.0
    return 0.5 * equator_average(axis, lambda v: v[:, 0] ** 2, N)


@dataclass(frozen=True)
class Cap:
    """The set {v in S^{N-1} : <v, axis> >= -theta}, theta in [0, 1].

    Game-admissible caps use theta in [0, 1); theta = 1 denotes the full
    sphere, kept representable because full-sphere regions are useful test
    fixtures.  The axis is normalized at construction so the stored direction
    is a unit vector to within 1e-12 regardless of the input's length.
    """

    axis: np.ndarray
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "axis", unit_axes([self.axis])[0])
        if not 0.0 <= self.theta <= 1.0 + 1e-15:
            raise InvalidParameterError(f"cap theta must lie in [0, 1], got {self.theta}")
        object.__setattr__(self, "theta", float(min(self.theta, 1.0)))

    @property
    def dim(self) -> int:
        return self.axis.shape[0]

    @property
    def measure(self) -> float:
        return cap_measure(self.theta, self.dim)

    def contains(self, v):
        """Membership; a single vector gives a bool, a batch gives a mask."""
        v = np.asarray(v, dtype=float)
        inside = row_dot(v, self.axis) >= -self.theta
        return bool(inside) if v.ndim == 1 else inside


@lru_cache(maxsize=64)
def _leggauss(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    # Exact +/- symmetry of nodes and weights, so odd integrands cancel to
    # rounding level instead of eigensolver level.
    x = 0.5 * (x - x[::-1])
    w = 0.5 * (w + w[::-1])
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@dataclass(frozen=True)
class CapIntersection:
    """Intersection of two caps, with quadrature, sampling and membership.

    For N=2 the region decomposes into at most two circular arcs with known
    endpoint angles.  For N=3 membership is the conjunction of the two cap
    inequalities; integration works in the frame whose pole is cap_a's axis,
    where cap_a restricts the height t and cap_b cuts each height circle to
    an analytically known azimuth arc.
    """

    cap_a: Cap
    cap_b: Cap
    dim: int = field(init=False)

    def __post_init__(self):
        if self.cap_a.dim != self.cap_b.dim:
            raise InvalidParameterError("caps live on spheres of different dimension")
        object.__setattr__(self, "dim", self.cap_a.dim)
        _check_dim(self.dim)

    # -- shared surface --------------------------------------------------

    @cached_property
    def measure(self) -> float:
        # cached: sample() tests emptiness on every draw
        return float(np.sum(self.quadrature(64)[1]))

    @property
    def is_empty(self) -> bool:
        return self.measure <= 1e-14

    def contains(self, v):
        """Membership; a single vector gives a bool, a batch gives a mask."""
        v = np.asarray(v, dtype=float)
        a, b = self.cap_a, self.cap_b
        inside = in_bands(v, a.axis, b.axis, a.theta, b.theta)
        return bool(inside) if v.ndim == 1 else inside

    def average(self, f, order: int = 32) -> float:
        """Average (1/sigma(region)) * integral of f over the region.

        N=2 uses Gauss-Legendre per arc in angle; N=3 a product rule in
        (azimuth, height) restricted to the region, with weights summing to
        the region measure.  f takes an (m, N) array of unit vectors.
        """
        nodes, weights = self.quadrature(order)
        total = float(np.sum(weights))
        if total <= 1e-14:
            raise DegenerateRegionError("cap intersection has ~zero measure")
        return float(np.sum(weights * np.asarray(f(nodes), dtype=float)) / total)

    def quadrature(self, order: int = 32):
        """Nodes (m, N) and positive weights (m,) with sum ~ the region measure."""
        if self.dim == 2:
            return self._quadrature2(order)
        return self._quadrature3(order)

    def sample(self, rng) -> np.ndarray:
        """One uniform draw from the region: sample_bands on one row."""
        if self.is_empty:
            raise DegenerateRegionError("cannot sample a ~zero measure region")
        a, b = self.cap_a, self.cap_b
        width = band_draw_width(self.dim)
        return sample_bands(a.axis[None, :], b.axis[None, :], a.theta, b.theta,
                            lambda rows: rng.random((1, width)))[0]

    # -- N = 2: explicit arcs ---------------------------------------------

    def arcs(self):
        """Arc decomposition [(start, end), ...] with end > start, 0 to 2 arcs."""
        if self.dim != 2:
            raise InvalidParameterError("arcs are defined for the circle only")
        a, b = self.cap_a, self.cap_b
        s, e, keep = _arc_rows(a.axis[None, :], b.axis[None, :], a.theta, b.theta)
        return [(float(s[k, 0]), float(e[k, 0])) for k in range(3) if keep[k, 0]]

    def _quadrature2(self, order: int):
        xg, wg = _leggauss(order)
        angles = []
        weights = []
        for s, e in self.arcs():
            mid, half = 0.5 * (s + e), 0.5 * (e - s)
            angles.append(mid + half * xg)
            weights.append(half * wg)
        if not angles:
            return np.zeros((0, 2)), np.zeros(0)
        phi = np.concatenate(angles)
        w = np.concatenate(weights)
        return np.stack([np.cos(phi), np.sin(phi)], axis=1), w

    # -- N = 3: height panels ----------------------------------------------

    @cached_property
    def _frame3(self):
        """(pole, e1, e2, b3, rho, psi): cap_a's axis and a basis of its
        equator, and cap_b's axis as height b3, radius rho and azimuth psi."""
        pole = self.cap_a.axis
        b3 = float(np.dot(pole, self.cap_b.axis))
        rho = math.sqrt(max(0.0, 1.0 - b3 * b3))
        (e1,), (e2,) = _orthobases(pole[None, :])
        if 1.0 - abs(b3) < _ALIGNED_TOL:
            psi = 0.0
        else:
            psi = math.atan2(
                float(np.dot(self.cap_b.axis, e2)),
                float(np.dot(self.cap_b.axis, e1)),
            )
        return pole, e1, e2, b3, rho, psi

    def _quadrature3(self, order: int):
        """Product rule over the height panels between the cuts, on each of
        which cap_b is a full circle or an analytic azimuth arc; empty
        panels are dropped."""
        tA, tB = self.cap_a.theta, self.cap_b.theta
        pole, e1, e2, b3, rho, psi = self._frame3
        aligned = 1.0 - abs(b3) < _ALIGNED_TOL
        if aligned:
            cuts = [-min(tA, tB), 1.0] if b3 > 0.0 else [-tA, tB]
        else:
            disc = rho * math.sqrt(max(0.0, 1.0 - tB * tB))
            roots = (-tB * b3 - disc, -tB * b3 + disc)
            cuts = sorted({-tA, 1.0} | {r for r in roots if -tA < r < 1.0})
        xg, wg = _leggauss(order)
        nphi_full = 2 * order
        phi_full = TWO_PI * np.arange(nphi_full) / nphi_full
        ts, phis, ws = [], [], []
        for s, e in zip(cuts[:-1], cuts[1:]):
            if e - s <= 1e-14:
                continue
            c = -1.0
            if not aligned:
                tm = 0.5 * (s + e)
                c = (-tB - tm * b3) / (math.sqrt(1.0 - tm * tm) * rho)
                if c >= 1.0:
                    continue  # cap_b misses this height range entirely
            t = 0.5 * (s + e) + 0.5 * (e - s) * xg
            wt = 0.5 * (e - s) * wg
            if c <= -1.0:
                ts.append(np.repeat(t, nphi_full))
                phis.append(np.tile(phi_full, order))
                ws.append(np.repeat(wt * (TWO_PI / nphi_full), nphi_full))
            else:
                # azimuth half width of cap_b's slice at each height, then
                # Gauss-Legendre across the arc
                ca = (-tB - t * b3) / (np.sqrt(np.maximum(1.0 - t * t, 1e-300)) * rho)
                half = np.arccos(np.clip(ca, -1.0, 1.0))
                phis.append((psi + half[:, None] * xg[None, :]).ravel())
                ts.append(np.repeat(t, order))
                ws.append(((wt * half)[:, None] * wg[None, :]).ravel())
        if not ts:
            return np.zeros((0, 3)), np.zeros(0)
        t = np.concatenate(ts)
        phi = np.concatenate(phis)
        w = np.concatenate(ws)
        s = np.sqrt(np.maximum(0.0, 1.0 - t * t))
        nodes = (
            (s * np.cos(phi))[:, None] * e1[None, :]
            + (s * np.sin(phi))[:, None] * e2[None, :]
            + t[:, None] * pole[None, :]
        )
        return nodes, w


def intersect_caps(a: Cap, b: Cap) -> CapIntersection:
    """Intersection region of two caps; empty regions are representable."""
    return CapIntersection(a, b)


def equator_average(axis, f, N: int, order: int = 64) -> float:
    """Average of f over {v : <v, axis> = 0}.

    For N=2 this is the two-point average over the unit vectors orthogonal to
    the axis; for N=3 the average over the great circle, by the trapezoid rule
    (spectrally accurate on the periodic circle).
    """
    _check_dim(N)
    axis = unit_axes([axis])[0]
    if N == 2:
        p = np.array([-axis[1], axis[0]])
        pts = np.stack([p, -p])
        return float(np.mean(np.asarray(f(pts), dtype=float)))
    (e1,), (e2,) = _orthobases(axis[None, :])
    phi = TWO_PI * np.arange(order) / order
    pts = np.cos(phi)[:, None] * e1[None, :] + np.sin(phi)[:, None] * e2[None, :]
    return float(np.mean(np.asarray(f(pts), dtype=float)))


# Attempts per block of the batch band draw on S^2 (see sample_bands).
_BAND_BLOCK = 32


def band_draw_width(N: int) -> int:
    """Uniforms per row that one call of sample_bands' draw must return: one
    on the circle, a block of _BAND_BLOCK (height, azimuth) attempts on S^2."""
    _check_dim(N)
    return 1 if N == 2 else 2 * _BAND_BLOCK


def unit_axes(axes) -> np.ndarray:
    """(m, N) cap axes as unit vectors: rows within 1e-12 of unit squared
    length are kept as they are, other rows are divided by their length.
    Raises InvalidParameterError for a (near) zero row."""
    axes = np.asarray(axes, dtype=float)
    n2 = row_dot(axes, axes)
    off = ~(np.abs(n2 - 1.0) <= 1e-12)
    if off.any():
        if not (n2 >= 1e-24).all():
            raise InvalidParameterError("cannot normalize a (near) zero vector")
        axes = np.where(off[:, None], axes / np.sqrt(n2)[:, None], axes)
    return axes


def row_dot(v: np.ndarray, a: np.ndarray) -> np.ndarray:
    """<v, a> over the last axis, summed coordinate by coordinate from the
    first; a single vector gives a 0-d result."""
    if v.shape[-1] != a.shape[-1]:
        raise InvalidParameterError("vectors of different dimension")
    s = v[..., 0] * a[..., 0]
    for k in range(1, v.shape[-1]):
        s += v[..., k] * a[..., k]
    return s


def in_bands(v: np.ndarray, a: np.ndarray, b: np.ndarray,
             theta_a: float, theta_b: float) -> np.ndarray:
    """Row mask of v lying in both caps {<., a> >= -theta_a}, {<., b> >= -theta_b}."""
    return (row_dot(v, a) >= -theta_a) & (row_dot(v, b) >= -theta_b)


def sample_bands(a: np.ndarray, b: np.ndarray, theta_a: float, theta_b: float,
                 draw) -> np.ndarray:
    """One uniform draw from each band {v : <v, a_i> >= -theta_a, <v, b_i> >= -theta_b}.

    a, b are (m, N) unit axes and theta_a, theta_b in [0, 1].  draw(rows)
    returns (len(rows), band_draw_width(N)) uniforms in [0, 1) for those
    rows; each row's draws are read in order, so a row's result depends only
    on its own axes and uniforms.

    N=2 reads one uniform per row: the region is at most two arcs (see
    CapIntersection.arcs), and the uniform times their total length picks
    the arc and the angle within it at once.  N=3 draws attempts uniformly
    on cap a (Archimedes: height uniform on [-theta_a, 1] along a_i, azimuth
    uniform) and keeps the first attempt of a block that lies in both caps;
    rows without one read another block.  A game band has measure at least
    2 delta against 2 pi + delta for the cap, so an attempt is accepted with
    probability at least delta / (pi + delta / 2).
    """
    if a.shape[1] == 2:
        return _sample_arcs(a, b, theta_a, theta_b, draw(np.arange(len(a)))[:, 0])
    return _sample_caps3(a, b, theta_a, theta_b, draw)


def _arc_rows(a: np.ndarray, b: np.ndarray, theta_a: float, theta_b: float):
    """Candidate arcs of the circle bands of unit axis rows a, b (m, 2): the
    arc of cap b shifted by -2 pi, 0 and 2 pi cut to the arc of cap a, as
    (3, m) rows of start s, end e and the mask keep of the nonempty ones."""
    # math.atan2 per axis: numpy's SIMD arctan2 rounds differently on some
    # inputs, and the draws are frozen bit for bit.
    m = len(a)
    x, y = np.concatenate([a, b]).T.tolist()
    ang = np.fromiter(map(math.atan2, y, x), dtype=float, count=2 * m)
    a1, a2 = ang[:m], ang[m:]
    wa, wb = math.acos(-theta_a), math.acos(-theta_b)
    shift = np.array([[-TWO_PI], [0.0], [TWO_PI]])
    s = np.maximum(a1 - wa, a2 - wb + shift)
    e = np.minimum(a1 + wa, a2 + wb + shift)
    return s, e, e - s > 1e-14


def _sample_arcs(a: np.ndarray, b: np.ndarray, theta_a: float, theta_b: float,
                 u: np.ndarray) -> np.ndarray:
    s, e, keep = _arc_rows(a, b, theta_a, theta_b)
    length = e - s
    kept = np.where(keep, length, 0.0)
    total = kept[0] + kept[1] + kept[2]
    if (total <= 1e-14).any():
        raise DegenerateRegionError("cannot sample a ~zero measure region")
    # rest[j]: the uniform less every kept arc before arc j, subtracted in turn
    rest = np.empty_like(s)
    rest[0] = u * total
    rest[1] = rest[0] - kept[0]
    rest[2] = rest[1] - kept[1]
    hit = keep & (rest <= length)
    j = hit.argmax(axis=0)
    cols = np.arange(len(a))
    phi = s[j, cols] + rest[j, cols]
    # no hit: u landed past the far endpoint of the last arc by rounding
    last = np.where(keep[2], e[2], np.where(keep[1], e[1], e[0]))
    phi = np.where(hit[j, cols], phi, last)
    return np.stack([np.cos(phi), np.sin(phi)], axis=1)


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cross product of (m, 3) arrays (np.cross costs ~10x more)."""
    out = np.empty_like(a)
    out[:, 0] = a[:, 1] * b[:, 2] - a[:, 2] * b[:, 1]
    out[:, 1] = a[:, 2] * b[:, 0] - a[:, 0] * b[:, 2]
    out[:, 2] = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    return out


def _orthobases(axes: np.ndarray):
    """Deterministic orthonormal pairs (u, w), each (m, 3), spanning the
    plane orthogonal to each unit axis row."""
    e = np.zeros_like(axes)
    e[np.arange(len(axes)), np.argmin(np.abs(axes), axis=1)] = 1.0
    u = _cross(axes, e)
    u /= np.sqrt(row_dot(u, u))[:, None]
    return u, _cross(axes, u)


def _sample_caps3(a: np.ndarray, b: np.ndarray, theta_a: float, theta_b: float,
                  draw) -> np.ndarray:
    e1, e2 = _orthobases(a)
    out = np.empty_like(a)
    rows = np.arange(len(a))
    n = _BAND_BLOCK
    for _ in range(max(1, _REJECTION_ATTEMPT_BOUND // n)):
        u = draw(rows)
        t = u[:, :n] * (1.0 + theta_a) - theta_a
        phi = TWO_PI * u[:, n:]
        r = np.sqrt(np.maximum(0.0, 1.0 - t * t))
        ar, br = a[rows, None, :], b[rows, None, :]
        v = (t[..., None] * ar + (r * np.cos(phi))[..., None] * e1[rows, None, :]
             + (r * np.sin(phi))[..., None] * e2[rows, None, :])
        # the cap a test only drops heights rounded below -theta
        ok = in_bands(v, ar, br, theta_a, theta_b)
        got = ok.any(axis=1)
        first = ok.argmax(axis=1)
        out[rows[got]] = v[got, first[got]]
        rows = rows[~got]
        if not rows.size:
            return out
    raise SamplingFailureError(
        f"no accepted sample in {_REJECTION_ATTEMPT_BOUND} attempts; region nearly degenerate"
    )


def fibonacci_axes(M: int) -> np.ndarray:
    """M roughly uniformly spread unit vectors on S^2 (Fibonacci lattice)."""
    if M < 1:
        raise InvalidParameterError("need at least one axis")
    i = np.arange(M, dtype=float)
    z = 1.0 - (2.0 * i + 1.0) / M
    s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    golden = math.pi * (3.0 - math.sqrt(5.0))
    phi = golden * i
    return np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=1)


def _check_dim(N: int):
    if N not in (2, 3):
        raise InvalidParameterError(f"dimension must be 2 or 3, got {N}")
