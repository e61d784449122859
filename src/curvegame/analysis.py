"""Analytic oracles and numerical verification of the supporting lemmas.

The centered ball is the one domain with a closed-form arrival time,
u(x) = L (R^2 - |x|^2) / (2(N-1)), so it anchors every convergence check:
solved fields are compared against this oracle in sup norm, the boundary
collar maximum measures how the discrete field attains u = 0, and superlevel
sets are compared in Hausdorff distance against the shrinking concentric
balls of radius sqrt(R^2 - 2(N-1) t / L).

The module also verifies the two analytic facts the scheme rests on: the
thin-band averaging lemma (averages over cap intersections approach equator
averages as eps -> 0) and the equivalence of the two forms of the level-set
operator (direct second-order form versus normalized equator average).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import CriticalPointError, InvalidParameterError
from .solver import SolverConfig, ValueField, resolve_config, solve
from .sphere import (
    Cap,
    constant_C,
    delta_eps,
    equator_average,
    intersect_caps,
    sphere_measure,
    theta_eps,
    theta_from_delta,
)


# ---------------------------------------------------------------------------
# ball oracle


@dataclass(frozen=True)
class BallOracle:
    """Closed-form arrival time for the centered ball of radius R.

    u(x) = L (R^2 - |x|^2) / (2(N-1)) solves Delta u - <D^2 u ghat, ghat> = -L
    with u = 0 on |x| = R; its superlevel set {u > t} is the concentric ball
    of radius sqrt(R^2 - 2(N-1) t / L).
    """

    R: float
    L: float
    N: int

    def __post_init__(self):
        if not self.R > 0:
            raise InvalidParameterError("oracle radius must be positive")
        if not self.L > 0:
            raise InvalidParameterError("oracle source constant must be positive")
        if self.N not in (2, 3):
            raise InvalidParameterError("oracle dimension must be 2 or 3")

    def value(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(
            self.L * (self.R**2 - float(x @ x)) / (2.0 * (self.N - 1))
        )

    def values(self, points: np.ndarray) -> np.ndarray:
        """Vectorized value on an (m, N) array of points."""
        p = np.asarray(points, dtype=float)
        r2 = np.einsum("ij,ij->i", p, p)
        return self.L * (self.R**2 - r2) / (2.0 * (self.N - 1))

    def gradient(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return -self.L / (self.N - 1) * x

    def hessian(self, x) -> np.ndarray:
        return -self.L / (self.N - 1) * np.eye(self.N)

    def level_radius(self, t: float) -> float:
        """Radius of the superlevel set {u > t}; 0 once the set is gone."""
        return math.sqrt(max(0.0, self.R**2 - 2.0 * (self.N - 1) * t / self.L))


# ---------------------------------------------------------------------------
# band-average lemma


def _band_family(eps: float, family: str, N: int):
    """Paul cap A for the requested family, paired with the mirrored Carol
    cap B = {v_N <= theta_eps}."""
    theta = theta_eps(eps, N)
    e_last = np.zeros(N)
    e_last[-1] = 1.0
    if family == "mirrored":
        a = Cap(e_last, theta)
    elif family == "tilted":
        # Tilt must stay below 2*theta or the band pinches into a crescent
        # and stops concentrating on the equator; 0.1*sqrt(eps) is well
        # inside that for both dimensions (theta_eps ~ 0.5 resp 0.16 sqrt(eps)).
        beta = 0.1 * math.sqrt(eps)
        axis = np.zeros(N)
        axis[0] = math.sin(beta)
        axis[-1] = math.cos(beta)
        a = Cap(axis, theta)
    elif family == "enlarged":
        a = Cap(e_last, theta_from_delta(2.0 * delta_eps(eps), N))
    else:
        raise InvalidParameterError(
            f"unknown A-family {family!r}; use mirrored, tilted or enlarged"
        )
    b = Cap(-e_last, theta)
    return a, b


def verify_band_lemma(f, eps_list, family: str = "mirrored", N: int = 3,
                      order: int = 96) -> list:
    """Band averages of f versus the equator average, one row per eps.

    For each eps the A cap is drawn from the selected family (mirrored,
    tilted by 0.5*sqrt(eps) toward e_1, or enlarged to margin 2*delta_eps),
    B is the mirrored cap, and the row records the average of f over the
    intersection band, the equator average around e_N, their absolute
    difference, and the band drift avg(v_N) together with whether it
    satisfies the lemma hypothesis -eps <= drift <= 0.  Hypothesis
    violations are reported in the row, never raised.
    """
    e_last = np.zeros(N)
    e_last[-1] = 1.0
    target = equator_average(e_last, f, N)
    rows = []
    for eps in eps_list:
        a, b = _band_family(float(eps), family, N)
        half = 0.5 * sphere_measure(N)
        # admissible by construction; a failure here is a library bug
        assert a.measure >= half and b.measure >= half
        band = intersect_caps(a, b)
        avg = band.average(f, order=order)
        drift = band.average(lambda v: v[:, -1], order=order)
        rows.append({
            "eps": float(eps),
            "family": family,
            "band_average": avg,
            "equator_average": target,
            "error": abs(avg - target),
            "drift": drift,
            "drift_ok": -eps - 1e-12 <= drift <= 1e-12,
        })
    return rows


# ---------------------------------------------------------------------------
# operator-form equivalence


@dataclass(frozen=True)
class QuadraticFunction:
    """phi(x) = x'Ax/2 + b'x + c with exact gradient and Hessian."""

    A: np.ndarray
    b: np.ndarray
    c: float = 0.0

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1] or b.shape != (A.shape[0],):
            raise InvalidParameterError("quadratic needs A (n, n) and b (n,)")
        object.__setattr__(self, "A", 0.5 * (A + A.T))
        object.__setattr__(self, "b", b)

    def value(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(0.5 * x @ self.A @ x + self.b @ x + self.c)

    def gradient(self, x) -> np.ndarray:
        return self.A @ np.asarray(x, dtype=float) + self.b

    def hessian(self, x) -> np.ndarray:
        return self.A


def random_quadratic(rng, N: int) -> QuadraticFunction:
    """Random symmetric-Hessian quadratic with O(1) coefficients."""
    A = rng.normal(size=(N, N))
    return QuadraticFunction(A=A + A.T, b=rng.normal(size=N))


def mc_operator_residual(phi, x, N: int, order: int = 64) -> tuple:
    """The two forms of the level-set operator at x: (direct, averaged).

    form1 = Delta phi - <D^2 phi ghat, ghat> with ghat the normalized
    gradient; form2 rebuilds the same quantity from the equator average of
    v -> 0.5 <D^2 phi v, v> around ghat, divided by constant_C(N).  The two
    agree up to quadrature error whenever the gradient does not vanish.
    """
    x = np.asarray(x, dtype=float)
    g = np.asarray(phi.gradient(x), dtype=float)
    norm = float(np.linalg.norm(g))
    if norm < 1e-10:
        raise CriticalPointError(
            "operator forms are undefined where the gradient vanishes"
        )
    ghat = g / norm
    H = np.asarray(phi.hessian(x), dtype=float)
    form1 = float(np.trace(H) - ghat @ H @ ghat)
    form2 = equator_average(
        ghat, lambda v: 0.5 * np.einsum("ij,jk,ik->i", v, H, v), N, order=order
    ) / constant_C(N)
    return form1, form2


# ---------------------------------------------------------------------------
# superlevel sets


@dataclass(frozen=True)
class LevelSetMask:
    """Boolean node mask on a uniform grid, false at exterior nodes."""

    lo: tuple
    h: float
    mask: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mask, dtype=bool)
        if m.ndim != len(self.lo):
            raise InvalidParameterError("mask rank must match grid dimension")
        object.__setattr__(self, "lo", tuple(float(v) for v in self.lo))
        object.__setattr__(self, "mask", m)

    @property
    def shape(self) -> tuple:
        return self.mask.shape

    @property
    def count(self) -> int:
        return int(self.mask.sum())

    @property
    def is_empty(self) -> bool:
        return not self.mask.any()

    def points(self) -> np.ndarray:
        """Physical coordinates of the true nodes, shape (count, dim)."""
        idx = np.argwhere(self.mask)
        return np.asarray(self.lo) + self.h * idx

    def same_grid(self, other: "LevelSetMask") -> bool:
        return (self.lo == other.lo and self.h == other.h
                and self.shape == other.shape)


def superlevel_set(field: ValueField, t: float) -> LevelSetMask:
    """Mask of interior nodes with field value > t."""
    if not t >= 0:
        raise InvalidParameterError("level threshold must be nonnegative")
    mask = (field.values > t) & field.interior_mask
    return LevelSetMask(lo=tuple(field.lo), h=field.h, mask=mask)


def oracle_superlevel_set(field: ValueField, oracle: BallOracle,
                          t: float) -> LevelSetMask:
    """Oracle counterpart of superlevel_set on the same grid.

    The oracle is radial about the domain center, so node coordinates are
    shifted there before evaluation.
    """
    if not t >= 0:
        raise InvalidParameterError("level threshold must be nonnegative")
    pts = field.node_points() - np.asarray(field.domain.center, dtype=float)
    vals = oracle.values(pts).reshape(field.shape)
    mask = (vals > t) & field.interior_mask
    return LevelSetMask(lo=tuple(field.lo), h=field.h, mask=mask)


def hausdorff_distance(a: LevelSetMask, b: LevelSetMask) -> float:
    """Symmetric Hausdorff distance between two node sets in physical units.

    Empty vs empty is 0; empty vs nonempty is the +inf sentinel.  The node
    sets discretize the true level sets, so the result carries an O(h*sqrt(N))
    resolution error on top of the geometric distance.
    """
    if not a.same_grid(b):
        raise InvalidParameterError("masks live on different grids")
    if a.is_empty and b.is_empty:
        return 0.0
    if a.is_empty or b.is_empty:
        return math.inf
    # imported here: scipy.spatial takes about 0.2 s to load, and only the
    # levelset and converge commands reach this function
    from scipy.spatial import cKDTree

    pa, pb = a.points(), b.points()
    d_ab = cKDTree(pb).query(pa)[0].max()
    d_ba = cKDTree(pa).query(pb)[0].max()
    return float(max(d_ab, d_ba))


# ---------------------------------------------------------------------------
# convergence study


def _study_row(domain, eps: float, template: SolverConfig | None, t_values) -> dict:
    """One convergence_study row; a payoff eps^2 K gives the oracle source K / C(N)."""
    base = template if template is not None else SolverConfig(eps=eps)
    # tol_iter and grid_h reset to their per-eps defaults; a template's
    # absolute values would not scale across the sweep.
    cfg = resolve_config(
        replace(base, eps=float(eps), tol_iter=None, grid_h=None), domain.dim
    )
    field = solve(domain, cfg)
    oracle = BallOracle(R=domain.radius, L=cfg.K / constant_C(domain.dim), N=domain.dim)
    pts = field.node_points()
    centered = pts - np.asarray(domain.center)
    exact = oracle.values(centered).reshape(field.shape)
    inner = field.interior_mask
    sup_error = float(np.abs(field.values - exact)[inner].max())
    radii = np.sqrt(np.einsum("ij,ij->i", centered, centered))
    collar = np.abs(radii - domain.radius).reshape(field.shape) <= 2.0 * eps
    boundary_max = float(field.values[collar].max()) if collar.any() else 0.0
    row = {
        "eps": float(eps),
        "grid_h": cfg.grid_h,
        "iterations": field.iterations,
        "sup_error": sup_error,
        "boundary_max": boundary_max,
        "hausdorff": {},
    }
    for t in t_values:
        d = hausdorff_distance(
            superlevel_set(field, t), oracle_superlevel_set(field, oracle, t)
        )
        row["hausdorff"][float(t)] = d
    return row


def convergence_study(domain, eps_list, template: SolverConfig | None = None,
                      *, t_values=()) -> list:
    """Solve per eps on a centered-oracle ball domain and tabulate errors.

    Each row reports the interior sup-norm error against the ball oracle
    with source L = K / C(N), the field maximum over the 2*eps boundary
    collar, and the Hausdorff distance between computed and oracle
    superlevel sets for every requested t.  tol_iter and grid_h follow the
    per-eps defaults; K, axis_count, quad_order and max_iter are taken from
    the template when one is given.  The rows are solved one after another
    in the calling thread.  Solver non-convergence propagates.
    """
    if not hasattr(domain, "radius"):
        raise InvalidParameterError("convergence study needs a ball domain")
    eps_list = [float(e) for e in eps_list]
    if not eps_list:
        raise InvalidParameterError("need at least one eps")
    return [_study_row(domain, e, template, t_values) for e in eps_list]
