import gc
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
import zlib
from pathlib import Path

import numpy as np
import pytest

from curvegame import analysis, solver, sphere
from curvegame.errors import (
    InvalidParameterError,
    NonConvergenceError,
    OutOfBoundsError,
)

# Frozen converged center value, unit disk, eps = 0.2, defaults (h = eps/2,
# M = 64, K = 0.5).  Recorded from the first verified run; the iteration is
# deterministic so later runs must reproduce it to rounding.
CENTER_EPS02 = 0.4804309588710462
ITERS_EPS02 = 58

# Sweep count of the 3D solve on the unit ball at eps = 0.4, 64 axes,
# quadrature order 16 (the benchmark's ball3-solve config).
ITERS_BALL3 = 14

DISK = solver.unit_ball(2)


def cfg2(eps, **kw):
    return solver.resolve_config(solver.SolverConfig(eps=eps, **kw), 2)


def circle_axes(M):
    """The circle Bellman's M axes: axis k at angle 2 pi k / M."""
    ang = 2.0 * math.pi * np.arange(M) / M
    return np.stack([np.cos(ang), np.sin(ang)], axis=1)


# ---------------------------------------------------------------------------
# domains


def test_ball_contains_and_bounds():
    b = solver.Ball(center=(0.5, 0.0), radius=1.0)
    assert b.contains(np.array([1.2, 0.0]))
    assert not b.contains(np.array([1.6, 0.0]))
    lo, hi = b.bounds()
    assert np.allclose(lo, [-0.5, -1.0]) and np.allclose(hi, [1.5, 1.0])
    assert b.support_radius(np.zeros(2)) == pytest.approx(1.5)


def test_ball_batch_contains_matches_scalar():
    b = solver.unit_ball(3)
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 0.5, 0.5]])
    batch = b.contains(pts)
    assert list(batch) == [bool(b.contains(p)) for p in pts]


def test_ellipse_contains():
    e = solver.Ellipse(center=(0.0, 0.0), semi_axes=(2.0, 1.0))
    assert e.contains(np.array([1.9, 0.0]))
    assert not e.contains(np.array([0.0, 1.1]))


def test_contains_rejects_other_dimensions():
    # a point of another dimension is an error, not a shorter or longer point
    for domain, bad in ((solver.unit_ball(2), [0.1, 0.2, 5.0]),
                        (solver.Ellipse((0.0, 0.0), (1.0, 2.0)), [0.5]),
                        (solver.unit_ball(3), np.zeros((4, 2)))):
        with pytest.raises(InvalidParameterError):
            domain.contains(bad)
    assert solver.unit_ball(2).contains([0.1, 0.2]) is True
    assert solver.Ellipse((0.0, 0.0), (1.0, 2.0)).contains([0.0, 2.5]) is False


def _near_sphere(rng, center, radius, n, axis=None):
    """n points within about 2e-15 (relative) of the sphere |x - center| =
    radius: in random directions, or, given an axis, in the directions
    +-e_axis tilted by at most 3e-8 on the other axes."""
    dim = len(center)
    if axis is None:
        u = rng.standard_normal((n, dim))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
    else:
        u = rng.uniform(-3e-8, 3e-8, (n, dim))
        u[:, axis] = rng.choice([-1.0, 1.0], n)
    scale = radius * (1.0 + rng.uniform(-2e-15, 2e-15, (n, 1)))
    return np.asarray(center) + scale * u


@pytest.mark.parametrize("dim", [2, 3])
def test_a_ball_tests_points_as_its_equal_axes_ellipse(dim):
    """One formula for both domains: a ball and the ellipse with equal
    semi-axes agree on every point, even within an ulp of the sphere, and
    the discrete domains nest, B_b <= E(a, b) <= B_a, point for point,
    where the ellipse touches either ball."""
    rng = np.random.default_rng(26 + dim)
    c = (0.1, -0.2, 0.3)[:dim]
    for r in (0.7, 0.3, 0.55):
        p = _near_sphere(rng, c, r, 20_000)
        ball, ellipse = solver.Ball(c, r), solver.Ellipse(c, (r,) * dim)
        assert np.array_equal(ball.contains(p), ellipse.contains(p))
    for b, a in ((0.6, 0.61), (0.3, 0.55)):
        inner, outer = solver.Ball(c, b), solver.Ball(c, a)
        e = solver.Ellipse(c, (a,) + (b,) * (dim - 1))
        # the ellipse touches the inner ball at c +- b e_1, the outer at c +- a e_0
        p = np.concatenate([_near_sphere(rng, c, b, 20_000, axis=1),
                            _near_sphere(rng, c, a, 20_000, axis=0)])
        assert not np.any(inner.contains(p) & ~e.contains(p))
        assert not np.any(e.contains(p) & ~outer.contains(p))


def test_domain_validation():
    with pytest.raises(InvalidParameterError):
        solver.Ball(center=(0.0, 0.0), radius=0.0)
    with pytest.raises(InvalidParameterError):
        solver.Ellipse(center=(0.0, 0.0), semi_axes=(1.0, -1.0))
    with pytest.raises(InvalidParameterError):
        solver.domain_from_dict({"shape": "square"})
    # a finite centre and finite semi-axes: an infinite ball has no grid,
    # and an infinite semi-axis made a grid of one row far off the centre
    for make in (lambda: solver.Ball((math.nan, 0.0), 1.0),
                 lambda: solver.Ball((0.0, math.inf, 0.0), 1.0),
                 lambda: solver.Ball((0.0, 0.0), math.inf),
                 lambda: solver.Ellipse((0.0, -math.inf), (1.0, 0.5)),
                 lambda: solver.Ellipse((0.0, 0.0), (1.0, math.inf))):
        with pytest.raises(InvalidParameterError, match="finite"):
            make()


def test_domain_dict_round_trip():
    b = solver.Ball(center=(0.1, -0.2), radius=0.7)
    assert solver.domain_from_dict(b.as_dict()) == b


def test_ellipse_dict_round_trip_and_support_radius():
    e = solver.Ellipse(center=(0.2, -0.1), semi_axes=(1.0, 0.5))
    assert e.as_dict() == {"shape": "ellipse", "center": [0.2, -0.1],
                           "semi_axes": [1.0, 0.5]}
    assert solver.domain_from_dict(e.as_dict()) == e
    # |z - center| = 3 plus the largest semi-axis
    assert e.support_radius(np.array([0.2, 2.9])) == pytest.approx(4.0)


# ---------------------------------------------------------------------------
# configuration


def test_resolve_config_defaults():
    c = cfg2(0.2)
    assert c.K == 0.5
    assert c.axis_count == 64
    assert c.grid_h == pytest.approx(0.1)
    assert c.tol_iter == pytest.approx(0.2**2 * 1e-3)
    c3 = solver.resolve_config(solver.SolverConfig(eps=0.2), 3)
    assert c3.K == 0.25
    assert c3.axis_count == 128
    assert c3.quad_order == 32
    # the 2D grid law h = (eps/2) min(1, sqrt(eps/0.2)): exactly eps/2 from
    # 0.2 up, h^2/eps^2 proportional to eps below
    assert cfg2(0.1).grid_h == pytest.approx(0.05 * math.sqrt(0.5), rel=1e-15)
    assert cfg2(0.05).grid_h == pytest.approx(0.0125, rel=1e-15)
    for eps in (0.2, 0.25, 0.3, 0.5):
        assert cfg2(eps).grid_h == eps / 2
    # 3D keeps eps/2
    assert solver.resolve_config(solver.SolverConfig(eps=0.1), 3).grid_h == 0.05


def test_resolve_config_validation():
    with pytest.raises(InvalidParameterError):
        cfg2(0.2, grid_h=0.3)  # h > eps
    with pytest.raises(InvalidParameterError):
        cfg2(-0.1)
    with pytest.raises(InvalidParameterError):
        cfg2(0.2, axis_count=4)
    with pytest.raises(InvalidParameterError):
        cfg2(0.2, tol_iter=0.0)
    with pytest.raises(InvalidParameterError):
        cfg2(0.2, tol_iter=math.inf)
    with pytest.raises(InvalidParameterError):
        cfg2(0.2, K=math.inf)
    with pytest.raises(InvalidParameterError):
        cfg2(0.2, max_iter=0)


def test_eps_above_barrier_threshold_refused():
    with pytest.raises(InvalidParameterError):
        solver.value_iteration(DISK, solver.SolverConfig(eps=0.6))


# ---------------------------------------------------------------------------
# grid and interpolation


def test_grid_collar_covers_steps():
    c = cfg2(0.2)
    f = solver.empty_field(DISK, c)
    lo, hi = f.box
    # every x + eps*v with x in the closed disk needs a full stencil
    assert np.all(lo <= -1.0 - c.eps - c.grid_h + 1e-12)
    assert np.all(hi >= 1.0 + c.eps + c.grid_h - 1e-12)
    assert not f.interior_mask[0, 0]
    assert f.interior_mask[f.shape[0] // 2, f.shape[1] // 2]


def test_interpolate_reproduces_nodes_and_is_multilinear():
    c = cfg2(0.2)
    f = solver.field_from_function(
        DISK, c, lambda p: 1.0 + p[:, 0] + 2.0 * p[:, 1]
    )
    # exact at a node strictly inside the domain
    i, j = f.shape[0] // 2 + 1, f.shape[1] // 2
    node = f.lo + f.h * np.array([i, j])
    assert solver.interpolate(f, node) == f.values[i, j]
    # affine between interior nodes: multilinear reproduces affine exactly
    p = node + np.array([0.3, 0.7]) * f.h
    if DISK.contains(p):
        assert solver.interpolate(f, p) == pytest.approx(
            1.0 + p[0] + 2.0 * p[1], rel=1e-12
        )


def test_interpolate_zero_outside_domain():
    c = cfg2(0.2)
    f = solver.field_from_function(DISK, c, lambda p: np.ones(len(p)))
    assert solver.interpolate(f, np.array([1.05, 0.0])) == 0.0
    vals = solver.interpolate(f, np.array([[0.0, 0.0], [1.2, 0.0]]))
    assert vals[0] == pytest.approx(1.0) and vals[1] == 0.0


def test_interpolate_out_of_box_raises():
    c = cfg2(0.2)
    f = solver.empty_field(DISK, c)
    with pytest.raises(OutOfBoundsError):
        solver.interpolate(f, np.array([5.0, 0.0]))


# ---------------------------------------------------------------------------
# the game operator


def test_first_sweep_is_exact_payoff():
    """From w = 0 every interior node gets exactly eps^2 K: the averaged
    field is identically zero, so the float sum has no rounding at all."""
    c = cfg2(0.2)
    seen = []
    solver.value_iteration(DISK, c, monitor=lambda n, inc: seen.append(inc))
    assert seen[0] == c.eps * c.eps * c.K


def test_sweep_matches_literal_operator():
    """Cross-check the sweep kernel, at every interior node, deep and rim,
    against a direct evaluation of max_i min_j of the band average of the
    interpolated field (zero outside the domain)."""
    c = cfg2(0.3, axis_count=8)
    f = solver.field_from_function(
        DISK, c, lambda p: 0.5 * (1.0 - np.einsum("ij,ij->i", p, p))
    )
    axes = circle_axes(8)
    theta = sphere.theta_eps(c.eps, 2)

    def literal(x):
        best = -math.inf
        for a in axes:
            worst = math.inf
            for b in axes:
                region = sphere.intersect_caps(sphere.Cap(a, theta), sphere.Cap(b, theta))
                avg = region.average(
                    lambda vs: solver.interpolate(f, x + c.eps * vs),
                    order=96,
                )
                worst = min(worst, avg)
            best = max(best, worst)
        return best + c.eps * c.eps * c.K

    kernel = solver._Kernel(DISK, c)
    assert kernel.deep.size > 0 and kernel.rim.size > 0
    got = kernel.sweep(f.values.ravel()[kernel.int_flat])[0]
    pts = f.node_points()[kernel.int_flat]
    want = np.array([literal(x) for x in pts])
    assert got == pytest.approx(want, abs=5e-4)


@pytest.mark.parametrize("M, Q", [(8, 1024), (64, 1024), (9, 100)])
@pytest.mark.parametrize("eps", [0.3, 0.1])
def test_circle_reduce_matches_cell_coverage(M, Q, eps):
    """The step-run reduce and every pair's row of pair_rows against a
    plain per-cell coverage sum over the arcs of sphere.intersect_caps, for
    every cap pair: two-arc bands, arcs shorter than an axis spacing, and Q
    not a multiple of M."""
    theta = sphere.theta_eps(eps, 2)
    bell = solver._CircleBellman(theta, M, Q)
    V = np.random.default_rng(M + Q).random((Q, 4))
    dphi = 2.0 * math.pi / Q
    left = dphi * (np.arange(Q) - 0.5)  # cell q spans [left[q], left[q] + dphi)
    axes = circle_axes(M)
    avg = np.empty((M, M, V.shape[1]))
    for i in range(M):
        for j in range(M):
            region = sphere.intersect_caps(
                sphere.Cap(axes[i], theta), sphere.Cap(axes[j], theta)
            )
            cover = np.zeros(Q)
            for s, e in region.arcs():
                for turn in (-2.0 * math.pi, 0.0, 2.0 * math.pi):
                    lo = np.maximum(left + turn, s)
                    hi = np.minimum(left + turn + dphi, e)
                    cover += np.clip(hi - lo, 0.0, None)
            avg[i, j] = cover @ V / cover.sum()
    expected = avg.min(axis=1).max(axis=0)
    got = bell.maxmin(bell.cover @ V)[0]
    assert np.all(np.abs(got - expected) <= 1e-12 * np.abs(expected))
    # pair id k M + base is the pair (base, base + k), k <= M/2
    k, base = np.divmod(np.arange((M // 2 + 1) * M), M)
    rows = bell.pair_rows(bell.cover @ V, k * M + base)
    pair = avg[base, (base + k) % M]
    assert np.all(np.abs(rows - pair) <= 1e-12 * np.abs(pair))


@pytest.mark.parametrize("M", [8, 64])
@pytest.mark.parametrize("eps", [0.4, 0.2])
def test_sphere_reduce_matches_pair_sum(M, eps):
    """The pair-row cover and its maxmin against a plain double loop over
    every cap pair of the membership-weighted quadrature sum."""
    theta = sphere.theta_eps(eps, 3)
    bell = solver._SphereBellman(theta, sphere.fibonacci_axes(M), 16)
    V = np.random.default_rng(M).random((bell.nodes.shape[0], 4))
    avg = np.empty((M, M, V.shape[1]))
    for i in range(M):
        for j in range(M):
            w = bell.member[i] * bell.member[j] * bell.weights
            avg[i, j] = w @ V / w.sum()
    expected = avg.min(axis=1).max(axis=0)
    got = bell.maxmin(V)[0]
    assert np.all(np.abs(got - expected) <= 1e-12 * np.abs(expected))


# sha256 of the circle Bellman's cover and select (data, int64 indices and
# indptr, in that order) and its int64 order table, as recorded when they
# were built by a Python loop over every arc and every Paul axis
_FROZEN_CIRCLE = [
    (64, 1024, 0.2,
     ("cf7e7e668103a188cd2a62596aa60ea576c5acedd42ce3926137bd7d28071563",
      "51f907aa6b826edb030f5c9616da1b62e8cb63ae19dc857df8d46421f340c0ed",
      "1a9f4207606aedd037b923a1b78093c47fd7e3135ec89db4f80c2c2d18187f40")),
    (8, 1024, 0.3,
     ("06f56e732f26f69b1e5b11cf9c4da468072870cb7991ff9c04f55fc4fb086667",
      "b8c924834b6c9f654ebfe653832caa0ef34e610c476c51e16e2123b341b9a9c9",
      "c5b246e4951ad7ec1d4f9af53c7a4f67363ab097bdb7245231c03a9b7faad5a0")),
    (9, 100, 0.1,
     ("2cceed36129a530c16b7cd788ff3a77932d7a1ce66682dbf094f45bfc01972da",
      "19d6cb435d3d24ea0bade2ce294d7e55a1c969d31ea35890d94e3c9e6396dafb",
      "dbc276a3d7ea1b00bd99e8eeff65e5a3358e9cda83e3eef6216f52f153cc0a84")),
]


@pytest.mark.parametrize("M, Q, eps, digests", _FROZEN_CIRCLE)
def test_circle_bellman_tables_are_frozen(M, Q, eps, digests):
    bell = solver._make_bellman(
        2, solver.resolve_config(solver.SolverConfig(eps=eps, axis_count=M, quad_order=Q), 2))
    got = []
    for mat in (bell.cover, bell.select):
        digest = hashlib.sha256()
        for a in (mat.data, mat.indices.astype(np.int64), mat.indptr.astype(np.int64)):
            digest.update(a.tobytes())
        got.append(digest.hexdigest())
    got.append(hashlib.sha256(bell.order.astype(np.int64).tobytes()).hexdigest())
    assert tuple(got) == digests


_NEAR_BOUNDARY_CASES = [
    (DISK, cfg2(0.3)), (DISK, cfg2(0.2)), (DISK, cfg2(0.1)), (DISK, cfg2(0.05)),
    (solver.Ellipse((0.0, 0.0), (1.0, 0.5)), cfg2(0.3)),
    (solver.Ellipse((0.0, 0.0), (1.0, 0.5)), cfg2(0.1)),
    (solver.Ellipse((0.1, 0.0, -0.2), (1.0, 0.7, 0.5)),
     solver.resolve_config(solver.SolverConfig(eps=0.3, axis_count=32, quad_order=16), 3)),
    # no node's eps-ball lies inside: every node is sampled
    (solver.Ball((0.0, 0.0), 0.3), cfg2(0.4)),
    (solver.unit_ball(3), solver.resolve_config(
        solver.SolverConfig(eps=0.4, axis_count=64, quad_order=16), 3)),
]


@pytest.mark.parametrize("domain, c", _NEAR_BOUNDARY_CASES)
def test_kernel_samples_only_near_the_boundary(domain, c):
    """The kernel takes a node whose eps-ball surely lies inside as deep
    without sampling it; deep, rim and outside equal those of testing every
    node's Q samples against the domain."""
    f = solver.empty_field(domain, c)
    kernel = solver._Kernel(domain, c)
    pts = f.node_points()[kernel.int_flat]
    step = c.eps * kernel.bellman.nodes
    deep, outside = [], []
    for s in range(0, pts.shape[0], 1024):
        p = pts[s : s + 1024]
        inside = domain.contains((p[None, :, :] + step[:, None, :]).reshape(-1, domain.dim))
        inside = inside.reshape(step.shape[0], p.shape[0])
        deep.append(inside.all(axis=0))
        outside.append(~inside[:, ~deep[-1]])
    deep = np.concatenate(deep)
    assert np.array_equal(kernel.deep, np.flatnonzero(deep))
    assert np.array_equal(kernel.rim, np.flatnonzero(~deep))
    assert np.array_equal(kernel.outside, np.concatenate(outside, axis=1))
    sure = domain.holds_balls(pts, c.eps * (1.0 + 1e-9))
    assert np.all(deep[sure])
    # the distance test decides some nodes wherever an eps-ball fits inside
    lo, hi = domain.bounds()
    assert sure.any() == (np.min(hi - lo) > 2.0 * c.eps)


def test_values_stored_outside_the_domain_are_not_read():
    """T reads u = 0 at every exterior node, whatever a stored field holds
    there: a positive value at the exterior node nearest the boundary, a
    stencil corner of rim samples inside the domain, changes neither the
    DPP residual nor the supersolution check."""
    c = cfg2(0.3)
    f = solver.solve(DISK, c)
    r = np.linalg.norm(f.node_points(), axis=1)
    exterior = np.flatnonzero(~f.interior_mask.ravel())
    node = exterior[np.argmin(r[exterior])]
    assert r[node] < 1.0 + f.h
    vals = f.values.copy()
    vals.ravel()[node] = 0.3
    g = f.copy_with(vals)
    assert solver.dpp_residual(g, c) == solver.dpp_residual(f, c)
    assert solver.check_dpp_supersolution(g, c) == solver.check_dpp_supersolution(f, c)


def _off_grid_fields():
    """eps = 0.2 disk fields off cfg2(0.2)'s grid (h = 0.1): solved with
    grid_h = 0.05, labelled with another domain (the disk of radius 0.9,
    whose grid is smaller), and with lo shifted by h/2."""
    f = solver.solve(DISK, cfg2(0.2))
    return {
        "grid_h": solver.solve(DISK, cfg2(0.2, grid_h=0.05)),
        "domain": solver.ValueField(solver.Ball((0.0, 0.0), 0.9), f.lo, f.h, f.values),
        "lo": solver.ValueField(DISK, f.lo + 0.5 * f.h, f.h, f.values),
    }


@pytest.mark.parametrize("case", ["grid_h", "domain", "lo"])
def test_a_field_off_the_config_grid_is_refused(case):
    """T is a function of (domain, cfg): the checks and a warm start refuse a
    field on any other grid rather than apply the operator of its own."""
    f = _off_grid_fields()[case]
    c = solver.SolverConfig(eps=0.2)
    with pytest.raises(InvalidParameterError):
        solver.dpp_residual(f, c)
    with pytest.raises(InvalidParameterError):
        solver.check_dpp_supersolution(f, c)
    with pytest.raises(InvalidParameterError):
        solver.value_iteration(DISK, c, start=f)


def test_a_field_on_another_domain_with_the_same_grid_is_no_start():
    """A warm start must carry the domain: the ellipse with semi-axes (1, 1)
    has the disk's grid node for node, but it is another domain."""
    c = cfg2(0.3)
    f = solver.value_iteration(DISK, c)
    e = solver.ValueField(solver.Ellipse((0.0, 0.0), (1.0, 1.0)), f.lo, f.h, f.values)
    assert solver.empty_field(e.domain, c).values.shape == f.shape
    assert np.array_equal(solver.empty_field(e.domain, c).lo, f.lo)
    with pytest.raises(InvalidParameterError):
        solver.value_iteration(DISK, c, start=e)


@pytest.mark.parametrize("copy", [True, False])
def test_a_saved_field_is_checked_on_the_same_operator(tmp_path, copy):
    """A field read back by load_field, with the config from its header,
    passes the grid check after the %.17g round trip of lo, h and the
    domain, from the binary copy or from the CSV: its residual and
    supersolution check equal the solved field's bit for bit."""
    c = cfg2(0.2)
    f = solver.solve(DISK, c)
    solver.save_field(f, tmp_path / "f.json", cfg=c)
    if not copy:
        (tmp_path / "f.values.bin").unlink()
    g, header = solver.load_field(tmp_path / "f.json")
    cg = solver.SolverConfig(**header["config"])
    assert solver.dpp_residual(g, cg) == solver.dpp_residual(f, c)
    assert solver.check_dpp_supersolution(g, cg) == solver.check_dpp_supersolution(f, c)
    one = solver.SolverConfig(**{**header["config"], "max_iter": 1})
    assert solver.value_iteration(g.domain, one, start=g).values.tobytes() == \
        solver.value_iteration(DISK, one, start=f).values.tobytes()


def test_constant_field_is_near_fixed_point_shift():
    # band averages of a constant equal the constant, so at every deep node
    # one sweep adds exactly eps^2 K on top of it
    c = cfg2(0.25)
    f = solver.field_from_function(DISK, c, lambda p: np.full(len(p), 0.7))
    kernel = solver._Kernel(DISK, c)
    rhs = kernel.sweep(f.values.ravel()[kernel.int_flat])[0][kernel.deep]
    assert rhs.size > 0
    assert rhs == pytest.approx(0.7 + c.eps**2 * c.K, abs=1e-12)


# ---------------------------------------------------------------------------
# value iteration


def test_value_iteration_monotone_and_converges():
    c = cfg2(0.2)
    increments = []
    f = solver.value_iteration(DISK, c, monitor=lambda n, inc: increments.append(inc))
    assert all(inc >= 0.0 for inc in increments)
    assert f.final_increment < c.tol_iter
    assert f.iterations == len(increments)
    assert solver.dpp_residual(f, c) < c.tol_iter


def test_value_iteration_frozen_center():
    f = solver.value_iteration(DISK, cfg2(0.2))
    assert f.iterations == ITERS_EPS02
    center = solver.interpolate(f, np.zeros(2))
    assert center == pytest.approx(CENTER_EPS02, abs=1e-12)


def test_value_iteration_deterministic():
    a = solver.value_iteration(DISK, cfg2(0.25))
    b = solver.value_iteration(DISK, cfg2(0.25))
    assert np.array_equal(a.values, b.values)


def test_value_iteration_symmetry():
    """The disk, the grid and the axis set are all symmetric under the
    reflections x -> -x and (x, y) -> (y, x), so the field must be too."""
    f = solver.value_iteration(DISK, cfg2(0.25))
    v = f.values
    assert np.allclose(v, v[::-1, ::-1], atol=1e-9)
    assert np.allclose(v, v.T, atol=1e-9)


def test_value_iteration_nonconvergence_carries_field():
    with pytest.raises(NonConvergenceError) as err:
        solver.value_iteration(DISK, solver.SolverConfig(eps=0.2, max_iter=3))
    assert err.value.iterations == 3
    assert err.value.field.values.max() > 0.0
    assert err.value.increment > 0.0


def test_exterior_nodes_stay_zero():
    f = solver.value_iteration(DISK, cfg2(0.3))
    assert np.all(f.values[~f.interior_mask] == 0.0)
    assert np.all(f.values[f.interior_mask] > 0.0)


def test_ball3_solve_end_to_end():
    """3D solve on the unit ball at coarse eps against the oracle
    u = (1 - |x|^2)/4: frozen sweep count, DPP residual, zero exterior,
    centre and sup error, and byte-identical reruns."""
    c = solver.resolve_config(
        solver.SolverConfig(eps=0.4, axis_count=64, quad_order=16), 3)
    ball = solver.unit_ball(3)
    f = solver.value_iteration(ball, c)
    assert f.iterations == ITERS_BALL3
    assert solver.dpp_residual(f, c) < c.tol_iter
    assert np.all(f.values[~f.interior_mask] == 0.0)
    u = analysis.BallOracle(R=1.0, L=1.0, N=3)
    assert solver.interpolate(f, np.zeros(3)) == pytest.approx(0.25, rel=0.1)
    inside = f.interior_mask.ravel()
    err = np.abs(f.values.ravel()[inside] - u.values(f.node_points()[inside]))
    assert err.max() <= 0.05
    again = solver.value_iteration(ball, c)
    assert again.values.tobytes() == f.values.tobytes()
    # the sphere stores its memberships, M x Q, and denominators, M x M,
    # and no map of pair rows; its merged map is samp
    tel = solver.solve(ball, c).telemetry
    assert tel["table_bytes"] == (64 * 16**2 + 64 * 64) * 8 == 163_840
    assert tel["nnz_cover"] is None
    assert tel["nnz_merged"] == solver._Kernel(ball, c).samp.count_nonzero() > 0
    # the pruned max-min forms fewer than two of the 64 Paul rows per node
    assert all(tel["interior"] <= e["rows"] < 2 * tel["interior"] for e in tel["sweep_log"])


def test_pruning_hint_follows_the_gradient_off_the_ball():
    """On the off-centre ellipse at eps = 0.3, M = 64 and order 16, the
    hint from each node's samples (along eps grad u) leaves fewer than 3 of
    the 64 Paul rows per node in every sweep of solve; the axis nearest the
    direction to the centre left 5.2 to 6.9."""
    e = solver.Ellipse((0.1, 0.0, -0.2), (1.0, 0.7, 0.5))
    c = solver.resolve_config(solver.SolverConfig(eps=0.3, axis_count=64, quad_order=16), 3)
    tel = solver.solve(e, c).telemetry
    assert tel["interior"] == 443
    assert all(tel["interior"] <= s["rows"] < 3 * tel["interior"] for s in tel["sweep_log"])


# ---------------------------------------------------------------------------
# policy iteration (solve)

BALL3 = solver.resolve_config(
    solver.SolverConfig(eps=0.4, axis_count=64, quad_order=16), 3)


@pytest.mark.parametrize("domain, c", [(DISK, cfg2(0.2)), (solver.unit_ball(3), BALL3)])
def test_kernels_are_freed_by_reference_counting(domain, c):
    """A dropped kernel, swept and assembled once, is freed at once with the
    garbage collector off, and so are its Bellman, its largest table (the
    circle's cover, the sphere's memberships), samp and the merged map:
    none of them is in a reference cycle, so no table outlives its kernel
    until a collector pass."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        kernel = solver._Kernel(domain, c)
        kernel.policy_matrix(kernel.sweep(np.zeros(kernel.n_interior))[1])
        bell = kernel.bellman
        table = bell.member if domain.dim == 3 else bell.cover
        refs = [weakref.ref(a) for a in (kernel, bell, table, kernel.samp, kernel.merged)]
        del kernel, bell, table
        assert [ref() for ref in refs] == [None] * 5
    finally:
        if enabled:
            gc.enable()


def _traced(fn) -> tuple:
    """(bytes held after fn(), peak bytes above that) of fn's numpy and
    Python allocations, by tracemalloc; fn's result is kept until both are
    read."""
    tracemalloc.start()
    try:
        out = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del out
    return held, peak - held


def test_a_sweep_holds_one_block_of_pair_rows():
    """A 3D sweep at the ball3-solve config allocates, above what it
    returns, more than one node block's samples, Q float64 per node,
    and less than one block of all pair rows, M(M + 1)/2 float64 per node,
    which it no longer forms: the pruned max-min forms a block's full rows
    m at a time."""
    kernel = solver._Kernel(solver.unit_ball(3), BALL3)
    u = np.random.default_rng(5).random(kernel.n_interior)
    B, M = kernel.BLOCK, BALL3.axis_count
    _, transient = _traced(lambda: kernel.sweep(u))
    Q = kernel.bellman.nodes.shape[0]
    assert B * Q * 8 < transient < B * M * (M + 1) // 2 * 8


def test_kernel_build_transient_is_bounded():
    """Building the 3D kernel at M = 16 and quadrature order 64 (Q = 4 096)
    allocates less than 12 MB beyond what the kernel holds: the samples of
    the nodes near the boundary are tested against the domain a fixed
    number of points at a time, so their coordinates and temporaries do not
    grow with Q."""
    c = solver.resolve_config(solver.SolverConfig(eps=0.4, axis_count=16, quad_order=64), 3)
    _, transient = _traced(lambda: solver._Kernel(solver.unit_ball(3), c))
    assert transient < 12e6


def _kernel_at_fixed_point(domain, c):
    f = solver.value_iteration(domain, c)
    return solver._Kernel(domain, c), f


@pytest.mark.parametrize("domain, c", [(DISK, cfg2(0.3)),
                                       (solver.unit_ball(3), BALL3)])
def test_policy_sweep_and_matrix_reproduce_the_sweep(domain, c):
    """The pair ids that the sweep returns, its policy, reproduce its
    values: the chosen pair's row from pair_rows reproduces each value from
    what maxmin reads (the circle's cover rows, the sphere's samples, one
    column per node), and the policy matrix reproduces the sweep as
    P u + eps^2 K."""
    kernel, f = _kernel_at_fixed_point(domain, c)
    u = f.values.ravel()[kernel.int_flat]
    values, ids = kernel.sweep(u)
    bell = kernel.bellman
    for pos, X in kernel._rows(u):
        picked = bell.pair_rows(X, ids[pos])
        got = picked[np.arange(pos.size), np.arange(pos.size)]
        assert np.allclose(got + c.eps**2 * c.K, values[pos], rtol=1e-13, atol=0)
    P = kernel.policy_matrix(ids)
    assert P.data.min() > 0.0 and P.sum(axis=1).max() <= 1.0 + 1e-12
    assert np.allclose(P @ u + c.eps**2 * c.K, values, rtol=1e-13, atol=0)


# sha256 of (values, pair ids) from maxmin(R), for R = cover @ V
# with V random, 0/1-valued and all zero, and for R itself 0/1-valued (ties
# everywhere), as recorded when a policy was still a (paul, carol) axis
# pair, converted to ids by the rule pair_rows applied then
_FROZEN_POLICY = [
    (2, 64, 1024, 0.2,
     ("53d0341848c13661bc8b1b8e83be576b1e8086445f07938481c05e1d3c608ce2",
      "94b0440f0b57748af4f588856d01557ab6184771e6e97faeef9d3370c6c52236",
      "03fabd48fa35963be18d84fe74ac6782430f6ea83077534fae082aa86a0294a6",
      "766909bbc53e41b532a492bf46541d335657037106e67605bc399b4a6b6da9b5")),
    (2, 8, 1024, 0.3,
     ("d1ec346f68cf618032e28b5ecddbe256f6b10270dea67bdc9f400d7402d646fe",
      "7daed768327bee157f7a1f91eca8d5e77d0502648521e9aecaf8e6a04fad99ff",
      "792d40fab2e2ef1767a3c2e45c2cbfc5159744cc4df68baaa7340aa31c3c398c",
      "a3a2f1750a8f546b7705683f9ae31ff25839987be6726398cfe58b5512c6fbbf")),
    (2, 9, 100, 0.1,
     ("3d2cd3aad65ae1cbb33db7609783b64368a9d4b4f932a68464bd08b61ecb1c5d",
      "3d08ef3a0fc29bb1c6d80b48e0169a7253e83285acf13859aae07302759fdbca",
      "c8d14fee1ef9c00d59f4ad18429c5f5fddc3c75290237ac1a6c6ea01c98dc19f",
      "b28313af51020e956805d50f3e8202352ff5cb3f7ba1b45fe64033939a1f4fd7")),
    (3, 64, 16, 0.4,
     # the sphere's, recorded when its max-min came to read samples and to
     # form each full row over all Q + 1 of them (the ids are those of the
     # dense pair table, and the values within 1e-15 of them, but for V
     # constant, whose pair values tie up to rounding)
     ("38a8f006fcbba4e2e1b5e4b96120b3cec03417d8fd879158b6c12806596bf338",
      "da8992faf6fce73fadfac6f58b82aec266980dade4e0a0093b071cf4cffec6ff",
      "17b0761f87b081d5cf10757ccc89f12be355c70e2e29df288b65b30710dcbcd1",
      "cb503f12bc99bd3a7b9f8f65efd6b8346dd5f2e1cbc7c7c3c9962ee3202c2eb8")),
]


@pytest.mark.parametrize("dim, M, Q, eps, digests", _FROZEN_POLICY)
def test_maxmin_policy_is_frozen(dim, M, Q, eps, digests):
    """Values and pair ids of both max-mins, ties included, stay those
    recorded: the circle at (M, Q, eps) and the sphere at the ball3-solve
    config.  The sphere's max-min reads samples, one column per node, not
    rows: V random, 0/1, zero and constant (ties everywhere), each node
    pruned from the hint its samples give."""
    c = solver.resolve_config(
        solver.SolverConfig(eps=eps, axis_count=M, quad_order=Q), dim)
    bell = solver._make_bellman(dim, c)
    rng = np.random.default_rng(M + Q)
    n = bell.nodes.shape[0]
    if dim == 3:
        blocks = [V.T for V in (rng.random((200, n)), rng.integers(0, 2, (200, n)).astype(float),
                                np.zeros((3, n)), np.full((3, n), 0.25))]
    else:
        R = bell.cover
        blocks = [R @ rng.random((n, 200)), R @ rng.integers(0, 2, (n, 200)).astype(float),
                  R @ np.zeros((n, 3)), rng.integers(0, 2, (R.shape[0], 200)).astype(float)]
    for X, digest in zip(blocks, digests):
        values, ids = bell.maxmin(X)[:2]
        got = hashlib.sha256(values.tobytes() + ids.astype(np.int64).tobytes())
        assert got.hexdigest() == digest


def test_sphere_kernel_is_monotone_and_its_pair_map_averages():
    """The 3D kernel: w <= w' node-wise (random gaps, 1-ulp bumps and ties)
    gives sweep(w) <= sweep(w'); and every pair's row from pair_rows is a
    nonnegative average (weights summing to 1) that is zero off its Paul
    cap i, bit for bit the literal (member_i w) member_j / denom_ij."""
    ball = solver.unit_ball(3)
    kernel = solver._Kernel(ball, BALL3)
    bell = kernel.bellman
    # every pair (i, j), i <= j, asked for last first, so rows are gathered
    first, second = np.triu_indices(BALL3.axis_count)
    rows = bell.pair_rows(None, bell.pair[first, second][::-1])[::-1]
    assert rows.min() >= 0.0 and np.max(np.abs(rows.sum(axis=1) - 1.0)) <= 1e-14
    for row, i, j in zip(rows, first, second):
        want = bell.member[i] * bell.weights * bell.member[j] / bell.denom[i, j]
        assert row.tobytes() == want.tobytes()
        assert not row[bell.member[i] == 0.0].any()
    rng = np.random.default_rng(8)
    n = kernel.n_interior
    for trial in range(4):
        w = 0.3 * rng.random(n)
        # per node: equal, one ulp up, or a random gap up
        up = np.choose(rng.integers(0, 3, n),
                       [w, np.nextafter(w, np.inf), w + 0.01 * rng.random(n)])
        assert np.all(w <= up) and np.any(up == np.nextafter(w, np.inf))
        low, high = kernel.sweep(w)[0], kernel.sweep(up)[0]
        assert np.all(low <= high), trial


def _exhaustive_maxmin(bell, V):
    """The sphere's max-min from every Paul axis's full rows, with maxmin's
    ties: Paul's first maximizing axis, Carol's first minimizing one."""
    m = V.shape[0]
    full = np.stack([bell.paul_rows(np.full(m, i), V) for i in range(bell.M)])
    inner = full.min(axis=2)
    paul, cols = inner.argmax(axis=0), np.arange(m)
    return inner[paul, cols], bell.pair[paul, full[paul, cols].argmin(axis=1)]


@pytest.mark.parametrize("c", [BALL3, solver.resolve_config(
    solver.SolverConfig(eps=0.4, axis_count=16, quad_order=16), 3)])
def test_pruned_maxmin_equals_the_exhaustive_one(c):
    """The pruned max-min gives the max-min of every Paul axis's full row,
    bit for bit in values and pair ids, and it skips rows: on each node
    block of random u and of the seed b (the enclosing ball's arrival
    time), and on V random, 0/1, zero, constant at each node (ties
    everywhere) and 0.7 plus 1e-16 noise; each with the hints that maxmin
    takes from the samples, and through _pruned with random ones.  At the
    last two, all pair values at a node lie within a few ulps of each
    other, and without its slack the pruning skips axes that tie or win
    there."""
    ball = solver.unit_ball(3)
    kernel = solver._Kernel(ball, c)
    bell = kernel.bellman
    n, Q = kernel.n_interior, bell.nodes.shape[0]
    rng = np.random.default_rng(11)
    seed = solver.BallOracle(R=1.0, L=c.K / sphere.constant_C(3), N=3).values(
        kernel.grid.node_points()[kernel.int_flat])
    blocks = [np.ascontiguousarray(X.T) for u in (0.3 * rng.random(n), seed)
              for _, X in kernel._rows(u)]
    blocks += [rng.random((20, Q)), rng.integers(0, 2, (20, Q)).astype(float),
               np.zeros((3, Q)), np.ones((200, Q)) * rng.random((200, 1)),
               0.7 + 1e-16 * rng.random((200, Q))]
    cases = []
    for V in blocks:
        hint = rng.integers(0, bell.M, V.shape[0])
        cases += [(V, bell.maxmin(V.T)), (V, bell._pruned(V, hint))]
    skipped = 0
    for case, (V, (got, got_ids, rows)) in enumerate(cases):
        values, ids = _exhaustive_maxmin(bell, V)
        assert got.tobytes() == values.tobytes(), case
        assert np.array_equal(got_ids, ids), case
        assert V.shape[0] <= rows <= V.shape[0] * bell.M
        skipped += V.shape[0] * bell.M - rows
    assert skipped > 0


_ROWS_DIGEST = """
import hashlib, numpy as np
from curvegame import solver
for domain, eps, M, order in ((solver.unit_ball(3), 0.4, 64, 16),
                              (solver.Ellipse((0.1, 0.0, -0.2), (1.0, 0.7, 0.5)), 0.3, 32, 16),
                              (solver.unit_ball(3), 0.4, 16, 32)):
    c = solver.resolve_config(
        solver.SolverConfig(eps=eps, axis_count=M, quad_order=order), 3)
    kernel = solver._Kernel(domain, c)
    u = np.random.default_rng(3).random(kernel.n_interior)
    digest = hashlib.sha256()
    bell = kernel.bellman
    for _, X in kernel._rows(u):
        V = np.ascontiguousarray(X.T)  # one row per node
        digest.update(V.tobytes())
        for i in range(bell.M):  # every Paul axis's full rows
            digest.update(bell.paul_rows(np.full(V.shape[0], i), V).tobytes())
        values, ids, rows = bell.maxmin(X)
        digest.update(values.tobytes() + ids.tobytes() + str(rows).encode())
    T, ids = kernel.sweep(u)
    P = kernel.policy_matrix(ids)
    for a in (T, ids, P.data, P.indices, P.indptr):
        digest.update(a.tobytes())
    print(digest.hexdigest())
    print(hashlib.sha256(solver.solve(domain, c).values.tobytes()).hexdigest())
"""


def test_sphere_kernel_rows_do_not_depend_on_blas_threads():
    """The BLAS products of the 3D sweep carry the same bytes at one and
    two BLAS threads: every node block's samples, every Paul axis's full
    rows at the block's nodes, the pruned max-min (values, ids and the
    count of rows it formed, which the product of Carol's reply decides),
    the sweep, the policy matrix of its pairs (data, indices and indptr)
    and the 3D solve's field.  Checked on the ball3-solve config, on the
    off-centre ellipse at 32 axes and at quadrature order 32.  This needs
    blocks of at most 256 nodes: OpenBLAS gave other bytes at two threads
    for 362."""
    src = str(Path(solver.__file__).resolve().parents[1])
    digests = set()
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OMP_NUM_THREADS": threads,
               "OPENBLAS_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        digests.add(subprocess.run([sys.executable, "-c", _ROWS_DIGEST], check=True,
                                   env=env, capture_output=True, text=True).stdout)
    assert len(digests) == 1


@pytest.mark.parametrize("domain, c", [(DISK, cfg2(0.3)), (DISK, cfg2(0.2)),
                                       (DISK, cfg2(0.1)), (solver.unit_ball(3), BALL3),
                                       (solver.Ellipse((0.0, 0.0), (1.0, 0.5)), cfg2(0.2)),
                                       _NEAR_BOUNDARY_CASES[6]])
def test_solve_lands_on_the_fixed_point(domain, c):
    """solve ends on the DPP fixed point, above value iteration's field by
    at most value iteration's own stop deficit, in far fewer sweeps, and
    reruns are byte-identical; also on ellipses, where the seed's ball
    about the centre is not the domain (the 3D one is off the origin).  A sweep contracts by about 1 - O(eps^2), so
    that deficit, tol_iter over one minus the rate, grows like eps^-2; at
    eps = 0.1 it is 13.6 tol_iter."""
    f = solver.solve(domain, c)
    assert solver.dpp_residual(f, c) <= 1e-12
    assert f.telemetry["residual"] == solver.dpp_residual(f, c)
    vi = solver.value_iteration(domain, c)
    assert np.all(vi.values <= f.values + 1e-12)
    deficit = 10.0 * c.tol_iter * max(1.0, (0.2 / c.eps) ** 2)
    assert np.max(f.values - vi.values) <= deficit
    assert np.all(f.values[~f.interior_mask] == 0.0)
    assert f.iterations == f.telemetry["sweeps"] < vi.iterations
    assert f.final_increment < c.tol_iter
    again = solver.solve(domain, c)
    assert again.values.tobytes() == f.values.tobytes()
    assert again.iterations == f.iterations


@pytest.mark.parametrize("domain, c", [(DISK, cfg2(0.3)), (DISK, cfg2(0.2)),
                                       (DISK, cfg2(0.1)), (solver.unit_ball(3), BALL3)])
def test_solve_is_certified_by_its_last_policy_sweep(domain, c, monkeypatch):
    """A converged solve runs its seed sweep and its policy sweeps and no
    other: the last one certifies its input, which is the result, and that
    sweep's sup increment is the field's final increment and DPP residual."""
    calls, sweep = [], solver._Kernel.sweep

    def counted(self, u):
        calls.append(1)
        return sweep(self, u)

    monkeypatch.setattr(solver._Kernel, "sweep", counted)
    f = solver.solve(domain, c)
    tel = f.telemetry
    assert len(calls) == tel["sweeps"] == 1 + tel["policy_steps"] == f.iterations
    assert tel["polish_sweeps"] == 0
    assert [e["phase"] for e in tel["sweep_log"]] == ["seed"] + ["policy"] * tel["policy_steps"]
    assert np.all(solver._defect(f, c) >= 0.0)
    assert tel["residual"] == f.final_increment == solver.dpp_residual(f, c)
    assert tel["sweep_log"][-1]["increment"] == tel["residual"]


@pytest.mark.parametrize("domain, c, sweeps", [(DISK, cfg2(0.3), 3), (DISK, cfg2(0.2), 3),
                                               (DISK, cfg2(0.1), 3),
                                               (solver.unit_ball(3), BALL3, 4)])
def test_solve_sweep_counts_are_pinned(domain, c, sweeps):
    """solve's first policy comes from the sweep of the enclosing ball's
    arrival time, whose optimal pairs are radial; from there two policy
    steps settle the disk and three the 3D ball.  A start from the pairs
    that the tie-break picks from all-zero rows takes 4, 5, 5 and 5 sweeps
    on these configs, so losing the seed fails this test."""
    f = solver.solve(domain, c)
    assert f.iterations == f.telemetry["sweeps"] == sweeps
    assert f.telemetry["sweep_log"][0]["phase"] == "seed"


def _first_policy_matrix(c):
    """The kernel at eps and the policy matrix of the pairs that the
    tie-break picks from all-zero rows: one arbitrary cap pair at every
    node, a harder evaluation than that of solve's first policy, which
    comes from its seed sweep."""
    kernel = solver._Kernel(DISK, c)
    _, ids, _ = kernel.bellman.maxmin(np.zeros((kernel.bellman.cover.shape[0], 1)))
    return kernel, kernel.policy_matrix(np.repeat(ids, kernel.n_interior))


def test_evaluation_lands_where_jacobi_does():
    """BiCGSTAB on the tie-break policy at eps = 0.2 settles with its true sup
    residual below stop, within 1e-12 of a long Jacobi run u <- P u + c, in
    fewer matvecs than Jacobi needs for the same stop."""
    c = cfg2(0.2)
    kernel, P = _first_policy_matrix(c)
    stop = c.tol_iter * solver._EVAL_TOL
    w = np.zeros(kernel.n_interior)

    def jacobi(stop):
        # (u, matvecs) once the sup increment is below stop
        u = w
        for n in range(1, c.max_iter + 1):
            new = P @ u + kernel.payoff
            increment = np.max(np.abs(new - u))
            u = new
            if increment < stop:
                return u, n
        pytest.fail(f"Jacobi did not settle below {stop} in {c.max_iter} matvecs")

    x, used, settled = solver._evaluate(P, w, kernel.payoff, stop, c.max_iter)
    assert settled and 0 < used
    assert np.max(np.abs(kernel.payoff - (x - P @ x))) < stop
    assert np.max(np.abs(x - jacobi(1e-16)[0])) <= 1e-12
    assert used < jacobi(stop)[1]


def test_evaluation_breakdown_returns_unsettled():
    """For P = [[0, 2], [0, 0]] from x = 0, r = (1, 1) and r.(I - P) r = 0:
    BiCGSTAB breaks down after one matvec past the residual's and returns
    its iterate unsettled, for solve to end the policy steps."""
    from scipy import sparse

    P = sparse.csr_matrix(np.array([[0.0, 2.0], [0.0, 0.0]]))
    with np.errstate(all="raise"):
        x, used, settled = solver._evaluate(P, np.zeros(2), 1.0, 1e-12, 100)
    assert np.array_equal(x, [0.0, 0.0]) and (used, settled) == (2, False)


def test_evaluation_stops_at_its_budget():
    c = cfg2(0.2)
    kernel, P = _first_policy_matrix(c)
    w = np.zeros(kernel.n_interior)
    for budget in (0, 1, 2, 3, 10, 11):
        x, used, settled = solver._evaluate(P, w, kernel.payoff, 1e-13, budget)
        assert (used, settled) == (budget, False)
        assert np.all(np.isfinite(x)) and x.shape == w.shape


def test_unsettled_evaluation_falls_back_to_the_polish():
    """A policy evaluation gets max_iter matvecs.  At eps = 0.2 and
    tol_iter = 0.004 the first one, after the seed sweep, needs 38, and
    value iteration converges in 30 sweeps; so with max_iter = 34 it is
    dropped and the polish runs from the certified w = 0, with T(0) =
    eps^2 K taken without a sweep (and no RuntimeWarning).  It returns the
    input of its last sweep: value iteration's next-to-last iterate, bit for
    bit, whose increment to the last is the final increment; the seed sweep
    takes the place of value iteration's first in the count."""
    c = cfg2(0.2, tol_iter=0.004, max_iter=34)
    f = solver.solve(DISK, c)
    vi = solver.value_iteration(DISK, c)
    with pytest.raises(NonConvergenceError) as err:
        solver.value_iteration(DISK, cfg2(0.2, tol_iter=0.004, max_iter=vi.iterations - 1))
    assert f.values.tobytes() == err.value.field.values.tobytes()
    assert f.final_increment == vi.final_increment == f.telemetry["residual"]
    assert f.telemetry["policy_steps"] == 0
    assert f.telemetry["matvecs"] == 34
    assert f.iterations == vi.iterations
    assert [e["phase"] for e in f.telemetry["sweep_log"]] == (
        ["seed"] + ["polish"] * (f.iterations - 1))


def test_solve_nonconvergence_carries_a_certified_iterate():
    c = cfg2(0.3, max_iter=3)
    with pytest.raises(NonConvergenceError) as err:
        solver.solve(DISK, c)
    assert err.value.iterations == 3
    f = err.value.field
    assert f.iterations == f.telemetry["sweeps"] == 3
    assert f.values.max() > 0.0
    # certified: a subsolution, so the next sweep cannot lower any node
    assert np.all(solver._defect(f, c) >= 0.0)


def test_an_uncertified_last_policy_sweep_leaves_the_result_to_the_polish(monkeypatch):
    """The result comes from the last policy sweep that checks s <= T(s).
    At eps = 0.3 the second and last policy sweep, the third sweep after the
    seed's, is the only one that does (the first policy's values are no
    subsolution; the seed sweep's input is not checked).  Here it reports
    one node below its input and the third evaluation does not settle, so
    the polish runs from the certified pair (0, T(0)): its result is value
    iteration from w = 0 after the three counted sweeps, bit for bit, and
    certified."""
    c = cfg2(0.3)
    calls = []
    sweep, evaluate = solver._Kernel.sweep, solver._evaluate

    def lowered(self, s):
        Ts, ids = sweep(self, s)
        calls.append(1)
        # the seed's, then two policy steps'; the polish's sweeps run as is
        if len(calls) == 3:
            Ts[0] = s[0] - 1e-3
        return Ts, ids

    def third_unsettled(P, w, cc, stop, budget):
        x, used, settled = evaluate(P, w, cc, stop, budget)
        return x, used, settled and len(calls) < 3

    monkeypatch.setattr(solver._Kernel, "sweep", lowered)
    monkeypatch.setattr(solver, "_evaluate", third_unsettled)
    f = solver.solve(DISK, c)
    tel = f.telemetry
    assert tel["policy_steps"] == 2 and tel["polish_sweeps"] >= 1
    assert [e["phase"] for e in tel["sweep_log"]] == (
        ["seed"] + ["policy"] * 2 + ["polish"] * tel["polish_sweeps"])
    kernel = solver._Kernel(DISK, c)
    m = kernel.n_interior
    u, n, increment, done = solver._chain(kernel.sweep, np.zeros(m), c, 3,
                                          np.full(m, kernel.payoff), last_input=True)
    assert done and n == f.iterations and increment == f.final_increment
    assert u.tobytes() == f.values.ravel()[kernel.int_flat].tobytes()
    assert np.all(solver._defect(f, c) >= 0.0)
    assert tel["residual"] == f.final_increment == solver.dpp_residual(f, c)


def test_solve_stop_is_floored_at_the_rounding_of_the_field():
    """tol_iter * _EVAL_TOL can fall below the rounding of a residual of
    values near 0.5, about 1e-16, where no evaluation settles and the polish
    would do value iteration's work.  The stop is floored at 8 units in the
    last place of the field's a-priori bound, R^2 / 2 on the unit disk, so
    the policy steps converge as at the default tol_iter."""
    for tol in (1e-8, 1e-12):
        c = cfg2(0.2, tol_iter=tol)
        f = solver.solve(DISK, c)
        tel = f.telemetry
        assert max(tel["evaluation_matvecs"]) < 1000
        assert tel["polish_sweeps"] == 0 and tel["policy_steps"] <= 6
        assert f.final_increment < c.tol_iter
        assert np.all(solver._defect(f, c) >= 0.0)
        assert tel["stop"] == 8.0 * np.spacing(0.5) > tol * solver._EVAL_TOL
    c = cfg2(0.2)
    assert solver.solve(DISK, c).telemetry["stop"] == c.tol_iter * solver._EVAL_TOL


# ---------------------------------------------------------------------------
# supersolution comparison


def test_barrier_is_strict_supersolution():
    # L=2, R=2 quadratic barrier on the unit disk
    c = cfg2(0.2)
    barrier = solver.field_from_function(
        DISK, c, lambda p: 2.0 * (4.0 - np.einsum("ij,ij->i", p, p)) / 2.0
    )
    ok, worst = solver.check_dpp_supersolution(barrier, c)
    assert ok
    assert worst < 0.0  # strictly above its own one-step image


def test_converged_field_below_supersolutions():
    c = cfg2(0.2)
    f = solver.value_iteration(DISK, c)
    barrier = solver.field_from_function(
        DISK, c, lambda p: 2.0 * (4.0 - np.einsum("ij,ij->i", p, p)) / 2.0
    )
    assert np.all(f.values <= barrier.values + c.tol_iter)
    # the converged field plus any positive constant also passes the check
    shifted = f.copy_with(
        np.where(f.interior_mask, f.values + 0.05, f.values)
    )
    ok, _ = solver.check_dpp_supersolution(shifted, c, slack=c.tol_iter)
    assert ok
    assert np.all(f.values <= shifted.values + c.tol_iter)


def test_converged_field_is_near_supersolution():
    c = cfg2(0.2)
    f = solver.value_iteration(DISK, c)
    ok, worst = solver.check_dpp_supersolution(f, c, slack=c.tol_iter)
    assert ok
    assert worst <= c.tol_iter


def test_negative_exterior_fails_check():
    c = cfg2(0.2)
    f = solver.empty_field(DISK, c)
    vals = f.values.copy()
    vals[0, 0] = -1.0  # exterior node below zero
    bad = f.copy_with(vals)
    ok, worst = solver.check_dpp_supersolution(bad, c)
    assert not ok and worst == math.inf


# ---------------------------------------------------------------------------
# serialization


def test_save_load_round_trip(tmp_path):
    c = cfg2(0.3)
    f = solver.value_iteration(DISK, c)
    path = tmp_path / "f.json"
    solver.save_field(f, path, cfg=c)
    g, header = solver.load_field(path)
    assert np.array_equal(f.values, g.values)
    assert g.h == f.h and np.array_equal(g.lo, f.lo)
    assert header["config"]["eps"] == c.eps
    assert g.domain == f.domain


def test_ellipse_field_save_load_round_trip(tmp_path):
    e = solver.Ellipse(center=(0.0, 0.0), semi_axes=(1.0, 0.5))
    c = cfg2(0.3)
    f = solver.solve(e, c)
    solver.save_field(f, tmp_path / "f.json", cfg=c)
    g, header = solver.load_field(tmp_path / "f.json")
    assert g.domain == e and header["domain"]["shape"] == "ellipse"
    assert g.values.tobytes() == f.values.tobytes()
    assert np.array_equal(g.interior_mask, f.interior_mask)


def test_load_rejects_a_grid_shape_the_values_do_not_fill(tmp_path):
    path = tmp_path / "f.json"
    f = solver.empty_field(DISK, cfg2(0.3))
    solver.save_field(f, path)
    header = json.loads(path.read_text())
    header["grid_shape"] = [f.shape[0] - 1, f.shape[1]]
    path.write_text(json.dumps(header))
    with pytest.raises(InvalidParameterError, match="grid_shape"):
        solver.load_field(path)


def test_load_rejects_a_negative_grid_shape(tmp_path):
    # with the binary copy in place: the copy is skipped, not an error of its
    # own
    path = tmp_path / "f.json"
    f = solver.empty_field(DISK, cfg2(0.3))
    solver.save_field(f, path)
    header = json.loads(path.read_text())
    header["grid_shape"] = [-f.shape[0], f.shape[1]]
    path.write_text(json.dumps(header))
    with pytest.raises(InvalidParameterError, match="grid_shape"):
        solver.load_field(path)


@pytest.mark.parametrize("key, value", [("grid_h", -0.25), ("grid_h", 0.0),
                                        ("grid_h", math.inf), ("grid_h", math.nan),
                                        ("box_lo", [-1.5]), ("box_lo", [-1.5, -1.5, -1.5]),
                                        ("box_lo", [math.nan, -1.5]),
                                        ("box_lo", [-1.5, -math.inf])])
def test_load_rejects_bad_header_geometry(tmp_path, key, value):
    """A header whose grid_h is not positive and finite, or whose box_lo is
    not dim finite numbers, is refused: a negative h read the gradient
    sign-flipped, and a short box_lo failed only where it was indexed."""
    path = tmp_path / "f.json"
    solver.save_field(solver.empty_field(DISK, cfg2(0.3)), path)
    header = json.loads(path.read_text())
    header[key] = value
    path.write_text(json.dumps(header))
    with pytest.raises(InvalidParameterError, match=key):
        solver.load_field(path)


@pytest.mark.parametrize("key, edit", [
    ("domain", lambda h: h["domain"].update(radius=2.0)),
    ("box_lo", lambda h: h.update(box_lo=[h["box_lo"][0] + 1.0, h["box_lo"][1]])),
    ("grid_shape", lambda h: h.update(grid_shape=h["grid_shape"] + [1]))])
def test_load_rejects_a_grid_that_does_not_hold_the_domain(tmp_path, key, edit):
    """A header whose grid misses part of its domain, or has more axes than
    the domain, is refused: strategies and level sets would read past the
    box, where the gradient extrapolates and negative cells wrap."""
    path = tmp_path / "f.json"
    solver.save_field(solver.empty_field(DISK, cfg2(0.3)), path)
    header = json.loads(path.read_text())
    edit(header)
    path.write_text(json.dumps(header))
    with pytest.raises(InvalidParameterError, match="does not hold the domain"):
        solver.load_field(path)


def test_compact_json_writes_non_finite_floats_as_json_reads_them():
    doc = {"a": [math.inf, -math.inf, math.nan, 0.1], "b": np.float64(-0.0)}
    text = solver.dumps_compact(doc)
    assert text == '{"a": [Infinity, -Infinity, NaN, 0.10000000000000001], "b": -0}'
    back = json.loads(text)
    assert back["a"][:2] == [math.inf, -math.inf] and math.isnan(back["a"][2])


def test_save_writes_plain_repr_and_loads_bits(tmp_path):
    """Values that stress the zero shortcut and the parse: -0.0 (which must
    print as "-0"), subnormals, huge values and interior exact zeros.  The
    file is what a plain "%.17g" writer gives, and loads back bit for bit."""
    c = cfg2(0.3)
    f = solver.empty_field(DISK, c)
    vals = np.random.default_rng(5).random(f.shape)
    special = [-0.0, 5e-324, -5e-324, 1e-300, 1.7976931348623157e308,
               -1.7976931348623157e308, 0.0, 0.0, 2.2250738585072014e-308]
    vals.ravel()[3 : 3 + len(special)] = special
    vals[f.interior_mask.nonzero()[0][0], :] = 0.0  # a row through the interior
    f = f.copy_with(vals)
    path = tmp_path / "f.json"
    solver.save_field(f, path, cfg=c)
    plain = "".join(",".join("%.17g" % v for v in row) + "\n" for row in vals)
    assert (tmp_path / "f.values.csv").read_text() == plain
    g, _ = solver.load_field(path)
    assert g.values.tobytes() == vals.tobytes()


def _special_field(domain, c, seed):
    """An empty field filled with random values and the specials of
    test_save_writes_plain_repr_and_loads_bits, -0.0 among them."""
    f = solver.empty_field(domain, c)
    vals = np.random.default_rng(seed).random(f.shape)
    special = [-0.0, 5e-324, -5e-324, 1e-300, 1.7976931348623157e308, 0.0,
               2.2250738585072014e-308, -0.0]
    vals.ravel()[3 : 3 + len(special)] = special
    vals.ravel()[-1] = -0.0
    return f.copy_with(vals)


@pytest.fixture
def loadtxt_calls(monkeypatch):
    """How many times load_field parsed a CSV."""
    calls = []
    real = np.loadtxt
    monkeypatch.setattr(np, "loadtxt",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    return calls


@pytest.mark.parametrize("dim", [2, 3])
def test_binary_copy_loads_the_csv_bits(tmp_path, loadtxt_calls, dim):
    """The copy beside the CSV gives the bits the CSV parse gives, -0.0
    included, without a parse; a second save writes the same copy."""
    c = cfg2(0.3) if dim == 2 else BALL3
    f = _special_field(solver.unit_ball(dim), c, dim)
    solver.save_field(f, tmp_path / "f.json", cfg=c)
    solver.save_field(f, tmp_path / "g.json", cfg=c)
    copy = tmp_path / "f.values.bin"
    assert copy.read_bytes() == (tmp_path / "g.values.bin").read_bytes()
    g, _ = solver.load_field(tmp_path / "f.json")
    assert loadtxt_calls == []
    copy.unlink()
    h, _ = solver.load_field(tmp_path / "f.json")
    assert loadtxt_calls == [1]
    assert g.values.tobytes() == h.values.tobytes() == f.values.tobytes()
    assert g.values.flags.writeable and g.values.dtype == np.float64


def test_edited_csv_is_read_from_the_csv(tmp_path, loadtxt_calls):
    """A CSV rewritten with other valid values no longer matches the copy's
    key, so its own values load."""
    c = cfg2(0.3)
    f = _special_field(DISK, c, 1)
    other = _special_field(DISK, c, 2)
    solver.save_field(f, tmp_path / "f.json", cfg=c)
    solver.save_field(other, tmp_path / "o.json", cfg=c)
    (tmp_path / "f.values.csv").write_bytes((tmp_path / "o.values.csv").read_bytes())
    g, _ = solver.load_field(tmp_path / "f.json")
    assert loadtxt_calls == [1]
    assert g.values.tobytes() == other.values.tobytes()


def _drop(blob):
    return None


def _truncate(blob):
    return blob[:-20]


def _cut_key(blob):
    return blob[:3]


def _garbage(blob):
    # the right key over bytes that are no deflate stream
    return blob[:4] + bytes(range(256)) * 8


def _short_payload(blob):
    # the right key over a stream one value short
    raw = zlib.decompress(blob[4:])
    return blob[:4] + zlib.compress(raw[:-8], 1)


@pytest.mark.parametrize("damage", [_drop, _truncate, _cut_key, _garbage,
                                    _short_payload])
def test_damaged_or_missing_copy_falls_back_to_the_csv(tmp_path, loadtxt_calls,
                                                       damage):
    """No copy (as for a field written before copies existed), a truncated
    one, one that does not inflate or that inflates to the wrong size: the
    CSV is parsed and gives the saved values."""
    c = cfg2(0.3)
    f = _special_field(DISK, c, 3)
    solver.save_field(f, tmp_path / "f.json", cfg=c)
    copy = tmp_path / "f.values.bin"
    blob = damage(copy.read_bytes())
    if blob is None:
        copy.unlink()
    else:
        copy.write_bytes(blob)
    g, _ = solver.load_field(tmp_path / "f.json")
    assert loadtxt_calls == [1]
    assert g.values.tobytes() == f.values.tobytes()


def test_interior_mask_is_the_domain_test_at_the_nodes():
    ellipse = solver.Ellipse((0.2, -0.1), (1.0, 0.5))
    for domain, c in ((DISK, cfg2(0.3)), (ellipse, cfg2(0.2)),
                      (solver.unit_ball(3), BALL3)):
        f = solver.empty_field(domain, c)
        want = domain.contains(f.node_points()).reshape(f.shape)
        assert np.array_equal(f.interior_mask, want)
        assert f.interior_mask is f.interior_mask


def test_save_is_byte_stable(tmp_path):
    c = cfg2(0.3)
    f = solver.value_iteration(DISK, c)
    solver.save_field(f, tmp_path / "a.json", cfg=c)
    solver.save_field(f, tmp_path / "b.json", cfg=c)
    assert (tmp_path / "a.json").read_text().replace("a.values.csv", "x") == \
           (tmp_path / "b.json").read_text().replace("b.values.csv", "x")
    assert (tmp_path / "a.values.csv").read_bytes() == \
           (tmp_path / "b.values.csv").read_bytes()


def test_load_rejects_other_files(tmp_path):
    p = tmp_path / "nope.json"
    p.write_text('{"format": "something-else"}')
    with pytest.raises(InvalidParameterError):
        solver.load_field(p)
