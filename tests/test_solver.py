import math

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


def test_domain_validation():
    with pytest.raises(InvalidParameterError):
        solver.Ball(center=(0.0, 0.0), radius=0.0)
    with pytest.raises(InvalidParameterError):
        solver.Ellipse(center=(0.0, 0.0), semi_axes=(1.0, -1.0))
    with pytest.raises(InvalidParameterError):
        solver.domain_from_dict({"shape": "square"})


def test_domain_dict_round_trip():
    b = solver.Ball(center=(0.1, -0.2), radius=0.7)
    assert solver.domain_from_dict(b.as_dict()) == b


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


def test_bellman_rhs_outside_domain_is_zero():
    c = cfg2(0.2)
    f = solver.empty_field(DISK, c)
    assert solver.bellman_rhs(f, np.array([1.5, 0.0]), c) == 0.0


def test_bellman_rhs_matches_literal_operator():
    """Cross-check the vectorized kernel against a direct evaluation of
    max_i min_j of the band average of the interpolated field."""
    c = cfg2(0.3, axis_count=8)
    f = solver.field_from_function(
        DISK, c, lambda p: 0.5 * (1.0 - np.einsum("ij,ij->i", p, p))
    )
    axes = sphere.circle_axes(8)

    def literal(x):
        best = -math.inf
        for a in axes:
            worst = math.inf
            for b in axes:
                region = sphere.intersect_caps(
                    sphere.game_cap(a, c.eps), sphere.game_cap(b, c.eps)
                )
                avg = sphere.region_average(
                    region,
                    lambda vs: solver.interpolate(f, x + c.eps * vs),
                    order=96,
                )
                worst = min(worst, avg)
            best = max(best, worst)
        return best + c.eps * c.eps * c.K

    for x in (np.zeros(2), np.array([0.3, -0.2]), np.array([0.55, 0.4])):
        got = solver.bellman_rhs(f, x, c)
        assert got == pytest.approx(literal(x), abs=5e-4)


@pytest.mark.parametrize("M, Q", [(8, 1024), (64, 1024), (9, 100)])
@pytest.mark.parametrize("eps", [0.3, 0.1])
def test_circle_reduce_matches_cell_coverage(M, Q, eps):
    """The step-run reduce against a plain per-cell coverage sum over the
    arcs of sphere.intersect_caps, for every cap pair: two-arc bands, arcs
    shorter than an axis spacing, and Q not a multiple of M."""
    theta = sphere.theta_eps(eps, 2)
    bell = solver._CircleBellman(theta, M, Q)
    V = np.random.default_rng(M + Q).random((Q, 4))
    dphi = 2.0 * math.pi / Q
    left = dphi * (np.arange(Q) - 0.5)  # cell q spans [left[q], left[q] + dphi)
    axes = sphere.circle_axes(M)
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
    got = bell.reduce(V)
    assert np.all(np.abs(got - expected) <= 1e-12 * np.abs(expected))


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
    got = bell.maxmin(bell.cover @ V)
    assert np.all(np.abs(got - expected) <= 1e-12 * np.abs(expected))


def test_constant_field_is_near_fixed_point_shift():
    # band averages of a constant equal the constant, so one sweep adds
    # exactly eps^2 K on top of it
    c = cfg2(0.25)
    f = solver.field_from_function(DISK, c, lambda p: np.full(len(p), 0.7))
    rhs = solver.bellman_rhs(f, np.zeros(2), c)
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
