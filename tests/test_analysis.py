import math

import numpy as np
import pytest

from curvegame import analysis, solver
from curvegame.errors import CriticalPointError, InvalidParameterError

DISK = solver.unit_ball(2)


# ---------------------------------------------------------------------------
# ball oracle


def test_oracle_closed_form():
    # u(x) = L (R^2 - |x|^2) / (2 (N - 1))
    o = analysis.BallOracle(R=1.0, L=1.0, N=2)
    assert o.value(np.zeros(2)) == pytest.approx(0.5)
    assert o.value(np.array([1.0, 0.0])) == 0.0
    assert o.value(np.array([0.6, 0.8])) == pytest.approx(0.0, abs=1e-15)
    o3 = analysis.BallOracle(R=2.0, L=1.5, N=3)
    assert o3.value(np.zeros(3)) == pytest.approx(1.5 * 4.0 / 4.0)


def test_oracle_vectorized_matches_scalar():
    o = analysis.BallOracle(R=1.0, L=2.0, N=3)
    pts = np.random.default_rng(0).normal(size=(20, 3)) * 0.5
    batch = o.values(pts)
    assert np.allclose(batch, [o.value(p) for p in pts])


def test_centred_oracle_is_the_origin_oracle_shifted():
    """An oracle about c equals the origin oracle at x - c, bit for bit, in
    value and values, in 2D and 3D, at c itself too."""
    rng = np.random.default_rng(4)
    for c in ((0.3, -0.2), (0.1, 0.0, -0.2)):
        o = analysis.BallOracle(R=0.8, L=1.5, N=len(c), center=c)
        o0 = analysis.BallOracle(R=0.8, L=1.5, N=len(c))
        pts = np.vstack([c, np.asarray(c) + 0.4 * rng.normal(size=(30, len(c)))])
        assert o.values(pts).tobytes() == o0.values(pts - np.asarray(c)).tobytes()
        assert [o.value(p) for p in pts] == [o0.value(p - np.asarray(c)) for p in pts]
        assert o.value(c) == o0.value(np.zeros(len(c))) == 1.5 * 0.8**2 / (2.0 * (len(c) - 1))


def test_oracle_validation():
    with pytest.raises(InvalidParameterError):
        analysis.BallOracle(R=0.0, L=1.0, N=2)
    with pytest.raises(InvalidParameterError):
        analysis.BallOracle(R=1.0, L=1.0, N=4)


def test_supersolution_bound():
    # the quadratic barrier L (R^2 - |x|^2) / (2 (N - 1)), a strict
    # supersolution for L > 1 on a domain inside B_R
    x = np.array([0.3, 0.0])
    b1 = analysis.BallOracle(R=2.0, L=2.0, N=2).value(x)
    b2 = analysis.BallOracle(R=2.0, L=3.0, N=2).value(x)
    assert 0.0 < b1 < b2  # monotone in the source constant


def test_supersolution_dominates_converged_field():
    cfg = solver.resolve_config(solver.SolverConfig(eps=0.3), 2)
    f = solver.value_iteration(DISK, cfg)
    bound = analysis.BallOracle(R=2.0, L=2.0, N=2).values(f.node_points()).reshape(f.shape)
    # only interior nodes: box corners fall outside B_R where the barrier
    # goes negative while the field is pinned at zero
    inner = f.interior_mask
    assert np.all(f.values[inner] <= bound[inner] + cfg.tol_iter)


# ---------------------------------------------------------------------------
# band averages


def test_band_lemma_constant_function_is_exact():
    rows = analysis.verify_band_lemma(
        lambda v: np.ones(len(v)), [1e-2], family="mirrored", N=3
    )
    assert rows[0]["error"] == pytest.approx(0.0, abs=1e-14)


def test_band_lemma_odd_function_vanishes():
    rows = analysis.verify_band_lemma(
        lambda v: v[:, -1], [1e-2], family="mirrored", N=2
    )
    assert rows[0]["band_average"] == pytest.approx(0.0, abs=1e-12)


def test_band_lemma_errors_shrink():
    f = lambda v: v[:, 0] ** 2
    for family in ("mirrored", "tilted"):
        rows = analysis.verify_band_lemma(f, [1e-2, 1e-3, 1e-4], family=family, N=3)
        errs = [r["error"] for r in rows]
        assert errs[0] >= errs[1] >= errs[2]
        assert errs[-1] < 1e-2
        assert all(r["drift_ok"] for r in rows)


def test_band_lemma_enlarged_family_reports_drift():
    rows = analysis.verify_band_lemma(
        lambda v: v[:, 0] ** 2, [1e-3, 1e-4], family="enlarged", N=2
    )
    # asymmetric caps push the band center off the equator by more than eps,
    # which the rows report rather than hide
    assert all("drift" in r for r in rows)
    assert any(not r["drift_ok"] for r in rows)


def test_band_lemma_unknown_family():
    with pytest.raises(InvalidParameterError):
        analysis.verify_band_lemma(lambda v: v[:, 0], [1e-2], family="warped")


# ---------------------------------------------------------------------------
# averaged operator vs second-order form


def test_quadratic_function_symmetrizes():
    # phi = x'Ax/2 + b'x with A stored symmetrized, hessian(x) = A
    q = analysis.QuadraticFunction(
        A=np.array([[1.0, 2.0], [0.0, 1.0]]), b=np.array([0.5, 0.0])
    )
    x = np.array([0.3, -0.5])
    assert np.allclose(q.hessian(x), [[1.0, 1.0], [1.0, 1.0]])
    assert np.allclose(q.gradient(x), q.A @ x + q.b)
    with pytest.raises(InvalidParameterError):
        analysis.QuadraticFunction(A=np.eye(3), b=np.zeros(2))


def test_operator_equivalence_on_paraboloid():
    # phi = |x|^2: gradient 2x, hessian 2I; both forms must agree
    q = analysis.QuadraticFunction(A=np.eye(2), b=np.array([0.0, 0.0]))
    f1, f2 = analysis.mc_operator_residual(q, np.array([0.5, 0.2]), N=2)
    assert f1 == pytest.approx(f2, abs=1e-12)


def test_operator_equivalence_linear_function():
    q = analysis.QuadraticFunction(A=np.zeros((2, 2)), b=np.array([1.0, -2.0]))
    f1, f2 = analysis.mc_operator_residual(q, np.zeros(2), N=2)
    assert f1 == pytest.approx(0.0, abs=1e-12)
    assert f2 == pytest.approx(0.0, abs=1e-12)


def test_operator_critical_point_rejected():
    q = analysis.QuadraticFunction(A=np.eye(2), b=np.zeros(2))
    with pytest.raises(CriticalPointError):
        analysis.mc_operator_residual(q, np.zeros(2), N=2)


def test_operator_equivalence_random_quadratics():
    rng = np.random.default_rng(12)
    for N in (2, 3):
        worst = 0.0
        for _ in range(25):
            q = analysis.random_quadratic(rng, N)
            x = rng.normal(size=N)
            try:
                f1, f2 = analysis.mc_operator_residual(q, x, N=N)
            except CriticalPointError:
                continue
            worst = max(worst, abs(f1 - f2))
        assert worst < 1e-8


def test_operator_on_oracle_recovers_source():
    # the level-set equation reads Delta u - <D^2 u g, g> = -1 for the ball
    # solution, so the normalized averaged form must return -1 exactly
    for N in (2, 3):
        o = analysis.BallOracle(R=1.0, L=1.0, N=N)
        q = analysis.QuadraticFunction(A=-o.L / (N - 1) * np.eye(N), b=np.zeros(N))
        x = np.zeros(N)
        x[0] = 0.4
        f1, f2 = analysis.mc_operator_residual(q, x, N=N)
        assert f1 == pytest.approx(-1.0, abs=1e-8)
        assert f2 == pytest.approx(-1.0, abs=1e-8)


# ---------------------------------------------------------------------------
# level sets


def small_field(eps=0.3):
    cfg = solver.resolve_config(solver.SolverConfig(eps=eps), 2)
    return solver.value_iteration(DISK, cfg), cfg


def test_superlevel_sets_nest():
    f, _ = small_field()
    vmax = float(f.values.max())
    a = analysis.superlevel_set(f, 0.1 * vmax)
    b = analysis.superlevel_set(f, 0.5 * vmax)
    assert b.count < a.count
    assert np.all(a.mask[b.mask])  # higher level sits inside lower


def test_superlevel_edge_cases():
    f, _ = small_field()
    zero = analysis.superlevel_set(f, 0.0)
    assert zero.count == int(f.interior_mask.sum())
    top = analysis.superlevel_set(f, float(f.values.max()) + 1.0)
    assert top.is_empty
    with pytest.raises(InvalidParameterError):
        analysis.superlevel_set(f, -0.1)


def test_oracle_superlevel_is_disk():
    f, _ = small_field()
    o = analysis.BallOracle(R=1.0, L=1.0, N=2)
    m = analysis.oracle_superlevel_set(f, o, 0.25)
    pts = m.points()
    r = np.sqrt(np.einsum("ij,ij->i", pts, pts))
    assert np.all(r < math.sqrt(0.5) + 1e-12)
    assert r.max() > math.sqrt(0.5) - 2 * f.h


def test_levelset_mask_grid_guard():
    f, _ = small_field()
    a = analysis.superlevel_set(f, 0.1)
    other = analysis.LevelSetMask(
        lo=(0.0, 0.0), h=a.h, mask=np.ones((3, 3), dtype=bool)
    )
    assert not a.same_grid(other)
    with pytest.raises(InvalidParameterError):
        analysis.hausdorff_distance(a, other)


def hand_mask(centers, h, shape, lo, radius):
    axes = [lo[a] + h * np.arange(shape[a]) for a in range(2)]
    xx, yy = np.meshgrid(*axes, indexing="ij")
    m = (xx - centers[0]) ** 2 + (yy - centers[1]) ** 2 < radius**2
    return analysis.LevelSetMask(lo=tuple(lo), h=h, mask=m)


def test_hausdorff_concentric_disks():
    h = 0.01
    lo = (-1.0, -1.0)
    shape = (201, 201)
    a = hand_mask((0.0, 0.0), h, shape, lo, 0.5)
    b = hand_mask((0.0, 0.0), h, shape, lo, 0.6)
    d = analysis.hausdorff_distance(a, b)
    assert d == pytest.approx(0.1, abs=2 * h)
    assert d == analysis.hausdorff_distance(b, a)


def test_hausdorff_triangle_inequality():
    h = 0.02
    lo = (-1.0, -1.0)
    shape = (101, 101)
    a = hand_mask((0.0, 0.0), h, shape, lo, 0.3)
    b = hand_mask((0.2, 0.0), h, shape, lo, 0.3)
    c = hand_mask((0.4, 0.0), h, shape, lo, 0.3)
    dab = analysis.hausdorff_distance(a, b)
    dbc = analysis.hausdorff_distance(b, c)
    dac = analysis.hausdorff_distance(a, c)
    assert dac <= dab + dbc + 1e-12


def test_hausdorff_degenerate_masks():
    h = 0.1
    empty = analysis.LevelSetMask(
        lo=(0.0, 0.0), h=h, mask=np.zeros((4, 4), dtype=bool)
    )
    one = np.zeros((4, 4), dtype=bool)
    one[1, 1] = True
    single = analysis.LevelSetMask(lo=(0.0, 0.0), h=h, mask=one)
    assert analysis.hausdorff_distance(empty, empty) == 0.0
    assert analysis.hausdorff_distance(empty, single) == math.inf
    assert analysis.hausdorff_distance(single, single) == 0.0
    two = np.zeros((4, 4), dtype=bool)
    two[3, 1] = True
    other = analysis.LevelSetMask(lo=(0.0, 0.0), h=h, mask=two)
    assert analysis.hausdorff_distance(single, other) == pytest.approx(0.2)


# ---------------------------------------------------------------------------
# convergence study


def test_convergence_study_structure():
    rows = analysis.convergence_study(DISK, [0.5, 0.4], t_values=(0.1,))
    assert [r["eps"] for r in rows] == [0.5, 0.4]
    for r in rows:
        assert r["grid_h"] == pytest.approx(r["eps"] / 2)
        assert r["iterations"] > 0
        assert 0.0 < r["sup_error"] < 0.5
        assert r["boundary_max"] > 0.0
        assert math.isfinite(r["hausdorff"][0.1])


def test_convergence_study_needs_ball():
    e = solver.Ellipse(center=(0.0, 0.0), semi_axes=(1.0, 0.5))
    with pytest.raises(InvalidParameterError):
        analysis.convergence_study(e, [0.5])
