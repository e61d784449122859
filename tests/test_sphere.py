import hashlib
import math

import numpy as np
import pytest

from curvegame import sphere
from curvegame.errors import (
    DegenerateRegionError,
    InvalidParameterError,
    SamplingFailureError,
)

TWO_PI = 2.0 * math.pi

# Frozen reference values, computed independently from the closed forms
# (arc length pi + 2*asin(theta) on the circle, zone area 2*pi*(1+theta) on
# the sphere) and cross-checked once against plain rejection Monte Carlo:
# cap_measure(0.1, 2): MC 3.34229 +- 0.0031, closed form below
# generic 3d band (e3/0.25 vs (0.6,0,-0.8)/0.15): MC 2.7872 +- 0.0037
CAP_MEASURE_01_N2 = 3.3419274959129126
BAND_ARCS_03 = [
    (-1.8754889808102941, -1.266103672779499),
    (1.266103672779499, 1.8754889808102941),
]
BAND_MEASURE_GENERIC_3D = 2.793261182681457
THETA_N2_D02 = 0.09983341664682815
THETA_N3_D02 = 0.03183098861837907


def band(axis, theta):
    axis = np.asarray(axis, dtype=float)
    return sphere.intersect_caps(
        sphere.Cap(axis, theta), sphere.Cap(-axis, theta)
    )


# ---------------------------------------------------------------------------
# measures and constants


def test_cap_measure_closed_forms():
    assert math.isclose(sphere.cap_measure(0.1, 2), CAP_MEASURE_01_N2, rel_tol=1e-15)
    assert sphere.cap_measure(0.1, 2) == pytest.approx(math.pi + 2 * math.asin(0.1))
    assert sphere.cap_measure(0.3, 3) == pytest.approx(TWO_PI * 1.3, rel=1e-15)


def test_cap_measure_extremes():
    # theta = 0 is the half sphere, theta = 1 the full sphere
    assert sphere.cap_measure(0.0, 2) == pytest.approx(math.pi)
    assert sphere.cap_measure(0.0, 3) == pytest.approx(TWO_PI)
    assert sphere.cap_measure(1.0, 2) == pytest.approx(TWO_PI)
    assert sphere.cap_measure(1.0, 3) == pytest.approx(2 * TWO_PI)


def test_cap_measure_validation():
    # negative theta down to -1 is legal (caps below the half sphere)
    assert sphere.cap_measure(-1.0, 3) == 0.0
    with pytest.raises(InvalidParameterError):
        sphere.cap_measure(-1.5, 2)
    with pytest.raises(InvalidParameterError):
        sphere.cap_measure(0.5, 4)


def test_delta_eps_is_sqrt():
    assert sphere.delta_eps(0.04) == pytest.approx(0.2, rel=1e-15)
    with pytest.raises(InvalidParameterError):
        sphere.delta_eps(-1.0)


def test_theta_from_delta_frozen():
    assert sphere.theta_from_delta(0.2, 2) == pytest.approx(THETA_N2_D02, rel=1e-15)
    assert sphere.theta_from_delta(0.2, 3) == pytest.approx(THETA_N3_D02, rel=1e-15)


def test_theta_from_delta_inverts_measure():
    for N in (2, 3):
        for d in (0.05, 0.3, 1.0):
            t = sphere.theta_from_delta(d, N)
            assert sphere.cap_measure(t, N) == pytest.approx(
                0.5 * sphere.sphere_measure(N) + d, rel=1e-12
            )


def test_theta_eps_composition():
    eps = 0.09
    assert sphere.theta_eps(eps, 2) == pytest.approx(
        math.sin(0.5 * math.sqrt(eps)), rel=1e-15
    )
    assert sphere.theta_eps(eps, 3) == pytest.approx(
        math.sqrt(eps) / TWO_PI, rel=1e-15
    )


def test_constant_C_exact():
    # the closed form is its definition, half the equator average of v_1^2,
    # bit for bit: 1/2 on the circle, 1/4 on the sphere
    for N, want in ((2, 0.5), (3, 0.25)):
        e_N = np.eye(N)[-1]
        assert sphere.constant_C(N) == want == 0.5 * sphere.equator_average(
            e_N, lambda v: v[:, 0] ** 2, N)


# ---------------------------------------------------------------------------
# caps


def test_cap_normalizes_axis():
    c = sphere.Cap(np.array([3.0, 4.0]), 0.2)
    assert np.allclose(c.axis, [0.6, 0.8])
    assert abs(np.linalg.norm(c.axis) - 1.0) < 1e-12


def test_cap_rejects_zero_axis():
    with pytest.raises(InvalidParameterError):
        sphere.Cap(np.zeros(2), 0.2)


def test_cap_theta_range():
    sphere.Cap(np.array([1.0, 0.0]), 1.0)  # full sphere is representable
    with pytest.raises(InvalidParameterError):
        sphere.Cap(np.array([1.0, 0.0]), 1.5)
    with pytest.raises(InvalidParameterError):
        sphere.Cap(np.array([1.0, 0.0]), -0.1)


def test_game_cap_measure_margin():
    for eps in (0.05, 0.2):
        for N in (2, 3):
            axis = np.zeros(N)
            axis[0] = 1.0
            cap = sphere.Cap(axis, sphere.theta_eps(eps, N))
            margin = cap.measure - 0.5 * sphere.sphere_measure(N)
            assert margin == pytest.approx(sphere.delta_eps(eps), rel=1e-12)


# ---------------------------------------------------------------------------
# intersections: arcs, panels, measure


def test_band_arcs_frozen():
    b = band([1.0, 0.0], 0.3)
    got = b.arcs()
    assert len(got) == 2
    for (gs, ge), (ws, we) in zip(sorted(got), BAND_ARCS_03):
        assert gs == pytest.approx(ws, rel=1e-14)
        assert ge == pytest.approx(we, rel=1e-14)
    assert b.measure == pytest.approx(4 * math.asin(0.3), rel=1e-13)


def test_band_measure_3d_antiparallel():
    b = band([0.0, 0.0, 1.0], 0.2)
    assert b.measure == pytest.approx(4 * math.pi * 0.2, rel=1e-12)


def test_intersection_measure_3d_generic_frozen():
    r = sphere.intersect_caps(
        sphere.Cap(np.array([0.0, 0.0, 1.0]), 0.25),
        sphere.Cap(np.array([0.6, 0.0, -0.8]), 0.15),
    )
    assert r.measure == pytest.approx(BAND_MEASURE_GENERIC_3D, rel=1e-10)


def test_intersection_nested_caps_3d():
    # cap_b contains cap_a's complement band entirely: measure is cap_a's
    a = sphere.Cap(np.array([0.0, 0.0, 1.0]), 0.1)
    full = sphere.Cap(np.array([0.0, 0.0, 1.0]), 1.0)
    r = sphere.intersect_caps(a, full)
    assert r.measure == pytest.approx(a.measure, rel=1e-12)


def test_intersection_dim_mismatch():
    with pytest.raises(InvalidParameterError):
        sphere.intersect_caps(
            sphere.Cap(np.array([1.0, 0.0]), 0.1),
            sphere.Cap(np.array([1.0, 0.0, 0.0]), 0.1),
        )


def test_empty_intersection():
    # opposite thin caps share no direction
    r = band([0.0, 1.0], 0.0)
    assert r.measure == pytest.approx(0.0, abs=1e-12)
    assert r.is_empty


# ---------------------------------------------------------------------------
# averages


def test_region_average_constant_is_one():
    for r in (band([0.0, 1.0], 0.3), band([0.0, 0.0, 1.0], 0.2)):
        assert r.average(lambda v: np.ones(len(v))) == pytest.approx(1.0)


def test_region_average_odd_function_cancels():
    r = band([0.0, 1.0], 0.25)
    assert r.average(lambda v: v[:, 1]) == pytest.approx(0.0, abs=1e-15)
    r3 = band([0.0, 0.0, 1.0], 0.25)
    assert r3.average(lambda v: v[:, 2]) == pytest.approx(0.0, abs=1e-15)


def test_band_second_moment_identity():
    """Average of |x + eps v|^2 over a symmetric band is |x|^2 + eps^2."""
    rng = np.random.default_rng(7)
    for N in (2, 3):
        for _ in range(10):
            x = rng.normal(size=N)
            eps = float(rng.uniform(0.01, 0.4))
            axis = rng.normal(size=N)
            r = band(axis, sphere.theta_eps(eps, N))
            avg = r.average(
                lambda v: np.einsum("ij,ij->i", x + eps * v, x + eps * v)
            )
            assert avg == pytest.approx(float(x @ x) + eps * eps, abs=1e-10)


def test_equator_average_second_moment():
    e2 = np.array([0.0, 1.0])
    assert sphere.equator_average(e2, lambda v: v[:, 0] ** 2, 2) == pytest.approx(1.0)
    e3 = np.array([0.0, 0.0, 1.0])
    assert sphere.equator_average(e3, lambda v: v[:, 0] ** 2, 3) == pytest.approx(0.5)


def test_quadrature_weights_sum_to_measure():
    r2 = band([1.0, 1.0], 0.2)
    _, w2 = r2.quadrature(48)
    assert float(w2.sum()) == pytest.approx(r2.measure, rel=1e-12)
    r3 = sphere.intersect_caps(
        sphere.Cap(np.array([0.0, 0.0, 1.0]), 0.3),
        sphere.Cap(np.array([1.0, 0.0, -1.0]), 0.2),
    )
    _, w3 = r3.quadrature(48)
    # the azimuth width has sqrt edges at panel roots, so the height rule
    # converges algebraically against the closed-form measure
    assert float(w3.sum()) == pytest.approx(r3.measure, rel=1e-4)


def test_average_on_empty_region_raises():
    r = band([0.0, 1.0], 0.0)
    with pytest.raises(DegenerateRegionError):
        r.average(lambda v: np.ones(len(v)))


# ---------------------------------------------------------------------------
# sampling


def test_sample_stays_in_band():
    rng = np.random.default_rng(0)
    regions = [band([0.2, -1.0], 0.15), band([0.1, 0.4, 1.0], 0.2)]
    # caps of different thresholds
    for a, b in (([0.2, -1.0], [1.0, 0.3]), ([0.0, 0.0, 1.0], [0.6, 0.0, -0.8])):
        regions.append(sphere.intersect_caps(sphere.Cap(np.array(a), 0.6),
                                             sphere.Cap(np.array(b), 0.15)))
    for r in regions:
        for _ in range(200):
            v = r.sample(rng)
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12
            assert r.contains(v)


def test_sample_empty_region_raises():
    rng = np.random.default_rng(0)
    with pytest.raises(DegenerateRegionError):
        band([0.0, 1.0], 0.0).sample(rng)


def test_sample3_nearly_degenerate_raises(monkeypatch):
    monkeypatch.setattr(sphere, "_REJECTION_ATTEMPT_BOUND", 512)
    rng = np.random.default_rng(0)
    thin = band([0.0, 0.0, 1.0], 1e-9)
    with pytest.raises((SamplingFailureError, DegenerateRegionError)):
        thin.sample(rng)


def test_circle_sampler_uniform_chi_squared():
    rng = np.random.default_rng(11)
    # axis e1: both arcs sit inside (-pi, pi), so atan2 needs no unwrapping
    r = band([1.0, 0.0], 0.3)
    arcs = sorted(r.arcs())
    n = 20000
    angles = np.array([math.atan2(*(r.sample(rng)[::-1])) for _ in range(n)])
    # map angles onto cumulative arc position and bin uniformly
    pos = np.full(n, -1.0)
    off = 0.0
    for s, e in arcs:
        m = (angles >= s - 1e-12) & (angles <= e + 1e-12)
        pos[m] = off + np.clip(angles[m] - s, 0.0, e - s)
        off += e - s
    assert (pos >= 0).all()
    counts, _ = np.histogram(pos / off, bins=20, range=(0.0, 1.0))
    chi2 = float(((counts - n / 20) ** 2 / (n / 20)).sum())
    # 19 dof: mean 19, sd ~6.2; generous cap keeps the test stable
    assert chi2 < 60.0


def test_sphere_sampler_mean_height_symmetric():
    rng = np.random.default_rng(3)
    r = band([0.0, 0.0, 1.0], 0.25)
    vs = np.array([r.sample(rng) for _ in range(4000)])
    assert abs(vs[:, 2].mean()) < 0.25 / math.sqrt(3) * 4 / math.sqrt(4000)


# ---------------------------------------------------------------------------
# batch band draws


def sample_bands(a, b, theta, rng):
    width = sphere.band_draw_width(a.shape[1])
    return sphere.sample_bands(
        a, b, theta, theta, lambda rows: rng.random((len(rows), width))
    )


# sha256 of the float64 bytes of the draws below, recorded when each row was
# also checked bit for bit against a separate scalar arc sampler (one
# intersect_caps(...).sample call per row with the same uniform)
CIRCLE_DRAWS_SHA256 = {
    0.5: "629d60080d757af20a757528e34199fff29bc9683d7c3ca8c180b6ed41cb3ff5",
    0.1: "8d34ba1fea045b28ca9a53338e4251319aca6729587726b63435fcc6aed6f798",
    0.01: "41d332b288c76cb5ab178f02caffcbb7358fe3d22fbd2f52d932dbe256c75474",
}


def test_sample_bands_circle_matches_scalar_bitwise():
    # the circle draws must not move a bit: 2D game traces depend on them
    rng = np.random.default_rng(2)
    ang = rng.uniform(-math.pi, math.pi, size=(400, 2))
    ang[:50, 1] = ang[:50, 0]  # aligned
    ang[50:100, 1] = ang[50:100, 0] + math.pi  # opposite
    a = np.stack([np.cos(ang[:, 0]), np.sin(ang[:, 0])], axis=1)
    b = np.stack([np.cos(ang[:, 1]), np.sin(ang[:, 1])], axis=1)
    for eps, digest in CIRCLE_DRAWS_SHA256.items():
        theta = sphere.theta_eps(eps, 2)
        got = sample_bands(a, b, theta, np.random.default_rng(7))
        assert hashlib.sha256(got.tobytes()).hexdigest() == digest, eps
        # a single-region draw is row 0 of the batch draw
        want_rng = np.random.default_rng(7)
        region = sphere.intersect_caps(sphere.Cap(a[0], theta), sphere.Cap(b[0], theta))
        assert np.array_equal(region.sample(want_rng), got[0])


# (label, Paul's axis, Carol's axis) on S^2
PAIRS_3D = [
    ("opposite", [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]),
    ("tilted60", [0.0, 0.0, 1.0], [math.sin(math.pi / 3), 0.0, math.cos(math.pi / 3)]),
    ("aligned", [0.6, 0.0, 0.8], [0.6, 0.0, 0.8]),
]


def band_moment_z(draws, a, b, theta):
    """|z| scores of the sample means of v.a, v.b and (v.a)^2 against the
    band averages by quadrature."""
    region = sphere.intersect_caps(sphere.Cap(a, theta), sphere.Cap(b, theta))
    z = []
    for f in (lambda v: v @ a, lambda v: v @ b, lambda v: (v @ a) ** 2):
        x = f(draws)
        want = region.average(f, order=64)
        z.append(abs(x.mean() - want) / (x.std(ddof=1) / math.sqrt(len(x)) + 1e-300))
    return z


def whole_cap_draws(a, theta, rng, n):
    """Uniform on the cap around a alone: the 3D draw without Carol's test."""
    t = rng.random(n) * (1.0 + theta) - theta
    phi = TWO_PI * rng.random(n)
    e1, e2 = sphere._orthobases(np.tile(a, (n, 1)))
    r = np.sqrt(1.0 - t * t)[:, None]
    return (t[:, None] * a + r * np.cos(phi)[:, None] * e1
            + r * np.sin(phi)[:, None] * e2)


def test_sample_bands_sphere_uniform_on_band():
    n = 4000
    rng = np.random.default_rng(13)
    for eps in (0.1, 0.01):
        theta = sphere.theta_eps(eps, 3)
        for label, pa, pb in PAIRS_3D:
            a, b = np.array(pa), np.array(pb)
            A, B = np.tile(a, (n, 1)), np.tile(b, (n, 1))
            v = sample_bands(A, B, theta, rng)
            assert np.all(np.abs(np.sqrt(sphere.row_dot(v, v)) - 1.0) < 1e-12)
            assert sphere.in_bands(v, A, B, theta, theta).all(), (eps, label)
            z = band_moment_z(v, a, b, theta)
            assert max(z) <= 4.0, (eps, label, z)


def test_band_moment_check_rejects_whole_cap_draws():
    # the check above must catch a draw that skips the test against cap b
    n = 4000
    rng = np.random.default_rng(13)
    for eps in (0.1, 0.01):
        theta = sphere.theta_eps(eps, 3)
        worst = max(
            max(band_moment_z(whole_cap_draws(np.array(pa), theta, rng, n),
                              np.array(pa), np.array(pb), theta))
            for _, pa, pb in PAIRS_3D
        )
        assert worst > 4.0, eps


def test_sample_bands_streams_are_per_row():
    # a row's draw depends on its own uniforms only, not on the other rows
    rng = np.random.default_rng(4)
    a = rng.normal(size=(6, 3))
    a = a / np.sqrt(sphere.row_dot(a, a))[:, None]
    b = -a
    theta = sphere.theta_eps(0.1, 3)
    width = sphere.band_draw_width(3)
    streams = [np.random.default_rng(100 + i) for i in range(6)]

    def draw(rows, which):
        return np.stack([streams[which[r]].random(width) for r in rows])

    full = sphere.sample_bands(a, b, theta, theta,
                               lambda r: draw(r, list(range(6))))
    streams = [np.random.default_rng(100 + i) for i in range(6)]
    part = sphere.sample_bands(a[3:], b[3:], theta, theta,
                               lambda r: draw(r, [3, 4, 5]))
    assert np.array_equal(full[3:], part)


def test_sample_bands_degenerate_raise(monkeypatch):
    monkeypatch.setattr(sphere, "_REJECTION_ATTEMPT_BOUND", 256)
    rng = np.random.default_rng(0)
    # theta = 0 and opposite axes: the band is a point pair on the circle
    # and the equator on the sphere
    with pytest.raises(DegenerateRegionError):
        sample_bands(np.array([[0.0, 1.0]]), np.array([[0.0, -1.0]]), 0.0, rng)
    with pytest.raises(SamplingFailureError):
        sample_bands(np.array([[0.0, 0.0, 1.0]]), np.array([[0.0, 0.0, -1.0]]), 0.0, rng)


# ---------------------------------------------------------------------------
# axis families


def test_fibonacci_axes_structure():
    M = 64
    ax = sphere.fibonacci_axes(M)
    assert ax.shape == (M, 3)
    assert np.allclose(np.linalg.norm(ax, axis=1), 1.0, atol=1e-12)
    # spread: no two axes closer than a degree at this count
    dots = ax @ ax.T - 2.0 * np.eye(M)
    assert dots.max() < math.cos(math.radians(1.0))


def test_axis_count_validation():
    with pytest.raises(InvalidParameterError):
        sphere.fibonacci_axes(0)
    with pytest.raises(InvalidParameterError):
        sphere.fibonacci_axes(-1)
