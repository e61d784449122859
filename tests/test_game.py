import math

import numpy as np
import pytest

from curvegame import cli, game, solver, sphere
from curvegame.errors import InvalidParameterError, RunawayEpisodeError

DISK = solver.unit_ball(2)
BALL = solver.unit_ball(3)


def rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# strategies


def test_fixed_axis_normalizes():
    s = game.fixed_axis_strategy([3.0, 0.0])
    axes, fb = s(np.zeros((1, 2)), 0, 0.1)
    assert axes.shape == (1, 2)
    assert np.allclose(axes, [[1.0, 0.0]])
    assert not fb.any()


def test_mirrored_flips_axis():
    s = game.fixed_axis_strategy([0.0, 1.0])
    m = game.mirrored_strategy(s)
    axes, _ = m(np.zeros((1, 2)), 0, 0.1)
    assert np.allclose(axes, [[0.0, -1.0]])


def test_radial_exit_aims_outward_and_falls_back_at_center():
    s = game.radial_exit_strategy([0.0, 0.0])
    axes, fb = s(np.array([[0.0, 0.5]]), 0, 0.1)
    assert np.allclose(axes, [[0.0, 1.0]]) and not fb.any()
    axes, fb = s(np.array([[0.0, 0.0]]), 0, 0.1)
    assert fb.all() and np.allclose(axes, [[1.0, 0.0]])


def test_gradient_strategy_sides():
    c = solver.resolve_config(solver.SolverConfig(eps=0.3), 2)
    # radially decreasing bowl: gradient at (0.5, 0) points inward (-e1)
    f = solver.field_from_function(
        DISK, c, lambda p: 1.0 - np.einsum("ij,ij->i", p, p)
    )
    x = np.array([[0.5, 0.0]])
    axes_p, fb = game.gradient_cap_strategy(f, "paul")(x, 0, 0.1)
    assert not fb.any() and axes_p[0, 0] < -0.99
    axes_c, fb = game.gradient_cap_strategy(f, "carol")(x, 0, 0.1)
    assert not fb.any() and axes_c[0, 0] > 0.99


def test_gradient_strategy_flat_field_falls_back():
    c = solver.resolve_config(solver.SolverConfig(eps=0.3), 2)
    f = solver.empty_field(DISK, c)
    axes, fb = game.gradient_cap_strategy(f, "paul")(np.zeros((1, 2)), 0, 0.1)
    assert fb.all() and np.allclose(axes, [[1.0, 0.0]])


def test_gradient_strategy_player_validated():
    c = solver.resolve_config(solver.SolverConfig(eps=0.3), 2)
    f = solver.empty_field(DISK, c)
    with pytest.raises(InvalidParameterError):
        game.gradient_cap_strategy(f, "carole")


def test_gradient_strategy_3d_runs():
    c = solver.resolve_config(solver.SolverConfig(eps=0.4), 3)
    f = solver.field_from_function(
        BALL, c, lambda p: 1.0 - np.einsum("ij,ij->i", p, p)
    )
    axes, fb = game.gradient_cap_strategy(f, "carol")(
        np.array([[0.0, 0.0, 0.4]]), 0, 0.1)
    assert not fb.any() and axes[0, 2] > 0.99


def test_strategy_rows_are_independent():
    # a batch call gives row by row what one-row calls give
    c = solver.resolve_config(solver.SolverConfig(eps=0.3), 2)
    f = solver.field_from_function(
        DISK, c, lambda p: 1.0 - np.einsum("ij,ij->i", p, p)
    )
    X = np.array([[0.5, 0.0], [0.0, 0.0], [-0.2, 0.7], [0.3, -0.3]])
    for s in (game.gradient_cap_strategy(f, "paul"),
              game.radial_exit_strategy([0.0, 0.0]),
              game.mirrored_strategy(game.radial_exit_strategy([0.1, 0.0]))):
        axes, fb = s(X, 0, 0.1)
        for i in range(len(X)):
            one_axes, one_fb = s(X[i:i + 1], 0, 0.1)
            assert np.array_equal(axes[i:i + 1], one_axes)
            assert fb[i] == one_fb[0]


def test_simulate_takes_one_gradient_per_field(tmp_path, monkeypatch):
    c = solver.resolve_config(solver.SolverConfig(eps=0.3), 2)
    f = solver.field_from_function(
        DISK, c, lambda p: 1.0 - np.einsum("ij,ij->i", p, p)
    )
    solver.save_field(f, tmp_path / "f.json", cfg=c)
    calls = []
    real = np.gradient
    monkeypatch.setattr(np, "gradient", lambda *a, **k: calls.append(1) or real(*a, **k))
    assert cli.main(["simulate", "--field", str(tmp_path / "f.json"), "--n", "4",
                     "--x0=0.2,0.1", "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


def test_shared_gradient_recomputes_for_other_positions():
    """Paul's and Carol's strategies of one field share the interpolation of
    a round, and give the axes that strategies of separate copies of the
    field give; new positions, or the same array changed in place, get a
    fresh result."""
    c = solver.resolve_config(solver.SolverConfig(eps=0.3), 2)
    f = solver.field_from_function(
        DISK, c, lambda p: (1.0 - np.einsum("ij,ij->i", p, p)) * (1.2 + p[:, 0])
    )
    paul = game.gradient_cap_strategy(f, "paul")
    carol = game.gradient_cap_strategy(f, "carol")

    def alone(player, X):
        # a fresh field object shares nothing with f
        return game.gradient_cap_strategy(f.copy_with(f.values), player)(X, 0, 0.1)

    def check(X):
        got_p, got_c = paul(X, 0, 0.1), carol(X, 0, 0.1)
        for got, player in ((got_p, "paul"), (got_c, "carol")):
            want = alone(player, X)
            assert got[0].tobytes() == want[0].tobytes()
            assert np.array_equal(got[1], want[1])

    X = np.array([[0.5, 0.0], [0.0, 0.0], [-0.2, 0.7], [0.3, -0.3]])
    for X_now in (X, X.copy(), X[::-1].copy(), X[:2].copy(), X):
        check(X_now)
    X[0] += 0.05  # in place: the same object, new contents
    check(X)
    flat = game.gradient_cap_strategy(solver.empty_field(DISK, c), "carol")
    axes, fb = flat(X, 0, 0.1)
    assert fb.all() and np.array_equal(axes, np.tile([1.0, 0.0], (len(X), 1)))


def _gradient_axes_by_loops(shared, X):
    """The gradient axes summed term by term, corner after corner and then
    component after component: the reference for _GradientAxes."""
    u = (X - shared.lo) / shared.h
    cell = np.minimum(u.astype(np.intp), shared.top)
    node, w = shared.stencil(cell, u - cell)
    g = []
    for table in shared.tables:
        terms = w * table.take(node)
        acc = terms[0]
        for c in range(1, len(terms)):
            acc = acc + terms[c]
        g.append(acc)
    norm = g[0] * g[0]
    for gc in g[1:]:
        norm = norm + gc * gc
    norm = np.sqrt(norm)
    fallback = norm < 1e-10
    norm[fallback] = 1.0
    return np.stack([gc / norm for gc in g], axis=1), fallback


@pytest.mark.parametrize("domain", [DISK, BALL])
def test_gradient_axes_sum_in_loop_order(domain):
    """The interpolated gradient has the bits of the term-by-term loops, for
    any number of positions (one among them) and on a field of signed zeros,
    whose corner sums are -0.0 only when summed from -0.0."""
    r = rng(7)
    c = solver.resolve_config(solver.SolverConfig(eps=0.3), domain.dim)
    f = solver.field_from_function(
        domain, c, lambda p: 1.0 - np.einsum("ij,ij->i", p, p)
    )
    # +0, +0, -0, -0 along the first axis: its central differences are -0.0
    # at rows 1 and 2 mod 4, so cells from row 1 mod 4 sum -0.0 terms only
    rows = np.arange(f.shape[0]).reshape((-1,) + (1,) * (domain.dim - 1))
    zeros = np.broadcast_to(np.where(rows % 4 >= 2, -0.0, 0.0), f.shape)
    for field in (f, f.copy_with(zeros)):
        shared = game._GradientAxes(field)
        for n in (1, 2, 3, 8, 40):
            X = r.uniform(-0.6, 0.6, (n, domain.dim))
            X[: n // 2] = shared.lo + shared.h * r.integers(8, 16, (n // 2, domain.dim))
            got, want = shared(X), _gradient_axes_by_loops(shared, X)
            assert got[0].tobytes() == want[0].tobytes()
            assert np.array_equal(got[1], want[1])


def test_episode_steps_lie_in_theta_eps_band():
    # every step is a direction in the band of two caps of threshold
    # theta_eps: Paul's fixed e1 and Carol's radial axis at that position
    for domain, eps in ((DISK, 0.1), (BALL, 0.2)):
        N = domain.dim
        e1 = np.eye(N)[0]
        theta = sphere.theta_eps(eps, N)
        episodes = game.run_episodes(
            np.zeros(N), game.fixed_axis_strategy(e1),
            game.radial_exit_strategy(np.zeros(N)), 20, eps, domain, seed=2,
        )
        for e in episodes:
            x = e.positions[:-1]
            v = np.diff(e.positions, axis=0) / eps
            r = np.sqrt(np.einsum("ij,ij->i", x, x))
            radial = np.where(r[:, None] > 1e-12, x / np.maximum(r, 1e-300)[:, None], e1)
            assert np.all(v @ e1 >= -theta - 1e-12)
            assert np.all(np.einsum("ij,ij->i", v, radial) >= -theta - 1e-12)


# ---------------------------------------------------------------------------
# single episodes


def test_episode_steps_have_length_eps():
    eps = 0.1
    e = game.play_episode(
        np.zeros(2), game.fixed_axis_strategy([1.0, 0.0]),
        game.radial_exit_strategy([0.0, 0.0]), eps, DISK, rng(3),
    )
    steps = np.diff(e.positions, axis=0)
    lengths = np.sqrt(np.einsum("ij,ij->i", steps, steps))
    assert np.all(np.abs(lengths - eps) <= 1e-12)


def test_episode_shape_and_payoff_identity():
    eps = 0.1
    e = game.play_episode(
        np.array([0.2, -0.1]), game.fixed_axis_strategy([1.0, 0.0]),
        game.radial_exit_strategy([0.0, 0.0]), eps, DISK, rng(5),
    )
    assert e.positions.shape == (e.tau + 1, 2)
    assert np.allclose(e.positions[0], [0.2, -0.1])
    assert not DISK.contains(e.positions[-1])
    assert all(DISK.contains(p) for p in e.positions[:-1])
    assert e.payoff == eps * eps * sphere.constant_C(2) * e.tau


def test_one_step_exit_when_eps_exceeds_diameter():
    # every sampled direction leaves the disk immediately, so tau = 1 and
    # the payoff is the same float in every episode
    eps = 3.0
    est = game.estimate_value(
        np.zeros(2), game.fixed_axis_strategy([1.0, 0.0]),
        game.fixed_axis_strategy([0.0, 1.0]), 50, eps, DISK, seed=1,
    )
    assert est.mean == eps * eps * sphere.constant_C(2)
    assert est.stderr == 0.0
    assert est.n == 50


def test_episode_validation():
    s = game.fixed_axis_strategy([1.0, 0.0])
    with pytest.raises(InvalidParameterError):
        game.play_episode(np.array([2.0, 0.0]), s, s, 0.1, DISK, rng())
    with pytest.raises(InvalidParameterError):
        game.play_episode(np.zeros(2), s, s, 0.0, DISK, rng())


def test_runaway_episode_raises(monkeypatch):
    # mirrored strategies keep the walk unbiased, so three rounds of a
    # 0.01 step cannot reach the boundary from the center
    monkeypatch.setattr(game, "ROUND_CAP", 3)
    s = game.fixed_axis_strategy([1.0, 0.0])
    with pytest.raises(RunawayEpisodeError):
        game.play_episode(np.zeros(2), s, game.mirrored_strategy(s), 0.01, DISK, rng())


def test_episode_json_dict():
    e = game.play_episode(
        np.zeros(2), game.fixed_axis_strategy([1.0, 0.0]),
        game.radial_exit_strategy([0.0, 0.0]), 0.2, DISK, rng(9),
        seed=9, index=4,
    )
    d = e.to_json_dict()
    assert d["seed"] == 9 and d["index"] == 4 and d["tau"] == e.tau
    assert d["payoff"] == e.payoff
    assert len(d["positions"]) == e.tau + 1
    assert isinstance(d["positions"][0][0], float)


# ---------------------------------------------------------------------------
# batches


def test_run_episodes_deterministic():
    args = (np.zeros(2), game.fixed_axis_strategy([1.0, 0.0]),
            game.radial_exit_strategy([0.0, 0.0]), 40, 0.1, DISK, 17)
    a = game.run_episodes(*args)
    b = game.run_episodes(*args)
    for x, y in zip(a, b):
        assert np.array_equal(x.positions, y.positions)


def test_episode_streams_are_independent_of_batch_size():
    # episode i depends only on (seed, i), not on how many episodes ran
    common = (np.zeros(2), game.fixed_axis_strategy([1.0, 0.0]),
              game.radial_exit_strategy([0.0, 0.0]))
    short = game.run_episodes(*common, 3, 0.1, DISK, 23)
    long = game.run_episodes(*common, 10, 0.1, DISK, 23)
    for x, y in zip(short, long):
        assert np.array_equal(x.positions, y.positions)


def test_run_episodes_deterministic_3d():
    args = (np.zeros(3), game.fixed_axis_strategy([1.0, 0.0, 0.0]),
            game.radial_exit_strategy([0.0, 0.0, 0.0]), 20, 0.2, BALL, 17)
    a = game.run_episodes(*args)
    b = game.run_episodes(*args)
    for x, y in zip(a, b):
        assert np.array_equal(x.positions, y.positions)


def test_episode_streams_are_independent_of_batch_size_3d():
    common = (np.array([0.1, 0.0, -0.2]), game.fixed_axis_strategy([0.0, 0.0, 1.0]),
              game.radial_exit_strategy([0.0, 0.0, 0.0]))
    short = game.run_episodes(*common, 3, 0.2, BALL, 23)
    long = game.run_episodes(*common, 10, 0.2, BALL, 23)
    for x, y in zip(short, long):
        assert np.array_equal(x.positions, y.positions)


def test_play_episode_is_one_row_of_the_batch():
    # the lockstep engine with one episode replays episode i of a batch
    for domain, eps in ((DISK, 0.1), (BALL, 0.2)):
        N = domain.dim
        sp = game.fixed_axis_strategy(np.eye(N)[0])
        sc = game.radial_exit_strategy(np.zeros(N))
        batch = game.run_episodes(np.zeros(N), sp, sc, 6, eps, domain, 31)
        for i in (0, 5):
            one = game.play_episode(np.zeros(N), sp, sc, eps, domain,
                                    game._episode_rng(31, i), seed=31, index=i)
            assert np.array_equal(one.positions, batch[i].positions)
            assert (one.tau, one.payoff, one.fallbacks, one.index) == \
                (batch[i].tau, batch[i].payoff, batch[i].fallbacks, i)


def test_estimate_value_needs_two_episodes():
    s = game.fixed_axis_strategy([1.0, 0.0])
    with pytest.raises(InvalidParameterError):
        game.estimate_value(np.zeros(2), s, s, 1, 0.1, DISK, seed=0)
    with pytest.raises(InvalidParameterError):
        game.run_episodes(np.zeros(2), s, s, 0, 0.1, DISK, 0)
    with pytest.raises(InvalidParameterError):
        game.martingale_diagnostic(np.zeros(2), np.zeros(2), n=1, domain=DISK)


# ---------------------------------------------------------------------------
# martingale diagnostic


def test_martingale_diagnostic_passes():
    r = game.martingale_diagnostic(
        (0.3, 0.0), (0.0, 0.0), n=400, eps=0.1, domain=DISK, seed=7,
    )
    assert r["increment_pass"]
    assert r["osth_pass"]
    assert r["osth_analytic_pass"]
    assert r["rounds_pooled"] > 0
    assert r["fallbacks"] == 0
    # radial escape from z against the mirrored opponent gives the symmetric
    # band, so the pooled increment estimates eps^2 itself
    assert r["increment_mean"] == pytest.approx(0.1**2, abs=4 * r["increment_stderr"])
    assert r["osth_analytic_bound"] == pytest.approx((1.0 + 0.1) ** 2 - 0.09)


def test_martingale_diagnostic_requires_domain():
    with pytest.raises(InvalidParameterError):
        game.martingale_diagnostic((0.3, 0.0), (0.0, 0.0), n=10, eps=0.1)


def test_martingale_diagnostic_custom_strategies():
    r = game.martingale_diagnostic(
        (0.0, 0.0), (0.0, 0.0), n=50, eps=0.2, domain=DISK, seed=4,
        sp=game.fixed_axis_strategy([1.0, 0.0]),
        sc=game.fixed_axis_strategy([0.0, 1.0]),
    )
    assert r["n"] == 50
    assert math.isfinite(r["increment_mean"])
