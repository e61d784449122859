import hashlib
import json

import numpy as np
import pytest

from curvegame import analysis, cli, solver
from curvegame.errors import InvalidParameterError


def run(*argv):
    return cli.main(list(argv))


def read_json(path):
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# plumbing


def test_default_threads_env(monkeypatch):
    monkeypatch.setenv("CURVEGAME_THREADS", "3")
    assert cli._default_threads() == 3
    monkeypatch.setenv("CURVEGAME_THREADS", "abc")
    with pytest.raises(InvalidParameterError):
        cli._default_threads()
    monkeypatch.setenv("CURVEGAME_THREADS", "0")
    with pytest.raises(InvalidParameterError):
        cli._default_threads()
    monkeypatch.delenv("CURVEGAME_THREADS")
    assert cli._default_threads() >= 1


def test_float_list_parsing():
    assert cli._float_list("0.2,0.1") == [0.2, 0.1]
    assert cli._float_list(" 1 ") == [1.0]
    with pytest.raises(ValueError):
        cli._float_list("a,b")


def test_malformed_config_exits_one(tmp_path):
    bad = tmp_path / "cfg.json"
    bad.write_text("[1, 2]")
    out = tmp_path / "out"
    assert run("solve", "--config", str(bad), "--out", str(out)) == 1
    assert not out.exists()


def test_malformed_command_line_exits_one(capsys):
    # argparse alone would exit 2, the non-convergence code
    for argv in (["solve", "--eps", "abc"], ["solve", "--bogus"], ["bogus"],
                 ["simulate", "--x0", "a,b"], []):
        assert run(*argv) == 1, argv
    assert "invalid float value" in capsys.readouterr().err
    for argv in (["--help"], ["solve", "--help"]):
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 0


def test_threads_below_one_exit_one(tmp_path):
    out = tmp_path / "out"
    fast = {
        "solve": ["--eps", "0.5"],
        "simulate": ["--eps", "0.5", "--n", "4", "--paul", "radial",
                     "--carol", "radial"],
        "verify": [], "levelset": [], "converge": [],
    }
    for command, args in fast.items():
        for threads in ("0", "-3"):
            code = run(command, *args, "--threads", threads, "--out", str(out))
            assert code == 1, (command, threads)
    assert not out.exists()


def test_converge_empty_eps_list_exits_one(tmp_path, capsys):
    out = tmp_path / "out"
    assert run("converge", "--eps-list", ",", "--out", str(out)) == 1
    assert "need at least one eps" in capsys.readouterr().err
    assert not out.exists()


def test_invalid_grid_exits_one_without_output(tmp_path):
    out = tmp_path / "out"
    code = run("solve", "--eps", "0.2", "--grid-h", "0.3", "--out", str(out))
    assert code == 1
    assert not out.exists()


# ---------------------------------------------------------------------------
# solve


def test_solve_writes_artifacts(tmp_path):
    out = tmp_path / "run"
    assert run("solve", "--eps", "0.3", "--out", str(out)) == 0
    field, header = solver.load_field(out / "field.json")
    assert header["config"]["eps"] == 0.3
    assert field.values.max() > 0.4
    manifest = read_json(out / "solve_manifest.json")
    assert manifest["converged"] is True
    assert manifest["iterations"] == field.iterations
    assert manifest["residual"] <= header["config"]["tol_iter"]
    assert manifest["wall_time_s"] > 0


def test_solve_nonconvergence_writes_partial(tmp_path):
    out = tmp_path / "run"
    code = run("solve", "--eps", "0.3", "--max-iter", "3", "--out", str(out))
    assert code == 2
    manifest = read_json(out / "solve_manifest.json")
    assert manifest["converged"] is False
    assert manifest["iterations"] == 3
    field, _ = solver.load_field(out / "field.json")
    assert field.values.max() > 0.0


def test_solve_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("solve", "--eps", "0.3", "--out", str(a)) == 0
    assert run("solve", "--eps", "0.3", "--out", str(b)) == 0
    assert (a / "field.json").read_bytes() == (b / "field.json").read_bytes()
    assert (a / "field.values.csv").read_bytes() == \
           (b / "field.values.csv").read_bytes()


def test_solve_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"eps": 0.4, "max_iter": 50000}))
    out = tmp_path / "out"
    # flag wins over the config file value
    assert run("solve", "--config", str(cfg), "--eps", "0.3",
               "--out", str(out)) == 0
    assert read_json(out / "solve_manifest.json")["config"]["eps"] == 0.3


# ---------------------------------------------------------------------------
# simulate


def test_simulate_one_step_exit_exact(tmp_path):
    out = tmp_path / "out"
    code = run("simulate", "--eps", "3.0", "--n", "20", "--seed", "5",
               "--paul", "radial", "--carol", "radial", "--out", str(out))
    assert code == 0
    est = read_json(out / "estimate.json")
    # every direction exits the unit disk at once: payoff eps^2 K exactly
    assert est["mean"] == 3.0 * 3.0 * 0.5
    assert est["stderr"] == 0.0
    assert est["mean_rounds"] == 1.0


def test_simulate_gradient_needs_field(tmp_path):
    code = run("simulate", "--eps", "0.1", "--n", "10",
               "--out", str(tmp_path / "out"))
    assert code == 1
    assert not (tmp_path / "out").exists()


def test_simulate_with_field_and_determinism(tmp_path):
    fdir = tmp_path / "fld"
    assert run("solve", "--eps", "0.3", "--out", str(fdir)) == 0
    a, b = tmp_path / "a", tmp_path / "b"
    args = ("simulate", "--field", str(fdir / "field.json"), "--n", "60",
            "--seed", "11", "--x0", "0.2,0.0")
    assert run(*args, "--out", str(a)) == 0
    assert run(*args, "--out", str(b), "--threads", "4") == 0
    # same seed, any thread count: byte-identical artifact
    assert (a / "estimate.json").read_bytes() == (b / "estimate.json").read_bytes()
    est = read_json(a / "estimate.json")
    # eps comes from the stored field header
    assert est["effective_config"]["eps"] == 0.3
    assert est["effective_config"]["paul"] == "gradient"
    assert 0.0 < est["mean"] < 1.0


# estimate.json and sha256 of the trace, recorded with the one-episode-at-a-
# time game loop; the 2D arc arithmetic must not move a bit since
FROZEN_2D = {
    ("0,0", 3): (
        '{"mode": "estimate", "mean": 0.50150000000000006, "stderr": '
        '0.0094922370441621485, "n": 40, "mean_rounds": 100.3, '
        '"fallback_rounds": 80, "effective_config": {"eps": '
        '0.10000000000000001, "n": 40, "seed": 3, "x0": [0, 0], "paul": '
        '"gradient", "carol": "gradient", "domain": {"shape": "ball", '
        '"center": [0, 0], "radius": 1}, "field": "field.json"}}\n',
        "3f64b18e819b548ff59624fb3166b4aabe71bc45206f178dfefe40e69f94fc6c",
    ),
    ("0.4,-0.3", 4): (
        '{"mode": "estimate", "mean": 0.37450000000000011, "stderr": '
        '0.0085631140992586969, "n": 40, "mean_rounds": 74.900000000000006, '
        '"fallback_rounds": 0, "effective_config": {"eps": '
        '0.10000000000000001, "n": 40, "seed": 4, "x0": [0.40000000000000002, '
        '-0.29999999999999999], "paul": "gradient", "carol": "gradient", '
        '"domain": {"shape": "ball", "center": [0, 0], "radius": 1}, '
        '"field": "field.json"}}\n',
        "f855f19cd0a1f8e909f6572dfb44da80ad0602288133072d477b333a5d5dd88f",
    ),
}


def test_simulate_2d_bytes_frozen(tmp_path, monkeypatch):
    # gradient strategies on the disk oracle sampled on the default eps=0.1
    # grid; a relative field path keeps the artifact free of tmp_path
    monkeypatch.chdir(tmp_path)
    cfg = solver.resolve_config(solver.SolverConfig(eps=0.1), 2)
    oracle = analysis.BallOracle(R=1.0, L=1.0, N=2)
    solver.save_field(
        solver.field_from_function(solver.unit_ball(2), cfg, oracle.values),
        "field.json", cfg=cfg,
    )
    for (x0, seed), (estimate, trace_sha) in FROZEN_2D.items():
        out = f"out{seed}"
        assert run("simulate", "--field", "field.json", "--n", "40",
                   "--seed", str(seed), f"--x0={x0}", "--trace", "t.jsonl",
                   "--out", out) == 0
        assert (tmp_path / out / "estimate.json").read_text() == estimate
        trace = (tmp_path / out / "t.jsonl").read_bytes()
        assert hashlib.sha256(trace).hexdigest() == trace_sha


def test_simulate_manifest_counts(tmp_path):
    out = tmp_path / "out"
    assert run("simulate", "--eps", "0.2", "--n", "30", "--seed", "3",
               "--paul", "radial", "--carol", "radial", "--x0", "0,0",
               "--trace", "t.jsonl", "--out", str(out)) == 0
    est = read_json(out / "estimate.json")
    man = read_json(out / "simulate_manifest.json")
    taus = [json.loads(line)["tau"]
            for line in (out / "t.jsonl").read_text().splitlines()]
    assert man["command"] == "simulate" and man["mode"] == "estimate"
    assert man["episodes"] == 30 and man["rounds"] == sum(taus)
    # radial strategies fall back at x0 = z, once per player
    assert man["fallback_rounds"] == est["fallback_rounds"] == 60
    assert man["wall_time_s"] > 0 and man["rounds_per_s"] > 0
    assert not any("time" in k or "per_s" in k for k in est)

    diag = tmp_path / "diag"
    assert run("simulate", "--mode", "diagnostic", "--eps", "0.2", "--n", "20",
               "--seed", "7", "--x0", "0.3,0.0", "--out", str(diag)) == 0
    rep = read_json(diag / "diagnostic.json")
    man = read_json(diag / "simulate_manifest.json")
    assert man["mode"] == "diagnostic" and man["episodes"] == 20
    assert man["rounds"] == rep["rounds_pooled"]
    assert man["fallback_rounds"] == rep["fallbacks"]


def test_simulate_trace_jsonl(tmp_path):
    out = tmp_path / "out"
    code = run("simulate", "--eps", "0.5", "--n", "4", "--seed", "2",
               "--paul", "radial", "--carol", "radial",
               "--trace", "episodes.jsonl", "--out", str(out))
    assert code == 0
    lines = (out / "episodes.jsonl").read_text().strip().splitlines()
    assert len(lines) == 4
    rec = json.loads(lines[0])
    assert rec["tau"] == len(rec["positions"]) - 1


def test_simulate_diagnostic_mode(tmp_path):
    out = tmp_path / "out"
    code = run("simulate", "--mode", "diagnostic", "--eps", "0.2", "--n", "50",
               "--seed", "7", "--x0", "0.3,0.0", "--z", "0,0",
               "--out", str(out))
    assert code == 0
    rep = read_json(out / "diagnostic.json")
    for key in ("increment_mean", "increment_pass", "osth_pass",
                "osth_analytic_bound", "rounds_pooled"):
        assert key in rep
    assert rep["mode"] == "diagnostic"
    assert rep["n"] == 50


def test_simulate_fixed_axis_needs_axis(tmp_path):
    code = run("simulate", "--eps", "0.5", "--n", "4",
               "--paul", "fixed_axis", "--carol", "radial",
               "--out", str(tmp_path / "o"))
    assert code == 1


# ---------------------------------------------------------------------------
# verify


def test_verify_passes_on_defaults(tmp_path):
    out = tmp_path / "out"
    assert run("verify", "--eps", "0.3", "--out", str(out)) == 0
    rep = read_json(out / "verify_report.json")
    assert rep["all_pass"] is True
    names = {c["name"] for c in rep["checks"]}
    assert {"payoff_constant", "band_lemma_mirrored", "band_lemma_tilted",
            "band_lemma_enlarged", "operator_equivalence", "dpp_residual",
            "supersolution_comparison", "oracle_agreement"} <= names


def test_verify_flags_wrong_payoff_constant(tmp_path):
    out = tmp_path / "out"
    assert run("verify", "--eps", "0.3", "--K", "1.0", "--out", str(out)) == 3
    rep = read_json(out / "verify_report.json")
    assert rep["all_pass"] is False
    by_name = {c["name"]: c for c in rep["checks"]}
    assert not by_name["payoff_constant"]["passed"]
    # doubling K roughly doubles the field, far outside oracle agreement
    assert not by_name["oracle_agreement"]["passed"]


# ---------------------------------------------------------------------------
# levelset


def test_levelset_outputs(tmp_path):
    fdir = tmp_path / "fld"
    assert run("solve", "--eps", "0.3", "--out", str(fdir)) == 0
    out = tmp_path / "out"
    code = run("levelset", "--field", str(fdir / "field.json"),
               "--t-list", "0.1,0.25,9", "--out", str(out))
    assert code == 0
    lines = (out / "levelset.csv").read_text().strip().splitlines()
    assert lines[0] == "eps,t,count,hausdorff_vs_oracle"
    rows = [l.split(",") for l in lines[1:]]
    assert len(rows) == 3
    # superlevel sets nest: higher threshold, fewer nodes
    assert int(rows[1][2]) < int(rows[0][2])
    # out-of-range level gets the sentinel row
    assert rows[2][2] == "0" and rows[2][3] == "inf"
    assert float(rows[0][3]) < 1.0
    manifest = read_json(out / "levelset_manifest.json")
    assert manifest["t_list"] == [0.1, 0.25, 9.0]


def test_levelset_requires_field(tmp_path):
    assert run("levelset", "--out", str(tmp_path / "o")) == 1


# ---------------------------------------------------------------------------
# converge


def test_converge_outputs(tmp_path):
    out = tmp_path / "out"
    code = run("converge", "--eps-list", "0.5,0.4", "--t-list", "0.1",
               "--out", str(out))
    assert code == 0
    lines = (out / "converge.csv").read_text().strip().splitlines()
    assert lines[0] == "eps,grid_h,iterations,sup_error,boundary_max,hausdorff_t0.1"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[0]) == 0.5
    assert float(first[1]) == 0.25
    assert 0.0 < float(first[3]) < 0.5
    manifest = read_json(out / "converge_manifest.json")
    assert manifest["K"] == 0.5 and manifest["constant_C"] == 0.5
    assert len(manifest["rows"]) == 2


def test_unknown_strategy_name(tmp_path):
    code = run("simulate", "--eps", "0.5", "--n", "4",
               "--paul", "zigzag", "--carol", "radial",
               "--out", str(tmp_path / "o"))
    assert code == 1
