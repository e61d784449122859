import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from curvegame import analysis, cli, game, solver, sphere
from curvegame.errors import InvalidParameterError


def run(*argv):
    return cli.main(list(argv))


def read_json(path):
    return json.loads(path.read_text())


def write_json(path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


# the ball3-solve benchmark config
BALL3 = {"domain": {"shape": "ball", "center": [0, 0, 0], "radius": 1},
         "eps": 0.4, "axis_count": 64, "quad_order": 16}

# domains that do not hold the origin, or are not centred on it
OFF_CENTRE = {"disk": {"shape": "ball", "center": [3, 0], "radius": 1},
              "ellipse": {"shape": "ellipse", "center": [0, 0], "semi_axes": [3, 1]}}


# ---------------------------------------------------------------------------
# plumbing


@pytest.mark.parametrize("module", ["scipy.spatial", "scipy.sparse"])
def test_cli_import_leaves_scipy_unloaded(module):
    # only levelset and converge need the KD-tree, and only solver kernels
    # build sparse maps; each loads on first use, so simulate and every
    # command's start-up skip them
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (f"import sys, curvegame.cli; "
            f"assert {module!r} not in sys.modules, '{module} loaded'")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": path})


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


def test_unknown_config_keys_exit_one(tmp_path):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "out"
    field = str(tmp_path / "fld" / "field.json")
    assert run("solve", "--eps", "0.5", "--out", str(tmp_path / "fld")) == 0
    for command, doc in [
        ("solve", {"eps": 0.3, "axis_cont": 8}),
        ("solve", {"eps": 0.3, "threads": 2}),
        ("simulate", {"eps": 0.5, "lemma_function": "one"}),
        ("verify", {"parallel": True}),
        ("levelset", {"domain": {"shape": "ball", "center": [0, 0], "radius": 1}}),
        # converge resets both per eps
        ("converge", {"tol_iter": 1e-4}),
        ("converge", {"grid_h": 0.1}),
        ("converge", {"parallel": True}),
        # nothing random runs in these, and the oracle's L follows from K
        ("solve", {"eps": 0.3, "seed": 1}),
        ("levelset", {"field": field, "seed": 1}),
        ("converge", {"eps_list": [0.5], "seed": 1}),
        ("levelset", {"field": field, "L": 2.0}),
        ("converge", {"eps_list": [0.5], "L": 2.0}),
        # a diagnostic plays no Carol and writes no trace
        ("simulate", {"eps": 0.5, "n": 4, "mode": "diagnostic", "carol": "radial"}),
    ]:
        cfg.write_text(json.dumps(doc))
        assert run(command, "--config", str(cfg), "--out", str(out)) == 1, doc
        assert not out.exists()
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).resolve().parents[1] / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    readme = {"domain": {"shape": "ball", "center": [0, 0], "radius": 1.0}}
    for doc, flags in [(workloads.BALL3_CONFIG, []), (readme, ["--eps", "0.5"])]:
        cfg.write_text(json.dumps(doc))
        assert run("solve", "--config", str(cfg), *flags, "--out", str(out)) == 0


def test_traced_bench_patches_and_restores_the_layers():
    """bench/tracing.py's instrument reads every callable it wraps when it is
    entered, so a deleted or renamed one would fail every traced bench op."""
    spec = importlib.util.spec_from_file_location(
        "tracing", Path(__file__).resolve().parents[1] / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    owners = (solver, game, sphere, sphere.CapIntersection)
    before = [dict(vars(owner)) for owner in owners]
    with tracing.instrument(tracing.Tracer(), solver, game, sphere):
        patched = any(vars(owner)[name] is not fn
                      for owner, was in zip(owners, before) for name, fn in was.items())
    assert patched
    for owner, was in zip(owners, before):
        now = vars(owner)
        assert now.keys() == was.keys()
        assert all(now[name] is fn for name, fn in was.items()), owner


def test_config_keys_each_command_reads_are_accepted(tmp_path):
    cfg = tmp_path / "cfg.json"
    disk = {"shape": "ball", "center": [0, 0], "radius": 1.0}
    settings = {"eps": 0.3, "K": 0.5, "axis_count": 8, "quad_order": 16,
                "tol_iter": 1e-4, "max_iter": 10, "grid_h": 0.1}
    docs = {
        "solve": {"domain": disk, **settings},
        "simulate": {"domain": disk, "axis": [1, 0], "eps": 0.3, "n": 4,
                     "mode": "estimate", "field": "f.json", "paul": "radial",
                     "carol": "radial", "x0": [0, 0], "z": [0, 0],
                     "trace": "t.jsonl", "seed": 1},
        "verify": {"domain": disk, "lemma_function": "one",
                   "lemma_eps_list": [0.01], "seed": 1, **settings},
        "levelset": {"field": "f.json", "t_list": [0.1]},
        "converge": {"domain": disk, "eps_list": [0.3], "t_list": [0.1],
                     "K": 0.5, "axis_count": 8, "quad_order": 16, "max_iter": 10},
    }
    for command, doc in docs.items():
        cfg.write_text(json.dumps(doc))
        args = cli._build_parser().parse_args([command, "--config", str(cfg)])
        assert cli._effective(args) == doc


# one non-default valid value per solver setting
SETTING_VALUES = {"eps": 0.4, "K": 0.6, "axis_count": 16, "quad_order": 32,
                  "tol_iter": 1e-3, "max_iter": 5000, "grid_h": 0.2}


def test_solver_settings_same_as_flag_and_config_key(tmp_path):
    assert set(SETTING_VALUES) == set(cli.SOLVER_SETTINGS)
    cfg = tmp_path / "cfg.json"
    for key, value in SETTING_VALUES.items():
        flag = "--" + key.replace("_", "-")
        eps = [] if key == "eps" else ["--eps", "0.5"]
        a, b = tmp_path / key / "flag", tmp_path / key / "config"
        assert run("solve", *eps, flag, str(value), "--out", str(a)) == 0, key
        cfg.write_text(json.dumps({key: value}))
        assert run("solve", *eps, "--config", str(cfg), "--out", str(b)) == 0, key
        header = read_json(a / "field.json")["config"]
        assert header == read_json(b / "field.json")["config"], key
        assert header[key] == value, key
        bad = ["abc", value + 0.5] if isinstance(value, int) else ["abc"]
        for v in bad:
            out = tmp_path / key / "bad"
            assert run("solve", *eps, flag, str(v), "--out", str(out)) == 1, (key, v)
            cfg.write_text(json.dumps({key: v}))
            assert run("solve", *eps, "--config", str(cfg),
                       "--out", str(out)) == 1, (key, v)
            assert not out.exists()


def test_config_values_parse_like_their_flags(tmp_path):
    # a config value goes through the same type as its flag: what the flag
    # refuses, the config refuses too, before anything is written
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "out"
    radial = {"eps": 0.5, "paul": "radial", "carol": "radial"}
    field = tmp_path / "fld" / "field.json"
    assert run("solve", "--eps", "0.5", "--out", str(field.parent)) == 0
    cases = [
        ("simulate", {**radial, "n": 4.7}, ["--n", "4.7"]),
        ("simulate", {**radial, "seed": 1.5}, ["--seed", "1.5"]),
        ("simulate", {**radial, "x0": ["a", 0]}, ["--x0=a,0"]),
        ("levelset", {"field": str(field), "t_list": ["a"]}, ["--t-list", "a"]),
        ("converge", {"eps_list": [True]}, ["--eps-list", "True"]),
        ("converge", {"eps_list": [0.5], "t_list": "x"}, ["--t-list", "x"]),
    ]
    for command, doc, flags in cases:
        base = {k: v for k, v in doc.items() if k in ("eps", "paul", "carol", "field")}
        cfg.write_text(json.dumps(doc))
        assert run(command, "--config", str(cfg), "--out", str(out)) == 1, doc
        cfg.write_text(json.dumps(base))
        assert run(command, "--config", str(cfg), *flags, "--out", str(out)) == 1, flags
        assert not out.exists()
    # a whole number is still a whole number, and a list's items are parsed
    cfg.write_text(json.dumps({**radial, "n": 4, "seed": "7", "x0": [0.1, 0]}))
    assert run("simulate", "--config", str(cfg), "--out", str(out)) == 0
    est = read_json(out / "estimate.json")
    assert est["n"] == 4 and est["effective_config"]["seed"] == 7
    assert est["effective_config"]["x0"] == [0.1, 0.0]


def test_verify_and_converge_take_axis_count_from_config(tmp_path, monkeypatch):
    seen = []
    solve, study = solver.solve, analysis.convergence_study

    def spy_solve(domain, cfg, *a, **kw):
        seen.append(("verify", cfg.axis_count))
        return solve(domain, cfg, *a, **kw)

    def spy_study(domain, eps_list, template, **kw):
        seen.append(("converge", template.axis_count))
        return study(domain, eps_list, template, **kw)

    monkeypatch.setattr(solver, "solve", spy_solve)
    monkeypatch.setattr(analysis, "convergence_study", spy_study)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"axis_count": 16}))
    assert run("verify", "--config", str(cfg), "--eps", "0.5",
               "--out", str(tmp_path / "v")) == 0
    assert run("converge", "--config", str(cfg), "--eps-list", "0.5",
               "--out", str(tmp_path / "c")) == 0
    assert seen == [("verify", 16), ("converge", 16)]


def test_malformed_command_line_exits_one(tmp_path, capsys):
    # argparse alone would exit 2, the non-convergence code
    field = tmp_path / "fld" / "field.json"
    assert run("solve", "--eps", "0.5", "--out", str(field.parent)) == 0
    out = ["--out", str(tmp_path / "out")]
    for argv in (["solve", "--eps", "abc"], ["solve", "--bogus"], ["bogus"],
                 ["simulate", "--x0", "a,b"], ["solve", "--eps", "0.5", "--seed", "1", *out],
                 ["solve", "--eps", "0.5", "--K", "inf", *out],
                 ["levelset", "--field", str(field), "--L", "2", *out],
                 ["simulate", "--mode", "diagnostic", "--eps", "0.5", "--n", "4",
                  "--trace", "t.jsonl", *out], []):
        assert run(*argv) == 1, argv
    assert not (tmp_path / "out").exists()
    assert "invalid float value" in capsys.readouterr().err
    for argv in (["--help"], ["solve", "--help"]):
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 0


@pytest.mark.parametrize("levels", ["-0.1,0.1", "0.1,nan"])
def test_levelset_refuses_a_negative_level(tmp_path, levels):
    """A negative or NaN level is a usage error, superlevel_set's own rule:
    exit 1 with nothing written."""
    assert run("solve", "--eps", "0.5", "--out", str(tmp_path / "fld")) == 0
    out = tmp_path / "out"
    assert run("levelset", "--field", str(tmp_path / "fld" / "field.json"),
               f"--t-list={levels}", "--out", str(out)) == 1
    assert not out.exists()


def test_levelset_computes_a_level_above_the_maximum(tmp_path):
    """A level above the field's maximum is computed like any other: both
    superlevel sets are empty, so the count and the distance are 0."""
    assert run("solve", "--eps", "0.5", "--out", str(tmp_path / "fld")) == 0
    out = tmp_path / "out"
    assert run("levelset", "--field", str(tmp_path / "fld" / "field.json"),
               "--t-list", "9", "--out", str(out)) == 0
    assert (out / "levelset.csv").read_text().splitlines()[1] == "0.5,9,0,0"


_PARSER_REUSE = """
import sys
from curvegame import cli
assert cli._build_parser.cache_info().currsize == 0, "parser built at import"
codes = [cli.main(["solve", "--bogus"]),
         cli.main(["solve", "--eps", "0.5", "--out", sys.argv[1]])]
print(codes, cli._build_parser.cache_info().misses)
"""


def test_parser_is_built_on_first_main_and_reused(tmp_path):
    """In a fresh process: no parser at import; a usage error, then a valid
    command on the same parser, exit 1 and 0."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    got = subprocess.run([sys.executable, "-c", _PARSER_REUSE, str(tmp_path / "o")],
                         check=True, capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert got.stdout.split("\n")[-2] == "[1, 0] 1"
    assert (tmp_path / "o" / "field.json").exists()


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


def test_out_naming_a_file_exits_one_before_the_work(tmp_path, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("solve ran")

    monkeypatch.setattr(solver, "solve", never)
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    assert run("solve", "--eps", "0.3", "--out", str(afile)) == 1
    assert afile.read_text() == "kept\n"


def test_out_below_a_file_exits_one_before_the_work(tmp_path, monkeypatch, capsys):
    """The nearest existing path among --out and its parents must be a
    directory; else the command never runs and nothing is created."""
    def never(*args, **kwargs):
        raise AssertionError("solve ran")

    monkeypatch.setattr(solver, "solve", never)
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    for out in (afile / "sub", afile / "sub" / "deeper"):
        assert run("solve", "--eps", "0.3", "--out", str(out)) == 1
        assert "is not a directory" in capsys.readouterr().err
    assert afile.read_text() == "kept\n"
    assert sorted(tmp_path.iterdir()) == [afile]


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


def test_solve_manifest_carries_solver_telemetry(tmp_path):
    out = tmp_path / "run"
    assert run("solve", "--eps", "0.2", "--out", str(out)) == 0
    manifest = read_json(out / "solve_manifest.json")
    tel = manifest["solver"]
    assert set(tel["phase_s"]) == {"kernel_build", "policy_extraction", "assembly",
                                   "evaluation", "polish"}
    assert all(v >= 0.0 for v in tel["phase_s"].values())
    assert tel["sweeps"] == manifest["iterations"]
    # the seed sweep, one policy sweep per evaluation, the polish
    assert tel["sweeps"] == 1 + tel["policy_steps"] + tel["polish_sweeps"]
    assert 1 <= tel["policy_steps"] <= 10 and tel["matvecs"] > 0
    # one count per policy evaluation
    assert len(tel["evaluation_matvecs"]) == tel["policy_steps"]
    assert min(tel["evaluation_matvecs"]) > 0
    assert sum(tel["evaluation_matvecs"]) == tel["matvecs"]
    assert tel["stop"] == manifest["config"]["tol_iter"] * 1e-9
    # one record per sweep run, the last one from the result
    assert len(tel["sweep_log"]) == tel["sweeps"]
    assert all(e["phase"] in {"seed", "policy", "polish"}
               and e["increment"] >= 0.0 and e["s"] > 0.0 for e in tel["sweep_log"])
    assert [e["phase"] for e in tel["sweep_log"]].count("seed") == 1
    assert tel["sweep_log"][0]["phase"] == "seed"
    assert tel["sweep_log"][-1]["increment"] == manifest["residual"]
    # the circle's max-min folds all M = 64 Paul rows at every node
    assert all(e["rows"] == 64 * tel["interior"] for e in tel["sweep_log"])
    assert tel["interior"] == 305 and 0 < tel["rim"] < tel["interior"]
    assert min(tel["nnz_cover"], tel["nnz_merged"], tel["nnz_P"]) > 0
    # the circle's CSR cover: a float64 weight and an int32 column index per
    # weight, and 164 int32 row pointers (M = 64 steps, kmax - 1 = 35 more
    # steps of the run, 64 shortest arcs)
    assert tel["table_bytes"] == 12 * tel["nnz_cover"] + 4 * 164 == 27_764
    assert manifest["residual"] <= 1e-12
    # timings and counts stay out of the byte-stable field files
    header = read_json(out / "field.json")
    assert not {"solver", "phase_s", "policy_steps", "residual",
                "evaluation_matvecs", "sweep_log", "rows"} & set(header)
    assert header["iterations"] == tel["sweeps"]


def test_solve_bytes_do_not_depend_on_thread_settings(tmp_path):
    """2D at eps = 0.3 and 0.1 (2 509 nodes, so BiCGSTAB's inner products
    run over long vectors), and the 3D ball at eps = 0.4, 64 axes, order 16,
    whose sweeps run BLAS products, at one and two BLAS threads."""
    src = str(Path(cli.__file__).resolve().parents[1])
    ball3 = write_json(tmp_path / "ball3.json", BALL3)
    for label, args in (("disk", ["--eps", "0.3"]), ("disk01", ["--eps", "0.1"]),
                        ("ball3", ["--config", ball3])):
        outs = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": src, "OMP_NUM_THREADS": threads,
                   "OPENBLAS_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
            out = tmp_path / label / threads
            subprocess.run([sys.executable, "-m", "curvegame.cli", "solve", *args,
                            "--threads", threads, "--out", str(out)],
                           check=True, env=env, capture_output=True)
            outs.append(out)
        for name in ("field.json", "field.values.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), label


def test_solve_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("solve", "--eps", "0.3", "--out", str(a)) == 0
    assert run("solve", "--eps", "0.3", "--out", str(b)) == 0
    assert (a / "field.json").read_bytes() == (b / "field.json").read_bytes()
    assert (a / "field.values.csv").read_bytes() == \
           (b / "field.values.csv").read_bytes()


def test_null_config_setting_writes_the_default_field(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"eps": 0.3, "K": None}))
    assert run("solve", "--config", str(cfg), "--out", str(tmp_path / "a")) == 0
    assert run("solve", "--eps", "0.3", "--out", str(tmp_path / "b")) == 0
    for name in ("field.json", "field.values.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_solve_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"eps": 0.4, "max_iter": 50000}))
    out = tmp_path / "out"
    # flag wins over the config file value
    assert run("solve", "--config", str(cfg), "--eps", "0.3",
               "--out", str(out)) == 0
    assert read_json(out / "solve_manifest.json")["config"]["eps"] == 0.3


@pytest.mark.parametrize("domain", [
    {"shape": "ball", "center": [0, 0], "radius": math.inf},
    {"shape": "ellipse", "center": [0, 0], "semi_axes": [1, math.inf]},
    {"shape": "ball", "center": [math.nan, 0], "radius": 1},
])
def test_solve_on_a_non_finite_domain_exits_one(tmp_path, domain):
    """A config domain with an infinite radius or semi-axis, or a NaN
    centre (JSON Infinity and NaN), is a usage error: exit 1, nothing
    written."""
    out = tmp_path / "out"
    assert run("solve", "--config", write_json(tmp_path / "c.json", {"domain": domain}),
               "--eps", "0.5", "--out", str(out)) == 1
    assert not out.exists()


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


def test_simulate_starts_at_the_centre_of_an_off_centre_disk(tmp_path):
    """Without --x0 and --z, simulate starts, and aims, at the domain's
    centre, here (3, 0), not at the origin, which lies outside the disk."""
    cfg = write_json(tmp_path / "c.json", {"domain": OFF_CENTRE["disk"]})
    fdir = tmp_path / "fld"
    assert run("solve", "--config", cfg, "--eps", "0.3", "--out", str(fdir)) == 0
    est = tmp_path / "est"
    assert run("simulate", "--field", str(fdir / "field.json"), "--n", "20",
               "--out", str(est)) == 0
    doc = read_json(est / "estimate.json")
    assert doc["effective_config"]["x0"] == [3.0, 0.0] and doc["mean"] > 0.3
    diag = tmp_path / "diag"
    assert run("simulate", "--config", cfg, "--mode", "diagnostic", "--eps", "0.3",
               "--n", "20", "--out", str(diag)) == 0
    conf = read_json(diag / "diagnostic.json")["effective_config"]
    assert conf["x0"] == conf["z"] == [3.0, 0.0]


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


# the same for 3D gradient strategies on the ball oracle (u = (1 - |x|^2)/4),
# recorded with each player interpolating the gradient on its own; at the
# centre the gradient vanishes, so round 0 falls back to e1 for both players
FROZEN_3D = {
    ("0,0,0", 5): (
        '{"mode": "estimate", "mean": 0.2525, "stderr": 0.0026157418189029862, '
        '"n": 20, "mean_rounds": 101, "fallback_rounds": 40, '
        '"effective_config": {"eps": 0.10000000000000001, "n": 20, "seed": 5, '
        '"x0": [0, 0, 0], "paul": "gradient", "carol": "gradient", "domain": '
        '{"shape": "ball", "center": [0, 0, 0], "radius": 1}, "field": '
        '"field.json"}}\n',
        "717afba1661ebc2bbcb32e9d31a7ea17b546a23e3ab704582247493ee9252cea",
    ),
    ("0.4,-0.3,0.2", 6): (
        '{"mode": "estimate", "mean": 0.18150000000000005, "stderr": '
        '0.0021718897907485758, "n": 20, "mean_rounds": 72.599999999999994, '
        '"fallback_rounds": 0, "effective_config": {"eps": 0.10000000000000001, '
        '"n": 20, "seed": 6, "x0": [0.40000000000000002, -0.29999999999999999, '
        '0.20000000000000001], "paul": "gradient", "carol": "gradient", '
        '"domain": {"shape": "ball", "center": [0, 0, 0], "radius": 1}, '
        '"field": "field.json"}}\n',
        "a209fc84ef2733e970fd088b350187ad4eaeacad08f4fd39e1b0a26aed4d8592",
    ),
    ("-0.5,0.1,0.6", 7): (
        '{"mode": "estimate", "mean": 0.10037500000000002, "stderr": '
        '0.0023457338095494037, "n": 20, "mean_rounds": 40.149999999999999, '
        '"fallback_rounds": 0, "effective_config": {"eps": 0.10000000000000001, '
        '"n": 20, "seed": 7, "x0": [-0.5, 0.10000000000000001, '
        '0.59999999999999998], "paul": "gradient", "carol": "gradient", '
        '"domain": {"shape": "ball", "center": [0, 0, 0], "radius": 1}, '
        '"field": "field.json"}}\n',
        "cd66e02e2be6151c00e97935d1c98ed24e22b26db2b34e0521e156d984f64f54",
    ),
}


def _check_frozen_simulate(tmp_path, monkeypatch, dim: int, n: int, frozen):
    # gradient strategies on the ball oracle sampled on the default eps=0.1
    # grid; a relative field path keeps the artifact free of tmp_path
    monkeypatch.chdir(tmp_path)
    cfg = solver.resolve_config(solver.SolverConfig(eps=0.1), dim)
    oracle = analysis.BallOracle(R=1.0, L=1.0, N=dim)
    solver.save_field(
        solver.field_from_function(solver.unit_ball(dim), cfg, oracle.values),
        "field.json", cfg=cfg,
    )
    for (x0, seed), (estimate, trace_sha) in frozen.items():
        out = f"out{seed}"
        assert run("simulate", "--field", "field.json", "--n", str(n),
                   "--seed", str(seed), f"--x0={x0}", "--trace", "t.jsonl",
                   "--out", out) == 0
        assert (tmp_path / out / "estimate.json").read_text() == estimate
        trace = (tmp_path / out / "t.jsonl").read_bytes()
        assert hashlib.sha256(trace).hexdigest() == trace_sha


def test_simulate_2d_bytes_frozen(tmp_path, monkeypatch):
    _check_frozen_simulate(tmp_path, monkeypatch, 2, 40, FROZEN_2D)


def test_simulate_3d_bytes_frozen(tmp_path, monkeypatch):
    _check_frozen_simulate(tmp_path, monkeypatch, 3, 20, FROZEN_3D)


def _save_oracle_field(dim: int) -> None:
    """field.json in the working directory, as _check_frozen_simulate writes
    it."""
    cfg = solver.resolve_config(solver.SolverConfig(eps=0.1), dim)
    oracle = analysis.BallOracle(R=1.0, L=1.0, N=dim)
    solver.save_field(
        solver.field_from_function(solver.unit_ball(dim), cfg, oracle.values),
        "field.json", cfg=cfg,
    )


# sha256 of the canonical field files of the oracle fields above, recorded
# before save_field wrote a binary copy beside them; the copy must not move
# a byte of them
FROZEN_FIELD_FILES = {
    2: ("17414796e1dd29ddf9b5fa43a25c5db217e3969db174af18523e9486f1c567bf",
        "4203da941613a636e650c80d331fa8105865d17ecf23a4bb377f79f0eae8a9fd"),
    3: ("f6757f3b58c30199ea5cdfda6c8cda5e737255c72aac9952f1f0319559e18cf8",
        "d5a5a1699ace1e72b49be3cb9a72bdbf2a7548c076664aa6b3d257195e448357"),
}


@pytest.mark.parametrize("dim", [2, 3])
def test_field_files_frozen(tmp_path, monkeypatch, dim):
    monkeypatch.chdir(tmp_path)
    _save_oracle_field(dim)
    got = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                for name in ("field.json", "field.values.csv"))
    assert got == FROZEN_FIELD_FILES[dim]


@pytest.mark.parametrize("dim", [2, 3])
def test_simulate_bytes_do_not_depend_on_the_binary_copy(tmp_path, monkeypatch,
                                                         dim):
    monkeypatch.chdir(tmp_path)
    _save_oracle_field(dim)
    argv = ["simulate", "--field", "field.json", "--n", "20", "--seed", "5",
            "--x0=" + ",".join(["0.3"] * dim)]
    assert run(*argv, "--out", "with") == 0
    (tmp_path / "field.values.bin").unlink()
    assert run(*argv, "--out", "without") == 0
    assert (tmp_path / "with" / "estimate.json").read_bytes() == \
           (tmp_path / "without" / "estimate.json").read_bytes()


def _missing_value(rows):
    rows[1][0] = ""


def _ragged_row(rows):
    # the value count stays right: only the row lengths give it away
    rows[1].insert(0, rows[0].pop())


def _non_numeric(rows):
    rows[2][3] = "0.5x"


@pytest.mark.parametrize("corrupt", [_missing_value, _ragged_row, _non_numeric])
def test_malformed_values_file_exits_one(tmp_path, corrupt):
    cfg = solver.resolve_config(solver.SolverConfig(eps=0.3), 2)
    path = tmp_path / "f.json"
    solver.save_field(solver.empty_field(solver.unit_ball(2), cfg), path, cfg=cfg)
    values = tmp_path / "f.values.csv"
    rows = [line.split(",") for line in values.read_text().splitlines()]
    corrupt(rows)
    values.write_text("".join(",".join(row) + "\n" for row in rows))
    with pytest.raises(InvalidParameterError):
        solver.load_field(path)
    assert run("simulate", "--field", str(path), "--n", "5",
               "--out", str(tmp_path / "out")) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["../x.values.csv", "absolute", "."])
def test_values_file_outside_the_header_folder_exits_one(tmp_path, name):
    """values_file must be a plain file name: a header naming a file in the
    parent folder, an absolute path or "." is refused, though the file
    named is a readable field's CSV."""
    cfg = solver.resolve_config(solver.SolverConfig(eps=0.3), 2)
    field = solver.empty_field(solver.unit_ball(2), cfg)
    solver.save_field(field, tmp_path / "x.json", cfg=cfg)
    (tmp_path / "sub").mkdir()
    path = tmp_path / "sub" / "f.json"
    solver.save_field(field, path, cfg=cfg)
    header = read_json(path)
    header["values_file"] = (str(tmp_path / "x.values.csv")
                             if name == "absolute" else name)
    path.write_text(json.dumps(header))
    with pytest.raises(InvalidParameterError, match="plain file name"):
        solver.load_field(path)
    assert run("simulate", "--field", str(path), "--n", "5",
               "--out", str(tmp_path / "out")) == 1
    assert not (tmp_path / "out").exists()


def test_a_grid_shape_the_values_cannot_hold_exits_one(tmp_path):
    """A header whose grid_shape asks for 10^11 values, with the CSV and
    its binary copy intact, is refused as a usage error: no buffer is sized
    from the header before the CSV's length bounds it."""
    cfg = solver.resolve_config(solver.SolverConfig(eps=0.3), 2)
    path = tmp_path / "f.json"
    solver.save_field(solver.empty_field(solver.unit_ball(2), cfg), path, cfg=cfg)
    write_json(path, {**read_json(path), "grid_shape": [100000, 100000, 10]})
    with pytest.raises(InvalidParameterError, match="grid_shape"):
        solver.load_field(path)
    assert run("simulate", "--field", str(path), "--n", "5",
               "--out", str(tmp_path / "out")) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [("grid_h", -0.25), ("grid_h", 0.0),
                                        ("box_lo", [-1.5])])
def test_bad_header_geometry_exits_one(tmp_path, key, value):
    """A field header whose grid_h is not positive or whose box_lo is
    short is a usage error for simulate and levelset: exit 1, nothing
    written."""
    cfg = solver.resolve_config(solver.SolverConfig(eps=0.3), 2)
    path = tmp_path / "f.json"
    solver.save_field(solver.empty_field(solver.unit_ball(2), cfg), path, cfg=cfg)
    write_json(path, {**read_json(path), key: value})
    out = tmp_path / "out"
    assert run("simulate", "--field", str(path), "--paul", "gradient", "--carol", "gradient",
               "--n", "5", "--out", str(out)) == 1
    assert run("levelset", "--field", str(path), "--t-list", "0.1", "--out", str(out)) == 1
    assert not out.exists()


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


def test_simulate_diagnostic_needs_two_episodes(tmp_path, recwarn):
    # one episode has no stderr: refused before anything is computed or written
    out = tmp_path / "out"
    code = run("simulate", "--mode", "diagnostic", "--eps", "0.2", "--n", "1",
               "--out", str(out))
    assert code == 1
    assert not (out / "diagnostic.json").exists()
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_simulate_estimate_needs_two_episodes(tmp_path):
    # one episode has no stderr: refused before any episode is played or
    # anything is written, not reported as "stderr": 0
    out = tmp_path / "out"
    code = run("simulate", "--eps", "0.2", "--n", "1", "--paul", "radial",
               "--carol", "radial", "--out", str(out))
    assert code == 1
    assert not out.exists()


def test_simulate_fixed_axis_needs_axis(tmp_path):
    code = run("simulate", "--eps", "0.5", "--n", "4",
               "--paul", "fixed_axis", "--carol", "radial",
               "--out", str(tmp_path / "o"))
    assert code == 1


def test_simulate_unknown_mode_exits_one(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"mode": "bogus"}))
    out = tmp_path / "o"
    flags = ["--eps", "0.5", "--n", "4", "--paul", "radial", "--carol", "radial"]
    assert run("simulate", "--config", str(cfg), *flags, "--out", str(out)) == 1
    # a flag takes the same check as a config value
    assert run("simulate", "--mode", "bogus", *flags, "--out", str(out)) == 1
    assert not out.exists()


def test_simulate_fixed_axis_and_diagnostic_strategy(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"axis": [1, 0]}))
    assert run("simulate", "--config", str(cfg), "--eps", "0.5", "--n", "4",
               "--paul", "fixed_axis", "--carol", "radial",
               "--out", str(tmp_path / "est")) == 0
    assert run("simulate", "--mode", "diagnostic", "--paul", "radial",
               "--eps", "0.5", "--n", "4", "--out", str(tmp_path / "diag")) == 0


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


@pytest.mark.parametrize("shape", sorted(OFF_CENTRE))
def test_verify_passes_off_the_origin(tmp_path, shape):
    """The barrier is centred on the domain with twice its support radius;
    centred on the origin with radius 2 it was no supersolution on the disk
    of radius 1 about (3, 0) (worst slack 7.4) nor on the ellipse with
    semi-axes (3, 1)."""
    cfg = write_json(tmp_path / "c.json", {"domain": OFF_CENTRE[shape]})
    out = tmp_path / "out"
    assert run("verify", "--config", cfg, "--eps", "0.3", "--out", str(out)) == 0
    checks = read_json(out / "verify_report.json")["checks"]
    assert "supersolution_comparison" in {c["name"] for c in checks}
    assert all(c["passed"] for c in checks)


def test_verify_passes_on_the_ball3_config(tmp_path):
    """In 3D every check passes, the DPP residual and the barrier's
    supersolution check among them, each a 3D sweep on a kernel of its own."""
    out = tmp_path / "out"
    assert run("verify", "--config", write_json(tmp_path / "c.json", BALL3),
               "--out", str(out)) == 0
    rep = read_json(out / "verify_report.json")
    assert rep["all_pass"] is True and rep["effective_config"]["eps"] == 0.4
    assert {"dpp_residual", "supersolution_comparison", "oracle_agreement"} <= {
        c["name"] for c in rep["checks"]}


def test_verify_flags_wrong_payoff_constant(tmp_path):
    out = tmp_path / "out"
    assert run("verify", "--eps", "0.3", "--K", "1.0", "--out", str(out)) == 3
    rep = read_json(out / "verify_report.json")
    assert rep["all_pass"] is False
    by_name = {c["name"]: c for c in rep["checks"]}
    assert not by_name["payoff_constant"]["passed"]
    # doubling K roughly doubles the field, far outside oracle agreement
    assert not by_name["oracle_agreement"]["passed"]


@pytest.mark.parametrize("name, code", [("one", 0), ("nope", 1)])
def test_verify_lemma_function_from_config(tmp_path, name, code):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"lemma_function": name}))
    out = tmp_path / "out"
    assert run("verify", "--config", str(cfg), "--eps", "0.3", "--out", str(out)) == code
    assert out.exists() == (code == 0)


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
    # a level above the maximum is computed: both sets empty, distance 0
    assert rows[2][2] == "0" and rows[2][3] == "0"
    assert float(rows[0][3]) < 1.0
    manifest = read_json(out / "levelset_manifest.json")
    assert manifest["t_list"] == [0.1, 0.25, 9.0]


def test_ellipse_solve_field_reads_back_in_levelset(tmp_path):
    cfg = tmp_path / "ellipse.json"
    cfg.write_text(json.dumps({"domain": {"shape": "ellipse", "center": [0, 0],
                                          "semi_axes": [1, 0.5]}}))
    fdir = tmp_path / "fld"
    assert run("solve", "--config", str(cfg), "--eps", "0.3", "--out", str(fdir)) == 0
    field, header = solver.load_field(fdir / "field.json")
    assert header["domain"] == {"shape": "ellipse", "center": [0.0, 0.0],
                                "semi_axes": [1.0, 0.5]}
    out = tmp_path / "out"
    assert run("levelset", "--field", str(fdir / "field.json"),
               "--t-list", "0.1", "--out", str(out)) == 0
    row = (out / "levelset.csv").read_text().splitlines()[1].split(",")
    # no oracle for an ellipse, so no distance
    count = np.count_nonzero((field.values > 0.1) & field.interior_mask)
    assert row[2:] == [str(count), ""] and count > 0


def test_levelset_on_the_ball3_field(tmp_path):
    fdir = tmp_path / "fld"
    assert run("solve", "--config", write_json(tmp_path / "c.json", BALL3),
               "--out", str(fdir)) == 0
    out = tmp_path / "out"
    assert run("levelset", "--field", str(fdir / "field.json"),
               "--t-list", "0.05,0.15", "--out", str(out)) == 0
    rows = [l.split(",") for l in (out / "levelset.csv").read_text().splitlines()[1:]]
    assert len(rows) == 2 and int(rows[1][2]) < int(rows[0][2])
    assert all(0.0 <= float(r[3]) < 0.5 for r in rows)


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


def test_converge_in_3d(tmp_path):
    cfg = write_json(tmp_path / "c.json", {"domain": BALL3["domain"]})
    out = tmp_path / "out"
    assert run("converge", "--config", cfg, "--eps-list", "0.5,0.4", "--t-list", "0.1",
               "--axis-count", "32", "--quad-order", "16", "--out", str(out)) == 0
    rows = read_json(out / "converge_manifest.json")["rows"]
    assert [r["eps"] for r in rows] == [0.5, 0.4]
    assert all(0.0 < r["sup_error"] < 0.25 and math.isfinite(r["hausdorff"]["0.1"])
               for r in rows)
    assert len((out / "converge.csv").read_text().splitlines()) == 3


def test_converge_manifest_with_an_infinite_distance_is_json(tmp_path):
    """At eps = 0.2 the field's maximum is about 0.47, so its superlevel set
    at t = 0.49 is empty while the oracle's is not: the distance is
    infinite.  The manifest writes it as JSON reads it; the CSV cell is inf."""
    out = tmp_path / "cv"
    assert run("converge", "--eps-list", "0.2", "--t-list", "0.49",
               "--out", str(out)) == 0
    manifest = read_json(out / "converge_manifest.json")
    assert manifest["rows"][0]["hausdorff"] == {"0.49": math.inf}
    assert (out / "converge.csv").read_text().splitlines()[1].endswith(",inf")


def test_oracle_source_follows_the_payoff_constant(tmp_path):
    """C(2) = 0.5, so K = 1.0 doubles the payoff and the field: the oracle's
    source L = K / C(N) doubles with it, so every error doubles, and the
    level t of the doubled field is the level t/2 of the default one."""
    def rows(name, *argv):
        out = tmp_path / name
        assert run(*argv, "--out", str(out)) == 0
        return [l.split(",") for l in (out / f"{argv[0]}.csv").read_text().splitlines()[1:]]

    study = ["converge", "--eps-list", "0.3,0.2"]
    default = rows("cv1", *study, "--t-list", "0.25")
    doubled = rows("cv2", *study, "--K", "1.0", "--t-list", "0.5")
    assert len(doubled) == 2 and float(doubled[0][3]) < 0.1
    for a, b in zip(default, doubled):
        assert float(b[3]) == pytest.approx(2.0 * float(a[3]), rel=1e-9)
        assert float(b[4]) == pytest.approx(2.0 * float(a[4]), rel=1e-9)
        assert b[5] == a[5]
    for K, levels in (("0.5", "0.1,0.25"), ("1.0", "0.2,0.5")):
        assert run("solve", "--eps", "0.3", "--K", K, "--out", str(tmp_path / K)) == 0
        got = rows("ls" + K, "levelset", "--field", str(tmp_path / K / "field.json"),
                   "--t-list", levels)
        assert [int(r[2]) for r in got] == [121, 69], K
        assert [float(r[3]) for r in got] == pytest.approx([0.15, 0.0], abs=1e-12), K


def test_converge_nonconvergence_exits_two(tmp_path):
    assert run("converge", "--eps-list", "0.3", "--max-iter", "2",
               "--out", str(tmp_path / "cv")) == 2


def test_converge_on_an_ellipse_exits_one(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"domain": {"shape": "ellipse", "center": [0, 0],
                                          "semi_axes": [1, 0.5]}}))
    out = tmp_path / "cv"
    assert run("converge", "--config", str(cfg), "--eps-list", "0.5",
               "--out", str(out)) == 1
    assert "needs a ball domain" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_strategy_name(tmp_path):
    code = run("simulate", "--eps", "0.5", "--n", "4",
               "--paul", "zigzag", "--carol", "radial",
               "--out", str(tmp_path / "o"))
    assert code == 1
