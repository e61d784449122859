"""Batch command line front end.

Subcommands
-----------
solve      solve the DPP (policy iteration, monotone polish), write the field
           with a run manifest
simulate   Monte Carlo value estimates or martingale diagnostics
verify     verification suite: band lemma, operator forms, DPP comparison
levelset   threshold a stored field into superlevel masks, tabulate as CSV
converge   oracle convergence study on a ball domain, tabulate as CSV

Each run reads one JSON config document (--config); command line flags
override config values, which override built-in defaults.  A config key must
name a flag of its command (underscores for dashes) or a key the command reads
from configs only, such as domain; any other key is a usage error.  The seven
solver settings are declared once, in SOLVER_SETTINGS, and the other typed
flags in FLAG_TYPES; a config value is parsed from its text by its flag's type
(a list flag's value from its comma-separated items).  --threads is checked,
but every command runs in one thread.  Only simulate and verify, which draw
random numbers, take --seed.  levelset and converge give the ball oracle the
source L = K / C(N), K the payoff constant their field was solved with.  Float
output has 17 significant digits, so identical configs and seeds give
byte-identical artifacts, which embed their full effective configuration;
wall-clock timings go only to manifests.

Exit codes: 0 success (and --help), 1 usage or config error (a malformed
command line included), 2 solver non-convergence, 3 verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import analysis, game, solver, sphere
from .errors import CurvegameError, InvalidParameterError, NonConvergenceError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NONCONVERGENCE = 2
EXIT_VERIFY = 3

# The SolverConfig settings, name -> type: the solve flags, the subsets the
# other commands take and _solver_config are all built from this table.
SOLVER_SETTINGS = {
    "eps": float, "K": float, "axis_count": int, "quad_order": int,
    "tol_iter": float, "max_iter": int, "grid_h": float,
}


def _float_list(s: str) -> list:
    return [float(v) for v in s.split(",") if v.strip()]


# The other typed flags, name -> type.  The parser takes each flag's type
# from these two tables, and _effective parses config values with them.
FLAG_TYPES = {
    "seed": int, "threads": int, "n": int, "x0": _float_list,
    "z": _float_list, "t_list": _float_list, "eps_list": _float_list,
}

# parsed names that are not settings: the subcommand and the run's plumbing
_NOT_SETTINGS = {"command", "func", "config", "out", "threads"}

# keys each command reads from a config file but takes no flag for
_CONFIG_ONLY = {
    "solve": {"domain"},
    "simulate": {"domain", "axis"},
    "verify": {"domain", "lemma_function", "lemma_eps_list", *SOLVER_SETTINGS},
    "levelset": set(),
    "converge": {"domain"},
}


# ---------------------------------------------------------------------------
# config plumbing


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise InvalidParameterError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise InvalidParameterError(f"config {path} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise InvalidParameterError("config must be a JSON object")
    return doc


def _parse(key: str, value, parse):
    """A config value parsed from its text as its flag would be: the text of
    a list flag's value is its comma-separated items, else its str()."""
    listed = isinstance(value, list) and parse is _float_list
    text = ",".join(map(str, value)) if listed else str(value)
    try:
        return parse(text)
    except ValueError:
        raise InvalidParameterError(f"config key {key}: invalid value {value!r}")


def _effective(args: argparse.Namespace) -> dict:
    """Flag > config > absent.  Flags use the same names with dashes; a
    config key that names no flag and is not in _CONFIG_ONLY is an error.
    Typed config values are parsed like their flags (FLAG_TYPES)."""
    config = _load_config(args.config)
    flags = {k: v for k, v in vars(args).items() if k not in _NOT_SETTINGS}
    unknown = set(config) - set(flags) - _CONFIG_ONLY[args.command]
    if unknown:
        raise InvalidParameterError(
            f"{args.command}: unknown config key(s) {', '.join(sorted(unknown))}"
        )
    types = {**SOLVER_SETTINGS, **FLAG_TYPES}
    for k in [k for k in config if k in types]:
        if config[k] is None:
            del config[k]  # null keeps the default, as an absent key does
        else:
            config[k] = _parse(k, config[k], types[k])
    config.update((k, v) for k, v in flags.items() if v is not None)
    return config


def _domain(cfg: dict):
    entry = cfg.get("domain", {"shape": "ball", "center": [0.0, 0.0], "radius": 1.0})
    if not isinstance(entry, dict):
        raise InvalidParameterError("domain must be a JSON object")
    return solver.domain_from_dict(entry)


def _solver_config(cfg: dict) -> solver.SolverConfig:
    """The unresolved SolverConfig of cfg's settings, already parsed by
    _effective; an absent or null setting keeps its default."""
    if cfg.get("eps") is None:
        raise InvalidParameterError("config needs eps")
    return solver.SolverConfig(**{
        k: cfg[k] for k in SOLVER_SETTINGS if cfg.get(k) is not None
    })


def _point(value, dim: int, name: str) -> np.ndarray:
    p = np.asarray(value, dtype=float)
    if p.shape != (dim,):
        raise InvalidParameterError(f"{name} must be a {dim}-vector")
    return p


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _fmt(x) -> str:
    """A CSV cell: floats as solver._fmt writes them (inf and nan too)."""
    if x is None:
        return ""
    return solver._fmt(x) if isinstance(x, float) else str(x)


# ---------------------------------------------------------------------------
# solve


def cmd_solve(cfg: dict, out: Path) -> int:
    domain = _domain(cfg)
    scfg = solver.resolve_config(_solver_config(cfg), domain.dim)
    t0 = time.perf_counter()
    status = EXIT_OK
    try:
        field = solver.solve(domain, scfg)
        converged = True
    except NonConvergenceError as exc:
        field = exc.field
        converged = False
        status = EXIT_NONCONVERGENCE
        print(f"solve: no convergence in {exc.iterations} sweeps "
              f"(last increment {exc.increment:.17g})", file=sys.stderr)
    wall = time.perf_counter() - t0
    # solve read the residual off its last sweep, on the kernel it built
    telemetry = field.telemetry
    residual = telemetry["residual"]
    out.mkdir(parents=True, exist_ok=True)
    field_path = out / "field.json"
    solver.save_field(field, field_path, cfg=scfg)
    manifest = {
        "command": "solve",
        "config": dataclasses.asdict(scfg),
        "domain": domain.as_dict(),
        "converged": converged,
        "iterations": field.iterations,
        "final_increment": field.final_increment,
        "residual": residual,
        "wall_time_s": wall,
        # phase times, counts and sizes; never in the field files
        "solver": {k: v for k, v in telemetry.items() if k != "residual"},
    }
    _write(out / "solve_manifest.json", solver.dumps_compact(manifest) + "\n")
    print(f"solve: {'converged' if converged else 'PARTIAL'} "
          f"sweeps={field.iterations} policy_steps={telemetry['policy_steps']} "
          f"residual={residual:.17g} -> {field_path}")
    return status


# ---------------------------------------------------------------------------
# simulate


def _strategy(name: str, cfg: dict, field, domain, player: str):
    if name == "gradient":
        if field is None:
            raise InvalidParameterError(
                "gradient strategy needs a solved field; pass --field"
            )
        return game.gradient_cap_strategy(field, player)
    if name == "radial":
        z = _point(cfg.get("z", domain.center), domain.dim, "z")
        return game.radial_exit_strategy(z)
    if name == "fixed_axis":
        axis = cfg.get("axis")
        if axis is None:
            raise InvalidParameterError("fixed_axis strategy needs an axis")
        return game.fixed_axis_strategy(_point(axis, domain.dim, "axis"))
    raise InvalidParameterError(
        f"unknown strategy {name!r}; use gradient, radial or fixed_axis"
    )


def cmd_simulate(cfg: dict, out: Path) -> int:
    n = cfg.get("n", 1000)
    if n < 2:
        # one episode has no stderr: refused before anything is read or played
        raise InvalidParameterError("n must be at least 2 for a stderr")
    field = None
    header = None
    if cfg.get("field"):
        field, header = solver.load_field(cfg["field"])
    domain = field.domain if field is not None else _domain(cfg)
    if "eps" not in cfg and header and "config" in header:
        cfg["eps"] = header["config"]["eps"]
    if "eps" not in cfg:
        raise InvalidParameterError("config needs eps")
    eps = float(cfg["eps"])
    seed = cfg.get("seed", 0)
    mode = cfg.get("mode", "estimate")
    x0 = _point(cfg.get("x0", domain.center), domain.dim, "x0")

    if mode == "diagnostic":
        for key in ("carol", "trace"):
            if cfg.get(key) is not None:
                raise InvalidParameterError(f"simulate --mode diagnostic takes no {key}")
        z = _point(cfg.get("z", domain.center), domain.dim, "z")
        sp = None
        if cfg.get("paul"):
            sp = _strategy(cfg["paul"], cfg, field, domain, "paul")
        t0 = time.perf_counter()
        report = game.martingale_diagnostic(
            x0, z, sp=sp, n=n, eps=eps, domain=domain, seed=seed,
        )
        wall = time.perf_counter() - t0
        report["mode"] = "diagnostic"
        report["effective_config"] = {
            "eps": eps, "n": n, "seed": seed, "x0": list(map(float, x0)),
            "z": list(map(float, z)), "paul": cfg.get("paul", "radial"),
            "domain": domain.as_dict(),
        }
        _write(out / "diagnostic.json", solver.dumps_compact(report) + "\n")
        _write_simulate_manifest(out, "diagnostic", n, report["rounds_pooled"],
                                 report["fallbacks"], wall)
        print(f"simulate: diagnostic increment_pass={report['increment_pass']} "
              f"osth_pass={report['osth_pass']}")
        return EXIT_OK

    if mode != "estimate":
        raise InvalidParameterError(f"unknown mode {mode!r}")
    paul = cfg.get("paul", "gradient")
    carol = cfg.get("carol", "gradient")
    sp = _strategy(paul, cfg, field, domain, "paul")
    sc = _strategy(carol, cfg, field, domain, "carol")
    t0 = time.perf_counter()
    episodes = game.run_episodes(x0, sp, sc, n, eps, domain, seed)
    wall = time.perf_counter() - t0
    payoffs = np.array([e.payoff for e in episodes])
    mean = float(np.mean(payoffs))
    stderr = float(np.std(payoffs, ddof=1) / np.sqrt(n))
    fallbacks = int(sum(e.fallbacks for e in episodes))
    artifact = {
        "mode": "estimate",
        "mean": mean,
        "stderr": stderr,
        "n": n,
        "mean_rounds": float(np.mean([e.tau for e in episodes])),
        "fallback_rounds": fallbacks,
        "effective_config": {
            "eps": eps, "n": n, "seed": seed, "x0": list(map(float, x0)),
            "paul": paul, "carol": carol, "domain": domain.as_dict(),
            "field": cfg.get("field"),
        },
    }
    _write(out / "estimate.json", solver.dumps_compact(artifact) + "\n")
    if cfg.get("trace"):
        lines = [solver.dumps_compact(e.to_json_dict()) for e in episodes]
        _write(out / str(cfg["trace"]), "\n".join(lines) + "\n")
    _write_simulate_manifest(out, "estimate", n, sum(e.tau for e in episodes),
                             fallbacks, wall)
    print(f"simulate: mean={mean:.17g} stderr={stderr:.17g} n={n}")
    return EXIT_OK


def _write_simulate_manifest(out: Path, mode: str, episodes: int, rounds: int,
                             fallbacks: int, wall: float) -> None:
    # game counters and timings; kept out of the byte-stable artifacts
    manifest = {
        "command": "simulate",
        "mode": mode,
        "episodes": episodes,
        "rounds": rounds,
        "fallback_rounds": fallbacks,
        "wall_time_s": wall,
        "rounds_per_s": rounds / wall if wall > 0 else None,
    }
    _write(out / "simulate_manifest.json", solver.dumps_compact(manifest) + "\n")


# ---------------------------------------------------------------------------
# verify


def _lemma_function(name: str):
    if name == "v1_squared":
        return lambda v: v[:, 0] ** 2
    if name == "one":
        return lambda v: np.ones(len(v))
    raise InvalidParameterError(f"unknown lemma function {name!r}")


def cmd_verify(cfg: dict, out: Path) -> int:
    domain = _domain(cfg)
    scfg = solver.resolve_config(_solver_config({"eps": 0.2, **cfg}), domain.dim)
    eps, K = scfg.eps, scfg.K
    seed = cfg.get("seed", 0)
    checks = []

    # payoff constant: the game constant must match the operator constant
    c_exact = sphere.constant_C(domain.dim)
    checks.append({
        "name": "payoff_constant",
        "passed": abs(K - c_exact) <= 1e-12,
        "K": K,
        "constant_C": c_exact,
    })

    # band-average lemma across the three cap families
    f = _lemma_function(cfg.get("lemma_function", "v1_squared"))
    eps_list = cfg.get("lemma_eps_list", [1e-2, 1e-3, 1e-4])
    for family in ("mirrored", "tilted", "enlarged"):
        rows = analysis.verify_band_lemma(f, eps_list, family=family,
                                          N=domain.dim)
        errs = [r["error"] for r in rows]
        ok = all(errs[i + 1] <= errs[i] for i in range(len(errs) - 1))
        checks.append({
            "name": f"band_lemma_{family}",
            "passed": bool(ok and errs[-1] < 1e-2),
            "errors": errs,
            "drift_ok": [r["drift_ok"] for r in rows],
        })

    # operator form equivalence on random quadratics
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        q = analysis.random_quadratic(rng, domain.dim)
        x = rng.normal(size=domain.dim)
        f1, f2 = analysis.mc_operator_residual(q, x, domain.dim)
        worst = max(worst, abs(f1 - f2))
    checks.append({
        "name": "operator_equivalence",
        "passed": worst <= 1e-6,
        "worst_residual": worst,
    })

    # solve + DPP comparison + oracle agreement; the residual is recomputed
    # from the field on a kernel of its own, not read off the solve
    field = solver.solve(domain, scfg)
    residual = solver.dpp_residual(field, scfg)
    checks.append({
        "name": "dpp_residual",
        "passed": residual <= scfg.tol_iter,
        "residual": residual,
        "tol_iter": scfg.tol_iter,
    })
    # the arrival time, at double the source, of the ball about the domain's
    # centre with twice its support radius: a strict supersolution
    center = np.asarray(domain.center, dtype=float)
    big = analysis.BallOracle(R=2.0 * domain.support_radius(center), L=2.0, N=domain.dim)
    barrier = solver.field_from_function(domain, scfg, lambda pts: big.values(pts - center))
    ok_super, worst_super = solver.check_dpp_supersolution(barrier, scfg)
    below = bool(np.all(field.values <= barrier.values + scfg.tol_iter))
    checks.append({
        "name": "supersolution_comparison",
        "passed": bool(ok_super and below),
        "barrier_is_supersolution": bool(ok_super),
        "worst_dpp_slack": worst_super,
        "field_below_barrier": below,
    })
    if hasattr(domain, "radius"):
        oracle = analysis.BallOracle(R=domain.radius, L=1.0, N=domain.dim)
        got = solver.interpolate(field, center)
        want = oracle.value(np.zeros(domain.dim))
        # generous: the coarse default grid underestimates by several percent,
        # while a wrong payoff constant is off by a factor
        checks.append({
            "name": "oracle_agreement",
            "passed": abs(got - want) <= 0.25 * want,
            "center_value": got,
            "oracle_value": want,
            "eps": eps,
        })

    all_pass = all(c["passed"] for c in checks)
    report = {
        "command": "verify",
        "all_pass": all_pass,
        "checks": checks,
        "effective_config": {"eps": eps, "K": K, "seed": seed,
                             "domain": domain.as_dict()},
    }
    _write(out / "verify_report.json",
           solver.dumps_compact(report) + "\n")
    for c in checks:
        print(f"verify: {c['name']}: {'pass' if c['passed'] else 'FAIL'}")
    return EXIT_OK if all_pass else EXIT_VERIFY


# ---------------------------------------------------------------------------
# levelset


def cmd_levelset(cfg: dict, out: Path) -> int:
    if not cfg.get("field"):
        raise InvalidParameterError("levelset needs a field artifact; pass --field")
    field, header = solver.load_field(cfg["field"])
    t_list = cfg.get("t_list", [0.1, 0.25, 0.4])
    eps, K = map((header.get("config") or {}).get, ("eps", "K"))
    # the oracle's source is K / C(N); a field saved without its K had K = C(N)
    L = 1.0 if K is None else K / sphere.constant_C(field.domain.dim)
    oracle = (analysis.BallOracle(R=field.domain.radius, L=L, N=field.domain.dim)
              if hasattr(field.domain, "radius") else None)
    # a negative level is refused by superlevel_set, before anything is written
    lines = ["eps,t,count,hausdorff_vs_oracle"]
    for t in t_list:
        mask = analysis.superlevel_set(field, t)
        d = ""
        if oracle is not None:
            ref = analysis.oracle_superlevel_set(field, oracle, t)
            d = _fmt(analysis.hausdorff_distance(mask, ref))
        lines.append(f"{_fmt(eps)},{_fmt(t)},{mask.count},{d}")
    _write(out / "levelset.csv", "\n".join(lines) + "\n")
    manifest = {
        "command": "levelset",
        "field": str(cfg["field"]),
        "t_list": t_list,
        "L": L,
        "field_config": header.get("config"),
    }
    _write(out / "levelset_manifest.json", solver.dumps_compact(manifest) + "\n")
    print(f"levelset: {len(t_list)} levels -> {out / 'levelset.csv'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# converge


def cmd_converge(cfg: dict, out: Path) -> int:
    domain = _domain(cfg)
    eps_list = cfg.get("eps_list", [0.2, 0.1, 0.05])
    t_list = cfg.get("t_list", [0.25])
    # each row sets its own eps; the study rejects an empty list and a
    # domain that is not a ball
    template = _solver_config({**cfg, "eps": 0.0})
    t0 = time.perf_counter()
    rows = analysis.convergence_study(domain, eps_list, template, t_values=t_list)
    wall = time.perf_counter() - t0
    C = sphere.constant_C(domain.dim)
    K = template.K if template.K is not None else C
    header_cols = ["eps", "grid_h", "iterations", "sup_error", "boundary_max"]
    # column labels read better in shortest form; data cells stay exact
    header_cols += [f"hausdorff_t{t:g}" for t in t_list]
    lines = [",".join(header_cols)]
    for r in rows:
        cells = [_fmt(r["eps"]), _fmt(r["grid_h"]), str(r["iterations"]),
                 _fmt(r["sup_error"]), _fmt(r["boundary_max"])]
        cells += [_fmt(r["hausdorff"][t]) for t in t_list]
        lines.append(",".join(cells))
    _write(out / "converge.csv", "\n".join(lines) + "\n")
    manifest = {
        "command": "converge",
        "domain": domain.as_dict(),
        "eps_list": eps_list,
        "t_list": t_list,
        "L": K / C,
        "K": K,
        "constant_C": C,
        "rows": rows,
        "wall_time_s": wall,
    }
    _write(out / "converge_manifest.json", solver.dumps_compact(manifest) + "\n")
    print(f"converge: {len(rows)} solves -> {out / 'converge.csv'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a malformed command line, but 2 means
    non-convergence here: report it as a usage error instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InvalidParameterError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on the first call (so importing the
    module does not pay for it) and reused by every later main call."""
    top = _Parser(
        prog="curvegame",
        description="DPP solver, game simulator and verification front end",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def command(name, func, help, settings):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--threads", type=FLAG_TYPES["threads"],
                       help="thread cap, at least 1; accepted and checked, "
                            "every command runs in one thread")
        for key in settings:
            p.add_argument("--" + key.replace("_", "-"), type=SOLVER_SETTINGS[key])
        p.set_defaults(func=func)
        return p

    command("solve", cmd_solve,
            "solve the DPP: policy iteration, then a certified monotone polish",
            SOLVER_SETTINGS)

    p = command("simulate", cmd_simulate, "Monte Carlo estimates and diagnostics",
                ["eps"])
    p.add_argument("--seed", type=FLAG_TYPES["seed"], help="RNG seed")
    p.add_argument("--n", type=FLAG_TYPES["n"])
    p.add_argument("--mode", help="estimate | diagnostic")
    p.add_argument("--field", help="field artifact for gradient strategies")
    p.add_argument("--paul", help="gradient | radial | fixed_axis")
    p.add_argument("--carol", help="gradient | radial | fixed_axis")
    p.add_argument("--x0", type=FLAG_TYPES["x0"], help="start point, comma separated")
    p.add_argument("--z", type=FLAG_TYPES["z"], help="reference point, comma separated")
    p.add_argument("--trace", help="episode trace JSONL filename")

    p = command("verify", cmd_verify, "run the verification suite", ["eps", "K"])
    p.add_argument("--seed", type=FLAG_TYPES["seed"], help="RNG seed")

    p = command("levelset", cmd_levelset, "superlevel masks of a stored field", [])
    p.add_argument("--field", help="field artifact to threshold")
    p.add_argument("--t-list", dest="t_list", type=FLAG_TYPES["t_list"],
                   help="levels, comma separated")

    p = command("converge", cmd_converge, "oracle convergence study",
                ["K", "axis_count", "quad_order", "max_iter"])
    p.add_argument("--eps-list", dest="eps_list", type=FLAG_TYPES["eps_list"],
                   help="eps values, comma separated")
    p.add_argument("--t-list", dest="t_list", type=FLAG_TYPES["t_list"])

    return top


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.threads is not None and args.threads < 1:
            raise InvalidParameterError(f"--threads must be >= 1, got {args.threads}")
        out = Path(args.out)
        # refused before the work: out's nearest existing path must be a directory
        there = next(p for p in (out, *out.parents) if p.exists())
        if not there.is_dir():
            raise InvalidParameterError(f"--out {out}: {there} exists and is not a directory")
        return args.func(_effective(args), out)
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except CurvegameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
