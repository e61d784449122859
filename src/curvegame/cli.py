"""Batch command line front end.

Subcommands
-----------
solve      value-iterate a DPP field, write it with a run manifest
simulate   Monte Carlo value estimates or martingale diagnostics
verify     verification suite: band lemma, operator forms, DPP comparison
levelset   threshold a stored field into superlevel masks, tabulate as CSV
converge   oracle convergence study on a ball domain, tabulate as CSV

Each run reads one JSON config document (--config); command line flags
override config values, which override built-in defaults.  All float output
is printed with 17 significant digits, so identical configs and seeds give
byte-identical artifacts.  Artifacts embed their full effective
configuration; wall-clock timings go only to manifests and never into files
meant for byte comparison.

Exit codes: 0 success (and --help), 1 usage or config error (a malformed
command line included), 2 solver non-convergence, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
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

_THREADS_ENV = "CURVEGAME_THREADS"


# ---------------------------------------------------------------------------
# config plumbing


def _default_threads() -> int:
    env = os.environ.get(_THREADS_ENV)
    if env is not None:
        try:
            n = int(env)
        except ValueError:
            raise InvalidParameterError(
                f"{_THREADS_ENV} must be an integer, got {env!r}"
            )
        if n < 1:
            raise InvalidParameterError(f"{_THREADS_ENV} must be >= 1")
        return n
    return os.cpu_count() or 1


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


def _effective(config: dict, args: argparse.Namespace, keys) -> dict:
    """Flag > config > absent.  Flags use the same names with dashes."""
    out = dict(config)
    for key in keys:
        v = getattr(args, key, None)
        if v is not None:
            out[key] = v
    return out


def _domain(cfg: dict):
    entry = cfg.get("domain", {"shape": "ball", "center": [0.0, 0.0], "radius": 1.0})
    if not isinstance(entry, dict):
        raise InvalidParameterError("domain must be a JSON object")
    return solver.domain_from_dict(entry)


def _solver_config(cfg: dict, dim: int) -> solver.SolverConfig:
    if "eps" not in cfg:
        raise InvalidParameterError("config needs eps")
    raw = solver.SolverConfig(
        eps=float(cfg["eps"]),
        K=None if cfg.get("K") is None else float(cfg["K"]),
        axis_count=None if cfg.get("axis_count") is None else int(cfg["axis_count"]),
        quad_order=None if cfg.get("quad_order") is None else int(cfg["quad_order"]),
        tol_iter=None if cfg.get("tol_iter") is None else float(cfg["tol_iter"]),
        max_iter=int(cfg.get("max_iter", 100_000)),
        grid_h=None if cfg.get("grid_h") is None else float(cfg["grid_h"]),
    )
    return solver.resolve_config(raw, dim)


def _point(value, dim: int, name: str) -> np.ndarray:
    p = np.asarray(value, dtype=float)
    if p.shape != (dim,):
        raise InvalidParameterError(f"{name} must be a {dim}-vector")
    return p


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _float_list(s: str) -> list:
    return [float(v) for v in s.split(",") if v.strip()]


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        if x != x or x in (float("inf"), float("-inf")):
            return "inf" if x > 0 else str(x)
        return format(x, ".17g")
    return str(x)


# ---------------------------------------------------------------------------
# solve


def cmd_solve(args: argparse.Namespace) -> int:
    cfg = _effective(_load_config(args.config), args,
                     ["eps", "K", "axis_count", "quad_order", "tol_iter",
                      "max_iter", "grid_h"])
    domain = _domain(cfg)
    scfg = _solver_config(cfg, domain.dim)
    out = Path(args.out)
    t0 = time.perf_counter()
    status = EXIT_OK
    try:
        field = solver.value_iteration(domain, scfg)
        converged = True
    except NonConvergenceError as exc:
        field = exc.field
        converged = False
        status = EXIT_NONCONVERGENCE
        print(f"solve: no convergence in {exc.iterations} sweeps "
              f"(last increment {exc.increment:.17g})", file=sys.stderr)
    wall = time.perf_counter() - t0
    residual = solver.dpp_residual(field, scfg)
    out.mkdir(parents=True, exist_ok=True)
    field_path = out / "field.json"
    solver.save_field(field, field_path, cfg=scfg)
    manifest = {
        "command": "solve",
        "config": solver.config_as_dict(scfg),
        "domain": domain.as_dict(),
        "converged": converged,
        "iterations": field.iterations,
        "final_increment": field.final_increment,
        "residual": residual,
        "wall_time_s": wall,
    }
    _write(out / "solve_manifest.json", solver.dumps_compact(manifest) + "\n")
    print(f"solve: {'converged' if converged else 'PARTIAL'} "
          f"iters={field.iterations} residual={residual:.17g} -> {field_path}")
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
        z = _point(cfg.get("z", [0.0] * domain.dim), domain.dim, "z")
        return game.radial_exit_strategy(z)
    if name == "fixed_axis":
        axis = cfg.get("axis")
        if axis is None:
            raise InvalidParameterError("fixed_axis strategy needs an axis")
        return game.fixed_axis_strategy(_point(axis, domain.dim, "axis"))
    raise InvalidParameterError(
        f"unknown strategy {name!r}; use gradient, radial or fixed_axis"
    )


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _effective(_load_config(args.config), args,
                     ["eps", "n", "seed", "mode", "paul", "carol", "field",
                      "trace", "x0", "z"])
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
    seed = int(cfg.get("seed", 0))
    n = int(cfg.get("n", 1000))
    threads = args.threads if args.threads is not None else _default_threads()
    mode = cfg.get("mode", "estimate")
    x0 = _point(cfg.get("x0", [0.0] * domain.dim), domain.dim, "x0")
    out = Path(args.out)

    if mode == "diagnostic":
        z = _point(cfg.get("z", [0.0] * domain.dim), domain.dim, "z")
        sp = None
        if cfg.get("paul"):
            sp = _strategy(cfg["paul"], cfg, field, domain, "paul")
        t0 = time.perf_counter()
        report = game.martingale_diagnostic(
            x0, z, sp=sp, n=n, eps=eps, domain=domain, seed=seed,
            threads=threads,
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
    episodes = game.run_episodes(x0, sp, sc, n, eps, domain, seed,
                                 threads=threads)
    wall = time.perf_counter() - t0
    payoffs = np.array([e.payoff for e in episodes])
    mean = float(np.mean(payoffs))
    stderr = float(np.std(payoffs, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
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


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = _effective(_load_config(args.config), args, ["eps", "K", "seed"])
    eps = float(cfg.get("eps", 0.2))
    seed = int(cfg.get("seed", 0))
    checks = []

    # payoff constant: the game constant must match the operator constant
    domain = _domain(cfg)
    K = float(cfg.get("K", sphere.constant_C(domain.dim)))
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

    # solve + DPP comparison + oracle agreement
    scfg = _solver_config({**cfg, "eps": eps, "K": K}, domain.dim)
    field = solver.value_iteration(domain, scfg)
    residual = solver.dpp_residual(field, scfg)
    checks.append({
        "name": "dpp_residual",
        "passed": residual <= scfg.tol_iter,
        "residual": residual,
        "tol_iter": scfg.tol_iter,
    })
    barrier = solver.field_from_function(
        domain, scfg,
        lambda pts: analysis.BallOracle(R=2.0, L=2.0, N=domain.dim).values(pts),
    )
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
        center = np.asarray(domain.center, dtype=float)
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
    _write(Path(args.out) / "verify_report.json",
           solver.dumps_compact(report) + "\n")
    for c in checks:
        print(f"verify: {c['name']}: {'pass' if c['passed'] else 'FAIL'}")
    return EXIT_OK if all_pass else EXIT_VERIFY


# ---------------------------------------------------------------------------
# levelset


def cmd_levelset(args: argparse.Namespace) -> int:
    cfg = _effective(_load_config(args.config), args, ["field", "t_list", "L"])
    if not cfg.get("field"):
        raise InvalidParameterError("levelset needs a field artifact; pass --field")
    field, header = solver.load_field(cfg["field"])
    t_list = [float(t) for t in cfg.get("t_list", [0.1, 0.25, 0.4])]
    eps = header.get("config", {}).get("eps")
    oracle = None
    if hasattr(field.domain, "radius"):
        oracle = analysis.BallOracle(
            R=field.domain.radius, L=float(cfg.get("L", 1.0)), N=field.domain.dim
        )
    vmax = float(field.values.max())
    lines = ["eps,t,count,hausdorff_vs_oracle"]
    for t in t_list:
        if t < 0 or t > vmax:
            # out-of-range level: emit the empty-mask sentinel row
            lines.append(f"{_fmt(eps)},{_fmt(t)},0,inf")
            continue
        mask = analysis.superlevel_set(field, t)
        d = ""
        if oracle is not None:
            ref = analysis.oracle_superlevel_set(field, oracle, t)
            d = _fmt(analysis.hausdorff_distance(mask, ref))
        lines.append(f"{_fmt(eps)},{_fmt(t)},{mask.count},{d}")
    out = Path(args.out)
    _write(out / "levelset.csv", "\n".join(lines) + "\n")
    manifest = {
        "command": "levelset",
        "field": str(cfg["field"]),
        "t_list": t_list,
        "L": float(cfg.get("L", 1.0)),
        "field_config": header.get("config"),
    }
    _write(out / "levelset_manifest.json", solver.dumps_compact(manifest) + "\n")
    print(f"levelset: {len(t_list)} levels -> {out / 'levelset.csv'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# converge


def cmd_converge(args: argparse.Namespace) -> int:
    cfg = _effective(_load_config(args.config), args,
                     ["eps_list", "t_list", "K", "axis_count", "quad_order",
                      "max_iter", "L", "parallel"])
    domain = _domain(cfg)
    if not hasattr(domain, "radius"):
        raise InvalidParameterError("converge needs a ball domain")
    eps_list = [float(e) for e in cfg.get("eps_list", [0.2, 0.1, 0.05])]
    t_list = [float(t) for t in cfg.get("t_list", [0.25])]
    template = solver.SolverConfig(
        # each row sets its own eps; the study rejects an empty list
        eps=eps_list[0] if eps_list else 0.0,
        K=None if cfg.get("K") is None else float(cfg["K"]),
        axis_count=None if cfg.get("axis_count") is None else int(cfg["axis_count"]),
        quad_order=None if cfg.get("quad_order") is None else int(cfg["quad_order"]),
        max_iter=int(cfg.get("max_iter", 100_000)),
    )
    L = float(cfg.get("L", 1.0))
    t0 = time.perf_counter()
    rows = analysis.convergence_study(
        domain, eps_list, template, t_values=t_list, L=L,
        parallel=bool(cfg.get("parallel", False)),
    )
    wall = time.perf_counter() - t0
    header_cols = ["eps", "grid_h", "iterations", "sup_error", "boundary_max"]
    # column labels read better in shortest form; data cells stay exact
    header_cols += [f"hausdorff_t{t:g}" for t in t_list]
    lines = [",".join(header_cols)]
    for r in rows:
        cells = [_fmt(r["eps"]), _fmt(r["grid_h"]), str(r["iterations"]),
                 _fmt(r["sup_error"]), _fmt(r["boundary_max"])]
        cells += [_fmt(r["hausdorff"][t]) for t in t_list]
        lines.append(",".join(cells))
    out = Path(args.out)
    _write(out / "converge.csv", "\n".join(lines) + "\n")
    manifest = {
        "command": "converge",
        "domain": domain.as_dict(),
        "eps_list": eps_list,
        "t_list": t_list,
        "L": L,
        "K": template.K if template.K is not None else sphere.constant_C(domain.dim),
        "constant_C": sphere.constant_C(domain.dim),
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


def _build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="curvegame",
        description="DPP solver, game simulator and verification front end",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, help="RNG seed override")
        p.add_argument("--threads", type=int,
                       help=f"thread cap (default: {_THREADS_ENV} or cores); "
                            "accepted and checked, every command runs in one "
                            "thread")

    p = sub.add_parser("solve", help="value-iterate a DPP field")
    common(p)
    p.add_argument("--eps", type=float)
    p.add_argument("--K", type=float)
    p.add_argument("--axis-count", dest="axis_count", type=int)
    p.add_argument("--quad-order", dest="quad_order", type=int)
    p.add_argument("--tol-iter", dest="tol_iter", type=float)
    p.add_argument("--max-iter", dest="max_iter", type=int)
    p.add_argument("--grid-h", dest="grid_h", type=float)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("simulate", help="Monte Carlo estimates and diagnostics")
    common(p)
    p.add_argument("--eps", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--mode", choices=["estimate", "diagnostic"])
    p.add_argument("--field", help="field artifact for gradient strategies")
    p.add_argument("--paul", help="gradient | radial | fixed_axis")
    p.add_argument("--carol", help="gradient | radial | fixed_axis")
    p.add_argument("--x0", type=_float_list, help="start point, comma separated")
    p.add_argument("--z", type=_float_list, help="reference point, comma separated")
    p.add_argument("--trace", help="episode trace JSONL filename")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run the verification suite")
    common(p)
    p.add_argument("--eps", type=float)
    p.add_argument("--K", type=float)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("levelset", help="superlevel masks of a stored field")
    common(p)
    p.add_argument("--field", help="field artifact to threshold")
    p.add_argument("--t-list", dest="t_list", type=_float_list,
                   help="levels, comma separated")
    p.add_argument("--L", type=float, help="oracle source constant")
    p.set_defaults(func=cmd_levelset)

    p = sub.add_parser("converge", help="oracle convergence study")
    common(p)
    p.add_argument("--eps-list", dest="eps_list", type=_float_list,
                   help="eps values, comma separated")
    p.add_argument("--t-list", dest="t_list", type=_float_list)
    p.add_argument("--K", type=float)
    p.add_argument("--axis-count", dest="axis_count", type=int)
    p.add_argument("--quad-order", dest="quad_order", type=int)
    p.add_argument("--max-iter", dest="max_iter", type=int)
    p.add_argument("--L", type=float)
    p.add_argument("--parallel", action="store_true", default=None)
    p.set_defaults(func=cmd_converge)

    return top


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.threads is not None and args.threads < 1:
            raise InvalidParameterError(f"--threads must be >= 1, got {args.threads}")
        return args.func(args)
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
