"""The four benchmark workloads: inputs, one op, and the op's output checks.

Every op goes through the ``curvegame`` CLI entry point (``cli.main``) in
process, with ``--threads 1``.  Inputs depend only on the run seed.

disk-solve   ``curvegame solve --eps 0.2`` on the unit disk, all other knobs
             at their defaults.
ball3-solve  ``curvegame solve`` on the unit ball in 3D at eps=0.4, 64 axes,
             quad order 16: the only path into the 3D integrator.
disk-play    ``curvegame simulate`` with gradient strategies at eps=0.1 from
             a field built from the disk oracle, one op per start point.
ball3-play   the same in 3D: the only path into the 3D band sampler.

A play "cycle" is one op per start point; op i of a cycle uses seed + i.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

from curvegame import analysis, cli, solver, sphere

BALL3_CONFIG = {
    "domain": {"shape": "ball", "center": [0, 0, 0], "radius": 1},
    "eps": 0.4, "axis_count": 64, "quad_order": 16,
}

STARTS = {
    2: [(0.0, 0.0), (0.4, 0.0), (0.0, -0.6), (0.3, 0.3), (-0.5, 0.2)],
    3: [(0.0, 0.0, 0.0), (0.4, 0.0, 0.0), (0.0, -0.6, 0.0), (0.3, 0.3, 0.3),
        (-0.5, 0.2, 0.1)],
}

# expected game rounds per simulate op; n per start point follows from it, so
# every op of a workload does about the same work
ROUNDS_PER_OP = {2: 3000, 3: 600}

PLAY_EPS = 0.1


def oracle(dim: int) -> analysis.BallOracle:
    """u = (1 - |x|^2) / (2(N - 1)) on the unit ball."""
    return analysis.BallOracle(R=1.0, L=1.0, N=dim)


def run_cli(argv: list, call=None) -> tuple:
    """cli.main(argv) with its console output captured: (exit code, output).

    call, when given, is a tracer's call(name, fn, *args) for a cli span.
    """
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        rc = cli.main(argv) if call is None else call("cli.main", cli.main, argv)
    return rc, buf.getvalue()


def _fmt_point(x) -> str:
    return ",".join(repr(float(c)) for c in x)


class Solve:
    kind = "solve"
    cycle = 1
    artifacts = ("field.json", "field.values.csv")

    def __init__(self, name: str, dim: int, config: dict | None, flags: list):
        self.name = name
        self.dim = dim
        self.config = config
        self.flags = flags
        self.argv = None

    def make_inputs(self, folder: Path, seed: int) -> None:
        """Write the config file, if any; the solve does not use the seed."""
        folder.mkdir(parents=True, exist_ok=True)
        argv = ["solve", *self.flags]
        if self.config is not None:
            path = folder / "config.json"
            path.write_text(json.dumps(self.config) + "\n")
            argv += ["--config", str(path)]
        self.argv = argv

    def op_argv(self, i: int, out: Path) -> list:
        return [*self.argv, "--out", str(out), "--threads", "1"]

    def check(self, i: int, out: Path, rc: int) -> tuple:
        """(list of failures, facts) for the solve op that wrote to out."""
        if rc != 0:
            return [f"exit code {rc}"], {}
        fails = []
        manifest = json.loads((out / "solve_manifest.json").read_text())
        if manifest.get("converged") is not True:
            fails.append("solve did not converge")
        field, header = solver.load_field(out / "field.json")
        u = oracle(self.dim)
        interior = field.interior_mask.ravel()
        nodes = field.node_points()[interior]
        err = np.abs(field.values.ravel()[interior] - u.values(nodes))
        center = np.zeros(self.dim)
        got, want = solver.interpolate(field, center), u.value(center)
        if not abs(got - want) <= 0.1 * want:
            fails.append(f"centre value {got!r} not within 10% of {want!r}")
        cfg = header["config"]
        facts = {
            "sweeps": int(header["iterations"]),
            "sup_error": float(err.max()),
            "center_value": got,
            "interior": int(interior.sum()),
            "quad_nodes": cfg["quad_order"] ** (self.dim - 1),
            "axis_count": cfg["axis_count"],
            "field_bytes": sum((out / a).stat().st_size for a in self.artifacts),
        }
        return fails, facts


class Play:
    kind = "play"
    artifacts = ("estimate.json",)

    def __init__(self, name: str, dim: int, threads_check: bool = False):
        self.name = name
        self.dim = dim
        # repeat one op at --threads 2: the estimate must not change
        self.threads_check = threads_check
        self.starts = STARTS[dim]
        self.cycle = len(self.starts)
        # u(x0) = eps^2 K E[tau], so E[tau] = u(x0) / (eps^2 K) rounds
        step = PLAY_EPS**2 * sphere.constant_C(dim)
        u = oracle(dim)
        self.n = [max(2, round(ROUNDS_PER_OP[dim] * step / u.value(np.asarray(x))))
                  for x in self.starts]
        self.seed = 0
        self.field_path = None

    def make_inputs(self, folder: Path, seed: int) -> None:
        """Sample the oracle on the default eps=0.1 grid and save it."""
        folder.mkdir(parents=True, exist_ok=True)
        domain = solver.Ball(center=(0.0,) * self.dim, radius=1.0)
        cfg = solver.resolve_config(solver.SolverConfig(eps=PLAY_EPS), self.dim)
        field = solver.field_from_function(domain, cfg, oracle(self.dim).values)
        self.field_path = folder / "field.json"
        solver.save_field(field, self.field_path, cfg=cfg)
        self.seed = seed

    def op_argv(self, i: int, out: Path, threads: int = 1) -> list:
        k = i % self.cycle
        # "--x0=" form: argparse takes "--x0 -0.5,0.2" for an unknown flag
        return ["simulate", "--field", str(self.field_path), "--eps", str(PLAY_EPS),
                "--n", str(self.n[k]), "--seed", str(self.seed + k),
                f"--x0={_fmt_point(self.starts[k])}", "--out", str(out),
                "--threads", str(threads)]

    def check(self, i: int, out: Path, rc: int) -> tuple:
        if rc != 0:
            return [f"exit code {rc}"], {}
        est = json.loads((out / "estimate.json").read_text())
        want = oracle(self.dim).value(np.asarray(self.starts[i % self.cycle]))
        fails = []
        if not abs(est["mean"] - want) <= 3.0 * est["stderr"] + 0.1 * want:
            fails.append(f"estimate {est['mean']!r} +- {est['stderr']!r} "
                         f"far from u(x0) = {want!r}")
        facts = {
            "mean": est["mean"], "stderr": est["stderr"], "oracle": want,
            "rounds": int(round(est["mean_rounds"] * est["n"])),
            "fallback_rounds": est["fallback_rounds"],
        }
        return fails, facts


WORKLOADS = {
    "disk-solve": lambda: Solve("disk-solve", 2, None, ["--eps", "0.2"]),
    "ball3-solve": lambda: Solve("ball3-solve", 3, BALL3_CONFIG, []),
    "disk-play": lambda: Play("disk-play", 2, threads_check=True),
    "ball3-play": lambda: Play("ball3-play", 3),
}
