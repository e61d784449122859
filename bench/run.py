"""curvegame benchmark: one workload per process, closed loop, one client.

    python3 bench/run.py --workload disk-solve --seed 1 --seconds 20 --trace 0

Run from a checkout root holding ``src/curvegame``.  The run sets up its
inputs several times (timing each set-up), then issues one op at a time
through ``cli.main`` with ``--threads 1`` and the BLAS pool held to one
thread, until ``--seconds`` have passed and the current cycle of ops is
complete (a solve op is a cycle of its own, so a solve run is at least one
solve).  Every op's outputs are checked after its timer stops.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` plays the same
ops twice, untraced and then traced, and reports the per-layer metrics of the
traced ops (see bench/tracing.py); the spans go to spans.jsonl.  Run records
go to .bench_runs/<workload>-seed<n>-trace<t>/.  The last line of standard
output is the JSON result.  See bench/NOTES.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "CURVEGAME_THREADS")
ROOT = Path(__file__).resolve().parent.parent

END_TO_END = {
    "setup_s": "s", "op_p90_s": "s", "peak_rss_mb": "MB", "ok_ops_ratio": "1",
}
# printed as "bench:" lines only; bench/NOTES.md maps them onto END_TO_END
EXTRA = {
    "failed_ops_ratio": "1", "op_median_s": "s", "setup_median_s": "s", "solve_s": "s", "sup_error": "1", "sweeps": "count",
    "mc_rounds_per_s": "1/s", "rounds": "count", "host.ref_s": "s", "import_s": "s",
}


def host_probe(np) -> float:
    """Seconds for a fixed pure-Python + numpy loop; only recorded, to tell a
    slow host from a slow program."""
    a = np.random.default_rng(0).random(400_000)
    t0 = perf_counter()
    for _ in range(12):
        s = 0
        for k in range(150_000):
            s += k * k % 7
        np.sort(a)
    return perf_counter() - t0


def machine_info(np, scipy) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "cli_threads": 1,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "loadavg": list(os.getloadavg()),
    }


def time_import(env: dict) -> float:
    """Wall time of a fresh interpreter importing the CLI module."""
    t0 = perf_counter()
    # no timeout: with one, wait() polls in sleeps of up to 50 ms
    subprocess.run([sys.executable, "-c", "import curvegame.cli"], env=env,
                   cwd=ROOT, check=True)
    return perf_counter() - t0


def p90(values: list) -> float:
    """90th percentile, interpolated between the data points."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


class SetUp:
    """Timed set-ups: a fresh interpreter's import plus input generation.

    Three run before the ops and three after them, so that the set-ups span
    the run rather than one moment of a host whose speed drifts.  The ops use
    the inputs of the third set-up; all six must be identical.
    """

    def __init__(self, wl, out: Path, seed: int, src: Path):
        self.wl = wl
        self.out = out
        self.seed = seed
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.times = []
        self.inputs = []

    def run(self) -> None:
        imp = time_import(self.env)
        folder = self.out / "inputs" / f"rep{len(self.times)}"
        t0 = perf_counter()
        self.wl.make_inputs(folder, self.seed)
        self.times.append(imp + perf_counter() - t0)
        self.inputs.append({p.name: p.read_bytes() for p in sorted(folder.iterdir())})

    def fails(self) -> list:
        if all(b == self.inputs[0] for b in self.inputs):
            return []
        return ["inputs differ between set-ups of the same seed"]


class Runner:
    """Runs and checks ops of one workload, keeping per-op records."""

    def __init__(self, wl, run_cli):
        self.wl = wl
        self.run_cli = run_cli
        self.records = []
        self.refs = {}  # op index within the cycle -> artifact bytes

    def op(self, i: int, folder: Path, argv: list, tracer=None,
           instrument=None) -> dict:
        """Run op i (writing to folder), time it, then check its outputs."""
        rec = {"op_id": len(self.records), "i": i, "argv": argv,
               "traced": tracer is not None, "rc": None}
        t0 = perf_counter()
        try:
            if tracer is None:
                rc, rec["log"] = self.run_cli(argv)
                rec["wall_s"] = perf_counter() - t0
                fails, facts = self.wl.check(i, folder, rc)
            else:
                tracer.op = rec["op_id"]
                with instrument():
                    t0 = perf_counter()
                    rc, rec["log"] = tracer.call("bench.op", self.run_cli, argv,
                                                 tracer.call)
                    rec["wall_s"] = perf_counter() - t0
                fails, facts = tracer.call("analysis.check", self.wl.check,
                                           i, folder, rc)
            rec["rc"] = rc
        except Exception:  # a crashing op is a failed op; the run goes on
            rec.setdefault("wall_s", perf_counter() - t0)
            fails, facts = [traceback.format_exc()], {}
        if rec["rc"] == 0:
            got = {a: (folder / a).read_bytes() for a in self.wl.artifacts}
            ref = self.refs.setdefault(i % self.wl.cycle, (rec["op_id"], got))
            if ref[1] != got:
                fails.append(f"artifacts differ from those of op {ref[0]}")
        rec["fails"], rec["facts"] = fails, facts
        self.records.append(rec)
        return rec


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    src = ROOT / "src"
    if not (src / "curvegame" / "__init__.py").is_file():
        print(f"bench: no curvegame sources under {src}", file=sys.stderr)
        return 2
    # must precede the numpy import: the BLAS pool reads these once
    for k in THREAD_ENV:
        os.environ[k] = "1"
    sys.path.insert(0, str(src))
    t0 = perf_counter()
    import numpy as np
    import scipy
    from curvegame import game, solver, sphere
    from workloads import WORKLOADS, run_cli
    import_s = perf_counter() - t0
    import tracing

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 1
    wl = WORKLOADS[args.workload]()
    out = ROOT / ".bench_runs" / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    machine = machine_info(np, scipy)
    host = [host_probe(np)]

    setup = SetUp(wl, out, args.seed, src)
    for _ in range(3):
        setup.run()

    runner = Runner(wl, run_cli)
    budget = args.seconds / 2 if args.trace else args.seconds
    start = perf_counter()
    i = 0
    while i % wl.cycle or perf_counter() - start < budget or i == 0:
        folder = out / "ops" / str(i)
        runner.op(i, folder, wl.op_argv(i, folder))
        i += 1
    plain = list(runner.records)
    if wl.kind == "play" and wl.threads_check:
        folder = out / "ops" / "threads2"
        runner.op(0, folder, wl.op_argv(0, folder, threads=2))

    tracer = None
    traced = []
    if args.trace:
        tracer = tracing.Tracer()
        instrument = lambda: tracing.instrument(tracer, solver, game, sphere)
        for j in range(len(plain)):
            folder = out / "ops" / f"t{j}"
            traced.append(runner.op(j, folder, wl.op_argv(j, folder),
                                    tracer=tracer, instrument=instrument))
        tracer.write(out / "spans.jsonl")
    for _ in range(3):
        setup.run()
    setup_fails = setup.fails()
    host.append(host_probe(np))

    records = runner.records
    failed = sum(1 for r in records if r["fails"])
    attempted = len(records)
    walls = [r["wall_s"] for r in plain]
    e2e = {
        "setup_s": p90(setup.times),
        "op_p90_s": p90(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ops_ratio": (attempted - failed) / attempted,
    }
    facts = [r["facts"] for r in plain if r["facts"]]
    extra = {"failed_ops_ratio": failed / attempted,
             "op_median_s": statistics.median(walls),
             "setup_median_s": statistics.median(setup.times),
             "host.ref_s": statistics.mean(host), "import_s": import_s}
    if wl.kind == "solve" and facts:
        extra["solve_s"] = e2e["op_p90_s"]
        extra["sup_error"] = facts[0]["sup_error"]
        extra["sweeps"] = facts[0]["sweeps"]
    elif facts:
        rounds = sum(f["rounds"] for f in facts)
        extra["mc_rounds_per_s"] = rounds / sum(walls)
        extra["rounds"] = rounds

    layer = per_layer(wl, tracer, plain, traced, host, extra) if tracer else {}
    units = {**END_TO_END, **EXTRA, **{k: u for k, (u, _) in PER_LAYER.items()}}
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine, "host_ref_s": host,
        "setup_s": setup.times, "setup_fails": setup_fails, "end_to_end": e2e,
        "extra": extra, "per_layer": layer,
        # the CLI's console output is kept only where it explains a failure
        "ops": [{k: v for k, v in r.items() if k != "log" or r["fails"]}
                for r in records],
    }
    (out / "run.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    shutil.rmtree(out / "ops", ignore_errors=True)
    shutil.rmtree(out / "inputs", ignore_errors=True)

    print(f"bench: {wl.name} seed={args.seed} trace={args.trace} ops={attempted} "
          f"failed={failed} threads=1 machine={json.dumps(machine)}")
    for r in records:
        for f in r["fails"]:
            print(f"bench: op {r['op_id']} FAILED: {f.strip()}")
    for f in setup_fails:
        print(f"bench: set-up FAILED: {f}")
    shown = layer if args.trace else {**e2e, **extra}
    for k, v in shown.items():
        print(f"bench: {k} = {v!r} {units[k]}")
    metrics = layer if args.trace else e2e
    print(json.dumps({
        "correct": failed == 0 and not setup_fails,
        "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


# name -> (unit, better); every traced run reports all of them, as 0 where the
# workload does not reach the layer (e.g. solver.sweeps on a play workload)
PER_LAYER = {
    "solver.sweeps": ("count", "lower"),
    "solver.sweep_ms": ("ms", "lower"),
    "solver.node_updates_per_s": ("1/s", "higher"),
    "solver.kernel_build_s": ("s", "lower"),
    "solver.residual_s": ("s", "lower"),
    "solver.save_field_s": ("s", "lower"),
    "solver.load_field_s": ("s", "lower"),
    "solver.field_bytes": ("bytes", "lower"),
    "solver.contains_us": ("us", "lower"),
    "solver.monotone_violations": ("count", "lower"),
    "solver.samples_per_sweep": ("count", "lower"),
    "solver.reduce_madds_per_sweep": ("count", "lower"),
    "solver.samples_bytes": ("bytes", "lower"),
    "solver.sup_error": ("1", "lower"),
    "solver.self_s": ("s", "lower"),
    "game.rounds": ("count", "higher"),
    "game.episodes": ("count", "higher"),
    "game.fallback_rounds": ("count", "lower"),
    "game.rounds_per_s": ("1/s", "higher"),
    "game.round_us": ("us", "lower"),
    "game.strategy_us": ("us", "lower"),
    "game.loop_self_us": ("us", "lower"),
    "game.self_s": ("s", "lower"),
    "sphere.band_sample_us": ("us", "lower"),
    "sphere.band_contains_us": ("us", "lower"),
    "sphere.intersect_caps_us": ("us", "lower"),
    "sphere.normals_per_draw": ("count", "lower"),
    "sphere.accept_ratio": ("1", "higher"),
    "sphere.self_s": ("s", "lower"),
    "analysis.check_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.op_s": ("s", "lower"),
    "trace.remainder_s": ("s", "lower"),
    "trace.overhead_ratio": ("1", "lower"),
    "host.ref_s": ("s", "lower"),
}


def _per(total: float, count: float, scale: float = 1.0) -> float:
    return total / count * scale if count else 0.0


def per_layer(wl, tracer, plain, traced, host, extra) -> dict:
    """Per-layer metrics of the traced ops; times per op unless named per call
    (_us per call or per round)."""
    ops = {r["op_id"] for r in traced}
    n_ops = len(traced)
    m = dict.fromkeys(PER_LAYER, 0.0)
    c = tracer.counts
    facts = [r["facts"] for r in traced if r["facts"]]

    runs = [s for s in tracer.sweeps if s["op"] in ops]
    if runs:
        sweep_s = []
        build_s = []
        for s in runs:
            ticks = [t for t, _ in s["ticks"]]
            gaps = [b - a for a, b in zip(ticks, ticks[1:])] or [ticks[0] - s["start"]]
            med = statistics.median(gaps)
            sweep_s.append(med)
            build_s.append(ticks[0] - s["start"] - med)
            m["solver.monotone_violations"] += sum(1 for _, inc in s["ticks"] if inc < 0)
        m["solver.sweep_ms"] = statistics.median(sweep_s) * 1e3
        m["solver.kernel_build_s"] = statistics.median(build_s)
        m["solver.node_updates_per_s"] = runs[0]["interior"] / statistics.median(sweep_s)
    if wl.kind == "solve" and facts:
        f = facts[0]
        m["solver.sweeps"] = f["sweeps"]
        m["solver.field_bytes"] = f["field_bytes"]
        m["solver.sup_error"] = f["sup_error"]
        m["solver.samples_per_sweep"] = f["quad_nodes"] * f["interior"]
        m["solver.samples_bytes"] = 8 * f["quad_nodes"] * f["interior"]
        if wl.dim == 3:  # the 3D reduce: M^2 Q3 m multiply-adds per sweep
            m["solver.reduce_madds_per_sweep"] = (
                f["axis_count"] ** 2 * f["quad_nodes"] * f["interior"])
    elif wl.kind == "play":
        folder = wl.field_path.parent
        m["solver.field_bytes"] = sum(p.stat().st_size for p in folder.iterdir())
        m["game.rounds_per_s"] = extra.get("mc_rounds_per_s", 0.0)
    for name, key in (("solver.dpp_residual", "solver.residual_s"),
                      ("solver.save_field", "solver.save_field_s"),
                      ("solver.load_field", "solver.load_field_s")):
        m[key] = _per(*reversed(tracer.span_totals(name, ops)))
    m["solver.contains_us"] = _per(*reversed(tracer.leaf_totals("solver.contains", ops)), 1e6)

    rounds = c["rounds"]
    # every traced cycle replays the same seeds, so per cycle they are exact
    cycles = n_ops // wl.cycle
    m["game.rounds"] = rounds // cycles
    m["game.episodes"] = c["episodes"] // cycles
    m["game.fallback_rounds"] = c["fallback_rounds"] // cycles
    episode_s = tracer.span_totals("game.play_episode", ops)[1]
    loop_self = sum(s["self_s"] for s in tracer.spans
                    if s["name"] == "game.play_episode" and s["op"] in ops)
    m["game.round_us"] = _per(episode_s, rounds, 1e6)
    m["game.strategy_us"] = _per(tracer.leaf_totals("game.strategy", ops)[1], rounds, 1e6)
    m["game.loop_self_us"] = _per(loop_self, rounds, 1e6)
    m["sphere.band_sample_us"] = _per(*reversed(tracer.leaf_totals("sphere.band_sample", ops)), 1e6)
    m["sphere.band_contains_us"] = _per(*reversed(tracer.leaf_totals("sphere.band_contains", ops)), 1e6)
    m["sphere.intersect_caps_us"] = _per(*reversed(tracer.leaf_totals("sphere.intersect_caps", ops)), 1e6)
    m["sphere.normals_per_draw"] = _per(c["normal_rows"], c["draws"])
    m["sphere.accept_ratio"] = _per(c["draws"], c["normal_rows"] + c["uniforms"])

    selfs = tracer.self_by_layer(ops)
    for layer in ("solver", "game", "sphere", "cli"):
        m[f"{layer}.self_s"] = _per(selfs.get(layer, 0.0), n_ops)
    m["analysis.check_s"] = _per(selfs.get("analysis", 0.0), n_ops)
    m["trace.op_s"] = _per(tracer.span_totals("bench.op", ops)[1], n_ops)
    m["trace.remainder_s"] = _per(selfs.get("bench", 0.0), n_ops)
    untraced = sum(r["wall_s"] for r in plain)
    m["trace.overhead_ratio"] = _per(sum(r["wall_s"] for r in traced), untraced)
    m["host.ref_s"] = statistics.mean(host)
    return m


if __name__ == "__main__":
    sys.exit(main())
