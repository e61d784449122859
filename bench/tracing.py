"""Outside-in tracing of curvegame's layers for the traced benchmark run.

Spans are recorded only around calls into the public callables of
``curvegame.solver``, ``curvegame.game``, ``curvegame.sphere`` and
``curvegame.cli``, by patching module and class attributes from this file for
the duration of a traced op (``instrument``).  Nothing inside the program is
changed, so a traced op writes the same bytes as an untraced one.

Two kinds of span are kept in memory:

* coarse spans (op, cli.main, value_iteration, save/load_field, one episode,
  ...) are stored one record each: name, start, end, parent, op id, self time;
* per-round leaf calls (strategy, intersect_caps, band sample/contains,
  domain contains) run ~10^5 times per op, so they are folded into one record
  per (op, coarse parent, name) holding the call count and total/self time.

A span's self time is its duration minus the time covered by its child
spans; the layer of a span is the prefix of its name before the first dot.
The tracer assumes one thread: traced ops run with ``--threads 1``.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []  # coarse span records (dicts), in start order
        self.leaves = {}  # (op, parent id, name) -> [calls, total_s, self_s]
        self.counts = Counter()
        self.sweeps = []  # one record per value_iteration call
        self.op = None
        # frames: [coarse span id, start, child seconds, leaf totals of the
        # nearest coarse span]
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a coarse span called name."""
        sid = len(self.spans)
        self.spans.append(None)  # reserved so children can name the parent
        stack = self._stack
        parent = stack[-1][0] if stack else None
        frame = [sid, perf_counter(), 0.0, {}]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            dur = end - frame[1]
            if stack:
                stack[-1][2] += dur
            self.spans[sid] = {
                "id": sid, "name": name, "start": frame[1], "end": end,
                "parent": parent, "op": self.op, "self_s": dur - frame[2],
            }
            for leaf_name, acc in frame[3].items():
                self.leaves[(self.op, sid, leaf_name)] = acc

    def leaf(self, name, fn, *args, **kwargs):
        """Run fn inside a leaf span, folded into its coarse parent's totals.

        Must run inside a coarse span; traced ops always do (``bench.op``).
        """
        stack = self._stack
        parent = stack[-1]
        frame = [parent[0], perf_counter(), 0.0, parent[3]]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            dur = perf_counter() - frame[1]
            stack.pop()
            parent[2] += dur
            acc = frame[3].get(name)
            if acc is None:
                acc = frame[3][name] = [0, 0.0, 0.0]
            acc[0] += 1
            acc[1] += dur
            acc[2] += dur - frame[2]

    # -- reductions over the recorded spans ----------------------------------

    def self_by_layer(self, ops) -> dict:
        """Self seconds per layer, summed over the given op ids."""
        out: Counter = Counter()
        for s in self.spans:
            if s["op"] in ops:
                out[s["name"].split(".")[0]] += s["self_s"]
        for (op, _, name), (_, _, self_s) in self.leaves.items():
            if op in ops:
                out[name.split(".")[0]] += self_s
        return dict(out)

    def leaf_totals(self, name, ops) -> tuple:
        """(calls, total seconds) of one leaf span name over the given ops."""
        calls, total = 0, 0.0
        for (op, _, n), (c, t, _) in self.leaves.items():
            if n == name and op in ops:
                calls += c
                total += t
        return calls, total

    def span_totals(self, name, ops) -> tuple:
        """(count, total seconds) of one coarse span name over the given ops."""
        hits = [s for s in self.spans if s["name"] == name and s["op"] in ops]
        return len(hits), sum(s["end"] - s["start"] for s in hits)

    def write(self, path) -> None:
        """Write every span as one JSON line, coarse spans first."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
            for (op, parent, name), (calls, total, self_s) in self.leaves.items():
                fh.write(json.dumps({
                    "name": name, "parent": parent, "op": op, "calls": calls,
                    "total_s": total, "self_s": self_s,
                }) + "\n")


class CountingRng:
    """Forwards to a numpy Generator, counting the candidate directions drawn.

    play_episode hands the Generator it was given to the band sampler, so
    wrapping it keeps the stream (and every sampled direction) unchanged.
    """

    def __init__(self, rng, counts: Counter):
        self._rng = rng
        self._counts = counts

    def random(self, *args, **kwargs):
        self._counts["uniforms"] += 1
        return self._rng.random(*args, **kwargs)

    def normal(self, *args, size=None, **kwargs):
        rows = size[0] if isinstance(size, tuple) else (size or 1)
        self._counts["normal_rows"] += rows
        return self._rng.normal(*args, size=size, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


class TracedDomain:
    """Domain proxy whose contains() calls are leaf spans of the solver layer."""

    def __init__(self, domain, tracer: Tracer):
        self._domain = domain
        self._tracer = tracer

    def contains(self, points):
        return self._tracer.leaf("solver.contains", self._domain.contains, points)

    def __getattr__(self, name):
        return getattr(self._domain, name)


@contextmanager
def instrument(tracer: Tracer, solver, game, sphere):
    """Patch the layers' public callables with span-recording wrappers."""
    orig = {
        (solver, "domain_from_dict"): solver.domain_from_dict,
        (solver, "value_iteration"): solver.value_iteration,
        (solver, "dpp_residual"): solver.dpp_residual,
        (solver, "save_field"): solver.save_field,
        (solver, "load_field"): solver.load_field,
        (game, "gradient_cap_strategy"): game.gradient_cap_strategy,
        (game, "run_episodes"): game.run_episodes,
        (game, "play_episode"): game.play_episode,
        (sphere, "intersect_caps"): sphere.intersect_caps,
        (sphere.CapIntersection, "sample"): sphere.CapIntersection.sample,
        (sphere.CapIntersection, "contains"): sphere.CapIntersection.contains,
    }

    def coarse(owner, attr, name):
        fn = orig[(owner, attr)]
        return lambda *a, **k: tracer.call(name, fn, *a, **k)

    def leaf(owner, attr, name):
        fn = orig[(owner, attr)]
        return lambda *a, **k: tracer.leaf(name, fn, *a, **k)

    def domain_from_dict(d):
        # load_field resolves domain_from_dict through the module too, so
        # both solve and simulate end up with the proxy domain
        return TracedDomain(orig[(solver, "domain_from_dict")](d), tracer)

    def value_iteration(domain, cfg, start=None, monitor=None):
        ticks = []

        def tick(n, increment):
            ticks.append((perf_counter(), increment))
            if monitor is not None:
                monitor(n, increment)

        t0 = perf_counter()
        field = tracer.call("solver.value_iteration",
                            orig[(solver, "value_iteration")], domain, cfg,
                            start, monitor=tick)
        tracer.sweeps.append({
            "op": tracer.op, "start": t0, "ticks": ticks,
            "interior": int(field.interior_mask.sum()),
        })
        return field

    def gradient_cap_strategy(field, player):
        inner = tracer.call("game.gradient_cap_strategy",
                            orig[(game, "gradient_cap_strategy")], field, player)
        return lambda x, k, eps: tracer.leaf("game.strategy", inner, x, k, eps)

    def play_episode(*args, **kwargs):
        args = list(args)
        args[5] = CountingRng(args[5], tracer.counts)
        ep = tracer.call("game.play_episode", orig[(game, "play_episode")],
                         *args, **kwargs)
        tracer.counts["episodes"] += 1
        tracer.counts["rounds"] += ep.tau
        tracer.counts["fallback_rounds"] += ep.fallbacks
        return ep

    def band_sample(self, *args, **kwargs):
        tracer.counts["draws"] += 1
        return tracer.leaf("sphere.band_sample", orig[(sphere.CapIntersection, "sample")],
                           self, *args, **kwargs)

    patches = {
        (solver, "domain_from_dict"): domain_from_dict,
        (solver, "value_iteration"): value_iteration,
        (solver, "dpp_residual"): coarse(solver, "dpp_residual", "solver.dpp_residual"),
        (solver, "save_field"): coarse(solver, "save_field", "solver.save_field"),
        (solver, "load_field"): coarse(solver, "load_field", "solver.load_field"),
        (game, "gradient_cap_strategy"): gradient_cap_strategy,
        (game, "run_episodes"): coarse(game, "run_episodes", "game.run_episodes"),
        (game, "play_episode"): play_episode,
        (sphere, "intersect_caps"): leaf(sphere, "intersect_caps", "sphere.intersect_caps"),
        (sphere.CapIntersection, "sample"): band_sample,
        (sphere.CapIntersection, "contains"): leaf(
            sphere.CapIntersection, "contains", "sphere.band_contains"),
    }
    try:
        for (owner, attr), fn in patches.items():
            setattr(owner, attr, fn)
        yield tracer
    finally:
        for (owner, attr), fn in orig.items():
            setattr(owner, attr, fn)
