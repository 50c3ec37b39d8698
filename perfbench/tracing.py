"""In-memory spans and counters around the library's public callables.

The tracer replaces each traced callable in every namespace its callers
look it up in (a module global, a package re-export, a class attribute),
so nothing inside ``src/`` has to know about tracing.  A span is one
call: its name, start, end and the span that was open when it started.
Spans live in flat arrays while the benchmark runs and are written out
once, at the end.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts = defaultdict(int)
        self._open = [-1]

    def _name(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, count=None):
        """Return `fn` recording one span per call; `count(counts, args, out)` adds counters."""
        nid = self._name(name)
        clock = time.perf_counter
        open_ = self._open

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(open_[-1])
            self.end.append(0.0)
            open_.append(idx)
            self.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                open_.pop()
            if count is not None:
                count(self.counts, args, out)
            return out

        return traced

    def mark(self):
        """Position to cut a prefix of the trace at: (number of spans, counters)."""
        return len(self.start), dict(self.counts)

    def table(self, upto=None):
        """Per span name: calls, total seconds, self seconds, seconds in children by name."""
        n = len(self.start) if upto is None else upto
        ids = np.frombuffer(self.name_id, dtype=np.int32)[:n]
        par = np.frombuffer(self.parent, dtype=np.int64)[:n]
        dur = (np.frombuffer(self.end, dtype=np.float64)[:n]
               - np.frombuffer(self.start, dtype=np.float64)[:n])
        k = len(self.names)
        has_parent = par >= 0
        child_time = np.bincount(par[has_parent], weights=dur[has_parent], minlength=n)
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=dur, minlength=k)
        self_s = np.bincount(ids, weights=dur - child_time, minlength=k)
        # time of each (parent name, child name) pair, for "span minus some children"
        pair = np.zeros((k, k))
        np.add.at(pair, (ids[par[has_parent]], ids[has_parent]), dur[has_parent])
        return {
            name: {
                "calls": int(calls[i]),
                "s": float(total[i]),
                "self_s": float(self_s[i]),
                "children_s": {self.names[j]: float(pair[i, j]) for j in np.flatnonzero(pair[i])},
            }
            for i, name in enumerate(self.names)
        }

    def save(self, path):
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def _patch(tracer, name, owners, attr, count=None):
    """Wrap `attr` once and rebind it wherever an owner holds the same object."""
    present = [o for o in owners if hasattr(o, attr)]
    if not present:
        return
    original = getattr(present[0], attr)
    wrapped = tracer.wrap(name, original, count)
    for owner in present:
        if getattr(owner, attr) is original:
            setattr(owner, attr, wrapped)


def _count_advance(counts, args, out):
    counts["chain.advance.states"] += int(args[1])


def _count_oracle(counts, args, out):
    counts["problems.oracle.rows"] += int(np.size(args[2]))


def _count_mlmc(counts, args, out):
    config = args[3]
    counts["estimators.mlmc.oracle_calls"] += out.oracle_calls
    counts["estimators.mlmc.chain_steps"] += out.chain_steps
    counts["estimators.mlmc.expected_calls"] += config.expected_oracle_calls()
    if (1 << out.level) > config.M:
        counts["estimators.mlmc.truncations"] += 1


def _count_iters(name):
    def count(counts, args, out):
        counts[f"solvers.{name}.iters"] += int(args[3])
    return count


SOLVERS = ("mamd_unbatched", "mamd_batched", "mmp_unbatched", "mmp_batched")


def install(tracer, mm):
    """Trace every layer of the `markovmirror` package `mm`."""
    chain, problems, estimators = mm.chain, mm.problems, mm.estimators
    solvers, validation, cli, geometry = mm.solvers, mm.validation, mm.cli, mm.geometry
    everywhere = (mm, chain, problems, estimators, solvers, validation, cli)

    _patch(tracer, "chain.advance", [chain.ChainCursor], "advance", _count_advance)
    _patch(tracer, "chain.skip", [chain.ChainCursor], "skip")
    _patch(tracer, "chain.step", [chain.TransitionKernel], "step")
    _patch(tracer, "chain.stationary", everywhere, "stationary")
    _patch(tracer, "chain.mixing_time", everywhere, "mixing_time")
    for kind, cls in (("box", geometry.BoxGeometry), ("simplex", geometry.SimplexGeometry),
                      ("ball", geometry.BallGeometry)):
        _patch(tracer, f"geometry.prox.{kind}", [cls], "prox")
    _patch(tracer, "problems.oracle", [problems.MinProblem], "grad_oracle", _count_oracle)
    _patch(tracer, "problems.oracle", [problems.ViProblem], "op_oracle", _count_oracle)
    for builder in ("make_min_instance", "make_vi_instance", "matching_pennies"):
        _patch(tracer, "problems.build", everywhere, builder)
    _patch(tracer, "estimators.mlmc", everywhere, "mlmc_geometric", _count_mlmc)
    for est in ("single_sample", "batch_mean", "combine_levels"):
        _patch(tracer, f"estimators.{est}", everywhere, est)
    for name in SOLVERS:
        _patch(tracer, f"solvers.{name}", everywhere, name, _count_iters(name))
    for name in ("subopt_gap", "err_vi", "deviation_scaling", "unbiasedness_check",
                 "batch_bias_profile"):
        _patch(tracer, f"validation.{name}", everywhere, name)
    _patch(tracer, "cli.cell", [cli], "_worker_run")
    for attr in ("build_kernel", "build_problem", "_resolve_tau"):
        _patch(tracer, "cli.cell_build", [cli], attr)
    _patch(tracer, "cli.cell_solve", [cli], "_run_solver")
    _patch(tracer, "cli.csv", [cli], "_write_csv")


def _us(row):
    return 1e6 * row["s"] / row["calls"] if row["calls"] else 0.0


def layer_metrics(tracer, counts_mark):
    """Per-layer metrics: counts from the trace prefix `counts_mark`, times from all of it.

    Counts stop at a fixed operation so that they repeat exactly however
    many operations fit in the run; times use every span recorded.
    """
    upto, counts = counts_mark
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "children_s": {}}
    times = tracer.table()
    prefix = tracer.table(upto)

    def t(name):
        return times.get(name, empty)

    def c(name):
        return prefix.get(name, empty)["calls"]

    m = {}
    m["chain.advance.calls"] = c("chain.advance")
    m["chain.advance.states"] = counts.get("chain.advance.states", 0)
    m["chain.advance.us_per_call"] = _us(t("chain.advance"))
    for name in ("skip", "stationary", "mixing_time"):
        m[f"chain.{name}.calls"] = c(f"chain.{name}")
        m[f"chain.{name}.us_per_call"] = _us(t(f"chain.{name}"))
    m["chain.step.us_per_call"] = _us(t("chain.step"))
    for kind in ("box", "simplex", "ball"):
        m[f"geometry.prox.{kind}.calls"] = c(f"geometry.prox.{kind}")
        m[f"geometry.prox.{kind}.us_per_call"] = _us(t(f"geometry.prox.{kind}"))
    m["problems.oracle.rows"] = counts.get("problems.oracle.rows", 0)
    m["problems.oracle.us_per_call"] = _us(t("problems.oracle"))
    m["problems.build.s"] = t("problems.build")["s"]
    calls = counts.get("estimators.mlmc.oracle_calls", 0)
    steps = counts.get("estimators.mlmc.chain_steps", 0)
    expected = counts.get("estimators.mlmc.expected_calls", 0)
    m["estimators.mlmc.calls"] = c("estimators.mlmc")
    m["estimators.mlmc.us_per_call"] = _us(t("estimators.mlmc"))
    m["estimators.mlmc.truncations"] = counts.get("estimators.mlmc.truncations", 0)
    m["estimators.mlmc.calls_over_expected"] = calls / expected if expected else 0.0
    m["estimators.mlmc.calls_per_step"] = calls / steps if steps else 0.0
    m["estimators.batch_mean.us_per_call"] = _us(t("estimators.batch_mean"))
    m["estimators.combine_levels.us_per_call"] = _us(t("estimators.combine_levels"))
    for name in SOLVERS:
        row = t(f"solvers.{name}")
        iters = tracer.counts.get(f"solvers.{name}.iters", 0)
        metric_s = sum(s for child, s in row["children_s"].items()
                       if child.startswith("validation."))
        m[f"solvers.{name}.us_per_iter"] = 1e6 * (row["s"] - metric_s) / iters if iters else 0.0
        m[f"solvers.{name}.self_us_per_iter"] = 1e6 * row["self_s"] / iters if iters else 0.0
    for name in ("subopt_gap", "err_vi"):
        m[f"validation.{name}.calls"] = c(f"validation.{name}")
        m[f"validation.{name}.us_per_call"] = _us(t(f"validation.{name}"))
    for name in ("deviation_scaling", "unbiasedness_check", "batch_bias_profile"):
        m[f"validation.{name}.s"] = t(f"validation.{name}")["s"]
    cell = t("cli.cell")
    m["cli.cells"] = c("cli.cell")
    m["cli.cell_build.s"] = cell["children_s"].get("cli.cell_build", 0.0)
    m["cli.cell_solve.s"] = t("cli.cell_solve")["s"]
    m["cli.csv.s"] = t("cli.csv")["s"]
    return m
