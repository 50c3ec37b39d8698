"""The benchmark's four workloads.

Each workload has a set-up (timed on its own, repeated), an operation
that the run repeats for its time budget, and checks on every output.
Solver workloads draw their solver seeds from a fixed pool whose
outputs were frozen in ``reference.json``; the run's ``--seed`` fixes
the order in which pool entries are visited.  The per-operation work
does not depend on the seed, so timings from different seeds compare.

Every library call goes through a module attribute of the package
(``mm.solvers.mamd_unbatched``, not a name imported here), so that the
tracer's rebinding reaches it.
"""

from __future__ import annotations

import contextlib
import io
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from types import SimpleNamespace

import numpy as np

# The median time of speed_probe() over 330 s on the 2-core machine the
# benchmark was built on.  Timed metrics are scaled to this probe speed.
PROBE_REF_S = 0.05


def speed_probe():
    """Time a fixed slice of interpreter and small-array work.

    The machine this benchmark was built on drifts between speed states
    up to 1.75x apart that last from seconds to minutes, longer than a
    run.  The probe uses none of the library, so it measures only that
    drift: a change to the library cannot move it.
    """
    v = np.linspace(0.0, 1.0, 10)
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(6000):
        acc += float(np.clip(v - 0.01 * (i % 50), 0.0, 1.0) @ v) + (i * i) % 7
    return time.perf_counter() - t0


def timed(fn):
    """Run `fn` between two probes: (result, seconds, seconds at the reference probe speed)."""
    before = speed_probe()
    t0 = time.perf_counter()
    out = fn()
    seconds = time.perf_counter() - t0
    after = speed_probe()
    return out, seconds, seconds * PROBE_REF_S / (0.5 * (before + after))


# Solver seeds whose outputs are frozen in reference.json.
SOLVER_POOL = 32
SWEEP_POOL = 16
GAP_TOL = 1e-12


def compare(got, ref, path=""):
    """Mismatches between an output and its frozen reference.

    Integers and strings must match exactly, floats within GAP_TOL.
    """
    if isinstance(ref, dict):
        out = []
        for key in ref:
            if key not in got:
                out.append(f"{path}{key}: missing")
            else:
                out.extend(compare(got[key], ref[key], f"{path}{key}."))
        return out
    if isinstance(ref, list):
        if len(got) != len(ref):
            return [f"{path[:-1]}: length {len(got)} != {len(ref)}"]
        return [m for i, (g, r) in enumerate(zip(got, ref))
                for m in compare(g, r, f"{path}{i}.")]
    if isinstance(ref, float):
        if not abs(float(got) - ref) <= GAP_TOL:
            return [f"{path[:-1]}: {got!r} != {ref!r}"]
        return []
    if got != ref:
        return [f"{path[:-1]}: {got!r} != {ref!r}"]
    return []


def gth_stationary(P):
    """Stationary law by Grassmann-Taksar-Heyman elimination.

    Subtraction-free, so it stays accurate on nearly reducible chains
    where power iteration stops early (Grassmann, Taksar & Heyman 1985).
    """
    A = np.array(P, dtype=float)
    n = A.shape[0]
    for k in range(n - 1, 0, -1):
        A[:k, k] /= A[k, :k].sum()
        A[:k, :k] += np.outer(A[:k, k], A[k, :k])
    pi = np.zeros(n)
    pi[0] = 1.0
    for k in range(1, n):
        pi[k] = pi[:k] @ A[:k, k]
    return pi / pi.sum()


def pi_digits(kernel, pi):
    """-log10 ||pi - pi_GTH||_1, capped at the reference's n * eps accuracy."""
    cap = -np.log10(kernel.n_states * np.finfo(float).eps)
    err = float(np.abs(np.asarray(pi) - gth_stationary(kernel.P)).sum())
    return cap if err == 0.0 else min(cap, -np.log10(err))


def _median(values):
    return float(np.median(values)) if len(values) else float("nan")


class Op:
    """What one timed operation did: operations attempted and failed, outputs.

    Its time is the sum of its timed sections, each between two probes,
    so that a change of machine state inside a long operation is seen.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.record = {}
        self.oracle_calls = 0
        self.seconds = 0.0
        self.at_probe_speed = 0.0

    def fail(self, n, message):
        self.failed = min(self.attempted, self.failed + n)
        self.failures.append(message)

    def timed(self, fn):
        out, seconds, at_probe_speed = timed(fn)
        self.seconds += seconds
        self.at_probe_speed += at_probe_speed
        return out

    def attempt(self, label, fn):
        """Run one checked, timed operation; an exception counts as its failure."""
        self.attempted += 1
        try:
            problems = self.timed(fn)
        except Exception:
            problems = [f"raised:\n{traceback.format_exc()}"]
        if problems:
            self.fail(1, f"{label}: " + "; ".join(problems))


class Workload:
    """Defaults shared by the workloads."""

    min_ops = 2       # operations every run completes, however long they take
    setup_reps = 3    # set-ups per untraced run; setup_s is their median
    pool = None       # size of the frozen seed pool, if operations draw from one

    def prepare(self, mm, ctx, out_dir):
        """Untimed preparation after set-up."""

    def finish(self, ctx, records):
        """Run-level checks over every operation's record: (checks made, failures)."""
        return 0, []

    def peak_rss_mb(self, ctx):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _solver_output(rec, cursor, tracer, rows_before):
    out = {"gap": float(rec.gap[-1]), "calls": int(rec.oracle_calls[-1]),
           "steps": int(rec.chain_steps[-1])}
    problems = []
    if not np.isfinite(out["gap"]) or out["gap"] < 0:
        problems.append(f"gap {out['gap']!r} is not a finite nonnegative number")
    if cursor.n_consumed != out["steps"]:
        problems.append(f"cursor consumed {cursor.n_consumed} states, record says {out['steps']}")
    if tracer is not None:
        rows = tracer.counts["problems.oracle.rows"] - rows_before
        if rows != out["calls"]:
            problems.append(f"oracle evaluated {rows} rows, record says {out['calls']}")
    return out, problems


class _CheckSeven(Workload):
    """Shared shape of the two halves of acceptance check 7.

    One operation is one solver seed: the unbatched run at the full
    budget and the batched run at its smaller T, both on the slow chain
    (tau = 64).  Subclasses supply the instance and the two runs.
    """

    min_ops = 4
    budget = 2 ** 15
    pool = SOLVER_POOL

    def __init__(self, smoke):
        self.scale = 16 if smoke else 1
        self.batched_T = 2048 // self.scale

    def setup(self, mm):
        base = mm.chain.random_ergodic(8, seed=3)
        kernel, _, tau = mm.chain.lazy_for_mixing_time(base, 64)
        problem = self.instance(mm, kernel)
        radius = float(np.sqrt(problem.geometry.diameter_sq()))
        return SimpleNamespace(kernel=kernel, tau=tau, problem=problem, radius=radius)

    def op(self, mm, ctx, pool_seed, reference):
        op = Op()
        streams = np.random.SeedSequence(pool_seed).spawn(3)
        budget = self.budget // self.scale
        for half, run, max_calls in (("unbatched", self.run_unbatched, None),
                                     ("batched", self.run_batched, budget)):
            def checked(run=run, half=half, max_calls=max_calls):
                rows_before = ctx.tracer.counts["problems.oracle.rows"] if ctx.tracer else 0
                rec, cursor = run(mm, ctx, streams)
                out, problems = _solver_output(rec, cursor, ctx.tracer, rows_before)
                op.record[half] = out
                op.oracle_calls += out["calls"]
                if max_calls is not None and out["calls"] > max_calls:
                    problems.append(f"{out['calls']} oracle calls exceed the budget {max_calls}")
                if reference is not None:
                    problems += compare(out, reference["pool"][str(pool_seed)][half])
                return problems
            op.attempt(f"{self.name} seed {pool_seed} {half}", checked)
        return op

    def finish(self, ctx, records):
        """Check 7's inequality over the seeds this run visited.

        It is a claim about the 2^15 budget, so smoke sizes skip it.
        """
        if self.scale != 1:
            return 0, []
        unb = [r["unbatched"]["gap"] for r in records if "unbatched" in r]
        bat = [r["batched"]["gap"] for r in records if "batched" in r]
        if not (unb and bat):
            return 1, ["check 7: no complete seed to compare"]
        if _median(bat) > _median(unb):
            return 1, [f"check 7: median batched gap {_median(bat):.3e}"
                       f" > unbatched {_median(unb):.3e}"]
        return 1, []

    def pi_digits(self, mm, ctx, records):
        return pi_digits(ctx.kernel, mm.chain.stationary(ctx.kernel))


class DescentBox(_CheckSeven):
    name = "descent-box"

    def __init__(self, smoke):
        super().__init__(smoke)
        self.unbatched_T = 2 ** 15 // self.scale

    def instance(self, mm, kernel):
        return mm.problems.make_min_instance(10, kernel, noise_scale=0.7, seed=2)

    def _gap(self, mm, problem):
        return lambda x: mm.validation.subopt_gap(problem, x)

    def run_unbatched(self, mm, ctx, streams):
        p, T = ctx.problem, self.unbatched_T
        schedule = mm.solvers.mamd_unbatched_schedule(p.L, ctx.radius, p.sigma, ctx.tau, T)
        cursor = mm.chain.ChainCursor(ctx.kernel, np.random.default_rng(streams[0]))
        rec = mm.solvers.mamd_unbatched(p, schedule, cursor, T, gap_fn=self._gap(mm, p))
        return rec, cursor

    def run_batched(self, mm, ctx, streams):
        p, T = ctx.problem, self.batched_T
        schedule, cfg = mm.solvers.mamd_batched_schedule(p.L, ctx.radius, p.sigma, ctx.tau, T)
        cursor = mm.chain.ChainCursor(ctx.kernel, np.random.default_rng(streams[1]))
        rec = mm.solvers.mamd_batched(p, schedule, cursor, T, cfg,
                                      np.random.default_rng(streams[2]),
                                      gap_fn=self._gap(mm, p))
        return rec, cursor


class GameSimplex(_CheckSeven):
    name = "game-simplex"
    min_ops = 3

    def __init__(self, smoke):
        super().__init__(smoke)
        self.unbatched_T = 2 ** 14 // self.scale  # two oracle calls per iteration

    def instance(self, mm, kernel):
        return mm.problems.make_vi_instance((4, 4), kernel, noise_scale=0.7, seed=3)

    def _gap(self, mm, problem):
        return lambda x: mm.validation.err_vi(problem, x)

    def run_unbatched(self, mm, ctx, streams):
        g, T = ctx.problem, self.unbatched_T
        gamma = mm.solvers.mmp_unbatched_stepsize(g.L_tilde, ctx.radius, g.sigma, ctx.tau, T)
        cursor = mm.chain.ChainCursor(ctx.kernel, np.random.default_rng(streams[0]))
        rec = mm.solvers.mmp_unbatched(g, gamma, cursor, T, gap_fn=self._gap(mm, g))
        return rec, cursor

    def run_batched(self, mm, ctx, streams):
        g, T = ctx.problem, self.batched_T
        gamma, cfg = mm.solvers.mmp_batched_params(g.L, ctx.radius, g.sigma, ctx.tau, T)
        cursor = mm.chain.ChainCursor(ctx.kernel, np.random.default_rng(streams[1]))
        rec = mm.solvers.mmp_batched(g, gamma, cursor, T, cfg,
                                     np.random.default_rng(streams[2]),
                                     gap_fn=self._gap(mm, g))
        return rec, cursor


class ChainStats(Workload):
    """Chain and validation layers, no solver: one operation is one pass of six calls."""

    name = "chain-stats"
    setup_reps = 5
    targets = (12, 48)
    near_reducible = 0.9999

    def __init__(self, smoke):
        self.dev_trials = 100 if smoke else 1000
        self.pair_trials = 2000 if smoke else 10_000

    def setup(self, mm):
        base = mm.chain.random_ergodic(8, seed=3)
        problem = mm.problems.make_min_instance(6, base, noise_scale=1.0, seed=0)
        return SimpleNamespace(base=base, problem=problem,
                               deviations=problem.noise_deviations())

    def op(self, mm, ctx, op_seed, reference):
        op = Op()
        rng = np.random.default_rng(op_seed)
        norm_pair = ctx.problem.geometry.norm_pair
        lazy = {}
        rec = op.record

        for target in self.targets:
            def mix(target=target):
                kernel, alpha, tau = mm.chain.lazy_for_mixing_time(ctx.base, target)
                lazy[target] = kernel
                rec.setdefault("tau", {})[str(target)] = int(tau)
                problems = [] if tau >= target else [f"tau {tau} < target {target}"]
                if reference is not None and tau != reference["tau"][str(target)]:
                    problems.append(f"tau {tau} != reference {reference['tau'][str(target)]}")
                return problems
            op.attempt(f"lazy_for_mixing_time({target})", mix)

        def near():
            kernel = mm.chain.make_lazy(ctx.base, self.near_reducible)
            pi = mm.chain.stationary(kernel)
            residual = float(np.abs(pi @ kernel.P - pi).sum())
            rec["pi"] = [float(v) for v in pi]
            rec["pi_residual"] = residual
            return [] if residual <= 1e-10 else [f"pi residual {residual:.2e} > 1e-10"]
        op.attempt(f"stationary(make_lazy(base, {self.near_reducible}))", near)

        lo_dev, hi_dev = mm.validation.DEVIATION_SLOPE_WINDOW
        lo_bias, hi_bias = mm.validation.BIAS_SLOPE_WINDOW

        def deviation():
            report = mm.validation.deviation_scaling(
                lazy[self.targets[0]], ctx.deviations, norm_pair,
                [2 ** k for k in range(4, 13)], self.dev_trials, rng)
            rec["deviation_slope"] = report.slope
            ok = lo_dev <= report.slope <= hi_dev
            return [] if ok else [f"slope {report.slope:.3f} outside [{lo_dev}, {hi_dev}]"]
        op.attempt("deviation_scaling", deviation)

        def bias():
            report = mm.validation.batch_bias_profile(
                lazy[self.targets[1]], ctx.deviations, norm_pair, [4, 16, 64, 256])
            rec["bias_slope"] = report.slope
            ok = lo_bias <= report.slope <= hi_bias
            return [] if ok else [f"slope {report.slope:.3f} outside [{lo_bias}, {hi_bias}]"]
        op.attempt("batch_bias_profile", bias)

        def pairing():
            cfg = mm.estimators.MlmcConfig(B=1, M=64)
            report = mm.validation.unbiasedness_check(
                ctx.problem, ctx.problem.geometry.center(), cfg, self.pair_trials, rng)
            rec["pairing_ratio"] = report.max_abs_ratio
            op.oracle_calls += self.pair_trials * (1 << cfg.max_level) * cfg.B
            ok = report.max_abs_ratio <= 4.0
            return [] if ok else [f"pairing ratio {report.max_abs_ratio:.2f} > 4"]
        op.attempt("unbiasedness_check", pairing)
        return op

    def pi_digits(self, mm, ctx, records):
        kernel = mm.chain.make_lazy(ctx.base, self.near_reducible)
        return _median([pi_digits(kernel, r["pi"]) for r in records if "pi" in r])


SWEEP_CONFIG = """\
problem.kind = quadratic
problem.geometry = ball
problem.d = {d}
chain.laziness = 0.99
algorithm = mamd-batched
sweep.T = {grid}
"""


class CliSweep(Workload):
    """`markovmirror sweep --jobs 2` as a subprocess; traced in-process with --jobs 1."""

    name = "cli-sweep"
    min_ops = 3
    pool = SWEEP_POOL
    seeds_per_sweep = 4

    def __init__(self, smoke):
        self.grid = (16, 32) if smoke else (64, 128, 256, 512, 1024)
        self.d = 16 if smoke else 256

    def setup(self, mm):
        # the set-up a user of the command pays: a fresh interpreter importing the package
        subprocess.run([sys.executable, "-c", "import markovmirror"], env=_child_env(),
                       check=True)
        return SimpleNamespace()

    def prepare(self, mm, ctx, out_dir):
        # a directory of its own, so concurrent runs never share sweep files;
        # removed when the interpreter exits
        ctx.tmp = tempfile.TemporaryDirectory(prefix="cli-sweep.", dir=out_dir)
        ctx.dir = ctx.tmp.name
        ctx.config_text = SWEEP_CONFIG.format(d=self.d, grid=" ".join(map(str, self.grid)))
        ctx.config = os.path.join(ctx.dir, "sweep.cfg")
        with open(ctx.config, "w") as fh:
            fh.write(ctx.config_text)
        ctx.peaks = []

    def _seeds(self, pool_seed):
        first = pool_seed * self.seeds_per_sweep
        return ",".join(str(s) for s in range(first, first + self.seeds_per_sweep))

    def op(self, mm, ctx, pool_seed, reference):
        op = Op()
        cells = len(self.grid) * self.seeds_per_sweep
        op.attempted = cells
        out = os.path.join(ctx.dir, "out")
        shutil.rmtree(out, ignore_errors=True)
        argv = ["sweep", "--config", ctx.config, "--seed", self._seeds(pool_seed), "--out", out]
        rows_before = ctx.tracer.counts["problems.oracle.rows"] if ctx.tracer else 0
        try:
            if ctx.tracer is None:
                code, err = op.timed(lambda: self._subprocess(ctx, argv + ["--jobs", "2"]))
            else:
                code, err = op.timed(lambda: self._in_process(mm, argv + ["--jobs", "1"]))
            rows = self._read_rows(out) if code == 0 else None
        except Exception:
            code, err, rows = None, traceback.format_exc(), None
        if code != 0 or rows is None:
            op.fail(cells, f"sweep {pool_seed} exited {code}: {err}")
            return op
        op.record["rows"] = rows
        ref = None if reference is None else reference["pool"][str(pool_seed)]
        if [r[0] for r in rows] != list(self.grid):
            op.fail(cells, f"sweep {pool_seed}: T column {[r[0] for r in rows]}")
            return op
        for i, (T, calls, *gaps) in enumerate(rows):
            problems = [] if calls >= T else [f"{calls} oracle calls < T"]
            if not all(np.isfinite(g) and g >= 0 for g in gaps):
                problems.append(f"gaps {gaps}")
            if ref is not None:
                problems += compare(rows[i], ref["rows"][i])
            if problems:
                op.fail(self.seeds_per_sweep, f"sweep {pool_seed} row T={T}: " + "; ".join(problems))
        if ctx.tracer is not None:
            op.oracle_calls = ctx.tracer.counts["problems.oracle.rows"] - rows_before
            op.record["oracle_calls"] = op.oracle_calls
            if ref is not None and op.oracle_calls != ref["oracle_calls"]:
                op.fail(cells, f"sweep {pool_seed}: {op.oracle_calls} oracle rows,"
                               f" reference {ref['oracle_calls']}")
        elif ref is not None:
            # the rows match the reference, whose exact count came from a traced sweep
            op.oracle_calls = ref["oracle_calls"]
        else:
            # no reference at smoke sizes: the per-T median calls stand in for every seed
            op.oracle_calls = sum(row[1] for row in rows) * self.seeds_per_sweep
        return op

    def _subprocess(self, ctx, argv):
        proc = subprocess.Popen([sys.executable, "-m", "markovmirror.cli"] + argv,
                                env=_child_env(), stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        watcher = _TreePeak(proc.pid)
        try:
            _, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)  # the sweep and its pool workers
                proc.communicate()
            watcher.stop()
        ctx.peaks.append(watcher.peak_mb())
        return proc.returncode, err

    def _in_process(self, mm, argv):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = mm.cli.main(argv)
        return code, sink.getvalue()

    @staticmethod
    def _read_rows(out):
        names = [f for f in os.listdir(out) if f.startswith("sweep_") and f.endswith(".csv")]
        if len(names) != 1:
            return None
        with open(os.path.join(out, names[0])) as fh:
            lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
        rows = []
        for line in lines[1:]:
            T, calls, *gaps = line.split(",")
            rows.append([int(T), int(calls)] + [float(g) for g in gaps])
        return rows

    def pi_digits(self, mm, ctx, records):
        cli = mm.cli
        res = cli.resolve_config(cli.parse_config_text(ctx.config_text))
        kernel = cli.build_kernel(res)
        return pi_digits(kernel, mm.chain.stationary(kernel))

    def peak_rss_mb(self, ctx):
        return _median(ctx.peaks)


def _child_env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _children_by_parent():
    children = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        children.setdefault(ppid, []).append(int(entry))
    return children


def _vm_hwm_kb(pid):
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


class _TreePeak:
    """Polls the peak resident set (VmHWM) of a process and all its descendants.

    The reported figure is the sum of each process's own peak, which is
    what the command needs at once when its workers run side by side.
    """

    interval = 0.05

    def __init__(self, root_pid):
        self.root = root_pid
        self.peaks = {}
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)
        self._thread.start()

    def _poll(self):
        while not self._done.is_set():
            children = _children_by_parent()
            stack = [self.root]
            while stack:
                pid = stack.pop()
                stack.extend(children.get(pid, ()))
                self.peaks[pid] = max(self.peaks.get(pid, 0), _vm_hwm_kb(pid))
            self._done.wait(self.interval)

    def stop(self):
        self._done.set()
        self._thread.join(timeout=5)

    def peak_mb(self):
        return sum(self.peaks.values()) / 1024.0


WORKLOADS = {w.name: w for w in (DescentBox, GameSimplex, ChainStats, CliSweep)}
