"""Experiment command line: config ingestion, orchestration, CSV emission.

Commands: run, sweep, diagnose-chain, check-lemma1, check-lemma2.

Configs are line-oriented dotted-key text::

    problem.kind = quadratic
    problem.d = 20
    chain.n = 8
    algorithm = mamd-batched
    T = 1024
    seeds = 0,1,2

Every emitted CSV starts with `# key = value` lines echoing the fully
resolved config plus the library version; floats print with 17
significant digits so a reread is bit-exact.  Runs parallelize across
seeds only (``--jobs``); setting ``MM_DETERMINISTIC=1`` forces
single-job execution and zeroes the wall_ms column so repeated
invocations produce byte-identical files.

Exit codes: 0 success, 1 check outside its acceptance window, 2 config
error, 3 runtime error, 4 ergodicity failure, 5 insufficient
statistics.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .chain import (ChainCursor, TransitionKernel, diagnose, make_lazy, mixing_time,
                    random_ergodic)
from .errors import (
    ConfigError,
    ErgodicityError,
    InputError,
    MarkovMirrorError,
    StatisticsError,
)
from .estimators import MlmcConfig
from .problems import make_min_instance, make_vi_instance, matching_pennies
from .solvers import (
    MamdSchedule,
    mamd_batched,
    mamd_batched_schedule,
    mamd_unbatched,
    mamd_unbatched_schedule,
    mmp_batched,
    mmp_batched_params,
    mmp_unbatched,
    mmp_unbatched_stepsize,
)
from .validation import (
    BIAS_SLOPE_WINDOW,
    DEVIATION_SLOPE_WINDOW,
    batch_bias_profile,
    bootstrap_rate_ci,
    deviation_scaling,
    err_vi,
    rate_fit,
    subopt_gap,
    unbiasedness_check,
)

from . import __version__

RUN_COLUMNS = ("t", "oracle_calls", "chain_steps", "gap", "wall_ms")

_ALGORITHMS = ("mamd", "mamd-batched", "mmp", "mmp-batched", "synthetic")
_PROBLEM_KINDS = ("quadratic", "game", "matching-pennies")
_GEOMETRIES = ("box", "ball", "simplex")


# ---------------------------------------------------------------------------
# config parsing and resolution


def parse_config_text(text):
    """Parse dotted-key lines into {key: (value, line_no)}; '#' starts a comment."""
    out = {}
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", line=i)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or any(c.isspace() for c in key):
            raise ConfigError(f"malformed key {key!r}", line=i)
        if key in out:
            raise ConfigError(f"duplicate key {key!r}", line=i)
        out[key] = (value, i)
    return out


def _parse_int(raw, key, line):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key} expects an integer, got {raw!r}", line=line) from None


def _parse_float(raw, key, line):
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{key} expects a number, got {raw!r}", line=line) from None


def _parse_int_list(raw, key, line):
    parts = [p for p in raw.replace(",", " ").split() if p]
    if not parts:
        raise ConfigError(f"{key} expects a non-empty integer list", line=line)
    return [_parse_int(p, key, line) for p in parts]


def _parse_matrix(raw, key, line):
    rows = [r for r in raw.split(";") if r.strip()]
    try:
        mat = [[float(v) for v in r.replace(",", " ").split()] for r in rows]
    except ValueError:
        raise ConfigError(f"{key} has a non-numeric entry", line=line) from None
    if not mat or any(len(r) != len(mat) for r in mat):
        raise ConfigError(f"{key} must be a square matrix (rows split by ';')", line=line)
    return mat


_SCHEMA = {
    "problem.kind": ("enum", _PROBLEM_KINDS, "quadratic"),
    "problem.d": ("int", None, 10),
    "problem.blocks": ("ints", None, [2, 2]),
    "problem.geometry": ("enum", _GEOMETRIES, "box"),
    "problem.noise": ("float", None, 1.0),
    "problem.seed": ("int", None, 0),
    "problem.smoothness": ("float", None, 1.0),
    "problem.lipschitz": ("float", None, 1.0),
    "chain.matrix": ("matrix", None, None),
    "chain.n": ("int", None, 8),
    "chain.seed": ("int", None, 0),
    "chain.laziness": ("float", None, 0.0),
    "chain.tau_mix": ("int", None, None),
    "algorithm": ("enum", _ALGORITHMS, "mamd-batched"),
    "schedule.source": ("enum", ("auto", "explicit"), "auto"),
    "schedule.gamma": ("float", None, None),
    "schedule.c": ("float", None, None),
    "T": ("int", None, 256),
    "B": ("int", None, None),
    "M": ("int", None, None),
    "seeds": ("ints", None, [0]),
    "stride": ("int", None, 1),
    "out": ("str", None, "."),
    "metrics": ("enum", ("gap", "none"), "gap"),
    "sweep.T": ("ints", None, [64, 128, 256, 512, 1024]),
    "check.N": ("ints", None, [2**k for k in range(4, 13)]),
    "check.trials": ("int", None, 2000),
    "check.M": ("ints", None, [4, 16, 64, 256]),
    "check.B": ("int", None, 1),
    "synthetic.exponent": ("float", None, -2.0),
}


def resolve_config(raw, solve=False):
    """Type-check raw strings against the schema and fill defaults.

    `solve` marks a config that drives solver runs (run, sweep), whose
    algorithm must then fit the problem kind.
    """
    res = {}
    for key, (value, line) in raw.items():
        if key not in _SCHEMA:
            raise ConfigError(f"unknown key {key!r}", line=line)
        kind, extra, _ = _SCHEMA[key]
        if kind == "enum":
            if value not in extra:
                raise ConfigError(
                    f"{key} must be one of {', '.join(extra)}; got {value!r}", line=line
                )
            res[key] = value
        elif kind == "int":
            res[key] = _parse_int(value, key, line)
        elif kind == "float":
            res[key] = _parse_float(value, key, line)
        elif kind == "ints":
            res[key] = _parse_int_list(value, key, line)
        elif kind == "matrix":
            res[key] = _parse_matrix(value, key, line)
        else:
            res[key] = value
    for key, (_, _, default) in _SCHEMA.items():
        res.setdefault(key, default)

    def line(key):
        return raw.get(key, (None, None))[1]

    noise = res["problem.noise"]
    if not (np.isfinite(noise) and noise >= 0):
        raise ConfigError("problem.noise must be finite and >= 0", line=line("problem.noise"))
    for key in ("problem.smoothness", "problem.lipschitz"):
        if not np.isfinite(res[key]):
            raise ConfigError(f"{key} must be finite", line=line(key))
    if not 0.0 <= res["chain.laziness"] < 1.0:  # also catches NaN
        raise ConfigError("chain.laziness must lie in [0, 1)", line=line("chain.laziness"))
    for key in ("T", "stride", "B", "M"):
        if res[key] is not None and res[key] < 1:
            raise ConfigError(f"{key} must be >= 1", line=line(key))
    for key in ("problem.seed", "chain.seed"):
        if res[key] < 0:
            raise ConfigError(f"{key} must be >= 0", line=line(key))
    # the parser rejects empty lists
    if min(res["seeds"]) < 0:
        raise ConfigError("seeds must be >= 0", line=line("seeds"))
    if min(res["sweep.T"]) < 1:
        raise ConfigError("sweep.T entries must be >= 1", line=line("sweep.T"))
    if solve and res["algorithm"].startswith("mamd") and res["problem.kind"] != "quadratic":
        # mamd needs a gradient oracle; the default algorithm is mamd-batched
        raise ConfigError(f"algorithm {res['algorithm']} needs problem.kind = quadratic",
                          line=line("algorithm") or line("problem.kind"))
    if res["schedule.source"] == "explicit":
        alg = res["algorithm"]
        if alg.startswith("mamd") and res["schedule.c"] is None:
            raise ConfigError("schedule.source = explicit needs schedule.c for mamd")
        if alg.startswith("mmp") and res["schedule.gamma"] is None:
            raise ConfigError("schedule.source = explicit needs schedule.gamma for mmp")
    return res


def _fmt_value(v):
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return "%.17g" % v
    if isinstance(v, (list, tuple)):
        if v and isinstance(v[0], (list, tuple)):
            return " ; ".join(" ".join("%.17g" % float(x) for x in r) for r in v)
        return ",".join(_fmt_value(x) for x in v)
    return str(v)


def _echo_items(res):
    items = []
    for key in sorted(res):
        if key == "out" or res[key] is None:
            continue
        items.append((key, _fmt_value(res[key])))
    return items


def config_hash(res):
    text = "\n".join(f"{k} = {v}" for k, v in _echo_items(res))
    return hashlib.sha256(text.encode()).hexdigest()[:10]


# ---------------------------------------------------------------------------
# instance construction


def build_kernel(res):
    if res["chain.matrix"] is not None:
        kernel = TransitionKernel(np.asarray(res["chain.matrix"], dtype=float))
    else:
        kernel = random_ergodic(res["chain.n"], seed=res["chain.seed"])
    alpha = res["chain.laziness"]
    if alpha > 0:
        kernel = make_lazy(kernel, alpha)
    return kernel


def build_problem(res, kernel):
    kind = res["problem.kind"]
    if kind == "quadratic":
        return make_min_instance(
            res["problem.d"],
            kernel,
            geometry_kind=res["problem.geometry"],
            noise_scale=res["problem.noise"],
            seed=res["problem.seed"],
            smoothness=res["problem.smoothness"],
        )
    if kind == "game":
        return make_vi_instance(
            res["problem.blocks"],
            kernel,
            noise_scale=res["problem.noise"],
            seed=res["problem.seed"],
            lipschitz=res["problem.lipschitz"],
        )
    return matching_pennies(
        kernel,
        block_dim=res["problem.blocks"][0],
        noise_scale=res["problem.noise"],
        seed=res["problem.seed"],
    )


def _gap_fn(res, problem):
    if res["metrics"] == "none":
        return None
    if getattr(problem, "is_minimization", False):
        if problem.f_star is None:
            return None
        return lambda x: subopt_gap(problem, x)
    if problem.is_skew(1e-10):
        return lambda x: err_vi(problem, x)
    return None


def _resolve_tau(res, kernel):
    if res["chain.tau_mix"] is not None:
        return int(res["chain.tau_mix"])
    return mixing_time(kernel)


def _build_instance(res):
    """(problem, tau_mix) shared by every cell of a run or sweep; no problem for synthetic."""
    kernel = build_kernel(res)
    tau_mix = _resolve_tau(res, kernel)
    problem = None if res["algorithm"] == "synthetic" else build_problem(res, kernel)
    return problem, tau_mix


def _mlmc(res, mlmc):
    """The factory's MlmcConfig with the config's B and M applied over it."""
    return MlmcConfig(B=mlmc.B if res["B"] is None else res["B"],
                      M=mlmc.M if res["M"] is None else res["M"])


def _run_solver(res, problem, tau_mix, seed, stride):
    """One seeded run; returns a RunRecord."""
    T = res["T"]
    alg = res["algorithm"]
    sigma = problem.sigma
    D = float(np.sqrt(problem.geometry.diameter_sq()))
    ss = np.random.SeedSequence(seed)
    chain_seq, level_seq = ss.spawn(2)
    cursor = ChainCursor(problem.kernel, np.random.default_rng(chain_seq), start="stationary")
    level_rng = np.random.default_rng(level_seq)
    kw = {"gap_fn": _gap_fn(res, problem), "stride": stride}
    explicit = res["schedule.source"] == "explicit"

    if alg == "mamd":
        sched = mamd_unbatched_schedule(problem.L, D, sigma, tau_mix, T)
        if explicit:
            sched = MamdSchedule(res["schedule.c"], sched.tau)
        return mamd_unbatched(problem, sched, cursor, T, **kw)
    if alg == "mamd-batched":
        sched, mlmc = mamd_batched_schedule(problem.L, D, sigma, tau_mix, T)
        if explicit:
            sched = MamdSchedule(res["schedule.c"], sched.tau)
        return mamd_batched(problem, sched, cursor, T, _mlmc(res, mlmc), level_rng, **kw)
    if alg == "mmp":
        L_tilde = float(getattr(problem, "L_tilde", problem.L))
        gamma = res["schedule.gamma"] if explicit else mmp_unbatched_stepsize(
            L_tilde, D, sigma, tau_mix, T
        )
        return mmp_unbatched(problem, gamma, cursor, T, avg_start=tau_mix, **kw)
    if alg == "mmp-batched":
        gamma, mlmc = mmp_batched_params(problem.L, D, sigma, tau_mix, T)
        if explicit:
            gamma = res["schedule.gamma"]
        return mmp_batched(problem, gamma, cursor, T, _mlmc(res, mlmc), level_rng, **kw)
    raise MarkovMirrorError(f"no solver for algorithm {alg!r}")


# ---------------------------------------------------------------------------
# CSV emission


def _write_csv(path, header_items, columns, rows):
    lines = [f"# {k} = {v}" for k, v in header_items]
    lines.append(",".join(columns))
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, (int, np.integer)):
                cells.append(str(int(v)))
            else:
                cells.append("%.17g" % float(v))
        lines.append(",".join(cells))
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _header(res, tau_mix, extra=()):
    items = [("markovmirror.version", __version__)]
    items.extend(_echo_items(res))
    items.append(("chain.tau_mix.resolved", str(tau_mix)))
    items.extend((k, _fmt_value(v) if not isinstance(v, str) else v) for k, v in extra)
    return items


def _deterministic():
    return os.environ.get("MM_DETERMINISTIC", "") == "1"


def _record_rows(record, deterministic):
    rows = []
    for i in range(record.t.size):
        wall = 0.0 if deterministic else float(record.wall_ms[i])
        rows.append(
            (
                int(record.t[i]),
                int(record.oracle_calls[i]),
                int(record.chain_steps[i]),
                float(record.gap[i]),
                wall,
            )
        )
    return rows


def _worker_run(payload):
    """Pool entry point: one (seed, T) cell on the instance the command built."""
    res, seed, T, problem, tau_mix = payload
    if res["algorithm"] == "synthetic":
        gap = float(T) ** res["synthetic.exponent"]
        return seed, T, gap, T, [(T, T, T, gap, 0.0)]
    res = dict(res, T=T)
    record = _run_solver(res, problem, tau_mix, seed, res["stride"])
    gap = float(record.gap[-1]) if record.gap.size else np.nan
    calls = int(record.oracle_calls[-1]) if record.oracle_calls.size else 0
    rows = _record_rows(record, _deterministic())
    return seed, T, gap, calls, rows


def _map_jobs(payloads, jobs):
    if jobs <= 1 or len(payloads) <= 1:
        return [_worker_run(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=min(jobs, len(payloads))) as pool:
        return list(pool.map(_worker_run, payloads))


# ---------------------------------------------------------------------------
# commands


def _quartiles(gaps):
    """(median, 25th percentile, 75th percentile) of a sample of final gaps."""
    return float(np.median(gaps)), float(np.percentile(gaps, 25)), float(np.percentile(gaps, 75))


def cmd_run(res, jobs, out_dir):
    problem, tau_mix = _build_instance(res)
    h = config_hash(res)
    payloads = [(res, seed, res["T"], problem, tau_mix) for seed in res["seeds"]]
    results = _map_jobs(payloads, jobs)
    os.makedirs(out_dir, exist_ok=True)
    gaps = []
    for seed, _, gap, _, rows in results:
        path = os.path.join(out_dir, f"run_{h}_seed{seed}.csv")
        _write_csv(path, _header(res, tau_mix, [("seed", str(seed))]), RUN_COLUMNS, rows)
        gaps.append(gap)
        print(f"seed {seed}: final gap = {gap:.6g} -> {path}")
    gaps = np.asarray(gaps, dtype=float)
    summary = os.path.join(out_dir, f"summary_{h}.csv")
    _write_csv(
        summary,
        _header(res, tau_mix),
        ("n_seeds", "gap_median", "gap_q25", "gap_q75"),
        [(len(gaps), *_quartiles(gaps))],
    )
    print(f"summary -> {summary}")
    return 0


def cmd_sweep(res, jobs, out_dir):
    problem, tau_mix = _build_instance(res)
    h = config_hash(res)
    grid = sorted(set(res["sweep.T"]))
    payloads = [(res, seed, T, problem, tau_mix) for T in grid for seed in res["seeds"]]
    results = _map_jobs(payloads, jobs)
    # results come back in payload order: one block of seeds per T
    shape = (len(grid), len(res["seeds"]))
    gaps_by_T = np.array([r[2] for r in results], dtype=float).reshape(shape)
    calls_by_T = np.array([r[3] for r in results]).reshape(shape)
    rows = [(T, int(np.median(c)), *_quartiles(g)) for T, c, g in zip(grid, calls_by_T, gaps_by_T)]
    gap_matrix = gaps_by_T.T
    budgets = np.asarray(grid, dtype=float)
    if len(res["seeds"]) >= 2:
        fit = bootstrap_rate_ci(budgets, gap_matrix, rng=np.random.default_rng(0))
    else:
        fit = rate_fit(budgets, gap_matrix[0])
    extra = [("rate.slope", "%.17g" % fit.slope)]
    if fit.ci is not None:
        extra.append(("rate.ci", "%.17g,%.17g" % fit.ci))
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"sweep_{h}.csv")
    _write_csv(
        path,
        _header(res, tau_mix, extra),
        ("T", "oracle_calls", "gap_median", "gap_q25", "gap_q75"),
        rows,
    )
    ci_txt = "" if fit.ci is None else f", 95% CI [{fit.ci[0]:.4g}, {fit.ci[1]:.4g}]"
    print(f"rate_fit: slope = {fit.slope:.6g}{ci_txt} ({fit.n_used} cells) -> {path}")
    return 0


def cmd_diagnose_chain(res):
    kernel = build_kernel(res)
    diag = diagnose(kernel)
    extra = [
        ("pi", ",".join("%.17g" % p for p in diag.pi)),
        ("tau_mix", str(diag.tau_mix)),
    ]
    rows = [(t + 1, float(tv)) for t, tv in enumerate(diag.tv_curve)]
    _write_csv(None, _header(res, diag.tau_mix, extra), ("t", "tv"), rows)
    return 0


def _check_inputs(res, out_dir, name):
    """Instance, resolved mixing time, noise deviations and CSV path of a check command."""
    kernel = build_kernel(res)
    problem = build_problem(res, kernel)
    tau_mix = _resolve_tau(res, kernel)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{name}_{config_hash(res)}.csv")
    return problem, tau_mix, problem.noise_deviations(), path


def cmd_check_lemma1(res, out_dir):
    problem, tau_mix, deviations, path = _check_inputs(res, out_dir, "lemma1")
    lo, hi = DEVIATION_SLOPE_WINDOW
    if np.max(np.abs(deviations)) == 0:
        extra = [("deviation.slope", "nan"), ("deviation.window", f"{lo},{hi}"),
                 ("deviation.note", "zero noise; trivial pass")]
        _write_csv(path, _header(res, tau_mix, extra), ("N", "mean", "se"),
                   [(int(n), 0.0, 0.0) for n in res["check.N"]])
        print(f"PASS check-lemma1: zero-noise deviations are identically zero -> {path}")
        return 0
    report = deviation_scaling(
        problem.kernel,
        deviations,
        problem.geometry.norm_pair,
        res["check.N"],
        res["check.trials"],
        np.random.default_rng(res["seeds"][0]),
    )
    extra = [
        ("deviation.slope", "%.17g" % report.slope),
        ("deviation.constant", "%.17g" % report.constant),
        ("deviation.window", f"{lo},{hi}"),
    ]
    _write_csv(
        path,
        _header(res, tau_mix, extra),
        ("N", "mean", "se"),
        [(int(n), float(m), float(s)) for n, m, s in zip(report.N, report.mean, report.se)],
    )
    ok = lo <= report.slope <= hi
    print(
        f"{'PASS' if ok else 'FAIL'} check-lemma1: slope = {report.slope:.4f}, "
        f"window [{lo}, {hi}] -> {path}"
    )
    return 0 if ok else 1


def cmd_check_lemma2(res, out_dir):
    problem, tau_mix, deviations, path = _check_inputs(res, out_dir, "lemma2")
    lo, hi = BIAS_SLOPE_WINDOW
    if np.max(np.abs(deviations)) == 0:
        extra = [("bias.slope", "nan"), ("bias.window", f"{lo},{hi}"),
                 ("bias.note", "zero noise; trivial pass")]
        _write_csv(path, _header(res, tau_mix, extra), ("N", "bias_sq"),
                   [(int(m) * res["check.B"], 0.0) for m in res["check.M"]])
        print(f"PASS check-lemma2: zero-noise estimates are exact -> {path}")
        return 0
    B = res["check.B"]
    Ns = [int(m) * B for m in res["check.M"]]
    report = batch_bias_profile(problem.kernel, deviations, problem.geometry.norm_pair, Ns)
    pairing = unbiasedness_check(
        problem,
        problem.geometry.center(),
        MlmcConfig(B=B, M=max(res["check.M"])),
        res["check.trials"],
        np.random.default_rng(res["seeds"][0]),
    )
    extra = [
        ("bias.slope", "%.17g" % report.slope),
        ("bias.window", f"{lo},{hi}"),
        ("pairing.max_t_ratio", "%.17g" % pairing.max_abs_ratio),
        ("pairing.trials", str(pairing.n_trials)),
    ]
    _write_csv(
        path,
        _header(res, tau_mix, extra),
        ("N", "bias_sq"),
        [(int(n), float(b)) for n, b in zip(report.N, report.bias_sq)],
    )
    slope_ok = lo <= report.slope <= hi
    pair_ok = pairing.max_abs_ratio <= 4.0
    ok = slope_ok and pair_ok
    print(
        f"{'PASS' if ok else 'FAIL'} check-lemma2: bias slope = {report.slope:.4f} "
        f"(window [{lo}, {hi}]), pairing t-ratio = {pairing.max_abs_ratio:.3f} (<= 4) -> {path}"
    )
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# entry point


def _build_parser():
    p = argparse.ArgumentParser(
        prog="markovmirror",
        description="Mirror-descent/mirror-prox experiments under Markovian noise.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("run", "sweep", "diagnose-chain", "check-lemma1", "check-lemma2"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="path to dotted-key config")
        sp.add_argument("--seed", default=None, help="comma-separated seed list override")
        sp.add_argument("--jobs", type=int, default=1, help="parallel workers across seeds")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--stride", type=int, default=None, help="record every k-th iteration")
    return p


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        try:
            with open(args.config) as fh:
                text = fh.read()
        except OSError as e:
            raise ConfigError(f"cannot read config: {e}") from None
        res = resolve_config(parse_config_text(text), solve=args.command in ("run", "sweep"))
        if args.seed is not None:
            try:
                res["seeds"] = [int(s) for s in args.seed.replace(",", " ").split()]
            except ValueError:
                raise ConfigError(f"--seed expects integers, got {args.seed!r}") from None
            if not res["seeds"]:
                raise ConfigError("--seed list is empty")
            if min(res["seeds"]) < 0:
                raise ConfigError("--seed entries must be >= 0")
        if args.stride is not None:
            if args.stride < 1:
                raise ConfigError("--stride must be >= 1")
            res["stride"] = args.stride
        out_dir = args.out if args.out is not None else res["out"]
        jobs = 1 if _deterministic() else max(1, args.jobs)

        if args.command == "run":
            return cmd_run(res, jobs, out_dir)
        if args.command == "sweep":
            return cmd_sweep(res, jobs, out_dir)
        if args.command == "diagnose-chain":
            return cmd_diagnose_chain(res)
        if args.command == "check-lemma1":
            return cmd_check_lemma1(res, out_dir)
        if args.command == "check-lemma2":
            return cmd_check_lemma2(res, out_dir)
        raise MarkovMirrorError(f"unknown command {args.command!r}")
    except ErgodicityError as e:
        print(f"ergodicity error: {e}", file=sys.stderr)
        return 4
    except StatisticsError as e:
        print(f"statistics error: {e}", file=sys.stderr)
        return 5
    except InputError as e:
        # ConfigError, and schedule/parameter violations, which trace back
        # to the config in CLI use
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (MarkovMirrorError, OSError) as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
