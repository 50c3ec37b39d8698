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
significant digits so a reread is bit-exact.  ``run`` and ``sweep``
spread their (T, seed) cells over ``--jobs`` worker processes, and each
cell draws from its seed's own streams, so the job count does not
change a row; setting ``MM_DETERMINISTIC=1`` zeroes the wall_ms column
so repeated invocations produce byte-identical files.

Exit codes: 0 success, 1 check outside its acceptance window, 2 config
error, 3 runtime error, 4 ergodicity failure, 5 insufficient
statistics.
"""

from __future__ import annotations

import argparse
import hashlib
import operator
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import NamedTuple

import numpy as np

from . import solvers
from .chain import (ChainCursor, TransitionKernel, diagnose, make_lazy, mixing_time,
                    random_ergodic)
from .errors import (
    ConfigError,
    ErgodicityError,
    InputError,
    MarkovMirrorError,
    StatisticsError,
    _count,
)
from .estimators import MlmcConfig
from .problems import make_min_instance, make_vi_instance, matching_pennies
from .solvers import MamdSchedule
from .validation import (
    BIAS_SLOPE_WINDOW,
    DEVIATION_SLOPE_WINDOW,
    PAIRING_RATIO_BOUND,
    _check_sizes,
    batch_bias_profile,
    bootstrap_rate_ci,
    deviation_scaling,
    err_vi,
    rate_fit,
    subopt_gap,
    unbiasedness_check,
)

from . import __version__

RUN_COLUMNS = solvers._ROW.names


class _Method(NamedTuple):
    """How the CLI runs one algorithm; solver and factory are names in `solvers`."""

    solver: str
    factory: str          # (L, D, sigma, tau_mix, T) -> schedule or stepsize
    batched: bool         # factory also returns an MlmcConfig; solver also takes a level rng
    gradient: bool        # needs a gradient oracle, so problem.kind = quadratic
    tau_keywords: tuple = ()  # solver keywords that take the resolved mixing time


# solvers and factories are looked up by name at call time, so rebinding
# a module attribute (as a tracer does) reaches the CLI too
_METHODS = {
    "mamd": _Method("mamd_unbatched", "mamd_unbatched_schedule", False, True),
    "mamd-batched": _Method("mamd_batched", "mamd_batched_schedule", True, True),
    "mmp": _Method("mmp_unbatched", "mmp_unbatched_stepsize", False, False, ("avg_start",)),
    "mmp-batched": _Method("mmp_batched", "mmp_batched_params", True, False),
}


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
    if not np.isfinite(mat).all():
        raise ConfigError(f"{key} has a non-finite entry", line=line)
    return mat


# key: (kind or tuple of choices, default, *rules); a rule such as ">= 0"
# holds for the value or for every entry of a list, and floats with a rule
# must also be finite
_SCHEMA = {
    "problem.kind": (("quadratic", "game", "matching-pennies"), "quadratic"),
    "problem.d": ("int", 10, ">= 1"),
    "problem.blocks": ("ints", [2, 2], ">= 2"),
    "problem.geometry": (("box", "ball", "simplex"), "box"),
    "problem.noise": ("float", 1.0, ">= 0"),
    "problem.seed": ("int", 0, ">= 0"),
    "problem.smoothness": ("float", 1.0, "> 0"),
    "problem.lipschitz": ("float", 1.0, "> 0"),
    "chain.matrix": ("matrix", None),
    "chain.n": ("int", 8, ">= 2", "<= 100"),  # random_ergodic's entry floor needs n <= 100
    "chain.seed": ("int", 0, ">= 0"),
    "chain.laziness": ("float", 0.0, ">= 0", "< 1"),
    "chain.tau_mix": ("int", None, ">= 1"),
    "algorithm": (tuple(_METHODS), "mamd-batched"),
    # mmp's gamma or mamd's c in MamdSchedule(c, tau), replacing the factory's when set
    "stepsize": ("float", None, "> 0"),
    "T": ("int", 256, ">= 1"),
    "B": ("int", None, ">= 1"),
    "M": ("int", None, ">= 1"),
    "seeds": ("ints", [0], ">= 0"),
    "stride": ("int", 1, ">= 1"),
    "sweep.T": ("ints", [64, 128, 256, 512, 1024], ">= 1"),
    "check.N": ("ints", [2**k for k in range(4, 13)], ">= 1"),
    "check.trials": ("int", 2000),
    "check.M": ("ints", [4, 16, 64, 256], ">= 1"),
}

_PARSERS = {"int": _parse_int, "float": _parse_float, "ints": _parse_int_list,
            "matrix": _parse_matrix}
_COMPARE = {">=": operator.ge, ">": operator.gt, "<": operator.lt, "<=": operator.le}


def _obeys(value, rules):
    # NaN fails every comparison; a float must be finite as well
    return ((not isinstance(value, float) or np.isfinite(value))
            and all(_COMPARE[op](value, float(b)) for op, b in map(str.split, rules)))


def _parse(key, value, line):
    """One raw config value, type-checked and range-checked against the schema."""
    if key not in _SCHEMA:
        raise ConfigError(f"unknown key {key!r}", line=line)
    kind, _, *rules = _SCHEMA[key]
    if isinstance(kind, tuple):
        if value not in kind:
            raise ConfigError(f"{key} must be one of {', '.join(kind)}; got {value!r}", line=line)
        return value
    value = _PARSERS[kind](value, key, line)
    if rules and not all(_obeys(v, rules) for v in (value if kind == "ints" else [value])):
        raise ConfigError(f"{key}{' entries' if kind == 'ints' else ''} must be "
                          f"{'finite and ' if kind == 'float' else ''}{' and '.join(rules)}",
                          line=line)
    return value


def resolve_config(raw, solve=False):
    """Type- and range-check raw strings against the schema and fill defaults.

    `solve` marks a config that drives solver runs (run, sweep), whose
    algorithm must then fit the problem kind.
    """
    res = {key: _parse(key, value, line) for key, (value, line) in raw.items()}
    for key, (_, default, *_) in _SCHEMA.items():
        res.setdefault(key, default)

    def line(key):
        return raw.get(key, (None, None))[1]

    alg = res["algorithm"]
    if solve and _METHODS[alg].gradient and res["problem.kind"] != "quadratic":
        # the default algorithm is mamd-batched, so the algorithm line may be absent
        raise ConfigError(f"algorithm {alg} needs problem.kind = quadratic",
                          line=line("algorithm") or line("problem.kind"))
    if len(set(res["seeds"])) != len(res["seeds"]):
        # a repeated seed would enter the medians and the bootstrap twice
        raise ConfigError(f"seeds must be distinct, got {res['seeds']}", line=line("seeds"))
    kind, blocks = res["problem.kind"], res["problem.blocks"]
    equal = kind == "matching-pennies"  # a square game: both players have the same strategies
    if kind != "quadratic" and (len(blocks) != 2 or equal and blocks[0] != blocks[1]):
        raise ConfigError(f"problem.kind = {kind} needs two {'equal ' * equal}problem.blocks "
                          f"entries, got {blocks}", line=line("problem.blocks"))
    return res


def _fmt_value(v):
    if isinstance(v, float):
        return "%.17g" % v
    if isinstance(v, (list, tuple)):
        if v and isinstance(v[0], (list, tuple)):
            return " ; ".join(" ".join("%.17g" % float(x) for x in r) for r in v)
        return ",".join(_fmt_value(x) for x in v)
    return str(v)


def _echo_items(res):
    return [(key, _fmt_value(res[key])) for key in sorted(res) if res[key] is not None]


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


def _gap_fn(problem):
    if problem.is_minimization:
        return lambda x: subopt_gap(problem, x)
    return lambda x: err_vi(problem, x)


def _build_instance(res):
    """(problem, tau_mix) shared by every cell of a run or sweep, or read by a check."""
    kernel = build_kernel(res)
    tau_mix = res["chain.tau_mix"]
    return build_problem(res, kernel), mixing_time(kernel) if tau_mix is None else tau_mix


def _run_solver(res, problem, tau_mix, seed, stride):
    """One seeded run of the configured method; returns a RunRecord."""
    T = res["T"]
    method = _METHODS[res["algorithm"]]
    D = float(np.sqrt(problem.geometry.diameter_sq()))
    chain_seq, level_seq = np.random.SeedSequence(seed).spawn(2)
    schedule = getattr(solvers, method.factory)(problem.L, D, problem.sigma, tau_mix, T)
    batch = ()
    if method.batched:
        schedule, mlmc = schedule
        batch = (MlmcConfig(B=mlmc.B if res["B"] is None else res["B"],
                            M=mlmc.M if res["M"] is None else res["M"]),
                 np.random.default_rng(level_seq))
    step = res["stepsize"]
    if step is not None:
        schedule = MamdSchedule(step, schedule.tau) if method.gradient else step
    cursor = ChainCursor(problem.kernel, np.random.default_rng(chain_seq), start="stationary")
    return getattr(solvers, method.solver)(
        problem, schedule, cursor, T, *batch, gap_fn=_gap_fn(problem), stride=stride,
        **dict.fromkeys(method.tau_keywords, tau_mix))


# ---------------------------------------------------------------------------
# CSV emission


def _write_csv(path, header_items, columns, rows):
    lines = [f"# {k} = {v}" for k, v in header_items]
    lines.append(",".join(columns))
    lines.extend(",".join(map(_fmt_value, row)) for row in rows)
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
    items.extend((k, _fmt_value(v)) for k, v in extra if v is not None)
    return items


def _worker_run(cell):
    """Pool entry point: the RunRecord of one (T, seed) cell on the instance the command built."""
    return _run_solver(*cell)


def _run_cells(res, grid, stride, jobs):
    """(tau_mix, records): every (T, seed) cell of `grid` x seeds on one instance, T-major.

    Records are kept at `stride` (None keeps only the row at T).  Cells go
    to a pool of `jobs` processes when there are at least two of each.
    """
    problem, tau_mix = _build_instance(res)
    cells = [(dict(res, T=T), problem, tau_mix, seed, stride)
             for T in grid for seed in res["seeds"]]
    if jobs <= 1 or len(cells) <= 1:
        return tau_mix, [_worker_run(cell) for cell in cells]
    with ProcessPoolExecutor(max_workers=min(jobs, len(cells))) as pool:
        return tau_mix, list(pool.map(_worker_run, cells))


# ---------------------------------------------------------------------------
# commands


def _quartiles(gaps):
    """(median, 25th percentile, 75th percentile) of a sample of final gaps."""
    return float(np.median(gaps)), float(np.percentile(gaps, 25)), float(np.percentile(gaps, 75))


def cmd_run(res, jobs, out_dir):
    tau_mix, records = _run_cells(res, [res["T"]], res["stride"], jobs)
    h = config_hash(res)
    os.makedirs(out_dir, exist_ok=True)
    zero_wall = os.environ.get("MM_DETERMINISTIC", "") == "1"
    gaps = []
    for seed, record in zip(res["seeds"], records):
        if zero_wall:  # so that repeated runs write byte-identical files
            record.wall_ms[:] = 0.0
        rows = zip(*(getattr(record, name).tolist() for name in RUN_COLUMNS))
        path = os.path.join(out_dir, f"run_{h}_seed{seed}.csv")
        _write_csv(path, _header(res, tau_mix, [("seed", str(seed))]), RUN_COLUMNS, rows)
        gaps.append(record.gap[-1])
        print(f"seed {seed}: final gap = {gaps[-1]:.6g} -> {path}")
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
    grid = sorted(set(res["sweep.T"]))
    if len(grid) < 2:  # checked before any cell runs
        raise ConfigError(f"sweep.T needs 2 or more distinct budgets to fit a rate, got {grid}")
    # a sweep writes only each cell's final gap and calls: record the row at T alone
    tau_mix, records = _run_cells(res, grid, None, jobs)
    h = config_hash(res)
    # one block of seeds per T
    shape = (len(grid), len(res["seeds"]))
    gaps_by_T = np.array([record.gap[-1] for record in records]).reshape(shape)
    calls_by_T = np.array([record.oracle_calls[-1] for record in records]).reshape(shape)
    rows = [(T, int(np.median(c)), *_quartiles(g)) for T, c, g in zip(grid, calls_by_T, gaps_by_T)]
    gap_matrix = gaps_by_T.T
    budgets = np.asarray(grid, dtype=float)
    if len(res["seeds"]) >= 2:
        fit = bootstrap_rate_ci(budgets, gap_matrix, rng=np.random.default_rng(0))
    else:
        fit = rate_fit(budgets, gap_matrix[0])
    extra = [("rate.slope", fit.slope), ("rate.ci", fit.ci)]
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
        ("pi", diag.pi.tolist()),
        ("tau_mix", str(diag.tau_mix)),
    ]
    rows = [(t + 1, float(tv)) for t, tv in enumerate(diag.tv_curve)]
    _write_csv(None, _header(res, diag.tau_mix, extra), ("t", "tv"), rows)
    return 0


def _lemma1(res, problem, deviations, Ns, lo, hi):
    report = deviation_scaling(
        problem.kernel,
        deviations,
        problem.geometry.norm_pair,
        Ns,
        res["check.trials"],
        np.random.default_rng(res["seeds"][0]),
    )
    extra = [
        ("deviation.slope", report.slope),
        ("deviation.constant", report.constant),
        ("deviation.window", f"{lo},{hi}"),
    ]
    rows = [(int(n), float(m), float(s)) for n, m, s in zip(report.N, report.mean, report.se)]
    ok = lo <= report.slope <= hi
    return extra, rows, ok, f"slope = {report.slope:.4f}, window [{lo}, {hi}]"


def _lemma2(res, problem, deviations, Ns, lo, hi):
    report = batch_bias_profile(problem.kernel, deviations, problem.geometry.norm_pair, Ns)
    pairing = unbiasedness_check(
        problem,
        problem.geometry.center(),
        MlmcConfig(M=max(res["check.M"])),
        res["check.trials"],
        np.random.default_rng(res["seeds"][0]),
    )
    extra = [
        ("bias.slope", report.slope),
        ("bias.window", f"{lo},{hi}"),
        ("pairing.max_t_ratio", pairing.max_abs_ratio),
        ("pairing.trials", str(pairing.n_trials)),
    ]
    rows = [(int(n), float(b)) for n, b in zip(report.N, report.bias_sq)]
    ok = lo <= report.slope <= hi and pairing.max_abs_ratio <= PAIRING_RATIO_BOUND
    return extra, rows, ok, (f"bias slope = {report.slope:.4f} (window [{lo}, {hi}]), "
                             f"pairing t-ratio = {pairing.max_abs_ratio:.3f} "
                             f"(<= {PAIRING_RATIO_BOUND:g})")


# command: (header prefix, slope window, columns, config key of the sample sizes, zero-noise
# summary, measure(res, problem, deviations, sizes, lo, hi) -> (header extra, rows, ok, summary))
_CHECKS = {
    "check-lemma1": ("deviation", DEVIATION_SLOPE_WINDOW, ("N", "mean", "se"), "check.N",
                     "zero-noise deviations are identically zero", _lemma1),
    "check-lemma2": ("bias", BIAS_SLOPE_WINDOW, ("N", "bias_sq"), "check.M",
                     "zero-noise estimates are exact", _lemma2),
}


def cmd_check(res, out_dir, command):
    """One check command: its CSV and a PASS/FAIL line; exit 1 outside the window."""
    prefix, (lo, hi), columns, size_key, trivial, measure = _CHECKS[command]
    Ns = res[size_key]
    _check_sizes(Ns, 2)  # a slope needs two sizes, also on the zero-noise path
    problem, tau_mix = _build_instance(res)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{command.removeprefix('check-')}_{config_hash(res)}.csv")
    deviations = problem.noise_deviations()
    if np.max(np.abs(deviations)) == 0:
        extra = [(f"{prefix}.slope", "nan"), (f"{prefix}.window", f"{lo},{hi}"),
                 (f"{prefix}.note", "zero noise; trivial pass")]
        rows = [(int(n),) + (0.0,) * (len(columns) - 1) for n in Ns]
        ok, summary = True, trivial
    else:
        extra, rows, ok, summary = measure(res, problem, deviations, Ns, lo, hi)
    _write_csv(path, _header(res, tau_mix, extra), columns, rows)
    print(f"{'PASS' if ok else 'FAIL'} {command}: {summary} -> {path}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# entry point


def _build_parser():
    p = argparse.ArgumentParser(
        prog="markovmirror",
        description="Mirror-descent/mirror-prox experiments under Markovian noise.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    # each command takes only the flags it reads: any other exits 2 through argparse
    for name in ("run", "sweep", "diagnose-chain", *_CHECKS):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="path to dotted-key config")
        if name != "diagnose-chain":  # which writes its CSV to stdout
            sp.add_argument("--seed", default=None, help="comma-separated seed list override")
            sp.add_argument("--out", default=".", help="output directory")
        if name in ("run", "sweep"):
            sp.add_argument("--jobs", type=int, default=1, help="workers for the (T, seed) cells")
    return p


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        try:
            with open(args.config) as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as e:
            raise ConfigError(f"cannot read config: {e}") from None
        raw = parse_config_text(text)
        # --seed replaces the seeds key and is checked like it
        if getattr(args, "seed", None) is not None:
            raw["seeds"] = (args.seed, None)
        solve = args.command in ("run", "sweep")
        res = resolve_config(raw, solve=solve)
        if solve:
            jobs = _count(args.jobs, "--jobs", 1)
            return (cmd_run if args.command == "run" else cmd_sweep)(res, jobs, args.out)
        if args.command == "diagnose-chain":
            return cmd_diagnose_chain(res)
        return cmd_check(res, args.out, args.command)
    except ErgodicityError as e:
        print(f"ergodicity error: {e}", file=sys.stderr)
        return 4
    except StatisticsError as e:
        print(f"statistics error: {e}", file=sys.stderr)
        return 5
    except InputError as e:
        # ConfigError, and any other bad argument (a stepsize past 1/(2L),
        # T inside the warmup), which traces back to the config in CLI use
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (MarkovMirrorError, OSError) as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
