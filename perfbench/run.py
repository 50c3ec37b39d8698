"""markovmirror benchmark: one workload per run, or all of them.

    python3 perfbench/run.py --workload descent-box --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0

With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it wraps every layer of the library in spans and reports
per-layer metrics instead.  ``--workload all`` runs every workload both
ways in fresh interpreters, reports the tracing overhead and checks that
both runs produced the same outputs.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
Details, including the machine fingerprint, go to ``perfbench/out/``.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread: the load comes from this process alone (the
# sweep's --jobs 2 workers inherit the same setting).
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "oracle_calls_per_s": "1/s",
                    "peak_rss_mb": "MB", "pi_digits": "digits"}

def layer_unit(name):
    if name.endswith(("us_per_call", "us_per_iter")):
        return "us"
    if name.endswith((".calls_over_expected", ".calls_per_step")):
        return "ratio"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    return "count"


def fingerprint():
    """Machine and software identity for every result file."""
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unavailable"
    try:
        # the ceiling keeps git from reporting a repository that encloses the checkout
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or "unavailable"
    except (OSError, subprocess.SubprocessError):
        commit = "unavailable"
    digest = hashlib.sha256()
    for path in sorted((SRC / "markovmirror").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = "unavailable"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "machine": platform.machine(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def quartiles(values):
    import numpy as np
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return float(q1), float(med), float(q3)


def run_workload(args, mm):
    import numpy as np
    import tracing
    from workloads import WORKLOADS, timed

    workload = WORKLOADS[args.workload](args.smoke)
    reference = None
    if not (args.smoke or args.write_reference):
        with open(REFERENCE) as fh:
            reference = json.load(fh)[workload.name]
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer, mm)

    setup_times, setup_norm = [], []

    def timed_setup():
        ctx, raw, norm = timed(lambda: workload.setup(mm))
        setup_times.append(raw)
        setup_norm.append(norm)
        return ctx

    # The machine's speed drifts over tens of seconds, so the untraced run
    # spreads its set-up repeats over the run instead of timing them back
    # to back.  A traced run sets up once, which keeps its counts exact.
    setup_reps = 1 if (args.smoke or tracer is not None) else workload.setup_reps
    ctx = timed_setup()
    ctx.tracer = tracer
    OUT.mkdir(exist_ok=True)
    workload.prepare(mm, ctx, str(OUT))

    if workload.pool is not None:
        order = [int(j) for j in np.random.default_rng(args.seed).permutation(workload.pool)]
    if args.write_reference:
        op_keys = order if workload.pool is not None else [args.seed]
        min_ops, seconds = len(op_keys), 0.0
    else:
        min_ops = 1 if args.smoke else workload.min_ops
        seconds = args.seconds

    op_times, op_norm, records, failures = [], [], [], []
    attempted = failed = oracle_calls = 0
    mark = None
    k = 0
    while k < min_ops or sum(op_times) + float(np.median(op_times)) <= seconds:
        if args.write_reference:
            key = op_keys[k]
        else:
            key = order[k % workload.pool] if workload.pool is not None else [args.seed, k]
        op = workload.op(mm, ctx, key, reference)
        op_times.append(op.seconds)
        op_norm.append(op.at_probe_speed)
        records.append({"key": key, **op.record})
        attempted += op.attempted
        failed += op.failed
        failures += op.failures
        oracle_calls += op.oracle_calls
        k += 1
        if tracer is not None and k == min_ops:
            mark = tracer.mark()
        if len(setup_times) < setup_reps and sum(op_times) >= len(setup_times) * seconds / setup_reps:
            timed_setup()
    while len(setup_times) < setup_reps:
        timed_setup()

    checks, run_failures = workload.finish(ctx, records)
    attempted += checks
    failed += len(run_failures)
    failures += run_failures

    q1, wall, q3 = quartiles(op_norm)
    raw_wall = float(np.median(op_times))
    if tracer is None:
        metrics = {
            "wall_s": wall,
            "setup_s": float(np.median(setup_norm)),
            # rows of a mean operation per second of wall_s: as robust as the median
            "oracle_calls_per_s": oracle_calls / len(op_times) / wall,
            "peak_rss_mb": workload.peak_rss_mb(ctx),
            "pi_digits": workload.pi_digits(mm, ctx, records),
        }
        units = END_TO_END_UNITS
    else:
        metrics = tracing.layer_metrics(tracer, mark)
        metrics["trace.wall_s"] = wall
        units = {name: layer_unit(name) for name in metrics}
        tracer.save(OUT / f"{workload.name}.spans.npz")

    if args.write_reference:
        write_reference(workload, records)

    result = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "fingerprint": fingerprint(),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
        "wall_s": {"median": wall, "q1": q1, "q3": q3, "samples": len(op_times),
                   "raw_median": raw_wall},
        "op_times_s": op_times,
        "op_times_at_probe_speed_s": op_norm,
        "setup_times_s": setup_times,
        "setup_times_at_probe_speed_s": setup_norm,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "failures": failures,
        "records": records,
    }
    path = OUT / f"{workload.name}.trace{args.trace}.seed{args.seed}.json"
    path.write_text(json.dumps(result, indent=1, default=float))

    for message in failures:
        print(f"FAILED {message}", file=sys.stderr)
    print(f"{workload.name}: {len(op_times)} operations in {sum(op_times):.2f} s"
          f" -> {path.relative_to(ROOT)}")
    print(f"wall_s median {wall:.4f} s at the reference probe speed, quartiles {q1:.4f} .. {q3:.4f} s,"
          f" {len(op_times)} samples; raw wall-clock median {raw_wall:.4f} s,"
          f" raw set-up median {float(np.median(setup_times)):.4f} s")
    for name, v in metrics.items():
        print(f"{name} = {v:.6g} {units[name]}")
    print(f"fail_frac = {failed}/{attempted} = {failed / attempted:.3g}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }))
    return 0


def write_reference(workload, records):
    """Freeze this run's outputs as the reference later runs must reproduce."""
    data = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    if workload.pool is not None:
        data[workload.name] = {"pool": {str(r["key"]): {k: v for k, v in r.items() if k != "key"}
                                        for r in records}}
    else:
        data[workload.name] = {"tau": records[0]["tau"]}
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def run_all(args):
    """Every workload untraced and traced, each in a fresh interpreter."""
    from workloads import WORKLOADS

    summary = {"fingerprint": fingerprint(), "seed": args.seed, "seconds": args.seconds,
               "workloads": {}}
    ok = True
    for name in WORKLOADS:
        results = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed",
                   str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.smoke:
                cmd.append("--smoke")
            proc = subprocess.run(cmd, capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exited {proc.returncode}")
                ok = False
                continue
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
            path = OUT / f"{name}.trace{trace}.seed{args.seed}.json"
            results[trace] = json.loads(path.read_text())
            ok = ok and json.loads(lines[-1])["correct"]
        if len(results) < 2:
            continue
        plain, traced = results[0], results[1]
        common = min(len(plain["records"]), len(traced["records"]))
        same = all(_outputs(a) == _outputs(b) for a, b in
                   zip(plain["records"][:common], traced["records"][:common]))
        overhead = traced["wall_s"]["median"] - plain["wall_s"]["median"]
        ok = ok and same
        print(f"{name}: tracing overhead {overhead:+.4f} s per operation"
              f" ({overhead / plain['wall_s']['median']:+.1%}),"
              f" outputs of the first {common} operations {'equal' if same else 'DIFFER'}")
        summary["workloads"][name] = {
            "end_to_end": plain["metrics"],
            "wall_s": plain["wall_s"],
            "per_layer": traced["metrics"],
            "trace_overhead_s": overhead,
            "traced_outputs_equal": same,
            "fail_frac": (plain["failed"] + traced["failed"])
            / (plain["attempted"] + traced["attempted"]),
        }
    path = OUT / f"summary.seed{args.seed}.json"
    path.write_text(json.dumps(summary, indent=1))
    print(f"summary -> {path.relative_to(ROOT)}")
    return 0 if ok else 1


def _outputs(record):
    """A record without the counts only a traced run can take."""
    return {k: v for k, v in record.items() if k != "oracle_calls"}


def main(argv=None):
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes and one operation, for the benchmark's self-test")
    p.add_argument("--write-reference", action="store_true",
                   help="run every frozen seed and rewrite reference.json for the workload")
    args = p.parse_args(argv)
    if args.write_reference and not args.trace:
        p.error("--write-reference needs --trace 1: the sweep's oracle count comes from the trace")

    if not (SRC / "markovmirror" / "__init__.py").is_file():
        print(f"error: no markovmirror sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    import markovmirror
    import markovmirror.cli

    return run_workload(args, markovmirror)


if __name__ == "__main__":
    sys.exit(main())
