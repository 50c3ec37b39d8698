import argparse
import ast
import contextlib
import io
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovmirror import (cli, mamd_batched_schedule, mamd_unbatched_schedule, mmp_batched_params,
                          mmp_unbatched_stepsize, rate_fit)
from markovmirror.cli import (_SCHEMA, _build_instance, config_hash, main, parse_config_text,
                              resolve_config)
from markovmirror import errors
from markovmirror.errors import ConfigError


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


RUN_CFG = """
problem.kind = quadratic
problem.d = 4
problem.geometry = box
problem.noise = 0.5
problem.seed = 3
chain.n = 6
chain.seed = 1
algorithm = mamd-batched
T = 40
seeds = 0 1
stride = 1
"""


def read_csv(path):
    header, columns, rows = [], None, []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                header.append(line)
            elif columns is None:
                columns = line.split(",")
            else:
                rows.append(line.split(","))
    return header, columns, rows


# ---------------------------------------------------------------------------
# config parsing


def test_malformed_line_is_anchored(tmp_path, capsys):
    cfg = write_config(tmp_path, "problem.d = 4\nnonsense without equals\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "config line 2" in capsys.readouterr().err


def test_duplicate_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, "T = 10\nT = 20\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "config line 2" in capsys.readouterr().err


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, "T = 10\nproblem.dims = 4\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "problem.dims" in capsys.readouterr().err


# keys the schema no longer has, each with a value it took and a command that read it
DELETED_KEYS = [("schedule.source = explicit", "run"), ("schedule.c = 0.01", "run"),
                ("schedule.gamma = 0.05", "run"), ("synthetic.exponent = -2", "sweep"),
                ("metrics = none", "sweep"), ("check.B = 1", "check-lemma2"),
                ("out = results", "check-lemma1")]


@pytest.mark.parametrize("line, command", DELETED_KEYS)
def test_a_deleted_key_exits_2_as_unknown(tmp_path, capsys, line, command):
    cfg = write_config(tmp_path, f"T = 8\n{line}\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    key = line.partition(" = ")[0]
    assert captured.err == f"config error: config line 2: unknown key {key!r}\n"
    assert captured.out == "" and not (tmp_path / "out").exists()


def test_bad_enum_value_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, "algorithm = gradient-descent\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "algorithm" in err and "config line 1" in err


def test_missing_config_file(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 2


@pytest.mark.parametrize("key", ["B", "M"])
def test_nonpositive_batch_parameters_rejected(tmp_path, capsys, key):
    cfg = write_config(tmp_path, RUN_CFG + f"{key} = 0\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"{key} must be >= 1" in err and "config line 13" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-0.5"])
def test_non_finite_or_negative_noise_rejected(tmp_path, capsys, value):
    cfg = write_config(tmp_path, f"problem.d = 3\nproblem.noise = {value}\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "problem.noise must be finite and >= 0" in err and "config line 2" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("grid", ["64 0 128", "-4"])
def test_sweep_grid_below_one_rejected(tmp_path, capsys, grid):
    cfg = write_config(tmp_path, f"seeds = 0\nsweep.T = {grid}\n")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "sweep.T entries must be >= 1" in err and "config line 2" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, args, line", [
    ("problem.kind = game\n", [], 1),  # the default algorithm is mamd-batched
    ("problem.kind = game\nalgorithm = mamd\n", [], 2),
    ("problem.kind = matching-pennies\nalgorithm = mamd-batched\n", [], 2),
    ("seeds = 0,-1\n", [], 1),
    ("", ["--seed", "-2"], None),
    ("problem.seed = -1\n", [], 1),
    ("chain.seed = -3\n", [], 1),
    ("problem.smoothness = nan\n", [], 1),
    ("problem.smoothness = inf\n", [], 1),
    ("problem.kind = game\nalgorithm = mmp\nproblem.lipschitz = -inf\n", [], 3),
    ("chain.laziness = -0.5\n", [], 1),
    ("chain.laziness = nan\n", [], 1),
    ("problem.smoothness = 0\n", [], 1),
    ("problem.smoothness = -1\n", [], 1),
    ("problem.kind = game\nalgorithm = mmp\nproblem.lipschitz = 0\n", [], 3),
    ("problem.kind = game\nalgorithm = mmp\nproblem.lipschitz = -1\n", [], 3),
    ("chain.tau_mix = 0\n", [], 1),
    ("problem.noise = 0\nalgorithm = mmp\nchain.tau_mix = -5\n", [], 3),
    ("chain.matrix = nan 1 ; 0.5 0.5\n", [], 1),
    ("chain.matrix = 0.5 0.5 ; inf 0\n", [], 1),
    ("problem.d = 0\n", [], 1),
    ("chain.n = 1\n", [], 1),
    ("problem.kind = game\nalgorithm = mmp\nproblem.blocks = 1 3\n", [], 3),
    ("check.N = 16 0 64\n", [], 1),
    ("check.M = 4 -16\n", [], 1),
    ("check.B = 0\n", [], 1),
    ("problem.kind = matching-pennies\nalgorithm = mmp\nproblem.blocks = 3 5\n", [], 3),
    ("problem.kind = matching-pennies\nalgorithm = mmp\nproblem.blocks = 3 4 5\n", [], 3),
    ("problem.kind = game\nalgorithm = mmp\nproblem.blocks = 3\n", [], 3),
    ("problem.kind = game\nalgorithm = mmp\nproblem.blocks = 2 3 4\n", [], 3),
    ("chain.n = 101\n", [], 1),
    ("stepsize = -1\n", [], 1),
    ("stepsize = 0\n", [], 1),
    ("stepsize = nan\n", [], 1),
    ("stepsize = inf\n", [], 1),
])
def test_malformed_config_is_config_error(tmp_path, capsys, text, args, line):
    cfg = write_config(tmp_path, "T = 20\n" + text)
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "out"), *args])
    err = capsys.readouterr().err
    assert code == 2, err
    assert "config error" in err and "Traceback" not in err
    if line is not None:
        assert f"config line {line + 1}" in err
    assert not (tmp_path / "out").exists()


# config-parser fuzzing: schema keys and unknown ones, with values that are
# choices, numbers, NaN, infinities, fractions, huge integers or junk text
_CHOICES = sorted({c for kind, *_ in _SCHEMA.values() if isinstance(kind, tuple) for c in kind})
_FUZZ_VALUES = st.one_of(
    st.sampled_from(["nan", "-nan", "inf", "-Infinity", "1e999", "1e-400", "1/2", "3/4", "0.5",
                     "0", "-1", "2", "9" * 5000, "-" + "9" * 40, "1 0 ; 0 1", "0.5 0.5 ; nan 1",
                     "1,2", "", *_CHOICES]),
    st.integers(-10**30, 10**30).map(str),
    st.floats().map(repr),
    st.text(max_size=12),
)
_FUZZ_KEYS = st.one_of(st.sampled_from(sorted(_SCHEMA)),
                       st.sampled_from(["problem.dims", "chain", "x y"]), st.text(max_size=8))
_FUZZ_LINES = st.one_of(
    st.builds("{} = {}".format, _FUZZ_KEYS, _FUZZ_VALUES),
    # no '=' and no surrogates, which str.encode cannot write; bytes that are
    # not UTF-8 come from the `undecodable` flag instead
    st.text(st.characters(blacklist_characters="=", blacklist_categories=("Cs",)), max_size=12),
)


@st.composite
def fuzz_configs(draw):
    """Lines of fuzz, some of them repeated, so keys come twice."""
    lines = draw(st.lists(_FUZZ_LINES, max_size=8))
    if lines and draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(lines)))
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(text=fuzz_configs(), solve=st.booleans())
def test_fuzzed_config_resolves_or_raises_config_error(text, solve):
    try:
        res = resolve_config(parse_config_text(text), solve=solve)
    except ConfigError:
        return
    assert set(res) == set(_SCHEMA)


@settings(max_examples=150, deadline=None)
@given(text=fuzz_configs(),
       defect=st.sampled_from(["problem.dims = 4", "T = 1\nT = 2", "chain.n 8", "T = junk",
                               "chain.n = 1/2", "problem.noise = nan",
                               "algorithm = synthetic"]),
       at=st.integers(0, 8), undecodable=st.booleans(),
       command=st.sampled_from(["run", "sweep", "diagnose-chain", "check-lemma1", "check-lemma2"]))
def test_main_exits_2_with_one_line_on_a_fuzzed_bad_config(text, defect, at, undecodable, command):
    lines = text.split("\n") if text else []
    lines.insert(min(at, len(lines)), defect)
    data = "\n".join(lines).encode()
    if undecodable:  # a config that is not UTF-8 text
        data = data[:at] + b"\xff" + data[at:]
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "fuzz.cfg")
        with open(cfg, "wb") as fh:
            fh.write(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            flags = [] if command == "diagnose-chain" else ["--out", os.path.join(tmp, "out")]
            code = main([command, "--config", cfg, *flags])
        assert code == 2, err.getvalue()
        assert err.getvalue().startswith("config error: ") and err.getvalue().count("\n") == 1
        assert "Traceback" not in err.getvalue() and out.getvalue() == ""
        assert not os.path.exists(os.path.join(tmp, "out"))


def test_game_config_still_runs_the_check_commands(tmp_path, capsys):
    # only run/sweep need a mamd algorithm to fit the problem kind
    cfg = write_config(tmp_path, "problem.kind = game\nproblem.noise = 0.0\nseeds = 0\n")
    assert main(["check-lemma1", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert "PASS" in capsys.readouterr().out


def test_comments_and_blanks_ignored(tmp_path):
    parsed = parse_config_text("# comment\n\nT = 12\n  # indented comment\n")
    assert set(parsed) == {"T"}
    res = resolve_config(parsed)
    assert res["T"] == 12
    assert res["algorithm"] == "mamd-batched"  # defaults fill in


def test_config_hash_tracks_content(tmp_path):
    a = resolve_config(parse_config_text("T = 12\n"))
    b = resolve_config(parse_config_text("T = 12\n"))
    c = resolve_config(parse_config_text("T = 13\n"))
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)


# ---------------------------------------------------------------------------
# run


def test_run_writes_per_seed_and_summary(tmp_path, capsys):
    cfg = write_config(tmp_path, RUN_CFG)
    out = tmp_path / "results"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    res = resolve_config(parse_config_text(RUN_CFG))
    h = config_hash(res)
    for seed in (0, 1):
        header, columns, rows = read_csv(out / f"run_{h}_seed{seed}.csv")
        assert columns == ["t", "oracle_calls", "chain_steps", "gap", "wall_ms"]
        assert len(rows) == 40  # stride 1 records every iteration
        assert rows[-1][0] == "40"
        assert any(l.startswith("# markovmirror.version = ") for l in header)
        assert any(l.startswith("# chain.tau_mix.resolved = ") for l in header)
        assert any(l.startswith("# T = 40") for l in header)
        gaps = [float(r[3]) for r in rows]
        assert all(np.isfinite(g) and g >= 0 for g in gaps)
    header, columns, rows = read_csv(out / f"summary_{h}.csv")
    assert columns == ["n_seeds", "gap_median", "gap_q25", "gap_q75"]
    assert rows[0][0] == "2"
    assert float(rows[0][2]) <= float(rows[0][1]) <= float(rows[0][3])
    assert "final gap" in capsys.readouterr().out


def test_run_on_a_chain_too_slow_for_power_iteration(tmp_path, capsys):
    # test_chain's random_kernel(2, 2962), 0.9999-lazy: spectral gap 3.7e-6, too slow for
    # power iteration's product budget, so its law comes from GTH elimination
    text = ("problem.d = 4\n"
            "chain.matrix = 0.9700143514735141 0.029985648526485876;"
            " 0.006563893512376994 0.993436106487623\n"
            "chain.laziness = 0.9999\nchain.tau_mix = 10\nT = 16\nseeds = 0\n")
    out = tmp_path / "slow"
    assert main(["run", "--config", write_config(tmp_path, text), "--out", str(out)]) == 0
    h = config_hash(resolve_config(parse_config_text(text)))
    _, columns, rows = read_csv(out / f"summary_{h}.csv")
    assert columns == ["n_seeds", "gap_median", "gap_q25", "gap_q75"] and rows[0][0] == "1"
    assert "final gap" in capsys.readouterr().out


def test_stride_key_thins_rows(tmp_path):
    cfg = write_config(tmp_path, RUN_CFG.replace("stride = 1", "stride = 10"))
    out = tmp_path / "r2"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    files = [f for f in os.listdir(out) if f.startswith("run_") and "seed0" in f]
    _, _, rows = read_csv(out / files[0])
    assert [r[0] for r in rows] == ["10", "20", "30", "40"]


def test_seed_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path, RUN_CFG)
    out = tmp_path / "r3"
    assert main(["run", "--config", cfg, "--out", str(out), "--seed", "5"]) == 0
    names = os.listdir(out)
    assert any("seed5" in n for n in names)
    assert not any("seed0" in n for n in names)


def test_deterministic_mode_gives_byte_identical_output(tmp_path, monkeypatch):
    monkeypatch.setenv("MM_DETERMINISTIC", "1")
    cfg = write_config(tmp_path, RUN_CFG)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["run", "--config", cfg, "--out", str(out_b), "--jobs", "4"]) == 0
    for name in sorted(os.listdir(out_a)):
        with open(out_a / name, "rb") as fa, open(out_b / name, "rb") as fb:
            assert fa.read() == fb.read(), name
    # wall clock is zeroed so timing noise cannot leak into the bytes
    _, _, rows = read_csv(out_a / sorted(os.listdir(out_a))[1])
    assert all(r[4] == "0" for r in rows)


def test_deterministic_mode_keeps_the_job_count(tmp_path, monkeypatch):
    # MM_DETERMINISTIC=1 zeroes wall_ms only; it used to force --jobs 1
    monkeypatch.setenv("MM_DETERMINISTIC", "1")
    asked = []

    class InlinePool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
    cfg = write_config(tmp_path, RUN_CFG)  # two seeds
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out"), "--jobs", "2"]) == 0
    assert asked == [2]


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_one_is_config_error(tmp_path, capsys, monkeypatch, jobs):
    # --jobs 0 and -3 used to run quietly as one job
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
    cfg = write_config(tmp_path, RUN_CFG)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out"), "--jobs", jobs]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: --jobs must be an integer >= 1, got {jobs}\n"
    assert not (tmp_path / "out").exists()


def test_all_algorithms_run(tmp_path):
    for algo in ("mamd", "mamd-batched", "mmp", "mmp-batched"):
        body = RUN_CFG.replace("algorithm = mamd-batched", f"algorithm = {algo}")
        if algo == "mmp":
            body = body.replace("T = 40", "T = 40\nchain.laziness = 0.0")
        cfg = write_config(tmp_path, body, name=f"{algo}.cfg")
        out = tmp_path / algo
        assert main(["run", "--config", cfg, "--out", str(out), "--seed", "0"]) == 0
        assert any(f.startswith("run_") for f in os.listdir(out))


# the stepsize each algorithm's factory picks: c of its MamdSchedule for mamd, gamma for mmp
FACTORY_STEPS = {
    "mamd": lambda *args: mamd_unbatched_schedule(*args).c,
    "mamd-batched": lambda *args: mamd_batched_schedule(*args)[0].c,
    "mmp": mmp_unbatched_stepsize,
    "mmp-batched": lambda *args: mmp_batched_params(*args)[0],
}


def _factory_step(text):
    res = resolve_config(parse_config_text(text))
    problem, tau_mix = _build_instance(res)
    D = float(np.sqrt(problem.geometry.diameter_sq()))
    args = (problem.L, D, problem.sigma, tau_mix, res["T"])
    return FACTORY_STEPS[res["algorithm"]](*args), problem.L


def _without_stepsize_echo(path):
    with open(path, "rb") as fh:
        return [l for l in fh.read().splitlines(keepends=True)
                if not l.startswith(b"# stepsize = ")]


@pytest.mark.parametrize("algo", sorted(FACTORY_STEPS))
def test_explicit_stepsize_matches_auto(tmp_path, monkeypatch, algo):
    monkeypatch.setenv("MM_DETERMINISTIC", "1")
    auto = RUN_CFG.replace("algorithm = mamd-batched", f"algorithm = {algo}")
    step, _ = _factory_step(auto)
    explicit = auto + f"stepsize = {step!r}\n"
    outs = {}
    for name, text in (("auto", auto), ("explicit", explicit)):
        cfg = write_config(tmp_path, text, name=f"{name}.cfg")
        out = tmp_path / name
        assert main(["run", "--config", cfg, "--out", str(out), "--seed", "0"]) == 0
        outs[name] = out / [f for f in os.listdir(out) if f.startswith("run_")][0]
    # the two configs differ only in the echoed stepsize
    assert _without_stepsize_echo(outs["auto"]) == _without_stepsize_echo(outs["explicit"])


@pytest.mark.parametrize("algo", sorted(FACTORY_STEPS))
def test_explicit_stepsize_above_cap_is_config_error(tmp_path, capsys, algo):
    auto = RUN_CFG.replace("algorithm = mamd-batched", f"algorithm = {algo}")
    _, L = _factory_step(auto)
    cfg = write_config(tmp_path, auto + f"stepsize = {0.6 / L!r}\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out"), "--seed", "0"]) == 2
    assert "exceeds 1/(2 L)" in capsys.readouterr().err


def test_game_problem_runs_with_vi_gap(tmp_path):
    cfg = write_config(
        tmp_path,
        "problem.kind = matching-pennies\nproblem.blocks = 2 2\n"
        "problem.noise = 0.3\nchain.n = 4\nalgorithm = mmp-batched\n"
        "T = 30\nseeds = 0\nstride = 1\n",
    )
    out = tmp_path / "game"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    files = [f for f in os.listdir(out) if f.startswith("run_")]
    _, _, rows = read_csv(out / files[0])
    assert all(float(r[3]) >= 0 for r in rows)  # exact dual gap column


# ---------------------------------------------------------------------------
# sweep


@pytest.mark.parametrize("seeds", ["0", "0 1 2"])
def test_sweep_slope_is_the_rate_fit_of_its_own_rows(tmp_path, capsys, seeds):
    # one seed fits the final gaps, several fit their per-T medians: both are gap_median
    cfg = write_config(
        tmp_path,
        "problem.d = 3\nproblem.noise = 0.5\nchain.n = 4\nalgorithm = mamd-batched\n"
        f"sweep.T = 16 32 64 128\nseeds = {seeds}\n",
    )
    out = tmp_path / "sw"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    files = [f for f in os.listdir(out) if f.startswith("sweep_")]
    header, columns, rows = read_csv(out / files[0])
    assert columns == ["T", "oracle_calls", "gap_median", "gap_q25", "gap_q75"]
    assert [r[0] for r in rows] == ["16", "32", "64", "128"]
    slope = float([l for l in header if l.startswith("# rate.slope = ")][0].split("=")[1])
    fit = rate_fit([float(r[0]) for r in rows], [float(r[2]) for r in rows])
    assert slope == fit.slope
    assert f"slope = {fit.slope:.6g}" in capsys.readouterr().out


def test_sweep_with_multiple_seeds_reports_ci(tmp_path):
    cfg = write_config(
        tmp_path,
        "problem.d = 3\nproblem.noise = 0.5\nchain.n = 4\n"
        "algorithm = mamd-batched\nsweep.T = 16 32 64\nseeds = 0 1 2\n",
    )
    out = tmp_path / "sw2"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    files = [f for f in os.listdir(out) if f.startswith("sweep_")]
    header, _, _ = read_csv(out / files[0])
    assert any(l.startswith("# rate.ci = ") for l in header)


def test_process_pool_sweep_matches_single_job(tmp_path, monkeypatch):
    monkeypatch.delenv("MM_DETERMINISTIC", raising=False)
    cfg = write_config(
        tmp_path,
        "problem.d = 3\nproblem.noise = 0.5\nchain.n = 4\n"
        "algorithm = mamd-batched\nsweep.T = 16 32\nseeds = 0 1\n",
    )
    texts = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert main(["sweep", "--config", cfg, "--out", str(out), "--jobs", jobs]) == 0
        name = [f for f in os.listdir(out) if f.startswith("sweep_")][0]
        texts.append((name, (out / name).read_bytes()))
    assert texts[0] == texts[1]


def test_process_pool_sweep_under_forkserver_matches_single_job(tmp_path):
    # forkserver is the default start method on Linux from Python 3.14 on
    cfg = write_config(
        tmp_path,
        "problem.d = 3\nproblem.noise = 0.5\nchain.n = 4\n"
        "algorithm = mamd-batched\nsweep.T = 16 32\nseeds = 0 1\n",
    )
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "jobs1")]) == 0
    proc = subprocess.run(
        [sys.executable, "-c",
         "import multiprocessing, sys\n"
         "from markovmirror.cli import main\n"
         "multiprocessing.set_start_method('forkserver', force=True)\n"
         "sys.exit(main(sys.argv[1:]))",
         "sweep", "--config", cfg, "--out", str(tmp_path / "jobs2"), "--jobs", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    (name,) = os.listdir(tmp_path / "jobs1")
    assert os.listdir(tmp_path / "jobs2") == [name]
    assert (tmp_path / "jobs2" / name).read_bytes() == (tmp_path / "jobs1" / name).read_bytes()


def test_sweep_empty_grid_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "sweep.T =\nseeds = 0\n")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_sweep_evaluates_the_gap_once_per_cell(tmp_path, monkeypatch):
    # a sweep writes only each cell's final gap; at stride 1 it used to
    # evaluate the gap after every iteration and discard all but the last
    calls = []
    gap = cli.subopt_gap
    monkeypatch.setattr(cli, "subopt_gap", lambda p, x: calls.append(x) or gap(p, x))
    cfg = write_config(
        tmp_path,
        "problem.d = 3\nproblem.noise = 0.5\nchain.n = 4\n"
        "algorithm = mamd-batched\nsweep.T = 16 32\nseeds = 0 1\nstride = 1\n",
    )
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "sw")]) == 0
    assert len(calls) == 4


# ---------------------------------------------------------------------------
# diagnose-chain


def test_diagnose_chain_two_state(tmp_path, capsys):
    cfg = write_config(tmp_path, "chain.matrix = 0.9 0.1; 0.2 0.8\n")
    assert main(["diagnose-chain", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "# tau_mix = 3" in out
    pi_line = [l for l in out.splitlines() if l.startswith("# pi = ")][0]
    pi = [float(v) for v in pi_line.split("=")[1].split(",")]
    np.testing.assert_allclose(pi, [2 / 3, 1 / 3], atol=1e-9)
    body = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert body[0] == "t,tv"
    ts = [int(r.split(",")[0]) for r in body[1:]]
    assert ts[:3] == [1, 2, 3] and len(ts) >= 6  # curve reaches 2 tau


def test_diagnose_periodic_chain_exits_4(tmp_path, capsys):
    cfg = write_config(tmp_path, "chain.matrix = 0 1; 1 0\n")
    assert main(["diagnose-chain", "--config", cfg]) == 4
    assert "ergodicity error" in capsys.readouterr().err


def test_bad_matrix_rows_exit_2(tmp_path):
    cfg = write_config(tmp_path, "chain.matrix = 0.9 0.2; 0.2 0.8\n")
    assert main(["diagnose-chain", "--config", cfg]) == 2


# ---------------------------------------------------------------------------
# statistical checks


LEMMA1_CFG = """
problem.d = 4
problem.noise = 1.0
chain.n = 8
chain.seed = 0
check.N = 16 64 256 1024
check.trials = 800
"""

LEMMA2_CFG = """
problem.d = 4
problem.noise = 1.0
chain.n = 8
chain.seed = 1
chain.laziness = 0.97
check.M = 4 16 64 256
check.trials = 1500
"""


def test_check_lemma1_passes_on_fast_chain(tmp_path, capsys):
    cfg = write_config(tmp_path, LEMMA1_CFG)
    out = tmp_path / "c1"
    assert main(["check-lemma1", "--config", cfg, "--out", str(out)]) == 0
    assert "PASS check-lemma1" in capsys.readouterr().out
    files = [f for f in os.listdir(out) if f.startswith("lemma1_")]
    header, columns, rows = read_csv(out / files[0])
    assert columns == ["N", "mean", "se"]
    assert [r[0] for r in rows] == ["16", "64", "256", "1024"]
    assert any(l.startswith("# deviation.slope = ") for l in header)


def test_check_lemma1_zero_noise_trivial_pass(tmp_path, capsys):
    cfg = write_config(tmp_path, LEMMA1_CFG.replace("problem.noise = 1.0",
                                                    "problem.noise = 0.0"))
    out = tmp_path / "c1z"
    assert main(["check-lemma1", "--config", cfg, "--out", str(out)]) == 0
    assert "zero-noise" in capsys.readouterr().out


def test_check_lemma1_single_trial_exits_5(tmp_path, capsys):
    cfg = write_config(tmp_path, LEMMA1_CFG.replace("check.trials = 800",
                                                    "check.trials = 1"))
    assert main(["check-lemma1", "--config", cfg, "--out", str(tmp_path)]) == 5
    assert "statistics error" in capsys.readouterr().err


def test_check_lemma2_passes_on_slow_chain(tmp_path, capsys):
    cfg = write_config(tmp_path, LEMMA2_CFG)
    out = tmp_path / "c2"
    assert main(["check-lemma2", "--config", cfg, "--out", str(out)]) == 0
    assert "PASS check-lemma2" in capsys.readouterr().out
    files = [f for f in os.listdir(out) if f.startswith("lemma2_")]
    header, columns, rows = read_csv(out / files[0])
    assert columns == ["N", "bias_sq"]
    assert any(l.startswith("# bias.slope = ") for l in header)
    assert any(l.startswith("# pairing.max_t_ratio = ") for l in header)


def test_check_lemma2_fast_chain_leaves_window(tmp_path, capsys):
    # without laziness the exact bias decays ~ N^-2 and the check reports
    # an honest out-of-window failure
    cfg = write_config(tmp_path, LEMMA2_CFG.replace("chain.laziness = 0.97",
                                                    "chain.laziness = 0.0"))
    assert main(["check-lemma2", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "FAIL check-lemma2" in capsys.readouterr().out


@pytest.mark.parametrize("command, text", [
    ("check-lemma1", "check.N = 16\n"),
    ("check-lemma2", "check.M = 4\n"),
    ("check-lemma2", "check.M = 4\nproblem.noise = 0\n"),
    ("sweep", "sweep.T = 4 4 4\n"),
], ids=["lemma1", "lemma2", "lemma2-zero-noise", "sweep"])
def test_a_slope_over_fewer_than_two_sizes_exits_2_before_any_work(tmp_path, capsys, monkeypatch,
                                                                    command, text):
    # check-lemma2 used to print FAIL with a nan bias slope and exit 1, or PASS at zero
    # noise; sweep ran every cell and then exited 5
    monkeypatch.setattr(cli, "_build_instance", lambda res: pytest.fail("an instance was built"))
    cfg = write_config(tmp_path, "problem.d = 2\nchain.n = 2\nT = 4\nseeds = 0\n" + text)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ") and captured.err.count("\n") == 1
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("text, args, line", [
    ("seeds = 0 0\n", [], 5), ("seeds = 3,1,3\n", [], 5), ("", ["--seed", "0,0,1"], None),
], ids=["file", "file-comma", "flag"])
def test_a_repeated_seed_exits_2_before_any_work(tmp_path, capsys, monkeypatch, command, text,
                                                 args, line):
    # run wrote seed 0's CSV twice under n_seeds = 2, and sweep counted it twice in its fit
    monkeypatch.setattr(cli, "_build_instance", lambda res: pytest.fail("an instance was built"))
    cfg = write_config(tmp_path, "problem.d = 2\nchain.n = 2\nT = 4\nsweep.T = 4 8\n" + text)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out"), *args]) == 2
    captured = capsys.readouterr()
    where = "" if line is None else f"config line {line}: "
    assert captured.err.startswith(f"config error: {where}seeds must be distinct")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# console entry point


def test_imported_main_runs_in_a_fresh_interpreter(tmp_path):
    # imports cli.main only; CI runs the installed console script itself
    cfg = write_config(tmp_path, "chain.matrix = 0.9 0.1; 0.2 0.8\n")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from markovmirror.cli import main; sys.exit(main(sys.argv[1:]))",
         "diagnose-chain", "--config", cfg],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "# tau_mix = 3" in proc.stdout


@pytest.mark.parametrize("noise", ["1.0", "0"])
def test_check_lemma2_repeated_cap_is_config_error(tmp_path, capsys, noise):
    # with zero noise the check used to print PASS and write the row N = 4 twice
    cfg = write_config(tmp_path, LEMMA2_CFG.replace("check.M = 4 16 64 256", "check.M = 4 4 16 64")
                       .replace("problem.noise = 1.0", f"problem.noise = {noise}"))
    assert main(["check-lemma2", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "distinct positive lengths" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# flags


# the flags each command reads besides --config
READS = {
    "run": {"--seed", "--jobs", "--out"},
    "sweep": {"--seed", "--jobs", "--out"},
    "diagnose-chain": set(),
    "check-lemma1": {"--seed", "--out"},
    "check-lemma2": {"--seed", "--out"},
}
FLAG_VALUES = {"--seed": "0", "--jobs": "1", "--out": "out", "--stride": "10"}


@pytest.mark.parametrize("command, flag", [(c, f) for c, reads in READS.items()
                                           for f in sorted(FLAG_VALUES) if f not in reads])
def test_a_flag_the_command_does_not_read_exits_2(tmp_path, monkeypatch, capsys, command, flag):
    # such flags used to be taken and dropped: diagnose-chain --out d exited 0 and made no d
    monkeypatch.chdir(tmp_path)  # the config's default out is "."
    cfg = write_config(tmp_path, "problem.d = 2\nchain.n = 2\nT = 4\nsweep.T = 4\nseeds = 0\n"
                       "check.N = 4 8\ncheck.M = 2 4\ncheck.trials = 4\n")
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg, flag, FLAG_VALUES[flag]])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"unrecognized arguments: {flag}" in captured.err and captured.out == ""
    assert os.listdir(tmp_path) == ["run.cfg"]


def test_noise_on_a_one_state_chain_exits_2_with_one_line(tmp_path):
    # it used to print two divide-by-zero RuntimeWarnings before the config error
    cfg = write_config(tmp_path, "chain.matrix = 1\nT = 4\n")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from markovmirror.cli import main; sys.exit(main(sys.argv[1:]))",
         "run", "--config", cfg, "--out", str(tmp_path / "out")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["config error: noise_scale > 0 needs a chain whose "
                                        "zero-mean shifts are not all zero, i.e. two or more "
                                        "states"]
    assert not (tmp_path / "out").exists()


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_exit_codes():
    """{error class: (exit code, stderr label)} from README's exit-code paragraph."""
    paragraph = README.read_text(encoding="utf-8").split("Exit codes, ")[1].split("\n\n")[0]
    codes = {}
    for entry in re.split(r"(?=`\d` )", " ".join(paragraph.split()))[1:]:
        code, label = re.match(r"`(\d)` ([a-z ]+)", entry).groups()
        codes.update((name, (int(code), label)) for name in re.findall(r"`(\w+Error)`", entry))
    return codes


@pytest.mark.parametrize("name", errors.__all__)
def test_readme_exit_codes_match_each_error_class(tmp_path, capsys, monkeypatch, name):
    listed = _readme_exit_codes()
    assert set(listed) == set(errors.__all__)
    code, label = listed[name]

    def build(res):
        raise getattr(errors, name)("raised on purpose")

    monkeypatch.setattr(cli, "_build_instance", build)
    cfg = write_config(tmp_path, "problem.d = 2\nchain.n = 2\nT = 4\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == code
    assert capsys.readouterr().err == f"{label}: raised on purpose\n"


def test_readme_synopsis_lists_each_commands_flags():
    readme = README.read_text(encoding="utf-8")
    block = next(b for b in readme.split("```sh\n")[1:] if b.startswith("markovmirror "))
    listed = {}
    for line in block.split("```")[0].splitlines():
        _, command, *rest = line.split()
        listed[command] = set(re.findall(r"--[a-z-]+", " ".join(rest)))
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    defined = {name: {flag for action in sp._actions for flag in action.option_strings}
               - {"-h", "--help"} for name, sp in sub.choices.items()}
    assert listed == defined
    assert defined == {c: reads | {"--config"} for c, reads in READS.items()}


# ---------------------------------------------------------------------------
# config keys


def _res_reads(path):
    """The keys a file reads as `res["key"]`."""
    return {node.slice.value for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id == "res" and isinstance(node.slice, ast.Constant)}


def test_every_config_key_is_read_by_a_command():
    # a key that no command reads is an option that does nothing
    size_keys = {size_key for _, _, _, size_key, *_ in cli._CHECKS.values()}
    assert _res_reads(Path(cli.__file__)) | size_keys == set(_SCHEMA)


def test_readme_config_table_lists_each_schema_key():
    section = README.read_text(encoding="utf-8").split("### Config keys\n")[1].split("\n#")[0]
    keys = re.findall(r"^\| `([^`]+)` \|", section, flags=re.M)
    assert sorted(keys) == sorted(_SCHEMA) and len(keys) == len(_SCHEMA)
