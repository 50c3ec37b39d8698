"""CLI outputs frozen before the command layer was restructured.

Each case runs one command under ``MM_DETERMINISTIC=1`` and compares its
exit code, its stdout and every file it writes with
``tests/data/cli_frozen.json``.  Header keys, text and integers must
match exactly; floats, in the header or in a row, within 1e-12 as in the
golden-row test of the solvers.
"""

import contextlib
import io
import json
import os
from pathlib import Path

import numpy as np
import pytest

from markovmirror.cli import main

FROZEN_PATH = Path(__file__).parent / "data" / "cli_frozen.json"

QUAD = """
problem.kind = quadratic
problem.d = 4
problem.geometry = box
problem.noise = 0.5
problem.seed = 3
chain.n = 6
chain.seed = 1
T = 40
seeds = 0 1
stride = 10
"""

GAME = """
problem.kind = game
problem.blocks = 2 3
problem.noise = 0.4
problem.seed = 2
chain.n = 5
chain.seed = 2
T = 30
seeds = 0 1
stride = 10
"""

PENNIES = """
problem.kind = matching-pennies
problem.blocks = 2 2
problem.noise = 0.3
chain.n = 4
T = 30
seeds = 0
stride = 5
"""

CHECK = """
problem.d = 3
problem.noise = 1.0
chain.n = 6
chain.seed = 1
chain.laziness = 0.9
check.N = 16 64 256
check.M = 4 16 64
check.trials = 200
seeds = 4
"""

CASES = {
    "run-mamd": ("run", QUAD + "algorithm = mamd\n"),
    "run-mamd-batched": ("run", QUAD + "algorithm = mamd-batched\nB = 2\nM = 8\n"),
    "run-mmp": ("run", GAME + "algorithm = mmp\n"),
    "run-mmp-batched": ("run", PENNIES + "algorithm = mmp-batched\n"),
    "run-mmp-ball": ("run", QUAD.replace("= box", "= ball") + "algorithm = mmp\n"),
    "run-explicit-c": ("run", QUAD + "algorithm = mamd-batched\nstepsize = 0.01\n"),
    "run-explicit-gamma": ("run", GAME + "algorithm = mmp-batched\nstepsize = 0.05\n"),
    "sweep": ("sweep", QUAD.replace("seeds = 0 1\n", "") + "algorithm = mamd-batched\n"
              "sweep.T = 16 32 64\nseeds = 0 1 2\n"),
    "sweep-one-seed": ("sweep", GAME.replace("seeds = 0 1\n", "") + "algorithm = mmp\n"
                       "sweep.T = 32 64\nseeds = 3\n"),
    "diagnose-chain": ("diagnose-chain", "chain.n = 5\nchain.seed = 2\nchain.laziness = 0.5\n"),
    "check-lemma1": ("check-lemma1", CHECK),
    "check-lemma1-zero-noise": ("check-lemma1", CHECK.replace("noise = 1.0", "noise = 0.0")),
    "check-lemma2": ("check-lemma2", CHECK),
    "check-lemma2-zero-noise": ("check-lemma2", CHECK.replace("noise = 1.0", "noise = 0.0")),
}


def run_case(name, workdir):
    """Exit code, stdout (out dir masked) and {file name: text} of one case."""
    command, text = CASES[name]
    workdir = Path(workdir)
    cfg, out = workdir / f"{name}.cfg", workdir / name
    cfg.write_text(text)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        # diagnose-chain writes to stdout and takes no --out
        flags = [] if command == "diagnose-chain" else ["--out", str(out)]
        code = main([command, "--config", str(cfg), *flags])
    files = {}
    if out.exists():
        files = {f: (out / f).read_text() for f in sorted(os.listdir(out))}
    return {"code": code, "stdout": buf.getvalue().replace(str(out), "<out>"), "files": files}


def _is_float_text(cell):
    try:
        float(cell)
    except ValueError:
        return False
    return not cell.lstrip("-").isdigit()


def _same_cells(got, want, where):
    assert len(got) == len(want), where
    for g, w in zip(got, want):
        if _is_float_text(w) and _is_float_text(g):
            np.testing.assert_allclose(float(g), float(w), rtol=0, atol=1e-12, err_msg=where)
        else:
            assert g == w, where


def _same_file(got, want, where):
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert len(got_lines) == len(want_lines), where
    for i, (g, w) in enumerate(zip(got_lines, want_lines)):
        at = f"{where}:{i + 1}"
        if w.startswith("# "):
            g_key, _, g_val = g.partition(" = ")
            w_key, _, w_val = w.partition(" = ")
            assert g_key == w_key, at
            _same_cells(g_val.split(","), w_val.split(","), at)
        else:
            _same_cells(g.split(","), w.split(","), at)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_outputs_match_frozen(tmp_path, monkeypatch, name):
    monkeypatch.setenv("MM_DETERMINISTIC", "1")
    want = json.loads(FROZEN_PATH.read_text())[name]
    got = run_case(name, tmp_path)
    assert got["code"] == want["code"]
    assert sorted(got["files"]) == sorted(want["files"])
    for fname, text in want["files"].items():
        _same_file(got["files"][fname], text, f"{name}/{fname}")
    _same_file(got["stdout"], want["stdout"], f"{name}/stdout")
