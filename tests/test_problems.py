import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from markovmirror import (
    BoxGeometry,
    ChainCursor,
    InputError,
    MinProblem,
    SimplexGeometry,
    TransitionKernel,
    ViProblem,
    err_vi,
    make_min_instance,
    make_vi_instance,
    matching_pennies,
    random_ergodic,
    stationary,
)
from markovmirror.problems import _game
from geometry_reference import sample


def zero_shifts(kernel, d):
    return np.zeros((kernel.n_states, d))


# ---------------------------------------------------------------------------
# oracle structure


def test_grad_oracle_identity_quadratic(two_state):
    geo = BoxGeometry(2, -1.0, 1.0)
    p = MinProblem(geo, np.eye(2), np.zeros(2), zero_shifts(two_state, 2), two_state)
    np.testing.assert_allclose(p.grad_oracle(np.array([1.0, 0.0]), 0), [1.0, 0.0])
    np.testing.assert_allclose(p.grad(np.array([0.25, -0.5])), [0.25, -0.5])
    assert p.f(np.array([1.0, 1.0])) == pytest.approx(1.0)


def test_grad_oracle_shift_sign(two_state):
    # oracle = grad - c_z, so recorded deviations are -shifts
    geo = BoxGeometry(2, -1.0, 1.0)
    shifts = np.array([[1.0, 0.0], [-2.0, 0.0]])
    shifts -= stationary(two_state) @ shifts  # center against the computed pi
    p = MinProblem(geo, np.eye(2), np.zeros(2), shifts, two_state)
    x = np.array([0.5, 0.5])
    np.testing.assert_allclose(p.grad_oracle(x, 1) - p.grad(x), -shifts[1])
    np.testing.assert_allclose(p.noise_deviations(), -shifts)


# each rejection below holds at unit scale and 1e-12 times it: the tolerances used
# to floor their scale at 1, so that below it they were absolute
SCALES = [1.0, 1e-12]


@pytest.mark.parametrize("scale", SCALES)
def test_nonzero_mean_shifts_rejected(two_state, scale):
    geo = BoxGeometry(2, -1.0, 1.0)
    with pytest.raises(InputError, match="zero stationary mean"):
        MinProblem(geo, np.eye(2), np.zeros(2), scale * np.ones((2, 2)), two_state)
    # shifts of 1e-13 in every entry, a pi-mean as large as themselves, used to pass
    centred = make_min_instance(2, two_state, noise_scale=scale, seed=1).shifts
    MinProblem(geo, np.eye(2), np.zeros(2), centred, two_state)


def test_large_noise_shifts_pass_the_zero_mean_check():
    # centring leaves a stationary mean of about eps times the shifts' peak, so the check
    # is relative to it; at noise 1e5 an absolute 1e-12 rejected all 20 of these seeds
    kernel = random_ergodic(8, seed=3)
    for seed in range(20):
        p = make_min_instance(10, kernel, noise_scale=1e5, seed=seed)
        assert p.sigma == 1e5
        game = make_vi_instance((4, 4), kernel, noise_scale=1e5, seed=seed)
        assert game.sigma == 1e5
    # a mean of 1e-9 times the peak is no rounding error
    biased = p.shifts + 1e-9 * np.max(np.abs(p.shifts))
    with pytest.raises(InputError, match="zero stationary mean"):
        MinProblem(p.geometry, p.A, p.b, biased, kernel)


def test_oracle_mean_over_chain_matches_grad(dense8):
    p = make_min_instance(6, dense8, noise_scale=1.0, seed=4)
    x = sample(p.geometry, np.random.default_rng(0))
    cur = ChainCursor(dense8, np.random.default_rng(12))
    n = 100_000
    states = cur.advance(n)
    avg = p.grad_oracle(x, states).mean(axis=0)
    # per-coordinate 3-sigma band from the realized deviation spread
    dev = p.noise_deviations().take(states, axis=0)
    se = dev.std(axis=0, ddof=1) / np.sqrt(n)
    # Markov correlation inflates the effective SE by roughly (1+lam)/(1-lam)
    assert np.all(np.abs(avg - p.grad(x)) <= 3 * 4 * se + 1e-9)


def test_vi_oracle_values(two_state):
    p = make_vi_instance((2, 3), two_state, noise_scale=0.5, seed=4)
    x = sample(p.geometry, np.random.default_rng(1))
    F = p.Q @ x + p.c
    for z in (0, 1):
        np.testing.assert_array_equal(p.op_oracle(x, z), F + p.shifts[z])
    states = np.array([1, 0, 0, 1, 1])
    np.testing.assert_array_equal(p.op_oracle(x, states), F + p.shifts[states])
    assert p.op_oracle(x, states).shape == (5, 5)
    # the recorded deviations are what the oracle adds to the mean-field operator
    rows = p.op_oracle(x, np.arange(two_state.n_states))
    np.testing.assert_allclose(p.noise_deviations(), rows - p.op(x), rtol=0, atol=1e-15)
    assert np.abs(p.shifts).max() > 0


@pytest.mark.parametrize("kind", ["min", "vi"])
def test_the_oracle_writes_only_into_the_array_it_returns(dense8, kind):
    # a state vector's rows are combined in place in the array the take made
    if kind == "min":
        p = make_min_instance(5, dense8, noise_scale=1.0, seed=2)
        oracle, mean, combine, matrices = p.grad_oracle, p.grad, np.subtract, (p.A, p.b)
    else:
        p = make_vi_instance((2, 3), dense8, noise_scale=1.0, seed=2)
        oracle, mean, combine, matrices = p.op_oracle, p.op, np.add, (p.Q, p.c)
    x = sample(p.geometry, np.random.default_rng(3))
    states = ChainCursor(dense8, np.random.default_rng(4)).advance(64)
    shifts = p.shifts.copy()
    out = oracle(x, states)
    assert out.tobytes() == combine(mean(x), shifts.take(states, axis=0)).tobytes()
    assert p.shifts.tobytes() == shifts.tobytes() and not p.shifts.flags.writeable
    assert not p.noise_deviations().flags.writeable
    one = oracle(x, 3)
    assert one.tobytes() == combine(mean(x), shifts[3]).tobytes()
    assert not np.shares_memory(one, p.shifts) and not np.shares_memory(out, p.shifts)
    # the problem keeps its own copy of the shifts it was given
    given = shifts.copy()
    q = type(p)(p.geometry, *matrices, given, dense8)
    given[:] = 0.0
    assert q.shifts.tobytes() == shifts.tobytes()


@pytest.mark.parametrize("block_dim", [2, 3, 4, 5])
def test_matching_pennies_operator(two_state, block_dim):
    # the sign matrix at 2, the cyclic shift game P - P' above it; both have uniform play
    # as equilibrium, which the factory attaches as x*
    p = matching_pennies(two_state, block_dim=block_dim)
    if block_dim == 2:
        # F(x) = (G y, -G' u) with G = [[1,-1],[-1,1]]
        np.testing.assert_allclose(p.op(np.array([1.0, 0.0, 1.0, 0.0])), [1.0, -1.0, -1.0, 1.0])
    np.testing.assert_allclose(p.op(p.geometry.center()), np.zeros(2 * block_dim), atol=1e-15)
    assert p.is_skew()
    np.testing.assert_array_equal(p.x_star, np.full(2 * block_dim, 1.0 / block_dim))
    assert err_vi(p, p.x_star) <= 1e-12


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize would cost most of a cold import, and the library needs no scipy
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    code = "import sys, markovmirror; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    assert out.strip() == "False"


# ---------------------------------------------------------------------------
# err_vi on general games

TWO_STATE = TransitionKernel(np.array([[0.9, 0.1], [0.2, 0.8]]))


@st.composite
def payoffs(draw):
    """(G, c1, c2): a d1 x d2 payoff block, 2 <= d1, d2 <= 12, and its linear terms."""
    d1, d2 = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    kind = draw(st.sampled_from(["gaussian", "integer", "duplicate", "rank-one", "zero"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    halves = st.integers(-2, 2).map(lambda k: k / 2.0)  # small values, so payoffs tie
    if kind in ("gaussian", "duplicate"):
        G = rng.normal(size=(d1, d2))
        c = 0.1 * rng.normal(size=d1 + d2)
        if kind == "duplicate":
            # row i of M = G + c1 1' - 1 c2' repeats row k, and column j column l
            i, k = draw(st.integers(0, d1 - 1)), draw(st.integers(0, d1 - 1))
            j, l = draw(st.integers(0, d2 - 1)), draw(st.integers(0, d2 - 1))
            G[i], c[i] = G[k], c[k]
            G[:, j], c[d1 + j] = G[:, l], c[d1 + l]
    else:
        c = draw(arrays(float, d1 + d2, elements=halves))
        if kind == "integer":
            G = draw(arrays(float, (d1, d2), elements=st.integers(-2, 2).map(float)))
        elif kind == "rank-one":
            G = np.outer(draw(arrays(float, d1, elements=halves)), rng.normal(size=d2))
        else:
            G = np.zeros((d1, d2))
    return G, c[:d1], c[d1:]


@settings(max_examples=200, deadline=None)
@given(game=payoffs(), seed=st.integers(0, 2**32 - 1))
def test_err_vi_is_the_best_vertex_pair_on_hard_games(game, seed):
    # <F(u), x - u> is linear in u for a skew F, so its maximum sits at a vertex pair
    G, c1, c2 = game
    d1, d2 = G.shape
    geo = SimplexGeometry((d1, d2))
    p = _game(geo, G, np.r_[c1, c2], TWO_STATE, 0.0, None)
    x = sample(geo, np.random.default_rng(seed))
    U = np.array([np.r_[e, f] for e in np.eye(d1) for f in np.eye(d2)])
    best = np.max(np.einsum("ij,ij->i", U @ p.Q.T + p.c, x - U))
    gap = err_vi(p, x)
    assert gap >= 0.0
    M = G + c1[:, None] - c2[None, :]
    assert abs(gap - best) <= 1e-12 * max(1.0, np.max(np.abs(M)))


def test_games_build_and_run_with_scipy_unimportable(tmp_path):
    # the library is numpy alone: with every scipy import failing, a game builds and runs
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    cfg = tmp_path / "game.cfg"
    cfg.write_text("problem.kind = game\nproblem.blocks = 4 4\nproblem.noise = 0.3\n"
                   "chain.n = 4\nalgorithm = mmp-batched\nT = 30\nseeds = 0\n")
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from markovmirror import cli, make_vi_instance, random_ergodic\n"
        "make_vi_instance((4, 4), random_ergodic(4, seed=1), noise_scale=0.3, seed=3)\n"
        f"sys.exit(cli.main(['run', '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'out')!r}]))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert any(f.startswith("run_") for f in os.listdir(tmp_path / "out"))


def test_vi_monotonicity(two_state, rng):
    p = make_vi_instance((3, 4), two_state, seed=2)
    xs = sample(p.geometry, rng, 200)
    for i in range(0, 200, 2):
        x, y = xs[i], xs[i + 1]
        assert (p.op(x) - p.op(y)) @ (x - y) >= -1e-12


@pytest.mark.parametrize("scale", SCALES)
def test_vi_rejects_nonmonotone(two_state, scale):
    geo = BoxGeometry(1, -1.0, 1.0)
    with pytest.raises(InputError, match="monotone"):
        ViProblem(geo, np.array([[-scale]]), np.zeros(1), zero_shifts(two_state, 1), two_state)


@pytest.mark.parametrize("scale", SCALES)
def test_min_rejects_asymmetric_or_indefinite(two_state, scale):
    geo = BoxGeometry(2, -1.0, 1.0)
    # at 1e-12 this A used to be accepted as symmetric and silently symmetrised
    for A in ([[1.0, 0.5], [0.0, 1.0]], [[1.0, 0.5], [0.4, 1.0]]):
        with pytest.raises(InputError, match="symmetric"):
            MinProblem(geo, scale * np.array(A), np.zeros(2), zero_shifts(two_state, 2),
                       two_state)
    with pytest.raises(InputError, match="semidefinite"):
        MinProblem(geo, -scale * np.eye(2), np.zeros(2), zero_shifts(two_state, 2), two_state)


def _conjugated(seed, M):
    """V M V' for a random orthogonal V: M's symmetry and spectrum, up to rounding."""
    V, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=M.shape))
    return V @ M @ V.T


def test_a_large_spectrum_builds():
    # the eigensolver's rounding at 1e9 is past an absolute slack of 1e-10
    p = make_min_instance(6, random_ergodic(4, 0), eigenvalues=[0, .2, .4, .6, .8, 1e9])
    assert p.L == pytest.approx(1e9)


@pytest.mark.parametrize("scale", [1e6, 1e8, 1e9])
def test_matrices_at_a_large_scale_keep_their_structure(two_state, scale):
    # symmetric PSD with a zero eigenvalue, monotone and skew in exact arithmetic;
    # the matrix tests' absolute 1e-10 rejected each in some of these 20 draws
    geo, shifts = BoxGeometry(6, 0.0, 1.0), zero_shifts(two_state, 6)
    for seed in range(20):
        S = _conjugated(seed, scale * np.diag([0.0, 0.2, 0.4, 0.6, 0.8, 1.0]))
        G = np.random.default_rng(seed).normal(size=(6, 6))
        K = _conjugated(seed, scale * (G - G.T))
        MinProblem(geo, S, np.zeros(6), shifts, two_state)
        ViProblem(geo, 0.5 * (S + S.T) + K, np.zeros(6), shifts, two_state)
        assert ViProblem(geo, K, np.zeros(6), shifts, two_state).is_skew()


@pytest.mark.parametrize("scale", SCALES)
def test_matrix_slack_is_1e10_of_the_largest_entry(two_state, scale):
    # below unit scale the slack used to be an absolute 1e-10
    geo, shifts, zero = BoxGeometry(2, -1.0, 1.0), zero_shifts(two_state, 2), np.zeros(2)
    for eps, ok in ((4e-11, True), (2e-10, False)):
        asymmetric = scale * np.array([[1.0, eps], [0.0, 1.0]])
        indefinite = scale * np.diag([-eps, 1.0])
        for build in (lambda: MinProblem(geo, asymmetric, zero, shifts, two_state),
                      lambda: MinProblem(geo, indefinite, zero, shifts, two_state),
                      lambda: ViProblem(geo, indefinite, zero, shifts, two_state)):
            if ok:
                build()
            else:
                with pytest.raises(InputError):
                    build()
        Q = scale * np.array([[eps, 1.0], [-1.0, 0.0]])  # |Q + Q'| is 2 eps * scale
        assert ViProblem(geo, Q, zero, shifts, two_state).is_skew() == ok


# ---------------------------------------------------------------------------
# hand-computable instances

# an independent solve of a MinProblem, to cross-check the optima the
# factories know by construction: stop at Frank-Wolfe gap 1e-10
_REF_MIN_TOL = 1e-10
_REF_MAX_ITER = 10**6


def _fw_gap(problem, x):
    """Frank-Wolfe gap max_v <grad f(x), x - v>; certifies f(x) - f* <= gap."""
    g = problem.grad(x)
    v = problem.geometry.linear_argmax(-g)
    return float(g @ (x - v))


def reference_solution(problem):
    """(x*, f*) by accelerated projected gradient with restarts, certified by the FW gap."""
    geo = problem.geometry
    L2 = float(np.linalg.eigvalsh(problem.A).max())
    if L2 <= 0.0:
        x = geo.center()
        return x, problem.f(x)
    x = geo.center()
    y = x.copy()
    t_mom = 1.0
    for _ in range(_REF_MAX_ITER):
        x_new = geo.project(y - problem.grad(y) / L2)
        if _fw_gap(problem, x_new) <= _REF_MIN_TOL:
            return x_new, problem.f(x_new)
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_mom**2))
        mom = (t_mom - 1.0) / t_new
        # gradient restart keeps the momentum useful on ill-conditioned spectra
        if (y - x_new) @ (x_new - x) > 0.0:
            t_new, mom = 1.0, 0.0
        y = x_new + mom * (x_new - x)
        x, t_mom = x_new, t_new
    raise AssertionError(f"reference minimization did not reach FW gap {_REF_MIN_TOL:g}")


def test_interior_quadratic_reference(two_state):
    # f(x) = ||x||^2/2 - (1/2) 1'x on [0,1]^d: x* = 1/2, f* = -d/8
    d = 5
    geo = BoxGeometry(d, 0.0, 1.0)
    p = MinProblem(geo, np.eye(d), np.full(d, 0.5), zero_shifts(two_state, d), two_state)
    x_ref, f_ref = reference_solution(p)
    np.testing.assert_allclose(x_ref, np.full(d, 0.5), atol=1e-5)
    assert f_ref == pytest.approx(-d / 8.0, abs=1e-9)


def test_factory_min_reference_is_reproducible(dense8):
    p = make_min_instance(8, dense8, geometry_kind="ball", noise_scale=0.5, seed=9)
    x_ref, f_ref = reference_solution(p)
    assert f_ref == pytest.approx(p.f_star, abs=1e-8)
    assert p.f(p.x_star) == pytest.approx(p.f_star, abs=1e-12)
    np.testing.assert_allclose(p.grad(p.x_star), np.zeros(8), atol=1e-10)  # interior


def test_first_order_optimality(dense8, rng):
    p = make_min_instance(7, dense8, geometry_kind="simplex", noise_scale=0.0, seed=5)
    g = p.grad(p.x_star)
    xs = sample(p.geometry, rng, 1000)
    assert np.min((xs - p.x_star) @ g) >= -1e-8


def test_vi_factory_reference(dense8):
    p = make_vi_instance((4, 4), dense8, noise_scale=0.3, seed=11)
    assert p.is_skew()
    assert np.max(np.abs(p.Q + p.Q.T)) <= 1e-12
    assert p.x_star is None  # a random game fixes no equilibrium; err_vi needs none


# ---------------------------------------------------------------------------
# constants: smoothness and noise level


def test_smoothness_euclidean_is_spectral_norm(dense8):
    p = make_min_instance(6, dense8, geometry_kind="box", seed=3)
    assert p.L == pytest.approx(np.max(np.abs(np.linalg.eigvalsh(p.A))), abs=1e-9)
    assert p.L == pytest.approx(1.0, abs=1e-9)  # the spectrum's max is pinned to 1


def test_smoothness_simplex_is_max_entry(dense8):
    p = make_min_instance(6, dense8, geometry_kind="simplex", seed=3)
    assert p.L == pytest.approx(np.max(np.abs(p.A)), abs=1e-12)
    g = make_vi_instance((3, 3), dense8, seed=1)
    assert g.L == pytest.approx(1.0, abs=1e-12)  # the payoff's max |entry| is pinned to 1
    assert g.L_tilde == g.L


@pytest.mark.parametrize("kind", ["box", "ball", "simplex"])
def test_f_star_is_f_at_the_planted_minimizer(two_state, kind):
    # MinProblem computes f* as f(x*); the factory's own formula for it was a second copy
    for seed in range(8):
        p = make_min_instance(5, two_state, geometry_kind=kind, noise_scale=0.3, seed=seed)
        assert p.f_star == p.f(p.x_star)
        assert type(p.f_star) is float
    no_x_star = MinProblem(BoxGeometry(2), np.eye(2), np.zeros(2), zero_shifts(two_state, 2),
                           two_state)
    assert no_x_star.f_star is None


@pytest.mark.parametrize("x_star", [0.0, np.zeros(3), np.zeros((2, 1))])
def test_a_misshapen_x_star_is_input_error(two_state, x_star):
    # accepted unchecked before f* = f(x*); in f they raise numpy's ValueError, not InputError
    with pytest.raises(InputError, match="x_star has shape"):
        MinProblem(BoxGeometry(2), np.eye(2), np.zeros(2), zero_shifts(two_state, 2), two_state,
                   x_star=x_star)
    with pytest.raises(InputError, match="x_star has shape"):
        ViProblem(BoxGeometry(2), np.zeros((2, 2)), np.zeros(2), zero_shifts(two_state, 2),
                  two_state, x_star=x_star)


def test_sigma_is_exact(dense8):
    for scale in (0.0, 0.5, 2.0):
        p = make_min_instance(5, dense8, noise_scale=scale, seed=6)
        assert p.sigma == scale
        deviations = p.noise_deviations()
        measured = np.max(p.geometry.norm_pair.dual_norm(deviations)) if scale else 0.0
        assert measured == pytest.approx(scale, abs=1e-12)


@pytest.mark.parametrize("scale", SCALES)
def test_sigma_mismatch_rejected(two_state, scale):
    geo = BoxGeometry(2, -1.0, 1.0)
    shifts = scale * np.array([[1.0, 0.0], [-2.0, 0.0]])
    shifts -= stationary(two_state) @ shifts
    with pytest.raises(InputError, match="disagrees with shifts"):
        MinProblem(geo, np.eye(2), np.zeros(2), shifts, two_state, sigma=0.1 * scale)
    # at 1e-12, a stated sigma for shifts 1000 times larger used to be recorded
    with pytest.raises(InputError, match="disagrees with shifts"):
        MinProblem(geo, np.eye(2), np.zeros(2), 500 * shifts, two_state, sigma=scale)
    measured = float(np.max(np.abs(shifts)))
    assert MinProblem(geo, np.eye(2), np.zeros(2), shifts, two_state, sigma=measured).sigma \
        == measured


def test_deviations_have_zero_stationary_mean(dense8):
    pi = stationary(dense8)
    for p in (make_min_instance(5, dense8, seed=1),
              make_vi_instance((3, 2), dense8, seed=1),
              matching_pennies(dense8, noise_scale=1.0, seed=2)):
        assert np.max(np.abs(pi @ p.noise_deviations())) <= 1e-12


def test_zero_noise_is_deterministic(two_state):
    p = make_min_instance(4, two_state, noise_scale=0.0, seed=0)
    x = p.geometry.center()
    np.testing.assert_array_equal(p.grad_oracle(x, 0), p.grad_oracle(x, 1))
    assert p.sigma == 0.0


def test_noise_on_a_one_state_chain_is_an_input_error():
    # the zero-mean shifts of one state are all 0; scaling them to a peak divided by zero,
    # a RuntimeWarning that pyproject raises as an error, before "shifts must be finite"
    one = TransitionKernel(np.array([[1.0]]))
    for make in (lambda: make_min_instance(3, one, noise_scale=1.0),
                 lambda: make_vi_instance((2, 2), one, noise_scale=1.0)):
        with pytest.raises(InputError, match="two or more states"):
            make()
    assert make_min_instance(3, one, noise_scale=0.0).sigma == 0.0


def test_factory_seed_determinism(two_state):
    a = make_min_instance(6, two_state, seed=42)
    b = make_min_instance(6, two_state, seed=42)
    np.testing.assert_array_equal(a.A, b.A)
    np.testing.assert_array_equal(a.b, b.b)
    np.testing.assert_array_equal(a.shifts, b.shifts)
    c = make_min_instance(6, two_state, seed=43)
    assert np.max(np.abs(a.A - c.A)) > 1e-6


def test_shape_validation(two_state):
    p = make_min_instance(3, two_state, seed=0)
    with pytest.raises(InputError):
        p.grad(np.zeros(4))
    with pytest.raises(InputError):
        make_vi_instance((2, 2, 2), two_state)


@pytest.mark.parametrize("scale", SCALES)
def test_is_skew_uses_the_library_tolerance(two_state, scale):
    # err_vi, and so the CLI gap, accepts |Q + Q'| up to 1e-10 of Q's largest entry
    geo, shifts = BoxGeometry(2, -1.0, 1.0), zero_shifts(two_state, 2)
    Q = scale * np.array([[0.0, 1.0], [-1.0 + 5e-11, 0.0]])
    p = ViProblem(geo, Q, np.zeros(2), shifts, two_state)
    assert p.is_skew()
    assert err_vi(p, np.zeros(2)) == pytest.approx(0.0, abs=1e-9 * scale)
    # at 1e-12 this Q used to read as skew, and err_vi gave it a skew operator's gap
    p = ViProblem(geo, scale * np.array([[1.0, 1.0], [-1.0, 1.0]]), np.zeros(2), shifts,
                  two_state)
    assert not p.is_skew()
    with pytest.raises(InputError, match="skew operator"):
        err_vi(p, np.zeros(2))


def _finite_problem(two_state, **bad):
    """A box MinProblem (or, with Q, a ViProblem) with one argument replaced by `bad`."""
    geo = BoxGeometry(2, -1.0, 1.0)
    args = dict(A=np.eye(2), b=np.zeros(2), shifts=zero_shifts(two_state, 2), kernel=two_state,
                x_star=np.zeros(2))
    if "Q" in bad:
        return ViProblem(geo, bad["Q"], np.zeros(2), args["shifts"], two_state)
    args.update(bad)
    return MinProblem(geo, **args)


NAN_ROW = np.array([[np.nan, 0.0], [0.0, 0.0]])


@pytest.mark.parametrize("bad", [
    {"shifts": NAN_ROW}, {"b": np.array([np.nan, 0.0])}, {"x_star": np.array([np.nan, 0.0])},
    {"sigma": np.nan}, {"sigma": np.inf}, {"A": NAN_ROW},
    {"A": np.array([[np.inf, 0.0], [0.0, 1.0]])}, {"Q": NAN_ROW},
], ids=["shifts", "b", "x_star", "sigma-nan", "sigma-inf", "A-nan", "A-inf", "Q-nan"])
def test_non_finite_problem_data_is_input_error(two_state, bad):
    # NaN passed the zero-mean and sigma comparisons; a NaN or inf matrix
    # entry escaped from eigvalsh as LinAlgError
    with pytest.raises(InputError, match="finite"):
        _finite_problem(two_state, **bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
def test_bad_eigenvalues_rejected(two_state, bad):
    # a NaN spectrum passed the sign check and built a NaN matrix A
    with pytest.raises(InputError, match="eigenvalues"):
        make_min_instance(3, two_state, eigenvalues=[bad, 1.0, 0.5])
