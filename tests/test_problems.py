import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from markovmirror import (
    BoxGeometry,
    ChainCursor,
    InputError,
    MinProblem,
    SimplexGeometry,
    ViProblem,
    err_vi,
    load_instance,
    make_min_instance,
    make_vi_instance,
    matching_pennies,
    reference_solution,
    save_instance,
    stationary,
)


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


def test_nonzero_mean_shifts_rejected(two_state):
    geo = BoxGeometry(2, -1.0, 1.0)
    with pytest.raises(InputError):
        MinProblem(geo, np.eye(2), np.zeros(2), np.ones((2, 2)), two_state)


def test_oracle_mean_over_chain_matches_grad(dense8):
    p = make_min_instance(6, dense8, noise_scale=1.0, seed=4)
    x = p.geometry.sample(np.random.default_rng(0))
    cur = ChainCursor(dense8, np.random.default_rng(12))
    n = 100_000
    states = cur.advance(n)
    avg = p.grad_oracle(x, states).mean(axis=0)
    # per-coordinate 3-sigma band from the realized deviation spread
    dev = p.noise_deviations().take(states, axis=0)
    se = dev.std(axis=0, ddof=1) / np.sqrt(n)
    # Markov correlation inflates the effective SE by roughly (1+lam)/(1-lam)
    assert np.all(np.abs(avg - p.grad(x)) <= 3 * 4 * se + 1e-9)


def test_vi_oracle_values():
    pass  # covered concretely below via matching pennies


def test_matching_pennies_operator(two_state):
    p = matching_pennies(two_state)
    x = np.array([1.0, 0.0, 1.0, 0.0])
    # F(x) = (G y, -G' u) with G = [[1,-1],[-1,1]]
    np.testing.assert_allclose(p.op(x), [1.0, -1.0, -1.0, 1.0])
    np.testing.assert_allclose(p.op(p.geometry.center()), np.zeros(4), atol=1e-15)
    assert p.is_skew()
    np.testing.assert_allclose(p.x_star, [0.5, 0.5, 0.5, 0.5])
    assert err_vi(p, p.x_star) <= 1e-8


@pytest.mark.parametrize("seed, dims", [(14, (3, 5)), (20, (6, 3)), (27, (2, 2))])
def test_game_reference_accepts_floor_fold(two_state, seed, dims):
    # the LP point is exact; folding in the nu-floor adds up to
    # nu * err_vi(center) to the gap, which once tripped a flat 1e-9 check
    p = make_vi_instance(dims, two_state, seed=seed)
    geo = p.geometry
    assert geo.contains(p.x_star)
    assert err_vi(p, p.x_star) <= 1e-9 + geo.nu * err_vi(p, geo.center())


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize costs most of a cold import; only the game LP needs it
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    code = "import sys, markovmirror; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    assert out.strip() == "False"


def test_vi_monotonicity(two_state, rng):
    p = make_vi_instance((3, 4), two_state, seed=2)
    xs = p.geometry.sample(rng, 200)
    for i in range(0, 200, 2):
        x, y = xs[i], xs[i + 1]
        assert (p.op(x) - p.op(y)) @ (x - y) >= -1e-12


def test_vi_rejects_nonmonotone(two_state):
    geo = BoxGeometry(1, -1.0, 1.0)
    with pytest.raises(InputError):
        ViProblem(geo, np.array([[-1.0]]), np.zeros(1), zero_shifts(two_state, 1), two_state)


def test_min_rejects_asymmetric_or_indefinite(two_state):
    geo = BoxGeometry(2, -1.0, 1.0)
    with pytest.raises(InputError):
        MinProblem(geo, np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2),
                   zero_shifts(two_state, 2), two_state)
    with pytest.raises(InputError):
        MinProblem(geo, -np.eye(2), np.zeros(2), zero_shifts(two_state, 2), two_state)


# ---------------------------------------------------------------------------
# hand-computable instances


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
    xs = p.geometry.sample(rng, 1000)
    assert np.min((xs - p.x_star) @ g) >= -1e-8


def test_vi_factory_reference(dense8):
    p = make_vi_instance((4, 4), dense8, noise_scale=0.3, seed=11)
    assert p.is_skew()
    assert np.max(np.abs(p.Q + p.Q.T)) <= 1e-12
    assert err_vi(p, p.x_star) <= 1e-8


# ---------------------------------------------------------------------------
# constants: smoothness and noise level


def test_smoothness_euclidean_is_spectral_norm(dense8):
    p = make_min_instance(6, dense8, geometry_kind="box", seed=3, smoothness=2.5)
    assert p.L == pytest.approx(np.max(np.abs(np.linalg.eigvalsh(p.A))), abs=1e-9)
    assert p.L == pytest.approx(2.5, abs=1e-9)  # spectrum pinned to `smoothness`


def test_smoothness_simplex_is_max_entry(dense8):
    p = make_min_instance(6, dense8, geometry_kind="simplex", seed=3)
    assert p.L == pytest.approx(np.max(np.abs(p.A)), abs=1e-12)
    g = make_vi_instance((3, 3), dense8, seed=1, lipschitz=1.7)
    assert g.L == pytest.approx(1.7, abs=1e-9)
    assert g.L_tilde == g.L


@pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf])
def test_non_positive_or_non_finite_scale_rejected(dense8, value):
    with pytest.raises(InputError, match="smoothness must be positive and finite"):
        make_min_instance(4, dense8, smoothness=value)
    with pytest.raises(InputError, match="lipschitz must be positive and finite"):
        make_vi_instance((2, 3), dense8, lipschitz=value)


def test_sigma_is_exact(dense8):
    for scale in (0.0, 0.5, 2.0):
        p = make_min_instance(5, dense8, noise_scale=scale, seed=6)
        assert p.sigma == scale
        measured = np.max(p.geometry.dual_norm(p.noise_deviations(), axis=1)) if scale else 0.0
        assert measured == pytest.approx(scale, abs=1e-12)


def test_sigma_mismatch_rejected(two_state):
    geo = BoxGeometry(2, -1.0, 1.0)
    shifts = np.array([[1.0, 0.0], [-2.0, 0.0]])
    with pytest.raises(InputError):
        MinProblem(geo, np.eye(2), np.zeros(2), shifts, two_state, sigma=0.1)


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


# ---------------------------------------------------------------------------
# persistence


def test_save_load_round_trip_min(dense8, tmp_path):
    p = make_min_instance(4, dense8, geometry_kind="box", noise_scale=0.7, seed=13)
    path = tmp_path / "inst.txt"
    save_instance(p, path)
    q = load_instance(path)
    x = p.geometry.sample(np.random.default_rng(1))
    assert q.f(x) == p.f(x)
    np.testing.assert_array_equal(q.grad_oracle(x, 3), p.grad_oracle(x, 3))
    np.testing.assert_array_equal(q.kernel.P, p.kernel.P)
    assert q.f_star == p.f_star
    assert q.sigma == pytest.approx(p.sigma, abs=1e-15)


def test_save_load_round_trip_vi(two_state, tmp_path):
    p = matching_pennies(two_state, block_dim=3, noise_scale=0.2, seed=5)
    path = tmp_path / "game.txt"
    save_instance(p, path)
    q = load_instance(path)
    x = p.geometry.center()
    np.testing.assert_array_equal(q.op(x), p.op(x))
    np.testing.assert_array_equal(q.x_star, p.x_star)
    assert q.is_skew()


def _finite_problem(two_state, **bad):
    """A box MinProblem (or, with Q, a ViProblem) with one argument replaced by `bad`."""
    geo = BoxGeometry(2, -1.0, 1.0)
    args = dict(A=np.eye(2), b=np.zeros(2), shifts=zero_shifts(two_state, 2), kernel=two_state,
                x_star=np.zeros(2), f_star=0.0)
    if "Q" in bad:
        return ViProblem(geo, bad["Q"], np.zeros(2), args["shifts"], two_state)
    args.update(bad)
    return MinProblem(geo, **args)


NAN_ROW = np.array([[np.nan, 0.0], [0.0, 0.0]])


@pytest.mark.parametrize("bad", [
    {"shifts": NAN_ROW}, {"b": np.array([np.nan, 0.0])}, {"x_star": np.array([np.nan, 0.0])},
    {"f_star": np.nan}, {"sigma": np.nan}, {"sigma": np.inf}, {"A": NAN_ROW},
    {"A": np.array([[np.inf, 0.0], [0.0, 1.0]])}, {"Q": NAN_ROW},
], ids=["shifts", "b", "x_star", "f_star", "sigma-nan", "sigma-inf", "A-nan", "A-inf", "Q-nan"])
def test_non_finite_problem_data_is_input_error(two_state, bad):
    # NaN passed the zero-mean and sigma comparisons; a NaN or inf matrix
    # entry escaped from eigvalsh as LinAlgError
    with pytest.raises(InputError, match="finite"):
        _finite_problem(two_state, **bad)


@pytest.mark.parametrize("edit, message", [
    (lambda text: text.replace("kind = min\n", ""), "'kind'"),
    (lambda text: text.replace("geometry.kind = box\n", ""), "'geometry.kind'"),
    (lambda text: "\n".join(l for l in text.splitlines() if not l.startswith("f_star")),
     "'f_star'"),
    (lambda text: text.replace("b = ", "b = x "), "'b'"),
    (lambda text: text.replace("A.row1 = ", "A.row1 = 1 "), "'A'"),
    (lambda text: text.replace("kind = min\n", "kind = min\nno equals sign\n"), "line 3"),
], ids=["kind", "geometry.kind", "f_star", "non-numeric", "ragged", "no-equals"])
def test_malformed_instance_file_is_input_error(two_state, tmp_path, edit, message):
    path = tmp_path / "inst.txt"
    save_instance(make_min_instance(3, two_state, seed=1), path)
    path.write_text(edit(path.read_text()))
    with pytest.raises(InputError, match=message):
        load_instance(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
def test_bad_eigenvalues_rejected(two_state, bad):
    # a NaN spectrum passed the sign check and built a NaN matrix A
    with pytest.raises(InputError, match="eigenvalues"):
        make_min_instance(3, two_state, eigenvalues=[bad, 1.0, 0.5])
