import numpy as np
import pytest

from markovmirror import (
    BIAS_SLOPE_WINDOW,
    DEVIATION_SLOPE_WINDOW,
    BoxGeometry,
    GeometryError,
    InputError,
    MinProblem,
    MlmcConfig,
    StatisticsError,
    TransitionKernel,
    ViProblem,
    batch_bias_profile,
    bootstrap_rate_ci,
    deviation_scaling,
    err_vi,
    estimator_moments,
    lazy_for_mixing_time,
    make_min_instance,
    make_vi_instance,
    matching_pennies,
    mixing_time,
    rate_fit,
    stationary,
    subopt_gap,
    unbiasedness_check,
    weak_vi_gap,
)
from markovmirror import chain, validation
from markovmirror.estimators import _draw_level, _eval_rows, combine_levels


# ---------------------------------------------------------------------------
# gap metrics


def test_subopt_gap_values(two_state):
    p = make_min_instance(4, two_state, noise_scale=0.0, seed=1)
    assert subopt_gap(p, p.x_star) == 0.0
    x = p.geometry.sample(np.random.default_rng(2))
    assert subopt_gap(p, x) == pytest.approx(p.f(x) - p.f_star, abs=1e-12)
    assert subopt_gap(p, x) >= 0.0


def test_subopt_gap_requires_reference(two_state):
    geo = BoxGeometry(2, -1.0, 1.0)
    p = MinProblem(geo, np.eye(2), np.zeros(2), np.zeros((2, 2)), two_state)
    with pytest.raises(InputError):
        subopt_gap(p, geo.center())


def test_subopt_gap_flags_bad_reference(two_state):
    geo = BoxGeometry(2, -1.0, 1.0)
    # claimed optimum above the true minimum: gaps go negative
    p = MinProblem(geo, np.eye(2), np.zeros(2), np.zeros((2, 2)), two_state,
                   f_star=1.0)
    with pytest.raises(StatisticsError):
        subopt_gap(p, np.zeros(2))


def test_err_vi_matches_grid_search(two_state):
    p = matching_pennies(two_state)
    x = np.array([0.8, 0.2, 0.4, 0.6])
    exact = err_vi(p, x)
    # brute force over u = ((a,1-a),(b,1-b)) on a 1e-3 grid, one row of U per (a, b)
    a = np.linspace(0.0, 1.0, 1001)
    U = np.stack([np.repeat(a, a.size), np.repeat(1 - a, a.size),
                  np.tile(a, a.size), np.tile(1 - a, a.size)], axis=1)
    best = np.einsum("ij,ij->i", U @ p.Q.T, x - U).max()
    assert exact >= best - 1e-12
    assert exact <= best + 2e-3


def test_err_vi_zero_at_equilibrium(two_state):
    p = matching_pennies(two_state)
    assert err_vi(p, p.x_star) <= 1e-12
    assert err_vi(p, np.array([1.0, 0.0, 0.5, 0.5])) > 0.1


def test_err_vi_rejects_non_skew(two_state):
    geo = BoxGeometry(1, -1.0, 1.0)
    p = ViProblem(geo, np.array([[1.0]]), np.zeros(1), np.zeros((2, 1)), two_state)
    with pytest.raises(InputError):
        err_vi(p, geo.center())


def test_weak_gap_with_all_vertices_equals_exact(two_state):
    # skewness makes <F(u), x - u> linear in u, so probing every vertex
    # recovers the exact error for a single run
    p = matching_pennies(two_state, block_dim=3, seed=2)
    x = p.geometry.renormalize(np.array([0.5, 0.3, 0.2, 0.1, 0.6, 0.3]))
    assert weak_vi_gap(p, x, probes=p.geometry.vertices()) == pytest.approx(
        err_vi(p, x), abs=1e-12
    )


def test_weak_gap_probe_fallback_only_on_geometry_error(two_state, monkeypatch):
    p = matching_pennies(two_state)
    x = p.geometry.renormalize(np.array([0.8, 0.2, 0.5, 0.5]))
    rng = np.random.default_rng(0)
    sampled = weak_vi_gap(p, x, probes=[p.geometry.sample(rng) for _ in range(64)])

    def capped():
        raise GeometryError("vertex enumeration capped")

    monkeypatch.setattr(p.geometry, "vertices", capped)
    assert weak_vi_gap(p, x) == sampled

    def broken():
        raise ZeroDivisionError("a fault inside vertex enumeration")

    monkeypatch.setattr(p.geometry, "vertices", broken)
    with pytest.raises(ZeroDivisionError):
        weak_vi_gap(p, x)


def test_weak_gap_averages_across_runs(two_state):
    p = matching_pennies(two_state)
    xs = np.array([[0.8, 0.2, 0.5, 0.5], [0.2, 0.8, 0.5, 0.5]])
    probes = p.geometry.vertices()
    got = weak_vi_gap(p, xs, probes=probes)
    manual = max(
        np.mean([(p.Q @ u) @ (x - u) for x in xs]) for u in probes
    )
    assert got == pytest.approx(manual, abs=1e-12)
    # the average profile is uniform here, so the averaged gap vanishes
    assert got <= 1e-12
    assert weak_vi_gap(p, xs[0], probes=probes) > 0.1


# ---------------------------------------------------------------------------
# deviation scaling


def test_deviation_scaling_iid_matches_closed_form(rng):
    # rows all equal to pi: the chain is i.i.d. and E||avg||^2 = E||e||^2 / N
    pi = np.array([0.3, 0.5, 0.2])
    kernel = TransitionKernel(np.tile(pi, (3, 1)))
    dev = np.array([[1.0, 0.0], [-0.2, 0.5], [-1.0, -1.25]])
    dev -= pi @ dev
    geo = BoxGeometry(2, -1.0, 1.0)
    rep = deviation_scaling(kernel, dev, geo.norm_pair, [8, 32, 128], 4000, rng)
    per_sample = pi @ (np.linalg.norm(dev, axis=1) ** 2)
    for n, m, s in zip(rep.N, rep.mean, rep.se):
        assert abs(m - per_sample / n) <= 4 * s
    assert DEVIATION_SLOPE_WINDOW[0] <= rep.slope <= DEVIATION_SLOPE_WINDOW[1]


def test_deviation_scaling_markov_chain(dense8, rng):
    p = make_min_instance(4, dense8, noise_scale=1.0, seed=3)
    rep = deviation_scaling(dense8, p.noise_deviations(), p.geometry.norm_pair,
                            [16, 64, 256], 1500, rng)
    assert DEVIATION_SLOPE_WINDOW[0] <= rep.slope <= DEVIATION_SLOPE_WINDOW[1]
    assert rep.constant > 0
    assert np.all(rep.se > 0)


def test_deviation_constant_grows_with_mixing_time(dense8, rng):
    p = make_min_instance(4, dense8, noise_scale=1.0, seed=3)
    dev = p.noise_deviations()
    base_tau = mixing_time(dense8)
    slow, _, slow_tau = lazy_for_mixing_time(dense8, 2 * base_tau)
    fast = deviation_scaling(dense8, dev, p.geometry.norm_pair,
                             [32, 128, 512], 2000, rng)
    lazy = deviation_scaling(slow, dev, p.geometry.norm_pair,
                             [32, 128, 512], 2000, rng)
    assert slow_tau >= 2 * base_tau
    assert lazy.constant / fast.constant > 1.2


def per_step_deviation_scaling(kernel, deviations, norm_pair, Ns, n_trials, rng):
    """Reference: one `kernel._move` call and one cell check per chain step."""
    centered = deviations - stationary(kernel) @ deviations
    states = kernel.sample_stationary(rng, n_trials)
    sums = np.zeros((n_trials, deviations.shape[1]))
    mean, se = [], []
    for step in range(1, max(Ns) + 1):
        states = kernel._move(states, rng.random(n_trials))
        sums += centered[states]
        if step in Ns:
            vals = norm_pair.dual_norm(sums / step, axis=1) ** 2
            mean.append(vals.mean())
            se.append(vals.std(ddof=1) / np.sqrt(n_trials))
    return np.array(mean), np.array(se)


@pytest.mark.parametrize("budget, n_trials", [
    (validation._ROW_BUDGET, 300),  # 13 steps per rng call, 32 = 2 * 13 + 6
    (validation._ROW_BUDGET, 5000),  # more trials than the budget: one step per call
    (7, 3),  # 2 steps per call: the cell at N = 9 falls inside a chunk
])
def test_deviation_scaling_equals_per_step_loop(dense8, monkeypatch, budget, n_trials):
    monkeypatch.setattr(validation, "_ROW_BUDGET", budget)
    p = make_min_instance(3, dense8, noise_scale=1.0, seed=4)
    Ns = [4, 8, 9, 32]
    got_rng, want_rng = np.random.default_rng(11), np.random.default_rng(11)
    rep = deviation_scaling(dense8, p.noise_deviations(), p.geometry.norm_pair, Ns,
                            n_trials, got_rng)
    mean, se = per_step_deviation_scaling(dense8, p.noise_deviations(), p.geometry.norm_pair,
                                          Ns, n_trials, want_rng)
    np.testing.assert_array_equal(rep.mean, mean)
    np.testing.assert_array_equal(rep.se, se)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_deviation_scaling_input_checks(dense8, rng):
    dev = np.zeros((8, 2))
    geo = BoxGeometry(2, -1.0, 1.0)
    with pytest.raises(StatisticsError):
        deviation_scaling(dense8, dev, geo.norm_pair, [4, 8], 1, rng)  # 1 trial
    with pytest.raises(InputError):
        deviation_scaling(dense8, dev, geo.norm_pair, [4], 10, rng)  # 1 cell
    with pytest.raises(StatisticsError):
        # uncentered deviations
        deviation_scaling(dense8, np.ones((8, 2)), geo.norm_pair, [4, 8], 10, rng)
    with pytest.raises(StatisticsError):
        # centered but identically zero: nothing to fit
        deviation_scaling(dense8, dev, geo.norm_pair, [4, 8], 10, rng)


# ---------------------------------------------------------------------------
# batch-mean bias


@pytest.mark.parametrize("sizes", [[4, 4, 16, 64], [16, 0], [-4, 8]])
def test_sample_sizes_must_be_distinct_and_positive(dense8, rng, sizes):
    # both measurements share one check; a repeated size used to leave an
    # unwritten np.empty slot in the bias profile
    p = make_min_instance(4, dense8, noise_scale=1.0, seed=5)
    dev, norm_pair = p.noise_deviations(), p.geometry.norm_pair
    with pytest.raises(InputError, match="distinct positive lengths"):
        batch_bias_profile(dense8, dev, norm_pair, sizes)
    with pytest.raises(InputError, match="distinct positive lengths"):
        deviation_scaling(dense8, dev, norm_pair, sizes, 10, rng)


def test_bias_profile_fast_chain_decays_quadratically(dense8):
    p = make_min_instance(4, dense8, noise_scale=1.0, seed=5)
    rep = batch_bias_profile(dense8, p.noise_deviations(), p.geometry.norm_pair,
                             [4, 16, 64, 256])
    # far past the mixing time the exact conditional bias^2 drops ~ N^-2
    assert -2.5 <= rep.slope <= -1.6
    assert np.all(np.diff(rep.bias_sq) < 0)


def test_bias_profile_slow_chain_sits_in_window(dense8):
    p = make_min_instance(4, dense8, noise_scale=1.0, seed=5)
    slow, _, tau = lazy_for_mixing_time(dense8, 45)
    rep = batch_bias_profile(slow, p.noise_deviations(), p.geometry.norm_pair,
                             [4, 16, 64, 256])
    assert tau >= 45
    # batch lengths comparable to tau: the pre-asymptotic ~1/N regime
    assert BIAS_SLOPE_WINDOW[0] <= rep.slope <= BIAS_SLOPE_WINDOW[1]
    # doubling N near tau roughly halves the bias^2; the ratio then climbs
    # toward the asymptotic factor 4 once N outruns the mixing time
    doubling = batch_bias_profile(slow, p.noise_deviations(),
                                  p.geometry.norm_pair, [32, 64, 128, 256])
    ratios = doubling.bias_sq[:-1] / doubling.bias_sq[1:]
    assert 1.4 <= ratios[0] <= 2.8
    assert np.all(np.diff(ratios) > 0)
    assert ratios[-1] <= 4.1


def test_bias_profile_is_exact_for_two_state(two_state):
    # hand-checkable: with deviations +/- v the conditional mean after
    # i steps is (lambda_2)^i * v * sign, lambda_2 = 0.7
    v = np.array([1.0, 0.0])
    pi = stationary(two_state)
    dev = np.outer([1.0, -2.0], v)
    dev -= pi @ dev
    geo = BoxGeometry(2, -1.0, 1.0)
    rep = batch_bias_profile(two_state, dev, geo.norm_pair, [1, 2])
    lam = 0.7
    # per-start bias after one step: lam * dev[z]; N=1 cell is its pi-mean
    expect1 = pi @ (np.linalg.norm(lam * dev, axis=1) ** 2)
    expect2 = pi @ (np.linalg.norm((lam + lam**2) / 2 * dev, axis=1) ** 2)
    np.testing.assert_allclose(rep.bias_sq, [expect1, expect2], rtol=1e-10)


# ---------------------------------------------------------------------------
# estimator diagnostics


def test_estimator_moments_accounting(dense8, rng):
    p = make_min_instance(4, dense8, noise_scale=1.0, seed=6)
    cfg = MlmcConfig(B=2, M=16)
    rep = estimator_moments(p, p.geometry.center(), cfg, 8000, rng)
    assert rep.n_trials == 8000
    assert rep.avg_calls == pytest.approx(cfg.expected_oracle_calls(), rel=0.05)
    assert rep.avg_steps >= rep.avg_calls
    assert rep.dev_sq_mean > 0 and rep.dev_sq_se > 0
    # mean of the estimates stays near the mean-field gradient
    err = p.geometry.norm_pair.dual_norm(rep.mean - p.grad(p.geometry.center()))
    assert err <= 6 * np.sqrt(rep.dev_sq_mean / rep.n_trials)


def test_unbiasedness_pairing(dense8, rng):
    p = make_min_instance(4, dense8, noise_scale=1.0, seed=6)
    rep = unbiasedness_check(p, p.geometry.center(), MlmcConfig(B=1, M=64),
                             4000, rng)
    assert rep.max_abs_ratio <= 4.0
    assert rep.mean_diff.shape == (4,)


def per_trial_unbiasedness(oracle, x, config, n_trials, cursor, rng_level):
    """Reference: one level draw, one `advance` and one oracle call per trial."""
    n_pref = (1 << config.max_level) * config.B
    diffs = np.empty((n_trials, x.size))
    for i in range(n_trials):
        level = _draw_level(rng_level)
        vals = _eval_rows(oracle, x, cursor.advance(n_pref))
        diffs[i] = combine_levels(vals, level, config.B, config.M) - vals.mean(axis=0)
    mean = diffs.mean(axis=0)
    se = diffs.std(axis=0, ddof=1) / np.sqrt(n_trials)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(se > 0, np.abs(mean) / se, np.where(mean == 0, 0.0, np.inf))
    return mean, se, float(np.max(ratio))


def _capture_streams(monkeypatch):
    """Record the cursor and level generator each unbiasedness_check call makes."""
    made = []

    def spy(*args):
        made.append(streams(*args))
        return made[-1]

    streams = validation._trial_streams
    monkeypatch.setattr(validation, "_trial_streams", spy)
    return made


@pytest.mark.parametrize("kind", ["min", "vi"])
@pytest.mark.parametrize("B, M, n_trials", [
    (1, 64, 37),  # fewer trials than one block of 64
    (1, 64, 150),  # two full blocks and a part
    (2, 16, 300),
    (3, 64, 70),
    (4, 1, 1500),  # M = 1 and B > 1: every level is truncated
    (1, 1, 9000),  # blocks of 4096 single-state trials
])
def test_blocked_unbiasedness_equals_per_trial_loop(dense8, monkeypatch, kind, B, M, n_trials):
    p = (make_min_instance(4, dense8, noise_scale=1.0, seed=6) if kind == "min"
         else make_vi_instance((2, 3), dense8, noise_scale=0.7, seed=3))
    x = p.geometry.center()
    config = MlmcConfig(B=B, M=M)
    made = _capture_streams(monkeypatch)
    rep = unbiasedness_check(p, x, config, n_trials, np.random.default_rng(5))
    n_trials, cursor, rng_level, oracle = validation._trial_streams(
        p, n_trials, np.random.default_rng(5))
    mean, se, ratio = per_trial_unbiasedness(oracle, x, config, n_trials, cursor, rng_level)
    np.testing.assert_array_equal(rep.mean_diff, mean)
    np.testing.assert_array_equal(rep.se_diff, se)
    assert rep.max_abs_ratio == ratio
    _, got_cursor, got_level, _ = made[0]
    assert got_cursor.n_consumed == cursor.n_consumed
    assert got_cursor.state == cursor.state
    assert got_cursor.rng.bit_generator.state == cursor.rng.bit_generator.state
    assert got_level.bit_generator.state == rng_level.bit_generator.state


@pytest.mark.parametrize("B, M, n_trials", [(1, 64, 200), (3, 16, 200), (1, 8192, 3)])
def test_unbiasedness_advance_stays_within_row_budget(dense8, monkeypatch, B, M, n_trials):
    p = make_min_instance(3, dense8, noise_scale=1.0, seed=8)
    config = MlmcConfig(B=B, M=M)
    n_pref = (1 << config.max_level) * B
    steps = []
    advance = chain.ChainCursor.advance

    def counting(cursor, n):
        steps.append(n)
        return advance(cursor, n)

    monkeypatch.setattr(chain.ChainCursor, "advance", counting)
    unbiasedness_check(p, p.geometry.center(), config, n_trials, np.random.default_rng(1))
    per_block = max(1, validation._ROW_BUDGET // n_pref)
    assert sum(steps) == n_trials * n_pref
    assert len(steps) == -(-n_trials // per_block)
    # whole trials per call; a trial longer than the budget is read alone
    assert all(n % n_pref == 0 and n <= max(validation._ROW_BUDGET, n_pref) for n in steps)


def test_unbiasedness_zero_noise_is_degenerate_zero(dense8, rng):
    # identical oracle rows: the pairing differences collapse to rounding
    p = make_min_instance(3, dense8, noise_scale=0.0, seed=7)
    rep = unbiasedness_check(p, p.geometry.center(), MlmcConfig(B=1, M=8), 50, rng)
    assert np.max(np.abs(rep.mean_diff)) <= 1e-15
    assert rep.max_abs_ratio <= 4.0


def test_diagnostics_require_two_trials(dense8, rng):
    p = make_min_instance(3, dense8, noise_scale=1.0, seed=8)
    with pytest.raises(StatisticsError):
        unbiasedness_check(p, p.geometry.center(), MlmcConfig(B=1, M=8), 1, rng)
    with pytest.raises(StatisticsError):
        estimator_moments(p, p.geometry.center(), MlmcConfig(B=1, M=8), 1, rng)


# ---------------------------------------------------------------------------
# rate fitting


def test_rate_fit_recovers_synthetic_slopes():
    budgets = np.array([64.0, 256.0, 1024.0, 4096.0])
    for target in (-2.0, -0.5):
        fit = rate_fit(budgets, 3.0 * budgets**target)
        assert fit.slope == pytest.approx(target, abs=1e-12)
        assert fit.n_used == 4 and fit.n_excluded == 0 and not fit.floored
        assert fit.ci is None


def test_rate_fit_excludes_floored_cells():
    budgets = np.array([1.0, 2.0, 4.0, 8.0])
    gaps = np.array([1.0, 0.25, 1e-15, 0.0])
    fit = rate_fit(budgets, gaps)
    assert fit.n_used == 2 and fit.n_excluded == 2 and fit.floored
    assert fit.slope == pytest.approx(-2.0, abs=1e-12)
    with pytest.raises(StatisticsError):
        rate_fit(budgets, np.zeros(4))
    with pytest.raises(InputError):
        rate_fit(budgets, np.ones(3))


@pytest.mark.parametrize("budgets, gaps, error, message", [
    ([0.0, 2.0, 4.0], [1.0, 0.5, 0.2], InputError, "budget must be"),
    ([-1.0, 2.0, 4.0], [1.0, 0.5, 0.2], InputError, "budget must be"),
    ([np.inf, 2.0, 4.0], [1.0, 0.5, 0.2], InputError, "budget must be"),
    ([np.nan, 2.0, 4.0], [1.0, 0.5, 0.2], InputError, "budget must be"),
    ([1.0, 2.0, 4.0], [np.nan, 0.5, 0.2], InputError, "gap must be"),
    ([1.0, 2.0, 4.0], [-0.5, 0.5, 0.2], InputError, "gap must be"),
    ([1.0, 2.0, 4.0], [np.inf, 0.5, 0.2], InputError, "gap must be"),
    ([4.0, 4.0, 4.0], [1.0, 0.5, 0.2], StatisticsError, "fewer than 2 distinct budgets"),
    ([4.0, 4.0, 8.0], [1.0, 0.5, 0.0], StatisticsError, "fewer than 2 distinct budgets"),
], ids=["budget-zero", "budget-negative", "budget-inf", "budget-nan", "gap-nan", "gap-negative",
        "gap-inf", "one-budget", "one-budget-above-floor"])
def test_rate_fit_bad_input_is_rejected(budgets, gaps, error, message):
    # a budget <= 0 or inf reached np.log and np.polyfit (LinAlgError), a NaN
    # gap counted as a floored cell, and equal budgets gave a made-up slope
    with pytest.raises(error, match=message):
        rate_fit(budgets, gaps)


def test_bootstrap_ci_covers_point(rng):
    budgets = np.array([64.0, 256.0, 1024.0])
    base = 2.0 * budgets**-2.0
    gap_matrix = base * np.exp(rng.normal(0, 0.1, size=(9, 3)))
    fit = bootstrap_rate_ci(budgets, gap_matrix, rng=rng)
    assert fit.ci is not None
    lo, hi = fit.ci
    assert lo <= fit.slope <= hi
    assert lo <= -2.0 <= hi


def test_bootstrap_ci_comes_from_200_seed_resamples(rng):
    budgets = np.array([64.0, 256.0, 1024.0])
    gap_matrix = 2.0 * budgets**-2.0 * np.exp(rng.normal(0, 0.1, size=(5, 3)))
    draws = np.random.default_rng(3)
    fit = bootstrap_rate_ci(budgets, gap_matrix, rng=draws)
    ref = np.random.default_rng(3)
    slopes = [rate_fit(budgets, np.median(gap_matrix[ref.integers(0, 5, size=5)], axis=0)).slope
              for _ in range(200)]
    assert fit.ci == tuple(np.percentile(slopes, [2.5, 97.5]))
    # no draw past the 200th resample
    assert draws.random() == ref.random()
