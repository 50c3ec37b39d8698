"""End-to-end acceptance gate for the whole library.

Nine statistical and exactness checks, one test each, covering the
deterministic accelerated rate, stochastic rates under Markovian noise,
averaged-deviation and truncation-bias scaling laws, estimator pairing,
the batched-vs-unbatched budget comparison, and the exact-agreement and
reduction identities.  Every test prints a single verdict line

    PASS [k/9] <what was measured>: <numbers>

before asserting, so `pytest -s tests/test_acceptance.py` gives a compact
report.  Random seeds, instances, and grids are frozen; each check also
enforces a wall-clock ceiling so the suite stays cheap enough to run on
every change.
"""

import time

import numpy as np

from markovmirror import (
    BallGeometry,
    BoxGeometry,
    ChainCursor,
    MlmcConfig,
    SimplexGeometry,
    TransitionKernel,
    batch_bias_profile,
    deviation_scaling,
    err_vi,
    lazy_for_mixing_time,
    make_lazy,
    make_min_instance,
    make_vi_instance,
    mamd_batched,
    mamd_batched_schedule,
    mamd_unbatched,
    mamd_unbatched_schedule,
    matching_pennies,
    mixing_time,
    mlmc_geometric,
    mmp_batched,
    mmp_batched_params,
    mmp_unbatched,
    mmp_unbatched_stepsize,
    random_ergodic,
    rate_fit,
    stationary,
    subopt_gap,
    unbiasedness_check,
)
from geometry_reference import prox_generic, sample

TS_GRID = [2 ** k for k in range(6, 13)]  # 64 .. 4096


def _two_state():
    return TransitionKernel(np.array([[0.9, 0.1], [0.2, 0.8]]))


def _verdict(idx, label, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} [{idx}/9] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def test_deterministic_quadratic_shows_accelerated_rate():
    # Noiseless box-constrained quadratic whose spectrum spans seven
    # decades: every horizon T finds some curvature scale it has just
    # resolved, so the final gap traces the T^-2 envelope instead of the
    # linear-rate tail of a single eigenvalue.
    t0 = time.perf_counter()
    kernel = _two_state()
    p = make_min_instance(20, kernel, noise_scale=0.0, seed=7,
                          eigenvalues=np.logspace(-7, 0, 20))
    radius = np.sqrt(p.geometry.diameter_sq())
    gaps = []
    for T in TS_GRID:
        schedule, cfg = mamd_batched_schedule(p.L, radius, p.sigma,
                                              mixing_time(kernel), T)
        rec = mamd_batched(p, schedule, ChainCursor(kernel, np.random.default_rng(0)),
                           T, cfg, np.random.default_rng(0),
                           gap_fn=lambda x: subopt_gap(p, x))
        gaps.append(rec.gap[-1])
    fit = rate_fit(np.asarray(TS_GRID, dtype=float), np.asarray(gaps))
    elapsed = time.perf_counter() - t0
    ok = -2.3 <= fit.slope <= -1.7 and elapsed < 10.0
    _verdict(1, "deterministic accelerated rate",
             ok, f"slope={fit.slope:.3f} in [-2.30,-1.70], {elapsed:.1f}s < 10s")


def test_stochastic_descent_rate_against_oracle_budget():
    # Median-of-9-seeds suboptimality against *oracle calls* (not
    # iterations) on an 8-state chain.  The multilevel batches stretch the
    # call axis by ~log2(T), which flattens the fitted slope away from the
    # iteration-axis value; the window accounts for that.
    t0 = time.perf_counter()
    kernel = make_lazy(random_ergodic(8, seed=3), 0.55)
    tau = mixing_time(kernel)
    assert 3 <= tau <= 6
    p = make_min_instance(10, kernel, noise_scale=0.7, seed=2)
    radius = np.sqrt(p.geometry.diameter_sq())
    gaps = np.empty((9, len(TS_GRID)))
    calls = np.empty_like(gaps)
    for i in range(9):
        streams = np.random.SeedSequence(i).spawn(2)
        for j, T in enumerate(TS_GRID):
            schedule, cfg = mamd_batched_schedule(p.L, radius, p.sigma, tau, T)
            rec = mamd_batched(p, schedule,
                               ChainCursor(kernel, np.random.default_rng(streams[0])),
                               T, cfg, np.random.default_rng(streams[1]),
                               gap_fn=lambda x: subopt_gap(p, x))
            gaps[i, j] = rec.gap[-1]
            calls[i, j] = rec.oracle_calls[-1]
    budget = np.median(calls, axis=0)
    fit = rate_fit(budget, np.median(gaps, axis=0))
    elapsed = time.perf_counter() - t0
    ok = (-0.7 <= fit.slope <= -0.35 and budget[-1] <= 2 ** 16
          and elapsed < 120.0)
    _verdict(2, "stochastic descent rate vs oracle calls",
             ok, f"slope={fit.slope:.3f} in [-0.70,-0.35], "
                 f"budget<=2^16 ({budget[-1]:.0f}), {elapsed:.1f}s < 120s")


def test_deterministic_game_shows_linear_mirror_prox_rate():
    # Noiseless 4x4 bilinear game on a product of simplices: the averaged
    # extragradient iterate closes the worst-case gap at ~1/T.
    t0 = time.perf_counter()
    kernel = _two_state()
    p = make_vi_instance((4, 4), kernel, noise_scale=0.0, seed=1)
    radius = np.sqrt(p.geometry.diameter_sq())
    gaps = []
    for T in TS_GRID:
        gamma, cfg = mmp_batched_params(p.L, radius, p.sigma,
                                        mixing_time(kernel), T)
        rec = mmp_batched(p, gamma, ChainCursor(kernel, np.random.default_rng(0)),
                          T, cfg, np.random.default_rng(0),
                          gap_fn=lambda x: err_vi(p, x))
        gaps.append(rec.gap[-1])
    fit = rate_fit(np.asarray(TS_GRID, dtype=float), np.asarray(gaps))
    elapsed = time.perf_counter() - t0
    ok = -1.25 <= fit.slope <= -0.8 and elapsed < 10.0
    _verdict(3, "deterministic mirror-prox rate",
             ok, f"slope={fit.slope:.3f} in [-1.25,-0.80], {elapsed:.1f}s < 10s")


def test_averaged_deviations_obey_tau_over_n_law():
    # Squared dual-norm deviation of the N-sample average decays like 1/N,
    # and slowing the chain by laziness (tau 6 -> 12) roughly doubles the
    # fitted constant; far more or less would mean the mixing time enters
    # the bound at the wrong power.
    t0 = time.perf_counter()
    base = random_ergodic(8, seed=3)
    p = make_min_instance(6, base, noise_scale=1.0, seed=0)
    dev = p.noise_deviations()
    Ns = [2 ** k for k in range(4, 13)]
    slow, _, tau_a = lazy_for_mixing_time(base, 6)
    slower, _, tau_b = lazy_for_mixing_time(base, 12)
    rep_a = deviation_scaling(slow, dev, p.geometry.norm_pair, Ns,
                              n_trials=2000, rng=np.random.default_rng(7))
    rep_b = deviation_scaling(slower, dev, p.geometry.norm_pair, Ns,
                              n_trials=2000, rng=np.random.default_rng(7))
    ratio = rep_b.constant / rep_a.constant
    elapsed = time.perf_counter() - t0
    ok = (-1.2 <= rep_a.slope <= -0.8 and -1.2 <= rep_b.slope <= -0.8
          and 1.4 <= ratio <= 3.0 and tau_b >= 2 * tau_a and elapsed < 60.0)
    _verdict(4, "averaged-deviation scaling",
             ok, f"slopes={rep_a.slope:.3f}/{rep_b.slope:.3f} in [-1.20,-0.80], "
                 f"tau {tau_a}->{tau_b} constant x{ratio:.2f} in [1.40,3.00], "
                 f"{elapsed:.1f}s < 60s")


def test_multilevel_estimator_is_unbiased_for_full_batch_mean():
    # 1e5 paired trials sharing chain states: per coordinate, the gap
    # between the multilevel combination and the full 2^jmax prefix mean
    # must sit within 4 standard errors of zero.
    t0 = time.perf_counter()
    kernel = random_ergodic(8, seed=3)
    p = make_min_instance(6, kernel, noise_scale=1.0, seed=0)
    report = unbiasedness_check(p, p.geometry.center(), MlmcConfig(B=1, M=64),
                                n_trials=100_000, rng=np.random.default_rng(42))
    elapsed = time.perf_counter() - t0
    ok = report.max_abs_ratio <= 4.0 and elapsed < 30.0
    _verdict(5, "estimator pairing, B=1 M=64",
             ok, f"max |mean diff|/SE = {report.max_abs_ratio:.2f} <= 4 over "
                 f"{report.n_trials} trials, {elapsed:.1f}s < 30s")


def test_truncation_bias_shrinks_with_cap_near_mixing_time():
    # Exact conditional bias of the capped batch mean on a chain with
    # tau ~ 45: over caps 4..256 the squared bias falls roughly like 1/M.
    # (Far past tau it would accelerate to 1/M^2; the window pins the
    # pre-asymptotic regime the estimator actually operates in.)
    t0 = time.perf_counter()
    base = random_ergodic(8, seed=7)
    p = make_min_instance(4, base, noise_scale=1.0, seed=5)
    slow, _, tau = lazy_for_mixing_time(base, 45)
    rep = batch_bias_profile(slow, p.noise_deviations(), p.geometry.norm_pair,
                             [4, 16, 64, 256])
    elapsed = time.perf_counter() - t0
    ok = -1.3 <= rep.slope <= -0.7 and tau >= 45 and elapsed < 60.0
    _verdict(6, "truncation bias^2 vs cap",
             ok, f"slope={rep.slope:.3f} in [-1.30,-0.70] at tau={tau}, "
                 f"{elapsed:.1f}s < 60s")


def test_batched_runs_beat_unbatched_at_equal_budget_on_slow_chain():
    # Same oracle budget 2^15 on a slowly mixing chain (tau = 64): the
    # multilevel-batched variants may take far fewer iterations yet must
    # reach a median final gap at least as small, in both the descent and
    # the saddle-point family.  Unbatched pays mixing-time powers in its
    # stepsize; batching trades them for a log factor.
    t0 = time.perf_counter()
    budget = 2 ** 15
    batched_T = 2048  # largest T with expected calls T*(log2 T + eps) inside budget
    kernel, _, tau = lazy_for_mixing_time(random_ergodic(8, seed=3), 64)
    assert tau >= 20

    p = make_min_instance(10, kernel, noise_scale=0.7, seed=2)
    radius = np.sqrt(p.geometry.diameter_sq())
    gap = lambda x: subopt_gap(p, x)
    min_unb, min_bat, bat_calls = [], [], []
    for seed in range(9):
        streams = np.random.SeedSequence(seed).spawn(3)
        schedule = mamd_unbatched_schedule(p.L, radius, p.sigma, tau, budget)
        rec = mamd_unbatched(p, schedule,
                             ChainCursor(kernel, np.random.default_rng(streams[0])),
                             budget, gap_fn=gap)
        min_unb.append(rec.gap[-1])
        schedule_b, cfg = mamd_batched_schedule(p.L, radius, p.sigma, tau, batched_T)
        rec_b = mamd_batched(p, schedule_b,
                             ChainCursor(kernel, np.random.default_rng(streams[1])),
                             batched_T, cfg, np.random.default_rng(streams[2]),
                             gap_fn=gap)
        min_bat.append(rec_b.gap[-1])
        bat_calls.append(rec_b.oracle_calls[-1])

    game = make_vi_instance((4, 4), kernel, noise_scale=0.7, seed=3)
    radius_v = np.sqrt(game.geometry.diameter_sq())
    gap_v = lambda x: err_vi(game, x)
    vi_unb, vi_bat = [], []
    for seed in range(9):
        streams = np.random.SeedSequence(seed).spawn(3)
        gamma = mmp_unbatched_stepsize(game.L_tilde, radius_v, game.sigma, tau,
                                       budget // 2)  # two calls per iteration
        rec = mmp_unbatched(game, gamma,
                            ChainCursor(kernel, np.random.default_rng(streams[0])),
                            budget // 2, gap_fn=gap_v)
        vi_unb.append(rec.gap[-1])
        gamma_b, cfg = mmp_batched_params(game.L, radius_v, game.sigma, tau,
                                          batched_T)
        rec_b = mmp_batched(game, gamma_b,
                            ChainCursor(kernel, np.random.default_rng(streams[1])),
                            batched_T, cfg, np.random.default_rng(streams[2]),
                            gap_fn=gap_v)
        vi_bat.append(rec_b.gap[-1])
        bat_calls.append(rec_b.oracle_calls[-1])

    m_unb, m_bat = np.median(min_unb), np.median(min_bat)
    v_unb, v_bat = np.median(vi_unb), np.median(vi_bat)
    elapsed = time.perf_counter() - t0
    ok = (m_bat <= m_unb and v_bat <= v_unb and max(bat_calls) <= budget
          and elapsed < 180.0)
    _verdict(7, "batched beats unbatched at 2^15 calls",
             ok, f"descent {m_bat:.2e} <= {m_unb:.2e}, "
                 f"game {v_bat:.2e} <= {v_unb:.2e}, "
                 f"max batched calls {max(bat_calls)} <= {budget}, "
                 f"{elapsed:.0f}s < 180s")


def test_closed_forms_agree_with_brute_force():
    # Four exactness sweeps: closed-form prox vs the generic solver,
    # stationary law and mixing time vs dense linear algebra, the
    # vertex-based gap vs a fine grid, and estimator accounting vs
    # hand-counted totals.
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)

    prox_err = 0.0
    for geo in (BoxGeometry(3, lo=-1.0, hi=2.0), BallGeometry(4, radius=1.5),
                SimplexGeometry(4), SimplexGeometry((2, 3))):
        for _ in range(8):
            x = sample(geo, rng)
            xi = rng.normal(size=geo.d)
            prox_err = max(prox_err,
                           float(np.max(np.abs(geo.prox(x, xi) - prox_generic(geo, x, xi)))))

    chain_err = 0.0
    mix_match = True
    for kernel in (_two_state(), random_ergodic(5, seed=1), random_ergodic(8, seed=7)):
        P = kernel.P
        w, vl = np.linalg.eig(P.T)
        pi = np.real(vl[:, int(np.argmin(np.abs(w - 1.0)))])
        pi = pi / pi.sum()
        chain_err = max(chain_err, float(np.max(np.abs(stationary(kernel) - pi))))
        Pt, brute = np.eye(P.shape[0]), None
        for t in range(1, 10_000):
            Pt = Pt @ P
            if 0.5 * np.max(np.abs(Pt - pi).sum(axis=1)) <= 0.25:
                brute = t
                break
        mix_match = mix_match and mixing_time(kernel) == brute
        chain_err = max(chain_err, float(np.max(np.abs(
            kernel.power_row(0, 7) - np.linalg.matrix_power(P, 7)[0]))))

    # skew operator => <F(u), x - u> is linear in u, so scanning a fine
    # grid of mixed strategies can only fall short of the vertex optimum
    vi_low, vi_high = True, True
    a = np.linspace(0.0, 1.0, 1001)
    U = np.stack([np.repeat(a, a.size), np.repeat(1 - a, a.size),
                  np.tile(a, a.size), np.tile(1 - a, a.size)], axis=1)
    for prob, x in ((matching_pennies(_two_state()), np.array([0.8, 0.2, 0.4, 0.6])),
                    (make_vi_instance((2, 2), _two_state(), noise_scale=0.0, seed=4),
                     np.array([0.6, 0.4, 0.1, 0.9]))):
        vals = np.einsum("ij,ij->i", U @ prob.Q.T + prob.c, x - U)
        best = float(vals.max())
        exact = err_vi(prob, x)
        vi_low = vi_low and exact >= best - 1e-12
        vi_high = vi_high and exact <= best + 2e-3

    kernel = random_ergodic(8, seed=3)
    p = make_min_instance(5, kernel, noise_scale=1.0, seed=2)
    cursor = ChainCursor(kernel, np.random.default_rng(1))
    counted = {"rows": 0}

    def oracle(x, z):
        counted["rows"] += np.size(z)
        return p.grad_oracle(x, z)

    cfg = MlmcConfig(B=2, M=32)
    calls = steps = 0
    lrng = np.random.default_rng(2)
    for _ in range(400):
        est = mlmc_geometric(oracle, p.geometry.center(), cursor, cfg, lrng)
        calls += est.oracle_calls
        steps += est.chain_steps
    accounting = counted["rows"] == calls and cursor.n_consumed == steps

    elapsed = time.perf_counter() - t0
    ok = (prox_err <= 1e-6 and chain_err <= 1e-9 and mix_match
          and vi_low and vi_high and accounting and elapsed < 30.0)
    _verdict(8, "closed forms vs brute force",
             ok, f"prox {prox_err:.1e} <= 1e-6, chain {chain_err:.1e} <= 1e-9, "
                 f"mixing exact {mix_match}, gap grid ok {vi_low and vi_high}, "
                 f"accounting exact {accounting}, {elapsed:.1f}s < 30s")


def test_batched_solvers_collapse_to_unbatched_without_noise():
    # With sigma = 0 and B = M = 1 the multilevel machinery must vanish:
    # same schedule, twin cursors, identical trajectories.
    t0 = time.perf_counter()
    kernel = _two_state()
    p = make_min_instance(5, kernel, noise_scale=0.0, seed=1)
    radius = np.sqrt(p.geometry.diameter_sq())
    T = 50
    schedule = mamd_unbatched_schedule(p.L, radius, 0.0, mixing_time(kernel), T)
    rec_u = mamd_unbatched(p, schedule, ChainCursor(kernel, np.random.default_rng(0)),
                           T, keep_iterates=True)
    rec_b = mamd_batched(p, schedule, ChainCursor(kernel, np.random.default_rng(0)),
                         T, MlmcConfig(B=1, M=1), np.random.default_rng(9),
                         keep_iterates=True)
    descent_dev = max(
        float(np.max(np.abs(np.asarray(rec_u.iterates[k]) - np.asarray(rec_b.iterates[k]))))
        for k in range(len(rec_u.iterates)))

    game = make_vi_instance((3, 3), kernel, noise_scale=0.0, seed=2)
    radius_v = np.sqrt(game.geometry.diameter_sq())
    gamma = mmp_unbatched_stepsize(game.L_tilde, radius_v, 0.0, mixing_time(kernel), T)
    rec_u = mmp_unbatched(game, gamma, ChainCursor(kernel, np.random.default_rng(0)),
                          T, avg_start=0, keep_iterates=True)
    rec_b = mmp_batched(game, gamma, ChainCursor(kernel, np.random.default_rng(0)),
                        T, MlmcConfig(B=1, M=1), np.random.default_rng(9),
                        keep_iterates=True)
    game_dev = max(
        float(np.max(np.abs(np.asarray(rec_u.iterates[k]) - np.asarray(rec_b.iterates[k]))))
        for k in range(len(rec_u.iterates)))
    game_dev = max(game_dev, float(np.max(np.abs(rec_u.x_out - rec_b.x_out))))

    elapsed = time.perf_counter() - t0
    ok = descent_dev <= 1e-12 and game_dev <= 1e-12 and elapsed < 5.0
    _verdict(9, "batched reduces to unbatched at M=1",
             ok, f"descent dev {descent_dev:.1e}, game dev {game_dev:.1e} "
                 f"<= 1e-12, {elapsed:.1f}s < 5s")
