import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from markovmirror import (
    ChainCursor,
    ErgodicityError,
    InputError,
    TransitionKernel,
    diagnose,
    lazy_for_mixing_time,
    make_lazy,
    mixing_time,
    random_ergodic,
    stationary,
)
from markovmirror import chain


def eigen_stationary(P):
    """Independent oracle: left eigenvector of eigenvalue 1."""
    w, vl = np.linalg.eig(P.T)
    i = int(np.argmin(np.abs(w - 1.0)))
    pi = np.real(vl[:, i])
    return pi / pi.sum()


def brute_mixing_time(P, threshold=0.25):
    """Independent oracle: explicit matrix powers."""
    pi = eigen_stationary(P)
    Pt = np.eye(P.shape[0])
    for t in range(1, 10_000):
        Pt = Pt @ P
        if 0.5 * np.max(np.abs(Pt - pi).sum(axis=1)) <= threshold:
            return t
    raise AssertionError("no mixing within 10k steps")


# ---------------------------------------------------------------------------
# kernel construction


def test_kernel_validation_rejects_bad_rows():
    with pytest.raises(InputError):
        TransitionKernel(np.array([[0.9, 0.2], [0.2, 0.8]]))  # row sum 1.1
    with pytest.raises(InputError):
        TransitionKernel(np.array([[1.1, -0.1], [0.2, 0.8]]))  # negative entry
    with pytest.raises(InputError):
        TransitionKernel(np.ones((2, 3)) / 3.0)  # not square


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kernel_with_non_finite_entries_rejected(bad):
    # NaN passes sign and row-sum tests, and stationary would then run to its product cap
    with pytest.raises(InputError, match="finite"):
        TransitionKernel(np.array([[bad, 1.0], [0.5, 0.5]]))


def test_kernel_matrix_is_readonly(two_state):
    with pytest.raises(ValueError):
        two_state.P[0, 0] = 0.5


def test_periodic_kernel_fails_ergodicity_checks():
    flip = TransitionKernel(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert not flip.is_primitive()
    with pytest.raises(ErgodicityError):
        flip.ensure_ergodic()
    with pytest.raises(ErgodicityError):
        diagnose(flip)


@pytest.mark.parametrize("n", [257, 513])
def test_primitivity_check_does_not_overflow(n):
    # (J - I)/(n - 1) is ergodic; counting paths in uint8 wrapped at 256 and read it as not
    kernel = TransitionKernel((np.ones((n, n)) - np.eye(n)) / (n - 1))
    assert kernel.is_primitive()
    np.testing.assert_allclose(stationary(kernel), np.full(n, 1.0 / n), atol=1e-15)


def test_reducible_kernel_rejected():
    block = TransitionKernel(np.eye(3))
    assert not block.is_primitive()


# ---------------------------------------------------------------------------
# stationary distribution


def test_stationary_two_state(two_state):
    np.testing.assert_allclose(stationary(two_state), [2 / 3, 1 / 3], atol=1e-10)


def test_stationary_uniform_three_state():
    k = TransitionKernel(np.full((3, 3), 1 / 3))
    np.testing.assert_allclose(stationary(k), [1 / 3, 1 / 3, 1 / 3], atol=1e-12)


def test_stationary_matches_eigen_oracle(dense8):
    pi = stationary(dense8)
    np.testing.assert_allclose(pi, eigen_stationary(dense8.P), atol=1e-9)
    # fixed-point residual contract
    assert np.abs(pi @ dense8.P - pi).sum() <= 1e-10
    assert pi.sum() == pytest.approx(1.0, abs=1e-12)


def per_product_stationary(P):
    """Reference: power iteration testing the l1 step change after every product.

    Returns the normalized law and the number of products taken, or
    (None, budget) if it does not settle within `chain._MAX_POWER_STEPS`.
    """
    budget = chain._MAX_POWER_STEPS
    mu = np.full(P.shape[0], 1.0 / P.shape[0])
    for k in range(1, budget + 1):
        mu, prev = mu @ P, mu
        if np.abs(mu - prev).sum() <= 1e-12:
            return mu / mu.sum(), k
    return None, budget


def random_kernel(n, seed):
    raw = np.random.default_rng(seed).uniform(size=(n, n)) ** 3 + 1e-3
    return TransitionKernel(raw / raw.sum(axis=1, keepdims=True))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 100), seed=st.integers(0, 2**32 - 1),
       alpha=st.sampled_from([0.0, 0.5, 0.99, 0.9999]))
@example(n=2, seed=2962, alpha=0.9999)  # spectral gap 3.7e-6: no loop settles within the budget
def test_blocked_stationary_equals_per_product_loop(n, seed, alpha):
    kernel = make_lazy(random_kernel(n, seed), alpha)
    want, _ = per_product_stationary(kernel.P)
    pi = stationary(kernel)
    if want is None:
        # too slow for the budget: GTH's law, to far inside the 1e-10 residual contract
        assert np.abs(pi @ kernel.P - pi).sum() <= 1e-14
    else:
        np.testing.assert_array_equal(pi, want)


@pytest.mark.parametrize("block", [1, 2, 5, 4096])
def test_stationary_block_sizes_do_not_move_pi(dense8, monkeypatch, block):
    monkeypatch.setattr(chain, "_BLOCK", block)
    kernel = make_lazy(dense8, 0.9)
    np.testing.assert_array_equal(stationary(kernel), per_product_stationary(kernel.P)[0])


def test_stationary_product_cap_is_exact(dense8, monkeypatch):
    P = make_lazy(dense8, 0.99).P
    want, steps = per_product_stationary(P)
    monkeypatch.setattr(chain, "_MAX_POWER_STEPS", steps)
    # settles on the last product of the budget
    np.testing.assert_array_equal(stationary(TransitionKernel(P)), want)
    monkeypatch.setattr(chain, "_MAX_POWER_STEPS", steps - 1)
    np.testing.assert_array_equal(stationary(TransitionKernel(P)), chain._gth(P))


def exact_stationary(P):
    """Reference: exact rational solve of pi Q = 0, sum(pi) = 1, for the generator of P.

    Convention: Q's off-diagonal entries are P's, and its diagonal is
    minus the off-diagonal row sum, so Q's rows sum to 0 exactly.  That
    is the chain GTH solves; the float rows of P sum to 1 only within
    2.2e-16, and on an off-diagonal mass of 1e-4 the naive P - I moves
    pi by about 2e-13.
    """
    n = P.shape[0]
    Q = [[Fraction(float(P[i, j])) if j != i else Fraction(0) for j in range(n)]
         for i in range(n)]
    for i in range(n):
        Q[i][i] = -sum(Q[i])
    # Q^T pi = 0 with its last equation replaced by the normalization, as [A | b]
    A = [[Q[j][i] for j in range(n)] + [Fraction(0)] for i in range(n - 1)]
    A.append([Fraction(1)] * (n + 1))
    for c in range(n):  # Gauss-Jordan elimination, exact
        p = next(r for r in range(c, n) if A[r][c] != 0)
        A[c], A[p] = A[p], A[c]
        for r in range(n):
            if r != c and A[r][c] != 0:
                f = A[r][c] / A[c][c]
                A[r] = [a - f * b for a, b in zip(A[r], A[c])]
    return [A[i][n] / A[i][i] for i in range(n)]


@pytest.mark.parametrize("kernel", [
    make_lazy(random_ergodic(8, seed=3), 0.9999),
    make_lazy(random_kernel(2, 2962), 0.9999),
], ids=["lazy8", "pinned2"])
def test_gth_branch_matches_exact_solve(kernel):
    pi = stationary(kernel)
    np.testing.assert_array_equal(pi, chain._gth(kernel.P))  # the chain is past the budget
    err = sum(abs(Fraction(float(p)) - r) for p, r in zip(pi, exact_stationary(kernel.P)))
    assert err <= Fraction(1, 10**14)  # at least 14 digits in l1


def test_stationary_rejects_a_nan_law():
    # primitive, but too slow for the budget, and GTH's pivot 5e-324 overflows the division
    kernel = TransitionKernel([[1 - 1e-6, 1e-6], [5e-324, 1.0]])
    with pytest.raises(ErgodicityError, match="not finite"):
        stationary(kernel)


def _bisection_candidates(base, target, monkeypatch, bisect=lazy_for_mixing_time):
    """Every kernel `bisect(base, target)` asks `stationary` about."""
    seen = []
    real = chain.stationary
    with monkeypatch.context() as m:
        m.setattr(chain, "stationary", lambda kernel: seen.append(kernel.P) or real(kernel))
        bisect(base, target)
    return seen


def test_frozen_chains_settle_well_inside_the_budget(monkeypatch):
    # every frozen number (perfbench reference, golden rows, cli_frozen.json) comes from
    # power iteration on these chains, so a cut to the budget must not reach them
    chains = []
    for target in (12, 48, 64):  # chain-stats and check 7
        chains += _bisection_candidates(random_ergodic(8, seed=3), target, monkeypatch)
    chains += [make_lazy(random_ergodic(8, seed=0), 0.99).P]  # cli-sweep
    for n, seed, alpha in [(6, 1, 0.0), (5, 2, 0.0), (4, 0, 0.0), (6, 1, 0.9), (5, 2, 0.5),
                           (6, 4, 0.0)]:  # the frozen CLI cases and the golden runs
        kernel = random_ergodic(n, seed=seed)
        chains.append((make_lazy(kernel, alpha) if alpha else kernel).P)
    for P in chains:
        want, steps = per_product_stationary(P)
        assert want is not None and steps <= chain._MAX_POWER_STEPS // 4


# ---------------------------------------------------------------------------
# mixing diagnostics


def test_mixing_time_two_state(two_state):
    assert mixing_time(two_state) == 3
    assert mixing_time(two_state) == brute_mixing_time(two_state.P)


def test_mixing_time_uniform_rows():
    k = TransitionKernel(np.full((4, 4), 0.25))
    assert mixing_time(k) == 1


def test_mixing_time_matches_brute_force(dense8):
    assert mixing_time(dense8) == brute_mixing_time(dense8.P)


def test_tv_scan_runs_past_the_power_budget():
    # the symmetric flip chain has TV(t) = (1 - 2 eps)^t / 2, so tau is known in closed form
    eps = 1e-5
    tau = math.ceil(math.log(0.5) / math.log1p(-2 * eps))
    assert tau > chain._MAX_POWER_STEPS
    assert mixing_time(TransitionKernel([[1 - eps, eps], [eps, 1 - eps]])) == tau


def test_diagnose_curve_properties(two_state):
    diag = diagnose(two_state)
    assert diag.tau_mix == 3
    curve = np.asarray(diag.tv_curve)
    assert len(curve) >= 2 * diag.tau_mix
    assert np.all(np.diff(curve) <= 1e-12)  # nonincreasing
    # submultiplicativity: d(s+t) <= dbar(s) dbar(t) and dbar <= 2 d
    assert curve[2 * diag.tau_mix - 1] <= 4 * curve[diag.tau_mix - 1] ** 2 + 1e-12


def test_diagnose_curve_runs_to_twice_tau(dense8):
    diag = diagnose(dense8)
    assert diag.tau_mix == mixing_time(dense8)
    assert len(diag.tv_curve) == 2 * diag.tau_mix
    Pt, pi = np.eye(8), stationary(dense8)
    for tv in diag.tv_curve:
        Pt = Pt @ dense8.P
        assert tv == pytest.approx(0.5 * np.max(np.abs(Pt - pi).sum(axis=1)), abs=1e-14)


def test_diagnose_pi_consistency(dense8):
    diag = diagnose(dense8)
    np.testing.assert_allclose(diag.pi, stationary(dense8), atol=1e-12)


# ---------------------------------------------------------------------------
# laziness


def test_make_lazy_alpha_zero_is_identity(two_state):
    same = make_lazy(two_state, 0.0)
    np.testing.assert_allclose(same.P, two_state.P, atol=0)


def test_make_lazy_second_eigenvalue(two_state):
    # alpha + (1 - alpha) * lambda_2: 0.5 + 0.5 * 0.7 = 0.85
    lazy = make_lazy(two_state, 0.5)
    eig = np.sort(np.linalg.eigvals(lazy.P).real)
    np.testing.assert_allclose(eig[0], 0.85, atol=1e-12)
    assert mixing_time(lazy) >= mixing_time(two_state)


def test_make_lazy_preserves_stationary(dense8):
    lazy = make_lazy(dense8, 0.7)
    np.testing.assert_allclose(stationary(lazy), stationary(dense8), atol=1e-9)


def test_make_lazy_alpha_near_one_rows_near_identity(two_state):
    lazy = make_lazy(two_state, 0.999)
    assert np.min(np.diag(lazy.P)) > 0.99


def test_make_lazy_rejects_bad_alpha(two_state):
    for alpha in (-0.1, 1.0, 1.5):
        with pytest.raises(InputError):
            make_lazy(two_state, alpha)


def test_lazy_for_mixing_time_hits_target(dense8):
    lazy, alpha, tau = lazy_for_mixing_time(dense8, 25)
    assert tau >= 25
    assert 0.0 < alpha < 1.0
    assert mixing_time(lazy) == tau
    # already-slow chains come back unchanged
    same, alpha0, tau0 = lazy_for_mixing_time(lazy, 5)
    assert alpha0 == 0.0 and tau0 == tau


@pytest.mark.parametrize("target, alpha", [
    (12, 0.87888708445124),
    (48, 0.9705337236162503),
    (64, 0.9779504595156523),
])
def test_lazy_for_mixing_time_pinned_alpha(target, alpha):
    # exact floats recorded when reachability was probed with the lazy
    # chain's own pi; the base-pi probe must not move the bisection
    lazy, got, tau = lazy_for_mixing_time(random_ergodic(8, seed=3), target)
    assert got == alpha
    assert tau == target


def test_lazy_for_mixing_time_keeps_the_last_measured_kernel(monkeypatch):
    # the returned kernel and tau are ones the exact path measured: at the final hi,
    # or once after the bisection when the margin decided that candidate
    measured = []
    original = chain.mixing_time

    def counted(kernel):
        tau = original(kernel)
        measured.append((kernel, tau))
        return tau

    monkeypatch.setattr(chain, "mixing_time", counted)
    base = random_ergodic(8, seed=3)
    lazy, alpha, tau = lazy_for_mixing_time(base, 48)
    assert (lazy, tau) in measured
    fresh = make_lazy(base, alpha)
    np.testing.assert_array_equal(lazy.P, fresh.P)
    # it carries the pi its own power iteration gave its scan, not the base pi
    np.testing.assert_array_equal(lazy._pi, stationary(fresh))
    assert mixing_time(lazy) == tau


def exact_bisection(kernel, target_tau):
    """Reference: the bisection that measures every candidate by its own pi and scan."""
    base_tau = mixing_time(kernel)
    if base_tau >= target_tau:
        return kernel, 0.0, base_tau
    lo, hi = 0.0, chain._MAX_ALPHA
    slowest = chain._worst_tv(make_lazy(kernel, hi).P, stationary(kernel))
    if any(next(slowest) <= 0.25 for _ in range(target_tau - 1)):
        raise InputError("unreachable")
    lazy = None
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        candidate = make_lazy(kernel, mid)
        tau = mixing_time(candidate)
        if tau >= target_tau:
            hi, lazy, hi_tau = mid, candidate, tau
        else:
            lo = mid
    if lazy is None:
        lazy = make_lazy(kernel, hi)
        hi_tau = mixing_time(lazy)
    return lazy, hi, hi_tau


def lazy_cycle(n):
    """The n-cycle that stays put with probability 1/2; for n >= 4 two of its rows
    share no state, so its Dobrushin coefficient is 1."""
    return 0.5 * (np.eye(n) + np.roll(np.eye(n), 1, axis=1))


def dobrushin(P):
    return 0.5 * max(np.abs(P - row).sum(axis=1).max() for row in P)


@settings(max_examples=25, deadline=None)
@given(P=st.one_of(
    st.builds(lambda n, seed, alpha: make_lazy(random_ergodic(n, seed), alpha).P,
              st.integers(2, 12), st.integers(0, 2**32 - 1), st.floats(0.0, 0.99)),
    st.integers(4, 6).map(lazy_cycle),
), target=st.integers(2, 100))
@example(P=lazy_cycle(4), target=64)
def test_bisection_takes_the_exact_scans_decisions(P, target):
    def run(bisect):
        try:
            lazy, alpha, tau = bisect(TransitionKernel(P), target)
        except InputError:
            return "unreachable"
        return alpha, tau, lazy.P.tobytes(), stationary(lazy).tobytes()

    assert run(lazy_for_mixing_time) == run(exact_bisection)
    if dobrushin(P) == 1.0:
        # no margin bound exists, so every candidate takes its own pi and scan
        assert (_own_scans(P, target, pytest.MonkeyPatch, lazy_for_mixing_time)
                == _own_scans(P, target, pytest.MonkeyPatch, exact_bisection))


def _own_scans(P, target, monkeypatch, bisect):
    """The chains other than P's own that `bisect` power-iterates, as bytes."""
    seen = _bisection_candidates(TransitionKernel(P), target, monkeypatch, bisect)
    return [Q.tobytes() for Q in seen if not np.array_equal(Q, P)]


def test_check7_bisection_power_iterates_at_most_20_candidates(monkeypatch):
    base = random_ergodic(8, seed=3).P
    assert len(_own_scans(base, 64, monkeypatch, exact_bisection)) == 50
    assert len(_own_scans(base, 64, monkeypatch, lazy_for_mixing_time)) <= 20


def test_lazy_for_mixing_time_unreachable_target():
    # the 0.9999-lazy chain already mixes in far fewer than 20 000 steps
    with pytest.raises(InputError, match="unreachable"):
        lazy_for_mixing_time(random_ergodic(8, seed=3), 20_000)


# ---------------------------------------------------------------------------
# cursor sampling

ONE_STATE = TransitionKernel([[1.0]])


def cursor_at(kernel, state, rng=0):
    """A cursor on `kernel` at `state`, its generator `rng` after one uniform.

    It draws its start on a one-state chain and is then moved onto
    `kernel`, so that the kernel need not have a stationary law.
    """
    cursor = ChainCursor(ONE_STATE, rng)
    cursor.kernel, cursor.state = kernel, state
    return cursor


def test_cursor_deterministic_two_cycle():
    flip = TransitionKernel(np.array([[0.0, 1.0], [1.0, 0.0]]))
    cur = cursor_at(flip, 0)
    np.testing.assert_array_equal(cur.advance(3), [1, 0, 1])
    assert cur.n_consumed == 3
    assert cur.state == 1


def test_cursor_same_seed_same_sequence(dense8):
    a = ChainCursor(dense8, np.random.default_rng(42))
    b = ChainCursor(dense8, np.random.default_rng(42))
    np.testing.assert_array_equal(a.advance(500), b.advance(500))
    assert a.n_consumed == b.n_consumed == 500


def test_cursor_schedule_independence(dense8):
    a = ChainCursor(dense8, np.random.default_rng(9))
    b = ChainCursor(dense8, np.random.default_rng(9))
    chunks = np.concatenate([a.advance(3), a.advance(2), a.advance(7)])
    np.testing.assert_array_equal(chunks, b.advance(12))


def test_cursor_empirical_frequencies_match_pi(dense8):
    pi = stationary(dense8)
    cur = ChainCursor(dense8, np.random.default_rng(3))
    n = 100_000
    states = cur.advance(n)
    freq = np.bincount(states, minlength=dense8.n_states) / n
    se = np.sqrt(pi * (1 - pi) / n)
    assert np.all(np.abs(freq - pi) <= 3 * se + 1e-12)


def test_cursor_skip_counts_and_marginal_law(two_state):
    cur = cursor_at(two_state, 0)
    cur.skip(10)
    assert cur.n_consumed == 10
    # endpoint marginal after skip(k) must follow the k-step transition row
    k = 4
    row = np.linalg.matrix_power(two_state.P, k)[0]
    trials = 20_000
    hits = 0
    rng = np.random.default_rng(7)
    for _ in range(trials):
        c = cursor_at(two_state, 0, rng)
        c.skip(k)
        hits += c.state == 0
    p_hat = hits / trials
    se = np.sqrt(row[0] * (1 - row[0]) / trials)
    assert abs(p_hat - row[0]) <= 3.5 * se


class _Uniforms:
    """A stand-in generator whose `random(size)` returns the given uniforms (one for no size)."""

    def __init__(self, u):
        self.u = u

    def random(self, size=None):
        assert size == (None if np.ndim(self.u) == 0 else len(self.u))
        return self.u


@pytest.mark.parametrize("steps", [1, 6, 4097])
def test_skip_end_state_law_is_the_power_row(dense8, steps):
    start = 2
    row = dense8.power_row(start, steps)
    np.testing.assert_allclose(row, np.linalg.matrix_power(dense8.P, steps)[start], atol=1e-12)
    # skip reads one uniform; each of a fine grid of uniforms must end where the
    # row's cumulative masses put it, so the grid's end-state counts are the row
    # up to one grid point per state
    grid = (np.arange(2**13) + 0.5) / 2**13
    cur = cursor_at(dense8, start)
    ends = []
    for u in grid:
        cur.state, cur.rng = start, _Uniforms(float(u))
        cur.skip(steps)
        ends.append(cur.state)
    want = np.minimum((np.cumsum(row) <= grid[:, None]).sum(axis=1), dense8.n_states - 1)
    np.testing.assert_array_equal(ends, want)
    freq = np.bincount(ends, minlength=dense8.n_states) / grid.size
    assert np.all(np.abs(freq - row) <= 1.0 / grid.size + 1e-12)


def test_advance_last_state_follows_the_power_row(dense8):
    start, steps, trials = 2, 6, 20_000
    rng = np.random.default_rng(5)
    ends = [cursor_at(dense8, start, rng).advance(steps)[-1] for _ in range(trials)]
    freq = np.bincount(ends, minlength=dense8.n_states) / trials
    row = dense8.power_row(start, steps)
    se = np.sqrt(row * (1 - row) / trials)
    assert np.all(np.abs(freq - row) <= 4 * se + 1e-12)


def summed_comparison_step(P, states, u):
    """Reference step: count the cumulative row entries <= u, clamped to the row's last
    state of positive mass."""
    cum = np.cumsum(P, axis=1)
    last = np.array([np.flatnonzero(row)[-1] for row in P])
    return np.minimum(np.sum(cum[states] <= u[:, None], axis=1), last[states])


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1), equal=st.booleans())
@example(n=10, seed=0, equal=True)  # ten masses 0.1 end the cumulative row at 1 - 2^-53
def test_step_equals_summed_comparison(n, seed, equal):
    rng = np.random.default_rng(seed)
    raw = np.ones((n, n)) if equal else rng.uniform(size=(n, n)) ** 3
    P = raw / raw.sum(axis=1, keepdims=True)
    kernel = TransitionKernel(P)
    cum = np.cumsum(P, axis=1)
    states = rng.integers(0, n, size=200)
    # a third of the uniforms sit exactly on a cumulative entry of their row, a
    # third at the largest double below 1 (past the entry when the row ends below 1)
    kind = rng.integers(0, 3, size=states.size)
    u = np.where(kind == 0, rng.random(states.size),
                 np.where(kind == 1, cum[states, rng.integers(0, n, size=states.size)],
                          np.nextafter(1.0, 0.0)))
    if equal and n == 10:
        assert cum[:, -1].max() < 1.0
    want = summed_comparison_step(P, states, u)
    got = kernel._move(states, u)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)
    # with a real generator, one uniform per state in the order the states come
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    np.testing.assert_array_equal(kernel._move(states, a.random(states.size)),
                                  summed_comparison_step(P, states, b.random(states.size)))
    assert a.bit_generator.state == b.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1), equal=st.booleans())
@example(n=10, seed=0, equal=True)  # ten masses 0.1 end the cumulative row at 1 - 2^-53
def test_advance_takes_the_transitions_move_takes(n, seed, equal):
    # the cursor bisects lists and `_move` sums comparisons over rows: one rule, two implementations
    rng = np.random.default_rng(seed)
    raw = np.ones((n, n)) if equal else rng.uniform(size=(n, n)) ** 3
    P = raw / raw.sum(axis=1, keepdims=True)
    kernel = TransitionKernel(P)
    cum = np.cumsum(P, axis=1)
    start = int(rng.integers(0, n))
    # walk a path with `_move`; of its uniforms a third sit exactly on a cumulative
    # entry of the current state's row and a third at the largest double below 1
    state, u, want = start, [], []
    for kind in rng.integers(0, 3, size=200).tolist():
        ui = (rng.random() if kind == 0 else
              cum[state, rng.integers(0, n)] if kind == 1 else np.nextafter(1.0, 0.0))
        state = int(kernel._move(np.array([state]), np.array([ui]))[0])
        u.append(ui)
        want.append(state)
    cursor = cursor_at(kernel, start)
    cursor.rng = _Uniforms(np.array(u))
    np.testing.assert_array_equal(cursor.advance(len(u)), want)
    assert (cursor.state, cursor.n_consumed) == (want[-1], len(u))


def ergodic_rows(n, seed, equal, zeros):
    """Equal or cubed-uniform row masses, about half of them zero if `zeros`.

    The diagonal and the cycle s -> s + 1 (mod n) keep their mass, so the
    chain is irreducible and aperiodic and has a stationary law.
    """
    rng = np.random.default_rng(seed)
    raw = np.ones((n, n)) if equal else rng.uniform(size=(n, n)) ** 3 + 1e-3
    if zeros:
        keep = np.eye(n, dtype=bool) | np.roll(np.eye(n, dtype=bool), 1, axis=1)
        raw[(rng.random((n, n)) < 0.5) & ~keep] = 0.0
    return raw / raw.sum(axis=1, keepdims=True)


def edge_uniforms(p, rng):
    """Per row of `p`: a random uniform, one on a random cumulative entry, one on the
    last entry, 0 and the largest double below 1 (past the last entry when the row
    sums to less than 1)."""
    n = p.shape[1]
    cum = np.cumsum(p, axis=1)
    rows = np.arange(len(p))
    return np.stack([rng.random(len(p)), cum[rows, rng.integers(0, n, size=len(p))],
                     cum[:, -1], np.zeros(len(p)), np.full(len(p), np.nextafter(1.0, 0.0))],
                    axis=1)


# the CLI builds chains of up to 100 states (`chain.n`); equal masses 1/99 end the
# cumulative row below 1, and zeroed entries give rows with flat stretches
CLAMP_FREE_CASES = dict(n=st.integers(1, 100), seed=st.integers(0, 2**32 - 1),
                        equal=st.booleans(), zeros=st.booleans())


def clamp_free_examples(test):
    test = example(n=99, seed=0, equal=True, zeros=False)(test)
    test = example(n=100, seed=1, equal=True, zeros=True)(test)
    return example(n=97, seed=2, equal=False, zeros=True)(test)


@settings(max_examples=40, deadline=None)
@given(**CLAMP_FREE_CASES)
@clamp_free_examples
def test_move_without_a_clamp_takes_the_clamped_rule(n, seed, equal, zeros):
    P = ergodic_rows(n, seed, equal, zeros)
    if (n, equal, zeros) == (99, True, False):
        assert np.cumsum(P, axis=1)[:, -1].max() < 1.0
    u = edge_uniforms(P, np.random.default_rng(seed))
    states = np.repeat(np.arange(n), u.shape[1])
    np.testing.assert_array_equal(TransitionKernel(P)._move(states, u.ravel()),
                                  summed_comparison_step(P, states, u.ravel()))


@settings(max_examples=40, deadline=None)
@given(**CLAMP_FREE_CASES)
@clamp_free_examples
def test_advance_without_a_clamp_takes_the_clamped_rule(n, seed, equal, zeros):
    P = ergodic_rows(n, seed, equal, zeros)
    kernel = TransitionKernel(P)
    rng = np.random.default_rng(seed)
    # walk a path by the clamped rule, each uniform one of the current row's edge uniforms
    state = start = int(rng.integers(0, n))
    u, want = [], []
    for kind in rng.integers(0, 5, size=300).tolist():
        ui = edge_uniforms(P[[state]], rng)[0, kind]
        state = int(summed_comparison_step(P, np.array([state]), np.array([ui]))[0])
        u.append(ui)
        want.append(state)
    cursor = cursor_at(kernel, start)
    cursor.rng = _Uniforms(np.array(u))
    np.testing.assert_array_equal(cursor.advance(len(u)), want)
    assert cursor.state == want[-1]


@settings(max_examples=40, deadline=None)
@given(**CLAMP_FREE_CASES)
@clamp_free_examples
def test_inverse_cdf_without_a_clamp_takes_the_clamped_rule(n, seed, equal, zeros):
    P = ergodic_rows(n, seed, equal, zeros)
    kernel = TransitionKernel(P)
    rng = np.random.default_rng(seed)
    # sample_stationary's draws, one call for all and one n = 1 call (a cursor's
    # start draw) per uniform; the reference rule reads pi as every row of an n x n matrix
    pi = stationary(kernel)
    u = edge_uniforms(pi[None], rng)[0]
    want = summed_comparison_step(np.tile(pi, (n, 1)), np.zeros(u.size, dtype=np.int64), u)
    np.testing.assert_array_equal(kernel.sample_stationary(_Uniforms(u), u.size), want)
    assert [int(kernel.sample_stationary(_Uniforms(u[i:i + 1]), 1)[0])
            for i in range(u.size)] == want.tolist()
    # skip's end-state draw from each start's power row, whose zeros one step keeps
    cursor = cursor_at(kernel, 0)
    for steps in (1, 3):
        rows = np.array([kernel.power_row(s, steps) for s in range(n)])
        u = edge_uniforms(rows, rng)
        starts = np.repeat(np.arange(n), u.shape[1])
        want = summed_comparison_step(rows, starts, u.ravel())
        ends = []
        for s, ui in zip(starts.tolist(), u.ravel().tolist()):
            cursor.state, cursor.rng = s, _Uniforms(ui)
            cursor.skip(steps)
            ends.append(cursor.state)
        assert ends == want.tolist()


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 100), seed=st.integers(0, 2**32 - 1), equal=st.booleans())
@example(n=100, seed=1, equal=True)
@example(n=99, seed=0, equal=True)
def test_no_sampler_moves_along_a_zero_probability_edge(n, seed, equal):
    P = ergodic_rows(n, seed, equal, zeros=True)
    kernel = TransitionKernel(P)
    rng = np.random.default_rng(seed)
    u = edge_uniforms(P, rng)
    starts = np.repeat(np.arange(n), u.shape[1])
    assert (P[starts, kernel._move(starts, u.ravel())] > 0).all()
    cursor = cursor_at(kernel, 0)
    for s, ui in zip(starts.tolist(), u.ravel().tolist()):
        cursor.state, cursor.rng = s, _Uniforms(np.array([ui]))
        assert P[s, cursor.advance(1)[0]] > 0
    pi = stationary(kernel)
    ends = kernel.sample_stationary(_Uniforms(edge_uniforms(pi[None], rng)[0]), 5)
    assert (pi[ends] > 0).all()
    # skip's power rows: one step keeps P's zeros, three steps keep some of them
    for steps in (1, 3):
        rows = np.array([kernel.power_row(s, steps) for s in range(n)])
        u = edge_uniforms(rows, rng)
        for s, ui in zip(starts.tolist(), u.ravel().tolist()):
            cursor.state, cursor.rng = s, _Uniforms(ui)
            cursor.skip(steps)
            assert rows[s, cursor.state] > 0


def test_a_uniform_past_the_cumulative_row_stays_off_its_trailing_zero():
    # ten masses 0.1 end the cumulative row at 1 - 2^-53, the largest uniform
    # `rng.random()` can return; state 10 has probability 0 from every state
    P = np.tile([0.1] * 10 + [0.0], (11, 1))
    kernel = TransitionKernel(P)
    u = np.nextafter(1.0, 0.0)
    assert np.cumsum(P[0])[-1] <= u
    assert kernel._move(np.array([0]), np.array([u]))[0] == 9
    assert chain._inverse_cdf(P[0], u) == 9
    cursor = cursor_at(kernel, 0)
    cursor.rng = _Uniforms(np.array([u]))
    assert cursor.advance(1)[0] == 9
    cursor.state, cursor.rng = 0, _Uniforms(u)
    cursor.skip(1)
    assert cursor.state == 9


def test_power_row_matches_matrix_power(dense8):
    for steps in (1, 2, 5, 17, 64):
        expect = np.linalg.matrix_power(dense8.P, steps)[2]
        np.testing.assert_allclose(dense8.power_row(2, steps), expect, atol=1e-12)


# ---------------------------------------------------------------------------
# generators


def test_random_ergodic_properties():
    for n in (2, 8, 40):
        k = random_ergodic(n, seed=7)
        assert np.min(k.P) >= 0.01 - 1e-15
        np.testing.assert_allclose(k.P.sum(axis=1), 1.0, atol=1e-12)
        assert k.is_primitive()
        assert stationary(k).sum() == pytest.approx(1.0, abs=1e-12)
    # deterministic in the seed
    np.testing.assert_array_equal(random_ergodic(5, seed=3).P, random_ergodic(5, seed=3).P)


def test_random_ergodic_mixes_fast():
    # entry floor 0.01 forces TV contraction by (1 - 0.01 n) per step
    k = random_ergodic(10, seed=1)
    bound = int(np.ceil(np.log(4.0) / -np.log(1 - 0.01 * 10)))
    assert mixing_time(k) <= bound


def test_random_ergodic_bounds():
    with pytest.raises(InputError):
        random_ergodic(1, seed=0)
    with pytest.raises(InputError):
        random_ergodic(101, seed=0)
