import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovmirror import (
    ChainCursor,
    Estimate,
    InputError,
    MlmcConfig,
    combine_levels,
    make_min_instance,
    mlmc_geometric,
    random_ergodic,
)
from markovmirror.estimators import _MAX_LEVEL, _batch_g, _draw_level
from geometry_reference import sample


def single_sample(oracle, x, cursor):
    """One oracle evaluation at the next chain state: an unbatched solver's per-iteration read."""
    return Estimate(np.asarray(oracle(x, int(cursor.advance(1)[0])), dtype=float),
                    oracle_calls=1, chain_steps=1, level=0)


class ForcedLevels:
    """rng stand-in whose geometric draws follow a fixed script."""

    def __init__(self, levels):
        self.levels = list(levels)

    def geometric(self, p, size):
        assert p == 0.5
        drawn, self.levels = self.levels[:size], self.levels[size:]
        return np.array(drawn)


class CountingOracle:
    """Wraps an oracle and counts the rows actually evaluated."""

    def __init__(self, oracle):
        self.oracle = oracle
        self.rows = 0

    def __call__(self, x, z):
        self.rows += np.size(z)
        return self.oracle(x, z)


@pytest.fixture
def problem(dense8):
    return make_min_instance(5, dense8, noise_scale=1.0, seed=2)


def fresh_cursor(problem, seed=0):
    return ChainCursor(problem.kernel, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# config


def test_config_validation():
    with pytest.raises(InputError):
        MlmcConfig(B=0, M=4)
    with pytest.raises(InputError):
        MlmcConfig(B=1, M=0)
    assert MlmcConfig(B=3, M=1).expected_oracle_calls() == 3.0
    assert MlmcConfig(B=2, M=16).expected_oracle_calls() == pytest.approx(2 * (4 + 1 / 16))
    assert MlmcConfig(B=1, M=16).max_level == 4
    assert MlmcConfig(B=1, M=31).max_level == 4  # floor(log2 31)


def test_max_level_is_exact_for_large_caps():
    # float log2 rounds 2**49 - 1 up to 49
    assert MlmcConfig(M=2**49 - 1).max_level == 48
    assert MlmcConfig(M=2**49).max_level == 49
    assert all(MlmcConfig(M=m).max_level == int(np.floor(np.log2(m))) for m in range(1, 5000))


@pytest.mark.parametrize("kw", [{"B": 1.5}, {"M": 2.5}, {"B": np.nan}, {"M": np.inf},
                                {"B": "2"}])
def test_non_integral_batch_parameters_rejected(kw):
    with pytest.raises(InputError, match="MlmcConfig [BM] must be an integer >= 1"):
        MlmcConfig(**kw)


def test_integral_batch_parameters_stored_as_ints():
    cfg = MlmcConfig(B=2.0, M=np.int64(16))
    assert (cfg.B, cfg.M) == (2, 16)
    assert type(cfg.B) is int and type(cfg.M) is int
    assert MlmcConfig(M=10**400).max_level == (10**400).bit_length() - 1  # no float overflow


# ---------------------------------------------------------------------------
# plain estimators


def test_single_sample_equals_batch_of_one(problem):
    x = problem.geometry.center()
    a = single_sample(problem.grad_oracle, x, fresh_cursor(problem, 3))
    b = _batch_g(problem.grad_oracle, x, fresh_cursor(problem, 3).advance(1))
    np.testing.assert_array_equal(a.g, b)
    assert (a.oracle_calls, a.chain_steps, a.level) == (1, 1, 0)


def test_batch_mean_is_row_average(problem):
    x = problem.geometry.center()
    twin = fresh_cursor(problem, 5)
    states = twin.advance(12)
    g = _batch_g(problem.grad_oracle, x, fresh_cursor(problem, 5).advance(12))
    np.testing.assert_allclose(g, problem.grad_oracle(x, states).mean(axis=0))


def test_batch_mean_variance_scales_inversely(problem, rng):
    x = sample(problem.geometry, rng)
    g_bar = problem.grad(x)
    cur = fresh_cursor(problem, 11)
    dual_norm = problem.geometry.norm_pair.dual_norm
    Bs = [4, 16, 64, 256]
    mean_sq = []
    for B in Bs:
        sq = [
            dual_norm(_batch_g(problem.grad_oracle, x, cur.advance(B)) - g_bar) ** 2
            for _ in range(1500)
        ]
        mean_sq.append(np.mean(sq))
    slope = np.polyfit(np.log(Bs), np.log(mean_sq), 1)[0]
    assert -1.2 <= slope <= -0.8


# ---------------------------------------------------------------------------
# multilevel combination algebra


def test_combine_levels_level_one_picks_second_sample(rng):
    values = rng.normal(size=(2, 3))
    # B=1, J=1: g0 + 2(mean - g0) = second row exactly
    np.testing.assert_allclose(combine_levels(values, 1, 1, 4), values[1])


def test_combine_levels_matches_manual_prefix_means(rng):
    B, level, M = 3, 2, 8
    values = rng.normal(size=((1 << level) * B, 4))
    manual = (
        values[:B].mean(axis=0)
        + 4.0 * (values[:12].mean(axis=0) - values[:6].mean(axis=0))
    )
    np.testing.assert_allclose(combine_levels(values, level, B, M), manual)


def test_combine_levels_truncates_above_cap(rng):
    values = rng.normal(size=(8, 2))
    np.testing.assert_array_equal(combine_levels(values, 3, 1, 4), values[:1].mean(axis=0))
    # a truncated level reads only the first B rows
    np.testing.assert_array_equal(combine_levels(values[:1], 3, 1, 4), values[0])


@pytest.mark.parametrize("level, rows", [(2, 3), (0, 4), (-1, 4)])
def test_combine_levels_rejects_a_bad_level_or_too_few_rows(level, rows):
    # 3 rows at level 2 (B = 1, M = 4) gave their sum over 4, [3, 3, 3]; a level
    # below 1 ended in a negative shift count
    values = np.arange(12.0).reshape(4, 3)[:rows]
    with pytest.raises(InputError, match="level"):
        combine_levels(values, level, 1, 4)


@pytest.mark.parametrize("oracle, d", [
    (lambda x, z: np.array([1.0, 2.0, 3.0]), 3),  # ignores z: one row for a block of states
    (lambda x, z: np.ones(len(z)), 1),  # one value, not one row, per state
], ids=["one-row-for-the-block", "one-value-per-state"])
@pytest.mark.parametrize("draw", [
    lambda oracle, x, cursor: _batch_g(oracle, x, cursor.advance(4)),
    lambda oracle, x, cursor: mlmc_geometric(oracle, x, cursor, MlmcConfig(B=2, M=64),
                                             np.random.default_rng(0)),
], ids=["batch_mean", "mlmc_geometric"])
def test_an_oracle_must_return_one_row_per_state(dense8, oracle, d, draw):
    # the batch mean took [1, 2, 3] as one of 4 rows and returned [0.25, 0.5, 0.75];
    # the mlmc estimate of the same constant read [0, 0, 0]
    cursor = ChainCursor(dense8, np.random.default_rng(1))
    with pytest.raises(InputError, match=rf"one row per state: \(\d+, {d}\)"):
        draw(oracle, np.zeros(d), cursor)


@pytest.mark.parametrize("d", [1, 4])
def test_prefix_means_equal_numpy_mean(dense8, rng, d):
    # each prefix mean is the add-reduce and divide np.mean does, bit for bit
    values = rng.normal(size=(24, d))
    for B, level in ((1, 1), (3, 2), (3, 3), (2, 4)):
        g0 = values[:B].mean(axis=0)
        want = g0 if (1 << level) > 8 else g0 + float(1 << level) * (
            values[:(1 << level) * B].mean(axis=0) - values[:(1 << (level - 1)) * B].mean(axis=0))
        np.testing.assert_array_equal(combine_levels(values, level, B, 8), want)
    p = make_min_instance(d, dense8, noise_scale=1.0, seed=2)
    x = p.geometry.center()
    vals = p.grad_oracle(x, fresh_cursor(p, 4).advance(7))
    np.testing.assert_array_equal(_batch_g(p.grad_oracle, x, fresh_cursor(p, 4).advance(7)),
                                  vals.mean(axis=0))
    est = mlmc_geometric(p.grad_oracle, x, fresh_cursor(p, 4), MlmcConfig(B=7, M=1),
                         ForcedLevels([2]))  # truncated: the first B rows only
    np.testing.assert_array_equal(est.g, vals.mean(axis=0))


def test_mlmc_matches_manual_combination(problem):
    x = problem.geometry.center()
    B, M, level = 2, 8, 3
    twin = fresh_cursor(problem, 7)
    states = twin.advance((1 << level) * B)
    vals = problem.grad_oracle(x, states)
    est = mlmc_geometric(problem.grad_oracle, x, fresh_cursor(problem, 7),
                         MlmcConfig(B=B, M=M), ForcedLevels([level]))
    np.testing.assert_array_equal(est.g, combine_levels(vals, level, B, M))
    assert est.level == level
    assert est.oracle_calls == est.chain_steps == (1 << level) * B


# ---------------------------------------------------------------------------
# truncation and accounting


def test_truncated_draw_means_first_batch_only(problem):
    x = problem.geometry.center()
    oracle = CountingOracle(problem.grad_oracle)
    cur = fresh_cursor(problem, 9)
    twin = fresh_cursor(problem, 9)
    est = mlmc_geometric(oracle, x, cur, MlmcConfig(B=4, M=4), ForcedLevels([3]))
    # level 3 exceeds M=4's cap: evaluate only the first B states
    np.testing.assert_array_equal(est.g, problem.grad_oracle(x, twin.advance(4)).mean(axis=0))
    assert est.oracle_calls == 4
    assert oracle.rows == 4
    assert est.chain_steps == 32  # cursor still moved the full span
    assert cur.n_consumed == 32


def test_truncated_long_remainder_uses_jump(problem):
    x = problem.geometry.center()
    cur = fresh_cursor(problem, 1)
    est = mlmc_geometric(problem.grad_oracle, x, cur, MlmcConfig(B=1, M=1),
                         ForcedLevels([20]))
    assert est.oracle_calls == 1
    assert est.chain_steps == 2**20
    assert cur.n_consumed == 2**20  # remainder crossed via an exact jump
    assert 0 <= cur.state < problem.kernel.n_states


def test_level_clipped_at_cap(problem):
    x = problem.geometry.center()
    cur = fresh_cursor(problem, 2)
    est = mlmc_geometric(problem.grad_oracle, x, cur, MlmcConfig(B=1, M=1),
                         ForcedLevels([80]))
    assert est.level == 62
    assert est.chain_steps == 2**62
    assert cur.n_consumed == 2**62


def test_m_equals_one_reduces_to_batch_mean(problem):
    x = sample(problem.geometry, np.random.default_rng(4))
    twin = fresh_cursor(problem, 13)
    est = mlmc_geometric(problem.grad_oracle, x, fresh_cursor(problem, 13),
                         MlmcConfig(B=6, M=1), ForcedLevels([1]))
    np.testing.assert_array_equal(est.g, problem.grad_oracle(x, twin.advance(6)).mean(axis=0))


def test_accounting_identities(problem):
    x = problem.geometry.center()
    oracle = CountingOracle(problem.grad_oracle)
    cur = fresh_cursor(problem, 21)
    rng = np.random.default_rng(77)
    cfg = MlmcConfig(B=2, M=16)
    ests = [mlmc_geometric(oracle, x, cur, cfg, rng) for _ in range(400)]
    assert cur.n_consumed == sum(e.chain_steps for e in ests)
    assert oracle.rows == sum(e.oracle_calls for e in ests)
    for e in ests:
        assert e.chain_steps == (1 << e.level) * cfg.B
        if (1 << e.level) <= cfg.M:
            assert e.oracle_calls == e.chain_steps
        else:
            assert e.oracle_calls == cfg.B


def test_expected_calls_match_formula(problem):
    x = problem.geometry.center()
    cur = fresh_cursor(problem, 30)
    rng = np.random.default_rng(123)
    cfg = MlmcConfig(B=2, M=16)
    calls = [mlmc_geometric(problem.grad_oracle, x, cur, cfg, rng).oracle_calls
             for _ in range(10_000)]
    assert np.mean(calls) == pytest.approx(cfg.expected_oracle_calls(), rel=0.05)


def test_level_law(problem):
    x = problem.geometry.center()
    cur = fresh_cursor(problem, 8)
    rng = np.random.default_rng(55)
    cfg = MlmcConfig(B=1, M=1)  # truncated levels keep draws cheap
    n = 40_000
    levels = np.array([mlmc_geometric(problem.grad_oracle, x, cur, cfg, rng).level
                       for _ in range(n)])
    for j in range(1, 9):
        p = 2.0**-j
        se = np.sqrt(p * (1 - p) / n)
        assert abs(np.mean(levels == j) - p) <= 3.5 * se


def test_zero_noise_estimate_is_exact_mean_field(dense8):
    p = make_min_instance(5, dense8, noise_scale=0.0, seed=3)
    x = sample(p.geometry, np.random.default_rng(6))
    rng = np.random.default_rng(0)
    cur = ChainCursor(p.kernel, np.random.default_rng(1))
    for _ in range(50):
        est = mlmc_geometric(p.grad_oracle, x, cur, MlmcConfig(B=1, M=8), rng)
        np.testing.assert_allclose(est.g, p.grad(x), atol=1e-14)


def test_estimate_is_dataclass_record(problem):
    x = problem.geometry.center()
    est = single_sample(problem.grad_oracle, x, fresh_cursor(problem))
    assert isinstance(est, Estimate)
    assert est.g.shape == (5,)


# one instance for every hypothesis example (a function-scoped fixture is not re-run per example)
PROPERTY_PROBLEM = make_min_instance(5, random_ergodic(8, seed=7), noise_scale=1.0, seed=2)


@settings(max_examples=60, deadline=None)
@given(level=st.integers(1, 13), B=st.integers(1, 3), M=st.integers(1, 2**13),
       seed=st.integers(0, 2**32 - 1))
def test_mlmc_accounting_matches_a_same_seed_replay(level, B, M, seed):
    # levels up to 13 reach the skip branch (a remainder above 4096 states) when truncated
    p = PROPERTY_PROBLEM
    x = p.geometry.center()
    cur = fresh_cursor(p, seed)
    before = cur.n_consumed
    est = mlmc_geometric(p.grad_oracle, x, cur, MlmcConfig(B=B, M=M), ForcedLevels([level]))
    span = (1 << level) * B
    assert est.level == level
    assert est.chain_steps == span
    assert cur.n_consumed - before == span
    assert est.oracle_calls == (span if (1 << level) <= M else B)
    rows = p.grad_oracle(x, fresh_cursor(p, seed).advance(est.oracle_calls))
    np.testing.assert_array_equal(est.g, combine_levels(rows, level, B, M))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), k=st.integers(1, 4096))
def test_level_draws_in_one_call_equal_single_draws(seed, k):
    # one size-k draw equals k scalar rng.geometric(0.5) draws, so the levels of a plan,
    # and mlmc_geometric's one, are those of per-iteration scalar draws
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    block = _draw_level(a, k)
    singles = [min(int(b.geometric(0.5)), _MAX_LEVEL) for _ in range(k)]
    assert block.shape == (k,)
    assert block.tolist() == singles
    assert a.bit_generator.state == b.bit_generator.state


def test_level_draws_in_one_call_are_clipped_at_the_cap():
    class Geometric:
        def geometric(self, p, size):
            assert (p, size) == (0.5, 3)
            return np.array([1, _MAX_LEVEL + 1, 2**40])

    assert _draw_level(Geometric(), 3).tolist() == [1, _MAX_LEVEL, _MAX_LEVEL]
