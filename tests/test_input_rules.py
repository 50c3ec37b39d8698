"""The library's input rules: every public count and scale is checked by
`errors._count` / `errors._check_scale`, so a fraction, NaN, inf, a bool or
a value below the least allowed raises InputError instead of being
truncated, accepted, or failing later with a bare TypeError."""

import ast
import inspect

import numpy as np
import pytest

from markovmirror import (
    BallGeometry,
    BoxGeometry,
    ChainCursor,
    InputError,
    MamdSchedule,
    MlmcConfig,
    SimplexGeometry,
    StatisticsError,
    chain,
    cli,
    deviation_scaling,
    errors,
    estimators,
    geometry,
    lazy_for_mixing_time,
    make_min_instance,
    make_vi_instance,
    mamd_batched,
    mamd_batched_schedule,
    mamd_unbatched,
    mamd_unbatched_schedule,
    matching_pennies,
    mmp_batched,
    mmp_batched_params,
    mmp_unbatched,
    mmp_unbatched_stepsize,
    problems,
    random_ergodic,
    solvers,
    unbiasedness_check,
    validation,
)

KERNEL = random_ergodic(8, seed=7)
QUAD = make_min_instance(3, KERNEL, noise_scale=0.5, seed=1)
GAME = matching_pennies(KERNEL, noise_scale=0.5, seed=1)


def _cursor():
    return ChainCursor(KERNEL, np.random.default_rng(0))


def _skip(n):
    cur = _cursor()
    cur.skip(n)
    return cur.state, cur.n_consumed


def _deviation(Ns=(6, 16), n_trials=6):
    rep = deviation_scaling(KERNEL, QUAD.noise_deviations(), QUAD.geometry.norm_pair, list(Ns),
                            n_trials, np.random.default_rng(0))
    return rep.N, rep.mean


def _solve(stride):
    sched = MamdSchedule(0.5 / QUAD.L)
    return mamd_unbatched(QUAD, sched, _cursor(), 12, stride=stride).t


# each solver's reported point after T iterations
SOLVERS = {
    "mamd_unbatched": lambda T: mamd_unbatched(QUAD, MamdSchedule(0.5 / QUAD.L), _cursor(), T),
    "mamd_batched": lambda T: mamd_batched(QUAD, MamdSchedule(0.5 / QUAD.L), _cursor(), T,
                                           MlmcConfig(1, 4), np.random.default_rng(1)),
    "mmp_unbatched": lambda T: mmp_unbatched(GAME, 0.5 / GAME.L_tilde, _cursor(), T,
                                             avg_start=0),
    "mmp_batched": lambda T: mmp_batched(GAME, 0.5 / GAME.L, _cursor(), T, MlmcConfig(1, 4),
                                         np.random.default_rng(1)),
}


# name: (least allowed value, call with the count); every call returns what
# the count decides, so a whole float can be compared with its int
COUNTS = {
    "advance steps": (1, lambda n: _cursor().advance(n)),
    "skip steps": (0, _skip),
    "power_row steps": (0, lambda n: KERNEL.power_row(0, n)),
    "power_row state": (0, lambda n: KERNEL.power_row(n, 3)),
    "random_ergodic n_states": (2, lambda n: random_ergodic(n, seed=0).P),
    "lazy_for_mixing_time target": (1, lambda n: lazy_for_mixing_time(KERNEL, n)[1:]),
    "MlmcConfig B": (1, lambda n: MlmcConfig(B=n).B),
    "MlmcConfig M": (1, lambda n: MlmcConfig(M=n).M),
    "box dimension": (1, lambda n: BoxGeometry(n).center()),
    "quadratic instance d": (1, lambda n: make_min_instance(n, KERNEL, seed=0).A),
    "ball dimension": (1, lambda n: BallGeometry(n).center()),
    "simplex scalar block": (2, lambda n: SimplexGeometry(n).block_dims),
    "simplex block in a sequence": (2, lambda n: SimplexGeometry((n, 3)).block_dims),
    "game block": (2, lambda n: make_vi_instance((n, 3), KERNEL, seed=0).Q),
    "matching_pennies block_dim": (2, lambda n: matching_pennies(KERNEL, block_dim=n).Q),
    "solver stride": (1, _solve),
    **{f"{name} T": (1, lambda n, run=run: run(n).x_out) for name, run in SOLVERS.items()},
    "mmp_unbatched avg_start": (0, lambda n: mmp_unbatched(
        GAME, 0.5 / GAME.L_tilde, _cursor(), 12, avg_start=n).x_out),
    "schedule factory tau_mix": (1, lambda n: mamd_unbatched_schedule(1.0, 1.0, 1.0, n, 64)),
    "schedule factory T": (1, lambda n: mmp_batched_params(1.0, 1.0, 1.0, 4, n)),
    "MamdSchedule tau": (0, lambda n: MamdSchedule(0.1, n).arrays(8)),
    "MamdSchedule.arrays T": (0, lambda n: MamdSchedule(0.1).arrays(n)),
    "scaling size": (1, lambda n: _deviation(Ns=(n, 16))),
    "scaling n_trials": (2, lambda n: _deviation(n_trials=n)),
    "pairing n_trials": (2, lambda n: unbiasedness_check(
        GAME, GAME.geometry.center(), MlmcConfig(1, 4), n, np.random.default_rng(0)).mean_diff),
}

TRIALS = {"scaling n_trials", "pairing n_trials"}


@pytest.mark.parametrize("value", [2.5, np.nan, np.inf, True, False, "below"])
@pytest.mark.parametrize("site", COUNTS)
def test_bad_count_is_input_error(site, value):
    least, call = COUNTS[site]
    # an integral trial count below 2 is too few trials, not malformed input; a bool,
    # though equal to 0 or 1, is no count at all
    error = StatisticsError if site in TRIALS and value == "below" else InputError
    if value == "below":
        value = least - 1
    with pytest.raises(error):
        call(value)


@pytest.mark.parametrize("site", COUNTS)
def test_whole_float_count_runs_as_its_int(site):
    _, call = COUNTS[site]
    np.testing.assert_equal(call(6.0), call(6))


def test_stride_none_records_only_the_row_at_T():
    np.testing.assert_array_equal(_solve(None), [12])


def test_whole_float_stride_and_tau_are_stored_as_ints():
    assert MamdSchedule(0.1, 6.0).tau == 6 and type(MamdSchedule(0.1, 6.0).tau) is int
    np.testing.assert_array_equal(_solve(6.0), [6, 12])


FACTORIES = [mamd_unbatched_schedule, mamd_batched_schedule, mmp_unbatched_stepsize,
             mmp_batched_params]


@pytest.mark.parametrize("sigma", [np.nan, np.inf, -1.0])
@pytest.mark.parametrize("factory", FACTORIES, ids=lambda f: f.__name__)
def test_schedule_factory_sigma_must_be_finite_and_nonnegative(factory, sigma):
    # NaN used to count as noiseless, inf to give a zero stepsize
    with pytest.raises(InputError, match="sigma must be nonnegative and finite"):
        factory(1.0, 1.0, sigma, 4, 64)


INSTANCES = {
    "min": lambda s: make_min_instance(3, KERNEL, noise_scale=s),
    "vi": lambda s: make_vi_instance((2, 3), KERNEL, noise_scale=s),
    "pennies": lambda s: matching_pennies(KERNEL, noise_scale=s),
}


@pytest.mark.parametrize("scale", [np.nan, np.inf, -1.0])
@pytest.mark.parametrize("factory", INSTANCES)
def test_instance_noise_scale_must_be_finite_and_nonnegative(factory, scale):
    # a NaN or inf scale used to build NaN shifts
    with pytest.raises(InputError, match="noise_scale must be nonnegative and finite"):
        INSTANCES[factory](scale)


def test_input_rules_are_defined_in_errors_only():
    rules = {"_integral", "_count", "_check_scale"}
    for module in (chain, cli, errors, estimators, geometry, problems, solvers, validation):
        tree = ast.parse(inspect.getsource(module))
        defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        assert defined & rules == (rules if module is errors else set()), module.__name__
        for name in rules & set(vars(module)):
            assert getattr(module, name) is getattr(errors, name)
