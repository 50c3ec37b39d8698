"""Bias and cost of gradient estimators under Markovian sampling.

Three views of the same trade-off on a slowly mixing chain:
  1. the plain batch mean is biased until the batch outruns the mixing
     time (exact computation, no sampling);
  2. the truncated-geometric multilevel estimator matches the mean of a
     long batch while paying only ~log2(M) oracle calls in expectation;
  3. measured calls per estimate confirm the accounting; the chain steps
     have a mean carried by rare deep levels, so the median is measured;
     a batch mean of the same expected cost has the smaller error of one
     estimate: the multilevel estimate buys its small bias with variance.
"""

import numpy as np

from markovmirror import (
    ChainCursor,
    MlmcConfig,
    batch_bias_profile,
    lazy_for_mixing_time,
    make_min_instance,
    mlmc_geometric,
    random_ergodic,
    unbiasedness_check,
)
from markovmirror.estimators import _MAX_LEVEL


def main():
    base = random_ergodic(8, seed=7)
    kernel, alpha, tau = lazy_for_mixing_time(base, 30)
    problem = make_min_instance(5, kernel, noise_scale=1.0, seed=4)
    print(f"chain: 8 states, laziness {alpha:.3f}, tau_mix = {tau}")

    print("\nexact bias of the capped batch mean:")
    caps = [4, 16, 64, 256, 1024]
    profile = batch_bias_profile(kernel, problem.noise_deviations(),
                                 problem.geometry.norm_pair, caps)
    for M, b2 in zip(caps, profile.bias_sq):
        print(f"  M={M:<5d} bias^2 = {b2:.3e}")
    print(f"  fitted exponent {profile.slope:.2f} "
          f"(crosses from ~-1 near tau to -2 far past it)")

    print("\nmultilevel estimator, B=1, M=1024:")
    cfg = MlmcConfig(B=1, M=1024)
    print(f"  expected oracle calls / estimate:   {cfg.expected_oracle_calls():.3f}")
    cursor, level_rng = ChainCursor(kernel, np.random.default_rng(0)), np.random.default_rng(1)
    draws = [mlmc_geometric(problem.grad_oracle, problem.geometry.center(), cursor, cfg, level_rng)
             for _ in range(4000)]
    calls = np.array([e.oracle_calls for e in draws], dtype=float)
    # the calls' variance grows with M, so the mean is good to its standard error, not its digits
    print(f"  measured calls / estimate:          {calls.mean():.3f} "
          f"(standard error {calls.std(ddof=1) / np.sqrt(calls.size):.3f})")
    # level j has probability 2^-j and moves the chain 2^j*B states, so each level adds B to
    # the mean chain steps: rare deep levels dominate it and no sample mean settles
    levels = np.arange(1, _MAX_LEVEL + 1)
    law = 2.0 ** -levels
    law[-1] *= 2  # the draw is clipped at _MAX_LEVEL, which takes the tail's mass
    steps = cfg.B * float(law @ 2.0 ** levels)
    print(f"  median chain steps / estimate:      {np.median([e.chain_steps for e in draws]):.1f}")
    print(f"  exact mean chain steps / estimate:  {steps:.1f} (rare deep levels dominate it)")

    x, dual_norm = problem.geometry.center(), problem.geometry.norm_pair.dual_norm
    n = round(cfg.expected_oracle_calls())
    batches = [problem.grad_oracle(x, cursor.advance(n)).mean(axis=0) for _ in range(4000)]

    def rms_error(estimates):
        return np.sqrt(np.mean([dual_norm(g - problem.grad(x)) ** 2 for g in estimates]))

    print(f"\nroot-mean-square error of one estimate, {n} expected oracle calls each:")
    for label, estimates in (("multilevel, B=1, M=1024:", [e.g for e in draws]),
                             (f"batch mean of {n} states:", batches)):
        print(f"  {label:<36}{rms_error(estimates):.3f}")

    pairing = unbiasedness_check(problem, problem.geometry.center(),
                                 MlmcConfig(B=1, M=64), n_trials=20_000,
                                 rng=np.random.default_rng(1))
    print("\npaired against the full 64-sample mean (20k trials):")
    print(f"  max per-coordinate |mean diff| / SE = {pairing.max_abs_ratio:.2f}")


if __name__ == "__main__":
    main()
