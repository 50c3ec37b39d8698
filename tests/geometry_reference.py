"""Reference operations on the geometries, for the tests that cross-check them.

The methods need only a geometry's closed-form step and what the metrics
read, so these live here: a generic projected-gradient prox solver, the
Bregman divergence and mirror gradient it minimizes with, the Euclidean
projection onto a simplex product, and a sampler of feasible points.
The simplex product's divergence and projection loop over its blocks.
"""

import numpy as np

from markovmirror import BallGeometry, BoxGeometry, SimplexGeometry

# stopping rule of the generic prox: KKT residual and iteration budget
PROX_TOL = 1e-10
PROX_MAX_ITER = 10_000


def block_slices(geo):
    return [slice(e - b, e) for e, b in zip(np.cumsum(geo.block_dims), geo.block_dims)]


def bregman(geo, x, y):
    """V(x, y): half the squared distance, or K times the blocks' KL divergences on a product."""
    if not isinstance(geo, SimplexGeometry):
        diff = y - x
        return 0.5 * float(diff @ diff)
    # y * log(y/x) with the 0 log 0 = 0 convention, plus mass-correction
    # terms that vanish when both block sums are exactly 1
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(y > 0.0, y * np.log(y / x), 0.0)
    total = 0.0
    for s in block_slices(geo):
        total += float(np.sum(terms[s])) + float(np.sum(x[s]) - np.sum(y[s]))
    return geo.n_blocks * total


def mirror_grad(geo, v):
    return geo.n_blocks * (1.0 + np.log(v)) if isinstance(geo, SimplexGeometry) else v


def _project_block_simplex(v, floor):
    """Euclidean projection of v onto {y : y_i >= floor, sum y = 1}."""
    dim = v.shape[0]
    mass = 1.0 - dim * floor
    w = v - floor
    u = np.sort(w)[::-1]
    cum = np.cumsum(u) - mass
    idx = np.arange(1, dim + 1)
    rho = np.nonzero(u - cum / idx > 0)[0][-1]
    theta = cum[rho] / (rho + 1.0)
    return np.maximum(w - theta, 0.0) + floor


def project(geo, v):
    """Euclidean projection onto the set: the box's and ball's own, a simplex's by blocks."""
    if not isinstance(geo, SimplexGeometry):
        return geo.project(v)
    out = np.empty(geo.d)
    for s, b in zip(block_slices(geo), geo.block_dims):
        out[s] = _project_block_simplex(v[s], geo.nu / b)
    return out


def sample(geo, rng, n=None):
    """A feasible point, or an (n, d) batch, for randomized checks."""
    if isinstance(geo, BoxGeometry):
        return rng.uniform(geo.lo, geo.hi, size=(geo.d,) if n is None else (n, geo.d))
    m = 1 if n is None else n
    if isinstance(geo, BallGeometry):
        g = rng.normal(size=(m, geo.d))
        g /= geo.norm_pair.norm(g)[:, None]
        pts = g * (geo.radius * rng.uniform(size=(m, 1)) ** (1.0 / geo.d))
    else:
        pts = geo.renormalize(np.hstack([rng.dirichlet(np.ones(b), size=m)
                                         for b in geo.block_dims]))
    return pts[0] if n is None else pts


def prox_generic(geo, x, xi):
    """The prox by projected gradient with backtracking on h(y) = V(x, y) + <xi, y>,
    stopped at fixed-point (KKT) residual <= PROX_TOL.

    Independent of the closed forms; used to cross-validate them.
    """
    x, xi = geo._check_prox_args(x, xi)
    gx = mirror_grad(geo, x)

    def h(y):
        return bregman(geo, x, y) + float(xi @ y)

    y = x.copy()
    y_prev = y.copy()
    hy = h(y)
    step = 1.0
    mom = 0.0
    t_acc = 1.0
    for _ in range(PROX_MAX_ITER):
        g_y = mirror_grad(geo, y) - gx + xi
        # unit-step fixed-point residual certifies the KKT system
        resid = np.max(np.abs(y - project(geo, y - g_y)))
        if resid <= PROX_TOL:
            return y
        # momentum keeps the iteration count ~sqrt(kappa); the entropy
        # map's curvature blows up near the floor, so plain projected
        # gradient can exhaust the budget there
        z = project(geo, y + mom * (y - y_prev))
        g = mirror_grad(geo, z) - gx + xi
        hz = h(z)
        while True:
            y_trial = project(geo, z - step * g)
            delta = y_trial - z
            h_trial = h(y_trial)
            if h_trial <= hz + g @ delta + (delta @ delta) / (2.0 * step) + 1e-15:
                break
            step *= 0.5
            assert step >= 1e-18, "prox line search collapsed"
        if h_trial <= hy + 1e-15:
            y_prev, y, hy = y, y_trial, h_trial
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_acc**2))
            mom = (t_acc - 1.0) / t_next
            t_acc = t_next
        else:
            # extrapolation overshot: drop momentum, retry as plain PG
            t_acc = 1.0
            mom = 0.0
            y_prev = y.copy()
        step = min(step * 1.5, 1e6)
    raise AssertionError(
        f"generic prox did not reach KKT residual {PROX_TOL:g} in {PROX_MAX_ITER} iterations")
