"""Problem instances: quadratic minimization and affine skew VIs under Markov noise.

Both families share the same noise mechanism: a per-chain-state shift
vector with zero stationary mean, so the expected oracle equals the
mean-field gradient/operator exactly.  Constructors record the
norm-correct smoothness constant and the exact noise level, and attach
x* where the construction fixes it: a quadratic's planted minimizer and
matching pennies' uniform profile.  A random game carries none; err_vi
is exact without it.  The instances have unit scale: a run at scale s
with noise sigma is the run at scale 1 with noise sigma / s, every gap
times s, since every stepsize comes from (L, D, sigma, tau).
"""

from __future__ import annotations

import numpy as np

from .chain import stationary
from .errors import InputError, _check_scale, _count
from .geometry import BallGeometry, BoxGeometry, SimplexGeometry

__all__ = ["MinProblem", "ViProblem", "make_min_instance", "make_vi_instance",
           "matching_pennies"]

# matrix tests' slack relative to the largest entry, and absolute below 1:
# the symmetry and PSD tests, and the largest |Q + Q'| of a skew operator
_MATRIX_TOL = 1e-10
# scale of a random game's linear term c, relative to its payoff entries
_AFFINE_SCALE = 0.1


def _matrix_tol(M):
    return _MATRIX_TOL * max(1.0, float(np.max(np.abs(M))))


def _operator_norm(M, p):
    """||M||_{p -> q} for the library's two norm regimes (p = 1 or 2)."""
    if p == 2.0:
        return float(np.linalg.norm(M, 2))
    if p == 1.0:
        # l1 -> linf operator norm is the largest absolute entry
        return float(np.max(np.abs(M))) if M.size else 0.0
    raise InputError(f"no operator-norm rule for p={p}")


def _checked_sigma(geometry, shifts, sigma):
    """Recorded noise level: the stated value if consistent, else the recomputed max."""
    measured = float(np.max(geometry.norm_pair.dual_norm(shifts))) if shifts.size else 0.0
    if sigma is None:
        return measured
    sigma = _check_scale(sigma, "sigma", zero_ok=True)
    if abs(sigma - measured) > 1e-9 * max(1.0, sigma):
        raise InputError(f"stated sigma {sigma} disagrees with shifts (measured {measured})")
    return sigma


def _make_shifts(rng, kernel, geometry, scale):
    """Zero-pi-mean shift vectors with max dual norm exactly `scale`."""
    if _check_scale(scale, "noise_scale", zero_ok=True) == 0.0:
        return np.zeros((kernel.n_states, geometry.d))
    g = rng.normal(size=(kernel.n_states, geometry.d))
    g -= stationary(kernel) @ g
    peak = np.max(geometry.norm_pair.dual_norm(g))
    if peak == 0.0:  # a one-state chain: every zero-mean shift is 0
        raise InputError("noise_scale > 0 needs a chain whose zero-mean shifts are not all "
                         "zero, i.e. two or more states")
    return g * (scale / peak)


def _oracle(problem):
    """The stochastic oracle(x, z) of a problem: op_oracle for a VI, else grad_oracle."""
    return getattr(problem, "op_oracle", None) or problem.grad_oracle


class _ShiftedProblem:
    """Shared part of both families: an affine map M x +/- v over a geometry,
    perturbed at chain state z by a shift row of zero stationary mean.

    `_setup` checks shapes, that every given value is finite and the zero
    pi-mean of the shifts, records the norm-correct constant L of M, the
    noise level sigma and x*, and returns (M, v); subclasses name them
    and check the structure M needs.
    """

    def _setup(self, geometry, M, v, shifts, kernel, x_star, sigma):
        M = np.array(M, dtype=float)
        v = np.asarray(v, dtype=float)
        shifts = np.array(shifts, dtype=float)
        x_star = None if x_star is None else np.asarray(x_star, dtype=float)
        d = geometry.d
        if M.shape != (d, d) or v.shape != (d,):
            raise InputError(f"{self._names} shapes {M.shape}/{v.shape} do not match d={d}")
        if x_star is not None and x_star.shape != (d,):
            raise InputError(f"x_star has shape {x_star.shape}, expected ({d},)")
        for name, value in ((self._names, M), (self._names, v), ("shifts", shifts),
                            ("x_star", x_star)):
            if value is not None and not np.isfinite(value).all():
                raise InputError(f"{name} must be finite")
        M = self._check_matrix(M)
        if shifts.shape != (kernel.n_states, d):
            raise InputError(f"shifts shape {shifts.shape} != ({kernel.n_states}, {d})")
        pi = stationary(kernel)
        # relative to the shifts' size: centring them leaves about eps times their peak
        if np.max(np.abs(pi @ shifts)) > 1e-12 * max(1.0, np.max(np.abs(shifts))):
            raise InputError("state shifts must have zero stationary mean")
        shifts.flags.writeable = False  # its own copy: an in-place write cannot reach it
        self.geometry = geometry
        self.shifts = shifts
        self.kernel = kernel
        self.L = _operator_norm(M, geometry.norm_pair.p)
        self.sigma = _checked_sigma(geometry, shifts, sigma)
        self.x_star = x_star
        return M, v

    def _shifted(self, ufunc, value, z):
        """ufunc(value, shift row of state z), or of each row of a state vector.

        One int state reads a view of its row.  A state vector takes its
        (k, d) rows and combines them with `value` in place, so that the
        result is the only (k, d) array the call makes.
        """
        if type(z) is int:
            return ufunc(value, self.shifts[z])
        rows = self.shifts.take(z, axis=0)
        return ufunc(value, rows, out=rows)

    def _point(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.geometry.d,):
            raise InputError(f"x has shape {x.shape}, expected ({self.geometry.d},)")
        return x


class MinProblem(_ShiftedProblem):
    """min over the feasible set of f(x) = x'Ax/2 - b'x, A symmetric PSD.

    The stochastic gradient at chain state z is A x - b - c_z with
    state shifts c_z of zero stationary mean.  f_star is f(x_star), or
    None without an x_star.
    """

    is_minimization = True
    _names = "A/b"

    def __init__(self, geometry, A, b, shifts, kernel, x_star=None, sigma=None):
        self.A, self.b = self._setup(geometry, A, b, shifts, kernel, x_star, sigma)
        self.f_star = None if self.x_star is None else self.f(self.x_star)

    def _check_matrix(self, A):
        tol = _matrix_tol(A)
        if np.max(np.abs(A - A.T)) > tol:
            raise InputError("A must be symmetric")
        A = 0.5 * (A + A.T)
        if np.min(np.linalg.eigvalsh(A)) < -tol:
            raise InputError("A must be positive semidefinite")
        return A

    def f(self, x):
        x = np.asarray(x, dtype=float)
        return 0.5 * float(x @ self.A @ x) - float(self.b @ x)

    def grad(self, x):
        return self.A @ self._point(x) - self.b

    def grad_oracle(self, x, z):
        """Stochastic gradient A x - b - c_z; z may be an int or a state vector."""
        return self._shifted(np.subtract, self.grad(x), z)

    def noise_deviations(self):
        """Rows D[z] with grad_oracle(x, z) = grad(x) + D[z]: -shifts, read-only as the shifts."""
        dev = -self.shifts
        dev.flags.writeable = False
        return dev


class ViProblem(_ShiftedProblem):
    """Monotone affine VI F(x) = Qx + c over the feasible set.

    Factory-built instances have skew-symmetric Q (two-player zero-sum
    structure), which is what the exact gap reduction in the validation
    layer requires; construction itself only demands a PSD symmetric
    part so hand-rolled monotone test operators remain expressible.
    The stochastic operator at chain state z is Qx + c + e_z.
    """

    is_minimization = False
    _names = "Q/c"

    def __init__(self, geometry, Q, c, shifts, kernel, x_star=None, sigma=None):
        self.Q, self.c = self._setup(geometry, Q, c, shifts, kernel, x_star, sigma)
        # per-state operators differ from F by a constant, so the uniform
        # per-realization Lipschitz constant coincides with L
        self.L_tilde = self.L

    def _check_matrix(self, Q):
        if np.min(np.linalg.eigvalsh(0.5 * (Q + Q.T))) < -_matrix_tol(Q):
            raise InputError("Q must have PSD symmetric part (monotone operator)")
        return Q

    def is_skew(self):
        return bool(np.max(np.abs(self.Q + self.Q.T)) <= _matrix_tol(self.Q))

    def op(self, x):
        return self.Q @ self._point(x) + self.c

    def op_oracle(self, x, z):
        """Stochastic operator Qx + c + e_z; z may be an int or a state vector."""
        return self._shifted(np.add, self.op(x), z)

    def noise_deviations(self):
        """Rows D[z] with op_oracle(x, z) = op(x) + D[z]: the read-only shifts themselves."""
        return self.shifts


def make_min_instance(d, kernel, geometry_kind="box", noise_scale=1.0, seed=0,
                      eigenvalues=None):
    """Random quadratic instance with a known interior minimizer.

    The target point is drawn strictly inside the feasible set and b is
    chosen as A @ target, so the unconstrained and constrained minimizers
    coincide and f* is exact.  `eigenvalues` overrides the default
    uniform-[0.05, 1] spectrum, whose max is pinned to 1.
    """
    d = _count(d, "dimension", 1)
    rng = np.random.default_rng(seed)
    W = rng.normal(size=(d, d))
    V, _ = np.linalg.qr(W)
    if eigenvalues is None:
        eigs = rng.uniform(0.05, 1.0, size=d)
        eigs[int(np.argmax(eigs))] = 1.0
    else:
        eigs = np.asarray(eigenvalues, dtype=float)
        if eigs.shape != (d,) or not (np.isfinite(eigs).all() and np.min(eigs) >= 0.0):
            raise InputError("eigenvalues must be d finite nonnegative values")
    A = (V * eigs) @ V.T
    A = 0.5 * (A + A.T)

    if geometry_kind == "box":
        geo = BoxGeometry(d, 0.0, 1.0)
        target = geo.center() + 0.35 * rng.uniform(-1.0, 1.0, size=d)
    elif geometry_kind == "ball":
        geo = BallGeometry(d, radius=1.0)
        direction = rng.normal(size=d)
        direction /= geo.norm_pair.norm(direction)
        target = geo.center() + 0.6 * geo.radius * rng.uniform() ** (1.0 / d) * direction
    elif geometry_kind == "simplex":
        geo = SimplexGeometry(d)
        target = geo.renormalize(0.5 * rng.dirichlet(np.ones(d)) + 0.5 / d)
    else:
        raise InputError(f"unknown geometry kind {geometry_kind!r}")
    b = A @ target

    shifts = _make_shifts(rng, kernel, geo, noise_scale)
    return MinProblem(geo, A, b, shifts, kernel, x_star=target, sigma=noise_scale)


def _game(geo, G, c, kernel, noise_scale, rng, x_star=None):
    """The zero-sum game with payoff block G over the two blocks of `geo` as a skew ViProblem.

    Its shifts are drawn from `rng` after G and c.  x* is `x_star`, which
    only a construction that fixes the equilibrium passes.
    """
    d1 = G.shape[0]
    Q = np.zeros((geo.d, geo.d))
    Q[:d1, d1:] = G
    Q[d1:, :d1] = -G.T
    shifts = _make_shifts(rng, kernel, geo, noise_scale)
    return ViProblem(geo, Q, c, shifts, kernel, x_star=x_star, sigma=noise_scale)


def make_vi_instance(block_dims, kernel, noise_scale=1.0, seed=0):
    """Random two-player zero-sum game as a skew VI over a simplex product.

    The payoff block has max |entry| 1, so L = 1 in the l1 geometry.
    """
    geo = SimplexGeometry(block_dims)
    if geo.n_blocks != 2:
        raise InputError(f"game instances need two blocks, got {geo.block_dims}")
    rng = np.random.default_rng(seed)
    G = rng.normal(size=geo.block_dims)
    G *= 1.0 / np.max(np.abs(G))  # not G /= max: that rounds differently in the last bit
    c = _AFFINE_SCALE * rng.normal(size=geo.d)
    return _game(geo, G, c, kernel, noise_scale, rng)


def matching_pennies(kernel, block_dim=2, noise_scale=0.0, seed=0):
    """Canonical zero-value game with the uniform profile as equilibrium.

    block_dim = 2 is the classic sign matrix; larger blocks use the
    cyclic shift game P - P', whose uniform profile is also optimal.
    """
    block_dim = _count(block_dim, "block_dim", 2)
    if block_dim == 2:
        G = np.array([[1.0, -1.0], [-1.0, 1.0]])
    else:
        P = np.roll(np.eye(block_dim), 1, axis=1)
        G = P - P.T
    geo = SimplexGeometry((block_dim, block_dim))
    return _game(geo, G, np.zeros(geo.d), kernel, noise_scale, np.random.default_rng(seed),
                 x_star=geo.center())
