"""Problem instances: quadratic minimization and affine skew VIs under Markov noise.

Both families share the same noise mechanism: a per-chain-state shift
vector with zero stationary mean, so the expected oracle equals the
mean-field gradient/operator exactly.  Constructors record the
norm-correct smoothness constant and the exact noise level, and attach
a reference solution verified at construction.
"""

from __future__ import annotations

import numpy as np

from .chain import TransitionKernel, stationary
from .errors import InputError, SolverError
from .geometry import BallGeometry, BoxGeometry, SimplexGeometry, _check_scale

__all__ = ["MinProblem", "ViProblem", "make_min_instance", "make_vi_instance",
           "matching_pennies", "reference_solution", "save_instance", "load_instance"]

_REF_MIN_TOL = 1e-10
_REF_VI_TOL = 1e-9
_REF_MAX_ITER = 10**6
# scale of a random game's linear term c, relative to its payoff entries
_AFFINE_SCALE = 0.1


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
    measured = float(np.max(geometry.dual_norm(shifts, axis=1))) if shifts.size else 0.0
    if sigma is None:
        return measured
    sigma = float(sigma)
    if abs(sigma - measured) > 1e-9 * max(1.0, sigma):
        raise InputError(f"stated sigma {sigma} disagrees with shifts (measured {measured})")
    return sigma


def _make_shifts(rng, kernel, geometry, scale):
    """Zero-pi-mean shift vectors with max dual norm exactly `scale`."""
    if scale == 0.0:
        return np.zeros((kernel.n_states, geometry.d))
    g = rng.normal(size=(kernel.n_states, geometry.d))
    g -= stationary(kernel) @ g
    peak = np.max(geometry.dual_norm(g, axis=1))
    return g * (scale / peak)


def _oracle(problem):
    """The stochastic oracle(x, z) of a problem: op_oracle for a VI, else grad_oracle."""
    return getattr(problem, "op_oracle", None) or problem.grad_oracle


class _ShiftedProblem:
    """Shared part of both families: an affine map M x +/- v over a geometry,
    perturbed at chain state z by a shift row of zero stationary mean.

    `_setup` checks shapes and the zero pi-mean of the shifts, records
    the norm-correct constant L of M, the noise level sigma and x*, and
    returns (M, v); subclasses name them and check the structure M needs.
    """

    def _setup(self, geometry, M, v, shifts, kernel, x_star, sigma):
        M = np.array(M, dtype=float)
        v = np.asarray(v, dtype=float)
        shifts = np.asarray(shifts, dtype=float)
        d = geometry.d
        if M.shape != (d, d) or v.shape != (d,):
            raise InputError(f"{self._names} shapes {M.shape}/{v.shape} do not match d={d}")
        M = self._check_matrix(M)
        if shifts.shape != (kernel.n_states, d):
            raise InputError(f"shifts shape {shifts.shape} != ({kernel.n_states}, {d})")
        pi = stationary(kernel)
        if np.max(np.abs(pi @ shifts)) > 1e-12:
            raise InputError("state shifts must have zero stationary mean")
        self.geometry = geometry
        self.shifts = shifts
        self.kernel = kernel
        self.L = _operator_norm(M, geometry.norm_pair.p)
        self.sigma = _checked_sigma(geometry, shifts, sigma)
        self.x_star = None if x_star is None else np.asarray(x_star, dtype=float)
        return M, v

    def _point(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.geometry.d,):
            raise InputError(f"x has shape {x.shape}, expected ({self.geometry.d},)")
        return x


class MinProblem(_ShiftedProblem):
    """min over the feasible set of f(x) = x'Ax/2 - b'x, A symmetric PSD.

    The stochastic gradient at chain state z is A x - b - c_z with
    state shifts c_z of zero stationary mean.
    """

    is_minimization = True
    _names = "A/b"

    def __init__(self, geometry, A, b, shifts, kernel, x_star=None, f_star=None,
                 sigma=None):
        self.A, self.b = self._setup(geometry, A, b, shifts, kernel, x_star, sigma)
        self.f_star = None if f_star is None else float(f_star)

    def _check_matrix(self, A):
        if np.max(np.abs(A - A.T)) > 1e-10:
            raise InputError("A must be symmetric")
        A = 0.5 * (A + A.T)
        if np.min(np.linalg.eigvalsh(A)) < -1e-10:
            raise InputError("A must be positive semidefinite")
        return A

    def f(self, x):
        x = np.asarray(x, dtype=float)
        return 0.5 * float(x @ self.A @ x) - float(self.b @ x)

    def grad(self, x):
        return self.A @ self._point(x) - self.b

    def grad_oracle(self, x, z):
        """Stochastic gradient A x - b - c_z; z may be an int or a state vector."""
        return self.grad(x) - self.shifts.take(z, axis=0)

    def noise_deviations(self):
        """Rows D[z] with grad_oracle(x, z) = grad(x) + D[z]."""
        return -self.shifts


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
        if np.min(np.linalg.eigvalsh(0.5 * (Q + Q.T))) < -1e-10:
            raise InputError("Q must have PSD symmetric part (monotone operator)")
        return Q

    def is_skew(self, tol=1e-12):
        return bool(np.max(np.abs(self.Q + self.Q.T)) <= tol)

    def op(self, x):
        return self.Q @ self._point(x) + self.c

    def op_oracle(self, x, z):
        """Stochastic operator Qx + c + e_z; z may be an int or a state vector."""
        return self.op(x) + self.shifts.take(z, axis=0)

    def noise_deviations(self):
        """Rows D[z] with op_oracle(x, z) = op(x) + D[z]."""
        return self.shifts


def _fw_gap(problem, x):
    """Frank-Wolfe gap max_v <grad f(x), x - v>; certifies f(x) - f* <= gap."""
    g = problem.grad(x)
    v = problem.geometry.linear_argmax(-g)
    return float(g @ (x - v))


def _solve_min_reference(problem):
    """Deterministic accelerated projected-gradient solve, certified by the FW gap."""
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
    raise SolverError(f"reference minimization did not reach FW gap {_REF_MIN_TOL:g}")


def _game_blocks(problem):
    """Split a two-block skew ViProblem into its payoff block, or None."""
    geo = problem.geometry
    if not isinstance(geo, SimplexGeometry) or geo.n_blocks != 2:
        return None
    if not problem.is_skew(tol=1e-10):
        return None
    d1, d2 = geo.block_dims
    Q = problem.Q
    if np.max(np.abs(Q[:d1, :d1])) > 1e-12 or np.max(np.abs(Q[d1:, d1:])) > 1e-12:
        return None
    return Q[:d1, d1:], problem.c[:d1], problem.c[d1:]


def _solve_game_lp(G, c1, c2):
    """Equilibrium of the zero-sum game with payoff G and linear terms: one LP and its duals."""
    from scipy.optimize import linprog  # the library's only scipy use

    d1, d2 = G.shape
    # linear terms fold into the payoff matrix on the product of simplexes
    M = G + np.outer(c1, np.ones(d2)) - np.outer(np.ones(d1), c2)
    # x minimizes max_j (M' x)_j; the duals of those d2 rows are the maximin y
    res = linprog(
        c=np.r_[np.zeros(d1), 1.0],
        A_ub=np.hstack([M.T, -np.ones((d2, 1))]),
        b_ub=np.zeros(d2),
        A_eq=np.r_[np.ones(d1), 0.0][None, :],
        b_eq=[1.0],
        bounds=[(0, None)] * d1 + [(None, None)],
        method="highs",
    )
    if not res.success:
        raise SolverError("game LP failed to solve")
    x = np.maximum(res.x[:d1], 0.0)
    y = np.maximum(-res.ineqlin.marginals, 0.0)
    return np.r_[x / x.sum(), y / y.sum()]


def _solve_vi_reference(problem):
    from .validation import err_vi  # local import to avoid a module cycle

    geo = problem.geometry
    blocks = _game_blocks(problem)
    if blocks is not None:
        x = _solve_game_lp(*blocks)
        # the floor fold (1 - nu) x + nu * center adds <= nu * err_vi(center): err_vi is convex
        fold = _REF_VI_TOL + geo.nu * err_vi(problem, geo.center())
        for point, bound in ((x, _REF_VI_TOL), (geo.renormalize(x), fold)):
            gap = err_vi(problem, point)
            if gap > bound:
                raise SolverError(f"LP equilibrium has gap {gap:.3e} > {bound:.3e}")
        return point
    # generic fallback: deterministic Euclidean extragradient with averaging
    L2 = float(np.linalg.norm(problem.Q, 2))
    gamma = 1.0 if L2 == 0.0 else 0.5 / L2
    x = geo.center()
    avg = np.zeros(geo.d)
    check_every = 1000
    for t in range(1, _REF_MAX_ITER + 1):
        half = geo.project(x - gamma * problem.op(x))
        x = geo.project(x - gamma * problem.op(half))
        avg += (half - avg) / t
        if t % check_every == 0 and err_vi(problem, avg) <= _REF_VI_TOL:
            return avg
    raise SolverError(f"extragradient reference did not reach gap {_REF_VI_TOL:g}")


def reference_solution(problem):
    """Recompute the reference solution: (x*, f*) for min, (x*, None) for VI."""
    if problem.is_minimization:
        return _solve_min_reference(problem)
    return _solve_vi_reference(problem), None


def make_min_instance(d, kernel, geometry_kind="box", noise_scale=1.0, seed=0,
                      smoothness=1.0, eigenvalues=None):
    """Random quadratic instance with a known interior minimizer.

    The target point is drawn strictly inside the feasible set and b is
    chosen as A @ target, so the unconstrained and constrained minimizers
    coincide and f* is exact.  `eigenvalues` overrides the default
    uniform-[0.05, 1] * smoothness spectrum (its max is pinned to
    `smoothness` otherwise).
    """
    _check_scale(smoothness, "smoothness")
    rng = np.random.default_rng(seed)
    if geometry_kind == "box":
        geo = BoxGeometry(d, 0.0, 1.0)
    elif geometry_kind == "ball":
        geo = BallGeometry(d, radius=1.0)
    elif geometry_kind == "simplex":
        geo = SimplexGeometry(d)
    else:
        raise InputError(f"unknown geometry kind {geometry_kind!r}")

    W = rng.normal(size=(d, d))
    V, _ = np.linalg.qr(W)
    if eigenvalues is None:
        eigs = rng.uniform(0.05, 1.0, size=d)
        eigs[int(np.argmax(eigs))] = 1.0
        eigs *= smoothness
    else:
        eigs = np.asarray(eigenvalues, dtype=float)
        if eigs.shape != (d,) or np.min(eigs) < 0.0:
            raise InputError("eigenvalues must be d nonnegative values")
    A = (V * eigs) @ V.T
    A = 0.5 * (A + A.T)

    if geometry_kind == "box":
        target = geo.center() + 0.35 * rng.uniform(-1.0, 1.0, size=d)
    elif geometry_kind == "ball":
        direction = rng.normal(size=d)
        direction /= np.linalg.norm(direction)
        target = geo.center() + 0.6 * geo.radius * rng.uniform() ** (1.0 / d) * direction
    else:
        target = geo.renormalize(0.5 * rng.dirichlet(np.ones(d)) + 0.5 / d)
    b = A @ target

    shifts = _make_shifts(rng, kernel, geo, noise_scale)
    f_star = 0.5 * float(target @ A @ target) - float(b @ target)
    return MinProblem(geo, A, b, shifts, kernel, x_star=target, f_star=f_star,
                      sigma=noise_scale)


def make_vi_instance(block_dims, kernel, noise_scale=1.0, seed=0, lipschitz=1.0):
    """Random two-player zero-sum game as a skew VI over a simplex product."""
    _check_scale(lipschitz, "lipschitz")
    block_dims = tuple(int(b) for b in block_dims)
    if len(block_dims) != 2:
        raise InputError(f"game instances need two blocks, got {block_dims}")
    rng = np.random.default_rng(seed)
    d1, d2 = block_dims
    geo = SimplexGeometry(block_dims)
    G = rng.normal(size=(d1, d2))
    G *= lipschitz / np.max(np.abs(G))
    d = d1 + d2
    Q = np.zeros((d, d))
    Q[:d1, d1:] = G
    Q[d1:, :d1] = -G.T
    c = _AFFINE_SCALE * lipschitz * rng.normal(size=d)
    shifts = _make_shifts(rng, kernel, geo, noise_scale)
    problem = ViProblem(geo, Q, c, shifts, kernel, sigma=noise_scale)
    problem.x_star = _solve_vi_reference(problem)
    return problem


def matching_pennies(kernel, block_dim=2, noise_scale=0.0, seed=0):
    """Canonical zero-value game with the uniform profile as equilibrium.

    block_dim = 2 is the classic sign matrix; larger blocks use the
    cyclic shift game P - P', whose uniform profile is also optimal.
    """
    if block_dim == 2:
        G = np.array([[1.0, -1.0], [-1.0, 1.0]])
    elif block_dim >= 3:
        P = np.roll(np.eye(block_dim), 1, axis=1)
        G = P - P.T
    else:
        raise InputError(f"block_dim must be >= 2, got {block_dim}")
    d = 2 * block_dim
    Q = np.zeros((d, d))
    Q[:block_dim, block_dim:] = G
    Q[block_dim:, :block_dim] = -G.T
    geo = SimplexGeometry((block_dim, block_dim))
    rng = np.random.default_rng(seed)
    shifts = _make_shifts(rng, kernel, geo, noise_scale)
    problem = ViProblem(geo, Q, np.zeros(d), shifts, kernel, x_star=geo.center(),
                        sigma=noise_scale)

    from .validation import err_vi

    gap = err_vi(problem, problem.x_star)
    if gap > _REF_VI_TOL:
        raise SolverError(f"uniform profile has gap {gap:.3e}, expected ~0")
    return problem


# -- instance export ----------------------------------------------------

def _fmt(x):
    return format(float(x), ".17g")


def _write_matrix(lines, name, M):
    M = np.atleast_2d(M)
    for i, row in enumerate(M):
        lines.append(f"{name}.row{i} = " + " ".join(_fmt(v) for v in row))


def save_instance(problem, path):
    """Write a problem to line-oriented text for exact re-runs."""
    geo = problem.geometry
    lines = ["# markovmirror instance v1"]
    lines.append(f"kind = {'min' if problem.is_minimization else 'vi'}")
    lines.append(f"geometry.kind = {geo.kind}")
    if isinstance(geo, BoxGeometry):
        lines.append(f"geometry.d = {geo.d}")
        lines.append(f"geometry.lo = {_fmt(geo.lo)}")
        lines.append(f"geometry.hi = {_fmt(geo.hi)}")
    elif isinstance(geo, BallGeometry):
        lines.append(f"geometry.d = {geo.d}")
        lines.append(f"geometry.radius = {_fmt(geo.radius)}")
        lines.append("geometry.center = " + " ".join(_fmt(v) for v in geo.center()))
    else:
        lines.append("geometry.blocks = " + " ".join(str(b) for b in geo.block_dims))
        lines.append(f"geometry.nu = {_fmt(geo.nu)}")
    _write_matrix(lines, "chain", problem.kernel.P)
    if problem.is_minimization:
        _write_matrix(lines, "A", problem.A)
        lines.append("b = " + " ".join(_fmt(v) for v in problem.b))
        lines.append(f"f_star = {_fmt(problem.f_star)}")
    else:
        _write_matrix(lines, "Q", problem.Q)
        lines.append("c = " + " ".join(_fmt(v) for v in problem.c))
    _write_matrix(lines, "shifts", problem.shifts)
    lines.append("x_star = " + " ".join(_fmt(v) for v in problem.x_star))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _collect_matrix(fields, name):
    rows = []
    i = 0
    while f"{name}.row{i}" in fields:
        rows.append([float(v) for v in fields[f"{name}.row{i}"].split()])
        i += 1
    if not rows:
        raise InputError(f"instance file is missing matrix {name!r}")
    return np.array(rows)


def load_instance(path):
    """Inverse of save_instance."""
    fields = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            fields[key.strip()] = value.strip()
    gkind = fields["geometry.kind"]
    if gkind == "box":
        geo = BoxGeometry(int(fields["geometry.d"]),
                          float(fields["geometry.lo"]), float(fields["geometry.hi"]))
    elif gkind == "ball":
        geo = BallGeometry(int(fields["geometry.d"]), float(fields["geometry.radius"]),
                           [float(v) for v in fields["geometry.center"].split()])
    elif gkind == "simplex-product":
        geo = SimplexGeometry([int(b) for b in fields["geometry.blocks"].split()],
                              nu=float(fields["geometry.nu"]))
    else:
        raise InputError(f"unknown geometry kind {gkind!r} in instance file")
    kernel = TransitionKernel(_collect_matrix(fields, "chain"))
    shifts = _collect_matrix(fields, "shifts")
    x_star = np.array([float(v) for v in fields["x_star"].split()])
    if fields["kind"] == "min":
        A = _collect_matrix(fields, "A")
        b = np.array([float(v) for v in fields["b"].split()])
        return MinProblem(geo, A, b, shifts, kernel,
                          x_star=x_star, f_star=float(fields["f_star"]))
    Q = _collect_matrix(fields, "Q")
    c = np.array([float(v) for v in fields["c"].split()])
    return ViProblem(geo, Q, c, shifts, kernel, x_star=x_star)
