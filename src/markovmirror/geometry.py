"""Feasible sets, mirror maps, and prox machinery.

Each geometry couples a feasible set with the mirror map that makes its
prox step closed-form: boxes and Euclidean balls with the half-squared
Euclidean map (norm exponent p = 2), and products of probability
simplexes with the negative-entropy map (p = 1).  The entropy map on a
K-block product is scaled by K so that the Bregman divergence stays
1-strongly convex with respect to the full l1 norm, not just blockwise.

Public `prox` checks its arguments and then takes the closed-form
`_step`, which checks nothing; the solvers start at `center()` and call
`_step` directly.  Besides the step, a geometry gives what the methods
and their metrics read: its diameter, a feasibility test, and the
linear maximization `err_vi` needs.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError, _check_scale, _count

__all__ = ["NormPair", "Geometry", "BoxGeometry", "BallGeometry", "SimplexGeometry"]

# Total probability mass reserved for the simplex floor; after every prox
# step a simplex block y is replaced by (1 - nu) * y + nu / dim so that
# entropy gradients stay finite on subsequent steps.
SIMPLEX_NU = 1e-9

# slack `contains` grants a point past the boundary of its feasible set, relative
# to the set's size: a ball's is this times its radius, a box's this times its width
_FEASIBLE_TOL = 1e-10


def _by_largest(v):
    """v divided by its largest entry in size."""
    return v / np.max(np.abs(v))


def _norm(v, ord):
    """np.linalg.norm along v's trailing axis: one value for a vector, one per row of an
    (n, d) stack.  Where that overflowed for a finite vector or row, it is
    max|v| * ||v / max|v|||, as a double allows."""
    v = np.asarray(v, dtype=float)
    rows = v.ndim > 1
    with np.errstate(over="ignore"):
        if ord == 2 and not rows:  # np.linalg.norm's own code, without its 1 us of wrapper
            x = v.ravel(order="K")
            out = np.sqrt(x.dot(x))
        else:
            out = np.linalg.norm(v, ord, -1 if rows else None)
        if np.all(np.isfinite(out)) if rows else math.isfinite(out):
            return out
        v = np.atleast_2d(v)
        fixed = np.array(out, dtype=float, ndmin=1)
        for i in np.flatnonzero(~np.isfinite(fixed) & np.all(np.isfinite(v), axis=1)):
            fixed[i] = np.max(np.abs(v[i])) * np.linalg.norm(_by_largest(v[i]), ord=ord)
        return fixed if rows else fixed[0]


class NormPair:
    """Primal exponent p together with its dual exponent q: p = 1 (q = inf) for the
    simplexes' l1 norm or p = 2 (q = 2) for the Euclidean sets; InputError for any other p."""

    __slots__ = ("p", "q")

    def __init__(self, p):
        self.p = float(p)
        if self.p not in (1.0, 2.0):
            raise InputError(f"norm exponent p={p!r} is neither 1 nor 2")
        self.q = np.inf if self.p == 1.0 else 2.0

    def norm(self, v):
        return _norm(v, self.p)

    def dual_norm(self, v):
        return _norm(v, self.q)

    def __repr__(self):
        return f"NormPair(p={self.p})"


class Geometry:
    """Base class: feasible set + mirror map + norm pair."""

    def __init__(self, d, norm_pair):
        self.d = _count(d, "dimension", 1)
        self.norm_pair = norm_pair

    # -- interface filled in by subclasses -----------------------------
    def _step(self, x, xi):
        """Closed-form prox step with no input checks; x must be a feasible anchor."""
        raise NotImplementedError

    def prox(self, x, xi):
        """argmin_y <xi, y> + V(x, y) over the feasible set, after checking x and xi."""
        x, xi = self._check_prox_args(x, xi)
        return self._step(x, xi)

    def diameter_sq(self):
        raise NotImplementedError

    def _check_diameter(self):
        """InputError unless diameter_sq() is a finite double; the stepsizes' D comes from it."""
        try:
            finite = math.isfinite(self.diameter_sq())
        except OverflowError:
            finite = False
        if not finite:
            raise InputError(f"{type(self).__name__}: the squared diameter overflows a double")

    def center(self):
        raise NotImplementedError

    def contains(self, x):
        raise NotImplementedError

    def linear_argmax(self, coef):
        """argmax over the feasible set of <coef, u>."""
        raise NotImplementedError

    # -- shared machinery ----------------------------------------------
    def _check_point(self, x, name="x"):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.d,):
            raise InputError(f"{name} has shape {x.shape}, expected ({self.d},)")
        if not np.all(np.isfinite(x)):
            raise InputError(f"{name} contains NaN/Inf")
        return x

    def _check_anchor(self, x):
        """Raise unless the checked point x is one prox steps may start from."""
        if not self.contains(x):
            raise InputError("prox anchored at infeasible x")

    def _check_prox_args(self, x, xi):
        x = self._check_point(x)
        xi = self._check_point(xi, "xi")
        self._check_anchor(x)
        return x, xi


class _EuclideanGeometry(Geometry):
    """Half-squared Euclidean mirror map (p = 2): the prox is project(x - xi)."""

    def __init__(self, d):
        super().__init__(d, NormPair(2.0))

    def _step(self, x, xi):
        return self.project(x - xi)


class BoxGeometry(_EuclideanGeometry):
    """[lo, hi]^d with the half-squared Euclidean mirror map (p = 2)."""

    def __init__(self, d, lo=0.0, hi=1.0):
        super().__init__(d)
        self.lo = float(lo)
        self.hi = float(hi)
        width = _check_scale(self.hi - self.lo, f"box [{lo}, {hi}] width")
        self._slack = _FEASIBLE_TOL * width
        self._check_diameter()

    def diameter_sq(self):
        return self.d * (self.hi - self.lo) ** 2 / 8.0

    def center(self):
        return np.full(self.d, 0.5 * (self.lo + self.hi))

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        return x.shape == (self.d,) and bool(np.all(x >= self.lo - self._slack)
                                             and np.all(x <= self.hi + self._slack))

    def project(self, v):
        return np.minimum(np.maximum(v, self.lo), self.hi)

    def linear_argmax(self, coef):
        coef = self._check_point(coef, "coef")
        return np.where(coef > 0, self.hi, self.lo).astype(float)


class BallGeometry(_EuclideanGeometry):
    """Origin-centred Euclidean ball with the half-squared Euclidean mirror map (p = 2)."""

    def __init__(self, d, radius=1.0):
        super().__init__(d)
        self.radius = _check_scale(radius, "ball radius")
        self._slack = _FEASIBLE_TOL * self.radius
        self._check_diameter()

    def diameter_sq(self):
        return self.radius**2 / 2.0

    def center(self):
        return np.zeros(self.d)

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        return x.shape == (self.d,) and bool(self.norm_pair.norm(x) <= self.radius + self._slack)

    def project(self, v):
        v = np.asarray(v, dtype=float)
        r = self.norm_pair.norm(v)
        return v.copy() if r <= self.radius else self._on_sphere(v, r)

    def linear_argmax(self, coef):
        coef = self._check_point(coef, "coef")
        r = self.norm_pair.norm(coef)
        return self.center() if r == 0.0 else self._on_sphere(coef, r)

    def _on_sphere(self, off, r):
        """The sphere point in the direction of `off`, whose norm is r."""
        if not math.isfinite(r):
            # the norm of a finite vector is past the largest double; scale it down first
            off = _by_largest(off)
            r = self.norm_pair.norm(off)
        return off * (self.radius / r)


class SimplexGeometry(Geometry):
    """Product of probability simplexes with the negative-entropy map (p = 1).

    A plain simplex is the one-block case.  The entropy map is scaled by
    the number of blocks K: V(x, y) = K * sum_k KL(y_k || x_k), which is
    what 1-strong convexity w.r.t. the full l1 norm requires on products.
    Every prox output is folded onto {y_i >= nu/dim, sum = 1} by mixing a
    nu-fraction of the uniform block back in.
    """

    def __init__(self, block_dims):
        self.block_dims = tuple(_count(b, "simplex block dimension", 2)
                                for b in np.atleast_1d(block_dims))
        super().__init__(sum(self.block_dims), NormPair(1.0))
        self.nu = SIMPLEX_NU
        self.n_blocks = len(self.block_dims)
        # the block layout: segment reductions over all blocks at once are
        # reduceat over the block starts, spread back over each block by a
        # take of its coordinates' block index (cheaper than np.repeat)
        self._dims = np.array(self.block_dims)
        self._starts = np.concatenate(([0], np.cumsum(self._dims)[:-1]))
        self._block = np.repeat(np.arange(self.n_blocks), self._dims)
        self._floors = np.repeat(self.nu / self._dims, self._dims)

    def blocks(self, x):
        """Views of x's blocks along its trailing axis."""
        return np.split(x, self._starts[1:], axis=-1)

    def _check_anchor(self, x):
        super()._check_anchor(x)
        if np.min(x) <= 0.0:
            raise InputError("entropy mirror map needs a strictly interior base point")

    def renormalize(self, y):
        """Fold nonnegative blockwise-unit rows (trailing axis) onto the floored simplex."""
        sums = np.add.reduceat(y, self._starts, axis=-1).take(self._block, axis=-1)
        return (1.0 - self.nu) * (y / sums) + self._floors

    def _step(self, x, xi):
        # exponential reweighting, stabilized by subtracting each block's max
        a = np.log(x) - xi / self.n_blocks
        a -= np.maximum.reduceat(a, self._starts).take(self._block)
        return self.renormalize(np.exp(a))

    def diameter_sq(self):
        # max_y V(center, y) in the nu -> 0 limit: K * sum_k log(dim_k)
        return self.n_blocks * float(sum(np.log(b) for b in self.block_dims))

    def center(self):
        return np.repeat(1.0 / self._dims, self._dims)

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        return x.shape == (self.d,) and bool(
            np.all(np.abs(np.add.reduceat(x, self._starts) - 1.0) <= _FEASIBLE_TOL)
            and np.all(x >= self._floors - _FEASIBLE_TOL))

    def _one_hot(self, offsets):
        """The vertex with a 1 at the given offset within each block."""
        out = np.zeros(self.d)
        out[self._starts + offsets] = 1.0
        return out

    def linear_argmax(self, coef):
        coef = self._check_point(coef, "coef")
        return self._one_hot([np.argmax(b) for b in self.blocks(coef)])
