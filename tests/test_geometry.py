import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from markovmirror import (
    BallGeometry,
    BoxGeometry,
    InputError,
    NormPair,
    SimplexGeometry,
)
from geometry_reference import block_slices, bregman, project, prox_generic, sample


def all_geometries():
    return [
        BoxGeometry(4),
        BoxGeometry(3, lo=-2.0, hi=1.5),
        BallGeometry(4, radius=2.0),
        BallGeometry(2, radius=0.5),
        SimplexGeometry(3),
        SimplexGeometry((2, 3)),
        SimplexGeometry((3, 4)),
    ]


# ---------------------------------------------------------------------------
# norm pairs


def holder_maximizer(pair, v):
    """Unit-p-norm z achieving <v, z> = ||v||_q."""
    v = np.asarray(v, dtype=float)
    if not np.any(v):
        return np.zeros_like(v)
    if pair.p == 1.0:
        z = np.zeros_like(v)
        i = int(np.argmax(np.abs(v)))
        z[i] = np.sign(v[i])
        return z
    q = pair.q
    scale = np.linalg.norm(v, ord=q) ** (q - 1.0)
    return np.sign(v) * np.abs(v) ** (q - 1.0) / scale


def test_dual_norm_identity_against_holder_maximizer(rng):
    for p in (1.0, 1.3, 1.7, 2.0):
        np_pair = NormPair(p)
        for _ in range(50):
            v = rng.normal(size=6)
            z = holder_maximizer(np_pair, v)
            assert np_pair.norm(z) <= 1.0 + 1e-12
            np.testing.assert_allclose(z @ v, np_pair.dual_norm(v), rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("p", [0.5, 0.99, 2.01, 3.0, np.inf])
def test_norm_exponent_outside_range_rejected(p):
    with pytest.raises(InputError):
        NormPair(p)


def test_dual_exponent_pairing():
    assert NormPair(2.0).q == 2.0
    assert NormPair(1.0).q == np.inf
    np.testing.assert_allclose(NormPair(1.5).q, 3.0)


# ---------------------------------------------------------------------------
# bregman values


def test_bregman_euclidean_half_squared_distance():
    geo = BoxGeometry(2, lo=-5.0, hi=5.0)
    assert bregman(geo, np.zeros(2), np.array([3.0, 4.0])) == pytest.approx(12.5)


def test_bregman_zero_at_equal_points(rng):
    for geo in all_geometries():
        x = sample(geo, rng)
        assert bregman(geo, x, x) == pytest.approx(0.0, abs=1e-12)


def test_bregman_entropy_is_kl():
    geo = SimplexGeometry(2)
    x = np.array([0.5, 0.5])
    y = np.array([0.9, 0.1])
    kl = 0.9 * np.log(1.8) + 0.1 * np.log(0.2)
    np.testing.assert_allclose(bregman(geo, x, y), kl, rtol=1e-12)
    assert bregman(geo, x, x) == 0.0


def test_entropy_prox_from_a_boundary_anchor_rejected():
    # a block of 20 has floors of 5e-11, under the membership slack, so a zero entry is contained
    geo = SimplexGeometry(20)
    x = np.r_[0.0, np.full(19, 1.0 / 19)]
    assert geo.contains(x)
    with pytest.raises(InputError, match="strictly interior base point"):
        geo.prox(x, np.zeros(20))


def test_bregman_nonnegative_on_random_pairs(rng):
    for geo in all_geometries():
        for _ in range(100):
            x, y = sample(geo, rng), sample(geo, rng)
            assert bregman(geo, x, y) >= -1e-12


# ---------------------------------------------------------------------------
# prox values


def test_prox_box_clips():
    geo = BoxGeometry(2)
    out = geo.prox(np.array([0.5, 0.5]), np.array([0.2, -0.2]))
    np.testing.assert_allclose(out, [0.3, 0.7], rtol=0, atol=1e-15)


@settings(max_examples=200, deadline=None)
@given(arrays(float, 10, elements=st.floats(allow_nan=True, allow_infinity=True)))
def test_box_projection_equals_clip(v):
    geo = BoxGeometry(10, lo=-2.0, hi=1.5)
    np.testing.assert_array_equal(geo.project(v), np.clip(v, -2.0, 1.5))


def test_prox_simplex_identity_at_zero_dual():
    geo = SimplexGeometry(3)
    x = np.full(3, 1.0 / 3.0)
    np.testing.assert_allclose(geo.prox(x, np.zeros(3)), x, atol=1e-12)


def test_prox_simplex_exponential_reweighting():
    geo = SimplexGeometry(3)
    x = np.array([0.5, 0.3, 0.2])
    out = geo.prox(x, np.array([np.log(2.0), 0.0, 0.0]))
    # weights (0.25, 0.3, 0.2) renormalized
    np.testing.assert_allclose(out, [1 / 3, 0.4, 4 / 15], atol=2e-9)


def test_prox_zero_dual_is_identity_up_to_floor(rng):
    for geo in all_geometries():
        for _ in range(20):
            x = sample(geo, rng)
            np.testing.assert_allclose(geo.prox(x, np.zeros(geo.d)), x, atol=1e-8)


def test_prox_rejects_nonfinite_dual():
    geo = BoxGeometry(2)
    for bad in (np.array([np.nan, 0.0]), np.array([np.inf, 0.0])):
        with pytest.raises(InputError):
            geo.prox(geo.center(), bad)


def test_prox_ball_radial_projection():
    geo = BallGeometry(2, radius=1.0)
    out = geo.prox(np.zeros(2), np.array([-3.0, -4.0]))  # x - xi = (3,4), outside
    np.testing.assert_allclose(out, [0.6, 0.8], rtol=1e-12)


def test_prox_outputs_feasible(rng):
    for geo in all_geometries():
        for _ in range(50):
            x = sample(geo, rng)
            xi = rng.normal(scale=3.0, size=geo.d)
            assert geo.contains(geo.prox(x, xi))


def _simplex_step_by_blocks(geo, x, xi):
    """Block-by-block entropy prox, the reference for the one-pass `_step`."""
    out = np.empty_like(x)
    for s, b in zip(block_slices(geo), geo.block_dims):
        a = np.log(x[s]) - xi[s] / geo.n_blocks
        a -= np.max(a)
        w = np.exp(a)
        out[s] = (1.0 - geo.nu) * (w / np.sum(w)) + geo.nu / b
    return out


STEP_GEOMETRIES = {
    "box-8": BoxGeometry(8),
    "box-10": BoxGeometry(10, lo=-2.0, hi=1.5),
    "ball-8": BallGeometry(8, radius=2.0),
    "ball-10": BallGeometry(10, radius=0.5),
    "simplex-4-4": SimplexGeometry((4, 4)),
    "simplex-2-3-5": SimplexGeometry((2, 3, 5)),
}


@pytest.mark.parametrize("name", sorted(STEP_GEOMETRIES))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_unchecked_step_matches_prox_and_stays_feasible(name, data):
    geo = STEP_GEOMETRIES[name]
    # projecting an arbitrary vector gives feasible anchors, boundary ones included
    x = project(geo, data.draw(arrays(float, geo.d, elements=st.floats(-10.0, 10.0))))
    xi = data.draw(arrays(float, geo.d, elements=st.floats(-1e4, 1e4)))
    out = geo._step(x, xi)
    np.testing.assert_allclose(out, geo.prox(x, xi), rtol=0, atol=1e-14)
    if isinstance(geo, SimplexGeometry):
        np.testing.assert_allclose(out, _simplex_step_by_blocks(geo, x, xi), rtol=0, atol=1e-14)
    assert geo.contains(out)


@settings(max_examples=200, deadline=None)
@given(direction=arrays(float, st.integers(1, 12), elements=st.floats(-1.0, 1.0)),
       exponent=st.integers(12, 308), radius=st.floats(0.5, 4.0))
def test_ball_steps_of_huge_duals_reach_the_boundary(direction, exponent, radius):
    # |xi| from 1e12 up to 1e308, past where the norm of xi overflows
    assume(np.max(np.abs(direction)) >= 0.1)
    geo = BallGeometry(direction.size, radius=radius)
    xi = direction * 10.0**exponent
    out = geo.prox(geo.center(), xi)
    assert geo.contains(out)
    unit = direction / np.linalg.norm(direction)
    np.testing.assert_allclose(out, geo.center() - radius * unit, rtol=0, atol=1e-12)
    top = geo.linear_argmax(xi)
    np.testing.assert_allclose(top, geo.center() + radius * unit, rtol=0, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(dims=st.lists(st.integers(2, 5), min_size=1, max_size=3),
       anchor=arrays(float, 15, elements=st.floats(-10.0, 10.0)),
       direction=arrays(float, 15, elements=st.floats(-1.0, 1.0)), exponent=st.integers(0, 308))
@example(dims=[3], anchor=np.zeros(15), direction=np.r_[1.0, -1.0, np.zeros(13)], exponent=308)
def test_simplex_steps_of_huge_duals_stay_feasible(dims, anchor, direction, exponent):
    # |xi| up to 1e308, the ball's range; boundary anchors included
    geo = SimplexGeometry(dims)
    x = project(geo, anchor[:geo.d])
    xi = direction[:geo.d] * 10.0**exponent
    # a block's shift by its largest exponent may overflow to -inf, whose exp is the 0 it stands for
    with np.errstate(over="ignore"):
        out = geo._step(x, xi)
        ref = _simplex_step_by_blocks(geo, x, xi)
    assert np.all(np.isfinite(out)) and geo.contains(out)
    np.testing.assert_allclose(out, ref, rtol=0, atol=1e-14)


def test_closed_form_prox_matches_generic_solver(rng):
    geos = [
        BoxGeometry(3, lo=-1.0, hi=2.0),
        BallGeometry(4, radius=1.5),
        SimplexGeometry(4),
        SimplexGeometry((2, 3)),
    ]
    for geo in geos:
        for _ in range(8):
            x = sample(geo, rng)
            xi = rng.normal(size=geo.d)
            fast = geo.prox(x, xi)
            slow = prox_generic(geo, x, xi)
            np.testing.assert_allclose(fast, slow, atol=1e-6)


def prox_nonexpansive_check(geometry, x, eta, zeta):
    """True iff ||P_x(eta) - P_x(zeta)||_p <= ||eta - zeta||_q + 1e-9, the float slack."""
    lhs = geometry.norm_pair.norm(geometry.prox(x, eta) - geometry.prox(x, zeta))
    rhs = geometry.norm_pair.dual_norm(np.asarray(eta, float) - np.asarray(zeta, float))
    return bool(lhs <= rhs + 1e-9)


def test_prox_nonexpansive_on_random_triples(rng):
    for geo in all_geometries():
        for _ in range(1000):
            x = sample(geo, rng)
            eta = rng.normal(size=geo.d)
            zeta = rng.normal(size=geo.d)
            assert prox_nonexpansive_check(geo, x, eta, zeta)


def _scaled_duals(d):
    """direction * 10^e with e in [-300, 300], one e for the vector or one per entry."""
    exponents = st.one_of(st.integers(-300, 300).map(lambda e: np.full(d, e)),
                          arrays(int, d, elements=st.integers(-300, 300)))
    return st.builds(lambda direction, e: direction * 10.0**e,
                     arrays(float, d, elements=st.floats(-1.0, 1.0)), exponents)


@pytest.mark.parametrize("geo", all_geometries(), ids=lambda geo: f"{type(geo).__name__}-{geo.d}")
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_prox_nonexpansive_at_extreme_duals(geo, data):
    # zeta drawn apart from eta, so magnitudes from 1e-300 to 1e300 meet in one pair,
    # or as eta plus such a step, so that a huge dual meets its near neighbours
    x = project(geo, data.draw(arrays(float, geo.d, elements=st.floats(-10.0, 10.0))))
    eta, zeta = data.draw(_scaled_duals(geo.d)), data.draw(_scaled_duals(geo.d))
    if data.draw(st.booleans()):
        zeta = eta + zeta
    with np.errstate(over="ignore"):
        lhs = geo.norm_pair.norm(geo.prox(x, eta) - geo.prox(x, zeta))
        rhs = geo.norm_pair.dual_norm(eta - zeta) * (1 + 1e-12) + 1e-12
    assert np.isfinite(rhs)  # every entry of eta - zeta is at most 2e300 in size
    assert lhs <= rhs


def test_norms_of_huge_finite_vectors_stay_finite():
    # the Euclidean norm used to be sqrt(v . v), which overflows to inf for |v| past 1.3e154
    euclid, l1 = NormPair(2), NormPair(1)
    assert euclid.dual_norm([1e200, 0]) == 1e200
    assert euclid.norm(np.array([3e300, -4e300])) == pytest.approx(5e300, rel=1e-15)
    assert l1.norm(np.array([1e308, -5e307])) == pytest.approx(1.5e308, rel=1e-15)
    assert l1.dual_norm(np.array([1e308, -5e307])) == 1e308
    rows = np.array([[3e200, 4e200], [3.0, 4.0], [np.inf, 0.0], [0.0, 0.0], [1e308, 1e308]])
    got = euclid.dual_norm(rows)
    np.testing.assert_allclose(got[[0, 4]], [5e200, np.sqrt(2) * 1e308], rtol=1e-15)
    assert got[1:4].tolist() == [5.0, np.inf, 0.0]
    assert np.isnan(euclid.dual_norm(np.array([[np.nan, 1.0]]))[0])
    # a norm past the largest double is inf, with no overflow warning
    assert l1.norm(np.array([1e308, 1e308])) == np.inf


def test_ball_methods_take_huge_finite_vectors_without_overflow():
    # np.linalg.norm([1e200, 0]) overflows in its dot, a RuntimeWarning the tests raise as an error
    ball = BallGeometry(2, radius=2.0)
    big = np.array([1e200, 0.0])
    assert ball.project(big).tolist() == [2.0, 0.0]
    assert not ball.contains(big)
    assert ball.linear_argmax(-big).tolist() == [-2.0, 0.0]
    assert ball.prox(ball.center(), big).tolist() == [-2.0, 0.0]
    # below the overflow the same norm call decides, so the results are the same bits
    v = np.array([3.0, 4.0])
    assert ball.project(v).tolist() == (v * (2.0 / np.linalg.norm(v))).tolist()
    assert ball.linear_argmax(v).tolist() == (v * (2.0 / np.linalg.norm(v))).tolist()


@settings(max_examples=200, deadline=None)
@given(v=arrays(float, st.tuples(st.integers(1, 4), st.integers(1, 6)),
                elements=st.floats(-1e100, 1e100)))
def test_finite_norms_are_numpys_bit_for_bit(v):
    # |entries| <= 1e100 keep numpy's own norms finite, q = 3 (cubes) included; a column
    # and a reversed row are strided vectors
    for pair in (NormPair(1), NormPair(1.5), NormPair(2)):
        for ord, norm in ((pair.p, pair.norm), (pair.q, pair.dual_norm)):
            for vec in (v[0], v[:, 0], v[0, ::-1]):
                assert norm(vec) == np.linalg.norm(vec, ord=ord)
            assert norm(v).tolist() == np.linalg.norm(v, ord=ord, axis=1).tolist()


def test_prox_nonexpansive_trivial_cases():
    box = BoxGeometry(3)
    x = box.center()
    eta = np.array([0.3, -0.1, 0.2])
    assert prox_nonexpansive_check(box, x, eta, eta)
    np.testing.assert_allclose(box.prox(x, eta), box.prox(x, eta.copy()), atol=0)
    ball = BallGeometry(2)
    assert prox_nonexpansive_check(ball, ball.center(), np.array([1.0, 0.0]), np.zeros(2))
    # projection is 1-Lipschitz: the moved distance equals ||eta|| here
    moved = ball.norm_pair.norm(ball.prox(ball.center(), np.array([1.0, 0.0])) - ball.center())
    assert moved <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# diameters and strong convexity


def test_diameter_values():
    assert BoxGeometry(5).diameter_sq() == pytest.approx(5 / 8)
    assert BoxGeometry(2, lo=0.0, hi=3.0).diameter_sq() == pytest.approx(2 * 9 / 8)
    assert BallGeometry(3, radius=2.0).diameter_sq() == pytest.approx(2.0)
    assert SimplexGeometry(4).diameter_sq() == pytest.approx(np.log(4))
    # K-block product: the mirror map is scaled by K, so D^2 = K * sum log d_b
    assert SimplexGeometry((3, 4)).diameter_sq() == pytest.approx(2 * (np.log(3) + np.log(4)))


def test_strong_convexity_on_sampled_pairs(rng):
    for geo in all_geometries():
        for _ in range(1000):
            x, y = sample(geo, rng), sample(geo, rng)
            v = bregman(geo, x, y)
            dist = geo.norm_pair.norm(x - y)
            assert v >= 0.5 * dist**2 - 1e-9


def test_pair_distance_bounded_by_diameter(rng):
    # strong convexity gives ||y - c||^2 <= 2 D^2, hence ||x - y||^2 <= 8 D^2
    for geo in all_geometries():
        if geo.norm_pair.p != 2.0:
            continue
        bound = 8.0 * geo.diameter_sq()
        for _ in range(200):
            x, y = sample(geo, rng), sample(geo, rng)
            assert geo.norm_pair.norm(x - y) ** 2 <= bound + 1e-12


# ---------------------------------------------------------------------------
# feasible-set helpers


def test_center_is_feasible_and_fixed():
    for geo in all_geometries():
        assert geo.contains(geo.center())
        np.testing.assert_allclose(geo.prox(geo.center(), np.zeros(geo.d)), geo.center(), atol=1e-8)


def test_linear_argmax_matches_vertex_enumeration(rng):
    box = BoxGeometry(3, lo=-1.0, hi=2.0)
    cases = [(box, [np.array(c) for c in itertools.product((box.lo, box.hi), repeat=box.d)])]
    cases += [(geo, _vertices_by_blocks(geo)) for geo in (SimplexGeometry(3), SimplexGeometry((2, 2)))]
    for geo, verts in cases:
        for _ in range(50):
            coef = rng.normal(size=geo.d)
            best = max(float(coef @ v) for v in verts)
            got = float(coef @ geo.linear_argmax(coef))
            np.testing.assert_allclose(got, best, rtol=1e-12, atol=1e-12)


def test_membership_tolerances():
    geo = SimplexGeometry(3)
    x = np.full(3, 1.0 / 3.0)
    assert geo.contains(x)
    assert not geo.contains(x + 1e-3)
    box = BoxGeometry(2)
    assert box.contains(np.array([0.0, 1.0]))
    assert not box.contains(np.array([-0.1, 0.5]))


def test_projections_onto_a_large_ball_are_contained():
    # the ball's slack scales with its radius: an absolute 1e-10 is under one ulp of 1e6,
    # and rejected 86 of 2000 projected points at radius 1e6
    rng = np.random.default_rng(0)
    for radius in (1e6, 1e8):
        ball = BallGeometry(10, radius=radius)
        outside = rng.normal(size=(2000, 10)) * (10 * radius)
        assert all(ball.contains(ball.project(v)) for v in outside)
        assert not ball.contains(np.r_[radius * (1 + 1e-9), np.zeros(9)])


def test_blends_of_a_wide_box_boundary_are_contained():
    # the box's slack scales with its width: the momentum blend inv * x + (1 - inv) * x_f
    # of x = x_f = hi rounds to one ulp past hi for some inv = 1/beta, and an ulp of 1e8
    # is 1.5e-8, past an absolute slack of 1e-10
    rng = np.random.default_rng(0)
    box = BoxGeometry(1, -1e8, 1e8)
    invs = 1.0 / rng.integers(1, 1000, size=2000)
    blends = [np.array([inv * box.hi + (1.0 - inv) * box.hi]) for inv in invs]
    assert any(b[0] > box.hi for b in blends)
    assert all(box.contains(b) for b in blends)
    assert not box.contains(np.array([box.hi * (1 + 1e-9)]))


def test_slack_is_relative_below_unit_scale_too():
    # the slack is 1e-10 times the radius or width: at 1e-6 an absolute 1e-10 took in
    # points 1e-4 of the set's size past its boundary
    for ball in (BallGeometry(2, radius=1e-6), BallGeometry(2, radius=0.5), BallGeometry(2)):
        assert ball.contains(np.array([ball.radius * (1 + 0.9e-10), 0.0]))
        assert not ball.contains(np.array([ball.radius * (1 + 1.1e-10), 0.0]))
    for box in (BoxGeometry(2, 0.0, 1e-6), BoxGeometry(2, 0.0, 0.5), BoxGeometry(2)):
        assert box.contains(np.array([box.hi * (1 + 0.9e-10), -0.9e-10 * box.hi]))
        assert not box.contains(np.array([box.hi * (1 + 1.1e-10), box.lo]))
        assert not box.contains(np.array([box.hi, -1.1e-10 * box.hi]))


def _unit_and_scaled(kind, d, scale):
    if kind == "ball":
        return BallGeometry(d), BallGeometry(d, radius=scale)
    return BoxGeometry(d, -1.0, 1.0), BoxGeometry(d, -scale, scale)


@pytest.mark.parametrize("kind", ["ball", "box"])
@settings(max_examples=200, deadline=None)
@given(d=st.integers(1, 8), exponent=st.floats(-6.0, 6.0), data=st.data())
def test_a_scaled_set_is_the_unit_set_scaled(kind, d, exponent, data):
    # a ball of radius r, or the box [-w, w]^d, against the unit set, r and w in 10^[-6, 6]:
    # project and _step equal the unit set's results times the scale to 8 eps times the
    # scale times max(1, the inputs' largest entry), and contains agrees on every point
    # kept more than 1e-13 of the scale off the slack edge, at 1 + slack of the unit set
    scale = 10.0**exponent
    unit, scaled = _unit_and_scaled(kind, d, scale)
    vec = arrays(float, d, elements=st.floats(-4.0, 4.0))
    v, xi = data.draw(vec), data.draw(vec)
    x = unit.project(data.draw(vec))
    size = max(1.0, np.max(np.abs(v)), np.max(np.abs(xi)))
    tol = 8 * np.finfo(float).eps * scale * size
    assert np.max(np.abs(scaled.project(v * scale) - unit.project(v) * scale)) <= tol
    assert np.max(np.abs(scaled._step(x * scale, xi * scale) - unit._step(x, xi) * scale)) <= tol
    # a point in v's direction at a norm (ball) or largest entry (box) drawn from [0, 2]
    # or within 4 slacks of 1, across the slack edge
    def size_of(u):
        return unit.norm_pair.norm(u) if kind == "ball" else np.max(np.abs(u))

    assume(np.any(v))
    reach = data.draw(st.one_of(st.floats(0.0, 2.0),
                                st.floats(-4.0, 4.0).map(lambda t: 1 + t * unit._slack)))
    direction = v / np.max(np.abs(v))  # whose norm cannot underflow
    point = reach * direction / size_of(direction)
    assume(abs(size_of(point) - (1 + unit._slack)) > 1e-13)
    assert scaled.contains(point * scale) == unit.contains(point)


@pytest.mark.parametrize("make", [lambda: BallGeometry(3, radius=1e300),
                                  lambda: BoxGeometry(3, -1e300, 1e300),
                                  lambda: BoxGeometry(10, 0.0, 1.3e154)],
                         ids=["ball-pow-overflows", "box-pow-overflows", "box-product-is-inf"])
def test_a_diameter_past_the_largest_double_is_input_error(make):
    # diameter_sq() raised a bare OverflowError on the first two, and gave inf on the third
    with pytest.raises(InputError, match="squared diameter overflows a double"):
        make()


def test_sample_is_feasible(rng):
    for geo in all_geometries():
        batch = sample(geo, rng, n=64)
        assert batch.shape == (64, geo.d)
        for row in batch:
            assert geo.contains(row)


def test_product_simplex_block_structure(rng):
    geo = SimplexGeometry((3, 4))
    x = sample(geo, rng)
    b1, b2 = geo.blocks(x)
    assert b1.size == 3 and b2.size == 4
    np.testing.assert_allclose(b1.sum(), 1.0, atol=1e-12)
    np.testing.assert_allclose(b2.sum(), 1.0, atol=1e-12)


def test_generic_prox_solves_entropy_case(rng):
    # the reference solver against a closed form that other tests pin down
    geo = SimplexGeometry(3)
    x = np.array([0.2, 0.5, 0.3])
    xi = np.array([0.4, -0.1, 0.0])
    np.testing.assert_allclose(prox_generic(geo, x, xi), geo.prox(x, xi), atol=1e-6)


def test_scalar_block_dims_equivalent():
    a = SimplexGeometry(3)
    b = SimplexGeometry((3,))
    assert a.d == b.d == 3
    np.testing.assert_allclose(a.center(), b.center())


# ---------------------------------------------------------------------------
# finite sizes and the simplex block layout


@pytest.mark.parametrize("cls, kwargs", [
    (BallGeometry, {"radius": np.nan}),
    (BallGeometry, {"radius": np.inf}),
    (BoxGeometry, {"lo": -np.inf}),
    (BoxGeometry, {"hi": np.inf}),
    (BoxGeometry, {"lo": np.nan}),
    (BoxGeometry, {"lo": -np.inf, "hi": np.inf}),
], ids=["ball-nan", "ball-inf", "box-lo-inf", "box-hi-inf", "box-lo-nan", "box-both-inf"])
def test_non_finite_sizes_rejected(cls, kwargs):
    # a NaN ball did not contain its own center; an infinite box was centered at -inf
    with pytest.raises(InputError, match="positive and finite"):
        cls(2, **kwargs)


def _linear_argmax_by_blocks(geo, coef):
    out = np.zeros(geo.d)
    for s in block_slices(geo):
        out[s.start + int(np.argmax(coef[s]))] = 1.0
    return out


def _vertices_by_blocks(geo):
    out = []
    for combo in itertools.product(*(range(b) for b in geo.block_dims)):
        v = np.zeros(geo.d)
        for s, i in zip(block_slices(geo), combo):
            v[s.start + i] = 1.0
        out.append(v)
    return out


@settings(max_examples=100, deadline=None)
@given(block_dims=st.lists(st.integers(2, 40), min_size=1, max_size=4),
       seed=st.integers(0, 2**32 - 1))
def test_simplex_operations_equal_a_loop_over_blocks(block_dims, seed):
    # the vertex found over the block layout is the block-by-block loop's
    geo = SimplexGeometry(block_dims)
    coef = 3.0 * np.random.default_rng(seed).normal(size=geo.d)
    np.testing.assert_array_equal(geo.linear_argmax(coef), _linear_argmax_by_blocks(geo, coef))
