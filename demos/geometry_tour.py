"""Tour of the mirror-map geometries: prox steps and diameters.

Shows how the same gradient nudge moves a point under the euclidean map
(box, ball) versus the entropy map (simplex).  Each point is itself one
prox step from the set's center, so every point shown is feasible.
"""

import numpy as np

from markovmirror import BallGeometry, BoxGeometry, SimplexGeometry


def describe(geo, name, rng):
    x = geo.prox(geo.center(), rng.normal(size=geo.d))
    xi = 0.4 * rng.normal(size=geo.d)
    stepped = geo.prox(x, xi)
    print(f"{name}")
    print(f"  diameter^2      {geo.diameter_sq():.4f}")
    print(f"  x               {np.array2string(x, precision=3)}")
    print(f"  prox(x, xi)     {np.array2string(stepped, precision=3)}")
    print(f"  still feasible  {geo.contains(stepped)}")


def main():
    rng = np.random.default_rng(0)
    describe(BoxGeometry(4, lo=-1.0, hi=1.0), "box [-1,1]^4 (euclidean)", rng)
    describe(BallGeometry(4, radius=1.0), "l2 ball, r=1 (euclidean)", rng)
    describe(SimplexGeometry(4), "4-simplex (entropy)", rng)
    describe(SimplexGeometry((3, 3)), "product of two 3-simplices", rng)

    # entropy prox = multiplicative weights: a negative-cost coordinate gains
    geo = SimplexGeometry(3)
    x = np.array([1 / 3, 1 / 3, 1 / 3])
    out = geo.prox(x, np.array([0.0, 0.0, -1.0]))
    print("\nmultiplicative weights from uniform, reward on coord 2:")
    print(f"  {np.array2string(out, precision=4)}  (mass ratio {out[2] / out[0]:.3f} = e)")


if __name__ == "__main__":
    main()
