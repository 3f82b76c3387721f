"""Oracles and inputs that only the tests use.

Independent references (the Hodge star of a quadric form, the group defect
of a frame) and test surfaces (a chart that is not curvature-line, exact
asymptotic and elliptic graph charts) that no suite or command needs.
"""

from dataclasses import dataclass

import numpy as np

from quadgeo.pseudo_linalg import _BIVECTOR_PAIRS, plucker_space
from quadgeo.surfaces import EUCLIDEAN3, PROJECTIVE3, ProjectiveGraphSampler, _unit

# ---------------------------------------------------------------------------
# quadric forms and their Hodge star


@dataclass(frozen=True)
class QuadricForm:
    """A nondegenerate symmetric pairing on R^4, determined up to scale."""

    q: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        if q.shape != (4, 4) or not np.allclose(q, q.T, atol=1e-10):
            raise ValueError("q must be a symmetric 4x4 matrix")
        d = np.linalg.det(q)
        if abs(d) < 1e-14:
            raise ValueError("q is degenerate")
        ev = np.linalg.eigvalsh(q)
        pos = int((ev > 0).sum())
        if pos not in (1, 2, 3):
            raise ValueError("quadric must have signature (2,2) or Lorentz")
        object.__setattr__(self, "q", q)

    def normalized(self):
        """Rescale so |det q| = 1 (vol_Q = vol)."""
        d = abs(np.linalg.det(self.q))
        return QuadricForm(self.q / d ** 0.25)


def lambda2(a):
    """6x6 action of a 4x4 map on bivectors: (Lambda^2 a)(x^y) = ax ^ ay."""
    a = np.asarray(a)
    out = np.zeros((6, 6), dtype=np.result_type(a.dtype, float))
    for col, (i, j) in enumerate(_BIVECTOR_PAIRS):
        for row, (k, m) in enumerate(_BIVECTOR_PAIRS):
            out[row, col] = a[k, i] * a[m, j] - a[m, i] * a[k, j]
    return out


def hodge_star(quadric):
    """Hodge star of a quadric form: vol(v ^ star w) = Q(v, w) on bivectors.

    The input is always normalized to unit |det| first (even one that
    `normalized` returned), so star^2 = +1 for signature (2,2) and -1 for
    Lorentz Q.
    """
    g = plucker_space().gram  # involutive: g @ g = identity
    return g @ lambda2(quadric.normalized().q)


# ---------------------------------------------------------------------------
# frames


def orthogonality_defect(f, gram):
    """Batched norm of F^T G F - G."""
    e = np.asarray(f).swapaxes(-1, -2) @ gram @ np.asarray(f) - gram
    return np.sqrt(np.abs(e * e.conj()).sum(axis=(-2, -1)))


# ---------------------------------------------------------------------------
# test surfaces


class EllipsoidGenericSampler:
    """Triaxial ellipsoid in a (polar, azimuth) chart (not curvature-line)."""

    geometry = EUCLIDEAN3

    def __init__(self, a=1.0, b=1.3, c=1.7):
        self.axes = (float(a), float(b), float(c))

    def point(self, u, v):
        a, b, c = self.axes
        return np.stack(
            [a * np.sin(u) * np.cos(v), b * np.sin(u) * np.sin(v), c * np.cos(u)],
            axis=-1,
        )

    def normal(self, u, v):
        p = self.point(u, v)
        axes2 = np.array([s * s for s in self.axes])
        return -_unit(p / axes2)


def ruled_graph_sampler(c=0.1):
    """z = x*y + c x^3 in its exact asymptotic chart (a, b) -> (a, b - 3c a^2 / 2).

    One asymptotic family consists of the rulings (q = 0 and f_bb = 0
    exactly); the other has p = -3c constant.
    """

    class _Ruled:
        geometry = PROJECTIVE3

        def point(self, u, v):
            a = np.asarray(u, dtype=float)
            b = np.asarray(v, dtype=float)
            y = b - 1.5 * c * a**2
            return np.stack(
                [np.ones_like(a + b), a + 0 * b, y, a * y + c * a**3], axis=-1
            )

    return _Ruled()


def convex_graph_sampler(cx=0.05):
    """z = x^2 + y^2 + cx x^4: elliptic points, complex-conjugate asymptotics."""
    return ProjectiveGraphSampler(
        lambda x, y: x * x + y * y + cx * x**4,
        lambda x, y: (2.0 + 12.0 * cx * x * x + 0 * y, np.zeros_like(x + y), 2.0 + 0 * x + 0 * y),
    )
