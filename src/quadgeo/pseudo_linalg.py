"""Indefinite linear algebra on six-dimensional space.

Signature-(m,n) pairings with m+n=6, the light cone, the bivector (Plucker)
embedding of planes in R^4, and random elements of the pairing-orthogonal
group and of SL(4).  Two standard spaces are used throughout:

* ``plucker_space()`` -- Lambda^2 R^4 with <v,w> = vol(v ^ w), signature (3,3).
  Fixed bivector basis order: (e12, e13, e14, e23, e24, e34); vol is the unit
  determinant form, which makes the Gram anti-diagonal with entries
  (1, -1, 1, 1, -1, 1).
* ``lie_space()`` -- signature (4,2) with basis (v_-1, v_0, v_1, v_2, v_3,
  v_inf): v_1..v_3 orthonormal spacelike, v_-1 timelike, and (v_0, v_inf)
  isotropic with <v_0, v_inf> = -1/2.

Vectors are plain ndarrays of shape (..., 6), float64 on real charts, in
any memory order: `pair` runs elementwise over the component slices, so a
field stored with its components outermost (the Gauss map's spans and
bases, `gauss_map.nodes_innermost`) pairs over contiguous planes of nodes,
with the same bits as its C-contiguous copy.
numpy divides complex data by a real through the real's reciprocal and
float64 data by the real itself, so the float64 lift and Gauss map multiply
by the same reciprocals (the stencils of `grids`, `legendre`, `gauss_map`)
and round like the complex computation bit for bit;
`plucker_embed` keeps its inputs' dtype.
`real_if_exact` is the package's one realness rule: the chart flag picks
only the derivative stencils (`grids`) and a Gauss map's eps
(`gauss_map.GaussMapGrid.eps`), and every other choice between float64 and
complex follows the data, float64 when every imaginary part is exactly 0.
So on real charts the lift (l, s), its residuals and conjugate
coefficients, the rank test of `legendre.proj_lift`, the densities of
`functionals`, the Gauss map's spans, bases, P, `dS` and tension field, the
power steps of `gauss_map.image_direction` (so `reconstruct` returns
float64 (l, s)) and the loop-algebra arrays (`loop_tools`, `matfun`) are
float64, and complex only where the mathematics is complex.
`PseudoSpace.pair` and `PseudoSpace.adjoint` are the package's one pairing
and one adjoint (the inverse of a pairing-orthogonal element).

Both Grams above are monomial (one nonzero per row and column), and so is
every diagonal Gram; `PseudoSpace` accepts no other.  That lets `pair` sum
the six products (x_i g_i) y_pi(i) in row order instead of running a
three-operand einsum over all 36 entries, and lets `adjoint` gather a^T's
entries and scale them instead of multiplying by inv(G) and G.  Both keep
the order and association of the einsum and matmul forms, so they are
bit-identical to them on real-chart data, float64 or complex128 with zero
imaginary parts, signed zeros included (except the sign of an exactly zero
real part in a complex adjoint, which the BLAS kernel decides).  So the
evaluation changes no digit of any `qg check` report, whose `descent` energy
sequence moves visibly under any last-bit change on the lift path.  On data
with nonzero imaginary parts (eps = i charts) `pair` agrees with the einsum
to roundoff only, because einsum fuses multiply-adds.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, GroupElementError
from .matfun import expm

# index pairs of the fixed Lambda^2 R^4 basis
_BIVECTOR_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


@dataclass(frozen=True, eq=False)
class PseudoSpace:
    """A signature-(m,n) symmetric pairing on 6-dimensional space.

    The Gram must be monomial: one nonzero entry per row (and so, being
    symmetric, per column).  Row i pairs with column perm[i] only, with
    value weight[i]; inv_weight[i] is row i of the Gram's LAPACK inverse,
    whose nonzero sits in the same column.
    """

    m: int
    n: int
    gram: np.ndarray

    def __post_init__(self):
        g = np.array(self.gram, dtype=float)
        if g.shape != (6, 6) or not np.allclose(g, g.T, atol=1e-12):
            raise ValueError("gram must be a symmetric 6x6 matrix")
        if self.m + self.n != 6:
            raise ValueError("m + n must be 6")
        if np.any(np.count_nonzero(g, axis=1) != 1):
            raise ValueError("gram must be monomial (one nonzero entry per row and column)")
        evals = np.linalg.eigvalsh(g)
        if np.any(np.abs(evals) < 1e-12):
            raise ValueError("gram must be invertible")
        if (int((evals > 0).sum()), int((evals < 0).sum())) != (self.m, self.n):
            raise ValueError("gram eigenvalue signs do not match (m, n)")
        if (self.m, self.n) not in ((4, 2), (3, 3)):
            raise ValueError("supported signatures are (4,2) and (3,3)")
        g.setflags(write=False)
        perm = np.argmax(g != 0, axis=1)
        rows = np.arange(6)
        object.__setattr__(self, "gram", g)
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "weight", g[rows, perm])
        object.__setattr__(self, "inv_weight", np.linalg.inv(g)[rows, perm])

    def pair(self, x, y):
        """Bilinear pairing x^T gram y, batched over leading axes.

        Sums (x_i weight_i) y_perm(i) over i in row order and adds +0 last:
        the order, association and zero sign of
        einsum("...i,ij,...j->...", x, gram, y), the zero terms dropped.
        """
        x = np.asarray(x)
        y = np.asarray(y)
        out = (x[..., 0] * self.weight[0]) * y[..., self.perm[0]]
        for i in range(1, 6):
            out += (x[..., i] * self.weight[i]) * y[..., self.perm[i]]
        out += 0.0
        return out

    def adjoint(self, a):
        """Pairing adjoint a* = gram^-1 a^T gram (no conjugation), batched.

        A gather a*[r, c] = a[perm(c), perm(r)], scaled by the inverse's row
        values and then by the Gram's column values (the association of
        inv(gram) @ a^T @ gram); adding +0 gives the matmuls' zero signs.
        """
        out = np.asarray(a)[..., self.perm[None, :], self.perm[:, None]]
        out *= self.inv_weight[:, None]
        out *= self.weight
        out += 0.0
        return out


def real_if_exact(*arrays):
    """The arrays' real parts when every imaginary part is exactly 0, else the arrays.

    The package's one rule for dropping the imaginary zeros of a real chart.
    Complex products and sums of data with zero imaginary parts, and complex
    division by +-1 + 0j, equal their float64 counterparts bit for bit, so
    computing on the real parts moves no digit.  Returns a tuple; float
    arrays pass through untouched.
    """
    if any(np.iscomplexobj(a) and np.any(a.imag) for a in arrays):
        return arrays
    return tuple(a.real if np.iscomplexobj(a) else a for a in arrays)


@functools.cache
def plucker_space():
    g = np.zeros((6, 6))
    for k, s in enumerate((1.0, -1.0, 1.0)):
        g[k, 5 - k] = s
        g[5 - k, k] = s
    return PseudoSpace(3, 3, g)


@functools.cache
def lie_space():
    g = np.zeros((6, 6))
    g[0, 0] = -1.0          # v_-1 timelike
    g[1, 5] = g[5, 1] = -0.5  # <v_0, v_inf> = -1/2
    g[2, 2] = g[3, 3] = g[4, 4] = 1.0
    return PseudoSpace(4, 2, g)


def plucker_embed(x, y):
    """Bivector x ^ y of two 4-vectors in the fixed (3,3) basis.

    Batched over leading axes, in the inputs' dtype: float64 products of
    real data equal complex products of their zero-imaginary casts.  Raises
    DegenerateInputError for (single) parallel inputs.
    """
    x = np.asarray(x)
    y = np.asarray(y)
    out = np.empty(x.shape[:-1] + (6,), dtype=np.result_type(x, y, float))
    for k, (i, j) in enumerate(_BIVECTOR_PAIRS):
        out[..., k] = x[..., i] * y[..., j] - x[..., j] * y[..., i]
    if out.ndim == 1:
        scale = max(float(np.linalg.norm(x) * np.linalg.norm(y)), 1e-300)
        if np.linalg.norm(out) <= 1e-12 * scale:
            raise DegenerateInputError("x and y are parallel; x ^ y degenerates")
    return out


def check_group_element(g, space):
    """Raise GroupElementError unless |g^T gram g - gram| <= 1e-10 |gram|."""
    g = np.asarray(g)
    defect = np.linalg.norm(g.T @ space.gram @ g - space.gram)
    if defect > 1e-10 * np.linalg.norm(space.gram):
        raise GroupElementError(f"map does not preserve the pairing (defect {defect:.2e})")


def random_pseudo_orthogonal(space, rng, nsteps=8, amplitude=0.35):
    """Random element of O(m,n) from seeded Givens rotations and boosts."""
    evals, evecs = np.linalg.eigh(space.gram)
    order = np.argsort(-evals)
    evals, evecs = evals[order], evecs[:, order]
    t = evecs @ np.diag(np.abs(evals) ** -0.5)
    d = np.sign(evals)
    r = np.eye(6)
    for _ in range(nsteps):
        i, j = rng.choice(6, size=2, replace=False)
        th = amplitude * rng.standard_normal()
        block = np.eye(6)
        if d[i] * d[j] > 0:
            block[i, i] = block[j, j] = np.cos(th)
            block[i, j] = -np.sin(th)
            block[j, i] = np.sin(th)
        else:
            block[i, i] = block[j, j] = np.cosh(th)
            block[i, j] = block[j, i] = np.sinh(th)
        r = block @ r
    g = t @ r @ np.linalg.inv(t)
    return g


def random_unimodular(rng, amplitude=0.3):
    """Random A in SL(4,R) as the exponential of a traceless matrix.

    The exponential is `matfun.expm`'s scaled Taylor series (det A = e^tr = 1
    to roundoff), so drawing samples does not load scipy.
    """
    x = amplitude * rng.standard_normal((4, 4))
    x -= np.trace(x) / 4.0 * np.eye(4)
    return expm(x)
