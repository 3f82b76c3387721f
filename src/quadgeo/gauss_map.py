"""The conformal Gauss map of a Legendre grid and its harmonic-map analysis.

Per node, S = span{l, l_v, l_vv} is a 3-dimensional subspace with
nondegenerate induced pairing, orthogonal to span{s, s_u, s_uu}; the pair
(S, S_perp) is encoded by the pairing-orthogonal projection P onto S and the
reflection star = eps (2P - 1) with star^2 = eps^2 (eps = 1 on real charts,
i on complex-conjugate charts, where conj(S) = S_perp).  eps is the one
quantity here read from the chart flag (`GaussMapGrid.eps`); every dtype
follows the data (`pl.real_if_exact`), so on a real chart the spans, the
bases, P, the derivatives, the tension field, the density, the image
directions and the reconstructed (l, s) are float64.  A map stores only
what it computed: no source grid, no copied surface meta.  The energy path
never reads P, so a map builds it on first read of `proj`.

The float64 path reads the float64 lift of a real chart (`legendre`) and
equals the complex128 computation on the same data bit for bit
(`tests/oracles.py` holds that computation).  numpy divides complex
data by a real through the real's reciprocal, so every such division here
is a multiply by the reciprocal: 1/(2h) and 1/h^2 in the stencils
(`grids.d_u` and its siblings), 1/sqrt|n|, 1/beta and 1/sqrt 2 in
`_structured_orthobasis`.  On complex data these products are the
divisions bit for bit, except that a division by a complex beta or
denominator (eps = i charts) moves at roundoff.  Three ops whose float64
kernels round differently stay in complex: the 3x3 Gram inverse behind P,
the dot products of `line_angle` (and `functionals.willmore_gradient_density`)
and the matvecs of `tension_kernel_residual`.

The span and basis fields have the shape (nu, nv, 3, 6) but are stored
nodes-innermost, in memory order (row, component, u, v) (`nodes_innermost`;
`loop_tools.gauss_from_frame` stores its spans so too).  So the stencils,
the pairings and the contraction of `conformal_gauss`,
`_structured_orthobasis` and `dS` run over contiguous (nu, nv) planes of
nodes, with the same bits as on C-contiguous arrays: numpy rounds an
elementwise ufunc, and a stacked det or inv, alike in any memory order.  Its
reductions over the component axes (a 9-entry Frobenius norm, a sum over
(3, 6)) and its BLAS products with a non-monomial matrix do depend on the
order, so they read `np.ascontiguousarray` copies, which have the strides
of the (nu, nv, 3, 6) fields stacked in C order.

The derivatives of S (`dS`) differentiate the section fields of S and keep
their S_perp components: (S_u) sigma = P_perp d_u sigma, stored as a 6x6
operator annihilating S_perp, which is the Hom(S, S_perp)-valued derivative
on S; on a real chart the bases, `dS` and its result are float64.  Only
the tension field works from the projection field: it is the covariant
derivative tau = P_perp d_u(S_v) P with S_v = P_perp (d_v P) P (the
Codazzi-equivalent P_perp d_v(S_u) P is reported as a cross-check by
`tension`; `functionals.willmore_gradient_density` reads tau alone).  The
Grassmannian metric is <A, B> = -tr(B* A) with the pairing adjoint
B* = G^-1 B^T G (`PseudoSpace.adjoint`).
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DegenerateReconstructionError
from .grids import REAL, GridChart, d_u, d_uu, d_v, d_vv, interior, smooth_phase
from .legendre import LegendreGrid
from . import pseudo_linalg as pl

DENSITY_MARGIN = 2
TENSION_MARGIN = 3


@dataclass
class GaussMapGrid:
    """Per-node splitting C^6 = S + S_perp; eps, P, star, signature and dS are derived.

    `build_proj` is a callable, holding no reference to the map, that
    returns the (nu, nv, 6, 6) pairing-orthogonal projection P onto S; each
    constructor passes its own, and the first read of `proj` runs it.  The
    span and basis fields are stored nodes-innermost, in memory order
    (row, component, u, v) behind their (nu, nv, 3, 6) shape.
    """

    space: pl.PseudoSpace
    chart: GridChart
    span_s: np.ndarray        # (nu, nv, 3, 6) smooth spanning fields l, l_v, l_vv
    span_p: np.ndarray        # (nu, nv, 3, 6) smooth spanning fields s, s_u, s_uu
    build_proj: object        # () -> P, run on the first read of `proj`
    degenerate: np.ndarray    # (nu, nv) bool
    basis_s: np.ndarray       # (nu, nv, 3, 6) rows of S, Gram diagonal up to O(h^2)
    signs_s: np.ndarray       # (nu, nv, 3) their pairing norms +-1
    basis_p: np.ndarray       # (nu, nv, 3, 6) the same for S_perp
    signs_p: np.ndarray
    meta: dict = field(default_factory=dict)

    @cached_property
    def proj(self):
        """P, built on first read and read-only.

        The builder is then swapped for one that returns this P, which drops
        what the builder held; a `dataclasses.replace` copy shares P.
        """
        proj = self.build_proj()
        proj.flags.writeable = False
        self.build_proj = lambda: proj
        return proj

    @property
    def eps(self):
        """1 on a real chart, i on a complex-conjugate chart (conj(S) = S_perp)."""
        return 1.0 if self.chart.reality == REAL else 1.0j

    @property
    def star(self):
        """The reflection star = eps (2P - 1), with star^2 = eps^2."""
        return self.eps * (2.0 * self.proj - np.eye(6))

    @property
    def signature_z(self):
        return "(1,1)" if self.eps == 1.0 else "(2,0)"

    @cached_property
    def derivatives(self):
        """(S_u, S_v) from `dS`, computed on first read; read-only, no back-reference."""
        su, sv = dS(self)
        su.flags.writeable = sv.flags.writeable = False
        return su, sv


@dataclass
class TensionField:
    """Tension field tau_S with its Codazzi cross-check, as 6x6 operator fields."""

    tau: np.ndarray           # (nu, nv, 6, 6), equals P_perp tau P
    norm: np.ndarray          # per-node Frobenius norm of tau
    codazzi_diff: np.ndarray


def conformal_gauss(grid):
    """Conformal Gauss map S = span{l, l_v, l_vv} of a focal-normalized grid.

    Nodes where the induced pairing on the span degenerates (|det Gram| below
    1e-8 of the product of the squared row norms) are flagged and
    their splitting filled from the nearest valid neighbor (the congruence of
    a Dupin patch continues smoothly); flagged nodes are excluded from
    tension/reconstruction statistics downstream.  The projection
    P = B (B^T G B)^-1 B^T G, with the same fill, is built on first read of
    `proj`.
    """
    sp, ch = grid.space, grid.chart
    # component-first memory behind the (nu, nv, 6) shapes: the stencils and
    # every pairing below run over contiguous planes of nodes
    l, s = (nodes_innermost(f) for f in pl.real_if_exact(grid.l, grid.s))
    span_s = _stack_rows([l, d_v(l, ch), d_vv(l, ch)])
    span_p = _stack_rows([s, d_u(s, ch), d_uu(s, ch)])
    # note: no Euclidean rescaling of the sections anywhere downstream; the
    # orthonormal bases are built from pairing quantities alone, so the whole
    # discrete pipeline commutes with pairing-orthogonal maps to roundoff
    gram_s = _planes(_row_gram(sp, span_s, span_s))
    # numpy sums a row of fewer than 8 entries in order whatever its stride,
    # so the row norms of the nodes-innermost view are those of a C copy
    scale = np.linalg.norm(span_s, axis=-1) ** 2
    scale3 = scale[..., 0] * scale[..., 1] * scale[..., 2]
    degenerate = np.abs(np.linalg.det(gram_s)) < 1e-8 * np.maximum(scale3, 1e-300)
    with np.errstate(all="ignore"):
        basis_s, signs_s = _structured_orthobasis(sp, span_s)
        basis_p, signs_p = _structured_orthobasis(sp, span_p)
    target, source = _fill_sources(degenerate)
    for fld in (basis_s, basis_p, signs_s, signs_p):
        fld[target] = fld[source]

    def build_proj():
        # the products read C-contiguous copies: numpy hands only such
        # operands to BLAS, the kernels whose rounding P is pinned to
        b6 = np.ascontiguousarray(span_s).swapaxes(-1, -2)  # columns
        # LAPACK rounds a float64 inverse differently from a complex one;
        # the complex inverse of a real Gram is exactly real
        gram = np.where(degenerate[..., None, None], np.eye(3), gram_s)
        gram_inv = np.linalg.inv(np.ascontiguousarray(gram, dtype=complex))
        if not np.iscomplexobj(gram_s):
            gram_inv = np.ascontiguousarray(gram_inv.real)
        proj = b6 @ gram_inv @ b6.swapaxes(-1, -2) @ sp.gram
        proj[target] = proj[source]
        return proj

    return GaussMapGrid(
        space=sp, chart=ch, span_s=span_s, span_p=span_p, build_proj=build_proj,
        degenerate=degenerate, basis_s=basis_s, signs_s=signs_s, basis_p=basis_p, signs_p=signs_p,
    )


def _fill_sources(mask):
    """(target, source) node indices that fill flagged nodes from valid ones.

    Sweeps the four neighbor directions (+u, -u, +v, -v) until no flagged
    node has a valid neighbor; each flagged node takes the node it would
    copy in that sweep, traced back through nodes filled earlier to the
    valid node whose value it ends up holding.  A field then fills with one
    gather, fld[target] = fld[source], a no-op when nothing is flagged.
    Nodes no sweep reaches are left out.
    """
    nu, nv = mask.shape
    root = np.arange(nu * nv).reshape(nu, nv)
    todo = np.array(mask)
    while todo.any():
        progress = False
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            shifted = np.roll(~todo, (di, dj), axis=(0, 1))
            # roll wraps around; mask out the wrapped layer
            if di == 1:
                shifted[0, :] = False
            if di == -1:
                shifted[-1, :] = False
            if dj == 1:
                shifted[:, 0] = False
            if dj == -1:
                shifted[:, -1] = False
            ti, tj = np.nonzero(todo & shifted)
            if ti.size:
                root[ti, tj] = root[ti - di, tj - dj]
                todo[ti, tj] = False
                progress = True
        if not progress:
            break
    target = np.nonzero(mask & ~todo)
    return target, np.unravel_index(root[target], mask.shape)


def orthogonality_residual(gauss):
    """Per-node norm of the cross Gram of (l, l_v, l_vv) against (s, s_u, s_uu).

    Normalized by the product of the largest row scales; vanishes for a
    genuine conformal Gauss map.
    """
    span_s, span_p = np.ascontiguousarray(gauss.span_s), np.ascontiguousarray(gauss.span_p)
    cross = gauss.space.pair(span_s[..., :, None, :], span_p[..., None, :, :])
    sa = np.max(np.linalg.norm(span_s, axis=-1), axis=-1)
    sb = np.max(np.linalg.norm(span_p, axis=-1), axis=-1)
    return np.linalg.norm(cross, axis=(-2, -1)) / np.maximum(sa * sb, 1e-300)


def _structured_orthobasis(space, rows):
    """Closed-form orthonormalization of a (l, l_v, l_vv)-structured span.

    Taking the first row as null and pairing-orthogonal to the second, the
    middle vector normalizes directly and the outer pair is hyperbolic.
    Returns (rows, signs): the Gram's diagonal is signs = +-1 but, as finite
    differences hold <a, b> = 0 only to O(h^2), its off-diagonal is O(h^2)
    (ellipsoid interior, S / S_perp: 9.0e-5 / 1.4e-4 at 33^2, 2.3e-5 / 3.7e-5 at 65^2).
    On nodes-innermost rows every step runs over node planes, and the
    returned rows are stored nodes-innermost too.
    """
    a, b, c = rows[..., 0, :], rows[..., 1, :], rows[..., 2, :]
    n = space.pair(b, b)
    real_n = np.abs(n.imag) <= 1e-10 * np.abs(n)
    d2 = np.where(real_n, np.sign(n.real), 1.0)
    denom = np.sqrt(np.abs(n))
    if np.iscomplexobj(n):
        denom = np.where(real_n, denom, np.sqrt(n))
    e2 = b * (1.0 / denom)[..., None]
    inner = space.pair(c, e2) / d2
    w = c - inner[..., None] * e2
    beta = space.pair(a, w)
    p = a * (1.0 / beta)[..., None]
    m = space.pair(w, w)
    x = w - 0.5 * m[..., None] * p
    e3 = (p + x) * (1.0 / np.sqrt(2.0))   # norm +1
    e1 = (p - x) * (1.0 / np.sqrt(2.0))   # norm -1
    basis = _stack_rows([e1, e2, e3])
    signs = np.stack([-np.ones_like(d2), d2, np.ones_like(d2)], axis=-1)
    return basis, signs


def dS(gauss):
    """Derivative of S as a pair (S_u, S_v) of (nu, nv, 6, 6) operators.

    Computed from the smooth spanning sections: (S_u) sigma = perp-projection
    of d_u sigma.  Differentiating the section fields rather than the
    projection field avoids a 1/h amplification of the Gram conditioning
    noise, which otherwise floors the conformality residual on fine grids.
    Dividing by the signs treats the bases' Gram as diagonal (true to O(h^2));
    consumers read the pair once per map from `GaussMapGrid.derivatives`.

    On a real chart the bases are float64 (`conformal_gauss`,
    `loop_tools.gauss_from_frame`), and so are the section derivatives (the
    stencils of `grids` round float64 and complex data alike), the
    coordinates, coefficients, contraction and result: bit for bit the real
    parts of the computation on the bases cast to complex, whose imaginary
    parts are all 0.  Complex-conjugate charts stay complex throughout.

    The bases are read in place as (row, component, u, v) node planes (a
    map from `conformal_gauss` or `gauss_from_frame` stores them so; any
    other layout gives the same bits, more slowly).  The coefficients
    <b_p[k], d b_s[j]> are paired on those planes, and the coordinates
    b_s @ G gather and scale b_s's components, as G is monomial (adding +0
    gives the matmul's zero signs).  The contraction
    sum_kj b_p[k, i] coeff[k, j] coords_s[j, l] adds, row i by row i, its
    nine terms (b_p[k, i] coeff[k, j]) coords_s[j] to zero, k outer and j
    inner: the order and association of
    einsum("...ki,...kj,...jl->...il"), so on a real chart the result equals
    the einsum's bit for bit (on an eps = i chart, to roundoff: einsum fuses
    complex multiply-adds).  Another order (b_p^T @ (coeff @ coords_s))
    moves the last digits, and the `descent` energy sequence amplifies such
    moves to about 5e-6 relative.  The result is copied to C order, one
    (6, 6) operator per node.
    """
    sp = gauss.space
    b_s, b_p = gauss.basis_s, gauss.basis_p
    # sigma -> S-coordinates extractor (diagonal Gram, condition 1)
    bp = _planes(b_p)
    cs = _planes(b_s)[:, sp.perm] * sp.weight[:, None, None] + 0.0
    cs = cs / _planes(gauss.signs_s[..., None])
    out = []
    for deriv in (d_u, d_v):
        w = deriv(b_s, gauss.chart)    # derivatives of sections
        cf = _row_gram(sp, b_p, w) / _planes(gauss.signs_p[..., None])
        acc = np.zeros((6, 6) + b_p.shape[:-2], dtype=np.result_type(bp, cf, cs))
        term = np.empty_like(acc[0])    # reused: fresh temporaries grow the heap
        for i in range(6):    # a row of planes at a time stays in cache
            for k in range(3):
                for j in range(3):
                    acc[i] += np.multiply(bp[k, i] * cf[k, j], cs[j], out=term)
        out.append(np.ascontiguousarray(_planes(acc)))
    return tuple(out)


def nodes_innermost(a):
    """A copy of the (nu, nv, ...) field a with its shape, stored nodes-innermost.

    The component axes come first in memory, so each ufunc over the field
    runs over contiguous (nu, nv) planes of nodes.
    """
    order = (*range(2, a.ndim), 0, 1)
    return np.ascontiguousarray(a.transpose(order)).transpose(np.argsort(order))


def _row_gram(space, a, b):
    """Pairings <a_k, b_j> of two (nu, nv, r, 6) row families as (r, r', nu, nv) planes."""
    return space.pair(a.transpose(2, 0, 1, 3)[:, None], b.transpose(2, 0, 1, 3)[None])


def _planes(a):
    """The (r, c, nu, nv) node planes of a (nu, nv, r, c) field, and back: a view."""
    return a.transpose(2, 3, 0, 1)


def _stack_rows(rows):
    """(nu, nv, 6) rows as one (nu, nv, k, 6) field stored nodes-innermost."""
    return np.stack([r.transpose(2, 0, 1) for r in rows]).transpose(2, 3, 0, 1)


def grassmann_pair(space, a, b):
    """Grassmannian metric <A, B> = -tr(B* A) (pairing adjoint, no conjugation)."""
    return -np.einsum("...ij,...ji->...", space.adjoint(b), a)


def willmore_density(gauss):
    """Per-node <S_u, S_v>; equals the conjugate-coefficient product p q."""
    su, sv = gauss.derivatives
    return grassmann_pair(gauss.space, su, sv)


def conformality_residual(gauss):
    """Per-node max of |<S_u,S_u>| and |<S_v,S_v>| (zero for conformal S)."""
    return np.maximum(*(np.abs(grassmann_pair(gauss.space, d, d)) for d in gauss.derivatives))


def tension(gauss):
    """Tension field tau = nabla-perp_u S_v - S_v nabla_u, with Codazzi check.

    Both expressions are assembled gauge-free from the projection field
    (the covariant derivative of a Hom(S, S_perp) tensor A extended by zero
    is P_perp (dA) P, and S_v = P_perp (d_v P) P); their difference vanishes
    with the discretization by the Codazzi identity.
    """
    tau = _tau(gauss)
    proj, ch = gauss.proj, gauss.chart
    pp = np.eye(6) - proj
    du_op = pp @ d_u(proj, ch) @ proj
    alt = pp @ d_v(du_op, ch) @ proj
    return TensionField(tau=tau, norm=np.linalg.norm(tau, axis=(-2, -1)),
                        codazzi_diff=np.linalg.norm(tau - alt, axis=(-2, -1)))


def _tau(gauss):
    """The tension field tau = P_perp d_u(S_v) P alone, S_v = P_perp (d_v P) P."""
    proj, ch = gauss.proj, gauss.chart
    pp = np.eye(6) - proj
    dv_op = pp @ d_v(proj, ch) @ proj
    return pp @ d_u(dv_op, ch) @ proj


def image_direction(op):
    """Dominant image direction (unit 6-vector) of a near-rank-one operator.

    Returns (u, (s1, s2)): the top left singular vector u of op, defined up
    to phase, and its two largest singular values.  Precondition: op has
    rank <= 3 and s2/s1 well below 1, as S_u, S_v* and tau have.  Over the
    ellipsoids of the checks and the benchmark (both windows, 33^2-129^2)
    s2/s1 is at most 8.5e-3 on the whole grid (S_v* at 33^2, a boundary
    node; tau reaches 8.4e-3 inside the default window); in the interiors
    that `reconstruct` and the tension-lemma suite read, S_v* <= 5.5e-4,
    S_u <= 3.6e-5 and tau <= 1.4e-5.  No SVD is taken:

    * u: power steps x <- op (op^H x) / |.| from the column of op with the
      largest norm, whose angle to u has tangent at most sqrt(6) s2/s1;
      each step multiplies that tangent by (s2/s1)^2, so after three steps
      it is at most sqrt(6) (s2/s1)^7 <= 1e-14 at the ratios above (two
      steps suffice in the interiors; the third covers the boundary);
    * s1 = |op^H u|;
    * s2, the top singular value of the remainder R = op - u (u^H op), whose
      rank is at most 2 since u lies in the image of op: with
      F = |R|_F^2 = a^2 + b^2 and T = |R^H R|_F^2 = a^4 + b^4 over its
      singular values a >= b, s2^2 = a^2 = (F + sqrt(2T - F^2)) / 2.  When
      a and b nearly coincide the square root keeps only about half the
      digits (s2 to about 1e-8 relative); s2 feeds only the rank gap.

    Runs in float64 when every imaginary part of op is exactly 0, as on real
    charts (`pl.real_if_exact`), and in complex128 otherwise; the real parts
    are copied to a contiguous array first, so a complex op with zero
    imaginary parts gives the float64 op's result bit for bit.  A zero
    operator gives a zero direction and zero singular values.
    """
    op = np.ascontiguousarray(pl.real_if_exact(op)[0])
    opc = op.conj()
    col_norms = np.einsum("...ij,...ij->...j", op, opc).real
    start = np.argmax(col_norms, axis=-1)[..., None, None]
    x = np.take_along_axis(op, start, axis=-1)[..., 0]
    for _ in range(3):
        y = np.einsum("...ij,...j->...i", op, np.einsum("...ji,...j->...i", opc, x))
        norm = np.linalg.norm(y, axis=-1)[..., None]
        x = y / np.where(norm > 0, norm, 1.0)
    w = np.einsum("...ji,...j->...i", opc, x)      # op^H u
    rest = op - x[..., :, None] * w.conj()[..., None, :]
    f = np.einsum("...ij,...ij->...", rest, rest.conj()).real
    gram = rest.conj().swapaxes(-1, -2) @ rest
    t = np.einsum("...ij,...ij->...", gram, gram.conj()).real
    s2 = np.sqrt(0.5 * (f + np.sqrt(np.maximum(2.0 * t - f * f, 0.0))))
    return x, (np.linalg.norm(w, axis=-1), s2)


def line_angle(x, y):
    """Angle between complex lines spanned by x and y (Hermitian)."""
    # in complex: a float64 einsum sums in another order
    num = np.abs(np.einsum("...k,...k->...", x, y.conj(), dtype=complex))
    den = np.linalg.norm(x, axis=-1) * np.linalg.norm(y, axis=-1)
    return np.arccos(np.clip(num / np.maximum(den, 1e-300), 0.0, 1.0))


def tension_image_angle(gauss, tension_field):
    """Per-node angle between im(tau_S) and span{s} (the focal field)."""
    img, _ = image_direction(tension_field.tau)
    return line_angle(img, np.ascontiguousarray(gauss.span_p)[..., 0, :])


def tension_kernel_residual(gauss, tension_field):
    """Action of tau_S on l and l_v (a basis of l-perp within S), normalized."""
    tau, span_s = tension_field.tau, np.ascontiguousarray(gauss.span_s)
    # matvecs in complex: float64 BLAS rounds them differently
    act_l, act_lv = (np.linalg.norm(np.matmul(tau, span_s[..., k, :, None],
                                              dtype=complex)[..., 0], axis=-1) for k in (0, 1))
    scale = np.maximum(
        tension_field.norm * np.linalg.norm(span_s[..., 0:2, :], axis=-1).max(-1),
        1e-300,
    )
    return np.maximum(act_l, act_lv) / scale


def blaschke_residual(gauss):
    """Per-node Frobenius norms of S_u* S_u and S_v S_v* (the envelope conditions).

    Both products have rank at most 3 (S_u* S_u acts on S, S_v S_v* on
    S_perp), so each value lies between the product's spectral norm and
    sqrt(3) times it; no SVD is taken.
    """
    su, sv = gauss.derivatives
    r1 = np.linalg.norm(gauss.space.adjoint(su) @ su, axis=(-2, -1))
    r2 = np.linalg.norm(sv @ gauss.space.adjoint(sv), axis=(-2, -1))
    return r1, r2


def reconstruct(gauss):
    """Recover the Legendre map from its conformal Gauss map.

    Extracts span{s} = im S_u and span{l} = im S_v* as dominant directions
    (`image_direction`: power steps and a closed-form s2, no SVD; both
    operators have rank <= 3 and are near rank one, s2/s1 <= 5.5e-4 in the
    interior of the ellipsoids at 33^2-129^2) and returns the
    focal-normalized grid; meta 'reconstruction_rank_gap' is the smallest
    interior s1/s2 of the two.  Raises DegenerateReconstructionError when a
    partial derivative of S vanishes (the largest interior |S_u| |S_v| below
    1e-10 of the largest interior |B_S|_F^2 of the S basis, which bounds
    |P|_F up to the basis's O(h^2) Gram defect, as P = B_S^T diag(signs)
    B_S G with |G|_2 = 1) or when <S_u, S_v> vanishes (median below 1e-6 of
    |S_u| |S_v|: constant or degenerate focal surfaces); |S_u| is the
    largest singular value and |S_v| the Frobenius norm, which only scale
    the two thresholds.  It builds no P and calls no LAPACK routine.
    """
    su, sv = gauss.derivatives
    density = np.abs(grassmann_pair(gauss.space, su, sv))
    s_dir, (s1_u, s2_u) = image_direction(su)
    scale_v = np.linalg.norm(sv, axis=(-2, -1))
    margin = DENSITY_MARGIN
    den = interior(s1_u * scale_v, margin)
    basis_scale = np.sum(np.abs(np.ascontiguousarray(gauss.basis_s)) ** 2, axis=(-2, -1))
    if np.max(den) < 1e-10 * np.max(interior(basis_scale, margin)):
        raise DegenerateReconstructionError(
            "a partial derivative of S vanishes (constant or channel-type congruence)"
        )
    if np.median(interior(density, margin) / np.maximum(den, 1e-300)) < 1e-6:
        raise DegenerateReconstructionError("<S_u, S_v> ~ 0: focal surfaces degenerate")
    l_dir, (s1_v, s2_v) = image_direction(gauss.space.adjoint(sv))
    rank_gap = min(
        float(np.min(interior(s1_u / np.maximum(s2_u, 1e-300), margin))),
        float(np.min(interior(s1_v / np.maximum(s2_v, 1e-300), margin))),
    )
    return LegendreGrid(gauss.space, smooth_phase(l_dir), smooth_phase(s_dir), gauss.chart,
                        meta={"reconstruction_rank_gap": rank_gap})
