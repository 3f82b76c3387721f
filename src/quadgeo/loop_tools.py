"""Symmetric-space frame machinery for Gauss maps into the Grassmannian.

At a base splitting S_o the pairing-skew endomorphisms decompose as
k + p (commuting / anticommuting with the base reflection); a frame field F
moves the base splitting onto S(u, v).  Its discrete Maurer-Cartan form lives
on grid edges (alpha_edge = log(F_node^-1 F_neighbor)), splits into k- and
p-parts, and deforms into the spectral family

    alpha_lambda = alpha_k + lambda alpha_p' + lambda^-1 alpha_p''

whose flatness for all lambda characterizes harmonicity.  Flatness is
measured as the plaquette-holonomy curvature density; frames integrate back
from edge exponentials.  The duality between the (3,3) and (4,2) pictures
evaluates the family at lambda = +-i and re-reads the result in the real
basis of S_o + i S_o_perp.  Pairings go through `PseudoSpace.pair`; group
elements are inverted by `PseudoSpace.adjoint`, never numerically.

Arrays carry the dtype of their data; nothing here reads the chart flag.
`_splitting` reads a Gauss map's splitting as float64 when it is exactly
real (`pl.real_if_exact`, as on a real chart), so frames, edges,
holonomies and their exp/log stay float64 there; they are complex only
where the mathematics is: complex-conjugate charts (eps = i), the +-i basis
of the duality and complex lambda.  The dual connection is complex only
until its imaginary defect is measured (`dual_connection`); it keeps its
real part, so the dual frames and Gauss map are float64.

Each Gauss map is framed once and each frame field's connection taken once:
`frame` and `maurer_cartan` keep their result on their argument, read-only,
so `spectral_deform`, `dualize` and every other caller share it.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from . import gauss_map as gm
from . import pseudo_linalg as pl
from .errors import NonHarmonicInputError, SignatureError
from .grids import GridChart, interior
from .matfun import expm, logm, reproject_orthogonal

FLAT_FLOOR = 1e-6  # a flatness residual this small counts as flat at any lambda
HARMONIC_FACTOR = 10.0  # lambda=2 over lambda=1 flatness above this is not harmonic


def _once_per_argument(compute):
    """Compute `compute(obj)` on first call and keep it in obj's __dict__.

    The arrays of the result are made read-only, since every later caller
    shares them; the result holds no reference back to obj, so a cached obj
    is freed as soon as its last reference goes.
    """
    key = f"_{compute.__name__}"

    @functools.wraps(compute)
    def once(obj):
        out = obj.__dict__.get(key)
        if out is None:
            out = compute(obj)
            for value in vars(out).values():
                if isinstance(value, np.ndarray):
                    value.flags.writeable = False
            obj.__dict__[key] = out
        return out

    return once


@dataclass
class SymmetricPair:
    """Symmetric decomposition of the pairing-skew algebra at a base splitting."""

    space: pl.PseudoSpace
    star_o: np.ndarray        # base reflection (6x6)
    basis_o: np.ndarray       # rows: orthonormalized basis of S_o then S_o_perp
    signs_o: np.ndarray       # their pairing norms +-1
    eps: complex

    def split(self, xi):
        """The k-part (commuting with star_o) and p-part (anticommuting)."""
        inv = self.star_o @ xi @ self.star_o / (self.eps**2)
        return 0.5 * (xi + inv), 0.5 * (xi - inv)


@dataclass
class FrameGrid:
    """Per-node pairing-orthogonal frames moving the base splitting to S.

    The space is the pair's, read through the `space` property.
    """

    chart: GridChart
    frames: np.ndarray        # (nu, nv, 6, 6)
    pair: SymmetricPair

    @property
    def space(self):
        return self.pair.space


@dataclass
class ConnectionGrid:
    """Edge-valued discrete Maurer-Cartan data, split by the decomposition.

    u-edge arrays have shape (nu-1, nv, 6, 6), v-edge arrays (nu, nv-1, 6, 6);
    the p'-part is supported on u-edges only and the p''-part on v-edges only.
    The space is the pair's, read through the `space` property.
    """

    chart: GridChart
    pair: SymmetricPair
    k_u: np.ndarray
    k_v: np.ndarray
    p_u: np.ndarray
    p_v: np.ndarray
    lam: complex = 1.0
    meta: dict = field(default_factory=dict)

    @property
    def space(self):
        return self.pair.space

    def edge_u(self):
        return self.k_u + self.p_u

    def edge_v(self):
        return self.k_v + self.p_v


def _gram_schmidt_rows(rows, signs, space):
    """Strict pairing Gram-Schmidt keeping a prescribed sign pattern.

    `rows` has shape (..., k, 6) and `signs` (..., k), broadcast against the
    rows' leading axes; each leading index is orthonormalized on its own, and
    SignatureError is raised if any of them breaks its pattern.  A node whose
    squared norm n is real to 1e-8 is scaled by the real root of its
    magnitude, any other by the complex root of n times its expected sign,
    so that every row's squared norm comes out as that sign.
    """
    out = np.empty_like(rows)
    for k in range(rows.shape[-2]):
        v = rows[..., k, :]
        for m in range(k):
            c = space.pair(v, out[..., m, :]) / signs[..., m]
            v = v - c[..., None] * out[..., m, :]
        n = space.pair(v, v)
        real = np.abs(n.imag) <= 1e-8 * np.abs(n)
        if np.any(real & (n.real * signs[..., k] <= 0)):
            raise SignatureError("sign pattern broke during orthonormalization")
        with np.errstate(divide="ignore", invalid="ignore"):
            root = np.where(real, np.sqrt(np.abs(n.real)), np.sqrt(n * signs[..., k]))
        out[..., k, :] = v / root[..., None]
    return out


def _splitting(gauss):
    """The Gauss map's proj, basis_s and basis_p, real where exactly real.

    The one place the loop-algebra layer picks its dtype: when every
    imaginary part of the three arrays is exactly 0 they are read as float64
    (`pl.real_if_exact`), otherwise they stay complex, and everything
    downstream follows.
    """
    return pl.real_if_exact(gauss.proj, gauss.basis_s, gauss.basis_p)


def _project_and_orthonormalize(proj, rows, signs, space):
    """Project seed rows onto S and S_perp and orthonormalize each half.

    Rows 0:3 go through proj and rows 3:6 through 1 - proj, batched over
    leading axes; the two halves are orthonormalized in one
    `_gram_schmidt_rows` call, as rows of shape (..., 2, 3, 6) with the
    signs of each half.  `make_pair` and every node of `frame` share this
    step.
    """
    rows_s = rows[..., 0:3, :] @ proj.swapaxes(-1, -2)
    rows_p = rows[..., 3:6, :] - rows[..., 3:6, :] @ proj.swapaxes(-1, -2)
    halves = _gram_schmidt_rows(np.stack([rows_s, rows_p], axis=-3), signs.reshape(2, 3), space)
    return halves.reshape(halves.shape[:-3] + (6, 6))


def make_pair(gauss):
    """Symmetric pair at the splitting of the center node of a Gauss map.

    The joint base basis is pushed through the exact projection P (the raw
    spanning families are only O(h^2)-orthogonal across the splitting), so
    the frames built on it stay in the orthogonal group to roundoff.
    """
    proj, basis_s, basis_p = _splitting(gauss)
    node = (gauss.chart.nu // 2, gauss.chart.nv // 2)
    signs = np.concatenate([gauss.signs_s[node], gauss.signs_p[node]], axis=0)
    rows = np.concatenate([basis_s[node], basis_p[node]], axis=0)
    return SymmetricPair(
        space=gauss.space,
        star_o=gauss.eps * (2.0 * proj[node] - np.eye(6)),
        basis_o=_project_and_orthonormalize(proj[node], rows, signs, gauss.space),
        signs_o=signs,
        eps=gauss.eps,
    )


def _outward(n, c):
    """Per step t, the nodes c + t and c - t that exist and their sources
    c + t - 1 and c - t + 1: both sides at once, then the longer side's tail."""
    for t in range(1, c + 1):  # c = n // 2 nodes lie below c, at most c above
        target = np.array([k for k in (c + t, c - t) if k < n])
        yield target, target - np.sign(target - c)


def _center_out_steps(nu, nv):
    """(target, source, axis) steps outward from the center node.

    The seed column j = nv // 2 two nodes at a time (i = ic +- t), then two
    whole columns at a time (j = jc +- t); an even axis ends with one
    one-sided step.  `axis` is 0 for u-steps and 1 for v-steps, and the
    target and source index that axis with an array of one or two entries.
    """
    ic, jc = nu // 2, nv // 2
    for target, source in _outward(nu, ic):
        yield (target, jc), (source, jc), 0
    for target, source in _outward(nv, jc):
        yield (slice(None), target), (slice(None), source), 1


@_once_per_argument
def frame(gauss):
    """Smooth frame field F with F S_o = S(node) and F pairing-orthogonal.

    The base splitting S_o is the center node's (`make_pair`).  Per node, F
    maps the base's orthonormal joint basis to one of S + S_perp; smoothness
    comes from seeding each node's basis with a neighbor's and
    re-orthonormalizing the projections (minimal-rotation propagation from
    the grid center), so there are no gauge jumps.  Only the seed column
    j = nv // 2 runs node by node, both directions per step; every other
    column is seeded from its neighbor column and orthonormalized in one
    batch, again two columns per step.  The frames are float64 when the
    splitting is exactly real (`_splitting`), complex otherwise.  Computed
    once per Gauss map: later calls return the same FrameGrid, whose frames
    are read-only.
    """
    pair = make_pair(gauss)
    proj = _splitting(gauss)[0]
    sp = gauss.space
    nu, nv = gauss.chart.nu, gauss.chart.nv
    bases = np.empty((nu, nv, 6, 6), dtype=pair.basis_o.dtype)

    def node_basis(idx, seed_rows):
        return _project_and_orthonormalize(proj[idx], seed_rows, pair.signs_o, sp)

    center = (nu // 2, nv // 2)
    bases[center] = node_basis(center, pair.basis_o)
    for target, source, _ in _center_out_steps(nu, nv):
        bases[target] = node_basis(target, bases[source])

    base_cols_inv = np.linalg.inv(pair.basis_o.T)
    frames = reproject_orthogonal(bases.swapaxes(-1, -2) @ base_cols_inv, sp)
    return FrameGrid(chart=gauss.chart, frames=frames, pair=pair)


@_once_per_argument
def maurer_cartan(framegrid):
    """Edge logarithms of the frame transition, split by the decomposition.

    Computed once per frame field: later calls return the same
    ConnectionGrid, whose edge arrays are read-only.
    """
    f = framegrid.frames
    pair = framegrid.pair
    sp = framegrid.space
    a_u = logm(sp.adjoint(f[:-1]) @ f[1:])
    a_v = logm(sp.adjoint(f[:, :-1]) @ f[:, 1:])
    # re-project to the skew algebra (kills roundoff drift)
    k_u, p_u = pair.split(0.5 * (a_u - sp.adjoint(a_u)))
    k_v, p_v = pair.split(0.5 * (a_v - sp.adjoint(a_v)))
    return ConnectionGrid(
        chart=framegrid.chart, pair=pair, k_u=k_u, k_v=k_v, p_u=p_u, p_v=p_v,
    )


def structure_identity_residual(gauss, framegrid, alpha):
    """Residual of F alpha_p'(d/du) F^-1 = S_u - S_u* (and the v counterpart).

    Edge values are node-centered by averaging adjacent edges; the identity
    holds to O(h^2): on the ellipsoid the fitted order over 33, 65, 129 nodes
    is 1.94 and 1.97 for u, 1.79 and 1.89 for v.
    """
    su, sv = gauss.derivatives
    f = framegrid.frames
    hu, hv = gauss.chart.hu, gauss.chart.hv

    def residual(p_edges, h, op, axis):
        target = op - gauss.space.adjoint(op)
        if axis == 0:
            mid = 0.5 * (p_edges[:-1] + p_edges[1:]) / h
            fc, tgt = f[1:-1], target[1:-1]
        else:
            mid = 0.5 * (p_edges[:, :-1] + p_edges[:, 1:]) / h
            fc, tgt = f[:, 1:-1], target[:, 1:-1]
        conj = fc @ mid @ framegrid.space.adjoint(fc)
        num = np.linalg.norm(conj - tgt, axis=(-2, -1))
        den = np.maximum(np.linalg.norm(tgt, axis=(-2, -1)).max(), 1e-300)
        return num / den

    return residual(alpha.p_u, hu, su, 0), residual(alpha.p_v, hv, sv, 1)


def spectral_connection(alpha, lam):
    """The loop-family member alpha_k + lambda alpha_p' + lambda^-1 alpha_p'' (shares k_u, k_v)."""
    if lam == 0:
        raise ValueError("lambda must be nonzero")
    return ConnectionGrid(
        chart=alpha.chart,
        pair=alpha.pair,
        k_u=alpha.k_u,
        k_v=alpha.k_v,
        p_u=lam * alpha.p_u,
        p_v=alpha.p_v / lam,
        lam=lam,
    )


def flatness_residual(alpha):
    """Per-plaquette curvature density |log holonomy| / (hu hv).

    The holonomy multiplies the four exponentiated edge values around each
    cell; the connection is flat iff the density vanishes with refinement.
    Edge exponentials are pairing-orthogonal, so their inverses are their
    pairing adjoints.
    """
    eu = expm(alpha.edge_u())
    ev = expm(alpha.edge_v())
    sp = alpha.space
    hol = eu[:, :-1] @ ev[1:] @ sp.adjoint(eu[:, 1:]) @ sp.adjoint(ev[:-1])
    lg = logm(hol)
    return np.linalg.norm(lg, axis=(-2, -1)) / (alpha.chart.hu * alpha.chart.hv)


def integrate_frame(alpha, f0=None):
    """Integrate F^-1 dF = alpha by edge exponentials from the center node.

    Propagates along the seed column j = nv // 2 first, then column by
    column, both directions per step, as `frame` does; the consistency
    scalar is the largest mismatch of the unused edge transitions against
    the integrated frames (zero iff the discrete connection is exactly
    flat).  Frames are re-projected to the pairing-orthogonal group at every
    node.  They take the common dtype of the edges and f0: float64 for a
    real connection and a real (or default identity) f0, complex otherwise.
    """
    nu, nv = alpha.chart.nu, alpha.chart.nv
    sp = alpha.space
    edges = expm(alpha.edge_u()), expm(alpha.edge_v())
    f0 = np.eye(6) if f0 is None else f0
    frames = np.empty((nu, nv, 6, 6), dtype=np.result_type(f0, *edges))
    frames[nu // 2, nv // 2] = f0
    for target, source, axis in _center_out_steps(nu, nv):
        # edge k joins nodes k and k+1: step forward by it, back by its inverse
        forward = target[axis] > source[axis]
        index = list(target)
        index[axis] = np.minimum(target[axis], source[axis])
        edge = edges[axis][tuple(index)]
        step = np.where(forward[:, None, None], edge, sp.adjoint(edge))
        frames[target] = reproject_orthogonal(frames[source] @ step, sp)
    # consistency: u-edges off the seed column were not used in propagation
    mismatch = frames[:-1] @ edges[0] - frames[1:]
    scale = np.maximum(np.linalg.norm(frames[1:], axis=(-2, -1)), 1e-300)
    consistency = float(np.max(np.linalg.norm(mismatch, axis=(-2, -1)) / scale))
    out = FrameGrid(chart=alpha.chart, frames=frames, pair=alpha.pair)
    return out, consistency


def gauss_from_frame(framegrid):
    """Gauss map S(node) = F(node) S_o from a frame field.

    Its projection 0.5 (F star_o F* / eps + 1) is built on first read.
    """
    pair = framegrid.pair
    f = framegrid.frames
    rows = pair.basis_o[0:3]
    span_s = (f @ rows.T[None, None]).swapaxes(-1, -2)
    rows_p = pair.basis_o[3:6]
    span_p = (f @ rows_p.T[None, None]).swapaxes(-1, -2)
    degenerate = np.zeros(f.shape[:2], dtype=bool)
    # F is pairing-orthogonal, so the spans are orthonormal bases already,
    # with the base basis's signs
    signs = np.broadcast_to(pair.signs_o, f.shape[:2] + (6,))

    def build_proj():
        return 0.5 * (f @ pair.star_o @ pair.space.adjoint(f) / pair.eps + np.eye(6))

    return gm.GaussMapGrid(
        space=framegrid.space, chart=framegrid.chart, span_s=span_s, span_p=span_p,
        build_proj=build_proj, degenerate=degenerate,
        basis_s=span_s, signs_s=signs[..., 0:3], basis_p=span_p, signs_p=signs[..., 3:6],
    )


def harmonicity_ratio(alpha):
    """Flatness of the spectral family at lambda = 2 and at lambda = 1.

    Harmonic maps have the whole family flat; the lambda=2 residual over the
    lambda=1 discretization floor is the scale-free harmonicity witness.
    Returns (lambda=2, lambda=1) maxima over the plaquettes off a
    one-plaquette border: a GridChart has at least 5 nodes per axis, so at
    least 4 x 4 plaquettes.
    """
    base = flatness_residual(spectral_connection(alpha, 1.0))
    test = flatness_residual(spectral_connection(alpha, 2.0))
    return float(np.max(interior(test, 1))), float(np.max(interior(base, 1)))


def spectral_deform(gauss, lam):
    """Associated-family deformation S -> S_lambda of a harmonic Gauss map.

    Frames the map, deforms its Maurer-Cartan form to alpha_lambda, and
    integrates back (the frame field and connection are the map's one pair,
    shared with every other caller of `frame` and `maurer_cartan`);
    admissible lambda are real for (1,1) charts and unimodular for (2,0)
    charts.  Curved (2,0) charts frame like any other (the graph chart of
    `convex_graph_sampler(0.05)` in tests/oracles.py on (-0.4, 0.4)^2 at 33^2
    and 65^2, with flatness at the roundoff floor at lambda=1), but those
    graphs are not harmonic, so they are refused here.  Raises
    NonHarmonicInputError when the spectral family is measurably non-flat:
    the lambda=2 residual exceeds FLAT_FLOOR and HARMONIC_FACTOR = 10 times
    the lambda=1 floor.
    """
    if gauss.signature_z == "(1,1)":
        if abs(complex(lam).imag) > 1e-12:
            raise ValueError("lambda must be real for a (1,1) chart")
    elif abs(abs(complex(lam)) - 1.0) > 1e-12:
        raise ValueError("lambda must be unimodular for a (2,0) chart")
    fr = frame(gauss)
    alpha = maurer_cartan(fr)
    test, base = harmonicity_ratio(alpha)
    if test > max(HARMONIC_FACTOR * base, FLAT_FLOOR):
        raise NonHarmonicInputError(
            f"flatness at lambda=2 is {test:.2e} vs {base:.2e} at lambda=1: "
            "input Gauss map is not harmonic"
        )
    ic, jc = gauss.chart.nu // 2, gauss.chart.nv // 2
    deformed, consistency = integrate_frame(
        spectral_connection(alpha, lam), f0=fr.frames[ic, jc]
    )
    out = gauss_from_frame(deformed)
    out.meta["lambda"] = complex(lam)
    out.meta["integration_consistency"] = consistency
    return out


def blaschke_condition_residual(alpha):
    """Norm of alpha_p'(du) o alpha_p'(du) restricted to S_o (per u-edge).

    The envelope condition of the deformed family in connection form; scaled
    by the squared p'-norm.
    """
    rows = alpha.pair.basis_o[0:3]
    comp = alpha.p_u @ alpha.p_u @ rows.T[None, None]
    num = np.linalg.norm(comp, axis=(-2, -1))
    norms = np.linalg.norm(alpha.p_u, axis=(-2, -1))
    # a vanishing p-part satisfies the condition vacuously
    tiny = norms < 1e-10 * (1.0 + float(norms.max()))
    return np.where(tiny, 0.0, num / np.maximum(norms**2, 1e-300))


def dual_connection(alpha):
    """The spectral family at lambda = +-i, read in the dual real basis.

    Evaluates alpha_k + lambda alpha_p' + lambda^-1 alpha_p'' at lambda = +i
    from a (3,3) space and -i from a (4,2) space, and conjugates it by the
    change of basis c whose columns are the S_o basis and i times the
    S_o_perp basis.  The dual pairing is the complexified gram restricted to
    that real span, negated when it has signature (2,4), as it has when S_o
    has signs (-,-,+) (a projective quadric).  Returns the connection in the
    dual space and its imaginary defect (the largest imaginary part over the
    largest entry, which vanishes up to roundoff for a real connection).  The
    defect is measured on the complex edges; the connection keeps their real
    parts, so it is float64 and everything integrated from it follows.  The
    connection's meta holds 'dual_branch' = lambda and 'basis_map' = c,
    whose columns express the dual coordinates in the source coordinates.
    The result is not cached: `dualize` builds it once per call, from the
    map's one connection.
    """
    pair = alpha.pair
    lam = 1.0j if alpha.space.m == 3 else -1.0j
    a_u = alpha.k_u + lam * alpha.p_u
    a_v = alpha.k_v + alpha.p_v / lam
    c = np.concatenate([pair.basis_o[0:3], 1.0j * pair.basis_o[3:6]], axis=0).T
    cinv = np.linalg.inv(c)
    b_u = _change_basis(cinv, a_u, c)
    b_v = _change_basis(cinv, a_v, c)
    im = max(float(np.max(np.abs(b_u.imag))), float(np.max(np.abs(b_v.imag))))
    scale = max(float(np.max(np.abs(b_u))), float(np.max(np.abs(b_v))), 1e-300)
    gram_d = (c.T @ alpha.space.gram @ c).real
    gram_d = np.diag(np.diag(gram_d))  # diagonal by orthonormality of basis_o
    if int((np.diag(gram_d) > 0).sum()) == 2:
        gram_d = -gram_d  # (2,4) is -1 times (4,2), with the same skew algebra
    m_pos = int((np.diag(gram_d) > 0).sum())
    space_d = pl.PseudoSpace(m_pos, 6 - m_pos, gram_d)
    star_d = np.diag(np.concatenate([np.ones(3), -np.ones(3)]))
    pair_d = SymmetricPair(
        space=space_d, star_o=star_d, basis_o=np.eye(6),
        signs_o=np.sign(np.diag(gram_d)), eps=1.0,
    )
    k_u, p_u = pair_d.split(b_u.real)
    k_v, p_v = pair_d.split(b_v.real)
    alpha_d = ConnectionGrid(
        chart=alpha.chart, pair=pair_d, k_u=k_u, k_v=k_v, p_u=p_u, p_v=p_v,
    )
    alpha_d.meta["basis_map"] = c
    alpha_d.meta["dual_branch"] = lam
    return alpha_d, im / scale


def _change_basis(cinv, a, c):
    """cinv @ a @ c for a (..., 6, 6) stack a, as two GEMMs over stacked rows.

    numpy multiplies a matrix and a stack one 6x6 product at a time (about
    9 ms each for complex128 at 129^2, single-threaded).  Here a @ c is one
    (6N, 6) x (6, 6) product over a's rows, and cinv @ (a c) =
    ((a c)^T cinv^T)^T one more over the rows of the transposes (about 9 ms
    for both, the transposing copy included); the results agree to roundoff.
    """
    # a c is dropped once its transposing copy exists, so at most two
    # temporaries of a's size are alive, as in cinv @ a @ c
    rows = (a.reshape(-1, 6) @ c).reshape(a.shape).swapaxes(-1, -2).reshape(-1, 6)
    return (rows @ cinv.T).reshape(a.shape).swapaxes(-1, -2)


def dualize(gauss):
    """Swap between Gauss maps in the (3,3) and (4,2) pictures.

    Implements the symmetric-space duality k + p -> k + i p on a real-chart
    harmonic map: the spectral family is read in the real basis of the dual
    space (`dual_connection`) and integrated to a frame and Gauss map there;
    applied twice it returns to the source picture.  The dual is defined up
    to a constant isometry (the frame seed is the identity).  It reads the
    map's one frame field and connection (`frame`, `maurer_cartan`), and its
    arrays are float64: the dual connection's imaginary defect is measured,
    in meta['imaginary_defect'], before its real part is kept.
    """
    if gauss.signature_z != "(1,1)":
        raise SignatureError("duality needs a real (1,1) chart")
    alpha_d, defect = dual_connection(maurer_cartan(frame(gauss)))
    fr_d, consistency = integrate_frame(alpha_d)
    out = gauss_from_frame(fr_d)
    out.meta.update(alpha_d.meta, imaginary_defect=defect,
                    integration_consistency=consistency)
    return out
