"""Batched small-matrix functions: exp, log, pairing-orthogonal projection.

All routines accept stacked arrays (..., n, n) and avoid per-matrix Python
loops except in the scipy fallback path.  They compute in the dtype of their
input: a float64 batch stays float64 (a real matrix has a real exponential,
and the principal logarithm of a real matrix inside the unit ball around the
identity is real), a complex128 batch stays complex128.  Tuned for 6x6
blocks on grids of a few thousand nodes.  The series lengths of `expm` and
`logm` are chosen from the largest 1-norm in the batch: the fewest terms
whose truncation bound falls below the unit roundoff (Higham, SIAM J. Matrix
Anal. Appl. 26, 2005; Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31,
2009).

`logm` routes each matrix A by r = |A - I|_1 alone, with no check
afterwards.  Near the identity (r <= LOGM_MERCATOR_RADIUS = 1/4), which is
every edge transition and plaquette holonomy of the loop-algebra layer, it
sums the Mercator series log(I + E) directly, since the a-priori tail bound
holds for any E of that norm (Higham, Functions of Matrices, SIAM 2008,
ch. 11).  For 1/4 < r < 1 it takes square roots down to r <= 1/4 first
(inverse scaling and squaring: Al-Mohy & Higham, SIAM J. Sci. Comput. 34,
2012).  Matrices with r >= 1 go to `scipy.linalg.logm`.  That fallback is
the only use of scipy in the library: `scipy.linalg` is imported when a
matrix first reaches it, so importing quadgeo does not load scipy, and the
fallback is looked up on the module at each call, so a patched
`scipy.linalg.logm` is the one called.
"""

import math

import numpy as np

UNIT_ROUNDOFF = 2.0 ** -53
EXPM_MAX_DEGREE = 16
LOGM_MERCATOR_RADIUS = 0.25  # |A - I|_1 up to which logm sums log(I + E) directly


def _norm1(a):
    """Batched induced 1-norm (einsum sums the columns faster than sum(axis=-2))."""
    return np.einsum("...ij->...j", np.abs(a)).max(axis=-1)


def _taylor_degree(theta):
    """Fewest Taylor terms m with theta^(m+1) / (m+1)! e^theta <= u.

    That is the truncation bound of the degree-m Taylor polynomial of exp
    at 1-norm theta; capped at EXPM_MAX_DEGREE.
    """
    for m in range(EXPM_MAX_DEGREE):
        if theta ** (m + 1) / math.factorial(m + 1) * math.exp(theta) <= UNIT_ROUNDOFF:
            return m
    return EXPM_MAX_DEGREE


def _mercator_terms(r):
    """Fewest K with r^(K+1) / ((K+1)(1 - r)) <= u, for 0 <= r < 1.

    That bounds the 1-norm of the tail sum_{k>K} (-1)^(k+1) E^k / k of
    log(I + E) whenever |E|_1 <= r, normal or not: K = 1 at r = 5e-11,
    10 at r = 0.032, 24 at r = 1/4.
    """
    k = 1
    while r ** (k + 1) / ((k + 1) * (1.0 - r)) > UNIT_ROUNDOFF:
        k += 1
    return k


def expm(a):
    """exp(a) by scaling and squaring around a Taylor polynomial.

    The batch is scaled by 2^-s until its largest 1-norm theta is <= 0.25,
    and the Taylor degree is the fewest terms m with
    theta^(m+1) / (m+1)! e^theta <= 2^-53 (m = 12 at theta = 0.25, 7 at
    0.03), capped at 16; then the result is squared s times.  A non-finite
    batch, and a result that overflows while it is squared, raise a
    ValueError; the unsquared result of a finite batch is finite.
    """
    a = np.asarray(a)
    n = a.shape[-1]
    norms = np.atleast_1d(_norm1(a))
    maxn = float(norms.max()) if norms.size else 0.0
    if not math.isfinite(maxn):
        raise ValueError("expm of a batch with non-finite entries")
    # scale so the Taylor core sees norms <= 0.25: any float is below 2^1024, so
    # 1026 squarings do where maxn / 0.25 overflows; 0.5 ** s is exact for every
    # such s, and 2.0 ** s overflows past s = 1023
    squarings = int(min(np.ceil(np.log2(maxn / 0.25)), 1026)) if maxn > 0.25 else 0
    scale = 0.5 ** squarings
    b = a * scale if squarings else a
    eye = np.broadcast_to(np.eye(n, dtype=b.dtype), b.shape)
    out = eye.copy()
    term = eye
    for k in range(1, _taylor_degree(maxn * scale) + 1):
        term = term @ b
        term *= 1.0 / k
        out += term
    if squarings:
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(squarings):
                out = out @ out
        if not np.isfinite(out).all():
            raise ValueError(f"expm overflows while squaring: largest 1-norm {maxn:.3g}")
    return out


def _mercator_log(e, r):
    """log(I + E) = sum_{k=1..K} (-1)^(k+1) E^k / k for a batch with |E|_1 <= r.

    K is `_mercator_terms(r)`; Horner's rule E (c_1 I + E (c_2 I + ...))
    adds each coefficient to the diagonal in place.  At K = 1 the result is
    E itself.
    """
    last = _mercator_terms(r)
    out = e * ((-1) ** (last + 1) / last)
    for k in range(last - 1, 0, -1):
        diag = np.einsum("...ii->...i", out)
        diag += (-1) ** (k + 1) / k
        out = e @ out
    return out


def _sqrtm(a):
    """Principal square roots of a batch whose eigenvalues avoid (-inf, 0].

    Product-form Denman-Beavers: M, X <- A, then X <- X (I + M^-1) / 2 and
    M <- (I + (M + M^-1) / 2) / 2, so X -> A^(1/2) while M -> I
    quadratically (Higham, Functions of Matrices, SIAM 2008, sec. 6.3).
    Since M_+ - I = (M - I)^2 M^-1 / 4, a step maps |M - I|_1 = d <= 1/4 to
    at most d^2 / 3; so the iteration stops at the first step inside the
    Mercator radius that does not lower the batch's largest |M - I|_1, where
    roundoff has taken over.  Outside that radius |M - I|_1 may grow for a
    step (an eigenvalue near 0), and the iteration runs on.
    """
    eye = np.eye(a.shape[-1])
    m = x = a
    dev = math.inf
    while True:
        minv = np.linalg.inv(m)
        x = 0.5 * (x @ (eye + minv))
        m = 0.5 * (eye + 0.5 * (m + minv))
        new = float(_norm1(m - eye).max())
        if not (new > LOGM_MERCATOR_RADIUS or new < dev):
            return x
        dev = new


def logm(a):
    """Principal log of a batch of matrices, routed by r = |A - I|_1.

    - r <= LOGM_MERCATOR_RADIUS (1/4): the Mercator series log(I + E),
      E = A - I, to the fewest terms K with r^(K+1) / ((K+1)(1 - r)) <= 2^-53,
      r the largest such norm in the batch (`_mercator_log`).  That bound
      holds for non-normal E.  A batch entirely this near the identity, as
      every Maurer-Cartan edge and holonomy batch is, goes through without a
      gather or scatter copy.
    - 1/4 < r < 1: every eigenvalue has |lambda - 1| < 1, so the principal
      square roots exist (real for a real A).  The batch takes s square roots
      (`_sqrtm`) until every |B - I|_1 <= 1/4, and log A = 2^s log B by the
      Mercator series (inverse scaling and squaring: Al-Mohy & Higham, SIAM
      J. Sci. Comput. 34, 2012).  Each root lowers the norm, since
      |(I + E)^(1/2) - I|_1 <= 1 - (1 - |E|_1)^(1/2).
    - r >= 1, or a non-finite matrix: scipy.linalg.logm, one call each.

    The result has the dtype of `a` (promoted to complex only if scipy
    returns a genuinely complex logarithm of a real matrix).
    """
    a = np.asarray(a)
    a = a.astype(np.result_type(a, 1.0), copy=False)
    n = a.shape[-1]
    flat = a.reshape(-1, n, n)
    e = flat - np.eye(n)
    r = _norm1(e)
    near = r <= LOGM_MERCATOR_RADIUS
    if near.all():
        return _mercator_log(e, float(r.max(initial=0.0))).reshape(a.shape)
    out = np.empty_like(flat)
    out[near] = _mercator_log(e[near], float(r[near].max(initial=0.0)))
    band = ~near & (r < 1.0)
    b, rb, roots = flat[band], float(r[band].max(initial=0.0)), 0
    while rb > LOGM_MERCATOR_RADIUS:
        b = _sqrtm(b)
        rb = float(_norm1(b - np.eye(n)).max())
        roots += 1
    out[band] = _mercator_log(b - np.eye(n), rb) * 2.0 ** roots
    far = np.nonzero(~(near | band))[0]
    if far.size:
        import scipy.linalg  # deferred: this fallback is the library's only use of scipy

        logs = [scipy.linalg.logm(flat[idx]) for idx in far]
        out = out.astype(np.result_type(out, *logs), copy=False)
        out[far] = logs
    return out.reshape(a.shape)


def reproject_orthogonal(f, space):
    """Pull f back onto the pairing-orthogonal group of `space`: F* F = I.

    Two Newton steps F <- F (I - (F* F - I) / 2), with F* the pairing
    adjoint `space.adjoint(F)`; the step is quadratically convergent, so two
    keep frames in the group to ~1e-14 for drifts below 1e-4.  The result
    has the dtype of `f`.
    """
    f = np.asarray(f)
    eye = np.eye(f.shape[-1])
    for _ in range(2):
        f = f @ (eye - 0.5 * (space.adjoint(f) @ f - eye))
    return f

