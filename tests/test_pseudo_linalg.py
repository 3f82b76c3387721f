import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadgeo import gauss_map as gm, pseudo_linalg as pl
from quadgeo.errors import GroupElementError

from oracles import QuadricForm, hodge_star, lambda2

SP33 = pl.plucker_space()
SP42 = pl.lie_space()
E6 = np.eye(6)
E4 = np.eye(4)


def test_space_signatures():
    assert (SP33.m, SP33.n) == (3, 3)
    assert (SP42.m, SP42.n) == (4, 2)
    # the signature counts the signs of the Gram's eigenvalues
    sp = pl.PseudoSpace(np.diag([1.0, -1, 1, -1, 1, -1]))
    assert (sp.m, sp.n) == (3, 3)
    with pytest.raises(ValueError, match="signatures"):
        pl.PseudoSpace(-SP42.gram)  # (2,4)


def test_pair_diagonal_examples():
    g = np.diag([1.0, 1, 1, -1, -1, -1])
    sp = pl.PseudoSpace(g)
    assert sp.pair(E6[0], E6[0]) == 1.0
    assert sp.pair(E6[0], E6[1]) == 0.0


def test_pair_lie_basis():
    # <v_0, v_inf> = -1/2 in the (v_-1, v_0, v_1..v_3, v_inf) order
    assert SP42.pair(E6[1], E6[5]) == -0.5
    assert SP42.pair(E6[0], E6[0]) == -1.0


def test_plucker_embed_examples():
    l12 = pl.plucker_embed(E4[0], E4[1])
    assert abs(SP33.pair(l12, l12)) < 1e-15
    assert SP33.pair(l12, pl.plucker_embed(E4[2], E4[3])) == 1.0
    assert SP33.pair(l12, pl.plucker_embed(E4[0], E4[2])) == 0.0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_plucker_lightlike_and_alternating(seed):
    r = np.random.default_rng(seed)
    x, y = r.standard_normal(4), r.standard_normal(4)
    l = pl.plucker_embed(x, y)
    scale = float(np.vdot(l, l).real) + 1e-30
    assert abs(SP33.pair(l, l)) <= 1e-12 * scale
    assert np.allclose(pl.plucker_embed(y, x), -l)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_pair_symmetric_bilinear(seed):
    r = np.random.default_rng(seed)
    x, y, z = r.standard_normal((3, 6))
    assert SP42.pair(x, y) == pytest.approx(SP42.pair(y, x))
    assert SP42.pair(x + 2.0 * z, y) == pytest.approx(
        SP42.pair(x, y) + 2.0 * SP42.pair(z, y)
    )


# a diagonal Gram whose entries are not powers of two, as dual_connection builds
SP_DIAG = pl.PseudoSpace(np.diag([1.0 - 2.0**-52, 1.0, 0.7, -1.0, -1.3, -1.0]))


def _same_bits(a, b):
    """Equal values and equal sign bits (so +0 and -0 differ)."""
    a, b = np.asarray(a), np.asarray(b)
    return (
        a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
        and np.array_equal(np.signbit(a.real), np.signbit(b.real))
        and np.array_equal(np.signbit(np.imag(a)), np.signbit(np.imag(b)))
    )


def _with_zeros(rng, shape, dtype):
    """Samples of a real chart with exact zeros of both signs.

    float64: about a third of the entries are +0 or -0.  complex128: real
    parts are normal samples and imaginary parts +0 or -0.  (Where a complex
    matmul result has an exactly zero real part, the sign of that zero
    depends on the BLAS kernel's accumulation order.)
    """
    x = rng.standard_normal(shape)
    zero = rng.random(shape)
    if dtype is float:
        x[zero < 0.2] = 0.0
        x[zero > 0.85] = -0.0
        return x
    return x + np.where(zero < 0.5, 0.0, -0.0) * 1j


@pytest.mark.parametrize("sp", [SP42, SP33, SP_DIAG], ids=["lie", "plucker", "diag"])
@pytest.mark.parametrize("dtype", [float, complex])
def test_pair_and_adjoint_bit_identical_to_dense_forms(sp, dtype, rng):
    ginv = np.linalg.inv(sp.gram)
    for shape in [(6,), (7, 6), (200, 200, 6)]:
        x = _with_zeros(rng, shape, dtype)
        y = _with_zeros(rng, shape, dtype)
        assert _same_bits(sp.pair(x, y), np.einsum("...i,ij,...j->...", x, sp.gram, y))
        a = _with_zeros(rng, shape[:-1] + (6, 6), dtype)
        assert _same_bits(sp.adjoint(a), ginv @ np.swapaxes(a, -1, -2) @ sp.gram)
    # the broadcast 3x3 span Grams of the Gauss map
    rows = _with_zeros(rng, (5, 4, 3, 6), dtype)
    xs, ys = rows[..., :, None, :], rows[..., None, :, :]
    assert _same_bits(sp.pair(xs, ys), np.einsum("...i,ij,...j->...", xs, sp.gram, ys))


@pytest.mark.parametrize("sp", [SP42, SP33, SP_DIAG], ids=["lie", "plucker", "diag"])
def test_pair_and_adjoint_on_complex_data_agree_to_roundoff(sp, rng):
    x, y = rng.standard_normal((2, 50, 6)) + 1j * rng.standard_normal((2, 50, 6))
    want = np.einsum("...i,ij,...j->...", x, sp.gram, y)
    assert np.max(np.abs(sp.pair(x, y) - want) / np.abs(want)) < 1e-14
    a = rng.standard_normal((50, 6, 6)) + 1j * rng.standard_normal((50, 6, 6))
    want = np.linalg.inv(sp.gram) @ np.swapaxes(a, -1, -2) @ sp.gram
    assert np.max(np.abs(sp.adjoint(a) - want)) < 1e-14 * np.max(np.abs(want))


def test_numpy_complex_semantics_behind_the_float64_paths(rng):
    # real_if_exact and the float64 dS are bit-identical to the complex
    # computations only under these numpy semantics; a numpy that changes one
    # fails here instead of moving report digits
    a, b = rng.standard_normal((2, 4000))
    ac, bc = a + 0j, b + 0j
    for got, want in (((ac * bc), a * b), ((ac + bc), a + b), ((ac * 1.7), a * 1.7)):
        assert np.array_equal(got.real, want) and not np.any(got.imag)
    signs = np.where(rng.random(4000) < 0.5, -1.0, 1.0)
    for divisor in (signs, signs + 0j):
        assert np.array_equal(ac / divisor, a * signs + 0j)
        assert np.array_equal((ac / divisor).real, a / signs)
    # complex data is divided by a real h through its reciprocal
    h = 2.0 * 0.0123456789
    assert np.array_equal(ac / h, ac * (1.0 / h))


def test_numpy_rounding_behind_the_float64_gauss_map(rng):
    # gauss_map computes a real chart's splitting, P, dS and tau in float64
    # and must equal the complex128 computation bit for bit; that holds only
    # while numpy rounds as checked here
    n = 33
    # 1. complex data divided by a real is multiplied by its reciprocal
    # (Smith's algorithm), so float64 code multiplies by the same reciprocal:
    # the stencils' 2h and h^2, 1/sqrt|n|, 1/beta and 1/sqrt(2)
    a = rng.standard_normal((n, n, 6))
    ac = a + 0j
    h = 0.0123456789
    d = np.abs(rng.standard_normal((n, n, 1))) + 0.1
    for real in (2.0 * h, h * h, np.sqrt(2.0), d):
        for divisor in (real, real + 0j):
            assert np.array_equal(ac / divisor, ac * (1.0 / real))
            assert np.array_equal((ac / divisor).real, a * (1.0 / real))
    # 2. complex matmuls of zero-imaginary data equal float64 matmuls: P's
    # stacked (6x3)(3x3)(3x6)(6x6) product, with the span read transposed,
    # and the 6x6 products of tau
    span = rng.standard_normal((n, n, 3, 6))
    gram_inv = rng.standard_normal((n, n, 3, 3))
    gram = SP42.gram
    want = span.swapaxes(-1, -2) @ gram_inv @ span @ gram
    spanc = span + 0j
    got = spanc.swapaxes(-1, -2) @ (gram_inv + 0j) @ spanc @ gram
    assert np.array_equal(got, want) and not np.any(got.imag)
    x, y, z = rng.standard_normal((3, n, n, 6, 6))
    got = (x + 0j) @ (y + 0j) @ (z + 0j)
    assert np.array_equal(got, x @ y @ z) and not np.any(got.imag)
    assert np.array_equal(np.linalg.norm(x + 0j, axis=(-2, -1)), np.linalg.norm(x, axis=(-2, -1)))
    # 3. the ops whose float64 kernels round differently take dtype=complex,
    # which runs the complex kernel on float64 input
    u, v = rng.standard_normal((2, n, n, 6))
    assert np.array_equal(np.einsum("...k,...k->...", u, v, dtype=complex),
                          np.einsum("...k,...k->...", u + 0j, v + 0j))
    assert np.array_equal(np.matmul(x, u[..., None], dtype=complex), (x + 0j) @ (u[..., None] + 0j))


def test_numpy_layout_behind_the_node_innermost_fields(rng):
    # gauss_map stores its spans and bases nodes-innermost (memory order row,
    # component, u, v) and runs its pairings and ufuncs on those views; its
    # outputs keep their bits only while numpy gives the same bits there as
    # on C-contiguous copies, as checked here (reductions over the component
    # axes and BLAS products read C-contiguous copies instead)
    n = 33
    for dtype in (np.float64, np.complex128):
        def draw(*shape):
            x = rng.standard_normal(shape)
            return x + 1j * rng.standard_normal(shape) if dtype == np.complex128 else x

        a, b = draw(n, n, 3, 6), draw(n, n, 3, 6)
        a[0, 0] = -0.0  # signed zeros too
        ai, bi = gm.nodes_innermost(a), gm.nodes_innermost(b)
        assert ai.shape == a.shape and not ai.flags.c_contiguous
        assert np.moveaxis(ai, (-2, -1), (0, 1)).flags.c_contiguous
        signs = np.where(rng.random((n, n, 3, 1)) < 0.5, -1.0, 1.0)
        mask = rng.random((n, n, 1, 1)) < 0.5
        for sp in (SP33, SP42):
            # the row Gram, broadcast over the rows and over planes of rows
            assert _same_bits(sp.pair(ai[..., :, None, :], bi[..., None, :, :]),
                              sp.pair(a[..., :, None, :], b[..., None, :, :]))
            planes = sp.pair(np.moveaxis(ai, -2, 0)[:, None], np.moveaxis(bi, -2, 0)[None])
            assert _same_bits(np.moveaxis(planes, (0, 1), (-2, -1)),
                              sp.pair(a[..., :, None, :], b[..., None, :, :]))
        radicand = (np.abs(ai), np.abs(a)) if dtype == np.float64 else (ai, a)
        for got, want in (
                (ai + bi, a + b), (ai - 0.5 * bi, a - 0.5 * b), (ai * bi, a * b),
                (ai * (1.0 / np.sqrt(2.0)), a * (1.0 / np.sqrt(2.0))),
                (ai / bi, a / b), (ai / signs, a / signs),
                (np.sqrt(radicand[0]), np.sqrt(radicand[1])), (np.abs(ai), np.abs(a)),
                (np.where(mask, ai, bi), np.where(mask, a, b))):
            assert _same_bits(got, want)
        # stacked 3x3 determinants and inverses of a nodes-innermost stack
        m = draw(n, n, 3, 3)
        mi = gm.nodes_innermost(m)
        assert _same_bits(np.linalg.det(mi), np.linalg.det(m))
        assert _same_bits(np.linalg.inv(mi), np.linalg.inv(m))
        # row norms: a row of fewer than 8 entries is summed in order, whatever
        # its stride (conformal_gauss takes its 6-entry norms on the view)
        for k in range(1, 8):
            x = draw(n, n, 3, k)
            squares = (x.conj() * x).real
            in_order = squares[..., 0]
            for j in range(1, k):
                in_order = in_order + squares[..., j]
            for row in (x, gm.nodes_innermost(x), np.repeat(x, 2, axis=-1)[..., ::2]):
                assert _same_bits(np.linalg.norm(row, axis=-1), np.sqrt(in_order))


def test_numpy_rounding_behind_the_float64_lift(rng):
    # legendre and functionals.proj_density compute a real chart's lift,
    # residuals, conjugate coefficients and density in float64 and must equal
    # the complex128 computation bit for bit; that holds only while numpy
    # rounds as checked here (the divisions by a real are pinned above)
    n = 33
    u, v = rng.standard_normal((2, n, n, 6))
    # 1. einsum with dtype=complex on float64 input runs the complex kernel,
    # exactly real: the Hermitian dots of 6-vectors and the group action
    got = np.einsum("...k,...k->...", u, v, dtype=complex)
    assert np.array_equal(got, np.einsum("...k,...k->...", (u + 0j).conj(), v + 0j))
    assert not np.any(got.imag)
    g = rng.standard_normal((6, 6))
    got = np.einsum("ij,...j->...i", g, u, dtype=complex)
    assert np.array_equal(got, np.einsum("ij,...j->...i", g + 0j, u + 0j))
    assert not np.any(got.imag)
    assert np.array_equal(np.linalg.norm(u, axis=-1), np.linalg.norm(u + 0j, axis=-1))
    # 2. the complex determinant of float64 columns is exactly real and
    # equals that of zero-imaginary columns; dividing by such a determinant
    # multiplies by its reciprocal
    cols = rng.standard_normal((n, n, 4, 4))
    det = np.linalg.det(cols.astype(complex))
    assert not np.any(det.imag)
    assert np.array_equal(det, np.linalg.det(np.asarray(cols, dtype=complex) + 0j))
    num = np.linalg.det(rng.standard_normal((n, n, 4, 4)) + 0j)
    assert np.array_equal((num / det).real, num.real * (1.0 / det.real))
    # 3. plucker_embed's float64 products equal the zero-imaginary complex ones
    x, y = rng.standard_normal((2, n, n, 4))
    got, want = pl.plucker_embed(x, y), pl.plucker_embed(x + 0j, y + 0j)
    assert got.dtype == np.float64 and np.array_equal(got, want) and not np.any(want.imag)


def test_real_if_exact(rng):
    x = rng.standard_normal((4, 6))
    real, also = pl.real_if_exact(x + 0j, x.copy())
    assert real.dtype == also.dtype == np.float64 and np.array_equal(real, x)
    assert pl.real_if_exact(x)[0] is x  # a float array passes through untouched
    y = x + 0j
    y[2, 3] += 1e-300j  # one nonzero imaginary part keeps every array complex
    kept = pl.real_if_exact(x + 0j, y)
    assert kept[0].dtype == kept[1].dtype == np.complex128 and kept[1] is y


def test_non_monomial_gram_rejected():
    g = np.diag([1.0, 1, 1, -1, -1, -1])
    g[0, 1] = g[1, 0] = 0.25  # still symmetric, invertible and of signature (3,3)
    with pytest.raises(ValueError, match="monomial"):
        pl.PseudoSpace(g)


def test_standard_spaces_cached_read_only():
    assert pl.lie_space() is SP42 and pl.plucker_space() is SP33
    with pytest.raises(ValueError):
        SP42.gram[0, 0] = 1.0


def test_hodge_star_involution_signs():
    lorentz = hodge_star(QuadricForm(np.diag([1.0, 1, 1, -1])))
    assert np.allclose(lorentz @ lorentz, -E6, atol=1e-12)
    split = hodge_star(QuadricForm(np.diag([1.0, 1, -1, -1])))
    assert np.allclose(split @ split, E6, atol=1e-12)


def test_hodge_star_symmetric():
    q = QuadricForm(np.diag([1.0, 1, -1, -1]))
    s = hodge_star(q)
    g = SP33.gram
    assert np.allclose(g @ s.T @ g, s, atol=1e-12)


def test_null_plane_eigenvector_example():
    # Q = diag(1,-1,1,-1): (e1+e2) ^ (e3+e4) spans a Q-null plane
    star = hodge_star(QuadricForm(np.diag([1.0, -1, 1, -1])))
    l = pl.plucker_embed(E4[0] + E4[1], E4[2] + E4[3])
    ratio = star @ l
    assert np.allclose(ratio, -l, atol=1e-12) or np.allclose(ratio, l, atol=1e-12)


def test_eigenvector_lemma_both_directions(rng):
    """star_Q l = +-eps l iff Q vanishes on the Klein plane of l.

    Uses (2,2) quadrics (the ruled case with real generator planes): the null
    plane pairs each positive axis with a negative one; the converse is
    checked on random decomposable bivectors.
    """
    for _ in range(100):
        mags = 0.3 + np.abs(rng.standard_normal(4))
        signs = rng.permutation([1.0, 1.0, -1.0, -1.0])
        diag = mags * signs
        q = QuadricForm(np.diag(diag)).normalized()
        d = np.diag(q.q)
        star = hodge_star(q)
        assert np.allclose(star @ star, E6, atol=1e-9)
        pos = np.flatnonzero(d > 0)
        neg = np.flatnonzero(d < 0)
        x = np.sqrt(-d[neg[0]]) * E4[pos[0]] + np.sqrt(d[pos[0]]) * E4[neg[0]]
        y = np.sqrt(-d[neg[1]]) * E4[pos[1]] + np.sqrt(d[pos[1]]) * E4[neg[1]]
        assert abs(x @ q.q @ x) < 1e-12 and abs(y @ q.q @ y) < 1e-12
        assert abs(x @ q.q @ y) < 1e-12
        l = pl.plucker_embed(x, y)
        resid = min(
            np.linalg.norm(star @ l - l), np.linalg.norm(star @ l + l)
        ) / np.linalg.norm(l)
        assert resid <= 1e-9
        # converse on a random decomposable bivector
        a, b = rng.standard_normal((2, 4))
        lr = pl.plucker_embed(a, b)
        qmax = max(abs(a @ q.q @ a), abs(a @ q.q @ b), abs(b @ q.q @ b))
        eig_resid = min(
            np.linalg.norm(star @ lr - lr), np.linalg.norm(star @ lr + lr)
        ) / np.linalg.norm(lr)
        if eig_resid <= 1e-9:
            assert qmax <= 1e-9 * np.linalg.norm(q.q)


def test_double_cover_preserves_pairing(rng):
    for k in range(20):
        a = pl.random_unimodular(np.random.default_rng(k), 0.5)
        g = lambda2(a)
        v, w = rng.standard_normal((2, 6))
        lhs = SP33.pair(g @ v, g @ w)
        assert abs(lhs - SP33.pair(v, w)) <= 1e-10 * (1 + abs(lhs))


def test_random_pseudo_orthogonal_in_group(rng):
    for sp in (SP33, SP42):
        g = pl.random_pseudo_orthogonal(sp, rng)
        pl.check_group_element(g, sp)
    with pytest.raises(GroupElementError):
        pl.check_group_element(np.eye(6) * 1.5, SP42)
