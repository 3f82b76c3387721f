import numpy as np
import pytest
import scipy.linalg

from quadgeo import matfun
from quadgeo.grids import GridChart, d_u, d_uu, d_v, d_vv, interior, smooth_phase

from oracles import orthogonality_defect


def test_chart_validation():
    with pytest.raises(ValueError):
        GridChart(4, 9, 0.1, 0.1)
    with pytest.raises(ValueError):
        GridChart(9, 9, -0.1, 0.1)
    with pytest.raises(ValueError):
        GridChart(9, 9, 0.1, float("nan"))
    with pytest.raises(ValueError):
        GridChart(9, 9, 0.1, 0.1, reality="imaginary")


def test_fd_second_order_convergence():
    errs = []
    for n in (17, 33, 65):
        ch = GridChart(n, n, 1.0 / (n - 1), 1.0 / (n - 1))
        x = np.linspace(0, 1, n)
        uu, vv = np.meshgrid(x, x, indexing="ij")
        f = np.sin(2 * uu + vv) * np.cos(vv)
        fu_exact = 2 * np.cos(2 * uu + vv) * np.cos(vv)
        errs.append(np.max(interior(np.abs(d_u(f, ch) - fu_exact))))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders > 1.9)


def test_fd_exact_on_quadratics():
    ch = GridChart(9, 9, 0.25, 0.5)
    x = np.arange(9) * 0.25
    y = np.arange(9) * 0.5
    uu, vv = np.meshgrid(x, y, indexing="ij")
    f = 1.0 + 2 * uu - 3 * vv + uu * vv + uu**2 - 0.5 * vv**2
    assert np.allclose(d_u(f, ch), 2 + vv + 2 * uu, atol=1e-12)
    assert np.allclose(d_vv(f, ch), -1.0, atol=1e-12)
    assert np.allclose(d_uu(f, ch), 2.0, atol=1e-12)


def test_wirtinger_derivatives():
    # f = (x + iy)^2 is holomorphic: d_v f = 0, d_u f = 2(x + iy)
    ch = GridChart(17, 17, 0.1, 0.1, reality="complex_conjugate")
    x = np.arange(17) * 0.1
    xx, yy = np.meshgrid(x, x, indexing="ij")
    w = xx + 1j * yy
    f = w * w
    assert np.max(np.abs(interior(d_v(f, ch)))) < 1e-10
    assert np.max(np.abs(interior(d_u(f, ch) - 2 * w))) < 1e-10


@pytest.mark.parametrize("reality", ["real", "complex_conjugate"])
@pytest.mark.parametrize("deriv", [d_u, d_v, d_uu, d_vv], ids=["d_u", "d_v", "d_uu", "d_vv"])
def test_float64_field_differences_as_its_complex_cast(deriv, reality, rng):
    # numpy divides complex data by a real through the real's reciprocal, so
    # stencils that multiply by 1/(2h) and 1/h^2 give a float64 field the
    # bits of its complex128 cast; the float64 lift and Gauss map rely on it
    ch = GridChart(17, 13, 0.0123456789, 0.0370370371, reality=reality)
    f = rng.standard_normal((17, 13, 6))
    got, want = deriv(f, ch), deriv(f.astype(complex), ch)
    if reality == "real":
        assert got.dtype == np.float64
        want = want.real
    assert np.array_equal(got, want)


def test_expm_logm_roundtrip(rng):
    a = 0.3 * rng.standard_normal((40, 6, 6))
    m = matfun.expm(a)
    back = matfun.logm(m)
    assert np.max(np.abs(matfun.expm(back) - m)) < 1e-9
    # near-identity inputs (the edge-transition regime) are much tighter
    small = matfun.expm(0.01 * rng.standard_normal((40, 6, 6)))
    assert np.max(np.abs(matfun.expm(matfun.logm(small)) - small)) < 1e-13
    assert np.max(np.abs(matfun.expm(np.zeros((6, 6))) - np.eye(6))) < 1e-15


@pytest.mark.parametrize("norm", [1e-4, 1e-3, 1e-2, 0.03, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0])
def test_expm_matches_scipy_on_skew_batches(norm, rng):
    # the Taylor degree follows the batch's largest 1-norm
    m = rng.standard_normal((24, 6, 6))
    x = m - m.swapaxes(-1, -2)
    x *= (norm / np.abs(x).sum(axis=-2).max(axis=-1))[:, None, None]
    ref = np.array([scipy.linalg.expm(xi) for xi in x])
    err = np.linalg.norm(matfun.expm(x) - ref, axis=(-2, -1)) / np.linalg.norm(ref, axis=(-2, -1))
    assert np.max(err) <= 1e-14


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_expm_refuses_a_non_finite_batch(bad):
    a = np.zeros((3, 6, 6))
    a[1, 2, 3] = bad
    with pytest.raises(ValueError, match="non-finite"):
        matfun.expm(a)


def test_expm_refuses_a_result_that_overflows_while_squaring():
    # exp(1e300 I) is not a float; a RuntimeWarning would be an error here
    with pytest.raises(ValueError, match="overflows"):
        matfun.expm(1e300 * np.eye(6))


def test_expm_scales_a_norm_past_2_to_the_1023():
    # 1026 squarings: 2.0 ** 1026 overflows, 0.5 ** 1026 is exact
    a = -1.7e308 * np.eye(6)
    assert np.array_equal(matfun.expm(a), np.zeros((6, 6)))


def _rotations(seed, angle):
    # 64 real 6x6 rotations by the given angles (rad) and their logarithms x
    m = np.random.default_rng(seed).standard_normal((64, 6, 6))
    x = m - m.swapaxes(-1, -2)
    x *= (angle / np.max(np.abs(np.linalg.eigvals(x)), axis=-1))[:, None, None]
    return x, matfun.expm(x)


def test_logm_far_rotation_falls_back_alone(monkeypatch):
    # 63 rotations by 0.05 rad and one by 3 rad: |A - I|_1 >= 1 on the far
    # one, which must reach scipy without spoiling the others
    angle = np.full(64, 0.05)
    angle[17] = 3.0
    x, a = _rotations(3, angle)
    seen = []
    scipy_logm = scipy.linalg.logm
    monkeypatch.setattr(scipy.linalg, "logm", lambda b: seen.append(b) or scipy_logm(b))
    log = matfun.logm(a)
    assert np.max(np.abs(log - x)) < 1e-10
    assert len(seen) == 1 and np.array_equal(seen[0], a[17])


def _logm_of_known(norm, seed, dtype=float):
    # x scaled to the given 1-norm per matrix and its exponential
    r = np.random.default_rng(seed)
    x = r.standard_normal((48, 6, 6)).astype(dtype)
    if dtype is complex:
        x += 1j * r.standard_normal((48, 6, 6))
    x *= (norm / matfun._norm1(x))[:, None, None]
    return x, matfun.expm(x)


def _rel_err(log, x):
    return np.max(np.linalg.norm(log - x, axis=(-2, -1)) / np.linalg.norm(x, axis=(-2, -1)))


@pytest.mark.parametrize("norm", [1e-11, 1e-8, 1e-6, 1e-3, 0.03, 0.1, 0.235, 0.25, 0.3])
def test_logm_recovers_the_known_logarithm(norm):
    # against the known x (scipy's logm is off by 3e-4 relative at 1e-11);
    # the error is dominated by the rounding of expm(x) itself
    x, a = _logm_of_known(norm, seed=11)
    near = matfun._norm1(a - np.eye(6)) <= matfun.LOGM_MERCATOR_RADIUS
    # up to 0.235 all near the identity, at 0.25 a mix, at 0.3 none
    assert near.all() == (norm <= 0.235) and near.any() == (norm <= 0.25)
    err = _rel_err(matfun.logm(a), x)
    assert err <= 1e-4 * 1e-11 / norm + 1e-14


def test_logm_single_mercator_term_is_a_minus_identity():
    x, a = _logm_of_known(1e-11, seed=12)
    assert matfun._mercator_terms(float(np.max(matfun._norm1(a - np.eye(6))))) == 1
    assert np.array_equal(matfun.logm(a), a - np.eye(6))


def test_mercator_terms_follow_the_tail_bound():
    assert [matfun._mercator_terms(r) for r in (0.0, 5e-11, 0.032, 0.25)] == [1, 1, 10, 24]


def test_logm_empty_and_complex_near_identity_batches():
    empty = matfun.logm(np.empty((0, 6, 6)))
    assert empty.shape == (0, 6, 6) and empty.dtype == np.float64
    x, a = _logm_of_known(0.05, seed=13, dtype=complex)
    log = matfun.logm(a)
    assert log.dtype == np.complex128
    assert _rel_err(log, x) <= 1e-13


def test_logm_sends_only_matrices_outside_the_unit_ball_to_scipy(monkeypatch):
    # 62 rotations by 0.05 rad, one by 0.45 rad and one by 3 rad: the near
    # ones take the Mercator series, 0.45 rad (|A - I|_1 < 1) square roots
    # onto it, and only 3 rad (|A - I|_1 >= 1) scipy
    angle = np.full(64, 0.05)
    angle[[9, 40]] = 0.45, 3.0
    x, a = _rotations(4, angle)
    r = matfun._norm1(a - np.eye(6))
    assert matfun.LOGM_MERCATOR_RADIUS < r[9] < 1.0 <= r[40]
    logged = []
    scipy_logm = scipy.linalg.logm
    monkeypatch.setattr(scipy.linalg, "logm", lambda b: logged.append(b) or scipy_logm(b))
    log = matfun.logm(a)
    assert np.max(np.abs(log - x)) < 1e-10
    assert len(logged) == 1 and np.array_equal(logged[0], a[40])


def test_logm_square_roots_inside_the_unit_ball(monkeypatch):
    # rotations by 0.15-0.5 rad have 1/4 < |A - I|_1 < 1 (0.27-0.95 here),
    # and so does a non-normal triangular A with eigenvalues 0.05-1.5 (0.95),
    # on which the first root step raises |M - I|_1: square roots, no scipy,
    # float64 kept
    x, a = _rotations(5, np.linspace(0.15, 0.5, 64))
    tri = np.diag(np.log([0.05, 0.3, 0.6, 0.9, 1.1, 1.5])) + np.triu(np.full((6, 6), 0.05), 1)
    x, a = np.concatenate([x, tri[None]]), np.concatenate([a, matfun.expm(tri)[None]])
    r = matfun._norm1(a - np.eye(6))
    assert np.all((r > matfun.LOGM_MERCATOR_RADIUS) & (r < 1.0))
    roots = []
    sqrtm = matfun._sqrtm
    monkeypatch.setattr(matfun, "_sqrtm", lambda b: roots.append(1) or sqrtm(b))
    monkeypatch.setattr(scipy.linalg, "logm", lambda b: pytest.fail("reached scipy"))
    log = matfun.logm(a)
    assert roots and log.dtype == np.float64
    assert _rel_err(log, x) <= 1e-13


def test_reproject_orthogonal(rng):
    from quadgeo import pseudo_linalg as pl

    sp = pl.lie_space()
    g = pl.random_pseudo_orthogonal(sp, rng)
    drifted = g + 1e-5 * rng.standard_normal((6, 6))
    fixed = matfun.reproject_orthogonal(drifted, sp)
    assert orthogonality_defect(fixed, sp.gram) < 1e-12
    assert np.max(np.abs(fixed - g)) < 1e-4


@pytest.mark.parametrize("space", ["lie", "plucker"])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_reproject_orthogonal_matches_dense_inverse_form(rng, space, dtype):
    # the adjoint step equals F (I - G^-1 (F^T G F - G) / 2) bit for bit
    from quadgeo import pseudo_linalg as pl

    sp = pl.lie_space() if space == "lie" else pl.plucker_space()
    g = np.stack([pl.random_pseudo_orthogonal(sp, rng) for _ in range(8)])
    f = (g + 1e-5 * rng.standard_normal(g.shape)).astype(dtype)
    dense, ginv, eye = f, np.linalg.inv(sp.gram), np.eye(6)
    for _ in range(2):
        e = dense.swapaxes(-1, -2) @ sp.gram @ dense - sp.gram
        dense = dense @ (eye - 0.5 * (ginv @ e))
    out = matfun.reproject_orthogonal(f, sp)
    assert out.dtype == dtype
    assert np.array_equal(out, dense)


def test_matfun_keeps_the_dtype_of_its_input(rng):
    from quadgeo import pseudo_linalg as pl

    sp = pl.lie_space()
    m = rng.standard_normal((50, 6, 6))
    skew = 0.05 * (m - np.linalg.inv(sp.gram) @ m.swapaxes(-1, -2) @ sp.gram)
    drifted = matfun.expm(skew) + 1e-6 * rng.standard_normal((50, 6, 6))
    for fn, arg in ((matfun.expm, skew), (matfun.logm, matfun.expm(skew)),
                    (lambda f: matfun.reproject_orthogonal(f, sp), drifted)):
        real = fn(arg)
        cplx = fn(arg.astype(complex))
        assert real.dtype == np.float64 and cplx.dtype == np.complex128
        assert np.max(np.abs(cplx - real)) <= 1e-14 * np.max(np.abs(real))


def test_smooth_phase_aligns_signs_and_keeps_orthogonal_nodes():
    rng = np.random.default_rng(3)
    flips = rng.choice([-1.0, 1.0], size=(7, 9, 1))
    field = np.tile([0.6, 0.8], (7, 9, 1))
    # float64 in, float64 out: only signs flip, so the values are exact
    out = smooth_phase(flips * field)
    assert out.dtype == np.float64
    assert np.array_equal(out, field) or np.array_equal(out, -field)
    # complex in, complex out: one common unit phase times the field
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=(7, 9, 1)))
    out = smooth_phase(phases * field)
    assert out.dtype == np.complex128
    ratio = out[..., 0] / field[..., 0]
    assert np.allclose(ratio, ratio[0, 0], rtol=0.0, atol=1e-14)
    assert np.allclose(np.abs(ratio), 1.0, rtol=0.0, atol=1e-14)
    # a node orthogonal to the node before it keeps its phase; nothing vanishes
    field[3, 4] = [0.8, -0.6]
    out = smooth_phase(field)
    assert np.array_equal(out[3, 4], field[3, 4])
    assert np.all(np.linalg.norm(out, axis=-1) > 0.99)
