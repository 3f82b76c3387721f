"""Classical surface grids: generators, principal data, parallel surfaces.

A SurfaceGrid samples an immersion on a rectangular chart: Euclidean surfaces
carry a 3-vector point field plus a unit normal (and optionally principal
curvature fields), projective surfaces carry a homogeneous 4-vector lift.

Generators are exposed as sampler objects with analytic `point` / `normal` /
`kappa` callables so that resampling a reparametrized chart costs no
interpolation error.  The curvature convention throughout is the Rodrigues
form n_u + kappa1 f_u = 0 along the u-lines (kappa1 is the u-direction
curvature).
"""

from dataclasses import dataclass, field, replace

import numpy as np

from . import grids
from .errors import (
    FocalValueError,
    NotCurvatureLineError,
    NotImmersedError,
    SignatureError,
    UmbilicError,
)
from .grids import GridChart, d_u, d_v, interior

EUCLIDEAN3 = "euclidean3"
PROJECTIVE3 = "projective3"

UMBILIC_RTOL = 1e-6


@dataclass
class SurfaceGrid:
    """An immersion sampled on a chart, a real one for a Euclidean surface."""

    geometry: str
    points: np.ndarray
    chart: GridChart
    normal: np.ndarray = None
    kappa1: np.ndarray = None
    kappa2: np.ndarray = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        want = 3 if self.geometry == EUCLIDEAN3 else 4
        if self.geometry not in (EUCLIDEAN3, PROJECTIVE3):
            raise ValueError(f"unknown geometry {self.geometry!r}")
        if self.points.shape != (self.chart.nu, self.chart.nv, want):
            raise ValueError("point field shape does not match chart/geometry")
        if self.geometry == EUCLIDEAN3 and self.chart.reality != grids.REAL:
            raise NotCurvatureLineError(f"reality {self.chart.reality!r}: a {EUCLIDEAN3} "
                                        "surface's curvature-line net is real")

    def has_kappa(self):
        return self.kappa1 is not None and self.kappa2 is not None


def _dot(a, b):
    return np.einsum("...k,...k->...", a, b)


def _unit(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# generators


class TorusSampler:
    """Torus of revolution; u along the tube circles, v along the axis circle.

    Inward normal, so kappa1 = 1/r everywhere and the surface is a Dupin
    cyclide (each principal curvature is constant along its own lines).
    """

    geometry = EUCLIDEAN3

    def __init__(self, r=1.0, R=3.0):
        if not 0 < r < R:
            raise ValueError("need 0 < r < R")
        self.r, self.R = float(r), float(R)

    def point(self, u, v):
        r, R = self.r, self.R
        w = R + r * np.cos(u)
        return np.stack([w * np.cos(v), w * np.sin(v), r * np.sin(u)], axis=-1)

    def normal(self, u, v):
        return -np.stack(
            [np.cos(u) * np.cos(v), np.cos(u) * np.sin(v), np.sin(u)], axis=-1
        )

    def kappa(self, u, v):
        k1 = np.full(np.shape(u), 1.0 / self.r)
        k2 = np.cos(u) / (self.R + self.r * np.cos(u))
        return k1, k2 + 0.0 * np.asarray(v)


class SphereSampler:
    """Round sphere (umbilic everywhere); polar chart, inward normal."""

    geometry = EUCLIDEAN3

    def __init__(self, radius=1.0):
        self.radius = float(radius)

    def point(self, u, v):
        return self.radius * np.stack(
            [np.sin(u) * np.cos(v), np.sin(u) * np.sin(v), np.cos(u)], axis=-1
        )

    def normal(self, u, v):
        return -self.point(u, v) / self.radius

    def kappa(self, u, v):
        k = np.full(np.shape(u), 1.0 / self.radius)
        return k, k.copy()


class EllipsoidConfocalSampler:
    """Triaxial ellipsoid in its confocal (curvature-line) chart.

    Semi-axes 0 < a < b < c; the chart parameters range in u in (a^2, b^2),
    v in (b^2, c^2) and parametrize the positive octant.  Because
    x^2 = a^2 (a^2-u)(a^2-v) / ((a^2-b^2)(a^2-c^2)) (and cyclically), all
    derivatives follow from logarithmic derivatives like x_u = -x/(2(a^2-u)),
    so points, normals and principal curvatures are closed-form.  Inward
    normal.
    """

    geometry = EUCLIDEAN3

    def __init__(self, a=1.0, b=1.3, c=1.7):
        if not 0 < a < b < c:
            raise ValueError("need 0 < a < b < c")
        self.axes = (float(a), float(b), float(c))

    def _sq(self, u, v):
        a2, b2, c2 = (s * s for s in self.axes)
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        x2 = a2 * (a2 - u) * (a2 - v) / ((a2 - b2) * (a2 - c2))
        y2 = b2 * (b2 - u) * (b2 - v) / ((b2 - a2) * (b2 - c2))
        z2 = c2 * (c2 - u) * (c2 - v) / ((c2 - a2) * (c2 - b2))
        return x2, y2, z2

    def point(self, u, v):
        x2, y2, z2 = self._sq(u, v)
        return np.stack([np.sqrt(x2), np.sqrt(y2), np.sqrt(z2)], axis=-1)

    def _derivs(self, u, v):
        a2, b2, c2 = (s * s for s in self.axes)
        p = self.point(u, v)
        u = np.asarray(u, dtype=float)[..., None]
        v = np.asarray(v, dtype=float)[..., None]
        axes2 = np.array([a2, b2, c2])
        pu = -p / (2.0 * (axes2 - u))
        pv = -p / (2.0 * (axes2 - v))
        return p, pu, pv, axes2

    def normal(self, u, v):
        p, _, _, axes2 = self._derivs(u, v)
        return -_unit(p / axes2)

    def kappa(self, u, v):
        p, pu, pv, axes2 = self._derivs(u, v)
        w = p / axes2  # unnormalized outward normal
        wn = np.linalg.norm(w, axis=-1, keepdims=True)
        wu = pu / axes2
        wv = pv / axes2
        # d(w/|w|) = dw/|w| - w (w . dw)/|w|^3 ; inward normal flips the sign
        nu_ = -(wu / wn - w * _dot(w, wu)[..., None] / wn**3)
        nv_ = -(wv / wn - w * _dot(w, wv)[..., None] / wn**3)
        k1 = -_dot(nu_, pu) / _dot(pu, pu)
        k2 = -_dot(nv_, pv) / _dot(pv, pv)
        return k1, k2


class RevolutionSampler:
    """Surface of revolution of a profile (rho(t), z(t)); u = t, v = angle.

    Built-in profiles: 'catenoid' (rho = c cosh(t/c), z = t) and 'cone'
    (rho = slope * t, z = t).  Meridians and parallels are curvature lines.
    Normal oriented toward the axis (inward for convex profiles).
    """

    geometry = EUCLIDEAN3

    def __init__(self, profile="catenoid", c=1.0, slope=0.5):
        self.profile = profile
        self.c = float(c)
        self.slope = float(slope)
        if profile not in ("catenoid", "cone"):
            raise ValueError(f"unknown profile {profile!r}")

    def _rho(self, t):
        t = np.asarray(t, dtype=float)
        if self.profile == "catenoid":
            c = self.c
            return c * np.cosh(t / c), np.sinh(t / c), np.cosh(t / c) / c
        return self.slope * t, np.full_like(t, self.slope), np.zeros_like(t)

    def point(self, u, v):
        rho, _, _ = self._rho(u)
        return np.stack([rho * np.cos(v), rho * np.sin(v), np.asarray(u, dtype=float) + 0 * rho], axis=-1)

    def normal(self, u, v):
        _, drho, _ = self._rho(u)
        den = np.sqrt(1.0 + drho * drho)
        return np.stack(
            [-np.cos(v) / den, -np.sin(v) / den, drho / den], axis=-1
        )

    def kappa(self, u, v):
        rho, drho, ddrho = self._rho(u)
        den = np.sqrt(1.0 + drho * drho)
        k1 = ddrho / den**3          # meridian (u) direction
        k2 = -1.0 / (rho * den)      # parallel circles
        shape = np.broadcast(np.asarray(u), np.asarray(v)).shape
        return -np.broadcast_to(k1, shape).copy(), -np.broadcast_to(k2, shape).copy()


class ProjectiveGraphSampler:
    """Homogeneous lift (1, x, y, g(x, y)) of a graph in RP^3."""

    geometry = PROJECTIVE3

    def __init__(self, g, hess):
        self.g, self.hess = g, hess

    def point(self, u, v):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        return np.stack([np.ones_like(u + v), u + 0 * v, v + 0 * u, self.g(u, v)], axis=-1)

    def asymptotic_directions(self, u, v):
        """Null directions of the Hessian (the II conformal class for graphs)."""
        return hessian_null_directions(*self.hess(u, v))


def quadric_graph_sampler():
    """The doubly ruled quadric z = x*y; the chart is already asymptotic."""
    return ProjectiveGraphSampler(
        lambda x, y: x * y,
        lambda x, y: (np.zeros_like(x + y), np.ones_like(x + y), np.zeros_like(x + y)),
    )


def perturbed_graph_sampler(cx=0.1, cy=0.1):
    """z = x*y + cx x^3 + cy y^3; negatively curved near the origin."""
    return ProjectiveGraphSampler(
        lambda x, y: x * y + cx * x**3 + cy * y**3,
        lambda x, y: (6.0 * cx * x + 0 * y, np.ones_like(x + y), 6.0 * cy * y + 0 * x),
    )


def hessian_null_directions(h11, h12, h22):
    """Two real null direction fields of h11 dx^2 + 2 h12 dxdy + h22 dy^2.

    Built from the eigen-decomposition of the symmetric 2x2 so the two
    families never swap labels on a signature-(1,1) patch (the eigenvalues
    stay separated by zero).
    """
    h11, h12, h22 = np.broadcast_arrays(h11, h12, h22)
    disc = h12 * h12 - h11 * h22
    if np.any(disc <= 0):
        raise SignatureError("second fundamental form is not of signature (1,1) on the patch")
    emax, emin, lmax, lmin = symmetric_eigen_2x2(h11, h12, h22)
    a = np.sqrt(lmax)[..., None]
    b = np.sqrt(-lmin)[..., None]
    return _unit(a * emin + b * emax), _unit(a * emin - b * emax)


def symmetric_eigen_2x2(a11, a12, a22):
    """Half-angle eigen-split of the symmetric 2x2 [[a11, a12], [a12, a22]].

    Returns the unit eigenvectors and the eigenvalues (emax, emin, lmax, lmin).
    """
    theta = 0.5 * np.arctan2(2.0 * a12, a11 - a22)
    emax = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    emin = np.stack([-np.sin(theta), np.cos(theta)], axis=-1)
    half = 0.5 * (a11 + a22)
    rad = np.sqrt(0.25 * (a11 - a22) ** 2 + a12 * a12)
    return emax, emin, half + rad, half - rad


def make_surface(sampler, window, nu, nv, reality=grids.REAL):
    """Sample a generator on a regular chart."""
    u0, u1, v0, v1 = window
    grids.check_sizes(nu, nv)
    chart = GridChart(nu, nv, (u1 - u0) / (nu - 1), (v1 - v0) / (nv - 1), reality)
    uu, vv = np.meshgrid(np.linspace(u0, u1, nu), np.linspace(v0, v1, nv), indexing="ij")
    pts = sampler.point(uu, vv)
    kwargs = {}
    if sampler.geometry == EUCLIDEAN3:
        kwargs["normal"] = sampler.normal(uu, vv)
        if hasattr(sampler, "kappa"):
            kwargs["kappa1"], kwargs["kappa2"] = sampler.kappa(uu, vv)
    return SurfaceGrid(
        sampler.geometry, pts, chart,
        meta={"window": tuple(float(w) for w in window),
              "generator": type(sampler).__name__},
        **kwargs,
    )


# ---------------------------------------------------------------------------
# principal data and parallel surfaces


def umbilic_mask(k1, k2):
    """Umbilic nodes, |k1 - k2| < UMBILIC_RTOL (|k1| + |k2| + 1): the one umbilic test."""
    return np.abs(k1 - k2) < UMBILIC_RTOL * (np.abs(k1) + np.abs(k2) + 1.0)


def principal_data(surface, residual_tol=1e-2):
    """Principal curvatures from the Rodrigues equations on a curvature-line chart.

    Per node, kappa1 solves n_u ~ -kappa1 f_u in least squares (and kappa2 the
    v-equation); the normalized residual field witnesses chart alignment.
    Returns the surface with kappa fields.  Raises UmbilicError on an umbilic
    region and NotCurvatureLineError if residuals exceed `residual_tol` on the
    interior.
    """
    if surface.geometry != EUCLIDEAN3 or surface.normal is None:
        raise ValueError("principal_data needs a Euclidean surface with normals")
    ch = surface.chart
    fu = d_u(surface.points, ch)
    fv = d_v(surface.points, ch)
    scale = np.linalg.norm(np.cross(fu, fv), axis=-1)
    if np.min(interior(scale)) < 1e-12:
        raise NotImmersedError("surface is not immersed on the chart")
    nu_ = d_u(surface.normal, ch)
    nv_ = d_v(surface.normal, ch)
    k1 = -_dot(nu_, fu) / _dot(fu, fu)
    k2 = -_dot(nv_, fv) / _dot(fv, fv)
    res1 = np.linalg.norm(nu_ + k1[..., None] * fu, axis=-1) / (
        np.linalg.norm(nu_, axis=-1) + np.abs(k1) * np.linalg.norm(fu, axis=-1) + 1e-30
    )
    res2 = np.linalg.norm(nv_ + k2[..., None] * fv, axis=-1) / (
        np.linalg.norm(nv_, axis=-1) + np.abs(k2) * np.linalg.norm(fv, axis=-1) + 1e-30
    )
    umb = umbilic_mask(k1, k2)
    umb_interior = interior(umb)
    if umb_interior.any():
        # a region (not an isolated node): flag when a node and most neighbors agree
        hits = sum(
            np.roll(np.roll(umb, di, 0), dj, 1)
            for di in (-1, 0, 1)
            for dj in (-1, 0, 1)
        )
        region = interior((hits >= 6) & umb)
        if region.any():
            raise UmbilicError(
                "umbilic region on the chart", nodes=grids.node_list(region)
            )
    worst = max(float(np.nanmax(interior(np.abs(res)))) for res in (res1, res2))
    if worst > residual_tol:
        raise NotCurvatureLineError(
            f"Rodrigues residual {worst:.3e} exceeds {residual_tol:.1e}: "
            "chart is not curvature-line aligned"
        )
    return replace(surface, kappa1=k1, kappa2=k2)


def normal_shift(surface, t):
    """Parallel surface f + t n, kappa -> kappa/(1 - t kappa); focal if |1 - t kappa| < 1e-8."""
    if surface.geometry != EUCLIDEAN3 or not surface.has_kappa():
        raise ValueError("normal_shift needs a Euclidean surface with kappa fields")
    den1 = 1.0 - t * surface.kappa1
    den2 = 1.0 - t * surface.kappa2
    if min(np.min(np.abs(den1)), np.min(np.abs(den2))) < 1e-8:
        raise FocalValueError(f"normal shift t={t} hits a focal distance")
    return replace(
        surface,
        points=surface.points + t * surface.normal,
        kappa1=surface.kappa1 / den1,
        kappa2=surface.kappa2 / den2,
    )
