"""Rectangular charts and chart-aware finite differences.

Fields live on (nu, nv, ...) arrays: axis 0 is the u index, axis 1 the v
index, trailing axes are components.  All derivative operators are 2nd-order
central stencils in the interior; the single boundary layer is filled with
one-sided 2nd-order stencils so arrays keep full shape, but no boundary value
should feed a reported statistic (use `interior`).

On a chart with reality='complex_conjugate' the two index axes are real
coordinates (x, y) and the conjugate parameters are u = x + iy, v = x - iy;
the derivative operators are then the Wirtinger combinations
d_u = (d_x - i d_y)/2 and d_v = (d_x + i d_y)/2.

The stencils multiply their numerators by 1/(2h) and 1/h^2.  numpy divides
complex data by a real that way (Smith's algorithm), so a float64 field
differences bit for bit as its complex128 cast does, on either chart.  The
one exception is `divided_difference`, kept for two real-chart callers.
"""

from dataclasses import dataclass

import numpy as np

from .errors import GridTooSmallError

REAL = "real"
COMPLEX_CONJUGATE = "complex_conjugate"


@dataclass(frozen=True)
class GridChart:
    """A rectangular (u,v) parameter chart.

    nu, nv: grid sizes (>= 5 so central stencils leave a 2-node margin).
    hu, hv: spacings in parameter units.
    reality: 'real' or 'complex_conjugate'.
    The stored index order is the chart's orientation: du^dv is positive.
    """

    nu: int
    nv: int
    hu: float
    hv: float
    reality: str = REAL

    def __post_init__(self):
        check_sizes(self.nu, self.nv)
        if not (np.isfinite(self.hu) and np.isfinite(self.hv) and self.hu > 0 and self.hv > 0):
            raise ValueError("grid spacings must be positive and finite")
        if self.reality not in (REAL, COMPLEX_CONJUGATE):
            raise ValueError(f"unknown reality flag {self.reality!r}")


def check_sizes(nu, nv):
    """Raise GridTooSmallError unless both sizes leave 2-node stencil margins."""
    if nu < 5 or nv < 5:
        raise GridTooSmallError("grid sizes must be >= 5 (2-node stencil margins)")


def _stencil(field, axis, order):
    """2h f' (order 1) or h^2 f'' (order 2) along one axis: the numerators of
    the 2nd-order stencils, central inside and one-sided at the edges."""
    f = np.asarray(field)
    out = np.empty_like(f, dtype=np.result_type(f.dtype, np.float64))
    fm = f.swapaxes(axis, 0)   # axis 0 or 1: the view np.moveaxis(f, axis, 0)
    om = out.swapaxes(axis, 0)
    if order == 1:
        np.subtract(fm[2:], fm[:-2], out=om[1:-1])
        om[0] = -3.0 * fm[0] + 4.0 * fm[1] - fm[2]
        om[-1] = 3.0 * fm[-1] - 4.0 * fm[-2] + fm[-3]
    else:
        om[1:-1] = fm[2:] - 2.0 * fm[1:-1] + fm[:-2]
        om[0] = 2.0 * fm[0] - 5.0 * fm[1] + 4.0 * fm[2] - fm[3]
        om[-1] = 2.0 * fm[-1] - 5.0 * fm[-2] + 4.0 * fm[-3] - fm[-4]
    return out


def _scaled(field, h, axis, order):
    """The stencil numerator along one axis times 1/(2h) (order 1) or 1/h^2 (order 2)."""
    out = _stencil(field, axis, order)
    out *= 1.0 / (2.0 * h) if order == 1 else 1.0 / (h * h)
    return out


def d_u(field, chart):
    if chart.reality == REAL:
        return _scaled(field, chart.hu, 0, 1)
    dx = _scaled(field, chart.hu, 0, 1)
    dy = _scaled(field, chart.hv, 1, 1)
    return 0.5 * (dx - 1j * dy)


def d_v(field, chart):
    if chart.reality == REAL:
        return _scaled(field, chart.hv, 1, 1)
    dx = _scaled(field, chart.hu, 0, 1)
    dy = _scaled(field, chart.hv, 1, 1)
    return 0.5 * (dx + 1j * dy)


def d_uu(field, chart):
    if chart.reality == REAL:
        return _scaled(field, chart.hu, 0, 2)
    return d_u(d_u(field, chart), chart)


def d_vv(field, chart):
    if chart.reality == REAL:
        return _scaled(field, chart.hv, 1, 2)
    return d_v(d_v(field, chart), chart)


def divided_difference(field, h, axis):
    """First derivative along one axis of a real chart, dividing by 2h.

    The one exception to the multiplying stencils: `surfaces.principal_data`
    and `functionals._move_surface` keep this rounding, because the
    `invariance` and `descent` reports amplify its last bits into compared
    digits.  Delete it once ROADMAP item 6 has conditioned both suites.
    """
    out = _stencil(field, axis, 1)
    out /= 2.0 * h
    return out


def interior(field, margin=2):
    """View of a node field with `margin` layers stripped from each side."""
    if margin == 0:
        return field
    if min(field.shape[:2]) < 2 * margin + 1:
        raise GridTooSmallError(f"a {margin}-node margin needs at least 2*{margin}+1 = "
                                f"{2 * margin + 1} nodes per axis, got {field.shape[:2]}")
    return field[margin:-margin, margin:-margin]


def node_list(mask):
    """(i, j) pairs where a boolean node mask is set."""
    return [(int(i), int(j)) for i, j in zip(*np.nonzero(mask))]


def smooth_phase(fld):
    """Align per-node phases across the grid, keeping the field's dtype.

    Works along the center column, then column by column outward, so the
    field can be finite differenced; input must span a smooth line field.
    A float64 field (a real chart) only flips signs, exactly: each node is
    multiplied by +-1.  A complex field is turned by unit phases.
    """
    out = np.array(fld)
    n, m = out.shape[:2]
    jc = m // 2

    def align(x, ref):
        inner = np.einsum("...k,...k->...", x, ref.conj())
        # a node orthogonal to its reference keeps its phase instead of vanishing
        phase = np.where(inner == 0, 1.0, inner / np.maximum(np.abs(inner), 1e-300))
        return x * phase.conj()[..., None]

    for i in range(1, n):
        out[i, jc] = align(out[i, jc], out[i - 1, jc])
    for j in range(jc + 1, m):
        out[:, j] = align(out[:, j], out[:, j - 1])
    for j in range(jc - 1, -1, -1):
        out[:, j] = align(out[:, j], out[:, j + 1])
    return out
