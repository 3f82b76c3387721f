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


def _diff_axis(field, h, axis):
    """2nd-order first derivative along one axis, one-sided at the edges."""
    f = np.asarray(field)
    out = np.empty_like(f, dtype=np.result_type(f.dtype, np.float64))
    fm = np.moveaxis(f, axis, 0)
    om = np.moveaxis(out, axis, 0)
    om[1:-1] = (fm[2:] - fm[:-2]) / (2.0 * h)
    om[0] = (-3.0 * fm[0] + 4.0 * fm[1] - fm[2]) / (2.0 * h)
    om[-1] = (3.0 * fm[-1] - 4.0 * fm[-2] + fm[-3]) / (2.0 * h)
    return out


def _diff2_axis(field, h, axis):
    """2nd-order second derivative along one axis, one-sided at the edges."""
    f = np.asarray(field)
    out = np.empty_like(f, dtype=np.result_type(f.dtype, np.float64))
    fm = np.moveaxis(f, axis, 0)
    om = np.moveaxis(out, axis, 0)
    om[1:-1] = (fm[2:] - 2.0 * fm[1:-1] + fm[:-2]) / (h * h)
    om[0] = (2.0 * fm[0] - 5.0 * fm[1] + 4.0 * fm[2] - fm[3]) / (h * h)
    om[-1] = (2.0 * fm[-1] - 5.0 * fm[-2] + 4.0 * fm[-3] - fm[-4]) / (h * h)
    return out


def d_u(field, chart):
    if chart.reality == REAL:
        return _diff_axis(field, chart.hu, 0)
    dx = _diff_axis(field, chart.hu, 0)
    dy = _diff_axis(field, chart.hv, 1)
    return 0.5 * (dx - 1j * dy)


def d_v(field, chart):
    if chart.reality == REAL:
        return _diff_axis(field, chart.hv, 1)
    dx = _diff_axis(field, chart.hu, 0)
    dy = _diff_axis(field, chart.hv, 1)
    return 0.5 * (dx + 1j * dy)


def d_uu(field, chart):
    if chart.reality == REAL:
        return _diff2_axis(field, chart.hu, 0)
    return d_u(d_u(field, chart), chart)


def d_vv(field, chart):
    if chart.reality == REAL:
        return _diff2_axis(field, chart.hv, 1)
    return d_v(d_v(field, chart), chart)


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
