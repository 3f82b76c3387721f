"""JSON serialization of surface grids, energy reports and connections.

All arrays are stored row-major (u index outermost); floating point values
rely on Python's shortest round-trip repr, so files are byte-stable across
runs for identical inputs.
"""

import json

import numpy as np

from .errors import NonFiniteInputError
from .grids import GridChart
from .surfaces import EUCLIDEAN3, SurfaceGrid


def _flat(arr):
    return np.asarray(arr, dtype=float).ravel().tolist()


def surface_to_dict(surface):
    ch = surface.chart
    out = {
        "geometry": surface.geometry,
        "nu": ch.nu,
        "nv": ch.nv,
        "hu": ch.hu,
        "hv": ch.hv,
        "reality": ch.reality,
        "points": _flat(surface.points),
    }
    if surface.normal is not None:
        out["normals"] = _flat(surface.normal)
    if surface.kappa1 is not None:
        out["kappa1"] = _flat(surface.kappa1)
    if surface.kappa2 is not None:
        out["kappa2"] = _flat(surface.kappa2)
    if surface.meta:
        out["meta"] = {
            k: v for k, v in surface.meta.items()
            if isinstance(v, (str, int, float, bool, list, tuple))
        }
    return out


def _finite(name, values):
    if not np.isfinite(values).all():
        raise NonFiniteInputError(f"surface field {name!r} has non-finite values")
    return values


def surface_from_dict(data):
    chart = GridChart(
        int(data["nu"]), int(data["nv"]), float(data["hu"]), float(data["hv"]),
        data.get("reality", "real"),
    )
    nu, nv = chart.nu, chart.nv
    ncomp = 3 if data["geometry"] == EUCLIDEAN3 else 4
    pts = _finite("points", np.array(data["points"], dtype=float).reshape(nu, nv, ncomp))
    kwargs = {}
    if "normals" in data:
        kwargs["normal"] = _finite(
            "normals", np.array(data["normals"], dtype=float).reshape(nu, nv, 3))
    for key in ("kappa1", "kappa2"):
        if key in data:
            kwargs[key] = _finite(key, np.array(data[key], dtype=float).reshape(nu, nv))
    meta = dict(data.get("meta", {}))
    return SurfaceGrid(data["geometry"], pts, chart, meta=meta, **kwargs)


def write_surface(surface, path):
    with open(path, "w") as fh:
        json.dump(surface_to_dict(surface), fh, sort_keys=True)


def read_surface(path):
    with open(path) as fh:
        return surface_from_dict(json.load(fh))


def energy_to_dict(report):
    return {
        "total": report.total,
        "nu": report.chart.nu,
        "nv": report.chart.nv,
        "density": _flat(np.real(report.density)),
        "excluded": [list(map(int, ij)) for ij in report.excluded_nodes],
    }


def connection_to_dict(alpha):
    def edges(arr):
        return {
            "shape": list(arr.shape[:2]),
            "re": _flat(arr.real),
            "im": _flat(arr.imag),
        }

    return {
        "nu": alpha.chart.nu,
        "nv": alpha.chart.nv,
        "hu": alpha.chart.hu,
        "hv": alpha.chart.hv,
        "lambda_re": float(np.real(alpha.lam)),
        "lambda_im": float(np.imag(alpha.lam)),
        "k_u": edges(alpha.k_u),
        "k_v": edges(alpha.k_v),
        "p_u": edges(alpha.p_u),
        "p_v": edges(alpha.p_v),
    }


def write_connection(alpha, path):
    with open(path, "w") as fh:
        json.dump(connection_to_dict(alpha), fh, sort_keys=True)


def read_report(path):
    with open(path) as fh:
        return json.load(fh)
