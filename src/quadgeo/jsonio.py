"""JSON serialization of surface grids, energy reports and connections.

All arrays are stored row-major (u index outermost); floating point values
rely on Python's shortest round-trip repr, so files are byte-stable across
runs for identical inputs.
"""

import json
import math

import numpy as np

from .errors import MalformedInputError, NonFiniteInputError
from .grids import GridChart
from .surfaces import EUCLIDEAN3, PROJECTIVE3, SurfaceGrid


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


def _field(data, name, shape):
    """The array `data[name]`, checked for its size and for finite values."""
    try:
        values = np.array(data[name], dtype=float)
    except (TypeError, ValueError):
        raise MalformedInputError(f"surface field {name!r} is not an array of numbers")
    if values.size != np.prod(shape):
        raise MalformedInputError(f"surface field {name!r} has {values.size} values, "
                                  f"not {np.prod(shape)}")
    if not np.isfinite(values).all():
        raise NonFiniteInputError(f"surface field {name!r} has non-finite values")
    return values.reshape(shape)


def _scalar(data, name, kind):
    """`data[name]` as a finite `kind`; a float field also takes a JSON integer."""
    value = data[name]
    kinds = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, kinds) or not math.isfinite(value):
        raise MalformedInputError(f"surface field {name!r} must be a finite {kind.__name__}, "
                                  f"got {value!r:.40}")
    return kind(value)


SURFACE_FIELDS = ("geometry", "nu", "nv", "hu", "hv", "reality", "points", "normals",
                  "kappa1", "kappa2", "meta")


def surface_from_dict(data):
    if not isinstance(data, dict):
        raise MalformedInputError(f"a surface must be a JSON object, got {type(data).__name__}")
    unknown = [name for name in data if name not in SURFACE_FIELDS]
    if unknown:
        names = ", ".join(f"{name!r:.40}" for name in unknown)
        raise MalformedInputError(f"a surface takes no field {names}; "
                                  f"fields: {', '.join(SURFACE_FIELDS)}")
    geometry = data.get("geometry")
    required = ("geometry", "nu", "nv", "hu", "hv", "points")
    for name in required + (("normals",) if geometry == EUCLIDEAN3 else ()):
        if name not in data:
            raise MalformedInputError(f"surface field {name!r} is missing")
    if geometry not in (EUCLIDEAN3, PROJECTIVE3):
        raise MalformedInputError(f"surface field 'geometry' must be {EUCLIDEAN3!r} "
                                  f"or {PROJECTIVE3!r}, got {geometry!r:.40}")
    if not isinstance(data.get("meta", {}), dict):
        raise MalformedInputError("surface field 'meta' must be a JSON object")
    chart = GridChart(_scalar(data, "nu", int), _scalar(data, "nv", int),
                      _scalar(data, "hu", float), _scalar(data, "hv", float),
                      data.get("reality", "real"))
    nu, nv = chart.nu, chart.nv
    pts = _field(data, "points", (nu, nv, 3 if geometry == EUCLIDEAN3 else 4))
    kwargs = {}
    if "normals" in data:
        kwargs["normal"] = _field(data, "normals", (nu, nv, 3))
    for key in ("kappa1", "kappa2"):
        if key in data:
            kwargs[key] = _field(data, key, (nu, nv))
    return SurfaceGrid(geometry, pts, chart, meta=dict(data.get("meta", {})), **kwargs)


def _write_sorted(data, path):
    """Write `data` as JSON with sorted keys.  `json.dumps` without an indent
    runs the C encoder; `json.dump` to a file always runs the Python one."""
    with open(path, "w") as fh:
        fh.write(json.dumps(data, sort_keys=True))


def write_surface(surface, path):
    _write_sorted(surface_to_dict(surface), path)


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
    _write_sorted(connection_to_dict(alpha), path)


def read_report(path):
    """A `qg check` report: a JSON object with a string 'suite', a boolean
    'pass' and, if present, an object 'convergence_orders'."""
    with open(path) as fh:
        data = json.load(fh)
    if not (isinstance(data, dict) and isinstance(data.get("suite"), str)
            and isinstance(data.get("pass"), bool)
            and isinstance(data.get("convergence_orders", {}), dict)):
        raise MalformedInputError(f"{path} is not a check report (a JSON object with a "
                                  "string 'suite', a boolean 'pass' and an object "
                                  "'convergence_orders')")
    return data
