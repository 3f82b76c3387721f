"""Acceptance criteria, one test per criterion, at their stated tolerances.

Grids are 32/64/128 intervals (33/65/129 nodes) over frozen parameter
windows; every test prints its own pass/fail line with the binding metrics.
Run with `pytest tests/test_acceptance.py -v -s`.
"""

import pytest

from quadgeo import checks

GRIDS = (33, 65, 129)


@pytest.fixture(scope="module")
def suite():
    cache = {}

    def run(name, **kw):
        key = (name, tuple(sorted(kw.items())))
        if key not in cache:
            cache[key] = checks.run_suite(name, grids=GRIDS, **kw)
        return cache[key]

    return run


def _line(num, ok, text):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok


def test_criterion_01_pq_identity(suite):
    rep = suite("pq-identity")
    dev = rep["metrics"]["deviation_by_grid"]
    order = rep["convergence_orders"]["deviation"]
    ok = dev[1] <= 1e-3 and order >= 1.8
    _line(1, ok, f"max |<S_u,S_v> - pq| = {dev[1]:.2e} at 64^2 (<= 1e-3), "
                 f"order {order:.2f} (>= 1.8)")


def test_criterion_02_density_chain(suite):
    rep = suite("pq-identity")
    lie = rep["metrics"]["chain_lie_plus_willmore"]
    proj = rep["metrics"]["chain_proj_minus_willmore"]
    ok = lie <= 1e-3 and proj <= 1e-3
    _line(2, ok, f"|lie + willmore| = {lie:.2e}, |proj - willmore| = {proj:.2e} "
                 "(both <= 1e-3 at 64^2)")


def test_criterion_03_conformality(suite):
    rep = suite("conformality")
    res = rep["metrics"]["residual_by_grid"]
    order = rep["convergence_orders"]["residual"]
    ok = res[1] <= 1e-3 and order >= 1.8
    _line(3, ok, f"max |<S_u,S_u>|,|<S_v,S_v>| = {res[1]:.2e} at 64^2 (<= 1e-3), "
                 f"order {order:.2f} (>= 1.8)")


def test_criterion_04_orthogonality(suite):
    rep = suite("orthogonality")
    res = rep["metrics"]["residual_by_grid"]
    order = rep["convergence_orders"]["residual"]
    ok = res[1] <= 1e-3 and order >= 1.8
    _line(4, ok, f"cross-Gram norm = {res[1]:.2e} at 64^2 (<= 1e-3), "
                 f"order {order:.2f} (>= 1.8)")


def test_criterion_05_tension_lemma(suite):
    rep = suite("tension-lemma")
    ang = rep["metrics"]["image_angle"]
    cod = rep["metrics"]["codazzi_difference"]
    ok = ang <= 1e-2 and cod <= 1e-3
    _line(5, ok, f"angle(im tau, span s) = {ang:.2e} rad (<= 1e-2), "
                 f"Codazzi agreement = {cod:.2e} (<= 1e-3)")


def test_criterion_06_harmonic_controls(suite):
    rep = suite("tension-lemma")
    m = rep["metrics"]
    ok = (
        m["torus_tau_max"] <= 1e-3
        and m["torus_energy"] <= 1e-7
        and m["quadric_tau_max"] <= 1e-10
        and m["quadric_energy"] <= 1e-10
    )
    _line(6, ok, f"torus |tau| = {m['torus_tau_max']:.1e} (<= 1e-3), "
                 f"W = {m['torus_energy']:.1e} (<= 1e-7); "
                 f"quadric |tau| = {m['quadric_tau_max']:.1e} (<= 1e-10), "
                 f"W = {m['quadric_energy']:.1e} (<= 1e-10)")


def test_criterion_07_blaschke_roundtrip(suite):
    rep = suite("blaschke-roundtrip")
    al = rep["metrics"]["line_angle_l"]
    as_ = rep["metrics"]["line_angle_s"]
    ok = al <= 1e-4 and as_ <= 1e-4 and rep["metrics"]["quadric_raises_degenerate"]
    _line(7, ok, f"reconstructed focal line angles = {al:.2e}, {as_:.2e} at 128^2 "
                 "(<= 1e-4); constant map raises the degenerate error")


def test_criterion_08_invariance(suite):
    rep = suite("invariance")
    m = rep["metrics"]
    order = rep["convergence_orders"]["shift_deviation"]
    worst = max(m["group_deviation"], m["shift_deviation_by_grid"][1],
                m["projective_deviation"])
    ok = worst <= 1e-4 and order >= 1.8
    _line(8, ok, f"20 group elements + shifts t in (0.1, 0.3) + SL(4): "
                 f"max relative density deviation = {worst:.2e} at 64^2 (<= 1e-4), "
                 f"shift order {order:.2f} (>= 1.8)")


def test_criterion_09_flatness(suite):
    rep = suite("flatness")
    m = rep["metrics"]
    torus_order = rep["convergence_orders"]["torus_residual"]
    torus_floor = all(r <= checks.FLAT_FLOOR for r in m["torus_residual_by_grid"])
    ratio = m["ellipsoid_lambda_by_grid"][-1] / max(m["ellipsoid_lambda1_by_grid"][-1], 1e-300)
    ok = (torus_order >= 0.9 or torus_floor) and ratio >= 10.0
    torus_note = (
        f"residuals at the {checks.FLAT_FLOOR:.0e} roundoff floor"
        if torus_floor
        else f"order {torus_order:.2f}"
    )
    _line(9, ok, f"torus lambda=2 flatness {torus_note} (>= 0.9 or floor); "
                 f"ellipsoid lambda=2 / lambda=1 residual ratio = {ratio:.1e} (>= 10)")


def test_criterion_10_spectral_deform(suite):
    rep = suite("deform")
    m = rep["metrics"]
    ok = m["blaschke_after"] <= m["bound"] and (m["reconstructs"] or m["degenerate_everywhere"])
    recon = "reconstructs" if m["reconstructs"] else \
        "degenerate everywhere (constant deformed map raises the specified error)"
    _line(10, ok, f"torus lambda=2: envelope residual {m['blaschke_after']:.1e} "
                  f"<= 2 x input + 1e-3 = {m['bound']:.1e}; {recon}")


def test_criterion_11_duality(suite):
    rep = suite("dualize")
    m = rep["metrics"]
    ok = (
        m["roundtrip_star_deviation"] <= 1e-3
        and m["dual_connection_imag_defect"] <= 1e-10
        and m["torus_dual_imag_defect"] <= 1e-10
    )
    _line(11, ok, f"dualize round trip deviation = {m['roundtrip_star_deviation']:.1e} "
                  f"(<= 1e-3); dual connection imaginary part = "
                  f"{m['dual_connection_imag_defect']:.1e} (<= 1e-10)")


def test_criterion_12_descent(suite):
    rep = suite("descent", steps=50, step_size=2e-6)
    m = rep["metrics"]
    ok = m["monotone"] and m["drop"] >= 0.01 * abs(m["initial"])
    _line(12, ok, f"50 backtracked steps: W {m['initial']:.5f} -> {m['final']:.5f}, "
                  f"monotone non-increasing, decrease = "
                  f"{100.0 * m['drop'] / abs(m['initial']):.1f}% of |W0| (>= 1%)")
