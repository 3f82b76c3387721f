import contextlib
import inspect
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import quadgeo
from quadgeo import checks, cli, jsonio, surfaces as sf
from quadgeo.errors import UsageError


def run(argv):
    return cli.main(argv)


def test_surface_json_roundtrip(tmp_path):
    surf = sf.make_surface(sf.TorusSampler(1.0, 3.0), (0.3, 1.7, 0.2, 1.8), 9, 9)
    path = tmp_path / "t.json"
    jsonio.write_surface(surf, path)
    back = jsonio.read_surface(path)
    assert back.geometry == surf.geometry
    assert np.allclose(back.points, surf.points)
    assert np.allclose(back.kappa1, surf.kappa1)
    assert back.chart == surf.chart


def test_json_files_are_the_sorted_dumps(tmp_path):
    # the files hold exactly what json.dumps(..., sort_keys=True) produces
    from quadgeo import gauss_map as gm, legendre as lg, loop_tools as lt

    surf = checks.make_torus(17)
    jsonio.write_surface(surf, tmp_path / "s.json")
    want = json.dumps(jsonio.surface_to_dict(surf), sort_keys=True).encode()
    assert (tmp_path / "s.json").read_bytes() == want
    alpha = lt.maurer_cartan(lt.frame(gm.conformal_gauss(lg.lift(surf))))
    jsonio.write_connection(alpha, tmp_path / "c.json")
    want = json.dumps(jsonio.connection_to_dict(alpha), sort_keys=True).encode()
    assert (tmp_path / "c.json").read_bytes() == want


def test_generate_and_pipeline_commands(tmp_path):
    surf_path = str(tmp_path / "torus.json")
    assert run(["generate", "--kind", "torus", "--param", "r=1", "--param", "R=3",
                "--grid-nu", "17", "--grid-nv", "17", "--out", surf_path]) == 0
    out = tmp_path / "lift.json"
    assert run(["lift", "--surface", surf_path, "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["nullity_max"] < 1e-10
    out2 = tmp_path / "energy.json"
    assert run(["energy", "--surface", surf_path, "--out", str(out2)]) == 0
    rep2 = json.loads(out2.read_text())
    assert abs(rep2["total"]) < 1e-7
    assert len(rep2["density"]) == 17 * 17
    out3 = tmp_path / "tension.json"
    assert run(["tension", "--surface", surf_path, "--out", str(out3)]) == 0
    assert json.loads(out3.read_text())["tau_max"] < 1e-3


def test_generate_asymptotic_graph(tmp_path):
    surf_path = str(tmp_path / "graph.json")
    assert run(["generate", "--kind", "perturbed_graph", "--param", "cx=0.1",
                "--param", "cy=0.1", "--grid-nu", "33", "--grid-nv", "33",
                "--asymptotic", "--out", surf_path]) == 0
    surf = jsonio.read_surface(surf_path)
    assert surf.geometry == "projective3"
    assert surf.meta.get("asymptotic")


def test_module_entry_point_exit_codes(tmp_path):
    # `python -m quadgeo.cli` in a fresh interpreter returns main's code
    def module(*argv):
        return subprocess.run(
            [sys.executable, "-m", "quadgeo.cli", "generate", "--kind", "ellipsoid", *argv],
            cwd=tmp_path, capture_output=True, text=True, timeout=300,
            env=dict(os.environ, PYTHONPATH=str(Path(quadgeo.__file__).resolve().parents[1])),
        )

    done = module("--grid-nu", "9", "--grid-nv", "9", "--out", "e.json")
    assert done.returncode == 0, done.stderr
    assert jsonio.read_surface(tmp_path / "e.json").chart.nu == 9
    bad = module("--grid-nu", "1")
    assert bad.returncode == 2
    assert len(bad.stderr.splitlines()) == 1 and "Traceback" not in bad.stderr
    assert bad.stderr.startswith("qg generate: ")


def test_generate_rejects_bad_kind(tmp_path):
    assert run(["generate", "--kind", "klein_bottle", "--out", str(tmp_path / "x.json")]) == 2


def test_generate_rejects_bad_parameters(tmp_path):
    # tube radius must stay below the center radius
    assert run(["generate", "--kind", "torus", "--param", "r=3", "--param", "R=1",
                "--out", str(tmp_path / "x.json")]) == 2


def test_check_suite_exit_codes(tmp_path):
    out = str(tmp_path / "r.json")
    code = run(["check", "--suite", "orthogonality", "--grids", "17,33,65", "--out", out])
    assert code == 0
    rep = json.loads(open(out).read())
    assert rep["pass"] is True
    assert rep["suite"] == "orthogonality"
    assert run(["check", "--suite", "nope", "--out", out]) == 2


def test_check_report_determinism(tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    args = ["check", "--suite", "conformality", "--grids", "17,33", "--seed", "7"]
    assert run(args + ["--out", a]) == 0
    assert run(args + ["--out", b]) == 0
    assert open(a).read() == open(b).read()


def test_check_seed_reaches_the_suite_and_report_goes_to_stdout(capsys):
    # no --out: the report is printed
    run(["check", "--suite", "invariance", "--grids", "17,33", "--param", "n_group=2",
         "--seed", "7"])
    rep = json.loads(capsys.readouterr().out)
    assert rep["config"]["seed"] == 7
    assert rep["metrics"]["seed"] == 7


def test_euclidean_file_without_curvatures_is_refit(tmp_path):
    surf = checks.make_torus(17)
    data = {k: v for k, v in jsonio.surface_to_dict(surf).items()
            if k not in ("kappa1", "kappa2")}
    path = tmp_path / "no_kappa.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "lift.json"
    assert run(["lift", "--surface", str(path), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["nullity_max"] < 1e-10


def test_merge_reports(tmp_path):
    paths = []
    for k, grids in enumerate(("9,17,33", "17,33,65")):
        p = str(tmp_path / f"r{k}.json")
        assert run(["check", "--suite", "orthogonality", "--grids", grids, "--out", p]) == 0
        paths.append(p)
    out = str(tmp_path / "merged.json")
    assert run(["merge", "--out", out] + paths) == 0
    merged = json.loads(open(out).read())
    assert merged["pass"] is True
    assert merged["suites"] == {"orthogonality": True}
    fitted = merged["convergence_orders"]["orthogonality.residual"]
    assert 1.7 < fitted < 2.3


def test_merge_copies_the_suites_own_orders(tmp_path):
    # the flatness suite fits its torus residual against FLAT_FLOOR; merge
    # must not re-fit that or the other *_by_grid metrics with FLOOR
    report, out = str(tmp_path / "flatness.json"), str(tmp_path / "merged.json")
    assert run(["check", "--suite", "flatness", "--out", report]) == 0
    assert run(["merge", "--out", out, report]) == 0
    orders = json.loads(open(out).read())["convergence_orders"]
    assert not any(key.endswith("_by_grid") for key in orders)
    assert orders["flatness.torus_residual"] == "inf"


def test_merge_empty_is_usage_error():
    with pytest.raises(UsageError):
        checks.report_merge([])


def test_cached_parser_carries_nothing_between_calls(tmp_path, monkeypatch, capsys):
    # the parser is built once per process; every call must behave as with
    # a fresh one, so no --param or --config value leaks into the next call
    (tmp_path / "wide.cfg").write_text("window_u1 = 1.0\n")
    calls = [
        ["generate", "--kind", "sphere", "--param", "radius=2", "--param", "window_v1=1.1"],
        ["generate", "--kind", "sphere", "--config", str(tmp_path / "wide.cfg")],
        ["generate", "--kind", "sphere", "--param", "radius"],
        ["generate", "--kind", "sphere"],
    ]

    def outcomes(tag):
        got = []
        for k, argv in enumerate(calls):
            out = tmp_path / f"{tag}{k}.json"
            code = run(argv + ["--grid-nu", "9", "--grid-nv", "9", "--out", str(out)])
            got.append((code, capsys.readouterr().err, out.read_bytes() if code == 0 else b""))
        return got

    cached = outcomes("cached")
    assert [code for code, _, _ in cached] == [0, 0, 2, 0]
    assert len({report for _, _, report in cached}) == 4
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert outcomes("fresh") == cached


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\ngrid-nu = 17\ntol = 1e-3\nname=abc\n")
    parsed = cli.load_config(str(cfg))
    assert parsed == {"grid_nu": "17", "tol": "1e-3", "name": "abc"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("not a pair\n")
    with pytest.raises(UsageError):
        cli.load_config(str(bad))


def test_descent_command(tmp_path):
    surf_path = str(tmp_path / "ell.json")
    surf = checks.make_ellipsoid(17, checks.ELL_WINDOW_TENSION)
    jsonio.write_surface(surf, surf_path)
    out = str(tmp_path / "descent.json")
    assert run(["descent", "--surface", surf_path, "--steps", "3",
                "--step-size", "2e-06", "--out", out]) == 0
    rep = json.loads(open(out).read())
    assert rep["monotone"] is True
    assert len(rep["energy_sequence"]) == 4


def test_deform_and_dualize_commands(tmp_path):
    surf_path = str(tmp_path / "torus.json")
    jsonio.write_surface(checks.make_torus(17), surf_path)
    out = str(tmp_path / "deform.json")
    assert run(["deform", "--surface", surf_path, "--lambda-re", "2.0", "--out", out]) == 0
    assert json.loads(open(out).read())["blaschke_u"] < 1e-3
    # a negative value in exponent form is read as the flag's value
    assert run(["deform", "--surface", surf_path, "--lambda-re", "-2e0", "--out", out]) == 0
    assert json.loads(open(out).read())["lambda_re"] == -2.0
    out2 = str(tmp_path / "dual.json")
    conn = str(tmp_path / "conn.json")
    assert run(["dualize", "--surface", surf_path, "--out", out2,
                "--connection-out", conn]) == 0
    rep = json.loads(open(out2).read())
    assert rep["dual_signature"] == [3, 3]
    assert rep["imaginary_defect"] < 1e-10
    assert json.loads(open(conn).read())["nu"] == 17


def test_dualize_command_on_a_projective_quadric(tmp_path):
    surf_path = str(tmp_path / "quadric.json")
    assert run(["generate", "--kind", "quadric_graph", "--grid-nu", "33", "--grid-nv", "33",
                "--out", surf_path]) == 0
    out = str(tmp_path / "dual.json")
    assert run(["dualize", "--surface", surf_path, "--out", out]) == 0
    rep = json.loads(open(out).read())
    assert rep["source_signature"] == [3, 3]
    assert rep["dual_signature"] == [4, 2]


@pytest.mark.parametrize("argv", [
    ["check", "--suite", "conformality", "--grids", "33"],
    ["check", "--suite", "conformality", "--grids", "65,33"],
    ["lift", "--surface", "{tmp}/missing.json"],
    ["energy", "--surface", "{tmp}/nan.json"],
    ["check", "--suite", "lift-invariants", "--grids", "17,33", "--tolerance", "1e-300"],
    ["check", "--suite", "lift-invariants", "--grids", "17,33", "--param", "tol_typo=1"],
    ["lift", "--surface", "{tmp}/no_nu.json"],
    ["lift", "--surface", "{tmp}/list.json"],
    ["lift", "--surface", "{tmp}/geometry.json"],
    ["lift", "--surface", "{tmp}/float_nu.json"],
    ["generate", "--kind", "perturbed_graph", "--grid-nu", "9", "--grid-nv", "9",
     "--asymptotic", "--param", "net_step=nan"],
    ["generate", "--kind", "torus", "--grid-nu", "1"],
    ["check", "--suite", "deform", "--grids", "17,33", "--lambda-re", "0"],
    ["descent", "--surface", "{tmp}/good.json", "--steps", "-1"],
    ["descent", "--surface", "{tmp}/good.json", "--step-size", "nan"],
    ["descent", "--surface", "{tmp}/good.json", "--step-size=-1e-6"],
    ["generate", "--kind", "torus", "--grid-nu", "9", "--grid-nv", "9", "--param", "r=abc"],
    ["generate", "--kind", "torus", "--grid-nu", "9", "--grid-nv", "9",
     "--param", "window_u0=abc"],
    ["check", "--suite", "conformality", "--grids", "17,33", "--config", "{tmp}/tol.cfg"],
    ["check", "--suite", "invariance", "--grids", "17,33", "--param", "seed=1.5"],
    ["deform", "--surface", "{tmp}/good.json", "--lambda-re", "nan"],
    ["check", "--suite", "deform", "--grids", "17,33", "--lambda-re", "nan"],
    ["check", "--suite", "deform", "--grids", "17,33", "--lambda-im", "inf"],
    ["check", "--suite", "conformality", "--grids", "17,33", "--tolerance", "nan"],
    ["merge", "{tmp}/good.json"],
    ["check", "--suite", "invariance", "--grids", "17,33", "--param", "n_group=-3"],
    ["check", "--suite", "invariance", "--grids", "17,33", "--param", "n_group=0"],
    ["check", "--suite", "invariance", "--grids", "17,33", "--param", "shifts=abc"],
    ["check", "--suite", "invariance", "--grids", "17,33", "--param", "shifts=0.1,nan"],
    ["check", "--suite", "conformality", "--grids", "17,33", "--tolerance", "-1"],
    ["check", "--suite", "conformality", "--grids", "17,abc"],
    ["check", "--suite", "conformality", "--grids", "17,33", "--param", "tol=-1"],
    ["check", "--suite", "lift-invariants", "--grids", "17,33", "--param", "tol_order=0"],
    ["check", "--suite", "conformality", "--grids", "17,33", "--config", "{tmp}/neg_tol.cfg"],
    ["check", "--suite", "descent", "--grids", "17", "--param", "step_size=-1e-6"],
    ["check", "--suite", "descent", "--grids", "17", "--param", "steps=-1"],
    ["check", "--suite", "conformality", "--grids", "17,33", "--tolerance", "-1e-3"],
    ["check", "--suite", "conformality", "--grids", "17,33", "--tolerance", "-inf"],
    ["check", "--suite", "conformality", "--grids", "17,33", "--tolerance", "abc"],
    ["descent", "--surface", "{tmp}/good.json", "--step-size", "-1e-6"],
    ["generate", "--kind", "torus", "--grid-nu", "9", "--grid-nv", "9", "--asymptotic"],
    ["check", "--suite", "conformality", "--grids", "17,33", "--param", "tol"],
    ["generate", "--kind", "ellipsoid", "--grid-nu", "9", "--grid-nv", "9",
     "--param", "reality=complex_conjugate"],
    ["gauss", "--surface", "{tmp}/complex_chart.json"],
    # the asymptotic net is real: a complex-conjugate chart is not dropped silently
    ["generate", "--kind", "perturbed_graph", "--grid-nu", "17", "--grid-nv", "17",
     "--asymptotic", "--param", "reality=complex_conjugate"],
    ["merge", "{tmp}/orders.json"],
    # the default window holds the cone's apex, where kappa2 is infinite
    ["generate", "--kind", "revolution", "--param", "profile=cone", "--grid-nu", "33"],
    # hyperbolic graphs have real asymptotic lines: no complex-conjugate chart
    ["generate", "--kind", "quadric_graph", "--grid-nu", "17", "--grid-nv", "17",
     "--param", "reality=complex_conjugate"],
    ["generate", "--kind", "perturbed_graph", "--grid-nu", "17", "--grid-nv", "17",
     "--param", "reality=complex_conjugate"],
    # generate refuses a key its generator does not take, net_step without --asymptotic
    ["generate", "--kind", "torus", "--grid-nu", "9", "--grid-nv", "9", "--param", "RR=5"],
    ["generate", "--kind", "perturbed_graph", "--grid-nu", "9", "--grid-nv", "9",
     "--param", "net_step=0.01"],
    # a sphere of radius 0 has no curvature (1/radius was a ZeroDivisionError)
    ["generate", "--kind", "sphere", "--grid-nu", "9", "--grid-nv", "9", "--param", "radius=0"],
    # only generate and check take --param and --config
    ["lift", "--surface", "{tmp}/good.json", "--param", "r=1"],
    ["energy", "--config", "{tmp}/tol.cfg", "--surface", "{tmp}/good.json"],
    # a misspelt field is refused, not dropped (the curvatures would be refit)
    ["energy", "--surface", "{tmp}/misspelt.json"],
    # exp of a huge edge overflows while it is squared (reported NaN before), and
    # 1/lambda overflows to a norm whose 2 ** squarings was an OverflowError
    ["deform", "--surface", "{tmp}/good.json", "--lambda-re", "1e308"],
    ["deform", "--surface", "{tmp}/good.json", "--lambda-re", "1e-300"],
    ["check", "--suite", "deform", "--grids", "9,17", "--lambda-re", "1e-320"],
])
def test_bad_input_exits_2_with_one_line(argv, tmp_path, capsys):
    surf = sf.make_surface(sf.TorusSampler(1.0, 3.0), (0.3, 1.7, 0.2, 1.8), 9, 9)
    good = jsonio.surface_to_dict(surf)
    bad = {  # file name: (content, what the message must name)
        "no_nu": ({k: v for k, v in good.items() if k != "nu"}, "'nu' is missing"),
        "list": ([good], "JSON object"),
        "geometry": (dict(good, geometry="euclidean4"), "'geometry'"),
        "float_nu": (dict(good, nu=9.7), "'nu' must be"),
        # curvature-line nets are real: a Euclidean file takes only a real chart
        "complex_chart": (dict(good, reality="complex_conjugate"), "reality"),
        "orders": ({"suite": "conformality", "pass": True, "convergence_orders": "abc"},
                   "'convergence_orders'"),
        "misspelt": ({("kappa_1" if k == "kappa1" else k): v for k, v in good.items()},
                     "'kappa_1'"),
    }
    for name, (data, _) in bad.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    (tmp_path / "tol.cfg").write_text("tol = abc\n")
    (tmp_path / "neg_tol.cfg").write_text("tol = -1e-3\n")
    jsonio.write_surface(surf, tmp_path / "good.json")
    # a surface file with one NaN point
    surf.points[4, 4, 0] = np.nan
    jsonio.write_surface(surf, tmp_path / "nan.json")
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert run(argv + ["--out", str(tmp_path / "out.json")]) == 2
    assert not (tmp_path / "out.json").exists()
    err = capsys.readouterr().err
    assert err.startswith(f"qg {argv[0]}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    for name, (_, needle) in bad.items():
        if argv[-1].endswith(f"/{name}.json"):
            assert needle in err
    # the message names the flag, key or file at fault
    flag, value = argv[-2], argv[-1]
    if value in ("nan", "inf", "-inf", "-1", "-1e-3", "-1e-6", "abc"):
        assert flag in err
    if flag == "--param":
        assert value.split("=")[0] in err
    if flag == "--grids":
        assert "grid" in err
    if flag == "--config":
        assert "tol must be" in err
    if argv[0] == "merge":
        assert f"{argv[-1]} is not a check report" in err
    if argv[0] not in ("generate", "check"):
        for flag in ("--param", "--config"):
            if flag in argv:
                assert f"unrecognized arguments: {flag}" in err
    if "profile=cone" in argv:
        assert "'kappa2'" in err


@pytest.mark.parametrize("command", sorted(set(cli.COMMANDS) - {"generate", "check"}))
def test_only_generate_and_check_take_param_and_config(command, tmp_path, capsys):
    # the other commands read no key=value parameters, so they take neither flag
    out = tmp_path / "out.json"
    args = ["{tmp}/r.json"] if command == "merge" else ["--surface", "{tmp}/s.json"]
    for extra in (["--param", "r=1"], ["--config", "{tmp}/run.cfg"]):
        argv = [a.format(tmp=tmp_path) for a in [command, *extra, *args, "--out", str(out)]]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"qg {command}: unrecognized arguments: {extra[0]}")
        assert err.count("\n") == 1 and not out.exists()


@pytest.mark.parametrize("kind", sorted(cli.GENERATORS))
def test_generate_takes_every_parameter_of_its_factory(kind, tmp_path):
    # the accepted keys are the factory's parameters: each one set to its
    # default gives the file that generating without it gives
    factory = cli.GENERATORS[kind][0]
    defaults = {name: p.default for name, p in inspect.signature(factory).parameters.items()}
    base = ["generate", "--kind", kind, "--grid-nu", "9", "--grid-nv", "9", "--out"]
    params = [arg for name, value in defaults.items() for arg in ("--param", f"{name}={value}")]
    assert run(base + [str(tmp_path / "given.json")] + params) == 0
    assert run(base + [str(tmp_path / "default.json")]) == 0
    assert (tmp_path / "given.json").read_bytes() == (tmp_path / "default.json").read_bytes()


@pytest.mark.parametrize("flags,lam", [([], 2.0), (["--lambda-re", "1"], 1.0),
                                       (["--lambda-re", "-1e-3"], -1e-3)])
def test_check_forwards_lambda(flags, lam, tmp_path):
    # lambda = 1 is a value like any other, not "unset"
    out = tmp_path / "deform.json"
    assert run(["check", "--suite", "deform", "--grids", "17,33", "--out", str(out)]
               + flags) == 0
    assert json.loads(out.read_text())["metrics"]["lambda"] == lam


def test_check_grids_from_param(tmp_path):
    out = tmp_path / "orth.json"
    assert run(["check", "--suite", "orthogonality", "--param", "grids=17,33",
                "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["grids"] == [17, 33]


def test_tuple_param_reads_comma_separated_numbers(tmp_path, monkeypatch):
    def invariance(grids=checks.DEFAULT_GRIDS, shifts=(0.1, 0.3)):
        return {"suite": "invariance", "pass": True, "metrics": {"shifts": list(shifts)}}

    monkeypatch.setitem(checks.SUITES, "invariance", invariance)
    out = tmp_path / "inv.json"
    for text, want in (("0.1", [0.1]), ("0.2, 1", [0.2, 1])):
        assert run(["check", "--suite", "invariance", "--grids", "17,33",
                    "--param", f"shifts={text}", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["metrics"]["shifts"] == want


def test_tension_on_too_small_grid_names_the_minimum(tmp_path, capsys):
    surf = sf.make_surface(sf.TorusSampler(1.0, 3.0), (0.3, 1.7, 0.2, 1.8), 5, 5)
    jsonio.write_surface(surf, tmp_path / "small.json")
    assert run(["tension", "--surface", str(tmp_path / "small.json"),
                "--out", str(tmp_path / "out.json")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and " 7 nodes per axis" in err


VALID_9x9 = jsonio.surface_to_dict(
    sf.make_surface(sf.TorusSampler(1.0, 3.0), (0.3, 1.7, 0.2, 1.8), 9, 9))
REQUIRED = ("geometry", "nu", "nv", "hu", "hv", "points", "normals")
ARRAYS = ("points", "normals", "kappa1", "kappa2")
# one value of each JSON type; a key only ever gets one of another type
SWAPS = (None, True, "x", 7, 1.5, [1.0, 2.0], {"a": 1})


def _json_type(value):
    if isinstance(value, bool):
        return bool
    return float if isinstance(value, (int, float)) else type(value)


@st.composite
def malformed_surfaces(draw):
    data = dict(VALID_9x9)
    how = draw(st.sampled_from(("drop", "swap", "truncate", "nan")))
    if how == "drop":
        del data[draw(st.sampled_from(REQUIRED))]
    elif how == "swap":
        key = draw(st.sampled_from(sorted(data)))
        data[key] = draw(st.sampled_from(
            [v for v in SWAPS if _json_type(v) is not _json_type(data[key])]))
    elif how == "truncate":
        key = draw(st.sampled_from(ARRAYS))
        data[key] = data[key][:draw(st.integers(0, len(data[key]) - 1))]
    else:
        key = draw(st.sampled_from(ARRAYS + ("hu", "hv")))
        if key in ("hu", "hv"):
            data[key] = float("nan")
        else:
            data[key] = list(data[key])
            data[key][draw(st.integers(0, len(data[key]) - 1))] = float("nan")
    return data


@settings(derandomize=True, max_examples=50, deadline=None)
@given(malformed_surfaces())
def test_malformed_surface_exits_2_with_one_line(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/surface.json"
        with open(path, "w") as fh:
            json.dump(data, fh)
        with contextlib.redirect_stderr(io.StringIO()) as stderr:
            code = run(["lift", "--surface", path, "--out", f"{tmp}/out.json"])
    err = stderr.getvalue()
    assert code == 2
    assert err.startswith("qg lift: ") and err.count("\n") == 1
    assert "Traceback" not in err


TWO_GRID_SUITES = sorted(set(checks.SUITES) - set(checks.ONE_GRID_SUITES))


@st.composite
def bad_check_args(draw):
    """(argv, config text or None) for `qg check` with exactly one invalid value."""
    how = draw(st.sampled_from(("unknown", "not_number", "non_finite", "tol", "descent",
                                "grids", "config_line")))
    suite = "descent" if how == "descent" else draw(
        st.sampled_from(TWO_GRID_SUITES if how == "grids" else sorted(checks.SUITES)))
    types = cli._default_types(checks.SUITES[suite])
    floats = sorted(k for k, kind in types.items() if kind is float)
    argv = ["check", "--suite", suite,
            "--grids", "17" if suite in checks.ONE_GRID_SUITES else "17,33"]
    key = value = config = None
    if how == "unknown":
        key = draw(st.from_regex(r"[a-z][a-z_]{0,8}", fullmatch=True).filter(
            lambda k: k not in types))
        value = "1"
    elif how == "not_number":
        key = draw(st.sampled_from(floats + ["--tolerance", "--lambda-re", "--lambda-im"]))
        value = draw(st.from_regex(r"[a-z][a-z0-9]{0,5}", fullmatch=True))
    elif how == "non_finite":
        value = draw(st.sampled_from(("nan", "inf", "-inf", "NaN", "Infinity")))
        key = draw(st.sampled_from(floats + ["--tolerance", "--lambda-re", "--lambda-im"]))
    elif how == "tol":
        tols = [k for k in types if k == "tol" or k.startswith("tol_")]
        key = draw(st.sampled_from(tols + ["--tolerance"]))
        value = repr(draw(st.floats(max_value=0.0, allow_nan=False, allow_infinity=False)))
    elif how == "descent":
        key = draw(st.sampled_from(("steps", "step_size")))
        value = (str(draw(st.integers(max_value=-1))) if key == "steps" else repr(draw(
            st.floats(max_value=-5e-324, allow_infinity=False))))
    elif how == "grids":
        argv = argv[:3]
        first = draw(st.integers(5, 65))
        value = draw(st.sampled_from((str(first), f"{first},{draw(st.integers(5, first))}")))
        key = draw(st.sampled_from(("--grids", "grids")))
    else:
        config = draw(st.from_regex(r"[a-z][a-z ._-]{0,12}", fullmatch=True)) + "\n"
    if key is not None and key.startswith("--"):
        argv += draw(st.sampled_from(([key, value], [f"{key}={value}"])))
    elif key is not None and draw(st.booleans()):
        argv += ["--param", f"{key}={value}"]
    elif key is not None:
        config = f"{key} = {value}\n"
    return argv, config


@settings(derandomize=True, max_examples=50, deadline=None)
@given(bad_check_args())
def test_bad_check_arguments_exit_2_with_one_line(case):
    argv, config = case
    with tempfile.TemporaryDirectory() as tmp:
        if config is not None:
            with open(f"{tmp}/run.cfg", "w") as fh:
                fh.write(config)
            argv = argv + ["--config", f"{tmp}/run.cfg"]
        with contextlib.redirect_stderr(io.StringIO()) as stderr:
            code = run(argv + ["--out", f"{tmp}/out.json"])
    err = stderr.getvalue()
    assert code == 2
    assert err.startswith("qg check: ") and err.count("\n") == 1
    assert "Traceback" not in err
