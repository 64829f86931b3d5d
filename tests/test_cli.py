import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import euclidpt
from euclidpt import mathieu, spectral
from euclidpt.cli import _csv_lines, main


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# transform
# ---------------------------------------------------------------------------

def test_transform_pt5_ok(capsys):
    code, out, _ = run(["transform", "--symmetry", "PT5", "--mu1", "1", "--mu2", "0.3",
                        "--mu4", "0.5", "--mu5", "0.8", "--mu6", "0.4",
                        "--mu7", "-0.5", "--mu8", "0.7"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["result"]["residual"] < 1e-10
    assert len(report["result"]["constrained_mu"]) == 9
    assert report["result"]["h"]["basis"] == "u,v,J-normal"


def test_transform_broken_region_exit_2(capsys):
    code, _, err = run(["transform", "--symmetry", "PT5", "--mu1", "1",
                        "--mu5", "1", "--mu6", "1", "--mu7", "0.5"], capsys)
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "MapUndefined"
    assert abs(payload["rhs"]) <= 1.0


def test_transform_three_param_report(capsys):
    code, out, _ = run(["transform", "--symmetry", "PT5", "--three-param",
                        "--mu3", "1", "--mu4", "0.5", "--mu7", "0"], capsys)
    assert code == 0
    result = json.loads(out)["result"]
    for key in ("alpha", "beta", "gamma", "lambda", "rho"):
        assert key in result
    # inside the broken window the same command exits 2 with the rhs reported
    code, _, err = run(["transform", "--symmetry", "PT5", "--three-param",
                        "--mu3", "1", "--mu4", "2", "--mu7", "4"], capsys)
    assert code == 2
    assert abs(json.loads(err)["rhs"]) <= 1.0


def test_intensity_sweep_surface(tmp_path, capsys):
    out = tmp_path / "surface.csv"
    code = main(["intensity", "--sweep", "mu3:0.4:1.4:3", "--mu4", "1",
                 "--mu7", "4", "--truncation", "24", "--grid", "12",
                 "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 3 * 12
    assert len({line.split(",")[0] for line in lines[1:]}) == 3


def test_transform_zero_mu1_exit_2(capsys):
    code, out, err = run(["transform", "--symmetry", "PT1", "--mu1", "0"], capsys)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "DegenerateCouplings", "detail": "mu1 must be nonzero"}


def test_transform_pt1_defaults_notice(capsys):
    code, out, _ = run(["transform", "--symmetry", "PT1", "--lam", "0.4",
                        "--mu3", "0.5", "--mu4", "0.2"], capsys)
    assert code == 0
    report = json.loads(out)
    assert "already Hermitian" in report.get("notice", "")


# ---------------------------------------------------------------------------
# spectrum / ep
# ---------------------------------------------------------------------------

def test_spectrum_csv_deterministic(tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    args = ["spectrum", "--family", "pt5-three", "--mu3", "0.5", "--mu7", "0",
            "--sweep", "mu4:-1:1:5", "--truncation", "24", "--levels", "5"]
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()
    lines = out_a.read_text().splitlines()
    assert lines[0] == "axis_value,level_index,re_E,im_E"
    assert len(lines) == 1 + 5 * 5
    # %.12e formatting
    assert "e+" in lines[1] or "e-" in lines[1]


def test_spectrum_plot_script(tmp_path, capsys):
    out = tmp_path / "bands.csv"
    code = main(["spectrum", "--family", "raw", "--symmetry", "PT5",
                 "--mu1", "1", "--mu7", "0.5", "--sweep", "s:0:1.9:5",
                 "--truncation", "16", "--levels", "4",
                 "--out", str(out), "--plot-script"])
    capsys.readouterr()
    assert code == 0
    script = tmp_path / "bands.csv.plot.py"
    assert script.exists()
    assert "matplotlib" in script.read_text()


def test_ep_json(tmp_path, capsys):
    out = tmp_path / "eps.json"
    code = main(["ep", "--family", "pt5-three", "--mu3", "1", "--mu4", "3",
                 "--sweep", "mu7:3:5:5", "--truncation", "32", "--levels", "8",
                 "--ep-tol", "1e-5", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    report = json.loads(out.read_text())
    points = report["exceptional_points"]
    assert any(abs(p["parameter_value"] - 4.0) < 1e-3 and abs(p["energy"] + 1.0) < 1e-2
               for p in points)
    assert report["config"]["sweep"] == "mu7:3:5:5"


# ---------------------------------------------------------------------------
# intensity / mathieu / e3-adjoint
# ---------------------------------------------------------------------------

def test_intensity_csv(tmp_path, capsys):
    out = tmp_path / "int.csv"
    code = main(["intensity", "--mu3", "1.2", "--mu4", "1", "--mu7", "4",
                 "--truncation", "32", "--grid", "36", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "mu3,theta,i_even,i_odd,i_sum_ref"
    assert len(lines) == 37


def test_intensity_plot_script(tmp_path, capsys):
    out = tmp_path / "int.csv"
    code = main(["intensity", "--mu3", "0.8", "--truncation", "16", "--grid", "8",
                 "--out", str(out), "--plot-script"])
    capsys.readouterr()
    assert code == 0
    script = (tmp_path / "int.csv.plot.py").read_text()
    assert repr(str(out)) in script
    assert "['i_even', 'i_odd', 'i_sum_ref']" in script


def test_mathieu_csv(capsys):
    code, out, _ = run(["mathieu", "--q", "0,0", "--class", "even-pi",
                        "--count", "4"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "order,re_a,im_a"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values == pytest.approx([0.0, 4.0, 16.0, 36.0], abs=1e-9)


def test_mathieu_at_the_first_double_point(capsys):
    # a_0 and a_2 are 5.5e-4 apart here; the rows are the trunc-120 chain
    code, out, _ = run(["mathieu", "--q", "0,1.4687686", "--class", "even-pi"], capsys)
    assert code == 0
    values = [complex(float(re), float(im)) for _, re, im in
              (line.split(",") for line in out.splitlines()[1:])]
    chain = mathieu._sorted_eigs(1.4687686j, mathieu.EVEN_PI, 120)[:8]
    assert np.max(np.abs(np.array(values) - chain)) <= 1e-8


@pytest.mark.parametrize("count,code", [(2, 0), (3, 1), (4, 0)])
def test_mathieu_count_may_not_split_a_conjugate_pair(count, code, capsys):
    status, out, err = run(["mathieu", "--q", "0,16.471166", "--class", "even-pi",
                            "--count", str(count)], capsys)
    assert status == code
    if code:
        assert out == "" and len(err.splitlines()) == 1 and "conjugate" in err
    else:
        assert len(out.splitlines()) == count + 1


def test_mathieu_truncation_doubling_failure_exit_3(capsys):
    code, out, err = run(["mathieu", "--q", "300", "--class", "even-pi", "--count", "2",
                          "--trunc", "10"], capsys)
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("numerical failure: ") and "under truncation doubling" in err


def test_csv_lines_match_per_value_format():
    edge = np.array([-0.0, 0.0, 5e-324, -1.5e-310, 2.2250738585072014e-308, 1e300, -1e300,
                     3.0, -17.0, 2.0 ** 53, 1 / 3, np.inf, -np.inf, np.nan])
    back = edge[::-1].copy()
    expected = [f"{x:.12e},{k},{y:.12e}" for k, (x, y) in enumerate(zip(edge, back))]
    assert _csv_lines("%.12e,%d,%.12e", edge, np.arange(len(edge)), back) == expected


def test_e3_adjoint_identity(capsys):
    code, out, _ = run(["e3-adjoint"], capsys)
    assert code == 0
    table = json.loads(out)["table"]
    assert table["columns"]["Pp"]["Pp"] == pytest.approx(1.0)
    assert table["columns"]["Pp"].get("Pz", 0.0) == pytest.approx(0.0)


# ---------------------------------------------------------------------------
# configuration handling
# ---------------------------------------------------------------------------

def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"q": "0,0", "cls": "even-pi", "count": 3}))
    code, out, _ = run(["mathieu", "--config", str(cfg)], capsys)
    assert code == 0
    assert len(out.splitlines()) == 4
    # flag overrides config
    code, out, _ = run(["mathieu", "--config", str(cfg), "--count", "5"], capsys)
    assert code == 0
    assert len(out.splitlines()) == 6


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"q": "0,0", "cls": "even-pi", "bogus": 1}))
    code, _, err = run(["mathieu", "--config", str(cfg)], capsys)
    assert code == 1
    assert "bogus" in err


def test_bad_flag_exit_1(capsys):
    code, _, err = run(["mathieu", "--q", "0,0", "--class", "no-such"], capsys)
    assert code == 1
    code, _, err = run(["spectrum", "--sweep", "nonsense"], capsys)
    assert code == 1


def test_missing_required_flag_exit_1(capsys):
    code, _, _ = run(["transform"], capsys)
    assert code == 1


EP_SMALL = ["ep", "--family", "pt5-three", "--mu4", "1", "--mu7", "4",
            "--sweep", "mu3:0:2:5", "--truncation", "8", "--levels", "4"]


def test_ep_tolerance_below_float_spacing():
    # a separate process, so that a bisection that never ends fails the test
    src = str(Path(euclidpt.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-m", "euclidpt.cli", *EP_SMALL,
                           "--ep-tol", "1e-20"], capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    points = json.loads(proc.stdout)["exceptional_points"]
    assert points and all(0 < p["bracket_width"] < 1e-14 for p in points)


@pytest.mark.parametrize("flag,value", [("--ep-tol", "0"), ("--im-tol", "-1")])
def test_ep_tolerances_checked_before_sweep(flag, value, monkeypatch, capsys):
    def no_sweep(*args, **kwargs):
        raise AssertionError("sweep ran before the tolerances were checked")

    monkeypatch.setattr(spectral, "sweep", no_sweep)
    code, _, err = run(EP_SMALL + [flag, value], capsys)
    assert code == 1
    assert len(err.splitlines()) == 1
    assert flag in err


@pytest.mark.parametrize("args", [
    ["spectrum", "--sweep", "mu10:0:1:3"],
    ["spectrum", "--sweep", "mu3:0:1:1"],
    ["spectrum", "--truncation", "2", "--sweep", "mu3:0:1:3"],
    ["spectrum", "--sector", "3", "--sweep", "mu3:0:1:3"],
    ["spectrum", "--mu3", "nan", "--sweep", "mu4:0:1:3"],
    ["spectrum", "--family", "pt5-three", "--sweep", "mu1:0:1:3"],
    ["mathieu", "--q", "1", "--class", "even-pi", "--count", "80"],
    ["mathieu", "--q", "1", "--class", "even-pi", "--count", "0"],
    ["mathieu", "--q", "1", "--class", "even-pi", "--count", "-2"],
    ["mathieu", "--q", "1,2,3", "--class", "even-pi"],
    ["mathieu", "--q", "1,inf", "--class", "even-pi"],
    ["spectrum", "--levels", "500", "--truncation", "8", "--sweep", "mu3:0:1:3"],
    EP_SMALL + ["--ep-tol", "0"],
    EP_SMALL + ["--ep-tol", "nan"],
    EP_SMALL + ["--im-tol", "-1"],
    ["intensity", "--grid", "0", "--truncation", "8"],
    ["intensity", "--mu3", "0.8", "--truncation", "4"],
    ["intensity", "--sweep", "mu3:0:4:0", "--truncation", "8"],
    ["intensity", "--sweep", "mu3:0:4:-3", "--truncation", "8"],
    ["intensity", "--near-energy", "nan", "--truncation", "8"],
    ["intensity", "--near-energy", "inf", "--truncation", "8"],
    ["e3-adjoint", "--lambda-z", "nan"],
    ["spectrum", "--workers", "0", "--sweep", "mu3:0:1:3"],
    EP_SMALL + ["--workers", "-3"],
    ["spectrum", "--sweep", "mu3:0:inf:5"],
    ["mathieu", "--q", "1", "--class", "even-pi", "--trunc", "3"],
], ids=["axis", "steps", "truncation", "sector", "nan", "family-axis",
        "mathieu-count", "mathieu-count-zero", "mathieu-count-negative", "mathieu-q-parts",
        "mathieu-q-inf", "levels", "ep-tol-zero", "ep-tol-nan", "im-tol-negative",
        "grid", "intensity-trusted", "intensity-steps-zero", "intensity-steps-negative",
        "near-energy-nan", "near-energy-inf", "e3-lambda-nan", "workers-zero",
        "ep-workers-negative", "sweep-inf", "mathieu-trunc"])
def test_bad_value_one_line_exit_1(args, capsys):
    code, _, err = run(args, capsys)
    assert code == 1
    assert len(err.splitlines()) == 1
    assert err.startswith("configuration error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("args, flag", [(["--q", "1", "--count", "0"], "--count"),
                                        (["--q", "1,2,3"], "--q"), (["--q", "nan"], "--q"),
                                        (["--q", "1", "--count", "80"], "--count"),
                                        (["--q", "1", "--trunc", "3"], "--trunc")])
def test_mathieu_bad_value_names_flag(args, flag, capsys):
    code, out, err = run(["mathieu", "--class", "even-pi", *args], capsys)
    assert code == 1 and out == ""
    assert flag in err


@pytest.mark.parametrize("args, flag", [(["spectrum", "--workers", "0", "--sweep", "mu3:0:1:3"],
                                         "--workers"),
                                        (EP_SMALL + ["--workers", "-3"], "--workers"),
                                        (["ep", "--sweep", "mu3:-inf:1:3"], "--sweep")])
def test_sweep_bad_value_names_flag(args, flag, monkeypatch, capsys):
    def no_sweep(*args, **kwargs):
        raise AssertionError("sweep ran before its flags were checked")

    monkeypatch.setattr(spectral, "sweep", no_sweep)
    code, out, err = run(args, capsys)
    assert code == 1 and out == ""
    assert flag in err


@pytest.mark.parametrize("args", [["e3-adjoint", "--lambda-z", "400"],
                                  ["e3-adjoint", "--lambda-plus", "1e200",
                                   "--lambda-minus", "1e200"]], ids=["cosh", "omega-sq"])
def test_e3_adjoint_overflow_one_line_exit_1(args, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(args, capsys)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("configuration error: ")


@pytest.mark.parametrize("args, flag", [
    (["--symmetry", "PT1", "--mu1", "1e308", "--mu3", "1e308"], "mu3"),
    (["--symmetry", "PT5", "--mu1", "1", "--mu5", "1", "--mu6", "1", "--mu2", "inf"], "mu2"),
    (["--symmetry", "PT1", "--lam", "1000"], "lam"),
    (["--symmetry", "PT5", "--three-param", "--mu3", "1e200", "--mu4", "1"], "mu3"),
    (["--symmetry", "PT5", "--three-param", "--mu3", "1", "--mu4", "nan"], "mu4"),
], ids=["pt1-overflow", "pt5-inf", "lam-overflow", "three-param-overflow", "three-param-nan"])
def test_transform_bad_value_one_line_exit_1(args, flag, capsys):
    code, out, err = run(["transform", *args], capsys)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("configuration error: ")
    assert flag in err


@pytest.mark.parametrize("args", [
    ["--mu1", "1", "--mu7", "1e300", "--truncation", "8"],
    ["--mu1", "1e307"],
], ids=["chain-products", "diagonal"])
def test_spectrum_overflow_one_line_exit_1(args, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(["spectrum", *args, "--sweep", "s:0:1:2", "--levels", "2"], capsys)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("configuration error: ") and "overflows" in err


@pytest.mark.parametrize("q", ["1e200", "0,1e200"])
def test_mathieu_chain_overflow_names_flag(q, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(["mathieu", "--class", "even-pi", "--q", q], capsys)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert "--q" in err


def test_intensity_truncation_too_small_names_flag(capsys):
    code, out, err = run(["intensity", "--mu3", "0.8", "--truncation", "4"], capsys)
    assert code == 1 and out == ""
    assert "--truncation" in err
