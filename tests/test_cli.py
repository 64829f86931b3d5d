import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import euclidpt
from euclidpt import mathieu, spectral
from euclidpt import cli
from euclidpt.cli import main
from euclidpt.errors import ConvergenceFailure


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


def test_transform_pt3_mu9_target(capsys):
    # mu5 = 2 mu4, mu6 = 2 mu3, mu2 = 0: the coth equation is 0/0 and mu9 picks lam
    code, out, _ = run(["transform", "--symmetry", "PT3", "--mu1", "1", "--mu2", "0",
                        "--mu3", "0.5", "--mu4", "0.3", "--mu5", "0.6", "--mu6", "1",
                        "--mu7", "0.2", "--mu8", "0.1", "--mu9-target", "3"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["free"]["mu9_target"] == 3.0
    assert report["result"]["constrained_mu"][8] == 3.0
    assert report["result"]["residual"] < 1e-12


def test_transform_pt3_unused_mu9_target_exit_1(capsys):
    # mu2 = 0.1 makes the coth equation 1.25..., not 0/0, so it fixes mu9 itself
    code, out, err = run(["transform", "--symmetry", "PT3", "--mu1", "1", "--mu2", "0.1",
                          "--mu3", "0.2", "--mu4", "0.9", "--mu5", "0.3", "--mu6", "2",
                          "--mu7", "0.2", "--mu8", "0.1", "--mu9-target", "3"], capsys)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("configuration error: ") and "mu9_target" in err


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


# the README `transform` and `e3-adjoint` recipes: exit code and the sha256 of stdout
README_ALGEBRA_RECIPES = [
    ("transform --symmetry PT5 --mu1 1 --mu2 0.3 --mu4 0.5 --mu5 0.8 --mu6 0.4 --mu7 -0.5 "
     "--mu8 0.7", 0, "93a1f61c7510c481a2877f67a0ec6c9076cf55f0c7eaf26733f306b37e5be858"),
    ("transform --symmetry PT5 --mu1 1 --mu5 1 --mu6 1 --mu7 0.5", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("transform --symmetry PT5 --three-param --mu3 1 --mu4 0.5 --mu7 0", 0,
     "d6148b4f19f8fd3babe79294b54b8b4935132306be36e19ee9caaf33971bfd7f"),
    ("e3-adjoint --lambda-z 0.2 --lambda-plus 0.1 --lambda-minus -0.3 --kappa-z 0.4 "
     "--kappa-plus 0 --kappa-minus 0.5", 0,
     "324792ee24e0afaa15f4f60078f06fd16259ab3bf61d08134e77fff136025fe2"),
]


@pytest.mark.parametrize("argv, code, digest", README_ALGEBRA_RECIPES,
                         ids=["pt5", "pt5-broken", "pt5-three-param", "e3-adjoint"])
def test_readme_algebra_recipes_print_the_same_bytes(argv, code, digest, capsys):
    assert main(argv.split()) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


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
    # real q reports its residual bound at --trunc, the longest chain it tries; complex q
    # its move under doubling --trunc
    for q, wording in (("300", "under truncation to 10 modes"),
                       ("300,1", "under truncation doubling")):
        code, out, err = run(["mathieu", "--q", q, "--class", "even-pi", "--count", "2",
                              "--trunc", "10"], capsys)
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("numerical failure: ") and wording in err


_OUT_COMMANDS = {"mathieu": (["mathieu", "--q", "1", "--class", "even-pi"],
                             mathieu, "characteristic_values"),
                 "intensity": (["intensity", "--sweep", "mu3:0:4:3", "--grid", "8"],
                               spectral, "intensity_sweep")}


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
@pytest.mark.parametrize("command", sorted(_OUT_COMMANDS))
def test_unwritable_out_one_line_exit_1_before_the_solve(command, where, tmp_path,
                                                         monkeypatch, capsys):
    argv, module, solve = _OUT_COMMANDS[command]
    monkeypatch.setattr(module, solve, lambda *args: pytest.fail("solved"))
    out = {"missing-directory": tmp_path / "missing" / "x.csv", "directory": tmp_path}[where]
    code, stdout, err = run([*argv, "--out", str(out)], capsys)
    assert (code, stdout) == (1, "")
    assert len(err.splitlines()) == 1 and "--out" in err


@pytest.mark.parametrize("command", sorted(_OUT_COMMANDS))
def test_failed_solve_leaves_an_existing_out_untouched(command, tmp_path, monkeypatch, capsys):
    argv, module, solve = _OUT_COMMANDS[command]

    def fail(*args):
        raise ConvergenceFailure("no solve")

    monkeypatch.setattr(module, solve, fail)
    out = tmp_path / "x.csv"
    out.write_text("kept\n")
    code, stdout, err = run([*argv, "--out", str(out)], capsys)
    assert (code, stdout, err) == (3, "", "numerical failure: no solve\n")
    assert out.read_text() == "kept\n"


def test_out_open_error_one_line_exit_1(tmp_path, monkeypatch, capsys):
    # a path the directory check passes but open refuses: the error names --out
    monkeypatch.setattr(cli, "_check_out", lambda path: None)
    code, out, err = run(["mathieu", "--q", "1", "--class", "even-pi", "--out",
                          str(tmp_path)], capsys)
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert err.startswith(f"configuration error: cannot write --out {str(tmp_path)!r}")


@pytest.mark.parametrize("argv, i", [
    (["mathieu", "--q", "-2,0.5", "--class", "even-pi"], 1),
    (["transform", "--symmetry", "PT5", "--three-param", "--mu3", "1", "--mu4", "-5e-1",
      "--mu7", "0"], 6),
], ids=["mathieu-complex-q", "transform-exponent"])
def test_negative_value_is_not_a_flag(argv, i, capsys):
    # argparse itself takes only plain decimals such as -0.5 for values
    joined = [*argv[:i], f"{argv[i]}={argv[i + 1]}", *argv[i + 2:]]
    code, out, err = run(argv, capsys)
    assert (code, err) == (0, "")
    assert out == run(joined, capsys)[1]


def test_csv_lines_match_per_value_format(monkeypatch):
    # the writer against per-value %.12e rows over -0.0, subnormals, three-digit exponents
    # (-1e300 the widest, 20 bytes), inf and nan, with negative i_sum_ref values; in one
    # chunk and split across chunks of 7 rows
    for chunk_rows in (cli._CHUNK_ROWS, 7):
        monkeypatch.setattr(cli, "_CHUNK_ROWS", chunk_rows)
        _check_csv_lines()


def _check_csv_lines():
    edge = np.array([-0.0, 0.0, 5e-324, -1.5e-310, 2.2250738585072014e-308, 1e300, -1e300,
                     3.0, -17.0, 2.0 ** 53, 1 / 3, np.inf, -np.inf, -1e300, np.nan])
    back = edge[::-1].copy()

    def text(header, texts, floats):
        return "".join(cli._csv_chunks(header, texts, floats))

    expected = [f"{k},{x:.12e},{y:.12e}" for k, (x, y) in enumerate(zip(edge, back))]
    order = np.arange(len(edge))
    assert text("k,x,y", [(cli._int_texts(len(edge)), order)], [edge, back]) == \
        "\n".join(["k,x,y", *expected, ""])

    # intensity rows: mu3 per point and theta per grid value formatted once, gathered
    mu3s = np.array([*edge, *np.linspace(0.0, 4.0, 3)])
    int_a, int_b = np.tile(edge, (len(mu3s), 1)), np.tile(back, (len(mu3s), 1))
    i_sum_ref = int_a + int_b - int_a[:, :1]
    assert np.any(i_sum_ref < 0) and np.isnan(i_sum_ref).any() and np.isinf(i_sum_ref).any()
    old = ["%.12e,%.12e,%.12e,%.12e,%.12e" % row for row in zip(
        *(c.ravel().tolist() for c in (np.repeat(mu3s, len(edge)), np.tile(edge, len(mu3s)),
                                       int_a, int_b, i_sum_ref)))]
    points, grid = np.arange(len(mu3s)), np.arange(len(edge))
    assert text("h", [(cli._e12(mu3s), np.repeat(points, len(edge))),
                      (cli._e12(edge), np.tile(grid, len(mu3s)))],
                [int_a.ravel(), int_b.ravel(), i_sum_ref.ravel()]) == "\n".join(["h", *old, ""])

    # spectrum rows: point-major, the axis value per point and the level index per level
    curves = np.empty((3, 5), dtype=complex)          # 3 levels at 5 points
    curves.real, curves.imag = edge.reshape(3, 5), back.reshape(3, 5)
    values = edge[3:8]
    levels, z = len(curves), curves.T.ravel()
    old = ["%.12e,%d,%.12e,%.12e" % row for row in zip(
        *(c.tolist() for c in (np.repeat(values, levels), np.arange(len(z)) % levels,
                               z.real, z.imag)))]
    assert text("h", [(cli._e12(values), np.repeat(np.arange(5), levels)),
                      (cli._int_texts(levels), np.tile(np.arange(levels), 5))],
                [z.real, z.imag]) == "\n".join(["h", *old, ""])


def _e12_cases(rng, k):
    """Doubles for the %.12e kernel, k random ones of each kind, and its hard cases."""
    decades = rng.uniform(1.0, 10.0, 2 * k) * 10.0 ** np.concatenate(
        [rng.integers(-320, 308, k), rng.integers(-10, 35, k)])   # all, and the fast path's
    powers = np.array([float(f"1e{e}") for e in range(-320, 309)])
    near_ties = np.array([float(f"9.9999999999995e{e}") for e in range(-320, 309)]
                         + [float(f"{m}5e{e}") for m, e in zip(
                             rng.integers(10 ** 12, 10 ** 13, k // 4).tolist(),
                             rng.integers(-22, 23, k // 4).tolist())])
    binary_ties = 2.0 ** -np.arange(20, 61)
    # scaled values 1 ulp either side of the tie guard, at every fast-path exponent
    e = rng.integers(-10, 35, k // 4)
    mantissa = rng.integers(10 ** 12, 10 ** 13 - 1, len(e)) + 0.5
    index = e - cli._EXPONENTS[0]
    guard = np.concatenate([(mantissa + side * cli._TIE_GUARD) * cli._SCALE_DIV[index]
                            / cli._SCALE_MUL[index] for side in (-1, 1)])
    special = np.array([0.0, np.nan, np.inf, 5e-324, 2.2250738585072014e-308,
                        1.7976931348623157e308])
    x = np.concatenate([decades, powers, near_ties, binary_ties, guard, special])
    with np.errstate(over="ignore"):     # the largest double's neighbour is inf
        x = np.concatenate([x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf),
                            np.nextafter(np.nextafter(x, np.inf), np.inf)])
    bits = rng.integers(0, 2 ** 63, k, dtype=np.int64).view(np.float64)  # any exponent, nan
    x = np.concatenate([x, bits])
    return np.concatenate([x, -x])


def _assert_e12_matches_percent(x):
    got = "".join(cli._csv_chunks("x", [], [x])).split("\n")[1:-1]
    want = list(map("%.12e".__mod__, x.tolist()))
    wrong = [(v, g, w) for v, g, w in zip(x.tolist(), got, want) if g != w]
    assert len(got) == len(want) and not wrong, wrong[:5]


def test_e12_matches_percent_format():
    x = _e12_cases(np.random.default_rng(25), 8_000)
    assert len(x) >= 100_000
    _assert_e12_matches_percent(x)


@pytest.mark.slow
def test_e12_matches_percent_format_on_a_million_values():
    x = _e12_cases(np.random.default_rng(2025), 70_000)
    assert len(x) >= 1_000_000
    _assert_e12_matches_percent(x)


def test_e12_fast_path_takes_only_values_it_formats_exactly(monkeypatch):
    # the fast path's byte-identity rests on exact powers of ten and the tie guard
    assert [int(p) for p in cli._POW10] == [10 ** k for k in range(23)]
    formatted = []
    monkeypatch.setattr(cli, "_E12", lambda v: formatted.append(v) or "%.12e" % v)
    fast = [1e-10, -1.5e-10, 2e34, -9.8e34, 3.0, 123.456, 0.0, -0.0]
    slow = [9.9e-11, -1.234e-11, 2e35, -1e300, 5e-324, 2.0 ** -20, 9.5367431640625e-07,
            float("9.9999999999995e5"), np.nan, np.inf, -np.inf]
    x = np.array(fast + slow)
    assert cli._e12(x).tobytes().translate(None, b"\0").decode() == \
        "".join(map("%.12e".__mod__, x.tolist()))
    assert np.array_equal(formatted, slow, equal_nan=True)


def test_e3_adjoint_identity(capsys):
    code, out, _ = run(["e3-adjoint"], capsys)
    assert code == 0
    table = json.loads(out)["table"]
    assert table["columns"]["Pp"]["Pp"] == pytest.approx(1.0)
    assert table["columns"]["Pp"].get("Pz", 0.0) == pytest.approx(0.0)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

SUBCOMMAND_FLAGS = {
    "transform": ["--symmetry", "--lam", *(f"--mu{i}" for i in range(1, 9)), "--mu9-target",
                  "--three-param"],
    "spectrum": ["--symmetry", *(f"--mu{i}" for i in range(1, 10)), "--family", "--sector",
                 "--truncation", "--sweep", "--levels", "--workers", "--plot-script"],
    "ep": ["--symmetry", *(f"--mu{i}" for i in range(1, 10)), "--family", "--sector",
           "--truncation", "--sweep", "--levels", "--workers", "--plot-script", "--ep-tol",
           "--im-tol"],
    "intensity": ["--mu3", "--mu4", "--mu7", "--sweep", "--near-energy", "--sector",
                  "--truncation", "--grid", "--plot-script"],
    "mathieu": ["--q", "--class", "--count", "--trunc"],
    "e3-adjoint": ["--lambda-z", "--lambda-plus", "--lambda-minus", "--kappa-z",
                   "--kappa-plus", "--kappa-minus"],
}


def _help(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert (exc.value.code, captured.err) == (0, "")
    return captured.out


def test_top_level_help_lists_every_subcommand(capsys):
    out = _help(["--help"], capsys)
    assert out.startswith("usage: euclidpt [-h] {" + ",".join(SUBCOMMAND_FLAGS) + "} ...")
    listed = " ".join(out.split())            # help lines rewrap with the terminal width
    for name, (help_text, _, _) in cli._SUBCOMMANDS.items():
        assert f" {name} {help_text} " in listed


@pytest.mark.parametrize("name", list(SUBCOMMAND_FLAGS))
def test_subcommand_help_lists_its_flags(name, capsys):
    out = _help([name, "--help"], capsys)
    assert out.startswith(f"usage: euclidpt {name} [-h] ")
    usage = out.split("\n\n")[0]
    assert re.findall(r"--[a-z0-9][a-z0-9-]*", usage) == [*SUBCOMMAND_FLAGS[name], "--config",
                                                          "--out"]


def test_unknown_subcommand_is_one_line(capsys):
    code, out, err = run(["bogus", "--sweep", "mu3:0:1:3"], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("configuration error: argument command: invalid choice: 'bogus'")
    assert err.count("\n") == 1 and all(name in err for name in SUBCOMMAND_FLAGS)


def test_a_run_builds_only_its_subcommands_flags(monkeypatch, capsys):
    built = []
    for name, (help_text, flags, command) in list(cli._SUBCOMMANDS.items()):
        def recorded(parser, name=name, flags=flags):
            built.append(name)
            flags(parser)
        monkeypatch.setitem(cli._SUBCOMMANDS, name, (help_text, recorded, command))
    code, _, err = run(["ep", "--sweep", "mu3:0:1:1"], capsys)
    assert (code, err) == (1, "configuration error: --sweep STEPS must be at least 2, got 1\n")
    assert built == ["ep"]
    _help(["--help"], capsys)
    assert built == ["ep"]


def test_config_file_gives_the_flags_bytes(tmp_path, capsys):
    flags = ["--family", "pt5-three", "--mu4", "1", "--mu7", "4", "--sweep", "mu3:-1:1:5",
             "--levels", "3"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "pt5-three", "mu4": 1, "mu7": 4,
                               "sweep": "mu3:-1:1:5", "levels": 3}))
    code, out, err = run(["spectrum", *flags], capsys)
    assert (code, err) == (0, "") and len(out.splitlines()) == 16
    assert run(["spectrum", "--config", str(cfg)], capsys) == (code, out, err)


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


@pytest.mark.parametrize("argv, config", [
    (["spectrum"], {"sweep": 5}),
    (["intensity"], {"grid": 2.5}),
    (["spectrum", "--sweep", "mu3:0:1:3"], {"truncation": None}),
    (["spectrum", "--sweep", "mu3:0:1:3"], {"levels": 2.5}),
    (["mathieu"], {"q": "1", "cls": "even-pi", "count": 2.5}),
    (["intensity"], {"plot_script": 1}),
], ids=["sweep-int", "grid-float", "truncation-null", "levels-float", "count-float",
        "switch-int"])
def test_config_values_checked_like_flags(tmp_path, capsys, argv, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run(argv + ["--config", str(cfg)], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("configuration error: ") and err.count("\n") == 1


def test_config_switch_true_is_the_bare_flag(tmp_path, capsys):
    cfg, out = tmp_path / "cfg.json", tmp_path / "int.csv"
    cfg.write_text(json.dumps({"plot_script": True, "truncation": 12, "grid": 4}))
    code, _, _ = run(["intensity", "--mu3", "0.8", "--out", str(out), "--config", str(cfg)],
                     capsys)
    assert code == 0 and len(out.read_text().splitlines()) == 5
    assert (tmp_path / "int.csv.plot.py").exists()


def test_config_equals_form_loads_the_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"count": 3}))
    base = ["mathieu", "--q", "0,0", "--class", "even-pi"]
    spaced = run(base + ["--config", str(cfg)], capsys)
    joined = run(base + [f"--config={cfg}"], capsys)
    assert joined == spaced and spaced[0] == 0 and len(spaced[1].splitlines()) == 4


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


SQUARE_OVERFLOW = ["spectrum", "--family", "pt5-three", "--mu3", "1e200", "--sweep", "mu4:0:1:3",
                   "--truncation", "8", "--levels", "3"]


@pytest.mark.parametrize("args, flags", [
    (["spectrum", "--sweep", "mu10:0:1:3"], ("--sweep",)),
    (["spectrum", "--sweep", "mu3:0:1:1"], ("--sweep STEPS",)),
    (["spectrum", "--truncation", "2", "--sweep", "mu3:0:1:3"], ("--truncation",)),
    (["spectrum", "--sector", "3", "--sweep", "mu3:0:1:3"], ("--sector",)),
    (["spectrum", "--mu3", "nan", "--sweep", "mu4:0:1:3"], ("--mu3",)),
    (["spectrum", "--family", "pt5-three", "--sweep", "mu1:0:1:3"], ("--family", "--sweep")),
    (["mathieu", "--q", "1", "--class", "even-pi", "--count", "80"], ("--count",)),
    (["mathieu", "--q", "1", "--class", "even-pi", "--count", "0"], ("--count",)),
    (["mathieu", "--q", "1", "--class", "even-pi", "--count", "-2"], ("--count",)),
    (["mathieu", "--q", "1,2,3", "--class", "even-pi"], ("--q",)),
    (["mathieu", "--q", "1,inf", "--class", "even-pi"], ("--q",)),
    (["spectrum", "--levels", "500", "--truncation", "8", "--sweep", "mu3:0:1:3"], ("--levels",)),
    (EP_SMALL + ["--ep-tol", "0"], ("--ep-tol",)),
    (EP_SMALL + ["--ep-tol", "nan"], ("--ep-tol",)),
    (EP_SMALL + ["--im-tol", "-1"], ("--im-tol",)),
    (["intensity", "--grid", "0", "--truncation", "8"], ("--grid",)),
    (["intensity", "--mu3", "0.8", "--truncation", "4"], ("--truncation",)),
    (["intensity", "--sweep", "mu3:0:4:0", "--truncation", "8"], ("--sweep",)),
    (["intensity", "--sweep", "mu3:0:4:-3", "--truncation", "8"], ("--sweep",)),
    (["intensity", "--near-energy", "nan", "--truncation", "8"], ("--near-energy",)),
    (["intensity", "--near-energy", "inf", "--truncation", "8"], ("--near-energy",)),
    (["e3-adjoint", "--lambda-z", "nan"], ("--lambda-z",)),
    (["spectrum", "--workers", "0", "--sweep", "mu3:0:1:3"], ("--workers",)),
    (EP_SMALL + ["--workers", "-3"], ("--workers",)),
    (["spectrum", "--sweep", "mu3:0:inf:5"], ("--sweep",)),
    (["mathieu", "--q", "1", "--class", "even-pi", "--trunc", "3"], ("--trunc",)),
    (["spectrum", "--sweep", "mu3:-4:4:5", "--truncation", "4"], ("--levels", "--truncation 4")),
    (["spectrum", "--levels", "0", "--sweep", "mu3:0:1:3"], ("--levels",)),
    (EP_SMALL[:-2] + ["--levels", "0"], ("--levels",)),
    (["ep", "--sweep", "mu3:-4:4:1"], ("--sweep STEPS",)),
    # finite couplings whose Hill square overflows: named by their coefficients
    (["intensity", "--mu3", "1e200"], ("completed square overflows", "vJ=-2e+200j")),
    (["intensity", "--mu4", "1e160"], ("completed square overflows", "uJ=(-2e+160+0j)")),
    (["intensity", "--sweep", "mu3:0:1e200:3"], ("completed square overflows", "vJ=-1e+200j")),
    (SQUARE_OVERFLOW, ("completed square overflows", "vJ=-2e+200j")),
    (["ep", *SQUARE_OVERFLOW[1:]], ("completed square overflows", "vJ=-2e+200j")),
], ids=["axis", "steps", "truncation", "sector", "nan", "family-axis",
        "mathieu-count", "mathieu-count-zero", "mathieu-count-negative", "mathieu-q-parts",
        "mathieu-q-inf", "levels", "ep-tol-zero", "ep-tol-nan", "im-tol-negative",
        "grid", "intensity-trusted", "intensity-steps-zero", "intensity-steps-negative",
        "near-energy-nan", "near-energy-inf", "e3-lambda-nan", "workers-zero",
        "ep-workers-negative", "sweep-inf", "mathieu-trunc", "levels-default-at-truncation-4",
        "levels-zero", "ep-levels-zero", "ep-steps", "square-mu3", "square-mu4",
        "square-mu3-sweep", "square-spectrum", "square-ep"])
def test_bad_value_one_line_exit_1(args, flags, capsys):
    # flags: what the message must name, the flags at fault
    code, _, err = run(args, capsys)
    assert code == 1
    assert len(err.splitlines()) == 1
    assert err.startswith("configuration error: ")
    assert "Traceback" not in err
    assert all(flag in err for flag in flags)


# sizes whose arrays (576 TB for the circle matrix, 1.6 PB for a Mathieu
# chain) exceed a 48-bit address space, so numpy refuses them at once
@pytest.mark.parametrize("args, flag", [
    (["intensity", "--mu3", "0.8", "--truncation", "3000000"], "--truncation"),
    (["spectrum", "--family", "pt5-three", "--sweep", "mu3:0:1:3", "--truncation", "3000000"],
     "--truncation"),
    (["mathieu", "--q", "0,1", "--class", "even-pi", "--trunc", "100000000000000"], "--trunc")],
    ids=["intensity", "spectrum", "mathieu"])
def test_too_large_a_truncation_one_line_exit_1(args, flag, capsys):
    code, out, err = run(args, capsys)
    assert code == 1 and out == ""
    assert err == f"configuration error: out of memory; {flag} is too large\n"


def test_too_large_a_grid_one_line_exit_1(monkeypatch, capsys):
    # 8 PB of theta values: refused at once, before any solve
    monkeypatch.setattr(spectral, "intensity_sweep", lambda *args: pytest.fail("solved"))
    code, out, err = run(["intensity", "--mu3", "0.8", "--grid", "1000000000000000"], capsys)
    assert (code, out) == (1, "")
    assert err == "configuration error: out of memory; --grid is too large\n"


# |mu3| is the exponent of the chain vectors' gauge, from which `normalized` sizes its grid;
# from about 355 on |psi|^2 overflows (it printed nan), from about 710 the gauge itself
@pytest.mark.parametrize("args, flag, rho", [(["--mu3", "-1000"], "--mu3", "1000.0"),
                                             (["--mu3", "400"], "--mu3", "400.0"),
                                             (["--sweep", "mu3:0:2000:3"], "--sweep", "1000.0")])
def test_gauge_overflow_one_line_exit_1(args, flag, rho, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(["intensity", *args, "--truncation", "8", "--grid", "16"], capsys)
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert err == (f"configuration error: {flag}: |psi|^2 overflows floating point: its gauge "
                   f"reaches exp({rho})\n")


def test_gauge_overflow_refused_before_the_grid_is_allocated():
    # at |mu3| = 1e8 the grid would have 5e8 points: a separate process whose address
    # space is capped at 1 GiB, so that a grid allocated first fails the test
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = str(Path(euclidpt.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-m", "euclidpt.cli", "intensity", "--mu3", "1e8",
                           "--truncation", "8", "--grid", "16"], capture_output=True, text=True,
                          timeout=120, preexec_fn=cap,
                          env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"})
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == ("configuration error: --mu3: |psi|^2 overflows floating point: its "
                           "gauge reaches exp(100000000.0)\n")


@pytest.mark.parametrize("q", ["1", "-6", "25"])
def test_real_q_trunc_is_an_upper_bound(q, capsys):
    # real q certifies on a short chain, so a --trunc too large to allocate is never built
    args = ["mathieu", "--q", q, "--class", "even-pi"]
    code, out, err = run(args + ["--trunc", "100000000000000"], capsys)
    assert (code, err) == (0, "")
    assert run(args, capsys) == (code, out, err)


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


PT45_REST = ["--mu2", "0.3", "--mu4", "0.5", "--mu5", "0.8", "--mu6", "0.4", "--mu7", "-0.5",
             "--mu8", "0.7"]


@pytest.mark.parametrize("args, flag", [
    (["--symmetry", "PT1", "--mu1", "1e308", "--mu3", "1e308"], "mu3"),
    (["--symmetry", "PT5", "--mu1", "1", "--mu5", "1", "--mu6", "1", "--mu2", "inf"], "mu2"),
    (["--symmetry", "PT1", "--lam", "1000"], "lam"),
    (["--symmetry", "PT5", "--three-param", "--mu3", "1e200", "--mu4", "1"], "mu3"),
    (["--symmetry", "PT5", "--three-param", "--mu3", "1", "--mu4", "nan"], "mu4"),
    # coth arguments so large that lam rounds to 0, where coth(lam) = 1/tanh(lam) divides
    (["--symmetry", "PT5", "--mu1", "1e300", *PT45_REST], "mu1=1e+300"),
    (["--symmetry", "PT4", "--mu1", "1e155", *PT45_REST], "mu1=1e+155"),
    (["--symmetry", "PT5", "--mu5", "1e-300", *PT45_REST[:4], *PT45_REST[6:]], "mu5=1e-300"),
    (["--symmetry", "PT5", "--three-param", "--mu3", "1e-300", "--mu4", "0.5", "--mu7", "0"],
     "mu3=1e-300"),
    # numpy overflows inside the algebra, before the finiteness check
    (["--symmetry", "PT1", "--mu1", "1e-300", "--lam", "0.3", "--mu3", "0.2", "--mu4", "0.1"],
     "mu1=1e-300"),
    (["--symmetry", "PT3", "--mu1", "1", "--mu2", "0.1", "--mu3", "0.2", "--mu4", "0.9",
      "--mu5", "0.3", "--mu6", "2", "--mu7", "1.7e308", "--mu8", "0.1"], "mu7=1.7e+308"),
], ids=["pt1-overflow", "pt5-inf", "lam-overflow", "three-param-overflow", "three-param-nan",
        "pt5-lam-zero", "pt4-lam-zero", "pt5-small-mu5", "three-param-lam-zero",
        "pt1-warnings", "pt3-warnings"])
def test_transform_bad_value_one_line_exit_1(args, flag, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(["transform", *args], capsys)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("configuration error: ")
    assert flag in err


@pytest.mark.parametrize("args", [
    ["--mu1", "1", "--mu7", "1e300", "--truncation", "8"],
    ["--mu1", "1", "--mu7", "1e300"],   # overflows the working truncation's |q^2| scan
    ["--mu1", "1e307"],
], ids=["chain-products", "q2-scan", "diagonal"])
def test_spectrum_overflow_one_line_exit_1(args, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(["spectrum", *args, "--sweep", "s:0:1:2", "--levels", "2"], capsys)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("configuration error: ") and "overflows" in err


@pytest.mark.parametrize("command", [["spectrum", "--family", "pt5-three"],
                                     ["ep", "--family", "pt5-three"], ["intensity"]],
                         ids=["spectrum", "ep", "intensity"])
def test_sweep_span_overflow_one_line_exit_1(command, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run([*command, "--sweep", "mu3:1e308:-1e308:3"], capsys)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("configuration error: ") and "--sweep" in err


@pytest.mark.parametrize("args, steps", [
    (["--family", "pt5-three", "--mu3", "0.5", "--mu7", "0", "--sweep", "mu4:-3:3:200"], 200),
    (["--sweep", "mu7:0:1:11"], 11),
], ids=["real-family", "raw-mu7"])
def test_fermionic_spectrum_sweep_exit_0(args, steps, capsys):
    code, out, err = run(["spectrum", *args, "--sector", "1"], capsys)
    assert code == 0 and err == ""
    assert len(out.splitlines()) == 1 + 12 * steps


def test_tracking_ambiguity_exit_3(monkeypatch, capsys):
    monkeypatch.setattr(spectral, "MAX_HALVINGS", 0)
    code, out, err = run(["spectrum", "--family", "pt5-three", "--mu4", "1", "--mu7", "4",
                          "--sweep", "mu3:-4:4:3"], capsys)
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("numerical failure: level matching jump")


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
