"""Command-line front end: transform, spectrum, ep, intensity, mathieu, e3-adjoint.

Exit codes: 0 success, 1 configuration error, 2 Dyson map undefined
(broken-PT parameter region), 3 numerical failure.  CSV output uses %.12e and
JSON output Python's round-trip float repr; equal configurations give equal bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import dyson, e3, mathieu, spectral
from .errors import (ConvergenceFailure, DegenerateCouplings, MapUndefined,
                     TrackingAmbiguity)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_MAP_UNDEFINED = 2
EXIT_NUMERICAL = 3


def _csv_lines(template, *columns):
    """`template % row` per row of the arrays; Python numbers format like numpy scalars."""
    return [template % row for row in zip(*(c.tolist() for c in columns))]


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports bad flags as configuration errors."""

    def error(self, message):
        raise ConfigError(message)


def _write(path, text):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _emit_plot_script(out_path, columns, kind):
    """Write a small matplotlib script next to the CSV it refers to."""
    script = out_path + ".plot.py"
    lines = [
        "import csv",
        "import matplotlib.pyplot as plt",
        "",
        f"rows = list(csv.DictReader(open({out_path!r})))",
    ]
    if kind == "spectrum":
        lines += [
            "levels = sorted({int(r['level_index']) for r in rows})",
            "for lv in levels:",
            "    pts = [(float(r['axis_value']), float(r['re_E'])) for r in rows",
            "           if int(r['level_index']) == lv]",
            "    plt.plot(*zip(*pts), lw=1)",
            f"plt.xlabel({columns[0]!r}); plt.ylabel('Re E')",
        ]
    else:
        lines += [
            f"xs = [float(r[{columns[0]!r}]) for r in rows]",
            f"for col in {columns[1:]!r}:",
            "    plt.plot(xs, [float(r[col]) for r in rows], label=col, lw=1)",
            f"plt.xlabel({columns[0]!r}); plt.legend()",
        ]
    lines += ["plt.tight_layout()", "plt.show()", ""]
    with open(script, "w") as fh:
        fh.write("\n".join(lines))


# ---------------------------------------------------------------------------
# flag definitions
# ---------------------------------------------------------------------------

def _add_mu_flags(parser, upto=9):
    for i in range(1, upto + 1):
        parser.add_argument(f"--mu{i}", type=float, default=None)


def _add_common(parser):
    parser.add_argument("--config", help="JSON file with flag defaults; flags override")
    parser.add_argument("--out", default="-", help="output path, '-' for stdout")


def _add_sweep_flags(parser):
    parser.add_argument("--symmetry", default="PT5",
                        choices=["PT1", "PT2", "PT3", "PT4", "PT5"])
    _add_mu_flags(parser)
    parser.add_argument("--family", default="raw", choices=["raw", "pt5-three"])
    parser.add_argument("--sector", type=float, default=0.0)
    parser.add_argument("--truncation", type=int, default=spectral.DEFAULT_TRUNCATION)
    parser.add_argument("--sweep", required=True, metavar="AXIS:LO:HI:STEPS")
    parser.add_argument("--levels", type=int, default=12, help="levels to track")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--plot-script", action="store_true")


def _parse_sweep(text):
    parts = text.split(":")
    if len(parts) != 4:
        raise ConfigError(f"--sweep expects AXIS:LO:HI:STEPS, got {text!r}")
    axis = parts[0]
    try:
        lo, hi, steps = float(parts[1]), float(parts[2]), int(parts[3])
    except ValueError as exc:
        raise ConfigError(f"bad --sweep value {text!r}: {exc}") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"bad --sweep value {text!r}: LO and HI must be finite")
    return axis, lo, hi, steps


def _mu_vector(args):
    mu = [1.0] + [0.0] * 8
    for i in range(1, 10):
        value = getattr(args, f"mu{i}", None)
        if value is not None:
            mu[i - 1] = value
    return tuple(mu)


def _run_sweep(args):
    axis, lo, hi, steps = _parse_sweep(args.sweep)
    if args.workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {args.workers}")
    template = spectral.SweepTemplate(symmetry=args.symmetry, mu=_mu_vector(args),
                                      family=args.family, sector=args.sector,
                                      truncation=args.truncation, track_levels=args.levels)
    return spectral.sweep(template, axis, lo, hi, steps, workers=args.workers)


def _config_echo(args):
    return {key: value for key, value in sorted(vars(args).items())
            if key not in ("config", "out", "func")}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_transform(args):
    if args.three_param:
        if args.symmetry != "PT5":
            raise ConfigError("--three-param applies to the PT5 family")
        free = {"mu3": args.mu3 if args.mu3 is not None else 1.0,
                "mu4": args.mu4 if args.mu4 is not None else 0.0,
                "mu7": args.mu7 if args.mu7 is not None else 0.0}
        result = dyson.reduce_pt5_three_param(**free)
    else:
        free = {}
        for name in dyson.free_parameter_names(args.symmetry):
            value = getattr(args, name, None)
            if value is not None:
                free[name] = value
        if args.symmetry == "PT3" and args.mu9_target is not None:
            free["mu9_target"] = args.mu9_target
        result = dyson.hermitize(args.symmetry, **free).as_dict()
    report = {"command": "transform", "config": _config_echo(args),
              "free": free, "result": result}
    if result.get("input_hermitian"):
        report["notice"] = ("constraints leave the input Hamiltonian already "
                            "Hermitian; the transform is spectrum- and "
                            "form-preserving here")
    _write(args.out, json.dumps(report, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def _cmd_spectrum(args):
    result = _run_sweep(args)
    levels, z = len(result.curves), result.curves.T.ravel()   # point-major rows
    lines = ["axis_value,level_index,re_E,im_E"] + _csv_lines(
        "%.12e,%d,%.12e,%.12e", np.repeat(result.values, levels),
        np.arange(len(z)) % levels, z.real, z.imag)
    out = "\n".join(lines) + "\n"
    _write(args.out, out)
    if args.plot_script and args.out not in (None, "-"):
        _emit_plot_script(args.out, ["axis_value", "re_E"], "spectrum")
    return EXIT_OK


def _cmd_ep(args):
    spectral.check_ep_tolerances("--ep-tol", args.ep_tol, args.im_tol, "--im-tol")
    result = _run_sweep(args)
    points = spectral.find_exceptional_points(result, tol=args.ep_tol,
                                              im_tol=args.im_tol)
    report = {"command": "ep", "config": _config_echo(args),
              "exceptional_points": [p.as_dict() for p in points]}
    _write(args.out, json.dumps(report, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def _select_pair(spectrum, near_energy):
    w = spectrum.eigenvalues[:spectrum.trusted_count]
    cplx = np.where(np.abs(w.imag) > 1e-6)[0]
    if len(cplx) >= 2:
        return int(cplx[0]), int(cplx[1])
    order = np.argsort(np.abs(w.real - near_energy))
    return int(order[0]), int(order[1])


def _cmd_intensity(args):
    if args.grid < 1:
        raise ConfigError(f"--grid must be at least 1, got {args.grid}")
    if not math.isfinite(args.near_energy):
        raise ConfigError(f"--near-energy must be finite, got {args.near_energy}")
    theta = np.linspace(0.0, 2.0 * math.pi, args.grid, endpoint=False)
    mu3s = [args.mu3 if args.mu3 is not None else 1.0]
    sweep_spec = getattr(args, "sweep", None)
    if sweep_spec:
        axis, lo, hi, steps = _parse_sweep(sweep_spec)
        if axis != "mu3":
            raise ConfigError("intensity sweeps support axis mu3 only")
        if steps < 1:
            raise ConfigError(f"--sweep needs at least one step, got {steps}")
        mu3s = list(np.linspace(lo, hi, steps))
    lines = ["mu3,theta,i_even,i_odd,i_sum_ref"]
    for m3 in mu3s:
        element = dyson.pt5_three_param_hamiltonian(m3, args.mu4, args.mu7)
        problem = spectral.SpectralProblem(element, sector=args.sector,
                                           truncation=args.truncation)
        spec = spectral.eigen_spectrum(problem)
        if spec.trusted_count < 2:
            raise ConfigError(f"--truncation {args.truncation} leaves {spec.trusted_count} "
                              "trusted level; intensity needs two")
        i, j = _select_pair(spec, args.near_energy)
        wf_a, wf_b = spectral.wavefunction(problem, (i, j))
        int_a = spectral.intensity(wf_a, theta)
        int_b = spectral.intensity(wf_b, theta)
        lines += _csv_lines("%.12e,%.12e,%.12e,%.12e,%.12e", np.full(len(theta), m3),
                            theta, int_a, int_b, int_a + int_b - int_a[0])
    out = "\n".join(lines) + "\n"
    _write(args.out, out)
    if args.plot_script and args.out not in (None, "-"):
        _emit_plot_script(args.out, ["theta", "i_even", "i_odd", "i_sum_ref"],
                          "intensity")
    return EXIT_OK


def _cmd_mathieu(args):
    try:
        parts = [float(p) for p in args.q.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad --q value {args.q!r}: {exc}") from None
    if len(parts) > 2 or not all(map(math.isfinite, parts)):
        raise ConfigError(f"bad --q value {args.q!r}: expected finite RE or RE,IM")
    q = complex(parts[0], parts[1] if len(parts) > 1 else 0.0)
    if not np.isfinite(2.0 * q * q):
        raise ConfigError(f"bad --q value {args.q!r}: the recurrence chain overflows")
    cls = mathieu.CLASSES.get(args.cls)
    if cls is None:
        raise ConfigError(f"--class must be one of {sorted(mathieu.CLASSES)}")
    if args.count <= 0:
        raise ConfigError(f"--count must be positive, got {args.count}")
    if args.trunc < args.count + 8:
        raise ConfigError(f"--trunc must be at least --count + 8, got --trunc {args.trunc} "
                          f"with --count {args.count}")
    values = mathieu.characteristic_values(q, cls, args.count, args.trunc)
    lines = ["order,re_a,im_a"] + _csv_lines("%d,%.12e,%.12e", np.arange(len(values)),
                                             values.real, values.imag)
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_e3_adjoint(args):
    params = e3.DysonParamsE3(lambda_z=args.lambda_z, lambda_plus=args.lambda_plus,
                              lambda_minus=args.lambda_minus, kappa_z=args.kappa_z,
                              kappa_plus=args.kappa_plus, kappa_minus=args.kappa_minus)
    table = e3.e3_adjoint(params)
    report = {"command": "e3-adjoint", "config": _config_echo(args),
              "table": json.loads(table.to_json())}
    _write(args.out, json.dumps(report, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

def _build_parser():
    parser = _Parser(prog="euclidpt",
                     description="PT-symmetric Euclidean-algebra Hamiltonian toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", parents=[], help="hermitize a PT-invariant family")
    p.add_argument("--symmetry", required=True,
                   choices=["PT1", "PT2", "PT3", "PT4", "PT5"])
    p.add_argument("--lam", type=float, default=None, help="Dyson exponent (PT1/PT2)")
    _add_mu_flags(p, upto=8)
    p.add_argument("--mu9-target", type=float, default=None,
                   help="PT3 degenerate-branch target for the mu9 constraint")
    p.add_argument("--three-param", action="store_true",
                   help="PT5 three-parameter family: report alpha/beta/gamma")
    _add_common(p)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("spectrum", help="level curves along a parameter sweep (CSV)")
    _add_sweep_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("ep", help="locate exceptional points along a sweep (JSON)")
    _add_sweep_flags(p)
    p.add_argument("--ep-tol", type=float, default=1e-6)
    p.add_argument("--im-tol", type=float, default=1e-6)
    _add_common(p)
    p.set_defaults(func=_cmd_ep)

    p = sub.add_parser("intensity",
                       help="pair intensities of the three-parameter PT5 family (CSV)")
    p.add_argument("--mu3", type=float, default=None)
    p.add_argument("--mu4", type=float, default=1.0)
    p.add_argument("--mu7", type=float, default=4.0)
    p.add_argument("--sweep", default=None, metavar="mu3:LO:HI:STEPS")
    p.add_argument("--near-energy", type=float, default=3.0,
                   help="pair selector when the spectrum is entirely real")
    p.add_argument("--sector", type=float, default=0.0)
    p.add_argument("--truncation", type=int, default=spectral.DEFAULT_TRUNCATION)
    p.add_argument("--grid", type=int, default=360)
    p.add_argument("--plot-script", action="store_true")
    _add_common(p)
    p.set_defaults(func=_cmd_intensity)

    p = sub.add_parser("mathieu", help="Mathieu characteristic values (CSV)")
    p.add_argument("--q", required=True, metavar="RE[,IM]")
    p.add_argument("--class", dest="cls", required=True,
                   help="even-pi | odd-pi | even-2pi | odd-2pi")
    p.add_argument("--count", type=int, default=8)
    p.add_argument("--trunc", type=int, default=60)
    _add_common(p)
    p.set_defaults(func=_cmd_mathieu)

    p = sub.add_parser("e3-adjoint", help="closed-form E3 adjoint table (JSON)")
    for flag in ("lambda-z", "lambda-plus", "lambda-minus",
                 "kappa-z", "kappa-plus", "kappa-minus"):
        p.add_argument(f"--{flag}", type=float, default=0.0)
    _add_common(p)
    p.set_defaults(func=_cmd_e3_adjoint)

    return parser


def _apply_config_file(parser, argv):
    """Load --config JSON as defaults for the chosen subcommand; flags override."""
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        raise ConfigError("--config requires a path")
    path = argv[idx + 1]
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    sub_actions = next(a for a in parser._actions
                       if isinstance(a, argparse._SubParsersAction))
    if not argv or argv[0] not in sub_actions.choices:
        raise ConfigError("config file requires a subcommand")
    sub = sub_actions.choices[argv[0]]
    known = {a.dest for a in sub._actions}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    sub.set_defaults(**data)
    for action in sub._actions:
        if action.dest in data:
            action.required = False
    return argv


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        argv = _apply_config_file(parser, argv)
        args = parser.parse_args(argv)
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MapUndefined as exc:
        print(json.dumps({"error": "MapUndefined", "rhs": exc.rhs}), file=sys.stderr)
        return EXIT_MAP_UNDEFINED
    except DegenerateCouplings as exc:
        print(json.dumps({"error": "DegenerateCouplings", "detail": str(exc)}),
              file=sys.stderr)
        return EXIT_MAP_UNDEFINED
    except (ConvergenceFailure, TrackingAmbiguity) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
