"""Command-line front end: transform, spectrum, ep, intensity, mathieu, e3-adjoint.

Exit codes: 0 success, 1 configuration error, 2 Dyson map undefined
(broken-PT parameter region), 3 numerical failure.  CSV output uses %.12e and
JSON output Python's round-trip float repr; equal configurations give equal bytes.

Every CSV goes through one writer, `_csv_chunks`, in chunks of rows.  Its float
columns are formatted by `_e12` in numpy, byte for byte as '%.12e' % v: a
value whose 13-digit mantissa one exact power of ten and rint give provably
is written from digit tables, and every other value (nan, inf, subnormals,
three-digit exponents, near-ties) by '%.12e' itself.  A value that repeats
down a column is formatted once and gathered by index.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

import numpy as np

from . import chains, dyson, e3, mathieu, spectral
from .errors import (ConvergenceFailure, DegenerateCouplings, MapUndefined,
                     TrackingAmbiguity)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_MAP_UNDEFINED = 2
EXIT_NUMERICAL = 3


# The %.12e kernel.  A finite |x| with decimal exponent e in [-10, 34] is
# scaled to s = |x| * 10^(12 - e) by one exact power 10^k, |k| <= 22, so s is
# the exact product rounded once, at most 2^-10 (half an ulp below 1e13) away.
# Where s also lies in [1e12, 1e13) and more than _TIE_GUARD from a
# half-integer, rint(s) is the correctly rounded 13-digit mantissa that
# '%.12e' prints.  Every other value (nan, inf, subnormals, three-digit
# exponents, near-ties) goes through '%.12e' itself; +-0.0 is vectorized.
# The text is five 4-byte words looked up in tables: _HEAD [sign or NUL, lead
# digit, '.', digit], indexed by 100 * negative + the two digits; _QUAD [4
# digits] twice; _TRIPLE_E [3 digits, 'e']; _EXP [exponent sign, 2 digits,
# NUL], indexed by e + 10.
_E12_WIDTH = 20                 # '-1.000000000000e+300', the widest %.12e text
_EXPONENTS = np.arange(-10, 35)
_POW10 = np.concatenate([[1.0], np.cumprod(np.full(22, 10.0))])   # 10^0..10^22, exact
_SCALE_MUL = _POW10[np.clip(12 - _EXPONENTS, 0, None)]            # 10^(12-e) for e <= 12
_SCALE_DIV = _POW10[np.clip(_EXPONENTS - 12, 0, None)]            # 10^(e-12) for e > 12
_TIE_GUARD = 4e-3


def _words(*columns):
    """Four byte columns as one uint32 column whose memory holds those bytes in order."""
    return np.stack(columns, axis=1).astype(np.uint8).view(np.uint32).ravel()


def _digits(values, width):
    """The ASCII digit columns of `width`-digit integers, most significant first."""
    return [values // 10 ** p % 10 + ord("0") for p in range(width - 1, -1, -1)]


_LEAD, _NEXT = _digits(np.arange(200) % 100, 2)
_HEAD = _words(np.arange(200) // 100 * ord("-"), _LEAD, np.full(200, ord(".")), _NEXT)
_QUAD = _words(*_digits(np.arange(10000), 4))
_TRIPLE_E = _words(*_digits(np.arange(1000), 3), np.full(1000, ord("e")))
_EXP = _words(np.where(_EXPONENTS < 0, ord("-"), ord("+")), *_digits(abs(_EXPONENTS), 2),
              np.zeros(len(_EXPONENTS)))
_E12 = "%.12e".__mod__
_CHUNK_ROWS = 4096              # rows formatted per CSV chunk, bounding its arrays


def _e12(x):
    """'%.12e' % v of each float v of x, as a NUL-padded (len(x), 20) uint8 array."""
    x = np.asarray(x, dtype=float)
    a = np.abs(x)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):   # 0, nan, inf
        e = np.floor(np.log10(a))                      # -inf at 0, nan at nan
        in_range = (e >= _EXPONENTS[0]) & (e <= _EXPONENTS[-1])
        i = np.where(in_range, e, 0.0).astype(np.intp) - _EXPONENTS[0]   # e = 0 out of range
        s = a * np.take(_SCALE_MUL, i) / np.take(_SCALE_DIV, i)
        m = np.rint(s)
        fast = in_range & (s >= 1e12) & (m < 1e13) & (np.abs(s - m) < 0.5 - _TIE_GUARD)
    fast |= a == 0.0                                    # e = 0 and m = 0 there
    m = np.where(fast, m, 0.0).astype(np.int64)
    head = m // 10 ** 11                                # lead digit and the next one
    rest = m - head * 10 ** 11
    quad1 = rest // 10 ** 7
    rest -= quad1 * 10 ** 7
    quad2 = rest // 1000
    out = np.stack([np.take(_HEAD, head + 100 * np.signbit(x)), np.take(_QUAD, quad1),
                    np.take(_QUAD, quad2), np.take(_TRIPLE_E, rest - quad2 * 1000),
                    np.take(_EXP, i)], axis=1).view(np.uint8)
    slow = np.flatnonzero(~fast)
    if slow.size:
        texts = np.array(list(map(_E12, x[slow].tolist())), dtype=f"S{_E12_WIDTH}")
        out[slow] = texts.view(np.uint8).reshape(-1, _E12_WIDTH)
    return out


def _int_texts(n):
    """The decimal text of 0..n-1 as a NUL-padded (n, 20) uint8 array."""
    return np.arange(n).astype(f"S{_E12_WIDTH}").view(np.uint8).reshape(n, _E12_WIDTH)


def _csv_chunks(header, texts, floats):
    """Yield the CSV text in chunks: the header line, then one line per row.

    Each row holds the `texts` columns, then the `floats` columns as %.12e.
    A text column is a pair (table, index): a NUL-padded (k, 20) uint8 array
    such as `_e12` returns and each row's index into it, so a value repeated
    down a column is formatted once.  A chunk's fields and separators are laid
    out as NUL-padded rows, and the NULs are stripped once per chunk.
    """
    yield header + "\n"
    ncols, nrows = len(texts) + len(floats), len(floats[0])
    for lo in range(0, nrows, _CHUNK_ROWS):
        rows = slice(lo, min(lo + _CHUNK_ROWS, nrows))
        block = np.empty((rows.stop - lo, ncols, _E12_WIDTH + 1), np.uint8)
        block[:, :, -1] = ord(",")
        block[:, -1, -1] = ord("\n")
        for k, (table, index) in enumerate(texts):
            block[:, k, :-1] = table[index[rows]]
        values = np.stack([column[rows] for column in floats], axis=1)
        block[:, len(texts):, :-1] = _e12(values.ravel()).reshape(*values.shape, -1)
        yield block.tobytes().translate(None, b"\0").decode("ascii")


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports bad flags as configuration errors.

    An argument that starts with '-' and a digit, such as -5e-1 or -2,0.5,
    is a value: argparse's own pattern knows only plain decimals and takes
    anything else that starts with '-' for a flag.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        raise ConfigError(message)


def _check_out(path):
    """Before any solve: --out must be '-' or a file in a directory that exists."""
    if path != "-" and (os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or ".")):
        raise ConfigError(f"--out {path!r} is not a file in a directory that exists")


def _write(path, texts, flag="--out"):
    """Write the strings `texts` in order to `path`, the value of `flag`, or stdout for '-'."""
    try:
        if path == "-":
            sys.stdout.writelines(texts)
        else:
            with open(path, "w") as fh:
                fh.writelines(texts)
    except OSError as exc:
        raise ConfigError(f"cannot write {flag} {path!r}: {exc.strerror}") from None


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
    _write(script, ["\n".join(lines)], "--plot-script")


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
    parser.add_argument("--truncation", type=int, default=spectral.DEFAULT_TRUNCATION,
                        help="sweeps solve at the smallest certified truncation <= this")
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
    if not math.isfinite(hi - lo):   # also when LO or HI is not finite
        raise ConfigError(f"bad --sweep value {text!r}: LO, HI and HI - LO must be finite")
    return axis, lo, hi, steps


def _check_finite(args, *flags):
    """Reject a value of any of `flags` that is not finite; an unset flag (None) passes."""
    for flag in flags:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{flag} must be finite, got {value}")


def _check_sector(sector, axis):
    """--sector as the solves see it: an `s` sweep sets the sector from its axis instead."""
    if not math.isfinite(sector) or (axis != "s" and not 0.0 <= sector < 2.0):
        raise ConfigError(f"--sector must lie in [0, 2), got {sector}")


def _mu_vector(args):
    mu = [1.0] + [0.0] * 8
    for i in range(1, 10):
        value = getattr(args, f"mu{i}", None)
        if value is not None:
            mu[i - 1] = value
    return tuple(mu)


def _run_sweep(args):
    axis, lo, hi, steps = _parse_sweep(args.sweep)
    if axis not in spectral.SWEEP_AXES:
        raise ConfigError(f"--sweep AXIS must be one of {', '.join(spectral.SWEEP_AXES)}, "
                          f"got {axis!r}")
    if args.family == "pt5-three" and axis not in spectral.PT5_THREE_AXES:
        raise ConfigError(f"--family pt5-three sweeps {', '.join(spectral.PT5_THREE_AXES)} "
                          f"only, got --sweep axis {axis!r}")
    _check_finite(args, *(f"--mu{i}" for i in range(1, 10)))
    _check_sector(args.sector, axis)
    if steps < 2:
        raise ConfigError(f"--sweep STEPS must be at least 2, got {steps}")
    if args.workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {args.workers}")
    if args.truncation < spectral.MIN_TRUNCATION:
        raise ConfigError(f"--truncation must be at least {spectral.MIN_TRUNCATION}, "
                          f"got {args.truncation}")
    dim = 2 * args.truncation + 1
    if not 1 <= args.levels <= dim:
        raise ConfigError(f"--levels must lie in 1..{dim} (2*--truncation+1 levels at "
                          f"--truncation {args.truncation}), got {args.levels}")
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
    _write(args.out, [json.dumps(report, indent=2, sort_keys=True) + "\n"])
    return EXIT_OK


def _cmd_spectrum(args):
    result = _run_sweep(args)
    (levels, points), z = result.curves.shape, result.curves.T.ravel()
    _write(args.out, _csv_chunks("axis_value,level_index,re_E,im_E",
                                 [(_e12(result.values), np.repeat(np.arange(points), levels)),
                                  (_int_texts(levels), np.tile(np.arange(levels), points))],
                                 [z.real, z.imag]))
    if args.plot_script and args.out not in (None, "-"):
        _emit_plot_script(args.out, ["axis_value", "re_E"], "spectrum")
    return EXIT_OK


def _cmd_ep(args):
    chains.check_ep_tolerances("--ep-tol", args.ep_tol, args.im_tol, "--im-tol")
    result = _run_sweep(args)
    points = spectral.find_exceptional_points(result, tol=args.ep_tol,
                                              im_tol=args.im_tol)
    report = {"command": "ep", "config": _config_echo(args),
              "exceptional_points": [p.as_dict() for p in points]}
    _write(args.out, [json.dumps(report, indent=2, sort_keys=True) + "\n"])
    return EXIT_OK


def _cmd_intensity(args):
    if args.grid < 1:
        raise ConfigError(f"--grid must be at least 1, got {args.grid}")
    _check_finite(args, "--near-energy", "--mu4", "--mu7")
    _check_sector(args.sector, "mu3")
    sweep_spec = getattr(args, "sweep", None)
    if sweep_spec:
        axis, lo, hi, steps = _parse_sweep(sweep_spec)
        if axis != "mu3":
            raise ConfigError(f"intensity --sweep supports axis mu3 only, got {axis!r}")
        if steps < 1:
            raise ConfigError(f"--sweep needs at least one step, got {steps}")
        mu3s = np.linspace(lo, hi, steps)
    else:
        _check_finite(args, "--mu3")
        mu3s = [args.mu3 if args.mu3 is not None else 1.0]
    template = spectral.SweepTemplate(family="pt5-three", mu=(1.0, 0.0, 0.0, args.mu4, 0.0, 0.0,
                                                              args.mu7, 0.0, 0.0),
                                      sector=args.sector, truncation=args.truncation,
                                      track_levels=2)
    if (trusted := spectral.trusted_count(args.truncation)) < 2:
        raise ConfigError(f"--truncation {args.truncation} leaves {trusted} trusted level; "
                          "intensity needs two")
    try:
        theta = np.linspace(0.0, 2.0 * math.pi, args.grid, endpoint=False)
    except MemoryError:
        raise ConfigError("out of memory; --grid is too large") from None
    result = spectral.intensity_sweep(template, "mu3", mu3s, args.near_energy, theta)
    i_even = np.array([point.i_even for point in result.points])   # (points, grid)
    i_odd = np.array([point.i_odd for point in result.points])
    points = np.arange(len(i_even))
    _write(args.out, _csv_chunks("mu3,theta,i_even,i_odd,i_sum_ref",
                                 [(_e12(result.values), np.repeat(points, args.grid)),
                                  (_e12(theta), np.tile(np.arange(args.grid), len(points)))],
                                 [i_even.ravel(), i_odd.ravel(),
                                  (i_even + i_odd - i_even[:, :1]).ravel()]))
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
    order = np.arange(len(values))
    _write(args.out, _csv_chunks("order,re_a,im_a", [(_int_texts(len(values)), order)],
                                 [values.real, values.imag]))
    return EXIT_OK


def _cmd_e3_adjoint(args):
    _check_finite(args, *_E3_FLAGS)
    params = e3.DysonParamsE3(lambda_z=args.lambda_z, lambda_plus=args.lambda_plus,
                              lambda_minus=args.lambda_minus, kappa_z=args.kappa_z,
                              kappa_plus=args.kappa_plus, kappa_minus=args.kappa_minus)
    table = e3.e3_adjoint(params)
    report = {"command": "e3-adjoint", "config": _config_echo(args),
              "table": json.loads(table.to_json())}
    _write(args.out, [json.dumps(report, indent=2, sort_keys=True) + "\n"])
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

def _transform_flags(p):
    p.add_argument("--symmetry", required=True,
                   choices=["PT1", "PT2", "PT3", "PT4", "PT5"])
    p.add_argument("--lam", type=float, default=None, help="Dyson exponent (PT1/PT2)")
    _add_mu_flags(p, upto=8)
    p.add_argument("--mu9-target", type=float, default=None,
                   help="PT3 mu9 when the coth equation is 0/0 (exit 1 otherwise)")
    p.add_argument("--three-param", action="store_true",
                   help="PT5 three-parameter family: report alpha/beta/gamma")


def _ep_flags(p):
    _add_sweep_flags(p)
    p.add_argument("--ep-tol", type=float, default=1e-6)
    p.add_argument("--im-tol", type=float, default=1e-6)


def _intensity_flags(p):
    p.add_argument("--mu3", type=float, default=None)
    p.add_argument("--mu4", type=float, default=1.0)
    p.add_argument("--mu7", type=float, default=4.0)
    p.add_argument("--sweep", default=None, metavar="mu3:LO:HI:STEPS")
    p.add_argument("--near-energy", type=float, default=3.0,
                   help="pair selector when the spectrum is entirely real")
    p.add_argument("--sector", type=float, default=0.0)
    p.add_argument("--truncation", type=int, default=spectral.DEFAULT_TRUNCATION,
                   help="sweeps solve at the smallest certified truncation <= this")
    p.add_argument("--grid", type=int, default=360)
    p.add_argument("--plot-script", action="store_true")


def _mathieu_flags(p):
    p.add_argument("--q", required=True, metavar="RE[,IM]")
    p.add_argument("--class", dest="cls", required=True,
                   help="even-pi | odd-pi | even-2pi | odd-2pi")
    p.add_argument("--count", type=int, default=8)
    p.add_argument("--trunc", type=int, default=60,
                   help="modes per chain, at most: real q is solved on a shorter chain "
                        "where its residual bound certifies it, else at --trunc; complex q "
                        "at --trunc and twice --trunc, certified by doubling")


_E3_FLAGS = ("--lambda-z", "--lambda-plus", "--lambda-minus",
             "--kappa-z", "--kappa-plus", "--kappa-minus")


def _e3_adjoint_flags(p):
    for flag in _E3_FLAGS:
        p.add_argument(flag, type=float, default=0.0)


_SUBCOMMANDS = {   # name: (help, flags, command)
    "transform": ("hermitize a PT-invariant family", _transform_flags, _cmd_transform),
    "spectrum": ("level curves along a parameter sweep (CSV)", _add_sweep_flags, _cmd_spectrum),
    "ep": ("locate exceptional points along a sweep (JSON)", _ep_flags, _cmd_ep),
    "intensity": ("pair intensities of the three-parameter PT5 family (CSV)",
                  _intensity_flags, _cmd_intensity),
    "mathieu": ("Mathieu characteristic values (CSV)", _mathieu_flags, _cmd_mathieu),
    "e3-adjoint": ("closed-form E3 adjoint table (JSON)", _e3_adjoint_flags, _cmd_e3_adjoint),
}


class _Subcommand(_Parser):
    """A subcommand's parser, whose flags are added when it first parses.

    So a run builds the flags of the subcommand it invokes only; the
    top-level parser and its help need each subcommand's name and help alone.
    """

    def __init__(self, *args, flags, **kwargs):
        super().__init__(*args, **kwargs)
        self._flags = flags

    def actions(self):
        """The subcommand's actions, its flags added on first use."""
        if self._flags is not None:
            flags, self._flags = self._flags, None
            flags(self)
            _add_common(self)
        return self._actions

    def parse_known_args(self, args=None, namespace=None):
        self.actions()
        return super().parse_known_args(args, namespace)


def _build_parser():
    parser = _Parser(prog="euclidpt",
                     description="PT-symmetric Euclidean-algebra Hamiltonian toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Subcommand)
    for name, (help_text, flags, command) in _SUBCOMMANDS.items():
        sub.add_parser(name, help=help_text, flags=flags).set_defaults(func=command)
    return parser


def _apply_config_file(parser, argv):
    """Put the --config JSON's values after the subcommand, as --flag=value arguments.

    argparse then converts and checks each one as it does the flag, and a flag
    given on the command line comes later and overrides it.  A switch such as
    --plot-script takes true (the bare flag) or false (nothing).
    """
    probe = _Parser(add_help=False)
    probe.add_argument("--config")        # as the subcommand parses it: --config PATH or =PATH
    path = probe.parse_known_args(argv)[0].config
    if path is None:
        return argv
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
    actions = {a.dest: a for a in sub_actions.choices[argv[0]].actions()}
    unknown = set(data) - set(actions)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    flags = []
    for key, value in data.items():
        flag = actions[key].option_strings[-1]
        if actions[key].nargs != 0:
            flags.append(f"{flag}={value}")
        elif not isinstance(value, bool):
            raise ConfigError(f"config key {key!r} must be true or false, got {value!r}")
        elif value:
            flags.append(flag)
    return argv[:1] + flags + argv[1:]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        argv = _apply_config_file(parser, argv)
        args = parser.parse_args(argv)
        _check_out(args.out)
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError:
        flag = "--trunc" if argv[:1] == ["mathieu"] else "--truncation"
        print(f"configuration error: out of memory; {flag} is too large", file=sys.stderr)
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
