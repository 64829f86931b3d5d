"""Every subcommand with each numeric flag, in turn, at a float extreme.

Whatever the value, a run ends in a defined exit code with at most one line
on stderr, prints no nan or inf when it succeeds, and raises no Python
warning; a refused integer flag is named in that line.  The base commands run
at small truncations, so all cases take a few seconds.  A Python traceback
fails the test.
"""

import contextlib
import io
import re
import warnings

import pytest

from euclidpt import cli

VALUES = ("0", "-0", "1e-300", "-1e-300", "5e-324", "1e300", "-1e300", "1e155", "1.7e308",
          "nan", "inf", "-inf", "1e-8", "1e8", "99999999999999999999", "-5")
INTEGER_FLAGS = ("--truncation", "--levels", "--workers", "--grid", "--count", "--trunc")

_SWEEP = ("--truncation", "--levels", "--workers", "--sector",
          *(f"--mu{i}" for i in range(1, 10)))
_THREE = ("--mu3", "--mu4", "--mu7", "--sector", "--truncation", "--levels")
_TRANSFORM = ("--lam", *(f"--mu{i}" for i in range(1, 9)), "--mu9-target")
_INTENSITY = ("--mu3", "--mu4", "--mu7", "--near-energy", "--sector", "--truncation", "--grid")

# couplings each hermitization solves (exit 0), so that every flag's extremes reach the solver
_HERMITIZED = {
    "PT1": "--lam 0.3 --mu1 1 --mu3 0.2 --mu4 0.1",
    "PT2": "--lam 0.3 --mu1 1 --mu3 0.2 --mu4 0.1",
    "PT3": "--mu1 1 --mu2 0.1 --mu3 0.2 --mu4 0.9 --mu5 0.3 --mu6 2 --mu7 0.2 --mu8 0.1",
    "PT4": "--mu1 1 --mu2 0.3 --mu4 0.5 --mu5 0.8 --mu6 0.4 --mu7 -0.5 --mu8 0.7",
    "PT5": "--mu1 1 --mu2 0.3 --mu4 0.5 --mu5 0.8 --mu6 0.4 --mu7 -0.5 --mu8 0.7",
}

# name: (base command, its numeric flags, the axis of its --sweep or None)
BASES = {
    **{f"transform-{sym}": (["transform", "--symmetry", sym, *couplings.split()], _TRANSFORM, None)
       for sym, couplings in _HERMITIZED.items()},
    "three-param": (["transform", "--symmetry", "PT5", "--three-param", "--mu3", "1", "--mu4",
                     "0.5", "--mu7", "0"], ("--mu3", "--mu4", "--mu7"), None),
    "spectrum-raw": (["spectrum", "--mu7", "0.5", "--sweep", "mu7:0:1:3", "--truncation", "4",
                      "--levels", "2"], _SWEEP, "mu7"),
    "spectrum-s": (["spectrum", "--mu7", "0.5", "--sweep", "s:0:1:3", "--truncation", "4",
                    "--levels", "2"], ("--sector", "--mu1", "--mu7"), "s"),
    "spectrum-three": (["spectrum", "--family", "pt5-three", "--mu3", "0.5", "--sweep",
                        "mu4:-1:1:3", "--truncation", "8", "--levels", "3"], _THREE, "mu4"),
    "ep-catalogue": (["ep", "--family", "pt5-three", "--mu4", "1", "--mu7", "4", "--sweep",
                      "mu3:0:2:3", "--truncation", "8", "--levels", "4"],
                     (*_THREE, "--ep-tol", "--im-tol"), "mu3"),
    "ep-bisected": (["ep", "--mu3", "0.3", "--mu7", "0.5", "--sweep", "mu4:0:1.5:3",
                     "--truncation", "4", "--levels", "2", "--ep-tol", "1e-3"],
                    ("--mu3", "--mu4", "--mu7", "--ep-tol", "--im-tol"), "mu4"),
    "intensity-point": (["intensity", "--mu3", "0.8", "--truncation", "8", "--grid", "16"],
                        _INTENSITY, None),
    "intensity-sweep": (["intensity", "--sweep", "mu3:0:2:3", "--truncation", "8", "--grid",
                         "8"], _INTENSITY, "mu3"),
    "mathieu": (["mathieu", "--q", "1", "--class", "even-pi", "--count", "2", "--trunc", "12"],
                ("--count", "--trunc"), None),
    "e3-adjoint": (["e3-adjoint"], cli._E3_FLAGS, None),
}

BOUNDS = (("0", "1e-300"), ("-1e-300", "1"), ("5e-324", "1e-8"), ("-1e300", "1e300"),
          ("1e155", "1e155"), ("0", "1.7e308"), ("-1.7e308", "1.7e308"), ("nan", "1"),
          ("0", "inf"), ("-inf", "0"), ("-1e8", "1e8"))
STEPS = ("0", "1", "-1")
Q = (*VALUES, "0,1e300", "1e-300,1e-300", "1e155,1e155", "0,nan", "inf,0", "1,inf", "0,-1e8",
     "-1e300,1", "5e-324,5e-324")


def _with(argv, flag, value):
    """argv with `flag` set to `value`, replacing the flag's value if argv holds one."""
    argv = list(argv)
    if flag in argv:
        del argv[argv.index(flag):argv.index(flag) + 2]
    return argv + [f"{flag}={value}"]


def _cases(base, flags, axis):
    """(argv, the flag it sets) of every case; the flag is None for --sweep and --q."""
    for flag in flags:
        for value in VALUES:
            yield _with(base, flag, value), flag
    if axis is not None:
        steps = base[base.index("--sweep") + 1].split(":")[-1]
        for lo, hi in BOUNDS:
            yield _with(base, "--sweep", f"{axis}:{lo}:{hi}:{steps}"), None
        for count in STEPS:
            yield _with(base, "--sweep", f"{axis}:0:1:{count}"), None
    if base[0] == "mathieu":
        for q in Q:
            yield _with(base, "--q", q), None


_NOT_FINITE = re.compile(r"(?i)\b(nan|inf|infinity)\b")


@pytest.mark.parametrize("name", BASES)
def test_every_numeric_flag_at_the_float_extremes(name):
    failures = []
    for argv, flag in _cases(*BASES[name]):
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = cli.main(argv)
        problems = [f"exit {code}"] if code not in (0, 1, 2, 3) else []
        if len(err.getvalue().splitlines()) > 1:
            problems.append(f"stderr {err.getvalue()!r}")
        if code == 0 and _NOT_FINITE.search(out.getvalue()):
            problems.append("nan or inf printed")
        if code == 1 and flag in INTEGER_FLAGS and flag not in err.getvalue():
            problems.append(f"stderr {err.getvalue()!r} does not name {flag}")
        problems += [f"warning {w.category.__name__}: {w.message}" for w in caught]
        if problems:
            failures.append(f"{' '.join(argv)}: {'; '.join(problems)}")
    assert failures == []
