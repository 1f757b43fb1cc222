"""Command-line front door.

Usage:  cdw-lab <config-path> [--output <path>] [--seed <int>]
                [--set key=value ...]

The config is line-based ``key = value`` text with ``#`` comments.  Keys
live in one flat dotted namespace; unknown keys are hard errors.  The
``model.*``, ``drive.*`` and ``current.*`` keys are the fields of
PhysicalParams, FieldDriveParams and tunneling.CurrentParams, with their
types and defaults; every other key and default is listed in ``_KEYS``.
``--set`` entries replace config entries before either is converted;
``--output`` and ``--seed`` are applied as the last ``--set`` entries.
Each run writes exactly one CSV artifact, atomically, to the configured
output path; a ``single-chain`` trajectory cut short by overflow also
prints one ``warning: overflow:`` line to stderr, and one with recorded
levels whose mean phase or norm is not finite prints one
``warning: non-finite:`` line; an ``iv-curve`` with field points whose
current could not be evaluated (a missing cell) prints one
``warning: non-finite:`` line; a ``variational-sweep`` with points whose
minimization did not converge prints one ``warning: not converged:``
line.  An output path that cannot be written (a missing directory, or a
directory itself) is a config error, ``error: config: cannot write
output: <path>: <reason>``, and leaves no file behind.  Exit status: 0
success, 1 domain error or overflow, 2 config error.
"""

import argparse
import math
import sys
from dataclasses import fields

import numpy as np

from . import evolver, sinegordon, tunneling
from .curves import write_csv
from .errors import CdwError, ConfigError
from .model import FieldDriveParams, PhysicalParams

# key prefix -> the parameter dataclass whose fields are its keys
_PARAMS = {"model": PhysicalParams, "drive": FieldDriveParams,
           "current": tunneling.CurrentParams}

# integer keys size arrays, and numpy indexes no array past this
_INT_MAX = np.iinfo(np.intp).max

# key -> (type tag, default); experiment is required, the other None
# defaults are derived at run time
_KEYS = {
    "experiment": ("choice", None),
    "output": ("str", None),
    "seed": ("int", 0),
    **{prefix + "." + f.name: (f.type.__name__, f.default)
       for prefix, cls in _PARAMS.items() for f in fields(cls)},

    "variational.theta_min": ("float", -4.0 * math.pi),
    "variational.theta_max": ("float", 4.0 * math.pi),
    "variational.theta_points": ("int", 81),

    "evolver.scheme": ("choice", "df-standard"),
    "evolver.n": ("int", 501),
    "evolver.dx": ("float", 0.05),
    "evolver.x0": ("float", None),
    "evolver.x_c": ("float", 0.0),
    "evolver.alpha0": ("float", 1.0),
    "evolver.dt": ("float", 0.005),
    "evolver.steps": ("int", 2000),

    "chain.sites": ("int", 400),
    "chain.omega0_sq": ("float", 900.0),
    "chain.omega1_sq": ("float", 1.0),
    "chain.beta": ("float", 0.5),
    "chain.sign": ("int", 1),
    "chain.center": ("float", None),
    "chain.dt": ("float", 0.004),
    "chain.steps": ("int", 2500),
    "chain.stride": ("int", 50),

    "fourier.L": ("float", 1.0),
    "fourier.b_L": ("float", 1.0e4),
    "fourier.n_modes": ("int", 10),
    "fourier.box_factor": ("float", 16.0),

    "iv.points": ("int", 1000),
    "iv.E_max_factor": ("float", 5.0),
}


def _convert(key, raw, line=None):
    kind = _KEYS[key][0]
    try:
        if kind == "float":
            return float(raw)
        if kind == "int":
            v = float(raw)
            if v != int(v):
                raise ValueError
            if abs(v) > _INT_MAX:
                raise ConfigError("%r for key '%s' exceeds the largest array "
                                  "size %d" % (raw, key, _INT_MAX), line=line)
            return int(v)
        if kind == "choice":
            if raw not in _CHOICES[key]:
                raise ConfigError(
                    "unknown %s %r (choices: %s)"
                    % (key, raw, ", ".join(_CHOICES[key])), line=line)
            return raw
        return raw
    except (ValueError, TypeError, OverflowError):
        raise ConfigError("cannot parse %r as %s for key '%s'"
                          % (raw, kind, key), line=line) from None


def _entry(body, line):
    key, _, value = body.partition("=")
    key = key.strip()
    if key not in _KEYS:
        raise ConfigError("unknown key '%s'" % key, line=line)
    return key, value.strip()


def parse_config(data, sets=()):
    """Parse config bytes into the map of every ``_KEYS`` key to its
    typed value, defaults applied (``output`` is ``<experiment>.csv``).

    Each ``key=value`` string in sets (the ``--set`` entries) replaces
    the config's raw entry for that key, later entries winning, before
    the one conversion pass.
    """
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as err:
        raise ConfigError("config is not valid UTF-8: %s" % err) from None
    raw_entries = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError("expected 'key = value'", line=lineno)
        key, value = _entry(body, lineno)
        if key in raw_entries:
            raise ConfigError("duplicate key '%s'" % key, line=lineno)
        raw_entries[key] = (value, lineno)
    for item in sets:
        if "=" not in item:
            raise ConfigError("--set needs key=value, got %r" % item)
        key, value = _entry(item, None)
        raw_entries[key] = (value, None)
    o = {key: _convert(key, *raw_entries[key]) if key in raw_entries
         else default for key, (_, default) in _KEYS.items()}
    if o["experiment"] is None:
        raise ConfigError("missing required key 'experiment'")
    if o["output"] is None:
        o["output"] = o["experiment"] + ".csv"
    return o


def _params(o, prefix):
    cls = _PARAMS[prefix]
    return cls(**{f.name: o[prefix + "." + f.name] for f in fields(cls)})


def _run_single_chain(o):
    for key in ("evolver.x0", "evolver.x_c"):
        if o[key] is not None and not math.isfinite(o[key]):
            raise ConfigError("%s must be finite" % key)
    init = evolver.gaussian_packet(
        o["evolver.n"], o["evolver.dx"], x0=o["evolver.x0"],
        x_c=o["evolver.x_c"], alpha0=o["evolver.alpha0"])
    traj = evolver.evolve(
        o["evolver.scheme"], init, _params(o, "model"), _params(o, "drive"),
        o["evolver.dt"], o["evolver.steps"])
    if traj.truncated:
        print("warning: overflow: trajectory truncated after %d of %d steps"
              % (len(traj) - 1, o["evolver.steps"]), file=sys.stderr)
    bad = np.count_nonzero(~(np.isfinite(traj.mean_phase)
                             & np.isfinite(traj.norm)))
    if bad:
        print("warning: non-finite: %d of %d recorded levels have a "
              "non-finite mean phase or norm" % (bad, len(traj)),
              file=sys.stderr)
    return evolver.trajectory_table(traj)


def _run_pendulum_kink(o):
    m = o["chain.sites"]
    w0 = o["chain.omega0_sq"]
    w1 = o["chain.omega1_sq"]
    if not (0 < w0 < math.inf and 0 < w1 < math.inf):
        raise ConfigError("pendulum-kink needs positive, finite omega0_sq "
                          "and omega1_sq for the continuum mapping")
    center = o["chain.center"]
    if center is None:
        center = 0.6 * m
    elif not math.isfinite(center):
        raise ConfigError("chain.center must be finite")
    state = sinegordon.kink_chain(m, w0, w1, center, sinegordon.KinkSpec(
        beta=o["chain.beta"], sign=o["chain.sign"]))
    snaps = sinegordon.integrate_chain_rk4(
        state, o["chain.dt"], o["chain.steps"], stride=o["chain.stride"])
    return sinegordon.chain_trajectory_table(
        snaps, o["chain.dt"] * o["chain.stride"])


def _run_variational_sweep(o):
    npts = o["variational.theta_points"]
    if npts < 1:
        raise ConfigError("variational.theta_points must be >= 1")
    for key in ("variational.theta_min", "variational.theta_max"):
        if not math.isfinite(o[key]):
            raise ConfigError("%s must be finite" % key)
    from . import variational  # no other experiment needs it
    # an overflowing span gives inf and nan points, which sweep_theta rejects
    with np.errstate(over="ignore", invalid="ignore"):
        grid = np.linspace(o["variational.theta_min"],
                           o["variational.theta_max"], npts)
    result = variational.sweep_theta(_params(o, "model"), grid)
    missed = sum(not r.converged for r in result.rows)
    if missed:
        print("warning: not converged: %d of %d sweep points"
              % (missed, npts), file=sys.stderr)
    return result.to_table()


def _run_iv_curve(o):
    cp = _params(o, "current")
    n = o["iv.points"]
    if n < 1:
        raise ConfigError("iv.points must be >= 1")
    top = o["iv.E_max_factor"] * cp.E_T * cp.c_v
    with np.errstate(over="ignore"):  # iv_curve rejects an overflowed grid
        grid = top * np.arange(1, n + 1) / n
    table = tunneling.iv_curve(grid, cp)
    bad = np.count_nonzero(np.isnan(table.rows).any(axis=1))
    if bad:
        print("warning: non-finite: %d of %d field points have a current "
              "that could not be evaluated" % (bad, n), file=sys.stderr)
    return table


def _run_fourier_check(o):
    return tunneling.fourier_check_table(
        o["fourier.L"], o["fourier.b_L"], o["fourier.n_modes"],
        o["fourier.box_factor"])


_RUNNERS = {
    "single-chain": _run_single_chain,
    "pendulum-kink": _run_pendulum_kink,
    "variational-sweep": _run_variational_sweep,
    "iv-curve": _run_iv_curve,
    "fourier-check": _run_fourier_check,
}
EXPERIMENTS = tuple(_RUNNERS)
# "choice" key -> the values it accepts
_CHOICES = {"experiment": EXPERIMENTS, "evolver.scheme": tuple(evolver._PLANS)}


def run(o):
    """Execute the configured experiment and write its CSV artifact."""
    table = _RUNNERS[o["experiment"]](o)
    try:
        write_csv(table, o["output"])
    except OSError as err:
        # the target and the reason only: a temp file's name is random
        raise ConfigError("cannot write output: %s: %s" % (
            o["output"], err.strerror or err)) from None


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="cdw-lab",
        description="CDW soliton transport experiments; writes one CSV "
                    "artifact per run.")
    parser.add_argument("config", help="path to a key = value config file")
    parser.add_argument("--output", help="the last --set output=OUTPUT")
    parser.add_argument("--seed", help="the last --set seed=SEED")
    parser.add_argument("--set", action="append", default=[],
                        metavar="KEY=VALUE", dest="sets",
                        help="override a config entry (repeatable)")
    args = parser.parse_args(argv)
    try:
        try:
            with open(args.config, "rb") as handle:
                data = handle.read()
        except OSError as err:
            raise ConfigError("cannot read config: %s" % err) from None
        last = [key + "=" + value for key, value in
                (("output", args.output), ("seed", args.seed))
                if value is not None]
        run(parse_config(data, args.sets + last))
    except ConfigError as err:
        print(err.oneline(), file=sys.stderr)
        return 2
    except CdwError as err:
        print(err.oneline(), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
