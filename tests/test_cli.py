import errno
import json
import math
import os
import subprocess
import sys
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdwlab import cli, evolver, tunneling, variational
from cdwlab.curves import format_number
from cdwlab.errors import ConfigError
from cdwlab.model import FieldDriveParams, PhysicalParams
from cdwlab.tunneling import CurrentParams
import csv_digests

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def parse(text):
    return cli.parse_config(text.encode("utf-8"))


def test_parse_defaults_applied():
    o = parse("experiment = iv-curve\n")
    assert o["experiment"] == "iv-curve"
    assert o["output"] == "iv-curve.csv"
    assert o["seed"] == 0
    assert o["model.D1"] == 174.091
    assert o["model.E1"] == 1e-5
    assert o["model.E2"] == 1e-6
    assert o["model.delta_prime"] == 0.005
    assert o["drive.a_D"] == 0.67
    assert o["variational.theta_min"] == pytest.approx(-4 * math.pi)
    # the closed-form sweep has no quadrature grid to configure
    with pytest.raises(ConfigError):
        parse("experiment = iv-curve\nvariational.eta = 20\n")


def _readme_defaults():
    """(key, value) pairs of README's "Selected defaults" table; a row
    such as "evolver.n / dx / dt | 501 / 0.05 / 0.005" names three keys
    under one prefix."""
    with open(README) as handle:
        text = handle.read()
    table = text.split("Selected defaults", 1)[1].split("\n\n")[1]
    pairs = []
    for line in table.splitlines()[2:]:
        keys, values = [cell.strip() for cell in line.strip("|").split("|")]
        keys, values = keys.split(" / "), values.split(" / ")
        assert len(keys) == len(values), line
        prefix = keys[0].rsplit(".", 1)[0] + "."
        pairs += [(k if "." in k else prefix + k, v)
                  for k, v in zip(keys, values)]
    return pairs


def test_readme_defaults_match_code():
    # the README's defaults, read back as config entries, must change
    # nothing: the code stays the one source of truth for defaults
    pairs = _readme_defaults()
    assert len(pairs) == 11
    base = parse("experiment = iv-curve\n")
    for key, value in pairs:
        entry = parse("experiment = iv-curve\n%s = %s\n" % (key, value))
        assert entry == base, (key, value, base[key])


def test_parse_comments_and_blanks():
    cfg = parse(
        "# full-line comment\n"
        "\n"
        "experiment = fourier-check   # trailing comment\n"
        "fourier.n_modes = 4\n"
        "   \n")
    assert cfg["experiment"] == "fourier-check"
    assert cfg["fourier.n_modes"] == 4
    # a comment starts at any '#', so a path holding one needs --set
    assert parse("experiment = iv-curve\noutput = a#b.csv\n")["output"] == "a"
    assert cli.parse_config(b"experiment = iv-curve\n",
                            ["output=a#b.csv"])["output"] == "a#b.csv"


def test_parse_byte_order_mark():
    # editors may save the config with a UTF-8 byte-order mark
    text = b"experiment = fourier-check\nfourier.n_modes = 4\n"
    assert cli.parse_config(b"\xef\xbb\xbf" + text) == cli.parse_config(text)
    with pytest.raises(ConfigError, match="config is not valid UTF-8"):
        cli.parse_config(b"\xef\xbb\xbf\xff" + text)


def test_parse_missing_experiment():
    with pytest.raises(ConfigError) as err:
        parse("model.D = 2.0\n")
    assert "experiment" in str(err.value)


def test_parse_unknown_key_names_line():
    with pytest.raises(ConfigError) as err:
        parse("experiment = iv-curve\nexperment = x\n")
    assert err.value.line == 2
    assert "experment" in str(err.value)
    assert "line 2" in err.value.oneline()


def test_parse_unknown_experiment_lists_choices():
    with pytest.raises(ConfigError) as err:
        parse("experiment = tea-leaves\n")
    assert "tea-leaves" in str(err.value)
    assert "iv-curve" in str(err.value)


def test_parse_malformed_entries():
    with pytest.raises(ConfigError) as err:
        parse("experiment = iv-curve\nmodel.D = abc\n")
    assert err.value.line == 2
    with pytest.raises(ConfigError) as err:
        parse("experiment = iv-curve\njust some words\n")
    assert err.value.line == 2
    with pytest.raises(ConfigError) as err:
        parse("experiment = iv-curve\niv.points = 2.5\n")
    assert err.value.line == 2
    with pytest.raises(ConfigError):
        cli.parse_config(b"\xff\xfe garbage")


def test_parse_duplicate_key():
    with pytest.raises(ConfigError) as err:
        parse("experiment = iv-curve\nmodel.D = 1\nmodel.D = 2\n")
    assert err.value.line == 3
    assert "duplicate" in str(err.value)


def test_parse_conversions():
    cfg = parse("experiment = single-chain\nevolver.steps = 2.0\n")
    assert cfg["evolver.steps"] == 2


def test_parse_config_sets():
    data = b"experiment = iv-curve\niv.points = 50\n"
    cfg = cli.parse_config(data)
    cfg2 = cli.parse_config(data, ["iv.points=75", "current.E_T = 2.0"])
    assert cfg2["iv.points"] == 75
    assert cfg2["current.E_T"] == 2.0
    # untouched entries keep their config or default values exactly
    assert cfg2["model.D1"] == cfg["model.D1"]
    assert cfg2["experiment"] == "iv-curve"
    with pytest.raises(ConfigError):
        cli.parse_config(data, ["nonsense=1"])
    with pytest.raises(ConfigError):
        cli.parse_config(data, ["iv.points"])


_TEXT = st.text(st.characters(min_codepoint=33, max_codepoint=126,
                              blacklist_characters="#"), min_size=1)
_VALUE = {
    "float": st.floats(allow_nan=False).map(repr),
    "int": st.integers(-10 ** 6, 10 ** 6).map(str),
    "str": _TEXT,
}


@st.composite
def _entries(draw):
    keys = draw(st.lists(st.sampled_from(sorted(cli._KEYS)), unique=True))
    return {k: draw(st.sampled_from(cli._CHOICES[k]) if k in cli._CHOICES
                    else _VALUE[cli._KEYS[k][0]]) for k in keys}


@settings(derandomize=True, max_examples=300, deadline=None)
@given(base=st.sampled_from(cli.EXPERIMENTS), entries=_entries())
def test_config_lines_and_sets_agree(base, entries):
    lines = {"experiment": base, **entries}
    text = "".join("%s = %s\n" % kv for kv in lines.items())
    from_lines = cli.parse_config(text.encode("utf-8"))
    sets = ["%s=%s" % kv for kv in entries.items()]
    from_sets = cli.parse_config(b"experiment = %s\n" % base.encode(), sets)
    assert from_sets == from_lines
    assert from_lines["output"] == entries.get(
        "output", lines["experiment"] + ".csv")


def test_csv_digest_runs_are_distinct_and_parse():
    # a key renamed in cli but not in the digest list would turn its
    # run into the same error row in both trees: the diff stays empty
    runs = csv_digests.runs()
    assert len({label for label, _, _ in runs}) == len(runs)
    for label, config, sets in runs:
        if label == "edge-single-chain model.hbar=1":
            with pytest.raises(ConfigError, match="unknown key 'model.hbar'"):
                cli.parse_config(config.encode(), sets)
        else:
            cli.parse_config(config.encode(), sets)


@pytest.mark.parametrize("scheme", ["cn-standard", "df-standard"])
def test_csv_digest_runs_cover_the_evolver_ring_edges(scheme):
    # runs that end one short of, on and one past each of the first two
    # wraps of evolve's ring: level k*rows - 1 fills it, k*rows wraps
    rows = evolver._BLOCK_ROWS
    runs = {tuple(sets) for e, sets in csv_digests.EDGE_CASES
            if e == "single-chain"}
    for k in (1, 2):
        for steps in (k * rows - 1, k * rows, k * rows + 1):
            assert ("evolver.scheme=" + scheme,
                    "evolver.steps=%d" % steps) in runs


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_main_iv_curve_artifact(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "experiment = iv-curve\niv.points = 40\n")
    out = tmp_path / "iv.csv"
    assert cli.main([cfg, "--output", str(out)]) == 0
    assert capsys.readouterr().err == ""
    lines = out.read_text().splitlines()
    assert lines[0] == "E,I_beckwith,I_zener_gated,I_zener_ungated"
    assert len(lines) == 41
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 4
        assert float(fields[1]) > 0.0


_IV_WARNING = ("warning: non-finite: %d of %d field points have a current "
               "that could not be evaluated\n")


def test_main_iv_curve_warns_on_missing_currents(tmp_path, capsys):
    # the cosh form overflows at the top 8 of 10 fields: the CSV keeps
    # the rows with nan cells, and stderr says how many there are
    cfg = write_cfg(tmp_path, "experiment = iv-curve\n")
    out = tmp_path / "iv.csv"
    assert cli.main([cfg, "--output", str(out), "--set", "iv.points=10",
                     "--set", "iv.E_max_factor=1e6"]) == 0
    assert capsys.readouterr().err == _IV_WARNING % (8, 10)
    cells = [line.split(",")[1] for line in out.read_text().splitlines()[1:]]
    assert cells.count("nan") == 8 and len(cells) == 10
    assert cli.main([cfg, "--output", str(out)]) == 0
    assert capsys.readouterr().err == ""


def test_main_fourier_check_artifact(tmp_path):
    cfg = write_cfg(tmp_path, "experiment = fourier-check\n"
                              "fourier.n_modes = 6\n")
    out = tmp_path / "fc.csv"
    assert cli.main([cfg, "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k,numeric,closed_form,rel_deviation"
    assert len(lines) == 7


def test_main_single_chain_artifact(tmp_path):
    cfg = write_cfg(tmp_path,
                    "experiment = single-chain\n"
                    "evolver.n = 31\n"
                    "evolver.steps = 10\n")
    out = tmp_path / "sc.csv"
    assert cli.main([cfg, "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,mean_phase,norm"
    assert len(lines) == 12


@pytest.mark.parametrize("scheme, bad, levels", [
    ("df-printed", 444, 932), ("cn-printed", 169, 357)])
def test_main_warns_of_non_finite_levels(tmp_path, capsys, scheme, bad,
                                         levels):
    # the printed schemes' fields stay finite for a while after their
    # weighted sums overflow; those rows are written and counted
    cfg = write_cfg(tmp_path, "experiment = single-chain\n"
                              "evolver.scheme = %s\n" % scheme)
    out = tmp_path / "sc.csv"
    assert cli.main([cfg, "--output", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == levels
    assert sum(not all(math.isfinite(float(v)) for v in row[1:])
               for row in rows) == bad
    assert capsys.readouterr().err == (
        "warning: overflow: trajectory truncated after %d of 2000 steps\n"
        "warning: non-finite: %d of %d recorded levels have a non-finite "
        "mean phase or norm\n" % (levels - 1, bad, levels))


def test_main_sweep_not_converged_exits_zero(tmp_path, capsys, monkeypatch):
    # one alternation step can never show that the energy stopped
    # changing: every row is written, marked not converged
    monkeypatch.setattr(variational, "_MAX_ALTERNATIONS", 1)
    cfg = write_cfg(tmp_path, "experiment = variational-sweep\n"
                              "variational.theta_points = 2\n")
    out = tmp_path / "vs.csv"
    assert cli.main([cfg, "--output", str(out)]) == 0
    assert capsys.readouterr().err == (
        "warning: not converged: 2 of 2 sweep points\n")
    lines = out.read_text().splitlines()
    assert lines[0].split(",")[3] == "converged"
    assert [line.split(",")[3] for line in lines[1:]] == ["0", "0"]


@pytest.mark.parametrize("sets", [
    ["model.D1=1e-310"], ["model.E1=1e308", "model.E2=1e308"]],
    ids=["D1", "E1-E2"])
def test_main_sweep_overflow_is_one_error_line(tmp_path, capsys, sets):
    # finite constants whose comb moment matrices overflow end the run
    # with one error line, exit 1 and no artifact
    cfg = write_cfg(tmp_path, "experiment = variational-sweep\n"
                              "variational.theta_points = 3\n")
    out = tmp_path / "vs.csv"
    argv = [cfg, "--output", str(out)] + [a for s in sets
                                         for a in ("--set", s)]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == (
        "error: overflow: the comb moment matrices overflow\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


def test_main_exit_two_on_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "experiment = iv-curve\nbogus.key = 1\n")
    assert cli.main([cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:")
    assert "line 2" in err
    assert cli.main([str(tmp_path / "missing.cfg")]) == 2
    assert "error: config:" in capsys.readouterr().err


def test_main_unknown_scheme_names_the_line(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "experiment = single-chain\n"
                              "evolver.scheme = foo\n")
    out = tmp_path / "x.csv"
    assert cli.main([cfg, "--output", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: config: line 2: unknown evolver.scheme 'foo' (choices: "
        "cn-printed, df-printed, cn-standard, df-standard)\n")
    assert not out.exists()


@pytest.mark.parametrize("sets, key", [
    (["variational.theta_max=inf"], "theta_max"),
    (["variational.theta_max=-inf"], "theta_max"),
    (["variational.theta_min=nan"], "theta_min"),
    (["variational.theta_points=1", "variational.theta_min=inf"],
     "theta_min")], ids=["max-inf", "max-neg-inf", "min-nan", "one-point"])
def test_main_non_finite_theta_bound_is_config_error(tmp_path, capsys, sets,
                                                     key):
    cfg = write_cfg(tmp_path, "experiment = variational-sweep\n")
    out = tmp_path / "vs.csv"
    argv = [cfg, "--output", str(out)] + [a for s in sets
                                         for a in ("--set", s)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        "error: config: variational.%s must be finite\n" % key)
    assert not out.exists()


@pytest.mark.parametrize("experiment, key, value", [
    ("pendulum-kink", "chain.center", "inf"),
    ("pendulum-kink", "chain.center", "-inf"),
    ("pendulum-kink", "chain.center", "nan"),
    ("single-chain", "evolver.x_c", "inf"),
    ("single-chain", "evolver.x_c", "nan"),
    ("single-chain", "evolver.x0", "inf"),
    ("single-chain", "evolver.x0", "nan")])
def test_main_non_finite_position_is_config_error(tmp_path, capsys,
                                                  experiment, key, value):
    # a kink or packet centred at infinity would be an all-zero run, and
    # a grid starting there has no finite points
    cfg = write_cfg(tmp_path, "experiment = %s\n" % experiment)
    out = tmp_path / "pos.csv"
    assert cli.main([cfg, "--output", str(out),
                     "--set", "%s=%s" % (key, value)]) == 2
    assert capsys.readouterr().err == (
        "error: config: %s must be finite\n" % key)
    assert not out.exists()


@pytest.mark.parametrize("key", ["fourier.L=1e308", "fourier.box_factor=inf",
                                 "fourier.box_factor=nan"])
def test_main_non_finite_fourier_box_is_domain_error(tmp_path, capsys, key):
    # an infinite box puts every mode at k = 0; a NaN box has no modes
    cfg = write_cfg(tmp_path, "experiment = fourier-check\n")
    out = tmp_path / "fc.csv"
    assert cli.main([cfg, "--output", str(out), "--set", key]) == 1
    assert capsys.readouterr().err == (
        "error: domain: box must be finite and at least 10*L\n")
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-1"])
def test_main_non_positive_fourier_separation_is_domain_error(tmp_path, capsys,
                                                            value):
    cfg = write_cfg(tmp_path, "experiment = fourier-check\n")
    out = tmp_path / "fc.csv"
    assert cli.main([cfg, "--output", str(out),
                     "--set", "fourier.L=" + value]) == 1
    assert capsys.readouterr().err == (
        "error: domain: separation L must be positive\n")
    assert not out.exists()


@pytest.mark.parametrize("key", ["fourier.b_L=inf", "fourier.L=1e-308",
                                 "fourier.b_L=-1"])
def test_main_bad_fourier_steepness_is_domain_error(tmp_path, capsys, key):
    # b = b_L/L is +inf at b_L = inf and overflows to +inf at L = 1e-308
    cfg = write_cfg(tmp_path, "experiment = fourier-check\n")
    out = tmp_path / "fc.csv"
    assert cli.main([cfg, "--output", str(out), "--set", key]) == 1
    assert capsys.readouterr().err == (
        "error: domain: steepness b must be positive and finite\n")
    assert not out.exists()


def test_main_fourier_check_takes_lowest_b_L_at_any_separation(tmp_path,
                                                              capsys):
    # 100/97*97 rounds below 100: the gate compares the configured b_L
    cfg = write_cfg(tmp_path, "experiment = fourier-check\n")
    out = tmp_path / "fc.csv"
    assert cli.main([cfg, "--output", str(out), "--set", "fourier.L=97",
                     "--set", "fourier.b_L=100"]) == 0
    assert capsys.readouterr().err == ""
    assert len(out.read_text().splitlines()) == 11


def test_main_exit_two_on_bad_override(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "experiment = iv-curve\n")
    assert cli.main([cfg, "--set", "iv.points=zero"]) == 2
    assert capsys.readouterr().err.startswith("error: config:")


def test_main_exit_two_on_integer_overflow(tmp_path, capsys):
    # float() accepts these, but an infinite value has no integer
    cfg = write_cfg(tmp_path, "experiment = iv-curve\niv.points = inf\n")
    assert cli.main([cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:")
    assert "line 2" in err
    cfg = write_cfg(tmp_path, "experiment = iv-curve\n")
    assert cli.main([cfg, "--set", "iv.points=1e400"]) == 2
    assert capsys.readouterr().err.startswith("error: config:")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


def test_main_exit_two_on_huge_sizes(tmp_path, capsys):
    # 1e300 is a whole number, but no array can have that many entries
    cfg = write_cfg(tmp_path, "experiment = iv-curve\n")
    out = tmp_path / "x.csv"
    for experiment, key in [("iv-curve", "iv.points"),
                            ("single-chain", "evolver.n"),
                            ("pendulum-kink", "chain.sites"),
                            ("variational-sweep", "variational.theta_points")]:
        argv = [cfg, "--output", str(out), "--set", key + "=1e300",
                "--set", "experiment=" + experiment]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("error: config:")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


@pytest.mark.parametrize("key", [
    "drive.e_star", "drive.E_applied", "drive.E_threshold", "drive.c_v",
    "drive.G_p", "drive.delta_s", "chain.spacing", "fourier.n1",
    "variational.cold_start", "current.gate_zener",
    "model.experimental_regime", "evolver.boundary", "evolver.sweeps",
    "model.hbar"])
def test_main_rejects_removed_keys(tmp_path, capsys, key):
    # keys that no experiment reads are unknown keys
    cfg = write_cfg(tmp_path, "experiment = single-chain\n%s = 1\n" % key)
    out = tmp_path / "x.csv"
    assert cli.main([cfg, "--output", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: config: line 2: unknown key '%s'\n" % key)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


# small runs of each experiment; mu_E > 0 gives the washboard its
# charging term, without which drive.a_D and model.theta act on nothing
_REACH_BASE = {
    "single-chain": ("evolver.n=101", "evolver.steps=50", "model.mu_E=0.012"),
    "pendulum-kink": ("chain.sites=60", "chain.steps=50", "chain.stride=10"),
    "variational-sweep": ("variational.theta_points=3",),
    "iv-curve": ("iv.points=20",),
    "fourier-check": (),
}
# key prefix -> the experiments that read its keys
_REACH_READERS = {
    "model": ("single-chain", "variational-sweep"),
    "drive": ("single-chain",), "evolver": ("single-chain",),
    "chain": ("pendulum-kink",), "variational": ("variational-sweep",),
    "current": ("iv-curve",), "iv": ("iv-curve",),
    "fourier": ("fourier-check",),
}
# off-default values where a float's x1.25 or an int's +1 would keep the
# base value, be invalid, or (chain.steps) add no snapshot at stride 10
_REACH_OFF = {
    "model.theta": "0.5", "evolver.scheme": "cn-standard",
    "evolver.x0": "-2.0", "evolver.x_c": "0.5", "chain.sign": "-1",
    "chain.center": "30", "chain.steps": "60",
}


@pytest.fixture(scope="module")
def reach_run(tmp_path_factory):
    """(exit code, CSV bytes) of one small run; each distinct run once."""
    folder = tmp_path_factory.mktemp("reach")
    cfg = write_cfg(folder, "experiment = iv-curve\n")
    out = folder / "out.csv"
    cache = {}

    def run(experiment, *sets):
        key = (experiment,) + sets
        if key not in cache:
            argv = [cfg, "--output", str(out), "--set",
                    "experiment=" + experiment]
            for item in _REACH_BASE[experiment] + sets:
                argv += ["--set", item]
            code = cli.main(argv)
            cache[key] = (code, out.read_bytes() if code == 0 else None)
            out.unlink(missing_ok=True)
        return cache[key]
    return run


@pytest.mark.parametrize("key", [k for k in cli._KEYS
                                 if k not in ("experiment", "output", "seed")])
def test_every_key_changes_an_artifact(reach_run, key):
    # a key whose value reaches no artifact is dead and should be removed
    differs = []
    for experiment in _REACH_READERS[key.split(".")[0]]:
        value = _REACH_OFF.get(key)
        if value is None:
            base = cli.parse_config(
                b"experiment = %s\n" % experiment.encode(),
                _REACH_BASE[experiment])[key]
            value = repr(base * 1.25 if isinstance(base, float) else base + 1)
        code, default = reach_run(experiment)
        off_code, changed = reach_run(experiment, "%s=%s" % (key, value))
        assert (code, off_code) == (0, 0), (experiment, value)
        differs.append(changed != default)
    assert any(differs)


@pytest.mark.parametrize("overrides, code, stderr", [
    (["model.mu_E=1e308"], 0,
     "warning: overflow: trajectory truncated after 0 of 2000 steps\n"),
    (["evolver.alpha0=1e308"], 0, ""),
    # the kink's launch velocity is 2/cosh(z), and cosh overflows far
    # from the core: near the speed of light, or with a 1-site-wide kink
    (["experiment=pendulum-kink", "chain.beta=0.999999999"], 0, ""),
    (["experiment=pendulum-kink", "chain.sites=2000", "chain.omega0_sq=1"],
     0, ""),
    # grids and packets that are not finite end with their one error line
    (["evolver.dx=1e308"], 1, "error: domain: non-finite field amplitudes\n"),
    (["evolver.alpha0=inf"], 1,
     "error: domain: non-finite field amplitudes\n"),
    (["experiment=iv-curve", "iv.E_max_factor=1e308"], 1,
     "error: domain: field grid must be strictly increasing\n"),
    (["experiment=iv-curve", "iv.E_max_factor=inf"], 1,
     "error: domain: field grid must be strictly increasing\n"),
    (["experiment=variational-sweep", "variational.theta_max=inf"], 2,
     "error: config: variational.theta_max must be finite\n"),
    # finite bounds whose span overflows: the grid holds inf and nan
    (["experiment=variational-sweep", "variational.theta_min=-1e308",
      "variational.theta_max=1e308"], 1,
     "error: domain: theta grid must be finite\n"),
    # D*dx^2 underflows to 0, and every scheme divides by it
    (["evolver.dx=1e-308"], 1, "error: domain: D*dx^2 underflows to 0\n"),
    (["model.D=5e-324"], 1, "error: domain: D*dx^2 underflows to 0\n"),
    # D*dx^2 overflows to inf, which would zero every scheme's kinetic term
    (["evolver.dx=1e200"], 1, "error: domain: D*dx^2 overflows\n"),
    (["model.D=1e300", "evolver.dx=1e5"], 1,
     "error: domain: D*dx^2 overflows\n"),
    (["experiment=pendulum-kink", "chain.omega1_sq=inf"], 2,
     "error: config: pendulum-kink needs positive, finite omega0_sq and "
     "omega1_sq for the continuum mapping\n")],
    ids=["mu_E", "alpha0", "kink-beta", "kink-width", "dx-inf-grid",
         "alpha0-inf", "iv-overflow", "iv-inf", "theta-inf", "theta-span",
         "dx-underflow", "D-underflow", "dx-overflow", "D-overflow",
         "kink-omega-inf"])
def test_main_overflow_reports_no_numpy_warning(tmp_path, overrides, code,
                                                stderr):
    # a separate interpreter, so numpy's warnings reach stderr unfiltered
    cfg = write_cfg(tmp_path, "experiment = single-chain\n")
    out = tmp_path / "sc.csv"
    sets = [arg for o in overrides for arg in ("--set", o)]
    proc = subprocess.run(
        [sys.executable, "-m", "cdwlab.cli", cfg, "--output", str(out)]
        + sets, capture_output=True, text=True)
    assert proc.returncode == code
    assert proc.stderr == stderr
    assert out.exists() == (code == 0)


@pytest.mark.parametrize("scheme", ["df-standard", "cn-standard",
                                    "df-printed", "cn-printed"])
def test_main_drive_rate_without_tilt_is_default_run(tmp_path, capsys,
                                                     scheme):
    # at the default mu_E = 0 the driving phase cannot change V, so even a
    # drive rate whose phase overflows must give the default run
    cfg = write_cfg(tmp_path, "experiment = single-chain\n"
                              "evolver.scheme = %s\n" % scheme)
    out = tmp_path / "sc.csv"
    runs = []
    for sets in ([], ["--set", "drive.a_D=1e308"]):
        code = cli.main([cfg, "--output", str(out)] + sets)
        runs.append((code, capsys.readouterr().err,
                     out.read_bytes() if out.exists() else None))
        out.unlink(missing_ok=True)
    assert runs[1] == runs[0]


def test_main_set_experiment_names_the_artifact(tmp_path, monkeypatch):
    # the derived output name follows the experiment that runs
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, "experiment = iv-curve\n"
                              "fourier.n_modes = 3\n")
    assert cli.main([cfg, "--set", "experiment=fourier-check"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "fourier-check.csv", "run.cfg"]
    header = (tmp_path / "fourier-check.csv").read_text().splitlines()[0]
    assert header == "k,numeric,closed_form,rel_deviation"


def test_main_exit_one_on_domain_error(tmp_path, capsys):
    # a 2-point grid is below the smallest legal field
    cfg = write_cfg(tmp_path,
                    "experiment = single-chain\nevolver.n = 2\n")
    out = tmp_path / "x.csv"
    assert cli.main([cfg, "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: domain:")
    assert not out.exists()


@pytest.mark.parametrize("experiment, key", [
    ("pendulum-kink", "chain.dt"), ("single-chain", "evolver.dt")])
def test_main_infinite_dt_is_domain_error(tmp_path, capsys, experiment, key):
    # both integrators reject an infinite step before the first one
    cfg = write_cfg(tmp_path, "experiment = %s\n" % experiment)
    out = tmp_path / "dt.csv"
    assert cli.main([cfg, "--output", str(out), "--set", key + "=inf"]) == 1
    assert capsys.readouterr().err == "error: domain: dt must be positive\n"
    assert not out.exists()


def test_main_chain_overflow_names_the_step(tmp_path, capsys):
    # dt = 1 is far beyond the RK4 stability limit of the default chain
    cfg = write_cfg(tmp_path, "experiment = pendulum-kink\n")
    out = tmp_path / "pk.csv"
    assert cli.main([cfg, "--output", str(out), "--set", "chain.dt=1"]) == 1
    assert capsys.readouterr().err == (
        "error: overflow: chain state became non-finite at step 55 of 2500\n")
    assert not out.exists()


@pytest.mark.parametrize("target", ["missing/out.csv", "folder"])
def test_main_unwritable_output_is_config_error(tmp_path, capsys, target):
    # a missing directory fails at the temp file, a directory as the
    # target at the rename; neither leaves a file behind
    cfg = write_cfg(tmp_path, "experiment = iv-curve\niv.points = 5\n")
    (tmp_path / "folder").mkdir()
    assert cli.main([cfg, "--output", str(tmp_path / target)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: config: cannot write output:")
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["folder",
                                                          "run.cfg"]


@pytest.mark.parametrize("target, code", [("missing/out.csv", errno.ENOENT),
                                          ("folder", errno.EISDIR)])
def test_main_unwritable_output_error_is_deterministic(tmp_path, capsys,
                                                       target, code):
    # the line names the target and the reason, never the random temp
    # file, so two identical failing runs print the same stderr
    cfg = write_cfg(tmp_path, "experiment = iv-curve\niv.points = 5\n")
    (tmp_path / "folder").mkdir()
    path = str(tmp_path / target)
    errs = []
    for _ in range(2):
        assert cli.main([cfg, "--output", path]) == 2
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1] == (
        "error: config: cannot write output: %s: %s\n"
        % (path, os.strerror(code)))
    assert ".tmp" not in errs[0]
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["folder",
                                                          "run.cfg"]


def test_main_rerun_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path,
                    "experiment = iv-curve\niv.points = 120\nseed = 3\n")
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert cli.main([cfg, "--output", str(a)]) == 0
    assert cli.main([cfg, "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def _main_bytes(tmp_path, text):
    """The CSV bytes cli.main writes for config text (exit status 0)."""
    out = tmp_path / "run.csv"
    assert cli.main([write_cfg(tmp_path, text), "--output", str(out)]) == 0
    return out.read_bytes()


def _per_value_bytes(header, rows):
    """Header plus every value as format_number renders it."""
    return "".join([",".join(header) + "\n"] + [
        ",".join(map(format_number, row)) + "\n" for row in rows]).encode()


def test_main_single_chain_bytes_match_per_value_rule(tmp_path, capsys):
    text = "experiment = single-chain\nevolver.n = 7\nevolver.steps = 40\n"
    o = cli.parse_config(text.encode())
    init = evolver.gaussian_packet(7, o["evolver.dx"], x0=o["evolver.x0"],
                                   x_c=o["evolver.x_c"],
                                   alpha0=o["evolver.alpha0"])
    t = evolver.evolve(o["evolver.scheme"], init, PhysicalParams(),
                       FieldDriveParams(), o["evolver.dt"], 40)
    assert len(t) == 41
    rows = [list(r) for r in zip(t.times, t.mean_phase, t.norm)]
    assert _main_bytes(tmp_path, text) == _per_value_bytes(
        ["t", "mean_phase", "norm"], rows)
    assert capsys.readouterr().err == ""


def test_main_iv_curve_bytes_match_per_value_rule(tmp_path, capsys):
    # the top fields overflow the cosh form: those cells are missing
    cp = CurrentParams()
    rows = []
    for E in (1e6 * np.arange(1, 11) / 10).tolist():
        row = [E]
        for fn in (tunneling.current_beckwith, tunneling.current_zener,
                   partial(tunneling.current_zener, gated=False)):
            try:
                row.append(fn(E, cp))
            except OverflowError:
                row.append(None)
        rows.append(row)
    assert [r[1] is None for r in rows] == [False] * 2 + [True] * 8
    got = _main_bytes(tmp_path, "experiment = iv-curve\n"
                                "iv.E_max_factor = 1e6\niv.points = 10\n")
    assert got == _per_value_bytes(
        ["E", "I_beckwith", "I_zener_gated", "I_zener_ungated"], rows)
    assert capsys.readouterr().err == _IV_WARNING % (8, 10)


def test_main_fourier_check_bytes_match_per_value_rule(tmp_path, capsys):
    # box = 16 L puts the excluded modes at 16 and 32
    rows = tunneling.fourier_check_table(1.0, 1e4, 40, 16.0).rows
    assert (np.flatnonzero(np.isnan(rows[:, 3])) + 1).tolist() == [16, 32]
    got = _main_bytes(tmp_path, "experiment = fourier-check\n"
                                "fourier.n_modes = 40\n")
    assert got == _per_value_bytes(
        ["k", "numeric", "closed_form", "rel_deviation"], rows)
    assert capsys.readouterr().err == ""


def test_main_set_overrides_config(tmp_path):
    cfg = write_cfg(tmp_path, "experiment = iv-curve\niv.points = 5\n")
    out = tmp_path / "o.csv"
    assert cli.main([cfg, "--output", str(out),
                     "--set", "iv.points=9", "--seed", "11"]) == 0
    assert len(out.read_text().splitlines()) == 10


def test_main_malformed_seed_is_one_config_line(tmp_path, capsys):
    # --seed N is the last --set entry seed=N, so a malformed one fails
    # as a malformed entry does: one line, exit 2, no file
    cfg = write_cfg(tmp_path, "experiment = iv-curve\niv.points = 5\n")
    assert cli.main([cfg, "--output", str(tmp_path / "o.csv"),
                     "--seed", "x"]) == 2
    assert capsys.readouterr().err == (
        "error: config: cannot parse 'x' as int for key 'seed'\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


def test_main_output_and_seed_are_last_set_entries(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, "experiment = iv-curve\niv.points = 5\n")
    out = tmp_path / "o.csv"

    def written(*args):
        assert cli.main([cfg, *args]) == 0
        data = out.read_bytes()
        out.unlink()
        return data

    flags = written("--output", str(out), "--seed", "7")
    assert written("--set", "output=%s" % out, "--set", "seed=7") == flags
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]
    # the map main resolves: --output P and --seed N are the entries
    # output=P and seed=N after every --set, converted like any other
    resolved = []
    monkeypatch.setattr(cli, "run", resolved.append)

    def config(*args):
        assert cli.main([cfg, *args]) == 0
        return resolved.pop()

    assert config("--seed", "7") == config("--set", "seed=7")
    assert config("--output", "p.csv") == config("--set", "output=p.csv")
    assert config("--set", "seed=3", "--seed", "1e3")["seed"] == 1000
    assert config("--output", " p.csv ",
                  "--set", "output=q.csv")["output"] == "p.csv"


def test_main_no_stray_files(tmp_path):
    cfg = write_cfg(tmp_path, "experiment = iv-curve\niv.points = 5\n")
    out = tmp_path / "only.csv"
    assert cli.main([cfg, "--output", str(out)]) == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["only.csv", "run.cfg"]


# Prints whether numpy and scipy are loaded after ``import cdwlab``, then
# runs cli.main on each argv of the JSON list in argv[1] and prints its
# exit code and whether scipy is loaded after it.
_IMPORT_PROBE = """
import json, sys
def loaded(top):
    return any(m == top or m.startswith(top + ".") for m in sys.modules)
import cdwlab
print(json.dumps([loaded("numpy"), loaded("scipy")]))
from cdwlab import cli
for argv in json.loads(sys.argv[1]):
    print(json.dumps([cli.main(argv), loaded("scipy"),
                      loaded("scipy.linalg")]))
"""


def test_main_loads_scipy_only_for_lapack(tmp_path):
    # scipy loads where a run first reaches its LAPACK wrappers: only the
    # cn-standard tridiagonal solve, which loads the extension module
    # holding them but never the scipy.linalg package; the variational
    # sweep's stacked eigh is numpy's
    cfg = write_cfg(tmp_path, "evolver.n = 31\nevolver.steps = 10\n"
                              "chain.sites = 40\nchain.steps = 20\n"
                              "chain.stride = 10\niv.points = 5\n"
                              "fourier.n_modes = 3\n"
                              "variational.theta_points = 1\n")
    out = str(tmp_path / "out.csv")

    def argv(experiment, *sets):
        sets = ("experiment=" + experiment,) + sets
        return [cfg, "--output", out] + [a for s in sets
                                         for a in ("--set", s)]

    runs = [argv(e) for e in ("pendulum-kink", "iv-curve", "fourier-check",
                              "variational-sweep")]
    runs += [argv("single-chain", "evolver.scheme=" + scheme)
             for scheme in ("df-standard", "df-printed", "cn-printed",
                            "cn-standard")]
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps(runs)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert lines == ([[False, False]] + [[0, False, False]] * 7
                     + [[0, True, False]])


def test_console_script_entry_point(tmp_path):
    cfg = write_cfg(tmp_path, "experiment = fourier-check\n"
                              "fourier.n_modes = 3\n")
    out = tmp_path / "ep.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "cdwlab.cli", cfg, "--output", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


@pytest.mark.parametrize("experiment, key", [
    ("variational-sweep", "variational.theta_points"),
    ("iv-curve", "iv.points")], ids=["sweep", "iv"])
def test_main_non_positive_point_count_is_config_error(tmp_path, capsys,
                                                       experiment, key):
    cfg = write_cfg(tmp_path, "experiment = %s\n" % experiment)
    out = tmp_path / "out.csv"
    assert cli.main([cfg, "--output", str(out), "--set", key + "=0"]) == 2
    assert capsys.readouterr().err == (
        "error: config: %s must be >= 1\n" % key)
    assert not out.exists()
