import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdwlab import cli
from cdwlab.errors import ConfigError


def parse(text):
    return cli.parse_config(text.encode("utf-8"))


def test_parse_defaults_applied():
    cfg = parse("experiment = iv-curve\n")
    assert cfg.experiment == "iv-curve"
    assert cfg.output_path == "iv-curve.csv"
    assert cfg.seed == 0
    o = cfg.options
    assert o["model.D1"] == 174.091
    assert o["model.E1"] == 1e-5
    assert o["model.E2"] == 1e-6
    assert o["model.delta_prime"] == 0.005
    assert o["drive.a_D"] == 0.67
    assert o["variational.theta_min"] == pytest.approx(-4 * math.pi)
    # the closed-form sweep has no quadrature grid to configure
    with pytest.raises(ConfigError):
        parse("experiment = iv-curve\nvariational.eta = 20\n")


def test_parse_comments_and_blanks():
    cfg = parse(
        "# full-line comment\n"
        "\n"
        "experiment = fourier-check   # trailing comment\n"
        "fourier.n_modes = 4\n"
        "   \n")
    assert cfg.experiment == "fourier-check"
    assert cfg.options["fourier.n_modes"] == 4


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
    assert cfg.options["evolver.steps"] == 2


def test_parse_config_sets():
    data = b"experiment = iv-curve\niv.points = 50\n"
    cfg = cli.parse_config(data)
    cfg2 = cli.parse_config(data, ["iv.points=75", "current.E_T = 2.0"])
    assert cfg2.options["iv.points"] == 75
    assert cfg2.options["current.E_T"] == 2.0
    # untouched entries keep their config or default values exactly
    assert cfg2.options["model.D1"] == cfg.options["model.D1"]
    assert cfg2.experiment == "iv-curve"
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
    "choice": st.sampled_from(cli.EXPERIMENTS),
}


@st.composite
def _entries(draw):
    keys = draw(st.lists(st.sampled_from(sorted(cli._KEYS)), unique=True))
    return {k: draw(_VALUE[cli._KEYS[k][0]]) for k in keys}


@settings(derandomize=True, max_examples=300, deadline=None)
@given(base=st.sampled_from(cli.EXPERIMENTS), entries=_entries())
def test_config_lines_and_sets_agree(base, entries):
    lines = {"experiment": base, **entries}
    text = "".join("%s = %s\n" % kv for kv in lines.items())
    from_lines = cli.parse_config(text.encode("utf-8"))
    sets = ["%s=%s" % kv for kv in entries.items()]
    from_sets = cli.parse_config(b"experiment = %s\n" % base.encode(), sets)
    assert from_sets == from_lines
    assert from_lines.output_path == entries.get(
        "output", lines["experiment"] + ".csv")


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


def test_main_exit_two_on_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "experiment = iv-curve\nbogus.key = 1\n")
    assert cli.main([cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:")
    assert "line 2" in err
    assert cli.main([str(tmp_path / "missing.cfg")]) == 2
    assert "error: config:" in capsys.readouterr().err


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
    "model.experimental_regime"])
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
# entries both runs of a key need: only cn-printed reads evolver.sweeps
_REACH_CONTEXT = {"evolver.sweeps": ("evolver.scheme=cn-printed",)}
# off-default values where a float's x1.25 or an int's +1 would keep the
# base value, be invalid, or (chain.steps) add no snapshot at stride 10
_REACH_OFF = {
    "model.theta": "0.5", "evolver.scheme": "cn-standard",
    "evolver.x0": "-2.0", "evolver.x_c": "0.5",
    "evolver.boundary": "periodic", "chain.sign": "-1",
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
    context = _REACH_CONTEXT.get(key, ())
    differs = []
    for experiment in _REACH_READERS[key.split(".")[0]]:
        value = _REACH_OFF.get(key)
        if value is None:
            base = cli.parse_config(
                b"experiment = %s\n" % experiment.encode(),
                _REACH_BASE[experiment] + context).options[key]
            value = repr(base * 1.25 if isinstance(base, float) else base + 1)
        code, default = reach_run(experiment, *context)
        off_code, changed = reach_run(experiment, *context,
                                      "%s=%s" % (key, value))
        assert (code, off_code) == (0, 0), (experiment, value)
        differs.append(changed != default)
    assert any(differs)


@pytest.mark.parametrize("override, warning", [
    ("model.mu_E=1e308",
     "warning: overflow: trajectory truncated after 0 of 2000 steps\n"),
    ("evolver.alpha0=1e308", "")], ids=["mu_E", "alpha0"])
def test_main_overflow_reports_no_numpy_warning(tmp_path, override, warning):
    # a separate interpreter, so numpy's warnings reach stderr unfiltered
    cfg = write_cfg(tmp_path, "experiment = single-chain\n")
    out = tmp_path / "sc.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "cdwlab.cli", cfg, "--output", str(out),
         "--set", override], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stderr == warning
    assert out.exists()


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


def test_main_rerun_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path,
                    "experiment = iv-curve\niv.points = 120\nseed = 3\n")
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert cli.main([cfg, "--output", str(a)]) == 0
    assert cli.main([cfg, "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_main_set_overrides_config(tmp_path):
    cfg = write_cfg(tmp_path, "experiment = iv-curve\niv.points = 5\n")
    out = tmp_path / "o.csv"
    assert cli.main([cfg, "--output", str(out),
                     "--set", "iv.points=9", "--seed", "11"]) == 0
    assert len(out.read_text().splitlines()) == 10


def test_main_no_stray_files(tmp_path):
    cfg = write_cfg(tmp_path, "experiment = iv-curve\niv.points = 5\n")
    out = tmp_path / "only.csv"
    assert cli.main([cfg, "--output", str(out)]) == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["only.csv", "run.cfg"]


def test_console_script_entry_point(tmp_path):
    cfg = write_cfg(tmp_path, "experiment = fourier-check\n"
                              "fourier.n_modes = 3\n")
    out = tmp_path / "ep.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "cdwlab.cli", cfg, "--output", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
