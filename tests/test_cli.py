import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import chsmc
from chsmc import cli
from chsmc.errors import ConfigError
from chsmc.grid import Grid, read_snapshot

NEUMANN_CONFIG = """\
[grid]
dim = 1
cells = 32
lengths = 1.0

[potential]
kind = regular

[bc]
kind = neumann

[control]
rho = 0
eps = 1e-2

[data]
tau = 1.0
phi0 = cosine amplitude=0.4 mode=1 offset=0.1

[time]
dt = 1e-3
T = 0.01
outputs = 3

[solver]
scheme = coupled_neumann
eps = 1e-2
"""


DIRICHLET_CONFIG = (NEUMANN_CONFIG
                    .replace("kind = neumann", "kind = dirichlet\n"
                             "datum = constant value=0.1")
                    .replace("coupled_neumann", "eliminated_dirichlet"))


@pytest.fixture
def neumann_config(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(NEUMANN_CONFIG)
    return str(path)


# -- profile language -------------------------------------------------------


def test_parse_profile_constant():
    f = cli.parse_profile("constant value=2.5", (1.0,))
    X = (np.array([0.0, 1.0]),)
    assert np.array_equal(f(X, 0.0), [2.5, 2.5])


def test_parse_profile_cosine_with_lengths():
    grid = Grid(shape=(16,), lengths=(0.5,))
    f = cli.parse_profile("cosine amplitude=2 mode=1 offset=1", (0.5,))
    x = grid.meshgrid()[0]
    assert np.allclose(f((x,), 0.0), 2.0 * np.cos(np.pi * x / 0.5) + 1.0)


def test_parse_profile_ramp_and_tanh():
    X = (np.array([0.0, 1.0, 2.0]),)
    ramp = cli.parse_profile("ramp slope=2 offset=-1", (2.0,))
    assert np.array_equal(ramp(X, 0.0), [-1.0, 1.0, 3.0])
    front = cli.parse_profile("tanh_front center=1 width=0.5 amplitude=2",
                              (2.0,))
    assert front(X, 0.0)[1] == pytest.approx(0.0)


def test_parse_profile_errors():
    with pytest.raises(ConfigError):
        cli.parse_profile("", (1.0,))
    with pytest.raises(ConfigError):
        cli.parse_profile("vortex radius=1", (1.0,))
    with pytest.raises(ConfigError):
        cli.parse_profile("constant 2.5", (1.0,))
    with pytest.raises(ConfigError):
        cli.parse_profile("constant", (1.0,))  # missing required parameter


def test_parse_boundary_profile_scalar():
    datum = cli.parse_profile("constant value=0.7", (1.0, 2.0))
    for _, X, _ in Grid(shape=(4, 3), lengths=(1.0, 2.0)).boundary_sides():
        assert np.array_equal(datum(X, 0.0), np.full(X[0].shape, 0.7))


def test_boundary_datum_uses_box_lengths(tmp_path):
    path = tmp_path / "dir.ini"
    path.write_text(NEUMANN_CONFIG
                    .replace("lengths = 1.0", "lengths = 0.5")
                    .replace("kind = neumann", "kind = dirichlet\n"
                             "datum = cosine amplitude=1 mode=1")
                    .replace("coupled_neumann", "eliminated_dirichlet"))
    data, _, _ = cli.load_config(str(path))
    assert data.bc.datum((0.0,), 0.0) == pytest.approx(1.0)
    assert data.bc.datum((0.25,), 0.0) == pytest.approx(0.0, abs=1e-15)
    assert data.bc.datum((0.5,), 0.0) == pytest.approx(-1.0)


# -- config loading -----------------------------------------------------------


def test_load_config(neumann_config):
    data, cfg, extras = cli.load_config(neumann_config)
    assert data.grid.shape == (32,)
    assert data.bc.kind == "neumann"
    assert cfg.scheme == "coupled_neumann"
    assert cfg.T == 0.01
    assert len(cfg.output_times) == 3
    assert extras == {}


def test_load_config_missing_key_names_it(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text(NEUMANN_CONFIG.replace("dt = 1e-3\n", ""))
    with pytest.raises(ConfigError, match=r"\[time\] dt"):
        cli.load_config(str(path))


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        cli.load_config("/nonexistent/run.ini")


@pytest.mark.parametrize("n_modes,code", [
    ("0", cli.EXIT_CONFIG), ("-3", cli.EXIT_CONFIG), ("33", cli.EXIT_CONFIG),
    ("100000", cli.EXIT_CONFIG), ("1", cli.EXIT_OK), ("32", cli.EXIT_OK)])
def test_galerkin_mode_count_is_validated(tmp_path, capsys, n_modes, code):
    path = tmp_path / "run.ini"
    path.write_text(NEUMANN_CONFIG.replace(
        "coupled_neumann", f"galerkin_neumann\nn_modes = {n_modes}"))
    assert cli.main(["simulate", "--config", str(path), "--quiet",
                     "--out", str(tmp_path / "out")]) == code
    if code == cli.EXIT_CONFIG:
        assert ("config error: [solver] n_modes must be in [1, 32]"
                in capsys.readouterr().err)


def test_load_config_rejects_scheme_bc_mismatch(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text(NEUMANN_CONFIG.replace("coupled_neumann",
                                           "eliminated_dirichlet"))
    with pytest.raises(ConfigError, match="incompatible"):
        cli.load_config(str(path))


# -- commands and exit codes -----------------------------------------------------


def test_simulate_writes_outputs(neumann_config, tmp_path):
    out = tmp_path / "out"
    code = cli.main(["simulate", "--config", neumann_config,
                     "--out", str(out), "--quiet"])
    assert code == 0
    assert (out / "diagnostics.csv").exists()
    snaps = sorted(out.glob("snapshot_*.bin"))
    assert len(snaps) == 3
    grid, t, field = read_snapshot(snaps[0])
    assert t == 0.0
    assert grid.shape == (32,)


def test_simulate_is_deterministic(neumann_config, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["simulate", "--config", neumann_config,
                         "--out", str(out), "--quiet"]) == 0
        outs.append(out)
    assert ((outs[0] / "diagnostics.csv").read_bytes()
            == (outs[1] / "diagnostics.csv").read_bytes())
    assert ((outs[0] / "snapshot_0002.bin").read_bytes()
            == (outs[1] / "snapshot_0002.bin").read_bytes())


def test_verify_all_passes_on_zero_flux_run(neumann_config, tmp_path,
                                            capsys):
    code = cli.main(["verify-all", "--config", neumann_config,
                     "--out", str(tmp_path / "v")])
    out = capsys.readouterr().out
    assert code == 0
    assert "mass conservation: pass" in out
    assert "energy decay: pass" in out
    assert "control saturation: pass" in out


def test_config_error_exit_code(tmp_path, capsys):
    code = cli.main(["simulate", "--config", str(tmp_path / "none.ini"),
                     "--quiet"])
    assert code == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("old,new", [
    ("rho = 0", "rho = -1"),
    ("kind = regular", "kind = logarithmic\nc1 = 1"),
    ("kind = regular", "kind = obstacle\nc2 = 0"),
    ("cells = 32", "cells = 2"),
])
def test_invalid_values_exit_as_config_errors(tmp_path, capsys, old, new):
    path = tmp_path / "bad.ini"
    path.write_text(NEUMANN_CONFIG.replace(old, new))
    code = cli.main(["simulate", "--config", str(path), "--quiet",
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


REJECTED_CASES = [
    (NEUMANN_CONFIG, "rho = 0", "rho = nan"),
    (NEUMANN_CONFIG, "rho = 0", "rho = inf"),
    (NEUMANN_CONFIG, "T = 0.01", "T = inf"),
    (NEUMANN_CONFIG, "outputs = 3", "outputs = -1"),
    (NEUMANN_CONFIG, "amplitude=0.4", "amplitude=abc"),
    (NEUMANN_CONFIG, "mode=1", "mode=x"),
    (NEUMANN_CONFIG, "tau = 1.0", "tau = inf"),
    (DIRICHLET_CONFIG.replace("cosine amplitude=0.4 mode=1 offset=0.1",
                              "constant value=0.1"),
     "lengths = 1.0", "lengths = inf"),
    (NEUMANN_CONFIG, "kind = regular", "kind = logarithmic\nc1 = inf"),
    (NEUMANN_CONFIG, "kind = regular", "kind = obstacle\nc2 = inf"),
    (DIRICHLET_CONFIG, "value=0.1", "value=nan"),
    (DIRICHLET_CONFIG, "amplitude=0.4", "amplitude=nan"),
    # files configparser cannot read: a duplicate key, no section header,
    # a bare % (interpolation syntax)
    (NEUMANN_CONFIG, "dim = 1", "dim = 1\ndim = 2"),
    (NEUMANN_CONFIG, "[grid]\ndim = 1", "dim = 1"),
    (NEUMANN_CONFIG, "offset=0.1", "offset=5%"),
]


@pytest.mark.parametrize("config,old,new", REJECTED_CASES,
                         ids=[new for _, _, new in REJECTED_CASES])
def test_non_finite_or_malformed_values_exit_2(tmp_path, capsys, config,
                                               old, new):
    path = tmp_path / "bad.ini"
    path.write_text(config.replace(old, new))
    code = cli.main(["simulate", "--config", str(path), "--quiet",
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


# (command, section, key, value): the command is the one that reads the key
BAD_VALUE_CASES = [
    ("simulate", "grid", "cells", "abc"),
    ("simulate", "grid", "lengths", "x"),
    ("sliding-check", "experiment", "rho_margin", "abc"),
    ("sliding-check", "experiment", "rho_margin", "-1"),
    ("sliding-check", "experiment", "rho_margin", "nan"),
    ("sliding-check", "experiment", "rho_margin", "1"),
    ("sliding-check", "experiment", "dt_stability_factor", "x"),
    ("sliding-check", "experiment", "dt_stability_factor", "0"),
    ("sliding-check", "experiment", "tol_slide", "nope"),
    ("sliding-check", "experiment", "tol_slide", "-1"),
    ("sliding-check", "experiment", "tol_slide", "inf"),
    ("contdep", "contdep", "deltas", "a,b"),
    ("contdep", "contdep", "deltas", "nan"),
    ("contdep", "contdep", "deltas", "1e-2,-1e-2"),
    ("contdep", "contdep", "which", "mu"),
]


@pytest.mark.parametrize("command,section,key,value", BAD_VALUE_CASES,
                         ids=[f"{k}={v}" for _, _, k, v in BAD_VALUE_CASES])
def test_bad_value_exits_2_naming_its_key(tmp_path, capsys, command,
                                          section, key, value):
    if section == "grid":
        old = next(line for line in NEUMANN_CONFIG.splitlines()
                   if line.startswith(key + " ="))
        text = NEUMANN_CONFIG.replace(old, f"{key} = {value}")
    else:
        base = DIRICHLET_CONFIG if section == "experiment" else NEUMANN_CONFIG
        text = base + f"\n[{section}]\n{key} = {value}\n"
    path = tmp_path / "bad.ini"
    path.write_text(text)
    code = cli.main([command, "--config", str(path), "--quiet",
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    assert f"[{section}] {key}" in capsys.readouterr().err


def test_load_config_types_experiment_and_contdep_values(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(DIRICHLET_CONFIG + "\n[experiment]\nrho_margin = 3\n"
                    "tol_slide = auto\n\n[contdep]\nwhich = phistar\n"
                    "deltas = 1e-1, 1e-2\n")
    _, _, extras = cli.load_config(str(path))
    assert extras == {"rho_margin": 3.0, "tol_slide": None,
                      "contdep": {"which": "phistar",
                                  "deltas": [1e-1, 1e-2]}}


PROPERTY_CONFIG = """\
[grid]
dim = 1
cells = 16
lengths = {length!r}

[potential]
kind = {potential}

[bc]
kind = {bc}

[control]
rho = {rho!r}
eps = {ctrl_eps!r}

[data]
tau = {tau!r}
g = constant value={g!r}
phi0 = cosine amplitude={amp!r} mode=1 offset={offset!r}

[time]
dt = {dt!r}
T = {T!r}
outputs = 3

[solver]
scheme = {scheme}
"""


_PROPERTY_RANGES = {
    "c": (0.5, 3.0), "datum": (-1.0, 1.0), "length": (0.5, 2.0),
    "rho": (0.0, 5.0), "ctrl_eps": (1e-3, 0.1), "tau": (0.1, 2.0),
    "g": (-1.0, 1.0), "amp": (-0.6, 0.6), "offset": (-0.3, 0.3),
    "dt": (1e-4, 1e-2), "T": (0.0, 5e-3),
}


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(dirichlet=st.booleans(),
       potential=st.sampled_from(["regular", "logarithmic\nc1 = {c!r}",
                                  "obstacle\nc2 = {c!r}"]),
       values=st.fixed_dictionaries(
           {k: st.floats(lo, hi) for k, (lo, hi) in _PROPERTY_RANGES.items()}),
       bad_key=st.one_of(st.none(), st.sampled_from(sorted(_PROPERTY_RANGES))),
       bad_value=st.sampled_from([float("nan"), float("inf"), float("-inf"),
                                  -1.0, 0.0]))
def test_config_either_rejected_or_runs_finite(dirichlet, potential, values,
                                               bad_key, bad_value):
    """Every config either exits 2 or runs to exit 0 with finite fields
    and diagnostics (sup_G_eps is NaN by definition for zero flux).
    Values come from working ranges, at most one replaced by a non-finite,
    negative or zero value."""
    if bad_key is not None:
        values[bad_key] = bad_value
    c, datum = values.pop("c"), values.pop("datum")
    if dirichlet:
        bc = f"dirichlet\ndatum = constant value={datum!r}"
        scheme = "eliminated_dirichlet"
    else:
        bc, scheme = "neumann", "coupled_neumann"
    text = PROPERTY_CONFIG.format(potential=potential.format(c=c), bc=bc,
                                  scheme=scheme, **values)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.ini")
        with open(path, "w") as fh:
            fh.write(text)
        out = os.path.join(tmp, "out")
        code = cli.main(["simulate", "--config", path, "--quiet",
                         "--out", out])
        assert code in (cli.EXIT_OK, cli.EXIT_CONFIG), text
        event(f"exit {code}")
        if code == cli.EXIT_CONFIG:
            return
        for name in os.listdir(out):
            if name.startswith("snapshot_"):
                _, t, field = read_snapshot(os.path.join(out, name))
                assert np.isfinite(t) and np.all(np.isfinite(field)), text
        with open(os.path.join(out, "diagnostics.csv")) as fh:
            header, *rows = [line.strip().split(",") for line in fh]
        for row in rows:
            for col, val in zip(header, row):
                if not (col == "sup_G_eps" and not dirichlet):
                    assert np.isfinite(float(val)), (col, text)


def _run_python(*args):
    src = os.path.dirname(os.path.dirname(chsmc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True)


def test_cli_import_loads_no_scipy_integrate():
    probe = ("import sys, chsmc.cli; print(sorted(m for m in sys.modules "
             "if m.startswith('scipy.integrate')))")
    out = _run_python("-c", probe)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_package_import_loads_submodules_on_demand():
    out = _run_python("-c", "import sys, chsmc; print(sorted(m for m in "
                            "sys.modules if m.startswith('chsmc')))")
    assert out.stdout.strip() == "['chsmc', 'chsmc.errors']"


def test_module_entry_point_runs_without_runtime_warning():
    out = _run_python("-W", "error::RuntimeWarning", "-m", "chsmc.cli",
                      "--help")
    assert out.returncode == 0, out.stderr
    assert "usage: chsmc" in out.stdout


def test_numerical_error_exit_code(capsys):
    # eps >= w0 makes the comparison-ODE integration ill-posed
    code = cli.main(["ode-oracle", "--w0", "0.5", "--M", "1", "--rho", "5",
                     "--eps", "0.5"])
    assert code == cli.EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err


def test_ode_oracle_output(capsys):
    code = cli.main(["ode-oracle", "--w0", "0", "--M", "1", "--rho", "4",
                     "--eps", "0.01", "--dt", "0.001", "--T", "0.02"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("T* = ")
    header = out.splitlines()[1]
    assert header == "t,w_numeric,w_limit_closed_form,w_eps_closed_form"


def test_design_rho_output(capsys):
    code = cli.main(["design-rho", "--Chat", "0.5", "--Cstr", "0.7",
                     "--betastar", "0.2", "--w0", "1", "--vol", "0.1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "rhostar" in out and "deltastar" in out


def test_design_rho_volume_failure(capsys):
    code = cli.main(["design-rho", "--Chat", "0.5", "--Cstr", "0.7",
                     "--betastar", "0.2", "--w0", "1", "--vol", "50"])
    assert code == cli.EXIT_NUMERICAL


def test_contdep_command(tmp_path, neumann_config, capsys):
    path = tmp_path / "cd.ini"
    path.write_text(NEUMANN_CONFIG + "\n[contdep]\nwhich = g\n"
                    "shape = cosine amplitude=1 mode=1\n"
                    "deltas = 1e-1,1e-2\n")
    out = tmp_path / "cdout"
    code = cli.main(["contdep", "--config", str(path), "--out", str(out)])
    assert code == 0
    lines = (out / "contdep.csv").read_text().splitlines()
    assert lines[0] == "delta,lhs,rhs,ratio"
    assert len(lines) == 3
