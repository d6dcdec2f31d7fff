import configparser
import contextlib
import io
import os
import platform
import subprocess
import sys
import tempfile
import tracemalloc
import types
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import (HealthCheck, Phase, event, example, given,
                        settings)
from hypothesis import strategies as st

import chsmc
from chsmc import cli, smc, solver
from chsmc.errors import ConfigError, NewtonError
from chsmc.grid import Grid, read_snapshot, write_snapshot

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


# (profile, message): a parameter the profile does not take, or one given
# twice, for each kind of profile
PROFILE_PARAMETER_CASES = {
    "constant-misspelt": ("constant value=0.1 vlaue=3",
                          "profile 'constant' takes no parameter 'vlaue'"),
    "cosine-misspelt": ("cosine amplitude=0.3 mdoe=2 offset=0.1",
                        "profile 'cosine' takes no parameter 'mdoe'"),
    "sine-misspelt": ("sine amplitude=0.3 mode=1 ofset=0.1",
                      "profile 'sine' takes no parameter 'ofset'"),
    "tanh_front-misspelt": ("tanh_front center=0.5 width=0.1 amplitde=0.3",
                            "profile 'tanh_front' takes no parameter "
                            "'amplitde'"),
    "ramp-misspelt": ("ramp slope=0.1 offest=0",
                      "profile 'ramp' takes no parameter 'offest'"),
    "constant-repeated": ("constant value=0.1 value=3",
                          "profile 'constant' repeats parameter 'value'"),
    "cosine-repeated": ("cosine amplitude=0.3 mode=1 mode=2",
                        "profile 'cosine' repeats parameter 'mode'"),
    "sine-repeated": ("sine amplitude=0.3 amplitude=0.1",
                      "profile 'sine' repeats parameter 'amplitude'"),
    "tanh_front-repeated": ("tanh_front center=0.5 width=0.1 width=0.2",
                            "profile 'tanh_front' repeats parameter 'width'"),
    "ramp-repeated": ("ramp slope=0.1 slope=0.2",
                      "profile 'ramp' repeats parameter 'slope'"),
}


@pytest.mark.parametrize("profile,message", PROFILE_PARAMETER_CASES.values(),
                         ids=PROFILE_PARAMETER_CASES.keys())
def test_profile_parameter_it_does_not_take_or_repeats_exits_2(
        tmp_path, capsys, profile, message):
    path = tmp_path / "bad.ini"
    path.write_text(NEUMANN_CONFIG.replace(
        "cosine amplitude=0.4 mode=1 offset=0.1", profile))
    code = cli.main(["simulate", "--config", str(path), "--quiet",
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: bad value for [data] phi0: {message}\n")


def test_parse_profile_leaves_out_axes_without_a_mode():
    """A trigonometric profile has no factor along an axis without a mode
    (a sine used to be sin(0) = 0 there) and rejects extra modes."""
    grid = Grid(shape=(8, 6), lengths=(1.0, 2.0))
    X = grid.meshgrid()
    sine = cli.parse_profile("sine amplitude=1 mode=1", grid.lengths)
    assert np.array_equal(sine(X, 0.0), np.sin(np.pi * X[0]))
    with pytest.raises(ConfigError, match="3 modes for a 2-D grid"):
        cli.parse_profile("cosine amplitude=1 mode=1,2,3", grid.lengths)


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
    # the default shape, cosine amplitude=1 mode=1, cast to its profile
    X = data.grid.meshgrid()
    shape = extras["contdep"].pop("shape")
    np.testing.assert_allclose(shape(X, 0.0), np.cos(np.pi * X[0]))
    assert extras == {
        "experiment": {"rho_margin": 2.0},
        "contdep": {"which": "g", "deltas": [1e-1, 1e-2, 1e-3]}}


def test_load_config_missing_key_names_it(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text(NEUMANN_CONFIG.replace("dt = 1e-3\n", ""))
    with pytest.raises(ConfigError, match=r"\[time\] dt"):
        cli.load_config(str(path))


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        cli.load_config("/nonexistent/run.ini")


def test_galerkin_scheme_is_not_a_config_scheme(tmp_path, capsys):
    """The spectral stepper is a library oracle: a config that names it
    exits 2, naming [solver] scheme, and leaves no output directory."""
    path = tmp_path / "run.ini"
    path.write_text(NEUMANN_CONFIG.replace("coupled_neumann",
                                           "galerkin_neumann"))
    assert cli.main(["simulate", "--config", str(path), "--quiet",
                     "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: bad value for [solver] scheme: need one of "
        "coupled_neumann, eliminated_dirichlet, got 'galerkin_neumann'\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("config,scheme", [
    (NEUMANN_CONFIG, "coupled_neumann"),
    (DIRICHLET_CONFIG, "eliminated_dirichlet")], ids=["neumann", "dirichlet"])
def test_scheme_defaults_to_the_one_of_the_boundary_regime(tmp_path, config,
                                                          scheme):
    """Without [solver] scheme a config runs the scheme of its [bc] kind,
    and writes the bytes of the config that names it; as [solver] eps
    defaults to [control] eps, it needs no [solver] section."""
    named = tmp_path / "named.ini"
    named.write_text(config)
    bare = tmp_path / "bare.ini"
    bare.write_text(config.replace(f"scheme = {scheme}\n", ""))
    no_section = tmp_path / "no_section.ini"
    no_section.write_text(config.split("[solver]")[0])
    cfg = cli.load_config(str(bare))[1]
    assert cfg.scheme == scheme
    assert cli.load_config(str(no_section))[1] == cfg
    outs = []
    for path in (named, bare):
        out = tmp_path / path.stem
        assert cli.main(["simulate", "--config", str(path), "--quiet",
                         "--out", str(out)]) == cli.EXIT_OK
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    assert "diagnostics.csv" in names and "snapshot_0002.bin" in names
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


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


def test_verify_all_does_not_check_energy_decay_of_a_forced_run(
        tmp_path, capsys):
    """The energy identity has a +integral of g*phi_t term, so a correct
    forced run may gain energy: verify-all says it made no check."""
    path = tmp_path / "forced.ini"
    path.write_text(NEUMANN_CONFIG.replace(
        "phi0 =", "g = cosine amplitude=5 mode=1\nphi0 ="))
    code = cli.main(["verify-all", "--config", str(path),
                     "--out", str(tmp_path / "v")])
    out = capsys.readouterr().out
    assert code == 0
    assert "energy decay: not checked (g is not 0)" in out
    assert "mass conservation: pass" in out


def test_verify_all_quiet_prints_nothing(neumann_config, tmp_path, capsys):
    code = cli.main(["verify-all", "--config", neumann_config, "--quiet",
                     "--out", str(tmp_path / "v")])
    assert code == 0
    assert capsys.readouterr() == ("", "")


CONFIGS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")
SLIDING_REFERENCE = os.path.join(CONFIGS, "sliding_reference.ini")


def test_eps_whose_cube_overflows_is_a_numerical_failure(tmp_path, capsys):
    """neumann_smoke.ini with eps = 1e-300 for both regularizations: the
    quartic resolvent cannot form 1/eps**3, and says so."""
    with open(os.path.join(CONFIGS, "neumann_smoke.ini")) as fh:
        text = fh.read().replace("eps = 1e-2", "eps = 1e-300")
    path = tmp_path / "eps.ini"
    path.write_text(text)
    code = cli.main(["simulate", "--config", str(path), "--quiet",
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_NUMERICAL
    assert capsys.readouterr().err == (
        "numerical failure: eps = 1e-300 is too small for the quartic "
        "resolvent: 1/eps**3 overflows\n")
    assert not (tmp_path / "out").exists()


def test_failed_command_keeps_an_out_directory_it_did_not_make(tmp_path):
    """Only an output directory that the command made goes when the
    command fails before writing into it."""
    with open(os.path.join(CONFIGS, "neumann_smoke.ini")) as fh:
        text = fh.read().replace("eps = 1e-2", "eps = 1e-300")
    path = tmp_path / "eps.ini"
    path.write_text(text)
    out = tmp_path / "out"
    out.mkdir()
    code = cli.main(["simulate", "--config", str(path), "--quiet",
                     "--out", str(out)])
    assert code == cli.EXIT_NUMERICAL
    assert out.is_dir() and not any(out.iterdir())


@pytest.mark.parametrize("existing, out, left", [
    (None, "nest/a/b", ["eps.ini"]),
    ("nest", "nest/a/b", ["eps.ini", "nest"]),
    (None, "nest/a/../b", ["eps.ini"])],
    ids=["None-left0", "nest-left1", "None-dotdot-left2"])
def test_failed_command_removes_every_directory_it_made(tmp_path, existing,
                                                        out, left):
    """``--out nest/a/b`` may make three directories: a failed command
    removes each one it made, and nothing above them.  ``nest/a/../b``
    is ``nest/b``, so ``nest/a`` is never made."""
    with open(os.path.join(CONFIGS, "neumann_smoke.ini")) as fh:
        text = fh.read().replace("eps = 1e-2", "eps = 1e-300")
    path = tmp_path / "eps.ini"
    path.write_text(text)
    if existing:
        (tmp_path / existing).mkdir()
    code = cli.main(["simulate", "--config", str(path), "--quiet",
                     "--out", str(tmp_path.joinpath(*out.split("/")))])
    assert code == cli.EXIT_NUMERICAL
    assert sorted(os.listdir(tmp_path)) == left
    if existing:
        assert not any((tmp_path / existing).iterdir())


def test_successful_command_makes_only_the_normalised_out(tmp_path):
    """``--out nest/a/../b`` is ``nest/b``: a run that succeeds leaves no
    empty ``nest/a`` beside it."""
    code = cli.main(["simulate", "--config",
                     os.path.join(CONFIGS, "neumann_smoke.ini"), "--quiet",
                     "--out", str(tmp_path.joinpath("nest", "a", "..", "b"))])
    assert code == 0
    assert os.listdir(tmp_path / "nest") == ["b"]


@pytest.mark.parametrize("T", ["0", "1e-310"])
def test_run_that_takes_no_step_writes_one_snapshot(tmp_path, T):
    """T = 1e-310 is below 1e-9*dt, so the run takes no step, as at
    T = 0: it writes the state at t = 0 once, not once per output time."""
    with open(os.path.join(CONFIGS, "neumann_smoke.ini")) as fh:
        text = fh.read()
    assert "outputs = 6" in text
    path = tmp_path / "run.ini"
    path.write_text(text.replace("T = 0.05", f"T = {T}"))
    out = tmp_path / "out"
    code = cli.main(["simulate", "--config", str(path), "--quiet",
                     "--out", str(out)])
    assert code == cli.EXIT_OK
    snaps = sorted(f for f in os.listdir(out) if f.startswith("snapshot_"))
    assert snaps == ["snapshot_0000.bin"]
    assert read_snapshot(out / snaps[0])[1] == 0.0


@pytest.mark.parametrize("existing", [False, True])
def test_simulate_failing_after_some_outputs_removes_what_it_wrote(
        tmp_path, neumann_config, monkeypatch, existing):
    """Snapshots are written as the run reaches them; a step that fails
    after two of them leaves no snapshot behind, and an existing --out
    keeps only the files it held before."""
    step = solver.step_coupled_neumann

    def fail_late(state, data, cfg, dt):
        if state.t + dt > 0.006:
            raise NewtonError("Newton did not converge")
        return step(state, data, cfg, dt=dt)

    writes = []

    def counted_write(path, *args):
        writes.append(path)
        return write_snapshot(path, *args)

    monkeypatch.setattr(solver, "step_coupled_neumann", fail_late)
    monkeypatch.setattr(cli, "write_snapshot", counted_write)
    out = tmp_path / "out"
    if existing:
        out.mkdir()
        (out / "notes.txt").write_text("kept")
    with pytest.warns(UserWarning, match="retrying"):
        code = cli.main(["simulate", "--config", neumann_config, "--quiet",
                         "--out", str(out)])
    assert code == cli.EXIT_NUMERICAL
    assert [os.path.basename(p) for p in writes] == [
        "snapshot_0000.bin", "snapshot_0001.bin"]
    if existing:
        assert os.listdir(out) == ["notes.txt"]
        assert (out / "notes.txt").read_text() == "kept"
    else:
        assert not out.exists()


def test_simulate_memory_does_not_grow_with_outputs(tmp_path):
    """Each snapshot is written when the run reaches it and then dropped:
    the traced peak of a 3-D run with 50 outputs is that of the same run
    with 5, within two grid fields (keeping them would add about 45 times
    four)."""
    cells = 16
    field_bytes = cells ** 3 * 8
    base = (DIRICHLET_CONFIG.replace("dim = 1", "dim = 3")
            .replace("cells = 32", f"cells = {cells}")
            .replace("T = 0.01", "T = 0.05"))

    def simulate(outputs, name):
        path = tmp_path / f"{name}.ini"
        path.write_text(base.replace("outputs = 3", f"outputs = {outputs}"))
        out = tmp_path / name
        assert cli.main(["simulate", "--config", str(path), "--quiet",
                         "--out", str(out)]) == 0
        assert len(list(out.glob("snapshot_*.bin"))) == outputs

    def traced_peak(outputs):
        tracemalloc.start()
        try:
            simulate(outputs, f"traced{outputs}")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    simulate(5, "warm")  # fills the caches that the traced runs reuse
    growth = traced_peak(50) - traced_peak(5)
    assert growth < 2 * field_bytes, growth


def test_verify_all_memory_does_not_grow_with_outputs(tmp_path):
    """verify-all keeps a running maximum of sup|zeta| instead of every
    snapshot: the traced peak of a 3-D run with 50 outputs is that of the
    same run with 5, within two grid fields (keeping them would add about
    45 times four)."""
    cells = 16
    field_bytes = cells ** 3 * 8
    base = (DIRICHLET_CONFIG.replace("dim = 1", "dim = 3")
            .replace("cells = 32", f"cells = {cells}")
            .replace("T = 0.01", "T = 0.05"))
    codes = []

    def verify(outputs, name):
        path = tmp_path / f"{name}.ini"
        path.write_text(base.replace("outputs = 3", f"outputs = {outputs}"))
        codes.append(cli.main(["verify-all", "--config", str(path),
                               "--quiet", "--out", str(tmp_path / name)]))

    def traced_peak(outputs):
        tracemalloc.start()
        try:
            verify(outputs, f"traced{outputs}")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    verify(5, "warm")  # fills the caches that the traced runs reuse
    growth = traced_peak(50) - traced_peak(5)
    assert codes == [cli.EXIT_OK] * 3
    assert growth < 2 * field_bytes, growth


@pytest.mark.parametrize("nan_at", [0, 2], ids=["first", "later"])
def test_verify_all_saturation_fails_on_a_nan_zeta(tmp_path, monkeypatch,
                                                   capsys, nan_at):
    """A NaN sup|zeta| in any snapshot fails the saturation check, the
    first one or a later one."""
    run, seen = solver.run, []

    def run_with_nan(data, cfg, on_output=None):
        def hook(snap):
            if len(seen) == nan_at:
                snap = replace(snap, zeta=np.full_like(snap.zeta, np.nan))
            seen.append(snap.t)
            on_output(snap)
        return run(data, cfg, on_output=hook)

    monkeypatch.setattr(solver, "run", run_with_nan)
    code = cli.main(["verify-all", "--config",
                     os.path.join(CONFIGS, "neumann_smoke.ini"),
                     "--out", str(tmp_path / "out")])
    assert len(seen) > nan_at + 1
    assert code == cli.EXIT_VERIFICATION
    assert "control saturation: fail (sup |zeta| = nan" in \
        capsys.readouterr().out


def test_simulate_into_an_existing_out_leaves_only_its_own_snapshots(
        tmp_path):
    """A successful simulate removes the snapshots of an earlier run into
    the same --out that it did not overwrite; other files stay."""
    out = tmp_path / "out"
    out.mkdir()
    (out / "notes.txt").write_text("kept")
    for name in ("contdep_g.ini", "neumann_smoke.ini"):
        assert cli.main(["simulate", "--config",
                         os.path.join(CONFIGS, name), "--quiet",
                         "--out", str(out)]) == cli.EXIT_OK
    snaps = sorted(out.glob("snapshot_*.bin"))
    assert [p.name for p in snaps] == [f"snapshot_{k:04d}.bin"
                                       for k in range(6)]
    cfg = configparser.ConfigParser()
    cfg.read(os.path.join(CONFIGS, "neumann_smoke.ini"))
    T = float(cfg["time"]["T"])
    times = [read_snapshot(p)[1] for p in snaps]
    assert times == pytest.approx(np.linspace(0.0, T, 6), abs=1e-12)
    assert (out / "notes.txt").read_text() == "kept"
    assert sorted(p.name for p in out.iterdir()) == sorted(
        ["notes.txt", "diagnostics.csv"] + [p.name for p in snaps])


def test_eps_whose_reciprocal_overflows_is_a_numerical_failure(tmp_path,
                                                              capsys):
    """At eps = 5e-324, 1/eps is already inf: the quartic resolvent names
    eps at once instead of leaving the step to halve on a NaN."""
    with open(os.path.join(CONFIGS, "neumann_smoke.ini")) as fh:
        text = fh.read().replace("eps = 1e-2", "eps = 5e-324")
    path = tmp_path / "eps.ini"
    path.write_text(text)
    code = cli.main(["simulate", "--config", str(path), "--quiet",
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_NUMERICAL
    assert capsys.readouterr().err.startswith(
        "numerical failure: eps = 5e-324 is too small")


def shortened_sliding_reference():
    """The shipped sliding config on 32 cells, with eps = 1e-2 for both
    regularizations and T = 0.05."""
    with open(SLIDING_REFERENCE) as fh:
        return (fh.read().replace("cells = 128", "cells = 32")
                .replace("eps = 1e-3", "eps = 1e-2")
                .replace("T = 1.0", "T = 0.05"))


def test_sliding_check_achieves_sliding_on_shortened_reference(tmp_path,
                                                               capsys):
    """The shortened reference passes; the main run takes the steps that
    sliding-check caps at 0.3*eps*tau/rho."""
    path = tmp_path / "sliding.ini"
    path.write_text(shortened_sliding_reference())
    out = tmp_path / "s"
    code = cli.main(["sliding-check", "--config", str(path),
                     "--out", str(out)])
    stdout = capsys.readouterr().out
    assert code == cli.EXIT_OK
    assert "verdict: achieved" in stdout.splitlines()
    report = (out / "sliding_report.txt").read_text()
    assert report.splitlines()[0] == "verdict: achieved"
    assert "comparison bound: pass" in report
    rho = float(report.split("rho: ")[1].split()[0])
    dt = min(2e-4, 0.3 * 1e-2 * 1.0 / rho)
    assert dt < 2e-4
    rows = (out / "sliding_diagnostics.csv").read_text().splitlines()[1:]
    assert len(rows) == 1 + len(list(smc.step_end_times(0.05, dt)))


def test_sliding_check_on_a_zero_flux_config_is_a_regime_error(
        neumann_config, tmp_path, capsys):
    code = cli.main(["sliding-check", "--config", neumann_config,
                     "--out", str(tmp_path / "s")])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr() == (
        "", "regime error: sliding check needs the Dirichlet regime\n")


def test_sliding_check_rejects_a_target_outside_the_domain_of_beta0(
        tmp_path, capsys, monkeypatch):
    """beta0 of the logarithmic potential is unbounded at phistar = 1, so
    the gain design is undefined: exit 2 before the calibration run, with
    no output written."""
    text = (shortened_sliding_reference()
            .replace("kind = regular", "kind = logarithmic\nc1 = 1.5")
            .replace("phistar = constant value=0.2",
                     "phistar = constant value=1"))
    path = tmp_path / "sliding.ini"
    path.write_text(text)
    monkeypatch.setattr(cli.analysis, "run_sliding_experiment",
                        lambda *a, **kw: pytest.fail("calibration ran"))
    code = cli.main(["sliding-check", "--config", str(path),
                     "--out", str(tmp_path / "s")])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr() == (
        "", "config error: bad value for [data] phistar: value outside "
        "domain [-1.0, 1.0] of beta (logarithmic)\n")
    assert not (tmp_path / "s").exists()


def test_sliding_check_with_T_0_exits_2_before_calibration(tmp_path, capsys,
                                                           monkeypatch):
    """The gain design divides by T: T = 0 is a config error, raised
    before the calibration run and before the output directory is made."""
    path = tmp_path / "sliding.ini"
    path.write_text(shortened_sliding_reference().replace("T = 0.05",
                                                          "T = 0"))
    monkeypatch.setattr(cli.analysis, "run_sliding_experiment",
                        lambda *a, **kw: pytest.fail("calibration ran"))
    code = cli.main(["sliding-check", "--config", str(path),
                     "--out", str(tmp_path / "s")])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr() == (
        "", "config error: bad value for [time] T: the sliding check needs "
        "T > 0, got 0.0\n")
    assert not (tmp_path / "s").exists()


def test_sliding_check_without_drift_exits_2_before_the_controlled_run(
        tmp_path, capsys, monkeypatch):
    """phi0 = phistar = 0 with a zero datum: the calibration measures
    M = 0 and w0 = 0, so the designed gain is 0 and does not exceed M.
    That is a config error, only the calibration runs, and the output
    directory it made is gone."""
    text = (shortened_sliding_reference()
            .replace("cells = 32", "cells = 16")
            .replace("T = 0.05", "T = 0.01")
            .replace("phi0 = cosine amplitude=0.5 mode=1 offset=0.2",
                     "phi0 = constant value=0")
            .replace("phistar = constant value=0.2",
                     "phistar = constant value=0"))
    path = tmp_path / "sliding.ini"
    path.write_text(text)
    run, gains = cli.analysis.run, []

    def counted(data, cfg):
        gains.append(data.control.rho)
        return run(data, cfg)

    monkeypatch.setattr(cli.analysis, "run", counted)
    code = cli.main(["sliding-check", "--config", str(path),
                     "--out", str(tmp_path / "s")])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr() == (
        "", "config error: the designed gain rho = 0.0 does not exceed the "
        "measured drift M_meas = 0.0 (w0 = 0.0): there is nothing for the "
        "control to slide onto\n")
    assert gains == [0.0]
    assert not (tmp_path / "s").exists()


def test_sliding_check_whose_designed_gain_overflows_exits_2(tmp_path,
                                                             capsys):
    """At T = 1e-310, tau*w0/T overflows: the designed gain is not finite,
    a config error naming T and w0 before the controlled run."""
    text = (shortened_sliding_reference()
            .replace("cells = 32", "cells = 16")
            .replace("T = 0.05", "T = 1e-310"))
    path = tmp_path / "sliding.ini"
    path.write_text(text)
    code = cli.main(["sliding-check", "--config", str(path), "--quiet",
                     "--out", str(tmp_path / "s")])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: the designed gain rho = inf is "
                          "not finite: T = 1e-310 is too short for w0 = ")
    assert not (tmp_path / "s").exists()


def test_sliding_check_accepts_a_target_on_a_closed_endpoint(tmp_path):
    """beta0 of the obstacle potential is 0 on [-1, 1], endpoints
    included, so phistar = 1 is a valid target."""
    text = (shortened_sliding_reference()
            .replace("kind = regular", "kind = obstacle\nc2 = 0.5")
            .replace("phistar = constant value=0.2",
                     "phistar = constant value=1"))
    path = tmp_path / "sliding.ini"
    path.write_text(text)
    code = cli.main(["sliding-check", "--config", str(path), "--quiet",
                     "--out", str(tmp_path / "s")])
    assert code == cli.EXIT_OK


def test_verify_all_exits_4_when_a_check_fails(neumann_config, tmp_path,
                                               capsys, monkeypatch):
    monkeypatch.setattr(
        cli.analysis, "check_mass_conservation",
        lambda traj: cli.analysis.MassReport(passed=False, max_drift=1.0,
                                             tolerance=1e-12))
    code = cli.main(["verify-all", "--config", neumann_config,
                     "--out", str(tmp_path / "v")])
    assert code == cli.EXIT_VERIFICATION
    out = capsys.readouterr().out
    assert "mass conservation: fail (drift 1.000e+00)" in out
    assert "energy decay: pass" in out


def test_out_naming_a_file_exits_2(neumann_config, tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("")
    code = cli.main(["simulate", "--config", neumann_config,
                     "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err.startswith(f"config error: cannot make output directory "
                          f"{out}")


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


@pytest.mark.parametrize("old,new,message", [
    ("kind = regular", "kind = quartic",
     "bad value for [potential] kind: need one of regular, logarithmic, "
     "obstacle, got 'quartic'"),
    ("kind = neumann", "kind = robin",
     "bad value for [bc] kind: need one of neumann, dirichlet, "
     "got 'robin'"),
], ids=["potential", "bc"])
def test_unknown_kind_names_its_section_and_key(tmp_path, capsys, old, new,
                                                message):
    path = tmp_path / "bad.ini"
    path.write_text(NEUMANN_CONFIG.replace(old, new))
    code = cli.main(["simulate", "--config", str(path), "--quiet",
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err.strip() == f"config error: {message}"


REJECTED_CASES = [
    (NEUMANN_CONFIG, "rho = 0", "rho = nan"),
    (NEUMANN_CONFIG, "rho = 0", "rho = inf"),
    (NEUMANN_CONFIG, "T = 0.01", "T = inf"),
    (NEUMANN_CONFIG, "outputs = 3", "outputs = -1"),
    (NEUMANN_CONFIG, "outputs = 3", "outputs = 0"),
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
    # a finite datum whose boundary term 2*datum/h**2 overflows in the
    # harmonic extension that mu starts from, rejected with no numpy
    # warning first
    pytest.param(DIRICHLET_CONFIG, "value=0.1", "value=1.7e308",
                 marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
    # files configparser cannot read: a duplicate key, no section header,
    # a bare % (interpolation syntax)
    (NEUMANN_CONFIG, "dim = 1", "dim = 1\ndim = 2"),
    (NEUMANN_CONFIG, "[grid]\ndim = 1", "dim = 1"),
    (NEUMANN_CONFIG, "offset=0.1", "offset=5%"),
]


@pytest.mark.parametrize("config,old,new", REJECTED_CASES,
                         ids=[getattr(case, "values", case)[2]
                              for case in REJECTED_CASES])
def test_non_finite_or_malformed_values_exit_2(tmp_path, capsys, config,
                                               old, new):
    path = tmp_path / "bad.ini"
    path.write_text(config.replace(old, new))
    code = cli.main(["simulate", "--config", str(path), "--quiet",
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("old,new,message", [
    ("outputs = 3", f"outputs = {10**15}", f"[time] outputs = {10**15} is "
     "more than the 11 times that the run's 10 steps reach"),
    ("outputs = 3", "outputs = 12", "[time] outputs = 12 is more than the "
     "11 times that the run's 10 steps reach"),
    ("cells = 32", f"cells = {10**15}", "the run needs more memory than is "
     "available"),
], ids=["outputs=1e15", "outputs=12", "cells=1e15"])
def test_a_run_larger_than_memory_or_its_steps_exits_2(tmp_path, capsys, old,
                                                       new, message):
    """More outputs than the 10 steps reach, t = 0 included, are rejected
    before their times are allocated; a grid whose arrays cannot be
    allocated is a MemoryError that main reports as a config error.
    10**15 float64 values exceed any address space, so the failing
    allocation allocates nothing."""
    path = tmp_path / "big.ini"
    path.write_text(NEUMANN_CONFIG.replace(old, new))
    out = tmp_path / "out"
    code = cli.main(["simulate", "--config", str(path), "--quiet",
                     "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: " + message)
    assert not out.exists()


def test_outputs_may_reach_every_step_end(tmp_path):
    """11 outputs on a 10-step run: one snapshot at t = 0 and one at each
    step end."""
    path = tmp_path / "every.ini"
    path.write_text(NEUMANN_CONFIG.replace("outputs = 3", "outputs = 11"))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(path), "--quiet",
                     "--out", str(out)]) == cli.EXIT_OK
    times = sorted(read_snapshot(p)[1] for p in out.glob("snapshot_*.bin"))
    assert times == pytest.approx(np.linspace(0.0, 0.01, 11), abs=1e-15)


# (base config, old, new, the key the error names): profiles that load_config
# rejects where they are sampled.  On 32 cells of [0, 1] the cell centers
# are (k + 1/2)/32, and the datum's ramp overflows on the face x = 1 only.
# A ramp of slope 1e307 is finite on the cells, but its zero-flux Laplacian
# at the end cells, 1e307*32, overflows; every run builds that Laplacian.
PROFILE_REJECTED_CASES = {
    "g-tanh-width-0-at-a-center": (
        NEUMANN_CONFIG, "phi0 =",
        "g = tanh_front center=0.015625 width=0\nphi0 =", "[data] g"),
    "g-tanh-width-negative": (
        NEUMANN_CONFIG, "phi0 =", "g = tanh_front center=0.5 width=-1\nphi0 =",
        "[data] g"),
    "phistar-ramp-overflows": (
        NEUMANN_CONFIG, "phi0 =",
        "phistar = ramp slope=1e308 offset=1e308\nphi0 =", "[data] phistar"),
    **{f"phistar-laplacian-overflows-{kind}": (
        config, "phi0 =", "phistar = ramp slope=1e307 offset=0\nphi0 =",
        "[data] phistar")
       for kind, config in (("neumann", NEUMANN_CONFIG),
                            ("dirichlet", DIRICHLET_CONFIG))},
    "phi0-extra-mode": (NEUMANN_CONFIG, "mode=1", "mode=1,2", "[data] phi0"),
    "contdep-shape-overflows": (
        NEUMANN_CONFIG, "[solver]",
        "[contdep]\nshape = cosine amplitude=1e308 offset=1e308\n\n[solver]",
        "[contdep] shape"),
    "datum-overflows-on-a-face": (
        DIRICHLET_CONFIG, "constant value=0.1",
        "ramp slope=1e308 offset=8e307", "[bc] datum"),
}


@pytest.mark.parametrize("config,old,new,where",
                         PROFILE_REJECTED_CASES.values(),
                         ids=PROFILE_REJECTED_CASES.keys())
def test_profiles_rejected_where_sampled_exit_2(tmp_path, capsys, config,
                                                old, new, where):
    path = tmp_path / "bad.ini"
    path.write_text(config.replace(old, new))
    code = cli.main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"config error: bad value for {where}: ")


# (command, section, key, value): the command is the one that reads the key
BAD_VALUE_CASES = [
    ("simulate", "grid", "cells", "abc"),
    ("simulate", "grid", "cells", "8,8"),  # two axes with dim = 1
    ("simulate", "grid", "lengths", "x"),
    # h**2 overflows, or underflows to 0
    ("simulate", "grid", "lengths", "1e300"),
    ("simulate", "grid", "lengths", "1e-320"),
    ("sliding-check", "experiment", "rho_margin", "abc"),
    ("sliding-check", "experiment", "rho_margin", "-1"),
    ("sliding-check", "experiment", "rho_margin", "nan"),
    ("sliding-check", "experiment", "rho_margin", "1"),
    # sliding-check works these out from the run, so every value is refused
    ("sliding-check", "experiment", "dt_stability_factor", "x"),
    ("sliding-check", "experiment", "dt_stability_factor", "0"),
    ("sliding-check", "experiment", "tol_slide", "nope"),
    ("sliding-check", "experiment", "tol_slide", "-1"),
    ("sliding-check", "experiment", "tol_slide", "inf"),
    ("contdep", "contdep", "deltas", "a,b"),
    ("contdep", "contdep", "deltas", "nan"),
    ("contdep", "contdep", "deltas", "1e-2,-1e-2"),
    ("contdep", "contdep", "which", "mu"),
    ("simulate", "data", "tau", "-1"),
    ("simulate", "data", "phi0", "constant value=1.5"),
    ("simulate", "time", "dt", "0"),
    ("simulate", "time", "dt", "1e-320"),  # T/dt overflows
    ("simulate", "time", "T", "-1"),
    ("simulate", "solver", "scheme", "foo"),
    ("simulate", "solver", "eps", "0"),
]

# sliding-check needs the Dirichlet regime, and a phi0 of 1.5 leaves the
# domain of the logarithmic potential only
_BAD_VALUE_BASE = {
    "experiment": DIRICHLET_CONFIG,
    "data": NEUMANN_CONFIG.replace("kind = regular",
                                   "kind = logarithmic\nc1 = 2"),
}


@pytest.mark.parametrize("command,section,key,value", BAD_VALUE_CASES,
                         ids=[f"{k}={v}" for _, _, k, v in BAD_VALUE_CASES])
def test_bad_value_exits_2_naming_its_key(tmp_path, capsys, command,
                                          section, key, value):
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    cp.read_string(_BAD_VALUE_BASE.get(section, NEUMANN_CONFIG))
    if not cp.has_section(section):
        cp.add_section(section)
    cp[section][key] = value  # replaces the value the base sets, if any
    path = tmp_path / "bad.ini"
    with open(path, "w") as fh:
        cp.write(fh)
    code = cli.main([command, "--config", str(path), "--quiet",
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    assert f"[{section}] {key}" in capsys.readouterr().err


# (base config, section, key): a key that no command reads, in a section
# that the base config has or not
UNKNOWN_KEY_CASES = [
    (NEUMANN_CONFIG, "control", "rhoo"),
    (NEUMANN_CONFIG, "solver", "epss"),
    (NEUMANN_CONFIG, "grid", "cell"),
    (NEUMANN_CONFIG, "time", "tt"),
    (NEUMANN_CONFIG, "potential", "c1"),  # read by logarithmic only
    (NEUMANN_CONFIG, "bc", "datum"),  # read by dirichlet only
    # the spectral stepper's mode count is a library setting only
    (NEUMANN_CONFIG, "solver", "n_modes"),
    (DIRICHLET_CONFIG, "data", "phi_0"),
    (DIRICHLET_CONFIG, "experiment", "rho_margn"),
    # sliding-check works these out from the run
    (DIRICHLET_CONFIG, "experiment", "dt_stability_factor"),
    (DIRICHLET_CONFIG, "experiment", "tol_slide"),
    (NEUMANN_CONFIG, "contdep", "delta"),
    (NEUMANN_CONFIG, "experimnt", "rho_margin"),
]


@pytest.mark.parametrize("config,section,key", UNKNOWN_KEY_CASES,
                         ids=[f"{s}.{k}" for _, s, k in UNKNOWN_KEY_CASES])
def test_unknown_key_exits_2_naming_it(tmp_path, capsys, config, section,
                                       key):
    header = f"[{section}]\n"
    if header in config:
        text = config.replace(header, f"{header}{key} = 5\n")
    else:
        text = config + f"\n{header}{key} = 5\n"
    path = tmp_path / "typo.ini"
    path.write_text(text)
    code = cli.main(["simulate", "--config", str(path), "--quiet",
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    assert f"unknown key [{section}] {key}" in capsys.readouterr().err


def test_load_config_types_experiment_and_contdep_values(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(DIRICHLET_CONFIG + "\n[experiment]\nrho_margin = 3\n"
                    "\n[contdep]\nwhich = phistar\n"
                    "shape = ramp slope=2 offset=1\n"
                    "deltas = 1e-1, 1e-2\n")
    data, _, extras = cli.load_config(str(path))
    X = data.grid.meshgrid()
    shape = extras["contdep"].pop("shape")
    np.testing.assert_array_equal(shape(X, 0.0), 2.0 * X[0] + 1.0)
    assert extras == {
        "experiment": {"rho_margin": 3.0},
        "contdep": {"which": "phistar", "deltas": [1e-1, 1e-2]}}


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
g = {g}
phistar = {phistar}
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
    "g": (-1.0, 1.0), "phistar": (-1.0, 1.0), "amp": (-0.6, 0.6),
    "offset": (-0.3, 0.3), "dt": (1e-4, 1e-2), "T": (0.0, 5e-3),
}

# A profile of each kind, as a template whose {v!r} takes the value,
# amplitude or slope drawn for g, phistar or the datum.  Mode "1,1" is one
# mode too many for the 1-D grid, tanh widths include 0, and the last ramp
# overflows wherever it is sampled: each of these is rejected.
_PROFILE_TEMPLATES = st.one_of(
    st.just("constant value={v!r}"),
    st.builds("{} amplitude={{v!r}} mode={} offset={!r}".format,
              st.sampled_from(["cosine", "sine"]),
              st.sampled_from(["1", "2", "1,1"]), st.floats(-0.3, 0.3)),
    st.builds("tanh_front center={!r} width={!r} amplitude={{v!r}}".format,
              st.floats(0.0, 2.0), st.sampled_from([0.0, 0.05, 0.5])),
    st.builds("ramp slope={{v!r}} offset={!r}".format, st.floats(-0.3, 0.3)),
    st.just("ramp slope=1.7e308 offset=1.7e308"),
)

# At most one value is replaced: any key by a non-finite, negative or zero
# value, or any key but dt and T by an extreme finite one (a finite but
# huge T/dt would take that many steps).
_EXTREME_FINITE = [1e-300, 5e-324, 1e300, 1.7e308, -1e300]
_BAD_VALUE = st.one_of(
    st.none(),
    st.tuples(st.sampled_from(sorted(_PROPERTY_RANGES)),
              st.sampled_from([float("nan"), float("inf"), float("-inf"),
                               -1.0, 0.0])),
    st.tuples(st.sampled_from(sorted(set(_PROPERTY_RANGES) - {"dt", "T"})),
              st.sampled_from(_EXTREME_FINITE)))
def _with_outputs_the_run_reaches(config, T, dt):
    """``config`` with its 3 outputs cut to 2 where T < 2*dt (or a NaN)
    leaves the run at most one step end: load_config rejects more outputs
    than the run's step ends plus t = 0, and the property tests are about
    the runs and the other checks."""
    return config if T >= 2 * dt else config.replace("outputs = 3",
                                                     "outputs = 2")


# The property tests run full simulations per example; shrinking a failing
# one through them would take minutes, so a failure reports the example
# Hypothesis found as it is.
_NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)

_MIDDLE_VALUES = {k: 0.5 * (lo + hi)
                  for k, (lo, hi) in _PROPERTY_RANGES.items()}
_CONSTANT_PROFILES = dict.fromkeys(("g", "phistar", "datum"),
                                   "constant value={v!r}")


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow],
          phases=_NO_SHRINK)
@given(dirichlet=st.booleans(),
       potential=st.sampled_from(["regular", "logarithmic\nc1 = {c!r}",
                                  "obstacle\nc2 = {c!r}"]),
       profiles=st.fixed_dictionaries(
           {k: _PROFILE_TEMPLATES for k in ("g", "phistar", "datum")}),
       values=st.fixed_dictionaries(
           {k: st.floats(lo, hi) for k, (lo, hi) in _PROPERTY_RANGES.items()}),
       bad=_BAD_VALUE)
@example(dirichlet=False, potential="regular", profiles=_CONSTANT_PROFILES,
         values=_MIDDLE_VALUES, bad=("tau", 5e-324))
@example(dirichlet=False, potential="regular", profiles=_CONSTANT_PROFILES,
         values=_MIDDLE_VALUES, bad=("ctrl_eps", 1e-300))
@example(dirichlet=True, potential="regular", profiles=_CONSTANT_PROFILES,
         values=dict(_MIDDLE_VALUES, T=0.0), bad=("datum", 1.7e308))
def test_config_either_rejected_or_runs_finite(dirichlet, potential,
                                               profiles, values, bad):
    """Every config either exits 2 or runs to exit 0 with finite fields
    and diagnostics (sup_G_eps is NaN by definition for zero flux); an
    extreme finite value may also exit 3 as a numerical failure, and none
    ends in a traceback.  Values come from working ranges, at most one
    replaced by a non-finite, negative, zero or extreme finite value; g,
    phistar and the datum are profiles of every kind."""
    values = dict(values)
    if bad is not None:
        values[bad[0]] = bad[1]
    c = values.pop("c")
    for key, template in profiles.items():
        values[key] = template.format(v=values[key])
    datum = values.pop("datum")
    if dirichlet:
        bc = f"dirichlet\ndatum = {datum}"
        scheme = "eliminated_dirichlet"
    else:
        bc, scheme = "neumann", "coupled_neumann"
    text = _with_outputs_the_run_reaches(
        PROPERTY_CONFIG, values["T"], values["dt"]).format(
            potential=potential.format(c=c), bc=bc, scheme=scheme, **values)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.ini")
        with open(path, "w") as fh:
            fh.write(text)
        out = os.path.join(tmp, "out")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["simulate", "--config", path, "--quiet",
                             "--out", out])
        event(f"exit {code}")
        if code == cli.EXIT_NUMERICAL:
            # only an extreme finite value may make the numerics fail
            assert bad is not None and bad[1] in _EXTREME_FINITE, text
            assert err.getvalue().startswith("numerical failure:"), text
        else:
            assert code in (cli.EXIT_OK, cli.EXIT_CONFIG), text
        if code != cli.EXIT_OK:
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


# g and phistar of the zero-flux property test: zero, or a smooth profile
_SMOOTH_PROFILES = st.one_of(
    st.just("constant value=0"),
    st.builds("cosine amplitude={!r} mode={} offset={!r}".format,
              st.floats(-1.0, 1.0), st.sampled_from(["1", "2"]),
              st.floats(-1.0, 1.0)))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow],
          phases=_NO_SHRINK)
@given(cells=st.integers(3, 16),
       potential=st.sampled_from(["regular", "logarithmic\nc1 = {c!r}",
                                  "obstacle\nc2 = {c!r}"]),
       c=st.floats(1.0, 3.0, exclude_min=True),
       rho=st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
       g=_SMOOTH_PROFILES, phistar=_SMOOTH_PROFILES,
       values=st.fixed_dictionaries(
           {k: st.floats(lo, hi) for k, (lo, hi) in _PROPERTY_RANGES.items()
            if k in ("length", "ctrl_eps", "tau", "amp", "offset", "dt")}),
       T=st.floats(0.0, 5e-2), galerkin=st.booleans(),
       mode_fraction=st.floats(0.0, 1.0))
def test_zero_flux_runs_conserve_mass_and_dissipate_energy(
        cells, potential, c, rho, g, phistar, values, T, galerkin,
        mode_fraction):
    """Criteria 4 and 6 on the config -> run path: every zero-flux run,
    finite-difference or Galerkin in 1 .. cells modes, keeps mean phi
    within 1e-12*(1 + |m0|) of its start, and at rho = 0 and g = 0 its
    regularized free energy rises by at most the bound of verify-all.
    The Galerkin stepper is a library oracle, so its draws run the loaded
    config through solver.run."""
    text = (_with_outputs_the_run_reaches(PROPERTY_CONFIG, T, values["dt"])
            .replace("cells = 16", f"cells = {cells}")
            .format(potential=potential.format(c=c), bc="neumann",
                    scheme="coupled_neumann", rho=rho, g=g,
                    phistar=phistar, T=T, **values))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.ini")
        with open(path, "w") as fh:
            fh.write(text)
        if galerkin:
            data, cfg, _ = cli.load_config(path)
            n_modes = 1 + round(mode_fraction * (cells - 1))
            diag = solver.run(data, replace(cfg, scheme="galerkin_neumann",
                                            n_modes=n_modes)).diagnostics
            columns = {col: np.array(getattr(diag, col), dtype=float)
                       for col in diag.COLUMNS}
        else:
            code = cli.main(["simulate", "--config", path, "--quiet",
                             "--out", tmp])
            assert code == cli.EXIT_OK, text
            with open(os.path.join(tmp, "diagnostics.csv")) as fh:
                header, *rows = [line.strip().split(",") for line in fh]
            columns = dict(zip(header, np.array(rows, dtype=float).T))
    mean_phi = columns["mean_phi"]
    drift = np.max(np.abs(mean_phi - mean_phi[0]))
    assert drift <= 1e-12 * (1.0 + abs(mean_phi[0])), text
    if rho == 0.0 and g == "constant value=0":
        rise = np.diff(columns["free_energy_reg"])
        assert np.all(rise <= 10 * solver.NEWTON_TOL + 1e-12), text


def _run_python(*args, environ=os.environ):
    src = os.path.dirname(os.path.dirname(chsmc.__file__))
    env = dict(environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True)


_LOADED_SCIPY = ("print(sorted(m for m in sys.modules "
                 "if m.split('.')[0] == 'scipy'))")


def test_cli_import_loads_no_scipy():
    out = _run_python("-c", "import sys, chsmc.cli; " + _LOADED_SCIPY)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("dim,cells", [(1, 128), (2, 128), (3, 24)])
def test_dense_path_simulate_loads_no_scipy(tmp_path, dim, cells):
    """A run on a grid that takes the dense transforms needs only numpy."""
    config = tmp_path / "run.ini"
    config.write_text(DIRICHLET_CONFIG
                      .replace("dim = 1", f"dim = {dim}")
                      .replace("cells = 32", f"cells = {cells}")
                      .replace("T = 0.01", "T = 0.002"))
    argv = ["simulate", "--config", str(config), "--quiet",
            "--out", str(tmp_path / "out")]
    out = _run_python("-c", f"import sys; from chsmc import cli; "
                            f"code = cli.main({argv!r}); " + _LOADED_SCIPY
                      + "; sys.exit(code)")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
    assert len(list((tmp_path / "out").glob("snapshot_*"))) == 3


def test_fft_path_grid_loads_scipy_fft_when_built():
    """scipy.fft is imported by the Grid constructor, before any run."""
    out = _run_python("-c", "import sys; from chsmc.grid import Grid; "
                            "Grid(shape=(129, 128), lengths=(1.0, 1.0)); "
                            "print('scipy.fft' in sys.modules)")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "True"


def test_package_import_loads_submodules_on_demand():
    out = _run_python("-c", "import sys, chsmc; print(sorted(m for m in "
                            "sys.modules if m.startswith('chsmc'))); "
                            "print('numpy' in sys.modules)")
    loaded, numpy_loaded = out.stdout.splitlines()
    assert loaded == "['chsmc', 'chsmc.errors']"
    # the allocator thresholds are set before numpy allocates anything,
    # which keeps the peak memory where glibc's defaults leave it
    assert numpy_loaded == "False"


_FAULTS_OF_A_REPEATED_RUN = """\
import resource
import numpy as np
import chsmc
from chsmc import potentials as pot, smc, solver
from chsmc.grid import Grid

grid = Grid(shape=(128, 128), lengths=(1.0, 1.0))
X, Y = grid.meshgrid()
zero = lambda X, t: np.zeros_like(X[0])
data = solver.ProblemData(
    grid=grid, spec=pot.regular(), g=zero, phistar=zero,
    phi0=0.1 + 0.3 * np.cos(2 * np.pi * X) * np.cos(np.pi * Y),
    bc=solver.neumann_bc(), tau=1.0, control=smc.SmcParams(rho=0.5, eps=1e-2))
cfg = solver.SolverConfig(eps=1e-2, dt=1e-4, T=3e-4, scheme="coupled_neumann")
solver.run(data, cfg)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
traj = solver.run(data, cfg)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(traj.diagnostics.newton_iters)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the allocator thresholds are glibc's")
def test_repeated_run_reuses_its_heap_pages():
    """A second 3-step 128^2 zero-flux run in one process finds every page
    its temporaries need already mapped.  With glibc's start-up
    thresholds the freed top of the heap went back to the kernel after
    each iteration, and the run took over 2,000 minor page faults."""
    environ = {k: v for k, v in os.environ.items()
               if k != "GLIBC_TUNABLES" and not (
                   k.startswith("MALLOC_") and k.endswith("_"))}
    out = _run_python("-c", _FAULTS_OF_A_REPEATED_RUN, environ=environ)
    assert out.returncode == 0, out.stderr
    faults, iters = out.stdout.splitlines()
    assert iters == "[0, 2, 2, 2]"  # the run solves at every step
    assert int(faults) < 1000


def _fake_libc(glibc=True, accepts=(1, 1)):
    """A stand-in C library with ``mallopt`` (unless ``accepts`` is
    None), returning ``accepts`` in turn, and ``gnu_get_libc_version``
    where ``glibc``; and the list its ``mallopt`` records calls in."""
    calls = []
    libc = types.SimpleNamespace()
    if glibc:
        libc.gnu_get_libc_version = lambda: b"2.35"
    if accepts is not None:
        def mallopt(param, value):
            calls.append((param, value))
            return accepts[len(calls) - 1]
        libc.mallopt = mallopt
    return libc, calls


_MMAP_THEN_TRIM = [(-3, 32 << 20), (-1, 64 << 20)]


@pytest.mark.parametrize("libc_kw,environ,want", [
    ({}, {}, _MMAP_THEN_TRIM),
    ({}, {"PATH": "/bin", "MALLOC_ARENA_MAX": "2"}, _MMAP_THEN_TRIM),
    ({"glibc": False}, {}, []),
    ({"accepts": None}, {}, []),
    ({}, {"MALLOC_TRIM_THRESHOLD_": "131072"}, []),
    ({}, {"MALLOC_MMAP_THRESHOLD_": "131072"}, []),
    ({}, {"GLIBC_TUNABLES": "glibc.malloc.trim_threshold=131072"}, []),
    # a rejected mmap threshold leaves glibc's dynamic policy on, which
    # the trim threshold alone would switch off
    ({"accepts": (0, 1)}, {}, _MMAP_THEN_TRIM[:1]),
], ids=["glibc", "unrelated_variables", "not_glibc", "no_mallopt",
        "trim_variable", "mmap_variable", "tunables", "mmap_rejected"])
def test_allocator_thresholds_set_only_on_untuned_glibc(libc_kw, environ,
                                                         want):
    libc, calls = _fake_libc(**libc_kw)
    assert chsmc._keep_heap_mapped(libc, environ) is (want == _MMAP_THEN_TRIM)
    assert calls == want


def test_module_entry_point_does_not_import_itself_again():
    probe = ("import runpy, sys\n"
             "sys.argv = ['chsmc', '--help']\n"
             "try:\n"
             "    runpy.run_module('chsmc.cli', run_name='__main__', "
             "alter_sys=True)\n"
             "except SystemExit as exc:\n"
             "    assert exc.code == 0, exc.code\n"
             "print('chsmc.cli imported:', 'chsmc.cli' in sys.modules)\n")
    out = _run_python("-c", probe)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "chsmc.cli imported: False"


def test_module_entry_point_runs_without_runtime_warning():
    out = _run_python("-W", "error::RuntimeWarning", "-m", "chsmc.cli",
                      "--help")
    assert out.returncode == 0, out.stderr
    assert "usage: chsmc" in out.stdout


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("T", ["0", "0.01"])
def test_phi0_whose_free_energy_overflows_exits_2(tmp_path, capsys, T):
    """A finite phi0 of 1e300 overflows the quartic energy: at T = 0 the
    run used to exit 0 with a NaN free energy, and at T > 0 exit 3.  It
    exits 2 with no numpy warning first."""
    config = tmp_path / "run.ini"
    config.write_text(NEUMANN_CONFIG
                      .replace("amplitude=0.4", "amplitude=1e300")
                      .replace("T = 0.01", f"T = {T}"))
    code = cli.main(["simulate", "--config", str(config), "--quiet",
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    assert "phi0 has a free energy that is not finite" in (
        capsys.readouterr().err)


def test_numerical_error_exit_code(tmp_path, neumann_config, monkeypatch,
                                   capsys):
    def fail(*args, **kwargs):
        raise NewtonError("Newton did not converge")
    monkeypatch.setattr(chsmc.solver, "step_coupled_neumann", fail)
    with pytest.warns(UserWarning, match="retrying"):
        code = cli.main(["simulate", "--config", neumann_config, "--quiet",
                         "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_NUMERICAL
    assert capsys.readouterr().err == (
        "numerical failure: step from t = 0 to 0.001 failed even after "
        "halving 8 times: Newton did not converge\n")


@pytest.mark.parametrize("flags,message", [
    # eps >= w0 makes the comparison-ODE integration ill-posed
    (["--w0", "0.5", "--M", "1", "--rho", "5", "--eps", "0.5"],
     "eps in (0, w0)"),
    (["--w0", "0.5", "--M", "1", "--rho", "5", "--eps", "0.6"],
     "eps in (0, w0)"),
    (["--w0", "1", "--M", "1", "--rho", "0.5"], "rho > M"),
    (["--w0", "1", "--M", "1", "--rho", "inf"], "rho > M"),
    (["--w0", "1", "--M", "1", "--rho", "5", "--dt", "0"], "dt > 0"),
    (["--w0", "1", "--M", "1", "--rho", "5", "--T", "-1"], "T >= 0"),
    # T/dt and the RK4 substep count overflow
    (["--w0", "1", "--M", "1", "--rho", "5", "--dt", "1e-320", "--T", "1"],
     "finite T/dt"),
    (["--w0", "0", "--M", "1", "--rho", "5", "--eps", "1e-320",
      "--T", "0.01"], "finite T/dt"),
    (["--w0", "0", "--M", "1", "--rho", "5", "--eps", "5e-324",
      "--T", "0.01"], "finite T/dt"),
    # finite, but more RK4 substeps or output steps than the cap
    (["--w0", "0", "--M", "1", "--rho", "5", "--eps", "1e-300"],
     "substeps in all"),
    (["--w0", "1", "--M", "1", "--rho", "5", "--dt", "1e-300", "--T", "1"],
     "substeps in all"),
    # non-finite w0, tau and eps are named, not printed as NaN rows
    (["--w0", "nan", "--M", "1", "--rho", "5"], "finite w0 >= 0"),
    (["--w0", "inf", "--M", "1", "--rho", "5"], "finite w0 >= 0"),
    (["--w0", "0", "--M", "1", "--rho", "5", "--tau", "inf"],
     "finite tau > 0"),
    (["--w0", "0", "--M", "1", "--rho", "5", "--eps", "inf"],
     "finite eps > 0"),
])
def test_ode_oracle_invalid_flags_exit_2(capsys, flags, message):
    code = cli.main(["ode-oracle"] + flags)
    assert code == cli.EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert "config error: invalid flags" in err and message in err


def test_ode_oracle_last_row_at_T(capsys):
    code = cli.main(["ode-oracle", "--w0", "1", "--M", "1", "--rho", "5",
                     "--dt", "0.03", "--T", "0.05"])
    assert code == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert [float(r.split(",")[0]) for r in rows] == [0.0, 0.03, 0.05]


def test_ode_oracle_output(capsys):
    code = cli.main(["ode-oracle", "--w0", "0", "--M", "1", "--rho", "4",
                     "--eps", "0.01", "--dt", "0.001", "--T", "0.02"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("T* = ")
    header = out.splitlines()[1]
    assert header == "t,w_numeric,w_limit_closed_form,w_eps_closed_form"
    # every value is the repr of a Python float
    for row in out.splitlines()[2:]:
        assert all(repr(float(v)) == v for v in row.split(","))


_README_DESIGN = ["--Chat", "0.5", "--Cstr", "0.7", "--betastar", "0.2",
                  "--w0", "1", "--vol", "0.1"]


def _flags(**changed):
    flags = list(_README_DESIGN)
    for key, val in changed.items():
        flags[flags.index(f"--{key}") + 1] = val
    return flags


@pytest.mark.parametrize("flags,code,out,err", [
    (_README_DESIGN, 0,
     "deltastar = 0.7096425623889668\n"
     "rhostar = 2.081551642820257\n"
     "example rho = 2*rhostar = 4.163103285640514: "
     "M = 1.4631032856405144, T* = 0.37037037037037035\n", ""),
    # rhostar = 0 admits no gain rho > rhostar with T* < T
    (_flags(Chat="0", betastar="0", w0="0"), 2, "",
     "config error: invalid flags: need rho > rhostar = 0.0\n"),
    (_flags(vol="50"), 2, "",
     "config error: invalid flags: vol = 50.0 >= deltastar = "
     "0.7096425623889668: gain design undefined\n"),
    (_flags(Cstr="0"), 2, "",
     "config error: invalid flags: need Cstr, tau, T > 0\n"),
], ids=["readme", "rhostar-0", "vol-50", "Cstr-0"])
def test_design_rho_prints_exactly(capsys, flags, code, out, err):
    assert cli.main(["design-rho"] + flags) == code
    assert capsys.readouterr() == (out, err)


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("flag", ["Chat", "Cstr", "betastar", "tau", "w0",
                                  "T", "vol"])
def test_design_rho_names_a_flag_that_is_not_finite(capsys, flag, value):
    flags = (_README_DESIGN + [f"--{flag}", value]
             if flag in ("tau", "T") else _flags(**{flag: value}))
    assert cli.main(["design-rho"] + flags) == cli.EXIT_CONFIG
    assert capsys.readouterr() == (
        "", f"config error: invalid flags: {flag} = {float(value)!r} is "
        "not finite\n")


_ODE_ORACLE = ["--w0", "1", "--M", "1", "--rho", "5"]


@pytest.mark.parametrize("value", ["-1e-3", "-inf", "-nan"])
@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, flags in cli._FLOAT_FLAGS.items()
    for flag in flags])
def test_float_flags_take_negative_numbers_in_any_form(capsys, command, flag,
                                                       value):
    """A separate value such as -1e-3, -inf or -nan reaches the command's
    own check as the joined --flag=value does; argparse alone would take
    it for an option name and stop with 'expected one argument'."""
    base = [command] + (_README_DESIGN if command == "design-rho"
                        else _ODE_ORACLE)
    code = cli.main(base + [f"--{flag}", value])
    separate = capsys.readouterr()
    assert code == cli.main(base + [f"--{flag}={value}"])
    assert separate == capsys.readouterr()
    assert code == cli.EXIT_CONFIG
    assert separate.err.startswith("config error: invalid flags: ")


def test_float_flag_followed_by_a_flag_still_misses_its_value(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["design-rho", "--Chat", "--Cstr", "0.7"])
    assert exc.value.code == 2
    assert "argument --Chat: expected one argument" in capsys.readouterr().err


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


def test_contdep_phi0_perturbation_that_is_not_mean_free_exits_2(tmp_path,
                                                                 capsys):
    """A zero-flux run conserves the mean, so a phi0 perturbation with a
    mean is a config error, not a numerical failure."""
    with open(os.path.join(CONFIGS, "contdep_g.ini")) as fh:
        text = (fh.read().replace("which = g", "which = phi0")
                .replace("shape = cosine amplitude=1 mode=1",
                         "shape = constant value=1"))
    path = tmp_path / "cd.ini"
    path.write_text(text)
    code = cli.main(["contdep", "--config", str(path), "--quiet",
                     "--out", str(tmp_path / "cdout")])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr() == (
        "", "config error: zero-flux regime: phi0 perturbations must be "
        "mean-free\n")
    # the check comes before any run, and leaves no output directory
    assert not (tmp_path / "cdout").exists()


@pytest.mark.parametrize("old,new", [("outputs = 11", "outputs = 1"),
                                     ("T = 0.1", "T = 0")],
                         ids=["outputs=1", "T=0"])
def test_contdep_with_fewer_than_two_output_times_exits_2(tmp_path, capsys,
                                                          monkeypatch, old,
                                                          new):
    """Without an output time after t = 0 every distance is 0 and the
    ratios say nothing: a config error naming [time], before any run and
    before the output directory is made."""
    with open(os.path.join(CONFIGS, "contdep_g.ini")) as fh:
        text = fh.read()
    assert old in text
    path = tmp_path / "cd.ini"
    path.write_text(text.replace(old, new))
    monkeypatch.setattr(cli.analysis, "run",
                        lambda *a, **kw: pytest.fail("a run started"))
    code = cli.main(["contdep", "--config", str(path), "--quiet",
                     "--out", str(tmp_path / "cdout")])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: bad values in [time]: ")
    assert not (tmp_path / "cdout").exists()
