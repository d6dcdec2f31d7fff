"""Batch front end: config parsing, run dispatch, report writing.

Configuration files are INI-style (named sections with ``key = value``
lines).  Spatial profiles come from a small closed set of named shapes
with numeric parameters instead of a general expression language, so a
config fully determines a run::

    [grid]
    dim = 1
    cells = 128
    lengths = 0.5

    [potential]
    kind = regular            ; or logarithmic (c1 = ...), obstacle (c2 = ...)

    [bc]
    kind = dirichlet          ; or neumann
    datum = constant value=0

    [control]
    rho = 0
    eps = 1e-3

    [data]
    tau = 1.0
    g = constant value=0
    phi0 = cosine amplitude=0.5 mode=1 offset=0.2
    phistar = constant value=0.2

    [time]
    dt = 1e-3
    T = 1.0
    outputs = 21              ; >= 1 snapshot times, evenly from 0 to T

    [solver]                      ; optional, as are both its keys
    scheme = eliminated_dirichlet ; the default for dirichlet;
                                  ; coupled_neumann for neumann
    eps = 1e-3                    ; defaults to [control] eps

    [experiment]                  ; optional, read by sliding-check
    rho_margin = 2.0              ; finite, > 1

    [contdep]                     ; optional, read by contdep
    which = g                     ; or phi0, or phistar
    shape = cosine amplitude=1 mode=1
    deltas = 1e-1,1e-2,1e-3       ; finite numbers > 0

The values shown in ``[experiment]`` and ``[contdep]`` are the defaults
that a missing key or section takes.  ``sliding-check`` works out its
sliding tolerance 10*eps*(1 + M/rho) and its step cap 0.3*eps*tau/rho
from the run, so ``[experiment]`` sets only the gain margin.

Profiles: ``constant value=``, ``cosine amplitude= mode= offset=``,
``sine amplitude= mode= offset=``, ``tanh_front center= width= amplitude=
offset=``, ``ramp slope= offset=`` (mode is comma-separated, at most one
per axis, an axis without one taking no factor; width > 0; tanh_front
and ramp act along the first axis).  Every profile, the
``[bc] datum`` and the ``[contdep] shape`` included, is a callable
``(X, t) -> values`` on coordinate arrays: ``g``, ``phistar``, ``phi0``
and the shape are evaluated on the cell centers, the mu datum once per
boundary side on its face centers, with the box lengths of ``[grid]``
fixing the period of the trigonometric profiles.  A profile takes only
the parameters listed for it, each at most once.  A profile that is not
finite where it is evaluated, a ``phistar`` whose discrete Laplacian is
not finite, and a key that the run does not read, in any section, are
config errors.

Exit codes: 0 ok, 2 config error (a ``[solver] scheme`` other than the
one of ``[bc] kind``, such as the library's spectral Galerkin oracle,
a ``[bc] datum`` so large that its harmonic extension overflows, more
``[time] outputs`` than the run's step ends plus t = 0, a run that
needs more memory than is available, an
``--out`` that cannot be made a directory, a ``contdep`` phi0
perturbation that is not mean-free in the zero-flux regime or run with
fewer than two output times, a ``sliding-check`` phistar where beta0 is
not defined, T of 0 or so short that tau*w0/T overflows, or calibration
that leaves no gain above the measured drift, and ``ode-oracle`` and
``design-rho`` flags that the formulas reject, such as a T/dt that
overflows, included), 3 numerical failure (an eps whose 1/eps**3
overflows in the quartic resolvent, for one, or a Newton failure in a
step after ``simulate`` has written some snapshots), 4 verification
failure.  ``simulate`` writes each snapshot when the run reaches it; if
the run then fails, it removes every file it wrote (one that overwrote
an older file of the same name included), and the other files of an
existing ``--out`` stay.  A run that succeeds removes the snapshot files
of an earlier run there that it did not overwrite, so the snapshots in
``--out`` are exactly its own.  A failed command removes the ``--out``
directories that it made (``nest/a/b`` may make three) while they are
empty, so it leaves no trace; it reads ``nest/a/../b`` as ``nest/b``,
lexically, even where ``nest/a`` is a symlink.  A bad argument to the
library raises a ``ParamError``, which is also a ``ValueError`` (see
:mod:`chsmc.errors`).
"""

from __future__ import annotations

import argparse
import configparser
import os
import re
import sys
from dataclasses import replace

import numpy as np

from . import analysis, potentials as pot, smc, solver
from .errors import ChsmcError, ConfigError, ParamError, RegimeError
from .grid import Grid, write_snapshot

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VERIFICATION = 4


# -- profile language ----------------------------------------------------


def parse_profile(text: str, lengths):
    """``name key=value ...`` -> callable (X, t) -> field.

    ``lengths`` are the box lengths, one per axis, that the trigonometric
    profiles scale their modes to.
    """
    parts = text.split()
    if not parts:
        raise ConfigError("empty profile")
    name = parts[0]
    params = {}
    for tok in parts[1:]:
        if "=" not in tok:
            raise ConfigError(f"malformed profile parameter {tok!r}")
        key, val = tok.split("=", 1)
        if key in params:
            raise ConfigError(f"profile {name!r} repeats parameter {key!r}")
        params[key] = val
    read = set()

    def fnum(key, default=None):
        read.add(key)
        if key not in params:
            if default is None:
                raise ConfigError(
                    f"profile {name!r} needs parameter {key!r}")
            return default
        try:
            val = float(params[key])
        except ValueError:
            val = np.nan
        if not np.isfinite(val):
            raise ConfigError(f"profile {name!r}: {key} must be a finite "
                              f"number, got {params[key]!r}")
        return val

    if name == "constant":
        c = fnum("value")
        profile = lambda X, t: np.full_like(X[0], c)
    elif name in ("cosine", "sine"):
        amp = fnum("amplitude")
        off = fnum("offset", 0.0)
        read.add("mode")
        try:
            modes = [int(m) for m in params.get("mode", "1").split(",")]
        except ValueError as exc:
            raise ConfigError(f"profile {name!r}: {exc}") from exc
        if len(modes) > len(lengths):
            raise ConfigError(f"profile {name!r}: {len(modes)} modes for "
                              f"a {len(lengths)}-D grid")
        trig = np.cos if name == "cosine" else np.sin

        def profile(X, t):
            out = np.full_like(X[0], amp)
            for m, x, length in zip(modes, X, lengths):
                out = out * trig(np.pi * m * x / length)
            return out + off
    elif name == "tanh_front":
        c = fnum("center")
        w = fnum("width")
        if not w > 0.0:
            raise ConfigError(f"profile {name!r}: width must be > 0, "
                              f"got {params['width']!r}")
        amp = fnum("amplitude", 1.0)
        off = fnum("offset", 0.0)
        profile = lambda X, t: amp * np.tanh((X[0] - c) / w) + off
    elif name == "ramp":
        s = fnum("slope")
        off = fnum("offset", 0.0)
        profile = lambda X, t: s * X[0] + off
    else:
        raise ConfigError(f"unknown profile {name!r}")
    unread = [key for key in params if key not in read]
    if unread:
        raise ConfigError(f"profile {name!r} takes no parameter "
                          f"{unread[0]!r}")
    return profile


# -- config loading -------------------------------------------------------


class _Config(configparser.ConfigParser):
    """A config file that records which keys :func:`_get` reads."""

    def __init__(self):
        super().__init__(inline_comment_prefixes=(";", "#"))
        self.read_keys = set()

    def check_all_read(self):
        """Reject the first key, in file order, that nothing read."""
        for section in self.sections():
            for key in self[section]:
                if (section, key) not in self.read_keys:
                    raise ConfigError(f"unknown key [{section}] {key}")


def _get(cp, section, key, cast=str, default=None):
    """``cast`` of the value of [section] key, or of ``default`` when the
    config does not set the key; without a default the key is required."""
    cp.read_keys.add((section, cp.optionxform(key)))
    present = cp.has_section(section) and key in cp[section]
    if not present and default is None:
        raise ConfigError(f"missing key [{section}] {key}")
    try:
        return cast(cp[section][key] if present else default)
    except (ValueError, ConfigError, configparser.Error) as exc:
        raise ConfigError(f"bad value for [{section}] {key}: {exc}") from exc


# Casts for _get: each raises ValueError or ConfigError on a malformed or
# out-of-range value, which _get reports with its section and key.

def _list_of(cast):
    return lambda text: [cast(v) for v in text.split(",")]


def _number_above(lo, or_equal=False):
    def cast(text):
        val = float(text)
        if not (lo < val < np.inf or or_equal and val == lo):
            bound = "at least" if or_equal else "above"
            raise ValueError(f"need a finite number {bound} {lo:g}, "
                             f"got {text!r}")
        return val
    return cast


def _per_axis(cast, dim):
    """A list of one value, taken for every axis, or of ``dim`` values."""
    def per_axis(text):
        vals = _list_of(cast)(text)
        if len(vals) not in (1, dim):
            raise ValueError(f"need one value per axis (dim = {dim}) or "
                             f"one for all, got {len(vals)}")
        return vals * (dim // len(vals))
    return per_axis


def _one_of(*choices):
    def cast(text):
        if text not in choices:
            raise ValueError(f"need one of {', '.join(choices)}, "
                             f"got {text!r}")
        return text
    return cast


def _profile_on(lengths, samples):
    """Cast to the profile a text names, which must be finite on every
    coordinate tuple in ``samples`` at t = 0 (profiles ignore t)."""
    def cast(text):
        profile = parse_profile(text, lengths)
        with np.errstate(all="ignore"):
            if not all(np.isfinite(profile(X, 0.0)).all() for X in samples):
                raise ValueError(f"profile {text!r} is not finite")
        return profile
    return cast


# The optional sections: key -> (cast, default text; None casts to a
# profile on the cells).  The designed gain
# rho = rho_margin*(M + tau*w0/T) must exceed the drift bound M.
_OPTIONAL_SECTIONS = {
    "experiment": {"rho_margin": (_number_above(1.0),
                                  repr(smc.RHO_MARGIN))},
    "contdep": {"which": (_one_of("g", "phi0", "phistar"), "g"),
                "shape": (None, "cosine amplitude=1 mode=1"),
                "deltas": (_list_of(_number_above(0.0)), "1e-1,1e-2,1e-3")},
}


# The potential families a config can name: kind -> factory of the
# [potential] section, which reads the family's own keys.
_POTENTIALS = {
    "regular": lambda cp: pot.regular(),
    "logarithmic": lambda cp: pot.logarithmic(
        _get(cp, "potential", "c1", float)),
    "obstacle": lambda cp: pot.double_obstacle(
        _get(cp, "potential", "c2", float)),
}


# [bc] kind -> the one value, and the default, of [solver] scheme
_SCHEMES = {"neumann": "coupled_neumann", "dirichlet": "eliminated_dirichlet"}


def load_config(path):
    """Parse a config file into (ProblemData, SolverConfig, extras).

    ``extras`` maps "experiment" and "contdep" to every key of that
    optional section, cast and checked (the contdep ``shape`` to its
    profile), a key the config does not set taking its default.  A key
    that the run does not read (a misspelt name, a ``c1`` for a regular
    potential) is a config error.
    """
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    cp = _Config()
    try:
        cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc

    dim = _get(cp, "grid", "dim", int)
    cells = _get(cp, "grid", "cells", _per_axis(int, dim))
    lengths = _get(cp, "grid", "lengths", _per_axis(float, dim))
    try:
        grid = Grid(shape=tuple(cells), lengths=tuple(lengths))
    except ValueError as exc:
        raise ConfigError(f"[grid] {exc}") from exc

    kind = _get(cp, "potential", "kind", _one_of(*_POTENTIALS))
    try:
        spec = _POTENTIALS[kind](cp)
    except ValueError as exc:
        raise ConfigError(f"[potential] {exc}") from exc

    X = grid.meshgrid()
    on_cells = _profile_on(lengths, [X])
    bc_kind = _get(cp, "bc", "kind", _one_of(*_SCHEMES))
    if bc_kind == "neumann":
        bc = solver.neumann_bc()
    else:
        bc = solver.dirichlet_bc(_get(cp, "bc", "datum", _profile_on(
            lengths, [F for _, F, _ in grid.boundary_sides()])))

    rho = _get(cp, "control", "rho", float, 0.0)
    ctrl_eps = _get(cp, "control", "eps", float)
    try:
        control = smc.SmcParams(rho=rho, eps=ctrl_eps)
    except ParamError as exc:
        raise ConfigError(f"[control] {exc}") from exc
    tau = _get(cp, "data", "tau", float)
    g = _get(cp, "data", "g", on_cells, "constant value=0")
    phistar = _get(cp, "data", "phistar", on_cells, "constant value=0")
    phi0 = _get(cp, "data", "phi0", on_cells)(X, 0.0)

    # the profiles are static, so d_t phistar = 0, and Lap phistar is the
    # discrete zero-flux Laplacian of the sampled target, taken once
    from .grid import laplacian_neumann
    with np.errstate(all="ignore"):
        lap_target = laplacian_neumann(grid, phistar(X, 0.0))
    if not np.isfinite(lap_target).all():
        raise ConfigError("bad value for [data] phistar: its discrete "
                          "Laplacian is not finite")

    try:
        data = solver.ProblemData(
            grid=grid, spec=spec, phi0=phi0, g=g, phistar=phistar, bc=bc,
            tau=tau, control=control,
            dphistar_dt=lambda X, t: np.zeros_like(X[0]),
            lap_phistar=lambda X, t: lap_target)
    except ConfigError as exc:
        raise ConfigError(f"[data] {exc}") from exc

    dt = _get(cp, "time", "dt", _number_above(0.0))
    T = _get(cp, "time", "T", _number_above(0.0, or_equal=True))
    n_out = _get(cp, "time", "outputs", int, 11)
    if n_out < 1:
        raise ConfigError(f"[time] outputs must be at least 1, got {n_out}: "
                          "the state at t = 0 is always written")
    # a T/dt that overflows is SolverConfig's error, below; a run that
    # takes no step (T = 0, or below 1e-9*dt) writes only the state at
    # t = 0
    nsteps = smc.step_count(T, dt) if T / dt < np.inf else 0
    if nsteps and n_out > nsteps + 1:
        raise ConfigError(
            f"[time] outputs = {n_out} is more than the {nsteps + 1} times "
            f"that the run's {nsteps} steps reach, t = 0 included")
    output_times = list(np.linspace(0.0, T, n_out)) if nsteps else []
    scheme = _get(cp, "solver", "scheme", _one_of(*_SCHEMES.values()),
                  _SCHEMES[bc_kind])
    eps = _get(cp, "solver", "eps", _number_above(0.0), ctrl_eps)
    try:
        cfg = solver.SolverConfig(eps=eps, dt=dt, T=T, scheme=scheme,
                                  output_times=output_times)
    except ConfigError as exc:  # each value is checked; T/dt is not
        raise ConfigError(f"bad value for [time] dt: {exc}") from exc
    if _SCHEMES[bc_kind] != scheme:
        raise ConfigError(f"scheme {scheme!r} incompatible with bc "
                          f"{bc_kind!r}")

    extras = {section: {key: _get(cp, section, key, cast or on_cells, dflt)
                        for key, (cast, dflt) in keys.items()}
              for section, keys in _OPTIONAL_SECTIONS.items()}
    cp.check_all_read()
    return data, cfg, extras


# -- commands -------------------------------------------------------------


def _say(args, text):
    if not args.quiet:
        print(text)


def _outdir(args):
    # normalised, so that a/../b makes b alone (.. read lexically)
    out = os.path.normpath(args.out or "chsmc-out")
    # the directories that makedirs is about to make, from the leaf up,
    # for main to remove while empty
    args.made_out, head = [], out
    while head and not os.path.exists(head):
        args.made_out.append(head)
        head = os.path.dirname(head)
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:  # a file of that name, or no permission
        raise ConfigError(f"cannot make output directory {out}: "
                          f"{exc.strerror}") from exc
    return out


# the names cmd_simulate gives its snapshot files
_SNAPSHOT_NAME = re.compile(r"snapshot_[0-9]{4,}\.bin")


def cmd_simulate(args) -> int:
    data, cfg, _ = load_config(args.config)
    out = _outdir(args)
    written = []  # every file the run writes, for a failure to remove

    def write(snap):
        written.append(os.path.join(out, f"snapshot_{len(written):04d}.bin"))
        write_snapshot(written[-1], data.grid, snap.t, snap.phi)

    try:
        traj = solver.run(data, cfg, on_output=write)
        count = len(written)
        written.append(os.path.join(out, "diagnostics.csv"))
        traj.diagnostics.to_csv(written[-1])
    except BaseException:
        for path in written:
            if os.path.exists(path):
                os.remove(path)
        raise
    # an earlier run's snapshots past this run's count would read as part
    # of this run; the other files of --out stay
    own = {os.path.basename(path) for path in written}
    for name in os.listdir(out):
        if _SNAPSHOT_NAME.fullmatch(name) and name not in own:
            os.remove(os.path.join(out, name))
    _say(args, f"wrote {count} snapshots and diagnostics to {out}")
    return EXIT_OK


# The explicit control term is stable for dt*rho/(tau*eps) up to about 1;
# sliding-check steps the gain-rho run at most this fraction of that bound.
_SLIDING_DT_FACTOR = 0.3


def cmd_sliding_check(args) -> int:
    data, cfg, extras = load_config(args.config)
    if data.bc.kind != "dirichlet":
        raise RegimeError("sliding check needs the Dirichlet regime")
    if not cfg.T > 0.0:
        raise ConfigError("bad value for [time] T: the sliding check needs "
                          f"T > 0, got {cfg.T!r}")
    # the design needs beta0 bounded at the target; profiles ignore t
    try:
        pot.beta0(data.spec, data.phistar(data.grid.meshgrid(), 0.0))
    except ParamError as exc:
        raise ConfigError(f"bad value for [data] phistar: {exc}") from exc
    out = _outdir(args)

    def make_data(rho):
        return replace(data, control=smc.SmcParams(
            rho=rho, eps=data.control.eps))

    def make_cfg(rho):
        dt = cfg.dt
        if rho > 0:
            dt = min(dt, _SLIDING_DT_FACTOR * data.control.eps * data.tau
                     / rho)
        return replace(cfg, dt=dt)

    report, comparison, traj = analysis.run_sliding_experiment(
        make_data, make_cfg, T=cfg.T, tau=data.tau,
        rho_margin=extras["experiment"]["rho_margin"])
    traj.diagnostics.to_csv(os.path.join(out, "sliding_diagnostics.csv"))
    lines = [
        f"verdict: {report.verdict}",
        f"rho: {report.rho!r}",
        f"eps: {report.eps!r}",
        f"w0: {report.w0!r}",
        f"M_meas: {report.M_meas!r}  (measured drift, not a certified "
        "constant)",
        f"Tstar_bound: {report.Tstar_bound!r}",
        f"Tstar_observed: {report.Tstar_observed!r}",
        f"tol_slide: {report.tol_slide!r}",
        f"comparison bound: {'pass' if comparison.passed else 'fail'} "
        f"(worst margin {comparison.worst_margin!r}, "
        f"tol {comparison.tol_cmp!r})",
    ]
    with open(os.path.join(out, "sliding_report.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    _say(args, "\n".join(lines))
    ok = report.verdict == "achieved" and comparison.passed
    return EXIT_OK if ok else EXIT_VERIFICATION


def cmd_contdep(args) -> int:
    data, cfg, extras = load_config(args.config)
    if len(cfg.output_times) < 2:
        raise ConfigError("bad values in [time]: contdep compares the runs "
                          "at two or more output times, so it needs a step "
                          f"and outputs >= 2, got {len(cfg.output_times)}")
    cd = extras["contdep"]
    which = cd["which"]
    out = _outdir(args)
    report = analysis.contdep_experiment(data, cfg, which, cd["shape"],
                                         cd["deltas"])
    path = os.path.join(out, "contdep.csv")
    with open(path, "w") as fh:
        fh.write("delta,lhs,rhs,ratio\n")
        for row in report.rows:
            fh.write(f"{row.delta!r},{row.lhs!r},{row.rhs!r},"
                     f"{row.ratio!r}\n")
    _say(args, f"perturbation target: {which}; ratio spread "
               f"{report.ratio_spread:.3g}; wrote {path}")
    return EXIT_OK


def cmd_ode_oracle(args) -> int:
    try:
        tstar = smc.sliding_time(args.w0, args.M, args.rho, args.tau)
        times, w_num = smc.ode_weps_integrate(args.eps, args.M, args.rho,
                                              args.tau, args.w0, args.dt,
                                              args.T)
    except ParamError as exc:
        raise ConfigError(f"invalid flags: {exc}") from exc
    print(f"T* = tau*w0/(rho - M) = {tstar!r}")
    print("t,w_numeric,w_limit_closed_form" +
          (",w_eps_closed_form" if args.w0 == 0 else ""))
    # about 20 rows, the last one at T
    stride = max(1, len(times) // 20)
    for k in list(range(0, len(times) - 1, stride)) + [len(times) - 1]:
        t = float(times[k])
        w_lim = float(smc.ode_w_closed_form(args.w0, args.M, args.rho,
                                            args.tau, t))
        row = f"{t!r},{float(w_num[k])!r},{w_lim!r}"
        if args.w0 == 0:
            row += f",{float(smc.ode_weps_closed_form_zero(args.eps, args.M, args.rho, args.tau, t))!r}"
        print(row)
    return EXIT_OK


def cmd_design_rho(args) -> int:
    try:
        design = smc.design_parameters(args.Chat, args.Cstr, args.betastar,
                                       args.tau, args.w0, args.T, args.vol)
    except ParamError as exc:
        raise ConfigError(f"invalid flags: {exc}") from exc
    print(f"deltastar = {design.deltastar!r}")
    print(f"rhostar = {design.rhostar!r}")
    print(f"example rho = {smc.RHO_MARGIN:g}*rhostar = {design.rho!r}: "
          f"M = {design.M!r}, T* = {design.Tstar!r}")
    return EXIT_OK


def cmd_verify_all(args) -> int:
    data, cfg, _ = load_config(args.config)
    out = _outdir(args)
    failures = []
    # the saturation check needs only the largest sup|zeta| over the
    # snapshots, so none is kept; np.maximum carries a NaN on, so a NaN
    # in any snapshot fails the check
    sup_zeta = -np.inf

    def saturation(snap):
        nonlocal sup_zeta
        sup_zeta = float(np.maximum(sup_zeta, data.grid.sup_norm(snap.zeta)))

    traj = solver.run(data, cfg, on_output=saturation)
    traj.diagnostics.to_csv(os.path.join(out, "verify_diagnostics.csv"))
    if data.bc.kind == "neumann":
        mass = analysis.check_mass_conservation(traj)
        status = "pass" if mass.passed else "fail"
        _say(args, f"mass conservation: {status} "
                   f"(drift {mass.max_drift:.3e})")
        if not mass.passed:
            failures.append("mass")
    if data.control.rho == 0.0 and data.bc.kind == "neumann":
        # the energy identity has a +integral of g*phi_t term, so only an
        # unforced run must dissipate; profiles ignore t, so g(X, 0) decides
        if np.any(data.g(data.grid.meshgrid(), 0.0) != 0.0):
            _say(args, "energy decay: not checked (g is not 0)")
        else:
            fe = np.asarray(traj.diagnostics.free_energy_reg)
            diss_ok = bool(np.all(np.diff(fe)
                                  <= 10 * solver.NEWTON_TOL + 1e-12))
            _say(args, f"energy decay: {'pass' if diss_ok else 'fail'}")
            if not diss_ok:
                failures.append("energy")
    zeta_ok = sup_zeta <= data.control.rho + 1e-12
    _say(args, f"control saturation: {'pass' if zeta_ok else 'fail'} "
               f"(sup |zeta| = {sup_zeta:.3e}, rho = {data.control.rho})")
    if not zeta_ok:
        failures.append("zeta")
    return EXIT_OK if not failures else EXIT_VERIFICATION


# The float flags of the flag-driven commands and their defaults (None:
# the flag is required).
_FLOAT_FLAGS = {
    "ode-oracle": {"w0": None, "M": None, "rho": None, "tau": 1.0,
                   "eps": 1e-3, "dt": 1e-3, "T": 1.0},
    "design-rho": {"Chat": None, "Cstr": None, "betastar": None,
                   "tau": 1.0, "w0": None, "T": 1.0, "vol": None},
}


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _join_float_values(argv: list) -> list:
    """``argv`` with each float flag of a flag-driven command joined to
    the number after it (``--Chat -1e-3`` becomes ``--Chat=-1e-3``).
    argparse takes a separate -1e-3, -inf or -nan for an option name, so
    such a value would never reach the command's own check; anything that
    is not a number is left for argparse to judge."""
    command = argv[0] if argv else None
    flags = {f"--{flag}" for flag in _FLOAT_FLAGS.get(command, ())}
    out = []
    for arg in argv:
        if out and out[-1] in flags and _is_float(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="chsmc",
        description="Viscous Cahn-Hilliard simulator with sliding-mode "
                    "control")
    sub = p.add_subparsers(dest="command", required=True)

    def with_config(sp):
        sp.add_argument("--config", required=True, help="config file path")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--quiet", action="store_true")

    with_config(sub.add_parser("simulate", help="run one simulation"))
    with_config(sub.add_parser("sliding-check",
                               help="calibrate, design the gain and verify "
                                    "the sliding property"))
    with_config(sub.add_parser("contdep",
                               help="continuous-dependence ratio sweep"))
    with_config(sub.add_parser("verify-all",
                               help="run the property checks on a config"))

    for command, text in (
            ("ode-oracle", "comparison ODE: closed forms vs integration"),
            ("design-rho", "volume threshold and minimal gain")):
        sp = sub.add_parser(command, help=text)
        for flag, default in _FLOAT_FLAGS[command].items():
            sp.add_argument(f"--{flag}", type=float, default=default,
                            required=default is None)
    return p


_COMMANDS = {
    "simulate": cmd_simulate,
    "sliding-check": cmd_sliding_check,
    "contdep": cmd_contdep,
    "verify-all": cmd_verify_all,
    "ode-oracle": cmd_ode_oracle,
    "design-rho": cmd_design_rho,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(
        _join_float_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RegimeError as exc:
        print(f"regime error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ChsmcError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError:
        print("config error: the run needs more memory than is available "
              "(too many [grid] cells or [time] outputs?)", file=sys.stderr)
        return EXIT_CONFIG
    finally:  # every command that succeeds writes into its --out
        for path in getattr(args, "made_out", ()):
            if os.path.isdir(path):  # makedirs may have failed below it
                if os.listdir(path):
                    break
                os.rmdir(path)


if __name__ == "__main__":
    sys.exit(main())
