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
    outputs = 21

    [solver]
    scheme = eliminated_dirichlet ; or coupled_neumann, or galerkin_neumann
    eps = 1e-3                    ; (with n_modes = 1 .. number of cells)

    [experiment]                  ; optional, read by sliding-check
    rho_margin = 2.0              ; finite, > 1
    dt_stability_factor = 0.3     ; finite, > 0
    tol_slide = auto              ; or a finite number > 0

    [contdep]                     ; optional, read by contdep
    which = g                     ; or phi0, or phistar
    shape = cosine amplitude=1 mode=1
    deltas = 1e-1,1e-2,1e-3       ; finite numbers > 0

Profiles: ``constant value=``, ``cosine amplitude= mode= offset=``,
``sine amplitude= mode= offset=``, ``tanh_front center= width= amplitude=
offset=``, ``ramp slope= offset=`` (mode may be comma-separated per axis;
tanh_front and ramp act along the first axis).  Every profile, the
``[bc] datum`` and the ``[contdep] shape`` included, is a callable
``(X, t) -> values`` on coordinate arrays: ``g``, ``phistar``, ``phi0``
and the shape are evaluated on the cell centers, the mu datum once per
boundary side on its face centers, with the box lengths of ``[grid]``
fixing the period of the trigonometric profiles.

Exit codes: 0 ok, 2 config error, 3 numerical failure, 4 verification
failure.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys

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
        params[key] = val

    def fnum(key, default=None):
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
        return lambda X, t: np.full_like(X[0], c)
    if name in ("cosine", "sine"):
        amp = fnum("amplitude")
        off = fnum("offset", 0.0)
        try:
            modes = [int(m) for m in params.get("mode", "1").split(",")]
        except ValueError as exc:
            raise ConfigError(f"profile {name!r}: {exc}") from exc
        trig = np.cos if name == "cosine" else np.sin

        def profile(X, t, amp=amp, off=off, modes=modes, trig=trig,
                    lengths=lengths):
            out = np.full_like(X[0], amp)
            for a, x in enumerate(X):
                m = modes[a] if a < len(modes) else 0
                out = out * trig(np.pi * m * x / lengths[a])
            return out + off
        return profile
    if name == "tanh_front":
        c = fnum("center")
        w = fnum("width")
        amp = fnum("amplitude", 1.0)
        off = fnum("offset", 0.0)
        return lambda X, t: amp * np.tanh((X[0] - c) / w) + off
    if name == "ramp":
        s = fnum("slope")
        off = fnum("offset", 0.0)
        return lambda X, t: s * X[0] + off
    raise ConfigError(f"unknown profile {name!r}")


# -- config loading -------------------------------------------------------


def _get(cp, section, key, cast=str, default=None):
    if not cp.has_section(section) or key not in cp[section]:
        if default is not None:
            return default
        raise ConfigError(f"missing key [{section}] {key}")
    try:
        return cast(cp[section][key])
    except (ValueError, configparser.Error) as exc:
        raise ConfigError(f"bad value for [{section}] {key}: {exc}") from exc


# Casts for _get: each raises ValueError on a malformed or out-of-range
# value, which _get reports with its section and key.

def _list_of(cast):
    return lambda text: [cast(v) for v in text.split(",")]


def _number_above(lo):
    def cast(text):
        val = float(text)
        if not lo < val < np.inf:
            raise ValueError(f"need a finite number above {lo:g}, "
                             f"got {text!r}")
        return val
    return cast


def _one_of(*choices):
    def cast(text):
        if text not in choices:
            raise ValueError(f"need one of {', '.join(choices)}, "
                             f"got {text!r}")
        return text
    return cast


def _tol_slide(text):
    return None if text == "auto" else _number_above(0.0)(text)


# The optional sections: key -> cast.  The designed gain
# rho = rho_margin*(M + tau*w0/T) must exceed the drift bound M, and a
# tol_slide of "auto" (None) leaves the tolerance to the experiment.
_OPTIONAL_SECTIONS = {
    "experiment": {"rho_margin": _number_above(1.0),
                   "dt_stability_factor": _number_above(0.0),
                   "tol_slide": _tol_slide},
    "contdep": {"which": _one_of("g", "phi0", "phistar"),
                "shape": str,
                "deltas": _list_of(_number_above(0.0))},
}


def _optional_section(cp, section):
    """The keys of an optional section that the config sets, cast."""
    return {key: _get(cp, section, key, cast)
            for key, cast in _OPTIONAL_SECTIONS[section].items()
            if key in cp[section]}


def load_config(path):
    """Parse a config file into (ProblemData, SolverConfig, extras).

    ``extras`` holds the ``[experiment]`` keys the config sets and, under
    "contdep", those of ``[contdep]``, cast and checked; it is empty for a
    config without these sections.
    """
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc

    dim = _get(cp, "grid", "dim", int)
    cells = _get(cp, "grid", "cells", _list_of(int))
    lengths = _get(cp, "grid", "lengths", _list_of(float))
    if len(cells) == 1:
        cells = cells * dim
    if len(lengths) == 1:
        lengths = lengths * dim
    if len(cells) != dim or len(lengths) != dim:
        raise ConfigError("cells/lengths do not match dim")
    try:
        grid = Grid(shape=tuple(cells), lengths=tuple(lengths))
    except ValueError as exc:
        raise ConfigError(f"[grid] {exc}") from exc

    kind = _get(cp, "potential", "kind")
    try:
        if kind == "regular":
            spec = pot.regular()
        elif kind == "logarithmic":
            spec = pot.logarithmic(_get(cp, "potential", "c1", float))
        elif kind == "obstacle":
            spec = pot.double_obstacle(_get(cp, "potential", "c2", float))
        else:
            raise ConfigError(f"unknown potential kind {kind!r}")
    except ValueError as exc:
        raise ConfigError(f"[potential] {exc}") from exc

    bc_kind = _get(cp, "bc", "kind")
    if bc_kind == "neumann":
        bc = solver.neumann_bc()
    elif bc_kind == "dirichlet":
        bc = solver.dirichlet_bc(
            parse_profile(_get(cp, "bc", "datum"), lengths))
    else:
        raise ConfigError(f"unknown bc kind {bc_kind!r}")

    rho = _get(cp, "control", "rho", float, 0.0)
    ctrl_eps = _get(cp, "control", "eps", float)
    try:
        control = smc.SmcParams(rho=rho, eps=ctrl_eps)
    except ParamError as exc:
        raise ConfigError(f"[control] {exc}") from exc
    tau = _get(cp, "data", "tau", float)
    g = parse_profile(_get(cp, "data", "g", str, "constant value=0"),
                      lengths)
    phistar = parse_profile(_get(cp, "data", "phistar", str,
                                 "constant value=0"), lengths)
    phi0_profile = parse_profile(_get(cp, "data", "phi0"), lengths)
    phi0 = phi0_profile(grid.meshgrid(), 0.0)

    # static profiles: target derivatives vanish, curvature from the
    # discrete operator would also work but constants dominate usage
    dphistar_dt = lambda X, t: np.zeros_like(X[0])
    from .grid import laplacian_neumann
    lap_phistar = lambda X, t: laplacian_neumann(grid, phistar(X, t))

    data = solver.ProblemData(grid=grid, spec=spec, phi0=phi0, g=g,
                              phistar=phistar, bc=bc, tau=tau,
                              control=control,
                              dphistar_dt=dphistar_dt,
                              lap_phistar=lap_phistar)

    dt = _get(cp, "time", "dt", float)
    T = _get(cp, "time", "T", float)
    n_out = _get(cp, "time", "outputs", int, 11)
    if n_out < 0:
        raise ConfigError("[time] outputs must be nonnegative")
    # a non-finite T is rejected by SolverConfig below
    output_times = (list(np.linspace(0.0, T, n_out))
                    if 0.0 < T < np.inf else [])
    scheme = _get(cp, "solver", "scheme")
    n_modes = _get(cp, "solver", "n_modes", int, 0)
    if scheme == "galerkin_neumann" and not 1 <= n_modes <= grid.ncells:
        raise ConfigError(f"[solver] n_modes must be in [1, {grid.ncells}] "
                          f"for scheme {scheme}, got {n_modes}")
    cfg = solver.SolverConfig(
        eps=_get(cp, "solver", "eps", float, ctrl_eps),
        dt=dt, T=T, scheme=scheme, n_modes=n_modes,
        output_times=output_times)
    if solver._SCHEME_BC.get(scheme) != bc_kind:
        raise ConfigError(f"scheme {scheme!r} incompatible with bc "
                          f"{bc_kind!r}")

    extras = {}
    if cp.has_section("experiment"):
        extras = _optional_section(cp, "experiment")
    if cp.has_section("contdep"):
        extras["contdep"] = _optional_section(cp, "contdep")
    return data, cfg, extras


# -- commands -------------------------------------------------------------


def _outdir(args):
    out = args.out or "chsmc-out"
    os.makedirs(out, exist_ok=True)
    return out


def cmd_simulate(args) -> int:
    data, cfg, _ = load_config(args.config)
    out = _outdir(args)
    traj = solver.run(data, cfg)
    traj.diagnostics.to_csv(os.path.join(out, "diagnostics.csv"))
    for k, snap in enumerate(traj.snapshots):
        write_snapshot(os.path.join(out, f"snapshot_{k:04d}.bin"),
                       data.grid, snap.t, snap.phi)
    if not args.quiet:
        print(f"wrote {len(traj.snapshots)} snapshots and diagnostics "
              f"to {out}")
    return EXIT_OK


def cmd_sliding_check(args) -> int:
    data, cfg, extras = load_config(args.config)
    if data.bc.kind != "dirichlet":
        raise RegimeError("sliding check needs the Dirichlet regime")
    out = _outdir(args)
    tau, T = data.tau, cfg.T
    margin = extras.get("rho_margin", 2.0)
    stiff_cap = extras.get("dt_stability_factor", 0.3)

    from dataclasses import replace

    def make_data(rho):
        return replace(data, control=smc.SmcParams(
            rho=rho, eps=data.control.eps))

    def make_cfg(rho):
        dt = cfg.dt
        if rho > 0:
            dt = min(dt, stiff_cap * data.control.eps * tau / rho)
        return replace(cfg, dt=dt)

    report, comparison, traj = analysis.run_sliding_experiment(
        make_data, make_cfg, T=T, tau=tau, rho_margin=margin,
        tol_slide=extras.get("tol_slide"))
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
    if not args.quiet:
        print("\n".join(lines))
    ok = report.verdict == "achieved" and comparison.passed
    return EXIT_OK if ok else EXIT_VERIFICATION


def cmd_contdep(args) -> int:
    data, cfg, extras = load_config(args.config)
    out = _outdir(args)
    cd = extras.get("contdep", {})
    which = cd.get("which", "g")
    shape = parse_profile(cd.get("shape", "cosine amplitude=1 mode=1"),
                          data.grid.lengths)
    deltas = cd.get("deltas", [1e-1, 1e-2, 1e-3])
    report = analysis.contdep_experiment(data, cfg, which, shape, deltas)
    path = os.path.join(out, "contdep.csv")
    with open(path, "w") as fh:
        fh.write("delta,lhs,rhs,ratio\n")
        for row in report.rows:
            fh.write(f"{row.delta!r},{row.lhs!r},{row.rhs!r},"
                     f"{row.ratio!r}\n")
    if not args.quiet:
        print(f"perturbation target: {which}; ratio spread "
              f"{report.ratio_spread:.3g}; wrote {path}")
    return EXIT_OK


def cmd_ode_oracle(args) -> int:
    tstar = smc.sliding_time(args.w0, args.M, args.rho, args.tau)
    print(f"T* = tau*w0/(rho - M) = {tstar!r}")
    if args.w0 > 0 and args.eps >= args.w0:
        raise ParamError("need eps in (0, w0)")
    times, w_num = smc.ode_weps_integrate(args.eps, args.M, args.rho,
                                          args.tau, args.w0, args.dt,
                                          args.T)
    print("t,w_numeric,w_limit_closed_form" +
          (",w_eps_closed_form" if args.w0 == 0 else ""))
    stride = max(1, len(times) // 20)
    for k in range(0, len(times), stride):
        t = float(times[k])
        w_lim = smc.ode_w_closed_form(args.w0, args.M, args.rho, args.tau,
                                      t)
        row = f"{t!r},{float(w_num[k])!r},{w_lim!r}"
        if args.w0 == 0:
            row += f",{smc.ode_weps_closed_form_zero(args.eps, args.M, args.rho, args.tau, t)!r}"
        print(row)
    return EXIT_OK


def cmd_design_rho(args) -> int:
    design = smc.design_parameters(args.Chat, args.Cstr, args.betastar,
                                   args.tau, args.w0, args.T, args.vol)
    print(f"deltastar = {design.deltastar!r}")
    print(f"rhostar = {design.rhostar!r}")
    rho = 2.0 * design.rhostar
    design.choose_rho(rho)
    print(f"example rho = 2*rhostar = {rho!r}: M = {design.M!r}, "
          f"T* = {design.Tstar!r}")
    return EXIT_OK


def cmd_verify_all(args) -> int:
    data, cfg, _ = load_config(args.config)
    out = _outdir(args)
    failures = []
    traj = solver.run(data, cfg)
    traj.diagnostics.to_csv(os.path.join(out, "verify_diagnostics.csv"))
    if data.bc.kind == "neumann":
        mass = analysis.check_mass_conservation(traj)
        status = "pass" if mass.passed else "fail"
        print(f"mass conservation: {status} (drift {mass.max_drift:.3e})")
        if not mass.passed:
            failures.append("mass")
    if data.control.rho == 0.0 and data.bc.kind == "neumann":
        fe = np.asarray(traj.diagnostics.free_energy_reg)
        diss_ok = bool(np.all(np.diff(fe) <= 10 * solver.NEWTON_TOL + 1e-12))
        print(f"energy decay: {'pass' if diss_ok else 'fail'}")
        if not diss_ok:
            failures.append("energy")
    sup_zeta = max(data.grid.sup_norm(s.zeta) for s in traj.snapshots)
    zeta_ok = sup_zeta <= data.control.rho + 1e-12
    print(f"control saturation: {'pass' if zeta_ok else 'fail'} "
          f"(sup |zeta| = {sup_zeta:.3e}, rho = {data.control.rho})")
    if not zeta_ok:
        failures.append("zeta")
    return EXIT_OK if not failures else EXIT_VERIFICATION


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

    ode = sub.add_parser("ode-oracle",
                         help="comparison ODE: closed forms vs integration")
    ode.add_argument("--w0", type=float, required=True)
    ode.add_argument("--M", type=float, required=True)
    ode.add_argument("--rho", type=float, required=True)
    ode.add_argument("--tau", type=float, default=1.0)
    ode.add_argument("--eps", type=float, default=1e-3)
    ode.add_argument("--dt", type=float, default=1e-3)
    ode.add_argument("--T", type=float, default=1.0)

    des = sub.add_parser("design-rho",
                         help="volume threshold and minimal gain")
    des.add_argument("--Chat", type=float, required=True)
    des.add_argument("--Cstr", type=float, required=True)
    des.add_argument("--betastar", type=float, required=True)
    des.add_argument("--tau", type=float, default=1.0)
    des.add_argument("--w0", type=float, required=True)
    des.add_argument("--T", type=float, default=1.0)
    des.add_argument("--vol", type=float, required=True)
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
    args = parser.parse_args(argv)
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


if __name__ == "__main__":
    sys.exit(main())
