"""In-memory span tracing around the public functions of each chsmc layer.

A span is (name, start, end, parent) plus an ``ok`` flag and one attached
quantity (cells for the resolvent, bytes for file writes, Newton
iterations for a step).  Spans are appended to flat arrays while the
workload runs and turned into per-layer metrics afterwards; nothing is
aggregated on the hot path.

Functions are wrapped at every name a caller looks up.  ``chsmc.solver``
binds ``inverse_neumann``, ``inverse_dirichlet``, ``laplacian_neumann``
and ``harmonic_extension`` with ``from .grid import ...``, ``analysis``
binds ``run`` and ``inverse_dirichlet`` the same way, ``cli`` binds
``write_snapshot`` and dispatches commands through the ``_COMMANDS``
table, so patching ``chsmc.grid`` alone would miss every call made from
those modules.
"""

from __future__ import annotations

import functools
import os
import time
from array import array

import numpy as np

# (module attribute path, span name).  A name whose first dotted part is
# a layer: potentials, smc, grid, solver, analysis, cli.
WRAPPED = [
    ("potentials.resolvent", "potentials.resolvent"),
    ("potentials.beta_eps", "potentials.beta_eps"),
    ("potentials.beta_eps_prime", "potentials.beta_eps_prime"),
    ("potentials.free_energy", "potentials.free_energy"),
    ("smc.sign_eps", "smc.sign_eps"),
    ("grid.inverse_neumann", "grid.inverse_neumann"),
    ("grid.inverse_dirichlet", "grid.inverse_dirichlet"),
    ("grid.laplacian_neumann", "grid.laplacian_neumann"),
    ("grid.harmonic_extension", "grid.harmonic_extension"),
    ("grid.dual_norm", "grid.dual_norm"),
    ("grid.write_snapshot", "grid.write_snapshot"),
    ("solver.inverse_neumann", "grid.inverse_neumann"),
    ("solver.inverse_dirichlet", "grid.inverse_dirichlet"),
    ("solver.laplacian_neumann", "grid.laplacian_neumann"),
    ("solver.harmonic_extension", "grid.harmonic_extension"),
    ("solver.run", "solver.run"),
    ("solver.step_coupled_neumann", "solver.step"),
    ("solver.step_eliminated_dirichlet", "solver.step"),
    ("solver.step_galerkin_neumann", "solver.step"),
    ("solver.DiagnosticsSeries.to_csv", "solver.to_csv"),
    ("analysis.run", "solver.run"),
    ("analysis.inverse_dirichlet", "grid.inverse_dirichlet"),
    ("analysis.run_sliding_experiment", "analysis.run_sliding_experiment"),
    ("analysis.measure_comparison_drift",
     "analysis.measure_comparison_drift"),
    ("analysis.detect_sliding", "analysis.detect_sliding"),
    ("analysis.check_comparison_bound", "analysis.check_comparison_bound"),
    ("analysis.check_mass_conservation", "analysis.check_mass_conservation"),
    ("cli.main", "cli.main"),
    ("cli.load_config", "cli.load_config"),
    ("cli.write_snapshot", "grid.write_snapshot"),
    ("cli._COMMANDS.simulate", "cli.cmd_simulate"),
]

LAYERS = ("potentials", "smc", "grid", "solver", "analysis", "cli")


def _cells(args, kwargs, out):
    return float(np.size(args[2]))


def _snapshot_bytes(args, kwargs, out):
    return float(os.path.getsize(args[0]))  # write_snapshot(path, ...)


def _csv_bytes(args, kwargs, out):
    return float(os.path.getsize(args[1]))  # to_csv(self, path)


def _newton_iters(args, kwargs, out):
    return float(getattr(out, "newton_iters", 0))


# quantity attached to a span, computed from (args, kwargs, result)
QUANTITY = {
    "potentials.resolvent": _cells,
    "grid.write_snapshot": _snapshot_bytes,
    "solver.to_csv": _csv_bytes,
    "solver.step": _newton_iters,
}


class Tracer:
    """Flat span store plus the wrappers that fill it."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.ok = array("b")
        self.value = array("d")
        self._stack = [-1]
        self._patched = []
        self.run_results = []  # Trajectory objects returned by solver.run

    def _id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name, fn):
        nid = self._id(name)
        quantity = QUANTITY.get(name)
        keep_result = name == "solver.run"
        stack, clock = self._stack, time.perf_counter
        name_id, parent, start, end = (self.name_id, self.parent,
                                       self.start, self.end)
        ok, value, results = self.ok, self.value, self.run_results

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            ok.append(0)
            value.append(0.0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            ok[idx] = 1
            if quantity is not None:
                value[idx] = quantity(args, kwargs, out)
            if keep_result:
                results.append(out)
            return out

        return traced

    def install(self, chsmc):
        """Patch every entry of ``WRAPPED``; one wrapper per function
        object, so a function reachable under two names is one span."""
        wrappers = {}
        for path, name in WRAPPED:
            parts = path.split(".")
            owner = getattr(chsmc, parts[0])
            for part in parts[1:-1]:
                owner = (owner[part] if isinstance(owner, dict)
                         else getattr(owner, part))
            attr = parts[-1]
            fn = owner[attr] if isinstance(owner, dict) else getattr(owner,
                                                                     attr)
            key = id(fn)
            if key not in wrappers:
                wrappers[key] = self.wrap(name, fn)
            self._set(owner, attr, wrappers[key])
            self._patched.append((owner, attr, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._patched):
            self._set(owner, attr, fn)
        self._patched.clear()

    @staticmethod
    def _set(owner, attr, value):
        if isinstance(owner, dict):
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    def arrays(self):
        """Span table as numpy arrays (copies)."""
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "ok": np.frombuffer(self.ok, dtype=np.int8).copy(),
            "value": np.frombuffer(self.value, dtype=np.float64).copy(),
        }


def _nearest_ancestor(parent, mask):
    """Index of the nearest proper ancestor whose ``mask`` is set, or -1."""
    anc = parent.copy()
    while True:
        pending = (anc >= 0) & ~mask[np.maximum(anc, 0)]
        if not pending.any():
            return anc
        anc[pending] = parent[anc[pending]]


def per_layer_metrics(spans, window_s, newton_iters_total):
    """Per-layer metrics from a span table.

    ``window_s`` is the traced process time the spans lie in (from the
    first line of the worker to the written outputs); the part of it no
    top-level span covers is reported as unattributed.
    ``newton_iters_total`` comes from the public ``newton_iters``
    diagnostics column of every trajectory.
    """
    names = list(spans["names"])
    nid, parent = spans["name_id"], spans["parent"]
    dur = spans["end"] - spans["start"]
    value, ok = spans["value"], spans["ok"].astype(bool)
    n = len(dur)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=n)
    self_t = dur - child

    def mask(*wanted):
        ids = [names.index(w) for w in wanted if w in names]
        return np.isin(nid, ids)

    def under(inner, outer):
        return inner & (_nearest_ancestor(parent, outer) >= 0)

    res = mask("potentials.resolvent")
    inv = mask("grid.inverse_neumann", "grid.inverse_dirichlet")
    lap = mask("grid.laplacian_neumann")
    step = mask("solver.step")
    run = mask("solver.run")
    snap = mask("grid.write_snapshot")
    csv = mask("solver.to_csv")
    ana = np.isin(nid, [i for i, s in enumerate(names)
                        if s.startswith("analysis.")])
    cli = np.isin(nid, [i for i, s in enumerate(names)
                        if s.startswith("cli.")])
    steps_ok = int(np.sum(step & ok))
    attempts = int(np.sum(step))
    res_self = float(self_t[res].sum())
    inv_calls = int(inv.sum())
    runs_in_analysis = np.nonzero(under(run, ana))[0]
    cli_writes = under(snap | csv, cli)

    m = {
        "potentials.resolvent.calls": int(res.sum()),
        "potentials.resolvent.self_s": res_self,
        "potentials.resolvent.cells_per_s":
            float(value[res].sum()) / res_self if res_self > 0 else 0.0,
        "potentials.beta_eps.calls": int(mask("potentials.beta_eps").sum()),
        "potentials.beta_eps_prime.calls":
            int(mask("potentials.beta_eps_prime").sum()),
        "potentials.free_energy.self_s":
            float(self_t[mask("potentials.free_energy")].sum()),
        "smc.sign_eps.calls": int(mask("smc.sign_eps").sum()),
        "smc.sign_eps.self_s": float(self_t[mask("smc.sign_eps")].sum()),
        "grid.inverse.calls": inv_calls,
        "grid.inverse.self_s": float(self_t[inv].sum()),
        "grid.inverse.us_per_call":
            1e6 * float(self_t[inv].sum()) / inv_calls if inv_calls else 0.0,
        "grid.laplacian.calls": int(lap.sum()),
        "grid.laplacian.self_s": float(self_t[lap].sum()),
        "grid.harmonic_extension.calls":
            int(mask("grid.harmonic_extension").sum()),
        "grid.harmonic_extension.self_s":
            float(self_t[mask("grid.harmonic_extension")].sum()),
        "grid.dual_norm.self_s": float(self_t[mask("grid.dual_norm")].sum()),
        "grid.snapshot.bytes": int(value[snap].sum()),
        "grid.snapshot.self_s": float(self_t[snap].sum()),
        "solver.steps": steps_ok,
        "solver.step_attempts": attempts,
        "solver.step_failures": attempts - steps_ok,
        "solver.accept_ratio": steps_ok / attempts if attempts else 0.0,
        "solver.newton_iters_per_step":
            newton_iters_total / steps_ok if steps_ok else 0.0,
        "solver.grid_calls_per_newton":
            int(under(inv | lap, step).sum()) / float(value[step].sum())
            if value[step].sum() > 0 else 0.0,
        "solver.step.self_s": float(self_t[step].sum()),
        "solver.diagnostics_s": float(dur[run].sum() - dur[step].sum()),
        "analysis.runs": int(len(runs_in_analysis)),
        "analysis.calibration_s":
            float(dur[runs_in_analysis[0]]) if len(runs_in_analysis) else 0.0,
        "analysis.self_s": float(self_t[ana].sum()),
        "cli.load_config_s": float(dur[mask("cli.load_config")].sum()),
        "cli.write_s": float(dur[cli_writes].sum()),
        "cli.bytes_written": int(value[cli_writes].sum()),
    }
    layer_self = {}
    for layer in LAYERS:
        ids = [i for i, s in enumerate(names) if s.split(".")[0] == layer]
        layer_self[layer] = float(self_t[np.isin(nid, ids)].sum())
    top = float(dur[~has_parent].sum())
    return m, {
        "layer_self_s": layer_self,
        "spans": n,
        "unattributed_s": window_s - top,
        "self_sum_s": float(self_t.sum()),
        "top_level_s": top,
        "min_self_s": float(self_t.min()) if n else 0.0,
    }
