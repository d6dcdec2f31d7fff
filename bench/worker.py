"""One workload instance in a fresh process; started by run.py.

Modes:
  setup   stop as the first time step begins (a set-up time sample)
  full    run, check, report wall/set-up/solve time and peak memory
  traced  as full, with every layer's public functions wrapped in spans;
          also derives the per-layer metrics and writes the span table

Times are taken on CLOCK_MONOTONIC, which is shared by all processes, so
``--spawn`` (the parent's clock just before it started this process)
makes "from process start" include interpreter start-up and imports.
Writes one JSON object to ``--result``; a non-zero exit means the run
failed before it could report.
"""

import time

T_START = time.clock_gettime(time.CLOCK_MONOTONIC)
P_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class SetupDone(Exception):
    """Raised at the first time step in ``setup`` mode."""


def _install_timers(chsmc, marks, stop_at_first_step):
    """First-step mark on ``solver._advance`` and a timer around every
    ``run`` (looked up as ``chsmc.solver.run`` by cli and as
    ``chsmc.analysis.run`` by analysis)."""
    solver = chsmc.solver
    advance = solver._advance

    def first_step(*args, **kwargs):
        marks["first_step"] = _now()
        solver._advance = advance
        if stop_at_first_step:
            raise SetupDone
        return advance(*args, **kwargs)

    solver._advance = first_step
    marks["solve_s"] = 0.0
    for owner in (chsmc.solver, chsmc.analysis):
        run = owner.run

        def timed_run(*args, _run=run, **kwargs):
            t0 = time.perf_counter()
            try:
                return _run(*args, **kwargs)
            finally:
                marks["solve_s"] += time.perf_counter() - t0

        owner.run = timed_run


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", default="full")
    p.add_argument("--mode", choices=("setup", "full", "traced"),
                   required=True)
    p.add_argument("--spawn", type=float, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--spans", default=None)
    p.add_argument("--src", required=True)
    args = p.parse_args()

    sys.path.insert(0, args.src)
    import chsmc
    if not os.path.abspath(chsmc.__file__).startswith(
            os.path.abspath(args.src) + os.sep):
        raise SystemExit(f"chsmc imported from {chsmc.__file__}, "
                         f"not from {args.src}")
    from workloads import WORKLOADS
    import tracing

    make_inputs, run, check = WORKLOADS[args.workload]
    inp = make_inputs(args.seed, args.size)
    inp["workdir"] = args.workdir

    marks = {}
    tracer = None
    if args.mode == "traced":
        tracer = tracing.Tracer()
        tracer.install(chsmc)
    _install_timers(chsmc, marks, stop_at_first_step=args.mode == "setup")

    result = {"mode": args.mode}
    try:
        out = run(chsmc, inp)
    except SetupDone:
        result["setup_s"] = marks["first_step"] - args.spawn
        _write(args.result, result)
        return
    t_done = _now()
    p_done = time.perf_counter()
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()

    result.update(
        wall_s=t_done - args.spawn,
        setup_s=marks["first_step"] - args.spawn,
        startup_s=T_START - args.spawn,
        solve_s=marks["solve_s"],
        peak_rss_mb=rss / 1024.0,
        problems=check(out, inp),
    )
    if tracer is not None:
        trajs = tracer.run_results
        iters = sum(sum(t.diagnostics.newton_iters[1:]) for t in trajs)
        spans = tracer.arrays()
        metrics, accounting = tracing.per_layer_metrics(
            spans, p_done - P_START, iters)
        result["per_layer"] = metrics
        result["accounting"] = accounting
        if args.spans:
            import numpy as np
            np.savez(args.spans, **spans)
    _write(args.result, result)


def _write(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


if __name__ == "__main__":
    main()
