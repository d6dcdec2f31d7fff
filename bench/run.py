"""chsmc benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 bench/run.py --workload sliding_1d --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; chsmc is imported from ``src/``
(nothing needs installing).  Every workload instance runs in a fresh
single-threaded process (bench/worker.py).  With ``--trace 0`` the run
first starts a few set-up probes (processes that stop as the first time
step begins), then full instances until ``--seconds`` is used up, and
reports medians of wall_s, setup_s, solve_s and peak_rss_mb.  With
``--trace 1`` it alternates untraced and traced instances and reports the
per-layer metrics of the traced ones plus the tracing overhead.

Prints a human-readable report, writes it with the environment and every
sample to ``.bench_out/``, and ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
See NOTES.md for the workloads, the metrics and the expected links
between them.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, BENCH_DIR)

from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 5      # set-up-only processes per untraced run
MIN_INSTANCES = 3     # full instances per untraced run, even past --seconds
RUN_DEADLINE = 160.0  # seconds; no instance is started that would end later
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {"wall_s": "s", "setup_s": "s", "solve_s": "s",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "potentials.resolvent.calls": "count",
    "potentials.resolvent.self_s": "s",
    "potentials.resolvent.cells_per_s": "cells/s",
    "potentials.beta_eps.calls": "count",
    "potentials.beta_eps_prime.calls": "count",
    "potentials.free_energy.self_s": "s",
    "smc.sign_eps.calls": "count",
    "smc.sign_eps.self_s": "s",
    "grid.inverse.calls": "count",
    "grid.inverse.self_s": "s",
    "grid.inverse.us_per_call": "us",
    "grid.laplacian.calls": "count",
    "grid.laplacian.self_s": "s",
    "grid.harmonic_extension.calls": "count",
    "grid.harmonic_extension.self_s": "s",
    "grid.dual_norm.self_s": "s",
    "grid.snapshot.bytes": "bytes",
    "grid.snapshot.self_s": "s",
    "solver.steps": "count",
    "solver.step_attempts": "count",
    "solver.step_failures": "count",
    "solver.accept_ratio": "ratio",
    "solver.newton_iters_per_step": "count",
    "solver.grid_calls_per_newton": "count",
    "solver.step.self_s": "s",
    "solver.diagnostics_s": "s",
    "analysis.runs": "count",
    "analysis.calibration_s": "s",
    "analysis.self_s": "s",
    "cli.load_config_s": "s",
    "cli.write_s": "s",
    "cli.bytes_written": "bytes",
    "trace.overhead": "ratio",
    "trace.unattributed_s": "s",
}


def environment(args):
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: "1" for v in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
    }


class Runner:
    """Starts worker processes for one workload and collects their results."""

    def __init__(self, args):
        self.args = args
        self.t0 = time.monotonic()
        self.count = 0
        self.work = os.path.join(OUT, f"work-{os.getpid()}")
        os.makedirs(self.work, exist_ok=True)
        env = dict(os.environ)
        env.update({v: "1" for v in THREAD_VARS})
        env["PYTHONHASHSEED"] = "0"
        env.pop("PYTHONPATH", None)
        self.env = env

    def elapsed(self):
        return time.monotonic() - self.t0

    def instance(self, mode, spans=None):
        """Run one worker; returns its result dict, with ``failure`` set
        when it did not finish cleanly."""
        self.count += 1
        workdir = os.path.join(self.work, str(self.count))
        os.makedirs(workdir)
        result_path = os.path.join(workdir, "result.json")
        cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
               "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--size", self.args.size,
               "--mode", mode, "--workdir", workdir,
               "--result", result_path, "--src", SRC]
        if spans:
            cmd += ["--spans", spans]
        timeout = max(1.0, RUN_DEADLINE - self.elapsed())
        spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen(cmd + ["--spawn", repr(spawn)], cwd=ROOT,
                                env=self.env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True)
        try:
            _, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            result = {"mode": mode, "failure": f"timed out after "
                                               f"{timeout:.0f} s"}
        else:
            if proc.returncode != 0:
                tail = err.strip().splitlines()[-1:] or [""]
                result = {"mode": mode, "failure": f"worker exited "
                          f"{proc.returncode}: {tail[0]}"}
            else:
                with open(result_path) as fh:
                    result = json.load(fh)
                if result.get("problems"):
                    result["failure"] = "; ".join(result["problems"])
        shutil.rmtree(workdir, ignore_errors=True)
        return result

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


def _median(results, key):
    return statistics.median(r[key] for r in results)


def measure(runner, seconds):
    """Untraced run: set-up probes, then full instances."""
    probes = [runner.instance("setup") for _ in range(SETUP_PROBES)]
    full = []
    while True:
        res = runner.instance("full")
        full.append(res)
        typical = statistics.median(r.get("wall_s", 0.0) for r in full)
        ends = runner.elapsed() + typical
        if ends > RUN_DEADLINE or (len(full) >= MIN_INSTANCES
                                   and ends > seconds):
            break
    ok = [r for r in full if "failure" not in r]
    setups = [r for r in probes + full if "failure" not in r]
    metrics = {}
    if ok and setups:
        metrics = {k: _median(ok, k) for k in END_TO_END if k != "setup_s"}
        metrics["setup_s"] = _median(setups, "setup_s")
    failed_probes = [r for r in probes if "failure" in r]
    return metrics, full + failed_probes, {"probes": probes, "full": full}


def measure_traced(runner, seconds, spans_path):
    """Traced run: alternate untraced and traced instances."""
    plain, traced = [], []
    while True:
        plain.append(runner.instance("full"))
        traced.append(runner.instance("traced", spans=spans_path))
        pair = traced[-1].get("wall_s", 0.0) + plain[-1].get("wall_s", 0.0)
        if runner.elapsed() + pair > min(seconds, RUN_DEADLINE):
            break
    ok_plain = [r for r in plain if "failure" not in r]
    ok_traced = [r for r in traced if "failure" not in r]
    metrics = {}
    if ok_plain and ok_traced:
        for name in PER_LAYER:
            if not name.startswith("trace."):
                metrics[name] = statistics.median(
                    r["per_layer"][name] for r in ok_traced)
        metrics["trace.overhead"] = (_median(ok_traced, "wall_s")
                                     / _median(ok_plain, "wall_s") - 1.0)
        metrics["trace.unattributed_s"] = statistics.median(
            r["accounting"]["unattributed_s"] for r in ok_traced)
    for r in ok_traced:
        problem = accounting_problem(r)
        if problem:
            r["failure"] = problem
    return metrics, plain + traced, {"plain": plain, "traced": traced}


def accounting_problem(r):
    """Spans must nest: the self times of all spans add up to the time the
    top-level spans cover, and no self time is negative."""
    acc = r["accounting"]
    slack = 1e-6 * r["wall_s"] + 1e-9 * acc["spans"]
    if abs(acc["self_sum_s"] - acc["top_level_s"]) > slack:
        return (f"span self times {acc['self_sum_s']:.6f} s do not add up "
                f"to the top-level spans {acc['top_level_s']:.6f} s")
    if acc["min_self_s"] < -1e-6:
        return f"negative span self time {acc['min_self_s']:.3e} s"
    return None


def report_lines(args, env, metrics, units, runs, samples):
    lines = [f"chsmc benchmark: workload {args.workload}, seed {args.seed}, "
             f"{args.seconds:g} s, trace {args.trace}",
             "environment: " + ", ".join(
                 f"{k} {env[k]}" for k in ("nproc", "cpu", "python",
                                           "numpy", "scipy")),
             "threads: " + " ".join(f"{k}={v}"
                                    for k, v in env["threads"].items()),
             "instances: " + ", ".join(f"{len(v)} {k}"
                                       for k, v in samples.items())]
    for name, unit in units.items():
        if name in metrics:
            lines.append(f"  {name:36s} {metrics[name]:.6g} {unit}")
    failed = [r for r in runs if "failure" in r]
    lines.append(f"  {'error_rate':36s} {len(failed) / len(runs):.6g} ratio "
                 f"({len(failed)} failed of {len(runs)} attempted)")
    for r in failed:
        lines.append(f"  FAILED ({r['mode']}): {r['failure']}")
    return lines


def traced_breakdown(samples):
    """Layer shares of the first traced instance, as a check that the
    self times plus the unattributed remainder account for the wall."""
    traced = [r for r in samples.get("traced", []) if "accounting" in r]
    if not traced:
        return []
    r = traced[0]
    acc = r["accounting"]
    wall = r["wall_s"]
    lines = [f"traced instance: wall {wall:.4f} s, {acc['spans']} spans"]
    parts = dict(acc["layer_self_s"])
    parts["(start-up before the worker's first line)"] = r["startup_s"]
    parts["(in the worker, under no span)"] = acc["unattributed_s"]
    for name, val in parts.items():
        lines.append(f"  {name:44s} {val:10.4f} s {100 * val / wall:6.1f} %")
    total = sum(parts.values())
    lines.append(f"  {'accounted':44s} {total:10.4f} s "
                 f"{100 * total / wall:6.1f} %")
    return lines


def make_reference():
    """Store the final phi of the unperturbed dirichlet_3d_cli problem
    (both sizes) as computed by the current code."""
    import numpy as np
    from workloads import REFERENCE, dirichlet_inputs, dirichlet_run
    sys.path.insert(0, SRC)
    import chsmc
    from chsmc.grid import read_snapshot
    fields = {}
    for size in ("full", "tiny"):
        inp = dirichlet_inputs(0, size, perturb=False)
        inp["workdir"] = os.path.join(OUT, f"reference-{size}")
        os.makedirs(inp["workdir"], exist_ok=True)
        out = dirichlet_run(chsmc, inp)
        if out["code"] != 0:
            raise SystemExit(f"reference run failed with exit {out['code']}")
        last = f"snapshot_{inp['steps']:04d}.bin"
        fields[size] = read_snapshot(os.path.join(out["out_dir"], last))[2]
        shutil.rmtree(inp["workdir"])
    np.savez_compressed(REFERENCE, **fields)
    print(f"wrote {REFERENCE}")


def bench_workload(args):
    """Measure one workload; returns (report lines, result object)."""
    runner = Runner(args)
    env = environment(args)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            units = PER_LAYER
            metrics, runs, samples = measure_traced(
                runner, args.seconds, os.path.join(OUT, f"{tag}.spans.npz"))
        else:
            units = END_TO_END
            metrics, runs, samples = measure(runner, args.seconds)
    finally:
        runner.close()

    failed = sum(1 for r in runs if "failure" in r)
    lines = report_lines(args, env, metrics, units, runs, samples)
    lines += traced_breakdown(samples)
    with open(os.path.join(OUT, f"{tag}.json"), "w") as fh:
        json.dump({"environment": env, "metrics": metrics,
                   "units": units, "samples": samples,
                   "report": lines}, fh, indent=1)
    return lines, {
        "correct": failed == 0 and set(metrics) == set(units),
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": metrics.get(k, 0.0), "unit": u}
                    for k, u in units.items()},
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"],
                   help="all: every workload in turn, one combined result "
                        "with metrics named <workload>/<metric>")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: a seconds-long version for the "
                        "benchmark's own test")
    p.add_argument("--make-reference", action="store_true",
                   help="regenerate the stored dirichlet_3d_cli reference")
    args = p.parse_args()

    if not os.path.isfile(os.path.join(SRC, "chsmc", "__init__.py")):
        print(f"chsmc sources not found under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    if args.make_reference:
        make_reference()
        return 0
    if args.workload is None:
        p.error("--workload is required")
    # byte-compile once, so set-up time is that of an installed package
    compileall.compile_dir(os.path.join(SRC, "chsmc"), quiet=1)

    if args.workload != "all":
        lines, result = bench_workload(args)
        print("\n".join(lines))
        print(json.dumps(result))
        return 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        lines, result = bench_workload(
            argparse.Namespace(**dict(vars(args), workload=workload)))
        print("\n".join(lines), flush=True)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = m
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
