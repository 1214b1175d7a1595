"""The imputebench benchmark: one command for every workload.

    python3 perfbench/run.py --workload classic-grid --seed 1 --seconds 49 --trace 0
    python3 perfbench/run.py --workload all

Each workload runs in fresh processes started here (see ``worker.py``):
an untraced run splits ``--seconds`` over seven grid processes. Set-up is
timed from process start to ready in each and the median reported; the
largest of their peak RSS values is read through ``wait4``.
With ``--trace 0`` the run prints the end-to-end metrics, with ``--trace 1``
the per-layer metrics of one traced grid at jobs=1. Either way it checks
the outputs, prints every metric by name and unit, and ends with one JSON
line: ``{"correct", "attempted", "failed", "metrics"}``. A failed check
makes the run exit 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
# Each untraced run splits --seconds over this many fresh grid processes:
# one process's speed holds for its life but differs from the next one's,
# so the median over several processes is steadier than one process's.
GRID_PROCESSES = 7
BUDGET_S = 170.0

END_TO_END = {
    "grid_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "rmse_vs_col_mean": "ratio",
}


class WorkerFailed(RuntimeError):
    pass


def layer_unit(name: str) -> str:
    if name.endswith("_s") or ".s_per_" in name:
        return "s"
    if name.endswith("_frac") or name.endswith("parallel_speedup"):
        return "ratio"
    if name.endswith("_mb_computed"):
        return "MiB"
    return "count"


def spawn(argv: list[str], deadline: float) -> tuple[float, dict, int]:
    """Run one worker: (seconds from start to ready, its result, its peak
    RSS in KiB). The worker is killed once ``deadline`` passes."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *argv],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        lines = proc.stdout.read().splitlines()
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        timer.cancel()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise WorkerFailed(f"worker {' '.join(argv)} exited with {proc.returncode}")
    results = [json.loads(line[len("result "):]) for line in lines if line.startswith("result ")]
    return setup_s, (results[-1] if results else {}), usage.ru_maxrss


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + BUDGET_S
    argv = ["--workload", name, "--seed", str(seed), "--trace", str(int(trace)),
            "--seconds", str(seconds / GRID_PROCESSES)]
    spawned = [spawn(argv, deadline) for _ in range(1 if trace else GRID_PROCESSES)]
    for _, r, _ in spawned:
        if "grid_s" not in r:
            raise WorkerFailed(f"{name}: grid failed, checks {r.get('checks')}")
    result = spawned[0][1]
    for _, r, _ in spawned[1:]:
        for key in ("grid_s", "cells_sha256", "attempted", "failed"):
            result[key] += r[key]
        for check, ok in r["checks"].items():
            result["checks"][check] = result["checks"][check] and ok
    if not trace:
        result["checks"]["repeat_cells_identical"] = len(set(result["cells_sha256"])) == 1
    setups = [setup_s for setup_s, _, _ in spawned]
    metrics = {
        "grid_s": statistics.median(result["grid_s"]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(maxrss_kib for _, _, maxrss_kib in spawned) / 1024,
        "rmse_vs_col_mean": result["rmse_vs_col_mean"],
    }
    return {"name": name, "seed": seed, "trace": trace, "result": result,
            "setups": setups, "metrics": metrics}


def show(run: dict) -> None:
    r, m = run["result"], run["metrics"]
    w = WORKLOADS[run["name"]]
    print(f"== {run['name']}  seed={run['seed']}  trace={int(run['trace'])}  "
          f"{w.rows}x{w.cols}, {r['cells_per_grid']} cells per grid, jobs={w.jobs}")
    print(f"  grid_s        {m['grid_s']:.4f} s    median of {len(r['grid_s'])} warm grids from "
          f"{len(run['setups'])} processes ({', '.join(f'{s:.3f}' for s in r['grid_s'])})")
    print(f"  setup_s       {m['setup_s']:.4f} s    median of {len(run['setups'])} fresh processes "
          f"({', '.join(f'{s:.3f}' for s in run['setups'])})")
    print(f"  peak_rss_mb   {m['peak_rss_mb']:.1f} MiB  largest ru_maxrss of the grid processes "
          "(the largest single process, not a sum)")
    print(f"  failed_frac   {r['failed'] / r['attempted']:.4f} ratio  "
          f"({r['failed']} of {r['attempted']} cells over every grid of the run)")
    for method, value in r["rmse"].items():
        print(f"  rmse.{method:<17} {value:.6f} std_units  mean missing-entry RMSE")
    print(f"  rmse_vs_col_mean  {m['rmse_vs_col_mean']:.6f} ratio  geometric mean over cells of "
          "RMSE / col-mean RMSE of the same group")
    if run["trace"]:
        layers = r["layers"]
        print(f"  traced grid at jobs=1: {r['traced_s']:.3f} s")
        for key in sorted(layers):
            print(f"    {key:<40} {layers[key]:.6g} {layer_unit(key)}")
        timed = sorted(((v, k) for k, v in layers.items()
                        if k.endswith("_s") and k != "trace.overhead_s"), reverse=True)
        ranking = ", ".join(f"{k} {100 * v / r['traced_s']:.1f}%" for v, k in timed[:4])
        print(f"  largest layers: {ranking}")
        if r["missing_spans"]:
            print(f"  spans never recorded: {', '.join(r['missing_spans'])}")
        for v in r["violations"]:
            print(f"  violation: {v}")
    for check, ok in r["checks"].items():
        print(f"  check {check}: {'ok' if ok else 'FAILED'}")
    print(f"  env {json.dumps(r['env'], sort_keys=True)}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=49.0,
                   help="time to measure grids for, split over the grid processes "
                   "(one grid per process at least)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # a SIGTERM unwinds like an error, so the running worker is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (ROOT / "src" / "imputebench" / "__init__.py").is_file():
        print(f"error: no imputebench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    runs = []
    try:
        for name in names:
            runs.append(run_workload(name, args.seed, args.seconds, bool(args.trace)))
            show(runs[-1])
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(ROOT / ".perfbench_work", ignore_errors=True)

    def metrics(run):
        if run["trace"]:
            values = run["result"]["layers"]
            return {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(values.items())}
        return {k: {"value": run["metrics"][k], "unit": u} for k, u in END_TO_END.items()}

    correct = all(all(run["result"]["checks"].values()) for run in runs)
    line = {
        "correct": correct,
        "attempted": sum(run["result"]["attempted"] for run in runs),
        "failed": sum(run["result"]["failed"] for run in runs),
        "metrics": (metrics(runs[0]) if len(runs) == 1 else
                    {f"{run['name']}/{k}": v for run in runs for k, v in metrics(run).items()}),
    }
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
