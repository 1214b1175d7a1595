"""One fresh benchmark process: set up, run the grid, report back.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1

It prints ``ready`` once set up (imports, dataset sampled and written, one
warm-up run per method), then one line ``result <json>``. ``run.py``
starts it, times the set-up and reads its peak RSS; run that instead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK_ROOT = ROOT / ".perfbench_work"
sys.path.insert(0, str(ROOT / "src"))

from imputebench import bench, cli  # noqa: E402
from imputebench.core import SeedSpec, apply_mask  # noqa: E402
from imputebench.datagen import LfmSpec, sample_lfm  # noqa: E402
from imputebench.imputers import make_imputer  # noqa: E402
from imputebench.missingness import PATTERN_TAGS, PatternSpec, generate  # noqa: E402

import summary  # noqa: E402
import tracing  # noqa: E402
from workloads import NOISE, RANK, WORKLOADS, Workload  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def setup(w: Workload, seed: int, workdir: Path) -> tuple[Path, float]:
    """Write the workload's dataset and warm every method up on a throwaway
    input. Returns the data directory and the ``sample_lfm`` time."""
    data_dir = workdir / "data"
    data_dir.mkdir()
    t0 = time.perf_counter()
    matrix = sample_lfm(LfmSpec(m=w.rows, n=w.cols, k=RANK, noise_scale=NOISE),
                        SeedSpec(seed, f"perfbench/{w.name}"))
    lfm_s = time.perf_counter() - t0
    bench.save_csv(matrix.values, data_dir / f"{w.name}.csv")

    small = sample_lfm(LfmSpec(m=40, n=10, k=RANK, noise_scale=NOISE),
                       SeedSpec(seed, "perfbench/warm-up"))
    mask = generate(PatternSpec("mcar", SeedSpec(seed, "perfbench/warm-up-mask")), small)
    ds, _ = bench.standardize_observed(apply_mask(small, mask))
    for tag in w.methods:
        make_imputer(tag).run(ds, SeedSpec(seed, f"perfbench/warm-up/{tag}"))
    return data_dir, lfm_s


def run_grid(w: Workload, data_dir: Path, out_dir: Path, seed: int, jobs: int,
             tracer: tracing.Tracer = None):
    """One in-process ``imputebench bench`` call: (seconds, exit code, report).
    With a tracer the call is the root span instead of being timed."""
    argv = w.bench_argv(str(data_dir), str(out_dir), seed, jobs)
    with contextlib.redirect_stdout(io.StringIO()):
        if tracer is None:
            t0 = time.perf_counter()
            rc = cli.main(argv)
            seconds = time.perf_counter() - t0
        else:
            with tracer.span("cli.main") as root:
                rc = cli.main(argv)
            seconds = root.duration
    report = out_dir / "report.json"
    doc = json.loads(report.read_text()) if report.is_file() else None
    return seconds, rc, doc


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def measure(w: Workload, seed: int, seconds: float, trace: bool, data_dir: Path,
            workdir: Path) -> dict:
    grids, checks = [], {}
    start = time.perf_counter()

    def more() -> bool:
        # one grid at least (the traced run needs exactly one untraced grid
        # to compare with), then only grids that the last one's time says
        # end within ``seconds``
        if trace or not grids:
            return not grids
        return time.perf_counter() - start + grids[-1][0] <= seconds

    # a closed loop: the next grid starts once the previous report is written
    while more():
        grids.append(run_grid(w, data_dir, workdir / f"out{len(grids)}", seed, w.jobs))
    docs = [doc for _, _, doc in grids]
    checks["exit_code"] = all(rc == 0 for _, rc, _ in grids)
    if None in docs:
        return {"checks": checks}
    first = summary.cells_bytes(docs[0])
    counts = [summary.cell_counts(d) for d in docs]
    result = {
        "checks": checks,
        "grid_s": [s for s, _, _ in grids],
        # run.py compares these over every grid of the run, across processes
        "cells_sha256": [hashlib.sha256(summary.cells_bytes(d)).hexdigest() for d in docs],
        "jobs": w.jobs,
        "rmse": summary.rmse_by_method(docs[0]),
        "rmse_vs_col_mean": summary.rmse_vs_col_mean(docs[0]),
        "attempted": sum(a for a, _ in counts),
        "failed": sum(f for _, f in counts),
        "cells_per_grid": counts[0][0],
    }
    if trace:
        tracer, violations = tracing.Tracer(), []
        with tracing.instrument(tracer, violations):
            traced_s, rc, doc = run_grid(w, data_dir, workdir / "traced", seed, 1, tracer)
        checks["exit_code"] = checks["exit_code"] and rc == 0
        if doc is None:
            return result
        # at jobs=2 this is also criterion 8's jobs-invariance at bench scale
        checks["traced_cells_identical_to_untraced"] = summary.cells_bytes(doc) == first
        checks["observed_entries_preserved"] = not violations
        recorded = {s.name for s in tracer.spans}
        missing = sorted(tracing.required_spans(
            w.patterns or PATTERN_TAGS, w.methods, w.adaptive_proportions) - recorded)
        checks["span_coverage"] = not missing
        attempted, failed = summary.cell_counts(doc)
        result["attempted"] += attempted
        result["failed"] += failed
        grid_s = statistics.median(result["grid_s"])
        layers = tracing.layer_metrics(tracer.spans)
        layers["bench.parallel_speedup"] = tracing.busy_time(tracer.spans) / grid_s
        layers["trace.overhead_s"] = traced_s - grid_s if w.jobs == 1 else 0.0
        result.update(traced_s=traced_s, layers=layers, missing_spans=missing,
                      violations=violations[:10])
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    w = WORKLOADS[args.workload]
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=WORK_ROOT))
    try:
        data_dir, lfm_s = setup(w, args.seed, workdir)
        print("ready", flush=True)
        result = measure(w, args.seed, args.seconds, bool(args.trace), data_dir, workdir)
        if "layers" in result:
            result["layers"]["datagen.sample_lfm_s"] = lfm_s
        result["env"] = environment(args.seed)
        print("result " + json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
