"""Benchmark harness: dataset ingestion, standardization, the evaluation
grid, accuracy scoring, and report emission.

For every (dataset, pattern, replicate) group the harness generates one
mask, standardizes the masked dataset on its observed entries, runs every
method on that identical input, and min-max normalizes the per-method RMSE
into an accuracy in [0, 1]. All group randomness derives from
(run seed, dataset name, pattern, replicate), so adding a dataset or
changing parallelism never perturbs another group's numbers. Groups run
with every OpenBLAS loaded when the process's first grid starts held at one
thread, so the cells do not depend on the machine's core count either. That
set is enough: a grid calls only numpy's BLAS, which numpy loads at import.
A BLAS that cannot be pinned keeps its own thread count, as before, and a
host program's other threads also see one BLAS thread while a grid runs.
With ``jobs`` > 1 the groups run in forked worker processes, which inherit
the pin; where ``fork`` is unavailable they run one after another.
Wall-clock timings are reported in a sidecar array rather than inside the
cells, which keeps the cells byte-identical across reruns.
"""

from __future__ import annotations

import csv
import ctypes
import hashlib
import itertools
import json
import os
import signal
import sys
import threading
import time
import warnings
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cache, partial
from pathlib import Path
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from .core import DataMatrix, Mask, MaskedDataset, SeedSpec, apply_mask
from .featurize import featurized_ridge_peak_bytes
from .imputers import Imputer, knn_peak_bytes, run_shared
from .missingness import (
    MASK_STREAM,
    PatternSpec,
    cluster_peak_bytes,
    generate,
    latent_factor_peak_bytes,
    nn_mnar_peak_bytes,
)
from .scheduler import ProportionState, uniform_state
from .scheduler import step as scheduler_step

__all__ = [
    "BenchReport",
    "ColumnStandardization",
    "DatasetFormatError",
    "DatasetRecord",
    "discover_datasets",
    "emit_report",
    "imputation_accuracy",
    "load_csv",
    "load_mask_csv",
    "read_data_csv",
    "refuse_oversize",
    "rmse",
    "run_benchmark",
    "save_csv",
    "save_mask_csv",
    "standardize_observed",
]

SCHEMA_VERSION = "1"


class DatasetFormatError(ValueError):
    """A dataset file violates the numeric-CSV contract."""


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DatasetRecord:
    """A named, fully observed numeric table ready for the grid."""

    name: str
    path: str
    matrix: DataMatrix
    columns: tuple[str, ...] = ()


def read_data_csv(path: Union[str, Path]) -> tuple[np.ndarray, tuple[str, ...]]:
    """Parse a data CSV (header + numeric cells; empty cell = missing NaN).

    ``np.loadtxt`` parses the cells in one pass; where it refuses them, the
    per-cell loop reads the file again, accepting what ``float`` accepts and
    naming a bad cell."""
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetFormatError(f"{path}: file is empty") from None
        values = _loadtxt_cells(fh, len(header))
        if values is None:
            fh.seek(0)
            reader = csv.reader(fh)
            next(reader)
            values = _parse_cells(path, reader, header)
    return values, tuple(h.strip() for h in header)


def _loadtxt_cells(lines: Iterable[str], n_cols: int) -> Optional[np.ndarray]:
    """The rows of ``lines`` through ``np.loadtxt``, or None where it refuses
    them, reads another column count, or meets a blank line, which it would
    skip and the csv rows count. It parses a number as ``float`` does, so
    the bits are the same; the text it refuses and ``float`` accepts (an
    empty cell, ``1_000``, quotes, non-ASCII digits) is left to
    ``_parse_cells``. The lines are read one at a time, not held."""
    lines = iter(lines)
    first = next(lines, "")
    if not first.strip("\r\n"):  # no rows, on which loadtxt warns, or a blank one
        return None
    blank = False

    def rows():
        nonlocal blank
        yield first
        for line in lines:
            if not line.strip("\r\n"):
                blank = True
                return
            yield line

    try:
        values = np.loadtxt(rows(), delimiter=",", comments=None, ndmin=2, dtype=float)
    except ValueError:
        return None
    return None if blank or values.shape[1] != n_cols else values


def _parse_cells(path: Path, reader: Iterable[list[str]], header: list[str]) -> np.ndarray:
    """The csv rows of ``reader``, one ``float`` at a time."""
    rows = []
    for r, row in enumerate(reader):
        if len(row) != len(header):
            raise DatasetFormatError(
                f"{path}: row {r} has {len(row)} cells, header has {len(header)}"
            )
        parsed = []
        for c, cell in enumerate(row):
            text = cell.strip()
            if text == "":
                parsed.append(np.nan)
                continue
            try:
                parsed.append(float(text))
            except ValueError:
                raise DatasetFormatError(
                    f"{path}: non-numeric cell at row {r}, column "
                    f"{header[c]!r}: {cell!r}"
                ) from None
        rows.append(parsed)
    if not rows:
        raise DatasetFormatError(f"{path}: no data rows")
    return np.array(rows, dtype=float)


def load_csv(path: Union[str, Path], name: Optional[str] = None) -> DatasetRecord:
    """Load a benchmark dataset, rejecting any missing or non-finite cell."""
    path = Path(path)
    values, columns = read_data_csv(path)
    holes = np.argwhere(~np.isfinite(values))
    if holes.size:
        listed = ", ".join(
            f"(row {r}, column {columns[c]!r})" for r, c in holes[:10]
        )
        more = "" if holes.shape[0] <= 10 else f" and {holes.shape[0] - 10} more"
        raise DatasetFormatError(
            f"{path}: benchmark datasets must be fully observed and finite; found "
            f"{holes.shape[0]} empty or non-finite cells at {listed}{more}"
        )
    return DatasetRecord(
        name=name or path.stem,
        path=str(path),
        matrix=DataMatrix(values),
        columns=columns,
    )


def save_csv(
    values: np.ndarray,
    path: Union[str, Path],
    columns: Optional[Sequence[str]] = None,
) -> None:
    """Write a data CSV: each value as Python's shortest round-trip ``repr``,
    NaN as an empty cell (``""`` when it is the row's only cell), CRLF line
    ends, as ``csv.writer`` would.

    Rows are converted one at a time, so the writer holds one row of Python
    floats, not the whole table."""
    values = np.asarray(values, dtype=float)
    if columns is None:
        columns = [f"x{j}" for j in range(values.shape[1])]
    # csv.writer quotes a row whose only field is empty; a bare join would
    # leave an empty line, which read_data_csv rejects as a 0-cell row
    lone_empty = '""' if values.shape[1] == 1 else ""
    with Path(path).open("w", newline="") as fh:
        csv.writer(fh).writerow(columns)
        for row in values:
            line = ",".join(["" if v != v else repr(v) for v in row.tolist()])
            fh.write((line or lone_empty) + "\r\n")


def load_mask_csv(path: Union[str, Path]) -> Mask:
    """Read a headerless 0/1 CSV as a Mask."""
    path = Path(path)
    with path.open(newline="") as fh:
        rows = [[cell.strip() for cell in row] for row in csv.reader(fh) if row]
    if not rows:
        raise DatasetFormatError(f"{path}: mask file is empty")
    for r, row in enumerate(rows):
        if len(row) != len(rows[0]):
            raise DatasetFormatError(
                f"{path}: row {r} has {len(row)} cells, row 0 has {len(rows[0])}"
            )
    try:
        arr = np.array([[int(c) for c in row] for row in rows])
    except ValueError:
        raise DatasetFormatError(f"{path}: mask cells must be 0 or 1") from None
    try:
        return Mask(arr)
    except ValueError as exc:
        raise DatasetFormatError(f"{path}: {exc}") from None


def save_mask_csv(mask: Mask, path: Union[str, Path]) -> None:
    with Path(path).open("w", newline="") as fh:
        csv.writer(fh).writerows(row.tolist() for row in mask.indicator)


def discover_datasets(path: Union[str, Path]) -> list[DatasetRecord]:
    """Load every dataset under a directory, or the entries of a JSON manifest.

    A manifest is {"datasets": [{"name": ..., "path": ...}, ...]} with paths
    resolved relative to the manifest file; both are strings, and the name
    may be left out (the file's stem).
    """
    path = Path(path)
    if not path.exists():
        raise DatasetFormatError(f"{path}: no such file or directory")
    if path.is_dir():
        files = sorted(path.glob("*.csv"))
        if not files:
            raise DatasetFormatError(f"{path}: no .csv files found")
        return [load_csv(f) for f in files]
    if path.suffix == ".json":
        doc = json.loads(path.read_text())
        entries = doc.get("datasets") if isinstance(doc, dict) else None
        if not isinstance(entries, list) or not entries:
            raise DatasetFormatError(f"{path}: manifest needs a 'datasets' list")
        records = []
        for entry in entries:
            if not isinstance(entry, dict) or "path" not in entry:
                raise DatasetFormatError(f"{path}: manifest entry {entry!r} has no 'path'")
            if not all(isinstance(entry[k], str) for k in ("path", "name") if k in entry):
                raise DatasetFormatError(
                    f"{path}: manifest entry {entry!r}: 'path' and 'name' must be strings")
            csv_path = Path(entry["path"])
            if not csv_path.is_absolute():
                csv_path = path.parent / csv_path
            records.append(load_csv(csv_path, name=entry.get("name")))
        return records
    raise DatasetFormatError(f"{path}: expected a directory or a .json manifest")


# ---------------------------------------------------------------------------
# Standardization and metrics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ColumnStandardization:
    """Per-column affine map (x - mean) / scale."""

    mean: np.ndarray
    scale: np.ndarray

    def apply(self, values: np.ndarray) -> np.ndarray:
        return (values - self.mean) / self.scale


def standardize_observed(
    ds: MaskedDataset,
) -> tuple[MaskedDataset, ColumnStandardization]:
    """Re-center and re-scale each column on its observed entries.

    Observed entries end up with mean 0 and population variance 1; a column
    with no observed entries, a single one, or zero spread keeps scale 1.
    The whole observed matrix, its NaN holes included, and the ground truth
    (when present) move through the same affine map.
    """
    obs = ds.mask.observed
    n = ds.shape[1]
    mean = np.zeros(n)
    scale = np.ones(n)
    for j in range(n):
        vals = ds.observed[obs[:, j], j]
        if vals.size == 0:
            continue
        mean[j] = vals.mean()
        var = vals.var()
        if var > 0:
            scale[j] = np.sqrt(var)
    params = ColumnStandardization(mean=mean, scale=scale)
    observed = params.apply(ds.observed)
    truth = DataMatrix(params.apply(ds.truth.values)) if ds.truth is not None else None
    return MaskedDataset(mask=ds.mask, observed=observed, truth=truth), params


def rmse(truth: DataMatrix, completed: DataMatrix, mask: Mask) -> float:
    """Root mean squared error over the missing entries only."""
    if truth.shape != completed.shape or truth.shape != mask.shape:
        raise ValueError(
            f"shape mismatch: truth {truth.shape}, completed {completed.shape}, "
            f"mask {mask.shape}"
        )
    missing = np.flatnonzero(mask.indicator == 0)
    if missing.size == 0:
        raise ValueError("RMSE is undefined with no missing entries")
    diff = truth.values.take(missing) - completed.values.take(missing)
    return float(np.sqrt(np.mean(diff**2)))


def imputation_accuracy(rmse_by_method: Mapping[str, float]) -> dict[str, float]:
    """Min-max normalize RMSEs across methods into 1 - normalized RMSE.

    The best method maps to 1, the worst to 0; when every method ties the
    whole group scores 0.5.
    """
    if len(rmse_by_method) < 2:
        raise ValueError("accuracy needs at least 2 methods to normalize over")
    values = np.array(list(rmse_by_method.values()), dtype=float)
    lo, hi = values.min(), values.max()
    if hi == lo:
        return {name: 0.5 for name in rmse_by_method}
    return {
        name: float(1.0 - (r - lo) / (hi - lo)) for name, r in rmse_by_method.items()
    }


# ---------------------------------------------------------------------------
# The grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BenchReport:
    """Everything the grid produced, ready for serialization."""

    config: dict
    cells: list
    aggregates: dict
    timings: list
    dropped_groups: list
    proportion_trajectory: Optional[list] = None


def _dataset_digest(ds: MaskedDataset) -> str:
    h = hashlib.sha256()
    h.update(ds.mask.indicator.tobytes())
    h.update(ds.observed.tobytes())
    return h.hexdigest()[:12]


def _scalar_diagnostics(diag: Mapping) -> dict:
    keep = {}
    for key, value in diag.items():
        if isinstance(value, (bool, int, str)) or value is None:
            keep[key] = value
        elif isinstance(value, float):
            keep[key] = float(value)
    return keep


def _run_group(
    dataset: DatasetRecord,
    spec: PatternSpec,
    replicate: int,
    run_seed: int,
    methods: Sequence[Imputer],
) -> tuple[list, list, Optional[dict]]:
    """The group's cells and each method's wall time in seconds, or no cells
    and the record of why the group was dropped."""
    pattern = spec.pattern
    group_seed = SeedSpec(run_seed, f"{dataset.name}/{pattern}/{replicate}")
    base = {"dataset": dataset.name, "pattern": pattern, "seed": replicate}
    try:
        mask = generate(replace(spec, seed=group_seed.child("mask")), dataset.matrix)
        if mask.n_missing == 0:
            raise ValueError("pattern produced no missing entries")
        masked = apply_mask(dataset.matrix, mask)
        ds, _ = standardize_observed(masked)
    except Exception as exc:  # mask-level failure drops the whole group
        return [], [], {**base, "reason": f"mask generation failed: {exc}"}
    digest = _dataset_digest(ds)
    shared: dict = {}  # seedless runs, dropped with the group (see run_shared)
    cells, seconds, rmses = [], [], {}
    for method in methods:
        cell = {
            **base,
            "method": method.name,
            "input_digest": digest,
            "rmse": None,
            "accuracy": None,
            "diagnostics": {},
            "error": None,
        }
        t0 = time.perf_counter()
        try:
            result = run_shared(method, ds, group_seed.child(method.name), shared)
            elapsed = time.perf_counter() - t0
            cell["rmse"] = rmse(ds.truth, result.completed, ds.mask)
            cell["diagnostics"] = _scalar_diagnostics(result.diagnostics)
            rmses[method.name] = cell["rmse"]
        except Exception as exc:
            elapsed = time.perf_counter() - t0
            cell["error"] = f"{type(exc).__name__}: {exc}"
        cells.append(cell)
        seconds.append(elapsed)
    if len(rmses) < 2:
        return [], [], {
            **base, "reason": f"only {len(rmses)} methods survived; need 2 to normalize"
        }
    acc = imputation_accuracy(rmses)
    for cell in cells:
        if cell["error"] is None:
            cell["accuracy"] = acc[cell["method"]]
    return cells, seconds, None


def _require_unique(what: str, names: list[str]) -> None:
    """Refuse repeated names: they would share group seed streams and report
    keys."""
    if len(set(names)) != len(names):
        raise ValueError(f"{what} must be unique, got {names}")


def _normalize_patterns(
    patterns: Sequence[Union[str, tuple[str, Mapping]]], seed: int
) -> list[tuple[PatternSpec, dict]]:
    """Each pattern as its PatternSpec, which checks its parameters, and the
    caller's overrides as the spec resolved them. Each group runs the spec
    on its own seed."""
    out = []
    for entry in patterns:
        if isinstance(entry, str):
            tag, overrides = entry, {}
        else:
            tag, overrides = entry[0], dict(entry[1])
        spec = PatternSpec(tag, SeedSpec(seed, tag), overrides)
        # mcar is the one generator that accepts a zero rate, and then masks
        # nothing; seq's p_missing is an exploration probability
        if tag == "mcar" and spec.params["p_missing"] == 0:
            raise ValueError(
                f"pattern {tag!r} with p_missing=0 produces no missing entries"
            )
        out.append((spec, {key: spec.params[key] for key in overrides}))
    _require_unique("pattern tags", [spec.pattern for spec, _ in out])
    return out


def _aggregate(cells: Sequence[dict], methods: Sequence[str]) -> dict:
    def stats(values: list[float]) -> dict:
        arr = np.array(values, dtype=float)
        std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
        return {"mean": float(arr.mean()), "std": std, "n_groups": int(arr.size)}

    scores: dict[str, list] = {}
    per_pattern: dict[str, dict] = {}
    runs: dict[str, dict] = {}
    for cell in cells:
        method, pattern = cell["method"], cell["pattern"]
        if cell["accuracy"] is not None:
            scores.setdefault(method, []).append(cell["accuracy"])
            per_pattern.setdefault(pattern, {}).setdefault(method, []).append(
                cell["accuracy"]
            )
        diag = cell["diagnostics"]  # empty unless the cell was scored
        if "converged" in diag:
            runs.setdefault(method, {}).setdefault(pattern, []).append(
                (diag["converged"], diag["iterations"])
            )
    return {
        "per_pattern": {
            pattern: {m: stats(vals) for m, vals in by_method.items()}
            for pattern, by_method in per_pattern.items()
        },
        "overall": {m: stats(scores[m]) for m in methods if m in scores},
        "std_convention": "sample std (ddof=1) across (dataset, replicate) groups",
        "convergence": {
            method: {
                pattern: {
                    "converged_frac": float(np.mean([c for c, _ in pairs])),
                    "mean_iterations": float(np.mean([i for _, i in pairs])),
                    "n_cells": len(pairs),
                }
                for pattern, pairs in by_pattern.items()
            }
            for method, by_pattern in runs.items()
        },
    }


def _load_thread_controls(path: str) -> Optional[tuple[Callable, Callable]]:
    """The (get, set) thread-count functions the library at path exports,
    or None when it cannot be loaded or exports neither."""
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    # plain, ILP64 and scipy-openblas builds name the same two functions
    # differently (numpy's wheel: scipy_openblas_get_num_threads64_)
    for prefix, suffix in itertools.product(("", "scipy_"), ("", "64_", "_64")):
        get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
        set_ = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@cache
def _openblas_thread_controls() -> tuple[tuple[Callable, Callable], ...]:
    """The (get, set) thread-count functions of every OpenBLAS loaded at the
    first call, found through /proc/self/maps or, where that file does not
    exist, among numpy's bundled libraries. Empty when there is none.

    Found once per process: a grid calls only numpy's BLAS, which numpy
    loads at import, so a library loaded later cannot move a cell. Each
    library is also opened once, as a fresh ctypes handle per grid would
    cost time and leave Python heap behind for good."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split(maxsplit=5)[5].strip()
                     for line in fh if "openblas" in line.lower()}
    except OSError:
        root = Path(np.__file__).parent
        paths = {str(p) for d in (root.parent / "numpy.libs", root / ".dylibs")
                 for p in d.glob("*openblas*")}
    found = map(_load_thread_controls, sorted(paths))
    return tuple(controls for controls in found if controls is not None)


class _OneBlasThread:
    """Holds every loaded OpenBLAS at one thread and gives back the previous
    counts on exit, exceptions included. The thread count is process-wide,
    so there is one of these per process: grids that overlap, in one host
    thread or several, share one pin and the last to leave restores. A
    forked ``--jobs`` worker inherits the pinned count."""

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved: list[tuple[Callable, int]] = []

    def __enter__(self) -> None:
        with self._lock:
            if self._depth == 0:
                self._saved = [(set_, get()) for get, set_ in _openblas_thread_controls()]
                for set_, _ in self._saved:
                    set_(1)
            self._depth += 1

    def __exit__(self, *exc) -> None:
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                for set_, count in self._saved:
                    set_(count)


_ONE_BLAS_THREAD = _OneBlasThread()


_PR_SET_PDEATHSIG = 1  # from <linux/prctl.h>

# In a --jobs worker process, the (tasks, run seed, methods) of the grid it
# was forked for; it receives task indices only.
_WORKER_GRID: tuple = ()


def _start_worker(parent: int, tasks: list, seed: int, methods: Sequence[Imputer]) -> None:
    """Initialize a forked ``--jobs`` worker: keep the grid, which fork hands
    over without pickling, and, on Linux, ask for SIGKILL when the thread
    that forked the worker ends, so that a worker does not outlive a killed
    grid. A ``parent`` that died before the request was made is caught by
    the parent pid check."""
    if sys.platform.startswith("linux"):
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
        libc.prctl.restype = ctypes.c_int
        if libc.prctl(_PR_SET_PDEATHSIG, signal.SIGKILL) != 0:
            raise OSError(ctypes.get_errno(), "prctl(PR_SET_PDEATHSIG) failed")
    if os.getppid() != parent:
        os._exit(1)
    global _WORKER_GRID
    _WORKER_GRID = (tasks, seed, methods)


def _run_task(index: int) -> tuple[list, list, Optional[dict]]:
    tasks, seed, methods = _WORKER_GRID
    return _run_group(*tasks[index], seed, methods)


def _run_forked(tasks: list, seed: int, methods: Sequence[Imputer],
                workers: int) -> list:
    """Each task's ``_run_group`` result, in task order, from ``workers``
    forked processes. Only task indices and results are pickled. An
    exception a group raises reaches the caller with its type; a worker
    that dies raises ``BrokenProcessPool``."""
    # imported here: at module import multiprocessing would add ~14 ms to
    # every command
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"),
        initializer=_start_worker, initargs=(os.getpid(), tasks, seed, methods),
    ) as pool:
        return list(pool.map(_run_task, range(len(tasks)),
                             chunksize=max(1, len(tasks) // (4 * workers))))


_CGROUP_MEMORY_MAX = "/sys/fs/cgroup/memory.max"


def _cgroup_memory_limit() -> Optional[int]:
    """The cgroup v2 memory limit in bytes, or None where the file is not
    readable or sets no limit (``max``)."""
    try:
        with open(_CGROUP_MEMORY_MAX) as f:
            text = f.read().strip()
    except OSError:
        return None
    return int(text) if text.isdigit() else None


def _physical_memory() -> Optional[int]:
    """Bytes of memory the process may use: physical memory or the cgroup v2
    limit, whichever is smaller; None where neither is known."""
    try:
        pages = os.sysconf("SC_PHYS_PAGES")
        physical = pages * os.sysconf("SC_PAGE_SIZE") if pages > 0 else None
    except (AttributeError, ValueError, OSError):
        physical = None
    known = [b for b in (physical, _cgroup_memory_limit()) if b is not None]
    return min(known) if known else None


def refuse_oversize(
    shapes: Mapping[str, tuple[int, int]],
    patterns: Sequence[PatternSpec],
    methods: Sequence[Imputer],
    at_once: int = 1,
) -> None:
    """Raise ``ValueError`` before anything runs when a bounded need, for the
    dataset that needs the most, ``at_once`` groups side by side, exceeds the
    memory the process may use (``_physical_memory``).

    ``shapes`` maps each dataset name to its (rows, cols). The bounded needs are knn's m x m
    arrays (``knn_peak_bytes``) and featurized ridge's normal equations
    (``featurized_ridge_peak_bytes``), as a method or as an ensemble base,
    which fits the ensemble's ``n_perms`` index assignments at once, then,
    pattern by pattern, nn-mnar's neighborhood arrays and layer weights at
    the upper ends of its resolved ranges (``nn_mnar_peak_bytes``),
    latent-factor's factors at ``k_high`` (``latent_factor_peak_bytes``) and
    cluster's effects at its cluster counts (``cluster_peak_bytes``). They
    are checked in that order and the first that does not fit is reported.
    """
    knn, ridge = [], []  # needs: (who, what, bytes for an m x n dataset)
    for imputer in methods:
        who, runs = f"method {imputer.name!r}", [(imputer, 1)]
        for run, k in runs:  # an ensemble appends its bases and their assignment count
            if run.method == "ensemble":
                runs += [(Imputer(run.params[base]), run.params["n_perms"])
                         for base in ("base_a", "base_b")]
            elif run.method == "knn":
                knn.append((who, "knn row distances", lambda m, n: knn_peak_bytes(m)))
            elif run.method == "featurized-ridge":
                ridge.append((who, "featurized ridge normal equations",
                              partial(featurized_ridge_peak_bytes, k=k)))
    mask_needs = []
    for spec in patterns:
        who, p = f"pattern {spec.pattern!r}", spec.params
        if spec.pattern == "nn-mnar":
            mask_needs.append((who, "neighborhood arrays and layer weights", partial(
                nn_mnar_peak_bytes, size_hi=p["neighborhood_size_range"][1],
                width_hi=p["width_range"][1], layers_hi=p["layer_range"][1])))
        elif spec.pattern == "latent-factor":
            mask_needs.append((who, "latent factors",
                          partial(latent_factor_peak_bytes, k_high=p["k_high"])))
        elif spec.pattern == "cluster":
            mask_needs.append((who, "cluster effects", partial(
                cluster_peak_bytes, n_row_clusters=p["n_row_clusters"],
                n_col_clusters=p["n_col_clusters"])))
    budget = _physical_memory()
    for who, what, peak in knn + ridge + mask_needs:
        name = max(shapes, key=lambda d: peak(*shapes[d]))
        need = at_once * peak(*shapes[name])
        if budget is not None and need > budget:
            rows, cols = shapes[name]
            groups = "1 group" if at_once == 1 else f"{at_once} groups"
            raise ValueError(
                f"{who} needs {need:,} bytes of {what} for dataset {name!r} "
                f"({rows}x{cols}) with {groups} at once; the process may use "
                f"{budget:,} bytes (physical memory or the cgroup limit, whichever "
                f"is smaller)"
            )


def run_benchmark(
    datasets: Sequence[DatasetRecord],
    patterns: Sequence[Union[str, tuple[str, Mapping]]],
    methods: Sequence[Imputer],
    n_seeds: int = 5,
    seed: int = 0,
    jobs: int = 1,
    adaptive_proportions: bool = False,
    temperature: float = 1.0,
) -> BenchReport:
    """Evaluate every method on every (dataset, pattern, replicate) group.

    Output is deterministic for a fixed seed regardless of ``jobs``: group
    seeds derive from (seed, dataset name, pattern, replicate) and results
    are assembled in canonical grid order. With ``jobs`` > 1, up to ``jobs``
    forked worker processes run the groups (``_run_forked``); where the
    platform cannot fork, the groups run one after another in this process.
    A worker that dies raises ``BrokenProcessPool``. The groups run with
    every loaded OpenBLAS set to one thread, so the cells do not depend on
    the machine's core count; the caller's thread count is restored on
    return or raise. A BLAS without that setter keeps its own count, as
    before. The setting is process-wide, so the host program's other
    threads also see one BLAS thread while the grid runs, and the workers
    inherit it. A grid that would not fit in memory with
    ``jobs`` groups at once is refused up front (``refuse_oversize``), as is
    a bad parameter: ``Imputer`` checks a method's when it is built, and the
    grid builds each pattern's ``PatternSpec``, which checks it, before any
    group runs.
    """
    if not datasets:
        raise ValueError("need at least one dataset")
    if not patterns:
        raise ValueError("need at least one pattern")
    if len(methods) < 2:
        raise ValueError("need at least two methods for accuracy normalization")
    names = [m.name for m in methods]
    _require_unique("method names", names)
    _require_unique("dataset names", [d.name for d in datasets])
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    norm_patterns = _normalize_patterns(patterns, seed)
    specs = [spec for spec, _ in norm_patterns]
    # built before any group runs, so a bad temperature is refused up front
    start = uniform_state([spec.pattern for spec in specs], period=50,
                          temperature=temperature)

    tasks = [
        (dataset, spec, replicate)
        for dataset in datasets
        for spec in specs
        for replicate in range(n_seeds)
    ]
    workers = min(jobs, len(tasks))
    refuse_oversize({d.name: d.matrix.shape for d in datasets}, specs, methods, workers)
    with _ONE_BLAS_THREAD:
        if workers == 1 or not hasattr(os, "fork"):
            results = [_run_group(*task, seed, methods) for task in tasks]
        else:
            results = _run_forked(tasks, seed, methods, workers)

    cells, seconds, dropped = [], [], []
    for group_cells, group_seconds, drop in results:
        cells += group_cells
        seconds += group_seconds
        if drop:
            dropped.append(drop)
    if not cells:
        reasons = Counter(d["reason"] for d in dropped)
        listed = "; ".join(
            f"{reason} ({n} group{'s' if n > 1 else ''})" for reason, n in reasons.items()
        )
        raise ValueError(f"every group was dropped; nothing to aggregate: {listed}")
    if dropped:
        warnings.warn(f"{len(dropped)} groups dropped; see report dropped_groups")

    config = {
        "schema_version": SCHEMA_VERSION,
        "mask_stream": MASK_STREAM,
        "datasets": [d.name for d in datasets],
        "patterns": [
            {"pattern": spec.pattern, "overrides": overrides}
            for spec, overrides in norm_patterns
        ],
        "methods": [
            {"name": m.name, "method": m.method, "params": dict(m.params)} for m in methods
        ],
        "n_seeds": n_seeds,
        "seed": seed,
    }
    return BenchReport(
        config=config,
        cells=cells,
        aggregates=_aggregate(cells, names),
        timings=[{"seconds": s, "index": i} for i, s in enumerate(seconds)],
        dropped_groups=dropped,
        proportion_trajectory=(
            _proportion_trajectory(cells, start) if adaptive_proportions else None
        ),
    )


def _proportion_trajectory(cells: Sequence[dict], start: ProportionState) -> list[dict]:
    """The proportion scheduler, from its uniform ``start``, driven by the
    grid's per-pattern mean RMSE: the start (step 0) and the refreshes at
    steps 50 and 100. The losses are constant, so one refresh gives both,
    and the steps between refreshes leave the proportions as they are."""
    mean_rmse = {}
    for tag in start.patterns:
        vals = [c["rmse"] for c in cells if c["pattern"] == tag and c["rmse"] is not None]
        mean_rmse[tag] = float(np.mean(vals)) if vals else 0.0
    refreshed = scheduler_step(
        replace(start, step_count=start.period - 1), lambda tag: mean_rmse[tag]
    )
    return [
        {"step": 0, "proportions": start.as_mapping()},
        {"step": refreshed.step_count, "proportions": refreshed.as_mapping()},
        {"step": 2 * start.period, "proportions": refreshed.as_mapping()},
    ]


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------


def render_table(aggregates: Mapping, methods: Sequence[str]) -> list[list[str]]:
    """Rows = patterns plus Overall, columns = methods, cells mean ± std."""
    per_pattern = aggregates["per_pattern"]
    labelled = [(p, per_pattern[p]) for p in sorted(per_pattern)]
    return [["pattern", *methods]] + [
        [label, *(f"{e['mean']:.3f} ± {e['std']:.3f}" if (e := by_method.get(m)) else ""
                  for m in methods)]
        for label, by_method in labelled + [("Overall", aggregates["overall"])]
    ]


def emit_report(report: BenchReport, out_dir: Union[str, Path]) -> tuple[Path, Path]:
    """Write report.json and report.csv; byte-stable for an equal report."""
    if not report.cells:
        raise ValueError("report has no cells to emit")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    json_path = out_dir / "report.json"
    csv_path = out_dir / "report.csv"
    document = {"schema_version": SCHEMA_VERSION, **vars(report)}
    json_path.write_text(json.dumps(document, sort_keys=True, indent=2) + "\n")
    methods = [m["name"] for m in report.config["methods"]]
    with csv_path.open("w", newline="") as fh:
        csv.writer(fh).writerows(render_table(report.aggregates, methods))
    return json_path, csv_path
