import csv
import gc
import hashlib
import io
import json
import os
import pathlib
import re
import signal
import subprocess
import sys
import threading
import tracemalloc
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, fields
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imputebench import bench, imputers, missingness, scheduler
from imputebench.bench import (
    BenchReport,
    DatasetFormatError,
    _proportion_trajectory,
    DatasetRecord,
    discover_datasets,
    emit_report,
    imputation_accuracy,
    load_csv,
    load_mask_csv,
    read_data_csv,
    render_table,
    rmse,
    run_benchmark,
    save_csv,
    save_mask_csv,
    standardize_observed,
)
from imputebench.core import DataMatrix, Mask, SeedSpec, apply_mask, resolve_params
from imputebench.datagen import LfmSpec, sample_lfm
from imputebench.ensemble import EnsembleSpec, blend, permutation_ensemble
from imputebench.featurize import featurized_ridge_peak_bytes
from imputebench.imputers import ImputationResult, Imputer, make_imputer
from imputebench.missingness import (
    MASK_STREAM,
    PATTERN_TAGS,
    PatternSpec,
    cluster_peak_bytes,
    generate,
    latent_factor_peak_bytes,
    nn_mnar_peak_bytes,
)


@contextmanager
def _no_user_warning():
    """Fail on any UserWarning, such as the dropped-groups warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        yield


def _lfm_record(name, seed, m=30, n=8, k=2):
    return DatasetRecord(
        name=name,
        path="<memory>",
        matrix=sample_lfm(LfmSpec(m=m, n=n, k=k), SeedSpec(seed, name)),
    )


class _TruthOracle(Imputer):
    """Test-only method that copies the ground truth back."""

    def run(self, ds, seed):
        completed = np.where(ds.mask.observed, ds.observed, ds.truth.values)
        return ImputationResult(
            DataMatrix(completed), DataMatrix(ds.truth.values), {"method": "oracle"}
        )


class _AlwaysFails(Imputer):
    def run(self, ds, seed):
        raise RuntimeError("deliberate failure")


# ---------------------------------------------------------------------------
# CSV I/O
# ---------------------------------------------------------------------------


def test_load_csv_well_formed(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b\n1,2\n3,4\n5,6\n")
    rec = load_csv(p)
    assert rec.name == "d"
    assert rec.columns == ("a", "b")
    assert rec.matrix.shape == (3, 2)
    assert rec.matrix.values[2, 1] == 6.0


def test_load_csv_rejects_empty_cell_with_location(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b\n1,\n3,4\n")
    with pytest.raises(DatasetFormatError) as err:
        load_csv(p)
    assert "row 0" in str(err.value) and "'b'" in str(err.value)


def test_load_csv_rejects_non_numeric(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b\n1,x\n")
    with pytest.raises(DatasetFormatError) as err:
        load_csv(p)
    assert "non-numeric" in str(err.value)


def test_load_csv_rejects_ragged_rows(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b\n1,2,3\n")
    with pytest.raises(DatasetFormatError):
        load_csv(p)


@pytest.mark.parametrize("text, want", [
    ("a,b\n1,\n", [[1.0, np.nan]]),
    ("a,b\n1_000, 2 \n", [[1000.0, 2.0]]),
    ('a,b\n"1.5",2\n', [[1.5, 2.0]]),
    ("a,b\r\n1,2\r\n3,4", [[1.0, 2.0], [3.0, 4.0]]),
    ("a,b\n#1,2\n", "non-numeric cell at row 0, column 'a': '#1'"),
    ('a,b\n"1,5",2\n', "non-numeric cell at row 0, column 'a': '1,5'"),
    ("a,b\n1,2\n\n3,4\n", "row 1 has 0 cells, header has 2"),
    ("a,b\n1,2,3\n", "row 0 has 3 cells, header has 2"),
    ("a,b\n", "no data rows"),
    ("a,b\n\n", "row 0 has 0 cells, header has 2"),
])
def test_read_data_csv_cells(tmp_path, text, want):
    # the text np.loadtxt refuses or reads differently (empty cells,
    # underscores, quotes, blank lines) is read by the per-cell loop
    p = tmp_path / "d.csv"
    p.write_bytes(text.encode())
    if isinstance(want, str):
        with pytest.raises(DatasetFormatError, match=re.escape(want)):
            read_data_csv(p)
    else:
        values, header = read_data_csv(p)
        assert header == ("a", "b")
        assert np.array_equal(values, np.array(want), equal_nan=True)


_CELL_TEXT = "0123456789.-+eE_ nafiIN#\"\t\x1c\x00\u0661"
_CELLS = st.one_of(st.sampled_from(["1", "-2.5", "1e3", " 4 ", "nan", "-inf", ""]),
                   st.text(alphabet=_CELL_TEXT, max_size=5))
_BODIES = st.one_of(
    st.tuples(st.lists(st.lists(_CELLS, max_size=3).map(",".join), max_size=4),
              st.sampled_from(["\n", "\r\n", "\r"]), st.booleans()
              ).map(lambda t: t[1].join(t[0]) + t[1] * t[2]),
    st.text(alphabet=_CELL_TEXT + ",\r\n", max_size=40),
)


@settings(max_examples=300, deadline=None)
@given(_BODIES, st.integers(1, 3))
def test_loadtxt_cells_match_the_loop_bit_for_bit_or_fall_back(body, n_cols):
    # newline="" splits lines as a data file opened by read_data_csv does
    fast = bench._loadtxt_cells(io.StringIO(body, newline=""), n_cols)
    if fast is not None:
        rows = csv.reader(io.StringIO(body, newline=""))
        loop = bench._parse_cells(pathlib.Path("d.csv"), rows, ["x"] * n_cols)
        assert np.array_equal(fast.view(np.int64), loop.view(np.int64))


def test_save_load_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(1)
    values = rng.normal(size=(7, 4)) * 1e3
    p = tmp_path / "rt.csv"
    save_csv(values, p, columns=list("wxyz"))
    rec = load_csv(p)
    assert np.array_equal(rec.matrix.values, values)
    assert rec.columns == ("w", "x", "y", "z")


def test_mask_csv_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    mask = Mask((rng.random((6, 5)) < 0.6).astype(np.uint8))
    p = tmp_path / "m.csv"
    save_mask_csv(mask, p)
    back = load_mask_csv(p)
    assert np.array_equal(back.indicator, mask.indicator)


# sha256 of the files these fixtures write, pinned so that a faster writer
# keeps every byte: csv.writer's quoting of the header, repr's shortest
# round-trip digits, CRLF line ends, and "" for a row whose only cell is NaN
_SPECIAL_VALUES = np.array([[np.nan, -0.0, np.inf],
                            [-np.inf, 5e-324, 1e300],
                            [0.1, 1.0, -2.5e-7]])
_ONE_COLUMN = np.array([[1.5], [np.nan], [-0.0]])
_ONE_ROW = np.array([[1 / 3, -1e-300, 2.0 ** 60, np.nan]])
_WRITER_CASES = {
    "special": (_SPECIAL_VALUES, ["a,b", 'q"t', "z"],
                "107fedf1562c75a4e8727b839851a3268fffc9989eb52ba8a7db382cc9220df9"),
    "one-column": (_ONE_COLUMN, None,
                   "59e2d4db6f95e1c637a05c0e7e8026c7887f52ebfd5d46312cc4f63828b2ede6"),
    "one-row": (_ONE_ROW, None,
                "93a7cf21cad1025892ceb5d4ff2120513be2f85d10141bb0a367ab4ed924e9c9"),
}


@pytest.mark.parametrize("case", sorted(_WRITER_CASES))
def test_save_csv_bytes_are_pinned_and_read_back_bit_for_bit(tmp_path, case):
    values, columns, digest = _WRITER_CASES[case]
    p = tmp_path / "d.csv"
    save_csv(values, p, columns=columns)
    assert hashlib.sha256(p.read_bytes()).hexdigest() == digest
    back, header = read_data_csv(p)
    assert np.array_equal(back.view(np.int64), values.view(np.int64))
    assert list(header) == (columns or [f"x{j}" for j in range(values.shape[1])])


def test_save_mask_csv_bytes_are_pinned(tmp_path):
    mask = Mask((np.arange(36).reshape(9, 4) * 7 % 5 < 3).astype(np.uint8))
    p = tmp_path / "m.csv"
    save_mask_csv(mask, p)
    digest = "b3f2bb1fbdd9f823b51ea8fba96efc9fde5df74b857991e2f4f5ada12cfcb30a"
    assert hashlib.sha256(p.read_bytes()).hexdigest() == digest


def test_save_csv_holds_one_row_at_a_time(tmp_path):
    values = np.random.default_rng(3).normal(size=(2000, 50))
    values[::7, ::3] = np.nan
    tracemalloc.start()
    try:
        save_csv(values, tmp_path / "d.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the whole table as Python floats would be about 3 MiB
    assert peak < 2 ** 20


def test_load_mask_csv_names_the_first_ragged_row(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1,0,1\n1,0,1\n1,1\n")
    with pytest.raises(DatasetFormatError, match="row 2 has 2 cells, row 0 has 3"):
        load_mask_csv(p)


def test_discover_datasets_directory_and_manifest(tmp_path):
    save_csv(np.ones((3, 2)), tmp_path / "b.csv")
    save_csv(np.zeros((2, 2)), tmp_path / "a.csv")
    records = discover_datasets(tmp_path)
    assert [r.name for r in records] == ["a", "b"]

    manifest = tmp_path / "mf.json"
    manifest.write_text(json.dumps({
        "datasets": [{"name": "only", "path": "b.csv"}],
    }))
    records = discover_datasets(manifest)
    assert [r.name for r in records] == ["only"]

    with pytest.raises(DatasetFormatError):
        discover_datasets(tmp_path / "missing-dir.json")


@pytest.mark.parametrize("entry", [{"path": 5}, {"name": ["x"], "path": "b.csv"},
                                   {"name": None, "path": "b.csv"}])
def test_a_manifest_entry_needs_a_string_path_and_name(tmp_path, entry):
    save_csv(np.ones((3, 2)), tmp_path / "b.csv")
    manifest = tmp_path / "mf.json"
    manifest.write_text(json.dumps({"datasets": [{"path": "b.csv"}, entry]}))
    with pytest.raises(DatasetFormatError) as err:
        discover_datasets(manifest)
    assert str(err.value) == (f"{manifest}: manifest entry {entry!r}: "
                              "'path' and 'name' must be strings")


# ---------------------------------------------------------------------------
# Standardization
# ---------------------------------------------------------------------------


def test_standardize_two_point_column():
    ds = apply_mask(DataMatrix([[0.0], [2.0]]), Mask([[1], [1]]))
    out, params = standardize_observed(ds)
    assert np.allclose(out.observed[:, 0], [-1.0, 1.0])
    assert params.mean[0] == 1.0 and params.scale[0] == 1.0


def test_standardize_is_idempotent_within_tolerance():
    rng = np.random.default_rng(3)
    truth = rng.normal(size=(40, 5)) * 3.0 + 7.0
    ds = apply_mask(DataMatrix(truth), Mask(np.ones((40, 5))))
    once, _ = standardize_observed(ds)
    twice, _ = standardize_observed(once)
    assert np.allclose(once.observed, twice.observed, atol=1e-10)


def test_standardize_constant_and_empty_columns():
    truth = np.column_stack([np.full(4, 5.0), np.arange(4.0), np.arange(4.0)])
    ind = np.ones((4, 3), dtype=np.uint8)
    ind[:, 2] = 0
    ds = apply_mask(DataMatrix(truth), Mask(ind))
    out, params = standardize_observed(ds)
    assert np.allclose(out.observed[:, 0], 0.0)  # constant -> centered, scale 1
    assert params.scale[0] == 1.0
    assert params.mean[2] == 0.0 and params.scale[2] == 1.0  # untouched column


def test_standardize_moves_truth_through_same_map():
    rng = np.random.default_rng(4)
    truth = rng.normal(size=(30, 4)) * 10
    ind = (rng.random((30, 4)) < 0.7).astype(np.uint8)
    ind[0, :] = 1
    ds = apply_mask(DataMatrix(truth), Mask(ind))
    out, params = standardize_observed(ds)
    obs = ds.mask.observed
    assert np.allclose(out.truth.values, params.apply(truth))
    for j in range(4):
        col = out.observed[obs[:, j], j]
        assert abs(col.mean()) < 1e-10
        assert abs(col.var() - 1.0) < 1e-8
    assert np.allclose(out.truth.values * params.scale + params.mean, truth, atol=1e-10)


def _standardize_two_masks(ds):
    """The formula ``standardize_observed`` used before it mapped the whole
    observed matrix: the same per-column mean and scale, applied to the
    observed cells only, with NaN written into the missing ones."""
    obs = ds.mask.observed
    n = ds.shape[1]
    mean, scale = np.zeros(n), np.ones(n)
    for j in range(n):
        vals = ds.observed[obs[:, j], j]
        if vals.size:
            mean[j] = vals.mean()
            if vals.var() > 0:
                scale[j] = np.sqrt(vals.var())
    params = bench.ColumnStandardization(mean=mean, scale=scale)
    observed = np.where(obs, params.apply(np.where(obs, ds.observed, 0.0)), np.nan)
    return observed, params.apply(ds.truth.values), mean, scale


def _standardize_inputs():
    for m, n in ((1000, 20), (150, 40), (7, 3)):
        truth = sample_lfm(LfmSpec(m=m, n=n, k=min(3, n), noise_scale=0.1),
                           SeedSpec(m, "standardize"))
        for tag in PATTERN_TAGS:
            # the default 10 x 10 block grid does not fit in 7 x 3
            params = {"n_row_blocks": 2, "n_col_blocks": 1} if tag == "block" and m < 10 else {}
            mask = generate(PatternSpec(tag, SeedSpec(5, tag), params), truth)
            yield f"{tag} {m}x{n}", apply_mask(truth, mask)
    rng = np.random.default_rng(8)
    ind = np.ones((9, 3), dtype=np.uint8)
    ind[:, 0] = 0  # no observed entry
    ind[1:, 1] = 0  # one observed entry
    yield "empty and single columns", apply_mask(DataMatrix(rng.normal(size=(9, 3))), Mask(ind))


def test_standardize_maps_the_whole_matrix_like_the_two_mask_formula():
    for name, ds in _standardize_inputs():
        out, params = standardize_observed(ds)
        observed, truth, mean, scale = _standardize_two_masks(ds)
        assert out.observed.tobytes() == observed.tobytes(), name  # NaN bits too
        assert out.truth.values.tobytes() == truth.tobytes(), name
        assert params.mean.tobytes() == mean.tobytes(), name
        assert params.scale.tobytes() == scale.tobytes(), name


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def test_rmse_zero_when_exact():
    t = DataMatrix([[1.0, 2.0]])
    assert rmse(t, t, Mask([[1, 0]])) == 0.0


def test_rmse_single_entry():
    t = DataMatrix([[1.0, 5.0]])
    c = DataMatrix([[1.0, 8.0]])
    assert rmse(t, c, Mask([[1, 0]])) == 3.0


def test_rmse_matches_two_pass_oracle():
    rng = np.random.default_rng(5)
    t = rng.normal(size=(9, 6))
    c = rng.normal(size=(9, 6))
    ind = (rng.random((9, 6)) < 0.5).astype(np.uint8)
    ind[0, 0] = 0
    got = rmse(DataMatrix(t), DataMatrix(c), Mask(ind))
    total, count = 0.0, 0
    for i in range(9):
        for j in range(6):
            if not ind[i, j]:
                total += (t[i, j] - c[i, j]) ** 2
                count += 1
    assert abs(got - np.sqrt(total / count)) < 1e-12


def test_rmse_requires_missing_entries():
    t = DataMatrix([[1.0]])
    with pytest.raises(ValueError):
        rmse(t, t, Mask([[1]]))


def test_accuracy_closed_form_and_ties():
    acc = imputation_accuracy({"a": 1.0, "b": 2.0, "c": 3.0})
    assert acc == {"a": 1.0, "b": 0.5, "c": 0.0}
    tied = imputation_accuracy({"a": 2.0, "b": 2.0})
    assert tied == {"a": 0.5, "b": 0.5}
    with pytest.raises(ValueError):
        imputation_accuracy({"a": 1.0})


def test_accuracy_affine_invariance():
    rng = np.random.default_rng(6)
    base = {f"m{i}": float(v) for i, v in enumerate(rng.random(5) + 0.5)}
    scaled = {k: 3.7 * v + 11.0 for k, v in base.items()}
    a1 = imputation_accuracy(base)
    a2 = imputation_accuracy(scaled)
    for k in base:
        assert abs(a1[k] - a2[k]) < 1e-12


# ---------------------------------------------------------------------------
# The grid
# ---------------------------------------------------------------------------


def test_oracle_method_always_scores_one():
    datasets = [_lfm_record("d0", 1), _lfm_record("d1", 2)]
    methods = [
        _TruthOracle(method="col-mean", name="oracle"),
        make_imputer("col-mean"),
    ]
    report = run_benchmark(datasets, ["mcar"], methods, n_seeds=2, seed=9)
    oracle_cells = [c for c in report.cells if c["method"] == "oracle"]
    assert oracle_cells and all(c["accuracy"] == 1.0 for c in oracle_cells)
    assert all(c["rmse"] == 0.0 for c in oracle_cells)


def test_group_accuracy_hits_both_bounds():
    datasets = [_lfm_record("d0", 3)]
    methods = [make_imputer("col-mean"), make_imputer("soft-impute"),
               make_imputer("knn")]
    report = run_benchmark(datasets, ["mcar"], methods, n_seeds=3, seed=10)
    by_group = {}
    for c in report.cells:
        by_group.setdefault((c["dataset"], c["pattern"], c["seed"]), []).append(
            c["accuracy"]
        )
    for accs in by_group.values():
        assert max(accs) == 1.0 and min(accs) == 0.0


def test_grid_is_deterministic_across_parallelism():
    datasets = [_lfm_record("d0", 4), _lfm_record("d1", 5)]
    methods = [make_imputer("col-mean"), make_imputer("soft-impute"),
               make_imputer("ice")]
    kwargs = dict(patterns=["mcar", "panel"], n_seeds=2, seed=11)
    r1 = run_benchmark(datasets, methods=methods, jobs=1, **kwargs)
    r8 = run_benchmark(datasets, methods=methods, jobs=8, **kwargs)
    c1 = json.dumps(r1.cells, sort_keys=True)
    c8 = json.dumps(r8.cells, sort_keys=True)
    assert c1 == c8


class _ReportsItsPid(Imputer):
    """Column means, with the pid of the process that ran the group."""

    def run(self, ds, seed):
        result = imputers.impute_col_mean(ds)
        result.diagnostics["pid"] = os.getpid()
        return result


def _without_pids(cells):
    return [{**c, "diagnostics": {k: v for k, v in c["diagnostics"].items() if k != "pid"}}
            for c in cells]


def test_jobs_fork_workers_and_run_serially_where_fork_is_missing(monkeypatch):
    datasets = [_lfm_record("d0", 4), _lfm_record("d1", 5)]
    methods = [_ReportsItsPid(method="col-mean", name="pid"), make_imputer("soft-impute")]
    kwargs = dict(patterns=["mcar", "panel"], n_seeds=2, seed=11)
    serial = run_benchmark(datasets, methods=methods, jobs=1, **kwargs).cells
    forked = run_benchmark(datasets, methods=methods, jobs=2, **kwargs).cells
    assert {c["diagnostics"]["pid"] for c in serial if c["method"] == "pid"} == {os.getpid()}
    assert os.getpid() not in {c["diagnostics"]["pid"] for c in forked if c["method"] == "pid"}
    assert _without_pids(forked) == _without_pids(serial)
    monkeypatch.delattr(os, "fork")
    assert run_benchmark(datasets, methods=methods, jobs=2, **kwargs).cells == serial


def test_two_host_threads_each_run_a_forked_grid():
    # each grid forks its workers with its own tasks, even while another
    # thread's grid is starting or running
    datasets = [_lfm_record("d0", 4), _lfm_record("d1", 5)]
    methods = [make_imputer("col-mean"), make_imputer("soft-impute")]
    kwargs = dict(datasets=datasets, patterns=["mcar", "panel"], methods=methods, n_seeds=2)
    want = [run_benchmark(seed=seed, jobs=1, **kwargs).cells for seed in (11, 12)]
    got = [None, None]

    def grid(i):
        got[i] = run_benchmark(seed=11 + i, jobs=2, **kwargs).cells

    threads = [threading.Thread(target=grid, args=(i,), daemon=True) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    assert got == want


_TEST_PROCESS = os.getpid()


class _KillsItsWorker(Imputer):
    def run(self, ds, seed):
        if os.getpid() == _TEST_PROCESS:
            raise AssertionError("the group ran in the test process")
        os.kill(os.getpid(), signal.SIGKILL)


def test_a_dead_worker_raises_broken_process_pool():
    from concurrent.futures.process import BrokenProcessPool

    methods = [make_imputer("col-mean"), _KillsItsWorker(method="col-mean", name="killer")]
    with pytest.raises(BrokenProcessPool):
        run_benchmark([_lfm_record("d0", 4)], ["mcar", "panel"], methods, n_seeds=2, jobs=2)


def test_convergence_summary_per_method_and_pattern():
    datasets = [_lfm_record("d0", 4), _lfm_record("d1", 5)]
    methods = [make_imputer("col-mean"), make_imputer("soft-impute"),
               make_imputer("ice", max_iter=1)]
    kwargs = dict(patterns=["mcar", "panel"], n_seeds=2, seed=11)
    r1 = run_benchmark(datasets, methods=methods, jobs=1, **kwargs)
    r2 = run_benchmark(datasets, methods=methods, jobs=2, **kwargs)
    summary = r1.aggregates["convergence"]
    assert json.dumps(summary) == json.dumps(r2.aggregates["convergence"])
    assert set(summary) == {"soft-impute", "ice"}  # col-mean reports no convergence
    for method, by_pattern in summary.items():
        assert set(by_pattern) == {"mcar", "panel"}
        for pattern, entry in by_pattern.items():
            runs = [c["diagnostics"] for c in r1.cells
                    if c["method"] == method and c["pattern"] == pattern]
            assert entry == {
                "converged_frac": float(np.mean([d["converged"] for d in runs])),
                "mean_iterations": float(np.mean([d["iterations"] for d in runs])),
                "n_cells": 4,
            }
    assert all(e["converged_frac"] < 1 for e in summary["ice"].values())
    assert all(e["mean_iterations"] == 1.0 for e in summary["ice"].values())


def test_mcar_zero_rate_rejected_up_front():
    datasets = [_lfm_record("d0", 6)]
    methods = [make_imputer("col-mean"), make_imputer("knn")]
    with pytest.raises(ValueError):
        run_benchmark(datasets, [("mcar", {"p_missing": 0.0})], methods)


def test_group_dropped_when_fewer_than_two_methods_survive():
    datasets = [_lfm_record("d0", 7)]
    methods = [
        make_imputer("col-mean"),
        _AlwaysFails(method="col-mean", name="broken"),
    ]
    # no warning points at a report that is not written
    with _no_user_warning():
        with pytest.raises(ValueError, match="every group was dropped"):
            # both groups lose their only comparison partner -> nothing left
            run_benchmark(datasets, ["mcar"], methods, n_seeds=1, seed=12)


def test_every_group_dropped_names_each_reason_and_its_count():
    datasets = [_lfm_record("d0", 7, n=1, k=1)]
    methods = [make_imputer("col-mean"), make_imputer("knn")]
    with _no_user_warning():
        with pytest.raises(ValueError) as exc:
            run_benchmark(datasets, ["panel", "two-phase"], methods, n_seeds=2)
    assert str(exc.value) == (
        "every group was dropped; nothing to aggregate: "
        "mask generation failed: panel dropout needs at least 2 columns (2 groups); "
        "mask generation failed: two-phase needs at least 2 columns (2 groups)"
    )
    # a rate out of range needs no table: it is refused before any group runs
    with pytest.raises(ValueError) as exc:
        run_benchmark([_lfm_record("d0", 7)], [("mcar", {"p_missing": 1.5})],
                      methods, n_seeds=1)
    assert str(exc.value) == "p_missing must be in [0, 1), got 1.5"


def test_a_grid_resolves_each_pattern_once_and_each_group_once(monkeypatch):
    from imputebench import missingness

    calls = []

    def counted(kind, tag, params, defaults):
        calls.append((kind, tag))
        return resolve_params(kind, tag, params, defaults)

    assert not hasattr(bench, "resolve_params")  # bench builds PatternSpecs
    monkeypatch.setattr(missingness, "resolve_params", counted)
    datasets = [_lfm_record("d0", 3), _lfm_record("d1", 4)]
    methods = [make_imputer("col-mean"), make_imputer("soft-impute")]
    run_benchmark(datasets, ["mcar", ("block", {"n_col_blocks": 4})], methods, n_seeds=2)
    # 2 patterns in the grid, then 2 datasets x 2 patterns x 2 replicates,
    # each group's spec on its own seed
    assert calls.count(("pattern", "mcar")) == calls.count(("pattern", "block")) == 1 + 4
    assert len(calls) == 10


def test_failed_method_excluded_from_normalization():
    datasets = [_lfm_record("d0", 8)]
    methods = [
        make_imputer("col-mean"),
        make_imputer("soft-impute"),
        _AlwaysFails(method="col-mean", name="broken"),
    ]
    report = run_benchmark(datasets, ["mcar"], methods, n_seeds=1, seed=13)
    broken = [c for c in report.cells if c["method"] == "broken"]
    assert all(c["error"] is not None and c["accuracy"] is None for c in broken)
    survivors = [c for c in report.cells if c["method"] != "broken"]
    assert sorted(c["accuracy"] for c in survivors) == [0.0, 1.0]


@dataclass(frozen=True)
class _WritesItsInput(Imputer):
    """Test-only method that writes into the input array at ``target``."""

    target: str = "observed"

    def run(self, ds, seed):
        attrgetter(self.target)(ds)[0, 0] = 0.0
        raise AssertionError("the write went through")


@pytest.mark.parametrize("target", ["observed", "mask.indicator", "truth.values"])
def test_a_method_that_writes_its_input_gets_an_error_cell(target):
    # the group's arrays are read-only, so the write itself raises
    datasets = [_lfm_record("d0", 8)]
    methods = [make_imputer("col-mean"), make_imputer("soft-impute")]
    want = run_benchmark(datasets, ["mcar", "self-masking"], methods, n_seeds=1, seed=13).cells
    writer = _WritesItsInput(method="col-mean", name="writer", target=target)
    report = run_benchmark(datasets, ["mcar", "self-masking"], [methods[0], writer, methods[1]],
                           n_seeds=1, seed=13)
    written = [c for c in report.cells if c["method"] == "writer"]
    assert len(written) == 2
    assert all(c["error"] == "ValueError: assignment destination is read-only"
               and c["rmse"] is None for c in written)
    assert [c for c in report.cells if c["method"] != "writer"] == want


def _count_soft_impute(monkeypatch, fail=False):
    """Count (and optionally fail) every soft-impute computation."""
    calls = []
    real = imputers.impute_soft

    def counting(ds, **params):
        calls.append(ds)
        if fail:
            raise RuntimeError("soft-impute failed")
        return real(ds, **params)

    monkeypatch.setitem(imputers._METHODS, "soft-impute", (counting, imputers._check_soft))
    return calls


def _group_input(record, pattern, replicate, seed):
    """The standardized dataset a group of ``run_benchmark`` imputes."""
    group_seed = SeedSpec(seed, f"{record.name}/{pattern}/{replicate}")
    mask = generate(PatternSpec(pattern, group_seed.child("mask")), record.matrix)
    ds, _ = standardize_observed(apply_mask(record.matrix, mask))
    return ds, group_seed


def test_seedless_method_runs_once_per_group(monkeypatch):
    datasets = [_lfm_record("d0", 14)]
    patterns = ["mcar", "self-masking"]
    calls = _count_soft_impute(monkeypatch)
    for tags in (("col-mean", "soft-impute", "ensemble"),
                 ("col-mean", "ensemble"),
                 ("ensemble", "soft-impute", "col-mean")):
        calls.clear()
        report = run_benchmark(datasets, patterns,
                               [make_imputer(t) for t in tags], n_seeds=2, seed=15)
        assert all(c["error"] is None for c in report.cells)
        assert len(calls) == len(patterns) * 2, tags


def test_ensemble_cell_equals_a_standalone_blend():
    record = _lfm_record("d0", 16)
    # A soft-impute with other params runs first; the ensemble must not get it.
    methods = [make_imputer("col-mean"),
               make_imputer("soft-impute", name="soft-5", max_iter=5),
               make_imputer("soft-impute"), make_imputer("ensemble")]
    report = run_benchmark([record], ["mcar", "self-masking"], methods,
                           n_seeds=2, seed=17)
    cells = [c for c in report.cells if c["method"] == "ensemble"]
    assert len(cells) == 4
    for cell in cells:
        ds, group_seed = _group_input(record, cell["pattern"], cell["seed"], 17)
        alone = blend(ds, EnsembleSpec(), group_seed.child("ensemble"))
        assert cell["rmse"] == rmse(ds.truth, alone.completed, ds.mask)
        assert cell["diagnostics"]["weight"] == alone.diagnostics["weight"]


def test_seedless_subclass_is_never_shared():
    record = _lfm_record("d0", 18)
    methods = [_TruthOracle(method="soft-impute", name="oracle"),
               make_imputer("soft-impute"), make_imputer("ensemble")]
    report = run_benchmark([record], ["mcar"], methods, n_seeds=2, seed=19)
    by_method = {}
    for cell in report.cells:
        by_method.setdefault(cell["method"], []).append(cell)
    assert all(c["rmse"] == 0.0 for c in by_method["oracle"])
    assert all(c["diagnostics"]["method"] == "soft-impute"
               for c in by_method["soft-impute"])
    for cell in by_method["ensemble"]:
        ds, group_seed = _group_input(record, "mcar", cell["seed"], 19)
        alone = blend(ds, EnsembleSpec(), group_seed.child("ensemble"))
        assert cell["rmse"] == rmse(ds.truth, alone.completed, ds.mask) > 0.0


def test_failed_seedless_run_is_not_shared(monkeypatch):
    datasets = [_lfm_record("d0", 20)]
    calls = _count_soft_impute(monkeypatch, fail=True)
    methods = [make_imputer(t) for t in
               ("col-mean", "featurized-ridge", "soft-impute", "ensemble")]
    report = run_benchmark(datasets, ["mcar"], methods, n_seeds=1, seed=21)
    failed = {c["method"]: c["error"] for c in report.cells if c["error"] is not None}
    assert failed == {"soft-impute": "RuntimeError: soft-impute failed",
                      "ensemble": "RuntimeError: soft-impute failed"}
    assert len(calls) == 2


def test_one_shared_dict_keeps_each_inputs_own_result(monkeypatch):
    record = _lfm_record("d0", 22)
    a, seed = _group_input(record, "mcar", 0, 23)
    b, _ = _group_input(record, "self-masking", 0, 23)
    calls = _count_soft_impute(monkeypatch)
    shared = {}
    soft = make_imputer("soft-impute")
    for ds in (a, b, a, b):
        got = imputers.run_shared(soft, ds, seed, shared)
        assert got.completed.values.tobytes() == \
            imputers.impute_soft(ds).completed.values.tobytes()
    assert [id(ds) for ds in calls] == [id(a), id(b)]
    # the ensemble's soft-impute base on b is b's own shared run
    got = imputers.run_shared(make_imputer("ensemble"), b, seed, shared)
    alone = blend(b, EnsembleSpec(), seed)
    assert got.completed.values.tobytes() == alone.completed.values.tobytes()
    assert len(calls) == 3  # the standalone blend's own soft-impute run


# ---------------------------------------------------------------------------
# BLAS threads and memory
# ---------------------------------------------------------------------------

_needs_openblas = pytest.mark.skipif(
    not bench._openblas_thread_controls(),
    reason="no OpenBLAS with a thread-count setter is loaded",
)


@_needs_openblas
def test_cells_do_not_depend_on_blas_threads_or_jobs():
    # Unpinned, OpenBLAS splits the featurized ridge's products across its
    # threads, and the panel cells' last bits follow the thread count.
    import imputebench

    package_root = str(pathlib.Path(imputebench.__file__).resolve().parents[1])
    snippet = """
import hashlib, json, sys
from imputebench.bench import DatasetRecord, run_benchmark
from imputebench.core import SeedSpec
from imputebench.datagen import LfmSpec, sample_lfm
from imputebench.imputers import make_imputer
record = DatasetRecord("d", "<memory>", sample_lfm(
    LfmSpec(m=150, n=40, k=3, noise_scale=0.1), SeedSpec(7, "blas-threads")))
methods = [make_imputer(t) for t in
           ("col-mean", "soft-impute", "featurized-ridge", "ensemble")]
report = run_benchmark([record], ["panel", "mcar"], methods, n_seeds=2, seed=7,
                       jobs=int(sys.argv[1]))
print(hashlib.sha256(json.dumps(report.cells, sort_keys=True).encode()).hexdigest())
"""
    digests = {
        (threads, jobs): subprocess.run(
            [sys.executable, "-c", snippet, str(jobs)],
            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root,
                 "OPENBLAS_NUM_THREADS": threads},
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        for threads in ("1", "2")
        for jobs in (1, 2)
    }
    assert len(set(digests.values())) == 1, digests


@_needs_openblas
@pytest.mark.parametrize("jobs", [1, 2])
def test_grid_runs_on_one_blas_thread_and_restores_the_count(jobs):
    controls = bench._openblas_thread_controls()

    class Probe(Imputer):
        """Reports the OpenBLAS thread counts a method sees in its cell's
        diagnostics, which reach the caller from a worker process too."""

        def run(self, ds, seed):
            result = imputers.impute_col_mean(ds)
            result.diagnostics.update(
                {f"blas_threads_{i}": get() for i, (get, _) in enumerate(controls)})
            return result

    probe = Probe(method="col-mean", name="probe")
    before = [get() for get, _ in controls]
    try:
        for _, set_ in controls:
            set_(2)
        caller = [get() for get, _ in controls]
        report = run_benchmark([_lfm_record("d0", 22)],
                               ["mcar", "panel", "cluster", "col-mar", "self-masking"],
                               [probe, make_imputer("col-mean")], n_seeds=1, seed=23,
                               jobs=jobs)
        seen = [[c["diagnostics"][f"blas_threads_{i}"] for i in range(len(controls))]
                for c in report.cells if c["method"] == "probe"]
        assert [get() for get, _ in controls] == caller
        with _no_user_warning(), pytest.raises(ValueError, match="dropped"):
            run_benchmark([_lfm_record("d0", 22)], ["mcar"],
                          [probe, _AlwaysFails(method="col-mean", name="broken")],
                          n_seeds=1, seed=23, jobs=jobs)
        assert [get() for get, _ in controls] == caller
    finally:
        for (_, set_), count in zip(controls, before):
            set_(count)
    assert len(seen) == 5
    assert all(counts == [1] * len(controls) for counts in seen)


@_needs_openblas
def test_overlapping_grids_restore_once_the_last_one_ends():
    controls = bench._openblas_thread_controls()
    before = [get() for get, _ in controls]
    inside = []

    def pinned_reads():
        for _ in range(200):
            with bench._ONE_BLAS_THREAD:
                inside.append([get() for get, _ in controls])

    interval = sys.getswitchinterval()
    try:
        for _, set_ in controls:
            set_(2)
        caller = [get() for get, _ in controls]
        with bench._ONE_BLAS_THREAD:
            run_benchmark([_lfm_record("d0", 25)], ["mcar"],
                          [make_imputer("col-mean"), make_imputer("soft-impute")],
                          n_seeds=1)
            assert [get() for get, _ in controls] == [1] * len(controls)
        assert [get() for get, _ in controls] == caller
        sys.setswitchinterval(1e-6)
        threads = [threading.Thread(target=pinned_reads) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert [get() for get, _ in controls] == caller
    finally:
        sys.setswitchinterval(interval)
        for (_, set_), count in zip(controls, before):
            set_(count)
    assert len(inside) == 800
    assert all(counts == [1] * len(controls) for counts in inside)


def test_grids_find_the_blas_libraries_once_per_process(monkeypatch):
    # the discovery reads /proc/self/maps at most once, at the first grid;
    # later grids pin and restore the libraries it found
    opened = []

    def counting_open(file, *args, **kwargs):
        if file == "/proc/self/maps":
            opened.append(file)
        return open(file, *args, **kwargs)

    monkeypatch.setattr(bench, "open", counting_open, raising=False)
    bench._openblas_thread_controls.cache_clear()
    methods = [make_imputer("col-mean"), make_imputer("soft-impute")]
    cells = []
    for jobs in (1, 2):
        cells.append(run_benchmark([_lfm_record("d0", 26)], ["mcar", "panel"], methods,
                                   n_seeds=1, seed=26, jobs=jobs).cells)
        assert len(opened) <= 1
    assert cells[0] == cells[1]


def test_repeated_pins_do_not_grow_the_heap():
    # Each library is opened and its functions looked up once per process;
    # a fresh ctypes handle per pin left about 0.3 KiB behind every time.
    # Only blocks allocated under a bench.py frame count: the window also
    # sees whatever else the process allocates meanwhile.
    with bench._ONE_BLAS_THREAD:
        pass
    gc.collect()
    under_bench = [tracemalloc.Filter(True, bench.__file__, all_frames=True)]

    def bench_bytes(snapshot):
        return sum(trace.size for trace in snapshot.filter_traces(under_bench).traces)

    tracemalloc.start(8)  # deep enough to reach bench.py from inside ctypes
    try:
        before = tracemalloc.take_snapshot()
        for _ in range(200):
            with bench._ONE_BLAS_THREAD:
                pass
        gc.collect()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert bench_bytes(after) - bench_bytes(before) < 4 * 1024


def test_oversize_knn_is_refused_before_any_group_runs(monkeypatch):
    record = _lfm_record("d0", 24)  # 30 x 8
    need = imputers.knn_peak_bytes(30)

    def no_group(*args):
        raise AssertionError("a group ran")

    monkeypatch.setattr(bench, "_physical_memory", lambda: 2 * need - 1)
    monkeypatch.setattr(bench, "_run_group", no_group)
    ensemble_knn = make_imputer("ensemble", name="ens-knn", base_b="knn")
    for methods, jobs in (([make_imputer("col-mean"), make_imputer("knn")], 2),
                          ([make_imputer("col-mean"), ensemble_knn], 3)):
        with pytest.raises(ValueError) as err:
            run_benchmark([record], ["mcar"], methods, n_seeds=2, jobs=jobs)
        message = str(err.value)
        assert "knn" in message and "30x8" in message
        assert f"{2 * need:,} bytes" in message
    # one group at a time fits; so do grids without knn
    monkeypatch.undo()
    monkeypatch.setattr(bench, "_physical_memory", lambda: 2 * need - 1)
    for methods, jobs in (([make_imputer("col-mean"), make_imputer("knn")], 1),
                          ([make_imputer("col-mean"), make_imputer("soft-impute")], 2)):
        run_benchmark([record], ["mcar"], methods, n_seeds=2, jobs=jobs)


def test_oversize_nn_mnar_is_refused_before_any_group_runs(monkeypatch):
    small, wide = _lfm_record("d0", 24), _lfm_record("d1", 25, m=20, n=40)
    wide_hood = ("nn-mnar", {"neighborhood_size_range": (3, 50)})
    # the resolved ranges: the given sizes, the default widths (4, 16) and
    # layers (1, 3); the 20 x 40 dataset needs more than the 30 x 8 one,
    # whose s clamps to 37
    need = nn_mnar_peak_bytes(20, 40, 50, 16, 3)
    assert need > nn_mnar_peak_bytes(30, 8, 50, 16, 3)

    def no_group(*args):
        raise AssertionError("a group ran")

    methods = [make_imputer("col-mean"), make_imputer("soft-impute")]
    monkeypatch.setattr(bench, "_physical_memory", lambda: 2 * need - 1)
    monkeypatch.setattr(bench, "_run_group", no_group)
    with pytest.raises(ValueError) as err:
        run_benchmark([small, wide], ["mcar", wide_hood], methods, n_seeds=2, jobs=2)
    message = str(err.value)
    assert "'nn-mnar'" in message and "'d1' (20x40)" in message
    assert f"{2 * need:,} bytes" in message and "with 2 groups at once" in message
    # a width override counts as well, at one group at a time
    wide_net = nn_mnar_peak_bytes(20, 40, 8, 64, 3)
    monkeypatch.setattr(bench, "_physical_memory", lambda: wide_net - 1)
    with pytest.raises(ValueError, match=f"needs {wide_net:,} bytes"):
        run_benchmark([small, wide], [("nn-mnar", {"width_range": (4, 64)})], methods,
                      n_seeds=1)
    # one group at a time fits, as do more jobs than groups, and grids without nn-mnar
    monkeypatch.undo()
    monkeypatch.setattr(bench, "_physical_memory", lambda: 2 * need - 1)
    run_benchmark([small, wide], ["mcar", wide_hood], methods, n_seeds=2, jobs=1)
    run_benchmark([wide], [wide_hood], methods, n_seeds=1, jobs=4)
    monkeypatch.setattr(bench, "_physical_memory", lambda: 1024)
    run_benchmark([small, wide], ["mcar", "panel"], methods, n_seeds=2, jobs=2)


@pytest.mark.parametrize("pattern, what, need", [
    (("latent-factor", {"k_high": 10**9}), "latent factors",
     latent_factor_peak_bytes(30, 8, 10**9)),
    (("cluster", {"n_row_clusters": 10**10}), "cluster effects",
     cluster_peak_bytes(30, 8, 10**10, 4)),
], ids=["latent-factor", "cluster"])
def test_oversize_latent_factor_or_cluster_is_refused_before_any_group_runs(
        monkeypatch, pattern, what, need):
    record = _lfm_record("d0", 24)  # 30 x 8

    def no_group(*args):
        raise AssertionError("a group ran")

    methods = [make_imputer("col-mean"), make_imputer("soft-impute")]
    monkeypatch.setattr(bench, "_physical_memory", lambda: need - 1)
    monkeypatch.setattr(bench, "_run_group", no_group)
    with pytest.raises(ValueError) as err:
        run_benchmark([record], ["mcar", pattern], methods, n_seeds=1)
    message = str(err.value)
    assert f"pattern {pattern[0]!r} needs {need:,} bytes of {what}" in message
    assert "'d0' (30x8)" in message
    # at its defaults the pattern fits a small budget
    monkeypatch.undo()
    monkeypatch.setattr(bench, "_physical_memory", lambda: 2**20)
    report = run_benchmark([record], [pattern[0]], methods, n_seeds=1)
    assert len(report.cells) == 2


def test_oversize_featurized_ridge_is_refused_before_any_group_runs(monkeypatch):
    small, wide = _lfm_record("d0", 24), _lfm_record("d1", 25, m=20, n=40)
    ridge = make_imputer("featurized-ridge", name="fr")
    need = featurized_ridge_peak_bytes(20, 40)
    assert need > featurized_ridge_peak_bytes(30, 8)

    def no_group(*args):
        raise AssertionError("a group ran")

    monkeypatch.setattr(bench, "_run_group", no_group)
    monkeypatch.setattr(bench, "_physical_memory", lambda: 2 * need - 1)
    with pytest.raises(ValueError) as err:
        run_benchmark([small, wide], ["mcar"], [make_imputer("col-mean"), ridge],
                      n_seeds=1, jobs=2)
    assert str(err.value).startswith(
        f"method 'fr' needs {2 * need:,} bytes of featurized ridge normal equations "
        f"for dataset 'd1' (20x40) with 2 groups at once;")
    # a zero penalty is refused whatever the budget, when the imputer is built
    with pytest.raises(ValueError, match="featurized ridge needs ridge_lambda > 0"):
        run_benchmark([small, wide], ["mcar"],
                      [make_imputer("col-mean"),
                       make_imputer("featurized-ridge", name="fr0", ridge_lambda=0.0)],
                      n_seeds=1)
    # an ensemble's featurized-ridge base counts at its default penalty and
    # with its default 4 index assignments
    ens_need = featurized_ridge_peak_bytes(20, 40, 4)
    monkeypatch.setattr(bench, "_physical_memory", lambda: ens_need - 1)
    with pytest.raises(ValueError, match=f"method 'ens' needs {ens_need:,} bytes"):
        run_benchmark([small, wide], ["mcar"],
                      [make_imputer("col-mean"), make_imputer("ensemble", name="ens")],
                      n_seeds=1)
    # a budget equal to the need fits
    monkeypatch.undo()
    monkeypatch.setattr(bench, "_physical_memory", lambda: 2 * need)
    run_benchmark([small, wide], ["mcar"], [make_imputer("col-mean"), ridge],
                  n_seeds=1, jobs=2)


def test_memory_budget_is_the_smaller_of_physical_and_cgroup(monkeypatch, tmp_path):
    monkeypatch.setattr(bench, "_cgroup_memory_limit", lambda: None)
    physical = bench._physical_memory()
    assert physical is not None and physical > 0
    monkeypatch.setattr(bench, "_cgroup_memory_limit", lambda: physical // 4)
    assert bench._physical_memory() == physical // 4
    monkeypatch.setattr(bench, "_cgroup_memory_limit", lambda: 4 * physical)
    assert bench._physical_memory() == physical

    # a cgroup limit below physical memory refuses a knn grid that fits the machine
    record = _lfm_record("d0", 24)  # 30 x 8
    need = imputers.knn_peak_bytes(30)
    monkeypatch.setattr(bench, "_cgroup_memory_limit", lambda: need - 1)
    with pytest.raises(ValueError, match=f"may use {need - 1:,} bytes"):
        run_benchmark([record], ["mcar"], [make_imputer("col-mean"), make_imputer("knn")],
                      n_seeds=1)
    monkeypatch.undo()

    # the reader: a number is a limit; "max", junk and a missing file are not
    limit_file = tmp_path / "memory.max"
    monkeypatch.setattr(bench, "_CGROUP_MEMORY_MAX", str(limit_file))
    assert bench._cgroup_memory_limit() is None
    for text, want in (("1073741824\n", 1073741824), ("max\n", None), ("", None)):
        limit_file.write_text(text)
        assert bench._cgroup_memory_limit() == want


def test_config_validation():
    ds = [_lfm_record("d0", 9)]
    methods = [make_imputer("col-mean"), make_imputer("knn")]
    with pytest.raises(ValueError):
        run_benchmark([], ["mcar"], methods)
    with pytest.raises(ValueError):
        run_benchmark(ds, [], methods)
    with pytest.raises(ValueError):
        run_benchmark(ds, ["mcar"], methods[:1])
    with pytest.raises(ValueError):
        run_benchmark(ds, ["mcar"], [make_imputer("col-mean"),
                                     make_imputer("col-mean")])


def test_bad_temperature_is_refused_before_any_group_runs(monkeypatch):
    def no_group(*args):
        raise AssertionError("a group ran")

    monkeypatch.setattr(bench, "_run_group", no_group)
    ds = [_lfm_record("d0", 9)]
    methods = [make_imputer("col-mean"), make_imputer("soft-impute")]
    for temperature in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="temperature must be positive"):
            run_benchmark(ds, ["mcar"], methods, n_seeds=1,
                          adaptive_proportions=True, temperature=temperature)


# (method or pattern, tag, bad parameters, the imputer's or generator's message)
_BAD_PARAMETERS = [
    ("method", "knn", {"k": 0}, "k must be >= 1, got 0"),
    ("method", "soft-impute", {"tol": float("nan")}, "tol must be finite and >= 0, got nan"),
    ("method", "soft-impute", {"lam": -1.0}, "lam must be >= 0, got -1.0"),
    ("method", "soft-impute", {"lam": float("nan")}, "lam must be >= 0, got nan"),
    ("method", "ice", {"ridge_lambda": -1.0}, "ridge penalty must be >= 0, got -1.0"),
    ("method", "soft-impute", {"lam": float("inf")}, "lam must be finite, got inf"),
    ("method", "ice", {"ridge_lambda": float("inf")}, "ridge penalty must be finite, got inf"),
    ("method", "featurized-ridge", {"ridge_lambda": float("inf")},
     "ridge penalty must be finite, got inf"),
    ("method", "featurized-ridge", {"ridge_lambda": 0.0},
     "featurized ridge needs ridge_lambda > 0"),
    ("method", "ensemble", {"n_perms": 0}, "n_perms must be >= 1, got 0"),
    ("pattern", "mcar", {"p_missing": 1.5}, "p_missing must be in [0, 1), got 1.5"),
    ("pattern", "block", {"n_row_blocks": 0}, "block counts must be >= 1"),
    ("pattern", "seq", {"algorithm": "nope"}, "unknown bandit algorithm 'nope'"),
    ("pattern", "seq", {"algorithm": "softmax"}, "unknown bandit algorithm 'softmax'"),
    ("pattern", "seq", {"epsilon": 1.5}, "epsilon must be in [0, 1], got 1.5"),
    ("pattern", "seq", {"epsilon_decay": 0.0}, "epsilon_decay must be in (0, 1], got 0.0"),
    ("pattern", "seq", {"reward_noise_scale": -1.0}, "reward_noise_scale must be >= 0"),
    ("pattern", "latent-factor", {"k_low": 3, "k_high": 1},
     "need 1 <= k_low <= k_high, got (3, 1)"),
    ("pattern", "nn-mnar", {"neighborhood_size_range": (5, 2)},
     "neighborhood_size_range must be a nonempty positive range, got (5, 2)"),
    ("pattern", "col-mar", {"predictor_fraction": 1.0},
     "predictor_fraction must be in (0, 1), got 1.0"),
    ("pattern", "self-masking", {"target_cols": ()}, "target_cols must not be empty"),
    ("pattern", "censoring", {"q_censor": 0.5}, "q_censor must be in [0, 0.5), got 0.5"),
    ("pattern", "polarization-hard", {"q_thresh": 0.0}, "q_thresh must be in (0, 0.5), got 0.0"),
    ("pattern", "polarization-soft", {"eps": 0.5}, "eps must be in (0, 0.5), got 0.5"),
    ("pattern", "polarization-soft", {"alpha": float("nan")}, "alpha must be positive, got nan"),
    ("pattern", "polarization-soft", {"alpha": float("inf")}, "alpha must be finite, got inf"),
    ("pattern", "cluster", {"n_row_clusters": 0}, "cluster counts must be >= 1"),
    ("pattern", "cluster", {"tau_c": -1.0}, "effect scales must be >= 0"),
    ("pattern", "cluster", {"eps_std": float("nan")}, "eps_std must be finite, got nan"),
    ("pattern", "cluster", {"tau_r": float("nan")}, "tau_r must be finite, got nan"),
    ("pattern", "cluster", {"tau_c": float("inf")}, "tau_c must be finite, got inf"),
    ("pattern", "two-phase", {"f_cheap": 1.0}, "f_cheap must be in (0, 1), got 1.0"),
    ("pattern", "two-phase", {"alpha": float("nan")}, "alpha must be finite, got nan"),
    ("pattern", "two-phase", {"beta": float("-inf")}, "beta must be finite, got -inf"),
    ("pattern", "seq", {"reward_noise_scale": float("nan")},
     "reward_noise_scale must be finite, got nan"),
    ("pattern", "seq", {"reward_noise_scale": float("inf")},
     "reward_noise_scale must be finite, got inf"),
]


@pytest.mark.parametrize(
    "kind, tag, params, message", _BAD_PARAMETERS,
    ids=[f"{tag}-{'-'.join(f'{k}={v}' for k, v in params.items())}"
         for _, tag, params, _ in _BAD_PARAMETERS])
def test_a_bad_parameter_is_refused_when_built_when_run_and_before_any_group(
        monkeypatch, kind, tag, params, message):
    record = _lfm_record("d0", 9)
    seed = SeedSpec(9, "direct")
    refused = pytest.raises(ValueError, match="^" + re.escape(message))
    if kind == "method":
        with refused:
            make_imputer(tag, **params)
        ds = apply_mask(record.matrix, generate(PatternSpec("mcar", seed), record.matrix))
        with refused:
            if tag == "ensemble":
                permutation_ensemble(make_imputer("col-mean"), ds, seed=seed, **params)
            else:
                imputers._METHODS[tag][0](ds, **params)
    else:
        with refused:
            PatternSpec(tag, seed, params)
        with refused:
            missingness._PATTERNS[tag][0](record.matrix, **params, seed=seed)

    def no_group(*args):
        raise AssertionError("a group ran")

    masks = []
    monkeypatch.setattr(bench, "generate", lambda *args: masks.append(generate(*args)))
    monkeypatch.setattr(bench, "_run_group", no_group)
    with refused:
        if kind == "method":
            run_benchmark([record], ["mcar"],
                          [make_imputer("col-mean"), make_imputer(tag, **params)],
                          n_seeds=2)
        else:
            run_benchmark([record], [(tag, params)],
                          [make_imputer("col-mean"), make_imputer("soft-impute")],
                          n_seeds=2)
    assert masks == []


def test_unknown_ensemble_base_is_refused_when_built():
    # so a grid never holds such an ensemble
    refused = pytest.raises(
        ValueError, match=re.escape("unknown base method 'nope' (choose from: col-mean, knn, ")
    )
    for params in ({"base_a": "nope"}, {"base_b": "nope"}):
        with refused:
            make_imputer("ensemble", **params)
        with refused:
            EnsembleSpec(**params)


@pytest.mark.parametrize("pattern, numpy_params, python_params", [
    ("block", {"n_row_blocks": np.int64(3), "n_col_blocks": np.int64(2)},
     {"n_row_blocks": 3, "n_col_blocks": 2}),
    ("mcar", {"p_missing": np.float32(0.3)}, {"p_missing": float(np.float32(0.3))}),
    ("self-masking", {"target_cols": np.array([0, 2])}, {"target_cols": (0, 2)}),
    ("self-masking", {"target_cols": [np.int64(0), np.int64(2)]}, {"target_cols": [0, 2]}),
])
def test_numpy_parameters_report_as_their_python_values(
        tmp_path, pattern, numpy_params, python_params):
    record = _lfm_record("d0", 9)
    written = []
    for params, k in ((numpy_params, np.int64(3)), (python_params, 3)):
        methods = [make_imputer("col-mean"), make_imputer("knn", k=k)]
        report = run_benchmark([record], [(pattern, params)], methods, n_seeds=1)
        json_path, csv_path = emit_report(report, tmp_path / str(len(written)))
        doc = json.loads(json_path.read_text())
        del doc["timings"]
        written.append((doc, csv_path.read_bytes()))
    assert written[0] == written[1]
    doc = written[0][0]
    assert doc["config"]["patterns"] == [
        {"pattern": pattern, "overrides": json.loads(json.dumps(python_params))}
    ]
    assert doc["config"]["methods"][1]["params"] == {"k": 3}
    assert [c["diagnostics"]["k"] for c in doc["cells"] if c["method"] == "knn"] == [3]


def test_seq_at_zero_exploration_rate_yields_cells():
    # seq's p_missing is the chance that exploration skips a cell, so at 0
    # the bandit still masks cells; only mcar's zero rate masks nothing
    report = run_benchmark([_lfm_record("d0", 9)], [("seq", {"p_missing": 0})],
                           [make_imputer("col-mean"), make_imputer("soft-impute")],
                           n_seeds=2)
    assert len(report.cells) == 4 and not report.dropped_groups
    assert all(c["error"] is None and c["rmse"] > 0 for c in report.cells)


def test_duplicate_pattern_tags_are_refused():
    # one tag twice would share seed labels and report keys: identical cells,
    # a doubled n_groups and a proportion trajectory that does not sum to 1
    ds = [_lfm_record("d0", 9)]
    methods = [make_imputer("col-mean"), make_imputer("soft-impute")]
    for patterns in (["mcar", "mcar"],
                     ["mcar", ("mcar", {"p_missing": 0.2})],
                     ["panel", "mcar", ("panel", {})]):
        with pytest.raises(ValueError, match="pattern tags must be unique"):
            run_benchmark(ds, patterns, methods, n_seeds=1,
                          adaptive_proportions=True)


def test_adaptive_proportions_trajectory():
    datasets = [_lfm_record("d0", 10)]
    methods = [make_imputer("col-mean"), make_imputer("soft-impute")]
    report = run_benchmark(
        datasets, ["mcar", "panel"], methods, n_seeds=1, seed=14,
        adaptive_proportions=True,
    )
    traj = report.proportion_trajectory
    assert [t["step"] for t in traj] == [0, 50, 100]
    assert np.allclose(list(traj[0]["proportions"].values()), 0.5)
    for entry in traj:
        assert abs(sum(entry["proportions"].values()) - 1.0) < 1e-9


def _replayed_trajectory(cells, patterns, temperature):
    """Reference: 100 scheduler steps against the constant per-pattern mean
    RMSE, recording every refresh."""
    mean_rmse = {}
    for tag in patterns:
        vals = [c["rmse"] for c in cells if c["pattern"] == tag and c["rmse"] is not None]
        mean_rmse[tag] = float(np.mean(vals)) if vals else 0.0
    state = scheduler.uniform_state(patterns, period=50, temperature=temperature)
    out = [{"step": 0, "proportions": state.as_mapping()}]
    for _ in range(100):
        state = scheduler.step(state, lambda tag: mean_rmse[tag])
        if state.step_count % state.period == 0:
            out.append({"step": state.step_count, "proportions": state.as_mapping()})
    return out


def test_trajectory_equals_a_full_scheduler_replay():
    rng = np.random.default_rng(17)
    for _ in range(40):
        patterns = list(rng.choice(PATTERN_TAGS, size=rng.integers(1, 14), replace=False))
        cells = [
            {"pattern": tag, "rmse": None if rng.random() < 0.2 else float(rng.exponential(2))}
            for tag in patterns
            for _ in range(rng.integers(0, 4))  # a pattern may have no scored cell
        ]
        temperature = float(10 ** rng.uniform(-2, 1))
        start = scheduler.uniform_state(patterns, period=50, temperature=temperature)
        got = _proportion_trajectory(cells, start)
        assert json.dumps(got) == json.dumps(
            _replayed_trajectory(cells, patterns, temperature)
        )


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------


def _small_report():
    datasets = [_lfm_record("d0", 15)]
    methods = [make_imputer("col-mean"), make_imputer("soft-impute")]
    return run_benchmark(datasets, ["mcar", "panel"], methods, n_seeds=2, seed=16)


def test_emit_report_round_trips_full_precision(tmp_path):
    report = _small_report()
    json_path, csv_path = emit_report(report, tmp_path)
    doc = json.loads(json_path.read_text())
    for parsed, original in zip(doc["cells"], report.cells):
        assert parsed["rmse"] == original["rmse"]
        assert parsed["accuracy"] == original["accuracy"]
    assert csv_path.exists()


def test_emit_report_is_byte_stable(tmp_path):
    report = _small_report()
    p1, _ = emit_report(report, tmp_path / "a")
    p2, _ = emit_report(report, tmp_path / "b")
    assert p1.read_bytes() == p2.read_bytes()


def test_report_config_names_the_mask_stream(tmp_path):
    json_path, _ = emit_report(_small_report(), tmp_path)
    assert MASK_STREAM == 2
    assert json.loads(json_path.read_text())["config"]["mask_stream"] == MASK_STREAM


def test_report_json_keys_are_the_report_fields_and_the_schema_version(tmp_path):
    json_path, _ = emit_report(_small_report(), tmp_path)
    keys = sorted(json.loads(json_path.read_text()))
    assert keys == sorted([f.name for f in fields(BenchReport)] + ["schema_version"])


def _three_walk_aggregate(cells, methods):
    """The aggregates as one walk over the cells per list: overall, then
    per pattern, then convergence."""
    def stats(values):
        arr = np.array(values, dtype=float)
        std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
        return {"mean": float(arr.mean()), "std": std, "n_groups": int(arr.size)}

    per_pattern, overall = {}, {}
    for method in methods:
        scores = [c["accuracy"] for c in cells
                  if c["method"] == method and c["accuracy"] is not None]
        if scores:
            overall[method] = stats(scores)
    for cell in cells:
        if cell["accuracy"] is None:
            continue
        per_pattern.setdefault(cell["pattern"], {}).setdefault(
            cell["method"], []
        ).append(cell["accuracy"])
    runs = {}
    for cell in cells:
        diag = cell["diagnostics"]
        if "converged" in diag:
            runs.setdefault(cell["method"], {}).setdefault(cell["pattern"], []).append(
                (diag["converged"], diag["iterations"])
            )
    return {
        "per_pattern": {
            pattern: {m: stats(vals) for m, vals in by_method.items()}
            for pattern, by_method in per_pattern.items()
        },
        "overall": overall,
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


class _FailsOnPanel(Imputer):
    """Test-only col-mean that fails in the panel groups, so in a grid that
    runs panel first it is scored after the methods listed after it."""

    def run(self, ds, seed, shared=None):
        if "/panel/" in seed.label:
            raise RuntimeError("deliberate panel failure")
        return super().run(ds, seed, shared)


def test_aggregate_matches_the_three_walk_version_in_value_and_order():
    # a dropped group (panel on one column), failed cells, methods with and
    # without convergence diagnostics, and a method listed first but scored
    # last; the patterns run in reverse alphabetical order
    datasets = [_lfm_record("d0", 21), _lfm_record("d1", 22, n=1, k=1)]
    methods = [
        _FailsOnPanel(method="col-mean", name="mcar-only"),
        make_imputer("col-mean"),
        make_imputer("soft-impute"),
        make_imputer("ice"),
        _AlwaysFails(method="col-mean", name="broken"),
    ]
    with pytest.warns(UserWarning, match="groups dropped"):
        report = run_benchmark(datasets, ["panel", "mcar"], methods, n_seeds=2, seed=23)
    names = [m.name for m in methods]
    assert report.dropped_groups and any(c["error"] for c in report.cells)
    assert list(report.aggregates["per_pattern"]) == ["panel", "mcar"]
    assert list(report.aggregates["convergence"]) == ["soft-impute", "ice"]
    assert list(report.aggregates["overall"]) == names[:4]
    # no sort_keys: the order of every dict counts
    assert json.dumps(report.aggregates) == json.dumps(
        _three_walk_aggregate(report.cells, names))


def test_nn_mnar_cells_leave_every_other_cell_as_it_is():
    # each group draws from its own stream, so changing or dropping the
    # nn-mnar groups moves no cell of another pattern
    datasets = [_lfm_record("d0", 17)]
    methods = [make_imputer("col-mean"), make_imputer("soft-impute")]
    kwargs = dict(methods=methods, n_seeds=2, seed=18)
    both = run_benchmark(datasets, ["mcar", "nn-mnar", "panel"], **kwargs)
    alone = run_benchmark(datasets, ["mcar", "panel"], **kwargs)
    kept = [c for c in both.cells if c["pattern"] != "nn-mnar"]
    assert len(kept) < len(both.cells)
    assert json.dumps(kept, sort_keys=True) == json.dumps(alone.cells, sort_keys=True)


def test_report_table_layout():
    report = _small_report()
    rows = render_table(report.aggregates, ["col-mean", "soft-impute"])
    assert rows[0] == ["pattern", "col-mean", "soft-impute"]
    assert [r[0] for r in rows[1:]] == ["mcar", "panel", "Overall"]
    for row in rows[1:]:
        for cell in row[1:]:
            assert "±" in cell


def test_emit_report_rejects_empty(tmp_path):
    report = _small_report()
    empty = type(report)(
        config=report.config, cells=[], aggregates={}, timings=[],
        dropped_groups=[],
    )
    with pytest.raises(ValueError):
        emit_report(empty, tmp_path)
