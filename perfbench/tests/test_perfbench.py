"""Tests for the benchmark's own arithmetic: self time, cell accounting and
the RMSE aggregation read from report.json."""

import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import summary  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_covered_length_merges_overlaps_and_clips():
    assert tracing.covered_length([(1, 4), (3, 6), (8, 12)], 0, 10) == pytest.approx(7)
    assert tracing.covered_length([(2, 3), (1, 5)], 0, 10) == pytest.approx(4)
    assert tracing.covered_length([(11, 12), (-3, -1)], 0, 10) == 0
    assert tracing.covered_length([], 0, 10) == 0


def test_self_time_with_overlapping_and_nested_children():
    spans = [
        Span(0, None, "root", 0.0, 10.0),
        Span(1, 0, "a", 1.0, 4.0),    # overlaps b
        Span(2, 0, "b", 3.0, 6.0),
        Span(3, 1, "a.child", 2.0, 3.0),  # nested: must not be subtracted from root again
        Span(4, 0, "late", 9.0, 12.0),    # runs past the root: only 9..10 counts
    ]
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(10 - (5 + 1))
    assert selfs[1] == pytest.approx(3 - 1)
    assert selfs[2] == pytest.approx(3)
    assert selfs[3] == pytest.approx(1)
    assert selfs[4] == pytest.approx(3)


def test_tracer_records_parents_and_busy_time():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)
    with tracer.span("cli.main"):
        clock.now = 1.0
        with tracer.span("bench.run_benchmark"):
            clock.now = 2.0
            with tracer.span("imputers.ice"):
                clock.now = 5.0
            clock.now = 6.0
        clock.now = 6.5
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["imputers.ice"].parent_id == by_name["bench.run_benchmark"].span_id
    assert by_name["bench.run_benchmark"].parent_id == by_name["cli.main"].span_id
    assert by_name["cli.main"].parent_id is None
    assert tracing.busy_time(tracer.spans) == pytest.approx(5.0)
    m = tracing.layer_metrics(tracer.spans)
    assert m["imputers.ice_s"] == pytest.approx(3.0)
    assert m["bench.run_benchmark.self_s"] == pytest.approx(2.0)
    assert m["bench.cells"] == 1
    assert m["imputers.knn_s"] == 0


def test_layer_metrics_fit_time_and_counters():
    spans = [
        Span(0, None, "cli.main", 0.0, 20.0),
        Span(1, 0, "bench.run_benchmark", 0.5, 19.0),
        Span(2, 1, "imputers.featurized-ridge", 1.0, 5.0),
        Span(3, 2, "featurize.build_features", 1.5, 2.5, {"shape": (300, 60)}),
        Span(4, 1, "imputers.ensemble", 6.0, 18.0),
        Span(5, 4, "ensemble.blend", 6.0, 18.0),
        Span(6, 5, "ensemble.permutation_ensemble", 6.5, 12.0),
        Span(7, 6, "imputers.soft-impute", 7.0, 8.0, {"iterations": 10, "converged": True}),
        Span(8, 6, "imputers.soft-impute", 9.0, 11.0, {"iterations": 30, "converged": False}),
    ]
    m = tracing.layer_metrics(spans)
    assert m["imputers.featurized-ridge.fit_s"] == pytest.approx(3.0)
    assert m["featurize.table_mb_computed"] == pytest.approx(300 * 60 * 362 * 8 / 2**20)
    assert m["ensemble.base_runs"] == 2
    assert m["bench.cells"] == 2
    assert m["imputers.soft-impute.iterations"] == 40
    assert m["imputers.soft-impute.s_per_iteration"] == pytest.approx(3.0 / 40)
    assert m["imputers.soft-impute.converged_frac"] == pytest.approx(0.5)
    assert m["imputers.ice.s_per_sweep"] == 0


def test_required_spans_follow_the_methods():
    need = tracing.required_spans(["mcar"], ["col-mean", "ensemble"], adaptive=False)
    assert {"imputers.featurized-ridge", "imputers.soft-impute", "featurize.build_features",
            "ensemble.blend", "missingness.mcar"} <= need
    assert "scheduler.step" not in need
    assert "scheduler.step" in tracing.required_spans(["mcar"], ["col-mean", "knn"], True)


def _cell(pattern, method, rmse, seed=0, error=None):
    return {"dataset": "d", "pattern": pattern, "seed": seed, "method": method,
            "rmse": rmse, "error": error}


@pytest.fixture
def report(tmp_path):
    doc = {
        "config": {
            "datasets": ["d"],
            "patterns": [{"pattern": p, "overrides": {}} for p in ("mcar", "panel", "block")],
            "methods": [{"name": m} for m in ("col-mean", "soft-impute", "ice")],
            "n_seeds": 2,
        },
        "cells": [
            _cell("mcar", "col-mean", 1.0), _cell("mcar", "soft-impute", 0.5),
            _cell("mcar", "ice", None, error="RuntimeError: boom"),
            _cell("mcar", "col-mean", 3.0, seed=1), _cell("mcar", "soft-impute", 0.25, seed=1),
            _cell("mcar", "ice", 0.2, seed=1),
            _cell("panel", "col-mean", 2.0), _cell("panel", "soft-impute", 0.75),
            _cell("panel", "ice", 0.4),
        ],
        # panel/1, block/0 and block/1 were dropped: their cells are absent
        "dropped_groups": [
            {"dataset": "d", "pattern": "panel", "seed": 1, "reason": "x"},
            {"dataset": "d", "pattern": "block", "seed": 0, "reason": "x"},
            {"dataset": "d", "pattern": "block", "seed": 1, "reason": "x"},
        ],
    }
    path = tmp_path / "report.json"
    path.write_text(json.dumps(doc, sort_keys=True, indent=2))
    return json.loads(path.read_text())


def test_failed_cells_count_dropped_groups_against_the_full_grid(report):
    attempted, failed = summary.cell_counts(report)
    assert attempted == 1 * 3 * 2 * 3
    assert failed == 1 + 3 * 3


def test_rmse_aggregation_skips_unscored_cells(report):
    by_method = summary.rmse_by_method(report)
    assert list(by_method) == ["col-mean", "soft-impute", "ice"]
    assert by_method["col-mean"] == pytest.approx(2.0)
    assert by_method["soft-impute"] == pytest.approx(0.5)
    assert by_method["ice"] == pytest.approx(0.3)


def test_rmse_vs_col_mean_reads_each_cell_against_its_group(report):
    # mcar/0: 0.5/1 (ice unscored); mcar/1: 0.25/3, 0.2/3; panel/0: 0.75/2, 0.4/2
    ratios = [0.5, 0.25 / 3, 0.2 / 3, 0.375, 0.2]
    expected = math.exp(sum(map(math.log, ratios)) / len(ratios))
    assert summary.rmse_vs_col_mean(report) == pytest.approx(expected)


def test_rmse_vs_col_mean_needs_a_baseline(report):
    only_ice = dict(report, cells=[c for c in report["cells"] if c["method"] == "ice"])
    with pytest.raises(ValueError):
        summary.rmse_vs_col_mean(only_ice)


def test_cells_bytes_ignore_key_order(report):
    shuffled = dict(report, cells=[dict(reversed(list(c.items()))) for c in report["cells"]])
    assert summary.cells_bytes(shuffled) == summary.cells_bytes(report)
