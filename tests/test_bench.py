import json

import numpy as np
import pytest

from imputebench import imputers, scheduler
from imputebench.bench import (
    DatasetFormatError,
    _proportion_trajectory,
    DatasetRecord,
    discover_datasets,
    emit_report,
    imputation_accuracy,
    load_csv,
    load_mask_csv,
    render_table,
    rmse,
    run_benchmark,
    save_csv,
    save_mask_csv,
    standardize_observed,
)
from imputebench.core import DataMatrix, Mask, SeedSpec, apply_mask
from imputebench.datagen import LfmSpec, sample_lfm
from imputebench.ensemble import EnsembleSpec, blend
from imputebench.imputers import ImputationResult, Imputer, make_imputer
from imputebench.missingness import PATTERN_TAGS, PatternSpec, generate


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
    assert np.allclose(params.invert(out.truth.values), truth, atol=1e-10)


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
    with pytest.warns(UserWarning):
        with pytest.raises(ValueError):
            # both groups lose their only comparison partner -> nothing left
            run_benchmark(datasets, ["mcar"], methods, n_seeds=1, seed=12)


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


def _count_soft_impute(monkeypatch, fail=False):
    """Count (and optionally fail) every soft-impute computation."""
    calls = []
    real = imputers.impute_soft

    def counting(ds, **params):
        calls.append(ds)
        if fail:
            raise RuntimeError("soft-impute failed")
        return real(ds, **params)

    monkeypatch.setattr(imputers, "impute_soft", counting)
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
        got = _proportion_trajectory(cells, patterns, temperature)
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
