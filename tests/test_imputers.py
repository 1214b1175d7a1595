import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imputebench.core import DataMatrix, Mask, SeedSpec, apply_mask
from imputebench.datagen import LfmSpec, sample_lfm
from imputebench.featurize import _side_block
from imputebench.imputers import (
    METHOD_TAGS,
    _centered_ridge,
    _column_means,
    _mean_fill,
    _row_distances,
    impute_col_mean,
    impute_ice,
    impute_knn,
    impute_soft,
    impute_featurized_ridge,
    make_imputer,
)
from imputebench.missingness import PATTERN_TAGS, PatternSpec, generate

SEED = SeedSpec(31, "imputers")


def _masked(values, indicator):
    return apply_mask(DataMatrix(values), Mask(indicator))


def _random_ds(m, n, p_missing, seed, rank=None):
    rng = np.random.default_rng(seed)
    if rank is None:
        truth = rng.normal(size=(m, n))
    else:
        truth = rng.normal(size=(m, rank)) @ rng.normal(size=(rank, n))
    ind = (rng.random((m, n)) >= p_missing).astype(np.uint8)
    ind[rng.integers(m), rng.integers(n)] = 1
    return _masked(truth, ind)


# ---------------------------------------------------------------------------
# Column mean
# ---------------------------------------------------------------------------


def test_col_mean_basic():
    ds = _masked([[1.0], [5.0], [3.0]], [[1], [0], [1]])
    res = impute_col_mean(ds)
    assert res.completed.values[1, 0] == 2.0


def test_col_mean_identity_when_complete():
    ds = _masked([[1.0, 2.0], [3.0, 4.0]], np.ones((2, 2)))
    res = impute_col_mean(ds)
    assert np.array_equal(res.completed.values, ds.observed)


def test_col_mean_matches_loop_oracle():
    ds = _random_ds(8, 5, 0.3, 42)
    res = impute_col_mean(ds)
    for j in range(5):
        obs = [ds.observed[i, j] for i in range(8) if ds.mask.indicator[i, j]]
        expected = sum(obs) / len(obs) if obs else 0.0
        for i in range(8):
            if not ds.mask.indicator[i, j]:
                assert res.completed.values[i, j] == pytest.approx(expected, abs=1e-12)
            assert res.fitted_observed.values[i, j] == pytest.approx(expected, abs=1e-12)


def test_col_mean_all_missing_column_falls_back_to_zero():
    ds = _masked([[1.0, 9.0], [2.0, 9.0]], [[1, 0], [1, 0]])
    res = impute_col_mean(ds)
    assert np.all(res.completed.values[:, 1] == 0.0)


# ---------------------------------------------------------------------------
# kNN
# ---------------------------------------------------------------------------


def test_knn_duplicate_row_is_the_nearest_neighbor():
    ds = _masked([[1.0, 2.0], [1.0, 5.0]], [[1, 1], [1, 0]])
    res = impute_knn(ds, k=1)
    assert res.completed.values[1, 1] == 2.0


def test_knn_single_row_falls_back_to_col_mean():
    ds = _masked([[1.0, 7.0]], [[1, 0]])
    with pytest.warns(UserWarning):
        res = impute_knn(ds, k=3)
    assert res.completed.values[0, 1] == 0.0  # empty column -> 0 fallback


def test_knn_matches_brute_force_oracle():
    ds = _random_ds(10, 4, 0.3, 43)
    k = 3
    res = impute_knn(ds, k=k)
    m, n = ds.shape
    obs = ds.mask.observed

    def masked_distance(a, b):
        co = obs[a] & obs[b]
        if not co.any():
            return np.inf
        diff = ds.observed[a, co] - ds.observed[b, co]
        return np.sqrt((diff**2).sum() * n / co.sum())

    col_means = {
        j: (np.mean([ds.observed[i, j] for i in range(m) if obs[i, j]])
            if obs[:, j].any() else 0.0)
        for j in range(n)
    }
    for i in range(m):
        for j in range(n):
            cands = sorted(
                (
                    (masked_distance(i, r), r)
                    for r in range(m)
                    if r != i and obs[r, j] and np.isfinite(masked_distance(i, r))
                ),
            )
            if cands:
                expected = np.mean([ds.observed[r, j] for _, r in cands[:k]])
            else:
                expected = col_means[j]
            got = (res.completed.values[i, j] if not obs[i, j]
                   else res.fitted_observed.values[i, j])
            assert got == pytest.approx(expected, abs=1e-10), (i, j)


def _knn_cell_loop(ds, k):
    """Per-cell reference: for every cell, the mean of the first k donors
    with a finite distance, in stable distance order, else the column mean."""
    m, n = ds.shape
    k = min(k, max(m - 1, 1))
    dist = _row_distances(ds)
    means = _column_means(ds)
    obs = ds.mask.observed
    pred = np.empty((m, n))
    for j in range(n):
        donors = np.flatnonzero(obs[:, j])
        if donors.size == 0:
            pred[:, j] = means[j]
            continue
        sub = dist[:, donors]
        order = np.argsort(sub, axis=1, kind="stable")
        ranked = np.take_along_axis(sub, order, axis=1)
        for i in range(m):
            usable = order[i][np.isfinite(ranked[i])]
            if usable.size == 0:
                pred[i, j] = means[j]
            else:
                pred[i, j] = ds.observed[donors[usable[:k]], j].mean()
    return pred


def _assert_knn_matches_cell_loop(ds, k):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # k clamped on short inputs
        res = impute_knn(ds, k=k)
    expected = _knn_cell_loop(ds, k)
    assert res.fitted_observed.values.tobytes() == expected.tobytes()
    completed = np.where(ds.mask.observed, ds.observed, expected)
    assert res.completed.values.tobytes() == completed.tobytes()


def test_knn_matches_cell_loop_on_edge_cases():
    # distance tie: rows 1 and 2 are both at distance 0 from row 0
    tie = _masked([[0.0, 1.0], [0.0, 5.0], [0.0, 7.0]], [[1, 0], [1, 1], [1, 1]])
    for k in (1, 2):
        _assert_knn_matches_cell_loop(tie, k)
    assert impute_knn(tie, k=1).completed.values[0, 1] == 5.0
    # a wide tie: 40 donors at distance 0, too many for an insertion sort
    wide = np.column_stack([np.zeros(41), np.arange(41.0)])
    wide_ind = np.ones((41, 2), dtype=np.uint8)
    wide_ind[0, 1] = 0
    for k in (1, 3):
        _assert_knn_matches_cell_loop(_masked(wide, wide_ind), k)

    rng = np.random.default_rng(45)
    ind = np.array([
        [1, 0, 0, 0, 0],  # reaches column 1 and 2 donors only through row 3 / row 4
        [0, 1, 1, 0, 0],
        [0, 1, 1, 0, 0],
        [1, 1, 0, 0, 0],
        [1, 0, 1, 0, 0],
        [0, 0, 0, 0, 1],  # shares no observed column with any other row
    ], dtype=np.uint8)  # column 3 has no donor
    ds = _masked(rng.normal(size=ind.shape), ind)
    dist = _row_distances(ds)
    assert np.isinf(dist[5]).all()
    assert np.isfinite(dist[0, [1, 2, 3]]).sum() == 1  # fewer finite donors than k
    for k in (1, 2, 3, 5):
        _assert_knn_matches_cell_loop(ds, k)
    res = impute_knn(ds, k=3)
    means = _column_means(ds)
    assert np.array_equal(res.completed.values[5, :4], means[:4])
    assert np.all(res.completed.values[:, 3] == means[3])

    # k clamped to the 2 candidate rows of a 3-row input
    short = _random_ds(3, 4, 0.3, 46)
    with pytest.warns(UserWarning, match="clamping"):
        impute_knn(short, k=5)
    _assert_knn_matches_cell_loop(short, 5)


@pytest.mark.parametrize("pattern", PATTERN_TAGS)
def test_knn_matches_cell_loop_on_every_pattern(pattern):
    for seed in (0, 1):
        truth = sample_lfm(LfmSpec(m=30, n=12, k=2), SeedSpec(seed, "knn-loop"))
        mask = generate(PatternSpec(pattern, SeedSpec(seed, pattern)), truth)
        ds = apply_mask(truth, mask)
        for k in (1, 3, 5, 7):
            _assert_knn_matches_cell_loop(ds, k)


def test_knn_matches_cell_loop_on_sparse_masks():
    for seed in range(30):
        rng = np.random.default_rng(seed)
        ds = _random_ds(int(rng.integers(3, 25)), int(rng.integers(1, 8)),
                        rng.uniform(0.2, 0.9), 1000 + seed)
        for k in (1, 3, 5):
            _assert_knn_matches_cell_loop(ds, k)
        # from k = 8 on, numpy sums the k nearest in another order than the
        # per-cell mean does, so the two agree to rounding only
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            got = impute_knn(ds, k=10).fitted_observed.values
        assert np.allclose(got, _knn_cell_loop(ds, 10), rtol=0, atol=1e-14)


def test_knn_rejects_bad_k():
    ds = _random_ds(5, 3, 0.2, 44)
    with pytest.raises(ValueError):
        impute_knn(ds, k=0)


# ---------------------------------------------------------------------------
# SoftImpute
# ---------------------------------------------------------------------------


def test_soft_fully_observed_zero_lambda_is_identity():
    ds = _masked([[1.0, 2.0], [3.0, 4.0]], np.ones((2, 2)))
    res = impute_soft(ds, lam=0.0)
    assert np.allclose(res.completed.values, ds.observed, atol=1e-12)
    assert res.diagnostics["converged"]
    assert res.diagnostics["iterations"] == 1


def test_soft_huge_lambda_collapses_to_zero():
    ds = _random_ds(10, 6, 0.3, 45)
    filled_norm = float(np.linalg.norm(np.nan_to_num(ds.observed)))
    res = impute_soft(ds, lam=10 * filled_norm)
    missing = ds.mask.missing
    assert np.allclose(res.completed.values[missing], 0.0, atol=1e-10)
    assert np.array_equal(
        res.completed.values[~missing], ds.observed[~missing]
    )


def test_soft_objective_is_monotone():
    for s in range(5):
        ds = _random_ds(20, 12, 0.4, 100 + s, rank=3)
        res = impute_soft(ds, lam=0.5)
        obj = res.diagnostics["objective"]
        assert res.diagnostics["objective_monotone"]
        assert all(b <= a + 1e-9 * max(abs(a), 1.0) for a, b in zip(obj, obj[1:]))


def _soft_objective_of(ds, z, lam):
    obs = ds.mask.observed
    resid = ds.observed[obs] - z[obs]
    return 0.5 * resid @ resid + lam * np.linalg.svd(z, compute_uv=False).sum()


def test_soft_objective_matches_recomputed_nuclear_norm():
    for s, (lam, max_iter) in enumerate([(0.5, 200), (None, 200), (2.0, 3)]):
        ds = _random_ds(20, 12, 0.4, 120 + s, rank=3)
        res = impute_soft(ds, lam=lam, max_iter=max_iter)
        lam = res.diagnostics["lambda"]
        obj = res.diagnostics["objective"]
        z = res.fitted_observed.values
        assert obj[-1] == pytest.approx(_soft_objective_of(ds, z, lam), rel=1e-9)
        means = np.nan_to_num(np.nanmean(ds.observed, axis=0))
        start = np.where(ds.mask.observed, ds.observed, means)
        assert obj[0] == pytest.approx(_soft_objective_of(ds, start, lam), rel=1e-9)


def _impute_soft_reference(ds, lam=None, max_iter=200, tol=1e-5):
    """impute_soft as it was when the objective re-gathered the observed
    cells from the dataset on every iteration."""

    def objective_at(z, lam, s):
        resid = ds.observed[ds.mask.observed] - z[ds.mask.observed]
        return 0.5 * float(resid @ resid) + lam * float(s.sum())

    z = _mean_fill(ds)
    spectrum = np.linalg.svd(z, compute_uv=False)
    if lam is None:
        lam = 0.1 * float(spectrum[0])
    observed = ds.mask.observed
    objective = [objective_at(z, lam, spectrum)]
    converged = False
    for iterations in range(1, max_iter + 1):
        w = np.where(observed, ds.observed, z)
        u, s, vt = np.linalg.svd(w, full_matrices=False)
        spectrum = np.maximum(s - lam, 0.0)
        z_new = (u * spectrum) @ vt
        change = float(np.linalg.norm(z_new - z)) / max(float(np.linalg.norm(z)), 1e-12)
        z = z_new
        objective.append(objective_at(z, lam, spectrum))
        if change < tol:
            converged = True
            break
    diffs = np.diff(objective)
    return np.where(observed, ds.observed, z), z, {
        "method": "soft-impute",
        "lambda": lam,
        "iterations": iterations,
        "converged": converged,
        "objective": [float(v) for v in objective],
        "objective_monotone": bool(np.all(diffs <= 1e-9 * max(objective[0], 1.0))),
        "final_change": float(diffs[-1]) if diffs.size else 0.0,
    }


@pytest.mark.parametrize("pattern", ["mcar", "block"])
def test_soft_matches_reference_bitwise(pattern):
    truth = sample_lfm(LfmSpec(m=60, n=15, k=3), SeedSpec(7, "soft-ref"))
    for rep, (lam, max_iter) in enumerate([(None, 200), (0.5, 200), (None, 4)]):
        mask = generate(PatternSpec(pattern, SeedSpec(rep, pattern)), truth)
        ds = apply_mask(truth, mask)
        got = impute_soft(ds, lam=lam, max_iter=max_iter)
        completed, fitted, diagnostics = _impute_soft_reference(ds, lam, max_iter)
        assert got.completed.values.tobytes() == completed.tobytes()
        assert got.fitted_observed.values.tobytes() == fitted.tobytes()
        assert got.diagnostics == diagnostics


def test_soft_recovers_rank_one_matrix():
    rng = np.random.default_rng(46)
    u = rng.normal(size=50)
    v = rng.normal(size=40)
    u /= np.linalg.norm(u)
    v /= np.linalg.norm(v)
    truth = 20.0 * np.outer(u, v)
    ind = (rng.random((50, 40)) >= 0.3).astype(np.uint8)
    ds = _masked(truth, ind)
    res = impute_soft(ds, lam=1.0)
    missing = ds.mask.missing
    err = res.completed.values[missing] - truth[missing]
    assert np.sqrt(np.mean(err**2)) < 0.05


def test_soft_default_shrinkage_is_tenth_of_top_singular_value():
    ds = _random_ds(12, 8, 0.3, 53, rank=2)
    filled = np.where(ds.mask.observed, ds.observed, 0.0)
    means = np.array([
        ds.observed[ds.mask.observed[:, j], j].mean() for j in range(8)
    ])
    filled = np.where(ds.mask.observed, ds.observed, means[None, :])
    top = np.linalg.svd(filled, compute_uv=False)[0]
    res = impute_soft(ds)
    assert res.diagnostics["lambda"] == pytest.approx(0.1 * top, rel=1e-12)


def test_soft_nonconvergence_is_reported_not_raised():
    ds = _random_ds(15, 10, 0.4, 47, rank=2)
    res = impute_soft(ds, lam=0.01, max_iter=2, tol=1e-12)
    assert res.diagnostics["converged"] is False
    assert res.diagnostics["iterations"] == 2


# ---------------------------------------------------------------------------
# ICE
# ---------------------------------------------------------------------------


def test_ice_single_column_equals_col_mean():
    ds = _masked([[1.0], [9.0], [3.0]], [[1], [0], [1]])
    res = impute_ice(ds, seed=SEED)
    assert res.completed.values[1, 0] == pytest.approx(2.0, abs=1e-12)


def test_ice_recovers_exact_linear_relation():
    col1 = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    truth = np.column_stack([col1, 2.0 * col1])
    ind = np.ones((6, 2), dtype=np.uint8)
    ind[3, 1] = 0
    ds = _masked(truth, ind)
    res = impute_ice(ds, ridge_lambda=1e-8, seed=SEED)
    assert abs(res.completed.values[3, 1] - 8.0) < 1e-4


def test_ice_fully_observed_is_identity():
    ds = _masked(np.arange(12.0).reshape(3, 4), np.ones((3, 4)))
    res = impute_ice(ds, seed=SEED)
    assert np.array_equal(res.completed.values, ds.observed)
    assert res.diagnostics["iterations"] == 0


def test_ice_converges_and_reports():
    ds = _random_ds(25, 6, 0.3, 48, rank=2)
    res = impute_ice(ds, seed=SEED)
    assert res.diagnostics["converged"]
    assert res.fitted_observed is not None


def _ice_boolean_masks(ds, max_iter, tol, ridge_lambda, seed):
    """Reference ICE that rebuilds each column's boolean row masks and
    predictor list on every sweep. Returns (filled, fitted, iterations,
    converged)."""
    m, n = ds.shape
    obs = ds.mask.observed
    z = _mean_fill(ds)
    incomplete = [j for j in range(n) if not obs[:, j].all() and obs[:, j].any()]
    order = seed.rng().permutation(incomplete) if incomplete else []
    others = {j: np.array([c for c in range(n) if c != j], dtype=np.intp) for j in range(n)}
    iterations = 0
    converged = n == 1 or not incomplete
    for iterations in range(1, max_iter + 1):
        max_change = 0.0
        for j in order:
            train = obs[:, j]
            model = _centered_ridge(z[np.ix_(train, others[j])], ds.observed[train, j],
                                    ridge_lambda)
            new_vals = model(z[np.ix_(~train, others[j])])
            max_change = max(max_change, float(np.abs(new_vals - z[~train, j]).max()))
            z[~train, j] = new_vals
        if max_change < tol:
            converged = True
            break
    if not incomplete:
        iterations = 0
    fitted = np.array(z)
    for j in range(n):
        train = obs[:, j]
        if not train.any():
            fitted[:, j] = 0.0
            continue
        model = _centered_ridge(z[np.ix_(train, others[j])], ds.observed[train, j],
                                ridge_lambda)
        fitted[:, j] = model(z[:, others[j]])
    return z, fitted, iterations, converged


def _assert_ice_matches_boolean_masks(ds, seed, **params):
    params = {"max_iter": 200, "tol": 1e-5, "ridge_lambda": 1e-3, **params}
    res = impute_ice(ds, seed=seed, **params)
    z, fitted, iterations, converged = _ice_boolean_masks(ds, seed=seed, **params)
    completed = np.where(ds.mask.observed, ds.observed, z)
    assert res.completed.values.tobytes() == completed.tobytes()
    assert res.fitted_observed.values.tobytes() == fitted.tobytes()
    assert res.diagnostics["iterations"] == iterations
    assert res.diagnostics["converged"] == converged


def test_ice_matches_boolean_mask_reference():
    for m, n, p in ((25, 6, 0.3), (40, 12, 0.5), (60, 3, 0.2), (9, 9, 0.7)):
        _assert_ice_matches_boolean_masks(_random_ds(m, n, p, 60 + m, rank=2), SEED)
    # short sweep budgets stop before convergence
    _assert_ice_matches_boolean_masks(_random_ds(30, 8, 0.4, 61), SEED, max_iter=2)
    for case in range(100):
        rng = np.random.default_rng(700 + case)
        m, n = int(rng.integers(1, 12)), int(rng.integers(1, 7))
        ind = (rng.random((m, n)) >= rng.uniform(0.0, 0.9)).astype(np.uint8)
        ind[:, rng.integers(n)] = 0  # an all-missing column
        ind[:, rng.integers(n)] = 1  # a fully observed column
        ds = _masked(rng.normal(size=(m, n)), ind)
        _assert_ice_matches_boolean_masks(ds, SeedSpec(case, "ice-ref"),
                                          ridge_lambda=float(rng.choice([1e-3, 1.0])))


# ---------------------------------------------------------------------------
# Featurized ridge
# ---------------------------------------------------------------------------


def test_featurized_ridge_fills_and_reports():
    ds = _random_ds(10, 6, 0.25, 49, rank=2)
    res = impute_featurized_ridge(ds, ridge_lambda=1e-3)
    assert np.all(np.isfinite(res.completed.values))
    assert res.diagnostics["ridge_lambda"] == 1e-3


def _featurized_ridge_on_table(ds, ridge_lambda):
    """The fit as it ran on the materialized (m*n) x (m+n+2) table: targets
    and the train/test split read from the table's rows, the matrix and the
    mask rebuilt from them."""
    m, n = ds.shape
    x = ds.observed
    rows_i, cols_j = np.repeat(np.arange(m), n), np.tile(np.arange(n), m)
    table = np.concatenate(
        [rows_i[:, None].astype(float), cols_j[:, None].astype(float),
         np.repeat(x, n, axis=0), np.tile(x.T, (m, 1))],
        axis=1,
    )
    targets = table[:, 2:2 + n][np.arange(m * n), cols_j]
    observed_flat = ds.mask.observed[rows_i, cols_j]
    train_rows, test_rows = np.flatnonzero(observed_flat), np.flatnonzero(~observed_flat)

    x = targets.reshape(m, n)
    train = np.bincount(train_rows, minlength=m * n).reshape(m, n)
    row_w, col_w = train.sum(axis=1), train.sum(axis=0)
    rows, cols = _side_block(x, row_w), _side_block(x.T, col_w)
    y_mean = targets[train_rows].mean()
    y_c = np.where(train > 0, x - y_mean, 0.0)
    cross = rows.T @ train @ cols
    gram = np.block([
        [rows.T @ (row_w[:, None] * rows), cross],
        [cross.T, cols.T @ (col_w[:, None] * cols)],
    ])
    gram[np.diag_indices_from(gram)] += ridge_lambda
    rhs = np.concatenate([rows.T @ y_c.sum(axis=1), cols.T @ y_c.sum(axis=0)])
    beta = np.linalg.solve(gram, rhs)
    split = rows.shape[1]
    pred = np.add.outer(rows @ beta[:split], cols @ beta[split:]).ravel() + y_mean
    fitted = np.empty(m * n)
    fitted[test_rows], fitted[train_rows] = pred[test_rows], pred[train_rows]
    fitted = fitted.reshape(m, n)
    return np.where(ds.mask.observed, ds.observed, fitted), fitted


def test_featurized_ridge_matches_table_path_bitwise():
    rng = np.random.default_rng(52)
    for case in range(60):
        m, n = int(rng.integers(2, 40)), int(rng.integers(2, 25))
        ind = (rng.random((m, n)) < rng.uniform(0.3, 0.95)).astype(np.uint8)
        if case % 3 == 0:
            ind[int(rng.integers(m)), :] = 0  # a row with no observed entry
        if case % 3 == 1:
            ind[:, int(rng.integers(n))] = 0  # a column with no observed entry
        ind[0, 0] = 1
        ds = _masked(rng.normal(size=(m, n)), ind)
        for lam in (1e-3, 0.5):
            res = impute_featurized_ridge(ds, ridge_lambda=lam)
            completed, fitted = _featurized_ridge_on_table(ds, lam)
            assert res.completed.values.tobytes() == completed.tobytes(), (case, lam)
            assert res.fitted_observed.values.tobytes() == fitted.tobytes(), (case, lam)


def test_featurized_ridge_never_allocates_the_feature_table():
    m = n = 200
    ds = _random_ds(m, n, 0.3, 53)
    table_bytes = m * n * (m + n + 2) * 8  # 122.7 MiB
    impute_featurized_ridge(ds)  # warm up lazy imports and caches
    tracemalloc.start()
    try:
        impute_featurized_ridge(ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < table_bytes / 4, peak / 2**20


# ---------------------------------------------------------------------------
# Shared invariants
# ---------------------------------------------------------------------------

ALL_RUNNERS = [
    ("col-mean", {}),
    ("knn", {"k": 3}),
    ("soft-impute", {"lam": 0.5}),
    ("ice", {}),
    ("featurized-ridge", {}),
]


@pytest.mark.parametrize("tag,params", ALL_RUNNERS)
def test_observed_entries_preserved_bitwise(tag, params):
    ds = _random_ds(12, 7, 0.35, 50, rank=3)
    res = make_imputer(tag, **params).run(ds, SEED)
    obs = ds.mask.observed
    assert np.array_equal(res.completed.values[obs], ds.observed[obs])
    assert np.all(np.isfinite(res.completed.values))
    assert res.fitted_observed is not None


@pytest.mark.parametrize("tag,params", ALL_RUNNERS)
def test_imputers_are_deterministic(tag, params):
    ds = _random_ds(12, 7, 0.35, 51, rank=3)
    a = make_imputer(tag, **params).run(ds, SEED)
    b = make_imputer(tag, **params).run(ds, SEED)
    assert a.completed.values.tobytes() == b.completed.values.tobytes()


@pytest.mark.parametrize("tag,params", ALL_RUNNERS)
def test_imputers_handle_edge_masks(tag, params):
    # fully observed input
    complete = _masked(np.arange(20.0).reshape(4, 5), np.ones((4, 5)))
    res = make_imputer(tag, **params).run(complete, SEED)
    assert np.array_equal(res.completed.values, complete.observed)

    # an all-missing column plus a single-observation column
    rng = np.random.default_rng(52)
    truth = rng.normal(size=(6, 4))
    ind = np.ones((6, 4), dtype=np.uint8)
    ind[:, 2] = 0
    ind[1:, 3] = 0
    ds = _masked(truth, ind)
    res = make_imputer(tag, **params).run(ds, SEED)
    assert np.all(np.isfinite(res.completed.values))


@pytest.mark.parametrize("tag,params", ALL_RUNNERS)
def test_imputers_handle_fully_missing_row(tag, params):
    rng = np.random.default_rng(54)
    truth = rng.normal(size=(7, 5))
    ind = np.ones((7, 5), dtype=np.uint8)
    ind[3, :] = 0
    ds = _masked(truth, ind)
    res = make_imputer(tag, **params).run(ds, SEED)
    assert np.all(np.isfinite(res.completed.values[3]))


@settings(max_examples=25, deadline=None)
@given(
    m=st.integers(2, 12),
    n=st.integers(2, 7),
    p=st.floats(0.05, 0.6),
    seed=st.integers(0, 2**32),
    tag=st.sampled_from(["col-mean", "knn", "soft-impute", "ice"]),
)
def test_observed_preservation_property(m, n, p, seed, tag):
    rng = np.random.default_rng(seed)
    truth = rng.normal(size=(m, n))
    ind = (rng.random((m, n)) >= p).astype(np.uint8)
    ind[rng.integers(m), rng.integers(n)] = 1
    ds = _masked(truth, ind)
    import warnings as _warnings

    with _warnings.catch_warnings():
        _warnings.simplefilter("ignore", UserWarning)  # knn clamp on tiny m
        res = make_imputer(tag).run(ds, SeedSpec(seed, tag))
    obs = ds.mask.observed
    assert np.array_equal(res.completed.values[obs], ds.observed[obs])
    assert np.all(np.isfinite(res.completed.values))


def test_registry_validates_methods_and_params():
    assert set(METHOD_TAGS) == {
        "col-mean", "knn", "soft-impute", "ice", "featurized-ridge", "ensemble",
    }
    with pytest.raises(ValueError):
        make_imputer("mice")
    with pytest.raises(ValueError):
        make_imputer("knn", neighbors=3)
    imp = make_imputer("knn", k=7, name="knn7")
    assert imp.params["k"] == 7 and imp.name == "knn7"
