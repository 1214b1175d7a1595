import tracemalloc
import warnings

import numpy as np
import pytest

from imputebench.core import DataMatrix, Mask, SeedSpec, apply_mask
from imputebench.ensemble import permutation_ensemble
from imputebench.featurize import (
    SingularSystemError,
    build_features,
    featurized_ridge_peak_bytes,
    ridge_on_features,
    _ridge_fit_predict,
    _row_space,
    _side_block,
)
from imputebench.imputers import _featurized_ridge_fit, impute_featurized_ridge, make_imputer
from imputebench.missingness import PatternSpec, generate


def _masked(values, indicator):
    return apply_mask(DataMatrix(values), Mask(indicator))


def _reference_table(ds):
    """Double-loop construction of the feature table."""
    m, n = ds.shape
    x = ds.observed
    rows = []
    targets = []
    cells = []
    for i in range(m):
        for j in range(n):
            rows.append(np.concatenate([[i, j], x[i, :], x[:, j]]))
            targets.append(x[i, j])
            cells.append((i, j))
    return np.array(rows), np.array(targets), cells


def test_two_by_two_fully_observed_rows():
    ds = _masked([[1.0, 2.0], [3.0, 4.0]], np.ones((2, 2)))
    ft = build_features(ds)
    assert ft.features.shape == (4, 6)
    assert ft.features[1].tolist() == [0.0, 1.0, 1.0, 2.0, 2.0, 4.0]
    assert ft.test_rows.size == 0
    assert np.array_equal(ft.train_rows, np.arange(4))


def test_feature_table_matches_double_loop_oracle():
    rng = np.random.default_rng(8)
    truth = rng.normal(size=(6, 5))
    ind = np.ones(30, dtype=np.uint8)
    ind[rng.choice(30, size=9, replace=False)] = 0
    ds = _masked(truth, ind.reshape(6, 5))
    ft = build_features(ds)
    ref_feats, ref_targets, ref_cells = _reference_table(ds)
    assert ft.features.shape == (30, 6 + 5 + 2 - 0 - 0)
    assert np.array_equal(np.isnan(ft.features), np.isnan(ref_feats))
    assert np.array_equal(
        np.nan_to_num(ft.features, nan=-123.0), np.nan_to_num(ref_feats, nan=-123.0)
    )
    assert np.array_equal(
        np.nan_to_num(ft.targets, nan=-123.0), np.nan_to_num(ref_targets, nan=-123.0)
    )
    assert [tuple(c) for c in ft.cell_index] == ref_cells
    assert ft.test_rows.size == 9
    assert ft.train_rows.size == 21


def test_width_is_m_plus_n_plus_two():
    rng = np.random.default_rng(9)
    for m, n in [(1, 1), (3, 7), (10, 2), (8, 8)]:
        ind = np.ones((m, n), dtype=np.uint8)
        ind[0, 0] = 1
        ds = _masked(rng.normal(size=(m, n)), ind)
        assert build_features(ds).width == m + n + 2


def test_train_targets_reconstruct_observed_matrix():
    rng = np.random.default_rng(10)
    truth = rng.normal(size=(5, 4))
    ind = (rng.random((5, 4)) < 0.7).astype(np.uint8)
    ind[0, 0] = 1
    ds = _masked(truth, ind)
    ft = build_features(ds)
    rebuilt = np.full((5, 4), np.nan)
    for row in ft.train_rows:
        i, j = ft.cell_index[row]
        rebuilt[i, j] = ft.targets[row]
    assert np.array_equal(
        np.nan_to_num(rebuilt, nan=-1.0), np.nan_to_num(ds.observed, nan=-1.0)
    )


def test_row_permutation_permutes_table_blocks():
    rng = np.random.default_rng(11)
    truth = rng.normal(size=(4, 3))
    ind = (rng.random((4, 3)) < 0.8).astype(np.uint8)
    ind[0, 0] = 1
    ds = _masked(truth, ind)
    perm = np.array([2, 0, 3, 1])
    ds_p = _masked(truth[perm], ind[perm])
    ft_p = build_features(ds_p)
    ref_feats, ref_targets, _ = _reference_table(ds_p)
    assert np.array_equal(
        np.nan_to_num(ft_p.features, nan=-9.0), np.nan_to_num(ref_feats, nan=-9.0)
    )
    assert np.array_equal(
        np.nan_to_num(ft_p.targets, nan=-9.0), np.nan_to_num(ref_targets, nan=-9.0)
    )


def test_table_is_built_on_first_read_only():
    rng = np.random.default_rng(18)
    ind = (rng.random((7, 5)) < 0.7).astype(np.uint8)
    ind[0, 0] = 1
    ft = build_features(_masked(rng.normal(size=(7, 5)), ind))
    _ridge_fit_predict(ft, 0.1)
    assert ft.width == 14 and ft.train_rows.size + ft.test_rows.size == 35
    assert "features" not in vars(ft)
    assert ft.features is ft.features
    assert "features" in vars(ft)


def test_ridge_zero_targets_give_zero_predictions():
    rng = np.random.default_rng(12)
    truth = np.zeros((6, 4))
    ind = np.ones((6, 4), dtype=np.uint8)
    ind[2, 1] = ind[4, 3] = 0
    ds = _masked(truth, ind)
    preds = ridge_on_features(build_features(ds), 1.0)
    assert np.allclose(preds, 0.0, atol=1e-12)


def test_ridge_infinite_penalty_shrinks_to_train_mean():
    rng = np.random.default_rng(13)
    truth = rng.normal(size=(7, 5))
    ind = np.ones((7, 5), dtype=np.uint8)
    ind[1, 2] = ind[3, 4] = ind[6, 0] = 0
    ds = _masked(truth, ind)
    ft = build_features(ds)
    train_mean = ft.targets[ft.train_rows].mean()
    preds = ridge_on_features(ft, 1e12)
    assert np.allclose(preds, train_mean, atol=1e-6)


def test_ridge_completes_rank_one_with_constant_row_factor():
    # completion of 1 * v^T is linear in the column context, so the ridge
    # consumer should nail the held-out cell
    rng = np.random.default_rng(14)
    v = rng.normal(size=8)
    truth = np.outer(np.ones(10), v)
    ind = np.ones((10, 8), dtype=np.uint8)
    ind[3, 5] = 0
    ds = _masked(truth, ind)
    preds = ridge_on_features(build_features(ds), 1e-8)
    assert preds.size == 1
    assert abs(preds[0] - v[5]) < 1e-3


ZERO_PENALTY = "featurized ridge needs ridge_lambda > 0"


def test_ridge_singular_at_zero_penalty_reports():
    # the centred design has rank below its width for every table, so a zero
    # penalty is refused before any solve
    rng = np.random.default_rng(15)
    truth = rng.normal(size=(4, 3))
    ind = np.ones((4, 3), dtype=np.uint8)
    ind[1, 1] = 0
    ds = _masked(truth, ind)
    ft = build_features(ds)
    with pytest.raises(ValueError, match=ZERO_PENALTY):
        ridge_on_features(ft, 0.0)
    with pytest.raises(ValueError, match=ZERO_PENALTY):
        impute_featurized_ridge(ds, 0.0)
    preds = ridge_on_features(ft, 1e-6)  # caller retry succeeds
    assert np.all(np.isfinite(preds))


def test_permuted_ridge_singular_at_zero_penalty_reports(monkeypatch):
    rng = np.random.default_rng(15)
    truth = rng.normal(size=(4, 3))
    ind = np.ones((4, 3), dtype=np.uint8)
    ind[1, 1] = 0
    ds = _masked(truth, ind)
    perms = [(rng.permutation(4), rng.permutation(3)) for _ in range(3)]
    seed = SeedSpec(15, "singular")
    # a zero-penalty base is refused when it is built, and the averaged fit
    # that permutation_ensemble runs refuses it too
    with pytest.raises(ValueError, match=ZERO_PENALTY):
        make_imputer("featurized-ridge", ridge_lambda=0.0)
    positions = [(np.argsort(rows), np.argsort(cols)) for rows, cols in perms]
    with pytest.raises(ValueError, match=ZERO_PENALTY):
        _featurized_ridge_fit(ds, 0.0, positions=positions)

    # The same whichever solve fails: the shared block (2-D) or the stacked
    # 2 x 2 Schur complements (3-D).
    real_solve = np.linalg.solve
    ok = make_imputer("featurized-ridge", ridge_lambda=1e-6)
    for failing_ndim in (2, 3):
        def solve(a, b, failing_ndim=failing_ndim):
            if np.ndim(a) == failing_ndim:
                raise np.linalg.LinAlgError("Singular matrix")
            return real_solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", solve)
        with pytest.raises(SingularSystemError):
            permutation_ensemble(ok, ds, 3, seed)
        with pytest.raises(SingularSystemError):
            permutation_ensemble(ok, ds, 3, seed, perms=perms)
        monkeypatch.undo()
    out = permutation_ensemble(ok, ds, 3, seed)  # caller retry succeeds
    assert np.all(np.isfinite(out.completed.values))


def test_ridge_rejects_negative_penalty():
    ds = _masked([[1.0, 2.0]], [[1, 0]])
    with pytest.raises(ValueError):
        ridge_on_features(build_features(ds), -1.0)


@pytest.mark.parametrize("shape", [(150, 40), (40, 150), (300, 20), (60, 60)])
@pytest.mark.parametrize("ridge_lambda", [0.0, 1e-3])
@pytest.mark.parametrize("k", [1, 4, 1000])
def test_featurized_ridge_peak_bytes_bounds_the_traced_peak(shape, ridge_lambda, k):
    # an upper bound that is not loose: the plain fit and the averages over
    # 4 and 1,000 assignments peak at 0.42-0.63 of it here
    rng = np.random.default_rng(18)
    m, n = shape
    truth = rng.normal(size=(m, 3)) @ rng.normal(size=(3, n)) + 0.1 * rng.normal(size=shape)
    ft = build_features(_masked(truth, (rng.random(shape) < 0.7).astype(np.uint8)))
    perms = [(rng.permutation(m), rng.permutation(n)) for _ in range(k)]

    def fit():
        # the positions are made inside the trace, as the ensemble makes them
        positions = None if k == 1 else [(np.argsort(r), np.argsort(c)) for r, c in perms]
        return _ridge_fit_predict(ft, ridge_lambda, positions)

    if ridge_lambda == 0:
        # the fit refuses the penalty before it allocates; the bound, from
        # the shape alone, does not read it
        with pytest.raises(ValueError, match=ZERO_PENALTY):
            fit()
        return
    fit()  # warm up
    tracemalloc.start()
    try:
        fit()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = featurized_ridge_peak_bytes(m, n, k)
    assert 0.4 * bound <= peak <= bound, peak / bound


@pytest.mark.parametrize("k", [4, 1000])
def test_featurized_ridge_peak_bytes_bounds_the_ensembles_traced_peak(k):
    # the ensemble also holds the k permutations it draws; on a 150 x 40
    # mcar input it peaks at 0.43 (k = 4) and 0.66 (k = 1,000) of the bound
    rng = np.random.default_rng(19)
    truth = rng.normal(size=(150, 3)) @ rng.normal(size=(3, 40))
    mask = generate(PatternSpec("mcar", SeedSpec(19, "mcar")), DataMatrix(truth))
    ds = apply_mask(DataMatrix(truth), mask)
    ensemble = make_imputer("ensemble", base_b="col-mean", n_perms=k)
    ensemble.run(ds, SeedSpec(19, "ensemble"))  # warm up
    tracemalloc.start()
    try:
        ensemble.run(ds, SeedSpec(19, "ensemble"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = featurized_ridge_peak_bytes(150, 40, k)
    assert 0.4 * bound <= peak <= bound, peak / bound


def test_featurized_ridge_peak_bytes_counts_the_solved_width():
    # p = min(m, 2n) + min(n, 2m), and 64 bytes per row, column and shared
    # coefficient for each of the k assignments
    assert featurized_ridge_peak_bytes(3000, 20) == 32 * 60**2 + 128 * 60000 + 64 * 3080
    assert featurized_ridge_peak_bytes(8, 40) == 32 * 24**2 + 128 * 320 + 64 * 72
    assert featurized_ridge_peak_bytes(8, 40, 1000) == 32 * 24**2 + 128 * 320 + 64_000 * 72


def test_ridge_train_fit_dimensions():
    rng = np.random.default_rng(16)
    truth = rng.normal(size=(6, 6))
    ind = (rng.random((6, 6)) < 0.75).astype(np.uint8)
    ind[0, 0] = 1
    ds = _masked(truth, ind)
    ft = build_features(ds)
    pred = _ridge_fit_predict(ft, 0.1)
    assert pred.shape == (6, 6)
    assert pred[~ft.indicator].shape == (ft.test_rows.size,)
    assert pred[ft.indicator].shape == (ft.train_rows.size,)


def _explicit_ridge(ft, ridge_lambda):
    """Closed-form ridge on the widened (m*n)-row design, written out: the
    index pair z-scored on the training rows, the context mean-filled over
    the training rows (0 where a context column has no observed value) and
    one missing indicator per context column, solved after centring."""
    train = ft.train_rows
    index = ft.features[:, :2]
    sd = index[train].std(axis=0)
    index = (index - index[train].mean(axis=0)) / np.where(sd == 0, 1.0, sd)
    context = ft.features[:, 2:]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        fill = np.nanmean(context[train], axis=0)
    fill = np.where(np.isnan(fill), 0.0, fill)
    missing = np.isnan(context)
    design = np.concatenate([index, np.where(missing, fill, context), missing], axis=1)
    mu = design[train].mean(axis=0)
    y = ft.targets[train]
    a_c = design[train] - mu
    gram = a_c.T @ a_c + ridge_lambda * np.eye(design.shape[1])
    beta = np.linalg.solve(gram, a_c.T @ (y - y.mean()))
    return (design[ft.test_rows] - mu) @ beta + y.mean(), a_c @ beta + y.mean()


def test_ridge_matches_explicit_design_and_is_additive():
    rng = np.random.default_rng(17)
    # 150x40 reduces only the column block, 8x40 only the row block
    for case, shape in enumerate([None] * 100 + [(150, 40), (8, 40)]):
        m, n = shape or (int(rng.integers(2, 31)), int(rng.integers(2, 21)))
        ind = (rng.random((m, n)) < rng.uniform(0.3, 0.95)).astype(np.uint8)
        if case == 0:
            ind[:, -1] = 0  # a column with no observed entry
        if case == 1:
            ind[-1, :] = 0  # a row with no observed entry
        ind[0, 0] = 1
        ft = build_features(_masked(rng.normal(size=(m, n)), ind))
        for lam in (1e-3, 1.0):
            pred = _ridge_fit_predict(ft, lam)
            ref = np.concatenate(_explicit_ridge(ft, lam))
            err = np.abs(np.concatenate([pred[~ft.indicator], pred[ft.indicator]])
                         - ref).max()
            assert err <= 1e-9 * np.abs(ref).max(), (case, m, n, lam)

            resid = (pred - pred.mean(axis=0) - pred.mean(axis=1)[:, None]
                     + pred.mean())
            assert np.abs(resid).max() <= 1e-9, (case, m, n, lam)


def test_shared_solve_has_the_row_space_width(monkeypatch):
    real_solve = np.linalg.solve
    sizes = []

    def solve(a, b):
        if np.ndim(a) == 2:
            sizes.append(a.shape)
        return real_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", solve)
    rng = np.random.default_rng(19)
    # 150x40: only the column block reduces; 8x40: only the row block;
    # 10x8: both
    for m, n in [(150, 40), (8, 40), (10, 8)]:
        ind = (rng.random((m, n)) < 0.7).astype(np.uint8)
        ind[0, 0] = 1
        ft = build_features(_masked(rng.normal(size=(m, n)), ind))
        width = min(m, 2 * n) + min(n, 2 * m)
        assert width < 2 * m + 2 * n
        sizes.clear()
        _ridge_fit_predict(ft, 1e-3)
        assert sizes == [(width, width)], (m, n)


def test_row_space_keeps_the_row_gram_and_the_centring():
    rng = np.random.default_rng(20)
    for case, (m, n) in enumerate([(3, 10), (10, 3), (7, 7), (40, 12), (150, 40),
                                   (8, 40), (6, 5), (6, 5), (6, 5)]):
        ind = rng.random((m, n)) < 0.7
        x = rng.normal(size=(m, n))
        if case == 6:
            x[1], ind[1] = x[0], ind[0]  # duplicate rows
        if case == 7:
            ind[:, 2] = True  # an all-zero indicator column in the row block
        if case == 8:
            ind[3] = False  # a row with no observed entry
        ind[0, 0] = True
        x = np.where(ind, x, np.nan)
        for side, train in ((x, ind), (x.T, ind.T)):
            weight = train.sum(axis=1)
            block = _side_block(side, weight)
            reduced = _row_space(block)
            r, c = block.shape
            assert reduced.shape == (r, min(r, c)), (case, r, c)
            assert c > r or reduced is block
            gram = block @ block.T
            assert np.abs(reduced @ reduced.T - gram).max() <= 1e-12 * np.abs(gram).max()
            scale = weight.sum() * np.abs(block).max()
            assert np.abs(weight @ reduced).max() <= 1e-12 * scale, (case, r, c)
