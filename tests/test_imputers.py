import re
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imputebench.bench import standardize_observed
from imputebench.core import DataMatrix, Mask, SeedSpec, apply_mask
from imputebench.datagen import LfmSpec, sample_lfm
from imputebench.featurize import SingularSystemError
from imputebench import ensemble, imputers
from imputebench.imputers import (
    METHOD_DEFAULTS,
    METHOD_TAGS,
    _column_means,
    _gram_eigh,
    _mean_fill,
    _row_distances,
    _shrink,
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


def test_col_mean_leaves_the_warnings_filters_alone():
    # The filters are process-wide: swapping them around nanmean from two
    # threads at once could leave one thread's "ignore" installed for good.
    truth = sample_lfm(LfmSpec(m=200, n=10, k=3), SeedSpec(5, "col-mean-threads"))
    ds = apply_mask(truth, generate(PatternSpec("mcar", SeedSpec(0, "mcar")), truth))
    before = list(warnings.filters)

    def impute_many():
        for _ in range(3000):
            impute_col_mean(ds)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=impute_many) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert warnings.filters == before


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
    """impute_soft in its thin-SVD formulation: every shrink takes the full
    SVD of the filled matrix and the objective re-gathers the observed cells
    from the dataset. The momentum coefficient is written out on every pass
    (zero while t <= 1) and the restart test is taken literally. lam and
    the start's spectrum come from the mean fill's Gram eigenvalues, which
    impute_soft's first pass computes."""
    observed = ds.mask.observed

    def objective_at(z, s):
        resid = ds.observed[observed] - z[observed]
        return 0.5 * float(resid @ resid) + lam * float(s.sum())

    def shrink(y):
        u, s, vt = np.linalg.svd(np.where(observed, ds.observed, y), full_matrices=False)
        s = np.maximum(s - lam, 0.0)
        z = (u * s) @ vt
        return z, objective_at(z, s)

    z = _mean_fill(ds)
    gram = z.T @ z if z.shape[0] >= z.shape[1] else z @ z.T
    spectrum = np.sqrt(np.maximum(np.linalg.eigh(gram)[0][::-1], 0.0))
    if lam is None:
        lam = 0.1 * float(spectrum[0])
    objective = [objective_at(z, spectrum)]
    converged = False
    t, z_prev = 0.0, z
    for iterations in range(1, max_iter + 1):
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        beta = max(t - 1.0, 0.0) / t_next
        y = z + beta * (z - z_prev)
        z_new, value = shrink(y)
        restart = beta > 0.0 and value > objective[-1]
        if restart:  # the momentum step would raise the objective
            z_new, value = shrink(z)
        restart = restart or float((y - z_new).ravel() @ (z_new - z).ravel()) > 0.0
        t = 1.0 if restart else t_next
        change = float(np.linalg.norm(z_new - z)) / max(float(np.linalg.norm(z)), 1e-12)
        z_prev, z = z, z_new
        objective.append(value)
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
        "final_change": change,
    }


@pytest.mark.parametrize("pattern", ["mcar", "block"])
def test_soft_matches_reference(pattern):
    # The shrink goes through a Gram eigendecomposition, not the reference's
    # thin SVD, so the floats agree to a tolerance rather than bitwise.
    truth = sample_lfm(LfmSpec(m=60, n=15, k=3), SeedSpec(7, "soft-ref"))
    for rep, (lam, max_iter) in enumerate([(None, 200), (0.5, 200), (None, 4)]):
        mask = generate(PatternSpec(pattern, SeedSpec(rep, pattern)), truth)
        ds = apply_mask(truth, mask)
        got = impute_soft(ds, lam=lam, max_iter=max_iter)
        completed, fitted, want = _impute_soft_reference(ds, lam, max_iter)
        diag = got.diagnostics
        for key in ("method", "lambda", "iterations", "converged", "objective_monotone"):
            assert diag[key] == want[key], key
        for values, ref in ((got.completed.values, completed),
                            (got.fitted_observed.values, fitted)):
            assert np.abs(values - ref).max() <= 1e-12 * np.abs(ref).max()
        assert len(diag["objective"]) == len(want["objective"])
        for a, b in zip(diag["objective"], want["objective"]):
            assert abs(a - b) <= 1e-12 * abs(b)
        assert abs(diag["final_change"] - want["final_change"]) <= (
            1e-5 * abs(want["final_change"]))


def test_soft_final_change_is_the_last_relative_change():
    # the stop rule's ratio at the last pass: the fitted matrix's move from
    # the run one pass shorter, relative to that run's fitted matrix
    ds = _random_ds(30, 8, 0.4, 61, rank=2)
    for passes in (1, 2, 5):
        z = impute_soft(ds, max_iter=passes).fitted_observed.values
        after = impute_soft(ds, max_iter=passes + 1)
        assert not after.diagnostics["converged"]
        move = float(np.linalg.norm(after.fitted_observed.values - z))
        assert after.diagnostics["final_change"] == move / float(np.linalg.norm(z)) >= 1e-5
    done = impute_soft(ds).diagnostics
    assert done["converged"] and 0.0 < done["final_change"] < 1e-5


def _impute_soft_plain(ds, lam, max_iter, tol):
    """The unaccelerated iteration z <- shrink(fill(z)) with impute_soft's
    stop rule: the last iterate and the number of passes."""
    z = _mean_fill(ds)
    for passes in range(1, max_iter + 1):
        w = np.where(ds.mask.observed, ds.observed, z)
        z_new = _shrink(w, *_gram_eigh(w), lam)[0]
        change = np.linalg.norm(z_new - z) / max(np.linalg.norm(z), 1e-12)
        z = z_new
        if change < tol:
            break
    return z, passes


def test_soft_stops_closer_to_the_minimizer_than_the_plain_iteration():
    inputs = [(150, 40, "mcar"), (150, 40, "self-masking"), (1000, 20, "censoring")]
    passes = plain_passes = 0
    for m, n, pattern in inputs:
        truth = sample_lfm(LfmSpec(m=m, n=n, k=3, noise_scale=0.1), SeedSpec(1, "soft-tight"))
        mask = generate(PatternSpec(pattern, SeedSpec(1, pattern)), truth)
        ds, _ = standardize_observed(apply_mask(truth, mask))
        res = impute_soft(ds)
        diag = res.diagnostics
        assert diag["converged"] and diag["objective_monotone"], pattern
        plain, plain_iters = _impute_soft_plain(ds, diag["lambda"], 200, 1e-5)
        tight, tight_iters = _impute_soft_plain(ds, diag["lambda"], 20000, 1e-12)
        assert tight_iters < 20000
        assert (np.abs(res.fitted_observed.values - tight).max()
                < np.abs(plain - tight).max()), pattern
        assert diag["iterations"] < plain_iters, pattern
        passes += diag["iterations"]
        plain_passes += plain_iters
    # the well-conditioned mcar input alone saves least (17 of 26 passes)
    assert passes <= 0.6 * plain_passes


def _thin_svd_shrink(w, lam):
    u, s, vt = np.linalg.svd(w, full_matrices=False)
    return (u * np.maximum(s - lam, 0.0)) @ vt


def _shrink_inputs():
    rng = np.random.default_rng(61)
    low_rank = rng.normal(size=(25, 3)) @ rng.normal(size=(3, 10))
    return {
        "tall": rng.normal(size=(40, 9)),
        "wide": rng.normal(size=(9, 40)),
        "square": rng.normal(size=(12, 12)),
        "rank-deficient tall": low_rank,
        "rank-deficient wide": low_rank.T.copy(),
        "all-zero": np.zeros((6, 4)),
        "1xn": rng.normal(size=(1, 7)),
        "mx1": rng.normal(size=(9, 1)),
    }


@pytest.mark.parametrize("name", list(_shrink_inputs()))
def test_soft_threshold_matches_thin_svd(name):
    w = _shrink_inputs()[name]
    # the step's own top singular value, so lam >= sigma_1 is exact on its
    # side; the thin SVD's differs from it in the last bits
    s, vecs = _gram_eigh(w)
    sigma_1 = s[0]
    for factor in (0.0, 1e-6, 0.1, 1.0, 2.0):
        lam = factor * sigma_1
        got, spectrum = _shrink(w, s, vecs, lam)
        assert got.shape == w.shape
        # relative to the input: at lam >= sigma_1 both results are ~0
        diff = np.abs(got - _thin_svd_shrink(w, lam)).max()
        assert diff <= 1e-11 * np.abs(w).max(), factor
        assert spectrum.shape == (min(w.shape),)
        assert np.all(spectrum >= 0.0)
        assert np.all(np.diff(spectrum) <= 0.0)
        if factor >= 1.0:
            assert np.all(got == 0.0) and np.all(spectrum == 0.0)


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


@pytest.mark.parametrize("shape", [(40, 12), (12, 40)])
def test_soft_takes_no_svd_and_one_eigh_a_pass(shape, monkeypatch):
    # the first pass's decomposition also gives the default lam
    ds = _random_ds(*shape, 0.3, 57, rank=2)
    eigh = np.linalg.eigh
    calls = []

    def counted_eigh(a):
        calls.append(a.shape)
        return eigh(a)

    def no_svd(*args, **kwargs):
        raise AssertionError("impute_soft took an SVD")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    res = impute_soft(ds, max_iter=2, tol=0.0)
    assert res.diagnostics["iterations"] == 2
    assert calls == [(12, 12), (12, 12)]  # the shorter side's Gram


def test_soft_nonconvergence_is_reported_not_raised():
    ds = _random_ds(15, 10, 0.4, 47, rank=2)
    res = impute_soft(ds, lam=0.01, max_iter=2, tol=1e-12)
    assert res.diagnostics["converged"] is False
    assert res.diagnostics["iterations"] == 2


# The imputers route their small products through np.dot, which releases the
# GIL where @ does not. These references are the same helpers written with @;
# each imputer must return the same bits with either.


def _gram_eigh_matmul(w):
    tall = w.shape[0] >= w.shape[1]
    evals, vecs = np.linalg.eigh(w.T @ w if tall else w @ w.T)
    return np.sqrt(np.maximum(evals[::-1], 0.0)), vecs[:, ::-1]


def _shrink_matmul(w, s, vecs, lam):
    keep = s > lam
    v = vecs[:, keep]
    op = (v * ((s[keep] - lam) / s[keep])) @ v.T
    return (w @ op if w.shape[0] >= w.shape[1] else op @ w), np.maximum(s - lam, 0.0)


def _centered_ridge_matmul(a, y, lam):
    if a.shape[1] == 0:
        mean = y.mean()
        return lambda b: np.full(b.shape[0], mean)
    mu = a.mean(axis=0)
    ym = y.mean()
    a_c = a - mu
    gram = a_c.T @ a_c + lam * np.eye(a.shape[1])
    beta = np.linalg.solve(gram, a_c.T @ (y - ym))
    return lambda b: (b - mu) @ beta + ym


def _same_result(a, b):
    assert a.completed.values.tobytes() == b.completed.values.tobytes()
    assert a.fitted_observed.values.tobytes() == b.fitted_observed.values.tobytes()
    assert a.diagnostics == b.diagnostics


@pytest.mark.parametrize("shape", [(1000, 20), (150, 40), (60, 15), (15, 40), (20, 300)])
def test_soft_products_match_matmul_reference_bitwise(shape, monkeypatch):
    m, n = shape
    cases = [(_random_ds(m, n, 0.4, 90 + m, rank=3), None),
             (_random_ds(m, n, 0.6, 91 + m), 0.5)]
    got = [impute_soft(ds, lam=lam) for ds, lam in cases]
    ran = []

    def counted(reference):
        def run(*args):
            ran.append(reference.__name__)
            return reference(*args)
        return run

    monkeypatch.setattr(imputers, "_gram_eigh", counted(_gram_eigh_matmul))
    monkeypatch.setattr(imputers, "_shrink", counted(_shrink_matmul))
    for res, (ds, lam) in zip(got, cases):
        _same_result(res, impute_soft(ds, lam=lam))
    assert set(ran) == {"_gram_eigh_matmul", "_shrink_matmul"}


@pytest.mark.parametrize("shape", [(1000, 20), (150, 40), (50, 12), (9, 9)])
def test_ice_products_match_matmul_reference_bitwise(shape):
    m, n = shape
    ds = _random_ds(m, n, 0.4, 80 + m, rank=2)
    _assert_ice_matches_boolean_masks(ds, SEED, max_iter=20, ridge=_centered_ridge_matmul)


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


def test_ice_final_change_is_the_last_sweeps_largest_update():
    # each sweep visits every incomplete column once, so the last sweep's
    # updates are the completion's move from the run one sweep shorter
    ds = _random_ds(30, 8, 0.4, 61)
    for sweeps in (1, 2, 5):
        before = impute_ice(ds, max_iter=sweeps, seed=SEED)
        after = impute_ice(ds, max_iter=sweeps + 1, seed=SEED)
        assert not after.diagnostics["converged"]
        move = np.abs(after.completed.values - before.completed.values).max()
        assert after.diagnostics["final_change"] == move >= 1e-5
    done = impute_ice(_random_ds(25, 6, 0.3, 48, rank=2), seed=SEED).diagnostics
    assert done["converged"] and 0.0 < done["final_change"] < 1e-5
    full = _masked(np.arange(12.0).reshape(3, 4), np.ones((3, 4)))
    assert impute_ice(full, seed=SEED).diagnostics["final_change"] == 0.0


def _centered_ridge(a, y, lam):
    """Closed-form ridge with an unpenalized intercept via centering; with no
    predictors, the target mean."""
    if a.shape[1] == 0:
        mean = y.mean()
        return lambda b: np.full(b.shape[0], mean)
    mu = a.mean(axis=0)
    ym = y.mean()
    a_c = a - mu
    gram = np.dot(a_c.T, a_c) + lam * np.eye(a.shape[1])
    beta = np.linalg.solve(gram, np.dot(a_c.T, y - ym))
    return lambda b: np.dot(b - mu, beta) + ym


def _ice_boolean_masks(ds, max_iter, tol, ridge_lambda, seed, ridge=_centered_ridge):
    """Reference ICE that rebuilds each column's boolean row masks, predictor
    list and ridge fit (``ridge``) on every visit. Returns (filled, fitted,
    iterations, converged)."""
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
            model = ridge(z[np.ix_(train, others[j])], ds.observed[train, j], ridge_lambda)
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
        model = ridge(z[np.ix_(train, others[j])], ds.observed[train, j], ridge_lambda)
        fitted[:, j] = model(z[:, others[j]])
    return z, fitted, iterations, converged


def _assert_ice_matches_boolean_masks(ds, seed, ridge=_centered_ridge, **params):
    params = {"max_iter": 200, "tol": 1e-5, "ridge_lambda": 1e-3, **params}
    res = impute_ice(ds, seed=seed, **params)
    z, fitted, iterations, converged = _ice_boolean_masks(ds, seed=seed, ridge=ridge,
                                                          **params)
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


def _every_pattern(m, n, seed):
    """One masked table per missingness pattern, all masking one m x n table."""
    truth = sample_lfm(LfmSpec(m=m, n=n, k=3), SeedSpec(seed, "every-pattern"))
    for tag in PATTERN_TAGS:
        params = {"n_col_blocks": min(n, 10)} if tag == "block" else {}
        mask = generate(PatternSpec(tag, SeedSpec(seed, tag), params), truth)
        yield tag, apply_mask(truth, mask)


@pytest.mark.parametrize("shape", [(50, 12), (30, 60), (300, 8)])
def test_ice_matches_reference_on_every_pattern(shape):
    for tag, ds in _every_pattern(*shape, seed=1):
        for max_iter in (200, 1):
            _assert_ice_matches_boolean_masks(ds, SeedSpec(2, tag), max_iter=max_iter)


def test_ice_matches_reference_on_narrow_and_degenerate_tables():
    rng = np.random.default_rng(19)
    tables = [
        (rng.normal(size=(9, 1)), rng.random((9, 1)) >= 0.4),
        (rng.normal(size=(12, 2)), rng.random((12, 2)) >= 0.3),
        # a fully observed and a fully missing column
        (rng.normal(size=(8, 2)), np.array([[True, False]] * 8)),
    ]
    for values, observed in tables:
        ds = _masked(values, observed.astype(np.uint8))
        for max_iter in (200, 1):
            _assert_ice_matches_boolean_masks(ds, SEED, max_iter=max_iter)


def test_ice_singular_system_asks_for_a_larger_penalty():
    # the second column has one observed cell, so its centred predictor block
    # is all zeros, and so is the first column's mean-filled predictor
    ds = _masked([[1.0, 2.0], [2.0, 0.0], [3.0, 0.0], [4.0, 0.0]],
                 [[1, 1], [1, 0], [1, 0], [1, 0]])
    with pytest.raises(np.linalg.LinAlgError):
        _ice_boolean_masks(ds, 200, 1e-5, 0.0, SEED)
    with pytest.raises(SingularSystemError, match="retry with a larger ridge_lambda"):
        impute_ice(ds, ridge_lambda=0.0, seed=SEED)
    assert np.isfinite(impute_ice(ds, seed=SEED).completed.values).all()


# ---------------------------------------------------------------------------
# Featurized ridge
# ---------------------------------------------------------------------------


def test_featurized_ridge_fills_and_reports():
    ds = _random_ds(10, 6, 0.25, 49, rank=2)
    res = impute_featurized_ridge(ds, ridge_lambda=1e-3)
    assert np.all(np.isfinite(res.completed.values))
    assert res.diagnostics["ridge_lambda"] == 1e-3


def _table_side_block(x, weight):
    """The design columns owned by the rows of x, index column included: the
    z-scored index, the mean-filled context and its missing indicators,
    centred on the training cells (row i appearing weight[i] times)."""
    total = weight.sum()
    index = np.arange(x.shape[0]) - weight @ np.arange(x.shape[0]) / total
    sd = np.sqrt(weight @ index**2 / total)
    missing = np.isnan(x)
    counts = weight @ ~missing
    with np.errstate(invalid="ignore"):
        fill = np.where(counts > 0, weight @ np.where(missing, 0.0, x) / counts, 0.0)
    block = np.column_stack([index / (sd or 1.0), np.where(missing, fill, x), missing])
    return block - weight @ block / total


def _featurized_ridge_on_table(ds, ridge_lambda):
    """The fit as it ran on the materialized (m*n) x (m+n+2) table: targets
    and the train/test split read from the table's rows, the matrix and the
    mask rebuilt from them, and one solve of the whole Gram matrix, index
    columns included."""
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
    rows, cols = _table_side_block(x, row_w), _table_side_block(x.T, col_w)
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


def test_featurized_ridge_matches_table_path():
    # The fit solves the shared Gram block and a 2 x 2 Schur complement for
    # the index columns; the table path solves the whole Gram matrix at once.
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
            tol = 1e-9 * np.abs(fitted).max()
            assert np.abs(res.completed.values - completed).max() <= tol, (case, lam)
            assert np.abs(res.fitted_observed.values - fitted).max() <= tol, (case, lam)
            obs = ds.mask.observed
            assert res.completed.values[obs].tobytes() == ds.observed[obs].tobytes()


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


@pytest.mark.parametrize("tag, key, name", [
    ("soft-impute", "lam", "lam"),
    ("ice", "ridge_lambda", "ridge penalty"),
    ("featurized-ridge", "ridge_lambda", "ridge penalty"),
])
@pytest.mark.parametrize("penalty", [-1.0, -1e-300, float("nan")])
def test_penalties_must_be_non_negative(tag, key, name, penalty):
    ds = _random_ds(8, 4, 0.3, 54)
    with pytest.raises(ValueError, match=re.escape(f"{name} must be >= 0, got {penalty}")):
        make_imputer(tag, **{key: penalty}).run(ds, SEED)
    make_imputer(tag, **{key: 0.5}).run(ds, SEED)


@pytest.mark.parametrize("tag, key, name", [
    ("soft-impute", "lam", "lam"),
    ("ice", "ridge_lambda", "ridge penalty"),
    ("featurized-ridge", "ridge_lambda", "ridge penalty"),
])
def test_penalties_must_be_finite(tag, key, name):
    # an infinite penalty would run and put Infinity, which is not JSON,
    # into the diagnostics
    with pytest.raises(ValueError, match=re.escape(f"{name} must be finite, got inf")):
        make_imputer(tag, **{key: float("inf")})


def test_featurized_ridge_needs_a_positive_penalty():
    # zero is a valid ICE penalty but leaves featurized ridge's normal
    # equations singular for every table
    ds = _random_ds(40, 4, 0.2, 54)
    with pytest.raises(ValueError, match=re.escape(
            "featurized ridge needs ridge_lambda > 0")):
        make_imputer("featurized-ridge", ridge_lambda=0.0).run(ds, SEED)
    make_imputer("ice", ridge_lambda=0.0).run(ds, SEED)


@pytest.mark.parametrize("tag", ["soft-impute", "ice"])
def test_stop_rule_refuses_a_tol_it_cannot_meet(tag):
    ds = _random_ds(12, 5, 0.3, 55)
    for tol in (float("nan"), -1.0, float("inf")):
        with pytest.raises(ValueError, match=re.escape(
                f"tol must be finite and >= 0, got {tol}")):
            make_imputer(tag, tol=tol).run(ds, SEED)
    with pytest.raises(ValueError, match="max_iter must be >= 1"):
        make_imputer(tag, max_iter=0).run(ds, SEED)
    # tol = 0 is a fixed budget: every pass runs and none claims convergence
    diag = make_imputer(tag, tol=0.0, max_iter=7).run(ds, SEED).diagnostics
    assert diag["iterations"] == 7 and diag["converged"] is False


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


# The method table written out: the table derived from the imputers'
# signatures must keep its keys, order, values and value types.
_PINNED_METHOD_DEFAULTS = {
    "col-mean": {},
    "knn": {"k": 5},
    "soft-impute": {"lam": None, "max_iter": 200, "tol": 1e-5},
    "ice": {"max_iter": 200, "tol": 1e-5, "ridge_lambda": 1e-3},
    "featurized-ridge": {"ridge_lambda": 1e-3},
    "ensemble": {
        "base_a": "featurized-ridge",
        "base_b": "soft-impute",
        "n_perms": 4,
    },
}


def test_method_defaults_are_pinned():
    assert METHOD_TAGS == tuple(_PINNED_METHOD_DEFAULTS)
    assert list(METHOD_DEFAULTS) == list(_PINNED_METHOD_DEFAULTS)
    for tag, pinned in _PINNED_METHOD_DEFAULTS.items():
        got = METHOD_DEFAULTS[tag]
        assert list(got) == list(pinned), tag
        assert got == pinned, tag
        assert [type(v) for v in got.values()] == [type(v) for v in pinned.values()], tag


def test_every_method_tag_dispatches_to_its_own_imputer():
    ds = _random_ds(12, 7, 0.35, 55, rank=3)
    for tag in METHOD_TAGS:
        imp = make_imputer(tag)
        assert imp.params == METHOD_DEFAULTS[tag]
        assert imp.run(ds, SEED).diagnostics["method"] == tag


def test_registry_error_messages_are_pinned():
    cases = [
        (lambda: make_imputer("mice"),
         "unknown method 'mice' (choose from: col-mean, knn, soft-impute, ice, "
         "featurized-ridge, ensemble)"),
        (lambda: make_imputer("knn", neighbors=3, k=2, alpha=1),
         "unknown parameters for 'knn': ['alpha', 'neighbors']"),
        (lambda: PatternSpec("mar", SEED),
         "unknown pattern 'mar' (choose from: mcar, col-mar, nn-mnar, "
         "self-masking, censoring, panel, polarization-hard, polarization-soft, "
         "latent-factor, cluster, two-phase, block, seq)"),
        (lambda: PatternSpec("mcar", SEED, {"q_censor": 0.2}),
         "unknown parameters for 'mcar': ['q_censor']"),
    ]
    for build, message in cases:
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message


def test_ensemble_spec_is_one_object():
    assert ensemble.EnsembleSpec is imputers.EnsembleSpec


def test_ice_seed_is_keyword_only():
    ds = _random_ds(8, 5, 0.3, 56)
    with pytest.raises(TypeError):
        impute_ice(ds, 20, 1e-5, 1e-3, SEED)
