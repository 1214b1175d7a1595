import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imputebench import ensemble as ens
from imputebench.core import DataMatrix, Mask, SeedSpec, apply_mask
from imputebench.ensemble import (
    EnsembleSpec,
    adaptive_weight,
    blend,
    permutation_ensemble,
)
from imputebench.imputers import (
    EQUIVARIANT_METHODS,
    ImputationResult,
    Imputer,
    make_imputer,
)

SEED = SeedSpec(61, "ensemble")


def _random_ds(m, n, p_missing, seed, rank=2):
    rng = np.random.default_rng(seed)
    truth = rng.normal(size=(m, rank)) @ rng.normal(size=(rank, n))
    ind = (rng.random((m, n)) >= p_missing).astype(np.uint8)
    ind[rng.integers(m), rng.integers(n)] = 1
    return apply_mask(DataMatrix(truth), Mask(ind))


def _golden_section(f, lo=-10.0, hi=10.0, tol=1e-10):
    """1-D minimizer oracle, independent of the closed form."""
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    while abs(b - a) > tol:
        if f(c) < f(d):
            b = d
        else:
            a = c
        c = b - phi * (b - a)
        d = a + phi * (b - a)
    return 0.5 * (a + b)


# ---------------------------------------------------------------------------
# adaptive_weight
# ---------------------------------------------------------------------------


def test_weight_is_one_when_first_base_is_perfect():
    rng = np.random.default_rng(0)
    xo = rng.normal(size=30)
    x2 = rng.normal(size=30)
    assert adaptive_weight(xo, x2, xo) == pytest.approx(1.0, abs=1e-12)


def test_weight_is_zero_when_second_base_is_perfect():
    rng = np.random.default_rng(1)
    xo = rng.normal(size=30)
    x1 = rng.normal(size=30)
    assert adaptive_weight(x1, xo, xo) == pytest.approx(0.0, abs=1e-12)


def test_weight_matches_golden_section_oracle():
    rng = np.random.default_rng(2)
    for _ in range(100):
        x1 = rng.normal(size=50)
        x2 = rng.normal(size=50)
        xo = rng.normal(size=50)
        w = adaptive_weight(x1, x2, xo)
        oracle = _golden_section(
            lambda t: float(np.sum((xo - (t * x1 + (1 - t) * x2)) ** 2))
        )
        assert abs(w - oracle) < 1e-6


def test_weight_degenerate_predictions_give_half():
    x = np.arange(5.0)
    assert adaptive_weight(x, x, x + 1.0) == 0.5
    assert adaptive_weight(x, x + 1e-5, x) != 0.5


def test_weight_is_not_clipped():
    # x_obs beyond the segment between the two predictions extrapolates
    x1 = np.ones(10)
    x2 = np.zeros(10)
    assert adaptive_weight(x1, x2, 2.0 * np.ones(10)) == pytest.approx(2.0)
    assert adaptive_weight(x1, x2, -np.ones(10)) == pytest.approx(-1.0)


def test_weight_errors_on_length_mismatch():
    with pytest.raises(ValueError):
        adaptive_weight(np.ones(3), np.ones(4), np.ones(3))
    with pytest.raises(ValueError):
        adaptive_weight(np.array([]), np.array([]), np.array([]))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32), st.permutations(list(range(8))))
def test_weight_invariant_to_common_permutation(seed, perm):
    rng = np.random.default_rng(seed)
    x1, x2, xo = rng.normal(size=(3, 8))
    p = np.array(perm)
    base = adaptive_weight(x1, x2, xo)
    assert adaptive_weight(x1[p], x2[p], xo[p]) == pytest.approx(base, abs=1e-12)


# ---------------------------------------------------------------------------
# permutation ensemble
# ---------------------------------------------------------------------------


def test_identity_permutation_reproduces_base():
    ds = _random_ds(10, 6, 0.3, 3)
    base = make_imputer("soft-impute", lam=0.5)
    direct = base.run(ds, SEED)
    via = permutation_ensemble(
        base, ds, 1, SEED, perms=[(np.arange(10), np.arange(6))]
    )
    assert np.array_equal(via.completed.values, direct.completed.values)
    assert np.array_equal(
        via.fitted_observed.values[ds.mask.observed],
        direct.fitted_observed.values[ds.mask.observed],
    )


def test_equivariant_base_is_unchanged_by_permutations():
    ds = _random_ds(12, 5, 0.3, 4)
    base = make_imputer("col-mean")
    direct = base.run(ds, SEED)
    for n_perms in (1, 3, 4):
        out = permutation_ensemble(base, ds, n_perms, SEED)
        assert np.allclose(out.completed.values, direct.completed.values, atol=1e-12)


def test_permutation_ensemble_preserves_observed_bitwise():
    ds = _random_ds(9, 7, 0.4, 5)
    out = permutation_ensemble(make_imputer("ice"), ds, 3, SEED)
    obs = ds.mask.observed
    assert np.array_equal(out.completed.values[obs], ds.observed[obs])


def test_permutation_ensemble_is_deterministic():
    ds = _random_ds(9, 7, 0.4, 6)
    a = permutation_ensemble(make_imputer("knn"), ds, 2, SEED)
    b = permutation_ensemble(make_imputer("knn"), ds, 2, SEED)
    assert a.completed.values.tobytes() == b.completed.values.tobytes()


def test_default_n_perms_is_four():
    assert EnsembleSpec().n_perms == 4


def test_permutation_count_validation():
    ds = _random_ds(5, 4, 0.2, 7)
    with pytest.raises(ValueError):
        permutation_ensemble(make_imputer("col-mean"), ds, 0, SEED)
    with pytest.raises(ValueError):
        permutation_ensemble(
            make_imputer("col-mean"), ds, 2, SEED, perms=[(np.arange(5), np.arange(4))]
        )
    good = (np.arange(5), np.arange(4))
    for bad in [
        (np.arange(4), np.arange(4)),  # wrong row length
        (np.arange(5), np.arange(5)),  # wrong column length
        (np.zeros(5, dtype=int), np.arange(4)),  # repeated row index
        (np.arange(5), np.array([0, 1, 1, 3])),  # repeated column index
        (np.array([0, 1, 2, 3, 5]), np.arange(4)),  # out-of-range row index
        (np.arange(5), np.array([0, 1, 2, -1])),  # out-of-range column index
    ]:
        with pytest.raises(ValueError, match="permutation pair 1"):
            permutation_ensemble(
                make_imputer("col-mean"), ds, 2, SEED, perms=[good, bad]
            )


def _unpermute(values, row_perm, col_perm):
    return values[np.argsort(row_perm)][:, np.argsort(col_perm)]


@pytest.mark.parametrize("method", sorted(EQUIVARIANT_METHODS))
def test_equivariant_methods_commute_with_permutations(method):
    imputer = make_imputer(method)
    rng = np.random.default_rng(40)
    for case in range(24):
        m, n = int(rng.integers(6, 30)), int(rng.integers(3, 12))
        ds = _random_ds(m, n, float(rng.uniform(0.1, 0.5)), 100 + case)
        row_perm, col_perm = rng.permutation(m), rng.permutation(n)
        direct = imputer.run(ds, SEED)
        shuffled = imputer.run(ens._permute_dataset(ds, row_perm, col_perm), SEED)
        for got, want in [
            (shuffled.completed, direct.completed),
            (shuffled.fitted_observed, direct.fitted_observed),
        ]:
            back = _unpermute(got.values, row_perm, col_perm)
            assert np.allclose(back, want.values, rtol=0, atol=1e-10), (method, case)


def test_knn_breaks_distance_ties_by_row_order():
    # Rows 1 and 2 agree everywhere row 0 is observed, so they tie as its
    # nearest donor for column 2; k=1 takes whichever comes first.
    truth = np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 5.0], [0.0, 0.0, 7.0], [9.0, 9.0, 1.0]])
    ind = np.ones((4, 3), dtype=np.uint8)
    ind[0, 2] = 0
    ds = apply_mask(DataMatrix(truth), Mask(ind))
    knn = make_imputer("knn", k=1)
    row_swap, cols = np.array([0, 2, 1, 3]), np.arange(3)
    direct = knn.run(ds, SEED).completed.values
    swapped = knn.run(ens._permute_dataset(ds, row_swap, cols), SEED).completed.values
    assert direct[0, 2] == 5.0
    assert _unpermute(swapped, row_swap, cols)[0, 2] == 7.0
    assert "knn" not in EQUIVARIANT_METHODS


def test_blend_runs_equivariant_base_once(monkeypatch):
    counts: dict[str, int] = {}
    real_run = Imputer.run

    def counting_run(self, ds_, seed_):
        counts[self.method] = counts.get(self.method, 0) + 1
        return real_run(self, ds_, seed_)

    monkeypatch.setattr(Imputer, "run", counting_run)
    spec = EnsembleSpec()
    out = blend(_random_ds(12, 6, 0.3, 32), spec, SEED)
    # featurized ridge averages its permutations in one fit, outside Imputer.run
    assert counts == {"soft-impute": 1}
    assert out.diagnostics["n_perms"] == spec.n_perms


def test_equivariant_shortcut_matches_explicit_average():
    n_perms = 4
    base = make_imputer("soft-impute")
    for case in range(5):
        ds = _random_ds(15, 8, 0.35, 50 + case)
        seed = SeedSpec(case, "shortcut")
        m, n = ds.shape
        perms = []
        for t in range(n_perms):
            rng = seed.child(f"perm{t}").child("shuffle").rng()
            perms.append((rng.permutation(m), rng.permutation(n)))
        once = permutation_ensemble(base, ds, n_perms, seed)
        averaged = permutation_ensemble(base, ds, n_perms, seed, perms=perms)
        assert once.diagnostics == averaged.diagnostics
        assert np.allclose(once.completed.values, averaged.completed.values,
                           rtol=0, atol=1e-12)
        assert np.allclose(once.fitted_observed.values, averaged.fitted_observed.values,
                           rtol=0, atol=1e-12)


def _loop_average(imputer, ds, perms):
    """The permutation average written out: permute, fit, un-permute, mean."""
    completed, fitted = [], []
    for row_perm, col_perm in perms:
        result = imputer.run(ens._permute_dataset(ds, row_perm, col_perm), SEED)
        completed.append(_unpermute(result.completed.values, row_perm, col_perm))
        fitted.append(_unpermute(result.fitted_observed.values, row_perm, col_perm))
    return np.mean(completed, axis=0), np.mean(fitted, axis=0)


class _CountingRidge(Imputer):
    calls = 0

    def run(self, ds, seed, shared=None):
        type(self).calls += 1
        return super().run(ds, seed)


def test_featurized_ridge_average_matches_explicit_loop():
    rng = np.random.default_rng(41)
    for case in range(30):
        m, n = int(rng.integers(3, 30)), int(rng.integers(3, 16))
        ind = (rng.random((m, n)) < rng.uniform(0.4, 0.95)).astype(np.uint8)
        if case % 3 == 0:
            ind[int(rng.integers(m)), :] = 0  # a row with no observed entry
        if case % 3 != 2:
            ind[:, int(rng.integers(n))] = 0  # a column with no observed entry
        ind[0, 0] = 1
        ds = apply_mask(DataMatrix(rng.normal(size=(m, n))), Mask(ind))
        seed = SeedSpec(case, "ridge-average")
        for lam in (1e-3, 1.0):
            base = make_imputer("featurized-ridge", ridge_lambda=lam)
            for n_perms in (1, 3, 4):
                drawn = []
                for t in range(n_perms):
                    shuffle = seed.child(f"perm{t}").child("shuffle").rng()
                    drawn.append((shuffle.permutation(m), shuffle.permutation(n)))
                given_perms = [(rng.permutation(m), rng.permutation(n))
                               for _ in range(n_perms)]
                for perms, out in (
                    (drawn, permutation_ensemble(base, ds, n_perms, seed)),
                    (given_perms, permutation_ensemble(base, ds, n_perms, seed,
                                                       perms=given_perms)),
                ):
                    completed, fitted = _loop_average(base, ds, perms)
                    tol = 1e-9 * np.abs(fitted).max()
                    where = (case, lam, n_perms)
                    assert np.abs(out.completed.values - completed).max() <= tol, where
                    assert np.abs(out.fitted_observed.values - fitted).max() <= tol, where
                    obs = ds.mask.observed
                    kept = out.completed.values[obs]
                    assert kept.tobytes() == ds.observed[obs].tobytes()
        identity = [(np.arange(m), np.arange(n))]
        direct = base.run(ds, SEED)
        once = permutation_ensemble(base, ds, 1, SEED, perms=identity)
        for got, want in ((once.completed, direct.completed),
                          (once.fitted_observed, direct.fitted_observed)):
            assert got.values.tobytes() == want.values.tobytes()


def test_featurized_ridge_subclass_keeps_the_loop():
    ds = _random_ds(12, 6, 0.3, 42)
    _CountingRidge.calls = 0
    looped = permutation_ensemble(_CountingRidge("featurized-ridge"), ds, 3, SEED)
    shared = permutation_ensemble(make_imputer("featurized-ridge"), ds, 3, SEED)
    assert _CountingRidge.calls == 3
    tol = 1e-9 * np.abs(looped.fitted_observed.values).max()
    assert np.abs(looped.completed.values - shared.completed.values).max() <= tol


# ---------------------------------------------------------------------------
# blend
# ---------------------------------------------------------------------------


def test_blend_of_identical_bases_equals_the_base():
    ds = _random_ds(10, 6, 0.3, 8)
    spec = EnsembleSpec(base_a="col-mean", base_b="col-mean", n_perms=2)
    out = blend(ds, spec, SEED)
    direct = make_imputer("col-mean").run(ds, SEED)
    assert out.diagnostics["weight"] == 0.5
    assert np.allclose(out.completed.values, direct.completed.values, atol=1e-12)


def test_blend_with_perfect_base_takes_it_entirely(monkeypatch):
    ds = _random_ds(10, 6, 0.3, 9)

    class _PerfectImputer(Imputer):
        def run(self, ds_, seed_):
            truth = ds_.truth.values
            return ImputationResult(
                DataMatrix(np.where(ds_.mask.observed, ds_.observed, truth)),
                DataMatrix(truth),
                {"method": "oracle"},
            )

    real = make_imputer

    def fake_make(tag, **params):
        if tag == "knn":  # the base tags are checked, so a real one stands in
            return _PerfectImputer(method="col-mean", name="oracle")
        return real(tag, **params)

    monkeypatch.setattr(ens, "make_imputer", fake_make)
    spec = EnsembleSpec(base_a="knn", base_b="col-mean", n_perms=1)
    out = blend(ds, spec, SEED)
    assert out.diagnostics["weight"] == pytest.approx(1.0, abs=1e-9)
    missing = ds.mask.missing
    assert np.allclose(out.completed.values[missing], ds.truth.values[missing],
                       atol=1e-9)


def test_blend_observed_mse_never_worse_than_bases():
    for s in range(10):
        ds = _random_ds(14, 7, 0.35, 20 + s)
        spec = EnsembleSpec(base_a="col-mean", base_b="soft-impute", n_perms=2)
        seed = SeedSpec(s, "blend-mse")
        out = blend(ds, spec, seed)
        obs = ds.mask.observed
        xo = ds.observed[obs]
        res_a = permutation_ensemble(
            make_imputer("col-mean"), ds, 2, seed.child("base-a")
        )
        res_b = permutation_ensemble(
            make_imputer("soft-impute"), ds, 2, seed.child("base-b")
        )
        mse = lambda r: float(np.mean((r.fitted_observed.values[obs] - xo) ** 2))
        blend_mse = float(np.mean((out.fitted_observed.values[obs] - xo) ** 2))
        assert blend_mse <= min(mse(res_a), mse(res_b)) + 1e-9


def test_blend_records_weight_and_bases():
    ds = _random_ds(8, 5, 0.3, 30)
    out = blend(ds, EnsembleSpec(n_perms=1), SEED)
    diag = out.diagnostics
    assert diag["base_a"] == "featurized-ridge"
    assert diag["base_b"] == "soft-impute"
    assert isinstance(diag["weight"], float)


def test_ensemble_registry_method_runs():
    ds = _random_ds(8, 5, 0.3, 31)
    imp = make_imputer("ensemble", base_a="col-mean", base_b="ice", n_perms=1)
    res = imp.run(ds, SEED)
    obs = ds.mask.observed
    assert np.array_equal(res.completed.values[obs], ds.observed[obs])
    assert "weight" in res.diagnostics

