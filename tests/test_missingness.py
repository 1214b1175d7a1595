import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit, logit
from scipy.stats import chi2

from imputebench import missingness as mg
from imputebench.core import DataMatrix, DegenerateMaskError, Mask, SeedSpec, missing_fraction
from imputebench.datagen import LfmSpec, sample_lfm


def _random_matrix(m, n, seed):
    return DataMatrix(np.random.default_rng(seed).normal(size=(m, n)))


def _sorted_quantile(values, q):
    """Independent linear-interpolation quantile for oracle checks."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    frac = pos - lo
    return s[lo] * (1 - frac) + s[hi] * frac


# ---------------------------------------------------------------------------
# sigmoid
# ---------------------------------------------------------------------------


def test_sigmoid_matches_scipy_expit_without_warnings():
    # same formula as scipy; numpy's exp and libm's differ in the last bit
    # on a few inputs, which 1 / (1 + exp) turns into at most eps absolute
    # and 4 units in the last place of the result
    rng = np.random.default_rng(17)
    specials = np.array([-np.inf, np.inf, -800.0, 800.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow warning fails the test
        for x in [specials] + [rng.normal(scale=s, size=20_000)
                               for s in (0.1, 1.0, 5.0, 40.0, 400.0)]:
            got, ref = mg._sigmoid(x), expit(x)
            bound = np.minimum(np.finfo(float).eps, 4 * np.spacing(ref))
            close = np.abs(got - ref) <= bound
            assert close.all(), x[~close][:5]
        assert mg._sigmoid(specials).tolist() == [0.0, 1.0, 0.0, 1.0, 0.5]


# ---------------------------------------------------------------------------
# calibrate_intercept
# ---------------------------------------------------------------------------


def test_calibrate_zero_logits_half_target():
    assert abs(mg.calibrate_intercept(np.zeros(10), 0.5)) < 1e-4


def test_calibrate_zero_logits_matches_logit():
    b = mg.calibrate_intercept(np.zeros(10), 0.4)
    assert abs(b - logit(0.4)) < 1e-4


def test_calibrate_random_logits_hits_target():
    rng = np.random.default_rng(3)
    logits = rng.normal(scale=2.0, size=500)
    for target in (0.1, 0.4, 0.9):
        b = mg.calibrate_intercept(logits, target)
        assert abs(expit(logits + b).mean() - target) <= 1e-6


def test_calibrate_unreachable_target():
    logits = np.full(5, 100.0)
    b = mg.calibrate_intercept(logits, 0.1)
    assert abs(expit(logits + b).mean() - 0.1) <= 1e-6
    with pytest.raises(ValueError):
        mg.calibrate_intercept(np.zeros(5), 0.0)


def test_calibrate_wide_spread_logits_beyond_the_default_bracket():
    # self-masking logits on a gen matrix scaled by 50: the spread runs far
    # past the (-30, 30) start of the intercept search
    values = 50.0 * sample_lfm(LfmSpec(30, 12, 2), SeedSpec(1, "gen")).values
    for j in range(values.shape[1]):
        for slope in mg.SELF_MASKING_COEFFS:
            logits = slope * values[:, j]
            for target in (0.1, 0.4, 0.9):
                b = mg.calibrate_intercept(logits, target)
                assert abs(expit(logits + b).mean() - target) <= 1e-6, (j, slope, target)


def test_calibrate_keeps_the_default_bracket_when_it_holds_the_root():
    rng = np.random.default_rng(4)
    logits = rng.normal(scale=3.0, size=200)
    lo, hi = -30.0, 30.0
    for _ in range(200):  # bisection on the fixed (-30, 30) bracket
        mid = 0.5 * (lo + hi)
        val = mg._sigmoid(logits + mid).mean()
        if abs(val - 0.3) <= 1e-6:
            break
        lo, hi = (mid, hi) if val < 0.3 else (lo, mid)
    assert mg.calibrate_intercept(logits, 0.3) == mid


def _calibrate_scalar_reference(logits, target, tol=1e-6):
    """The one-set bisection in plain Python floats: the search that
    ``_calibrate_rows`` runs on every row at once."""
    logits = np.asarray(logits, dtype=float).ravel()
    lo, hi = -30.0, 30.0
    mean_at = lambda b: float(mg._sigmoid(logits + b).mean())  # noqa: E731
    logit_target = math.log(target / (1.0 - target))
    if mean_at(lo) > target + tol:
        lo = logit_target - float(logits.max())
    if mean_at(hi) < target - tol:
        hi = logit_target - float(logits.min())
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = mean_at(mid)
        if abs(val - target) <= tol:
            return mid
        lo, hi = (mid, hi) if val < target else (lo, mid)
    raise mg.CalibrationError("no convergence")


def test_calibrate_rows_equals_the_scalar_search_bitwise():
    rng = np.random.default_rng(41)
    widened = {"lo": 0, "hi": 0}
    for case in range(60):
        rows, width = int(rng.integers(1, 30)), int(rng.choice([1, 7, 150, 1000]))
        scale = float(rng.choice([0.5, 3.0, 50.0]))
        logits = scale * rng.normal(size=(rows, width))
        logits += scale * rng.normal(size=(rows, 1))  # shift some rows past +-30
        if case % 3 == 0:
            logits *= 50.0  # raw values x50: exp overflows on some entries
        target = float(rng.uniform(0.05, 0.95))
        got = mg._calibrate_rows(logits, target)
        for row, b in zip(logits, got):
            want = _calibrate_scalar_reference(row, target)
            assert b == want == mg.calibrate_intercept(row, target)
            widened["lo"] += mg._sigmoid(row - 30.0).mean() > target + 1e-6
            widened["hi"] += mg._sigmoid(row + 30.0).mean() < target - 1e-6
    assert widened["lo"] > 10 and widened["hi"] > 10


def test_calibrate_rows_raises_when_a_row_cannot_converge():
    # 200 halvings of a 1e300-wide bracket never come within tol
    stuck = np.array([-1e300, 1e300])
    with pytest.raises(mg.CalibrationError):
        mg.calibrate_intercept(stuck, 0.3)
    with pytest.raises(mg.CalibrationError):
        _calibrate_scalar_reference(stuck, 0.3)
    with pytest.raises(mg.CalibrationError):
        mg._calibrate_rows(np.stack([np.zeros(2), stuck, np.ones(2)]), 0.3)
    with pytest.raises(ValueError):
        mg._calibrate_rows(np.zeros((2, 3)), 1.0)


# ---------------------------------------------------------------------------
# MCAR
# ---------------------------------------------------------------------------


def test_mcar_zero_rate_gives_all_ones():
    X = _random_matrix(6, 5, 0)
    mask = mg.gen_mcar(X, 0.0, seed=SeedSpec(1, "mcar"))
    assert mask.n_missing == 0


def test_mcar_rejects_full_missingness():
    with pytest.raises(ValueError):
        mg.gen_mcar(_random_matrix(3, 3, 0), 1.0, seed=SeedSpec(1, "mcar"))


def test_mcar_default_rate():
    assert mg.PATTERN_DEFAULTS["mcar"]["p_missing"] == 0.4


def test_mcar_rate_concentrates():
    X = _random_matrix(100, 40, 1)
    fracs = [
        missing_fraction(mg.gen_mcar(X, 0.4, seed=SeedSpec(s, "mcar-rate")))
        for s in range(20)
    ]
    assert abs(np.mean(fracs) - 0.4) < 0.02


# ---------------------------------------------------------------------------
# Col-MAR
# ---------------------------------------------------------------------------


def test_col_mar_predictor_columns_fully_observed():
    X = _random_matrix(60, 10, 2)
    for s in range(5):
        seed = SeedSpec(s, "colmar")
        mask = mg.gen_col_mar(X, 0.4, 0.2, seed=seed)
        predictors, masked_cols, *_ = mg._col_mar_design(
            X.values, 0.4, 0.2, seed.rng()
        )
        assert mask.indicator[:, predictors].all()
        assert set(predictors) | set(masked_cols) == set(range(10))


def test_col_mar_masked_rows_have_higher_scores():
    # sign test: the drawn weight defines the score, so masked rows should
    # score higher than unmasked ones in nearly every seed
    X = _random_matrix(200, 2, 7)
    wins = 0
    for s in range(50):
        seed = SeedSpec(s, "colmar-sign")
        mask = mg.gen_col_mar(X, 0.4, 0.3, seed=seed)
        predictors, masked_cols, weights, _, _ = mg._col_mar_design(
            X.values, 0.4, 0.3, seed.rng()
        )
        j = masked_cols[0]
        score = X.values[:, predictors] @ weights[0]
        hidden = mask.indicator[:, j] == 0
        if score[hidden].mean() > score[~hidden].mean():
            wins += 1
    assert wins >= 45


def test_col_mar_requires_a_maskable_column():
    X = _random_matrix(10, 2, 3)
    with pytest.raises(ValueError):
        mg.gen_col_mar(X, 0.4, 0.99, seed=SeedSpec(0, "colmar"))


# ---------------------------------------------------------------------------
# NN-MNAR
# ---------------------------------------------------------------------------


def test_nn_forward_zero_weights_degenerates_to_constant():
    inputs = np.random.default_rng(0).normal(size=(30, 4))
    layers = [(np.zeros((4, 6)), np.zeros(6)), (np.zeros((6, 1)), np.zeros(1))]
    logits = mg._nn_forward(inputs, layers)
    assert np.all(logits == logits[0])
    shift = mg.calibrate_intercept(logits, 0.6)
    p = expit(logits + shift)
    assert np.allclose(p, p[0]) and abs(p.mean() - 0.6) <= 1e-6


def test_nn_mnar_propensities_in_unit_interval():
    X = _random_matrix(15, 8, 4)
    seed = SeedSpec(2, "nn")
    p_obs, _, _ = mg._nn_mnar_design(X.values, 0.4, (3, 8), (1, 3), (4, 16), seed.rng())
    assert np.all((p_obs >= 0) & (p_obs <= 1))


def test_nn_mnar_neighborhood_sensitivity():
    # pre-calibration logits must react to cells inside a neighborhood and
    # ignore cells outside every neighborhood
    m, n = 5, 4
    X = _random_matrix(m, n, 9)
    found = None
    for s in range(60):
        rng = SeedSpec(s, "nn-probe").rng()
        _, cells, layers = mg._nn_mnar_design(X.values, 0.4, (1, 2), (1, 1), (4, 4), rng)
        hoods = np.stack(np.divmod(cells, n), axis=-1)
        covered = {(int(r), int(c)) for cell in hoods for r, c in cell}
        outside = [
            (i, j) for i in range(m) for j in range(n) if (i, j) not in covered
        ]
        if outside:
            found = (s, hoods, layers, outside[0])
            break
    assert found is not None, "no seed left a cell outside every neighborhood"
    s, hoods, layers, outside_cell = found

    def logits_for(values):
        inputs = values[hoods[:, :, 0], hoods[:, :, 1]]
        return mg._nn_forward(inputs, layers)

    base = logits_for(X.values)
    bumped = X.values.copy()
    bumped[outside_cell] += 3.0
    assert np.array_equal(logits_for(bumped), base)

    inside_cell = tuple(int(v) for v in hoods[0, 0])
    bumped2 = X.values.copy()
    bumped2[inside_cell] += 3.0
    assert not np.array_equal(logits_for(bumped2), base)


def test_nn_mnar_generates_with_defaults():
    X = _random_matrix(12, 6, 1)
    mask = mg.gen_nn_mnar(X, seed=SeedSpec(8, "nn-gen"))
    assert mask.shape == (12, 6)


def _nn_forward_out_of_place(inputs, layers):
    """Reference forward pass: a fresh array for every product, sum and tanh."""
    h = inputs
    for depth, (w, b) in enumerate(layers):
        h = h @ w + b
        if depth < len(layers) - 1:
            h = np.tanh(h)
    return h.ravel()


def _nn_mnar_design_cell_loop(values, p_missing, neighborhood_size_range,
                              layer_range, width_range, rng):
    """Reference: the same draws as ``_nn_mnar_design``, with each cell's
    candidates mapped to their (row, column) cells in a Python loop and the
    network run out of place."""
    m, n = values.shape
    size = int(rng.integers(neighborhood_size_range[0], neighborhood_size_range[1] + 1))
    size = max(1, min(size, m + n - 1))
    n_hidden = int(rng.integers(layer_range[0], layer_range[1] + 1))
    width = int(rng.integers(width_range[0], width_range[1] + 1))
    dims = [size] + [width] * n_hidden + [1]
    layers = [(rng.normal(size=(d_in, d_out)), rng.normal(size=d_out))
              for d_in, d_out in zip(dims[:-1], dims[1:])]
    candidates = mg._distinct_draws(m + n - 1, size, m * n, rng)
    neighborhoods = np.empty((m * n, size, 2), dtype=np.intp)
    for i in range(m):
        for j in range(n):
            for t, c in enumerate(candidates[i * n + j]):
                if c < n:
                    neighborhoods[i * n + j, t] = (i, c)
                else:
                    r = c - n
                    neighborhoods[i * n + j, t] = (r if r < i else r + 1, j)
    logits = _nn_forward_out_of_place(
        values[neighborhoods[:, :, 0], neighborhoods[:, :, 1]], layers)
    shift = mg.calibrate_intercept(logits, 1.0 - p_missing)
    return mg._sigmoid(logits + shift).reshape(m, n), neighborhoods, layers


NN_SHAPES = [(1, 1), (1, 6), (7, 1), (5, 4), (30, 12), (60, 40)]
NN_SIZES = ((1, 2), (3, 8), (20, 30))  # several clamp s to m + n - 1


@pytest.mark.parametrize("shape", NN_SHAPES)
def test_nn_mnar_design_matches_cell_loop(shape):
    X = _random_matrix(*shape, 11)
    for seed in (0, 1, 2):
        for sizes in NN_SIZES:
            rng_new, rng_old = (SeedSpec(seed, "nn-loop").rng() for _ in range(2))
            p_new, cells_new, layers_new = mg._nn_mnar_design(
                X.values, 0.4, sizes, (1, 3), (4, 16), rng_new)
            hoods_new = np.stack(np.divmod(cells_new, shape[1]), axis=-1)
            p_old, hoods_old, layers_old = _nn_mnar_design_cell_loop(
                X.values, 0.4, sizes, (1, 3), (4, 16), rng_old)
            assert hoods_new.dtype == np.intp and hoods_new.shape == hoods_old.shape
            assert np.array_equal(hoods_new, hoods_old)
            assert np.array_equal(p_new, p_old)
            for (w_new, b_new), (w_old, b_old) in zip(layers_new, layers_old):
                assert np.array_equal(w_new, w_old) and np.array_equal(b_new, b_old)
            assert rng_new.random() == rng_old.random()  # same stream position


@pytest.mark.parametrize("shape", NN_SHAPES)
def test_nn_mnar_neighborhoods_are_distinct_cells_of_the_row_and_column(shape):
    # the pool is the m + n - 1 cells of the row and column, the cell itself among them
    m, n = shape
    pool = m + n - 1
    X = _random_matrix(m, n, 12)
    for seed in (0, 1, 2):
        for lo, hi in NN_SIZES:
            rng = SeedSpec(seed, "nn-distinct").rng()
            _, cells, _ = mg._nn_mnar_design(X.values, 0.4, (lo, hi), (1, 1), (4, 4), rng)
            hoods = np.stack(np.divmod(cells, n), axis=-1)
            size = hoods.shape[1]
            assert min(lo, pool) <= size <= min(hi, pool)
            assert hoods.shape == (m * n, size, 2)
            i, j = np.divmod(np.arange(m * n), n)
            rows, cols = hoods[:, :, 0], hoods[:, :, 1]
            in_row = (rows == i[:, None]) & (cols >= 0) & (cols < n)
            in_col = (cols == j[:, None]) & (rows >= 0) & (rows < m)
            assert (in_row | in_col).all()
            flat = np.sort(rows * n + cols, axis=1)
            assert (np.diff(flat, axis=1) > 0).all()  # no cell twice in one neighborhood
            candidates = mg._distinct_draws(pool, size, m * n, SeedSpec(seed, "d").rng())
            assert candidates.shape == (m * n, size)
            assert candidates.min() >= 0 and candidates.max() < pool
            assert (np.diff(np.sort(candidates, axis=1), axis=1) > 0).all()


def _tuple_chi2_pvalue(draws, pool, size):
    """Pearson chi-square p-value of the draws' ordered tuples against the
    uniform law over all pool! / (pool - size)! of them."""
    n_tuples = math.perm(pool, size)
    codes = draws @ (pool ** np.arange(size))
    _, counts = np.unique(codes, return_counts=True)
    assert counts.size == n_tuples  # every ordered tuple shows up
    expected = draws.shape[0] / n_tuples
    stat = ((counts - expected) ** 2 / expected).sum()
    return chi2.sf(stat, n_tuples - 1)


@pytest.mark.parametrize("pool, size", [(5, 3), (5, 5), (4, 4)])
def test_distinct_draws_are_uniform_over_ordered_tuples(pool, size):
    # 60 ordered 3-tuples from a pool of 5, and full permutations when s = pool
    n_tuples = math.perm(pool, size)
    draws = mg._distinct_draws(pool, size, 200 * n_tuples, SeedSpec(5, "floyd").rng())
    assert _tuple_chi2_pvalue(draws, pool, size) > 1e-3
    # each position is uniform over the pool on its own as well
    for t in range(size):
        counts = np.bincount(draws[:, t], minlength=pool)
        expected = draws.shape[0] / pool
        assert chi2.sf(((counts - expected) ** 2 / expected).sum(), pool - 1) > 1e-3


def test_distinct_draws_across_table_chunks(monkeypatch):
    # a table of a few rows forces many chunks; the draw must not depend on it
    want = mg._distinct_draws(9, 6, 500, SeedSpec(3, "chunk").rng())
    monkeypatch.setattr(mg, "_TAKEN_TABLE_BYTES", 4 * 9 + 5)
    got = mg._distinct_draws(9, 6, 500, SeedSpec(3, "chunk").rng())
    assert np.array_equal(got, want)
    assert (np.diff(np.sort(got, axis=1), axis=1) > 0).all()


def test_nn_mnar_design_is_reproducible_from_its_seed():
    X = _random_matrix(30, 12, 13)
    runs = []
    for _ in range(2):
        rng = SeedSpec(21, "nn-repeat").rng()
        p_obs, hoods, layers = mg._nn_mnar_design(X.values, 0.4, (3, 8), (1, 3), (4, 16), rng)
        runs.append((p_obs, hoods, layers, rng.random(4)))
    (p_a, h_a, l_a, tail_a), (p_b, h_b, l_b, tail_b) = runs
    assert np.array_equal(h_a, h_b) and np.array_equal(p_a, p_b)
    assert len(l_a) == len(l_b)
    for (w_a, b_a), (w_b, b_b) in zip(l_a, l_b):
        assert np.array_equal(w_a, w_b) and np.array_equal(b_a, b_b)
    assert np.array_equal(tail_a, tail_b)  # same stream position after the call


# sha256 of gen_nn_mnar's indicator bytes on stream 2, recorded before the
# neighborhoods were built in place; at s >= 150 the 160 x 100 case spans
# several repeat-table chunks
NN_MNAR_STREAM_2 = [
    ((40, 7), 3, (3, 8), "9ef90f0810bf2753faf3c8e32fd49e1f148a43fa02ec0fc49969b756c719db89"),
    ((25, 30), 11, (1, 4), "7c8a6be2a5dd646f69c2d2305c69222de7098159d72a66a485c6968314f6343f"),
    ((160, 100), 5, (150, 200), "cec926a9452630ddd1eb68388ed19de170c67b39366757cef1cca0d50bb3e0f4"),
]


@pytest.mark.parametrize("shape, seed, sizes, digest", NN_MNAR_STREAM_2)
def test_nn_mnar_masks_are_pinned_on_stream_2(shape, seed, sizes, digest):
    m, n = shape
    X = sample_lfm(LfmSpec(m=m, n=n, k=3), SeedSpec(seed, "digest-data"))
    mask = mg.gen_nn_mnar(X, neighborhood_size_range=sizes, seed=SeedSpec(seed, "nn-mnar"))
    assert mg.MASK_STREAM == 2
    assert hashlib.sha256(mask.indicator.tobytes()).hexdigest() == digest
    if sizes[0] >= 150:
        assert m * n > 2 * (mg._TAKEN_TABLE_BYTES // (m + n - 1))


@pytest.mark.parametrize("sizes, layers, widths, bound_mib", [
    ((8, 8), (3, 3), (16, 16), 8),
    ((200, 200), (1, 3), (4, 16), 75),
])
def test_nn_mnar_design_peak_memory_at_1000x20(sizes, layers, widths, bound_mib):
    X = _random_matrix(1000, 20, 31).values
    mg._nn_mnar_design(X, 0.4, sizes, layers, widths, SeedSpec(1, "peak").rng())  # warm up
    tracemalloc.start()
    try:
        mg._nn_mnar_design(X, 0.4, sizes, layers, widths, SeedSpec(1, "peak").rng())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_mib * 2**20, peak / 2**20


@pytest.mark.parametrize("shape, size, width, n_layers", [
    ((1000, 20), 8, 16, 3), ((1000, 20), 200, 4, 1), ((300, 50), 40, 16, 2),
])
def test_nn_mnar_peak_bytes_bounds_the_traced_peak(shape, size, width, n_layers):
    # an upper bound that is not loose: the generator peaks at 0.67-0.96 of it here
    X = _random_matrix(*shape, 32)
    kwargs = dict(neighborhood_size_range=(size, size), layer_range=(n_layers, n_layers),
                  width_range=(width, width), seed=SeedSpec(2, "peak-bytes"))
    mg.gen_nn_mnar(X, **kwargs)  # warm up
    tracemalloc.start()
    try:
        mg.gen_nn_mnar(X, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = mg.nn_mnar_peak_bytes(*shape, size, width)
    assert 0.6 * bound <= peak <= bound, peak / bound
    # s is clamped to the m + n - 1 candidates, as the generator clamps it
    assert mg.nn_mnar_peak_bytes(*shape, 10**6, width) == mg.nn_mnar_peak_bytes(
        *shape, sum(shape) - 1, width)


# ---------------------------------------------------------------------------
# Self-masking
# ---------------------------------------------------------------------------


def test_self_masking_constant_column_exact_calibration():
    X = DataMatrix(np.full((40, 1), 2.5))
    seed = SeedSpec(4, "selfmask")
    alphas, intercepts, p_miss = mg._self_masking_design(
        X.values, 0.4, np.array([0]), seed.rng()
    )
    assert alphas[0] in mg.SELF_MASKING_COEFFS
    expected = logit(0.4) - alphas[0] * 2.5
    assert abs(intercepts[0] - expected) < 1e-4
    assert np.allclose(p_miss, 0.4, atol=1e-6)


def test_self_masking_slopes_come_from_the_fixed_set():
    X = _random_matrix(30, 6, 5)
    for s in range(5):
        alphas, _, _ = mg._self_masking_design(
            X.values, 0.4, np.arange(6), SeedSpec(s, "sm").rng()
        )
        assert all(a in mg.SELF_MASKING_COEFFS for a in alphas)


def test_self_masking_direction_follows_slope_sign():
    # increasing column: with a positive slope the top half should go
    # missing more often than the bottom half, and conversely
    X = DataMatrix(np.linspace(-2, 2, 100).reshape(-1, 1))
    agree = 0
    for s in range(50):
        seed = SeedSpec(s, "sm-sign")
        mask = mg.gen_self_masking(X, 0.4, seed=seed)
        alphas, _, _ = mg._self_masking_design(
            X.values, 0.4, np.array([0]), seed.rng()
        )
        missing = mask.indicator[:, 0] == 0
        top, bottom = missing[50:].sum(), missing[:50].sum()
        if (top > bottom) == (alphas[0] > 0):
            agree += 1
    assert agree >= 45


def _self_masking_by_column(values, p_missing, targets, rng):
    """Self-masking's design with one scalar calibration per column."""
    alphas = rng.choice(mg.SELF_MASKING_COEFFS, size=targets.size)
    intercepts = np.empty(targets.size)
    p_miss = np.empty((values.shape[0], targets.size))
    for idx, j in enumerate(targets):
        logits = alphas[idx] * values[:, j]
        intercepts[idx] = mg.calibrate_intercept(logits, p_missing)
        p_miss[:, idx] = mg._sigmoid(logits + intercepts[idx])
    return alphas, intercepts, p_miss


def _col_mar_by_column(values, p_missing, predictor_fraction, rng):
    """Col-MAR's design with one weight draw and one scalar calibration per
    masked column."""
    m, n = values.shape
    n_pred = math.ceil(predictor_fraction * n)
    predictors = np.sort(rng.choice(n, size=n_pred, replace=False))
    masked_cols = np.setdiff1d(np.arange(n), predictors)
    weights, intercepts = [], []
    p_miss = np.empty((m, masked_cols.size))
    for idx in range(masked_cols.size):
        w = rng.normal(size=n_pred)
        score = mg._zscore(values[:, predictors] @ w)
        intercepts.append(mg.calibrate_intercept(score, p_missing))
        weights.append(w)
        p_miss[:, idx] = mg._sigmoid(score + intercepts[-1])
    return predictors, masked_cols, weights, intercepts, p_miss


@pytest.mark.parametrize("shape", [(150, 40), (1000, 20)])
def test_column_calibrated_designs_match_the_per_column_loop(shape):
    m, n = shape
    for s in range(4):
        X = sample_lfm(LfmSpec(m, n, 3), SeedSpec(s, "percol"))
        values = X.values * (50.0 if s == 3 else 1.0)  # x50: widened brackets
        subset = np.unique(np.random.default_rng(s).choice(n, size=n // 3))
        for targets in (np.arange(n), subset):
            seed = SeedSpec(s, "sm-percol")
            want = _self_masking_by_column(values, 0.4, targets, seed.rng())
            got = mg._self_masking_design(values, 0.4, targets, seed.rng())
            for a, b in zip(got, want):
                assert a.tobytes() == np.ascontiguousarray(b).tobytes()
            rng = seed.rng()
            p_miss = _self_masking_by_column(values, 0.4, targets, rng)[2]
            indicator = np.ones((m, n), dtype=np.uint8)
            indicator[:, targets] = rng.random((m, targets.size)) >= p_miss
            mask = mg.gen_self_masking(DataMatrix(values), 0.4,
                                       target_cols=list(targets), seed=seed)
            assert np.array_equal(mask.indicator, indicator)
        for fraction in (0.05, 0.3):
            seed = SeedSpec(s, "colmar-percol")
            rng_got, rng_want = seed.rng(), seed.rng()
            got = mg._col_mar_design(values, 0.4, fraction, rng_got)
            want = _col_mar_by_column(values, 0.4, fraction, rng_want)
            for a, b in zip(got, want):
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
            u = rng_want.random((m, want[1].size))
            assert np.array_equal(rng_got.random(u.shape), u)  # same stream position
            indicator = np.ones((m, n), dtype=np.uint8)
            indicator[:, want[1]] = u >= want[4]
            mask = mg.gen_col_mar(DataMatrix(values), 0.4, fraction, seed=seed)
            assert np.array_equal(mask.indicator, indicator)


def test_self_masking_untargeted_columns_stay_observed():
    X = _random_matrix(25, 4, 6)
    mask = mg.gen_self_masking(X, 0.5, target_cols=[1], seed=SeedSpec(0, "sm-t"))
    assert mask.indicator[:, [0, 2, 3]].all()
    assert mask.indicator[:, 1].sum() < 25


def test_self_masking_validates_targets():
    X = _random_matrix(5, 3, 0)
    with pytest.raises(ValueError):
        mg.gen_self_masking(X, 0.4, target_cols=[], seed=SeedSpec(0, "sm"))
    with pytest.raises(ValueError):
        mg.gen_self_masking(X, 0.4, target_cols=[5], seed=SeedSpec(0, "sm"))


# ---------------------------------------------------------------------------
# Censoring
# ---------------------------------------------------------------------------


def test_censoring_zero_quantile_masks_nothing():
    X = _random_matrix(20, 4, 7)
    mask = mg.gen_censoring(X, 0.0, seed=SeedSpec(0, "cens"))
    assert mask.n_missing == 0


def test_censoring_matches_sorted_quantile_oracle():
    col = np.arange(1.0, 101.0)
    X = DataMatrix(np.column_stack([col, col[::-1]]))
    mask = mg.gen_censoring(
        X, 0.25, seed=SeedSpec(0, "cens"), directions=["left", "right"]
    )
    left_thr = _sorted_quantile(col, 0.25)
    right_thr = _sorted_quantile(col[::-1], 0.75)
    assert np.array_equal(mask.indicator[:, 0] == 0, col < left_thr)
    assert np.array_equal(mask.indicator[:, 1] == 0, col[::-1] > right_thr)


def test_censoring_threshold_ties_stay_observed():
    col = np.array([1.0, 1.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    X = DataMatrix(col.reshape(-1, 1))
    # q=0.25 threshold lands within the tied 1.0s; strict < keeps them
    mask = mg.gen_censoring(X, 0.25, seed=SeedSpec(0, "c"), directions=["left"])
    threshold = _sorted_quantile(col, 0.25)
    assert np.array_equal(mask.indicator[:, 0] == 0, col < threshold)


def test_censoring_default_quantile():
    assert mg.PATTERN_DEFAULTS["censoring"]["q_censor"] == 0.25


# ---------------------------------------------------------------------------
# Panel
# ---------------------------------------------------------------------------


def test_panel_two_columns_forces_single_dropout_time():
    X = _random_matrix(10, 2, 8)
    mask = mg.gen_panel(X, seed=SeedSpec(0, "panel"))
    assert mask.indicator[:, 0].all()
    assert not mask.indicator[:, 1].any()


def test_panel_masks_are_row_suffixes():
    for s in range(10):
        X = _random_matrix(15, 7, s)
        mask = mg.gen_panel(X, seed=SeedSpec(s, "panel-sfx"))
        for row in mask.indicator:
            missing = np.flatnonzero(row == 0)
            assert missing.size > 0
            assert missing[0] >= 1
            assert np.array_equal(missing, np.arange(missing[0], 7))


def test_panel_dropout_times_are_uniform():
    X = DataMatrix(np.zeros((10_000, 11)))
    mask = mg.gen_panel(X, seed=SeedSpec(3, "panel-chi2"))
    t0 = mask.indicator.sum(axis=1)  # first missing column index
    counts = np.bincount(t0, minlength=11)[1:]
    expected = 10_000 / 10
    stat = ((counts - expected) ** 2 / expected).sum()
    assert stat < chi2.ppf(0.999, df=9)


def test_panel_needs_two_columns():
    with pytest.raises(ValueError):
        mg.gen_panel(_random_matrix(4, 1, 0), seed=SeedSpec(0, "p"))


# ---------------------------------------------------------------------------
# Polarization
# ---------------------------------------------------------------------------


def test_polarization_hard_matches_quantile_oracle():
    col = np.arange(1.0, 101.0)
    X = DataMatrix(col.reshape(-1, 1))
    mask = mg.gen_polarization_hard(X, 0.25, seed=SeedSpec(0, "pol"))
    low = _sorted_quantile(col, 0.25)
    high = _sorted_quantile(col, 0.75)
    assert np.array_equal(mask.indicator[:, 0] == 0, (col > low) & (col < high))


def test_polarization_hard_near_half_quantile_masks_nothing():
    # even-length integer column: the two central quantiles pinch onto the
    # half-integer median and the strictly-between set empties out
    col = np.arange(1.0, 101.0)
    X = DataMatrix(col.reshape(-1, 1))
    mask = mg.gen_polarization_hard(X, 0.4999999999, seed=SeedSpec(0, "pol"))
    assert mask.n_missing == 0


def test_soft_polarization_propensity_endpoints():
    col = np.array([-3.0, -1.0, 0.0, 2.0, 5.0])  # odd length: median is a datum
    p = mg._soft_polarization_propensity(col.reshape(-1, 1), 2.5, 0.05)[:, 0]
    assert p[2] == 0.05  # at the median exactly eps
    assert p[4] == 1.0 - 0.05  # at max distance exactly 1 - eps
    assert np.all((p >= 0.05) & (p <= 1.0 - 0.05))


def test_soft_polarization_constant_column_stays_at_eps():
    p = mg._soft_polarization_propensity(np.full((6, 1), 3.0), 2.5, 0.05)
    assert np.all(p == 0.05)


def _soft_polarization_by_column(values, alpha, eps):
    """``_soft_polarization_propensity`` one column at a time."""
    p_miss = np.empty_like(values)
    for j in range(values.shape[1]):
        col = values[:, j]
        dist = np.abs(col - np.median(col)) ** alpha
        top = dist.max()
        ratio = dist / top if top > 0 else np.zeros_like(dist)
        p_miss[:, j] = eps * (1.0 - ratio) + (1.0 - eps) * ratio
    return p_miss


def _block_design_by_block(values, p_missing, n_row_blocks, n_col_blocks):
    """``_block_design`` with each block's mean taken over a boolean selection
    of its rows and columns, one block at a time."""
    m, n = values.shape
    row_ids = np.repeat(np.arange(n_row_blocks),
                        [len(c) for c in np.array_split(range(m), n_row_blocks)])
    col_ids = np.repeat(np.arange(n_col_blocks),
                        [len(c) for c in np.array_split(range(n), n_col_blocks)])
    scores = np.zeros((n_row_blocks, n_col_blocks))
    for br in range(n_row_blocks):
        for bc in range(n_col_blocks):
            scores[br, bc] = values[np.ix_(row_ids == br, col_ids == bc)].mean()
    scores = mg._zscore(scores.ravel()).reshape(scores.shape)
    b = mg.calibrate_intercept(scores[row_ids[:, None], col_ids[None, :]], p_missing)
    return row_ids, col_ids, mg._sigmoid(scores + b)


def _quantile_masks_by_column(values, q, directions):
    """The censoring mask (one tail per column, by ``directions``) and the
    polarization-hard mask, one column at a time from scalar quantiles."""
    censored = np.ones(values.shape, dtype=np.uint8)
    middle = np.ones(values.shape, dtype=np.uint8)
    for j, col in enumerate(values.T):
        low, high = _sorted_quantile(col, q), _sorted_quantile(col, 1.0 - q)
        censored[col < low if directions[j] == "left" else col > high, j] = 0
        middle[(col > low) & (col < high), j] = 0
    return censored, middle


def _reference_table(kind, m, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "ties":
        values = rng.integers(0, 4, size=(m, n)).astype(float)
    elif kind == "heavy":
        values = rng.standard_cauchy(size=(m, n)) * 1e3
    else:
        values = rng.normal(size=(m, n))
    values[:, 0] = 1.5  # a zero-spread column
    return values


@pytest.mark.parametrize("kind", ["normal", "ties", "heavy"])
@pytest.mark.parametrize("m, n", [(1, 1), (1, 7), (9, 1), (2, 3), (12, 5), (41, 12), (600, 40)])
def test_column_wise_masks_match_the_per_column_loops(kind, m, n):
    values = _reference_table(kind, m, n, 31 * m + n)
    X = DataMatrix(values)
    for alpha, eps in ((2.5, 0.05), (0.5, 0.3)):
        got = mg._soft_polarization_propensity(values, alpha, eps)
        assert got.tobytes() == _soft_polarization_by_column(values, alpha, eps).tobytes()
    directions = np.where(np.arange(n) % 3 == 1, "right", "left")
    for q in (0.1, 0.25, 0.4999999999):
        thresholds = [_sorted_quantile(col, q) for col in values.T]
        assert mg._quantile(np.sort(values, axis=0), q).tolist() == thresholds
        censored, middle = _quantile_masks_by_column(values, q, directions)
        cens = mg.gen_censoring(X, q, seed=SeedSpec(0, "c"), directions=directions)
        assert np.array_equal(cens.indicator, censored)
        assert np.array_equal(mg.gen_polarization_hard(X, q, seed=SeedSpec(0, "p")).indicator,
                              middle)
    # at 600 x 40 the 1 x 3 grid's blocks are big enough that the mean of a
    # strided view would round differently
    for grid in {(1, 1), (1, min(3, n)), (min(3, m), min(2, n)), (m, n)}:
        got = mg._block_design(values, 0.4, *grid)
        want = _block_design_by_block(values, 0.4, *grid)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want], grid


def test_polarization_defaults():
    assert mg.PATTERN_DEFAULTS["polarization-hard"]["q_thresh"] == 0.25
    assert mg.PATTERN_DEFAULTS["polarization-soft"]["alpha"] == 2.5
    assert mg.PATTERN_DEFAULTS["polarization-soft"]["eps"] == 0.05


# ---------------------------------------------------------------------------
# Latent-factor
# ---------------------------------------------------------------------------


def test_latent_factor_propensity_formula():
    seed = SeedSpec(5, "lf")
    k, p_obs = mg._latent_factor_design((8, 6), 2, 2, seed.rng())
    assert k == 2
    rng = seed.rng()
    assert int(rng.integers(2, 3)) == 2
    u = rng.normal(size=(8, 2))
    v = rng.normal(size=(6, 2))
    b = rng.normal(size=8)
    c = rng.normal(size=6)
    assert np.allclose(p_obs, expit(u @ v.T + b[:, None] + c[None, :]))


def test_latent_factor_defaults_and_rate_oracle():
    assert mg.PATTERN_DEFAULTS["latent-factor"] == {"k_low": 1, "k_high": 5}
    X = _random_matrix(30, 20, 11)
    fracs = [
        1.0 - missing_fraction(
            mg.gen_latent_factor(X, 1, 5, seed=SeedSpec(s, "lf-rate"))
        )
        for s in range(100)
    ]
    # Monte-Carlo oracle for E[sigmoid(u.v + b + c)] averaged over k in 1..5
    rng = np.random.default_rng(999)
    estimates = []
    for k in range(1, 6):
        u = rng.normal(size=(200_000, k))
        v = rng.normal(size=(200_000, k))
        z = (u * v).sum(axis=1) + rng.normal(size=200_000) + rng.normal(size=200_000)
        estimates.append(expit(z).mean())
    assert abs(np.mean(fracs) - np.mean(estimates)) <= 0.03


# ---------------------------------------------------------------------------
# Cluster
# ---------------------------------------------------------------------------


def test_cluster_zero_scales_give_half_propensity():
    _, _, p_obs = mg._cluster_design((7, 5), 3, 2, 0.0, 0.0, 0.0,
                                     SeedSpec(0, "cl").rng())
    assert np.all(p_obs == 0.5)


def test_cluster_propensity_constant_within_cluster_pairs():
    seed = SeedSpec(6, "cl2")
    rows, cols, p_obs = mg._cluster_design((20, 12), 4, 3, 1.0, 1.0, 0.0, seed.rng())
    for r in range(4):
        for c in range(3):
            vals = p_obs[np.ix_(rows == r, cols == c)]
            if vals.size:
                assert np.allclose(vals, vals.flat[0])


def test_cluster_defaults():
    assert mg.PATTERN_DEFAULTS["cluster"]["n_row_clusters"] == 5
    assert mg.PATTERN_DEFAULTS["cluster"]["n_col_clusters"] == 4


# ---------------------------------------------------------------------------
# Two-phase
# ---------------------------------------------------------------------------


def test_two_phase_cheap_block_observed_and_rows_all_or_nothing():
    X = _random_matrix(40, 8, 12)
    for s in range(5):
        seed = SeedSpec(s, "tp")
        mask = mg.gen_two_phase(X, 0.4, 0.0, 2.0, seed=seed)
        cheap, expensive, _ = mg._two_phase_design(X.values, 0.4, 0.0, 2.0, seed.rng())
        assert mask.indicator[:, cheap].all()
        for row in mask.indicator[:, expensive]:
            assert row.all() or not row.any()


def test_two_phase_defaults():
    assert mg.PATTERN_DEFAULTS["two-phase"] == {
        "f_cheap": 0.4, "alpha": 0.0, "beta": 2.0,
    }


def test_two_phase_degenerate_partition():
    with pytest.raises(ValueError):
        mg.gen_two_phase(_random_matrix(5, 1, 0), 0.4, seed=SeedSpec(0, "tp"))


# ---------------------------------------------------------------------------
# Block
# ---------------------------------------------------------------------------


def _block_ids(m, n, br, bc):
    row_ids = np.repeat(np.arange(br), [len(c) for c in np.array_split(range(m), br)])
    col_ids = np.repeat(np.arange(bc), [len(c) for c in np.array_split(range(n), bc)])
    return row_ids, col_ids


def test_block_masks_are_block_constant():
    X = _random_matrix(23, 17, 13)
    for s in range(5):
        mask = mg.gen_block(X, 0.4, 5, 4, seed=SeedSpec(s, "blk"))
        row_ids, col_ids = _block_ids(23, 17, 5, 4)
        for r in range(5):
            for c in range(4):
                vals = mask.indicator[np.ix_(row_ids == r, col_ids == c)]
                assert vals.min() == vals.max()


def test_block_unit_blocks_on_constant_matrix_degenerate_to_mcar():
    X = DataMatrix(np.full((30, 20), 7.0))
    fracs = [
        missing_fraction(mg.gen_block(X, 0.4, 30, 20, seed=SeedSpec(s, "blk-m")))
        for s in range(10)
    ]
    assert abs(np.mean(fracs) - 0.4) < 0.03


def test_block_grid_must_fit():
    with pytest.raises(ValueError):
        mg.gen_block(_random_matrix(5, 5, 0), 0.4, 10, 2, seed=SeedSpec(0, "b"))


def test_block_defaults():
    assert mg.PATTERN_DEFAULTS["block"]["n_row_blocks"] == 10
    assert mg.PATTERN_DEFAULTS["block"]["n_col_blocks"] == 10


# ---------------------------------------------------------------------------
# Seq (bandit)
# ---------------------------------------------------------------------------


def test_seq_defaults_match_table():
    d = mg.PATTERN_DEFAULTS["seq"]
    assert d["algorithm"] == "epsilon_greedy"
    assert d["epsilon"] == 0.4
    assert d["epsilon_decay"] == 0.99
    assert d["pooling"] is False


def test_seq_epsilon_zero_is_bit_deterministic():
    X = _random_matrix(9, 7, 14)
    a = mg.gen_seq(X, epsilon=0.0, seed=SeedSpec(5, "seq"))
    b = mg.gen_seq(X, epsilon=0.0, seed=SeedSpec(5, "seq"))
    assert a.indicator.tobytes() == b.indicator.tobytes()


def test_seq_epsilon_greedy_matches_reference_loop():
    m, n = 5, 8
    X = _random_matrix(m, n, 15)
    epsilon, epsilon_decay, p_missing = 0.4, 0.99, 0.4
    seed = SeedSpec(77, "seq-ref")
    mask = mg.gen_seq(X, epsilon=epsilon, epsilon_decay=epsilon_decay,
                      reward_noise_scale=1.0, p_missing=p_missing, seed=seed)

    # straight-line reference of the same update rule and draw schedule
    rng = seed.rng()
    noise = rng.normal(0.0, 1.0, size=(m, n))
    sums = np.zeros((m, 2))
    counts = np.zeros((m, 2))
    ref = np.zeros((m, n), dtype=int)
    for j in range(n):
        if j == 0:
            arms = [(i + 1) % 2 for i in range(m)]
        elif j == 1:
            arms = [i % 2 for i in range(m)]
        else:
            eps_j = epsilon * epsilon_decay ** (j - 2)
            u_explore = rng.random(m)
            u_arm = rng.random(m)
            arms = []
            for i in range(m):
                mean0 = sums[i, 0] / counts[i, 0]
                mean1 = sums[i, 1] / counts[i, 1]
                greedy = 1 if mean1 >= mean0 else 0
                explored = 0 if u_arm[i] < p_missing else 1
                arms.append(explored if u_explore[i] < eps_j else greedy)
        for i in range(m):
            reward = X.values[i, j] + (noise[i, j] if arms[i] == 1 else 0.0)
            sums[i, arms[i]] += reward
            counts[i, arms[i]] += 1
            ref[i, j] = arms[i]
    assert np.array_equal(mask.indicator, ref)


def _gradient_bandit_two_softmax(X, pooling, reward_noise_scale, seed):
    """The gradient-bandit loop with the softmax taken twice per column:
    once for the arm draw and again for the preference update."""
    m, n = X.shape
    rng = seed.rng()
    noise = rng.normal(0.0, reward_noise_scale, size=(m, n))
    rewards = np.stack([X.values, X.values + noise], axis=-1)
    n_units = 1 if pooling else m
    prefs = np.zeros((n_units, 2))
    baseline_sum, baseline_cnt = np.zeros(n_units), np.zeros(n_units)
    unit = np.zeros(m, dtype=np.intp) if pooling else np.arange(m)
    agents = np.arange(m)
    ref = np.zeros((m, n), dtype=np.uint8)
    for j in range(n):
        if j == 0:
            arms = ((agents + 1) % 2).astype(np.intp)
        elif j == 1:
            arms = (agents % 2).astype(np.intp)
        else:
            u = rng.random(m)
            shifted = prefs[unit] - prefs[unit].max(axis=1, keepdims=True)
            e = np.exp(shifted)
            arms = (u < e[:, 1] / e.sum(axis=1)).astype(np.intp)
        got = rewards[agents, j, arms]
        ref[:, j] = arms
        shifted = prefs[unit] - prefs[unit].max(axis=1, keepdims=True)
        e = np.exp(shifted)
        pi = e / e.sum(axis=1, keepdims=True)
        base = np.where(baseline_cnt[unit] > 0,
                        baseline_sum[unit] / np.maximum(baseline_cnt[unit], 1.0), 0.0)
        onehot = np.zeros((m, 2))
        onehot[agents, arms] = 1.0
        update = (mg.GRADIENT_BANDIT_STEP * (got - base))[:, None] * (onehot - pi)
        if pooling:
            prefs[0] += update.sum(axis=0)
            baseline_sum[0] += got.sum()
            baseline_cnt[0] += m
        else:
            prefs += update
            baseline_sum += got
            baseline_cnt += 1.0
    return ref


@pytest.mark.parametrize("pooling", [False, True])
def test_seq_gradient_bandit_matches_two_softmax_loop(pooling):
    for s in range(5):
        X = _random_matrix(15, 40, 60 + s)
        noise_scale = 0.5 + s
        seed = SeedSpec(s, "seq-gb")
        mask = mg.gen_seq(X, algorithm="gradient_bandit", pooling=pooling,
                          reward_noise_scale=noise_scale, seed=seed)
        assert np.array_equal(mask.indicator,
                              _gradient_bandit_two_softmax(X, pooling, noise_scale, seed))


@pytest.mark.parametrize("algorithm", mg.BANDIT_ALGORITHMS)
def test_seq_all_algorithms_produce_valid_masks(algorithm):
    X = _random_matrix(12, 9, 16)
    mask = mg.gen_seq(X, algorithm=algorithm, seed=SeedSpec(1, f"seq-{algorithm}"))
    assert mask.shape == (12, 9)
    # forced initialization plays each arm once in the first two columns
    assert np.array_equal(mask.indicator[:, 0] + mask.indicator[:, 1],
                          np.ones(12, dtype=np.uint8))
    again = mg.gen_seq(X, algorithm=algorithm, seed=SeedSpec(1, f"seq-{algorithm}"))
    assert mask.indicator.tobytes() == again.indicator.tobytes()


def test_seq_pooling_changes_behavior_but_not_determinism():
    X = _random_matrix(20, 10, 17)
    pooled = mg.gen_seq(X, pooling=True, seed=SeedSpec(2, "sp"))
    pooled2 = mg.gen_seq(X, pooling=True, seed=SeedSpec(2, "sp"))
    assert pooled.indicator.tobytes() == pooled2.indicator.tobytes()


def test_seq_rejects_unknown_algorithm():
    with pytest.raises(ValueError, match="unknown bandit algorithm 'softmax'"):
        mg.PatternSpec("seq", SeedSpec(0, "s"), {"algorithm": "softmax"})
    # the bandit is checked before the table, as when generate built it
    with pytest.raises(ValueError, match="unknown bandit algorithm"):
        mg.gen_seq(_random_matrix(4, 1, 0), algorithm="softmax", seed=SeedSpec(0, "s"))


# ---------------------------------------------------------------------------
# Dispatcher
# ---------------------------------------------------------------------------


def test_generate_covers_all_thirteen_tags():
    assert len(mg.PATTERN_TAGS) == 13
    X = _random_matrix(20, 10, 18)
    for tag in mg.PATTERN_TAGS:
        spec = mg.PatternSpec(tag, SeedSpec(3, tag))
        mask = mg.generate(spec, X)
        assert mask.shape == (20, 10)
        assert mask.n_observed > 0


def test_generate_is_deterministic_per_spec():
    X = _random_matrix(20, 12, 19)
    for tag in mg.PATTERN_TAGS:
        spec = mg.PatternSpec(tag, SeedSpec(7, tag))
        a = mg.generate(spec, X)
        b = mg.generate(spec, X)
        assert a.indicator.tobytes() == b.indicator.tobytes()


def test_generate_mcar_zero_rate_identity():
    X = _random_matrix(5, 5, 20)
    spec = mg.PatternSpec("mcar", SeedSpec(0, "m"), {"p_missing": 0.0})
    assert mg.generate(spec, X).n_missing == 0


def test_generate_resamples_then_errors(monkeypatch):
    X = _random_matrix(4, 4, 21)
    calls = []

    def fully_missing(truth, p_missing=0.4, *, seed):
        calls.append(seed)
        return Mask(np.zeros(truth.shape, dtype=np.uint8))

    monkeypatch.setitem(mg._GENERATORS, "mcar", fully_missing)
    spec = mg.PatternSpec("mcar", SeedSpec(0, "resample"))
    with pytest.raises(DegenerateMaskError):
        mg.generate(spec, X)
    assert len(calls) == mg.MAX_RESAMPLE_ATTEMPTS
    assert len({s.label for s in calls}) == mg.MAX_RESAMPLE_ATTEMPTS


# Every pattern default, written out. The table built from the generators'
# signatures must keep these values, value types, key order and tag order
# (tag order is the cell order of ``--patterns all``).
_PINNED_PATTERN_DEFAULTS = {
    "mcar": {"p_missing": 0.4},
    "col-mar": {"p_missing": 0.4, "predictor_fraction": 0.05},
    "nn-mnar": {
        "p_missing": 0.4,
        "neighborhood_size_range": (3, 8),
        "layer_range": (1, 3),
        "width_range": (4, 16),
    },
    "self-masking": {"p_missing": 0.4, "target_cols": None},
    "censoring": {"q_censor": 0.25},
    "panel": {},
    "polarization-hard": {"q_thresh": 0.25},
    "polarization-soft": {"alpha": 2.5, "eps": 0.05},
    "latent-factor": {"k_low": 1, "k_high": 5},
    "cluster": {
        "n_row_clusters": 5,
        "n_col_clusters": 4,
        "tau_r": 1.0,
        "tau_c": 1.0,
        "eps_std": 1.0,
    },
    "two-phase": {"f_cheap": 0.4, "alpha": 0.0, "beta": 2.0},
    "block": {"p_missing": 0.4, "n_row_blocks": 10, "n_col_blocks": 10},
    "seq": {
        "algorithm": "epsilon_greedy",
        "epsilon": 0.4,
        "epsilon_decay": 0.99,
        "pooling": False,
        "reward_noise_scale": 1.0,
        "p_missing": 0.4,
    },
}


def test_pattern_defaults_are_pinned():
    assert mg.PATTERN_TAGS == tuple(_PINNED_PATTERN_DEFAULTS)
    assert list(mg.PATTERN_DEFAULTS) == list(_PINNED_PATTERN_DEFAULTS)
    for tag, pinned in _PINNED_PATTERN_DEFAULTS.items():
        got = mg.PATTERN_DEFAULTS[tag]
        assert list(got) == list(pinned), tag
        assert got == pinned, tag
        assert [type(v) for v in got.values()] == [type(v) for v in pinned.values()], tag


def _tied_table(m, n, seed):
    """Small integers, so every column has ties; the middle column is constant."""
    values = np.random.default_rng(seed).integers(0, 6, size=(m, n)).astype(float)
    values[:, n // 2] = 2.0
    return DataMatrix(values)


# sha256 of each pattern's indicator bytes from ``generate`` at the pattern's
# defaults, keyed by (table, m, n, seed): "lfm" is ``sample_lfm`` at rank 3,
# "tied" is ``_tied_table``. Recorded on stream 2 before censoring and both
# polarization patterns took their thresholds from one sort of the matrix.
PINNED_MASK_DIGESTS = {
    ("lfm", 40, 12, 1): {
        "mcar": "cd221c3eef9ea24993968f39a21e2abcad40d8632e814a1df2eec4a763e259c9",
        "col-mar": "361a1592546d5c761fb0a4ebf972896f271d3bb55166adb1d61eb74d2ff66ed2",
        "nn-mnar": "2edc952ac9f789f1ae44139d43cab236670f27dedee56321f6e7767cf30a6b1e",
        "self-masking": "268964078f9c7679f74ad6295c9203f4b56d80882b9e5c0ffea1220aca886f95",
        "censoring": "154ecbd445147801e1cfe08d56b9f3ded9db58c69e1eb314991c8c7872c0eda9",
        "panel": "318927be7b2310c4f648f1a9c6ad630a49e6e29e9caf12c9c4b4d868e4656161",
        "polarization-hard": "73088898e07801f5cf655b88d3058f2cdd4e2f59c717b26ac0caebdf517b2dc9",
        "polarization-soft": "04b036924220d76557a85be9b8c3176d3a789cf601fe11985628a74153165caf",
        "latent-factor": "55667207604def8b1846c8aecaf3c7139792d768e071ace220fca6dddd3f3654",
        "cluster": "1b23c8dacd57a6f4f1e10b8d1b3c70643742295671214bf2107421090d7775c9",
        "two-phase": "0a88c71c6110f1a26861921a1c8e4803e687f00676c92565e46bbb24005ddc13",
        "block": "a7f6b69110970c9b93ed5a52cb40eccd74451fc9035e431e936582da87f477c4",
        "seq": "34c186908ced2fc320b9a47b45b53614340755950b2878a652b94bbd63985bee",
    },
    ("lfm", 40, 12, 2): {
        "mcar": "3b8bedf7052b399514dd773d6d59c1c767acce2fb4cd933f2cdb36f9d53a7732",
        "col-mar": "fda3be28c3ab877591696816858e1f1103e5830c1b93385524b233961bf0bb0c",
        "nn-mnar": "71dc5190c6303c4aace9a098f6d790fa7d80d5215716c519dadb2a0f98d6457b",
        "self-masking": "75d9322a7083f8fd57018a0074c8fbb02275c398452990eec600ec2e61b034e4",
        "censoring": "4617fecf61ffa0ccfceb93b342c1a3e2633bc3a6dafa474cc80e674c91de7799",
        "panel": "3c26e5aea129e842e3b940731d6a61d46d54f4edc86f154b591708fa752b2aaa",
        "polarization-hard": "1743862298a4ac66e009fe93ab62e84bbe076f3d83129ad8e6dfe650873d9654",
        "polarization-soft": "4a0dffa7affa371f1f9d4a5507aa9f742321d1844172206d3004fe05418e4301",
        "latent-factor": "ab56c0e9e27b8cacb6cebf66cbb78ead19bceca7b52334e592fb28d3bd21d45d",
        "cluster": "d201551403f9e3e60d893d3eeadf9739da561a0c8ebe9696baa668ab18c0df76",
        "two-phase": "3779d9167fda02abb615c4ecfb0df501576d2952e1e05a345e2bb8574238af33",
        "block": "350f1410096039b66c5a34b28e1fbe833aa26649174068251e1b4feb8b772834",
        "seq": "2865ae61d39d7efdca8c337410c16c072885caa718eacf564bf13d51c2ed172f",
    },
    ("lfm", 1000, 20, 1): {
        "mcar": "468387c15e64a208dec89c10012f82b097deb41ec5b15b893213a60b9d9bdaf1",
        "col-mar": "e295ff7298011f21ddf20c6082ad802af139c64b1d8ea340b0e9792b9b301127",
        "nn-mnar": "fbc54a9380bc120cdaf25a2eb255c73ffb74eacd489465661db8d4648efc3bd7",
        "self-masking": "03904bc20b7649ba80c6c84b51f9c830d187656bad366f63b544ebdd62476d84",
        "censoring": "6ed7fd78e9c717bad1f7445297cacf6cb67afcc3e2a9b946fd3999d49994bb87",
        "panel": "03dfeddede02629776a5f4a3b3cfc097d99bd4096bb9f39330d2d829b20591e8",
        "polarization-hard": "771cccf050d7de30fa53e119403454518ffcd6ddfa96ba1c14ed1729631338ee",
        "polarization-soft": "3e95dca77a3bb5294839a784cfd1518cb99ef5eff6317db64679233763a12e6e",
        "latent-factor": "bda5a96b7d4e8e03fb0457c18116ec4c646c12fb4e9b8498d5f18e488315bec2",
        "cluster": "a874ed52e0147d80a90707341e3f23c3a5de81fe61883b96c3ce6bb83a29facd",
        "two-phase": "09d3557dbf5258a1ff3a515d62810482409ee30d908557d0a902f067e1253fbe",
        "block": "93b287cd605fa5905da6c554ab280011b4087b9c199886f0a2c5972bbd7f82f3",
        "seq": "8b2db2901ef02b5ec1e35aa1c8eea8af48f60507ab0d4710d434efff899a01b5",
    },
    ("lfm", 1000, 20, 2): {
        "mcar": "07329dd043a37ea0c42c5685487d3729185d66b8a7bfdfc8ee1bc1ad699c5a7e",
        "col-mar": "ceeee41848bbf097c2bab4deb4bae8dd0428cbc3688b49ac2efce0e5b84ca798",
        "nn-mnar": "dde4f026960ae3a4c00f54a4efc7f95715d6b0b89579c525baa1811ca4750016",
        "self-masking": "d21b1429c885965c2f777af3e9809cc8c0383024e728c87932468ee048e93216",
        "censoring": "b8a406ea7e02143ae12a3f7a3027f6303cd663ae01e7d72ebaca64a46f458b57",
        "panel": "94bb89e5dfbf279e0f956dca3868bbef89acf9fbc3ddcd56a2a21a9910e4394b",
        "polarization-hard": "3e95f5caf4b1f0ff43e4b8d1554032146682e98805000b635692062e6f7d4e17",
        "polarization-soft": "9236db61b0342e4968666a9e721a7cca7c04281dec716128fafd12b73a3e46d2",
        "latent-factor": "f61e4b1ec1f6aba344f9ef4338d508e2a8f888fd4a140ea2f2b17eee90fb455b",
        "cluster": "12246436b6e49fb57ba1a9099a265ff6336cb003ff4a90be9eb2e1ae377b5d6c",
        "two-phase": "291be5bb11fe6fb9338ad93f02f4e2a13935f6294ec129ea62a193ac88db4c4a",
        "block": "e351aff7873f54c7d9d14a6f2ceb5947b0133b275b0b7c8ca878d1552566a7f9",
        "seq": "1da2acfd31b35ff578b97fe0172cbadec7107f82112dba1d2f16a9773e1ddf1d",
    },
    ("tied", 50, 9, 1): {
        "censoring": "912da0472613718937662d53444ae8a5dac7c2d0fb7926f55d1b43d604d3e7fc",
        "polarization-hard": "476548055486146bfbac15f5ce3f96e3698bcee7da885ae74951f0662b09606b",
        "polarization-soft": "ed77208d35f8574914dc8c689d6c09082b9cb7b49da7aed937bca0be1f6bc8c3",
    },
    ("tied", 50, 9, 2): {
        "censoring": "0b758b8b14b07e514136422fac99422a61ad58d6cd5ffa4174a6b40b2d2eaf9a",
        "polarization-hard": "f42fe3c69e516a51655184f8692f3f89d3981375587a7e7ec8ad7c5f22a50baf",
        "polarization-soft": "d825abb9460b468662e956b82bbba7cddda51b793b3edfbcc7dc8cf453a53ea6",
    },
}


@pytest.mark.parametrize("table, m, n, seed", list(PINNED_MASK_DIGESTS))
def test_every_pattern_mask_is_pinned(table, m, n, seed):
    if table == "lfm":
        X = sample_lfm(LfmSpec(m=m, n=n, k=3), SeedSpec(seed, "digest-data"))
    else:
        X = _tied_table(m, n, seed)
    pinned = PINNED_MASK_DIGESTS[table, m, n, seed]
    got = {tag: hashlib.sha256(mg.generate(mg.PatternSpec(tag, SeedSpec(seed, tag)), X)
                               .indicator.tobytes()).hexdigest()
           for tag in pinned}
    assert mg.MASK_STREAM == 2
    assert got == pinned


# sha256 of ``gen_seq`` masks for every algorithm, per agent and pooled, keyed
# by (m, n, seed) of a rank-3 ``sample_lfm`` table. Recorded before the pooled
# and per-agent statistics shared one update path.
PINNED_SEQ_DIGESTS = {
    (40, 12, 1): {
        ('epsilon_greedy', False):
            "34c186908ced2fc320b9a47b45b53614340755950b2878a652b94bbd63985bee",
        ('epsilon_greedy', True):
            "1b092224ed1e27972d6fe40d091666b35c4c3521bc5e37b2ad33aad2a557a68e",
        ('ucb', False):
            "241aa23abbcf47ffa34a247182adcc68fabcc541d87a6d6b98c7b37e44e53900",
        ('ucb', True):
            "5f381581731155af5735d9796d1e691a540c77c797cb8d71b4d568d985cc4854",
        ('thompson', False):
            "5c0a0a00c92775e5e7c8f20a6edc8215be86c1b4e94c5a91239a53cfeab24e28",
        ('thompson', True):
            "fe2024d2495963498fefa995f6d3e490aed4325c5963a4faf1926ffe9120eecd",
        ('gradient_bandit', False):
            "7c13bcbcbd764dd5578a21c6b4ce84c9c69d562eb5703a8d6126325f51c013e8",
        ('gradient_bandit', True):
            "f5e562aacdfa9f330cf8393479f21f1cc2a626f6f7c3f61fee6cd53fc4a2e81c",
    },
    (40, 12, 2): {
        ('epsilon_greedy', False):
            "2865ae61d39d7efdca8c337410c16c072885caa718eacf564bf13d51c2ed172f",
        ('epsilon_greedy', True):
            "833b5c7ee39a9b02d716fd4693d80e7f84d6e8105588d011c521a7f027dd9637",
        ('ucb', False):
            "5d734e7b631a8ed1d61cb1d7732a687845d662aaacb797f98936d54aa2fd71e4",
        ('ucb', True):
            "146ce21921371a05699220910f6507b500fbe305a13a55e22726cc56ee071ddb",
        ('thompson', False):
            "1aac98775dd1871af5a6f005aedbde0733ec973c2e47ab32bab57ba37857e6d5",
        ('thompson', True):
            "7e5aa1d94338a1204e7ae287aea6fce798324d25e52dca29f35c0479145fce6d",
        ('gradient_bandit', False):
            "0b089ff6a59ab2f36db2a1eb501f4e0d246bdfdcfba147a3d6a077c1f429e6f8",
        ('gradient_bandit', True):
            "9fbfd8fee3158af99d64a9e350d5a5ad8b28ac5ab9cbe586149f04b0b70d02bc",
    },
    (1000, 20, 1): {
        ('epsilon_greedy', False):
            "8b2db2901ef02b5ec1e35aa1c8eea8af48f60507ab0d4710d434efff899a01b5",
        ('epsilon_greedy', True):
            "d8b08a3cc9008d58f30e610361850954e21962844b5c4983e1cfeca0041925d2",
        ('ucb', False):
            "bfa1a052da0f83955ab55517efc98a89a4caea23ac6128cd3afe9da55d7ac480",
        ('ucb', True):
            "aca6238f9c0ee8d1959c1291f607798ab5375596401241edd59c958c2c91054c",
        ('thompson', False):
            "ef36d1e1da82009c0f0c4323f8dd95260e8c2732db2fa8db0834567bb2081479",
        ('thompson', True):
            "1f675351a1945fe0d88e483891e443aebee683fadaca759bc0070bc06e2f520f",
        ('gradient_bandit', False):
            "c1c0b0a498625108b14486f80868a8e5fd99295c548b0e30e33c9935acc39eb8",
        ('gradient_bandit', True):
            "3c090d7b05869d1ea44cfb4912372d6d6a66bcce9c73f37c8ee7d596d5dcce33",
    },
    (1000, 20, 2): {
        ('epsilon_greedy', False):
            "1da2acfd31b35ff578b97fe0172cbadec7107f82112dba1d2f16a9773e1ddf1d",
        ('epsilon_greedy', True):
            "f03cef50c5780a70099ff7b705fece5ee0e04aee0288516afbc6b25661265f4c",
        ('ucb', False):
            "ccffe936618e798a1096ec9c315c3e42680202e9d5ae1dc54e2486937e291151",
        ('ucb', True):
            "d3d4db8f82615105184a8367a5019c7c0ede14fff19f0d181aeacc5f96ac5844",
        ('thompson', False):
            "68b6e242041d04e1302a994fce1662e5ee9b906fbfa0deff4d91c6e233ae9fe8",
        ('thompson', True):
            "787a7896e7a5a1583012d21fecff3599f0a11ad95926396dfc223c2238463306",
        ('gradient_bandit', False):
            "3117d26fdcaa76c95a176c8b559669c286fceb53d38ea5250a00c0208a657dd6",
        ('gradient_bandit', True):
            "fe29e5d4ffc17111b3f74c2b3a849d491a76a524883889ccb13abf46dbb26f06",
    },
}


@pytest.mark.parametrize("m, n, seed", list(PINNED_SEQ_DIGESTS))
def test_seq_mask_is_pinned_for_every_algorithm_and_pooling(m, n, seed):
    X = sample_lfm(LfmSpec(m=m, n=n, k=3), SeedSpec(seed, "digest-data"))
    got = {
        (alg, pooling): hashlib.sha256(
            mg.gen_seq(X, algorithm=alg, pooling=pooling, seed=SeedSpec(seed, "seq"))
            .indicator.tobytes()).hexdigest()
        for alg, pooling in PINNED_SEQ_DIGESTS[m, n, seed]
    }
    assert mg.MASK_STREAM == 2
    assert got == PINNED_SEQ_DIGESTS[m, n, seed]


def test_pattern_spec_holds_resolved_params():
    assert mg.PatternSpec("mcar", SeedSpec(0, "x")).params == mg.PATTERN_DEFAULTS["mcar"]
    spec = mg.PatternSpec("block", SeedSpec(0, "x"), {"n_col_blocks": 5})
    assert spec.params == {**mg.PATTERN_DEFAULTS["block"], "n_col_blocks": 5}


def test_pattern_spec_rejects_unknown_tags_and_params():
    with pytest.raises(ValueError):
        mg.PatternSpec("mar", SeedSpec(0, "x"))
    with pytest.raises(ValueError):
        mg.PatternSpec("mcar", SeedSpec(0, "x"), {"q_censor": 0.2})


@settings(max_examples=40, deadline=None)
@given(m=st.integers(2, 25), n=st.integers(2, 10), seed=st.integers(0, 2**32))
def test_panel_suffix_property_holds_for_any_shape(m, n, seed):
    X = _random_matrix(m, n, seed)
    mask = mg.gen_panel(X, seed=SeedSpec(seed, "panel-prop"))
    for row in mask.indicator:
        holes = np.flatnonzero(row == 0)
        assert holes.size > 0 and row[0] == 1
        assert np.array_equal(holes, np.arange(holes[0], n))


@settings(max_examples=40, deadline=None)
@given(m=st.integers(2, 25), n=st.integers(2, 10), seed=st.integers(0, 2**32))
def test_two_phase_rows_all_or_nothing_for_any_shape(m, n, seed):
    X = _random_matrix(m, n, seed)
    spec_seed = SeedSpec(seed, "tp-prop")
    mask = mg.gen_two_phase(X, 0.4, 0.0, 2.0, seed=spec_seed)
    cheap, expensive, _ = mg._two_phase_design(X.values, 0.4, 0.0, 2.0,
                                               spec_seed.rng())
    assert mask.indicator[:, cheap].all()
    for row in mask.indicator[:, expensive]:
        assert row.all() or not row.any()


def test_all_propensity_designs_stay_in_unit_interval():
    rng = np.random.default_rng(23)
    X = DataMatrix(rng.normal(scale=4.0, size=(18, 9)))
    seed = SeedSpec(0, "bounds")
    _, _, _, _, p1 = mg._col_mar_design(X.values, 0.4, 0.2, seed.rng())
    p2, _, _ = mg._nn_mnar_design(X.values, 0.4, (3, 8), (1, 3), (4, 16), seed.rng())
    _, _, p3 = mg._self_masking_design(X.values, 0.4, np.arange(9), seed.rng())
    p4 = mg._soft_polarization_propensity(X.values, 2.5, 0.05)
    _, p5 = mg._latent_factor_design(X.shape, 1, 5, seed.rng())
    _, _, p6 = mg._cluster_design(X.shape, 5, 4, 1.0, 1.0, 1.0, seed.rng())
    _, _, p7 = mg._two_phase_design(X.values, 0.4, 0.0, 2.0, seed.rng())
    _, _, p8 = mg._block_design(X.values, 0.4, 3, 3)
    for p in (p1, p2, p3, p4, p5, p6, p7, p8):
        arr = np.asarray(p)
        assert np.all((arr >= 0.0) & (arr <= 1.0))


def test_calibrated_patterns_hit_target_rate_downscaled():
    # acceptance runs the full-scale version; this is the fast guard
    spec = LfmSpec(m=80, n=30, k=3)
    for tag in ("mcar", "col-mar", "self-masking", "nn-mnar", "block"):
        fracs = []
        for s in range(10):
            X = sample_lfm(spec, SeedSpec(300 + s, "cal"))
            mask = mg.generate(mg.PatternSpec(tag, SeedSpec(400 + s, tag)), X)
            fracs.append(missing_fraction(mask))
        assert abs(np.mean(fracs) - 0.4) < 0.05, tag
