"""Mask generators: one MCAR, one MAR, and eleven MNAR mechanisms.

Every generator maps (complete matrix, parameters, seed) to a Mask and is a
pure function of those inputs. Mechanisms that target a missing rate
calibrate a sigmoid intercept by bisection so the expected rate matches.
Each generator first runs its pattern's check of the parameters it can
judge without the table; rules that need the table (column counts, column
indices, the block grid) come after. A PatternSpec fills in the per-pattern
defaults (the generator's own keyword defaults) for parameters the caller
leaves out and runs the same check, so a bad parameter is refused when the
spec is built. The ``generate`` dispatcher runs its generator, resampling a
fresh stream when a degenerate (fully missing) mask comes out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from .core import DataMatrix, DegenerateMaskError, Mask, SeedSpec, bernoulli_mask
from .core import resolve_params, signature_defaults

__all__ = [
    "CalibrationError",
    "MASK_STREAM",
    "PatternSpec",
    "PATTERN_DEFAULTS",
    "PATTERN_TAGS",
    "calibrate_intercept",
    "gen_mcar",
    "gen_col_mar",
    "gen_nn_mnar",
    "nn_mnar_peak_bytes",
    "gen_self_masking",
    "gen_censoring",
    "gen_panel",
    "gen_polarization_hard",
    "gen_polarization_soft",
    "gen_latent_factor",
    "gen_cluster",
    "gen_two_phase",
    "gen_block",
    "gen_seq",
    "generate",
]

MAX_RESAMPLE_ATTEMPTS = 16
# Version of the mask streams, written into each bench report's config.
# Stream 2 draws the nn-mnar neighborhoods in one batch (``_distinct_draws``);
# stream 1 called ``rng.choice`` once per cell. Other patterns are unchanged.
MASK_STREAM = 2
# Size bound of the repeat-check table in ``_distinct_draws``: 1 MiB, a
# chunk of tuples at a time; the draws do not depend on it.
_TAKEN_TABLE_BYTES = 1 << 20


class CalibrationError(RuntimeError):
    """Bisection did not reach the target mean propensity within tolerance."""


def _sigmoid(x):
    """Logistic sigmoid 1 / (1 + exp(-x)), the formula of scipy's ``expit``.

    A logit below about -709 overflows ``exp`` and maps to 0 without a
    warning, as in scipy; self-masking feeds raw values, so this happens.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def calibrate_intercept(
    logits: np.ndarray,
    target_mean: float,
    tol: float = 1e-6,
) -> float:
    """Find b such that mean(sigmoid(logits + b)) hits the target.

    The mean propensity is continuous and strictly increasing in b, so plain
    bisection converges; the returned b satisfies |mean - target| <= tol.
    The search starts on (-30, 30); as the mean lies between sigmoid(min(logits)
    + b) and sigmoid(max(logits) + b), a side that misses the target moves out
    to logit(target) - max(logits) or logit(target) - min(logits).
    """
    flat = np.asarray(logits, dtype=float).reshape(1, -1)
    return float(_calibrate_rows(flat, target_mean, tol)[0])


def _calibrate_rows(logits: np.ndarray, target_mean: float,
                    tol: float = 1e-6) -> np.ndarray:
    """``calibrate_intercept`` for each row of a 2-D array, in one bisection.

    Every row takes exactly the steps of its own scalar search (same
    bracket, same midpoints, same row mean), and a row is frozen once it
    is within tol, so each intercept is bit-equal to the one-row call.
    Raises CalibrationError if any row does not converge.
    """
    if not 0.0 < target_mean < 1.0:
        raise ValueError(f"target mean must be in (0, 1), got {target_mean}")
    # C order: each row's mean is then the same pairwise sum as a 1-D mean
    logits = np.ascontiguousarray(logits, dtype=float)
    rows = logits.shape[0]

    def mean_at(idx: np.ndarray, b: np.ndarray) -> np.ndarray:
        sub = logits if idx.size == rows else logits[idx]
        return _sigmoid(sub + b[:, None]).mean(axis=1)

    everyone = np.arange(rows)
    lo, hi = np.full(rows, -30.0), np.full(rows, 30.0)
    logit_target = math.log(target_mean / (1.0 - target_mean))
    widen = mean_at(everyone, lo) > target_mean + tol
    if widen.any():
        lo[widen] = logit_target - logits[widen].max(axis=1)
    widen = mean_at(everyone, hi) < target_mean - tol
    if widen.any():
        hi[widen] = logit_target - logits[widen].min(axis=1)
    out = np.empty(rows)
    active = everyone
    for _ in range(200):
        mid = 0.5 * (lo[active] + hi[active])
        val = mean_at(active, mid)
        hit = np.abs(val - target_mean) <= tol
        out[active[hit]] = mid[hit]
        below = val < target_mean
        lo[active[below]] = mid[below]
        hi[active[~below]] = mid[~below]
        active = active[~hit]
        if not active.size:
            return out
    raise CalibrationError("bisection failed to reach the requested tolerance")


def _check_p_missing(p_missing: float) -> None:
    """Refuse a target missing rate outside (0, 1), NaN included."""
    if not 0.0 < p_missing < 1.0:
        raise ValueError(f"p_missing must be in (0, 1), got {p_missing}")


def _zscore(x: np.ndarray) -> np.ndarray:
    """Population z-score; a zero-spread vector maps to all zeros."""
    centered = x - x.mean()
    std = centered.std()
    return centered / std if std > 0 else np.zeros_like(centered)


def _quantile(sorted_values: np.ndarray, q: float) -> np.ndarray:
    """Linear-interpolation quantile of each column of a matrix whose columns
    are already sorted."""
    m = sorted_values.shape[0]
    pos = q * (m - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, m - 1)
    frac = pos - lo
    return sorted_values[lo] * (1 - frac) + sorted_values[hi] * frac


# ---------------------------------------------------------------------------
# MCAR
# ---------------------------------------------------------------------------


def _check_mcar(p_missing: float) -> None:
    if not 0.0 <= p_missing < 1.0:
        raise ValueError(f"p_missing must be in [0, 1), got {p_missing}")


def gen_mcar(truth: DataMatrix, p_missing: float = 0.4, *, seed: SeedSpec) -> Mask:
    """Each entry missing independently with the same probability."""
    _check_mcar(p_missing)
    rng = seed.rng()
    p_obs = np.full(truth.shape, 1.0 - p_missing)
    return bernoulli_mask(p_obs, rng)


# ---------------------------------------------------------------------------
# Col-MAR
# ---------------------------------------------------------------------------


def _col_mar_design(values: np.ndarray, p_missing: float, predictor_fraction: float,
                    rng: np.random.Generator):
    """Draw predictor columns and per-column logistic models.

    Returns (predictor column indices, masked column indices, weights (one
    row per masked column), intercepts, missing-propensity matrix for the
    masked columns).
    """
    m, n = values.shape
    n_pred = math.ceil(predictor_fraction * n)
    if n - n_pred < 1:
        raise ValueError(
            f"predictor_fraction {predictor_fraction} leaves no column to mask"
        )
    predictors = np.sort(rng.choice(n, size=n_pred, replace=False))
    masked_cols = np.setdiff1d(np.arange(n), predictors)
    x_pred = values[:, predictors]
    # one draw of all weights: the same stream as one draw per column
    weights = rng.normal(size=(masked_cols.size, n_pred))
    scores = np.array([_zscore(x_pred @ w) for w in weights])
    intercepts = _calibrate_rows(scores, p_missing)
    p_miss = _sigmoid(scores + intercepts[:, None]).T
    return predictors, masked_cols, weights, intercepts, p_miss


def _check_col_mar(p_missing: float, predictor_fraction: float) -> None:
    _check_p_missing(p_missing)
    if not 0.0 < predictor_fraction < 1.0:
        raise ValueError(
            f"predictor_fraction must be in (0, 1), got {predictor_fraction}"
        )


def gen_col_mar(
    truth: DataMatrix,
    p_missing: float = 0.4,
    predictor_fraction: float = 0.05,
    *,
    seed: SeedSpec,
) -> Mask:
    """Fully observed predictor columns drive logistic masking of the rest.

    Each masked column's missing propensity is a sigmoid of a random linear
    combination of the predictor values, with the intercept calibrated so the
    column's expected missing fraction equals ``p_missing``.
    """
    _check_col_mar(p_missing, predictor_fraction)
    if truth.cols < 2:
        raise ValueError("need at least 2 columns")
    rng = seed.rng()
    _, masked_cols, _, _, p_miss = _col_mar_design(
        truth.values, p_missing, predictor_fraction, rng
    )
    indicator = np.ones(truth.shape, dtype=np.uint8)
    u = rng.random((truth.rows, masked_cols.size))
    indicator[:, masked_cols] = (u >= p_miss).astype(np.uint8)
    return Mask(indicator)


# ---------------------------------------------------------------------------
# NN-MNAR
# ---------------------------------------------------------------------------


def _nn_forward(h: np.ndarray, layers: Sequence[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Feed-forward pass over the input rows ``h``: tanh hidden activations,
    raw final logits. Each layer holds one (rows, width) array, updated in
    place, and inputs passed without another reference are freed after the
    first layer."""
    for depth, (w, b) in enumerate(layers):
        h = h @ w
        h += b
        if depth < len(layers) - 1:
            np.tanh(h, out=h)
    return h.ravel()


def _distinct_draws(pool: int, size: int, count: int,
                    rng: np.random.Generator) -> np.ndarray:
    """``count`` uniformly random ordered tuples of ``size`` distinct
    integers in [0, pool), shape (count, size): the law of ``count`` calls to
    ``rng.choice(pool, size, replace=False)``, drawn in one batch.

    Floyd's subset algorithm runs on every tuple at once. Step t draws one
    integer in [0, top], top = pool - size + t, per tuple, into column t; a
    tuple that already holds the draw takes top instead. Each row is then
    shuffled in place. Repeats are looked up in a boolean table over (tuple,
    candidate) that covers a chunk of tuples at a time, so the draw costs
    O(count * size) time and, beyond its int64 output, a few int64s per
    tuple and at most ``_TAKEN_TABLE_BYTES`` of table.
    """
    tops = range(pool - size, pool)
    draws = np.empty((count, size), dtype=np.int64)
    for t, top in enumerate(tops):
        draws[:, t] = rng.integers(0, top + 1, count)
    chunk = max(1, _TAKEN_TABLE_BYTES // pool)
    taken = np.zeros(min(chunk, count) * pool, dtype=bool)
    for lo in range(0, count, chunk):
        block = draws[lo:lo + chunk]  # a view: the picks are fixed in place
        base = np.arange(block.shape[0]) * pool
        for t, top in enumerate(tops):
            pick = block[:, t]
            pick[taken[base + pick]] = top
            taken[base + pick] = True
        for t in range(size):  # clear only what this chunk set
            taken[base + block[:, t]] = False
    return rng.permuted(draws, axis=1, out=draws)


def nn_mnar_peak_bytes(m: int, n: int, size_hi: int, width_hi: int) -> int:
    """Bytes that ``gen_nn_mnar`` holds at once on an m x n matrix with
    neighborhoods of at most ``size_hi`` cells and layers of at most
    ``width_hi`` units, from the shapes alone: the (m·n, s) int64 cells and
    float64 inputs, two (m·n, width) float64 layers, 64 bytes per cell of
    propensities and calibration, and the repeat table. Under tracemalloc
    the generator peaks at 0.67-0.96 of it at 1000 x 20 and 300 x 50."""
    s = max(1, min(size_hi, m + n - 1))
    return m * n * (16 * s + 16 * width_hi + 64) + _TAKEN_TABLE_BYTES


def _nn_mnar_design(values: np.ndarray, p_missing: float,
                    neighborhood_size_range: tuple[int, int],
                    layer_range: tuple[int, int],
                    width_range: tuple[int, int],
                    rng: np.random.Generator):
    """Draw the network, per-cell neighborhoods, and calibrated propensities.

    Each cell's neighborhood is a uniformly random ordered tuple of s
    distinct candidates from the m + n - 1 cells of its row and column (the
    cell itself among them). ``_distinct_draws`` draws all m·n tuples in one
    batch, and the candidates become flat cell indices ``row * n + col`` in
    place, so the design holds one (m·n, s) int64 array, one (m·n, s) bool
    mask while mapping and the (m·n, s) float64 inputs while the network runs
    (``nn_mnar_peak_bytes``).
    Returns (observed-propensity matrix, flat cells (m*n, s), layers).
    """
    m, n = values.shape
    s_lo, s_hi = neighborhood_size_range
    size = int(rng.integers(s_lo, s_hi + 1))
    size = max(1, min(size, m + n - 1))
    n_hidden = int(rng.integers(layer_range[0], layer_range[1] + 1))
    width = int(rng.integers(width_range[0], width_range[1] + 1))

    dims = [size] + [width] * n_hidden + [1]
    layers = []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        layers.append((rng.normal(size=(d_in, d_out)), rng.normal(size=d_out)))

    # One tuple per cell (i, j) in row-major order. Candidate c < n is cell
    # (i, c) in the row; c >= n is a cell in the column, n + r for row r,
    # skipping row i so (i, j) is listed once.
    cells = _distinct_draws(m + n - 1, size, m * n, rng)
    i, j = np.divmod(np.arange(m * n)[:, None], n)
    flag = cells >= n + i  # the column candidates from row i on
    cells += flag  # now every column candidate is n + its row
    np.less(cells, n, out=flag)
    np.add(cells, i * n, out=cells, where=flag)
    np.logical_not(flag, out=flag)
    np.multiply(cells, n, out=cells, where=flag)
    np.add(cells, j - n * n, out=cells, where=flag)
    del flag

    logits = _nn_forward(np.take(values, cells), layers)
    shift = calibrate_intercept(logits, 1.0 - p_missing)
    p_obs = _sigmoid(logits + shift).reshape(m, n)
    return p_obs, cells, layers


def _check_nn_mnar(p_missing: float, neighborhood_size_range: tuple[int, int],
                   layer_range: tuple[int, int], width_range: tuple[int, int]) -> None:
    _check_p_missing(p_missing)
    for name, rng_pair in (
        ("neighborhood_size_range", neighborhood_size_range),
        ("layer_range", layer_range),
        ("width_range", width_range),
    ):
        lo, hi = rng_pair
        if lo > hi or lo < 1:
            raise ValueError(f"{name} must be a nonempty positive range, got {rng_pair}")


def gen_nn_mnar(
    truth: DataMatrix,
    p_missing: float = 0.4,
    neighborhood_size_range: tuple[int, int] = (3, 8),
    layer_range: tuple[int, int] = (1, 3),
    width_range: tuple[int, int] = (4, 16),
    *,
    seed: SeedSpec,
) -> Mask:
    """Propensity of each cell is a random network applied to a random
    neighborhood of its row and column, globally calibrated to the target
    missing rate.

    A cell's neighborhood is a uniformly random ordered tuple of distinct
    cells from its row and column; every cell's tuple comes from one batched
    Floyd draw, O(m·n·s) time for size s. Memory grows with m·n·(s + width);
    ``nn_mnar_peak_bytes`` bounds it from the shapes alone."""
    _check_nn_mnar(p_missing, neighborhood_size_range, layer_range, width_range)
    rng = seed.rng()
    p_obs, _, _ = _nn_mnar_design(
        truth.values, p_missing, neighborhood_size_range, layer_range, width_range, rng
    )
    return bernoulli_mask(p_obs, rng)


# ---------------------------------------------------------------------------
# Self-masking
# ---------------------------------------------------------------------------

SELF_MASKING_COEFFS = (-2.0, -1.0, 1.0, 2.0)


def _self_masking_design(values: np.ndarray, p_missing: float,
                         target_cols: np.ndarray, rng: np.random.Generator):
    """Returns (slopes, intercepts, missing-propensity matrix for targets)."""
    alphas = rng.choice(SELF_MASKING_COEFFS, size=target_cols.size)
    logits = alphas[:, None] * values[:, target_cols].T
    intercepts = _calibrate_rows(logits, p_missing)
    p_miss = _sigmoid(logits + intercepts[:, None]).T
    return alphas, intercepts, p_miss


def _check_self_masking(p_missing: float, target_cols: Optional[Sequence[int]]) -> None:
    _check_p_missing(p_missing)
    if target_cols is not None and np.size(target_cols) == 0:
        raise ValueError("target_cols must not be empty")


def gen_self_masking(
    truth: DataMatrix,
    p_missing: float = 0.4,
    target_cols: Optional[Sequence[int]] = None,
    *,
    seed: SeedSpec,
) -> Mask:
    """Missingness of a cell is a logistic function of its own value.

    Slopes come from a fixed four-element coefficient set; each target
    column's intercept is calibrated to the target missing rate. Columns not
    targeted stay fully observed (default: every column is a target).
    """
    _check_self_masking(p_missing, target_cols)
    if target_cols is None:
        targets = np.arange(truth.cols)
    else:
        targets = np.unique(np.asarray(target_cols, dtype=int))
        if targets.min() < 0 or targets.max() >= truth.cols:
            raise ValueError(f"target_cols out of range for {truth.cols} columns")
    rng = seed.rng()
    _, _, p_miss = _self_masking_design(truth.values, p_missing, targets, rng)
    indicator = np.ones(truth.shape, dtype=np.uint8)
    u = rng.random((truth.rows, targets.size))
    indicator[:, targets] = (u >= p_miss).astype(np.uint8)
    return Mask(indicator)


# ---------------------------------------------------------------------------
# Censoring
# ---------------------------------------------------------------------------


def _check_censoring(q_censor: float) -> None:
    if not 0.0 <= q_censor < 0.5:
        raise ValueError(f"q_censor must be in [0, 0.5), got {q_censor}")


def gen_censoring(
    truth: DataMatrix,
    q_censor: float = 0.25,
    *,
    seed: SeedSpec,
    directions: Optional[Sequence[str]] = None,
) -> Mask:
    """Detection-limit masking: per column, hide one tail beyond a quantile.

    Direction is drawn left/right with equal probability per column unless
    ``directions`` pins it; given directions the mask is deterministic.
    Comparisons are strict, so threshold ties stay observed.
    """
    _check_censoring(q_censor)
    values = truth.values
    if directions is None:
        rng = seed.rng()
        dirs = np.where(rng.random(truth.cols) < 0.5, "left", "right")
    else:
        dirs = np.asarray(directions)
        if dirs.size != truth.cols or not np.isin(dirs, ("left", "right")).all():
            raise ValueError("directions must give 'left' or 'right' per column")
    ordered = np.sort(values, axis=0)
    hidden = np.where(dirs == "left", values < _quantile(ordered, q_censor),
                      values > _quantile(ordered, 1.0 - q_censor))
    return Mask(~hidden)


# ---------------------------------------------------------------------------
# Panel dropout
# ---------------------------------------------------------------------------


def gen_panel(truth: DataMatrix, *, seed: SeedSpec) -> Mask:
    """Each row drops out at a uniform time; everything after is missing."""
    if truth.cols < 2:
        raise ValueError("panel dropout needs at least 2 columns")
    rng = seed.rng()
    t0 = rng.integers(1, truth.cols, size=truth.rows)
    cols = np.arange(truth.cols)
    indicator = (cols[None, :] < t0[:, None]).astype(np.uint8)
    return Mask(indicator)


# ---------------------------------------------------------------------------
# Polarization
# ---------------------------------------------------------------------------


def _check_polarization_hard(q_thresh: float) -> None:
    if not 0.0 < q_thresh < 0.5:
        raise ValueError(f"q_thresh must be in (0, 0.5), got {q_thresh}")


def gen_polarization_hard(
    truth: DataMatrix, q_thresh: float = 0.25, *, seed: SeedSpec
) -> Mask:
    """Deterministically hide the middle of each column's distribution.

    Entries strictly between the q and 1-q quantiles are masked; the seed is
    accepted for interface uniformity but never consumed.
    """
    _check_polarization_hard(q_thresh)
    values = truth.values
    ordered = np.sort(values, axis=0)
    low, high = _quantile(ordered, q_thresh), _quantile(ordered, 1.0 - q_thresh)
    return Mask(~((values > low) & (values < high)))


def _soft_polarization_propensity(
    values: np.ndarray, alpha: float, eps: float
) -> np.ndarray:
    """Missing propensity grows with normalized distance from the column
    median; a zero-spread column has ratio 0."""
    dist = np.abs(values - np.median(values, axis=0)) ** alpha
    top = dist.max(axis=0)
    ratio = np.divide(dist, top, out=np.zeros_like(dist), where=top > 0)
    # convex-combination form keeps the endpoints float-exact:
    # ratio 0 -> eps, ratio 1 -> 1 - eps
    return eps * (1.0 - ratio) + (1.0 - eps) * ratio


def _check_polarization_soft(alpha: float, eps: float) -> None:
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if not 0.0 < eps < 0.5:
        raise ValueError(f"eps must be in (0, 0.5), got {eps}")


def gen_polarization_soft(
    truth: DataMatrix,
    alpha: float = 2.5,
    eps: float = 0.05,
    *,
    seed: SeedSpec,
) -> Mask:
    """Probabilistic polarization: extremes are the most likely to go missing.

    The propensity is exactly eps at the column median and exactly 1-eps at
    the maximum distance from it; a zero-spread column stays at eps.
    """
    _check_polarization_soft(alpha, eps)
    rng = seed.rng()
    p_miss = _soft_polarization_propensity(truth.values, alpha, eps)
    return bernoulli_mask(1.0 - p_miss, rng)


# ---------------------------------------------------------------------------
# Latent-factor missingness
# ---------------------------------------------------------------------------


def _latent_factor_design(shape: tuple[int, int], k_low: int, k_high: int,
                          rng: np.random.Generator):
    m, n = shape
    k = int(rng.integers(k_low, k_high + 1))
    u = rng.normal(size=(m, k))
    v = rng.normal(size=(n, k))
    b = rng.normal(size=m)
    c = rng.normal(size=n)
    p_obs = _sigmoid(u @ v.T + b[:, None] + c[None, :])
    return k, p_obs


def _check_latent_factor(k_low: int, k_high: int) -> None:
    if not 1 <= k_low <= k_high:
        raise ValueError(f"need 1 <= k_low <= k_high, got ({k_low}, {k_high})")


def gen_latent_factor(
    truth: DataMatrix, k_low: int = 1, k_high: int = 5, *, seed: SeedSpec
) -> Mask:
    """Observation propensity from a low-rank bilinear model with biases."""
    _check_latent_factor(k_low, k_high)
    rng = seed.rng()
    _, p_obs = _latent_factor_design(truth.shape, k_low, k_high, rng)
    return bernoulli_mask(p_obs, rng)


# ---------------------------------------------------------------------------
# Cluster missingness
# ---------------------------------------------------------------------------


def _cluster_design(shape: tuple[int, int], n_row_clusters: int, n_col_clusters: int,
                    tau_r: float, tau_c: float, eps_std: float,
                    rng: np.random.Generator):
    m, n = shape
    row_assign = rng.integers(0, n_row_clusters, size=m)
    col_assign = rng.integers(0, n_col_clusters, size=n)
    row_effect = rng.normal(0.0, tau_r, size=n_row_clusters)
    col_effect = rng.normal(0.0, tau_c, size=n_col_clusters)
    noise = rng.normal(0.0, eps_std, size=(m, n)) if eps_std > 0 else np.zeros((m, n))
    p_obs = _sigmoid(row_effect[row_assign][:, None] + col_effect[col_assign][None, :] + noise)
    return row_assign, col_assign, p_obs


def _check_cluster(n_row_clusters: int, n_col_clusters: int, tau_r: float,
                   tau_c: float, eps_std: float) -> None:
    if n_row_clusters < 1 or n_col_clusters < 1:
        raise ValueError("cluster counts must be >= 1")
    if min(tau_r, tau_c, eps_std) < 0:
        raise ValueError("effect scales must be >= 0")


def gen_cluster(
    truth: DataMatrix,
    n_row_clusters: int = 5,
    n_col_clusters: int = 4,
    tau_r: float = 1.0,
    tau_c: float = 1.0,
    eps_std: float = 1.0,
    *,
    seed: SeedSpec,
) -> Mask:
    """Additive random effects of row and column clusters set the propensity."""
    _check_cluster(n_row_clusters, n_col_clusters, tau_r, tau_c, eps_std)
    rng = seed.rng()
    _, _, p_obs = _cluster_design(
        truth.shape, n_row_clusters, n_col_clusters, tau_r, tau_c, eps_std, rng
    )
    return bernoulli_mask(p_obs, rng)


# ---------------------------------------------------------------------------
# Two-phase collection
# ---------------------------------------------------------------------------


def _two_phase_design(values: np.ndarray, f_cheap: float, alpha: float, beta: float,
                      rng: np.random.Generator):
    """Returns (cheap columns, expensive columns, per-row keep probability)."""
    m, n = values.shape
    n_cheap = max(1, round(f_cheap * n))
    if n_cheap >= n:
        raise ValueError(
            f"f_cheap {f_cheap} leaves no expensive column on {n} columns"
        )
    cheap = np.sort(rng.choice(n, size=n_cheap, replace=False))
    expensive = np.setdiff1d(np.arange(n), cheap)
    w = rng.normal(size=n_cheap)
    score = _zscore(values[:, cheap] @ w)
    p_keep = _sigmoid(alpha + beta * score)
    return cheap, expensive, p_keep


def _check_two_phase(f_cheap: float, **_) -> None:
    """alpha and beta may take any value."""
    if not 0.0 < f_cheap < 1.0:
        raise ValueError(f"f_cheap must be in (0, 1), got {f_cheap}")


def gen_two_phase(
    truth: DataMatrix,
    f_cheap: float = 0.4,
    alpha: float = 0.0,
    beta: float = 2.0,
    *,
    seed: SeedSpec,
) -> Mask:
    """Cheap columns are always collected; a logistic score of them decides,
    row by row, whether the whole expensive block is collected."""
    _check_two_phase(f_cheap)
    if truth.cols < 2:
        raise ValueError("two-phase needs at least 2 columns")
    rng = seed.rng()
    _, expensive, p_keep = _two_phase_design(truth.values, f_cheap, alpha, beta, rng)
    keep = rng.random(truth.rows) < p_keep
    indicator = np.ones(truth.shape, dtype=np.uint8)
    indicator[np.ix_(~keep, expensive)] = 0
    return Mask(indicator)


# ---------------------------------------------------------------------------
# Block missingness
# ---------------------------------------------------------------------------


def _block_design(values: np.ndarray, p_missing: float, n_row_blocks: int,
                  n_col_blocks: int):
    """Returns (row block ids, col block ids, per-block missing propensity)."""
    m, n = values.shape
    rows = [slice(b[0], b[-1] + 1) for b in np.array_split(np.arange(m), n_row_blocks)]
    cols = [slice(b[0], b[-1] + 1) for b in np.array_split(np.arange(n), n_col_blocks)]
    row_ids = np.repeat(np.arange(n_row_blocks), [r.stop - r.start for r in rows])
    col_ids = np.repeat(np.arange(n_col_blocks), [c.stop - c.start for c in cols])
    # the mean of a C-ordered copy of the block: one pairwise sum over its
    # cells, which a strided view would not give
    scores = np.array([[np.ascontiguousarray(values[r, c]).mean() for c in cols] for r in rows])
    scores = _zscore(scores.ravel()).reshape(scores.shape)
    cell_logits = scores[row_ids[:, None], col_ids[None, :]]
    b = calibrate_intercept(cell_logits, p_missing)
    p_miss = _sigmoid(scores + b)
    return row_ids, col_ids, p_miss


def _check_block(p_missing: float, n_row_blocks: int, n_col_blocks: int) -> None:
    _check_p_missing(p_missing)
    if n_row_blocks < 1 or n_col_blocks < 1:
        raise ValueError("block counts must be >= 1")


def gen_block(
    truth: DataMatrix,
    p_missing: float = 0.4,
    n_row_blocks: int = 10,
    n_col_blocks: int = 10,
    *,
    seed: SeedSpec,
) -> Mask:
    """Whole contiguous blocks go missing together.

    The matrix is tiled into a block grid; each block's mean value is
    z-scored into a logit and the shared intercept is calibrated so the
    expected overall missing fraction equals ``p_missing``. One Bernoulli
    draw per block paints it missing or observed.
    """
    _check_block(p_missing, n_row_blocks, n_col_blocks)
    if n_row_blocks > truth.rows or n_col_blocks > truth.cols:
        raise ValueError(
            f"block grid {n_row_blocks}x{n_col_blocks} exceeds matrix {truth.shape}"
        )
    row_ids, col_ids, p_miss = _block_design(truth.values, p_missing, n_row_blocks,
                                             n_col_blocks)
    u = seed.rng().random(p_miss.shape)
    block_missing = u < p_miss
    indicator = (~block_missing[row_ids[:, None], col_ids[None, :]]).astype(np.uint8)
    return Mask(indicator)


# ---------------------------------------------------------------------------
# Sequential (bandit) missingness
# ---------------------------------------------------------------------------

BANDIT_ALGORITHMS = ("epsilon_greedy", "ucb", "thompson", "gradient_bandit")


GRADIENT_BANDIT_STEP = 0.1


def _check_seq(algorithm: str, epsilon: float, epsilon_decay: float, pooling: bool,
               reward_noise_scale: float, p_missing: float) -> None:
    """p_missing is an exploration probability, so 0 and 1 are valid."""
    if algorithm not in BANDIT_ALGORITHMS:
        raise ValueError(
            f"unknown bandit algorithm {algorithm!r}; choose from {BANDIT_ALGORITHMS}"
        )
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    if not 0.0 < epsilon_decay <= 1.0:
        raise ValueError(f"epsilon_decay must be in (0, 1], got {epsilon_decay}")
    if reward_noise_scale < 0:
        raise ValueError("reward_noise_scale must be >= 0")
    if not 0.0 <= p_missing <= 1.0:
        raise ValueError(f"p_missing must be in [0, 1], got {p_missing}")


def gen_seq(
    truth: DataMatrix,
    algorithm: str = "epsilon_greedy",
    epsilon: float = 0.4,
    epsilon_decay: float = 0.99,
    pooling: bool = False,
    reward_noise_scale: float = 1.0,
    p_missing: float = 0.4,
    *,
    seed: SeedSpec,
) -> Mask:
    """Columns are time steps; each row is an agent picking arm 0 (skip) or
    arm 1 (observe).

    Arm 0 pays the matrix value itself and arm 1 pays it plus exogenous
    Gaussian noise. The first two columns force one play of each arm
    (agent i starts with arm 1 when i is even); afterwards the configured
    algorithm chooses from per-agent statistics, or pooled statistics when
    ``pooling`` is set. Epsilon-greedy exploration picks the skip arm
    with probability ``p_missing``. Argmax ties always go to arm 1.

    Randomness is consumed on a fixed schedule (noise matrix up front, then
    per column: one uniform vector per decision plus one per exploration or
    preference sample), so a straight-line reimplementation with the same
    seed reproduces the arm sequence exactly.
    """
    _check_seq(algorithm, epsilon, epsilon_decay, pooling, reward_noise_scale, p_missing)
    if truth.cols < 2:
        raise ValueError("sequential masking needs at least 2 columns")
    m, n = truth.shape
    rng = seed.rng()
    noise = rng.normal(0.0, reward_noise_scale, size=(m, n)) \
        if reward_noise_scale > 0 else np.zeros((m, n))
    x = truth.values

    # one pooled unit or one per agent, whose reshape-sums return their input
    n_units = 1 if pooling else m
    counts = np.zeros((n_units, 2))
    sums = np.zeros((n_units, 2))
    prefs = np.zeros((n_units, 2))
    baseline_sum = np.zeros(n_units)
    baseline_cnt = np.zeros(n_units)
    unit = np.zeros(m, dtype=np.intp) if pooling else np.arange(m)

    indicator = np.zeros((m, n), dtype=np.uint8)
    agents = np.arange(m)
    for j in range(n):
        if algorithm == "gradient_bandit":
            shifted = prefs[unit] - prefs[unit].max(axis=1, keepdims=True)
            e = np.exp(shifted)
            pi = e / e.sum(axis=1, keepdims=True)
        if j == 0:
            arms = ((agents + 1) % 2).astype(np.intp)
        elif j == 1:
            arms = (agents % 2).astype(np.intp)
        elif algorithm == "epsilon_greedy":
            eps_j = epsilon * epsilon_decay ** (j - 2)
            u_explore = rng.random(m)
            u_arm = rng.random(m)
            means = _bandit_means(sums, counts)[unit]
            greedy = (means[:, 1] >= means[:, 0]).astype(np.intp)
            explored = np.where(u_arm < p_missing, 0, 1)
            arms = np.where(u_explore < eps_j, explored, greedy).astype(np.intp)
        elif algorithm == "ucb":
            means = _bandit_means(sums, counts)[unit]
            total = counts.sum(axis=1)[unit]
            bonus = np.sqrt(2.0 * np.log(np.maximum(total, 1.0))[:, None]
                            / np.maximum(counts[unit], 1.0))
            ucb = means + bonus
            arms = (ucb[:, 1] >= ucb[:, 0]).astype(np.intp)
        elif algorithm == "thompson":
            z = rng.standard_normal((m, 2))
            post_mean = sums[unit] / (counts[unit] + 1.0)
            post_sd = 1.0 / np.sqrt(counts[unit] + 1.0)
            draw = post_mean + post_sd * z
            arms = (draw[:, 1] >= draw[:, 0]).astype(np.intp)
        else:  # gradient_bandit
            arms = (rng.random(m) < pi[:, 1]).astype(np.intp)

        got = np.where(arms == 1, x[:, j] + noise[:, j], x[:, j])
        indicator[:, j] = arms
        if algorithm == "gradient_bandit":
            base = np.where(baseline_cnt[unit] > 0,
                            baseline_sum[unit] / np.maximum(baseline_cnt[unit], 1.0),
                            0.0)
            adv = GRADIENT_BANDIT_STEP * (got - base)
            onehot = np.zeros((m, 2))
            onehot[agents, arms] = 1.0
            update = adv[:, None] * (onehot - pi)
            prefs += update.reshape(n_units, -1, 2).sum(axis=1)
        np.add.at(sums, (unit, arms), got)
        np.add.at(counts, (unit, arms), 1.0)
        baseline_sum += got.reshape(n_units, -1).sum(axis=1)
        baseline_cnt += m // n_units
    return Mask(indicator)


def _bandit_means(sums: np.ndarray, counts: np.ndarray) -> np.ndarray:
    with np.errstate(invalid="ignore"):
        means = np.where(counts > 0, sums / np.maximum(counts, 1.0), 0.0)
    return means


# ---------------------------------------------------------------------------
# Dispatcher
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PatternSpec:
    """A pattern tag and seed bound to resolved parameters: the pattern's
    defaults overlaid with the overrides it is built with, checked by the
    pattern's own check, so a bad one is refused before any mask is drawn."""

    pattern: str
    seed: SeedSpec
    params: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        params = resolve_params("pattern", self.pattern, self.params, PATTERN_DEFAULTS)
        if self.pattern in _CHECKS:
            _CHECKS[self.pattern](**params)
        object.__setattr__(self, "params", params)


# Tag order is PATTERN_TAGS order, the cell order of ``--patterns all``.
_GENERATORS = {
    "mcar": gen_mcar,
    "col-mar": gen_col_mar,
    "nn-mnar": gen_nn_mnar,
    "self-masking": gen_self_masking,
    "censoring": gen_censoring,
    "panel": gen_panel,
    "polarization-hard": gen_polarization_hard,
    "polarization-soft": gen_polarization_soft,
    "latent-factor": gen_latent_factor,
    "cluster": gen_cluster,
    "two-phase": gen_two_phase,
    "block": gen_block,
    "seq": gen_seq,
}


# Each pattern's check of the parameters it can judge without the table, by
# name, as its generator calls it; panel has no parameter.
_CHECKS = {
    "mcar": _check_mcar,
    "col-mar": _check_col_mar,
    "nn-mnar": _check_nn_mnar,
    "self-masking": _check_self_masking,
    "censoring": _check_censoring,
    "polarization-hard": _check_polarization_hard,
    "polarization-soft": _check_polarization_soft,
    "latent-factor": _check_latent_factor,
    "cluster": _check_cluster,
    "two-phase": _check_two_phase,
    "block": _check_block,
    "seq": _check_seq,
}

# Each pattern's parameters and defaults, as its generator's signature states them.
PATTERN_DEFAULTS: dict[str, dict] = {
    tag: signature_defaults(gen) for tag, gen in _GENERATORS.items()
}

PATTERN_TAGS = tuple(PATTERN_DEFAULTS)


def generate(spec: PatternSpec, truth: DataMatrix) -> Mask:
    """Run the named generator, resampling degenerate fully-missing masks.

    Up to 16 attempts are made, each on a freshly derived stream; identical
    spec and seed always reproduce the same mask.
    """
    for attempt in range(MAX_RESAMPLE_ATTEMPTS):
        seed = spec.seed if attempt == 0 else spec.seed.child(f"retry{attempt}")
        mask = _GENERATORS[spec.pattern](truth, **spec.params, seed=seed)
        if mask.n_observed > 0:
            return mask
    raise DegenerateMaskError(
        f"pattern {spec.pattern!r} produced fully-missing masks in "
        f"{MAX_RESAMPLE_ATTEMPTS} attempts"
    )
