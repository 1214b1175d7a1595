"""Classical imputation baselines behind one method registry.

Every imputer consumes a MaskedDataset and returns an ImputationResult whose
completion preserves observed entries bitwise. Methods also report their
predictions at the observed cells ("fitted"), which the adaptive ensembler
uses to weight two methods against each other.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields
from typing import Mapping, Optional, Sequence

import numpy as np

from .core import DataMatrix, MaskedDataset, SeedSpec, resolve_params, signature_defaults
from .featurize import (
    _check_penalty,
    _check_ridge_penalty,
    _ridge_fit_predict,
    _solve,
    build_features,
)

__all__ = [
    "EQUIVARIANT_METHODS",
    "EnsembleSpec",
    "ImputationResult",
    "Imputer",
    "METHOD_DEFAULTS",
    "METHOD_TAGS",
    "impute_col_mean",
    "impute_knn",
    "knn_peak_bytes",
    "impute_soft",
    "impute_ice",
    "impute_featurized_ridge",
    "make_imputer",
    "run_shared",
]


@dataclass(frozen=True)
class ImputationResult:
    """A completed matrix plus the method's view of the observed cells."""

    completed: DataMatrix
    fitted_observed: DataMatrix
    diagnostics: dict = field(default_factory=dict)


def _finish(
    ds: MaskedDataset, filled: np.ndarray, fitted: np.ndarray, diagnostics: dict
) -> ImputationResult:
    """Overlay the observed entries and package the result."""
    completed = np.where(ds.mask.observed, ds.observed, filled)
    return ImputationResult(DataMatrix(completed), DataMatrix(fitted), diagnostics)


def _column_means(ds: MaskedDataset) -> np.ndarray:
    """Observed mean per column; a fully missing column falls back to 0.
    Bitwise equal to np.nanmean, without its empty-slice warning, which could
    only be silenced by swapping the process-wide warnings filters."""
    observed = ds.mask.observed
    total = np.where(observed, ds.observed, 0.0).sum(axis=0)
    count = observed.sum(axis=0)
    return np.divide(total, count, out=np.zeros_like(total), where=count > 0)


def _mean_fill(ds: MaskedDataset) -> np.ndarray:
    means = _column_means(ds)
    return np.where(ds.mask.observed, ds.observed, means[None, :])


# The imputers' small products go through np.dot, not @: numpy's @ holds the
# GIL for the whole BLAS call when its output is small (a 20x20 Gram or a
# scalar), which keeps bench --jobs threads from overlapping. np.dot releases
# it and returns the same bits.


# ---------------------------------------------------------------------------
# Column mean
# ---------------------------------------------------------------------------


def impute_col_mean(ds: MaskedDataset) -> ImputationResult:
    """Fill each missing entry with its column's observed mean."""
    means = _column_means(ds)
    filled = np.broadcast_to(means, ds.shape)
    return _finish(ds, filled, filled, {"method": "col-mean"})


# ---------------------------------------------------------------------------
# k-nearest-neighbor rows
# ---------------------------------------------------------------------------


def _row_distances(ds: MaskedDataset) -> np.ndarray:
    """Euclidean distance over co-observed coordinates, rescaled by
    sqrt(n / #co-observed); infinite when rows share no coordinate. The
    diagonal is infinite so a row is never its own neighbor."""
    m, n = ds.shape
    obs = ds.mask.observed.astype(float)
    xz = np.where(ds.mask.observed, ds.observed, 0.0)
    sq = xz**2
    co = obs @ obs.T
    raw = sq @ obs.T + obs @ sq.T - 2.0 * (xz @ xz.T)
    with np.errstate(divide="ignore", invalid="ignore"):
        d2 = np.where(co > 0, raw * n / np.maximum(co, 1.0), np.inf)
    d2 = np.maximum(d2, 0.0)
    dist = np.sqrt(d2)
    np.fill_diagonal(dist, np.inf)
    return dist


def knn_peak_bytes(m: int) -> int:
    """Bytes that ``impute_knn`` holds at once for m rows, from the shape
    alone: ``_row_distances`` keeps up to five m x m float64 arrays alive
    (tracemalloc peaks at 4.1-4.3 of them for 1500 to 3000 rows)."""
    return 5 * 8 * m * m


def _check_knn(k: int) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")


def impute_knn(ds: MaskedDataset, k: int = 5) -> ImputationResult:
    """Each cell is predicted by the mean of that column over the k nearest
    rows (by masked distance) that observe the column; the column mean is
    the fallback when no such neighbor exists."""
    _check_knn(k)
    m, n = ds.shape
    if k > m - 1:
        warnings.warn(f"k={k} exceeds the {m - 1} candidate rows; clamping")
        k = max(m - 1, 1)
    dist = _row_distances(ds)
    means = _column_means(ds)
    obs = ds.mask.observed
    pred = np.empty((m, n))
    for j in range(n):
        donors = np.flatnonzero(obs[:, j])
        sub = dist[:, donors]
        # stable sort: distance ties go to the lower row; unreachable donors
        # (infinite distance) sort last and are masked out of the k nearest
        nearest = np.argsort(sub, axis=1, kind="stable")[:, :k]
        usable = np.isfinite(np.take_along_axis(sub, nearest, axis=1))
        count = usable.sum(axis=1)
        total = np.where(usable, ds.observed[donors[nearest], j], 0.0).sum(axis=1)
        pred[:, j] = np.where(count > 0, total / np.maximum(count, 1), means[j])
    return _finish(ds, pred, pred, {"method": "knn", "k": k})


# ---------------------------------------------------------------------------
# SoftImpute
# ---------------------------------------------------------------------------


def _check_stop(max_iter: int, tol: float) -> None:
    """Refuse a stop rule that cannot work as stated: fewer than one pass,
    or a tol that is NaN (no change is ever below it), negative, or infinite
    (every change is). tol = 0 runs the whole max_iter budget."""
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol}")


def _check_soft(lam: Optional[float], max_iter: int, tol: float) -> None:
    """Refuse a shrinkage lam that is given and ``_check_penalty`` refuses,
    and a stop rule ``_check_stop`` refuses."""
    if lam is not None:
        _check_penalty(lam, "lam")
    _check_stop(max_iter, tol)


def _gram_eigh(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The singular values of w (length min(m, n), descending) and, in the
    same order, the eigenvectors of the Gram matrix of w's shorter side."""
    tall = w.shape[0] >= w.shape[1]
    evals, vecs = np.linalg.eigh(np.dot(w.T, w) if tall else np.dot(w, w.T))
    return np.sqrt(np.maximum(evals[::-1], 0.0)), vecs[:, ::-1]


def _shrink(
    w: np.ndarray, s: np.ndarray, vecs: np.ndarray, lam: float
) -> tuple[np.ndarray, np.ndarray]:
    """Shrink every singular value of w by lam, given w's ``_gram_eigh``:
    the result and its spectrum (length min(m, n), descending).

    Shrinkage zeroes every singular value at or below lam, so the step needs
    only the eigendecomposition of the Gram matrix of w's shorter side, not a
    thin SVD. For m >= n, w^T w = V diag(s^2) V^T and the result is
    w V_k diag((s_k - lam) / s_k) V_k^T over the s_k > lam; for m < n the
    same operator, built from w w^T, acts on the left. It agrees with the
    thin-SVD shrink to about 1e-14 of max |w| at lam = 0.1 s_1, 1e-6 s_1
    and 0 on soft-impute iterates.
    """
    keep = s > lam
    v = vecs[:, keep]
    op = np.dot(v * ((s[keep] - lam) / s[keep]), v.T)
    return (w @ op if w.shape[0] >= w.shape[1] else op @ w), np.maximum(s - lam, 0.0)


def impute_soft(
    ds: MaskedDataset,
    lam: Optional[float] = None,
    max_iter: int = 200,
    tol: float = 1e-5,
) -> ImputationResult:
    """Accelerated singular-value soft-thresholding from a column-mean start.

    A plain step fills the missing entries with the current estimate z and
    shrinks every singular value of the filled matrix by lam: a
    proximal-gradient step on 0.5*||observed residual||^2 + lam*||Z||_*.
    Each pass takes that step from y = z + ((t - 1) / t') (z - z_prev),
    with FISTA's momentum (Beck & Teboulle 2009), t' = (1 + sqrt(1 + 4 t^2))
    / 2. The momentum restarts at t = 1, so that the next step is plain,
    when (y - z_new) . (z_new - z) > 0 (the gradient restart of O'Donoghue
    & Candes 2015). A momentum step that would raise the objective is
    replaced by the plain step from z, which costs a second shrink within
    the same pass, so the objective never increases. The first two passes
    are plain steps. The loop stops when ||z_new - z|| / ||z|| < tol or
    after max_iter passes; ``final_change`` reports that ratio at the last
    pass, so a run stopped by max_iter shows how far it was from tol.

    When lam is omitted it defaults to 0.1 times the top singular value of
    the mean-filled matrix, taken from the first pass's decomposition. The
    shrink goes through the eigendecomposition of the Gram matrix of the
    shorter side (``_gram_eigh`` and ``_shrink``), which agrees with a thin
    SVD to about 1e-14 of the largest entry.
    """
    _check_soft(lam, max_iter, tol)
    # w is every pass's filled matrix: its observed cells are written once,
    # here, and each pass writes only the missing ones.
    w = _mean_fill(ds)
    missing = np.flatnonzero(ds.mask.indicator == 0)
    # The mean fill is the first pass's filled matrix, so that pass's
    # decomposition also gives the default lam and the start's objective,
    # whose residual term is 0.
    s, vecs = _gram_eigh(w)
    if lam is None:
        lam = 0.1 * float(s[0])

    def shrink(s: np.ndarray, vecs: np.ndarray) -> tuple[np.ndarray, float]:
        """The step from w, given its decomposition: its result and the
        objective there."""
        z_new, s_new = _shrink(w, s, vecs, lam)
        r = (w - z_new).ravel()
        r[missing] = 0.0
        return z_new, 0.5 * float(np.dot(r, r)) + lam * float(s_new.sum())

    objective = [lam * float(s.sum())]
    # z is w itself until the first pass's result replaces it; w is written
    # only from the second pass on.
    z = w
    z_sq = float(np.dot(z.ravel(), z.ravel()))
    converged = False
    iterations = 0
    # t = 0 at the mean fill, which is no shrink's result: momentum starts
    # on the third pass, as after a restart it starts on the second.
    t = 0.0
    for iterations in range(1, max_iter + 1):
        t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
        momentum = t > 1.0
        if iterations > 1:
            y = z.take(missing)
            if momentum:
                # step is z - z_prev, the last pass's diff, flat
                c = (t - 1.0) / t_next
                y += c * step.take(missing)
            w.ravel()[missing] = y
            s, vecs = _gram_eigh(w)
        z_new, value = shrink(s, vecs)
        restart = momentum and value > objective[-1]
        if restart:
            w.ravel()[missing] = z.take(missing)
            z_new, value = shrink(*_gram_eigh(w))
        diff = (z_new - z).ravel()
        diff_sq = float(np.dot(diff, diff))
        if momentum and not restart:
            # (y - z_new) . diff, with y = z + c * step over every cell
            restart = c * float(np.dot(step, diff)) - diff_sq > 0.0
        t = 1.0 if restart else t_next
        change = math.sqrt(diff_sq) / max(math.sqrt(z_sq), 1e-12)
        z, step = z_new, diff
        objective.append(value)
        if change < tol:
            converged = True
            break
        z_sq = float(np.dot(z.ravel(), z.ravel()))
    diagnostics = {
        "method": "soft-impute",
        "lambda": lam,
        "iterations": iterations,
        "converged": converged,
        "objective": [float(v) for v in objective],
        "objective_monotone": bool(np.all(np.diff(objective) <= 1e-9 * max(objective[0], 1.0))),
        "final_change": change,
    }
    return _finish(ds, z, z, diagnostics)


# ---------------------------------------------------------------------------
# ICE: iterative chained regressions
# ---------------------------------------------------------------------------


def _check_ice(max_iter: int, tol: float, ridge_lambda: float) -> None:
    _check_penalty(ridge_lambda)
    _check_stop(max_iter, tol)


def impute_ice(
    ds: MaskedDataset,
    max_iter: int = 200,
    tol: float = 1e-5,
    ridge_lambda: float = 1e-3,
    *,
    seed: SeedSpec = SeedSpec(0, "ice"),
) -> ImputationResult:
    """Column-wise ridge regression sweeps from a column-mean start.

    Columns with missing entries are visited in one seed-fixed random order
    per sweep until the largest imputed-value update drops below tol. Each
    visit fits a ridge with a centred, unpenalized intercept to the column's
    observed rows and rewrites its missing cells. ``final_change`` reports
    the last sweep's largest update (0.0 when no column needs one), so a
    run stopped by max_iter shows how far it was from tol.
    """
    _check_ice(max_iter, tol, ridge_lambda)
    m, n = ds.shape
    obs = ds.mask.observed
    z = _mean_fill(ds)
    # Per column, fixed for the call: the predictor columns, the observed
    # (train) and missing (test) rows, the flat indices into z of the test
    # cells, and the observed target, centred.
    columns = []
    for j, observed in enumerate(obs.T):
        train, test = np.flatnonzero(observed), np.flatnonzero(~observed)
        y = ds.observed[train, j]
        y_mean = y.mean() if y.size else 0.0
        columns.append((np.delete(np.arange(n), j), train, test, test * n + j,
                        y - y_mean, y_mean))

    def predict(j: int, x: np.ndarray) -> np.ndarray:
        """Ridge fit of column j on the current z, predicted at the rows x."""
        predictors, train, _, _, y_c, y_mean = columns[j]
        a = z.take(train, axis=0).take(predictors, axis=1)
        mu = a.mean(axis=0)
        a_c = a - mu
        gram = np.dot(a_c.T, a_c)
        gram.flat[::n] += ridge_lambda  # the (n-1) x (n-1) diagonal
        beta = _solve(gram, np.dot(a_c.T, y_c))
        return np.dot(x - mu, beta) + y_mean

    count = obs.sum(axis=0)
    incomplete = [j for j in range(n) if 0 < count[j] < m]
    order = seed.rng().permutation(incomplete) if incomplete else []
    iterations = 0
    converged = n == 1 or not incomplete
    for iterations in range(1, max_iter + 1):
        max_change = 0.0
        for j in order:
            predictors, _, test, missing, _, _ = columns[j]
            new_vals = predict(j, z.take(test, axis=0).take(predictors, axis=1))
            max_change = max(max_change, float(np.abs(new_vals - z.take(missing)).max()))
            z.put(missing, new_vals)
        if max_change < tol:
            converged = True
            break
    if not incomplete:
        iterations = 0

    fitted = np.array(z)
    for j in range(n):
        # the row blocks above are C-ordered and z[:, predictors] is
        # F-ordered; a C-ordered block of every row would move the fitted
        # values' last bits
        fitted[:, j] = predict(j, z[:, columns[j][0]]) if count[j] else 0.0
    diagnostics = {
        "method": "ice",
        "iterations": iterations,
        "converged": converged,
        "ridge_lambda": ridge_lambda,
        "final_change": max_change,
    }
    return _finish(ds, z, fitted, diagnostics)


# ---------------------------------------------------------------------------
# Featurized ridge
# ---------------------------------------------------------------------------


def _featurized_ridge_fit(
    ds: MaskedDataset,
    ridge_lambda: float,
    positions: Optional[Sequence[tuple[np.ndarray, np.ndarray]]] = None,
) -> np.ndarray:
    """Featurized ridge's prediction at every cell, averaged over the index
    assignments ``positions`` (see ``featurize._ridge_fit_predict``); the
    plain fit without them."""
    return _ridge_fit_predict(build_features(ds), ridge_lambda, positions)


def impute_featurized_ridge(
    ds: MaskedDataset, ridge_lambda: float = 1e-3
) -> ImputationResult:
    """Run closed-form ridge on the entry-wise feature table."""
    fitted = _featurized_ridge_fit(ds, ridge_lambda)
    return _finish(
        ds, fitted, fitted, {"method": "featurized-ridge", "ridge_lambda": ridge_lambda}
    )


# ---------------------------------------------------------------------------
# Method registry
# ---------------------------------------------------------------------------


def _check_n_perms(n_perms: int) -> None:
    if n_perms < 1:
        raise ValueError(f"n_perms must be >= 1, got {n_perms}")


@dataclass(frozen=True)
class EnsembleSpec:
    """Names the two base methods and the permutation count."""

    base_a: str = "featurized-ridge"
    base_b: str = "soft-impute"
    n_perms: int = 4

    def __post_init__(self):
        for tag in (self.base_a, self.base_b):  # refuses a tag the registry lacks
            resolve_params("base method", tag, {}, METHOD_DEFAULTS)
        _check_n_perms(self.n_perms)


# Tag order is METHOD_TAGS order; the ensemble, which builds on the others, is last.
_IMPUTERS = {
    "col-mean": impute_col_mean,
    "knn": impute_knn,
    "soft-impute": impute_soft,
    "ice": impute_ice,
    "featurized-ridge": impute_featurized_ridge,
}

# Each method's parameters and defaults, as its imputer's signature states
# them (the ensemble's: the fields of EnsembleSpec).
METHOD_DEFAULTS: dict[str, dict] = {
    **{tag: signature_defaults(fn) for tag, fn in _IMPUTERS.items()},
    "ensemble": {f.name: f.default for f in fields(EnsembleSpec)},
}

METHOD_TAGS = tuple(METHOD_DEFAULTS)

# Each method's check of the parameters it can judge without the table, by
# name; its imputer calls it first (the ensemble's is EnsembleSpec's own).
# col-mean has no parameter.
_CHECKS = {
    "knn": _check_knn,
    "soft-impute": _check_soft,
    "ice": _check_ice,
    "featurized-ridge": _check_ridge_penalty,
    "ensemble": EnsembleSpec,
}

# Methods whose result commutes with row and column permutations of the input.
# Left out: featurized-ridge (z-scored index features move it by ~6e-3; the
# ensemble averages its permutations in one shared solve instead, see
# featurize._ridge_fit_predict), ice (seeded random column order) and knn
# (distance ties broken by row order).
EQUIVARIANT_METHODS = frozenset({"col-mean", "soft-impute"})


@dataclass(frozen=True)
class Imputer:
    """A method tag bound to resolved hyperparameters, checked when built
    by the method's own check, so a bad one is refused before any run."""

    method: str
    params: Mapping[str, object] = field(default_factory=dict)
    name: str = ""

    def __post_init__(self):
        params = resolve_params("method", self.method, self.params, METHOD_DEFAULTS)
        if self.method in _CHECKS:
            _CHECKS[self.method](**params)
        object.__setattr__(self, "params", params)
        if not self.name:
            object.__setattr__(self, "name", self.method)

    def run(
        self, ds: MaskedDataset, seed: SeedSpec, shared: Optional[dict] = None
    ) -> ImputationResult:
        """Impute ``ds``. ``shared`` reaches only the ensemble, which runs its
        equivariant bases through ``run_shared`` with it."""
        if self.method == "ensemble":
            # Lazy import: the ensembler builds on this registry.
            from .ensemble import blend

            return blend(ds, EnsembleSpec(**self.params), seed, shared)
        if self.method == "ice":
            return impute_ice(ds, **self.params, seed=seed)
        return _IMPUTERS[self.method](ds, **self.params)


def make_imputer(method: str, name: str = "", **params) -> Imputer:
    """Build a registry imputer, validating the method tag and parameters."""
    return Imputer(method=method, params=params, name=name)


def run_shared(
    imputer: Imputer, ds: MaskedDataset, seed: SeedSpec, shared: Optional[dict] = None
) -> ImputationResult:
    """``imputer.run(ds, seed)``, computing each seedless run once per
    ``shared`` dict.

    With ``shared`` (a bench group keeps one), a plain ``Imputer`` of a
    method in ``EQUIVARIANT_METHODS`` runs once per input and set of params,
    so a grid cell and an ensemble base that ask for the same run get the
    same result. Any other plain ``Imputer`` gets ``shared`` to pass on. A
    subclass may override ``run`` with other behaviour, and gets (ds, seed)
    alone. A run that raises is not kept. The key holds ``id(ds)`` and the
    entry holds ``ds``, so the id is not reused while the dict lives.
    """
    if shared is None or type(imputer) is not Imputer:
        return imputer.run(ds, seed)
    if imputer.method not in EQUIVARIANT_METHODS:
        return imputer.run(ds, seed, shared)
    key = (id(ds), imputer.method, tuple(sorted(imputer.params.items())))
    if key not in shared:
        shared[key] = (ds, imputer.run(ds, seed))
    return shared[key][1]
