"""Classical imputation baselines behind one method registry.

Every imputer consumes a MaskedDataset and returns an ImputationResult whose
completion preserves observed entries bitwise. Methods also report their
predictions at the observed cells ("fitted"), which the adaptive ensembler
uses to weight two methods against each other.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

import numpy as np

from .core import DataMatrix, MaskedDataset, SeedSpec
from .featurize import _ridge_fit_predict, build_features

__all__ = [
    "EQUIVARIANT_METHODS",
    "ImputationResult",
    "Imputer",
    "METHOD_DEFAULTS",
    "METHOD_TAGS",
    "impute_col_mean",
    "impute_knn",
    "impute_soft",
    "impute_ice",
    "impute_featurized_ridge",
    "make_imputer",
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
    """Observed mean per column; a fully missing column falls back to 0."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        means = np.nanmean(ds.observed, axis=0)
    return np.where(np.isnan(means), 0.0, means)


def _mean_fill(ds: MaskedDataset) -> np.ndarray:
    means = _column_means(ds)
    return np.where(ds.mask.observed, ds.observed, means[None, :])


def _centered_ridge(
    a: np.ndarray, y: np.ndarray, lam: float
) -> Callable[[np.ndarray], np.ndarray]:
    """Closed-form ridge with an unpenalized intercept via centering."""
    if a.shape[1] == 0:
        mean = y.mean()
        return lambda b: np.full(b.shape[0], mean)
    mu = a.mean(axis=0)
    ym = y.mean()
    a_c = a - mu
    gram = a_c.T @ a_c + lam * np.eye(a.shape[1])
    beta = np.linalg.solve(gram, a_c.T @ (y - ym))
    return lambda b: (b - mu) @ beta + ym


# ---------------------------------------------------------------------------
# Column mean
# ---------------------------------------------------------------------------


def impute_col_mean(ds: MaskedDataset) -> ImputationResult:
    """Fill each missing entry with its column's observed mean."""
    means = _column_means(ds)
    filled = np.broadcast_to(means, ds.shape)
    return _finish(ds, filled, np.array(filled), {"method": "col-mean"})


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


def impute_knn(ds: MaskedDataset, k: int = 5) -> ImputationResult:
    """Each cell is predicted by the mean of that column over the k nearest
    rows (by masked distance) that observe the column; the column mean is
    the fallback when no such neighbor exists."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
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


def _soft_threshold_svd(w: np.ndarray, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Shrink every singular value of w by lam: the result and its spectrum."""
    u, s, vt = np.linalg.svd(w, full_matrices=False)
    s = np.maximum(s - lam, 0.0)
    return (u * s) @ vt, s


def _soft_objective(
    x_obs: np.ndarray, z_obs: np.ndarray, lam: float, s: np.ndarray
) -> float:
    """The objective at z, given z at the observed cells (z_obs, in the order
    of the observed values x_obs) and the singular values s of z."""
    resid = x_obs - z_obs
    return 0.5 * float(resid @ resid) + lam * float(s.sum())


def impute_soft(
    ds: MaskedDataset,
    lam: Optional[float] = None,
    max_iter: int = 200,
    tol: float = 1e-5,
) -> ImputationResult:
    """Iterative SVD soft-thresholding from a column-mean start.

    Each step replaces the missing entries with the current low-rank
    estimate and shrinks all singular values by lam; the objective
    0.5*||observed residual||^2 + lam*||Z||_* never increases. When lam is
    omitted it defaults to 0.1 times the top singular value of the
    mean-filled matrix.
    """
    if lam is not None and lam < 0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    z = _mean_fill(ds)
    spectrum = np.linalg.svd(z, compute_uv=False)
    if lam is None:
        lam = 0.1 * float(spectrum[0])
    observed = ds.mask.observed
    x_obs = ds.observed[observed]
    objective = [_soft_objective(x_obs, z[observed], lam, spectrum)]
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        w = np.where(observed, ds.observed, z)
        z_new, spectrum = _soft_threshold_svd(w, lam)
        denom = max(float(np.linalg.norm(z)), 1e-12)
        change = float(np.linalg.norm(z_new - z)) / denom
        z = z_new
        objective.append(_soft_objective(x_obs, z[observed], lam, spectrum))
        if change < tol:
            converged = True
            break
    diffs = np.diff(objective)
    diagnostics = {
        "method": "soft-impute",
        "lambda": lam,
        "iterations": iterations,
        "converged": converged,
        "objective": [float(v) for v in objective],
        "objective_monotone": bool(np.all(diffs <= 1e-9 * max(objective[0], 1.0))),
        "final_change": float(diffs[-1]) if diffs.size else 0.0,
    }
    return _finish(ds, z, z, diagnostics)


# ---------------------------------------------------------------------------
# ICE: iterative chained regressions
# ---------------------------------------------------------------------------


def impute_ice(
    ds: MaskedDataset,
    max_iter: int = 200,
    tol: float = 1e-5,
    ridge_lambda: float = 1e-3,
    seed: SeedSpec = SeedSpec(0, "ice"),
) -> ImputationResult:
    """Column-wise ridge regression sweeps from a column-mean start.

    Columns with missing entries are visited in one seed-fixed random order
    per sweep until the largest imputed-value update drops below tol.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    m, n = ds.shape
    obs = ds.mask.observed
    z = _mean_fill(ds)
    # Per column: the predictor columns, the observed (train) and missing
    # (test) rows and the observed targets. Sweeps only rewrite test rows.
    predictors = [np.delete(np.arange(n), j) for j in range(n)]
    train = [np.flatnonzero(obs[:, j]) for j in range(n)]
    test = [np.flatnonzero(~obs[:, j]) for j in range(n)]
    targets = [ds.observed[train[j], j] for j in range(n)]
    incomplete = [j for j in range(n) if train[j].size and test[j].size]
    order = seed.rng().permutation(incomplete) if incomplete else []

    iterations = 0
    converged = n == 1 or not incomplete
    for iterations in range(1, max_iter + 1):
        max_change = 0.0
        for j in order:
            model = _centered_ridge(
                z[np.ix_(train[j], predictors[j])], targets[j], ridge_lambda
            )
            new_vals = model(z[np.ix_(test[j], predictors[j])])
            max_change = max(max_change, float(np.abs(new_vals - z[test[j], j]).max()))
            z[test[j], j] = new_vals
        if max_change < tol:
            converged = True
            break
    if not incomplete:
        iterations = 0

    fitted = np.array(z)
    for j in range(n):
        if not train[j].size:
            fitted[:, j] = 0.0
            continue
        model = _centered_ridge(
            z[np.ix_(train[j], predictors[j])], targets[j], ridge_lambda
        )
        fitted[:, j] = model(z[:, predictors[j]])
    diagnostics = {
        "method": "ice",
        "iterations": iterations,
        "converged": converged,
        "ridge_lambda": ridge_lambda,
    }
    return _finish(ds, z, fitted, diagnostics)


# ---------------------------------------------------------------------------
# Featurized ridge
# ---------------------------------------------------------------------------


def impute_featurized_ridge(
    ds: MaskedDataset, ridge_lambda: float = 1e-3
) -> ImputationResult:
    """Run closed-form ridge on the entry-wise feature table."""
    ft = build_features(ds)
    test_pred, train_fit = _ridge_fit_predict(ft, ridge_lambda)
    fitted = np.empty(ds.shape)
    fitted[~ft.indicator] = test_pred
    fitted[ft.indicator] = train_fit
    return _finish(
        ds, fitted, fitted, {"method": "featurized-ridge", "ridge_lambda": ridge_lambda}
    )


# ---------------------------------------------------------------------------
# Method registry
# ---------------------------------------------------------------------------

METHOD_DEFAULTS: dict[str, dict] = {
    "col-mean": {},
    "knn": {"k": 5},
    "soft-impute": {"lam": None, "max_iter": 200, "tol": 1e-5},
    "ice": {"max_iter": 200, "tol": 1e-5, "ridge_lambda": 1e-3},
    "featurized-ridge": {"ridge_lambda": 1e-3},
    "ensemble": {
        "base_a": "featurized-ridge",
        "base_b": "soft-impute",
        "n_perms": 4,
        "degenerate_tol": 1e-12,
    },
}

METHOD_TAGS = tuple(METHOD_DEFAULTS)

# Methods whose result commutes with row and column permutations of the input.
# Left out: featurized-ridge (z-scored index features move it by ~6e-3), ice
# (seeded random column order) and knn (distance ties broken by row order).
EQUIVARIANT_METHODS = frozenset({"col-mean", "soft-impute"})


@dataclass(frozen=True)
class Imputer:
    """A method tag bound to resolved hyperparameters."""

    method: str
    params: Mapping[str, object] = field(default_factory=dict)
    name: str = ""

    def __post_init__(self):
        if self.method not in METHOD_DEFAULTS:
            known = ", ".join(METHOD_TAGS)
            raise ValueError(f"unknown method {self.method!r} (choose from: {known})")
        unknown = set(self.params) - set(METHOD_DEFAULTS[self.method])
        if unknown:
            raise ValueError(
                f"unknown parameters for {self.method!r}: {sorted(unknown)}"
            )
        merged = dict(METHOD_DEFAULTS[self.method])
        merged.update(self.params)
        object.__setattr__(self, "params", merged)
        if not self.name:
            object.__setattr__(self, "name", self.method)

    def run(
        self,
        ds: MaskedDataset,
        seed: SeedSpec,
        base_run: Optional[Callable[..., ImputationResult]] = None,
    ) -> ImputationResult:
        """Impute ``ds``. ``base_run`` reaches only the ensemble, which runs
        its equivariant base through it (see ``ensemble.permutation_ensemble``)."""
        p = self.params
        if self.method == "col-mean":
            return impute_col_mean(ds)
        if self.method == "knn":
            return impute_knn(ds, **p)
        if self.method == "soft-impute":
            return impute_soft(ds, **p)
        if self.method == "ice":
            return impute_ice(ds, **p, seed=seed)
        if self.method == "featurized-ridge":
            return impute_featurized_ridge(ds, **p)
        # Lazy import: the ensembler builds on this registry.
        from .ensemble import EnsembleSpec, blend

        return blend(ds, EnsembleSpec(**p), seed, base_run)


def make_imputer(method: str, name: str = "", **params) -> Imputer:
    """Build a registry imputer, validating the method tag and parameters."""
    return Imputer(method=method, params=params, name=name)
