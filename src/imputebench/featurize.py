"""Entry-wise featurization: one regression row per cell of the matrix.

The row for cell (i, j) is the concatenation (i, j, row i of X, column j of
X), width m + n + 2, with NaN kept wherever the context is missing. Observed
cells form the training split and missing cells the test split, which turns
imputation into plain supervised regression. A closed-form ridge consumer is
provided as the desk-scale regressor for this table. Every column of its
numeric design depends on the row alone or on the column alone, so it fits
from an m-row and an n-row block of the masked matrix and never materializes
the table or the per-cell design.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import MaskedDataset

__all__ = [
    "FeatureTable",
    "SingularSystemError",
    "build_features",
    "ridge_on_features",
]


class SingularSystemError(RuntimeError):
    """The normal equations are singular; retry with a positive ridge penalty."""


@dataclass(frozen=True)
class FeatureTable:
    """Per-cell regression view of a masked matrix.

    Rows are in row-major cell order: the row for cell (i, j) is i*n + j.
    The view holds only the masked matrix and its observed indicator; the
    (m*n) x (m+n+2) ``features`` array is built on first read and kept.
    ``features`` keeps the missing sentinel (NaN) wherever the row or column
    context is unobserved; ``targets`` holds the cell's own value, NaN when
    the cell itself is missing.
    """

    observed: np.ndarray
    indicator: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.observed.shape

    @property
    def width(self) -> int:
        return sum(self.shape) + 2

    @property
    def targets(self) -> np.ndarray:
        return self.observed.ravel()

    @property
    def train_rows(self) -> np.ndarray:
        return np.flatnonzero(self.indicator)

    @property
    def test_rows(self) -> np.ndarray:
        return np.flatnonzero(~self.indicator)

    @property
    def cell_index(self) -> np.ndarray:
        return np.indices(self.shape).reshape(2, -1).T

    @cached_property
    def features(self) -> np.ndarray:
        m, n = self.shape
        rows = np.repeat(self.observed, n, axis=0)  # row context X[i, :]
        cols = np.tile(self.observed.T, (m, 1))     # column context X[:, j]
        return np.concatenate([self.cell_index.astype(float), rows, cols], axis=1)


def build_features(ds: MaskedDataset) -> FeatureTable:
    """The (m*n) x (m+n+2) feature table of a masked matrix, as a view that
    allocates O(m*n) until ``features`` is read."""
    return FeatureTable(observed=ds.observed, indicator=ds.mask.observed)


def _side_block(x: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """The design columns owned by the rows of x, one block row per row: the
    z-scored index, the mean-filled context and its missing indicators.

    Statistics are taken over the training cells, in which row i of x
    appears weight[i] times, and the block is centred on the same weights.
    """
    total = weight.sum()
    index = np.arange(x.shape[0]) - weight @ np.arange(x.shape[0]) / total
    sd = np.sqrt(weight @ index**2 / total)
    missing = np.isnan(x)
    counts = weight @ ~missing
    with np.errstate(invalid="ignore"):
        fill = np.where(counts > 0, weight @ np.where(missing, 0.0, x) / counts, 0.0)
    block = np.column_stack([index / (sd or 1.0), np.where(missing, fill, x), missing])
    return block - weight @ block / total


def _ridge_fit_predict(
    ft: FeatureTable, ridge_lambda: float
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form ridge on the training rows.

    Returns (predictions at test rows, fitted values at train rows). The
    intercept is handled by centering and left unpenalized. The centred
    design row of cell (i, j) is [R[i], C[j]], R and C from _side_block, so
    every prediction is additive: R[i] @ beta_r + C[j] @ beta_c + mean(y).
    """
    if ridge_lambda < 0:
        raise ValueError(f"ridge penalty must be >= 0, got {ridge_lambda}")
    if not ft.indicator.any():
        raise ValueError("no training rows: the dataset has no observed entry")
    x, train = ft.observed, ft.indicator
    row_w, col_w = train.sum(axis=1), train.sum(axis=0)
    rows, cols = _side_block(x, row_w), _side_block(x.T, col_w)
    y_mean = x[train].mean()
    y_c = np.where(train, x - y_mean, 0.0)

    cross = rows.T @ train @ cols
    gram = np.block([
        [rows.T @ (row_w[:, None] * rows), cross],
        [cross.T, cols.T @ (col_w[:, None] * cols)],
    ])
    gram[np.diag_indices_from(gram)] += ridge_lambda
    rhs = np.concatenate([rows.T @ y_c.sum(axis=1), cols.T @ y_c.sum(axis=0)])
    try:
        beta = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            "normal equations are singular at this penalty; retry with a "
            "larger ridge_lambda"
        ) from exc
    split = rows.shape[1]
    pred = np.add.outer(rows @ beta[:split], cols @ beta[split:]) + y_mean
    return pred[~train], pred[train]


def ridge_on_features(ft: FeatureTable, ridge_lambda: float) -> np.ndarray:
    """Predict the test-row (missing-cell) values with closed-form ridge."""
    test_pred, _ = _ridge_fit_predict(ft, ridge_lambda)
    return test_pred
