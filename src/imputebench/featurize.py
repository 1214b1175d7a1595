"""Entry-wise featurization: one regression row per cell of the matrix.

The row for cell (i, j) is the concatenation (i, j, row i of X, column j of
X), width m + n + 2, with NaN kept wherever the context is missing. Observed
cells form the training split and missing cells the test split, which turns
imputation into plain supervised regression. A closed-form ridge consumer is
provided as the desk-scale regressor for this table. Every column of its
numeric design depends on the row alone or on the column alone, so it fits
from an m-row and an n-row block of the masked matrix and never materializes
the table or the per-cell design.

Only the two index columns depend on the order of the rows and columns, so
the same consumer also averages its fits over k permutations in one solve:
the Gram block of the other columns is shared, and each permutation's index
columns take a 2 x 2 Schur complement. This agrees with k separate fits to
within 1e-9 of the largest entry. The plain fit is the case k = 1.

The shared block is solved in the row space of each side block, not in its
full column space: an m x 2n (or n x 2m) block is replaced by a square
factor with the same row Gram, so the shared system has min(m, 2n) +
min(n, 2m) columns instead of 2m + 2n (120 instead of 380 on a 150 x 40
matrix). This is an exact reformulation, since the optimal coefficients lie
in that row space when the penalty is positive. A zero penalty is refused:
the side blocks are centred, so their row part has rank below m and their
column part below n, and the unpenalized system is singular for every table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .core import MaskedDataset

__all__ = [
    "FeatureTable",
    "SingularSystemError",
    "build_features",
    "featurized_ridge_peak_bytes",
    "ridge_on_features",
]


class SingularSystemError(RuntimeError):
    """The normal equations are singular; retry with a larger ridge penalty.
    Featurized ridge meets this only at a penalty rounding loses (1e-300)."""


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


def _centred(block: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Centre the columns of block on the training cells, in which row i of
    block appears weight[i] times."""
    return block - weight @ block / weight.sum()


def _side_block(x: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """The order-free design columns owned by the rows of x, one block row
    per row: the mean-filled context and its missing indicators, centred.

    Statistics are taken over the training cells, in which row i of x
    appears weight[i] times. A permutation of the matrix only reorders these
    rows and columns.
    """
    missing = np.isnan(x)
    counts = weight @ ~missing
    with np.errstate(invalid="ignore"):
        fill = np.where(counts > 0, weight @ np.where(missing, 0.0, x) / counts, 0.0)
    return _centred(np.column_stack([np.where(missing, fill, x), missing]), weight)


def _row_space(block: np.ndarray) -> np.ndarray:
    """A factor of block with the same row Gram ``block @ block.T`` and at
    most as many columns as rows.

    A wider-than-tall block (r x c, c > r) becomes ``block @ Q = R.T`` from
    ``block.T = QR``, r x r; any other block is returned as it is. Q has
    orthonormal columns, so an isotropic penalty on the new coefficients is
    the penalty on ``Q @ coef``, and centred columns stay centred.
    """
    r, c = block.shape
    return block if c <= r else np.linalg.qr(block.T, mode="r").T


def _index_columns(positions: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """The z-scored, centred index column of each assignment: positions is
    (rows, k), each column the rows' positions in one frame."""
    index = positions - weight @ positions / weight.sum()
    sd = np.sqrt(weight @ index**2 / weight.sum())
    return _centred(index / np.where(sd == 0, 1.0, sd), weight)


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.linalg.solve``, reporting a singular system as SingularSystemError."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            "normal equations are singular at this penalty; retry with a "
            "larger ridge_lambda"
        ) from exc


def _check_penalty(penalty: float, name: str = "ridge penalty") -> None:
    """Refuse a penalty that is not >= 0, NaN included, or is infinite."""
    if not penalty >= 0:
        raise ValueError(f"{name} must be >= 0, got {penalty}")
    if penalty == math.inf:
        raise ValueError(f"{name} must be finite, got {penalty}")


def _check_ridge_penalty(ridge_lambda: float) -> None:
    """Refuse a featurized-ridge penalty that is not > 0 and finite: NaN,
    negative and infinite ones with ``_check_penalty``'s message, then zero."""
    _check_penalty(ridge_lambda)
    if ridge_lambda == 0:
        raise ValueError("featurized ridge needs ridge_lambda > 0: its normal "
                         "equations are singular at 0 for every table")


def featurized_ridge_peak_bytes(m: int, n: int, k: int = 1) -> int:
    """Bytes that the featurized-ridge fit averaged over k index assignments
    (k = 1: the plain fit) holds at once on an m x n matrix, from the shape
    alone: the p x p shared Gram block with its solver copies (32 bytes per
    entry), the side blocks and their intermediates (128 bytes per cell),
    and per assignment its permutations, positions, index columns and
    right-hand side and solution columns (64 bytes per row, column and
    shared coefficient), where p = min(m, 2n) + min(n, 2m). Under
    tracemalloc the fit, and the ensemble that draws the k permutations and
    runs it, peak at 0.34-0.86 of it from 20 x 6 to 3000 x 20, 600 x 600 and
    1000 x 400, with k from 1 to 1000 (to 100 on the three largest); on
    smaller tables a few KiB of fixed overhead can exceed it."""
    p = min(m, 2 * n) + min(n, 2 * m)
    return 32 * p * p + 128 * m * n + 64 * k * (m + n + p)


def _ridge_fit_predict(
    ft: FeatureTable,
    ridge_lambda: float,
    positions: Optional[Sequence[tuple[np.ndarray, np.ndarray]]] = None,
) -> np.ndarray:
    """Closed-form ridge on the training rows, averaged over k index
    assignments.

    Returns the (m, n) prediction at every cell, observed or missing. The
    intercept is handled by centering and left unpenalized. An assignment is
    a pair (row positions, column positions): each original row's and
    column's position in a permuted frame, i.e. ``argsort`` of the (row,
    column) permutation. Without ``positions`` the one assignment is the
    identity, the plain fit. The fit in a permuted frame is the fit of the
    original matrix with its two index columns replaced: the other columns
    only change order, which an isotropic penalty ignores. So the average of
    the k fits is one solve of their shared Gram block G0, with the target
    and the index columns' cross terms stacked as its right-hand side, plus a
    2 x 2 Schur complement per assignment for its two index coefficients.

    The centred design row of cell (i, j) is [R[i], a[i], C[j], c[j]], with
    R and C from _side_block and a and c the index columns, so every
    prediction is additive and the average is one ``np.add.outer``.

    Predictions depend on the coefficients of R and C only through R @ beta_R
    and C @ beta_C. As ridge_lambda > 0 the optimum lies in the row space of
    each block, so a block wider than tall is replaced by an r x r factor
    with the same row Gram (_row_space); the penalty and the centring carry
    over unchanged and the shared system shrinks from 2m + 2n columns to
    min(m, 2n) + min(n, 2m). A zero penalty is refused: that system is then
    singular for every table.
    """
    _check_ridge_penalty(ridge_lambda)
    if not ft.indicator.any():
        raise ValueError("no training rows: the dataset has no observed entry")
    x, train = ft.observed, ft.indicator
    m, n = x.shape
    if positions is None:
        positions = [(np.arange(m), np.arange(n))]
    k = len(positions)
    row_w, col_w = train.sum(axis=1), train.sum(axis=0)
    rows, cols = _row_space(_side_block(x, row_w)), _row_space(_side_block(x.T, col_w))
    a_r = _index_columns(np.column_stack([p for p, _ in positions]), row_w)
    a_c = _index_columns(np.column_stack([p for _, p in positions]), col_w)
    y_mean = x[train].mean()
    y_c = np.where(train, x - y_mean, 0.0)
    y_r, y_col = y_c.sum(axis=1), y_c.sum(axis=0)
    t = train.astype(float)
    ta_c, ta_r = t @ a_c, t.T @ a_r  # each index column summed along the other side

    cross = rows.T @ t @ cols
    gram = np.block([
        [rows.T @ (row_w[:, None] * rows), cross],
        [cross.T, cols.T @ (col_w[:, None] * cols)],
    ])
    gram[np.diag_indices_from(gram)] += ridge_lambda
    # Cross terms of the shared columns with each assignment's row (b_r) and
    # column (b_c) index column, p x k; solved together with the target.
    b_r = np.concatenate([rows.T @ (row_w[:, None] * a_r), cols.T @ ta_r])
    b_c = np.concatenate([rows.T @ ta_c, cols.T @ (col_w[:, None] * a_c)])
    rhs = np.column_stack([np.concatenate([rows.T @ y_r, cols.T @ y_col]), b_r, b_c])
    sol = _solve(gram, rhs)
    beta0, s_r, s_c = sol[:, 0], sol[:, 1:k + 1], sol[:, k + 1:]
    # Each assignment's 2 x 2 Schur complement, stacked k x 2 x 2.
    off = (a_r * ta_c).sum(axis=0) - (b_r * s_c).sum(axis=0)
    schur = np.stack([
        np.stack([row_w @ a_r**2 + ridge_lambda - (b_r * s_r).sum(axis=0), off], -1),
        np.stack([off, col_w @ a_c**2 + ridge_lambda - (b_c * s_c).sum(axis=0)], -1),
    ], -2)
    target = np.stack([a_r.T @ y_r - b_r.T @ beta0, a_c.T @ y_col - b_c.T @ beta0], -1)
    gamma = _solve(schur, target[..., None])[..., 0]
    beta = beta0 - (s_r @ gamma[:, 0] + s_c @ gamma[:, 1]) / k
    split = rows.shape[1]
    pred = np.add.outer(rows @ beta[:split] + a_r @ gamma[:, 0] / k,
                        cols @ beta[split:] + a_c @ gamma[:, 1] / k) + y_mean
    return pred


def ridge_on_features(ft: FeatureTable, ridge_lambda: float) -> np.ndarray:
    """Predict the test-row (missing-cell) values with closed-form ridge."""
    return _ridge_fit_predict(ft, ridge_lambda)[~ft.indicator]
