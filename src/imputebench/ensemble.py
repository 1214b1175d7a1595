"""Two-layer ensembling: permutation averaging and an adaptive convex blend.

The permutation layer shuffles rows and columns, imputes, undoes the
shuffle, and averages. A permutation-equivariant base (``EQUIVARIANT_METHODS``)
runs once on the input instead: each shuffled run would give that same result
up to rounding. Featurized ridge (a plain ``Imputer``) is averaged in one fit:
a permutation changes only its two index columns, so the fits share one solve
of the other columns' Gram block (``featurize._ridge_fit_predict``), within
1e-9 of the largest entry of refitting each permuted matrix. Those fits do
not pass through ``Imputer.run``, so a trace of ``Imputer.run`` shows no
per-permutation featurized-ridge run. Other bases, and subclasses, are run
once per permutation. The blend layer runs two base methods and combines
them with the closed-form weight that minimizes squared error against the
observed entries; the weight is intentionally not clipped to [0, 1].

That single unpermuted run of an equivariant base goes through
``imputers.run_shared`` with the caller's optional ``shared`` dict. A bench
group keeps one such dict, keyed by the input (``id(ds)``), method and
params, so a base the grid also runs as its own method on the same input
(the default ``soft-impute``) is computed once and shared with the grid
cell. Its time is then counted in whichever of the two cells runs first, so
with ``soft-impute`` listed before ``ensemble`` the ensemble cell's
``timings[].seconds`` no longer includes it.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .core import DataMatrix, Mask, MaskedDataset, SeedSpec
from .imputers import (
    EQUIVARIANT_METHODS,
    EnsembleSpec,
    ImputationResult,
    Imputer,
    _check_n_perms,
    _featurized_ridge_fit,
    _finish,
    make_imputer,
    run_shared,
)

__all__ = [
    "EnsembleSpec",
    "adaptive_weight",
    "blend",
    "permutation_ensemble",
]

def _permute_dataset(
    ds: MaskedDataset, row_perm: np.ndarray, col_perm: np.ndarray
) -> MaskedDataset:
    truth = None
    if ds.truth is not None:
        truth = DataMatrix(ds.truth.values[row_perm][:, col_perm])
    return MaskedDataset(
        mask=Mask(ds.mask.indicator[row_perm][:, col_perm]),
        observed=ds.observed[row_perm][:, col_perm],
        truth=truth,
    )


def permutation_ensemble(
    imputer: Imputer,
    ds: MaskedDataset,
    n_perms: int,
    seed: SeedSpec,
    perms: Optional[Sequence[tuple[np.ndarray, np.ndarray]]] = None,
    shared: Optional[dict] = None,
) -> ImputationResult:
    """Average the base imputer over row/column permutations of the input.

    ``perms`` pins explicit (row, column) permutation pairs, mainly for
    tests, and is always run as given; otherwise each pair is drawn from its
    own derived stream. Without ``perms``, a base in ``EQUIVARIANT_METHODS``
    runs once on the unpermuted input, since its permutation average equals
    that single run up to rounding, made by ``run_shared`` with ``shared``.
    A plain featurized-ridge ``Imputer`` fits every pair, drawn or given, in
    one shared solve; any other base runs once per pair. The diagnostics
    report ``n_perms`` either way.
    """
    _check_n_perms(n_perms)
    m, n = ds.shape
    if perms is not None:
        if len(perms) != n_perms:
            raise ValueError(f"expected {n_perms} permutation pairs, got {len(perms)}")
        perms = [(np.asarray(rows), np.asarray(cols)) for rows, cols in perms]
        for t, (rows, cols) in enumerate(perms):
            for axis, arr, size in (("row", rows, m), ("column", cols, n)):
                if (arr.dtype.kind not in "iu" or arr.shape != (size,)
                        or not np.array_equal(np.sort(arr), np.arange(size))):
                    raise ValueError(
                        f"permutation pair {t}: the {axis} array is not a "
                        f"permutation of range({size})"
                    )
    diagnostics = {
        "method": "permutation-ensemble",
        "base": imputer.method,
        "n_perms": n_perms,
    }
    if perms is None and imputer.method in EQUIVARIANT_METHODS:
        result = run_shared(imputer, ds, seed.child("impute"), shared)
        return ImputationResult(result.completed, result.fitted_observed, diagnostics)
    if perms is None:
        perms = []
        for t in range(n_perms):
            rng = seed.child(f"perm{t}").child("shuffle").rng()
            perms.append((rng.permutation(m), rng.permutation(n)))
    if type(imputer) is Imputer and imputer.method == "featurized-ridge":
        positions = [(np.argsort(rows), np.argsort(cols)) for rows, cols in perms]
        fitted = _featurized_ridge_fit(ds, **imputer.params, positions=positions)
        completed = fitted
    else:
        completed, fitted = np.zeros((m, n)), np.zeros((m, n))
        for t, (row_perm, col_perm) in enumerate(perms):
            inv_rows = np.argsort(row_perm)
            inv_cols = np.argsort(col_perm)
            result = imputer.run(_permute_dataset(ds, row_perm, col_perm),
                                 seed.child(f"perm{t}").child("impute"))
            completed += result.completed.values[inv_rows][:, inv_cols]
            fitted += result.fitted_observed.values[inv_rows][:, inv_cols]
        completed, fitted = completed / n_perms, fitted / n_perms
    return _finish(ds, completed, fitted, diagnostics)


DEGENERATE_TOL = 1e-12  # adaptive_weight's 0.5 fallback below this denominator


def adaptive_weight(x1_hat: np.ndarray, x2_hat: np.ndarray, x_obs: np.ndarray) -> float:
    """Closed-form minimizer of ||x_obs - (w*x1 + (1-w)*x2)||^2 over w.

    Falls back to 0.5 when the two predictions coincide (denominator below
    ``DEGENERATE_TOL``). The result is not clipped to [0, 1].
    """
    x1 = np.asarray(x1_hat, dtype=float).ravel()
    x2 = np.asarray(x2_hat, dtype=float).ravel()
    xo = np.asarray(x_obs, dtype=float).ravel()
    if not (x1.size == x2.size == xo.size):
        raise ValueError(
            f"length mismatch: {x1.size}, {x2.size}, {xo.size}"
        )
    if x1.size == 0:
        raise ValueError("need at least one observed entry")
    diff = x1 - x2
    denom = float(diff @ diff)
    if denom < DEGENERATE_TOL:
        return 0.5
    return float((xo - x2) @ diff / denom)


def blend(
    ds: MaskedDataset,
    spec: EnsembleSpec,
    seed: SeedSpec,
    shared: Optional[dict] = None,
) -> ImputationResult:
    """Adaptively weighted average of two permutation-ensembled methods.

    ``shared`` is handed to ``permutation_ensemble`` for both bases.
    """
    base_a = make_imputer(spec.base_a)
    base_b = make_imputer(spec.base_b)
    res_a = permutation_ensemble(base_a, ds, spec.n_perms, seed.child("base-a"),
                                 shared=shared)
    res_b = permutation_ensemble(base_b, ds, spec.n_perms, seed.child("base-b"),
                                 shared=shared)
    obs = ds.mask.observed
    w = adaptive_weight(
        res_a.fitted_observed.values[obs],
        res_b.fitted_observed.values[obs],
        ds.observed[obs],
    )
    completed = w * res_a.completed.values + (1.0 - w) * res_b.completed.values
    fitted = w * res_a.fitted_observed.values + (1.0 - w) * res_b.fitted_observed.values
    diagnostics = {
        "method": "ensemble",
        "weight": w,
        "base_a": spec.base_a,
        "base_b": spec.base_b,
        "n_perms": spec.n_perms,
    }
    return _finish(ds, completed, fitted, diagnostics)
