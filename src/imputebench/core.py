"""Masked-matrix data model, seeded randomness contract, mask algebra, and the
parameter rule that the pattern and method registries share.

Matrices are dense float64 arrays. A mask entry of 1 means the cell is
observed; 0 means it is missing. Missing cells in an observed matrix carry
NaN in memory and an empty cell on disk. All containers freeze their arrays
after validation, so instances are safe to share across threads.
"""

from __future__ import annotations

import hashlib
import inspect
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

import numpy as np

__all__ = [
    "DataMatrix",
    "Mask",
    "MaskedDataset",
    "SeedSpec",
    "ShapeMismatchError",
    "DegenerateMaskError",
    "apply_mask",
    "bernoulli_mask",
    "missing_fraction",
    "resolve_params",
    "signature_defaults",
]

MAX_SEED = 2**64 - 1


class ShapeMismatchError(ValueError):
    """Two array arguments that must share a shape do not."""


class DegenerateMaskError(ValueError):
    """A mask leaves no observed entry to work with."""


def _frozen_array(values, dtype=np.float64) -> np.ndarray:
    # order="C" pins the memory layout: reduction order, and therefore the
    # exact floating-point results downstream, must not depend on how the
    # caller's array happened to be laid out
    arr = np.array(values, dtype=dtype, copy=True, order="C")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class DataMatrix:
    """Dense real-valued table: the complete ground truth or a completion."""

    values: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.values)
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-D matrix, got ndim={arr.ndim}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"matrix must be at least 1x1, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("matrix entries must all be finite")
        object.__setattr__(self, "values", arr)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class Mask:
    """Binary observation indicator: 1 = observed, 0 = missing."""

    indicator: np.ndarray

    def __post_init__(self):
        arr = np.array(self.indicator, copy=True, order="C")
        if arr.ndim != 2:
            raise ValueError(f"mask must be 2-D, got ndim={arr.ndim}")
        if not ((arr == 0) | (arr == 1)).all():
            raise ValueError("mask entries must be 0 or 1")
        arr = np.ascontiguousarray(arr.astype(np.uint8))
        arr.setflags(write=False)
        object.__setattr__(self, "indicator", arr)

    @property
    def shape(self) -> tuple[int, int]:
        return self.indicator.shape

    @property
    def observed(self) -> np.ndarray:
        """Boolean array, True where the entry is observed."""
        return self.indicator.astype(bool)

    @property
    def missing(self) -> np.ndarray:
        """Boolean array, True where the entry is missing."""
        return ~self.observed

    @property
    def n_observed(self) -> int:
        return int(self.indicator.sum())

    @property
    def n_missing(self) -> int:
        return self.indicator.size - self.n_observed


@dataclass(frozen=True)
class SeedSpec:
    """Root of a reproducible random stream.

    Equal (seed, label) pairs always produce bit-identical streams; the label
    is hashed with SHA-256 so the mapping does not depend on the process's
    hash randomization.
    """

    seed: int
    label: str = ""

    def __post_init__(self):
        if not 0 <= int(self.seed) <= MAX_SEED:
            raise ValueError(f"seed must fit in 64 bits, got {self.seed}")
        object.__setattr__(self, "seed", int(self.seed))

    def rng(self) -> np.random.Generator:
        digest = hashlib.sha256(self.label.encode("utf-8")).digest()
        words = [int.from_bytes(digest[i : i + 8], "little") for i in range(0, 32, 8)]
        return np.random.default_rng([self.seed, *words])

    def child(self, label: str) -> "SeedSpec":
        """Derive an independent stream for a named sub-task."""
        combined = f"{self.label}/{label}" if self.label else label
        return SeedSpec(self.seed, combined)


@dataclass(frozen=True)
class MaskedDataset:
    """Bundle of ground truth, mask, and the observed matrix with NaN holes.

    ``truth`` may be None when the dataset was loaded from files and no
    ground truth exists (e.g. the impute CLI path); every invariant that
    involves the truth is enforced only when it is present.
    """

    mask: Mask
    observed: np.ndarray
    truth: Optional[DataMatrix] = field(default=None)

    def __post_init__(self):
        obs = np.array(self.observed, dtype=np.float64, copy=True, order="C")
        if obs.shape != self.mask.shape:
            raise ShapeMismatchError(
                f"observed matrix {obs.shape} does not match mask {self.mask.shape}"
            )
        if self.mask.n_observed == 0:
            raise DegenerateMaskError("dataset has no observed entries")
        m_obs = self.mask.observed
        nan = np.isnan(obs)
        if (nan & m_obs).any():
            raise ValueError("observed cells must not be NaN")
        if not (nan | m_obs).all():
            raise ValueError("missing cells must be NaN")
        if self.truth is not None:
            if self.truth.shape != self.mask.shape:
                raise ShapeMismatchError(
                    f"truth {self.truth.shape} does not match mask {self.mask.shape}"
                )
            # nan is now exactly the missing cells
            if not ((obs == self.truth.values) | nan).all():
                raise ValueError("observed cells must equal the truth there")
        obs.setflags(write=False)
        object.__setattr__(self, "observed", obs)

    @property
    def shape(self) -> tuple[int, int]:
        return self.mask.shape

    @property
    def rows(self) -> int:
        return self.mask.shape[0]

    @property
    def cols(self) -> int:
        return self.mask.shape[1]


def apply_mask(truth: DataMatrix, mask: Mask) -> MaskedDataset:
    """Overlay a mask on a complete matrix, writing NaN into missing cells.
    A mask that hides every entry raises ``DegenerateMaskError`` (through
    ``MaskedDataset``)."""
    if truth.shape != mask.shape:
        raise ShapeMismatchError(
            f"truth {truth.shape} does not match mask {mask.shape}"
        )
    observed = np.where(mask.observed, truth.values, np.nan)
    return MaskedDataset(mask=mask, observed=observed, truth=truth)


def missing_fraction(mask: Mask) -> float:
    """Fraction of entries that are missing, in [0, 1]."""
    return mask.n_missing / mask.indicator.size


def bernoulli_mask(p_observed: np.ndarray, rng: np.random.Generator) -> Mask:
    """Each entry observed independently with its own propensity: one
    uniform draw per entry, in row-major order, observed below p."""
    return Mask((rng.random(p_observed.shape) < p_observed).astype(np.uint8))


def signature_defaults(fn: Callable) -> dict:
    """A registry function's parameters after the first (the data) that may
    be passed by position, with their defaults, in signature order.
    Keyword-only parameters (a seed, censoring's directions) are left out."""
    params = list(inspect.signature(fn).parameters.values())[1:]
    return {p.name: p.default for p in params if p.kind is p.POSITIONAL_OR_KEYWORD}


def resolve_params(
    kind: str, tag: str, params: Mapping, defaults: Mapping[str, dict]
) -> dict:
    """The registry entry ``tag``'s defaults overlaid with ``params``;
    ``ValueError`` for a tag the registry lacks or a parameter it does not
    declare."""
    if tag not in defaults:
        known = ", ".join(defaults)
        raise ValueError(f"unknown {kind} {tag!r} (choose from: {known})")
    unknown = set(params) - set(defaults[tag])
    if unknown:
        raise ValueError(f"unknown parameters for {tag!r}: {sorted(unknown)}")
    return {**defaults[tag], **params}
