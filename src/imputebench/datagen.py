"""Synthetic ground-truth generation from low-rank linear factor models.

A data matrix is the product of two latent factor matrices, with the latent
rows drawn from one of five distribution families, plus optional additive
Gaussian noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import DataMatrix, SeedSpec

__all__ = [
    "Gaussian",
    "Laplace",
    "StudentT",
    "SpikeAndSlab",
    "Dirichlet",
    "LatentDistribution",
    "LfmSpec",
    "sample_latent",
    "sample_lfm",
    "parse_distribution",
]


@dataclass(frozen=True)
class Gaussian:
    scale: float = 1.0

    def __post_init__(self):
        if not self.scale > 0:
            raise ValueError(f"scale must be positive, got {self.scale}")

    def sample(self, rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
        return rng.normal(0.0, self.scale, size=(rows, cols))


@dataclass(frozen=True)
class Laplace:
    scale: float = 1.0

    def __post_init__(self):
        if not self.scale > 0:
            raise ValueError(f"scale must be positive, got {self.scale}")

    def sample(self, rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
        return rng.laplace(0.0, self.scale, size=(rows, cols))


@dataclass(frozen=True)
class StudentT:
    # dof >= 3 keeps the variance finite so downstream standardization behaves
    dof: float = 4.0

    def __post_init__(self):
        if not self.dof >= 3:
            raise ValueError(f"degrees of freedom must be >= 3, got {self.dof}")

    def sample(self, rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
        return rng.standard_t(self.dof, size=(rows, cols))


@dataclass(frozen=True)
class SpikeAndSlab:
    """Mixture of an exact zero and a centered Gaussian slab."""

    spike_prob: float = 0.5
    slab_scale: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.spike_prob <= 1.0:
            raise ValueError(f"spike_prob must be in [0, 1], got {self.spike_prob}")
        if not self.slab_scale >= 0:
            raise ValueError(f"slab_scale must be >= 0, got {self.slab_scale}")

    def sample(self, rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
        slab = rng.normal(0.0, self.slab_scale, size=(rows, cols))
        spikes = rng.random((rows, cols)) < self.spike_prob
        return np.where(spikes, 0.0, slab)


@dataclass(frozen=True)
class Dirichlet:
    """Rows on the simplex. A scalar concentration is broadcast to the width."""

    concentration: Union[float, tuple] = 1.0

    def __post_init__(self):
        conc = self.concentration
        if np.isscalar(conc):
            if not conc > 0:
                raise ValueError(f"concentration must be positive, got {conc}")
        else:
            conc = tuple(float(c) for c in conc)
            if len(conc) == 0 or any(c <= 0 for c in conc):
                raise ValueError("concentration vector entries must be positive")
            object.__setattr__(self, "concentration", conc)

    def alpha(self, cols: int) -> np.ndarray:
        if np.isscalar(self.concentration):
            return np.full(cols, float(self.concentration))
        alpha = np.asarray(self.concentration, dtype=float)
        if alpha.size != cols:
            raise ValueError(
                f"concentration vector has length {alpha.size}, need {cols}"
            )
        return alpha

    def sample(self, rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
        return rng.dirichlet(self.alpha(cols), size=rows)


LatentDistribution = Union[Gaussian, Laplace, StudentT, SpikeAndSlab, Dirichlet]


@dataclass(frozen=True)
class LfmSpec:
    """Shape, rank, latent distributions, and noise level of one dataset."""

    m: int
    n: int
    k: int
    row_dist: LatentDistribution = Gaussian()
    col_dist: LatentDistribution = Gaussian()
    noise_scale: float = 0.0

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError(f"matrix must be at least 1x1, got {self.m}x{self.n}")
        if not 1 <= self.k <= min(self.m, self.n):
            raise ValueError(
                f"rank must satisfy 1 <= k <= min(m, n), got k={self.k}"
            )
        if not (np.isfinite(self.noise_scale) and self.noise_scale >= 0):
            raise ValueError(
                f"noise_scale must be finite and >= 0, got {self.noise_scale}"
            )


def sample_latent(
    dist: LatentDistribution, rows: int, cols: int, seed: SeedSpec
) -> np.ndarray:
    """Draw a (rows x cols) latent factor matrix with i.i.d. rows."""
    if rows < 1 or cols < 1:
        raise ValueError(f"latent block must be at least 1x1, got {rows}x{cols}")
    return dist.sample(rows, cols, seed.rng())


def sample_lfm(spec: LfmSpec, seed: SeedSpec) -> DataMatrix:
    """Sample one dataset: row factors times column factors, plus noise.

    The row-factor, column-factor, and noise streams are derived
    independently from the seed, so they never interleave.
    """
    u = sample_latent(spec.row_dist, spec.m, spec.k, seed.child("row-factors"))
    v = sample_latent(spec.col_dist, spec.n, spec.k, seed.child("col-factors"))
    y = u @ v.T
    if spec.noise_scale > 0:
        noise = seed.child("noise").rng().standard_normal((spec.m, spec.n))
        y = y + spec.noise_scale * noise
    return DataMatrix(y)


_DIST_NAMES = {
    "gaussian": Gaussian,
    "laplace": Laplace,
    "student-t": StudentT,
    "spike-slab": SpikeAndSlab,
    "dirichlet": Dirichlet,
}


def parse_distribution(text: str) -> LatentDistribution:
    """Parse CLI syntax like ``gaussian``, ``student-t:5`` or ``spike-slab:0.3:2``."""
    parts = text.strip().lower().split(":")
    name, args = parts[0], [float(p) for p in parts[1:]]
    if name not in _DIST_NAMES:
        known = ", ".join(sorted(_DIST_NAMES))
        raise ValueError(f"unknown distribution {name!r} (choose from: {known})")
    try:
        return _DIST_NAMES[name](*args)
    except TypeError as exc:
        raise ValueError(f"bad parameters for {name!r}: {args}") from exc
