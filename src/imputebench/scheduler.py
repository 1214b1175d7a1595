"""Adaptive pattern-proportion scheduler.

Every ``period`` steps the per-pattern losses are probed and pushed through
a softmax, so patterns with higher loss get a larger share of the mix;
between refreshes the proportions stay put.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

__all__ = ["ProportionState", "softmax_proportions", "step", "uniform_state"]

SIMPLEX_TOL = 1e-12


def _check_temperature(temperature: float) -> None:
    """Refuse a softmax temperature that is not > 0, NaN included."""
    if not temperature > 0:
        raise ValueError(f"temperature must be positive, got {temperature}")


def softmax_proportions(losses: Sequence[float], temperature: float = 1.0) -> np.ndarray:
    """Simplex weights exp(loss/t) / sum(exp(loss/t)), computed stably.

    Losses enter un-negated: a higher loss yields a higher proportion.
    """
    _check_temperature(temperature)
    arr = np.asarray(losses, dtype=float)
    if arr.size == 0:
        raise ValueError("losses must not be empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError("losses must be finite")
    scaled = arr / temperature
    scaled = scaled - scaled.max()
    e = np.exp(scaled)
    return e / e.sum()


@dataclass(frozen=True)
class ProportionState:
    """Current pattern mix, refresh cadence, and softmax temperature."""

    patterns: tuple[str, ...]
    proportions: np.ndarray
    step_count: int = 0
    period: int = 50
    temperature: float = 1.0

    def __post_init__(self):
        if len(self.patterns) == 0:
            raise ValueError("need at least one pattern")
        if self.period < 1:
            raise ValueError(f"period must be >= 1, got {self.period}")
        _check_temperature(self.temperature)
        props = np.array(self.proportions, dtype=float, copy=True)
        if props.shape != (len(self.patterns),):
            raise ValueError("proportions must align with patterns")
        if props.min() < 0 or abs(props.sum() - 1.0) > SIMPLEX_TOL:
            raise ValueError("proportions must lie on the simplex")
        props.setflags(write=False)
        object.__setattr__(self, "proportions", props)

    def as_mapping(self) -> dict[str, float]:
        return {p: float(v) for p, v in zip(self.patterns, self.proportions)}


def uniform_state(
    patterns: Sequence[str], period: int = 50, temperature: float = 1.0
) -> ProportionState:
    tags = tuple(patterns)
    return ProportionState(
        patterns=tags,
        proportions=np.full(len(tags), 1.0 / len(tags)),
        period=period,
        temperature=temperature,
    )


def step(state: ProportionState, loss_probe: Callable[[str], float]) -> ProportionState:
    """Advance one step; on every period-th step, re-probe and re-softmax."""
    count = state.step_count + 1
    if count % state.period != 0:
        return replace(state, step_count=count)
    losses = [float(loss_probe(tag)) for tag in state.patterns]
    return replace(
        state,
        step_count=count,
        proportions=softmax_proportions(losses, state.temperature),
    )
