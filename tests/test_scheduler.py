import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imputebench.scheduler import (
    ProportionState,
    softmax_proportions,
    step,
    uniform_state,
)

finite_losses = st.lists(
    st.floats(-50, 50, allow_nan=False, allow_infinity=False), min_size=2, max_size=8
)


def test_equal_losses_give_uniform_proportions():
    out = softmax_proportions([3.0, 3.0, 3.0, 3.0])
    assert np.allclose(out, 0.25, atol=1e-15)


def test_closed_form_log_two_case():
    out = softmax_proportions([0.0, math.log(2.0)], temperature=1.0)
    assert out[0] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert out[1] == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_matches_independent_direct_formula():
    rng = np.random.default_rng(4)
    losses = rng.normal(scale=3.0, size=5)
    tau = 0.7
    out = softmax_proportions(losses, tau)
    # independent evaluation: different order, fsum accumulation
    terms = [math.exp(l / tau) for l in reversed(losses.tolist())]
    total = math.fsum(terms)
    expected = [t / total for t in reversed(terms)]
    assert np.allclose(out, expected, atol=1e-12)


def test_softmax_input_validation():
    with pytest.raises(ValueError):
        softmax_proportions([])
    for temperature in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            softmax_proportions([1.0], temperature=temperature)
        with pytest.raises(ValueError):
            uniform_state(["p", "q"], temperature=temperature)
    with pytest.raises(ValueError):
        softmax_proportions([np.inf, 1.0])


@settings(max_examples=100, deadline=None)
@given(finite_losses)
def test_output_is_on_the_simplex(losses):
    out = softmax_proportions(losses)
    assert abs(out.sum() - 1.0) <= 1e-12
    assert np.all(out >= 0)


@settings(max_examples=100, deadline=None)
@given(finite_losses, st.floats(-20, 20, allow_nan=False))
def test_shift_invariance(losses, shift):
    base = softmax_proportions(losses)
    shifted = softmax_proportions([l + shift for l in losses])
    assert np.allclose(base, shifted, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(finite_losses)
def test_higher_loss_gets_higher_proportion(losses):
    out = softmax_proportions(losses)
    for i in range(len(losses)):
        for j in range(len(losses)):
            if losses[i] > losses[j] + 1e-9:  # float-resolvable gaps only
                assert out[i] > out[j]
            elif losses[i] > losses[j]:
                assert out[i] >= out[j]


def test_state_validation():
    with pytest.raises(ValueError):
        ProportionState(patterns=("a", "b"), proportions=np.array([0.9, 0.2]))
    with pytest.raises(ValueError):
        ProportionState(patterns=(), proportions=np.array([]))
    with pytest.raises(ValueError):
        uniform_state(["a"], period=0)


def test_period_one_refreshes_every_step():
    state = uniform_state(["a", "b"], period=1)
    probed = []

    def probe(tag):
        probed.append(tag)
        return {"a": 1.0, "b": 0.0}[tag]

    state = step(state, probe)
    assert probed == ["a", "b"]
    assert state.proportions[0] > state.proportions[1]


def test_default_period_is_fifty():
    assert uniform_state(["a", "b"]).period == 50


def test_proportions_constant_between_refreshes():
    state = uniform_state(["a", "b", "c"], period=5)
    calls = []

    def probe(tag):
        calls.append(tag)
        return 1.0 if tag == "a" else 0.0

    for i in range(4):
        state = step(state, probe)
        assert np.allclose(state.proportions, 1.0 / 3.0)
        assert calls == []
    state = step(state, probe)
    assert state.step_count == 5
    assert calls == ["a", "b", "c"]
    assert state.proportions[0] > state.proportions[1]


def test_dominant_loss_saturates_with_cold_temperature():
    state = uniform_state(["p", "q", "r"], period=1, temperature=0.1)
    state = step(state, lambda tag: 10.0 if tag == "p" else 0.0)
    assert state.proportions[0] > 0.99


def test_probe_failure_propagates():
    state = uniform_state(["a"], period=1)

    def probe(tag):
        raise RuntimeError("loss probe failed")

    with pytest.raises(RuntimeError):
        step(state, probe)


def test_counter_increments_monotonically():
    state = uniform_state(["a", "b"], period=3)
    for expected in range(1, 8):
        state = step(state, lambda tag: 0.0)
        assert state.step_count == expected
