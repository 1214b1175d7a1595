import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imputebench.core import (
    DataMatrix,
    DegenerateMaskError,
    Mask,
    MaskedDataset,
    PropensityMatrix,
    SeedSpec,
    ShapeMismatchError,
    apply_mask,
    bernoulli_mask,
    missing_fraction,
    sample_bernoulli_mask,
)


def test_datamatrix_rejects_nonfinite_and_bad_shapes():
    with pytest.raises(ValueError):
        DataMatrix(np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError):
        DataMatrix(np.array([[np.inf]]))
    with pytest.raises(ValueError):
        DataMatrix(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        DataMatrix(np.empty((0, 3)))


def test_arrays_are_frozen():
    dm = DataMatrix([[1.0, 2.0]])
    with pytest.raises(ValueError):
        dm.values[0, 0] = 9.0
    mask = Mask([[1, 0]])
    with pytest.raises(ValueError):
        mask.indicator[0, 0] = 0


def test_mask_validation_and_index_sets():
    mask = Mask([[1, 0], [0, 1]])
    assert mask.n_observed == 2 and mask.n_missing == 2
    assert [tuple(rc) for rc in mask.omega()] == [(0, 1), (1, 0)]
    assert [tuple(rc) for rc in mask.omega_obs()] == [(0, 0), (1, 1)]
    with pytest.raises(ValueError):
        Mask([[1, 2]])


@pytest.mark.parametrize("bad", [2, -1, 0.5, np.nan])
def test_mask_rejects_entries_other_than_zero_and_one(bad):
    with pytest.raises(ValueError, match="0 or 1"):
        Mask(np.array([[1.0, 0.0], [bad, 1.0]]))


def test_mask_accepts_zero_one_in_any_numeric_or_bool_dtype():
    want = np.array([[1, 0], [0, 1]], dtype=np.uint8)
    for arr in (want.astype(float), want.astype(np.int64), want.astype(bool)):
        mask = Mask(arr)
        assert mask.indicator.dtype == np.uint8
        assert np.array_equal(mask.indicator, want)


def test_propensity_range_enforced():
    PropensityMatrix([[0.0, 1.0]])
    with pytest.raises(ValueError):
        PropensityMatrix([[1.2]])
    with pytest.raises(ValueError):
        PropensityMatrix([[-0.1]])


def test_apply_mask_identity_on_all_ones():
    truth = DataMatrix([[1.0, 2.0], [3.0, 4.0]])
    ds = apply_mask(truth, Mask(np.ones((2, 2))))
    assert np.array_equal(ds.observed, truth.values)
    assert ds.mask.omega().size == 0


def test_apply_mask_places_sentinels():
    truth = DataMatrix([[1.0, 2.0], [3.0, 4.0]])
    ds = apply_mask(truth, Mask([[1, 0], [0, 1]]))
    assert ds.observed[0, 0] == 1.0 and ds.observed[1, 1] == 4.0
    assert np.isnan(ds.observed[0, 1]) and np.isnan(ds.observed[1, 0])
    assert [tuple(rc) for rc in ds.mask.omega()] == [(0, 1), (1, 0)]


def test_apply_mask_random_instance_against_loop():
    rng = np.random.default_rng(5)
    truth = DataMatrix(rng.normal(size=(5, 4)))
    flat = np.ones(20, dtype=np.uint8)
    flat[rng.choice(20, size=7, replace=False)] = 0
    mask = Mask(flat.reshape(5, 4))
    ds = apply_mask(truth, mask)
    n_missing = 0
    for i in range(5):
        for j in range(4):
            if mask.indicator[i, j]:
                assert ds.observed[i, j] == truth.values[i, j]
            else:
                assert np.isnan(ds.observed[i, j])
                n_missing += 1
    assert n_missing == 7 == ds.mask.n_missing


def test_apply_mask_errors():
    truth = DataMatrix([[1.0, 2.0]])
    with pytest.raises(ShapeMismatchError):
        apply_mask(truth, Mask([[1], [0]]))
    with pytest.raises(DegenerateMaskError):
        apply_mask(truth, Mask([[0, 0]]))


def test_masked_dataset_cross_checks():
    truth = DataMatrix([[1.0, 2.0]])
    mask = Mask([[1, 0]])
    # each broken invariant is named, and the first one broken wins
    for observed, message in (
        ([[np.nan, np.nan]], "observed cells must not be NaN"),
        ([[np.nan, 2.0]], "observed cells must not be NaN"),
        ([[1.0, 2.0]], "missing cells must be NaN"),
        ([[9.0, 2.0]], "missing cells must be NaN"),
        ([[9.0, np.nan]], "observed cells must equal the truth there"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            MaskedDataset(mask=mask, observed=np.array(observed), truth=truth)
    with pytest.raises(ValueError, match="^observed cells must not be NaN$"):
        MaskedDataset(mask=mask, observed=np.array([[np.nan, 2.0]]))
    ds = MaskedDataset(mask=mask, observed=np.array([[1.0, np.nan]]))
    assert ds.truth is None and ds.observed_values().tolist() == [1.0]


def test_missing_fraction_counting():
    assert missing_fraction(Mask(np.ones((3, 3)))) == 0.0
    assert missing_fraction(Mask(np.zeros((3, 3)))) == 1.0
    ind = np.ones(100, dtype=np.uint8)
    ind[:12] = 0
    assert missing_fraction(Mask(ind.reshape(10, 10))) == pytest.approx(0.12)


def test_bernoulli_mask_degenerate_propensities():
    seed = SeedSpec(3, "bern")
    ones = sample_bernoulli_mask(PropensityMatrix(np.ones((4, 5))), seed)
    zeros = sample_bernoulli_mask(PropensityMatrix(np.zeros((4, 5))), seed)
    assert ones.n_observed == 20
    assert zeros.n_observed == 0


def test_bernoulli_mask_rate_concentrates():
    # binomial bound: at p=0.6 over 30 seeds of 200x50 draws the standard
    # error of the mean observed fraction is ~0.0009, so +-0.02 is ~20 sigma
    p = PropensityMatrix(np.full((200, 50), 0.6))
    fracs = [
        sample_bernoulli_mask(p, SeedSpec(s, "conc")).n_observed / 10_000
        for s in range(30)
    ]
    assert 0.58 <= np.mean(fracs) <= 0.62


def test_missing_fraction_concentrates_at_scale():
    p = PropensityMatrix(np.full((100, 100), 0.7))
    mask = sample_bernoulli_mask(p, SeedSpec(11, "conc-large"))
    assert abs(missing_fraction(mask) - 0.3) <= 0.02


def test_seedspec_streams_are_reproducible_and_distinct():
    a = SeedSpec(9, "x").rng().random(16)
    b = SeedSpec(9, "x").rng().random(16)
    c = SeedSpec(9, "y").rng().random(16)
    d = SeedSpec(10, "x").rng().random(16)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    assert SeedSpec(9, "x").child("sub") == SeedSpec(9, "x/sub")
    with pytest.raises(ValueError):
        SeedSpec(-1)


def test_seedspec_streams_survive_hash_randomization():
    # labels are hashed with SHA-256, so streams must not depend on the
    # interpreter's string-hash seed
    import pathlib
    import subprocess
    import sys

    import imputebench

    # the child sees only the hash seed, the path and where the package
    # lives, so it imports the same copy whether installed or run from src/
    package_root = str(pathlib.Path(imputebench.__file__).resolve().parents[1])
    snippet = (
        "from imputebench.core import SeedSpec;"
        "print(hash('stable/label'));"
        "print(SeedSpec(9, 'stable/label').rng().random(4).tobytes().hex())"
    )
    runs = [
        subprocess.run(
            [sys.executable, "-c", snippet],
            env={
                "PYTHONHASHSEED": seed_env,
                "PATH": "/usr/bin:/bin",
                "PYTHONPATH": package_root,
            },
            capture_output=True, text=True, check=True,
        ).stdout.split()
        for seed_env in ("0", "1", "31337")
    ]
    # the hash seed took effect: each child hashed the label differently
    assert len({str_hash for str_hash, _ in runs}) == 3
    outs = {stream for _, stream in runs}
    assert len(outs) == 1
    expected = SeedSpec(9, "stable/label").rng().random(4).tobytes().hex()
    assert outs == {expected}


def test_bernoulli_mask_bit_identical_given_seed():
    p = PropensityMatrix(np.full((17, 13), 0.5))
    seed = SeedSpec(123, "det")
    m1 = sample_bernoulli_mask(p, seed)
    m2 = sample_bernoulli_mask(p, seed)
    assert m1.indicator.tobytes() == m2.indicator.tobytes()


def test_bernoulli_rule_draws_one_uniform_per_entry_in_row_major_order():
    # the rule the generators and sample_bernoulli_mask share
    p = np.random.default_rng(3).random((6, 7))
    seed = SeedSpec(4, "rule")
    rng = seed.rng()
    got = bernoulli_mask(p, rng)
    u = seed.rng().random(p.size).reshape(p.shape)
    assert got.indicator.tobytes() == (u < p).astype(np.uint8).tobytes()
    sampled = sample_bernoulli_mask(PropensityMatrix(p), seed)
    assert got.indicator.tobytes() == sampled.indicator.tobytes()
    assert rng.random() == seed.rng().random(p.size + 1)[-1]  # one draw per entry


@settings(max_examples=30, deadline=None)
@given(
    m=st.integers(1, 6),
    n=st.integers(1, 6),
    seed=st.integers(0, 2**32),
)
def test_apply_mask_matches_reference_loop(m, n, seed):
    rng = np.random.default_rng(seed)
    truth = DataMatrix(rng.normal(size=(m, n)))
    ind = (rng.random((m, n)) < 0.6).astype(np.uint8)
    ind[rng.integers(m), rng.integers(n)] = 1  # keep one entry observed
    ds = apply_mask(truth, Mask(ind))
    for i in range(m):
        for j in range(n):
            if ind[i, j]:
                assert ds.observed[i, j] == truth.values[i, j]
            else:
                assert np.isnan(ds.observed[i, j])
