import importlib
import pathlib
import re

import pytest

from imputebench import imputers, missingness
from imputebench.core import SeedSpec, apply_mask
from imputebench.datagen import LfmSpec, sample_lfm
from imputebench.missingness import PatternSpec, generate

MODULES = ["bench", "core", "datagen", "ensemble", "featurize", "imputers", "missingness",
           "scheduler"]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"imputebench.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_readme_library_use_runs(capsys):
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope: dict = {}
    exec(compile(block, "README.md", "exec"), scope)
    assert float(capsys.readouterr().out) > 0
    assert scope["report"].cells and not scope["report"].dropped_groups


# ---------------------------------------------------------------------------
# The method and pattern registries
# ---------------------------------------------------------------------------

# Each method's imputer; a pattern's generator is gen_ followed by its tag.
_IMPUTER_NAMES = {
    "col-mean": "impute_col_mean",
    "knn": "impute_knn",
    "soft-impute": "impute_soft",
    "ice": "impute_ice",
    "featurized-ridge": "impute_featurized_ridge",
}
_ENTRIES = [("pattern", tag) for tag in missingness.PATTERN_TAGS] + [
    ("method", tag) for tag in imputers.METHOD_TAGS if tag != "ensemble"]


class _Sentinel(Exception):
    pass


def test_only_the_tags_without_a_parameter_have_no_check():
    unchecked = [tag for table in (missingness._PATTERNS, imputers._METHODS)
                 for tag, (_, check) in table.items() if check is None]
    assert unchecked == ["panel", "col-mean"]
    assert [tag for defaults in (missingness.PATTERN_DEFAULTS, imputers.METHOD_DEFAULTS)
            for tag, params in defaults.items() if not params] == unchecked


@pytest.mark.parametrize("kind, tag", _ENTRIES, ids=[tag for _, tag in _ENTRIES])
def test_a_registry_entry_holds_the_public_function_and_the_check_it_runs(
        monkeypatch, kind, tag):
    if kind == "pattern":
        module, table, defaults = missingness, missingness._PATTERNS, missingness.PATTERN_DEFAULTS
        name = "gen_" + tag.replace("-", "_")
    else:
        module, table, defaults = imputers, imputers._METHODS, imputers.METHOD_DEFAULTS
        name = _IMPUTER_NAMES[tag]
    fn, check = table[tag]
    assert name in module.__all__ and fn is getattr(module, name)
    assert (check is None) == (not defaults[tag])
    if check is None:
        return

    def raising(*args, **kwargs):
        raise _Sentinel

    # the check as the function looks it up: a global of the module that defines it
    monkeypatch.setattr(importlib.import_module(check.__module__), check.__name__, raising)
    truth = sample_lfm(LfmSpec(m=12, n=5, k=2), SeedSpec(1, "registry"))
    with pytest.raises(_Sentinel):
        if kind == "pattern":
            fn(truth, **defaults[tag], seed=SeedSpec(2, tag))
        else:
            mask = generate(PatternSpec("mcar", SeedSpec(2, "mcar")), truth)
            fn(apply_mask(truth, mask), **defaults[tag])
    assert table[tag][1] is check
