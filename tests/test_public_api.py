import importlib
import pathlib
import re

import pytest

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
