"""Every name a gossipsim module lists in ``__all__`` exists, and README's
example runs on the names the package exports."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import gossipsim

MODULES = [info.name for info in pkgutil.iter_modules(gossipsim.__path__)]
README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"gossipsim.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing


def test_readme_example_runs_as_written():
    (example,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(example, str(README), "exec"), {})
