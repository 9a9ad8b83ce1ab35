import ast
import importlib
import inspect
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import policyvo
from policyvo import evaluation, robustness, se3, tables, trajectory, world


def test_every_exported_name_resolves():
    missing = [name for name in policyvo.__all__ if not hasattr(policyvo, name)]
    assert missing == []


def test_every_declared_script_resolves():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def undocumented(module) -> list[str]:
    """Public functions, classes, methods and properties defined in ``module`` with no
    docstring of their own; a dataclass's generated ``Name(field: ...)`` text is none."""
    missing = []
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) and not obj.__doc__:
            missing.append(name)
        if not inspect.isclass(obj):
            continue
        if not obj.__doc__ or obj.__doc__.startswith(f"{name}("):
            missing.append(name)
        for attr, member in vars(obj).items():
            func = member.fget if isinstance(member, property) else getattr(member, "__func__",
                                                                             member)
            if not attr.startswith("_") and inspect.isfunction(func) and not func.__doc__:
                missing.append(f"{name}.{attr}")
    return missing


@pytest.mark.parametrize("module", [se3, trajectory, world, evaluation, robustness, tables],
                         ids=lambda module: module.__name__)
def test_every_public_name_has_a_docstring(module):
    assert undocumented(module) == []


def test_every_private_helper_has_a_caller():
    """A module-level private function or class of ``src/policyvo`` that no code there
    names outside its own definition is dead; every one must have a caller."""
    defined, named = [], set()
    for path in sorted(Path(policyvo.__file__).resolve().parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            own = None
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
                    and not node.name.startswith("__")):
                own = node.name
                defined.append((path.stem, own))
            for sub in ast.walk(node):
                name = (sub.id if isinstance(sub, ast.Name) else
                        sub.attr if isinstance(sub, ast.Attribute) else
                        sub.name if isinstance(sub, ast.alias) else None)
                if name != own:
                    named.add(name)
    assert len(defined) > 20
    assert [f"{module}.{name}" for module, name in defined if name not in named] == []


def test_failing_property_prints_its_falsifying_example(tmp_path):
    # Under the project's pytest settings, which turn warnings into errors,
    # a failing hypothesis test must report its example, not crash pytest.
    shutil.copy(Path(__file__).resolve().parents[1] / "pyproject.toml", tmp_path)
    (tmp_path / "test_fails.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 5
    """))
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "test_fails.py"], cwd=tmp_path, capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 1, run.stdout + run.stderr     # 1: tests failed; 3: crashed
    assert "Falsifying example: test_fails(" in run.stdout
    assert "x=5," in run.stdout
