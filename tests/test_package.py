import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import policyvo


def test_every_exported_name_resolves():
    missing = [name for name in policyvo.__all__ if not hasattr(policyvo, name)]
    assert missing == []


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
