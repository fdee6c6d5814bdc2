"""Tests of the package surface: import cost and the README example."""

import os
import re
import subprocess
import sys
from pathlib import Path

import moonbeam

README = Path(__file__).resolve().parents[1] / "README.md"


def test_import_leaves_scipy_integrate_unloaded():
    # scipy.integrate is most of the import time and only the quadrature
    # cross-check uses it, so it must load on first use, not at import.
    # The cheap scipy package root stays loaded: environment records
    # read its version from sys.modules after importing moonbeam.
    env = dict(os.environ, PYTHONPATH=str(Path(moonbeam.__file__).parents[1]))
    code = "import sys, moonbeam; print(*(m in sys.modules for m in ('scipy', 'scipy.integrate')))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.split() == ["True", "False"]


def test_readme_python_example_runs(capsys):
    text = README.read_text()
    api = text[text.index("## Python API"):]
    block = re.search(r"```python\n(.*?)```", api, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    power, efficiency, shift = (float(v) for v in capsys.readouterr().out.split())
    assert 0.0 < power < 1000.0
    assert efficiency == power / 1000.0
    assert shift > 0.0
