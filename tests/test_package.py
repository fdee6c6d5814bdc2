"""Tests of the package surface: import cost, exports and README."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import moonbeam
from moonbeam.scenario import CONFIG_KEYS

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = Path(moonbeam.__file__).parent


def test_import_leaves_scipy_integrate_unloaded():
    # scipy.integrate is most of the import time and only the quadrature
    # cross-check uses it, so it must load on first use, not at import.
    # The cheap scipy package root stays loaded: environment records
    # read its version from sys.modules after importing moonbeam.
    # scipy.optimize costs as much again, and calibration solves by hand.
    env = dict(os.environ, PYTHONPATH=str(Path(moonbeam.__file__).parents[1]))
    modules = ("scipy", "scipy.integrate", "scipy.optimize")
    code = f"import sys, moonbeam; print(*(m in sys.modules for m in {modules!r}))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.split() == ["True", "False", "False"]


def test_import_leaves_the_process_pool_unloaded():
    # A sweep imports its process pool where one starts (workers > 1):
    # concurrent.futures.process loads multiprocessing, which serial runs
    # and every other command never use.
    env = dict(os.environ, PYTHONPATH=str(Path(moonbeam.__file__).parents[1]))
    modules = ("concurrent.futures.process", "multiprocessing")
    code = f"import sys, moonbeam.cli; print(*(m in sys.modules for m in {modules!r}))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.split() == ["False", "False"]


def test_readme_python_example_runs(capsys):
    text = README.read_text()
    api = text[text.index("## Python API"):]
    block = re.search(r"```python\n(.*?)```", api, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    power, efficiency, shift = (float(v) for v in capsys.readouterr().out.split())
    assert 0.0 < power < 1000.0
    assert efficiency == power / 1000.0
    assert shift > 0.0


def _readme_section(title):
    text = README.read_text()
    start = text.index(f"## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:end if end >= 0 else None]


def test_readme_key_table_matches_code_table():
    rows = re.findall(r"^\| `([^`]+)` \| `([^`]+)` \|", _readme_section("Configuration keys"), re.M)
    assert [name for name, _ in rows] == [key.name for key in CONFIG_KEYS]
    for (name, default), key in zip(rows, CONFIG_KEYS):
        value = json.loads(default)
        assert value == key.default and type(value) is type(key.default), name


def test_readme_python_api_names_every_export():
    prose = re.sub(r"```.*?```", "", _readme_section("Python API"), flags=re.S)
    spans = re.findall(r"`([^`]+)`", prose)
    named = set(re.findall(r"\w+", " ".join(spans)))
    # field_at_points is exported for the benchmark's recorder test only.
    assert set(moonbeam.__all__) - named == {"field_at_points"}


def test_every_public_name_has_a_caller():
    # A public function or class exists because the program, the CLI or
    # an acceptance criterion uses it, so each one is referenced from
    # the package or from tests/test_acceptance.py.
    trees = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    acceptance = Path(__file__).with_name("test_acceptance.py")
    referenced = set()
    for tree in [*trees.values(), ast.parse(acceptance.read_text())]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    defined = {
        f"{path.stem}.{node.name}"
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    assert {name for name in defined if name.split(".")[1] not in referenced} == set()
