import importlib
import subprocess
import sys
from pathlib import Path

import pytest


@pytest.mark.parametrize("module", ["cayley", "cayley.symmetry"])
def test_every_export_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing


def test_star_import():
    namespace = {}
    exec("from cayley import *", namespace)
    assert set(importlib.import_module("cayley").__all__) <= namespace.keys()


def test_cli_import_loads_the_package_without_dataclasses():
    # -S leaves out the site's .pth files, so only the package's own imports count.
    src = Path(importlib.import_module("cayley").__file__).resolve().parents[1]
    code = "import sys; sys.path.insert(0, sys.argv[1]); import cayley.cli; print(*sys.modules)"
    out = subprocess.run([sys.executable, "-S", "-c", code, str(src)],
                         capture_output=True, text=True, check=True).stdout
    loaded = set(out.split())
    assert not {"dataclasses", "inspect", "ast", "dis", "tokenize"} & loaded
    # bench/tracer.py rebinds functions in every package module, so all must load.
    package = {f"cayley.{name}" for name in ("cli", "generate", "geometry", "linalg", "poly", "symmetry")}
    assert package <= loaded
