import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

# The modules that declare the package's public names, each in its own __all__.
PUBLIC_MODULES = ["cayley.generate", "cayley.geometry", "cayley.poly", "cayley.symmetry"]

EXPORTS = [
    "AffineVectorField", "PolyMatrix", "Polynomial", "SymmetricTensor", "SymmetryAlgebra",
    "cayley_fields", "cayley_poly", "commutator", "determinant", "divide_exact", "euler_field",
    "family_poly", "family_prefactor", "format_latex", "format_plain", "graph_of",
    "hessian_determinant", "indicator_tensor", "is_joint_flow", "isotropy_at_origin", "metric_inverse",
    "orbit_map_terms", "orbit_point", "parameters_for_point", "partitions", "pick_invariant",
    "poly_from_json_dict", "poly_to_json_dict", "ruling_check", "signature", "span_contains",
    "symmetry_algebra", "taylor_tensor", "taylor_tensors", "trace", "variables", "variant_surface_4",
    "weighted_degree_check",
]


def test_package_exports_are_pinned():
    assert importlib.import_module("cayley").__all__ == EXPORTS


def test_each_name_is_declared_once_by_the_module_that_defines_it():
    declared = [(name, module) for module in PUBLIC_MODULES for name in importlib.import_module(module).__all__]
    assert sorted(name for name, _ in declared) == EXPORTS  # so no name is in two lists
    misplaced = [(name, module) for name, module in declared
                 if getattr(importlib.import_module(module), name).__module__ != module]
    assert not misplaced


def test_package_init_names_no_export():
    source = Path(importlib.import_module("cayley").__file__).read_text()
    code = source.split('"""', 2)[2]  # after the docstring
    assert not set(re.findall(r"\w+", code)) & set(EXPORTS)


@pytest.mark.parametrize("module", ["cayley", *PUBLIC_MODULES])
def test_every_export_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing


def test_star_import():
    namespace = {}
    exec("from cayley import *", namespace)
    assert namespace.keys() - {"__builtins__"} == set(EXPORTS)


def test_cli_import_loads_the_package_without_dataclasses():
    # -S leaves out the site's .pth files, so only the package's own imports count.
    src = Path(importlib.import_module("cayley").__file__).resolve().parents[1]
    code = "import sys; sys.path.insert(0, sys.argv[1]); import cayley.cli; print(*sys.modules)"
    out = subprocess.run([sys.executable, "-S", "-c", code, str(src)],
                         capture_output=True, text=True, check=True).stdout
    loaded = set(out.split())
    # Annotations are strings and the aliases come from collections.abc, so typing stays out too.
    assert not {"dataclasses", "inspect", "ast", "dis", "tokenize", "typing"} & loaded
    # bench/tracer.py rebinds functions in every package module, so all must load.
    package = {f"cayley.{name}" for name in ("cli", "generate", "geometry", "linalg", "poly", "symmetry")}
    assert package <= loaded
