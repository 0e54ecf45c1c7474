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


def fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run code in a new interpreter with the package's source first on sys.path.

    -S leaves out the site's .pth files, so only the package's own imports count,
    and no module of the package is loaded before the code runs.
    """
    src = Path(importlib.import_module("cayley").__file__).resolve().parents[1]
    return subprocess.run([sys.executable, "-S", "-c", "import sys\nsys.path.insert(0, sys.argv[1])\n" + code,
                           str(src), *args], capture_output=True, text=True, check=True)


@pytest.mark.parametrize("code, expected", [
    ("names = {}\nexec('from cayley import *', names)\nprint(*sorted(names.keys() - {'__builtins__'}))",
     " ".join(EXPORTS)),
    ("import cayley\nprint(*cayley.__all__)", " ".join(EXPORTS)),
    ("import cayley\nprint(cayley.cayley_poly is cayley.generate.cayley_poly)", "True"),
    ("import cayley\ntry:\n    cayley.no_such_name\nexcept AttributeError as exc:\n    print(exc)",
     "module 'cayley' has no attribute 'no_such_name'"),
])
def test_lazy_namespace_in_a_fresh_interpreter(code, expected):
    assert fresh(code).stdout.strip() == expected


PACKAGE = {"cli", "generate", "geometry", "linalg", "poly", "symmetry"}

# The package modules each command loads: it compiles and runs only these.
LOADED_BY_COMMAND = {
    "generate --n 3": {"cli", "generate", "poly"},
    "symmetries --n 4": PACKAGE - {"geometry"},
    "invariants --n 4": PACKAGE - {"symmetry"},
    "verify --n 4 --checks all": PACKAGE,
}


def test_cli_import_loads_the_package_without_dataclasses():
    code = "import cayley.cli\ncayley.cli.main(sys.argv[2:])\nprint(*sys.modules, file=sys.stderr)"
    for command, expected in LOADED_BY_COMMAND.items():
        loaded = set(fresh(code, *command.split()).stderr.split())
        # Annotations are strings and the aliases come from collections.abc, so typing stays out too.
        assert not {"dataclasses", "inspect", "ast", "dis", "tokenize", "typing"} & loaded, command
        assert {name.removeprefix("cayley.") for name in loaded if name.startswith("cayley.")} == expected, command
