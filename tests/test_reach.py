"""Every function of the package is reached by a command-line route.

The routes below run each subcommand, and each way of naming a surface, in
this process under sys.setprofile, which records the code object of every
Python call.  A function defined in src/cayley/*.py whose code never runs
on them is code that no command reaches; it fails the test unless ALLOWED
names it, with the reason it is kept.
"""

import inspect
import sys
from pathlib import Path

import cayley
from cayley import cli

PACKAGE = Path(cayley.__file__).resolve().parent

ROUTES = [
    ["verify", "--n", "3..8", "--checks", "all"],
    ["verify", "--n", "4", "--variant"],
    ["symmetries", "--n", "5"],
    ["symmetries", "--n", "7", "--b", "-7/3"],
    ["symmetries", "--variant"],
    ["invariants", "--n", "6"],
    ["invariants", "--variant"],
    ["generate", "--n", "5"],
    ["generate", "--n", "5", "--format", "latex"],
    ["generate", "--n", "5", "--format", "json"],  # last: its stdout is the --file input
]

VALUE_DUNDER = "value semantics of the immutable classes (equality, hashing, copies, printing)"
ALLOWED = {
    "poly._Frozen.__setattr__": VALUE_DUNDER,
    "poly._Frozen.__setstate__": VALUE_DUNDER,
    "poly._Frozen.__hash__": VALUE_DUNDER,
    "poly._Frozen.__repr__": VALUE_DUNDER,
    "poly.Polynomial.__hash__": VALUE_DUNDER,
    "poly.Polynomial.__str__": VALUE_DUNDER,
    "poly.Polynomial.__repr__": VALUE_DUNDER,
    "poly.divide_exact": "public; determinant calls it on a non-constant pivot, which no route's Hessian has",
    "poly.mono_div": "divide_exact's monomial quotient",
    "poly._leading_term": "divide_exact's leading term",
    "poly.Polynomial.evaluate": "public; bound by bench/tracer.py; no command evaluates away from the origin, "
                                "and the origin test reads the constant term",
    "linalg.mat_mul": "bound by name by the benchmark tracer, bench/tracer.py",
    "linalg.vec_mat": "bound by name by the benchmark tracer, bench/tracer.py",
    "geometry.SymmetricTensor.get": "public accessor of one tensor component; the checks read whole tensors",
    "geometry.taylor_tensor": "public; bound by bench/tracer.py; the commands read every degree from one "
                               "taylor_tensors pass",
    # The orbit check proves the orbit map as polynomials and evaluates it nowhere.
    "symmetry.orbit_point": "public numeric orbit map; bound by bench/tracer.py; tests check it against the proved map",
    "symmetry.parameters_for_point": "public inverse of orbit_point; bound by bench/tracer.py; tests check the round trip",
    "symmetry._freeze_vector": "orbit_point's and parameters_for_point's length check",
}


def defined_functions() -> dict:
    """(file, first line, name) -> qualified name, for every def in the package's modules."""
    found = {}

    def walk(code, prefix, path):
        for const in code.co_consts:
            if inspect.iscode(const):
                name = prefix + const.co_name
                # A function body is optimized; a class body is not.  Lambdas and
                # comprehensions (<lambda>, <genexpr>, ...) belong to their function.
                if const.co_flags & inspect.CO_OPTIMIZED and not const.co_name.startswith("<"):
                    found[path, const.co_firstlineno, const.co_name] = name
                walk(const, name + ".", path)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(compile(path.read_text(), str(path), "exec"), path.stem + ".", str(path))
    return found


def test_every_function_is_reached_by_a_command(capsys, tmp_path):
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for argv in ROUTES:
            assert cli.main(argv) == 0, argv
            out = capsys.readouterr().out
        source = tmp_path / "phi5.json"
        source.write_text(out)
        assert cli.main(["symmetries", "--file", str(source)]) == 0
    finally:
        sys.setprofile(previous)

    reached = {(str(Path(code.co_filename).resolve()), code.co_firstlineno, code.co_name) for code in called}
    functions = defined_functions()
    assert set(ALLOWED) <= set(functions.values()), "ALLOWED names a function that is not defined"
    unreached = sorted(name for key, name in functions.items() if key not in reached and name not in ALLOWED)
    assert not unreached
