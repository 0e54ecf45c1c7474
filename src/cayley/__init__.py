"""Exact-arithmetic toolkit for Cayley hypersurfaces.

Generation of the defining polynomials and their one-parameter deformation,
affine symmetry algebras by exact rational linear algebra, and the geometric
invariants (trace conditions, Pick invariant, signature, Hessian
determinant, ruling) of the resulting graphs.

A submodule, a public name and ``__all__`` (the sorted union of the public
modules' lists) load on first access, so a command loads only what it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

_PUBLIC = ("poly", "generate", "geometry", "symmetry")  # each declares its public names in its __all__


def __getattr__(name: str):
    if name in _PUBLIC or name in ("cli", "linalg"):
        return import_module(f"{__name__}.{name}")
    modules = map(import_module, [f"{__name__}.{key}" for key in _PUBLIC])  # each loaded when reached
    if name == "__all__":
        return sorted(public for module in modules for public in module.__all__)
    for module in modules:
        if name in module.__all__:
            return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
