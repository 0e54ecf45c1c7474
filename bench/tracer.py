"""Run the cayley CLI in this process with a span around each traced function.

    python3 bench/tracer.py SPANS_JSON CASE_ID CLI_ARG...

The package's public functions listed in ``TRACED`` are replaced, at every
module attribute of the package that binds them, by wrappers that record a
span (name, start, end, parent, case id, sizes).  Spans stay in memory and
are written to SPANS_JSON when the CLI returns, whatever its exit status.
Stdout is the CLI's own and must stay byte-identical to an untraced run.

``Polynomial.__mul__``, ``__add__`` and ``diff`` are left alone: they run
millions of times and would swamp the trace.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# Layer (package module) -> traced functions, by qualified name.
TRACED = {
    "cli": ("main",),
    "generate": ("cayley_poly", "family_poly"),
    "poly": ("determinant", "divide_exact", "Polynomial.evaluate", "poly_from_json_dict"),
    "symmetry": (
        "cayley_fields", "AffineVectorField.apply", "commutator", "orbit_point",
        "parameters_for_point", "symmetry_algebra", "isotropy_at_origin", "span_contains",
    ),
    "linalg": ("nullspace", "rank", "mat_mul", "vec_mat", "invert", "inertia"),
    "geometry": (
        "indicator_tensor", "taylor_tensor", "trace", "metric_inverse", "pick_invariant",
        "signature", "hessian_determinant", "ruling_check", "graph_of",
    ),
}


def _nullspace_sizes(args, kwargs, result):
    rows = args[0]
    cols = kwargs.get("ncols", args[1] if len(args) > 1 else None)
    if cols is None:
        cols = len(rows[0])
    return len(rows), cols, len(rows) * cols, len(result)


# Problem sizes recorded on a span: their names, and a function of the
# call's arguments and result that gives their values.
SIZES = {
    "generate.cayley_poly": (("terms",), lambda args, kwargs, result: (len(result.terms),)),
    "poly.determinant": (("size",), lambda args, kwargs, result: (args[0].rows,)),
    "linalg.nullspace": (("rows", "cols", "cells", "nullity"), _nullspace_sizes),
    "linalg.mat_mul": (("mults",), lambda args, kwargs, result: (len(args[0]) * len(args[1]) * len(args[1][0]),)),
    "linalg.vec_mat": (("mults",), lambda args, kwargs, result: (len(args[0]) * len(args[1][0]),)),
    "geometry.indicator_tensor": (("entries",), lambda args, kwargs, result: (len(result.entries),)),
}



def size_keys(name: str) -> tuple[str, ...]:
    return SIZES[name][0] if name in SIZES else ()


SPAN_NAMES = tuple(f"{layer}.{qualname}" for layer, names in TRACED.items() for qualname in names)


class Tracer:
    """Installs the wrappers on entry and restores every original binding on exit.

    ``spans`` holds one list per call: [name, start, end, parent index or
    None, case id, size values or None], in call order.
    """

    def __init__(self, case_id: str):
        self.case_id = case_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        sizes = SIZES[name][1] if name in SIZES else None
        spans, stack, case_id = self.spans, self._stack, self.case_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, case_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if sizes is not None:
                span[5] = list(sizes(args, kwargs, result))
            return result

        return traced

    def _rebind(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        for layer in TRACED:
            importlib.import_module(f"cayley.{layer}")
        package = [m for key, m in sorted(sys.modules.items()) if key == "cayley" or key.startswith("cayley.")]
        try:
            for layer, qualnames in TRACED.items():
                module = sys.modules[f"cayley.{layer}"]
                for qualname in qualnames:
                    owner_name, _, attr = qualname.rpartition(".")
                    wrapper_name = f"{layer}.{qualname}"
                    if owner_name:
                        owner = getattr(module, owner_name)
                        original = vars(owner)[attr]
                        self._rebind(owner, attr, self._wrap(wrapper_name, original))
                        continue
                    original = getattr(module, attr)
                    wrapper = self._wrap(wrapper_name, original)
                    for mod in package:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._rebind(mod, key, wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def restore(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __exit__(self, *exc_info) -> None:
        self.restore()


def main(argv: list[str]) -> int:
    spans_path, case_id, *cli_args = argv
    import cayley.cli

    tracer = Tracer(case_id)
    code = 0
    try:
        with tracer:
            code = cayley.cli.main(cli_args)
    except SystemExit as exc:
        code = exc.code
    finally:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.spans, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
