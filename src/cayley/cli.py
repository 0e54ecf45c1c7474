"""Command-line interface: generate equations, verify properties, report invariants.

Subcommands
-----------
generate    print one hypersurface equation (plain, LaTeX, or JSON)
verify      run property checks over a range of dimensions, JSON report
symmetries  solve for the affine symmetry algebra of a surface, JSON
invariants  signature / Pick / Hessian / ruling bundle for one surface, JSON

All output is deterministic: identical invocations produce identical bytes.
Exit codes: 0 all checks passed, 1 at least one check failed, 2 usage error,
141 (128 + SIGPIPE) stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys
from fractions import Fraction
from functools import partial

from . import generate as gen
from . import geometry, symmetry
from .poly import (
    Polynomial,
    format_latex,
    format_plain,
    poly_from_json_dict,
    poly_to_json_dict,
    weighted_degree_check,
)

DEFAULT_MAX_N = 20

# Checks meaningful for the variant surface (the commuting shift fields and
# the weight grading are specific to the main family).
VARIANT_CHECKS = ["isotropy", "traces", "pick", "signature", "ruling", "hessian"]

ORBIT_SAMPLES = 100
ORBIT_ROUND_TRIPS = 10


def _rational(text: str) -> Fraction:
    # [sign]digits[/digits], q nonzero.  Fraction alone would also take decimals,
    # underscores and exponents, and Fraction("1e10000000") alone takes seconds.
    if not re.fullmatch(r"[+-]?[0-9]{1,1000}(/(?=0*[1-9])[0-9]{1,1000})?", text):
        raise argparse.ArgumentTypeError(f"not a rational number p/q, at most 1000 digits each: {text!r}")
    return Fraction(text)


def _n_range(text: str) -> range:
    """N or A..B as an ascending range, kept lazy so the guard sees it first."""
    try:
        bounds = [int(part) for part in text.split("..", 1)]
        if bounds[-1] < bounds[0]:
            raise ValueError
        return range(bounds[0], bounds[-1] + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected N or A..B, got {text!r}") from None


def _guard_n(parser: argparse.ArgumentParser, worst: int, force: bool) -> None:
    if worst > DEFAULT_MAX_N and not force:
        parser.error(f"n={worst} exceeds the guard ({DEFAULT_MAX_N}); pass --force")


# -- check implementations ---------------------------------------------------


def _check_annihilation(n: int, phi: Polynomial, variant: bool) -> tuple[bool, str]:
    fields = symmetry.cayley_fields(n)
    ok = all(not f.apply(phi) for f in fields)
    return ok, f"X_p Phi = 0 for p = 1..{n - 1}"


def _check_abelian(n: int, phi: Polynomial, variant: bool) -> tuple[bool, str]:
    fields = symmetry.cayley_fields(n)
    ok = True
    for i, x in enumerate(fields):
        for y in fields[i + 1 :]:
            if not symmetry.commutator(x, y).is_zero():
                ok = False
    return ok, f"all pairwise commutators of the {n - 1} shift fields vanish"


def _check_homogeneity(n: int, phi: Polynomial, variant: bool) -> tuple[bool, str]:
    graded = weighted_degree_check(phi, list(range(1, n + 1)), n)
    euler = symmetry.euler_field(n)
    scales = euler.apply(phi) == phi * n
    return graded and scales, f"weight-{n} homogeneous and H Phi = {n} Phi"


def _check_isotropy(n: int, phi: Polynomial, variant: bool) -> tuple[bool, str]:
    iso = symmetry.isotropy_at_origin(phi)
    if variant:
        return iso.dimension == 2, f"linear isotropy dimension {iso.dimension} (expected 2)"
    ok = iso.dimension == 1 and symmetry.span_contains(iso, [symmetry.euler_field(n)])
    return ok, f"linear isotropy dimension {iso.dimension} (expected 1, spanned by H)"


def _graph_tensors(phi: Polynomial):
    f = geometry.graph_of(phi)
    return f, geometry.taylor_tensor(f, 2), geometry.taylor_tensor(f, 3)


def _check_traces(n: int, phi: Polynomial, variant: bool) -> tuple[bool, str]:
    f, g_taylor, _ = _graph_tensors(phi)
    ok = True
    top = max(f.total_degree(), 3)
    g_taylor_inv = geometry.metric_inverse(g_taylor)
    for m in range(3, top + 1):
        if not geometry.trace(geometry.taylor_tensor(f, m), g_taylor_inv).is_zero():
            ok = False
    if not variant:
        g_ind = geometry.indicator_tensor(n, 2)
        g_ind_inv = geometry.metric_inverse(g_ind)
        for m in range(3, n + 1):
            if not geometry.trace(geometry.indicator_tensor(n, m), g_ind_inv).is_zero():
                ok = False
    return ok, f"metric traces of orders 3..{top} all vanish"


def _check_pick(n: int, phi: Polynomial, variant: bool) -> tuple[bool, str]:
    _, g_taylor, a_taylor = _graph_tensors(phi)
    values = {"taylor": geometry.pick_invariant(g_taylor, a_taylor)}
    if not variant:
        values["indicator"] = geometry.pick_invariant(
            geometry.indicator_tensor(n, 2), geometry.indicator_tensor(n, 3)
        )
    ok = all(v == 0 for v in values.values())
    detail = ", ".join(f"{k} {v}" for k, v in values.items())
    return ok, f"Pick invariant: {detail}"


def _check_signature(n: int, phi: Polynomial, variant: bool) -> tuple[bool, str]:
    _, g_taylor, _ = _graph_tensors(phi)
    sig = geometry.signature(g_taylor)
    detail = f"signature ({sig.positive}, {sig.negative}, {sig.zero})"
    if variant:
        return sig.zero == 0, detail + " nondegenerate"
    expected = (n // 2, (n - 1) - n // 2, 0)
    return (sig.positive, sig.negative, sig.zero) == expected, detail + f" expected {expected}"


def _check_ruling(n: int, phi: Polynomial, variant: bool) -> tuple[bool, str]:
    dim, linear = geometry.ruling_check(phi)
    return linear, f"linear in the upper block; ruled by {dim}-planes"


def _check_hessian(n: int, phi: Polynomial, variant: bool) -> tuple[bool, str]:
    f = geometry.graph_of(phi)
    hess = geometry.hessian_determinant(f)
    if hess.is_constant():
        return True, f"Hessian determinant constant = {hess.coefficient({})}"
    return False, "Hessian determinant is not constant"


def _check_orbit(n: int, phi: Polynomial, variant: bool) -> tuple[bool, str]:
    rng = random.Random(20_000 + n)

    def rand_params():
        return [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n - 1)]

    ok = True
    for _ in range(ORBIT_SAMPLES):
        point = symmetry.orbit_point(n, rand_params())
        if phi.evaluate(point) != 0:
            ok = False
    for _ in range(ORBIT_ROUND_TRIPS):
        t = rand_params()
        point = symmetry.orbit_point(n, t)
        if symmetry.parameters_for_point(n, point[: n - 1]) != tuple(t):
            ok = False
    return ok, f"{ORBIT_SAMPLES} random orbit points on the surface; {ORBIT_ROUND_TRIPS} round trips"


# Check name -> implementation; `--checks all` runs them in this order.
CHECKS = {
    "annihilation": _check_annihilation,
    "abelian": _check_abelian,
    "homogeneity": _check_homogeneity,
    "isotropy": _check_isotropy,
    "traces": _check_traces,
    "pick": _check_pick,
    "signature": _check_signature,
    "ruling": _check_ruling,
    "hessian": _check_hessian,
    "orbit": _check_orbit,
}
CHECK_ORDER = list(CHECKS)


# -- subcommand drivers -------------------------------------------------------


def _surface(parser, args) -> tuple[Polynomial, str]:
    """The polynomial a command's options name, and its source.

    The n guard runs before the polynomial is built; a --file polynomial
    is guarded once it is read.
    """
    if getattr(args, "file", None) is not None:
        if args.n is not None or args.b is not None or args.variant:
            parser.error("--file does not take --n, --b or --variant")
        try:
            with open(args.file, "r", encoding="utf-8") as handle:
                # Integers stay decimal strings; poly_from_json_dict bounds their digits.
                phi = poly_from_json_dict(json.load(handle, parse_int=str))
        except (OSError, ValueError, RecursionError) as exc:
            parser.error(f"cannot read polynomial file: {exc}")
        _guard_n(parser, phi.n, args.force)
        return phi, "file"
    if args.variant:
        if args.b is not None:
            parser.error("--variant does not take --b")
        if args.n not in (None, 4):
            parser.error("the variant surface exists only for n = 4")
        return gen.variant_surface_4(), "variant"
    if args.n is None:
        parser.error("--n is required")
    if args.n < 1:
        parser.error("n must be a positive integer")
    _guard_n(parser, args.n, args.force)
    if args.b:
        return gen.family_poly(args.n, args.b), "family"
    return gen.cayley_poly(args.n), "cayley"


def _cmd_generate(parser, args) -> int:
    phi, _ = _surface(parser, args)
    if args.format == "json":
        print(json.dumps(poly_to_json_dict(phi), indent=2))
    else:
        render = format_latex if args.format == "latex" else format_plain
        print(f"{render(Polynomial.variable(phi.n, phi.n))} = {render(geometry.graph_of(phi))}")
    return 0


def _cmd_verify(parser, args) -> int:
    allowed = VARIANT_CHECKS if args.variant else CHECK_ORDER
    if args.checks == "all":
        names = list(allowed)
    else:
        names = [c.strip() for c in args.checks.split(",")]
    for i, name in enumerate(names):
        if name not in CHECK_ORDER:
            parser.error(f"unknown check {name!r}; choose from {', '.join(CHECK_ORDER)}")
        if name not in allowed:
            parser.error(f"check {name!r} is not applicable to the variant surface")
        if name in names[:i]:
            parser.error(f"check {name!r} is listed twice")
    ns = args.n
    if ns[0] < 3:
        parser.error("verify needs n >= 3")
    _guard_n(parser, ns[-1], args.force)
    if args.variant and ns != range(4, 5):
        parser.error("the variant surface exists only for n = 4")

    reports = []
    overall = True
    for n in ns:
        phi = gen.variant_surface_4() if args.variant else gen.cayley_poly(n)
        checks = []
        target_pass = True
        for name in names:
            ok, detail = CHECKS[name](n, phi, args.variant)
            checks.append({"name": name, "status": "pass" if ok else "fail", "detail": detail})
            target_pass = target_pass and ok
        target: dict = {"n": n}
        if args.variant:
            target["variant"] = True
        reports.append({"target": target, "checks": checks, "pass": target_pass})
        overall = overall and target_pass
    print(json.dumps({"reports": reports, "pass": overall}, indent=2))
    return 0 if overall else 1


def _algebra_json(algebra: symmetry.SymmetryAlgebra) -> list[dict]:
    return [
        symmetry.field_to_json_dict(f, c)
        for f, c in zip(algebra.basis, algebra.eigenvalues)
    ]


def _cmd_symmetries(parser, args) -> int:
    phi, source = _surface(parser, args)
    if not phi:
        parser.error("the zero polynomial has no symmetry algebra")
    algebra = symmetry.symmetry_algebra(phi)
    out = {
        "n": phi.n,
        "source": source,
        "dimension": algebra.dimension,
        "basis": _algebra_json(algebra),
    }
    if source == "family":
        out["b"] = str(args.b)
    if phi.evaluate([0] * phi.n) == 0:
        iso = symmetry.isotropy_at_origin(phi)
        out["isotropy"] = {"dimension": iso.dimension, "basis": _algebra_json(iso)}
    else:
        out["isotropy"] = None
    print(json.dumps(out, indent=2))
    return 0


def _cmd_invariants(parser, args) -> int:
    phi, source = _surface(parser, args)
    if phi.n < 3:
        parser.error("invariants need n >= 3")
    bundle = geometry.invariants_bundle(phi)
    bundle["source"] = source
    print(json.dumps(bundle, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cayley",
        description="Exact generation and verification of Cayley hypersurfaces.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--variant", action="store_true", help="use the variant surface (n = 4)")
    common.add_argument("--force", action="store_true", help="bypass the large-n guard")
    surface = argparse.ArgumentParser(add_help=False)
    surface.add_argument("--n", type=int, default=None, help="ambient dimension")
    surface.add_argument("--b", type=_rational, default=None, help="family parameter (default 0)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", parents=[common, surface], help="print one hypersurface equation")
    p_gen.add_argument("--format", choices=["plain", "latex", "json"], default="plain")
    p_gen.set_defaults(run=partial(_cmd_generate, p_gen))

    p_ver = sub.add_parser("verify", parents=[common], help="run property checks over a range of n")
    p_ver.add_argument("--n", type=_n_range, required=True, help="dimension or range A..B")
    p_ver.add_argument("--checks", default="all", help="comma list of checks, or 'all'")
    p_ver.set_defaults(run=partial(_cmd_verify, p_ver))

    p_sym = sub.add_parser("symmetries", parents=[common, surface], help="affine symmetry algebra of a surface")
    p_sym.add_argument("--file", default=None, help="polynomial JSON file to analyze")
    p_sym.set_defaults(run=partial(_cmd_symmetries, p_sym))

    p_inv = sub.add_parser("invariants", parents=[common, surface], help="geometric invariants bundle")
    p_inv.set_defaults(run=partial(_cmd_invariants, p_inv))

    return parser


def _attach_b_values(argv: list[str]) -> list[str]:
    """Rewrite `--b VALUE` as `--b=VALUE`.

    argparse takes a separate word such as -7/3 for an option, not for the
    value of --b; attached with `=`, every value reads the same.
    """
    out: list[str] = []
    for word in argv:
        if out and out[-1] == "--b":
            out[-1] = f"--b={word}"
        else:
            out.append(word)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    limit = sys.get_int_max_str_digits()
    try:
        try:  # --help leaves through SystemExit, so the flush is in a finally
            args = parser.parse_args(_attach_b_values(sys.argv[1:] if argv is None else argv))
            # Exact output may run past the interpreter's 4300-digit default; every
            # integer read from input has its own digit bound.
            sys.set_int_max_str_digits(0)
            return args.run(args)  # bound to its subcommand's parser, so usage errors print its usage line
        finally:
            sys.set_int_max_str_digits(limit)
            sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone (as in `cayley verify ... | head -1`).  Point stdout
        # at the null device so the flush at exit cannot fail again, and exit as
        # a process killed by SIGPIPE would: 128 + 13.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
