"""Command-line interface: generate equations, verify properties, report invariants.

Subcommands
-----------
generate    print one hypersurface equation (plain, LaTeX, or JSON)
verify      run property checks over a range of dimensions, JSON report
symmetries  solve for the affine symmetry algebra of a surface, JSON
invariants  signature / Pick / Hessian / ruling bundle for one surface, JSON

Every report is shaped here; the library modules return values only.
The verify checks of one target share its facts (shift fields, annihilation,
graph, tensor families with one inverse metric each, which traces and Pick
contract through), each computed on first use; no fact crosses targets, and a
check run alone computes the facts it reads.
All output is deterministic: identical invocations produce identical bytes.
Exit codes: 0 all checks passed, 1 at least one check failed, 2 usage error,
141 (128 + SIGPIPE) stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections.abc import Callable
from fractions import Fraction
from functools import cache, cached_property, partial

import cayley  # geometry and symmetry load on first use, through the lazy package

from . import generate as gen
from .poly import (
    Polynomial,
    format_latex,
    format_plain,
    poly_from_json_dict,
    poly_to_json_dict,
    weighted_degree_check,
)

DEFAULT_MAX_N = 20

# Checks meaningful for the variant surface: the commuting shift fields and the grading
# with weight h on x_h belong to Phi_n (the variant is graded with weights 2, 3, 4, 6).
VARIANT_CHECKS = ["isotropy", "traces", "pick", "signature", "ruling", "hessian"]


def _rational(text: str) -> Fraction:
    # [sign]digits[/digits], q nonzero.  Fraction alone would also take decimals,
    # underscores and exponents, and Fraction("1e10000000") alone takes seconds.
    if not re.fullmatch(r"[+-]?[0-9]{1,1000}(/(?=0*[1-9])[0-9]{1,1000})?", text):
        raise argparse.ArgumentTypeError(f"not a rational number p/q, at most 1000 digits each: {text!r}")
    return Fraction(text)


def _n(text: str) -> int:
    # ASCII digits only: int() would also take underscores, padding and other
    # scripts' digits.  The digit bound keeps int() under its 4300-digit limit.
    if not re.fullmatch(r"[0-9]{1,1000}", text):
        raise argparse.ArgumentTypeError(f"expected N of at most 1000 digits, got {text!r}")
    return int(text)


def _n_range(text: str) -> range:
    """N or A..B as an ascending range, kept lazy so the guard sees it first."""
    parts = text.split("..", 1)
    if all(re.fullmatch(r"[0-9]{1,1000}", part) for part in parts):
        low, high = int(parts[0]), int(parts[-1])
        if low <= high:
            return range(low, high + 1)
    raise argparse.ArgumentTypeError(f"expected N or A..B of at most 1000 digits each, got {text!r}")


def _guard_n(parser: argparse.ArgumentParser, worst: int, force: bool) -> None:
    if worst > DEFAULT_MAX_N and not force:
        parser.error(f"n={worst} exceeds the guard ({DEFAULT_MAX_N}); pass --force")


# -- check implementations ---------------------------------------------------


class _Target:
    """One surface, its source ("cayley", "family", "variant" or "file") and the facts
    read from it; n is phi.n.

    Each fact is computed on first use and kept for the target's other
    checks, never for another target.  A check reads every fact it needs
    from here, so a check run alone computes them itself and stays a proof.
    """

    def __init__(self, phi: Polynomial, source: str):
        self.phi, self.source, self.n = phi, source, phi.n

    @cached_property
    def fields(self) -> list[cayley.symmetry.AffineVectorField]:
        return cayley.symmetry.cayley_fields(self.n)

    @cached_property
    def annihilated(self) -> bool:
        """X_p Phi = 0 for p = 1..n-1."""
        return all(not f.apply(self.phi) for f in self.fields)

    @cached_property
    def graph(self) -> Polynomial:
        return gen.graph_of(self.phi)

    @cached_property
    def taylor(self) -> dict[int, cayley.geometry.SymmetricTensor]:
        """The graph's Taylor tensors by degree, from one pass over its terms."""
        return cayley.geometry.taylor_tensors(self.graph)

    @cached_property
    def families(self) -> dict[str, tuple[Callable[[int], cayley.geometry.SymmetricTensor | None],
                                          cayley.geometry.SymmetricTensor]]:
        """For traces and pick: each tensor family's tensor of each order (None if it has none), with its
        metric inverted once: the Taylor tensors, and for Phi_n the indicator tensors, each order built on first use."""
        families = {"taylor": self.taylor.get}
        if self.source == "cayley":
            families["indicator"] = cache(partial(cayley.geometry.indicator_tensor, self.n))
        return {name: (tensor, cayley.geometry.metric_inverse(tensor(2))) for name, tensor in families.items()}


def _check_annihilation(t: _Target) -> tuple[bool, str]:
    return t.annihilated, f"X_p Phi = 0 for p = 1..{t.n - 1}"


def _check_abelian(t: _Target) -> tuple[bool, str]:
    fields = t.fields
    ok = all(cayley.symmetry.commutator(x, y).is_zero() for i, x in enumerate(fields) for y in fields[i + 1 :])
    return ok, f"all pairwise commutators of the {t.n - 1} shift fields vanish"


def _check_homogeneity(t: _Target) -> tuple[bool, str]:
    # H multiplies a term of weight w by w, so weight n alone gives H Phi = n Phi.
    n = t.n
    return weighted_degree_check(t.phi, list(range(1, n + 1)), n), f"weight-{n} homogeneous and H Phi = {n} Phi"


def _check_isotropy(t: _Target) -> tuple[bool, str]:
    iso = cayley.symmetry.isotropy_at_origin(t.phi)
    if t.source == "variant":
        return iso.dimension == 2, f"linear isotropy dimension {iso.dimension} (expected 2)"
    ok = iso.dimension == 1 and cayley.symmetry.span_contains(iso, [cayley.symmetry.euler_field(t.n)])
    return ok, f"linear isotropy dimension {iso.dimension} (expected 1, spanned by H)"


def _check_traces(t: _Target) -> tuple[bool, str]:
    top = max(t.graph.total_degree(), 3)
    pairs = [(tensor(m), g_inv) for tensor, g_inv in t.families.values() for m in range(3, top + 1)]
    ok = all(a is None or cayley.geometry.trace(a, g_inv).is_zero() for a, g_inv in pairs)
    return ok, f"metric traces of orders 3..{top} all vanish"


def _check_pick(t: _Target) -> tuple[bool, str]:
    values = {name: cayley.geometry.pick_invariant(g_inv, tensor(3)) for name, (tensor, g_inv) in t.families.items()}
    ok = all(v == 0 for v in values.values())
    detail = ", ".join(f"{k} {v}" for k, v in values.items())
    return ok, f"Pick invariant: {detail}"


def _check_signature(t: _Target) -> tuple[bool, str]:
    sig = cayley.geometry.signature(t.taylor[2])
    detail = f"signature {sig}"
    if t.source == "variant":
        return sig[2] == 0, detail + " nondegenerate"
    n = t.n
    expected = (n // 2, (n - 1) - n // 2, 0)
    return sig == expected, detail + f" expected {expected}"


def _check_ruling(t: _Target) -> tuple[bool, str]:
    dim, linear = cayley.geometry.ruling_check(t.phi)
    return linear, f"linear in the upper block; ruled by {dim}-planes"


def _check_hessian(t: _Target) -> tuple[bool, str]:
    hess = cayley.geometry.hessian_determinant(t.graph)
    if hess.is_constant():
        return True, f"Hessian determinant constant = {hess.coefficient({})}"
    return False, "Hessian determinant is not constant"


def _check_orbit(t: _Target) -> tuple[bool, str]:
    # With O the joint flow from the origin, d/dt_p Phi(O(t)) = (X_p Phi)(O(t)) = 0,
    # so Phi(O(t)) = Phi(O(0)) = Phi(0) = 0.  As d/dt_p (1 + O(s)) = s^p (1 + O(s))
    # mod s^n, the series log of 1 + O_1 s + ... + O_(n-1) s^(n-1) is t.
    flow = cayley.symmetry.is_joint_flow(t.fields, cayley.symmetry.orbit_map_terms(t.n))
    return flow and () not in t.phi.terms and t.annihilated, (
        f"Phi(O(t)) = 0 identically and the series log inverts O: O(0) = 0, dO/dt_p = X_p(O),"
        f" X_p Phi = 0 for p = 1..{t.n - 1}, Phi(0) = 0"
    )


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


# -- subcommand drivers -------------------------------------------------------


def _surface(parser, args, n: int | None) -> _Target:
    """The surface a command's options name at dimension n, as the target every command reads.

    The n guard runs before the polynomial is built; a --file polynomial
    is guarded once it is read.
    """
    b = getattr(args, "b", None)
    if getattr(args, "file", None) is not None:
        if n is not None or b is not None or args.variant:
            parser.error("--file does not take --n, --b or --variant")
        try:
            with open(args.file, "r", encoding="utf-8") as handle:
                # Integers stay decimal strings; poly_from_json_dict bounds their digits.
                phi = poly_from_json_dict(json.load(handle, parse_int=str))
        except (OSError, ValueError, RecursionError) as exc:
            parser.error(f"cannot read polynomial file: {exc}")
        _guard_n(parser, phi.n, args.force)
        return _Target(phi, "file")
    if args.variant:
        if b is not None:
            parser.error("--variant does not take --b")
        if n not in (None, 4):
            parser.error("the variant surface exists only for n = 4")
        return _Target(gen.variant_surface_4(), "variant")
    if n is None:
        parser.error("--n is required")
    if n < 1:
        parser.error("n must be a positive integer")
    _guard_n(parser, n, args.force)
    if b:
        return _Target(gen.family_poly(n, b), "family")
    return _Target(gen.cayley_poly(n), "cayley")


def _cmd_generate(parser, args) -> int:
    t = _surface(parser, args, args.n)
    if args.format == "json":
        print(json.dumps(poly_to_json_dict(t.phi), indent=2))
    else:
        render = format_latex if args.format == "latex" else format_plain
        print(f"{render(Polynomial.variable(t.n, t.n))} = {render(t.graph)}")
    return 0


def _cmd_verify(parser, args) -> int:
    allowed = VARIANT_CHECKS if args.variant else CHECKS
    if args.checks == "all":
        names = list(allowed)
    else:
        names = [c.strip() for c in args.checks.split(",")]
    for i, name in enumerate(names):
        if name not in CHECKS:
            parser.error(f"unknown check {name!r}; choose from {', '.join(CHECKS)}")
        if name not in allowed:
            parser.error(f"check {name!r} is not applicable to the variant surface")
        if name in names[:i]:
            parser.error(f"check {name!r} is listed twice")
    ns = args.n
    if ns[0] < 3:
        parser.error("verify needs n >= 3")
    _guard_n(parser, ns[-1], args.force)

    reports = []
    overall = True
    for n in ns:
        t = _surface(parser, args, n)  # built when its turn comes, dropped after its checks
        checks = []
        target_pass = True
        for name in names:
            ok, detail = CHECKS[name](t)
            checks.append({"name": name, "status": "pass" if ok else "fail", "detail": detail})
            target_pass = target_pass and ok
        target: dict = {"n": t.n}
        if t.source == "variant":
            target["variant"] = True
        reports.append({"target": target, "checks": checks, "pass": target_pass})
        overall = overall and target_pass
    print(json.dumps({"reports": reports, "pass": overall}, indent=2))
    return 0 if overall else 1


def _algebra_json(algebra: cayley.symmetry.SymmetryAlgebra) -> list[dict]:
    """Each basis field and its eigenvalue, rationals as num/den strings."""
    return [
        {"n": f.n, "constant": [str(v) for v in f.constant],
         "linear": [[str(v) for v in row] for row in f.linear], "eigenvalue": str(c)}
        for f, c in zip(algebra.basis, algebra.eigenvalues)
    ]


def _cmd_symmetries(parser, args) -> int:
    t = _surface(parser, args, args.n)
    if not t.phi:
        parser.error("the zero polynomial has no symmetry algebra")
    algebra = cayley.symmetry.symmetry_algebra(t.phi)
    out = {
        "n": t.n,
        "source": t.source,
        "dimension": algebra.dimension,
        "basis": _algebra_json(algebra),
    }
    if t.source == "family":
        out["b"] = str(args.b)
    if () not in t.phi.terms:  # phi(0) = 0
        iso = algebra.isotropy()  # read off the algebra, with no second solve
        out["isotropy"] = {"dimension": iso.dimension, "basis": _algebra_json(iso)}
    else:
        out["isotropy"] = None
    print(json.dumps(out, indent=2))
    return 0


def _cmd_invariants(parser, args) -> int:
    t = _surface(parser, args, args.n)
    if t.n < 3:
        parser.error("invariants need n >= 3")
    # From the graph's Taylor tensors; the Hessian value is null unless constant.
    pos, neg, zero = cayley.geometry.signature(t.taylor[2])
    pick = cayley.geometry.pick_invariant(cayley.geometry.metric_inverse(t.taylor[2]), t.taylor[3])
    hess = cayley.geometry.hessian_determinant(t.graph)
    plane_dim, linear = cayley.geometry.ruling_check(t.phi)
    print(json.dumps({
        "n": t.n,
        "signature": {"pos": pos, "neg": neg, "zero": zero},
        "pick": str(pick),
        "hessian_det_constant": hess.is_constant(),
        "hessian_det_value": str(hess.coefficient({})) if hess.is_constant() else None,
        "ruling": {"dim": plane_dim, "linear": linear},
        "source": t.source,
    }, indent=2))
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
    surface.add_argument("--n", type=_n, default=None, help="ambient dimension")
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
