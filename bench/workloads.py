"""Case lists, seeded inputs and known answers for the cayley benchmark.

A case is one ``cayley`` command line plus the answer its stdout must give.
The answers never come from the package under test: the paper's theorems
fix them for Phi_n, and the dense brute-force oracle in ``tests/oracles.py``
fixes them for every other polynomial.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

ALL_CHECKS = (
    "annihilation", "abelian", "homogeneity", "isotropy", "traces",
    "pick", "signature", "ruling", "hessian", "orbit",
)
VARIANT_CHECKS = ("isotropy", "traces", "pick", "signature", "ruling", "hessian")
# The checks that still finish above the Hessian cliff (n = 9 -> 10).
HIGH_CHECKS = ("annihilation", "abelian", "homogeneity", "traces", "pick", "signature", "ruling", "orbit")

# x4 = x1*x3 + 1/2*x2^2 - 1/3*x1^3, as dense exponent tuples.
VARIANT_TERMS = {
    (0, 0, 0, 1): Fraction(-1),
    (1, 0, 1, 0): Fraction(1),
    (0, 2, 0, 0): Fraction(1, 2),
    (3, 0, 0, 0): Fraction(-1, 3),
}

# (dimension, isotropy) of the family members at n = 8.  The dense oracle
# needs about 3 s and 120 MB for each, so they are pinned here;
# test_bench.py recomputes them with the oracle.
FAMILY_ANSWERS = {"1/2": (8, 1), "-7/3": (8, 1)}

# Random --file inputs: (kind, weights or variable count, terms).  Sizes
# and weights are fixed so that every seed asks the solver for comparable
# work; the seed picks the monomials and coefficients.
FILE_SLOTS = (
    ("graded", (1, 2, 3, 1, 2, 3, 1, 2, 3), 35),
    ("graded", (1, 2, 3, 1, 2, 3, 1, 2, 3, 2), 40),
    ("ungraded", 8, 30),
    ("ungraded", 10, 38),
)
GRADED_WEIGHT = 6
MAX_FILE_DEGREE = 4  # keeps the dense oracle at C(14, 4) = 1001 rows

SETUP_ARGV = ("generate", "--n", "3")
SETUP_STDOUT = b"x3 = x1*x2 - 1/3*x1^3\n"

WORKLOADS = ("verify-ladder", "verify-high", "symmetry-solve")


@dataclass(frozen=True)
class Case:
    """One CLI invocation and the verdict its stdout must carry."""

    id: str
    argv: tuple[str, ...]
    expect: dict
    # Names the input, for comparing stdout digests between runs; a --file
    # case is named by its file's content.
    key: str


def load_oracles(root: Path):
    tests = str(root / "tests")
    if tests not in sys.path:
        sys.path.insert(0, tests)
    import oracles

    return oracles


def dense_dimensions(root: Path, n: int, terms: dict) -> tuple[int, int]:
    """(symmetry algebra dimension, isotropy dimension) by the dense oracle.

    ``terms`` maps exponent tuples of length n to nonzero coefficients, and
    the polynomial must vanish at the origin.  The isotropy count drops the
    constant-part columns from the oracle's system.
    """
    o = load_oracles(root)
    sparse = {
        tuple((i + 1, e) for i, e in enumerate(exps) if e): coeff for exps, coeff in terms.items()
    }
    dimension = o.dense_eigen_dimension(SimpleNamespace(n=n, terms=sparse))
    diffs = [o.dense_diff(terms, j) for j in range(1, n + 1)]
    columns = [o.dense_scale(terms, Fraction(-1))]
    columns += [o.dense_mul_var(diffs[j], i) for i in range(1, n + 1) for j in range(n)]
    degree = max(sum(e) for e in terms)
    rows = [[col.get(exps, Fraction(0)) for col in columns] for exps in o.all_exponents(n, degree)]
    return dimension, o.rref_nullity(rows, len(columns))


def _coefficient(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5))


def random_terms(root: Path, rng: random.Random, kind: str, shape, count: int) -> tuple[int, dict]:
    """A random polynomial without constant term, as dense exponent tuples.

    ``graded`` polynomials are homogeneous of weight GRADED_WEIGHT for the
    weights given as ``shape``; ``ungraded`` ones, in ``shape`` variables,
    are redrawn until no nonzero weight vector grades them (their exponent
    differences have full rank).  Monomials are drawn from each total degree
    in proportion to how many the pool holds, so term degrees, and with them
    the solver's work, vary little between seeds.
    """
    o = load_oracles(root)
    n = len(shape) if kind == "graded" else shape
    pool = [e for e in o.all_exponents(n, MAX_FILE_DEGREE) if sum(e) >= 1]
    if kind == "graded":
        pool = [e for e in pool if sum(w * k for w, k in zip(shape, e)) == GRADED_WEIGHT]
    by_degree: dict[int, list] = {}
    for e in pool:
        by_degree.setdefault(sum(e), []).append(e)
    quota = {d: count * len(group) // len(pool) for d, group in by_degree.items()}
    by_remainder = sorted(by_degree, key=lambda d: (-(count * len(by_degree[d]) % len(pool)), d))
    for d in by_remainder[: count - sum(quota.values())]:
        quota[d] += 1
    while True:
        chosen = [e for d in sorted(by_degree) for e in rng.sample(by_degree[d], quota[d])]
        if kind == "ungraded":
            diffs = [[Fraction(a - b) for a, b in zip(e, chosen[0])] for e in chosen[1:]]
            if o.rref_nullity(diffs, n):
                continue
        return n, {e: _coefficient(rng) for e in chosen}


def terms_to_json(n: int, terms: dict) -> dict:
    """The package's pinned polynomial JSON schema."""
    return {
        "n": n,
        "terms": [
            {
                "exps": [[i + 1, e] for i, e in enumerate(exps) if e],
                "num": str(c.numerator),
                "den": str(c.denominator),
            }
            for exps, c in sorted(terms.items())
        ],
    }


def build(workload: str, seed: int, root: Path, inputs: Path) -> list[Case]:
    """The workload's cases for one seed, with their known answers.

    Seeded inputs are written under ``inputs``; the oracle runs here, before
    any timing.  The seed also fixes the order of the cases.
    """
    rng = random.Random(f"{workload}:{seed}")
    cases: list[Case] = []

    def add(case_id: str, argv: tuple[str, ...], expect: dict, key: str | None = None) -> None:
        cases.append(Case(case_id, argv, expect, key or " ".join(argv)))

    if workload == "verify-ladder":
        for n in range(3, 10):
            add(f"verify-n{n}", ("verify", "--n", str(n), "--checks", "all"), {"ns": [n], "checks": ALL_CHECKS})
        add("verify-variant", ("verify", "--n", "4", "--variant"), {"ns": [4], "checks": VARIANT_CHECKS})
    elif workload == "verify-high":
        for n in (12, 14):
            add(f"verify-high-n{n}", ("verify", "--n", str(n), "--checks", ",".join(HIGH_CHECKS)),
                {"ns": [n], "checks": HIGH_CHECKS})
    elif workload == "symmetry-solve":
        for n in range(6, 11):
            # n - 1 commuting shift fields plus the weighted Euler field H;
            # the isotropy at the origin is spanned by H alone.
            add(f"sym-phi{n}", ("symmetries", "--n", str(n)), {"dimension": n, "isotropy": 1})
        for b, (dim, iso) in FAMILY_ANSWERS.items():
            # "--b -7/3" is rejected by argparse as a missing argument.
            add(f"sym-b{b.replace('/', '_')}", ("symmetries", "--n", "8", f"--b={b}"), {"dimension": dim, "isotropy": iso})
        dim, iso = dense_dimensions(root, 4, VARIANT_TERMS)
        add("sym-variant", ("symmetries", "--variant"), {"dimension": dim, "isotropy": iso})
        inputs.mkdir(parents=True, exist_ok=True)
        for k, (kind, shape, count) in enumerate(FILE_SLOTS):
            n, terms = random_terms(root, rng, kind, shape, count)
            text = json.dumps(terms_to_json(n, terms))
            path = inputs / f"{kind}-{k}.json"
            path.write_text(text, encoding="utf-8")
            dim, iso = dense_dimensions(root, n, terms)
            add(f"sym-file{k}-{kind}", ("symmetries", "--file", str(path)), {"dimension": dim, "isotropy": iso},
                key="symmetries --file sha256:" + hashlib.sha256(text.encode()).hexdigest())
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(cases)
    return cases


def wrong_verdict(case: Case, stdout: bytes) -> str | None:
    """Why stdout does not carry the case's known answer, or None if it does."""
    try:
        out = json.loads(stdout)
        if "ns" in case.expect:
            reports = out["reports"]
            if [r["target"]["n"] for r in reports] != case.expect["ns"]:
                return "reports cover the wrong n"
            for report in reports:
                status = {c["name"]: c["status"] for c in report["checks"]}
                missing = [name for name in case.expect["checks"] if name not in status]
                if missing:
                    return f"checks missing: {missing}"
                failed = [name for name, st in status.items() if st != "pass"]
                if failed or report["pass"] is not True:
                    return f"checks failed: {failed}"
            return None if out["pass"] is True else "overall verdict is not pass"
        got = (out["dimension"], len(out["basis"]), out["isotropy"]["dimension"])
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
    want = (case.expect["dimension"], case.expect["dimension"], case.expect["isotropy"])
    return None if got == want else f"(dimension, basis size, isotropy) {got}, expected {want}"
