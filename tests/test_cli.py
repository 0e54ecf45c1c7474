import hashlib
import json
import os
import re
import resource
import shlex
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from cayley import cli, generate, geometry, symmetry
from cayley.poly import Polynomial, poly_to_json_dict
from cayley.symmetry import AffineVectorField, SymmetryAlgebra, span_contains

from test_poly import NON_ARRAY_JSON
from test_symmetry import BIG_ISOTROPY_QUADRICS, affine_polys, seeded_polys

GOLDEN_PLAIN = {
    3: "x3 = x1*x2 - 1/3*x1^3",
    4: "x4 = x1*x3 + 1/2*x2^2 - x1^2*x2 + 1/4*x1^4",
    5: "x5 = x1*x4 + x2*x3 - x1^2*x3 - x1*x2^2 + x1^3*x2 - 1/5*x1^5",
    6: "x6 = x1*x5 + x2*x4 + 1/2*x3^2 - x1^2*x4 - 2*x1*x2*x3 - 1/3*x2^3"
    " + x1^3*x3 + 3/2*x1^2*x2^2 - x1^4*x2 + 1/6*x1^6",
}

GOLDEN_LATEX = {
    3: r"x_3 = x_1x_2-\frac{1}{3}x_1^3",
    4: r"x_4 = x_1x_3+\frac{1}{2}x_2^2-x_1^2x_2+\frac{1}{4}x_1^4",
    5: r"x_5 = x_1x_4+x_2x_3-x_1^2x_3-x_1x_2^2+x_1^3x_2-\frac{1}{5}x_1^5",
    6: r"x_6 = x_1x_5+x_2x_4+\frac{1}{2}x_3^2-x_1^2x_4-2x_1x_2x_3-\frac{1}{3}x_2^3"
    r"+x_1^3x_3+\frac{3}{2}x_1^2x_2^2-x_1^4x_2+\frac{1}{6}x_1^6",
}


# sha256 of the stdout of `verify --n 3..12 --checks all`, recorded when the
# orbit check became a proof by flow identities; it pins the report byte for
# byte.  The report before that differed only in the orbit detail lines.
VERIFY_3_12_SHA256 = "1fbde7c43917b94959447a1edc3266e6d4ff2f0605a5174aa4f8b2e35226e844"

# sha256 of the stdout of `verify --n 4 --variant`, recorded before verify
# resolved its surfaces through the one route that the other commands take.
VERIFY_VARIANT_SHA256 = "b130da56e0b94106aa5cd170e6146f2d9b2e3749b3817e2e75ee4f659f71d994"

# sha256 of the stdout of `generate` in each format, concatenated over
# --n 3..14, then `--n 8 --b=-7/3`, then `--variant`, recorded before plain
# and LaTeX rendering moved to one shared loop; they pin the output byte for byte.
GENERATE_SHA256 = {
    "plain": "1a57d4c5c22111883418465c8b9502aef87e015b65e4e9fb00862c3a1c7991fb",
    "latex": "12de73feaf59337d4a2d5e7d782ca994eea04952de9b34c18989de4bdbf1d1c0",
    "json": "6585f85b4d797446e735987697096d725f88260e89f39b150a2d8d47de6f9cc7",
}
GENERATE_PINNED_CASES = [["--n", str(n)] for n in range(3, 15)]
GENERATE_PINNED_CASES += [["--n", "8", "--b=-7/3"], ["--variant"]]

# sha256 of the concatenated stdout of `symmetries` and of `invariants` over
# --n 3..8, one family member and --variant, recorded before the options of
# every command were resolved to a polynomial in one place.
SURFACE_SHA256 = {
    "symmetries": "2092e21310ae3af3c555db3e936bcf7d0c4662da067dced60c04eeef3b638f86",
    "invariants": "011bf571860a898507fe0fb911b633d15f3e14e746245838b919c3f9dbfbbed2",
}
SURFACE_PINNED_CASES = {
    "symmetries": [["--n", str(n)] for n in range(3, 9)] + [["--n", "8", "--b=1/2"], ["--variant"]],
    "invariants": [["--n", str(n)] for n in range(3, 9)] + [["--n", "6", "--b=3"], ["--variant"]],
}

# sha256 of the stdout of `symmetries` on each case, recorded before the command
# read its isotropy off the algebra's solution in place of a second solve.  The
# b values 1 + 2/k are where the family's prefactor drops terms.  A --file case
# is written by the test: the seeded graded and ungraded polynomials of
# test_symmetry.seeded_polys, and x1 x2 + x3 x4 + x5^2 in 6 variables, whose
# isotropy has dimension 17.
SYMMETRIES_SHA256 = {
    "--n 12": "7a91a49f3dcffa6dbbec4cea7096c8629073a32d75e107ebb34a28459f7111e2",
    "--n 10 --b=3": "f9d8d0b455acdbd5363bba15fb1d18fb5efbd68c81521e9eb256b8ded47f72d3",
    "--n 9 --b=5/3": "97bd42f1a8d5dc6d8706d73940a2e9020e3f82ffc4a600118c7f99b7041d5ac4",
    "graded": "cb0b6bb3213360fe3313339071dacbb68eb8095a2389a813c435efee21ad1d75",
    "ungraded": "2aae57318c6df626170c9894f3d63b2b5d08e7bed890d09b328b43a56a5237cd",
    "quadric": "593f8a02db0f2bfb2ee1f78e2434e24f1b22b8425076037c1872f4fce8de9ea9",
}
SYMMETRIES_PINNED_FILES = {
    "graded": lambda: seeded_polys(2)[0],
    "ungraded": lambda: seeded_polys(0)[1],
    "quadric": lambda: BIG_ISOTROPY_QUADRICS[1],
}


def run(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().out


def test_verify_all_checks_stdout_is_pinned(capsys):
    code, out = run(capsys, ["verify", "--n", "3..12", "--checks", "all"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_3_12_SHA256


def test_verify_variant_stdout_is_pinned(capsys):
    code, out = run(capsys, ["verify", "--n", "4", "--variant"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_VARIANT_SHA256


@pytest.mark.parametrize("fmt", sorted(GENERATE_SHA256))
def test_generate_stdout_is_pinned(capsys, fmt):
    outputs = []
    for case in GENERATE_PINNED_CASES:
        code, out = run(capsys, ["generate", *case, "--format", fmt])
        assert code == 0
        outputs.append(out)
    assert hashlib.sha256("".join(outputs).encode()).hexdigest() == GENERATE_SHA256[fmt]


@pytest.mark.parametrize("command", sorted(SURFACE_SHA256))
def test_surface_command_stdout_is_pinned(capsys, command):
    outputs = []
    for case in SURFACE_PINNED_CASES[command]:
        code, out = run(capsys, [command, *case])
        assert code == 0
        outputs.append(out)
    assert hashlib.sha256("".join(outputs).encode()).hexdigest() == SURFACE_SHA256[command]


def symmetries_pinned_argv(case, directory):
    """The `symmetries` command line of a SYMMETRIES_SHA256 case; a file case is written to directory."""
    if case not in SYMMETRIES_PINNED_FILES:
        return ["symmetries", *case.split()]
    path = directory / f"{case}.json"
    path.write_text(json.dumps(poly_to_json_dict(SYMMETRIES_PINNED_FILES[case]())))
    return ["symmetries", "--file", str(path)]


@pytest.mark.parametrize("case", sorted(SYMMETRIES_SHA256))
def test_symmetries_stdout_is_pinned(capsys, tmp_path, case):
    code, out = run(capsys, symmetries_pinned_argv(case, tmp_path))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SYMMETRIES_SHA256[case]


def test_generate_plain_golden(capsys):
    for n, expected in GOLDEN_PLAIN.items():
        code, out = run(capsys, ["generate", "--n", str(n), "--format", "plain"])
        assert code == 0
        assert out == expected + "\n"


def test_generate_latex_golden(capsys):
    for n, expected in GOLDEN_LATEX.items():
        code, out = run(capsys, ["generate", "--n", str(n), "--format", "latex"])
        assert code == 0
        assert out == expected + "\n"


def test_generate_json_default_parameter(capsys):
    _, with_b = run(capsys, ["generate", "--n", "5", "--b", "0", "--format", "json"])
    _, without_b = run(capsys, ["generate", "--n", "5", "--format", "json"])
    assert with_b == without_b
    data = json.loads(without_b)
    assert data["n"] == 5
    assert data["terms"][0] == {"exps": [[5, 1]], "num": "-1", "den": "1"}


def test_generate_is_deterministic(capsys):
    _, first = run(capsys, ["generate", "--n", "7", "--format", "json"])
    _, second = run(capsys, ["generate", "--n", "7", "--format", "json"])
    assert first == second


def test_generate_variant(capsys):
    code, out = run(capsys, ["generate", "--variant"])
    assert code == 0
    assert out == "x4 = x1*x3 + 1/2*x2^2 - 1/3*x1^3\n"


def test_generate_bad_b(capsys):
    # --b takes [sign]digits[/digits] only: Fraction would also parse the exponent
    # form, which alone takes seconds at this size.
    for b in ("nonsense", "1e10000000", "1" * 1001, "1/" + "1" * 1001, "0.5", "1_000", "1/0"):
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            cli.main(["generate", "--n", "3", "--b", b])
        assert exc.value.code == 2 and time.perf_counter() - start < 1
        assert "not a rational number" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["generate", "verify", "symmetries", "invariants"])
def test_bad_n(capsys, command):
    # --n takes at most 1000 ASCII digits (A..B for verify): int() would also take
    # underscores, padding, a sign and other scripts' digits.
    bad = ["nonsense", "1_0", " 3", "3 ", "+3", "-3", "\u0663", "3.0", "3..", "..4", "3...4", "9" * 1001]
    if command == "verify":
        bad += ["\u0663..\u0664", "3..4_0", "4..3", "3..4..5", "3.." + "9" * 1001]
    for n in bad:
        with pytest.raises(SystemExit) as exc:
            cli.main([command, f"--n={n}"])
        assert exc.value.code == 2
        assert "expected N" in capsys.readouterr().err


def test_b_whose_coefficients_pass_the_int_to_str_limit(capsys):
    # At b = 10^300 the member for n = 20 has coefficients longer than the
    # interpreter's default int-to-str limit; main lifts it while it runs.
    limit = sys.get_int_max_str_digits()
    code, out = run(capsys, ["generate", "--n", "20", "--b", "1" + "0" * 300])
    assert code == 0 and sys.get_int_max_str_digits() == limit
    assert out.startswith("x20 = x1*x19 + ")
    assert max(len(digits) for digits in re.findall("[0-9]+", out)) > limit


@pytest.mark.parametrize("command", ["generate", "symmetries", "invariants"])
@pytest.mark.parametrize("b", ["-7/3", "-1", "1/2"])
def test_b_as_separate_word_matches_attached(capsys, command, b):
    separate = run(capsys, [command, "--n", "5", "--b", b])
    attached = run(capsys, [command, "--n", "5", f"--b={b}"])
    assert separate == attached
    assert separate[0] == 0


def test_verify_all_checks_pass(capsys):
    code, out = run(capsys, ["verify", "--n", "3..8"])
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert [r["target"]["n"] for r in report["reports"]] == list(range(3, 9))
    for target_report in report["reports"]:
        names = [c["name"] for c in target_report["checks"]]
        assert names == list(cli.CHECKS)
        assert all(c["status"] == "pass" for c in target_report["checks"])


def test_verify_hessian_through_n_20(capsys):
    code, out = run(capsys, ["verify", "--n", "3..20", "--checks", "hessian"])
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert [r["target"]["n"] for r in report["reports"]] == list(range(3, 21))
    assert all(r["pass"] and r["checks"][0]["status"] == "pass" for r in report["reports"])


def test_verify_single_check(capsys):
    code, out = run(capsys, ["verify", "--n", "4", "--checks", "pick"])
    assert code == 0
    report = json.loads(out)
    checks = report["reports"][0]["checks"]
    assert len(checks) == 1
    assert checks[0]["name"] == "pick"
    assert "0" in checks[0]["detail"]


@pytest.mark.parametrize("argv", [["--n", "3..12"], ["--n", "4", "--variant"]])
def test_each_check_alone_gives_its_entry_under_all(capsys, argv):
    # A check run alone computes every shared fact that it reads.
    _, out = run(capsys, ["verify", *argv, "--checks", "all"])
    together = json.loads(out)["reports"]
    for k, name in enumerate(entry["name"] for entry in together[0]["checks"]):
        _, out = run(capsys, ["verify", *argv, "--checks", name])
        alone = json.loads(out)["reports"]
        assert [r["target"] for r in alone] == [r["target"] for r in together]
        assert [r["checks"] for r in alone] == [[r["checks"][k]] for r in together]


def test_verify_range_joins_its_single_target_reports(capsys):
    # Facts are shared within a target, never across targets.
    _, both = run(capsys, ["verify", "--n", "5..6", "--checks", "all"])
    singles = [json.loads(run(capsys, ["verify", "--n", str(n), "--checks", "all"])[1]) for n in (5, 6)]
    assert json.loads(both) == {"reports": [single["reports"][0] for single in singles], "pass": True}


def count_calls(monkeypatch, owners_and_names) -> Counter:
    """Count the calls of each owner.name, by name, for the rest of the test."""
    calls = Counter()

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for owner, name in owners_and_names:
        count(owner, name)
    return calls


def test_verify_computes_each_shared_fact_once_per_target(capsys, monkeypatch):
    calls = count_calls(monkeypatch, [
        (symmetry, "cayley_fields"), (AffineVectorField, "apply"), (generate, "graph_of"),
        (geometry, "taylor_tensors"), (geometry, "indicator_tensor"), (geometry, "metric_inverse")])
    checks = "annihilation,abelian,homogeneity,traces,pick,signature,hessian,orbit"
    assert run(capsys, ["verify", "--n", "5..6", "--checks", checks])[0] == 0
    # Per target n: the shift fields once, X_p Phi once for each of them (homogeneity applies
    # no field), one graph with its Taylor tensors, one indicator tensor for each order 2..n,
    # and one inverse metric for each of the two tensor families, shared by traces and pick.
    assert calls == {"cayley_fields": 2, "apply": 4 + 5, "graph_of": 2, "taylor_tensors": 2,
                     "indicator_tensor": 4 + 5, "metric_inverse": 2 + 2}
    calls.clear()
    # The variant has the Taylor family only, so its one metric is inverted once.
    assert run(capsys, ["verify", "--n", "4", "--variant"])[0] == 0
    assert calls["metric_inverse"] == 1 and calls["indicator_tensor"] == 0


# The calls each check makes alone on Phi_7, of the facts counted below; a fact not listed is not computed.
CHECK_FACTS = {
    "annihilation": {"cayley_fields": 1, "apply": 6},
    "abelian": {"cayley_fields": 1},
    "homogeneity": {},  # one weighted-degree pass, and no field applied
    # 7 applies are the solver's eigen-relation checks in the algebra of Phi_7's terms of degree <= 3,
    # and 1 is the check that its one isotropy field also has H Phi_7 = 7 Phi_7.
    "isotropy": {"apply": 7 + 1, "euler_field": 1},
    "traces": {"graph_of": 1, "taylor_tensors": 1, "indicator_tensor": 6, "metric_inverse": 2},
    "pick": {"graph_of": 1, "taylor_tensors": 1, "indicator_tensor": 2, "metric_inverse": 2},
    "signature": {"graph_of": 1, "taylor_tensors": 1},
    "ruling": {},
    "hessian": {"graph_of": 1},
    "orbit": {"cayley_fields": 1, "apply": 6},
}


@pytest.mark.parametrize("check", CHECK_FACTS)
def test_each_check_computes_only_the_facts_it_reads(capsys, monkeypatch, check):
    calls = count_calls(monkeypatch, [
        (symmetry, "cayley_fields"), (AffineVectorField, "apply"), (symmetry, "euler_field"),
        (generate, "graph_of"), (geometry, "taylor_tensors"), (geometry, "indicator_tensor"),
        (geometry, "metric_inverse")])
    assert run(capsys, ["verify", "--n", "7", "--checks", check])[0] == 0
    assert calls == CHECK_FACTS[check]


def term(n, exps):
    return Polynomial(n, [(exps, 1)])


# Check -> a change d of Phi_n, at n, that the check must detect.
CHANGED_PHI = {
    "annihilation": lambda n: term(n, {1: 2}),
    "homogeneity": lambda n: term(n, {1: 2}),
    "isotropy": lambda n: term(n, {1: 2}),
    "traces": lambda n: term(n, {1: 2, n - 1: 1}),
    "hessian": lambda n: term(n, {1: 2, n - 1: 1}),
    # Weight 2n; its partner x1^2 x_(n-2) under i -> n - i is a term of Phi_n.
    "pick": lambda n: term(n, {2: 1, n - 1: 2}),
    # Removes the x1 x_(n-1) term, which leaves 2 zero directions.
    "signature": lambda n: term(n, {1: 1, n - 1: 1}) * -generate.cayley_poly(n).coefficient({1: 1, n - 1: 1}),
    "ruling": lambda n: term(n, {n - 1: 2}),
}

# Check -> a change of the variant surface that the check must detect.
CHANGED_VARIANT = {
    "isotropy": term(4, {2: 1, 3: 2}),
    "ruling": term(4, {2: 1, 3: 2}),
    "hessian": term(4, {2: 1, 3: 2}),
    "traces": term(4, {1: 2, 3: 1}),
    "pick": term(4, {3: 3}),
    "signature": -term(4, {1: 1, 3: 1}),
}


def test_each_check_fails_on_a_changed_surface(monkeypatch):
    for n in range(4, 11):
        phi = generate.cayley_poly(n)
        t = cli._Target(phi, "cayley")
        assert all(check(t)[0] for check in cli.CHECKS.values()), n
        for name, change in CHANGED_PHI.items():
            ok, detail = cli.CHECKS[name](cli._Target(phi + change(n), "cayley"))
            assert not ok, (n, name)
            if name == "pick":
                # The indicator tensors read n only, so their value stays 0 on every changed surface.
                assert detail == "Pick invariant: taylor -16/3, indicator 0"
    variant = generate.variant_surface_4()
    assert all(cli.CHECKS[name](cli._Target(variant, "variant"))[0] for name in cli.VARIANT_CHECKS)
    for name, change in CHANGED_VARIANT.items():
        assert not cli.CHECKS[name](cli._Target(variant + change, "variant"))[0], name
    # abelian reads the shift fields only: give X_1 the extra term x2 d/dx1.
    fields = symmetry.cayley_fields

    def bent_fields(n):
        first, *rest = fields(n)
        return [AffineVectorField((first.coefficients[0] + Polynomial.variable(n, 2), *first.coefficients[1:])), *rest]

    monkeypatch.setattr(symmetry, "cayley_fields", bent_fields)
    for n in range(4, 11):
        assert not cli._check_abelian(cli._Target(generate.cayley_poly(n), "cayley"))[0], n


def test_verify_builds_each_surface_when_its_target_comes(capsys, monkeypatch):
    events = []
    build, ruling = generate.cayley_poly, cli.CHECKS["ruling"]

    def logged_build(n):
        events.append(("build", n))
        return build(n)

    def logged_ruling(t):
        events.append(("check", t.n))
        return ruling(t)

    monkeypatch.setattr(generate, "cayley_poly", logged_build)
    monkeypatch.setitem(cli.CHECKS, "ruling", logged_ruling)
    assert run(capsys, ["verify", "--n", "3..5", "--checks", "ruling"])[0] == 0
    assert events == [(step, n) for n in (3, 4, 5) for step in ("build", "check")]
    events.clear()
    # The n = 4 target is checked before n = 5 is refused, and no report is printed.
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--n", "4..5", "--variant", "--checks", "ruling"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "the variant surface exists only for n = 4" in err
    assert events == [("check", 4)]


INVARIANTS_AGREE_CASES = [["--n", str(n)] for n in range(3, 13)] + [["--variant"]]
INVARIANTS_AGREE_CASES += [["--n", str(n), f"--b={b}"] for b in ("1/2", "-7/3", "3", "5/3") for n in range(5, 10)]


@pytest.mark.parametrize("case", INVARIANTS_AGREE_CASES, ids=" ".join)
def test_invariants_and_verify_read_the_same_facts(capsys, monkeypatch, case):
    calls = count_calls(monkeypatch, [(generate, "graph_of"), (geometry, "taylor_tensors"),
                                      (geometry, "indicator_tensor"), (geometry, "metric_inverse")])
    parser = cli.build_parser()
    args = parser.parse_args(["invariants", *case])
    t = cli._surface(parser, args, args.n)  # no fact is computed before a check reads it
    code, out = run(capsys, ["invariants", *case])
    assert code == 0
    # One graph, one Taylor pass and its one inverse metric; no indicator tensor, even on Phi_n.
    assert calls == {"graph_of": 1, "taylor_tensors": 1, "metric_inverse": 1}
    report = json.loads(out)
    sig = report["signature"]
    assert cli._check_signature(t)[1].startswith(f"signature ({sig['pos']}, {sig['neg']}, {sig['zero']})")
    pick = cli._check_pick(t)[1].removeprefix("Pick invariant: ").split(", ")
    assert f"taylor {report['pick']}" in pick
    assert cli._check_hessian(t) == (True, f"Hessian determinant constant = {report['hessian_det_value']}")


def test_symmetries_builds_and_eliminates_its_system_once(capsys, monkeypatch, tmp_path):
    solved = []  # the total degree of each polynomial whose algebra is solved
    original = symmetry.symmetry_algebra

    def counted(p):
        solved.append(p.total_degree())
        return original(p)

    monkeypatch.setattr(symmetry, "symmetry_algebra", counted)
    path = tmp_path / "graded.json"
    path.write_text(json.dumps(poly_to_json_dict(seeded_polys(2)[0])))
    # The algebra's system alone: the isotropy is read off the algebra.
    for argv, degree in ((["--n", "6"], 6), (["--file", str(path)], seeded_polys(2)[0].total_degree())):
        code, out = run(capsys, ["symmetries", *argv])
        assert code == 0 and json.loads(out)["isotropy"]["dimension"] > 0
        assert solved == [degree]
        solved.clear()
    # 1 + x1 - x2 does not vanish at the origin: still one solve, and no isotropy.
    path.write_text(json.dumps(poly_to_json_dict(Polynomial(2, [({}, 1), ({1: 1}, 1), ({2: 1}, -1)]))))
    code, out = run(capsys, ["symmetries", "--file", str(path)])
    assert code == 0 and json.loads(out)["isotropy"] is None
    assert solved == [1]
    solved.clear()
    # verify's isotropy check solves the algebra of Phi_n's terms of degree <= 3, once per target.
    assert run(capsys, ["verify", "--n", "3..5", "--checks", "isotropy"])[0] == 0
    assert solved == [3] * 3


def test_pick_alone_builds_the_indicator_tensors_of_orders_2_and_3(capsys, monkeypatch):
    built = []
    original = geometry.indicator_tensor

    def counted(n, m):
        built.append((n, m))
        return original(n, m)

    monkeypatch.setattr(geometry, "indicator_tensor", counted)
    assert run(capsys, ["verify", "--n", "8", "--checks", "pick"])[0] == 0
    assert built == [(8, 2), (8, 3)]
    built.clear()
    # traces reads every order 3..n; pick after it builds nothing more.
    assert run(capsys, ["verify", "--n", "8", "--checks", "traces,pick"])[0] == 0
    assert built == [(8, m) for m in range(2, 9)]


def test_verify_unknown_check(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--n", "4", "--checks", "nonsense"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_verify_variant_isotropy(capsys):
    code, out = run(capsys, ["verify", "--n", "4", "--variant", "--checks", "isotropy"])
    assert code == 0
    report = json.loads(out)
    check = report["reports"][0]["checks"][0]
    assert check["status"] == "pass"
    assert "dimension 2" in check["detail"]
    assert report["reports"][0]["target"] == {"n": 4, "variant": True}


def test_verify_variant_all_restricted(capsys):
    code, out = run(capsys, ["verify", "--n", "4", "--variant"])
    assert code == 0
    report = json.loads(out)
    names = [c["name"] for c in report["reports"][0]["checks"]]
    assert names == cli.VARIANT_CHECKS
    assert report["pass"] is True


def test_verify_variant_rejects_inapplicable_check(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--n", "4", "--variant", "--checks", "annihilation"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_verify_needs_three_variables(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--n", "2"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_verify_reports_failure_with_exit_one(capsys, monkeypatch):
    monkeypatch.setitem(cli.CHECKS, "pick", lambda target: (False, "forced failure"))
    code, out = run(capsys, ["verify", "--n", "3", "--checks", "pick"])
    assert code == 1
    report = json.loads(out)
    assert report["pass"] is False
    assert report["reports"][0]["checks"][0]["status"] == "fail"


def test_verify_is_deterministic(capsys):
    _, first = run(capsys, ["verify", "--n", "3..4", "--checks", "orbit,isotropy"])
    _, second = run(capsys, ["verify", "--n", "3..4", "--checks", "orbit,isotropy"])
    assert first == second


def test_large_n_guard(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["generate", "--n", "21"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out = run(capsys, ["generate", "--n", "21", "--force"])
    assert code == 0
    assert out.startswith("x21 = ")


def test_symmetries_file_is_guarded(capsys, tmp_path):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(poly_to_json_dict(Polynomial(21, [({21: 1}, -1), ({1: 2}, 1)]))))
    with pytest.raises(SystemExit) as exc:
        cli.main(["symmetries", "--file", str(path)])
    assert exc.value.code == 2
    assert "exceeds the guard" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["generate", "verify", "symmetries", "invariants"])
def test_huge_n_is_guarded_before_a_surface_is_built(capsys, monkeypatch, command):
    # cayley_poly is family_poly at b = 0, so this also catches a Phi_n build.
    def refuse(*args):
        raise AssertionError("family_poly ran before the guard")

    monkeypatch.setattr("cayley.generate.family_poly", refuse)
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--n", "99999999999999999999"])
    assert exc.value.code == 2
    assert "exceeds the guard" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [["--n", "7"], ["--b", "1/2"], ["--variant"]])
def test_symmetries_file_excludes_other_surface_options(capsys, tmp_path, extra):
    path = tmp_path / "phi3.json"
    path.write_text(json.dumps(poly_to_json_dict(Polynomial(3, [({3: 1}, -1), ({1: 2}, 1)]))))
    with pytest.raises(SystemExit) as exc:
        cli.main(["symmetries", "--file", str(path), *extra])
    assert exc.value.code == 2
    assert "--file does not take --n, --b or --variant" in capsys.readouterr().err


def test_huge_verify_range_is_guarded_before_it_is_built(capsys):
    # Exit 2 with the guard message, not a MemoryError from listing 10^12 dimensions.
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--n", "3..1000000000000"])
    assert exc.value.code == 2
    assert "n=1000000000000 exceeds the guard" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--n", "3..1000000000000", "--force", "--variant"])
    assert exc.value.code == 2
    assert "the variant surface exists only for n = 4" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["3", "3..4", "5..5", "4..5"])
def test_verify_variant_needs_exactly_n_4(capsys, n):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--n", n, "--variant", "--checks", "isotropy"])
    assert exc.value.code == 2
    assert "the variant surface exists only for n = 4" in capsys.readouterr().err


def test_verify_variant_accepts_range_4_to_4(capsys):
    assert run(capsys, ["verify", "--n", "4..4", "--variant", "--checks", "isotropy"]) == run(
        capsys, ["verify", "--n", "4", "--variant", "--checks", "isotropy"]
    )


def test_symmetries_cayley(capsys):
    code, out = run(capsys, ["symmetries", "--n", "3"])
    assert code == 0
    data = json.loads(out)
    assert data["source"] == "cayley"
    assert data["dimension"] == 3
    assert data["isotropy"]["dimension"] == 1
    assert len(data["basis"]) == 3
    for entry in data["basis"]:
        assert set(entry) == {"n", "constant", "linear", "eigenvalue"}
    # The shift field X_2 = d/dx_2 + x_1 d/dx_3, with eigenvalue 0.
    assert data["basis"][0] == {
        "n": 3,
        "constant": ["0", "1", "0"],
        "linear": [["0", "0", "1"], ["0", "0", "0"], ["0", "0", "0"]],
        "eigenvalue": "0",
    }


def test_symmetries_variant_isotropy_subreport(capsys):
    code, out = run(capsys, ["symmetries", "--n", "4", "--variant"])
    assert code == 0
    data = json.loads(out)
    assert data["source"] == "variant"
    assert data["isotropy"]["dimension"] == 2


def _field_from_json(entry):
    return AffineVectorField(affine_polys(
        [Fraction(v) for v in entry["constant"]],
        [[Fraction(v) for v in row] for row in entry["linear"]],
    ))


def test_symmetries_from_file_contains_rotation(capsys, tmp_path):
    quadric = Polynomial(3, [({1: 2}, 1), ({2: 2}, 1), ({3: 1}, -1)])
    path = tmp_path / "quadric.json"
    path.write_text(json.dumps(poly_to_json_dict(quadric)))
    code, out = run(capsys, ["symmetries", "--file", str(path)])
    assert code == 0
    data = json.loads(out)
    assert data["source"] == "file"
    basis = tuple(_field_from_json(entry) for entry in data["basis"])
    algebra = SymmetryAlgebra(basis, tuple(Fraction(0) for _ in basis))
    rotation = AffineVectorField(affine_polys([0, 0, 0], [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]))
    assert span_contains(algebra, [rotation])


def test_symmetries_bad_file(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(SystemExit) as exc:
        cli.main(["symmetries", "--file", str(path)])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(["symmetries", "--file", str(tmp_path / "missing.json")])
    assert exc.value.code == 2
    capsys.readouterr()


def test_symmetries_deeply_nested_file_is_a_usage_error(capsys, tmp_path):
    # The JSON decoder gives up on this with a RecursionError, not a ValueError.
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(SystemExit) as exc:
        cli.main(["symmetries", "--file", str(path)])
    assert exc.value.code == 2
    assert "cannot read polynomial file" in capsys.readouterr().err


def test_symmetries_file_zero_denominator(capsys, tmp_path):
    path = tmp_path / "zero_den.json"
    path.write_text(json.dumps({"n": 2, "terms": [{"exps": [[1, 1]], "num": "1", "den": "0"}]}))
    with pytest.raises(SystemExit) as exc:
        cli.main(["symmetries", "--file", str(path)])
    assert exc.value.code == 2
    assert "cannot read polynomial file" in capsys.readouterr().err


@pytest.mark.parametrize(
    "data",
    [
        {"n": 2, "terms": [{"exps": [[1, 2.7]], "num": "1", "den": "1"}]},
        {"n": 2, "terms": [{"exps": [[1, 1]], "num": 1.5, "den": "1"}]},
        {"n": 2.9, "terms": [{"exps": [[1, 1]], "num": "1", "den": "1"}]},
        {"n": 2, "terms": [{"exps": [[1, True]], "num": "1", "den": "1"}]},
    ],
)
def test_symmetries_file_non_integer(capsys, tmp_path, data):
    # Each of these was once truncated by int() and solved for another polynomial.
    path = tmp_path / "non_integer.json"
    path.write_text(json.dumps(data))
    with pytest.raises(SystemExit) as exc:
        cli.main(["symmetries", "--file", str(path)])
    assert exc.value.code == 2
    assert "cannot read polynomial file" in capsys.readouterr().err


@pytest.mark.parametrize("form", NON_ARRAY_JSON)
def test_symmetries_file_needs_json_arrays(capsys, tmp_path, form):
    path = tmp_path / "non_array.json"
    path.write_text(json.dumps(NON_ARRAY_JSON[form]))
    with pytest.raises(SystemExit) as exc:
        cli.main(["symmetries", "--file", str(path)])
    assert exc.value.code == 2
    assert "malformed polynomial JSON" in capsys.readouterr().err


@pytest.mark.parametrize("num", ["1" * 4301, '"' + "1" * 4301 + '"'], ids=["literal", "string"])
def test_symmetries_file_integer_digits_are_bounded(capsys, tmp_path, num):
    # main lifts the interpreter's int-to-str limit, so the bound is the parser's own.
    path = tmp_path / "long.json"
    path.write_text('{"n": 2, "terms": [{"exps": [[1, 1]], "num": ' + num + ', "den": "1"}]}')
    with pytest.raises(SystemExit) as exc:
        cli.main(["symmetries", "--file", str(path)])
    assert exc.value.code == 2
    assert "cannot read polynomial file" in capsys.readouterr().err


def test_symmetries_file_with_a_huge_exponent_finishes(tmp_path):
    # x1^(10^9) - x2: the solver only multiplies by the exponent and the origin test reads the
    # constant term, so this takes milliseconds.  A kernel that stepped through every power up
    # to the exponent would run out of the child's address space instead.
    path = tmp_path / "huge_exponent.json"
    path.write_text(json.dumps({"n": 2, "terms": [{"exps": [[1, 10**9]], "num": 1, "den": 1},
                                                  {"exps": [[2, 1]], "num": -1, "den": 1}]}))
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    limit = 1 << 30
    proc = subprocess.run([sys.executable, "-m", "cayley.cli", "symmetries", "--file", str(path)],
                          capture_output=True, env=env, timeout=30,
                          preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert (proc.returncode, proc.stderr) == (0, b"")
    data = json.loads(proc.stdout)
    # The one symmetry is the weighted Euler field x1/10^9 d/dx1 + x2 d/dx2, with eigenvalue 1.
    euler = AffineVectorField(affine_polys([0, 0], [[Fraction(1, 10**9), 0], [0, 1]]))
    assert [_field_from_json(entry) for entry in data["basis"]] == [euler]
    assert [entry["eigenvalue"] for entry in data["basis"]] == ["1"]
    assert data["isotropy"]["dimension"] == 1


def test_verify_isotropy_at_n_40_fits_in_a_gibibyte():
    # The check solves the algebra of Phi_40's terms of degree <= 3 (1641 unknowns, 9030 rows)
    # and applies its one isotropy field to Phi_40's 37338 terms.  Solving the linear
    # isotropy's system on Phi_40 itself peaked at about 2.2 GB and took half a minute.
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    limit = 1 << 30
    argv = ["verify", "--n", "40", "--checks", "isotropy", "--force"]
    proc = subprocess.run([sys.executable, "-m", "cayley.cli", *argv], capture_output=True, env=env, timeout=60,
                          preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert (proc.returncode, proc.stderr) == (0, b"")
    [report] = json.loads(proc.stdout)["reports"]
    assert report["checks"] == [{"name": "isotropy", "status": "pass",
                                 "detail": "linear isotropy dimension 1 (expected 1, spanned by H)"}]


def test_symmetries_file_with_a_constant_term_has_no_isotropy(capsys, tmp_path):
    # 1 + x1 - x2 does not vanish at the origin, so there is no isotropy to solve for.
    path = tmp_path / "constant_term.json"
    path.write_text(json.dumps(poly_to_json_dict(Polynomial(2, [({}, 1), ({1: 1}, 1), ({2: 1}, -1)]))))
    code, out = run(capsys, ["symmetries", "--file", str(path)])
    assert code == 0
    assert '\n  "isotropy": null\n' in out
    # X p = X_1 - X_2 = c p: three equations on seven unknowns (c, the constants, the linear part).
    assert json.loads(out)["dimension"] == 4


def test_invariants_bundle_output(capsys):
    code, out = run(capsys, ["invariants", "--n", "4"])
    assert code == 0
    assert json.loads(out) == {
        "n": 4,
        "signature": {"pos": 2, "neg": 1, "zero": 0},
        "pick": "0",
        "hessian_det_constant": True,
        "hessian_det_value": "-1",
        "ruling": {"dim": 1, "linear": True},
        "source": "cayley",
    }


def test_invariants_variant(capsys):
    code, out = run(capsys, ["invariants", "--variant"])
    assert code == 0
    data = json.loads(out)
    assert data["source"] == "variant"
    assert data["signature"]["zero"] == 0
    assert data["pick"] == "0"
    assert data["hessian_det_constant"] is True
    assert data["hessian_det_value"] == "-1"
    assert data["ruling"] == {"dim": 1, "linear": True}


def test_invariants_family(capsys):
    code, out = run(capsys, ["invariants", "--n", "5", "--b", "1"])
    assert code == 0
    data = json.loads(out)
    assert data["source"] == "family"
    assert data["signature"] == {"pos": 2, "neg": 2, "zero": 0}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["generate", "--n", "3", "--variant"], "the variant surface exists only for n = 4"),
        (["verify", "--n", "2"], "verify needs n >= 3"),
        (["symmetries"], "--n is required"),
        (["invariants", "--n", "2"], "invariants need n >= 3"),
        (["verify", "--n", "3", "--checks", "pick,pick"], "check 'pick' is listed twice"),
    ],
)
def test_driver_errors_print_the_subcommand_usage(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: cayley {argv[0]} [-h]")
    assert err.endswith(f"cayley {argv[0]}: error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [["generate", "--n", "3"], ["generate", "--n", "20", "--format", "json"], ["verify", "--n", "3..6"], ["--help"]],
)
def test_closed_stdout_exits_141_without_a_traceback(argv):
    # The read end is closed before the child starts, so its first write to stdout fails:
    # at the final flush for a short output, inside print for one larger than the stdout
    # buffer.  PYTHONUNBUFFERED would make every output take the second path.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    try:
        proc = subprocess.run([sys.executable, "-m", "cayley.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=env)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_readme_generate_examples(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    examples = [
        (shlex.split(line)[2:], readme[i + 1])
        for i, line in enumerate(readme)
        if line.startswith("$ cayley generate") and readme[i + 1].strip()
    ]
    assert len(examples) == 2
    for argv, shown in examples:
        assert run(capsys, argv) == (0, shown + "\n")
