"""Quick tests of the benchmark itself.

    python3 -m pytest -q bench

They run small cases through the same code paths as the workloads.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for path in (str(BENCH), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _case(case_id, argv, expect):
    return workloads.Case(case_id, tuple(argv), expect, " ".join(argv))


SMALL = [
    _case("verify-n3", ["verify", "--n", "3", "--checks", "all"], {"ns": [3], "checks": workloads.ALL_CHECKS}),
    _case("sym-phi4", ["symmetries", "--n", "4"], {"dimension": 4, "isotropy": 1}),
]


def _smoke(monkeypatch, capsys, trace: int) -> tuple[list[str], dict]:
    monkeypatch.setattr(workloads, "build", lambda *args: list(SMALL))
    code = run.main(["--workload", "verify-ladder", "--seed", "1", "--seconds", "0", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    return lines, json.loads(lines[-1])


def test_smoke_run_prints_every_end_to_end_metric_with_its_unit(monkeypatch, capsys):
    lines, result = _smoke(monkeypatch, capsys, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # Two untraced passes at least.
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] == 2 * len(SMALL)
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
        assert any(line.startswith(m["name"] + " ") and line.endswith(" " + m["unit"]) for line in lines)
    assert any(line.startswith("failed_share ") for line in lines)


def test_smoke_traced_run_prints_every_per_layer_metric_with_its_unit(monkeypatch, capsys):
    lines, result = _smoke(monkeypatch, capsys, 1)
    assert result["correct"] is True
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for m in SPEC["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(m["name"] + " ") and line.endswith(" " + m["unit"]) for line in lines)
    assert result["metrics"]["cli.main.calls"]["value"] == len(SMALL)
    assert result["metrics"]["linalg.nullspace.calls"]["value"] > 0


def test_forced_timeout_is_killed_and_counted_as_failed():
    slow = _case("verify-n7", ["verify", "--n", "7", "--checks", "all"], {"ns": [7], "checks": workloads.ALL_CHECKS})
    result = run.measure([slow], seconds=0, trace=False, case_limit=0.2)
    records = [r for p in result["passes"] for r in p["records"]]
    assert len(records) == 2
    for record in records:
        assert record["status"] == "timeout" and record["exit"] is None
        assert record["raw_seconds"] < 5
    assert (result["attempted"], result["failed"], result["correct"]) == (2, 2, False)
    assert result["failed_share"] == 1
    assert result["metrics"]["pass_share"]["value"] == 0


def test_wrong_verdict_is_counted_as_failed():
    wrong = _case("sym-phi4", ["symmetries", "--n", "4"], {"dimension": 5, "isotropy": 1})
    result = run.measure([wrong], seconds=0, trace=False)
    statuses = {r["status"] for p in result["passes"] for r in p["records"]}
    assert len(statuses) == 1 and statuses.pop().startswith("wrong verdict")
    assert (result["failed"], result["correct"]) == (2, False)


def _bindings() -> dict:
    import cayley.cli  # noqa: F401  (loads every module of the package)

    out = {}
    for key, module in sys.modules.items():
        if key == "cayley" or key.startswith("cayley."):
            out.update({(key, name): value for name, value in vars(module).items()})
    for cls in (sys.modules["cayley.poly"].Polynomial, sys.modules["cayley.symmetry"].AffineVectorField):
        out.update({(cls.__qualname__, name): value for name, value in vars(cls).items()})
    return out


def test_wrappers_are_bound_everywhere_and_restored(capsys):
    import cayley.cli
    import cayley.geometry
    import cayley.poly

    before = _bindings()
    original = cayley.poly.determinant
    with tracer.Tracer("t") as t:
        assert cayley.poly.determinant is not original
        # geometry imported determinant by name; it must see the same wrapper.
        assert cayley.geometry.determinant is cayley.poly.determinant
        assert cayley.cli.main(["verify", "--n", "4", "--checks", "all"]) == 0
    capsys.readouterr()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    names = {span[0] for span in t.spans}
    assert {"cli.main", "poly.determinant", "geometry.hessian_determinant", "linalg.nullspace"} <= names
    for span in t.spans:
        assert span[1] <= span[2]
        assert span[3] is None or t.spans[span[3]][1] <= span[1]


def test_self_time_within_total_and_counts_repeat_across_traced_runs():
    first, second = (run.measure(SMALL, seconds=0, trace=True) for _ in range(2))
    for result in (first, second):
        assert result["correct"] is True
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        for name in tracer.SPAN_NAMES:
            assert 0 <= metrics[f"{name}.self_s"] <= metrics[f"{name}.total_s"] + 1e-9
    for name, unit in run.layer_metric_units().items():
        if unit == "count":
            assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_stdout_digest_repeats_between_traced_and_untraced_runs():
    result = run.measure(SMALL[:1], seconds=0, trace=True)
    digests = {r["sha256"] for p in result["passes"] for r in p["records"]}
    assert len(result["passes"]) == 2 and len(digests) == 1


def test_pinned_family_answers_match_the_dense_oracle():
    from cayley import family_poly

    oracles = workloads.load_oracles(ROOT)
    for b, answer in workloads.FAMILY_ANSWERS.items():
        p = family_poly(8, Fraction(b))
        assert workloads.dense_dimensions(ROOT, 8, oracles.dense_from_sparse(p)) == answer


def test_seeded_inputs_repeat_and_are_graded_as_declared():
    for kind, shape, count in workloads.FILE_SLOTS:
        n, terms = workloads.random_terms(ROOT, random.Random(7), kind, shape, count)
        assert workloads.random_terms(ROOT, random.Random(7), kind, shape, count) == (n, terms)
        assert len(terms) == count and 8 <= n <= 10
        assert all(sum(e) >= 1 for e in terms)
        if kind == "graded":
            assert {sum(w * k for w, k in zip(shape, e)) for e in terms} == {workloads.GRADED_WEIGHT}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(SPEC["command"] + ["--workload", "verify-ladder", "--seed", "1", "--seconds", "1",
                                             "--trace", "0"], cwd=tmp_path, capture_output=True, timeout=60)
    assert proc.returncode != 0
    assert b'"correct"' not in proc.stdout
