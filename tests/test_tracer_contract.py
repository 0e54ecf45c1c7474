"""The traced benchmark run (bench/tracer.py) against the package it wraps.

The tracer rebinds the functions it names in ``TRACED`` and reads problem
sizes off the arguments and results named in ``SIZES``.  Running it in
process on two commands checks that every name still resolves, that
tracing leaves stdout byte-identical and that every sized span gets its
sizes.  Run as a new process, it must also trace the layers that a command
loads only on first use.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cayley import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    return tracer


@pytest.mark.parametrize(
    "argv", [["verify", "--n", "4", "--checks", "all"], ["symmetries", "--n", "4"]]
)
def test_traced_run_matches_untraced_and_records_sizes(capsys, tmp_path, tracer, argv):
    assert cli.main(argv) == 0
    untraced = capsys.readouterr().out

    spans_path = tmp_path / "spans.json"
    assert tracer.main([str(spans_path), "case", *argv]) == 0
    assert capsys.readouterr().out == untraced

    spans = json.loads(spans_path.read_text())
    assert spans and {span[0] for span in spans} <= set(tracer.SPAN_NAMES)
    sized = [span for span in spans if span[0] in tracer.SIZES]
    assert sized
    for name, _, _, _, _, sizes in sized:
        assert sizes is not None and len(sizes) == len(tracer.size_keys(name)), name


@pytest.mark.parametrize(
    "argv, span",
    [(["generate", "--n", "3"], "geometry.graph_of"), (["symmetries", "--n", "4"], "symmetry.symmetry_algebra")],
)
def test_fresh_traced_run_matches_untraced_and_traces_each_layer_it_loads(tmp_path, argv, span):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    untraced = subprocess.run([sys.executable, "-m", "cayley.cli", *argv], capture_output=True, env=env, check=True)
    spans_path = tmp_path / "spans.json"
    traced = subprocess.run([sys.executable, str(BENCH / "tracer.py"), str(spans_path), "case", *argv],
                            capture_output=True, env=env, check=True)
    assert traced.stdout == untraced.stdout
    assert span in {name for name, *_ in json.loads(spans_path.read_text())}
