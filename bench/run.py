"""The cayley benchmark: CLI workloads timed end to end, or traced per module.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a list of ``cayley`` command lines (see workloads.py).  They
run as a closed loop with one client: one CLI child process at a time, the
next started when the previous one has exited.  Every child's stdout is
checked against a known answer and its sha256 is compared with every other
run of the same case on the same source tree.

``--trace 0`` repeats the case list while the next pass still fits into
``--seconds`` (at least twice) and reports the end-to-end metrics.
``--trace 1`` runs the list once untraced and then traced by tracer.py,
repeated while time allows, and reports one set of metrics per traced
function plus the tracing overhead.

Child times are scaled to a reference machine speed.  Around every case the
benchmark process times a fixed exact-arithmetic loop (``speed_probe``); a
case's seconds are multiplied by REFERENCE_S over the mean of the probes
just before and after it, and a set-up child's by REFERENCE_S over the probe
just before it.  On the two-core virtual machine the benchmark was tuned on,
core speed halved for seconds to minutes at a time, which spread unscaled
times by up to 35 % between runs.  Unscaled seconds and the probes are kept
in the details file.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Per-case details go to
``bench/out/``.  The exit status is 0 whenever that line is printed and 2
when the package or its test oracle is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

CASE_LIMIT_S = 60.0  # a case still running after this is killed and counted as a "timeout"
RUN_LIMIT_S = 160.0  # no case runs past this point of a run, so every run exits within 180 s
SETUP_REPEATS = 10  # at the start of a run
SETUP_PER_PASS = 16  # spread over the cases of each untraced pass
# speed_probe's time on a quiet core of the tuning machine (Python 3.11, 2.1 GHz).
REFERENCE_S = 0.010

# wall_s         one pass over the case list: the sum of the per-case medians
# slowest_case_s the largest per-case median, the cliff of the ladder
# setup_s        median time of a child that runs ``generate --n 3``
# peak_rss_mb    the largest max-RSS of any case child
# pass_share     case runs that gave the known answer, over case runs
#                attempted; this is 1 - failed_share, which would read 0
E2E_UNITS = {
    "wall_s": "s",
    "slowest_case_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_share": "share",
}


def layer_metric_units() -> dict[str, str]:
    """Name -> unit of every metric a traced run reports, in a fixed order."""
    units = {}
    for name in tracer.SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.total_s"] = "s"
        units[f"{name}.self_s"] = "s"
        for key in tracer.size_keys(name):
            units[f"{name}.{key}"] = "count"
    units["trace.overhead_share"] = "share"
    return units


def speed_probe() -> float:
    """The machine's current speed: median time of five fixed Fraction loops."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 4001):
            total += Fraction(1, i % 97 + 1)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


@dataclass
class Child:
    """What one child process did."""

    seconds: float
    rss_mb: float
    exit_code: int | None
    stdout: bytes
    stderr: bytes
    timed_out: bool


class Runner:
    """Starts CLI children against the checkout's ``src`` and waits for each."""

    def __init__(self, scratch: Path, case_limit: float):
        self.scratch = scratch
        self.case_limit = case_limit
        env = dict(os.environ)
        env.pop("CAYLEY_MAX_N", None)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        self.env = env

    def cli(self, argv, timeout: float, spans: Path | None = None, case_id: str = "") -> Child:
        if spans is None:
            cmd = [sys.executable, "-m", "cayley.cli", *argv]
        else:
            cmd = [sys.executable, str(BENCH / "tracer.py"), str(spans), case_id, *argv]
        return self.spawn(cmd, timeout)

    def setup(self) -> Child:
        """One child that starts, imports cayley and finishes the set-up command."""
        return self.cli(workloads.SETUP_ARGV, CASE_LIMIT_S)

    def spawn(self, cmd: list[str], timeout: float) -> Child:
        """Run one child; kill it if it is still running after ``timeout`` seconds.

        The child is reaped with wait4, which gives its own peak RSS, and
        watched through a pidfd, so a kill can never reach a reused pid.
        """
        with tempfile.TemporaryFile(dir=self.scratch) as out, tempfile.TemporaryFile(dir=self.scratch) as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            status = None
            try:
                pidfd = os.pidfd_open(proc.pid)
                try:
                    timed_out = not select.select([pidfd], [], [], max(timeout, 0.0))[0]
                    if timed_out:
                        signal.pidfd_send_signal(pidfd, signal.SIGKILL)
                    _, status, usage = os.wait4(proc.pid, 0)
                    seconds = time.perf_counter() - start
                finally:
                    os.close(pidfd)
            finally:
                if status is None:  # interrupted before the child was reaped
                    proc.kill()
                    proc.wait()
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return Child(seconds, usage.ru_maxrss / 1024, None if timed_out else proc.returncode,
                         out.read(), err.read(), timed_out)


def setup_sample(child: Child, scale: float) -> dict:
    ok = child.exit_code == 0 and child.stdout == workloads.SETUP_STDOUT
    return {"seconds": child.seconds * scale, "raw_seconds": child.seconds, "ok": ok}


def source_digest() -> str:
    """sha256 over the package source, naming the code that produced an output."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def case_status(case: workloads.Case, child: Child) -> str:
    if child.timed_out:
        return "timeout"
    if b"Traceback (most recent call last)" in child.stderr:
        return "traceback"
    if child.exit_code != 0:
        return f"exit code {child.exit_code}"
    reason = workloads.wrong_verdict(case, child.stdout)
    return "ok" if reason is None else f"wrong verdict: {reason}"


def run_pass(runner: Runner, cases, index: int, traced: bool, deadline: float) -> dict:
    """One pass over the case list; ``wall`` is the summed scaled time of its case children.

    An untraced pass also times at least SETUP_PER_PASS set-up children, a
    few before each case, so that the set-up samples are spread over the run.
    """
    records, setups = [], []
    started = time.perf_counter()
    setups_per_case = 0 if traced else -(-SETUP_PER_PASS // len(cases))
    probes = [speed_probe()]
    for case in cases:
        setup_children = [runner.setup() for _ in range(setups_per_case)]
        spans = runner.scratch / f"{case.id}-pass{index}.json" if traced else None
        timeout = min(runner.case_limit, deadline - time.perf_counter())
        child = runner.cli(case.argv, timeout, spans, case.id)
        probes.append(speed_probe())
        # The set-up children ran right after the previous probe.
        setups += [setup_sample(c, REFERENCE_S / probes[-2]) for c in setup_children]
        scale = REFERENCE_S / statistics.mean(probes[-2:])
        records.append({
            "id": case.id,
            "argv": list(case.argv),
            "key": case.key,
            "traced": traced,
            "seconds": child.seconds * scale,
            "raw_seconds": child.seconds,
            "rss_mb": child.rss_mb,
            "exit": child.exit_code,
            "status": case_status(case, child),
            "sha256": hashlib.sha256(child.stdout).hexdigest(),
            "stderr_tail": child.stderr[-300:].decode("utf-8", "replace"),
            "spans": str(spans) if traced and spans.exists() else None,
        })
    return {
        "index": index,
        "traced": traced,
        "wall": sum(r["seconds"] for r in records),
        "elapsed": time.perf_counter() - started,
        "probes": probes,
        "setups": setups,
        "records": records,
    }


def check_digests(passes: list[dict], store: Path, code: str) -> None:
    """Mark every record whose stdout differs from another run of the same case.

    Within the run all passes are compared; across runs, the first digest
    seen for a case on this source tree is kept in ``store``.
    """
    known = json.loads(store.read_text()) if store.exists() else {}
    seen = known.setdefault(code, {})
    for p in passes:
        for r in p["records"]:
            if r["status"] != "ok":
                continue
            first = seen.setdefault(r["key"], r["sha256"])
            if first != r["sha256"]:
                r["status"] = f"nondeterministic output: sha256 {r['sha256']} != {first}"
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, store)


def layer_metrics(records: list[dict]) -> dict[str, float]:
    """Calls, inclusive time, self time and size sums per traced function.

    ``total_s`` counts a span only when no enclosing span has the same name,
    so recursion is not counted twice; ``self_s`` is a span's duration minus
    the durations of its direct children.  Span times are not scaled.
    """
    metrics = {name: 0 for name in layer_metric_units() if name != "trace.overhead_share"}
    for r in records:
        if r["spans"] is None:  # the child was killed before writing its spans
            continue
        spans = json.loads(Path(r["spans"]).read_text())
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
        for i, (name, start, end, parent, _, sizes) in enumerate(spans):
            metrics[f"{name}.calls"] += 1
            metrics[f"{name}.self_s"] += (end - start) - child_time[i]
            outer = parent
            while outer is not None and spans[outer][0] != name:
                outer = spans[outer][3]
            if outer is None:
                metrics[f"{name}.total_s"] += end - start
            for key, value in zip(tracer.size_keys(name), sizes or ()):
                metrics[f"{name}.{key}"] += value
    return metrics


def measure(cases, seconds: float, trace: bool, case_limit: float = CASE_LIMIT_S,
            run_start: float | None = None) -> dict:
    """Set up, run the passes and compute the metrics of one benchmark run.

    No case runs past ``run_start`` (default: now) plus RUN_LIMIT_S.
    """
    if run_start is None:
        run_start = time.perf_counter()
    deadline = run_start + RUN_LIMIT_S
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        runner = Runner(Path(scratch), case_limit)
        runner.setup()  # untimed: writes the bytecode caches
        before = speed_probe()
        first = [runner.setup() for _ in range(SETUP_REPEATS)]
        scale = REFERENCE_S / statistics.mean([before, speed_probe()])
        setups = [setup_sample(c, scale) for c in first]

        passes = []
        measure_start = time.perf_counter()
        # Every case runs at least twice: an untraced and a traced pass, or
        # two untraced passes.
        kinds = [False, True] if trace else [False, False]
        while True:
            traced = kinds[min(len(passes), len(kinds) - 1)]
            passes.append(run_pass(runner, cases, len(passes), traced, deadline))
            now = time.perf_counter()
            needed = passes[-1]["elapsed"]
            if now + needed > deadline or (len(passes) >= len(kinds) and now - measure_start + needed > seconds):
                break
        check_digests(passes, OUT / "digests.json", source_digest())

        records = [r for p in passes for r in p["records"]]
        setups += [s for p in passes for s in p["setups"]]
        failed = sum(r["status"] != "ok" for r in records)
        setup_ok = all(s["ok"] for s in setups)
        plain = [p for p in passes if not p["traced"]]
        traced_passes = [p for p in passes if p["traced"]]
        counts_repeat = True
        if trace:
            per_pass = [layer_metrics(p["records"]) for p in traced_passes]
            exact = [name for name, unit in layer_metric_units().items() if unit == "count"]
            counts_repeat = all([m[k] for k in exact] == [per_pass[0][k] for k in exact] for m in per_pass)
            metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
            metrics["trace.overhead_share"] = (
                statistics.median(p["wall"] for p in traced_passes) / plain[0]["wall"] - 1
            )
            units = layer_metric_units()
        else:
            per_case = {}
            for r in records:
                per_case.setdefault(r["id"], []).append(r["seconds"])
            case_medians = [statistics.median(v) for v in per_case.values()]
            metrics = {
                "wall_s": sum(case_medians),
                "slowest_case_s": max(case_medians),
                "setup_s": statistics.median(s["seconds"] for s in setups),
                "peak_rss_mb": max(r["rss_mb"] for r in records),
                "pass_share": (len(records) - failed) / len(records),
            }
            units = E2E_UNITS
    for r in records:
        del r["spans"]  # the files went with the scratch directory
    return {
        "correct": failed == 0 and setup_ok and counts_repeat,
        "attempted": len(records),
        "failed": failed,
        "failed_share": failed / len(records),
        "setup_ok": setup_ok,
        "trace_counts_repeat": counts_repeat,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "setups": setups,
        "passes": passes,
        "run_s": time.perf_counter() - run_start,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run_start = time.perf_counter()

    missing = [p for p in ("src/cayley/cli.py", "tests/oracles.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"bench: {', '.join(missing)} not found under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2

    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as inputs:
        cases = workloads.build(args.workload, args.seed, ROOT, Path(inputs))
        result = measure(cases, args.seconds, bool(args.trace), run_start=run_start)

    details = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    details.write_text(json.dumps({"workload": args.workload, "seed": args.seed, **result}, indent=1))
    for p in result["passes"]:
        for r in p["records"]:
            if r["status"] != "ok":
                print(f"FAILED pass {p['index']} {r['id']}: {r['status']}")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"failed_share {result['failed_share']:.6g} share")
    print(f"details {details.relative_to(ROOT)}")
    summary = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
