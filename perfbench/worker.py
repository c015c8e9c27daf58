"""One workload pass in a fresh interpreter.

run.py starts this script once per measured run, so the package's caches
start cold as they do for a ``covex`` invocation, and ``ru_maxrss`` is the
peak of the workload process alone.  Usage:

    python3 perfbench/worker.py SPEC.json

SPEC names the workload, seed, time budget, scale, whether to trace, the
query directory (member-query) and the file the result JSON goes to.  An
untraced pass runs under the host-speed probe of speed.py; every time this
script reports excludes the probe's own time.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

# (suite, --nmax) in run order; conormal-grass runs at its acceptance n_max 3
SUITE_WORKLOADS = {
    "calibrate": (
        ("embed-thm", 4),
        ("conormal-matrix", 4),
        ("conormal-flag", 4),
        ("diagram-chase", 4),
        ("rank-lemma", 4),
        ("conormal-grass", 3),
    ),
    "kl-multidegree": (("kl-covex", 4), ("multidegree", 4)),
}
TINY_NMAX = 2
TRIALS = 1


class Clock:
    """Elapsed seconds, less the time the speed probe (if any) took meanwhile."""

    def __init__(self, probe=None):
        self.probe = probe

    def now(self) -> float:
        return time.perf_counter() - (self.probe.spent if self.probe else 0.0)


def invoke(main, argv: list[str], clock: Clock) -> tuple[int | None, str, str, float]:
    """Run covex.cli.main in-process; (exit code or None, stdout, stderr, seconds).

    A crash or a usage error is a failed operation and the run goes on.
    """
    out, err = io.StringIO(), io.StringIO()
    start = clock.now()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse exits on a usage error
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:
        code = None
        err.write(f"{type(exc).__name__}: {exc}")
    return code, out.getvalue(), err.getvalue(), clock.now() - start


def run_suites(cli, spec: dict, clock: Clock) -> dict:
    """Every suite of the workload once; verdicts must all pass with exit 0.

    A job is one suite; its operations are its verdicts.  A crash, or an
    exit code other than 0 without a failed verdict, is one failed operation.
    One pass per process: a second one would find the KL tables and the
    double Schubert cache warm and run several times faster.
    """
    jobs = []
    start = clock.now()
    for suite, nmax in SUITE_WORKLOADS[spec["workload"]]:
        if spec["scale"] == "tiny":
            nmax = min(nmax, TINY_NMAX)
        argv = ["--seed", str(spec["seed"]), "--trials", str(TRIALS), "--nmax", str(nmax),
                "verify", suite]
        code, stdout, err, seconds = invoke(cli.main, argv, clock)
        verdicts = failed = 0
        for line in stdout.splitlines():
            try:
                passed = json.loads(line)["passed"] is True
            except (ValueError, KeyError, TypeError):
                passed = False
            verdicts += 1
            failed += not passed
        if code != 0 and failed == 0:
            verdicts, failed = max(verdicts, 1), failed + 1
        jobs.append(
            {
                "name": suite,
                "nmax": nmax,
                "seconds": seconds,
                "operations": verdicts,
                "failed": failed,
                "note": f"exit {code}: {err.strip()[-300:]}" if failed else "",
                "sha256": hashlib.sha256(stdout.encode()).hexdigest(),
            }
        )
    return {"wall_s": clock.now() - start, "jobs": jobs, "planned_jobs": len(jobs)}


def run_queries(cli, spec: dict, clock: Clock) -> dict:
    """The query stream in order, until it ends or the budget is spent.

    A job is one query: exit code 0 and the expected answer, or one failure.
    """
    queries = json.loads(Path(spec["query_dir"], "queries.json").read_text(encoding="utf-8"))
    jobs = []
    start = clock.now()
    for index, q in enumerate(queries):
        if clock.now() - start >= spec["seconds"]:
            break
        code, stdout, err, seconds = invoke(cli.main, q["argv"], clock)
        try:
            answer = json.loads(stdout)[q["key"]] if code == 0 else None
        except (ValueError, KeyError, TypeError):
            answer = None
        failed = code != 0 or answer is not q["expected"]
        jobs.append(
            {
                "name": f"query {index}",
                "seconds": seconds,
                "operations": 1,
                "failed": int(failed),
                "note": f"covex {' '.join(q['argv'])}: exit {code}, {q['key']} {answer}, "
                f"expected {q['expected']} {err.strip()[-300:]}" if failed else "",
            }
        )
    return {"wall_s": clock.now() - start, "jobs": jobs, "planned_jobs": len(queries)}


def main() -> None:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    import covex.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(spec["src"]).resolve()):
        raise SystemExit(f"imported covex from {cli.__file__}, not from {spec['src']}")
    tracer = probe = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        from speed import SpeedProbe

        probe = SpeedProbe()
    clock = Clock(probe)
    cpu_start = time.process_time()
    if probe is not None:
        probe.start()
    try:
        if spec["workload"] == "member-query":
            result = run_queries(cli, spec, clock)
        else:
            result = run_suites(cli, spec, clock)
    finally:
        if probe is not None:
            probe.stop()
    result["cpu_s"] = time.process_time() - cpu_start
    if probe is not None:
        result["cpu_s"] -= probe.spent
        result["speed_factor"] = probe.factor()
        result["probes"] = len(probe.durations)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["layers"] = tracer.metrics()
    Path(spec["out"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
