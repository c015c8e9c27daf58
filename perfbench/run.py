"""covex benchmark: seeded workloads run against the package from outside.

    python3 perfbench/run.py --workload calibrate|kl-multidegree|member-query \
        --seed N --seconds S --trace 0|1 [--scale full|tiny]

Run from the root of a checkout; the package is imported from ./src.  With
``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics of BENCHMARK.json; with ``--trace 1`` it carries the per-layer
metrics of a traced run, beside an untraced run of the same inputs.  Lines
before it are for people: environment, per-suite digests, the fail ratio
with its base, and every metric with its unit.  perfbench/README.md has the
workloads, the metrics and the rules they follow.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("calibrate", "kl-multidegree", "member-query")
SETUP_SAMPLES = 9
RUN_LIMIT_S = 170  # every child is killed before the run reaches this age
TRACE_BUDGET_FACTOR = 3  # a traced run's stream budget, in multiples of --seconds


class BenchError(Exception):
    """The benchmark could not produce a result."""


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((src / "covex").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def environment() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "loadavg_at_start": os.getloadavg(),
    }


class Runner:
    def __init__(self, root: Path, args: argparse.Namespace):
        self.root = root
        self.args = args
        self.src = root / "src"
        self.started = time.monotonic()
        paths = (str(self.src), os.environ.get("PYTHONPATH", ""))
        # Bytecode caches are always written, and kept in the benchmark's own
        # state directory, so every import after the first reads them, as a
        # user's second invocation would, whatever the environment says or
        # the checkout holds.  OpenBLAS gets one thread: covex makes no BLAS
        # call, the workloads are one thread by design, and starting the
        # default pool on the other core made `import numpy` swing between
        # about 0.09 and 0.16 s with that core's availability.
        self.env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(p for p in paths if p),
            PYTHONPYCACHEPREFIX=str(root / ".perfbench_state" / "pycache"),
            OPENBLAS_NUM_THREADS="1",
        )
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.work = root / ".perfbench_work" / f"run-{os.getpid()}"
        self.environment = environment()

    def remaining(self) -> float:
        left = RUN_LIMIT_S - (time.monotonic() - self.started)
        if left <= 1:
            raise BenchError(f"run limit of {RUN_LIMIT_S} s reached")
        return left

    def child(self, argv: list[str]) -> str:
        """Run `python3 argv` in the checkout; its stdout, or BenchError."""
        try:
            proc = subprocess.run(
                [sys.executable, *argv],
                env=self.env,
                cwd=self.root,
                capture_output=True,
                text=True,
                timeout=self.remaining(),
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{argv[0]} did not finish within the run limit") from exc
        if proc.returncode != 0:
            raise BenchError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr[-2000:]}")
        return proc.stdout

    def setup_times(self, samples: int) -> list[tuple[float, float]]:
        """(seconds from a fresh interpreter to `import covex.cli` done, speed
        factor sampled meanwhile), from several fresh interpreters."""
        return [
            tuple(map(float, self.child([str(HERE / "speed.py"), "covex.cli"]).split()))
            for _ in range(samples)
        ]

    def worker(self, tag: str, trace: bool, seconds: float) -> dict:
        spec = {
            "workload": self.args.workload,
            "seed": self.args.seed,
            "seconds": seconds,
            "scale": self.args.scale,
            "trace": trace,
            "src": str(self.src),
            "query_dir": str(self.work / "queries"),
            "out": str(self.work / f"{tag}.result.json"),
        }
        spec_path = self.work / f"{tag}.spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        self.child([str(HERE / "worker.py"), str(spec_path)])
        return json.loads(Path(spec["out"]).read_text(encoding="utf-8"))

    def run(self) -> dict:
        args = self.args
        self.work.mkdir(parents=True, exist_ok=True)
        try:
            if args.workload == "member-query":
                self.child([str(HERE / "queries.py"), "--seed", str(args.seed),
                            "--out", str(self.work / "queries"), "--scale", args.scale])
            traced = None
            if args.trace:
                # both sides get room for the whole query stream, so they do
                # the same work and the counts repeat exactly at one seed
                setup = []
                plain = self.worker("plain", False, TRACE_BUDGET_FACTOR * args.seconds)
                budget = min(TRACE_BUDGET_FACTOR * args.seconds, self.remaining() - 5)
                traced = self.worker("traced", True, budget)
            else:
                # The first import writes the bytecode caches (a fresh
                # checkout compiles everything here).  The setup samples
                # straddle the workload, so a slow spell of the host does not
                # set all of them.
                self.setup_times(1)
                setup = self.setup_times(SETUP_SAMPLES // 2)
                plain = self.worker("plain", False, args.seconds)
                setup += self.setup_times(SETUP_SAMPLES - len(setup))
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        return summarize(self.root, args, self.environment, setup, plain, traced)


# ------------------------------------------------------------------ summary


def check_digests(root: Path, args, results: list[dict]) -> list[str]:
    """Suite reports must be byte-identical traced or not, and across runs at
    one seed of the same source; mismatches are returned."""
    state_path = root / ".perfbench_state" / "digests.json"
    try:
        state = json.loads(state_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        state = {}
    src = source_digest(root / "src")
    problems = []
    for job in (job for result in results for job in result["jobs"] if "sha256" in job):
        key = f"{args.workload}|{args.scale}|seed={args.seed}|{job['name']}|" \
              f"nmax={job['nmax']}|src={src}"
        seen = state.setdefault(key, job["sha256"])
        if seen != job["sha256"]:
            problems.append(f"{job['name']}: report sha256 {job['sha256']} != {seen}")
    state_path.parent.mkdir(exist_ok=True)
    state_path.write_text(json.dumps(state, indent=1, sort_keys=True), encoding="utf-8")
    return problems


def summarize(
    root: Path,
    args,
    env: dict,
    setup: list[tuple[float, float]],
    plain: dict,
    traced: dict | None,
) -> dict:
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    print(f"workload {args.workload}  seed {args.seed}  scale {args.scale}  "
          f"source {source_digest(root / 'src')}")
    print("environment " + json.dumps(env, sort_keys=True))
    results = [plain] + ([traced] if traced else [])
    for job in plain["jobs"]:
        if "sha256" in job:
            print(f"  {job['name']:<16} nmax {job['nmax']} {job['operations']:>4} verdicts "
                  f"{job['failed']} failed {job['seconds']:8.3f} s  sha256 {job['sha256']}")
    all_jobs = [job for result in results for job in result["jobs"]]
    attempted = sum(job["operations"] for job in all_jobs)
    failed = sum(job["failed"] for job in all_jobs)
    mismatches = check_digests(root, args, results)
    for note in [job["note"] for job in all_jobs if job["failed"]][:10] + mismatches:
        print(f"  FAILED {note}")
    kind = "queries" if args.workload == "member-query" else "suite verdicts"
    print(f"fail_ratio {failed}/{attempted} = {failed / max(attempted, 1):.4f} ({kind})")
    for result in results:
        if len(result["jobs"]) < result["planned_jobs"]:
            print(f"  budget spent after {len(result['jobs'])} of {result['planned_jobs']} jobs")
    if not args.trace:
        # a request is one query, or on a suite workload the whole pass: timed
        # over as long a window as wall_s, where one suite would catch only a
        # few seconds of the host's drifting speed
        if args.workload == "member-query":
            latencies = [job["seconds"] for job in plain["jobs"]]
        else:
            latencies = [plain["wall_s"]]
        factor = plain["speed_factor"]
        raw = {
            "wall_s": plain["wall_s"],
            "query_p50_ms": statistics.median(latencies) * 1000,
            "query_p99_ms": percentile(latencies, 99) * 1000,
        }
        values = {f"norm_{name}": value * factor for name, value in raw.items()}
        values["setup_s"] = statistics.median(seconds * f for seconds, f in setup)
        values["peak_rss_mb"] = plain["peak_rss_mb"]
        print(f"  {len(latencies)} latency sample(s); setup samples as measured "
              f"{', '.join(f'{seconds:.4f}' for seconds, _ in setup)} s, speed factors "
              f"{', '.join(f'{f:.3f}' for _, f in setup)}")
        print(f"  speed factor {factor:.4f} from {plain['probes']} probes; as measured: "
              + ", ".join(f"{name} {value:.6g}" for name, value in raw.items()))
        declared = spec["end_to_end"]
    else:
        values = {name: value for name, (value, unit) in traced["layers"].items()}
        values["proc.cpu_s"] = plain["cpu_s"]
        values["trace.wall_s"] = traced["wall_s"]
        values["trace.overhead_ratio"] = (traced["wall_s"] / len(traced["jobs"])) / (
            plain["wall_s"] / len(plain["jobs"])
        )
        declared = spec["per_layer"]
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:<36} {values[m['name']]:>14.6g} {m['unit']}")
    return {
        "correct": failed == 0 and not mismatches and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="covex benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: n <= 2 and a few dozen queries, for the self-test")
    args = parser.parse_args()
    # on SIGTERM, unwind like Ctrl-C so the running child is killed and reaped
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    root = Path.cwd()
    missing = [p for p in ("src/covex/cli.py", "BENCHMARK.json") if not (root / p).is_file()]
    if missing:
        print(f"error: run from a covex checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    try:
        result = Runner(root, args).run()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        # subprocess.run has killed and reaped the running child
        print("error: interrupted", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
