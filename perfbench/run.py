"""Benchmark of the mhdfem solver, measured from outside the package.

    python3 perfbench/run.py --workload solve-be --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py                 # every workload, one process each

Run from the root of a checkout; the package is imported from its `src/`.
With `--trace 0` the run reports the end-to-end metrics of BENCHMARK.json:
set-up time of a fresh process (median of several), the wall time of the
workload's harness call (median over whole rounds that fill `--seconds`),
its Picard steps, and the process's peak RSS after the first call.  With
`--trace 1` it makes one untraced and one traced call and reports the
per-layer metrics of the traced call plus the tracing overhead.

Every call's output is checked (see workloads.py).  A call that raises or
fails a check counts as failed.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; the full record of the
run, every layer figure included, goes to perfbench/results/.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# fixed before numpy loads; SuperLU is single-threaded, so one BLAS thread
# keeps the run on one core and its timings steady
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60

sys.path.insert(0, str(HERE))
from workloads import (WORKLOADS, check_diagnose, check_solve_be,  # noqa: E402
                       check_study, make_config, picard_steps)


class CheckoutError(Exception):
    """The directory holds no mhdfem sources to benchmark."""


def import_harness():
    init = SRC / "mhdfem" / "__init__.py"
    if not init.is_file():
        raise CheckoutError(f"no mhdfem package under {SRC}")
    sys.path.insert(0, str(SRC))
    import mhdfem.harness as harness
    if Path(harness.__file__).resolve().parent != init.parent:
        raise CheckoutError(f"imported mhdfem from {harness.__file__}, "
                            f"not from {SRC}")
    return harness


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# measurement


def measure_setup(workload, seed) -> list:
    """Seconds from spawning a fresh interpreter until its inputs are ready."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", workload.name, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe exited {code}: {line!r}")
        samples.append(elapsed)
    return samples


class Session:
    """One workload's calls in this process, with their checks."""

    def __init__(self, harness, workload, seed):
        self.workload = workload
        self.seed = seed
        self.config = make_config(harness, workload, seed)
        self.runner = getattr(harness, workload.runner)
        self.reference_errors = None
        if workload.runner == "run_solve":
            # the B-J solve that the B-E errors are checked against; solved
            # once, before any timing, so it shifts no round boundary
            ref_config = harness.load_config(
                dict(workload.config, formulation="BJ", seed=seed))
            self.reference_errors = harness.run_solve(ref_config)["errors"]
        self.walls, self.steps, self.problems = [], [], []
        self.attempted = self.failed = 0
        self.wrong = 0

    def call(self):
        """One timed harness call; checking happens outside the timing."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = self.runner(self.config)
        except Exception as exc:  # a failed call is counted, not fatal
            self.walls.append(time.perf_counter() - t0)
            self.failed += 1
            self.problems.append(f"raised {type(exc).__name__}: {exc}")
            return None
        wall = time.perf_counter() - t0
        self.walls.append(wall)
        return out

    def check(self, out) -> None:
        if out is None:
            return
        problems = self._check(out)
        if problems:
            self.failed += 1
            self.wrong += 1
            self.problems.extend(problems)
        self.steps.append(picard_steps(self.workload, out))

    def _check(self, out) -> list:
        runner = self.workload.runner
        if runner == "run_study":
            return check_study(out, self.config.levels)
        if runner == "run_diagnose":
            return check_diagnose(out)
        return check_solve_be(out, self.reference_errors)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(session, seconds) -> dict:
    setup = measure_setup(session.workload, session.seed)
    start = time.perf_counter()
    rss = None
    while session.attempted == 0 or time.perf_counter() - start < seconds:
        out = session.call()
        if rss is None:
            # later rounds keep earlier meshes' forms cached, so only the
            # first call shows the memory of a process that ran it once
            rss = peak_rss_mb()
        session.check(out)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(session.walls), "s"),
        "picard_steps": (statistics.median_low(session.steps)
                         if session.steps else 0, "count"),
        "peak_rss_mb": (rss, "MB"),
    }
    return {"metrics": metrics, "setup_samples": setup}


def run_traced(session) -> dict:
    from tracing import Tracer, instrument, layer_metrics

    # the first call only warms the process up, so that the traced call and
    # the untraced call it is compared with both run warm
    session.check(session.call())
    tracer = Tracer()
    with instrument(tracer):
        out = session.call()
    session.check(out)
    session.check(session.call())
    _, traced, untraced = session.walls
    metrics = layer_metrics(tracer)
    metrics["trace.wall_s"] = (traced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    return {"metrics": metrics, "untraced_wall_s": untraced}


# ---------------------------------------------------------------------------
# entry points


def _number(value):
    return int(value) if isinstance(value, int) else float(value)


def run_one(args) -> int:
    spec = benchmark_spec()
    workload = WORKLOADS[args.workload]
    try:
        harness = import_harness()
    except CheckoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        make_config(harness, workload, args.seed)
        print("ready", flush=True)
        return 0

    session = Session(harness, workload, args.seed)
    if args.trace:
        record = run_traced(session)
        wanted = spec["per_layer"]
    else:
        record = run_untraced(session, args.seconds)
        wanted = spec["end_to_end"]
    measured = record["metrics"]
    metrics = {}
    for entry in wanted:
        value, unit = measured[entry["name"]]
        if unit != entry["unit"]:
            raise ValueError(f"{entry['name']} is measured in {unit}, "
                             f"BENCHMARK.json says {entry['unit']}")
        metrics[entry["name"]] = {"value": _number(value), "unit": unit}

    print(f"# {workload.name}: {workload.runner} {json.dumps(workload.config)}"
          f" seed={args.seed} blas_threads={BLAS_THREADS} "
          f"calls={session.attempted} walls_s={session.walls}")
    for name, (value, unit) in sorted(measured.items()):
        print(f"{name:32s} {value!r:>24} {unit}")
    for problem in session.problems:
        print(f"FAILED: {problem}")

    result = {"correct": session.wrong == 0, "attempted": session.attempted,
              "failed": session.failed, "metrics": metrics}
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({
        "workload": workload.name, "runner": workload.runner,
        "config": workload.config, "seed": args.seed,
        "seconds": args.seconds, "blas_threads": BLAS_THREADS,
        "cpus": os.cpu_count(), "python": sys.version.split()[0],
        "walls_s": session.walls, "problems": session.problems,
        "all_metrics": {k: {"value": _number(v), "unit": u}
                        for k, (v, u) in measured.items()},
        **{k: v for k, v in record.items() if k != "metrics"},
        "result": result}, indent=2) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in a process of its own, so peak RSS stays per-workload."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {name} exited {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
        print(f"{name}: {results[name]}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=benchmark_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
