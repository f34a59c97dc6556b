"""psgmae benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. NAME is ingest_night, train_small,
eval_night, or ``all`` to run the three in turn in this process. Each
workload is set up several times (``setup_s`` is the median), then its
command is repeated for S seconds. With ``--trace 0`` the run prints the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it prints the
per-layer metrics from spans around psgmae's public functions, after an
untraced half that gives the tracing overhead. The last line of stdout is
one JSON object: correct, attempted, failed, metrics. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one BLAS thread, set in this process's own environment before numpy loads;
# children inherit it
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the BLAS variables are set)

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 3               # set-ups per run; setup_s is their median
STARTUP_LAUNCHES = 13    # fresh `import psgmae.cli` children for cli_startup_s
STARTUP_WARMUPS = 2      # untimed launches first: the first ones run up to a third slower
IMPORTTIME_LAUNCHES = 5  # `python -X importtime` children for cli.import_ms.*
# Seconds the reference work takes on the machine the bounds were set on
# (2-core x86-64 VM, Python 3.11, numpy 2.4 + OpenBLAS 0.3.31, one thread).
REFERENCE_S = 0.025


class SpeedProbe:
    """Times fixed reference work (Python bytecode, small float32 matmuls,
    a memory copy) between measured steps.

    On a shared machine the speed of the CPU drifts by a third within
    seconds, and the drift is common to the reference work and to psgmae.
    ``around`` therefore gives, with each step's result, the factor
    REFERENCE_S / (mean reference time before and after the step), which
    turns the step's wall seconds into seconds at the reference speed. The
    reference work is fixed here, so a change to psgmae moves scaled times
    exactly as it moves raw ones.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.random((64, 256), dtype=np.float32)
        self._b = rng.random((256, 64), dtype=np.float32)
        self._block = rng.random(1 << 20)
        self.reference: list[float] = []
        self._last = self._run()

    def _run(self) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(40_000):
            total += i * i
        for _ in range(400):
            np.tanh(self._a @ self._b)
        for _ in range(8):
            self._block.copy()
        return time.perf_counter() - start

    def around(self, step):
        """Run ``step()``; return (its result, the scale factor for it)."""
        before = self._last
        result = step()
        self._last = self._run()
        self.reference.append((before + self._last) / 2)
        return result, REFERENCE_S / self.reference[-1]


def timed(probe: SpeedProbe, step) -> float:
    """Scaled seconds of ``step()``."""
    def run():
        start = time.perf_counter()
        step()
        return time.perf_counter() - start

    wall, scale = probe.around(run)
    return wall * scale


def measure(workload, seconds: float, probe: SpeedProbe) -> tuple[list[float], list[float], list[float]]:
    """Repeat the workload's command until ``seconds`` have passed; return
    per repetition its scaled seconds, records per scaled second and
    records per raw second."""
    walls, rates, raw_rates = [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        (records, wall), scale = probe.around(workload.rep)
        walls.append(wall * scale)
        rates.append(records / walls[-1])
        raw_rates.append(records / wall)
    return walls, rates, raw_rates


def startup_seconds(ctx, probe: SpeedProbe) -> list[float]:
    """Scaled wall of fresh ``import psgmae.cli`` children, one at a time."""
    argv = ["-c", "import psgmae.cli"]
    for _ in range(STARTUP_WARMUPS):
        ctx.launch(argv)
    walls = []
    for _ in range(STARTUP_LAUNCHES):
        (wall, _), scale = probe.around(lambda: ctx.launch(argv))
        walls.append(wall * scale)
    return walls


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        # the ceiling keeps git from finding a repository above the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        proc = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"],
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
        describe = proc.stdout.strip() if proc.returncode == 0 else "not a git checkout"
    except OSError:
        describe = "git not available"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_env": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "git_describe": describe,
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    import tracing
    import workloads

    ctx = workloads.Context(ROOT, work, seed)
    workload = workloads.WORKLOADS[name](ctx)
    probe = SpeedProbe()
    metrics: dict[str, tuple[float, str]] = {}
    notes: dict[str, str] = {}

    if not trace:
        setup_times = [timed(probe, workload.setup) for _ in range(SETUPS)]
        workload.prepare()
        _, rates, raw_rates = measure(workload, seconds, probe)
        startup = startup_seconds(ctx, probe)
        metrics["setup_s"] = (statistics.median(setup_times), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
        metrics["records_per_s"] = (statistics.median(rates), "record/s")
        metrics["cli_startup_s"] = (statistics.median(startup), "s")
        for key, values in (("setup_s", setup_times), ("records_per_s", rates),
                            ("cli_startup_s", startup)):
            q1, _, q3 = quartiles(values)
            notes[key] = f"median of {len(values)}, quartiles {q1:.4g} .. {q3:.4g}"
        notes["records_per_s"] += f", unscaled median {statistics.median(raw_rates):.6g}"
    else:
        setup_tracer = tracing.Tracer()
        with setup_tracer:
            workload.setup()
        workload.prepare()
        breakdowns = [
            workloads.import_breakdown_ms(
                ctx.launch(["-X", "importtime", "-c", "import psgmae.cli"])[1])
            for _ in range(IMPORTTIME_LAUNCHES)
        ]
        untraced, _, _ = measure(workload, seconds / 2, probe)
        tracer = tracing.Tracer()
        with tracer:
            traced, _, _ = measure(workload, seconds / 2, probe)
        metrics = tracing.layer_metrics(setup_tracer, tracer, len(traced))
        for key in ("total", "numpy", "scipy", "psgmae"):
            metrics[f"cli.import_ms.{key}"] = (
                statistics.median(b[key] for b in breakdowns), "ms")
        overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
        metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
        notes["trace.overhead_pct"] = (
            f"median scaled command seconds {statistics.median(traced):.4g} traced "
            f"({len(traced)} reps) vs {statistics.median(untraced):.4g} untraced "
            f"({len(untraced)} reps)")

    q1, ref, q3 = quartiles(probe.reference)
    print(f"{name}  reference work {ref:.4g} s (median of {len(probe.reference)}, "
          f"quartiles {q1:.4g} .. {q3:.4g}); timings are scaled to {REFERENCE_S} s")
    for key, (value, unit) in sorted(metrics.items()):
        note = f"  ({notes[key]})" if key in notes else ""
        print(f"{name}  {key:<40} {value:>14.6g} {unit}{note}")
    for problem in ctx.problems:
        print(f"{name}  FAILED {problem.splitlines()[0]}")
    return {
        "correct": ctx.failed == 0,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "psgmae" / "cli.py").is_file():
        print(f"error: no psgmae sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in workloads.WORKLOADS for n in names):
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)} or all")

    print(json.dumps({"environment": environment(args.seed)}, sort_keys=True))
    results = {}
    for name in names:
        work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
        work.mkdir(parents=True)
        try:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), work)
        finally:
            shutil.rmtree(work)
            try:
                work.parent.rmdir()
            except OSError:
                pass  # another run still uses it
        if len(names) > 1:
            print(json.dumps(results[name]))

    if len(names) > 1:
        # --workload all: metric names are prefixed with the workload; peak
        # RSS is the process's high-water mark up to that workload
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }))
    else:
        print(json.dumps(results[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
