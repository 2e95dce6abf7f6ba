"""dengue-rd benchmark: one workload per invocation, in fresh processes.

    python3 perfbench/run.py --workload certify-base --seed 1 --seconds 30 --trace 0

Each round runs the workload's subcommand twice, each time in a new
Python process (invoke.py) with the same seed-generated inputs, then
checks the first output directory against independent computations
(checks.py) and the second against the first byte for byte.  Rounds
repeat until the next one would overrun --seconds; at least one runs.

invoke.py reports the clock just before the package is imported, at
the first call of cli.run, at the start of every integration step and
at the end, and each imported module's own import time.  From these a
run takes

    setup_s      package import to the first integration step: import,
                 config validation, initial history, equilibria and,
                 when certifying, kernel assembly
    us_per_step  the rest of the subcommand over the steps it took
                 (summed over rows for a sweep)
    peak_rss_mb  peak resident memory of the invocation's process

Both times are sums of phases, each phase at the fastest of its samples
over the run.  setup_s: every module's import, the rest of the import,
import to the first cli.run call, and that call to the first step.
us_per_step: the first step, which also builds the transform matrices;
the steps after it, cut into chunks of about CHUNK_S seconds; and the
tail from the start of the last step to the end, which holds the
certificate and the writers.  The CPUs of the 2-core KVM machine
measured in README.md switch between two speeds a factor of two apart,
for stretches from a fraction of a second to minutes; short phases at
their fastest read the fast speed, which repeats from run to run where
a median or a mean does not.  peak_rss_mb is the median over invocations.

With --trace 0 the last line of standard output is a JSON object with
these end-to-end metrics.  With --trace 1 the second invocation of
every round is traced (tracing.py) and the object holds the per-layer
metrics instead, the medians over the traced invocations, plus
trace.overhead_pct, the traced us_per_step against the untraced one of
the same run.  The merged span tree of the last traced invocation is
written to .perfbench_runs/trace-<workload>-seed<seed>.json.

BLAS runs BLAS_THREADS threads.  Exits 2 without a result when the
checkout holds no package source to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from invoke import IMPORTS_BEGIN, IMPORTS_END  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BLAS_THREADS = "1"
CHUNK_S = 0.02
INVOKE_TIMEOUT_S = 120
RUNS_DIR = ROOT / ".perfbench_runs"
UNITS = {"setup_s": "s", "us_per_step": "us", "peak_rss_mb": "MB"}


def invoke(workload, in_path: Path, out_dir: Path, trace: bool) -> dict | None:
    """One subcommand in a fresh process; None if it crashed or hung."""
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS=BLAS_THREADS,
        OMP_NUM_THREADS=BLAS_THREADS,
        MKL_NUM_THREADS=BLAS_THREADS,
    )
    env.pop("PYTHONPATH", None)
    cmd = [
        sys.executable, "-X", "importtime", str(HERE / "invoke.py"), str(ROOT / "src"), "1" if trace else "0",
        workload.subcommand, "--config", str(in_path), "--out", str(out_dir),
        "--seed", str(workload.cli_seed),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=INVOKE_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr[-2000:])
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["imports_us"] = import_times(proc.stderr)
    return result


IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+\d+ \| *(\S+)$")


def import_times(stderr: str) -> dict[str, int]:
    """Each module's own import time in us, from the package import's
    `-X importtime` lines."""
    lines = stderr.splitlines()
    begin, end = lines.index(IMPORTS_BEGIN), lines.index(IMPORTS_END)
    found = (IMPORT_LINE.match(line) for line in lines[begin + 1 : end])
    return {m[2]: int(m[1]) for m in found if m}


class Timings:
    """Phase samples from the invocations of one kind (traced or not)."""

    def __init__(self, workload: workloads.Workload) -> None:
        self.steps = workload.total_steps
        self.chunk_steps: int | None = None
        self.module_us: dict[str, list[int]] = {}
        self.import_rest: list[float] = []
        self.to_run: list[float] = []
        self.to_step: list[float] = []
        self.setup: list[float] = []
        self.first: list[float] = []
        self.chunks: list[float] = []
        self.tail: list[float] = []
        self.rss_mb: list[float] = []

    def add(self, result: dict) -> None:
        marks, ticks = result["marks"], result["ticks"]
        end, inner = marks["end"], ticks[1:]
        if self.chunk_steps is None:
            self.chunk_steps = max(1, round(CHUNK_S * self.steps / (end - ticks[0])))
        c = self.chunk_steps
        for name, us in result["imports_us"].items():
            self.module_us.setdefault(name, []).append(us)
        modules_s = sum(result["imports_us"].values()) / 1e6
        self.import_rest.append(marks["import"] - marks["start"] - modules_s)
        self.to_run.append(marks["run"] - marks["import"])
        self.to_step.append(ticks[0] - marks["run"])
        self.setup.append(ticks[0] - marks["start"])
        self.first.append(ticks[1] - ticks[0])
        self.tail.append(end - ticks[-1])
        self.chunks += [(inner[j + c] - inner[j]) / c for j in range(0, len(inner) - c, c)]
        self.rss_mb.append(result["maxrss_kb"] / 1024.0)

    def setup_s(self) -> float:
        modules_s = sum(min(us) for us in self.module_us.values()) / 1e6
        return modules_s + min(self.import_rest) + min(self.to_run) + min(self.to_step)

    def us_per_step(self) -> float:
        rest = min(self.first) + min(self.chunks) * (self.steps - 2) + min(self.tail)
        return rest / self.steps * 1e6

    def metrics(self) -> dict[str, float]:
        return {
            "setup_s": self.setup_s(),
            "us_per_step": self.us_per_step(),
            "peak_rss_mb": statistics.median(self.rss_mb),
        }

    def describe(self) -> str:
        med = statistics.median
        return (
            f"{len(self.setup)} invocations, {len(self.chunks)} chunks of {self.chunk_steps} steps; "
            f"min / median: setup {min(self.setup):.4g} / {med(self.setup):.4g} s, "
            f"first step {min(self.first) * 1e3:.4g} / {med(self.first) * 1e3:.4g} ms, "
            f"chunk {min(self.chunks) * 1e6:.4g} / {med(self.chunks) * 1e6:.4g} us/step, "
            f"tail {min(self.tail) * 1e3:.4g} / {med(self.tail) * 1e3:.4g} ms"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dengue_rd" / "cli.py").is_file():
        print(f"perfbench: no dengue_rd source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = workloads.build(args.workload, args.seed)
    run_dir = RUNS_DIR / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    in_path = run_dir / "input.json"
    in_path.write_text(json.dumps(workload.document, indent=2))

    plain, traced = Timings(workload), Timings(workload)
    layer_samples: dict[str, list[float]] = {k: [] for k in tracing.LAYER_METRICS}
    last_trace = None
    attempted = failed = rounds = 0
    failures: list[str] = []
    start = time.perf_counter()
    try:
        while True:
            dirs = [run_dir / f"round{rounds}-{slot}" for slot in (0, 1)]
            found: list[checks.Check] = []
            ran = []
            for slot, out_dir in enumerate(dirs):
                trace = bool(args.trace) and slot == 1
                result = invoke(workload, in_path, out_dir, trace)
                ok = result is not None and result["exit_code"] == 0
                found.append(checks.Check(f"invocation{slot}.exit_0", ok, repr(result and result["output"])))
                if not ok:
                    ran.append(False)
                    continue
                steps = len(result["ticks"])
                counted = steps == workload.total_steps
                found.append(checks.Check(f"invocation{slot}.steps", counted, f"{steps} steps"))
                ran.append(counted)
                if not counted:
                    continue
                if trace:
                    traced.add(result)
                    for name, value in tracing.layer_metrics(result["trace"]).items():
                        layer_samples[name].append(value)
                    last_trace = result["trace"]
                else:
                    plain.add(result)
            if ran[0]:
                found += checks.check_outputs(workload, dirs[0])
            else:
                found.append(checks.Check("outputs.checked", False, "first invocation failed"))
            if all(ran):
                found.append(checks.check_identical(dirs[0], dirs[1], workload.outputs))
            else:
                found.append(checks.Check("repeat.checked", False, "an invocation failed"))
            if workload.subcommand == "sweep":
                # Every row is an operation; a failed row fails its own
                # sweep.row<i> check, so the rows only add to attempted.
                attempted += 2 * len(workload.document["values"])
            for check in found:
                attempted += 1
                if not check.ok:
                    failed += 1
                    failures.append(f"round {rounds} {check.name}: {check.detail}")
            for out_dir in dirs:
                shutil.rmtree(out_dir, ignore_errors=True)
            rounds += 1
            elapsed = time.perf_counter() - start
            if elapsed * (rounds + 1) / rounds > args.seconds:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for line in failures:
        print(f"FAILED {line}")
    print(
        f"workload {workload.name} seed {args.seed}: {rounds} rounds in "
        f"{time.perf_counter() - start:.1f} s, BLAS threads {BLAS_THREADS}, "
        f"{workload.total_steps} steps per invocation"
    )
    metrics: dict[str, dict] = {}
    if plain.setup:
        print(f"  untraced: {plain.describe()}")
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in plain.metrics().items()}
    if args.trace:
        metrics = {
            name: {"value": statistics.median(values), "unit": tracing.LAYER_METRICS[name]}
            for name, values in layer_samples.items()
            if values
        }
        if traced.setup and plain.setup:
            print(f"  traced:   {traced.describe()}")
            overhead = traced.us_per_step() / plain.us_per_step() - 1.0
            metrics["trace.overhead_pct"] = {"value": overhead * 100.0, "unit": "%"}
        if last_trace is not None:
            RUNS_DIR.mkdir(exist_ok=True)
            trace_path = RUNS_DIR / f"trace-{workload.name}-seed{args.seed}.json"
            trace_path.write_text(json.dumps(last_trace, indent=1))
    for name, metric in metrics.items():
        print(f"  {name}: {metric['value']:.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
