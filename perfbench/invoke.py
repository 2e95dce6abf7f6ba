"""Runs one dengue-rd subcommand in this fresh process and reports its timings.

    python3 invoke.py <src dir> <trace 0|1> <subcommand> [cli arguments...]

The package is imported from <src dir> and driven through
dengue_rd.cli.main exactly as the console script does.  The clock starts
just before the package is imported.  Run under `python3 -X importtime`,
the lines standard error carries between IMPORTS_BEGIN and IMPORTS_END
give each module's own import time.  A one-shot wrapper marks the first
call of cli.run, after the configuration and the initial history are
built, and a thin wrapper on integrator.step records the clock at the
start of every step; the first of these ends set-up.  With trace 1 every
layer boundary in tracing.install_layers is wrapped as well.

Prints one JSON object: exit code, the clock marks, the step clock
readings, the peak resident memory of this process and, when traced, the
merged span summary.  What the subcommand itself prints is captured and
returned too.
"""

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

# Brackets the lines `python3 -X importtime` writes for the package import.
IMPORTS_BEGIN = "perfbench: package import begins"
IMPORTS_END = "perfbench: package import ends"


def _probe_steps(integrator, ticks: list) -> None:
    """Records the clock at the start of every integrator.step call."""
    inner = integrator.step

    def probed(*args, **kwargs):
        ticks.append(time.perf_counter())
        return inner(*args, **kwargs)

    integrator.step = probed


def _mark_first_call(module, name: str, marks: dict) -> None:
    """Records the clock at the first call of module.name, then unwraps it."""
    inner = getattr(module, name)

    def first_call(*args, **kwargs):
        marks.setdefault(name, time.perf_counter())
        setattr(module, name, inner)
        return inner(*args, **kwargs)

    setattr(module, name, first_call)


def _stderr_line(text: str) -> None:
    sys.stderr.write(text + "\n")
    sys.stderr.flush()


def main(argv: list[str]) -> int:
    src, trace, cli_args = Path(argv[0]).resolve(), argv[1] == "1", argv[2:]
    sys.path.insert(0, str(src))
    _stderr_line(IMPORTS_BEGIN)
    start = time.perf_counter()
    import dengue_rd
    from dengue_rd import cli, integrator

    marks = {"start": start, "import": time.perf_counter()}
    _stderr_line(IMPORTS_END)
    if Path(dengue_rd.__file__).resolve().parent != src / "dengue_rd":
        print(f"dengue_rd imported from {dengue_rd.__file__}, not {src}", file=sys.stderr)
        return 2
    tracer = None
    if trace:
        from tracing import Tracer, install_layers

        tracer = Tracer()
        install_layers(tracer)
    ticks: list[float] = []
    _probe_steps(integrator, ticks)
    _mark_first_call(cli, "run", marks)

    captured = io.StringIO()
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        if tracer is None:
            code = cli.main(cli_args)
        else:
            code = tracer.span("cli.main", cli.main, cli_args)
    marks["end"] = time.perf_counter()

    result = {
        "exit_code": code,
        "marks": marks,
        "ticks": sorted(ticks),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "output": captured.getvalue(),
        "trace": None if tracer is None else tracer.summary(),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
