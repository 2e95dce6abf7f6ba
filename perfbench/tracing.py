"""Span tracing around dengue-rd's public functions, from outside the package.

Tracer.wrap replaces a function in the module namespace that calls it
(or a method or property on a class) with a wrapper that records one span
per call: its name, its duration and the span that called it.  Spans are
not kept one by one, since a certifying run makes about a million calls;
each thread instead sums, per (parent, name) pair, the call count, the
total time and the self time, which is the span's duration minus the part
its child spans cover.  The tables are merged when the run ends.

install_layers wraps the boundaries the per-layer metrics read;
layer_metrics turns a merged summary into those metrics.
"""

from __future__ import annotations

import functools
import os
import threading
import time

perf_counter = time.perf_counter


class Tracer:
    """Per-thread span aggregates plus a few gauges the spans feed."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._tables: list[dict] = []
        self._lock = threading.Lock()
        self.in_flight = 0
        self.in_flight_max = 0
        self.flight_cpu_s = 0.0
        self.bytes_written = 0
        self.kernel_bytes = 0

    def _state(self):
        local = self._local
        if not hasattr(local, "table"):
            local.table = {}
            local.stack = []
            with self._lock:
                self._tables.append(local.table)
        return local.table, local.stack

    def span(self, name: str, fn, *args, **kwargs):
        """Calls fn(*args, **kwargs) inside a span called name."""
        table, stack = self._state()
        parent = stack[-1][0] if stack else None
        frame = [name, 0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][1] += elapsed
            rec = table.get((parent, name))
            if rec is None:
                rec = table[(parent, name)] = [0, 0.0, 0.0]
            rec[0] += 1
            rec[1] += elapsed
            rec[2] += elapsed - frame[1]

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Traces owner.attr as name; after(args, result) runs on success."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, property):
            fget = original.fget
            setattr(owner, attr, property(functools.wraps(fget)(
                lambda obj: self.span(name, fget, obj)
            )))
            return

        @functools.wraps(original)
        def traced(*args, **kwargs):
            result = self.span(name, original, *args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, traced)

    def wrap_in_flight(self, owner, attr: str, name: str) -> None:
        """Like wrap, and also tracks concurrent calls and their thread CPU time."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self._lock:
                self.in_flight += 1
                self.in_flight_max = max(self.in_flight_max, self.in_flight)
            cpu = time.thread_time()
            try:
                return self.span(name, original, *args, **kwargs)
            finally:
                cpu = time.thread_time() - cpu
                with self._lock:
                    self.in_flight -= 1
                    self.flight_cpu_s += cpu

        setattr(owner, attr, traced)

    def summary(self) -> dict:
        """Merged tables: per name and per (parent, name) edge."""
        by_name: dict[str, list] = {}
        edges: dict[tuple, list] = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for key, (calls, total, self_s) in table.items():
                for agg, k in ((by_name, key[1]), (edges, key)):
                    rec = agg.setdefault(k, [0, 0.0, 0.0])
                    rec[0] += calls
                    rec[1] += total
                    rec[2] += self_s
        return {
            "spans": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]} for k, v in by_name.items()},
            "edges": [
                {"parent": p, "name": n, "calls": v[0], "total_s": v[1], "self_s": v[2]}
                for (p, n), v in sorted(edges.items(), key=lambda kv: -kv[1][1])
            ],
            "in_flight_max": self.in_flight_max,
            "flight_cpu_s": self.flight_cpu_s,
            "bytes_written": self.bytes_written,
            "kernel_bytes": self.kernel_bytes,
        }


HISTORY_MEMBERS = ("lookup", "lookup_arrays", "append", "entries", "latest", "dt", "n_lags", "n", "t_now")
WRITERS = ("write_timeseries", "write_snapshots", "write_json", "write_sweep")


def install_layers(tracer: Tracer) -> None:
    """Wraps every layer boundary the per-layer metrics read.

    Each function is wrapped where its caller looks it up, so a call made
    through another module's namespace is traced there too.
    """
    from dengue_rd import cli, config, core, integrator, lyapunov, output

    def count_written(args, _result) -> None:
        tracer.bytes_written += os.path.getsize(args[0])

    def count_kernels(_args, kernels) -> None:
        mats = [kernels.delay_a, kernels.delay_b, *kernels.theta_a, *kernels.theta_b]
        tracer.kernel_bytes += sum(m.nbytes for m in mats if m is not None)

    tracer.wrap(cli, "load_sweep", "cli.load_sweep")
    tracer.wrap(cli, "run_sweep", "cli.run_sweep")
    tracer.wrap(cli, "load_config", "config.load_config")
    tracer.wrap(cli, "build_initial_history", "config.build_initial_history")
    tracer.wrap(cli, "validate_for_certification", "config.validate_for_certification")
    tracer.wrap(cli, "certify_trajectory", "lyapunov.certify")
    for writer in WRITERS:
        tracer.wrap(cli, writer, f"output.{writer}", after=count_written)
    tracer.wrap_in_flight(cli, "run", "integrator.run")
    for module in (config, integrator, output):
        tracer.wrap(module, "compute_equilibria", "equilibria.compute_equilibria")
    for module in (config, integrator, lyapunov):
        tracer.wrap(module, "lag_steps", "core.lag_steps")
    tracer.wrap(integrator, "step", "integrator.step")
    tracer.wrap(integrator, "sup_distance", "core.sup_distance")
    tracer.wrap(integrator, "validate_initial_history", "core.validate_initial_history")
    tracer.wrap(integrator, "prepare_kernels", "lyapunov.prepare_kernels", after=count_kernels)
    tracer.wrap(integrator, "eval_V", "lyapunov.eval_V")
    for module in (integrator, lyapunov):
        tracer.wrap(module, "heat_apply", "spectral.heat_apply")
    tracer.wrap(lyapunov, "g", "lyapunov.g")
    tracer.wrap(lyapunov, "gradient_energy", "spectral.gradient_energy")
    tracer.wrap(lyapunov, "kernel_matrix", "spectral.kernel_matrix")
    for member in HISTORY_MEMBERS:
        tracer.wrap(core.History, member, f"core.History.{member}")


# Metric name -> unit.  The name's prefix is the layer (module); the
# README's table says which end-to-end metric and workload each should move.
LAYER_METRICS = {
    "config.load_config_ms": "ms",
    "config.initial_history_ms": "ms",
    "equilibria.compute_calls": "count",
    "integrator.step_self_us": "us",
    "integrator.step_calls": "count",
    "core.history_calls_per_step": "count",
    "core.append_us": "us",
    "core.lag_steps_calls_per_step": "count",
    "spectral.heat_apply_calls_per_step": "count",
    "spectral.heat_apply_us": "us",
    "spectral.gradient_energy_us": "us",
    "spectral.kernel_matrix_calls": "count",
    "lyapunov.prepare_kernels_ms": "ms",
    "lyapunov.kernel_mb": "MB",
    "lyapunov.eval_V_self_us": "us",
    "lyapunov.g_calls_per_step": "count",
    "lyapunov.certify_ms": "ms",
    "output.write_ms": "ms",
    "output.bytes_written": "bytes",
    "cli.run_sweep_s": "s",
    "cli.rows_in_flight_max": "count",
    "cli.rows_cpu_per_wall": "ratio",
}


def layer_metrics(summary: dict) -> dict[str, float]:
    """Per-layer figures of one traced invocation, keyed as LAYER_METRICS.

    A layer the invocation never entered reads 0.
    """
    spans = summary["spans"]

    def calls(name: str) -> int:
        return spans.get(name, {}).get("calls", 0)

    def total(name: str) -> float:
        return spans.get(name, {}).get("total_s", 0.0)

    def per_call(name: str, key: str = "total_s") -> float:
        c = calls(name)
        return spans[name][key] / c * 1e6 if c else 0.0

    steps = calls("integrator.step")
    per_step = (lambda c: c / steps) if steps else (lambda c: 0.0)
    history_calls = sum(calls(f"core.History.{m}") for m in HISTORY_MEMBERS)
    sweep_s = total("cli.run_sweep")
    return {
        "config.load_config_ms": total("config.load_config") * 1e3,
        "config.initial_history_ms": total("config.build_initial_history") * 1e3,
        "equilibria.compute_calls": calls("equilibria.compute_equilibria"),
        "integrator.step_self_us": per_call("integrator.step", "self_s"),
        "integrator.step_calls": steps,
        "core.history_calls_per_step": per_step(history_calls),
        "core.append_us": per_call("core.History.append"),
        "core.lag_steps_calls_per_step": per_step(calls("core.lag_steps")),
        "spectral.heat_apply_calls_per_step": per_step(calls("spectral.heat_apply")),
        "spectral.heat_apply_us": per_call("spectral.heat_apply"),
        "spectral.gradient_energy_us": per_call("spectral.gradient_energy"),
        "spectral.kernel_matrix_calls": calls("spectral.kernel_matrix"),
        "lyapunov.prepare_kernels_ms": total("lyapunov.prepare_kernels") * 1e3,
        "lyapunov.kernel_mb": summary["kernel_bytes"] / 2**20,
        "lyapunov.eval_V_self_us": per_call("lyapunov.eval_V", "self_s"),
        "lyapunov.g_calls_per_step": per_step(calls("lyapunov.g")),
        "lyapunov.certify_ms": total("lyapunov.certify") * 1e3,
        "output.write_ms": sum(total(f"output.{w}") for w in WRITERS) * 1e3,
        "output.bytes_written": summary["bytes_written"],
        "cli.run_sweep_s": sweep_s,
        "cli.rows_in_flight_max": summary["in_flight_max"],
        "cli.rows_cpu_per_wall": summary["flight_cpu_s"] / sweep_s if sweep_s else 0.0,
    }
