"""Command line entry points: simulate, equilibria, certify, sweep.

Exit codes: 0 on success, 2 on any validation error or when an output
file cannot be written (for example --out naming an existing regular
file), 3 when a certification run completes but the certificate fails.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from .config import (
    PARAM_KEYS,
    ConfigError,
    build_initial_history,
    load_config,
    validate_for_certification,  # unused here; perfbench/tracing.py wraps this binding
)
from .core import NONNEGATIVE_PARAMS, ModelParams
from .equilibria import basic_reproduction_number, endemic_equilibrium, regime_classify
from .integrator import SimulationError, run
from .certificate import certify as certify_trajectory, check_tolerances
from .output import (
    equilibria_report,
    fmt_float,
    json_text,
    write_json,
    write_snapshots,
    write_sweep,
    write_timeseries,
)

__all__ = ["SweepRow", "SweepSpec", "load_sweep", "main", "run_sweep"]


@dataclass(frozen=True)
class SweepSpec:
    """A one-parameter sweep: base document, parameter name, values, tag."""

    base: dict
    parameter: str
    values: tuple[float, ...]
    tag: str


@dataclass(frozen=True)
class SweepRow:
    """Outcome of one sweep run; error rows leave the result fields None."""

    value: float
    r0: float | None
    regime: str | None
    final_dist: float | None
    certified: bool | None
    error: str | None

    def to_dict(self) -> dict:
        return asdict(self)


def load_sweep(source: str | Path | dict) -> SweepSpec:
    """Parses a sweep document {base, parameter, values, tag}."""
    if isinstance(source, (str, Path)):
        try:
            doc = json.loads(Path(source).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read sweep: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"sweep is not valid JSON: {exc}") from exc
    else:
        doc = source
    if not isinstance(doc, dict):
        raise ConfigError("sweep must be a JSON object")
    unknown = sorted(set(doc) - {"base", "parameter", "values", "tag"})
    if unknown:
        raise ConfigError(f"unknown sweep keys: {', '.join(unknown)}")
    missing = sorted({"base", "parameter", "values", "tag"} - set(doc))
    if missing:
        raise ConfigError(f"missing sweep keys: {', '.join(missing)}")
    if not isinstance(doc["base"], dict):
        raise ConfigError("sweep base must be a configuration object")
    parameter = doc["parameter"]
    if parameter not in PARAM_KEYS:
        raise ConfigError(
            f"sweep parameter must be one of the model parameters, got {parameter!r}"
        )
    values = doc["values"]
    zero_ok = parameter in NONNEGATIVE_PARAMS
    if (
        not isinstance(values, list)
        or not values
        or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in values)
        or any(not math.isfinite(v) or (v < 0 if zero_ok else v <= 0) for v in values)
    ):
        kind = "nonnegative" if zero_ok else "positive"
        raise ConfigError(f"sweep values must be a nonempty list of finite {kind} numbers")
    if not isinstance(doc["tag"], str):
        raise ConfigError("sweep tag must be a string")
    return SweepSpec(
        base=dict(doc["base"]),
        parameter=parameter,
        values=tuple(float(v) for v in values),
        tag=doc["tag"],
    )


def _sweep_one(spec: SweepSpec, value: float, seed: int) -> SweepRow:
    doc = dict(spec.base)
    doc[spec.parameter] = value
    # Only rows with an endemic state certify; load_config rejects a non-boolean.
    certify = doc.get("certify") is True
    try:
        config = load_config({**doc, "certify": False} if certify else doc)
        if certify and endemic_equilibrium(config.params) is not None:
            config = replace(config, certify=True)
        traj = run(config, build_initial_history(config, seed))
        eqs = traj.equilibria
        final = (
            traj.dist_endemic[-1] if eqs.endemic is not None else traj.dist_dfe[-1]
        )
        certified = certify_trajectory(traj).passed if config.certify else None
        return SweepRow(
            value=value,
            r0=eqs.r0,
            regime=eqs.regime,
            final_dist=float(final),
            certified=certified,
            error=None,
        )
    except (ConfigError, ValueError, SimulationError, FloatingPointError, MemoryError) as exc:
        r0 = regime = None
        try:
            params = ModelParams(**{k: float(doc[k]) for k in PARAM_KEYS})
            r0 = basic_reproduction_number(params)
            regime = regime_classify(params)
        except (KeyError, TypeError, ValueError):
            pass
        return SweepRow(
            value=value, r0=r0, regime=regime, final_dist=None, certified=None,
            error=str(exc) or type(exc).__name__,
        )


def run_sweep(spec: SweepSpec, seed: int = 0, max_workers: int | None = None) -> list[SweepRow]:
    """Runs every swept value in the calling thread, in input order.

    Row i perturbs its initial history with seed + i.  A failing row,
    including one that hits a floating-point trap or runs out of memory,
    records its error and leaves the others untouched.  max_workers is
    kept for callers that still pass it: 1 or None, both meaning one row
    at a time (a thread pool measured slower than none).

    Raises:
        ValueError: if max_workers is anything but 1 or None.
    """
    if max_workers not in (1, None):
        raise ValueError(f"max_workers must be 1 or None, got {max_workers!r}")
    return [_sweep_one(spec, value, seed + i) for i, value in enumerate(spec.values)]


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    traj = run(config, build_initial_history(config, args.seed))
    out = _out_dir(args)
    write_timeseries(out / "timeseries.csv", traj)
    write_snapshots(out / "snapshots.csv", traj)
    final = traj.dist_endemic[-1] if traj.equilibria.endemic is not None else traj.dist_dfe[-1]
    print(
        f"simulated {len(traj.times) - 1} steps to t={fmt_float(traj.times[-1])}; "
        f"final attractor distance {fmt_float(final)}; bounds_ok={traj.bounds_ok}"
    )
    return 0


def _cmd_equilibria(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    report = equilibria_report(config)
    print(json_text(report))
    if args.out:
        write_json(_out_dir(args) / "equilibria.json", report)
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    kwargs = {}
    if args.tol is not None:
        kwargs["v_tol"] = args.tol
    if args.dissipation_tol is not None:
        kwargs["d_tol"] = args.dissipation_tol
    check_tolerances(**kwargs)
    config = load_config(args.config)
    if not config.certify:
        config = replace(config, certify=True)
    traj = run(config, build_initial_history(config, args.seed))
    certificate = certify_trajectory(traj, **kwargs)
    out = _out_dir(args)
    write_timeseries(out / "timeseries.csv", traj)
    write_snapshots(out / "snapshots.csv", traj)
    write_json(out / "certificate.json", certificate.to_dict())
    verdict = "PASS" if certificate.passed else "FAIL"
    print(
        f"certificate {verdict}: V {fmt_float(certificate.v_initial)} -> "
        f"{fmt_float(certificate.v_final)}, {len(certificate.violations)} violations"
    )
    return 0 if certificate.passed else 3


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = load_sweep(args.config)
    rows = run_sweep(spec, seed=args.seed)
    out = _out_dir(args)
    write_sweep(out / "sweep.csv", [r.to_dict() for r in rows])
    print(f"sweep {spec.tag}: parameter {spec.parameter}")
    for row in rows:
        if row.error is None:
            cert = "-" if row.certified is None else str(row.certified).lower()
            print(
                f"  {fmt_float(row.value)}\tR0={fmt_float(row.r0)}\t{row.regime}"
                f"\tfinal_dist={fmt_float(row.final_dist)}\tcertified={cert}"
            )
        else:
            print(f"  {fmt_float(row.value)}\tERROR\t{row.error}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dengue-rd",
        description=(
            "Simulate a delayed nonlocal dengue reaction-diffusion model and "
            "certify global attractivity numerically."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, out_required: bool) -> None:
        p.add_argument("--config", required=True, help="path to the JSON document")
        p.add_argument(
            "--out",
            required=out_required,
            default=None if not out_required else argparse.SUPPRESS,
            help="output directory",
        )
        p.add_argument(
            "--seed", type=int, default=0,
            help="nonnegative seed of the initial perturbation (default 0)",
        )

    p_sim = sub.add_parser("simulate", help="integrate and write time series")
    common(p_sim, out_required=True)
    p_sim.set_defaults(handler=_cmd_simulate)

    p_eq = sub.add_parser("equilibria", help="report R0, regime and steady states")
    common(p_eq, out_required=False)
    p_eq.set_defaults(handler=_cmd_equilibria)

    p_cert = sub.add_parser("certify", help="run with Lyapunov checks and certify")
    common(p_cert, out_required=True)
    p_cert.add_argument(
        "--tol", type=float, default=None,
        help="per-step V monotonicity slack v_tol, relative to V(0)",
    )
    p_cert.add_argument(
        "--dissipation-tol", type=float, default=None,
        help="absolute sign slack d_tol for dissipation terms",
    )
    p_cert.set_defaults(handler=_cmd_certify)

    p_sweep = sub.add_parser("sweep", help="run a one-parameter sweep")
    common(p_sweep, out_required=True)
    p_sweep.set_defaults(handler=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, ValueError, SimulationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
