"""Workload inputs, generated from the benchmark seed.

Each workload is one dengue-rd subcommand on a document built here.  The
seed becomes the CLI's --seed, which draws the perturbation of the initial
history; on sweep-rows it also draws the swept biting rates inside each
regime.  The same seed always gives the same documents.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# configs/sweep_biting_rate.json's base at b = 1.0: R0 = sqrt(2) exactly,
# endemic state (1/2, 4/3, 1/3), new regime (1 < R0 <= sqrt(A beta_h / mu_h)).
SWEEP_BASE = {
    "d_m": 1.0,
    "d_h": 1.0,
    "A": 2.0,
    "H": 2.0,
    "b": 1.0,
    "p": 1.0,
    "q": 1.0,
    "mu_m": 1.0,
    "mu_h": 1.0,
    "gamma_h": 1.0,
    "tau_a": 0.5,
    "tau_b": 0.0,
    "L": 1.0,
    "n": 48,
    "dt": 0.005,
}

# With the base parameters R0^2 = 2 b^2 and A beta_h / mu_h = 2 b, so the
# regimes split at b = 1/sqrt(2) and b = 1.  Each range keeps clear of the
# boundaries, and b <= 3 keeps dt = 0.005 under the stability bound.
SWEEP_B_RANGES = {
    "below_threshold": (0.35, 0.65),
    "new_regime": (0.75, 0.98),
    "old_regime": (1.2, 3.0),
}


@dataclass(frozen=True)
class Workload:
    """One subcommand invocation: its document, CLI seed and output files."""

    name: str
    subcommand: str
    document: dict
    cli_seed: int
    outputs: tuple[str, ...]
    why: str

    @property
    def run_doc(self) -> dict:
        """The flat run document (the sweep base for sweep-rows)."""
        return self.document["base"] if self.subcommand == "sweep" else self.document

    @property
    def n_steps(self) -> int:
        """Steps one run takes, by the integrator's own rounding of t_end / dt."""
        doc = self.run_doc
        return int(doc["t_end"] / doc["dt"] * (1.0 + 1e-12) + 1e-12)

    @property
    def total_steps(self) -> int:
        """Steps the whole invocation takes, summed over sweep rows."""
        rows = len(self.document["values"]) if self.subcommand == "sweep" else 1
        return rows * self.n_steps


def _certify_base(seed: int) -> Workload:
    doc = dict(SWEEP_BASE, t_end=2.0, snapshot_every=100, certify=True)
    return Workload(
        name="certify-base",
        subcommand="certify",
        document=doc,
        cli_seed=seed,
        outputs=("timeseries.csv", "snapshots.csv", "certificate.json"),
        why="certify on the sweep base at b = 1, n = 48, 100 lags: eval_V dominates each step",
    )


def _simulate_wide(seed: int) -> Workload:
    doc = dict(SWEEP_BASE, n=1024, t_end=1.5, snapshot_every=60, certify=False)
    return Workload(
        name="simulate-wide",
        subcommand="simulate",
        document=doc,
        cli_seed=seed,
        outputs=("timeseries.csv", "snapshots.csv"),
        why="simulate at n = 1024 without certification: dense spectral transforms dominate",
    )


def _sweep_rows(seed: int) -> Workload:
    rng = random.Random(seed)
    values = [round(rng.uniform(lo, hi), 4) for lo, hi in SWEEP_B_RANGES.values()]
    doc = {
        "base": dict(SWEEP_BASE, t_end=10.0, certify=False),
        "parameter": "b",
        "values": values,
        "tag": f"perfbench-seed-{seed}",
    }
    return Workload(
        name="sweep-rows",
        subcommand="sweep",
        document=doc,
        cli_seed=seed,
        outputs=("sweep.csv",),
        why="sweep of 3 small rows, one per regime: per-call overhead and the row pool",
    )


BUILDERS = {
    "certify-base": _certify_base,
    "simulate-wide": _simulate_wide,
    "sweep-rows": _sweep_rows,
}


def build(name: str, seed: int) -> Workload:
    """The workload called name, with its inputs drawn from seed."""
    return BUILDERS[name](seed)
