"""The four benchmark workloads: parameter draws, configs and correctness gates.

Every invocation draws a fresh parameter set from the workload's seeded
generator, so the package's process-wide caches miss the way they do for a
CLI user.  Draws are never filtered or retried.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from reference import row_misses

CORE = ("fidelity", "bures", "delta_n", "r_plus", "r_minus")
ORACLE_COLUMNS = ("fidelity_oracle", "delta_n_oracle")
SCAN_TOL = 1e-9  # acceptance criterion 1: closed form against an exponential
ORACLE_TOL = 1e-5  # acceptance criterion 4: Gaussian route against the oracle
CHECKED_ROWS = 8  # rows per invocation checked against the numpy reference
# Every grid spans tau in [0, 10]: the Pade route's cost grows with tau, so a
# fixed span keeps the work per invocation the same from draw to draw.
TAU_END = 10.0


@dataclass(frozen=True)
class Draw:
    params: dict
    s: float  # squeezed-pair parameter; 0 means the vacuum
    outputs: tuple[str, ...] = CORE


def _signed(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi))


def _scan_closed(rng: np.random.Generator, k: int) -> Draw:
    # Equal couplings g >= 0: the closed Bogoliubov route.  Even invocations
    # are resonant and also ask for the C2 law, odd ones are detuned.
    resonant = k % 2 == 0
    g = rng.uniform(0.01, 0.2) if resonant else rng.uniform(0.0, 0.2)
    omega_b = 1.0 if resonant else rng.uniform(0.5, 1.5)
    outputs = CORE + ("c2_prediction",) if resonant else CORE
    params = {"omega_a": 1.0, "omega_b": omega_b, "g_bs": g, "g_sq": g}
    return Draw(params, rng.uniform(0.0, 1.0), outputs)


def _scan_general(rng: np.random.Generator, k: int) -> Draw:
    # Unequal couplings of either sign, one of them zero on two invocations
    # in three: the Pade exponential route.
    g_bs = 0.0 if k % 3 == 2 else _signed(rng, 0.01, 0.25)
    g_sq = 0.0 if k % 3 == 1 else _signed(rng, 0.01, 0.25)
    omega_b = 1.0 if rng.random() < 0.5 else rng.uniform(0.5, 1.5)
    params = {"omega_a": 1.0, "omega_b": omega_b, "g_bs": g_bs, "g_sq": g_sq}
    return Draw(params, rng.uniform(0.0, 1.0))


def _oracle_deep(rng: np.random.Generator, k: int) -> Draw:
    # Acceptance criterion 4's family: resonant equal couplings, vacuum or
    # a weakly squeezed pair.
    g = rng.uniform(0.01, 0.05)
    s = 0.0 if k % 2 == 0 else rng.uniform(0.01, 0.2)
    return Draw({"omega_a": 1.0, "omega_b": 1.0, "g_bs": g, "g_sq": g}, s)


def _oracle_dense(rng: np.random.Generator, k: int) -> Draw:
    g = rng.uniform(0.01, 0.05)
    return Draw({"omega_a": 1.0, "omega_b": 1.0, "g_bs": g, "g_sq": g}, rng.uniform(0.05, 0.2))


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    steps: int
    fmt: str
    cutoff: int
    draw: Callable[[np.random.Generator, int], Draw]
    calibrated: bool  # times scaled by calibration.Calibrator (see its docstring)

    @property
    def oracle(self) -> bool:
        return self.command == "oracle-check"

    def config(self, d: Draw, output_path: str, steps: int | None = None, cutoff: int | None = None) -> dict:
        """The fidelity-scan / oracle-check JSON config for one invocation."""
        state = {"kind": "squeezed", "s": d.s} if d.s else {"kind": "vacuum"}
        return {
            "params": d.params,
            "initial_state": state,
            "tau_grid": {"start": 0.0, "end": TAU_END, "steps": steps or self.steps},
            "outputs": list(d.outputs),
            "oracle": {"enabled": self.oracle, "cutoff": cutoff or self.cutoff},
            "output_path": output_path,
            "format": self.fmt,
        }

    def columns(self, d: Draw) -> list[str]:
        return ["tau", *d.outputs, *(ORACLE_COLUMNS if self.oracle else ())]

    def gate(self, d: Draw, doc: dict, rng: np.random.Generator) -> list[str]:
        """Re-read the written output and return every miss, empty when correct."""
        try:
            columns, rows = _read_output(doc["output_path"], doc["format"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"output unreadable: {exc!r}"]
        misses = []
        steps = doc["tau_grid"]["steps"]
        if columns != self.columns(d):
            misses.append(f"columns {columns} != {self.columns(d)}")
            return misses
        if len(rows) != steps:
            return [f"{len(rows)} rows written, {steps} expected"]
        taus = np.linspace(0.0, TAU_END, steps)
        if [r["tau"] for r in rows] != taus.tolist():
            misses.append("tau column differs from the requested grid")
        if not all(math.isfinite(v) for r in rows for v in r.values()):
            misses.append("non-finite value written")
            return misses
        for i in sorted(rng.choice(steps, size=min(CHECKED_ROWS, steps), replace=False)):
            bad = row_misses(rows[i], d.params, d.s, SCAN_TOL)
            if bad:
                misses.append(f"row {i}: {bad} miss the numpy reference by > {SCAN_TOL}")
        if "c2_prediction" in d.outputs and not all(0.0 < r["c2_prediction"] <= 1.0 for r in rows):
            misses.append("c2_prediction outside (0, 1]")
        if self.oracle:
            worst_f = max(abs(r["fidelity"] - r["fidelity_oracle"]) for r in rows)
            worst_n = max(abs(r["delta_n"] - r["delta_n_oracle"]) for r in rows)
            if not (worst_f <= ORACLE_TOL and worst_n <= ORACLE_TOL):
                misses.append(f"oracle disagrees: |dF| {worst_f:.3e}, |d(dN)| {worst_n:.3e} > {ORACLE_TOL}")
        return misses


def _read_output(path: str, fmt: str) -> tuple[list[str], list[dict]]:
    if fmt == "csv":
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            columns = next(reader)
            rows = [dict(zip(columns, map(float, line))) for line in reader]
        return columns, rows
    with open(path) as fh:
        rows = json.load(fh)["rows"]
    columns = list(rows[0]) if rows else []
    if any(list(r) != columns for r in rows):
        raise ValueError("JSON rows do not share one column list")
    return columns, [{k: float(v) for k, v in r.items()} for r in rows]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("scan-closed", "fidelity-scan", 2001, "csv", 40, _scan_closed, True),
        Workload("scan-general", "fidelity-scan", 2001, "json", 40, _scan_general, True),
        Workload("oracle-deep", "oracle-check", 11, "csv", 80, _oracle_deep, False),
        Workload("oracle-dense", "oracle-check", 201, "csv", 40, _oracle_dense, True),
    )
}
