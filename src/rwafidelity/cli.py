"""Command-line harness: parameter scans, oracle checks, and the circuit mapper.

One JSON config document drives every subcommand but circuit-map; each reads
only the paths its table row names, and takes their flags.  Output is
plot-ready CSV or JSON with a stable column order and floats that read back
exactly ('%.17g' in CSV, repr in JSON), so regenerated files diff cleanly.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import operator
import os
import stat
import sys
from dataclasses import MISSING, asdict, dataclass, fields
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from .dynamics import (
    OscillatorParams,
    UnstableParamsError,
    critical_coupling,
    normal_mode_frequencies,
    rwa_block,
    time_evolution,
)
from .floatrows import csv_rows, json_rows
from .fockoracle import FockBasis, FockOracle, PhaseError, TruncationError
from .metrics import gaussian_grid
from .perturbation import PerturbativeRegime, c2_coefficient, convergence_order, ladder_regimes, perturbative_family, vacuum_perturbative_fidelity
from .states import InitialState

__all__ = [
    "ConfigError",
    "ScanConfig",
    "ScanSummary",
    "run_scan",
    "CircuitParams",
    "FrameReport",
    "circuit_map",
    "main",
]

MAX_STEPS = 10**6  # every column is held in memory as a float array before the rows are written
# rows per csv_rows or json_rows call: of 128 to 4096, 1024 formatted 2000 CSV rows fastest on a 2-vCPU VM,
# and the temporaries peak near 1.3 MB at the widest JSON scan (9 columns, about 140 bytes per value)
BLOCK_ROWS = 1024


class ConfigError(ValueError):
    """Invalid scan configuration, with field-level diagnostics."""


def _at(doc: dict, path: str, create: bool = False) -> tuple[dict, str]:
    """The object holding config path [section.]key in doc, and key; create adds a missing section, and a ConfigError
    names a top level or section that is not an object."""
    if not isinstance(doc, dict):
        raise ConfigError(f"config: the top-level value must be an object, got {type(doc).__name__}")
    section, _, key = path.rpartition(".")
    holder = (doc.setdefault if create else doc.get)(section, {}) if section else doc
    if not isinstance(holder, dict):
        raise ConfigError(f"{section}: expected an object, got {type(holder).__name__}")
    return holder, key


def _read(doc: dict, path: str, kind: type, default=None):
    """The field at config path of doc: a finite JSON number, integral when kind is int, or else
    already a kind (nothing is converted); default=None makes the field required."""
    section, key = _at(doc, path)
    if key not in section and default is None:
        raise ConfigError(f"{path.rpartition('.')[0]}: missing field {key!r}")
    value = section.get(key, default)
    # the bound rejects nan, +-inf and integers too large for a float
    number = isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max
    if not {float: number, int: number and float(value).is_integer()}.get(kind, isinstance(value, kind)):
        expected = {int: "an integer", float: "a finite number"}.get(kind, f"a {kind.__name__}")
        raise ConfigError(f"{path}: expected {expected}, got {value!r}")
    return kind(value)


class ScanField(NamedTuple):
    """A scalar field of the scan document: config path, JSON type, ScanConfig attribute, and the flag that overwrites it."""

    path: str
    kind: type
    attr: str  # params.<name> is a field of the OscillatorParams
    flag: str
    options: dict = {}  # the flag's further add_argument options

    def read(self, doc: dict):
        owner, _, name = self.attr.rpartition(".")
        return _read(doc, self.path, self.kind, getattr(OscillatorParams if owner else ScanConfig, name, None))


# In document order; initial_state and outputs, not scalars, are read apart
SCAN_FIELDS = (
    ScanField("params.omega_a", float, "params.omega_a", "--omega-a"),
    ScanField("params.omega_b", float, "params.omega_b", "--omega-b"),
    ScanField("params.g_bs", float, "params.g_bs", "--g-bs"),
    ScanField("params.g_sq", float, "params.g_sq", "--g-sq"),
    ScanField("tau_grid.start", float, "tau_start", "--tau-start"),
    ScanField("tau_grid.end", float, "tau_end", "--tau-end"),
    ScanField("tau_grid.steps", int, "steps", "--steps"),
    ScanField("oracle.enabled", bool, "oracle_enabled", "--oracle", {"help": "add oracle columns to the scan"}),
    ScanField("oracle.cutoff", int, "cutoff", "--cutoff"),
    ScanField("output_path", str, "output_path", "--output", {"help": "output file path"}),
    ScanField("format", str, "fmt", "--format", {"choices": ["csv", "json"]}),
)


def _params(doc: dict) -> OscillatorParams:
    """The parameter point of doc, from its params fields alone."""
    return OscillatorParams(**{f.attr.partition(".")[2]: f.read(doc) for f in SCAN_FIELDS if "." in f.attr})


class ScanOutput(NamedTuple):
    """An output column: its name, what it needs, and its values read from the scan's grid, regime and oracle point."""

    name: str
    needs: str  # "" nothing, "family" perturbative_family, "oracle" oracle.enabled, which writes it unrequested
    read: Callable[[SimpleNamespace], np.ndarray]  # regime is None outside perturbative_family, point without the oracle


# In file order, after tau; the "oracle" row x_oracle is the oracle's value of column x
OUTPUTS = (
    ScanOutput("fidelity", "", operator.attrgetter("grid.report.fidelity")),
    ScanOutput("bures", "", operator.attrgetter("grid.report.bures")),
    ScanOutput("delta_n", "", operator.attrgetter("grid.delta_n")),
    ScanOutput("r_plus", "", operator.attrgetter("grid.report.r_plus")),
    ScanOutput("r_minus", "", operator.attrgetter("grid.report.r_minus")),
    ScanOutput("c2_prediction", "family", lambda scan: 1.0 / np.sqrt(1.0 + c2_coefficient(scan.regime) * scan.regime.g_tilde**2)),
    ScanOutput("fidelity_oracle", "oracle", operator.attrgetter("point.fidelity")),
    ScanOutput("delta_n_oracle", "oracle", operator.attrgetter("point.delta_n")),
)
# The ScanSummary fields, in its order: the column each reduces, and how; None when that column is not written
STATISTICS = {
    "min_fidelity": ("fidelity", np.min),
    "max_abs_delta_n": ("delta_n", lambda column: np.abs(column).max()),
}
CORE_OUTPUTS = tuple(out.name for out in OUTPUTS if not out.needs)
ORACLE_OUTPUTS = tuple(out.name for out in OUTPUTS if out.needs == "oracle")


def _outside_family(what: str, p: OscillatorParams) -> list[str]:
    """The refusal of what, which needs the resonant laws, when p is outside ``perturbative_family``; else none."""
    return [] if perturbative_family(p) else [f"{what} needs resonant equal couplings with 0 < g/omega < 0.5"]


def _unscannable(kind: str) -> list[str]:
    """The refusal of an initial state kind that has no Gaussian factor; else none."""
    return [] if kind in ("vacuum", "squeezed") else ["initial_state: scans accept vacuum or squeezed only"]


def _time_problems(p: OscillatorParams, tau: float) -> list[str]:
    """The refusal of times up to |tau| / omega_a, or of their mode phases, that overflow a double; else none.

    kappa_+-, nu_0 and nu_1 are at most max(omega_a, omega_b) + |g_bs| + |g_sq|, so every phase
    w t is finite where that bound times |t| is; each term is formed on its own, since the
    stability bound keeps |g_bs| + |g_sq| below max(omega_a, omega_b) and so finite.
    """
    t = abs(tau) / p.omega_a
    if not np.isfinite(t):
        return ["tau_grid: the times tau / omega_a must be finite numbers"]
    if not np.isfinite(max(p.omega_a, p.omega_b) * t + (abs(p.g_bs) + abs(p.g_sq)) * t):
        return ["tau_grid: the mode phases (max(omega_a, omega_b) + |g_bs| + |g_sq|) tau / omega_a must be finite numbers"]
    return []


@dataclass(frozen=True)
class ScanConfig:
    """Everything one fidelity scan needs; serializes to a flat JSON document."""

    params: OscillatorParams
    initial_state: InitialState = InitialState("vacuum")
    tau_start: float = 0.0
    tau_end: float = 10.0
    steps: int = 101
    outputs: tuple[str, ...] = CORE_OUTPUTS
    oracle_enabled: bool = False
    cutoff: int = 40
    output_path: str = "scan.csv"
    fmt: str = "csv"

    def __post_init__(self):
        problems = []
        if not self.tau_end > self.tau_start:
            problems.append("tau_grid: end must exceed start")
        # in Python floats an overflow is a silent inf; in linspace and in taus / omega_a it warns first
        elif not np.isfinite(self.tau_end - self.tau_start):
            problems.append("tau_grid: end - start must be a finite number")
        else:
            problems += _time_problems(self.params, max(abs(self.tau_start), abs(self.tau_end)))
        if self.steps < 2:
            problems.append("tau_grid: steps must be at least 2")
        elif self.steps > MAX_STEPS:
            problems.append(f"tau_grid: steps must be at most {MAX_STEPS}")
        for name in self.outputs:  # compared, not hashed: an entry may be any JSON value
            if name not in [out.name for out in OUTPUTS if out.needs != "oracle"]:
                problems.append(f"outputs: unrecognized quantity {name!r}")
        problems += _unscannable(self.initial_state.kind)
        if self.fmt not in ("csv", "json"):
            problems.append("format: must be csv or json")
        try:
            FockBasis(self.cutoff)
        except ValueError as exc:
            problems.append(f"oracle: {exc}")
        for out in OUTPUTS:
            if out.needs == "family" and out.name in self.outputs:
                problems += _outside_family(f"outputs: {out.name}", self.params)
        if problems:
            raise ConfigError("; ".join(problems))

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> dict:
        kind, s = self.initial_state.kind, self.initial_state.s
        state = {"kind": kind, "s": s} if kind == "squeezed" else {"kind": kind}
        doc = {"params": {}, "initial_state": state, "tau_grid": {}, "outputs": list(self.outputs), "oracle": {}}
        for field in SCAN_FIELDS:
            section, key = _at(doc, field.path)
            section[key] = operator.attrgetter(field.attr)(self)
        return doc

    @staticmethod
    def from_dict(doc: dict) -> "ScanConfig":
        own = [field for field in SCAN_FIELDS if "." not in field.attr]
        # params first, so that an unstable pair is reported before the fields that follow
        params = _params(doc)
        kind = _read(doc, "initial_state.kind", str, ScanConfig.initial_state.kind)
        if problems := _unscannable(kind):  # before InitialState, so that a kind no scan takes is named as such
            raise ConfigError("; ".join(problems))
        s = _read(doc, "initial_state.s", float, InitialState.s)
        try:
            initial = InitialState(kind=kind, s=s)
        except ValueError as exc:
            raise ConfigError(f"initial_state: {exc}") from exc
        for field in own:
            _at(doc, field.path)  # the sections are checked before outputs, their fields after it
        outputs = doc.get("outputs", ScanConfig.outputs)
        if not isinstance(outputs, (list, tuple)):
            raise ConfigError(f"outputs: expected a list, got {type(outputs).__name__}")
        values = {field.attr: field.read(doc) for field in own}
        return ScanConfig(params=params, initial_state=initial, outputs=tuple(outputs), **values)


@dataclass(frozen=True)
class ScanSummary:
    """Scan statistics, one field per entry of STATISTICS; a statistic is None when its column was not requested."""

    min_fidelity: float | None
    max_abs_delta_n: float | None
    regime_flags: tuple[str, ...]

    def line(self) -> str:
        stats = {name: getattr(self, name) for name in STATISTICS}
        text = " ".join(f"{name}={float('nan') if x is None else x:.12g}" for name, x in stats.items())
        return f"{text} regime_flags={','.join(self.regime_flags) or 'none'}"


def _evaluate(cfg: ScanConfig) -> SimpleNamespace:
    """The one evaluation of a tau grid: its taus, oracle point, Gaussian grid and regime (None where not made)."""
    p = cfg.params
    taus = np.linspace(cfg.tau_start, cfg.tau_end, cfg.steps)
    ts = taus / p.omega_a
    point = None
    if cfg.oracle_enabled:
        # first, so that a request over the oracle's work budget is refused before the grid is paid for
        try:
            point = FockOracle(p, cfg.cutoff).compare(cfg.initial_state, ts)
        except (TruncationError, PhaseError) as exc:
            if exc.index is None:
                raise
            raise exc.in_units("tau", taus, p.omega_a) from exc
    regime = PerturbativeRegime(g_tilde=p.g_bs / p.omega_a, tau=np.abs(taus), s=cfg.initial_state.s) if perturbative_family(p) else None
    return SimpleNamespace(taus=taus, point=point, grid=gaussian_grid(cfg.initial_state.factor(), p, ts), regime=regime)


def run_scan(cfg: ScanConfig) -> tuple[dict[str, np.ndarray], ScanSummary]:
    """Evaluate the grid, write the output file, and return the float columns, in output order, plus summary."""
    scan = _evaluate(cfg)
    written = (out for out in OUTPUTS if out.name in cfg.outputs or out.needs == "oracle" and cfg.oracle_enabled)
    columns = {"tau": scan.taus, **{out.name: np.asarray(out.read(scan), dtype=float) for out in written}}
    stats = (float(reduce(columns[name])) if name in columns else None for name, reduce in STATISTICS.values())
    summary = ScanSummary(*stats, scan.regime.flags if scan.regime else ("outside-perturbative-family",))
    _write_output(cfg, columns, summary)
    return columns, summary


def _nested(value) -> str:
    """json.dumps(value, indent=2) as it reads one level deep inside an indent=2 document."""
    return json.dumps(value, indent=2).replace("\n", "\n  ")


@contextlib.contextmanager
def _rewritten(path: str):
    """The file at path, opened for binary writing like open(path, "wb") but rewritten in place.

    Opening with O_TRUNC blocks on ext4 until the previous version of a recently
    written file is flushed (40-70 ms, even for a few hundred bytes), so the file is
    overwritten from offset 0 and truncated at the final offset instead, also when
    the writer raises.  Devices and pipes, which cannot be truncated, are written as
    they are.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        try:
            yield fh
        finally:
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()


def _write_output(cfg: ScanConfig, columns: dict, summary: ScanSummary):
    """Stream the rows: the bytes of csv.writer with '%.17g' fields, and of json.dump(indent=2).

    The rows are formatted BLOCK_ROWS at a time, by csv_rows or json_rows, from
    each column's slice as floats.  The output path is rewritten in place, not
    atomically and with no fsync: a symlink is followed and keeps its target, a
    device or a pipe (/dev/null, /dev/stdout) is accepted, and a writer that
    fails mid-stream leaves the rows of the blocks completed so far and none of
    the previous file's bytes.
    """
    names, values = list(columns), list(columns.values())
    blocks = (
        np.stack([v[start : start + BLOCK_ROWS] for v in values], axis=1, dtype=float)
        for start in range(0, len(values[0]), BLOCK_ROWS)
    )
    with _rewritten(cfg.output_path) as fh:
        if cfg.fmt == "csv":
            fh.write(",".join(names).encode() + b"\r\n")
            for block in blocks:
                fh.write(csv_rows(block))
        else:
            fh.write(f'{{\n  "config": {_nested(cfg.to_dict())},\n  "rows": [\n'.encode())
            fh.write(json_rows(next(blocks), names))
            for block in blocks:
                fh.write(b",\n" + json_rows(block, names))
            fh.write(f'\n  ],\n  "summary": {_nested(asdict(summary))}\n}}\n'.encode())


# -- superconducting-circuit frame mapper ---------------------------------


@dataclass(frozen=True)
class CircuitParams:
    """Lab-frame circuit with two pumps on a (a + a+)(b + b+) interaction."""

    epsilon_a: float
    epsilon_b: float
    pump_sq_amp: float = 0.0
    pump_sq_freq: float = 0.0
    pump_bs_amp: float = 0.0
    pump_bs_freq: float = 0.0

    def __post_init__(self):
        for name, value in vars(self).items():  # by its own name, before any derived frequency is formed
            if not np.isfinite(value):
                raise ValueError(f"{name} must be a finite real number, got {value!r}")
        if self.epsilon_a <= 0 or self.epsilon_b <= 0:
            raise ValueError("lab-frame oscillator frequencies must be positive")
        if self.pump_sq_freq < 0 or self.pump_bs_freq < 0:
            raise ValueError("pump frequencies must be nonnegative")


@dataclass(frozen=True)
class FrameReport:
    """Outcome of the doubly-rotating-frame reduction."""

    params: OscillatorParams
    frame_shift_a: float
    frame_shift_b: float
    dropped_terms: tuple[tuple[str, float], ...]
    min_dropped_frequency: float
    regime: str = "weak"
    warnings: tuple[str, ...] = ()


def circuit_map(c: CircuitParams) -> FrameReport:
    """Map the pumped lab-frame circuit onto the static two-oscillator model.

    The frame rotates mode a at epsilon_a - omega_a and mode b at
    epsilon_b - omega_b.  Matching the pump frequencies to the frame
    (bs pump at the difference, sq pump at the sum of the rotation rates)
    fixes the frame shifts, the static couplings are half the pump
    amplitudes, and every non-matching combination is reported as a dropped
    oscillatory term with its frequency.
    """
    shift_a = 0.5 * (c.pump_sq_freq + c.pump_bs_freq)
    shift_b = 0.5 * (c.pump_sq_freq - c.pump_bs_freq)
    omega_a = c.epsilon_a - shift_a
    omega_b = c.epsilon_b - shift_b
    if omega_a <= 0 or omega_b <= 0:
        raise UnstableParamsError(
            f"frame detunings must be positive, got omega_a={omega_a:.6g}, omega_b={omega_b:.6g}"
        )
    params = OscillatorParams(omega_a, omega_b, g_bs=c.pump_bs_amp / 2.0, g_sq=c.pump_sq_amp / 2.0)

    op_phase = {"ab+": -(shift_a - shift_b), "a+b": shift_a - shift_b, "ab": -(shift_a + shift_b), "a+b+": shift_a + shift_b}
    kept = {("bs", "ab+", +1), ("bs", "a+b", -1), ("sq", "ab", +1), ("sq", "a+b+", -1)}
    dropped, warnings = [], []
    for pump, freq, amp in (("bs", c.pump_bs_freq, c.pump_bs_amp), ("sq", c.pump_sq_freq, c.pump_sq_amp)):
        if amp == 0.0:
            continue
        for op, phase in op_phase.items():
            for sign in (+1, -1):
                if (pump, op, sign) in kept:
                    continue
                nu = phase + sign * freq + 0.0  # a zero frequency is +0, not -0
                dropped.append((f"{pump}-pump {op}", float(nu)))
                if abs(nu) < 1e-9 * max(c.epsilon_a, c.epsilon_b):
                    warnings.append(f"dropped term {pump}-pump {op} is static; the frame reduction is invalid")
    min_freq = min((abs(nu) for _, nu in dropped), default=float("inf"))
    # detunings can sit at the same scale as the pump couplings: that is the
    # arbitrary-coupling regime this frame construction is built to reach
    ratio = max(abs(params.g_bs), abs(params.g_sq)) / params.stability_bound
    return FrameReport(
        params=params,
        frame_shift_a=shift_a,
        frame_shift_b=shift_b,
        dropped_terms=tuple(dropped),
        min_dropped_frequency=float(min_freq),
        regime="arbitrary-coupling" if ratio >= 0.1 else "weak-coupling",
        warnings=tuple(warnings),
    )


# -- argument parsing -------------------------------------------------------


def _add_common_flags(sub: argparse.ArgumentParser, reads: tuple[str, ...]):
    """--config, --g, and the flag of each field under an entry of reads (a path or "section."); --squeezing if it has initial_state."""
    sub.add_argument("--config", help="JSON config file")
    sub.add_argument("--g", type=float, help="sets both couplings equal")
    if "initial_state" in reads:
        sub.add_argument("--squeezing", type=float, help="initial squeezed-pair parameter; omit for vacuum")
    for field in filter(lambda field: field.path.startswith(reads), SCAN_FIELDS):
        how = {"action": "store_true", "default": None} if field.kind is bool else {"type": field.kind}
        sub.add_argument(field.flag, **how, **field.options)


def _document(args) -> dict:
    """The --config file (or the default scan), cut to the sections of args.reads, each given flag written in; checked once."""
    doc = {"params": {"omega_a": 1.0, "omega_b": 1.0, "g_bs": 0.05, "g_sq": 0.05}}
    if args.config:
        with open(args.config) as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON: {exc}") from exc
    sections = {path.partition(".")[0] for path in args.reads}  # a section the row leaves out is never looked at
    doc = {key: value for key, value in _at(doc, "")[0].items() if key in sections}  # _at refuses a top level not an object
    s = getattr(args, "squeezing", None)  # a flag the subcommand does not take reads as absent
    state = None if s is None else {"kind": "squeezed", "s": s} if s != 0.0 else {"kind": "vacuum"}
    # --g is written first, so that --g-bs or --g-sq overrides one of the pair; args holds each flag at argparse's dest
    flags = [("initial_state", state), ("params.g_bs", args.g), ("params.g_sq", args.g)]
    for path, value in flags + [(f.path, getattr(args, f.flag[2:].replace("-", "_"), None)) for f in SCAN_FIELDS]:
        if value is not None:
            section, key = _at(doc, path, create=True)
            section[key] = value
    return doc


def _fmt_block(m: np.ndarray) -> str:
    return "\n".join("  [" + ", ".join(f"{z.real:+.12g}{z.imag:+.12g}j" for z in row) + "]" for row in m)


def _cmd_validity(args) -> int:
    p = _params(_document(args))  # raises on instability
    kp, km = normal_mode_frequencies(p)
    print(f"params: omega_a={p.omega_a} omega_b={p.omega_b} g_bs={p.g_bs} g_sq={p.g_sq}")
    print(f"normal modes: kappa_plus={kp:.12g} kappa_minus={km:.12g}")
    print(f"critical coupling along this ray: {critical_coupling(p):.12g}")
    print("stability: ok")
    return 0


def _cmd_evolve(args) -> int:
    doc = _document(args)
    p = _params(doc)  # evolve reads the parameter point and one time, tau_grid.start
    tau = _read(doc, "tau_grid.start", float, ScanConfig.tau_start)
    if problems := _time_problems(p, tau):
        raise ConfigError("; ".join(problems))
    t = tau / p.omega_a
    s = time_evolution(p, t)
    print(f"tau={tau:.12g} (t={t:.12g})")
    print(f"full evolution block A(t):\n{_fmt_block(s.alpha)}")
    print(f"full evolution block B(t):\n{_fmt_block(s.beta)}")
    print(f"rwa evolution block:\n{_fmt_block(rwa_block(p, t))}")
    return 0


def _cmd_scan(args) -> int:
    cfg = ScanConfig.from_dict(_document(args))
    columns, summary = run_scan(cfg)
    print(args.wrote.format(cfg=cfg))
    for out in OUTPUTS if args.compare else ():
        if out.needs == "oracle" and (name := out.name.removesuffix("_oracle")) in columns:
            print(f"max |{name} - oracle| = {np.max(np.abs(columns[name] - columns[out.name])):.3e}")
    print(summary.line())
    return 0


def _cmd_perturbative_compare(args) -> int:
    cfg = ScanConfig.from_dict(_document(args))
    p = cfg.params
    if problems := _outside_family("perturbative-compare", p):
        raise ConfigError("; ".join(problems))
    g = p.g_bs / p.omega_a
    s = cfg.initial_state.s
    ladder = [g, g / 2.0, g / 4.0]
    # the ladder is sampled at the grid's largest |tau|: 1 - F is even in tau
    slope = convergence_order(ladder_regimes(ladder, g_tau=g * max(abs(cfg.tau_start), abs(cfg.tau_end)), s=s))
    print(f"coupling ladder: {ladder}")
    print(f"fitted order of 1 - F in g: {slope:.3f} (expected 2)")
    if s == 0.0:
        scan = _evaluate(cfg)
        worst = float(np.max(np.abs(scan.grid.report.fidelity - vacuum_perturbative_fidelity(scan.regime))))
        print(f"max |F_exact - F_perturbative| on the grid: {worst:.3e}")
    return 0


def _cmd_circuit_map(args) -> int:
    report = circuit_map(CircuitParams(**{f.name: getattr(args, f.name) for f in fields(CircuitParams)}))
    p = report.params
    print(f"frame shifts: mode a {report.frame_shift_a:.12g}, mode b {report.frame_shift_b:.12g}")
    print(f"effective params: omega_a={p.omega_a:.12g} omega_b={p.omega_b:.12g} g_bs={p.g_bs:.12g} g_sq={p.g_sq:.12g}")
    print(f"critical coupling along this ray: {critical_coupling(p):.12g}")
    print(f"regime: {report.regime}")
    if report.dropped_terms:
        print("dropped oscillatory terms (frequency):")
        for label, nu in report.dropped_terms:
            print(f"  {label}: {nu:+.12g}")
        print(f"slowest dropped frequency: {report.min_dropped_frequency:.12g}")
    else:
        print("dropped oscillatory terms: none (pumps off)")
    for w in report.warnings:
        print(f"warning: {w}")
    return 0


@functools.cache  # built once per process: each add_argument queries the terminal size
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rwafidelity",
        description="Quantify the accuracy of the rotating wave approximation for two coupled oscillators.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    oracle_check = ("params.", "initial_state", "tau_grid.", "outputs", "oracle.cutoff", "output_path", "format")
    # each row is a subcommand's whole contract: the document paths it reads, and its fixed defaults
    for name, fn, reads, helptext, fixed in (
        ("validity", _cmd_validity, ("params.",), "check parameter stability and print normal modes", {}),
        ("evolve", _cmd_evolve, ("params.", "tau_grid.start"), "print the evolution blocks at one time", {}),
        ("fidelity-scan", _cmd_scan, (*oracle_check, "oracle.enabled"), "scan fidelity and related quantities over a tau grid",
         {"wrote": "wrote {cfg.output_path} ({cfg.fmt}, {cfg.steps} rows)", "compare": False}),
        ("perturbative-compare", _cmd_perturbative_compare, ("params.", "initial_state", "tau_grid."), "fit the small-coupling convergence order", {}),
        ("oracle-check", _cmd_scan, oracle_check, "compare against the truncated Fock-space oracle",
         {"oracle": True, "wrote": "wrote {cfg.output_path} ({cfg.steps} rows, cutoff {cfg.cutoff})", "compare": True}),
    ):
        sub = subs.add_parser(name, help=helptext)
        _add_common_flags(sub, reads)
        sub.set_defaults(fn=fn, reads=reads, usage=sub, **fixed)
    sub = subs.add_parser("circuit-map", help="map a pumped circuit to effective oscillator parameters")
    for f in fields(CircuitParams):
        need = {"required": True} if f.default is MISSING else {"default": f.default}
        sub.add_argument("--" + f.name.replace("_", "-"), type=float, **need)
    sub.set_defaults(fn=_cmd_circuit_map, usage=sub)
    return parser


def main(argv=None) -> int:
    args, unread = build_parser().parse_known_args(argv)
    if unread:  # refused with the usage of the subcommand, which names the flags it does take
        args.usage.error(f"unrecognized arguments: {' '.join(unread)}")
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except (TruncationError, ArithmeticError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
