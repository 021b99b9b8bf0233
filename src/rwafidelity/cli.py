"""Command-line harness: parameter scans, oracle checks, and the circuit mapper.

One JSON config document drives the scan subcommands; every field can also be
overridden from flags.  Output is plot-ready CSV or JSON with a stable column
order and floats that read back exactly ('%.17g' in CSV, repr in JSON), so
regenerated files diff cleanly.
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
from typing import NamedTuple

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
from .fockoracle import MAX_CUTOFF, FockOracle, TruncationError
from .metrics import gaussian_grid
from .perturbation import (
    PerturbativeRegime,
    c2_coefficient,
    convergence_order,
    ladder_regimes,
    perturbative_family,
    vacuum_perturbative_fidelity,
)
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

CORE_OUTPUTS = ("fidelity", "bures", "delta_n", "r_plus", "r_minus")
KNOWN_OUTPUTS = CORE_OUTPUTS + ("c2_prediction",)
ORACLE_OUTPUTS = ("fidelity_oracle", "delta_n_oracle")
MAX_STEPS = 10**6  # every column is held in memory as a float array before the rows are written
# rows per csv_rows or json_rows call: of 128 to 4096, 1024 formatted 2000 CSV rows fastest on a 2-vCPU VM,
# and the temporaries peak near 1.3 MB at the widest JSON scan (9 columns, about 140 bytes per value)
BLOCK_ROWS = 1024


class ConfigError(ValueError):
    """Invalid scan configuration, with field-level diagnostics."""


def _at(doc: dict, path: str) -> tuple[dict, str]:
    """The object holding config path [section.]key in doc, and key; a ConfigError names a section that is not one."""
    section, _, key = path.rpartition(".")
    holder = doc.get(section, {}) if section else doc
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


def _outside_family(what: str, p: OscillatorParams) -> list[str]:
    """The refusal of what, which needs the resonant laws, when p is outside ``perturbative_family``; else none."""
    return [] if perturbative_family(p) else [f"{what} needs resonant equal couplings with 0 < g/omega < 0.5"]


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
        for name in self.outputs:
            if name not in KNOWN_OUTPUTS:
                problems.append(f"outputs: unrecognized quantity {name!r}")
        if self.initial_state.kind not in ("vacuum", "squeezed"):
            problems.append("initial_state: scans accept vacuum or squeezed only")
        elif self.initial_state.kind == "vacuum" and self.initial_state.s != 0.0:
            problems.append("initial_state: s needs kind squeezed")
        if self.fmt not in ("csv", "json"):
            problems.append("format: must be csv or json")
        if not (1 <= self.cutoff <= MAX_CUTOFF):
            problems.append(f"oracle: cutoff must be in [1, {MAX_CUTOFF}]")
        if "c2_prediction" in self.outputs:
            problems += _outside_family("outputs: c2_prediction", self.params)
        if problems:
            raise ConfigError("; ".join(problems))

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> dict:
        state: dict = {"kind": self.initial_state.kind}
        if self.initial_state.kind == "squeezed":
            state["s"] = self.initial_state.s
        doc = {"params": {}, "initial_state": state, "tau_grid": {}, "outputs": list(self.outputs), "oracle": {}}
        for field in SCAN_FIELDS:
            section, key = _at(doc, field.path)
            section[key] = operator.attrgetter(field.attr)(self)
        return doc

    @staticmethod
    def from_dict(doc: dict) -> "ScanConfig":
        if not isinstance(doc, dict):
            raise ConfigError(f"config: the top-level value must be an object, got {type(doc).__name__}")
        own = [field for field in SCAN_FIELDS if "." not in field.attr]
        # params first, so that an unstable pair is reported before the fields that follow
        params = OscillatorParams(**{f.attr.partition(".")[2]: f.read(doc) for f in SCAN_FIELDS if "." in f.attr})
        if isinstance(doc.get("initial_state"), str):
            doc = {**doc, "initial_state": {"kind": doc["initial_state"]}}
        kind = _at(doc, "initial_state.kind")[0].get("kind", ScanConfig.initial_state.kind)
        initial = InitialState(kind=kind, s=_read(doc, "initial_state.s", float, InitialState.s))
        for field in own:
            _at(doc, field.path)  # the sections are checked before outputs, their fields after it
        outputs = doc.get("outputs", ScanConfig.outputs)
        if not isinstance(outputs, (list, tuple)):
            raise ConfigError(f"outputs: expected a list, got {type(outputs).__name__}")
        values = {field.attr: field.read(doc) for field in own}
        return ScanConfig(params=params, initial_state=initial, outputs=tuple(outputs), **values)

    @staticmethod
    def from_json(text: str) -> "ScanConfig":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return ScanConfig.from_dict(doc)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


@dataclass(frozen=True)
class ScanSummary:
    """Scan statistics; a statistic is None when its column was not requested."""

    min_fidelity: float | None
    max_abs_delta_n: float | None
    regime_flags: tuple[str, ...]

    def line(self) -> str:
        flags = ",".join(self.regime_flags) if self.regime_flags else "none"
        fid, dn = (float("nan") if x is None else x for x in (self.min_fidelity, self.max_abs_delta_n))
        return f"min_fidelity={fid:.12g} max_abs_delta_n={dn:.12g} regime_flags={flags}"


def run_scan(cfg: ScanConfig) -> tuple[dict[str, np.ndarray], ScanSummary]:
    """Evaluate the grid, write the output file, and return the float columns, in output order, plus summary."""
    p = cfg.params
    taus = np.linspace(cfg.tau_start, cfg.tau_end, cfg.steps)
    ts = taus / p.omega_a
    values = {"tau": taus}
    if cfg.oracle_enabled:
        # first, so that a request over the oracle's work budget is refused before the grid is paid for
        try:
            point = FockOracle(p, cfg.cutoff).compare(cfg.initial_state, ts)
        except TruncationError as exc:
            if exc.index is None:
                raise
            raise TruncationError(exc.reason, exc.index, f"tau = {taus[exc.index]:.6g}") from exc
        values["fidelity_oracle"], values["delta_n_oracle"] = point.fidelity, point.delta_n
    grid = gaussian_grid(cfg.initial_state.factor(), p, ts)
    values.update(delta_n=grid.delta_n, **vars(grid.report))
    flags = ("outside-perturbative-family",)
    if perturbative_family(p):
        regime = PerturbativeRegime(g_tilde=p.g_bs / p.omega_a, tau=np.abs(taus), s=cfg.initial_state.s)
        flags = regime.flags
        if "c2_prediction" in cfg.outputs:
            values["c2_prediction"] = 1.0 / np.sqrt(1.0 + c2_coefficient(regime) * regime.g_tilde**2)
    names = ["tau", *(name for name in KNOWN_OUTPUTS if name in cfg.outputs), *(ORACLE_OUTPUTS if cfg.oracle_enabled else ())]
    columns = {name: np.asarray(values[name], dtype=float) for name in names}

    summary = ScanSummary(
        min_fidelity=float(columns["fidelity"].min()) if "fidelity" in columns else None,
        max_abs_delta_n=float(np.abs(columns["delta_n"]).max()) if "delta_n" in columns else None,
        regime_flags=flags,
    )
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
    dropped = []
    warnings = []
    for pump, freq, amp in (("bs", c.pump_bs_freq, c.pump_bs_amp), ("sq", c.pump_sq_freq, c.pump_sq_amp)):
        if amp == 0.0:
            continue
        for op, phase in op_phase.items():
            for sign in (+1, -1):
                if (pump, op, sign) in kept:
                    continue
                nu = phase + sign * freq
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


def _add_common_flags(sub: argparse.ArgumentParser):
    sub.add_argument("--config", help="JSON config file")
    sub.add_argument("--g", type=float, help="sets both couplings equal")
    sub.add_argument("--squeezing", type=float, help="initial squeezed-pair parameter; omit for vacuum")
    for field in SCAN_FIELDS:
        how = {"action": "store_true", "default": None} if field.kind is bool else {"type": field.kind}
        sub.add_argument(field.flag, **how, **field.options)


def _document(args) -> dict:
    """The --config file (or the default scan) as a config document, each given flag written into its field."""
    if args.config:
        with open(args.config) as fh:
            doc = ScanConfig.from_json(fh.read()).to_dict()
    else:
        doc = ScanConfig(params=OscillatorParams(1.0, 1.0, 0.05, 0.05)).to_dict()
    if args.squeezing is not None:
        doc["initial_state"] = {"kind": "squeezed", "s": args.squeezing} if args.squeezing != 0.0 else {"kind": "vacuum"}
    if args.g is not None:  # written first, so that --g-bs or --g-sq overrides one of the pair
        doc["params"].update(g_bs=args.g, g_sq=args.g)
    for field in SCAN_FIELDS:
        value = getattr(args, field.flag[2:].replace("-", "_"))  # argparse's own dest
        if value is not None:
            section, key = _at(doc, field.path)
            section[key] = value
    return doc


def _fmt_block(m: np.ndarray) -> str:
    lines = []
    for row in m:
        lines.append("  [" + ", ".join(f"{z.real:+.12g}{z.imag:+.12g}j" for z in row) + "]")
    return "\n".join(lines)


def _cmd_validity(args) -> int:
    cfg = ScanConfig.from_dict(_document(args))  # raises on instability
    p = cfg.params
    kp, km = normal_mode_frequencies(p)
    print(f"params: omega_a={p.omega_a} omega_b={p.omega_b} g_bs={p.g_bs} g_sq={p.g_sq}")
    print(f"normal modes: kappa_plus={kp:.12g} kappa_minus={km:.12g}")
    print(f"critical coupling along this ray: {critical_coupling(p):.12g}")
    print("stability: ok")
    return 0


def _cmd_evolve(args) -> int:
    doc = _document(args)
    # evolve reads one time, tau_grid.start, so the rest of the document is checked with the default grid
    p = ScanConfig.from_dict({**doc, "tau_grid": {}}).params
    tau = _read(doc, "tau_grid.start", float)
    if problems := _time_problems(p, tau):
        raise ConfigError("; ".join(problems))
    t = tau / p.omega_a
    s = time_evolution(p, t)
    u = rwa_block(p, t)
    print(f"tau={tau:.12g} (t={t:.12g})")
    print("full evolution block A(t):")
    print(_fmt_block(s.alpha))
    print("full evolution block B(t):")
    print(_fmt_block(s.beta))
    print("rwa evolution block:")
    print(_fmt_block(u))
    return 0


def _cmd_fidelity_scan(args) -> int:
    cfg = ScanConfig.from_dict(_document(args))
    _, summary = run_scan(cfg)
    print(f"wrote {cfg.output_path} ({cfg.fmt}, {cfg.steps} rows)")
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
        taus = np.linspace(cfg.tau_start, cfg.tau_end, cfg.steps)
        exact = gaussian_grid(cfg.initial_state.factor(), p, taus / p.omega_a).report.fidelity
        law = vacuum_perturbative_fidelity(PerturbativeRegime(g_tilde=g, tau=np.abs(taus)))
        worst = float(np.max(np.abs(exact - law)))
        print(f"max |F_exact - F_perturbative| on the grid: {worst:.3e}")
    return 0


def _cmd_oracle_check(args) -> int:
    cfg = ScanConfig.from_dict(_document(args))
    columns, summary = run_scan(cfg)
    print(f"wrote {cfg.output_path} ({cfg.steps} rows, cutoff {cfg.cutoff})")
    for name in ("fidelity", "delta_n"):
        if name in columns:
            worst = np.max(np.abs(columns[name] - columns[f"{name}_oracle"]))
            print(f"max |{name} - oracle| = {worst:.3e}")
    print(summary.line())
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
    for name, fn, helptext in (
        ("validity", _cmd_validity, "check parameter stability and print normal modes"),
        ("evolve", _cmd_evolve, "print the evolution blocks at one time"),
        ("fidelity-scan", _cmd_fidelity_scan, "scan fidelity and related quantities over a tau grid"),
        ("perturbative-compare", _cmd_perturbative_compare, "fit the small-coupling convergence order"),
        ("oracle-check", _cmd_oracle_check, "compare against the truncated Fock-space oracle"),
    ):
        sub = subs.add_parser(name, help=helptext)
        _add_common_flags(sub)
        sub.set_defaults(fn=fn)
    subs.choices["oracle-check"].set_defaults(oracle=True)
    sub = subs.add_parser("circuit-map", help="map a pumped circuit to effective oscillator parameters")
    for f in fields(CircuitParams):
        need = {"required": True} if f.default is MISSING else {"default": f.default}
        sub.add_argument("--" + f.name.replace("_", "-"), type=float, **need)
    sub.set_defaults(fn=_cmd_circuit_map)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
