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
import os
import stat
import sys
from dataclasses import asdict, dataclass

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


def _section(doc: dict, name: str) -> dict:
    """The optional object doc[name]; a ConfigError names it when it is not an object."""
    value = doc.get(name, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{name}: expected an object, got {type(value).__name__}")
    return value


def _field(section: dict, where: str, key: str, kind, default=None):
    """section[key] as a finite JSON number, integral when kind is int; default=None makes the field required."""
    if key not in section:
        if default is None:
            raise ConfigError(f"{where}: missing field {key!r}")
        return default
    value = section[key]
    # the bound rejects nan, +-inf and integers too large for a float
    number = isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max
    if not number or (kind is int and not float(value).is_integer()):
        expected = "an integer" if kind is int else "a finite number"
        raise ConfigError(f"{where}.{key}: expected {expected}, got {value!r}")
    return kind(value)


def _typed(section: dict, name: str, kind: type, default):
    """The field at config path name ([section.]key), which must already be a kind: nothing is converted."""
    value = section.get(name.rsplit(".", 1)[-1], default)
    if not isinstance(value, kind):
        raise ConfigError(f"{name}: expected a {kind.__name__}, got {value!r}")
    return value


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
        return {
            "params": asdict(self.params),
            "initial_state": state,
            "tau_grid": {"start": self.tau_start, "end": self.tau_end, "steps": self.steps},
            "outputs": list(self.outputs),
            "oracle": {"enabled": self.oracle_enabled, "cutoff": self.cutoff},
            "output_path": self.output_path,
            "format": self.fmt,
        }

    @staticmethod
    def from_dict(doc: dict) -> "ScanConfig":
        if not isinstance(doc, dict):
            raise ConfigError(f"config: the top-level value must be an object, got {type(doc).__name__}")
        pdoc = _section(doc, "params")
        params = OscillatorParams(
            omega_a=_field(pdoc, "params", "omega_a", float),
            omega_b=_field(pdoc, "params", "omega_b", float),
            g_bs=_field(pdoc, "params", "g_bs", float, OscillatorParams.g_bs),
            g_sq=_field(pdoc, "params", "g_sq", float, OscillatorParams.g_sq),
        )
        sdoc = doc.get("initial_state")
        sdoc = {"kind": sdoc} if isinstance(sdoc, str) else _section(doc, "initial_state")
        initial = InitialState(
            kind=sdoc.get("kind", ScanConfig.initial_state.kind), s=_field(sdoc, "initial_state", "s", float, InitialState.s)
        )
        grid = _section(doc, "tau_grid")
        oracle = _section(doc, "oracle")
        outputs = doc.get("outputs", ScanConfig.outputs)
        if not isinstance(outputs, (list, tuple)):
            raise ConfigError(f"outputs: expected a list, got {type(outputs).__name__}")
        return ScanConfig(
            params=params,
            initial_state=initial,
            tau_start=_field(grid, "tau_grid", "start", float, ScanConfig.tau_start),
            tau_end=_field(grid, "tau_grid", "end", float, ScanConfig.tau_end),
            steps=_field(grid, "tau_grid", "steps", int, ScanConfig.steps),
            outputs=tuple(outputs),
            oracle_enabled=_typed(oracle, "oracle.enabled", bool, ScanConfig.oracle_enabled),
            cutoff=_field(oracle, "oracle", "cutoff", int, ScanConfig.cutoff),
            output_path=_typed(doc, "output_path", str, ScanConfig.output_path),
            fmt=_typed(doc, "format", str, ScanConfig.fmt),
        )

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


# The config-document field each flag overwrites, in writing order: --g comes
# before --g-bs and --g-sq so that either overrides one of the pair.
_FLAG_FIELDS = (
    ("output", "output_path"),
    ("fmt", "format"),
    ("omega_a", "params.omega_a"),
    ("omega_b", "params.omega_b"),
    ("g", "params.g_bs"),
    ("g", "params.g_sq"),
    ("g_bs", "params.g_bs"),
    ("g_sq", "params.g_sq"),
    ("tau_start", "tau_grid.start"),
    ("tau_end", "tau_grid.end"),
    ("steps", "tau_grid.steps"),
    ("cutoff", "oracle.cutoff"),
    ("oracle", "oracle.enabled"),
)


def _add_common_flags(sub: argparse.ArgumentParser):
    sub.add_argument("--config", help="JSON config file")
    sub.add_argument("--output", help="output file path")
    sub.add_argument("--format", choices=["csv", "json"], dest="fmt")
    sub.add_argument("--omega-a", type=float)
    sub.add_argument("--omega-b", type=float)
    sub.add_argument("--g", type=float, help="sets both couplings equal")
    sub.add_argument("--g-bs", type=float)
    sub.add_argument("--g-sq", type=float)
    sub.add_argument("--squeezing", type=float, help="initial squeezed-pair parameter; omit for vacuum")
    sub.add_argument("--tau-start", type=float)
    sub.add_argument("--tau-end", type=float)
    sub.add_argument("--steps", type=int)
    sub.add_argument("--cutoff", type=int)
    sub.add_argument("--oracle", action="store_true", default=None, help="add oracle columns to the scan")


def _document(args) -> dict:
    """The --config file (or the default scan) as a config document, each given flag written into its field."""
    if args.config:
        with open(args.config) as fh:
            doc = ScanConfig.from_json(fh.read()).to_dict()
    else:
        doc = ScanConfig(params=OscillatorParams(1.0, 1.0, 0.05, 0.05)).to_dict()
    if args.squeezing is not None:
        doc["initial_state"] = {"kind": "squeezed", "s": args.squeezing} if args.squeezing != 0.0 else {"kind": "vacuum"}
    for dest, path in _FLAG_FIELDS:
        value = getattr(args, dest)
        if value is not None:
            section, _, key = path.rpartition(".")
            (doc[section] if section else doc)[key] = value
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
    tau = _field(doc["tau_grid"], "tau_grid", "start", float)
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
    circuit = CircuitParams(
        epsilon_a=args.epsilon_a,
        epsilon_b=args.epsilon_b,
        pump_sq_amp=args.pump_sq_amp,
        pump_sq_freq=args.pump_sq_freq,
        pump_bs_amp=args.pump_bs_amp,
        pump_bs_freq=args.pump_bs_freq,
    )
    report = circuit_map(circuit)
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
    sub.add_argument("--epsilon-a", type=float, required=True)
    sub.add_argument("--epsilon-b", type=float, required=True)
    sub.add_argument("--pump-sq-amp", type=float, default=0.0)
    sub.add_argument("--pump-sq-freq", type=float, default=0.0)
    sub.add_argument("--pump-bs-amp", type=float, default=0.0)
    sub.add_argument("--pump-bs-freq", type=float, default=0.0)
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
