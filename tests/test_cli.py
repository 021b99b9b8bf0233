import argparse
import csv
import importlib
import json
import operator
import os
import pkgutil
import re
import subprocess
import sys
import time
from dataclasses import asdict, fields
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import rwafidelity
from rwafidelity import cli, dynamics, floatrows
from rwafidelity.cli import (
    BLOCK_ROWS,
    CORE_OUTPUTS,
    MAX_STEPS,
    ORACLE_OUTPUTS,
    SCAN_FIELDS,
    CircuitParams,
    ConfigError,
    ScanConfig,
    ScanSummary,
    _write_output,
    build_parser,
    circuit_map,
    main,
    run_scan,
)
from rwafidelity.dynamics import OscillatorParams, UnstableParamsError
from rwafidelity.fockoracle import FockOracle, TruncationError
from rwafidelity.states import InitialState


PARAMS_DOC = {"params": {"omega_a": 1.0, "omega_b": 1.0}}
DETUNED = {"omega_a": 1.0, "omega_b": 1.2, "g_bs": 0.1, "g_sq": 0.05}
RESONANT = {"omega_a": 1.0, "omega_b": 1.0, "g_bs": 0.1, "g_sq": 0.1}
PHASE_OVERFLOW = "tau_grid: the mode phases (max(omega_a, omega_b) + |g_bs| + |g_sq|) tau / omega_a must be finite numbers"


def make_config(tmp_path, **overrides):
    fields = dict(
        params=OscillatorParams(1.0, 1.0, 0.05, 0.05),
        initial_state=InitialState("vacuum"),
        tau_start=0.0,
        tau_end=5.0,
        steps=6,
        output_path=str(tmp_path / "scan.csv"),
    )
    fields.update(overrides)
    return ScanConfig(**fields)


def _subprocess_env(*paths: str) -> dict:
    """The environment with the package sources, then paths, put first on PYTHONPATH."""
    entries = [str(Path(rwafidelity.__file__).parents[1]), *paths, os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, entries))}


class TestScanConfig:
    def test_json_roundtrip(self, tmp_path):
        cfg = make_config(tmp_path, initial_state=InitialState("squeezed", s=0.2), oracle_enabled=True, cutoff=24)
        assert ScanConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    def test_validation_messages(self, tmp_path):
        with pytest.raises(ConfigError, match="steps"):
            make_config(tmp_path, steps=1)
        with pytest.raises(ConfigError, match="unrecognized"):
            make_config(tmp_path, outputs=("fidelity", "typo"))
        with pytest.raises(ConfigError, match="c2_prediction"):
            make_config(tmp_path, params=OscillatorParams(1.0, 2.0, 0.05, 0.05), outputs=("fidelity", "c2_prediction"))
        with pytest.raises(ConfigError, match="end must exceed start"):
            make_config(tmp_path, tau_end=float("nan"))

    def test_integral_float_is_accepted(self):
        cfg = ScanConfig.from_dict({**PARAMS_DOC, "tau_grid": {"steps": 101.0}, "oracle": {"cutoff": 24.0}})
        assert (cfg.steps, cfg.cutoff) == (101, 24)
        assert isinstance(cfg.steps, int) and isinstance(cfg.cutoff, int)

    def test_rejects_bad_json(self, tmp_path, capsys):
        (tmp_path / "cfg.json").write_text("{not json")
        assert main(["fidelity-scan", "--config", str(tmp_path / "cfg.json")]) == 2
        assert capsys.readouterr().err.startswith("validation error: config is not valid JSON: Expecting property name")

    def test_to_dict_key_order(self, tmp_path):
        # the JSON output's config block is written in this order
        doc = make_config(tmp_path, initial_state=InitialState("squeezed", s=0.2)).to_dict()
        assert list(doc) == ["params", "initial_state", "tau_grid", "outputs", "oracle", "output_path", "format"]
        assert list(doc["params"]) == ["omega_a", "omega_b", "g_bs", "g_sq"]
        assert list(doc["initial_state"]) == ["kind", "s"]
        assert list(doc["tau_grid"]) == ["start", "end", "steps"]
        assert list(doc["oracle"]) == ["enabled", "cutoff"]


# a value for each scalar field's flag, none of them the field's value in the config it overwrites
FLAG_VALUES = {
    "params.omega_a": 1.25,
    "params.omega_b": 0.75,
    "params.g_bs": 0.02,
    "params.g_sq": 0.03,
    "tau_grid.start": 0.5,
    "tau_grid.end": 3.0,
    "tau_grid.steps": 4,
    "oracle.enabled": True,
    "oracle.cutoff": 16,
    "output_path": "flagged.json",
    "format": "json",
}
EXPECTED = {float: "a finite number", int: "an integer", bool: "a bool", str: "a str"}


class TestScanFields:
    # each row of the schema: its flag, its place in the document and its ScanConfig attribute
    @pytest.mark.parametrize("field", SCAN_FIELDS, ids=lambda field: field.path)
    def test_flag_lands_at_its_path_and_attribute(self, tmp_path, monkeypatch, field):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps(make_config(tmp_path, cutoff=12).to_dict()))
        value = FLAG_VALUES[field.path]
        flag = [field.flag] if field.kind is bool else [field.flag, str(value)]
        assert main(["fidelity-scan", "--config", "cfg.json", "--format", "json", "--output", "flagged.json", *flag]) == 0
        config = json.loads((tmp_path / "flagged.json").read_text())["config"]
        section, _, key = field.path.rpartition(".")
        assert (config[section] if section else config)[key] == value
        assert operator.attrgetter(field.attr)(ScanConfig.from_dict(config)) == value

    @pytest.mark.parametrize("field", SCAN_FIELDS, ids=lambda field: field.path)
    def test_wrong_type_exit_2(self, tmp_path, capsys, field):
        doc = make_config(tmp_path).to_dict()
        section, _, key = field.path.rpartition(".")
        (doc[section] if section else doc)[key] = [1]
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        assert main(["fidelity-scan", "--config", str(tmp_path / "cfg.json")]) == 2
        assert capsys.readouterr().err == f"validation error: {field.path}: expected {EXPECTED[field.kind]}, got [1]\n"
        assert not (tmp_path / "scan.csv").exists()


PARAMS_FLAGS = {"--config", "--g", "--omega-a", "--omega-b", "--g-bs", "--g-sq"}
GRID_FLAGS = {"--tau-start", "--tau-end", "--steps"}
ORACLE_CHECK_FLAGS = PARAMS_FLAGS | GRID_FLAGS | {"--squeezing", "--cutoff", "--output", "--format"}
# each subcommand's flags: those of the document fields it reads, and circuit-map's CircuitParams fields
SUBCOMMAND_FLAGS = {
    "validity": PARAMS_FLAGS,
    "evolve": PARAMS_FLAGS | {"--tau-start"},
    "fidelity-scan": ORACLE_CHECK_FLAGS | {"--oracle"},
    "perturbative-compare": PARAMS_FLAGS | GRID_FLAGS | {"--squeezing"},
    "oracle-check": ORACLE_CHECK_FLAGS,
    "circuit-map": {"--" + f.name.replace("_", "-") for f in fields(CircuitParams)},
}


class TestSubcommandFlags:
    def test_each_subcommand_takes_the_flags_of_the_fields_it_reads(self):
        subs = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
        flags = {name: {s for a in sub._actions for s in a.option_strings} - {"-h", "--help"} for name, sub in subs.items()}
        assert flags == SUBCOMMAND_FLAGS
        assert {name: len(taken) for name, taken in flags.items()} == {
            "validity": 6, "evolve": 7, "fidelity-scan": 14, "perturbative-compare": 10, "oracle-check": 13, "circuit-map": 6
        }

    @pytest.mark.parametrize(
        "argv",
        [["validity", "--steps", "1"], ["validity", "--cutoff", "0"], ["evolve", "--format", "json"],
         ["perturbative-compare", "--output", "x.csv"], ["oracle-check", "--oracle"]],
        ids=" ".join,
    )
    def test_a_flag_of_a_field_not_read_exit_2(self, tmp_path, monkeypatch, capsys, argv):
        # argparse refuses it with the subcommand's own usage and exits; main does not catch that exit
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: rwafidelity {argv[0]} [-h] ")
        assert err.endswith(f"\nrwafidelity {argv[0]}: error: unrecognized arguments: {' '.join(argv[1:])}\n")
        assert list(tmp_path.iterdir()) == []

    def test_circuit_map_refuses_a_scan_flag_with_its_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["circuit-map", "--epsilon-a", "6", "--epsilon-b", "5.5", "--g", "0.1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: rwafidelity circuit-map [-h] ")
        assert err.endswith("\nrwafidelity circuit-map: error: unrecognized arguments: --g 0.1\n")

    @pytest.mark.parametrize(
        "command, read, unread",
        [
            ("validity", {"params": DETUNED}, {"tau_grid": {"start": 1.5, "steps": 1}}),
            ("evolve", {"params": DETUNED, "tau_grid": {"start": 1.5}}, {"tau_grid": {"start": 1.5, "steps": 1}}),
            ("perturbative-compare", {"params": RESONANT, "tau_grid": {"end": 5.0, "steps": 20}}, {}),
        ],
        ids=["validity", "evolve", "perturbative-compare"],
    )
    def test_validity_and_evolve_read_only_the_parameter_point(self, tmp_path, capsys, command, read, unread):
        # the fields a command's row does not read, each invalid, change nothing: validity reads params, evolve
        # also tau_grid.start alone of its section, and perturbative-compare params, initial_state and tau_grid
        unread = {**read, **unread, "outputs": "fidelity", "oracle": {"cutoff": 0}, "format": "xml", "output_path": None}
        printed = []
        for name, doc in ("unread", unread), ("read", read):
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
            assert main([command, "--config", str(tmp_path / f"{name}.json")]) == 0
            printed.append(capsys.readouterr())
        assert printed[0] == printed[1] and printed[0].err == ""
        starts = {"validity": "params: omega_a=1.0 omega_b=1.2 ", "evolve": "tau=1.5 ", "perturbative-compare": "coupling ladder: [0.1, "}
        assert printed[0].out.startswith(starts[command])

    @pytest.mark.parametrize("command", ["fidelity-scan", "oracle-check"])
    def test_a_scan_row_reads_every_section_of_the_scan_document(self, tmp_path, command):
        # _document cuts a --config file to the sections of the row: a scan row without outputs would drop its columns
        sections = {path.partition(".")[0] for path in build_parser().parse_args([command]).reads}
        assert set(make_config(tmp_path).to_dict()) <= sections


FAMILY = "needs resonant equal couplings with 0 < g/omega < 0.5"


class TestOutputTable:
    # each row of cli.OUTPUTS, checked by what it needs, and each entry of cli.STATISTICS
    def scan(self, tmp_path, outputs, *flags, fmt="csv"):
        (tmp_path / "cfg.json").write_text(json.dumps({**PARAMS_DOC, "outputs": outputs}))
        argv = ["fidelity-scan", "--config", str(tmp_path / "cfg.json"), *flags, "--steps", "3", "--cutoff", "12"]
        return main([*argv, "--format", fmt, "--output", str(tmp_path / f"scan.{fmt}")])

    def header(self, tmp_path):
        return (tmp_path / "scan.csv").read_text().splitlines()[0].split(",")

    def test_header_follows_row_order(self, tmp_path):
        requestable = [out.name for out in cli.OUTPUTS if out.needs != "oracle"]
        assert self.scan(tmp_path, requestable[::-1], "--g", "0.05", "--oracle") == 0
        assert self.header(tmp_path) == ["tau", *(out.name for out in cli.OUTPUTS)]

    @pytest.mark.parametrize("out", cli.OUTPUTS, ids=operator.attrgetter("name"))
    def test_row_is_written_as_it_needs(self, tmp_path, capsys, out):
        if out.needs == "oracle":
            assert self.scan(tmp_path, [out.name], "--g", "0.05") == 2
            assert capsys.readouterr().err == f"validation error: outputs: unrecognized quantity {out.name!r}\n"
            assert self.scan(tmp_path, [], "--g", "0.05", "--oracle") == 0
            assert self.header(tmp_path) == ["tau", *ORACLE_OUTPUTS] and out.name in ORACLE_OUTPUTS
            return
        # a detuned scan is outside perturbative_family
        assert self.scan(tmp_path, [out.name], "--omega-b", "1.3", "--g", "0.05") == (2 if out.needs == "family" else 0)
        if out.needs == "family":
            assert capsys.readouterr().err == f"validation error: outputs: {out.name} {FAMILY}\n"
        assert self.scan(tmp_path, [out.name], "--g", "0.05") == 0
        assert self.header(tmp_path) == ["tau", out.name]

    def test_summary_fields_follow_the_statistics(self):
        assert [f.name for f in fields(ScanSummary)] == [*cli.STATISTICS, "regime_flags"]

    @pytest.mark.parametrize("name", cli.STATISTICS)
    def test_statistic_is_null_without_its_column(self, tmp_path, name):
        column, reduce = cli.STATISTICS[name]
        assert self.scan(tmp_path, [n for n in CORE_OUTPUTS if n != column], fmt="json") == 0
        assert json.loads((tmp_path / "scan.json").read_text())["summary"][name] is None
        assert self.scan(tmp_path, [column], "--squeezing", "0.3", fmt="json") == 0
        doc = json.loads((tmp_path / "scan.json").read_text())
        assert doc["summary"][name] == float(reduce(np.array([row[column] for row in doc["rows"]])))

    @pytest.mark.parametrize("entry", [[1], {"a": 1}], ids=["list", "object"])
    def test_unhashable_output_entry_exit_2(self, tmp_path, capsys, entry):
        # entries are compared with the row names, never hashed, so any JSON value is refused by name
        assert self.scan(tmp_path, ["fidelity", entry]) == 2
        assert capsys.readouterr().err == f"validation error: outputs: unrecognized quantity {entry!r}\n"
        assert not (tmp_path / "scan.csv").exists()


class TestRunScan:
    def test_uncoupled_fidelity_column_is_one(self, tmp_path):
        cfg = make_config(tmp_path, params=OscillatorParams(1.0, 1.0, 0.0, 0.0))
        columns, summary = run_scan(cfg)
        assert all(f == 1.0 for f in columns["fidelity"])
        assert summary.min_fidelity == 1.0

    def test_recurrence_row(self, tmp_path):
        t_star = 2.0 * np.pi / np.sqrt(0.4)
        cfg = make_config(
            tmp_path,
            params=OscillatorParams(1.0, 1.0, 0.3, 0.3),
            tau_start=0.0,
            tau_end=2.0 * t_star,
            steps=3,
        )
        columns, _ = run_scan(cfg)
        assert columns["tau"][1] == pytest.approx(t_star)
        assert columns["fidelity"][1] == pytest.approx(1.0, abs=1e-8)

    def test_oracle_columns_agree(self, tmp_path):
        cfg = make_config(tmp_path, tau_end=4.0, steps=5, oracle_enabled=True, cutoff=30)
        columns, _ = run_scan(cfg)
        for name in ("fidelity", "delta_n"):
            for x, y in zip(columns[name], columns[f"{name}_oracle"], strict=True):
                assert abs(x - y) < 1e-6

    def test_row_invariants(self, tmp_path):
        cfg = make_config(tmp_path, initial_state=InitialState("squeezed", s=0.3), tau_end=8.0, steps=17)
        columns, _ = run_scan(cfg)
        for fid, bures in zip(columns["fidelity"], columns["bures"], strict=True):
            assert 0.0 <= fid <= 1.0
            assert bures**2 == pytest.approx(2.0 * (1.0 - np.sqrt(fid)), abs=1e-9)

    def test_csv_header_and_determinism(self, tmp_path):
        cfg = make_config(tmp_path, outputs=("fidelity", "bures", "delta_n", "r_plus", "r_minus", "c2_prediction"))
        run_scan(cfg)
        first = (tmp_path / "scan.csv").read_bytes()
        with open(cfg.output_path) as fh:
            header = fh.readline().strip()
        assert header == "tau,fidelity,bures,delta_n,r_plus,r_minus,c2_prediction"
        run_scan(cfg)
        assert (tmp_path / "scan.csv").read_bytes() == first

    def test_csv_roundtrip_precision(self, tmp_path):
        cfg = make_config(tmp_path, tau_end=3.0, steps=4)
        columns, _ = run_scan(cfg)
        with open(cfg.output_path) as fh:
            parsed = list(csv.DictReader(fh))
        for row, ref in zip(parsed, columns["fidelity"]):
            assert float(row["fidelity"]) == ref
        assert {name: [float(row[name]) for row in parsed] for name in columns} == {name: c.tolist() for name, c in columns.items()}

    def test_columns_are_float_arrays_and_the_summary_python_floats(self, tmp_path):
        columns, summary = run_scan(make_config(tmp_path, oracle_enabled=True, cutoff=24))
        assert list(columns) == ["tau", *CORE_OUTPUTS, *ORACLE_OUTPUTS]
        assert all(type(c) is np.ndarray and c.dtype == np.float64 and c.shape == (6,) for c in columns.values())
        assert type(summary.min_fidelity) is float and type(summary.max_abs_delta_n) is float
        assert summary.min_fidelity == min(columns["fidelity"].tolist())
        assert summary.max_abs_delta_n == max(map(abs, columns["delta_n"].tolist()))

    def test_json_output_embeds_config(self, tmp_path):
        path = tmp_path / "scan.json"
        cfg = make_config(tmp_path, output_path=str(path), fmt="json")
        run_scan(cfg)
        doc = json.loads(path.read_text())
        assert ScanConfig.from_dict(doc["config"]) == cfg
        assert len(doc["rows"]) == cfg.steps
        assert "min_fidelity" in doc["summary"]

    def test_json_summary_is_strict_json_without_statistic_columns(self, tmp_path):
        path = tmp_path / "scan.json"
        run_scan(make_config(tmp_path, outputs=("bures",), output_path=str(path), fmt="json"))

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        doc = json.loads(path.read_text(), parse_constant=reject)
        assert doc["summary"]["min_fidelity"] is None and doc["summary"]["max_abs_delta_n"] is None

    def test_regime_flags_reported(self, tmp_path):
        cfg = make_config(tmp_path, params=OscillatorParams(1.0, 1.0, 0.1, 0.1), tau_end=50.0)
        _, summary = run_scan(cfg)
        assert "g2tau-outside-window" in summary.regime_flags
        cfg = make_config(tmp_path, params=OscillatorParams(1.0, 2.0, 0.1, 0.0))
        _, summary = run_scan(cfg)
        assert "outside-perturbative-family" in summary.regime_flags
        # resonance is judged in units of the frequencies: a 2x detuning at omega 1e-7 is one too
        _, summary = run_scan(make_config(tmp_path, params=OscillatorParams(1e-7, 2e-7, 1e-8, 1e-8)))
        assert summary.regime_flags == ("outside-perturbative-family",)

    @pytest.mark.parametrize("state", [InitialState("vacuum"), InitialState("squeezed", s=0.3)], ids=["vacuum", "squeezed"])
    def test_negative_taus_mirror_the_positive_scan(self, tmp_path, state):
        # every column, C2 included, is even in tau, and the window flag judges the largest |tau|:
        # g^2 |tau| reaches the window at tau = -10 but not at the grid's end, -1
        outputs = CORE_OUTPUTS + ("c2_prediction",)
        p = OscillatorParams(1.0, 1.0, 0.12, 0.12)
        negative, neg_summary = run_scan(make_config(tmp_path, params=p, initial_state=state, tau_start=-10.0, tau_end=-1.0, steps=10, outputs=outputs))
        positive, pos_summary = run_scan(make_config(tmp_path, params=p, initial_state=state, tau_start=1.0, tau_end=10.0, steps=10, outputs=outputs))
        assert negative["tau"].tolist() == [-tau for tau in reversed(positive["tau"].tolist())]
        for name in outputs:
            assert negative[name].tolist() == positive[name][::-1].tolist(), name
        assert neg_summary == pos_summary
        assert neg_summary.regime_flags == ("g2tau-outside-window",)


def stdlib_output(path, cfg, columns, summary):
    """What csv.writer with .17g strings, or json.dump(indent=2) plus a newline, writes for these columns."""
    rows = list(zip(*columns.values()))
    if cfg.fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            writer.writerows([f"{v:.17g}" for v in row] for row in rows)
    else:
        doc = {"config": cfg.to_dict(), "rows": [dict(zip(columns, row)) for row in rows], "summary": asdict(summary)}
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    return Path(path).read_bytes()


def _row_major(values, names=("tau", *CORE_OUTPUTS)) -> dict[str, list[float]]:
    """The values laid out row by row into the named columns, the last row padded with 1.0."""
    values = np.concatenate([values, np.ones(-len(values) % len(names))])
    return {name: values[k :: len(names)].tolist() for k, name in enumerate(names)}


def _bit_patterns():
    """10^5 random 64-bit patterns (NaNs, infinities and subnormals among them), and the special values."""
    bits = np.random.default_rng(17).integers(0, 2**64, 100_000, dtype=np.uint64).view(np.float64)
    special = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308]
    return np.concatenate([bits, special, bits[::997] * 0.0])


def _log_uniform():
    rng = np.random.default_rng(19)
    return 10.0 ** rng.uniform(-30.0, 30.0, 60_000) * rng.choice([-1.0, 1.0], 60_000)


def _ties():
    """x with x 10^p exactly half-way between two 17-digit integers, for p = 16 - X in [1, 22].

    x = j / 2^(p+1) with j odd gives x 10^p = 5^p j / 2, a half-integer.  p = 0 has
    none: the doubles from 10^16 up are even integers.
    """
    rng = np.random.default_rng(23)
    ties = []
    for p in range(1, 23):
        for j in rng.integers(-(-2 * 10**16 // 5**p), min(2 * 10**17 // 5**p, 2**53) - 1, 40):
            x = (int(j) | 1) / 2 ** (p + 1)
            scaled = Fraction(x) * 10**p
            assert scaled.denominator == 2 and 10**16 <= scaled < 10**17, (p, x)
            ties += [x, -x]
    return np.array(ties + [1234567890123456.75])


def _near_repr_tie(x: float, margin: Fraction) -> bool:
    """Whether |x| 10^p, scaled into [10^16, 10^17), lies within margin of a tie between two 16- or
    15-digit candidates (an odd multiple of 5 or 50) that both read back: half an ulp of x spans
    more than half their spacing.  Exact, for a p with 10^p not a double (p < 0 or p > 22)."""
    a = abs(x)
    p = 16 - int(np.floor(np.log10(a)))
    scaled = Fraction(a) * Fraction(10) ** p
    p += (scaled < 10**16) - (scaled >= 10**17)
    scaled = Fraction(a) * Fraction(10) ** p
    half = Fraction(float(np.spacing(a))) * Fraction(10) ** p / 2
    near = any(abs(scaled % unit - Fraction(unit, 2)) < margin and half > Fraction(unit, 2) for unit in (10, 100))
    return near and not 0 <= p <= 22


def _powers_of_ten():
    """10^k and its neighbours one ulp either side, for k in [-30, 30], of both signs."""
    powers = np.array([float(f"1e{k}") for k in range(-30, 31)])
    near = np.concatenate([np.nextafter(powers, 0.0), powers, np.nextafter(powers, np.inf)])
    return np.concatenate([near, -near])


def _repr_edges():
    """Where repr differs from %.17g: powers of two (an asymmetric rounding interval) and their
    neighbours, the notation edges X = -5 and 16, integral values, -0, and short decimals."""
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    near = np.concatenate([np.nextafter(powers, 0.0), powers, np.nextafter(powers, np.inf)])
    edges = np.array([1e16, 1e-5, 1e-4, 1e15])
    edges = np.concatenate([np.nextafter(edges, 0.0), edges, np.nextafter(edges, np.inf)])
    integral = [1.0, 2.0, 3.0, 10.0, 1e15, 123456789.0, 999999999999999.0, 9007199254740992.0, 9999999999999998.0, 0.0, -0.0]
    rng = np.random.default_rng(37)
    short = []
    for digits in (15, 16):
        for mantissa, exp in zip(rng.integers(10 ** (digits - 1), 10**digits, 3000), rng.integers(-40, 40, 3000)):
            text = f"{mantissa}e{exp}"
            if Fraction(repr(float(text))) == Fraction(text):
                short.append(float(text))
    assert len(short) > 4000 and max(len(repr(x).split("e")[0].replace(".", "").strip("0")) for x in short) == 16
    return np.concatenate([near, -near, edges, -edges, integral, short])


def _layout_edges():
    """Values at X = -5, -4, 16 and 17, where %g changes notation, and with three-digit exponents."""
    rng = np.random.default_rng(29)
    exps = np.array([-5, -4, 16, 17, -100, -101, -279, -280, 100, 101, 279])
    mantissas = np.concatenate([[1.0, 9.999999999999999, 1.5, 1.25], rng.uniform(1.0, 10.0, 40)])
    edges = [1e-5, 9.9999999999999991e-5, 1e-4, 1e16, 9.9999999999999984e16, 1e17, 1.2345678901234567e16, 1e-280, 1e280]
    return np.concatenate([(mantissas[:, None] * 10.0 ** exps).ravel(), edges, np.negative(edges)])


class TestWriteOutput:
    # the streamed writers (a block at a time by floatrows' csv_rows and json_rows) against
    # the stdlib writers, kept here as the reference; each column takes every other value
    AWKWARD = [-0.0, 5e-324, 1e-300, 2.0, 1e16, 0.1, 1.0 / 3.0, -2.5e-17, 1.7e308, 1.7e308, 1.7e308, 1.7e308]

    def columns(self, names):
        rng = np.random.default_rng(5)
        n = len(self.AWKWARD)
        columns = {"tau": np.linspace(-4.0, 6.0, n).tolist()}
        for k, name in enumerate(names):
            column = (rng.normal(size=n) * 10.0 ** rng.integers(-20, 20, n)).tolist()
            column[k % 2 :: 2] = self.AWKWARD[k % 2 :: 2]
            columns[name] = column
        return columns

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("c2", [False, True], ids=["core", "c2"])
    @pytest.mark.parametrize("oracle", [False, True], ids=["no-oracle", "oracle"])
    def test_bytes_match_stdlib_writers(self, tmp_path, fmt, c2, oracle):
        outputs = CORE_OUTPUTS + (("c2_prediction",) if c2 else ())
        cfg = make_config(tmp_path, outputs=outputs, oracle_enabled=oracle, fmt=fmt, output_path=str(tmp_path / "new"))
        columns = self.columns(outputs + (ORACLE_OUTPUTS if oracle else ()))
        summary = ScanSummary(min(columns["fidelity"]), None, ("outside-perturbative-family",))
        _write_output(cfg, columns, summary)
        assert (tmp_path / "new").read_bytes() == stdlib_output(tmp_path / "old", cfg, columns, summary)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_nonfinite_spelling(self, tmp_path, fmt):
        cfg = make_config(tmp_path, fmt=fmt, output_path=str(tmp_path / "new"))
        columns = self.columns(CORE_OUTPUTS)
        columns["r_minus"][-3:] = [float("nan"), float("inf"), -float("inf")]
        summary = ScanSummary(float("nan"), float("inf"), ())
        _write_output(cfg, columns, summary)
        written = (tmp_path / "new").read_bytes().decode()
        assert written.encode() == stdlib_output(tmp_path / "old", cfg, columns, summary)
        if fmt == "json":
            # json.dump's spelling, which a bare %r of the float ("nan", "inf") would miss
            assert '"r_minus": NaN' in written and '"r_minus": -Infinity' in written and "nan" not in written
        else:
            assert ",nan" in written and ",-inf" in written

    @pytest.mark.parametrize(
        "corpus, fmt",
        [
            pytest.param(corpus, fmt, id=corpus.__name__[1:] + suffix)
            for fmt, suffix in (("csv", ""), ("json", "-json"))
            for corpus in (_bit_patterns, _log_uniform, _ties, _powers_of_ten, _layout_edges, _repr_edges)
        ],
    )
    def test_blockwise_kernel_writes_the_bytes_of_printf(self, tmp_path, corpus, fmt):
        # CSV fields are '%.17g', JSON values repr (json.dump's spelling)
        cfg = make_config(tmp_path, output_path=str(tmp_path / "new"), fmt=fmt)
        columns = _row_major(corpus())
        summary = ScanSummary(None, None, ())
        _write_output(cfg, columns, summary)
        assert (tmp_path / "new").read_bytes() == stdlib_output(tmp_path / "old", cfg, columns, summary)

    def test_undecided_roundings_fall_back_to_printf(self, tmp_path, monkeypatch):
        # with TIE = 1/2 every inexact rounding is undecided and goes through '%.17g' or repr:
        # that of 1e-30 <= |x| < 1e30 outside 1e-6 <= |x| < 1e17, where 10^(16-X) is not a double
        monkeypatch.setattr(floatrows, "TIE", 0.5)
        columns = _row_major(_log_uniform()[:6000])
        summary = ScanSummary(None, None, ())
        for fmt, fallback in ("csv", "_printf"), ("json", "_repr"):
            calls = []
            formatted = getattr(floatrows, fallback)
            monkeypatch.setattr(floatrows, fallback, lambda value: calls.append(value) or formatted(value))
            cfg = make_config(tmp_path, output_path=str(tmp_path / "new"), fmt=fmt)
            _write_output(cfg, columns, summary)
            assert (tmp_path / "new").read_bytes() == stdlib_output(tmp_path / "old", cfg, columns, summary), fmt
            assert len(calls) > 3000, fmt

    def test_json_near_tie_falls_back_to_repr(self, tmp_path, monkeypatch):
        # a 15- or 16-digit rounding within TIE of a tie between two candidates that both read back
        # is left to repr.  No corpus comes that close at TIE = 2^-40, so TIE is raised to 2^-4:
        # then 20 of these 20000 log-uniform values lie within TIE/2 of such a tie, and 1950 of
        # them fall back for any reason (114 at the default TIE)
        monkeypatch.setattr(floatrows, "TIE", 2.0**-4)
        calls = []
        formatted = floatrows._repr
        monkeypatch.setattr(floatrows, "_repr", lambda value: calls.append(value) or formatted(value))
        values = _log_uniform()[:20000]
        ties = [x for x in values if _near_repr_tie(x, Fraction(floatrows.TIE) / 2)]
        cfg = make_config(tmp_path, output_path=str(tmp_path / "new"), fmt="json")
        columns, summary = _row_major(values), ScanSummary(None, None, ())
        _write_output(cfg, columns, summary)
        assert (tmp_path / "new").read_bytes() == stdlib_output(tmp_path / "old", cfg, columns, summary)
        assert len(ties) >= 10 and set(ties) <= set(calls)

    @pytest.mark.parametrize("extra", [-1, 0, 1, BLOCK_ROWS + 1], ids=["below", "at", "above", "two-blocks-above"])
    def test_scan_across_a_block_boundary(self, tmp_path, extra):
        cfg = make_config(tmp_path, initial_state=InitialState("squeezed", s=0.3), tau_end=40.0, steps=BLOCK_ROWS + extra)
        columns, summary = run_scan(cfg)
        assert Path(cfg.output_path).read_bytes() == stdlib_output(tmp_path / "old", cfg, columns, summary)

    def test_benchmark_like_scans_never_fall_back(self, tmp_path, monkeypatch):
        # 2001-point closed-route scans: resonant with the C2 column, and detuned
        calls = []
        printf = floatrows._printf
        monkeypatch.setattr(floatrows, "_printf", lambda value: calls.append(value) or printf(value))
        rng = np.random.default_rng(31)
        for resonant in (True, False, True, False):
            g = rng.uniform(0.01, 0.2)
            params = OscillatorParams(1.0, 1.0 if resonant else rng.uniform(0.5, 1.5), g, g)
            outputs = CORE_OUTPUTS + (("c2_prediction",) if resonant else ())
            state = InitialState("squeezed", s=rng.uniform(0.0, 1.0))
            cfg = make_config(tmp_path, params=params, initial_state=state, tau_end=10.0, steps=2001, outputs=outputs)
            columns, summary = run_scan(cfg)
            assert Path(cfg.output_path).read_bytes() == stdlib_output(tmp_path / "old", cfg, columns, summary)
        assert calls == []

    def test_benchmark_like_json_scans_never_fall_back(self, tmp_path, monkeypatch):
        # 2001-point general-coupling JSON scans: unequal couplings of either sign, one of them zero on two draws in three
        calls = []
        formatted = floatrows._repr
        monkeypatch.setattr(floatrows, "_repr", lambda value: calls.append(value) or formatted(value))
        rng = np.random.default_rng(41)
        for k in range(6):
            g_bs, g_sq = (0.0 if k % 3 == j else rng.choice((-1.0, 1.0)) * rng.uniform(0.01, 0.25) for j in (2, 1))
            params = OscillatorParams(1.0, 1.0 if rng.random() < 0.5 else rng.uniform(0.5, 1.5), g_bs, g_sq)
            state = InitialState("squeezed", s=rng.uniform(0.0, 1.0))
            cfg = make_config(tmp_path, params=params, initial_state=state, tau_end=10.0, steps=2001, fmt="json")
            columns, summary = run_scan(cfg)
            assert Path(cfg.output_path).read_bytes() == stdlib_output(tmp_path / "old", cfg, columns, summary)
        assert calls == []


class TestRewriteInPlace:
    # the output is overwritten from offset 0 and truncated at its end, never opened with
    # O_TRUNC: on ext4, truncating a recently written file to zero blocks for 40-70 ms
    # (measured on a 2-vCPU VM) until the previous version is flushed, even at 400 bytes
    SCAN = ["fidelity-scan", "--g", "0.05", "--tau-end", "2"]

    def scan(self, path, fmt, steps):
        assert main([*self.SCAN, "--steps", str(steps), "--format", fmt, "--output", str(path)]) == 0
        return Path(path).read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_longer_and_shorter_rewrites_match_fresh_files(self, tmp_path, fmt):
        path = tmp_path / f"out.{fmt}"
        fresh_short = self.scan(path, fmt, 5)
        path.unlink()
        fresh_long = self.scan(path, fmt, 2001)
        path.unlink()
        self.scan(path, fmt, 5)
        assert self.scan(path, fmt, 2001) == fresh_long
        assert self.scan(path, fmt, 5) == fresh_short

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_device_target(self, fmt):
        assert main([*self.SCAN, "--steps", "5", "--format", fmt, "--output", "/dev/null"]) == 0

    def test_pipe_target(self, tmp_path):
        fresh = self.scan(tmp_path / "out.csv", "csv", 5)
        argv = [sys.executable, "-m", "rwafidelity.cli", *self.SCAN, "--steps", "5", "--output", "/dev/stdout"]
        proc = subprocess.run(argv, capture_output=True, env=_subprocess_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith(fresh + b"wrote /dev/stdout (csv, 5 rows)")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_symlink_keeps_the_link_and_writes_its_target(self, tmp_path, fmt):
        target, link = tmp_path / "target", tmp_path / "link"
        link.symlink_to(target)
        fresh = self.scan(link, fmt, 5)  # a dangling link creates its target
        target.write_bytes(b"Z" * 100_000)
        assert self.scan(link, fmt, 5) == fresh
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == fresh

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_failure_mid_stream_leaves_only_the_rows_written(self, tmp_path, monkeypatch, fmt):
        # a block's rows are written once all of them are formatted, so a kernel that fails
        # on the second block leaves the header and the first block's rows, complete
        path = tmp_path / "out"
        cfg = make_config(tmp_path, fmt=fmt, output_path=str(path), tau_end=2.0, steps=BLOCK_ROWS + 3)
        columns, summary = run_scan(cfg)
        whole = path.read_bytes()
        path.write_bytes(b"Z" * (2 * len(whole)))
        kernel, blocks = getattr(cli, f"{fmt}_rows"), []

        def failing(block, *names):
            blocks.append(len(block))
            if len(blocks) == 2:
                raise ValueError("the second block")
            return kernel(block, *names)

        monkeypatch.setattr(cli, f"{fmt}_rows", failing)
        with pytest.raises(ValueError, match="the second block"):
            _write_output(cfg, columns, summary)
        written = path.read_bytes()
        assert blocks == [BLOCK_ROWS, 3]
        if fmt == "csv":
            assert written == b"".join(whole.splitlines(keepends=True)[: 1 + BLOCK_ROWS])
        else:
            # everything before the separator that opens row BLOCK_ROWS + 1
            opens = [m.start() for m in re.finditer(rb",\n    \{\n", whole)]
            assert len(opens) == BLOCK_ROWS + 2
            assert written == whole[: opens[BLOCK_ROWS - 1]]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_output_is_opened_without_o_trunc(self, tmp_path, monkeypatch, fmt):
        path = tmp_path / f"out.{fmt}"
        flags = []
        os_open = os.open

        def spy(file, flag, *args, **kwargs):
            if os.fspath(file) == str(path):
                flags.append(flag)
            return os_open(file, flag, *args, **kwargs)

        monkeypatch.setattr(os, "open", spy)
        self.scan(path, fmt, 5)
        self.scan(path, fmt, 5)
        assert len(flags) == 2
        assert all(f & os.O_TRUNC == 0 and f & os.O_CREAT and f & os.O_WRONLY for f in flags)


class TestCircuitMap:
    def test_pumps_off(self):
        report = circuit_map(CircuitParams(epsilon_a=5.0, epsilon_b=6.0))
        assert report.params.g_bs == 0.0
        assert report.params.g_sq == 0.0
        assert report.dropped_terms == ()

    def test_matched_pumps(self):
        # frame shifts reproduce the pump matching conditions
        eps_a, eps_b = 6.0, 5.5
        omega_a, omega_b = 0.9, 1.1
        shift_a, shift_b = eps_a - omega_a, eps_b - omega_b
        circ = CircuitParams(
            epsilon_a=eps_a,
            epsilon_b=eps_b,
            pump_sq_amp=0.2,
            pump_sq_freq=shift_a + shift_b,
            pump_bs_amp=0.3,
            pump_bs_freq=shift_a - shift_b,
        )
        report = circuit_map(circ)
        assert report.params.omega_a == pytest.approx(omega_a)
        assert report.params.omega_b == pytest.approx(omega_b)
        assert report.params.g_bs == pytest.approx(0.15)
        assert report.params.g_sq == pytest.approx(0.1)
        assert report.frame_shift_a == pytest.approx(shift_a)
        # 6 dropped combinations per active pump
        assert len(report.dropped_terms) == 12
        assert report.min_dropped_frequency > 0.0

    def test_megahertz_scale_arbitrary_coupling(self):
        # detunings and couplings all at the 2*pi x 10 MHz scale: valid, and
        # the coupling-to-frequency ratio lands in the arbitrary regime
        mhz = 2.0 * np.pi * 1e6
        eps_a = eps_b = 2.0 * np.pi * 6.0e9
        shift = eps_a - 10.0 * mhz  # detunings omega = 2*pi x 10 MHz
        circ = CircuitParams(
            epsilon_a=eps_a,
            epsilon_b=eps_b,
            pump_sq_amp=2.0 * 4.0 * mhz,
            pump_sq_freq=2.0 * shift,
            pump_bs_amp=2.0 * 4.0 * mhz,
            pump_bs_freq=0.0,
        )
        report = circuit_map(circ)
        assert report.params.omega_a == pytest.approx(10.0 * mhz)
        assert report.params.g_bs == pytest.approx(4.0 * mhz)
        assert report.regime == "arbitrary-coupling"

    def test_weak_regime_flag(self):
        report = circuit_map(
            CircuitParams(epsilon_a=6.0, epsilon_b=5.5, pump_bs_amp=0.02, pump_bs_freq=0.5, pump_sq_amp=0.02, pump_sq_freq=9.7)
        )
        assert report.regime == "weak-coupling"

    def test_unstable_effective_params_rejected(self):
        # pump amplitudes put the couplings beyond the critical value
        circ = CircuitParams(
            epsilon_a=6.0, epsilon_b=5.5, pump_sq_amp=1.5, pump_sq_freq=9.6, pump_bs_amp=1.5, pump_bs_freq=0.2
        )
        with pytest.raises(UnstableParamsError):
            circuit_map(circ)

    def test_negative_detuning_rejected(self):
        with pytest.raises(UnstableParamsError):
            circuit_map(CircuitParams(epsilon_a=1.0, epsilon_b=1.0, pump_sq_amp=0.1, pump_sq_freq=3.0))


class TestMainExitCodes:
    def test_validity_ok(self, capsys):
        assert main(["validity", "--omega-a", "1", "--omega-b", "1", "--g", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "kappa_plus" in out and "stability: ok" in out

    def test_validity_critical_exit_2(self, capsys):
        assert main(["validity", "--omega-a", "1", "--omega-b", "1", "--g", "0.5"]) == 2
        assert "critical" in capsys.readouterr().err
        # ten times the bound, where sqrt(omega_a*omega_b) would overflow to inf
        assert main(["validity", "--omega-a", "1e200", "--omega-b", "1e200", "--g-bs", "1e201"]) == 2
        assert "stability bound sqrt(omega_a*omega_b) = 1e+200" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_scan_at_extreme_frequency_scales(self, tmp_path, capsys, scale):
        # neither the resonance test nor the stability bound forms a product of frequencies,
        # so a scan scaled by 1e-200 or 1e200 gives the columns of the scan at omega = 1
        columns = {}
        for omega in (1.0, scale):
            path = tmp_path / f"{omega!r}.csv"
            argv = ["fidelity-scan", "--omega-a", repr(omega), "--omega-b", repr(omega), "--g", repr(0.1 * omega), "--squeezing", "0.3"]
            assert main([*argv, "--tau-end", "2", "--steps", "21", "--output", str(path)]) == 0
            assert capsys.readouterr().out.endswith("regime_flags=none\n")
            columns[omega] = np.loadtxt(path, delimiter=",", skiprows=1)
        np.testing.assert_allclose(columns[scale], columns[1.0], rtol=0.0, atol=1e-12)

    def test_evolve_reads_only_its_time(self, capsys):
        # the default scan grid ends at tau 10, but evolve evaluates tau_grid.start alone
        assert main(["evolve", "--g", "0.2", "--tau-start", "15"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("tau=15 (t=15)") and "rwa evolution block:" in out
        assert main(["evolve", "--g", "0.2", "--tau-start", "nan"]) == 2
        assert "tau_grid.start: expected a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("tau", ["1e10", "1e12", "1e16"])
    def test_evolve_at_long_times(self, capsys, tau):
        # S(t) passes its own Bogoliubov check wherever the mode phases are finite
        assert main(["evolve", "--omega-b", "10", "--g", "0.05", "--tau-start", tau]) == 0
        out, err = capsys.readouterr()
        assert out.startswith(f"tau={float(tau):.12g} ") and err == ""

    def test_evolve_refuses_an_overflowing_phase(self, capsys):
        # t = 1e308 is a double, but omega_b t is not: refused before S(t) is formed, with no numpy warning
        assert main(["evolve", "--omega-b", "10", "--g", "0.05", "--tau-start", "1e308"]) == 2
        assert capsys.readouterr().err == f"validation error: {PHASE_OVERFLOW}\n"
        assert main(["evolve", "--omega-a", "1e-200", "--omega-b", "1e-200", "--g", "1e-201", "--tau-start=-1e200"]) == 2
        assert capsys.readouterr().err == "validation error: tau_grid: the times tau / omega_a must be finite numbers\n"
        # the bound's terms are formed apart, so frequencies near the largest double still run
        assert main(["evolve", "--omega-a", "1.5e308", "--omega-b", "1.5e308", "--g", "1e307", "--tau-start", "2"]) == 0

    def test_family_refusal_is_one_message(self, tmp_path, capsys):
        # a 2x detuning at omega 1e-7 is outside the perturbative family for the scan and for the comparison alike
        doc = {"params": {"omega_a": 1e-7, "omega_b": 2e-7, "g_bs": 1e-8, "g_sq": 1e-8}, "outputs": ["fidelity", "c2_prediction"]}
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        family = "needs resonant equal couplings with 0 < g/omega < 0.5"
        assert main(["fidelity-scan", "--config", str(tmp_path / "cfg.json"), "--output", str(tmp_path / "scan.csv")]) == 2
        assert f"validation error: outputs: c2_prediction {family}" in capsys.readouterr().err
        assert main(["perturbative-compare", "--omega-a", "1e-7", "--omega-b", "2e-7", "--g", "1e-8"]) == 2
        assert f"validation error: perturbative-compare {family}" in capsys.readouterr().err
        assert not (tmp_path / "scan.csv").exists()

    def test_evolve_identity_at_time_zero(self, capsys):
        assert main(["evolve", "--omega-a", "1", "--omega-b", "1", "--g", "0.2", "--tau-start", "0"]) == 0
        out = capsys.readouterr().out
        identity = "full evolution block A(t):\n  [+1+0j, +0+0j]\n  [+0+0j, +1+0j]\n"
        assert identity + "full evolution block B(t):\n  [+0+0j, +0+0j]\n  [+0+0j, +0+0j]\n" in out

    def test_fidelity_scan_writes_file(self, tmp_path, capsys):
        out_path = str(tmp_path / "out.csv")
        code = main(
            ["fidelity-scan", "--omega-a", "1", "--omega-b", "1", "--g", "0.05", "--tau-end", "4", "--steps", "5", "--output", out_path]
        )
        assert code == 0
        assert "min_fidelity=" in capsys.readouterr().out
        with open(out_path) as fh:
            assert fh.readline().startswith("tau,fidelity")

    def test_scan_bad_config_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"params": {"omega_a": 1.0, "omega_b": 1.0}, "tau_grid": {"start": 0, "end": 5, "steps": 1}}))
        assert main(["fidelity-scan", "--config", str(cfg_path)]) == 2
        assert "validation error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({"params": {"omega_a": None, "omega_b": 1.0}}, "params.omega_a"),
            ([{"params": {"omega_a": 1.0, "omega_b": 1.0}}], "top-level"),
            ({"params": {"omega_a": 1.0, "omega_b": 1.0}, "initial_state": 5}, "initial_state"),
            ({**PARAMS_DOC, "oracle": {"enabled": "false"}}, "oracle.enabled"),
            ({**PARAMS_DOC, "output_path": None}, "output_path"),
            ({**PARAMS_DOC, "tau_grid": {"steps": 2.9}}, "tau_grid.steps"),
            ({**PARAMS_DOC, "oracle": {"cutoff": 40.7}}, "oracle.cutoff"),
            ({**PARAMS_DOC, "oracle": {"cutoff": True}}, "oracle.cutoff"),
            ({**PARAMS_DOC, "tau_grid": {"end": float("nan")}}, "tau_grid.end: expected a finite number, got nan"),
            ({"params": {"omega_a": 10**400, "omega_b": 1.0}}, "params.omega_a"),
            ({**PARAMS_DOC, "initial_state": {"kind": "vacuum", "s": 0.5}}, "initial_state: s needs kind squeezed"),
            ({**PARAMS_DOC, "initial_state": {"kind": 5}}, "initial_state.kind: expected a str, got 5"),
            ({**PARAMS_DOC, "initial_state": {"kind": None}}, "initial_state.kind: expected a str, got None"),
            ({**PARAMS_DOC, "initial_state": {"kind": "foo"}}, "initial_state: scans accept vacuum or squeezed only"),
            ({**PARAMS_DOC, "initial_state": "vacuum"}, "initial_state: expected an object, got str"),
            ({"params": {"omega_b": 1.0}}, "params: missing field 'omega_a'"),
            ({**PARAMS_DOC, "format": "xml"}, "format: must be csv or json"),
            ({**PARAMS_DOC, "outputs": "fidelity"}, "outputs: expected a list, got str"),
        ],
        ids=[
            "null-field",
            "top-level-list",
            "scalar-section",
            "string-bool",
            "null-path",
            "fractional-steps",
            "fractional-cutoff",
            "bool-cutoff",
            "nan-literal",
            "int-beyond-float",
            "vacuum-with-s",
            "int-kind",
            "null-kind",
            "unknown-kind",
            "string-state",
            "missing-field",
            "unknown-format",
            "string-outputs",
        ],
    )
    def test_malformed_config_exit_2(self, tmp_path, monkeypatch, capsys, doc, field):
        # the file alone: a flag would overwrite its field first (--output repairs "output_path": null)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        assert main(["fidelity-scan", "--config", "cfg.json"]) == 2
        err = capsys.readouterr().err
        assert "validation error" in err and field in err
        assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]

    @pytest.mark.parametrize(
        "doc, flags, complete",
        [
            ({"params": {"omega_a": 1}}, ["--omega-b", "1"], {"params": {"omega_a": 1, "omega_b": 1}}),
            (
                {"params": {"omega_a": 1, "omega_b": 1, "g_bs": 0.7, "g_sq": 0.7}},
                ["--g", "0.1"],
                {"params": {"omega_a": 1, "omega_b": 1, "g_bs": 0.1, "g_sq": 0.1}},
            ),
        ],
        ids=["partial", "unstable"],
    )
    def test_flag_completes_or_repairs_the_config(self, tmp_path, capsys, doc, flags, complete):
        # the flags are written into the file's document, which is then checked once, like a complete file
        out_path = tmp_path / "scan.json"
        written = []
        for name, config, extra in ("flagged", doc, flags), ("complete", complete, []):
            (tmp_path / f"{name}.json").write_text(json.dumps(config))
            argv = ["fidelity-scan", "--config", str(tmp_path / f"{name}.json"), *extra, "--format", "json", "--output", str(out_path)]
            assert main(argv) == 0
            written.append((out_path.read_bytes(), capsys.readouterr()))
        assert written[0] == written[1]

    def test_internal_consistency_failure_exit_1(self, tmp_path, capsys, monkeypatch):
        # a corrupted RWA half of the mode table breaks the Bogoliubov identities of S_eff:
        # an internal numerical failure, reported as a runtime error
        rwa_modes = dynamics._rwa_modes
        monkeypatch.setattr(dynamics, "_rwa_modes", lambda p: (rwa_modes(p)[0], (1.0 + 1e-6) * rwa_modes(p)[1]))
        code = main(["fidelity-scan", "--g", "0.05", "--tau-end", "4", "--steps", "5", "--output", str(tmp_path / "x.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert "runtime error: S_eff violates" in err and "t=0 " in err

    def test_corrupted_normal_modes_exit_1(self, tmp_path, capsys, monkeypatch):
        # the twin: the normal-mode half of the table, scaled by 1 + 1e-6
        modes = dynamics._modes
        monkeypatch.setattr(dynamics, "_modes", lambda p: (lambda lam, left, right: (lam, (1.0 + 1e-6) * left, right))(*modes(p)))
        code = main(["fidelity-scan", "--g", "0.05", "--tau-end", "4", "--steps", "5", "--output", str(tmp_path / "x.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert "runtime error: S_eff violates" in err and "t=0 " in err

    def test_nan_rwa_block_exit_1(self, tmp_path, capsys, monkeypatch):
        # NaN in the RWA modes fails every internal check instead of passing it into the output
        monkeypatch.setattr(dynamics, "_rwa_modes", lambda p: (np.ones(2), np.full((2, 2), np.nan)))
        code = main(["fidelity-scan", "--g", "0.05", "--tau-end", "4", "--steps", "5", "--output", str(tmp_path / "x.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert "runtime error" in err and "t=0 " in err

    @pytest.mark.parametrize(
        "command, flags, field",
        [
            ("fidelity-scan", ["--squeezing", "nan"], "initial_state.s"),
            ("fidelity-scan", ["--tau-end", "nan"], "tau_grid.end"),
            ("fidelity-scan", ["--omega-b", "inf"], "params.omega_b"),
            ("oracle-check", ["--squeezing", "nan"], "initial_state.s"),
        ],
        ids=["squeezing", "tau-end", "omega-b", "oracle-squeezing"],
    )
    def test_nonfinite_flag_exit_2(self, tmp_path, capsys, command, flags, field):
        out_path = tmp_path / "x.csv"
        assert main([command, *flags, "--steps", "3", "--output", str(out_path)]) == 2
        assert f"validation error: {field}: expected a finite number" in capsys.readouterr().err
        assert not out_path.exists()

    @pytest.mark.parametrize("command", ["fidelity-scan", "oracle-check"])
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--tau-start=-1e308", "--tau-end", "1e308"], "tau_grid: end - start must be a finite number"),
            (["--omega-a", "1e-200", "--omega-b", "1e-200", "--g", "1e-201", "--tau-end", "1e200"], "tau_grid: the times tau / omega_a must be finite numbers"),
            (["--omega-b", "10", "--g", "0.05", "--tau-end", "1e308"], PHASE_OVERFLOW),
        ],
        ids=["span", "times", "phases"],
    )
    def test_overflowing_tau_grid_exit_2(self, tmp_path, capsys, command, flags, message):
        # refused where the grid is accepted, before linspace or the division by omega_a overflows
        # (and warns, which this suite turns into an error)
        out_path = tmp_path / "x.csv"
        assert main([command, *flags, "--steps", "3", "--output", str(out_path)]) == 2
        assert capsys.readouterr().err == f"validation error: {message}\n"
        assert not out_path.exists()

    @pytest.mark.parametrize("command", ["fidelity-scan", "oracle-check"])
    def test_out_of_range_squeezing_exit_2(self, tmp_path, capsys, monkeypatch, command):
        # the range is checked where the initial state is accepted, before the oracle or the grid runs
        def refuse(*args, **kwargs):
            raise AssertionError("work started on an out-of-range squeezing")

        monkeypatch.setattr(cli, "FockOracle", refuse)
        monkeypatch.setattr(cli, "gaussian_grid", refuse)
        out_path = tmp_path / "x.csv"
        assert main([command, "--g", "0.05", "--squeezing", "11", "--steps", "3", "--cutoff", "40", "--output", str(out_path)]) == 2
        assert capsys.readouterr().err == "validation error: initial_state: |s| <= 10.0 required, got 11.0\n"
        assert not out_path.exists()

    @pytest.mark.parametrize("command", ["fidelity-scan", "oracle-check"])
    def test_cutoff_beyond_the_window_exit_2(self, tmp_path, capsys, command):
        # the cutoff is admitted by FockBasis's own rule, a sector state within WINDOW amplitudes: 360 at most
        out_path = tmp_path / "x.csv"
        assert main([command, "--steps", "3", "--cutoff", "361", "--output", str(out_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("validation error: oracle: cutoff must be at least 1") and err.count("\n") == 1
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "flags, path, expected",
        [
            (["--steps", "3"], ("tau_grid", "steps"), 3),
            (["--g", "0.1", "--g-bs", "0.05"], ("params", "g_bs"), 0.05),
            (["--g", "0.1", "--g-bs", "0.05"], ("params", "g_sq"), 0.1),
            (["--g-sq", "0.02", "--g", "0.1"], ("params", "g_sq"), 0.02),
            (["--squeezing", "0"], ("initial_state", "kind"), "vacuum"),
            (["--tau-start", "1"], ("tau_grid", "end"), 5.0),
        ],
        ids=["steps", "g-then-g-bs", "g-keeps-g-sq", "g-sq-wins-over-g", "squeezing-0-is-vacuum", "others-kept"],
    )
    def test_flag_overwrites_one_config_field(self, tmp_path, flags, path, expected):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(make_config(tmp_path, initial_state=InitialState("squeezed", s=0.2)).to_dict()))
        out_path = tmp_path / "out.json"
        assert main(["fidelity-scan", "--config", str(cfg_path), *flags, "--format", "json", "--output", str(out_path)]) == 0
        doc = json.loads(out_path.read_text())
        section, key = path
        assert doc["config"][section][key] == expected
        assert len(doc["rows"]) == doc["config"]["tau_grid"]["steps"]

    @pytest.mark.parametrize("s", ["7", "8", "10"])
    def test_large_squeezing_general_couplings(self, tmp_path, capsys, s):
        # S_f composed as I + s0^-1 (S_eff - I) s0 keeps the Bogoliubov check
        # at t = 0, where the plain sandwich cancels blocks of size cosh^2(s)
        flags = ["--omega-b", "1.3", "--g-bs", "0.21", "--g-sq", "0.13", "--squeezing", s]
        assert main(["fidelity-scan", *flags, "--output", str(tmp_path / "x.csv")]) == 0
        assert "runtime error" not in capsys.readouterr().err

    def test_parser_is_built_once_and_keeps_no_defaults(self, tmp_path):
        # the parser is cached per process; the oracle-check default must not
        # reach a later fidelity-scan
        assert build_parser() is build_parser()
        common = ["--g", "0.05", "--tau-end", "2", "--steps", "3"]
        assert main(["oracle-check", *common, "--cutoff", "12", "--output", str(tmp_path / "o.csv")]) == 0
        assert main(["fidelity-scan", *common, "--output", str(tmp_path / "s.csv")]) == 0
        assert (tmp_path / "o.csv").read_text().splitlines()[0].endswith("fidelity_oracle,delta_n_oracle")
        assert (tmp_path / "s.csv").read_text().splitlines()[0] == ",".join(("tau", *CORE_OUTPUTS))

    def test_module_entry_point_exit_code(self):
        argv = [sys.executable, "-m", "rwafidelity.cli", "validity", "--g", "0.5"]
        proc = subprocess.run(argv, capture_output=True, text=True, env=_subprocess_env())
        assert proc.returncode == 2
        assert "critical" in proc.stderr

    def test_config_file_drives_scan(self, tmp_path):
        out_path = tmp_path / "from_cfg.csv"
        cfg = make_config(tmp_path, output_path=str(out_path), steps=3)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        assert main(["fidelity-scan", "--config", str(cfg_path)]) == 0
        assert out_path.exists()

    @pytest.mark.parametrize(
        "command, outputs, flags",
        [
            ("fidelity-scan", CORE_OUTPUTS, []),
            ("fidelity-scan", CORE_OUTPUTS, ["--oracle"]),
            ("oracle-check", CORE_OUTPUTS, []),
            ("oracle-check", ["delta_n"], []),
            ("oracle-check", [], []),
        ],
        ids=["scan", "scan-oracle", "oracle-check", "oracle-check-delta-n", "oracle-check-no-outputs"],
    )
    def test_scan_stdout(self, tmp_path, monkeypatch, capsys, command, outputs, flags):
        # the whole stdout, from the columns written: the wrote line, oracle-check's (and only its)
        # distance of fidelity and delta_n from the oracle, where written, and the summary
        monkeypatch.chdir(tmp_path)
        doc = {"params": {"omega_a": 1.0, "omega_b": 1.0, "g_bs": 0.05, "g_sq": 0.05}, "outputs": list(outputs)}
        (tmp_path / "cfg.json").write_text(json.dumps({**doc, "tau_grid": {"end": 2.0, "steps": 3}, "oracle": {"cutoff": 24}}))
        assert main([command, "--config", "cfg.json", *flags]) == 0
        with open("scan.csv", newline="") as fh:
            columns = {name: np.array(values, dtype=float) for name, *values in zip(*csv.reader(fh))}
        lines = ["wrote scan.csv (3 rows, cutoff 24)" if command == "oracle-check" else "wrote scan.csv (csv, 3 rows)"]
        for name in ("fidelity", "delta_n") if command == "oracle-check" else ():
            if name in columns:
                lines.append(f"max |{name} - oracle| = {np.max(np.abs(columns[name] - columns[name + '_oracle'])):.3e}")
        fid = min(columns["fidelity"]) if "fidelity" in columns else float("nan")
        dn = max(abs(columns["delta_n"])) if "delta_n" in columns else float("nan")
        lines.append(f"min_fidelity={fid:.12g} max_abs_delta_n={dn:.12g} regime_flags=none")
        assert capsys.readouterr().out == "\n".join(lines) + "\n"
        assert list(columns) == ["tau", *outputs, *(ORACLE_OUTPUTS if command == "oracle-check" or flags else ())]

    def test_oracle_check_over_work_budget_exit_2(self, tmp_path, capsys):
        # detuned: the work of a propagated sector grows with the tau span
        start = time.perf_counter()
        argv = ["--omega-b", "1.1", "--cutoff", "96", "--tau-end", "100000", "--steps", "3", "--output", str(tmp_path / "oc.csv")]
        code = main(["oracle-check", *argv])
        assert code == 2
        assert time.perf_counter() - start < 1.0
        assert "budget" in capsys.readouterr().err

    def test_oracle_span_past_the_largest_double_is_refused_without_a_warning(self, tmp_path, capsys):
        # detuned: half the spectrum's width times the span would overflow to inf terms, but the phases E t are
        # refused first, by the one time rule of both routes; a RuntimeWarning would be raised here (warnings are
        # errors), or printed from the console script
        argv = ["--omega-b", "1.1", "--cutoff", "96", "--tau-end", "1e307", "--steps", "3", "--output", str(tmp_path / "oc.csv")]
        code = main(["oracle-check", *argv])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "validation error: the oracle resolves its phases E t to 1e-06 rad only for |tau| <= 9.67e+06; first refused tau = 5e+306\n"
        assert not (tmp_path / "oc.csv").exists()

    def test_resonant_oracle_phases_past_the_largest_double_are_refused_without_a_warning(self, tmp_path, capsys):
        # on resonance the factors' work does not grow with the span, but their phases E t are refused by the same rule
        code = main(["oracle-check", "--cutoff", "96", "--tau-end", "1e307", "--steps", "3", "--output", str(tmp_path / "oc.csv")])
        assert code == 2
        assert capsys.readouterr().err == "validation error: the oracle resolves its phases E t to 1e-06 rad only for |tau| <= 1.06e+07; first refused tau = 5e+306\n"
        assert not (tmp_path / "oc.csv").exists()

    @pytest.mark.parametrize("omega_b, reach", [("1", "1.06e+07"), ("1.1", "9.67e+06")])
    def test_oracle_phases_past_phase_tol_are_refused_on_both_routes(self, tmp_path, capsys, omega_b, reach):
        # tau 5e16 gives finite phases E t, yet they may round by about 4.7e3 rad there, so neither route can
        # resolve them, the factors, whose work does not grow with the span, included
        argv = ["--omega-b", omega_b, "--cutoff", "96", "--tau-end", "1e17", "--steps", "3", "--output", str(tmp_path / "oc.csv")]
        assert main(["oracle-check", *argv]) == 2
        err = f"validation error: the oracle resolves its phases E t to 1e-06 rad only for |tau| <= {reach}; first refused tau = 5e+16\n"
        assert capsys.readouterr().err == err
        assert not (tmp_path / "oc.csv").exists()

    @pytest.mark.parametrize("omega_b, reach", [("2", "1.11e+07"), ("2.2", "1.01e+07")])
    def test_oracle_phase_refusal_names_the_grid_tau(self, tmp_path, capsys, omega_b, reach):
        # at omega_a = 2 the oracle's t is tau / 2: the refusal names the grid's tau = 5e16, not t = 2.5e16, and the
        # reach in tau, twice the reach 5.53e6 (resonant) or 5.04e6 (detuned) in t, on either route
        argv = ["--omega-a", "2", "--omega-b", omega_b, "--cutoff", "96", "--tau-end", "1e17", "--steps", "3", "--output", str(tmp_path / "oc.csv")]
        assert main(["oracle-check", *argv]) == 2
        err = f"validation error: the oracle resolves its phases E t to 1e-06 rad only for |tau| <= {reach}; first refused tau = 5e+16\n"
        assert capsys.readouterr().err == err
        assert not (tmp_path / "oc.csv").exists()

    @pytest.mark.parametrize("omega_b, weight", [("1", "3.749e-01"), ("1.1", "5.883e-01")])
    def test_oracle_initial_truncation_exit_1(self, tmp_path, capsys, omega_b, weight):
        # s = 2 loses most of its weight at cutoff 10, on the factors' box of 20 and on the sector alike
        argv = ["--omega-b", omega_b, "--g", "0.05", "--squeezing", "2", "--cutoff", "10", "--steps", "3", "--output", str(tmp_path / "oc.csv")]
        assert main(["oracle-check", *argv]) == 1
        assert capsys.readouterr().err == f"runtime error: initial squeezed state loses weight {weight} at cutoff 10\n"
        assert not (tmp_path / "oc.csv").exists()

    def test_oracle_budget_refused_before_the_gaussian_grid(self, tmp_path, capsys, monkeypatch):
        # the grid of a million taus costs seconds; a request the oracle refuses must not pay for it
        def no_grid(*args):
            raise AssertionError("evaluated the Gaussian grid of a refused oracle-check")

        monkeypatch.setattr(cli, "gaussian_grid", no_grid)
        code = main(["oracle-check", "--cutoff", "96", "--tau-end", "100000", "--steps", "1000000", "--output", str(tmp_path / "oc.csv")])
        assert code == 2
        assert "budget" in capsys.readouterr().err
        assert not (tmp_path / "oc.csv").exists()

    def test_truncation_error_names_the_tau_of_the_grid(self, tmp_path, capsys):
        # omega_a = 2, so the oracle's time t = tau / 2: the tail first fails at t = 0.5, the row tau = 1; detuned, so
        # that the sector is propagated
        oracle, initial = FockOracle(OscillatorParams(2.0, 2.2, 0.9, 0.9), 10), InitialState("vacuum")
        oracle.compare(initial, np.array([0.0, 0.25]))
        with pytest.raises(TruncationError, match=re.escape("(first at t = 0.5)")):
            oracle.compare(initial, np.array([0.0, 0.25, 0.5]))
        flags = ["--omega-a", "2", "--omega-b", "2.2", "--g", "0.9", "--tau-end", "4", "--steps", "9", "--cutoff", "10"]
        assert main(["oracle-check", *flags, "--output", str(tmp_path / "oc.csv")]) == 1
        err = capsys.readouterr().err
        assert re.search(r"truncation tail \S+ exceeds \S+ at cutoff 10 \(first at tau = 1\)$", err.strip()), err

    def test_truncated_initial_state_exit_1(self, tmp_path, capsys):
        # the initial state's own loss belongs to no tau, so it is reported as the oracle words it; detuned, so that
        # the state is cut at cutoff 96 per mode (the resonant factors hold it to 192)
        flags = ["--omega-b", "1.1", "--g", "0.05", "--squeezing", "1.5", "--tau-end", "2", "--steps", "3", "--cutoff", "96"]
        assert main(["oracle-check", *flags, "--output", str(tmp_path / "oc.csv")]) == 1
        assert capsys.readouterr().err == "runtime error: initial squeezed state loses weight 2.082e-05 at cutoff 96\n"
        assert not (tmp_path / "oc.csv").exists()

    def test_steps_cap_exit_2(self, tmp_path, capsys):
        assert main(["fidelity-scan", "--steps", str(MAX_STEPS + 1), "--output", str(tmp_path / "out.csv")]) == 2
        assert f"tau_grid: steps must be at most {MAX_STEPS}" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_perturbative_compare_slope(self, capsys):
        code = main(["perturbative-compare", "--omega-a", "1", "--omega-b", "1", "--g", "0.1", "--tau-end", "5", "--steps", "6"])
        assert code == 0
        out = capsys.readouterr().out
        slope = float(out.split("fitted order of 1 - F in g:")[1].split("(")[0])
        assert slope == pytest.approx(2.0, abs=0.1)

    def test_negative_taus_exit_0(self, tmp_path, capsys):
        # the laws and the window flag are evaluated at |tau|, where PerturbativeRegime accepts them
        assert main(["oracle-check", "--g", "0.05", "--tau-start", "-10", "--tau-end", "-1", "--steps", "5", "--output", str(tmp_path / "o.csv")]) == 0
        assert main(["perturbative-compare", "--g", "0.1", "--tau-start", "-5", "--tau-end", "5", "--steps", "20"]) == 0
        mirrored = capsys.readouterr().out.splitlines()[-3:]
        assert main(["perturbative-compare", "--g", "0.1", "--tau-start", "0", "--tau-end", "5", "--steps", "20"]) == 0
        positive = capsys.readouterr().out.splitlines()
        assert mirrored[:2] == positive[:2]  # the same ladder and slope
        assert mirrored[2].startswith("max |F_exact - F_perturbative| on the grid: ")

    def test_circuit_map_command(self, capsys):
        code = main(
            ["circuit-map", "--epsilon-a", "6", "--epsilon-b", "5.5", "--pump-sq-amp", "0.2", "--pump-sq-freq", "9.7", "--pump-bs-amp", "0.3", "--pump-bs-freq", "0.5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "effective params" in out and "dropped oscillatory terms" in out

    def test_circuit_map_requires_epsilon_a(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["circuit-map", "--epsilon-b", "5.5"])
        assert exc.value.code == 2
        assert "the following arguments are required: --epsilon-a" in capsys.readouterr().err

    def test_circuit_map_pumps_default_to_zero(self, capsys):
        argv = ["circuit-map", "--epsilon-a", "6", "--epsilon-b", "5.5"]
        args = build_parser().parse_args(argv)
        assert (args.pump_sq_amp, args.pump_sq_freq, args.pump_bs_amp, args.pump_bs_freq) == (0.0, 0.0, 0.0, 0.0)
        assert main(argv) == 0
        assert "dropped oscillatory terms: none (pumps off)" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags, message",
        [(["--epsilon-a", "-1"], "lab-frame oscillator frequencies must be positive"), (["--pump-bs-freq", "-1"], "pump frequencies must be nonnegative")],
        ids=["epsilon", "pump-frequency"],
    )
    def test_circuit_params_refusals_exit_2(self, capsys, flags, message):
        assert main(["circuit-map", "--epsilon-a", "6", "--epsilon-b", "5.5", *flags]) == 2
        assert capsys.readouterr().err == f"validation error: {message}\n"

    @pytest.mark.parametrize(
        "field, value",
        [("epsilon_a", "nan"), ("epsilon_b", "inf"), ("pump_sq_amp", "-inf"), ("pump_sq_freq", "nan"), ("pump_bs_amp", "nan"), ("pump_bs_freq", "inf")],
    )
    def test_circuit_params_name_the_nonfinite_field(self, capsys, field, value):
        # once the refusal named a derived value: omega_a for epsilon_a, g_bs for pump_bs_amp, the frame detunings for
        # pump_bs_freq; each field is refused by its own name, before the frame is formed
        flag = "--" + field.replace("_", "-")
        assert main(["circuit-map", "--epsilon-a", "6", "--epsilon-b", "5.5", f"{flag}={value}"]) == 2
        assert capsys.readouterr().err == f"validation error: {field} must be a finite real number, got {value}\n"

    def test_circuit_map_static_terms_warn(self, capsys):
        # a beam-splitter pump at frequency 0 leaves its six dropped terms static, each printed as +0
        assert main(["circuit-map", "--epsilon-a", "6", "--epsilon-b", "5.5", "--pump-bs-amp", "0.3", "--pump-bs-freq", "0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        dropped = lines[lines.index("dropped oscillatory terms (frequency):") + 1 :][:6]
        assert [line.rpartition(": ")[2] for line in dropped] == ["+0"] * 6
        warnings = [line for line in lines if line.startswith("warning: ")]
        assert len(warnings) == 6 and all(w.endswith(" is static; the frame reduction is invalid") for w in warnings)

    def test_circuit_map_unstable_exit_2(self, capsys):
        code = main(
            ["circuit-map", "--epsilon-a", "6", "--epsilon-b", "5.5", "--pump-sq-amp", "3.0", "--pump-sq-freq", "9.7", "--pump-bs-amp", "3.0", "--pump-bs-freq", "0.5"]
        )
        assert code == 2
        assert "critical" in capsys.readouterr().err


def test_cli_import_leaves_scipy_out():
    # scipy and mpmath are test-only dependencies: importing scipy would add
    # about 0.5 s and 30 MB to every command, the oracle included.  The tests
    # directory is on the path, so a package import of the test references
    # (tests/reference.py) would load and show up here.
    probe = (
        "import sys, rwafidelity, rwafidelity.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'mpmath', 'reference')))"
    )
    env = _subprocess_env(str(Path(__file__).parent))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env).stdout
    assert out.strip() == "[]"


def test_package_holds_one_state_representation():
    # a state is its symplectic factor s0: the covariance layer and the routes only tests
    # call live in tests/reference.py, and no module of the package defines or re-exports them
    retired = {
        "CovarianceMatrix",
        "covariance",
        "symplectic_eigenvalues",
        "NonPhysicalStateError",
        "HERMITICITY_TOL",
        "PHYSICALITY_TOL",
        "PAIRING_TOL",
        "number_moments",
        "vacuum_fidelity_moments",
        "q_resonant_closed",
        "q_epsilon_linear",
        "effective_bogoliubov",
    }
    modules = [rwafidelity] + [
        importlib.import_module(f"rwafidelity.{info.name}") for info in pkgutil.iter_modules(rwafidelity.__path__)
    ]
    assert {"rwafidelity.states", "rwafidelity.metrics", "rwafidelity.perturbation"} <= {m.__name__ for m in modules}
    for module in modules:
        assert not retired & set(vars(module)), module.__name__
        assert not retired & set(getattr(module, "__all__", ())), module.__name__
