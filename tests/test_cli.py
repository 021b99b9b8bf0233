import csv
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import rwafidelity
from rwafidelity import cli, dynamics
from rwafidelity.cli import (
    CORE_OUTPUTS,
    MAX_STEPS,
    ORACLE_OUTPUTS,
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
        assert ScanConfig.from_json(cfg.to_json()) == cfg

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

    def test_rejects_bad_json(self):
        with pytest.raises(ConfigError):
            ScanConfig.from_json("{not json")


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
        assert {name: [float(row[name]) for row in parsed] for name in columns} == columns

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


class TestWriteOutput:
    # the streamed row-template writer against the stdlib writers, kept here as the reference
    # each column takes every other value: two 1.7e308 overflow its sum, with every value finite
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


class Unprintable(float):
    """A float that json's spelling (str) rejects, where %.17g formats it as a float."""

    def __str__(self):
        raise ValueError("unprintable")


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

    @pytest.mark.parametrize("fmt, bad, error", [("csv", "x", TypeError), ("json", Unprintable(0.5), ValueError)], ids=["csv", "json"])
    def test_failure_mid_stream_leaves_only_the_rows_written(self, tmp_path, fmt, bad, error):
        path = tmp_path / "out"
        cfg = make_config(tmp_path, fmt=fmt, output_path=str(path), tau_end=2.0, steps=3)
        columns, summary = run_scan(cfg)
        whole = path.read_bytes()
        path.write_bytes(b"Z" * 100_000)
        columns["fidelity"][1] = bad
        with pytest.raises(error):
            _write_output(cfg, columns, summary)
        written = path.read_bytes()
        if fmt == "csv":
            assert written == b"".join(whole.splitlines(keepends=True)[:2])
        else:
            assert whole.startswith(written) and written.endswith(b"    }") and written.count(b'"tau":') == 1

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

    def test_evolve_identity_at_time_zero(self, capsys):
        assert main(["evolve", "--omega-a", "1", "--omega-b", "1", "--g", "0.2", "--tau-start", "0"]) == 0
        out = capsys.readouterr().out
        assert "block A(t)" in out and "+1+0j" in out

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
        ],
    )
    def test_malformed_config_exit_2(self, tmp_path, capsys, doc, field):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["fidelity-scan", "--config", str(cfg_path), "--output", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert "validation error" in err and field in err

    def test_internal_consistency_failure_exit_1(self, tmp_path, capsys, monkeypatch):
        # a corrupted RWA block breaks the Bogoliubov identities of S_f: an
        # internal numerical failure, reported as a runtime error
        rwa_block = dynamics.rwa_block
        monkeypatch.setattr(dynamics, "rwa_block", lambda p, t: (1.0 + 1e-6) * rwa_block(p, t))
        code = main(["fidelity-scan", "--g", "0.05", "--tau-end", "4", "--steps", "5", "--output", str(tmp_path / "x.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert "runtime error" in err and "t=0 " in err

    def test_nan_rwa_block_exit_1(self, tmp_path, capsys, monkeypatch):
        # NaN fails every internal check instead of passing it into the output
        monkeypatch.setattr(dynamics, "rwa_block", lambda p, t: np.full((np.size(t), 2, 2), np.nan))
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
        cfg_path.write_text(make_config(tmp_path, initial_state=InitialState("squeezed", s=0.2)).to_json())
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
        cfg_path.write_text(cfg.to_json())
        assert main(["fidelity-scan", "--config", str(cfg_path)]) == 0
        assert out_path.exists()

    def test_oracle_check(self, tmp_path, capsys):
        out_path = str(tmp_path / "oc.csv")
        code = main(
            ["oracle-check", "--omega-a", "1", "--omega-b", "1", "--g", "0.05", "--tau-end", "3", "--steps", "4", "--cutoff", "24", "--output", out_path]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "max |fidelity - oracle|" in out

    def test_oracle_check_over_work_budget_exit_2(self, tmp_path, capsys):
        start = time.perf_counter()
        code = main(["oracle-check", "--cutoff", "96", "--tau-end", "100000", "--steps", "3", "--output", str(tmp_path / "oc.csv")])
        assert code == 2
        assert time.perf_counter() - start < 1.0
        assert "budget" in capsys.readouterr().err

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
        # omega_a = 2, so the oracle's time t = tau / 2: the tail first fails at t = 0.5, the row tau = 1
        oracle, initial = FockOracle(OscillatorParams(2.0, 2.0, 0.9, 0.9), 10), InitialState("vacuum")
        oracle.compare(initial, np.array([0.0, 0.25]))
        with pytest.raises(TruncationError, match=re.escape("(first at t = 0.5)")):
            oracle.compare(initial, np.array([0.0, 0.25, 0.5]))
        flags = ["--omega-a", "2", "--omega-b", "2", "--g", "0.9", "--tau-end", "4", "--steps", "9", "--cutoff", "10"]
        assert main(["oracle-check", *flags, "--output", str(tmp_path / "oc.csv")]) == 1
        err = capsys.readouterr().err
        assert re.search(r"truncation tail \S+ exceeds \S+ at cutoff 10 \(first at tau = 1\)$", err.strip()), err

    def test_steps_cap_exit_2(self, tmp_path, capsys):
        assert main(["fidelity-scan", "--steps", str(MAX_STEPS + 1), "--output", str(tmp_path / "out.csv")]) == 2
        assert f"tau_grid: steps must be at most {MAX_STEPS}" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_oracle_check_without_fidelity_column(self, tmp_path, capsys):
        cfg = make_config(tmp_path, outputs=("delta_n",), tau_end=2.0, steps=3, cutoff=24)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg.to_json())
        assert main(["oracle-check", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "max |delta_n - oracle|" in out and "max |fidelity - oracle|" not in out

    def test_perturbative_compare_slope(self, capsys):
        code = main(["perturbative-compare", "--omega-a", "1", "--omega-b", "1", "--g", "0.1", "--tau-end", "5", "--steps", "6"])
        assert code == 0
        out = capsys.readouterr().out
        slope = float(out.split("fitted order of 1 - F in g:")[1].split("(")[0])
        assert slope == pytest.approx(2.0, abs=0.1)

    def test_circuit_map_command(self, capsys):
        code = main(
            ["circuit-map", "--epsilon-a", "6", "--epsilon-b", "5.5", "--pump-sq-amp", "0.2", "--pump-sq-freq", "9.7", "--pump-bs-amp", "0.3", "--pump-bs-freq", "0.5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "effective params" in out and "dropped oscillatory terms" in out

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
