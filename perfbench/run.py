"""rwafidelity benchmark: closed-loop CLI invocations with a correctness gate.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload scan-closed --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One caller drives ``rwafidelity.cli.main`` in a closed loop: each
``fidelity-scan`` / ``oracle-check`` invocation starts after the previous one
returns, with a fresh parameter set drawn from the seed, and its written
output is checked (see ``workloads.py``).  With ``--trace 0`` the run reports
the end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
invocations and reports per-span counts and self times per traced
invocation, plus the tracing overhead.  Times of all workloads but
oracle-deep are scaled to a reference machine speed (see ``calibration.py``);
the raw times are printed beside them and kept in the record that goes to
``perfbench/out/``.  The package is
imported from ``src/`` of the checkout; without it the run fails before
printing a result.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("scan-closed", "scan-general", "oracle-deep", "oracle-dense")
SETUP_PROBES = 5  # fresh processes per run whose median is setup_s
WARM_STEPS, WARM_CUTOFF = 3, 40
WARM_SEED = 20240322  # warm-up draws come from their own stream, never reused


def _single_blas_thread():
    """One BLAS thread: must run before numpy loads.

    Threaded LAPACK on a small shared machine stalls whenever a sibling CPU
    is taken, and idle BLAS workers spin beside the interpreter.  On a
    shared 2-vCPU VM the ten-seed spread of the cutoff-80 oracle's median
    latency was 0.07-0.10 with one thread and 0.11-0.14 with two.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _import_cli():
    package = SRC / "rwafidelity"
    if not (package / "cli.py").is_file():
        raise SystemExit(f"error: no rwafidelity sources at {package}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    from rwafidelity import cli

    if Path(cli.__file__).resolve().parent != package:
        raise SystemExit(f"error: imported rwafidelity from {cli.__file__}, not from {package}")
    return cli


def _invoke(cli, wl, doc: dict) -> tuple[int | None, float]:
    """One CLI invocation from its config document: (exit code or None, seconds)."""
    config_path = OUT / f"{wl.name}-config.json"
    config_path.write_text(json.dumps(doc))
    sink = io.StringIO()
    code = None
    t0 = time.perf_counter()
    try:
        with redirect_stdout(sink), redirect_stderr(sink):
            code = cli.main([wl.command, "--config", str(config_path)])
    except Exception:
        traceback.print_exc()
    elapsed = time.perf_counter() - t0
    if code != 0:
        print(f"{wl.name}: invocation exited {code}: {sink.getvalue().strip()}", file=sys.stderr)
    return code, elapsed


def _warm_up(cli, wl):
    import numpy as np

    draw = wl.draw(np.random.default_rng(WARM_SEED), 0)
    doc = wl.config(draw, str(OUT / f"{wl.name}-warmup.{wl.fmt}"), steps=WARM_STEPS, cutoff=WARM_CUTOFF)
    if _invoke(cli, wl, doc)[0] != 0:
        raise SystemExit(f"error: {wl.name} warm-up invocation failed")


def _setup_probe(name: str):
    """Package import plus the warm-up invocation, timed in this fresh process."""
    t0 = time.perf_counter()
    cli = _import_cli()
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    _warm_up(cli, WORKLOADS[name])
    print(repr(time.perf_counter() - t0))


def _setup_samples(name: str, cal) -> tuple[list[float], list[float]]:
    """Set-up times of fresh processes: (scaled, raw)."""
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", name],
            capture_output=True,
            text=True,
            timeout=150,
        )
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
        seconds = float(proc.stdout.split()[-1])
        raw.append(seconds)
        scaled.append(_scale(cal, seconds)[0])
    return scaled, raw


def _scale(cal, seconds: float) -> tuple[float, float | None]:
    """(scaled seconds, kernel seconds); unscaled when the workload has no calibrator."""
    return cal.scale(seconds) if cal else (seconds, None)


def _machine(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "ram_mb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "seed": seed,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _tail(latencies_ms: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, percentile, samples).

    Below eleven samples no percentile has ten beyond it; the maximum is
    reported as the 100th percentile.
    """
    ordered = sorted(latencies_ms)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def _loop(cli, wl, cal, seed: int, seconds: float, traced_every_other: bool):
    """Closed loop of invocations: (one record per invocation, tracer, peak RSS after the first)."""
    import numpy as np
    from tracing import Tracer

    rng = np.random.default_rng([seed, WORKLOAD_NAMES.index(wl.name)])
    tracer = Tracer() if traced_every_other else None
    output_path = str(OUT / f"{wl.name}-out.{wl.fmt}")
    records = []
    start = time.perf_counter()
    while True:
        k = len(records)
        draw = wl.draw(rng, k)
        doc = wl.config(draw, output_path)
        # U T T U U T T ...: traced invocations cover both parities of k,
        # which the draws alternate on, and the first two are one of each.
        traced = traced_every_other and (k + 1) // 2 % 2 == 1
        if traced:
            tracer.install()
        try:
            code, elapsed = _invoke(cli, wl, doc)
        finally:
            if traced:
                tracer.uninstall()
        if k == 0:
            first_rss = _peak_rss_mb()
        scaled, kernel = _scale(cal, elapsed)
        misses = wl.gate(draw, doc, rng) if code == 0 else []
        for m in misses:
            print(f"{wl.name}: invocation {k}: {m}", file=sys.stderr)
        records.append({
            "traced": traced,
            "ok": code == 0,
            "gate_ok": not misses,
            "seconds": elapsed,
            "kernel": kernel,
            "scaled": scaled,
        })
        if time.perf_counter() - start >= seconds and (not traced_every_other or k >= 1):
            return records, tracer, first_rss


def _end_to_end(records, wl, setup, setup_raw, first_rss) -> tuple[dict, dict]:
    done = [r for r in records if r["ok"]]
    if not done:
        raise SystemExit(f"error: no {wl.name} invocation succeeded")
    lat_ms = [1e3 * r["scaled"] for r in done]
    raw_ms = [1e3 * r["seconds"] for r in done]
    tail, pct, n = _tail(lat_ms)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "points_per_s": (wl.steps * len(done) / sum(r["scaled"] for r in done), "1/s"),
        "call_ms_p50": (statistics.median(lat_ms), "ms"),
        "peak_rss_mb": (first_rss, "MB"),
    }
    extra = {
        "call_ms_tail": tail,
        "call_ms_tail_percentile": pct,
        "call_samples": n,
        "raw_setup_s": statistics.median(setup_raw),
        "raw_points_per_s": wl.steps * len(done) / sum(r["seconds"] for r in done),
        "raw_call_ms_p50": statistics.median(raw_ms),
        "peak_rss_mb_end": _peak_rss_mb(),
    }
    return metrics, extra


def _per_layer(records, tracer) -> tuple[dict, dict]:
    traced = [r for r in records if r["traced"]]
    plain = [r for r in records if not r["traced"]]
    n = len(traced)
    spans = tracer.per_span()
    if not tracer.consistent():
        raise RuntimeError("spans do not nest: self times cannot be attributed")
    metrics = {}
    for name, (calls, self_ms, errors) in spans.items():
        metrics[f"{name}.calls"] = (calls / n, "count")
        metrics[f"{name}.self_ms"] = (self_ms / n, "ms")
        metrics[f"{name}.errors"] = (errors / n, "count")
    builds = spans["fockoracle.build"][0]
    traced_scaled = sum(r["scaled"] for r in traced) / n
    untraced_scaled = sum(r["scaled"] for r in plain) / len(plain)
    traced_wall_s = sum(r["seconds"] for r in traced)
    metrics.update({
        "fockoracle.sector_builds_per_oracle": (tracer.sector_builds / builds if builds else 0.0, "count"),
        "fockoracle.max_sector_dim": (tracer.max_sector_dim, "count"),
        "fockoracle.tail_weight_max": (tracer.tail_weight_max, "prob"),
        "dynamics.diagonalize.cache_misses": (tracer.diagonalize_misses / n, "count"),
        "trace.overhead_frac": (traced_scaled / untraced_scaled - 1.0, "frac"),
        "trace.unattributed_frac": (1.0 - tracer.self_times_ns().sum() / 1e9 / traced_wall_s, "frac"),
        "trace.invocations": (n, "count"),
    })
    return metrics, {"untraced_invocations": len(plain)}


def run_workload(args) -> int:
    _single_blas_thread()
    cli = _import_cli()
    from calibration import Calibrator
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    cal = Calibrator() if wl.calibrated else None
    OUT.mkdir(exist_ok=True)
    setup, setup_raw = ([], []) if args.trace else _setup_samples(wl.name, cal)
    _warm_up(cli, wl)
    records, tracer, first_rss = _loop(cli, wl, cal, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        metrics, extra = _per_layer(records, tracer)
        tracer.write(OUT / f"spans-{wl.name}-seed{args.seed}.npz")
    else:
        metrics, extra = _end_to_end(records, wl, setup, setup_raw, first_rss)
    failed = sum(1 for r in records if not (r["ok"] and r["gate_ok"]))
    extra["failed_frac"] = failed / len(records)
    machine = _machine(args.seed)
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"workload": wl.name, "trace": args.trace, "machine": machine, **result, **extra,
              "setup_samples_s": setup_raw, "invocations": records}
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print("# machine " + " ".join(f"{k}={v}" for k, v in machine.items()))
    print(f"# {wl.name}: {len(records)} invocations, {failed} failed")
    for key, value in extra.items():
        print(f"# {key} = {value:.6g}")
    for name, (value, unit) in metrics.items():
        print(f"{wl.name} {name} = {value:.6g} {unit}")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode not in (0, 1) or not lines:
            raise SystemExit(f"error: workload {name} exited {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        status = max(status, proc.returncode)
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        _single_blas_thread()
        _setup_probe(args.workload)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
