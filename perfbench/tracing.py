"""Outside-in span tracing of the rwafidelity modules.

Wrappers are installed at run time around public names, in every module of
the package that holds a reference to them, so a call is seen however the
caller looks the name up (``metrics.time_evolution`` as well as
``dynamics.time_evolution``).  Methods are wrapped on their class.  A name
that no longer exists is skipped and reports zero calls.  Spans are kept in
memory (id = position, parent id, start, end, error flag) and written out
once, when the run ends.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter_ns

import numpy as np

# (span name, module, attribute path).  "cli.main" is the root of every
# invocation, so the self times of one invocation add up to its wall time.
SPANS = (
    ("cli.main", "cli", "main"),
    ("cli.run_scan", "cli", "run_scan"),
    ("dynamics.time_evolution", "dynamics", "time_evolution"),
    ("dynamics.rwa_block", "dynamics", "rwa_block"),
    ("dynamics.diagonalize", "dynamics", "diagonalize"),
    ("dynamics.bogoliubov_defect", "dynamics", "SymplecticMatrix.bogoliubov_defect"),
    ("matcore.mat_exp", "matcore", "mat_exp"),
    ("states.factor", "states", "InitialState.factor"),
    ("metrics.fidelity_eff", "metrics", "fidelity_eff"),
    ("metrics.effective_bogoliubov", "metrics", "effective_bogoliubov"),
    ("metrics.bloch_messiah", "metrics", "bloch_messiah"),
    ("metrics.delta_n", "metrics", "delta_n"),
    ("perturbation.c2_coefficient", "perturbation", "c2_coefficient"),
    ("fockoracle.build", "fockoracle", "FockOracle.__init__"),
    ("fockoracle.compare", "fockoracle", "FockOracle.compare"),
)
SPAN_NAMES = tuple(name for name, _, _ in SPANS)


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "rwafidelity"]


def _diagonalize_cache_misses() -> int:
    """Misses so far of the closed-form diagonalizer's process-wide cache (0 if it is gone)."""
    cached = getattr(sys.modules.get("rwafidelity.dynamics"), "_diagonalize_cached", None)
    info = getattr(cached, "cache_info", None)
    return info().misses if info else 0


class Tracer:
    """Records spans while installed; ``uninstall`` restores every original."""

    def __init__(self):
        self.name_id, self.parent, self.start, self.end, self.error = (array("q") for _ in range(5))
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.sector_builds = 0
        self.max_sector_dim = 0
        self.tail_weight_max = 0.0
        self.diagonalize_misses = 0

    # -- installation ------------------------------------------------------
    def install(self):
        self.diagonalize_misses -= _diagonalize_cache_misses()
        modules = _package_modules()
        for nid, (_, mod_name, path) in enumerate(SPANS):
            mod = sys.modules.get(f"rwafidelity.{mod_name}")
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name, None)
                orig = getattr(owner, "__dict__", {}).get(attr)
                if orig is not None:
                    self._set(owner, attr, self._span(nid, orig))
                continue
            orig = getattr(mod, attr, None)
            if orig is None:
                continue
            wrapper = self._span(nid, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._set(m, key, wrapper)
        self._install_counters()

    def _install_counters(self):
        mod = sys.modules.get("rwafidelity.fockoracle")
        sector_cls = getattr(mod, "SectorPropagator", None)
        init = getattr(sector_cls, "__dict__", {}).get("__init__")
        if init is not None:

            @functools.wraps(init)
            def counted_init(obj, *args, **kwargs):
                init(obj, *args, **kwargs)
                self.sector_builds += 1
                for sector in getattr(obj, "sectors", ()):
                    self.max_sector_dim = max(self.max_sector_dim, len(sector[0]))

            self._set(sector_cls, "__init__", counted_init)

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        self.diagonalize_misses += _diagonalize_cache_misses()
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def _span(self, nid: int, fn):
        observe_tail = SPAN_NAMES[nid] == "fockoracle.compare"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.error.append(0)
            self.end.append(0)
            self._stack.append(sid)
            self.start.append(perf_counter_ns())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.error[sid] = 1
                raise
            finally:
                self.end[sid] = perf_counter_ns()
                self._stack.pop()
            if observe_tail:
                self.tail_weight_max = max(self.tail_weight_max, float(getattr(out, "tail_weight", 0.0)))
            return out

        return wrapper

    # -- results -----------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
            "error": np.frombuffer(self.error, dtype=np.int64),
        }

    def self_times_ns(self) -> np.ndarray:
        """Span duration minus the time its direct children cover."""
        a = self.arrays()
        dur = a["end_ns"] - a["start_ns"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        return dur - child

    def consistent(self) -> bool:
        """Children lie inside their parents, so self times add up to the root spans."""
        a = self.arrays()
        c = a["parent"] >= 0
        p = a["parent"][c]
        nested = np.all(a["start_ns"][c] >= a["start_ns"][p]) and np.all(a["end_ns"][c] <= a["end_ns"][p])
        roots_ns = (a["end_ns"] - a["start_ns"])[~c].sum()
        return bool(nested and self.self_times_ns().sum() == roots_ns)

    def per_span(self) -> dict[str, tuple[int, float, int]]:
        """Span name -> (calls, self ms, errors), summed over the run."""
        a = self.arrays()
        n = len(SPAN_NAMES)
        calls = np.bincount(a["name_id"], minlength=n)
        self_ms = np.bincount(a["name_id"], weights=self.self_times_ns(), minlength=n) / 1e6
        errors = np.bincount(a["name_id"], weights=a["error"], minlength=n)
        return {name: (int(calls[i]), float(self_ms[i]), int(errors[i])) for i, name in enumerate(SPAN_NAMES)}

    def write(self, path):
        np.savez(path, names=np.array(SPAN_NAMES), **self.arrays())
