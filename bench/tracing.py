"""Span tracing for the benchmark's traced run.

Each timed function is replaced, while a :class:`Tracer` is installed, in
every ``redzone`` module namespace that holds it.  A module's call through
its own globals (``montecarlo.run_replication``) and another module's call
through an import (``cli.run_ensemble``) are therefore both timed, and the
package itself is left unchanged on disk.  A function the package no longer
defines, or never calls, reads as zero.

Spans (name, start, end, parent, job) are kept in memory as compact arrays
and written to one ``.npz`` file when the run ends.  A span's self time is
its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

# (module, function) pairs timed by the traced run, named "<module>.<function>".
TIMED = (
    ("montecarlo", "run_ensemble"),
    ("montecarlo", "run_replication"),
    ("montecarlo", "derive_seed"),
    ("montecarlo", "empirical_hazard"),
    ("hazards", "lognormal_sample"),
    ("hazards", "bathtub_hazard"),
    ("maintenance", "plan_type1"),
    ("maintenance", "plan_type2"),
    ("system", "scenario_timeline"),
    ("system", "system_hazard_curve"),
    ("system", "compose_parallel"),
    ("analysis", "assess_red_zone"),
    ("analysis", "detect_red_zone"),
    ("analysis", "delta_sweep"),
    ("analysis", "compare_policies"),
    ("config", "load_config"),
)


def _first_arg(args, kwargs, key):
    return args[0] if args else kwargs.get(key)


# Work counters taken from a timed call's arguments and result, by span name.
COUNTED = ("montecarlo.events", "montecarlo.censored", "montecarlo.replications",
           "hazards.bathtub_hazard.points", "system.system_hazard_curve.points",
           "maintenance.plan_type2.useful")
COUNTERS = {
    "montecarlo.run_replication":
        lambda args, kwargs, r: {"montecarlo.events": len(getattr(r, "events", ()))},
    "montecarlo.run_ensemble":
        lambda args, kwargs, r: {"montecarlo.censored": getattr(r, "censored_count", 0),
                                 "montecarlo.replications": getattr(r, "n_replications", 0)},
    "hazards.bathtub_hazard":
        lambda args, kwargs, r: {"hazards.bathtub_hazard.points":
                                 int(np.size(_first_arg(args, kwargs, "t")))},
    "system.system_hazard_curve":
        lambda args, kwargs, r: {"system.system_hazard_curve.points":
                                 len(getattr(r, "times", ()))},
    "maintenance.plan_type2":
        lambda args, kwargs, r: {"maintenance.plan_type2.useful": int(r is not None)},
}


class Tracer:
    """In-memory span recorder for one benchmark run (single-threaded)."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_s = array("d")
        self.counts: dict[str, float] = {}
        self.job_id = -1
        self._job_start = 0
        self._stack: list[int] = []
        self._child: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """Return ``fn`` recording one span named ``name`` per call."""
        nid = self._name_id(name)
        counter = COUNTERS.get(name)
        stack, child = self._stack, self._child

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.job.append(self.job_id)
            self.start.append(0.0)
            self.end.append(0.0)
            self.self_s.append(0.0)
            stack.append(idx)
            child.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                covered = child.pop()
                if child:
                    child[-1] += t1 - t0
                self.start[idx] = t0
                self.end[idx] = t1
                self.self_s[idx] = (t1 - t0) - covered
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counts[key] = self.counts.get(key, 0) + value
            return result

        return timed

    def install(self) -> None:
        """Wrap every TIMED function in each loaded ``redzone`` module."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == "redzone" or k.startswith("redzone.")) and m is not None]
        for mod_name, fn_name in TIMED:
            name = f"{mod_name}.{fn_name}"
            self._name_id(name)
            home = sys.modules.get(f"redzone.{mod_name}")
            original = getattr(home, fn_name, None)
            if original is None:
                continue
            wrapper = self.wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def begin_job(self, job_id: int) -> None:
        self.job_id = job_id
        self.counts = {}
        self._job_start = len(self.start)

    def end_job(self) -> dict[str, float]:
        """The job's per-name ``.calls``, ``.s`` and ``.self_s`` and its counters."""
        out = self._totals(self._job_start, len(self.start))
        out.update(self.counts)
        return out

    def _totals(self, lo: int, hi: int) -> dict[str, float]:
        k = len(self.names)
        names = np.frombuffer(self.name[lo:hi], dtype=np.int32)
        dur = np.frombuffer(self.end[lo:hi]) - np.frombuffer(self.start[lo:hi])
        own = np.frombuffer(self.self_s[lo:hi])
        calls = np.bincount(names, minlength=k)
        busy = np.bincount(names, weights=dur, minlength=k)
        self_busy = np.bincount(names, weights=own, minlength=k)
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.s"] = float(busy[i])
            out[f"{name}.self_s"] = float(self_busy[i])
        return out

    def write(self, path) -> None:
        np.savez(path,
                 names=np.array(self.names, dtype=str),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 job=np.frombuffer(self.job, dtype=np.int32),
                 start=np.frombuffer(self.start),
                 end=np.frombuffer(self.end))
