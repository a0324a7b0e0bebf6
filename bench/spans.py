"""Spans around the public functions of each mcs-qkd layer, recorded from outside.

``Tracer.installed()`` replaces each function in ``TARGETS`` by a wrapper in
the module namespace where its caller looks it up, and puts the originals
back on exit.  A wrapper returns the wrapped function's value and lets its
exceptions through unchanged.  Spans (name, parent, start, end) are kept in
memory; ``summary()`` folds them into per-name calls, total and self time,
and ``write()`` saves them.
"""

from __future__ import annotations

import collections
import functools
import gzip
import importlib
import time
from contextlib import contextmanager
from pathlib import Path

#: (module, attribute, span name).  A function reached from two callers is
#: wrapped in both namespaces under one span name.
TARGETS = (
    ("mcs_qkd.cli", "sweep_distance", "optimizer.sweep_distance"),
    ("mcs_qkd.cli", "rate_at", "optimizer.rate_at"),
    ("mcs_qkd.cli", "verify_closed_forms", "fock_oracle.verify_closed_forms"),
    ("mcs_qkd.cli", "render_line_chart", "svgplot.render_line_chart"),
    ("mcs_qkd.optimizer", "cutoff_distance", "optimizer.cutoff_distance"),
    ("mcs_qkd.optimizer", "optimize_param", "optimizer.optimize_param"),
    ("mcs_qkd.optimizer", "rate_at", "optimizer.rate_at"),
    ("mcs_qkd.optimizer", "secure_rate", "key_rate.secure_rate"),
    ("mcs_qkd.optimizer", "p_signal", "photon_source.p_signal"),
    ("mcs_qkd.optimizer", "p_multi_min", "photon_source.p_multi_min"),
    ("mcs_qkd.optimizer", "p_multi", "photon_source.p_multi"),
    ("mcs_qkd.key_rate", "f_ec", "key_rate.f_ec"),
    ("mcs_qkd.fock_oracle", "p0_via_fock", "fock_oracle.p0_via_fock"),
    ("mcs_qkd.fock_oracle", "p0_via_quadrature", "fock_oracle.p0_via_quadrature"),
    ("mcs_qkd.fock_oracle", "fock_coefficients", "photon_source.fock_coefficients"),
)
ROOT_SPAN = "cli.main"


def _count_secure(counts: collections.Counter, optimum) -> None:
    counts["optimizer.optimize_param.secure"] += optimum is not None


def _count_failed_checks(counts: collections.Counter, reports) -> None:
    counts["fock_oracle.checks_failed"] += sum(not r.within_tolerance for r in reports)


#: Results read from outside: optima that exist, oracle checks that failed.
RESULT_COUNTERS = {
    "optimizer.optimize_param": _count_secure,
    "fock_oracle.verify_closed_forms": _count_failed_checks,
}


class Tracer:
    """Spans of one traced op; use a fresh tracer per op."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self._stack = [-1]
        self.counts: collections.Counter = collections.Counter()
        self.missing: list[str] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str):
        """Return ``fn`` recording one span per call."""
        nid = self._id(name)
        on_result = RESULT_COUNTERS.get(name)
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack
        counts, clock = self.counts, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if on_result is not None:
                on_result(counts, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target for the duration; targets not found go to ``missing``."""
        saved = []
        try:
            for module_name, attr, name in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds; plus counters.

        Self time is a span's duration minus the durations of its direct
        children, which nest inside it because every traced call is
        synchronous on one thread.
        """
        n = len(self.start)
        child_s = [0.0] * n
        under_cutoff = [False] * n
        cutoff = self._ids.get("optimizer.cutoff_distance", -1)
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_s[p] += self.end[i] - self.start[i]
                under_cutoff[i] = under_cutoff[p] or self.name_id[p] == cutoff
        calls: collections.Counter = collections.Counter()
        total_s: collections.Counter = collections.Counter()
        self_s: collections.Counter = collections.Counter()
        counts = collections.Counter(self.counts)
        optimize = self._ids.get("optimizer.optimize_param", -1)
        rate_at = self._ids.get("optimizer.rate_at", -1)
        for i in range(n):
            name = self.names[self.name_id[i]]
            duration = self.end[i] - self.start[i]
            calls[name] += 1
            total_s[name] += duration
            self_s[name] += duration - child_s[i]
            if self.name_id[i] == optimize and under_cutoff[i]:
                counts["optimizer.cutoff_distance.optimize_calls"] += 1
            if self.name_id[i] == rate_at and self.parent[i] >= 0 and self.name_id[self.parent[i]] == optimize:
                counts["optimizer.rate_at.in_optimize"] += 1
        return {"spans": n, "calls": calls, "total_s": total_s, "self_s": self_s, "counts": counts}

    def write(self, path: Path) -> None:
        """Save every span as gzip CSV: span, parent, name, start_s, end_s."""
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", encoding="utf-8", newline="\n") as handle:
            handle.write("span,parent,name,start_s,end_s\n")
            for i in range(len(self.start)):
                handle.write(
                    f"{i},{self.parent[i]},{self.names[self.name_id[i]]},"
                    f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f}\n"
                )
