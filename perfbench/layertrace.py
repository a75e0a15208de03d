"""Spans and counters around the public functions of each lucasaps layer.

The tracer works from outside the package: it replaces a public function
with a timing wrapper in every ``lucasaps`` module that holds a reference to
it, so calls made between layers are seen too.  Nothing in ``src/`` knows
about it.  A function that no longer exists is reported as absent.

Spans are kept in memory as ``[name, start, end, parent]`` lists and turned
into per-function call counts and self times after the run.  Self time is a
span's duration minus the durations of its direct children; the process is
single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter


def _count_len(key):
    def observe(result, counters):
        counters[key] += len(result)
    return observe


def _enumerate_status(result, counters):
    status = result.status
    if status == "complete":
        status = "complete_growth" if result.certificate.method == "growth_lemma" else "complete_gap"
    counters[f"certify.status.{status}"] += 1


def _pattern_outcome(result, counters):
    counters[f"certify.pattern_bound.{result.status}"] += 1
    if result.margin is not None:
        bits = max(abs(result.margin.p).bit_length(), abs(result.margin.q).bit_length())
        counters["certify.margin_bits_max"] = max(counters["certify.margin_bits_max"], bits)


def _solve_all_reports(result, counters):
    counters["smallcase.equations"] += len(result.reports)
    for report in result.reports:
        counters[f"smallcase.strategy.{report.strategy}"] += 1


def _tables_checked(result, counters):
    counters["tables.checked_pairs"] += result.checked_pairs


# Wrapped function -> observer reading counts from its return value.
TARGETS = {
    "core.terms": None,
    "apsearch.find_aps": _count_len("apsearch.find_aps.aps_found"),
    "apsearch.detect_families": _count_len("apsearch.detect_families.families_found"),
    "certify.certified_enumerate": _enumerate_status,
    "certify.pattern_bound": _pattern_outcome,
    "certify.check_certificate": None,
    "smallcase.solve_all": _solve_all_reports,
    "special.quad_factors": None,
    "tables.verify_tables": _tables_checked,
    "tables.load_table_entries": None,
    "cli.main": None,
}

# Metric-name prefixes whose owner is not the first two name components.
_OWNERS = {
    "certify.status.": "certify.certified_enumerate",
    "certify.margin_bits_max": "certify.pattern_bound",
    "smallcase.": "smallcase.solve_all",
    "tables.checked_pairs": "tables.verify_tables",
    "cli.output_bytes": "cli.main",
}


def owner(metric: str) -> str:
    """The wrapped function whose presence a per-layer metric depends on."""
    for prefix, target in _OWNERS.items():
        if metric.startswith(prefix):
            return target
    return ".".join(metric.split(".")[:2])


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counters = Counter()
        self.installed = []
        self.absent = []
        self.broken_observers = set()
        self._stack = []

    def wrap(self, name, fn, observe=None):
        spans, stack, clock, counters = self.spans, self._stack, self.clock, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None and name not in self.broken_observers:
                try:
                    observe(result, counters)
                except (AttributeError, TypeError):
                    # The return value changed shape: its counts become absent.
                    self.broken_observers.add(name)
            return result

        return wrapper

    def install(self, package="lucasaps", targets=TARGETS):
        """Wrap every target that exists, wherever a lucasaps module binds it."""
        holders = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for target, observe in targets.items():
            layer, fn_name = target.split(".")
            home = sys.modules.get(f"{package}.{layer}")
            original = getattr(home, fn_name, None) if home is not None else None
            if not callable(original):
                self.absent.append(target)
                continue
            wrapper = self.wrap(target, original, observe)
            for module in holders:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
            self.installed.append(target)

    def metrics(self) -> dict:
        """Per-function calls and self time, plus every counter."""
        out = {}
        for target in self.installed:
            out[f"{target}.calls"] = 0
            out[f"{target}.self_s"] = 0.0
        for name, self_s in self_times(self.spans).items():
            out[f"{name}.self_s"] = self_s
        for name, _, _, _ in self.spans:
            out[f"{name}.calls"] += 1
        for key, value in self.counters.items():
            if owner(key) not in self.broken_observers:
                out[key] = value
        return out


def self_times(spans) -> dict:
    """Sum of (duration - direct children's durations) per span name."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for i, (name, start, end, _) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - child_time[i]
    return out
