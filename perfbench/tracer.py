"""Outside-in tracer for the entnetsim pipeline.

Wraps public functions of the package modules from outside, each patched
where the pipeline looks it up at call time: names imported with
``from .x import y`` are patched in the importing module, kernels on
``entnetsim._kernels``, methods on their class. No package code changes.

Every wrapper counts calls and the sizes of its array arguments and
result, so exact work counts come with every run. With ``clock=True`` it
also records a span (name, start, end, parent) per call and, for the
stage boundaries, the process's RSS high-water mark after the call.
A target that is absent, or present but never called, is reported as
missing rather than as zero.
"""

from __future__ import annotations

import functools
import importlib
import resource
import time

import numpy as np

# (span name, module, attribute path, record RSS after the call)
TARGETS = (
    ("sim.run_scenario", "entnetsim.report", "run_scenario", True),
    ("sim.user_stream", "entnetsim.sim", "ScenarioResult.user_stream", True),
    ("photonics.detector", "entnetsim.sim", "detector_response_traced", False),
    ("kernels.dead_time_prune", "entnetsim._kernels", "dead_time_prune", False),
    ("kernels.greedy_match", "entnetsim._kernels", "greedy_match", False),
    ("kernels.correlation_histogram", "entnetsim._kernels",
     "correlation_histogram", False),
    ("analysis.link_matrix", "entnetsim.report", "link_matrix", False),
    ("analysis.cross_correlate", "entnetsim.analysis", "cross_correlate", False),
    # match_coincidences is looked up in two modules: by link_matrix in
    # analysis and by analyze_link in doqkd. Both count as one layer.
    ("analysis.match_coincidences", "entnetsim.analysis",
     "match_coincidences", False),
    ("analysis.match_coincidences", "entnetsim.doqkd",
     "match_coincidences", False),
    ("doqkd.analyze_link", "entnetsim.report", "analyze_link", False),
    ("doqkd.sift_frames", "entnetsim.doqkd", "sift_frames", False),
)


def rss_hw_mb() -> float:
    """High-water resident set in MB (Linux ru_maxrss is KB) of this
    process or of its largest finished child, whichever is larger, so a
    worker pool in the pipeline is covered too."""
    return max(resource.getrusage(who).ru_maxrss for who in
               (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def _array_sizes(values) -> list[int]:
    return [int(v.size) for v in values if isinstance(v, np.ndarray)]


class Tracer:
    """Patches TARGETS on install() and restores them on uninstall()."""

    def __init__(self, clock: bool):
        self.clock = clock
        self.calls: dict[str, int] = {}
        self.size_in: dict[str, int] = {}     # all array arguments
        self.size_first: dict[str, int] = {}  # first array argument only
        self.size_out: dict[str, int] = {}    # first array of the result
        self.spans: list[tuple[str, float, float, int]] = []
        self.rss_after: dict[str, float] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for name, module_name, attr_path, rss in TARGETS:
            owner = importlib.import_module(module_name)
            *owner_path, attr = attr_path.split(".")
            try:
                for part in owner_path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except AttributeError:
                self.absent.append(f"{module_name}.{attr_path}")
                continue
            self.calls.setdefault(name, 0)
            setattr(owner, attr, self._wrap(name, original, rss))
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn, rss: bool):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            sizes = _array_sizes(args)
            self.size_in[name] = self.size_in.get(name, 0) + sum(sizes)
            if sizes:
                self.size_first[name] = self.size_first.get(name, 0) + sizes[0]
            if not self.clock:
                out = fn(*args, **kwargs)
            else:
                idx = len(self.spans)
                parent = self._stack[-1] if self._stack else -1
                self.spans.append((name, 0.0, 0.0, parent))
                self._stack.append(idx)
                start = time.perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    self._stack.pop()
                    self.spans[idx] = (name, start, end, parent)
                if rss:
                    self.rss_after[name] = rss_hw_mb()
            first = out[0] if isinstance(out, tuple) and out else out
            if isinstance(first, np.ndarray):
                self.size_out[name] = self.size_out.get(name, 0) + int(first.size)
            return out
        return wrapper

    # -- summaries --------------------------------------------------------

    def called(self, name: str) -> bool:
        return self.calls.get(name, 0) > 0

    def missing(self) -> list[str]:
        """Targets that were absent at install time or never called."""
        never = sorted(n for n, c in self.calls.items() if c == 0)
        return self.absent + never

    def total_s(self, name: str) -> float:
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def durations_s(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def child_s(self, parent_name: str, child_name: str) -> float:
        """Time of child_name spans whose direct parent is a parent_name span."""
        return sum(end - start for n, start, end, p in self.spans
                   if n == child_name and p >= 0
                   and self.spans[p][0] == parent_name)

    def self_s(self, prefix: str) -> float:
        """Summed self time of spans named prefix*: each span's duration
        minus the durations of its direct children (calls here are
        single-threaded, so children never overlap)."""
        own = {i: end - start for i, (n, start, end, _) in enumerate(self.spans)
               if n.startswith(prefix)}
        for n, start, end, p in self.spans:
            if p in own:
                own[p] -= end - start
        return sum(own.values())
