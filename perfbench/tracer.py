"""Span tracing of noisylab's public functions, installed from outside the package.

Each traced function is replaced by a wrapper that records one span per call:
name, thread, start, end, the enclosing span on the same thread, and whether
an exception left the call.  noisylab modules import functions by name
(``mcsim.binom_tail``, ``cli.sweep``, ``treatments.LabelDist`` ...), so a
function is rebound in every ``noisylab`` module that holds it, not only in
the module that defines it; otherwise internal calls would go uncounted.
Spans live in memory until ``Tracer.drain`` hands them over.
"""
from __future__ import annotations

import importlib
import inspect
import math
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

# (span name, module, attribute path).  A dotted attribute path is a method of
# a class, patched on the class.  Several functions may share one span name.
TARGETS = (
    ("cli.main", "cli", "main"),
    ("mcsim.sweep", "mcsim", "sweep"),
    ("mcsim.bound_report", "mcsim", "bound_report"),
    ("mcsim.run_trials", "mcsim", "run_trials"),
    ("bounds.binom_tail", "bounds", "binom_tail"),
    ("bounds.closed_forms", "bounds", "lc_success_lower"),
    ("bounds.closed_forms", "bounds", "lc_failure_lower"),
    ("bounds.closed_forms", "bounds", "peer_success_lower"),
    ("bounds.closed_forms", "bounds", "peer_failure_lower"),
    ("treatments.compare_ls_lc", "treatments", "compare_ls_lc"),
    ("treatments.corrected_label", "treatments", "corrected_label"),
    ("treatments.smoothed_label", "treatments", "smoothed_label"),
    ("memorize.LabelDist", "memorize", "LabelDist.__post_init__"),
    ("memorize.memorization_error", "memorize", "memorization_error"),
    ("noise.InstanceNoiseSynth.draw", "noise", "InstanceNoiseSynth.draw"),
    ("noise.truncated_normal", "noise", "truncated_normal"),
    ("noise.BinaryNoiseRates", "noise", "BinaryNoiseRates.__post_init__"),
    ("freqmodel.estimate_tau", "freqmodel", "estimate_tau"),
    ("freqmodel.tau_monte_carlo", "freqmodel", "tau_monte_carlo"),
    ("freqmodel.weight_estimate", "freqmodel", "weight_estimate"),
    ("freqmodel.tau_exact", "freqmodel", "tau_exact"),
    ("freqmodel.build_prior", "freqmodel", "build_prior"),
)
LAYERS = ("cli", "mcsim", "bounds", "treatments", "memorize", "noise", "freqmodel")
SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in TARGETS))


@dataclass
class Span:
    name: str
    thread: int
    start: float
    end: float | None = None
    parent: "Span | None" = None
    error: bool = False


def self_times(spans) -> dict[int, float]:
    """Self time of every span, keyed by ``id(span)``.

    A span's self time is its duration minus the part of its interval that
    its child spans cover.  Children are clipped to the parent's interval and
    merged before subtracting, so overlapping children (spans of other threads
    attributed to this parent) are not subtracted twice.
    """
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append(span)
    out = {}
    for span in spans:
        covered = 0.0
        run_start = run_end = None
        for child in sorted(children.get(id(span), ()), key=lambda c: c.start):
            lo, hi = max(child.start, span.start), min(child.end, span.end)
            if hi <= lo:
                continue
            if run_end is None or lo > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = lo, hi
            else:
                run_end = max(run_end, hi)
        if run_end is not None:
            covered += run_end - run_start
        out[id(span)] = (span.end - span.start) - covered
    return out


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: call count, total self seconds and exceptions raised."""
    selfs = self_times(spans)
    out = {name: {"calls": 0, "self_s": 0.0, "errors": 0} for name in SPAN_NAMES}
    for span in spans:
        entry = out.setdefault(span.name, {"calls": 0, "self_s": 0.0, "errors": 0})
        entry["calls"] += 1
        entry["self_s"] += selfs[id(span)]
        entry["errors"] += span.error
    return out


COUNTER_NAMES = ("trials", "uniforms", "useful_uniforms", "ls_table_entries", "elements_drawn")


def _count_run_trials(c: Counter, args) -> None:
    # run_trials draws ceil(l/4) Philox blocks of 4 doubles per trial and uses l
    trials, l = args["trials"], args["scenario"].l
    c["trials"] += trials
    c["uniforms"] += trials * 4 * math.ceil(l / 4)
    c["useful_uniforms"] += trials * l


def _count_bound_report(c: Counter, args) -> None:
    # one label-smoothing outcome table needs l + 1 comparisons
    c["ls_table_entries"] += args["scenario"].l + 1


def _count_prior_draws(c: Counter, args) -> None:
    # each replicate draws one value per prior slot
    c["elements_drawn"] += args["replicates"] * args["prior"].n_values


_COUNTERS = {
    ("mcsim", "run_trials"): _count_run_trials,
    ("mcsim", "bound_report"): _count_bound_report,
    ("freqmodel", "tau_monte_carlo"): _count_prior_draws,
    ("freqmodel", "weight_estimate"): _count_prior_draws,
}


class Tracer:
    """Installs span wrappers on noisylab and collects their spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn, count=None):
        signature = inspect.signature(fn) if count else None
        spans, counts, lock, stack_of = self.spans, self.counts, self._lock, self._stack
        clock, get_ident = time.perf_counter, threading.get_ident

        def traced(*args, **kwargs):
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                with lock:
                    count(counts, bound.arguments)
            stack = stack_of()
            span = Span(name, get_ident(), 0.0, None, stack[-1] if stack else None)
            stack.append(span)
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                span.error = True
                raise
            finally:
                span.end = clock()
                stack.pop()
                spans.append(span)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, package: str = "noisylab") -> None:
        """Wrap every target and rebind it wherever the package holds it."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        for module_name in LAYERS:
            importlib.import_module(f"{package}.{module_name}")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for name, module_name, attr in TARGETS:
            module = sys.modules[f"{package}.{module_name}"]
            owner_path, _, fn_name = attr.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part)
            original = getattr(owner, fn_name)
            wrapper = self._wrap(name, original, _COUNTERS.get((module_name, attr)))
            if owner is module:
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, key, original))
                            setattr(mod, key, wrapper)
            else:
                self._restore.append((owner, fn_name, original))
                setattr(owner, fn_name, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def drain(self) -> tuple[list[Span], dict[str, int]]:
        """Hand over the spans and counts recorded so far and start afresh."""
        spans = list(self.spans)
        self.spans.clear()
        with self._lock:
            counts = {name: self.counts[name] for name in COUNTER_NAMES}
            self.counts.clear()
        return spans, counts
