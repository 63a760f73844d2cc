"""Outside-in layer spans: wrap public posspf functions where callers bind them.

Each wrapper records a span (name, start, end, parent span) in memory and
passes the return value and any exception through untouched.  A few
wrappers also look at arguments and results to count useful work (distinct
survivors, ESS, near-peak set size); that bookkeeping runs in its own
``trace.observe`` span, so it is not billed to the caller's self time.
Self time of a span is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from contextlib import contextmanager
from functools import partial
from time import perf_counter

import numpy as np

OBSERVE = "trace.observe"
STEPS = ("filters.possibility_pf_step", "filters.standard_pf_step")


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _observe_sample_discrete(tracer, args, kwargs, idx):
    distinct = np.count_nonzero(np.bincount(idx))
    tracer.samples["possq.sample_discrete.distinct_ratio"].append(distinct / idx.size)


def _observe_systematic(tracer, args, kwargs, idx):
    w = _arg(args, kwargs, 0, "weights")
    n = w.shape[0]
    # Systematic positions are sorted, so the indices are too.
    tracer.samples["filters.systematic_resample.distinct_ratio"].append(
        (np.count_nonzero(np.diff(idx)) + 1) / n
    )
    tracer.samples["filters.systematic_resample.ess_ratio"].append(1.0 / float(w @ w) / n)


def _observe_peak_set(tracer, args, kwargs, j):
    log_w = _arg(args, kwargs, 1, "norm_log_weights")
    cut = _arg(args, kwargs, 2, "cut")
    size = np.count_nonzero(log_w >= -cut) if cut > 0.0 else 1
    tracer.samples["filters.peak_set_representative.set_size"].append(size)


def _observe_run_single(tracer, args, kwargs, report):
    executed = np.count_nonzero(np.isfinite(report.estimate_track[:, 0]))
    tracer.counts["bench.particle_scans"] += report.particles * int(executed)


# (metric name, "module" or "module:Class", attribute, observer).  The
# attribute is patched where the caller looks it up, so a function that two
# modules import is listed once per importing module.
BINDINGS = (
    ("config.load_config", "posspf.config", "load_config", None),
    ("bench.run_batch", "posspf.bench", "run_batch", None),
    ("bench.run_single", "posspf.bench", "run_single", _observe_run_single),
    ("bench.sample_target_track", "posspf.bench", "sample_target_track", None),
    ("bench.synthesize_measurements", "posspf.bench", "synthesize_measurements", None),
    ("tma.init_prior", "posspf.bench", "init_prior", None),
    ("tma.bearing_log_likelihood", "posspf.bench", "bearing_log_likelihood", None),
    ("filters.possibility_pf_init", "posspf.bench", "possibility_pf_init", None),
    ("filters.possibility_pf_step", "posspf.bench", "possibility_pf_step", None),
    ("filters.peak_set_representative", "posspf.bench", "peak_set_representative", _observe_peak_set),
    ("filters.peak_set_representative", "posspf.filters", "peak_set_representative", _observe_peak_set),
    ("filters.propose", "posspf.filters:LinearGaussianTransition", "propose", None),
    ("filters.possibility_pf_resample", "posspf.filters", "possibility_pf_resample", None),
    ("possq.water_pour_discrete", "posspf.filters", "water_pour_discrete", None),
    ("possq.sample_discrete", "posspf.filters", "sample_discrete", _observe_sample_discrete),
    ("filters.standard_pf_init", "posspf.bench", "standard_pf_init", None),
    ("filters.standard_pf_step", "posspf.bench", "standard_pf_step", None),
    ("filters.sample_model", "posspf.filters:LinearGaussianTransition", "sample_model", None),
    ("filters.systematic_resample", "posspf.filters", "systematic_resample", _observe_systematic),
)

LAYER_NAMES = tuple(dict.fromkeys(name for name, _, _, _ in BINDINGS))
RATIO_NAMES = (
    "possq.sample_discrete.distinct_ratio",
    "filters.systematic_resample.distinct_ratio",
    "filters.systematic_resample.ess_ratio",
)


def resolve(owner: str):
    """The module or class named ``module`` or ``module:Class``."""
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


@contextmanager
def patched(replacements):
    """Set ``owner.attr = make(original)`` for each triple; restore on exit."""
    saved = []
    try:
        for owner, attr, make in replacements:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class Tracer:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.samples: dict[str, list] = defaultdict(list)
        self.counts: dict[str, int] = defaultdict(int)

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = perf_counter()

    def _wrap(self, name, observe, collapse_error, fn):
        counts_collapse = name in STEPS

        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except collapse_error:
                if counts_collapse:
                    self.counts["filters.collapses"] += 1
                raise
            finally:
                self._close(index)
            if observe is not None:
                index = self._open(OBSERVE)
                observe(self, args, kwargs, result)
                self._close(index)
            return result

        return traced

    def installed(self):
        """Context manager that wraps every binding in ``BINDINGS``."""
        collapse_error = importlib.import_module("posspf.filters").AllWeightsZero
        return patched(
            (resolve(owner), attr, partial(self._wrap, name, observe, collapse_error))
            for name, owner, attr, observe in BINDINGS
        )

    def self_times(self) -> dict[str, list[float]]:
        """Per layer name, the self time in seconds of each call."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        times: dict[str, list[float]] = defaultdict(list)
        for (name, start, end, _), child in zip(self.spans, covered):
            times[name].append(end - start - child)
        return times

    def layer_metrics(self, wall_s: float) -> dict[str, tuple[float, str]]:
        """``.calls``, ``.self_us_p50`` and ``.share_pct`` per layer, plus ratios."""
        times = self.self_times()
        metrics: dict[str, tuple[float, str]] = {}
        for name in LAYER_NAMES:
            own = times.get(name, [])
            metrics[f"{name}.calls"] = (len(own), "count")
            metrics[f"{name}.self_us_p50"] = (float(np.median(own)) * 1e6 if own else 0.0, "us")
            metrics[f"{name}.share_pct"] = (100.0 * sum(own) / wall_s, "%")
        for name in RATIO_NAMES:
            values = self.samples.get(name, [])
            metrics[name] = (float(np.median(values)) if values else 0.0, "ratio")
        sizes = self.samples.get("filters.peak_set_representative.set_size", [])
        metrics["filters.peak_set_representative.set_size_p50"] = (
            float(np.median(sizes)) if sizes else 0.0,
            "count",
        )
        metrics["filters.collapses"] = (self.counts["filters.collapses"], "count")
        metrics["bench.particle_scans"] = (self.counts["bench.particle_scans"], "count")
        return metrics
