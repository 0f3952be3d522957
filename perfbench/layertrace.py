"""Outside-in span tracing of nfmusic's layers.

The tracer replaces each wrapped public function at every ``nfmusic`` module
attribute that refers to it, so callers that did ``from .music import
spectrum_2d_angular`` hit the wrapper through their own module globals.  No
file under ``src/`` is edited; :meth:`Tracer.uninstall` puts every original
back.  Spans are kept in memory and reduced to per-layer metrics at the end.
"""

import importlib
import statistics
import threading
import time

MODULES = ("harness", "channel", "signal", "subspace", "music", "refine", "metrics")

# (defining module, function, span name).  Several functions may share a span
# name when the per-layer metric is defined over their union.
TARGETS = (
    ("harness", "run_experiment", "harness.run_experiment"),
    ("harness", "scenario_fig1", "harness.scenario_fig1"),
    ("harness", "_run_trial", "harness.trial"),
    ("harness", "place_ues", "harness.place_ues"),
    ("harness", "write_trial_csv", "harness.write_csv"),
    ("harness", "write_aggregate_csv", "harness.write_csv"),
    ("harness", "dump_spectrum_csv", "harness.dump_spectrum_csv"),
    ("channel", "channel_matrix", "channel.channel_matrix"),
    ("signal", "gen_pilots", "signal.gen_pilots"),
    ("signal", "received_block", "signal.received_block"),
    ("subspace", "smoothed_covariance", "subspace.smoothed_covariance"),
    ("subspace", "sample_covariance", "subspace.sample_covariance"),
    ("subspace", "noise_subspace", "subspace.noise_subspace"),
    ("music", "two_step_estimate", "music.two_step_estimate"),
    ("music", "spectrum_2d_angular", "music.spectrum_2d_angular"),
    ("music", "spectrum_1d_distance", "music.spectrum_1d_distance"),
    ("music", "spectrum_3d", "music.spectrum_3d"),
    ("music", "find_peaks", "music.find_peaks"),
    ("refine", "reconstruct_channels", "refine.reconstruct_channels"),
    ("refine", "estimate_correctors", "refine.estimate_correctors"),
    ("refine", "ls_baseline", "refine.baselines"),
    ("refine", "rls_baseline", "refine.baselines"),
    ("metrics", "match_estimates", "metrics.match_estimates"),
    ("metrics", "nmse", "metrics.score"),
    ("metrics", "beamforming_gain", "metrics.score"),
    ("metrics", "aggregate", "metrics.aggregate"),
)

ENTRY_SPANS = ("harness.run_experiment", "harness.scenario_fig1")
# The per-trial worker span wraps everything a trial does, so it is left out
# of coverage: coverage asks how much of the sweep the named layers explain.
NOT_A_LAYER = ENTRY_SPANS + ("harness.trial",)

# Layers each workload kind must reach.  A wrapped layer that is never called
# means a refactor moved work out from under the trace; that is an error, not
# a zero.
EXPECTED = {
    "sweep": (
        "harness.run_experiment",
        "harness.trial",
        "harness.place_ues",
        "harness.write_csv",
        "channel.channel_matrix",
        "signal.gen_pilots",
        "signal.received_block",
        "subspace.smoothed_covariance",
        "subspace.sample_covariance",
        "subspace.noise_subspace",
        "music.two_step_estimate",
        "music.spectrum_2d_angular",
        "music.spectrum_1d_distance",
        "music.find_peaks",
        "refine.reconstruct_channels",
        "refine.estimate_correctors",
        "refine.baselines",
        "metrics.match_estimates",
        "metrics.score",
        "metrics.aggregate",
    ),
    "fig1": (
        "harness.scenario_fig1",
        "harness.place_ues",
        "harness.dump_spectrum_csv",
        "channel.channel_matrix",
        "signal.gen_pilots",
        "signal.received_block",
        "subspace.sample_covariance",
        "subspace.noise_subspace",
        "music.spectrum_3d",
        "music.find_peaks",
    ),
}


class TraceError(RuntimeError):
    """A wrapped layer is missing from the program or was never reached."""


class _Span:
    __slots__ = ("name", "start", "end", "parent", "info")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.info = None


def _span_info(name, result, exc):
    """Counts taken at the layer boundary from the call's own result."""
    if exc is not None:
        return {"raised": type(exc).__name__}
    if name.startswith("music.spectrum_"):
        return {"evals": int(result.values.size)}
    if name == "music.find_peaks":
        return {"found": result.found, "requested": result.requested}
    if name == "music.two_step_estimate":
        return {"fallbacks": result.boundary_fallbacks, "located": len(result.locations)}
    if name == "subspace.noise_subspace":
        return {"columns": result.matrix.shape[1]}
    return None


class Tracer:
    """Records one span per call of every wrapped nfmusic function."""

    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._entry = None
        self._patches = []

    def install(self):
        modules = {m: importlib.import_module(f"nfmusic.{m}") for m in MODULES}
        for mod_name, func_name, span_name in TARGETS:
            original = getattr(modules[mod_name], func_name, None)
            if not callable(original):
                raise TraceError(f"nfmusic.{mod_name}.{func_name} no longer exists")
            wrapper = self._wrap(original, span_name)
            for mod in modules.values():
                if getattr(mod, func_name, None) is original:
                    self._patches.append((mod, func_name, original))
                    setattr(mod, func_name, wrapper)

    def uninstall(self):
        for mod, func_name, original in reversed(self._patches):
            setattr(mod, func_name, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, fn, name):
        is_entry = name in ENTRY_SPANS

        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            # A worker thread starts with an empty stack; its spans belong to
            # the entry call that submitted them.
            parent = stack[-1] if stack else self._entry
            span = _Span(name, 0, parent)
            with self._lock:
                self.spans.append(span)
            if is_entry:
                self._entry = span
            stack.append(span)
            result = exc = None
            span.start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                span.end = time.perf_counter_ns()
                stack.pop()
                if is_entry:
                    self._entry = None
                span.info = _span_info(name, result, exc)

        traced.__wrapped__ = fn
        return traced

    def check_reached(self, kind):
        called = {s.name for s in self.spans}
        missing = [n for n in EXPECTED[kind] if n not in called]
        if missing:
            raise TraceError(f"wrapped layers never called on this workload: {missing}")

    def layer_metrics(self, trials, threads):
        """Reduce the recorded spans to the per-layer metrics named in BENCHMARK.json,
        all but ``trace.overhead_share``.  Layers a workload does not reach read 0."""
        by_name = {}
        children = {}
        for s in self.spans:
            by_name.setdefault(s.name, []).append(s)
            children.setdefault(id(s.parent), []).append(s)

        def durations_ms(name):
            return [(s.end - s.start) / 1e6 for s in by_name.get(name, [])]

        def p50_ms(name):
            d = durations_ms(name)
            return statistics.median(d) if d else 0.0

        def self_ms(span):
            covered = _union_ns([(c.start, c.end) for c in children.get(id(span), [])],
                                span.start, span.end)
            return (span.end - span.start - covered) / 1e6

        def info_sum(name, key):
            return sum((s.info or {}).get(key, 0) for s in by_name.get(name, []))

        def share(num, den):
            return num / den if den else 0.0

        def evals_p50(name):
            e = [s.info["evals"] for s in by_name.get(name, []) if s.info]
            return statistics.median(e) if e else 0

        def ns_per_eval(name):
            total_ns = sum(s.end - s.start for s in by_name.get(name, []))
            return share(total_ns, info_sum(name, "evals"))

        entries = [s for s in self.spans if s.name in ENTRY_SPANS]
        entry_ns = sum(s.end - s.start for s in entries)
        runs = by_name.get("harness.run_experiment", [])
        run_ns = sum(s.end - s.start for s in runs)
        trial_ns = sum(s.end - s.start for s in by_name.get("harness.trial", []))
        layer_spans = [(s.start, s.end) for s in self.spans if s.name not in NOT_A_LAYER]
        covered_ns = sum(_union_ns(layer_spans, e.start, e.end) for e in entries)
        correctors = by_name.get("refine.estimate_correctors", [])
        columns = [s.info["columns"] for s in by_name.get("subspace.noise_subspace", []) if s.info]
        two_step = by_name.get("music.two_step_estimate", [])
        fig1 = by_name.get("harness.scenario_fig1", [])

        return {
            "music.spectrum_2d_angular.ms_p50": p50_ms("music.spectrum_2d_angular"),
            "music.spectrum_2d_angular.evals": evals_p50("music.spectrum_2d_angular"),
            "music.spectrum_2d_angular.ns_per_eval": ns_per_eval("music.spectrum_2d_angular"),
            "music.spectrum_1d_distance.ms_p50": p50_ms("music.spectrum_1d_distance"),
            "music.spectrum_1d_distance.evals": evals_p50("music.spectrum_1d_distance"),
            "music.find_peaks.ms_p50": p50_ms("music.find_peaks"),
            "music.two_step_estimate.self_ms": (
                statistics.median(self_ms(s) for s in two_step) if two_step else 0.0
            ),
            "music.spectrum_3d.ms_p50": p50_ms("music.spectrum_3d"),
            "music.spectrum_3d.evals": evals_p50("music.spectrum_3d"),
            "music.spectrum_3d.ns_per_eval": ns_per_eval("music.spectrum_3d"),
            "music.peaks_found_share": share(
                info_sum("music.find_peaks", "found"), info_sum("music.find_peaks", "requested")
            ),
            "music.boundary_fallback_share": share(
                info_sum("music.two_step_estimate", "fallbacks"),
                info_sum("music.two_step_estimate", "located"),
            ),
            "subspace.smoothed_covariance.ms_p50": p50_ms("subspace.smoothed_covariance"),
            "subspace.sample_covariance.ms_p50": p50_ms("subspace.sample_covariance"),
            "subspace.noise_subspace.ms_p50": p50_ms("subspace.noise_subspace"),
            "subspace.noise_subspace.dim": statistics.median(columns) if columns else 0,
            "harness.place_ues.ms_p50": p50_ms("harness.place_ues"),
            "channel.channel_matrix.ms_p50": p50_ms("channel.channel_matrix"),
            "signal.gen_pilots.ms_p50": p50_ms("signal.gen_pilots"),
            "signal.received_block.ms_p50": p50_ms("signal.received_block"),
            "refine.reconstruct_channels.ms_p50": p50_ms("refine.reconstruct_channels"),
            "refine.estimate_correctors.ms_p50": p50_ms("refine.estimate_correctors"),
            "refine.baselines.ms_p50": p50_ms("refine.baselines"),
            "refine.ill_conditioned_share": share(
                sum(1 for s in correctors if (s.info or {}).get("raised") == "IllConditionedError"),
                len(correctors),
            ),
            "metrics.match_estimates.ms_p50": p50_ms("metrics.match_estimates"),
            "metrics.score.ms_per_trial": share(sum(durations_ms("metrics.score")), trials),
            "metrics.aggregate.ms": p50_ms("metrics.aggregate"),
            "harness.run_experiment.self_ms_per_trial": (
                share(sum(self_ms(s) for s in runs), trials) if runs else 0.0
            ),
            "harness.scenario_fig1.self_ms": (
                statistics.median(self_ms(s) for s in fig1) if fig1 else 0.0
            ),
            "harness.write_csv.ms": share(sum(durations_ms("harness.write_csv")), len(runs)),
            "harness.dump_spectrum_csv.ms_p50": p50_ms("harness.dump_spectrum_csv"),
            "harness.worker_busy_share": share(trial_ns, threads * run_ns),
            "trace.coverage_share": share(covered_ns, entry_ns),
        }


def _union_ns(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total
