"""Outside-in tracer: swaps public functions of udec's modules for timing
wrappers, without touching the package's source.

Every wrapped function gets an aggregate (calls, busy time, self time); self
time is busy time minus the time spent in wrapped children.  The coarse
``simulator`` entry points also leave a span each (name, start, end, parent
span, operation id).  Hot leaves such as ``decoders.metric_score`` (about
1.6 M calls per exact audit at n=8) keep only the aggregate, so the cost per
call is two clock reads and a few list operations.

Wrapping replaces the module attribute, so calls that look the name up in
the module at call time, as udec's own modules do, are traced; the
re-exports in ``udec/__init__.py`` are not.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

#: module -> functions wrapped; families, lz and cli are not (see README.md)
LAYERS = {
    "simulator": ("run_experiment", "monte_carlo_audit", "exact_bound_audit"),
    "decoders": ("metric_score", "universal_score", "ml_score"),
    "typeclasses": (
        "class_key",
        "empirical_joint_type",
        "key_class_size",
        "conditional_class_size",
        "count_classes",
    ),
    "ensembles": ("sample_codebook", "class_probability", "log_prob"),
    "channels": ("transmit", "log_likelihood"),
}
#: functions that leave a span per call
SPANNED = {"simulator"}
#: the scalar scores, whose count per trial tells which path ran
SCORES = ("decoders.metric_score", "decoders.universal_score", "decoders.ml_score")


class Tracer:
    """Aggregates per wrapped function and spans for the coarse calls."""

    def __init__(self):
        self.stats = {
            f"{mod}.{fn}": [0, 0.0, 0.0] for mod, fns in LAYERS.items() for fn in fns
        }
        self.spans = []
        self.op = 0
        self._stack = []

    def _wrap(self, key, fn, spanned):
        stat = self.stats[key]
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0, None]
            if spanned:
                parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
                frame[1] = len(spans)
                spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                busy = end - start
                stat[0] += 1
                stat[1] += busy
                stat[2] += busy - frame[0]
                if stack:
                    stack[-1][0] += busy
                if spanned:
                    spans[frame[1]] = {
                        "name": key, "start": start, "end": end,
                        "parent": parent, "op": self.op,
                    }

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every function in LAYERS for the duration of the block."""
        saved = []
        try:
            for mod_name, fns in LAYERS.items():
                mod = importlib.import_module(f"udec.{mod_name}")
                for fn in fns:
                    original = getattr(mod, fn)
                    saved.append((mod, fn, original))
                    setattr(mod, fn, self._wrap(f"{mod_name}.{fn}", original, mod_name in SPANNED))
            yield self
        finally:
            for mod, fn, original in reversed(saved):
                setattr(mod, fn, original)

    def metrics(self, calls: int, trials: int, pairs: int, overhead_frac: float) -> dict:
        """Per-layer metrics, each per workload call, as {name: (value, unit)}."""
        out = {}
        for key, (count, busy, self_s) in self.stats.items():
            out[f"{key}.calls"] = (count / calls, "count")
            out[f"{key}.busy_s"] = (busy / calls, "s")
            out[f"{key}.self_s"] = (self_s / calls, "s")
        scores = sum(self.stats[k][0] for k in SCORES)
        out["decoders.scores_per_trial"] = (scores / (calls * trials) if trials else 0.0, "count")
        metric_calls = self.stats["decoders.metric_score"][0]
        out["decoders.metric_score.calls_per_pair"] = (
            metric_calls / (calls * pairs) if pairs else 0.0, "count"
        )
        total = sum(s[2] for s in self.stats.values())
        for mod, fns in LAYERS.items():
            self_s = sum(self.stats[f"{mod}.{fn}"][2] for fn in fns)
            out[f"{mod}.self_s"] = (self_s / calls, "s")
            out[f"{mod}.self_frac"] = (self_s / total if total else 0.0, "ratio")
        out["trace.overhead_frac"] = (overhead_frac, "ratio")
        return out
