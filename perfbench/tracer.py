"""Spans around calls into the package's public functions.

The tracer wraps each traced function and replaces it under every name the
package's modules bind it to (for example `swipt_relay.experiment.build_mdp`
as well as `swipt_relay.mdp.build_mdp`), so calls between modules are seen
without touching the package's source. Spans stay in memory; a layer's
self time is its span minus the spans of its direct children.
"""

import sys
import time
from collections import defaultdict

# (defining module, function) -> span name. A name missing from the
# package is skipped, and its metrics read zero.
SPANS = {
    ("channel", "quantize_equiprobable_exponential"): "channel.quantize",
    ("relay", "heuristic_average_success"): "relay.heuristic",
    ("mdp", "build_mdp"): "mdp.build",
    ("mdp", "policy_iteration"): "mdp.policy_iteration",
    ("mdp", "policy_evaluate"): "mdp.evaluate",
    ("mdp", "policy_improve"): "mdp.improve",
    ("mdp", "upper_bound"): "mdp.upper_bound",
    ("simulate", "simulate_original"): "simulate.original",
    ("simulate", "simulate_discrete"): "simulate.discrete",
    ("experiment", "run_sweep"): "experiment.run_sweep",
    ("cli", "main"): "cli.main",
}
# (binding module, defining module, function) -> counter name. Counted only
# where that module calls it: the per-action reward calls made by the
# model's action enumeration.
COUNTERS = {
    ("mdp", "relay", "success_prob"): "relay.success_prob_calls",
}

PACKAGE = "swipt_relay"


class Span:
    __slots__ = ("name", "parent", "start", "end", "error", "phase")

    def __init__(self, name, parent, start, phase):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.error = None
        self.phase = phase

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "error": self.error,
            "phase": self.phase,
        }


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts = defaultdict(int)  # (phase, name) -> count
        self.phase = "setup"
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _modules(self):
        return [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def install(self) -> None:
        modules = self._modules()
        for (home, func), span_name in SPANS.items():
            original = getattr(sys.modules.get(f"{PACKAGE}.{home}"), func, None)
            if original is None:
                continue
            wrapper = self._span_wrapper(span_name, original)
            for module in modules:
                if getattr(module, func, None) is original:
                    self._patch(module, func, wrapper)
        for (binder, home, func), counter in COUNTERS.items():
            module = sys.modules.get(f"{PACKAGE}.{binder}")
            original = getattr(sys.modules.get(f"{PACKAGE}.{home}"), func, None)
            if original is not None and getattr(module, func, None) is original:
                self._patch(module, func, self._count_wrapper(counter, original))

    def uninstall(self) -> None:
        for module, func, original in reversed(self._patched):
            setattr(module, func, original)
        self._patched.clear()

    def _patch(self, module, func, wrapper) -> None:
        self._patched.append((module, func, getattr(module, func)))
        setattr(module, func, wrapper)

    def _span_wrapper(self, name, func):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, 0.0, self.phase)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            _count_result(counts, self.phase, name, result)
            return result

        traced.__wrapped__ = func
        return traced

    def _count_wrapper(self, name, func):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[(self.phase, name)] += 1
            return func(*args, **kwargs)

        counted.__wrapped__ = func
        return counted

    def totals(self, phase) -> dict:
        """Per span name: calls, total seconds, self seconds and errors of
        one phase, plus the counters of that phase."""
        child_seconds = defaultdict(float)
        for span in self.spans:
            if span.phase == phase and span.parent >= 0:
                child_seconds[span.parent] += span.seconds
        out = defaultdict(float)
        root_seconds = 0.0
        for index, span in enumerate(self.spans):
            if span.phase != phase:
                continue
            out[f"{span.name}.calls"] += 1
            out[f"{span.name}.total_s"] += span.seconds
            out[f"{span.name}.self_s"] += span.seconds - child_seconds[index]
            if span.error:
                out[f"{span.name}.errors"] += 1
            if span.parent < 0:
                root_seconds += span.seconds
        out["root_s"] = root_seconds
        for (count_phase, name), value in self.counts.items():
            if count_phase == phase:
                out[name] += value
        return out


def _count_result(counts, phase, name, result) -> None:
    """Work counts read from a traced call's return value."""
    if name == "mdp.build":
        counts[(phase, "mdp.states")] += int(getattr(result, "n_states", 0))
        actions = getattr(result, "actions", ())
        try:
            counts[(phase, "mdp.actions")] += sum(len(a) for a in actions)
        except TypeError:
            pass
    elif name == "mdp.policy_iteration":
        counts[(phase, "mdp.iterations")] += int(getattr(result, "iterations", 0))
    elif name.startswith("simulate."):
        counts[(phase, f"{name}.blocks")] += int(getattr(result, "blocks", 0))
