"""Span tracing of the jetclust modules from outside the package.

`installed(tracer)` rebinds the names that each caller module imported
(for example `jetclust.planners.splitting_log_likelihood` or
`jetclust.policy.extract_pair_features`) to timing wrappers defined
here, and restores the originals on exit.  Nothing under `src/` knows
about it.  Because a module looks its imported names up in its own
globals at call time, rebinding the caller's name attributes every call
to the module that made it: the kernel called from `planners` and the
kernel called from `env.step` are counted apart.

Every wrapped call records its duration, and adds that duration to the
open span that called it, so a layer's self time is its own duration
minus the time its wrapped children took.  Coarse calls are kept as span
records (name, start, end, parent span, event); the hot inner calls
(the density kernel, `apply_action`, `leaf_sets`) are only counted and
timed, so a traced pass does not hold one record per kernel call.
"""

import itertools
import json
import time
from collections import defaultdict

from jetclust import env, features, harness, planners, policy, trellis

# (module, name its callers look up there, span name); counted and timed only
KERNEL_TARGETS = [
    (planners, "splitting_log_likelihood", "kernel.planners"),
    (env, "splitting_log_likelihood", "kernel.env"),
    (trellis, "splitting_log_likelihood", "kernel.trellis"),
    (features, "splitting_log_likelihood", "kernel.features"),
]
# (module, name its callers look up there, span name, keep a span record)
TARGETS = [
    (planners, "apply_action", "env.apply_action", False),
    (planners, "leaf_sets", "env.leaf_sets", False),
    (planners, "step", "env.step", True),
    (policy, "step", "env.step", True),
    (planners, "SearchNode", "planners.search_node", True),
    (harness, "cluster_mcts", "planners.cluster_mcts", True),
    (planners, "cluster_policy", "planners.cluster_policy", True),
    (trellis, "exact_mle", "trellis.exact_mle", True),
    (policy, "extract_pair_features", "features.extract", True),
    (policy, "policy_loss_and_grad", "policy.loss_and_grad", True),
    (policy, "truth_actions", "policy.truth_actions", True),
    (policy, "policy_forward", "policy.forward", True),
    (policy, "train_bc", "policy.train_bc", True),
]
KERNEL_NAMES = tuple(name for _, _, name in KERNEL_TARGETS)


class Tracer:
    """Spans and per-name call statistics of one traced pass."""

    def __init__(self) -> None:
        self.event = None  # id of the event the open spans belong to
        self.spans: list[tuple] = []  # (id, name, parent id, event, start, end)
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.kernel_under: dict[str | None, int] = defaultdict(int)  # caller span -> kernel calls
        self._pairs: list[tuple] = []  # child pairs of the open event, hashed at its end
        self.distinct_pairs = 0  # distinct unordered pairs per event, summed
        self.feature_rows = 0
        self._ids = itertools.count(1)
        self._stack: list[list] = []  # [span id, name, child seconds]

    def begin_event(self, event_id) -> None:
        self.distinct_pairs += len({frozenset(pair) for pair in self._pairs})
        self._pairs = []
        self.event = event_id

    def end(self) -> None:
        self.begin_event(None)

    def run(self, name: str, record: bool, fn, args, kwargs):
        enter = time.perf_counter()
        stack = self._stack
        parent = stack[-1] if stack else None
        frame = [next(self._ids) if record else 0, name, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            dur = end - start
            self.calls[name] += 1
            self.total_s[name] += dur
            self.self_s[name] += dur - frame[2]
            if record:
                self.spans.append(
                    (frame[0], name, parent[0] if parent else None, self.event, start, end))
            if parent is not None:
                # The wrapper's own bookkeeping is charged to no layer.
                parent[2] += time.perf_counter() - enter

    def wrap(self, name: str, fn, record: bool):
        def traced(*args, **kwargs):
            out = self.run(name, record, fn, args, kwargs)
            if name == "features.extract":
                self.feature_rows += len(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def wrap_kernel(self, name: str, fn):
        def traced(s, config):
            self._pairs.append((s.child_a, s.child_b))
            self.kernel_under[self._stack[-1][1] if self._stack else None] += 1
            return self.run(name, False, fn, (s, config), {})

        traced.__wrapped__ = fn
        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a recorded span of the given name."""
        return self.run(name, True, fn, args, kwargs)

    def write(self, f, phase: str) -> None:
        """Append the span records to the open file f as JSON lines,
        tagged with the traced phase (span ids are unique per phase)."""
        for sid, name, parent, event, start, end in self.spans:
            f.write(json.dumps({"phase": phase, "id": sid, "name": name, "parent": parent,
                                "event": event, "start": start, "end": end}) + "\n")


class installed:
    """Context manager that rebinds every target to the tracer's wrappers."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple] = []

    def __enter__(self) -> Tracer:
        for module, attr, name in KERNEL_TARGETS:
            self._rebind(module, attr, self.tracer.wrap_kernel(name, getattr(module, attr)))
        for module, attr, name, record in TARGETS:
            self._rebind(module, attr, self.tracer.wrap(name, getattr(module, attr), record))
        return self.tracer

    def _rebind(self, module, attr, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
