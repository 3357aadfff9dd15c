"""Spans recorded from outside gossipsim, around the calls into each module.

A traced run replaces gossipsim's public callables at the module or class
attribute each caller looks them up through, so the wrapper sits on the
call path without any change to gossipsim itself.  Spans are kept in memory
as ``[name, parent index, run id, start, end]``.  A span's self time is its
duration minus the durations of its children; the self times of a root span
and all its descendants therefore sum to the root's duration.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from collections import defaultdict
from time import perf_counter

import gossipsim
from gossipsim import consensus, harness, objectives, optimize, records, streams

# (span name, owners, attribute): every owner's attribute gets a wrapper.
TRACED = (
    ("consensus.loop", (gossipsim, consensus), "run_consensus"),
    ("consensus.step", (consensus,), "step_exact"),
    ("consensus.step", (consensus,), "step_direct"),
    ("consensus.step", (consensus,), "step_paired"),
    ("consensus.step", (consensus,), "step_tracking"),
    ("compression.compress", (consensus, optimize), "compress"),
    ("optimize.loop", (gossipsim, optimize), "run_optimization"),
    ("optimize.round", (optimize,), "sgd_round"),
    ("optimize.averaging", (optimize.ExactAveraging, optimize.TrackingAveraging), "apply"),
    ("streams.get", (streams.StreamPool,), "get"),
    ("objectives.grad", (objectives.QuadraticObjective, objectives.LogisticObjective),
     "stochastic_gradient"),
    ("objectives.value", (objectives.QuadraticObjective, objectives.LogisticObjective), "value"),
    ("topology.build", (harness,), "build_topology"),
    ("objectives.parse", (gossipsim, objectives), "parse_libsvm"),
    ("objectives.reference", (gossipsim, objectives), "solve_reference"),
    ("records.write", (records,), "write_records_csv"),
)


class Tracer:
    """Span store of one benchmark process; one run id per repetition."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]
        self.run = 0
        self.missing: list[str] = []

    def new_run(self, run: int) -> None:
        self.spans.clear()
        del self._stack[1:]
        self.run = run

    @contextlib.contextmanager
    def span(self, name: str):
        span = [name, self._stack[-1], self.run, 0.0, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[3] = perf_counter()
        try:
            yield span
        finally:
            span[4] = perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1], self.run, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[3] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every callable in TRACED; restore the originals on exit.

        An attribute gossipsim no longer has is skipped and listed in
        ``missing``, so a renamed function shows as time moving to its
        caller rather than as a crash.
        """
        saved = []
        try:
            for name, owners, attr in TRACED:
                for owner in owners:
                    original = vars(owner).get(attr)
                    if original is None:
                        label = f"{getattr(owner, '__name__', owner)}.{attr}"
                        if label not in self.missing:
                            self.missing.append(label)
                            print(f"bench: cannot trace missing {label}", file=sys.stderr)
                        continue
                    saved.append((owner, attr, original))
                    setattr(owner, attr, self.wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def self_times(spans: list[list]) -> dict[tuple[str, str], list]:
    """``(root name, span name) -> [self seconds, calls]``.

    Parents are recorded before their children, so one forward pass finds
    each span's root.
    """
    child_time = [0.0] * len(spans)
    root = [0] * len(spans)
    for i, (_, parent, _, start, end) in enumerate(spans):
        if parent < 0:
            root[i] = i
        else:
            root[i] = root[parent]
            child_time[parent] += end - start
    totals: dict[tuple[str, str], list] = defaultdict(lambda: [0.0, 0])
    for i, (name, _, _, start, end) in enumerate(spans):
        acc = totals[(spans[root[i]][0], name)]
        acc[0] += (end - start) - child_time[i]
        acc[1] += 1
    return dict(totals)
