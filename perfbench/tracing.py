"""Spans around the calls the CLI makes into each layer of efpricing.

The program has no tracing of its own, so the benchmark wraps the layer
functions that ``efpricing.cli`` calls (its module globals and the
entries of ``PRICING_METHODS``) for the length of a pass, and restores
them afterwards.  Spans are kept in memory and written out at the end.
"""

from __future__ import annotations

import contextlib
import functools
import time
import tracemalloc
from dataclasses import asdict, dataclass, field

#: Layer functions the CLI reaches through its own module namespace,
#: keyed by the name they have there; the value is the span name.
CLI_CALLS = {
    "read_instance": "instance.read_instance",
    "read_solution": "instance.read_solution",
    "write_solution": "instance.write_solution",
    "solve_assignment": "matching.solve_assignment",
    "reorder": "core.reorder",
    "build_gap_matrix": "core.build_gap_matrix",
    "check_envy_free": "verify.check_envy_free",
}
PRICING_CALLS = {
    "efpm": "pricing.prices_efpm",
    "bellman-ford": "pricing.prices_bellman_ford",
}


@dataclass
class Span:
    id: int
    trace: int
    parent: int | None
    name: str
    start_ns: int
    end_ns: int = 0
    attrs: dict = field(default_factory=dict)
    #: Peak traced allocation above the allocation at entry (memory pass).
    peak_bytes: int | None = None
    _base: int = field(default=0, repr=False)


class Tracer:
    """Records nested spans; with ``memory`` set, also each span's peak.

    Peaks need tracemalloc running.  Entering a span resets the peak so
    that the span's own peak can be read on exit; the enclosing span's
    running peak is carried across the reset.
    """

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._trace = 0
        #: (args, result) of the latest call of each span name.
        self.last: dict[str, tuple] = {}

    @contextlib.contextmanager
    def span(self, name: str, new_trace: bool = False, **attrs):
        if new_trace or not self._stack:
            self._trace += 1
        parent = self._stack[-1] if self._stack else None
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                parent.peak_bytes = max(parent.peak_bytes, peak)
            tracemalloc.reset_peak()
        s = Span(
            id=len(self.spans),
            trace=self._trace,
            parent=None if parent is None else parent.id,
            name=name,
            start_ns=time.perf_counter_ns(),
            attrs=attrs,
        )
        if self.memory:
            s._base = s.peak_bytes = current
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end_ns = time.perf_counter_ns()
            self._stack.pop()
            if self.memory:
                s.peak_bytes = max(s.peak_bytes, tracemalloc.get_traced_memory()[1])
                if parent is not None:
                    parent.peak_bytes = max(parent.peak_bytes, s.peak_bytes)
                s.peak_bytes -= s._base

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self.last[name] = (args, result)
            return result

        return traced

    def rows(self) -> list[dict]:
        """The spans as plain dicts, for writing out."""
        rows = []
        for s in self.spans:
            row = asdict(s)
            del row["_base"]
            rows.append(row)
        return rows


@contextlib.contextmanager
def instrument(tracer: Tracer, cli):
    """Route the CLI's calls into the layers through ``tracer``."""
    saved_globals = {attr: getattr(cli, attr) for attr in CLI_CALLS}
    saved_methods = dict(cli.PRICING_METHODS)
    try:
        for attr, name in CLI_CALLS.items():
            setattr(cli, attr, tracer.wrap(name, saved_globals[attr]))
        for method, name in PRICING_CALLS.items():
            cli.PRICING_METHODS[method] = tracer.wrap(name, saved_methods[method])
        yield
    finally:
        for attr, fn in saved_globals.items():
            setattr(cli, attr, fn)
        cli.PRICING_METHODS.clear()
        cli.PRICING_METHODS.update(saved_methods)
