"""In-memory span recorder for the benchmark's traced mode.

A span is one timed call into a layer: name, start, end, parent span and
run id. Spans are recorded by the benchmark around the library calls it
makes (and, through :func:`instrument`, around a few public library
functions that the sweep calls internally), kept in memory, and written
out once when the run ends. A layer's *self time* is the duration of its
spans minus the time covered by their child spans; whatever the campaign's
root span covers that no layer span does is the unattributed remainder.
"""

from __future__ import annotations

import contextlib
import gc
import json
import time
import tracemalloc
from collections.abc import Callable, Iterator
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

_MB = 1024.0 * 1024.0

#: Name of the span that encloses one whole campaign.
ROOT = "campaign"


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        """The layer a span charges its self time to: its name's prefix."""
        return self.name.split(".", 1)[0]


class Tracer:
    """Records spans and counters; with ``enabled=False`` every call is a no-op."""

    def __init__(self, run_id: str, *, enabled: bool = True) -> None:
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    def span(self, name: str, **attrs: Any) -> contextlib.AbstractContextManager[None]:
        if not self.enabled:
            return contextlib.nullcontext()
        return self._record(name, attrs)

    @contextlib.contextmanager
    def _record(self, name: str, attrs: dict[str, Any]) -> Iterator[None]:
        span = Span(
            span_id=len(self.spans),
            name=name,
            start=time.perf_counter(),
            end=float("nan"),
            parent=self._stack[-1] if self._stack else None,
            run_id=self.run_id,
            attrs=attrs,
        )
        self.spans.append(span)
        self._stack.append(span.span_id)
        try:
            yield
        finally:
            self._stack.pop()
            span.end = time.perf_counter()

    def count(self, name: str, amount: float) -> None:
        if self.enabled:
            self.counters[name] = self.counters.get(name, 0.0) + amount

    @contextlib.contextmanager
    def retained_memory(self, counter: str) -> Iterator[None]:
        """Count into ``counter`` the MB still allocated when the block ends.

        Starts :mod:`tracemalloc` for the block's duration; allocation
        tracing slows allocation-heavy code severalfold, so keep timed
        work out of the block.
        """
        if not self.enabled:
            yield
            return
        tracemalloc.start()
        base = tracemalloc.get_traced_memory()[0]
        try:
            yield
        finally:
            self.count(counter, (tracemalloc.get_traced_memory()[0] - base) / _MB)
            tracemalloc.stop()

    @contextlib.contextmanager
    def gc_pauses(self, counter: str) -> Iterator[None]:
        """Count into ``counter`` the seconds the cyclic garbage collector
        runs during the block, whichever span it interrupts."""
        if not self.enabled:
            yield
            return
        started: list[float] = []

        def callback(phase: str, info: dict[str, int]) -> None:
            if phase == "start":
                started.append(time.perf_counter())
            elif started:
                self.count(counter, time.perf_counter() - started.pop())

        gc.callbacks.append(callback)
        try:
            yield
        finally:
            gc.callbacks.remove(callback)

    # --------------------------------------------------------------- analysis

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.named(name))

    def self_times(self, root: Span) -> dict[str, float]:
        """Self time per layer over ``root``'s subtree; the root's own self
        time is reported under ``"unattributed"``."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out: dict[str, float] = {}
        todo = [root]
        while todo:
            span = todo.pop()
            kids = children.get(span.span_id, [])
            todo.extend(kids)
            own = span.duration - sum(k.duration for k in kids)
            layer = "unattributed" if span is root else span.layer
            out[layer] = out.get(layer, 0.0) + own
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"spans": [asdict(s) for s in self.spans], "counters": self.counters}
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def span_cost(samples: int = 20_000) -> float:
    """Seconds that recording one span costs, timed over ``samples`` empty
    spans on a scratch tracer: the resolvable part of the tracing overhead."""
    tracer = Tracer("span-cost")
    start = time.perf_counter()
    for _ in range(samples):
        with tracer.span("probe", label="probe"):
            pass
    return (time.perf_counter() - start) / samples


def _wrap(
    tracer: Tracer, name: str, fn: Callable[..., Any], before: Callable[..., None] | None
) -> Callable[..., Any]:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if before is not None:
            before(*args, **kwargs)
        with tracer.span(name):
            return fn(*args, **kwargs)

    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Wrap the public library functions the sweep calls internally in spans.

    ``run_sweep`` resolves ``build_cells`` and ``campaign_fingerprint``
    through its module, and the subscriber-point RWP generator resolves
    ``contacts_from_trajectories`` through its own, so replacing those
    module attributes for the duration of the block times each call
    without changing what runs. The originals are restored on exit.
    """
    import repro.core.sweep as sweep_mod
    import repro.mobility.rwp as rwp_mod

    def before_extract(trajectories: Any, *args: Any, **kwargs: Any) -> None:
        tracer.count("mobility.segments", sum(len(t.segments) for t in trajectories))
        if tracemalloc.is_tracing():
            tracemalloc.reset_peak()

    def extract(*args: Any, **kwargs: Any) -> Any:
        trace = original_extract(*args, **kwargs)
        if tracemalloc.is_tracing():
            tracer.count("mobility.extract_peak_mb", tracemalloc.get_traced_memory()[1] / _MB)
        return trace

    original_extract = rwp_mod.contacts_from_trajectories
    build_cells = _wrap(tracer, "sweep.build_cells", sweep_mod.build_cells, None)
    fingerprint = _wrap(tracer, "sweep.fingerprint", sweep_mod.campaign_fingerprint, None)
    patches = [
        (sweep_mod, "build_cells", build_cells),
        (sweep_mod, "campaign_fingerprint", fingerprint),
        (
            rwp_mod,
            "contacts_from_trajectories",
            _wrap(tracer, "mobility.extract", extract, before_extract),
        ),
    ]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
    try:
        for mod, attr, fn in patches:
            setattr(mod, attr, fn)
        yield
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)
