"""Per-layer tracing: spans around the public functions of each layer.

The program is not edited.  A :class:`LayerTrace` replaces each function
below at the name its caller looks up with a wrapper that opens a span
on the trace's own :class:`repro.obs.Tracer`, and puts the originals
back on exit.  That tracer is never made the active one, so the engine's
internal spans stay off and the forest holds only the layer spans and
the per-operation spans the runner opens.  A layer's self time is its
span minus the layer spans nested in it.
"""

from __future__ import annotations

import functools
import importlib
import inspect

from repro.obs import Tracer

#: (module, attribute path, span name): wrapped in place, timed per call.
SPANS = (
    ("repro.engine.batch", "draw_node_block", "selection.draw"),
    ("repro.engine.batch", "draw_edge_block", "selection.draw"),
    ("repro.engine.batch", "BatchAveragingProcess.run", "batch.run"),
    ("repro.engine.batch", "BatchAveragingProcess.run_until_phi", "batch.until_phi"),
    ("repro.engine.batch", "BatchAveragingProcess.resync_moments", "batch.resync"),
    ("repro.engine.driver", "run_to_consensus_batch", "driver.harvest"),
    ("repro.engine.cache", "ResultCache.store", "cache.store"),
    ("repro.engine.cache", "ResultCache.load", "cache.load"),
    ("repro.core.base", "AveragingProcess.run", "core.run"),
    ("repro.core.base", "AveragingProcess.__init__", "core.init"),
    ("repro.graphs.adjacency", "Adjacency.from_graph", "graphs.from_graph"),
    (
        "repro.experiments.exp_variance_trajectory",
        "exact_variance_trajectory",
        "theory.exact",
    ),
    (
        "repro.experiments.exp_variance_trajectory",
        "exact_limit_variance",
        "theory.exact",
    ),
)

#: Factories whose returned callable is timed per call: the batch models
#: build their block executor once and call it once per block.
FACTORIES = (("repro.engine.batch", "make_block_executor", "kernels.block"),)

#: Functions only counted: called far too often for a span each.
COUNTS = (("repro.core.potentials", "PotentialTracker.reset", "core.potential_resets"),)


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, name


class LayerTrace:
    """Context manager installing the layer wrappers on one tracer."""

    def __init__(self) -> None:
        self.tracer = Tracer(max_spans=10_000_000)
        self.counts: dict[str, int] = {}
        self._undo: list[tuple[object, str, object]] = []

    def _replace(self, module_name: str, path: str, make_wrapper) -> None:
        owner, name = _resolve(module_name, path)
        raw = inspect.getattr_static(owner, name)
        if isinstance(raw, classmethod):
            replacement = classmethod(make_wrapper(raw.__func__))
        else:
            replacement = make_wrapper(raw)
        self._undo.append((owner, name, raw))
        setattr(owner, name, replacement)

    def _spanned(self, span_name: str):
        tracer = self.tracer

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with tracer.span(span_name):
                    return fn(*args, **kwargs)

            return wrapper

        return make

    def _factory(self, span_name: str):
        spanned = self._spanned(span_name)

        def make(factory):
            @functools.wraps(factory)
            def wrapper(*args, **kwargs):
                made = factory(*args, **kwargs)
                if made is None:
                    return None
                timed = spanned(made)
                sync = getattr(made, "sync_host", None)
                if sync is not None:
                    timed.sync_host = sync
                return timed

            return wrapper

        return make

    def _counted(self, counter: str):
        counts = self.counts
        counts.setdefault(counter, 0)

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[counter] += 1
                return fn(*args, **kwargs)

            return wrapper

        return make

    def __enter__(self) -> "LayerTrace":
        for module_name, path, span_name in SPANS:
            self._replace(module_name, path, self._spanned(span_name))
        for module_name, path, span_name in FACTORIES:
            self._replace(module_name, path, self._factory(span_name))
        for module_name, path, counter in COUNTS:
            self._replace(module_name, path, self._counted(counter))
        return self

    def __exit__(self, *exc: object) -> bool:
        while self._undo:
            owner, name, raw = self._undo.pop()
            setattr(owner, name, raw)
        return False

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: summed duration, summed self time and calls."""
        out: dict[str, dict[str, float]] = {}
        for root in self.tracer.roots:
            for span, _ in root.walk():
                entry = out.setdefault(span.name, {"s": 0.0, "self_s": 0.0, "calls": 0})
                entry["s"] += span.duration
                entry["self_s"] += span.self_time
                entry["calls"] += 1
        return out
