"""Outside-in spans and counters around the public names the pipeline calls.

Nothing inside the package is edited: :func:`install` rebinds module
attributes (``catscamp.pipeline.overlap``, ``catscamp.fock.beamsplitter_fock``
and so on) to thin wrappers that record a span per call, and
:func:`uninstall` puts the originals back.  Spans live in memory as
``[name, start, end, parent, op]`` lists and are written out once, at the end
of a run.  A span's self time is its duration minus the durations of its
direct children; the program is single threaded, so children never overlap.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# layer span -> module attributes that route through it; each (module, name)
# is where the caller looks the name up at call time
SPAN_TARGETS = {
    "sweeps": [("sweeps", "sweep_rows")],
    "pipeline": [("pipeline", "run_parity_swap"), ("sweeps", "run_parity_swap")],
    "optimize.search": [("pipeline", "golden_section_max")],
    "phasespace.overlap": [("pipeline", "overlap")],
    "phasespace.stages": [
        ("pipeline", "tensor"),
        ("pipeline", "substitute_beamsplitter"),
        ("pipeline", "condition"),
    ],
    "states.cat_chi": [("pipeline", "cat_chi")],
    "states.cat_fock": [("pipeline", "cat_fock")],
    "states.squeezed_vacuum_fock": [("pipeline", "squeezed_vacuum_fock")],
    "fock.condition_fock": [("fock", "condition_fock")],
    "fock.fidelity_fock": [("fock", "fidelity_fock")],
}

BS_COLD = "fock.beamsplitter_fock.cold"
BS_WARM = "fock.beamsplitter_fock.warm"
SPEED_SAMPLE = "perfbench.speed_sample"  # the benchmark's own, never reported


class Tracer:
    """Span recorder plus per-op counters for one benchmark process."""

    def __init__(self, modules):
        self.modules = modules  # short name -> imported catscamp module
        self.spans = []
        self.stack = []
        self.op = -1
        self.counts = defaultdict(lambda: defaultdict(int))  # op -> counter -> value
        self._saved = []
        self._bs_keys = set()

    # -- recording -------------------------------------------------------

    def begin_op(self, op: int, fresh_caches: bool = False) -> None:
        """Attribute later spans and counts to ``op``; with ``fresh_caches``
        the operator caches were just cleared, so every splitter is cold again."""
        self.op = op
        if fresh_caches:
            self._bs_keys.clear()

    def count(self, key: str, n: int = 1) -> None:
        self.counts[self.op][key] += n

    def note_max(self, key: str, value) -> None:
        counts = self.counts[self.op]
        counts[key] = max(counts[key], value)

    def _span(self, name, fn, args, kwargs):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        span = [name, time.perf_counter(), 0.0, parent, self.op]
        self.spans.append(span)
        self.stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self.stack.pop()
            span[2] = time.perf_counter()

    def wrap(self, name, fn):
        """``fn`` recording a span called ``name`` (and the layer's counters)."""
        tracer = self

        if name == "phasespace.overlap":
            def wrapped(a, b, *args, **kwargs):
                tracer.count("phasespace.overlap.calls")
                tracer.count("phasespace.gauss_integrals", a.n_terms * b.n_terms)
                return tracer._span(name, fn, (a, b) + args, kwargs)
        elif name == "phasespace.stages":
            def wrapped(*args, **kwargs):
                out = tracer._span(name, fn, args, kwargs)
                state = out[0] if isinstance(out, tuple) else out
                tracer.note_max("phasespace.max_terms", state.n_terms)
                return out
        elif name == "optimize.search":
            def wrapped(f, *args, **kwargs):
                def counted(x):
                    tracer.count("optimize.fidelity_evals")
                    return f(x)
                return tracer._span(name, fn, (counted,) + args, kwargs)
        else:
            def wrapped(*args, **kwargs):
                return tracer._span(name, fn, args, kwargs)
        return wrapped

    def _beamsplitter_wrapper(self, fn):
        tracer = self

        def wrapped(state, t, r, *args, **kwargs):
            # cold = first call for this (t, r, dim) since the caches were last cleared
            key = (float(t), float(r), int(state.dims[0]))
            cold = key not in tracer._bs_keys
            tracer._bs_keys.add(key)
            tracer.count("fock.beamsplitter_fock.calls")
            return tracer._span(BS_COLD if cold else BS_WARM, fn,
                                (state, t, r) + args, kwargs)
        return wrapped

    # -- patching --------------------------------------------------------

    def _patch(self, mod_name, attr, wrapper):
        module = self.modules[mod_name]
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self) -> None:
        for name, targets in SPAN_TARGETS.items():
            for mod_name, attr in targets:
                original = getattr(self.modules[mod_name], attr)
                self._patch(mod_name, attr, self.wrap(name, original))
        fock = self.modules["fock"]
        self._patch("fock", "beamsplitter_fock",
                    self._beamsplitter_wrapper(fock.beamsplitter_fock))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- reduction -------------------------------------------------------

    def self_seconds(self, scale=None) -> dict:
        """Total self time in seconds per span name, each span's time times
        ``scale[op]`` of its op (1 where missing)."""
        scale = scale or {}
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(float)
        for idx, (name, start, end, _, op) in enumerate(self.spans):
            totals[name] += ((end - start) - child[idx]) * scale.get(op, 1.0)
        return totals

    def op_counters(self, ops) -> list:
        """Counter dicts for the given op ids."""
        return [dict(self.counts.get(op, {})) for op in ops]

    def write(self, path) -> None:
        """Write spans as JSON lines, times in microseconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="ascii") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(json.dumps(
                    [name, round((start - t0) * 1e6, 1), round((end - t0) * 1e6, 1),
                     parent, op]) + "\n")
