"""Spans around the engine's public layer calls, recorded from outside.

The tracer patches the public functions the workloads reach (in every
``beliefmerge`` module namespace that holds them) with wrappers that
record one span per call: name, start, end, parent span and operation
id. Spans stay in memory; ``write`` dumps them when the run ends.
``install`` and ``uninstall`` swap wrappers and originals, so plain
operations run the unmodified engine.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from time import perf_counter

TIME_LAYERS = [
    "instancefile.load",
    "formulae.enumerate",
    "distance.vectors",
    "merge.argmin",
    "lp.decide",
    "cli.output",
    "instancegen.generate",
    "postulates.check",
    "maxcons.disjunction",
]


def _merge_layer(bm):
    def name(args, kwargs):
        scheme = args[1] if len(args) > 1 else kwargs.get("scheme")
        return "lp.decide" if isinstance(scheme, bm.AllPositiveWeights) else "merge.argmin"
    return name


class Tracer:
    def __init__(self, bm):
        self.spans: list[tuple] = []  # (op, span, parent, name, start, end)
        self.stack: list[int] = []
        self.op = -1
        fixed = lambda label: (lambda args, kwargs: label)  # noqa: E731
        mod = lambda name: sys.modules[f"beliefmerge.{name}"]  # noqa: E731
        functions = [
            (mod("instancefile").load_instance_file, fixed("instancefile.load")),
            (mod("merge").merge_scheme, _merge_layer(bm)),
            (mod("instancegen").random_instance, fixed("instancegen.generate")),
            (mod("postulates").check_postulate, fixed("postulates.check")),
            (mod("postulates").check_majority, fixed("postulates.check")),
            (mod("postulates").check_disjunctive, fixed("postulates.check")),
            (mod("postulates").check_arbitration_duplicate, fixed("postulates.check")),
            (mod("maxcons").maxcons_disjunction, fixed("maxcons.disjunction")),
        ]
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "beliefmerge"]
        self.sites = []  # (owner, attribute, original, wrapper)
        for fn, namer in functions:
            wrapper = self._wrap(fn, namer)
            for owner in modules:
                for attr, value in vars(owner).items():
                    if value is fn:
                        self.sites.append((owner, attr, fn, wrapper))
        instance = mod("merge").Instance
        for attr, label in (("__init__", "formulae.enumerate"), ("vectors", "distance.vectors")):
            fn = instance.__dict__[attr]
            self.sites.append((instance, attr, fn, self._wrap(fn, fixed(label))))

    def call(self, name, fn, *args, **kwargs):
        span = len(self.spans) + len(self.stack)
        parent = self.stack[-1] if self.stack else None
        self.stack.append(span)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.stack.pop()
            self.spans.append((self.op, span, parent, name, start, end))

    def _wrap(self, fn, namer):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(namer(args, kwargs), fn, *args, **kwargs)
        return wrapper

    def install(self) -> None:
        for owner, attr, _, wrapper in self.sites:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, fn, _ in self.sites:
            setattr(owner, attr, fn)

    def op_span(self, root: str, fn, *args):
        """Run one operation under a new operation id and a root span named root."""
        self.op += 1
        return self.call(root, fn, *args)

    def self_times(self) -> dict[int, dict[str, float]]:
        """Per operation, the self time (s) of each layer: span duration
        minus the time its direct children cover."""
        child = {}
        for op, span, parent, name, start, end in self.spans:
            if parent is not None:
                child[parent] = child.get(parent, 0.0) + (end - start)
        per_op: dict[int, dict[str, float]] = {}
        for op, span, parent, name, start, end in self.spans:
            layers = per_op.setdefault(op, {})
            layers[name] = layers.get(name, 0.0) + (end - start) - child.get(span, 0.0)
        return per_op

    def layer_medians_ms(self) -> dict[str, float]:
        """Median self time per operation, over the operations that call the layer."""
        per_op = self.self_times()
        out = {}
        for layer in TIME_LAYERS:
            values = [layers[layer] for layers in per_op.values() if layer in layers]
            out[layer] = statistics.median(values) * 1e3 if values else 0.0
        return out

    def write(self, path: str) -> None:
        keys = ("op", "span", "parent", "name", "start", "end")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([dict(zip(keys, s)) for s in self.spans], handle)
