"""Span tracing of orcline's layers from outside the library.

``Tracer.install()`` replaces each traced public function by a wrapper
in every ``orcline`` module that binds it, so calls between modules and
inside a module (``explore`` -> ``step``, ``orc_semantics`` ->
``substitute``) are recorded as well as calls from the CLI.  A
recursive call of a function already on top of the span stack is not
a new span: a span is one entry into a layer, whatever its walkers do.

Spans are kept in memory as (job, name, start, end, parent) and written
out once, by ``write``.  ``self_times`` gives each layer's self time (its
spans minus the part their child spans cover); ``layer_metrics`` names
it, with the counts taken at the same boundaries.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, function) -> the layer it belongs to.  The span name is
# "<module>.<layer>"; the parse entry points share one layer.
TRACED = {
    ("cli", "main"): "main",
    ("orc_parser", "parse_program_with_diagnostics"): "parse",
    ("orc_parser", "parse_feature_model"): "parse",
    ("orc_parser", "parse_mts"): "parse",
    ("orc_parser", "parse_lts"): "parse",
    ("orc_semantics", "explore"): "explore",
    ("orc_semantics", "run"): "run",
    ("orc_semantics", "step"): "step",
    ("orc_semantics", "canonical_key"): "canonical_key",
    ("orc_ast", "substitute"): "substitute",
    ("mts", "is_product"): "is_product",
    ("mts", "derive_products"): "derive_products",
    ("feature_model", "enumerate_products"): "enumerate_products",
    ("feature_model", "product_count"): "product_count",
    ("feature_model", "validate"): "validate",
    ("variability_encoding", "encode"): "encode",
}


def _count(counts: dict, name: str, args: tuple, result, parent: "str | None"):
    """Counts taken from a layer call's arguments and result."""
    c = counts[name]
    c["calls"] += 1
    if name == "orc_semantics.explore":
        c["states"] += len(result.states)
        c["edges"] += len(result.edges)
    elif name == "orc_semantics.step":
        c["successors"] += len(result)
        if parent == "orc_semantics.run":
            c["successors_in_run"] += len(result)
    elif name == "orc_semantics.run":
        c["events"] += len(result.events)
    elif name == "orc_parser.parse":
        c["chars"] += len(args[0])
    elif name == "mts.is_product":
        c["rounds"] += result.rounds
        c["witness_pairs"] += len(result.witness or ())
    elif name == "mts.derive_products":
        family = args[0]
        c["candidates"] += 2 ** len(family.may - family.must)
        c["distinct"] += len(result)
    elif name == "feature_model.enumerate_products":
        c["products"] += len(result)


class Tracer:
    def __init__(self):
        self.spans: list = []          # [job, name, start, end, parent]
        self.stack: list = []          # indices of open spans
        self.counts = defaultdict(lambda: defaultdict(int))
        self.job = 0
        self._restore: list = []

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self.stack, self.counts

        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][1] == name:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            index = len(spans)
            span = [self.job, name, 0.0, 0.0, parent]
            spans.append(span)
            stack.append(index)
            result = None
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                # A bound hit still did the work: count its partial result.
                result = getattr(exc, "partial", None)
                raise
            finally:
                span[3] = perf_counter()
                stack.pop()
                if result is not None:
                    _count(counts, name, args, result,
                           None if parent is None else spans[parent][1])
                else:
                    counts[name]["calls"] += 1
        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Replace every traced function in every loaded orcline module."""
        modules = {key: mod for key, mod in sys.modules.items()
                   if key == "orcline" or key.startswith("orcline.")}
        targets = {}
        for (mod_name, fn_name), layer in TRACED.items():
            fn = getattr(modules[f"orcline.{mod_name}"], fn_name)
            targets[id(fn)] = self._wrap(f"{mod_name}.{layer}", fn)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                wrapper = targets.get(id(value))
                if wrapper is not None:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for (module, attr, value) in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def write(self, path: str):
        with open(path, "w") as handle:
            for (job, name, start, end, parent) in self.spans:
                handle.write(json.dumps([job, name, start, end, parent])
                             + "\n")


def self_times(spans: list, group) -> dict:
    """{group key: {span name: self seconds}}, where ``group(job)``
    picks the group of a job's spans.  A span's self time is its
    duration minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for (_, _, start, end, parent) in spans:
        if parent is not None:
            child[parent] += end - start
    out = defaultdict(lambda: defaultdict(float))
    for i, (job, name, start, end, _) in enumerate(spans):
        out[group(job)][name] += (end - start) - child[i]
    return out


def layer_metrics(self_s: dict, counts: dict, share: float) -> dict:
    """The per-layer metrics of one traced run, by name."""
    def s(name):
        return self_s.get(name, 0.0)

    def n(name, key="calls"):
        return counts.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "orc_semantics.explore.self_s": s("orc_semantics.explore"),
        "orc_semantics.explore.states": n("orc_semantics.explore", "states"),
        "orc_semantics.explore.edges": n("orc_semantics.explore", "edges"),
        "orc_semantics.step.self_s": s("orc_semantics.step"),
        "orc_semantics.step.calls": n("orc_semantics.step"),
        "orc_semantics.step.successors":
            n("orc_semantics.step", "successors"),
        "orc_semantics.canonical_key.self_s":
            s("orc_semantics.canonical_key"),
        "orc_semantics.canonical_key.calls":
            n("orc_semantics.canonical_key"),
        "orc_semantics.canonical_key.new_state_ratio":
            ratio(n("orc_semantics.explore", "states"),
                  n("orc_semantics.canonical_key")),
        "orc_semantics.run.self_s": s("orc_semantics.run"),
        "orc_semantics.run.events": n("orc_semantics.run", "events"),
        "orc_semantics.run.successors_per_event":
            ratio(n("orc_semantics.step", "successors_in_run"),
                  n("orc_semantics.run", "events")),
        "orc_ast.substitute.self_s": s("orc_ast.substitute"),
        "orc_ast.substitute.calls": n("orc_ast.substitute"),
        "orc_parser.parse.self_s": s("orc_parser.parse"),
        "orc_parser.parse.chars_per_s":
            ratio(n("orc_parser.parse", "chars"), s("orc_parser.parse")),
        "mts.is_product.self_s": s("mts.is_product"),
        "mts.is_product.rounds": n("mts.is_product", "rounds"),
        "mts.is_product.witness_pairs":
            n("mts.is_product", "witness_pairs"),
        "mts.derive_products.self_s": s("mts.derive_products"),
        "mts.derive_products.candidates":
            n("mts.derive_products", "candidates"),
        "mts.derive_products.distinct_ratio":
            ratio(n("mts.derive_products", "distinct"),
                  n("mts.derive_products", "candidates")),
        "feature_model.enumerate_products.self_s":
            s("feature_model.enumerate_products"),
        "feature_model.enumerate_products.products":
            n("feature_model.enumerate_products", "products"),
        "feature_model.product_count.self_s":
            s("feature_model.product_count"),
        "feature_model.validate.self_s": s("feature_model.validate"),
        "variability_encoding.encode.self_s":
            s("variability_encoding.encode"),
        "variability_encoding.encode.calls":
            n("variability_encoding.encode"),
        "cli.main.self_s": s("cli.main"),
        "trace.self_time_share": share,
    }
