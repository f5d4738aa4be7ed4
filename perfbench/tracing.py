"""Span tracing of the ``permsep`` layers, installed from outside the package.

`Tracer.install` wraps every public function of each layer module and
rebinds every name in the package that refers to one of them, including
names copied by ``from .x import y`` and functions held in module-level
containers (``verification.SUITES``).  Each wrapped call records a span:
name, start, end, busy time, parent span, workload and query id.  A call
that returns a generator also gets an ``iter`` span whose busy time is the
time spent inside the generator and whose ``objects`` is the number of
items it yielded.  Spans stay in memory until `Tracer.dump` writes them as
JSON lines.

`layer_metrics` turns a list of spans into the per-layer numbers.  A span's
self time is its busy time minus the busy time of its child spans, so the
layers' self times add up to the traced time with nothing counted twice.

``permsep.partitions`` is deliberately not a layer: its leaf helpers, such
as ``binomial``, are called hundreds of thousands of times per ``verify``,
and wrapping them would distort the trace.  Their time counts in the
caller's self time.  ``permsep.separation`` is used only by the literal
oracles and is not a layer either.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import types
from time import perf_counter

LAYERS = (
    "cli",
    "symfunc",
    "formulas",
    "polynomials",
    "strong",
    "oracles",
    "perms",
    "verification",
)

VERIFY_CHECKS = (
    "two_cycle_closed_form",
    "symmetry",
    "colored_quadruples",
    "colored_triples",
    "p_cycles",
    "involution_series",
    "fixed_point_lift",
    "one_face_maps",
    "colored_matchings",
    "lemma_identities",
    "strong_separation",
)


def _degree_reader(fn):
    """A function of a call's (args, kwargs) that gives the degree a symfunc
    call works at: its argument named ``n`` or ``degree``, or else the
    ``degree`` of a vector passed to it.  Other ints, such as the ``pairs``
    of ``involution_length_power_coefficient``, are not degrees."""
    try:
        params = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        params = []
    for position, param in enumerate(params):
        if param in ("n", "degree"):
            def read(args, kwargs, position=position, param=param):
                value = args[position] if position < len(args) else kwargs.get(param)
                return value if type(value) is int else None

            return read

    def read_vector(args, kwargs):
        for value in itertools.chain(args, kwargs.values()):
            degree = getattr(value, "degree", None)
            if type(degree) is int:
                return degree
        return None

    return read_vector


class Tracer:
    """Collects spans for one process."""

    def __init__(self, workload: str):
        self.workload = workload
        self.query: int | None = None
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, fn):
        name = f"{layer}.{fn.__name__}"
        degree = _degree_reader(fn) if layer == "symfunc" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            span_id = next(self._ids)
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append(
                    (
                        span_id, name, "call", start, end, end - start, parent,
                        self.query, 0, degree(args, kwargs) if degree else None,
                    )
                )
            if isinstance(result, types.GeneratorType):
                return self._iterate(name, result)
            return result

        return traced

    def _iterate(self, name: str, gen):
        """Re-yield ``gen``, timing only the time spent inside it."""
        span_id = next(self._ids)
        parent = None
        first = last = None
        busy = 0.0
        objects = 0
        try:
            while True:
                stack = self._stack()
                if first is None:
                    parent = stack[-1] if stack else None
                stack.append(span_id)
                start = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    end = perf_counter()
                    stack.pop()
                    busy += end - start
                    first = start if first is None else first
                    last = end
                objects += 1
                yield item
        finally:
            if first is not None:
                self.spans.append(
                    (
                        span_id, name, "iter", first, last, busy, parent,
                        self.query, objects, None,
                    )
                )

    def install(self, package: str = "permsep") -> None:
        """Wrap the public functions of every layer module that exists and
        rebind every reference to them inside the package."""
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"{package}.{layer}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{layer}":
                    raise
                continue  # a layer removed by a later change reads 0
            for attr, value in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or isinstance(value, type)
                    or not callable(value)
                    or getattr(value, "__module__", None) != module.__name__
                ):
                    continue
                wrappers[id(value)] = self.wrap(layer, value)
        importlib.import_module(package)
        for mod_name, module in list(sys.modules.items()):
            if mod_name == package or mod_name.startswith(package + "."):
                for attr, value in list(vars(module).items()):
                    if attr.startswith("__"):
                        continue
                    new = _rebind(value, wrappers)
                    if new is not value:
                        setattr(module, attr, new)

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines, one object per span."""
        with open(path, "w", encoding="utf-8") as out:
            for span_id, name, kind, start, end, busy, parent, query, objects, degree in self.spans:
                span = {
                    "id": span_id, "name": name, "kind": kind, "start": start, "end": end,
                    "busy": busy, "parent": parent, "workload": self.workload,
                    "query": query, "objects": objects, "degree": degree,
                }
                out.write(json.dumps(span) + "\n")


def _rebind(value, wrappers: dict, depth: int = 0):
    """``value`` with every wrapped function replaced by its wrapper.

    Dicts and lists are updated in place; a tuple holding a wrapped function
    is rebuilt.  Other values are returned unchanged.
    """
    if callable(value) and not isinstance(value, type):
        return wrappers.get(id(value), value)
    if depth > 2:
        return value
    if isinstance(value, dict):
        for key, item in list(value.items()):
            new = _rebind(item, wrappers, depth + 1)
            if new is not item:
                value[key] = new
        return value
    if isinstance(value, list):
        for i, item in enumerate(value):
            new = _rebind(item, wrappers, depth + 1)
            if new is not item:
                value[i] = new
        return value
    if isinstance(value, tuple) and type(value) is tuple:
        items = tuple(_rebind(item, wrappers, depth + 1) for item in value)
        if any(new is not old for new, old in zip(items, value)):
            return items
    return value


def read_spans(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as stream:
        return [json.loads(line) for line in stream if line.strip()]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Self time of each span: its busy time minus its children's busy time."""
    child_busy: dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            child_busy[span["parent"]] = child_busy.get(span["parent"], 0.0) + span["busy"]
    return {span["id"]: span["busy"] - child_busy.get(span["id"], 0.0) for span in spans}


def layer_metrics(processes: list[list[dict]]) -> dict[str, float]:
    """Per-layer numbers over the spans of several processes (one list each).

    ``<layer>.self_s`` sums self times, ``<layer>.calls`` counts call spans,
    ``symfunc.builds`` counts the degrees first requested in each process,
    ``perms.objects`` counts items yielded by the ``perms`` generators,
    ``strong.refinement_s`` is the inclusive time of ``refinement_matrix``,
    and ``verification.check_<name>_s`` the inclusive time of each check.
    """
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.calls"] = 0
    out["symfunc.builds"] = 0
    out["perms.objects"] = 0
    out["strong.refinement_s"] = 0.0
    for check in VERIFY_CHECKS:
        out[f"verification.check_{check}_s"] = 0.0
    for spans in processes:
        selfs = self_times(spans)
        names = {span["id"]: span["name"] for span in spans}
        degrees = set()
        for span in spans:
            layer, _, func = span["name"].partition(".")
            if layer not in LAYERS:
                continue
            out[f"{layer}.self_s"] += selfs[span["id"]]
            if span["kind"] == "call":
                out[f"{layer}.calls"] += 1
            if layer == "symfunc" and span["degree"] is not None:
                degrees.add(span["degree"])
            if layer == "perms" and span["kind"] == "iter":
                out["perms.objects"] += span["objects"]
            if names.get(span["parent"]) == span["name"]:
                continue  # inclusive times count the outermost call only
            if span["name"] == "strong.refinement_matrix":
                out["strong.refinement_s"] += span["busy"]
            key = f"verification.{func}_s"
            if layer == "verification" and key in out:
                out[key] += span["busy"]
        out["symfunc.builds"] += len(degrees)
    return out
