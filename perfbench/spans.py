"""Spans recorded from outside the library.

A ``Tracer`` replaces module attributes of ``coherence_lab`` (and the scipy
entry points its modules call) with wrappers that record one span per call:
name, start, end, parent span and the operation it belongs to. Spans are
kept in memory and written out when the run ends; nothing inside the
library changes. ``uninstall`` puts every replaced attribute back.

A wrapper records only while an operation's root span is open, so oracle
checks and set-up that run between operations leave no spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import defaultdict
from time import perf_counter

#: library modules whose public functions get a span
LAYERS = ("qcore", "fock", "spin", "splitting", "bell", "dynamics",
          "serialize", "cli")

#: public helpers left unwrapped: they run inside fit objectives or once per
#: amplitude, where a span would cost about as much as the call itself
UNWRAPPED = {
    "qcore": {"as_twice_j", "fock_factor", "spin_factor"},
    "fock": {"required_cutoff", "check_cutoff", "admissible_radius", "fock_space"},
    "spin": {"spin_space", "angle_to_zeta"},
    "serialize": {"parse_complex", "format_complex", "complex_pair",
                  "pair_to_complex", "space_to_dict", "space_from_dict", "f17"},
    "cli": {"entry"},
}

#: classes whose construction is a layer boundary (the isometry Gram check)
WRAPPED_CLASSES = {"qcore": ("SplitIsometry",)}

#: modules that bind scipy.optimize.minimize by name; each gets its own span
MINIMIZE_USERS = ("fock", "spin", "bell")


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "attrs")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.attrs = None

    def to_dict(self, index: int) -> dict:
        return {"id": index, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "op": self.op,
                "attrs": self.attrs}


def _minimize_attrs(res) -> dict:
    return {"nfev": int(res.nfev), "success": bool(res.success),
            "fun": float(res.fun)}


def _matrix_bytes(iso) -> dict:
    return {"bytes": int(iso.matrix.nbytes)}


def _text_bytes(text) -> dict:
    return {"bytes": len(text.encode("utf-8"))}


#: result attributes recorded on the span, by span name
ATTRS = {
    "fock.minimize": _minimize_attrs,
    "spin.minimize": _minimize_attrs,
    "bell.minimize": _minimize_attrs,
    "fock.beamsplit_isometry": _matrix_bytes,
    "spin.addition_isometry": _matrix_bytes,
    "serialize.json_text": _text_bytes,
}


class Tracer:
    """In-memory span recorder plus the attribute replacements that feed it."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._op = None
        self._replaced: list = []

    # -- recording ---------------------------------------------------------

    def root(self, op_index: int, name: str):
        """Context manager for one benchmark operation's root span."""
        return _RootSpan(self, op_index, name)

    def wrap(self, name: str, fn):
        attrs = ATTRS.get(name)
        spans, stack = self.spans, self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            span = Span(name, perf_counter(), stack[-1], tracer._op)
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
                if attrs is not None:
                    span.attrs = attrs(out)
                return out
            finally:
                span.end = perf_counter()
                stack.pop()

        return wrapper

    # -- attribute replacement ---------------------------------------------

    def replace(self, module, attr: str, replacement) -> None:
        self._replaced.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def install(self, package) -> None:
        """Wrap the public functions of every layer module of ``package``,
        the scipy entry points they call, and the names they re-export."""
        import scipy.linalg

        modules = {name: importlib.import_module(f"{package.__name__}.{name}")
                   for name in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                defined_here = getattr(obj, "__module__", None) == module.__name__
                public_function = (inspect.isfunction(obj) and not attr.startswith("_")
                                   and attr not in UNWRAPPED.get(layer, ()))
                if defined_here and (public_function
                                     or attr in WRAPPED_CLASSES.get(layer, ())):
                    wrappers[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        # rebind every name that refers to a wrapped object, including names
        # imported into other modules (``from .qcore import SplitIsometry``)
        for module in (package, *modules.values()):
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self.replace(module, attr, wrappers[id(obj)])
        for layer in MINIMIZE_USERS:
            module = modules[layer]
            self.replace(module, "minimize", self.wrap(f"{layer}.minimize",
                                                       module.minimize))
        self.replace(scipy.linalg, "expm", self.wrap("scipy.linalg.expm",
                                                     scipy.linalg.expm))

    def uninstall(self) -> None:
        while self._replaced:
            module, attr, original = self._replaced.pop()
            setattr(module, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, span in enumerate(self.spans):
                fh.write(json.dumps(span.to_dict(index)) + "\n")


class _RootSpan:
    def __init__(self, tracer: Tracer, op_index: int, name: str):
        self.tracer = tracer
        self.op_index = op_index
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        tracer._op = self.op_index
        self.span = Span(self.name, perf_counter(), None, self.op_index)
        tracer._stack.append(len(tracer.spans))
        tracer.spans.append(self.span)
        return self.span

    def __exit__(self, *exc):
        self.span.end = perf_counter()
        self.tracer._stack.pop()
        self.tracer._op = None
        return False


def self_times(spans) -> list:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to the parent's interval and overlapping children
    are merged, so the result never goes below zero.
    """
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(index)
    out = []
    for index, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for lo, hi in sorted((max(spans[c].start, span.start),
                              min(spans[c].end, span.end))
                             for c in children.get(index, ())):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((span.end - span.start) - covered)
    return out
