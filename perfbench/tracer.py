"""Spans around sysbound's public functions, installed from outside the package.

Layer-entry calls (``cli.main``, the ``certify_*`` sweeps, the congruence
enumeration and the growth table) get one span each, with id, parent, start
and end.  Hot inner calls (the scalar bound functions, ``bounds._require``,
the ``MoebiusElement``, ``CuspLattice`` and ``QuadMatrix`` methods) run
millions of times per sweep, so they are aggregated per enclosing span as a
count and a total of nanoseconds, which keeps memory bounded.

A span's self time is its duration minus the time covered by its wrapped
children: child spans, and hot calls that are not nested in another hot call.

Wrappers return exactly what the wrapped function returns, so a traced run
prints the same bytes as an untraced one.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

SPAN_FUNCTIONS = {
    "sysbound.cli": ["main"],
    "sysbound.certify": [
        "certify_cusp_trace_bound",
        "certify_crossing",
        "certify_length_lemma",
        "certify_cubic_claims",
    ],
    "sysbound.bianchi": ["enumerate_congruence_elements", "systole_growth_table"],
}

HOT_METHODS = {
    ("sysbound.bounds", "BoundProfile"): ["from_volume"],
    ("sysbound.mobius", "MoebiusElement"): [
        "from_trace",
        "classify",
        "translation_length",
        "isometric_sphere",
    ],
    ("sysbound.cusp", "CuspLattice"): ["reduce", "torus_diameter"],
    ("sysbound.bianchi", "QuadMatrix"): ["classify_exact"],
}


def _hot_bound_functions(bounds) -> list[str]:
    """Every public function of ``bounds`` plus its ``_require`` guard."""
    return [name for name in bounds.__all__ if callable(getattr(bounds, name))
            and not isinstance(getattr(bounds, name), type)] + ["_require"]


def _short(module: str, name: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{name}"


def _span_attrs(name: str, args, result) -> dict:
    if name == "cli.main":
        return {"argv": list(args[0]) if args else None, "code": result}
    if name.startswith("certify."):
        return {"points": result.points_checked, "status": result.status}
    if name == "bianchi.enumerate_congruence_elements":
        return {"height": args[1], "n": args[0].n, "elements": len(result)}
    if name == "bianchi.systole_growth_table":
        return {"rows": len(result)}
    return {}


class Span:
    __slots__ = ("id", "parent", "name", "start_ns", "end_ns", "covered_ns", "calls", "attrs")

    def __init__(self, span_id: int, parent: int | None, name: str, start_ns: int):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start_ns = start_ns
        self.end_ns = start_ns
        self.covered_ns = 0
        self.calls: dict[str, list[int]] = {}
        self.attrs: dict = {}

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def self_ns(self) -> int:
        return self.duration_ns - self.covered_ns

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "self_ns": self.self_ns,
            "attrs": self.attrs,
            "calls": {k: {"count": c, "ns": ns} for k, (c, ns) in sorted(self.calls.items())},
        }


class Tracer:
    """Installs wrappers on sysbound's module attributes and class methods.

    Use as a context manager; spans stay in memory until :meth:`write`.
    Calls made outside any span are charged to a root span with id 0.
    """

    def __init__(self):
        self.root = Span(0, None, "root", time.perf_counter_ns())
        self.spans: list[Span] = []
        self._stack: list[Span] = [self.root]
        self._hot_depth = 0
        self._next_id = 1
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        clock = time.perf_counter_ns
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            span = Span(self._next_id, parent.id, name, clock())
            self._next_id += 1
            self.spans.append(span)
            stack.append(span)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span.end_ns = clock()
                stack.pop()
                parent.covered_ns += span.duration_ns
                if result is not None:
                    span.attrs = _span_attrs(name, args, result)

        return wrapper

    def _hot_wrapper(self, name: str, fn):
        clock = time.perf_counter_ns
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            self._hot_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self._hot_depth -= 1
                span = stack[-1]
                agg = span.calls.get(name)
                if agg is None:
                    span.calls[name] = [1, dt]
                else:
                    agg[0] += 1
                    agg[1] += dt
                if self._hot_depth == 0:
                    span.covered_ns += dt

        return wrapper

    def _patch(self, owner, attr: str, wrapped) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    def _patch_method(self, cls, attr: str, name: str) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._patch(cls, attr, classmethod(self._hot_wrapper(name, raw.__func__)))
        else:
            self._patch(cls, attr, self._hot_wrapper(name, raw))

    def install(self) -> "Tracer":
        for module_name, names in SPAN_FUNCTIONS.items():
            module = importlib.import_module(module_name)
            for attr in names:
                self._patch(module, attr, self._span_wrapper(_short(module_name, attr), getattr(module, attr)))
        bounds = importlib.import_module("sysbound.bounds")
        for attr in _hot_bound_functions(bounds):
            self._patch(bounds, attr, self._hot_wrapper(f"bounds.{attr}", getattr(bounds, attr)))
        for (module_name, cls_name), attrs in HOT_METHODS.items():
            cls = getattr(importlib.import_module(module_name), cls_name)
            for attr in attrs:
                self._patch_method(cls, attr, _short(module_name, f"{cls_name}.{attr}"))
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()
        self.root.end_ns = time.perf_counter_ns()

    # -- output -----------------------------------------------------------

    def records(self) -> list[dict]:
        return [self.root.to_dict()] + [s.to_dict() for s in self.spans]

    def write(self, path, header: dict | None = None) -> None:
        """Write one JSON object per line: an optional header, then the spans."""
        with open(path, "a") as fh:
            if header is not None:
                fh.write(json.dumps(header, sort_keys=True) + "\n")
            for rec in self.records():
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
