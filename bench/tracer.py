"""Spans around regulus's public functions, installed from outside the package.

The package's modules bind each other's functions by name
(``from .series import mul``), so replacing ``regulus.series.mul`` alone
would miss most calls.  ``Tracer.install`` replaces each traced function at
every module attribute that holds it, and ``uninstall`` puts the originals
back.  Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager
from typing import NamedTuple, Optional


class Span(NamedTuple):
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    thread: int
    check: Optional[str]
    attrs: Optional[dict]


def _ring_split(fn):
    """mul and invert: name the span by the operand's ring, count output coefficients."""
    sig = inspect.signature(fn)

    def describe(args, kwargs):
        ops = args if not kwargs else tuple(sig.bind(*args, **kwargs).arguments.values())
        ring = "zm" if ops[0].ring.modulus else "zz"
        return ring, {"coeffs": min(op.order for op in ops) + 1}

    return describe


def _keyed(fn):
    """Record the call's arguments, so distinct keys can be counted."""
    sig = inspect.signature(fn)

    def describe(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return "", {"key": list(bound.arguments.values())}

    return describe


# layer (module of regulus) -> traced function -> how to describe a call
TRACED = {
    "series": {
        "mul": _ring_split,
        "invert": _ring_split,
        "power": None,
        "euler_E": None,
        "eta_quotient": None,
        "regular_quotient": _keyed,
    },
    "oracle": {
        "regular_multipartition_counts": _keyed,
        "multipartition_counts": None,
        "enumerate_multipartitions": None,
    },
    "expr": {"evaluate": None},
    "families": {
        "verify_family": None,
        "generate_grid": None,
        "cached_regular_series": None,
    },
    "coefficients": {
        "newman_check": None,
        "hecke_eigen_check": None,
        "bridge_congruence_check": None,
        "scaling_congruence_check": None,
    },
    "dissections": {"verify_dissection": None},
    "suite": {"run_suite": None},
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[int]:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def checking(self, check_id: str):
        """Tag the spans this thread records with the check (operation) they serve."""
        outer = getattr(self._local, "check", None)
        self._local.check = check_id
        try:
            yield
        finally:
            self._local.check = outer

    def call(self, name, fn, args, kwargs, attrs=None, parent=None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            check = getattr(self._local, "check", None)
            self.spans.append(Span(sid, parent, name, start, end, threading.get_ident(), check, attrs))

    def _wrap(self, name, fn, describe):
        call = self.call
        if describe is None:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return call(name, fn, args, kwargs)

        else:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                suffix, attrs = describe(args, kwargs)
                return call(f"{name}.{suffix}" if suffix else name, fn, args, kwargs, attrs)

        return traced

    def _trace_checks(self, build_check):
        """suite._build_check: give each check a span whose parent is run_suite."""
        tracer = self

        @functools.wraps(build_check)
        def build(check_id, *args, **kwargs):
            fn = build_check(check_id, *args, **kwargs)
            parent = tracer.current()

            def check():
                with tracer.checking(check_id):
                    return tracer.call("suite.check", fn, (), {}, parent=parent)

            return check

        return build

    def install(self) -> None:
        """Replace every traced function at every regulus module attribute bound to it."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, tuple[object, object]] = {}
        for layer, funcs in TRACED.items():
            module = importlib.import_module(f"regulus.{layer}")
            for fname, describe in funcs.items():
                fn = getattr(module, fname)
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{fname}", fn, describe and describe(fn)))
        suite = importlib.import_module("regulus.suite")
        wrappers[id(suite._build_check)] = (suite._build_check, self._trace_checks(suite._build_check))
        modules = [m for name, m in list(sys.modules.items()) if name == "regulus" or name.startswith("regulus.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._undo.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._undo):
            setattr(module, attr, value)
        self._undo.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(list(span)) + "\n")


def read_spans(path) -> list[Span]:
    with open(path) as fh:
        return [Span(*json.loads(line)) for line in fh]
