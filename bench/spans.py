"""Span tracing of `wlpoles` public functions, installed from outside the package.

`Tracer.install` replaces each target function with a wrapper that records
one span per call: name, start, end, parent span and whether the call raised.
A function bound under several module attributes (`mat_det` is imported by
`cancel` and `sampling` as well as defined in `exact`) is replaced under
every one of them, so every call site is seen. Spans stay in memory until
`write` saves them as tab-separated lines.

`summarize` turns saved spans into per-name call counts, raised counts and
self time: a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (span name, module, attribute); a dotted attribute is a method of a class
TARGETS = (
    ("cli.main", "wlpoles.cli", "main"),
    ("cancel.amplitude_report", "wlpoles.cancel", "amplitude_report"),
    ("cancel.verify_group", "wlpoles.cancel", "verify_group"),
    ("cancel.localize", "wlpoles.cancel", "localize"),
    ("cancel.classify", "wlpoles.cancel", "classify"),
    ("cancel.partners", "wlpoles.cancel", "partners"),
    ("sampling.twistor_data", "wlpoles.sampling", "twistor_data"),
    ("sampling.check_positive", "wlpoles.sampling", "TwistorData.check_positive"),
    ("exact.mat_det", "wlpoles.exact", "mat_det"),
    ("exact.mat_rank", "wlpoles.exact", "mat_rank"),
    ("exact.structured_factorize", "wlpoles.exact", "structured_factorize"),
    ("matroids.bases", "wlpoles.matroids", "Matroid.bases"),
    ("matrices.minor", "wlpoles.matrices", "SymbolicMatrix.minor"),
    ("poles.r_poly_edge", "wlpoles.poles", "r_poly_edge"),
    ("poles.r_routes", "wlpoles.poles", "check_r_equalities"),
    ("poles.factor_codim", "wlpoles.poles", "factor_codim"),
    ("diagrams.validate", "wlpoles.diagrams", "validate"),
    ("diagrams.enumerate", "wlpoles.diagrams", "enumerate_diagrams"),
    ("positroids.is_minimal", "wlpoles.positroids", "is_minimal"),
    ("positroids.necklace", "wlpoles.positroids", "necklace"),
    ("positroids.cell_descriptor", "wlpoles.positroids", "cell_descriptor"),
)

MARK = "__bench_span__"


def _package_modules() -> list:
    return [m for name, m in sys.modules.items() if name.split(".")[0] == "wlpoles" and m]


def count_wrapped() -> int:
    """Number of wrappers bound anywhere in the loaded `wlpoles` modules."""
    seen = 0
    for mod in _package_modules():
        for obj in vars(mod).values():
            if hasattr(obj, MARK):
                seen += 1
            elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                seen += sum(hasattr(v, MARK) for v in vars(obj).values())
    return seen


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, raised]
        self._stack = [-1]

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1], False]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()

        setattr(traced, MARK, name)
        return traced

    def install(self) -> None:
        for name, modname, attr in TARGETS:
            module = importlib.import_module(modname)
            owner, _, fname = attr.rpartition(".")
            if owner:
                cls = getattr(module, owner)
                setattr(cls, fname, self._wrap(name, vars(cls)[fname]))
                continue
            fn = getattr(module, fname)
            traced = self._wrap(name, fn)
            for mod in _package_modules():
                for key in [k for k, v in vars(mod).items() if v is fn]:
                    setattr(mod, key, traced)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, raised in self.spans:
                fh.write(f"{name}\t{start!r}\t{end!r}\t{parent}\t{int(raised)}\n")


def summarize(path: str) -> dict[str, dict[str, float]]:
    """Per span name: calls, raised and self_s, from a file `write` saved."""
    names: list[str] = []
    durations: list[float] = []
    parents: list[int] = []
    raised: list[int] = []
    with open(path) as fh:
        for line in fh:
            name, start, end, parent, err = line.rstrip("\n").split("\t")
            names.append(name)
            durations.append(float(end) - float(start))
            parents.append(int(parent))
            raised.append(int(err))
    self_s = list(durations)
    for i, parent in enumerate(parents):
        if parent >= 0:
            self_s[parent] -= durations[i]
    out = {name: {"calls": 0, "raised": 0, "self_s": 0.0} for name, _, _ in TARGETS}
    for name, s, err in zip(names, self_s, raised):
        row = out[name]
        row["calls"] += 1
        row["raised"] += err
        row["self_s"] += s
    return out
