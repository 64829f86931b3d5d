"""Spans around the public functions of euclidpt, recorded from outside the package.

`Tracer.install()` replaces each traced function in every namespace of the
package that binds it (``dyson`` holds its own ``multiply`` and
``build_hamiltonian`` through ``from .algebra import``, and ``sweep``
reaches ``eigen_spectrum`` through ``spectral``'s globals), plus
``scipy.linalg.eigvals``/``eig`` so LAPACK eigensolves are counted under
whichever span called them.  ``uninstall()`` puts the originals back.

Spans nest through a context variable.  ``sweep(workers>1)`` runs its
eigensolves on a ``concurrent.futures.ThreadPoolExecutor``; while the
tracer is installed that class is replaced by one whose ``submit`` runs
each task in a copy of the submitting context, so pool spans attach to the
enclosing ``spectral.sweep`` span.
"""

from __future__ import annotations

import collections
import concurrent.futures
import contextlib
import contextvars
import importlib
import time

import scipy.linalg

# (module, function) pairs whose calls become spans named "<module>.<function>"
TRACED = (
    ("spectral", "eigen_spectrum"), ("spectral", "build_matrix"), ("spectral", "sweep"),
    ("spectral", "find_exceptional_points"), ("spectral", "wavefunction"),
    ("spectral", "intensity"),
    ("mathieu", "characteristic_values"), ("mathieu", "antiperiodic_characteristic_values"),
    ("mathieu", "complex_mathieu_eps"),
    ("dyson", "hermitize"), ("dyson", "similarity_transform"),
    ("dyson", "reduce_pt5_three_param"),
    ("algebra", "multiply"), ("algebra", "build_hamiltonian"),
    ("e3", "e3_adjoint"), ("e3", "transform_h_tilde"), ("e3", "multiply"),
    ("cli", "main"),
)
PACKAGE_MODULES = ("euclidpt", "euclidpt.algebra", "euclidpt.dyson", "euclidpt.spectral",
                   "euclidpt.mathieu", "euclidpt.e3", "euclidpt.cli")
LAPACK = (("eigvals", "lapack.eigvals"), ("eig", "lapack.eig"))


class Span:
    __slots__ = ("name", "parent", "start", "end", "info")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.info = None


class _ContextPool(concurrent.futures.ThreadPoolExecutor):
    """Thread pool whose tasks run in a copy of the submitter's context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


class Tracer:
    def __init__(self):
        self.spans = []
        self._current = contextvars.ContextVar("perfbench_span", default=None)
        self._restore = []

    @contextlib.contextmanager
    def span(self, name):
        """A span the benchmark opens itself, around one job."""
        span = Span(name, self._current.get())
        self.spans.append(span)
        token = self._current.set(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._current.reset(token)

    def _wrap(self, name, fn, keep=None):
        current, spans = self._current, self.spans

        def traced(*args, **kwargs):
            span = Span(name, current.get())
            spans.append(span)
            token = current.set(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                current.reset(token)
            if keep is not None:
                span.info = keep(result)
            return result

        return traced

    def _patch(self, namespace, attr, value):
        self._restore.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def install(self):
        modules = [importlib.import_module(m) for m in PACKAGE_MODULES]
        # what a span keeps of its result: refinements, EPs found, matrix order
        keep = {"spectral.sweep": lambda res: res.refined_points,
                "spectral.find_exceptional_points": len,
                "spectral.eigen_spectrum": lambda res: len(res.eigenvalues)}
        for module_name, func in TRACED:
            name = f"{module_name}.{func}"
            original = getattr(importlib.import_module(f"euclidpt.{module_name}"), func)
            wrapper = self._wrap(name, original, keep.get(name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)
        for attr, name in LAPACK:
            self._patch(scipy.linalg, attr, self._wrap(name, getattr(scipy.linalg, attr)))
        self._patch(concurrent.futures, "ThreadPoolExecutor", _ContextPool)

    def uninstall(self):
        while self._restore:
            namespace, attr, value = self._restore.pop()
            setattr(namespace, attr, value)


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _blank():
    return {"calls": 0, "s": 0.0, "self_s": 0.0, "eigensolves": 0, "info": []}


def summarize(spans):
    """Per span name: calls, busy seconds, self seconds, LAPACK calls beneath, infos.

    Busy seconds add up the spans that have no ancestor of the same name;
    pool spans that run side by side each count in full.  Self time is a
    span's interval minus the union of its children's intervals.  LAPACK
    calls are also credited to each module (key "<module>") that has a
    span above them.
    """
    children = collections.defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append(span)
    stats = collections.defaultdict(_blank)
    for span in spans:
        entry = stats[span.name]
        entry["calls"] += 1
        ancestors = set()
        node = span.parent
        while node is not None:
            ancestors.add(node.name)
            node = node.parent
        if span.name not in ancestors:
            entry["s"] += span.end - span.start
        kids = [(max(c.start, span.start), min(c.end, span.end))
                for c in children[id(span)]]
        entry["self_s"] += (span.end - span.start) - _covered(kids)
        if span.info is not None:
            entry["info"].append(span.info)
        if span.name.startswith("lapack."):
            for owner in ancestors | {name.split(".")[0] for name in ancestors}:
                stats[owner]["eigensolves"] += 1
    return stats
