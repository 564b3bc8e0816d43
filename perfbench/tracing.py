"""Per-layer counters and self times for a traced benchmark run.

Tracing wraps riccati3d's public functions and field types from the outside;
the package itself is not edited.  Every wrapped call is a span charged to
one layer.  A span's self time is its duration minus the durations of the
spans it directly contains, so a stencil nested in a field evaluation, a
``rot B`` inside a stencil, and an ``A`` evaluation inside a ``B`` integrand
are each charged to their own layer.

The verify suites make millions of field calls, so spans are aggregated in
place (a count and two sums per layer) instead of being kept in memory.
Each thread keeps its own span stack.

A wrapper has to be installed wherever callers look the name up: ``from
.fields import grad`` in ``riccati``, ``verify`` and ``symmetry`` binds a
separate module attribute, so every ``riccati3d`` module namespace holding
the original object is rebound.
"""

from __future__ import annotations

import math
import sys
import threading
from time import perf_counter

from riccati3d import biquat, fields, riccati, solutions, symmetry


class Layer:
    """Aggregated spans of one layer: call count, self and total seconds."""

    __slots__ = ("calls", "self_s", "total_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0


_tls = threading.local()


def _stack() -> list:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
    return stack


def span(layer: Layer, fn):
    """Wrap fn so that each call is a span charged to layer."""
    if getattr(fn, "_perfbench_layer", None) is not None:
        return fn  # already traced through another entry point

    def traced(*args, **kwargs):
        stack = _stack()
        stack.append(0.0)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            layer.calls += 1
            layer.self_s += elapsed - stack.pop()
            layer.total_s += elapsed
            if stack:
                stack[-1] += elapsed

    traced._perfbench_layer = layer
    traced.__wrapped__ = fn
    return traced


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "riccati3d" or name.startswith("riccati3d."))]


def _rebind(original, replacement) -> None:
    """Point every riccati3d module attribute bound to original at replacement."""
    for mod in _package_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


STENCILS = ("grad", "div", "rot", "laplacian", "dirac_left", "dirac_right")
RESIDUALS = ("riccati_residual", "schrodinger_residual", "factorization_residual",
             "vekua_residual", "euler_residual", "w_equation_residual", "picard_lhs")
CATALOG_BUILDERS = ("rotational", "rotational_riccati", "conical", "conical_riccati",
                    "harmonic_seed", "catalog_entry")


class TracedPotential(fields.VectorField):
    """Stand-in for an operator B result that times its calls.

    The first successful call includes the lazy volume-grid build and is
    timed as the build; later calls are evaluations.  Nothing in riccati3d
    type-checks the potential class, so a VectorField subclass is a safe
    proxy.
    """

    def __init__(self, inner, tracer: "Tracer"):
        super().__init__(inner.fn, inner.domain)
        self._inner = inner
        self._tracer = tracer
        self._build = span(tracer.layer("fields.B.build"), inner.__call__)
        self._eval = span(tracer.layer("fields.B.eval"), inner.__call__)
        self._built = False

    def __call__(self, p):
        if self._built:
            return self._eval(p)
        out = self._build(p)
        self._built = True
        self._tracer.b_cells += math.prod(self._inner.cells)
        return out


class Tracer:
    """Installs the wrappers once per process and reads the counters back."""

    def __init__(self):
        self.layers = {}
        self.b_cells = 0

    def layer(self, name: str) -> Layer:
        if name not in self.layers:
            self.layers[name] = Layer()
        return self.layers[name]

    def install(self) -> None:
        for cls in (fields.ScalarField, fields.VectorField, fields.QuaternionField):
            cls.__call__ = span(self.layer("fields.field_eval"), cls.__call__)

        for name in STENCILS:
            original = getattr(fields, name)
            wrapped = span(self.layer(f"fields.{name}"), original)
            _rebind(original, wrapped)
            # diff() dispatches through this table, not through module names
            fields._DIFF_KINDS[name] = wrapped

        self._wrap_factory(fields.operator_A, self._trace_A)
        self._wrap_factory(fields.operator_B, self._trace_B)
        _rebind(biquat.mul, span(self.layer("biquat.mul"), biquat.mul))
        residual = self.layer("riccati.residual")
        for name in RESIDUALS:
            original = getattr(riccati, name)
            _rebind(original, span(residual, original))
        _rebind(symmetry.group_act, span(self.layer("symmetry.group_act"),
                                         symmetry.group_act))
        for name in ("transport_solution", "pushforward_solution"):
            self._wrap_factory(getattr(symmetry, name), self._trace_transport)
        for name in CATALOG_BUILDERS:
            self._wrap_factory(getattr(solutions, name), self._trace_catalog)

    @staticmethod
    def _wrap_factory(original, post) -> None:
        def factory(*args, **kwargs):
            return post(original(*args, **kwargs))
        factory.__wrapped__ = original
        _rebind(original, factory)

    def _trace_A(self, field):
        field.fn = span(self.layer("fields.A"), field.fn)
        return field

    def _trace_B(self, potential):
        return TracedPotential(potential, self)

    def _trace_transport(self, field):
        field.fn = span(self.layer("symmetry.transport"), field.fn)
        return field

    def _trace_catalog(self, built):
        """Trace the closed-form evaluators of a catalog entry or constructor."""
        if isinstance(built, solutions.CatalogEntry):
            targets = [built.instance.Q, built.instance.q, built.psi]
        elif isinstance(built, solutions.HarmonicSeed):
            targets = [built.psi]
        elif isinstance(built, tuple):  # (RiccatiInstance, psi)
            targets = [built[0].Q, built[0].q, built[1]]
        else:  # RiccatiInstance
            targets = [built.Q, built.q]
        layer = self.layer("solutions.eval")
        for f in targets:
            if f is not None:
                f.fn = span(layer, f.fn)
        return built

    def metrics(self) -> dict:
        """Counters and seconds by metric name (see BENCHMARK.json)."""
        def calls(name):
            return self.layer(name).calls

        def self_s(name):
            return self.layer(name).self_s

        out = {
            "fields.B.builds": calls("fields.B.build"),
            "fields.B.cells": self.b_cells,
            "fields.B.build_s": self.layer("fields.B.build").total_s,
            "fields.B.evals": calls("fields.B.eval"),
            "fields.B.eval_s": self_s("fields.B.eval"),
            "fields.A.evals": calls("fields.A"),
            "fields.A.self_s": self_s("fields.A"),
            "fields.stencil.calls": sum(calls(f"fields.{n}") for n in STENCILS),
            "fields.stencil.self_s": sum(self_s(f"fields.{n}") for n in STENCILS),
            "fields.field_evals": calls("fields.field_eval"),
            "fields.field_eval.self_s": self_s("fields.field_eval"),
            "biquat.mul.calls": calls("biquat.mul"),
            "biquat.mul.self_s": self_s("biquat.mul"),
            "riccati.residual.calls": calls("riccati.residual"),
            "riccati.residual.self_s": self_s("riccati.residual"),
            "symmetry.group_act.calls": calls("symmetry.group_act"),
            "symmetry.group_act.self_s": self_s("symmetry.group_act"),
            "symmetry.transport.evals": calls("symmetry.transport"),
            "symmetry.transport.self_s": self_s("symmetry.transport"),
            "solutions.eval.calls": calls("solutions.eval"),
            "solutions.eval.self_s": self_s("solutions.eval"),
        }
        for n in STENCILS:
            out[f"fields.{n}.calls"] = calls(f"fields.{n}")
        return out
