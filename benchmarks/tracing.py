"""In-memory spans around dynkindex's public functions, installed from outside.

``Tracer.install`` wraps each traced function and rebinds every reference to
it: the module attribute, the same name in each dynkindex module that
imported it by name (``from .rootsystems import build``), the entries of
``verify.CHECKS``, and the ``RootSystem`` methods and property on the class.
A span records calls, total time ``s`` (outermost activations only, so
re-entry is not counted twice) and self time ``self_s`` (duration minus the
time covered by traced callees).  Nothing is written until the run ends.
"""

from __future__ import annotations

import functools
import re
import sys
from time import perf_counter

from dynkindex import cli, identities, orbits, reps, rootsystems, sl2, verify

VERIFY_CHECKS = (
    "structure", "unfolding", "routes", "principal", "identities",
    "monotonicity", "integrality", "minimal-orbit", "difference-bounds", "mckay",
)


def _assign(owner, attr: str, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class Span:
    __slots__ = ("calls", "s", "self_s", "active")

    def __init__(self) -> None:
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.active = 0


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, Span] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[list[float]] = []  # child time of each open span
        self._undo: list[tuple[object, str, object]] = []

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, fn, after=None):
        """fn timed as span name; after(result, args) records counts."""
        span = self.spans.setdefault(name, Span())
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            span.active += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                span.active -= 1
                span.calls += 1
                span.self_s += duration - children[0]
                if not span.active:
                    span.s += duration
                if stack:
                    stack[-1][0] += duration
            if after is not None:
                after(result, args)
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        previous = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        self._undo.append((owner, attr, previous))
        _assign(owner, attr, value)

    def patch_function(self, module, attr: str, name: str, after=None) -> None:
        original = getattr(module, attr)
        traced = self.wrap(name, original, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "dynkindex" and not mod_name.startswith("dynkindex."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, traced)

    def patch_method(self, cls, attr: str, name: str, after=None) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, property):
            traced = property(self.wrap(name, original.fget, after))
        else:
            traced = self.wrap(name, original, after)
        self._set(cls, attr, traced)

    def install(self) -> None:
        count = self.count
        rs_cls = rootsystems.RootSystem
        self.patch_method(
            rs_cls, "__init__", "rootsystems.construct",
            lambda _, args: count("rootsystems.roots_built", len(args[0].positive_roots)),
        )
        self.patch_method(rs_cls, "fundamental_weights", "rootsystems.fundamental_weights")
        self.patch_method(rs_cls, "weight_form", "rootsystems.weight_form")
        self.patch_method(rs_cls, "form", "rootsystems.form")
        self.patch_function(rootsystems, "build", "rootsystems.build")
        for attr in ("weyl_dimension", "dynkin_index", "simplest_embedding_index"):
            self.patch_function(reps, attr, f"reps.{attr}")
        self.patch_function(
            sl2, "branch_adjoint", "sl2.branch_adjoint",
            lambda result, _: count("sl2.branch_adjoint.components", len(result)),
        )
        for attr in ("classical_index", "principal_index", "principal_minus_subregular"):
            self.patch_function(sl2, attr, f"sl2.{attr}")
        self.patch_function(orbits, "build_poset", "orbits.build_poset", self._count_poset)
        self.patch_function(orbits, "comparable_pairs_strict", "orbits.comparable_pairs_strict")
        self.patch_function(
            identities, "sweep", "identities.sweep",
            lambda result, _: count("identities.instances", len(result)),
        )
        for check in VERIFY_CHECKS:
            self._set(verify.CHECKS, check, self.wrap(
                f"verify.{check}", verify.CHECKS[check], self._counter_for_check(check)
            ))
        self.patch_function(cli, "main", "cli.main")

    def uninstall(self) -> None:
        while self._undo:
            _assign(*self._undo.pop())

    def _count_poset(self, poset, _) -> None:
        self.count("orbits.poset_nodes", len(poset.nodes))
        self.count("orbits.poset_covers", len(poset.covers))

    def _counter_for_check(self, check: str):
        def after(result, _):
            match = re.match(r"\d+", result.detail)
            self.count(f"verify.{check}.cases", int(match.group()) if match else 0)

        return after

    def span_violations(self) -> list[str]:
        """Spans whose self time exceeds their total time."""
        return [
            name for name, span in self.spans.items()
            if span.self_s > span.s * (1 + 1e-9) + 1e-9
        ]


# Per-layer metrics: the reported fields of each span, then the counters.
SPAN_FIELDS = (
    ("rootsystems.construct", ("calls", "s")),
    ("rootsystems.build", ("calls",)),
    ("rootsystems.fundamental_weights", ("s",)),
    ("rootsystems.weight_form", ("calls", "s", "self_s")),
    ("rootsystems.form", ("calls", "s", "self_s")),
    ("reps.weyl_dimension", ("calls", "s", "self_s")),
    ("reps.dynkin_index", ("self_s",)),
    ("reps.simplest_embedding_index", ("s",)),
    ("sl2.branch_adjoint", ("calls", "s")),
    ("sl2.classical_index", ("calls", "s", "self_s")),
    ("sl2.principal_index", ("self_s",)),
    ("sl2.principal_minus_subregular", ("self_s",)),
    ("orbits.build_poset", ("calls", "self_s")),
    ("orbits.comparable_pairs_strict", ("s",)),
    ("identities.sweep", ("calls", "s")),
    *((f"verify.{check}", ("s",)) for check in VERIFY_CHECKS),
    ("cli.main", ("calls", "self_s")),
)
COUNTERS = (
    "rootsystems.roots_built",
    "sl2.branch_adjoint.components",
    "orbits.poset_nodes",
    "orbits.poset_covers",
    "identities.instances",
    *(f"verify.{check}.cases" for check in VERIFY_CHECKS),
)


def layer_metrics(tracer: Tracer) -> dict[str, dict]:
    """Every per-layer metric, by name, with its value and unit."""
    metrics = {}
    for name, fields in SPAN_FIELDS:
        span = tracer.spans.get(name, Span())
        for field in fields:
            unit = "count" if field == "calls" else "s"
            metrics[f"{name}.{field}"] = {"value": getattr(span, field), "unit": unit}
    for name in COUNTERS:
        metrics[name] = {"value": tracer.counts.get(name, 0), "unit": "count"}
    return metrics
