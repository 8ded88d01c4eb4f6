"""Span and counter wrappers installed on dvrcert from outside the package.

A layer is the set of calls into one public dvrcert function (two for
`groups.reduction`).  Its span times every call; its self time is that
time minus the time of the layer spans opened inside it, and its
inclusive time counts nested calls of the same layer once.  Only the
layer boundaries are wrapped: wrapping every public helper (`act`,
`monomials`, ...) would move their time out of the stages that call them.

The package re-exports its functions (`from .polys import invariant_basis`
in `certify`, `cli` and `dvrcert/__init__`), so a wrapper is bound in
every dvrcert module that holds the original function, not only where it
is defined.  Modules are looked up in `sys.modules`: the attribute
`dvrcert.certify` is the function `certify`, not the module.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict


def _fundamental_label(args, kwargs) -> str:
    ring = kwargs["ring"] if "ring" in kwargs else args[1]
    return f"certify.fundamental_{ring}"  # ring is "K" or "k"


# (defining module, function) -> layer name, or a function of the call's
# arguments that returns it
LAYERS = {
    ("dvrcert.certify", "h1_dimension"): "certify.h1",
    ("dvrcert.certify", "fundamental_invariants"): _fundamental_label,
    ("dvrcert.certify", "graded_isomorphism_check"): "certify.graded",
    ("dvrcert.certify", "lift_fundamentals"): "certify.lifts",
    ("dvrcert.polys", "invariant_basis"): "polys.invariant_basis",
    ("dvrcert.polys", "action_matrix"): "polys.action_matrix",
    ("dvrcert.polys", "molien_series"): "polys.molien",
    ("dvrcert.polys", "reynolds"): "polys.reynolds",
    ("dvrcert.linalg", "kernel_over_field"): "linalg.kernel",
    ("dvrcert.linalg", "rank_over_field"): "linalg.rank",
    ("dvrcert.linalg", "det"): "linalg.det",
    ("dvrcert.groups", "generate_group"): "groups.closure",
    ("dvrcert.groups", "classify_reflections"): "groups.reflections",
    ("dvrcert.groups", "reduction_map"): "groups.reduction",
    ("dvrcert.groups", "verify_reduced_reflection_generation"): "groups.reduction",
    ("dvrcert.refbasis", "diagonalizing_basis"): "refbasis.bases",
    ("dvrcert.cli", "parse_jobspec"): "cli.parse",
    ("dvrcert.cli", "render_json"): "cli.render",
    ("dvrcert.cli", "verify_report"): "cli.verify",
}

# every span name, in the order of LAYERS; the callable label names two
SPAN_NAMES = tuple(dict.fromkeys(
    name
    for label in LAYERS.values()
    for name in ((label,) if isinstance(label, str)
                 else ("certify.fundamental_K", "certify.fundamental_k"))
))


# What a finished call adds to the size counters, by layer.
def _on_parse(tracer, args, kwargs, result):
    tracer.job += 1  # every job starts with parse_jobspec


def _on_kernel(tracer, args, kwargs, result):
    tracer.counts["linalg.kernel_cells"] += args[0].rows * args[0].cols


def _on_closure(tracer, args, kwargs, result):
    tracer.counts["groups.elements"] += result.order


def _on_invariant_basis(tracer, args, kwargs, result):
    group, degree, ring = args
    tracer.distinct["polys.invariant_basis"].add((tracer.job, ring, degree))


def _on_action_matrix(tracer, args, kwargs, result):
    matrix, _, degree = args
    tracer.distinct["polys.action_matrix"].add((tracer.job, matrix, degree))


def _on_render(tracer, args, kwargs, result):
    tracer.counts["cli.report_bytes"] += len(result.encode("utf-8"))


HOOKS = {
    "cli.parse": _on_parse,
    "linalg.kernel": _on_kernel,
    "groups.closure": _on_closure,
    "polys.invariant_basis": _on_invariant_basis,
    "polys.action_matrix": _on_action_matrix,
    "cli.render": _on_render,
}


class SpanTracer:
    """Per-layer self and inclusive time, call counts and size counters."""

    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.incl_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.distinct: defaultdict[str, set] = defaultdict(set)
        self.job = 0
        self._child_s: list[float] = []  # per open span: time its child spans took
        self._open: Counter = Counter()  # open spans per layer

    def wrap(self, label, fn):
        hook = None if callable(label) else HOOKS.get(label)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            name = label(args, kwargs) if callable(label) else label
            self._child_s.append(0.0)
            self._open[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.self_s[name] += elapsed - self._child_s.pop()
                self._open[name] -= 1
                if not self._open[name]:
                    self.incl_s[name] += elapsed
                self.calls[name] += 1
                if self._child_s:
                    self._child_s[-1] += elapsed
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return span

    def metrics(self) -> dict[str, float]:
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}_s"] = self.self_s[name]
            out[f"{name}_incl_s"] = self.incl_s[name]
        for name in ("certify.h1", "polys.invariant_basis", "polys.action_matrix", "linalg.kernel"):
            out[f"{name}_calls"] = self.calls[name]
        for name in ("polys.invariant_basis", "polys.action_matrix"):
            calls = self.calls[name]
            out[f"{name}_distinct_ratio"] = len(self.distinct[name]) / calls if calls else 0.0
        out["refbasis.bases"] = self.calls["refbasis.bases"]
        out.update(
            (name, self.counts[name])
            for name in ("linalg.kernel_cells", "groups.elements", "cli.report_bytes")
        )
        return out


def _rebind(originals_to_wrappers: dict[int, tuple]):
    """Bind each wrapper wherever a dvrcert module holds its original; returns an undo."""
    done = []
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "dvrcert"]
    for module in modules:
        for attr, value in list(vars(module).items()):
            pair = originals_to_wrappers.get(id(value))
            if pair is not None and pair[0] is value:
                setattr(module, attr, pair[1])
                done.append((module, attr, value))

    def undo():
        for module, attr, value in done:
            setattr(module, attr, value)

    return undo


def install_spans(tracer: SpanTracer):
    """Wrap every layer function in a span of the tracer; returns an undo."""
    pairs = {}
    for (module, func), label in LAYERS.items():
        original = getattr(sys.modules[module], func)
        pairs[id(original)] = (original, tracer.wrap(label, original))
    return _rebind(pairs)


def install_ratfunc_counters(counts: Counter):
    """Count RatFunc.make and fp_gcd calls; returns an undo.

    These run millions of times on ratfunc jobs, so they are counted in a
    pass of their own, without spans.
    """
    ratfunc = sys.modules["dvrcert.ratfunc"]
    make = ratfunc.RatFunc.__dict__["make"]
    gcd = ratfunc.fp_gcd

    def counted_make(num, den):
        counts["ratfunc.make_calls"] += 1
        return make.__func__(num, den)

    def counted_gcd(a, b):
        counts["ratfunc.gcd_calls"] += 1
        return gcd(a, b)

    ratfunc.RatFunc.make = staticmethod(counted_make)
    undo_gcd = _rebind({id(gcd): (gcd, counted_gcd)})

    def undo():
        ratfunc.RatFunc.make = make
        undo_gcd()

    return undo
