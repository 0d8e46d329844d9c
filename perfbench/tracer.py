"""Spans around tiltrate's public functions, recorded from outside the package.

``Tracer.install`` replaces each public function of the layer modules with a
timing wrapper under every name that refers to it: the home module, every
module that imported it with ``from ... import``, and the package namespace.
The callables handed to ``invert_monotone`` and ``adaptive_simpson`` are
wrapped too, so their evaluations are counted.  Spans stay in memory; the
benchmark summarises them once the traced pass is over.

A span is ``(name, start, end, parent, op, k, points, evals)``: ``parent``
indexes the enclosing span (-1 at the top), ``op`` is the benchmark's
operation id, ``k`` the table size of the call, ``points`` the grid length
(or Blahut-Arimoto iterations), and ``evals`` the counted evaluations.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = (
    "tilting", "solvers", "ratedistortion", "capacity", "multiconstraint",
    "chain", "oracles", "config", "cli",
)
COUNTED = {"solvers.invert_monotone", "solvers.adaptive_simpson"}
SIZED = {
    "ratedistortion.distortion_at_force", "ratedistortion.rd_curve",
    "ratedistortion.sandwich_bounds", "chain.protocol_work_bounds",
}
GRIDDED = {"ratedistortion.rd_curve", "ratedistortion.sandwich_bounds", "chain.protocol_work_bounds"}
KS = (2, 64, 512)

NAME, START, END, PARENT, OP, K, POINTS, EVALS = range(8)


def _table_size(obj) -> int:
    if hasattr(obj, "num_source_letters"):
        return int(obj.num_source_letters)
    return len(obj.arrays)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "tiltrate" or name.startswith("tiltrate."))]
        for layer in LAYERS:
            home = sys.modules.get(f"tiltrate.{layer}")
            if home is None:
                continue
            for attr in getattr(home, "__all__", ()):
                fn = getattr(home, attr, None)
                if not inspect.isfunction(fn) or fn.__module__ != home.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is fn:
                            self._undo.append((module, name, fn))
                            setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._undo):
            setattr(module, name, fn)
        self._undo.clear()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        counted, sized, gridded = name in COUNTED, name in SIZED, name in GRIDDED
        iterations = name == "oracles.blahut_arimoto"
        tracer = self

        def wrapper(*args, **kwargs):
            # A span is stored as a tuple of plain values once it ends: the
            # garbage collector stops tracking those, so a long trace does
            # not slow every collection the package itself triggers.
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            k = _table_size(args[0]) if sized else 0
            points = len(args[1]) if gridded else 0
            evals = [0]
            if counted and not getattr(args[0], "_counted", False):
                args = (_counter(args[0], evals),) + args[1:]
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.op, k, points, evals[0])
            if iterations:
                spans[index] = (name, start, end, parent, tracer.op, k, result.iterations, evals[0])
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def _counter(f, evals):
    def counted(*args):
        evals[0] += 1
        return f(*args)

    counted._counted = True
    return counted


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    return [rec[END] - rec[START] - c for rec, c in zip(spans, child)]


def aggregate(spans) -> dict:
    """Per-name totals: calls, busy (outermost) and self time, evaluations, points, by k."""
    agg: dict = defaultdict(float)
    selfs = self_times(spans)
    for idx, rec in enumerate(spans):
        name = rec[NAME]
        dur = rec[END] - rec[START]
        layer = name.split(".", 1)[0]
        agg[f"{layer}.calls"] += 1
        agg[f"{layer}.self_s"] += selfs[idx]
        agg[f"{name}.self_s"] += selfs[idx]
        outer = rec[PARENT] < 0 or spans[rec[PARENT]][NAME] != name
        if outer:
            agg[f"{name}.calls"] += 1
            agg[f"{name}.busy_s"] += dur
            agg[f"{name}.evals"] += rec[EVALS]
            agg[f"{name}.points"] += rec[POINTS]
            if rec[K]:
                agg[f"{name}.k{rec[K]}.calls"] += 1
                agg[f"{name}.k{rec[K]}.busy_s"] += dur
                agg[f"{name}.k{rec[K]}.points"] += rec[POINTS]
    return dict(agg)


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(agg: dict) -> dict:
    """The per-layer metrics named in BENCHMARK.json that come from spans."""
    g = lambda key: agg.get(key, 0.0)  # noqa: E731
    out = {"tilting.tilt.calls": (g("tilting.tilt.calls"), "count")}
    for k in KS:
        key = f"ratedistortion.distortion_at_force.k{k}"
        out[f"ratedistortion.distortion_at_force.us_per_call.k{k}"] = (
            _ratio(g(f"{key}.busy_s"), g(f"{key}.calls"), 1e6), "us")
    for name in ("solvers.invert_monotone", "solvers.adaptive_simpson"):
        out[f"{name}.calls"] = (g(f"{name}.calls"), "count")
        out[f"{name}.evals_per_call"] = (_ratio(g(f"{name}.evals"), g(f"{name}.calls")), "count")
        out[f"{name}.us_per_eval"] = (_ratio(g(f"{name}.busy_s"), g(f"{name}.evals"), 1e6), "us")
        out[f"{name}.self_s"] = (g(f"{name}.self_s"), "s")
    for name in sorted(GRIDDED):
        for k in KS:
            key = f"{name}.k{k}"
            out[f"{name}.us_per_point.k{k}"] = (_ratio(g(f"{key}.busy_s"), g(f"{key}.points"), 1e6), "us")
    for name in (
        "ratedistortion.force_at_distortion", "ratedistortion.equal_force_allocation",
        "ratedistortion.rate_mmse_integral", "ratedistortion.observable_sweep",
        "capacity.capacity_point", "multiconstraint.rate_two_distortions",
        "chain.equilibrium_force", "chain.entropy_at_energy", "chain.quasistatic_work",
        "oracles.blahut_arimoto", "oracles.exact_ld_probability",
        "oracles.legendre_grid_max", "oracles.brute_allocation_min",
        "config.load_config", "cli.main",
    ):
        out[f"{name}.busy_s"] = (g(f"{name}.busy_s"), "s")
    out["multiconstraint.rate_two_distortions.calls"] = (g("multiconstraint.rate_two_distortions.calls"), "count")
    out["oracles.blahut_arimoto.iterations"] = (g("oracles.blahut_arimoto.points"), "count")
    for layer in LAYERS:
        out[f"{layer}.calls"] = (g(f"{layer}.calls"), "count")
        out[f"{layer}.self_s"] = (g(f"{layer}.self_s"), "s")
    return out
