"""Spans and counts around the library's public functions, from outside the library.

:meth:`Tracer.install` replaces public names in the library modules with
wrappers that open a span for each call, so calls made inside the library go
through the wrappers too.  Every span's self time (its duration minus the part
its child spans cover) and call count are summed exactly, per key.  The spans
themselves (name, start, end, parent, op id) are kept in memory, up to
``SPAN_CAP`` of them, and written out by :meth:`Tracer.write`.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import defaultdict
from functools import wraps

import numpy as np

from workloads import DIMS, cli, curvature, jets, polytope, potentials, scalarflat
from torickahler import asymptotics

CLI_SUBCOMMANDS = ("verify-catalog", "derive", "curvature", "legendre", "decay", "admissible")
#: Spans kept for the trace file; totals and self times cover every span.
SPAN_CAP = 100_000


class Tracer:
    def __init__(self):
        self.names: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.dropped = 0
        self.stack: list[list] = []  # [stored index, child time]
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.op_id = -1
        self._restore: list[tuple] = []

    def call(self, key: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``key``."""
        parent = self.stack[-1][0] if self.stack else -1
        start = time.perf_counter()
        if len(self.span_start) < SPAN_CAP:
            index = len(self.span_start)
            self.span_name.append(self.names.setdefault(key, len(self.names)))
            self.span_start.append(start)
            self.span_end.append(start)
            self.span_parent.append(parent)
            self.span_op.append(self.op_id)
        else:
            index = -1
            self.dropped += 1
        frame = [index, 0.0]
        self.stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            duration = end - start
            self.self_time[key] += duration - frame[1]
            self.calls[key] += 1
            if self.stack:
                self.stack[-1][1] += duration
            if index >= 0:
                self.span_end[index] = end

    def _wrap(self, module, attr: str, key) -> None:
        original = getattr(module, attr)
        key_of = key if callable(key) else (lambda *a, **k: key)

        @wraps(original)
        def traced(*args, **kwargs):
            return self.call(key_of(*args, **kwargs), original, *args, **kwargs)

        setattr(module, attr, traced)
        self._restore.append((module, attr, original))

    def _wrap_abreu(self) -> None:
        """Span each Abreu call by dimension and count the g calls it makes."""
        original = curvature.scalar_curvature_abreu

        @wraps(original)
        def traced(g, x, *args, **kwargs):
            n = len(x)
            points = []

            def traced_g(point):
                points.append(np.asarray(point, dtype=float).tobytes())
                return self.call("potentials.g", g, point)

            try:
                return self.call(f"curvature.abreu.n{n}", original, traced_g, x, *args, **kwargs)
            finally:
                self.counts[f"g_calls.n{n}"] += len(points)
                self.counts[f"g_distinct.n{n}"] += len(set(points))

        curvature.scalar_curvature_abreu = traced
        self._restore.append((curvature, "scalar_curvature_abreu", original))

    def install(self) -> None:
        self._wrap(jets, "arith", "jets.arith")
        self._wrap(potentials, "f2_jet", "potentials.f2")
        self._wrap(curvature, "f2_jet", "potentials.f2")
        self._wrap(curvature, "scalar_curvature_reduced", "curvature.reduced")
        self._wrap(curvature, "extremal_check", "curvature.extremal")
        self._wrap(potentials, "admissibility", "potentials.admissibility")
        self._wrap(potentials, "kahler_to_t_potential", "potentials.legendre_inv")
        self._wrap(potentials, "local_t_potential", "potentials.cheb_setup")
        self._wrap(scalarflat, "reconstruct_F", "potentials.quad_F")
        self._wrap(curvature, "hessian_general", "curvature.hessian_general")
        self._wrap(polytope, "canonical_potential", "polytope.canonical")
        self._wrap(curvature, "hessian_t_family", "curvature.hessian_t_family")
        self._wrap(asymptotics, "hessian_t_family", "curvature.hessian_t_family")
        self._wrap(scalarflat, "solve_boundary_coefficients", "scalarflat.solve")
        self._wrap(scalarflat, "delta_check", "scalarflat.delta_check")
        self._wrap(asymptotics, "decay_scan", "asymptotics.decay_scan")
        self._wrap(asymptotics, "chart_deviation", "asymptotics.chart_deviation")
        self._wrap(cli, "emit", "cli.emit")
        self._wrap(cli, "dispatch", lambda argv: f"cli.{argv[0] if argv else 'none'}")
        self._wrap_abreu()

    def uninstall(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def layer_metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: totals per measured op, or per call where named so."""
        s, calls = self.self_time, self.calls

        def per_call(key: str, total: float) -> float:
            return total / calls[key] if calls[key] else 0.0

        m = {
            "jets.arith_calls": (calls["jets.arith"] / ops, "calls/op"),
            "jets.arith_s": (s["jets.arith"] / ops, "s/op"),
            "potentials.f2_calls": (calls["potentials.f2"] / ops, "calls/op"),
            "potentials.f2_s": (s["potentials.f2"] / ops, "s/op"),
            "curvature.reduced_s": (s["curvature.reduced"] / ops, "s/op"),
            "curvature.extremal_s": (s["curvature.extremal"] / ops, "s/op"),
            "potentials.admissibility_s": (s["potentials.admissibility"] / ops, "s/op"),
            "potentials.legendre_inv_s": (s["potentials.legendre_inv"] / ops, "s/op"),
            "potentials.g_evals": (calls["potentials.g"] / ops, "calls/op"),
            "potentials.g_s": (s["potentials.g"] / ops, "s/op"),
            "curvature.hessian_general_calls": (calls["curvature.hessian_general"] / ops, "calls/op"),
            "polytope.canonical_calls": (calls["polytope.canonical"] / ops, "calls/op"),
            "polytope.canonical_s": (s["polytope.canonical"] / ops, "s/op"),
            "potentials.cheb_setup_s": (s["potentials.cheb_setup"] / ops, "s/op"),
            "potentials.quad_F_s": (s["potentials.quad_F"] / ops, "s/op"),
            "curvature.hessian_t_family_s": (s["curvature.hessian_t_family"] / ops, "s/op"),
            "scalarflat.solve_s": (s["scalarflat.solve"] / ops, "s/op"),
            "scalarflat.delta_check_s": (s["scalarflat.delta_check"] / ops, "s/op"),
            "asymptotics.decay_scan_s": (s["asymptotics.decay_scan"] / ops, "s/op"),
            "asymptotics.chart_deviation_calls": (calls["asymptotics.chart_deviation"] / ops, "calls/op"),
            "cli.emit_s": (s["cli.emit"] / ops, "s/op"),
        }
        g_calls = sum(self.counts[f"g_calls.n{n}"] for n in DIMS)
        g_distinct = sum(self.counts[f"g_distinct.n{n}"] for n in DIMS)
        m["potentials.g_distinct_ratio"] = (g_distinct / g_calls if g_calls else 0.0, "ratio")
        for n in DIMS:
            key = f"curvature.abreu.n{n}"
            m[f"curvature.abreu_s.n{n}"] = (per_call(key, s[key]), "s/call")
            m[f"potentials.g_evals.n{n}"] = (per_call(key, self.counts[f"g_calls.n{n}"]), "calls/call")
        for sub in CLI_SUBCOMMANDS:
            key = f"cli.{sub}"
            m[f"cli.{sub.replace('-', '_')}_s"] = (per_call(key, s[key]), "s/call")
        return m

    def write(self, path) -> None:
        names = sorted(self.names, key=self.names.get)
        payload = {
            "names": names,
            "columns": ["name", "start", "end", "parent", "op"],
            "spans": [
                list(row)
                for row in zip(self.span_name, self.span_start, self.span_end, self.span_parent, self.span_op)
            ],
            "dropped_spans": self.dropped,
            "self_time_s": dict(self.self_time),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)
