"""Span tracing from outside the program, for the traced per-layer run.

Spans are recorded around hexspec's functions at the site where the calling
module looks them up (e.g. ``hexspec.graph.hill_bands_first_n``), so the
program's files stay untouched.  Each span has an id, its parent's id (per
thread), a name and start/end times; counts are recorded at the same
boundaries.  Untimed runs never construct a Tracer, so they carry no wrappers.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.active = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        stack = self._local.__dict__.setdefault("stack", [])
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append((sid, parent, name, t0, t1))

    def count(self, name: str, amount: float = 1.0) -> None:
        if self.active:
            with self._lock:
                self.counts[name] += amount

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace owner.attr by a wrapper recording a span `name`; on_result
        (args, kwargs, result) is called for counts."""
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = orig(*args, **kwargs)
            if on_result is not None and self.active:
                on_result(args, kwargs, result)
            return result

        self.patch(owner, attr, wrapper)

    def uninstall(self) -> None:
        self.active = False
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds (duration minus
        the part of it covered by direct child spans)."""
        children = defaultdict(list)
        for sid, parent, _name, t0, t1 in self.spans:
            children[parent].append((t0, t1))
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for sid, _parent, name, t0, t1 in self.spans:
            covered, end = 0.0, t0
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, end), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    end = c1
            row = out[name]
            row["calls"] += 1
            row["s"] += t1 - t0
            row["self_s"] += (t1 - t0) - covered
        return dict(out)

    def dump(self) -> list[dict]:
        return [{"id": sid, "parent": parent, "name": name, "t0": t0, "t1": t1}
                for sid, parent, name, t0, t1 in sorted(self.spans)]


def install() -> Tracer:
    """Wrap the layer boundaries of an imported hexspec package."""
    from hexspec import cli, dynamics, graph, hill, intervals, jacobi, potentials, qlambda

    tr = Tracer()

    def on_potential(args, kwargs, result):
        tr.count("potentials.eval.calls")
        tr.count("potentials.eval.points", np.size(args[1]))

    def on_rational(args, kwargs, result):
        tr.count("jacobi.rational_spectrum.q3_sum", args[1] ** 3)

    def on_q(args, kwargs, result):
        tr.count("qlambda.q_spectrum.bands_out", len(result.bands))

    def on_butterfly(args, kwargs, result):
        tr.count("graph.butterfly.rows", len(result.rows))

    def on_le(args, kwargs, result):
        # theta-steps n*m summed over the doublings complexified_le made:
        # it starts at n0 = max(1024, max_n // 16), m0 = theta_samples and
        # doubles both until it stops at n_used
        config = args[3] if len(args) > 3 else kwargs.get("config")
        if config is None:
            config = dynamics.CocycleConfig(flux=args[1])
        n, m = max(1024, config.max_n // 16), config.theta_samples
        steps = n * m
        while n < result.n_used:
            n, m = 2 * n, 2 * m
            steps += n * m
        tr.count("dynamics.cocycle_steps", steps)
        tr.count("dynamics.not_converged", 0 if result.converged else 1)

    tr.wrap(potentials.PotentialSpec, "__call__", "potentials.eval", on_potential)
    tr.wrap(hill, "hill_bands", "hill.hill_bands")
    tr.wrap(graph, "hill_bands_first_n", "hill.hill_bands_first_n")
    tr.wrap(graph, "dirichlet_eigenvalues", "hill.dirichlet_eigenvalues")
    for mod in (graph, jacobi, dynamics):
        tr.wrap(mod, "rational_spectrum", "jacobi.rational_spectrum", on_rational)
    for mod in (graph, qlambda):
        tr.wrap(mod, "q_spectrum", "qlambda.q_spectrum", on_q)
    for mod in (cli, graph):
        tr.wrap(mod, "butterfly", "graph.butterfly", on_butterfly)
    tr.wrap(graph, "graph_spectrum", "graph.graph_spectrum")
    tr.wrap(dynamics, "complexified_le", "dynamics.complexified_le", on_le)
    tr.wrap(dynamics, "irrational_cover", "dynamics.irrational_cover")
    tr.wrap(intervals.BandList, "covers", "intervals.covers")
    tr.wrap(cli, "main", "cli.main")

    base = graph.BandInverter

    class TracedBandInverter(base):
        def __init__(self, *args, **kwargs):
            with tr.span("hill.band_inverter_build"):
                super().__init__(*args, **kwargs)

        def __call__(self, w):
            tr.count("hill.band_inverter_call.targets", np.size(w))
            with tr.span("hill.band_inverter_call"):
                return super().__call__(w)

    tr.patch(graph, "BandInverter", TracedBandInverter)
    tr.active = True
    return tr


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """The per-layer metrics that come from spans and counts."""
    s = tr.summary()
    get = lambda name, key: float(s.get(name, {}).get(key, 0.0))
    c = lambda name: float(tr.counts.get(name, 0.0))
    return {
        "hill.hill_bands.s": get("hill.hill_bands", "s"),
        "hill.hill_bands.calls": get("hill.hill_bands", "calls"),
        "hill.dirichlet_eigenvalues.s": get("hill.dirichlet_eigenvalues", "s"),
        "hill.band_inverter_build.s": get("hill.band_inverter_build", "s"),
        "hill.band_inverter_build.calls": get("hill.band_inverter_build", "calls"),
        "hill.band_inverter_call.s": get("hill.band_inverter_call", "s"),
        "hill.band_inverter_call.targets": c("hill.band_inverter_call.targets"),
        "potentials.eval.calls": c("potentials.eval.calls"),
        "potentials.eval.points": c("potentials.eval.points"),
        "jacobi.rational_spectrum.s": get("jacobi.rational_spectrum", "s"),
        "jacobi.rational_spectrum.calls": get("jacobi.rational_spectrum", "calls"),
        "jacobi.rational_spectrum.q3_sum": c("jacobi.rational_spectrum.q3_sum"),
        "qlambda.q_spectrum.s": get("qlambda.q_spectrum", "s"),
        "qlambda.q_spectrum.bands_out": c("qlambda.q_spectrum.bands_out"),
        "graph.butterfly.self_s": get("graph.butterfly", "self_s"),
        "graph.butterfly.rows": c("graph.butterfly.rows"),
        "graph.graph_spectrum.self_s": get("graph.graph_spectrum", "self_s"),
        "graph.graph_spectrum.calls": get("graph.graph_spectrum", "calls"),
        "dynamics.complexified_le.s": get("dynamics.complexified_le", "s"),
        "dynamics.complexified_le.calls": get("dynamics.complexified_le", "calls"),
        "dynamics.cocycle_steps": c("dynamics.cocycle_steps"),
        "dynamics.not_converged": c("dynamics.not_converged"),
        "dynamics.irrational_cover.self_s": get("dynamics.irrational_cover", "self_s"),
        "intervals.covers.s": get("intervals.covers", "s"),
        "cli.main.self_s": get("cli.main", "self_s"),
    }
