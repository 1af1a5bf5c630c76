"""Span recording around the public layer calls of mvspde, from outside the package.

A span is (name, start, end, parent).  Spans live in memory as
per-name aggregates: call count, total time and self time, where self time
is the span's duration minus the time covered by its direct children.
Counters (variates drawn, streams opened, steps advanced) are recorded at
the same boundaries.

The wrappers replace module attributes and class methods; they never touch
arguments or results, so traced runs produce the same bytes as untraced
ones (the self-test checks this).  Spans other than the root spans
(``study``, ``persist``, ``load``) are recorded only inside ``study``, so
coefficient calls made by the CLI's assumption report do not count.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import time

ROOT_SPANS = ("study", "persist", "load")


class Tracer:
    def __init__(self):
        self.stack = []      # open spans: [name, start_ns, child_ns]
        self.totals = {}     # name -> [calls, total_ns, self_ns]
        self.counters = {}
        self.marks = {}      # first-event timestamps, time.monotonic() seconds

    def count(self, name: str, n: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + int(n)

    def wrap(self, name: str, fn, counter=None):
        """``fn`` timed as span ``name``; ``counter(bound_args, result)`` adds counts."""
        sig = inspect.signature(fn) if counter is not None else None
        is_root = name in ROOT_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not is_root and not self.stack:
                return fn(*args, **kwargs)
            frame = [name, time.perf_counter_ns(), 0]
            self.stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter_ns() - frame[1]
                self.stack.pop()
                if self.stack:
                    self.stack[-1][2] += dur
                agg = self.totals.setdefault(name, [0, 0, 0])
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[2]
            if counter is not None:
                for key, n in counter(sig.bind(*args, **kwargs).arguments, out).items():
                    self.count(key, n)
            return out

        return traced

    def report(self) -> dict:
        return {
            "spans": {k: {"calls": c, "total_ns": t, "self_ns": s}
                      for k, (c, t, s) in sorted(self.totals.items())},
            "counters": dict(sorted(self.counters.items())),
            "marks": self.marks,
        }


def install_untraced(tracer: Tracer, cli) -> None:
    """Minimal hooks for end-to-end runs: study/persist/load spans, first-step mark.

    Set-up ends when the first noise bank is opened, the first act of every
    simulation loop; the hook removes itself after that call.
    """
    from mvspde import noise

    _wrap_cli(tracer, cli)
    original = noise.StableNoiseBank.__init__

    def first_bank(self, *args, **kwargs):
        tracer.marks.setdefault("first_step", time.monotonic())
        noise.StableNoiseBank.__init__ = original
        original(self, *args, **kwargs)

    noise.StableNoiseBank.__init__ = first_bank


def install_traced(tracer: Tracer, cli) -> None:
    """Spans at every layer boundary the per-layer metrics are built from."""
    from mvspde import coefficients, experiments, measures, noise, solver

    _wrap_cli(tracer, cli)

    bank_cls = noise.StableNoiseBank
    init = tracer.wrap(
        "noise.bank_init", bank_cls.__init__,
        counter=lambda a, _: {"noise.streams": a["n_particles"]},
    )

    def bank_init(self, *args, **kwargs):
        tracer.marks.setdefault("first_step", time.monotonic())
        init(self, *args, **kwargs)

    bank_cls.__init__ = bank_init
    bank_cls.draw = tracer.wrap(
        "noise.draw", bank_cls.draw,
        counter=lambda _, out: {"noise.variates": out.size},
    )

    experiments.strong_error_stats = tracer.wrap(
        "multiscale.loop", experiments.strong_error_stats,
        counter=lambda a, _: {"multiscale.steps": a["cfg"].n_steps},
    )
    solver.simulate_mkv = tracer.wrap(
        "solver.mkv", solver.simulate_mkv,
        counter=lambda a, _: {"solver.steps": a["config"].n_steps},
    )
    solver.dT_metric = tracer.wrap("measures.dT_metric", solver.dT_metric)
    measures.wasserstein_exact = tracer.wrap(
        "measures.wasserstein_exact", measures.wasserstein_exact)

    family_build = coefficients.BuiltinFamily.build

    def build(self, spec):
        return _traced_coeffs(tracer, family_build(self, spec))

    coefficients.BuiltinFamily.build = build


def _wrap_cli(tracer: Tracer, cli) -> None:
    def study_ending(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            out = fn(*args, **kwargs)
            tracer.marks["study_end"] = time.monotonic()
            return out

        return run

    for attr in ("rate_study", "picard_study"):
        setattr(cli, attr, study_ending(tracer.wrap("study", getattr(cli, attr))))
    cli.persist = tracer.wrap("persist", cli.persist)
    cli.load_config = tracer.wrap("load", cli.load_config)


def _traced_coeffs(tracer: Tracer, coeffs):
    """Same coefficient set with F, G, B, the fbar factory and its evaluator traced."""
    factory = coeffs.fbar_factory
    traced_factory = None
    if factory is not None:
        def fbar_factory(spec):
            return tracer.wrap("coefficients.fbar", factory(spec))

        traced_factory = tracer.wrap("coefficients.fbar_table", fbar_factory)
    return dataclasses.replace(
        coeffs,
        F=tracer.wrap("coefficients.F", coeffs.F),
        G=tracer.wrap("coefficients.G", coeffs.G),
        B=tracer.wrap("coefficients.B", coeffs.B),
        fbar_factory=traced_factory,
    )
