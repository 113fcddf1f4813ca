"""Spans around the calls into each vdslab layer, recorded from outside the package.

A traced sweep swaps selected module-level functions (and the two public
``UnitaryOperator`` methods) for wrappers that record a span per call: name,
start, end, parent span and the trial it belongs to. Every module namespace
that holds the original function object gets the wrapper, so calls through
``from .x import f`` bindings are seen too. Spans stay in memory; the
per-layer metrics are computed from them after the sweep.

A span's self time is its duration minus the durations of its direct
children. Inside one layer only the outermost call is recorded (a composed
transform calling its two factors is one transforms span), so counts are
calls made into a layer from outside it. The harness spans are the
exception: the sweep, its set-up and its trials nest by design.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

TRIAL = "harness.trial"
BUILD = "harness.build_problem"


@dataclass
class Span:
    name: str
    layer: str
    parent: int | None
    trial: int | None
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one single-threaded sweep at a time."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._trial: int | None = None
        self._trials = 0

    def wrap(self, name, fn, *, trial_root=False, inspect=None, result_map=None):
        """Return ``fn`` wrapped so that each call records a span called ``name``."""
        layer = name.split(".", 1)[0]
        outer_only = layer != "harness"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if outer_only and self._open and self.spans[self._open[-1]].layer == layer:
                return fn(*args, **kwargs)
            parent = self._open[-1] if self._open else None
            outer_trial = self._trial
            if trial_root:
                self._trial = self._trials
                self._trials += 1
            span = Span(name, layer, parent, self._trial)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
                self._trial = outer_trial
            if inspect is not None:
                inspect(span, result)
            return result if result_map is None else result_map(result)

        return traced

    def self_times(self) -> list[float]:
        """Self time of every span, in seconds, in recording order."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own


def _solve_attrs(span, result):
    span.attrs["iterations"] = result.iterations
    span.attrs["nonconverged"] = "stage1_not_converged" in result.flags


def _targets(tracer, v):
    """(function, span name, wrap options) for every traced public entry point."""

    def wrap_vjp(result):
        x, vjp = result
        return x, tracer.wrap("priors.generative_pullback", vjp)

    return [
        (v.harness.build_problem, BUILD, {}),
        # per-trial root; private, but it is the only per-trial boundary
        (v.harness._run_trial, TRIAL, {"trial_root": True}),
        (v.coherence.sparse_coherence_vector, "coherence.build", {}),
        (v.coherence.coherence_vector, "coherence.build", {}),
        (v.coherence.empirical_generative_coherence, "coherence.build", {}),
        (v.priors.difference_union, "priors.difference_union", {}),
        (v.priors.generative_pullback, "priors.generative_pullback", {"result_map": wrap_vjp}),
        (v.sampling.draw_sample, "sampling.draw_sample", {}),
        (v.sampling.noise_factor, "sampling.noise_factor", {}),
        (v.sampling.apply_measurement, "sampling.apply_measurement", {}),
        (v.recovery.simulate_measurements, "recovery.simulate", {}),
        (v.recovery.recover_sparse_two_stage, "recovery.solve", {"inspect": _solve_attrs}),
        (v.recovery.recover_generative, "recovery.solve", {"inspect": _solve_attrs}),
        (v.recovery.recover_oracle, "recovery.solve", {"inspect": _solve_attrs}),
        (v.recovery.theorem_error_bound, "recovery.bounds", {}),
        (v.recovery.deterministic_corollary_bound, "recovery.bounds", {}),
    ]


@contextmanager
def installed(tracer: Tracer, v):
    """Route the vdslab modules in namespace ``v`` through ``tracer`` until exit."""
    modules = [v.harness, v.coherence, v.priors, v.recovery, v.sampling, v.transforms]
    saved = []
    try:
        for fn, name, options in _targets(tracer, v):
            wrapped = tracer.wrap(name, fn, **options)
            sites = [(m, a) for m in modules for a, val in vars(m).items() if val is fn]
            for module, attr in sites:
                saved.append((module, attr, fn))
                setattr(module, attr, wrapped)
        op = v.transforms.UnitaryOperator
        for method in ("forward", "adjoint"):
            original = vars(op)[method]
            saved.append((op, method, original))
            setattr(op, method, tracer.wrap(f"transforms.{method}", original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def trial_totals(tracer: Tracer) -> list[dict]:
    """Per trial: its span duration, the sum of its spans' self times, and
    the summed duration of its measure and solve spans (all in ms)."""
    own = tracer.self_times()
    out = {}
    for i, s in enumerate(tracer.spans):
        if s.trial is None:
            continue
        row = out.setdefault(s.trial, {"wall_ms": 0.0, "self_ms": 0.0, "measure_solve_ms": 0.0})
        row["self_ms"] += own[i] * 1e3
        if s.name == TRIAL:
            row["wall_ms"] = s.duration * 1e3
        elif s.name in ("recovery.simulate", "recovery.solve"):
            row["measure_solve_ms"] += s.duration * 1e3
    return [out[k] for k in sorted(out)]


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer counts and self times from the recorded spans.

    Per-trial figures cover spans inside trials only; set-up figures are per
    build_problem call and cover spans outside trials.
    """
    own = tracer.self_times()
    spans = tracer.spans
    trials = sum(1 for s in spans if s.name == TRIAL)
    builds = sum(1 for s in spans if s.name == BUILD)
    if trials == 0 or builds == 0:
        raise RuntimeError("traced sweep recorded no trials or no set-up")

    def per_trial(names, value):
        return sum(value(i) for i, s in enumerate(spans) if s.trial is not None and s.name in names) / trials

    def per_build(name, value):
        return sum(value(i) for i, s in enumerate(spans) if s.trial is None and s.name == name) / builds

    def calls(i):
        return 1.0

    def self_ms(i):
        return own[i] * 1e3

    solves = [s for s in spans if s.name == "recovery.solve"]
    transforms = ("transforms.forward", "transforms.adjoint")
    return {
        "transforms.forward.calls_per_trial": per_trial(("transforms.forward",), calls),
        "transforms.adjoint.calls_per_trial": per_trial(("transforms.adjoint",), calls),
        "transforms.self_ms_per_trial": per_trial(transforms, self_ms),
        "sampling.apply_measurement.calls_per_trial": per_trial(("sampling.apply_measurement",), calls),
        "sampling.apply_measurement.self_ms_per_trial": per_trial(("sampling.apply_measurement",), self_ms),
        "sampling.draw_sample.self_ms_per_trial": per_trial(("sampling.draw_sample",), self_ms),
        "sampling.noise_factor.self_ms_per_trial": per_trial(("sampling.noise_factor",), self_ms),
        "recovery.simulate.self_ms_per_trial": per_trial(("recovery.simulate",), self_ms),
        "recovery.solve.self_ms_per_trial": per_trial(("recovery.solve",), self_ms),
        "recovery.iters_per_trial": sum(s.attrs["iterations"] for s in solves) / trials,
        "recovery.nonconverged_frac": sum(s.attrs["nonconverged"] for s in solves) / trials,
        "recovery.bounds.self_ms_per_trial": per_trial(("recovery.bounds",), self_ms),
        "priors.generative_pullback.calls_per_trial": per_trial(("priors.generative_pullback",), calls),
        "priors.generative_pullback.self_ms_per_trial": per_trial(("priors.generative_pullback",), self_ms),
        "harness.self_ms_per_trial": per_trial((TRIAL,), self_ms),
        "coherence.build.self_ms": per_build("coherence.build", self_ms),
        "coherence.build.total_ms": per_build("coherence.build", lambda i: spans[i].duration * 1e3),
        "priors.difference_union.self_ms": per_build("priors.difference_union", self_ms),
    }
