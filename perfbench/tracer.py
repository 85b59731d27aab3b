"""Per-layer spans for the benchmark's traced run, recorded from outside the package.

Tracer.install() wraps every public function of the layer modules and
rebinds the wrapper under each name that any finitegauss module holds
for it, so nested calls become child spans (autocorrelation ->
hermitian_eig).  A span's self time is its duration minus its children's.
tracemalloc slows every allocation it sees, so the traced run makes two
passes: a timing tracer gives times and counts, and a memory tracer, with
tracemalloc on inside hilbert and wigner spans, gives allocation peaks.
Work done while `paused` (the oracles) is not recorded.

`lattice` and `errors` are not layers here: their cost falls inside
their callers' spans, and raised errors are counted by the benchmark.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import tracemalloc
from dataclasses import dataclass

LAYERS = ("wrapped", "hilbert", "spectral", "dynamics", "wigner", "cli")
CERT_TOL = 1e-8  # the CLI's default --cert-tol; certify margins are residual / CERT_TOL
WRAPPED_SUMS = frozenset({"finite_gaussian", "shifted_finite_gaussian", "periodize",
                          "alternating_wrapped_sum"})
SPECTRUM_USERS = frozenset({"evolve", "certify_period", "autocorrelation"})
MB = 2.0 ** 20
# Allocation peaks are reported for these layers.  A memory tracer runs
# tracemalloc only inside their outermost spans; its times are not used.
MEMORY_LAYERS = frozenset({"hilbert", "wigner"})
ALLOC_METRICS = ("hilbert.alloc_peak_mb", "wigner.alloc_peak_mb")

# name -> unit, in the order the traced run reports them
LAYER_METRICS = {
    "spectral.eig_calls": "count",
    "spectral.eig_s": "s",
    "spectral.self_s": "s",
    "spectral.eig_margin_max": "ratio",
    "dynamics.calls": "count",
    "dynamics.self_s": "s",
    "dynamics.eig_resolves": "count",
    "dynamics.spectrum_reuse_ratio": "ratio",
    "dynamics.certify_margin_max": "ratio",
    "hilbert.calls": "count",
    "hilbert.self_s": "s",
    "hilbert.operator_bytes": "bytes",
    "hilbert.alloc_peak_mb": "MB",
    "wigner.calls": "count",
    "wigner.self_s": "s",
    "wigner.definition_s": "s",
    "wigner.theta_form_s": "s",
    "wigner.theta_evals": "count",
    "wigner.alloc_peak_mb": "MB",
    "wrapped.calls": "count",
    "wrapped.self_s": "s",
    "wrapped.points": "count",
    "wrapped.theta_calls": "count",
    "cli.jobs": "count",
    "cli.self_s": "s",
    "cli.cmd_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


@dataclass
class Span:
    layer: str
    name: str
    op: int
    parent: "Span | None"
    start: float
    mem_start: int
    mem_peak: int
    owner: bool  # started tracemalloc, and stops it on close
    end: float = 0.0
    child_s: float = 0.0
    alloc: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Spans and counts at the boundary of each layer, kept in memory."""

    def __init__(self, memory: bool = False):
        self.memory = memory  # run tracemalloc inside hilbert and wigner spans
        self.spans: list[Span] = []
        self.op = 0  # identifier shared by the spans of one op
        self.paused = False
        self.output_bytes = 0
        self.eig_margin_max = 0.0
        self.certify_margin_max = 0.0
        self.operator_bytes = 0
        self.points = 0
        self.reuse_served = 0
        self.reuse_calls = 0
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation

    def install(self) -> None:
        pkg = importlib.import_module("finitegauss")
        self._operator_type = pkg.OperatorMatrix
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"finitegauss.{layer}")
            for name, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not name.startswith("_"):
                    wrappers[id(fn)] = (fn, self._wrap(layer, name, fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "finitegauss" and not modname.startswith("finitegauss."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    # -- spans

    def _open(self, layer: str, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        owner = self.memory and layer in MEMORY_LAYERS and not tracemalloc.is_tracing()
        if owner:
            tracemalloc.start()
        current = 0
        if tracemalloc.is_tracing():
            if parent is not None:
                parent.mem_peak = max(parent.mem_peak, tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            current = tracemalloc.get_traced_memory()[0]
        span = Span(layer, name, self.op, parent, time.perf_counter(), current, current, owner)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.duration
        if tracemalloc.is_tracing():
            peak = max(span.mem_peak, tracemalloc.get_traced_memory()[1])
            span.alloc = peak - span.mem_start
            if span.parent is not None:
                span.parent.mem_peak = max(span.parent.mem_peak, peak)
            if span.owner:
                tracemalloc.stop()
        self.spans.append(span)

    def _wrap(self, layer: str, name: str, fn):
        observe = self._observer(name, inspect.signature(fn))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            span = self._open(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if isinstance(result, self._operator_type):
                self.operator_bytes += 16 * result.dim.d ** 2
            if observe is not None:
                observe(span, args, kwargs, result)
            return result

        return traced

    def _observer(self, name: str, sig: inspect.Signature):
        """Counts and margins read from one function's arguments and result."""

        def bound(args, kwargs):
            b = sig.bind(*args, **kwargs)
            b.apply_defaults()
            return b.arguments

        if name == "hermitian_eig":
            def observe(span, args, kwargs, spectrum):
                a = bound(args, kwargs)
                scale = float(abs(a["m"].entries).max())
                if scale > 0.0:
                    margin = spectrum.residual / (a["residual_tol"] * scale)
                    self.eig_margin_max = max(self.eig_margin_max, margin)
            return observe
        if name in WRAPPED_SUMS:
            def observe(span, args, kwargs, result):
                dim = bound(args, kwargs)["dim"]
                self.points += int(getattr(dim, "d", dim))
            return observe
        if name in SPECTRUM_USERS:
            def observe(span, args, kwargs, result):
                if name == "certify_period":
                    self.certify_margin_max = max(self.certify_margin_max, result / CERT_TOL)
                # count the calls a caller makes, not evolve calls inside certify_period
                if span.parent is None or span.parent.layer != "dynamics":
                    self.reuse_calls += 1
                    self.reuse_served += bound(args, kwargs).get("spectrum") is not None
            return observe
        return None

    # -- report

    def metrics(self, untraced_s: float, traced_s: float) -> dict[str, float]:
        m = {name: 0.0 for name in LAYER_METRICS}
        peaks = {"hilbert": 0, "wigner": 0}
        for span in self.spans:
            layer, name = span.layer, span.name
            if layer == "cli":
                # cli.self_s is main minus its cmd_* children: parsing, validation, rendering, writing
                if name == "main":
                    m["cli.jobs"] += 1
                    m["cli.self_s"] += span.self_s
                elif name.startswith("cmd_"):
                    m["cli.cmd_s"] += span.duration
                continue
            if layer != "spectral":  # spectral work is counted as eig_calls
                m[f"{layer}.calls"] += 1
            m[f"{layer}.self_s"] += span.self_s
            if layer in peaks:
                peaks[layer] = max(peaks[layer], span.alloc)
            if name == "hermitian_eig":
                m["spectral.eig_calls"] += 1
                m["spectral.eig_s"] += span.duration
                if span.parent is not None and span.parent.layer == "dynamics":
                    m["dynamics.eig_resolves"] += 1
            elif name == "wigner_definition":
                m["wigner.definition_s"] += span.duration
            elif name == "wigner_theta_form":
                m["wigner.theta_form_s"] += span.duration
            elif name == "theta":
                m["wrapped.theta_calls"] += 1
                if span.parent is not None and span.parent.name == "wigner_theta_form":
                    m["wigner.theta_evals"] += 1
        m["spectral.eig_margin_max"] = self.eig_margin_max
        m["dynamics.spectrum_reuse_ratio"] = self.reuse_served / self.reuse_calls if self.reuse_calls else 0.0
        m["dynamics.certify_margin_max"] = self.certify_margin_max
        m["hilbert.operator_bytes"] = float(self.operator_bytes)
        m["hilbert.alloc_peak_mb"] = peaks["hilbert"] / MB
        m["wigner.alloc_peak_mb"] = peaks["wigner"] / MB
        m["wrapped.points"] = float(self.points)
        m["cli.output_bytes"] = float(self.output_bytes)
        m["trace.overhead_ratio"] = traced_s / untraced_s
        return m
