"""Outside-in tracing for the per-layer benchmark run.

The tracer wraps, in place, the names each hartreeflow module looks up from
the layer below, so every call through such a name records a span: its name,
the module whose binding was called (site), start, end and parent.  The
package itself is not changed; only the traced benchmark process installs the
wrappers, so untraced runs execute the program exactly as shipped.

Transforms are counted, not spanned: each numpy.fft.fftn / ifftn call adds its
count, time, output points and computed bytes (input plus output array sizes,
cache effects ignored) to the innermost open span, and each
Propagator.step_array call adds one step.  A scan makes ~10^6 transforms, and
a record per call would cost more memory than the program under test.  Spans
stay in memory and are written out when the run ends.

Spans opened on another thread with no open span of its own (a scan work
pool) hang under the innermost span open on the thread that made the tracer.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import threading
import time

import numpy as np

MODULES = (
    "hartreeflow.params",
    "hartreeflow.grid",
    "hartreeflow.hartree",
    "hartreeflow.minimize",
    "hartreeflow.evolve",
    "hartreeflow.analysis",
    "hartreeflow.cli",
)

# (module whose binding is wrapped, attribute, span name).  Each module calls
# these through its own global name, so wrapping the binding in the caller's
# namespace catches every call from that layer.
SPANS = (
    ("hartreeflow.cli", "ground_state", "minimize.ground_state"),
    ("hartreeflow.cli", "build_kernel", "hartree.build_kernel"),
    ("hartreeflow.cli", "subadditivity_scan", "analysis.subadditivity_scan"),
    ("hartreeflow.cli", "stability_experiment", "analysis.stability_experiment"),
    ("hartreeflow.cli", "concentration_profile", "analysis.concentration_profile"),
    ("hartreeflow.cli", "validate_assumptions", "params.validate_assumptions"),
    ("hartreeflow.cli", "phase_factorize", "minimize.phase_factorize"),
    ("hartreeflow.cli", "strict_scaling_check", "analysis.strict_scaling_check"),
    ("hartreeflow.cli", "cross_term_check", "analysis.cross_term_check"),
    ("hartreeflow.analysis", "infimum_value", "analysis.infimum_value"),
    ("hartreeflow.analysis", "ground_state", "minimize.ground_state"),
    ("hartreeflow.analysis", "evolve", "evolve.evolve"),
    ("hartreeflow.evolve", "orbit_distance", "evolve.orbit_distance"),
)

# Public physics of the hartree layer, wrapped at every module binding, since
# analysis, evolve and hartree itself each call them through their own name.
HARTREE_EVERYWHERE = ("total_energy", "energy_gradient", "pair_interaction")


class Span:
    __slots__ = ("index", "name", "site", "parent", "thread", "start", "end",
                 "fft_calls", "fft_s", "fft_points", "fft_bytes", "steps", "info")

    def __init__(self, index, name, site, parent, thread, start):
        self.index = index
        self.name = name
        self.site = site
        self.parent = parent
        self.thread = thread
        self.start = start
        self.end = None
        self.fft_calls = 0
        self.fft_s = 0.0
        self.fft_points = 0
        self.fft_bytes = 0
        self.steps = 0
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class _Patcher:
    """Replaces attributes in place and puts the originals back on uninstall()."""

    def __init__(self):
        self._restore: list[tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


class Tracer(_Patcher):
    """Records spans around wrapped module bindings; see the module docstring."""

    def __init__(self):
        super().__init__()
        self.spans: list[Span] = []
        self._local = threading.local()
        self._owner_stack = self._stack()

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, site: str = "") -> Span:
        stack = self._stack()
        outer = stack or self._owner_stack
        parent = outer[-1].index if outer else None
        span = Span(len(self.spans), name, site, parent, threading.get_ident(), time.perf_counter())
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, site: str = ""):
        s = self.open(name, site)
        try:
            yield s
        finally:
            self.close(s)

    def _current(self) -> Span | None:
        stack = self._stack() or self._owner_stack
        return stack[-1] if stack else None

    # -- installation --------------------------------------------------------

    def _span_wrapper(self, fn, name: str, site: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name, site)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            span.info = _result_info(result)
            return result

        return traced

    def _fft_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            t0 = time.perf_counter()
            out = fn(a, *args, **kwargs)
            t1 = time.perf_counter()
            span = tracer._current()
            if span is not None:
                span.fft_calls += 1
                span.fft_s += t1 - t0
                span.fft_points += out.size
                span.fft_bytes += np.asarray(a).nbytes + out.nbytes
            return out

        return counted

    def install(self) -> None:
        """Wrap every traced binding; undo with uninstall()."""
        for module_name, attr, name in SPANS:
            module = importlib.import_module(module_name)
            self._patch(module, attr, self._span_wrapper(getattr(module, attr), name, module_name))
        home = importlib.import_module("hartreeflow.hartree")
        for attr in HARTREE_EVERYWHERE:
            original = getattr(home, attr)
            for module_name in MODULES:
                module = importlib.import_module(module_name)
                if getattr(module, attr, None) is original:
                    wrapper = self._span_wrapper(original, f"hartree.{attr}", module_name)
                    self._patch(module, attr, wrapper)
        for attr in ("fftn", "ifftn"):
            self._patch(np.fft, attr, self._fft_wrapper(getattr(np.fft, attr)))
        propagator = importlib.import_module("hartreeflow.evolve").Propagator
        step_array = propagator.step_array
        tracer = self

        @functools.wraps(step_array)
        def counted_step(prop, x):
            span = tracer._current()
            if span is not None:
                span.steps += 1
            return step_array(prop, x)

        self._patch(propagator, "step_array", counted_step)

    # -- output --------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([s.as_dict() for s in self.spans], fh)

    def nesting_errors(self) -> list[str]:
        """Spans left open, or children not inside their parent's interval."""
        errors = []
        for s in self.spans:
            if s.end is None:
                errors.append(f"{s.name}#{s.index} never closed")
                continue
            if s.parent is None:
                continue
            p = self.spans[s.parent]
            if p.end is None or s.start < p.start or s.end > p.end:
                errors.append(f"{s.name}#{s.index} outside parent {p.name}#{p.index}")
        return errors


def _result_info(result):
    """The few result fields the layer metrics need (iterations, drifts)."""
    if hasattr(result, "iterations") and hasattr(result, "converged"):
        return {"iters": int(result.iterations), "converged": bool(result.converged)}
    if hasattr(result, "mass_drift") and hasattr(result, "energy_drift"):
        return {"mass_drift": float(result.mass_drift), "energy_drift": float(result.energy_drift)}
    return None


class Counter(_Patcher):
    """Count-only hooks: transforms, split steps and minimiser iterations.

    Reads no clock and records no spans.  It gives the deterministic counts of
    a run to compare against a traced run of the same inputs.  The lock keeps
    counts exact when a scan pool calls from several threads.
    """

    def __init__(self):
        super().__init__()
        self.fft_calls = 0
        self.steps = 0
        self.iters = 0
        self._lock = threading.Lock()

    def install(self) -> None:
        counter = self
        for attr in ("fftn", "ifftn"):
            fn = getattr(np.fft, attr)

            def counted(*args, _fn=fn, **kwargs):
                with counter._lock:
                    counter.fft_calls += 1
                return _fn(*args, **kwargs)

            self._patch(np.fft, attr, counted)
        propagator = importlib.import_module("hartreeflow.evolve").Propagator
        step_array = propagator.step_array

        def counted_step(prop, x):
            with counter._lock:
                counter.steps += 1
            return step_array(prop, x)

        self._patch(propagator, "step_array", counted_step)
        for module_name in ("hartreeflow.cli", "hartreeflow.analysis"):
            module = importlib.import_module(module_name)
            solve = module.ground_state

            def counted_solve(*args, _solve=solve, **kwargs):
                result = _solve(*args, **kwargs)
                with counter._lock:
                    counter.iters += result.iterations
                return result

            self._patch(module, "ground_state", counted_solve)

    def counts(self) -> dict:
        return {"minimize.iters": self.iters, "grid.fft_calls": self.fft_calls, "evolve.steps": self.steps}


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer metrics of one traced run, from its 'setup' and 'cli.run' spans.

    Self time is a span's duration minus the part of it that child spans
    cover.  Layers that did not run read zero.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def subtree(root: Span) -> list[Span]:
        inside = {root.index}
        out = [root]
        for s in spans[root.index + 1:]:
            if s.parent in inside:
                inside.add(s.index)
                out.append(s)
        return out

    def self_time(s: Span) -> float:
        # Children on pool threads overlap, so subtract the union they cover.
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.index, ()), key=lambda c: c.start):
            if c.end > reach:
                covered += c.end - max(c.start, reach)
                reach = c.end
        return s.duration - covered

    def total(items, attr="duration"):
        return float(sum(getattr(s, attr) for s in items))

    setup_spans = subtree(next(s for s in spans if s.name == "setup"))
    run = next(s for s in spans if s.name == "cli.run")
    run_spans = subtree(run)

    def named(name, among=run_spans):
        return [s for s in among if s.name == name]

    def ratio(num, den):
        return float(num / den) if den else 0.0

    fft_calls = total(run_spans, "fft_calls")
    m = {
        "params.validate_s": total(named("params.validate_assumptions", setup_spans)),
        "cli.config_s": total(named("cli.load_config", setup_spans)),
        "hartree.kernel_build_s": total(named("hartree.build_kernel")),
        "grid.fft_calls": fft_calls,
        "grid.fft_s": total(run_spans, "fft_s"),
        "grid.fft_us_per_call": ratio(1e6 * total(run_spans, "fft_s"), fft_calls),
        "grid.fft_points_per_call": ratio(total(run_spans, "fft_points"), fft_calls),
        "grid.fft_bytes": total(run_spans, "fft_bytes"),
    }

    solves = named("minimize.ground_state")
    iters = [s.info["iters"] for s in solves]
    solve_fft = sum(total(subtree(s), "fft_calls") for s in solves)
    m.update({
        "minimize.solves": len(solves),
        "minimize.iters": sum(iters),
        "minimize.iters_max": max(iters, default=0),
        "minimize.us_per_iter": ratio(1e6 * total(solves), sum(iters)),
        "minimize.fft_per_iter": ratio(solve_fft, sum(iters)),
        "minimize.converged_frac": ratio(sum(s.info["converged"] for s in solves), len(solves)),
    })

    evolves = named("evolve.evolve")
    steps = total(evolves, "steps")
    records = [c for e in evolves for c in children.get(e.index, ())]
    m.update({
        "evolve.steps": steps,
        "evolve.us_per_step": ratio(1e6 * sum(self_time(e) for e in evolves), steps),
        "evolve.fft_per_step": ratio(total(evolves, "fft_calls"), steps),
        "evolve.record_s": total(records),
        "evolve.orbit_distance_calls": len(named("evolve.orbit_distance")),
        "evolve.mass_drift_max": max((e.info["mass_drift"] for e in evolves), default=0.0),
        "evolve.energy_drift_max": max((e.info["energy_drift"] for e in evolves), default=0.0),
    })

    for attr in ("total_energy", "energy_gradient", "pair_interaction"):
        calls = named(f"hartree.{attr}")
        m[f"hartree.{attr}_calls"] = len(calls)
        m[f"hartree.{attr}_s"] = total(calls)

    infima = named("analysis.infimum_value")
    scans = named("analysis.subadditivity_scan")
    capacity = 0.0
    for scan in scans:
        inside = [s for s in infima if scan.start <= s.start and s.end <= scan.end]
        capacity += scan.duration * max(1, len({s.thread for s in inside}))
    m.update({
        "analysis.infima": len(infima),
        "analysis.infimum_s": total(infima),
        "analysis.infimum_s_max": max((s.duration for s in infima), default=0.0),
        "analysis.scan_self_s": float(sum(self_time(s) for s in scans)),
        "analysis.pool_efficiency": ratio(total(infima), capacity),
        "analysis.stability_s": total(named("analysis.stability_experiment")),
        "analysis.concentration_s": total(named("analysis.concentration_profile")),
        "cli.run_s": run.duration,
        "cli.self_s": self_time(run),
    })
    return m
