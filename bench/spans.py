"""Spans around the public functions of each prstab module.

`Tracer.install` replaces every public function of the layer modules with a
wrapper, in the package and in every layer module that holds a reference to
it (for example `cli` imports `condition_number` directly); `uninstall`
puts the originals back.  A span records its name, parent, thread, start and
end, plus a few attributes read from arguments and results.  Each task
handed to `workers.run_indexed` gets a span of its own, named after the
function that called the pool, so work inside the pool is charged to the
caller's layer and the pool's self time is its own overhead.  Spans stay in
memory; the run writes them out at its end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time
from dataclasses import dataclass, field

LAYERS = ("cli", "matrixio", "linalg", "stability", "harmonic", "gaussian", "recovery", "workers")
PACKAGE = "prstab"
POOL = "workers.run_indexed"
TASK = ":task"


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    start: float
    end: float
    thread: int
    attrs: dict = field(default_factory=dict)

    def row(self, self_s: float) -> list:
        """The span as written to the trace file, with its self time."""
        return [
            self.sid, self.parent, self.name, self.start, self.end, self_s, self.thread, self.attrs
        ]


def _exact_attrs(args: dict, result) -> dict:
    m, d = args["A"].shape
    return {"m": int(m), "d": int(d)}


def _numeric_attrs(args: dict, result) -> dict:
    return {
        "d": int(args["A"].shape[1]),
        "iterations": int(result[1].iterations),
        "max_iters": int(args["max_iters"]),
    }


ATTRS = {
    "stability.lower_lipschitz_exact_real": _exact_attrs,
    "stability.lower_lipschitz_numeric": _numeric_attrs,
    "recovery.solve_quadratic_model": lambda args, result: {"iterations": int(result.iterations)},
    POOL: lambda args, result: {"tasks": len(args["tasks"])},
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[tuple[int, str]]:
        """Open spans of the calling thread, as (span id, name)."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _run(self, name, fn, args, kwargs, parent=None, attrs=None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1][0]
        sid = next(self._ids)
        stack.append((sid, name))
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        span = Span(sid, parent, name, start, end, threading.get_ident())
        if attrs is not None:
            span.attrs = attrs(args, kwargs, result)
        self.spans.append(span)
        return result

    def _wrap(self, name: str, fn):
        reader = ATTRS.get(name)
        attrs = None
        if reader is not None:
            signature = inspect.signature(fn)

            def attrs(args, kwargs, result):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                return reader(bound.arguments, result)

        if name == POOL:

            @functools.wraps(fn)
            def pooled(task_fn, tasks, *rest, **kwargs):
                stack = self._stack()
                owner = (stack[-1][1] if stack else "bench") + TASK

                def run_pool(task_fn, tasks, *rest, **kwargs):
                    pool_sid = self._stack()[-1][0]

                    def task(t):
                        return self._run(owner, task_fn, (t,), {}, parent=pool_sid)

                    return fn(task, tasks, *rest, **kwargs)

                return self._run(name, run_pool, (task_fn, tasks, *rest), kwargs, attrs=attrs)

            return pooled

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._run(name, fn, args, kwargs, attrs=attrs)

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer module, wherever they are bound."""
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        holders = [importlib.import_module(PACKAGE), *modules.values()]
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn)
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            self._patched.append((holder, key, fn))
                            setattr(holder, key, wrapped)

    def uninstall(self) -> None:
        for holder, key, fn in reversed(self._patched):
            setattr(holder, key, fn)
        self._patched.clear()


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval that child spans cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.sid] = (s.end - s.start) - covered
    return out


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from the suffix of its name."""
    if metric.endswith("per_s"):
        return "1/s"
    if metric.endswith("_s") or metric.endswith("s_per_iteration"):
        return "s"
    return "count"


def _owned(name: str, prefix: str) -> bool:
    """`name` is the function `prefix`, a task it handed to the pool, or in module `prefix`."""
    base = name[: -len(TASK)] if name.endswith(TASK) else name
    return base == prefix or base.startswith(prefix + ".")


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer figures for the spans of one pass of a workload."""
    own = self_times(spans)

    def self_s(prefix: str) -> float:
        return sum(own[s.sid] for s in spans if _owned(s.name, prefix))

    def named(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    exact = named("stability.lower_lipschitz_exact_real")
    numeric = named("stability.lower_lipschitz_numeric")
    solves = named("recovery.solve_quadratic_model")
    exact_s = sum(s.end - s.start for s in exact)
    numeric_s = sum(s.end - s.start for s in numeric)
    numeric_iters = sum(s.attrs["iterations"] for s in numeric)
    recovery_iters = sum(s.attrs["iterations"] for s in solves)
    solve_s = sum(s.end - s.start for s in solves)
    out = {
        "linalg.eig_hermitian.calls": len(named("linalg.eig_hermitian")),
        "linalg.eig_hermitian.self_s": self_s("linalg.eig_hermitian"),
        "linalg.eigh_with_vectors.self_s": self_s("linalg.eigh_with_vectors"),
        "linalg.spectral_norm.self_s": self_s("linalg.spectral_norm"),
    }
    for d in (2, 3, 4):
        out[f"stability.exact_real.d{d}_s"] = sum(
            s.end - s.start for s in exact if s.attrs["d"] == d
        )
    splits = sum(2 ** (s.attrs["m"] - 1) for s in exact)
    out["stability.exact_real.splits_per_s"] = splits / exact_s if exact_s else 0.0
    out["stability.optimize_frame_r2.self_s"] = self_s("stability.optimize_frame_r2")
    out["stability.numeric.self_s"] = self_s("stability.lower_lipschitz_numeric")
    out["stability.numeric.iterations"] = numeric_iters
    out["stability.numeric.iters_per_s"] = numeric_iters / numeric_s if numeric_s else 0.0
    out["stability.numeric.at_budget"] = sum(
        s.attrs["d"] >= 3 and s.attrs["iterations"] >= s.attrs["max_iters"] for s in numeric
    )
    out["stability.upper_lipschitz.self_s"] = self_s("stability.upper_lipschitz")
    out["stability.condition_number.self_s"] = self_s("stability.condition_number")
    out["harmonic.self_s"] = self_s("harmonic")
    for fn in (
        "sample_gaussian_matrix",
        "gaussian_beta_experiment",
        "kernel_expectation_complex",
        "mc_kernel_expectation",
    ):
        out[f"gaussian.{fn}.self_s"] = self_s(f"gaussian.{fn}")
    out["recovery.solve_quadratic_model.self_s"] = self_s("recovery.solve_quadratic_model")
    out["recovery.iterations"] = recovery_iters
    out["recovery.s_per_iteration"] = solve_s / recovery_iters if recovery_iters else 0.0
    out["recovery.make_problem.self_s"] = self_s("recovery.make_gaussian_problem") + self_s(
        "recovery.make_problem_for_matrix"
    )
    out["recovery.check_error_bound.self_s"] = self_s("recovery.check_error_bound")
    out["matrixio.read_matrix.self_s"] = self_s("matrixio.read_matrix")
    out["matrixio.write_matrix.self_s"] = self_s("matrixio.write_matrix")
    out["workers.run_indexed.tasks"] = sum(s.attrs["tasks"] for s in named(POOL))
    out["workers.run_indexed.self_s"] = self_s(POOL)
    out["cli.self_s"] = self_s("cli")
    return out
