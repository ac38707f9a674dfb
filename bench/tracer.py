"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions of each package module from outside:
every module-level name that refers to a wrapped function, in any
``acoustic_eit`` module, is rebound to a wrapper that records a span. Calls
between package modules and inside one module go through those names, so
they are traced too. Nothing under ``src/`` is changed, and the untraced run
never imports this module.

A span is ``[id, parent, layer, name, start_ns, end_ns, run, error, attrs]``.
Spans stay in memory and are written out once, at the end of the run. A
span's self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import sys
import time

LAYERS = ("cli", "experiments", "model", "poles", "estimation", "leastsq", "lindblad")

_KERNELS = frozenset({"reflection_coefficient", "transmission_flux_coefficient"})

ID, PARENT, LAYER, NAME, START, END, RUN, ERROR, ATTRS = range(9)


class Tracer:
    """In-memory span recorder; ``run`` tags the spans of one workload repetition."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.run = 0

    def call(self, layer, name, fn, args, kwargs, describe=None):
        span = [len(self.spans), self._stack[-1] if self._stack else None, layer, name, 0, 0, self.run, None, None]
        self.spans.append(span)
        self._stack.append(span[ID])
        span[START] = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            span[ERROR] = type(exc).__name__
            raise
        finally:
            span[END] = time.perf_counter_ns()
            self._stack.pop()
        if describe is not None:
            span[ATTRS] = describe(args, kwargs, result)
        return result

    def write(self, path, header) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
            for s in self.spans:
                handle.write(json.dumps({
                    "id": s[ID], "parent": s[PARENT], "layer": s[LAYER], "name": s[NAME],
                    "start_ns": s[START], "end_ns": s[END], "run": s[RUN],
                    "error": s[ERROR], "attrs": s[ATTRS],
                }) + "\n")


# ---------------------------------------------------------------------------
# Instrumentation
# ---------------------------------------------------------------------------


def _points(args, kwargs, result):
    size = getattr(result, "size", 1)
    return {"points": int(size), "scalar": getattr(result, "ndim", 0) == 0}


def _fit(args, kwargs, result):
    return {"iterations": int(result.iterations), "converged": bool(result.converged)}


def _run(args, kwargs, result):
    return {
        "scheme": result.config.scheme,
        "records": len(result.records),
        "rows": len(result.table),
        "failed_rows": sum(1 for row in result.table if row.get("status", "ok") != "ok"),
    }


def _export(args, kwargs, result):
    result_obj, path = args[0], args[1]
    fmt = args[2] if len(args) > 2 else kwargs.get("fmt")
    return {
        "rows": len(result_obj.table),
        "bytes": os.path.getsize(path),
        "format": fmt or result_obj.config.output_format,
    }


def _imported(args, kwargs, result):
    return {"rows": len(result[1])}


def _deviation(args, kwargs, result):
    return {"points": int(result.points)}


_DESCRIBE = {
    "reflection_coefficient": _points,
    "transmission_flux_coefficient": _points,
    "levenberg_marquardt": _fit,
    "run_experiment": _run,
    "export_result": _export,
    "import_csv": _imported,
    "weak_probe_deviation": _deviation,
}


def _wrapper(tracer: Tracer, layer: str, name: str, fn):
    describe = _DESCRIBE.get(name)
    if name == "levenberg_marquardt":
        # the residual and Jacobian callbacks are estimator code: trace them
        # as estimation spans so the engine's self time excludes them
        def callback(kind, inner):
            return lambda *a, **k: tracer.call("estimation", kind, inner, a, k)

        @functools.wraps(fn)
        def traced_fit(residual_fn, x0, jacobian_fn=None, **kwargs):
            args = (callback("residual", residual_fn), x0,
                    None if jacobian_fn is None else callback("jacobian", jacobian_fn))
            return tracer.call(layer, name, fn, args, kwargs, describe)

        return traced_fit

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(layer, name, fn, args, kwargs, describe)

    return traced


def instrument(tracer: Tracer) -> int:
    """Rebind every public function of every layer module to a traced wrapper.

    Returns the number of functions wrapped.
    """
    modules = {layer: importlib.import_module(f"acoustic_eit.{layer}") for layer in LAYERS}
    namespaces = [m for name, m in sys.modules.items() if name == "acoustic_eit" or name.startswith("acoustic_eit.")]
    wrapped = 0
    for layer, module in modules.items():
        for name, fn in list(vars(module).items()):
            if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            wrapper = _wrapper(tracer, layer, name, fn)
            for namespace in namespaces:
                for attr, value in list(vars(namespace).items()):
                    if value is fn:
                        setattr(namespace, attr, wrapper)
            wrapped += 1
    return wrapped


# ---------------------------------------------------------------------------
# Per-layer metrics of one repetition
# ---------------------------------------------------------------------------


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and times of the spans of one repetition.

    Busy time of a group of functions counts only its outermost spans, so a
    nested call of the same group is not counted twice.
    """
    index = {s[ID]: i for i, s in enumerate(spans)}
    dur = [(s[END] - s[START]) / 1e6 for s in spans]  # ms
    child_ms = [0.0] * len(spans)
    in_run = [False] * len(spans)
    in_noise = [False] * len(spans)
    lm_of = [None] * len(spans)  # enclosing levenberg_marquardt span
    fit_of = [None] * len(spans)  # enclosing fit_transmission span
    for i, s in enumerate(spans):
        p = index.get(s[PARENT])
        if p is not None:
            child_ms[p] += dur[i]
            in_run[i], in_noise[i] = in_run[p], in_noise[p]
            lm_of[i], fit_of[i] = lm_of[p], fit_of[p]
        name = s[NAME]
        in_run[i] = in_run[i] or name == "run_experiment"
        in_noise[i] = in_noise[i] or name == "synthesize_noise"
        if name == "levenberg_marquardt":
            lm_of[i] = i
        if name == "fit_transmission":
            fit_of[i] = i
    self_ms = [d - c for d, c in zip(dur, child_ms)]

    m: dict[str, float] = {}

    def total(pred, values=dur):
        return sum(v for s, v in zip(spans, values) if pred(s))

    def count(pred):
        return sum(1 for s in spans if pred(s))

    def layer_self(layer):
        return total(lambda s: s[LAYER] == layer, self_ms)

    # experiments
    runs = [s for s in spans if s[NAME] == "run_experiment" and not (s[PARENT] is not None and in_run[index[s[PARENT]]])]
    m["experiments.run_ms"] = sum(dur[index[s[ID]]] for s in runs)
    m["experiments.self_ms"] = sum(
        self_ms[i] for i, s in enumerate(spans)
        if s[LAYER] == "experiments" and in_run[i] and not in_noise[i]
    )
    m["experiments.noise_ms"] = total(lambda s: s[NAME] == "synthesize_noise")
    m["experiments.records"] = sum(s[ATTRS]["records"] for s in runs if s[ATTRS])
    m["experiments.dip_rows_failed"] = sum(s[ATTRS]["failed_rows"] for s in runs if s[ATTRS])
    rows = {fmt: 0 for fmt in ("csv", "json")}
    busy = {fmt: 0.0 for fmt in ("csv", "json")}
    export_bytes = 0
    for i, s in enumerate(spans):
        if s[NAME] == "export_result" and s[ATTRS]:
            rows[s[ATTRS]["format"]] += s[ATTRS]["rows"]
            busy[s[ATTRS]["format"]] += dur[i]
            export_bytes += s[ATTRS]["bytes"]
    m["experiments.export_us_per_row"] = 1e3 * _ratio(sum(busy.values()), sum(rows.values()))
    m["experiments.csv_us_per_row"] = 1e3 * _ratio(busy["csv"], rows["csv"])
    m["experiments.json_us_per_row"] = 1e3 * _ratio(busy["json"], rows["json"])
    m["experiments.export_bytes"] = export_bytes
    imports = [i for i, s in enumerate(spans) if s[NAME] == "import_csv" and s[ATTRS]]
    m["experiments.import_us_per_row"] = 1e3 * _ratio(
        sum(dur[i] for i in imports), sum(spans[i][ATTRS]["rows"] for i in imports))
    m["experiments.resolve_ms"] = total(lambda s: s[NAME] == "resolve_config")

    # model: the kernels, split by array and scalar detunings
    kernels = [i for i, s in enumerate(spans) if s[NAME] in _KERNELS and s[ATTRS]]
    arrays = [i for i in kernels if not spans[i][ATTRS]["scalar"]]
    scalars = [i for i in kernels if spans[i][ATTRS]["scalar"]]
    m["model.kernel_calls"] = len(arrays)
    m["model.kernel_points"] = sum(spans[i][ATTRS]["points"] for i in arrays)
    m["model.kernel_ns_per_point"] = 1e6 * _ratio(sum(dur[i] for i in arrays), m["model.kernel_points"])
    m["model.scalar_calls"] = len(scalars)
    m["model.scalar_us_per_call"] = 1e3 * _ratio(sum(dur[i] for i in scalars), len(scalars))

    # leastsq: the Levenberg-Marquardt engine
    fits = [i for i, s in enumerate(spans) if s[NAME] == "levenberg_marquardt"]
    m["leastsq.fits"] = len(fits)
    m["leastsq.iterations"] = sum(spans[i][ATTRS]["iterations"] for i in fits if spans[i][ATTRS])
    m["leastsq.residual_evals"] = count(lambda s: s[NAME] == "residual")
    jacobians = sum(1 for i, s in enumerate(spans)
                    if lm_of[i] is not None and s[NAME] in ("jacobian", "finite_difference_jacobian"))
    m["leastsq.jacobian_evals"] = jacobians
    # the engine evaluates the Jacobian once at the start of a fit and once
    # after every accepted step
    m["leastsq.accept_ratio"] = _ratio(jacobians - len(fits), m["leastsq.iterations"])
    m["leastsq.ms_per_fit"] = _ratio(sum(dur[i] for i in fits), len(fits))
    m["leastsq.self_ms"] = layer_self("leastsq")
    m["leastsq.unconverged"] = sum(1 for i in fits if spans[i][ATTRS] and not spans[i][ATTRS]["converged"])

    # estimation
    m["estimation.sample_build_ms"] = total(lambda s: s[NAME] == "samples_from_arrays")
    m["estimation.dip_fits"] = count(lambda s: s[NAME] == "fit_dip_lorentzian")
    transmission = [i for i, s in enumerate(spans) if s[NAME] == "fit_transmission"]
    m["estimation.transmission_fits"] = len(transmission)
    m["estimation.self_ms"] = layer_self("estimation")
    m["estimation.fit_failures"] = count(
        lambda s: s[LAYER] == "estimation" and s[NAME].startswith("fit_") and s[ERROR] is not None)
    m["estimation.transmission_ms_per_fit"] = _ratio(sum(dur[i] for i in transmission), len(transmission))
    m["estimation.transmission_iterations_per_fit"] = _ratio(
        sum(spans[i][ATTRS]["iterations"] for i in fits if fit_of[i] is not None and spans[i][ATTRS]),
        len(transmission))

    # lindblad: the master-equation oracle
    deviations = [i for i, s in enumerate(spans) if s[NAME] == "weak_probe_deviation" and s[ATTRS]]
    m["lindblad.points"] = sum(spans[i][ATTRS]["points"] for i in deviations)
    m["lindblad.us_per_point"] = 1e3 * _ratio(sum(dur[i] for i in deviations), m["lindblad.points"])
    m["lindblad.self_ms"] = layer_self("lindblad")
    m["lindblad.steady_state_failures"] = count(lambda s: s[NAME] == "steady_state" and s[ERROR] == "SteadyStateError")

    # poles and cli
    m["poles.classify_calls"] = count(lambda s: s[NAME] == "classify_regime")
    m["poles.busy_ms"] = total(lambda s: s[LAYER] == "poles" and (s[PARENT] is None or spans[index[s[PARENT]]][LAYER] != "poles"))
    m["cli.main_ms"] = total(lambda s: s[NAME] == "main")
    m["cli.self_ms"] = layer_self("cli")

    m["trace.spans"] = len(spans)
    return m


def baseline_figures(spans: list[list]) -> dict[str, float]:
    """Median per-call durations of runs by scheme (ms) and of oracle points (us)."""
    out = {}
    by_scheme: dict[str, list[float]] = {}
    for s in spans:
        if s[NAME] == "run_experiment" and s[ATTRS]:
            by_scheme.setdefault(s[ATTRS]["scheme"], []).append((s[END] - s[START]) / 1e6)
    for scheme, values in by_scheme.items():
        out[f"run_experiment.{scheme}_ms"] = statistics.median(values)
    me = [(s[END] - s[START]) / 1e3 for s in spans if s[NAME] == "master_equation_reflection"]
    if me:
        out["master_equation_reflection_us"] = statistics.median(me)
    return out
