"""Per-layer trace of expsamp, installed from outside the library.

Each layer is a module of the package.  The tracer wraps the module's
public functions (its ``__all__``) and the private names other modules
import from it, and rebinds every module attribute that refers to the
original, because ``analysis``, ``combinations`` and ``cli`` hold their
own references from ``from ... import``.  A wrapped call records a span:
name, start, end, parent span and job.  A span's self time is its length
minus its child spans and the counted calls made directly inside it.

Calls that run in the millions are counted, and their time accumulated,
instead of getting a span each:

* kernel evaluations, through ``dataclasses.replace`` of the ``eval_log``
  field of every kernel ``parse_kernel_spec`` returns;
* ``f`` and its Mellin derivatives, through ``dataclasses.replace`` of the
  ``TestFunction`` that ``get_function`` returns;
* ``operators.cell_mean`` and the moment sums ``algebraic_moment_at_log``
  and ``absolute_moment_at_log``, whose own time excludes the kernel and
  ``f`` calls inside them.

``operators.write_grid_csv`` is left unwrapped: it formats the CLI's
output, so its time is part of ``cli.self_s``.

A count or time is reported as measured, 0 where a workload does not use
the layer.  A ratio is reported only over a denominator that every
workload makes nonzero; were it 0, ``metrics`` raises rather than invent
a value.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
from time import perf_counter

__all__ = ["Tracer", "PER_LAYER_UNITS"]

LAYERS = ("kernels", "functions", "operators", "moments", "combinations", "analysis")
PRIVATE_IMPORTS = {"operators": ("_apply_with_cache",), "moments": ("_absolute_moment_sup_cached",)}
UNWRAPPED = {"write_grid_csv"}
COUNTED = {
    "cell_mean": "operators.cell_mean",
    "algebraic_moment_at_log": "moments.sum",
    "absolute_moment_at_log": "moments.sum",
}
OPERATOR_SUMS = {"operators.apply", "operators._apply_with_cache", "operators.apply_from_samples"}
SAMPLE_FILES = {"operators.read_sample_csv", "operators.write_sample_csv"}
SUP = "moments.absolute_moment_sup"
ROOT = "cli.main"

PER_LAYER_UNITS = {
    "kernels.evals": "count",
    "kernels.nonzero_ratio": "1",
    "kernels.s": "s",
    "functions.f_calls": "count",
    "functions.s": "s",
    "operators.cell_means": "count",
    "operators.cell_mean_s": "s",
    "operators.cell_reuse": "1",
    "operators.values": "count",
    "operators.self_s": "s",
    "operators.csv_rows": "count",
    "operators.csv_s": "s",
    "moments.sums": "count",
    "moments.sups": "count",
    "moments.sup_sums": "count",
    "moments.self_s": "s",
    "combinations.calls": "count",
    "combinations.self_s": "s",
    "analysis.calls": "count",
    "analysis.self_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "B",
}


def _ratio(part: int, whole: int, what: str) -> float:
    if not whole:
        raise ValueError(f"no {what} in the traced pass, so the ratio over them is undefined")
    return part / whole


class Tracer:
    """Spans and counters for traced runs of CLI jobs.

    ``install`` patches the package and ``uninstall`` restores it.  Spans
    and counters stay in memory until ``metrics`` reads them.
    """

    def __init__(self) -> None:
        self.spans: list = []  # [name, start, end, parent index, job, counted time inside]
        # key -> [calls, seconds, then per key: nonzero and operator terms, or sums in sups]
        self.stats = {key: [0, 0.0, 0, 0] for key in
                      ("kernels.eval", "functions.f", "functions.theta", *COUNTED.values())}
        self.csv_rows = 0
        self.output_bytes = 0
        self.job = None
        self._open: list = []  # indices of open spans
        self._inner: list = [0.0]  # counted time inside each open span or nested counted call
        self._patches: list = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn):
        spans, open_, inner = self.spans, self._open, self._inner

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, open_[-1] if open_ else -1, self.job, 0.0]
            open_.append(len(spans))
            spans.append(rec)
            inner.append(0.0)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                rec[5] = inner.pop()
                open_.pop()
            if name in SAMPLE_FILES and (rec[3] < 0 or spans[rec[3]][0] != name):
                series = args[1] if name.endswith("write_sample_csv") else result
                self.csv_rows += series.k_range[1] - series.k_range[0] + 1
            return result

        return functools.update_wrapper(wrapper, fn)

    def _counted(self, key: str, fn):
        """Leaf call: count it and add its time to the enclosing span."""
        stats, inner = self.stats[key], self._inner

        def wrapper(*args):
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                dt = perf_counter() - t0
                stats[0] += 1
                stats[1] += dt
                inner[-1] += dt

        return wrapper

    def _nested(self, key: str, fn):
        """Counted call with counted calls inside: its own time excludes theirs.
        The moment sums also note whether they ran inside a sup estimate."""
        stats, inner, spans, open_ = self.stats[key], self._inner, self.spans, self._open

        def wrapper(*args):
            inner.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                dt = perf_counter() - t0
                stats[0] += 1
                stats[1] += dt - inner.pop()
                inner[-1] += dt
                if open_ and spans[open_[-1]][0] == SUP:
                    stats[2] += 1

        return wrapper

    def _kernel(self, fn):
        """Kernel evaluation: also counts nonzero values, and the nonzero
        terms of an operator sum, which is what cell_reuse divides."""
        stats, inner, spans, open_ = self.stats["kernels.eval"], self._inner, self.spans, self._open

        def wrapper(t):
            t0 = perf_counter()
            try:
                value = fn(t)
            finally:
                dt = perf_counter() - t0
                stats[0] += 1
                stats[1] += dt
                inner[-1] += dt
            if value != 0.0:
                stats[2] += 1
                if open_ and spans[open_[-1]][0] in OPERATOR_SUMS:
                    stats[3] += 1
            return value

        return wrapper

    # -- install ------------------------------------------------------------

    def install(self) -> None:
        package = importlib.import_module("expsamp")
        modules = {layer: importlib.import_module(f"expsamp.{layer}") for layer in LAYERS}
        wrapped = {}  # id(original) -> (original, wrapper)
        for layer, module in modules.items():
            names = [n for n in module.__all__
                     if inspect.isfunction(getattr(module, n)) and n not in UNWRAPPED]
            for name in names + list(PRIVATE_IMPORTS.get(layer, ())):
                fn = getattr(module, name)
                if name in COUNTED:
                    wrapper = self._nested(COUNTED[name], fn)
                else:
                    wrapper = self._span(f"{layer}.{name}", fn)
                wrapped[id(fn)] = (fn, wrapper)

        parse = wrapped[id(package.parse_kernel_spec)][1]
        get = wrapped[id(package.get_function)][1]

        def traced_kernel(spec):
            kernel = parse(spec)
            return dataclasses.replace(kernel, eval_log=self._kernel(kernel.eval_log))

        def traced_function(name):
            f = get(name)
            return dataclasses.replace(
                f,
                f=self._counted("functions.f", f.f),
                mellin_derivs=tuple(self._counted("functions.theta", d) for d in f.mellin_derivs),
            )

        wrapped[id(package.parse_kernel_spec)] = (package.parse_kernel_spec, traced_kernel)
        wrapped[id(package.get_function)] = (package.get_function, traced_function)
        for module in [package, importlib.import_module("expsamp.cli"), *modules.values()]:
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped and wrapped[id(value)][0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapped[id(value)][1])
        series = modules["operators"].SampleSeries
        for name in ("covering", "from_function"):
            original = series.__dict__[name]
            self._patches.append((series, name, original))
            span = self._span(f"operators.SampleSeries.{name}", original.__func__)
            setattr(series, name, classmethod(span))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    def run_job(self, job, call):
        """Run ``call`` under the root span of one job."""
        self.job = job
        return self._span(ROOT, call)()

    # -- metrics --------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer counts and self times of everything recorded."""
        children = [0.0] * len(self.spans)
        for _name, start, end, parent, _job, _inner in self.spans:
            if parent >= 0:
                children[parent] += end - start
        self_s: dict = {}
        calls: dict = {}
        for (name, start, end, _parent, _job, inner), kids in zip(self.spans, children):
            bucket = "operators.csv" if name in SAMPLE_FILES else name.split(".")[0]
            self_s[bucket] = self_s.get(bucket, 0.0) + (end - start) - kids - inner
            calls[bucket] = calls.get(bucket, 0) + 1
            if name in OPERATOR_SUMS or name == SUP:
                calls[name] = calls.get(name, 0) + 1
        kernel, f, theta = self.stats["kernels.eval"], self.stats["functions.f"], self.stats["functions.theta"]
        cells, sums = self.stats["operators.cell_mean"], self.stats["moments.sum"]
        values = sum(calls.get(name, 0) for name in OPERATOR_SUMS)
        sups = calls.get(SUP, 0)
        return {
            "kernels.evals": kernel[0],
            "kernels.nonzero_ratio": _ratio(kernel[2], kernel[0], "kernel evaluations"),
            "kernels.s": kernel[1] + self_s.get("kernels", 0.0),
            "functions.f_calls": f[0],
            "functions.s": f[1] + theta[1] + self_s.get("functions", 0.0),
            "operators.cell_means": cells[0],
            "operators.cell_mean_s": cells[1],
            "operators.cell_reuse": _ratio(kernel[3], cells[0], "cell means"),
            "operators.values": values,
            "operators.self_s": self_s.get("operators", 0.0),
            "operators.csv_rows": self.csv_rows,
            "operators.csv_s": self_s.get("operators.csv", 0.0),
            "moments.sums": sums[0],
            "moments.sups": sups,
            "moments.sup_sums": sums[2],
            "moments.self_s": sums[1] + self_s.get("moments", 0.0),
            "combinations.calls": calls.get("combinations", 0),
            "combinations.self_s": self_s.get("combinations", 0.0),
            "analysis.calls": calls.get("analysis", 0),
            "analysis.self_s": self_s.get("analysis", 0.0),
            "cli.self_s": self_s.get("cli", 0.0),
            "cli.output_bytes": self.output_bytes,
        }
