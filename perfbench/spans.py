"""Layer spans installed from outside the package.

The package binds its functions with `from ... import`, so a function is
replaced at every name a `jmscatter` module holds it under, which is the
name its callers use. Spans (name, start, end, parent, run id, error)
stay in memory until the pass ends. A layer function missing from the
package is reported as absent rather than raised.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# (module, function) pairs wrapped in a traced pass, grouped by module.
LAYERS = (
    ("cli", "main"), ("cli", "load_config"),
    ("quadrature", "build_rule"),
    ("hamiltonian", "assemble_linear"), ("hamiltonian", "potential_matrix"),
    ("hamiltonian", "f_weight_quadrature"),
    ("linearize", "d_tensor"),
    ("reference", "reference_coefficients"), ("reference", "chi_reconstruct"),
    ("specfun", "re_upper_gamma_neg"),
    ("solver", "scan"), ("solver", "solve_energy"), ("solver", "r_matrix"),
    ("solver", "greens_matrix"), ("solver", "greens_spectral"),
    ("solver", "phase_shift"), ("solver", "interior_coefficients"),
)


def _d_tensor_size(dten) -> dict:
    return {"tuples": int(dten.tuples.shape[0]), "bytes": int(dten.stack.nbytes)}


# Sizes read off a layer's return value, keyed by span name.
SIZES = {"linearize.d_tensor": _d_tensor_size}

NAME, START, END, PARENT, RUN, ERROR = range(6)


class Tracer:
    """Wraps the layer functions of one package and records their spans."""

    def __init__(self, package: str = "jmscatter", layers=LAYERS):
        self.package = package
        self.layers = layers
        self.spans: list = []
        self.sizes: dict = {}
        self.absent: list = []
        self.run = 0
        self._stack: list = []
        self._patches: list = []

    def install(self) -> None:
        for module_name, func_name in self.layers:
            name = f"{module_name}.{func_name}"
            try:
                module = importlib.import_module(f"{self.package}.{module_name}")
            except ImportError:
                self.absent.append(name)
                continue
            original = getattr(module, func_name, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapped = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == self.package or mod_name.startswith(self.package + ".")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
                        self._patches.append((mod, attr, original))

    def restore(self) -> None:
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)

    def _wrap(self, name: str, func):
        spans, stack = self.spans, self._stack
        size_of = SIZES.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
            if size_of is not None:
                try:
                    for key, value in size_of(result).items():
                        self.sizes[f"{name}.{key}"] = max(self.sizes.get(f"{name}.{key}", 0), value)
                except AttributeError:
                    if f"{name}.sizes" not in self.absent:
                        self.absent.append(f"{name}.sizes")
            return result

        return traced

    def summary(self) -> dict:
        """Per layer: calls, self seconds, median and 90th-percentile call time, errors by type."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        durations: dict = {}
        out: dict = {}
        for span, inner in zip(self.spans, child):
            layer = out.setdefault(span[NAME], {"calls": 0, "self_s": 0.0, "errors": {}})
            duration = span[END] - span[START]
            layer["calls"] += 1
            layer["self_s"] += duration - inner
            durations.setdefault(span[NAME], []).append(duration)
            if span[ERROR]:
                layer["errors"][span[ERROR]] = layer["errors"].get(span[ERROR], 0) + 1
        for name, values in durations.items():
            values.sort()
            out[name]["call_p50_ms"] = 1e3 * values[len(values) // 2]
            out[name]["call_p90_ms"] = 1e3 * values[min(len(values) - 1, (9 * len(values)) // 10)]
        return out
