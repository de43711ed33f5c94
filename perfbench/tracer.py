"""Per-layer spans and counters, recorded from outside f8tight.

`Tracer.install` wraps every public function of the seven layer modules
and rebinds each name that refers to one of them in every f8tight module,
so a call is seen whether it goes through its own module or through a name
another module imported (``surgery_enum.neg_cfrac``, ``classification.phi``).
A layer's self time is the time inside its spans minus the time covered by
the spans they enclose.  Counters are read off arguments and return values.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
from collections import Counter
from fractions import Fraction
from time import perf_counter

LAYERS = ("slope", "cfrac", "torus_dynamics", "tight_counts", "surgery_enum", "classification", "cli")

# (layer, function) → counter updates made when the call returns.
COUNTERS = {
    ("cfrac", "neg_cfrac"): lambda t, args, kwargs, result: t.count_expansion(args[0], result),
    ("surgery_enum", "stabilization_tuples"): lambda t, args, kwargs, result: t.add("surgery_enum.tuples", len(result)),
    ("surgery_enum", "chain_budgets"): lambda t, args, kwargs, result: t.add("surgery_enum.budget_calls", 1),
    ("classification", "enumerate_structures"): lambda t, args, kwargs, result: t.add("classification.certs", len(result)),
    ("classification", "universal_tightness_tag"): lambda t, args, kwargs, result: t.add("classification.tag_calls", 1),
    ("cli", "run"): lambda t, args, kwargs, result: t.count_output(kwargs.get("out", args[1] if len(args) > 1 else None)),
    ("tight_counts", "induced_chain"): lambda t, args, kwargs, result: t.add("tight_counts.chain_edges", len(result.slope_path) - 1),
    ("torus_dynamics", "bypass_step"): lambda t, args, kwargs, result: t.add("torus_dynamics.bypass_steps", 1),
    ("torus_dynamics", "thicken_path"): lambda t, args, kwargs, result: t.add("torus_dynamics.path_steps", len(result.steps)),
    ("torus_dynamics", "slopes_in_window"): lambda t, args, kwargs, result: t.add("torus_dynamics.window_slopes", len(result)),
    ("slope", "orientation"): lambda t, args, kwargs, result: t.add("slope.orientation_calls", 1),
}

COUNTER_NAMES = (
    "cfrac.calls",
    "cfrac.digits",
    "surgery_enum.tuples",
    "surgery_enum.budget_calls",
    "classification.certs",
    "classification.tag_calls",
    "cli.bytes_out",
    "tight_counts.chain_edges",
    "torus_dynamics.bypass_steps",
    "torus_dynamics.path_steps",
    "torus_dynamics.window_slopes",
    "slope.orientation_calls",
)


class Tracer:
    def __init__(self) -> None:
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.counts: Counter[str] = Counter(dict.fromkeys(COUNTER_NAMES, 0))
        self.expansion_inputs: set[Fraction] = set()
        self.active = False
        self._stack: list[list[float]] = []
        self._rebound: list[tuple[object, str, object]] = []

    def add(self, name: str, amount: int) -> None:
        self.counts[name] += amount

    def count_expansion(self, x, result) -> None:
        self.counts["cfrac.calls"] += 1
        self.counts["cfrac.digits"] += len(result.digits)
        self.expansion_inputs.add(Fraction(x))

    def count_output(self, out) -> None:
        if out is not None:
            self.counts["cli.bytes_out"] += len(out.text().encode())

    def _wrap(self, layer: str, name: str, func):
        on_return = COUNTERS.get((layer, name))
        stack = self._stack
        totals = self.self_s

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not self.active:
                return func(*args, **kwargs)
            frame = [0.0]  # time covered by enclosed spans
            stack.append(frame)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                totals[layer] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if on_return is not None:
                on_return(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        import f8tight

        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"f8tight.{layer}")
            for name, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_"):
                    wrappers[obj] = self._wrap(layer, name, obj)
        modules = [f8tight] + [
            importlib.import_module(f"f8tight.{info.name}") for info in pkgutil.iter_modules(f8tight.__path__)
        ]
        for module in modules:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, name, wrappers[obj])
                    self._rebound.append((module, name, obj))

    def uninstall(self) -> None:
        for module, name, obj in reversed(self._rebound):
            setattr(module, name, obj)
        self._rebound.clear()

    def metrics(self) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self.self_s[layer], "s")
        for name in COUNTER_NAMES:
            out[name] = (self.counts[name], "bytes" if name == "cli.bytes_out" else "count")
        calls = self.counts["cfrac.calls"]
        out["cfrac.calls_per_input"] = (calls / len(self.expansion_inputs) if calls else 0.0, "ratio")
        return out
