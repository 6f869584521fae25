"""Per-layer call tracing from outside the package.

A layer is a public function of one ossvqa module, named
``<module>.<function>``.  Installing a Tracer replaces that function, in
every ossvqa module namespace that binds it, with a wrapper that counts
calls and accumulates inclusive and self time.  Callers inside the package
look names up in their own module globals (``vqa`` calls ``apply_circuit``
through ``ossvqa.vqa.apply_circuit``), so replacing every binding catches
every call.  Uninstalling restores the original objects.

Self time is a span's duration minus the time covered by wrapped calls
made inside it.  Spans are kept as running totals in memory; nothing is
written while a pass runs.
"""

from __future__ import annotations

import functools
import importlib
import time

PACKAGE = "ossvqa"
MODULES = ("instances", "groups", "simulator", "vqa", "presets", "cli")

# Layers timed in a traced run, grouped by the module that defines them.
LAYERS = (
    "instances.enumerate_solutions",
    "instances.evaluate_objective",
    "instances.is_feasible",
    "instances.optimal_solutions",
    "groups.bruteforce_feasibility_preservers",
    "groups.check_mixing_family",
    "groups.decompose_job_permutation",
    "groups.generate_group",
    "groups.orbit",
    "simulator.apply_circuit",
    "simulator.apply_mixer",
    "simulator.apply_phase_separator",
    "simulator.apply_swap_rotation",
    "simulator.basis_state",
    "simulator.build_circuit",
    "simulator.expectation",
    "simulator.fidelity",
    "simulator.phase_separator",
    "simulator.probabilities",
    "simulator.sample",
    "simulator.subspace_basis",
    "vqa.annotate_rows",
    "vqa.compile_reach",
    "vqa.objective_value",
    "vqa.run_experiment",
    "vqa.run_optimizer",
    "vqa.sgd_minimize",
    "vqa.trust_region_minimize",
    "presets.resolve_preset",
    "cli.main",
)

# The one layer an untraced pass still times: the optimiser loop, so that
# evaluations per second can be reported.  One wrapper per top-level call.
OPTIMIZER_LAYER = "vqa.run_optimizer"

# Layers whose first argument is a QuantumState; the tracer sums the number
# of amplitudes they touch.
SIZED_LAYERS = ("simulator.apply_swap_rotation",)


class LayerStat:
    __slots__ = ("calls", "total_s", "self_s", "amplitudes")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.amplitudes = 0


class Tracer:
    """Counts calls and self time for the given layers while installed."""

    def __init__(self, layers=LAYERS) -> None:
        self.layers = tuple(layers)
        self.stats = {name: LayerStat() for name in self.layers}
        self._stack: list[list[float]] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter
        sized = name in SIZED_LAYERS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - frame[0]
                stack.pop()
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if sized:
                    stat.amplitudes += len(args[0].amps)

        return wrapper

    def install(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer is already installed")
        namespaces = [importlib.import_module(PACKAGE)] + [
            importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES
        ]
        for name in self.layers:
            module, func = name.split(".")
            original = getattr(importlib.import_module(f"{PACKAGE}.{module}"), func)
            wrapper = self._wrap(name, original)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._saved.append((ns, attr, original))
                        setattr(ns, attr, wrapper)
        return self

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._saved):
            setattr(ns, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()
