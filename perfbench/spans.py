"""Per-layer spans, installed from outside the package by attribute name.

Each hook names a module of ``bandlayer`` and an attribute of it.  The
attribute's object is replaced by a timing wrapper in every loaded
``bandlayer`` module that holds it, so calls through ``from .x import f``
aliases are caught too.  A hook whose attribute no longer exists is
reported as absent and the run goes on, so the traced run survives
refactors that rename or remove a hooked function.

Spans are aggregated in memory: calls, inclusive seconds (outermost
occurrence only, so recursion is not double counted) and self seconds
(inclusive minus the time of directly nested spans).
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# span name -> (module of bandlayer, attribute)
HOOKS = {
    "band_zero.solve_homogeneous": ("band_zero", "solve_homogeneous"),
    "band_zero.greens_particular": ("band_zero", "greens_particular"),
    "band_zero.find_band_zero": ("band_zero", "find_band_zero"),
    "band_zero.newton_level": ("band_zero", "_newton_level"),
    "band_zero.polish_node": ("band_zero", "_polish_node"),
    "band_zero.level_state": ("band_zero", "_level_state"),
    "asymptotics.layer_constants": ("asymptotics", "layer_constants"),
    "asymptotics.layer_profile_airy": ("asymptotics", "layer_profile_airy"),
    "asymptotics.abel_layer_solve": ("asymptotics", "abel_layer_solve"),
    "special.airy_log_derivative": ("special", "airy_log_derivative"),
    "hjb.solve_hjb": ("hjb", "solve_hjb"),
    "hjb.factor": ("hjb", "splu"),
    "hjb.assemble": ("hjb", "_assemble"),
    "hjb.hamiltonian": ("hjb", "_hamiltonian"),
    "hjb.extract_band": ("hjb", "extract_band"),
    "experiments.eta_shift_sweep": ("experiments", "eta_shift_sweep"),
    "output.write_csv": ("output", "write_csv"),
    "config.load_config": ("config", "load_config"),
}
# spans that exist only through another hook's result
DERIVED = {"hjb.lu_solve": "hjb.factor"}


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(float)
        self.self_s = defaultdict(float)
        self.policy_iterations = 0
        self.last_lu = None
        self._stack = []            # child seconds of each open span
        self._depth = defaultdict(int)

    def wrap(self, name, fn):
        stack, depth = self._stack, self._depth

        def traced(*args, **kwargs):
            stack.append(0.0)
            depth[name] += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                depth[name] -= 1
                self.calls[name] += 1
                self.self_s[name] += dt - child
                if not depth[name]:
                    self.inclusive[name] += dt
                if stack:
                    stack[-1] += dt
        return traced


class _TracedLU:
    """A factor object whose solve() is a span; all else is delegated."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _special_wrapper(tracer, name, fn):
    """Wrappers that read or decorate what the hooked call returns."""
    traced = tracer.wrap(name, fn)
    if name == "hjb.factor":
        def factor(*args, **kwargs):
            lu = traced(*args, **kwargs)
            tracer.last_lu = lu
            return _TracedLU(lu, tracer.wrap("hjb.lu_solve", lu.solve))
        return factor
    if name == "hjb.solve_hjb":
        def solve(*args, **kwargs):
            vg = traced(*args, **kwargs)
            tracer.policy_iterations += int(getattr(vg, "iterations", 0))
            return vg
        return solve
    return traced


class Hooks:
    """Install and remove the spans of HOOKS around a traced pass."""

    def __init__(self):
        self.absent = []
        self._patches = []          # (module, attribute, original)

    def install(self, tracer: Tracer):
        self.absent = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "bandlayer"
                                         or n.startswith("bandlayer."))]
        for name, (mod_name, attr) in HOOKS.items():
            try:
                module = importlib.import_module("bandlayer." + mod_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = _special_wrapper(tracer, name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self._patches.append((m, key, original))
        self.absent += [d for d, src in DERIVED.items() if src in self.absent]

    def remove(self):
        for m, key, original in reversed(self._patches):
            setattr(m, key, original)
        self._patches = []
