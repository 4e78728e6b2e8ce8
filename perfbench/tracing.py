"""Layer tracing from outside the package.

Every public function of every ``dtsim`` module (the names in its ``__all__``,
plus the public methods of the classes listed there) is replaced by a wrapper
that records a span. The wrapper is installed in the defining module and in
every namespace that imported the same function object (``dtsim``,
``dtsim.cli``, ``dtsim.verify``, ...), so calls between modules pass through
it. ``dtsim.cli`` has no ``__all__``; its public functions are traced as the
``cli`` layer. The private ``verify._check_*`` suites are wrapped as well, to
time each named check. The package source is not modified.

Spans are aggregated in memory per (caller layer, callee function) edge:
calls, total time and self time. The scalar paths make about a million calls
at T = 32, so individual spans are not kept. A span's self time is its
duration minus the time its child spans cover; a layer's self time is the sum
over the edges that enter its functions.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

LAYERS = ("core", "lamperti", "covariance", "multidim", "spectral", "simulate", "verify", "cli")

#: Spectral functions that return density-matrix entries, and how many.
_GRID_ENTRIES = {"spectral_sum_grid", "spectral_closed_grid", "f_matrix", "spectral_matrix"}
_MATRIX_ENTRIES = {"spectral_matrix_grid", "f_matrix_grid"}
_SCALAR_ENTRIES = {
    "spectral_sum", "spectral_closed", "spectral_diag", "fjk", "fk_from_bk", "simple_bm_spectral",
}
#: Truncated-series evaluations, by where their truncation S comes from.
_CHAIN_SERIES = {"spectral_sum_grid", "spectral_sum"}
_TABLE_SERIES = {"f_matrix_grid", "f_matrix", "fjk", "fk_from_bk"}


class Tracer:
    """Installs span wrappers on ``dtsim``; :meth:`uninstall` restores the originals."""

    def __init__(self) -> None:
        self.edges: dict[tuple[str, str], list] = {}
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        import dtsim
        from dtsim import spectral

        self._auto_truncation = spectral.auto_truncation
        self._convergence_ratio = spectral.convergence_ratio
        self._series_signatures = {
            name: inspect.signature(getattr(spectral, name))
            for name in _CHAIN_SERIES | _TABLE_SERIES
        }
        modules = [importlib.import_module(f"dtsim.{name}") for name in LAYERS]
        wrappers: dict[int, object] = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for name, obj in self._public(mod):
                if inspect.isclass(obj):
                    self._wrap_methods(obj, layer)
                else:
                    wrappers[id(obj)] = self._wrap(obj, layer, name)
            if layer == "verify":
                for name, obj in vars(mod).items():
                    if name.startswith("_check_") and inspect.isfunction(obj):
                        wrappers[id(obj)] = self._wrap(obj, layer, name, self._check_hook)
        for mod in [dtsim, *modules]:
            for name, obj in list(vars(mod).items()):
                wrapped = wrappers.get(id(obj))
                if wrapped is not None:
                    self._set(mod, name, wrapped)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    @staticmethod
    def _public(mod):
        """Functions and classes ``mod`` defines and exports: its ``__all__``, else its public names."""
        names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
        for name in names:
            obj = getattr(mod, name)
            if (inspect.isclass(obj) or inspect.isfunction(obj)) and obj.__module__ == mod.__name__:
                yield name, obj

    def _wrap_methods(self, cls, layer: str) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            qual = f"{cls.__name__}.{name}"
            if inspect.isfunction(attr):
                self._set(cls, name, self._wrap(attr, layer, qual))
            elif isinstance(attr, classmethod):
                self._set(cls, name, classmethod(self._wrap(attr.__func__, layer, qual)))

    def _set(self, owner, name: str, value) -> None:
        self._patched.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _wrap(self, fn, layer: str, name: str, hook=None):
        edges = self.edges
        stack = self._stack
        clock = time.perf_counter
        callee = f"{layer}.{name}"
        if hook is None:
            hook = self._hooks(layer, name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            caller = stack[-1][0] if stack else "bench"
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                edge = edges.get((caller, callee))
                if edge is None:
                    edge = edges[(caller, callee)] = [0, 0.0, 0.0]
                edge[0] += 1
                edge[1] += dt
                edge[2] += dt - frame[1]
                if hook is not None and result is not None:
                    hook(caller, name, args, kwargs, result, dt)

        return traced

    # -- work counters, taken where a call enters its layer --------------
    def _hooks(self, layer: str, name: str):
        if layer == "spectral" and name in _GRID_ENTRIES | _MATRIX_ENTRIES | _SCALAR_ENTRIES:
            return self._spectral_hook
        if layer == "simulate" and name in ("simulate_simple_bm", "simulate_brownian"):
            return self._simulate_hook
        return None

    def _spectral_hook(self, caller, name, args, kwargs, result, dt) -> None:
        if caller == "spectral":
            return
        if name in _MATRIX_ENTRIES:
            entries = result.entries.size
        elif name in _GRID_ENTRIES:
            entries = result.size
        else:
            entries = 1
        self.counters["spectral.entries"] += entries
        terms = self._series_lags(name, args, kwargs)
        if terms:
            self.counters["spectral.series_terms"] += entries * terms

    def _series_lags(self, name, args, kwargs) -> int:
        """Number of lags 2S+1 a truncated-series evaluation sums per entry."""
        if name not in self._series_signatures:
            return 0
        bound = self._series_signatures[name].bind(*args, **kwargs).arguments
        s_trunc = bound.get("s_trunc")
        if s_trunc is None and name in _CHAIN_SERIES:
            s_trunc = self._auto_truncation(self._convergence_ratio(bound["chain"]))
        elif s_trunc is None:
            s_trunc = bound["table"].tau_window - bound["table"].T
        return 2 * s_trunc + 1

    def _simulate_hook(self, caller, name, args, kwargs, result, dt) -> None:
        if caller == "simulate":
            return
        self.counters["simulate.samples"] += result.paths.size
        self.counters["simulate.path_mb"] += result.paths.nbytes / 1e6

    def _check_hook(self, caller, name, args, kwargs, result, dt) -> None:
        self.counters[f"verify.{result.name}_s"] += dt

    # -- summaries --------------------------------------------------------
    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, self time, and span time (calls entering from another layer)."""
        out = {layer: {"calls": 0, "self_s": 0.0, "span_s": 0.0} for layer in LAYERS}
        for (caller, callee), (calls, total, self_s) in self.edges.items():
            layer = callee.split(".", 1)[0]
            out[layer]["calls"] += calls
            out[layer]["self_s"] += self_s
            if caller != layer:
                out[layer]["span_s"] += total
        return out

    def edge_list(self) -> list[dict]:
        return [
            {"caller": c, "callee": f, "calls": n, "total_s": t, "self_s": s}
            for (c, f), (n, t, s) in sorted(self.edges.items(), key=lambda kv: -kv[1][2])
        ]

