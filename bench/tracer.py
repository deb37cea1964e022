"""Span tracing of ``bifree``'s layers, installed from the benchmark's side.

``install`` wraps each layer's public functions and rebinds the wrapper in
every ``bifree.*`` namespace that holds the original, so a call from
``derivation`` into ``cumulant`` into ``bnclattice`` nests as child spans.  A
name that no longer exists is skipped and reported.  Spans (name, start,
end, parent, failed) stay in memory until the round ends; counters are
recorded at the same boundaries.  The tracer only records while ``active``
is set, which the worker does around each job.
"""

from __future__ import annotations

import inspect
import math
import sys
from collections import defaultdict
from time import perf_counter

#: Wrapped names per layer (module of ``bifree``); ``Class.method`` wraps a method.
LAYER_NAMES = {
    "ncalg": ["mul", "tensor_mul", "star", "tensor_star", "parse_poly", "format_poly",
              "parse_tensor", "format_tensor"],
    "bnclattice": ["enumerate_bnc", "mobius", "join", "is_bnc", "hat_embed", "hat_zero"],
    "cumulant": ["cumulant_chi", "moments_from_cumulants", "moment_pi", "expand_product_last_entry",
                 "TableMomentFunctional.phi", "CumulantMomentFunctional.phi"],
    "derivation": ["conjugate_check", "adjoint_apply", "bifree_dq", "free_dq", "scalar_identity_residual"],
    "gaussfam": ["gaussian_moment", "build_fock_model", "fock_moment", "fisher", "fisher_perturbed",
                 "entropy_closed", "entropy_quadrature", "entropy_dimension", "entropy_dimension_limit"],
    "bipartite_num": ["semicircular_density", "marginals", "conjugate_field", "fisher_numeric", "hilbert_pv"],
}
LAYERS = list(LAYER_NAMES) + ["cli"]


def _catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


def _double_factorial(k: int) -> int:
    return math.prod(range(k, 0, -2))


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.names: list[str] = []
        self.name_layer: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.masked: list[float] = []
        self.missing: list[str] = []
        self.hook_errors = 0
        self._phi_seen: set = set()
        self._phi_keep: list = []  # keeps functionals alive so their ids stay unique

    def _name_id(self, layer: str, name: str) -> int:
        self.names.append(f"{layer}.{name}")
        self.name_layer.append(layer)
        return len(self.names) - 1

    def add_span(self, layer: str, name: str, t0: float, t1: float, failed: bool) -> None:
        key = f"{layer}.{name}"
        nid = self.names.index(key) if key in self.names else self._name_id(layer, name)
        self.spans.append((nid, t0, t1, self.stack[-1] if self.stack else -1, failed))

    def wrap(self, layer: str, name: str, fn, hook):
        nid = self._name_id(layer, name)
        spans, stack = self.spans, self.stack
        signature = inspect.signature(fn) if hook is not None else None

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            stack.append(index)
            failed = True
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[index] = (nid, t0, t1, stack[-1] if stack else -1, failed)
            if hook is not None:
                try:
                    hook(self, _Call(signature, args, kwargs), result, t1 - t0)
                except (AttributeError, KeyError, TypeError, ValueError):
                    self.hook_errors += 1
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- aggregation -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer calls, self time (span time minus child spans) and errors,
        plus the layer counters."""
        spans = self.spans
        child = [0.0] * len(spans)
        for nid, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.errors"] = 0
        for index, (nid, t0, t1, parent, failed) in enumerate(spans):
            layer = self.name_layer[nid]
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_s"] += (t1 - t0) - child[index]
            # count a failure once, where it leaves the layer
            if failed and (parent < 0 or self.name_layer[spans[parent][0]] != layer):
                out[f"{layer}.errors"] += 1
        mobius = self.names.index("bnclattice.mobius") if "bnclattice.mobius" in self.names else -1
        out["bnclattice.mobius_calls"] = sum(1 for s in spans if s[0] == mobius)
        c = self.counters
        for key in ("bnclattice.partitions", "cumulant.lattice_terms", "cumulant.phi_calls",
                    "cumulant.phi_misses", "derivation.words_checked", "derivation.tensor_terms",
                    "ncalg.terms_out", "gaussfam.pairings", "gaussfam.fock_dim", "gaussfam.quad_evals",
                    "bipartite_num.grid_points"):
            out[key] = int(c[key])
        out["cumulant.phi_hit_ratio"] = 1.0 - c["cumulant.phi_misses"] / c["cumulant.phi_calls"] if c["cumulant.phi_calls"] else 0.0
        out["gaussfam.fock_build_s"] = c["gaussfam.fock_build_s"]
        out["gaussfam.quad_error_bound_max"] = c["gaussfam.quad_error_bound_max"]
        out["bipartite_num.kernel_gflop"] = c["bipartite_num.kernel_gflop"]
        self_s = out["bipartite_num.self_s"]
        out["bipartite_num.gflops"] = c["bipartite_num.kernel_gflop"] / self_s if self_s > 0 else 0.0
        out["bipartite_num.masked_fraction"] = sum(self.masked) / len(self.masked) if self.masked else 0.0
        return out

    def dump(self) -> dict:
        base = self.spans[0][1] if self.spans else 0.0
        return {
            "names": self.names,
            "layers": self.name_layer,
            "spans": [[nid, round(t0 - base, 7), round(t1 - base, 7), parent, int(failed)]
                      for nid, t0, t1, parent, failed in self.spans],
        }


# -- counters recorded at the layer boundaries ----------------------------------------


class _Call:
    """Arguments of one traced call, bound to parameter names on first use."""

    __slots__ = ("signature", "args", "kwargs", "_bound")

    def __init__(self, signature, args, kwargs):
        self.signature, self.args, self.kwargs, self._bound = signature, args, kwargs, None

    def __getitem__(self, name):
        if self._bound is None:
            self._bound = self.signature.bind(*self.args, **self.kwargs).arguments
        return self._bound[name]

    def get(self, name, default=None):
        try:
            return self[name]
        except KeyError:
            return default


def _count(key, value_fn):
    def hook(tracer, bound, result, seconds):
        tracer.counters[key] += value_fn(bound, result)
    return hook


def _phi_hook(normal_form):
    def hook(tracer, bound, result, seconds):
        functional, word = bound.args[:2] if len(bound.args) >= 2 else (bound["self"], bound["word"])
        tracer.counters["cumulant.phi_calls"] += 1
        key = (id(functional), normal_form(tuple(word), functional.mode))
        if key not in tracer._phi_seen:
            tracer._phi_seen.add(key)
            tracer._phi_keep.append(functional)
            tracer.counters["cumulant.phi_misses"] += 1
    return hook


def _fock_hook(tracer, bound, result, seconds):
    size, depth = bound["cov"].size, bound["depth"]
    tracer.counters["gaussfam.fock_dim"] += sum(size ** level for level in range(depth + 1))
    tracer.counters["gaussfam.fock_build_s"] += seconds


def _quad_hook(tracer, bound, result, seconds):
    tracer.counters["gaussfam.quad_evals"] += result.evaluations
    if math.isfinite(result.error_bound):
        key = "gaussfam.quad_error_bound_max"
        tracer.counters[key] = max(tracer.counters[key], result.error_bound)


def _field_hook(tracer, bound, result, seconds):
    grid = bound["g"]
    richardson = getattr(bound.get("cfg"), "richardson", False)
    nx, ny = grid.values.shape
    tracer.counters["bipartite_num.grid_points"] += nx * ny
    tracer.counters["bipartite_num.kernel_gflop"] += 2 * nx * ny * (nx + ny) * (2 if richardson else 1) / 1e9
    tracer.masked.append(float(result.mask.mean()))


def _pairings(bound, result):
    k = len(bound["pattern"])
    return _double_factorial(k - 1) if k and k % 2 == 0 else 0


def _hooks(bifree) -> dict[str, object]:
    normal_form = getattr(bifree, "normal_form", lambda word, mode: word)
    lattice_terms = _count("cumulant.lattice_terms", lambda b, r: _catalan(len(b["chi"])))
    tensor_terms = _count("derivation.tensor_terms", lambda b, r: len(r))
    terms_out = _count("ncalg.terms_out", lambda b, r: len(r))
    return {
        "bnclattice.enumerate_bnc": _count("bnclattice.partitions", lambda b, r: len(r)),
        "cumulant.cumulant_chi": lattice_terms,
        "cumulant.moments_from_cumulants": lattice_terms,
        "cumulant.TableMomentFunctional.phi": _phi_hook(normal_form),
        "cumulant.CumulantMomentFunctional.phi": _phi_hook(normal_form),
        "derivation.conjugate_check": _count("derivation.words_checked", lambda b, r: r.checked),
        "derivation.bifree_dq": tensor_terms,
        "derivation.free_dq": tensor_terms,
        "ncalg.mul": terms_out,
        "ncalg.tensor_mul": terms_out,
        "gaussfam.gaussian_moment": _count("gaussfam.pairings", _pairings),
        "gaussfam.build_fock_model": _fock_hook,
        "gaussfam.entropy_quadrature": _quad_hook,
        "bipartite_num.conjugate_field": _field_hook,
    }


def install(bifree) -> Tracer:
    """Wrap every listed name of every layer; report the names that are gone."""
    tracer = Tracer()
    hooks = _hooks(bifree)
    namespaces = [m for name, m in sorted(sys.modules.items())
                  if m is not None and (name == "bifree" or name.startswith("bifree."))]
    for layer, names in LAYER_NAMES.items():
        module = sys.modules.get(f"bifree.{layer}")
        for name in names:
            key = f"{layer}.{name}"
            owner_name, _, attr = name.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None or not callable(original):
                tracer.missing.append(key)
                continue
            wrapped = tracer.wrap(layer, name, original, hooks.get(key))
            if owner_name:
                setattr(owner, attr, wrapped)
                continue
            for namespace in namespaces:
                if vars(namespace).get(attr) is original:
                    setattr(namespace, attr, wrapped)
    return tracer
