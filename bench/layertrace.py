"""Per-layer tracing from outside the program.

The tracer wraps every public function and public method of the dcoh
modules (one module = one layer), plus the arithmetic dunders of
`FieldElement` and `AlgElement`, by patching module and class attributes.
Names a module bound with `from ... import` (for example `pmul` inside
`fields`, or `enumerate_points` inside `cocycles`) are patched too, because
every occurrence of an original function object is replaced by the same
wrapper.

A wrapper does work only at a layer boundary, when the caller's layer
differs from the callee's.  Then it times the call, charges the time to the
callee as self time minus the time of nested boundary calls, and counts
one call.  Calls into element-level layers (`polys`, `fields`, `algebras`,
`sigma_poly`) only add to these counters; calls into the other layers also
record a span `(query, layer, name, start, end, parent)` in memory, which
`write_spans` saves when the run ends.

A few hooks read work counts off arguments and results: search-space sizes
of `groups.enumerate_points`, the yield of `cocycles.enumerate_cocycles`,
linear-system shapes and entry bit lengths, Abramov's degree bound and
universal denominator from `Outcome.detail`, and tensor-cube dimensions.
"""

from __future__ import annotations

import functools
import inspect
import json
import re
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter

LAYERS = ("polys", "fields", "linalg", "algebras", "sigma_poly", "operators",
          "groups", "cocycles", "torsors", "exprs", "cli")
ELEMENT_LAYERS = frozenset({"polys", "fields", "algebras", "sigma_poly"})
ELEMENT_DUNDERS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                   "__rmul__", "__truediv__", "__rtruediv__", "__neg__",
                   "__pow__", "__eq__", "__hash__", "__bool__", "__init__")
TOP = "bench"
MAX_SPANS = 100_000
_T_POWER = re.compile(r"t\^(\d+)")


def _entry_bits(x) -> int:
    """Bit length of an exact entry: rationals, rational functions, GF(q)."""
    v = getattr(x, "value", x)
    if isinstance(v, Fraction):
        return max(v.numerator.bit_length(), v.denominator.bit_length())
    if isinstance(v, int):
        return v.bit_length()
    if isinstance(v, tuple):
        return max((_entry_bits(c) for c in v), default=0)
    return 0


def _poly_text_degree(text: str) -> int:
    """Degree in t of a polynomial printed by `polys.poly_str`."""
    degs = [int(d) for d in _T_POWER.findall(text)]
    if re.search(r"t(?!\^)", text):
        degs.append(1)
    return max(degs, default=0)


class Tracer:
    """Patches the dcoh modules on `install` and restores them on `remove`."""

    def __init__(self, modules: dict, namespaces=()):
        self.modules = modules          # layer name -> module object
        self.namespaces = namespaces    # further modules whose names are rebound
        self.layer_stack = [TOP]
        self.start_stack = [0.0]
        self.child_stack = [0.0]
        self.span_stack = [-1]
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counters = Counter()
        self.maxima = Counter()
        self.spans = []
        self.spans_dropped = 0
        self.hook_s = 0.0
        self.query = -1
        self._patches = []              # (owner, name, original)
        self._wrappers = {}             # id(original function) -> wrapper

    # ---------------------------------------------------------------- wrapping

    def _enter(self, layer, element):
        self.layer_stack.append(layer)
        self.child_stack.append(0.0)
        sid = -1
        if not element:
            if len(self.spans) < MAX_SPANS:
                sid = len(self.spans)
                self.spans.append(None)
            else:
                self.spans_dropped += 1
        self.span_stack.append(sid)
        t0 = perf_counter()
        self.start_stack.append(t0)
        return t0

    def _exit(self, layer, name):
        t1 = perf_counter()
        t0 = self.start_stack.pop()
        dur = t1 - t0
        self.layer_stack.pop()
        self.self_s[layer] += dur - self.child_stack.pop()
        self.child_stack[-1] += dur
        self.calls[layer] += 1
        sid = self.span_stack.pop()
        if sid >= 0:
            self.spans[sid] = (self.query, layer, name, t0, t1, self.span_stack[-1])

    def _run_hook(self, hook, args, result, exc):
        """Run a counting hook outside every layer's self time."""
        t0 = perf_counter()
        hook(self, args, result, exc)
        dur = perf_counter() - t0
        self.hook_s += dur
        self.child_stack[-1] += dur

    def _wrap(self, fn, layer, name):
        key = id(fn)
        if key in self._wrappers:
            return self._wrappers[key]
        element = layer in ELEMENT_LAYERS
        stack = self.layer_stack
        enter, exit_, run_hook = self._enter, self._exit, self._run_hook
        hook = _HOOKS.get(name)

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    crossing = stack[-1] != layer
                    if crossing:
                        enter(layer, element)
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        if crossing:
                            exit_(layer, name)
                    yield value
        elif hook is not None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                crossing = stack[-1] != layer
                if crossing:
                    enter(layer, element)
                try:
                    result = fn(*args, **kwargs)
                except BaseException as e:
                    if crossing:
                        exit_(layer, name)
                    run_hook(hook, args, None, e)
                    raise
                if crossing:
                    exit_(layer, name)
                run_hook(hook, args, result, None)
                return result
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if stack[-1] == layer:
                    return fn(*args, **kwargs)
                enter(layer, element)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_(layer, name)

        self._wrappers[key] = wrapper
        return wrapper

    def _patch(self, owner, name, new):
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def install(self):
        originals = {}                  # id(original) -> wrapper
        for layer, mod in self.modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    originals[id(obj)] = self._wrap(obj, layer, f"{layer}.{name}")
                elif inspect.isclass(obj):
                    self._patch_class(obj, layer)
        # rebind every name that refers to an original, including names bound
        # by `from ... import` in other modules and in the package namespace
        for ns in list(self.modules.values()) + list(self.namespaces):
            for name, obj in list(vars(ns).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None:
                    self._patch(ns, name, wrapper)

    def _patch_class(self, cls, layer):
        element = cls.__name__ in ("FieldElement", "AlgElement")
        for name, obj in list(vars(cls).items()):
            if name.startswith("_") and not (name == "__init__" or
                                             (element and name in ELEMENT_DUNDERS)):
                continue
            label = f"{layer}.{cls.__name__}.{name}"
            if isinstance(obj, classmethod):
                self._patch(cls, name, classmethod(self._wrap(obj.__func__, layer, label)))
            elif isinstance(obj, staticmethod):
                self._patch(cls, name, staticmethod(self._wrap(obj.__func__, layer, label)))
            elif inspect.isfunction(obj):
                self._patch(cls, name, self._wrap(obj, layer, label))

    def remove(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # ----------------------------------------------------------------- results

    def layer_metrics(self, traced_wall: float) -> dict:
        out = {}
        for layer in LAYERS:
            s = self.self_s.get(layer, 0.0)
            out[f"{layer}.self_s"] = (s, "s")
            out[f"{layer}.calls"] = (self.calls.get(layer, 0), "count")
            out[f"{layer}.share"] = (s / traced_wall if traced_wall else 0.0, "ratio")
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["query", "layer", "name", "start", "end", "parent"],
                       "dropped": self.spans_dropped,
                       "spans": [s for s in self.spans if s is not None]}, fh)


# ------------------------------------------------------------------- hooks
# A hook sees the call's positional arguments and its result (or exception).


def _hook_enumerate_points(tr, args, result, exc):
    G, R = args[0], args[1]
    if getattr(G, "kind", None) == "product":
        return                          # the factors are counted by their own calls
    if exc is not None:
        if type(exc).__name__ == "BudgetExceeded":
            tr.counters["groups.budget_refusals"] += 1
        return
    n = getattr(G, "n", 1)
    slots = {"additive": 1, "diagonal": n}.get(G.kind, n * n)
    tr.counters["groups.enum_candidates"] += R.field.size ** (R.dim * slots)
    tr.counters["groups.enum_points"] += len(result)


def _hook_enumerate_cocycles(tr, args, result, exc):
    if exc is None:
        tr.counters["cocycles.z1"] += len(result)


def _hook_row_echelon(tr, args, result, exc):
    if exc is not None:
        return
    matrix = args[0]
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    tr.counters["linalg.solves"] += 1
    tr.maxima["linalg.max_cells"] = max(tr.maxima["linalg.max_cells"], rows * cols)
    echelon = result[0]
    bits = max((_entry_bits(x) for row in echelon for x in row), default=0)
    tr.maxima["linalg.max_entry_bits"] = max(tr.maxima["linalg.max_entry_bits"], bits)


def _hook_outcome_detail(tr, args, result, exc):
    if exc is not None or result is None:
        return
    detail = getattr(result, "detail", None) or {}
    bound = detail.get("degree_bound")
    if isinstance(bound, int):
        tr.maxima["operators.degree_bound_max"] = max(
            tr.maxima["operators.degree_bound_max"], bound)
    u = detail.get("universal_denominator")
    if isinstance(u, str):
        tr.maxima["operators.universal_den_deg_max"] = max(
            tr.maxima["operators.universal_den_deg_max"], _poly_text_degree(u))


def _hook_tensor_cube(tr, args, result, exc):
    if exc is None and hasattr(result, "index_list") and hasattr(result, "factors"):
        tr.maxima["algebras.max_tensor_dim"] = max(
            tr.maxima["algebras.max_tensor_dim"], result.dim)


_HOOKS = {
    "groups.enumerate_points": _hook_enumerate_points,
    "cocycles.enumerate_cocycles": _hook_enumerate_cocycles,
    "linalg.row_echelon": _hook_row_echelon,
    "operators.solve_additive_full": _hook_outcome_detail,
    "algebras.tensor_cube": _hook_tensor_cube,
}
