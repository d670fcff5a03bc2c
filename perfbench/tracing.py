"""Span tracing of weylppav's layers, installed from outside the package.

``Tracer.install`` rebinds every public function of every ``weylppav``
module to a timing wrapper, plus ``Matrix`` construction, ``det``,
``inverse`` and ``is_positive_definite``. Several modules bind names with
``from ... import``, so a wrapper replaces the name in every module that
holds the same function object, not only in the defining one.

Each call becomes a span (name, start, end, parent span, operation id)
kept in memory. Three leaf functions run hundreds of thousands of times
per operation (the integer product kernel, ``Matrix`` construction and
scalar formatting); they are counted and timed in aggregate instead of
one span per call, and their time is still charged to the enclosing span
as child time. A span's self time is its duration minus the time its
children cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("_kernel", "exactmat", "rootsys", "weyl", "ppav", "symplectic",
           "centralizer", "reference", "verify", "cli")
MATRIX_METHODS = ("det", "inverse", "is_positive_definite")
KERNEL_CALLERS = ("weyl", "exactmat", "verify")

# Verification sections in report order: wrapped function -> section name.
SECTIONS = {
    "check_riemann_matrices": "riemann-matrices",
    "check_divisor_chains": "torus-decompositions",
    "check_levels": "congruence-levels",
    "check_witnesses": "family-witnesses",
    "check_bn_splitting": "principal-splittings",
    "check_cyclic5_fixed_space": "fixed-space-rank4-order5",
    "check_sym5_fixed_family": "fixed-family-rank6-sym5",
    "check_group_orders": "reflection-group-orders",
    "check_degrees": "coroot-polarization-degrees",
    "check_properties": "structural-properties",
}

_ROOT = -1


def _layer(module_name: str) -> str:
    short = module_name.rsplit(".", 1)[-1]
    return "kernel" if short == "_kernel" else short


LAYERS = tuple(_layer(m) for m in MODULES)


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent, op, self_s)
        self.stack = [[_ROOT, 0.0]]  # open frames: [span index, child seconds]
        self.leaf = defaultdict(lambda: [0, 0.0])  # name -> [calls, seconds]
        self.counters = Counter()
        self.systems = set()
        self.op = 0
        self._restore = []

    # -- wrappers ---------------------------------------------------------------

    def _span_wrapper(self, fn, name):
        spans, stack, hook = self.spans, self.stack, _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            frame = [idx, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                parent = stack[-1]
                parent[1] += end - start
                spans[idx] = (name, start, end, parent[0], self.op,
                              end - start - frame[1])
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def _leaf_wrapper(self, fn, name):
        stat, stack = self.leaf[name], self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stat[0] += 1
                stat[1] += elapsed
                stack[-1][1] += elapsed

        return wrapper

    # -- installation -------------------------------------------------------------

    def _rebind(self, owner, attr, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> "Tracer":
        package = importlib.import_module("weylppav")
        modules = [importlib.import_module(f"weylppav.{m}") for m in MODULES]
        exactmat = importlib.import_module("weylppav.exactmat")
        cli = importlib.import_module("weylppav.cli")
        kernel_fns = {id(getattr(modules[0], n)) for n in ("mat_mul_flat", "mat_mul_flat_py")}

        wrapped = {}  # id(original) -> wrapper
        for mod in modules:
            layer = _layer(mod.__name__)
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(fn) or id(fn) in kernel_fns):
                    continue
                name = f"{layer}.{attr}"
                leaf = fn is cli.fmt_scalar
                wrapped[id(fn)] = (self._leaf_wrapper(fn, name) if leaf
                                   else self._span_wrapper(fn, name))

        for mod in modules + [package]:
            layer = _layer(mod.__name__)
            for attr, fn in list(vars(mod).items()):
                if id(fn) in kernel_fns:
                    # One wrapper per importing module, so products are
                    # attributed to the layer that asked for them.
                    self._rebind(mod, attr, self._leaf_wrapper(fn, f"kernel.products.{layer}"))
                elif id(fn) in wrapped:
                    self._rebind(mod, attr, wrapped[id(fn)])

        matrix = exactmat.Matrix
        self._rebind(matrix, "__init__",
                     self._leaf_wrapper(matrix.__init__, "exactmat.matrix_new"))
        for attr in MATRIX_METHODS:
            self._rebind(matrix, attr,
                         self._span_wrapper(getattr(matrix, attr), f"exactmat.Matrix.{attr}"))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results -------------------------------------------------------------------

    def write(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w") as handle:
            for i, (name, start, end, parent, op, self_s) in enumerate(self.spans):
                handle.write(json.dumps({"id": i, "name": name, "start": start,
                                         "end": end, "parent": parent, "op": op,
                                         "self_s": self_s}) + "\n")

    def _span_totals(self):
        """Calls per span name, and duration of the spans of each name that
        are not nested inside another span of the same name."""
        spans = self.spans
        calls, outer = Counter(), Counter()
        for name, start, end, parent, _, _ in spans:
            calls[name] += 1
            while parent != _ROOT and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent == _ROOT:
                outer[name] += end - start
        return calls, outer

    def layer_metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        self_s = Counter()
        for name, _, _, _, _, own in self.spans:
            self_s[name.split(".", 1)[0]] += own
        for name, (_, seconds) in self.leaf.items():
            self_s[name.split(".", 1)[0]] += seconds

        def ratio(num, den):
            return num / den if den else 0.0

        calls, outer = self._span_totals()
        products = {c: self.leaf[f"kernel.products.{c}"][0] for c in KERNEL_CALLERS}
        kernel_s = self_s["kernel"]
        kernel_calls = sum(c for n, (c, _) in self.leaf.items() if n.startswith("kernel."))
        closure_s = outer["weyl.generate_group"]
        rf_calls = calls["ppav.riemann_family"]
        new_matrix = self.leaf["exactmat.matrix_new"]

        m = {
            "kernel.products": (kernel_calls, "count"),
            "kernel.busy_s": (kernel_s, "s"),
            "kernel.products_per_s": (ratio(kernel_calls, kernel_s), "1/s"),
            "weyl.closures": (calls["weyl.generate_group"], "count"),
            "weyl.elements": (self.counters["weyl.elements"], "count"),
            "weyl.elements_per_s": (ratio(self.counters["weyl.elements"], closure_s), "1/s"),
            "weyl.new_per_product": (ratio(self.counters["weyl.new"], products["weyl"]), "ratio"),
            "exactmat.matrix_new": (new_matrix[0], "count"),
            "exactmat.matrix_new_s": (new_matrix[1], "s"),
            "exactmat.inverse.calls": (calls["exactmat.Matrix.inverse"], "count"),
            "exactmat.inverse_s": (outer["exactmat.Matrix.inverse"], "s"),
            "exactmat.det.calls": (calls["exactmat.Matrix.det"], "count"),
            "exactmat.det_s": (outer["exactmat.Matrix.det"], "s"),
            "exactmat.smith.calls": (calls["exactmat.smith_normal_form"], "count"),
            "exactmat.smith_s": (outer["exactmat.smith_normal_form"], "s"),
            "exactmat.solve_affine.calls": (calls["exactmat.solve_affine"], "count"),
            "exactmat.solve_affine_s": (outer["exactmat.solve_affine"], "s"),
            "exactmat.solve_affine.unknowns": (self.counters["exactmat.unknowns"], "count"),
            "symplectic.fixed_space.self_s": (
                sum(s[5] for s in self.spans if s[0] == "symplectic.fixed_symmetric_space"), "s"),
            "symplectic.equations": (self.counters["symplectic.equations"], "count"),
            "symplectic.validate_s": (outer["symplectic.is_symplectic"], "s"),
            "ppav.riemann_family.calls": (rf_calls, "count"),
            "ppav.z0_per_system": (ratio(rf_calls, len(self.systems)), "ratio"),
            "ppav.divisor_chain.calls": (calls["ppav.divisor_chain"], "count"),
            "verify.checks": (self.counters["verify.checks"], "count"),
            "cli.bytes_out": (self.counters["cli.bytes_out"], "bytes"),
        }
        for caller in KERNEL_CALLERS:
            m[f"kernel.products.{caller}"] = (products[caller], "count")
        for layer in LAYERS:
            m[f"{layer}.self_s"] = (self_s[layer], "s")
        for fn, section in SECTIONS.items():
            m[f"verify.section_s.{section}"] = (outer[f"verify.{fn}"], "s")
        m["trace.spans"] = (len(self.spans), "count")
        return m


# Counters that need a call's arguments or result.


def _on_closure(tracer, args, group):
    tracer.counters["weyl.elements"] += group.order
    tracer.counters["weyl.new"] += group.order - 1


def _on_solve(tracer, args, solution):
    tracer.counters["exactmat.unknowns"] += args[0].ncols


def _on_fixed_space(tracer, args, space):
    gens = list(args[0])
    n = gens[0].n
    tracer.counters["symplectic.equations"] += len(gens) * n * (n + 1) // 2


def _on_riemann_family(tracer, args, family):
    tracer.systems.add(str(args[0]))


def _on_verification(tracer, args, report):
    tracer.counters["verify.checks"] += sum(len(s["checks"]) for s in report["sections"])


_HOOKS = {
    "weyl.generate_group": _on_closure,
    "exactmat.solve_affine": _on_solve,
    "symplectic.fixed_symmetric_space": _on_fixed_space,
    "ppav.riemann_family": _on_riemann_family,
    "verify.run_verification": _on_verification,
}
