"""Boundary tracer: times calls into each covex module from outside the package.

Every public module-level function of a covex module is wrapped, plus a few
heavy public methods (HEAVY_METHODS).  The wrapper is installed under every
name that refers to the function in any covex module namespace, because
modules bind names with ``from .exactla import subspace_sum`` and a wrapper
installed only in the defining module would miss calls made inside the
package.  Per-scalar accessors (FieldSpec methods, PER_SCALAR) stay
unwrapped: they run millions of times and wrapping them would swamp the
measurement.  Generator functions are left alone, since a span around one
would time only the creation of the generator.

A layer is a module.  Its self time is the duration of its spans minus the
part covered by child spans, so self times add up to the traced time spent
inside the package.  Spans and counts stay in memory and are reported once,
by ``metrics()``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

LAYERS = (
    "permcore",
    "exactla",
    "varieties",
    "embedding",
    "conormal",
    "kl",
    "equivariant",
    "serialization",
    "cli",
    "suites",
)

HEAVY_METHODS = {
    "exactla": {
        "ExactMatrix": ("rank", "inverse", "__matmul__"),
        "Subspace": ("span", "column_span", "contains", "apply"),
    },
    "kl": {"SymmetricGroupTable": ("__init__", "kl", "mu_list")},
    "equivariant": {"MultivariatePolynomial": ("__mul__",)},
}

PER_SCALAR = {("serialization", "scalar_from_json"), ("serialization", "scalar_to_json")}

# Groups count only their outermost entries and time them inclusively, so a
# predicate calling another predicate, or a recursive call, is counted once.
GROUPS = {
    "varieties.southwest_profile": ("varieties", {"southwest_profile"}),
    "varieties.predicate": (
        "varieties",
        {
            "in_matrix_schubert",
            "matrix_schubert_violation",
            "in_matrix_schubert_cell",
            "in_flag_schubert",
            "flag_schubert_violation",
            "locate_flag_cell",
            "in_grass_schubert",
            "grass_schubert_violation",
            "locate_grass_cell",
        },
    ),
    "embedding.target": ("embedding", {"target_holds", "target_violation"}),
    "conormal.predicate": (
        "conormal",
        {
            "in_conormal_matrix",
            "conormal_matrix_violations",
            "in_conormal_grass",
            "conormal_grass_violations",
            "in_conormal_flag",
            "conormal_flag_violations",
        },
    ),
    "conormal.fiber": ("conormal", {"conormal_fiber_matrix", "conormal_fiber_flag"}),
    "kl.table_build": ("kl", {"SymmetricGroupTable.__init__"}),
    "kl.mu_list": ("kl", {"SymmetricGroupTable.mu_list"}),
    "equivariant.double_schubert": ("equivariant", {"double_schubert"}),
    "equivariant.restriction": (
        "equivariant",
        {"schubert_class_restriction", "grass_restriction", "localize_grass_class"},
    ),
    "serialization.parse": ("serialization", {"parse_point_file"}),
}


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()  # "layer.name" -> calls
        self.self_s: defaultdict = defaultdict(float)  # layer -> seconds
        self.errors: Counter = Counter()  # layer -> exceptions leaving the layer
        self.group_calls: Counter = Counter()
        self.group_s: defaultdict = defaultdict(float)
        self.rank_matrix_args: set = set()
        self.suite_cases = 0
        self.suite_cases_failed = 0
        self.exit_nonzero = 0
        self._stack: list[list] = []  # [layer, child seconds] per open span
        self._group_depth: Counter = Counter()
        self._group_of: dict[tuple[str, str], list[str]] = defaultdict(list)
        for group, (layer, names) in GROUPS.items():
            for name in names:
                self._group_of[(layer, name)].append(group)
        self._hooks = {
            "permcore.rank_matrix": self._on_rank_matrix,
            "suites.run_suite": self._on_run_suite,
            "cli.main": self._on_main,
        }

    # ---------------------------------------------------------------- install

    def install(self) -> None:
        """Wrap the package's boundary functions in every covex namespace."""
        modules = {layer: importlib.import_module(f"covex.{layer}") for layer in LAYERS}
        wrapped: dict[int, object] = {}
        for layer, module in modules.items():
            for name, obj in vars(module).items():
                if (
                    name.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__
                    or inspect.isgeneratorfunction(obj)
                    or (layer, name) in PER_SCALAR
                ):
                    continue
                wrapped[id(obj)] = self._wrap(layer, name, obj)
        for module in modules.values():
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    setattr(module, name, wrapped[id(obj)])
        for layer, classes in HEAVY_METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(modules[layer], cls_name)
                for method in methods:
                    raw = cls.__dict__[method]
                    label = f"{cls_name}.{method}"
                    if isinstance(raw, staticmethod):
                        setattr(cls, method, staticmethod(self._wrap(layer, label, raw.__func__)))
                    else:
                        setattr(cls, method, self._wrap(layer, label, raw))

    def _wrap(self, layer: str, name: str, fn):
        key = f"{layer}.{name}"
        groups = self._group_of.get((layer, name), [])
        hook = self._hooks.get(key)
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        depth = self._group_depth
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[key] += 1
            outer = [g for g in groups if not depth[g]]
            for g in groups:
                depth[g] += 1
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if len(stack) < 2 or stack[-2][0] != layer:
                    self.errors[layer] += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                for g in groups:
                    depth[g] -= 1
                for g in outer:
                    self.group_calls[g] += 1
                    self.group_s[g] += elapsed
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    # Hooks see the arguments and result of a call that returned.

    def _on_rank_matrix(self, args, kwargs, result) -> None:
        self.rank_matrix_args.add(args[0] if args else kwargs["w"])

    def _on_run_suite(self, args, kwargs, verdicts) -> None:
        self.suite_cases += len(verdicts)
        self.suite_cases_failed += sum(1 for v in verdicts if not v.passed)

    def _on_main(self, args, kwargs, code) -> None:
        self.exit_nonzero += code != 0

    # ---------------------------------------------------------------- report

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics by name, as (value, unit)."""
        c, gc, gs = self.calls, self.group_calls, self.group_s
        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self.self_s[layer], "s")
            out[f"{layer}.errors"] = (self.errors[layer], "count")
        rank_calls = c["permcore.rank_matrix"]
        distinct = len(self.rank_matrix_args)
        out.update(
            {
                "exactla.calls": (
                    sum(v for k, v in c.items() if k.startswith("exactla.")),
                    "count",
                ),
                "exactla.rank_calls": (c["exactla.ExactMatrix.rank"], "count"),
                "exactla.matmul_calls": (c["exactla.ExactMatrix.__matmul__"], "count"),
                "exactla.subspace_calls": (c["exactla.Subspace.span"], "count"),
                "varieties.southwest_profile_calls": (gc["varieties.southwest_profile"], "count"),
                "varieties.southwest_profile_s": (gs["varieties.southwest_profile"], "s"),
                "varieties.predicate_calls": (gc["varieties.predicate"], "count"),
                "permcore.rank_matrix_calls": (rank_calls, "count"),
                "permcore.covexillary_data_calls": (c["permcore.covexillary_data"], "count"),
                "permcore.distinct_w": (distinct, "count"),
                "permcore.rank_matrix_reuse": (distinct / rank_calls if rank_calls else 0.0, "ratio"),
                "embedding.embed_point_calls": (c["embedding.embed_point"], "count"),
                "embedding.target_calls": (gc["embedding.target"], "count"),
                "conormal.predicate_calls": (gc["conormal.predicate"], "count"),
                "conormal.predicate_s": (gs["conormal.predicate"], "s"),
                "conormal.fiber_calls": (gc["conormal.fiber"], "count"),
                "conormal.fiber_s": (gs["conormal.fiber"], "s"),
                "kl.table_builds": (gc["kl.table_build"], "count"),
                "kl.table_build_s": (gs["kl.table_build"], "s"),
                "kl.recursion_calls": (c["kl.SymmetricGroupTable.kl"], "count"),
                "kl.mu_list_calls": (c["kl.SymmetricGroupTable.mu_list"], "count"),
                "kl.mu_list_s": (gs["kl.mu_list"], "s"),
                "kl.grassmannian_kl_calls": (c["kl.grassmannian_kl"], "count"),
                "equivariant.poly_mul_calls": (c["equivariant.MultivariatePolynomial.__mul__"], "count"),
                "equivariant.double_schubert_s": (gs["equivariant.double_schubert"], "s"),
                "equivariant.restriction_s": (gs["equivariant.restriction"], "s"),
                "serialization.parse_calls": (gc["serialization.parse"], "count"),
                "serialization.parse_s": (gs["serialization.parse"], "s"),
                "cli.commands": (c["cli.main"], "count"),
                "cli.exit_nonzero": (self.exit_nonzero, "count"),
                "suites.cases": (self.suite_cases, "count"),
                "suites.cases_failed": (self.suite_cases_failed, "count"),
            }
        )
        return out
