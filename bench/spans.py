"""In-memory span tracer that wraps the layers of mellinsys from outside.

``Tracer.install`` replaces the public functions of every layer module,
wherever they are bound (``cli`` imports ``series`` names by value), and the
public methods and arithmetic operators of ``TruncatedSeries``,
``DiffOperator`` and ``ThetaPoly`` with wrappers that record a span
(name, start, end, parent) per call.  Spans stay in memory until the run
ends; ``layer_metrics`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "profiles", "rings", "series", "weyl", "roots")

# Called once per coefficient or exponent: a span would cost more than the
# work it times, so these run unwrapped and their time counts to the caller.
UNSPANNED = {"profiles.dot", "profiles.var_names"}

# Per-element field arithmetic inside exact elimination: counted, not spanned.
COUNTED = {"rings.CyclotomicField.mul", "rings.CyclotomicField.inv"}

SPANNED_CLASSES = {"series.TruncatedSeries", "weyl.DiffOperator", "weyl.ThetaPoly"}
OPERATORS = {"__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__pow__"}
TRIVIAL_METHODS = {"coefficient", "is_zero"}

WEYL_SYSTEMS = {"indicial_theta_poly", "theta_product", "mellin_system",
                "mellin_system_theta_form", "horn_system",
                "horn_mellin_multiplier", "lattice_matrices",
                "mellin_operator_1d", "euler_product_identity"}
WEYL_FACTORIZATION = {"theta_factorization", "derivative_factorization",
                      "right_divide_theta_minus_one", "factorization_check",
                      "discriminant_poly", "leading_coefficient",
                      "poly_scale_ratio", "equals_up_to_rational_scale"}
ROOTS_TOTALS = ("log_solution", "relation_check", "mellin_residual",
                "invariant_subspace_witness", "equation_report",
                "roots_at_point")
RANKS = {"rank_cyclotomic_exact": "cyclotomic", "rank_rational": "rational",
         "rank_complex": "complex"}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Records spans of wrapped calls; single-threaded by design."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []        # (name, start, end, parent index or -1)
        self.counters: Counter = Counter()
        self.keys: dict = defaultdict(set)
        self._stack: list = []
        self._patches: list = []

    # -- wrappers ------------------------------------------------------------

    def span(self, fn, name, hook=None):
        """Wrap fn; hook(args, kwargs) may count work and rename the span."""
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = hook(args, kwargs) if hook else name
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (label, start, clock(), parent)
                stack.pop()
        return wrapper

    def count(self, fn, name):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name + ".calls"] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- counters for the exact operation counts -------------------------------

    def _hook(self, name):
        c, keys = self.counters, self.keys
        if name in ("series.TruncatedSeries.__mul__",
                    "series.TruncatedSeries.__rmul__"):
            def hook(args, kwargs):
                a, b = args
                if not isinstance(b, type(a)):
                    return "series.mul.scalar"
                label = ("series.mul.complex" if a.ring.name == "complex"
                         else "series.mul.exact")
                c[label + ".term_pairs"] += len(a.terms) * len(b.terms)
                return label
            return hook
        if name == "weyl.DiffOperator.__mul__":
            def hook(args, kwargs):
                a, b = args
                return "weyl.compose" if isinstance(b, type(a)) else name
            return hook
        if name == "weyl.DiffOperator.apply":
            def hook(args, kwargs):
                op, series = args[0], _arg(args, kwargs, 1, "series")
                c["weyl.apply.term_pairs"] += len(op.terms) * len(series.terms)
                return "weyl.apply"
            return hook
        if name.startswith("series.rank_"):
            label = "series.rank." + RANKS[name.split(".", 1)[1]]

            def hook(args, kwargs):
                rows = _arg(args, kwargs, 0, "rows")
                if rows and rows[0]:
                    c[label + ".entries"] += len(rows) * len(rows[0])
                return label
            return hook
        if name == "roots.lift_jets":
            def hook(args, kwargs):
                inst = _arg(args, kwargs, 0, "instance")
                p = inst.profile
                keys[name].add((p.m, tuple(p.m_list), tuple(inst.twist),
                                _arg(args, kwargs, 1, "order")))
                return name
            return hook
        if name == "series.principal_series":
            def hook(args, kwargs):
                p = _arg(args, kwargs, 0, "profile")
                keys[name].add((p.m, tuple(p.m_list),
                                _arg(args, kwargs, 1, "order")))
                return name
            return hook
        return None

    # -- installation ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap(self, fn, name):
        return self.span(fn, name, self._hook(name))

    def install(self, package: str = "mellinsys") -> None:
        modules = [importlib.import_module(package)] + [
            importlib.import_module(f"{package}.{layer}") for layer in LAYERS]
        wrapped = {}
        for layer, mod in zip(LAYERS, modules[1:]):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if inspect.isclass(obj):
                    self._install_class(obj, name)
                elif (callable(obj) and name not in UNSPANNED
                      and not inspect.isgeneratorfunction(obj)):
                    wrapped[id(obj)] = (obj, self._wrap(obj, name))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])

    def _install_class(self, cls, name):
        for attr, obj in list(vars(cls).items()):
            full = f"{name}.{attr}"
            if full in COUNTED:
                self._set(cls, attr, self.count(obj, full))
            elif (name in SPANNED_CLASSES and inspect.isfunction(obj)
                  and (attr in OPERATORS or not attr.startswith("_"))
                  and attr not in TRIVIAL_METHODS):
                self._set(cls, attr, self._wrap(obj, full))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for cs, ce in sorted(children.get(i, ())):
            cs, ce = max(cs, reach), min(ce, end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out.append(end - start - covered)
    return out


def aggregate(spans) -> dict:
    """Per span name: calls, total_s (outermost spans only) and self_s."""
    stats: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for (name, start, end, parent), own in zip(spans, self_times(spans)):
        st = stats[name]
        st["calls"] += 1
        st["self_s"] += own
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            st["total_s"] += end - start
    return dict(stats)


def layer_metrics(stats: dict, counters: dict, distinct: dict) -> dict:
    """The per-layer metrics (name -> (value, unit)) from aggregated spans."""
    def get(name, field):
        return stats.get(name, {}).get(field, 0)

    def group_self(names):
        return sum(get(n, "self_s") for n in names)

    def ratio(name):
        calls = get(name, "calls")
        return distinct.get(name, 0) / calls if calls else 0.0

    out = {}
    out["roots.lift_jets.calls"] = (get("roots.lift_jets", "calls"), "count")
    out["roots.lift_jets.total_s"] = (get("roots.lift_jets", "total_s"), "s")
    out["roots.lift_jets.self_s"] = (get("roots.lift_jets", "self_s"), "s")
    out["roots.lift_jets.distinct_ratio"] = (ratio("roots.lift_jets"), "ratio")
    for kind in ("complex", "exact"):
        name = f"series.mul.{kind}"
        out[name + ".calls"] = (get(name, "calls"), "count")
        out[name + ".self_s"] = (get(name, "self_s"), "s")
        out[name + ".term_pairs"] = (counters.get(name + ".term_pairs", 0), "count")
    for op in ("inverse", "log"):
        name = f"series.TruncatedSeries.{op}"
        out[f"series.{op}.calls"] = (get(name, "calls"), "count")
        out[f"series.{op}.self_s"] = (get(name, "self_s"), "s")
    for kind in RANKS.values():
        name = f"series.rank.{kind}"
        out[name + ".calls"] = (get(name, "calls"), "count")
        out[name + ".self_s"] = (get(name, "self_s"), "s")
        out[name + ".entries"] = (counters.get(name + ".entries", 0), "count")
    for name in sorted(COUNTED):
        out[name + ".calls"] = (counters.get(name + ".calls", 0), "count")
    out["weyl.compose.calls"] = (get("weyl.compose", "calls"), "count")
    out["weyl.compose.self_s"] = (get("weyl.compose", "self_s"), "s")
    out["weyl.systems.self_s"] = (group_self(f"weyl.{n}" for n in WEYL_SYSTEMS), "s")
    out["weyl.factorization.self_s"] = (
        group_self(f"weyl.{n}" for n in WEYL_FACTORIZATION), "s")
    out["weyl.apply.calls"] = (get("weyl.apply", "calls"), "count")
    out["weyl.apply.self_s"] = (get("weyl.apply", "self_s"), "s")
    out["weyl.apply.term_pairs"] = (counters.get("weyl.apply.term_pairs", 0), "count")
    for fn in ("convenient_basis_series", "principal_series", "rotate"):
        name = f"series.{fn}"
        out[name + ".calls"] = (get(name, "calls"), "count")
        out[name + ".self_s"] = (get(name, "self_s"), "s")
    out["series.principal_series.distinct_ratio"] = (
        ratio("series.principal_series"), "ratio")
    out["series.render.self_s"] = (
        group_self(("series.format_series", "series.series_to_json")), "s")
    out["cli.cmd.self_s"] = (
        group_self(n for n in stats if n.startswith("cli.cmd_")), "s")
    for fn in ROOTS_TOTALS:
        out[f"roots.{fn}.total_s"] = (get(f"roots.{fn}", "total_s"), "s")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (
            group_self(n for n in stats if n.startswith(layer + ".")), "s")
    return out
