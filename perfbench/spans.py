"""Spans around xpforge's layer entry points, and the per-layer metrics
read off them.

A span is (name, start, end, parent).  The recorder keeps spans in
memory; a layer's self time is the time its spans cover minus the time
their direct children cover.  Wrappers are installed from outside the
program: every module-level binding of an entry point is replaced,
because the modules import each other's names with ``from .x import y``.
Per-element hot calls (``mul``, ``Homomorphism.__call__``, ``Word``
arithmetic) are deliberately not wrapped.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter

from xpforge.harness import SUITES

LAYERS = (
    "words",
    "coset",
    "groups",
    "homology",
    "weakcomm",
    "tensor",
    "products",
    "catalog",
    "harness",
    "cli",
)

# layer -> entry points (module functions, or Class.method)
ENTRY_POINTS = {
    "words": ("parse_presentation",),
    "coset": ("enumerate_cosets", "CosetTable.relators_hold", "CosetTable.col_arrays"),
    "groups": (
        "group_from_presentation",
        "PermGroup.__init__",
        "TupleGroup.__init__",
        "SubgroupAsGroup.__init__",
        "QuotientGroup.__init__",
        "Homomorphism._verify",
        "Homomorphism.kernel",
        "Homomorphism.image",
        "subgroup_closure",
        "normal_closure",
        "commutator_subgroup",
        "intersection",
        "center",
        "derived_subgroup",
        "quotient",
        "p_group_data",
        "minimal_generator_count",
        "nilpotency_class",
        "exponent",
        "is_powerful",
    ),
    "homology": (
        "invariant_factors",
        "abelian_invariants",
        "bar_boundaries",
        "schur_multiplier_bar",
    ),
    "weakcomm": (
        "xp_presentation",
        "build_xp",
        "XPBundle.h2_invariants",
        "XPBundle.orders",
        "symmetrized_generators",
        "z_set",
        "swap_pairing_holds",
        "induced_xp_map",
    ),
    "tensor": (
        "tensor_relators",
        "nu_relators",
        "tensor_square_presentation",
        "nu_presentation",
        "build_tensor_square",
        "TensorSquare.h2_invariants",
        "build_nu",
        "NuBundle.h2_invariants",
        "NuBundle.delta_is_central",
        "NuBundle.delta_in_derived",
        "NuBundle.orders",
        "quotient_identification",
        "induced_nu_map",
    ),
    "products": ("im_rho_verify", "s_subgroup", "fibre_product"),
    "catalog": ("builtin_catalog", "catalog_entry", "CatalogEntry.presentation"),
    "harness": ("run_suite", "base_group", "xp_of", "tensor_of", "nu_of", "tower_demo", "_row"),
    "cli": ("main", "_parser", "_emit"),
}

# per-layer timing metric -> the spans whose self time it sums
TIMED = {
    "coset.enumerate_s": ("coset.enumerate_cosets",),
    "coset.certify_s": ("coset.CosetTable.relators_hold",),
    "groups.regrep_s": ("groups.PermGroup.__init__",),
    "groups.hom_verify_s": ("groups.Homomorphism._verify",),
    "groups.closure_s": (
        "groups.subgroup_closure",
        "groups.normal_closure",
        "groups.commutator_subgroup",
        "groups.intersection",
        "groups.center",
    ),
    "groups.kernel_s": ("groups.Homomorphism.kernel", "groups.Homomorphism.image"),
    "groups.product_s": ("groups.TupleGroup.__init__",),
    "groups.quotient_s": ("groups.QuotientGroup.__init__", "groups.SubgroupAsGroup.__init__"),
    "homology.snf_s": ("homology.invariant_factors",),
    "homology.bar_boundaries_s": ("homology.bar_boundaries",),
    "homology.abelian_invariants_s": ("homology.abelian_invariants",),
    "tensor.relators_s": ("tensor.tensor_relators", "tensor.nu_relators"),
    "weakcomm.presentation_s": ("weakcomm.xp_presentation",),
    "products.im_rho_s": ("products.im_rho_verify",),
}

# per-layer count metric -> the spans it counts
CALLS = {
    "coset.enumerate_calls": ("coset.enumerate_cosets",),
    "groups.hom_count": ("groups.Homomorphism._verify",),
    "groups.closure_calls": TIMED["groups.closure_s"],
    "homology.snf_calls": ("homology.invariant_factors",),
}

# per-layer count metric -> the spans whose results a hook (HOOKS) sums into it
SUMMED = {
    "coset.cosets_defined": ("coset.enumerate_cosets",),
    "coset.cosets_final": ("coset.enumerate_cosets",),
    "coset.cells_defined": ("coset.enumerate_cosets",),
    "coset.certify_relators": ("coset.CosetTable.relators_hold",),
    "homology.bar_nnz": ("homology.bar_boundaries",),
    "tensor.relator_letters": ("tensor.tensor_relators", "tensor.nu_relators"),
    "products.samples": ("products.im_rho_verify",),
}

# end-to-end stage -> the spans whose outermost occurrences it sums
STAGES = {
    "tensor_s": ("tensor.build_tensor_square", "tensor.TensorSquare.h2_invariants"),
    "xp_s": (
        "weakcomm.build_xp",
        "weakcomm.XPBundle.h2_invariants",
        "weakcomm.XPBundle.orders",
        "products.im_rho_verify",
    ),
    "nu_s": (
        "tensor.build_nu",
        "tensor.NuBundle.h2_invariants",
        "tensor.NuBundle.delta_is_central",
        "tensor.NuBundle.delta_in_derived",
    ),
}


def _count_enumeration(counts, args, kwargs, table):
    defined = table.stats["total_defined"]
    counts["coset.cosets_defined"] += defined
    counts["coset.cosets_final"] += table.n
    counts["coset.cells_defined"] += defined * 2 * table.ngens


def _count_relators(counts, args, kwargs, result):
    words = args[1] if len(args) > 1 else kwargs["relator_words"]
    counts["coset.certify_relators"] += len(words)


def _count_bar(counts, args, kwargs, result):
    d2, d3, _ = result
    counts["homology.bar_nnz"] += len(d2) + len(d3)


def _count_letters(counts, args, kwargs, words):
    counts["tensor.relator_letters"] += sum(len(w) for w in words)


def _count_samples(counts, args, kwargs, report):
    counts["products.samples"] += report.samples_checked


HOOKS = {
    "coset.enumerate_cosets": _count_enumeration,
    "coset.CosetTable.relators_hold": _count_relators,
    "homology.bar_boundaries": _count_bar,
    "tensor.tensor_relators": _count_letters,
    "tensor.nu_relators": _count_letters,
    "products.im_rho_verify": _count_samples,
}


class Recorder:
    """In-memory spans, one list per field, plus hook counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(self.clock())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = self.clock()
        self._stack.pop()

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                covered[p] += self.ends[i] - self.starts[i]
        return [e - s - c for s, e, c in zip(self.starts, self.ends, covered)]

    def stage_time(self, names) -> float | None:
        """Summed duration of the spans in `names` that have no ancestor
        in `names` (so a stage is never counted twice)."""
        names = set(names)
        total = None
        for i, n in enumerate(self.names):
            if n not in names:
                continue
            p = self.parents[i]
            while p >= 0 and self.names[p] not in names:
                p = self.parents[p]
            if p < 0:
                total = (total or 0.0) + self.ends[i] - self.starts[i]
        return total


def _wrap(rec: Recorder, name: str, fn):
    hook = HOOKS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = rec.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(i)
        if hook is not None:
            hook(rec.counts, args, kwargs, out)
        return out

    return traced


def install(rec: Recorder):
    """Wrap every entry point in ENTRY_POINTS; returns a function that
    puts the originals back."""
    mods = {layer: importlib.import_module(f"xpforge.{layer}") for layer in LAYERS}
    undo = []
    for layer, qualnames in ENTRY_POINTS.items():
        home = mods[layer]
        for qual in qualnames:
            name = f"{layer}.{qual}"
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[attr]
                setattr(cls, attr, _wrap(rec, name, orig))
                undo.append((cls, attr, orig))
                continue
            orig = getattr(home, qual)
            traced = _wrap(rec, name, orig)
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, traced)
                        undo.append((mod, key, orig))

    def uninstall():
        for owner, key, orig in reversed(undo):
            setattr(owner, key, orig)

    return uninstall


def layer_metrics(rec: Recorder, report=None) -> dict[str, float | None]:
    """Every per-layer metric; None where the layer or call never ran."""
    self_t = rec.self_times()
    by_name: dict[str, float] = {}
    calls: Counter = Counter()
    by_layer: dict[str, float] = {}
    for name, t in zip(rec.names, self_t):
        by_name[name] = by_name.get(name, 0.0) + t
        calls[name] += 1
        layer = name.split(".", 1)[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + t

    out: dict[str, float | None] = {}
    for metric, names in TIMED.items():
        hit = [by_name[n] for n in names if n in by_name]
        out[metric] = sum(hit) if hit else None
    for metric, names in CALLS.items():
        out[metric] = sum(calls[n] for n in names) or None
    for metric, names in SUMMED.items():
        out[metric] = rec.counts[metric] if any(calls[n] for n in names) else None
    defined, final = out["coset.cosets_defined"], out["coset.cosets_final"]
    out["coset.yield"] = final / defined if defined else None
    for layer in LAYERS:
        out[f"{layer}.self_s"] = by_layer.get(layer)
    for stage, names in STAGES.items():
        out[stage] = rec.stage_time(names)
    out.update(suite_seconds(report))
    return out


def is_timing(metric: str) -> bool:
    """Whether a metric is in seconds (its name ends in _s, or it is a
    harness.suite_s.<suite>) rather than a count or a ratio."""
    return metric.endswith("_s") or metric.startswith("harness.suite_s.")


def suite_seconds(report) -> dict[str, float | None]:
    """harness.suite_s.<suite>: summed row seconds of a verification report."""
    out: dict[str, float | None] = {f"harness.suite_s.{s}": None for s in SUITES}
    for row in report.rows if report is not None else ():
        key = f"harness.suite_s.{row['suite']}"
        out[key] = (out[key] or 0.0) + row["seconds"]
    return out
