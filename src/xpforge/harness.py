"""Verification harness: cached builds of every catalog construction and
the named check suites over them, assembled into deterministic reports.

Every suite but tower is one entry of the table _CHECKS: the name its
rows give the check, and a function fn(entry, limits) -> (ok, detail).
run_suite runs the suites in SUITES order, the table's order and then
tower.  A table suite makes one row per entry, and the fibre suite one
more, its randomized-specs row; the tower suite runs fixed cyclic towers
(tower_demo) and ignores the entries.

Rows are sorted by entry name, all randomness is seeded, and timing
lives in a single "seconds" field per row -- two runs differ at most
there.  A row's status is "pass", "fail", or "gated" (the check needs a
nu group whose predicted order exceeds the size gate, so it is out of
scope by construction rather than failed).  Any other error a check
raises fails that row alone, with its message as the detail: an
enumeration limit (EnumerationError, a RuntimeError, with the entry name
attached), a map that is not a homomorphism, or an order that is not a
prime power (ValueErrors).  The schur suite leaves out a gated nu route;
its third route, the relation module of the Cayley graph, runs at every
order.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field

from .catalog import CatalogEntry, builtin_catalog, catalog_entry
from .coset import EnumerationError, EnumerationLimits
from .groups import (
    FiniteGroup,
    Homomorphism,
    commutator_subgroup,
    derived_subgroup,
    exponent,
    group_from_presentation,
    is_powerful,
    minimal_generator_count,
    nilpotency_class,
    normal_closure,
    p_group_data,
    quotient,
)
from .homology import abelian_invariants, schur_multiplier
from .products import FibreSpec, fibre_product, im_rho_verify, s_subgroup
from .tensor import (
    SizeGateError,
    build_nu,
    build_tensor_square,
    induced_nu_map,
    quotient_identification,
)
from .weakcomm import (
    build_xp,
    induced_xp_map,
    swap_pairing_holds,
    symmetrized_generators,
    z_set,
)

SCHEMA_VERSION = 1
_FIBRE_SEED = 0xF1B7E

# every build is cached under (entry, limits): a build made without limits
# must not answer for one made under a cap it would not have met
_base_cache: dict[tuple, FiniteGroup] = {}
_xp_cache: dict[tuple, object] = {}
_tensor_cache: dict[tuple, object] = {}
_nu_cache: dict[tuple, object] = {}


def clear_caches():
    for c in (_base_cache, _xp_cache, _tensor_cache, _nu_cache):
        c.clear()


def _entry_context(entry: CatalogEntry, exc: EnumerationError) -> EnumerationError:
    return EnumerationError(f"{entry.name}: {exc}", exc.cosets_used)


def _cached(cache: dict, entry: CatalogEntry, limits, build):
    """cache[entry, limits], made by build() on the first call; an
    enumeration limit error is raised with the entry's name."""
    key = entry, limits
    if key not in cache:
        try:
            cache[key] = build()
        except EnumerationError as exc:
            raise _entry_context(entry, exc) from exc
    return cache[key]


def base_group(entry: CatalogEntry, limits: EnumerationLimits | None = None) -> FiniteGroup:
    def build():
        G = group_from_presentation(entry.presentation(), limits=limits, name=entry.name)
        if entry.expected_order is not None and G.order != entry.expected_order:
            raise RuntimeError(
                f"{entry.name}: presentation enumerates to {G.order}, "
                f"catalog expects {entry.expected_order}"
            )
        p, _ = p_group_data(G)
        if entry.p and p != entry.p:
            raise RuntimeError(f"{entry.name}: order {G.order} is not a power of {entry.p}")
        return G

    return _cached(_base_cache, entry, limits, build)


def xp_of(entry: CatalogEntry, limits: EnumerationLimits | None = None):
    G = base_group(entry, limits)
    return _cached(_xp_cache, entry, limits, lambda: build_xp(G, limits=limits))


def tensor_of(entry: CatalogEntry, limits: EnumerationLimits | None = None):
    G = base_group(entry, limits)
    return _cached(_tensor_cache, entry, limits, lambda: build_tensor_square(G, limits=limits))


def nu_of(entry: CatalogEntry, limits: EnumerationLimits | None = None):
    G, T = base_group(entry, limits), tensor_of(entry, limits)

    def build():
        try:
            return build_nu(G, tensor=T, limits=limits)
        except SizeGateError as exc:
            return exc  # a gated entry stays gated

    out = _cached(_nu_cache, entry, limits, build)
    if isinstance(out, SizeGateError):
        raise out
    return out


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


@dataclass
class VerificationReport:
    suite: str
    rows: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r["status"] != "fail" for r in self.rows)

    def counts(self) -> dict[str, int]:
        out = {"pass": 0, "fail": 0, "gated": 0}
        for r in self.rows:
            out[r["status"]] += 1
        return out

    def as_dict(self, include_timing: bool = True) -> dict:
        rows = self.rows
        if not include_timing:
            rows = [{k: v for k, v in r.items() if k != "seconds"} for r in rows]
        return {
            "schema": SCHEMA_VERSION,
            "suite": self.suite,
            "ok": self.ok,
            "summary": self.counts(),
            "results": rows,
        }

    def to_json(self, indent: int | None = 2, include_timing: bool = True) -> str:
        return json.dumps(self.as_dict(include_timing), indent=indent) + "\n"


def _row(suite: str, entry: str, check: str, fn) -> dict:
    t0 = time.perf_counter()
    try:
        ok, detail = fn()
        status = "pass" if ok else "fail"
    except SizeGateError as exc:
        status = "gated"
        detail = {"predicted_order": exc.predicted, "gate": exc.gate}
    except (RuntimeError, ValueError) as exc:
        status = "fail"
        detail = {"error": str(exc)}
    return {
        "suite": suite,
        "entry": entry,
        "check": check,
        "status": status,
        "detail": detail,
        "seconds": round(time.perf_counter() - t0, 3),
    }


# ---------------------------------------------------------------------------
# checks: each takes built objects and returns (ok, facts); the suite rows
# and the single-group CLI commands show different selections of the facts
# ---------------------------------------------------------------------------


def xp_order_law(xb) -> tuple[bool, dict]:
    """|X| = |im rho| * |W| and |im rho| = |G|^3 / |G^ab|."""
    G = xb.base
    od = xb.orders()
    ab = G.order // derived_subgroup(G).order
    ok = od["group"] == od["im_rho"] * od["W"] and od["im_rho"] == G.order**3 // ab
    return ok, {"orders": od, "abelianization_order": ab}


def nu_order_law(nb) -> tuple[bool, dict]:
    """|nu| = |G|^2 * |T|, with Delta central and inside the derived
    subgroup."""
    central = nb.delta_is_central()
    inside = nb.delta_in_derived()
    law = nb.group.order == nb.base.order**2 * nb.tensor.order
    facts = {"delta_central": central, "delta_in_derived": inside, "order_law_holds": law}
    return law and central and inside, facts


def multiplier_routes(xb, T, nb=None, entry: CatalogEntry | None = None) -> tuple[bool, dict]:
    """The multiplier of the base G read from X(G), from T(G), from the
    relation module of G's Cayley graph, and from nu(G) when it was built:
    every route gives the same invariants, and they match the catalog
    expectation when the entry has one.  The third route reports under
    "bar", the key of the bar-complex route whose values it gives, so
    reports keep their bytes."""
    routes = {
        "doubling": xb.h2_invariants(),
        "pairing": T.h2_invariants(),
        "bar": schur_multiplier(xb.base),
    }
    if nb is not None:
        routes["nu"] = nb.h2_invariants()
    vals = list(routes.values())
    agree = all(v == vals[0] for v in vals)
    facts = {"routes": routes, "agree": agree}
    ok = agree
    if entry is not None and entry.expected_h2 is not None:
        matches = vals[0] == list(entry.expected_h2)
        facts["expected"] = {
            "invariants": list(entry.expected_h2),
            "provenance": entry.h2_provenance,
        }
        facts["matches_expected"] = matches
        ok = ok and matches
    return ok, facts


def fibre_law(G: FiniteGroup) -> tuple[bool, dict]:
    """|S| * |G^ab| = |G|^2 for the antidiagonal subgroup S of G x G;
    s_subgroup raises RuntimeError when S is not the antipodal fibre
    product."""
    s_order = int(s_subgroup(G).sum())
    ab = G.order // derived_subgroup(G).order
    facts = {
        "ambient_order": G.order**2,
        "antidiagonal_order": s_order,
        "abelianization_order": ab,
        "expected": G.order**2 // ab,
    }
    return s_order * ab == G.order**2, facts


# ---------------------------------------------------------------------------
# suites: one check per entry, fn(entry, limits) -> (ok, detail)
# ---------------------------------------------------------------------------


def _orders(e, limits):
    ok, detail = xp_order_law(xp_of(e, limits))
    T = tensor_of(e, limits)
    detail["tensor_order"] = T.group.order
    try:
        nb = nu_of(e, limits)
        ok = ok and nu_order_law(nb)[0]
        detail["nu_orders"] = nb.orders()
    except SizeGateError as exc:
        detail["nu"] = {"gated": True, "predicted_order": exc.predicted}
    return ok, detail


def _dl_commute(e, limits):
    xb = xp_of(e, limits)
    cross = commutator_subgroup(xb.L, xb.D)
    swap = swap_pairing_holds(xb)
    detail = {"LD_commutator_order": cross.order, "swap_pairing": swap}
    return cross.order == 1 and swap, detail


def _schur(e, limits):
    xb, T = xp_of(e, limits), tensor_of(e, limits)
    try:
        nb = nu_of(e, limits)
    except SizeGateError:
        nb = None
    ok, facts = multiplier_routes(xb, T, nb, e)
    detail = {k: facts[k] for k in ("routes", "expected") if k in facts}
    return ok, detail


def _rtrivial(e, limits):
    G = base_group(e, limits)
    d = minimal_generator_count(G)
    r = xp_of(e, limits).R.order
    detail = {"generator_count": d, "R_order": r}
    if d <= 2:
        return r == 1, detail
    detail["note"] = "needs more than two generators; R unconstrained"
    return True, detail


def _z1(e, limits):
    xb = xp_of(e, limits)
    base = xb.base
    sets = [symmetrized_generators(base)]
    used = set(sets[0])
    spare = next(
        (g for g in base.elements if g != base.identity and g not in used),
        None,
    )
    if spare is not None:
        sets.append(symmetrized_generators(base, extra=[spare]))
    matches = []
    for s in sets:
        closure = normal_closure(xb.group, z_set(xb, s))
        matches.append(closure == xb.R)
    detail = {
        "set_sizes": [len(s) for s in sets],
        "R_order": xb.R.order,
        "closure_matches_R": matches,
    }
    if spare is None:
        detail["note"] = "group too small for a second symmetric set"
    return all(matches), detail


def _imrho(e, limits):
    rep = im_rho_verify(xp_of(e, limits))
    return rep.ok, rep.as_dict()


def _iso99(e, limits):
    nb = nu_of(e, limits)
    xb = xp_of(e, limits)
    phi = quotient_identification(xb, nb)
    detail = {
        "common_order": phi.codomain.order,
        "R_order": xb.R.order,
        "delta_order": nb.delta.order,
    }
    return True, detail


def _delta_central(e, limits):
    nb = nu_of(e, limits)
    ok, facts = nu_order_law(nb)
    detail = {
        "delta_order": nb.delta.order,
        "central": facts["delta_central"],
        "in_derived": facts["delta_in_derived"],
    }
    return ok, detail


# nu of an odd-prime cyclic group is never powerful; the C9 expectation
# was derived by this engine and frozen (C3's is also forced by its
# order-27 class-2 shape)
_EXPECTED_NOT_POWERFUL = {"C3", "C9"}


def _powerful(e, limits):
    nb = nu_of(e, limits)
    pw = is_powerful(nb.group)
    detail = {
        "nu_order": nb.group.order,
        "nu_powerful": pw,
        "nu_class": nilpotency_class(nb.group),
        "nu_exponent": exponent(nb.group),
    }
    ok = True
    if e.name in _EXPECTED_NOT_POWERFUL:
        ok = pw is False
    if e.name == "C3":
        ok = ok and (
            nb.group.order == 27
            and detail["nu_class"] == 2
            and detail["nu_exponent"] == 3
            and abelian_invariants(nb.tensor.as_group()) == [3]
        )
    return ok, detail


def _fibre(e, limits):
    ok, facts = fibre_law(base_group(e, limits))
    return ok, {"s_order": facts["antidiagonal_order"], "expected": facts["expected"]}


def _random_fibre_specs(entries, limits):
    """The fibre order law on ten seeded quotient maps of small entries:
    the fibre suite's one row that is not per entry.  It draws only from
    the entries whose base builds, since the others fail their own rows,
    and fails only when none builds."""
    rng = random.Random(_FIBRE_SEED)
    built, error = [], ValueError("no catalog entry to draw from")
    for e in entries:
        try:
            built.append((e, base_group(e, limits)))
        except (RuntimeError, ValueError) as exc:
            error = exc
    if not built:
        raise error
    pool = [(e, G) for e, G in built if G.order <= 16] or built
    checked = 0
    while checked < 10:
        e, G = pool[rng.randrange(len(pool))]
        w = rng.choice(G.elements)
        Q = quotient(G, normal_closure(G, [w]))
        p1 = Q.projection
        g0 = rng.choice(G.elements)
        moved = G._conjugates(G.generators, [g0] * len(G.generators))
        p2 = Homomorphism(G, Q, p1._image[moved].tolist())
        sub = fibre_product(FibreSpec(p1, p2))
        if sub.sum() * Q.order != G.order * G.order:
            return False, {"failed_on": e.name}
        checked += 1
    return True, {"specs_checked": checked, "seed": _FIBRE_SEED}


# suite -> (the check its rows name, the per-entry check), in report order
_CHECKS = {
    "orders": ("order-laws", _orders),
    "dl-commute": ("kernels-commute", _dl_commute),
    "schur": ("three-route-multiplier", _schur),
    "rtrivial": ("r-trivial-when-2-generated", _rtrivial),
    "z1": ("z-closure-equals-R", _z1),
    "imrho": ("image-description", _imrho),
    "iso99": ("xr-equals-nu-delta", _iso99),
    "delta-central": ("delta-in-center-and-derived", _delta_central),
    "powerful": ("nu-powerful-profile", _powerful),
    "fibre": ("antidiagonal-fibre", _fibre),
}
# the tower suite runs fixed cyclic towers, not a check per entry
SUITES = (*_CHECKS, "tower")


# ---------------------------------------------------------------------------
# towers
# ---------------------------------------------------------------------------


def _cyclic_entry(p: int, k: int) -> CatalogEntry:
    name = f"C{p**k}"
    try:
        found = catalog_entry(name)
        if found.p == p:
            return found
    except KeyError:
        pass
    return CatalogEntry(name, p, f"gens a\nrels a^{p**k}", p**k, None)


def _step_map(hi: FiniteGroup, lo: FiniteGroup) -> Homomorphism:
    return Homomorphism(hi, lo, [lo.generators[0]])


def tower_demo(p: int, depth: int, limits: EnumerationLimits | None = None) -> VerificationReport:
    """Cyclic tower C_{p^depth} -> ... -> C_p: builds both doubled-group
    and nu functor images of every step and checks surjectivity,
    fold-compatibility, and functoriality of composites."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    report = VerificationReport("tower")
    entries = [_cyclic_entry(p, k) for k in range(depth, 0, -1)]
    if depth == 1:
        report.rows.append(
            _row("tower", entries[0].name, f"p{p}-single-level", lambda: (True, {"note": "single level; nothing to map"}))
        )
        return report

    def step_map(i):
        # built inside the rows, so a build over the limits fails its rows
        return _step_map(base_group(entries[i], limits), base_group(entries[i + 1], limits))

    def step(i, bundle_of, induced_map):
        def fn():
            f = step_map(i)
            hi, lo = bundle_of(entries[i], limits), bundle_of(entries[i + 1], limits)
            F = induced_map(f, hi, lo)
            surj = F.is_surjective()
            folds = all(lo.alpha(F(x)) == f(hi.alpha(x)) for x in hi.group.elements)
            return surj and folds, {"surjective": surj, "fold_compatible": folds}

        return fn

    for i in range(depth - 1):
        label = f"{entries[i].name}->{entries[i + 1].name}"
        report.rows.append(_row("tower", label, "doubled-step", step(i, xp_of, induced_xp_map)))
        report.rows.append(_row("tower", label, "nu-step", step(i, nu_of, induced_nu_map)))

    def xp_functorial(i):
        def fn():
            a, b, c = entries[i], entries[i + 1], entries[i + 2]
            f, g = step_map(i), step_map(i + 1)
            comp = Homomorphism(f.domain, g.codomain, [g(f(x)) for x in f.domain.generators])
            F_comp = induced_xp_map(comp, xp_of(a, limits), xp_of(c, limits))
            F1 = induced_xp_map(f, xp_of(a, limits), xp_of(b, limits))
            F2 = induced_xp_map(g, xp_of(b, limits), xp_of(c, limits))
            agree = all(F_comp(x) == F2(F1(x)) for x in xp_of(a, limits).group.elements)
            return agree, {"composite_agrees": agree}

        return fn

    for i in range(depth - 2):
        label = f"{entries[i].name}->{entries[i + 2].name}"
        report.rows.append(_row("tower", label, "functoriality", xp_functorial(i)))
    return report


def run_suite(
    name: str,
    entries: list[CatalogEntry] | None = None,
    limits: EnumerationLimits | None = None,
) -> VerificationReport:
    """Run one named suite (or "all", every suite in SUITES order) over
    the entries, default the built-in catalog.  The tower suite runs fixed
    cyclic demonstrations and ignores the entry list."""
    if name != "all" and name not in SUITES:
        known = ", ".join(("all",) + SUITES)
        raise ValueError(f"unknown suite {name!r} (known: {known})")
    if entries is None:
        entries = builtin_catalog()
    entries = sorted(entries, key=lambda e: e.name)
    report = VerificationReport(name)
    for suite in SUITES if name == "all" else (name,):
        if suite == "tower":
            for p, depth in ((2, 3), (3, 2)):
                report.rows.extend(tower_demo(p, depth, limits).rows)
            continue
        check, fn = _CHECKS[suite]
        for e in entries:
            report.rows.append(_row(suite, e.name, check, lambda e=e: fn(e, limits)))
        if suite == "fibre":
            report.rows.append(
                _row(suite, "randomized-specs", "order-law", lambda: _random_fibre_specs(entries, limits))
            )
    return report
