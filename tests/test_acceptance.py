"""Acceptance gate: one criterion per test, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Every check is exact (invariant lists, orders, set equality) except where a
criterion states a sampling floor or a wall-clock budget, noted inline.
"""

import json
import random
import time
from contextlib import contextmanager

import numpy as np

from xpforge.catalog import builtin_catalog, catalog_entry
from xpforge.coset import EnumerationLimits
from xpforge.groups import (
    Homomorphism,
    commutator_subgroup,
    derived_subgroup,
    exponent,
    group_from_presentation,
    is_powerful,
    nilpotency_class,
    normal_closure,
    quotient,
)
from xpforge.harness import (
    base_group,
    clear_caches,
    nu_of,
    run_suite,
    tensor_of,
    tower_demo,
    xp_of,
)
from xpforge.homology import abelian_invariants, schur_multiplier
from xpforge.products import FibreSpec, antipodal_spec, fibre_product, s_subgroup
from xpforge.tensor import SizeGateError, build_nu, build_tensor_square, quotient_identification
from xpforge.weakcomm import build_xp, swap_pairing_holds, symmetrized_generators, z_set
from xpforge.products import im_rho_verify

ENTRIES = builtin_catalog()
ORDER27 = [e for e in ENTRIES if e.expected_order == 27]
TWO_GENERATED = (
    "C4", "C8", "C9", "C2xC2", "C2xC4", "C3xC3", "D8", "Q8", "Heis27", "Mod27",
)


@contextmanager
def criterion(num, label):
    rec = {"ok": False, "note": ""}
    try:
        yield rec
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {label}: FAIL (exception)")
        raise
    note = f" ({rec['note']})" if rec["note"] else ""
    print(f"ACCEPTANCE {num:02d} {label}: {'PASS' if rec['ok'] else 'FAIL'}{note}")
    assert rec["ok"], f"criterion {num:02d} {label} failed: {rec['note']}"


def test_criterion_01_three_route_multiplier_agreement(bar_oracle):
    # exact equality of invariant-factor lists across the doubling quotient,
    # the pairing kernel, and the Cayley graph's relation module, with the
    # bar resolution as the oracle beside them; order-27 entries each
    # within a 600 s budget
    with criterion(1, "three-route multiplier agreement") as rec:
        bad = []
        slow = []
        for e in ENTRIES:
            t0 = time.monotonic()
            routes = {
                "doubling": xp_of(e).h2_invariants(),
                "pairing": tensor_of(e).h2_invariants(),
                "relation-module": schur_multiplier(base_group(e)),
                "bar": bar_oracle(e.presentation_text),
            }
            elapsed = time.monotonic() - t0
            expected = list(e.expected_h2)
            if not all(v == expected for v in routes.values()):
                bad.append((e.name, routes, expected))
            if e.expected_order == 27 and elapsed >= 600:
                slow.append((e.name, elapsed))
        rec["ok"] = not bad and not slow
        rec["note"] = f"{len(ENTRIES)} entries, 3 routes and the bar oracle each" + (
            f"; mismatches {bad}; slow {slow}" if bad or slow else ""
        )


def test_criterion_02_r_trivial_for_two_generated_entries():
    with criterion(2, "R trivial whenever the base needs two generators") as rec:
        bad = [n for n in TWO_GENERATED if xp_of(catalog_entry(n)).R.order != 1]
        rec["ok"] = not bad
        rec["note"] = f"{len(TWO_GENERATED)} entries" + (f"; R != 1 for {bad}" if bad else "")


def test_criterion_03_l_d_commute_and_pairing_swaps():
    # both checks exhaustive: [L, D] over every element pair, the swap
    # identity over the full base square
    with criterion(3, "[L, D] = 1 and the pairing swaps sides") as rec:
        bad = []
        for e in ENTRIES:
            xb = xp_of(e)
            if commutator_subgroup(xb.L, xb.D).order != 1:
                bad.append((e.name, "L-D"))
            if not swap_pairing_holds(xb):
                bad.append((e.name, "swap"))
        rec["ok"] = not bad
        rec["note"] = f"{len(ENTRIES)} entries, exhaustive" + (f"; {bad}" if bad else "")


def test_criterion_04_image_of_rho_description():
    # exhaustive for bases of order <= 8; otherwise >= 1e5 sampled triples
    # in each direction with zero mismatches; index always exact
    with criterion(4, "im(rho) = triples with g1*g2^-1*g3 in the derived subgroup") as rec:
        bad = []
        for e in ENTRIES:
            rep = im_rho_verify(xp_of(e))
            d = rep.as_dict()
            mode = d["equality"]["mode"]
            want_mode = "exhaustive" if e.expected_order <= 8 else "sampled"
            if not rep.ok or mode != want_mode:
                bad.append((e.name, mode, d["equality"]["mismatches"]))
            if mode == "sampled" and d["equality"]["samples_checked"] < 2 * 10**5:
                bad.append((e.name, "undersampled", d["equality"]["samples_checked"]))
        rec["ok"] = not bad
        rec["note"] = f"{len(ENTRIES)} entries" + (f"; {bad}" if bad else "")


def test_criterion_05_z_set_closure_equals_r():
    with criterion(5, "normal closure of the z-set recovers R, two generating sets") as rec:
        bad = []
        for name in ("C2xC2", "D8", "Q8", "Heis27"):
            xb = xp_of(catalog_entry(name))
            base = xb.base
            first = symmetrized_generators(base)
            spare = next(
                g for g in base.elements if g != base.identity and g not in set(first)
            )
            second = symmetrized_generators(base, extra=[spare])
            assert set(first) != set(second)
            for s in (first, second):
                if normal_closure(xb.group, z_set(xb, s)) != xb.R:
                    bad.append((name, len(s)))
        rec["ok"] = not bad
        rec["note"] = "4 entries x 2 symmetric sets" + (f"; {bad}" if bad else "")


def test_criterion_06_doubled_mod_r_is_pairing_mod_delta():
    # generator-identity map X -> nu/Delta: surjective with kernel exactly R,
    # plus Delta central and inside the derived subgroup, for every entry
    # whose pairing group clears the default size gate
    with criterion(6, "X/R matches nu/Delta and Delta is central stem") as rec:
        identified, gated, bad = [], [], []
        for e in ENTRIES:
            try:
                nb = nu_of(e)
            except SizeGateError:
                gated.append(e.name)
                continue
            quotient_identification(xp_of(e), nb)  # raises on any mismatch
            if not (nb.delta_is_central() and nb.delta_in_derived()):
                bad.append(e.name)
            identified.append(e.name)
        rec["ok"] = not bad and len(identified) == 10 and sorted(gated) == ["Heis27", "Mod27"]
        rec["note"] = f"{len(identified)} identified, gated: {sorted(gated)}" + (
            f"; delta failures {bad}" if bad else ""
        )


def test_criterion_07_pairing_group_of_c3_profile():
    # fresh build, wall-clock under 5 s
    with criterion(7, "nu of C3: order 27, class 2, exponent 3, not powerful") as rec:
        t0 = time.monotonic()
        G = group_from_presentation(catalog_entry("C3").presentation())
        nb = build_nu(G)
        elapsed = time.monotonic() - t0
        facts = {
            "order": nb.group.order,
            "class": nilpotency_class(nb.group),
            "exponent": exponent(nb.group),
            "tensor": abelian_invariants(nb.tensor.as_group()),
            "powerful": is_powerful(nb.group),
        }
        rec["ok"] = (
            facts == {"order": 27, "class": 2, "exponent": 3, "tensor": [3], "powerful": False}
            and elapsed < 5.0
        )
        rec["note"] = f"{facts}, {elapsed:.2f}s"


def test_criterion_08_doubled_group_orders():
    # fresh enumerations, < 60 s total; the order identity
    # |X| = |im rho| * |W| with |im rho| = |G|^3 / |G_ab| must agree with
    # the directly enumerated order
    with criterion(8, "doubled-group orders 4, 32, 256") as rec:
        t0 = time.monotonic()
        got = {}
        ok = True
        for name, want in (("C2", 4), ("C2xC2", 32), ("D8", 256)):
            G = group_from_presentation(catalog_entry(name).presentation())
            xb = build_xp(G)
            ab = G.order // derived_subgroup(G).order
            via_identity = (G.order**3 // ab) * xb.W.order
            got[name] = xb.group.order
            ok = ok and xb.group.order == via_identity == want
            ok = ok and xb.im_rho.sum() == G.order**3 // ab
        elapsed = time.monotonic() - t0
        rec["ok"] = ok and elapsed < 60.0
        rec["note"] = f"{got}, {elapsed:.2f}s"


def test_criterion_09_tower_maps():
    # doubled chain X(C8) ->> X(C4) ->> X(C2) and pairing chain
    # nu(C9) ->> nu(C3): surjective, fold-compatible, functorial
    with criterion(9, "tower maps surjective, functorial, fold-compatible") as rec:
        two = tower_demo(2, 3)
        three = tower_demo(3, 2)
        rows = two.rows + three.rows
        bad = [(r["entry"], r["check"]) for r in rows if r["status"] != "pass"]
        names = {r["entry"] for r in rows}
        rec["ok"] = not bad and {"C8->C4", "C4->C2", "C9->C3"} <= names
        rec["note"] = f"{len(rows)} checks over {sorted(names)}" + (f"; {bad}" if bad else "")


def test_criterion_10_antidiagonal_and_fibre_order_law():
    with criterion(10, "antidiagonal = antipodal fibre product; fibre order law") as rec:
        bad = []
        for name in ("C4", "D8", "Q8"):
            H = base_group(catalog_entry(name))
            if not np.array_equal(s_subgroup(H), fibre_product(antipodal_spec(H))):
                bad.append(name)
        rng = random.Random(0xACC_E97)
        pool = ["C4", "C8", "C2xC2", "C2xC4", "D8", "Q8"]
        laws = 0
        for _ in range(10):
            G = base_group(catalog_entry(rng.choice(pool)))
            Q = quotient(G, normal_closure(G, [rng.choice(G.elements)]))
            p1 = Q.projection
            g0 = rng.choice(G.elements)
            p2 = Homomorphism(G, Q, [p1(G.conj(x, g0)) for x in G.generators])
            sub = fibre_product(FibreSpec(p1, p2))
            if np.count_nonzero(sub) * Q.order == G.order * G.order:
                laws += 1
        rec["ok"] = not bad and laws == 10
        rec["note"] = f"3 antidiagonals, {laws}/10 order laws" + (f"; {bad}" if bad else "")


def test_criterion_11_performance_and_determinism():
    # every catalog-derived presentation (base, doubled, pairing symbols,
    # and the pairing group when under the gate) enumerates fresh in < 30 s
    # with at most 1e5 cosets; repeated reports are byte-identical once
    # wall-clock fields are dropped
    with criterion(11, "enumeration speed and byte-identical reports") as rec:
        slow = []
        for e in ENTRIES:
            G = group_from_presentation(e.presentation())
            jobs = {"xp": lambda: build_xp(G), "tensor": lambda: build_tensor_square(G)}
            built = {}
            for tag, job in jobs.items():
                t0 = time.monotonic()
                built[tag] = job()
                dt = time.monotonic() - t0
                if dt >= 30.0:
                    slow.append((e.name, tag, round(dt, 1)))
            try:
                t0 = time.monotonic()
                nb = build_nu(G, tensor=built["tensor"])
                dt = time.monotonic() - t0
                if dt >= 30.0:
                    slow.append((e.name, "nu", round(dt, 1)))
                assert nb.group.order <= 10**5
            except SizeGateError:
                pass
            assert built["xp"].group.order <= 10**5
        clear_caches()
        first = run_suite("rtrivial").to_json(include_timing=False)
        first += run_suite("fibre").to_json(include_timing=False)
        clear_caches()
        second = run_suite("rtrivial").to_json(include_timing=False)
        second += run_suite("fibre").to_json(include_timing=False)
        rec["ok"] = not slow and first == second
        rec["note"] = "all fresh builds < 30s, reports byte-identical" + (
            f"; slow {slow}" if slow else ("" if first == second else "; reports differ")
        )
