"""Suite harness: report shape, determinism, gating, and the tower demo."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import xpforge
from xpforge import harness
from xpforge.catalog import builtin_catalog, catalog_entry, load_catalog_dir
from xpforge.cli import main
from xpforge.coset import EnumerationError, EnumerationLimits
from xpforge.harness import (
    SCHEMA_VERSION,
    SUITES,
    run_suite,
    tower_demo,
)

SMALL = [catalog_entry(n) for n in ("C2", "C4", "C2xC2", "D8")]


def strip_timing(report_dict):
    out = dict(report_dict)
    out["results"] = [
        {k: v for k, v in row.items() if k != "seconds"} for row in report_dict["results"]
    ]
    return out


# ---------------------------------------------------------------- catalog


def test_builtin_catalog_has_twelve_entries():
    names = [e.name for e in builtin_catalog()]
    assert len(names) == 12
    assert len(set(names)) == 12
    assert "Heis27" in names and "Q8" in names


def test_catalog_entry_unknown_name():
    with pytest.raises(KeyError):
        catalog_entry("NoSuchGroup")


def test_catalog_entries_build_to_expected_order():
    for e in builtin_catalog():
        pres = e.presentation()
        assert pres.ngens >= 1
        assert e.expected_order % e.p == 0


def test_load_catalog_dir(tmp_path):
    (tmp_path / "c6.pres").write_text("gens a\nrels a^6\n")
    (tmp_path / "k4.txt").write_text("gens x, y\nrels x^2, y^2, [x,y]\n")
    entries = load_catalog_dir(tmp_path)
    names = sorted(e.name for e in entries)
    assert names == ["c6", "k4"]
    assert all(e.expected_h2 is None for e in entries)


def test_load_catalog_dir_empty(tmp_path):
    with pytest.raises(ValueError):
        load_catalog_dir(tmp_path)


# ---------------------------------------------------------------- report shape


def test_report_shape_and_schema():
    rep = run_suite("rtrivial", entries=SMALL)
    d = rep.as_dict()
    assert d["schema"] == SCHEMA_VERSION == 1
    assert d["suite"] == "rtrivial"
    assert d["ok"] is True
    assert set(d["summary"]) == {"pass", "fail", "gated"}
    for row in d["results"]:
        assert set(row) == {"suite", "entry", "check", "status", "seconds", "detail"}
        assert row["status"] in ("pass", "fail", "gated")
    # to_json round-trips
    assert json.loads(rep.to_json())["suite"] == "rtrivial"


# `forge verify --suite all` on the built-in catalog: the sha256 of its
# report with timing stripped and keys sorted, and its row counts.  The
# benchmark's copy is perfbench/jobs.py's VERIFY_ALL_DIGEST; ROADMAP item 5
# (the exhaustive im rho check) changes the imrho rows and re-freezes both.
VERIFY_ALL_DIGEST = "0f0ecdc755bf5f28c999b477e80d1c8ba4d8259056c597d7bb80a7cb7b74a44d"


def test_verify_all_report_is_frozen():
    rep = run_suite("all")
    text = json.dumps(rep.as_dict(include_timing=False), sort_keys=True)
    assert len(rep.rows) == 128
    assert rep.counts() == {"pass": 122, "fail": 0, "gated": 6}
    assert hashlib.sha256(text.encode()).hexdigest() == VERIFY_ALL_DIGEST


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("bogus", entries=SMALL)


def test_every_named_suite_runs_on_small_entries():
    for name in SUITES:
        if name == "tower":
            continue  # entry-independent, exercised separately
        rep = run_suite(name, entries=SMALL)
        assert rep.ok, f"{name}: {[r for r in rep.rows if r['status'] == 'fail']}"


def test_suite_reports_are_deterministic():
    a = strip_timing(run_suite("orders", entries=SMALL).as_dict())
    b = strip_timing(run_suite("orders", entries=SMALL).as_dict())
    assert a == b


def test_limit_error_names_the_entry_and_keeps_the_counters():
    harness.clear_caches()  # a cached D8 would never hit the limit
    try:
        with pytest.raises(EnumerationError) as exc:
            harness.base_group(catalog_entry("D8"), EnumerationLimits(max_cosets=3))
    finally:
        harness.clear_caches()
    assert str(exc.value).startswith("D8: ")
    assert exc.value.cosets_used > 0


@pytest.mark.parametrize("build", [harness.xp_of, harness.tensor_of, harness.nu_of])
def test_limits_reach_the_base_group(build):
    # D8's base group needs 8 cosets, so a cap of 3 must stop it before
    # it is cached
    entry = catalog_entry("D8")
    harness.clear_caches()
    try:
        with pytest.raises(EnumerationError) as exc:
            build(entry, EnumerationLimits(max_cosets=3))
        assert not harness._base_cache
    finally:
        harness.clear_caches()
    assert str(exc.value).startswith("D8: ")


def test_limit_errors_become_fail_rows():
    harness.clear_caches()  # a cached D8 would never hit the limit
    try:
        rep = run_suite("orders", [catalog_entry("D8")], EnumerationLimits(max_cosets=3))
    finally:
        harness.clear_caches()
    assert [r["status"] for r in rep.rows] == ["fail"]
    assert rep.rows[0]["detail"]["error"].startswith("D8: coset limit exceeded")


def test_caches_keep_builds_under_different_limits_apart():
    # a D8 built without limits must not answer for a capped run
    D8, capped = [catalog_entry("D8")], EnumerationLimits(max_cosets=3)
    harness.clear_caches()
    try:
        statuses = [
            run_suite("orders", D8, limits).rows[0]["status"] for limits in (capped, None, capped)
        ]
    finally:
        harness.clear_caches()
    assert statuses == ["fail", "pass", "fail"]


def test_a_group_that_is_not_a_p_group_fails_its_rows(tmp_path):
    (tmp_path / "s3.pres").write_text("gens a, b\nrels a^3, b^2, (a*b)^2\n")
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", "schur", "--catalog", str(tmp_path), "--out", str(out)]) == 1
    (row,) = json.loads(out.read_text())["results"]
    assert row["status"] == "fail"
    assert row["detail"] == {"error": "order 6 is not a prime power"}


def test_a_memory_error_fails_its_row_alone(tmp_path, monkeypatch):
    # one entry's check runs out of memory; the other entries still run,
    # and verify writes its report and exits 1 instead of raising
    check, orders = harness._CHECKS["orders"]

    def short_of_memory(e, limits):
        if e.name == "c4":
            raise MemoryError
        return orders(e, limits)

    monkeypatch.setitem(harness._CHECKS, "orders", (check, short_of_memory))
    for name, order in (("c2", 2), ("c3", 3), ("c4", 4)):
        (tmp_path / f"{name}.pres").write_text(f"gens a\nrels a^{order}\n")
    rows = run_suite("orders", load_catalog_dir(str(tmp_path))).rows
    assert [(r["entry"], r["status"]) for r in rows] == [("c2", "pass"), ("c3", "pass"), ("c4", "fail")]
    assert rows[-1]["detail"] == {"error": "out of memory"}
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", "orders", "--catalog", str(tmp_path), "--out", str(out)]) == 1
    report = json.loads(out.read_text())["results"]
    assert [(r["entry"], r["status"]) for r in report] == [(r["entry"], r["status"]) for r in rows]


def test_randomized_specs_draw_from_the_entries_that_build(tmp_path):
    # s3 fails its own row, and the randomized row draws from c2 alone;
    # it fails only once no entry builds, with a build error
    (tmp_path / "c2.pres").write_text("gens a\nrels a^2\n")
    (tmp_path / "s3.pres").write_text("gens a, b\nrels a^3, b^2, (a*b)^2\n")
    rows = run_suite("fibre", load_catalog_dir(str(tmp_path))).rows
    assert [(r["entry"], r["status"]) for r in rows] == [
        ("c2", "pass"),
        ("s3", "fail"),
        ("randomized-specs", "pass"),
    ]
    assert rows[-1]["detail"] == {"specs_checked": 10, "seed": harness._FIBRE_SEED}
    (tmp_path / "c2.pres").unlink()
    _, row = run_suite("fibre", load_catalog_dir(str(tmp_path))).rows
    assert (row["entry"], row["status"]) == ("randomized-specs", "fail")
    assert row["detail"] == {"error": "order 6 is not a prime power"}
    (row,) = run_suite("fibre", []).rows
    assert row["detail"] == {"error": "no catalog entry to draw from"}


def test_schur_runs_the_third_route_at_every_order():
    # the relation-module route has no order bound and reports under "bar"
    (row,) = run_suite("schur", [catalog_entry("C8")]).rows
    assert row["status"] == "pass"
    assert list(row["detail"]["routes"]) == ["doubling", "pairing", "bar", "nu"]
    assert "bar_bound" not in row["detail"]


# ---------------------------------------------------------------- gating

GATED27 = [catalog_entry("Mod27")]


def test_nu_dependent_suites_gate_order_27_entries():
    for name in ("iso99", "delta-central", "powerful"):
        rep = run_suite(name, entries=GATED27)
        assert rep.ok  # gated rows do not count as failures
        gated = [r for r in rep.rows if r["status"] == "gated"]
        assert gated, name
        assert gated[0]["detail"]["predicted_order"] == 59049
        assert gated[0]["detail"]["gate"] == 20000


def test_schur_suite_does_not_need_nu_for_gated_entries():
    # multiplier routes still agree using the direct pairing presentation
    rep = run_suite("schur", entries=GATED27)
    assert rep.ok
    assert all(r["status"] == "pass" for r in rep.rows)


# ---------------------------------------------------------------- tower


def test_tower_demo_depth_validation():
    with pytest.raises(ValueError):
        tower_demo(2, 0)


def test_tower_demo_depth_one_is_vacuous():
    rep = tower_demo(2, 1)
    assert rep.ok
    assert len(rep.rows) == 1
    assert "single level" in rep.rows[0]["detail"]["note"]


def test_tower_demo_two_three():
    rep = tower_demo(2, 3)
    assert rep.ok
    entries = {r["entry"] for r in rep.rows}
    assert "C8->C4" in entries and "C4->C2" in entries
    checks = {r["check"] for r in rep.rows}
    assert {"doubled-step", "nu-step", "functoriality"} <= checks


def test_tower_suite_matches_demo():
    via_suite = run_suite("tower", entries=SMALL)
    assert via_suite.ok
    entries = {r["entry"] for r in via_suite.rows}
    assert "C9->C3" in entries  # the p=3 chain is included regardless of entries


# ---------------------------------------------------------------- imports

NO_MASKED_ARRAYS = """
import json, os, sys
from xpforge import cli, harness
from xpforge.catalog import builtin_catalog
from xpforge.products import im_rho_verify
from xpforge.tensor import SizeGateError

def loaded():
    return {m: m in sys.modules for m in ("numpy.ma", "numpy.random")}

at_import = loaded()
for e in builtin_catalog():
    harness.tensor_of(e).h2_invariants()
    harness.xp_of(e).h2_invariants()
    im_rho_verify(harness.xp_of(e))
    try:
        harness.nu_of(e).h2_invariants()
    except SizeGateError:
        pass
after_builds = loaded()
code = cli.main(["verify", "--suite", "all", "--out", os.devnull])
print(json.dumps([code, at_import, after_builds, loaded()]))
"""


def test_builds_and_verify_all_load_no_masked_arrays():
    # np.unique without return flags imports numpy.ma on first use, about
    # 9 ms and 1.3 MB once a process, and numpy.random costs about 11 ms
    # and 5.3 MB (the im rho sampler draws from its own splitmix64 stream
    # instead); numpy 1.x imports both with numpy, so the check holds where
    # the import left them out
    src = os.path.dirname(os.path.dirname(os.path.abspath(xpforge.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", NO_MASKED_ARRAYS], env=env, capture_output=True, text=True, check=True
    )
    code, at_import, after_builds, after_verify = json.loads(out.stdout)
    assert code == 0
    for module, preloaded in at_import.items():
        assert preloaded or not after_builds[module], module
        assert preloaded or not after_verify[module], module


WORDS_NEVER_BUILT = """
import os
from xpforge import cli, coset, groups, harness
from xpforge.catalog import builtin_catalog, catalog_entry
from xpforge.tensor import SizeGateError

calls = {"words_from_levels": 0, "FiniteGroup.words": 0}
spell, words = coset.words_from_levels, groups.FiniteGroup.words


def counted_spell(*args):
    calls["words_from_levels"] += 1
    return spell(*args)


def counted_words(self):
    calls["FiniteGroup.words"] += 1
    return words.fget(self)


coset.words_from_levels = groups.words_from_levels = counted_spell
groups.FiniteGroup.words = property(counted_words)
for e in builtin_catalog():
    harness.tensor_of(e).h2_invariants()
    harness.xp_of(e).h2_invariants()
    try:
        harness.nu_of(e).h2_invariants()
    except SizeGateError:
        pass
code = cli.main(["verify", "--suite", "all", "--out", os.devnull])
print(code, calls["words_from_levels"], calls["FiniteGroup.words"])
harness.base_group(catalog_entry("D8")).words  # the counters count
print(calls["words_from_levels"], calls["FiniteGroup.words"])
"""


def test_builds_and_verify_all_spell_no_tuple_words():
    # every construction and check runs on the word steps and the batch
    # operations; the words of a whole group are spelled only on request
    src = os.path.dirname(os.path.dirname(os.path.abspath(xpforge.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", WORDS_NEVER_BUILT], env=env, capture_output=True, text=True, check=True
    )
    run, probe = out.stdout.splitlines()
    assert run.split() == ["0", "0", "0"]
    assert probe.split() == ["1", "1"]
