"""CLI: subcommands, formats, output files, exit codes."""

import csv
import io
import json

import numpy as np
import pytest

from xpforge import cli, coset, harness, products, tensor, weakcomm
from xpforge.catalog import catalog_entry
from xpforge.cli import main
from xpforge.groups import FiniteGroup
from xpforge.words import Word


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(args, capsys):
    code, out, err = run_cli(args + ["--format", "json"], capsys)
    assert err == ""
    return code, json.loads(out)


# ---------------------------------------------------------------- xp


def test_xp_file_input(tmp_path, capsys):
    f = tmp_path / "c4.pres"
    f.write_text("gens a\nrels a^4\n")
    code, d = run_json(["xp", str(f)], capsys)
    assert code == 0
    assert d["orders"]["group"] == 16
    assert d["orders"]["base"] == 4


# ---------------------------------------------------------------- schur


def test_schur_runs_the_third_route_at_every_order(capsys):
    # the command shares the harness's route helper, which has no order
    # bound: the relation-module route reports under "bar"
    code, d = run_json(["schur", "catalog:C8"], capsys)
    assert code == 0
    assert list(d["routes"]) == ["doubling", "pairing", "bar"]
    assert "bar_bound" not in d
    assert d["agree"] is True and d["matches_expected"] is True


# ---------------------------------------------------------------- verify


def test_verify_suite_json(capsys):
    code, d = run_json(["verify", "--suite", "dl-commute"], capsys)
    assert code == 0
    assert d["schema"] == 1
    assert d["suite"] == "dl-commute"
    assert d["ok"] is True
    assert d["summary"]["fail"] == 0
    assert len(d["results"]) >= 12


def test_verify_custom_catalog_dir(tmp_path, capsys):
    (tmp_path / "k4.pres").write_text("gens x, y\nrels x^2, y^2, [x,y]\n")
    code, d = run_json(["verify", "--suite", "orders", "--catalog", str(tmp_path)], capsys)
    assert code == 0
    assert {r["entry"] for r in d["results"]} == {"k4"}


def test_verify_max_cosets_fails_every_row(capsys):
    # a cap of 3 live cosets stops the X(G) enumeration of every entry:
    # each orders row fails with the limit error as its detail, and the
    # command exits 1 with nothing on stderr
    code, d = run_json(["verify", "--suite", "orders", "--max-cosets", "3"], capsys)
    assert code == 1
    rows = d["results"]
    assert len(rows) == 12
    assert [r["status"] for r in rows] == ["fail"] * 12
    assert all("coset limit exceeded" in r["detail"]["error"] for r in rows)
    assert "Traceback" not in json.dumps(d)


@pytest.mark.parametrize("suite", ["tower", "all"])
def test_verify_max_cosets_fails_the_tower_rows(suite, capsys):
    # the tower bases C8 and C9 do not fit a cap of 3 either: their builds
    # fail the tower rows, not the command
    code, d = run_json(["verify", "--suite", suite, "--max-cosets", "3"], capsys)
    assert code == 1
    tower = [r for r in d["results"] if r["suite"] == "tower"]
    assert len(tower) == 7
    assert all(r["status"] == "fail" for r in tower)
    assert all("coset limit exceeded" in r["detail"]["error"] for r in tower)


# ---------------------------------------------------------------- formats / output


def test_csv_format_single_command(capsys):
    code, out, err = run_cli(["xp", "catalog:C2", "--format", "csv"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["key", "value"]
    d = dict((r[0], r[1]) for r in rows[1:])
    assert d["schema"] == "1"
    assert d["command"] == "xp"


def test_csv_format_verify(capsys):
    code, out, err = run_cli(["verify", "--suite", "rtrivial", "--format", "csv"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["suite", "entry", "check", "status", "seconds", "detail"]
    assert all(r[3] == "pass" for r in rows[1:])


def test_out_file(tmp_path, capsys):
    dest = tmp_path / "report.json"
    code, out, err = run_cli(["schur", "catalog:C2", "--out", str(dest)], capsys)
    assert code == 0
    assert out == ""  # nothing on stdout when --out is given
    d = json.loads(dest.read_text())
    assert d["command"] == "schur"


# ---------------------------------------------------------------- frozen stdout

# the exact stdout of each group command: the JSON ones are the payload
# below written with indent=2, keys in this order; "@input" stands for the
# path of a presentation file
FROZEN = [
    (
        ["xp", "catalog:C2xC2"],
        {
            "schema": 1,
            "command": "xp",
            "input": "C2xC2",
            "orders": {"base": 4, "group": 32, "L": 8, "D": 2, "W": 2, "R": 1, "im_rho": 16},
            "h2_invariants": [2],
            "order_law_holds": True,
        },
    ),
    (
        ["nu", "catalog:C2"],
        {
            "schema": 1,
            "command": "nu",
            "input": "C2",
            "tensor_order": 2,
            "exterior_order": 1,
            "h2_via_pairing": [],
            "predicted_nu_order": 8,
            "nu": {
                "gated": False,
                "orders": {"base": 2, "group": 8, "tensor": 2, "delta": 2, "exterior": 1},
                "h2_invariants": [],
                "delta_central": True,
                "delta_in_derived": True,
                "order_law_holds": True,
            },
        },
    ),
    (
        ["nu", "catalog:Heis27"],
        {
            "schema": 1,
            "command": "nu",
            "input": "Heis27",
            "tensor_order": 729,
            "exterior_order": 27,
            "h2_via_pairing": [3, 3],
            "predicted_nu_order": 531441,
            "nu": {"gated": True, "predicted_order": 531441, "gate": 20000},
        },
    ),
    (
        ["schur", "catalog:D8"],
        {
            "schema": 1,
            "command": "schur",
            "input": "D8",
            "routes": {"doubling": [2], "pairing": [2], "bar": [2]},
            "agree": True,
            "expected": {"invariants": [2], "provenance": "derived:bar"},
            "matches_expected": True,
        },
    ),
    (
        ["schur", "@input"],
        {
            "schema": 1,
            "command": "schur",
            "input": "@input",
            "routes": {"doubling": [], "pairing": [], "bar": []},
            "agree": True,
        },
    ),
    (
        ["imrho", "catalog:C4"],
        {
            "schema": 1,
            "command": "imrho",
            "input": "C4",
            "ambient_orders": [4, 4, 4],
            "subgroup_order": 16,
            "index_in_ambient": 4,
            "projections": {
                p: {"image_order": 4 if len(p) == 2 else 16, "index": 1, "surjective": True}
                for p in ("p1", "p12", "p13", "p2", "p23", "p3")
            },
            "equality": {"mode": "exhaustive", "samples_checked": 64, "mismatches": 0},
            "index_matches_abelianization": True,
            "notes": [],
            "ok": True,
        },
    ),
    (
        ["fibre", "catalog:D8"],
        {
            "schema": 1,
            "command": "fibre",
            "input": "D8",
            "ambient_order": 64,
            "antidiagonal_order": 16,
            "abelianization_order": 4,
            "order_law_holds": True,
        },
    ),
    (
        ["nu", "catalog:C2", "--format", "csv"],
        "key,value\r\n"
        "schema,1\r\n"
        "command,nu\r\n"
        "input,C2\r\n"
        "tensor_order,2\r\n"
        "exterior_order,1\r\n"
        "h2_via_pairing,[]\r\n"
        "predicted_nu_order,8\r\n"
        'nu,"{""gated"": false, ""orders"": {""base"": 2, ""group"": 8, ""tensor"": 2, '
        '""delta"": 2, ""exterior"": 1}, ""h2_invariants"": [], ""delta_central"": true, '
        '""delta_in_derived"": true, ""order_law_holds"": true}"\r\n',
    ),
]


@pytest.mark.parametrize("args, expected", FROZEN, ids=[" ".join(a) for a, _ in FROZEN])
def test_group_command_stdout_is_frozen(args, expected, tmp_path, capsys):
    c9 = tmp_path / "c9.pres"
    c9.write_text("gens a\nrels a^9\n")
    if not isinstance(expected, str):
        expected = json.dumps(expected, indent=2) + "\n"
    code, out, err = run_cli([str(c9) if a == "@input" else a for a in args], capsys)
    assert (code, err) == (0, "")
    assert out == expected.replace("@input", str(c9))


# ---------------------------------------------------------------- exit codes


def test_unknown_catalog_name_exits_2(capsys):
    code, out, err = run_cli(["xp", "catalog:NoSuch"], capsys)
    assert code == 2
    assert "no catalog entry" in err


def test_unknown_suite_exits_2(capsys):
    code, out, err = run_cli(["verify", "--suite", "bogus"], capsys)
    assert code == 2
    assert "unknown suite" in err


def test_missing_file_exits_2(capsys):
    code, out, err = run_cli(["xp", "/nonexistent/file.pres"], capsys)
    assert code == 2
    assert "error" in err


def test_bad_presentation_exits_2(tmp_path, capsys):
    f = tmp_path / "bad.pres"
    f.write_text("this is not a presentation\n")
    code, out, err = run_cli(["xp", str(f)], capsys)
    assert code == 2
    assert "bad presentation" in err


def test_coset_limit_exits_2(capsys):
    for args in (
        ["xp", "catalog:D8", "--max-cosets", "10"],
        ["nu", "catalog:D8", "--max-cosets", "12"],  # limit hit building T
        ["nu", "catalog:C2", "--max-cosets", "5"],  # limit hit building nu
        ["xp", "catalog:C2", "--max-cosets", "0"],  # refused before enumerating
        ["xp", "catalog:C2", "--max-cosets", "-5"],
    ):
        code, out, err = run_cli(args, capsys)
        assert code == 2, args
        assert "enumeration limits" in err, args
        assert err.count("\n") == 1, args
    assert err == "error: enumeration limits: max_cosets must be at least 1, not -5\n"


def test_tensor_limits_and_checks_exit_2_in_one_line(tmp_path, capsys, monkeypatch):
    # T(C2^4) has 65 536 elements: its 64 diagonal cosets fit a cap of
    # 1000, the assembled rows do not; and a subgroup that is not normal
    # (T(S4) over its kept symbol s1_2) fails the build's own check
    c2_4 = tmp_path / "c2_4.pres"
    c2_4.write_text(
        "gens a, b, c, d\nrels a^2, b^2, c^2, d^2, [a,b], [a,c], [a,d], [b,c], [b,d], [c,d]\n"
    )
    s4 = tmp_path / "s4.pres"
    s4.write_text("gens a, b\nrels a^4, b^2, (a*b)^3\n")
    code, out, err = run_cli(["nu", str(c2_4), "--max-cosets", "1000"], capsys)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert err.startswith("error: enumeration limits: coset limit exceeded: 65536 cosets")
    monkeypatch.setattr(tensor, "_nabla_words", lambda base, kept: [Word((2,))])
    code, out, err = run_cli(["nu", str(s4)], capsys)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("error: subgroup word s1_2 moves a coset")


def test_cell_budget_exits_2_whatever_the_coset_cap(capsys, monkeypatch):
    # T(D8) has 12 generators, so its 32 cosets fit the 81 rows of 24 cells
    # that this budget leaves it; nu(D8) needs 2048 rows of 8 cells and
    # stops at 245; --max-cosets does not lift the budget
    monkeypatch.setattr(coset, "MAX_CELLS", 20 * 98)
    code, out, err = run_cli(["nu", "catalog:D8", "--max-cosets", "1000000"], capsys)
    assert code == 2
    assert "cell budget" in err
    assert "max_cosets does not raise it" in err


def test_failed_x_certification_is_one_line_exit_2(capsys, monkeypatch):
    # a nonzero commutator injected into the certificate at the element of
    # D8 whose canonical word is a^2: build_xp names that word, the CLI
    # prints one line and exits 2, and the orders row fails
    D8 = harness.base_group(catalog_entry("D8"))
    a2 = D8.words.index((1, 1))
    real = FiniteGroup._commutators

    def with_a_false_commutator(self, A, B):
        out = real(self, A, B).copy()
        out[a2] = 1
        return out

    monkeypatch.setattr(FiniteGroup, "_commutators", with_a_false_commutator)
    with pytest.raises(RuntimeError, match=r"full family at the element a\^2$"):
        weakcomm.build_xp(D8)
    code, out, err = run_cli(["xp", "catalog:D8"], capsys)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and "a^2" in err
    harness.clear_caches()  # a cached X(D8) would never be rebuilt
    try:
        report = harness.run_suite("orders", [catalog_entry("D8")])
    finally:
        harness.clear_caches()
    assert [r["status"] for r in report.rows] == ["fail"]
    assert "a^2" in report.rows[0]["detail"]["error"]


def test_failed_fibre_construction_is_one_line_exit_2(capsys, monkeypatch):
    # a fibre product that differs from the antidiagonal closure fails
    # s_subgroup's own check: one error line, no payload, exit 2
    monkeypatch.setattr(products, "fibre_product", lambda spec: np.zeros(spec.p1.domain.order**2, dtype=bool))
    code, out, err = run_cli(["fibre", "catalog:D8"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: antidiagonal closure differs from the fibre product\n"


def test_out_of_memory_is_one_line_exit_2(capsys, monkeypatch):
    def no_memory(G, limits=None):
        raise MemoryError

    monkeypatch.setattr(cli, "build_xp", no_memory)
    code, out, err = run_cli(["xp", "catalog:C2"], capsys)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("error: out of memory")


def test_unknown_strategy_exits_2():
    with pytest.raises(SystemExit) as exc:
        # the removed --strategy flag is a usage error
        main(["xp", "catalog:C2", "--strategy", "hlt"])
    assert exc.value.code == 2


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_catalog_list(capsys):
    code, out, err = run_cli(["catalog", "list"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 12
    assert any("Heis27" in ln and "h2=[3, 3]" in ln for ln in lines)
