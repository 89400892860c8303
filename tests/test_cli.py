"""CLI: subcommands, formats, output files, exit codes."""

import csv
import io
import json

import pytest

from xpforge import coset, harness, tensor, weakcomm
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


def test_xp_catalog_input(capsys):
    code, d = run_json(["xp", "catalog:C2xC2"], capsys)
    assert code == 0
    assert d["schema"] == 1
    assert d["command"] == "xp"
    assert d["orders"]["group"] == 32
    assert d["orders"]["W"] == 2
    assert d["h2_invariants"] == [2]
    assert d["order_law_holds"] is True


def test_xp_file_input(tmp_path, capsys):
    f = tmp_path / "c4.pres"
    f.write_text("gens a\nrels a^4\n")
    code, d = run_json(["xp", str(f)], capsys)
    assert code == 0
    assert d["orders"]["group"] == 16
    assert d["orders"]["base"] == 4


# ---------------------------------------------------------------- nu


def test_nu_small_group(capsys):
    code, d = run_json(["nu", "catalog:C2"], capsys)
    assert code == 0
    assert d["tensor_order"] == 2
    assert d["nu"]["gated"] is False
    assert d["nu"]["orders"]["group"] == 8
    assert d["nu"]["delta_central"] is True
    assert d["nu"]["order_law_holds"] is True


def test_nu_gated_is_informational(capsys):
    code, d = run_json(["nu", "catalog:Heis27"], capsys)
    assert code == 0  # gated, not failed
    assert d["tensor_order"] == 729
    assert d["nu"] == {"gated": True, "predicted_order": 531441, "gate": 20000}


# ---------------------------------------------------------------- schur


def test_schur_routes_agree(capsys):
    code, d = run_json(["schur", "catalog:D8"], capsys)
    assert code == 0
    assert d["routes"]["doubling"] == d["routes"]["pairing"] == d["routes"]["bar"] == [2]
    assert d["agree"] is True
    assert d["matches_expected"] is True


def test_schur_on_plain_file_has_no_expected_block(tmp_path, capsys):
    f = tmp_path / "c9.pres"
    f.write_text("gens a\nrels a^9\n")
    code, d = run_json(["schur", str(f)], capsys)
    assert code == 0
    assert "expected" not in d
    assert d["routes"]["bar"] == []


def test_schur_runs_the_third_route_at_every_order(capsys):
    # the command shares the harness's route helper, which has no order
    # bound: the relation-module route reports under "bar"
    code, d = run_json(["schur", "catalog:C8"], capsys)
    assert code == 0
    assert list(d["routes"]) == ["doubling", "pairing", "bar"]
    assert "bar_bound" not in d
    assert d["agree"] is True and d["matches_expected"] is True


# ---------------------------------------------------------------- imrho / fibre


def test_imrho_exhaustive(capsys):
    code, d = run_json(["imrho", "catalog:C4"], capsys)
    assert code == 0
    assert d["ok"] is True
    assert d["equality"]["mode"] == "exhaustive"
    assert d["index_in_ambient"] == 4


def test_fibre_order_law(capsys):
    code, d = run_json(["fibre", "catalog:D8"], capsys)
    assert code == 0
    assert d["antidiagonal_order"] * d["abelianization_order"] == d["ambient_order"]
    assert d["matches_antipodal_fibre_product"] is True


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
