"""Command-line interface.

    forge xp|nu|schur|imrho|fibre <pres-file|catalog:NAME>
          [--max-cosets N] [--format json|csv] [--out FILE]
    forge verify --suite NAME [--catalog builtin|DIR] [--out FILE]
    forge catalog list

Exit codes: 0 everything checked out, 1 a verification check failed,
2 usage or resource errors (bad arguments, unreadable input, enumeration
limits exceeded) or a build whose own certification failed.  All JSON
payloads carry "schema": 1.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .catalog import builtin_catalog, catalog_entry, load_catalog_dir
from .coset import EnumerationError, EnumerationLimits
from .groups import group_from_presentation
from .harness import (
    SCHEMA_VERSION,
    SUITES,
    fibre_law,
    multiplier_routes,
    nu_order_law,
    run_suite,
    xp_order_law,
)
from .products import im_rho_verify
from .tensor import SizeGateError, build_nu, build_tensor_square, predicted_nu_order
from .weakcomm import build_xp
from .words import ParseError, parse_presentation


def _limits(args) -> EnumerationLimits | None:
    if args.max_cosets is None:
        return None
    return EnumerationLimits(max_cosets=args.max_cosets)


def _load_group(spec: str, limits):
    if spec.startswith("catalog:"):
        entry = catalog_entry(spec[len("catalog:") :])
        pres = entry.presentation()
        label = entry.name
    else:
        entry = None
        with open(spec) as fh:
            pres = parse_presentation(fh.read())
        label = pres.name or spec
    G = group_from_presentation(pres, limits=limits, name=label)
    return label, G, entry


def _flat_rows(payload: dict) -> list[list]:
    rows = []
    for key, value in payload.items():
        if key == "results":
            continue
        rows.append([key, value if isinstance(value, (str, int, float, bool)) else json.dumps(value)])
    return rows


def _emit(payload: dict, fmt: str, out: str | None) -> None:
    if fmt == "json":
        text = json.dumps(payload, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        if "results" in payload:
            writer.writerow(["suite", "entry", "check", "status", "seconds", "detail"])
            for r in payload["results"]:
                writer.writerow(
                    [r["suite"], r["entry"], r["check"], r["status"], r["seconds"], json.dumps(r["detail"])]
                )
        else:
            writer.writerow(["key", "value"])
            writer.writerows(_flat_rows(payload))
        text = buf.getvalue()
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_xp(args) -> int:
    limits = _limits(args)
    label, G, _ = _load_group(args.input, limits)
    xb = build_xp(G, limits=limits)
    ok, facts = xp_order_law(xb)
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "xp",
        "input": label,
        "orders": facts["orders"],
        "h2_invariants": xb.h2_invariants(),
        "order_law_holds": ok,
    }
    _emit(payload, args.format, args.out)
    return 0 if ok else 1


def _cmd_nu(args) -> int:
    limits = _limits(args)
    label, G, _ = _load_group(args.input, limits)
    T = build_tensor_square(G, limits=limits)
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "nu",
        "input": label,
        "tensor_order": T.group.order,
        "exterior_order": T.exterior_order,
        "h2_via_pairing": T.h2_invariants(),
        "predicted_nu_order": predicted_nu_order(G, T),
    }
    try:
        nb = build_nu(G, tensor=T, limits=limits)
    except SizeGateError as exc:
        payload["nu"] = {"gated": True, "predicted_order": exc.predicted, "gate": exc.gate}
        _emit(payload, args.format, args.out)
        return 0
    ok, facts = nu_order_law(nb)
    payload["nu"] = {
        "gated": False,
        "orders": nb.orders(),
        "h2_invariants": nb.h2_invariants(),
        **facts,
    }
    _emit(payload, args.format, args.out)
    return 0 if ok else 1


def _cmd_schur(args) -> int:
    limits = _limits(args)
    label, G, entry = _load_group(args.input, limits)
    xb = build_xp(G, limits=limits)
    T = build_tensor_square(G, limits=limits)
    ok, facts = multiplier_routes(xb, T, entry=entry)
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "schur",
        "input": label,
        **facts,
    }
    _emit(payload, args.format, args.out)
    return 0 if ok else 1


def _cmd_imrho(args) -> int:
    limits = _limits(args)
    label, G, _ = _load_group(args.input, limits)
    xb = build_xp(G, limits=limits)
    rep = im_rho_verify(xb)
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "imrho",
        "input": label,
        **rep.as_dict(),
    }
    _emit(payload, args.format, args.out)
    return 0 if rep.ok else 1


def _cmd_fibre(args) -> int:
    label, G, _ = _load_group(args.input, _limits(args))
    try:
        ok, facts = fibre_law(G)
    except RuntimeError as exc:
        _emit(
            {
                "schema": SCHEMA_VERSION,
                "command": "fibre",
                "input": label,
                "ok": False,
                "error": str(exc),
            },
            args.format,
            args.out,
        )
        return 1
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "fibre",
        "input": label,
        "ambient_order": facts["ambient_order"],
        "antidiagonal_order": facts["antidiagonal_order"],
        "abelianization_order": facts["abelianization_order"],
        "order_law_holds": ok,
        "matches_antipodal_fibre_product": True,  # construction verifies or raises
    }
    _emit(payload, args.format, args.out)
    return 0 if ok else 1


def _cmd_verify(args) -> int:
    if args.catalog == "builtin":
        entries = None
    else:
        entries = load_catalog_dir(args.catalog)
    report = run_suite(args.suite, entries=entries)
    _emit(report.as_dict(), args.format, args.out)
    return 0 if report.ok else 1


def _cmd_catalog(args) -> int:
    if args.action == "list":
        for e in builtin_catalog():
            h2 = list(e.expected_h2) if e.expected_h2 is not None else "?"
            print(
                f"{e.name:8s} p={e.p} order={e.expected_order:<3d} "
                f"h2={h2} ({e.h2_provenance})"
            )
        return 0
    raise ValueError(f"unknown catalog action {args.action!r}")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forge",
        description="Doubled-group, pairing-group, and multiplier checks for finite p-groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def group_command(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", help="presentation file or catalog:NAME")
        p.add_argument(
            "--max-cosets",
            type=int,
            default=None,
            help="cap on live cosets; the fixed cell budget (coset.MAX_CELLS) still holds",
        )
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None)
        return p

    group_command("xp", "build the doubled group and report its subgroup orders")
    group_command("nu", "build the pairing group (size-gated) and its tensor subgroup")
    group_command("schur", "compare the three multiplier routes")
    group_command("imrho", "verify the coordinate description of im(rho)")
    group_command("fibre", "antidiagonal subgroup vs the antipodal fibre product")

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("--suite", required=True, help="one of: all, " + ", ".join(SUITES))
    v.add_argument("--catalog", default="builtin", help='"builtin" or a directory of presentation files')
    v.add_argument("--format", choices=("json", "csv"), default="json")
    v.add_argument("--out", default=None)

    c = sub.add_parser("catalog", help="inspect the built-in catalog")
    c.add_argument("action", choices=("list",))
    return parser


_HANDLERS = {
    "xp": _cmd_xp,
    "nu": _cmd_nu,
    "schur": _cmd_schur,
    "imrho": _cmd_imrho,
    "fibre": _cmd_fibre,
    "verify": _cmd_verify,
    "catalog": _cmd_catalog,
}


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except EnumerationError as exc:
        print(f"error: enumeration limits: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # a build's own check; after its subclass EnumerationError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"error: bad presentation: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
