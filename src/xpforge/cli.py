"""Command-line interface.

    forge xp|nu|schur|imrho|fibre <pres-file|catalog:NAME>
          [--max-cosets N] [--format json|csv] [--out FILE]
    forge verify --suite NAME [--catalog builtin|DIR] [--max-cosets N]
          [--format json|csv] [--out FILE]
    forge catalog list

Exit codes: 0 everything checked out, 1 a verification check failed,
2 usage or resource errors (bad arguments, unreadable input, enumeration
limits or memory exceeded) or a build whose own certification failed.
All JSON payloads carry "schema": 1.
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


def _xp(G, entry, limits):
    xb = build_xp(G, limits=limits)
    ok, facts = xp_order_law(xb)
    return ok, {
        "orders": facts["orders"],
        "h2_invariants": xb.h2_invariants(),
        "order_law_holds": ok,
    }


def _nu(G, entry, limits):
    T = build_tensor_square(G, limits=limits)
    facts = {
        "tensor_order": T.group.order,
        "exterior_order": T.exterior_order,
        "h2_via_pairing": T.h2_invariants(),
        "predicted_nu_order": predicted_nu_order(G, T),
    }
    try:
        nb = build_nu(G, tensor=T, limits=limits)
    except SizeGateError as exc:
        facts["nu"] = {"gated": True, "predicted_order": exc.predicted, "gate": exc.gate}
        return True, facts
    ok, law = nu_order_law(nb)
    facts["nu"] = {
        "gated": False,
        "orders": nb.orders(),
        "h2_invariants": nb.h2_invariants(),
        **law,
    }
    return ok, facts


def _schur(G, entry, limits):
    xb = build_xp(G, limits=limits)
    return multiplier_routes(xb, build_tensor_square(G, limits=limits), entry=entry)


def _imrho(G, entry, limits):
    rep = im_rho_verify(build_xp(G, limits=limits))
    return rep.ok, rep.as_dict()


def _fibre(G, entry, limits):
    # fibre_law raises (exit 2) unless S is the antipodal fibre product
    ok, facts = fibre_law(G)
    del facts["expected"]
    return ok, {**facts, "order_law_holds": ok}


# group command -> (its help line, its check on the loaded group: (ok, facts))
_GROUP_COMMANDS = {
    "xp": ("build the doubled group and report its subgroup orders", _xp),
    "nu": ("build the pairing group (size-gated) and its tensor subgroup", _nu),
    "schur": ("compare the three multiplier routes", _schur),
    "imrho": ("verify the coordinate description of im(rho)", _imrho),
    "fibre": ("antidiagonal subgroup vs the antipodal fibre product", _fibre),
}


def _limits(args) -> EnumerationLimits | None:
    return None if args.max_cosets is None else EnumerationLimits(max_cosets=args.max_cosets)


def _cmd_group(args) -> int:
    """Every group command: load the group under the limits, run the
    command's check, emit the header and the facts, exit 1 on a failed
    check."""
    limits = _limits(args)
    label, G, entry = _load_group(args.input, limits)
    ok, facts = args.check(G, entry, limits)
    payload = {"schema": SCHEMA_VERSION, "command": args.command, "input": label, **facts}
    _emit(payload, args.format, args.out)
    return 0 if ok else 1


def _cmd_verify(args) -> int:
    if args.catalog == "builtin":
        entries = None
    else:
        entries = load_catalog_dir(args.catalog)
    # a limit a build exceeds fails its row, not the command
    report = run_suite(args.suite, entries=entries, limits=_limits(args))
    _emit(report.as_dict(), args.format, args.out)
    return 0 if report.ok else 1


def _cmd_catalog(args) -> int:
    # argparse admits only the action "list"
    for e in builtin_catalog():
        h2 = list(e.expected_h2) if e.expected_h2 is not None else "?"
        print(
            f"{e.name:8s} p={e.p} order={e.expected_order:<3d} "
            f"h2={h2} ({e.h2_provenance})"
        )
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forge",
        description="Doubled-group, pairing-group, and multiplier checks for finite p-groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_max_cosets(p):
        p.add_argument(
            "--max-cosets",
            type=int,
            default=None,
            help="cap on live cosets; the fixed cell budget (coset.MAX_CELLS) still holds",
        )

    for name, (help_text, check) in _GROUP_COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", help="presentation file or catalog:NAME")
        add_max_cosets(p)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None)
        p.set_defaults(handler=_cmd_group, check=check)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("--suite", required=True, help="one of: all, " + ", ".join(SUITES))
    v.add_argument("--catalog", default="builtin", help='"builtin" or a directory of presentation files')
    add_max_cosets(v)
    v.add_argument("--format", choices=("json", "csv"), default="json")
    v.add_argument("--out", default=None)
    v.set_defaults(handler=_cmd_verify)

    c = sub.add_parser("catalog", help="inspect the built-in catalog")
    c.add_argument("action", choices=("list",))
    c.set_defaults(handler=_cmd_catalog)
    return parser


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
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
    except MemoryError:
        print("error: out of memory; a lower --max-cosets stops enumeration sooner", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
