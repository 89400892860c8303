"""The three workloads: what one pass does and how its answers are checked.

A pass is a list of jobs.  A job returns None when its answers match the
frozen catalog values, or a one-line description of what did not match;
a job that raises is a failed job and the pass goes on.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

# calls go through the module attributes, where the traced run wraps them
from xpforge import cli, products, tensor, weakcomm

WORKLOADS = ("tensor-wide", "doubled-narrow", "verify-all")

# nu is built only below the default size gate; the order-27 entries are gated
NU_MAX_ORDER = 9

# `forge verify --suite all` on the built-in catalog: gated rows, and the
# sha256 of its report with timing stripped (as_dict(include_timing=False),
# keys sorted)
VERIFY_ALL_GATED = 6
VERIFY_ALL_DIGEST = "0f0ecdc755bf5f28c999b477e80d1c8ba4d8259056c597d7bb80a7cb7b74a44d"


@dataclass
class Outcome:
    attempted: int = 0
    problems: list[str] = field(default_factory=list)
    report: object = None  # the verification report of a verify-all pass

    @property
    def failed(self) -> int:
        return len(self.problems)


def run_jobs(jobs, outcome: Outcome | None = None) -> Outcome:
    """Run every (name, fn) job; no job can abort the others."""
    outcome = outcome or Outcome()
    for name, fn in jobs:
        outcome.attempted += 1
        try:
            problem = fn()
        except Exception as exc:  # a raising job is a failed job
            problem = f"raised {type(exc).__name__}: {exc}"
        if problem:
            outcome.problems.append(f"{name}: {problem}")
    return outcome


def _mismatch(entry, order: int, h2) -> str | None:
    if order != entry.expected_order:
        return f"order {order}, catalog has {entry.expected_order}"
    if entry.expected_h2 is None or tuple(h2) != tuple(entry.expected_h2):
        return f"H2 {list(h2)}, catalog has {entry.expected_h2}"
    return None


def tensor_job(entry, G):
    def job():
        T = tensor.build_tensor_square(G)
        return _mismatch(entry, T.base.order, T.h2_invariants())

    return job


def xp_job(entry, G, seed: int):
    def job():
        xb = weakcomm.build_xp(G)
        h2 = xb.h2_invariants()
        od = xb.orders()
        rep = products.im_rho_verify(xb, seed=seed)
        if od["group"] != od["im_rho"] * od["W"]:
            return f"|X| = {od['group']} is not |im rho| * |W|"
        if not rep.ok:
            return f"im rho description fails ({rep.mismatches} mismatches)"
        return _mismatch(entry, od["base"], h2)

    return job


def nu_job(entry, G):
    def job():
        T = tensor.build_tensor_square(G)
        nb = tensor.build_nu(G, tensor=T)
        h2 = nb.h2_invariants()
        if nb.group.order != G.order**2 * T.group.order:
            return f"|nu| = {nb.group.order} is not |G|^2 |T|"
        if not nb.delta_is_central():
            return "delta is not central"
        if not nb.delta_in_derived():
            return "delta is not in the derived subgroup"
        return _mismatch(entry, nb.base.order, h2)

    return job


def report_digest(report) -> str:
    text = json.dumps(report.as_dict(include_timing=False), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def verify_all(out_path: str, outcome: Outcome) -> Outcome:
    """`forge verify --suite all --out FILE` through cli.main; one job per
    report row plus one for the command as a whole (exit code, emitted
    file, gated rows, timing-stripped digest)."""
    captured = []
    run_suite = cli.run_suite

    def capture(*args, **kwargs):
        captured.append(run_suite(*args, **kwargs))
        return captured[-1]

    cli.run_suite = capture
    try:
        code = cli.main(["verify", "--suite", "all", "--out", out_path])
    except Exception as exc:
        code = f"raised {type(exc).__name__}: {exc}"
    finally:
        cli.run_suite = run_suite

    report = outcome.report = captured[0] if captured else None
    rows = report.rows if report is not None else []
    run_jobs(
        [(f"{r['suite']}/{r['entry']}", lambda r=r: _row_problem(r)) for r in rows],
        outcome,
    )
    return run_jobs([("verify --suite all", lambda: _command_problem(code, report, out_path))], outcome)


def _row_problem(row) -> str | None:
    return f"{row['check']} failed: {row['detail']}" if row["status"] == "fail" else None


def _command_problem(code, report, out_path) -> str | None:
    if code != 0:
        return code if isinstance(code, str) else f"exit {code}"
    with open(out_path) as fh:
        if json.load(fh) != report.as_dict():
            return "emitted report differs from the report object"
    gated = report.counts()["gated"]
    if gated != VERIFY_ALL_GATED:
        return f"{gated} gated rows, expected {VERIFY_ALL_GATED}"
    if report_digest(report) != VERIFY_ALL_DIGEST:
        return "timing-stripped report digest changed"
    return None


def run_pass(workload: str, entries, bases, seed: int, scratch_dir: str) -> Outcome:
    """One pass of a workload over catalog `entries` and their base groups."""
    pairs = list(zip(entries, bases))
    if workload == "tensor-wide":
        return run_jobs([(f"T({e.name})", tensor_job(e, G)) for e, G in pairs])
    if workload == "doubled-narrow":
        jobs = [(f"X({e.name})", xp_job(e, G, seed)) for e, G in pairs]
        jobs += [(f"nu({e.name})", nu_job(e, G)) for e, G in pairs if G.order <= NU_MAX_ORDER]
        return run_jobs(jobs)
    if workload == "verify-all":
        out_path = os.path.join(scratch_dir, "verify-all.json")
        try:
            return verify_all(out_path, Outcome())
        finally:
            if os.path.exists(out_path):
                os.remove(out_path)
    raise ValueError(f"unknown workload {workload!r}")
