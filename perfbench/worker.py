"""One benchmark process: set up, then run one pass when told to.

    python3 perfbench/worker.py --workload NAME [--seed N] --trace 0|1 --scratch DIR

Set-up imports xpforge from the checkout's src/, parses the built-in
catalog and enumerates its base groups through the harness cache.  The
worker then prints "ready" and a JSON object of the host-speed samples
taken during set-up (see hostspeed.py), and reads one line from stdin:
"go" runs one pass and prints its result as one JSON line, anything
else exits.  The pass writes nothing else to stdout.  Timings in the
result are reference seconds; the raw ones carry a "raw_" prefix.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys

import hostspeed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_BURST = 10


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    cal = hostspeed.Calibrator().start()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scratch", required=True)
    args = ap.parse_args()

    sys.path.insert(0, SRC)
    from xpforge import harness
    from xpforge.catalog import builtin_catalog
    from xpforge.products import _SAMPLE_SEED

    import jobs
    import spans

    seed = _SAMPLE_SEED if args.seed is None else args.seed
    entries = builtin_catalog()
    bases = [harness.base_group(e) for e in entries]
    for _ in range(SETUP_BURST):  # set-up is too short for many timer samples
        cal.sample()
    cal.stop()
    out = sys.stdout
    print("ready", json.dumps({"samples": cal.samples, "spent": cal.spent}), file=out, flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    sys.stdout = sys.stderr  # keep the result line the only output
    cal = hostspeed.Calibrator()
    rec = spans.Recorder(clock=cal.clock)
    if args.trace:
        spans.install(rec)
    cal.start()
    cpu0 = _cpu_seconds()
    t0 = cal.clock()
    outcome = jobs.run_pass(args.workload, entries, bases, seed, args.scratch)
    t1 = cal.clock()
    cpu = _cpu_seconds() - cpu0 - cal.spent
    cal.stop()
    wall = t1 - t0
    ref = cal.reference_seconds(t0, t1)
    k = ref / wall
    result = {
        "wall_s": ref,
        "cpu_s": cpu * k,
        "raw_wall_s": wall,
        "raw_cpu_s": cpu,
        "host_factor": k,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": outcome.attempted,
        "problems": outcome.problems,
    }
    if args.trace:
        layers = spans.layer_metrics(rec, outcome.report)
        result["layers"] = {
            n: v * k if spans.is_timing(n) and v is not None else v for n, v in layers.items()
        }
    print(json.dumps(result), file=out, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
