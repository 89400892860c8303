"""Benchmark of xpforge, driven from outside through its public API.

    python3 perfbench/run.py --workload tensor-wide|doubled-narrow|verify-all
        [--seed N] [--seconds S] [--trace 0|1|both]

Run from the root of a checkout.  Every pass runs in a fresh worker
process (harness caches and ru_maxrss are per process), one process at a
time; a run fills --seconds with whole passes (see Workers.passes), so
short workloads report the median of several passes and every run has at
least one.  Set-up (interpreter start, import, catalog parse,
base-group enumeration) is timed from spawn to the worker's "ready" line,
at least SETUP_SAMPLES times per run.  Timings are medians over the run,
in reference seconds: the worker samples the host's speed while it works
and scales what it measured to a host of fixed speed (hostspeed.py), so
that runs made minutes apart on a shared host compare.  The tables also
print the raw seconds and the scale factor.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
of traced passes, and --trace both runs untraced then traced passes and
reports every metric plus the tracing overhead.  The last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  Metric
names and units come from BENCHMARK.json; see perfbench/metrics.json for
which end-to-end metric each per-layer metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("tensor-wide", "doubled-narrow", "verify-all")
SETUP_SAMPLES = 9
RUN_BUDGET_S = 170.0


class BenchError(Exception):
    """The benchmark itself could not run (missing program, dead worker,
    time budget); no result is printed."""


class Workers:
    """Spawns worker processes one at a time and waits for each."""

    def __init__(self, args, scratch: str, deadline: float):
        self.cmd = [sys.executable, WORKER, "--workload", args.workload, "--scratch", scratch]
        if args.seed is not None:
            self.cmd += ["--seed", str(args.seed)]
        self.deadline = deadline
        self.setup_s: list[float] = []  # raw seconds, host-speed loops excluded
        self.setup_samples: list[float] = []  # host-speed loop durations

    def _left(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("run exceeded its time budget")
        return left

    def run(self, trace: int | None) -> dict | None:
        """Spawn, time set-up, then run one pass (trace 0/1) or quit (None)."""
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            self.cmd + ["--trace", str(trace or 0)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            ready, _, _ = select.select([proc.stdout], [], [], self._left())
            line = proc.stdout.readline() if ready else ""
            t1 = time.perf_counter()
            word, _, cal = line.partition(" ")
            if word != "ready":
                raise BenchError(f"worker set-up failed (exit {proc.poll()})")
            cal = json.loads(cal)
            self.setup_s.append(t1 - t0 - cal["spent"])
            self.setup_samples += cal["samples"]
            out, _ = proc.communicate("go\n" if trace is not None else "quit\n", timeout=self._left())
        except subprocess.TimeoutExpired:
            raise BenchError("run exceeded its time budget") from None
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}")
        return json.loads(out.splitlines()[-1]) if trace is not None else None

    def passes(self, trace: int, seconds: float) -> list[dict]:
        """Whole passes filling `seconds` of raw time: at least one, and
        another only while the total is short of `seconds` and the next
        pass, taking as long as the last, would end within 1.5 * `seconds`."""
        done = [self.run(trace)]
        total = last = done[0]["raw_wall_s"]
        while (
            total < seconds
            and total + last <= 1.5 * seconds
            and time.monotonic() + 2 * last < self.deadline
        ):
            done.append(self.run(trace))
            last = done[-1]["raw_wall_s"]
            total += last
        return done


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def setup_seconds(setup_s: list[float], samples: list[float]) -> float:
    """Median set-up time in reference seconds; the host-speed samples of
    all set-ups of the run are pooled, as one set-up gives only a few."""
    return _median(setup_s) * hostspeed.factor(samples)


def end_to_end(passes: list[dict], setup_s: float) -> dict:
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["problems"]) for p in passes)
    return {
        "wall_s": _median(p["wall_s"] for p in passes),
        "cpu_s": _median(p["cpu_s"] for p in passes),
        "setup_s": setup_s,
        "peak_rss_mb": _median(p["peak_rss_mb"] for p in passes),
        "ok_ratio": 1 - failed / attempted,
    }


def per_layer(passes: list[dict]) -> dict:
    names = passes[0]["layers"]
    return {n: _median(p["layers"][n] for p in passes) for n in names}


def _table(title: str, values: dict, units: dict, samples: int) -> None:
    print(f"{title} (median of {samples})")
    for name in sorted(values):
        v = values[name]
        shown = "absent" if v is None else f"{v:.6g}"
        print(f"  {name:36s} {shown:>14s} {units.get(name, '')}")


def _raw(title: str, passes: list[dict]) -> None:
    print(
        f"  {title}: raw wall_s {_median(p['raw_wall_s'] for p in passes):.6g}, "
        f"raw cpu_s {_median(p['raw_cpu_s'] for p in passes):.6g}, "
        f"reference s per raw s {_median(p['host_factor'] for p in passes):.4g}"
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=None, help="im rho sampling seed (default: the program's own)")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", choices=("0", "1", "both"), default="0")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "xpforge", "__init__.py")):
        print(f"error: no xpforge sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    scratch = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        workers = Workers(args, scratch, time.monotonic() + RUN_BUDGET_S)
        if args.trace != "1":  # the traced run reports no set-up time
            for _ in range(SETUP_SAMPLES - 1):
                workers.run(None)
        metrics: dict = {}
        runs = []
        if args.trace in ("0", "both"):
            plain = workers.passes(0, args.seconds)
            setup_s = setup_seconds(workers.setup_s, workers.setup_samples)
            metrics.update(end_to_end(plain, setup_s))
            _table(f"{args.workload}: end to end, untraced", metrics, units, len(plain))
            _raw("untraced passes", plain)
            print(
                f"  set-up: raw setup_s {_median(workers.setup_s):.6g}, "
                f"reference s per raw s {hostspeed.factor(workers.setup_samples):.4g}"
            )
            runs += plain
        if args.trace in ("1", "both"):
            traced = workers.passes(1, args.seconds)
            layers = per_layer(traced)
            _table(f"{args.workload}: per layer, traced", layers, units, len(traced))
            _raw("traced passes", traced)
            metrics.update(layers)
            runs += traced
            if args.trace == "both":
                overhead = _median(p["wall_s"] for p in traced) - metrics["wall_s"]
                metrics["trace.overhead_s"] = overhead
                units["trace.overhead_s"] = "s"
                print(f"tracing overhead: traced wall_s - untraced wall_s = {overhead:.4f} s")
        print(f"set-up samples: {len(workers.setup_s)}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    expected = {
        "0": [m["name"] for m in spec["end_to_end"]],
        "1": [m["name"] for m in spec["per_layer"]],
    }.get(args.trace)
    if expected is not None and sorted(expected) != sorted(metrics):
        print("error: metrics differ from BENCHMARK.json", file=sys.stderr)
        return 2

    problems = [q for p in runs for q in p["problems"]]
    attempted = sum(p["attempted"] for p in runs)
    for q in problems:
        print(f"FAILED {q}")
    print(f"jobs: {attempted} attempted, {len(problems)} failed, fail_ratio {len(problems) / attempted:.6g}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {
            name: {"value": 0 if v is None else v, "unit": units[name]}
            for name, v in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
