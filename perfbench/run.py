"""Benchmark entry point.

    python3 perfbench/run.py --workload dd-sweep --seed 1 --seconds 20 --trace 0

Untraced (--trace 0): set up several times (the median is setup_s), then run
whole rounds of the workload until --seconds have passed (at least
MIN_ROUNDS), then the CLI phase.  Prints the end-to-end metrics.

Traced (--trace 1): alternate an untraced pass and a cProfile pass, each one
set-up, one round and the CLI phase, until --seconds have passed (at least
one pair).  Prints the per-layer metrics (medians over the traced passes)
and the overhead of tracing.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import resource
import sys
import tempfile
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPS = 7
MIN_ROUNDS = 3
CLI_SUBCOMMANDS = ("validate", "ring", "envelope", "cleanmap", "complex")


class Run:
    """Operation tally and check failures of one benchmark run."""

    def __init__(self, fails):
        self.fails = fails
        self.attempted = 0
        self.failed = 0

    def add(self, meter):
        self.attempted += meter.attempted
        self.failed += meter.failed
        for err in meter.errors:
            print(f"failed operation: {err}", file=sys.stderr)
        return meter


def untraced(wl, fr, seconds, tmp, run):
    from workloads import Meter, load_facering

    setups = []
    for _ in range(SETUP_REPS):
        m = Meter()
        fr = m.call("setup", load_facering, SRC)
        built = wl.setup(fr, m)
        setups.append(run.add(m).time["setup"])
    wl.check_setup(built, run.fails)

    rounds = []
    ref = None
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        m = Meter()
        outputs = wl.round(fr, m)
        run.add(m)
        if ref is None:
            wl.check(fr, outputs, run.fails)
            ref = wl.digest(outputs)
        else:
            run.fails.require(wl.digest(outputs) == ref, "a round's outputs differ from the first round's")
        rounds.append(m)

    m = Meter()
    wl.cli_phase(fr, m, tmp, run.fails)
    run.add(m)
    sweep = wl.sweep_phase
    return {
        "setup_s": (median(setups), "s"),
        "wall_s": (median(m.total for m in rounds), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "sweep_units_per_s": (median(m.units[sweep] / m.time[sweep] for m in rounds), "1/s"),
    }


def traced(wl, fr, seconds, tmp, run):
    from profiling import LayerMap
    from workloads import Meter, load_facering

    walls_a, walls_b, figures, cli = [], [], [], {}
    ref = None
    start = time.perf_counter()
    while not walls_b or time.perf_counter() - start < seconds:
        for profile in (None, cProfile.Profile()):
            m = Meter(profile)
            fr = m.call("setup", load_facering, SRC)
            built = wl.setup(fr, m)
            outputs = wl.round(fr, m)
            walls = wl.cli_phase(fr, m, tmp, run.fails)
            run.add(m)
            if ref is None:
                wl.check_setup(built, run.fails)
                wl.check(fr, outputs, run.fails)
                ref = wl.digest(outputs)
            else:
                run.fails.require(wl.digest(outputs) == ref, "a pass's outputs differ from the first pass's")
            if profile is None:
                walls_a.append(m.total)
                for sub, ws in walls.items():
                    cli.setdefault(sub, []).extend(ws)
            else:
                walls_b.append(m.total)
                fig = LayerMap(fr).figures(profile)
                fig["ring.rewrites"] = m.counts.get("ring.rewrites", 0)
                selves = sum(v for k, v in fig.items() if k.endswith(".self_s"))
                fig["trace.accounted"] = selves / m.total
                figures.append(fig)

    out = {}
    for name in figures[0]:
        unit = "s" if name.endswith("_s") else "ratio" if name.startswith("trace.") else "count"
        out[name] = (median(f[name] for f in figures), unit)
    for sub in CLI_SUBCOMMANDS:
        out[f"cli.{sub}_s"] = (median(cli[sub]), "s")
    out["trace.overhead"] = (median(walls_b) / median(walls_a), "ratio")
    return out


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "facering", "__init__.py")):
        print(f"error: no facering sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from checks import Failures
    from workloads import WORKLOADS, load_facering

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    fr = load_facering(SRC)
    wl = WORKLOADS[args.workload](fr, args.seed)
    run = Run(Failures())
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        measure = traced if args.trace else untraced
        metrics = measure(wl, fr, args.seconds, tmp, run)
    for msg in run.fails.messages[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    result = {
        "correct": not run.fails.messages,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
