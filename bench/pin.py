#!/usr/bin/env python3
"""Recompute the pinned outputs in ``pins.json`` from the program as it is.

The pins in ``pins.json`` were taken at the commit that introduced the
benchmark.  Re-pin only on purpose, when a change is meant to alter an
output, and say so in the change; re-pinning to make a failing check pass
defeats the gate.

    python3 bench/pin.py --size smoke
    python3 bench/pin.py --size full --workload exhaustive
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from run import BENCH_DIR, RESULTS_DIR, import_stabsim
from workloads import WORKLOADS, TraceSweep


def observe_all(cls, size: str, scratch) -> dict:
    """Every pinned output of a workload, over the full trace-sweep table."""
    wl = cls(size, scratch=scratch)
    wl.setup(0)
    calls = []
    for part, _ in wl.parts:
        if isinstance(part, TraceSweep):
            calls += [c for e in range(part.params["table"]) for c in part.calls_for(e)]
        else:
            calls += part.cycle(0)
    pins = {}
    for call in calls:
        pins[call.pin] = call.observe(call.fn())
        print(f"{cls.name} {call.pin}: {pins[call.pin]}", flush=True)
    return pins


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--size", choices=("full", "smoke"), required=True)
    parser.add_argument("--workload", choices=list(WORKLOADS))
    args = parser.parse_args()
    import_stabsim()
    path = BENCH_DIR / "pins.json"
    pins = json.loads(path.read_text()) if path.exists() else {}
    scratch = RESULTS_DIR / "tmp-pin"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        for name, cls in WORKLOADS.items():
            if args.workload in (None, name):
                pins.setdefault(args.size, {})[name] = observe_all(cls, args.size, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
