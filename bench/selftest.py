#!/usr/bin/env python3
"""Smoke-size self-test of the benchmark harness.

    python3 bench/selftest.py

Runs every workload at the ``smoke`` size, untraced and traced, and checks:

* the run exits 0 and its last line is the result object with exactly the
  keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
* the metric names and units are exactly the ``end_to_end`` (untraced) or
  ``per_layer`` (traced) lists of ``BENCHMARK.json``, and ``failed_frac``
  is printed with its unit;
* two traced runs with the same seed record identical counts;
* a deliberately wrong pinned value trips the gate: exit 1, ``correct``
  false, ``failed`` at least 1;
* ``compare.py`` judges a result set against itself as no worse;
* in a directory holding only ``BENCHMARK.json`` and the benchmark, the
  harness exits non-zero without printing a result.

Touches only ``bench/results/``; the repository's own tests are not run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
TIMEOUT_S = 170

sys.path.insert(0, str(BENCH))
from workloads import WORKLOADS  # noqa: E402

failures: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def run(args: list[str], cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args],
        stdout=subprocess.PIPE, text=True, cwd=cwd, timeout=TIMEOUT_S,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def smoke(workload: str, trace: int, out: str = "selftest.jsonl", *extra: str):
    return run([
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--size", "smoke",
        "--out", str(RESULTS / out), *extra,
    ])


def result_of(lines: list[str]) -> dict | None:
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    RESULTS.mkdir(exist_ok=True)
    for stale in ("selftest.jsonl", "selftest-gate.jsonl"):
        (RESULTS / stale).unlink(missing_ok=True)

    for name in WORKLOADS:
        counts = []
        for trace in (0, 1, 1):
            rc, lines = smoke(name, trace)
            res = result_of(lines)
            tag = f"{name} trace={trace}"
            expect(rc == 0, f"{tag}: exit 0 (got {rc})")
            if res is None:
                expect(False, f"{tag}: last line is a JSON result")
                continue
            expect(
                sorted(res) == ["attempted", "correct", "failed", "metrics"],
                f"{tag}: result keys",
            )
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                   f"{tag}: every pinned check passes")
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            expect(got == want[trace], f"{tag}: metric names and units as in BENCHMARK.json")
            expect(any(ln.startswith("failed_frac ") and " ratio" in ln for ln in lines),
                   f"{tag}: failed_frac printed with its unit")
            if trace:
                counts.append({k: m["value"] for k, m in res["metrics"].items()
                               if m["unit"] == "count"})
        expect(len(counts) == 2 and counts[0] == counts[1],
               f"{name}: traced counts repeat exactly")

    pins = json.loads((BENCH / "pins.json").read_text())
    for name in WORKLOADS:
        bad = json.loads(json.dumps(pins))
        record = next(iter(bad["smoke"][name].values()))
        field = next(iter(record))
        record[field] = "deliberately wrong"
        path = RESULTS / f"selftest-pins-{name}.json"
        path.write_text(json.dumps(bad))
        rc, lines = smoke(name, 0, "selftest-gate.jsonl", "--pins", str(path))
        res = result_of(lines) or {}
        expect(rc == 1 and res.get("correct") is False and res.get("failed", 0) >= 1,
               f"{name}: a wrong pinned {field!r} trips the gate")
        path.unlink()

    rows = subprocess.run(
        [sys.executable, "bench/compare.py", str(RESULTS / "selftest.jsonl"),
         str(RESULTS / "selftest.jsonl")],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=TIMEOUT_S,
    )
    verdicts = [ln.rsplit(" ", 1)[-1] for ln in rows.stdout.splitlines()[1:]]
    expect(rows.returncode == 0 and verdicts and "worse" not in verdicts,
           "compare: a result set is no worse than itself")

    bare = RESULTS / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    rc, lines = run(["--workload", "sampled-runs", "--seed", "1", "--seconds", "1",
                     "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    expect(rc != 0 and result_of(lines) is None,
           f"bare directory: exit non-zero (got {rc}) without a result")

    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
