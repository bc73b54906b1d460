#!/usr/bin/env python3
"""stabsim benchmark harness.

One workload, one fresh process:

    python3 bench/run.py --workload sampled-runs --seed 1 --seconds 55 --trace 0

Every workload, serially, each in its own process, with every metric printed
by name and unit:

    python3 bench/run.py --workload all

With ``--trace 0`` the run sets up, then runs whole cycles of the workload
for about ``--seconds`` and reports the end-to-end metrics.  With
``--trace 1`` it runs a fixed number of cycles twice, untraced and then
traced, so that the per-layer counts repeat exactly from run to run, and
reports the per-layer metrics and the tracing overhead.  Every program
output is checked against ``pins.json``.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; each run is also appended, with an environment record, to
``bench/results/runs.jsonl`` (see ``--out``).

Exit codes: 0 every check passed; 1 some check failed (the result is still
printed); 2 the harness could not run, e.g. stabsim is not importable from
``src/`` next to this directory (no result is printed).
"""

from __future__ import annotations

import os

# Keep numpy single-threaded; the workloads are measured single-threaded.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 170

from workloads import WORKLOADS  # noqa: E402  (sibling module of this script)

E2E_UNITS = {"items_per_s": "items/s", "setup_s": "s", "peak_rss_mb": "MB"}
RATIO_METRICS = (
    "enabled_rule_per_select",
    "succ_per_state",
    "overhead_ratio",
)
COUNT_SUFFIXES = (".calls", ".steps", ".subsets", ".states", ".runs")


class HarnessError(Exception):
    """The harness itself cannot run; no result is printed."""


def layer_unit(name: str) -> str:
    if name.endswith(RATIO_METRICS):
        return "ratio"
    if name.endswith("items_per_s"):
        return "items/s"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith(COUNT_SUFFIXES):
        return "count"
    if name.endswith((".self_s", ".s")):
        return "s"
    raise ValueError(f"no unit for metric {name}")


def import_stabsim():
    """Import stabsim from the ``src/`` beside this directory, nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import numpy  # noqa: F401
        import stabsim
    except ImportError as exc:
        raise HarnessError(f"cannot import stabsim from {src}: {exc}") from None
    if Path(stabsim.__file__).resolve().parent != (src / "stabsim").resolve():
        raise HarnessError(f"stabsim imported from {stabsim.__file__}, not {src}")
    return stabsim


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def load_1m() -> float | None:
    try:
        return float(Path("/proc/loadavg").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(load_start: float | None) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "cpu_model": cpu_model(),
        "loadavg_1m_start": load_start,
        "loadavg_1m_end": load_1m(),
    }


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------


class Gate:
    """Compares observed outputs with the values pinned at the seed commit."""

    def __init__(self, pins: dict):
        self.pins = pins
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, pin: str, observed: dict) -> None:
        expected = self.pins.get(pin)
        if expected is None:
            self.attempted += 1
            self.failures.append(f"{pin}: no pinned value")
            return
        for field, want in expected.items():
            self.attempted += 1
            got = observed.get(field)
            if got != want:
                self.failures.append(f"{pin}: {field} = {got!r}, pinned {want!r}")


def load_pins(path: Path, size: str, workload: str) -> dict:
    try:
        return json.loads(path.read_text())[size][workload]
    except (OSError, ValueError, KeyError) as exc:
        raise HarnessError(f"no pins for {size}/{workload} in {path}: {exc}") from None


# ---------------------------------------------------------------------------
# Timed phase
# ---------------------------------------------------------------------------


def run_cycles(wl, gate: Gate, *, seconds: float | None = None, cycles: int | None = None):
    """Run whole cycles: exactly ``cycles``, or while the next one is expected
    to end within ``seconds`` of timed work (always at least one)."""
    samples: dict[str, list[float]] = defaultdict(list)
    items = 0
    timed = 0.0
    done = 0
    perf = time.perf_counter
    while True:
        for call in wl.cycle(done):
            t0 = perf()
            try:
                out = call.fn()
                error = None
            except Exception as exc:  # a failed call is a failed check
                error = exc
            dt = perf() - t0
            timed += dt
            items += call.items
            samples[call.label].append(dt)
            if error is None:
                observed = call.observe(out)
            else:
                observed = {"raised": f"{type(error).__name__}: {error}"}
            gate.check(call.pin, observed)
        done += 1
        if cycles is not None:
            if done >= cycles:
                break
        elif timed + timed / done > seconds:
            break
    return items, timed, samples, done


def timing_summary(samples: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    s = sorted(samples)
    k = len(s)
    out = {"n": k, "median_s": statistics.median(s)}
    if k >= 20:
        out[f"p{100 * (k - 10) // k}_s"] = s[k - 11]
    return out


def probe_setup(args) -> float:
    """Seconds from starting a fresh interpreter to a set-up workload."""
    cmd = [
        sys.executable, str(Path(__file__)), "--probe-setup",
        "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
    ]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        dt = time.perf_counter() - t0
        proc.stdout.close()
        proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise HarnessError(f"set-up probe failed (exit {proc.returncode})")
    return dt


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------


def measure(args, scratch: Path) -> tuple[dict, dict, Gate]:
    """Returns (metric values, details, gate) for one run."""
    cls = WORKLOADS[args.workload]
    gate = Gate(load_pins(args.pins, args.size, args.workload))
    details: dict = {"item": cls.item}
    if not args.trace:
        setup = [probe_setup(args) for _ in range(SETUP_PROBES)]
        wl = cls(args.size, scratch=scratch)
        wl.setup(args.seed)
        items, timed, samples, done = run_cycles(wl, gate, seconds=args.seconds)
        values = {
            "items_per_s": items / timed,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        details["setup_samples_s"] = setup
    else:
        from tracer import Tracer

        wl = cls(args.size, scratch=scratch)
        wl.setup(args.seed)
        items, plain_s, _, _ = run_cycles(wl, gate, cycles=cls.traced_cycles)
        tracer = Tracer(args.workload)
        tracer.install()
        try:
            wl = cls(args.size, tracer=tracer, scratch=scratch)
            wl.setup(args.seed)
            items, timed, samples, done = run_cycles(wl, gate, cycles=cls.traced_cycles)
        finally:
            tracer.uninstall()
        values = tracer.report()
        values["trace.items_per_s"] = items / timed
        values["trace.untraced_items_per_s"] = items / plain_s
        values["trace.overhead_ratio"] = timed / plain_s
        RESULTS_DIR.mkdir(exist_ok=True)
        trace_path = RESULTS_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_path)
        details["trace_file"] = str(trace_path.relative_to(ROOT))
    details.update(
        cycles=done,
        items=items,
        timed_s=timed,
        timing={label: timing_summary(v) for label, v in samples.items()},
        failures=gate.failures[:20],
    )
    return values, details, gate


def run_one(args) -> int:
    load_start = load_1m()
    import_stabsim()
    cls = WORKLOADS[args.workload]
    RESULTS_DIR.mkdir(exist_ok=True)
    scratch = RESULTS_DIR / f"tmp-{os.getpid()}"
    scratch.mkdir()
    try:
        values, details, gate = measure(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    units = E2E_UNITS if not args.trace else {k: layer_unit(k) for k in values}
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    failed = len(gate.failures)
    result = {
        "correct": failed == 0,
        "attempted": gate.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "failed_frac": failed / gate.attempted,
        **result,
        "details": details,
        "env": environment(load_start),
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("a") as fh:
        fh.write(json.dumps(record) + "\n")

    print(f"# workload {args.workload} (item: {cls.item}) seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} size={args.size}")
    if not cls.seeded:
        print(f"# seed unused: {args.workload} is exhaustive")
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(f"failed_frac {record['failed_frac']} ratio ({failed} of {gate.attempted} checks)")
    for label, t in details["timing"].items():
        print(f"# timing {label}: " + " ".join(f"{k}={v}" for k, v in t.items()))
    for line in gate.failures[:20]:
        print(f"# FAILED {line}")
    print(f"# env {json.dumps(record['env'])}")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in a fresh process, serially; print every metric."""
    worst = 0
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__)), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--size", args.size,
            "--pins", str(args.pins), "--out", str(args.out),
        ]
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=CHILD_TIMEOUT_S
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"{name} error exit={proc.returncode}")
            worst = 2
            continue
        result = json.loads(lines[-1])
        for metric, m in result["metrics"].items():
            print(f"{name} {metric} {m['value']} {m['unit']}")
        frac = result["failed"] / result["attempted"]
        print(f"{name} failed_frac {frac} ratio")
        worst = max(worst, proc.returncode)
    return worst


def probe(args) -> int:
    import_stabsim()
    WORKLOADS[args.workload](args.size).setup(args.seed)
    print("ready", flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs, for the harness self-test")
    parser.add_argument("--pins", type=Path, default=BENCH_DIR / "pins.json")
    parser.add_argument("--out", type=Path, default=RESULTS_DIR / "runs.jsonl",
                        help="JSON-lines file each run's record is appended to")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    try:
        if args.workload == "all":
            return run_all(args)
        if args.probe_setup:
            return probe(args)
        return run_one(args)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
