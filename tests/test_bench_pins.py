"""The benchmark's byte-identity gate for ``stabsim sweep``, in the test suite.

``bench/workloads.py`` is loaded read-only, as the benchmark loads it, and a
few of its pinned ``trace-sweep`` entries are re-run at full size for every
daemon the benchmark uses.  Each ``summary.csv`` must hash to its value in
``bench/pins.json``, so a change to the sweep's output fails here, not only
in a benchmark run.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
ENTRIES = (0, 17, 63)


def _trace_sweep(scratch, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", BENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    # `dataclass` looks its class's module up in `sys.modules`.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    part = module.TraceSweep("full", tracer=None, scratch=scratch)
    part.setup(seed=0)
    return part


@pytest.mark.parametrize("entry", ENTRIES)
def test_sweep_summaries_match_the_bench_pins(tmp_path, monkeypatch, entry):
    pins = json.loads((BENCH / "pins.json").read_text())["full"]["sampled-runs"]
    calls = _trace_sweep(tmp_path, monkeypatch).calls_for(entry)
    assert len(calls) == 3
    for call in calls:
        assert call.observe(call.fn()) == pins[call.pin], call.pin
