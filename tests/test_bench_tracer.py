"""The traced benchmark (bench/tracer.py) wraps stabsim's functions under the
names their callers look up.  Installing it here makes a renamed or removed
name fail the test suite, not only a traced benchmark run."""

import importlib.util
from pathlib import Path

from stabsim import engine, generate, protocol, search, verify
from stabsim.daemon import CentralRoundRobin
from stabsim.protocol import SsmeProtocol

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _patched_names():
    return (
        verify.run_stats,
        search.run,
        protocol.increment,
        protocol.SsmeProtocol.__dict__["is_legitimate"],
        protocol.DijkstraProtocol.__dict__["enabled_rule"],
        engine.format_trace,
    )


def test_bench_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    before = _patched_names()
    g = generate("path:3")
    p = SsmeProtocol.for_graph(g)
    tracer = module.Tracer("t")
    tracer.install()
    try:
        assert all(a is not b for a, b in zip(_patched_names(), before))
        # The tracer's step counter reads what `run_stats` returns.
        trace = verify.run_stats(
            p, g, (5, -3, 11), CentralRoundRobin(g.n, 0), max_steps=200
        )
        assert trace.steps > 0
        assert tracer.counters["engine.run_stats.steps"] == trace.steps
    finally:
        tracer.uninstall()
    assert all(a is b for a, b in zip(_patched_names(), before))

