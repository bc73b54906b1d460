"""In-process tracer for the traced benchmark run.

The tracer wraps stabsim's public functions from outside the package: each
wrapper is installed under the name its caller looks up at call time (for
example ``stabsim.verify.run_stats``, ``stabsim.protocol.increment`` or the
``enabled_rule`` attribute of a protocol class), so no file of the program
changes.

Hot leaves (guards, actions, selections) are called millions of times, so
for every (name, parent) pair the tracer keeps only an exact call count and
the summed self time.  Full spans (id, name, start, end, parent span,
workload) are recorded only at the coarse boundaries in ``SPAN_NAMES``.
Everything stays in memory until ``report`` and ``dump`` at the end.

Self time is a call's duration minus the durations of the traced calls made
inside it.  The wrapper cost of a traced child lands in its parent's self
time, so traced self times are inflated relative to an untraced run; the
harness reports that overhead separately.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

SPAN_NAMES = frozenset(
    {
        "verify.scheduler_ensemble_check",
        "search.sync_worst_case.nowindow",
        "search.sync_worst_case.window",
        "search.sync_worst_case.scalar",
        "search.worst_case_unfair",
        "cli.main",
        "engine.run",
        "engine.run_stats",
    }
)

DAEMON_NAMES = ("sync", "central-rr", "central-rand", "central-adv", "dist-rand")
SYNC_VARIANTS = ("nowindow", "window", "scalar")


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        # Frames are [name, child_seconds, enclosing_span_id].
        self._stack: list[list] = []
        self.calls: dict[tuple[str, str | None], int] = defaultdict(int)
        self.self_s: dict[tuple[str, str | None], float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, measure=None):
        """Return ``fn`` wrapped to count calls and self time under ``name``.

        ``measure(counters, result)`` may add work counts taken from the
        result, such as the steps of a run.
        """
        stack = self._stack
        calls, self_s, incl_s = self.calls, self.self_s, self.incl_s
        counters, spans, workload = self.counters, self.spans, self.workload
        is_span = name in SPAN_NAMES
        perf = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            enclosing = parent[2] if parent is not None else None
            span_id = len(spans) if is_span else enclosing
            if is_span:
                spans.append(None)
            frame = [name, 0.0, span_id]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                key = (name, parent[0] if parent is not None else None)
                calls[key] += 1
                self_s[key] += dur - frame[1]
                incl_s[name] += dur
                if parent is not None:
                    parent[1] += dur
                if is_span:
                    spans[span_id] = (span_id, name, t0, t1, enclosing, workload)
            if measure is not None:
                measure(counters, result)
            return result

        return traced

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def install(self) -> None:
        """Wrap every layer the workloads reach, where its callers bind it."""
        from stabsim import cli, clock, daemon, engine, graph, protocol, search, verify

        def patch_all(owners, attr, wrapper):
            for owner in owners:
                self.patch(owner, attr, wrapper)

        self.patch(graph, "generate", self.wrap("graph.generate", graph.generate))
        self.patch(protocol, "increment", self.wrap("clock.increment", clock.increment))
        for cls in (protocol.SsmeProtocol, protocol.DijkstraProtocol):
            for meth in ("enabled_rule", "apply", "privileged_vertices", "is_legitimate"):
                self.patch(cls, meth, self.wrap(f"protocol.{meth}", cls.__dict__[meth]))
        for cls in (
            daemon.SynchronousDaemon,
            daemon.CentralRoundRobin,
            daemon.CentralRandom,
            daemon.CentralAdversarial,
            daemon.RandomDistributed,
        ):
            self.patch(cls, "select", self.wrap(f"daemon.{cls.name}.select", cls.select))

        def add(counter, value):
            def measure(counters, result):
                counters[counter] += value(result)

            return measure

        patch_all(
            (daemon, search, verify),
            "enumerate_choices",
            self.wrap(
                "daemon.enumerate_choices",
                daemon.enumerate_choices,
                add("daemon.enumerate_choices.subsets", len),
            ),
        )
        patch_all(
            (engine, search, cli, verify),
            "run",
            self.wrap("engine.run", engine.run, add("engine.run.steps", lambda t: t.steps)),
        )
        patch_all(
            (engine, verify),
            "run_stats",
            self.wrap(
                "engine.run_stats",
                engine.run_stats,
                add("engine.run_stats.steps", lambda s: s.steps),
            ),
        )
        for fn_name in ("convergence_index_me", "convergence_index_au"):
            patch_all(
                (engine, search, cli),
                fn_name,
                self.wrap("engine.convergence_index", getattr(engine, fn_name)),
            )
        patch_all(
            (engine, cli),
            "format_trace",
            self.wrap(
                "engine.format_trace",
                engine.format_trace,
                add("engine.format_trace.bytes", len),
            ),
        )

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def _calls(self, name: str, parent: str | None = "*") -> int:
        return sum(
            c for (n, p), c in self.calls.items() if n == name and parent in ("*", p)
        )

    def _self(self, name: str) -> float:
        return sum(s for (n, _p), s in self.self_s.items() if n == name)

    def report(self) -> dict[str, float]:
        """Per-layer metric values, keyed by the names in BENCHMARK.json."""
        out: dict[str, float] = {}
        c = self.counters

        def rate(num: float, den: float) -> float:
            return num / den if den > 0 else 0.0

        def calls_self(name: str) -> None:
            out[f"{name}.calls"] = self._calls(name)
            out[f"{name}.self_s"] = self._self(name)

        out["graph.generate.s"] = self.incl_s["graph.generate"]
        calls_self("clock.increment")
        for meth in ("enabled_rule", "apply", "privileged_vertices", "is_legitimate"):
            calls_self(f"protocol.{meth}")
        for policy in DAEMON_NAMES:
            calls_self(f"daemon.{policy}.select")
        out["daemon.central-adv.enabled_rule_per_select"] = rate(
            self._calls("protocol.enabled_rule", "daemon.central-adv.select"),
            self._calls("daemon.central-adv.select"),
        )
        calls_self("daemon.enumerate_choices")
        out["daemon.enumerate_choices.subsets"] = c["daemon.enumerate_choices.subsets"]
        for eng in ("engine.run_stats", "engine.run"):
            calls_self(eng)
            out[f"{eng}.steps"] = c[f"{eng}.steps"]
            out[f"{eng}.steps_per_s"] = rate(c[f"{eng}.steps"], self.incl_s[eng])
        calls_self("engine.convergence_index")
        calls_self("engine.format_trace")
        out["engine.format_trace.bytes"] = c["engine.format_trace.bytes"]
        for variant in SYNC_VARIANTS:
            name = f"search.sync_worst_case.{variant}"
            out[f"{name}.configs_per_s"] = rate(c[f"{name}.configs"], self.incl_s[name])
            out[f"{name}.self_s"] = self._self(name)
        name = "search.worst_case_unfair"
        states = c[f"{name}.states"]
        out[f"{name}.states"] = states
        out[f"{name}.states_per_s"] = rate(states, self.incl_s[name])
        out[f"{name}.self_s"] = self._self(name)
        out[f"{name}.succ_per_state"] = rate(c["daemon.enumerate_choices.subsets"], states)
        name = "verify.scheduler_ensemble_check"
        out[f"{name}.runs"] = self._calls("engine.run_stats", name)
        out[f"{name}.self_s"] = self._self(name)
        calls_self("cli.main")
        out["cli.summary.bytes"] = c["cli.summary.bytes"]
        return out

    def dump(self, path: Path) -> None:
        """Write the (name, parent) table, the counters and all spans as JSON."""
        table = [
            {
                "name": n,
                "parent": p,
                "calls": self.calls[(n, p)],
                "self_s": self.self_s[(n, p)],
            }
            for (n, p) in sorted(self.calls, key=lambda k: (k[0], k[1] or ""))
        ]
        spans = [
            dict(zip(("id", "name", "start", "end", "parent", "workload"), s))
            for s in self.spans
            if s is not None
        ]
        path.write_text(
            json.dumps(
                {"table": table, "counters": dict(self.counters), "spans": spans}
            )
        )
