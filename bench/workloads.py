"""The benchmark workloads and the parts they are mixed from.

Each part is a scaled-down acceptance criterion.  A workload is a fixed mix
of parts, set up once per process (graphs, protocols, argument lists) and
then run in cycles.  A cycle is a list of ``Call``s into stabsim's public
entry points; the harness times each call, and after timing checks what
``observe`` extracts from its output against the values pinned in
``pins.json``.  A cycle is the unit of the workload's mix, so the harness
only ever runs whole cycles.

Sizes: ``full`` is the measured size; ``smoke`` is a tiny size with the same
structure, used by ``selftest.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import re
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass
class Call:
    pin: str  # key of the pinned record in pins.json
    label: str  # names the timing sample
    fn: Callable[[], object]
    items: int
    observe: Callable[[object], dict]


def _identity_wrap(name, fn, measure=None):
    return fn


class Part:
    sizes: dict[str, dict] = {}

    def __init__(self, size: str, tracer=None, scratch: Path | None = None):
        self.params = self.sizes[size]
        self.tracer = tracer
        self.wrap = tracer.wrap if tracer is not None else _identity_wrap
        self.scratch = scratch

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def cycle(self, index: int) -> list[Call]:
        raise NotImplementedError


def _states(protocol, g) -> int:
    return len(protocol.state_domain()) ** g.n


class Ensemble(Part):
    """Criterion 2: every adversarial policy converges within the cubic bound.

    One cycle of this part is one ``scheduler_ensemble_check`` call:
    ``inits`` sampled initial configurations x 5 policies x 5 policy seeds.
    The initial configurations come from a seed derived from the workload
    seed and the cycle index.
    """

    sizes = {
        "full": {"graph": "ring:5", "inits": 40},
        "smoke": {"graph": "ring:3", "inits": 2},
    }
    POLICY_SEEDS = (0, 1, 2, 3, 4)
    POLICIES = 5

    def setup(self, seed: int) -> None:
        from stabsim import graph, verify

        self.seed = seed
        self.g = graph.generate(self.params["graph"])
        self.check = self.wrap(
            "verify.scheduler_ensemble_check", verify.scheduler_ensemble_check
        )

    def cycle(self, index: int) -> list[Call]:
        inits = self.params["inits"]
        batch_seed = self.seed * 100_003 + index

        def observe(res) -> dict:
            m = re.search(r"(\d+) runs", res.details)
            return {"ok": res.ok, "runs": int(m.group(1)) if m else None}

        return [
            Call(
                "batch",
                "batch",
                lambda: self.check(
                    self.g, inits=inits, seeds=self.POLICY_SEEDS, seed=batch_seed
                ),
                inits * len(self.POLICY_SEEDS) * self.POLICIES,
                observe,
            )
        ]


class SyncScan(Part):
    """Criteria 1, 4 and 7: exhaustive synchronous worst cases.

    One cycle of this part scans three state spaces: ssme without the
    liveness window, ssme with the window 2K (both on the numpy mask
    kernel), and the token ring on the scalar path.
    """

    sizes = {
        "full": {"ssme": "ring:4", "dijkstra": "ring:5"},
        "smoke": {"ssme": "ring:3", "dijkstra": "ring:3"},
    }
    FIELDS = (
        "runs",
        "max_convergence_me",
        "max_convergence_legit",
        "unreached",
        "unsafe_after_legitimate",
        "min_cs_count",
    )

    def setup(self, seed: int) -> None:
        from stabsim import graph, protocol, search

        def add_configs(variant):
            key = f"search.sync_worst_case.{variant}.configs"

            def measure(counters, result):
                counters[key] += result.runs

            return measure

        g_s = graph.generate(self.params["ssme"])
        g_d = graph.generate(self.params["dijkstra"])
        p_s = protocol.make_protocol("ssme", g_s)
        p_d = protocol.make_protocol("dijkstra", g_d)
        scans = []
        for label, variant, proto, g, window in (
            (f"sync ssme {self.params['ssme']}", "nowindow", p_s, g_s, None),
            (f"sync ssme {self.params['ssme']} window=2K", "window", p_s, g_s, 2 * p_s.ring),
            (f"sync dijkstra {self.params['dijkstra']}", "scalar", p_d, g_d, None),
        ):
            fn = self.wrap(
                f"search.sync_worst_case.{variant}",
                search.sync_worst_case,
                add_configs(variant),
            )
            scans.append((label, fn, proto, g, window))
        self.scans = scans

    def cycle(self, index: int) -> list[Call]:
        def observe(res) -> dict:
            return {f: getattr(res, f) for f in self.FIELDS}

        return [
            Call(
                label,
                label,
                lambda fn=fn, p=p, g=g, w=w: fn(p, g, "exhaustive", liveness_window=w),
                _states(p, g),
                observe,
            )
            for label, fn, p, g, w in self.scans
        ]


class UnfairSearch(Part):
    """Criterion 3: exact worst case under the unconstrained scheduler.

    One cycle of this part solves two full state spaces by memoized DFS
    over every activation subset.  A ``FalsificationError`` surfaces as a
    failed check.
    """

    sizes = {
        "full": {"instances": (("ssme", "complete:4"), ("dijkstra", "ring:6"))},
        "smoke": {"instances": (("ssme", "path:2"), ("dijkstra", "ring:3"))},
    }

    def setup(self, seed: int) -> None:
        from stabsim import graph, protocol, search

        def add_states(counters, result):
            counters["search.worst_case_unfair.states"] += result.states

        fn = self.wrap("search.worst_case_unfair", search.worst_case_unfair, add_states)
        self.instances = []
        for proto_name, spec in self.params["instances"]:
            g = graph.generate(spec)
            p = protocol.make_protocol(proto_name, g)
            self.instances.append((f"unfair {proto_name} {spec}", fn, p, g))

    def cycle(self, index: int) -> list[Call]:
        def observe(res) -> dict:
            return {"max_steps": res.max_steps, "states": res.states}

        return [
            Call(
                label,
                label,
                lambda fn=fn, p=p, g=g: fn(p, g, state_budget=_states(p, g)),
                _states(p, g),
                observe,
            )
            for label, fn, p, g in self.instances
        ]


class TraceSweep(Part):
    """Criterion 8: the traced CLI path, ``stabsim sweep`` with trace export.

    One cycle of this part runs ``sweep`` once per daemon on
    ``random:INITS:S`` initial configurations x ``seeds`` scheduler seeds.
    ``S`` is drawn from a table of ``table`` input seeds whose summary
    digests are pinned: cycle ``i`` of workload seed ``s`` uses entry
    ``(10 s + i) mod table``.
    """

    sizes = {
        "full": {"graph": "ring:8", "inits": 200, "seeds": 3, "table": 64},
        "smoke": {"graph": "ring:4", "inits": 5, "seeds": 1, "table": 4},
    }
    DAEMONS = (
        ("central-rand",),
        ("dist-rand", "--prob", "0.3"),
        ("central-adv",),
    )

    def setup(self, seed: int) -> None:
        from stabsim import cli

        # The CLI builds its graph and initial configurations itself, inside
        # the timed calls.
        self.seed = seed
        self.main = self.wrap("cli.main", cli.main)

    def calls_for(self, entry: int) -> list[Call]:
        p = self.params
        calls = []
        for daemon in self.DAEMONS:
            out = self.scratch / f"sweep-{entry}-{daemon[0]}"
            argv = [
                "sweep", "--graph", p["graph"], "--protocol", "ssme",
                "--init", f"random:{p['inits']}:{entry}",
                "--seeds", str(p["seeds"]), "--seed", str(entry),
                "--out", str(out), "--daemon", *daemon,
            ]

            def run(argv=argv, out=out):
                shutil.rmtree(out, ignore_errors=True)
                with contextlib.redirect_stdout(io.StringIO()):
                    return self.main(argv)

            def observe(rc, out=out) -> dict:
                summary = out / "summary.csv"
                data = summary.read_bytes() if summary.exists() else b""
                if self.tracer is not None:
                    self.tracer.counters["cli.summary.bytes"] += len(data)
                shutil.rmtree(out, ignore_errors=True)
                return {"exit": rc, "sha256": hashlib.sha256(data).hexdigest()}

            calls.append(
                Call(
                    f"sweep {entry} {daemon[0]}",
                    daemon[0],
                    run,
                    p["inits"] * p["seeds"],
                    observe,
                )
            )
        return calls

    def cycle(self, index: int) -> list[Call]:
        return self.calls_for((10 * self.seed + index) % self.params["table"])


class Workload:
    """A fixed mix: each cycle runs ``repeats`` cycles of every part."""

    name = ""
    item = ""
    seeded = True
    traced_cycles = 1
    mix: tuple[tuple[type[Part], int], ...] = ()

    def __init__(self, size: str, tracer=None, scratch: Path | None = None):
        self.parts = [(cls(size, tracer, scratch), repeats) for cls, repeats in self.mix]

    def setup(self, seed: int) -> None:
        for part, _ in self.parts:
            part.setup(seed)

    def cycle(self, index: int) -> list[Call]:
        calls = []
        for part, repeats in self.parts:
            for j in range(repeats):
                calls += part.cycle(index * repeats + j)
        return calls


class SampledRuns(Workload):
    """Scheduler runs from sampled initial configurations: criteria 2 and 8.

    Four ensemble calls (4,000 summary-engine runs) and one CLI sweep per
    daemon (1,800 traced runs) take about equal time, so a change to either
    engine moves the result.  Guards and daemons do all the work; numpy and
    ``search`` do none.
    """

    name = "sampled-runs"
    item = "scheduler run"
    traced_cycles = 2
    mix = ((Ensemble, 4), (TraceSweep, 1))


class Exhaustive(Workload):
    """Exhaustive searches over whole state spaces: criteria 1, 3, 4 and 7.

    The numpy mask kernel, the scalar synchronous path and the memoized DFS
    over every activation subset.  The workload seed is unused.
    """

    name = "exhaustive"
    item = "configuration scanned or solved"
    seeded = False
    mix = ((SyncScan, 1), (UnfairSearch, 1))


WORKLOADS = {w.name: w for w in (SampledRuns, Exhaustive)}
