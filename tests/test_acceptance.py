"""Acceptance gate: every shipped claim, checked at full scale.

Each test prints one pass/fail line (visible under ``pytest -s``) and then
asserts.  Budgets and tolerances are fixed here, not tuned at runtime:
exact equalities for the worst-case indices, zero tolerance for safety,
liveness and the transient-phase checks.
"""

import math

import pytest

from stabsim import generate
from stabsim.daemon import SynchronousDaemon
from stabsim.engine import convergence_index_me, run
from stabsim.protocol import DijkstraProtocol, SsmeProtocol
from stabsim.search import (
    ssme_unfair_step_bound,
    sync_worst_case,
    worst_case_unfair,
)
from stabsim.verify import (
    indistinguishability_checks,
    scheduler_ensemble_check,
    transient_checks,
)
from stabsim.cli import main as cli_main


def _report(number: int, label: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {label}: {tag}{suffix}")


SYNC_SCAN_SPECS = ("path:2", "path:3", "ring:4", "path:4")


@pytest.fixture(scope="module")
def sync_scans():
    """Exhaustive synchronous sweeps shared by criteria 1 and 4."""
    scans = {}
    for spec in SYNC_SCAN_SPECS:
        g = generate(spec)
        p = SsmeProtocol.for_graph(g)
        scans[spec] = (
            g,
            p,
            sync_worst_case(p, g, "exhaustive", liveness_window=2 * p.ring),
        )
    return scans


def test_1_tight_synchronous_bound(sync_scans):
    """Worst ME convergence under the synchronous scheduler is exactly
    ceil(diam/2), exhaustively over every initial configuration.  path:4
    (diameter 3) checks a target of 2; the others have diameter <= 2.  The
    witness of each worst case is replayed through the trace engine."""
    failures = []
    for spec, (g, p, scan) in sync_scans.items():
        target = math.ceil(g.diam / 2)
        replay = run(
            p, g, scan.witness_me, SynchronousDaemon(),
            max_steps=p.sync_step_bound(g), stop_at_legitimate=True,
        )
        if convergence_index_me(replay) != target:
            failures.append(f"{spec}: witness {scan.witness_me} does not replay")
        expected_runs = p.params.size ** g.n
        if scan.runs != expected_runs:
            failures.append(f"{spec}: ran {scan.runs} of {expected_runs}")
        if scan.unreached:
            failures.append(f"{spec}: {scan.unreached} runs missed legitimacy")
        if scan.unsafe_after_legitimate:
            failures.append(f"{spec}: safety broke after legitimacy")
        if scan.max_convergence_me != target:
            failures.append(
                f"{spec}: worst convergence {scan.max_convergence_me} != {target} "
                f"(witness {scan.witness_me})"
            )
    ok = not failures
    _report(1, "tight synchronous bound", ok, "; ".join(failures))
    assert ok, failures


def test_2_stabilization_under_adversarial_schedulers():
    """10^4 random starts x 5 policies x 5 seeds per graph: legitimacy within
    the proven step bound, no safety violation from legitimacy on."""
    failures = []
    for spec in ("path:2", "path:3", "ring:4", "ring:5"):
        res = scheduler_ensemble_check(
            generate(spec), inits=10_000, seeds=(0, 1, 2, 3, 4), seed=99
        )
        if not res.ok:
            failures.append(f"{spec}: {res.details}")
    ok = not failures
    _report(2, "stabilization under adversarial schedulers", ok, "; ".join(failures))
    assert ok, failures


# Exact unconstrained worst cases: steps and witness per graph.
UNFAIR_EXACT = {
    "path:2": (6, (1, 3)),
    "complete:4": (20, (1, 1, 1, 3)),
    "complete:5": (30, (1, 1, 1, 1, 3)),
    "ring:4": (23, (0, 1, 3, 1)),
    "path:4": (33, (2, 0, 1, 3)),
}


def test_3_unfair_worst_case_bound():
    """Exhaustive longest-path search over every configuration and every
    activation choice: each exact worst recovery within the cubic bound
    (28 steps on the two-vertex instance), no cycle outside the legitimate
    set."""
    assert ssme_unfair_step_bound(2, 1) == 28
    failures = []
    details = []
    for spec, (worst, witness) in UNFAIR_EXACT.items():
        g = generate(spec)
        p = SsmeProtocol.for_graph(g)
        bound = ssme_unfair_step_bound(g.n, g.diam)
        total = p.params.size ** g.n
        try:  # a cycle or a stuck state raises
            res = worst_case_unfair(p, g, state_budget=total)
        except Exception as exc:
            failures.append(f"{spec}: {exc}")
            continue
        details.append(f"{spec} worst {res.max_steps} <= {bound}")
        if res.states != total:
            failures.append(f"{spec}: searched {res.states} of {total} states")
        if res.max_steps > bound:
            failures.append(f"{spec}: worst {res.max_steps} exceeds bound {bound}")
        if (res.max_steps, res.witness) != (worst, witness):
            failures.append(
                f"{spec}: worst {res.max_steps} (witness {res.witness}) != "
                f"{worst} ({witness})"
            )
    ok = not failures
    detail = "; ".join(failures) if failures else ", ".join(details) + ", no cycle"
    _report(3, "unfair worst-case bound", ok, detail)
    assert ok, failures


def test_4_liveness_window(sync_scans):
    """Every vertex enters its critical section within 2K steps of the
    convergence index, on every converged synchronous run of criterion 1."""
    failures = []
    for spec, (g, p, scan) in sync_scans.items():
        if scan.min_cs_count is None or scan.min_cs_count < 1:
            failures.append(
                f"{spec}: min critical-section count {scan.min_cs_count} "
                f"(witness {scan.cs_witness})"
            )
    ok = not failures
    _report(4, "liveness within 2K of convergence", ok, "; ".join(failures))
    assert ok, failures


def test_5_transient_phase_invariants():
    """10^4 sampled synchronous traces per graph: no repair before an early
    privilege, no zero-island membership before it, island depth shrinks
    forward in time, and post-transient registers sit in the recovery
    window."""
    failures = []
    for spec in ("ring:4", "ring:6", "path:5"):
        for res in transient_checks(generate(spec), samples=10_000, seed=17):
            if not res.ok:
                failures.append(f"{spec}: {res}")
    ok = not failures
    _report(5, "transient-phase invariants", ok, "; ".join(failures))
    assert ok, failures


def test_6_local_indistinguishability():
    """10^3 constructed pairs per graph agreeing on a radius-k ball give
    byte-identical k-step local histories."""
    failures = []
    for spec in ("ring:6", "path:5"):
        for res in indistinguishability_checks(
            generate(spec), pairs=1000, seed=23
        ):
            if not res.ok:
                failures.append(f"{spec}: {res}")
    ok = not failures
    _report(6, "local indistinguishability", ok, "; ".join(failures))
    assert ok, failures


def test_7_token_ring_speculation_gap():
    """Token ring, K = n+1, exhaustive over all (n+1)^n starts for n in
    {3,...,7}.

    Synchronous: every start stabilizes, and the worst case is exactly
    2n-3 (within ``sync_step_bound`` = 2n), witnessed by a start whose
    replay first reaches legitimacy at 2n-3 (replayed for n <= 5; pinned to
    its known value at n = 6, 7).  Unconstrained: the exact worst case and
    its first witness are pinned at every n.  It is never below the
    synchronous one (the synchronous choice is one of the unconstrained
    ones), equal at n=3 (3 = 3) and strictly above it from n=4 on (13 > 5,
    24 > 7, 38 > 9, 55 > 11).
    """
    unfair_expected = {
        3: (3, (0, 1, 0)),
        4: (13, (0, 2, 1, 0)),
        5: (24, (0, 3, 2, 1, 0)),
        6: (38, (0, 4, 3, 2, 1, 0)),
        7: (55, (0, 5, 4, 3, 2, 1, 0)),
    }
    failures = []
    sync_of = {}
    for n in (3, 4, 5):
        g = generate(f"ring:{n}")
        p = DijkstraProtocol.for_graph(g)
        target = 2 * n - 3
        starts = (n + 1) ** n
        scan = sync_worst_case(p, g, "exhaustive")
        sync_worst = scan.max_convergence_legit
        if scan.runs != starts:
            failures.append(f"n={n}: ran {scan.runs} of {starts}")
        if scan.unreached:
            failures.append(f"n={n}: {scan.unreached} runs never stabilized")
        if sync_worst != target:
            failures.append(
                f"n={n}: synchronous worst case {sync_worst} != {target} "
                f"(witness {scan.witness_legit})"
            )
        if sync_worst > p.sync_step_bound(g):
            failures.append(
                f"n={n}: synchronous worst case {sync_worst} > declared bound "
                f"{p.sync_step_bound(g)}"
            )
        replay = run(
            p, g, scan.witness_legit, SynchronousDaemon(),
            max_steps=p.sync_step_bound(g), stop_at_legitimate=True,
        )
        first_legit = next(
            (i for i, c in enumerate(replay.configs) if p.is_legitimate(c, g)),
            None,
        )
        if first_legit != target:
            failures.append(
                f"n={n}: witness {scan.witness_legit} first legitimate at "
                f"{first_legit}, not {target}"
            )
        sync_of[n] = sync_worst
    sync_witness = {6: (0, 1, 0, 1, 1, 1), 7: (0, 1, 0, 1, 1, 1, 1)}
    for n, witness in sync_witness.items():
        g = generate(f"ring:{n}")
        p = DijkstraProtocol.for_graph(g)
        scan = sync_worst_case(p, g, "exhaustive")
        got = (
            scan.runs, scan.unreached, scan.max_convergence_legit, scan.witness_legit
        )
        want = ((n + 1) ** n, 0, 2 * n - 3, witness)
        if got != want:
            failures.append(
                f"n={n}: (runs, unreached, sync worst, witness) {got} != {want}"
            )
        sync_of[n] = scan.max_convergence_legit
    measured = {}
    for n, (worst, witness) in unfair_expected.items():
        g = generate(f"ring:{n}")
        p = DijkstraProtocol.for_graph(g)
        sync_worst, starts = sync_of[n], (n + 1) ** n
        unfair = worst_case_unfair(p, g, state_budget=starts)
        measured[n] = (sync_worst, unfair.max_steps)
        if unfair.states != starts:
            failures.append(f"n={n}: unconstrained search saw {unfair.states} states")
        if unfair.max_steps < sync_worst:
            failures.append(
                f"n={n}: unconstrained worst case {unfair.max_steps} below "
                f"synchronous worst case {sync_worst}"
            )
        if (unfair.max_steps, unfair.witness) != (worst, witness):
            failures.append(
                f"n={n}: unconstrained worst case {unfair.max_steps} (witness "
                f"{unfair.witness}) != {worst} ({witness})"
            )
        if n >= 4 and not unfair.max_steps > sync_worst:
            failures.append(
                f"n={n}: unconstrained worst case {unfair.max_steps} does not "
                f"exceed synchronous worst case {sync_worst}"
            )
    # Hand-checkable anchors.  n=3 from (0,1,2): one step to a single token.
    g3 = generate("ring:3")
    p3 = DijkstraProtocol.for_graph(g3)
    trace = run(
        p3, g3, (0, 1, 2), SynchronousDaemon(),
        max_steps=20, stop_at_legitimate=True, tail=2,
    )
    if convergence_index_me(trace) != 1:
        failures.append("n=3: run from (0,1,2) deviated from the known trace")
    # n=4 from the alternating start: tokens 3,3,3,2,2,1, legitimate at 5.
    g4 = generate("ring:4")
    p4 = DijkstraProtocol.for_graph(g4)
    trace = run(
        p4, g4, (0, 1, 0, 1), SynchronousDaemon(),
        max_steps=20, stop_at_legitimate=True,
    )
    expected_trace = (
        (0, 1, 0, 1), (0, 0, 1, 0), (1, 0, 0, 1),
        (2, 1, 0, 0), (2, 2, 1, 0), (2, 2, 2, 1),
    )
    tokens = [len(p4.privileged_vertices(c, g4)) for c in trace.configs]
    if trace.configs != expected_trace or tokens != [3, 3, 3, 2, 2, 1]:
        failures.append(
            f"n=4: run from (0,1,0,1) gave {trace.configs}, tokens {tokens}"
        )
    ok = not failures
    detail = "; ".join(failures) or ", ".join(
        f"n={n}: sync {s} = 2n-3, unconstrained {u}"
        for n, (s, u) in measured.items()
    )
    _report(7, "token-ring speculation gap", ok, detail)
    assert ok, failures


def test_8_deterministic_trace_exports(tmp_path):
    """Repeating any seeded run reproduces byte-identical trace files."""
    blobs = []
    for sub in ("first", "second"):
        out = tmp_path / sub
        rc = cli_main([
            "run", "--graph", "ring:5", "--protocol", "ssme",
            "--daemon", "dist-rand", "--prob", "0.3", "--seed", "2024",
            "--init", "random:1:77", "--out", str(out),
        ])
        assert rc == 0
        (trace_file,) = out.glob("trace-*.txt")
        blobs.append(trace_file.read_bytes())
    ok = blobs[0] == blobs[1] and len(blobs[0]) > 0
    _report(8, "deterministic trace exports", ok)
    assert ok
