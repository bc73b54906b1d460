import random

import numpy as np
import pytest

from stabsim import generate, verify
from stabsim.daemon import CentralAdversarial, CentralRoundRobin, StepContext
from stabsim.engine import run_stats, step
from stabsim.protocol import SsmeProtocol
from stabsim.search import ssme_unfair_step_bound
from stabsim.verify import (
    bounds_checks,
    clock_checks,
    closure_checks,
    ensemble_runs,
    ensemble_selector,
    graph_checks,
    guard_checks,
    indistinguishability_checks,
    sample_initial_config,
    scheduler_ensemble_check,
    transient_checks,
)


def _assert_all_pass(results):
    for res in results:
        assert res.ok, str(res)


def test_clock_suite():
    _assert_all_pass(clock_checks())


def test_guard_suite():
    _assert_all_pass(guard_checks())


def test_graph_suite():
    graphs = [generate(s) for s in ("ring:5", "path:4", "grid:2x3", "complete:4")]
    _assert_all_pass(graph_checks(graphs))


def test_closure_suite_exhaustive_path2():
    _assert_all_pass(closure_checks(generate("path:2"), exhaustive=True))


def test_closure_suite_sampled_ring5():
    _assert_all_pass(closure_checks(generate("ring:5"), samples=300, seed=2))


def test_transient_suite_small():
    for spec in ("ring:4", "path:5"):
        _assert_all_pass(transient_checks(generate(spec), samples=800, seed=1))


def test_indistinguishability_suite_small():
    _assert_all_pass(
        indistinguishability_checks(generate("ring:6"), pairs=150, seed=4)
    )


def test_bounds_suite_path2_exhaustive():
    _assert_all_pass(bounds_checks(generate("path:2"), exhaustive=True))


def test_scheduler_ensemble_small():
    res = scheduler_ensemble_check(
        generate("path:3"), inits=60, seeds=(0, 1), seed=5
    )
    assert res.ok, str(res)


def test_initial_sampler_stays_in_domain():
    g = generate("ring:6")
    p = SsmeProtocol.for_graph(g)
    rng = random.Random(0)
    planted = 0
    for _ in range(500):
        cfg = sample_initial_config(p, rng)
        assert all(-p.alpha <= c < p.ring for c in cfg)
        if any(cfg[v] == p.thresholds[v] for v in range(g.n)):
            planted += 1
    assert planted > 30  # threshold planting keeps early-privilege cases common


# ---------------------------------------------------------------------------
# The batched scheduler ensemble against the scalar engine and daemons
# ---------------------------------------------------------------------------

TAIL = 12


class OneThreshold(SsmeProtocol):
    """Clock protocol whose vertices all share vertex 0's threshold."""

    def __init__(self, n, diam):
        super().__init__(n, diam)
        self.thresholds = (self.thresholds[0],) * n


def _initials(p, g, count, seed):
    rng = random.Random(seed)
    return [
        tuple(rng.randrange(-p.alpha, p.ring) for _ in range(g.n))
        for _ in range(count)
    ]


def _batched(pname, p, g, initials, seeds, select_wrapper=None):
    rngs = [np.random.default_rng([7, s]) for s in seeds]
    select = ensemble_selector(pname, p, g, rngs, len(initials))
    if select_wrapper is not None:
        select = select_wrapper(select)
    bound = ssme_unfair_step_bound(g.n, g.diam)
    batch = np.tile(np.array(initials, dtype=np.int32), (len(seeds), 1))
    return ensemble_runs(p, g, batch, select, max_steps=bound + TAIL, tail=TAIL)


def _logging(log):
    """Wrap a selector so every step's rows, configurations and activation
    masks are kept."""

    def wrapper(select):
        def logged(rows, R, masks):
            act = select(rows, R, masks)
            log.append((rows.copy(), np.array(R), act.T.copy(), masks[3].copy()))
            return act

        return logged

    return wrapper


def _row_history(log, row):
    """(configuration, activated vertices, enabled vertices) per step of one row."""
    out = []
    for rows, R, act, enabled in log:
        i = np.searchsorted(rows, row)
        if i < len(rows) and rows[i] == row:
            out.append(
                (
                    tuple(int(x) for x in R[i]),
                    [int(v) for v in np.flatnonzero(act[i])],
                    [int(v) for v in np.flatnonzero(enabled[i])],
                )
            )
    return out


@pytest.mark.parametrize(
    "spec, proto",
    [("path:3", SsmeProtocol), ("ring:4", SsmeProtocol), ("path:2", OneThreshold)],
)
def test_batched_round_robin_equals_run_stats(spec, proto):
    g = generate(spec)
    p = proto.for_graph(g)
    initials = _initials(p, g, 60, 3)
    seeds = (0, 1)
    res = _batched("central-rr", p, g, initials, seeds)
    bound = ssme_unfair_step_bound(g.n, g.diam)
    for r in range(len(seeds) * len(initials)):
        init = initials[r % len(initials)]
        stats = run_stats(
            p, g, init, CentralRoundRobin(g.n, seeds[r // len(initials)]),
            max_steps=bound + TAIL, tail=TAIL,
        )
        assert res.steps[r] == stats.steps
        assert res.legitimate_at[r] == stats.legitimate_at
        assert res.last_unsafe[r] + 1 == stats.convergence_me
        assert res.unsafe_after[r] == stats.unsafe_at_or_after_legitimate
        assert tuple(int(x) for x in res.final[r]) == stats.final


@pytest.mark.parametrize(
    "pname", ["central-rand", "central-adv", "dist-rand:0.3", "dist-rand:0.7"]
)
@pytest.mark.parametrize("spec", ["path:3", "ring:4"])
def test_batched_random_policies_replay_through_step(spec, pname):
    g = generate(spec)
    p = SsmeProtocol.for_graph(g)
    initials = _initials(p, g, 40, 5)
    seeds = (0, 3)
    log: list = []
    res = _batched(pname, p, g, initials, seeds, _logging(log))
    for r in range(0, len(seeds) * len(initials), 7):
        history = _row_history(log, r)
        assert len(history) == res.steps[r]
        cfg = initials[r % len(initials)]
        configs = [cfg]
        for logged_cfg, act, enabled in history:
            assert logged_cfg == cfg
            assert enabled == [
                v for v in range(g.n) if p.enabled_rule(v, cfg, g) is not None
            ]
            if pname.startswith("central"):
                assert len(act) == 1
            if pname == "central-adv":
                assert act[0] in _adversarial_argmax(p, g, cfg)
            cfg = step(p, g, cfg, act)
            configs.append(cfg)
        assert tuple(int(x) for x in res.final[r]) == cfg
        legit_at = next(k for k, c in enumerate(configs) if p.is_legitimate(c, g))
        unsafe = [len(p.privileged_vertices(c, g)) >= 2 for c in configs]
        assert res.legitimate_at[r] == legit_at
        assert res.steps[r] == legit_at + TAIL
        assert res.last_unsafe[r] == max(
            (k for k, u in enumerate(unsafe) if u), default=-1
        )
        assert res.unsafe_after[r] == sum(unsafe[legit_at + 1:])


def _adversarial_argmax(p, g, cfg):
    """The candidates `CentralAdversarial` draws its pick from."""

    class Recorder:
        def choice(self, seq):
            self.seen = list(seq)
            return seq[0]

    daemon = CentralAdversarial()
    daemon.rng = Recorder()
    rules = [p.enabled_rule(v, cfg, g) for v in range(g.n)]
    enabled = {v for v, rule in enumerate(rules) if rule is not None}
    daemon.select(enabled, StepContext(p, g, cfg, rules))
    return daemon.rng.seen


@pytest.mark.parametrize("pname", ["central-rand", "dist-rand:0.3", "dist-rand:0.7"])
def test_batched_random_policies_draw_their_distribution(pname):
    # Over every logged selection, the count of a statistic whose mean is
    # known from the enabled set must lie within 5 standard deviations.
    g = generate("ring:4")
    p = SsmeProtocol.for_graph(g)
    log: list = []
    _batched(pname, p, g, _initials(p, g, 300, 9), (0, 1), _logging(log))
    acts = np.concatenate([entry[2] for entry in log])
    enabled = np.concatenate([entry[3] for entry in log])
    k = enabled.sum(axis=1)
    if pname == "central-rand":
        # the lowest enabled vertex is picked with probability 1/k
        lowest = enabled.argmax(axis=1)
        observed = acts[np.arange(len(acts)), lowest].sum()
        prob = 1 / k
    else:
        # at least two vertices move, given that the draw is not empty
        q = float(pname.partition(":")[2])
        observed = (acts.sum(axis=1) >= 2).sum()
        none = (1 - q) ** k
        prob = (1 - none - k * q * (1 - q) ** (k - 1)) / (1 - none)
    assert (acts <= enabled).all()
    assert abs(observed - prob.sum()) <= 5 * np.sqrt((prob * (1 - prob)).sum())


def test_ensemble_reports_runs_past_the_bound(monkeypatch):
    # With a one-step bound and a 200-step tail every run still reaches
    # legitimacy, so only the per-row bound check can fail it.
    g = generate("path:3")
    p = SsmeProtocol.for_graph(g)
    monkeypatch.setattr(verify, "ssme_unfair_step_bound", lambda n, diam: 1)
    res = scheduler_ensemble_check(g, inits=30, seeds=(0, 1), seed=4, tail=200)
    assert not res.ok
    first = next(
        init
        for init in _initials(p, g, 30, 4)
        if run_stats(
            p, g, init, CentralRoundRobin(g.n, 0), max_steps=201, tail=200
        ).legitimate_at > 1
    )
    assert f"first: ('central-rr', 0, {first}, 'no legitimacy within bound')" in (
        res.details
    )


def test_ensemble_reports_unsafe_legitimate_runs(monkeypatch):
    g = generate("path:2")
    p = OneThreshold.for_graph(g)
    monkeypatch.setattr(verify, "SsmeProtocol", OneThreshold)
    res = scheduler_ensemble_check(g, inits=30, seeds=(0, 1), seed=4)
    assert not res.ok
    bound = ssme_unfair_step_bound(g.n, g.diam)
    first = next(
        init
        for init in _initials(p, g, 30, 4)
        if run_stats(
            p, g, init, CentralRoundRobin(g.n, 0), max_steps=bound + TAIL, tail=TAIL
        ).unsafe_at_or_after_legitimate
    )
    assert f"first: ('central-rr', 0, {first}, 'unsafe after legitimacy')" in (
        res.details
    )
