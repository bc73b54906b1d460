import dataclasses
import hashlib
import random

import numpy as np
import pytest

from stabsim import generate, verify
from stabsim.cli import main
from stabsim.clock import ClockParams
from stabsim.daemon import (
    CentralAdversarial,
    CentralRoundRobin,
    Replay,
    StepContext,
    _adversarial_best,
    make_daemon,
)
from stabsim.engine import (
    STOP_REASONS,
    EnsembleRuns,
    FalsificationError,
    convergence_index_me,
    ensemble_runs,
    run_stats,
    step,
)
from stabsim.protocol import Batch, DijkstraProtocol, SsmeProtocol
from stabsim.search import ssme_unfair_step_bound
from stabsim.verify import (
    ENSEMBLE_POLICIES,
    Streams,
    bounds_checks,
    clock_checks,
    closure_checks,
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


def test_guard_suite_reads_the_protocols_thresholds(monkeypatch, capsys):
    # Thresholds only diam apart are not pairwise > diam apart.
    class Crowded(SsmeProtocol):
        def __init__(self, n, diam):
            thresholds = [2 * n + diam * v for v in range(n)]
            super().__init__(n, diam, thresholds=thresholds)

    monkeypatch.setattr(verify, "SsmeProtocol", Crowded)
    failed = [res for res in guard_checks() if not res.ok]
    assert [res.name for res in failed] == [
        "privilege thresholds sit in the ring, pairwise > diam apart"
    ]
    assert main(["verify", "guards"]) == 1
    out = capsys.readouterr().out
    assert "FAIL privilege thresholds sit in the ring" in out


def test_closure_suite_exhaustive_path2():
    _assert_all_pass(closure_checks(generate("path:2")))


def test_closure_suite_walks_every_legitimate_configuration(monkeypatch):
    # ring:4's 531,441 configurations fit the budget, so every one of its
    # 437 legitimate configurations is checked; thresholds one tick apart
    # let two vertices be privileged in 16 of them.
    class Adjacent(SsmeProtocol):
        def __init__(self, n, diam):
            super().__init__(n, diam, thresholds=(8, 9, 10, 11))

    monkeypatch.setattr(verify, "SsmeProtocol", Adjacent)
    closed, safe = closure_checks(generate("ring:4"))
    assert str(closed) == (
        "PASS legitimate configurations are closed under every activation "
        "choice: 437 configurations"
    )
    assert str(safe) == (
        "FAIL legitimate configurations have at most one privileged vertex: "
        "16 counterexamples, first: (8, 9, 8, 7)"
    )


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
    _assert_all_pass(bounds_checks(generate("path:2")))


class ZeroThreshold(SsmeProtocol):
    """The paper's path:3 clock with a privilege threshold at 0."""

    def __init__(self, n, diam):
        super().__init__(n, diam, thresholds=(0, 4, 8))


class ShortStem(SsmeProtocol):
    """ring:4's clock on a stem of 1 instead of n, K = 17, thresholds
    1, 5, 9, 13."""

    def __init__(self, n, diam):
        super().__init__(
            n, diam, params=ClockParams(1, 17), thresholds=(1, 5, 9, 13)
        )


def test_bounds_suite_fails_a_threshold_at_zero(monkeypatch):
    # Both spaces fit their budgets, so both halves are exact.
    monkeypatch.setattr(verify, "SsmeProtocol", ZeroThreshold)
    sync, unfair = bounds_checks(generate("path:3"))
    assert str(sync) == (
        "FAIL worst synchronous convergence equals ceil(diam/2): "
        "1 counterexamples, first: worst synchronous convergence 2, "
        "expected 1 (witness (0, 7, 7))"
    )
    assert unfair.ok, str(unfair)


def test_bounds_suite_falsifies_a_short_stem(monkeypatch):
    monkeypatch.setattr(verify, "SsmeProtocol", ShortStem)
    with pytest.raises(FalsificationError) as exc:
        bounds_checks(generate("ring:4"))
    assert str(exc.value) == "cycle among non-legitimate configurations (12 actions)"
    cycle = exc.value.artifact
    assert len(cycle) == 13 and cycle[0] == cycle[-1] == (-1, -1, 0, 1)


def test_bounds_suite_fails_a_bound_below_the_worst_case(monkeypatch):
    # path:2's exact unconstrained worst case is 6.
    monkeypatch.setattr(verify, "ssme_unfair_step_bound", lambda n, diam: 5)
    sync, unfair = bounds_checks(generate("path:2"))
    assert sync.ok, str(sync)
    assert str(unfair) == (
        "FAIL unconstrained-scheduler worst case within the cubic bound: "
        "1 counterexamples, first: longest recovery 6 exceeds bound 5"
    )


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
    """Clock protocol whose vertices all share vertex 0's threshold, 2n."""

    def __init__(self, n, diam):
        super().__init__(n, diam, thresholds=(2 * n,) * n)


def _initials(p, g, count, seed):
    rng = random.Random(seed)
    domain = p.state_domain()
    return [
        tuple(rng.randrange(domain[0], domain[-1] + 1) for _ in range(g.n))
        for _ in range(count)
    ]


def _bound(p, g):
    if isinstance(p, SsmeProtocol):
        return ssme_unfair_step_bound(g.n, g.diam)
    return p.default_max_steps(g)


# Each ensemble policy's (`make_daemon` name, activation probability), by label.
POLICY = {label: (name, prob) for label, name, prob in ENSEMBLE_POLICIES}


def _batched(label, p, g, initials, seeds, select_wrapper=None):
    name, prob = POLICY[label]
    rngs = [np.random.default_rng([7, s]) for s in seeds]
    draws = Streams(rngs, len(initials))
    select = make_daemon(name, n=g.n, prob=prob).batched(
        p, g, draws, len(seeds) * len(initials)
    )
    if select_wrapper is not None:
        select = select_wrapper(select)
    bound = _bound(p, g)
    batch = np.tile(np.array(initials, dtype=np.int32), (len(seeds), 1))
    return ensemble_runs(p, g, batch, select, max_steps=bound + TAIL, tail=TAIL)


def _logging(log):
    """Wrap a selector so every step's rows, configurations and activation
    masks are kept."""

    def wrapper(select):
        def logged(rows, R, b):
            act = select(rows, R, b)
            log.append((rows.copy(), np.array(R), act.T.copy(), b.enabled.copy()))
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
    [
        ("path:3", SsmeProtocol),
        ("ring:4", SsmeProtocol),
        ("path:2", OneThreshold),
        ("ring:4", DijkstraProtocol),
    ],
)
def test_batched_round_robin_equals_run_stats(spec, proto):
    g = generate(spec)
    p = proto.for_graph(g)
    initials = _initials(p, g, 60, 3)
    seeds = (0, 1)
    res = _batched("central-rr", p, g, initials, seeds)
    bound = _bound(p, g)
    for r in range(len(seeds) * len(initials)):
        init = initials[r % len(initials)]
        stats = run_stats(
            p, g, init, CentralRoundRobin(g.n, seeds[r // len(initials)]),
            max_steps=bound + TAIL, tail=TAIL,
        )
        assert res.steps[r] == stats.steps
        assert res.legitimate_at[r] == stats.legitimate_at
        assert res.last_unsafe[r] + 1 == convergence_index_me(stats)
        assert res.unsafe_after[r] == stats.unsafe_after
        assert tuple(int(x) for x in res.final[r]) == stats.configs[-1]


@pytest.mark.parametrize(
    "pname", ["central-rand", "central-adv", "dist-rand:0.3", "dist-rand:0.7"]
)
@pytest.mark.parametrize("spec", ["path:3", "ring:4"])
def test_batched_random_policies_replay_through_step(spec, pname):
    g = generate(spec)
    _assert_replays_through_step(pname, SsmeProtocol.for_graph(g), g)


@pytest.mark.parametrize(
    "pname", ["central-rand", "central-adv", "dist-rand:0.3", "dist-rand:0.7"]
)
def test_batched_token_ring_policies_replay_through_step(pname):
    g = generate("ring:4")
    _assert_replays_through_step(pname, DijkstraProtocol.for_graph(g), g)


def _assert_replays_through_step(pname, p, g):
    """Logged masks of every 7th row, replayed through the scalar `step`,
    give the batched run's configurations and summary."""
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


def test_adversarial_best_is_the_scalar_argmax():
    # Rows with one enabled vertex and rows with every vertex enabled, on
    # both protocols, in both layouts.
    for p, g, rows in _lookahead_rows():
        b = p.batch(rows, g)
        k = b.enabled.sum(axis=1)
        assert (k == 1).any() and (k == g.n).any() and (k < g.n).sum() > 20
        for R in (rows, np.asfortranarray(rows)):
            best = _adversarial_best(p, g, R, p.batch(R, g))
            assert best.shape == (g.n, len(rows))
            for i, row in enumerate(rows.tolist()):
                expected = _adversarial_argmax(p, g, tuple(row))
                assert np.flatnonzero(best[:, i]).tolist() == expected, row


def _lookahead_rows():
    rng = np.random.default_rng(17)
    g = generate("ring:8")
    p = SsmeProtocol.for_graph(g)
    domain = p.state_domain()
    uniform = rng.integers(domain[0], domain[-1] + 1, (100, g.n))
    # Unison rows with a few registers one tick off: every vertex enabled,
    # or one vertex behind its neighbours, and everything between.
    unison = rng.integers(0, p.ring, (200, 1)) + rng.integers(-1, 2, (200, g.n))
    unison *= rng.random((200, 1)) < 0.9
    gradient = np.array([[0, 1, 2, 3, 4, 3, 2, 1]]) + rng.integers(0, 30, (20, 1))
    ssme = np.vstack([uniform, unison % p.ring, gradient % p.ring])
    yield p, g, ssme.astype(np.int32)
    g = generate("ring:5")
    p = DijkstraProtocol.for_graph(g)
    yield p, g, rng.integers(0, p.k, (300, g.n), dtype=np.int32)


# Seeds of the `Replay` differential test: 3 and -3 seed one generator, 2**70
# is past int64, and the last seed is shared by 20 rows.
REPLAY_SEEDS = [0, 1, -3, 3, 2**70] + [11] * 20


def test_replay_reads_the_scalar_daemons_draws():
    """Every `Replay.pick` and `Replay.coins` equals the calls the scalar
    daemons make on their own `random.Random`, over 360 calls."""
    rng = np.random.default_rng(5)
    replay = Replay(REPLAY_SEEDS)
    scalar = [random.Random(s) for s in REPLAY_SEEDS]
    rows = np.arange(len(REPLAY_SEEDS))
    n = 16
    for call in range(360):
        if call == 240:
            # Finished rows leave; their streams' words may be dropped.
            rows = rows[[0, 2, 5, 6, 9, 17, 24]]
        if call % 2 == 0:
            # Sizes 1-17: each power of two and the value after it.
            sizes = (call // 2 + rows) % 17 + 1
            expected = [scalar[r].choice(range(k)) for r, k in zip(rows, sizes)]
            assert replay.pick(rows, sizes).tolist() == expected, call
        else:
            p = (0.05, 0.3, 1.0)[call // 2 % 3]
            # Row r enables r % 16 + 1 vertices, so rows sharing a seed
            # read at different rates.
            enabled = np.zeros((n, len(rows)), dtype=bool)
            for i, r in enumerate(rows):
                enabled[rng.choice(n, r % 16 + 1, replace=False), i] = True
            act = replay.coins(rows, enabled, p)
            assert (act <= enabled).all() and act.any(axis=0).all()
            for i, r in enumerate(rows):
                pool = np.flatnonzero(enabled[:, i]).tolist()
                expected = _scalar_coins(scalar[r], pool, p)
                assert np.flatnonzero(act[:, i]).tolist() == expected, (call, r)
    assert replay.stream[2] == replay.stream[3]
    shared = replay.cursor[5:]
    assert shared.max() - shared.min() > 2000
    # The shared stream dropped the words below its slowest live row, which
    # its finished rows had not all read.
    base = replay.base[replay.stream[5]]
    assert shared.min() < base <= replay.cursor[rows[2:]].min()


def _scalar_coins(rng, pool, p):
    """`RandomDistributed.select` over ``pool`` with ``rng``."""
    flips = [False]
    while not any(flips):
        flips = [rng.random() < p for _ in pool]
    return [v for v, f in zip(pool, flips) if f]


def test_replay_coins_compare_the_exact_doubles():
    # With p equal to a row's next ``random()`` that coin is a tail, and
    # with the next double up a head.
    for s in REPLAY_SEEDS[:5]:
        x = random.Random(s).random()
        for p in (x, float(np.nextafter(x, 2))):
            replay = Replay([s, s])
            enabled = np.array([[True, True], [False, True]])
            act = replay.coins(np.arange(2), enabled, p)
            for i, pool in enumerate(([0], [0, 1])):
                expected = _scalar_coins(random.Random(s), pool, p)
                assert np.flatnonzero(act[:, i]).tolist() == expected, (s, p)


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
        q = POLICY[pname][1]
        observed = (acts.sum(axis=1) >= 2).sum()
        none = (1 - q) ** k
        prob = (1 - none - k * q * (1 - q) ** (k - 1)) / (1 - none)
    assert (acts <= enabled).all()
    assert abs(observed - prob.sum()) <= 5 * np.sqrt((prob * (1 - prob)).sum())


# SHA-256 of every `EnsembleRuns` array of `_batched` on ring:4 over 100
# initial configurations (seed 11) x policy seeds 0-2.  On the clock
# protocol these runs end with the same summaries under central-adv as
# under central-rand, so the two digests coincide; on the token ring they
# differ.
ENSEMBLE_DIGESTS = {
    "ssme": {
        "central-rr": "72850eb3123a6fe95305d60a909f7c0b2d642f62b4bb8505f3c025adb41ade07",
        "central-rand": "295db979cd8315c64e70a6d59ac690fad6cd203c9fdc68d9ef6adaa24908e1fd",
        "central-adv": "295db979cd8315c64e70a6d59ac690fad6cd203c9fdc68d9ef6adaa24908e1fd",
        "dist-rand:0.3": "14bef711eb9d9118b4ce75a655ee1a650c0c0598f683a8dc3874897f606bddae",
        "dist-rand:0.7": "eefce485ca148b70884e788ce9325bf2120544d175c2f154c4f559a8ae07937d",
    },
    "dijkstra": {
        "central-rr": "7c821f319667013774523608a877ad666ffa24f7da3d32e3c8f8eb029480d901",
        "central-rand": "22657865332469fa28031f3eb5bfd080876140b266b1d4ebe81b65aca491f9ce",
        "central-adv": "a1ded9e722c3c85048974790526122eb5b5168792713e874446a7fc37ab44f5b",
        "dist-rand:0.3": "957503ad672c32414c53b22d82498bb3b41048b7aade1c65a20707b3e7bc2bbe",
        "dist-rand:0.7": "a2678535b2a47a30691d87e8fe008db336ab9d87f8dd85ab00fb6e2efb61bf09",
    },
}


@pytest.mark.parametrize("label", [label for label, _, _ in ENSEMBLE_POLICIES])
@pytest.mark.parametrize("proto", [SsmeProtocol, DijkstraProtocol])
def test_ensemble_draws_are_pinned(proto, label):
    g = generate("ring:4")
    p = proto.for_graph(g)
    res = _batched(label, p, g, _initials(p, g, 100, 11), (0, 1, 2))
    digest = hashlib.sha256()
    for field in dataclasses.fields(EnsembleRuns):
        digest.update(getattr(res, field.name).tobytes())
    assert digest.hexdigest() == ENSEMBLE_DIGESTS[p.name][label]


# `policy_ensembles` cases: (graph, protocol, token-ring K, tail, index of a
# policy whose block starts legitimate), each on 8 initial configurations
# (seed 13) x policy seeds 0-2 per policy, with the SHA-256 of every
# `EnsembleRuns` field of every policy, in order, as the per-policy loop
# gave it before the policies were fused.
FUSED_CASES = [
    pytest.param(
        "path:3", "ssme", None, TAIL, None,
        "edb2ec647e9754179bef2c52b2c2fe42c60add8364a87d27af39234b4592500b",
        id="ssme-path:3",
    ),
    pytest.param(
        "ring:4", "ssme", None, TAIL, None,
        "265cbc0d2f36f4c015cc3c7ab34fa0bed3bfa8444dbb083dd98c6e2dc807dcd1",
        id="ssme-ring:4",
    ),
    pytest.param(
        "ring:4", "dijkstra", 6, TAIL, None,
        "c57c29631bf9079994ae6f8c4ab77ba86328cb11d279c8cb04907a58774af1cf",
        id="dijkstra-ring:4-k6",
    ),
    pytest.param(
        "ring:1", "ssme", None, TAIL, None,
        "d75cfc6c2ae944096572951d103fb5360b8bc9ea28ff54bcc34e44709ad82f01",
        id="ssme-ring:1",
    ),
    pytest.param(
        "path:3", "ssme", None, 0, 2,
        "c4091e67279ed5a55dde5789cc3bd7c12edf44aba240a509e10c0d8560e94849",
        id="ssme-path:3-legitimate-block",
    ),
]


@pytest.mark.parametrize("spec, name, k, tail, legit, want", FUSED_CASES)
def test_fused_policy_blocks_equal_their_own_runs(spec, name, k, tail, legit, want):
    g = generate(spec)
    if name == "ssme":
        p = SsmeProtocol.for_graph(g)
    else:
        p = DijkstraProtocol.for_graph(g, k)
    seed, seeds = 21, (0, 1, 2)
    block = 8 * len(seeds)
    inits = np.array(
        verify.random_inits(p, g.n, len(ENSEMBLE_POLICIES) * block, 13),
        dtype=np.int32,
    )
    if legit is not None:
        # All-zero registers are legitimate, so with no tail this block's
        # runs all stop at step 0 and the fused loop steps without it.
        inits[legit * block : (legit + 1) * block] = 0
    max_steps = _bound(p, g) + tail
    fused = list(verify.policy_ensembles(
        p, g, inits, seed=seed, seeds=seeds, max_steps=max_steps, tail=tail
    ))
    assert [label for label, _ in fused] == list(POLICY)
    digest = hashlib.sha256()
    for i, (label, res) in enumerate(fused):
        name_i, prob = POLICY[label]
        rngs = [np.random.default_rng([seed, i, s]) for s in seeds]
        policy = make_daemon(name_i, n=g.n, prob=prob)
        select = policy.batched(p, g, Streams(rngs, 8), block)
        alone = ensemble_runs(
            p, g, inits[i * block : (i + 1) * block], select,
            max_steps=max_steps, tail=tail,
        )
        for field in dataclasses.fields(EnsembleRuns):
            got = getattr(res, field.name)
            np.testing.assert_array_equal(got, getattr(alone, field.name))
            digest.update(got.tobytes())
        if i == legit:
            assert not res.steps.any()
    if legit is not None:
        assert max(res.steps.max() for _, res in fused) > 0
    assert digest.hexdigest() == want


def test_policy_ensembles_needs_equal_policy_blocks():
    g = generate("path:2")
    p = SsmeProtocol.for_graph(g)
    with pytest.raises(ValueError, match="7 rows do not split into 5"):
        list(verify.policy_ensembles(
            p, g, np.zeros((7, 2), dtype=np.int32),
            seed=0, seeds=(0,), max_steps=3, tail=0,
        ))
    # 35 rows make blocks of 7, which three seed streams do not split.
    with pytest.raises(ValueError, match="35 rows do not split into 5 .* of 3 "):
        list(verify.policy_ensembles(
            p, g, np.zeros((35, 2), dtype=np.int32),
            seed=0, seeds=(0, 1, 2), max_steps=3, tail=0,
        ))


def test_streams_draw_over_a_subset_of_streams():
    # Rows 2-3 read stream 1 and rows 6-7 stream 3 of four, two rows each.
    seeds = range(4)
    streams = Streams([np.random.default_rng(s) for s in seeds], 2)
    untouched = [streams.rngs[s].bit_generator.state for s in (0, 2)]
    got = streams._draw(np.array([2, 3, 6, 7]), 3)
    for s, rows in ((1, got[:2]), (3, got[2:])):
        want = np.random.default_rng(s).random(6).reshape(2, 3)
        np.testing.assert_array_equal(rows, want)
    assert [streams.rngs[s].bit_generator.state for s in (0, 2)] == untouched


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
        ).unsafe_after
    )
    assert f"first: ('central-rr', 0, {first}, 'unsafe after legitimacy')" in (
        res.details
    )


class Countdown:
    """Every vertex counts down to 0 and stays there, so a row turns
    terminal at its largest value.  With ``settle``, a row is legitimate
    once vertex 0 reads 0."""

    legit_tally = 0

    def __init__(self, settle=False):
        self.settle = settle

    def batch(self, R, g):
        enabled = R > 0
        none = np.zeros_like(enabled)
        if self.settle:
            legit, tally = R[:, 0] == 0, none.copy()
            tally[:, 0] = ~legit
        else:
            legit, tally = none[:, 0], ~none
        return Batch(
            np.where(enabled, R - 1, R), enabled, none, legit, enabled, tally
        )


def _everyone(rows, R, b):
    return b.enabled.T


def _countdown(inits, settle=False, **kw):
    kw = {"max_steps": 3, "tail": 0, **kw}
    res = ensemble_runs(
        Countdown(settle), generate("path:2"), np.array(inits), _everyone, **kw
    )
    return [STOP_REASONS[why] for why in res.reason.tolist()], res


def test_ensemble_runs_stop_reasons_in_run_precedence():
    reasons, res = _countdown([[0, 0], [2, 1], [5, 0]])
    assert reasons == ["terminal", "terminal", "max_steps"]
    assert res.steps.tolist() == [0, 2, 3]
    assert res.legitimate_at.tolist() == [-1, -1, -1]
    # At step 2 the second row is both terminal and at the step budget.
    reasons, _ = _countdown([[2, 1]], max_steps=2)
    assert reasons == ["max_steps"]
    # Converged wins over terminal and over the step budget, and is never
    # the reason when runs do not stop at legitimacy.
    reasons, res = _countdown([[2, 1], [1, 3]], settle=True)
    assert reasons == ["converged", "converged"]
    assert res.steps.tolist() == [2, 1]
    assert res.last_illegitimate.tolist() == [1, 0]
    reasons, res = _countdown([[2, 1], [1, 3]], settle=True, tail=2)
    assert reasons == ["terminal", "converged"]
    assert res.steps.tolist() == [2, 3]
    reasons, res = _countdown([[2, 1]], settle=True, stop_at_legitimate=False)
    assert reasons == ["terminal"]
    assert res.legitimate_at.tolist() == [2]


def test_ensemble_runs_on_no_rows():
    reasons, res = _countdown(np.zeros((0, 2), dtype=np.int32))
    assert reasons == []
    for field in dataclasses.fields(EnsembleRuns):
        assert len(getattr(res, field.name)) == 0, field.name
    assert res.final.shape == (0, 2)


@pytest.mark.parametrize(
    "select, message",
    [
        (lambda rows, R, b: np.zeros_like(b.enabled.T), "empty selection in row 0"),
        (lambda rows, R, b: np.ones_like(b.enabled.T), "non-enabled vertex 1 in row 0"),
    ],
)
def test_ensemble_runs_rejects_a_bad_selection(select, message):
    with pytest.raises(ValueError, match=message):
        ensemble_runs(
            Countdown(), generate("path:2"), np.array([[1, 0], [0, 2]]), select,
            max_steps=3, tail=0,
        )
