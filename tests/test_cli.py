import csv
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from stabsim import cli, generate, make_protocol, search, verify, worst_case_unfair
from stabsim.cli import main
from stabsim.daemon import DAEMON_NAMES, CentralRoundRobin, make_daemon
from stabsim.engine import FalsificationError, run_stats
from stabsim.search import SyncScanResult
from stabsim.verify import random_inits


def test_run_writes_trace_and_summary(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main([
        "run", "--graph", "ring:4", "--daemon", "central-rand",
        "--seed", "3", "--init", "random:1:11", "--out", str(out),
    ])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "# effective-spec" in captured
    traces = list(out.glob("trace-*.txt"))
    assert len(traces) == 1
    text = traces[0].read_text()
    assert text.startswith("# stabsim trace v1")
    assert "reason" in text
    with (out / "summary.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert set(rows[0]) == {
        "graph", "protocol", "daemon", "seed", "init_hash",
        "conv_me", "conv_au", "violations", "steps", "reason",
    }


def test_summary_append_is_schema_stable(tmp_path):
    out = tmp_path / "out"
    for seed in ("1", "2"):
        rc = main([
            "run", "--graph", "path:3", "--seed", seed,
            "--init", "random:1:5", "--out", str(out),
        ])
        assert rc == 0
    lines = (out / "summary.csv").read_text().splitlines()
    assert len(lines) == 3  # one header + two rows
    assert lines[0] == (
        "graph,protocol,daemon,seed,init_hash,conv_me,conv_au,"
        "violations,steps,reason"
    )


def test_run_is_byte_deterministic(tmp_path):
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        rc = main([
            "run", "--graph", "ring:5", "--daemon", "dist-rand",
            "--prob", "0.4", "--seed", "21", "--init", "random:1:8",
            "--out", str(out),
        ])
        assert rc == 0
        (trace,) = out.glob("trace-*.txt")
        outs.append(trace.read_bytes())
    assert outs[0] == outs[1]


def test_run_witness_init_two_privileged(tmp_path, capsys):
    out = tmp_path / "o"
    rc = main([
        "run", "--graph", "path:2", "--init", "witness", "--out", str(out),
    ])
    assert rc == 0
    text = capsys.readouterr().out
    assert "conv_me=1" in text


def test_run_missing_graph_file_exits_2(tmp_path, capsys):
    rc = main(["run", "--graph", "file:/no/such.g", "--out", str(tmp_path)])
    assert rc == 2
    assert "error" in capsys.readouterr().err


GRAPH_NOT_A_FILE = "graph file not found or not a file"


@pytest.mark.parametrize(
    "command, flag, value, message",
    [
        ("run", "--graph", "file:{d}", GRAPH_NOT_A_FILE),
        ("run", "--graph", "file:", GRAPH_NOT_A_FILE),
        ("run", "--init", "file:{d}", "initial configuration file not found or not a file"),
        ("run", "--config", "{d}", "config file not found or not a file"),
        ("witness", "--graph", "file:{d}", GRAPH_NOT_A_FILE),
        ("witness", "--graph", "file:", GRAPH_NOT_A_FILE),
    ],
    ids=[
        "run-graph-dir", "run-graph-empty-path", "run-init-dir", "run-config-dir",
        "witness-graph-dir", "witness-graph-empty-path",
    ],
)
def test_directory_as_input_file_exits_2(
    tmp_path, monkeypatch, capsys, command, flag, value, message
):
    # An empty path reads as the working directory.
    monkeypatch.chdir(tmp_path)
    rc = main([command, flag, value.format(d=tmp_path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert message in capsys.readouterr().err


def test_graph_file_needs_the_file_prefix(tmp_path, monkeypatch, capsys):
    # A file named like a generator spec does not replace the generator.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ring:4").write_text("2 1\n0 1\n")
    assert main(["witness", "--graph", "ring:4", "--out", "o"]) == 0
    assert "config 8 0 16 0" in capsys.readouterr().out
    assert main(["witness", "--graph", "file:ring:4", "--out", "o"]) == 0
    assert "config 4 6" in capsys.readouterr().out


def test_verify_indist_needs_diameter_1(capsys):
    rc = main(["verify", "indist", "--graph", "path:1"])
    assert rc == 2
    assert "needs a graph of diameter >= 1" in capsys.readouterr().err


def test_run_init_file(tmp_path, capsys):
    cfg = tmp_path / "init.cfg"
    cfg.write_text("4\n6\n")
    rc = main([
        "run", "--graph", "path:2", "--init", f"file:{cfg}",
        "--out", str(tmp_path / "o"),
    ])
    assert rc == 0
    assert "conv_me=1" in capsys.readouterr().out


def test_run_init_file_wrong_length(tmp_path, capsys):
    cfg = tmp_path / "init.cfg"
    cfg.write_text("1\n2\n3\n")
    rc = main([
        "run", "--graph", "path:2", "--init", f"file:{cfg}",
        "--out", str(tmp_path / "o"),
    ])
    assert rc == 2


@pytest.mark.parametrize(
    "protocol, first", [("dijkstra", "9"), ("ssme", "999"), ("ssme", "-999")]
)
def test_run_init_file_outside_domain_exits_2(tmp_path, capsys, protocol, first):
    cfg = tmp_path / "init.cfg"
    cfg.write_text(f"{first}\n0\n0\n0\n")
    rc = main([
        "run", "--graph", "ring:4", "--protocol", protocol,
        "--init", f"file:{cfg}", "--out", str(tmp_path / "o"),
    ])
    assert rc == 2
    assert f"holds {first}, outside the {protocol} states" in capsys.readouterr().err


def test_run_witness_init_outside_token_ring_domain_exits_2(tmp_path, capsys):
    # The witness is a clock-protocol configuration; its values exceed K.
    rc = main([
        "run", "--graph", "ring:4", "--protocol", "dijkstra",
        "--init", "witness", "--out", str(tmp_path / "o"),
    ])
    assert rc == 2
    assert "outside the dijkstra states 0..4" in capsys.readouterr().err


@pytest.mark.parametrize("k, rc", [(2**31 - 1, 0), (3_000_000_000, 2)])
def test_sweep_token_ring_k_states_fit_int32(tmp_path, capsys, k, rc):
    # The random inits are drawn from the domain without listing it.
    out = tmp_path / "o"
    assert main([
        "sweep", "--protocol", "dijkstra", "--graph", "ring:4",
        "--k-states", str(k), "--init", "random:3:1", "--out", str(out),
    ]) == rc
    if rc == 0:
        assert "runs 3" in capsys.readouterr().out
    else:
        assert "needs K <= 2147483647" in capsys.readouterr().err


def test_config_file_with_flag_override(tmp_path, capsys):
    conf = tmp_path / "exp.conf"
    conf.write_text("graph ring:5\nseed 9\ndaemon central-rr\n")
    rc = main([
        "run", "--config", str(conf), "--seed", "4",
        "--out", str(tmp_path / "o"), "--init", "random:1:2",
    ])
    assert rc == 0
    text = capsys.readouterr().out
    assert "graph=ring:5" in text      # from file
    assert "seed=4" in text            # flag wins
    assert "daemon=central-rr" in text


def test_sweep(tmp_path, capsys):
    out = tmp_path / "o"
    rc = main([
        "sweep", "--graph", "path:3", "--daemon", "dist-rand",
        "--init", "random:4:1", "--seeds", "2", "--out", str(out),
    ])
    assert rc == 0
    with (out / "summary.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8
    hashes = [(r["init_hash"], r["seed"]) for r in rows]
    assert hashes == sorted(hashes)


def test_sweep_json_lines(tmp_path):
    out = tmp_path / "o"
    rc = main([
        "sweep", "--graph", "path:2", "--init", "random:2:1",
        "--format", "json-lines", "--out", str(out),
    ])
    assert rc == 0
    lines = (out / "summary.jsonl").read_text().splitlines()
    assert len(lines) == 2
    assert all(line.startswith("{") for line in lines)


def test_verify_clock_passes(capsys):
    assert main(["verify", "clock"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_closure_exhaustive_path2(capsys):
    assert main(["verify", "closure", "--graph", "path:2"]) == 0


def test_verify_closure_ring4_is_exhaustive(capsys):
    assert main(["verify", "closure", "--graph", "ring:4"]) == 0
    out = capsys.readouterr().out
    assert out.count(": 437 configurations") == 2


def test_verify_lemmas_sampled(capsys):
    rc = main([
        "verify", "lemmas", "--graph", "ring:4", "--samples", "400",
        "--seed", "7",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4


def test_verify_bounds_path2(capsys):
    rc = main(["verify", "bounds", "--graph", "path:2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_verify_bounds_sampled_solves_small_unconstrained_space(capsys):
    rc = main(["verify", "bounds", "--graph", "path:2", "--samples", "500"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS worst synchronous convergence equals ceil(diam/2): 100 runs" in out
    assert "PASS unconstrained-scheduler worst case within the cubic bound: " \
        "100 states, worst 6 <= 28" in out


def test_verify_bounds_solves_ring4_unconstrained_space(capsys):
    rc = main(["verify", "bounds", "--graph", "ring:4", "--samples", "500"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS worst synchronous convergence equals ceil(diam/2): 531441 runs" in out
    assert "PASS unconstrained-scheduler worst case within the cubic bound: " \
        "531441 states, worst 23 <= 336" in out


def test_verify_bounds_samples_large_unconstrained_space(capsys):
    # 74**6 states are past the state budget: the unconstrained half is the
    # sampled lower bound.
    rc = main(["verify", "bounds", "--graph", "ring:6", "--samples", "2000"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS worst synchronous convergence equals ceil(diam/2): 2000 runs" in out
    assert "PASS unconstrained-scheduler worst case within the cubic bound: " \
        "2000 sampled runs, worst 46 <= 1548" in out


def test_verify_bounds_falsifies_a_sampled_run_that_misses_the_bound(
    monkeypatch, capsys
):
    # Under a 3-step bound some sampled ssme runs on ring:6 reach no
    # legitimate configuration; the suite must report them, not pass.
    monkeypatch.setattr(verify, "ssme_unfair_step_bound", lambda n, diam: 3)
    rc = main(["verify", "bounds", "--graph", "ring:6", "--samples", "50"])
    assert rc == 1
    err = capsys.readouterr().err
    assert (
        "FALSIFIED: central-rr run under policy seed 0 reached no legitimate "
        "configuration within 3 steps"
    ) in err
    g = generate("ring:6")
    p = make_protocol("ssme", g)
    first = next(
        init
        for init in random_inits(p, g.n, 2, 0)
        if run_stats(p, g, init, CentralRoundRobin(g.n, 0), max_steps=3, tail=0)
        .legitimate_at < 0
    )
    assert f"artifact: {first}" in err


def test_verify_ensemble_small(capsys):
    rc = main(["verify", "ensemble", "--graph", "path:3", "--samples", "20"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS adversarial schedulers converge in budget" in out
    assert "500 runs on n=3" in out


def test_verify_indist_small(capsys):
    rc = main(["verify", "indist", "--graph", "ring:4", "--samples", "50"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS agreeing radius-k balls" in out
    assert "50 constructed pairs" in out


def test_witness_command(tmp_path, capsys):
    out = tmp_path / "o"
    rc = main(["witness", "--graph", "ring:8", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "convergence 2" in text
    assert "target 2" in text
    vals = [int(x) for x in (out / "witness.cfg").read_text().split()]
    assert len(vals) == 8


def test_falsification_exits_1_with_its_artifact(tmp_path, monkeypatch, capsys):
    def falsified(g):
        raise FalsificationError("planted failure", artifact=(1, 2, 3, 4))

    monkeypatch.setattr(cli, "lower_bound_witness", falsified)
    rc = main(["witness", "--graph", "ring:4", "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "FALSIFIED: planted failure" in err
    assert "artifact: (1, 2, 3, 4)" in err


def test_compare_small(tmp_path, capsys):
    out = tmp_path / "o"
    rc = main([
        "compare", "--graphs", "ring:3", "--samples", "50",
        "--out", str(out),
    ])
    assert rc == 0
    with (out / "compare.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert {r["protocol"] for r in rows} == {"ssme", "dijkstra"}
    for row in rows:
        assert float(row["unfair_worst"]) >= float(row["sync_worst"])


def test_compare_skips_the_token_ring_off_rings(tmp_path, capsys):
    out = tmp_path / "o"
    rc = main([
        "compare", "--graphs", "ring:3,path:3", "--samples", "50",
        "--out", str(out),
    ])
    assert rc == 0
    with (out / "compare.csv").open() as fh:
        rows = [(r["graph"], r["protocol"]) for r in csv.DictReader(fh)]
    assert rows == [("ring:3", "ssme"), ("ring:3", "dijkstra"), ("path:3", "ssme")]
    assert (
        "path:3 dijkstra: skipped: token ring protocol requires a ring graph"
        in capsys.readouterr().out
    )


def test_compare_folds_the_witness_into_a_sampled_sync_worst(tmp_path):
    # ssme ring:6 has 19,770,609,664 configurations, past the scan's
    # budget; its 25 sampled runs alone read 0, the witness gives 2.
    out = tmp_path / "o"
    rc = main(["compare", "--graphs", "ring:6", "--samples", "25", "--out", str(out)])
    assert rc == 0
    with (out / "compare.csv").open() as fh:
        ssme = next(r for r in csv.DictReader(fh) if r["protocol"] == "ssme")
    assert (ssme["sync_worst"], ssme["unfair_worst"], ssme["ratio"]) == (
        "2", "45", "22.500"
    )


@pytest.mark.parametrize("below", ["", "sub"], ids=["file", "under-file"])
@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--init", "zeros"],
        ["sweep", "--init", "random:2:0"],
        ["compare", "--graphs", "ring:3"],
        ["witness"],
    ],
    ids=["run", "sweep", "compare", "witness"],
)
def test_out_naming_a_file_exits_2(tmp_path, capsys, argv, below):
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    rc = main([*argv, "--out", str(afile / below)])
    assert rc == 2
    assert "is not a directory" in capsys.readouterr().err
    assert afile.read_text() == "kept\n"


def test_compare_sampled_unfair_is_a_lower_bound(tmp_path, monkeypatch):
    # A state budget of 1 forces the sampled ensemble for both protocols.
    monkeypatch.setattr(verify, "DEFAULT_STATE_BUDGET", 1)
    out = tmp_path / "o"
    rc = main(["compare", "--graphs", "ring:3", "--out", str(out)])
    assert rc == 0
    with (out / "compare.csv").open() as fh:
        rows = {r["protocol"]: r for r in csv.DictReader(fh)}
    g = generate("ring:3")
    for name in ("ssme", "dijkstra"):
        p = make_protocol(name, g)
        exact = worst_case_unfair(p, g, state_budget=10_000).max_steps
        assert 1 <= int(rows[name]["unfair_worst"]) <= exact


@pytest.mark.parametrize(
    "spec, name, samples, seed, want",
    [
        ("ring:4", "ssme", 500, 0, 21),
        ("ring:4", "dijkstra", 500, 0, 12),
        ("ring:6", "dijkstra", 500, 0, 25),
        ("ring:5", "ssme", 250, 3, 32),
        ("path:4", "ssme", 250, -2, 24),
    ],
)
def test_sampled_unfair_worst_is_pinned(
    monkeypatch, spec, name, samples, seed, want
):
    # Pins the draw order: the initial configurations from one
    # random.Random(seed), then one numpy stream per (policy, policy seed).
    monkeypatch.setattr(verify, "DEFAULT_STATE_BUDGET", 0)
    g = generate(spec)
    p = make_protocol(name, g)
    bound = verify.unfair_worst_bound(p, g, samples=samples, seed=seed)
    assert (bound.max_steps, bound.exact) == (want, False)
    assert bound.covered == 25 * max(1, samples // 25)


def test_compare_falsifies_a_sampled_run_that_misses_the_bound(
    tmp_path, monkeypatch, capsys
):
    # Under a 3-step bound some sampled ssme runs reach no legitimate
    # configuration; compare must report them, not count them as -1 steps.
    monkeypatch.setattr(search, "DEFAULT_CONFIG_BUDGET", 0)
    monkeypatch.setattr(verify, "DEFAULT_STATE_BUDGET", 1)
    monkeypatch.setattr(verify, "ssme_unfair_step_bound", lambda n, diam: 3)
    rc = main([
        "compare", "--graphs", "ring:4", "--samples", "50", "--out", str(tmp_path),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert (
        "FALSIFIED: central-rr run under policy seed 0 reached no legitimate "
        "configuration within 3 steps"
    ) in err
    g = generate("ring:4")
    p = make_protocol("ssme", g)
    first = next(
        init
        for init in random_inits(p, g.n, 2, 0)
        if run_stats(p, g, init, CentralRoundRobin(g.n, 0), max_steps=3, tail=0)
        .legitimate_at < 0
    )
    assert f"artifact: {first}" in err


def test_verify_bounds_and_compare_share_both_halves(tmp_path, monkeypatch):
    # Each half of the comparison is chosen exact or sampled in one
    # function, which the suite and the table both call.
    seen = []

    def spy(name, fn):
        def wrapped(protocol, g, **kw):
            seen.append((name, protocol.name, g.n, kw))
            return fn(protocol, g, **kw)

        return wrapped

    monkeypatch.setattr(
        verify, "sync_worst_bound", spy("sync", verify.sync_worst_bound)
    )
    monkeypatch.setattr(
        verify, "unfair_worst_bound", spy("unfair", verify.unfair_worst_bound)
    )
    assert main(["verify", "bounds", "--graph", "path:3", "--samples", "30"]) == 0
    suite, seen[:] = list(seen), []
    rc = main([
        "compare", "--graphs", "path:3", "--samples", "30", "--out", str(tmp_path),
    ])
    assert rc == 0
    want = {"samples": 30, "seed": 0}
    assert suite == seen == [
        ("sync", "ssme", 3, want), ("unfair", "ssme", 3, want),
    ]


def test_every_daemon_choice_builds_its_policy():
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if a.dest == "command").choices
    for command in ("run", "sweep"):
        (daemon,) = (a for a in commands[command]._actions if a.dest == "daemon")
        assert list(daemon.choices) == list(DAEMON_NAMES)
        for name in daemon.choices:
            policy = make_daemon(name, n=4)
            assert policy.name == name
            assert callable(policy.batched)


def test_unknown_daemon_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["run", "--daemon", "chaotic"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "ensemble", "--graph", "ring:4", "--samples", "0"],
        ["verify", "indist", "--samples", "-1"],
        ["verify", "lemmas", "--samples", "-1"],
        ["compare", "--samples", "0"],
        ["sweep", "--seeds", "0"],
    ],
)
def test_samples_must_be_positive(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"{argv[-2]}: must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--budget", "-1"],
    ],
)
def test_budgets_must_be_nonnegative(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"{argv[-2]}: must be >= 0" in capsys.readouterr().err


def test_compare_zero_budgets_always_sample(tmp_path, monkeypatch):
    seen = []

    def scan(protocol, g, mode, **kw):
        seen.append(("sync", mode))
        return SyncScanResult(runs=1, max_convergence_me=1)

    def exact(protocol, g, **kw):
        seen.append(("unfair", "exhaustive"))
        return worst_case_unfair(protocol, g, **kw)

    def sampled(*args, **kw):
        seen.append(("unfair", "sample"))
        return ensembles(*args, **kw)

    ensembles = verify.policy_ensembles
    monkeypatch.setattr(search, "DEFAULT_CONFIG_BUDGET", 0)
    monkeypatch.setattr(verify, "DEFAULT_STATE_BUDGET", 0)
    monkeypatch.setattr(search, "sync_worst_case", scan)
    monkeypatch.setattr(verify, "worst_case_unfair", exact)
    monkeypatch.setattr(verify, "policy_ensembles", sampled)
    rc = main(["compare", "--graphs", "ring:3", "--out", str(tmp_path)])
    assert rc == 0
    assert seen == [("sync", "sample"), ("unfair", "sample")] * 2


@pytest.mark.parametrize("prob", ["0", "1.5"])
@pytest.mark.parametrize("command", ["run", "sweep"])
def test_dist_rand_probability_out_of_range_exits_2(tmp_path, capsys, command, prob):
    rc = main([
        command, "--daemon", "dist-rand", "--prob", prob,
        "--out", str(tmp_path / "o"),
    ])
    assert rc == 2
    assert "activation probability must be in (0,1]" in capsys.readouterr().err


def test_config_file_int_key(tmp_path, capsys):
    conf = tmp_path / "cfg.txt"
    conf.write_text("max_steps 50\nk_states 6\n")
    rc = main([
        "run", "--graph", "ring:4", "--protocol", "dijkstra", "--daemon", "sync",
        "--init", "zeros", "--config", str(conf), "--out", str(tmp_path / "o"),
    ])
    assert rc == 0
    text = capsys.readouterr().out
    assert "max_steps=50" in text
    assert "k_states=6" in text


def test_config_file_bad_int_exits_2(tmp_path, capsys):
    conf = tmp_path / "cfg.txt"
    conf.write_text("max_steps fifty\n")
    with pytest.raises(SystemExit) as exc:
        main([
            "run", "--graph", "ring:4", "--init", "zeros",
            "--config", str(conf), "--out", str(tmp_path / "o"),
        ])
    assert exc.value.code == 2
    assert "invalid int value: 'fifty'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# The batched sweep against one `_one_run` trace per run
# ---------------------------------------------------------------------------

SWEEP_OPTIONS = ([], ["--no-stop"], ["--max-steps", "3"], ["--tail", "0"])


def _scalar_sweep(argv, out):
    """The summary `sweep` writes, built from one `_one_run` per run."""
    args = cli.build_parser().parse_args(argv)
    g = cli._load_graph_arg(args.graph)
    protocol = make_protocol(args.protocol, g, args.k_states)
    rows = [
        cli._one_run(args, g, protocol, init, args.seed + s)[0]
        for init in cli._parse_init(args.init, protocol, g)
        for s in range(args.seeds)
    ]
    rows.sort(key=lambda r: (r["init_hash"], r["seed"]))
    return cli._append_summary(out, rows, args.format)


@pytest.mark.parametrize(
    "daemon", ["sync", "central-rr", "central-rand", "central-adv", "dist-rand"]
)
@pytest.mark.parametrize(
    "graph, protocol",
    [
        ("path:3", ["--protocol", "ssme"]),
        ("ring:4", ["--protocol", "ssme"]),
        ("ring:4", ["--protocol", "dijkstra"]),
        ("ring:4", ["--protocol", "dijkstra", "--k-states", "6"]),
    ],
    ids=["ssme-path:3", "ssme-ring:4", "dijkstra-ring:4", "dijkstra-ring:4-k6"],
)
def test_batched_sweep_equals_scalar_runs(
    tmp_path, monkeypatch, daemon, graph, protocol
):
    # 24 runs per sweep, stepped in chunks of 5.
    monkeypatch.setattr(cli, "SWEEP_CHUNK_RUNS", 5)
    for i, options in enumerate(SWEEP_OPTIONS):
        for fmt in ("csv", "json-lines"):
            argv = [
                "sweep", "--graph", graph, *protocol, "--daemon", daemon,
                "--prob", "0.4", "--init", f"random:12:{i}", "--seeds", "2",
                "--seed", str(3 * i), "--format", fmt, *options,
            ]
            batched = tmp_path / f"b{i}{fmt}"
            assert main([*argv, "--out", str(batched)]) == 0
            (summary,) = batched.iterdir()
            expected = _scalar_sweep(argv, tmp_path / f"s{i}{fmt}")
            # json-lines also fails on any numpy int left in a row.
            assert summary.read_bytes() == expected.read_bytes(), (argv, fmt)


@pytest.mark.parametrize(
    "daemon", [["central-adv"], ["dist-rand", "--prob", "0.05"]],
    ids=["central-adv", "dist-rand-0.05"],
)
@pytest.mark.parametrize(
    "runs",
    [
        # 40 seeds from -20 to 19: s and -s read one generator.
        ["--init", "random:3:1", "--seeds", "40", "--seed", "-20"],
        # 2**70, past int64.
        ["--init", "random:8:2", "--seeds", "3", "--seed", str(2**70)],
    ],
    ids=["seeds-from-minus-20", "seed-2**70"],
)
def test_batched_sweep_replays_many_seeds(tmp_path, monkeypatch, daemon, runs):
    monkeypatch.setattr(cli, "SWEEP_CHUNK_RUNS", 7)
    argv = [
        "sweep", "--graph", "ring:8", "--protocol", "ssme", "--daemon", *daemon,
        *runs,
    ]
    batched = tmp_path / "b"
    assert main([*argv, "--out", str(batched)]) == 0
    expected = _scalar_sweep(argv, tmp_path / "s")
    assert (batched / "summary.csv").read_bytes() == expected.read_bytes()


def test_sweep_exhaustive_streams_every_configuration(tmp_path):
    out = tmp_path / "o"
    rc = main([
        "sweep", "--graph", "ring:3", "--protocol", "dijkstra", "--init",
        "exhaustive", "--daemon", "central-rand", "--out", str(out),
    ])
    assert rc == 0
    with (out / "summary.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4**3
    assert len({r["init_hash"] for r in rows}) == 4**3


def test_sweep_exhaustive_over_budget_exits_2(tmp_path, capsys):
    rc = main([
        "sweep", "--graph", "ring:3", "--protocol", "dijkstra", "--init",
        "exhaustive", "--budget", "63", "--out", str(tmp_path / "o"),
    ])
    assert rc == 2
    assert "needs 64 runs, budget is 63" in capsys.readouterr().err


def test_sweep_exhaustive_budget_counts_every_seed(tmp_path, capsys):
    # 100 configurations under 10 seeds each are 1,000 runs.
    rc = main([
        "sweep", "--graph", "path:2", "--init", "exhaustive", "--seeds", "10",
        "--budget", "100", "--out", str(tmp_path / "o"),
    ])
    assert rc == 2
    assert "needs 1000 runs, budget is 100" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_sweep_init_must_be_exactly_exhaustive(tmp_path, capsys):
    rc = main([
        "sweep", "--graph", "path:2", "--protocol", "ssme", "--init",
        "exhaustiveXYZ", "--out", str(tmp_path / "o"),
    ])
    assert rc == 2
    assert "unknown init source 'exhaustiveXYZ'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag, value, message",
    [
        ("sweep", "--max-steps", "-1", "max_steps must be >= 0"),
        ("run", "--tail", "-1", "tail must be >= 0"),
        ("sweep", "--tail", "-1", "tail must be >= 0"),
        ("run", "--init", "random:0:1", "COUNT must be >= 1"),
        ("sweep", "--init", "random:0:1", "COUNT must be >= 1"),
        ("sweep", "--init", "random:-1:0", "COUNT must be >= 1"),
        ("run", "--init", "random:5:0", "gives 5; use sweep for several"),
        ("run", "--k-states", "7", "k_states sets the token ring's states"),
        ("sweep", "--k-states", "7", "k_states sets the token ring's states"),
    ],
    ids=[
        "sweep-max-steps", "run-tail", "sweep-tail",
        "run-count-0", "sweep-count-0", "sweep-count-negative", "run-count-5",
        "run-k-states-ssme", "sweep-k-states-ssme",
    ],
)
def test_bad_run_input_exits_2(tmp_path, capsys, command, flag, value, message):
    rc = main([
        command, "--graph", "path:2", flag, value, "--out", str(tmp_path / "o"),
    ])
    assert rc == 2
    assert message in capsys.readouterr().err


def test_python_m_stabsim_runs_the_cli(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "stabsim", "verify", "clock"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    lines = done.stdout.splitlines()
    assert lines[0] == "# effective-spec"
    # The effective-spec block holds one key=value line per parameter.
    results = [ln for ln in lines[1:] if "=" not in ln.split()[0]]
    assert len(results) == len(verify.clock_checks())
    assert all(ln.startswith("PASS ") for ln in results), done.stdout


@pytest.mark.parametrize("flag", ["--exhaustive-budget", "--unfair-state-budget"])
def test_compare_takes_no_budget_flags(tmp_path, capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["compare", flag, "5", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err


def _readme_cli_commands() -> list[list[str]]:
    """The arguments of every ``stabsim`` command in README's ``## CLI``
    block, ``\\`` continuations joined and ``#`` comments dropped."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        words = shlex.split(line, comments=True)
        if words:
            assert words[0] == "stabsim", line
            commands.append(words[1:])
    return commands


def test_readme_cli_commands_parse():
    commands = _readme_cli_commands()
    assert len(commands) >= 8
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv)
