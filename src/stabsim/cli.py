"""Command-line front end.

Subcommands: run (one execution), sweep (batches of executions), verify
(property suites), compare (scheduler-dependent stabilization times), and
witness (worst-case initial configuration).  Every invocation prints its
effective parameters, defaults materialized, so any result can be
reproduced from the log alone.

`run` records its one execution with `engine.run`, the literal reference,
and writes the summary indices the trace kept.  `sweep` steps all its
executions as the rows of the protocol's batch kernel
(`engine.ensemble_runs`) under the daemon's own ``batched`` selection,
each row reading the draws of its own seeded daemon from the words of that
daemon's generator (`daemon.Replay`, one generator per distinct seed), and
writes the same summary rows `run` would.

Exit codes: 0 success, 1 a checked property was falsified, 2 bad usage or
bad input.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from itertools import islice, product
from pathlib import Path

import numpy as np

from . import graph as graphlib
from .daemon import DAEMON_NAMES, Replay, make_daemon
from .engine import (
    STOP_REASONS,
    FalsificationError,
    Trace,
    convergence_index_au,
    convergence_index_me,
    ensemble_runs,
    format_trace,
    run,
)
from .protocol import make_protocol
from .search import StateSpace, lower_bound_witness, ssme_unfair_step_bound
from . import verify as verifylib

SUMMARY_FIELDS = [
    "graph", "protocol", "daemon", "seed", "init_hash",
    "conv_me", "conv_au", "violations", "steps", "reason",
]
# Runs per batched sweep call.  A chunk is the rows of one
# `engine.ensemble_runs` call and of one `daemon.Replay`, which builds one
# generator per distinct seed; the live matrix, its kernel temporaries and
# the replay buffers span at most this many runs.
SWEEP_CHUNK_RUNS = 2048


def _int_at_least(least: int):
    """argparse type: an integer of at least ``least``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
        return value

    return parse


_positive_int = _int_at_least(1)
_nonnegative_int = _int_at_least(0)


def _load_graph_arg(spec: str) -> graphlib.Graph:
    if spec.startswith("file:"):
        return graphlib.load_graph(spec[5:])
    return graphlib.generate(spec)


def _read_init_file(path: str | Path, n: int) -> tuple[int, ...]:
    p = Path(path)
    if not p.is_file():
        raise ValueError(f"initial configuration file not found or not a file: {p}")
    vals = []
    for ln in p.read_text().splitlines():
        ln = ln.strip()
        if ln and not ln.startswith("#"):
            vals.append(int(ln))
    if len(vals) != n:
        raise ValueError(f"{p} holds {len(vals)} values, graph has {n} vertices")
    return tuple(vals)


def _write_init_file(config, path: str | Path) -> None:
    Path(path).write_text("".join(f"{v}\n" for v in config))


def _parse_init(arg: str, protocol, g: graphlib.Graph) -> list[tuple[int, ...]]:
    kind, _, rest = arg.partition(":")
    if kind == "file":
        inits = [_read_init_file(rest, g.n)]
    elif kind == "random":
        parts = rest.split(":")
        if len(parts) != 2:
            raise ValueError(f"bad init spec {arg!r}, expected random:COUNT:SEED")
        try:
            count, seed = map(int, parts)
        except ValueError:
            raise ValueError(
                f"bad init spec {arg!r}, COUNT and SEED must be integers"
            ) from None
        if count < 1:
            raise ValueError(f"bad init spec {arg!r}, COUNT must be >= 1")
        return verifylib.random_inits(protocol, g.n, count, seed)
    elif kind == "witness":
        inits = [lower_bound_witness(g).config]
    elif kind == "zeros":
        inits = [(0,) * g.n]
    else:
        raise ValueError(f"unknown init source {arg!r}")
    domain = protocol.state_domain()
    for init in inits:
        for v in init:
            if v not in domain:
                raise ValueError(
                    f"init {arg!r} holds {v}, outside the {protocol.name} "
                    f"states {domain[0]}..{domain[-1]}"
                )
    return inits


def _init_hash(config) -> str:
    text = " ".join(str(v) for v in config)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _print_effective(args: argparse.Namespace, keys: list[str]) -> None:
    print("# effective-spec")
    for k in keys:
        print(f"{k}={getattr(args, k)}")


def _with_config_file(argv: list[str], args: argparse.Namespace) -> list[str]:
    """``argv`` with the ``--config`` file spliced in after the subcommand.

    The file holds one ``key value`` (or ``key=value``) per line; a bare
    ``key`` sets a flag.  Each line becomes ``--key value`` tokens, so
    argparse converts and checks them, and the explicit flags, which come
    later, win.
    """
    p = Path(args.config)
    if not p.is_file():
        raise ValueError(f"config file not found or not a file: {p}")
    tokens = []
    for ln in p.read_text().splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        key, _, val = ln.partition("=" if "=" in ln else " ")
        tokens.append("--" + key.strip().replace("_", "-"))
        if val.strip():
            tokens.append(val.strip())
    at = argv.index(args.command) + 1
    return argv[:at] + tokens + argv[at:]


def _out_dir(arg: str | Path) -> Path:
    """The ``--out`` directory, created if missing, before any work."""
    out_dir = Path(arg)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise ValueError(f"--out {arg} is not a directory") from None
    return out_dir


def _append_summary(out_dir: Path, rows: list[dict], fmt: str) -> Path:
    out_dir = _out_dir(out_dir)
    if fmt == "json-lines":
        target = out_dir / "summary.jsonl"
        with target.open("a") as fh:
            for row in rows:
                fh.write(json.dumps(row, sort_keys=True) + "\n")
        return target
    target = out_dir / "summary.csv"
    fresh = not target.exists()
    with target.open("a", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SUMMARY_FIELDS)
        if fresh:
            writer.writeheader()
        writer.writerows(rows)
    return target


def _summary_row(
    args, init, seed: int, conv_me, conv_au, violations: int, steps: int, reason: str
) -> dict:
    return {
        "graph": args.graph,
        "protocol": args.protocol,
        "daemon": args.daemon,
        "seed": seed,
        "init_hash": _init_hash(init),
        "conv_me": "undetermined" if conv_me is None else conv_me,
        "conv_au": "undetermined" if conv_au is None else conv_au,
        "violations": violations,
        "steps": steps,
        "reason": reason,
    }


def _one_run(args, g, protocol, init, seed: int) -> tuple[dict, Trace]:
    """One traced `engine.run` and its summary row: the literal reference
    `cmd_run` records and `_sweep_rows` is tested against."""
    policy = make_daemon(args.daemon, n=g.n, seed=seed, prob=args.prob)
    trace = run(
        protocol, g, init, policy,
        max_steps=args.max_steps,
        stop_at_legitimate=not args.no_stop,
        tail=args.tail,
    )
    row = _summary_row(
        args, init, seed,
        convergence_index_me(trace),
        convergence_index_au(trace),
        trace.violations,
        trace.steps,
        trace.reason,
    )
    return row, trace


def _sweep_rows(args, g, protocol, runs: list[tuple[tuple, int]]) -> list[dict]:
    """The summary rows of ``runs``, (initial configuration, seed) pairs,
    stepped together as the rows of one `engine.ensemble_runs` call.

    Each row is the row `_one_run` gives for the same pair: its daemon draws
    exactly as the scalar one, and its indices are kept by `run`'s rule.
    """
    max_steps = args.max_steps
    if max_steps is None:
        max_steps = protocol.default_max_steps(g)
    inits = np.array([init for init, _ in runs], dtype=np.int32)
    seeds = [seed for _, seed in runs]
    policy = make_daemon(args.daemon, n=g.n, prob=args.prob)
    select = policy.batched(protocol, g, Replay(seeds), len(runs))
    res = ensemble_runs(
        protocol, g, inits, select,
        max_steps=max_steps,
        tail=args.tail,
        stop_at_legitimate=not args.no_stop,
    )
    return [
        _summary_row(
            args, init, seed,
            None if legit < 0 else unsafe + 1,
            None if illegit == steps else illegit + 1,
            violations,
            steps,
            STOP_REASONS[why],
        )
        for (init, seed), legit, unsafe, illegit, violations, steps, why in zip(
            runs,
            res.legitimate_at.tolist(),
            res.last_unsafe.tolist(),
            res.last_illegitimate.tolist(),
            res.violations.tolist(),
            res.steps.tolist(),
            res.reason.tolist(),
        )
    ]


def cmd_run(args) -> int:
    g = _load_graph_arg(args.graph)
    protocol = make_protocol(args.protocol, g, args.k_states)
    inits = _parse_init(args.init, protocol, g)
    if len(inits) > 1:
        raise ValueError(
            f"run takes one initial configuration, --init {args.init} gives "
            f"{len(inits)}; use sweep for several"
        )
    out_dir = _out_dir(args.out)
    row, trace = _one_run(args, g, protocol, inits[0], args.seed)
    trace_path = out_dir / f"trace-{row['init_hash']}-{args.seed}.txt"
    trace_path.write_text(format_trace(trace, meta=row))
    summary = _append_summary(out_dir, [row], args.format)
    print(f"trace {trace_path}")
    print(f"summary {summary}")
    print(
        f"conv_me={row['conv_me']} conv_au={row['conv_au']} "
        f"violations={row['violations']} steps={row['steps']} reason={row['reason']}"
    )
    return 0


def cmd_sweep(args) -> int:
    g = _load_graph_arg(args.graph)
    protocol = make_protocol(args.protocol, g, args.k_states)
    if args.init == "exhaustive":
        domain = protocol.state_domain()
        total = StateSpace(domain, g.n).total * args.seeds
        if total > args.budget:
            raise ValueError(
                f"exhaustive sweep needs {total} runs, budget is {args.budget}"
            )
        inits = product(domain, repeat=g.n)
    else:
        inits = _parse_init(args.init, protocol, g)
    out_dir = _out_dir(args.out)
    runs = ((init, args.seed + s) for init in inits for s in range(args.seeds))
    rows = []
    while chunk := list(islice(runs, SWEEP_CHUNK_RUNS)):
        rows += _sweep_rows(args, g, protocol, chunk)
    rows.sort(key=lambda r: (r["init_hash"], r["seed"]))
    summary = _append_summary(out_dir, rows, args.format)
    print(f"summary {summary}")
    print(f"runs {len(rows)}")
    return 0


# The suites of `verify`, by name: each maps the parsed arguments to its
# check results.  The names are also the parser's choices.
VERIFY_SUITES = {
    "clock": lambda args: verifylib.clock_checks(),
    "guards": lambda args: verifylib.guard_checks(),
    "lemmas": lambda args: verifylib.transient_checks(
        _load_graph_arg(args.graph), samples=args.samples, seed=args.seed
    ),
    "closure": lambda args: verifylib.closure_checks(
        _load_graph_arg(args.graph), samples=args.samples, seed=args.seed
    ),
    "bounds": lambda args: verifylib.bounds_checks(
        _load_graph_arg(args.graph), samples=args.samples, seed=args.seed
    ),
    "ensemble": lambda args: [
        verifylib.scheduler_ensemble_check(
            _load_graph_arg(args.graph), inits=args.samples, seed=args.seed
        )
    ],
    "indist": lambda args: verifylib.indistinguishability_checks(
        _load_graph_arg(args.graph), pairs=args.samples, seed=args.seed
    ),
}


def cmd_verify(args) -> int:
    results = VERIFY_SUITES[args.suite](args)
    failed = 0
    for res in results:
        print(res)
        if not res.ok:
            failed += 1
    return 1 if failed else 0


def cmd_compare(args) -> int:
    out_dir = _out_dir(args.out)
    rows = []
    specs = [spec.strip() for spec in args.graphs.split(",")]
    # Every spec is read before the first solve, so a bad one exits at once.
    graphs = [_load_graph_arg(spec) for spec in specs]
    for spec, g in zip(specs, graphs):
        for proto_name in ("ssme", "dijkstra"):
            try:
                protocol = make_protocol(proto_name, g)
            except ValueError as exc:
                # The token ring runs on rings only.
                print(f"{spec} {proto_name}: skipped: {exc}")
                continue
            sync_worst = verifylib.sync_worst_bound(
                protocol, g, samples=args.samples, seed=args.seed
            ).max_convergence_me
            unfair = verifylib.unfair_worst_bound(
                protocol, g, samples=args.samples, seed=args.seed
            ).max_steps
            if proto_name == "dijkstra":
                predicted = float(g.n)
            else:
                predicted = ssme_unfair_step_bound(g.n, g.diam) / max(
                    1, -(-g.diam // 2)
                )
            ratio = unfair / sync_worst if sync_worst > 0 else float("inf")
            row = {
                "graph": spec,
                "protocol": proto_name,
                "sync_worst": sync_worst,
                "unfair_worst": unfair,
                "ratio": f"{ratio:.3f}",
                "predicted_ratio": f"{predicted:.3f}",
            }
            rows.append(row)
            print(
                f"{spec} {proto_name}: sync={sync_worst} unfair={unfair} "
                f"ratio={row['ratio']} predicted={row['predicted_ratio']}"
            )
    target = out_dir / "compare.csv"
    with target.open("w", newline="") as fh:
        writer = csv.DictWriter(
            fh,
            fieldnames=[
                "graph", "protocol", "sync_worst", "unfair_worst",
                "ratio", "predicted_ratio",
            ],
        )
        writer.writeheader()
        writer.writerows(rows)
    print(f"table {target}")
    return 0


def cmd_witness(args) -> int:
    g = _load_graph_arg(args.graph)
    out_dir = _out_dir(args.out)
    result = lower_bound_witness(g)
    target = out_dir / "witness.cfg"
    _write_init_file(result.config, target)
    print(f"witness {target}")
    print(f"config {' '.join(map(str, result.config))}")
    print(f"convergence {result.convergence}")
    print(f"target {result.target}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stabsim",
        description="Self-stabilizing mutual exclusion lab: run, verify, compare.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--graph", default="ring:4", help="generator spec or file:PATH")
        p.add_argument("--protocol", default="ssme", choices=["ssme", "dijkstra"])
        p.add_argument("--daemon", default="sync", choices=DAEMON_NAMES)
        p.add_argument("--prob", type=float, default=0.5,
                       help="activation probability for dist-rand")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--max-steps", type=int, default=None)
        p.add_argument("--k-states", type=int, default=None,
                       help="ring states for the token ring (default n+1)")
        p.add_argument("--out", default="out")
        p.add_argument("--format", default="csv", choices=["csv", "json-lines"])
        p.add_argument("--config", default=None,
                       help="key-value file; explicit flags win")
        p.add_argument("--no-stop", action="store_true",
                       help="do not stop at the first legitimate configuration")
        p.add_argument("--tail", type=int, default=8,
                       help="extra steps recorded after legitimacy")

    p_run = sub.add_parser("run", help="one execution")
    common(p_run)
    p_run.add_argument("--init", default="random:1:0",
                       help="file:PATH | random:COUNT:SEED | witness | zeros")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="batch of executions")
    common(p_sweep)
    p_sweep.add_argument("--init", default="random:100:0")
    p_sweep.add_argument("--seeds", type=_positive_int, default=1,
                         help="number of scheduler seeds per initial configuration")
    p_sweep.add_argument("--budget", type=_nonnegative_int, default=1_000_000)
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="property suites")
    p_verify.add_argument("suite", choices=list(VERIFY_SUITES))
    p_verify.add_argument("--graph", default="ring:4")
    p_verify.add_argument("--samples", type=_positive_int, default=1000,
                          help="sampled configurations for closure and the "
                               "synchronous half of bounds, sampled runs for "
                               "the unconstrained half of bounds, each only "
                               "past its exhaustive budget; initial "
                               "configurations for ensemble, constructed pairs "
                               "for indist")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=cmd_verify)

    p_cmp = sub.add_parser("compare", help="scheduler-dependent stabilization times")
    p_cmp.add_argument("--graphs", default="ring:4")
    p_cmp.add_argument("--samples", type=_positive_int, default=500)
    p_cmp.add_argument("--seed", type=int, default=0)
    p_cmp.add_argument("--out", default="out")
    p_cmp.set_defaults(func=cmd_compare)

    p_wit = sub.add_parser("witness", help="worst-case initial configuration")
    p_wit.add_argument("--graph", default="ring:4")
    p_wit.add_argument("--out", default="out")
    p_wit.set_defaults(func=cmd_witness)

    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            args = parser.parse_args(_with_config_file(argv, args))
        keys = sorted(
            k for k in vars(args) if k not in ("func", "command")
        )
        _print_effective(args, keys)
        return args.func(args)
    except FalsificationError as exc:
        print(f"FALSIFIED: {exc}", file=sys.stderr)
        if exc.artifact is not None:
            print(f"artifact: {exc.artifact}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
