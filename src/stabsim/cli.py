"""Command-line front end.

Subcommands: run (one execution), sweep (batches of executions), verify
(property suites), compare (scheduler-dependent stabilization times), and
witness (worst-case initial configuration).  Every invocation prints its
effective parameters, defaults materialized, so any result can be
reproduced from the log alone.

Exit codes: 0 success, 1 a checked property was falsified, 2 bad usage or
bad input.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import random
import sys
from pathlib import Path

from . import graph as graphlib
from .daemon import make_daemon
from .engine import (
    FalsificationError,
    Trace,
    convergence_index_au,
    convergence_index_me,
    count_safety_violations,
    format_trace,
    run,
)
from .protocol import make_protocol
from .search import lower_bound_witness, sync_worst_case, ssme_unfair_step_bound, worst_case_unfair
from . import verify as verifylib

SUMMARY_FIELDS = [
    "graph", "protocol", "daemon", "seed", "init_hash",
    "conv_me", "conv_au", "violations", "steps", "reason",
]


def _load_graph_arg(spec: str) -> graphlib.Graph:
    if spec.startswith("file:"):
        return graphlib.load_graph(spec[5:])
    p = Path(spec)
    if p.exists() and p.is_file():
        return graphlib.load_graph(p)
    return graphlib.generate(spec)


def _read_init_file(path: str | Path, n: int) -> tuple[int, ...]:
    p = Path(path)
    if not p.exists():
        raise ValueError(f"initial configuration file not found: {p}")
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


def _random_inits(protocol, n: int, count: int, seed: int) -> list[tuple[int, ...]]:
    rng = random.Random(seed)
    domain = list(protocol.state_domain())
    return [
        tuple(rng.choice(domain) for _ in range(n)) for _ in range(count)
    ]


def _parse_init(arg: str, protocol, g: graphlib.Graph) -> list[tuple[int, ...]]:
    kind, _, rest = arg.partition(":")
    if kind == "file":
        return [_read_init_file(rest, g.n)]
    if kind == "random":
        parts = rest.split(":")
        if len(parts) != 2:
            raise ValueError(f"bad init spec {arg!r}, expected random:COUNT:SEED")
        return _random_inits(protocol, g.n, int(parts[0]), int(parts[1]))
    if kind == "witness":
        return [lower_bound_witness(g).config]
    if kind == "zeros":
        return [(0,) * g.n]
    raise ValueError(f"unknown init source {arg!r}")


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
    if not p.exists():
        raise ValueError(f"config file not found: {p}")
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


def _append_summary(out_dir: Path, rows: list[dict], fmt: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
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


def _one_run(args, g, protocol, init, seed: int) -> tuple[dict, Trace]:
    policy = make_daemon(args.daemon, n=g.n, seed=seed, prob=args.prob)
    trace = run(
        protocol, g, init, policy,
        max_steps=args.max_steps,
        stop_at_legitimate=not args.no_stop,
        tail=args.tail,
    )
    conv_me = convergence_index_me(trace, protocol, g)
    conv_au = convergence_index_au(trace, protocol, g)
    row = {
        "graph": args.graph,
        "protocol": args.protocol,
        "daemon": args.daemon,
        "seed": seed,
        "init_hash": _init_hash(init),
        "conv_me": "undetermined" if conv_me is None else conv_me,
        "conv_au": "undetermined" if conv_au is None else conv_au,
        "violations": count_safety_violations(trace, protocol, g),
        "steps": trace.steps,
        "reason": trace.reason,
    }
    return row, trace


def cmd_run(args) -> int:
    g = _load_graph_arg(args.graph)
    protocol = make_protocol(args.protocol, g, args.k_states)
    inits = _parse_init(args.init, protocol, g)
    row, trace = _one_run(args, g, protocol, inits[0], args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
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
    if args.init.startswith("exhaustive"):
        domain = list(protocol.state_domain())
        total = len(domain) ** g.n
        if total > args.budget:
            raise ValueError(
                f"exhaustive sweep needs {total} runs, budget is {args.budget}"
            )
        from itertools import product as _product

        inits = [cfg for cfg in _product(domain, repeat=g.n)]
    else:
        inits = _parse_init(args.init, protocol, g)
    rows = []
    for init in inits:
        for s in range(args.seeds):
            row, _ = _one_run(args, g, protocol, init, args.seed + s)
            rows.append(row)
    rows.sort(key=lambda r: (r["init_hash"], r["seed"]))
    summary = _append_summary(Path(args.out), rows, args.format)
    print(f"summary {summary}")
    print(f"runs {len(rows)}")
    return 0


def cmd_verify(args) -> int:
    suite = args.suite
    results = []
    if suite == "clock":
        results = verifylib.clock_checks()
    elif suite == "guards":
        results = verifylib.guard_checks()
    elif suite == "lemmas":
        g = _load_graph_arg(args.graph)
        results = verifylib.transient_checks(g, samples=args.samples, seed=args.seed)
    elif suite == "closure":
        g = _load_graph_arg(args.graph)
        results = verifylib.closure_checks(
            g, samples=args.samples, seed=args.seed, exhaustive=args.exhaustive
        )
    elif suite == "bounds":
        g = _load_graph_arg(args.graph)
        results = verifylib.bounds_checks(
            g, exhaustive=args.exhaustive, samples=args.samples, seed=args.seed
        )
    else:
        raise ValueError(f"unknown suite {suite!r}")
    failed = 0
    for res in results:
        print(res)
        if not res.ok:
            failed += 1
    return 1 if failed else 0


def cmd_compare(args) -> int:
    rows = []
    for spec in args.graphs.split(","):
        spec = spec.strip()
        g = _load_graph_arg(spec)
        for proto_name in ("ssme", "dijkstra"):
            protocol = make_protocol(proto_name, g)
            domain = len(list(protocol.state_domain())) ** g.n
            if domain <= args.exhaustive_budget:
                scan = sync_worst_case(protocol, g, "exhaustive")
            else:
                scan = sync_worst_case(
                    protocol, g, "sample", samples=args.samples, seed=args.seed
                )
            sync_worst = scan.max_convergence_me
            if domain <= args.unfair_state_budget:
                unfair = worst_case_unfair(
                    protocol, g, state_budget=args.unfair_state_budget
                ).max_steps
            else:
                unfair = _sampled_unfair_worst(
                    protocol, g, samples=args.samples, seed=args.seed
                )
            if proto_name == "dijkstra":
                predicted = float(g.n)
            else:
                predicted = ssme_unfair_step_bound(g.n, g.diam) / max(
                    1, -(-g.diam // 2)
                )
            ratio = unfair / sync_worst if sync_worst > 0 else float("inf")
            rows.append(
                {
                    "graph": spec,
                    "protocol": proto_name,
                    "sync_worst": sync_worst,
                    "unfair_worst": unfair,
                    "ratio": f"{ratio:.3f}",
                    "predicted_ratio": f"{predicted:.3f}",
                }
            )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
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
    for row in rows:
        print(
            f"{row['graph']} {row['protocol']}: sync={row['sync_worst']} "
            f"unfair={row['unfair_worst']} ratio={row['ratio']} "
            f"predicted={row['predicted_ratio']}"
        )
    print(f"table {target}")
    return 0


def _sampled_unfair_worst(protocol, g, *, samples: int, seed: int) -> int:
    """Max steps-to-legitimacy over adversarial policy samples (lower bound)."""
    from .engine import run_stats

    rng = random.Random(seed)
    domain = list(protocol.state_domain())
    worst = 0
    budget = (
        ssme_unfair_step_bound(g.n, g.diam)
        if protocol.name == "ssme"
        else protocol.default_max_steps(g)
    )
    count = max(1, samples // 25)
    for pname, factory in verifylib.ensemble_policy_factories(g.n):
        for s in range(5):
            for _ in range(count):
                init = tuple(rng.choice(domain) for _ in range(g.n))
                stats = run_stats(
                    protocol, g, init, factory(s), max_steps=budget, tail=0
                )
                if stats.legitimate_at is not None:
                    worst = max(worst, stats.legitimate_at)
    return worst


def cmd_witness(args) -> int:
    g = _load_graph_arg(args.graph)
    result = lower_bound_witness(g)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    target = out_dir / "witness.cfg"
    _write_init_file(result.config, target)
    print(f"witness {target}")
    print(f"config {' '.join(map(str, result.config))}")
    print(f"convergence {result.convergence}")
    print(f"target {result.target}")
    print(f"constructed {str(result.constructed).lower()}")
    if not result.achieved:
        print("witness validation FAILED")
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stabsim",
        description="Self-stabilizing mutual exclusion lab: run, verify, compare.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--graph", default="ring:4", help="generator spec or file path")
        p.add_argument("--protocol", default="ssme", choices=["ssme", "dijkstra"])
        p.add_argument("--daemon", default="sync",
                       choices=["sync", "central-rr", "central-rand",
                                "central-adv", "dist-rand"])
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
    p_sweep.add_argument("--seeds", type=int, default=1,
                         help="number of scheduler seeds per initial configuration")
    p_sweep.add_argument("--budget", type=int, default=1_000_000)
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="property suites")
    p_verify.add_argument("suite",
                          choices=["clock", "guards", "lemmas", "closure", "bounds"])
    p_verify.add_argument("--graph", default="ring:4")
    p_verify.add_argument("--samples", type=int, default=1000)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--exhaustive", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_cmp = sub.add_parser("compare", help="scheduler-dependent stabilization times")
    p_cmp.add_argument("--graphs", default="ring:4")
    p_cmp.add_argument("--samples", type=int, default=500)
    p_cmp.add_argument("--seed", type=int, default=0)
    p_cmp.add_argument("--exhaustive-budget", type=int, default=1_000_000)
    p_cmp.add_argument("--unfair-state-budget", type=int, default=5000)
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
