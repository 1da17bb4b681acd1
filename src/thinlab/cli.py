"""Command-line front door.

Subcommands:

    classify EXPR   exact level / non-membership certificate / unknown
    tree EXPR       derivation-tree dump as text, JSON, or DOT
    oracle          exhaustive table for a small finite group + cross-check
    selftest        seeded verification suites

Exit codes: 0 definite level, 2 parse or configuration error, 3 outside
the thin completion, 4 budget exhausted.  Output is deterministic except
for the timing element, which `--no-timing` suppresses.  The env var
THINLAB_BUDGET_NODES overrides the default node budget when --max-nodes
is not given.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .dsl import ParseError, caret_diagram, format_set, parse_set
from .engine import (
    Budget,
    Engine,
    ExactLevel,
    NotInThinCompletion,
    SymbolicUniverse,
    TreeNode,
    Unknown,
)
from .groups import GroupDescriptor
from .ideals import SizeAtMost
from .oracle import build_table, cross_check
from .selftest import run_selftest

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BOTTOM = 3
EXIT_UNKNOWN = 4

DEFAULT_MAX_DEPTH = Budget.max_depth
DEFAULT_MAX_NODES = Budget.max_nodes


def _budget(args: argparse.Namespace) -> Budget:
    nodes = args.max_nodes
    if nodes is None:
        env = os.environ.get("THINLAB_BUDGET_NODES", "")
        nodes = int(env) if env else DEFAULT_MAX_NODES
    return Budget(max_depth=args.max_depth, max_nodes=nodes)


def _parse_error(text: str, exc: ParseError) -> int:
    print(f"parse error: {exc.message}", file=sys.stderr)
    print(caret_diagram(text, exc.position), file=sys.stderr)
    return EXIT_CONFIG


def _config_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_CONFIG


# -- classify ---------------------------------------------------------------


def _verdict_fields(engine: Engine, a, verdict) -> tuple[dict, int]:
    if isinstance(verdict, ExactLevel):
        return {"verdict": "exact_level", "level": verdict.level}, EXIT_OK
    if isinstance(verdict, NotInThinCompletion):
        w = verdict.witness
        return {
            "verdict": "not_in_thin_completion",
            "witness": {
                "path": list(w.path),
                "ancestor_index": w.ancestor_index,
                "repeat_shift": w.repeat_shift,
                "translation": w.translation,
                "replay_ok": engine.replay_witness(a, w),
            },
        }, EXIT_BOTTOM
    assert isinstance(verdict, Unknown)
    return {
        "verdict": "unknown",
        "depth_reached": verdict.depth_reached,
        "nodes_used": verdict.nodes_used,
    }, EXIT_UNKNOWN


def _classify_one(engine: Engine, text: str, args: argparse.Namespace) -> tuple[dict, int]:
    try:
        a = parse_set(text, base=args.base)
    except ParseError as exc:
        return {
            "input": text,
            "error": exc.message,
            "position": exc.position,
        }, EXIT_CONFIG
    t0 = time.perf_counter()
    verdict = engine.classify(a, _budget(args))
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    report = {"input": text, "set": format_set(a)}
    fields, code = _verdict_fields(engine, a, verdict)
    report.update(fields)
    if not args.no_timing:
        report["time_ms"] = round(elapsed_ms, 3)
    return report, code


def _print_text_report(report: dict) -> None:
    def emit(key, value):
        print(f"{key}: {value}")

    emit("input", report["input"])
    if "error" in report:
        emit("error", report["error"])
        print(caret_diagram(report["input"], report["position"]))
        return
    emit("set", report["set"])
    emit("verdict", report["verdict"])
    if report["verdict"] == "exact_level":
        emit("level", report["level"])
    elif report["verdict"] == "not_in_thin_completion":
        w = report["witness"]
        emit("witness_path", ",".join(str(g) for g in w["path"]) or "(empty)")
        emit("witness_ancestor_index", w["ancestor_index"])
        emit("witness_repeat_shift", w["repeat_shift"])
        emit("witness_translation", w["translation"])
        emit("witness_replay", "ok" if w["replay_ok"] else "FAILED")
    else:
        emit("depth_reached", report["depth_reached"])
        emit("nodes_used", report["nodes_used"])
    if "time_ms" in report:
        emit("time_ms", report["time_ms"])


def cmd_classify(args: argparse.Namespace) -> int:
    try:
        budget = _budget(args)
    except ValueError as exc:
        return _config_error(str(exc))
    del budget  # validated; rebuilt per call

    engine = Engine(SymbolicUniverse())
    if args.batch:
        worst = EXIT_OK
        for line in sys.stdin:
            text = line.strip()
            if not text:
                continue
            report, code = _classify_one(engine, text, args)
            print(json.dumps(report, sort_keys=True))
            if worst == EXIT_OK and code != EXIT_OK:
                worst = code
        return worst

    report, code = _classify_one(engine, args.expr, args)
    if code == EXIT_CONFIG:
        exc = ParseError(report["error"], report["position"])
        return _parse_error(args.expr, exc)
    if args.format == "json":
        print(json.dumps(report, sort_keys=True))
    else:
        _print_text_report(report)
    return code


# -- tree ---------------------------------------------------------------


def _tree_text(node: TreeNode, shift: int | None = None, indent: int = 0) -> list[str]:
    tags = []
    if node.in_family:
        tags.append("in family")
    if node.rank is not None:
        tags.append(f"rank {node.rank}")
    if node.truncated:
        tags.append("...")
    head = "  " * indent
    if shift is not None:
        head += f"g={shift:+d}: "
    head += node.label
    if tags:
        head += "  [" + ", ".join(tags) + "]"
    lines = [head]
    for cls in node.classes:
        uniform = "uniform" if cls["uniform"] else "sampled"
        lines.append(
            "  " * (indent + 1)
            + f"class g = {cls['residue']} (mod {cls['modulus']}), "
            + f"representative g={cls['representative']:+d}, {uniform}"
        )
    for g, child in node.children:
        lines.extend(_tree_text(child, g, indent + 1))
    return lines


def cmd_tree(args: argparse.Namespace) -> int:
    try:
        a = parse_set(args.expr, base=args.base)
    except ParseError as exc:
        return _parse_error(args.expr, exc)
    engine = Engine(SymbolicUniverse())
    dump = engine.tree_dump(a, depth=args.depth)
    if args.format == "json":
        print(dump.to_json())
    elif args.format == "dot":
        print(dump.to_dot())
    else:
        print("\n".join(_tree_text(dump.root)))
    return EXIT_OK


# -- oracle ---------------------------------------------------------------


def _parse_group(name: str) -> GroupDescriptor:
    kind, digits = name[:1].lower(), name[1:]
    if not digits.isdigit():
        raise ValueError(f"unknown group {name!r}: expected zN or bD")
    n = int(digits)
    if kind == "z":
        return GroupDescriptor.cyclic(n)
    if kind == "b":
        return GroupDescriptor.boolean_power(n)
    raise ValueError(f"unknown group {name!r}: expected zN or bD")


def cmd_oracle(args: argparse.Namespace) -> int:
    try:
        group = _parse_group(args.group)
        family = SizeAtMost(group, args.t)
        table = build_table(group, family)
        budget = _budget(args)
    except ValueError as exc:
        return _config_error(str(exc))

    stem = f"oracle_{args.group.lower()}_t{args.t}"
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, stem + ".csv")
    json_path = os.path.join(args.out, stem + ".json")
    with open(csv_path, "w") as fh:
        fh.write(table.to_csv())
    with open(json_path, "w") as fh:
        fh.write(table.to_json() + "\n")

    rows = 1 << group.order
    print(f"group: {group.describe()}")
    print(f"size_bound: {args.t}")
    print(f"rows: {rows}")
    print(f"max_level: {table.max_level()}")
    bottoms = sum(1 for v in table.levels if v < 0)
    print(f"bottom_count: {bottoms}")
    print(f"csv: {csv_path}")
    print(f"json: {json_path}")
    report = cross_check(table, budget)
    print(f"cross_check: {report.summary()}")
    return EXIT_OK if report.ok else 1


# -- selftest ---------------------------------------------------------------


def cmd_selftest(args: argparse.Namespace) -> int:
    try:
        budget = _budget(args)
    except ValueError as exc:
        return _config_error(str(exc))
    return run_selftest(seed=args.seed, trials=args.trials, budget=budget)


# -- argument plumbing ------------------------------------------------------


def _add_budget_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--max-depth",
        type=int,
        default=DEFAULT_MAX_DEPTH,
        help=f"recursion depth budget (default: {DEFAULT_MAX_DEPTH})",
    )
    p.add_argument(
        "--max-nodes",
        type=int,
        default=None,
        help=(
            f"node budget (default: {DEFAULT_MAX_NODES}, "
            "or THINLAB_BUDGET_NODES if set)"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thinlab",
        description="Exact classifier for the thin-completion hierarchy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a set expression")
    p.add_argument("expr", nargs="?", default="", help="set expression")
    p.add_argument("--base", type=int, default=2, help="session base (default: 2)")
    p.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="output format (default: text)",
    )
    _add_budget_flags(p)
    p.add_argument(
        "--no-timing", action="store_true", help="suppress the timing element"
    )
    p.add_argument(
        "--batch",
        action="store_true",
        help="read expressions from stdin, one per line; emit JSON lines",
    )
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("tree", help="dump a derivation tree")
    p.add_argument("expr", help="set expression")
    p.add_argument("--base", type=int, default=2, help="session base (default: 2)")
    p.add_argument("--depth", type=int, default=3, help="dump depth (default: 3)")
    p.add_argument(
        "--format", choices=["text", "json", "dot"], default="text",
        help="output format (default: text)",
    )
    p.set_defaults(func=cmd_tree)

    p = sub.add_parser("oracle", help="exhaustive table over a small finite group")
    p.add_argument(
        "--group", required=True,
        help="group name: zN (cyclic) or bD (Boolean power), e.g. z5, b3",
    )
    p.add_argument(
        "--t", type=int, default=0,
        help="size bound of the base family (default: 0)",
    )
    p.add_argument(
        "--out", default=".", help="output directory (default: current)"
    )
    _add_budget_flags(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("selftest", help="run the seeded verification suites")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default: 0)")
    p.add_argument(
        "--trials",
        type=int,
        default=10_000,
        help="cap on randomized checks per suite (default: 10000)",
    )
    _add_budget_flags(p)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "classify" and not args.batch and not args.expr:
        parser.error("classify needs an expression (or --batch)")
    try:
        return args.func(args)
    except ValueError as exc:
        return _config_error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
