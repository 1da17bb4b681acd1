"""Command-line front door.

Subcommands:

    classify EXPR   exact level / non-membership certificate / unknown
    tree EXPR       derivation-tree dump as text, JSON, or DOT
    oracle          exhaustive table for a small finite group + cross-check
    selftest        seeded verification suites

Exit codes: 0 definite level, 2 parse or configuration error, 3 outside
the thin completion, 4 budget exhausted, 141 stdout closed by its reader
(128 + SIGPIPE, as a shell reports for `yes | head`).  Output is
deterministic except for the timing element, which `--no-timing`
suppresses.  The env var THINLAB_BUDGET_NODES overrides the default node
budget when --max-nodes is not given.
"""

from __future__ import annotations

import argparse
import itertools
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
    Unknown,
    MAX_DUMP_DEPTH,
    check_dump_depth,
)
from .groups import GroupDescriptor, short_repr
from .ideals import SizeAtMost
from .oracle import build_table, cross_check
from .selftest import run_selftest

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BOTTOM = 3
EXIT_UNKNOWN = 4
EXIT_PIPE = 128 + 13  # SIGPIPE

DEFAULT_MAX_DEPTH = Budget.max_depth
DEFAULT_MAX_NODES = Budget.max_nodes


def _budget(args: argparse.Namespace) -> Budget:
    nodes = args.max_nodes
    if nodes is None:
        env = os.environ.get("THINLAB_BUDGET_NODES", "")
        try:
            nodes = int(env) if env else DEFAULT_MAX_NODES
        except ValueError:
            raise ValueError(
                f"THINLAB_BUDGET_NODES is not an integer: {short_repr(env)}"
            ) from None
    return Budget(max_depth=args.max_depth, max_nodes=nodes)


def _config_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_CONFIG


# -- classify ---------------------------------------------------------------


def _expression_report(text: str, work) -> tuple:
    """work() on one expression, a pair (result, exit code); an error of
    the expression on the way becomes the report {"error", "input"}, plus
    "position" for a parse error, with EXIT_CONFIG."""
    try:
        return work()
    except ParseError as exc:
        return {"error": exc.message, "input": text, "position": exc.position}, EXIT_CONFIG
    except ValueError as exc:  # e.g. a set too large to print
        return {"error": str(exc), "input": text}, EXIT_CONFIG


def _classify_one(text: str, args: argparse.Namespace, budget: Budget) -> tuple[dict, int]:
    """Parse and print one expression, then classify it on a fresh engine
    (so no verdict depends on what came before) and replay its witness, as
    a report.  A set that cannot print is refused before it is classified."""

    def work() -> tuple[dict, int]:
        a = parse_set(text, base=args.base)
        report = {"input": text, "set": format_set(a)}
        engine = Engine(SymbolicUniverse())
        t0 = time.perf_counter()
        verdict = engine.classify(a, budget)
        elapsed_ms = (time.perf_counter() - t0) * 1000.0
        if isinstance(verdict, ExactLevel):
            report.update(verdict="exact_level", level=verdict.level)
            code = EXIT_OK
        elif isinstance(verdict, NotInThinCompletion):
            w = verdict.witness
            report.update(verdict="not_in_thin_completion", witness={
                "path": list(w.path),
                "ancestor_index": w.ancestor_index,
                "repeat_shift": w.repeat_shift,
                "translation": w.translation,
                "replay_ok": engine.replay_witness(a, w),
            })
            code = EXIT_BOTTOM
        else:
            assert isinstance(verdict, Unknown)
            report.update(verdict="unknown", depth_reached=verdict.depth_reached,
                          nodes_used=verdict.nodes_used)
            code = EXIT_UNKNOWN
        if not args.no_timing:
            report["time_ms"] = round(elapsed_ms, 3)
        return report, code

    return _expression_report(text, work)


def _print_report(report: dict, as_json: bool, prefix: str = "") -> None:
    """A report as one sorted-key JSON line, or as text: an error on
    stderr, else one `key: value` line per field, in order.  A nested dict
    prints its fields as `key_field`, a list comma-joined or `(empty)`, and
    replay_ok as `replay: ok` or `replay: FAILED`."""
    if as_json:
        print(json.dumps(report, sort_keys=True))
    elif "error" in report:
        if "position" in report:
            print(f"parse error: {report['error']}", file=sys.stderr)
            print(caret_diagram(report["input"], report["position"]), file=sys.stderr)
        else:
            _config_error(report["error"])
    else:
        for key, value in report.items():
            if isinstance(value, dict):
                _print_report(value, False, f"{prefix}{key}_")
                continue
            if isinstance(value, list):
                value = ",".join(map(str, value)) or "(empty)"
            elif key == "replay_ok":
                key, value = "replay", "ok" if value else "FAILED"
            print(f"{prefix}{key}: {value}")


def cmd_classify(args: argparse.Namespace) -> int:
    """One report per expression, as JSON under --batch or --format json,
    else as text; the exit code is the first non-zero one."""
    budget = _budget(args)
    if args.batch:
        texts = (text for text in map(str.strip, sys.stdin) if text)
    else:
        texts = [args.expr]
    worst = EXIT_OK
    for text in texts:
        report, code = _classify_one(text, args, budget)
        _print_report(report, args.batch or args.format == "json")
        if worst == EXIT_OK:
            worst = code
    return worst


# -- tree ---------------------------------------------------------------


def _tree_text(node: dict, shift: int | None = None, indent: int = 0) -> list[str]:
    tags = []
    if node["in_family"]:
        tags.append("in family")
    if node["rank"] is not None:
        tags.append(f"rank {node['rank']}")
    if node["truncated"]:
        tags.append("...")
    head = "  " * indent
    if shift is not None:
        head += f"g={shift:+d}: "
    head += node["set"]
    if tags:
        head += "  [" + ", ".join(tags) + "]"
    lines = [head]
    for cls in node["classes"]:
        uniform = "uniform" if cls["uniform"] else "sampled"
        lines.append(
            "  " * (indent + 1)
            + f"class g = {cls['residue']} (mod {cls['modulus']}), "
            + f"representative g={cls['representative']:+d}, {uniform}"
        )
    for child in node["children"]:
        lines.extend(_tree_text(child["node"], child["shift"], indent + 1))
    return lines


def tree_dot(dump: dict) -> str:
    """A dump of Engine.tree_dump as a Graphviz digraph: a box per node, and
    a dashed box per residue class of shifts."""
    lines = ["digraph derivation_tree {", '  node [shape=box, fontname="monospace"];']
    counter = itertools.count()

    def visit(node: dict) -> int:
        nid = next(counter)
        rank = "" if node["rank"] is None else f"\\nrank {node['rank']}"
        flag = " (in family)" if node["in_family"] else ""
        trunc = "\\n..." if node["truncated"] else ""
        label = node["set"].replace('"', r"\"")
        lines.append(f'  n{nid} [label="{label}{flag}{rank}{trunc}"];')
        for child in node["children"]:
            cid = visit(child["node"])
            lines.append(f'  n{nid} -> n{cid} [label="g={child["shift"]}"];')
        for cls in node["classes"]:
            cid = next(counter)
            lines.append(
                f'  n{cid} [label="class g = {cls["residue"]} mod {cls["modulus"]}"'
                ", style=dashed];"
            )
            lines.append(f"  n{nid} -> n{cid} [style=dashed];")
        return nid

    visit(dump)
    lines.append("}")
    return "\n".join(lines)


def cmd_tree(args: argparse.Namespace) -> int:
    """The derivation tree of one expression.  An error of the expression
    is its report, as JSON on stdout under --format json (as classify
    prints it), else as text on stderr; a bad --depth is a command error."""
    check_dump_depth(args.depth)  # main reports its ValueError

    def work() -> tuple[dict, int]:
        a = parse_set(args.expr, base=args.base)
        return Engine(SymbolicUniverse()).tree_dump(a, depth=args.depth), EXIT_OK

    dump, code = _expression_report(args.expr, work)
    if code != EXIT_OK:
        _print_report(dump, args.format == "json")
        return code
    if args.format == "json":
        print(json.dumps(dump))
    elif args.format == "dot":
        print(tree_dot(dump))
    else:
        print("\n".join(_tree_text(dump)))
    return EXIT_OK


# -- oracle ---------------------------------------------------------------


def _parse_group(name: str) -> GroupDescriptor:
    kind, digits = name[:1].lower(), name[1:]
    if kind not in ("z", "b") or not digits.isdecimal():
        raise ValueError(f"unknown group {short_repr(name)}: expected zN or bD")
    # int() refuses a literal past the interpreter's digit limit, so the
    # digits are read a thousand at a time
    n = 0
    for i in range(0, len(digits), 1000):
        n = n * 10 ** len(digits[i:i + 1000]) + int(digits[i:i + 1000])
    return GroupDescriptor.cyclic(n) if kind == "z" else GroupDescriptor.boolean_power(n)


def _write_tables(table, out: str, name: str, t: int) -> tuple[str, str]:
    """Write oracle_<name>_t<t>.csv and .json into out, piece by piece so
    that neither file is ever held whole; return both paths."""
    os.makedirs(out, exist_ok=True)
    stem = os.path.join(out, f"oracle_{name.lower()}_t{t}")
    with open(stem + ".csv", "w") as fh:
        fh.writelines(table.csv_chunks())
    with open(stem + ".json", "w") as fh:
        fh.writelines(table.json_chunks())
        fh.write("\n")
    return stem + ".csv", stem + ".json"


def cmd_oracle(args: argparse.Namespace) -> int:
    group = _parse_group(args.group)
    budget = _budget(args)
    table = build_table(group, SizeAtMost(group, args.t))
    try:
        csv_path, json_path = _write_tables(table, args.out, args.group, args.t)
    except OSError as exc:
        return _config_error(str(exc))

    _print_report({
        "group": group.describe(),
        "size_bound": args.t,
        "rows": 1 << group.order,
        "max_level": table.max_level(),
        "bottom_count": table.bottom_count(),
        "csv": csv_path,
        "json": json_path,
    }, False)
    report = cross_check(table, budget)
    _print_report({"cross_check": report.summary()}, False)
    return EXIT_OK if report.ok else 1


# -- selftest ---------------------------------------------------------------


def cmd_selftest(args: argparse.Namespace) -> int:
    return run_selftest(seed=args.seed, trials=args.trials, budget=_budget(args))


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
    p.add_argument(
        "--depth", type=int, default=3,
        help=f"dump depth, 0 to {MAX_DUMP_DEPTH} (default: 3)",
    )
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
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout breaks here, not at exit
        return code
    except ValueError as exc:
        return _config_error(str(exc))
    except BrokenPipeError:  # what is still buffered goes to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE


if __name__ == "__main__":
    sys.exit(main())
