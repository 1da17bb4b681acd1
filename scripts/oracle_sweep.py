"""Exhaustive oracle tables for a batch of small groups, cross-checked
against the classification engine.

    python3 scripts/oracle_sweep.py --out tables/
"""

import argparse

from thinlab.cli import _parse_group, _write_tables
from thinlab.ideals import SizeAtMost
from thinlab.oracle import build_table, cross_check


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--groups",
        default="z3,z5,z7,b2,b3",
        help="comma-separated group names (default: z3,z5,z7,b2,b3)",
    )
    parser.add_argument(
        "--t",
        default="0,1,2",
        help="comma-separated size bounds (default: 0,1,2)",
    )
    parser.add_argument(
        "--out", default=".", help="output directory (default: current)"
    )
    args = parser.parse_args()

    names = [s.strip() for s in args.groups.split(",") if s.strip()]
    bounds = [int(s) for s in args.t.split(",")]
    failures = 0
    for name in names:
        group = _parse_group(name)
        for t in bounds:
            table = build_table(group, SizeAtMost(group, t))
            report = cross_check(table)
            _write_tables(table, args.out, name, t)
            print(
                f"{name} t={t}: max level {table.max_level()}, "
                f"{table.bottom_count()} bottom, {report.summary()}"
            )
            if not report.ok:
                failures += 1
    if failures:
        print(f"{failures} cross-check failures")
        return 1
    print("all tables agree with the engine")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
