"""Tabulate the subset-sum threshold c alongside its quadratic upper
bound and the recursive union-level values, as CSV.

    python3 scripts/bounds_table.py --ns 1:8 --pairs 2:1,2:2,3:1 --out c.csv

An argument the table cannot hold (n < 1, a union-level step past
`MAX_STEP_BITS`, a value too long to print), or an --out path it cannot
write, prints one `error:` line on stderr and exits 2 with nothing on
stdout.
"""

import argparse
import sys

from thinlab.bounds import c_n_k, c_of_n, cubic_image_min


def csv_lines(ns: list[int], pairs: list[tuple[int, int]]) -> list[str]:
    """c(n), its quadratic upper bound (n - 1)^2 + 1 and c(n, k), one row
    each, under a header."""
    return (
        ["kind,n,k,value"]
        + [f"c_exact,{n},,{c_of_n(n)}" for n in ns]
        + [f"c_upper_bound,{n},,{(n - 1) ** 2 + 1}" for n in ns]
        + [f"c_n_k,{n},{k},{c_n_k(n, k)}" for n, k in pairs]
    )


def int_range(spec: str) -> list[int]:
    if ":" in spec:
        lo, hi = spec.split(":")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--ns", default="1:8", help="thresholds, lo:hi or comma list"
    )
    parser.add_argument(
        "--pairs",
        default="2:1,2:2",
        help="n:k pairs for the recursive bound (default: 2:1,2:2)",
    )
    parser.add_argument(
        "--entry-bound",
        type=int,
        default=3,
        help="entry bound of the --show-minima search (default: 3)",
    )
    parser.add_argument("--out", default=None, help="CSV destination")
    parser.add_argument(
        "--show-minima",
        action="store_true",
        help="also print the minimizing vector for each length",
    )
    args = parser.parse_args()

    try:
        ns = int_range(args.ns)
        pairs = [
            (int(a), int(b))
            for a, b in (p.split(":") for p in args.pairs.split(",") if p)
        ]
        csv = "\n".join(csv_lines(ns, pairs)) + "\n"
        minima = []
        if args.show_minima:
            for n in ns:
                c = c_of_n(n)
                res = cubic_image_min(c, args.entry_bound)
                minima.append(
                    f"# c({n}) = {c}: min image {res.min_image_size} "
                    f"at {res.argmin}"
                )
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(csv)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(csv, end="")
    for line in minima:
        print(line)
    if args.out:
        print(f"# wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
