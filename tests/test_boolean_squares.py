"""R_B(2) = 7: every 2-coloring of the subsets of [7] has a monochromatic
Boolean square, and some 2-coloring of the subsets of [6] has none.

A Boolean square is {A, A|X, A|Y, A|X|Y} with X, Y nonempty and A, X, Y
pairwise disjoint.  Say D | E holds a cube x + sums(g_1..g_7) with every
g_i > 0, and color each subset S of [7] by whether x + sum_(i in S) g_i
lies in D.  A square of one color maps to a 2-cube y, y + a, y + b,
y + a + b (a 3-term progression when a = b) inside D or inside E.  So no
union of two sets of cube height at most 2 holds a 7-cube: the exact union
bound u(2) is at most 7.  This is the Boolean-lattice form of Hilbert's cube
lemma; see Gunderson and Rodl, "Extremal problems for affine cubes of
integers" (Combin. Probab. Comput. 7, 1998), and Gunderson, Rodl and
Sidorenko, "Extremal problems for sets forming Boolean algebras and complete
partite hypergraphs" (J. Combin. Theory Ser. A 88, 1999).

The search is a depth-first search with unit propagation over the clauses
"not all four of one color", one per square.  Subsets are bitmasks.  Four
subsets P, Q, R, T with P + T = Q + R as 0/1 vectors are exactly two pairs
with one meet P & T = Q & R and one join P | T = Q | R; a square is such a
quadruple in which one pair is (meet, join).  The generic-cube variant keeps
every quadruple: it is the structure a cube with unrelated subset sums has
to avoid, and it has no coloring from K = 4 on, which a brute force over all
2^16 colorings confirms.  Every coloring the search reports is checked
square by square against the definition, not against the clause list.
"""

import itertools

import pytest


def quadruples(k: int, squares_only: bool) -> list[tuple[int, int, int, int]]:
    """(P, T, Q, R) for every two pairs {P, T} != {Q, R} of subsets of [k]
    with one meet and one join; with squares_only, only Boolean squares."""
    groups: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for p, t in itertools.combinations(range(1 << k), 2):
        groups.setdefault((p & t, p | t), []).append((p, t))
    out = []
    for meet_join, pairs in groups.items():
        for a, b in itertools.combinations(pairs, 2):
            if not squares_only or meet_join in (a, b):
                out.append(a + b)
    return out


def colorings(n: int, clauses, order, fixed: dict[int, int]):
    """Yield every 0/1 coloring of vertices 0..n-1 that extends `fixed` and
    leaves no clause of four vertices one color, branching on `order`."""
    touching: list[list[int]] = [[] for _ in range(n)]
    for i, clause in enumerate(clauses):
        for v in clause:
            touching[v].append(i)
    color: list[int | None] = [None] * n
    counts = [[0, 0] for _ in clauses]
    trail: list[int] = []

    def propagate(v: int, c: int) -> bool:
        queue = [(v, c)]
        while queue:
            v, c = queue.pop()
            if color[v] is not None:
                if color[v] != c:
                    return False
                continue
            color[v] = c
            trail.append(v)
            # Count every clause before judging any, so that undo, which
            # uncounts them all, stays exact after a conflict.
            for i in touching[v]:
                counts[i][c] += 1
            for i in touching[v]:
                if counts[i][c] == 4:
                    return False
                if counts[i][c] == 3 and counts[i][1 - c] == 0:
                    (u,) = [u for u in clauses[i] if color[u] is None]
                    queue.append((u, 1 - c))
        return True

    def undo(mark: int) -> None:
        while len(trail) > mark:
            v = trail.pop()
            for i in touching[v]:
                counts[i][color[v]] -= 1
            color[v] = None

    def search(pos: int):
        while pos < n and color[order[pos]] is not None:
            pos += 1
        if pos == n:
            yield list(color)
            return
        for c in (0, 1):
            mark = len(trail)
            if propagate(order[pos], c):
                yield from search(pos + 1)
            undo(mark)

    if all(propagate(v, c) for v, c in fixed.items()):
        yield from search(0)


def boolean_squares(k: int):
    """Every Boolean square of [k], straight from the definition."""
    for a in range(1 << k):
        for x in range(1, 1 << k):
            if x & a:
                continue
            for y in range(x + 1, 1 << k):
                if not y & (a | x):
                    yield a, a | x, a | y, a | x | y


def has_monochromatic_square(coloring: list[int], k: int) -> bool:
    return any(len({coloring[v] for v in square}) == 1 for square in boolean_squares(k))


def sorted_singletons(k: int, j: int) -> dict[int, int]:
    """The empty set colored 0 (the color swap), and the singletons sorted
    by color, the first j colored 0 (a permutation of [k])."""
    return {0: 0} | {1 << i: int(i >= j) for i in range(k)}


def test_square_count_matches_the_formula():
    """Each element goes to A, X, Y or none, X and Y nonempty, {X, Y}
    unordered: (4^k - 2 * 3^k + 2^k) / 2 squares."""
    for k in range(1, 8):
        count = (4**k - 2 * 3**k + 2**k) // 2
        assert len(quadruples(k, True)) == count
        assert {frozenset(q) for q in quadruples(k, True)} == {
            frozenset(s) for s in boolean_squares(k)
        }
    assert len(quadruples(7, True)) == 6069


def test_a_coloring_of_the_subsets_of_six_has_no_monochromatic_square():
    clauses = quadruples(6, True)
    found = next(colorings(64, clauses, range(64), {0: 0}), None)
    assert found is not None
    assert not has_monochromatic_square(found, 6)


@pytest.mark.parametrize("order_name", ["ascending", "popcount descending"])
def test_no_coloring_of_the_subsets_of_seven_avoids_monochromatic_squares(order_name):
    """Ascending order breaks both symmetries: the color swap fixes the
    empty set to 0, and a permutation of [7] sorts the singletons by color,
    one search per number j of singletons colored 0.  Popcount-descending
    order breaks the color swap only."""
    clauses = quadruples(7, True)
    if order_name == "ascending":
        order = range(128)
        fixes = [sorted_singletons(7, j) for j in range(8)]
    else:
        order = sorted(range(128), key=lambda v: (-bin(v).count("1"), v))
        fixes = [{0: 0}]
    for fixed in fixes:
        assert next(colorings(128, clauses, order, fixed), None) is None


def test_solver_counts_match_brute_force_on_four():
    """With no symmetry break, the search lists exactly the colorings that a
    brute force over all 2^16 colorings of the subsets of [4] accepts: for
    squares some, for generic cubes none, so K = 4 already forces a
    monochromatic additive quadruple.  At K = 3 generic cubes still have a
    checked coloring."""
    for squares_only in (True, False):
        clauses = quadruples(4, squares_only)
        masks = [sum(1 << v for v in clause) for clause in clauses]
        brute = {c for c in range(1 << 16)
                 if not any(c & m in (0, m) for m in masks)}
        found = {sum(bit << v for v, bit in enumerate(coloring))
                 for coloring in colorings(16, clauses, range(16), {})}
        assert found == brute
        assert bool(brute) == squares_only
    clauses = quadruples(3, False)
    coloring = next(colorings(8, clauses, range(8), {}))
    assert all(len({coloring[v] for v in q}) == 2 for q in clauses)
