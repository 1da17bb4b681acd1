"""Exact classifier for the thin-set hierarchy.

A set A is thin over a base family F when A & (g + A) lands in F for every
nonidentity shift g.  Iterating "thin over" builds an increasing hierarchy
above F; its union, the thin completion, consists exactly of the sets whose
derivation tree is well-founded.  The derivation tree of A has a node for
every finite shift sequence s with derived set A_s outside F, where
A_(s,g) = A_s & (g + A_s).

The engine computes, exactly:

* classify: the least hierarchy level of A, or a cycle witness proving the
  tree has an infinite branch (A is outside the thin completion), or an
  honest Unknown when the node/depth budget runs out;
* tree_rank: the well-founded rank of the derivation tree, by an
  independent recursion (used to cross-check classify);
* tree_dump: the top of the derivation tree for inspection, as the JSON
  document that `thinlab tree --format json` prints.

Two universes are supported: SymbolicUniverse(), symbolic subsets of Z
over the family of finite sets, and FiniteGroupUniverse(family), bitmask
subsets of the group of a size-bound family, of order at most
groups.MAX_ORDER.  Levels, witnesses and ranks are invariant under
translating the root, so verdicts, heights and tree ranks are memoized per
translation orbit.  Derived sets only shrink along a path, and a set that
contains a translate of itself equals it (in a finite group both have the
same size; on Z the shift must fix the periodic part, the tail offsets and
the finite part), so tree_rank finds a cycle as a child equal to its parent.

classify is one cube reduction.  The paper (arXiv:1011.2585) characterizes
the thin completion by cubes: A lies in it iff along every sequence g_0,
g_1, ... of nonzero shifts some intersection of the translates
g_0^i_0 ... g_n^i_n A, i_j in {0, 1}, lies in F.  The universe reads a
bottom witness off A, or else the roots D of one height recursion,
h(D) = 1 + max over the children c of D of h(c), where h(c) <= |c| - t and
h(c) = 0 for |c| <= t; children are taken largest first, and one that
cannot beat the best height so far is skipped.

In a finite group over SizeAtMost(t), A is bottom exactly when some g != 0
gives it a <g>-coset core A & (A + g) & ... & (A + (ord(g) - 1) g) of more
than t elements, to which the derives along g shrink A.  Otherwise no
derived set is bottom, as cores shrink with the set, and a derive strictly
shrinks any derived set c of more than t elements, else c would be a union
of <g>-cosets inside A's core: the level is h(A), with children c & (c + g).

On Z, t = 0 and the nodes are sets of tail offsets.  A set with a periodic
part is bottom: its period branch reaches a fixed point.  Otherwise, with
a derived set the meet of the translates A + s over the subset sums s of
its path, tails of different reduced coefficients cp meet finitely, and
two of one cp meet infinitely exactly when their exponent sets share a
class mod Q, the lcm of the tail steps.  With D_(cp,r) the offsets of the
tails of cp that hold the class r, the set sits at the largest
h(D_(cp,r)), the children of D being D & (D - g), g > 0: h(D) - 1 is the
largest k with a cube x + sums(g_1..g_k) inside D, and D & (D - g) is the
offset set of the derived set along -g, a translate of that along +g.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable

from .groups import MAX_ORDER, check_mask, int_text, mask_elements, mask_orbit, mask_translate
from .ideals import FiniteSets, SizeAtMost
from .symbolic import ShiftSpectrum, SymbolicSet


@dataclass(frozen=True)
class Budget:
    """Exploration limits for classification."""

    max_depth: int = 32
    max_nodes: int = 100_000

    def __post_init__(self) -> None:
        if self.max_depth < 1 or self.max_nodes < 1:
            raise ValueError("budget limits must be positive")


@dataclass(frozen=True)
class CycleWitness:
    """Proof that a derivation tree has an infinite branch.

    Following `path` from the root and branching once more on
    `repeat_shift` reproduces a translate (by `translation`) of the node
    reached by path[:ancestor_index]; since that ancestor lies outside the
    base family and derivation commutes with translation, the loop unrolls
    into an infinite branch.  Checkable via Engine.replay_witness.
    """

    path: tuple[int, ...]
    ancestor_index: int
    repeat_shift: int
    translation: int

    def __post_init__(self) -> None:
        if not 0 <= self.ancestor_index <= len(self.path):
            raise ValueError("ancestor index must point into the path")


@dataclass(frozen=True)
class ExactLevel:
    """A sits at exactly this level of the hierarchy."""

    level: int


@dataclass(frozen=True)
class NotInThinCompletion:
    """A is outside the thin completion, with a replayable cycle witness."""

    witness: CycleWitness


@dataclass(frozen=True)
class Unknown:
    """The budget ran out before a verdict was reached."""

    depth_reached: int
    nodes_used: int
    deepest_path: tuple[int, ...]


class _NotWellFoundedType:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NOT_WELL_FOUNDED"


NOT_WELL_FOUNDED = _NotWellFoundedType()


class _BudgetStop(Exception):
    def __init__(self, unknown: Unknown):
        self.unknown = unknown


class _Counter:
    """One public call's Budget, the nodes it has ticked and its deepest path."""

    __slots__ = ("budget", "nodes", "deepest")

    def __init__(self, budget: Budget | None) -> None:
        self.budget = budget if budget is not None else Budget()
        self.nodes = 0
        self.deepest: tuple[int, ...] = ()

    def enter(self, shifts: tuple[int, ...]) -> None:
        """Stop at a node reached along shifts once the path is max_depth long."""
        if len(shifts) >= self.budget.max_depth:
            raise _BudgetStop(Unknown(len(shifts), self.nodes, shifts))

    def tick(self, shifts: tuple[int, ...], g: int) -> None:
        """Spend one node on the child along g of the node reached along shifts."""
        self.nodes += 1
        if len(shifts) >= len(self.deepest):
            self.deepest = shifts + (g,)
        if self.nodes > self.budget.max_nodes:
            raise _BudgetStop(Unknown(len(shifts) + 1, self.nodes, self.deepest))


def _branches(spectrum: ShiftSpectrum) -> list[tuple[int, SymbolicSet]]:
    """Explicit shifts with infinite child plus one representative per
    residue class of shifts, sorted by shift; sufficient for rank and
    well-foundedness.  A set without a periodic part has no classes."""
    out = [(g, c) for g, c in spectrum.explicit if not c.is_finite()]
    seen = {g for g, _ in out}
    for cls in spectrum.classes:
        if cls.representative not in seen:
            seen.add(cls.representative)
            out.append((cls.representative, cls.child))
    return sorted(out)


def _check_shift(g: int) -> None:
    """Raise TypeError unless a shift of Z is a plain int (so not a bool),
    the rule a finite group applies to its elements."""
    if type(g) is not int:
        raise TypeError(f"expected an integer shift, got {type(g).__name__}")


class SymbolicUniverse:
    """Symbolic subsets of Z over the family of finite sets."""

    family = FiniteSets()

    def validate(self, x: SymbolicSet) -> None:
        if not isinstance(x, SymbolicSet):
            raise TypeError(f"expected a SymbolicSet, got {type(x).__name__}")

    def in_family(self, x: SymbolicSet) -> bool:
        return self.family.contains(x)

    def translate(self, x: SymbolicSet, g: int) -> SymbolicSet:
        _check_shift(g)
        return x.translate(g)

    def derive(self, x: SymbolicSet, g: int) -> SymbolicSet:
        _check_shift(g)
        if g == 0:
            raise ValueError("derivation shifts must be nonzero")
        return x.derive(g)

    def children(self, x: SymbolicSet) -> list[tuple[int, SymbolicSet]]:
        """Branches of the derivation tree at x, from its shift spectrum:
        every shift with an infinite child, residue classes of such shifts
        by one representative each."""
        return _branches(x.shift_spectrum())

    def bottom(self, x: SymbolicSet) -> CycleWitness | None:
        """The witness of the period branch of x = P | R, P its periodic part
        of period p, or None.  A derive by a multiple of p keeps P and meets
        R, the finite part and the tails, alone (SymbolicSet.derive); a tail
        key (cp, d) survives only beside (cp, d - p), so R is derived once per
        tail key at most, and its finite rest ends after its longest run."""
        p = x.period
        if p is None:
            return None
        k = 0
        while x.tails:
            x = x.derive(p)
            k += 1
        runs: dict[int, int] = {}
        for y in x.finite:
            runs[y] = runs.get(y - p, 0) + 1
        k += max(runs.values(), default=0)
        return CycleWitness((p,) * k, k, p, 0)

    def height_roots(self, x: SymbolicSet) -> list[tuple[int, ...]]:
        """The maximal D_(cp,r) of a set, as sorted offset tuples, in order.

        A tail (cp, d, m0, q) holds the exponent class m0 mod q.  Classes that
        meet pairwise share a common exponent (CRT), so the offsets over a
        maximal family of pairwise meeting classes of one cp form a maximal
        D_(cp,r).  The families are the maximal cliques of the meeting graph,
        found by Bron-Kerbosch with pivoting, which never enumerates the
        exponent classes mod the lcm of the steps one by one."""
        out = set()
        by_cp: dict[int, dict[tuple[int, int], list[int]]] = {}
        for cp, d, m0, q in x.tails:
            by_cp.setdefault(cp, {}).setdefault((m0 % q, q), []).append(d)
        for offsets in by_cp.values():
            meets = {
                c: {e for e in offsets if e != c and (c[0] - e[0]) % math.gcd(c[1], e[1]) == 0}
                for c in offsets
            }

            def extend(family: list, cand: set, done: set) -> None:
                if not cand and not done:
                    out.add(tuple(sorted(d for c in family for d in offsets[c])))
                    return
                pivot = max(sorted(cand | done), key=lambda c: len(cand & meets[c]))
                for c in sorted(cand - meets[pivot]):
                    extend(family + [c], cand & meets[c], done & meets[c])
                    cand = cand - {c}
                    done = done | {c}

            extend([], set(offsets), set())
        return sorted(out)

    def height_key(self, d: list[int] | tuple[int, ...]) -> tuple[int, ...]:
        return tuple([v - d[0] for v in d]) if d[0] else tuple(d)

    def height_children(self, d: tuple[int, ...]) -> list:
        """(shifts, child, bound) per child d & (d - g), g > 0, of d: the
        shifts are -g and +g, whose derived sets are translates, and the
        bound on the child's height is its size."""
        children: dict[int, list[int]] = {}
        for i, a in enumerate(d):
            for b in d[i + 1:]:
                children.setdefault(b - a, []).append(a)
        return [((-g, g), c, len(c)) for g, c in children.items()]

    def norm_key(self, x: SymbolicSet) -> SymbolicSet:
        """x moved to put its least geometric offset, else its least
        element, at 0; a set with only a periodic part is its own key."""
        if x.tails:
            return x.translate(-min(t[1] for t in x.tails))
        if x.finite:
            return x.translate(-x.finite[0])
        return x

    def match_translate(self, x: SymbolicSet, y: SymbolicSet) -> int | None:
        """t with y == x.translate(t), if one exists."""
        if (len(x.finite), len(x.tails), len(x.residues)) != (
            len(y.finite), len(y.tails), len(y.residues)
        ):
            return None
        if x.tails:
            t = min(s[1] for s in y.tails) - min(s[1] for s in x.tails)
        elif x.finite:
            t = y.finite[0] - x.finite[0]
        elif x.residues:
            # x.translate(t) == y needs t to take x's least residue to one of y's
            p, r0 = x.period, min(x.residues)
            for t in sorted({(r - r0) % p for r in y.residues}):
                if x.translate(t) == y:
                    return t
            return None
        else:
            t = 0
        return t if x.translate(t) == y else None

    def describe(self, x: SymbolicSet) -> str:
        return repr(x)


class FiniteGroupUniverse:
    """Bitmask subsets of the group of a size-bound family, of order at
    most MAX_ORDER.  bottom, children and norm_key read one unchecked
    mask_orbit per node; norm_key, the least mask of the orbit, keys every
    memo.  translate and derive check the mask and the shift."""

    def __init__(self, family: SizeAtMost):
        self.group = family.group
        self.family = family
        if self.group.order > MAX_ORDER:
            raise ValueError(
                f"group order {int_text(self.group.order)} exceeds supported maximum {MAX_ORDER}"
            )
        # (g, [g, 2g, ..., ord(g) g = 0]) for every g != 0, g ascending; set
        # here, as an attribute added later slows every attribute read
        self._multiples = [(g, [g]) for g in self.group.nonidentity()]
        for g, run in self._multiples:
            while run[-1]:
                run.append(self.group.op(run[-1], g))

    def validate(self, x: int) -> None:
        check_mask(self.group, x)

    def in_family(self, x: int) -> bool:
        return self.family.fits(x)

    def translate(self, x: int, g: int) -> int:
        return mask_translate(self.group, x, g)

    def derive(self, x: int, g: int) -> int:
        if g == self.group.identity:
            raise ValueError("derivation shifts must be nonidentity")
        return x & mask_translate(self.group, x, g)

    def children(self, x: int) -> Iterable[tuple[int, int]]:
        """(g, x & (g + x)) for every nonidentity g."""
        return zip(range(1, self.group.order), [x & t for t in mask_orbit(self.group, x)[1:]])

    def bottom(self, x: int) -> CycleWitness | None:
        """The witness (g,)*k of the fewest derives k, then the least g, that
        reach a <g>-core of more than t elements, or None.  The k-th derive
        along g, the meet of the translates by 0, g, ..., kg, is the core
        once a derive keeps it; a walk stops at t elements or fewer."""
        orbit, witness, fewest = mask_orbit(self.group, x), None, self.group.order
        for g, run in self._multiples:
            y = x
            for k, h in zip(range(fewest), run):
                z = y & orbit[h]
                if z == y:
                    witness, fewest = CycleWitness((g,) * k, k, g, 0), k
                if z == y or z.bit_count() <= self.family.t:
                    break
                y = z
        return witness

    def height_roots(self, x: int) -> tuple[int]:
        return (x,)

    def height_children(self, x: int) -> list:
        """(shifts, child, bound) per child: the shifts are (g,), and the
        bound on the child's height is |child| - t."""
        return [((g,), c, c.bit_count() - self.family.t) for g, c in self.children(x)]

    def norm_key(self, x: int) -> int:
        return min(mask_orbit(self.group, x))

    height_key = norm_key

    def match_translate(self, x: int, y: int) -> int | None:
        """First g in numeric order with y == g + x, if one exists."""
        self.validate(x)
        self.validate(y)
        orbit = mask_orbit(self.group, x)
        return orbit.index(y) if y in orbit else None

    def describe(self, x: int) -> str:
        return "{" + ",".join(str(a) for a in mask_elements(self.group, x)) + "}"


# The deepest tree_dump.  json's encoder takes a frame for each of the three
# containers a level nests, so depth 330 passes the recursion limit of 1000.
MAX_DUMP_DEPTH = 200


def check_dump_depth(depth: int) -> None:
    """Raise ValueError unless 0 <= depth <= MAX_DUMP_DEPTH."""
    if depth < 0:
        raise ValueError("dump depth must be >= 0")
    if depth > MAX_DUMP_DEPTH:
        raise ValueError(f"dump depth must be <= {MAX_DUMP_DEPTH}")


class Engine:
    """Classifier for one universe.  Verdicts, heights and tree ranks
    belong to the set, not to the path that reached it, so each engine
    memoizes them across calls; a memo hit spends no budget.  Each call of
    classify or tree_rank holds its Budget and what it has spent in one
    _Counter, which stops the recursion with the call's Unknown.  Public
    methods check their arguments; the recursions take checked sets outside
    the family."""

    def __init__(self, universe: SymbolicUniverse | FiniteGroupUniverse | None = None):
        self.universe = universe if universe is not None else SymbolicUniverse()
        self._memo: dict = {}
        self._heights: dict = {}
        self._ranks: dict = {}

    # -- public API -------------------------------------------------------

    def classify(self, x, budget: Budget | None = None):
        """Exact hierarchy level, cycle witness, or Unknown."""
        self.universe.validate(x)
        if self.universe.in_family(x):
            return ExactLevel(0)
        key = self.universe.norm_key(x)
        if key not in self._memo:
            witness, counter = self.universe.bottom(key), _Counter(budget)
            try:
                self._memo[key] = NotInThinCompletion(witness) if witness else ExactLevel(max(
                    self._height(r, (), counter) for r in self.universe.height_roots(key)))
            except _BudgetStop as stop:
                return stop.unknown
        return self._memo[key]

    def derived_set(self, x, path: Iterable[int]):
        """The derived set of x along path.  On Z a run of k equal shifts g
        is derived along g, 2g, ..., 2^(m-1)g and (k + 1 - 2^m)g if nonzero,
        2^m <= k + 1 < 2^(m+1): the same subset sums 0, g, ..., kg give the
        same meet of translates x + s.  A finite group walks the path: its
        runs are at most |G| long, and 2g can be the identity."""
        self.universe.validate(x)
        if not isinstance(self.universe, SymbolicUniverse):
            for g in path:
                x = self.universe.derive(x, g)
            return x
        for (_, g), run in itertools.groupby(path, lambda h: (type(h), h)):
            _check_shift(g)  # before g is multiplied, so True is refused
            k = sum(1 for _ in run)
            m = (k + 1).bit_length() - 1
            for c in [2**i for i in range(m)] + [k + 1 - 2**m]:
                if c:
                    x = self.universe.derive(x, c * g)
        return x

    def is_thin(self, x) -> bool:
        """True when every derived child lies in the base family."""
        self.universe.validate(x)
        return all(self.universe.in_family(c) for _, c in self.universe.children(x))

    def tree_rank(self, x, budget: Budget | None = None):
        """Rank of the derivation tree: an integer, NOT_WELL_FOUNDED, or
        Unknown.  Independent of classify: plain recursion over branches
        of exact sets, where a child equal to its parent is a cycle.
        Ranks, NOT_WELL_FOUNDED included, are memoized per engine.  A rank
        is constant on a translation orbit, so on both universes the memo is
        keyed by norm_key, apart from classify's memo."""
        self.universe.validate(x)
        try:
            return 0 if self.universe.in_family(x) else self._rank(x, (), _Counter(budget))
        except _BudgetStop as stop:
            return stop.unknown

    def tree_dump(self, x, depth: int = 3) -> dict:
        """The derivation tree to the given depth as its JSON document.  A
        node is {"path", "set", "in_family", "rank", "truncated", "children",
        "classes"}, a child {"shift", "node"}, a residue class of shifts
        {"modulus", "residue", "representative", "uniform"}.  Ranks are
        filled in only where the subtree was fully expanded."""
        check_dump_depth(depth)
        self.universe.validate(x)

        def build(y, path: list[int], left: int) -> dict:
            in_fam = self.universe.in_family(y)
            node = {"path": path, "set": self.universe.describe(y), "in_family": in_fam,
                    "rank": 0 if in_fam else None, "truncated": not in_fam and left == 0,
                    "children": [], "classes": []}
            if in_fam or left == 0:
                return node
            if isinstance(self.universe, SymbolicUniverse):
                spectrum = y.shift_spectrum()
                node["classes"] = [
                    {"modulus": cls.modulus, "residue": cls.residue,
                     "representative": cls.representative, "uniform": cls.uniform}
                    for cls in spectrum.classes
                ]
                branches = _branches(spectrum)
            else:
                branches = self.universe.children(y)
            node["children"] = [
                {"shift": g, "node": build(c, path + [g], left - 1)} for g, c in branches
            ]
            ranks = [child["node"]["rank"] for child in node["children"]]
            if not node["classes"] and None not in ranks:
                node["rank"] = 1 + max(ranks, default=0)
            return node

        return build(x, [], depth)

    def replay_witness(self, x, witness: CycleWitness) -> bool:
        """Recompute the derived sets named by a witness, a run of k equal
        shifts on Z in about log2 k derives, and confirm the repetition."""
        i = witness.ancestor_index
        ancestor = self.derived_set(x, witness.path[:i])
        frame = self.derived_set(ancestor, witness.path[i:])
        child = self.universe.derive(frame, witness.repeat_shift)
        moved = self.universe.translate(ancestor, witness.translation)
        return not self.universe.in_family(ancestor) and child == moved

    # -- internals --------------------------------------------------------

    def _rank(self, y, shifts: tuple[int, ...], counter: _Counter):
        """The tree rank of y, a set outside the family, memoized per
        translation orbit."""
        key = self.universe.norm_key(y)
        if key in self._ranks:
            return self._ranks[key]
        counter.enter(shifts)
        best = 0
        for g, child in self.universe.children(y):
            counter.tick(shifts, g)
            if self.universe.in_family(child):
                continue
            rank = NOT_WELL_FOUNDED if child == y else self._rank(child, shifts + (g,), counter)
            if rank is NOT_WELL_FOUNDED:
                break
            best = max(best, rank)
        else:
            rank = 1 + best
        self._ranks[key] = rank
        return rank

    def _height(self, node, shifts: tuple[int, ...], counter: _Counter) -> int:
        """The height of a node outside the family reached along shifts,
        memoized on its height_key.  A child costs a node per shift it
        stands for; children come largest height bound first, ties to the
        least shift, and one bound by the best height so far is skipped."""
        key = self.universe.height_key(node)
        if key in self._heights:
            return self._heights[key]
        counter.enter(shifts)
        best = 0
        children = sorted(self.universe.height_children(key), key=lambda c: (-c[2], c[0][-1]))
        for ticks, child, bound in children:
            for g in ticks:
                counter.tick(shifts, g)
            if bound > best:
                best = max(best, self._height(child, shifts + ticks[:1], counter))
        self._heights[key] = 1 + best
        return 1 + best
