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
* tree_dump: the top of the derivation tree for inspection.

Two universes are supported: symbolic subsets of Z over the family of
finite sets, and bitmask subsets of a small finite group over a size-bound
family.  Levels, witnesses and ranks are invariant under translating the
root, so classification results are memoized per translation orbit.

Derived sets only shrink along a path, and a set that contains a translate
of itself equals it (in a finite group both have the same size; on Z the
shift must fix the periodic part, the tail offsets and the finite part).
So a child that is a translate of an ancestor equals its parent: classify
and tree_rank find a cycle as a fixed point, without comparing a node with
ancestors.

On Z, classify reads the level off the cube structure of the tails.  The
paper (arXiv:1011.2585) characterizes the thin completion by cubes: A lies
in it iff along every sequence g_0, g_1, ... of nonzero shifts some
intersection of the translates g_0^i_0 ... g_n^i_n A, i_j in {0, 1}, lies
in F.  Likewise the derived set along g_1..g_k is the intersection of the
translates A + s over the subset sums s of the path, so A_(g_1..g_k) is
infinite exactly when some tail survives every such translate.  Tails with different reduced coefficients cp meet finitely,
and two tails of one cp meet infinitely exactly when their exponent sets
share a class mod Q, the lcm of the tail steps.  For each cp and exponent
class r let D_(cp,r) be the offsets d of the tails that contain r.  A set
with a periodic part is outside the completion (the period branch is a
fixed point); for any other set,

    level(A) = max over (cp, r) of h(D_(cp,r)),
    h({}) = 0,  h(D) = 1 + max over g > 0 of h(D & (D - g)),

a recursion on plain finite sets of integers: h(D) - 1 is the largest k
with a cube x + sums(g_1..g_k) inside D.  The child D & (D - g) is the
offset set of the derived set along shift -g, whose sibling along +g is a
translate of it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable

from .groups import GroupDescriptor, mask_elements, mask_translate
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
    def __init__(self, depth: int, nodes: int, path: tuple[int, ...]):
        self.depth = depth
        self.nodes = nodes
        self.path = path


class _Counter:
    __slots__ = ("nodes", "deepest")

    def __init__(self) -> None:
        self.nodes = 0
        self.deepest: tuple[int, ...] = ()

    def tick(self, budget: Budget, path: tuple[int, ...]) -> None:
        self.nodes += 1
        if len(path) > len(self.deepest):
            self.deepest = path
        if self.nodes > budget.max_nodes:
            raise _BudgetStop(len(path), self.nodes, self.deepest)


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


def _offset_sets(x: SymbolicSet) -> set[tuple[int, ...]]:
    """The maximal D_(cp,r) of a set, as sorted offset tuples.

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
    return out


class SymbolicUniverse:
    """Symbolic subsets of Z over the family of finite sets."""

    def __init__(self, family: FiniteSets | None = None):
        self.family = family if family is not None else FiniteSets()

    def validate(self, x: SymbolicSet) -> None:
        if not isinstance(x, SymbolicSet):
            raise TypeError(f"expected a SymbolicSet, got {type(x).__name__}")

    def in_family(self, x: SymbolicSet) -> bool:
        return self.family.contains(x)

    def derive(self, x: SymbolicSet, g: int) -> SymbolicSet:
        if g == 0:
            raise ValueError("derivation shifts must be nonzero")
        return x.intersect(x.translate(g))

    def children(self, x: SymbolicSet) -> list[tuple[int, SymbolicSet]]:
        """Branches of the derivation tree at x, from its shift spectrum:
        every shift with an infinite child, residue classes of such shifts
        by one representative each."""
        return _branches(x.shift_spectrum())

    def norm_key(self, x: SymbolicSet) -> SymbolicSet:
        """x moved to put its least geometric offset, else its least
        element, at 0; classify calls it only on sets with no periodic part."""
        if x.tails:
            return x.translate(-min(t[1] for t in x.tails))
        if x.finite:
            return x.translate(-x.finite[0])
        return x

    def match_translate(self, x: SymbolicSet, y: SymbolicSet) -> int | None:
        """t with y == x.translate(t), if one exists."""
        if (len(x.finite), len(x.tails), len(x.aps)) != (
            len(y.finite), len(y.tails), len(y.aps)
        ):
            return None
        if x.tails:
            t = min(s[1] for s in y.tails) - min(s[1] for s in x.tails)
        elif x.finite:
            t = y.finite[0] - x.finite[0]
        elif x.aps:
            # x.translate(t) == y needs t to take x's first residue to one of y's
            p = x.aps[0].modulus
            r0 = x.aps[0].residue
            for t in sorted({(s.residue - r0) % p for s in y.aps}):
                if x.translate(t) == y:
                    return t
            return None
        else:
            t = 0
        return t if x.translate(t) == y else None

    def describe(self, x: SymbolicSet) -> str:
        return repr(x)


class FiniteGroupUniverse:
    """Bitmask subsets of a small finite group."""

    MAX_ORDER = 24

    def __init__(self, group: GroupDescriptor, family: SizeAtMost):
        if group.order is None:
            raise ValueError("finite universe requires a finite group")
        if group.order > self.MAX_ORDER:
            raise ValueError(
                f"group order {group.order} exceeds supported maximum {self.MAX_ORDER}"
            )
        if family.group != group:
            raise ValueError("family is defined over a different group")
        self.group = group
        self.family = family

    def validate(self, x: int) -> None:
        if not isinstance(x, int) or isinstance(x, bool):
            raise TypeError(f"expected a bitmask subset, got {type(x).__name__}")
        if not 0 <= x < (1 << self.group.order):
            raise ValueError(f"mask {x} out of range for {self.group.describe()}")

    def in_family(self, x: int) -> bool:
        return self.family.contains(x)

    def derive(self, x: int, g: int) -> int:
        if g == self.group.identity:
            raise ValueError("derivation shifts must be nonidentity")
        return x & mask_translate(self.group, x, g)

    def children(self, x: int) -> list[tuple[int, int]]:
        """(g, x & (g + x)) for every nonidentity g."""
        return [(g, self.derive(x, g)) for g in self.group.nonidentity()]

    def norm_key(self, x: int) -> int:
        return min(mask_translate(self.group, x, g) for g in self.group.elements())

    def match_translate(self, x: int, y: int) -> int | None:
        """First g in numeric order with y == g + x, if one exists."""
        if x.bit_count() != y.bit_count():
            return None
        for g in self.group.elements():
            if mask_translate(self.group, x, g) == y:
                return g
        return None

    def describe(self, x: int) -> str:
        return "{" + ",".join(str(a) for a in mask_elements(self.group, x)) + "}"


@dataclass
class TreeNode:
    """One node of a dumped derivation tree."""

    path: tuple[int, ...]
    label: str
    in_family: bool
    rank: int | None
    truncated: bool
    children: list[tuple[int, "TreeNode"]] = field(default_factory=list)
    classes: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "path": list(self.path),
            "set": self.label,
            "in_family": self.in_family,
            "rank": self.rank,
            "truncated": self.truncated,
            "children": [
                {"shift": g, "node": node.to_dict()} for g, node in self.children
            ],
            "classes": self.classes,
        }


@dataclass
class TreeDump:
    root: TreeNode

    def to_dict(self) -> dict:
        return self.root.to_dict()

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_dict(), indent=2)

    def to_dot(self) -> str:
        lines = ["digraph derivation_tree {", '  node [shape=box, fontname="monospace"];']
        counter = itertools.count()

        def visit(node: TreeNode) -> int:
            nid = next(counter)
            rank = "" if node.rank is None else f"\\nrank {node.rank}"
            flag = " (in family)" if node.in_family else ""
            trunc = "\\n..." if node.truncated else ""
            label = node.label.replace('"', r"\"")
            lines.append(f'  n{nid} [label="{label}{flag}{rank}{trunc}"];')
            for g, child in node.children:
                cid = visit(child)
                lines.append(f'  n{nid} -> n{cid} [label="g={g}"];')
            for cls in node.classes:
                cid = next(counter)
                lines.append(
                    f'  n{cid} [label="class g = {cls["residue"]} mod {cls["modulus"]}"'
                    ", style=dashed];"
                )
                lines.append(f"  n{nid} -> n{cid} [style=dashed];")
            return nid

        visit(self.root)
        lines.append("}")
        return "\n".join(lines)


class Engine:
    """Classifier for one universe.  Verdicts, heights and tree ranks
    belong to the set, not to the path that reached it, so each engine
    memoizes them across calls; a memo hit spends no budget."""

    def __init__(self, universe: SymbolicUniverse | FiniteGroupUniverse | None = None):
        self.universe = universe if universe is not None else SymbolicUniverse()
        self._memo: dict = {}
        self._heights: dict[tuple[int, ...], int] = {}
        self._ranks: dict = {}

    # -- public API -------------------------------------------------------

    def classify(self, x, budget: Budget | None = None):
        """Exact hierarchy level, cycle witness, or Unknown."""
        budget = budget if budget is not None else Budget()
        self.universe.validate(x)
        counter = _Counter()
        try:
            if isinstance(self.universe, SymbolicUniverse):
                return self._classify_z(x, budget, counter)
            return self._rec(x, (), budget, counter)
        except _BudgetStop as stop:
            return Unknown(stop.depth, stop.nodes, stop.path)

    def derived_set(self, x, path: Iterable[int]):
        self.universe.validate(x)
        for g in path:
            x = self.universe.derive(x, g)
        return x

    def is_thin(self, x) -> bool:
        """True when every derived child lies in the base family."""
        self.universe.validate(x)
        return all(self.universe.in_family(c) for _, c in self.universe.children(x))

    def tree_rank(self, x, budget: Budget | None = None):
        """Rank of the derivation tree: an integer, NOT_WELL_FOUNDED, or
        Unknown.  Independent of classify: plain recursion over branches
        of exact sets, where a child equal to its parent is a cycle.
        Ranks, NOT_WELL_FOUNDED included, are memoized per engine."""
        budget = budget if budget is not None else Budget()
        self.universe.validate(x)
        counter = _Counter()

        def rec(y, shifts: tuple[int, ...]):
            if self.universe.in_family(y):
                return 0
            if y in self._ranks:
                return self._ranks[y]
            if len(shifts) >= budget.max_depth:
                raise _BudgetStop(len(shifts), counter.nodes, shifts)
            best = 0
            for g, child in self.universe.children(y):
                counter.tick(budget, shifts + (g,))
                if self.universe.in_family(child):
                    continue
                r = NOT_WELL_FOUNDED if child == y else rec(child, shifts + (g,))
                if r is NOT_WELL_FOUNDED:
                    rank = NOT_WELL_FOUNDED
                    break
                best = max(best, r)
            else:
                rank = 1 + best
            self._ranks[y] = rank
            return rank

        try:
            return rec(x, ())
        except _BudgetStop as stop:
            return Unknown(stop.depth, stop.nodes, stop.path)

    def tree_dump(self, x, depth: int = 3) -> TreeDump:
        """The derivation tree to the given depth.  Ranks are filled in
        only where the subtree was fully expanded."""
        if depth < 0:
            raise ValueError("dump depth must be >= 0")
        self.universe.validate(x)

        def build(y, path: tuple[int, ...], left: int) -> TreeNode:
            in_fam = self.universe.in_family(y)
            node = TreeNode(
                path=path,
                label=self.universe.describe(y),
                in_family=in_fam,
                rank=0 if in_fam else None,
                truncated=False,
            )
            if in_fam:
                return node
            if left == 0:
                node.truncated = True
                return node
            if isinstance(self.universe, SymbolicUniverse):
                spectrum = y.shift_spectrum()
                node.classes = [
                    {
                        "modulus": cls.modulus,
                        "residue": cls.residue,
                        "representative": cls.representative,
                        "uniform": cls.uniform,
                    }
                    for cls in spectrum.classes
                ]
                branches = _branches(spectrum)
            else:
                branches = self.universe.children(y)
            for g, c in branches:
                node.children.append((g, build(c, path + (g,), left - 1)))
            subtree_complete = not node.classes and all(
                ch.rank is not None and not ch.truncated for _, ch in node.children
            )
            if subtree_complete:
                node.rank = 1 + max(
                    (ch.rank for _, ch in node.children if not ch.in_family),
                    default=0,
                )
            return node

        return TreeDump(build(x, (), depth))

    def replay_witness(self, x, witness: CycleWitness) -> bool:
        """Recompute the derived sets named by a witness and confirm the
        claimed repetition."""
        self.universe.validate(x)
        frame = self.derived_set(x, witness.path)
        child = self.universe.derive(frame, witness.repeat_shift)
        ancestor = self.derived_set(x, witness.path[: witness.ancestor_index])
        if self.universe.in_family(ancestor):
            return False
        if isinstance(self.universe, SymbolicUniverse):
            return child == ancestor.translate(witness.translation)
        return child == mask_translate(self.universe.group, ancestor, witness.translation)

    # -- internals --------------------------------------------------------

    def _rec(self, x, shifts: tuple[int, ...], budget: Budget, counter: _Counter):
        if self.universe.in_family(x):
            return ExactLevel(0)
        key = self.universe.norm_key(x)
        if key in self._memo:
            return self._memo[key]
        if len(shifts) >= budget.max_depth:
            raise _BudgetStop(len(shifts), counter.nodes, shifts)

        child_levels: list[int] = []
        for g, child in self.universe.children(x):
            counter.tick(budget, shifts + (g,))
            if self.universe.in_family(child):
                continue
            if child == x:
                verdict = NotInThinCompletion(CycleWitness((), 0, g, 0))
                break
            sub = self._rec(child, shifts + (g,), budget, counter)
            if isinstance(sub, NotInThinCompletion):
                w = sub.witness
                verdict = NotInThinCompletion(CycleWitness(
                    (g,) + w.path, w.ancestor_index + 1, w.repeat_shift, w.translation
                ))
                break
            child_levels.append(sub.level)
        else:
            verdict = ExactLevel(1 + max(child_levels, default=0))
        self._memo[key] = verdict
        return verdict

    def _classify_z(self, x: SymbolicSet, budget: Budget, counter: _Counter):
        """The level of a subset of Z by the cube reduction, memoized per
        translation orbit; a set with a periodic part hunts its cycle."""
        if self.universe.in_family(x):
            return ExactLevel(0)
        if x.period is not None:
            return self._hunt_cycle(x)
        key = self.universe.norm_key(x)
        if key not in self._memo:
            self._memo[key] = ExactLevel(max(
                self._height(d, (), budget, counter) for d in sorted(_offset_sets(x))
            ))
        return self._memo[key]

    def _height(
        self, d: tuple[int, ...], shifts: tuple[int, ...], budget: Budget, counter: _Counter
    ) -> int:
        """h(d) for sorted nonempty offsets d reached along shifts, memoized
        on the translate with least offset 0.  One pass over the pairs of d
        builds every child d & (d - g); each costs two nodes, for the
        derivation shifts -g and +g, whose derived sets are translates of
        each other.  Children are taken largest first, and since a child
        loses the largest offset, h(c) <= |c|: a child no larger than the
        best height so far cannot raise it and is not descended into."""
        key = tuple([v - d[0] for v in d]) if d[0] else d
        if key in self._heights:
            return self._heights[key]
        if len(shifts) >= budget.max_depth:
            raise _BudgetStop(len(shifts), counter.nodes, shifts)
        children: dict[int, list[int]] = {}
        for i, a in enumerate(key):
            for b in key[i + 1:]:
                children.setdefault(b - a, []).append(a)
        best = 0
        for g, child in sorted(children.items(), key=lambda gc: (-len(gc[1]), gc[0])):
            counter.tick(budget, shifts + (-g,))
            counter.tick(budget, shifts + (g,))
            if len(child) > best:
                best = max(best, self._height(tuple(child), shifts + (-g,), budget, counter))
        self._heights[key] = 1 + best
        return 1 + best

    def _hunt_cycle(self, x: SymbolicSet) -> NotInThinCompletion:
        """Follow the period branch of a set with a periodic part to its
        fixed point: deriving by the period p keeps the periodic part, so
        the shrinking chain x, x & (p + x), ... stops at an infinite set
        equal to its own child."""
        p = x.period
        for k in range(100_000):
            nxt = self.universe.derive(x, p)
            if nxt == x:
                return NotInThinCompletion(CycleWitness((p,) * k, k, p, 0))
            x = nxt
        raise AssertionError("period-branch chain failed to stabilize")
