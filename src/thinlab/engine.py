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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable

from .groups import GroupDescriptor, mask_elements, mask_translate
from .ideals import FiniteSets, SizeAtMost
from .symbolic import SymbolicSet


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


@dataclass(frozen=True)
class _Marker:
    """Internal: a cycle found against an ancestor above the current frame."""

    ancestor_depth: int
    shifts_to_frame: tuple[int, ...]
    repeat_shift: int
    translation: int


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
        """All branches with infinite child, for sets without a periodic
        part.  (Periodic sets take the cycle-hunting path instead.)"""
        spectrum = x.shift_spectrum()
        return [(g, c) for g, c in spectrum.explicit if not c.is_finite()]

    def rank_children(self, x: SymbolicSet) -> list[tuple[int, SymbolicSet]]:
        """Infinite-child branches plus one representative per residue
        class of shifts; sufficient for rank and well-foundedness."""
        spectrum = x.shift_spectrum()
        out = [(g, c) for g, c in spectrum.explicit if not c.is_finite()]
        seen = {g for g, _ in out}
        for cls in spectrum.classes:
            if cls.representative not in seen:
                seen.add(cls.representative)
                out.append((cls.representative, cls.child))
        return sorted(out)

    def periodic(self, x: SymbolicSet) -> int | None:
        return x.period

    def norm_key(self, x: SymbolicSet) -> SymbolicSet:
        mu = self._anchor(x)
        return x.translate(-mu) if mu is not None else x

    def _anchor(self, x: SymbolicSet) -> int | None:
        if x.geos:
            return min(t.offset for t in x.geos)
        if x.finite:
            return min(x.finite)
        if x.aps:
            p = x.aps[0].modulus
            best = min(range(p), key=lambda r: x.translate(-r).aps)
            return best
        return None

    def match_translate(self, x: SymbolicSet, y: SymbolicSet) -> int | None:
        """t with y == x.translate(t), if one exists."""
        if (len(x.finite), len(x.geos), len(x.aps)) != (
            len(y.finite), len(y.geos), len(y.aps)
        ):
            return None
        if x.geos:
            t = min(s.offset for s in y.geos) - min(s.offset for s in x.geos)
        elif x.finite:
            t = y.finite[0] - x.finite[0]
        elif x.aps:
            p = x.aps[0].modulus
            for r in range(p):
                if x.translate(r) == y:
                    return r
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
        return [(g, self.derive(x, g)) for g in self.group.nonidentity()]

    def rank_children(self, x: int) -> list[tuple[int, int]]:
        return self.children(x)

    def periodic(self, x: int) -> None:
        return None

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
    """Classifier with a per-universe memo of translation-orbit verdicts."""

    def __init__(self, universe: SymbolicUniverse | FiniteGroupUniverse | None = None):
        self.universe = universe if universe is not None else SymbolicUniverse()
        self._memo: dict = {}

    # -- public API -------------------------------------------------------

    def classify(self, x, budget: Budget | None = None):
        """Exact hierarchy level, cycle witness, or Unknown."""
        budget = budget if budget is not None else Budget()
        self.universe.validate(x)
        counter = _Counter()
        try:
            verdict = self._rec(x, (), (), budget, counter)
        except _BudgetStop as stop:
            return Unknown(stop.depth, stop.nodes, stop.path)
        if isinstance(verdict, _Marker):
            raise AssertionError("cycle marker escaped to the root")
        return verdict

    def derived_set(self, x, path: Iterable[int]):
        self.universe.validate(x)
        for g in path:
            x = self.universe.derive(x, g)
        return x

    def is_thin(self, x) -> bool:
        """True when every derived child lies in the base family."""
        self.universe.validate(x)
        if isinstance(self.universe, SymbolicUniverse):
            spectrum = x.shift_spectrum()
            if spectrum.classes:
                return False
            return not any(not c.is_finite() for _, c in spectrum.explicit)
        return all(
            self.universe.in_family(c) for _, c in self.universe.children(x)
        )

    def level_at_most(self, x, k: int) -> bool:
        """Whether x sits at hierarchy level k or below."""
        if k < 0:
            raise ValueError("level bound must be >= 0")
        self.universe.validate(x)
        return self._at_most(x, k, ())

    def tree_rank(self, x, budget: Budget | None = None):
        """Rank of the derivation tree: an integer, NOT_WELL_FOUNDED, or
        Unknown.  Independent of classify: plain recursion over branches
        with path-based cycle detection and an exact-set memo."""
        budget = budget if budget is not None else Budget()
        self.universe.validate(x)
        memo: dict = {}
        counter = _Counter()

        def rec(y, path: tuple, shifts: tuple[int, ...]):
            if self.universe.in_family(y):
                return 0
            for anc in path:
                if self.universe.match_translate(anc, y) is not None:
                    return NOT_WELL_FOUNDED
            if y in memo:
                return memo[y]
            if len(shifts) >= budget.max_depth:
                raise _BudgetStop(len(shifts), counter.nodes, shifts)
            best = 0
            outside = False
            for g, child in self.universe.rank_children(y):
                counter.tick(budget, shifts + (g,))
                if self.universe.in_family(child):
                    continue
                outside = True
                r = rec(child, path + (y,), shifts + (g,))
                if r is NOT_WELL_FOUNDED:
                    return NOT_WELL_FOUNDED
                best = max(best, r)
            rank = 1 + best if outside else 1
            memo[y] = rank
            return rank

        try:
            return rec(x, (), ())
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
                branches = [(g, c) for g, c in spectrum.explicit if not c.is_finite()]
                seen = {g for g, _ in branches}
                for cls in spectrum.classes:
                    node.classes.append(
                        {
                            "modulus": cls.modulus,
                            "residue": cls.residue,
                            "representative": cls.representative,
                            "uniform": cls.uniform,
                        }
                    )
                    if cls.representative not in seen:
                        seen.add(cls.representative)
                        branches.append((cls.representative, cls.child))
                branches.sort()
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

    def _rec(self, x, shifts: tuple[int, ...], sets: tuple, budget: Budget, counter: _Counter):
        if self.universe.in_family(x):
            return ExactLevel(0)
        period = self.universe.periodic(x)
        if period is not None:
            return self._hunt_cycle(x)
        key = self.universe.norm_key(x)
        if key in self._memo:
            return self._memo[key]
        depth = len(shifts)
        if depth >= budget.max_depth:
            raise _BudgetStop(depth, counter.nodes, shifts)

        here = sets + (x,)
        child_levels: list[int] = []
        for g, child in self.universe.children(x):
            counter.tick(budget, shifts + (g,))
            if self.universe.in_family(child):
                continue
            hit = None
            for k, anc in enumerate(here):
                t = self.universe.match_translate(anc, child)
                if t is not None:
                    hit = (k, t)
                    break
            if hit is not None:
                k, t = hit
                if k == depth:
                    witness = CycleWitness((), 0, g, t)
                    verdict = NotInThinCompletion(witness)
                    self._memo[key] = verdict
                    return verdict
                return _Marker(k, shifts, g, t)
            sub = self._rec(child, shifts + (g,), here, budget, counter)
            if isinstance(sub, _Marker):
                if sub.ancestor_depth == depth:
                    witness = CycleWitness(
                        sub.shifts_to_frame[depth:], 0, sub.repeat_shift, sub.translation
                    )
                    verdict = NotInThinCompletion(witness)
                    self._memo[key] = verdict
                    return verdict
                return sub
            if isinstance(sub, NotInThinCompletion):
                w = sub.witness
                lifted = CycleWitness(
                    (g,) + w.path, w.ancestor_index + 1, w.repeat_shift, w.translation
                )
                verdict = NotInThinCompletion(lifted)
                self._memo[key] = verdict
                return verdict
            child_levels.append(sub.level)
        verdict = ExactLevel(1 + max(child_levels, default=0))
        self._memo[key] = verdict
        return verdict

    def _hunt_cycle(self, x) -> NotInThinCompletion:
        """Exact cycle search along the period branch of a set with a
        periodic part.  The derived chain under the period shift is
        set-decreasing and structurally stabilizing, so a translate-match
        against an earlier link always appears."""
        p = self.universe.periodic(x)
        chain = [x]
        for _ in range(100_000):
            nxt = self.universe.derive(chain[-1], p)
            for i, anc in enumerate(chain):
                t = self.universe.match_translate(anc, nxt)
                if t is not None:
                    last = len(chain)
                    for j in range(last):
                        if j <= i:
                            w = CycleWitness((p,) * (last - 1 - j), i - j, p, t)
                        else:
                            w = CycleWitness((p,) * (last - i - 1), 0, p, t)
                        self._memo[self.universe.norm_key(chain[j])] = (
                            NotInThinCompletion(w)
                        )
                    return NotInThinCompletion(
                        CycleWitness((p,) * (last - 1), i, p, t)
                    )
            chain.append(nxt)
        raise AssertionError("period-branch chain failed to stabilize")

    def _at_most(self, x, k: int, path: tuple) -> bool:
        if self.universe.in_family(x):
            return True
        if isinstance(self.universe, SymbolicUniverse) and x.aps:
            return False
        for anc in path:
            if self.universe.match_translate(anc, x) is not None:
                return False
        if k == 0:
            return False
        return all(
            self.universe.in_family(c) or self._at_most(c, k - 1, path + (x,))
            for _, c in self.universe.children(x)
        )
