"""Exact verdicts, witnesses and Unknown fields, pinned by digest.

The digest was recorded from an engine that matched every child against
every ancestor of its path; it pins the values a reimplementation of the
cycle test must keep, field for field, on two corpora.
"""

import hashlib
import random

from thinlab.engine import Budget, Engine, FiniteGroupUniverse
from thinlab.groups import GroupDescriptor
from thinlab.ideals import SizeAtMost
from thinlab.symbolic import random_set

GROUPS = [GroupDescriptor.cyclic(n) for n in range(2, 9)] + [
    GroupDescriptor.boolean_power(d) for d in range(1, 4)
]

FINITE_DIGEST = "4f98b300e29ea2ee7c4efb5b578b562876ec9ec3108beba863e0f81504960195"
SYMBOLIC_DIGEST = "a3021d9603b75be11b2d1ee3cd25ad7b61bb2dbd3ca40271d188147ec82a988c"


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def finite_verdicts():
    """Every subset of each group at t = 0, 1, 2, one engine per (group, t)."""
    for group in GROUPS:
        for t in range(3):
            engine = Engine(FiniteGroupUniverse(group, SizeAtMost(group, t)))
            for mask in range(1 << group.order):
                yield f"{group.describe()} {t} {mask} {engine.classify(mask)!r}"


def symbolic_verdicts():
    """Seeded random sets, two in three with a periodic part, on one engine
    per budget (so memo hits are pinned too), under the default budget and
    two starved ones that end some runs in Unknown."""
    rng = random.Random(20100401)
    sets = [random_set(rng, max_geo=4) for _ in range(400)]
    for budget in (Budget(), Budget(max_nodes=3), Budget(max_depth=1)):
        engine = Engine()
        for k, a in enumerate(sets):
            yield f"{k} {budget!r} {engine.classify(a, budget)!r}"


def test_finite_group_verdicts_pinned():
    assert _digest(finite_verdicts()) == FINITE_DIGEST


def test_symbolic_verdicts_pinned():
    assert _digest(symbolic_verdicts()) == SYMBOLIC_DIGEST
