"""Canonical forms, pinned by digest.

The digest was recorded from sets that stored each geometric tail as a
literal term; it pins the printed canonical form of every set operation a
change to the stored form of a tail must keep, byte for byte.
"""

import hashlib
import json
import random

from thinlab.bounds import escalate
from thinlab.engine import Engine
from thinlab.symbolic import geo, random_set

CANONICAL_DIGEST = "fc61b73b238e6c27884a47842d71b24b613131774d8a1453ffcd1046714d7f67"


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def _stages():
    engine = Engine()
    a = geo(2, 1, 0, 0)
    out = [a]
    for _ in range(3):
        a = escalate(a, engine)
        out.append(a)
    return out


def _json_line(a) -> str:
    """The set's parts as one sorted JSON object, built from its public
    views: the finite part, the printed tails and the residues."""
    return json.dumps({
        "finite": list(a.finite),
        "geo": [{"b": t.base, "c": t.coeff, "d": t.offset, "n0": 0} for t in a.geos],
        "ap": [{"c": t.modulus, "d": t.residue} for t in a.aps],
    }, sort_keys=True)


def canonical_lines():
    """Each set, its intersection and union with the next set of the same
    base, a translate, a scale, its shift spectrum, its parts as JSON and
    a window."""
    rng = random.Random(20100402)
    corpora = [
        [random_set(rng, base=base) for _ in range(300)]
        for base in (2, 3)
    ]
    corpora.append(_stages())
    for sets in corpora:
        for k, a in enumerate(sets):
            b = sets[(k + 1) % len(sets)]
            g = rng.randrange(-12, 13)
            s = rng.choice((-3, -2, -1, 2, 3))
            yield repr(a)
            yield repr(a & b)
            yield repr(a | b)
            yield f"{g} {a.translate(g)!r}"
            yield f"{s} {a.scale(s)!r}"
            yield repr(a.shift_spectrum())
            yield _json_line(a)
            yield repr(a.window(-80, 120))


def test_canonical_forms_pinned():
    assert _digest(canonical_lines()) == CANONICAL_DIGEST
