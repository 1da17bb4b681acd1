"""thinlab: exact classification of subsets of Z and of small finite groups
in the thin-set hierarchy.

A set A is thin relative to a family F when every intersection of A with a
nontrivial translate of itself lands in F.  Iterating the thinning operator
builds a hierarchy; this package computes exact hierarchy levels, certifies
non-membership in the completion with replayable cycle witnesses, and checks
the quantitative union bounds at desk scale.
"""

from .groups import GroupDescriptor
from .ideals import FiniteSets, SizeAtMost
from .symbolic import SymbolicSet, GeoTerm, APTerm, geo, ap, finite_set, empty_set
from .engine import (
    Budget,
    CycleWitness,
    ExactLevel,
    NotInThinCompletion,
    Unknown,
    Engine,
    SymbolicUniverse,
    FiniteGroupUniverse,
    NOT_WELL_FOUNDED,
)

__all__ = [
    "GroupDescriptor",
    "FiniteSets",
    "SizeAtMost",
    "SymbolicSet",
    "GeoTerm",
    "APTerm",
    "geo",
    "ap",
    "finite_set",
    "empty_set",
    "Budget",
    "CycleWitness",
    "ExactLevel",
    "NotInThinCompletion",
    "Unknown",
    "Engine",
    "SymbolicUniverse",
    "FiniteGroupUniverse",
    "NOT_WELL_FOUNDED",
]
