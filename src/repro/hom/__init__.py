"""Homomorphism search, counting, containment and evaluation matrices.

Counting architecture (DESIGN.md §6.5)
--------------------------------------
Hot-path counting runs on the **compiled engine** in
:mod:`repro.hom.engine`, over the interned integer form of
:mod:`repro.structures.interned`: a
:class:`~repro.hom.engine.TargetIndex` compiles each counting target
once (positional candidate sets, per-relation int-row sets, binary
projection maps for forward checking), a
:class:`~repro.hom.engine.SourcePlan` compiles each source once
(variable order, incident-fact lists, and a lazy tree-decomposition DP
schedule), and a :class:`~repro.hom.engine.HomEngine` memoizes counts
in an LRU cache keyed by the canonical byte key
(:func:`~repro.structures.canonical.canonical_key`) of each connected
component — so isomorphic components share one count through a single
dict probe (DESIGN.md §11).  Two counting
backends sit behind the engine (DESIGN.md §9): worst-case-exponential
backtracking with forward checking, and bag-table dynamic programming
over a nice tree decomposition (:mod:`repro.hom.decompose` /
:mod:`repro.hom.dpcount`) that is polynomial for bounded-treewidth
sources; :func:`~repro.hom.engine.choose_strategy` picks per
``(source, target)`` pair by estimated cost, and the engine is the only
caller that acts on its verdict.  ``count_homs`` counts under the
engine of :func:`~repro.session.resolve_session` (the caller's
``session=``, else the process default session); pass a ``HomEngine``
to scope the memoization, or a plain dict for the exact-key cache that
runs the naive counter as an independent audit path.
:func:`~repro.hom.search.count_homomorphisms_direct` stays the naive
recursive ground truth that both backends are property-tested against.
"""

from repro.hom.search import (
    count_homomorphisms_direct,
    exists_homomorphism,
    find_homomorphism,
    iter_homomorphisms,
)
from repro.hom.engine import (
    HomEngine,
    SourcePlan,
    TargetIndex,
    choose_strategy,
)
from repro.hom.decompose import (
    NiceDecomposition,
    TreeDecomposition,
    decompose,
    gaifman_graph,
    make_nice,
)
from repro.hom.dpcount import count_homomorphisms_dp
from repro.hom.count import count_homs, count_homs_connected, hom_vector
from repro.hom.containment import (
    are_equivalent_set,
    is_contained_set,
    is_contained_set_ucq,
    views_containing,
)
from repro.hom.matrix import answer_vector, evaluation_matrix
from repro.hom.lovasz import (
    distinguisher_battery,
    find_left_distinguisher,
    find_right_distinguisher,
    hom_count_profile,
)
from repro.hom.cores import core, core_query, is_core

__all__ = [
    "count_homomorphisms_direct",
    "exists_homomorphism",
    "find_homomorphism",
    "iter_homomorphisms",
    "HomEngine",
    "SourcePlan",
    "TargetIndex",
    "choose_strategy",
    "NiceDecomposition",
    "TreeDecomposition",
    "decompose",
    "gaifman_graph",
    "make_nice",
    "count_homomorphisms_dp",
    "count_homs",
    "count_homs_connected",
    "hom_vector",
    "are_equivalent_set",
    "is_contained_set",
    "is_contained_set_ucq",
    "views_containing",
    "answer_vector",
    "evaluation_matrix",
    "distinguisher_battery",
    "find_left_distinguisher",
    "find_right_distinguisher",
    "hom_count_profile",
    "core",
    "core_query",
    "is_core",
]
