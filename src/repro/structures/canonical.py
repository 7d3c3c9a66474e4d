"""Canonical labeling of structures — stable byte keys per iso class.

The engine memo, the persistent store, the component basis and
the UCQ disjunct classes all need to answer "which isomorphism class is
this component in?".  The pre-interning answer (now only the test
oracle) bucketed structures by
:func:`~repro.structures.isomorphism.invariant_key` and ran *pairwise*
``find_isomorphism`` inside each bucket — per-probe cost grows with
bucket population, and a bucket's chosen representative differs between
processes, so cross-process sharing needed an iso-scan on every store
lookup.  This module computes a **canonical form** instead:

:func:`canonical_key` returns a byte string such that two structures
get the same key *iff* they are isomorphic.  The key is a pure
function of the isomorphism class — stable across constant renames,
component orderings, processes and service restarts — so it can serve
directly as a memo key, an SQLite primary key, or a shard key.

Algorithm (classic individualization–refinement over the interned
form of :mod:`repro.structures.interned`):

1. **1-WL refinement** — iteratively refine a coloring of the active
   vertices by the sorted multiset of ``(relation, position,
   colors-of-row)`` incidence signatures; color ids are ranks of the
   sorted signatures, hence themselves isomorphism-invariant.
2. **Ordered-partition backtracking** — while some color class holds
   more than one vertex, individualize each member of the first such
   class in turn, re-refine, and recurse; every discrete leaf coloring
   is a candidate labeling, and the lexicographically smallest relabeled
   fact table is the canonical certificate.
3. **Automorphism pruning** (McKay & Piperno, "Practical graph
   isomorphism, II", 2014; the orbit pruning of nauty and bliss) — each
   leaf is filed under its certificate; two leaves with one certificate
   give an automorphism ``leaf₁⁻¹∘leaf₂``.  A target-cell vertex in the
   orbit of an explored sibling, under the found automorphisms that fix
   the node's individualized vertices pointwise, is skipped, and a
   branch is left as soon as a new automorphism maps it onto an
   explored sibling.

Pruning never changes a key.  Refinement and the choice of target cell
commute with automorphisms, so a pruned branch is an automorphic image
of an explored one and yields the same certificates; the minimum is
the one the full search finds (pinned on a corpus by
``tests/test_canonical_golden.py``).  A ``k``-clique costs about
``k²/2`` refinements rather than the ``k!`` leaves of its full tree.

Isolated elements are interchangeable, so they never enter the search;
the certificate records their count (the ``|dom|`` factor of frozen
bodies survives canonicalization).  Property-tested against
``find_isomorphism`` as ground truth.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from repro.faults.budget import active_budget
from repro.structures.interned import InternedStructure
from repro.structures.structure import Structure

# incidences[v] = ((relation, position, row), ...) for every occurrence
# of vertex v in a fact row.
_Incidences = Tuple[Tuple[Tuple[str, int, Tuple[int, ...]], ...], ...]


def _incidences(inter: InternedStructure, n: int) -> _Incidences:
    collected: List[List[Tuple[str, int, Tuple[int, ...]]]] = [
        [] for _ in range(n)
    ]
    for relation, row in inter.iter_facts():
        for position, term in enumerate(row):
            collected[term].append((relation, position, row))
    return tuple(tuple(entries) for entries in collected)


def _refine(n: int, incidences: _Incidences,
            colors: List[int]) -> List[int]:
    """1-WL refinement to a stable coloring; ids are signature ranks."""
    for _ in range(max(1, n)):
        signatures = []
        for vertex in range(n):
            local = sorted(
                (relation, position, tuple(colors[t] for t in row))
                for relation, position, row in incidences[vertex]
            )
            signatures.append((colors[vertex], tuple(local)))
        palette = {signature: rank for rank, signature
                   in enumerate(sorted(set(signatures)))}
        refined = [palette[signature] for signature in signatures]
        if refined == colors:
            break
        colors = refined
    return colors


def wl_colors(inter: InternedStructure) -> Tuple[int, ...]:
    """Stable 1-WL coloring over the *full* interned domain.

    Isolated elements participate (with empty signatures), matching
    the historical :func:`~repro.structures.isomorphism.refine_colors`
    contract; color ids are isomorphism-invariant ranks.  Cached on
    the interned object (iso tests and invariant keys re-probe it).
    """
    cached = inter.wl_cache
    if cached is not None:
        return cached
    n = inter.n
    colors: Tuple[int, ...] = () if n == 0 else tuple(
        _refine(n, _incidences(inter, n), [0] * n))
    inter.wl_cache = colors
    return colors


def _certificate(inter: InternedStructure,
                 position_of: List[int]) -> Tuple:
    """The relabeled fact table under a discrete labeling."""
    body = []
    for relation in sorted(inter.relations):
        rows = inter.relations[relation]
        mapped = tuple(sorted(
            tuple(position_of[t] for t in row) for row in rows))
        body.append((relation, inter.arities[relation], mapped))
    return (inter.n, inter.n - inter.n_active, tuple(body))


def _canonical_certificate(inter: InternedStructure) -> Tuple:
    n = inter.n_active
    if n == 0:
        return _certificate(inter, [])
    # A deadline must reach in here too, not just the counting kernels.
    # The search checks it once up front (a pruned search may end well
    # before its first stride) and then every 64 nodes.  A trip aborts
    # the memo fill, so nothing partial is memoized.
    budget = active_budget()
    if budget is not None:
        budget.charge(0)
    nodes = 0
    incidences = _incidences(inter, n)
    # The first leaf labeling seen with each certificate; a later leaf
    # with an equal certificate yields an automorphism.  The least
    # certificate filed is the canonical one.
    leaves: Dict[Tuple, List[int]] = {}
    automorphisms: List[List[int]] = []
    # The vertices individualized on the way to the current node and,
    # per depth on that path, the orbits of the found automorphisms
    # that fix path[:depth] pointwise (a union-find parent array) and
    # the target-cell vertices already explored there.
    path: List[int] = []
    orbits: List[List[int]] = []
    explored: List[List[int]] = []

    def find(parent: List[int], vertex: int) -> int:
        while parent[vertex] != vertex:
            parent[vertex] = parent[parent[vertex]]
            vertex = parent[vertex]
        return vertex

    def join(parent: List[int], automorphism: List[int]) -> None:
        for vertex, image in enumerate(automorphism):
            a, b = find(parent, vertex), find(parent, image)
            if a != b:
                parent[max(a, b)] = min(a, b)

    def covered(depth: int, vertex: int) -> bool:
        """Is ``vertex`` in the orbit of a sibling explored at ``depth``?"""
        parent = orbits[depth]
        root = find(parent, vertex)
        return any(find(parent, other) == root for other in explored[depth])

    def leaf(colors: List[int]) -> Optional[int]:
        """File a discrete leaf.  When it yields a new automorphism,
        return the shallowest depth whose current branch that makes
        equivalent to an explored sibling (the search unwinds to it)."""
        certificate = _certificate(inter, colors)
        first = leaves.get(certificate)
        if first is None:
            leaves[certificate] = colors
            return None
        vertex_at = [0] * n
        for vertex, position in enumerate(first):
            vertex_at[position] = vertex
        automorphism = [vertex_at[position] for position in colors]
        automorphisms.append(automorphism)
        for depth, vertex in enumerate(path):
            if depth and automorphism[path[depth - 1]] != path[depth - 1]:
                break
            join(orbits[depth], automorphism)
            if covered(depth, vertex):
                return depth
        return None

    def search(colors: List[int]) -> Optional[int]:
        """Explore one node; return the depth to unwind to, if any."""
        nonlocal nodes
        nodes += 1
        if not nodes & 63 and budget is not None:
            budget.charge(64)
        cells: Dict[int, List[int]] = {}
        for vertex, color in enumerate(colors):
            cells.setdefault(color, []).append(vertex)
        target = None
        for color in sorted(cells):
            if len(cells[color]) > 1:
                target = cells[color]
                break
        if target is None:
            return leaf(colors)
        depth = len(path)
        parent = list(range(n))
        for automorphism in automorphisms:
            if all(automorphism[v] == v for v in path):
                join(parent, automorphism)
        orbits.append(parent)
        explored.append([])
        try:
            for vertex in target:
                if covered(depth, vertex):
                    continue
                individualized = list(colors)
                individualized[vertex] = n  # outranks every existing color
                path.append(vertex)
                unwind = search(_refine(n, incidences, individualized))
                path.pop()
                explored[depth].append(vertex)
                if unwind is not None and unwind < depth:
                    return unwind
            return None
        finally:
            orbits.pop()
            explored.pop()

    search(_refine(n, incidences, [0] * n))
    return min(leaves)


# 1024 entries hold the 1,022 path shapes the store benchmark cycles
# through; on a stream of one-off structures (freshly renamed sources)
# they bound what the memo pins.
@lru_cache(maxsize=1024)
def canonical_key(structure: Structure) -> bytes:
    """The canonical byte key of ``structure``'s isomorphism class.

    Equal keys ⟺ isomorphic structures (schema is not part of the
    key, mirroring structure equality and ``find_isomorphism``, which
    compare facts and domains only).  The encoding is ``repr`` of the
    canonical certificate — deterministic across processes, hash seeds
    and Python minor versions, and directly usable as an SQLite key.

    Disconnected structures are canonicalized **per connected
    component** and combined as the sorted multiset of component
    certificates (two structures are isomorphic iff their component
    iso-class multisets agree).  Besides matching how the engine memo
    consumes keys, this keeps the labeling search from multiplying its
    branches across components — a union of color-uniform cycles costs
    the *sum* of its components' searches, not the product.  Frozen
    bodies share most of their components, so component certificates
    are memoized too.
    """
    from repro.structures.components import connected_components

    # The key is memoized, so the interned forms built for it stay out
    # of the interned() memo: a one-off structure would pin them there.
    components = connected_components(structure)
    if len(components) <= 1:
        certificate = _canonical_certificate(InternedStructure(structure))
    else:
        parts = sorted(map(_component_certificate, components))
        # Components partition the domain, so the whole structure's
        # size and isolated count are the sums of theirs.
        certificate = (
            sum(part[0] for part in parts), sum(part[1] for part in parts),
            ("components", tuple(parts)),
        )
    return repr(certificate).encode("utf-8")


# Sized like canonical_key's memo and the component split (E22); a
# connected structure's key never goes through here, so a stream of
# renamed one-off sources pins nothing in it.
@lru_cache(maxsize=1024)
def _component_certificate(component: Structure) -> Tuple:
    return _canonical_certificate(InternedStructure(component))


def canonical_stats() -> Dict[str, int]:
    """Cache counters of the canonical-key layer (for ``stats()``).

    ``keys`` is the number of canonical labelings computed (cache
    misses); ``hits`` the number served from the memo.
    """
    info = canonical_key.cache_info()
    return {
        "keys": info.misses,
        "hits": info.hits,
        "cached": info.currsize,
    }
