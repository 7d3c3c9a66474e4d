"""Isomorphism testing for finite relational structures.

The basis ``W`` of Definition 27 is a set of *isomorphism classes* of
connected components, so deduplication needs a reliable isomorphism
test.  We use the classic two-stage approach:

1. **Color refinement** (1-dimensional Weisfeiler–Leman adapted to
   relational structures): iteratively refine a coloring of the domain
   by the multiset of (relation, position, colors-of-co-occurring
   constants) signatures.  The stable coloring is an isomorphism
   invariant and usually shatters the domain completely on the small
   structures this library manipulates (query components).
2. **Backtracking** over color-compatible bijections, verifying that
   facts map exactly onto facts.

:func:`invariant_key` is a cheap hashable invariant used to bucket
structures before the quadratic pairwise tests (DESIGN.md §6.4).

The stable coloring itself is computed once, on the interned integer
form, by :mod:`repro.structures.canonical` — the same refinement that
seeds the canonical labeling — and mapped back to constants here.  The
pairwise backtracking test below is deliberately *independent* of the
canonical-labeling search: it is the ground truth the canonical keys
are property-tested against (``tests/test_canonical.py``).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Hashable, List, Optional, Tuple

from repro.structures.canonical import wl_colors
from repro.structures.interned import interned
from repro.structures.structure import Structure

Constant = Hashable


def refine_colors(structure: Structure) -> Dict[Constant, int]:
    """Stable coloring of the domain under 1-WL-style refinement.

    Colors are small integers; equal colors mean "not yet
    distinguished".  Isolated elements all receive the same color.
    Color ids are isomorphism-invariant ranks (derived from sorted
    signatures on the interned form), so two isomorphic structures
    color corresponding constants identically.  Callers get a fresh
    dict each time; the underlying coloring is memoized per structure.
    """
    inter = interned(structure)
    colors = wl_colors(inter)
    return {inter.table.constant(i): color
            for i, color in enumerate(colors)}


@lru_cache(maxsize=8192)
def invariant_key(structure: Structure) -> Tuple:
    """A hashable isomorphism invariant (not complete, but cheap).

    Equal structures always get equal keys; different keys certify
    non-isomorphism.  Combines domain size, per-relation fact counts and
    the color histogram of the stable refinement.  Memoized per
    structure — the component basis and the dedup buckets probe the
    same components repeatedly.  (The engine memo and the persistent
    store moved on to the *complete* invariant,
    :func:`repro.structures.canonical.canonical_key`; this cheap key
    remains the bucketing front of the pairwise oracle.)
    """
    colors = refine_colors(structure)
    histogram = tuple(sorted(
        (color, count)
        for color, count in _histogram(colors).items()
    ))
    fact_counts = tuple(sorted(
        (name, structure.count_facts(name)) for name in structure.relations_used()
    ))
    return (len(structure.domain()), fact_counts, histogram)


def _histogram(colors: Dict[Constant, int]) -> Dict[int, int]:
    hist: Dict[int, int] = {}
    for color in colors.values():
        hist[color] = hist.get(color, 0) + 1
    return hist


def find_isomorphism(
    left: Structure, right: Structure
) -> Optional[Dict[Constant, Constant]]:
    """An isomorphism ``left -> right`` or ``None``.

    An isomorphism is a bijection on domains mapping the fact set of
    ``left`` exactly onto the fact set of ``right``.
    """
    if len(left.domain()) != len(right.domain()):
        return None
    if len(left.facts()) != len(right.facts()):
        return None
    for name in left.relations_used() | right.relations_used():
        if left.count_facts(name) != right.count_facts(name):
            return None

    left_colors = refine_colors(left)
    right_colors = refine_colors(right)
    if sorted(_histogram(left_colors).values()) != sorted(_histogram(right_colors).values()):
        return None
    # Color ids are canonical (derived from sorted signatures), so they
    # must match exactly, not just as histograms.
    if _histogram(left_colors) != _histogram(right_colors):
        return None

    left_domain = sorted(left.domain(), key=lambda c: (left_colors[c], repr(c)))
    right_by_color: Dict[int, List[Constant]] = {}
    for constant, color in right_colors.items():
        right_by_color.setdefault(color, []).append(constant)

    assignment: Dict[Constant, Constant] = {}
    used: set = set()

    left_facts_by_constant: Dict[Constant, List] = {c: [] for c in left.domain()}
    for fact in left.facts():
        for term in set(fact.terms):
            left_facts_by_constant[term].append(fact)

    def consistent(constant: Constant) -> bool:
        """Check all left-facts whose terms are fully assigned."""
        for fact in left_facts_by_constant[constant]:
            if all(t in assignment for t in fact.terms):
                image = tuple(assignment[t] for t in fact.terms)
                if image not in right.tuples(fact.relation):
                    return False
        return True

    def backtrack(index: int) -> bool:
        if index == len(left_domain):
            return _image_is_exact(left, right, assignment)
        constant = left_domain[index]
        for candidate in right_by_color.get(left_colors[constant], []):
            if candidate in used:
                continue
            assignment[constant] = candidate
            used.add(candidate)
            if consistent(constant) and backtrack(index + 1):
                return True
            used.discard(candidate)
            del assignment[constant]
        return False

    if not backtrack(0):
        return None
    return dict(assignment)


def neighbour_first(structure: Structure) -> Structure:
    """``structure`` renamed so that :func:`find_isomorphism`, which
    assigns ``left``'s constants in ``repr`` order within a color,
    places each constant after as many of its neighbours as it can.

    Every partial map the backtracking extends is then connected,
    which keeps its exhaustive search on large 1-WL-uniform inputs (a
    non-isomorphic CFI pair) to about a second instead of minutes.
    The result is isomorphic to ``structure``.
    """
    neighbours: Dict[Constant, set] = {c: set() for c in structure.domain()}
    for fact in structure.facts():
        for a in fact.terms:
            neighbours[a].update(b for b in fact.terms if b != a)
    placed_neighbours = dict.fromkeys(neighbours, 0)
    rest = sorted(neighbours, key=repr)
    order = []
    while rest:
        chosen = max(rest, key=placed_neighbours.__getitem__)
        rest.remove(chosen)
        order.append(chosen)
        for other in neighbours[chosen]:
            placed_neighbours[other] += 1
    return structure.rename(
        {constant: f"v{index:04d}" for index, constant in enumerate(order)})


def _image_is_exact(left: Structure, right: Structure,
                    assignment: Dict[Constant, Constant]) -> bool:
    """With equal fact counts, an injective homomorphism is onto the
    fact set iff the mapped facts are pairwise distinct — which they
    are, the map being injective.  Nullary facts still need a check in
    both directions."""
    for fact in left.facts():
        image = tuple(assignment[t] for t in fact.terms)
        if image not in right.tuples(fact.relation):
            return False
    return True


def are_isomorphic(left: Structure, right: Structure) -> bool:
    """Isomorphism test (paper treats isomorphic structures as equal)."""
    if invariant_key(left) != invariant_key(right):
        return False
    return find_isomorphism(left, right) is not None


def dedupe_up_to_isomorphism(structures) -> List[Structure]:
    """Keep one representative per isomorphism class, preserving first
    occurrence order.  Buckets by :func:`invariant_key` first so the
    pairwise tests only run within buckets."""
    buckets: Dict[Tuple, List[Structure]] = {}
    representatives: List[Structure] = []
    for structure in structures:
        key = invariant_key(structure)
        bucket = buckets.setdefault(key, [])
        if not any(find_isomorphism(structure, seen) is not None for seen in bucket):
            bucket.append(structure)
            representatives.append(structure)
    return representatives
