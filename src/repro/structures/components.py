"""Connected components of structures.

Two facts are connected when they share a constant; a component is a
maximal set of facts closed under that relation, together with the
constants it touches.  Isolated domain elements (constants in no fact)
each form a singleton component, and 0-ary facts each form their own
(domain-free) component — both conventions make Lemma 4(5)
``|hom(A+B, C)| = |hom(A,C)|·|hom(B,C)|`` hold verbatim for the
decompositions we produce.

The component decomposition is the backbone of the paper's Section 4:
the basis ``W`` of Definition 27 is the set of isomorphism classes of
connected components of the involved queries.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Hashable, List, Tuple

from repro.structures.structure import Fact, Structure


class _UnionFind:
    """Plain union-find with path compression (used for fact grouping)."""

    def __init__(self):
        self._parent: Dict[Hashable, Hashable] = {}

    def find(self, item: Hashable) -> Hashable:
        parent = self._parent.setdefault(item, item)
        if parent == item:
            return item
        root = self.find(parent)
        self._parent[item] = root
        return root

    def union(self, a: Hashable, b: Hashable) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[ra] = rb


def connected_components(structure: Structure) -> List[Structure]:
    """Split a structure into its connected components.

    Returns a list of structures (order deterministic: sorted by a
    printable key) whose disjoint union is isomorphic to the input.
    The decomposition is memoized per structure (structures are
    immutable); callers get a fresh list each time.

    >>> s = Structure([('R', ('a', 'b')), ('R', ('c', 'd'))])
    >>> len(connected_components(s))
    2
    """
    return list(_components_cached(structure))


@lru_cache(maxsize=1024)
def _components_cached(structure: Structure) -> Tuple[Structure, ...]:
    uf = _UnionFind()
    for constant in structure.domain():
        uf.find(("c", constant))
    for fact in structure.facts():
        if not fact.terms:
            continue
        anchor = ("c", fact.terms[0])
        for term in fact.terms[1:]:
            uf.union(anchor, ("c", term))

    groups: Dict[Hashable, List] = {}
    for constant in structure.domain():
        root = uf.find(("c", constant))
        groups.setdefault(root, []).append(constant)

    facts_by_root: Dict[Hashable, List[Fact]] = {root: [] for root in groups}
    nullary_facts: List[Fact] = []
    for fact in structure.facts():
        if not fact.terms:
            nullary_facts.append(fact)
            continue
        root = uf.find(("c", fact.terms[0]))
        facts_by_root[root].append(fact)
    if len(groups) + len(nullary_facts) == 1:
        # Already one component: an equal copy would only be a second
        # object for the structure caches to pin.
        return (structure,)

    components: List[Structure] = []
    for root, constants in groups.items():
        components.append(
            Structure(facts_by_root[root], schema=structure.schema, domain=constants)
        )
    for fact in nullary_facts:
        components.append(Structure([fact], schema=structure.schema))

    components.sort(key=_component_sort_key)
    return tuple(components)


def is_connected(structure: Structure) -> bool:
    """True when the structure has exactly one component.

    The empty structure is *not* connected (it has zero components); a
    single isolated vertex is.
    """
    return len(connected_components(structure)) == 1


def component_count(structure: Structure) -> int:
    return len(connected_components(structure))


def _component_sort_key(component: Structure):
    facts = sorted(str(f) for f in component.facts())
    return (len(component.domain()), len(facts), facts,
            sorted(map(str, component.domain())))
