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
from typing import Dict, List, Tuple

from repro.structures.structure import Fact, Structure


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
    # Union-find over positions in one listing of the domain, with path
    # halving: each probe indexes a list instead of hashing a constant.
    constants = list(structure.domain())
    position = {constant: i for i, constant in enumerate(constants)}
    parent = list(range(len(constants)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    facts = structure.facts()
    for fact in facts:
        terms = fact.terms
        if len(terms) > 1:
            root = find(position[terms[0]])
            for term in terms[1:]:
                other = find(position[term])
                if other != root:
                    parent[other] = root

    groups: Dict[int, List] = {}
    for i, constant in enumerate(constants):
        groups.setdefault(find(i), []).append(constant)

    facts_by_root: Dict[int, List[Fact]] = {root: [] for root in groups}
    nullary_facts: List[Fact] = []
    for fact in facts:
        if not fact.terms:
            nullary_facts.append(fact)
            continue
        facts_by_root[find(position[fact.terms[0]])].append(fact)
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
