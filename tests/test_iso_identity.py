"""Oracle test: component basis and UCQ classes keyed by canonical keys.

``ComponentBasis`` and the certify-ucq disjunct classes identify
isomorphism classes by :func:`~repro.structures.canonical.canonical_key`.
Here they are compared, on seeded random CQ and UCQ lists, with a
reference kept in this file that identifies classes the independent way:
bucket by :func:`~repro.structures.isomorphism.invariant_key`, then scan
the bucket with :func:`~repro.structures.isomorphism.find_isomorphism`.
Representatives, their order and every vector must be equal.  The lists
hold isomorphic renamings, repeated components, isolated
``extra_variables``, disconnected disjuncts and 1-WL-equivalent
non-isomorphic components (one ``invariant_key`` bucket, two classes).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

import pytest

from repro.core.basis import ComponentBasis
from repro.queries.cq import ConjunctiveQuery
from repro.queries.ucq import UnionOfBooleanCQs
from repro.structures.components import connected_components
from repro.structures.isomorphism import find_isomorphism, invariant_key
from repro.structures.structure import Structure
from repro.ucq.analysis import _disjunct_vectors

_RELATIONS = (("R", 2), ("S", 2), ("P", 1), ("T", 3))

# Two connected 3-regular graphs on 6 vertices: 1-WL cannot tell them
# apart (one invariant_key bucket), but they are not isomorphic.
_K33 = [(a, b) for a in range(3) for b in range(3, 6)]
_PRISM = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
          (0, 3), (1, 4), (2, 5)]


def _undirected(edges) -> List[Tuple[str, Tuple[int, ...]]]:
    return [("R", pair) for a, b in edges for pair in ((a, b), (b, a))]


def _graph_query(edges) -> ConjunctiveQuery:
    return ConjunctiveQuery(
        [(relation, tuple(f"x{v}" for v in variables))
         for relation, variables in _undirected(edges)])


# ----------------------------------------------------------------------
# The reference: invariant_key buckets plus pairwise find_isomorphism
# ----------------------------------------------------------------------
class _ReferenceClasses:
    def __init__(self) -> None:
        self.representatives: List[Structure] = []
        self._buckets: Dict[tuple, List[int]] = {}

    def find(self, structure: Structure) -> Optional[int]:
        for index in self._buckets.get(invariant_key(structure), ()):
            if find_isomorphism(structure, self.representatives[index]) \
                    is not None:
                return index
        return None

    def add(self, structure: Structure) -> int:
        index = self.find(structure)
        if index is None:
            index = len(self.representatives)
            self._buckets.setdefault(invariant_key(structure), []).append(index)
            self.representatives.append(structure)
        return index


def _reference_basis(queries: Sequence[ConjunctiveQuery]) -> _ReferenceClasses:
    classes = _ReferenceClasses()
    for query in queries:
        for component in connected_components(query.frozen_body()):
            classes.add(component)
    return classes


def _reference_vector(classes: _ReferenceClasses,
                      query: ConjunctiveQuery) -> Optional[Tuple[int, ...]]:
    counts = [0] * len(classes.representatives)
    for component in connected_components(query.frozen_body()):
        index = classes.find(component)
        if index is None:
            return None
        counts[index] += 1
    return tuple(counts)


def _reference_disjunct_vectors(
        queries: Sequence[UnionOfBooleanCQs]) -> List[Tuple[int, ...]]:
    classes = _ReferenceClasses()
    raw = [[classes.add(d.frozen_body()) for d in query.disjuncts]
           for query in queries]
    dimension = len(classes.representatives)
    return [tuple(indices.count(i) for i in range(dimension))
            for indices in raw]


# ----------------------------------------------------------------------
# Seeded random queries
# ----------------------------------------------------------------------
def _random_shape(rng: random.Random, nullary: bool):
    """Atoms over variables ``0..n-1``; possibly disconnected."""
    if rng.random() < 0.15:
        return 6, _undirected(rng.choice((_K33, _PRISM)))
    n = rng.randint(1, 4)
    atoms = []
    for _ in range(rng.randint(1, 4)):
        relation, arity = rng.choice(_RELATIONS)
        atoms.append((relation, tuple(rng.randrange(n) for _ in range(arity))))
    if nullary and rng.random() < 0.2:
        atoms.append(("H", ()))
    return n, atoms


def _random_query(rng: random.Random, pool, nullary: bool = False
                  ) -> ConjunctiveQuery:
    """Shapes drawn from ``pool`` (so repeats and isomorphic copies
    occur), each under fresh shuffled variable names, atoms shuffled,
    plus up to two isolated extra variables."""
    atoms = []
    names = [f"x{i}" for i in range(40)]
    rng.shuffle(names)
    for _ in range(rng.randint(1, 3)):
        n, shape = rng.choice(pool)
        renaming = [names.pop() for _ in range(n)]
        atoms.extend((relation, tuple(renaming[v] for v in variables))
                     for relation, variables in shape)
    if nullary and rng.random() < 0.3:
        atoms.append(("H", ()))
    rng.shuffle(atoms)
    extra = [names.pop() for _ in range(rng.choice((0, 0, 1, 2)))]
    return ConjunctiveQuery(atoms, extra_variables=extra)


def _pool(rng: random.Random, nullary: bool):
    return [_random_shape(rng, nullary) for _ in range(rng.randint(2, 5))]


@pytest.mark.parametrize("seed", range(60))
def test_basis_matches_the_pairwise_reference(seed):
    rng = random.Random(seed)
    pool = _pool(rng, nullary=False)
    queries = [_random_query(rng, pool) for _ in range(rng.randint(1, 5))]
    basis = ComponentBasis.from_queries(queries)
    reference = _reference_basis(queries)
    assert basis.components == tuple(reference.representatives)
    # Vectors of the generating queries, of fresh queries over the same
    # pool (some of whose components may lie outside the basis), and
    # of queries over shapes the basis has never seen.
    probes = queries + [_random_query(rng, pool) for _ in range(5)] \
        + [_random_query(rng, _pool(rng, nullary=False)) for _ in range(3)]
    for query in probes:
        assert basis.vector_or_none(query) == \
            _reference_vector(reference, query)
    for component in reference.representatives:
        assert basis.index_of(component) == reference.find(component)


@pytest.mark.parametrize("seed", range(60))
def test_disjunct_classes_match_the_pairwise_reference(seed):
    rng = random.Random(1000 + seed)
    pool = _pool(rng, nullary=True)
    queries = [
        UnionOfBooleanCQs([_random_query(rng, pool, nullary=True)
                           for _ in range(rng.randint(1, 4))])
        for _ in range(rng.randint(1, 5))
    ]
    assert _disjunct_vectors(queries) == _reference_disjunct_vectors(queries)


def test_one_bucket_two_classes():
    """K3,3 and the prism share an invariant_key bucket but are two
    classes, as connected components and as disjunct bodies; so are a
    6-cycle and two disjoint triangles as disjunct bodies."""
    k33 = _graph_query(_K33)
    prism = _graph_query(_PRISM)
    assert invariant_key(k33.frozen_body()) == \
        invariant_key(prism.frozen_body())
    basis = ComponentBasis.from_queries([k33, prism, k33])
    assert basis.dimension == 2
    assert [basis.vector(q) for q in (k33, prism)] == [(1, 0), (0, 1)]

    def cycle(*loops):
        return _graph_query([(loop[i], loop[(i + 1) % len(loop)])
                             for loop in loops for i in range(len(loop))])

    six_cycle = cycle((0, 1, 2, 3, 4, 5))
    triangles = cycle((0, 1, 2), (3, 4, 5))
    assert invariant_key(six_cycle.frozen_body()) == \
        invariant_key(triangles.frozen_body())
    queries = [UnionOfBooleanCQs([six_cycle, triangles]),
               UnionOfBooleanCQs([triangles]),
               UnionOfBooleanCQs([k33, prism, six_cycle])]
    assert _disjunct_vectors(queries) == \
        _reference_disjunct_vectors(queries) == \
        [(1, 1, 0, 0), (0, 1, 0, 0), (1, 0, 1, 1)]
