"""Lovász-style distinguishers (Lemmas 43 and 44).

Lemma 43 (Chaudhuri–Vardi / Fisk): ``G ≅ G'`` iff ``|hom(G, H)| =
|hom(G', H)|`` for *every* ``H``.  Lemma 44 (Lovász 1967) is the mirror
statement for left hom-counts.  Step 1 of the Lemma 40 construction
needs the effective content: *find* an ``H`` whose counts differ for a
given non-isomorphic pair.

This module exposes that search in both directions, with the same
candidate strategy as the good-basis builder (deterministic heuristics,
then seeded random structures), plus a convenience
``hom_count_profile`` used by tests to compare structures through a
battery of probes.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional, Sequence

from repro.errors import SearchExhaustedError
from repro.hom.count import count_homs
from repro.structures.canonical import canonical_key
from repro.structures.generators import random_structure
from repro.structures.operations import product, unit_structure
from repro.structures.schema import Schema
from repro.structures.structure import Structure


def hom_count_profile(
    structure: Structure, probes: Sequence[Structure]
) -> tuple:
    """The vector ``(|hom(structure, p)|)_p`` over the probe battery."""
    return tuple(count_homs(structure, probe) for probe in probes)


def find_right_distinguisher(
    left: Structure,
    right: Structure,
    rng: Optional[random.Random] = None,
    budget: int = 5000,
) -> Optional[Structure]:
    """An ``H`` with ``|hom(left, H)| ≠ |hom(right, H)|``, or ``None``
    when the inputs are isomorphic (Lemma 43: none exists then).

    Raises :class:`SearchExhaustedError` if non-isomorphic inputs defeat
    the budget (Lemma 43 guarantees the search is not in vain).
    """
    if canonical_key(left) == canonical_key(right):
        return None
    rng = rng or random.Random(0x10A5)
    for candidate in _candidates(left, right, rng, budget):
        if count_homs(left, candidate) != count_homs(right, candidate):
            return candidate
    raise SearchExhaustedError(
        f"no right distinguisher found within budget {budget}"
    )


def find_left_distinguisher(
    left: Structure,
    right: Structure,
    rng: Optional[random.Random] = None,
    budget: int = 5000,
) -> Optional[Structure]:
    """Lemma 44 direction: an ``H`` with ``|hom(H, left)| ≠
    |hom(H, right)|``, or ``None`` for isomorphic inputs."""
    if canonical_key(left) == canonical_key(right):
        return None
    rng = rng or random.Random(0x10A5)
    for candidate in _candidates(left, right, rng, budget):
        if count_homs(candidate, left) != count_homs(candidate, right):
            return candidate
    raise SearchExhaustedError(
        f"no left distinguisher found within budget {budget}"
    )


def _ambient(left: Structure, right: Structure) -> Schema:
    return left.schema.union(right.schema)


def _candidates(
    left: Structure,
    right: Structure,
    rng: random.Random,
    budget: int,
) -> Iterator[Structure]:
    ambient = _ambient(left, right)
    yield left.with_schema(ambient)
    yield right.with_schema(ambient)
    yield unit_structure(ambient)
    if not ambient.has_nullary():
        yield product(left, right).with_schema(ambient)
        yield product(left, left).with_schema(ambient)
        yield product(right, right).with_schema(ambient)
    max_size = max(len(left.domain()), len(right.domain()), 1) + 1
    produced = 0
    while produced < budget:
        size = rng.randint(1, max_size)
        density = rng.choice((0.15, 0.3, 0.5, 0.75))
        yield random_structure(ambient, size, density=density, rng=rng,
                               ensure_nonempty=True)
        produced += 1


def distinguisher_battery(
    structures: Sequence[Structure],
    rng: Optional[random.Random] = None,
    budget: int = 5000,
) -> List[Structure]:
    """Probes separating every non-isomorphic pair of ``structures`` by
    right hom-counts — a standalone version of the Step 1 search."""
    rng = rng or random.Random(0x10A5)
    probes: List[Structure] = []

    def separated(a: Structure, b: Structure) -> bool:
        return any(count_homs(a, p) != count_homs(b, p) for p in probes)

    for i, a in enumerate(structures):
        for b in structures[i + 1:]:
            if canonical_key(a) == canonical_key(b) or separated(a, b):
                continue
            found = find_right_distinguisher(a, b, rng=rng, budget=budget)
            if found is not None:
                probes.append(found)
    return probes
