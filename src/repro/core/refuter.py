"""Randomized / exhaustive counterexample search ("the refuter").

Determinacy quantifies over *all* pairs of finite structures, so a
failed determinacy can in principle be demonstrated by search.  The
refuter is the library's independent cross-check of the symbolic
deciders (DESIGN.md §2 substitution for the abstract quantifier; the
E12 experiment measures agreement):

* :func:`search_lattice_counterexample` — the effective strategy for
  boolean queries.  Fix connected building blocks ``B_1..B_m`` (by
  default: the component basis of the instance, which Lemma 41 shows is
  enough *when combined with a good basis*; callers may add random
  blocks).  For every pair of small multiplicity vectors ``a, a'``,
  compare all view answers on ``D_a = Σ a_i B_i`` vs ``D_{a'}`` —
  answers are computed from a precomputed count matrix via Lemma 4, so
  the inner loop is pure integer arithmetic.
* :func:`search_exhaustive_counterexample` — enumerate *all* structure
  pairs up to a domain-size bound (tiny schemas only); sound and
  complete within the bound, used to validate the others.

A returned :class:`Refutation` is always re-verified by direct
evaluation before being handed to the caller.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.hom.count import count_homs
from repro.queries.cq import ConjunctiveQuery
from repro.session import SolverSession, resolve_session
from repro.queries.evaluation import evaluate_boolean
from repro.structures.components import connected_components
from repro.structures.expression import SumExpression, as_expression
from repro.structures.generators import enumerate_structures, random_connected_structure
from repro.structures.schema import Schema
from repro.structures.structure import Structure


@dataclass
class Refutation:
    """A concrete pair witnessing non-determinacy, with its answers."""

    left: Structure
    right: Structure
    view_answers: Tuple[Tuple[int, int], ...]
    query_answers: Tuple[int, int]

    @property
    def ok(self) -> bool:
        views_agree = all(a == b for a, b in self.view_answers)
        return views_agree and self.query_answers[0] != self.query_answers[1]


def _verify(
    views: Sequence[ConjunctiveQuery],
    query: ConjunctiveQuery,
    left: Structure,
    right: Structure,
) -> Optional[Refutation]:
    view_answers = tuple(
        (evaluate_boolean(v, left), evaluate_boolean(v, right)) for v in views
    )
    query_answers = (evaluate_boolean(query, left), evaluate_boolean(query, right))
    refutation = Refutation(left, right, view_answers, query_answers)
    return refutation if refutation.ok else None


def search_lattice_counterexample(
    views: Sequence[ConjunctiveQuery],
    query: ConjunctiveQuery,
    blocks: Optional[Sequence[Structure]] = None,
    max_multiplicity: int = 3,
    extra_random_blocks: int = 0,
    rng: Optional[random.Random] = None,
    max_pairs: int = 200_000,
    session: Optional[SolverSession] = None,
) -> Optional[Refutation]:
    """Search ``spanN(blocks)`` for a counterexample pair.

    Answers on ``Σ a_i B_i`` are evaluated per query component ``c`` as
    ``Σ_i a_i·|hom(c, B_i)|`` and multiplied — no structure is built
    until a hit is found.  Block counts run under ``session``, resolved
    lazily *per call* (never captured at import time), so a store or
    strategy configured after this module was imported is honoured.
    """
    rng = rng or random.Random(0xBEEF)
    if blocks is None:
        blocks = default_blocks(views, query)
    blocks = list(blocks)
    if extra_random_blocks:
        schema = _joint_schema(views, query)
        if any(s.arity >= 2 for s in schema):
            for _ in range(extra_random_blocks):
                blocks.append(
                    random_connected_structure(schema, rng.randint(1, 3), rng=rng)
                )

    engine = resolve_session(session).engine
    # Precompute per-component block counts for every query involved.
    all_queries = list(views) + [query]
    component_lists = [connected_components(q.frozen_body()) for q in all_queries]
    block_counts: List[List[List[int]]] = [
        [[count_homs(c, b, engine) for b in blocks] for c in comps]
        for comps in component_lists
    ]

    def answers(multiplicities: Tuple[int, ...]) -> Tuple[int, ...]:
        result = []
        for counts in block_counts:
            value = 1
            for per_block in counts:
                value *= sum(a * n for a, n in zip(multiplicities, per_block))
                if value == 0:
                    break
            result.append(value)
        return tuple(result)

    vectors = list(
        itertools.product(range(max_multiplicity + 1), repeat=len(blocks))
    )
    profiles: Dict[Tuple[int, ...], Tuple[Tuple[int, ...], Tuple[int, ...]]] = {}
    pairs_checked = 0
    for multiplicities in vectors:
        values = answers(multiplicities)
        view_values, query_value = values[:-1], values[-1]
        seen = profiles.get(view_values)
        if seen is not None and seen[1][0] != query_value:
            left = _build(seen[0], blocks)
            right = _build(multiplicities, blocks)
            verified = _verify(views, query, left, right)
            if verified is not None:
                return verified
        if seen is None:
            profiles[view_values] = (multiplicities, (query_value,))
        pairs_checked += 1
        if pairs_checked > max_pairs:
            break
    return None


def search_exhaustive_counterexample(
    views: Sequence[ConjunctiveQuery],
    query: ConjunctiveQuery,
    max_size: int = 2,
    max_pairs: int = 500_000,
) -> Optional[Refutation]:
    """Enumerate all structure pairs with domains up to ``max_size``.

    Exponential; only for tiny schemas, where it is a complete check
    below the bound.
    """
    schema = _joint_schema(views, query)
    structures: List[Structure] = []
    for structure in enumerate_structures(schema, max_size):
        structures.append(structure)
        if len(structures) ** 2 > max_pairs:
            break
    profiles: Dict[Tuple[int, ...], List[int]] = {}
    query_values: List[int] = []
    for index, structure in enumerate(structures):
        view_values = tuple(evaluate_boolean(v, structure) for v in views)
        query_values.append(evaluate_boolean(query, structure))
        bucket = profiles.setdefault(view_values, [])
        for other in bucket:
            if query_values[other] != query_values[index]:
                verified = _verify(views, query, structures[other], structure)
                if verified is not None:
                    return verified
        bucket.append(index)
    return None


def default_blocks(
    views: Sequence[ConjunctiveQuery], query: ConjunctiveQuery
) -> List[Structure]:
    """Connected components of all queries, one per isomorphism class
    in first-occurrence order — the natural building blocks suggested
    by the Section 5 analysis."""
    from repro.structures.canonical import canonical_key

    classes: Dict[bytes, Structure] = {}
    for q in list(views) + [query]:
        for component in connected_components(q.frozen_body()):
            classes.setdefault(canonical_key(component), component)
    return list(classes.values())


def _build(multiplicities: Tuple[int, ...], blocks: Sequence[Structure]) -> Structure:
    expression = SumExpression([
        (a, as_expression(b)) for a, b in zip(multiplicities, blocks)
    ])
    return expression.materialize(max_domain=100_000)


def _joint_schema(
    views: Sequence[ConjunctiveQuery], query: ConjunctiveQuery
) -> Schema:
    schema = query.schema()
    for view in views:
        schema = schema.union(view.schema())
    return schema
