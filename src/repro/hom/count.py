"""Homomorphism counting — the engine behind every answer count.

``count_homs(A, B)`` counts homomorphisms from a structure ``A`` into a
target that may be a concrete :class:`~repro.structures.structure.Structure`
or a lazy :class:`~repro.structures.expression.StructureExpression`.

Strategy (all identities are Lemma 4 of the paper):

1. factor ``A`` into connected components and multiply
   (``|hom(A+B, C)| = |hom(A,C)|·|hom(B,C)|``);
2. evaluate each *connected* component against the target tree:

   * ``Sum``:     add over terms, scaled by coefficients (4(1)+4(2);
     needs connectedness — guaranteed by step 1; sums are nullary-free
     by construction);
   * ``Product``: multiply over factors (4(3) — any source);
   * ``Power``:   exponentiate (4(4));
   * ``Leaf``:    backtracking count, with two fast paths — a single
     isolated vertex counts ``|dom|``, a single 0-ary fact counts
     membership.

Counts of (component, leaf) pairs are memoized through the compiled
engine of :mod:`repro.hom.engine`: pass no cache to count under the
default :class:`~repro.session.SolverSession`'s engine (targets
compiled once, counts shared across isomorphic components, each leaf
count routed to backtracking or tree-decomposition DP by the engine's
cost model — see DESIGN.md §9), pass ``session=`` (or a
:class:`~repro.hom.engine.HomEngine` as the cache) to scope the
memoization, or pass a plain ``dict`` for the exact-key cache —
dict-cached counting deliberately runs the *naive* recursive
backtracker, so it stays an independent audit path for engine-produced
results (the witness verifier relies on this).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

from repro.errors import StructureError
from repro.structures.components import connected_components
from repro.structures.expression import (
    LeafExpression,
    PowerExpression,
    ProductExpression,
    StructureExpression,
    SumExpression,
    as_expression,
)
from repro.structures.structure import Structure
from repro.hom.engine import HomEngine
from repro.hom.search import count_homomorphisms_direct
from repro.session import SolverSession, resolve_session

Target = Structure | StructureExpression
CountCache = Dict[Tuple[Structure, Structure], int]
Cache = Union[CountCache, HomEngine, None]


def count_homs(
    source: Structure,
    target: Target,
    cache: Cache = None,
    session: Optional[SolverSession] = None,
) -> int:
    """``|hom(source, target)|`` with component factorization.

    >>> from repro.structures.generators import path_structure
    >>> count_homs(path_structure(['R']), path_structure(['R', 'R']))
    2
    """
    if session is not None:
        cache = session.engine
    expression = as_expression(target)
    total = 1
    for component in connected_components(source):
        total *= _count_connected(component, expression, cache)
        if total == 0:
            return 0
    return total


def count_homs_connected(
    component: Structure,
    target: Target,
    cache: Cache = None,
    session: Optional[SolverSession] = None,
) -> int:
    """Count for a source already known to be connected (no re-split)."""
    if session is not None:
        cache = session.engine
    return _count_connected(component, as_expression(target), cache)


def _count_connected(
    component: Structure,
    target: StructureExpression,
    cache: Cache,
) -> int:
    if isinstance(target, LeafExpression):
        return _count_into_leaf(component, target.structure, cache)
    if isinstance(target, SumExpression):
        # Lemma 4(1)/(2): valid because `component` is connected and the
        # sum's operands carry no 0-ary facts (enforced at construction).
        _require_summable(component)
        return sum(
            coefficient * _count_connected(component, term, cache)
            for coefficient, term in target.terms
        )
    if isinstance(target, ProductExpression):
        result = 1
        for factor in target.factors:
            result *= _count_connected(component, factor, cache)
            if result == 0:
                return 0
        if not target.factors:
            return _count_into_unit(component, target)
        return result
    if isinstance(target, PowerExpression):
        if target.exponent == 0:
            return _count_into_unit(component, target)
        return _count_connected(component, target.base, cache) ** target.exponent
    raise StructureError(f"unknown expression node {target!r}")


def _count_into_leaf(
    component: Structure,
    leaf: Structure,
    cache: Cache,
) -> int:
    if isinstance(cache, HomEngine):
        return cache.count_connected_leaf(component, leaf)
    facts = component.facts()
    if not facts:
        # Fast path: a single isolated vertex maps anywhere in the domain.
        if len(component.domain()) == 1:
            return len(leaf.domain())
    elif len(facts) == 1 and not component.domain():
        # Fast path: a lone 0-ary fact is a membership test — decided
        # before any candidate machinery is built.
        only = next(iter(facts))
        if not only.terms:
            return 1 if leaf.has_fact(only.relation) else 0
    if cache is None:
        return resolve_session().engine.count_connected_leaf(component, leaf)
    # Dict cache: exact (component, leaf) keys, caller-owned,
    # counted by the naive recursive backtracker.  This path is kept
    # *independent of the engine* on purpose — the witness verifier
    # uses it to audit engine-produced decisions with different code.
    key = (component, leaf)
    cached = cache.get(key)
    if cached is None:
        cached = count_homomorphisms_direct(component, leaf)
        cache[key] = cached
    return cached


def _count_into_unit(component: Structure, node: StructureExpression) -> int:
    """Counts into ``A^0``: the all-loops singleton over ``node``'s schema.

    Every constant must map to α, so the count is 1 exactly when each
    fact of the component exists as the full loop — i.e. when the
    component's relations are all in the unit's schema — else 0.
    """
    schema = node.schema()
    for fact in component.facts():
        if fact.relation not in schema or schema.arity(fact.relation) != len(fact.terms):
            return 0
    return 1


def _require_summable(component: Structure) -> None:
    for fact in component.facts():
        if not fact.terms:
            raise StructureError(
                "cannot count a 0-ary fact into a disjoint union; "
                "Lemma 4(1) fails for nullary sources"
            )


def hom_vector(sources, target: Target, cache: Cache = None,
               session: Optional[SolverSession] = None):
    """Counts for many sources against one target, as a list of ints."""
    return [count_homs(source, target, cache, session) for source in sources]
