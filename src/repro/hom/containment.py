"""Set-semantics containment of boolean (U)CQs.

The classical Chandra–Merlin characterization (quoted in paper Section
2.1): for boolean CQs, ``q ⊆set q'`` — i.e. ``q(D) > 0 ⇒ q'(D) > 0``
for every ``D`` — holds iff ``hom(q', q)`` is non-empty, where boolean
CQs are identified with their frozen bodies.

The Theorem 3 decision procedure uses this to compute
``V = {v ∈ V0 | q ⊆set v}`` (Definition 25).

For boolean UCQs the standard lifting applies: ``Φ ⊆set Ψ`` iff every
disjunct of ``Φ`` is ⊆set some disjunct of ``Ψ``.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import QueryError
from repro.queries.cq import ConjunctiveQuery
from repro.queries.ucq import UnionOfBooleanCQs
from repro.session import SolverSession, resolve_session


def is_contained_set(
    query: ConjunctiveQuery,
    container: ConjunctiveQuery,
    session: Optional[SolverSession] = None,
) -> bool:
    """``query ⊆set container`` for boolean CQs (Chandra–Merlin).

    The existence probe runs on the compiled engine (shared target
    indexes + memoized verdicts); pass ``session`` to scope the memo.

    >>> from repro.queries.parser import parse_boolean_cq
    >>> q = parse_boolean_cq("R(x,y), R(y,z)")
    >>> v = parse_boolean_cq("R(x,y)")
    >>> is_contained_set(q, v)
    True
    >>> is_contained_set(v, q)
    False
    """
    _require_boolean(query)
    _require_boolean(container)
    session = resolve_session(session)
    return session.exists(container.frozen_body(), query.frozen_body())


def are_equivalent_set(left: ConjunctiveQuery, right: ConjunctiveQuery,
                       session: Optional[SolverSession] = None) -> bool:
    """Set-semantics equivalence (mutual containment)."""
    session = resolve_session(session)
    return (is_contained_set(left, right, session=session)
            and is_contained_set(right, left, session=session))


def is_contained_set_ucq(query: UnionOfBooleanCQs, container: UnionOfBooleanCQs) -> bool:
    """``Φ ⊆set Ψ`` for boolean UCQs."""
    return all(
        any(is_contained_set(phi, psi) for psi in container.disjuncts)
        for phi in query.disjuncts
    )


def views_containing(
    query: ConjunctiveQuery,
    views,
    session: Optional[SolverSession] = None,
) -> list:
    """Definition 25: the sublist of ``views`` that ``query`` is
    ⊆set-contained in (these are the views that can never answer 0 on a
    structure where ``q`` answers positively)."""
    session = resolve_session(session)
    return [view for view in views
            if is_contained_set(query, view, session=session)]


def _require_boolean(query: ConjunctiveQuery) -> None:
    if not isinstance(query, ConjunctiveQuery):
        raise QueryError(f"expected a CQ, got {query!r}")
    if not query.is_boolean():
        raise QueryError(
            f"containment here is for boolean CQs; got free variables {query.free}"
        )
