"""The Theorem 3 decision procedure for boolean CQ bag-determinacy.

Pipeline (Sections 4–7 of the paper):

1. ``V = {v ∈ V0 | q ⊆set v}``   — Definition 25, via Chandra–Merlin
   homomorphism checks (views outside ``V`` may answer 0 freely and
   carry no information the span test can use);
2. ``W`` — the component basis of ``V ∪ {q}`` (Definition 27);
3. vector representations ``v⃗, q⃗`` (Definition 29);
4. the Main Lemma 31 test: ``V0 →bag q  ⟺  q⃗ ∈ span{v⃗ | v ∈ V}``.

The verdict carries its certificate: span coefficients become a
:class:`~repro.core.rewriting.MonomialRewriting`; a failed span test
exposes a :meth:`~BooleanDeterminacyResult.witness` constructor that
builds an explicit counterexample pair ``(D, D')`` via Lemmas 40/41.

Corollary 33 (all queries connected ⇒ determinacy iff ``q`` is
isomorphic to some view) falls out as a special case and is exposed
separately for clarity and for the E3 benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from repro.errors import DecisionError
from repro.hom.containment import views_containing
from repro.linalg.span import span_coefficients
from repro.session import SolverSession, resolve_session
from repro.queries.cq import ConjunctiveQuery
from repro.core.basis import ComponentBasis, validate_for_component_basis
from repro.core.rewriting import MonomialRewriting, rewriting_from_span
from repro.structures.canonical import canonical_key


@dataclass
class BooleanDeterminacyResult:
    """Outcome of :func:`decide_bag_determinacy`.

    Attributes
    ----------
    determined:
        Whether ``V0 →bag q``.
    relevant_views:
        ``V`` of Definition 25 (the views ⊇set q), in input order.
    basis:
        The component basis ``W``.
    view_vectors / query_vector:
        Vector representations over ``W``.
    coefficients:
        Span coefficients when determined, else ``None``.
    session:
        The :class:`~repro.session.SolverSession` the decision ran
        under.  Witness construction reuses it (same engine memo, same
        compiled targets), and callers can read aggregated counting
        statistics from it.  This replaces the old private ``_engine``
        back-channel.
    """

    query: ConjunctiveQuery
    views: Tuple[ConjunctiveQuery, ...]
    relevant_views: Tuple[ConjunctiveQuery, ...]
    basis: ComponentBasis
    view_vectors: Tuple[Tuple[int, ...], ...]
    query_vector: Tuple[int, ...]
    coefficients: Optional[Tuple[Fraction, ...]]
    session: Optional[SolverSession] = field(default=None, repr=False,
                                             compare=False)
    _witness_cache: object = field(default=None, repr=False, compare=False)

    @property
    def determined(self) -> bool:
        return self.coefficients is not None

    def rewriting(self) -> MonomialRewriting:
        """The monomial rewriting certificate (Lemma 31 ⇐ / Appendix D)."""
        if self.coefficients is None:
            raise DecisionError("no rewriting: the views do not determine the query")
        return rewriting_from_span(self.query, self.relevant_views, self.coefficients)

    def witness(self, rng=None, distinguisher_budget: int = 5000):
        """An explicit counterexample pair (Lemmas 40/41/55/56/57).

        Returns a :class:`repro.core.witness.CounterexamplePair` whose
        ``verify()`` re-checks conditions (A), (B), (B0) exactly.
        """
        if self.coefficients is not None:
            raise DecisionError("no witness: the views do determine the query")
        if self._witness_cache is None:
            from repro.core.witness import construct_counterexample

            self._witness_cache = construct_counterexample(
                self, rng=rng, distinguisher_budget=distinguisher_budget,
                session=self.session,
            )
        return self._witness_cache

    def to_record(self):
        """A JSON-safe summary of the verdict (batch wire format).

        Everything here is canonical: view indices refer to the input
        order, vectors follow the construction order of the basis
        (deterministic — components are collected in query order), and
        rational coefficients are rendered as exact ``p/q`` strings.
        """
        relevant = set(self.relevant_views)
        record = {
            "determined": self.determined,
            "relevant": [index for index, view in enumerate(self.views)
                         if view in relevant],
            "basis_dimension": self.basis.dimension,
            "query_vector": list(self.query_vector),
            "view_vectors": [list(vector) for vector in self.view_vectors],
            "coefficients": None,
        }
        if self.coefficients is not None:
            record["coefficients"] = [str(c) for c in self.coefficients]
        return record

    def explain(self) -> str:
        """One-paragraph human-readable account of the verdict."""
        lines = [
            f"views |V0| = {len(self.views)}, relevant |V| = "
            f"{len(self.relevant_views)}, basis k = {self.basis.dimension}",
            f"q⃗ = {list(self.query_vector)}",
        ]
        for view, vec in zip(self.relevant_views, self.view_vectors):
            lines.append(f"v⃗ = {list(vec)}   for view {view!r}")
        if self.determined:
            lines.append("q⃗ ∈ span{v⃗}: DETERMINED; rewriting:")
            lines.append("  " + self.rewriting().explain())
        else:
            lines.append("q⃗ ∉ span{v⃗}: NOT determined "
                         "(call .witness() for a counterexample pair)")
        return "\n".join(lines)


def decide_bag_determinacy(
    views: Sequence[ConjunctiveQuery],
    query: ConjunctiveQuery,
    session: Optional[SolverSession] = None,
) -> BooleanDeterminacyResult:
    """Decide ``V0 →bag q`` for boolean conjunctive queries (Theorem 3).

    ``session`` is the solver context the containment probes and, later,
    witness construction run under; it defaults to the process-wide
    session so repeated decisions over the same catalog reuse every
    compiled target and memoized count.

    >>> from repro.queries.parser import parse_boolean_cq
    >>> q = parse_boolean_cq("R(x,y)")
    >>> decide_bag_determinacy([q], q).determined
    True
    """
    session = resolve_session(session)
    validate_for_component_basis(query)
    for view in views:
        validate_for_component_basis(view)

    relevant = tuple(views_containing(query, views, session=session))
    basis = ComponentBasis.from_queries(list(relevant) + [query])
    view_vectors = tuple(basis.vector(view) for view in relevant)
    query_vector = basis.vector(query)
    coefficients = span_coefficients(view_vectors, query_vector)

    return BooleanDeterminacyResult(
        query=query,
        views=tuple(views),
        relevant_views=relevant,
        basis=basis,
        view_vectors=view_vectors,
        query_vector=query_vector,
        coefficients=tuple(coefficients) if coefficients is not None else None,
        session=session,
    )


def connected_case(
    views: Sequence[ConjunctiveQuery],
    query: ConjunctiveQuery,
) -> bool:
    """Corollary 33: with every query connected, ``V0 →bag q`` iff
    ``q`` is (isomorphic to) one of the views.

    Raises :class:`DecisionError` when some query is not connected.
    """
    from repro.structures.components import is_connected

    validate_for_component_basis(query)
    frozen_query = query.frozen_body()
    if not is_connected(frozen_query):
        raise DecisionError("Corollary 33 applies to connected queries only")
    for view in views:
        validate_for_component_basis(view)
        if not is_connected(view.frozen_body()):
            raise DecisionError("Corollary 33 applies to connected queries only")
    key = canonical_key(frozen_query)
    return any(canonical_key(v.frozen_body()) == key for v in views)
