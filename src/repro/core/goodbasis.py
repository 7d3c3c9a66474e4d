"""Good sets of basis structures — Lemma 40, Steps 1–4.

Given the basis ``W = {w_1..w_k}`` and the fixed query ``q``, a set
``S`` of ``k`` structures is *good* (Definition 38) when

* it is *decent* (Definition 35): every irrelevant view
  ``v ∈ V0 \\ V`` answers 0 on every ``s ∈ S``, and
* its evaluation matrix ``M_S(i,j) = |hom(w_i, s_j)|`` is nonsingular.

The paper's four-step construction, reproduced here:

* **Step 1** — a finite set ``S⁽¹⁾`` of structures distinguishing every
  pair of (non-isomorphic) basis components by hom counts.  Existence
  is Lovász's Lemma 43; we *search*: heuristic candidates first
  (the components themselves, their products, the all-loops unit),
  then seeded random structures of growing size.
* **Step 2** — the radix merge ``s⁽²⁾ = Σ_i T^i s⁽¹⁾_i`` with ``T``
  exceeding every entry of ``M_{S⁽¹⁾}``; distinct components now get
  distinct counts (Observation 45, a radix-``T`` argument).
* **Step 3** — Vandermonde powers ``s⁽³⁾_j = (s⁽²⁾)^{j-1}``; the
  evaluation matrix becomes a Vandermonde matrix of the pairwise
  distinct counts, hence nonsingular (Lemma 46).
* **Step 4** — decency fix ``s⁽⁴⁾_j = s⁽³⁾_j × q``: multiplying by the
  (frozen) query kills every view with ``v(q) = 0`` — exactly the
  irrelevant ones — and scales row ``i`` by ``w_i(q) > 0``, preserving
  nonsingularity.

Everything is built as *lazy expressions*: ``(Σ T^i s_i)^{j-1}`` is
astronomically large materialized, while hom counts into it are cheap
symbolically (DESIGN.md §6.1).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.errors import DecisionError, SearchExhaustedError
from repro.hom.count import count_homs
from repro.hom.engine import HomEngine
from repro.hom.matrix import evaluation_matrix
from repro.session import SolverSession, resolve_session
from repro.linalg.matrix import QMatrix
from repro.queries.cq import ConjunctiveQuery
from repro.structures.expression import (
    LeafExpression,
    PowerExpression,
    ProductExpression,
    StructureExpression,
    SumExpression,
)
from repro.structures.operations import product, unit_structure
from repro.structures.schema import Schema
from repro.structures.generators import random_structure
from repro.structures.structure import Structure


@dataclass
class GoodBasis:
    """The output of the Lemma 40 construction.

    ``structures`` is the good set ``S`` (as lazy expressions, one per
    basis component), ``matrix`` its nonsingular evaluation matrix over
    the component basis, and the remaining fields expose the
    intermediate steps for inspection, testing and the E7 benchmarks.
    """

    components: Tuple[Structure, ...]
    structures: Tuple[StructureExpression, ...]
    matrix: QMatrix
    distinguishers: Tuple[Structure, ...]
    radix: int
    merged_counts: Tuple[int, ...]

    @property
    def dimension(self) -> int:
        return len(self.components)


def construct_good_basis(
    components: Sequence[Structure],
    query: ConjunctiveQuery,
    irrelevant_views: Sequence[ConjunctiveQuery] = (),
    rng: Optional[random.Random] = None,
    distinguisher_budget: int = 5000,
    session: Optional[SolverSession] = None,
) -> GoodBasis:
    """Build a good set of basis structures for ``components`` and ``q``.

    ``irrelevant_views`` are ``V0 \\ V``; decency against them is
    verified before returning.  All counting runs under ``session``
    (default: the process-wide session).
    """
    session = resolve_session(session)
    engine = session.engine
    rng = rng or random.Random(0x5EED)
    ambient = _ambient_schema(components, query, irrelevant_views)
    k = len(components)
    if k == 0:
        raise DecisionError("cannot build a good basis for an empty component set")

    # Step 4 multiplies row i by w_i(q); the paper guarantees w_i(q) > 0
    # because every basis component comes from V ∪ {q} (Definition 27),
    # each of whose members maps homomorphically into q.  Enforce that
    # precondition rather than emit a silently singular matrix.
    frozen_query_plain = query.frozen_body()
    for component in components:
        if count_homs(component, frozen_query_plain, engine) == 0:
            raise DecisionError(
                f"component {component!r} has no homomorphism into the "
                f"query; good bases are defined for the component basis "
                f"of V ∪ {{q}} only (Definition 27 / Step 4 of Lemma 40)"
            )

    # ------------------------------------------------------------- Step 1
    distinguishers = find_distinguishers(
        components, ambient, rng=rng, budget=distinguisher_budget,
        session=session,
    )

    # ------------------------------------------------------------- Step 2
    step1_matrix = [
        [count_homs(w, s, engine) for s in distinguishers] for w in components
    ]
    radix = max((entry for row in step1_matrix for entry in row), default=0) + 1
    radix = max(radix, 2)
    merged = SumExpression([
        (radix ** (i + 1), LeafExpression(s))
        for i, s in enumerate(distinguishers)
    ])
    merged_counts = tuple(count_homs(w, merged, engine) for w in components)
    if len(set(merged_counts)) != k:
        raise DecisionError(
            "Observation 45 violated: radix merge failed to separate "
            "components — the distinguisher set is wrong"
        )

    # ------------------------------------------------------------- Step 3
    powers = [PowerExpression(merged, j) for j in range(k)]

    # ------------------------------------------------------------- Step 4
    frozen_query = query.frozen_body().with_schema(
        ambient.union(query.schema())
    )
    good = tuple(
        ProductExpression([p, LeafExpression(frozen_query)]) for p in powers
    )

    matrix = evaluation_matrix(list(components), list(good), engine)
    if not matrix.is_nonsingular():
        raise DecisionError(
            "evaluation matrix of S⁽⁴⁾ is singular — this contradicts "
            "Lemma 46 + Step 4 and indicates a counting bug"
        )
    for view in irrelevant_views:
        for s in good:
            if count_homs(view.frozen_body(), s, engine) != 0:
                raise DecisionError(
                    f"S is not decent: irrelevant view {view!r} answers "
                    f"non-zero on a basis structure"
                )

    return GoodBasis(
        components=tuple(components),
        structures=good,
        matrix=matrix,
        distinguishers=tuple(distinguishers),
        radix=radix,
        merged_counts=merged_counts,
    )


# ----------------------------------------------------------------------
# Step 1: the distinguisher search (Lemma 43 made constructive)
# ----------------------------------------------------------------------
def find_distinguishers(
    components: Sequence[Structure],
    ambient: Schema,
    rng: Optional[random.Random] = None,
    budget: int = 5000,
    session: Optional[SolverSession] = None,
) -> List[Structure]:
    """A finite set ``S⁽¹⁾`` with: for every pair ``w ≠ w'`` some
    ``s ∈ S⁽¹⁾`` has ``|hom(w, s)| ≠ |hom(w', s)|``.

    Lovász's Lemma 43 guarantees existence; we search candidates in a
    deterministic-then-random order.  Raises
    :class:`SearchExhaustedError` when the budget runs out (never
    observed on real inputs; the budget guards pathological schemas).
    """
    engine = resolve_session(session).engine
    rng = rng or random.Random(0x5EED)
    chosen: List[Structure] = []
    pairs = [
        (i, j)
        for i in range(len(components))
        for j in range(i + 1, len(components))
    ]

    def separated(i: int, j: int) -> bool:
        return any(
            count_homs(components[i], s, engine) != count_homs(components[j], s, engine)
            for s in chosen
        )

    for i, j in pairs:
        if separated(i, j):
            continue
        found = _search_single_distinguisher(
            components[i], components[j], components, ambient, rng, budget, engine
        )
        chosen.append(found)
    if not chosen:
        # k == 1: any single structure will do; counts trivially
        # "separate" the empty set of pairs, but Step 2 needs a
        # non-empty S⁽¹⁾ whose count is positive for w to make the
        # merged counts meaningful.
        chosen.append(_self_candidate(components[0], ambient))
    return chosen


def _search_single_distinguisher(
    left: Structure,
    right: Structure,
    components: Sequence[Structure],
    ambient: Schema,
    rng: random.Random,
    budget: int,
    engine: Optional[HomEngine],
) -> Structure:
    for candidate in _candidate_stream(left, right, components, ambient, rng, budget):
        if count_homs(left, candidate, engine) != count_homs(right, candidate, engine):
            return candidate
    raise SearchExhaustedError(
        f"no distinguishing structure found for a component pair within "
        f"budget {budget}; increase distinguisher_budget"
    )


def _candidate_stream(
    left: Structure,
    right: Structure,
    components: Sequence[Structure],
    ambient: Schema,
    rng: random.Random,
    budget: int,
) -> Iterator[Structure]:
    # Deterministic heuristics first: the components themselves (the
    # count |hom(w, w)| ≥ 1 while |hom(w', w)| is often 0), the unit,
    # and pairwise products.
    yield _self_candidate(left, ambient)
    yield _self_candidate(right, ambient)
    yield unit_structure(ambient)
    for component in components:
        yield _self_candidate(component, ambient)
    if not left.schema().has_nullary() and not right.schema().has_nullary():
        yield product(left, right).with_schema(ambient)
    # Then seeded random structures of growing size and density.
    max_size = max(len(left.domain()), len(right.domain())) + 1
    produced = 0
    while produced < budget:
        size = rng.randint(1, max_size)
        density = rng.choice((0.15, 0.3, 0.5, 0.75))
        yield random_structure(ambient, size, density=density, rng=rng,
                               ensure_nonempty=True)
        produced += 1


def _self_candidate(component: Structure, ambient: Schema) -> Structure:
    return component.with_schema(ambient.union(component.schema))


def _ambient_schema(
    components: Sequence[Structure],
    query: ConjunctiveQuery,
    irrelevant_views: Sequence[ConjunctiveQuery],
) -> Schema:
    """Union of every schema in sight.

    The all-loops unit ``(s⁽²⁾)^0`` must carry loops *of all types*
    (paper Sec. 2.2) so that ``|hom(w, A^0)| = 1`` matches the
    ``0^0 = 1`` convention in the Vandermonde column of exponent 0.
    """
    ambient = query.schema()
    for component in components:
        ambient = ambient.union(component.schema)
    for view in irrelevant_views:
        ambient = ambient.union(view.schema())
    return ambient
