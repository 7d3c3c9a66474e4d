"""``HomEngine.exists`` decided per connected component (DESIGN.md §6.5).

Chandra–Merlin existence probes split both sides into components: the
source maps iff each of its components does, an isolated element maps
iff the target has an element, a 0-ary fact iff the target has it, and
a connected component with facts iff it maps into some target
component that has facts.  Component-pair verdicts are memoized under
the two components' interned row tables, never under a canonical key.

* the engine agrees with the naive search on disjoint unions with
  renamed copies, isolated elements, 0-ary facts, the empty structure
  and an empty-domain target;
* renamed copies share one pair-memo entry, and the memo is bounded
  and cleared like the others;
* no probe labels a structure (the rejected canonical-key design);
* every pair-memo miss charges the active budget, so the probes of
  ``views_containing`` meet a step budget;
* component-pair rows written by one session are read back by the next.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.batch.runner import evaluate_envelope
from repro.batch.tasks import canonical_json, make_containment_task
from repro.faults.budget import Budget, BudgetExceeded, use_budget
from repro.hom.containment import views_containing
from repro.hom.engine import HomEngine
from repro.hom.search import exists_homomorphism
from repro.queries.parser import parse_boolean_cq
from repro.session import SolverSession
from repro.structures.canonical import canonical_stats
from repro.structures.generators import (
    clique_structure,
    cycle_structure,
    hypercube_structure,
    paley_structure,
    path_structure,
    random_connected_structure,
)
from repro.structures.schema import Schema
from repro.structures.structure import Fact, Structure

SCHEMA = Schema({"E": 2, "F": 2, "U": 1})


def _component_pool(rng: random.Random):
    return [random_connected_structure(SCHEMA, rng.randint(1, 4),
                                       extra_density=rng.choice((0.1, 0.3)),
                                       rng=rng)
            for _ in range(4)]


def _disjoint_union(rng: random.Random, pool) -> Structure:
    """Up to four copies of pool components, renamed apart (keeping
    ``repr`` order, or not), plus isolated elements and a 0-ary fact."""
    facts, domain = [], []
    for copy in range(rng.randint(0, 4)):
        component = rng.choice(pool)
        if rng.random() < 0.7:
            names = {c: f"x{copy}_{c}" for c in component.domain()}
        else:
            names = {c: f"r{rng.getrandbits(24)}_{copy}"
                     for c in component.domain()}
        renamed = component.rename(names)
        facts.extend(renamed.facts())
        domain.extend(renamed.domain())
    domain.extend(f"lone{i}" for i in range(rng.choice((0, 0, 1, 2))))
    if rng.random() < 0.3:
        facts.append(Fact("H", ()))
    return Structure(facts, domain=domain)


# ----------------------------------------------------------------------
# The component rule against the naive search
# ----------------------------------------------------------------------
@settings(derandomize=True, max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32))
def test_exists_matches_search_on_disjoint_unions(seed):
    rng = random.Random(seed)
    pool = _component_pool(rng)
    source, target = _disjoint_union(rng, pool), _disjoint_union(rng, pool)
    engine = HomEngine()
    truth = exists_homomorphism(source, target)
    assert engine.exists(source, target) is truth
    assert engine.exists(source, target) is truth  # whole-pair memo
    # An engine whose pair memo is warm from other probes agrees.
    warm = HomEngine()
    for left, right in ((target, source), (source, source),
                        (target, target)):
        warm.exists(left, right)
    assert warm.exists(source, target) is truth


EMPTY = Structure()
LONE = Structure((), domain=["v"])
NULLARY = Structure([Fact("H", ())])
EDGE = Structure([("E", ("a", "b"))])
LOOP = Structure([("E", ("c", "c"))])


@pytest.mark.parametrize("source,target", [
    (EMPTY, EMPTY), (EMPTY, LONE), (LONE, EMPTY), (LONE, LONE),
    (LONE, NULLARY), (NULLARY, EMPTY), (NULLARY, NULLARY),
    (NULLARY, LONE), (EDGE, NULLARY), (EDGE, LONE),
    (EDGE, EDGE.union(NULLARY)), (EDGE.union(LONE), EDGE),
    (EDGE.union(NULLARY), EDGE), (EDGE.union(NULLARY), LOOP.union(NULLARY)),
    (LOOP, EDGE.union(LOOP)), (EDGE.union(LOOP), EDGE),
])
def test_exists_edge_cases_match_search(source, target):
    assert HomEngine().exists(source, target) is \
        exists_homomorphism(source, target)


# ----------------------------------------------------------------------
# The pair memo
# ----------------------------------------------------------------------
def test_renamed_copies_share_one_pair_entry():
    triangle = cycle_structure(3)
    copies = [triangle.rename({c: f"x{copy}_{c}" for c in triangle.domain()})
              for copy in range(3)]
    target = clique_structure(4)
    engine = HomEngine()
    for copy in copies:
        assert engine.exists(copy, target) is True
    # One source made of all three copies: still the one entry.
    union = Structure([fact for copy in copies for fact in copy.facts()])
    assert engine.exists(union, target) is True
    assert engine.stats()["engine.exists.pairs"] == 1
    assert engine.stats()["engine.count.backtrack"] == 1


def test_pair_memo_is_bounded_and_cleared():
    engine = HomEngine(max_counts=2)
    target = clique_structure(4)
    for length in range(1, 6):
        assert engine.exists(path_structure(["R"] * length), target) is True
    assert engine.stats()["engine.exists.pairs"] == 2
    engine.clear()
    assert engine.stats()["engine.exists.pairs"] == 0
    assert engine.stats()["engine.exists.entries"] == 0


def test_probes_label_no_structure():
    """No canonical labeling in ``exists`` without a store: one-off
    symmetric structures made the canonical-key design 5–60× slower
    (DESIGN.md §6.5)."""
    q6 = hypercube_structure(6)
    probes = [
        (cycle_structure(5), hypercube_structure(7), False),
        (clique_structure(3), paley_structure(101), True),
        (clique_structure(5), q6.union(q6.tagged(1)), False),
        (hypercube_structure(7), clique_structure(2), True),
        (paley_structure(101), clique_structure(5), False),
    ]
    for source, target, verdict in probes:
        keys = canonical_stats()["keys"]
        assert HomEngine().exists(source, target) is verdict
        assert canonical_stats()["keys"] == keys


# ----------------------------------------------------------------------
# Budgets
# ----------------------------------------------------------------------
def _chain(length: int) -> str:
    return ", ".join(f"R(x{i},x{i + 1})" for i in range(length))


def _loop(length: int) -> str:
    return ", ".join(f"R(x{i},x{(i + 1) % length})" for i in range(length))


VIEWS = [parse_boolean_cq(_chain(n)) for n in range(1, 7)] + \
        [parse_boolean_cq(_loop(n)) for n in range(1, 7)]
TRIANGLE = parse_boolean_cq(_loop(3))


def test_views_containing_charges_each_component_probe():
    """Twelve views with pairwise distinct components, each probe far
    under the kernels' 1,024-node stride: every pair-memo miss charges
    one step, so a budget of eight steps refuses the ninth probe."""
    with SolverSession() as session:
        with use_budget(Budget(max_steps=8)), \
                pytest.raises(BudgetExceeded) as tripped:
            views_containing(TRIANGLE, VIEWS, session=session)
    assert tripped.value.reason == "steps"


def test_views_containing_without_budget_keeps_its_answer():
    with SolverSession() as session:
        relevant = views_containing(TRIANGLE, VIEWS, session=session)
    assert relevant == [view for view in VIEWS if exists_homomorphism(
        view.frozen_body(), TRIANGLE.frozen_body())]
    assert len(relevant) == 8  # six chains, the 3- and the 6-cycle


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
def test_component_pair_rows_are_read_back(tmp_path):
    task = make_containment_task(
        "c-0", parse_boolean_cq("R(x,y), R(y,z), S(u,v), R(w,w)"),
        parse_boolean_cq("R(a,b), S(c,d), R(e,e)"))
    line = canonical_json(task)
    path = str(tmp_path / "store")
    with SolverSession(store_path=path) as first:
        answer = evaluate_envelope(line, first)
        assert first.stats()["engine.count.backtrack"] > 0
    with SolverSession(store_path=path) as second:
        assert evaluate_envelope(line, second) == answer
        stats = second.stats()
    assert answer["contained"] is True
    assert stats["engine.store.hits"] > 0
    assert stats["engine.store.misses"] == 0
    assert stats["engine.count.backtrack"] == 0
