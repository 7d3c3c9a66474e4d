"""Property tests for the tree-decomposition DP backend (DESIGN.md §9).

Three layers of guarantees:

* **decompositions** — the greedy min-fill / min-degree decompositions
  satisfy the three invariants (vertex coverage, fact coverage,
  running intersection) on the whole random corpus, and the nice
  conversion preserves the node grammar (leaf/introduce/forget/join,
  empty leaves, empty root, child-parent bag deltas of exactly one);
* **counts** — the DP counter is bit-identical to the naive recursive
  ground truth ``count_homomorphisms_direct`` *and* to the PR 1
  backtracking engine on random structures covering constants of mixed
  types, nullary relations, isolated elements and disconnected
  sources;
* **plan selection** — the cost model picks the DP on the workloads it
  exists for (grids, long chains into dense targets) and backtracking
  on trivia, and the engine's per-backend stats behave whichever
  backend its one dispatcher takes (tests force one by patching
  ``choose_strategy``, the verdict the dispatcher reads).
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import StructureError
from repro.hom.count import count_homs
from repro.hom.decompose import (
    FORGET,
    INTRODUCE,
    JOIN,
    LEAF,
    TreeDecomposition,
    decompose,
    gaifman_graph,
    make_nice,
)
from repro.hom.dpcount import count_homomorphisms_dp, count_plan_dp
from repro.hom.engine import (
    HomEngine,
    TargetIndex,
    _count,
    choose_strategy,
    source_plan,
)
from repro.hom.search import count_homomorphisms_direct
from repro.structures.generators import (
    clique_structure,
    grid_structure,
    path_structure,
    random_structure,
)
from repro.structures.schema import Schema
from repro.structures.structure import Fact, Structure

# Nullary relation, mixed arities up to 3: the corpus covers the edge
# cases the counting preamble owns (0-ary facts, arity guards) plus
# hyperedge cliques in the Gaifman graph (ternary facts).
SCHEMA = Schema({"R": 2, "S": 2, "P": 1, "T": 3, "N": 0})


def _random_pair(seed: int):
    rng = random.Random(seed)
    source = random_structure(SCHEMA, rng.randint(0, 5),
                              density=rng.choice((0.1, 0.3, 0.6)), rng=rng)
    target = random_structure(SCHEMA, rng.randint(0, 5),
                              density=rng.choice((0.1, 0.3, 0.6)), rng=rng)
    return source, target


def _mixed_constant_structure():
    """Constants of different types in one structure (strings, ints,
    tuples) — the 'supports constants' clause of the DP contract."""
    return Structure(
        [("R", ("a", 1)), ("R", (1, ("t", 2))), ("S", (("t", 2), "a")),
         ("P", ("a",)), Fact("N", ())],
        domain=["a", 1, ("t", 2), "isolated"],
    )


# ----------------------------------------------------------------------
# Decomposition invariants
# ----------------------------------------------------------------------
@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 100_000),
       heuristic=st.sampled_from(["min-fill", "min-degree"]))
def test_decomposition_invariants_on_random_corpus(seed, heuristic):
    source, _ = _random_pair(seed)
    decomposition = decompose(source, heuristic=heuristic)
    decomposition.validate(source)  # raises on any violated invariant
    active = len(source.active_domain())
    assert decomposition.width <= max(0, active - 1)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_nice_decomposition_grammar(seed):
    source, _ = _random_pair(seed)
    nice = make_nice(decompose(source))
    nodes = nice.nodes
    assert nodes[-1].order == ()  # empty root: final table key is ()
    consumed = set()
    for index, node in enumerate(nodes):
        bag = frozenset(node.order)
        # Bag orders sort naturally when comparable (the interned DP
        # path: dense ints, matching the packed-key layout), by repr
        # otherwise.
        try:
            expected_order = sorted(node.order)
        except TypeError:
            expected_order = sorted(node.order, key=repr)
        assert list(node.order) == expected_order
        for child in node.children:
            assert child < index and child not in consumed
            consumed.add(child)
        if node.kind == LEAF:
            assert node.order == () and node.children == ()
        elif node.kind == INTRODUCE:
            child_bag = frozenset(nodes[node.children[0]].order)
            assert node.var in bag and bag - child_bag == {node.var}
            assert node.order[node.var_pos] == node.var
        elif node.kind == FORGET:
            child = nodes[node.children[0]]
            assert frozenset(child.order) - bag == {node.var}
            assert child.order[node.var_pos] == node.var
        else:
            assert node.kind == JOIN
            left, right = node.children
            assert nodes[left].order == nodes[right].order == node.order
    # every node except the root is consumed exactly once: a tree
    assert consumed == set(range(len(nodes) - 1))


def test_gaifman_graph_shape():
    triangle_plus = Structure([("T", ("a", "b", "c")), ("R", ("c", "d")),
                               ("P", ("e",)), Fact("N", ())],
                              domain=["a", "b", "c", "d", "e", "lonely"])
    graph = gaifman_graph(triangle_plus)
    assert graph["a"] == {"b", "c"}          # ternary fact = clique
    assert graph["d"] == {"c"}
    assert graph["e"] == set()               # unary fact: no edges
    assert "lonely" not in graph             # isolated: excluded


def test_grid_decomposition_width_is_bounded():
    # tw(3×6 grid) = 3; greedy min-fill should land on it (and must
    # never exceed it by much — that is the whole point of the DP).
    decomposition = decompose(grid_structure(3, 6, horizontal="R",
                                             vertical="S"))
    assert decomposition.width <= 4
    chain = decompose(path_structure(["R", "S"] * 6))
    assert chain.width == 1


def test_validator_rejects_broken_decompositions():
    source = Structure([("R", ("a", "b")), ("R", ("b", "c"))])
    good = decompose(source)
    good.validate(source)
    # drop a vertex
    with pytest.raises(StructureError, match="no bag"):
        TreeDecomposition([frozenset({"a", "b"})], []).validate(source)
    # cover vertices but not the R(b, c) fact
    with pytest.raises(StructureError, match="covered by no bag"):
        TreeDecomposition([frozenset({"a", "b"}), frozenset({"c"})],
                          [(0, 1)]).validate(source)
    # break running intersection: 'b' in two disconnected bags
    with pytest.raises(StructureError, match="not connected"):
        TreeDecomposition(
            [frozenset({"a", "b"}), frozenset({"c"}),
             frozenset({"b", "c"})],
            [(0, 1), (1, 2)]).validate(source)
    with pytest.raises(StructureError, match="cycle"):
        TreeDecomposition([frozenset({"a", "b"}), frozenset({"b", "c"})],
                          [(0, 1), (1, 0)]).validate(source)
    with pytest.raises(StructureError, match="heuristic"):
        decompose(source, heuristic="magic")


# ----------------------------------------------------------------------
# DP ≡ direct ≡ backtracking engine
# ----------------------------------------------------------------------
@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_dp_matches_direct_and_backtracking(seed):
    source, target = _random_pair(seed)
    truth = count_homomorphisms_direct(source, target)
    assert count_homomorphisms_dp(source, target) == truth
    plan, index = source_plan(source), TargetIndex(target)
    assert _count(plan, index, False) == truth
    assert HomEngine().count(source, target) == truth


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_dp_engine_end_to_end_matches_direct(seed):
    """An engine forced onto the DP, through the full
    component-factorized count path, against the naive ground truth."""
    source, target = _random_pair(seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.hom.engine.choose_strategy",
                      lambda plan, index, first_only=False: "dp")
        assert HomEngine().count(source, target) == \
            count_homomorphisms_direct(source, target)


def test_dp_mixed_constants_nullary_and_isolated():
    source = _mixed_constant_structure()
    target = Structure(
        [("R", (0, 1)), ("R", (1, 0)), ("R", (1, 1)), ("S", (0, 0)),
         ("S", (1, 0)), ("P", (0,)), ("P", (1,)), Fact("N", ())],
        domain=[0, 1, 2],
    )
    truth = count_homomorphisms_direct(source, target)
    assert truth > 0  # isolated element contributes a |dom| = 3 factor
    assert count_homomorphisms_dp(source, target) == truth
    # nullary fact missing from the target: decided before any DP
    assert count_homomorphisms_dp(
        source, Structure([("R", (0, 1))], domain=[0, 1])) == 0


def test_dp_disconnected_source_without_factorization(force_backend):
    """count_plan_dp takes whole structures: a disconnected source
    exercises the chained-forest decomposition directly."""
    two_parts = Structure([("R", ("a", "b")), ("R", ("b", "a")),
                           ("S", ("x", "y")), ("S", ("y", "z"))])
    target = clique_structure(3, relation="R").union(
        clique_structure(3, relation="S"))
    truth = count_homomorphisms_direct(two_parts, target)
    assert count_homomorphisms_dp(two_parts, target) == truth
    # and through the factorizing engine as well
    force_backend("dp")
    assert count_homs(two_parts, target, HomEngine()) == truth


def test_dp_known_closed_forms():
    # paths into cliques: n·(n-1)^length proper walks
    path3 = path_structure(["R", "R", "R"])
    for n in (3, 5):
        assert count_homomorphisms_dp(path3, clique_structure(n)) == \
            n * (n - 1) ** 3
    # empty source: exactly one (empty) homomorphism
    assert count_homomorphisms_dp(Structure(), clique_structure(4)) == 1
    # single isolated vertex: |dom|
    assert count_homomorphisms_dp(Structure((), domain=["v"]),
                                  clique_structure(4)) == 4


# ----------------------------------------------------------------------
# Plan selection and the engine's backend stats
# ----------------------------------------------------------------------
def _dense_target(size: int = 4) -> Structure:
    return Structure(
        [("R", (i, j)) for i in range(size) for j in range(size) if i != j]
        + [("S", (i, j)) for i in range(size) for j in range(size) if i != j],
        domain=range(size))


def test_auto_selection_picks_dp_on_grids_and_chains():
    index = TargetIndex(_dense_target())
    grid = grid_structure(3, 4, horizontal="R", vertical="S")
    chain = path_structure(["R", "S"] * 4)
    assert choose_strategy(source_plan(grid), index) == "dp"
    assert choose_strategy(source_plan(chain), index) == "dp"


def test_auto_selection_backtracks_on_trivia_and_existence():
    index = TargetIndex(_dense_target())
    edge = path_structure(["R"])
    assert choose_strategy(source_plan(edge), index) == "backtrack"
    grid = grid_structure(3, 4, horizontal="R", vertical="S")
    # existence probes short-circuit: always backtracking under auto
    assert choose_strategy(source_plan(grid), index,
                           first_only=True) == "backtrack"


def _widths(engine):
    return {name: value for name, value in engine.stats().items()
            if name.startswith("engine.dp.width.")}


def test_engine_strategy_knob_and_stats(force_backend):
    grid = grid_structure(2, 4, horizontal="R", vertical="S")
    target = _dense_target()
    forced_dp = HomEngine()
    forced_bt = HomEngine()
    auto = HomEngine()
    expected = count_homomorphisms_direct(grid, target)
    assert auto.count(grid, target) == expected
    force_backend("dp")
    assert forced_dp.count(grid, target) == expected
    force_backend("backtrack")
    assert forced_bt.count(grid, target) == expected
    assert forced_dp.stats()["engine.count.dp"] == 1
    assert forced_dp.stats()["engine.count.backtrack"] == 0
    assert _widths(forced_dp) == {"engine.dp.width.2": 1}
    assert forced_bt.stats()["engine.count.dp"] == 0
    assert forced_bt.stats()["engine.count.backtrack"] == 1
    assert auto.stats()["engine.count.dp"] \
        + auto.stats()["engine.count.backtrack"] == 1
    forced_dp.clear()
    assert forced_dp.stats()["engine.count.dp"] == 0
    assert _widths(forced_dp) == {}


def test_store_keys_are_shared_across_backends(tmp_path, force_backend):
    """A count persisted by a DP engine is a store hit for a
    backtracking engine: the store keys are canonical-component
    based and backend-agnostic."""
    from repro.batch.store import TieredHomStore

    grid = grid_structure(2, 4, horizontal="R", vertical="S")
    target = _dense_target()
    path = str(tmp_path / "store")
    force_backend("dp")
    with TieredHomStore(path) as store:
        dp_engine = HomEngine(store=store)
        expected = dp_engine.count(grid, target)
        assert dp_engine.dp_counts == 1
        dp_engine.flush_store()
    force_backend("backtrack")
    with TieredHomStore(path) as store:
        bt_engine = HomEngine(store=store)
        assert bt_engine.count(grid, target) == expected
        assert bt_engine.store_hits == 1
        assert bt_engine.dp_counts == 0 and bt_engine.backtrack_counts == 0


def test_dp_plan_is_shared_across_targets():
    grid = grid_structure(2, 5, horizontal="R", vertical="S")
    plan = source_plan(grid)
    first = plan.dp_plan()
    for size in (3, 4, 5):
        count_plan_dp(plan, TargetIndex(_dense_target(size)))
    assert plan.dp_plan() is first  # one decomposition, many targets
