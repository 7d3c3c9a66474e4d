"""Property tests for the bit-parallel counting kernels (DESIGN.md §12).

Four layers of guarantees:

* **mask vocabulary** — ``mask_of`` / ``iter_bits`` / ``bit_indices``
  round-trip arbitrary value sets and iterate in ascending value
  order regardless of how the mask was built (the determinism the
  kernels lean on: candidate order never depends on hash seeds);
* **packed keys** — the ``Σ value_i << (i·key_bits)`` layout is
  injective and field-recoverable at the field-width boundaries
  (domain sizes 1, 2, 63, 64, 65), and the FORGET splice formula is
  exactly "repack without that field";
* **counts** — the bitset backtracker, the set-domain backtracker,
  the packed DP and the set-keyed DP are bit-identical to the naive
  ground truth ``count_homomorphisms_direct`` on a random corpus
  covering disconnected sources, mixed arities (0..3), nullary facts
  and isolated elements, plus ``first_only`` short-circuit agreement;
* **plumbing** — the domain-size cap routes both engines onto the
  set-domain fallbacks (counters incremented, results unchanged), and
  the per-plan caches (base bitmask domains, resolved introduce
  programs, strategy verdicts) hit on repeats and stay LRU-bounded.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.hom.dpcount import (
    _DP_PACKED,
    _count_plan_dp_sets,
    count_plan_dp,
    dp_packed_stats,
)
from repro.hom.engine import (
    SourcePlan,
    TargetIndex,
    _BITSET_COUNTERS,
    _count,
    _count_bitset,
    _count_sets,
    bitset_stats,
    choose_strategy,
    source_plan,
)
from repro.hom.search import count_homomorphisms_direct
from repro.structures.generators import (
    grid_structure,
    path_structure,
    random_structure,
)
from repro.structures.interned import bit_indices, iter_bits, mask_of
from repro.structures.schema import Schema
from repro.structures.structure import Fact, Structure

# Same corpus shape as test_dpcount: nullary relation, arities up to 3.
SCHEMA = Schema({"R": 2, "S": 2, "P": 1, "T": 3, "N": 0})


def _random_pair(seed: int):
    rng = random.Random(seed)
    source = random_structure(SCHEMA, rng.randint(0, 5),
                              density=rng.choice((0.1, 0.3, 0.6)), rng=rng)
    target = random_structure(SCHEMA, rng.randint(0, 5),
                              density=rng.choice((0.1, 0.3, 0.6)), rng=rng)
    return source, target


def _all_kernels(source: Structure, target: Structure):
    """(direct truth, [kernel results]) for one (source, target) pair."""
    plan = source_plan(source)
    index = TargetIndex(target)
    truth = count_homomorphisms_direct(source, target)
    return truth, [
        _count_bitset(plan, index, False),
        _count_sets(plan, index, False),
        count_plan_dp(plan, index),
        _count_plan_dp_sets(plan, index),
    ]


# ----------------------------------------------------------------------
# Mask vocabulary
# ----------------------------------------------------------------------
@given(values=st.lists(st.integers(0, 200), max_size=40))
def test_mask_round_trips_value_sets(values):
    mask = mask_of(values)
    assert bit_indices(mask) == sorted(set(values))
    assert mask.bit_count() == len(set(values))


@given(values=st.sets(st.integers(0, 100), max_size=20),
       seed=st.integers(0, 1000))
def test_iteration_order_independent_of_build_order(values, seed):
    shuffled = list(values)
    random.Random(seed).shuffle(shuffled)
    assert mask_of(shuffled) == mask_of(sorted(values))
    produced = list(iter_bits(mask_of(shuffled)))
    assert produced == sorted(values)  # ascending, not insertion order


def test_empty_mask():
    assert mask_of(()) == 0
    assert bit_indices(0) == []
    assert list(iter_bits(0)) == []


# ----------------------------------------------------------------------
# Packed keys at field-width boundaries
# ----------------------------------------------------------------------
def _pack(values, kb):
    key = 0
    for position, value in enumerate(values):
        key |= value << (position * kb)
    return key


@given(n=st.sampled_from([1, 2, 63, 64, 65]), seed=st.integers(0, 500))
def test_packed_key_round_trip_at_boundaries(n, seed):
    index = TargetIndex(Structure([("R", (0, 0))], domain=range(n)))
    kb = index.key_bits
    assert index.domain_size == n
    assert kb == max(1, n.bit_length())
    rng = random.Random(seed)
    values = [rng.randrange(n) for _ in range(rng.randint(1, 6))]
    # Always exercise the field extremes somewhere in the tuple.
    values[0] = n - 1
    values[-1] = 0
    key = _pack(values, kb)
    vmask = (1 << kb) - 1
    unpacked = [(key >> (position * kb)) & vmask
                for position in range(len(values))]
    assert unpacked == values
    assert key >> (len(values) * kb) == 0  # no field overflow


@given(n=st.sampled_from([2, 63, 64, 65]), seed=st.integers(0, 500))
def test_forget_splice_is_repack_without_field(n, seed):
    kb = max(1, n.bit_length())
    rng = random.Random(seed)
    values = [rng.randrange(n) for _ in range(rng.randint(2, 6))]
    key = _pack(values, kb)
    position = rng.randrange(len(values))
    shift = position * kb
    below = (1 << shift) - 1
    above = shift + kb
    shrunk = (key & below) | ((key >> above) << shift)
    assert shrunk == _pack(values[:position] + values[position + 1:], kb)


# ----------------------------------------------------------------------
# Kernel agreement on the random corpus
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_all_four_kernels_match_direct_truth(seed):
    source, target = _random_pair(seed)
    truth, results = _all_kernels(source, target)
    assert results == [truth] * 4


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_first_only_agreement(seed):
    source, target = _random_pair(seed)
    plan = source_plan(source)
    index = TargetIndex(target)
    expected = 1 if count_homomorphisms_direct(source, target) else 0
    assert _count_bitset(plan, index, True) == expected
    assert _count_sets(plan, index, True) == expected


def test_disconnected_source_multiplies_components():
    # Two disjoint paths: the count is the product of the per-component
    # counts, and every kernel agrees on it.
    source = Structure([("R", ("a", "b")), ("R", ("b", "c")),
                        ("R", ("x", "y"))])
    target = Structure([("R", (i, j)) for i in range(4) for j in range(4)
                        if i != j], domain=range(4))
    truth, results = _all_kernels(source, target)
    assert truth == 4 * 3 * 3 * 4 * 3
    assert results == [truth] * 4


def test_mixed_constants_nullary_and_isolated():
    source = Structure(
        [("R", ("a", 1)), ("R", (1, ("t", 2))), ("S", (("t", 2), "a")),
         ("P", ("a",)), Fact("N", ())],
        domain=["a", 1, ("t", 2), "lonely"],
    )
    target = Structure(
        [("R", (u, v)) for u in range(3) for v in range(3)]
        + [("S", (u, v)) for u in range(3) for v in range(3)]
        + [("P", (u,)) for u in range(3)] + [Fact("N", ())],
        domain=range(3),
    )
    truth, results = _all_kernels(source, target)
    assert truth == 27 * 3  # free cube times the isolated |dom| factor
    assert results == [truth] * 4


def test_isolated_target_elements_widen_domains():
    # Target isolated elements are valid images only for source
    # variables without fact constraints; the bitset domains must not
    # include them for constrained variables.
    source = Structure([("R", ("a", "b"))], domain=["a", "b", "free"])
    target = Structure([("R", (0, 1))], domain=range(4))
    truth, results = _all_kernels(source, target)
    assert truth == 1 * 4  # one edge image, 4 images for "free"
    assert results == [truth] * 4


def test_grid_into_dense_target_agreement():
    source = grid_structure(2, 3, horizontal="R", vertical="R")
    chain = path_structure(["R"] * 4)
    target = Structure([("R", (i, j)) for i in range(5) for j in range(5)
                        if i != j], domain=range(5))
    for shape in (source, chain):
        truth, results = _all_kernels(shape, target)
        assert results == [truth] * 4


# ----------------------------------------------------------------------
# Fallback cap and counters
# ----------------------------------------------------------------------
def test_domain_cap_routes_to_set_kernels(monkeypatch):
    import repro.hom.engine as engine_module

    source = path_structure(["R"] * 3)
    target = Structure([("R", (i, (i + 1) % 5)) for i in range(5)],
                       domain=range(5))
    plan = source_plan(source)
    index = TargetIndex(target)
    truth = count_homomorphisms_direct(source, target)
    monkeypatch.setattr(engine_module, "_BITSET_MAX_DOMAIN", 2)
    before_bt = _BITSET_COUNTERS["fallbacks"]
    before_dp = _DP_PACKED["dp_fallbacks"]
    assert _count(plan, index, False) == truth
    assert count_plan_dp(plan, index) == truth
    assert _BITSET_COUNTERS["fallbacks"] >= before_bt + 2
    assert _DP_PACKED["dp_fallbacks"] == before_dp + 1


def test_stats_expose_bitset_and_packed_counters():
    source = path_structure(["R"] * 4)
    target = Structure([("R", (i, j)) for i in range(4) for j in range(4)
                        if i != j], domain=range(4))
    plan = source_plan(source)
    index = TargetIndex(target)
    before = _BITSET_COUNTERS["propagations"]
    _count_bitset(plan, index, False)
    assert _BITSET_COUNTERS["propagations"] > before
    count_plan_dp(plan, index)
    report = bitset_stats()
    assert set(report) == {"propagations", "fallbacks",
                           "dp_peak_entries", "dp_fallbacks"}
    assert report["dp_peak_entries"] == dp_packed_stats()["dp_peak_entries"]
    assert report["dp_peak_entries"] >= 1


# ----------------------------------------------------------------------
# Per-plan caches
# ----------------------------------------------------------------------
def _targets(count):
    return [Structure([("R", (i, j)) for i in range(n) for j in range(n)
                       if i != j], domain=range(n))
            for n in range(2, 2 + count)]


def test_base_domains_cached_per_target_structure():
    plan = source_plan(path_structure(["R"] * 3))
    index = TargetIndex(_targets(1)[0])
    first = plan.base_domain_masks(index)
    assert plan.base_domain_masks(index) is first  # cache hit
    # A distinct TargetIndex over the same structure object also hits.
    assert plan.base_domain_masks(TargetIndex(index.structure)) is first


def test_plan_caches_stay_lru_bounded():
    plan = source_plan(grid_structure(2, 3, horizontal="R", vertical="R"))
    truths = []
    for target in _targets(SourcePlan._BASE_DOMAIN_CACHE + 4):
        index = TargetIndex(target)
        truths.append(count_plan_dp(plan, index))
        _count(plan, index, False)
        choose_strategy(plan, index)  # populates the strategy cache
    for cache in (plan._base_domains, plan._dp_resolved,
                  plan._strategy_cache):
        assert len(cache) <= SourcePlan._BASE_DOMAIN_CACHE
    # Warm repeats (cache hits) still produce the same counts.
    for target, truth in list(zip(_targets(12), truths))[-3:]:
        assert count_plan_dp(plan, TargetIndex(target)) == truth
