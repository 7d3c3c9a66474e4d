"""E14: the compiled counting engine vs its ablations.

Three axes, mirroring the DESIGN.md §6.5 architecture:

* **target compilation + forward checking** — cold engine (no memo
  reuse) against raw backtracking on the large-target workload;
* **canonical-component memoization** — sources assembled from renamed
  copies of the 7-element component pool, where exact-key dict caches
  cannot share anything but the canonical cache collapses everything
  onto one count per iso class;
* **fraction-free linear algebra** — Bareiss determinant against the
  textbook Fraction-Gauss reference on an ill-conditioned radix-style
  matrix (the shape Lemma 46 produces).

``python -m repro.cli bench run --json`` runs the same workloads outside
pytest and records them in ``BENCH_engine.json``.
"""

import random

import pytest

from repro.hom.count import count_homs
from repro.hom.engine import HomEngine
from repro.hom.search import count_homomorphisms_direct
from repro.linalg.matrix import QMatrix, gaussian_det
from repro.session import default_session
from repro.structures.components import connected_components
from repro.structures.generators import clique_structure, path_structure
from repro.structures.operations import sum_with_multiplicities

from workloads import component_pool

PATH3 = path_structure(["R", "R", "R"])


@pytest.mark.parametrize("target_size", [6, 8])
def test_cold_engine_large_target(benchmark, target_size):
    """Compile-and-count with zero memo reuse (engine cleared per call)."""
    target = clique_structure(target_size)
    engine = HomEngine()

    def cold():
        engine.clear()
        return engine.count(PATH3, target)

    assert benchmark(cold) == target_size * (target_size - 1) ** 3


@pytest.mark.parametrize("target_size", [6, 8])
def test_ablation_direct_large_target(benchmark, target_size):
    """Ablation: the naive recursive counter on the same workload."""
    target = clique_structure(target_size)
    count = benchmark(count_homomorphisms_direct, PATH3, target)
    assert count == target_size * (target_size - 1) ** 3


def test_memoized_engine_steady_state(benchmark):
    """The path the decision pipeline actually sees: warm shared engine."""
    target = clique_structure(8)
    engine = default_session().engine
    engine.count(PATH3, target)
    assert benchmark(engine.count, PATH3, target) == 8 * 7 ** 3


def _renamed_pool_source(copies: int):
    pool = component_pool()
    renamed = []
    for i in range(copies):
        base = pool[i % len(pool)]
        renamed.append(base.rename({c: (i, c) for c in base.domain()}))
    return sum_with_multiplicities([(1, s) for s in renamed])


def test_canonical_memo_over_renamed_components(benchmark):
    """Isomorphic renames share one count through canonicalization."""
    source = _renamed_pool_source(12)
    target = clique_structure(5)
    truth = count_homomorphisms_direct(source, target)
    engine = HomEngine()

    def canonical():
        engine.clear()
        return engine.count(source, target)

    assert benchmark(canonical) == truth


def test_ablation_exact_key_dict_over_renamed_components(benchmark):
    """Ablation: seed-era exact-key dict — renames never share entries."""
    source = _renamed_pool_source(12)
    target = clique_structure(5)
    truth = count_homomorphisms_direct(source, target)

    def exact_dict():
        cache = {}
        total = 1
        for component in connected_components(source):
            key = (component, target)
            value = cache.get(key)
            if value is None:
                value = count_homomorphisms_direct(component, target)
                cache[key] = value
            total *= value
        return total

    assert benchmark(exact_dict) == truth


def _radix_matrix(size: int) -> list:
    rng = random.Random(0xBA5E)
    return [[rng.randint(0, 9) ** j for j in range(size)] for _ in range(size)]


@pytest.mark.parametrize("size", [6, 9])
def test_bareiss_det(benchmark, size):
    rows = _radix_matrix(size)
    reference = gaussian_det(QMatrix(rows))
    assert benchmark(lambda: QMatrix(rows).det()) == reference


@pytest.mark.parametrize("size", [6, 9])
def test_ablation_gaussian_det(benchmark, size):
    rows = _radix_matrix(size)
    benchmark(lambda: gaussian_det(QMatrix(rows)))


def test_engine_counts_identical_to_direct():
    """Bit-identity spot check inside the bench module itself."""
    for n in (4, 5, 6):
        target = clique_structure(n)
        assert count_homs(PATH3, target) == \
            count_homomorphisms_direct(PATH3, target)
