#!/usr/bin/env python
"""Seeded differential check: engine vs DP vs the naive oracle, and
canonical keys vs the pairwise isomorphism oracle.

The ROADMAP's continuous differential-testing lane, promoted from
test-time property checks into a CI job.  Two checks, each over
``--pairs`` pairs drawn from a seeded generator:

1. every counting path agrees bit-for-bit on random (source, target)
   pairs —

   * the compiled backtracking engine (``strategy="backtrack"``),
   * the tree-decomposition DP (``strategy="dp"``),
   * the ``auto`` cost-model dispatcher,
   * the naive enumeration oracle
     (:func:`repro.hom.search.count_homomorphisms_direct`);

2. ``canonical_key(a) == canonical_key(b)`` exactly when
   :func:`repro.structures.isomorphism.find_isomorphism` finds a map,
   on pairs of random structures and of the WL-hard families (cliques,
   hypercubes, Paley graphs, CFI pairs and other 1-WL-equal twins),
   each right-hand side under a fresh renaming.

Any disagreement prints the reproducing seed + pair index and exits
nonzero, so the CI log alone pins the counterexample.  Runs in the
chaos lane (it shares the "trust nothing" posture), but takes no
fault plan: differential correctness is checked on the clean path.

Usage::

    PYTHONPATH=src python scripts/differential_check.py \
        --seed 20260807 --pairs 40 --max-size 5
"""

from __future__ import annotations

import argparse
import random
import sys

sys.path.insert(0, "src")

from repro.hom.engine import HomEngine  # noqa: E402
from repro.hom.search import count_homomorphisms_direct  # noqa: E402
from repro.structures.canonical import canonical_key  # noqa: E402
from repro.structures.generators import (  # noqa: E402
    cfi_pair,
    clique_structure,
    cycle_structure,
    hypercube_structure,
    paley_structure,
    random_connected_structure,
    random_structure,
)
from repro.structures.isomorphism import (  # noqa: E402
    find_isomorphism,
    neighbour_first,
)
from repro.structures.schema import Schema  # noqa: E402
from repro.structures.structure import Fact, Structure  # noqa: E402

SCHEMA = Schema({"E": 2, "U": 1})


def check_pair(index: int, rng: random.Random) -> int:
    source = random_connected_structure(
        SCHEMA, rng.randint(2, args.max_size), extra_density=0.3, rng=rng)
    target = random_structure(
        SCHEMA, rng.randint(1, args.max_size + 1), density=0.4, rng=rng,
        ensure_nonempty=True)
    oracle = count_homomorphisms_direct(source, target)
    results = {
        strategy: HomEngine(strategy=strategy).count(source, target)
        for strategy in ("backtrack", "dp", "auto")
    }
    for strategy, value in results.items():
        if value != oracle:
            print(f"MISMATCH at pair {index} (seed {args.seed}): "
                  f"{strategy}={value} oracle={oracle}\n"
                  f"  source={source!r}\n  target={target!r}",
                  file=sys.stderr)
            return 1
    return 0


def family_pairs():
    """WL-hard structures, each with a 1-WL-equal twin where one is at
    hand (``None``: the pair is the structure and a renamed copy)."""
    def undirected(pairs):
        return Structure([("E", (a, b)) for a, b in pairs]
                         + [("E", (b, a)) for a, b in pairs])

    ring = [(i, (i + 1) % 6) for i in range(6)]
    triangles = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
    wagner = [(i, (i + d) % 8) for i in range(8) for d in (1, 4)]
    pairs = [(clique_structure(size, relation="E"), None)
             for size in (4, 6, 7)]
    pairs += [(paley_structure(q, relation="E"), None) for q in (5, 13, 17)]
    pairs += [(hypercube_structure(3, relation="E"), undirected(wagner)),
              (hypercube_structure(4, relation="E"), None),
              (undirected(ring), undirected(triangles)),
              (cycle_structure(8, relation="E"),
               cycle_structure(4, relation="E").union(
                   cycle_structure(4, relation="E").tagged(1)))]
    pairs += [cfi_pair(base) for base in (cycle_structure(3),
                                          cycle_structure(5),
                                          clique_structure(4))]
    return pairs


def renamed(structure: Structure, rng: random.Random) -> Structure:
    images = rng.sample(range(10**6), len(structure.domain()))
    return structure.rename(dict(zip(sorted(structure.domain(), key=repr),
                                     (f"r{image}" for image in images))))


def check_iso_pair(index: int, rng: random.Random, families) -> int:
    if rng.random() < 0.5:
        left = random_structure(SCHEMA, rng.randint(1, args.max_size + 1),
                                density=rng.choice((0.2, 0.4)), rng=rng)
        draw = rng.randrange(3)
        if draw == 0:
            right = left
        elif draw == 1:  # one fact added or removed
            domain = sorted(left.domain())
            fact = Fact("E", (rng.choice(domain), rng.choice(domain))) \
                if rng.random() < 0.7 else Fact("U", (rng.choice(domain),))
            right = Structure(set(left.facts()) ^ {fact}, schema=SCHEMA,
                              domain=domain)
        else:
            right = random_structure(SCHEMA, len(left.domain()),
                                     density=rng.choice((0.2, 0.4)), rng=rng)
    else:
        left, twin = rng.choice(families)
        right = left if twin is None or rng.random() < 0.5 else twin
    right = renamed(right, rng)
    same_key = canonical_key(left) == canonical_key(right)
    isomorphic = find_isomorphism(neighbour_first(left), right) is not None
    if same_key != isomorphic:
        print(f"MISMATCH at iso pair {index} (seed {args.seed}): "
              f"same canonical key={same_key} isomorphic={isomorphic}\n"
              f"  left={left!r}\n  right={right!r}", file=sys.stderr)
        return 1
    return 0


def main() -> int:
    rng = random.Random(args.seed)
    failures = 0
    for index in range(args.pairs):
        failures += check_pair(index, rng)
    families = family_pairs()
    iso_failures = 0
    for index in range(args.pairs):
        iso_failures += check_iso_pair(index, rng, families)
    if failures or iso_failures:
        print(f"differential check: {failures}/{args.pairs} count pairs and "
              f"{iso_failures}/{args.pairs} iso pairs disagree "
              f"(seed {args.seed})", file=sys.stderr)
        return 1
    print(f"differential check: {args.pairs} pairs, all counting paths "
          f"agree with the oracle; {args.pairs} iso pairs, canonical "
          f"keys agree with find_isomorphism (seed {args.seed})")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=40,
                        help="number of random (source, target) pairs, "
                             "and of canonical-key vs isomorphism pairs")
    parser.add_argument("--max-size", type=int, default=5,
                        help="max domain size (oracle is exponential)")
    args = parser.parse_args()
    sys.exit(main())
