#!/usr/bin/env python
"""Seeded differential check: engine vs DP vs the naive oracle,
canonical keys vs the pairwise isomorphism oracle, integer vs Fraction
linear algebra, and component-wise existence vs the naive search.

The ROADMAP's continuous differential-testing lane, promoted from
test-time property checks into a CI job.  Four checks, each over
``--pairs`` pairs drawn from a seeded generator:

1. every counting path agrees bit-for-bit on random (source, target)
   pairs —

   * the backtracking kernel, called by name (``_count``),
   * the tree-decomposition DP kernel, called by name
     (:func:`repro.hom.dpcount.count_plan_dp`),
   * the engine, whose cost model picks one of the two
     (``HomEngine().count``),
   * the naive enumeration oracle
     (:func:`repro.hom.search.count_homomorphisms_direct`);

2. ``canonical_key(a) == canonical_key(b)`` exactly when
   :func:`repro.structures.isomorphism.find_isomorphism` finds a map,
   on pairs of random structures and of the WL-hard families (cliques,
   hypercubes, Paley graphs, CFI pairs and other 1-WL-equal twins),
   each right-hand side under a fresh renaming;

3. the integer linear algebra answers what the Fraction Gauss–Jordan
   reference (:func:`repro.linalg.matrix.gauss_jordan`,
   :func:`~repro.linalg.matrix.gaussian_solve`) answers, on random
   systems — wide, tall and square, some rank-deficient, with zero,
   negative, rational and beyond-2^64 entries: ``span_coefficients``
   and ``QMatrix.solve`` on a consistent and an arbitrary right-hand
   side, and ``rank``, ``nullspace`` and ``inverse``;

4. ``HomEngine().exists``, which decides per connected component
   through a memo of component pairs, answers what
   :func:`repro.hom.search.exists_homomorphism` answers, on sources and
   targets that are disjoint unions of random components — renamed
   copies (some keeping the ``repr`` order of the constants, which
   share a pair-memo entry), isolated elements and a 0-ary fact — and
   on each side's part without facts of positive arity (its isolated
   elements and 0-ary fact alone, often an empty domain).

Any disagreement prints the reproducing seed + pair (or system) index
and exits nonzero, so the CI log alone pins the counterexample.  Runs in the
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
from fractions import Fraction

sys.path.insert(0, "src")

from repro.hom.dpcount import count_plan_dp  # noqa: E402
from repro.hom.engine import (  # noqa: E402
    HomEngine,
    TargetIndex,
    _count,
    source_plan,
)
from repro.errors import LinalgError  # noqa: E402
from repro.hom.search import (  # noqa: E402
    count_homomorphisms_direct,
    exists_homomorphism,
)
from repro.linalg.matrix import QMatrix, gauss_jordan, gaussian_solve  # noqa: E402
from repro.linalg.span import span_coefficients  # noqa: E402
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
    plan, compiled = source_plan(source), TargetIndex(target)
    results = {
        "backtrack": _count(plan, compiled, False),
        "dp": count_plan_dp(plan, compiled),
        "engine": HomEngine().count(source, target),
    }
    for path, value in results.items():
        if value != oracle:
            print(f"MISMATCH at pair {index} (seed {args.seed}): "
                  f"{path}={value} oracle={oracle}\n"
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


def random_entry(rng: random.Random):
    draw = rng.random()
    if draw < 0.3:
        return 0
    if draw < 0.6:
        return rng.randint(-9, 9)
    if draw < 0.85:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 7))
    return rng.choice((-1, 1)) * (2 ** rng.randint(64, 72) + rng.randint(0, 99))


def random_system(rng: random.Random) -> QMatrix:
    nrows = rng.randint(1, args.max_size + 2)
    ncols = nrows if rng.random() < 0.35 else rng.randint(1, args.max_size + 2)
    rows = [[random_entry(rng) for _ in range(ncols)] for _ in range(nrows)]
    if nrows >= 3 and rng.random() < 0.35:  # rank-deficient
        a, b, target = rng.sample(range(nrows), 3)
        s, t = Fraction(rng.randint(-5, 5), rng.randint(1, 3)), rng.randint(-3, 3)
        rows[target] = [s * x + t * y for x, y in zip(rows[a], rows[b])]
    return QMatrix(rows)


def reference_nullspace(reduced, pivots, ncols):
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        candidate = [Fraction(0)] * ncols
        candidate[free] = Fraction(1)
        for row_index, pivot_col in enumerate(pivots):
            candidate[pivot_col] = -reduced[row_index][free]
        basis.append(tuple(candidate))
    return basis


def check_linalg(index: int, rng: random.Random) -> int:
    matrix = random_system(rng)
    reduced, pivots, transform = gauss_jordan(matrix)
    weights = [random_entry(rng) for _ in range(matrix.ncols)]
    arbitrary = [random_entry(rng) for _ in range(matrix.nrows)]
    generators = matrix.columns()
    results = {}
    for label, rhs in (("consistent", matrix.matvec(weights)),
                       ("arbitrary", arbitrary)):
        expected = gaussian_solve(matrix, rhs)
        results[f"solve {label}"] = (matrix.solve(rhs), expected)
        results[f"span_coefficients {label}"] = (
            span_coefficients(generators, rhs), expected)
    results["rank"] = (matrix.rank(), len(pivots))
    results["nullspace"] = (matrix.nullspace(),
                            reference_nullspace(reduced, pivots, matrix.ncols))
    if matrix.is_square():
        try:
            inverse = matrix.inverse()
        except LinalgError:
            inverse = None
        results["inverse"] = (
            inverse,
            QMatrix(transform) if len(pivots) == matrix.nrows else None)
    for operation, (value, expected) in results.items():
        if value != expected:
            print(f"MISMATCH at linear system {index} (seed {args.seed}): "
                  f"{operation} = {value!r}, reference {expected!r}\n"
                  f"  matrix={matrix!r}", file=sys.stderr)
            return 1
    return 0


def random_union(rng: random.Random, pool) -> tuple:
    """A disjoint union of pool components, renamed apart, with
    isolated elements and perhaps a 0-ary fact; also its part without
    the components."""
    facts, domain = [], []
    for copy in range(rng.choice((0, 0, 1, 2, 3))):
        component = rng.choice(pool)
        if rng.random() < 0.6:
            names = {c: f"x{copy}_{c}" for c in component.domain()}
        else:
            names = {c: f"r{rng.getrandbits(20)}_{copy}"
                     for c in component.domain()}
        renamed = component.rename(names)
        facts.extend(renamed.facts())
        domain.extend(renamed.domain())
    extras = [f"lone{i}" for i in range(rng.choice((0, 0, 1, 2)))]
    nullary = [Fact("H", ())] if rng.random() < 0.3 else []
    return (Structure(facts + nullary, domain=domain + extras),
            Structure(nullary, domain=extras))


def check_exists_pair(index: int, rng: random.Random) -> int:
    pool = [random_connected_structure(
        SCHEMA, rng.randint(1, max(1, args.max_size - 1)),
        extra_density=0.2, rng=rng) for _ in range(3)]
    source, thin_source = random_union(rng, pool)
    target, thin_target = random_union(rng, pool)
    for left in (source, thin_source):
        for right in (target, thin_target):
            engine = HomEngine().exists(left, right)
            oracle = exists_homomorphism(left, right)
            if engine != oracle:
                print(f"MISMATCH at exists pair {index} (seed {args.seed}): "
                      f"engine={engine} oracle={oracle}\n"
                      f"  source={left!r}\n  target={right!r}",
                      file=sys.stderr)
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
    linalg_failures = 0
    for index in range(args.pairs):
        linalg_failures += check_linalg(index, rng)
    exists_failures = 0
    for index in range(args.pairs):
        exists_failures += check_exists_pair(index, rng)
    if failures or iso_failures or linalg_failures or exists_failures:
        print(f"differential check: {failures}/{args.pairs} count pairs, "
              f"{iso_failures}/{args.pairs} iso pairs, "
              f"{linalg_failures}/{args.pairs} linear systems and "
              f"{exists_failures}/{args.pairs} exists pairs disagree "
              f"(seed {args.seed})", file=sys.stderr)
        return 1
    print(f"differential check: {args.pairs} pairs, all counting paths "
          f"agree with the oracle; {args.pairs} iso pairs, canonical "
          f"keys agree with find_isomorphism; {args.pairs} linear systems, "
          f"the integer elimination agrees with the Fraction reference; "
          f"{args.pairs} exists pairs, the component rule agrees with "
          f"the search (seed {args.seed})")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=40,
                        help="number of random (source, target) pairs, "
                             "of canonical-key vs isomorphism pairs, "
                             "of linear systems and of existence pairs")
    parser.add_argument("--max-size", type=int, default=5,
                        help="max domain size (oracle is exponential); "
                             "linear systems have up to max-size + 2 rows "
                             "and columns")
    args = parser.parse_args()
    sys.exit(main())
