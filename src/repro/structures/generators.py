"""Structure generators: standard families and random structures.

Used throughout the test suite, the benchmark workload generators, the
randomized refuter (:mod:`repro.core.refuter`) and the Step 1
distinguisher search of Lemma 40 (:mod:`repro.core.goodbasis`).
"""

from __future__ import annotations

import math
import random
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import StructureError
from repro.structures.schema import Schema
from repro.structures.structure import Fact, Structure


def path_structure(letters: Sequence[str], schema: Optional[Schema] = None) -> Structure:
    """The frozen body of the path query ``letters``: a simple directed
    path ``0 -R1-> 1 -R2-> 2 ...``.

    >>> path_structure(['A', 'B']).count_facts()
    2
    """
    facts = [Fact(letter, (i, i + 1)) for i, letter in enumerate(letters)]
    domain = range(len(letters) + 1)
    return Structure(facts, schema=schema, domain=domain)


def cycle_structure(length: int, relation: str = "R",
                    schema: Optional[Schema] = None) -> Structure:
    """A directed cycle of the given length (length 1 = a loop)."""
    if length < 1:
        raise StructureError("cycle length must be >= 1")
    facts = [Fact(relation, (i, (i + 1) % length)) for i in range(length)]
    return Structure(facts, schema=schema)


def clique_structure(size: int, relation: str = "R", loops: bool = False,
                     schema: Optional[Schema] = None) -> Structure:
    """The complete directed graph on ``size`` vertices."""
    if size < 1:
        raise StructureError("clique size must be >= 1")
    facts = [
        Fact(relation, (i, j))
        for i in range(size)
        for j in range(size)
        if loops or i != j
    ]
    return Structure(facts, schema=schema, domain=range(size))


def _undirected(pairs, relation: str) -> List[Fact]:
    facts = []
    for a, b in pairs:
        facts.append(Fact(relation, (a, b)))
        facts.append(Fact(relation, (b, a)))
    return facts


def hypercube_structure(dimension: int, relation: str = "R",
                        schema: Optional[Schema] = None) -> Structure:
    """The hypercube ``Q_d``: vertices ``0..2^d-1``, an edge (both
    directions) between labels differing in one bit."""
    if dimension < 1:
        raise StructureError("hypercube dimension must be >= 1")
    size = 1 << dimension
    pairs = [(v, v ^ (1 << bit)) for v in range(size)
             for bit in range(dimension) if v < v ^ (1 << bit)]
    return Structure(_undirected(pairs, relation), schema=schema,
                     domain=range(size))


def paley_structure(q: int, relation: str = "R",
                    schema: Optional[Schema] = None) -> Structure:
    """The Paley graph ``P(q)`` for a prime ``q ≡ 1 (mod 4)``: vertices
    ``0..q-1``, an edge (both directions) where the difference is a
    nonzero square mod ``q``.  Strongly regular, so 1-WL refinement
    leaves it a single color class."""
    if q < 5 or q % 4 != 1 \
            or any(q % d == 0 for d in range(2, math.isqrt(q) + 1)):
        raise StructureError("Paley graphs need a prime q ≡ 1 (mod 4)")
    squares = {x * x % q for x in range(1, q)}
    pairs = [(i, j) for i in range(q) for j in range(i + 1, q)
             if (j - i) % q in squares]
    return Structure(_undirected(pairs, relation), schema=schema,
                     domain=range(q))


def cfi_pair(base: Structure, relation: str = "R",
             schema: Optional[Schema] = None) -> Tuple[Structure, Structure]:
    """The Cai–Fürer–Immerman pair ``(untwisted, twisted)`` over the
    undirected graph of ``base``'s binary facts (directions and loops
    ignored).

    Each base vertex ``v`` becomes a gadget: a middle vertex
    ``("m", v, S)`` for every even-size set ``S`` of its edges (``S`` a
    bitmask over them) and two end vertices ``("a", v, e, 0/1)`` per
    edge ``e``, the middle vertex joined to end ``1`` of the edges in
    ``S`` and end ``0`` of the rest.  Each base edge ``{u, v}`` joins the ends of equal bit;
    the twisted copy crosses them on one edge.  For a connected base
    the two are not isomorphic, yet equal under 1-WL refinement — the
    canonical labeling must individualize to tell them apart.
    """
    edges = sorted({tuple(sorted((f.terms[0], f.terms[1]), key=repr))
                    for f in base.facts()
                    if len(f.terms) == 2 and f.terms[0] != f.terms[1]},
                   key=repr)
    if not edges:
        raise StructureError("the CFI base graph needs at least one edge")
    incident: Dict = {}
    for edge in edges:
        for vertex in edge:
            incident.setdefault(vertex, []).append(edge)
    gadget = []
    for vertex, around in incident.items():
        for mask in range(1 << len(around)):
            if bin(mask).count("1") % 2:
                continue
            middle = ("m", vertex, mask)
            gadget.extend(
                (middle, ("a", vertex, edge, mask >> index & 1))
                for index, edge in enumerate(around))

    def build(twist) -> Structure:
        links = [(("a", u, (u, v), bit),
                  ("a", v, (u, v), bit ^ ((u, v) == twist)))
                 for u, v in edges for bit in (0, 1)]
        return Structure(_undirected(gadget + links, relation),
                         schema=schema)

    return build(None), build(edges[0])


def star_structure(rays: int, relation: str = "R",
                   schema: Optional[Schema] = None) -> Structure:
    """A center with ``rays`` out-edges."""
    if rays < 0:
        raise StructureError("rays must be >= 0")
    facts = [Fact(relation, ("c", i)) for i in range(rays)]
    domain: List = ["c", *range(rays)]
    return Structure(facts, schema=schema, domain=domain)


def grid_structure(rows: int, cols: int, horizontal: str = "H",
                   vertical: str = "V") -> Structure:
    """A rows×cols grid with horizontal and vertical edge relations."""
    if rows < 1 or cols < 1:
        raise StructureError("grid dimensions must be >= 1")
    facts = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                facts.append(Fact(horizontal, ((r, c), (r, c + 1))))
            if r + 1 < rows:
                facts.append(Fact(vertical, ((r, c), (r + 1, c))))
    domain = [(r, c) for r in range(rows) for c in range(cols)]
    return Structure(facts, domain=domain)


def loop_structure(relations: Iterable[str], constant="a") -> Structure:
    """A single vertex carrying a loop for each given binary relation."""
    facts = [Fact(name, (constant, constant)) for name in relations]
    return Structure(facts, domain=[constant])


def random_structure(
    schema: Schema,
    size: int,
    density: float = 0.3,
    rng: Optional[random.Random] = None,
    ensure_nonempty: bool = False,
) -> Structure:
    """A random structure on ``size`` elements.

    Each potential fact is kept with probability ``density``.  0-ary
    relations are included with the same probability.  With
    ``ensure_nonempty`` a random fact is forced when the draw produced
    none (useful for distinguisher searches).
    """
    if size < 0:
        raise StructureError("size must be >= 0")
    if not 0.0 <= density <= 1.0:
        raise StructureError("density must be in [0, 1]")
    rng = rng or random.Random()
    domain = list(range(size))
    facts: List[Fact] = []
    candidates: List[Fact] = []
    for symbol in schema:
        if symbol.arity == 0:
            candidates.append(Fact(symbol.name, ()))
            continue
        for combo in _tuples(domain, symbol.arity):
            candidates.append(Fact(symbol.name, combo))
    for fact in candidates:
        if rng.random() < density:
            facts.append(fact)
    if ensure_nonempty and not facts and candidates:
        facts.append(rng.choice(candidates))
    return Structure(facts, schema=schema, domain=domain)


def random_connected_structure(
    schema: Schema,
    size: int,
    extra_density: float = 0.2,
    rng: Optional[random.Random] = None,
) -> Structure:
    """A random *connected* structure: a random spanning tree of facts
    plus extra random facts.  Requires a relation of arity >= 2."""
    rng = rng or random.Random()
    binary = [s for s in schema if s.arity >= 2]
    if not binary:
        raise StructureError("need a relation of arity >= 2 to connect elements")
    domain = list(range(size))
    facts: List[Fact] = []
    for index in range(1, size):
        other = rng.randrange(index)
        symbol = rng.choice(binary)
        terms = [rng.choice([index, other]) for _ in range(symbol.arity)]
        terms[0], terms[1] = other, index
        facts.append(Fact(symbol.name, tuple(terms)))
    extra = random_structure(schema, size, density=extra_density, rng=rng)
    merged = Structure(facts, schema=schema, domain=domain).union(extra)
    return merged


def enumerate_structures(
    schema: Schema, max_size: int, relations: Optional[Sequence[str]] = None
) -> Iterator[Structure]:
    """Exhaustively enumerate structures with domain {0..n-1}, n <=
    ``max_size`` (all subsets of the possible facts).

    The count explodes quickly; callers bound it.  Used as the last
    resort of the Lemma 43 distinguisher search and by the brute-force
    refuter on tiny schemas.
    """
    names = list(relations) if relations is not None else list(schema.names())
    for size in range(max_size + 1):
        domain = list(range(size))
        candidates: List[Fact] = []
        for name in names:
            arity = schema.arity(name)
            if arity == 0:
                candidates.append(Fact(name, ()))
            else:
                candidates.extend(Fact(name, combo) for combo in _tuples(domain, arity))
        for mask in range(1 << len(candidates)):
            facts = [candidates[i] for i in range(len(candidates)) if mask >> i & 1]
            yield Structure(facts, schema=schema, domain=domain)


def _tuples(domain: Sequence, arity: int) -> Iterator[tuple]:
    if arity == 0:
        yield ()
        return
    for head in domain:
        for tail in _tuples(domain, arity - 1):
            yield (head, *tail)
