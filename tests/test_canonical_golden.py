"""Golden byte-identity pin for :func:`canonical_key`.

Canonical keys are persisted: the tiered store and the single-file
store key their rows by them, so a change to the labeling search that
altered a single byte would orphan every stored count.  This test
builds a seeded corpus — random 2–8-vertex structures over two binary
relations (a third of them made undirected), the symmetric families
the search is hardest on (cliques K4–K7, the cube Q3, Paley graphs
P(5) and P(13), cycles), and disjoint unions of them — each under
fresh constant renamings, and pins the sha256 of all its keys.  The digest was computed with the unpruned
search (every leaf of the individualization–refinement tree visited),
so it also proves that automorphism pruning keeps every key byte.
"""

import hashlib
import random

from repro.structures.canonical import canonical_key
from repro.structures.generators import (
    clique_structure,
    cycle_structure,
    hypercube_structure,
    paley_structure,
    random_structure,
)
from repro.structures.schema import Schema
from repro.structures.structure import Fact, Structure

SCHEMA = Schema({"R": 2, "S": 2})
SEED = 20261017
RANDOM_STRUCTURES = 1000
RENAMINGS = 2
UNIONS = 500
GOLDEN_KEYS = 3533
GOLDEN_DIGEST = ("3315cf5a830eb300326f8e3452481d40"
                 "7ccf0bf1356e01e12b8233f6d8c9d828")


def _undirected_cycle(length: int) -> Structure:
    edges = [(i, (i + 1) % length) for i in range(length)]
    return Structure([("R", pair) for pair in edges]
                     + [("R", (b, a)) for a, b in edges])


def _families():
    return ([clique_structure(size) for size in range(4, 8)]
            + [hypercube_structure(3), paley_structure(5),
               paley_structure(13), cycle_structure(6), cycle_structure(8),
               _undirected_cycle(6), _undirected_cycle(8)])


def _renamed(structure: Structure, rng: random.Random) -> Structure:
    """A fresh injective renaming onto strings, ints or tuples — each
    shape sorts differently, so the intern order changes too."""
    shape = rng.randrange(3)
    images = rng.sample(range(10**6), len(structure.domain()))
    mapping = {}
    for constant, image in zip(sorted(structure.domain(), key=repr), images):
        mapping[constant] = (f"v{image}", image, ("t", image))[shape]
    return structure.rename(mapping)


def golden_corpus():
    rng = random.Random(SEED)
    pieces = []
    for _ in range(RANDOM_STRUCTURES):
        piece = random_structure(
            SCHEMA, rng.randint(2, 8), density=rng.choice((0.1, 0.25, 0.5)),
            rng=rng)
        if rng.random() < 1 / 3:
            # Undirected: far more automorphisms, so far more pruning.
            piece = Structure(
                [*piece.facts(),
                 *(Fact(f.relation, f.terms[::-1]) for f in piece.facts())],
                domain=piece.domain())
        pieces.append(piece)
    pieces.extend(_families())
    corpus = []
    for piece in pieces:
        corpus.append(piece)
        corpus.extend(_renamed(piece, rng) for _ in range(RENAMINGS))
    for _ in range(UNIONS):
        union = Structure()
        for position in range(rng.randint(2, 3)):
            part = _renamed(rng.choice(pieces), rng)
            union = union.union(part.tagged(position))
        corpus.append(union)
    return corpus


def test_canonical_keys_are_byte_identical_to_the_pinned_corpus():
    keys = [canonical_key(structure) for structure in golden_corpus()]
    hasher = hashlib.sha256()
    for key in keys:
        hasher.update(key)
        hasher.update(b"\n")
    assert len(keys) == GOLDEN_KEYS
    assert hasher.hexdigest() == GOLDEN_DIGEST
