"""Interned integer-term representation of structures.

Every hot path of the library bottoms out in ``|hom(A, B)|`` counts
over :class:`~repro.structures.structure.Structure` objects whose
constants are arbitrary hashable Python values — strings, ints and the
deeply nested tuples that tagging, products and frozen CQ bodies
produce.  Each candidate-set probe, each DP table key and each
forward-checking prune then pays tuple/str hashing and rich
comparisons.  This module fixes the representation once:

* :class:`InternTable` — a bijection ``constant ↔ dense int`` in
  deterministic first-seen order, so two processes interning the same
  structure agree on every index;
* :class:`InternedStructure` — the structure over those ints: facts as
  per-relation sorted tuples of int rows, the domain as the contiguous
  range ``0..n-1`` with the *active* constants occupying ``0..n_active``
  and the isolated elements (constants in no fact, which the counting
  layers turn into ``|dom|`` factors) packed at the tail.

The interned form is what the compiled engine
(:mod:`repro.hom.engine`), the tree-decomposition DP
(:mod:`repro.hom.dpcount`), the canonical labeling
(:mod:`repro.structures.canonical`) and the wire format
(:mod:`repro.structures.serialization`) all compile from; it is built
once per structure and memoized (:func:`interned`), exactly like the
stable colorings and component splits before it.

Determinism: the intern order is first-seen over facts sorted by
``(relation, repr-of-terms)``, then isolated elements sorted by
``repr`` — independent of ``PYTHONHASHSEED`` and of the insertion
order of the original fact set, which the batch subsystem's
byte-for-byte output comparisons rely on.

Because every interned domain is the contiguous range ``0..n-1``, a
*set of values* has a second natural representation: one Python int
used as a machine-word bitset, bit ``v`` set iff value ``v`` is in the
set.  Intersection is ``&``, emptiness is ``== 0``, cardinality is
``int.bit_count`` — each a single C-level operation instead of a hash
walk.  The helpers below (:func:`mask_of`, :func:`iter_bits`,
:func:`bit_indices`) are the shared vocabulary of the bit-parallel
counting kernels (:mod:`repro.hom.engine`, :mod:`repro.hom.dpcount`);
:attr:`InternedStructure.key_bits` is the per-value field width those
kernels use to pack whole assignments into single int keys.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Hashable, List, Tuple

from repro.structures.structure import Structure

Constant = Hashable


def mask_of(values) -> int:
    """The bitset of an iterable of dense ints (bit ``v`` ⇔ ``v`` in)."""
    mask = 0
    for value in values:
        mask |= 1 << value
    return mask


def iter_bits(mask: int):
    """Yield the set bit indices of ``mask`` in ascending order.

    The deterministic candidate-iteration order of the bit-parallel
    kernels: independent of hash seeds and of how the mask was built.
    """
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def bit_indices(mask: int) -> List[int]:
    """:func:`iter_bits` materialized (ascending list of set bits)."""
    return list(iter_bits(mask))


class InternTable:
    """A dense, append-only ``constant ↔ int`` bijection.

    Indices are assigned in first-:meth:`intern` order, so a table
    filled deterministically is itself deterministic.
    """

    __slots__ = ("_index", "_constants")

    def __init__(self):
        self._index: Dict[Constant, int] = {}
        self._constants: List[Constant] = []

    def intern(self, constant: Constant) -> int:
        """The index of ``constant``, assigning the next one if new."""
        index = self._index.get(constant)
        if index is None:
            index = len(self._constants)
            self._index[constant] = index
            self._constants.append(constant)
        return index

    def index(self, constant: Constant) -> int:
        """The existing index of ``constant`` (KeyError when absent)."""
        return self._index[constant]

    def constant(self, index: int) -> Constant:
        """The constant stored at ``index``."""
        return self._constants[index]

    def constants(self) -> Tuple[Constant, ...]:
        """All constants, in index order."""
        return tuple(self._constants)

    def __len__(self) -> int:
        return len(self._constants)

    def __contains__(self, constant: Constant) -> bool:
        return constant in self._index

    def __repr__(self) -> str:
        return f"InternTable({len(self._constants)} constants)"


class InternedStructure:
    """A structure compiled onto dense integer terms.

    Attributes
    ----------
    table:
        The :class:`InternTable` mapping indices back to the original
        constants (the wire format ships it once per structure).
    relations:
        ``{relation: (row, row, ...)}`` — every fact as a tuple of int
        terms, rows sorted per relation (deterministic, and the
        column-wise candidate sets of the engine build straight off
        it).  Nullary facts appear as the single empty row ``()``.
    arities:
        ``{relation: arity}`` for every relation with at least one fact.
    n_active:
        Number of constants appearing in at least one fact; they occupy
        indices ``0..n_active-1``.
    n:
        Total domain size.  Indices ``n_active..n-1`` are the isolated
        elements, preserved so frozen bodies keep their ``|dom|``
        factors.
    key_bits:
        Field width for packing one value of this domain into an int
        key (``max(1, n.bit_length())``): ``Σ value_i << (i·key_bits)``
        is injective over tuples of values, the packed-key layout of
        the columnar DP tables.
    active_mask:
        The bitset of the active indices, ``(1 << n_active) - 1``.
    """

    __slots__ = ("table", "relations", "arities", "n_active", "n",
                 "key_bits", "active_mask", "wl_cache")

    def __init__(self, structure: Structure):
        # Lazily filled by canonical.wl_colors: the stable full-domain
        # coloring is probed repeatedly (invariant keys, iso tests) and
        # riding on this object inherits the intern layer's lifetime.
        self.wl_cache = None
        table = InternTable()
        grouped: Dict[str, List[Tuple[int, ...]]] = {}
        arities: Dict[str, int] = {}
        # First-seen interning over a deterministic fact order: facts
        # live in a frozenset, whose iteration order is hash-dependent.
        ordered = sorted(structure.facts(),
                         key=lambda f: (f.relation, tuple(map(repr, f.terms))))
        for fact in ordered:
            row = tuple(table.intern(term) for term in fact.terms)
            grouped.setdefault(fact.relation, []).append(row)
            arities[fact.relation] = len(row)
        self.n_active = len(table)
        for constant in sorted(structure.isolated_elements(), key=repr):
            table.intern(constant)
        self.table = table
        self.n = len(table)
        self.key_bits = max(1, self.n.bit_length())
        self.active_mask = (1 << self.n_active) - 1
        self.relations: Dict[str, Tuple[Tuple[int, ...], ...]] = {
            name: tuple(sorted(rows)) for name, rows in grouped.items()
        }
        self.arities = arities

    def iter_facts(self):
        """All ``(relation, int_row)`` pairs, in deterministic order."""
        for name in sorted(self.relations):
            for row in self.relations[name]:
                yield name, row

    def isolated_indices(self) -> range:
        """The tail block of indices holding isolated elements."""
        return range(self.n_active, self.n)

    def __repr__(self) -> str:
        fact_count = sum(len(rows) for rows in self.relations.values())
        return (f"InternedStructure(n={self.n}, active={self.n_active}, "
                f"facts={fact_count})")


@lru_cache(maxsize=8192)
def interned(structure: Structure) -> InternedStructure:
    """The (memoized) interned form of ``structure``.

    Structures are immutable and hashable, so the compiled form is
    shared by every layer probing the same structure — the engine's
    target index, the source plan, the isomorphism test and the
    serializer all reuse one build.  (:func:`canonical_key` builds its
    own: it memoizes the key, and one-off structures would otherwise
    pin their interned forms here too.)
    """
    return InternedStructure(structure)


def intern_stats() -> Dict[str, int]:
    """Cache counters of the shared intern layer (for ``stats()``).

    ``structures`` is the number of distinct structures compiled
    (cache misses); ``hits`` the number of times a compiled form was
    reused.
    """
    info = interned.cache_info()
    return {
        "structures": info.misses,
        "hits": info.hits,
        "cached": info.currsize,
    }
