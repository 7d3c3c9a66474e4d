"""Library callers decide isomorphism by canonical keys, never by the
pairwise search.

``find_isomorphism`` is budget-blind: on a 1-WL-equivalent pair such as
the CFI pair over K4 its backtracking had not answered after 25 s.
``connected_case`` (Corollary 33), ``refuter.default_blocks`` and the
Lovász distinguishers compare
:func:`~repro.structures.canonical.canonical_key` instead, which
separates that pair in milliseconds and charges the active budget.
With the pairwise search patched to raise, each must still answer.
"""

from __future__ import annotations

import pytest

import repro.structures.isomorphism as isomorphism
from repro.core.decision import connected_case
from repro.core.refuter import default_blocks
from repro.hom.lovasz import (
    distinguisher_battery,
    find_left_distinguisher,
    find_right_distinguisher,
)
from repro.queries.cq import cq_from_structure
from repro.structures.canonical import canonical_key
from repro.structures.generators import (
    cfi_pair,
    clique_structure,
    cycle_structure,
    path_structure,
)


@pytest.fixture(autouse=True)
def _no_pairwise_search(monkeypatch):
    def refuse(left, right):
        raise AssertionError("the pairwise find_isomorphism was called")

    monkeypatch.setattr(isomorphism, "find_isomorphism", refuse)


def _renamed(structure):
    return structure.rename({c: ("copy", c) for c in structure.domain()})


def test_connected_case_separates_the_cfi_pair():
    untwisted, twisted = cfi_pair(clique_structure(4))
    views = [cq_from_structure(untwisted)]
    assert connected_case(views, cq_from_structure(twisted)) is False
    assert connected_case(views, cq_from_structure(_renamed(untwisted)))


def test_default_blocks_keeps_one_block_per_class():
    untwisted, twisted = cfi_pair(clique_structure(4))
    edge = path_structure(["R"])
    views = [cq_from_structure(untwisted), cq_from_structure(twisted),
             cq_from_structure(_renamed(untwisted))]
    blocks = default_blocks(views, cq_from_structure(edge))
    assert [canonical_key(block) for block in blocks] == [
        canonical_key(untwisted), canonical_key(twisted),
        canonical_key(edge)]


def test_lovasz_functions_see_a_renamed_copy_as_isomorphic():
    cycle = cycle_structure(5)
    copy = _renamed(cycle)
    assert find_right_distinguisher(cycle, copy) is None
    assert find_left_distinguisher(cycle, copy) is None
    assert distinguisher_battery([cycle, copy]) == []
