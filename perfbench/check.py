"""Output checks that do not trust the program under test.

* :func:`naive_count` counts homomorphisms between two wire-format
  structures by plain backtracking, sharing no code with the program.
* :func:`span_ok` re-checks a determined ``decide-cq`` record:
  ``sum(c_i * v_i) == q`` in exact rationals.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Dict, List, Tuple


def _facts(payload: Dict) -> Tuple[List[Tuple[str, Tuple[int, ...]]], int]:
    """``(facts over element indices, element count)`` of a payload."""
    constants = payload["constants"]
    facts = [(relation, tuple(terms)) for relation, terms in payload["facts"]]
    return facts, len(constants)


def naive_count(source: Dict, target: Dict) -> int:
    """``|hom(source, target)|`` by backtracking in a connected order."""
    source_facts, n_source = _facts(source)
    target_facts, n_target = _facts(target)
    relations: Dict[str, set] = {}
    for relation, terms in target_facts:
        relations.setdefault(relation, set()).add(terms)
    active = sorted({t for _, terms in source_facts for t in terms})
    isolated = n_source - len(active)
    # Order: each next variable shares a fact with an earlier one when
    # possible, so every level is constrained by an assigned neighbour.
    neighbours: Dict[int, set] = {v: set() for v in active}
    for _, terms in source_facts:
        for a in terms:
            neighbours[a].update(terms)
    order: List[int] = []
    placed = set()
    for start in active:
        if start in placed:
            continue
        frontier = [start]
        placed.add(start)
        while frontier:
            vertex = frontier.pop(0)
            order.append(vertex)
            for other in sorted(neighbours[vertex]):
                if other not in placed:
                    placed.add(other)
                    frontier.append(other)
    position = {v: i for i, v in enumerate(order)}
    # Each fact is checked at the level of its last-placed variable.
    checks: List[List[Tuple[str, Tuple[int, ...]]]] = [[] for _ in order]
    for relation, terms in source_facts:
        checks[max(position[t] for t in terms)].append((relation, terms))
    assignment: Dict[int, int] = {}

    def extend(level: int) -> int:
        if level == len(order):
            return 1
        variable = order[level]
        total = 0
        for value in range(n_target):
            assignment[variable] = value
            if all(tuple(assignment[t] for t in terms)
                   in relations.get(relation, ())
                   for relation, terms in checks[level]):
                total += extend(level + 1)
        del assignment[variable]
        return total

    return extend(0) * n_target ** isolated


def span_ok(record: Dict) -> bool:
    """A determined decide-cq record's coefficients reproduce ``q⃗``."""
    coefficients = [Fraction(c) for c in record["coefficients"]]
    vectors = record["view_vectors"]
    query = record["query_vector"]
    if len(coefficients) != len(vectors):
        return False
    total = [Fraction(0)] * len(query)
    for c, vector in zip(coefficients, vectors):
        if len(vector) != len(query):
            return False
        for i, value in enumerate(vector):
            total[i] += c * value
    return total == [Fraction(v) for v in query]


def check_results(task_lines: List[str], result_lines: List[str],
                  count_sample: List[int]) -> List[str]:
    """Problems found in ``result_lines`` (answers to ``task_lines``,
    same order); an empty list means every check passed.

    Every determined decide-cq record gets the rational check; the
    hom-count answers at the indices in ``count_sample`` are compared
    with :func:`naive_count`.  Failed answers (``ok: false``) are the
    failure accounting's business, not a wrong output.
    """
    problems: List[str] = []
    if len(result_lines) != len(task_lines):
        problems.append(f"{len(result_lines)} results for "
                        f"{len(task_lines)} tasks")
        return problems
    sample = set(count_sample)
    for index, (task_line, result_line) in enumerate(
            zip(task_lines, result_lines)):
        task = json.loads(task_line)
        result = json.loads(result_line)
        if result.get("id") != task["id"]:
            problems.append(f"result {index} answers {result.get('id')!r}, "
                            f"expected {task['id']!r}")
            continue
        if not result.get("ok"):
            continue
        if result.get("kind") != task["kind"]:
            problems.append(f"{task['id']}: kind {result.get('kind')!r}")
        elif task["kind"] == "decide-cq" and result.get("determined"):
            if not span_ok(result):
                problems.append(f"{task['id']}: coefficients do not "
                                f"reproduce the query vector")
        elif task["kind"] == "hom-count" and index in sample:
            expected = naive_count(task["source"], task["target"])
            if int(result["count"]) != expected:
                problems.append(f"{task['id']}: count {result['count']}, "
                                f"naive count {expected}")
    return problems
