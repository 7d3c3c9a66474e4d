"""The batch codec's process-wide query payload memo.

``decode_task`` decodes each distinct query payload of a line once per
process; every repeat shares the same immutable query.  The memo must
never change an answer: these tests compare it with a decode that
bypasses it, on crafted payloads and on seeded corpora.
"""

from __future__ import annotations

import json
import sys
import threading

import pytest

from repro.batch import tasks
from repro.batch.runner import evaluate_line
from repro.batch.scenarios import generate_scenario
from repro.batch.tasks import (
    DECODE_MEMO_SIZE,
    BatchCodecError,
    canonical_json,
    decode_task,
    query_from_text,
)
from repro.session import SolverSession
from repro.structures.serialization import from_dict


@pytest.fixture(autouse=True)
def _empty_memo():
    query_from_text.cache_clear()
    yield
    query_from_text.cache_clear()


def _line(task_id, kind, query, views=()):
    return json.dumps({"id": task_id, "kind": kind, "views": list(views),
                       "query": query})


def _cq(*atoms, **fields):
    return {"kind": "cq", "atoms": [[r, list(v)] for r, v in atoms],
            **fields}


def _unmemoized(monkeypatch, lines):
    """Each line's answer with the memo bypassed, in a fresh session."""
    with monkeypatch.context() as patch:
        patch.setattr(tasks, "_memoized_from_dict", from_dict)
        with SolverSession() as session:
            return [evaluate_line(line, session) for line in lines]


def test_repeated_view_decodes_to_one_object():
    view = _cq(("R", "xy"), ("R", "yz"))
    first = decode_task(_line("a", "decide-cq", _cq(("R", "xy")), [view]))
    second = decode_task(_line("b", "decide-cq", _cq(("S", "xy")),
                               [_cq(("T", "x")), view]))
    assert first.views[0] is second.views[1]
    assert first.views[0].frozen_body() is second.views[1].frozen_body()


def test_records_handed_in_as_dicts_bypass_the_memo():
    record = json.loads(_line("a", "decide-cq", _cq(("R", "xy"))))
    assert decode_task(record).query is not decode_task(record).query
    assert query_from_text.cache_info().currsize == 0


@pytest.mark.parametrize("variants", [
    # Equal as Python values, different as JSON: each must answer as
    # if decoded alone.
    [_cq(("R", "xy"), free=[value]) for value in (1, 1.0, True)],
    [_cq(("R", "xy"), extra_variables=[value]) for value in (1, 1.0, True)],
    [{"kind": "path", "letters": [value]} for value in (1, 1.0, True)],
    # One object in two key orders: from_dict reads it in order, so a
    # sorted-key memo would answer the second with the first's word.
    [{"kind": "path", "letters": {"A": 0, "B": 0}},
     {"kind": "path", "letters": {"B": 0, "A": 0}}],
])
def test_json_type_and_order_variants_answer_as_unmemoized(monkeypatch,
                                                           variants):
    kind = "decide-path" if variants[0]["kind"] == "path" else "decide-cq"
    views = [{"kind": "path", "letters": ["A", "B"]}] \
        if kind == "decide-path" else []
    lines = [_line(f"t{i}", kind, query, views)
             for i, query in enumerate(variants)] * 2
    with SolverSession() as session:
        memoized = [evaluate_line(line, session) for line in lines]
    assert memoized == _unmemoized(monkeypatch, lines)
    answers = {json.dumps({**json.loads(answer), "id": None})
               for answer in memoized}
    assert len(answers) == len(variants)


def test_invalid_view_is_not_cached_and_names_its_position():
    good = _cq(("R", "xy"))
    bad = _cq(("R", [1, 2]))
    for position in (0, 2, 1):
        views = [good, good, good]
        views[position] = bad
        with pytest.raises(BatchCodecError,
                           match=f"task t: bad view #{position} payload: "
                                 "variables must be non-empty strings"):
            decode_task(_line("t", "decide-cq", good, views))
    info = query_from_text.cache_info()
    assert info.currsize == 1  # the good payload alone
    assert info.misses == 4  # one good decode, three failed ones


def test_memo_is_bounded():
    for index in range(3 * DECODE_MEMO_SIZE):
        decode_task(_line(f"q{index}", "decide-cq", _cq((f"R{index}", "x"))))
    info = query_from_text.cache_info()
    assert info.maxsize == DECODE_MEMO_SIZE
    assert info.currsize == DECODE_MEMO_SIZE


def test_seeded_corpus_bytes_do_not_depend_on_the_memo():
    lines = [canonical_json(record)
             for kind, count, seed in (("mixed", 120, 5), ("ucq", 40, 3),
                                       ("cq-witness", 20, 9))
             for record in generate_scenario(kind, count, seed=seed)]
    with SolverSession() as session:
        shared = [evaluate_line(line, session) for line in lines]
    assert query_from_text.cache_info().hits > 0
    cleared = []
    with SolverSession() as session:
        for line in lines:
            query_from_text.cache_clear()
            cleared.append(evaluate_line(line, session))
    assert shared == cleared
    assert all(json.loads(answer)["ok"] for answer in shared)


def test_counters_move_on_a_repeated_stream():
    line = _line("t", "decide-cq", _cq(("R", "xy"), ("R", "yz")),
                 [_cq(("R", "xy"))])
    with SolverSession() as session:
        evaluate_line(line, session)
        first = session.stats()
        evaluate_line(line, session)
        second = session.stats()
    assert first["decode.misses"] == 2 and first["decode.hits"] == 0
    assert second["decode.misses"] == 2 and second["decode.hits"] == 2
    assert second["decode.cached"] == 2
    counters = session.metrics.counters_snapshot()
    assert "decode.hits" in counters and "decode.cached" not in counters


def test_threads_share_the_memo_without_losing_an_answer():
    payloads = [_cq(("R", "xy"), (f"S{index}", "y")) for index in range(50)]
    lines = [_line(f"t{index}", "decide-cq", payload)
             for index, payload in enumerate(payloads)]
    expected = [from_dict(payload) for payload in payloads]
    failures = []

    def decode_all():
        try:
            for _ in range(20):
                for line, query in zip(lines, expected):
                    assert decode_task(line).query == query
        except AssertionError as exc:  # pragma: no cover - reported below
            failures.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=decode_all) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    info = query_from_text.cache_info()
    assert info.hits + info.misses == 8 * 20 * len(lines)
    assert info.currsize == len(lines)
