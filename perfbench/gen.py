"""Seeded task-line generators for the three benchmark workloads.

Every line is written straight in the program's JSONL task format
(canonical JSON: sorted keys, minimal separators) by the code in this
file, so neither a change to the program's scenario generators nor to
its serializers can change what a seed feeds the program.  Structures
use the interned wire format: a ``constants`` table and facts whose
terms index into it.

The generators draw only from ``random.Random(seed)``; the same seed
gives the same lines on any machine and under any hash seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Dict, List, Sequence, Tuple

Edge = Tuple[str, int, int]  # (relation, from-vertex, to-vertex)

# Fixed task-kind mix of one batch corpus (shares of the corpus size).
# Fixed counts rather than per-task coin flips keep the total work of
# a corpus nearly the same for every seed.
BATCH_MIX = (("decide-cq", 0.22), ("witness", 0.06), ("containment", 0.16),
             ("decide-path", 0.14), ("certify-ucq", 0.12),
             ("hom-count", 0.30))
BATCH_TASKS = 2400

# The serve corpus: cheap requests, mostly counts over stored targets.
SERVE_MIX = (("hom-count", 0.82), ("containment", 0.07),
             ("decide-path", 0.06), ("decide-cq", 0.05))
SERVE_TASKS = 6000

# One cycle of the symmetric schedule: (class, copies per cycle).  The
# class shares put the p50 inside the C8/K4 band and the p90 inside
# the K5 band, so neither percentile sits on a boundary between two
# classes of very different cost.
SYMMETRIC_CYCLE = (("paley5", 4), ("cycle6", 3), ("cycle8", 3), ("k4", 4),
                   ("cube3", 3), ("k5", 2), ("paley13", 1))
SYMMETRIC_TASKS = 4000


def dumps(record) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True)


def digest(lines: Sequence[str]) -> str:
    """sha256 over the lines in order (the input / result digest)."""
    hasher = hashlib.sha256()
    for line in lines:
        hasher.update(line.encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()


# ----------------------------------------------------------------------
# Graph shapes (edge lists over vertices 0..n-1)
# ----------------------------------------------------------------------
def undirected(pairs, relation: str = "R") -> List[Edge]:
    edges = []
    for a, b in pairs:
        edges.append((relation, a, b))
        edges.append((relation, b, a))
    return edges


def clique(n: int) -> List[Edge]:
    return undirected([(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle(n: int) -> List[Edge]:
    return undirected([(i, (i + 1) % n) for i in range(n)])


def cube3() -> List[Edge]:
    return undirected([(i, i ^ (1 << bit)) for i in range(8)
                       for bit in range(3) if i < i ^ (1 << bit)])


def paley(q: int) -> List[Edge]:
    squares = {(x * x) % q for x in range(1, q)}
    return undirected([(i, j) for i in range(q) for j in range(i + 1, q)
                       if (j - i) % q in squares])


SYMMETRIC_SHAPES = {
    "k4": clique(4), "k5": clique(5), "cube3": cube3(),
    "paley5": paley(5), "paley13": paley(13),
    "cycle6": cycle(6), "cycle8": cycle(8),
}

# The symmetric workload's few small targets, fixed for every seed (a
# seed-drawn target changes what the warm-up counts, and with it the
# memory the program peaks at).  Each has a loop, so no count is zero.
SYMMETRIC_TARGETS = (
    undirected([(0, 1), (1, 2), (0, 2)]) + [("R", 0, 0)],
    undirected([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]) + [("R", 1, 1)],
    undirected([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (1, 3)])
    + [("R", 4, 4)],
)
# Warm-up tasks pair every shape with every target once.
SYMMETRIC_WARMUP = len(SYMMETRIC_SHAPES) * len(SYMMETRIC_TARGETS)


def directed_path(letters: Sequence[str]) -> List[Edge]:
    return [(letter, i, i + 1) for i, letter in enumerate(letters)]


def directed_cycle(n: int, relation: str = "R") -> List[Edge]:
    return [(relation, i, (i + 1) % n) for i in range(n)]


def grid(rows: int, cols: int) -> List[Edge]:
    edges = []
    for r in range(rows):
        for c in range(cols):
            vertex = r * cols + c
            if c + 1 < cols:
                edges.append(("R", vertex, vertex + 1))
            if r + 1 < rows:
                edges.append(("S", vertex, vertex + cols))
    return edges


def random_connected(rng: random.Random, n: int, density: float,
                     relations: Sequence[str] = ("R", "S")) -> List[Edge]:
    """A random spanning tree plus each other ordered pair with
    probability ``density``; relations and directions drawn at random."""
    edges = set()
    for vertex in range(1, n):
        other = rng.randrange(vertex)
        a, b = (vertex, other) if rng.random() < 0.5 else (other, vertex)
        edges.add((rng.choice(relations), a, b))
    for a in range(n):
        for b in range(n):
            if a != b and rng.random() < density:
                edges.add((rng.choice(relations), a, b))
    if rng.random() < 0.3:
        v = rng.randrange(n)
        edges.add((rng.choice(relations), v, v))
    return sorted(edges)


# ----------------------------------------------------------------------
# Wire payloads
# ----------------------------------------------------------------------
def structure(edges: Sequence[Edge], names: Sequence) -> Dict:
    """Interned structure payload; vertex ``v`` is the constant
    ``names[v]``."""
    used = sorted({v for _, a, b in edges for v in (a, b)})
    slot = {v: i for i, v in enumerate(used)}
    schema = {relation: 2 for relation, _, _ in edges}
    return {"kind": "structure", "schema": schema,
            "constants": [names[v] for v in used],
            "facts": [[rel, [slot[a], slot[b]]] for rel, a, b in edges],
            "isolated": []}


def fresh_names(rng: random.Random, n: int) -> List[str]:
    """Distinct random constant names: a renamed copy per task."""
    names = set()
    while len(names) < n:
        names.add(f"v{rng.getrandbits(40):010x}")
    names = sorted(names)
    rng.shuffle(names)
    return names


def cq(components: Sequence[Sequence[Edge]]) -> Dict:
    """A boolean CQ whose body is the disjoint union of ``components``
    (variables renamed apart per copy)."""
    atoms = set()
    for copy, edges in enumerate(components):
        for relation, a, b in edges:
            atoms.add((relation, f"x{copy}_{a}", f"x{copy}_{b}"))
    return {"kind": "cq", "free": [], "extra_variables": [],
            "atoms": [[rel, [a, b]] for rel, a, b in sorted(atoms)]}


def ucq(disjuncts: Sequence[Dict]) -> Dict:
    return {"kind": "ucq", "disjuncts": list(disjuncts)}


def path_query(letters: Sequence[str]) -> Dict:
    return {"kind": "path", "letters": list(letters)}


# ----------------------------------------------------------------------
# Task families
# ----------------------------------------------------------------------
FIXED_COMPONENTS = (directed_path("R"), directed_path("RR"),
                    directed_path("S"), directed_path("RS"),
                    directed_path("SR"), directed_cycle(3), directed_cycle(4))


def component_pool(rng: random.Random) -> List[List[Edge]]:
    """Small connected components CQs are assembled from: the same
    component recurs across tasks, as in real view catalogs.  The pool
    starts with :data:`FIXED_COMPONENTS`, then four random ones."""
    pool = list(FIXED_COMPONENTS)
    for _ in range(4):
        pool.append(random_connected(rng, rng.randint(2, 4), 0.15))
    return pool


def _pick_components(rng, pool, most: int) -> List[List[Edge]]:
    picked = []
    for _ in range(rng.randint(1, most)):
        component = rng.choice(pool)
        picked.extend([component] * rng.randint(1, 2))
    return picked


def decide_cq_task(rng, pool, task_id: str, witness: bool = False,
                   most: int = 2, max_views: int = 5) -> Dict:
    query_parts = _pick_components(rng, pool, most)
    views = [cq(_pick_components(rng, pool, most))
             for _ in range(rng.randint(1, max_views))]
    if rng.random() < 0.45:
        # Planted determinacy: each distinct component of the query is
        # a view of its own, so q is in the span of the views.
        seen = []
        for part in query_parts:
            if part not in seen:
                seen.append(part)
        views.extend(cq([part]) for part in seen)
        rng.shuffle(views)
    record = {"id": task_id, "kind": "decide-cq", "views": views,
              "query": cq(query_parts)}
    if witness:
        record["witness"] = True
    return record


def containment_task(rng, pool, task_id: str) -> Dict:
    container_parts = _pick_components(rng, pool, 2)
    if rng.random() < 0.5:
        query_parts = container_parts + [rng.choice(pool)]
    else:
        query_parts = _pick_components(rng, pool, 2)
    return {"id": task_id, "kind": "containment",
            "query": cq(query_parts), "container": cq(container_parts)}


def path_task(rng, task_id: str, alphabet: str = "ABCD",
              max_length: int = 6) -> Dict:
    length = rng.randint(1, max_length)
    word = [rng.choice(alphabet) for _ in range(length)]
    views = []
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.6 and length > 1:
            start = rng.randrange(length)
            stop = rng.randint(start + 1, length)
            views.append(path_query(word[start:stop]))
        else:
            views.append(path_query([rng.choice(alphabet) for _ in
                                     range(rng.randint(1, max_length))]))
    return {"id": task_id, "kind": "decide-path", "views": views,
            "query": path_query(word)}


_UCQ_BASE = (
    [("P", "x")], [("Q", "x")], [("T", "x")], [("P", "x"), ("Q", "x")],
    [("E", "x", "y")], [("E", "x", "y"), ("E", "y", "z")],
)


def _base_cq(index: int) -> Dict:
    atoms = [[atom[0], list(atom[1:])] for atom in _UCQ_BASE[index]]
    return {"kind": "cq", "free": [], "extra_variables": [],
            "atoms": sorted(atoms)}


def ucq_task(rng, task_id: str) -> Dict:
    def random_union() -> List[int]:
        return sorted(rng.sample(range(len(_UCQ_BASE)), rng.randint(1, 3)))

    query = random_union()
    views = [random_union() for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.5:
        # Plant a certificate: the query itself (possibly widened) is
        # one of the views.
        widened = sorted(set(query) | set(random_union()))
        views.append(widened if rng.random() < 0.5 else query)
    return {"id": task_id, "kind": "certify-ucq",
            "views": [ucq([_base_cq(i) for i in v]) for v in views],
            "query": ucq([_base_cq(i) for i in query])}


def hom_task(task_id: str, source: Sequence[Edge], source_names,
             target: Sequence[Edge], target_names) -> Dict:
    return {"id": task_id, "kind": "hom-count",
            "source": structure(source, source_names),
            "target": structure(target, target_names)}


def _ints(n: int) -> List[int]:
    return list(range(n))


def batch_hom_task(rng, task_id: str) -> Dict:
    """Grid, chain or cycle source into a mid-size target of its own."""
    shape = rng.random()
    if shape < 0.4:
        source = grid(rng.randint(2, 3), rng.randint(2, 4))
    elif shape < 0.75:
        source = directed_path([rng.choice("RS")
                                for _ in range(rng.randint(4, 10))])
    else:
        source = directed_cycle(rng.randint(4, 8))
    size = rng.randint(6, 9)
    target = random_connected(rng, size, 0.22)
    return hom_task(task_id, source, _ints(32), target,
                    [f"t{rng.getrandbits(32):08x}_{i}" for i in range(size)])


def serve_hom_task(rng, pool, task_id: str) -> Dict:
    """Pool-assembled source into a small target of its own."""
    edges: List[Edge] = []
    offset = 0
    for component in _pick_components(rng, pool, 2):
        width = 1 + max(max(a, b) for _, a, b in component)
        edges.extend((rel, a + offset, b + offset) for rel, a, b in component)
        offset += width
    size = rng.randint(3, 5)
    target = random_connected(rng, size, 0.3)
    return hom_task(task_id, edges, _ints(offset), target,
                    [f"t{rng.getrandbits(32):08x}_{i}" for i in range(size)])


def _mixed(rng: random.Random, total: int, mix, build) -> List[str]:
    kinds: List[str] = []
    for kind, share in mix:
        kinds.extend([kind] * int(round(total * share)))
    rng.shuffle(kinds)
    return [dumps(build(kind, index)) for index, kind in enumerate(kinds)]


def batch_lines(seed: int) -> List[str]:
    rng = random.Random(seed)
    pool = component_pool(rng)

    def build(kind: str, index: int) -> Dict:
        task_id = f"b{index:05d}"
        if kind == "decide-cq":
            return decide_cq_task(rng, pool, task_id)
        if kind == "witness":
            # Witness construction raises LinalgError ("no perturbation
            # parameter found ...") on about 1 in 500 witness tasks
            # built from the random components, and none of 57,600
            # built from the fixed ones.  No operation of a workload
            # fails, so a failed count above 0 always means a change.
            return decide_cq_task(rng, list(FIXED_COMPONENTS), task_id,
                                  witness=True)
        if kind == "containment":
            return containment_task(rng, pool, task_id)
        if kind == "decide-path":
            return path_task(rng, task_id)
        if kind == "certify-ucq":
            return ucq_task(rng, task_id)
        return batch_hom_task(rng, task_id)

    return _mixed(rng, BATCH_TASKS, BATCH_MIX, build)


def serve_lines(seed: int) -> List[str]:
    rng = random.Random(seed)
    pool = component_pool(rng)

    def build(kind: str, index: int) -> Dict:
        task_id = f"s{index:05d}"
        if kind == "hom-count":
            return serve_hom_task(rng, pool, task_id)
        if kind == "containment":
            return containment_task(rng, pool, task_id)
        if kind == "decide-path":
            return path_task(rng, task_id, max_length=4)
        return decide_cq_task(rng, pool, task_id, most=1, max_views=3)

    return _mixed(rng, SERVE_TASKS, SERVE_MIX, build)


def symmetric_lines(seed: int) -> List[str]:
    """Renamed symmetric sources in a fixed class schedule, after a
    warm-up of :data:`SYMMETRIC_WARMUP` tasks that pairs every class
    with every target once (so the window sees only memo-hit counts)."""
    rng = random.Random(seed)
    target_payloads = [structure(t, [f"u{i}" for i in range(8)])
                       for t in SYMMETRIC_TARGETS]

    def task(task_id: str, name: str, target: Dict) -> str:
        shape = SYMMETRIC_SHAPES[name]
        n = 1 + max(max(a, b) for _, a, b in shape)
        return dumps({"id": task_id, "kind": "hom-count",
                      "source": structure(shape, fresh_names(rng, n)),
                      "target": target})

    lines = [task(f"w{i:02d}-{name}", name, target) for i, (name, target)
             in enumerate((name, target) for name in sorted(SYMMETRIC_SHAPES)
                          for target in target_payloads)]
    schedule = [name for name, copies in SYMMETRIC_CYCLE
                for _ in range(copies)]
    while len(lines) < SYMMETRIC_WARMUP + SYMMETRIC_TASKS:
        block = list(schedule)
        rng.shuffle(block)
        for name in block:
            index = len(lines) - SYMMETRIC_WARMUP
            lines.append(task(f"y{index:05d}-{name}", name,
                              rng.choice(target_payloads)))
    return lines[:SYMMETRIC_WARMUP + SYMMETRIC_TASKS]


def probe_line() -> str:
    """A trivial task answered first: its answer marks the end of
    set-up (the program can take tasks)."""
    edge = [("R", 0, 1)]
    return dumps(hom_task("probe", edge, ["p0", "p1"], edge, ["q0", "q1"]))


WORKLOAD_LINES = {"batch": batch_lines, "serve": serve_lines,
                  "symmetric": symmetric_lines}
