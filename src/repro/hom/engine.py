"""The compiled homomorphism-counting engine.

Every answer the library gives — determinacy verdicts, witness
verification, good-basis search — bottoms out in ``|hom(A, B)|``
counts (Lemma 4).  The naive counter in :mod:`repro.hom.search`
rebuilds all target-side indexes on every call and re-enumerates
isomorphic source components from scratch.  This module separates the
work into three layers that are each computed **once** and reused:

Both compilations start from the **interned form**
(:mod:`repro.structures.interned`): constants are replaced by dense
small integers, so every candidate-set probe, projection-map lookup
and DP table key below manipulates ints instead of arbitrary tuples
and strings.

``TargetIndex``
    Per-target compilation: positional candidate sets
    (``(relation, position) -> allowed int values``), per-relation
    int-row sets, and lazily-built binary projection maps
    (``(relation, i, j) -> {value_at_i: values_at_j}``) used for
    forward checking.  Built once per target structure, cached in the
    engine with LRU eviction.

``SourcePlan``
    Per-source compilation: static variable order (decreasing
    constraint degree) over interned variables, per-variable
    incident-fact lists, nullary-fact preconditions, the
    ``tail_simple`` flag that lets the counter close the last level
    combinatorially, and a lazily-built tree-decomposition DP schedule
    (:meth:`SourcePlan.dp_plan`).  Cached per source structure.

``HomEngine``
    The façade.  Counts are memoized in an LRU-bounded cache keyed by
    the **canonical byte key** of each connected component
    (:func:`repro.structures.canonical.canonical_key`): the key is a
    pure function of the isomorphism class, so the rampant isomorphic
    components of synthetic workloads share a single count — with no
    bucket scan and no pairwise isomorphism test on the probe path.

Two counting backends sit behind one dispatch (:func:`count_plan`):

* **backtracking** — iterative search with forward checking over
  *bitset domains*: every candidate set is one Python int (bit ``v``
  ⇔ value ``v`` allowed), so assigning a variable prunes its
  unassigned neighbours with a single ``&`` per projection, a wiped
  domain is ``== 0``, and the undo trail is a flat list of
  ``(variable, old_mask)`` int pairs.  Candidates are visited by
  scanning set bits from the least-significant end — deterministic
  ascending value order.  Targets beyond ``_BITSET_MAX_DOMAIN`` fall
  back to the original set-domain kernel (``_count_sets``), which is
  kept verbatim as fallback and ablation reference.  Worst-case
  exponential in the number of source variables.
* **tree-decomposition DP** (:mod:`repro.hom.dpcount`) — bag-table
  dynamic programming over a nice decomposition of the source's
  Gaifman graph, ``O(poly · |B|^{w+1})`` for treewidth ``w``.

:func:`choose_strategy` picks per ``(source, target)`` pair by
comparing a branching-degree-product estimate of the backtracking
search tree against ``Σ |B|^{bag}`` over the DP schedule; the engine's
``strategy`` knob (``"auto"``/``"backtrack"``/``"dp"``) overrides the
choice globally, and per-strategy counters plus a width histogram are
surfaced through :meth:`HomEngine.stats`.
:func:`repro.hom.search.count_homomorphisms_direct` remains the
independent recursive ground truth that both backends are
property-tested against.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import lru_cache
from typing import Dict, FrozenSet, Hashable, List, Tuple

from repro.errors import ReproError
from repro.faults.budget import (
    BudgetExceeded,
    active_budget,
    budget_stats,
    injected_exceeded,
    may_degrade,
)
from repro.faults.inject import should_inject
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import span
from repro.structures.canonical import canonical_key, canonical_stats
from repro.structures.interned import intern_stats, interned, mask_of
from repro.structures.structure import Structure

Constant = Hashable

_EMPTY: FrozenSet = frozenset()

STRATEGIES = ("auto", "backtrack", "dp")

# Domains are packed into Python-int bitsets (bit v ⇔ value v allowed)
# as long as the target domain fits this many bits.  Beyond the cap a
# mostly-empty multi-kiloword mask costs more to AND than a sparse set
# costs to intersect, so the counter falls back to the set-domain
# kernels (and counts the event in ``bitset_stats``).
_BITSET_MAX_DOMAIN = 1 << 16

# Module-wide observability of the bit-parallel kernels (same scoping
# as the intern/canonical counters: the representation layer is shared
# by every engine in the process).  ``propagations`` counts
# domain-narrowing events of the bitset forward checker;
# ``fallbacks`` counts counts that ran on the set-domain kernels
# because the target domain exceeded the cap.
_BITSET_COUNTERS = {"propagations": 0, "fallbacks": 0}


def bitset_stats() -> Dict[str, int]:
    """Counters of the bit-parallel kernels (for ``stats()``).

    Includes the packed-DP table peak from :mod:`repro.hom.dpcount`
    so one block answers "are the bitset kernels on, and how big do
    the packed tables get".
    """
    from repro.hom.dpcount import dp_packed_stats

    report = dict(_BITSET_COUNTERS)
    report.update(dp_packed_stats())
    return report

# Plan-selection tuning, fitted against the bit-parallel kernels
# (EXPERIMENTS.md E19).  Sources with fewer variables than this never
# pay for a decomposition (backtracking wins on trivia outright); a
# backtracking estimate below the floor is already so cheap that the
# DP's fixed per-table overhead cannot pay off; and one packed DP
# table entry costs roughly this many backtracking node visits, so
# the DP must win by that factor.  The packed kernels moved all three:
# a 4-variable path into a dense target already runs ~3× faster on
# the packed DP than on bitset backtracking, and the measured cost of
# one packed table entry is near one search node (the bias keeps a 2×
# safety margin toward backtracking, whose memory is O(n)).
_DP_MIN_VARS = 4
_BACKTRACK_CHEAP_FLOOR = 256.0
_DP_COST_BIAS = 2.0


class TargetIndex:
    """One-time compilation of a counting target, onto interned ints.

    Precomputes everything :func:`repro.hom.search._prepare` used to
    rebuild on every call: the domain size, the positional candidate
    sets and the per-relation tuple sets — all over the dense integer
    domain of the target's interned form, so the counter's inner loops
    hash ints only.  Binary projection maps (the adjacency lists
    driving forward checking) are built lazily per ``(relation, i, j)``
    and kept for the lifetime of the index.
    """

    __slots__ = ("structure", "inter", "domain_size", "key_bits",
                 "positions", "tuples", "arities", "_pair_maps",
                 "_position_masks", "_pair_bits", "_packed_rows",
                 "_loop_masks")

    def __init__(self, structure: Structure):
        self.structure = structure
        inter = interned(structure)
        self.inter = inter
        self.domain_size = inter.n
        self.key_bits = inter.key_bits
        positions: Dict[Tuple[str, int], FrozenSet[int]] = {}
        tuples: Dict[str, FrozenSet[Tuple[int, ...]]] = {}
        for relation, rows in inter.relations.items():
            tuples[relation] = frozenset(rows)
            arity = inter.arities[relation]
            if arity:
                columns: List[set] = [set() for _ in range(arity)]
                for row in rows:
                    for i, value in enumerate(row):
                        columns[i].add(value)
                for i, column in enumerate(columns):
                    positions[(relation, i)] = frozenset(column)
        self.positions = positions
        self.tuples = tuples
        self.arities = inter.arities
        self._pair_maps: Dict[Tuple[str, int, int],
                              Dict[int, FrozenSet[int]]] = {}
        # Bitmask twins of the candidate machinery, built lazily and
        # cached alongside the set forms: non-hot callers (and the
        # set-domain fallback kernels) keep the sets, while the
        # bit-parallel kernels probe these.
        self._position_masks: Dict[Tuple[str, int], int] = {}
        self._pair_bits: Dict[Tuple[str, int, int], Dict[int, int]] = {}
        self._packed_rows: Dict[str, FrozenSet[int]] = {}
        self._loop_masks: Dict[str, int] = {}

    def pair_map(self, relation: str, i: int, j: int
                 ) -> Dict[int, FrozenSet[int]]:
        """Projection ``{v: {w | some R-tuple has v at i and w at j}}``."""
        key = (relation, i, j)
        cached = self._pair_maps.get(key)
        if cached is None:
            collected: Dict[Constant, set] = {}
            for tup in self.tuples.get(relation, ()):
                collected.setdefault(tup[i], set()).add(tup[j])
            cached = {value: frozenset(seen)
                      for value, seen in collected.items()}
            self._pair_maps[key] = cached
        return cached

    def position_mask(self, relation: str, i: int):
        """The positional candidate set as a bitset (``None`` when the
        ``(relation, position)`` pair has no target facts at all)."""
        key = (relation, i)
        cached = self._position_masks.get(key)
        if cached is None:
            allowed = self.positions.get(key)
            if allowed is None:
                return None
            cached = mask_of(allowed)
            self._position_masks[key] = cached
        return cached

    def pair_bits(self, relation: str, i: int, j: int) -> Dict[int, int]:
        """:meth:`pair_map` with bitset values: ``{v: mask of w}``."""
        key = (relation, i, j)
        cached = self._pair_bits.get(key)
        if cached is None:
            cached = {value: mask_of(seen)
                      for value, seen in self.pair_map(relation, i, j).items()}
            self._pair_bits[key] = cached
        return cached

    def loop_mask(self, relation: str) -> int:
        """Bitset of values ``v`` with a binary fact ``R(v, v)``."""
        cached = self._loop_masks.get(relation)
        if cached is None:
            cached = 0
            for row in self.tuples.get(relation, ()):
                if len(row) == 2 and row[0] == row[1]:
                    cached |= 1 << row[0]
            self._loop_masks[relation] = cached
        return cached

    def packed_rows(self, relation: str) -> FrozenSet[int]:
        """The relation's rows packed into single ints
        (``Σ row[t] << (t·key_bits)`` — the DP's key layout)."""
        cached = self._packed_rows.get(relation)
        if cached is None:
            kb = self.key_bits
            packed = set()
            for row in self.tuples.get(relation, ()):
                key = 0
                for t, value in enumerate(row):
                    key |= value << (t * kb)
                packed.add(key)
            cached = frozenset(packed)
            self._packed_rows[relation] = cached
        return cached

    def __repr__(self) -> str:
        return (f"TargetIndex(|dom|={self.domain_size}, "
                f"relations={sorted(self.tuples)})")


class SourcePlan:
    """One-time compilation of a counting source, onto interned ints.

    Only depends on the source structure, so it is shared across all
    targets (module-level LRU via :func:`source_plan`).  Variables are
    the dense integers of the source's interned form; the counter maps
    them onto the target's interned values.
    """

    __slots__ = ("source", "inter", "order", "incident", "facts",
                 "fact_arities", "nullary_relations", "isolated_count",
                 "tail_simple", "level_props", "level_checks",
                 "_dp_plan", "_base_domains", "_dp_resolved",
                 "_strategy_cache")

    def __init__(self, source: Structure):
        self.source = source
        inter = interned(source)
        self.inter = inter
        self._dp_plan = None
        # Per-target base bitmask domains (see base_domain_masks):
        # target structure -> (feasible, tuple of masks per variable).
        self._base_domains: "OrderedDict[Structure, Tuple[bool, Tuple[int, ...]]]" \
            = OrderedDict()
        # Per-target resolved DP introduce programs (see
        # repro.hom.dpcount._resolved_intro): target structure ->
        # per-node op tuples with projections, spreads and key
        # geometry pre-bound — pure functions of (plan, target), so
        # repeat DP counts skip all per-node setup.
        self._dp_resolved: "OrderedDict[Structure, tuple]" = OrderedDict()
        facts: List[Tuple[str, Tuple[int, ...]]] = []
        nullary: List[str] = []
        for relation, row in inter.iter_facts():
            if row:
                facts.append((relation, row))
            else:
                nullary.append(relation)
        self.facts = tuple(facts)
        self.fact_arities = tuple({rel: len(row)
                                   for rel, row in facts}.items())
        self.nullary_relations = tuple(sorted(set(nullary)))

        degree: Dict[int, int] = {}
        for _, row in facts:
            for term in row:
                degree[term] = degree.get(term, 0) + 1
        self.order: Tuple[int, ...] = tuple(sorted(
            degree, key=lambda v: (-degree[v], v)
        ))
        self.isolated_count = inter.n - inter.n_active

        incident: Dict[int, List] = {v: [] for v in self.order}
        for relation, row in facts:
            at: Dict[int, List[int]] = {}
            for position, term in enumerate(row):
                at.setdefault(term, []).append(position)
            entry_needs_check = len(row) != 2 or row[0] == row[1]
            for term, positions in at.items():
                incident[term].append(
                    (relation, row, tuple(positions), entry_needs_check)
                )
        self.incident = {v: tuple(entries) for v, entries in incident.items()}

        # Level-compiled forward-checking schedules for the bitset
        # kernel.  The search assigns variables strictly in the static
        # order, so "currently assigned" when ``order[L]`` is placed is
        # exactly the prefix ``order[:L+1]`` — which neighbour
        # positions still need pruning and which facts become fully
        # decided is known at compile time, not per search node.
        # ``level_props[L]`` holds ``(relation, i, j, other_var)``
        # propagation edges fired when ``order[L]`` is assigned;
        # ``level_checks[L]`` holds ``(relation, terms)`` facts that
        # close at level ``L`` and are not already enforced by
        # propagation (arity ≠ 2 or self-loops).
        order_pos = {v: L for L, v in enumerate(self.order)}
        props: List[List[Tuple[str, int, int, int]]] = \
            [[] for _ in self.order]
        checks: List[List[Tuple[str, Tuple[int, ...]]]] = \
            [[] for _ in self.order]
        for relation, row in facts:
            if len(row) != 2 or row[0] == row[1]:
                checks[max(order_pos[t] for t in row)].append((relation, row))
            for level in sorted({order_pos[t] for t in row}):
                variable = self.order[level]
                for i, t in enumerate(row):
                    if t != variable:
                        continue
                    for j, other in enumerate(row):
                        if order_pos[other] > level:
                            props[level].append((relation, i, j, other))
        self.level_props = tuple(tuple(entries) for entries in props)
        self.level_checks = tuple(tuple(entries) for entries in checks)

        # Per-target strategy choices (see choose_strategy): the
        # cost-model verdict is a pure function of (plan, target
        # structure), so repeat counts skip both estimate loops.
        self._strategy_cache: "OrderedDict[Structure, str]" = OrderedDict()

        # The last variable in the static order can be closed
        # combinatorially when every fact incident to it is either
        # unary (already folded into the positional candidate sets) or
        # binary with distinct endpoints (already folded into the
        # forward-checking prune of the earlier endpoint).
        if self.order:
            last = self.order[-1]
            self.tail_simple = all(
                len(terms) == 1
                or (len(terms) == 2 and terms[0] != terms[1])
                for _, terms, _, _ in self.incident[last]
            )
        else:
            self.tail_simple = False

    def dp_plan(self):
        """The (lazily built, cached) tree-decomposition DP schedule.

        Shared across every target the source is counted into — the
        decomposition depends on the source alone.
        """
        plan = self._dp_plan
        if plan is None:
            from repro.hom.dpcount import build_dp_plan

            plan = build_dp_plan(self.source, self)
            self._dp_plan = plan
        return plan

    # Per-plan, a handful of distinct targets covers every realistic
    # request stream (the engine's own target LRU is the big cache);
    # the bound only stops a pathological many-target caller from
    # pinning arbitrarily many structures through their plans.
    _BASE_DOMAIN_CACHE = 8

    def base_domain_masks(self, index: "TargetIndex"):
        """Base bitmask domains of this plan against one target.

        ``(feasible, masks)`` where ``masks[var]`` is the intersection
        of the target's positional candidate bitsets over every
        occurrence of ``var`` in this plan's facts — the domains every
        count against that target starts from.  A pure function of
        ``(self, index.structure)``, so it is cached per target
        structure (LRU-bounded on the plan, evicted with the plan
        itself): repeat counts against the same target skip the whole
        intersection loop.  ``feasible`` is ``False`` when some domain
        came up empty (the count is 0 regardless of ``first_only``).
        Callers must not mutate the returned tuple's masks in place —
        they are ints, so ordinary rebinding is always safe.
        """
        key = index.structure
        cache = self._base_domains
        entry = cache.get(key)
        if entry is not None:
            cache.move_to_end(key)
            return entry
        position_mask = index.position_mask
        masks: List = [None] * self.inter.n_active
        feasible = True
        for relation, terms in self.facts:
            for i, term in enumerate(terms):
                allowed = position_mask(relation, i)
                if allowed is None:
                    feasible = False
                    break
                current = masks[term]
                masks[term] = allowed if current is None \
                    else current & allowed
            if not feasible:
                break
        if feasible:
            feasible = all(masks)
        entry = (feasible, tuple(masks) if feasible else ())
        cache[key] = entry
        if len(cache) > self._BASE_DOMAIN_CACHE:
            cache.popitem(last=False)
        return entry


@lru_cache(maxsize=4096)
def source_plan(source: Structure) -> SourcePlan:
    """The (cached) compiled plan of a source structure."""
    return SourcePlan(source)


@lru_cache(maxsize=1024)
def target_index(target: Structure) -> TargetIndex:
    """The (cached) compiled index of a target structure.

    Like :func:`~repro.structures.interned.interned`,
    :func:`~repro.structures.canonical.canonical_key` and
    :func:`source_plan`, the compiled target is a pure function of the
    (immutable, hashable) structure, so one build is shared
    process-wide: engines and sessions that come and go — batch
    workers, per-request service sessions, ``clear()``-ed benches —
    reuse the index *and* its lazily grown projection maps and bitmask
    twins instead of recompiling the same target.  Engines keep their
    own LRU view on top (``max_targets``) for per-engine accounting.
    """
    return TargetIndex(target)


def count_with_index(source: Structure, index: TargetIndex,
                     first_only: bool = False,
                     strategy: str = "auto") -> int:
    """``|hom(source, index.structure)|`` via the compiled plan.

    ``first_only`` turns the counter into an existence test: it returns
    1 as soon as any homomorphism is found (0 otherwise).  ``strategy``
    picks the backend (see :func:`count_plan`).
    """
    return count_plan(source_plan(source), index, first_only, strategy)


def _estimate_backtrack_cost(plan: SourcePlan, index: TargetIndex) -> float:
    """Branching-degree-product estimate of the backtracking tree size.

    Level by level down the static variable order: the first value of a
    variable's branching bound is its smallest positional candidate
    set; once an already-assigned neighbour constrains it through a
    shared fact, the bound drops to that relation's average fan-out
    (``|tuples| / |distinct values at the assigned position|``).  The
    per-level products are summed, approximating the number of search
    nodes.  Fan-outs below 1 are kept (floored at 0.5): they model the
    early die-off forward checking actually delivers on sparse targets.
    """
    domain_size = float(index.domain_size)
    positions = index.positions
    tuples = index.tuples
    total = 1.0
    level = 1.0
    assigned: set = set()
    for variable in plan.order:
        branching = domain_size
        for relation, terms, var_positions, _ in plan.incident[variable]:
            fact_count = len(tuples.get(relation, ()))
            for i in var_positions:
                allowed = positions.get((relation, i))
                if allowed is not None:
                    branching = min(branching, float(len(allowed)))
            for j, term in enumerate(terms):
                if term != variable and term in assigned:
                    anchors = len(positions.get((relation, j), ())) or 1
                    branching = min(branching, fact_count / anchors)
        level *= max(branching, 0.5)
        total += level
        if total > 1e18:  # saturate: past any DP cost by then anyway
            return 1e18
        assigned.add(variable)
    return total


def _estimate_dp_cost(dp_plan, index: TargetIndex) -> float:
    """``Σ nodes·|B|^bagsize`` — the DP's table-work bound."""
    domain_size = max(1.0, float(index.domain_size))
    cost = 0.0
    for size, count in dp_plan.size_histogram.items():
        cost += count * domain_size ** size
        if cost > 1e18:
            return 1e18
    return cost


def choose_strategy(plan: SourcePlan, index: TargetIndex,
                    first_only: bool = False) -> str:
    """Cost-based backend choice for one ``(source, target)`` pair.

    Existence probes always backtrack (they short-circuit on the first
    homomorphism; the DP cannot).  Tiny sources and cheap searches
    backtrack without ever paying for a decomposition; otherwise the
    decomposition is built once (cached on the plan) and the two cost
    estimates are compared.  The verdict is a pure function of
    ``(plan, index.structure)``, so it is cached on the plan (same
    LRU bound as the base-domain masks): hot request streams pay the
    estimate loops once per (source, target) pair.
    """
    if first_only or len(plan.order) < _DP_MIN_VARS:
        return "backtrack"
    cache = plan._strategy_cache
    key = index.structure
    cached = cache.get(key)
    if cached is not None:
        cache.move_to_end(key)
        return cached
    choice = "backtrack"
    backtrack_cost = _estimate_backtrack_cost(plan, index)
    if backtrack_cost > _BACKTRACK_CHEAP_FLOOR:
        try:
            dp = plan.dp_plan()
        except ReproError:  # decomposition failed: never block counting
            dp = None
        if dp is not None and \
                _estimate_dp_cost(dp, index) * _DP_COST_BIAS < backtrack_cost:
            choice = "dp"
    cache[key] = choice
    if len(cache) > SourcePlan._BASE_DOMAIN_CACHE:
        cache.popitem(last=False)
    return choice


def count_plan(plan: SourcePlan, index: TargetIndex,
               first_only: bool = False, strategy: str = "auto") -> int:
    """Count through a compiled plan with explicit backend control.

    ``strategy`` is ``"auto"`` (cost-based choice), ``"backtrack"`` or
    ``"dp"``.  A forced ``"dp"`` existence probe computes the full
    count and thresholds it — still exact, just not short-circuiting.
    """
    if strategy == "auto":
        strategy = choose_strategy(plan, index, first_only)
    elif strategy not in STRATEGIES:
        raise ReproError(
            f"unknown counting strategy {strategy!r}; "
            f"expected one of {STRATEGIES}")
    if strategy == "dp":
        from repro.hom.dpcount import count_plan_dp

        result = count_plan_dp(plan, index)
        return (1 if result else 0) if first_only else result
    return _count(plan, index, first_only)


def _preamble_guards(plan: SourcePlan, index: TargetIndex, first_only: bool):
    """The search-free decisions shared by both preambles.

    ``(decided, free_factor)``: ``decided`` is the final count when the
    question settles before any candidate machinery (0-ary fact
    missing, arity mismatch, variable-free source), otherwise ``None``
    with the isolated-element multiplier the caller applies.
    """
    tuples = index.tuples
    # 0-ary facts of the source must literally be present in the target;
    # this runs before any candidate machinery is built.
    for relation in plan.nullary_relations:
        present = tuples.get(relation)
        if not present or () not in present:
            return 0, 1

    # Arity guard: a fact R(t̄) can only map onto same-arity R-facts.
    # The positional filters below assume matching arities (a wider
    # target relation would otherwise satisfy every position), so a
    # mismatch is decided here: no homomorphism maps the fact.
    target_arities = index.arities
    for relation, arity in plan.fact_arities:
        if target_arities.get(relation) != arity:
            return 0, 1

    if plan.isolated_count and not first_only:
        if index.domain_size == 0:
            return 0, 1
        free_factor = index.domain_size ** plan.isolated_count
    elif plan.isolated_count and index.domain_size == 0:
        return 0, 1
    else:
        free_factor = 1
    if not plan.order:
        return (1 if first_only else free_factor), free_factor
    return None, free_factor


def _plan_preamble(plan: SourcePlan, index: TargetIndex, first_only: bool):
    """The shared pre-search phase of both bit-parallel backends.

    Returns ``(decided, domains, free_factor)``: when ``decided`` is
    not ``None`` the count is fully determined before any search;
    otherwise ``domains`` is a mutable list mapping each source
    variable (a dense int) to its candidate *bitset*.  The base masks
    come from the per-target cache on the plan
    (:meth:`SourcePlan.base_domain_masks`), so only the first count
    against a target pays the intersection loop.
    """
    decided, free_factor = _preamble_guards(plan, index, first_only)
    if decided is not None or not plan.order:
        return decided, None, free_factor
    feasible, base = plan.base_domain_masks(index)
    if not feasible:
        return 0, None, free_factor
    return None, list(base), free_factor


def _plan_preamble_sets(plan: SourcePlan, index: TargetIndex,
                        first_only: bool):
    """:func:`_plan_preamble` over set domains — the fallback kernels'
    preamble (domains as ``{variable: set of values}``), also the
    ablation reference the bench suite times the bitsets against."""
    decided, free_factor = _preamble_guards(plan, index, first_only)
    if decided is not None or not plan.order:
        return decided, None, free_factor

    # Positional candidate sets (intersection over every occurrence).
    positions = index.positions
    domains: Dict[Constant, set] = {}
    for relation, terms in plan.facts:
        for i, term in enumerate(terms):
            allowed = positions.get((relation, i))
            if allowed is None:
                return 0, None, free_factor
            current = domains.get(term)
            if current is None:
                domains[term] = set(allowed)
            else:
                current &= allowed
    for variable in plan.order:
        if not domains[variable]:
            return 0, None, free_factor
    return None, domains, free_factor


def _count(plan: SourcePlan, index: TargetIndex, first_only: bool) -> int:
    """Backtracking count: bitset kernel, set kernel past the cap."""
    if should_inject("engine.step"):
        raise injected_exceeded()
    if index.domain_size > _BITSET_MAX_DOMAIN:
        _BITSET_COUNTERS["fallbacks"] += 1
        return _count_sets(plan, index, first_only)
    return _count_bitset(plan, index, first_only)


def _count_bitset(plan: SourcePlan, index: TargetIndex,
                  first_only: bool) -> int:
    """Forward-checking backtracking over bitset domains.

    Semantically identical to :func:`_count_sets` — the candidate sets
    are the same sets, just packed — with three representation wins:
    propagation is ``old & allowed`` on two ints, the undo trail is a
    flat list of ``(variable, old_mask)`` int pairs (no set copies),
    and level iteration scans set bits from the least-significant end,
    so candidates are visited in deterministic ascending value order.
    """
    decided, domains, free_factor = _plan_preamble(plan, index, first_only)
    if decided is not None:
        return decided
    order = plan.order
    n = len(order)

    if n == 1 and plan.tail_simple:
        size = domains[order[0]].bit_count()
        return (1 if size else 0) if first_only else size * free_factor

    # Resolve the plan's level-compiled schedules against this target
    # once per count: propagation edges become (projection-dict, var)
    # pairs, closing checks become (row-set, terms) pairs.  The search
    # loop below then runs with zero per-node membership probes — no
    # "which neighbours are unassigned" recomputation, no assignment
    # dict; the assignment is a flat list indexed by variable (stale
    # slots above the current level are never read, because a level's
    # checks only touch variables at or below it).
    pair_bits = index.pair_bits
    tuples = index.tuples
    prop_ops = [tuple((pair_bits(rel, i, j), other)
                      for rel, i, j, other in entries)
                for entries in plan.level_props]
    check_ops = [tuple((tuples.get(rel, _EMPTY), terms)
                       for rel, terms in entries)
                 for entries in plan.level_checks]
    assign: List[int] = [0] * plan.inter.n_active
    propagations = 0
    budget = active_budget()
    nodes = 0

    total = 0
    last = n - 1
    tail_simple = plan.tail_simple
    remaining: List[int] = [0] * n
    trails: List = [None] * n
    remaining[0] = domains[order[0]]
    level = 0
    while level >= 0:
        variable = order[level]
        checks = check_ops[level]
        props = prop_ops[level]
        mask = remaining[level]
        trail = None
        while mask:
            # Budget check once per 1024 search nodes: one increment
            # and one int AND per node, the Budget consult amortized
            # past the bench gate's ≤2% envelope (DESIGN.md §14).
            nodes += 1
            if not nodes & 1023 and budget is not None:
                budget.charge(1024)
            low = mask & -mask
            mask ^= low
            value = low.bit_length() - 1
            assign[variable] = value
            if checks:
                ok = True
                for rows, terms in checks:
                    if tuple(assign[t] for t in terms) not in rows:
                        ok = False
                        break
                if not ok:
                    continue
            trail = []
            for projection, other in props:
                allowed = projection.get(value, 0)
                old = domains[other]
                new = old & allowed
                if new == old:
                    continue
                trail.append((other, old))
                domains[other] = new
                if not new:
                    propagations += len(trail)
                    for o, m in reversed(trail):
                        domains[o] = m
                    trail = None
                    break
            if trail is not None:
                propagations += len(trail)
                break
        remaining[level] = mask
        if trail is None:
            # level exhausted: backtrack
            level -= 1
            if level >= 0:
                for other, old in reversed(trails[level]):
                    domains[other] = old
            continue
        if level == last:
            total += 1
            for other, old in reversed(trail):
                domains[other] = old
            if first_only:
                _BITSET_COUNTERS["propagations"] += propagations
                return 1
            continue
        trails[level] = trail
        if level + 1 == last and tail_simple:
            # Every remaining constraint on the last variable has been
            # folded into its pruned candidate set: close combinatorially.
            total += domains[order[last]].bit_count()
            for other, old in reversed(trail):
                domains[other] = old
            if first_only and total:
                _BITSET_COUNTERS["propagations"] += propagations
                return 1
            continue
        level += 1
        remaining[level] = domains[order[level]]
    _BITSET_COUNTERS["propagations"] += propagations
    return (1 if total else 0) if first_only else total * free_factor


def _count_sets(plan: SourcePlan, index: TargetIndex,
                first_only: bool) -> int:
    decided, domains, free_factor = _plan_preamble_sets(plan, index,
                                                       first_only)
    if decided is not None:
        return decided
    tuples = index.tuples
    order = plan.order
    n = len(order)

    if n == 1 and plan.tail_simple:
        size = len(domains[order[0]])
        return (1 if size else 0) if first_only else size * free_factor

    incident = plan.incident
    pair_map = index.pair_map
    assignment: Dict[Constant, Constant] = {}

    def try_assign(variable: Constant, value: Constant):
        """Assign and forward-check; returns the undo trail, or None on
        failure (with all effects rolled back)."""
        assignment[variable] = value
        trail: List[Tuple[Constant, set]] = []
        for relation, terms, var_positions, needs_check in incident[variable]:
            unassigned = [j for j, t in enumerate(terms) if t not in assignment]
            if not unassigned:
                if needs_check:
                    image = tuple(assignment[t] for t in terms)
                    if image not in tuples.get(relation, _EMPTY):
                        break
                continue
            failed = False
            for i in var_positions:
                for j in unassigned:
                    other = terms[j]
                    allowed = pair_map(relation, i, j).get(value)
                    old = domains[other]
                    if allowed is None:
                        new: set = set()
                    else:
                        new = old & allowed
                        if len(new) == len(old):
                            continue
                    trail.append((other, old))
                    domains[other] = new
                    if not new:
                        failed = True
                        break
                if failed:
                    break
            if failed:
                break
        else:
            return trail
        for other, old in reversed(trail):
            domains[other] = old
        del assignment[variable]
        return None

    total = 0
    last = n - 1
    tail_simple = plan.tail_simple
    budget = active_budget()
    nodes = 0
    iters: List = [None] * n
    trails: List = [None] * n
    iters[0] = iter(domains[order[0]])
    level = 0
    while level >= 0:
        variable = order[level]
        trail = None
        for value in iters[level]:
            # Same 1024-node budget stride as the bitset kernel.
            nodes += 1
            if not nodes & 1023 and budget is not None:
                budget.charge(1024)
            trail = try_assign(variable, value)
            if trail is not None:
                break
        if trail is None:
            # level exhausted: backtrack
            level -= 1
            if level >= 0:
                for other, old in reversed(trails[level]):
                    domains[other] = old
                del assignment[order[level]]
            continue
        if level == last:
            total += 1
            for other, old in reversed(trail):
                domains[other] = old
            del assignment[variable]
            if first_only:
                return 1
            continue
        trails[level] = trail
        if level + 1 == last and tail_simple:
            # Every remaining constraint on the last variable has been
            # folded into its pruned candidate set: close combinatorially.
            tail = len(domains[order[last]])
            total += tail
            for other, old in reversed(trail):
                domains[other] = old
            del assignment[variable]
            if first_only and total:
                return 1
            continue
        level += 1
        iters[level] = iter(domains[order[level]])
    return (1 if total else 0) if first_only else total * free_factor


class HomEngine:
    """Shared counting engine: compiled targets + canonical memoization.

    One engine object replaces the ad-hoc ``CountCache`` dictionaries
    that used to be threaded through the decision procedure, the
    witness verifier, the good-basis search and the refuter.  The memo
    is keyed by the canonical byte key of each source component
    (:func:`repro.structures.canonical.canonical_key`), so isomorphic
    components (rampant in workloads assembled from a small component
    pool) share one count — one dict probe, no bucket scan, no
    pairwise isomorphism test.  Both caches are LRU-bounded.
    """

    __slots__ = ("_counts", "_targets", "_exists",
                 "max_counts", "max_targets",
                 "store", "strategy", "width_histogram", "metrics",
                 "_m_hits", "_m_misses", "_m_exists_hits",
                 "_m_exists_misses", "_m_store_hits", "_m_store_misses",
                 "_m_dp", "_m_backtrack")

    def __init__(self, max_counts: int = 16384, max_targets: int = 512,
                 store=None, strategy: str = "auto"):
        if strategy not in STRATEGIES:
            raise ReproError(
                f"unknown counting strategy {strategy!r}; "
                f"expected one of {STRATEGIES}")
        self.max_counts = max_counts
        self.max_targets = max_targets
        # Backend override: "auto" picks per (source, target) pair by
        # estimated cost; "backtrack"/"dp" force one backend for every
        # count this engine performs (ablations, debugging).
        self.strategy = strategy
        # Decomposition widths of DP-executed counts — the observable
        # that tells an operator *why* the DP path was worth taking.
        # Kept as an exact dict (widths are tiny ints; log2 buckets
        # would destroy the signal) and exported into the registry as
        # per-width counters.
        self.width_histogram: Dict[int, int] = {}
        self._counts: "OrderedDict[Tuple[bytes, Structure], int]" = OrderedDict()
        self._targets: "OrderedDict[Structure, TargetIndex]" = OrderedDict()
        self._exists: "OrderedDict[Tuple[Structure, Structure], bool]" = OrderedDict()
        # Every counter lives in the metrics registry under the
        # namespaced schema (repro.obs); the hot loops increment the
        # Counter objects directly (one attribute store, same cost as
        # the plain ints they replaced) and the legacy attribute names
        # (``engine.hits`` …) survive as read-only properties.
        metrics = MetricsRegistry()
        self.metrics = metrics
        self._m_hits = metrics.counter("engine.memo.hits")
        self._m_misses = metrics.counter("engine.memo.misses")
        self._m_exists_hits = metrics.counter("engine.exists.hits")
        self._m_exists_misses = metrics.counter("engine.exists.misses")
        self._m_store_hits = metrics.counter("engine.store.hits")
        self._m_store_misses = metrics.counter("engine.store.misses")
        self._m_dp = metrics.counter("engine.count.dp")
        self._m_backtrack = metrics.counter("engine.count.backtrack")
        metrics.gauge("engine.memo.entries", lambda: len(self._counts))
        metrics.gauge("engine.exists.entries", lambda: len(self._exists))
        metrics.gauge("engine.targets.compiled", lambda: len(self._targets))
        metrics.register_collector(self._collect_counters, monotonic=True)
        metrics.register_collector(self._collect_gauges, monotonic=False)
        # Optional persistent second-level cache (duck-typed: anything
        # with ``lookup(component, leaf) -> Optional[int]`` and
        # ``record(component, leaf, count)``; implementations may also
        # provide ``lookup_exists``/``record_exists`` for the
        # Chandra–Merlin probes and ``flush``; see
        # :class:`repro.batch.store.TieredHomStore`).  Consulted on
        # in-memory misses and fed every freshly computed count, so a
        # warm store survives the process and is shared across worker
        # processes of a batch run.
        self.store = store

    # Legacy attribute surface over the registry-homed counters.
    @property
    def hits(self) -> int:
        return self._m_hits.value

    @property
    def misses(self) -> int:
        return self._m_misses.value

    @property
    def exists_hits(self) -> int:
        return self._m_exists_hits.value

    @property
    def exists_misses(self) -> int:
        return self._m_exists_misses.value

    @property
    def store_hits(self) -> int:
        return self._m_store_hits.value

    @property
    def store_misses(self) -> int:
        return self._m_store_misses.value

    @property
    def dp_counts(self) -> int:
        return self._m_dp.value

    @property
    def backtrack_counts(self) -> int:
        return self._m_backtrack.value

    def _collect_counters(self) -> Dict[str, int]:
        """Monotonic registry entries sourced from shared module-wide
        layers (intern / canonical / bitset) plus the exact per-width
        DP counters — all under the namespaced schema."""
        interning = intern_stats()
        canonical = canonical_stats()
        bitset = bitset_stats()
        budget = budget_stats()
        report = {
            "intern.structures": interning["structures"],
            "intern.hits": interning["hits"],
            "canonical.keys": canonical["keys"],
            "canonical.hits": canonical["hits"],
            "bitset.propagations": bitset["propagations"],
            "bitset.fallbacks": bitset["fallbacks"],
            "dp.packed.fallbacks": bitset["dp_fallbacks"],
            "budget.exceeded_deadline": budget["exceeded_deadline"],
            "budget.exceeded_steps": budget["exceeded_steps"],
            "budget.injected": budget["injected"],
            "budget.degraded": budget["degraded"],
        }
        for width, count in self.width_histogram.items():
            report[f"engine.dp.width.{width}"] = count
        return report

    def _collect_gauges(self) -> Dict[str, int]:
        bitset = bitset_stats()
        return {
            "intern.cached": intern_stats()["cached"],
            "canonical.cached": canonical_stats()["cached"],
            "dp.packed.peak_entries": bitset["dp_peak_entries"],
        }

    # ------------------------------------------------------------------
    # Compiled targets
    # ------------------------------------------------------------------
    def target_index(self, target: Structure) -> TargetIndex:
        index = self._targets.get(target)
        if index is None:
            with span("plan"):
                index = target_index(target)
            self._targets[target] = index
            if len(self._targets) > self.max_targets:
                self._targets.popitem(last=False)
        else:
            self._targets.move_to_end(target)
        return index

    # ------------------------------------------------------------------
    # Counting
    # ------------------------------------------------------------------
    def count_connected_leaf(self, component: Structure,
                             leaf: Structure) -> int:
        """``|hom(component, leaf)|`` for a single component, memoized
        up to isomorphism of the component (canonical byte key)."""
        if not component.facts():
            # Isolated vertices only: pure domain-size power.
            return len(leaf.domain()) ** len(component.domain())
        key = (canonical_key(component), leaf)
        cached = self._counts.get(key)
        if cached is not None:
            self._counts.move_to_end(key)
            self._m_hits.value += 1
            return cached
        self._m_misses.value += 1
        result = None
        if self.store is not None:
            with span("store"):
                result = self.store.lookup(component, leaf)
            if result is None:
                self._m_store_misses.value += 1
            else:
                self._m_store_hits.value += 1
        if result is None:
            result = self._dispatch(source_plan(component),
                                    self.target_index(leaf), False)
            if self.store is not None:
                with span("store"):
                    self.store.record(component, leaf, result)
        self._counts[key] = result
        if len(self._counts) > self.max_counts:
            self._counts.popitem(last=False)
        return result

    def _dispatch(self, plan: SourcePlan, index: TargetIndex,
                  first_only: bool) -> int:
        """Run one count through the selected backend, keeping the
        per-strategy counters and the width histogram current."""
        strategy = self.strategy
        if strategy == "auto":
            strategy = choose_strategy(plan, index, first_only)
        if strategy == "dp":
            from repro.hom.dpcount import count_plan_dp

            self._m_dp.value += 1
            width = plan.dp_plan().width
            self.width_histogram[width] = \
                self.width_histogram.get(width, 0) + 1
            try:
                with span("count.dp"):
                    result = count_plan_dp(plan, index)
            except BudgetExceeded as exc:
                # Graceful degradation (DESIGN.md §14, auto mode only):
                # the DP's table-size bet went wrong, but the request's
                # wall clock may still have room for the O(n)-memory
                # backtracking backend — retry once under the deadline
                # alone.  A forced-dp engine re-raises: the caller asked
                # for that backend specifically.
                if self.strategy != "auto" or not may_degrade(exc):
                    raise
                self._m_backtrack.value += 1
                with span("count.backtrack"):
                    result = _count(plan, index, first_only)
            return (1 if result else 0) if first_only else result
        self._m_backtrack.value += 1
        with span("count.backtrack"):
            return _count(plan, index, first_only)

    def seed_count(self, component: Structure, leaf: Structure,
                   value: int) -> None:
        """Pre-populate the memo with an externally known count.

        Used by persistent stores to warm-start a fresh engine (e.g. a
        new batch worker) without re-running the counter.  The entry is
        keyed through :func:`canonical_key` exactly like computed
        counts.
        """
        self.seed_count_key(canonical_key(component), leaf, value)

    def seed_count_key(self, key: bytes, leaf: Structure,
                       value: int) -> None:
        """Pre-populate the memo by canonical key directly.

        The persistent store records canonical keys, not source
        structures, so a warm start never needs to decode (or even
        possess) a source — the key *is* the identity.
        """
        entry = (key, leaf)
        self._counts[entry] = value
        if len(self._counts) > self.max_counts:
            self._counts.popitem(last=False)

    def count(self, source: Structure, target) -> int:
        """``|hom(source, target)|`` — component factorization plus the
        Lemma 4 expression calculus, all memoized through this engine.
        ``target`` may be a Structure or a lazy StructureExpression."""
        from repro.hom.count import count_homs

        return count_homs(source, target, self)

    def exists(self, source: Structure, target: Structure) -> bool:
        """Memoized homomorphism-existence test (Chandra–Merlin probe)."""
        key = (source, target)
        cached = self._exists.get(key)
        if cached is not None:
            self._exists.move_to_end(key)
            self._m_exists_hits.value += 1
            return cached
        self._m_exists_misses.value += 1
        result = None
        if self.store is not None:
            lookup = getattr(self.store, "lookup_exists", None)
            if lookup is not None:
                with span("store"):
                    result = lookup(source, target)
                if result is None:
                    self._m_store_misses.value += 1
                else:
                    self._m_store_hits.value += 1
        if result is None:
            result = self._dispatch(source_plan(source),
                                    self.target_index(target), True) > 0
            if self.store is not None:
                record = getattr(self.store, "record_exists", None)
                if record is not None:
                    record(source, target, result)
        self._exists[key] = result
        if len(self._exists) > self.max_counts:
            self._exists.popitem(last=False)
        return result

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def attach_store(self, store) -> None:
        """Attach a persistent second-level count store (see ``store``)."""
        self.store = store

    def detach_store(self) -> None:
        self.store = None

    def flush_store(self) -> None:
        """Flush buffered writes of the attached store, if any."""
        if self.store is not None:
            flush = getattr(self.store, "flush", None)
            if flush is not None:
                flush()

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def stats(self, flat: bool = False) -> Dict[str, object]:
        """Engine statistics.

        ``flat=True`` returns the namespaced registry snapshot (the
        documented metric schema, :mod:`repro.obs`); the default is
        the legacy nested shape every pre-observability caller reads.
        Both are sourced from the same registry-homed counters.
        """
        if flat:
            return self.metrics.snapshot()
        return {
            "hits": self.hits,
            "misses": self.misses,
            "exists_hits": self.exists_hits,
            "exists_misses": self.exists_misses,
            "store_hits": self.store_hits,
            "store_misses": self.store_misses,
            "cached_counts": len(self._counts),
            "compiled_targets": len(self._targets),
            # The intern and canonical-label layers are module-wide
            # (shared by every engine in the process); their counters
            # are surfaced here because the engine is what drives them.
            "interning": intern_stats(),
            "canonical": canonical_stats(),
            "bitset": bitset_stats(),
            "budget": budget_stats(),
            "dp_counts": self.dp_counts,
            "backtrack_counts": self.backtrack_counts,
            "width_histogram": dict(self.width_histogram),
        }

    def clear(self) -> None:
        """Drop all in-memory caches (the attached store is untouched)."""
        self._counts.clear()
        self._targets.clear()
        self._exists.clear()
        for counter in (self._m_hits, self._m_misses, self._m_exists_hits,
                        self._m_exists_misses, self._m_store_hits,
                        self._m_store_misses, self._m_dp,
                        self._m_backtrack):
            counter.reset()
        self.width_histogram.clear()

    def __repr__(self) -> str:
        return (f"HomEngine(counts={len(self._counts)}, "
                f"targets={len(self._targets)}, hits={self.hits}, "
                f"misses={self.misses})")


def default_engine() -> HomEngine:
    """The process-wide shared engine (LRU-bounded, safe to keep).

    Compatibility shim: the engine is owned by the module-level default
    :class:`~repro.session.SolverSession`, so legacy callers and
    session-aware callers that pass no session always share one memo.
    Prefer an explicit session (``session=`` on every decision entry
    point) for anything beyond a one-shot script.
    """
    from repro.session import default_session

    return default_session().engine
