"""Conjunctive queries.

A conjunctive query ``Φ = ∃ȳ φ(x̄, ȳ)`` (paper Section 2.1) is a
conjunction of atoms over free variables ``x̄`` and existential
variables ``ȳ``.  Its *frozen body* is the structure obtained by
freezing every variable into a fresh constant; a CQ with no free
variables is *boolean* and is identified with its frozen body
throughout the paper (and throughout this library).

Design notes
------------
* Variables are plain strings.  Frozen constants are ``("var", name)``
  pairs so they can never collide with user data constants.
* A variable may legally appear in no atom; it then survives as an
  isolated element of the frozen body's domain and contributes a factor
  ``|dom(D)|`` to every answer count, matching the homomorphism
  definition of the semantics.
* Queries are immutable, hashable, and compare *syntactically* (same
  atoms, same free tuple).  Semantic comparisons (equivalence,
  isomorphism of frozen bodies) live in :mod:`repro.hom.containment`.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.errors import QueryError
from repro.structures.schema import Schema
from repro.structures.structure import Fact, Structure

Variable = str
FROZEN_TAG = "var"


class Atom:
    """A query atom ``R(x1, ..., xk)`` over variables."""

    __slots__ = ("relation", "variables")

    def __init__(self, relation: str, variables: Sequence[Variable] = ()):
        if not relation or not isinstance(relation, str):
            raise QueryError(f"atom relation must be a non-empty string, got {relation!r}")
        for variable in variables:
            if not isinstance(variable, str) or not variable:
                raise QueryError(f"variables must be non-empty strings, got {variable!r}")
        self.relation = relation
        self.variables = tuple(variables)

    @property
    def arity(self) -> int:
        return len(self.variables)

    def to_fact(self) -> Fact:
        """Freeze the atom: each variable becomes the constant ('var', name)."""
        return Fact(self.relation, tuple((FROZEN_TAG, v) for v in self.variables))

    def rename(self, mapping: Dict[Variable, Variable]) -> "Atom":
        return Atom(self.relation, tuple(mapping.get(v, v) for v in self.variables))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Atom):
            return NotImplemented
        return self.relation == other.relation and self.variables == other.variables

    def __hash__(self) -> int:
        return hash((self.relation, self.variables))

    def __repr__(self) -> str:
        return f"Atom({self.relation!r}, {self.variables!r})"

    def __str__(self) -> str:
        return f"{self.relation}({', '.join(self.variables)})"


class ConjunctiveQuery:
    """An immutable conjunctive query.

    Parameters
    ----------
    atoms:
        The conjunction body (duplicate atoms collapse — the body is a
        set of atoms, as in the paper where boolean CQs *are* their
        frozen bodies, which are fact sets).
    free:
        The tuple of free (answer) variables.  Empty = boolean.
    extra_variables:
        Existential variables that appear in no atom (rare but legal).
    schema:
        Optional schema to validate arities against.

    >>> q = ConjunctiveQuery([Atom('R', ('x', 'y'))], free=('x',))
    >>> q.arity, q.is_boolean()
    (1, False)
    """

    __slots__ = ("atoms", "free", "extra_variables", "_schema", "_frozen")

    def __init__(
        self,
        atoms: Iterable[Atom | Tuple[str, Sequence[Variable]]],
        free: Sequence[Variable] = (),
        extra_variables: Iterable[Variable] = (),
        schema: Optional[Schema] = None,
    ):
        normalized: List[Atom] = []
        for atom in atoms:
            if isinstance(atom, Atom):
                normalized.append(atom)
            else:
                relation, variables = atom
                normalized.append(Atom(relation, variables))
        self.atoms = frozenset(normalized)

        seen_arities: Dict[str, int] = {}
        # In the caller's order, not the set's: an error names the same
        # atoms under every hash seed.
        for atom in normalized:
            previous = seen_arities.get(atom.relation)
            if previous is not None and previous != atom.arity:
                raise QueryError(
                    f"relation {atom.relation!r} used with arities {previous} and {atom.arity}"
                )
            seen_arities[atom.relation] = atom.arity
            if schema is not None:
                if atom.relation not in schema:
                    raise QueryError(f"atom relation {atom.relation!r} not in schema")
                if schema.arity(atom.relation) != atom.arity:
                    raise QueryError(
                        f"atom {atom} contradicts schema arity "
                        f"{schema.arity(atom.relation)}"
                    )

        body_variables = {v for atom in self.atoms for v in atom.variables}
        self.free = tuple(free)
        extra = tuple(extra_variables)
        for variable in self.free + extra:
            if not isinstance(variable, str) or not variable:
                raise QueryError(f"variables must be non-empty strings, got {variable!r}")
        duplicates = len(self.free) != len(set(self.free))
        if duplicates:
            raise QueryError(f"free variables must be distinct, got {self.free}")
        missing_free = [v for v in self.free if v not in body_variables]
        self.extra_variables = frozenset(extra) | frozenset(missing_free)
        self._schema = schema
        self._frozen: Optional[Structure] = None

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def arity(self) -> int:
        return len(self.free)

    def is_boolean(self) -> bool:
        return not self.free

    def variables(self) -> FrozenSet[Variable]:
        """All variables: body plus extra isolated ones."""
        body = {v for atom in self.atoms for v in atom.variables}
        return frozenset(body) | self.extra_variables

    def existential_variables(self) -> FrozenSet[Variable]:
        return self.variables() - set(self.free)

    def schema(self) -> Schema:
        """Declared schema, or the schema inferred from the atoms."""
        if self._schema is not None:
            return self._schema
        return Schema({atom.relation: atom.arity for atom in self.atoms})

    def has_nullary_atom(self) -> bool:
        return any(atom.arity == 0 for atom in self.atoms)

    # ------------------------------------------------------------------
    # Freezing
    # ------------------------------------------------------------------
    def frozen_body(self) -> Structure:
        """The frozen body (paper Sec 2.1): variables become constants.

        Isolated variables survive as isolated domain elements.  The
        structure is built once and cached (queries are immutable); it
        is the key under which every downstream cache — hom counts,
        components, invariants — recognizes this query.
        """
        frozen = self._frozen
        if frozen is None:
            facts = [atom.to_fact() for atom in self.atoms]
            domain = [(FROZEN_TAG, v) for v in self.variables()]
            frozen = Structure(facts, schema=self._schema, domain=domain)
            self._frozen = frozen
        return frozen

    def frozen_free_tuple(self) -> Tuple:
        """The frozen constants of the free variables, in order."""
        return tuple((FROZEN_TAG, v) for v in self.free)

    # ------------------------------------------------------------------
    # Rewriting helpers
    # ------------------------------------------------------------------
    def rename_variables(self, mapping: Dict[Variable, Variable]) -> "ConjunctiveQuery":
        image = [mapping.get(v, v) for v in self.variables()]
        if len(set(image)) != len(image):
            raise QueryError("variable renaming must be injective")
        return ConjunctiveQuery(
            [atom.rename(mapping) for atom in self.atoms],
            free=tuple(mapping.get(v, v) for v in self.free),
            extra_variables=[mapping.get(v, v) for v in self.extra_variables],
            schema=self._schema,
        )

    def boolean_closure(self) -> "ConjunctiveQuery":
        """Existentially close all free variables."""
        return ConjunctiveQuery(self.atoms, free=(),
                                extra_variables=self.extra_variables,
                                schema=self._schema)

    def conjoin(self, other: "ConjunctiveQuery") -> "ConjunctiveQuery":
        """Conjunction of two queries (variables shared by name)."""
        return ConjunctiveQuery(
            list(self.atoms) + list(other.atoms),
            free=self.free + tuple(v for v in other.free if v not in self.free),
            extra_variables=self.extra_variables | other.extra_variables,
            schema=self._schema,
        )

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConjunctiveQuery):
            return NotImplemented
        return (self.atoms == other.atoms and self.free == other.free
                and self.extra_variables == other.extra_variables)

    def __hash__(self) -> int:
        return hash((self.atoms, self.free, self.extra_variables))

    def __repr__(self) -> str:
        atoms = ", ".join(sorted(str(a) for a in self.atoms))
        if self.free:
            return f"CQ({', '.join(self.free)} | {atoms})"
        return f"BooleanCQ({atoms})"

    def __str__(self) -> str:
        return repr(self)


def boolean_cq(atoms: Iterable[Atom | Tuple[str, Sequence[Variable]]],
               schema: Optional[Schema] = None) -> ConjunctiveQuery:
    """Shorthand for a boolean conjunctive query."""
    return ConjunctiveQuery(atoms, free=(), schema=schema)


def cq_from_structure(structure: Structure) -> ConjunctiveQuery:
    """The canonical boolean CQ of a structure (inverse of freezing).

    Each constant becomes a variable named after its ``repr``; the
    resulting query's frozen body is isomorphic to the input.
    """
    naming = {c: f"v{i}" for i, c in enumerate(sorted(structure.domain(), key=repr))}
    atoms = [Atom(f.relation, tuple(naming[t] for t in f.terms)) for f in structure.facts()]
    extra = [naming[c] for c in structure.isolated_elements()]
    return ConjunctiveQuery(atoms, free=(), extra_variables=extra,
                            schema=structure.schema)
