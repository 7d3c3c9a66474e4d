"""JSON (de)serialization for structures and queries.

A determinacy checker that other tools can adopt needs a wire format:
witness pairs must be exportable, view catalogs importable.  The format
is deliberately dumb JSON.

Structure (interned wire format, v2)::

    {"kind": "structure",
     "schema": {"R": 2, "H": 0},
     "constants": ["a", "b", "c"],
     "facts": [["R", [0, 1]], ["H", []]],
     "isolated": [2]}

Each constant is encoded **once**, in the deterministic intern order of
:mod:`repro.structures.interned`; fact terms and the ``isolated`` list
are indices into ``constants``.  Tagged copies and product structures
repeat large tuple constants across many facts, so shipping the intern
table once shrinks those payloads substantially.  Constants are encoded
through :func:`encode_constant`, which keeps strings/ints verbatim and
renders tuples (products, tagged copies, frozen variables) as nested
lists with a type tag — lossless for every constant shape the library
itself produces.

The pre-interning format (terms as inline encoded constants, no
``constants`` key) is still **decoded** for compatibility with
payloads written by older versions; it is no longer emitted.

Queries::

    {"kind": "cq", "free": ["x"], "atoms": [["R", ["x", "y"]]]}
    {"kind": "ucq", "disjuncts": [...]}
    {"kind": "path", "letters": ["A", "B"]}

A JSON string where the format has a list (``"letters": "AB"``,
``["R", "xy"]``) is refused with a :class:`SerializationError`, not
read one character at a time.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from repro.errors import ReproError
from repro.queries.cq import Atom, ConjunctiveQuery
from repro.queries.path import PathQuery
from repro.queries.ucq import UnionOfBooleanCQs
from repro.structures.schema import Schema
from repro.structures.structure import Fact, Structure


class SerializationError(ReproError):
    """Malformed payloads and unserializable constants."""


def _listed(value, what: str):
    """``value``, refused when it is a string: iterating a string where
    the wire format has a list would read it one character at a time
    (``"xy"`` as the two terms ``x`` and ``y``)."""
    if isinstance(value, str):
        raise SerializationError(
            f"{what} must be a list, got the string {value!r}")
    return value


def _rows(payload: Dict[str, Any], key: str, what: str):
    """The ``[name, [terms]]`` rows of ``payload[key]`` (facts, atoms)."""
    for row in _listed(payload.get(key, []), f"'{key}'"):
        name, terms = _listed(row, f"each {what}")
        yield name, _listed(terms, f"{what} terms")


# ----------------------------------------------------------------------
# Constants
# ----------------------------------------------------------------------
def encode_constant(constant) -> Any:
    """Encode a constant losslessly into JSON-safe data."""
    if isinstance(constant, (str, int, bool)) or constant is None:
        return constant
    if isinstance(constant, tuple):
        return {"t": [encode_constant(part) for part in constant]}
    raise SerializationError(
        f"constant {constant!r} of type {type(constant).__name__} is not "
        f"JSON-serializable; rename the structure's constants first"
    )


def decode_constant(payload) -> Any:
    """Inverse of :func:`encode_constant`."""
    if isinstance(payload, dict):
        if set(payload) != {"t"}:
            raise SerializationError(f"bad constant payload {payload!r}")
        return tuple(decode_constant(part) for part in payload["t"])
    if isinstance(payload, list):
        raise SerializationError(
            f"bare lists are not valid constants: {payload!r}"
        )
    return payload


# ----------------------------------------------------------------------
# Structures
# ----------------------------------------------------------------------
def structure_to_dict(structure: Structure) -> Dict[str, Any]:
    """Interned wire payload: the constant table once, facts as indices."""
    from repro.structures.interned import interned

    inter = interned(structure)
    constants = [encode_constant(c) for c in inter.table.constants()]
    facts: List[List[Any]] = [[relation, list(row)]
                              for relation, row in inter.iter_facts()]
    return {
        "kind": "structure",
        "schema": {s.name: s.arity for s in structure.schema},
        "constants": constants,
        "facts": facts,
        "isolated": list(inter.isolated_indices()),
    }


def structure_from_dict(payload: Dict[str, Any]) -> Structure:
    if payload.get("kind") != "structure":
        raise SerializationError(f"expected kind 'structure', got {payload.get('kind')!r}")
    if "constants" in payload:
        return _structure_from_interned_dict(payload)
    # Legacy (pre-v2) payload: terms are inline encoded constants.
    try:
        schema = Schema(dict(payload.get("schema", {})))
        facts = [
            Fact(relation, tuple(decode_constant(t) for t in terms))
            for relation, terms in _rows(payload, "facts", "fact")
        ]
        isolated = [decode_constant(c) for c in
                    _listed(payload.get("isolated", []), "'isolated'")]
    except (TypeError, ValueError, KeyError) as exc:
        raise SerializationError(f"malformed structure payload: {exc}") from exc
    active = {t for fact in facts for t in fact.terms}
    return Structure(facts, schema=schema, domain=list(active) + isolated)


def _structure_from_interned_dict(payload: Dict[str, Any]) -> Structure:
    def at(index: Any):
        if not isinstance(index, int) or isinstance(index, bool) \
                or not 0 <= index < len(constants):
            raise SerializationError(
                f"term {index!r} is not a valid index into the "
                f"{len(constants)}-entry constant table")
        return constants[index]

    try:
        schema = Schema(dict(payload.get("schema", {})))
        constants = [decode_constant(c) for c in
                     _listed(payload["constants"], "'constants'")]
        # A string row or term list needs no check of its own: its
        # characters are no indices, so ``at`` refuses them.
        facts = [
            Fact(relation, tuple(at(i) for i in terms))
            for relation, terms in _listed(payload.get("facts", []),
                                           "'facts'")
        ]
        isolated = [at(i) for i in
                    _listed(payload.get("isolated", []), "'isolated'")]
    except (TypeError, ValueError, KeyError) as exc:
        raise SerializationError(f"malformed structure payload: {exc}") from exc
    active = {t for fact in facts for t in fact.terms}
    return Structure(facts, schema=schema, domain=list(active) + isolated)


# ----------------------------------------------------------------------
# Queries
# ----------------------------------------------------------------------
def cq_to_dict(query: ConjunctiveQuery) -> Dict[str, Any]:
    return {
        "kind": "cq",
        "free": list(query.free),
        "atoms": [
            [atom.relation, list(atom.variables)]
            for atom in sorted(query.atoms, key=str)
        ],
        "extra_variables": sorted(query.extra_variables),
    }


def cq_from_dict(payload: Dict[str, Any]) -> ConjunctiveQuery:
    if payload.get("kind") != "cq":
        raise SerializationError(f"expected kind 'cq', got {payload.get('kind')!r}")
    try:
        atoms = [Atom(relation, tuple(variables))
                 for relation, variables in _rows(payload, "atoms", "atom")]
        return ConjunctiveQuery(
            atoms,
            free=tuple(_listed(payload.get("free", []), "'free'")),
            extra_variables=_listed(payload.get("extra_variables", []),
                                    "'extra_variables'"),
        )
    except (TypeError, ValueError) as exc:
        raise SerializationError(f"malformed cq payload: {exc}") from exc


def ucq_to_dict(query: UnionOfBooleanCQs) -> Dict[str, Any]:
    return {
        "kind": "ucq",
        "disjuncts": [cq_to_dict(d) for d in query.disjuncts],
    }


def ucq_from_dict(payload: Dict[str, Any]) -> UnionOfBooleanCQs:
    if payload.get("kind") != "ucq":
        raise SerializationError(f"expected kind 'ucq', got {payload.get('kind')!r}")
    return UnionOfBooleanCQs(
        [cq_from_dict(d)
         for d in _listed(payload.get("disjuncts", []), "'disjuncts'")]
    )


def path_to_dict(query: PathQuery) -> Dict[str, Any]:
    return {"kind": "path", "letters": list(query.letters)}


def path_from_dict(payload: Dict[str, Any]) -> PathQuery:
    if payload.get("kind") != "path":
        raise SerializationError(f"expected kind 'path', got {payload.get('kind')!r}")
    return PathQuery(tuple(_listed(payload.get("letters", []),
                                   "'letters'")))


# ----------------------------------------------------------------------
# Uniform front door
# ----------------------------------------------------------------------
_ENCODERS = {
    Structure: structure_to_dict,
    ConjunctiveQuery: cq_to_dict,
    UnionOfBooleanCQs: ucq_to_dict,
    PathQuery: path_to_dict,
}

_DECODERS = {
    "structure": structure_from_dict,
    "cq": cq_from_dict,
    "ucq": ucq_from_dict,
    "path": path_from_dict,
}


def to_dict(value) -> Dict[str, Any]:
    """Serialize any supported object to a plain dict."""
    encoder = _ENCODERS.get(type(value))
    if encoder is None:
        raise SerializationError(f"cannot serialize {type(value).__name__}")
    return encoder(value)


def from_dict(payload: Dict[str, Any]):
    """Deserialize a payload produced by :func:`to_dict`."""
    if not isinstance(payload, dict):
        raise SerializationError(f"expected a dict, got {type(payload).__name__}")
    decoder = _DECODERS.get(payload.get("kind"))
    if decoder is None:
        raise SerializationError(f"unknown kind {payload.get('kind')!r}")
    return decoder(payload)


def dumps(value, **kwargs) -> str:
    """JSON text for any supported object."""
    return json.dumps(to_dict(value), sort_keys=True, **kwargs)


def loads(text: str):
    """Inverse of :func:`dumps`."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"invalid JSON: {exc}") from exc
    return from_dict(payload)
