"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.queries.cq import cq_from_structure
from repro.queries.parser import parse_boolean_cq, parse_path
from repro.structures.generators import (
    cycle_structure,
    path_structure,
)
from repro.structures.operations import sum_with_multiplicities
from repro.structures.schema import Schema


@pytest.fixture
def binary_rs_schema() -> Schema:
    """The workhorse schema {R/2, S/2}."""
    return Schema({"R": 2, "S": 2})


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


@pytest.fixture
def edge_query():
    return parse_boolean_cq("R(x,y)")


@pytest.fixture
def two_path_query():
    return parse_boolean_cq("R(x,y), R(y,z)")


@pytest.fixture
def example32_instance():
    """The paper's Example 32: q = w1+w2+2w3, v1 = 2w1+w2+3w3,
    v2 = 5w1+2w2+7w3 over connected non-isomorphic w1, w2, w3."""
    w1 = path_structure(["R"])
    w2 = path_structure(["R", "R"])
    w3 = cycle_structure(3)

    def make(*pairs):
        return cq_from_structure(sum_with_multiplicities(list(pairs)))

    q = make((1, w1), (1, w2), (2, w3))
    v1 = make((2, w1), (1, w2), (3, w3))
    v2 = make((5, w1), (2, w2), (7, w3))
    return [v1, v2], q


@pytest.fixture
def example13_paths():
    """Example 13: q = ABCD, V = {ABC, BC, BCD}."""
    views = [parse_path("A.B.C"), parse_path("B.C"), parse_path("B.C.D")]
    return views, parse_path("A.B.C.D")


@pytest.fixture
def write_v2_store():
    """Build a v2 single-file store — the one-file layout of earlier
    releases, which the tiered store migrates on open — with raw
    sqlite3.  ``counts`` and ``exists`` are ``(source, target, value)``
    triples, recorded in order (int counts, bool verdicts)."""
    import hashlib
    import sqlite3

    from repro.batch.tasks import canonical_json
    from repro.structures.canonical import canonical_key
    from repro.structures.serialization import structure_to_dict

    def write(path, counts=(), exists=()):
        connection = sqlite3.connect(str(path))
        connection.execute("PRAGMA journal_mode=WAL")
        with connection:
            connection.execute(
                "CREATE TABLE targets (hash TEXT PRIMARY KEY, "
                "json TEXT NOT NULL)")
            for table in ("hom_counts", "hom_exists"):
                connection.execute(
                    f"CREATE TABLE {table} (src BLOB NOT NULL, "
                    f"target TEXT NOT NULL, value TEXT NOT NULL, "
                    f"PRIMARY KEY (src, target))")
            for table, rows in (("hom_counts", counts),
                                ("hom_exists", exists)):
                for source, target, value in rows:
                    text = canonical_json(structure_to_dict(target))
                    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
                    connection.execute(
                        "INSERT OR IGNORE INTO targets VALUES (?, ?)",
                        (digest, text))
                    stored = (str(value) if table == "hom_counts"
                              else "1" if value else "0")
                    connection.execute(
                        f"INSERT INTO {table} VALUES (?, ?, ?)",
                        (canonical_key(source), digest, stored))
            connection.execute("PRAGMA user_version=2")
        connection.close()

    return write
