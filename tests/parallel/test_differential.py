"""Hypothesis differential suite: serial vs parallel on random inputs.

Random FO formulas and random Datalog programs are evaluated under the
serial reference and under the parallel backend at 1, 2 and 4
workers, asserting semantic equivalence and identical guard-counter
totals (see ``oracle.py``).

Across the worker counts this generates 180 differential cases per run
under the default Hypothesis profile.  The pool kind follows
``REPRO_DIFF_POOL`` (default ``thread``; the CI differential job sets
``process``).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.database import Database
from repro.core.relation import Relation
from repro.datalog.engine import evaluate_program
from repro.datalog.seminaive import evaluate_seminaive
from repro.queries.library import transitive_closure_program

from tests.parallel.oracle import (
    WORKER_COUNTS,
    check_datalog,
    check_fo,
    make_context,
)
from tests.strategies import formulas

#: one context per worker count, shared across examples (pool startup,
#: especially for processes, would otherwise dominate the suite)
_CONTEXTS = {}


def _context(workers):
    if workers not in _CONTEXTS:
        _CONTEXTS[workers] = make_context(workers)
    return _CONTEXTS[workers]


@pytest.fixture(scope="module", autouse=True)
def _close_contexts():
    yield
    while _CONTEXTS:
        _CONTEXTS.popitem()[1].close()


@st.composite
def small_digraphs(draw, max_nodes=5):
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    edges = set()
    for a in range(n):
        for b in range(n):
            if a != b and draw(st.booleans()):
                edges.add((a, b))
    return frozenset(edges)


def _edge_db(edges) -> Database:
    return Database({"E": Relation.from_points(("x", "y"), sorted(edges))})


@pytest.mark.parametrize("workers", WORKER_COUNTS)
class TestDifferential:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(formula=formulas())
    def test_fo_formulas(self, workers, formula):
        check_fo(formula, ctx=_context(workers))

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(edges=small_digraphs())
    def test_datalog_naive(self, workers, edges):
        check_datalog(
            transitive_closure_program(),
            _edge_db(edges),
            ctx=_context(workers),
            engine=evaluate_program,
        )

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(edges=small_digraphs())
    def test_datalog_seminaive(self, workers, edges):
        check_datalog(
            transitive_closure_program(),
            _edge_db(edges),
            ctx=_context(workers),
            engine=evaluate_seminaive,
        )
