"""Wire format: the kernel and generalized tuples survive pickling.

Bounds matrices and the tuples of a Datalog fixpoint round-trip through
pickle unchanged, in-process and across a *spawned* worker (which
re-imports everything rather than inheriting parent memory): the
rehydrated matrix gives the same verdict, canonical form and witness,
and every tuple the same atom set.
"""

from __future__ import annotations

import pickle
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

from hypothesis import given, settings

from repro.core.atoms import le, lt
from repro.core.database import Database
from repro.core.relation import Relation
from repro.datalog.engine import evaluate_program
from repro.perf import reset_kernel_cache
from repro.perf.columnar import BoundsMatrix
from repro.queries.library import transitive_closure_program
from tests.strategies import conjunctions


def _describe_matrix(matrix):
    """Runs in a worker: exercise an unpickled matrix end to end."""
    sat = matrix.is_satisfiable()
    canonical = sorted(map(str, matrix.canonical_atoms())) if sat else None
    witness = (
        sorted((v.name, str(f)) for v, f in matrix.solve().items()) if sat else None
    )
    return sat, canonical, witness


def _describe_tuples(tuples):
    """Runs in a spawned worker: the rehydrated tuples' atom sets."""
    return [sorted(str(a) for a in t.atoms) for t in tuples]


class TestWireFormat:
    @settings(max_examples=60, deadline=None)
    @given(conjunctions(max_size=7))
    def test_matrix_roundtrip_in_process(self, conj):
        matrix = BoundsMatrix(conj)
        clone = pickle.loads(pickle.dumps(matrix))
        assert clone.nodes == matrix.nodes
        assert clone.edge_bytes() == matrix.edge_bytes()
        assert _describe_matrix(clone) == _describe_matrix(BoundsMatrix(conj))

    def test_roundtrip_across_spawned_worker(self):
        reset_kernel_cache()
        edges = [(i, i + 1) for i in range(5)]
        db = Database({"E": Relation.from_points(("x", "y"), edges)})
        tc = evaluate_program(transitive_closure_program(), db)["tc"]
        matrix = BoundsMatrix([lt("x", "y"), le(0, "x"), lt("y", 4)])
        with ProcessPoolExecutor(
            max_workers=1, mp_context=get_context("spawn")
        ) as pool:
            atom_sets = pool.submit(_describe_tuples, list(tc.tuples)).result(timeout=120)
            remote = pool.submit(_describe_matrix, matrix).result(timeout=120)
        assert atom_sets == [sorted(str(a) for a in t.atoms) for t in tc.tuples]
        assert remote == _describe_matrix(matrix)
