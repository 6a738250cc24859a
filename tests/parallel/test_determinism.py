"""Regression tests for iteration-order nondeterminism.

Two sources of nondeterminism were fixed alongside the parallel
backend, because sharding makes assembly order an accident of the
partition:

* ``_absorb`` broke mutual-subsumption ties by list position, so the
  surviving representative of an equivalence class depended on input
  order.  The tie-break now keeps the tuple with the smallest canonical
  rendering, which is a property of the tuple, not of the list.  Delta
  absorption (an already-absorbed prefix whose pairs are not tested)
  must keep the same survivor, serially and on either pool.
* ``_complement`` iterated a frozenset of atoms directly; frozenset
  iteration order follows the (per-process, salted) hash, so the
  complement's syntactic representation varied across
  ``PYTHONHASHSEED`` values.  It now iterates atoms in sorted order.

The hash-seed test runs the same pipeline in subprocesses under
different ``PYTHONHASHSEED`` values and asserts byte-identical output.
"""

from __future__ import annotations

import itertools
import os
import subprocess
import sys

import pytest

from repro.core.atoms import eq, lt
from repro.core.relation import Relation, _absorb, _absorb_survivors
from repro.parallel import ExecutionContext
from repro.parallel.backend import parallel_absorb

# ------------------------------------------------- absorb tie-break (stub theory)


class StubTheory:
    """Not a DenseOrderTheory: forces the entailment-only subsume path."""


class StubTuple:
    """Minimal generalized tuple where every tuple entails everything,
    so every pair is mutually subsuming (one equivalence class)."""

    theory = StubTheory()

    def __init__(self, *atoms):
        self.atoms = frozenset(atoms)

    def entails(self, atom):
        return True

    def __repr__(self):
        return f"StubTuple({sorted(self.atoms)})"


def test_mutual_subsumption_keeps_smallest_rendering():
    tuples = [StubTuple("b<y"), StubTuple("a<x"), StubTuple("c<z"), StubTuple("d<u")]
    for perm in itertools.permutations(tuples):
        perm = list(perm)
        kept = _absorb_survivors(perm, 0, len(perm))
        assert len(kept) == 1
        assert perm[kept[0]].atoms == frozenset(["a<x"]), (
            f"survivor depends on input order: kept {perm[kept[0]]!r} "
            f"from {perm!r}"
        )


def test_survival_is_positional_only_for_equal_keys():
    # equal renderings fall back to list position: first one wins, and
    # that is fine -- equal keys mean syntactically identical atom sets,
    # which dedup upstream normally removes
    tuples = [StubTuple("a<x"), StubTuple("a<x")]
    assert _absorb_survivors(tuples, 0, 2) == [0]


def test_absorbed_survivor_keeps_the_full_pass_survivor():
    # a one-tuple prefix is absorbed whatever it is; the survivor is the
    # smallest rendering whether the prefix or a new tuple holds it
    tuples = [StubTuple("b<y"), StubTuple("a<x"), StubTuple("c<z"), StubTuple("d<u")]
    for survivor in tuples:
        new = [t for t in tuples if t is not survivor]
        for perm in itertools.permutations(new):
            stage = [survivor, *perm]
            full = _absorb_survivors(stage, 0, len(stage))
            assert _absorb_survivors(stage, 0, len(stage), 1) == full
            assert [stage[i].atoms for i in full] == [frozenset(["a<x"])]


# ------------------------------------------- delta absorption on a pool


@pytest.mark.parametrize("pool", ["thread", "process"])
def test_parallel_absorb_skips_the_serial_pairs(pool):
    """Every prefix length, absorbed or not, keeps what the serial pass
    keeps: the shard payload carries the prefix."""
    stage = Relation.from_points(("x",), [(1,), (2,), (5,)]).tuples
    new = Relation.from_atoms(("x",), [
        [lt(0, "x"), lt("x", 3)], [eq("x", 1)], [lt(4, "x"), lt("x", 6)],
        [lt(0, "x"), lt("x", 2)],
    ]).tuples
    distinct = list(dict.fromkeys(stage + new))
    ctx = ExecutionContext(workers=2, pool=pool, min_tuples=2)
    try:
        kept = [parallel_absorb(distinct, ctx, k)[0] for k in range(len(distinct) + 1)]
        assert ctx.pool_kind == pool and ctx.fallbacks == 0
    finally:
        ctx.close()
    assert kept == [_absorb(distinct, k) for k in range(len(distinct) + 1)]
    assert kept[len(stage)] == kept[0] != kept[len(stage) + 1]


# ---------------------------------------------------------- hash-seed pinning

_PIPELINE = """
from repro.core.relation import Relation

r = Relation.from_points(("x", "y"), [(0, 1), (1, 2), (2, 3), (3, 4), (0, 3)])
c = r.complement().simplify()
print(c.schema)
print([[str(a) for a in sorted(t.atoms, key=str)] for t in c.tuples])

wide = r.join(r.rename({"x": "y", "y": "z"}))
print([[str(a) for a in sorted(t.atoms, key=str)] for t in wide.project(("x", "z")).tuples])
"""


def _run_pipeline(seed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = seed
    src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    proc = subprocess.run(
        [sys.executable, "-c", _PIPELINE],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return proc.stdout


@pytest.mark.slow
def test_representation_is_hashseed_independent():
    outputs = {seed: _run_pipeline(seed) for seed in ("0", "1", "2")}
    reference = outputs["0"]
    assert reference.strip(), "pipeline produced no output"
    for seed, out in outputs.items():
        assert out == reference, (
            f"PYTHONHASHSEED={seed} produced a different representation:\n"
            f"{out}\nvs\n{reference}"
        )
