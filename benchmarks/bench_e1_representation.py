"""E1 -- Section 2 examples: representation and canonical forms.

Paper artifact: the definitions and examples of Section 2 (generalized
tuples/relations; the rectangle encoding "four constants along with a
flag indicating the shape").

What this regenerates: cost of the fundamental representation
operations -- building generalized relations, canonicalizing to the
interval normal form, the box fast path vs the generic engine -- as the
representation grows.  Expected shape: all low-degree polynomial in the
number of constraint tuples, with the box/interval fast paths clearly
cheaper than generic complementation.
"""

import pytest

from repro.core.boxes import BoxSet
from repro.core.intervals import IntervalSet
from repro.workloads.generators import random_box_database, random_interval_set

SIZES = [4, 8, 16, 32]


@pytest.mark.parametrize("n", SIZES)
def test_build_interval_relation(benchmark, n):
    """Build + canonicalize a random unary relation of n intervals."""
    intervals = random_interval_set(7, count=n)

    def run():
        return intervals.to_relation("x")

    relation = benchmark(run)
    assert relation.arity == 1


@pytest.mark.parametrize("n", SIZES)
def test_interval_normal_form(benchmark, n):
    """Relation -> canonical IntervalSet (the paper's efficient encoding)."""
    relation = random_interval_set(11, count=n).to_relation("x")
    result = benchmark(lambda: IntervalSet.from_relation(relation))
    assert isinstance(result, IntervalSet)


@pytest.mark.parametrize("n", SIZES)
def test_interval_set_union(benchmark, n):
    """Canonical-form union: near-linear merge."""
    a = random_interval_set(3, count=n)
    b = random_interval_set(5, count=n)
    benchmark(lambda: a.union(b))


@pytest.mark.parametrize("n", [2, 4, 8])
def test_box_complement_fast_path(benchmark, n):
    """Complement via box splitting (the Section 2 encoding at work)."""
    boxes = BoxSet.from_relation(random_box_database(13, count=n)["R"])
    benchmark(boxes.complement)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_generic_complement(benchmark, n):
    """Generic DNF complementation -- polynomial in the tuple count for
    a fixed arity (65, 230 and 873 entailment checks for 2, 3 and 4
    random boxes), exponential only in the arity.

    Contrast with the box fast path above: the paper's point that
    shaped encodings matter.
    """
    relation = random_box_database(17, count=n)["R"]
    benchmark(relation.complement)
