"""Seeded workload generators for tests, examples and benchmarks.

Every generator takes a :class:`random.Random` (or a seed) and produces
dense-order database content with exact rational constants; benchmark
series are reproducible by construction.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.atoms import le, lt
from repro.core.boxes import Box, BoxSet
from repro.core.database import Database
from repro.core.intervals import Interval, IntervalSet
from repro.core.relation import Relation
from repro.core.theory import DENSE_ORDER

__all__ = [
    "rng_of",
    "random_interval_set",
    "random_interval_database",
    "random_box_database",
    "random_finite_graph",
    "path_graph",
    "cycle_graph",
    "disjoint_cycles",
    "point_set",
    "interval_chain",
    "interval_pairs_relation",
    "checkerboard_region",
    "staircase_region",
    "fragmented_interval_database",
    "deep_negation_formula",
    "alternating_quantifier_formula",
    "slow_tc_workload",
]


def rng_of(seed: Union[int, random.Random]) -> random.Random:
    """Coerce an int seed (or pass through a Random) to a Random."""
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


def _random_fraction(rng: random.Random, lo: int, hi: int, denominator: int = 4) -> Fraction:
    return Fraction(rng.randint(lo * denominator, hi * denominator), denominator)


def random_interval_set(
    seed: Union[int, random.Random],
    count: int,
    span: int = 50,
    max_width: int = 5,
) -> IntervalSet:
    """A random union of ``count`` bounded intervals within ``[-span, span]``."""
    rng = rng_of(seed)
    intervals: List[Interval] = []
    for _ in range(count):
        lo = _random_fraction(rng, -span, span - max_width)
        width = _random_fraction(rng, 0, max_width)
        intervals.append(
            Interval.make(lo, lo + width, rng.random() < 0.5, rng.random() < 0.5)
        )
    return IntervalSet(intervals)


def random_interval_database(
    seed: Union[int, random.Random],
    count: int,
    name: str = "S",
    span: int = 50,
) -> Database:
    """A database with one unary relation of random intervals."""
    db = Database()
    db[name] = random_interval_set(seed, count, span).to_relation("x")
    return db


def random_box_database(
    seed: Union[int, random.Random],
    count: int,
    dimension: int = 2,
    name: str = "R",
    span: int = 20,
) -> Database:
    """A database with one k-ary relation of random boxes."""
    rng = rng_of(seed)
    boxes = []
    for _ in range(count):
        sides = []
        for _ in range(dimension):
            lo = _random_fraction(rng, -span, span - 4)
            width = _random_fraction(rng, 1, 4)
            sides.append(Interval.closed(lo, lo + width))
        boxes.append(Box(tuple(sides)))
    schema = tuple(f"x{i}" for i in range(dimension))
    db = Database()
    db[name] = BoxSet(boxes, dimension).to_relation(schema)
    return db


# ------------------------------------------------------------------- graphs


def _graph_database(
    vertices: Iterable[int], edges: Iterable[Tuple[int, int]],
    vertex_name: str = "V", edge_name: str = "E",
) -> Database:
    db = Database()
    vs = list(vertices)
    db[vertex_name] = (
        Relation.from_points(("x",), [(v,) for v in vs])
        if vs
        else Relation.empty(("x",))
    )
    es = list(edges)
    db[edge_name] = (
        Relation.from_points(("x", "y"), es) if es else Relation.empty(("x", "y"))
    )
    return db


def random_finite_graph(
    seed: Union[int, random.Random],
    vertex_count: int,
    edge_probability: float = 0.3,
) -> Database:
    """A random finite graph as equality-constraint relations V/1, E/2."""
    rng = rng_of(seed)
    edges = [
        (i, j)
        for i in range(vertex_count)
        for j in range(i + 1, vertex_count)
        if rng.random() < edge_probability
    ]
    return _graph_database(range(vertex_count), edges)


def path_graph(vertex_count: int) -> Database:
    """The path 0 - 1 - ... - (n-1): connected."""
    return _graph_database(
        range(vertex_count), [(i, i + 1) for i in range(vertex_count - 1)]
    )


def cycle_graph(vertex_count: int) -> Database:
    """A single cycle on n vertices: connected."""
    edges = [(i, (i + 1) % vertex_count) for i in range(vertex_count)]
    return _graph_database(range(vertex_count), edges)


def disjoint_cycles(half: int) -> Database:
    """Two disjoint cycles of ``half`` vertices each: disconnected.

    The classic contrast instance to :func:`cycle_graph` of size
    ``2 * half`` in connectivity lower-bound experiments.
    """
    first = [(i, (i + 1) % half) for i in range(half)]
    second = [(half + i, half + (i + 1) % half) for i in range(half)]
    return _graph_database(range(2 * half), first + second)


def point_set(count: int, name: str = "S", start: int = 0, step: int = 1) -> Database:
    """The finite unary relation {start, start+step, ...} of given size."""
    db = Database()
    points = [(start + i * step,) for i in range(count)]
    db[name] = (
        Relation.from_points(("x",), points) if points else Relation.empty(("x",))
    )
    return db


# ------------------------------------------------------------ interval chains


def interval_chain(
    count: int, overlap: bool = True, name: str = "S"
) -> Database:
    """``count`` unit intervals, adjacent ones overlapping (or separated).

    Overlapping: ``[2i, 2i + 3]`` -- a single connected blob.
    Separated:   ``[3i, 3i + 1]`` -- ``count`` components.
    """
    intervals = []
    for i in range(count):
        if overlap:
            intervals.append(Interval.closed(2 * i, 2 * i + 3))
        else:
            intervals.append(Interval.closed(3 * i, 3 * i + 1))
    db = Database()
    db[name] = IntervalSet(intervals).to_relation("x")
    return db


def interval_pairs_relation(
    seed: Union[int, random.Random], count: int, span: int = 30, name: str = "I"
) -> Database:
    """Closed intervals stored as a binary (lo, hi) point relation.

    The input shape of the interval-overlap reachability Datalog
    program (experiment E6).
    """
    rng = rng_of(seed)
    rows = []
    for _ in range(count):
        lo = rng.randint(-span, span - 3)
        width = rng.randint(1, 3)
        rows.append((lo, lo + width))
    db = Database()
    db[name] = Relation.from_points(("lo", "hi"), rows)
    return db


# ------------------------------------------------------------------- regions


def checkerboard_region(size: int, name: str = "R") -> Database:
    """Closed unit squares on the black cells of a size x size board.

    Diagonally adjacent closed squares share corners, so the black
    checkerboard is one connected region -- a stress case for the
    gluing-graph connectivity algorithm.
    """
    boxes = [
        Box.closed((i, i + 1), (j, j + 1))
        for i in range(size)
        for j in range(size)
        if (i + j) % 2 == 0
    ]
    db = Database()
    db[name] = BoxSet(boxes, 2).to_relation(("x0", "x1"))
    return db


def staircase_region(steps: int, gap: bool = False, name: str = "R") -> Database:
    """A staircase of closed squares; with ``gap`` the middle step is
    removed, splitting the region into two components."""
    boxes = []
    middle = steps // 2
    for i in range(steps):
        if gap and i == middle:
            continue
        boxes.append(Box.closed((i, i + 1), (i, i + 1)))
    db = Database()
    db[name] = BoxSet(boxes, 2).to_relation(("x0", "x1"))
    return db


# -------------------------------------------------- adversarial workloads
#
# Inputs built to exhaust resources rather than to model anything: the
# dense-order complement distributes negation over a DNF (Section 3;
# exponential in the arity in the worst case), and naive fixpoints take
# as many rounds as the data is deep.  These are the test loads for the
# budget runtime (experiment E13): small enough to start, hopeless
# enough to trip any finite budget when scaled up.


def fragmented_interval_database(count: int, name: str = "S") -> Database:
    """``count`` pairwise-disjoint open unit intervals ``(3i, 3i + 1)``.

    The complement adversary: negating the union takes one DNF stage
    per interval.  After ``k`` stages the product holds the ``k + 1``
    rays and gaps around the first ``k`` intervals; the next stage
    splits the gap that holds the next interval and tests the new
    pieces for subsumption against the rest.  The work is polynomial in
    ``count``, not exponential (the relation is unary): one complement
    makes 2,980 entailment checks at 30 intervals and 51,612 at 120,
    against 13,944 and 876,671 when every parent was split on every
    negated atom.
    """
    intervals = [Interval.open(3 * i, 3 * i + 1) for i in range(count)]
    db = Database()
    db[name] = IntervalSet(intervals).to_relation("x")
    return db


def deep_negation_formula(depth: int, name: str = "S"):
    """``not not ... not S(x)`` -- ``depth`` stacked complements.

    Logically trivial (the identity or one complement), but the
    evaluator cannot know that: every level materializes a full
    complement of the level below.  Pair with
    :func:`fragmented_interval_database` to make each level expensive.
    """
    from repro.core.formula import Not, rel

    f = rel(name, "x")
    for _ in range(depth):
        f = Not(f)
    return f


def alternating_quantifier_formula(depth: int, name: str = "E"):
    """A ``depth``-step path formula with alternating exists/forall.

    ``forall`` evaluates as ``not exists not``, so each universal level
    costs two complements on top of one quantifier elimination -- the
    deep-negation adversary in quantifier clothing.  The formula has
    one free variable ``v0`` and talks about a binary relation
    ``name``.
    """
    from repro.core.formula import Formula, exists, forall, rel

    if depth < 1:
        raise ValueError("depth must be >= 1")
    f: Formula = rel(name, f"v{depth - 1}", f"v{depth}")
    for i in range(depth, 0, -1):
        f = exists(f"v{i}", f) if (depth - i) % 2 == 0 else forall(f"v{i}", f)
        if i > 1:
            f = rel(name, f"v{i - 2}", f"v{i - 1}") & f
    return f


def slow_tc_workload(length: int) -> Tuple["object", Database]:
    """A (program, database) pair that converges only after ~``length``
    rounds: single-step transitive closure over a path of ``length``
    vertices.  The round-budget adversary -- any ``max_rounds`` below
    the path length cuts it off mid-closure.
    """
    from repro.datalog.ast import Program, pred, rule

    program = Program(
        [
            rule("tc", ["x", "y"], pred("E", "x", "y")),
            rule("tc", ["x", "z"], pred("tc", "x", "y"), pred("E", "y", "z")),
        ],
        edb={"E": 2},
    )
    return program, path_graph(length)
