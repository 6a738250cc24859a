"""The pin filter in absorption (``relation._absorb_survivors``).

A dense-order tuple ``s`` can subsume ``t`` only if every ``v = c`` atom
of ``s`` is also an atom of ``t``: ``t`` entails ``v = c`` only if its
closure pins ``v`` to ``c``, and the kernel's canonical form writes
``member = const`` for every variable the closure pins.  Absorption
checks this before calling the entailment kernel.  These tests check
the claim itself, that absorption still equals the brute-force
pairwise reference, and that distinct point tuples never reach the
kernel.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.atoms import Op, atom, le
from repro.core.gtuple import GTuple
from repro.core.relation import _absorb, _pins
from repro.core.theory import DENSE_ORDER
from tests.perf.test_fastpath_reference import reference_absorb

SCHEMA = ("x", "y", "z")

#: few constants and variables, so closures often pin a variable
terms = st.one_of(st.sampled_from(SCHEMA), st.integers(0, 2))
raw_atoms = st.builds(atom, terms, st.sampled_from([Op.LT, Op.LE, Op.EQ]), terms)
conjunctions = st.lists(raw_atoms, max_size=4)


def pin_set(t: GTuple) -> frozenset:
    return frozenset(_pins(t).items())


def make(atoms) -> GTuple:
    made = GTuple.make(DENSE_ORDER, SCHEMA, atoms)
    return made if made is not None else GTuple.universe(DENSE_ORDER, SCHEMA)


@st.composite
def relations(draw):
    """Raw tuples for one relation: points, pinned intervals and
    arbitrary conjunctions over a three-column schema."""
    out = []
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.integers(0, 2))
        if kind == 0:
            point = draw(st.tuples(*(st.integers(0, 2) for _ in SCHEMA)))
            out.append([atom(c, Op.EQ, v) for c, v in zip(SCHEMA, point)])
        elif kind == 1:
            out.append([atom("x", Op.EQ, draw(st.integers(0, 2))),
                        le("y", draw(st.integers(0, 2)))])
        else:
            out.append(draw(conjunctions))
    return out


class TestPinsOfSubsumers:
    @settings(max_examples=300, deadline=None)
    @given(common=conjunctions, extra=conjunctions, other=conjunctions)
    def test_subsumer_pins_are_pins_of_the_subsumed(self, common, extra, other):
        # ``narrow`` conjoins more atoms, so ``wide`` always subsumes it
        wide, narrow, unrelated = make(common), make(common + extra), make(other)
        pairs = [(wide, narrow), (narrow, wide), (unrelated, narrow),
                 (narrow, unrelated), (wide, unrelated), (unrelated, wide)]
        for s, t in pairs:
            if all(t.entails(a) for a in s.atoms):
                assert pin_set(s) <= pin_set(t), (s, t)


class TestAbsorbMatchesPairwiseReference:
    @settings(max_examples=150, deadline=None)
    @given(raw=relations())
    def test_same_kept_tuples_in_same_order(self, raw):
        tuples = [make(atoms) for atoms in raw]
        assert _absorb(list(tuples)) == reference_absorb(tuples)

    def test_pinned_subsumers_still_absorb(self):
        point = make([atom("x", Op.EQ, 1), atom("y", Op.EQ, 2)])
        pinned_ray = make([atom("x", Op.EQ, 1), le("y", 2)])
        ray = make([le("y", 2)])
        assert _absorb([point, pinned_ray]) == [pinned_ray]
        assert _absorb([point, pinned_ray, ray]) == [ray]


class TestPointsSkipTheKernel:
    def test_distinct_points_make_no_entailment_calls(self, monkeypatch):
        calls = []
        entails = GTuple.entails

        def counting_entails(self, a):
            calls.append("entails")
            return entails(self, a)

        monkeypatch.setattr(GTuple, "entails", counting_entails)
        points = [
            GTuple.point(DENSE_ORDER, ("x", "y"), (i, j))
            for i in range(6)
            for j in range(i, 6)
        ]
        assert _absorb(list(points)) == points
        assert calls == []
