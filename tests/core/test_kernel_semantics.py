"""The dense-order kernel against the paper's semantics.

Each verdict of :class:`~repro.perf.columnar.BoundsMatrix` is checked
against :func:`repro.core.sampling.evaluate_sentence`, which decides a
sentence over ``(Q, <=)`` by sample points and shares no code with the
kernel.  Conjunctions have at most three variables, five atoms and the
constants 0, 1 and 2; candidate atoms may also use constants that the
conjunction does not mention.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.atoms import Atom, Op, atom
from repro.core.formula import Not, conj, constraint, disj, exists, forall
from repro.core.sampling import evaluate_sentence
from repro.errors import TheoryError
from repro.perf.columnar import BoundsMatrix

VARIABLES = ("x", "y", "z")
CONSTANTS = (0, 1, 2)
#: candidates also range over constants absent from every conjunction
PROBE_CONSTANTS = CONSTANTS + (-1, Fraction(1, 2), 3)


def _atoms(constants, ops):
    terms = st.one_of(st.sampled_from(VARIABLES), st.sampled_from(constants))
    made = st.builds(atom, terms, st.sampled_from(ops), terms)
    return made.filter(lambda a: isinstance(a, Atom))


conjunctions = st.lists(_atoms(CONSTANTS, [Op.LT, Op.LE, Op.EQ]), max_size=5)
candidates = _atoms(PROBE_CONSTANTS, [Op.LT, Op.LE, Op.EQ, Op.NE])


def _holds(atoms):
    return conj(*(constraint(a) for a in atoms))


def _closure(quantifier, body):
    """``body`` with its free variables bound by ``quantifier``."""
    names = sorted(v.name for v in body.free_variables())
    return quantifier(names, body) if names else body


class TestKernelAgainstSampling:
    @settings(max_examples=300, deadline=None)
    @given(conjunctions)
    def test_satisfiable_iff_existential_closure_holds(self, atoms):
        sentence = _closure(exists, _holds(atoms))
        assert BoundsMatrix(atoms).is_satisfiable() == evaluate_sentence(sentence)

    @settings(max_examples=200, deadline=None)
    @given(conjunctions, st.lists(candidates, min_size=1, max_size=4))
    def test_implies_iff_universal_implication(self, atoms, probes):
        matrix = BoundsMatrix(atoms)
        for probe in probes:
            sentence = _closure(forall, disj(Not(_holds(atoms)), constraint(probe)))
            assert matrix.implies(probe) == evaluate_sentence(sentence), (atoms, probe)

    @settings(max_examples=200, deadline=None)
    @given(conjunctions)
    def test_canonical_form_denotes_the_same_set(self, atoms):
        matrix = BoundsMatrix(atoms)
        if not matrix.is_satisfiable():
            with pytest.raises(TheoryError):
                matrix.canonical_atoms()
            return
        original, canonical = _holds(atoms), _holds(matrix.canonical_atoms())
        same = conj(disj(Not(original), canonical), disj(Not(canonical), original))
        assert evaluate_sentence(_closure(forall, same)), (atoms, matrix.canonical_atoms())

    @settings(max_examples=300, deadline=None)
    @given(conjunctions)
    def test_solve_satisfies_every_atom(self, atoms):
        matrix = BoundsMatrix(atoms)
        witness = matrix.solve()
        if not matrix.is_satisfiable():
            assert witness is None
            return
        for a in atoms:
            assert a.evaluate(witness), (atoms, witness)
