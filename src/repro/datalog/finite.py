"""Inflationary Datalog(not) over classical finite relations.

The Theorem 4.4 capture pipeline (:mod:`repro.encoding.ptime`) encodes
a dense-order instance as a *finite* structure over consecutive
integers and then runs an ordinary inflationary Datalog(not) program on
it -- [Var82, Imm86]-style: with a total order available, inflationary
Datalog(not) expresses exactly the PTIME queries on finite structures.

This engine evaluates the same :class:`~repro.datalog.ast.Program`
syntax over finite relations (sets of tuples of rationals/integers).
Constraint literals act as filters; negated literals require all their
variables bound by positive literals or constants (checked statically),
because negation over an infinite domain would otherwise be unsafe.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

from repro.core.terms import Const, Term, Var, as_fraction
from repro.datalog.ast import ConstraintLiteral, PredicateLiteral, Program, Rule
from repro.errors import DatalogError
from repro.obs.trace import active_tracer, span

__all__ = ["FiniteInstance", "FiniteFixpointResult", "evaluate_finite"]

Row = Tuple[Fraction, ...]


class FiniteInstance:
    """Named finite relations: each a set of equal-length tuples."""

    def __init__(self, relations: Optional[Mapping[str, Iterable[Iterable]]] = None) -> None:
        self._relations: Dict[str, Set[Row]] = {}
        self._arities: Dict[str, int] = {}
        if relations:
            for name, rows in relations.items():
                self.add_relation(name, rows)

    def add_relation(self, name: str, rows: Iterable[Iterable], arity: Optional[int] = None) -> None:
        frozen: Set[Row] = set()
        for row in rows:
            tup = tuple(as_fraction(v) for v in row)
            frozen.add(tup)
        if frozen:
            widths = {len(r) for r in frozen}
            if len(widths) != 1:
                raise DatalogError(f"mixed arities in finite relation {name!r}")
            arity = widths.pop() if arity is None else arity
        if arity is None:
            raise DatalogError(f"empty finite relation {name!r} needs an explicit arity")
        self._relations[name] = frozen
        self._arities[name] = arity

    def __getitem__(self, name: str) -> Set[Row]:
        try:
            return self._relations[name]
        except KeyError:
            raise DatalogError(f"unknown finite relation {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def arity(self, name: str) -> int:
        return self._arities[name]

    def names(self) -> Tuple[str, ...]:
        return tuple(self._relations)

    def active_domain(self) -> FrozenSet[Fraction]:
        out: Set[Fraction] = set()
        for rows in self._relations.values():
            for row in rows:
                out |= set(row)
        return frozenset(out)

    def copy(self) -> "FiniteInstance":
        clone = FiniteInstance()
        for name, rows in self._relations.items():
            clone._relations[name] = set(rows)
            clone._arities[name] = self._arities[name]
        return clone

    def __repr__(self) -> str:
        parts = ", ".join(f"{n}/{a}" for n, a in self._arities.items())
        return f"<FiniteInstance [{parts}]>"


@dataclass
class FiniteFixpointResult:
    instance: FiniteInstance
    rounds: int
    reached_fixpoint: bool

    def __getitem__(self, name: str) -> Set[Row]:
        return self.instance[name]


def _check_safety(program: Program) -> None:
    """Every rule variable must be bound by some positive literal.

    Negation and constraints over the infinite domain Q are unsafe
    otherwise.  (The constraint engine in :mod:`repro.datalog.engine`
    has no such restriction -- unbounded results stay representable.)
    """
    for r in program.rules:
        bound: Set[Var] = set()
        for literal in r.body:
            if isinstance(literal, PredicateLiteral) and not literal.negated:
                bound |= literal.variables()
        unbound = (set(r.head_args) | r.body_variables()) - bound
        if unbound:
            names = ", ".join(sorted(v.name for v in unbound))
            raise DatalogError(
                f"unsafe rule {r}: variables not bound by a positive literal: {names}"
            )


def _match(
    args: Tuple[Term, ...], row: Row, env: Dict[Var, Fraction]
) -> Optional[Dict[Var, Fraction]]:
    """Extend ``env`` so that ``args`` matches ``row``; None on clash."""
    out = dict(env)
    for arg, value in zip(args, row):
        if isinstance(arg, Const):
            if arg.value != value:
                return None
        else:
            seen = out.get(arg)
            if seen is None:
                out[arg] = value
            elif seen != value:
                return None
    return out


def _ground(args: Tuple[Term, ...], env: Mapping[Var, Fraction]) -> Row:
    out = []
    for arg in args:
        if isinstance(arg, Const):
            out.append(arg.value)
        else:
            out.append(env[arg])
    return tuple(out)


def _split_body(r: Rule) -> Tuple[List[PredicateLiteral], List]:
    """Positive predicate literals vs. filters (negations, constraints)."""
    positives = [
        l for l in r.body if isinstance(l, PredicateLiteral) and not l.negated
    ]
    checks = [l for l in r.body if not (isinstance(l, PredicateLiteral) and not l.negated)]
    return positives, checks


def _derive_rule(
    r: Rule,
    state: FiniteInstance,
    split: Optional[Tuple[List[PredicateLiteral], List]] = None,
) -> Set[Row]:
    positives, checks = _split_body(r) if split is None else split

    derived: Set[Row] = set()
    envs: List[Dict[Var, Fraction]] = [{}]
    for literal in positives:
        rows = state[literal.name]
        next_envs: List[Dict[Var, Fraction]] = []
        for env in envs:
            for row in rows:
                extended = _match(literal.args, row, env)
                if extended is not None:
                    next_envs.append(extended)
        envs = next_envs
        if not envs:
            return derived
    for env in envs:
        ok = True
        for literal in checks:
            if isinstance(literal, PredicateLiteral):  # negated
                if _ground(literal.args, env) in state[literal.name]:
                    ok = False
                    break
            else:
                assert isinstance(literal, ConstraintLiteral)
                if not literal.atom.evaluate(env):
                    ok = False
                    break
        if ok:
            derived.add(_ground(r.head_args, env))
    return derived


def evaluate_finite(
    program: Program,
    instance: FiniteInstance,
    max_rounds: Optional[int] = None,
    *,
    on_budget: str = "raise",
) -> FiniteFixpointResult:
    """Inflationary fixpoint of ``program`` over a finite instance.

    Non-convergence within ``max_rounds`` is reported like every other
    fixpoint engine: raise
    :class:`~repro.runtime.budget.RoundLimitExceeded` by default, or
    return a truncated (sound, possibly incomplete) result under
    ``on_budget="partial"``.
    """
    from repro.datalog.engine import check_on_budget
    from repro.runtime.guard import round_limit_error

    check_on_budget(on_budget)
    _check_safety(program)
    for name, arity in program.edb.items():
        if name not in instance:
            raise DatalogError(f"EDB predicate {name!r} missing from the instance")
        if instance.arity(name) != arity:
            raise DatalogError(
                f"EDB predicate {name!r} has arity {instance.arity(name)}, "
                f"program declares {arity}"
            )
    state = instance.copy()
    for name, arity in program.idb.items():
        if name in state:
            raise DatalogError(f"IDB predicate {name!r} already stored")
        state.add_relation(name, [], arity=arity)

    rounds = 0
    # the body split is static: compute it once per rule, not per round
    splits = [(r, _split_body(r)) for r in program.rules]
    with span("datalog.finite", rules=len(program.rules), idb=len(program.idb)):
        while True:
            rounds += 1
            with span("datalog.finite.round", round=rounds) as sp:
                additions: Dict[str, Set[Row]] = {}
                for r, split in splits:
                    new_rows = _derive_rule(r, state, split)
                    additions.setdefault(r.head_name, set()).update(new_rows)
                changed = False
                delta = 0
                for name, rows in additions.items():
                    before = state[name]
                    if not rows <= before:
                        changed = True
                        if sp is not None:
                            delta += len(rows - before)
                        before |= rows
                if sp is not None:
                    sp.attrs["delta_tuples"] = delta
                    tracer = active_tracer()
                    tracer.metrics.count("datalog.finite.rounds")
                    tracer.metrics.observe("datalog.finite.delta_tuples", delta)
            if not changed:
                return FiniteFixpointResult(state, rounds, True)
            if max_rounds is not None and rounds >= max_rounds:
                if on_budget == "partial":
                    return FiniteFixpointResult(state, rounds, False)
                raise round_limit_error("finite.round", max_rounds, rounds)
