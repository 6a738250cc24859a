"""repro: dense-order constraint databases.

A from-scratch implementation of the system studied in *"Dense-Order
Constraint Databases"* (Grumbach & Su, PODS 1995): finitely
representable databases over ``(Q, <=)``, the query languages FO,
FO+ (linear constraints), inflationary Datalog with negation, and the
complex-object calculus C-CALC -- plus the encodings, genericity tools,
and experiments that validate the paper's theorems.

Subpackages
-----------
``repro.core``        dense-order atoms, generalized relations, FO engine
``repro.linear``      linear constraints and FO+ (Fourier-Motzkin QE)
``repro.datalog``     inflationary Datalog with negation, closed-form
``repro.encoding``    cells, standard encoding, the PTIME capture pipeline
``repro.genericity``  automorphisms, EF games, inexpressibility search
``repro.cobjects``    complex constraint objects and C-CALC
``repro.queries``     canned queries (parity, connectivity, topology, ...)
``repro.workloads``   seeded workload generators for tests and benchmarks
``repro.runtime``     resource budgets, guards, degradation, fault injection
``repro.obs``         evaluation tracing, metrics, the run report
``repro.perf``        kernel memo cache and generalized-tuple interning
``repro.parallel``    opt-in sharded parallel evaluation backend
"""

__version__ = "1.0.0"

from repro.core import (  # noqa: F401  (re-exported convenience surface)
    Database,
    GTuple,
    Interval,
    IntervalSet,
    Relation,
    Var,
    atom,
    eq,
    evaluate,
    evaluate_boolean,
    exists,
    forall,
    ge,
    gt,
    le,
    lt,
    ne,
    rel,
)
from repro.obs import (  # noqa: F401
    Tracer,
    span,
)
from repro.parallel import (  # noqa: F401
    ExecutionContext,
)
from repro.perf import (  # noqa: F401
    kernel_cache_disabled,
    kernel_stats,
)
from repro.runtime import (  # noqa: F401
    Budget,
    BudgetExceeded,
    EvaluationGuard,
)

__all__ = [
    "Budget",
    "BudgetExceeded",
    "EvaluationGuard",
    "ExecutionContext",
    "Tracer",
    "kernel_cache_disabled",
    "kernel_stats",
    "span",
    "Database",
    "GTuple",
    "Interval",
    "IntervalSet",
    "Relation",
    "Var",
    "atom",
    "eq",
    "evaluate",
    "evaluate_boolean",
    "exists",
    "forall",
    "ge",
    "gt",
    "le",
    "lt",
    "ne",
    "rel",
    "__version__",
]
