"""Workbench for budgeted monotone operators between linear orders and
equivalence structures: canonical stream generators, operator combinators,
guess- and witness-driven stage constructions, a bounded forcing evaluator,
and desk-scale limit classifiers."""

from .diagram import (
    EmbedlabError,
    Fact,
    FiniteDiagram,
    InconsistentDiagram,
    InvalidInput,
    InvalidSchedule,
    InvalidSpec,
    NotInOutput,
    ParseError,
    Signature,
    SignatureError,
    el,
    sim,
    parse_diagram,
    total_order_diagram,
    partition_diagram,
)
from .streams import CanonicalSpec, StructureStream, generate
from .kernel import (
    EnumerationOperator,
    RunLog,
    TuringConstruction,
    run,
)
from .combinators import (
    LEFT_CLOSED,
    RIGHT_CLOSED,
    concatenate,
    disjoint_union,
    interval_fill,
    replicate,
    reverse,
)
from .sigma2 import (
    Sigma2Sentence,
    WitnessTracker,
    greatest_element_sentence,
    least_element_sentence,
    parse_sentence,
    resolve_sentence,
)
from .constructions import (
    StagePair,
    class_multiplier,
    eq2ord_v1,
    eq2ord_v2,
    formula2eq,
    ord2eq,
    pair_formula2eq,
    phi_pair,
    phi_sigma2,
    tuple_precedes,
)
from .forcing import (
    FORCED,
    REFUTED,
    UNKNOWN,
    ForcingQuery,
    ForcingVerdict,
    bounded_force,
    trichotomy_scan,
)
from .classify import (
    ClassCensus,
    ConsistencyVerdict,
    OrderFingerprint,
    census,
    consistency_verdict,
    fingerprint,
)

__all__ = [name for name in dir() if not name.startswith("_")]
