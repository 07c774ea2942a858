"""Exact q-character monomial calculus and the Kirillov-Reshetikhin
smallness classifier."""

from .cartan import (
    CartanData,
    DiagramError,
    NodeClassification,
    build_diagram,
    classify_nodes,
    graph_distance,
    parse_diagram,
)
from .expansion import (
    GenerationTrace,
    QCharacter,
    SpecialnessReport,
    TraceStep,
    expand_Li,
    fm_algorithm,
    generate_process,
)
from .monomials import (
    AWitness,
    Monomial,
    a_monomial,
    divide_as_a_product,
    format_monomial,
    kr_highest,
    monomial_from_json,
    parse_monomial,
)
from .smallness import (
    Budgets,
    Enumeration,
    SmallnessVerdict,
    check_small_empirical,
    classify,
    enumerate_dominant_below,
    sweep,
    verify_counterexamples,
)

__version__ = "0.1.0"

__all__ = [
    "AWitness",
    "Budgets",
    "CartanData",
    "DiagramError",
    "Enumeration",
    "GenerationTrace",
    "Monomial",
    "NodeClassification",
    "QCharacter",
    "SmallnessVerdict",
    "SpecialnessReport",
    "TraceStep",
    "a_monomial",
    "build_diagram",
    "check_small_empirical",
    "classify",
    "classify_nodes",
    "divide_as_a_product",
    "enumerate_dominant_below",
    "expand_Li",
    "fm_algorithm",
    "format_monomial",
    "generate_process",
    "graph_distance",
    "kr_highest",
    "monomial_from_json",
    "parse_diagram",
    "parse_monomial",
    "sweep",
    "verify_counterexamples",
]
