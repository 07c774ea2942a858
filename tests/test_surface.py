"""The package's public names, and every ``qchar`` name that the benchmark
harness under ``benchmarks/`` imports, reads or patches, so that a move
which would break the harness fails in tier-1 too."""

import ast
import importlib
from pathlib import Path

import qchar
from qchar.monomials import Monomial

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"

PUBLIC = [
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


def test_public_names_are_pinned():
    assert qchar.__all__ == PUBLIC
    assert all(hasattr(qchar, name) for name in PUBLIC)


def _benchmark_names():
    """(module, name) pairs that the benchmark code takes from ``qchar``:
    ``from qchar... import`` names, ``qchar.<module>.<name>`` reads, and the
    tracer's ``SPANNED`` and ``COUNTED`` entries."""
    names = set()
    for path in sorted(BENCHMARKS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                if (node.module or "").split(".")[0] == "qchar":
                    names.update((node.module, a.name) for a in node.names)
            elif isinstance(node, ast.Attribute):
                owner = node.value
                if (isinstance(owner, ast.Attribute)
                        and isinstance(owner.value, ast.Name)
                        and owner.value.id == "qchar"):
                    names.add((f"qchar.{owner.attr}", node.attr))
            elif isinstance(node, ast.Assign):
                if any(isinstance(t, ast.Name) and t.id in ("SPANNED", "COUNTED")
                       for t in node.targets):
                    names.update((home, attr) for _, home, attr
                                 in ast.literal_eval(node.value))
    return names


def test_every_name_the_benchmark_takes_resolves():
    names = _benchmark_names()
    # the collection reaches the tracer's tables, the checker and the runner
    assert {("qchar.monomials", "a_monomial"), ("qchar.sl2", "sl2_divide"),
            ("qchar.cartan", "graph_distance"), ("qchar", "divide_as_a_product"),
            ("qchar", "kr_highest"), ("qchar.cli", "main")} <= names
    missing = [(module, name) for module, name in sorted(names)
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
    assert "__mul__" in vars(Monomial)  # the tracer also counts Monomial.__mul__
