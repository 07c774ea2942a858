"""The benchmark workloads: fixed lists of qchar CLI invocations.

Every op is one ``qchar.cli.main(argv)`` call.  The seed chooses the order
of the ops and one base spectral power ``r`` shared by all of them.  Every
output is equivariant under a common shift of the powers, so the checker
compares it with the r = 0 golden after shifting it back.

Why each workload exists (the one-line form is in BENCHMARK.json):

* ``sweep``: the paper's verification grid, ``classify --empirical`` on
  A1-A4 and D4 at k = 1..4, one node per orbit of the diagram's
  automorphisms (a mirror node repeats its twin's work under relabelling).
  The D4 node 2, k = 4 cell is left out: it alone takes about 35 s, longer
  than a run.  The other NotSmall cells (A3 and A4 node 2 and the D4 leaf
  at k = 4, D4 node 2 at k = 3) still run closures after their first
  certified NotSpecial, so verdict early exit and faster closures show.
* ``closure``: ``qchar`` on KR highest monomials of D4, D5 and E6.  Every
  op is special, so the load is ``expand_Li_steps``, ``sl2``, the monomial
  product and JSON rendering; enumeration and early exit are bypassed.
* ``enumerate``: ``enumerate`` on every node of D4, D5 and E6 at k = 4, 5.
  No closures run; E6 node 3 at k = 5 visits 975,799 search nodes, just
  under the default budget.  A closure optimisation should not move it.
* ``affine``: ``classify --empirical`` on every node of A2~, A3~ and D4~
  at k = 1, 2 with closure and process budgets of 400 (the cap the
  library's own affine replay uses).  Every closure runs to its cap and
  ``generate_process`` spends its whole budget, including its ``blocked``
  check: the budget-limited path affine users hit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from qchar import format_monomial, kr_highest, parse_diagram

AFFINE_BUDGET = "400"
R_RANGE = (-40, 40)


@dataclass(frozen=True)
class Op:
    """One CLI invocation, named by workload, diagram, node and level."""

    workload: str
    diagram: str
    node: int
    k: int

    @property
    def id(self) -> str:
        return f"{self.workload}/{self.diagram}/{self.node}/{self.k}"


def _grid(workload, diagrams, ks, nodes=None):
    ops = []
    for name in diagrams:
        for i in nodes or parse_diagram(name).nodes:
            ops += [Op(workload, name, i, k) for k in ks]
    return ops


def ops_for(workload: str) -> list:
    """The workload's ops in canonical order."""
    if workload == "sweep":
        return [op for op in (_grid("sweep", ["A1", "A2"], range(1, 5), nodes=[1])
                              + _grid("sweep", ["A3", "A4", "D4"], range(1, 5),
                                      nodes=[1, 2]))
                if (op.diagram, op.node, op.k) != ("D4", 2, 4)]
    if workload == "closure":
        return (_grid("closure", ["D4"], range(1, 4))
                + _grid("closure", ["D5"], range(1, 3))
                + _grid("closure", ["E6"], [1])
                + _grid("closure", ["E6"], [2], nodes=[1, 5, 6]))
    if workload == "enumerate":
        return _grid("enumerate", ["D4", "D5", "E6"], [4, 5])
    if workload == "affine":
        return _grid("affine", ["A2~", "A3~", "D4~"], [1, 2])
    raise ValueError(f"unknown workload {workload!r}")


def argv_for(op: Op, c, r: int) -> list:
    """The argv of ``op`` at base spectral power ``r`` on diagram ``c``."""
    cell = ["--g", op.diagram, "--i", str(op.node), "--k", str(op.k)]
    if op.workload == "sweep":
        return ["classify", *cell, "--empirical", f"--r={r}", "--format", "json"]
    if op.workload == "closure":
        return ["qchar", "--g", op.diagram,
                format_monomial(kr_highest(c, op.node, op.k, r)), "--format", "json"]
    if op.workload == "enumerate":
        return ["enumerate", *cell, f"--r={r}", "--format", "json"]
    return ["classify", *cell, "--empirical", "--fm-steps", AFFINE_BUDGET,
            "--process-steps", AFFINE_BUDGET, f"--r={r}", "--format", "json"]


@dataclass
class Plan:
    """A workload's ops in run order, with their argv at the seed's ``r``."""

    workload: str
    seed: int
    r: int
    ops: list
    argvs: list


def plan(workload: str, seed: int, r: int | None = None) -> Plan:
    """Build the diagrams and the op list for ``workload`` under ``seed``.

    ``r`` overrides the seed's base power (the golden file uses r = 0).
    """
    rng = random.Random(seed)
    seed_r = rng.randint(*R_RANGE)
    ops = ops_for(workload)
    rng.shuffle(ops)
    r = seed_r if r is None else r
    diagrams = {name: parse_diagram(name) for name in {op.diagram for op in ops}}
    return Plan(workload, seed, r, ops,
                [argv_for(op, diagrams[op.diagram], r) for op in ops])
